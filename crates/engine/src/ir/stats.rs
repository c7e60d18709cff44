//! Load-time column statistics for the cost-based optimizer.
//!
//! Every [`crate::storage::Table`] collects one [`ColStats`] per column
//! when it is built: row-independent `min`/`max` bounds in the column's
//! raw i64 domain — the fold of its per-chunk zone maps (value for ints,
//! day for dates, raw for decimals) — and a distinct-value estimate from
//! a KMV (k-minimum-values) sketch.
//!
//! The sketch hashes every *logical* value, so the estimate is a pure
//! function of the stored value multiset: a dictionary-encoded string
//! column and its raw twin, or a frame-of-reference packed int column
//! and its unencoded twin, produce identical statistics. The storage
//! property tests pin that round-trip.

use crate::storage::{ColumnData, ZoneMap};
use std::collections::BTreeSet;

/// Sketch size: with `k` minima the estimate `(k-1) * 2^64 / kth_min` has
/// a relative standard error of about `1/sqrt(k-2)` (~6% at 256), and any
/// column with fewer than `k` distinct values is counted exactly.
pub const KMV_K: usize = 256;

/// Statistics for one stored column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColStats {
    /// Minimum value in the column's raw i64 domain (`None` for types
    /// without a zone-map order: floats and strings).
    pub min: Option<i64>,
    /// Maximum value, same domain as `min`.
    pub max: Option<i64>,
    /// Estimated number of distinct values (exact below [`KMV_K`]).
    pub ndv: f64,
}

impl ColStats {
    /// The distinct count clamped to at least one — the denominator the
    /// selectivity estimator divides by.
    pub fn ndv_floor(&self) -> f64 {
        if self.ndv >= 1.0 {
            self.ndv
        } else {
            1.0
        }
    }
}

/// A KMV distinct-count sketch: the `k` smallest 64-bit hashes seen.
#[derive(Debug, Clone)]
pub struct KmvSketch {
    k: usize,
    mins: BTreeSet<u64>,
    /// Current k-th minimum (u64::MAX until the sketch is full) — a cheap
    /// reject test so the common case is one comparison.
    threshold: u64,
}

impl Default for KmvSketch {
    fn default() -> Self {
        KmvSketch::new(KMV_K)
    }
}

impl KmvSketch {
    pub fn new(k: usize) -> KmvSketch {
        KmvSketch {
            k: k.max(2),
            mins: BTreeSet::new(),
            threshold: u64::MAX,
        }
    }

    /// Insert a pre-hashed value. Order-independent and idempotent, so
    /// the estimate depends only on the distinct-value set.
    pub fn insert_hash(&mut self, h: u64) {
        if h > self.threshold {
            return;
        }
        if self.mins.insert(h) && self.mins.len() > self.k {
            self.mins.pop_last();
        }
        if self.mins.len() == self.k {
            self.threshold = *self.mins.iter().next_back().expect("non-empty sketch");
        }
    }

    /// The distinct-count estimate: exact while the sketch is not full,
    /// `(k-1) / kth_min` scaled to the hash space once it is.
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        let kth = *self.mins.iter().next_back().expect("full sketch") as f64;
        // kth_min / 2^64 estimates the fraction of hash space covered by
        // the k smallest values.
        ((self.k - 1) as f64) * (2f64.powi(64) / kth.max(1.0))
    }
}

/// FNV-1a over raw bytes — the same hash family the plan fingerprints
/// use; deterministic across runs and platforms.
#[inline]
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[inline]
fn hash_i64(v: i64) -> u64 {
    fnv1a_bytes(&v.to_le_bytes())
}

/// Collect statistics for a bare column, outside a table: what
/// [`crate::storage::Table::new`] does with the zone maps it built.
pub fn collect(data: &ColumnData) -> ColStats {
    of(data, data.zone_map().as_ref())
}

/// The statistics of one column whose zone maps are `zone`: `min`/`max`
/// are their fold — for every column but a dictionary, whose code order
/// interpolates nothing — and `ndv` the sketch of its logical values.
pub(crate) fn of(data: &ColumnData, zone: Option<&ZoneMap>) -> ColStats {
    fn ints(kmv: &mut KmvSketch, values: impl Iterator<Item = i64>) {
        values.for_each(|v| kmv.insert_hash(hash_i64(v)));
    }
    let mut kmv = KmvSketch::default();
    match data {
        ColumnData::Int(v) => ints(&mut kmv, v.iter().copied()),
        ColumnData::Decimal { raw, .. } => ints(&mut kmv, raw.iter().copied()),
        ColumnData::Date(v) => ints(&mut kmv, v.iter().map(|&d| d.into())),
        // Every decoded value, so the sketch matches the unencoded twin.
        ColumnData::ForInt(v) | ColumnData::ForDate(v) => {
            ints(&mut kmv, (0..v.len()).map(|i| v.get(i)))
        }
        ColumnData::Float(v) => {
            for x in v {
                kmv.insert_hash(fnv1a_bytes(&x.to_bits().to_le_bytes()));
            }
        }
        ColumnData::Str(v) => {
            for s in v {
                kmv.insert_hash(fnv1a_bytes(s.as_bytes()));
            }
        }
        ColumnData::Dict { codes, dict } => {
            // Hash the *strings*, not the codes, so a dict column and its
            // raw twin sketch identically. One hash per dictionary entry,
            // then an array lookup per row.
            let entry_hash: Vec<u64> = dict.iter().map(|s| fnv1a_bytes(s.as_bytes())).collect();
            for &c in codes {
                kmv.insert_hash(entry_hash[c as usize]);
            }
        }
    }
    let span = match data {
        ColumnData::Dict { .. } => None,
        _ => zone.and_then(ZoneMap::span),
    };
    ColStats {
        min: span.map(|(min, _)| min),
        max: span.map(|(_, max)| max),
        ndv: kmv.estimate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{dict_encode, ForVec};

    #[test]
    fn small_columns_count_exactly() {
        let s = collect(&ColumnData::Int(vec![1, 2, 2, 3, 3, 3]));
        assert_eq!(s.ndv, 3.0);
        assert_eq!((s.min, s.max), (Some(1), Some(3)));
    }

    #[test]
    fn empty_column_is_all_defaults() {
        let s = collect(&ColumnData::Int(vec![]));
        assert_eq!(s.ndv, 0.0);
        assert_eq!((s.min, s.max), (None, None));
        assert_eq!(s.ndv_floor(), 1.0);
    }

    #[test]
    fn sketch_estimate_is_close_on_large_domains() {
        let values: Vec<i64> = (0..50_000).map(|i| i * 7 + 3).collect();
        let s = collect(&ColumnData::Int(values));
        let err = (s.ndv - 50_000.0).abs() / 50_000.0;
        assert!(err < 0.15, "ndv {} off by {err}", s.ndv);
    }

    #[test]
    fn encodings_do_not_change_stats() {
        let ints: Vec<i64> = (0..10_000).map(|i| (i * 37) % 500 + 1000).collect();
        let raw = collect(&ColumnData::Int(ints.clone()));
        let packed = collect(&ColumnData::ForInt(ForVec::encode(&ints)));
        assert_eq!(raw, packed);

        let strs: Vec<String> = (0..5_000).map(|i| format!("v{}", i % 40)).collect();
        let raw = collect(&ColumnData::Str(strs.clone()));
        let (codes, dict) = dict_encode(&strs).expect("low NDV");
        let encoded = collect(&ColumnData::Dict { codes, dict });
        assert_eq!(raw, encoded);
        assert_eq!(raw.ndv, 40.0);
    }

    #[test]
    fn sketch_is_order_independent() {
        let mut a = KmvSketch::new(16);
        let mut b = KmvSketch::new(16);
        let hashes: Vec<u64> = (0..1000u64).map(|i| hash_i64(i as i64)).collect();
        for &h in &hashes {
            a.insert_hash(h);
        }
        for &h in hashes.iter().rev() {
            b.insert_hash(h);
            b.insert_hash(h); // idempotent
        }
        assert_eq!(a.estimate(), b.estimate());
    }
}
