//! Columnar storage shared by both engines.
//!
//! A [`Database`] is a set of [`Table`]s; each table stores its columns as
//! typed vectors ([`ColumnData`]). The row engine reads values cell by
//! cell; the column engine borrows whole columns. Loaders build databases
//! from the `sqalpel-datagen` generators.

use crate::error::{EngineError, EngineResult};
use crate::eval::{ColTest, Prepared};
use crate::value::{self, ordering_holds, Day, LikePattern, Value};
use sqalpel_sql::ast::BinOp;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Rows per storage chunk. Zone maps are computed at this granularity and
/// the morsel scheduler slices scans at the same boundary
/// ([`crate::morsel::MORSEL_ROWS`] is defined as this constant), so a
/// zone-map decision always covers exactly one morsel.
pub const CHUNK_ROWS: usize = 4096;

/// Column types understood by the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    /// Fixed-point decimal with the given scale.
    Decimal(u8),
    Str,
    Date,
    Float,
}

/// A frame-of-reference bit-packed integer vector. Each [`CHUNK_ROWS`]
/// chunk stores its minimum as the frame and packs `value - min` into
/// `bits`-wide little-endian lanes, so a cell read is a shift and a mask
/// and the per-chunk bounds double as the zone map.
#[derive(Debug, Clone)]
pub struct ForVec {
    len: usize,
    chunks: Vec<ForChunk>,
}

#[derive(Debug, Clone)]
struct ForChunk {
    min: i64,
    max: i64,
    bits: u32,
    words: Vec<u64>,
}

impl ForChunk {
    fn encode(values: &[i64]) -> ForChunk {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let span = (max as i128 - min as i128) as u64;
        let bits = 64 - span.leading_zeros();
        let mut words = vec![0u64; (values.len() * bits as usize).div_ceil(64)];
        if bits > 0 {
            for (i, &v) in values.iter().enumerate() {
                let delta = (v as i128 - min as i128) as u64;
                let bit = i * bits as usize;
                let (word, off) = (bit / 64, (bit % 64) as u32);
                words[word] |= delta << off;
                if off + bits > 64 {
                    words[word + 1] |= delta >> (64 - off);
                }
            }
        }
        ForChunk {
            min,
            max,
            bits,
            words,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        if self.bits == 0 {
            return self.min;
        }
        let bit = i * self.bits as usize;
        let (word, off) = (bit / 64, (bit % 64) as u32);
        let mut delta = self.words[word] >> off;
        if off + self.bits > 64 {
            delta |= self.words[word + 1] << (64 - off);
        }
        let mask = if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        (self.min as i128 + (delta & mask) as i128) as i64
    }
}

impl ForVec {
    pub fn encode(values: &[i64]) -> ForVec {
        ForVec {
            len: values.len(),
            chunks: values.chunks(CHUNK_ROWS).map(ForChunk::encode).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packed payload size in bytes (frames excluded) — the compression
    /// decision in [`int_col`]/[`date_col`] compares this to raw storage.
    pub fn packed_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.words.len() * 8).sum()
    }

    #[inline]
    pub fn get(&self, idx: usize) -> i64 {
        self.chunks[idx / CHUNK_ROWS].get(idx % CHUNK_ROWS)
    }

    /// Decode `range` (must lie within one chunk or span whole chunks)
    /// by appending onto `out`.
    pub fn decode_range(&self, range: std::ops::Range<usize>, out: &mut Vec<i64>) {
        out.reserve(range.len());
        for idx in range {
            out.push(self.get(idx));
        }
    }

    pub fn decode(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_range(0..self.len, &mut out);
        out
    }

    /// Per-chunk `(min, max)` bounds — free zone-map material.
    pub fn chunk_bounds(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        self.chunks.iter().map(|c| (c.min, c.max))
    }
}

/// A typed column vector.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    /// `raw / 10^scale`.
    Decimal { raw: Vec<i64>, scale: u8 },
    Str(Vec<String>),
    Date(Vec<Day>),
    Float(Vec<f64>),
    /// Dictionary-encoded strings: `dict` is sorted and deduplicated, so
    /// code order equals lexicographic string order and range predicates
    /// can compare codes directly.
    Dict {
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
    },
    /// Frame-of-reference bit-packed integers.
    ForInt(ForVec),
    /// Frame-of-reference bit-packed dates (days since epoch).
    ForDate(ForVec),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Decimal { raw, .. } => raw.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::ForInt(v) | ColumnData::ForDate(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnData::Int(_) | ColumnData::ForInt(_) => ColumnType::Int,
            ColumnData::Decimal { scale, .. } => ColumnType::Decimal(*scale),
            ColumnData::Str(_) | ColumnData::Dict { .. } => ColumnType::Str,
            ColumnData::Date(_) | ColumnData::ForDate(_) => ColumnType::Date,
            ColumnData::Float(_) => ColumnType::Float,
        }
    }

    /// Read one cell as a [`Value`] (allocates for strings).
    pub fn get(&self, idx: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[idx]),
            ColumnData::Decimal { raw, scale } => Value::Decimal {
                raw: raw[idx] as i128,
                scale: *scale,
            },
            ColumnData::Str(v) => Value::Str(v[idx].clone()),
            ColumnData::Date(v) => Value::Date(v[idx]),
            ColumnData::Float(v) => Value::Float(v[idx]),
            ColumnData::Dict { codes, dict } => Value::Str(dict[codes[idx] as usize].clone()),
            ColumnData::ForInt(v) => Value::Int(v.get(idx)),
            ColumnData::ForDate(v) => Value::Date(v.get(idx) as Day),
        }
    }

    /// Write the cells at `base + sel[..]` into column `col` of the
    /// row-major buffer `out` (`width` values per row): one variant
    /// dispatch per column, not per cell. Strings overwrite the buffer's
    /// previous string in place, so a reused buffer stops allocating once
    /// its slots have grown to the column's longest value.
    pub fn fill(&self, base: usize, sel: &[u32], out: &mut [Value], col: usize, width: usize) {
        fn each(
            base: usize,
            sel: &[u32],
            out: &mut [Value],
            col: usize,
            width: usize,
            mut write: impl FnMut(usize, &mut Value),
        ) {
            for (r, &off) in sel.iter().enumerate() {
                write(base + off as usize, &mut out[r * width + col]);
            }
        }
        match self {
            ColumnData::Int(v) => each(base, sel, out, col, width, |i, o| *o = Value::Int(v[i])),
            ColumnData::Decimal { raw, scale } => each(base, sel, out, col, width, |i, o| {
                *o = Value::Decimal {
                    raw: raw[i] as i128,
                    scale: *scale,
                }
            }),
            ColumnData::Str(v) => each(base, sel, out, col, width, |i, o| value::set_str(o, &v[i])),
            ColumnData::Date(v) => each(base, sel, out, col, width, |i, o| *o = Value::Date(v[i])),
            ColumnData::Float(v) => {
                each(base, sel, out, col, width, |i, o| *o = Value::Float(v[i]))
            }
            ColumnData::Dict { codes, dict } => each(base, sel, out, col, width, |i, o| {
                value::set_str(o, &dict[codes[i] as usize])
            }),
            ColumnData::ForInt(v) => {
                each(base, sel, out, col, width, |i, o| *o = Value::Int(v.get(i)))
            }
            ColumnData::ForDate(v) => each(base, sel, out, col, width, |i, o| {
                *o = Value::Date(v.get(i) as Day)
            }),
        }
    }

    /// [`Self::fill`] for one cell.
    pub fn read_into(&self, idx: usize, slot: &mut Value) {
        self.fill(idx, &[0], std::slice::from_mut(slot), 0, 1);
    }

    /// The column's stored keys, where its cells are ordered `i64` keys:
    /// what zone bounds and [`key_range`] are read in. `None` for floats
    /// and raw strings.
    pub(crate) fn keys(&self) -> Option<Keys<'_>> {
        Some(match self {
            ColumnData::Int(_) | ColumnData::ForInt(_) => Keys::Fixed(0),
            ColumnData::Decimal { scale, .. } => Keys::Fixed(*scale),
            ColumnData::Date(_) | ColumnData::ForDate(_) => Keys::Days,
            ColumnData::Dict { dict, .. } => Keys::Codes(dict),
            ColumnData::Str(_) | ColumnData::Float(_) => return None,
        })
    }

    /// Per-chunk `(min, max)` zone bounds over the column's [`Keys`];
    /// `None` where it has none.
    pub(crate) fn zone_map(&self) -> Option<ZoneMap> {
        fn bounds<T: Copy, F: Fn(T) -> i64>(vals: &[T], f: F) -> ZoneMap {
            let mut zm = ZoneMap::default();
            for chunk in vals.chunks(CHUNK_ROWS) {
                let mut min = i64::MAX;
                let mut max = i64::MIN;
                for &v in chunk {
                    let x = f(v);
                    min = min.min(x);
                    max = max.max(x);
                }
                zm.mins.push(min);
                zm.maxs.push(max);
            }
            zm
        }
        match self {
            ColumnData::Int(v) => Some(bounds(v, |x| x)),
            ColumnData::Decimal { raw, .. } => Some(bounds(raw, |x| x)),
            ColumnData::Date(v) => Some(bounds(v, |x| x as i64)),
            ColumnData::Dict { codes, .. } => Some(bounds(codes, |x| x as i64)),
            ColumnData::ForInt(v) | ColumnData::ForDate(v) => {
                let mut zm = ZoneMap::default();
                for (min, max) in v.chunk_bounds() {
                    zm.mins.push(min);
                    zm.maxs.push(max);
                }
                Some(zm)
            }
            ColumnData::Str(_) | ColumnData::Float(_) => None,
        }
    }
}

/// Per-chunk min/max bounds for one column, over its stored keys (value,
/// decimal raw, day number or dictionary code). Empty chunks never occur:
/// chunk `i` covers rows
/// `[i * CHUNK_ROWS, min((i + 1) * CHUNK_ROWS, rows))`.
#[derive(Debug, Clone, Default)]
pub struct ZoneMap {
    pub mins: Vec<i64>,
    pub maxs: Vec<i64>,
}

impl ZoneMap {
    /// Could any row of chunk `chunk` have a key in `lo..=hi`?
    #[inline]
    pub fn overlaps(&self, chunk: usize, lo: i64, hi: i64) -> bool {
        lo <= hi && self.maxs[chunk] >= lo && self.mins[chunk] <= hi
    }

    /// The smallest and largest key of the whole column; `None` for an
    /// empty one.
    pub fn span(&self) -> Option<(i64, i64)> {
        Some((*self.mins.iter().min()?, *self.maxs.iter().max()?))
    }
}

/// What a column's stored `i64` keys are.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Keys<'d> {
    /// Exact numbers at a scale: integers (scale 0) or decimal raws.
    Fixed(u8),
    /// Day numbers.
    Days,
    /// Codes into a sorted dictionary: code order is string order.
    Codes(&'d [String]),
}

/// `col op k` read in a column's stored keys: the rows it keeps are
/// exactly those whose key lies in `lo..=hi` (none if `lo > hi`) or, for
/// `<>` (`negated`), exactly those whose key does not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyRange {
    pub lo: i64,
    pub hi: i64,
    pub negated: bool,
}

impl KeyRange {
    #[inline]
    pub fn holds(&self, key: i64) -> bool {
        (self.lo <= key && key <= self.hi) != self.negated
    }
}

/// The one reading of `col op k` in a column's stored keys: the zone
/// bounds a scan tests, RowStore's typed predicates and ColStore's
/// dictionary kernel all take it from here, and it keeps exactly the
/// rows [`value::compare`] keeps. `None` where that comparison is not one
/// over keys: a float constant, or a pair of types it refuses.
pub(crate) fn key_range(op: BinOp, k: &Value, keys: Keys<'_>) -> Option<KeyRange> {
    // Where `k` falls among the keys: the floor and ceiling of its place,
    // equal where it is a key.
    let (floor, ceil) = match (keys, k) {
        (Keys::Fixed(to), Value::Int(i)) => at_scale(*i as i128, 0, to),
        (Keys::Fixed(to), Value::Decimal { raw, scale }) => at_scale(*raw, *scale, to),
        (Keys::Days, Value::Date(d)) => (*d as i128, *d as i128),
        (Keys::Codes(dict), Value::Str(s)) => match dict.binary_search(s) {
            Ok(p) => (p as i128, p as i128),
            // Absent: between the codes on either side of where it would
            // be inserted.
            Err(p) => (p as i128 - 1, p as i128),
        },
        _ => return None,
    };
    let (lo, hi, negated) = match op {
        BinOp::Eq => (ceil, floor, false),
        BinOp::NotEq => (ceil, floor, true),
        BinOp::Lt => (i128::MIN, ceil.saturating_sub(1), false),
        BinOp::LtEq => (i128::MIN, floor, false),
        BinOp::Gt => (floor.saturating_add(1), i128::MAX, false),
        BinOp::GtEq => (ceil, i128::MAX, false),
        _ => return None,
    };
    // A bound past every key leaves none.
    let (lo, hi) = match (
        i64::try_from(lo.max(i64::MIN.into())),
        i64::try_from(hi.min(i64::MAX.into())),
    ) {
        (Ok(lo), Ok(hi)) => (lo, hi),
        _ => (1, 0),
    };
    Some(KeyRange { lo, hi, negated })
}

/// The floor and ceiling of `raw / 10^from` among keys at scale `to`,
/// saturating far past the `i64` keys.
fn at_scale(raw: i128, from: u8, to: u8) -> (i128, i128) {
    if from <= to {
        let f = 10i128.checked_pow(u32::from(to - from)).unwrap_or(i128::MAX);
        let k = raw.saturating_mul(f);
        return (k, k);
    }
    match 10i128.checked_pow(u32::from(from - to)) {
        Some(d) => {
            let floor = raw.div_euclid(d);
            (floor, floor + i128::from(raw.rem_euclid(d) != 0))
        }
        // `|raw|` is below the divisor: the value lies within (-1, 1).
        None => (raw.signum().min(0), raw.signum().max(0)),
    }
}

/// A scan-range constraint harvested from one filter conjunct: a
/// [`KeyRange`] that keeps one interval of the column's keys.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ZonePred {
    /// Table column index (`live[slot]` of the scan).
    pub col: usize,
    pub range: KeyRange,
}

/// The zone predicates of a scan's prepared conjuncts: the key range of
/// every bound a column test ([`ColTest::Cmp`]) puts on a column with
/// keys. A `<>` keeps no one interval and constrains no chunk.
pub(crate) fn zone_preds(
    conjuncts: &[Prepared<'_>],
    table: &Table,
    live: &[usize],
) -> Vec<ZonePred> {
    let mut preds = Vec::new();
    for c in conjuncts {
        let Some(ColTest::Cmp { slot, bounds }) = c.col_test() else {
            continue;
        };
        let col = live[slot];
        let Some(keys) = table.columns[col].data.keys() else {
            continue;
        };
        for (op, k) in bounds {
            if let Some(range) = key_range(op, k, keys).filter(|r| !r.negated) {
                preds.push(ZonePred { col, range });
            }
        }
    }
    preds
}

/// `col op constant` or `col [NOT] LIKE pattern` compiled against one
/// stored column, decided on the stored representation — the key, the
/// float, the string in place — with exactly the verdict
/// [`value::compare`] reaches on the boxed cell. Only pairs that
/// comparison cannot fail on compile (stored columns hold no NULLs, so
/// the verdict is a plain bool); everything else stays with the
/// expression evaluator.
pub(crate) enum CellPred<'p> {
    /// A comparison read in the column's keys ([`key_range`]).
    Keys(KeyRange),
    /// A float constant against an integer or decimal column, compared
    /// as `f64` like the boxed comparison.
    F64 { op: BinOp, div: f64, k: f64 },
    /// Dictionary column: the verdict per code.
    Codes(Vec<bool>),
    Str { op: BinOp, k: &'p str },
    Like {
        negated: bool,
        pattern: &'p LikePattern,
    },
}

impl<'p> CellPred<'p> {
    pub fn compare(op: BinOp, v: &'p Value, data: &ColumnData) -> Option<CellPred<'p>> {
        let keys = data.keys();
        if let Some(range) = keys.and_then(|keys| key_range(op, v, keys)) {
            return Some(CellPred::Keys(range));
        }
        Some(match (keys, data, v) {
            (Some(Keys::Fixed(scale)), _, Value::Float(k)) => CellPred::F64 {
                op,
                div: value::pow10(scale),
                k: *k,
            },
            (_, ColumnData::Str(_), Value::Str(k)) => CellPred::Str { op, k },
            _ => return None,
        })
    }

    pub fn like(
        negated: bool,
        pattern: &'p LikePattern,
        data: &ColumnData,
    ) -> Option<CellPred<'p>> {
        match data {
            ColumnData::Dict { dict, .. } => Some(CellPred::Codes(
                dict.iter().map(|s| pattern.matches(s) != negated).collect(),
            )),
            ColumnData::Str(_) => Some(CellPred::Like { negated, pattern }),
            _ => None,
        }
    }

    /// Keep the rows of `sel` (offsets from `base`) that pass; with
    /// `whole` set, `sel` is first filled with every row of that range.
    /// `data` must be the column this predicate was compiled against.
    pub fn select(
        &self,
        data: &ColumnData,
        base: usize,
        whole: Option<Range<usize>>,
        sel: &mut Vec<u32>,
    ) {
        fn keep(
            base: usize,
            whole: Option<Range<usize>>,
            sel: &mut Vec<u32>,
            pass: impl Fn(usize) -> bool,
        ) {
            match whole {
                Some(range) => {
                    sel.clear();
                    sel.extend((range.start..range.end).filter(|&i| pass(i)).map(|i| (i - base) as u32));
                }
                None => sel.retain(|&off| pass(base + off as usize)),
            }
        }
        let f64_holds = |x: f64, k: f64, op: BinOp| x.partial_cmp(&k).is_some_and(|o| ordering_holds(o, op));
        match (self, data) {
            (CellPred::Keys(r), ColumnData::Int(v)) => keep(base, whole, sel, |i| r.holds(v[i])),
            (CellPred::Keys(r), ColumnData::Decimal { raw, .. }) => {
                keep(base, whole, sel, |i| r.holds(raw[i]))
            }
            (CellPred::Keys(r), ColumnData::Date(v)) => {
                keep(base, whole, sel, |i| r.holds(v[i].into()))
            }
            (CellPred::Keys(r), ColumnData::ForInt(v) | ColumnData::ForDate(v)) => {
                keep(base, whole, sel, |i| r.holds(v.get(i)))
            }
            (CellPred::Keys(r), ColumnData::Dict { codes, .. }) => {
                keep(base, whole, sel, |i| r.holds(codes[i].into()))
            }
            (CellPred::F64 { op, div, k }, ColumnData::Int(v)) => {
                keep(base, whole, sel, |i| f64_holds(v[i] as f64 / div, *k, *op))
            }
            (CellPred::F64 { op, div, k }, ColumnData::ForInt(v)) => {
                keep(base, whole, sel, |i| f64_holds(v.get(i) as f64 / div, *k, *op))
            }
            (CellPred::F64 { op, div, k }, ColumnData::Decimal { raw, .. }) => {
                keep(base, whole, sel, |i| f64_holds(raw[i] as f64 / div, *k, *op))
            }
            (CellPred::Codes(verdict), ColumnData::Dict { codes, .. }) => {
                keep(base, whole, sel, |i| verdict[codes[i] as usize])
            }
            (CellPred::Str { op, k }, ColumnData::Str(v)) => {
                keep(base, whole, sel, |i| ordering_holds(v[i].as_str().cmp(k), *op))
            }
            (CellPred::Like { negated, pattern }, ColumnData::Str(v)) => {
                keep(base, whole, sel, |i| pattern.matches(&v[i]) != *negated)
            }
            _ => unreachable!("predicate compiled against another column"),
        }
    }
}

/// A named column.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub data: ColumnData,
}

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    rows: usize,
    /// Per-column zone maps, parallel to `columns` (`None` where the
    /// column type has no zone-map order).
    zones: Vec<Option<ZoneMap>>,
    /// Per-column optimizer statistics, parallel to `columns`.
    stats: Vec<crate::ir::stats::ColStats>,
}

impl Table {
    /// Build a table, checking that all columns have equal length.
    /// Zone maps and optimizer statistics (min/max + NDV sketches) are
    /// computed here, once, for every column.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> EngineResult<Table> {
        let name = name.into();
        let rows = columns.first().map_or(0, |c| c.data.len());
        for c in &columns {
            if c.data.len() != rows {
                return Err(EngineError::Type(format!(
                    "column {} has {} rows, expected {rows}",
                    c.name,
                    c.data.len()
                )));
            }
        }
        let zones: Vec<_> = columns.iter().map(|c| c.data.zone_map()).collect();
        let stats = columns
            .iter()
            .zip(&zones)
            .map(|(c, zone)| crate::ir::stats::of(&c.data, zone.as_ref()))
            .collect();
        Ok(Table {
            name,
            columns,
            rows,
            zones,
            stats,
        })
    }

    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// The zone map for column `ci`, if its type supports one.
    pub fn zone_map(&self, ci: usize) -> Option<&ZoneMap> {
        self.zones.get(ci).and_then(|z| z.as_ref())
    }

    /// Whether the zone maps prove that no row of `chunk` can satisfy
    /// every one of `preds`.
    pub(crate) fn zone_skips(&self, chunk: usize, preds: &[ZonePred]) -> bool {
        preds.iter().any(|zp| {
            self.zone_map(zp.col)
                .is_some_and(|zm| !zm.overlaps(chunk, zp.range.lo, zp.range.hi))
        })
    }

    /// The optimizer statistics for column `ci`.
    pub fn col_stats(&self, ci: usize) -> Option<&crate::ir::stats::ColStats> {
        self.stats.get(ci)
    }

    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }
}

/// An in-memory database: the catalog both engines execute against.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<Table>>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), Arc::new(table));
    }

    pub fn table(&self, name: &str) -> EngineResult<&Arc<Table>> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }

    /// Load a TPC-H database at the given scale factor and seed.
    pub fn tpch(sf: f64, seed: u64) -> Database {
        let data = sqalpel_datagen::TpchGen::new(sf, seed).generate();
        Database::from_tpch_data(&data)
    }

    /// Load from already-generated TPC-H data.
    pub fn from_tpch_data(d: &sqalpel_datagen::TpchData) -> Database {
        let mut db = Database::new();

        db.add_table(
            Table::new(
                "region",
                vec![
                    int_col("r_regionkey", d.region.iter().map(|r| r.r_regionkey)),
                    str_col("r_name", d.region.iter().map(|r| r.r_name.clone())),
                    str_col("r_comment", d.region.iter().map(|r| r.r_comment.clone())),
                ],
            )
            .expect("region columns"),
        );

        db.add_table(
            Table::new(
                "nation",
                vec![
                    int_col("n_nationkey", d.nation.iter().map(|n| n.n_nationkey)),
                    str_col("n_name", d.nation.iter().map(|n| n.n_name.clone())),
                    int_col("n_regionkey", d.nation.iter().map(|n| n.n_regionkey)),
                    str_col("n_comment", d.nation.iter().map(|n| n.n_comment.clone())),
                ],
            )
            .expect("nation columns"),
        );

        db.add_table(
            Table::new(
                "supplier",
                vec![
                    int_col("s_suppkey", d.supplier.iter().map(|s| s.s_suppkey)),
                    str_col("s_name", d.supplier.iter().map(|s| s.s_name.clone())),
                    str_col("s_address", d.supplier.iter().map(|s| s.s_address.clone())),
                    int_col("s_nationkey", d.supplier.iter().map(|s| s.s_nationkey)),
                    str_col("s_phone", d.supplier.iter().map(|s| s.s_phone.clone())),
                    dec_col("s_acctbal", d.supplier.iter().map(|s| s.s_acctbal), 2),
                    str_col("s_comment", d.supplier.iter().map(|s| s.s_comment.clone())),
                ],
            )
            .expect("supplier columns"),
        );

        db.add_table(
            Table::new(
                "part",
                vec![
                    int_col("p_partkey", d.part.iter().map(|p| p.p_partkey)),
                    str_col("p_name", d.part.iter().map(|p| p.p_name.clone())),
                    str_col("p_mfgr", d.part.iter().map(|p| p.p_mfgr.clone())),
                    str_col("p_brand", d.part.iter().map(|p| p.p_brand.clone())),
                    str_col("p_type", d.part.iter().map(|p| p.p_type.clone())),
                    int_col("p_size", d.part.iter().map(|p| p.p_size)),
                    str_col("p_container", d.part.iter().map(|p| p.p_container.clone())),
                    dec_col("p_retailprice", d.part.iter().map(|p| p.p_retailprice), 2),
                    str_col("p_comment", d.part.iter().map(|p| p.p_comment.clone())),
                ],
            )
            .expect("part columns"),
        );

        db.add_table(
            Table::new(
                "partsupp",
                vec![
                    int_col("ps_partkey", d.partsupp.iter().map(|p| p.ps_partkey)),
                    int_col("ps_suppkey", d.partsupp.iter().map(|p| p.ps_suppkey)),
                    int_col("ps_availqty", d.partsupp.iter().map(|p| p.ps_availqty)),
                    dec_col("ps_supplycost", d.partsupp.iter().map(|p| p.ps_supplycost), 2),
                    str_col("ps_comment", d.partsupp.iter().map(|p| p.ps_comment.clone())),
                ],
            )
            .expect("partsupp columns"),
        );

        db.add_table(
            Table::new(
                "customer",
                vec![
                    int_col("c_custkey", d.customer.iter().map(|c| c.c_custkey)),
                    str_col("c_name", d.customer.iter().map(|c| c.c_name.clone())),
                    str_col("c_address", d.customer.iter().map(|c| c.c_address.clone())),
                    int_col("c_nationkey", d.customer.iter().map(|c| c.c_nationkey)),
                    str_col("c_phone", d.customer.iter().map(|c| c.c_phone.clone())),
                    dec_col("c_acctbal", d.customer.iter().map(|c| c.c_acctbal), 2),
                    str_col("c_mktsegment", d.customer.iter().map(|c| c.c_mktsegment.clone())),
                    str_col("c_comment", d.customer.iter().map(|c| c.c_comment.clone())),
                ],
            )
            .expect("customer columns"),
        );

        db.add_table(
            Table::new(
                "orders",
                vec![
                    int_col("o_orderkey", d.orders.iter().map(|o| o.o_orderkey)),
                    int_col("o_custkey", d.orders.iter().map(|o| o.o_custkey)),
                    str_col("o_orderstatus", d.orders.iter().map(|o| o.o_orderstatus.clone())),
                    dec_col("o_totalprice", d.orders.iter().map(|o| o.o_totalprice), 2),
                    date_col("o_orderdate", d.orders.iter().map(|o| o.o_orderdate)),
                    str_col(
                        "o_orderpriority",
                        d.orders.iter().map(|o| o.o_orderpriority.clone()),
                    ),
                    str_col("o_clerk", d.orders.iter().map(|o| o.o_clerk.clone())),
                    int_col("o_shippriority", d.orders.iter().map(|o| o.o_shippriority)),
                    str_col("o_comment", d.orders.iter().map(|o| o.o_comment.clone())),
                ],
            )
            .expect("orders columns"),
        );

        // Cluster the fact table on its dominant range-filter column
        // before chunking. Same multiset of rows, but each chunk now
        // covers a narrow shipdate band, so zone maps can prune
        // date-range scans (TPC-H Q6) instead of touching every chunk.
        // Ties break on (orderkey, linenumber) to keep the layout
        // deterministic for a given generator seed.
        let mut lineitem: Vec<&sqalpel_datagen::tpch::LineItem> = d.lineitem.iter().collect();
        lineitem.sort_by_key(|l| (l.l_shipdate, l.l_orderkey, l.l_linenumber));

        db.add_table(
            Table::new(
                "lineitem",
                vec![
                    int_col("l_orderkey", lineitem.iter().map(|l| l.l_orderkey)),
                    int_col("l_partkey", lineitem.iter().map(|l| l.l_partkey)),
                    int_col("l_suppkey", lineitem.iter().map(|l| l.l_suppkey)),
                    int_col("l_linenumber", lineitem.iter().map(|l| l.l_linenumber)),
                    int_col("l_quantity", lineitem.iter().map(|l| l.l_quantity)),
                    dec_col(
                        "l_extendedprice",
                        lineitem.iter().map(|l| l.l_extendedprice),
                        2,
                    ),
                    dec_col("l_discount", lineitem.iter().map(|l| l.l_discount), 2),
                    dec_col("l_tax", lineitem.iter().map(|l| l.l_tax), 2),
                    str_col("l_returnflag", lineitem.iter().map(|l| l.l_returnflag.clone())),
                    str_col("l_linestatus", lineitem.iter().map(|l| l.l_linestatus.clone())),
                    date_col("l_shipdate", lineitem.iter().map(|l| l.l_shipdate)),
                    date_col("l_commitdate", lineitem.iter().map(|l| l.l_commitdate)),
                    date_col("l_receiptdate", lineitem.iter().map(|l| l.l_receiptdate)),
                    str_col(
                        "l_shipinstruct",
                        lineitem.iter().map(|l| l.l_shipinstruct.clone()),
                    ),
                    str_col("l_shipmode", lineitem.iter().map(|l| l.l_shipmode.clone())),
                    str_col("l_comment", lineitem.iter().map(|l| l.l_comment.clone())),
                ],
            )
            .expect("lineitem columns"),
        );

        db
    }

    /// Load a TPC-H + SSB database (adds `date_dim` and `lineorder`).
    pub fn ssb(sf: f64, seed: u64) -> Database {
        let data = sqalpel_datagen::TpchGen::new(sf, seed).generate();
        let ssb = sqalpel_datagen::ssb::from_tpch(&data);
        let mut db = Database::from_tpch_data(&data);
        db.add_table(
            Table::new(
                "date_dim",
                vec![
                    date_col("d_datekey", ssb.date_dim.iter().map(|d| d.d_datekey)),
                    str_col("d_date", ssb.date_dim.iter().map(|d| d.d_date.clone())),
                    int_col("d_year", ssb.date_dim.iter().map(|d| d.d_year)),
                    int_col("d_month", ssb.date_dim.iter().map(|d| d.d_month)),
                    int_col("d_yearmonthnum", ssb.date_dim.iter().map(|d| d.d_yearmonthnum)),
                    int_col("d_weeknuminyear", ssb.date_dim.iter().map(|d| d.d_weeknuminyear)),
                    str_col(
                        "d_sellingseason",
                        ssb.date_dim.iter().map(|d| d.d_sellingseason.clone()),
                    ),
                ],
            )
            .expect("date_dim columns"),
        );
        // Same load-time clustering as lineitem: order the fact table by
        // its date column so zone maps can prune year/range scans.
        let mut lineorder: Vec<&sqalpel_datagen::ssb::LineOrder> = ssb.lineorder.iter().collect();
        lineorder.sort_by_key(|l| (l.lo_orderdate, l.lo_orderkey, l.lo_linenumber));
        db.add_table(
            Table::new(
                "lineorder",
                vec![
                    int_col("lo_orderkey", lineorder.iter().map(|l| l.lo_orderkey)),
                    int_col("lo_linenumber", lineorder.iter().map(|l| l.lo_linenumber)),
                    int_col("lo_custkey", lineorder.iter().map(|l| l.lo_custkey)),
                    int_col("lo_partkey", lineorder.iter().map(|l| l.lo_partkey)),
                    int_col("lo_suppkey", lineorder.iter().map(|l| l.lo_suppkey)),
                    date_col("lo_orderdate", lineorder.iter().map(|l| l.lo_orderdate)),
                    str_col(
                        "lo_orderpriority",
                        lineorder.iter().map(|l| l.lo_orderpriority.clone()),
                    ),
                    int_col("lo_quantity", lineorder.iter().map(|l| l.lo_quantity)),
                    dec_col(
                        "lo_extendedprice",
                        lineorder.iter().map(|l| l.lo_extendedprice),
                        2,
                    ),
                    dec_col("lo_discount", lineorder.iter().map(|l| l.lo_discount), 2),
                    dec_col("lo_revenue", lineorder.iter().map(|l| l.lo_revenue), 2),
                    dec_col("lo_supplycost", lineorder.iter().map(|l| l.lo_supplycost), 2),
                ],
            )
            .expect("lineorder columns"),
        );
        db
    }

    /// Load the synthetic airtraffic database (`ontime` table).
    pub fn airtraffic(flights_per_day: usize, year: i32, seed: u64) -> Database {
        let flights = sqalpel_datagen::airtraffic::AirTrafficGen::new(flights_per_day, year, seed)
            .generate();
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "ontime",
                vec![
                    date_col("flightdate", flights.iter().map(|f| f.flightdate)),
                    str_col("carrier", flights.iter().map(|f| f.carrier.clone())),
                    int_col("flightnum", flights.iter().map(|f| f.flightnum)),
                    str_col("origin", flights.iter().map(|f| f.origin.clone())),
                    str_col("dest", flights.iter().map(|f| f.dest.clone())),
                    int_col("depdelay", flights.iter().map(|f| f.depdelay)),
                    int_col("arrdelay", flights.iter().map(|f| f.arrdelay)),
                    int_col("distance", flights.iter().map(|f| f.distance)),
                    int_col("cancelled", flights.iter().map(|f| f.cancelled as i64)),
                ],
            )
            .expect("ontime columns"),
        );
        db
    }
}

/// Dictionary-encode when the column is low-NDV enough for codes to pay
/// off: at most this many distinct values.
const DICT_MAX_NDV: usize = 1024;

/// Keep a frame-of-reference encoding only when it actually compresses:
/// packed payload under 3/4 of the raw width.
fn for_profitable(packed: &ForVec, raw_bytes: usize) -> bool {
    packed.packed_bytes() * 4 < raw_bytes * 3
}

/// Dictionary-encode `values` if the distinct count is small; the
/// dictionary is sorted so code order is string order.
pub fn dict_encode(values: &[String]) -> Option<(Vec<u32>, Arc<Vec<String>>)> {
    let mut dict: Vec<String> = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    if dict.is_empty() || dict.len() > DICT_MAX_NDV {
        return None;
    }
    let codes = values
        .iter()
        .map(|v| dict.binary_search(v).expect("dict covers values") as u32)
        .collect();
    Some((codes, Arc::new(dict)))
}

/// Helper: integer column from an iterator. Frame-of-reference packs the
/// values when the packed form is materially smaller than raw `i64`s.
pub fn int_col(name: &str, values: impl Iterator<Item = i64>) -> Column {
    let values: Vec<i64> = values.collect();
    let packed = ForVec::encode(&values);
    let data = if for_profitable(&packed, values.len() * 8) {
        ColumnData::ForInt(packed)
    } else {
        ColumnData::Int(values)
    };
    Column {
        name: name.to_string(),
        data,
    }
}

/// Helper: decimal column from raw fixed-point values.
pub fn dec_col(name: &str, values: impl Iterator<Item = i64>, scale: u8) -> Column {
    Column {
        name: name.to_string(),
        data: ColumnData::Decimal {
            raw: values.collect(),
            scale,
        },
    }
}

/// Helper: string column. Low-NDV columns (`l_returnflag`, `l_shipmode`,
/// nation/region names, …) come out dictionary-encoded; high-NDV columns
/// stay as raw strings.
pub fn str_col(name: &str, values: impl Iterator<Item = String>) -> Column {
    let values: Vec<String> = values.collect();
    let data = match dict_encode(&values) {
        Some((codes, dict)) => ColumnData::Dict { codes, dict },
        None => ColumnData::Str(values),
    };
    Column {
        name: name.to_string(),
        data,
    }
}

/// Helper: date column, frame-of-reference packed when profitable (dates
/// cluster in a few thousand distinct days, so they almost always are).
pub fn date_col(name: &str, values: impl Iterator<Item = Day>) -> Column {
    let values: Vec<i64> = values.map(|d| d as i64).collect();
    let packed = ForVec::encode(&values);
    let data = if for_profitable(&packed, values.len() * 4) {
        ColumnData::ForDate(packed)
    } else {
        ColumnData::Date(values.into_iter().map(|v| v as Day).collect())
    };
    Column {
        name: name.to_string(),
        data,
    }
}

/// Helper: float column.
pub fn float_col(name: &str, values: impl Iterator<Item = f64>) -> Column {
    Column {
        name: name.to_string(),
        data: ColumnData::Float(values.collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `key_range` keeps exactly the keys whose value `value::compare`
    /// orders as the operator asks: integers and decimals at scales 0, 2
    /// and 4 against integer and decimal constants on, between and far
    /// past the keys, and a dictionary against present and absent
    /// strings.
    #[test]
    fn a_key_range_keeps_what_compare_keeps() {
        let ops = [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq];
        let keys = [i64::MIN, i64::MIN + 1, -101, -100, -1, 0, 1, 99, 100, 101, i64::MAX];
        let constants = [
            Value::Int(-1),
            Value::Int(1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Decimal { raw: -101, scale: 2 },
            Value::Decimal { raw: 1005, scale: 3 },
            Value::Decimal { raw: -1, scale: 38 },
            Value::Decimal { raw: i128::MAX, scale: 0 },
            Value::Decimal { raw: i128::MIN + 1, scale: 38 },
        ];
        for scale in [0u8, 2, 4] {
            for k in &constants {
                for op in ops {
                    let range = key_range(op, k, Keys::Fixed(scale)).unwrap();
                    for key in keys {
                        let cell = Value::Decimal { raw: key.into(), scale };
                        let want = ordering_holds(value::compare(&cell, k).unwrap().unwrap(), op);
                        assert_eq!(range.holds(key), want, "{cell:?} {op:?} {k:?}");
                    }
                }
            }
        }
        let dict: Vec<String> = ["b", "d"].map(String::from).to_vec();
        for k in ["a", "b", "c", "d", "e"] {
            let k = Value::Str(k.into());
            for op in ops {
                let range = key_range(op, &k, Keys::Codes(&dict)).unwrap();
                for (code, s) in dict.iter().enumerate() {
                    let want = ordering_holds(value::compare(&Value::Str(s.clone()), &k).unwrap().unwrap(), op);
                    assert_eq!(range.holds(code as i64), want, "{s:?} {op:?} {k:?}");
                }
            }
        }
    }

    #[test]
    fn mismatched_column_lengths_rejected() {
        let t = Table::new(
            "t",
            vec![
                int_col("a", [1, 2, 3].into_iter()),
                int_col("b", [1, 2].into_iter()),
            ],
        );
        assert!(t.is_err());
    }

    #[test]
    fn tpch_database_has_all_tables() {
        let db = Database::tpch(0.001, 42);
        assert_eq!(
            db.table_names(),
            vec![
                "customer", "lineitem", "nation", "orders", "part", "partsupp", "region",
                "supplier"
            ]
        );
        assert_eq!(db.table("nation").unwrap().row_count(), 25);
        assert_eq!(db.table("lineitem").unwrap().columns.len(), 16);
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::tpch(0.001, 42);
        assert!(matches!(
            db.table("nonexistent"),
            Err(EngineError::UnknownTable(_))
        ));
    }

    #[test]
    fn cell_access_types() {
        let db = Database::tpch(0.001, 42);
        let li = db.table("lineitem").unwrap();
        let price = li.column("l_extendedprice").unwrap();
        assert!(matches!(price.data.get(0), Value::Decimal { scale: 2, .. }));
        let ship = li.column("l_shipdate").unwrap();
        assert!(matches!(ship.data.get(0), Value::Date(_)));
        let flag = li.column("l_returnflag").unwrap();
        assert!(matches!(flag.data.get(0), Value::Str(_)));
    }

    #[test]
    fn ssb_database_adds_star_tables() {
        let db = Database::ssb(0.001, 42);
        assert!(db.table("lineorder").is_ok());
        assert!(db.table("date_dim").is_ok());
        assert_eq!(db.table("date_dim").unwrap().row_count(), 2557);
    }

    #[test]
    fn airtraffic_database() {
        let db = Database::airtraffic(5, 2015, 9);
        let t = db.table("ontime").unwrap();
        assert_eq!(t.row_count(), 5 * 365);
        assert!(t.column("carrier").is_some());
    }

    #[test]
    fn column_lookup() {
        let db = Database::tpch(0.001, 42);
        let n = db.table("nation").unwrap();
        assert_eq!(n.column_index("n_name"), Some(1));
        assert_eq!(n.column_index("bogus"), None);
        assert_eq!(n.column_names().count(), 4);
    }
}
