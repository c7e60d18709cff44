//! Group-key codec and radix partitioning for the hash kernels (grouped
//! aggregation and equi-join). [`GroupMap`] and [`MatchMap`], keyed by
//! what this module encodes, are the only hash tables the column engine
//! groups and joins with.
//!
//! A [`GroupCodec`] encodes one row's key from the evaluated key columns
//! without building a `Vec<Key>` per row:
//!
//! - when every key column has a fixed width and the widths sum to at
//!   most 8 bytes, a row's key packs into a single `u64` (**u64 mode**);
//! - otherwise the key is serialized into one reusable scratch buffer
//!   and owned copies are made only per *distinct* key.
//!
//! Every column has an encoding. A typed column (`Int`, `Date`, `Bool`,
//! `Decimal`, `Str`, `Dict`) is read straight from its vector; a column
//! whose rows may mix representations (`Float`, `Val`), a NULL or
//! erroring constant, and a join pair whose sides are of different type
//! classes use the tagged image of [`crate::value::encode_key`], per
//! row — so an interval still fails on the row that holds it. Encodings
//! are injective per codec: every column is fixed-width or
//! length-prefixed, so concatenation cannot collide. For joins,
//! [`join_codecs`] gives both sides of each equality pair the same
//! encoding (integers joined against decimals are widened to the scale-6
//! `i128` domain of [`crate::value::Key`]). Either way byte equality
//! coincides exactly with `Key` equality.
//!
//! Partitioning uses the top 4 bits of a fixed-seed hash — a pure
//! function of the key, so which rows share a partition (and with it
//! every deterministic ordering argument) never depends on how many
//! workers run.

use crate::error::{EngineError, EngineResult};
use crate::exec_col::ColVec;
use crate::value::{self, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Number of radix partitions. Fixed (not derived from the thread
/// count) so partition assignment is a pure function of the key.
pub const NPARTS: usize = 16;

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// An FxHash-style multiply-rotate hasher: a few cycles per word, which
/// matters more than distribution quality for small integer keys. The
/// final xor-shift mix spreads entropy into the high bits that
/// [`partition`] consumes.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.fold(u64::from_le_bytes(buf));
        }
        self.fold(bytes.len() as u64);
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        self.fold(w);
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.fold(b as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }
}

pub type FxBuild = BuildHasherDefault<FxHasher>;

/// Hash one packed `u64` key.
#[inline]
pub fn hash_u64(x: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(x);
    h.finish()
}

/// Hash one serialized key.
#[inline]
pub fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(b);
    h.finish()
}

/// The radix partition of a hash: its top 4 bits.
#[inline]
pub fn partition(h: u64) -> usize {
    (h >> 60) as usize
}

/// One key column's encoder. Borrowed straight from the evaluated
/// [`ColVec`]s, so encoding reads the typed storage with no boxing.
enum ColEnc<'a> {
    /// `i64` as 8 little-endian bytes.
    I64(&'a [i64]),
    /// Days as 4 little-endian bytes.
    Date(&'a [i32]),
    /// One byte.
    Bool(&'a [bool]),
    /// Decimal rescaled to scale 6 (the [`value::Key`] normalization,
    /// with the identical overflow check), 16 little-endian bytes.
    Dec6 {
        raw: &'a [i128],
        /// `10^(6 - scale)` when upscaling (checked), else 1.
        mul: i128,
        /// `10^(scale - 6)` when downscaling (lossy, like `Key`), else 1.
        div: i128,
    },
    /// `i64` widened into the scale-6 decimal domain (for join pairs
    /// mixing integer and decimal sides), 16 little-endian bytes.
    IntDec6(&'a [i64]),
    /// Length-prefixed UTF-8 bytes (self-delimiting, so multi-column
    /// concatenations stay injective).
    Str(&'a [String]),
    /// Dictionary codes as 4 little-endian bytes. Valid for GROUP BY
    /// keys: within one column, equal codes ⇔ equal strings.
    DictCode(&'a [u32]),
    /// Dictionary codes decoded to their length-prefixed string bytes —
    /// the join-side encoding, where the two sides may use different
    /// dictionaries and only the strings are comparable.
    DictStr {
        codes: &'a [u32],
        dict: &'a [String],
    },
    /// A broadcast constant, pre-encoded once.
    Const(Vec<u8>),
    /// The tagged [`value::encode_key`] image of each row's value: for
    /// columns whose rows may mix representations, and for whatever must
    /// keep failing on the row that holds it.
    Tagged(&'a ColVec),
}

impl ColEnc<'_> {
    fn dec6(raw: &[i128], scale: u8) -> ColEnc<'_> {
        let (mul, div) = dec6_factors(scale);
        ColEnc::Dec6 { raw, mul, div }
    }

    /// Encoded byte width; `None` for variable-width strings.
    fn width(&self) -> Option<usize> {
        match self {
            ColEnc::I64(_) => Some(8),
            ColEnc::Date(_) => Some(4),
            ColEnc::Bool(_) => Some(1),
            ColEnc::Dec6 { .. } | ColEnc::IntDec6(_) => Some(16),
            ColEnc::DictCode(_) => Some(4),
            ColEnc::Str(_) | ColEnc::DictStr { .. } | ColEnc::Tagged(_) => None,
            ColEnc::Const(b) => Some(b.len()),
        }
    }
}

/// The `(mul, div)` pair that takes a decimal of `scale` to scale 6.
fn dec6_factors(scale: u8) -> (i128, i128) {
    if scale <= 6 {
        (10i128.pow((6 - scale) as u32), 1)
    } else {
        (1, 10i128.pow((scale - 6) as u32))
    }
}

/// Rescale with the exact failure mode of [`Value::key`]: upscaling is
/// overflow-checked, downscaling truncates.
#[inline]
fn rescale6(raw: i128, mul: i128, div: i128) -> EngineResult<i128> {
    if div != 1 {
        Ok(raw / div)
    } else {
        raw.checked_mul(mul)
            .ok_or_else(|| EngineError::Overflow("decimal rescale".into()))
    }
}

/// One row's encoded key: packed or borrowed from the scratch buffer.
#[derive(Clone, Copy)]
pub enum EncRow<'b> {
    U64(u64),
    Bytes(&'b [u8]),
}

impl EncRow<'_> {
    #[inline]
    pub fn hash(&self) -> u64 {
        match self {
            EncRow::U64(x) => hash_u64(*x),
            EncRow::Bytes(b) => hash_bytes(b),
        }
    }

    /// Which of `nparts` tables holds this key: its radix partition among
    /// [`NPARTS`], or the only one there is — without hashing for it.
    #[inline]
    pub fn partition(&self, nparts: usize) -> usize {
        if nparts > 1 {
            partition(self.hash())
        } else {
            0
        }
    }
}

/// A whole-row key encoder over evaluated key columns.
pub struct GroupCodec<'a> {
    encs: Vec<ColEnc<'a>>,
    u64_mode: bool,
}

impl<'a> GroupCodec<'a> {
    fn new(encs: Vec<ColEnc<'a>>) -> GroupCodec<'a> {
        let total: Option<usize> = encs.iter().try_fold(0usize, |acc, e| {
            e.width().map(|w| acc + w)
        });
        let u64_mode = matches!(total, Some(t) if t <= 8);
        GroupCodec { encs, u64_mode }
    }

    pub fn u64_mode(&self) -> bool {
        self.u64_mode
    }

    /// A codec for GROUP BY key columns.
    pub fn for_group(key_cols: &'a [ColVec]) -> GroupCodec<'a> {
        let encs = key_cols
            .iter()
            .map(|col| match col {
                ColVec::Int(v) => ColEnc::I64(v),
                ColVec::Date(v) => ColEnc::Date(v),
                ColVec::Bool(v) => ColEnc::Bool(v),
                ColVec::Decimal { raw, scale } => ColEnc::dec6(raw, *scale),
                ColVec::Str(v) => ColEnc::Str(v),
                // Grouping happens within one column, so the 4-byte code
                // is an injective stand-in for the string.
                ColVec::Dict { codes, .. } => ColEnc::DictCode(codes),
                // An interval cannot be a key, which each row must say.
                ColVec::Const(Value::Interval { .. }, _) => ColEnc::Tagged(col),
                // Any other constant puts every row in one group; the
                // encoding just has to be self-consistent.
                ColVec::Const(..) => ColEnc::Const(Vec::new()),
                ColVec::Float(_) | ColVec::Val(_) => ColEnc::Tagged(col),
            })
            .collect();
        GroupCodec::new(encs)
    }

    /// Pack one row's key into a `u64`. Only callable in u64 mode, whose
    /// encoders are all infallible.
    #[inline]
    pub fn encode_u64(&self, i: usize) -> u64 {
        debug_assert!(self.u64_mode);
        let mut acc = 0u64;
        for enc in &self.encs {
            let (w, v) = match enc {
                ColEnc::I64(v) => (8, v[i] as u64),
                ColEnc::Date(v) => (4, v[i] as u32 as u64),
                ColEnc::Bool(v) => (1, v[i] as u64),
                ColEnc::DictCode(v) => (4, v[i] as u64),
                ColEnc::Const(b) => {
                    let mut buf = [0u8; 8];
                    buf[..b.len()].copy_from_slice(b);
                    (b.len(), u64::from_le_bytes(buf))
                }
                _ => unreachable!("u64 mode excludes wide and var-width encoders"),
            };
            // Uniform little-endian packing: both join sides shift the
            // same widths in the same order, so packed keys are equal
            // iff the serialized keys would be.
            acc = if w >= 8 { v } else { (acc << (8 * w)) | v };
        }
        acc
    }

    /// Encode one row's key, reusing `buf` as scratch in bytes mode.
    #[inline]
    pub fn encode<'b>(&self, i: usize, buf: &'b mut Vec<u8>) -> EngineResult<EncRow<'b>> {
        if self.u64_mode {
            return Ok(EncRow::U64(self.encode_u64(i)));
        }
        buf.clear();
        for enc in &self.encs {
            match enc {
                ColEnc::I64(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
                ColEnc::Date(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
                ColEnc::Bool(v) => buf.push(v[i] as u8),
                ColEnc::Dec6 { raw, mul, div } => {
                    buf.extend_from_slice(&rescale6(raw[i], *mul, *div)?.to_le_bytes())
                }
                ColEnc::IntDec6(v) => {
                    buf.extend_from_slice(&(v[i] as i128 * 1_000_000).to_le_bytes())
                }
                ColEnc::Str(v) => {
                    let s = v[i].as_bytes();
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s);
                }
                ColEnc::DictCode(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
                ColEnc::DictStr { codes, dict } => {
                    let s = dict[codes[i] as usize].as_bytes();
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s);
                }
                ColEnc::Const(b) => buf.extend_from_slice(b),
                ColEnc::Tagged(col) => match col {
                    ColVec::Val(v) => value::encode_key(&v[i], buf)?,
                    ColVec::Const(v, _) => value::encode_key(v, buf)?,
                    col => value::encode_key(&col.get(i), buf)?,
                },
            }
        }
        Ok(EncRow::Bytes(buf))
    }
}

/// The type class of one join-key side, used to pick a common encoding
/// domain for the pair.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JClass {
    Int,
    Dec,
    Date,
    Bool,
    Str,
}

fn classify(col: &ColVec) -> Option<JClass> {
    Some(match col {
        ColVec::Int(_) => JClass::Int,
        ColVec::Decimal { .. } => JClass::Dec,
        ColVec::Date(_) => JClass::Date,
        ColVec::Bool(_) => JClass::Bool,
        ColVec::Str(_) | ColVec::Dict { .. } => JClass::Str,
        ColVec::Const(v, _) => match v {
            Value::Int(_) => JClass::Int,
            Value::Decimal { .. } => JClass::Dec,
            Value::Date(_) => JClass::Date,
            Value::Bool(_) => JClass::Bool,
            Value::Str(_) => JClass::Str,
            // NULL equals NULL in the key domain; floats and intervals
            // keep their per-row `Value::key` behaviour: all tagged.
            _ => return None,
        },
        ColVec::Float(_) | ColVec::Val(_) => return None,
    })
}

/// Encode one side of a pair in the given common domain. `Dec` widens
/// integer sides into the scale-6 `i128` domain so cross-type equality
/// matches [`value::Key`]'s normalization. `None` for a decimal constant
/// that does not fit that domain: the rows that meet it must fail.
fn enc_in_domain(col: &ColVec, class: JClass) -> Option<ColEnc<'_>> {
    Some(match (col, class) {
        (ColVec::Int(v), JClass::Int) => ColEnc::I64(v),
        (ColVec::Int(v), JClass::Dec) => ColEnc::IntDec6(v),
        (ColVec::Decimal { raw, scale }, JClass::Dec) => ColEnc::dec6(raw, *scale),
        (ColVec::Date(v), JClass::Date) => ColEnc::Date(v),
        (ColVec::Bool(v), JClass::Bool) => ColEnc::Bool(v),
        (ColVec::Str(v), JClass::Str) => ColEnc::Str(v),
        // Joins may pair different dictionaries (or a dict against raw
        // strings): encode the underlying bytes, not the codes.
        (ColVec::Dict { codes, dict }, JClass::Str) => ColEnc::DictStr {
            codes,
            dict: dict.as_slice(),
        },
        (ColVec::Const(v, _), class) => ColEnc::Const(match (v, class) {
            (Value::Int(i), JClass::Int) => i.to_le_bytes().to_vec(),
            (Value::Int(i), JClass::Dec) => (*i as i128 * 1_000_000).to_le_bytes().to_vec(),
            (Value::Decimal { raw, scale }, JClass::Dec) => {
                let (mul, div) = dec6_factors(*scale);
                rescale6(*raw, mul, div).ok()?.to_le_bytes().to_vec()
            }
            (Value::Date(d), JClass::Date) => d.to_le_bytes().to_vec(),
            (Value::Bool(b), JClass::Bool) => vec![*b as u8],
            (Value::Str(s), JClass::Str) => {
                let mut b = Vec::with_capacity(4 + s.len());
                b.extend_from_slice(&(s.len() as u32).to_le_bytes());
                b.extend_from_slice(s.as_bytes());
                b
            }
            _ => unreachable!("classify admitted this constant"),
        }),
        _ => unreachable!("classify admitted this column"),
    })
}

/// Both sides of one equality pair in their common typed domain, when
/// they have one.
fn typed_pair<'a>(lcol: &'a ColVec, rcol: &'a ColVec) -> Option<(ColEnc<'a>, ColEnc<'a>)> {
    let class = match (classify(lcol)?, classify(rcol)?) {
        (a, b) if a == b => a,
        // Integers and decimals compare by value: widen both sides.
        (JClass::Int, JClass::Dec) | (JClass::Dec, JClass::Int) => JClass::Dec,
        _ => return None,
    };
    Some((enc_in_domain(lcol, class)?, enc_in_domain(rcol, class)?))
}

/// Matched codecs for the two sides of an equi-join. Each pair gets one
/// encoding on both sides — its common typed domain, or the tagged image
/// when a side is a `Float`/`Val` column or a NULL constant, or the sides
/// are of incomparable classes (which then never match, as their `Key`s
/// never do) — so the codecs' u64 modes agree and byte equality across
/// sides coincides with `Key` equality.
pub fn join_codecs<'a>(
    lkeys: &'a [ColVec],
    rkeys: &'a [ColVec],
) -> (GroupCodec<'a>, GroupCodec<'a>) {
    let mut lencs = Vec::with_capacity(lkeys.len());
    let mut rencs = Vec::with_capacity(rkeys.len());
    for (lcol, rcol) in lkeys.iter().zip(rkeys) {
        let (l, r) =
            typed_pair(lcol, rcol).unwrap_or((ColEnc::Tagged(lcol), ColEnc::Tagged(rcol)));
        lencs.push(l);
        rencs.push(r);
    }
    let l = GroupCodec::new(lencs);
    let r = GroupCodec::new(rencs);
    debug_assert_eq!(l.u64_mode, r.u64_mode);
    (l, r)
}

/// Group-id hash table keyed by encoded rows. Bytes mode allocates an
/// owned key only on first-seen insert.
pub enum GroupMap {
    U64(HashMap<u64, u32, FxBuild>),
    Bytes(HashMap<Vec<u8>, u32, FxBuild>),
}

impl GroupMap {
    pub fn new(u64_mode: bool) -> GroupMap {
        if u64_mode {
            GroupMap::U64(HashMap::default())
        } else {
            GroupMap::Bytes(HashMap::default())
        }
    }

    #[inline]
    pub fn get(&self, k: &EncRow<'_>) -> Option<u32> {
        match (self, k) {
            (GroupMap::U64(m), EncRow::U64(x)) => m.get(x).copied(),
            (GroupMap::Bytes(m), EncRow::Bytes(b)) => m.get(*b).copied(),
            _ => unreachable!("key mode mismatch"),
        }
    }

    #[inline]
    pub fn insert(&mut self, k: &EncRow<'_>, gid: u32) {
        match (self, k) {
            (GroupMap::U64(m), EncRow::U64(x)) => {
                m.insert(*x, gid);
            }
            (GroupMap::Bytes(m), EncRow::Bytes(b)) => {
                m.insert(b.to_vec(), gid);
            }
            _ => unreachable!("key mode mismatch"),
        }
    }

    /// Every key with its group id, in no particular order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (EncRow<'_>, u32)> + '_> {
        match self {
            GroupMap::U64(m) => Box::new(m.iter().map(|(x, g)| (EncRow::U64(*x), *g))),
            GroupMap::Bytes(m) => Box::new(m.iter().map(|(b, g)| (EncRow::Bytes(b), *g))),
        }
    }
}

/// Join build table: encoded key → build-side row indices in insertion
/// order. Bytes mode allocates an owned key only per distinct key
/// (`get_mut`-then-`insert`, never `entry(owned)`).
pub enum MatchMap {
    U64(HashMap<u64, Vec<u32>, FxBuild>),
    Bytes(HashMap<Vec<u8>, Vec<u32>, FxBuild>),
}

impl MatchMap {
    pub fn new(u64_mode: bool) -> MatchMap {
        if u64_mode {
            MatchMap::U64(HashMap::default())
        } else {
            MatchMap::Bytes(HashMap::default())
        }
    }

    #[inline]
    pub fn push(&mut self, k: &EncRow<'_>, row: u32) {
        match (self, k) {
            (MatchMap::U64(m), EncRow::U64(x)) => m.entry(*x).or_default().push(row),
            (MatchMap::Bytes(m), EncRow::Bytes(b)) => match m.get_mut(*b) {
                Some(v) => v.push(row),
                None => {
                    m.insert(b.to_vec(), vec![row]);
                }
            },
            _ => unreachable!("key mode mismatch"),
        }
    }

    #[inline]
    pub fn get(&self, k: &EncRow<'_>) -> Option<&[u32]> {
        match (self, k) {
            (MatchMap::U64(m), EncRow::U64(x)) => m.get(x).map(Vec::as_slice),
            (MatchMap::Bytes(m), EncRow::Bytes(b)) => m.get(*b).map(Vec::as_slice),
            _ => unreachable!("key mode mismatch"),
        }
    }

    /// Append `later`'s match lists to this table's. When `later` was
    /// built from rows after this table's, every key's list stays in
    /// build-row order.
    pub fn absorb(&mut self, later: MatchMap) {
        fn fold<K: std::hash::Hash + Eq>(
            into: &mut HashMap<K, Vec<u32>, FxBuild>,
            later: HashMap<K, Vec<u32>, FxBuild>,
        ) {
            for (k, rows) in later {
                match into.entry(k) {
                    Entry::Occupied(mut e) => e.get_mut().extend(rows),
                    Entry::Vacant(e) => {
                        e.insert(rows);
                    }
                }
            }
        }
        match (self, later) {
            (MatchMap::U64(m), MatchMap::U64(l)) => fold(m, l),
            (MatchMap::Bytes(m), MatchMap::Bytes(l)) => fold(m, l),
            _ => unreachable!("key mode mismatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Row `i`'s serialized key (these tests use bytes-mode codecs).
    fn bytes(c: &GroupCodec<'_>, i: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        match c.encode(i, &mut buf).unwrap() {
            EncRow::Bytes(b) => b.to_vec(),
            EncRow::U64(_) => panic!("expected bytes mode"),
        }
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        for x in [0u64, 1, 7, 4096, u64::MAX] {
            let p = partition(hash_u64(x));
            assert!(p < NPARTS);
            assert_eq!(p, partition(hash_u64(x)));
        }
        // The mix must spread small keys across partitions.
        let hit: std::collections::HashSet<usize> =
            (0..4096u64).map(|x| partition(hash_u64(x))).collect();
        assert!(hit.len() >= NPARTS / 2, "only {} partitions hit", hit.len());
    }

    #[test]
    fn group_codec_picks_u64_mode_by_width() {
        let ints = ColVec::Int(vec![1, 2, 3]);
        let dates = ColVec::Date(vec![10, 20, 30]);
        let c = GroupCodec::for_group(std::slice::from_ref(&ints));
        assert!(c.u64_mode());
        let cols = [ints.clone(), dates];
        let c2 = GroupCodec::for_group(&cols);
        assert!(!c2.u64_mode(), "8 + 4 bytes exceeds one u64");
        let dec = ColVec::Decimal {
            raw: vec![100],
            scale: 2,
        };
        let c3 = GroupCodec::for_group(std::slice::from_ref(&dec));
        assert!(!c3.u64_mode());
    }

    #[test]
    fn float_and_val_columns_group_by_key_image() {
        // 2, 2.0 and 2.00 are one group; 2.5 and NULL are their own.
        let vals = [ColVec::Val(vec![
            Value::Int(2),
            Value::Float(2.0),
            Value::Decimal { raw: 200, scale: 2 },
            Value::Float(2.5),
            Value::Null,
        ])];
        let c = GroupCodec::for_group(&vals);
        assert_eq!(bytes(&c, 0), bytes(&c, 1));
        assert_eq!(bytes(&c, 0), bytes(&c, 2));
        assert_ne!(bytes(&c, 0), bytes(&c, 3));
        assert_ne!(bytes(&c, 3), bytes(&c, 4));
        let floats = [ColVec::Float(vec![0.0, -0.0, 0.5])];
        let c = GroupCodec::for_group(&floats);
        assert_eq!(bytes(&c, 0), bytes(&c, 1));
        assert_ne!(bytes(&c, 0), bytes(&c, 2));
    }

    #[test]
    fn interval_constants_fail_on_each_row_not_up_front() {
        let cols = [ColVec::Const(Value::Interval { months: 1, days: 0 }, 3)];
        let c = GroupCodec::for_group(&cols);
        let mut buf = Vec::new();
        assert!(matches!(c.encode(0, &mut buf), Err(EngineError::Type(_))));
        let (lc, rc) = join_codecs(&cols, &cols);
        assert!(lc.encode(1, &mut buf).is_err() && rc.encode(2, &mut buf).is_err());
        // Any other constant is one self-consistent group.
        let cols = [ColVec::Const(Value::Null, 3)];
        let c = GroupCodec::for_group(&cols);
        assert_eq!(c.encode_u64(0), c.encode_u64(2));
    }

    #[test]
    fn encode_distinguishes_rows_and_repeats_groups() {
        let cols = [
            ColVec::Int(vec![1, 2, 1]),
            ColVec::Str(vec!["a".into(), "b".into(), "a".into()]),
        ];
        let c = GroupCodec::for_group(&cols);
        assert_eq!(bytes(&c, 0), bytes(&c, 2));
        assert_ne!(bytes(&c, 0), bytes(&c, 1));
    }

    #[test]
    fn str_length_prefix_keeps_concatenation_injective() {
        // ("ab", "c") vs ("a", "bc") must not collide.
        let left = [
            ColVec::Str(vec!["ab".into()]),
            ColVec::Str(vec!["c".into()]),
        ];
        let right = [
            ColVec::Str(vec!["a".into()]),
            ColVec::Str(vec!["bc".into()]),
        ];
        let cl = GroupCodec::for_group(&left);
        let cr = GroupCodec::for_group(&right);
        assert_ne!(bytes(&cl, 0), bytes(&cr, 0));
    }

    #[test]
    fn join_codecs_unify_int_and_decimal_sides() {
        let l = [ColVec::Int(vec![5, 7])];
        let r = [ColVec::Decimal {
            raw: vec![500, 800],
            scale: 2,
        }];
        let (lc, rc) = join_codecs(&l, &r);
        // 5 == 5.00 in the decimal domain; 7 != 8.00.
        assert_eq!(bytes(&lc, 0), bytes(&rc, 0));
        assert_ne!(bytes(&lc, 1), bytes(&rc, 1));
    }

    #[test]
    fn join_codecs_match_const_against_column() {
        let l = [ColVec::Int(vec![3, 4])];
        let r = [ColVec::Const(Value::Int(3), 2)];
        let (lc, rc) = join_codecs(&l, &r);
        assert!(lc.u64_mode() && rc.u64_mode());
        assert_eq!(lc.encode_u64(0), rc.encode_u64(0));
        assert_ne!(lc.encode_u64(1), rc.encode_u64(1));
    }

    #[test]
    fn join_codecs_tag_untyped_pairs_on_both_sides() {
        // int = float compares by value.
        let l = [ColVec::Int(vec![1, 2])];
        let r = [ColVec::Float(vec![1.0, 2.5])];
        let (lc, rc) = join_codecs(&l, &r);
        assert_eq!(bytes(&lc, 0), bytes(&rc, 0));
        assert_ne!(bytes(&lc, 1), bytes(&rc, 1));
        // A NULL constant equals a NULL value and nothing else.
        let l = [ColVec::Val(vec![Value::Null, Value::Int(1)])];
        let r = [ColVec::Const(Value::Null, 2)];
        let (lc, rc) = join_codecs(&l, &r);
        assert_eq!(bytes(&lc, 0), bytes(&rc, 0));
        assert_ne!(bytes(&lc, 1), bytes(&rc, 1));
        // Incomparable classes never match, and never collide either.
        let l = [ColVec::Int(vec![1])];
        let r = [ColVec::Str(vec!["1".into()])];
        let (lc, rc) = join_codecs(&l, &r);
        assert_ne!(bytes(&lc, 0), bytes(&rc, 0));
        // One tagged pair does not untype its neighbours.
        let l = [ColVec::Int(vec![1]), ColVec::Float(vec![0.5])];
        let r = [ColVec::Int(vec![1]), ColVec::Float(vec![0.5])];
        let (lc, rc) = join_codecs(&l, &r);
        assert_eq!(bytes(&lc, 0), bytes(&rc, 0));
        assert_eq!(bytes(&lc, 0).len(), 8 + 1 + 8);
    }

    #[test]
    fn match_map_absorb_keeps_every_list_in_build_order() {
        for u64_mode in [true, false] {
            let mut scratch = Vec::new();
            let key = |k: u64, scratch: &mut Vec<u8>| -> Vec<u8> {
                scratch.clear();
                scratch.extend_from_slice(&k.to_le_bytes());
                scratch.extend_from_slice(b"pad-to-var-width");
                scratch.clone()
            };
            // Rows 0..3 in the first table, 3..5 in the later one.
            let mut tables = [MatchMap::new(u64_mode), MatchMap::new(u64_mode)];
            for (row, k) in [17u64, 4, 17, 17, 4].into_iter().enumerate() {
                let owned = key(k, &mut scratch);
                let enc = if u64_mode {
                    EncRow::U64(k)
                } else {
                    EncRow::Bytes(&owned)
                };
                tables[row / 3].push(&enc, row as u32);
            }
            let [mut m, later] = tables;
            m.absorb(later);
            let mut probe = |k: u64| -> Vec<u32> {
                let owned = key(k, &mut scratch);
                let enc = if u64_mode {
                    EncRow::U64(k)
                } else {
                    EncRow::Bytes(&owned)
                };
                m.get(&enc).unwrap_or_default().to_vec()
            };
            assert_eq!(probe(17), vec![0, 2, 3]);
            assert_eq!(probe(4), vec![1, 4]);
            assert_eq!(probe(5), Vec::<u32>::new());
        }
    }

    /// Values that meet in the key domain from different representations
    /// (`1`, `1.0`, `1.000000`, `-0.0`), plus ones that must stay apart.
    fn key_value(pick: u64) -> Value {
        let n = (pick >> 8) % 3;
        match pick % 9 {
            0 => Value::Int(n as i64),
            1 => Value::Float(n as f64),
            2 => Value::Decimal {
                raw: n as i128 * 1_000_000,
                scale: 6,
            },
            3 => Value::Decimal {
                raw: n as i128 * 10,
                scale: 1,
            },
            4 => Value::Float(-(n as f64)),
            5 => Value::Float(n as f64 + 0.5),
            6 => Value::Null,
            7 => Value::Str(n.to_string()),
            _ => Value::Date(n as i32),
        }
    }

    proptest! {
        /// Tagged encodings are equal exactly when `Value::key()`s are,
        /// whichever column representation carries the value.
        #[test]
        fn tagged_encodings_agree_with_value_keys(a in any::<u64>(), b in any::<u64>()) {
            let (va, vb) = (key_value(a), key_value(b));
            let same_key = va.key().unwrap() == vb.key().unwrap();
            let cols = [ColVec::Val(vec![va.clone(), vb.clone()])];
            let c = GroupCodec::for_group(&cols);
            prop_assert_eq!(bytes(&c, 0) == bytes(&c, 1), same_key, "{:?} vs {:?}", va, vb);
            // The same through a join pair, a float column on one side
            // where the value is one.
            let side = |v: &Value| match v {
                Value::Float(f) => ColVec::Float(vec![*f]),
                v => ColVec::Val(vec![v.clone()]),
            };
            let (l, r) = ([side(&va)], [side(&vb)]);
            let (lc, rc) = join_codecs(&l, &r);
            prop_assert_eq!(bytes(&lc, 0) == bytes(&rc, 0), same_key, "{:?} vs {:?}", va, vb);
        }
    }
}
