//! Key images, the one hash table both engines group and join with, and
//! radix partitioning. A [`KeyTable`] maps a key's image to a dense id;
//! grouping keeps its state by that id, and a join's build rows sit in
//! one flat array grouped by it ([`MatchLists`]).
//!
//! An image ([`KeyImage`]) is one of three widths:
//!
//! - a `u64` **word**;
//! - a `u128` **pair**, for keys of 9–16 bytes (two integers, a scale-6
//!   decimal);
//! - **bytes** in a reusable scratch buffer, owned by the table once per
//!   *distinct* key.
//!
//! The column engine picks one width per key ([`GroupCodec`]) from the
//! evaluated key columns, without building a `Vec<Key>` per row. A typed
//! column (`Int`, `Date`, `Bool`, `Decimal`, `Str`, `Dict`) is read
//! straight from its vector; one whose rows may mix representations
//! (`Float`, `Val`), a NULL or erroring constant, and a join pair whose
//! sides are of different type classes use the tagged image of
//! [`crate::value::encode_key`], per row — so an interval still fails on
//! the row that holds it. Every column is fixed-width or length-prefixed,
//! so concatenation cannot collide, and fixed widths totalling at most 8
//! (16) bytes pack into a word (pair). For joins, [`join_codecs`] gives
//! both sides of each equality pair the same encoding (integers joined
//! against decimals are widened to the scale-6 `i128` domain of
//! [`crate::value::Key`]).
//!
//! The row engine picks a width per tuple ([`tuple_image`]): the one or
//! two values of a key that each fit a word (a number up to ±5.7·10¹¹,
//! a date, a string of up to 7 bytes) make a word or a pair, anything
//! else the concatenated tagged images. The width is a function of the
//! key alone, so equal keys always meet in the same one of the table's
//! three maps.
//!
//! Either way image equality coincides exactly with `Key` equality.
//!
//! Partitioning uses the top 4 bits of a fixed-seed hash — a pure
//! function of the key, so which rows share a partition (and with it
//! every deterministic ordering argument) never depends on how many
//! workers run.

use crate::error::EngineResult;
use crate::exec_col::ColVec;
use crate::value::{self, Value};
use std::borrow::Cow;
use std::collections::HashMap;
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
    fn write_u128(&mut self, w: u128) {
        self.fold(w as u64);
        self.fold((w >> 64) as u64);
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

/// Hash one value the way the key table's maps do.
#[inline]
fn fx_hash(x: &(impl std::hash::Hash + ?Sized)) -> u64 {
    let mut h = FxHasher::default();
    x.hash(&mut h);
    h.finish()
}

/// The radix partition of a hash: its top 4 bits.
#[inline]
pub fn partition(h: u64) -> usize {
    (h >> 60) as usize
}

/// One key's image: a word, a pair of words, or bytes borrowed from a
/// scratch buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyImage<'b> {
    Word(u64),
    Pair(u128),
    Bytes(&'b [u8]),
}

impl KeyImage<'_> {
    #[inline]
    pub fn hash(&self) -> u64 {
        match self {
            KeyImage::Word(x) => fx_hash(x),
            KeyImage::Pair(x) => fx_hash(x),
            KeyImage::Bytes(b) => fx_hash(*b),
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

/// The one key table: every image it is given gets a dense id, the
/// number of distinct keys seen before it. Each width has its own map;
/// bytes are owned once per distinct key.
#[derive(Default)]
pub struct KeyTable {
    words: HashMap<u64, u32, FxBuild>,
    pairs: HashMap<u128, u32, FxBuild>,
    bytes: HashMap<Box<[u8]>, u32, FxBuild>,
}

impl KeyTable {
    /// Distinct keys so far (the next fresh id).
    pub fn len(&self) -> usize {
        self.words.len() + self.pairs.len() + self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn get(&self, k: KeyImage<'_>) -> Option<u32> {
        match k {
            KeyImage::Word(x) => self.words.get(&x),
            KeyImage::Pair(x) => self.pairs.get(&x),
            KeyImage::Bytes(b) => self.bytes.get(b),
        }
        .copied()
    }

    /// The id of `k`, and whether it is fresh (first seen now).
    #[inline]
    pub fn insert(&mut self, k: KeyImage<'_>) -> (u32, bool) {
        let fresh = self.len() as u32;
        let id = match k {
            KeyImage::Word(x) => *self.words.entry(x).or_insert(fresh),
            KeyImage::Pair(x) => *self.pairs.entry(x).or_insert(fresh),
            // Look up by reference first: an owned copy only per new key.
            KeyImage::Bytes(b) => match self.bytes.get(b) {
                Some(&id) => id,
                None => {
                    self.bytes.insert(b.into(), fresh);
                    fresh
                }
            },
        };
        (id, id == fresh)
    }

    /// Every key with its id, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (KeyImage<'_>, u32)> {
        let words = self.words.iter().map(|(x, &id)| (KeyImage::Word(*x), id));
        let pairs = self.pairs.iter().map(|(x, &id)| (KeyImage::Pair(*x), id));
        let bytes = self.bytes.iter().map(|(b, &id)| (KeyImage::Bytes(b), id));
        words.chain(pairs).chain(bytes)
    }
}

/// Join build rows on their way to [`MatchLists`]: each row with its
/// key's id, in build order.
#[derive(Default)]
pub struct MatchBuilder {
    table: KeyTable,
    rows: Vec<u32>,
    ids: Vec<u32>,
}

impl MatchBuilder {
    /// A builder with room for `rows` rows; its key table grows with the
    /// distinct keys.
    pub fn with_capacity(rows: usize) -> MatchBuilder {
        MatchBuilder {
            table: KeyTable::default(),
            rows: Vec::with_capacity(rows),
            ids: Vec::with_capacity(rows),
        }
    }

    #[inline]
    pub fn push(&mut self, k: KeyImage<'_>, row: u32) {
        let (id, _) = self.table.insert(k);
        self.rows.push(row);
        self.ids.push(id);
    }

    /// Group the rows by key id — a counting sort, stable, so each key's
    /// rows keep their order.
    pub fn finish(self) -> MatchLists {
        let keys = self.table.len();
        let mut offsets = vec![0u32; keys + 1];
        for &id in &self.ids {
            offsets[id as usize] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets {
            let count = *slot;
            *slot = start;
            start += count;
        }
        // Scatter, advancing each key's start to its end, which is the
        // next key's start: shift by one to get the starts back.
        let mut rows = vec![0u32; self.rows.len()];
        for (&row, &id) in self.rows.iter().zip(&self.ids) {
            let at = &mut offsets[id as usize];
            rows[*at as usize] = row;
            *at += 1;
        }
        offsets.copy_within(..keys, 1);
        offsets[0] = 0;
        MatchLists {
            table: self.table,
            offsets,
            rows,
        }
    }
}

/// A join's build side: every build row in one array, grouped by key id;
/// key `id`'s rows, in build order, are `rows[offsets[id]..offsets[id + 1]]`.
pub struct MatchLists {
    table: KeyTable,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl MatchLists {
    /// The build rows that carry `k`, in build order.
    #[inline]
    pub fn get(&self, k: KeyImage<'_>) -> Option<&[u32]> {
        let id = self.table.get(k)? as usize;
        Some(&self.rows[self.offsets[id] as usize..self.offsets[id + 1] as usize])
    }
}

/// The image of a key tuple the row engine evaluates one value at a
/// time: `value(i)` is the tuple's `i`-th value. One or two values whose
/// keys fit a word (`value::key_word`) are a word or a pair; any other
/// tuple is its values' tagged [`value::encode_key`] images in `buf`.
/// Values are evaluated, and fail, in order.
#[inline]
pub fn tuple_image<'v, 'b>(
    n: usize,
    mut value: impl FnMut(usize) -> EngineResult<Cow<'v, Value>>,
    buf: &'b mut Vec<u8>,
) -> EngineResult<KeyImage<'b>> {
    buf.clear();
    match n {
        0 => return Ok(KeyImage::Word(0)),
        1 => {
            let v = value(0)?;
            match value::key_word(&v)? {
                Some(w) => return Ok(KeyImage::Word(w)),
                None => value::encode_key(&v, buf)?,
            }
        }
        2 => {
            let a = value(0)?;
            let wa = value::key_word(&a)?;
            let b = value(1)?;
            match (wa, value::key_word(&b)?) {
                (Some(x), Some(y)) => return Ok(KeyImage::Pair((x as u128) << 64 | y as u128)),
                _ => {
                    value::encode_key(&a, buf)?;
                    value::encode_key(&b, buf)?;
                }
            }
        }
        _ => {
            for i in 0..n {
                let v = value(i)?;
                value::encode_key(&v, buf)?;
            }
        }
    }
    Ok(KeyImage::Bytes(buf))
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
    /// Decimal at scale 6 or below, widened to scale 6 (the
    /// [`value::Key`] normalization), 16 little-endian bytes.
    Dec6 {
        raw: &'a [i128],
        /// `value::scale_factor(scale, 6)`, once per column.
        factor: i128,
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
        let factor = value::scale_factor(scale, 6);
        ColEnc::Dec6 { raw, factor }
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

/// Which image a codec's keys take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Width {
    Word,
    Pair,
    Bytes,
}

/// A whole-row key encoder over evaluated key columns.
pub struct GroupCodec<'a> {
    encs: Vec<ColEnc<'a>>,
    width: Width,
    /// Whether some encoder is tagged, the only kind that can hold NULL.
    tagged: bool,
}

impl<'a> GroupCodec<'a> {
    fn new(encs: Vec<ColEnc<'a>>) -> GroupCodec<'a> {
        let total: Option<usize> = encs.iter().try_fold(0usize, |acc, e| {
            e.width().map(|w| acc + w)
        });
        let width = match total {
            Some(t) if t <= 8 => Width::Word,
            Some(t) if t <= 16 => Width::Pair,
            _ => Width::Bytes,
        };
        let tagged = encs.iter().any(|e| matches!(e, ColEnc::Tagged(_)));
        GroupCodec {
            encs,
            width,
            tagged,
        }
    }

    /// A codec for GROUP BY key columns.
    pub fn for_group(key_cols: impl IntoIterator<Item = &'a ColVec>) -> GroupCodec<'a> {
        let encs = key_cols
            .into_iter()
            .map(|col| match col {
                ColVec::Int(v) => ColEnc::I64(v),
                ColVec::Date(v) => ColEnc::Date(v),
                ColVec::Bool(v) => ColEnc::Bool(v),
                ColVec::Decimal { raw, scale } if *scale <= 6 => ColEnc::dec6(raw, *scale),
                ColVec::Str(v) => ColEnc::Str(v),
                // Grouping happens within one column, so the 4-byte code
                // is an injective stand-in for the string.
                ColVec::Dict { codes, .. } => ColEnc::DictCode(codes),
                // An interval cannot be a key, which each row must say.
                ColVec::Const(Value::Interval { .. }, _) => ColEnc::Tagged(col),
                // Any other constant puts every row in one group; the
                // encoding just has to be self-consistent.
                ColVec::Const(..) => ColEnc::Const(Vec::new()),
                // Past scale 6 a decimal may key as a float, row by row.
                ColVec::Decimal { .. } | ColVec::Float(_) | ColVec::Val(_) => ColEnc::Tagged(col),
            })
            .collect();
        GroupCodec::new(encs)
    }

    /// Pack one row's fixed-width key into a pair, the last column in the
    /// lowest bytes. Uniform on both sides of a join: they shift the same
    /// widths in the same order, so packed keys are equal iff the
    /// serialized keys would be.
    #[inline]
    fn pack(&self, i: usize) -> EngineResult<u128> {
        let mut acc = 0u128;
        for enc in &self.encs {
            let (w, v) = match enc {
                ColEnc::I64(v) => (8, v[i] as u64 as u128),
                ColEnc::Date(v) => (4, v[i] as u32 as u128),
                ColEnc::Bool(v) => (1, v[i] as u128),
                ColEnc::DictCode(v) => (4, v[i] as u128),
                ColEnc::Dec6 { raw, factor } => (16, value::upscale(raw[i], *factor)? as u128),
                ColEnc::IntDec6(v) => (16, (v[i] as i128 * 1_000_000) as u128),
                ColEnc::Const(b) => {
                    let mut buf = [0u8; 16];
                    buf[..b.len()].copy_from_slice(b);
                    (b.len(), u128::from_le_bytes(buf))
                }
                _ => unreachable!("packed widths exclude var-width encoders"),
            };
            acc = if w >= 16 { v } else { (acc << (8 * w)) | v };
        }
        Ok(acc)
    }

    /// Whether row `i`'s key holds a NULL, which matches nothing in a
    /// join. Only a tagged column — a boxed `Val` column or a constant
    /// with no typed domain — can hold one.
    #[inline]
    pub fn has_null(&self, i: usize) -> bool {
        self.tagged
            && self.encs.iter().any(|enc| match enc {
                ColEnc::Tagged(ColVec::Val(v)) => v[i].is_null(),
                ColEnc::Tagged(ColVec::Const(v, _)) => v.is_null(),
                _ => false,
            })
    }

    /// Encode one row's key, reusing `buf` as scratch for bytes.
    #[inline]
    pub fn encode<'b>(&self, i: usize, buf: &'b mut Vec<u8>) -> EngineResult<KeyImage<'b>> {
        match self.width {
            Width::Word => return Ok(KeyImage::Word(self.pack(i)? as u64)),
            Width::Pair => return Ok(KeyImage::Pair(self.pack(i)?)),
            Width::Bytes => {}
        }
        buf.clear();
        for enc in &self.encs {
            match enc {
                ColEnc::I64(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
                ColEnc::Date(v) => buf.extend_from_slice(&v[i].to_le_bytes()),
                ColEnc::Bool(v) => buf.push(v[i] as u8),
                ColEnc::Dec6 { raw, factor } => {
                    buf.extend_from_slice(&value::upscale(raw[i], *factor)?.to_le_bytes())
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
        Ok(KeyImage::Bytes(buf))
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
        ColVec::Decimal { scale, .. } if *scale <= 6 => JClass::Dec,
        ColVec::Date(_) => JClass::Date,
        ColVec::Bool(_) => JClass::Bool,
        ColVec::Str(_) | ColVec::Dict { .. } => JClass::Str,
        ColVec::Const(v, _) => match v {
            Value::Int(_) => JClass::Int,
            Value::Decimal { scale, .. } if *scale <= 6 => JClass::Dec,
            Value::Date(_) => JClass::Date,
            Value::Bool(_) => JClass::Bool,
            Value::Str(_) => JClass::Str,
            // NULL equals NULL in the key domain; floats, intervals and
            // decimals past scale 6 keep their per-row `Value::key`
            // behaviour: all tagged.
            _ => return None,
        },
        ColVec::Decimal { .. } | ColVec::Float(_) | ColVec::Val(_) => return None,
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
                value::key6(*raw, *scale).ok()??.to_le_bytes().to_vec()
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
/// never do) — so the codecs' widths agree and image equality across
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
    let (l, r) = (GroupCodec::new(lencs), GroupCodec::new(rencs));
    debug_assert_eq!(l.width, r.width, "join sides must share a key width");
    (l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use proptest::prelude::*;

    /// Row `i`'s image, owned.
    #[derive(Debug, PartialEq, Eq)]
    enum Owned {
        Word(u64),
        Pair(u128),
        Bytes(Vec<u8>),
    }

    fn own(k: KeyImage<'_>) -> Owned {
        match k {
            KeyImage::Word(x) => Owned::Word(x),
            KeyImage::Pair(x) => Owned::Pair(x),
            KeyImage::Bytes(b) => Owned::Bytes(b.to_vec()),
        }
    }

    fn image(c: &GroupCodec<'_>, i: usize) -> Owned {
        own(c.encode(i, &mut Vec::new()).unwrap())
    }

    /// Row `i`'s serialized key (for bytes-width codecs).
    fn bytes(c: &GroupCodec<'_>, i: usize) -> Vec<u8> {
        match image(c, i) {
            Owned::Bytes(b) => b,
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    /// RowStore's image of one tuple.
    fn tuple(vals: &[Value]) -> EngineResult<Owned> {
        let mut buf = Vec::new();
        tuple_image(vals.len(), |i| Ok(Cow::Borrowed(&vals[i])), &mut buf).map(own)
    }

    #[test]
    fn partition_is_stable_and_in_range() {
        for x in [0u64, 1, 7, 4096, u64::MAX] {
            let k = KeyImage::Word(x);
            let p = k.partition(NPARTS);
            assert!(p < NPARTS);
            assert_eq!(p, partition(k.hash()));
        }
        // The mix must spread small keys across partitions.
        let hit: std::collections::HashSet<usize> =
            (0..4096u64).map(|x| KeyImage::Word(x).partition(NPARTS)).collect();
        assert!(hit.len() >= NPARTS / 2, "only {} partitions hit", hit.len());
    }

    #[test]
    fn group_codec_picks_its_width_from_the_columns() {
        let ints = ColVec::Int(vec![1, 2, 3]);
        let dates = ColVec::Date(vec![10, 20, 30]);
        let c = GroupCodec::for_group(std::slice::from_ref(&ints));
        assert_eq!(c.width, Width::Word);
        let cols = [ints.clone(), dates];
        assert_eq!(GroupCodec::for_group(&cols).width, Width::Pair, "8 + 4 bytes");
        let dec = ColVec::Decimal {
            raw: vec![100],
            scale: 2,
        };
        let c3 = GroupCodec::for_group(std::slice::from_ref(&dec));
        assert_eq!(c3.width, Width::Pair);
        let cols = [ints.clone(), ints.clone(), ColVec::Bool(vec![true; 3])];
        assert_eq!(GroupCodec::for_group(&cols).width, Width::Bytes, "17 bytes");
        // Two int join keys are one pair on each side.
        let (l, r) = join_codecs(&cols[..2], &cols[..2]);
        assert_eq!((l.width, r.width), (Width::Pair, Width::Pair));
        assert_eq!(image(&l, 1), Owned::Pair((2u128 << 64) | 2));
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
        assert_eq!(image(&c, 0), image(&c, 2));
    }

    #[test]
    fn decimal_keys_that_overflow_scale_6_fail_on_their_row() {
        let cols = [ColVec::Decimal {
            raw: vec![1, i128::MAX / 10],
            scale: 0,
        }];
        let c = GroupCodec::for_group(&cols);
        assert_eq!(image(&c, 0), Owned::Pair(1_000_000));
        assert!(matches!(
            c.encode(1, &mut Vec::new()),
            Err(EngineError::Overflow(_))
        ));
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
        assert_eq!(image(&lc, 0), image(&rc, 0));
        assert_ne!(image(&lc, 1), image(&rc, 1));
    }

    #[test]
    fn join_codecs_match_const_against_column() {
        let l = [ColVec::Int(vec![3, 4])];
        let r = [ColVec::Const(Value::Int(3), 2)];
        let (lc, rc) = join_codecs(&l, &r);
        assert_eq!(image(&lc, 0), Owned::Word(3));
        assert_eq!(image(&lc, 0), image(&rc, 0));
        assert_ne!(image(&lc, 1), image(&rc, 1));
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
    fn key_table_ids_are_dense_in_first_seen_order_across_widths() {
        let mut t = KeyTable::default();
        let ks = [
            KeyImage::Word(9),
            KeyImage::Bytes(b"x"),
            KeyImage::Pair(9),
            KeyImage::Word(9),
            KeyImage::Bytes(b"x"),
            KeyImage::Word(3),
        ];
        let got: Vec<(u32, bool)> = ks.iter().map(|&k| t.insert(k)).collect();
        assert_eq!(
            got,
            [(0, true), (1, true), (2, true), (0, false), (1, false), (3, true)]
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(KeyImage::Pair(9)), Some(2));
        assert_eq!(t.get(KeyImage::Pair(3)), None);
        let mut all: Vec<u32> = t.iter().map(|(k, id)| {
            assert_eq!(t.get(k), Some(id));
            id
        }).collect();
        all.sort_unstable();
        assert_eq!(all, [0, 1, 2, 3]);
    }

    #[test]
    fn match_lists_keep_every_list_in_build_order() {
        for wide in [false, true] {
            let mut scratch = Vec::new();
            let key = |k: u64, scratch: &mut Vec<u8>| -> Vec<u8> {
                scratch.clear();
                scratch.extend_from_slice(&k.to_le_bytes());
                scratch.extend_from_slice(b"pad-to-var-width");
                scratch.clone()
            };
            fn img(wide: bool, k: u64, owned: &[u8]) -> KeyImage<'_> {
                if wide {
                    KeyImage::Bytes(owned)
                } else {
                    KeyImage::Word(k)
                }
            }
            let mut m = MatchBuilder::default();
            for (row, k) in [17u64, 4, 17, 17, 4, 8].into_iter().enumerate() {
                let owned = key(k, &mut scratch);
                m.push(img(wide, k, &owned), row as u32);
            }
            let lists = m.finish();
            let mut probe = |k: u64| -> Vec<u32> {
                let owned = key(k, &mut scratch);
                lists.get(img(wide, k, &owned)).unwrap_or_default().to_vec()
            };
            assert_eq!(probe(17), vec![0, 2, 3]);
            assert_eq!(probe(4), vec![1, 4]);
            assert_eq!(probe(8), vec![5]);
            assert_eq!(probe(5), Vec::<u32>::new());
        }
        // Nothing built: every probe misses.
        let empty = MatchBuilder::default().finish();
        assert_eq!(empty.get(KeyImage::Word(0)), None);
    }

    #[test]
    fn tuple_images_are_words_and_pairs_where_they_fit() {
        assert_eq!(tuple(&[]).unwrap(), Owned::Word(0));
        assert!(matches!(tuple(&[Value::Int(7)]).unwrap(), Owned::Word(_)));
        assert!(matches!(tuple(&[Value::Int(7), Value::Date(3)]).unwrap(), Owned::Pair(_)));
        let short = Value::Str("seven!!".into());
        assert!(matches!(tuple(&[short, Value::Null]).unwrap(), Owned::Pair(_)));
        // A word holds the string's length: trailing NULs stay apart.
        let s = |t: &str| tuple(&[Value::Str(t.into())]).unwrap();
        assert_ne!(s(""), s("\0"));
        assert_ne!(s("1"), s("1\0"));
        // A string of 8 bytes, a non-integral float, a huge integer and
        // a third value each send the tuple to bytes.
        let long = Value::Str("eight!!!".into());
        for vals in [
            vec![long.clone()],
            vec![Value::Float(0.5)],
            vec![Value::Int(i64::MAX)],
            vec![Value::Int(1), long],
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        ] {
            assert!(matches!(tuple(&vals).unwrap(), Owned::Bytes(_)), "{vals:?}");
        }
        let interval = Value::Interval { months: 1, days: 0 };
        assert!(tuple(std::slice::from_ref(&interval)).is_err());
        assert!(tuple(&[Value::Int(1), interval]).is_err());
    }

    /// Values that meet in the key domain from different representations
    /// (`1`, `1.0`, `1.000000`, `-0.0`), plus ones that must stay apart,
    /// and the edges where an image changes width.
    fn key_value(pick: u64) -> Value {
        let n = (pick >> 8) % 3;
        let edge = [
            (1i128 << 59) - 1,
            1i128 << 59,
            -(1i128 << 59),
            -(1i128 << 59) - 1,
        ][(pick >> 16) as usize % 4];
        match pick % 15 {
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
            // Short strings are words, longer ones bytes; a trailing NUL
            // is a different key.
            7 => Value::Str(
                ["", "\0", "1", "1\0", "seven!!", "eight!!!", "seven!!\0"][(pick >> 16) as usize % 7]
                    .into(),
            ),
            8 => Value::Date(n as i32),
            9 => Value::Bool(n == 1),
            // Around the word's 60-bit payload, from either side.
            10 => Value::Decimal { raw: edge, scale: 6 },
            11 => Value::Decimal {
                raw: edge * 10,
                scale: 7,
            },
            12 => Value::Int([i64::MAX, i64::MIN, (1 << 53) - 1][n as usize]),
            // Past scale 6: one value at two scales, and a tag past 4 bits.
            13 => {
                let one = 10i128.pow(20);
                let (raw, scale) = [(1, 7), (10, 8), (one + 1, 20), (one + 10, 20)][(pick >> 16) as usize % 4];
                Value::Decimal { raw: raw * [1, -1, 1][n as usize], scale }
            }
            _ => Value::Float([1e17, -1e17, 2f64.powi(53)][n as usize]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Images are equal exactly when `Value::key()`s are, whichever
        /// column representation carries the value: the column engine's
        /// tagged group and join images, and the row engine's per-value
        /// words, pairs and bytes.
        #[test]
        fn images_agree_with_value_keys(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let (va, vb, vc) = (key_value(a), key_value(b), key_value(c));
            let same_key = va.key().unwrap() == vb.key().unwrap();
            let cols = [ColVec::Val(vec![va.clone(), vb.clone()])];
            let gc = GroupCodec::for_group(&cols);
            prop_assert_eq!(bytes(&gc, 0) == bytes(&gc, 1), same_key, "{:?} vs {:?}", va, vb);
            // The same through a join pair, a float column on one side
            // where the value is one.
            let side = |v: &Value| match v {
                Value::Float(f) => ColVec::Float(vec![*f]),
                v => ColVec::Val(vec![v.clone()]),
            };
            let (l, r) = ([side(&va)], [side(&vb)]);
            let (lc, rc) = join_codecs(&l, &r);
            prop_assert_eq!(bytes(&lc, 0) == bytes(&rc, 0), same_key, "{:?} vs {:?}", va, vb);
            // RowStore, one value and two, in either position.
            prop_assert_eq!(
                tuple(std::slice::from_ref(&va)).unwrap() == tuple(std::slice::from_ref(&vb)).unwrap(),
                same_key
            );
            prop_assert_eq!(
                tuple(&[va.clone(), vc.clone()]).unwrap() == tuple(&[vb.clone(), vc.clone()]).unwrap(),
                same_key
            );
            prop_assert_eq!(
                tuple(&[vc.clone(), va.clone()]).unwrap() == tuple(&[vc.clone(), vb.clone()]).unwrap(),
                same_key
            );
            let c_key = vc.key().unwrap();
            prop_assert_eq!(
                tuple(&[va.clone(), vb.clone()]).unwrap() == tuple(&[vc.clone(), vc.clone()]).unwrap(),
                va.key().unwrap() == c_key && vb.key().unwrap() == c_key,
                "{:?} {:?} {:?}", va, vb, vc
            );
        }

        /// Typed join pairs of an integer and a decimal side meet exactly
        /// where the values' keys do, in either order and at any scale.
        #[test]
        fn int_against_decimal_join_images_agree_with_value_keys(
            i in prop_oneof![-3i64..3, any::<i64>()],
            raw in prop_oneof![-3_000i64..3_000, any::<i64>()].prop_map(i128::from),
            scale in 0u8..9,
            second in any::<bool>(),
        ) {
            let ints = ColVec::Int(vec![i]);
            let decs = ColVec::Decimal { raw: vec![raw], scale };
            let (vi, vd) = (Value::Int(i), Value::Decimal { raw, scale });
            let same_key = match (vi.key(), vd.key()) {
                (Ok(x), Ok(y)) => Some(x == y),
                _ => None,
            };
            // A second, equal int column beside the pair must not change
            // the verdict (a pair widens to bytes: 16 + 8).
            let extra = ColVec::Int(vec![7]);
            let (l, r): (Vec<ColVec>, Vec<ColVec>) = if second {
                (vec![ints, extra.clone()], vec![decs, extra])
            } else {
                (vec![ints], vec![decs])
            };
            for (lk, rk) in [(&l, &r), (&r, &l)] {
                let (lc, rc) = join_codecs(lk, rk);
                let got = match (lc.encode(0, &mut Vec::new()), rc.encode(0, &mut Vec::new())) {
                    (Ok(x), Ok(y)) => Some(own(x) == own(y)),
                    _ => None,
                };
                prop_assert_eq!(got, same_key, "{:?} vs {:?}", vi, vd);
            }
        }
    }
}
