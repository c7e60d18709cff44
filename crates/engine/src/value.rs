//! Runtime values and scalar operations.
//!
//! The two engines deliberately use **different arithmetic** over the same
//! stored data (this asymmetry is what makes them discriminative targets,
//! mirroring the paper's MonetDB Figure 2 anecdote):
//!
//! - the row engine converts decimals to `f64` on touch and computes in
//!   floating point ([`ArithMode::Float`]);
//! - the column engine keeps decimals fixed-point and widens every
//!   multiplication to `i128` with an explicit overflow guard
//!   ([`ArithMode::GuardedDecimal`]), like MonetDB's type-cast guards.
//!
//! The modes are the engines' cost models, not two implementations:
//! `+ - * /` over numbers is [`arith`] over [`Num`], and every arithmetic
//! site calls it or the per-element functions it is made of.

use crate::error::{EngineError, EngineResult};
use sqalpel_sql::ast::BinOp;
use std::cmp::Ordering;
use std::fmt;

/// Days since 1970-01-01 (shared with `sqalpel-datagen`).
pub type Day = i32;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// Fixed-point decimal: `raw / 10^scale`.
    Decimal { raw: i128, scale: u8 },
    Str(String),
    Date(Day),
    /// Calendar interval (months are kept symbolic, days exact).
    Interval { months: i32, days: i32 },
}

impl Value {
    /// Fixed-point constructor.
    pub fn decimal(raw: i128, scale: u8) -> Value {
        Value::Decimal { raw, scale }
    }

    /// Money in cents (scale 2).
    pub fn cents(raw: i64) -> Value {
        Value::Decimal {
            raw: raw as i128,
            scale: 2,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 (`None` for non-numeric values).
    pub fn as_f64(&self) -> Option<f64> {
        Num::of(self).flatten().map(Num::f64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is any numeric type.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_) | Value::Decimal { .. })
    }

    /// SQL type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "double",
            Value::Decimal { .. } => "decimal",
            Value::Str(_) => "varchar",
            Value::Date(_) => "date",
            Value::Interval { .. } => "interval",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Decimal { raw, scale } => {
                if *scale == 0 {
                    write!(f, "{raw}")
                } else {
                    let div = 10i128.pow(*scale as u32);
                    let sign = if *raw < 0 { "-" } else { "" };
                    let a = raw.unsigned_abs();
                    write!(
                        f,
                        "{sign}{}.{:0width$}",
                        a / div as u128,
                        a % div as u128,
                        width = *scale as usize
                    )
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&sqalpel_datagen::calendar::format_days(*d)),
            Value::Interval { months, days } => write!(f, "{months} months {days} days"),
        }
    }
}

/// `10^0 ..= 10^22`: every power of ten an `f64` holds exactly, so the
/// table equals `10f64.powi(scale)` bit for bit (unit-tested below).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `10^scale` as `f64` — the divisor behind every decimal-to-float touch.
#[inline]
pub fn pow10(scale: u8) -> f64 {
    match POW10.get(scale as usize) {
        Some(p) => *p,
        None => wide_pow10(scale),
    }
}

/// `10^scale` past the table, out of line for the reason
/// [`wide_to_f64`] is: inlined, `powi` runs above the table lookup.
#[cold]
#[inline(never)]
fn wide_pow10(scale: u8) -> f64 {
    10f64.powi(scale as i32)
}

/// `raw` as the nearest `f64`. A raw that fits `i64` converts through
/// `i64`, one instruction; only a wider one pays for the `i128`
/// conversion routine. Both round the same integer to nearest, so the
/// bits are those of `raw as f64` (unit-tested at the edges below).
#[inline]
pub fn i128_to_f64(raw: i128) -> f64 {
    match i64::try_from(raw) {
        Ok(x) => x as f64,
        Err(_) => wide_to_f64(raw),
    }
}

/// The `i128` conversion routine, out of line: inlined, the optimizer
/// hoists its call above [`i128_to_f64`]'s range check, and every
/// conversion pays for it.
#[cold]
#[inline(never)]
fn wide_to_f64(raw: i128) -> f64 {
    raw as f64
}

/// The decimal `raw / 10^scale` as `f64`: every decimal-to-float touch,
/// in [`Value::as_f64`] and in the accumulators.
#[inline]
pub fn decimal_to_f64(raw: i128, scale: u8) -> f64 {
    i128_to_f64(raw) / pow10(scale)
}

/// Store a string in `slot`, reusing the allocation of the string it
/// already holds, if any.
pub(crate) fn set_str(slot: &mut Value, s: &str) {
    match slot {
        Value::Str(old) => {
            old.clear();
            old.push_str(s);
        }
        _ => *slot = Value::Str(s.to_owned()),
    }
}

/// `dst = src.clone()`, reusing the allocation of a string `dst` holds.
pub(crate) fn assign(dst: &mut Value, src: &Value) {
    match src {
        Value::Str(s) => set_str(dst, s),
        other => *dst = other.clone(),
    }
}

/// Which arithmetic discipline to use (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithMode {
    /// Convert decimals to f64 immediately; never overflows, loses
    /// precision. The row engine's behaviour.
    Float,
    /// Fixed-point with i128 widening and overflow checks. The column
    /// engine's behaviour; costs extra work per multiplication.
    GuardedDecimal,
}

/// A decimal's image in the scale-6 key domain: `None` where scale 6
/// cannot hold it exactly, and the decimal keys as [`fine_key`].
pub(crate) fn key6(raw: i128, scale: u8) -> Result<Option<i128>, Fault> {
    if scale <= 6 {
        return upscale(raw, scale_factor(scale, 6)).map(Some);
    }
    let f = 10i128.pow(u32::from(scale - 6));
    Ok((raw % f == 0).then_some(raw / f))
}

/// The key of a decimal that scale 6 cannot hold: its scale (past 6) and
/// raw in lowest terms, which name its value exactly and alone.
fn fine_key(mut raw: i128, mut scale: u8) -> (u8, i128) {
    while raw % 10 == 0 {
        raw /= 10;
        scale -= 1;
    }
    (scale, raw)
}

/// A number: what a numeric [`Value`] is, variant for variant; NULL is
/// `None`.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    Int(i64),
    Float(f64),
    Decimal { raw: i128, scale: u8 },
}

impl Num {
    /// The number in `v`: `Some(None)` for NULL, `None` for a value that
    /// is not a number.
    #[inline]
    pub fn of(v: &Value) -> Option<Option<Num>> {
        Some(Some(match v {
            Value::Null => return Some(None),
            Value::Int(i) => Num::Int(*i),
            Value::Float(f) => Num::Float(*f),
            Value::Decimal { raw, scale } => Num::Decimal {
                raw: *raw,
                scale: *scale,
            },
            _ => return None,
        }))
    }

    /// The [`Value`] this number is.
    pub fn value(self) -> Value {
        match self {
            Num::Int(i) => Value::Int(i),
            Num::Float(f) => Value::Float(f),
            Num::Decimal { raw, scale } => Value::Decimal { raw, scale },
        }
    }

    /// The number as a float: a decimal through [`decimal_to_f64`].
    #[inline]
    pub fn f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
            Num::Decimal { raw, scale } => decimal_to_f64(raw, scale),
        }
    }

    /// `-self`, checked.
    #[inline]
    pub fn checked_neg(self) -> Result<Num, Fault> {
        let fault = |int| Fault::Overflow { int, op: BinOp::Minus };
        Ok(match self {
            Num::Int(i) => Num::Int(i.checked_neg().ok_or(fault(true))?),
            Num::Float(f) => Num::Float(-f),
            Num::Decimal { raw, scale } => Num::Decimal {
                raw: raw.checked_neg().ok_or(fault(false))?,
                scale,
            },
        })
    }
}

/// Why [`arith`] could not compute: `Copy` for the hot loops, and the one
/// place the error texts of numeric arithmetic are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `op` over two integers (`int`) or over decimals left the range.
    Overflow { int: bool, op: BinOp },
    /// Taking a decimal to a wider scale left the range.
    Rescale,
    /// A zero divisor.
    DivZero,
}

impl From<Fault> for EngineError {
    fn from(f: Fault) -> EngineError {
        match f {
            Fault::Overflow { int, op } => {
                let class = if int { "integer" } else { "decimal" };
                EngineError::Overflow(format!("{class} {}", op.sql()))
            }
            Fault::Rescale => EngineError::Overflow("decimal rescale".into()),
            Fault::DivZero => EngineError::Type("division by zero".into()),
        }
    }
}

/// The arithmetic core, `a op b` for `op` in `+ - * /`: two integers stay
/// a checked `i64` under `+ - *`; in [`ArithMode::GuardedDecimal`]
/// integers and decimals stay fixed point (`+ -` at the wider scale, `*`
/// at the summed scale capped at 6); anything else is `f64` arithmetic.
/// Always inlined, with the fixed-point case out of line over plain
/// integers: a walk that passes its `Num`s to a call keeps them in memory.
#[inline(always)]
pub fn arith(op: BinOp, a: Num, b: Num, mode: ArithMode) -> Result<Num, Fault> {
    match (a, b) {
        (Num::Int(x), Num::Int(y)) if op != BinOp::Div => int_arith(op, x, y).map(Num::Int),
        _ if mode == ArithMode::Float || op == BinOp::Div => float_op(op, a.f64(), b.f64()),
        (Num::Float(_), _) | (_, Num::Float(_)) => float_op(op, a.f64(), b.f64()),
        _ => {
            let ((x, xs), (y, ys)) = (fixed(a), fixed(b));
            let (raw, scale) = fixed_arith(op, x, xs, y, ys)?;
            Ok(Num::Decimal { raw, scale })
        }
    }
}

/// An integer or decimal as its raw and scale.
#[inline]
fn fixed(n: Num) -> (i128, u8) {
    match n {
        Num::Int(i) => (i as i128, 0),
        Num::Decimal { raw, scale } => (raw, scale),
        Num::Float(_) => unreachable!("a float is not fixed point"),
    }
}

/// `x op y` in `f64`.
#[inline]
fn float_op(op: BinOp, x: f64, y: f64) -> Result<Num, Fault> {
    Ok(Num::Float(match op {
        BinOp::Plus => x + y,
        BinOp::Minus => x - y,
        BinOp::Mul => x * y,
        _ if y == 0.0 => return Err(Fault::DivZero),
        _ => x / y,
    }))
}

/// [`arith`] in guarded mode: `x` at scale `xs` `op` `y` at scale `ys`,
/// as the result's raw and scale.
#[inline(never)]
pub(crate) fn fixed_arith(
    op: BinOp,
    x: i128,
    xs: u8,
    y: i128,
    ys: u8,
) -> Result<(i128, u8), Fault> {
    if op == BinOp::Mul {
        let (scale, shift) = product_scale(xs, ys);
        return Ok((fixed_product(x, y, shift)?, scale));
    }
    let scale = xs.max(ys);
    let (x, y) = (upscale(x, scale_factor(xs, scale))?, upscale(y, scale_factor(ys, scale))?);
    Ok((fixed_sum(op, x, y)?, scale))
}

/// `a op b` for `op` in `+ - *` over two integers, checked.
#[inline]
pub(crate) fn int_arith(op: BinOp, a: i64, b: i64) -> Result<i64, Fault> {
    match op {
        BinOp::Plus => a.checked_add(b),
        BinOp::Minus => a.checked_sub(b),
        _ => a.checked_mul(b),
    }
    .ok_or(Fault::Overflow { int: true, op })
}

/// `a op b` for `op` in `+ -` over two decimal raws at one scale.
#[inline]
pub(crate) fn fixed_sum(op: BinOp, a: i128, b: i128) -> Result<i128, Fault> {
    match op {
        BinOp::Plus => a.checked_add(b),
        _ => a.checked_sub(b),
    }
    .ok_or(Fault::Overflow { int: false, op })
}

/// Two decimal raws' product over the `shift` that caps its scale: the
/// overflow guards behind MonetDB's Q1 cost.
#[inline]
pub(crate) fn fixed_product(a: i128, b: i128, shift: i128) -> Result<i128, Fault> {
    let p = wide_mul(a, b).ok_or(Fault::Overflow { int: false, op: BinOp::Mul })?;
    Ok(if shift == 1 { p } else { p.checked_div(shift).unwrap_or(0) })
}

/// A product's scale, capped at 6 to bound chained multiplications, and
/// the divisor the cap costs (1 for none; 0 for one past `i128`, which
/// leaves no product a digit at scale 6).
#[inline]
pub(crate) fn product_scale(a: u8, b: u8) -> (u8, i128) {
    match a + b {
        s if s > 6 => (6, 10i128.checked_pow(u32::from(s - 6)).unwrap_or(0)),
        s => (s, 1),
    }
}

/// `raw` taken to a wider scale: times `factor`, a power of ten, checked.
#[inline]
pub(crate) fn upscale(raw: i128, factor: i128) -> Result<i128, Fault> {
    wide_mul(raw, factor).ok_or(Fault::Rescale)
}

/// `10^(to - from)`: the factor that takes scale `from` to `to`.
#[inline]
pub(crate) fn scale_factor(from: u8, to: u8) -> i128 {
    10i128.pow((to - from) as u32)
}

/// `a * b`, checked; two factors that fit `i64` cannot overflow `i128`.
#[inline]
fn wide_mul(a: i128, b: i128) -> Option<i128> {
    let fits = |x: i128| x as i64 as i128 == x;
    if fits(a) && fits(b) {
        Some(a * b)
    } else {
        a.checked_mul(b)
    }
}

/// Add: numbers through [`arith`]; a date plus an interval or days.
pub fn add(a: &Value, b: &Value, mode: ArithMode) -> EngineResult<Value> {
    match (a, b) {
        (Value::Date(d), Value::Interval { months, days })
        | (Value::Interval { months, days }, Value::Date(d)) => {
            shift_date(*d, *months, *days as i64, BinOp::Plus)
        }
        (Value::Date(d), Value::Int(n)) => shift_date(*d, 0, *n, BinOp::Plus),
        _ => numbers(BinOp::Plus, a, b, mode),
    }
}

/// Subtract: numbers through [`arith`]; the days between two dates; a
/// date minus an interval or days.
pub fn sub(a: &Value, b: &Value, mode: ArithMode) -> EngineResult<Value> {
    match (a, b) {
        (Value::Date(d), Value::Date(e)) => Ok(Value::Int(*d as i64 - *e as i64)),
        (Value::Date(d), Value::Interval { months, days }) => {
            shift_date(*d, *months, *days as i64, BinOp::Minus)
        }
        (Value::Date(d), Value::Int(n)) => shift_date(*d, 0, *n, BinOp::Minus),
        _ => numbers(BinOp::Minus, a, b, mode),
    }
}

/// Multiply: numbers through [`arith`].
pub fn mul(a: &Value, b: &Value, mode: ArithMode) -> EngineResult<Value> {
    numbers(BinOp::Mul, a, b, mode)
}

/// Divide. Division always produces a float (both engines): fixed-point
/// division semantics add nothing to the cost-model story.
pub fn div(a: &Value, b: &Value) -> EngineResult<Value> {
    numbers(BinOp::Div, a, b, ArithMode::Float)
}

/// `a op b` over values: NULL if either is, numbers through [`arith`],
/// anything else a type error.
fn numbers(op: BinOp, a: &Value, b: &Value, mode: ArithMode) -> EngineResult<Value> {
    match (Num::of(a), Num::of(b)) {
        (Some(None), _) | (_, Some(None)) => Ok(Value::Null),
        (Some(Some(x)), Some(Some(y))) => Ok(arith(op, x, y, mode)?.value()),
        _ => {
            let (x, y) = (a.type_name(), b.type_name());
            Err(EngineError::Type(match op {
                BinOp::Mul => format!("cannot multiply {x} and {y}"),
                BinOp::Div => format!("cannot divide {x} by {y}"),
                op => format!("cannot apply {} to {x} and {y}", op.sql()),
            }))
        }
    }
}

/// `d op (months, days)` for `op` in `+ -`, the months first: a date
/// while the result fits a [`Day`], the integer overflow of `op` if not.
fn shift_date(d: Day, months: i32, days: i64, op: BinOp) -> EngineResult<Value> {
    let (months, days) = match op {
        BinOp::Plus => (Some(months), Some(days)),
        _ => (months.checked_neg(), days.checked_neg()),
    };
    let d = match months {
        Some(0) => Some(d),
        m => m.and_then(|m| sqalpel_datagen::calendar::add_months(d, m)),
    };
    let d = d.zip(days).and_then(|(d, n)| i64::from(d).checked_add(n));
    let d = d.and_then(|d| Day::try_from(d).ok());
    d.map(Value::Date).ok_or_else(|| Fault::Overflow { int: true, op }.into())
}

/// Negate a numeric value or an interval.
pub fn negate(v: &Value) -> EngineResult<Value> {
    match (v, Num::of(v)) {
        (_, Some(n)) => Ok(n.map(Num::checked_neg).transpose()?.map_or(Value::Null, Num::value)),
        (Value::Interval { months, days }, None) => Ok(Value::Interval {
            months: -months,
            days: -days,
        }),
        (other, None) => Err(EngineError::Type(format!("cannot negate {}", other.type_name()))),
    }
}

/// Modulo on integers.
pub fn rem(a: &Value, b: &Value) -> EngineResult<Value> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(x), Value::Int(y)) if *y != 0 => Ok(Value::Int(x % y)),
        (Value::Int(_), Value::Int(_)) => Err(EngineError::Type("modulo by zero".into())),
        _ => Err(EngineError::Type(format!(
            "cannot apply % to {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

/// String concatenation.
pub fn concat(a: &Value, b: &Value) -> EngineResult<Value> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        _ => Ok(Value::Str(format!("{a}{b}"))),
    }
}

/// SQL comparison: `None` when either side is NULL (three-valued logic),
/// error on incomparable types. Exact numerics (integers, decimals)
/// compare exactly, a float as `f64`.
pub fn compare(a: &Value, b: &Value) -> EngineResult<Option<Ordering>> {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Ok(None),
        (Value::Bool(x), Value::Bool(y)) => Ok(Some(x.cmp(y))),
        (Value::Str(x), Value::Str(y)) => Ok(Some(x.as_str().cmp(y.as_str()))),
        (Value::Date(x), Value::Date(y)) => Ok(Some(x.cmp(y))),
        (Value::Int(x), Value::Int(y)) => Ok(Some(x.cmp(y))),
        (Value::Int(_) | Value::Decimal { .. }, Value::Int(_) | Value::Decimal { .. }) => {
            let exact = |v| fixed(Num::of(v).flatten().expect("an exact number"));
            Ok(Some(fixed_cmp(exact(a), exact(b))))
        }
        _ if a.is_numeric() && b.is_numeric() => {
            let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
            Ok(x.partial_cmp(&y))
        }
        _ => Err(EngineError::Type(format!(
            "cannot compare {} with {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

/// The order of two fixed-point numbers, exactly: both at the wider
/// scale. A side that leaves `i128` there lies past every value the other
/// side holds, on its own sign's side.
fn fixed_cmp((x, xs): (i128, u8), (y, ys): (i128, u8)) -> Ordering {
    let s = xs.max(ys);
    let wide = |raw: i128, from: u8| upscale(raw, scale_factor(from, s));
    match (wide(x, xs), wide(y, ys)) {
        (Ok(x), Ok(y)) => x.cmp(&y),
        (Err(_), _) => x.cmp(&0),
        (_, Err(_)) => 0.cmp(&y),
    }
}

/// Whether an ordering satisfies a comparison operator.
#[inline]
pub fn ordering_holds(o: Ordering, op: BinOp) -> bool {
    match op {
        BinOp::Eq => o.is_eq(),
        BinOp::NotEq => o.is_ne(),
        BinOp::Lt => o.is_lt(),
        BinOp::LtEq => o.is_le(),
        BinOp::Gt => o.is_gt(),
        BinOp::GtEq => o.is_ge(),
        _ => unreachable!("non-comparison op"),
    }
}

/// Equality for grouping/dedup/hash-join keys: NULL groups with NULL
/// (SQL `GROUP BY` semantics), numerics compare by value.
pub fn group_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Null, _) | (_, Value::Null) => false,
        _ => matches!(compare(a, b), Ok(Some(Ordering::Equal))),
    }
}

/// A hashable key image of a value for hash joins and grouping.
/// Numeric values of different representations map to the same key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    Null,
    Bool(bool),
    Int(i64),
    /// Float bits (canonicalized so `-0.0 == 0.0`).
    Float(u64),
    /// Decimal normalized to scale 6.
    Decimal(i128),
    /// A decimal scale 6 cannot hold: its scale and raw in lowest terms.
    FineDecimal((u8, i128)),
    Str(String),
    Date(Day),
}

impl Value {
    /// The grouping/hashing key image. Numerics that compare equal map to
    /// the same key (ints and decimals normalize to scale-6 decimals, or
    /// to lowest terms past it; floats hash by bits).
    pub fn key(&self) -> EngineResult<Key> {
        Ok(match self {
            Value::Null => Key::Null,
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(i) => Key::Decimal(*i as i128 * 1_000_000),
            Value::Float(f) => {
                let c = if *f == 0.0 { 0.0 } else { *f };
                if c.fract() == 0.0 && c.abs() < 1e18 {
                    Key::Decimal(c as i128 * 1_000_000)
                } else {
                    Key::Float(c.to_bits())
                }
            }
            Value::Decimal { raw, scale } => match key6(*raw, *scale)? {
                Some(k) => Key::Decimal(k),
                None => Key::FineDecimal(fine_key(*raw, *scale)),
            },
            Value::Str(s) => Key::Str(s.clone()),
            Value::Date(d) => Key::Date(*d),
            Value::Interval { .. } => {
                return Err(EngineError::Type("interval cannot be a key".into()))
            }
        })
    }
}

/// The fixed-width part of the key domain: the image of every value
/// but a string, equal exactly when the [`Key`]s are. A decimal scale 6
/// cannot hold is tagged with its [`fine_key`]'s scale, 7 or more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FixedKey {
    tag: u8,
    bits: i128,
}

impl FixedKey {
    /// Bits of a [`FixedKey::word`] below its tag.
    const PAYLOAD: u32 = 60;

    /// The key as one machine word — its tag in the top 4 bits, its bits
    /// in the low 60 — when both fit, the bits as a signed number: NULL,
    /// booleans, dates and every number up to ±5.7·10¹¹ do; other
    /// numbers, and non-integral floats, do not. Distinct keys that fit
    /// get distinct words.
    #[inline]
    pub(crate) fn word(self) -> Option<u64> {
        let half = 1i128 << (Self::PAYLOAD - 1);
        let payload = self.bits as u64 & ((1 << Self::PAYLOAD) - 1);
        let fits = self.tag < 16 && (-half..half).contains(&self.bits);
        fits.then_some((self.tag as u64) << Self::PAYLOAD | payload)
    }
}

/// The [`FixedKey`] of `v`; `None` for strings.
#[inline]
pub(crate) fn fixed_key(v: &Value) -> EngineResult<Option<FixedKey>> {
    let (tag, bits) = match v {
        Value::Null => (0, 0),
        Value::Bool(b) => (1, *b as i128),
        Value::Int(i) => (2, *i as i128 * 1_000_000),
        Value::Float(f) => {
            // Mirror `Value::key`: canonicalize -0.0, fold integral
            // floats into the decimal domain.
            let c = if *f == 0.0 { 0.0 } else { *f };
            if c.fract() == 0.0 && c.abs() < 1e18 {
                (2, c as i128 * 1_000_000)
            } else {
                (3, c.to_bits() as i128)
            }
        }
        Value::Decimal { raw, scale } => match key6(*raw, *scale)? {
            Some(k) => (2, k),
            None => fine_key(*raw, *scale),
        },
        Value::Str(_) => return Ok(None),
        Value::Date(d) => (5, *d as i128),
        Value::Interval { .. } => {
            return Err(EngineError::Type("interval cannot be a key".into()))
        }
    };
    Ok(Some(FixedKey { tag, bits }))
}

/// The key of `v` as one machine word, when it fits one: a fixed key
/// that does ([`FixedKey::word`]), or a string of at most 7 bytes — the
/// tag [`encode_key`] gives strings (4) in the top 4 bits, then its
/// length, then its bytes. Distinct keys that fit get distinct words.
#[inline]
pub(crate) fn key_word(v: &Value) -> EngineResult<Option<u64>> {
    Ok(match v {
        Value::Str(s) if s.len() < 8 => {
            let mut bytes = [0u8; 8];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Some(4 << FixedKey::PAYLOAD | (s.len() as u64) << 56 | u64::from_le_bytes(bytes))
        }
        v => fixed_key(v)?.and_then(FixedKey::word),
    })
}

/// Append the grouping/hashing key image of `v` to `buf` as a tagged
/// byte string. Byte equality of encodings coincides exactly with
/// [`Key`] equality: numerics that normalize to the same scale-6
/// decimal encode identically, and every element is fixed-width or
/// length-prefixed so multi-column concatenations stay injective. The
/// row engine's grouping and hash-join loops key multi-column and string
/// keys on these encodings instead of allocating a `Vec<Key>` per row.
pub fn encode_key(v: &Value, buf: &mut Vec<u8>) -> EngineResult<()> {
    match (fixed_key(v)?, v) {
        (Some(k), _) => {
            buf.push(k.tag);
            let width = match k.tag {
                0 => 0,
                1 => 1,
                3 => 8,
                5 => 4,
                _ => 16,
            };
            buf.extend_from_slice(&k.bits.to_le_bytes()[..width]);
        }
        (None, Value::Str(s)) => {
            buf.push(4);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        (None, _) => unreachable!("only strings have no fixed key"),
    }
    Ok(())
}

/// A `LIKE` pattern compiled once: the text between `%` wildcards as
/// segments, so matching is an anchored prefix, an anchored suffix and a
/// leftmost substring search per middle segment over the text's bytes —
/// no `Vec<char>` of the text or the pattern per call. `_` matches one
/// character (not one byte); `%` in the *text* is an ordinary character.
#[derive(Debug, Clone)]
pub struct LikePattern {
    /// `segs.len() - 1` is the number of `%` runs in the pattern.
    segs: Vec<LikeSeg>,
}

/// One `%`-free stretch of a pattern: literal runs and `_` runs.
#[derive(Debug, Clone)]
struct LikeSeg {
    toks: Vec<LikeTok>,
    /// Characters the segment consumes.
    chars: usize,
}

#[derive(Debug, Clone)]
enum LikeTok {
    Lit(String),
    /// This many `_`.
    Any(usize),
}

impl LikeSeg {
    fn parse(src: &str) -> LikeSeg {
        let mut toks: Vec<LikeTok> = Vec::new();
        for c in src.chars() {
            match (c, toks.last_mut()) {
                ('_', Some(LikeTok::Any(n))) => *n += 1,
                ('_', _) => toks.push(LikeTok::Any(1)),
                (c, Some(LikeTok::Lit(s))) => s.push(c),
                (c, _) => toks.push(LikeTok::Lit(c.to_string())),
            }
        }
        LikeSeg {
            toks,
            chars: src.chars().count(),
        }
    }

    /// Match the whole segment at the start of `text`; the matched byte
    /// length on success.
    fn match_at(&self, text: &str) -> Option<usize> {
        let mut pos = 0;
        for tok in &self.toks {
            let rest = &text[pos..];
            match tok {
                LikeTok::Lit(s) => {
                    if !rest.starts_with(s.as_str()) {
                        return None;
                    }
                    pos += s.len();
                }
                LikeTok::Any(n) => {
                    let mut it = rest.char_indices();
                    it.nth(n - 1)?;
                    pos += it.next().map_or(rest.len(), |(i, _)| i);
                }
            }
        }
        Some(pos)
    }

    /// Leftmost match of the segment in `text`: `(start, end)` bytes.
    fn find(&self, text: &str) -> Option<(usize, usize)> {
        match self.toks.as_slice() {
            [] => Some((0, 0)),
            [LikeTok::Lit(s)] => text.find(s.as_str()).map(|at| (at, at + s.len())),
            _ => text
                .char_indices()
                .map(|(at, _)| at)
                .chain(std::iter::once(text.len()))
                .find_map(|at| self.match_at(&text[at..]).map(|len| (at, at + len))),
        }
    }
}

impl LikePattern {
    pub fn new(pattern: &str) -> LikePattern {
        LikePattern {
            segs: pattern.split('%').map(LikeSeg::parse).collect(),
        }
    }

    pub fn matches(&self, text: &str) -> bool {
        let (first, rest) = self.segs.split_first().expect("split yields a segment");
        let Some(mut pos) = first.match_at(text) else {
            return false;
        };
        let Some((last, middle)) = rest.split_last() else {
            // No `%` at all: the one segment must cover the text.
            return pos == text.len();
        };
        for seg in middle {
            match seg.find(&text[pos..]) {
                Some((_, end)) => pos += end,
                None => return false,
            }
        }
        // The last segment is anchored at the end: step back over as
        // many characters as it consumes.
        let tail = &text[pos..];
        let start = match last.chars {
            0 => tail.len(),
            n => match tail.char_indices().rev().nth(n - 1) {
                Some((at, _)) => at,
                None => return false,
            },
        };
        last.match_at(&tail[start..]) == Some(tail.len() - start)
    }
}

/// SQL `LIKE` with `%` and `_` wildcards, for one-off matches; anything
/// that matches a pattern more than once compiles a [`LikePattern`].
pub fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn decimal_display() {
        assert_eq!(Value::cents(12345).to_string(), "123.45");
        assert_eq!(Value::cents(-205).to_string(), "-2.05");
        assert_eq!(Value::decimal(5, 2).to_string(), "0.05");
        assert_eq!(Value::decimal(7, 0).to_string(), "7");
    }

    #[test]
    fn pow10_table_is_powi() {
        for scale in 0..=22u8 {
            assert_eq!(
                pow10(scale).to_bits(),
                10f64.powi(scale as i32).to_bits(),
                "10^{scale}"
            );
        }
        // Past the table the function is powi itself, as computed at run
        // time: the compiler folds a constant `powi` to other bits
        // (10^23 one unit in the last place higher), so the oracle's
        // operands are hidden from it.
        for scale in [23u8, 30, 255] {
            let powi = black_box(10f64).powi(black_box(scale as i32));
            assert_eq!(pow10(scale).to_bits(), powi.to_bits());
        }
        let v = Value::decimal(123_456, 2);
        assert_eq!(v.as_f64().unwrap().to_bits(), (123_456f64 / 10f64.powi(2)).to_bits());
    }

    #[test]
    fn i128_to_f64_is_the_plain_conversion() {
        let two53 = 1i128 << 53;
        let edges = [
            two53 + 1,
            -(two53 + 1),
            i64::MIN as i128,
            i64::MAX as i128,
            1i128 << 63,
            -(1i128 << 63),
            (1i128 << 63) + 1,
            i64::MIN as i128 - 1,
            i128::MIN,
            i128::MAX,
            0,
            -1,
        ];
        for raw in edges {
            assert_eq!(i128_to_f64(raw).to_bits(), (raw as f64).to_bits(), "{raw}");
            for scale in [0u8, 2, 4, 6] {
                assert_eq!(
                    decimal_to_f64(raw, scale).to_bits(),
                    (raw as f64 / pow10(scale)).to_bits(),
                    "{raw} at scale {scale}"
                );
            }
        }
    }

    #[test]
    fn like_underscore_counts_characters_not_bytes() {
        assert!(like_match("日本", "__"));
        assert!(!like_match("日本", "______"));
        assert!(like_match("a日b", "a_b"));
        assert!(like_match("xéy", "%_y"));
        assert!(like_match("abcabc", "%abc"));
        assert!(!like_match("abcab", "%abc"));
        assert!(like_match("ab", "a%b"));
        assert!(!like_match("a", "a%a"));
    }

    #[test]
    fn float_vs_guarded_mul() {
        let price = Value::cents(100_000); // 1000.00
        let disc = Value::decimal(5, 2); // 0.05
        let f = mul(&price, &disc, ArithMode::Float).unwrap();
        let g = mul(&price, &disc, ArithMode::GuardedDecimal).unwrap();
        assert!(matches!(f, Value::Float(x) if (x - 50.0).abs() < 1e-9));
        match g {
            Value::Decimal { raw, scale } => {
                assert_eq!(scale, 4);
                assert_eq!(raw, 500_000); // 50.0000
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn guarded_mul_caps_scale() {
        let a = Value::decimal(123_456, 4);
        let b = Value::decimal(789_012, 4);
        match mul(&a, &b, ArithMode::GuardedDecimal).unwrap() {
            Value::Decimal { scale, .. } => assert_eq!(scale, 6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn guarded_overflow_detected() {
        let big = Value::decimal(i128::MAX / 2, 2);
        assert!(matches!(
            mul(&big, &big, ArithMode::GuardedDecimal),
            Err(EngineError::Overflow(_))
        ));
    }

    #[test]
    fn integer_overflow_detected() {
        assert!(matches!(
            add(&Value::Int(i64::MAX), &Value::Int(1), ArithMode::Float),
            Err(EngineError::Overflow(_))
        ));
    }

    #[test]
    fn date_interval_arithmetic() {
        let d = Value::Date(sqalpel_datagen::calendar::parse_days("1994-01-01").unwrap());
        let plus_year = add(
            &d,
            &Value::Interval { months: 12, days: 0 },
            ArithMode::Float,
        )
        .unwrap();
        assert_eq!(plus_year.to_string(), "1995-01-01");
        let minus_90 = sub(&d, &Value::Interval { months: 0, days: 90 }, ArithMode::Float).unwrap();
        assert_eq!(minus_90.to_string(), "1993-10-03");
    }

    #[test]
    fn date_difference_in_days() {
        let a = Value::Date(10);
        let b = Value::Date(3);
        assert!(matches!(sub(&a, &b, ArithMode::Float).unwrap(), Value::Int(7)));
    }

    #[test]
    fn null_propagates() {
        assert!(add(&Value::Null, &Value::Int(1), ArithMode::Float)
            .unwrap()
            .is_null());
        assert!(mul(&Value::cents(1), &Value::Null, ArithMode::GuardedDecimal)
            .unwrap()
            .is_null());
        assert_eq!(compare(&Value::Null, &Value::Int(1)).unwrap(), None);
    }

    #[test]
    fn comparisons_across_numeric_types() {
        let c = compare(&Value::Int(5), &Value::cents(500)).unwrap();
        assert_eq!(c, Some(Ordering::Equal));
        let d = compare(&Value::decimal(5, 2), &Value::Float(0.05)).unwrap();
        assert_eq!(d, Some(Ordering::Equal));
        let e = compare(&Value::decimal(51, 3), &Value::decimal(5, 2)).unwrap();
        assert_eq!(e, Some(Ordering::Greater));
    }

    #[test]
    fn incomparable_types_error() {
        assert!(compare(&Value::Int(1), &Value::Str("x".into())).is_err());
    }

    #[test]
    fn keys_unify_numeric_representations() {
        assert_eq!(
            Value::Int(5).key().unwrap(),
            Value::cents(500).key().unwrap()
        );
        assert_eq!(
            Value::Float(5.0).key().unwrap(),
            Value::Int(5).key().unwrap()
        );
        assert_ne!(
            Value::Int(5).key().unwrap(),
            Value::Int(6).key().unwrap()
        );
    }

    #[test]
    fn a_decimal_scale_6_cannot_hold_keys_exactly() {
        let fine = |raw: i128, scale| Value::Decimal { raw, scale };
        let one = 10i128.pow(17);
        // 1.00000000000000001 at two scales is one key, and neither 1 nor
        // the float it rounds to.
        assert_eq!(fine(one + 1, 17).key().unwrap(), fine(10 * one + 10, 18).key().unwrap());
        for other in [Value::Int(1), Value::Float(1.0), fine(one, 17)] {
            assert_ne!(fine(one + 1, 17).key().unwrap(), other.key().unwrap());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            encode_key(&fine(one + 1, 17), &mut a).unwrap();
            encode_key(&other, &mut b).unwrap();
            assert_ne!(a, b);
        }
        // A small one fits a word; one tagged past 4 bits does not.
        assert!(key_word(&fine(1, 7)).unwrap().is_some());
        assert_eq!(key_word(&fine(1, 17)).unwrap(), None);
    }

    #[test]
    fn encoded_keys_agree_with_key_equality() {
        let enc = |v: &Value| {
            let mut b = Vec::new();
            encode_key(v, &mut b).unwrap();
            b
        };
        // Same Key ⇒ same encoding.
        assert_eq!(enc(&Value::Int(5)), enc(&Value::cents(500)));
        assert_eq!(enc(&Value::Float(5.0)), enc(&Value::Int(5)));
        assert_eq!(enc(&Value::Float(-0.0)), enc(&Value::Float(0.0)));
        // Different Key ⇒ different encoding, even across types that
        // share raw bytes (Int 0 vs Bool false vs Null vs empty string).
        let distinct = [
            enc(&Value::Int(0)),
            enc(&Value::Bool(false)),
            enc(&Value::Null),
            enc(&Value::Str(String::new())),
            enc(&Value::Date(0)),
            enc(&Value::Float(0.5)),
        ];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(encode_key(
            &Value::Interval { months: 1, days: 0 },
            &mut Vec::new()
        )
        .is_err());
    }

    #[test]
    fn division() {
        let v = div(&Value::Int(7), &Value::Int(2)).unwrap();
        assert!(matches!(v, Value::Float(x) if (x - 3.5).abs() < 1e-12));
        assert!(div(&Value::Int(1), &Value::Int(0)).is_err());
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("PROMO ANODIZED TIN", "PROMO%"));
        assert!(like_match("ECONOMY BRASS", "%BRASS"));
        assert!(like_match("abc special xyz requests q", "%special%requests%"));
        assert!(!like_match("specialrequests", "%special_%requests%"));
        assert!(like_match("a", "_"));
        assert!(!like_match("ab", "_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        // A literal '%' in the text must not confuse the wildcard.
        assert!(like_match("%a", "%"));
        assert!(like_match("100%", "100%"));
        assert!(like_match("100% done", "100%"));
        assert!(like_match("MEDIUM POLISHED COPPER", "MEDIUM POLISHED%"));
        assert!(!like_match("MEDIUM PLATED COPPER", "MEDIUM POLISHED%"));
    }

    #[test]
    fn like_backtracking_stress() {
        assert!(like_match(&"a".repeat(50), "%a%a%a%a%"));
        assert!(!like_match(&"a".repeat(50), "%b%"));
    }

    #[test]
    fn group_eq_null_semantics() {
        assert!(group_eq(&Value::Null, &Value::Null));
        assert!(!group_eq(&Value::Null, &Value::Int(0)));
        assert!(group_eq(&Value::Int(2), &Value::cents(200)));
    }

    #[test]
    fn concat_strings() {
        let v = concat(&Value::Str("a".into()), &Value::Str("b".into())).unwrap();
        assert_eq!(v.to_string(), "ab");
    }
}
