//! Vectorized expression evaluation: every node of a scalar expression
//! consumes whole columns and materializes its result as a new column.

use super::{Batch, ColExec, ColVec, MODE};
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, Env, EvalCtx, Prepared, Scope};
use crate::ir::Expr;
use crate::value::{self, LikePattern, Value};
use sqalpel_sql::ast::{BinOp, UnaryOp};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

/// A column an expression evaluated to: a column of the batch itself
/// (a bare column reference is borrowed, not copied), one the
/// expression computed, or a subexpression computed once for a whole
/// aggregate list ([`Memo`]).
pub(super) enum Col<'b> {
    Batch(&'b ColVec),
    Own(ColVec),
    Shared(Rc<ColVec>),
}

impl Deref for Col<'_> {
    type Target = ColVec;

    fn deref(&self) -> &ColVec {
        match self {
            Col::Batch(c) => c,
            Col::Own(c) => c,
            Col::Shared(c) => c,
        }
    }
}

impl Col<'_> {
    fn into_owned(self) -> ColVec {
        match self {
            Col::Batch(c) => c.clone(),
            Col::Own(c) => c,
            Col::Shared(c) => (*c).clone(),
        }
    }
}

/// The subexpressions an aggregate list evaluates more than once — a
/// whole argument several aggregates take (`sum(x)`, `avg(x)`), or a
/// part of one argument that another holds too (Q1's `l_extendedprice *
/// (1 - l_discount)` in `sum_disc_price` and inside `sum_charge`) — and
/// their columns once computed, for one batch. Only kernel-only subtrees
/// ([`vectorizable`]) are shared: what they do to the budget is their
/// shape alone, so a later occurrence replays the charges it would have
/// made ([`ColExec::recharge`]) and no budget error moves.
#[derive(Default)]
pub(super) struct Memo<'e> {
    shared: Vec<(&'e Expr, Option<Rc<ColVec>>)>,
}

impl<'e> Memo<'e> {
    /// The memo for the arguments `args`: a subtree is shared when it
    /// occurs at least twice and not only inside a larger subtree that
    /// occurs as often (that one is shared instead).
    pub(super) fn for_args(args: &[&'e Expr]) -> Memo<'e> {
        fn count<'e>(e: &'e Expr, counts: &mut Vec<(&'e Expr, usize)>) {
            match counts.iter_mut().find(|(x, _)| *x == e) {
                Some((_, n)) => *n += 1,
                None => counts.push((e, 1)),
            }
            kernel_operands(e, |o| count(o, counts));
        }
        fn pick<'e>(
            e: &'e Expr,
            parent: usize,
            counts: &[(&'e Expr, usize)],
            shared: &mut Vec<(&'e Expr, Option<Rc<ColVec>>)>,
        ) {
            let n = counts.iter().find(|(x, _)| *x == e).map_or(0, |c| c.1);
            let leaf = matches!(e, Expr::Col { .. } | Expr::Literal(_) | Expr::Bool(_));
            let known = shared.iter().any(|(x, _)| *x == e);
            if n > 1 && n > parent && !leaf && !known && vectorizable(e) {
                shared.push((e, None));
            }
            kernel_operands(e, |o| pick(o, n, counts, shared));
        }
        let mut counts = Vec::new();
        args.iter().for_each(|a| count(a, &mut counts));
        let mut shared = Vec::new();
        args.iter().for_each(|a| pick(a, 0, &counts, &mut shared));
        Memo { shared }
    }

    fn slot(&mut self, e: &Expr) -> Option<&mut Option<Rc<ColVec>>> {
        self.shared.iter_mut().find(|(x, _)| *x == e).map(|(_, c)| c)
    }
}

impl ColExec<'_> {
    /// Evaluate an expression over a whole batch, materializing the result.
    pub(super) fn eval_vec(
        &self,
        e: &Expr,
        batch: &Batch,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<ColVec> {
        Ok(self.eval_col(e, batch, outer, &mut Memo::default())?.into_owned())
    }

    /// [`Self::eval_vec`] without copying a bare column, and with the
    /// columns of `memo`'s subexpressions computed once: the first
    /// occurrence computes and keeps one, every later one reads it.
    pub(super) fn eval_col<'b>(
        &self,
        e: &Expr,
        batch: &'b Batch,
        outer: Option<&Env<'_>>,
        memo: &mut Memo<'_>,
    ) -> EngineResult<Col<'b>> {
        let Some(slot) = memo.slot(e) else {
            return self.eval_node(e, batch, outer, memo);
        };
        if let Some(col) = slot {
            let col = Rc::clone(col);
            self.recharge(e, batch.len as u64)?;
            return Ok(Col::Shared(col));
        }
        let col = Rc::new(self.eval_node(e, batch, outer, memo)?.into_owned());
        *memo.slot(e).expect("looked up above") = Some(Rc::clone(&col));
        Ok(Col::Shared(col))
    }

    /// The budget charges evaluating the kernel-only `e` over `n` rows
    /// makes, in the order it makes them.
    fn recharge(&self, e: &Expr, n: u64) -> EngineResult<()> {
        let mut charged = Ok(());
        kernel_operands(e, |o| {
            if charged.is_ok() {
                charged = self.recharge(o, n);
            }
        });
        charged?;
        match e {
            Expr::Col { .. } | Expr::Literal(_) | Expr::Bool(_) => Ok(()),
            Expr::Between { .. } => self.charge(2 * n),
            _ => self.charge(n),
        }
    }

    fn eval_node<'b>(
        &self,
        e: &Expr,
        batch: &'b Batch,
        outer: Option<&Env<'_>>,
        memo: &mut Memo<'_>,
    ) -> EngineResult<Col<'b>> {
        let n = batch.len;
        let col = match e {
            Expr::Col { slot, .. } => return Ok(Col::Batch(&batch.cols[*slot])),
            Expr::Outer(c) => match outer {
                Some(env) => Ok(ColVec::Const(env.resolve(c)?, n)),
                None => Err(EngineError::UnknownColumn(c.to_string())),
            },
            Expr::Bool(b) => Ok(ColVec::Const(Value::Bool(*b), n)),
            Expr::OutputCol(_) => Err(EngineError::Unsupported(
                "output-column reference outside ORDER BY".into(),
            )),
            Expr::Literal(l) => Ok(ColVec::Const(eval::literal(l)?, n)),
            Expr::Binary { left, op, right } => match op {
                BinOp::And | BinOp::Or => {
                    let l = self.eval_col(left, batch, outer, memo)?;
                    let r = self.eval_col(right, batch, outer, memo)?;
                    self.charge(n as u64)?;
                    bool_kernel(*op, &l, &r, n)
                }
                BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div | BinOp::Mod
                | BinOp::Concat => {
                    let l = self.eval_col(left, batch, outer, memo)?;
                    let r = self.eval_col(right, batch, outer, memo)?;
                    self.charge(n as u64)?;
                    arith_kernel(*op, &l, &r, n)
                }
                cmp => {
                    let l = self.eval_col(left, batch, outer, memo)?;
                    let r = self.eval_col(right, batch, outer, memo)?;
                    self.charge(n as u64)?;
                    cmp_kernel(*cmp, &l, &r, n)
                }
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = self.eval_col(expr, batch, outer, memo)?;
                let lo = self.eval_col(low, batch, outer, memo)?;
                let hi = self.eval_col(high, batch, outer, memo)?;
                self.charge(2 * n as u64)?;
                let ge = cmp_kernel(BinOp::GtEq, &v, &lo, n)?;
                let le = cmp_kernel(BinOp::LtEq, &v, &hi, n)?;
                let both = bool_kernel(BinOp::And, &ge, &le, n)?;
                if *negated {
                    not_kernel(&both, n)
                } else {
                    Ok(both)
                }
            }
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = self.eval_col(expr, batch, outer, memo)?;
                let p = self.eval_col(pattern, batch, outer, memo)?;
                self.charge(n as u64)?;
                // Fast paths against a constant pattern, compiled once.
                if let ColVec::Const(Value::Str(pat), _) = &*p {
                    let pat = LikePattern::new(pat);
                    match &*v {
                        ColVec::Str(texts) => {
                            return Ok(Col::Own(ColVec::Bool(
                                texts.iter().map(|t| pat.matches(t) != *negated).collect(),
                            )));
                        }
                        // Match the pattern once per dictionary entry,
                        // then map codes through the result table.
                        ColVec::Dict { codes, dict } => {
                            let table: Vec<bool> =
                                dict.iter().map(|t| pat.matches(t) != *negated).collect();
                            return Ok(Col::Own(ColVec::Bool(
                                codes.iter().map(|&c| table[c as usize]).collect(),
                            )));
                        }
                        _ => {}
                    }
                }
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(match (v.get(i), p.get(i)) {
                        (Value::Null, _) | (_, Value::Null) => Value::Null,
                        (Value::Str(t), Value::Str(pt)) => {
                            Value::Bool(value::like_match(&t, &pt) != *negated)
                        }
                        (a, b) => {
                            return Err(EngineError::Type(format!(
                                "LIKE requires strings, got {} and {}",
                                a.type_name(),
                                b.type_name()
                            )))
                        }
                    });
                }
                Ok(ColVec::Val(out))
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                let v = self.eval_col(expr, batch, outer, memo)?;
                self.charge(n as u64)?;
                not_kernel(&v, n)
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                let v = self.eval_col(expr, batch, outer, memo)?;
                let items: Vec<Col<'_>> = list
                    .iter()
                    .map(|it| self.eval_col(it, batch, outer, memo))
                    .collect::<EngineResult<_>>()?;
                self.charge(n as u64)?;
                // Dict fast path: constant string lists (`l_shipmode in
                // ('MAIL', 'SHIP')`) become a per-code membership table.
                if let ColVec::Dict { codes, dict } = &*v {
                    if items
                        .iter()
                        .all(|it| matches!(**it, ColVec::Const(Value::Str(_), _)))
                    {
                        let mut member = vec![false; dict.len()];
                        for it in &items {
                            if let ColVec::Const(Value::Str(s), _) = &**it {
                                if let Ok(p) = dict.binary_search(s) {
                                    member[p] = true;
                                }
                            }
                        }
                        return Ok(Col::Own(ColVec::Bool(
                            codes.iter().map(|&c| member[c as usize] != *negated).collect(),
                        )));
                    }
                }
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let x = v.get(i);
                    if x.is_null() {
                        out.push(Value::Null);
                        continue;
                    }
                    let found = items.iter().any(|it| value::group_eq(&x, &it.get(i)));
                    out.push(Value::Bool(found != *negated));
                }
                Ok(ColVec::Val(out))
            }
            // Everything else (CASE, EXTRACT, SUBSTRING, subqueries,
            // unary minus, IS NULL): row-wise fallback with full semantics,
            // through the expression prepared once for the whole batch.
            // The context and row buffer live outside the loop so the only
            // per-row allocations are the values themselves.
            _ => {
                self.charge(n as u64)?;
                let ctx = EvalCtx::new(self, MODE);
                let scope = Scope {
                    schema: &batch.schema,
                    outer,
                };
                let prepared = Prepared::new(e, scope, MODE, &[]);
                let mut out = Vec::with_capacity(n);
                let mut row: Vec<Value> = Vec::with_capacity(batch.schema.len());
                for i in 0..n {
                    batch.row_into(i, &mut row);
                    out.push(prepared.eval(&row, &ctx)?);
                }
                Ok(ColVec::Val(out))
            }
        };
        col.map(Col::Own)
    }
}

/// Whether every node of `e` stays on `eval_vec`'s vectorized kernels,
/// which read only the slots the expression names. Anything else reaches
/// the row-wise fallback, which sees the whole row — so the staged filter
/// may leave null placeholders in unread slots only for these.
pub(super) fn vectorizable(e: &Expr) -> bool {
    let mut all = true;
    kernel_operands(e, |o| all &= vectorizable(o)) && all
}

/// Call `f` on each operand [`ColExec::eval_col`] evaluates as a column
/// before the kernel of `e` runs, in that order. False, with no call,
/// when `e` goes to the row-wise fallback instead.
fn kernel_operands<'e>(e: &'e Expr, mut f: impl FnMut(&'e Expr)) -> bool {
    match e {
        Expr::Col { .. } | Expr::Literal(_) | Expr::Bool(_) => {}
        Expr::Binary { left, right, .. } => {
            f(left);
            f(right);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            f(expr);
            f(low);
            f(high);
        }
        Expr::Like { expr, pattern, .. } => {
            f(expr);
            f(pattern);
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => f(expr),
        Expr::InList { expr, list, .. } => {
            f(expr);
            list.iter().for_each(f);
        }
        _ => return false,
    }
    true
}

/// Vectorized arithmetic. `+`, `-` and `*` over integer and decimal
/// columns and constants, on either side, run through the one typed
/// kernel, [`numeric`]; floats, boxed columns, NULL, `/`, `%` and `||`
/// go element by element through the scalar operations.
fn arith_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    match (l, r) {
        // Constant against constant (`date '1998-12-01' - interval '90'
        // day`): compute the one value once and keep it a constant, so
        // the comparison above it takes its typed fast path. (No rows,
        // no evaluation: an erroring constant stays silent on empty
        // input.)
        (ColVec::Const(..), ColVec::Const(..)) if n > 0 => {
            Ok(ColVec::Const(elementwise(op, l, r, 1)?.get(0), n))
        }
        _ => match (op, Num::of(l), Num::of(r)) {
            (BinOp::Plus | BinOp::Minus | BinOp::Mul, Some(a), Some(b)) => numeric(op, a, b, n),
            _ => elementwise(op, l, r, n),
        },
    }
}

/// The rows of one operand of [`numeric`], as raw `i128`s.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Ints(&'a [i64]),
    Decs(&'a [i128]),
    /// A constant, the same on every row.
    Const(i128),
}

/// An integer or decimal operand: its lane, its scale (0 for integers)
/// and whether it is an integer.
#[derive(Clone, Copy)]
struct Num<'a> {
    lane: Lane<'a>,
    scale: u8,
    int: bool,
}

impl Num<'_> {
    fn of(col: &ColVec) -> Option<Num<'_>> {
        let (lane, scale, int) = match col {
            ColVec::Int(v) => (Lane::Ints(v), 0, true),
            ColVec::Decimal { raw, scale } => (Lane::Decs(raw), *scale, false),
            ColVec::Const(Value::Int(i), _) => (Lane::Const(*i as i128), 0, true),
            ColVec::Const(Value::Decimal { raw, scale }, _) => (Lane::Const(*raw), *scale, false),
            _ => return None,
        };
        Some(Num { lane, scale, int })
    }
}

/// `l op r` over integer and decimal operands, row by row, exactly as
/// `value::{add, sub, mul}` compute it in guarded mode: two integers stay
/// an integer, checked in `i64`; a decimal on either side makes the
/// result a decimal — at the wider scale for `+` and `-`, both sides
/// rescaled with a checked multiply, and at the summed scale capped at 6
/// for `*`, the product checked before the cap divides it — with the
/// same overflow checks and the same error texts.
fn numeric<'a>(op: BinOp, l: Num<'a>, r: Num<'a>, n: usize) -> EngineResult<ColVec> {
    if l.int && r.int {
        // Exact in `i128`: the `i64` result exists iff it fits.
        let out = map2(l.lane, r.lane, n, |a, b| {
            let v = match op {
                BinOp::Plus => a + b,
                BinOp::Minus => a - b,
                _ => a * b,
            };
            i64::try_from(v).map_err(|_| value::overflow(true, op))
        })?;
        return Ok(ColVec::Int(out));
    }
    if op == BinOp::Mul {
        let (mut scale, mut shift) = (l.scale + r.scale, 1i128);
        while scale > 6 {
            shift *= 10;
            scale -= 1;
        }
        let raw = map2(l.lane, r.lane, n, |a, b| {
            checked_mul(a, b)
                .map(|p| if shift == 1 { p } else { p / shift })
                .ok_or_else(|| value::overflow(false, op))
        })?;
        return Ok(ColVec::Decimal { raw, scale });
    }
    let scale = l.scale.max(r.scale);
    let rescale = |x: i128, f: i128| {
        checked_mul(x, f).ok_or_else(|| EngineError::Overflow("decimal rescale".into()))
    };
    // Each side's lane and the factor that takes it to `scale`. A
    // constant is rescaled once: if that overflows, so does every row,
    // with the same text whichever side a row rescales first.
    let side = |x: Num<'a>| {
        let f = 10i128.pow((scale - x.scale) as u32);
        match x.lane {
            Lane::Const(c) if n > 0 => Ok::<_, EngineError>((Lane::Const(rescale(c, f)?), 1)),
            lane => Ok((lane, f)),
        }
    };
    let ((llane, lf), (rlane, rf)) = (side(l)?, side(r)?);
    let raw = map2(llane, rlane, n, |a, b| {
        let (a, b) = (rescale(a, lf)?, rescale(b, rf)?);
        match op {
            BinOp::Plus => a.checked_add(b),
            _ => a.checked_sub(b),
        }
        .ok_or_else(|| value::overflow(false, op))
    })?;
    Ok(ColVec::Decimal { raw, scale })
}

/// `a * b`, checked. Two factors that fit `i64` — the product of any two
/// stored values, a value and a power of ten — cannot overflow `i128`:
/// one widening multiply, no overflow test.
#[inline]
fn checked_mul(a: i128, b: i128) -> Option<i128> {
    let fits = |x: i128| x as i64 as i128 == x;
    if fits(a) && fits(b) {
        Some(a * b)
    } else {
        a.checked_mul(b)
    }
}

/// `f` over the rows of two lanes, stopping at the first error. Each
/// pairing of lane kinds gets its own loop, with no per-row dispatch.
fn map2<T>(
    l: Lane<'_>,
    r: Lane<'_>,
    n: usize,
    f: impl Fn(i128, i128) -> EngineResult<T>,
) -> EngineResult<Vec<T>> {
    fn run<T>(
        n: usize,
        a: impl Fn(usize) -> i128,
        b: impl Fn(usize) -> i128,
        f: &impl Fn(i128, i128) -> EngineResult<T>,
    ) -> EngineResult<Vec<T>> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(f(a(i), b(i))?);
        }
        Ok(out)
    }
    macro_rules! lane {
        ($lane:expr, $at:ident => $body:expr) => {
            match $lane {
                Lane::Ints(v) => {
                    let v = &v[..n];
                    let $at = |i: usize| v[i] as i128;
                    $body
                }
                Lane::Decs(v) => {
                    let v = &v[..n];
                    let $at = |i: usize| v[i];
                    $body
                }
                Lane::Const(c) => {
                    let $at = |_: usize| c;
                    $body
                }
            }
        };
    }
    lane!(l, a => lane!(r, b => run(n, a, b, &f)))
}

/// Generic element-at-a-time fallback using the guarded scalar ops.
fn elementwise(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = l.get(i);
        let b = r.get(i);
        out.push(match op {
            BinOp::Plus => value::add(&a, &b, MODE)?,
            BinOp::Minus => value::sub(&a, &b, MODE)?,
            BinOp::Mul => value::mul(&a, &b, MODE)?,
            BinOp::Div => value::div(&a, &b, MODE)?,
            BinOp::Mod => value::rem(&a, &b)?,
            BinOp::Concat => value::concat(&a, &b)?,
            _ => return Err(EngineError::Type("non-arithmetic op in kernel".into())),
        });
    }
    Ok(ColVec::Val(out))
}

/// Vectorized comparison producing a boolean (or nullable) vector.
fn cmp_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    let apply = value::ordering_holds;
    // Typed fast paths against constants (the common filter shape).
    match (l, r) {
        (ColVec::Int(a), ColVec::Const(Value::Int(c), _)) => {
            return Ok(ColVec::Bool(
                a.iter().map(|&x| apply(x.cmp(c), op)).collect(),
            ))
        }
        (ColVec::Date(a), ColVec::Const(Value::Date(c), _)) => {
            return Ok(ColVec::Bool(
                a.iter().map(|&x| apply(x.cmp(c), op)).collect(),
            ))
        }
        (ColVec::Str(a), ColVec::Const(Value::Str(c), _)) => {
            return Ok(ColVec::Bool(
                a.iter().map(|x| apply(x.as_str().cmp(c.as_str()), op)).collect(),
            ))
        }
        (ColVec::Int(a), ColVec::Int(b)) => {
            return Ok(ColVec::Bool(
                a.iter().zip(b).map(|(&x, &y)| apply(x.cmp(&y), op)).collect(),
            ))
        }
        (ColVec::Date(a), ColVec::Date(b)) => {
            return Ok(ColVec::Bool(
                a.iter().zip(b).map(|(&x, &y)| apply(x.cmp(&y), op)).collect(),
            ))
        }
        // Dictionary column against a constant string: the dictionary is
        // sorted, so the whole comparison collapses into code space — one
        // binary search, then an integer compare per row.
        (ColVec::Dict { codes, dict }, ColVec::Const(Value::Str(c), _)) => {
            let out: Vec<bool> = match dict.binary_search(c) {
                Ok(p) => {
                    let p = p as u32;
                    codes.iter().map(|&x| apply(x.cmp(&p), op)).collect()
                }
                // The constant is absent: equality is constant-false,
                // inequality constant-true, and for range ops `p` is the
                // insertion point, so `x < p` ⇔ `dict[x] < c` (no code
                // equals `c`, which folds `<`/`<=` and `>`/`>=` together).
                Err(p) => {
                    let p = p as u32;
                    match op {
                        BinOp::Eq => vec![false; codes.len()],
                        BinOp::NotEq => vec![true; codes.len()],
                        BinOp::Lt | BinOp::LtEq => codes.iter().map(|&x| x < p).collect(),
                        BinOp::Gt | BinOp::GtEq => codes.iter().map(|&x| x >= p).collect(),
                        _ => unreachable!("cmp_kernel only sees comparison ops"),
                    }
                }
            };
            return Ok(ColVec::Bool(out));
        }
        (
            ColVec::Dict {
                codes: a,
                dict: da,
            },
            ColVec::Dict {
                codes: b,
                dict: db,
            },
        ) => {
            // Same dictionary: pure code compare; different dictionaries:
            // compare the strings by reference, still allocation-free.
            let out: Vec<bool> = if Arc::ptr_eq(da, db) {
                a.iter().zip(b).map(|(&x, &y)| apply(x.cmp(&y), op)).collect()
            } else {
                a.iter()
                    .zip(b)
                    .map(|(&x, &y)| {
                        apply(da[x as usize].as_str().cmp(db[y as usize].as_str()), op)
                    })
                    .collect()
            };
            return Ok(ColVec::Bool(out));
        }
        (ColVec::Dict { codes, dict }, ColVec::Str(b)) => {
            return Ok(ColVec::Bool(
                codes
                    .iter()
                    .zip(b)
                    .map(|(&x, y)| apply(dict[x as usize].as_str().cmp(y.as_str()), op))
                    .collect(),
            ))
        }
        (ColVec::Str(a), ColVec::Dict { codes, dict }) => {
            return Ok(ColVec::Bool(
                a.iter()
                    .zip(codes)
                    .map(|(x, &y)| apply(x.as_str().cmp(dict[y as usize].as_str()), op))
                    .collect(),
            ))
        }
        _ => {}
    }
    let mut out = Vec::with_capacity(n);
    let mut nullable = false;
    for i in 0..n {
        match value::compare(&l.get(i), &r.get(i))? {
            Some(o) => out.push(Value::Bool(apply(o, op))),
            None => {
                nullable = true;
                out.push(Value::Null);
            }
        }
    }
    if nullable {
        Ok(ColVec::Val(out))
    } else {
        Ok(ColVec::Bool(
            out.iter().map(|v| v.as_bool().unwrap()).collect(),
        ))
    }
}

/// Kleene AND/OR over boolean vectors.
fn bool_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    if let (ColVec::Bool(a), ColVec::Bool(b)) = (l, r) {
        let out: Vec<bool> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| if op == BinOp::And { x && y } else { x || y })
            .collect();
        return Ok(ColVec::Bool(out));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = l.truth(i)?;
        let b = r.truth(i)?;
        let v = if op == BinOp::And {
            match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        } else {
            match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        };
        out.push(match v {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        });
    }
    Ok(ColVec::Val(out))
}

fn not_kernel(v: &ColVec, n: usize) -> EngineResult<ColVec> {
    if let ColVec::Bool(b) = v {
        return Ok(ColVec::Bool(b.iter().map(|x| !x).collect()));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(match v.truth(i)? {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        });
    }
    Ok(ColVec::Val(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ROWS: usize = 3;

    /// Integers from small to the edges of `i64`.
    fn int(pick: u64) -> i64 {
        match pick % 4 {
            0 | 1 => (pick >> 8) as i64 % 1_000,
            2 => [i64::MIN, i64::MAX, i64::MIN + 1, -1][(pick >> 8) as usize % 4],
            _ => pick as i64,
        }
    }

    /// Raw decimals from small to the edges of `i128`, and near the edge
    /// a rescale by up to 10^8 crosses.
    fn raw(pick: u64) -> i128 {
        let small = (pick >> 8) as i128 % 1_000;
        match pick % 6 {
            0 | 1 => small,
            2 => int(pick >> 2) as i128,
            3 => [i128::MIN, i128::MAX, i128::MIN + 1, i128::MAX - 1][(pick >> 8) as usize % 4],
            4 => i128::MAX / 10i128.pow((pick >> 8) as u32 % 9) - small,
            _ => -(i128::MAX / 10i128.pow((pick >> 8) as u32 % 9)) + small,
        }
    }

    /// An integer or decimal column or constant, or a NULL constant.
    fn operand(kind: u8, scale: u8, picks: [u64; ROWS]) -> ColVec {
        match kind {
            0 => ColVec::Int(picks.map(int).to_vec()),
            1 => ColVec::Decimal {
                raw: picks.map(raw).to_vec(),
                scale,
            },
            2 => ColVec::Const(Value::Int(int(picks[0])), ROWS),
            3 => ColVec::Const(
                Value::Decimal {
                    raw: raw(picks[0]),
                    scale,
                },
                ROWS,
            ),
            _ => ColVec::Const(Value::Null, ROWS),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The kernel is the scalar operations of guarded mode, row by
        /// row: the same value bits on every row, or the error the first
        /// failing row raises, text included.
        #[test]
        fn numeric_kernel_is_the_scalar_operations(
            op in 0u8..3,
            lkind in 0u8..5,
            rkind in 0u8..5,
            lscale in 0u8..9,
            rscale in 0u8..9,
            l0 in any::<u64>(),
            l1 in any::<u64>(),
            l2 in any::<u64>(),
            r0 in any::<u64>(),
            r1 in any::<u64>(),
            r2 in any::<u64>(),
        ) {
            let op = [BinOp::Plus, BinOp::Minus, BinOp::Mul][op as usize];
            let l = operand(lkind, lscale, [l0, l1, l2]);
            let r = operand(rkind, rscale, [r0, r1, r2]);
            let scalar = |a: &Value, b: &Value| match op {
                BinOp::Plus => value::add(a, b, MODE),
                BinOp::Minus => value::sub(a, b, MODE),
                _ => value::mul(a, b, MODE),
            };
            let expected: EngineResult<Vec<Value>> =
                (0..ROWS).map(|i| scalar(&l.get(i), &r.get(i))).collect();
            let got = arith_kernel(op, &l, &r, ROWS)
                .map(|col| (0..ROWS).map(|i| col.get(i)).collect::<Vec<_>>());
            // `Debug` of these values shows every bit that matters:
            // variant, raw and scale.
            prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{:?} {:?} {:?}", l, op, r);
        }
    }

    #[test]
    fn typed_operands_stay_typed_and_the_rest_goes_elementwise() {
        let ints = ColVec::Int(vec![1, 2]);
        let disc = ColVec::Decimal {
            raw: vec![5, 10],
            scale: 2,
        };
        let one = ColVec::Const(Value::Int(1), 2);
        // `1 - l_discount`: a constant against a decimal column.
        match arith_kernel(BinOp::Minus, &one, &disc, 2).unwrap() {
            ColVec::Decimal { raw, scale } => assert_eq!((raw, scale), (vec![95, 90], 2)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            arith_kernel(BinOp::Mul, &ints, &one, 2).unwrap(),
            ColVec::Int(v) if v == [1, 2]
        ));
        let null = ColVec::Const(Value::Null, 2);
        let floats = ColVec::Float(vec![0.5, 1.5]);
        for (l, r) in [(&ints, &null), (&disc, &floats)] {
            assert!(matches!(arith_kernel(BinOp::Plus, l, r, 2).unwrap(), ColVec::Val(_)));
        }
    }
}
