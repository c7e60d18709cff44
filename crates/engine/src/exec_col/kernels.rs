//! Vectorized expression evaluation: every node of a scalar expression
//! consumes whole columns and materializes its result as a new column.

use super::{Batch, ColExec, ColVec, MODE};
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, Env, EvalCtx, Prepared, Scope};
use crate::ir::Expr;
use crate::storage::{self, Keys};
use crate::value::{self, Fault, LikePattern, Value};
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
            Expr::Outer(c) => match eval::resolve_outer(c, &batch.schema, outer)? {
                eval::OuterRef::Local(slot) => return Ok(Col::Batch(&batch.cols[slot])),
                eval::OuterRef::Value(v) => Ok(ColVec::Const(v, n)),
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
        _ => match (op, Operand::of(l), Operand::of(r)) {
            (BinOp::Plus | BinOp::Minus | BinOp::Mul, Some(a), Some(b)) => numeric(op, a, b, n),
            _ => elementwise(op, l, r, n),
        },
    }
}

/// The rows of one [`Operand`], as raw `i128`s.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Ints(&'a [i64]),
    Decs(&'a [i128]),
    /// A constant, the same on every row.
    Const(i128),
}

/// An integer or decimal operand: its lane, its scale and whether it is
/// an integer.
#[derive(Clone, Copy)]
struct Operand<'a> {
    lane: Lane<'a>,
    scale: u8,
    int: bool,
}

impl Operand<'_> {
    fn of(col: &ColVec) -> Option<Operand<'_>> {
        let (lane, scale, int) = match col {
            ColVec::Int(v) => (Lane::Ints(v), 0, true),
            ColVec::Decimal { raw, scale } => (Lane::Decs(raw), *scale, false),
            ColVec::Const(Value::Int(i), _) => (Lane::Const(*i as i128), 0, true),
            ColVec::Const(Value::Decimal { raw, scale }, _) => (Lane::Const(*raw), *scale, false),
            _ => return None,
        };
        Some(Operand { lane, scale, int })
    }
}

/// `l op r` over integer and decimal operands: [`value::arith`] in guarded
/// mode, each loop calling the core's per-element function for its case,
/// with scales read and a constant rescaled once, not per row.
fn numeric<'a>(op: BinOp, l: Operand<'a>, r: Operand<'a>, n: usize) -> EngineResult<ColVec> {
    if l.int && r.int {
        // Integer lanes hold `i64`s, so `as` is exact.
        let out = map2(l.lane, r.lane, n, |a, b| value::int_arith(op, a as i64, b as i64))?;
        return Ok(ColVec::Int(out));
    }
    if op == BinOp::Mul {
        let (scale, shift) = value::product_scale(l.scale, r.scale);
        let raw = map2(l.lane, r.lane, n, |a, b| value::fixed_product(a, b, shift))?;
        return Ok(ColVec::Decimal { raw, scale });
    }
    let scale = l.scale.max(r.scale);
    // Each side's lane and the factor that takes it to `scale`. If a
    // constant's rescale overflows, so does every row's, with the same
    // fault whichever side a row rescales first.
    let side = |x: Operand<'a>| {
        let f = value::scale_factor(x.scale, scale);
        match x.lane {
            Lane::Const(c) if n > 0 => Ok::<_, Fault>((Lane::Const(value::upscale(c, f)?), 1)),
            lane => Ok((lane, f)),
        }
    };
    let ((llane, lf), (rlane, rf)) = (side(l)?, side(r)?);
    let raw = map2(llane, rlane, n, |a, b| {
        value::fixed_sum(op, value::upscale(a, lf)?, value::upscale(b, rf)?)
    })?;
    Ok(ColVec::Decimal { raw, scale })
}

/// `f` over the rows of two lanes, stopping at the first fault. Each
/// pairing of lane kinds gets its own loop, with no per-row dispatch.
fn map2<T>(
    l: Lane<'_>,
    r: Lane<'_>,
    n: usize,
    f: impl Fn(i128, i128) -> Result<T, Fault>,
) -> Result<Vec<T>, Fault> {
    fn run<T>(
        n: usize,
        a: impl Fn(usize) -> i128,
        b: impl Fn(usize) -> i128,
        f: &impl Fn(i128, i128) -> Result<T, Fault>,
    ) -> Result<Vec<T>, Fault> {
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
            BinOp::Div => value::div(&a, &b)?,
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
        // sorted, so the whole comparison is a range of codes — one binary
        // search, then an integer compare per row.
        (ColVec::Dict { codes, dict }, ColVec::Const(c @ Value::Str(_), _)) => {
            let range = storage::key_range(op, c, Keys::Codes(dict)).expect("a string comparison");
            return Ok(ColVec::Bool(codes.iter().map(|&x| range.holds(x.into())).collect()));
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
    use crate::eval::NoSubqueries;
    use crate::ir::Ty;
    use crate::plan::{ColMeta, Schema};
    use crate::value::{ArithMode, Num};
    use proptest::prelude::*;
    use sqalpel_sql::ast::{ColumnRef, IntervalUnit, Literal};

    const ROWS: usize = 3;

    /// Integers from small to the edges of `i64` and `i32`, and `2^32`,
    /// which wraps to 0 in `i32`.
    fn int(pick: u64) -> i64 {
        let edges = [i64::MIN, i64::MAX, i64::MIN + 1, -1, 1 << 32];
        match pick % 5 {
            0 | 1 => (pick >> 8) as i64 % 1_000,
            2 => edges[(pick >> 8) as usize % edges.len()],
            3 => [i32::MIN as i64, i32::MAX as i64, 3_037_000_500][(pick >> 8) as usize % 3],
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

    /// Dates around the TPC-H range, and the ends of `i32` days.
    fn date(pick: u64) -> i32 {
        match pick % 4 {
            0 => [i32::MIN, i32::MAX, 0][(pick >> 8) as usize % 3],
            _ => 8_000 + (pick >> 8) as i32 % 3_000,
        }
    }

    /// Splitmix-style expansion of a proptest-drawn seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Any value an operand of `+ - * /` may hold, NULL, dates,
        /// intervals and a string included; decimals at scales 0–8.
        fn value(&mut self) -> Value {
            let pick = self.next();
            match self.below(9) {
                0 => Value::Null,
                1 | 2 => Value::Int(int(pick)),
                3 | 4 => Value::decimal(raw(pick), self.below(9) as u8),
                5 => Value::Float([0.0, -0.0, 0.5, -2.25, 1e300, 3.0][pick as usize % 6]),
                6 => Value::Date(date(pick)),
                7 => Value::Interval {
                    months: (pick % 49) as i32 - 24,
                    days: [(pick >> 8) as i32 % 1_000, i32::MAX, i32::MIN + 1][pick as usize % 3],
                },
                _ => Value::Str("x".into()),
            }
        }
    }

    /// The wall's batch: typed integer, decimal, float and date columns —
    /// each as its vector, or boxed with NULLs in it — and an untyped
    /// column of anything [`Gen::value`] draws.
    fn batch(g: &mut Gen) -> Batch {
        let (dscale, escale) = (g.below(9) as u8, g.below(9) as u8);
        let mut cols = Vec::new();
        let mut schema = Schema::new();
        let mut add = |name: &str, ty: Ty, typed: ColVec, g: &mut Gen| {
            let boxed = (0..ROWS)
                .map(|i| if g.below(3) == 0 { Value::Null } else { typed.get(i) })
                .collect();
            cols.push(if g.below(3) == 0 { ColVec::Val(boxed) } else { typed });
            schema.push(ColMeta {
                binding: "t".into(),
                name: name.into(),
                ty,
            });
        };
        let ints = ColVec::Int((0..ROWS).map(|_| int(g.next())).collect());
        add("i", Ty::Int, ints, g);
        let decs = |g: &mut Gen, scale| ColVec::Decimal {
            raw: (0..ROWS).map(|_| raw(g.next())).collect(),
            scale,
        };
        let d = decs(g, dscale);
        add("d", Ty::Decimal, d, g);
        let e = decs(g, escale);
        add("e", Ty::Decimal, e, g);
        let floats = (0..ROWS).map(|_| [0.0, -0.0, 0.5, 1e300, 3.0][g.below(5) as usize]);
        add("f", Ty::Float, ColVec::Float(floats.collect()), g);
        add("t", Ty::Date, ColVec::Date((0..ROWS).map(|_| date(g.next())).collect()), g);
        cols.push(ColVec::Val((0..ROWS).map(|_| g.value()).collect()));
        schema.push(ColMeta {
            binding: "t".into(),
            name: "u".into(),
            ty: Ty::Unknown,
        });
        Batch {
            schema,
            len: ROWS,
            cols,
        }
    }

    /// The enclosing row's names: constants of any value, which prepared
    /// expressions and the column engine both take as constants.
    const OUTER: [&str; 3] = ["c0", "c1", "c2"];

    /// A `+ - * /` tree with a unary minus now and then, over the batch's
    /// columns, outer constants and literals (`i64` and `i32` edges, `2^32`,
    /// decimals, NULL, intervals).
    fn tree(g: &mut Gen, depth: usize) -> Expr {
        if depth == 0 || g.below(4) == 0 {
            let slots = [Ty::Int, Ty::Decimal, Ty::Decimal, Ty::Float, Ty::Date, Ty::Unknown];
            return match g.below(10) {
                0..=4 => {
                    let slot = g.below(slots.len() as u64) as usize;
                    Expr::Col {
                        slot,
                        ty: slots[slot],
                    }
                }
                5 | 6 => Expr::Outer(ColumnRef::bare(OUTER[g.below(3) as usize])),
                7 => {
                    let ints = [0, 1, -1, i64::MAX, i64::MIN, 2_147_483_647, 1 << 32];
                    Expr::Literal(Literal::Integer(ints[g.below(ints.len() as u64) as usize]))
                }
                8 => Expr::Literal(match g.below(3) {
                    0 => Literal::Null,
                    1 => [
                        Literal::Decimal { raw: 5, scale: 2 },
                        Literal::Decimal { raw: 15, scale: 1 },
                        Literal::Decimal { raw: 0, scale: 0 },
                        Literal::Decimal { raw: 1_234_567, scale: 7 },
                        Literal::Float(0.123_456_7),
                    ][g.below(5) as usize]
                        .clone(),
                    _ => Literal::Interval {
                        value: g.below(100) as i64,
                        unit: [IntervalUnit::Day, IntervalUnit::Month][g.below(2) as usize],
                    },
                }),
                _ => Expr::Literal(Literal::Integer(g.below(7) as i64 - 3)),
            };
        }
        if g.below(8) == 0 {
            return Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(tree(g, depth - 1)),
            };
        }
        Expr::Binary {
            left: Box::new(tree(g, depth - 1)),
            op: [BinOp::Plus, BinOp::Minus, BinOp::Mul, BinOp::Div][g.below(4) as usize],
            right: Box::new(tree(g, depth - 1)),
        }
    }

    /// The boxed operation `a op b`. A date plus or minus an integer is
    /// also held to exact arithmetic: a date where the sum fits `i32`
    /// days, an error where it does not.
    fn boxed_op(op: BinOp, a: &Value, b: &Value, mode: ArithMode) -> EngineResult<Value> {
        let got = match op {
            BinOp::Plus => value::add(a, b, mode),
            BinOp::Minus => value::sub(a, b, mode),
            BinOp::Mul => value::mul(a, b, mode),
            _ => value::div(a, b),
        };
        if let (Value::Date(d), Value::Int(n), BinOp::Plus | BinOp::Minus) = (a, b, op) {
            let exact = match op {
                BinOp::Plus => *d as i128 + *n as i128,
                _ => *d as i128 - *n as i128,
            };
            let want = i32::try_from(exact).ok().map(Value::Date);
            assert_eq!(format!("{:?}", got.as_ref().ok()), format!("{want:?}"), "{a:?} {op:?} {b:?}");
        }
        got
    }

    /// Entry point one: the tree walked row by row on boxed values.
    fn boxed(e: &Expr, row: &[Value], outer: &Env<'_>, mode: ArithMode) -> EngineResult<Value> {
        match e {
            Expr::Col { slot, .. } => Ok(row[*slot].clone()),
            Expr::Outer(c) => outer.resolve(c),
            Expr::Literal(l) => eval::literal(l),
            Expr::Unary { expr, .. } => value::negate(&boxed(expr, row, outer, mode)?),
            Expr::Binary { left, op, right } => {
                let l = boxed(left, row, outer, mode)?;
                let r = boxed(right, row, outer, mode)?;
                boxed_op(*op, &l, &r, mode)
            }
            _ => unreachable!("the wall's trees hold only arithmetic"),
        }
    }

    /// Entry point three: the tree column at a time, every `+ - * /`
    /// through [`arith_kernel`] (a unary minus row by row, as the engine's
    /// row-wise fallback takes it). At each operator the kernel's column
    /// is the boxed operation over the rows of its operand columns: the
    /// same value bits on every row, or the error the first failing row
    /// raises, text included. `None` once a node has failed.
    fn kernel(e: &Expr, batch: &Batch, outer: &Env<'_>) -> Option<ColVec> {
        let n = batch.len;
        let rows = |col: &ColVec| (0..n).map(|i| col.get(i)).collect::<Vec<_>>();
        Some(match e {
            Expr::Col { slot, .. } => batch.cols[*slot].clone(),
            Expr::Outer(c) => ColVec::Const(outer.resolve(c).unwrap(), n),
            Expr::Literal(l) => ColVec::Const(eval::literal(l).unwrap(), n),
            Expr::Unary { expr, .. } => {
                let v = kernel(expr, batch, outer)?;
                ColVec::Val(rows(&v).iter().map(value::negate).collect::<EngineResult<_>>().ok()?)
            }
            Expr::Binary { left, op, right } => {
                let (l, r) = (kernel(left, batch, outer)?, kernel(right, batch, outer)?);
                let want: EngineResult<Vec<Value>> = (0..n)
                    .map(|i| boxed_op(*op, &l.get(i), &r.get(i), ArithMode::GuardedDecimal))
                    .collect();
                let got = arith_kernel(*op, &l, &r, n);
                assert_eq!(
                    format!("{:?}", got.as_ref().map(rows)),
                    format!("{want:?}"),
                    "{l:?} {op:?} {r:?}"
                );
                got.ok()?
            }
            _ => unreachable!("the wall's trees hold only arithmetic"),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        /// One arithmetic, three entry points: over random `+ - * /`
        /// trees, the boxed operations walked row by row, the prepared
        /// expression's evaluation (its typed walk, where it takes the
        /// expression, and the boxed arm, where an untyped column gives
        /// a row back) with `eval_num`'s number, and the column engine's
        /// kernel agree on every value bit and every error text — the
        /// first two in both modes, the kernel in the guarded mode it
        /// runs in. `Debug` of a value shows every bit that matters:
        /// variant, raw, scale and float bits.
        #[test]
        fn three_entry_points_are_one_arithmetic(seed in any::<u64>()) {
            let mut g = Gen(seed | 1);
            let batch = batch(&mut g);
            let outer_schema: Schema = OUTER
                .iter()
                .map(|name| ColMeta { binding: "o".into(), name: name.to_string(), ty: Ty::Unknown })
                .collect();
            let outer_row: Vec<Value> = OUTER.iter().map(|_| g.value()).collect();
            let outer = Env { schema: &outer_schema, row: &outer_row, outer: None };
            let depth = 1 + g.below(4) as usize;
            let e = tree(&mut g, depth);
            let rows: Vec<Vec<Value>> = (0..ROWS)
                .map(|i| batch.cols.iter().map(|c| c.get(i)).collect())
                .collect();
            for mode in [ArithMode::Float, ArithMode::GuardedDecimal] {
                let scope = Scope { schema: &batch.schema, outer: Some(&outer) };
                let prepared = Prepared::new(&e, scope, mode, &[]);
                let ctx = EvalCtx::new(&NoSubqueries, mode);
                for row in &rows {
                    let want = format!("{:?}", boxed(&e, row, &outer, mode));
                    prop_assert_eq!(
                        format!("{:?}", prepared.eval(row, &ctx)), want.clone(),
                        "{} over {:?} in {:?}", e, row, mode
                    );
                    if let Some(num) = prepared.eval_num(row) {
                        let num = num.map(|n| n.map_or(Value::Null, Num::value)).map_err(EngineError::from);
                        prop_assert_eq!(format!("{num:?}"), want, "eval_num of {}", e);
                    }
                }
            }
            // Every row computes exactly when the kernel does, to the same
            // values.
            let walked: EngineResult<Vec<Value>> = rows
                .iter()
                .map(|row| boxed(&e, row, &outer, ArithMode::GuardedDecimal))
                .collect();
            let columnar = kernel(&e, &batch, &outer)
                .map(|c| (0..ROWS).map(|i| c.get(i)).collect::<Vec<_>>());
            prop_assert_eq!(
                format!("{:?}", columnar),
                format!("{:?}", walked.ok()),
                "{} over {:?}", e, rows
            );
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
