//! Vectorized expression evaluation: every node of a scalar expression
//! consumes whole columns and materializes its result as a new column.

use super::{Batch, ColExec, ColVec, MODE};
use crate::error::{EngineError, EngineResult};
use crate::eval::{self, Env, EvalCtx, Prepared, Scope};
use crate::ir::Expr;
use crate::value::{self, LikePattern, Value};
use sqalpel_sql::ast::{BinOp, UnaryOp};
use std::sync::Arc;

impl ColExec<'_> {
    /// Evaluate an expression over a whole batch, materializing the result.
    pub(super) fn eval_vec(
        &self,
        e: &Expr,
        batch: &Batch,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<ColVec> {
        let n = batch.len;
        match e {
            Expr::Col { slot, .. } => Ok(batch.cols[*slot].clone()), // materializing copy
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
                    let l = self.eval_vec(left, batch, outer)?;
                    let r = self.eval_vec(right, batch, outer)?;
                    self.charge(n as u64)?;
                    bool_kernel(*op, &l, &r, n)
                }
                BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div | BinOp::Mod
                | BinOp::Concat => {
                    let l = self.eval_vec(left, batch, outer)?;
                    let r = self.eval_vec(right, batch, outer)?;
                    self.charge(n as u64)?;
                    arith_kernel(*op, &l, &r, n)
                }
                cmp => {
                    let l = self.eval_vec(left, batch, outer)?;
                    let r = self.eval_vec(right, batch, outer)?;
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
                let v = self.eval_vec(expr, batch, outer)?;
                let lo = self.eval_vec(low, batch, outer)?;
                let hi = self.eval_vec(high, batch, outer)?;
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
                let v = self.eval_vec(expr, batch, outer)?;
                let p = self.eval_vec(pattern, batch, outer)?;
                self.charge(n as u64)?;
                // Fast paths against a constant pattern, compiled once.
                if let ColVec::Const(Value::Str(pat), _) = &p {
                    let pat = LikePattern::new(pat);
                    match &v {
                        ColVec::Str(texts) => {
                            return Ok(ColVec::Bool(
                                texts.iter().map(|t| pat.matches(t) != *negated).collect(),
                            ));
                        }
                        // Match the pattern once per dictionary entry,
                        // then map codes through the result table.
                        ColVec::Dict { codes, dict } => {
                            let table: Vec<bool> =
                                dict.iter().map(|t| pat.matches(t) != *negated).collect();
                            return Ok(ColVec::Bool(
                                codes.iter().map(|&c| table[c as usize]).collect(),
                            ));
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
                let v = self.eval_vec(expr, batch, outer)?;
                self.charge(n as u64)?;
                not_kernel(&v, n)
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                let v = self.eval_vec(expr, batch, outer)?;
                let items: Vec<ColVec> = list
                    .iter()
                    .map(|it| self.eval_vec(it, batch, outer))
                    .collect::<EngineResult<_>>()?;
                self.charge(n as u64)?;
                // Dict fast path: constant string lists (`l_shipmode in
                // ('MAIL', 'SHIP')`) become a per-code membership table.
                if let ColVec::Dict { codes, dict } = &v {
                    if items
                        .iter()
                        .all(|it| matches!(it, ColVec::Const(Value::Str(_), _)))
                    {
                        let mut member = vec![false; dict.len()];
                        for it in &items {
                            if let ColVec::Const(Value::Str(s), _) = it {
                                if let Ok(p) = dict.binary_search(s) {
                                    member[p] = true;
                                }
                            }
                        }
                        return Ok(ColVec::Bool(
                            codes.iter().map(|&c| member[c as usize] != *negated).collect(),
                        ));
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
        }
    }
}

/// Whether every node of `e` stays on `eval_vec`'s vectorized kernels,
/// which read only the slots the expression names. Anything else reaches
/// the row-wise fallback, which sees the whole row — so the staged filter
/// may leave null placeholders in unread slots only for these.
pub(super) fn vectorizable(e: &Expr) -> bool {
    match e {
        Expr::Col { .. } | Expr::Literal(_) | Expr::Bool(_) => true,
        Expr::Binary { left, right, .. } => vectorizable(left) && vectorizable(right),
        Expr::Between {
            expr, low, high, ..
        } => vectorizable(expr) && vectorizable(low) && vectorizable(high),
        Expr::Like { expr, pattern, .. } => vectorizable(expr) && vectorizable(pattern),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => vectorizable(expr),
        Expr::InList { expr, list, .. } => {
            vectorizable(expr) && list.iter().all(vectorizable)
        }
        _ => false,
    }
}

/// Vectorized arithmetic with typed fast paths; the guarded-decimal paths
/// are the expensive, overflow-checked ones.
fn arith_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    match (op, l, r) {
        // Constant against constant (`date '1998-12-01' - interval '90'
        // day`): compute the one value once and keep it a constant, so
        // the comparison above it takes its typed fast path. (No rows,
        // no evaluation: an erroring constant stays silent on empty
        // input.)
        (_, ColVec::Const(..), ColVec::Const(..)) if n > 0 => {
            Ok(ColVec::Const(elementwise(op, l, r, 1)?.get(0), n))
        }
        // decimal ⊙ decimal
        (
            BinOp::Mul,
            ColVec::Decimal { raw: lr, scale: ls },
            ColVec::Decimal { raw: rr, scale: rs },
        ) => {
            let mut out = Vec::with_capacity(n);
            let mut scale = ls + rs;
            let mut shift = 1i128;
            while scale > 6 {
                shift *= 10;
                scale -= 1;
            }
            for i in 0..n {
                let p = lr[i]
                    .checked_mul(rr[i])
                    .ok_or_else(|| EngineError::Overflow("decimal *".into()))?;
                out.push(p / shift);
            }
            Ok(ColVec::Decimal { raw: out, scale })
        }
        (
            BinOp::Plus | BinOp::Minus,
            ColVec::Decimal { raw: lr, scale: ls },
            ColVec::Decimal { raw: rr, scale: rs },
        ) => {
            let scale = (*ls).max(*rs);
            let lf = 10i128.pow((scale - ls) as u32);
            let rf = 10i128.pow((scale - rs) as u32);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let a = lr[i]
                    .checked_mul(lf)
                    .ok_or_else(|| EngineError::Overflow("decimal rescale".into()))?;
                let b = rr[i]
                    .checked_mul(rf)
                    .ok_or_else(|| EngineError::Overflow("decimal rescale".into()))?;
                let v = if op == BinOp::Plus {
                    a.checked_add(b)
                } else {
                    a.checked_sub(b)
                };
                out.push(v.ok_or_else(|| EngineError::Overflow("decimal +/-".into()))?);
            }
            Ok(ColVec::Decimal { raw: out, scale })
        }
        // int ⊙ int
        (BinOp::Plus, ColVec::Int(a), ColVec::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(
                    a[i].checked_add(b[i])
                        .ok_or_else(|| EngineError::Overflow("integer +".into()))?,
                );
            }
            Ok(ColVec::Int(out))
        }
        (BinOp::Minus, ColVec::Int(a), ColVec::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(
                    a[i].checked_sub(b[i])
                        .ok_or_else(|| EngineError::Overflow("integer -".into()))?,
                );
            }
            Ok(ColVec::Int(out))
        }
        (BinOp::Mul, ColVec::Int(a), ColVec::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(
                    a[i].checked_mul(b[i])
                        .ok_or_else(|| EngineError::Overflow("integer *".into()))?,
                );
            }
            Ok(ColVec::Int(out))
        }
        // Constant broadcast: expand and retry via the generic path below
        // would lose the typed loop; handle decimal-const specially.
        (_, ColVec::Const(cv, _), _) if cv.is_numeric() || matches!(cv, Value::Null) => {
            elementwise(op, l, r, n)
        }
        (_, _, ColVec::Const(cv, _)) if cv.is_numeric() || matches!(cv, Value::Null) => {
            elementwise(op, l, r, n)
        }
        _ => elementwise(op, l, r, n),
    }
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
