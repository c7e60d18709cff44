//! Property tests for prepared expression evaluation.
//!
//! [`Prepared`] does at operator-open time what the executors used to do
//! per row — resolve names, convert literals, compile `LIKE` patterns,
//! evaluate column-free subtrees — and must not be observable: same
//! value, same bits, same error, and an error only where evaluation
//! would have reached it. The oracles here are the implementations it
//! replaced, kept as test code: the per-row tree walk of `ir::Expr`
//! ([`walk`]) and the two-pointer `LIKE` matcher over `Vec<char>`
//! ([`like_oracle`]).
//!
//! Expressions are generated over rows with NULLs, in both arithmetic
//! modes, with constant subtrees on purpose: erroring constants (`1/0`,
//! an invalid date) behind `AND false`, `OR true` and unmatched `CASE`
//! arms, outer references that resolve, do not resolve, or are
//! ambiguous, aggregates inside and outside an aggregation.
//!
//! Comparison mirroring — what the filter kernels, the estimator and the
//! fingerprint do to `constant op column` — is held to the comparison
//! itself over random value pairs.

use proptest::prelude::*;
use sqalpel_engine::eval::{agg_key, literal, Env, EvalCtx, Prepared, Rows, Scope, SubqueryRunner};
use sqalpel_engine::ir::expr::SubqueryPlan;
use sqalpel_engine::ir::{Expr, Ty};
use sqalpel_engine::plan::{ColMeta, Schema};
use sqalpel_engine::value::{self, ArithMode, LikePattern, Num, Value};
use sqalpel_engine::{EngineError, EngineResult};
use sqalpel_sql::ast::{BinOp, ColumnRef, IntervalUnit, Literal, UnaryOp};
use std::rc::Rc;

// ------------------------------------------------------------------ oracles

/// The two-pointer matcher `value::like_match` used to be.
fn like_oracle(text: &str, pattern: &str) -> bool {
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut ti, mut pi) = (0usize, 0usize);
    let (mut star, mut mark) = (None::<usize>, 0usize);
    while ti < t.len() {
        // The '%' wildcard must be tested before the literal match: a
        // literal '%' in the *text* would otherwise shadow it.
        if pi < p.len() && p[pi] == '%' {
            star = Some(pi);
            mark = ti;
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            ti += 1;
            pi += 1;
        } else if let Some(s) = star {
            // Backtrack: let the last % absorb one more character.
            pi = s + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// What the tree walk needs besides the row.
struct WalkCtx<'a> {
    mode: ArithMode,
    agg_keys: &'a [String],
    agg_values: &'a [Value],
}

/// The per-row tree walk `eval::eval` used to be: every literal
/// converted, every name resolved, every constant recomputed, per call.
fn walk(e: &Expr, env: &Env<'_>, ctx: &WalkCtx<'_>) -> EngineResult<Value> {
    match e {
        Expr::Col { slot, .. } => Ok(env.row[*slot].clone()),
        Expr::Outer(c) => env.resolve(c),
        Expr::OutputCol(_) => Err(EngineError::Unsupported(
            "output-column reference outside ORDER BY".into(),
        )),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Literal(l) => literal(l),
        Expr::Wildcard => Err(EngineError::Type("bare * outside count(*)".into())),
        Expr::Unary { op, expr } => {
            let v = walk(expr, env, ctx)?;
            match op {
                UnaryOp::Neg => value::negate(&v),
                UnaryOp::Not => Ok(match v {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => {
                        return Err(EngineError::Type(format!(
                            "NOT requires boolean, got {}",
                            other.type_name()
                        )))
                    }
                }),
            }
        }
        Expr::Binary { left, op, right } => walk_binary(left, *op, right, env, ctx),
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = walk(expr, env, ctx)?;
            let lo = walk(low, env, ctx)?;
            let hi = walk(high, env, ctx)?;
            let ge = compare_tv(&v, &lo, BinOp::GtEq)?;
            let le = compare_tv(&v, &hi, BinOp::LtEq)?;
            Ok(match kleene_and(ge, le) {
                Some(x) => Value::Bool(x != *negated),
                None => Value::Null,
            })
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = walk(expr, env, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = walk(item, env, ctx)?;
                if value::group_eq(&v, &iv) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::Subquery(_) => {
            unreachable!("generated expressions hold no subquery")
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = walk(expr, env, ctx)?;
            let p = walk(pattern, env, ctx)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    Ok(Value::Bool(like_oracle(s, pat) != *negated))
                }
                _ => Err(EngineError::Type(format!(
                    "LIKE requires strings, got {} and {}",
                    v.type_name(),
                    p.type_name()
                ))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = walk(expr, env, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let op_val = operand.as_ref().map(|o| walk(o, env, ctx)).transpose()?;
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(ov) => {
                        let wv = walk(when, env, ctx)?;
                        value::group_eq(ov, &wv)
                    }
                    None => matches!(walk(when, env, ctx)?, Value::Bool(true)),
                };
                if hit {
                    return walk(then, env, ctx);
                }
            }
            match else_branch {
                Some(e) => walk(e, env, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Function {
            name,
            distinct,
            args,
        } => {
            if sqalpel_sql::ast::is_aggregate(name) {
                let key = agg_key(name, *distinct, args.first());
                match ctx.agg_keys.iter().position(|k| *k == key) {
                    Some(i) => Ok(ctx.agg_values[i].clone()),
                    None => Err(EngineError::Type(format!(
                        "aggregate {name} used outside aggregation context"
                    ))),
                }
            } else {
                Err(EngineError::Unsupported(format!("function {name}")))
            }
        }
        Expr::Extract { field, expr } => {
            let v = walk(expr, env, ctx)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Date(d) => {
                    let date = sqalpel_datagen::calendar::from_days(d);
                    Ok(Value::Int(match field {
                        IntervalUnit::Year => date.year as i64,
                        IntervalUnit::Month => date.month as i64,
                        IntervalUnit::Day => date.day as i64,
                    }))
                }
                other => Err(EngineError::Type(format!(
                    "EXTRACT requires a date, got {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Substring {
            expr,
            start,
            length,
        } => {
            let v = walk(expr, env, ctx)?;
            let s = walk(start, env, ctx)?;
            let l = length.as_ref().map(|l| walk(l, env, ctx)).transpose()?;
            match (&v, &s) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(text), Value::Int(start1)) => {
                    let chars: Vec<char> = text.chars().collect();
                    let begin = (*start1 - 1).max(0) as usize;
                    let end = match &l {
                        Some(Value::Int(n)) => (begin + (*n).max(0) as usize).min(chars.len()),
                        Some(other) => {
                            return Err(EngineError::Type(format!(
                                "SUBSTRING length must be integer, got {}",
                                other.type_name()
                            )))
                        }
                        None => chars.len(),
                    };
                    Ok(Value::Str(
                        chars[begin.min(chars.len())..end].iter().collect(),
                    ))
                }
                _ => Err(EngineError::Type(format!(
                    "SUBSTRING requires (string, integer), got ({}, {})",
                    v.type_name(),
                    s.type_name()
                ))),
            }
        }
    }
}

fn walk_binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    env: &Env<'_>,
    ctx: &WalkCtx<'_>,
) -> EngineResult<Value> {
    if op == BinOp::And {
        let l = truth(walk(left, env, ctx)?)?;
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truth(walk(right, env, ctx)?)?;
        return Ok(tv(kleene_and(l, r)));
    }
    if op == BinOp::Or {
        let l = truth(walk(left, env, ctx)?)?;
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truth(walk(right, env, ctx)?)?;
        return Ok(tv(kleene_or(l, r)));
    }
    let lv = walk(left, env, ctx)?;
    let rv = walk(right, env, ctx)?;
    match op {
        BinOp::Plus => value::add(&lv, &rv, ctx.mode),
        BinOp::Minus => value::sub(&lv, &rv, ctx.mode),
        BinOp::Mul => value::mul(&lv, &rv, ctx.mode),
        BinOp::Div => value::div(&lv, &rv),
        BinOp::Mod => value::rem(&lv, &rv),
        BinOp::Concat => value::concat(&lv, &rv),
        cmp => Ok(tv(compare_tv(&lv, &rv, cmp)?)),
    }
}

fn compare_tv(a: &Value, b: &Value, op: BinOp) -> EngineResult<Option<bool>> {
    let ord = value::compare(a, b)?;
    Ok(ord.map(|o| match op {
        BinOp::Eq => o.is_eq(),
        BinOp::NotEq => o.is_ne(),
        BinOp::Lt => o.is_lt(),
        BinOp::LtEq => o.is_le(),
        BinOp::Gt => o.is_gt(),
        BinOp::GtEq => o.is_ge(),
        _ => unreachable!("non-comparison op"),
    }))
}

fn truth(v: Value) -> EngineResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(b)),
        other => Err(EngineError::Type(format!(
            "expected boolean, got {}",
            other.type_name()
        ))),
    }
}

fn tv(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

// --------------------------------------------------------------- generators

/// Deterministic splitmix-style expansion of a proptest-drawn seed, the
/// idiom `storage_props` uses for structured inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// `i` int, `d` decimal(·,2), `f` float, `s` string, `t` date, `b` bool,
/// and two columns both named `dup` so a bare `dup` is ambiguous.
fn local_schema() -> Schema {
    [
        ("l", "i", Ty::Int),
        ("l", "d", Ty::Decimal),
        ("l", "f", Ty::Float),
        ("l", "s", Ty::Str),
        ("l", "t", Ty::Date),
        ("l", "b", Ty::Bool),
        ("l", "dup", Ty::Int),
        ("m", "dup", Ty::Int),
    ]
    .into_iter()
    .map(|(binding, name, ty)| ColMeta {
        binding: binding.into(),
        name: name.into(),
        ty,
    })
    .collect()
}

fn outer_schema() -> Schema {
    [("o", "ox", Ty::Int), ("o", "os", Ty::Str)]
        .into_iter()
        .map(|(binding, name, ty)| ColMeta {
            binding: binding.into(),
            name: name.into(),
            ty,
        })
        .collect()
}

const TEXTS: &[&str] = &["", "a", "ab", "abc special requests", "100%", "a_b", "日本語", "éa"];
const PATTERNS: &[&str] = &["%", "a%", "%b", "%special%requests%", "_", "a_b", "100%", "%日%", ""];

fn gen_row(g: &mut Gen) -> Vec<Value> {
    let null_or = |g: &mut Gen, v: Value| if g.below(5) == 0 { Value::Null } else { v };
    let i = g.below(7) as i64 - 3;
    let d = g.below(2001) as i128 - 1000;
    let f = (g.below(41) as f64 - 20.0) / 4.0;
    let s = (*g.pick(TEXTS)).to_string();
    let t = 9000 + g.below(1500) as i32;
    let b = g.coin();
    let dup = g.below(3) as i64;
    vec![
        null_or(g, Value::Int(i)),
        null_or(g, Value::decimal(d, 2)),
        null_or(g, Value::Float(f)),
        null_or(g, Value::Str(s)),
        null_or(g, Value::Date(t)),
        null_or(g, Value::Bool(b)),
        Value::Int(dup),
        Value::Int(dup + 1),
    ]
}

/// One value for the comparison properties: NULL, a number in halves
/// from -3 to 3 (an integer, a decimal at scale 0 to 6 or a float, so the
/// types meet in equalities), a date or a string.
fn gen_scalar(g: &mut Gen) -> Value {
    let halves = g.below(13) as i64 - 6;
    match g.below(6) {
        0 => Value::Null,
        1 => Value::Int(halves / 2),
        2 => {
            let scale = g.below(7) as u8;
            Value::decimal(halves as i128 * 10i128.pow(scale as u32) / 2, scale)
        }
        3 => Value::Float(halves as f64 / 2.0),
        4 => Value::Date(9000 + g.below(3) as i32),
        _ => Value::Str((*g.pick(&["", "a", "ab", "b"])).to_string()),
    }
}

const COMPARISONS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

/// What a generated expression is meant to evaluate to.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Num,
    Bool,
    Str,
    Date,
}

const KINDS: [Kind; 4] = [Kind::Num, Kind::Bool, Kind::Str, Kind::Date];

fn col(slot: usize, ty: Ty) -> Expr {
    Expr::Col { slot, ty }
}

fn lit(l: Literal) -> Expr {
    Expr::Literal(l)
}

/// A leaf of `kind`. Constants dominate so column-free subtrees are
/// common; NULL fits every kind.
fn gen_leaf(g: &mut Gen, kind: Kind) -> Expr {
    if g.below(12) == 0 {
        return lit(Literal::Null);
    }
    match kind {
        Kind::Num => match g.below(12) {
            0 => lit(Literal::Integer(0)),
            1..=3 => lit(Literal::Integer(g.below(9) as i64 - 4)),
            4 => lit(Literal::Decimal(*g.pick(&[0.05, 1.5, 0.0, 2.25]))),
            // Not representable at scale 4: becomes a float.
            5 => lit(Literal::Decimal(0.123_456_7)),
            6 => col(0, Ty::Int),
            7 => col(1, Ty::Decimal),
            8 => col(2, Ty::Float),
            // Resolves in the enclosing row / locally / nowhere / twice.
            9 => Expr::Outer(ColumnRef::bare(*g.pick(&["ox", "i", "nope", "dup"]))),
            10 => Expr::Function {
                name: (*g.pick(&["sum", "count", "max", "frobnicate"])).to_string(),
                distinct: false,
                args: vec![col(0, Ty::Int)],
            },
            _ => g.pick(&[Expr::Wildcard, Expr::OutputCol(0)]).clone(),
        },
        Kind::Bool => match g.below(3) {
            0 => col(5, Ty::Bool),
            _ => Expr::Bool(g.coin()),
        },
        Kind::Str => match g.below(4) {
            0 => col(3, Ty::Str),
            1 => Expr::Outer(ColumnRef::bare("os")),
            _ => lit(Literal::String((*g.pick(PATTERNS)).to_string())),
        },
        Kind::Date => match g.below(8) {
            0..=2 => col(4, Ty::Date),
            // Fails to convert: an error that must wait until it is reached.
            3 => lit(Literal::Date("1995-13-45".to_string())),
            _ => lit(Literal::Date(
                (*g.pick(&["1995-03-15", "1998-12-01", "1994-01-01"])).to_string(),
            )),
        },
    }
}

/// An expression meant to be of `kind` — one time in ten of some other
/// kind instead, so type errors turn up at every depth too.
fn gen_expr(g: &mut Gen, kind: Kind, depth: usize) -> Expr {
    let kind = if g.below(10) == 0 { *g.pick(&KINDS) } else { kind };
    if depth == 0 || g.below(4) == 0 {
        return gen_leaf(g, kind);
    }
    let sub = |g: &mut Gen, kind: Kind| Box::new(gen_expr(g, kind, depth - 1));
    let binary = |g: &mut Gen, kind: Kind, ops: &[BinOp]| Expr::Binary {
        left: sub(g, kind),
        op: *g.pick(ops),
        right: sub(g, kind),
    };
    // CASE produces any kind, in both its forms.
    if g.below(6) == 0 {
        let operand = g.coin().then(|| *g.pick(&KINDS));
        return Expr::Case {
            operand: operand.map(|k| sub(g, k)),
            branches: (0..1 + g.below(3))
                .map(|_| (*sub(g, operand.unwrap_or(Kind::Bool)), *sub(g, kind)))
                .collect(),
            else_branch: g.coin().then(|| sub(g, kind)),
        };
    }
    match kind {
        Kind::Num => match g.below(8) {
            0 => Expr::Unary {
                op: UnaryOp::Neg,
                expr: sub(g, Kind::Num),
            },
            1 => Expr::Extract {
                field: *g.pick(&[IntervalUnit::Year, IntervalUnit::Month, IntervalUnit::Day]),
                expr: sub(g, Kind::Date),
            },
            2 => binary(g, Kind::Date, &[BinOp::Minus]),
            _ => binary(
                g,
                Kind::Num,
                &[BinOp::Plus, BinOp::Minus, BinOp::Mul, BinOp::Div, BinOp::Mod],
            ),
        },
        Kind::Bool => match g.below(10) {
            0 => Expr::Unary {
                op: UnaryOp::Not,
                expr: sub(g, Kind::Bool),
            },
            1..=3 => binary(g, Kind::Bool, &[BinOp::And, BinOp::Or]),
            4 | 5 => {
                let of = *g.pick(&KINDS);
                binary(
                    g,
                    of,
                    &[BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq],
                )
            }
            6 => {
                let of = *g.pick(&KINDS);
                Expr::Between {
                    expr: sub(g, of),
                    negated: g.coin(),
                    low: sub(g, of),
                    high: sub(g, of),
                }
            }
            7 => {
                let of = *g.pick(&KINDS);
                Expr::InList {
                    expr: sub(g, of),
                    negated: g.coin(),
                    list: (0..g.below(4)).map(|_| *sub(g, of)).collect(),
                }
            }
            8 => Expr::Like {
                expr: sub(g, Kind::Str),
                negated: g.coin(),
                pattern: sub(g, Kind::Str),
            },
            _ => {
                let of = *g.pick(&KINDS);
                Expr::IsNull {
                    expr: sub(g, of),
                    negated: g.coin(),
                }
            }
        },
        Kind::Str => match g.below(2) {
            0 => binary(g, Kind::Str, &[BinOp::Concat]),
            _ => Expr::Substring {
                expr: sub(g, Kind::Str),
                start: sub(g, Kind::Num),
                length: g.coin().then(|| sub(g, Kind::Num)),
            },
        },
        Kind::Date => Expr::Binary {
            left: sub(g, Kind::Date),
            op: *g.pick(&[BinOp::Plus, BinOp::Minus]),
            right: Box::new(lit(Literal::Interval {
                value: g.below(100) as i64,
                unit: *g.pick(&[IntervalUnit::Day, IntervalUnit::Month, IntervalUnit::Year]),
            })),
        },
    }
}

// ----------------------------------------------------------------- checking

/// No generated expression holds a subquery.
struct NoSubqueries;

impl SubqueryRunner for NoSubqueries {
    fn run_subquery(&self, _: &SubqueryPlan, _: &Env<'_>) -> EngineResult<Rc<Rows>> {
        panic!("no subqueries expected in this test")
    }
}

/// Exact rendering: `Value` has no `PartialEq` by design, and `{:?}` of
/// an `f64` round-trips, so equal text is equal bits.
fn shown(r: &EngineResult<Value>) -> String {
    format!("{r:?}")
}

/// Prepared evaluation against the tree walk, over `rows`, in `mode`.
/// Where the typed walk takes the expression ([`Prepared::eval_num`]),
/// its number or error is the value too.
fn check(e: &Expr, rows: &[Vec<Value>], outer_row: &[Value], mode: ArithMode) {
    let schema = &local_schema();
    let outer_schema = outer_schema();
    let outer = Env {
        schema: &outer_schema,
        row: outer_row,
        outer: None,
    };
    // `sum(#0)` and `count(#0)` are computed aggregates; `max(#0)` is not.
    let agg_keys = vec!["sum(#0)".to_string(), "count(#0)".to_string()];
    let agg_values = vec![Value::Int(42), Value::Int(7)];
    for with_aggs in [false, true] {
        let keys: &[String] = if with_aggs { &agg_keys } else { &[] };
        let scope = Scope {
            schema,
            outer: Some(&outer),
        };
        let prepared = Prepared::new(e, scope, mode, keys);
        let base = EvalCtx::new(&NoSubqueries, mode);
        let ctx = if with_aggs {
            base.with_aggs(&agg_values)
        } else {
            base
        };
        let wctx = WalkCtx {
            mode,
            agg_keys: keys,
            agg_values: &agg_values,
        };
        for row in rows {
            let env = Env {
                schema,
                row,
                outer: Some(&outer),
            };
            let want = walk(e, &env, &wctx);
            assert_eq!(
                shown(&prepared.eval(row, &ctx)),
                shown(&want),
                "{e} over {row:?} in {mode:?} (aggregates: {with_aggs})"
            );
            if let Some(typed) = prepared.eval_num(row) {
                let typed = typed.map(|n| n.map_or(Value::Null, Num::value)).map_err(Into::into);
                assert_eq!(shown(&typed), shown(&want), "typed walk of {e} over {row:?}");
            }
            // The predicate views agree with the value they are views of.
            if let Ok(v) = &want {
                let filtered = prepared.filter(row, &ctx);
                match v {
                    Value::Bool(b) => assert_eq!(filtered, Ok(*b), "{e}"),
                    Value::Null => assert_eq!(filtered, Ok(false), "{e}"),
                    _ => assert!(filtered.is_err(), "{e}"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// (a) Prepared evaluation is the tree walk: same values bit for
    /// bit, same errors, in both arithmetic modes.
    #[test]
    fn prepared_evaluation_is_the_tree_walk(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let kind = *g.pick(&KINDS);
        let e = gen_expr(&mut g, kind, 4);
        let rows: Vec<Vec<Value>> = (0..6).map(|_| gen_row(&mut g)).collect();
        let outer_row = vec![Value::Int(g.below(5) as i64), Value::Str("a%".into())];
        for mode in [ArithMode::Float, ArithMode::GuardedDecimal] {
            check(&e, &rows, &outer_row, mode);
        }
    }

    /// (b) The compiled pattern is the two-pointer matcher: `%`, `_`,
    /// a literal `%` in the text, empty strings, multi-byte characters.
    #[test]
    fn compiled_like_is_the_char_matcher(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let alphabet = ['a', 'b', 'c', '%', '_', 'é', '日'];
        let text: String = (0..g.below(13))
            .map(|_| *g.pick(&alphabet))
            .collect();
        // Wildcards are a pattern's point: draw them twice as often.
        let pattern: String = (0..g.below(9))
            .map(|_| if g.below(3) == 0 { *g.pick(&['%', '_']) } else { *g.pick(&alphabet) })
            .collect();
        let want = like_oracle(&text, &pattern);
        prop_assert_eq!(
            LikePattern::new(&pattern).matches(&text), want,
            "text={:?} pattern={:?}", text, pattern
        );
        prop_assert_eq!(value::like_match(&text, &pattern), want);
    }

    /// (c) One mirror: `a op b` is `b op' a` for `op'` the comparison's
    /// `mirrored()`, NULLs, mixed numeric types and incomparable pairs
    /// (an error both ways) included, and mirroring twice is the identity.
    #[test]
    fn a_mirrored_comparison_is_the_swapped_one(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let (a, b) = (gen_scalar(&mut g), gen_scalar(&mut g));
        for op in COMPARISONS {
            let m = op.mirrored().expect("a comparison has a mirror");
            prop_assert_eq!(m.mirrored(), Some(op));
            prop_assert_eq!(
                compare_tv(&a, &b, op).ok(), compare_tv(&b, &a, m).ok(),
                "{:?} {:?} {:?}", a, op, b
            );
        }
    }
}

/// Only the comparisons have a mirror.
#[test]
fn no_other_operator_has_a_mirror() {
    use BinOp::*;
    for op in [Plus, Minus, Mul, Div, Mod, And, Or, Concat] {
        assert_eq!(op.mirrored(), None, "{op:?}");
        assert!(!op.is_comparison(), "{op:?}");
    }
}

/// The typed walk serves guarded mode too: Q1's `sum_charge` argument
/// over decimal columns is a decimal from `eval_num`, at the scale the
/// guarded product caps it at, with exactly the bits `eval` returns; an
/// overflow is raised by the walk itself, with `eval`'s text; and only a
/// non-number in an untyped column hands the row to the boxed arm.
#[test]
fn eval_num_computes_guarded_decimals() {
    let schema: Schema = [("p", Ty::Decimal), ("d", Ty::Decimal), ("t", Ty::Decimal), ("u", Ty::Unknown)]
        .into_iter()
        .map(|(name, ty)| ColMeta {
            binding: "l".into(),
            name: name.into(),
            ty,
        })
        .collect();
    let col = |slot: usize| Expr::Col {
        slot,
        ty: schema[slot].ty,
    };
    // p * (1 - d) * (1 + t)
    let charge = binary(
        binary(col(0), BinOp::Mul, binary(int(1), BinOp::Minus, col(1))),
        BinOp::Mul,
        binary(int(1), BinOp::Plus, col(2)),
    );
    let scope = Scope {
        schema: &schema,
        outer: None,
    };
    let mode = ArithMode::GuardedDecimal;
    let ctx = EvalCtx::new(&NoSubqueries, mode);
    let prepared = Prepared::new(&charge, scope, mode, &[]);
    let row = [Value::cents(123_456), Value::cents(5), Value::cents(8), Value::Null];
    let num = prepared.eval_num(&row).unwrap().unwrap().unwrap();
    // 1234.56 * 0.95 = 1172.8320 (scale 4), * 1.08 = 1266.658560 (scale 6).
    assert!(matches!(num, Num::Decimal { raw: 1_266_658_560, scale: 6 }), "{num:?}");
    assert_eq!(shown(&Ok(num.value())), shown(&prepared.eval(&row, &ctx)));

    let big = [Value::decimal(i128::MAX / 2, 2), Value::cents(5), Value::cents(8), Value::Null];
    let err = EngineError::from(prepared.eval_num(&big).unwrap().unwrap_err());
    assert_eq!(err, EngineError::Overflow("decimal *".into()));
    assert_eq!(shown(&Err(err)), shown(&prepared.eval(&big, &ctx)));

    let plus_one = binary(col(3), BinOp::Plus, int(1));
    let untyped = Prepared::new(&plus_one, scope, mode, &[]);
    let date = [Value::Null, Value::Null, Value::Null, Value::Date(9_000)];
    assert!(untyped.eval_num(&date).is_none());
    let cents = [Value::Null, Value::Null, Value::Null, Value::cents(150)];
    let sum = untyped.eval_num(&cents).unwrap().unwrap().unwrap();
    assert!(matches!(sum, Num::Decimal { raw: 250, scale: 2 }), "{sum:?}");
}

fn int(i: i64) -> Expr {
    Expr::Literal(Literal::Integer(i))
}

fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
    Expr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

/// `1 / 0 = 1`: a column-free subtree that cannot be evaluated.
fn poisoned() -> Expr {
    binary(binary(int(1), BinOp::Div, int(0)), BinOp::Eq, int(1))
}

/// The shapes the issue names, spelled out: an erroring constant is an
/// error exactly where a row-at-a-time walk reaches it.
#[test]
fn erroring_constants_wait_until_reached() {
    let row = vec![gen_row(&mut Gen(7))];
    let outer_row = vec![Value::Int(1), Value::Str("x".into())];
    let unmatched_searched = Expr::Case {
        operand: None,
        branches: vec![(Expr::Bool(false), poisoned())],
        else_branch: Some(Box::new(int(2))),
    };
    let unmatched_simple = Expr::Case {
        operand: Some(Box::new(int(1))),
        branches: vec![(int(2), poisoned())],
        else_branch: None,
    };
    let shielded = [
        binary(Expr::Bool(false), BinOp::And, poisoned()),
        binary(Expr::Bool(true), BinOp::Or, poisoned()),
        unmatched_searched,
        unmatched_simple,
    ];
    let schema = local_schema();
    let scope = Scope {
        schema: &schema,
        outer: None,
    };
    for mode in [ArithMode::Float, ArithMode::GuardedDecimal] {
        let ctx = EvalCtx::new(&NoSubqueries, mode);
        for e in &shielded {
            check(e, &row, &outer_row, mode);
            assert!(Prepared::new(e, scope, mode, &[]).eval(&row[0], &ctx).is_ok(), "{e}");
        }
        // Unshielded it is the walk's error, once per evaluation — and
        // on an empty input, where nothing is evaluated, no error at all:
        // preparing never fails.
        let e = poisoned();
        check(&e, &row, &outer_row, mode);
        let prepared = Prepared::new(&e, scope, mode, &[]);
        assert_eq!(
            prepared.eval(&row[0], &ctx).unwrap_err(),
            EngineError::Type("division by zero".into())
        );
        // The other operand order still reaches it.
        check(&binary(poisoned(), BinOp::And, Expr::Bool(false)), &row, &outer_row, mode);
    }
}
