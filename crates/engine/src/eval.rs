//! Row-level expression evaluation, shared by both engines.
//!
//! Evaluation happens against an [`Env`] — a schema/row pair chained to an
//! optional outer environment, which is how correlated subqueries see the
//! enclosing row (SQL's innermost-first scoping). Subqueries are executed
//! through the [`SubqueryRunner`] callback so each engine runs nested
//! queries with its own executor. Only the subqueries the plan-time
//! unnesting pass left in place get here; [`run_subquery`] — the one
//! implementation behind both runners — binds such a body on first use,
//! finds out then whether it is correlated, and caches the result of an
//! uncorrelated one for the rest of the execution.
//!
//! The evaluator implements SQL three-valued logic: comparisons over NULL
//! yield NULL, `AND`/`OR` follow Kleene semantics, and filters treat NULL
//! as false.

use crate::error::{EngineError, EngineResult};
use crate::ir::{Expr, Ty};
use crate::plan::{BoundQuery, Planner, Schema};
use crate::storage::Database;
use crate::value::{self, ArithMode, Key, Value};
use sqalpel_sql::ast::{BinOp, IntervalUnit, Literal, Query, UnaryOp};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// A row visible to expression evaluation, with a link to the enclosing
/// row for correlated subqueries.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub schema: &'a Schema,
    pub row: &'a [Value],
    pub outer: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    pub fn new(schema: &'a Schema, row: &'a [Value]) -> Self {
        Env {
            schema,
            row,
            outer: None,
        }
    }

    pub fn with_outer(schema: &'a Schema, row: &'a [Value], outer: &'a Env<'a>) -> Self {
        Env {
            schema,
            row,
            outer: Some(outer),
        }
    }

    /// Resolve a column reference: innermost scope first, ambiguity is an
    /// error within a scope, unresolved names climb to the outer scope.
    pub fn resolve(&self, col: &sqalpel_sql::ColumnRef) -> EngineResult<Value> {
        let mut hit: Option<usize> = None;
        for (i, meta) in self.schema.iter().enumerate() {
            let matches = match &col.table {
                Some(t) => meta.binding == *t && meta.name == col.column,
                None => meta.name == col.column,
            };
            if matches {
                if hit.is_some() {
                    return Err(EngineError::AmbiguousColumn(col.to_string()));
                }
                hit = Some(i);
            }
        }
        match hit {
            Some(i) => Ok(self.row[i].clone()),
            None => match self.outer {
                Some(outer) => outer.resolve(col),
                None => Err(EngineError::UnknownColumn(col.to_string())),
            },
        }
    }
}

/// Materialized result rows.
pub type Rows = Vec<Vec<Value>>;

/// Callback for executing subqueries inside expressions.
pub trait SubqueryRunner {
    /// Run `q` with `outer` in scope; returns the result rows — shared,
    /// because an uncorrelated subquery hands out its one cached result
    /// for every outer row.
    fn run_subquery(&self, q: &Query, outer: &Env<'_>) -> EngineResult<Rc<Rows>>;
}

/// One materialized CTE visible during execution.
pub(crate) struct CteFrame {
    pub name: String,
    pub cols: Vec<(String, Ty)>,
    pub rows: Rc<Rows>,
}

/// How a subquery behaved on first execution.
pub(crate) enum SubState {
    /// Uncorrelated: its cached result rows.
    Cached(Rc<Rows>),
    /// Correlated: the bound query, re-executed per outer row.
    Correlated(Rc<BoundQuery>),
}

/// Per-execution subquery states, keyed by the address of the subquery's
/// AST inside the (immutable) bound plan.
pub(crate) type SubStates = RefCell<HashMap<usize, SubState>>;

/// Bind a subquery body at runtime with the CTEs materialized so far in
/// scope (e.g. TPC-H Q15's `(select max(total_revenue) from revenue)`),
/// planned the way the enclosing statement was.
pub(crate) fn bind_subquery(
    db: &Database,
    ctes: &[CteFrame],
    rewrite: bool,
    optimize: bool,
    q: &Query,
) -> EngineResult<BoundQuery> {
    let scope = ctes
        .iter()
        .map(|f| (f.name.clone(), f.cols.clone()))
        .collect();
    Planner::with_ctes(db, scope)
        .with_rewrite(rewrite)
        .with_optimize(optimize)
        .bind(q)
}

/// The [`SubqueryRunner`] protocol both executors implement with their
/// own `bind` and `run`: a subquery seen before either returns its cached
/// rows or re-runs its bound plan under `outer`; a new one is bound, run
/// once *without* an outer row, and classified by what happens — success
/// means uncorrelated (cache the rows), `UnknownColumn` means a name only
/// the outer row resolves (keep the plan, run it per row).
pub(crate) fn run_subquery(
    states: &SubStates,
    q: &Query,
    outer: &Env<'_>,
    bind: impl FnOnce() -> EngineResult<BoundQuery>,
    run: impl Fn(&BoundQuery, Option<&Env<'_>>) -> EngineResult<Rows>,
) -> EngineResult<Rc<Rows>> {
    let id = q as *const Query as usize;
    let known = match states.borrow().get(&id) {
        Some(SubState::Cached(rows)) => return Ok(Rc::clone(rows)),
        Some(SubState::Correlated(bound)) => Some(Rc::clone(bound)),
        None => None,
    };
    if let Some(bound) = known {
        return run(&bound, Some(outer)).map(Rc::new);
    }
    let bound = Rc::new(bind()?);
    match run(&bound, None) {
        Ok(rows) => {
            let rows = Rc::new(rows);
            states
                .borrow_mut()
                .insert(id, SubState::Cached(Rc::clone(&rows)));
            Ok(rows)
        }
        Err(EngineError::UnknownColumn(_)) => {
            states
                .borrow_mut()
                .insert(id, SubState::Correlated(Rc::clone(&bound)));
            run(&bound, Some(outer)).map(Rc::new)
        }
        Err(other) => Err(other),
    }
}

/// Computed aggregate values for post-grouping expression evaluation:
/// parallel arrays of spec keys and their per-group results.
pub struct AggValues<'a> {
    pub keys: &'a [String],
    pub values: &'a [Value],
}

impl AggValues<'_> {
    fn lookup(&self, key: &str) -> Option<Value> {
        self.keys
            .iter()
            .position(|k| k == key)
            .map(|i| self.values[i].clone())
    }
}

/// Everything evaluation needs besides the row itself.
pub struct EvalCtx<'a> {
    pub runner: &'a dyn SubqueryRunner,
    pub mode: ArithMode,
    /// Present when evaluating post-aggregation expressions (select items
    /// over groups, HAVING).
    pub aggs: Option<&'a AggValues<'a>>,
}

impl<'a> EvalCtx<'a> {
    pub fn new(runner: &'a dyn SubqueryRunner, mode: ArithMode) -> Self {
        EvalCtx {
            runner,
            mode,
            aggs: None,
        }
    }

    pub fn with_aggs(&self, aggs: &'a AggValues<'a>) -> EvalCtx<'a> {
        EvalCtx {
            runner: self.runner,
            mode: self.mode,
            aggs: Some(aggs),
        }
    }
}

/// Evaluate an expression to a [`Value`].
pub fn eval(e: &Expr, env: &Env<'_>, ctx: &EvalCtx<'_>) -> EngineResult<Value> {
    match e {
        Expr::Col { slot, .. } => Ok(env.row[*slot].clone()),
        // An outer reference still resolves through the full environment
        // chain (local schema first) so unresolved and ambiguous names
        // error exactly as they did pre-IR.
        Expr::Outer(c) => env.resolve(c),
        Expr::OutputCol(_) => Err(EngineError::Unsupported(
            "output-column reference outside ORDER BY".into(),
        )),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Literal(l) => literal(l),
        Expr::Wildcard => Err(EngineError::Type("bare * outside count(*)".into())),
        Expr::Unary { op, expr } => {
            let v = eval(expr, env, ctx)?;
            match op {
                UnaryOp::Neg => value::negate(&v, ctx.mode),
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
        Expr::Binary { left, op, right } => binary(left, *op, right, env, ctx),
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let v = eval(expr, env, ctx)?;
            let lo = eval(low, env, ctx)?;
            let hi = eval(high, env, ctx)?;
            let ge = compare_tv(&v, &lo, BinOp::GtEq)?;
            let le = compare_tv(&v, &hi, BinOp::LtEq)?;
            let b = kleene_and(ge, le);
            Ok(negate_tv(b, *negated))
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let v = eval(expr, env, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                let iv = eval(item, env, ctx)?;
                if value::group_eq(&v, &iv) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::InSubquery {
            expr,
            negated,
            query,
        } => {
            let v = eval(expr, env, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let rows = ctx.runner.run_subquery(query, env)?;
            let mut found = false;
            for row in rows.iter() {
                let cell = row
                    .first()
                    .ok_or_else(|| EngineError::Type("IN subquery with no columns".into()))?;
                if value::group_eq(&v, cell) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::Exists { negated, query } => {
            let rows = ctx.runner.run_subquery(query, env)?;
            Ok(Value::Bool(rows.is_empty() == *negated))
        }
        Expr::Like {
            expr,
            negated,
            pattern,
        } => {
            let v = eval(expr, env, ctx)?;
            let p = eval(pattern, env, ctx)?;
            match (&v, &p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    Ok(Value::Bool(value::like_match(s, pat) != *negated))
                }
                _ => Err(EngineError::Type(format!(
                    "LIKE requires strings, got {} and {}",
                    v.type_name(),
                    p.type_name()
                ))),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, env, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let op_val = operand
                .as_ref()
                .map(|o| eval(o, env, ctx))
                .transpose()?;
            for (when, then) in branches {
                let hit = match &op_val {
                    Some(ov) => {
                        let wv = eval(when, env, ctx)?;
                        value::group_eq(ov, &wv)
                    }
                    None => matches!(eval(when, env, ctx)?, Value::Bool(true)),
                };
                if hit {
                    return eval(then, env, ctx);
                }
            }
            match else_branch {
                Some(e) => eval(e, env, ctx),
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
                match ctx.aggs.and_then(|a| a.lookup(&key)) {
                    Some(v) => Ok(v),
                    None => Err(EngineError::Type(format!(
                        "aggregate {name} used outside aggregation context"
                    ))),
                }
            } else {
                Err(EngineError::Unsupported(format!("function {name}")))
            }
        }
        Expr::Extract { field, expr } => {
            let v = eval(expr, env, ctx)?;
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
            let v = eval(expr, env, ctx)?;
            let s = eval(start, env, ctx)?;
            let l = length.as_ref().map(|l| eval(l, env, ctx)).transpose()?;
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
        Expr::Subquery(q) => {
            let rows = ctx.runner.run_subquery(q, env)?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => rows[0]
                    .first()
                    .cloned()
                    .ok_or_else(|| EngineError::Type("scalar subquery with no columns".into())),
                n => Err(EngineError::ScalarCardinality(format!("{n} rows"))),
            }
        }
    }
}

pub(crate) fn literal(l: &Literal) -> EngineResult<Value> {
    Ok(match l {
        Literal::Integer(i) => Value::Int(*i),
        Literal::Decimal(d) => {
            // SQL decimal literals like 0.05 become fixed-point values so
            // guarded arithmetic stays in the decimal domain.
            let scaled = (d * 10_000.0).round();
            if (scaled / 10_000.0 - d).abs() < 1e-12 {
                Value::Decimal {
                    raw: scaled as i128,
                    scale: 4,
                }
            } else {
                Value::Float(*d)
            }
        }
        Literal::String(s) => Value::Str(s.clone()),
        Literal::Date(text) => Value::Date(
            sqalpel_datagen::calendar::parse_days(text)
                .ok_or_else(|| EngineError::Type(format!("invalid date literal '{text}'")))?,
        ),
        Literal::Interval { value, unit } => match unit {
            IntervalUnit::Day => Value::Interval {
                months: 0,
                days: *value as i32,
            },
            IntervalUnit::Month => Value::Interval {
                months: *value as i32,
                days: 0,
            },
            IntervalUnit::Year => Value::Interval {
                months: *value as i32 * 12,
                days: 0,
            },
        },
        Literal::Null => Value::Null,
    })
}

fn binary(
    left: &Expr,
    op: BinOp,
    right: &Expr,
    env: &Env<'_>,
    ctx: &EvalCtx<'_>,
) -> EngineResult<Value> {
    // Kleene short-circuit for the boolean connectives.
    if op == BinOp::And {
        let l = truth(eval(left, env, ctx)?)?;
        if l == Some(false) {
            return Ok(Value::Bool(false));
        }
        let r = truth(eval(right, env, ctx)?)?;
        return Ok(tv(kleene_and(l, r)));
    }
    if op == BinOp::Or {
        let l = truth(eval(left, env, ctx)?)?;
        if l == Some(true) {
            return Ok(Value::Bool(true));
        }
        let r = truth(eval(right, env, ctx)?)?;
        return Ok(tv(kleene_or(l, r)));
    }
    let lv = eval(left, env, ctx)?;
    let rv = eval(right, env, ctx)?;
    match op {
        BinOp::Plus => value::add(&lv, &rv, ctx.mode),
        BinOp::Minus => value::sub(&lv, &rv, ctx.mode),
        BinOp::Mul => value::mul(&lv, &rv, ctx.mode),
        BinOp::Div => value::div(&lv, &rv, ctx.mode),
        BinOp::Mod => value::rem(&lv, &rv),
        BinOp::Concat => value::concat(&lv, &rv),
        cmp => Ok(tv(compare_tv(&lv, &rv, cmp)?)),
    }
}

/// Three-valued comparison.
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

fn negate_tv(b: Option<bool>, negated: bool) -> Value {
    match b {
        Some(x) => Value::Bool(x != negated),
        None => Value::Null,
    }
}

/// Evaluate a predicate; NULL counts as false (SQL WHERE semantics).
pub fn eval_filter(e: &Expr, env: &Env<'_>, ctx: &EvalCtx<'_>) -> EngineResult<bool> {
    match eval(e, env, ctx)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(EngineError::Type(format!(
            "filter must be boolean, got {}",
            other.type_name()
        ))),
    }
}

// ---------------------------------------------------------------- aggregates

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Count,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match name {
            "sum" => AggFunc::Sum,
            "count" => AggFunc::Count,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// One distinct aggregate appearing in a query.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    pub distinct: bool,
    /// `None` for `count(*)`.
    pub arg: Option<Expr>,
    /// Canonical key used to match expression nodes to computed values.
    pub key: String,
}

/// Canonical key of an aggregate call.
pub fn agg_key(name: &str, distinct: bool, arg: Option<&Expr>) -> String {
    let arg_text = match arg {
        None | Some(Expr::Wildcard) => "*".to_string(),
        Some(e) => e.to_string(),
    };
    format!(
        "{name}({}{arg_text})",
        if distinct { "DISTINCT " } else { "" }
    )
}

/// Collect the distinct aggregate calls appearing in `exprs`
/// (not descending into subqueries).
pub fn collect_aggregates(exprs: &[&Expr]) -> Vec<AggSpec> {
    let mut specs: Vec<AggSpec> = Vec::new();
    for e in exprs {
        e.visit(&mut |x| {
            if let Expr::Function {
                name,
                distinct,
                args,
            } = x
            {
                if let Some(func) = AggFunc::parse(name) {
                    let arg = match args.first() {
                        None | Some(Expr::Wildcard) => None,
                        Some(a) => Some(a.clone()),
                    };
                    let key = agg_key(name, *distinct, args.first());
                    if !specs.iter().any(|s| s.key == key) {
                        specs.push(AggSpec {
                            func,
                            distinct: *distinct,
                            arg,
                            key,
                        });
                    }
                }
            }
        });
    }
    specs
}

/// Running state for one aggregate over one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    /// Present for DISTINCT aggregates: the set of keys already folded.
    seen: Option<HashSet<Key>>,
    count: i64,
    sum_f: f64,
    sum_d: i128,
    sum_scale: u8,
    sum_is_decimal: bool,
    extreme: Option<Value>,
    mode: ArithMode,
}

impl Accumulator {
    pub fn new(spec: &AggSpec, mode: ArithMode) -> Accumulator {
        Accumulator {
            func: spec.func,
            seen: spec.distinct.then(HashSet::new),
            count: 0,
            sum_f: 0.0,
            sum_d: 0,
            sum_scale: 0,
            sum_is_decimal: true,
            extreme: None,
            mode,
        }
    }

    /// Fold one input value. `None` means `count(*)` (no argument).
    pub fn update(&mut self, v: Option<&Value>) -> EngineResult<()> {
        let v = match v {
            None => {
                self.count += 1;
                return Ok(());
            }
            Some(Value::Null) => return Ok(()), // aggregates skip NULLs
            Some(v) => v,
        };
        if let Some(seen) = &mut self.seen {
            if !seen.insert(v.key()?) {
                return Ok(());
            }
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match (self.mode, v) {
                (ArithMode::GuardedDecimal, Value::Int(i)) => {
                    self.add_decimal(*i as i128, 0)?;
                }
                (ArithMode::GuardedDecimal, Value::Decimal { raw, scale }) => {
                    self.add_decimal(*raw, *scale)?;
                }
                _ => {
                    let f = v.as_f64().ok_or_else(|| {
                        EngineError::Type(format!("cannot sum {}", v.type_name()))
                    })?;
                    self.sum_f += f;
                    self.sum_is_decimal = false;
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let replace = match &self.extreme {
                    None => true,
                    Some(cur) => {
                        let ord = value::compare(v, cur)?
                            .ok_or_else(|| EngineError::Type("incomparable in min/max".into()))?;
                        match self.func {
                            AggFunc::Min => ord.is_lt(),
                            _ => ord.is_gt(),
                        }
                    }
                };
                if replace {
                    self.extreme = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    /// Fold one string input without boxing it into a [`Value`]. The
    /// typed-column aggregation loop feeds `Str` columns through here so
    /// min/max over strings clone only on replacement, not per row.
    /// Behaviour is identical to `update(Some(&Value::Str(..)))`.
    pub fn update_str(&mut self, s: &str) -> EngineResult<()> {
        if self.seen.is_some()
            || matches!(&self.extreme, Some(v) if !matches!(v, Value::Str(_)))
        {
            // DISTINCT needs the key image, and a mixed-type extreme
            // needs the generic comparison (to error identically).
            return self.update(Some(&Value::Str(s.to_owned())));
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                return Err(EngineError::Type("cannot sum varchar".into()))
            }
            AggFunc::Min | AggFunc::Max => {
                let replace = match &self.extreme {
                    None => true,
                    Some(Value::Str(cur)) => match self.func {
                        AggFunc::Min => s < cur.as_str(),
                        _ => s > cur.as_str(),
                    },
                    Some(_) => unreachable!("non-string extremes take the boxed path"),
                };
                if replace {
                    self.extreme = Some(Value::Str(s.to_owned()));
                }
            }
        }
        Ok(())
    }

    fn add_decimal(&mut self, raw: i128, scale: u8) -> EngineResult<()> {
        if !self.sum_is_decimal {
            self.sum_f += raw as f64 / 10f64.powi(scale as i32);
            return Ok(());
        }
        // Align scales, widening as needed.
        if scale > self.sum_scale {
            let factor = 10i128.pow((scale - self.sum_scale) as u32);
            self.sum_d = self
                .sum_d
                .checked_mul(factor)
                .ok_or_else(|| EngineError::Overflow("sum rescale".into()))?;
            self.sum_scale = scale;
        }
        let addend = if scale < self.sum_scale {
            raw.checked_mul(10i128.pow((self.sum_scale - scale) as u32))
                .ok_or_else(|| EngineError::Overflow("sum rescale".into()))?
        } else {
            raw
        };
        self.sum_d = self
            .sum_d
            .checked_add(addend)
            .ok_or_else(|| EngineError::Overflow("sum".into()))?;
        Ok(())
    }

    /// Fold another accumulator for the same spec into `self`. Used by the
    /// parallel aggregation path: `other` covers rows strictly later in
    /// morsel order, so min/max ties keep `self`'s first-seen value and the
    /// result is identical to sequential accumulation. Callers never merge
    /// DISTINCT accumulators (the seen-sets cannot be reconciled) nor
    /// float sums (addition order would leak into the result).
    pub fn merge(&mut self, other: &Accumulator) -> EngineResult<()> {
        debug_assert!(self.seen.is_none() && other.seen.is_none());
        self.count += other.count;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if other.sum_is_decimal {
                    self.add_decimal(other.sum_d, other.sum_scale)?;
                } else {
                    if self.sum_is_decimal {
                        self.sum_f += self.sum_d as f64 / 10f64.powi(self.sum_scale as i32);
                        self.sum_is_decimal = false;
                    }
                    self.sum_f += other.sum_f;
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(v) = &other.extreme {
                    let replace = match &self.extreme {
                        None => true,
                        Some(cur) => {
                            let ord = value::compare(v, cur)?.ok_or_else(|| {
                                EngineError::Type("incomparable in min/max".into())
                            })?;
                            match self.func {
                                AggFunc::Min => ord.is_lt(),
                                _ => ord.is_gt(),
                            }
                        }
                    };
                    if replace {
                        self.extreme = Some(v.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// Produce the final value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_decimal && self.mode == ArithMode::GuardedDecimal {
                    Value::Decimal {
                        raw: self.sum_d,
                        scale: self.sum_scale,
                    }
                } else {
                    Value::Float(self.sum_f)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_decimal && self.mode == ArithMode::GuardedDecimal {
                    Value::Float(
                        self.sum_d as f64 / 10f64.powi(self.sum_scale as i32) / self.count as f64,
                    )
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::bind::bind_expr;
    use crate::ir::Ty;
    use crate::plan::ColMeta;
    use sqalpel_sql::parse_expr;

    /// A runner for tests: subqueries are not expected.
    struct NoSubqueries;
    impl SubqueryRunner for NoSubqueries {
        fn run_subquery(&self, _: &Query, _: &Env<'_>) -> EngineResult<Rc<Rows>> {
            panic!("no subqueries expected in this test")
        }
    }

    fn schema(names: &[&str]) -> Schema {
        names
            .iter()
            .map(|n| ColMeta {
                binding: "t".into(),
                name: n.to_string(),
                ty: Ty::Unknown,
            })
            .collect()
    }

    /// Parse and bind an expression, then bind aggregates by slot.
    fn bound(src: &str, sch: &Schema) -> EngineResult<Expr> {
        bind_expr(&parse_expr(src).unwrap(), sch)
    }

    fn eval_str(src: &str, sch: &Schema, row: &[Value]) -> EngineResult<Value> {
        let e = bound(src, sch)?;
        let env = Env::new(sch, row);
        let ctx = EvalCtx::new(&NoSubqueries, ArithMode::Float);
        eval(&e, &env, &ctx)
    }

    #[test]
    fn accumulator_merge_matches_sequential_update() {
        let funcs = [
            ("sum", AggFunc::Sum),
            ("count", AggFunc::Count),
            ("avg", AggFunc::Avg),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
        ];
        let values: Vec<Value> = vec![
            Value::Int(5),
            Value::Null,
            Value::Decimal { raw: 250, scale: 2 },
            Value::Int(-3),
            Value::Decimal { raw: 7, scale: 0 },
        ];
        for (name, func) in funcs {
            let spec = AggSpec {
                func,
                distinct: false,
                arg: None,
                key: format!("{name}(x)"),
            };
            let mut sequential = Accumulator::new(&spec, ArithMode::GuardedDecimal);
            for v in &values {
                sequential.update(Some(v)).unwrap();
            }
            // Split at every point, accumulate the halves separately, merge.
            for split in 0..=values.len() {
                let mut lo = Accumulator::new(&spec, ArithMode::GuardedDecimal);
                let mut hi = Accumulator::new(&spec, ArithMode::GuardedDecimal);
                for v in &values[..split] {
                    lo.update(Some(v)).unwrap();
                }
                for v in &values[split..] {
                    hi.update(Some(v)).unwrap();
                }
                lo.merge(&hi).unwrap();
                assert_eq!(
                    format!("{:?}", lo.finish()),
                    format!("{:?}", sequential.finish()),
                    "{name} split at {split}"
                );
            }
        }
    }

    #[test]
    fn update_str_matches_boxed_update() {
        let strings = ["delta", "alpha", "alpha", "zulu", "mike"];
        for (name, func) in [
            ("count", AggFunc::Count),
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
        ] {
            for distinct in [false, true] {
                let spec = AggSpec {
                    func,
                    distinct,
                    arg: None,
                    key: format!("{name}(s)"),
                };
                let mut boxed = Accumulator::new(&spec, ArithMode::Float);
                let mut fast = Accumulator::new(&spec, ArithMode::Float);
                for s in strings {
                    boxed.update(Some(&Value::Str(s.into()))).unwrap();
                    fast.update_str(s).unwrap();
                }
                assert_eq!(
                    format!("{:?}", boxed.finish()),
                    format!("{:?}", fast.finish()),
                    "{name} distinct={distinct}"
                );
            }
        }
        // Summing strings errors identically on both paths.
        let spec = AggSpec {
            func: AggFunc::Sum,
            distinct: false,
            arg: None,
            key: "sum(s)".into(),
        };
        let mut boxed = Accumulator::new(&spec, ArithMode::GuardedDecimal);
        let mut fast = Accumulator::new(&spec, ArithMode::GuardedDecimal);
        let be = boxed.update(Some(&Value::Str("x".into()))).unwrap_err();
        let fe = fast.update_str("x").unwrap_err();
        assert_eq!(be.to_string(), fe.to_string());
    }

    #[test]
    fn column_resolution_and_arithmetic() {
        let sch = schema(&["a", "b"]);
        let row = vec![Value::Int(6), Value::Int(7)];
        assert!(matches!(
            eval_str("a * b + 1", &sch, &row).unwrap(),
            Value::Int(43)
        ));
    }

    #[test]
    fn qualified_resolution() {
        let sch = schema(&["a"]);
        let row = vec![Value::Int(1)];
        assert!(matches!(
            eval_str("t.a", &sch, &row).unwrap(),
            Value::Int(1)
        ));
        assert!(matches!(
            eval_str("u.a", &sch, &row),
            Err(EngineError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_detected() {
        let mut sch = schema(&["a"]);
        sch.push(ColMeta {
            binding: "u".into(),
            name: "a".into(),
            ty: Ty::Unknown,
        });
        let row = vec![Value::Int(1), Value::Int(2)];
        assert!(matches!(
            eval_str("a", &sch, &row),
            Err(EngineError::AmbiguousColumn(_))
        ));
        // Qualified access disambiguates.
        assert!(matches!(eval_str("u.a", &sch, &row).unwrap(), Value::Int(2)));
    }

    #[test]
    fn outer_env_resolution() {
        let outer_sch = schema(&["x"]);
        let outer_row = vec![Value::Int(99)];
        let outer = Env::new(&outer_sch, &outer_row);
        let inner_sch = schema(&["y"]);
        let inner_row = vec![Value::Int(1)];
        let env = Env::with_outer(&inner_sch, &inner_row, &outer);
        let ctx = EvalCtx::new(&NoSubqueries, ArithMode::Float);
        // `x` does not resolve locally, so it binds as an outer reference.
        let e = bound("x + y", &inner_sch).unwrap();
        assert!(e.contains_outer());
        assert!(matches!(eval(&e, &env, &ctx).unwrap(), Value::Int(100)));
    }

    #[test]
    fn kleene_logic() {
        let sch = schema(&["n"]);
        let row = vec![Value::Null];
        // NULL AND false = false; NULL OR true = true.
        assert!(matches!(
            eval_str("n > 1 and 1 = 2", &sch, &row).unwrap(),
            Value::Bool(false)
        ));
        assert!(matches!(
            eval_str("n > 1 or 1 = 1", &sch, &row).unwrap(),
            Value::Bool(true)
        ));
        assert!(eval_str("n > 1 or 1 = 2", &sch, &row).unwrap().is_null());
        assert!(eval_str("not (n > 1)", &sch, &row).unwrap().is_null());
    }

    #[test]
    fn between_and_in_list() {
        let sch = schema(&["v"]);
        let row = vec![Value::Int(5)];
        assert!(matches!(
            eval_str("v between 1 and 9", &sch, &row).unwrap(),
            Value::Bool(true)
        ));
        assert!(matches!(
            eval_str("v not between 1 and 9", &sch, &row).unwrap(),
            Value::Bool(false)
        ));
        assert!(matches!(
            eval_str("v in (1, 5, 7)", &sch, &row).unwrap(),
            Value::Bool(true)
        ));
        assert!(matches!(
            eval_str("v not in (1, 7)", &sch, &row).unwrap(),
            Value::Bool(true)
        ));
    }

    #[test]
    fn case_forms() {
        let sch = schema(&["v"]);
        let row = vec![Value::Int(2)];
        let searched = eval_str(
            "case when v = 1 then 'one' when v = 2 then 'two' else 'many' end",
            &sch,
            &row,
        )
        .unwrap();
        assert_eq!(searched.to_string(), "two");
        let simple = eval_str("case v when 9 then 'nine' end", &sch, &row).unwrap();
        assert!(simple.is_null());
    }

    #[test]
    fn extract_and_substring() {
        let sch = schema(&["d", "s"]);
        let d = sqalpel_datagen::calendar::parse_days("1996-03-15").unwrap();
        let row = vec![Value::Date(d), Value::Str("13-555-2368".into())];
        assert!(matches!(
            eval_str("extract(year from d)", &sch, &row).unwrap(),
            Value::Int(1996)
        ));
        assert_eq!(
            eval_str("substring(s from 1 for 2)", &sch, &row)
                .unwrap()
                .to_string(),
            "13"
        );
        assert_eq!(
            eval_str("substring(s from 4)", &sch, &row)
                .unwrap()
                .to_string(),
            "555-2368"
        );
    }

    #[test]
    fn substring_out_of_range_clamps() {
        let sch = schema(&["s"]);
        let row = vec![Value::Str("ab".into())];
        assert_eq!(
            eval_str("substring(s from 1 for 99)", &sch, &row)
                .unwrap()
                .to_string(),
            "ab"
        );
        assert_eq!(
            eval_str("substring(s from 9 for 2)", &sch, &row)
                .unwrap()
                .to_string(),
            ""
        );
    }

    #[test]
    fn decimal_literal_stays_fixed_point() {
        let sch = schema(&["x"]);
        let row = vec![Value::Int(0)];
        let e = bound("0.05", &sch).unwrap();
        let env = Env::new(&sch, &row);
        let ctx = EvalCtx::new(&NoSubqueries, ArithMode::GuardedDecimal);
        match eval(&e, &env, &ctx).unwrap() {
            Value::Decimal { raw, scale } => {
                assert_eq!((raw, scale), (500, 4));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_function_unsupported() {
        let sch = schema(&["x"]);
        let row = vec![Value::Int(0)];
        assert!(matches!(
            eval_str("frobnicate(x)", &sch, &row),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn aggregate_outside_context_errors() {
        let sch = schema(&["x"]);
        let row = vec![Value::Int(0)];
        assert!(eval_str("sum(x)", &sch, &row).is_err());
    }

    #[test]
    fn collect_aggregates_dedups() {
        let sch = schema(&["x", "y"]);
        let a = bound("sum(x) + sum(x) + count(*)", &sch).unwrap();
        let b = bound("avg(y)", &sch).unwrap();
        let specs = collect_aggregates(&[&a, &b]);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].key, "sum(#0)");
        assert_eq!(specs[1].key, "count(*)");
        assert!(specs[1].arg.is_none());
    }

    #[test]
    fn accumulator_sum_and_avg() {
        let sch = schema(&["x"]);
        let spec = &collect_aggregates(&[&bound("sum(x)", &sch).unwrap()])[0];
        let mut acc = Accumulator::new(spec, ArithMode::Float);
        for v in [1, 2, 3] {
            acc.update(Some(&Value::Int(v))).unwrap();
        }
        acc.update(Some(&Value::Null)).unwrap(); // skipped
        assert!(matches!(acc.finish(), Value::Float(f) if (f - 6.0).abs() < 1e-9));
    }

    #[test]
    fn accumulator_guarded_decimal_sum() {
        let sch = schema(&["x"]);
        let spec = &collect_aggregates(&[&bound("sum(x)", &sch).unwrap()])[0];
        let mut acc = Accumulator::new(spec, ArithMode::GuardedDecimal);
        acc.update(Some(&Value::cents(150))).unwrap();
        acc.update(Some(&Value::cents(250))).unwrap();
        match acc.finish() {
            Value::Decimal { raw, scale } => assert_eq!((raw, scale), (400, 2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn accumulator_distinct_count() {
        let sch = schema(&["x"]);
        let e = bound("count(distinct x)", &sch).unwrap();
        let spec = &collect_aggregates(&[&e])[0];
        let mut acc = Accumulator::new(spec, ArithMode::Float);
        for v in [1, 2, 2, 3, 1] {
            acc.update(Some(&Value::Int(v))).unwrap();
        }
        assert!(matches!(acc.finish(), Value::Int(3)));
    }

    #[test]
    fn accumulator_min_max() {
        let sch = schema(&["x"]);
        let specs = collect_aggregates(&[
            &bound("min(x)", &sch).unwrap(),
            &bound("max(x)", &sch).unwrap(),
        ]);
        let mut mn = Accumulator::new(&specs[0], ArithMode::Float);
        let mut mx = Accumulator::new(&specs[1], ArithMode::Float);
        for v in [5, 3, 9, 1] {
            mn.update(Some(&Value::Int(v))).unwrap();
            mx.update(Some(&Value::Int(v))).unwrap();
        }
        assert!(matches!(mn.finish(), Value::Int(1)));
        assert!(matches!(mx.finish(), Value::Int(9)));
    }

    #[test]
    fn empty_group_semantics() {
        let sch = schema(&["x"]);
        let specs = collect_aggregates(&[
            &bound("sum(x)", &sch).unwrap(),
            &bound("count(x)", &sch).unwrap(),
        ]);
        let sum = Accumulator::new(&specs[0], ArithMode::Float);
        let count = Accumulator::new(&specs[1], ArithMode::Float);
        assert!(sum.finish().is_null());
        assert!(matches!(count.finish(), Value::Int(0)));
    }
}
