//! Row-level expression evaluation, shared by both engines.
//!
//! An operator lowers each [`Expr`] once into a [`Prepared`] expression
//! and evaluates that per row: preparation resolves names, converts
//! literals, compiles constant `LIKE` patterns and evaluates every
//! column-free subtree — with this same evaluator, in the operator's
//! [`ArithMode`] — so the row loop neither parses, nor clones a constant,
//! nor recomputes `DATE '1998-12-01' - INTERVAL '90' DAY`. There is one
//! evaluator: the row engine's operators, the column engine's row-wise
//! fallbacks and the zone-map bounds of both go through it.
//!
//! Evaluation happens in a [`Scope`] — the schema of the operator's input
//! and the enclosing row, if any — which is how correlated subqueries see
//! the row they run for (SQL's innermost-first scoping; [`Env`] is that
//! chain of rows). Subqueries are executed through the
//! [`SubqueryRunner`] callback so each engine runs nested queries with
//! its own executor. Only the subqueries the plan-time unnesting pass
//! left in place get here, each with the body the planner bound for it
//! and whether that body is correlated; the one runner both executors
//! share re-runs a correlated body per outer row and runs an uncorrelated
//! one once, caching its rows for the rest of the execution.
//!
//! The evaluator implements SQL three-valued logic: comparisons over NULL
//! yield NULL, `AND`/`OR` follow Kleene semantics, and filters treat NULL
//! as false.

use crate::error::{EngineError, EngineResult};
use crate::ir::bind::resolve_name;
use crate::ir::expr::{Subquery, SubqueryPlan};
use crate::ir::{Expr, Ty};
use crate::plan::{BoundQuery, Schema};
use crate::profile::{self, NodeMetrics, ProfileShard, Profiler};
use crate::value::{self, decimal_to_f64, ArithMode, Fault, Key, LikePattern, Num, Value};
use sqalpel_sql::ast::{BinOp, IntervalUnit, Literal, UnaryOp};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

/// A row visible to expression evaluation, with a link to the enclosing
/// row for correlated subqueries.
#[derive(Clone, Copy)]
pub struct Env<'a> {
    pub schema: &'a Schema,
    pub row: &'a [Value],
    pub outer: Option<&'a Env<'a>>,
}

impl Env<'_> {
    /// Resolve a column reference: innermost scope first, ambiguity is an
    /// error within a scope, unresolved names climb to the outer scope.
    pub fn resolve(&self, col: &sqalpel_sql::ColumnRef) -> EngineResult<Value> {
        match resolve_name(self.schema, col)? {
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
    /// Run the body bound for a subquery with `outer` in scope; returns
    /// the result rows — shared, because an uncorrelated subquery hands
    /// out its one cached result for every outer row.
    fn run_subquery(&self, sub: &SubqueryPlan, outer: &Env<'_>) -> EngineResult<Rc<Rows>>;
}

/// One materialized CTE visible during execution.
struct CteFrame {
    name: String,
    rows: Rc<Rows>,
}

/// What one statement's execution carries besides the executor's knobs:
/// the rows of each uncorrelated subquery once it has run (keyed by the
/// address of its body in the immutable plan), the CTEs materialized so
/// far (innermost last) and the profiler, when on.
pub(crate) struct ExecState {
    subqueries: RefCell<HashMap<usize, Rc<Rows>>>,
    ctes: RefCell<Vec<CteFrame>>,
    pub profiler: Option<Profiler>,
}

impl ExecState {
    pub fn new(profile: bool) -> Self {
        ExecState {
            subqueries: RefCell::new(HashMap::new()),
            ctes: RefCell::new(Vec::new()),
            profiler: profile.then(Profiler::new),
        }
    }

    /// The rows of the innermost CTE called `name`.
    pub fn cte_rows(&self, name: &str) -> EngineResult<Rc<Rows>> {
        let frames = self.ctes.borrow();
        let frame = frames.iter().rev().find(|f| f.name == name);
        frame
            .map(|f| Rc::clone(&f.rows))
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// The metrics accumulated so far, draining the profiler. Empty when
    /// profiling is off.
    pub fn take_profile(&self) -> ProfileShard {
        self.profiler
            .as_ref()
            .map(|p| p.take())
            .unwrap_or_default()
    }
}

/// An executor as the query protocol sees it: its [`ExecState`], and how
/// it runs one block once the block's CTEs are materialized. Running a
/// whole query and running a subquery are written once, here, for both.
pub(crate) trait Executor {
    fn state(&self) -> &ExecState;

    /// Run `bq`'s core and tail; its CTEs are already in scope.
    fn run_block(&self, bq: &BoundQuery, outer: Option<&Env<'_>>) -> EngineResult<Rows>;

    /// Execute a bound query, with `outer` in scope for correlation.
    fn run_query(&self, bq: &BoundQuery, outer: Option<&Env<'_>>) -> EngineResult<Rows> {
        let Some(prof) = &self.state().profiler else {
            return run_scoped(self, bq, outer);
        };
        // The select node's rows_in is the *delta* of the core's
        // cumulative rows_out across this execution, so repeated runs of
        // one bound tree (correlated subqueries) never double-count.
        let root = profile::node_key(&bq.core);
        let before = prof.rows_out_of(root);
        let start = Instant::now();
        let rows = run_scoped(self, bq, outer)?;
        prof.record(
            profile::node_key(bq),
            NodeMetrics {
                rows_in: prof.rows_out_of(root) - before,
                rows_out: rows.len() as u64,
                batches: 1,
                nanos: start.elapsed().as_nanos() as u64,
                ..NodeMetrics::default()
            },
        );
        Ok(rows)
    }
}

/// Materialize `bq`'s CTEs innermost-last, run its block, pop the CTEs.
fn run_scoped<E: Executor + ?Sized>(
    exec: &E,
    bq: &BoundQuery,
    outer: Option<&Env<'_>>,
) -> EngineResult<Rows> {
    let ctes = &exec.state().ctes;
    let frame_base = ctes.borrow().len();
    for (name, cte_query) in &bq.ctes {
        let rows = Rc::new(exec.run_query(cte_query, outer)?);
        ctes.borrow_mut().push(CteFrame {
            name: name.clone(),
            rows,
        });
    }
    let result = exec.run_block(bq, outer);
    ctes.borrow_mut().truncate(frame_base);
    result
}

/// A correlated body re-runs under every outer row; an uncorrelated one
/// runs once, with no outer row, and its rows serve every later call.
impl<E: Executor> SubqueryRunner for E {
    fn run_subquery(&self, sub: &SubqueryPlan, outer: &Env<'_>) -> EngineResult<Rc<Rows>> {
        if sub.correlated() {
            return self.run_query(&sub.query, Some(outer)).map(Rc::new);
        }
        let id = sub as *const SubqueryPlan as usize;
        let cache = &self.state().subqueries;
        if let Some(rows) = cache.borrow().get(&id) {
            return Ok(Rc::clone(rows));
        }
        let rows = Rc::new(self.run_query(&sub.query, None)?);
        cache.borrow_mut().insert(id, Rc::clone(&rows));
        Ok(rows)
    }
}

/// Everything evaluation needs besides the row itself.
pub struct EvalCtx<'a> {
    pub runner: &'a dyn SubqueryRunner,
    pub mode: ArithMode,
    /// Present when evaluating post-aggregation expressions (select items
    /// over groups, HAVING): the group's aggregate results, in the order
    /// of the keys the expression was prepared with.
    pub aggs: Option<&'a [Value]>,
}

impl<'a> EvalCtx<'a> {
    pub fn new(runner: &'a dyn SubqueryRunner, mode: ArithMode) -> Self {
        EvalCtx {
            runner,
            mode,
            aggs: None,
        }
    }

    pub fn with_aggs(&self, aggs: &'a [Value]) -> EvalCtx<'a> {
        EvalCtx {
            runner: self.runner,
            mode: self.mode,
            aggs: Some(aggs),
        }
    }
}

/// Where a prepared expression runs: the schema its slots index and the
/// enclosing row, if any. Both are fixed for as long as an operator
/// lives, which is what lets [`Prepared`] resolve names and hoist
/// constants once.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub schema: &'a Schema,
    pub outer: Option<&'a Env<'a>>,
}

/// The runner for expressions that hold no subquery: the column-free
/// subtrees constants are folded from, and the predicates a scan decides
/// on worker threads.
pub(crate) struct NoSubqueries;

impl SubqueryRunner for NoSubqueries {
    fn run_subquery(&self, _: &SubqueryPlan, _: &Env<'_>) -> EngineResult<Rc<Rows>> {
        Err(EngineError::Unsupported(
            "subquery where none can be evaluated".into(),
        ))
    }
}

/// An expression lowered once per operator, evaluated once per row.
///
/// Preparing does everything that does not depend on the row: literals
/// are converted, names (outer references, aggregate calls) are resolved
/// to positions, constant `LIKE` patterns are compiled, and every
/// column-free subtree is evaluated — by this same evaluator, in the
/// caller's [`ArithMode`], so the value is bit for bit what the row loop
/// would have computed. A subtree whose evaluation *fails* is left in
/// place: SQL raises an error only if evaluation reaches it (`false AND
/// 1/0 = 1`, an unmatched `CASE` arm, an empty input), and so does this.
/// Evaluation reads column operands by reference and clones only what it
/// returns.
pub struct Prepared<'a> {
    node: Node<'a>,
    scope: Scope<'a>,
    mode: ArithMode,
    /// The whole expression is [`Node::typed`].
    typed: bool,
}

enum Node<'a> {
    Const(Value),
    Col(usize),
    /// Raised if evaluation gets here: unresolved or ambiguous names,
    /// unsupported functions, aggregates outside an aggregation.
    Fail(EngineError),
    Neg(Box<Node<'a>>),
    Not(Box<Node<'a>>),
    And(Box<Node<'a>>, Box<Node<'a>>),
    Or(Box<Node<'a>>, Box<Node<'a>>),
    /// `+`, `-`, `*` and `/`. `typed` when every operand below is a
    /// number-shaped node ([`Node::typed`]): such a node first tries the
    /// typed walk ([`Node::num`]).
    Arith {
        op: BinOp,
        l: Box<Node<'a>>,
        r: Box<Node<'a>>,
        typed: bool,
    },
    /// The other binary operators: `%`, `||` and the comparisons.
    Binary(BinOp, Box<Node<'a>>, Box<Node<'a>>),
    Between {
        expr: Box<Node<'a>>,
        negated: bool,
        low: Box<Node<'a>>,
        high: Box<Node<'a>>,
    },
    InList {
        expr: Box<Node<'a>>,
        negated: bool,
        list: Vec<Node<'a>>,
    },
    InSubquery {
        expr: Box<Node<'a>>,
        negated: bool,
        query: &'a Subquery,
    },
    Exists {
        negated: bool,
        query: &'a Subquery,
    },
    Like {
        expr: Box<Node<'a>>,
        negated: bool,
        pattern: Box<Node<'a>>,
    },
    /// `LIKE` against a constant string, compiled.
    LikeConst {
        expr: Box<Node<'a>>,
        negated: bool,
        pattern: LikePattern,
    },
    IsNull {
        expr: Box<Node<'a>>,
        negated: bool,
    },
    Case {
        operand: Option<Box<Node<'a>>>,
        branches: Vec<(Node<'a>, Node<'a>)>,
        else_branch: Option<Box<Node<'a>>>,
    },
    /// Position in [`EvalCtx::aggs`].
    Agg(usize),
    Extract {
        field: IntervalUnit,
        expr: Box<Node<'a>>,
    },
    Substring {
        expr: Box<Node<'a>>,
        start: Box<Node<'a>>,
        length: Option<Box<Node<'a>>>,
    },
    Subquery(&'a Subquery),
}

/// A conjunct that tests one column against constants — the shape zone
/// maps can bound and a scan can decide on stored values.
pub(crate) enum ColTest<'p> {
    /// `col op value` for every `(op, value)` of `bounds`: one comparison,
    /// mirrored if the constant stood on the left, or the `>= low` and
    /// `<= high` of a `BETWEEN` that is not negated.
    Cmp {
        slot: usize,
        bounds: Vec<(BinOp, &'p Value)>,
    },
    /// `col [NOT] LIKE 'pattern'`.
    Like {
        slot: usize,
        negated: bool,
        pattern: &'p LikePattern,
    },
}

impl<'a> Prepared<'a> {
    /// Lower `e` for evaluation in `scope`. `agg_keys` names the
    /// aggregates [`EvalCtx::aggs`] will carry, in order (empty outside
    /// an aggregation). Never fails: whatever cannot be resolved becomes
    /// an error raised when evaluation reaches it.
    pub fn new(e: &'a Expr, scope: Scope<'a>, mode: ArithMode, agg_keys: &[String]) -> Self {
        let node = Node::lower(e, scope, mode, agg_keys);
        let typed = node.typed(scope.schema);
        Prepared {
            node,
            scope,
            mode,
            typed,
        }
    }

    /// Evaluate a numeric expression without building a [`Value`]: the
    /// typed walk, for numeric columns, constants, negation and `+ - * /`.
    /// The number (`Ok(None)` is NULL) or fault is [`Self::eval`]'s value
    /// or error; `None`: evaluate this row with [`Self::eval_ref`]. The
    /// fault stays a [`Fault`] for the caller to raise: a wider return
    /// slows every row.
    #[inline]
    pub fn eval_num(&self, row: &[Value]) -> Option<Result<Option<Num>, Fault>> {
        if !self.typed {
            return None;
        }
        self.node.num(row, self.mode)
    }

    /// Evaluate to a value the caller owns.
    pub fn eval(&self, row: &[Value], ctx: &EvalCtx<'_>) -> EngineResult<Value> {
        self.eval_ref(row, ctx).map(Cow::into_owned)
    }

    /// Evaluate without cloning a bare column or constant.
    pub fn eval_ref<'r>(
        &'r self,
        row: &'r [Value],
        ctx: &EvalCtx<'r>,
    ) -> EngineResult<Cow<'r, Value>> {
        self.node.ev(row, self.scope, ctx)
    }

    /// Evaluate as one conjunct of a conjunction: NULL is `None`.
    pub fn truth(&self, row: &[Value], ctx: &EvalCtx<'_>) -> EngineResult<Option<bool>> {
        truth(&*self.eval_ref(row, ctx)?)
    }

    /// Evaluate as a predicate; NULL counts as false (SQL WHERE
    /// semantics).
    pub fn filter(&self, row: &[Value], ctx: &EvalCtx<'_>) -> EngineResult<bool> {
        match &*self.eval_ref(row, ctx)? {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(EngineError::Type(format!(
                "filter must be boolean, got {}",
                other.type_name()
            ))),
        }
    }

    /// The column-against-constants shape of this expression, if it has
    /// one. Constants are what preparation made of them, so `date ±
    /// interval` bounds and outer references qualify.
    pub(crate) fn col_test(&self) -> Option<ColTest<'_>> {
        match &self.node {
            Node::Binary(op, l, r) if op.is_comparison() => match (&**l, &**r) {
                (Node::Col(slot), Node::Const(value)) => Some(ColTest::Cmp {
                    slot: *slot,
                    bounds: vec![(*op, value)],
                }),
                (Node::Const(value), Node::Col(slot)) => Some(ColTest::Cmp {
                    slot: *slot,
                    bounds: vec![(op.mirrored()?, value)],
                }),
                _ => None,
            },
            Node::Between {
                expr,
                negated: false,
                low,
                high,
            } => match (&**expr, &**low, &**high) {
                (Node::Col(slot), Node::Const(low), Node::Const(high)) => Some(ColTest::Cmp {
                    slot: *slot,
                    bounds: vec![(BinOp::GtEq, low), (BinOp::LtEq, high)],
                }),
                _ => None,
            },
            Node::LikeConst {
                expr,
                negated,
                pattern,
            } => match &**expr {
                Node::Col(slot) => Some(ColTest::Like {
                    slot: *slot,
                    negated: *negated,
                    pattern,
                }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// The value of a column-free expression: the constant preparing it in
/// `mode` folds it to ([`Prepared`]), `None` where it reads a row or its
/// evaluation fails.
pub(crate) fn constant(e: &Expr, mode: ArithMode) -> Option<Value> {
    let schema = Schema::new();
    let scope = Scope {
        schema: &schema,
        outer: None,
    };
    match Node::lower(e, scope, mode, &[]) {
        Node::Const(v) => Some(v),
        _ => None,
    }
}

impl<'a> Node<'a> {
    fn lower(e: &'a Expr, scope: Scope<'a>, mode: ArithMode, agg_keys: &[String]) -> Node<'a> {
        let sub = |x: &'a Expr| Box::new(Node::lower(x, scope, mode, agg_keys));
        let node = match e {
            Expr::Col { slot, .. } => Node::Col(*slot),
            Expr::Outer(c) => match resolve_outer(c, scope.schema, scope.outer) {
                Ok(OuterRef::Local(slot)) => Node::Col(slot),
                Ok(OuterRef::Value(v)) => Node::Const(v),
                Err(e) => Node::Fail(e),
            },
            Expr::OutputCol(_) => Node::Fail(EngineError::Unsupported(
                "output-column reference outside ORDER BY".into(),
            )),
            Expr::Bool(b) => Node::Const(Value::Bool(*b)),
            Expr::Literal(l) => match literal(l) {
                Ok(v) => Node::Const(v),
                Err(e) => Node::Fail(e),
            },
            Expr::Wildcard => Node::Fail(EngineError::Type("bare * outside count(*)".into())),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => Node::Neg(sub(expr)),
                UnaryOp::Not => Node::Not(sub(expr)),
            },
            Expr::Binary { left, op, right } => match op {
                BinOp::And => Node::And(sub(left), sub(right)),
                BinOp::Or => Node::Or(sub(left), sub(right)),
                BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div => {
                    let (l, r) = (sub(left), sub(right));
                    let typed = l.typed(scope.schema) && r.typed(scope.schema);
                    Node::Arith {
                        op: *op,
                        l,
                        r,
                        typed,
                    }
                }
                op => Node::Binary(*op, sub(left), sub(right)),
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => Node::Between {
                expr: sub(expr),
                negated: *negated,
                low: sub(low),
                high: sub(high),
            },
            Expr::InList {
                expr,
                negated,
                list,
            } => Node::InList {
                expr: sub(expr),
                negated: *negated,
                list: list
                    .iter()
                    .map(|x| Node::lower(x, scope, mode, agg_keys))
                    .collect(),
            },
            Expr::InSubquery {
                expr,
                negated,
                query,
            } => Node::InSubquery {
                expr: sub(expr),
                negated: *negated,
                query,
            },
            Expr::Exists { negated, query } => Node::Exists {
                negated: *negated,
                query,
            },
            Expr::Like {
                expr,
                negated,
                pattern,
            } => match *sub(pattern) {
                Node::Const(Value::Str(p)) => Node::LikeConst {
                    expr: sub(expr),
                    negated: *negated,
                    pattern: LikePattern::new(&p),
                },
                pattern => Node::Like {
                    expr: sub(expr),
                    negated: *negated,
                    pattern: Box::new(pattern),
                },
            },
            Expr::IsNull { expr, negated } => Node::IsNull {
                expr: sub(expr),
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => Node::Case {
                operand: operand.as_deref().map(sub),
                branches: branches
                    .iter()
                    .map(|(w, t)| {
                        (
                            Node::lower(w, scope, mode, agg_keys),
                            Node::lower(t, scope, mode, agg_keys),
                        )
                    })
                    .collect(),
                else_branch: else_branch.as_deref().map(sub),
            },
            Expr::Function {
                name,
                distinct,
                args,
            } => {
                if sqalpel_sql::ast::is_aggregate(name) {
                    let key = agg_key(name, *distinct, args.first());
                    match agg_keys.iter().position(|k| *k == key) {
                        Some(i) => Node::Agg(i),
                        None => Node::Fail(EngineError::Type(format!(
                            "aggregate {name} used outside aggregation context"
                        ))),
                    }
                } else {
                    Node::Fail(EngineError::Unsupported(format!("function {name}")))
                }
            }
            Expr::Extract { field, expr } => Node::Extract {
                field: *field,
                expr: sub(expr),
            },
            Expr::Substring {
                expr,
                start,
                length,
            } => Node::Substring {
                expr: sub(expr),
                start: sub(start),
                length: length.as_deref().map(sub),
            },
            Expr::Subquery(q) => Node::Subquery(q),
        };
        node.hoisted(scope, mode)
    }

    /// Replace a node whose operands are all constants by its value,
    /// unless evaluating it fails.
    fn hoisted(self, scope: Scope<'a>, mode: ArithMode) -> Node<'a> {
        fn is_const(n: &Node<'_>) -> bool {
            matches!(n, Node::Const(_))
        }
        let column_free = match &self {
            Node::Const(_)
            | Node::Col(_)
            | Node::Fail(_)
            | Node::Agg(_)
            | Node::InSubquery { .. }
            | Node::Exists { .. }
            | Node::Subquery(_) => false,
            Node::Neg(x) | Node::Not(x) => is_const(x),
            Node::And(l, r)
            | Node::Or(l, r)
            | Node::Binary(_, l, r)
            | Node::Arith { l, r, .. } => is_const(l) && is_const(r),
            Node::Between {
                expr, low, high, ..
            } => is_const(expr) && is_const(low) && is_const(high),
            Node::InList { expr, list, .. } => is_const(expr) && list.iter().all(is_const),
            Node::Like { expr, pattern, .. } => is_const(expr) && is_const(pattern),
            Node::LikeConst { expr, .. }
            | Node::IsNull { expr, .. }
            | Node::Extract { expr, .. } => is_const(expr),
            Node::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().is_none_or(is_const)
                    && branches.iter().all(|(w, t)| is_const(w) && is_const(t))
                    && else_branch.as_deref().is_none_or(is_const)
            }
            Node::Substring {
                expr,
                start,
                length,
            } => is_const(expr) && is_const(start) && length.as_deref().is_none_or(is_const),
        };
        if !column_free {
            return self;
        }
        let ctx = EvalCtx::new(&NoSubqueries, mode);
        let value = self.ev(&[], scope, &ctx).map(Cow::into_owned);
        match value {
            Ok(v) => Node::Const(v),
            Err(_) => self,
        }
    }

    fn ev<'r>(
        &'r self,
        row: &'r [Value],
        scope: Scope<'r>,
        ctx: &EvalCtx<'r>,
    ) -> EngineResult<Cow<'r, Value>> {
        let owned = |v: Value| Ok(Cow::Owned(v));
        match self {
            Node::Const(v) => Ok(Cow::Borrowed(v)),
            Node::Col(slot) => Ok(Cow::Borrowed(&row[*slot])),
            Node::Fail(e) => Err(e.clone()),
            Node::Neg(x) => owned(value::negate(&*x.ev(row, scope, ctx)?)?),
            Node::Not(x) => owned(match &*x.ev(row, scope, ctx)? {
                Value::Null => Value::Null,
                Value::Bool(b) => Value::Bool(!b),
                other => {
                    return Err(EngineError::Type(format!(
                        "NOT requires boolean, got {}",
                        other.type_name()
                    )))
                }
            }),
            // Kleene short-circuit for the boolean connectives.
            Node::And(l, r) => {
                let l = truth(&*l.ev(row, scope, ctx)?)?;
                if l == Some(false) {
                    return owned(Value::Bool(false));
                }
                let r = truth(&*r.ev(row, scope, ctx)?)?;
                owned(tv(kleene_and(l, r)))
            }
            Node::Or(l, r) => {
                let l = truth(&*l.ev(row, scope, ctx)?)?;
                if l == Some(true) {
                    return owned(Value::Bool(true));
                }
                let r = truth(&*r.ev(row, scope, ctx)?)?;
                owned(tv(kleene_or(l, r)))
            }
            Node::Arith { op, l, r, typed } => {
                if *typed {
                    if let Some(n) = self.num(row, ctx.mode) {
                        return owned(n?.map_or(Value::Null, Num::value));
                    }
                }
                // Not number-shaped, or a column held a non-number.
                let lv = l.ev(row, scope, ctx)?;
                let rv = r.ev(row, scope, ctx)?;
                owned(match op {
                    BinOp::Plus => value::add(&lv, &rv, ctx.mode)?,
                    BinOp::Minus => value::sub(&lv, &rv, ctx.mode)?,
                    BinOp::Mul => value::mul(&lv, &rv, ctx.mode)?,
                    _ => value::div(&lv, &rv)?,
                })
            }
            Node::Binary(op, l, r) => {
                let lv = l.ev(row, scope, ctx)?;
                let rv = r.ev(row, scope, ctx)?;
                owned(match op {
                    BinOp::Mod => value::rem(&lv, &rv)?,
                    BinOp::Concat => value::concat(&lv, &rv)?,
                    cmp => tv(compare_tv(&lv, &rv, *cmp)?),
                })
            }
            Node::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = expr.ev(row, scope, ctx)?;
                let lo = low.ev(row, scope, ctx)?;
                let hi = high.ev(row, scope, ctx)?;
                let ge = compare_tv(&v, &lo, BinOp::GtEq)?;
                let le = compare_tv(&v, &hi, BinOp::LtEq)?;
                owned(negate_tv(kleene_and(ge, le), *negated))
            }
            Node::InList {
                expr,
                negated,
                list,
            } => {
                let v = expr.ev(row, scope, ctx)?;
                if v.is_null() {
                    return owned(Value::Null);
                }
                let mut found = false;
                for item in list {
                    if value::group_eq(&v, &*item.ev(row, scope, ctx)?) {
                        found = true;
                        break;
                    }
                }
                owned(Value::Bool(found != *negated))
            }
            Node::InSubquery {
                expr,
                negated,
                query,
            } => {
                let v = expr.ev(row, scope, ctx)?;
                if v.is_null() {
                    return owned(Value::Null);
                }
                let rows = ctx.runner.run_subquery(query.plan()?, &scope.env(row))?;
                let mut found = false;
                for r in rows.iter() {
                    let cell = r
                        .first()
                        .ok_or_else(|| EngineError::Type("IN subquery with no columns".into()))?;
                    if value::group_eq(&v, cell) {
                        found = true;
                        break;
                    }
                }
                owned(Value::Bool(found != *negated))
            }
            Node::Exists { negated, query } => {
                let rows = ctx.runner.run_subquery(query.plan()?, &scope.env(row))?;
                owned(Value::Bool(rows.is_empty() == *negated))
            }
            Node::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = expr.ev(row, scope, ctx)?;
                let p = pattern.ev(row, scope, ctx)?;
                match (&*v, &*p) {
                    (Value::Null, _) | (_, Value::Null) => owned(Value::Null),
                    (Value::Str(s), Value::Str(pat)) => {
                        owned(Value::Bool(value::like_match(s, pat) != *negated))
                    }
                    _ => Err(EngineError::Type(format!(
                        "LIKE requires strings, got {} and {}",
                        v.type_name(),
                        p.type_name()
                    ))),
                }
            }
            Node::LikeConst {
                expr,
                negated,
                pattern,
            } => match &*expr.ev(row, scope, ctx)? {
                Value::Null => owned(Value::Null),
                Value::Str(s) => owned(Value::Bool(pattern.matches(s) != *negated)),
                other => Err(EngineError::Type(format!(
                    "LIKE requires strings, got {} and varchar",
                    other.type_name()
                ))),
            },
            Node::IsNull { expr, negated } => {
                owned(Value::Bool(expr.ev(row, scope, ctx)?.is_null() != *negated))
            }
            Node::Case {
                operand,
                branches,
                else_branch,
            } => {
                let op_val = operand
                    .as_ref()
                    .map(|o| o.ev(row, scope, ctx))
                    .transpose()?;
                for (when, then) in branches {
                    let wv = when.ev(row, scope, ctx)?;
                    let hit = match &op_val {
                        Some(ov) => value::group_eq(ov, &wv),
                        None => matches!(&*wv, Value::Bool(true)),
                    };
                    if hit {
                        return then.ev(row, scope, ctx);
                    }
                }
                match else_branch {
                    Some(e) => e.ev(row, scope, ctx),
                    None => owned(Value::Null),
                }
            }
            Node::Agg(i) => match ctx.aggs {
                Some(values) => Ok(Cow::Borrowed(&values[*i])),
                None => Err(EngineError::Type(
                    "aggregate used outside aggregation context".into(),
                )),
            },
            Node::Extract { field, expr } => match &*expr.ev(row, scope, ctx)? {
                Value::Null => owned(Value::Null),
                Value::Date(d) => {
                    let date = sqalpel_datagen::calendar::from_days(*d);
                    owned(Value::Int(match field {
                        IntervalUnit::Year => date.year as i64,
                        IntervalUnit::Month => date.month as i64,
                        IntervalUnit::Day => date.day as i64,
                    }))
                }
                other => Err(EngineError::Type(format!(
                    "EXTRACT requires a date, got {}",
                    other.type_name()
                ))),
            },
            Node::Substring {
                expr,
                start,
                length,
            } => {
                let v = expr.ev(row, scope, ctx)?;
                let s = start.ev(row, scope, ctx)?;
                let l = length
                    .as_ref()
                    .map(|l| l.ev(row, scope, ctx))
                    .transpose()?;
                match (&*v, &*s) {
                    (Value::Null, _) | (_, Value::Null) => owned(Value::Null),
                    (Value::Str(text), Value::Int(start1)) => {
                        let begin = (*start1 - 1).max(0) as usize;
                        let take = match l.as_deref() {
                            Some(Value::Int(n)) => (*n).max(0) as usize,
                            Some(other) => {
                                return Err(EngineError::Type(format!(
                                    "SUBSTRING length must be integer, got {}",
                                    other.type_name()
                                )))
                            }
                            None => usize::MAX,
                        };
                        owned(Value::Str(text.chars().skip(begin).take(take).collect()))
                    }
                    _ => Err(EngineError::Type(format!(
                        "SUBSTRING requires (string, integer), got ({}, {})",
                        v.type_name(),
                        s.type_name()
                    ))),
                }
            }
            Node::Subquery(q) => {
                let rows = ctx.runner.run_subquery(q.plan()?, &scope.env(row))?;
                match rows.len() {
                    0 => owned(Value::Null),
                    1 => rows[0]
                        .first()
                        .cloned()
                        .map(Cow::Owned)
                        .ok_or_else(|| EngineError::Type("scalar subquery with no columns".into())),
                    n => Err(EngineError::ScalarCardinality(format!("{n} rows"))),
                }
            }
        }
    }
}

impl Node<'_> {
    /// Whether the typed walk can take this node: a numeric or NULL
    /// constant, a column whose type is numeric or unknown, a negation
    /// of such a node, or typed arithmetic.
    fn typed(&self, schema: &Schema) -> bool {
        match self {
            Node::Const(v) => Num::of(v).is_some(),
            Node::Col(slot) => schema.get(*slot).is_some_and(|c| {
                matches!(c.ty, Ty::Int | Ty::Decimal | Ty::Float | Ty::Unknown)
            }),
            Node::Neg(x) => x.typed(schema),
            Node::Arith { typed, .. } => *typed,
            _ => false,
        }
    }

    /// The typed walk: a [`Node::typed`] subtree's number through
    /// [`value::arith`] (`Ok(None)` for NULL), or the row's fault. `None`
    /// where a column holds a non-number: the walk reads only columns and
    /// constants, so the boxed evaluator can take that row from the start.
    #[inline]
    fn num(&self, row: &[Value], mode: ArithMode) -> Option<Result<Option<Num>, Fault>> {
        Some(match self {
            Node::Const(v) => Ok(Num::of(v)?),
            Node::Col(slot) => Ok(Num::of(&row[*slot])?),
            Node::Neg(x) => x.num(row, mode)?.and_then(|n| n.map(Num::checked_neg).transpose()),
            // The left fault first, as the boxed evaluator raises it.
            Node::Arith { op, l, r, .. } => match (l.num(row, mode)?, r.num(row, mode)?) {
                (Ok(Some(a)), Ok(Some(b))) => value::arith(*op, a, b, mode).map(Some),
                (Err(f), _) | (_, Err(f)) => Err(f),
                _ => Ok(None),
            },
            _ => return None,
        })
    }
}

impl<'a> Scope<'a> {
    /// The environment a subquery sees as its outer row.
    fn env(&self, row: &'a [Value]) -> Env<'a> {
        Env {
            schema: self.schema,
            row,
            outer: self.outer,
        }
    }
}

/// Where an outer reference reads: a local slot or an enclosing value.
pub(crate) enum OuterRef {
    Local(usize),
    Value(Value),
}

/// Resolve an outer reference the way [`Env::resolve`] does — local
/// schema first, then up the chain — once per operator (RowStore) or
/// batch (ColStore): the enclosing row is fixed meanwhile, so a name found
/// there is a constant. Unresolved and ambiguous names error when reached.
pub(crate) fn resolve_outer(
    col: &sqalpel_sql::ColumnRef,
    schema: &Schema,
    outer: Option<&Env<'_>>,
) -> EngineResult<OuterRef> {
    match resolve_name(schema, col)? {
        Some(slot) => Ok(OuterRef::Local(slot)),
        None => match outer {
            Some(outer) => outer.resolve(col).map(OuterRef::Value),
            None => Err(EngineError::UnknownColumn(col.to_string())),
        },
    }
}

/// The value of a literal.
pub fn literal(l: &Literal) -> EngineResult<Value> {
    Ok(match l {
        Literal::Integer(i) => Value::Int(*i),
        // A decimal literal with at most 4 fractional digits is fixed
        // point at scale 4, so guarded arithmetic stays in the decimal
        // domain. One with more digits, whose products guarded `*` would
        // cut at scale 6, or whose scale-4 raw leaves `i128`, is the
        // float its digits read as.
        Literal::Decimal { raw, scale } => {
            match (*scale <= 4).then(|| raw.checked_mul(value::scale_factor(*scale, 4))) {
                Some(Some(raw)) => Value::Decimal { raw, scale: 4 },
                _ => Value::Float(format!("{raw}e-{scale}").parse().expect("decimal digits")),
            }
        }
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::Str(s.clone()),
        Literal::Date(text) => Value::Date(
            sqalpel_datagen::calendar::parse_days(text)
                .ok_or_else(|| EngineError::Type(format!("invalid date literal '{text}'")))?,
        ),
        Literal::Interval { value, unit } => {
            let scale = if *unit == IntervalUnit::Year { 12 } else { 1 };
            let count = value.checked_mul(scale).and_then(|n| i32::try_from(n).ok());
            let overflow = || EngineError::Overflow(format!("interval '{value}' {}", unit.sql()));
            let (months, days) = match (unit, count.ok_or_else(overflow)?) {
                (IntervalUnit::Day, n) => (0, n),
                (_, n) => (n, 0),
            };
            Value::Interval { months, days }
        }
        Literal::Null => Value::Null,
    })
}

/// Three-valued comparison.
fn compare_tv(a: &Value, b: &Value, op: BinOp) -> EngineResult<Option<bool>> {
    Ok(value::compare(a, b)?.map(|o| value::ordering_holds(o, op)))
}

fn truth(v: &Value) -> EngineResult<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
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
            AggFunc::Sum | AggFunc::Avg => match Num::of(v) {
                Some(Some(n)) => self.add(n)?,
                _ => {
                    return Err(EngineError::Type(format!(
                        "cannot sum {}",
                        v.type_name()
                    )))
                }
            },
            AggFunc::Min | AggFunc::Max => self.fold_extreme(v)?,
        }
        Ok(())
    }

    /// Keep `v` as the min (max) if it is below (above) the one held, so
    /// a tie keeps the value seen first.
    fn fold_extreme(&mut self, v: &Value) -> EngineResult<()> {
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
        Ok(())
    }

    /// `update(Some(&n.value()))` without the [`Value`]: the entry point
    /// for an `i64`, an `f64` or an `(i128, scale)` input.
    #[inline]
    pub fn update_num(&mut self, n: Num) -> EngineResult<()> {
        if self.seen.is_some() || matches!(self.func, AggFunc::Min | AggFunc::Max) {
            // DISTINCT needs the key image, min/max keep the value.
            return self.update(Some(&n.value()));
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => Ok(()),
            _ => self.add(n),
        }
    }

    /// Add to a sum: integers and decimals exactly in guarded mode,
    /// anything else as a float.
    #[inline]
    fn add(&mut self, n: Num) -> EngineResult<()> {
        match (self.mode, n) {
            (ArithMode::GuardedDecimal, Num::Int(i)) => self.add_decimal(i as i128, 0),
            (ArithMode::GuardedDecimal, Num::Decimal { raw, scale }) => {
                self.add_decimal(raw, scale)
            }
            _ => {
                self.add_float(n.f64());
                Ok(())
            }
        }
    }

    /// Add a float. The first one turns the sum into a float sum, and the
    /// exact decimal sum so far is folded into it first.
    #[inline]
    fn add_float(&mut self, f: f64) {
        if self.sum_is_decimal {
            self.turn_float();
        }
        self.sum_f += f;
    }

    /// Turn a decimal sum into a float sum holding the same amount. A
    /// float sum keeps no decimal part: `sum_d` is zero from here on.
    fn turn_float(&mut self) {
        self.sum_f += decimal_to_f64(self.sum_d, self.sum_scale);
        self.sum_d = 0;
        self.sum_scale = 0;
        self.sum_is_decimal = false;
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
            self.sum_f += decimal_to_f64(raw, scale);
            return Ok(());
        }
        // The fixed-point `+` of `value::arith`; at one scale, without
        // its rescaling.
        (self.sum_d, self.sum_scale) = if scale == self.sum_scale {
            (value::fixed_sum(BinOp::Plus, self.sum_d, raw)?, scale)
        } else {
            value::fixed_arith(BinOp::Plus, self.sum_d, self.sum_scale, raw, scale)?
        };
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
                    // `other` folded its decimal part into `sum_f` when
                    // it turned float.
                    self.add_float(other.sum_f);
                }
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(v) = &other.extreme {
                    self.fold_extreme(v)?;
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
                        decimal_to_f64(self.sum_d, self.sum_scale) / self.count as f64,
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

    fn eval_in(
        src: &str,
        sch: &Schema,
        row: &[Value],
        outer: Option<&Env<'_>>,
        mode: ArithMode,
    ) -> EngineResult<Value> {
        let e = bound(src, sch)?;
        let scope = Scope {
            schema: sch,
            outer,
        };
        Prepared::new(&e, scope, mode, &[]).eval(row, &EvalCtx::new(&NoSubqueries, mode))
    }

    fn eval_str(src: &str, sch: &Schema, row: &[Value]) -> EngineResult<Value> {
        eval_in(src, sch, row, None, ArithMode::Float)
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
        // Decimals at scales 0, 2, 4 and 6 among integers and a NULL: the
        // sum is exact at the widest scale, 11.734499.
        let values: Vec<Value> = vec![
            Value::Int(5),
            Value::Null,
            Value::Decimal { raw: 250, scale: 2 },
            Value::Int(-3),
            Value::Decimal { raw: 7, scale: 0 },
            Value::decimal(12_345, 4),
            Value::decimal(-1_000_001, 6),
        ];
        // Sums past `i128`, in the add and in widening the running sum.
        let overflows = [
            (
                [Value::decimal(i128::MAX - 1, 2), Value::decimal(2, 2)],
                "numeric overflow: decimal +",
            ),
            (
                [Value::decimal(i128::MAX / 10, 0), Value::decimal(1, 6)],
                "numeric overflow: decimal rescale",
            ),
        ];
        let update = |a: &mut Accumulator, v: &Value| a.update(Some(v));
        for (name, func) in funcs {
            let spec = AggSpec {
                func,
                distinct: false,
                arg: None,
                key: format!("{name}(x)"),
            };
            let mode = ArithMode::GuardedDecimal;
            let sequential = fold(&spec, mode, &values, update).unwrap().finish();
            if func == AggFunc::Sum {
                assert_eq!(
                    format!("{sequential:?}"),
                    "Decimal { raw: 11734499, scale: 6 }"
                );
            }
            // Split at every point, accumulate the halves separately, merge.
            let halves = |values: &[Value], split: usize| {
                let mut lo = fold(&spec, mode, &values[..split], update)?;
                lo.merge(&fold(&spec, mode, &values[split..], update)?)?;
                Ok::<_, EngineError>(lo)
            };
            for split in 0..=values.len() {
                assert_eq!(
                    format!("{:?}", halves(&values, split).unwrap().finish()),
                    format!("{sequential:?}"),
                    "{name} split at {split}"
                );
            }
            if !matches!(func, AggFunc::Sum | AggFunc::Avg) {
                continue;
            }
            for (values, want) in &overflows {
                let fault = fold(&spec, mode, values, update).unwrap_err();
                assert_eq!(fault.to_string(), *want, "{name}");
                for split in 0..=values.len() {
                    let fault = halves(values, split).unwrap_err();
                    assert_eq!(fault.to_string(), *want, "{name} split at {split}");
                }
            }
        }
    }

    fn spec_of(func: AggFunc, distinct: bool) -> AggSpec {
        AggSpec {
            func,
            distinct,
            arg: None,
            key: format!("{func:?}(x)"),
        }
    }

    #[test]
    fn a_float_after_decimals_keeps_the_decimal_part() {
        // 1.50 + 0.5 + 2.50: the exact sum is folded into the float sum
        // when the float arrives, in `update` and in `merge` alike.
        let values = [Value::decimal(150, 2), Value::Float(0.5), Value::decimal(250, 2)];
        for (func, want) in [(AggFunc::Sum, 4.5), (AggFunc::Avg, 1.5)] {
            let spec = spec_of(func, false);
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
                assert!(
                    matches!(lo.finish(), Value::Float(f) if f == want),
                    "{func:?} split at {split}: {:?}",
                    lo.finish()
                );
            }
        }
    }

    /// One input of the typed-entry-point property: small numbers most of
    /// the time, the edges of `i64` and `i128` some of the time.
    fn input(kind: u8, bits: i64, scale: u8, small: bool) -> Value {
        let n = if small { bits % 1000 } else { bits };
        match kind {
            0 if small => Value::Int(n),
            0 => Value::Int([i64::MIN, i64::MAX, n][n.rem_euclid(3) as usize]),
            1 if small => Value::decimal(n as i128, scale),
            1 => {
                let edges = [i128::MIN / 3, i128::MAX / 3, n as i128];
                Value::decimal(edges[n.rem_euclid(3) as usize], scale)
            }
            2 => Value::Float(n as f64 / 8.0),
            _ => Value::Null,
        }
    }

    /// The typed entry point for what `update(Some(v))` folds.
    fn typed(acc: &mut Accumulator, v: &Value) -> EngineResult<()> {
        match Num::of(v) {
            Some(Some(n)) => acc.update_num(n),
            Some(None) => Ok(()), // callers skip NULLs
            None => acc.update(Some(v)),
        }
    }

    fn fold(
        spec: &AggSpec,
        mode: ArithMode,
        values: &[Value],
        feed: fn(&mut Accumulator, &Value) -> EngineResult<()>,
    ) -> EngineResult<Accumulator> {
        let mut acc = Accumulator::new(spec, mode);
        for v in values {
            feed(&mut acc, v)?;
        }
        Ok(acc)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// The typed entry point is `update` of the value it stands for,
        /// in both modes, for every aggregate: the same result bits or
        /// the same error. The runs mix integers, decimals of scales 0–4,
        /// floats and NULLs, so decimal sums turn float part way; and a
        /// split folded with `merge` is the same either way too. A guarded
        /// sum of small inputs also equals the sum of their floats, which
        /// is what losing the decimal part at the turn would break.
        #[test]
        fn update_num_is_update(
            seed in proptest::prelude::any::<u64>(),
            small in proptest::prelude::any::<bool>(),
        ) {
            // A splitmix-style expansion of the seed into a run.
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 11
            };
            let len = next() as usize % 10;
            let values: Vec<Value> = (0..len)
                .map(|_| {
                    let (kind, bits, scale) = (next() % 4, next() as i64 - (1 << 52), next() % 5);
                    input(kind as u8, bits, scale as u8, small)
                })
                .collect();
            let split = next() as usize % (len + 1);
            for mode in [ArithMode::Float, ArithMode::GuardedDecimal] {
                for func in
                    [AggFunc::Sum, AggFunc::Count, AggFunc::Avg, AggFunc::Min, AggFunc::Max]
                {
                    for distinct in [false, true] {
                        let spec = spec_of(func, distinct);
                        let boxed = fold(&spec, mode, &values, |a, v| a.update(Some(v)));
                        let fast = fold(&spec, mode, &values, typed);
                        let shown = |r: &EngineResult<Accumulator>| {
                            format!("{:?}", r.as_ref().map(Accumulator::finish))
                        };
                        proptest::prop_assert_eq!(
                            shown(&fast),
                            shown(&boxed),
                            "{:?} {:?} {:?}", func, mode, values
                        );
                        if distinct {
                            continue;
                        }
                        let halves = |feed: fn(&mut Accumulator, &Value) -> EngineResult<()>| {
                            let mut lo = fold(&spec, mode, &values[..split], feed)?;
                            lo.merge(&fold(&spec, mode, &values[split..], feed)?)?;
                            Ok(lo)
                        };
                        proptest::prop_assert_eq!(
                            shown(&halves(typed)),
                            shown(&halves(|a, v| a.update(Some(v)))),
                            "{:?} {:?} split at {}", func, mode, split
                        );
                        if let (true, AggFunc::Sum, Ok(acc)) = (small, func, &boxed) {
                            let want: f64 = values.iter().filter_map(Value::as_f64).sum();
                            let got = acc.finish().as_f64().unwrap_or(0.0);
                            proptest::prop_assert!(
                                (got - want).abs() < 1e-6,
                                "{} vs {} over {:?}", got, want, values
                            );
                        }
                    }
                }
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
        let outer = Env {
            schema: &outer_sch,
            row: &outer_row,
            outer: None,
        };
        let inner_sch = schema(&["y"]);
        let inner_row = vec![Value::Int(1)];
        // `x` does not resolve locally, so it binds as an outer reference.
        assert!(bound("x + y", &inner_sch).unwrap().contains_outer());
        let v = eval_in("x + y", &inner_sch, &inner_row, Some(&outer), ArithMode::Float);
        assert!(matches!(v.unwrap(), Value::Int(100)));
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
        match eval_in("0.05", &sch, &row, None, ArithMode::GuardedDecimal).unwrap() {
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
