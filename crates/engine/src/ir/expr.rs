//! The typed expression IR: slot-resolved column references, inferred
//! types, and a canonical rendering used for aggregate keys, duplicate
//! elimination and plan fingerprints.

use crate::error::{EngineError, EngineResult};
use crate::plan::BoundQuery;
use sqalpel_sql::ast::{self, BinOp, ColumnRef, IntervalUnit, Literal, UnaryOp};
use std::fmt;
use std::sync::Arc;

/// Inferred expression / column type. `Unknown` is a honest "cannot tell
/// statically" (scalar subqueries, NULL literals, mixed CASE arms); the
/// engines remain dynamically typed at evaluation time, so `Unknown` only
/// costs rewrite opportunities, never correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Float,
    Decimal,
    Str,
    Date,
    Bool,
    Interval,
    Unknown,
}

impl Ty {
    pub fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Decimal => "decimal",
            Ty::Str => "varchar",
            Ty::Date => "date",
            Ty::Bool => "bool",
            Ty::Interval => "interval",
            Ty::Unknown => "?",
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A bound expression. Mirrors the AST shape (so lowering is structural),
/// but every name has been resolved at bind time:
///
/// * [`Expr::Col`] — a slot in the schema of the plan node this expression
///   is evaluated against;
/// * [`Expr::Outer`] — a reference that did not resolve locally and climbs
///   the runtime environment chain (correlation);
/// * [`Expr::OutputCol`] — an `ORDER BY` alias referencing a projected
///   output column by position;
/// * a subquery node ([`Subquery`]) holds its SQL and the one result of
///   binding its body, which the planner does while binding the block the
///   node stands in. The unnesting pass replaces the ones it can with
///   joins; the rest run their bound body when evaluation reaches them.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Col { slot: usize, ty: Ty },
    Outer(ColumnRef),
    OutputCol(usize),
    Literal(Literal),
    /// A folded boolean constant (produced by the rewriter only).
    Bool(bool),
    Unary { op: UnaryOp, expr: Box<Expr> },
    Binary { left: Box<Expr>, op: BinOp, right: Box<Expr> },
    Between { expr: Box<Expr>, negated: bool, low: Box<Expr>, high: Box<Expr> },
    InList { expr: Box<Expr>, negated: bool, list: Vec<Expr> },
    InSubquery { expr: Box<Expr>, negated: bool, query: Box<Subquery> },
    Exists { negated: bool, query: Box<Subquery> },
    Like { expr: Box<Expr>, negated: bool, pattern: Box<Expr> },
    IsNull { expr: Box<Expr>, negated: bool },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
    Function { name: String, distinct: bool, args: Vec<Expr> },
    Extract { field: IntervalUnit, expr: Box<Expr> },
    Substring { expr: Box<Expr>, start: Box<Expr>, length: Option<Box<Expr>> },
    Subquery(Box<Subquery>),
    Wildcard,
}

/// A subquery inside an expression. Its SQL is what [`Expr`]'s `Display`
/// and `PartialEq` — and so fingerprints — see; `bound` is the one result
/// of binding the body, `None` only until the planner reaches the block
/// the node stands in.
#[derive(Debug, Clone)]
pub struct Subquery {
    pub sql: ast::Query,
    /// The bind error is kept, not raised: SQL raises it only if
    /// evaluation reaches the subquery.
    pub bound: Option<Result<Arc<SubqueryPlan>, EngineError>>,
}

/// A subquery body bound, rewritten, pruned and optimized as a query of
/// its own, with what it reads from enclosing rows.
#[derive(Debug)]
pub struct SubqueryPlan {
    pub query: BoundQuery,
    /// The names the body leaves to an enclosing row, read off the bound
    /// tree; `None` when a subquery nested in it did not bind, so which
    /// names it reads cannot be told.
    pub outer_refs: Option<Vec<ColumnRef>>,
}

impl Subquery {
    pub fn new(sql: &ast::Query) -> Self {
        Subquery {
            sql: sql.clone(),
            bound: None,
        }
    }

    /// The bound body, or the error binding it raised.
    pub fn plan(&self) -> EngineResult<&SubqueryPlan> {
        match &self.bound {
            Some(Ok(plan)) => Ok(plan),
            Some(Err(e)) => Err(e.clone()),
            None => Err(EngineError::Unsupported(format!(
                "subquery never bound: {}",
                self.sql
            ))),
        }
    }
}

impl SubqueryPlan {
    /// Whether the body reads an enclosing row, so it must run per row;
    /// an uncorrelated body runs once.
    pub fn correlated(&self) -> bool {
        self.outer_refs.as_ref().is_none_or(|refs| !refs.is_empty())
    }
}

impl PartialEq for Subquery {
    fn eq(&self, other: &Self) -> bool {
        self.sql == other.sql
    }
}

impl fmt::Display for Subquery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql)
    }
}

impl Expr {
    pub fn eq_pair(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinOp::Eq,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinOp::And,
            right: Box::new(right),
        }
    }

    /// Left-fold a conjunction, mirroring `ast::Expr::conjoin`.
    pub fn conjoin(preds: Vec<Expr>) -> Option<Expr> {
        let mut it = preds.into_iter();
        let first = it.next()?;
        Some(it.fold(first, Expr::and))
    }

    /// Split nested `AND`s into a flat conjunct list.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary { left, op: BinOp::And, right } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Pre-order traversal. Like the AST's `visit`, subquery *bodies* are
    /// not descended into (they live in a different scope).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Col { .. }
            | Expr::Outer(_)
            | Expr::OutputCol(_)
            | Expr::Literal(_)
            | Expr::Bool(_)
            | Expr::Subquery(_)
            | Expr::Exists { .. }
            | Expr::Wildcard => {}
            Expr::Unary { expr, .. }
            | Expr::Extract { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Case { operand, branches, else_branch } => {
                if let Some(o) = operand {
                    o.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_branch {
                    e.visit(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Substring { expr, start, length } => {
                expr.visit(f);
                start.visit(f);
                if let Some(l) = length {
                    l.visit(f);
                }
            }
        }
    }

    /// Post-order mutable traversal: children first, then the node itself.
    /// `f` may replace the node it is handed; the replacement is not
    /// descended into. Subquery bodies are not visited (same rule as
    /// [`Expr::visit`]).
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        match self {
            Expr::Col { .. }
            | Expr::Outer(_)
            | Expr::OutputCol(_)
            | Expr::Literal(_)
            | Expr::Bool(_)
            | Expr::Subquery(_)
            | Expr::Exists { .. }
            | Expr::Wildcard => {}
            Expr::Unary { expr, .. }
            | Expr::Extract { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.visit_mut(f),
            Expr::Binary { left, right, .. } => {
                left.visit_mut(f);
                right.visit_mut(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit_mut(f);
                low.visit_mut(f);
                high.visit_mut(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_mut(f);
                for e in list {
                    e.visit_mut(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit_mut(f);
                pattern.visit_mut(f);
            }
            Expr::Case { operand, branches, else_branch } => {
                if let Some(o) = operand {
                    o.visit_mut(f);
                }
                for (w, t) in branches {
                    w.visit_mut(f);
                    t.visit_mut(f);
                }
                if let Some(e) = else_branch {
                    e.visit_mut(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit_mut(f);
                }
            }
            Expr::Substring { expr, start, length } => {
                expr.visit_mut(f);
                start.visit_mut(f);
                if let Some(l) = length {
                    l.visit_mut(f);
                }
            }
        }
        f(self);
    }

    /// In-place slot renumbering (used when predicates move across plan
    /// nodes and when pruning compacts scan schemas).
    pub fn map_slots(&mut self, f: &impl Fn(usize) -> usize) {
        self.visit_mut(&mut |e| {
            if let Expr::Col { slot, .. } = e {
                *slot = f(*slot);
            }
        });
    }

    /// A copy with every slot shifted by `delta`.
    pub fn shifted(&self, delta: usize) -> Expr {
        let mut e = self.clone();
        e.map_slots(&|s| s + delta);
        e
    }

    /// Every slot referenced by this expression (the bodies of subqueries
    /// left in place excluded — their references are tracked by name
    /// through the protected set).
    pub fn slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Col { slot, .. } = e {
                out.push(*slot);
            }
        });
        out
    }

    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if ast::is_aggregate(name) {
                    found = true;
                }
            }
        });
        found
    }

    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(
                e,
                Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
            ) {
                found = true;
            }
        });
        found
    }

    pub fn contains_outer(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Outer(_)) {
                found = true;
            }
        });
        found
    }

    /// Whether a predicate may run on parallel morsels: anything touching a
    /// subquery runner must stay sequential (the runner caches through a
    /// `RefCell`). Replaces the old AST-level `morsel::parallel_safe`.
    pub fn parallel_safe(&self) -> bool {
        !self.contains_subquery()
    }

    /// Static type of the expression. Conservative: `Unknown` whenever the
    /// dynamic engines could produce more than one type.
    pub fn ty(&self) -> Ty {
        match self {
            Expr::Col { ty, .. } => *ty,
            Expr::Outer(_) | Expr::OutputCol(_) | Expr::Subquery(_) | Expr::Wildcard => Ty::Unknown,
            Expr::Literal(l) => match l {
                Literal::Integer(_) => Ty::Int,
                // Decimal literals become fixed-point or float depending on
                // representability (see `eval::literal`).
                Literal::Decimal { .. } | Literal::Float(_) => Ty::Unknown,
                Literal::String(_) => Ty::Str,
                Literal::Date(_) => Ty::Date,
                Literal::Interval { .. } => Ty::Interval,
                Literal::Null => Ty::Unknown,
            },
            Expr::Bool(_) => Ty::Bool,
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => expr.ty(),
                UnaryOp::Not => Ty::Bool,
            },
            Expr::Binary { left, op, right } => match op {
                BinOp::And | BinOp::Or => Ty::Bool,
                op if op.is_comparison() => Ty::Bool,
                BinOp::Concat => Ty::Str,
                _ => match (left.ty(), right.ty()) {
                    (Ty::Int, Ty::Int) => Ty::Int,
                    (Ty::Date, Ty::Interval) | (Ty::Interval, Ty::Date) => Ty::Date,
                    (Ty::Float, t) | (t, Ty::Float) if t != Ty::Unknown => Ty::Float,
                    (Ty::Decimal, Ty::Decimal)
                    | (Ty::Decimal, Ty::Int)
                    | (Ty::Int, Ty::Decimal) => Ty::Decimal,
                    _ => Ty::Unknown,
                },
            },
            Expr::Between { .. }
            | Expr::InList { .. }
            | Expr::InSubquery { .. }
            | Expr::Exists { .. }
            | Expr::Like { .. }
            | Expr::IsNull { .. } => Ty::Bool,
            Expr::Case { branches, else_branch, .. } => {
                let mut ty = match branches.first() {
                    Some((_, t)) => t.ty(),
                    None => Ty::Unknown,
                };
                for (_, t) in branches.iter().skip(1) {
                    if t.ty() != ty {
                        ty = Ty::Unknown;
                    }
                }
                if let Some(e) = else_branch {
                    if e.ty() != ty {
                        ty = Ty::Unknown;
                    }
                }
                ty
            }
            Expr::Function { name, args, .. } => match name.as_str() {
                "count" => Ty::Int,
                "avg" => Ty::Float,
                "sum" | "min" | "max" => args.first().map(Expr::ty).unwrap_or(Ty::Unknown),
                _ => Ty::Unknown,
            },
            Expr::Extract { .. } => Ty::Int,
            Expr::Substring { .. } => Ty::Str,
        }
    }
}

/// Canonical rendering: fully parenthesized, slot-based (`#3`), stable
/// across equivalent name spellings. Used for aggregate keys, duplicate
/// conjunct elimination and (normalized further) plan fingerprints.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col { slot, .. } => write!(f, "#{slot}"),
            Expr::Outer(c) => write!(f, "outer({c})"),
            Expr::OutputCol(i) => write!(f, "out#{i}"),
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Not => write!(f, "(NOT {expr})"),
            },
            Expr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.sql()),
            Expr::Between { expr, negated, low, high } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::InList { expr, negated, list } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::InSubquery { expr, negated, query } => write!(
                f,
                "({expr} {}IN ({query}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Exists { negated, query } => write!(
                f,
                "({}EXISTS ({query}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like { expr, negated, pattern } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::IsNull { expr, negated } => write!(
                f,
                "({expr} IS {}NULL)",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Case { operand, branches, else_branch } => {
                f.write_str("(CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_branch {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END)")
            }
            Expr::Function { name, distinct, args } => {
                write!(f, "{name}(")?;
                if *distinct {
                    f.write_str("DISTINCT ")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Extract { field, expr } => {
                write!(f, "EXTRACT({} FROM {expr})", field.sql().to_uppercase())
            }
            Expr::Substring { expr, start, length } => {
                write!(f, "SUBSTRING({expr} FROM {start}")?;
                if let Some(l) = length {
                    write!(f, " FOR {l}")?;
                }
                f.write_str(")")
            }
            Expr::Subquery(q) => write!(f, "({q})"),
            Expr::Wildcard => f.write_str("*"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(slot: usize) -> Expr {
        Expr::Col { slot, ty: Ty::Int }
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and(Expr::and(col(0), col(1)), col(2));
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(format!("{}", parts[2]), "#2");
    }

    #[test]
    fn shifted_renumbers_all_slots() {
        let e = Expr::eq_pair(col(0), Expr::and(col(1), col(2)));
        assert_eq!(format!("{}", e.shifted(10)), "(#10 = (#11 and #12))");
    }

    #[test]
    fn slots_skip_subquery_bodies() {
        let q = Box::new(Subquery::new(&ast::Query::simple(ast::Select::default())));
        let e = Expr::and(col(3), Expr::Exists { negated: false, query: q });
        assert_eq!(e.slots(), vec![3]);
        assert!(!e.parallel_safe());
        assert!(e.contains_subquery());
    }

    #[test]
    fn type_inference_basics() {
        let bool_e = Expr::eq_pair(col(0), Expr::Literal(Literal::Integer(3)));
        assert_eq!(bool_e.ty(), Ty::Bool);
        let arith = Expr::Binary {
            left: Box::new(col(0)),
            op: BinOp::Plus,
            right: Box::new(Expr::Literal(Literal::Integer(1))),
        };
        assert_eq!(arith.ty(), Ty::Int);
        assert_eq!(Expr::Outer(ColumnRef::bare("x")).ty(), Ty::Unknown);
    }

    #[test]
    fn canonical_display_is_slot_based() {
        let e = Expr::Function {
            name: "sum".into(),
            distinct: true,
            args: vec![col(4)],
        };
        assert_eq!(e.to_string(), "sum(DISTINCT #4)");
    }
}
