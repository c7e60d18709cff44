//! Abstract syntax tree for the analytic SQL subset understood by sqalpel.
//!
//! The subset covers all 22 TPC-H queries (including their `WITH` / view-free
//! rewrites), the SSB queries and ad-hoc single-table queries: `SELECT`
//! with expressions and aggregates, comma joins and `[LEFT] [OUTER] JOIN ..
//! ON`, `WHERE` with the full predicate language (comparisons, `BETWEEN`,
//! `IN` lists and subqueries, `EXISTS`, `LIKE`, `IS NULL`, boolean
//! operators), scalar subqueries, `CASE`, `EXTRACT`, `SUBSTRING`, `GROUP
//! BY` / `HAVING`, `ORDER BY` and `LIMIT`.

use std::fmt;

/// A full query: optional CTEs, a select body, ordering and limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH name AS (query), ...` common table expressions.
    pub ctes: Vec<Cte>,
    pub body: Select,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// A query with just a body and no CTEs/ordering/limit.
    pub fn simple(body: Select) -> Self {
        Query {
            ctes: Vec::new(),
            body,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// One `WITH` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    pub name: String,
    pub query: Query,
}

/// The `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...` core.
#[derive(Debug, Clone, PartialEq)]
#[derive(Default)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}


/// A single projection-list element.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

impl SelectItem {
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }

    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem::Expr {
            expr,
            alias: Some(alias.into()),
        }
    }
}

/// One element of the `FROM` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `name [alias]`
    Table { name: String, alias: Option<String> },
    /// `(query) alias` — a derived table.
    Subquery { query: Box<Query>, alias: String },
    /// `left [LEFT OUTER] JOIN right ON condition`
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        on: Expr,
    },
}

impl TableRef {
    pub fn table(name: impl Into<String>) -> Self {
        TableRef::Table {
            name: name.into(),
            alias: None,
        }
    }

    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef::Table {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name this relation is referred to by: the alias when present,
    /// the base table name otherwise.
    pub fn binding(&self) -> Option<&str> {
        match self {
            TableRef::Table { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// `ORDER BY` element.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Binary operators, both arithmetic and boolean/comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl BinOp {
    /// Render as SQL.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Plus => "+",
            BinOp::Minus => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Concat => "||",
        }
    }

    /// True for comparison operators that yield booleans from scalars.
    pub fn is_comparison(self) -> bool {
        self.mirrored().is_some()
    }

    /// The comparison that holds of `b op' a` exactly when `self` holds
    /// of `a op b`; `None` for an operator that is not a comparison.
    pub fn mirrored(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq | BinOp::NotEq => self,
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Interval units used in date arithmetic (`interval '3' month`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalUnit {
    Day,
    Month,
    Year,
}

impl IntervalUnit {
    pub fn sql(self) -> &'static str {
        match self {
            IntervalUnit::Day => "day",
            IntervalUnit::Month => "month",
            IntervalUnit::Year => "year",
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Integer(i64),
    Decimal(f64),
    String(String),
    /// `date 'YYYY-MM-DD'`, kept textual; the engine parses it to days.
    Date(String),
    /// `interval 'n' unit`
    Interval { value: i64, unit: IntervalUnit },
    Null,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Scalar and boolean expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    Between {
        expr: Box<Expr>,
        negated: bool,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    InList {
        expr: Box<Expr>,
        negated: bool,
        list: Vec<Expr>,
    },
    InSubquery {
        expr: Box<Expr>,
        negated: bool,
        query: Box<Query>,
    },
    Exists {
        negated: bool,
        query: Box<Query>,
    },
    Like {
        expr: Box<Expr>,
        negated: bool,
        pattern: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Case {
        /// `CASE operand WHEN v THEN r ...` — `None` for searched CASE.
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
    /// Function call: aggregates (`sum`, `avg`, `min`, `max`, `count`)
    /// and scalars (`substring`, ...). `count(*)` is `Function` with a
    /// single [`Expr::Wildcard`] argument.
    Function {
        name: String,
        distinct: bool,
        args: Vec<Expr>,
    },
    /// `EXTRACT(field FROM expr)`
    Extract {
        field: IntervalUnit,
        expr: Box<Expr>,
    },
    /// `SUBSTRING(expr FROM start [FOR length])`
    Substring {
        expr: Box<Expr>,
        start: Box<Expr>,
        length: Option<Box<Expr>>,
    },
    /// Scalar subquery `(select ...)`.
    Subquery(Box<Query>),
    /// `*` inside `count(*)`.
    Wildcard,
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column(ColumnRef::bare(name))
    }

    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Self {
        Expr::Column(ColumnRef::qualified(table, name))
    }

    pub fn int(v: i64) -> Self {
        Expr::Literal(Literal::Integer(v))
    }

    pub fn dec(v: f64) -> Self {
        Expr::Literal(Literal::Decimal(v))
    }

    pub fn str(v: impl Into<String>) -> Self {
        Expr::Literal(Literal::String(v.into()))
    }

    pub fn date(v: impl Into<String>) -> Self {
        Expr::Literal(Literal::Date(v.into()))
    }

    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Self {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinOp::Or, right)
    }

    pub fn eq(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinOp::Eq, right)
    }

    /// Fold a list of predicates into a conjunction; `None` when empty.
    pub fn conjoin(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }

    /// Split a conjunction into its top-level AND factors.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinOp::And,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Visit every sub-expression (pre-order), including `self`.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard | Expr::Subquery(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Extract { expr, .. } => {
                expr.visit(f)
            }
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
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
            Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Exists { .. } => {}
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    op.visit(f);
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
            Expr::Substring {
                expr,
                start,
                length,
            } => {
                expr.visit(f);
                start.visit(f);
                if let Some(l) = length {
                    l.visit(f);
                }
            }
        }
    }

    /// Collect all column references in this expression (not descending
    /// into subqueries).
    pub fn columns(&self) -> Vec<&ColumnRef> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Column(c) = e {
                cols.push(c);
            }
        });
        cols
    }

    /// True when the expression contains an aggregate function call
    /// (`sum`, `count`, `avg`, `min`, `max`), not descending into
    /// subqueries.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// True for the aggregate function names the engine understands.
pub fn is_aggregate(name: &str) -> bool {
    matches!(name, "sum" | "count" | "avg" | "min" | "max")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_splits_nested_ands() {
        let e = Expr::and(
            Expr::and(Expr::col("a"), Expr::col("b")),
            Expr::or(Expr::col("c"), Expr::col("d")),
        );
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &Expr::col("a"));
        assert!(matches!(parts[2], Expr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn conjoin_round_trips() {
        let preds = vec![Expr::col("a"), Expr::col("b"), Expr::col("c")];
        let combined = Expr::conjoin(preds).unwrap();
        assert_eq!(combined.conjuncts().len(), 3);
        assert_eq!(Expr::conjoin(Vec::new()), None);
    }

    #[test]
    fn columns_collects_qualified_and_bare() {
        let e = Expr::binary(
            Expr::qcol("l", "tax"),
            BinOp::Plus,
            Expr::binary(Expr::col("disc"), BinOp::Mul, Expr::int(2)),
        );
        let cols = e.columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].table.as_deref(), Some("l"));
        assert_eq!(cols[1].column, "disc");
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let e = Expr::binary(
            Expr::int(1),
            BinOp::Plus,
            Expr::Function {
                name: "sum".into(),
                distinct: false,
                args: vec![Expr::col("x")],
            },
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn binding_prefers_alias() {
        assert_eq!(TableRef::aliased("lineitem", "l1").binding(), Some("l1"));
        assert_eq!(TableRef::table("nation").binding(), Some("nation"));
    }
}
