//! AST → IR lowering: name resolution against a plan-node schema.
//!
//! [`resolve_name`] is the one resolution rule, here and at run time
//! (`Env::resolve` calls it for every scope it climbs): a qualified name
//! matches on `(binding, column)`, an unqualified name on `column` alone,
//! two hits are ambiguous, and a miss is *not* an error here — it becomes
//! an [`Expr::Outer`] reference. Those references are what correlation is
//! read from; one that escapes the statement's outermost block is refused
//! by [`crate::plan::Planner::bind`]. A subquery comes out of
//! [`bind_expr`] as a [`Subquery`] node holding its SQL; the planner binds
//! its body once, while binding the block it stands in
//! (`crate::ir::unnest`), and the body's escaping `Outer`s say whether it
//! is correlated: the unnesting pass turns the
//! ones in `WHERE` equalities into join keys, and a body left in place
//! runs once if it has none and per outer row otherwise. After binding
//! nothing reads the SQL again: projection pruning protects the names of
//! the `Outer`s in the bound tree and in every bound body left in place,
//! and CTE pushdown is gated on the tables and CTEs those bodies scan.

use crate::error::{EngineError, EngineResult};
use crate::ir::expr::{Expr, Subquery};
use crate::plan::Schema;
use sqalpel_sql::ast;

/// Resolve a column reference against a schema. `Ok(None)` means "no local
/// match" (a potential outer/correlated reference).
pub fn resolve_name(schema: &Schema, c: &ast::ColumnRef) -> EngineResult<Option<usize>> {
    let mut found = None;
    for (i, m) in schema.iter().enumerate() {
        let hit = match &c.table {
            Some(t) => m.binding == *t && m.name == c.column,
            None => m.name == c.column,
        };
        if hit {
            if found.is_some() {
                return Err(EngineError::AmbiguousColumn(c.to_string()));
            }
            found = Some(i);
        }
    }
    Ok(found)
}

/// Lower an AST expression against `schema`. Purely structural except for
/// column references; a subquery becomes an unbound [`Subquery`] node.
pub fn bind_expr(e: &ast::Expr, schema: &Schema) -> EngineResult<Expr> {
    let bind = |e: &ast::Expr| bind_expr(e, schema);
    let bindb = |e: &ast::Expr| bind_expr(e, schema).map(Box::new);
    Ok(match e {
        ast::Expr::Column(c) => match resolve_name(schema, c)? {
            Some(slot) => Expr::Col { slot, ty: schema[slot].ty },
            None => Expr::Outer(c.clone()),
        },
        ast::Expr::Literal(l) => Expr::Literal(l.clone()),
        ast::Expr::Unary { op, expr } => Expr::Unary { op: *op, expr: bindb(expr)? },
        ast::Expr::Binary { left, op, right } => Expr::Binary {
            left: bindb(left)?,
            op: *op,
            right: bindb(right)?,
        },
        ast::Expr::Between { expr, negated, low, high } => Expr::Between {
            expr: bindb(expr)?,
            negated: *negated,
            low: bindb(low)?,
            high: bindb(high)?,
        },
        ast::Expr::InList { expr, negated, list } => Expr::InList {
            expr: bindb(expr)?,
            negated: *negated,
            list: list.iter().map(bind).collect::<EngineResult<_>>()?,
        },
        ast::Expr::InSubquery { expr, negated, query } => Expr::InSubquery {
            expr: bindb(expr)?,
            negated: *negated,
            query: Box::new(Subquery::new(query)),
        },
        ast::Expr::Exists { negated, query } => Expr::Exists {
            negated: *negated,
            query: Box::new(Subquery::new(query)),
        },
        ast::Expr::Like { expr, negated, pattern } => Expr::Like {
            expr: bindb(expr)?,
            negated: *negated,
            pattern: bindb(pattern)?,
        },
        ast::Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: bindb(expr)?,
            negated: *negated,
        },
        ast::Expr::Case { operand, branches, else_branch } => Expr::Case {
            operand: operand.as_deref().map(&bindb).transpose()?,
            branches: branches
                .iter()
                .map(|(w, t)| Ok((bind(w)?, bind(t)?)))
                .collect::<EngineResult<_>>()?,
            else_branch: else_branch.as_deref().map(&bindb).transpose()?,
        },
        ast::Expr::Function { name, distinct, args } => Expr::Function {
            name: name.clone(),
            distinct: *distinct,
            args: args.iter().map(bind).collect::<EngineResult<_>>()?,
        },
        ast::Expr::Extract { field, expr } => Expr::Extract { field: *field, expr: bindb(expr)? },
        ast::Expr::Substring { expr, start, length } => Expr::Substring {
            expr: bindb(expr)?,
            start: bindb(start)?,
            length: length.as_deref().map(&bindb).transpose()?,
        },
        ast::Expr::Subquery(q) => Expr::Subquery(Box::new(Subquery::new(q))),
        ast::Expr::Wildcard => Expr::Wildcard,
    })
}

/// Lower an `ORDER BY` key: a bare name matching an output-item name binds
/// to the *output column* (alias-first precedence, checked before schema
/// resolution — this preserves the engines' historical tie-break).
pub fn bind_order_key(
    e: &ast::Expr,
    schema: &Schema,
    item_names: &[String],
) -> EngineResult<Expr> {
    if let ast::Expr::Column(c) = e {
        if c.table.is_none() {
            if let Some(i) = item_names.iter().position(|n| *n == c.column) {
                return Ok(Expr::OutputCol(i));
            }
        }
    }
    bind_expr(e, schema)
}
