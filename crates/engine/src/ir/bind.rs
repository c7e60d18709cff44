//! AST → IR lowering: name resolution against a plan-node schema.
//!
//! Resolution uses exactly the rule the runtime `Env::resolve` applies:
//! a qualified name matches on `(binding, column)`, an unqualified name on
//! `column` alone, two hits are ambiguous, and a miss is *not* an error —
//! it becomes an [`Expr::Outer`] reference. Those references are what
//! correlation is read from. A subquery comes out of [`bind_expr`] as a
//! [`Subquery`] node holding its SQL; the planner binds its body once,
//! while binding the block it stands in (`crate::ir::unnest`), and the
//! body's escaping `Outer`s say whether it is correlated: the unnesting
//! pass turns the ones in `WHERE` equalities into join keys, and a body
//! left in place runs once if it has none and per outer row otherwise.

use crate::error::{EngineError, EngineResult};
use crate::ir::expr::{Expr, Subquery};
use crate::plan::Schema;
use sqalpel_sql::ast;
use std::collections::HashSet;

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

/// Every column name mentioned anywhere in an expression, descending into
/// subquery bodies. Used to build the *protected* name set: a subquery
/// body's outer references resolve by name against the row it runs for,
/// so any name inside it may be a correlated reference into an enclosing
/// scan — those columns must survive projection pruning.
pub fn collect_expr_names(e: &ast::Expr, out: &mut HashSet<String>) {
    e.visit(&mut |x| match x {
        ast::Expr::Column(c) => {
            out.insert(c.column.clone());
        }
        ast::Expr::Subquery(q) => collect_query_names(q, out),
        ast::Expr::InSubquery { query, .. } => collect_query_names(query, out),
        ast::Expr::Exists { query, .. } => collect_query_names(query, out),
        _ => {}
    });
}

/// Deep column-name collection over a whole query (see
/// [`collect_expr_names`]).
pub fn collect_query_names(q: &ast::Query, out: &mut HashSet<String>) {
    for cte in &q.ctes {
        collect_query_names(&cte.query, out);
    }
    for item in &q.body.items {
        if let ast::SelectItem::Expr { expr, .. } = item {
            collect_expr_names(expr, out);
        }
    }
    for t in &q.body.from {
        collect_table_ref_names(t, out);
    }
    if let Some(sel) = &q.body.selection {
        collect_expr_names(sel, out);
    }
    for g in &q.body.group_by {
        collect_expr_names(g, out);
    }
    if let Some(h) = &q.body.having {
        collect_expr_names(h, out);
    }
    for o in &q.order_by {
        collect_expr_names(&o.expr, out);
    }
}

fn collect_table_ref_names(t: &ast::TableRef, out: &mut HashSet<String>) {
    match t {
        ast::TableRef::Table { .. } => {}
        ast::TableRef::Subquery { query, .. } => collect_query_names(query, out),
        ast::TableRef::Join { left, right, on, .. } => {
            collect_table_ref_names(left, out);
            collect_table_ref_names(right, out);
            collect_expr_names(on, out);
        }
    }
}

/// Every base-table name referenced anywhere in a query (descending into
/// subqueries and CTE bodies). Used to gate CTE predicate pushdown: a CTE
/// scanned by a subquery left in place must keep its unfiltered
/// materialization.
pub fn collect_query_tables(q: &ast::Query, out: &mut HashSet<String>) {
    for cte in &q.ctes {
        collect_query_tables(&cte.query, out);
    }
    for item in &q.body.items {
        if let ast::SelectItem::Expr { expr, .. } = item {
            collect_expr_tables(expr, out);
        }
    }
    for t in &q.body.from {
        collect_table_ref_tables(t, out);
    }
    if let Some(sel) = &q.body.selection {
        collect_expr_tables(sel, out);
    }
    for g in &q.body.group_by {
        collect_expr_tables(g, out);
    }
    if let Some(h) = &q.body.having {
        collect_expr_tables(h, out);
    }
    for o in &q.order_by {
        collect_expr_tables(&o.expr, out);
    }
}

fn collect_expr_tables(e: &ast::Expr, out: &mut HashSet<String>) {
    e.visit(&mut |x| match x {
        ast::Expr::Subquery(q) => collect_query_tables(q, out),
        ast::Expr::InSubquery { query, .. } => collect_query_tables(query, out),
        ast::Expr::Exists { query, .. } => collect_query_tables(query, out),
        _ => {}
    });
}

fn collect_table_ref_tables(t: &ast::TableRef, out: &mut HashSet<String>) {
    match t {
        ast::TableRef::Table { name, .. } => {
            out.insert(name.clone());
        }
        ast::TableRef::Subquery { query, .. } => collect_query_tables(query, out),
        ast::TableRef::Join { left, right, on, .. } => {
            collect_table_ref_tables(left, out);
            collect_table_ref_tables(right, out);
            collect_expr_tables(on, out);
        }
    }
}
