//! Plan-time subquery unnesting: semi, anti and group joins.
//!
//! The binder leaves every `WHERE` conjunct that mentions a subquery in
//! the filter on top of its block, the subquery not bound yet. Run per
//! block (by `Planner::bind_select`, before the fixed-point rewriter),
//! this pass binds each such body with the same [`Planner`] — so the
//! body's own conjuncts are already unnested — and, under the `rewrite`
//! flag, reads its correlation off the [`Expr::Outer`] references the
//! binder left behind and rewrites three shapes:
//!
//! * `[NOT] EXISTS (body)`, correlated by at least one equality: the
//!   correlated conjuncts are pulled out of the body's core, equalities
//!   between a hashable outer and inner side become the keys of a
//!   [`JoinKind::Semi`] / [`JoinKind::Anti`] join against what is left of
//!   the core, every other correlated conjunct its residual;
//! * `x [NOT] IN (body)`: the same with `(x, body item)` as a further key.
//!   An aggregated body must be uncorrelated and joins as a derived table;
//! * `x cmp (select agg-expr ... where inner = outer ...)`: an inner join
//!   against a derived table that groups the body by its correlation
//!   columns, the comparison left behind as a filter over the joined row.
//!
//! The rewrites reproduce the evaluator in [`crate::eval`] exactly, not
//! textbook SQL. `IN` there matches with [`crate::value::group_eq`] and
//! yields NULL (row dropped, `NOT IN` too) for a NULL probe, so a probe
//! that may be NULL is filtered `IS NOT NULL` first: the anti join would
//! keep it. A NULL *in* the set never matches and never poisons `NOT
//! IN`, and `inner = outer` is never true for a NULL: the hash joins
//! match no key holding NULL, on either side. Keys are only taken
//! between sides of one statically known type in which hash-key equality
//! is comparison equality (int, string, date): decimals turn into floats
//! under the row engine's arithmetic and a float never hashes like the
//! decimal it compares equal to. An aggregate over an empty group must be
//! NULL for the group join to drop the row where `x < NULL` did, which
//! rules out `count`.
//!
//! Both join kinds probe from the outer side and emit outer rows in input
//! order, and a group join matches each outer row at most once, so with
//! the join-order optimizer off the result is byte-identical to per-row
//! evaluation, float sums included.
//!
//! Everything else stays on the per-row [`crate::eval::SubqueryRunner`]
//! path; the choice depends on the query's shape alone. This pass is also
//! where every subquery of a block is bound, exactly once, in the order
//! EXPLAIN notes them (so `$sqN` names do not depend on how a plan is
//! used): each body is bound as a block of the statement, and one that
//! stays — every one, with the rewriter off — is then finished as a query
//! of its own into its [`Subquery`] node, with the outer references that
//! make it correlated. Each subquery left in place also gets a line in
//! [`BoundQuery::subquery_notes`] saying how it runs and why.

use crate::ir::bind::resolve_name;
use crate::ir::cost::CardHints;
use crate::ir::expr::{Expr, Subquery, SubqueryPlan, Ty};
use crate::ir::memo::split_sides;
use crate::plan::{BoundQuery, JoinKind, OutputItem, Plan, Planner, Schema};
use sqalpel_sql::ast::{self, BinOp, ColumnRef, UnaryOp};
use std::mem;
use std::sync::Arc;

/// Unnest the subquery conjuncts of one freshly bound block (rewriter on),
/// bind every subquery that stays, and note why each one stays.
pub(crate) fn unnest(planner: &mut Planner, bq: &mut BoundQuery) {
    let rewrite = planner.rewrites();
    let mut notes = Vec::new();
    let mut from_notes = Vec::new();
    let where_has_subquery =
        matches!(&bq.core, Plan::Filter { predicate, .. } if predicate.contains_subquery());
    if rewrite && where_has_subquery {
        let Plan::Filter { input, predicate } = mem::replace(&mut bq.core, placeholder()) else {
            unreachable!("checked above")
        };
        let mut cur = *input;
        note_plan(planner, &mut cur, &mut from_notes);
        let mut kept = Vec::new();
        for c in predicate.conjuncts() {
            let mut c = c.clone();
            if !c.contains_subquery() {
                kept.push(c);
                continue;
            }
            match try_unnest(planner, &mut c, &mut cur, &mut notes) {
                Ok(replacement) => kept.extend(replacement),
                Err(stays) => {
                    note_conjunct(planner, &mut c, stays, &mut notes);
                    kept.push(c);
                }
            }
        }
        bq.core = match Expr::conjoin(kept) {
            Some(predicate) => Plan::Filter {
                input: Box::new(cur),
                predicate,
            },
            None => cur,
        };
    } else {
        note_plan(planner, &mut bq.core, &mut from_notes);
    }
    notes.append(&mut from_notes);
    for (e, place) in tail_exprs(bq) {
        note_expr(planner, e, place, &mut notes);
    }
    if rewrite {
        bq.subquery_notes.append(&mut notes);
    }
}

/// The expressions of a block outside its FROM/WHERE tree, each with
/// where it stands.
fn tail_exprs(bq: &mut BoundQuery) -> impl Iterator<Item = (&mut Expr, &'static str)> {
    bq.items
        .iter_mut()
        .map(|it| (&mut it.expr, "in the SELECT list"))
        .chain(bq.group_by.iter_mut().map(|g| (g, "in GROUP BY")))
        .chain(bq.having.iter_mut().map(|h| (h, "in HAVING")))
        .chain(bq.order_by.iter_mut().map(|(k, _)| (k, "in ORDER BY")))
}

fn placeholder() -> Plan {
    Plan::Cte {
        name: String::new(),
        binding: String::new(),
        schema: Vec::new(),
    }
}

// ---------------------------------------------------------------- binding

/// Bind every subquery in `e` that is not bound yet.
fn bind_subqueries(planner: &mut Planner, e: &mut Expr) {
    e.visit_mut(&mut |x| {
        let sub = match x {
            Expr::Subquery(sub)
            | Expr::InSubquery { query: sub, .. }
            | Expr::Exists { query: sub, .. } => sub,
            _ => return,
        };
        if sub.bound.is_none() {
            sub.bound = Some(
                planner
                    .bind_query(&sub.sql)
                    .map(|body| finished(planner, body)),
            );
        }
    });
}

/// A body bound by [`Planner::bind_query`] as it will run in place: with
/// the outer references read off it, then rewritten, pruned and optimized
/// as a query of its own.
fn finished(planner: &Planner, mut query: BoundQuery) -> Arc<SubqueryPlan> {
    let outer_refs = escaping_refs(&query);
    planner.finish(&mut query, &CardHints::default());
    Arc::new(SubqueryPlan { query, outer_refs })
}

// ----------------------------------------------------------------- shapes

/// Why a subquery conjunct stays in the filter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stays {
    /// One of the three shapes with an uncorrelated body: it runs once.
    Cached,
    /// One of the three shapes, re-run per outer row for this reason.
    PerRow(&'static str),
    /// Not one of the three shapes: where the subquery stands is why.
    Elsewhere,
}

/// One of the three shapes: the subquery node, and what stands around it.
struct Shape<'a> {
    kind: Kind<'a>,
    sub: &'a mut Subquery,
}

enum Kind<'a> {
    Exists {
        negated: bool,
    },
    In {
        probe: &'a Expr,
        negated: bool,
    },
    /// `other op (query)`, or `(query) op other` when `sub_on_left`.
    Scalar {
        op: BinOp,
        other: &'a Expr,
        sub_on_left: bool,
    },
}

fn shape_of(c: &mut Expr) -> Option<Shape<'_>> {
    match c {
        // The parser spells `NOT EXISTS (..)` as a NOT over EXISTS. Both
        // predicates pass NULL through a NOT unchanged (EXISTS is never
        // NULL, IN is NULL exactly when NOT IN is), so the negation folds
        // into the shape.
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            let Shape { kind, sub } = shape_of(expr)?;
            let kind = match kind {
                Kind::Exists { negated } => Kind::Exists { negated: !negated },
                Kind::In { probe, negated } => Kind::In {
                    probe,
                    negated: !negated,
                },
                Kind::Scalar { .. } => return None,
            };
            Some(Shape { kind, sub })
        }
        Expr::Exists { negated, query } => Some(Shape {
            kind: Kind::Exists { negated: *negated },
            sub: query,
        }),
        Expr::InSubquery {
            expr,
            negated,
            query,
        } if !expr.contains_subquery() => Some(Shape {
            kind: Kind::In {
                probe: expr,
                negated: *negated,
            },
            sub: query,
        }),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let op = *op;
            let sub_on_left = matches!(**left, Expr::Subquery(_)) && !right.contains_subquery();
            let (sub, other) = if sub_on_left {
                (left, right)
            } else {
                (right, left)
            };
            match sub.as_mut() {
                Expr::Subquery(sub) if !other.contains_subquery() => Some(Shape {
                    kind: Kind::Scalar {
                        op,
                        other,
                        sub_on_left,
                    },
                    sub,
                }),
                _ => None,
            }
        }
        _ => None,
    }
}

/// A subquery body taken apart: what is left of it once the correlated
/// conjuncts are out, and those conjuncts split into hash keys and rest.
struct Body {
    bq: BoundQuery,
    /// `(outer side over the enclosing schema, inner side over bq.core)`.
    keys: Vec<(Expr, Expr)>,
    /// Over enclosing schema ++ `bq.core` schema.
    residual: Vec<Expr>,
}

impl Body {
    fn correlated(&self) -> bool {
        !self.keys.is_empty() || !self.residual.is_empty()
    }
}

/// Split the correlation off a bound body. `Err` says why the body has to
/// stay on the per-row path.
fn decompose(mut bq: BoundQuery, outer: &Schema) -> Result<Body, Stays> {
    let mut pulled = Vec::new();
    bq.core = pull_correlated(mem::replace(&mut bq.core, placeholder()), 0, &mut pulled);
    // Whatever outer reference is still inside cannot become a join
    // condition: select list, HAVING, an ON clause, a derived table, the
    // null-padded side of an outer join, or a nested subquery that looks
    // past this body.
    if escaping_refs(&bq).is_none_or(|refs| !refs.is_empty()) {
        return Err(Stays::PerRow("correlated outside a WHERE conjunct"));
    }

    let width = outer.len();
    let inner_width = bq.core.width();
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for mut c in pulled {
        if c.contains_subquery() {
            return Err(Stays::PerRow("subquery inside the correlated predicate"));
        }
        // Into the frame of the join residual: outer columns first.
        c.map_slots(&|s| s + width);
        let mut unresolved = false;
        c.visit_mut(&mut |e| {
            if let Expr::Outer(name) = e {
                match resolve_name(outer, name) {
                    Ok(Some(slot)) => {
                        *e = Expr::Col {
                            slot,
                            ty: outer[slot].ty,
                        }
                    }
                    _ => unresolved = true,
                }
            }
        });
        if unresolved {
            return Err(Stays::PerRow("references two scopes up"));
        }
        match split_sides(&c, 0, width, width, inner_width) {
            Some((outer, inner)) if hashable_pair(&outer, &inner) => keys.push((outer, inner)),
            _ => residual.push(c),
        }
    }
    Ok(Body { bq, keys, residual })
}

/// Remove every conjunct that mentions an outer reference from the
/// filters of `p`, rebased onto `p`'s own output schema (`off` is where
/// `p` starts in it). Filters commute with the inputs of inner joins and
/// with the preserved (left) input of the other kinds; nothing is pulled
/// from anywhere else.
fn pull_correlated(p: Plan, off: usize, out: &mut Vec<Expr>) -> Plan {
    match p {
        Plan::Filter { input, predicate } => {
            let input = pull_correlated(*input, off, out);
            let mut keep = Vec::new();
            for c in predicate.conjuncts() {
                if c.contains_outer() {
                    out.push(c.shifted(off));
                } else {
                    keep.push(c.clone());
                }
            }
            match Expr::conjoin(keep) {
                Some(predicate) => Plan::Filter {
                    input: Box::new(input),
                    predicate,
                },
                None => input,
            }
        }
        Plan::Join {
            left,
            right,
            kind,
            equi,
            residual,
        } => {
            let left_width = left.width();
            let left = pull_correlated(*left, off, out);
            let right = if kind == JoinKind::Inner {
                pull_correlated(*right, off + left_width, out)
            } else {
                *right
            };
            Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                equi,
                residual,
            }
        }
        leaf => leaf,
    }
}

/// Hash-key equality coincides with `=` / `group_eq` only where both
/// sides have one static type whose runtime values hash the way they
/// compare in both engines.
fn hashable_pair(a: &Expr, b: &Expr) -> bool {
    let ty = a.ty();
    ty == b.ty() && matches!(ty, Ty::Int | Ty::Str | Ty::Date)
}

// -------------------------------------------------------------- rewriting

/// Rewrite one subquery conjunct over `cur` into a join. `Ok` carries the
/// conjunct that replaces it in the filter (the comparison of a group
/// join; nothing for semi and anti joins); `Err` the reason it stays,
/// with `cur` untouched and the subquery in `c` bound if this got as far
/// as binding it.
fn try_unnest(
    planner: &mut Planner,
    c: &mut Expr,
    cur: &mut Plan,
    notes: &mut Vec<String>,
) -> Result<Option<Expr>, Stays> {
    let Shape { kind, sub } = shape_of(c).ok_or(Stays::Elsewhere)?;
    if matches!(kind, Kind::In { probe, .. } if probe.contains_outer()) {
        return Err(Stays::PerRow("probe references an enclosing block"));
    }
    if !sub.sql.ctes.is_empty() {
        return Err(Stays::PerRow("WITH inside"));
    }
    if sub.sql.limit.is_some() {
        return Err(Stays::PerRow("LIMIT inside"));
    }
    let body = match planner.bind_query(&sub.sql) {
        Ok(body) => body,
        Err(e) => {
            sub.bound = Some(Err(e));
            return Err(Stays::PerRow("does not bind at plan time"));
        }
    };
    let unnested = join_shape(planner, kind, body.clone(), cur, notes);
    if unnested.is_err() {
        sub.bound = Some(Ok(finished(planner, body)));
    }
    unnested
}

/// [`try_unnest`] once the body is bound: take `bq` apart and join it
/// into `cur`.
fn join_shape(
    planner: &mut Planner,
    kind: Kind<'_>,
    bq: BoundQuery,
    cur: &mut Plan,
    notes: &mut Vec<String>,
) -> Result<Option<Expr>, Stays> {
    let outer = &cur.schema();
    let body = decompose(bq, outer)?;
    match kind {
        Kind::Exists { negated } => {
            if !body.correlated() {
                return Err(Stays::Cached);
            }
            if body.bq.aggregated || body.bq.having.is_some() {
                return Err(Stays::PerRow("aggregate body under EXISTS"));
            }
            if body.keys.is_empty() {
                return Err(Stays::PerRow("no equality correlation"));
            }
            let Body {
                mut bq,
                keys,
                residual,
            } = body;
            notes.append(&mut bq.subquery_notes);
            semi_join(cur, bq.core, negated, keys, residual);
            Ok(None)
        }
        Kind::In { probe, negated } => {
            if body.bq.items.len() != 1 {
                return Err(Stays::PerRow("IN body with several columns"));
            }
            let Body {
                mut bq,
                mut keys,
                residual,
            } = body;
            let item = bq.items[0].expr.clone();
            let right = if bq.aggregated || bq.having.is_some() {
                if !keys.is_empty() || !residual.is_empty() {
                    return Err(Stays::PerRow("correlated aggregate body under IN"));
                }
                if bq.distinct {
                    return Err(Stays::PerRow("DISTINCT aggregate body"));
                }
                let key = Expr::Col {
                    slot: 0,
                    ty: bq.items[0].ty,
                };
                if !hashable_pair(probe, &key) {
                    return Err(Stays::PerRow("IN key type is not hashed exactly"));
                }
                keys.insert(0, (probe.clone(), key));
                Plan::Derived {
                    query: Box::new(bq),
                    binding: planner.fresh_derived_binding(),
                }
            } else {
                if !hashable_pair(probe, &item) {
                    return Err(Stays::PerRow("IN key type is not hashed exactly"));
                }
                keys.insert(0, (probe.clone(), item));
                notes.append(&mut bq.subquery_notes);
                bq.core
            };
            // A NULL probe yields NULL under IN and NOT IN alike.
            if !non_null(probe, cur) {
                let input = mem::replace(cur, placeholder());
                *cur = Plan::Filter {
                    input: Box::new(input),
                    predicate: Expr::IsNull {
                        expr: Box::new(probe.clone()),
                        negated: true,
                    },
                };
            }
            semi_join(cur, right, negated, keys, residual);
            Ok(None)
        }
        Kind::Scalar {
            op,
            other,
            sub_on_left,
        } => {
            if !body.correlated() {
                return Err(Stays::Cached);
            }
            let q = &body.bq;
            if q.items.len() != 1
                || !q.aggregated
                || !q.group_by.is_empty()
                || q.having.is_some()
                || q.distinct
            {
                return Err(Stays::PerRow("scalar body is not one plain aggregate"));
            }
            if !body.residual.is_empty() {
                return Err(Stays::PerRow("correlated by more than equalities"));
            }
            if body.keys.is_empty() {
                return Err(Stays::PerRow("no equality correlation"));
            }
            null_on_empty_group(&q.items[0].expr)?;
            let value_slot = outer.len() + body.keys.len();
            let value_ty = q.items[0].ty;
            group_join(planner, cur, body);
            let value = Box::new(Expr::Col {
                slot: value_slot,
                ty: value_ty,
            });
            let other = Box::new(other.clone());
            let (left, right) = if sub_on_left {
                (value, other)
            } else {
                (other, value)
            };
            Ok(Some(Expr::Binary { left, op, right }))
        }
    }
}

/// `cur := cur ⋉ right` (anti when `negated`). A key holding NULL
/// matches nothing in the hash tables, as `inner = outer` is never true
/// for a NULL.
fn semi_join(
    cur: &mut Plan,
    right: Plan,
    negated: bool,
    keys: Vec<(Expr, Expr)>,
    residual: Vec<Expr>,
) {
    let left = mem::replace(cur, placeholder());
    *cur = Plan::Join {
        left: Box::new(left),
        right: Box::new(right),
        kind: if negated {
            JoinKind::Anti
        } else {
            JoinKind::Semi
        },
        equi: keys,
        residual: Expr::conjoin(residual),
    };
}

/// `cur := cur ⋈ (body grouped by its correlation columns)`. The derived
/// table's columns are the group keys, then the aggregate.
fn group_join(planner: &mut Planner, cur: &mut Plan, body: Body) {
    let Body { mut bq, keys, .. } = body;
    // A NULL group, if there is one, matches no outer row: a key holding
    // NULL matches nothing, as `inner = outer` selects nothing for it.
    let (outer_keys, inner_keys): (Vec<Expr>, Vec<Expr>) = keys.into_iter().unzip();
    let value = bq.items.pop().expect("one item, checked by the caller");
    bq.items = inner_keys
        .iter()
        .enumerate()
        .map(|(i, k)| OutputItem {
            expr: k.clone(),
            name: format!("$k{i}"),
            ty: k.ty(),
        })
        .collect();
    bq.items.push(OutputItem {
        name: "$v".into(),
        ..value
    });
    bq.group_by = inner_keys;
    bq.order_by.clear();
    let equi = outer_keys
        .into_iter()
        .zip(&bq.items)
        .enumerate()
        .map(|(slot, (outer, item))| (outer, Expr::Col { slot, ty: item.ty }))
        .collect();
    let left = mem::replace(cur, placeholder());
    *cur = Plan::Join {
        left: Box::new(left),
        right: Box::new(Plan::Derived {
            query: Box::new(bq),
            binding: planner.fresh_derived_binding(),
        }),
        kind: JoinKind::Inner,
        equi,
        residual: None,
    };
}

/// Stored columns hold no NULLs, so a bare column that reaches a scan
/// without crossing the null-padded side of an outer join never is one.
fn non_null(e: &Expr, p: &Plan) -> bool {
    matches!(e, Expr::Col { slot, .. }
        if p.stored_column(*slot).is_some_and(|(_, _, null_padded)| !null_padded))
}

/// The scalar item must be NULL whenever its group is empty: built from
/// `min`/`max`/`sum`/`avg` over the body's own columns, literals and
/// NULL-propagating arithmetic, with an aggregate on at least one side.
fn null_on_empty_group(e: &Expr) -> Result<(), Stays> {
    const NOT_STRICT: Stays =
        Stays::PerRow("aggregate expression may be non-null on an empty group");
    /// `Ok(true)`: NULL over an empty group; `Ok(false)`: a constant.
    fn nulls(e: &Expr) -> Result<bool, Stays> {
        match e {
            Expr::Function { name, args, .. } if ast::is_aggregate(name) => match args.as_slice() {
                _ if name == "count" => Err(Stays::PerRow("count aggregate")),
                [arg] if !arg.contains_aggregate() && !arg.contains_subquery() => Ok(true),
                _ => Err(NOT_STRICT),
            },
            Expr::Literal(_) => Ok(false),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => nulls(expr),
            Expr::Binary {
                left,
                op: BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div,
                right,
            } => Ok(nulls(left)? | nulls(right)?),
            _ => Err(NOT_STRICT),
        }
    }
    if nulls(e)? {
        Ok(())
    } else {
        Err(NOT_STRICT)
    }
}

// ------------------------------------------------------ outer references

/// The subqueries directly inside `e`, as `(kind, node)`.
pub(crate) fn subqueries_of(e: &Expr) -> Vec<(&'static str, &Subquery)> {
    let mut out = Vec::new();
    e.visit(&mut |x| match x {
        Expr::Subquery(q) => out.push(("scalar", q.as_ref())),
        Expr::InSubquery { query, .. } => out.push(("in", query.as_ref())),
        Expr::Exists { query, .. } => out.push(("exists", query.as_ref())),
        _ => {}
    });
    out
}

/// The outer references that escape `bq`: every [`Expr::Outer`] in it,
/// plus — for each subquery left in it — the references of its body that
/// the schema it is evaluated against does not resolve. `None` when a
/// body did not bind, i.e. nothing can be said.
pub(crate) fn escaping_refs(bq: &BoundQuery) -> Option<Vec<ColumnRef>> {
    let mut found = Vec::new();
    let mut known = true;
    bq.each_expr(&mut |e, schema| {
        e.visit(&mut |x| {
            if let Expr::Outer(c) = x {
                found.push(c.clone());
            }
        });
        for (_, sub) in subqueries_of(e) {
            let refs = match &sub.bound {
                Some(Ok(plan)) => plan.outer_refs.as_ref(),
                _ => None,
            };
            let Some(refs) = refs else {
                known = false;
                continue;
            };
            let schema = schema();
            let unresolved = refs
                .iter()
                .filter(|r| !matches!(resolve_name(&schema, r), Ok(Some(_))));
            found.extend(unresolved.cloned());
        }
    });
    known.then_some(found)
}

// ------------------------------------------------------------------ notes

/// Note the subqueries of a conjunct that stays in the filter.
fn note_conjunct(planner: &mut Planner, c: &mut Expr, stays: Stays, notes: &mut Vec<String>) {
    let place = match (stays, &*c) {
        (Stays::Cached, _) => {
            for (kind, q) in subqueries_of(c) {
                notes.push(format!(
                    "cached: uncorrelated {kind} -- {}",
                    snippet(&q.sql)
                ));
            }
            return;
        }
        (Stays::PerRow(reason), _) => reason,
        (Stays::Elsewhere, Expr::Binary { op: BinOp::Or, .. }) => "under OR",
        (
            Stays::Elsewhere,
            Expr::Unary {
                op: UnaryOp::Not, ..
            },
        ) => "under NOT",
        (Stays::Elsewhere, _) => "inside an expression",
    };
    note_expr(planner, c, place, notes);
}

/// Bind the subqueries directly inside `e` and note each: cached when its
/// body has no outer reference (it runs once, whatever kept it from
/// becoming a join), per-row because of `place` otherwise.
fn note_expr(planner: &mut Planner, e: &mut Expr, place: &str, notes: &mut Vec<String>) {
    bind_subqueries(planner, e);
    for (kind, q) in subqueries_of(e) {
        let how = match &q.bound {
            Some(Ok(plan)) if !plan.correlated() => {
                format!("cached: uncorrelated {kind} ({place})")
            }
            _ => format!("per-row: {place}"),
        };
        notes.push(format!("{how} -- {}", snippet(&q.sql)));
    }
}

/// The join conditions and filters of a block's own FROM tree that
/// mention a subquery (derived tables are blocks of their own).
fn own_subquery_exprs<'a>(p: &'a mut Plan, out: &mut Vec<&'a mut Expr>) {
    match p {
        Plan::Scan { .. } | Plan::Cte { .. } | Plan::Derived { .. } => {}
        Plan::Filter { input, predicate } => {
            if predicate.contains_subquery() {
                out.push(predicate);
            }
            own_subquery_exprs(input, out);
        }
        Plan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            let conditions = equi.iter_mut().flat_map(|(l, r)| [l, r]).chain(residual);
            out.extend(conditions.filter(|e| e.contains_subquery()));
            own_subquery_exprs(left, out);
            own_subquery_exprs(right, out);
        }
    }
}

/// Bind and note the subqueries in the join conditions of this block's
/// own FROM tree (and, with the rewriter off, in its WHERE filter).
fn note_plan(planner: &mut Planner, p: &mut Plan, notes: &mut Vec<String>) {
    let mut found = Vec::new();
    own_subquery_exprs(p, &mut found);
    for e in found {
        note_expr(planner, e, "in a join condition", notes);
    }
}

/// The head of a subquery's SQL, enough to tell which one a note is about.
fn snippet(q: &ast::Query) -> String {
    const MAX: usize = 56;
    let text = q.to_string();
    let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
    if text.chars().count() <= MAX {
        return text;
    }
    let head: String = text.chars().take(MAX).collect();
    format!("{head}...")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Database;
    use sqalpel_sql::parse_query;

    fn bound(sql: &str) -> BoundQuery {
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sql).unwrap();
        Planner::new(&db).with_optimize(false).bind(&q).unwrap()
    }

    /// The joins of a core in pre-order, as `(kind, keys, has residual)`.
    fn joins(p: &Plan, out: &mut Vec<(JoinKind, usize, bool)>) {
        match p {
            Plan::Filter { input, .. } => joins(input, out),
            Plan::Join {
                left,
                right,
                kind,
                equi,
                residual,
            } => {
                out.push((*kind, equi.len(), residual.is_some()));
                joins(left, out);
                joins(right, out);
            }
            _ => {}
        }
    }

    fn joins_of(sql: &str) -> Vec<(JoinKind, usize, bool)> {
        let mut out = Vec::new();
        joins(&bound(sql).core, &mut out);
        out
    }

    #[test]
    fn correlated_exists_becomes_a_semi_join_with_the_rest_as_residual() {
        let j = joins_of(
            "select count(*) from lineitem l1 where exists (select * from lineitem l2 \
             where l2.l_orderkey = l1.l_orderkey and l2.l_suppkey <> l1.l_suppkey)",
        );
        assert_eq!(j, vec![(JoinKind::Semi, 1, true)]);
        let j = joins_of(
            "select count(*) from orders where not exists \
             (select * from lineitem where l_orderkey = o_orderkey)",
        );
        assert_eq!(j, vec![(JoinKind::Anti, 1, false)]);
    }

    #[test]
    fn in_becomes_a_semi_join_and_not_in_an_anti_join() {
        let j = joins_of(
            "select s_name from supplier where s_suppkey in (select ps_suppkey from partsupp)",
        );
        assert_eq!(j, vec![(JoinKind::Semi, 1, false)]);
        let j = joins_of(
            "select s_name from supplier where s_suppkey not in \
             (select ps_suppkey from partsupp where ps_availqty > 9000)",
        );
        assert_eq!(j, vec![(JoinKind::Anti, 1, false)]);
    }

    #[test]
    fn nullable_probe_gets_the_is_not_null_guard() {
        // o_custkey comes off the null-padded side of a left join.
        let b = bound(
            "select c_custkey from customer left join orders on c_custkey = o_custkey \
             where o_custkey not in (select s_suppkey from supplier)",
        );
        let text = crate::ir::explain(&b).text;
        assert!(text.contains("join anti"), "{text}");
        assert!(text.contains("IS NOT NULL"), "{text}");
        // A stored column needs none.
        let b = bound(
            "select c_custkey from customer where c_custkey not in \
             (select s_suppkey from supplier)",
        );
        let text = crate::ir::explain(&b).text;
        assert!(
            text.contains("join anti") && !text.contains("IS NOT NULL"),
            "{text}"
        );
    }

    #[test]
    fn correlated_scalar_aggregate_becomes_a_group_join() {
        let b = bound(sqalpel_sql::tpch::Q17);
        let text = crate::ir::explain(&b).text;
        assert!(text.contains("derived $sq1"), "{text}");
        assert!(text.contains("group by:"), "{text}");
        assert!(b.subquery_notes.is_empty(), "{:?}", b.subquery_notes);
        assert!(!text.contains("select 0.2"), "{text}");
    }

    #[test]
    fn shapes_outside_the_proof_stay_and_say_why() {
        let why = |sql: &str| bound(sql).subquery_notes.join("\n");
        let n = why(
            "select count(*) from orders where o_orderkey < 10 or exists \
             (select * from lineitem where l_orderkey = o_orderkey)",
        );
        assert!(n.starts_with("per-row: under OR"), "{n}");
        let n = why("select count(*) from orders where 0 < \
             (select count(*) from lineitem where l_orderkey = o_orderkey)");
        assert!(n.starts_with("per-row: count aggregate"), "{n}");
        let n = why("select count(*) from orders where exists \
             (select * from lineitem where l_quantity > o_totalprice)");
        assert!(n.starts_with("per-row: no equality correlation"), "{n}");
        let n = why("select count(*) from orders where o_orderkey in \
             (select l_orderkey from lineitem where l_orderkey = o_orderkey limit 1)");
        assert!(n.starts_with("per-row: LIMIT inside"), "{n}");
        let n = why(
            "select o_orderkey, (select count(*) from lineitem where l_orderkey = o_orderkey) \
             from orders",
        );
        assert!(n.starts_with("per-row: in the SELECT list"), "{n}");
        let n = why(
            "select count(*) from supplier where s_acctbal > (select avg(s_acctbal) from supplier)",
        );
        assert!(n.starts_with("cached: uncorrelated scalar"), "{n}");
        // Two scopes up: the innermost body reaches past partsupp to supplier.
        let n = why(
            "select count(*) from supplier where exists (select * from partsupp \
             where ps_suppkey = s_suppkey and exists (select * from lineitem \
             where l_partkey = ps_partkey and l_suppkey = s_suppkey))",
        );
        assert!(
            n.starts_with("per-row: correlated outside a WHERE conjunct"),
            "{n}"
        );
    }

    #[test]
    fn inexact_key_types_are_not_hashed() {
        // Decimal keys: the row engine computes them as floats.
        let n = bound(
            "select count(*) from orders where o_totalprice in \
             (select l_extendedprice from lineitem)",
        )
        .subquery_notes
        .join("\n");
        assert!(n.starts_with("cached: uncorrelated in (IN key type"), "{n}");
        let n = bound(
            "select count(*) from orders where o_totalprice in \
             (select l_extendedprice from lineitem where l_orderkey = o_orderkey)",
        )
        .subquery_notes
        .join("\n");
        assert!(n.starts_with("per-row: IN key type"), "{n}");
    }
}
