//! Rule-based plan rewriter: fixed point, deterministic rule order.
//!
//! Rules (applied bottom-up, then repeated until no rule fires, capped at
//! ten passes):
//!
//! 1. **Constant folding** — checked integer arithmetic, boolean logic on
//!    folded constants, `IS NULL` of literals, literal comparisons. Float
//!    and decimal arithmetic is never folded (the engines' arithmetic modes
//!    differ and results must stay byte-identical).
//! 2. **Trivial-filter elimination** — `TRUE` conjuncts are dropped and
//!    empty filters removed. `FALSE` filters are *kept*: an empty result
//!    still has a defined shape.
//! 3. **Duplicate conjunct elimination** — by canonical (slot-based)
//!    rendering, keeping the first occurrence; likewise duplicate equi
//!    pairs on joins. Subquery conjuncts are never deduplicated (their
//!    evaluation is budgeted and cached per expression).
//! 4. **Filter merging** — chained filters collapse into one conjunction,
//!    inner conjuncts first (preserving evaluation order).
//! 5. **Predicate pushdown through joins** — single-side conjuncts move
//!    below the join (left side also through LEFT OUTER, semi and anti
//!    joins: null-padded rows carry real left values, so filtering the
//!    left input is equivalent), and on through every join below that
//!    they can pass, in one pass — down to the derived tables and CTE
//!    scans rules 6 and 7 push them into. Where a conjunct of an
//!    inner-join region finally runs, and which equalities become hash
//!    keys, is the placement pass's decision ([`super::memo`]).
//! 6. **Pushdown into derived tables** — conjuncts over a derived table's
//!    output are substituted through its projection and pushed inside,
//!    unless the derived query aggregates or has a LIMIT.
//! 7. **Pushdown into CTEs** — same, but only when the CTE is scanned
//!    exactly once in the whole tree, is not shadowed, and is not
//!    referenced by any subquery left in place.
//! 8. **Common-conjunct factoring** — `(A ∧ X) ∨ (A ∧ Y)` becomes
//!    `A ∧ (X ∨ Y)`, so what every branch of an `OR` demands can be
//!    pushed down or, by the placement pass, hashed. TPC-H Q19 is the
//!    shape.
//!
//! The subqueries this module meets are the ones the unnesting pass
//! ([`super::unnest`], run per block at bind time, before these rules)
//! left in place; the semi, anti and group joins it produced are ordinary
//! joins here. Predicates containing a remaining subquery never move
//! (correlation binds against the environment they were planned for);
//! predicates containing outer references never move *into* a subtree
//! with a different local schema (outer resolution scans the local schema
//! first). Filters above a semi or anti join sink into its left input
//! like through any join; their ON-residual stays put (for an anti join a
//! failing residual *keeps* the row).
//!
//! After the fixed point, [`prune`] walks the tree once computing column
//! liveness and shrinks every [`Plan::Scan`] to its live columns.

use crate::ir::expr::{Expr, Ty};
use crate::ir::unnest;
use crate::plan::{BoundQuery, JoinKind, OutputItem, Plan, Schema};
use crate::value;
use sqalpel_sql::ast::{BinOp, Literal, UnaryOp};
use std::collections::HashSet;
use std::mem;

/// Run the rewrite rules to a fixed point.
pub fn rewrite(bq: &mut BoundQuery) {
    for _ in 0..10 {
        let mut changed = false;
        pass(bq, &mut changed);
        if !changed {
            break;
        }
    }
}

fn pass(bq: &mut BoundQuery, changed: &mut bool) {
    for (_, body) in &mut bq.ctes {
        pass(body, changed);
    }
    rewrite_plan(&mut bq.core, changed);
    for it in &mut bq.items {
        fold(&mut it.expr, changed);
    }
    for g in &mut bq.group_by {
        fold(g, changed);
    }
    if let Some(h) = &mut bq.having {
        fold(h, changed);
    }
    for (k, _) in &mut bq.order_by {
        fold(k, changed);
    }
    cte_pushdown(bq, changed);
}

fn rewrite_plan(p: &mut Plan, changed: &mut bool) {
    match p {
        Plan::Scan { .. } | Plan::Cte { .. } => {}
        Plan::Derived { query, .. } => pass(query, changed),
        Plan::Filter { input, predicate } => {
            fold(predicate, changed);
            rewrite_plan(input, changed);
        }
        Plan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            for (l, r) in equi.iter_mut() {
                fold(l, changed);
                fold(r, changed);
            }
            if let Some(r) = residual {
                fold(r, changed);
            }
            rewrite_plan(left, changed);
            rewrite_plan(right, changed);
        }
    }
    simplify_filter(p, changed);
    factor_or(p, changed);
    dedup_equi(p, changed);
    push_through_join(p, changed);
    push_into_derived(p, changed);
}

/// Placeholder plan used while a node is being rebuilt in place.
fn dummy() -> Plan {
    Plan::Cte {
        name: String::new(),
        binding: String::new(),
        schema: Vec::new(),
    }
}

// ---------------------------------------------------------------- folding

fn fold(e: &mut Expr, changed: &mut bool) {
    // Children first.
    e.visit_mut(&mut |node| {
        if let Some(next) = fold_step(node) {
            *node = next;
            *changed = true;
        }
    });
}

/// One folding step on an already-folded node, or `None`.
fn fold_step(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match expr.as_ref() {
            Expr::Literal(Literal::Integer(v)) => {
                v.checked_neg().map(|n| Expr::Literal(Literal::Integer(n)))
            }
            _ => None,
        },
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => match expr.as_ref() {
            Expr::Bool(b) => Some(Expr::Bool(!b)),
            _ => None,
        },
        Expr::IsNull { expr, negated } => match expr.as_ref() {
            Expr::Literal(Literal::Null) => Some(Expr::Bool(!negated)),
            Expr::Literal(_) | Expr::Bool(_) => Some(Expr::Bool(*negated)),
            _ => None,
        },
        Expr::Binary { left, op, right } => {
            match (left.as_ref(), op, right.as_ref()) {
                // Integer arithmetic only, through the core's integer
                // function — never float/decimal (their evaluation differs
                // per engine arithmetic mode). An overflow stays unfolded
                // and is raised where evaluation reaches it.
                (
                    Expr::Literal(Literal::Integer(a)),
                    op @ (BinOp::Plus | BinOp::Minus | BinOp::Mul),
                    Expr::Literal(Literal::Integer(b)),
                ) => value::int_arith(*op, *a, *b)
                    .ok()
                    .map(|n| Expr::Literal(Literal::Integer(n))),
                (Expr::Literal(Literal::Integer(a)), op, Expr::Literal(Literal::Integer(b)))
                    if op.is_comparison() =>
                {
                    Some(Expr::Bool(value::ordering_holds(a.cmp(b), *op)))
                }
                (Expr::Literal(Literal::String(a)), op, Expr::Literal(Literal::String(b)))
                    if op.is_comparison() =>
                {
                    Some(Expr::Bool(value::ordering_holds(a.cmp(b), *op)))
                }
                // Kleene absorption: FALSE dominates AND, TRUE dominates OR
                // (row engine short-circuits the same way).
                (Expr::Bool(false), BinOp::And, _) => Some(Expr::Bool(false)),
                (Expr::Bool(true), BinOp::Or, _) => Some(Expr::Bool(true)),
                // Identity elements, only when the other side is statically
                // boolean (so TRUE AND x ≡ x even under three-valued logic).
                (Expr::Bool(true), BinOp::And, x) | (x, BinOp::And, Expr::Bool(true))
                    if x.ty() == Ty::Bool =>
                {
                    Some(x.clone())
                }
                (Expr::Bool(false), BinOp::Or, x) | (x, BinOp::Or, Expr::Bool(false))
                    if x.ty() == Ty::Bool =>
                {
                    Some(x.clone())
                }
                _ => None,
            }
        }
        _ => None,
    }
}

// ------------------------------------------------------- structural rules

/// Merge chained filters, drop `TRUE` conjuncts, deduplicate conjuncts,
/// and remove the filter entirely when nothing is left.
fn simplify_filter(p: &mut Plan, changed: &mut bool) {
    if !matches!(p, Plan::Filter { .. }) {
        return;
    }
    let Plan::Filter {
        mut input,
        predicate,
    } = mem::replace(p, dummy())
    else {
        unreachable!()
    };
    let mut conjs: Vec<Expr> = predicate.conjuncts().into_iter().cloned().collect();
    while matches!(&*input, Plan::Filter { .. }) {
        let Plan::Filter {
            input: inner,
            predicate: ip,
        } = *mem::replace(&mut input, Box::new(dummy()))
        else {
            unreachable!()
        };
        let mut merged: Vec<Expr> = ip.conjuncts().into_iter().cloned().collect();
        merged.append(&mut conjs);
        conjs = merged;
        input = inner;
        *changed = true;
    }
    let before = conjs.len();
    conjs.retain(|c| !matches!(c, Expr::Bool(true)));
    let mut seen = HashSet::new();
    conjs.retain(|c| c.contains_subquery() || seen.insert(c.to_string()));
    if conjs.len() != before {
        *changed = true;
    }
    match Expr::conjoin(conjs) {
        Some(pred) => {
            *p = Plan::Filter {
                input,
                predicate: pred,
            }
        }
        None => {
            *p = *input;
            *changed = true;
        }
    }
}

fn dedup_equi(p: &mut Plan, changed: &mut bool) {
    let Plan::Join { equi, .. } = p else { return };
    let before = equi.len();
    let mut seen = HashSet::new();
    equi.retain(|(l, r)| seen.insert(format!("{l}={r}")));
    if equi.len() != before {
        *changed = true;
    }
}

/// Split nested `OR`s into a flat disjunct list.
fn disjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinOp::Or,
            right,
        } => {
            let mut out = disjuncts(left);
            out.extend(disjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Pull the conjuncts shared by every branch of an `OR` conjunct out of
/// it. Kleene logic is a distributive lattice, so `(A ∧ X) ∨ (A ∧ Y)` and
/// `A ∧ (X ∨ Y)` agree on NULLs as well; a branch that is nothing but the
/// shared part absorbs the whole `OR`. Conjuncts are matched by canonical
/// rendering; subquery conjuncts are left where they are.
fn factor_or(p: &mut Plan, changed: &mut bool) {
    let Plan::Filter { predicate, .. } = p else {
        return;
    };
    let mut out: Vec<Expr> = Vec::new();
    let mut fired = false;
    for c in predicate.conjuncts() {
        let branches: Vec<Vec<&Expr>> = disjuncts(c).iter().map(|d| d.conjuncts()).collect();
        let shared: Vec<String> = match branches.split_first() {
            Some((first, rest)) if !rest.is_empty() => first
                .iter()
                .filter(|x| !x.contains_subquery())
                .map(|x| x.to_string())
                .filter(|s| rest.iter().all(|b| b.iter().any(|y| y.to_string() == *s)))
                .collect(),
            _ => Vec::new(),
        };
        if shared.is_empty() {
            out.push(c.clone());
            continue;
        }
        fired = true;
        let is_shared = |x: &Expr| shared.contains(&x.to_string());
        out.extend(branches[0].iter().filter(|x| is_shared(x)).map(|x| (*x).clone()));
        let rests: Vec<Option<Expr>> = branches
            .iter()
            .map(|b| Expr::conjoin(b.iter().filter(|x| !is_shared(x)).map(|x| (*x).clone()).collect()))
            .collect();
        if rests.iter().all(Option::is_some) {
            let or = rests.into_iter().flatten().reduce(|a, b| Expr::Binary {
                left: Box::new(a),
                op: BinOp::Or,
                right: Box::new(b),
            });
            out.extend(or);
        }
    }
    if fired {
        *predicate = Expr::conjoin(out).expect("factoring keeps the shared conjuncts");
        *changed = true;
    }
}

/// Can this conjunct move below a join boundary at all?
fn immovable(c: &Expr, slots: &[usize]) -> bool {
    c.contains_subquery() || slots.is_empty()
}

/// Push single-side conjuncts of a `Filter` below its `Join` input, and
/// on through every join below that they can pass, in this one pass.
fn push_through_join(p: &mut Plan, changed: &mut bool) {
    let Plan::Filter { input, predicate } = p else {
        return;
    };
    let Plan::Join {
        left, right, kind, ..
    } = &mut **input
    else {
        return;
    };
    let left_len = left.width();
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut stay = Vec::new();
    for c in predicate.conjuncts() {
        let slots = c.slots();
        if immovable(c, &slots) {
            stay.push(c.clone());
        } else if slots.iter().all(|&s| s < left_len) {
            // Valid through LEFT OUTER too: null-padded output rows carry
            // real left values, and every left row appears at least once.
            to_left.push(c.clone());
        } else if slots.iter().all(|&s| s >= left_len) && *kind == JoinKind::Inner {
            let mut e = c.clone();
            e.map_slots(&|s| s - left_len);
            to_right.push(e);
        } else {
            stay.push(c.clone());
        }
    }
    if to_left.is_empty() && to_right.is_empty() {
        return;
    }
    sink(left, to_left, changed);
    sink(right, to_right, changed);
    match Expr::conjoin(stay) {
        Some(pred) => *predicate = pred,
        None => {
            let inner = mem::replace(&mut **input, dummy());
            *p = inner;
        }
    }
    *changed = true;
}

/// Filter `p` by `conjuncts` — after the conjuncts of a filter `p`
/// already is, as filter merging would order them — and push them on.
fn sink(p: &mut Plan, mut conjuncts: Vec<Expr>, changed: &mut bool) {
    if conjuncts.is_empty() {
        return;
    }
    let (input, mut all) = match mem::replace(p, dummy()) {
        Plan::Filter { input, predicate } => {
            (input, predicate.conjuncts().into_iter().cloned().collect())
        }
        other => (Box::new(other), Vec::new()),
    };
    all.append(&mut conjuncts);
    *p = Plan::Filter {
        input,
        predicate: Expr::conjoin(all).expect("non-empty conjunct list"),
    };
    push_through_join(p, changed);
}

/// Can a conjunct over a derived/CTE output be substituted through the
/// projection and pushed inside? The conjunct must not contain subqueries
/// (their binding environment would change) or outer references (outer
/// resolution scans the local schema first, which differs inside), and the
/// projection expressions it references must not contain subqueries.
fn pushable_through_items(c: &Expr, items: &[OutputItem]) -> bool {
    !c.contains_subquery()
        && !c.contains_outer()
        && !c.slots().is_empty()
        && c.slots()
            .iter()
            .all(|&s| !items[s].expr.contains_subquery())
}

/// `c` with every slot reference replaced by the projection expression it
/// selects (both are evaluated against the inner core schema).
fn substituted(c: &Expr, items: &[OutputItem]) -> Expr {
    let mut e = c.clone();
    replace_cols(&mut e, items);
    e
}

fn replace_cols(e: &mut Expr, items: &[OutputItem]) {
    // Post-order, so a substituted projection is not itself re-substituted.
    e.visit_mut(&mut |node| {
        if let Expr::Col { slot, .. } = node {
            *node = items[*slot].expr.clone();
        }
    });
}

/// Push a filter over a derived table inside it. DISTINCT is fine (the
/// predicate is a function of the output row, so it keeps or drops a whole
/// duplicate class); ORDER BY is fine (filtering preserves relative
/// order); aggregation and LIMIT are not.
fn push_into_derived(p: &mut Plan, changed: &mut bool) {
    let Plan::Filter { input, predicate } = p else {
        return;
    };
    let Plan::Derived { query, .. } = &mut **input else {
        return;
    };
    if query.aggregated || query.limit.is_some() {
        return;
    }
    let mut push = Vec::new();
    let mut stay = Vec::new();
    for c in predicate.conjuncts() {
        if pushable_through_items(c, &query.items) {
            push.push(substituted(c, &query.items));
        } else {
            stay.push(c.clone());
        }
    }
    if push.is_empty() {
        return;
    }
    let core = mem::replace(&mut query.core, dummy());
    query.core = Plan::Filter {
        input: Box::new(core),
        predicate: Expr::conjoin(push).expect("non-empty push list"),
    };
    match Expr::conjoin(stay) {
        Some(pred) => *predicate = pred,
        None => {
            let inner = mem::replace(&mut **input, dummy());
            *p = inner;
        }
    }
    *changed = true;
}

// ------------------------------------------------------------ CTE pushdown

/// Count scans of and declarations of a CTE name across the whole tree.
fn count_cte(bq: &BoundQuery, name: &str, scans: &mut usize, decls: &mut usize) {
    for (n, body) in &bq.ctes {
        if n == name {
            *decls += 1;
        }
        count_cte(body, name, scans, decls);
    }
    count_cte_plan(&bq.core, name, scans, decls);
}

fn count_cte_plan(p: &Plan, name: &str, scans: &mut usize, decls: &mut usize) {
    match p {
        Plan::Cte { name: n, .. } => {
            if n == name {
                *scans += 1;
            }
        }
        Plan::Scan { .. } => {}
        Plan::Derived { query, .. } => count_cte(query, name, scans, decls),
        Plan::Filter { input, .. } => count_cte_plan(input, name, scans, decls),
        Plan::Join { left, right, .. } => {
            count_cte_plan(left, name, scans, decls);
            count_cte_plan(right, name, scans, decls);
        }
    }
}

/// `bq` and the bound body of every subquery left in place in it, nested
/// bodies included. A body that did not bind has nothing to add: its
/// evaluation errors wherever it is reached.
fn with_bodies(bq: &BoundQuery) -> Vec<&BoundQuery> {
    let mut out = vec![bq];
    let mut next = 0;
    while let Some(&q) = out.get(next) {
        q.each_expr(&mut |e, _| {
            for (_, sub) in unnest::subqueries_of(e) {
                if let Some(Ok(plan)) = &sub.bound {
                    out.push(&plan.query);
                }
            }
        });
        next += 1;
    }
    out
}

/// The tables and CTEs `bq` scans, in its core, CTE bodies and derived
/// tables.
fn scanned(bq: &BoundQuery, out: &mut HashSet<String>) {
    fn plan(p: &Plan, out: &mut HashSet<String>) {
        match p {
            Plan::Scan { table, .. } => {
                out.insert(table.name.clone());
            }
            Plan::Cte { name, .. } => {
                out.insert(name.clone());
            }
            Plan::Derived { query, .. } => scanned(query, out),
            Plan::Filter { input, .. } => plan(input, out),
            Plan::Join { left, right, .. } => {
                plan(left, out);
                plan(right, out);
            }
        }
    }
    for (_, body) in &bq.ctes {
        scanned(body, out);
    }
    plan(&bq.core, out);
}

/// Find a `Filter` directly over the (unique) scan of CTE `name` in this
/// query's core, move its pushable conjuncts out, and return them
/// substituted through the CTE's projection.
fn extract_cte_filter(p: &mut Plan, name: &str, items: &[OutputItem]) -> Option<Vec<Expr>> {
    let is_target = matches!(
        p,
        Plan::Filter { input, .. }
            if matches!(&**input, Plan::Cte { name: n, .. } if n == name)
    );
    if is_target {
        let Plan::Filter { input, predicate } = p else {
            unreachable!()
        };
        let mut push = Vec::new();
        let mut stay = Vec::new();
        for c in predicate.conjuncts() {
            if pushable_through_items(c, items) {
                push.push(substituted(c, items));
            } else {
                stay.push(c.clone());
            }
        }
        if push.is_empty() {
            return None;
        }
        match Expr::conjoin(stay) {
            Some(pred) => *predicate = pred,
            None => {
                let inner = mem::replace(&mut **input, dummy());
                *p = inner;
            }
        }
        return Some(push);
    }
    match p {
        Plan::Filter { input, .. } => extract_cte_filter(input, name, items),
        Plan::Join { left, right, .. } => {
            if let Some(v) = extract_cte_filter(left, name, items) {
                return Some(v);
            }
            extract_cte_filter(right, name, items)
        }
        _ => None,
    }
}

fn cte_pushdown(bq: &mut BoundQuery, changed: &mut bool) {
    if bq.ctes.is_empty() {
        return;
    }
    // What the subquery bodies left in place scan; a CTE among them must
    // keep its unfiltered materialization. A pushdown moves a conjunct
    // within the tree and never adds or drops a body, so one walk serves
    // every CTE.
    let mut sub_tables = HashSet::new();
    for body in &with_bodies(bq)[1..] {
        scanned(body, &mut sub_tables);
    }
    for idx in 0..bq.ctes.len() {
        let name = bq.ctes[idx].0.clone();
        let (mut scans, mut decls) = (0, 0);
        count_cte(bq, &name, &mut scans, &mut decls);
        if scans != 1 || decls != 1 {
            continue;
        }
        {
            let body = &bq.ctes[idx].1;
            if body.aggregated || body.distinct || body.limit.is_some() {
                continue;
            }
        }
        if sub_tables.contains(&name) {
            continue;
        }
        let items = bq.ctes[idx].1.items.clone();
        let Some(push) = extract_cte_filter(&mut bq.core, &name, &items) else {
            continue;
        };
        let body = &mut bq.ctes[idx].1;
        let core = mem::replace(&mut body.core, dummy());
        body.core = Plan::Filter {
            input: Box::new(core),
            predicate: Expr::conjoin(push).expect("non-empty push list"),
        };
        *changed = true;
    }
}

// ------------------------------------------------------------------ prune

/// Projection pruning via column liveness: shrink every scan to the
/// columns actually referenced, plus a *protected* set of names that may
/// be reached dynamically — the name of every [`Expr::Outer`] in the tree
/// and in the bound body of each subquery left in place, nested bodies
/// included (an outer reference resolves by name against the rows it
/// runs for). A body that did not bind protects nothing: evaluation
/// errors wherever it reaches one. An unnested subquery is plan nodes
/// like any other, so the build side of a semi, anti or group join keeps
/// its key and residual columns and nothing else.
pub fn prune(bq: &mut BoundQuery) {
    let mut protected = HashSet::new();
    collect_protected(bq, &mut protected);
    prune_query(bq, &protected);
}

fn collect_protected(bq: &BoundQuery, out: &mut HashSet<String>) {
    for q in with_bodies(bq) {
        q.each_expr(&mut |e, _| {
            e.visit(&mut |x| {
                if let Expr::Outer(c) = x {
                    out.insert(c.column.clone());
                }
            })
        });
    }
}

fn mark_used(e: &Expr, schema: &Schema, used: &mut HashSet<(String, String)>) {
    for s in e.slots() {
        let c = &schema[s];
        used.insert((c.binding.clone(), c.name.clone()));
    }
}

fn collect_used(p: &Plan, used: &mut HashSet<(String, String)>) {
    match p {
        Plan::Scan { .. } | Plan::Cte { .. } | Plan::Derived { .. } => {}
        Plan::Filter { input, predicate } => {
            mark_used(predicate, &input.schema(), used);
            collect_used(input, used);
        }
        Plan::Join {
            left,
            right,
            equi,
            residual,
            ..
        } => {
            let ls = left.schema();
            let rs = right.schema();
            for (l, r) in equi {
                mark_used(l, &ls, used);
                mark_used(r, &rs, used);
            }
            if let Some(rr) = residual {
                let mut combined = ls.clone();
                combined.extend(rs);
                mark_used(rr, &combined, used);
            }
            collect_used(left, used);
            collect_used(right, used);
        }
    }
}

fn remap(e: &mut Expr, mapping: &[Option<usize>]) {
    e.map_slots(&|s| mapping[s].expect("pruned a live slot"));
}

fn prune_query(bq: &mut BoundQuery, protected: &HashSet<String>) {
    let mut used: HashSet<(String, String)> = HashSet::new();
    let core_schema = bq.core.schema();
    for it in &bq.items {
        mark_used(&it.expr, &core_schema, &mut used);
    }
    for g in &bq.group_by {
        mark_used(g, &core_schema, &mut used);
    }
    if let Some(h) = &bq.having {
        mark_used(h, &core_schema, &mut used);
    }
    for (k, _) in &bq.order_by {
        mark_used(k, &core_schema, &mut used);
    }
    collect_used(&bq.core, &mut used);

    let mapping = prune_plan(&mut bq.core, &used, protected);
    for it in &mut bq.items {
        remap(&mut it.expr, &mapping);
    }
    for g in &mut bq.group_by {
        remap(g, &mapping);
    }
    if let Some(h) = &mut bq.having {
        remap(h, &mapping);
    }
    for (k, _) in &mut bq.order_by {
        remap(k, &mapping);
    }
    for (_, body) in &mut bq.ctes {
        prune_query(body, protected);
    }
}

/// Prune the subtree and return the old→new slot mapping for its schema.
fn prune_plan(
    p: &mut Plan,
    used: &HashSet<(String, String)>,
    protected: &HashSet<String>,
) -> Vec<Option<usize>> {
    match p {
        Plan::Scan {
            table,
            binding,
            live,
        } => {
            let mut mapping = vec![None; live.len()];
            let mut new_live = Vec::new();
            for (old_pos, &ci) in live.iter().enumerate() {
                let name = &table.columns[ci].name;
                if used.contains(&(binding.clone(), name.clone())) || protected.contains(name) {
                    mapping[old_pos] = Some(new_live.len());
                    new_live.push(ci);
                }
            }
            // Keep at least one column so row counts survive (`count(*)`
            // over a fully-pruned scan).
            if new_live.is_empty() && !live.is_empty() {
                new_live.push(live[0]);
            }
            *live = new_live;
            mapping
        }
        Plan::Derived { query, .. } => {
            // Derived output columns are never pruned (the parent indexes
            // them positionally); prune inside instead.
            prune_query(query, protected);
            (0..query.items.len()).map(Some).collect()
        }
        Plan::Cte { schema, .. } => (0..schema.len()).map(Some).collect(),
        Plan::Filter { input, predicate } => {
            let m = prune_plan(input, used, protected);
            remap(predicate, &m);
            m
        }
        Plan::Join {
            left,
            right,
            kind,
            equi,
            residual,
        } => {
            let ml = prune_plan(left, used, protected);
            let mr = prune_plan(right, used, protected);
            let new_left_len = left.width();
            for (l, r) in equi.iter_mut() {
                remap(l, &ml);
                remap(r, &mr);
            }
            let mut combined: Vec<Option<usize>> = Vec::with_capacity(ml.len() + mr.len());
            combined.extend(ml.iter().copied());
            combined.extend(mr.iter().map(|x| x.map(|n| n + new_left_len)));
            if let Some(rr) = residual {
                remap(rr, &combined);
            }
            if !kind.emits_right() {
                combined.truncate(ml.len());
            }
            combined
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::storage::Database;
    use sqalpel_sql::parse_query;

    fn raw(sql: &str) -> BoundQuery {
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sql).unwrap();
        Planner::new(&db)
            .with_rewrite(false)
            .with_optimize(false)
            .bind(&q)
            .unwrap()
    }

    fn rewritten(sql: &str) -> BoundQuery {
        let mut bq = raw(sql);
        rewrite(&mut bq);
        bq
    }

    fn lit(v: i64) -> Expr {
        Expr::Literal(Literal::Integer(v))
    }

    #[test]
    fn folds_integer_arithmetic_and_comparisons() {
        let mut e = Expr::Binary {
            left: Box::new(Expr::Binary {
                left: Box::new(lit(2)),
                op: BinOp::Plus,
                right: Box::new(lit(3)),
            }),
            op: BinOp::Gt,
            right: Box::new(lit(4)),
        };
        let mut changed = false;
        fold(&mut e, &mut changed);
        assert!(changed);
        assert_eq!(e, Expr::Bool(true));
        // Overflow is left alone for the engine to report.
        let mut e = Expr::Binary {
            left: Box::new(lit(i64::MAX)),
            op: BinOp::Plus,
            right: Box::new(lit(1)),
        };
        changed = false;
        fold(&mut e, &mut changed);
        assert!(!changed);
    }

    #[test]
    fn trivial_and_duplicate_conjuncts_are_removed() {
        let b = rewritten(
            "select n_name from nation \
             where n_regionkey = 1 and n_regionkey = 1 and 1 = 1",
        );
        match &b.core {
            Plan::Filter { predicate, .. } => {
                assert_eq!(predicate.conjuncts().len(), 1, "{predicate}");
            }
            other => panic!("expected single filter, got {other:?}"),
        }
    }

    #[test]
    fn false_filters_are_kept() {
        let b = rewritten("select n_name from nation where 1 = 2");
        match &b.core {
            Plan::Filter { predicate, .. } => {
                assert_eq!(predicate.conjuncts()[0], &Expr::Bool(false))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn on_residual_single_side_conjuncts_sink_below_inner_join() {
        // The placement pass every bind runs puts them there, and the
        // rules leave them there.
        let b = rewritten(
            "select c_custkey from customer join orders \
             on c_custkey = o_custkey and o_totalprice > 100",
        );
        match &b.core {
            Plan::Join {
                right, residual, ..
            } => {
                assert!(residual.is_none());
                assert!(matches!(&**right, Plan::Filter { .. }), "{right:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filters_push_into_derived_tables() {
        let b = rewritten(
            "select x from (select n_regionkey as x, n_name as y from nation) t \
             where x > 1",
        );
        fn derived_has_filter(p: &Plan) -> bool {
            match p {
                Plan::Derived { query, .. } => matches!(query.core, Plan::Filter { .. }),
                Plan::Filter { input, .. } => derived_has_filter(input),
                _ => false,
            }
        }
        assert!(derived_has_filter(&b.core), "{:?}", b.core);
        // And the outer filter is gone entirely.
        assert!(matches!(b.core, Plan::Derived { .. }), "{:?}", b.core);
    }

    #[test]
    fn filters_push_into_nonaggregated_ctes() {
        let b = rewritten(
            "with t as (select n_regionkey as x, n_name from nation) \
             select x from t where x > 1",
        );
        assert!(
            matches!(b.ctes[0].1.core, Plan::Filter { .. }),
            "{:?}",
            b.ctes[0].1.core
        );
    }

    #[test]
    fn aggregated_ctes_are_not_pushed_into() {
        let b = rewritten(
            "with t as (select n_regionkey as x, count(*) as n from nation group by n_regionkey) \
             select x from t where n > 1",
        );
        assert!(
            !matches!(b.ctes[0].1.core, Plan::Filter { .. }),
            "{:?}",
            b.ctes[0].1.core
        );
    }

    #[test]
    fn subquery_conjuncts_never_move() {
        let b = rewritten(
            "select x from (select n_regionkey as x from nation) t \
             where x in (select r_regionkey from region)",
        );
        match &b.core {
            Plan::Filter { predicate, .. } => assert!(predicate.contains_subquery()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prune_shrinks_scans_to_live_columns() {
        let mut b = raw("select n_name from nation");
        rewrite(&mut b);
        prune(&mut b);
        match &b.core {
            Plan::Scan { live, .. } => assert_eq!(live, &vec![1]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(b.items[0].expr, Expr::Col { slot: 0, .. }));
    }

    #[test]
    fn prune_keeps_one_column_for_bare_counts() {
        let mut b = raw("select count(*) from nation");
        rewrite(&mut b);
        prune(&mut b);
        match &b.core {
            Plan::Scan { live, .. } => assert_eq!(live.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    /// The stored columns of every scan in `p`, in plan order.
    fn scan_names(p: &Plan) -> Vec<String> {
        match p {
            Plan::Scan { table, live, .. } => live
                .iter()
                .map(|&i| table.columns[i].name.clone())
                .collect(),
            Plan::Filter { input, .. } => scan_names(input),
            Plan::Join { left, right, .. } => {
                let mut names = scan_names(left);
                names.extend(scan_names(right));
                names
            }
            _ => Vec::new(),
        }
    }

    #[test]
    fn prune_protects_names_reached_by_subqueries() {
        // s_suppkey is referenced inside the subquery and correlates into
        // the outer scan — it must survive pruning everywhere.
        let mut b = raw(
            "select s_name from supplier where s_suppkey in \
             (select ps_suppkey from partsupp where ps_suppkey = s_suppkey)",
        );
        rewrite(&mut b);
        prune(&mut b);
        let names = scan_names(&b.core);
        assert!(names.contains(&"s_suppkey".to_string()), "{names:?}");
        assert!(names.contains(&"s_name".to_string()), "{names:?}");
    }

    #[test]
    fn prune_drops_names_only_an_uncorrelated_body_reads() {
        // s_nationkey is the body's own column, not an outer reference:
        // the outer scan does not keep it.
        let mut b = raw(
            "select s_name from supplier where s_suppkey > \
             (select min(s_nationkey) from supplier)",
        );
        rewrite(&mut b);
        prune(&mut b);
        assert_eq!(scan_names(&b.core), ["s_suppkey", "s_name"]);
    }

    #[test]
    fn rewrite_and_prune_handle_all_tpch_queries() {
        let db = Database::tpch(0.001, 42);
        for (name, sql) in sqalpel_sql::tpch::all_queries() {
            let q = parse_query(sql).unwrap();
            Planner::new(&db)
                .bind(&q)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
