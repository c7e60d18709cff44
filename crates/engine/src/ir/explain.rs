//! EXPLAIN rendering and canonical plan fingerprints.
//!
//! The rendered text is a deterministic, engine-independent tree of the
//! bound (and rewritten) query — both engines share the binder and
//! rewriter, so `RowStore` and `ColStore` produce identical EXPLAIN output
//! for the same SQL. That makes the golden files engine-agnostic.
//!
//! The fingerprint is an FNV-1a 64-bit hash of a *normalized* rendering:
//! filter conjuncts and join equi pairs are sorted lexicographically, and
//! comparisons with a literal on the left are flipped (with the operator
//! mirrored), so syntactic permutations of the same plan — the kind the
//! grammar explorer's mutations produce — collide on purpose. Everything
//! that can affect the result set (output names, expression structure,
//! join kinds and order, DISTINCT/LIMIT, grouping, ordering) feeds the
//! hash; everything that cannot (live-column lists, rendering whitespace)
//! does not. Both renderings are pure functions of the plan tree, which is
//! itself a deterministic product of parse → bind → rewrite, so a
//! fingerprint is stable across runs, platforms and engines.

use crate::ir::cost::CardHints;
use crate::ir::expr::Expr;
use crate::ir::memo::{is_inner_region, Model, Region};
use crate::plan::{BoundQuery, JoinKind, Plan};
use crate::profile::{self, NodeMetrics, ProfileShard};
use std::fmt::Write;

/// A rendered plan with its canonical fingerprint.
#[derive(Debug, Clone)]
pub struct Explain {
    pub text: String,
    pub fingerprint: u64,
}

impl Explain {
    /// The fingerprint as the 16-digit hex string used on the wire and in
    /// the results table.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

/// Annotation sources threaded through the renderer: an executed
/// profile (ANALYZE actuals) and/or the cardinality model (plan-golden
/// `est_rows`), its CTEs in scope. Neither touches the canonical form, so
/// neither moves the fingerprint.
#[derive(Clone, Copy, Default)]
struct Ann<'a> {
    prof: Option<&'a ProfileShard>,
    est: Option<&'a Model<'a>>,
}

/// Render a bound query and compute its fingerprint.
pub fn explain(bq: &BoundQuery) -> Explain {
    render(bq, Ann::default())
}

/// Render the same tree annotated with an executed profile. The
/// fingerprint is computed from the canonical form only, so it is
/// identical to the plain [`explain`] fingerprint — ANALYZE never
/// changes plan identity.
pub fn explain_analyze(bq: &BoundQuery, prof: &ProfileShard) -> Explain {
    render(
        bq,
        Ann {
            prof: Some(prof),
            ..Ann::default()
        },
    )
}

/// Render the tree with *both* the optimizer's estimated cardinalities
/// (under `hints` — pass empty hints for the cold, stats-only numbers)
/// and the executed actuals side by side. This is the shape the plan
/// goldens pin: estimate-vs-actual drift is visible per operator.
pub fn explain_estimates(bq: &BoundQuery, prof: &ProfileShard, hints: &CardHints) -> Explain {
    render(
        bq,
        Ann {
            prof: Some(prof),
            est: Some(&Model::new(hints)),
        },
    )
}

fn render(bq: &BoundQuery, ann: Ann) -> Explain {
    let mut text = String::new();
    render_query(bq, 0, &mut text, ann);
    let mut canon = String::new();
    canon_query(bq, &mut canon);
    Explain {
        fingerprint: fnv1a(&canon),
        text,
    }
}

/// Flat list of `(operator label, metrics)` in render order — the shape
/// the platform ships over the wire (labels like `select`,
/// `scan lineitem`, `filter`, `join inner`, `join semi`, `derived d`,
/// `cte scan c`).
pub fn profile_ops(bq: &BoundQuery, prof: &ProfileShard) -> Vec<(String, NodeMetrics)> {
    let mut out = Vec::new();
    ops_query(bq, prof, &mut out);
    out
}

fn ops_query(bq: &BoundQuery, prof: &ProfileShard, out: &mut Vec<(String, NodeMetrics)>) {
    let m = prof.get(profile::node_key(bq)).copied().unwrap_or_default();
    out.push(("select".to_string(), m));
    for (_, body) in &bq.ctes {
        ops_query(body, prof, out);
    }
    ops_plan(&bq.core, prof, out);
}

fn ops_plan(p: &Plan, prof: &ProfileShard, out: &mut Vec<(String, NodeMetrics)>) {
    let m = prof.get(profile::node_key(p)).copied().unwrap_or_default();
    match p {
        Plan::Scan { table, .. } => out.push((format!("scan {}", table.name), m)),
        Plan::Derived { query, binding } => {
            out.push((format!("derived {binding}"), m));
            ops_query(query, prof, out);
        }
        Plan::Cte { name, .. } => out.push((format!("cte scan {name}"), m)),
        Plan::Filter { input, .. } => {
            out.push(("filter".to_string(), m));
            ops_plan(input, prof, out);
        }
        Plan::Join {
            left, right, kind, ..
        } => {
            out.push((format!("join {}", kind.name()), m));
            ops_plan(left, prof, out);
            ops_plan(right, prof, out);
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------------ EXPLAIN text

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// Append the ANALYZE annotation for `node` when rendering a profile.
/// Nodes the execution never reached (short-circuited subtrees) are
/// marked rather than silently skipped.
fn annotate<T>(out: &mut String, prof: Option<&ProfileShard>, node: &T) {
    let Some(prof) = prof else { return };
    match prof.get(profile::node_key(node)) {
        Some(m) => {
            let _ = write!(
                out,
                " (rows_in={} rows_out={} batches={} time={}ns",
                m.rows_in, m.rows_out, m.batches, m.nanos
            );
            // Zone-map effectiveness, present only where a scan went
            // chunk by chunk (every row-engine scan, the column
            // engine's fused filter scans).
            if m.chunks_scanned + m.chunks_skipped > 0 {
                let _ = write!(
                    out,
                    " chunks_scanned={} chunks_skipped={}",
                    m.chunks_scanned, m.chunks_skipped
                );
            }
            out.push(')');
        }
        None => out.push_str(" (not executed)"),
    }
}

/// Plan-node annotation: the estimator's prediction first (when the
/// model is being rendered), then the executed actuals. Every estimate
/// is the cardinality model's, so an inner join shows the number the
/// search held for its leaf set — the number that chose the plan.
/// Estimates are rounded to whole rows — the goldens pin drift
/// direction, not float noise.
fn annotate_plan(out: &mut String, ann: Ann, p: &Plan) {
    if let Some(m) = ann.est {
        let _ = write!(out, " (est_rows={:.0})", m.rows(p));
    }
    annotate(out, ann.prof, p);
}

fn render_query(bq: &BoundQuery, level: usize, out: &mut String, ann: Ann) {
    indent(out, level);
    out.push_str("select");
    if bq.distinct {
        out.push_str(" distinct");
    }
    if bq.aggregated {
        out.push_str(" aggregate");
    }
    if let Some(n) = bq.limit {
        let _ = write!(out, " limit {n}");
    }
    if let Some(m) = ann.est {
        let _ = write!(out, " (est_rows={:.0})", m.query_rows(bq));
    }
    annotate(out, ann.prof, bq);
    out.push('\n');
    indent(out, level + 1);
    out.push_str("output:");
    for it in &bq.items {
        let _ = write!(out, " {}={} ({})", it.name, it.expr, it.ty);
    }
    out.push('\n');
    if !bq.group_by.is_empty() {
        indent(out, level + 1);
        out.push_str("group by:");
        for g in &bq.group_by {
            let _ = write!(out, " {g}");
        }
        out.push('\n');
    }
    if let Some(h) = &bq.having {
        indent(out, level + 1);
        let _ = writeln!(out, "having: {h}");
    }
    if !bq.order_by.is_empty() {
        indent(out, level + 1);
        out.push_str("order by:");
        for (k, desc) in &bq.order_by {
            let _ = write!(out, " {k}{}", if *desc { " desc" } else { "" });
        }
        out.push('\n');
    }
    // Why each subquery still in this block was not turned into a join,
    // and whether it runs once or per row.
    for note in &bq.subquery_notes {
        indent(out, level + 1);
        let _ = writeln!(out, "subquery {note}");
    }
    // The block's CTEs are in scope for its bodies and its core.
    let entered = ann.est.map(|m| m.entered(bq));
    let ann = Ann {
        est: entered.as_ref(),
        ..ann
    };
    for (name, body) in &bq.ctes {
        indent(out, level + 1);
        let _ = writeln!(out, "cte {name}:");
        render_query(body, level + 2, out, ann);
    }
    render_plan(&bq.core, level + 1, out, ann);
}

fn render_plan(p: &Plan, level: usize, out: &mut String, ann: Ann) {
    match p {
        Plan::Scan {
            table,
            binding,
            live,
        } => {
            indent(out, level);
            let _ = write!(out, "scan {}", table.name);
            if binding != &table.name {
                let _ = write!(out, " as {binding}");
            }
            out.push_str(" [");
            for (i, &ci) in live.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&table.columns[ci].name);
            }
            out.push(']');
            annotate_plan(out, ann, p);
            out.push('\n');
        }
        Plan::Derived { query, binding } => {
            indent(out, level);
            let _ = write!(out, "derived {binding}");
            annotate_plan(out, ann, p);
            out.push('\n');
            render_query(query, level + 1, out, ann);
        }
        Plan::Cte { name, binding, .. } => {
            indent(out, level);
            let _ = write!(out, "cte scan {name}");
            if binding != name {
                let _ = write!(out, " as {binding}");
            }
            annotate_plan(out, ann, p);
            out.push('\n');
        }
        Plan::Filter { input, predicate } => {
            indent(out, level);
            let _ = write!(out, "filter {predicate}");
            annotate_plan(out, ann, p);
            out.push('\n');
            render_plan(input, level + 1, out, ann);
        }
        Plan::Join {
            left,
            right,
            kind,
            equi,
            residual,
        } => {
            indent(out, level);
            let _ = write!(out, "join {}", kind.name());
            if !equi.is_empty() {
                out.push_str(" on");
                for (i, (l, r)) in equi.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" and");
                    }
                    let _ = write!(out, " {l} = {r}");
                }
            }
            if let Some(r) = residual {
                let _ = write!(out, " residual {r}");
            }
            annotate_plan(out, ann, p);
            out.push('\n');
            render_plan(left, level + 1, out, ann);
            render_plan(right, level + 1, out, ann);
        }
    }
}

// ------------------------------------------------- canonical (fingerprint)
//
// The canonical form must be *join-order-invariant*: the cost-based
// optimizer permutes inner-join trees (and with them every slot number),
// and a fingerprint that moved with the join order would split the plan
// cache and the feedback store by physical order. Two devices achieve
// invariance:
//
// 1. Slots are never hashed raw. Every expression is rendered after
//    remapping each slot to the *rank* of its qualified `binding.column`
//    name in the sorted name list of the schema it is evaluated against.
//    Schemas on both sides of an optimizer run are permutations of the
//    same qualified-name set, so ranks are identical.
// 2. Maximal inner-join regions (plus filters directly above them) are
//    flattened: sorted leaf canons + sorted predicate canons, with
//    equality predicates rendered with their sides in sorted order. The
//    placement pass ([`crate::ir::memo`]) has already sunk every movable
//    single-leaf conjunct into its leaf on every bind, whatever the join
//    order, so a leaf's filter chain is the same on both sides. The join
//    *tree* never reaches the hash — only the region's contents do.
// 3. The placement pass may move a semi or anti join from above a region
//    onto the leaf it filters, or leave it there. Every semi and anti
//    join above a region or on one of its leaves is rendered above the
//    region, its left side in the region's frame, and the chain they
//    form is sorted: where such a join runs, and in which order a WHERE
//    clause names them, never reaches the hash.

/// Slot → rank of the slot's qualified name in the sorted schema.
fn ranks(schema: &[crate::plan::ColMeta]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..schema.len()).collect();
    idx.sort_by(|&a, &b| {
        (&schema[a].binding, &schema[a].name).cmp(&(&schema[b].binding, &schema[b].name))
    });
    let mut rank = vec![0usize; schema.len()];
    for (r, &i) in idx.iter().enumerate() {
        rank[i] = r;
    }
    rank
}

/// Normalize an expression for fingerprinting: slots become name ranks,
/// and comparisons with a literal on the left flip to literal-on-right
/// with the operator mirrored.
fn canon_expr_at(e: &Expr, rank: &[usize]) -> String {
    let mut n = normalized(e);
    n.map_slots(&|s| rank.get(s).copied().unwrap_or(s));
    n.to_string()
}

/// Predicate rendering: like [`canon_expr_at`], but a top-level equality
/// additionally sorts its two sides — the optimizer may emit `a = b` or
/// `b = a` for the same join edge depending on which side builds.
fn canon_pred_at(e: &Expr, rank: &[usize]) -> String {
    use sqalpel_sql::ast::BinOp;
    let mut n = normalized(e);
    n.map_slots(&|s| rank.get(s).copied().unwrap_or(s));
    if let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = &n
    {
        let a = left.to_string();
        let b = right.to_string();
        return if a <= b {
            format!("({a} = {b})")
        } else {
            format!("({b} = {a})")
        };
    }
    n.to_string()
}

fn normalized(e: &Expr) -> Expr {
    let mut e = e.clone();
    normalize_in_place(&mut e);
    e
}

fn normalize_in_place(e: &mut Expr) {
    use sqalpel_sql::ast::BinOp;
    // Children first (normalization is structural, subqueries stay as-is).
    e.visit_mut(&mut |node| {
        let Expr::Binary { left, op, right } = node else {
            return;
        };
        let mirrored = match op {
            BinOp::Eq => BinOp::Eq,
            BinOp::NotEq => BinOp::NotEq,
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            _ => return,
        };
        if matches!(left.as_ref(), Expr::Literal(_) | Expr::Bool(_))
            && !matches!(right.as_ref(), Expr::Literal(_) | Expr::Bool(_))
        {
            std::mem::swap(left, right);
            *op = mirrored;
        }
    });
}

fn canon_query(bq: &BoundQuery, out: &mut String) {
    let rank = ranks(&bq.core.schema());
    let _ = write!(
        out,
        "q distinct={} agg={} limit={:?};",
        bq.distinct, bq.aggregated, bq.limit
    );
    for it in &bq.items {
        let _ = write!(out, "item {}={};", it.name, canon_expr_at(&it.expr, &rank));
    }
    for g in &bq.group_by {
        let _ = write!(out, "group {};", canon_expr_at(g, &rank));
    }
    if let Some(h) = &bq.having {
        let _ = write!(out, "having {};", canon_expr_at(h, &rank));
    }
    for (k, desc) in &bq.order_by {
        let _ = write!(out, "order {} {};", canon_expr_at(k, &rank), desc);
    }
    for (name, body) in &bq.ctes {
        let _ = write!(out, "cte {name}[");
        canon_query(body, out);
        out.push_str("];");
    }
    canon_plan(&bq.core, out);
}

/// Is `p` rendered by [`canon_region`]: an inner-join region, or a semi
/// or anti join over anything?
fn is_region_root(p: &Plan) -> bool {
    let filters = matches!(
        p,
        Plan::Join {
            kind: JoinKind::Semi | JoinKind::Anti,
            ..
        }
    );
    filters || is_inner_region(p)
}

fn canon_plan(p: &Plan, out: &mut String) {
    if is_region_root(p) {
        canon_region(p, out);
        return;
    }
    match p {
        Plan::Scan { table, binding, .. } => {
            // Live-column lists are a physical detail: two fingerprints
            // must collide whenever the result sets must agree.
            let _ = write!(out, "scan {} {};", table.name, binding);
        }
        Plan::Derived { query, binding } => {
            let _ = write!(out, "derived {binding}[");
            canon_query(query, out);
            out.push_str("];");
        }
        Plan::Cte { name, binding, .. } => {
            let _ = write!(out, "ctescan {name} {binding};");
        }
        Plan::Filter { .. } => {
            // Merge the whole filter chain: `filter a (filter b X)` and
            // `filter a AND b X` are the same plan.
            let mut conjs: Vec<&Expr> = Vec::new();
            let mut base = p;
            while let Plan::Filter { input, predicate } = base {
                conjs.extend(predicate.conjuncts());
                base = input;
            }
            let rank = ranks(&base.schema());
            let mut cs: Vec<String> = conjs.iter().map(|c| canon_pred_at(c, &rank)).collect();
            cs.sort();
            let _ = write!(out, "filter {};", cs.join(" AND "));
            canon_plan(base, out);
        }
        Plan::Join {
            left,
            right,
            kind,
            equi,
            residual,
        } => {
            // Only outer joins reach here (inner joins are regions, semi
            // and anti joins are rendered with one); their sides never
            // swap, but the subtrees may have been permuted internally,
            // so slots still rank-remap.
            let lrank = ranks(&left.schema());
            let rrank = ranks(&right.schema());
            let mut pairs: Vec<String> = equi
                .iter()
                .map(|(l, r)| {
                    format!(
                        "{}={}",
                        canon_expr_at(l, &lrank),
                        canon_expr_at(r, &rrank)
                    )
                })
                .collect();
            pairs.sort();
            let _ = write!(out, "join {kind:?} [{}]", pairs.join(","));
            if let Some(r) = residual {
                let rank = ranks(&p.schema());
                let mut cs: Vec<String> = r
                    .conjuncts()
                    .iter()
                    .map(|c| canon_pred_at(c, &rank))
                    .collect();
                cs.sort();
                let _ = write!(out, " residual [{}]", cs.join(" AND "));
            }
            out.push(';');
            out.push('(');
            canon_plan(left, out);
            out.push_str(")(");
            canon_plan(right, out);
            out.push(')');
        }
    }
}

/// Render a maximal inner-join region in join-order-invariant form:
/// sorted leaf canons plus sorted region predicates over the region
/// frame's name ranks, under the sorted chain of the semi and anti joins
/// above it or on its leaves, as [`Region`] reads the region back, so
/// optimized and syntactic-order plans collide.
/// A chain of semi and anti joins over no inner join renders its input
/// as it is.
fn canon_region(p: &Plan, out: &mut String) {
    let rank = ranks(&p.schema());
    let region = Region::of(p);
    let mut leaf_strs: Vec<String> = region.leaves.iter().map(|&l| canon_leaf(l)).collect();
    leaf_strs.sort();
    let mut pred_strs: Vec<String> = region
        .preds
        .iter()
        .map(|e| canon_pred_at(e, &rank))
        .collect();
    pred_strs.sort();
    let mut filters: Vec<(String, String)> = region
        .filters
        .iter()
        .map(|&(join, off)| canon_filter(join, off, &rank))
        .collect();
    filters.sort();
    // Outermost first, each with the plan below it as its left input.
    for (head, _) in &filters {
        let _ = write!(out, "{head};(");
    }
    match &leaf_strs[..] {
        [leaf] if pred_strs.is_empty() => out.push_str(leaf),
        _ => {
            let _ = write!(
                out,
                "region [{}] where [{}];",
                leaf_strs.join("|"),
                pred_strs.join(" AND ")
            );
        }
    }
    for (_, right) in filters.iter().rev() {
        let _ = write!(out, ")({right})");
    }
}

/// A semi or anti join of a region, its left input at `off` in a frame
/// whose slots rank as `rank` says: its header, and its right input's
/// canon.
fn canon_filter(join: &Plan, off: usize, rank: &[usize]) -> (String, String) {
    let Plan::Join {
        kind,
        left,
        right,
        equi,
        residual,
    } = join
    else {
        unreachable!("a region filter is a join")
    };
    let rrank = ranks(&right.schema());
    let mut pairs: Vec<String> = equi
        .iter()
        .map(|(l, r)| {
            format!(
                "{}={}",
                canon_expr_at(&l.shifted(off), rank),
                canon_expr_at(r, &rrank)
            )
        })
        .collect();
    pairs.sort();
    let mut head = format!("join {kind:?} [{}]", pairs.join(","));
    if let Some(r) = residual {
        // The residual frame is left ++ right. A semi/anti body may scan
        // a table the outer block scans too, and a rank over the
        // concatenation would break that tie by physical position: rank
        // the sides apart.
        let (width, total) = (rank.len(), left.width());
        let mut rank = rank.to_vec();
        rank.extend(rrank.iter().map(|r| r + width));
        let mut cs: Vec<String> = r
            .conjuncts()
            .iter()
            .map(|c| {
                let mut c = (*c).clone();
                c.map_slots(&|s| {
                    if s < total {
                        s + off
                    } else {
                        s - total + width
                    }
                });
                canon_pred_at(&c, &rank)
            })
            .collect();
        cs.sort();
        let _ = write!(head, " residual [{}]", cs.join(" AND "));
    }
    let mut right_canon = String::new();
    canon_plan(right, &mut right_canon);
    (head, right_canon)
}

/// One region leaf's canon: its filter chain merged and sorted over the
/// leaf base's name ranks, rendered exactly like a standalone filtered
/// plan.
fn canon_leaf(leaf: &Plan) -> String {
    let mut all: Vec<&Expr> = Vec::new();
    let mut base = leaf;
    while let Plan::Filter { input, predicate } = base {
        all.extend(predicate.conjuncts());
        base = input;
    }
    let mut s = String::new();
    if !all.is_empty() {
        let rank = ranks(&base.schema());
        let mut cs: Vec<String> = all.iter().map(|c| canon_pred_at(c, &rank)).collect();
        cs.sort();
        let _ = write!(s, "filter {};", cs.join(" AND "));
    }
    canon_plan(base, &mut s);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::storage::Database;
    use sqalpel_sql::parse_query;

    fn explain_sql(sql: &str) -> Explain {
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sql).unwrap();
        explain(&Planner::new(&db).bind(&q).unwrap())
    }

    #[test]
    fn fingerprints_are_stable_and_text_is_deterministic() {
        let a = explain_sql("select n_name from nation where n_regionkey = 1");
        let b = explain_sql("select n_name from nation where n_regionkey = 1");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.text, b.text);
        assert_eq!(a.fingerprint_hex().len(), 16);
    }

    #[test]
    fn flipped_comparisons_collide() {
        let a = explain_sql("select n_name from nation where n_regionkey < 2");
        let b = explain_sql("select n_name from nation where 2 > n_regionkey");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn reordered_conjuncts_collide() {
        let a = explain_sql(
            "select n_name from nation where n_regionkey = 1 and n_nationkey > 3",
        );
        let b = explain_sql(
            "select n_name from nation where n_nationkey > 3 and n_regionkey = 1",
        );
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn different_predicates_do_not_collide() {
        let a = explain_sql("select n_name from nation where n_regionkey = 1");
        let b = explain_sql("select n_name from nation where n_regionkey = 2");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn output_names_feed_the_fingerprint() {
        let a = explain_sql("select n_name as a from nation");
        let b = explain_sql("select n_name as b from nation");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn fingerprints_are_join_order_invariant() {
        // The optimizer reorders this FROM list (part × supplier is a
        // cross join as written); the fingerprint must not move, while
        // the rendered plan visibly does.
        let db = Database::tpch(0.001, 42);
        let sql = "select n_name, count(*) from part, supplier, partsupp, nation \
                   where ps_partkey = p_partkey and ps_suppkey = s_suppkey \
                   and s_nationkey = n_nationkey and p_size < 15 \
                   group by n_name order by n_name";
        let q = parse_query(sql).unwrap();
        let opt = explain(&Planner::new(&db).bind(&q).unwrap());
        let raw = explain(
            &Planner::new(&db)
                .with_optimize(false)
                .bind(&q)
                .unwrap(),
        );
        assert_ne!(opt.text, raw.text, "optimizer should reorder this join");
        assert_eq!(opt.fingerprint, raw.fingerprint);
    }

    #[test]
    fn semi_and_anti_join_order_and_placement_collide() {
        // One EXISTS / NOT EXISTS pair in either WHERE order: the chain
        // is bound in that order and hashes sorted.
        let exists = "exists (select * from lineitem where l_orderkey = o_orderkey)";
        let absent = "not exists (select * from customer where c_custkey = o_custkey)";
        let sql = |first: &str, second: &str| {
            format!("select count(*) from orders where {first} and {second}")
        };
        let a = explain_sql(&sql(exists, absent));
        let b = explain_sql(&sql(absent, exists));
        assert_ne!(a.text, b.text);
        assert_eq!(a.fingerprint, b.fingerprint);
        // Q20's body both ways round: its IN joins `partsupp` below the
        // group join one way, above it the other.
        let semi = "ps_partkey in (select p_partkey from part where p_name like 'forest%')";
        let cmp = "ps_availqty > (select 0.5 * sum(l_quantity) from lineitem \
                   where l_partkey = ps_partkey and l_suppkey = ps_suppkey)";
        let db = Database::tpch(0.001, 42);
        let bound = |first: &str, second: &str| {
            let sql = format!("select ps_suppkey from partsupp where {first} and {second}");
            let q = parse_query(&sql).unwrap();
            explain(&Planner::new(&db).with_optimize(false).bind(&q).unwrap())
        };
        let (a, b) = (bound(semi, cmp), bound(cmp, semi));
        assert_ne!(a.text, b.text);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn syntactic_join_permutations_collide() {
        // Same query, FROM list permuted by hand: different syntactic
        // trees, same region — with the optimizer off on both sides.
        let db = Database::tpch(0.001, 42);
        let mk = |from: &str| {
            let sql = format!(
                "select s_name from {from} \
                 where s_suppkey = ps_suppkey and ps_partkey = p_partkey \
                 and p_size = 15 order by s_name"
            );
            let q = parse_query(&sql).unwrap();
            explain(&Planner::new(&db).with_optimize(false).bind(&q).unwrap())
        };
        let a = mk("supplier, partsupp, part");
        let b = mk("part, partsupp, supplier");
        assert_eq!(a.fingerprint, b.fingerprint);
    }
}
