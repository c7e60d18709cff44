//! Predicate placement and memo-style join-order search over the bound
//! plan.
//!
//! This pass runs on every bind and is the one place that decides where
//! a conjunct of an inner-join region runs and which equalities become
//! hash keys. It works on *regions*: maximal trees of inner joins (plus
//! the filter directly above them). Each region is flattened into its
//! leaf relations, its join tree as bound, and a pool of predicates —
//! join keys, residuals and filter conjuncts alike — lifted into the
//! region's "global frame" (the concatenation of the leaf schemas in
//! original left-to-right order). A conjunct over one leaf sinks onto
//! it. With the search on, a dynamic program then searches join orders
//! — exhaustive bushy plans for small regions, left-deep beyond
//! [`MAX_BUSHY`] leaves — costing each candidate with the estimator in
//! [`super::cost`] and the load-time statistics from [`super::stats`],
//! preferring connected (equi-keyed) joins over cross products; with it
//! off, and for a region of more than [`MAX_DP`] leaves, the tree is the
//! one bound. That tree is rebuilt with every pooled predicate placed at
//! its lowest covering join (as a hash key when it splits into two plain
//! sides, as a residual otherwise). The engines' hash joins match no
//! NULL key, so a key is taken whatever its sides may hold.
//!
//! Predicates that must not move (subqueries, constants — the same
//! `immovable` rule the rewriter uses) stay in a filter above the
//! region. `LEFT OUTER` joins are reorder barriers: they become region
//! leaves, and their own inputs are optimized as independent regions. A
//! group join (what the unnesting pass makes of a correlated scalar
//! aggregate) is an inner join against a derived table and takes part in
//! the search like any other.
//!
//! The semi and anti joins directly above a region (what the unnesting
//! pass makes of `[NOT] EXISTS` and `[NOT] IN`) are placed with it. One
//! whose left keys and residual read a single leaf is a per-row filter on
//! that leaf, so it commutes with the inner joins above the leaf — NOT
//! IN's NULL handling moves with the node. With the search on, such a
//! join moves down onto its leaf, above the leaf's own conjuncts, when
//! the search's cardinality table says the leaf has strictly fewer rows
//! than the region's output. The join's own selectivity is not trusted
//! (a cold anti estimate can be 0 rows), so that is the row count at its
//! place above the region whether or not a join below it moved; a tie
//! stays. The move happens at the rebuild, after the search: no join
//! order changes with it. With the search off nothing moves. A join that
//! stays is rebuilt above the region, and every right input is optimized
//! as a region of its own.
//!
//! One cardinality model, [`Model`], prices every plan here and in
//! EXPLAIN: one function prices a set of region leaves, for the search
//! every subset, for any inner join the full leaf set of its region read
//! back from the plan; every other node prices over those estimates.
//!
//! Like `rewrite::prune`, every entry point returns an old→new slot
//! mapping for its node's schema so callers can remap expressions bound
//! against it; the optimizer only permutes columns, so entries are
//! always `Some`.

use super::cost::{self, CardHints, FrameStats, KeyPair, SlotStat};
use super::expr::Expr;
use crate::plan::{BoundQuery, JoinKind, Plan};
use crate::storage::{ColumnData, Table};
use sqalpel_sql::ast::BinOp;
use std::collections::BTreeMap;
use std::mem;

/// Regions up to this many leaves get the exhaustive bushy DP.
pub const MAX_BUSHY: usize = 6;
/// Regions up to this many leaves get a left-deep search; beyond it the
/// tree as bound is kept, its predicates placed (no workload here comes
/// close).
pub const MAX_DP: usize = 16;

/// Place the predicates of every inner-join region in a bound query's
/// core, its CTEs and its derived tables. With `search`, each region is
/// first reordered by estimated cost, consulting `hints` (observed
/// cardinalities from a prior profiled run of the same fingerprint)
/// wherever a binding subset matches; without it, each keeps its join
/// tree as bound.
pub fn optimize(bq: &mut BoundQuery, hints: &CardHints, search: bool) {
    let mut ctx = Ctx {
        model: Model::new(hints),
        search,
    };
    optimize_query(bq, &mut ctx);
}

/// The cardinality model: observed cardinalities (a binding set found
/// there is its hint) and the estimated rows of each CTE in scope.
#[derive(Clone)]
pub struct Model<'a> {
    hints: &'a CardHints,
    cte_rows: BTreeMap<String, f64>,
}

impl<'a> Model<'a> {
    pub fn new(hints: &'a CardHints) -> Self {
        Model {
            hints,
            cte_rows: BTreeMap::new(),
        }
    }

    /// This model with `bq`'s CTEs in scope, each priced with those
    /// before it (a copy of this one for a block without CTEs).
    pub fn entered(&self, bq: &BoundQuery) -> Model<'a> {
        let mut inner = self.clone();
        for (name, body) in &bq.ctes {
            let rows = inner.query_rows(body);
            inner.cte_rows.insert(name.clone(), rows);
        }
        inner
    }

    /// Estimated output rows of a query block: its core's, through its
    /// aggregate, DISTINCT and LIMIT.
    pub fn query_rows(&self, bq: &BoundQuery) -> f64 {
        let mut rows = self.entered(bq).rows(&bq.core);
        if bq.aggregated {
            rows = if bq.group_by.is_empty() {
                1.0
            } else {
                rows.powf(0.7)
            };
        }
        if bq.distinct {
            rows = rows.powf(0.9);
        }
        if let Some(l) = bq.limit {
            rows = rows.min(l as f64);
        }
        rows.max(1.0)
    }

    /// Estimated output rows of a plan subtree: an inner join is the full
    /// leaf set of its region, priced as the search priced it; every other
    /// node applies its own rule to its inputs' estimates.
    pub fn rows(&self, p: &Plan) -> f64 {
        if let Some(h) = self.hint(|| p.bindings().into_iter().collect()) {
            return h;
        }
        match p {
            Plan::Scan { table, .. } => table.row_count() as f64,
            Plan::Cte { name, .. } => self.cte_rows.get(name).copied().unwrap_or(1000.0),
            Plan::Derived { query, .. } => self.query_rows(query),
            Plan::Filter { input, predicate } => {
                let stats = FrameStats {
                    slots: slot_stats(input),
                };
                self.rows(input) * cost::selectivity(predicate, &stats)
            }
            Plan::Join {
                kind: JoinKind::Inner,
                ..
            } => {
                let region = Region::of(p);
                Pricing::new(&region.leaves, &region.preds, self).rows(u64::MAX)
            }
            Plan::Join {
                left,
                right,
                kind,
                equi,
                ..
            } => {
                let (l, r) = (self.rows(left), self.rows(right));
                if *kind == JoinKind::LeftOuter {
                    // Every left row at least once.
                    return if equi.is_empty() { l * r } else { l.max(r) }.max(l);
                }
                // Containment on the keys; the most selective pair decides.
                let matching = equi
                    .iter()
                    .map(|(lk, rk)| {
                        let (ls, rs) = (key_stat(left, lk), key_stat(right, rk));
                        cost::semi_selectivity(ls.as_ref(), rs.as_ref(), l, r)
                    })
                    .fold(1.0, f64::min);
                let (semi, anti) = cost::semi_anti_rows(l, matching);
                if *kind == JoinKind::Semi {
                    semi
                } else {
                    anti
                }
            }
        }
    }

    /// The observed cardinality of a binding set, if any; `bindings` is
    /// only called when there are hints.
    fn hint(&self, bindings: impl FnOnce() -> Vec<String>) -> Option<f64> {
        if self.hints.is_empty() {
            return None;
        }
        let mut set = bindings();
        set.sort();
        self.hints.get(&set)
    }
}

struct Ctx<'a> {
    /// The CTEs' estimates fill in as they are optimized.
    model: Model<'a>,
    /// Whether regions are searched for a join order.
    search: bool,
}

fn optimize_query(bq: &mut BoundQuery, ctx: &mut Ctx) {
    for (name, cte) in &mut bq.ctes {
        optimize_query(cte, ctx);
        if ctx.search {
            let rows = ctx.model.query_rows(cte);
            ctx.model.cte_rows.insert(name.clone(), rows);
        }
    }
    let mapping = optimize_plan(&mut bq.core, ctx);
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
}

fn remap(e: &mut Expr, m: &[Option<usize>]) {
    e.map_slots(&|s| m[s].expect("optimizer dropped a live slot"));
}

fn identity(width: usize) -> Vec<Option<usize>> {
    (0..width).map(Some).collect()
}

fn dummy() -> Plan {
    Plan::Cte {
        name: String::new(),
        binding: String::new(),
        schema: Vec::new(),
    }
}

fn is_inner_join(p: &Plan) -> bool {
    matches!(
        p,
        Plan::Join {
            kind: JoinKind::Inner,
            ..
        }
    )
}

/// An inner join, or the filter directly above one, under a chain of
/// zero or more semi and anti joins (each the left input of the next).
fn is_region_root(p: &Plan) -> bool {
    match p {
        Plan::Join {
            kind: JoinKind::Semi | JoinKind::Anti,
            left,
            ..
        } => is_region_root(left),
        Plan::Filter { input, .. } => is_inner_join(input),
        _ => is_inner_join(p),
    }
}

/// Optimize one plan node, returning the old→new slot mapping of its
/// schema (mirroring `rewrite::prune_plan`'s contract).
fn optimize_plan(p: &mut Plan, ctx: &mut Ctx) -> Vec<Option<usize>> {
    if is_region_root(p) {
        return optimize_region(p, ctx);
    }
    match p {
        Plan::Scan { live, .. } => identity(live.len()),
        Plan::Cte { schema, .. } => identity(schema.len()),
        Plan::Derived { query, .. } => {
            optimize_query(query, ctx);
            identity(query.items.len())
        }
        Plan::Filter { input, predicate } => {
            let m = optimize_plan(input, ctx);
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
            // Left-outer joins, and semi and anti joins over no region:
            // optimize each side as its own region.
            let ml = optimize_plan(left, ctx);
            let mr = optimize_plan(right, ctx);
            for (l, r) in equi.iter_mut() {
                remap(l, &ml);
                remap(r, &mr);
            }
            let left_w = ml.len();
            let mut combined = ml;
            combined.extend(mr.into_iter().map(|o| o.map(|v| v + left_w)));
            if let Some(res) = residual {
                remap(res, &combined);
            }
            if !kind.emits_right() {
                combined.truncate(left_w);
            }
            combined
        }
    }
}

/// One flattened region leaf.
struct Leaf {
    plan: Plan,
    /// Internal old→new mapping from optimizing the leaf's own subtree
    /// (identity except for nested regions inside left-outer leaves).
    map: Vec<Option<usize>>,
    old_offset: usize,
}

#[derive(Clone)]
enum Tree {
    Leaf(usize),
    Join(Box<Tree>, Box<Tree>),
}

#[derive(Clone)]
struct Cand {
    cost: f64,
    tree: Tree,
}

/// A semi or anti join directly above a region, taken off it. Its left
/// keys and the left slots of its residual are in the region's frame,
/// the right slots of its residual follow that frame.
struct Filtering {
    kind: JoinKind,
    right: Plan,
    /// Old→new slots of `right`, once it is optimized.
    right_map: Vec<Option<usize>>,
    equi: Vec<(Expr, Expr)>,
    residual: Option<Expr>,
}

impl Filtering {
    /// The region-frame slots its condition reads on the left.
    fn left_slots(&self, total: usize) -> Vec<usize> {
        let mut slots: Vec<usize> = self.equi.iter().flat_map(|(l, _)| l.slots()).collect();
        let residual = self.residual.iter().flat_map(Expr::slots);
        slots.extend(residual.filter(|&s| s < total));
        slots
    }

    /// The join over `left`, a plan of `width` columns that holds region
    /// slot `s` at `to_left(s)`, and the optimized right input.
    fn over(
        mut self,
        left: Plan,
        total: usize,
        width: usize,
        to_left: &impl Fn(usize) -> usize,
    ) -> Plan {
        for (l, r) in &mut self.equi {
            l.map_slots(to_left);
            remap(r, &self.right_map);
        }
        if let Some(res) = &mut self.residual {
            let right_map = &self.right_map;
            res.map_slots(&|s| {
                if s < total {
                    to_left(s)
                } else {
                    width + right_map[s - total].expect("live slot")
                }
            });
        }
        Plan::Join {
            left: Box::new(left),
            right: Box::new(self.right),
            kind: self.kind,
            equi: self.equi,
            residual: self.residual,
        }
    }
}

/// Take the chain of semi and anti joins off the top of `p`, innermost
/// first into `chain`, and return the region below them.
fn peel(p: Plan, chain: &mut Vec<Filtering>) -> Plan {
    match p {
        Plan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Semi | JoinKind::Anti),
            equi,
            residual,
        } => {
            let region = peel(*left, chain);
            chain.push(Filtering {
                kind,
                right: *right,
                right_map: Vec::new(),
                equi,
                residual,
            });
            region
        }
        p => p,
    }
}

/// Place the predicates of one region and of the semi and anti joins
/// above it: flatten it, sink each single-leaf conjunct onto its leaf,
/// search a join order (unless the search is off or the region has more
/// than [`MAX_DP`] leaves, which keep the tree as bound), then rebuild
/// that tree with every other movable conjunct at its lowest covering
/// join, and each semi or anti join on the leaf it filters where the
/// search's estimates say that leaf is smaller than the region.
fn optimize_region(p: &mut Plan, ctx: &mut Ctx) -> Vec<Option<usize>> {
    let mut chain: Vec<Filtering> = Vec::new();
    let owned = peel(mem::replace(p, dummy()), &mut chain);
    let mut leaves: Vec<Leaf> = Vec::new();
    let mut hoisted: Vec<Expr> = Vec::new();
    let mut pinned: Vec<Expr> = Vec::new();
    let mut offset = 0usize;
    let bound = flatten(
        owned,
        ctx,
        &mut leaves,
        &mut hoisted,
        &mut pinned,
        &mut offset,
    );
    let total = offset;
    for f in &mut chain {
        f.right_map = optimize_plan(&mut f.right, ctx);
    }
    let n = leaves.len();
    // Leaves are in frame order, each over a contiguous span of slots.
    let ends: Vec<usize> = leaves
        .iter()
        .map(|lf| lf.old_offset + lf.map.len())
        .collect();
    let leaf_of = |s: usize| leaf_at(&ends, s);

    // Single-leaf conjuncts sink onto their leaf, the rest form the pool.
    let mut sunk: Vec<Vec<Expr>> = leaves.iter().map(|_| Vec::new()).collect();
    let mut pool: Vec<Expr> = Vec::new();
    for e in hoisted {
        let (lo, hi) = span(&e);
        if leaf_of(lo) == leaf_of(hi) {
            sunk[leaf_of(lo)].push(e);
        } else {
            pool.push(e);
        }
    }
    // Each leaf carries its own conjuncts before the search prices it.
    for (lf, conjuncts) in leaves.iter_mut().zip(sunk) {
        let (off, map) = (lf.old_offset, &lf.map);
        let local: Vec<Expr> = conjuncts
            .into_iter()
            .map(|mut e| {
                e.map_slots(&|s| map[s - off].expect("live slot"));
                e
            })
            .collect();
        if let Some(predicate) = Expr::conjoin(local) {
            lf.plan = Plan::Filter {
                input: Box::new(mem::replace(&mut lf.plan, dummy())),
                predicate,
            };
        }
    }
    let (root, card) = if ctx.search && n <= MAX_DP {
        search(&leaves, &pool, ctx)
    } else {
        (bound, Vec::new())
    };
    // The leaf each semi or anti join moves onto, if any.
    let onto: Vec<Option<usize>> = chain
        .iter()
        .map(|f| {
            let region_rows = *card.last()?;
            let slots = f.left_slots(total);
            let k = leaf_of(*slots.first()?);
            let one_leaf = slots.iter().all(|&s| leaf_of(s) == k);
            (one_leaf && card[1 << k] < region_rows).then_some(k)
        })
        .collect();
    let mut above = Vec::new();
    for (f, dest) in chain.into_iter().zip(onto) {
        let Some(k) = dest else {
            above.push(f);
            continue;
        };
        let lf = &mut leaves[k];
        let (off, map) = (lf.old_offset, &lf.map);
        let leaf = mem::replace(&mut lf.plan, dummy());
        lf.plan = f.over(leaf, total, lf.map.len(), &|s| {
            map[s - off].expect("live slot")
        });
    }

    // Rebuild: new frame = leaf schemas in the chosen in-order sequence.
    let mut order = Vec::with_capacity(n);
    inorder(&root, &mut order);
    let mut new_off = vec![0usize; n];
    let mut acc = 0usize;
    for &k in &order {
        new_off[k] = acc;
        acc += leaves[k].map.len();
    }
    let mut mapping: Vec<Option<usize>> = vec![None; total];
    for (k, lf) in leaves.iter().enumerate() {
        for j in 0..lf.map.len() {
            mapping[lf.old_offset + j] = Some(new_off[k] + lf.map[j].expect("live slot"));
        }
    }
    let mut pending: Vec<Option<Pending>> = pool
        .into_iter()
        .map(|mut expr| {
            remap(&mut expr, &mapping);
            let (lo, hi) = span(&expr);
            Some(Pending { expr, lo, hi })
        })
        .collect();
    let widths: Vec<usize> = leaves.iter().map(|lf| lf.map.len()).collect();
    let mut plans: Vec<Option<Plan>> = leaves.into_iter().map(|lf| Some(lf.plan)).collect();
    let (mut plan, _, _) = build_tree(&root, &mut plans, &mut pending, &new_off, &widths);

    // Safety net for preds that found no covering join (cannot happen
    // for the whole region, but cheap to keep sound) plus the pinned set.
    let mut top: Vec<Expr> = pending.into_iter().flatten().map(|p| p.expr).collect();
    for mut e in pinned {
        remap(&mut e, &mapping);
        top.push(e);
    }
    if let Some(pred) = Expr::conjoin(top) {
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate: pred,
        };
    }
    for f in above {
        plan = f.over(plan, total, total, &|s| mapping[s].expect("live slot"));
    }
    *p = plan;
    mapping
}

/// The cheapest join tree over at most [`MAX_DP`] leaves by estimated
/// cost: exhaustive bushy up to [`MAX_BUSHY`] leaves, left-deep beyond.
/// `leaves` are in frame order, each with its own conjuncts on it, and
/// `pool` holds the rest over the region frame. Also returns the
/// estimated rows of every leaf subset, indexed by its bitset: the last
/// entry is the whole region.
fn search(leaves: &[Leaf], pool: &[Expr], ctx: &Ctx) -> (Tree, Vec<f64>) {
    let n = leaves.len();
    let plans: Vec<&Plan> = leaves.iter().map(|lf| &lf.plan).collect();
    let region = Pricing::new(&plans, pool, &ctx.model);
    let full: u64 = (1 << n) - 1;
    let card: Vec<f64> = (0..=full).map(|mask| region.rows(mask)).collect();

    // The DP proper. Connected splits (sharing an equi edge) first; a
    // second pass admits cross joins only when no keyed split exists.
    let connected = |a: u64, b: u64| {
        region
            .preds
            .iter()
            .any(|pp| pp.is_edge && pp.mask & a != 0 && pp.mask & b != 0 && pp.mask & !(a | b) == 0)
    };
    let bushy = n <= MAX_BUSHY;
    let mut dp: Vec<Option<Cand>> = vec![None; 1usize << n];
    for i in 0..n {
        dp[1usize << i] = Some(Cand {
            cost: card[1usize << i],
            tree: Tree::Leaf(i),
        });
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let rows = card[mask as usize];
        let mut best: Option<Cand> = None;
        for pass in 0..2 {
            let consider = |lm: u64, rm: u64, best: &mut Option<Cand>| {
                if pass == 0 && !connected(lm, rm) {
                    return;
                }
                let (Some(a), Some(b)) = (&dp[lm as usize], &dp[rm as usize]) else {
                    return;
                };
                let c = a.cost
                    + b.cost
                    + cost::hash_join_cost(card[lm as usize], card[rm as usize], rows);
                if best.as_ref().is_none_or(|cur| c < cur.cost) {
                    *best = Some(Cand {
                        cost: c,
                        tree: Tree::Join(Box::new(a.tree.clone()), Box::new(b.tree.clone())),
                    });
                }
            };
            if bushy {
                let mut sub = (mask - 1) & mask;
                while sub != 0 {
                    consider(sub, mask ^ sub, &mut best);
                    sub = (sub - 1) & mask;
                }
            } else {
                // Left-deep: extend with one leaf on the build (right) side.
                for i in 0..n {
                    let bit = 1u64 << i;
                    if mask & bit != 0 && mask != bit {
                        consider(mask ^ bit, bit, &mut best);
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        dp[mask as usize] = best;
    }
    let tree = dp[full as usize]
        .take()
        .expect("DP always finds a plan for the full set")
        .tree;
    (tree, card)
}

/// The leaf holding slot `s`, given where each leaf's span of the frame
/// ends.
fn leaf_at(ends: &[usize], s: usize) -> usize {
    let k = ends.iter().position(|&end| s < end);
    k.expect("slot outside region frame")
}

/// Leaf `k`'s bit in a leaf-set mask. Leaves from the 64th on share the
/// last: only the search, up to [`MAX_DP`] leaves, prices proper subsets,
/// and the full set is `u64::MAX` at any size.
fn bit(k: usize) -> u64 {
    1 << k.min(63)
}

/// The one place a set of region leaves is priced: the search prices
/// every subset, [`Model::rows`] the full set below an inner join. Leaves
/// multiply at their own estimates, each pooled predicate the set covers
/// scales the product (the equalities between two leaves as one key), and
/// an observed binding set is its hint.
struct Pricing<'a> {
    leaf_rows: Vec<f64>,
    /// Each leaf's sorted binding set, when there are hints.
    bindings: Vec<Vec<String>>,
    preds: Vec<PoolPred>,
    model: &'a Model<'a>,
}

impl<'a> Pricing<'a> {
    /// `leaves` in frame order; `pool` over the frame their schemas
    /// concatenate to.
    fn new(leaves: &[&Plan], pool: &[Expr], model: &'a Model<'a>) -> Self {
        let mut ends = Vec::with_capacity(leaves.len());
        for leaf in leaves {
            ends.push(ends.last().unwrap_or(&0) + leaf.width());
        }
        let leaf_of = |s: usize| leaf_at(&ends, s);
        let mask_of = |e: &Expr| e.slots().into_iter().fold(0u64, |m, s| m | bit(leaf_of(s)));
        let leaf_rows: Vec<f64> = leaves.iter().map(|p| model.rows(p)).collect();
        let stats = FrameStats {
            slots: leaves.iter().flat_map(|p| slot_stats(p)).collect(),
        };

        // An equality whose sides each read one leaf, two different ones, is
        // a join edge. The edges between the same two leaves form one key,
        // priced once; every other pooled conjunct is priced on its own.
        let single_leaf = |e: &Expr| -> Option<usize> {
            let mut leaves = e.slots().into_iter().map(leaf_of);
            let first = leaves.next()?;
            leaves.all(|k| k == first).then_some(first)
        };
        let stat_of = |e: &Expr| match e {
            Expr::Col { slot, .. } => stats.slot(*slot),
            _ => None,
        };
        let mut keys: BTreeMap<(usize, usize), Vec<KeyPair>> = BTreeMap::new();
        let mut preds: Vec<PoolPred> = Vec::new();
        for expr in pool {
            let edge = match expr {
                Expr::Binary {
                    left,
                    op: BinOp::Eq,
                    right,
                } => match (single_leaf(left), single_leaf(right)) {
                    (Some(li), Some(ri)) if li < ri => {
                        Some(((li, ri), (stat_of(left), stat_of(right))))
                    }
                    (Some(li), Some(ri)) if li > ri => {
                        Some(((ri, li), (stat_of(right), stat_of(left))))
                    }
                    _ => None,
                },
                _ => None,
            };
            match edge {
                Some((ends, pair)) => keys.entry(ends).or_default().push(pair),
                None => preds.push(PoolPred {
                    mask: mask_of(expr),
                    sel: cost::selectivity(expr, &stats),
                    is_edge: false,
                }),
            }
        }
        preds.extend(keys.into_iter().map(|((li, ri), pairs)| PoolPred {
            mask: bit(li) | bit(ri),
            sel: cost::key_selectivity(&pairs, leaf_rows[li], leaf_rows[ri]),
            is_edge: true,
        }));
        let bindings = match model.hints.is_empty() {
            true => Vec::new(),
            false => leaves
                .iter()
                .map(|p| p.bindings().into_iter().collect())
                .collect(),
        };
        Pricing {
            leaf_rows,
            bindings,
            preds,
            model,
        }
    }

    /// Estimated rows of the leaf set `mask`: independence across
    /// predicates, each counted once, and the hint of its binding set.
    fn rows(&self, mask: u64) -> f64 {
        let member = |i: usize| mask & bit(i) != 0;
        let mut rows: f64 = (0..self.leaf_rows.len())
            .filter(|&i| member(i))
            .map(|i| self.leaf_rows[i])
            .product();
        for pp in &self.preds {
            if pp.mask & !mask == 0 {
                rows *= pp.sel;
            }
        }
        let set = || {
            let leaves = (0..self.bindings.len()).filter(|&i| member(i));
            leaves
                .flat_map(|i| self.bindings[i].iter().cloned())
                .collect()
        };
        self.model.hint(set).unwrap_or(rows).max(0.0)
    }
}

/// A pooled predicate as the cardinality model sees it: one conjunct, or
/// every equality between the same two leaves as one key.
struct PoolPred {
    /// Bitset of leaves it references.
    mask: u64,
    sel: f64,
    /// True for a key: equalities that split into two single-leaf sides —
    /// usable as a hash-join key, and what "connected" means for the
    /// search.
    is_edge: bool,
}

/// Flatten a region subtree: leaves out, predicates lifted into the
/// global frame (`offset` tracks each subtree's base slot). Returns the
/// subtree's join tree as bound.
fn flatten(
    p: Plan,
    ctx: &mut Ctx,
    leaves: &mut Vec<Leaf>,
    hoisted: &mut Vec<Expr>,
    pinned: &mut Vec<Expr>,
    offset: &mut usize,
) -> Tree {
    match p {
        Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            equi,
            residual,
        } => {
            let left_start = *offset;
            let l = flatten(*left, ctx, leaves, hoisted, pinned, offset);
            let right_start = *offset;
            let r = flatten(*right, ctx, leaves, hoisted, pinned, offset);
            for (l, r) in equi {
                hoisted.push(Expr::eq_pair(l.shifted(left_start), r.shifted(right_start)));
            }
            for c in residual.iter().flat_map(Expr::conjuncts) {
                lift(c, left_start, hoisted, pinned);
            }
            Tree::Join(Box::new(l), Box::new(r))
        }
        Plan::Filter { input, predicate } if is_inner_join(&input) => {
            let start = *offset;
            let tree = flatten(*input, ctx, leaves, hoisted, pinned, offset);
            for c in predicate.conjuncts() {
                lift(c, start, hoisted, pinned);
            }
            tree
        }
        mut plan => {
            let map = optimize_plan(&mut plan, ctx);
            *offset += map.len();
            leaves.push(Leaf {
                plan,
                old_offset: *offset - map.len(),
                map,
            });
            Tree::Leaf(leaves.len() - 1)
        }
    }
}

/// A region read back from a plan as [`flatten`] takes one apart: leaves
/// in frame order, the predicates of its inner joins and the filters over
/// them in that frame, and each semi or anti join with the offset of its
/// left input. The model reads leaves and predicates, so a semi or anti
/// join moved onto a leaf prices there as the leaf the search priced.
#[derive(Default)]
pub(crate) struct Region<'a> {
    pub leaves: Vec<&'a Plan>,
    pub preds: Vec<Expr>,
    pub filters: Vec<(&'a Plan, usize)>,
}

impl<'a> Region<'a> {
    pub fn of(p: &'a Plan) -> Self {
        let mut region = Region::default();
        region.collect(p, 0);
        region
    }

    /// Walk `p`, whose frame starts at `off`, returning its width.
    fn collect(&mut self, p: &'a Plan, off: usize) -> usize {
        match p {
            Plan::Join {
                kind: JoinKind::Inner,
                left,
                right,
                equi,
                residual,
            } => {
                let lw = self.collect(left, off);
                let rw = self.collect(right, off + lw);
                for (l, r) in equi {
                    self.preds
                        .push(Expr::eq_pair(l.shifted(off), r.shifted(off + lw)));
                }
                for c in residual.iter().flat_map(Expr::conjuncts) {
                    self.preds.push(c.shifted(off));
                }
                lw + rw
            }
            Plan::Join {
                kind: JoinKind::Semi | JoinKind::Anti,
                left,
                ..
            } => {
                self.filters.push((p, off));
                self.collect(left, off)
            }
            Plan::Filter { input, predicate } if is_inner_region(input) => {
                let w = self.collect(input, off);
                for c in predicate.conjuncts() {
                    self.preds.push(c.shifted(off));
                }
                w
            }
            _ => {
                self.leaves.push(p);
                p.width()
            }
        }
    }
}

/// An inner join under zero or more filters.
pub(crate) fn is_inner_region(p: &Plan) -> bool {
    is_inner_join(p) || matches!(p, Plan::Filter { input, .. } if is_inner_region(input))
}

/// Lift a conjunct into the region frame: into the pool, or into the
/// filter above the region when it must not move (a subquery, or no
/// column at all — the same `immovable` rule the rewriter uses).
fn lift(c: &Expr, start: usize, hoisted: &mut Vec<Expr>, pinned: &mut Vec<Expr>) {
    let e = c.shifted(start);
    if e.contains_subquery() || e.slots().is_empty() {
        pinned.push(e);
    } else {
        hoisted.push(e);
    }
}

/// Per-slot statistics of a plan's output: a scan's columns, seen
/// through the filters above it; unknown for anything else.
fn slot_stats(p: &Plan) -> Vec<Option<SlotStat>> {
    match p {
        Plan::Scan { table, live, .. } => live.iter().map(|&ci| column_stat(table, ci)).collect(),
        Plan::Filter { input, .. } => slot_stats(input),
        _ => vec![None; p.width()],
    }
}

fn column_stat(table: &Table, ci: usize) -> Option<SlotStat> {
    table.col_stats(ci).map(|cs| {
        let scale = match &table.columns[ci].data {
            ColumnData::Decimal { scale, .. } => Some(*scale),
            _ => None,
        };
        SlotStat::from_col(cs, scale)
    })
}

/// The load-time statistic behind a join key, when the key is a bare
/// column that reaches a stored table through filters and joins only.
fn key_stat(p: &Plan, key: &Expr) -> Option<SlotStat> {
    let Expr::Col { slot, .. } = key else {
        return None;
    };
    let (table, column, _) = p.stored_column(*slot)?;
    column_stat(table, column)
}

fn inorder(t: &Tree, out: &mut Vec<usize>) {
    match t {
        Tree::Leaf(i) => out.push(*i),
        Tree::Join(l, r) => {
            inorder(l, out);
            inorder(r, out);
        }
    }
}

/// The lowest and highest slot a movable conjunct reads.
fn span(e: &Expr) -> (usize, usize) {
    e.slots()
        .into_iter()
        .fold((usize::MAX, 0), |(lo, hi), s| (lo.min(s), hi.max(s)))
}

/// A pooled conjunct in the rebuilt frame, waiting for the lowest join
/// whose slot range covers `lo..=hi`.
struct Pending {
    expr: Expr,
    lo: usize,
    hi: usize,
}

/// Build the chosen tree bottom-up, placing each pending conjunct at its
/// lowest covering join: in the rebuilt frame every subtree reads one
/// contiguous slot range. Returns `(plan, frame start, width)`.
fn build_tree(
    t: &Tree,
    plans: &mut [Option<Plan>],
    pending: &mut [Option<Pending>],
    new_off: &[usize],
    widths: &[usize],
) -> (Plan, usize, usize) {
    match t {
        Tree::Leaf(i) => (
            plans[*i].take().expect("leaf built twice"),
            new_off[*i],
            widths[*i],
        ),
        Tree::Join(l, r) => {
            let (pl, sl, wl) = build_tree(l, plans, pending, new_off, widths);
            let (pr, sr, wr) = build_tree(r, plans, pending, new_off, widths);
            debug_assert_eq!(sr, sl + wl, "in-order frame must be contiguous");
            let mut equi = Vec::new();
            let mut residual = Vec::new();
            for slot in pending.iter_mut() {
                let Some(p) = slot else { continue };
                if p.lo < sl || p.hi >= sr + wr {
                    continue;
                }
                let e = slot.take().expect("checked above").expr;
                match split_sides(&e, sl, wl, sr, wr) {
                    Some(pair) => equi.push(pair),
                    None => {
                        let mut c = e;
                        c.map_slots(&|s| s - sl);
                        residual.push(c);
                    }
                }
            }
            let plan = Plan::Join {
                left: Box::new(pl),
                right: Box::new(pr),
                kind: JoinKind::Inner,
                equi,
                residual: Expr::conjoin(residual),
            };
            (plan, sl, wl + wr)
        }
    }
}

/// If `e` is `a = b` with `a` entirely in the left side's slot range
/// (`sl`, width `wl`) and `b` in the right's (or mirrored), return the
/// localized `(left_key, right_key)` pair. The one function that splits
/// an equality into join keys.
pub(crate) fn split_sides(
    e: &Expr,
    sl: usize,
    wl: usize,
    sr: usize,
    wr: usize,
) -> Option<(Expr, Expr)> {
    let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = e
    else {
        return None;
    };
    let in_range = |x: &Expr, start: usize, w: usize| {
        let slots = x.slots();
        !slots.is_empty() && slots.iter().all(|&s| s >= start && s < start + w)
    };
    let localize = |x: &Expr, start: usize| {
        let mut c = x.clone();
        c.map_slots(&|s| s - start);
        c
    };
    if in_range(left, sl, wl) && in_range(right, sr, wr) {
        Some((localize(left, sl), localize(right, sr)))
    } else if in_range(left, sr, wr) && in_range(right, sl, wl) {
        Some((localize(right, sl), localize(left, sr)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::storage::Database;
    use sqalpel_sql::parse_query;

    fn optimized(sql: &str) -> BoundQuery {
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sql).unwrap();
        let mut bq = Planner::new(&db).with_optimize(false).bind(&q).unwrap();
        optimize(&mut bq, &CardHints::default(), true);
        bq
    }

    fn count_cross_joins(p: &Plan) -> usize {
        match p {
            Plan::Join {
                left, right, equi, ..
            } => {
                let here = usize::from(equi.is_empty());
                here + count_cross_joins(left) + count_cross_joins(right)
            }
            Plan::Filter { input, .. } => count_cross_joins(input),
            Plan::Derived { query, .. } => count_cross_joins(&query.core),
            _ => 0,
        }
    }

    fn schema_names(p: &Plan) -> Vec<String> {
        p.schema()
            .into_iter()
            .map(|c| format!("{}.{}", c.binding, c.name))
            .collect()
    }

    #[test]
    fn reorder_keeps_schema_as_a_permutation() {
        let db = Database::tpch(0.001, 42);
        let sql = "select n_name from customer, orders, lineitem, nation \
                   where c_custkey = o_custkey and l_orderkey = o_orderkey \
                   and c_nationkey = n_nationkey and n_name = 'KENYA'";
        let q = parse_query(sql).unwrap();
        let mut bq = Planner::new(&db)
            .with_rewrite(false)
            .with_optimize(false)
            .bind(&q)
            .unwrap();
        let before = {
            let mut v = schema_names(&bq.core);
            v.sort();
            v
        };
        optimize(&mut bq, &CardHints::default(), true);
        let mut after = schema_names(&bq.core);
        after.sort();
        assert_eq!(before, after);
        // Items must still resolve against the permuted frame.
        assert_eq!(bq.items.len(), 1);
    }

    #[test]
    fn unconnected_from_order_avoids_cross_joins() {
        // Syntactically part joins supplier with no shared key: a cross
        // join in FROM order. The search must route through partsupp.
        let bq = optimized(
            "select count(*) from part, supplier, partsupp \
             where p_partkey = ps_partkey and s_suppkey = ps_suppkey",
        );
        assert_eq!(count_cross_joins(&bq.core), 0, "{:?}", bq.core);
    }

    #[test]
    fn optimization_is_deterministic() {
        let sql = "select n_name, count(*) from customer, orders, lineitem, supplier, nation \
                   where c_custkey = o_custkey and l_orderkey = o_orderkey \
                   and l_suppkey = s_suppkey and c_nationkey = s_nationkey \
                   and s_nationkey = n_nationkey group by n_name";
        let a = crate::ir::explain(&optimized(sql));
        let b = crate::ir::explain(&optimized(sql));
        assert_eq!(a.text, b.text);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn hints_steer_the_join_order() {
        let db = Database::tpch(0.001, 42);
        let sql = "select count(*) from nation, region \
                   where n_regionkey = r_regionkey";
        let q = parse_query(sql).unwrap();
        // Claim nation is tiny and region is huge: the build side must
        // flip relative to the opposite claim.
        let mut small_nation = CardHints::default();
        small_nation.insert(vec!["nation".into()], 1.0);
        small_nation.insert(vec!["region".into()], 1e6);
        let mut small_region = CardHints::default();
        small_region.insert(vec!["nation".into()], 1e6);
        small_region.insert(vec!["region".into()], 1.0);
        let plan_with = |hints: &CardHints| {
            let mut bq = Planner::new(&db).with_optimize(false).bind(&q).unwrap();
            optimize(&mut bq, hints, true);
            crate::ir::explain(&bq).text
        };
        assert_ne!(plan_with(&small_nation), plan_with(&small_region));
    }

    #[test]
    fn without_the_search_the_tree_as_bound_gets_its_keys() {
        // FROM order puts region over (nation ⋈ supplier): a bushy tree,
        // kept as bound, each equality a key of its lowest covering join.
        let db = Database::tpch(0.001, 42);
        let q = parse_query(
            "select count(*) from region, nation join supplier on n_nationkey = s_nationkey \
             where r_regionkey = n_regionkey",
        )
        .unwrap();
        let bq = Planner::new(&db).with_optimize(false).bind(&q).unwrap();
        let Plan::Join {
            left, right, equi, ..
        } = &bq.core
        else {
            panic!("{:?}", bq.core)
        };
        assert!(matches!(**left, Plan::Scan { .. }), "{left:?}");
        assert!(
            matches!(&**right, Plan::Join { equi, .. } if equi.len() == 1),
            "{right:?}"
        );
        assert_eq!(equi.len(), 1);
        assert_eq!(count_cross_joins(&bq.core), 0);
    }

    /// Each semi and anti join, innermost first, with the bindings of
    /// the input it filters.
    fn filtered_inputs(p: &Plan, out: &mut Vec<(JoinKind, Vec<String>)>) {
        match p {
            Plan::Join {
                left, right, kind, ..
            } => {
                filtered_inputs(left, out);
                filtered_inputs(right, out);
                if !kind.emits_right() {
                    out.push((*kind, left.bindings().into_iter().collect()));
                }
            }
            Plan::Filter { input, .. } => filtered_inputs(input, out),
            Plan::Derived { query, .. } => filtered_inputs(&query.core, out),
            _ => {}
        }
    }

    #[test]
    fn a_semi_join_moves_onto_its_leaf_only_where_the_leaf_is_smaller() {
        for (sf, seed) in [(0.001, 42), (0.02, 15)] {
            let db = Database::tpch(sf, seed);
            let placed = |name: &str, search: bool| {
                let sql = sqalpel_sql::tpch::query(name).unwrap();
                let q = parse_query(sql).unwrap();
                let bq = Planner::new(&db).with_optimize(search).bind(&q).unwrap();
                let mut out = Vec::new();
                filtered_inputs(&bq.core, &mut out);
                out
            };
            // Q18's IN filters `orders` (a few thousand rows) instead of
            // `lineitem ⋈ orders ⋈ customer` (four times as many).
            let q18 = placed("Q18", true);
            let on_orders = [(JoinKind::Semi, vec!["orders".to_string()])];
            assert_eq!(q18, on_orders, "SF {sf}");
            assert_ne!(q18, placed("Q18", false), "SF {sf}");
            // Q16's partsupp, Q20's supplier and Q21's l1 are estimated
            // larger than their regions.
            for name in ["Q16", "Q20", "Q21"] {
                assert_eq!(placed(name, true), placed(name, false), "{name} at SF {sf}");
            }
        }
        // Strictly fewer rows: a leaf that ties with its region keeps the
        // join on top.
        let db = Database::tpch(0.001, 42);
        let q = parse_query(sqalpel_sql::tpch::query("Q18").unwrap()).unwrap();
        let top_kind = |orders: f64| {
            let mut hints = CardHints::default();
            hints.insert(vec!["orders".into()], orders);
            let region = ["customer", "lineitem", "orders"].map(String::from);
            hints.insert(region.to_vec(), 5.0);
            let bq = Planner::new(&db).with_hints(hints).bind(&q).unwrap();
            match bq.core {
                Plan::Join { kind, .. } => kind,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(top_kind(5.0), JoinKind::Semi);
        assert_eq!(top_kind(4.0), JoinKind::Inner);
    }

    #[test]
    fn all_tpch_queries_survive_optimization() {
        let db = Database::tpch(0.001, 42);
        for (name, sql) in sqalpel_sql::tpch::all_queries() {
            let q = parse_query(sql).unwrap();
            let mut bq = Planner::new(&db)
                .bind(&q)
                .unwrap_or_else(|e| panic!("{name}: bind failed: {e}"));
            optimize(&mut bq, &CardHints::default(), true);
        }
    }
}
