//! Operator-level profiling for both executors.
//!
//! A [`Profiler`] is an *optional* hook owned by an executor. When absent
//! (the default), the execution paths take an early return and no
//! metrics code runs — profiling is zero-cost when off. When present,
//! every IR node execution records a [`NodeMetrics`] sample keyed by the
//! node's address ([`node_key`]), which is stable for the lifetime of
//! the bound plan tree.
//!
//! A profiler belongs to one thread. An operator that fans work out over
//! morsel workers is timed and counted as a whole by the coordinating
//! thread, once its workers are done — the workers run without a
//! profiler — so there is one sample per execution at every worker
//! count, and a scan's clock can never exceed its parent's. Repeated
//! executions of one node (a correlated subquery's) add up in its
//! sample: every field is a sum.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Per-node counters: everything is a sum.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Rows consumed from the node's children (table rows for scans).
    pub rows_in: u64,
    /// Rows the node handed to its parent.
    pub rows_out: u64,
    /// Distinct executions of the node.
    pub batches: u64,
    /// Wall-clock nanoseconds spent in the node and its inputs — never
    /// in the consumer of its rows. The column engine materializes, so
    /// an operator's clock stops before its parent starts; the row
    /// engine pushes rows into the parent's code and takes that time
    /// back out (per batch in its scan front end, with a clock read on
    /// either side of each push in the other operators — the cost of
    /// profiling a join is two reads per row it emits). A node's self
    /// time is therefore `nanos` minus its children's, in both engines.
    /// Only the `select` node of a query is inclusive of everything: it
    /// is the root.
    pub nanos: u64,
    /// Storage chunks a base-table scan went through. Zero for other
    /// nodes, and for column-engine scans no filter was fused into
    /// (they materialize whole columns and consult no zone map).
    pub chunks_scanned: u64,
    /// Storage chunks a scan skipped outright because the zone map proved
    /// no row could pass the predicate.
    pub chunks_skipped: u64,
}

impl NodeMetrics {
    /// Accumulate another sample into this one.
    pub fn absorb(&mut self, other: &NodeMetrics) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.nanos += other.nanos;
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_skipped += other.chunks_skipped;
    }
}

/// One operator's metrics row in an executed profile, in EXPLAIN render
/// order — the shape the platform ships over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator label, e.g. `"scan lineitem"`, `"join inner"`.
    pub op: String,
    pub metrics: NodeMetrics,
}

/// One execution's per-node metrics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ProfileShard {
    nodes: HashMap<usize, NodeMetrics>,
}

impl ProfileShard {
    pub fn new() -> ProfileShard {
        ProfileShard::default()
    }

    /// Add a sample for `key`.
    pub fn record(&mut self, key: usize, sample: NodeMetrics) {
        self.nodes.entry(key).or_default().absorb(&sample);
    }

    pub fn get(&self, key: usize) -> Option<&NodeMetrics> {
        self.nodes.get(&key)
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (usize, &NodeMetrics)> {
        self.nodes.iter().map(|(k, m)| (*k, m))
    }
}

/// The coordinator-side profiler an executor optionally owns.
///
/// Interior mutability because the executors take `&self` everywhere;
/// executors are single-threaded per worker, so a `RefCell` suffices.
#[derive(Debug, Default)]
pub struct Profiler {
    shard: RefCell<ProfileShard>,
}

impl Profiler {
    pub fn new() -> Profiler {
        Profiler::default()
    }

    pub fn record(&self, key: usize, sample: NodeMetrics) {
        self.shard.borrow_mut().record(key, sample);
    }

    /// The cumulative rows_out of one node so far — used by parents to
    /// compute their rows_in as a delta across a child execution, which
    /// stays correct when a subtree runs more than once (correlated
    /// subqueries).
    pub fn rows_out_of(&self, key: usize) -> u64 {
        self.shard
            .borrow()
            .get(key)
            .map(|m| m.rows_out)
            .unwrap_or(0)
    }

    /// Take the accumulated profile, leaving the profiler empty.
    pub fn take(&self) -> ProfileShard {
        std::mem::take(&mut self.shard.borrow_mut())
    }
}

/// Address-based key for a plan node. Bound plan trees are immutable and
/// outlive execution, so the address is a stable identity — the same
/// trick the executors' subquery cache uses.
pub fn node_key<T>(node: &T) -> usize {
    node as *const T as usize
}

/// Cumulative profiled rows_out of a node's direct children — read before
/// and after an execution, the difference is the rows the node consumed
/// *this* time (stable under repeated executions of one bound tree).
pub(crate) fn child_rows_out(prof: &Profiler, plan: &crate::plan::Plan) -> u64 {
    use crate::plan::Plan;
    match plan {
        Plan::Scan { .. } | Plan::Derived { .. } | Plan::Cte { .. } => 0,
        Plan::Filter { input, .. } => prof.rows_out_of(node_key(&**input)),
        Plan::Join { left, right, .. } => {
            prof.rows_out_of(node_key(&**left)) + prof.rows_out_of(node_key(&**right))
        }
    }
}

/// Distill an executed profile into cardinality hints for the optimizer.
///
/// Walks the bound plan that produced `prof` (profile keys are node
/// addresses, so it must be the *same* tree instance) and records each
/// node's actual `rows_out` under its binding set — the join-order
/// invariant currency [`crate::ir::cost::CardHints`] trades in. The walk
/// is top-down and first-writer-wins, which means "the topmost operator
/// over that binding set": for a leaf its filter, if any, provides the
/// post-filter cardinality the optimizer actually wants. A semi or anti
/// join emits its left input's columns only and so has its left input's
/// binding set — the hint for that set is the join's output, i.e. the
/// rows that survived the `EXISTS`/`IN`, and the input below it gets no
/// hint of its own.
///
/// A binding set names one subplan only within a block. When two
/// unrelated subtrees carry the same set — an unnested body or a derived
/// table that scans the table its enclosing block scans, unaliased
/// (`from lineitem where x in (select .. from lineitem)`) — neither count
/// describes the other, and the set gets no hint at all.
pub fn extract_feedback(
    bq: &crate::plan::BoundQuery,
    prof: &ProfileShard,
) -> crate::ir::cost::CardHints {
    let mut walk = FeedbackWalk {
        prof,
        hints: crate::ir::cost::CardHints::default(),
        spoken: BTreeSet::new(),
    };
    walk.query(bq);
    walk.hints
}

struct FeedbackWalk<'a> {
    prof: &'a ProfileShard,
    hints: crate::ir::cost::CardHints,
    /// Every binding set some operator has spoken for, ambiguous ones
    /// (dropped from `hints`) included.
    spoken: BTreeSet<Vec<String>>,
}

impl FeedbackWalk<'_> {
    fn query(&mut self, bq: &crate::plan::BoundQuery) {
        for (_, body) in &bq.ctes {
            self.query(body);
        }
        self.plan(&bq.core, false);
    }

    /// `covered`: an operator above `p` with `p`'s binding set (a filter
    /// over it, a semi or anti join it is the left input of) already
    /// spoke for the set.
    fn plan(&mut self, p: &crate::plan::Plan, covered: bool) {
        use crate::plan::Plan;
        let mut covered = covered;
        if let (false, Some(m)) = (covered, self.prof.get(node_key(p))) {
            let mut bindings: Vec<String> = p.bindings().into_iter().collect();
            bindings.sort();
            if self.spoken.insert(bindings.clone()) {
                self.hints.insert(bindings, m.rows_out as f64);
            } else {
                self.hints.remove(&bindings);
            }
            covered = true;
        }
        match p {
            Plan::Filter { input, .. } => self.plan(input, covered),
            Plan::Join {
                left, right, kind, ..
            } => {
                self.plan(left, covered && !kind.emits_right());
                self.plan(right, false);
            }
            Plan::Derived { query, .. } => self.query(query),
            Plan::Scan { .. } | Plan::Cte { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows_in: u64, rows_out: u64, batches: u64, nanos: u64) -> NodeMetrics {
        NodeMetrics {
            rows_in,
            rows_out,
            batches,
            nanos,
            ..NodeMetrics::default()
        }
    }

    #[test]
    fn record_accumulates_per_key() {
        let mut s = ProfileShard::new();
        s.record(1, sample(10, 5, 1, 100));
        s.record(1, sample(20, 15, 1, 50));
        s.record(2, sample(1, 1, 1, 1));
        assert_eq!(s.get(1), Some(&sample(30, 20, 2, 150)));
        assert_eq!(s.get(2), Some(&sample(1, 1, 1, 1)));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn profiler_take_drains() {
        let p = Profiler::new();
        p.record(7, sample(4, 4, 1, 9));
        assert_eq!(p.rows_out_of(7), 4);
        let taken = p.take();
        assert_eq!(taken.get(7), Some(&sample(4, 4, 1, 9)));
        assert!(p.take().is_empty());
    }
}
