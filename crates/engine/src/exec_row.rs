//! The row engine executor: tuple-at-a-time, pipelined, float arithmetic.
//!
//! "System A" of the pair. Rows flow through the operator tree one at a
//! time via push-based sinks — nothing is materialized except hash-join
//! build sides, grouping state and the final result. Decimals are
//! converted to `f64` on touch ([`ArithMode::Float`]): cheap arithmetic,
//! no overflow guards — the opposite trade-off from the column engine.

use crate::error::{EngineError, EngineResult};
use crate::eval::{
    self, collect_aggregates, eval, eval_filter, Accumulator, AggValues, CteFrame, Env, EvalCtx,
    Rows, SubStates, SubqueryRunner,
};
use crate::ir::Expr;
use crate::morsel::{self, BudgetCounter};
use crate::output::{finish_rows, sort_keys};
use crate::plan::{BoundQuery, JoinKind, Plan, Schema};
use crate::profile::{self, child_rows_out, NodeMetrics, ProfileShard, Profiler};
use crate::storage::Database;
use crate::codec::FxBuild;
use crate::value::{self, ArithMode, Value};
use sqalpel_sql::ast::Query;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// One query execution over the row engine.
///
/// Created per statement; holds the per-execution subquery cache and the
/// CTE materialization stack.
pub struct RowExec<'a> {
    db: &'a Database,
    /// Rows the execution may touch before aborting with
    /// [`EngineError::Budget`] (morphed queries can go cartesian).
    budget: u64,
    used: BudgetCounter,
    /// Worker cap for the morsel-parallel scan+filter front end; `1`
    /// keeps execution fully sequential.
    threads: usize,
    subqueries: SubStates,
    /// CTE frames: innermost last.
    ctes: RefCell<Vec<CteFrame>>,
    /// False for the legacy (pre-hash-join) version: every join runs as a
    /// nested loop over its equality predicates.
    hash_joins: bool,
    /// Whether the logical rewriter and the join-order optimizer run on
    /// the subqueries this execution binds at runtime (both on by
    /// default; the equivalence suites turn one off to diff against raw
    /// or syntactic-order plans).
    rewrite: bool,
    optimize: bool,
    /// Per-node metrics collection; `None` (the default) keeps every
    /// operator on an early-return path with no metrics code at all.
    profiler: Option<Profiler>,
}

const MODE: ArithMode = ArithMode::Float;

impl<'a> RowExec<'a> {
    pub fn new(db: &'a Database, budget: u64) -> Self {
        Self::with_options(db, budget, true)
    }

    /// Constructor with the hash-join switch (false = RowStore 1.x
    /// nested-loop behaviour).
    pub fn with_options(db: &'a Database, budget: u64, hash_joins: bool) -> Self {
        Self::with_threads(db, budget, hash_joins, 1)
    }

    /// Constructor with the worker cap. Only the scan+filter front end
    /// parallelizes — float aggregation must fold in row order — and
    /// `threads = 1` is exactly the sequential executor.
    pub fn with_threads(db: &'a Database, budget: u64, hash_joins: bool, threads: usize) -> Self {
        let threads = threads.max(1);
        RowExec {
            db,
            budget,
            // A shared (atomic) counter only pays off when a parallel
            // plan can actually be chosen; otherwise every per-row charge
            // would eat an atomic increment for nothing.
            used: if morsel::effective_workers(threads) > 1 {
                BudgetCounter::shared()
            } else {
                BudgetCounter::local()
            },
            threads,
            subqueries: RefCell::new(HashMap::new()),
            ctes: RefCell::new(Vec::new()),
            hash_joins,
            rewrite: true,
            optimize: true,
            profiler: None,
        }
    }

    /// Set the planner flags the runtime subquery binds of this
    /// execution use, so they match how the statement itself was bound.
    pub fn with_planner_flags(mut self, rewrite: bool, optimize: bool) -> Self {
        self.rewrite = rewrite;
        self.optimize = optimize;
        self
    }

    /// Collect per-node metrics during execution; retrieve the profile
    /// with [`Self::take_profile`] afterwards.
    pub fn with_profiler(mut self) -> Self {
        self.profiler = Some(Profiler::new());
        self
    }

    /// The metrics accumulated so far, draining the profiler. Empty when
    /// profiling was never enabled.
    pub fn take_profile(&self) -> ProfileShard {
        self.profiler
            .as_ref()
            .map(|p| p.take())
            .unwrap_or_default()
    }

    /// A sequential executor for one parallel worker, charging the shared
    /// budget of the coordinating execution. Workers never profile into
    /// the coordinator directly; morsel kernels collect per-worker
    /// [`ProfileShard`]s and merge them after the parallel region.
    fn worker(db: &'a Database, budget: u64, hash_joins: bool, counter: Arc<AtomicU64>) -> Self {
        RowExec {
            db,
            budget,
            used: BudgetCounter::Shared(counter),
            threads: 1,
            subqueries: RefCell::new(HashMap::new()),
            ctes: RefCell::new(Vec::new()),
            hash_joins,
            rewrite: true,
            optimize: true,
            profiler: None,
        }
    }

    fn charge(&self, n: u64) -> EngineResult<()> {
        let used = self.used.add(n);
        if used > self.budget {
            Err(EngineError::Budget(format!("{used} rows touched")))
        } else {
            Ok(())
        }
    }

    /// Execute a bound query, with `outer` in scope for correlation.
    pub fn run_query(
        &self,
        bq: &BoundQuery,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Vec<Vec<Value>>> {
        let Some(prof) = &self.profiler else {
            return self.run_query_inner(bq, outer);
        };
        // The select node's rows_in is the *delta* of the core's
        // cumulative rows_out across this execution, so repeated runs of
        // one bound tree (correlated subqueries) never double-count.
        let root = profile::node_key(&bq.core);
        let before = prof.rows_out_of(root);
        let start = Instant::now();
        let rows = self.run_query_inner(bq, outer)?;
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

    fn run_query_inner(
        &self,
        bq: &BoundQuery,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Vec<Vec<Value>>> {
        // Materialize CTEs innermost-last; pop them on exit.
        let frame_base = self.ctes.borrow().len();
        for (name, cte_query) in &bq.ctes {
            let rows = self.run_query(cte_query, outer)?;
            self.ctes.borrow_mut().push(CteFrame {
                name: name.clone(),
                cols: cte_query.output_schema(),
                rows: Rc::new(rows),
            });
        }
        let result = self.run_body(bq, outer);
        self.ctes.borrow_mut().truncate(frame_base);
        result
    }

    fn run_body(
        &self,
        bq: &BoundQuery,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Vec<Vec<Value>>> {
        let core_schema = bq.core.schema();
        let ctx = EvalCtx::new(self, MODE);

        // (output row, sort keys) pairs.
        let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();

        if bq.aggregated {
            self.run_aggregated(bq, &core_schema, outer, &ctx, &mut produced)?;
        } else {
            self.execute_core(&bq.core, outer, &mut |row| {
                let env = match outer {
                    Some(o) => Env::with_outer(&core_schema, row, o),
                    None => Env::new(&core_schema, row),
                };
                let mut out = Vec::with_capacity(bq.items.len());
                for item in &bq.items {
                    out.push(eval(&item.expr, &env, &ctx)?);
                }
                let keys = sort_keys(bq, &out, &env, &ctx, None)?;
                produced.push((out, keys));
                Ok(())
            })?;
        }

        finish_rows(bq, produced)
    }

    fn run_aggregated(
        &self,
        bq: &BoundQuery,
        core_schema: &Schema,
        outer: Option<&Env<'_>>,
        ctx: &EvalCtx<'_>,
        produced: &mut Vec<(Vec<Value>, Vec<Value>)>,
    ) -> EngineResult<()> {
        // Aggregates can appear in the select list, HAVING and ORDER BY.
        let mut agg_exprs: Vec<&Expr> = bq.items.iter().map(|i| &i.expr).collect();
        if let Some(h) = &bq.having {
            agg_exprs.push(h);
        }
        for (k, _) in &bq.order_by {
            agg_exprs.push(k);
        }
        let specs = collect_aggregates(&agg_exprs);
        let keys: Vec<String> = specs.iter().map(|s| s.key.clone()).collect();

        // Group state in first-seen order for deterministic output. Keys
        // are tagged byte encodings ([`value::encode_key`]) built in one
        // reused buffer — an owned copy exists only per distinct group.
        let mut group_index: HashMap<Vec<u8>, usize, FxBuild> = HashMap::default();
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        let mut key_buf: Vec<u8> = Vec::new();

        self.execute_core(&bq.core, outer, &mut |row| {
            let env = match outer {
                Some(o) => Env::with_outer(core_schema, row, o),
                None => Env::new(core_schema, row),
            };
            key_buf.clear();
            for g in &bq.group_by {
                value::encode_key(&eval(g, &env, ctx)?, &mut key_buf)?;
            }
            let idx = match group_index.get(key_buf.as_slice()) {
                Some(&i) => i,
                None => {
                    let i = groups.len();
                    group_index.insert(key_buf.clone(), i);
                    groups.push((
                        row.to_vec(),
                        specs.iter().map(|s| Accumulator::new(s, MODE)).collect(),
                    ));
                    i
                }
            };
            let (_, accs) = &mut groups[idx];
            for (spec, acc) in specs.iter().zip(accs.iter_mut()) {
                match &spec.arg {
                    None => acc.update(None)?,
                    Some(arg) => {
                        let v = eval(arg, &env, ctx)?;
                        acc.update(Some(&v))?;
                    }
                }
            }
            Ok(())
        })?;

        // A global aggregate over zero rows still yields one group.
        if groups.is_empty() && bq.group_by.is_empty() {
            groups.push((
                vec![Value::Null; core_schema.len()],
                specs.iter().map(|s| Accumulator::new(s, MODE)).collect(),
            ));
        }

        for (rep_row, accs) in &groups {
            let values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
            let aggs = AggValues {
                keys: &keys,
                values: &values,
            };
            let env = match outer {
                Some(o) => Env::with_outer(core_schema, rep_row, o),
                None => Env::new(core_schema, rep_row),
            };
            let gctx = ctx.with_aggs(&aggs);
            if let Some(h) = &bq.having {
                if !eval_filter(h, &env, &gctx)? {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(bq.items.len());
            for item in &bq.items {
                out.push(eval(&item.expr, &env, &gctx)?);
            }
            let skeys = sort_keys(bq, &out, &env, &gctx, Some(&aggs))?;
            produced.push((out, skeys));
        }
        Ok(())
    }

    /// Morsel-parallel scan+filter front end: workers materialize and
    /// filter base-table rows per morsel; survivors feed the downstream
    /// single-threaded pipeline in morsel order — exactly the row order
    /// the sequential scan emits. Per-row predicate evaluation is order
    /// independent, so the float pipeline's fold order is untouched.
    /// Returns `false` when the shape or configuration keeps this on the
    /// sequential path.
    fn par_filter_scan(
        &self,
        input: &Plan,
        predicate: &Expr,
        outer: Option<&Env<'_>>,
        sink: &mut dyn FnMut(&[Value]) -> EngineResult<()>,
    ) -> EngineResult<bool> {
        let Plan::Scan { table, live, .. } = input else {
            return Ok(false);
        };
        let Some(counter) = self.used.handle() else {
            return Ok(false);
        };
        if morsel::effective_workers(self.threads) < 2
            || outer.is_some()
            || table.row_count() < morsel::MIN_PARALLEL_ROWS
            || !predicate.parallel_safe()
        {
            return Ok(false);
        }
        let schema = input.schema();
        // Slots the predicate actually reads. `parallel_safe` already
        // rejected subqueries, so `predicate.slots()` is the complete
        // read set; every other live column is materialized lazily, only
        // for rows that survive the filter.
        let needed: Vec<bool> = {
            let slots = predicate.slots();
            (0..schema.len()).map(|i| slots.contains(&i)).collect()
        };
        let ncols = live.len();
        let db = self.db;
        let budget = self.budget;
        let hash_joins = self.hash_joins;
        // This kernel bypasses `execute_core` for the scan child, so when
        // profiling each worker records the scan's share of the work in a
        // private shard (a `Profiler` is not `Sync`); the coordinator
        // merges the shards after the parallel region, in morsel order.
        let profiling = self.profiler.is_some();
        let scan_key = profile::node_key(input);
        let kept: Vec<(Vec<Vec<Value>>, Option<ProfileShard>)> =
            morsel::run_on_morsels(table.row_count(), self.threads, |range| {
                let w = RowExec::worker(db, budget, hash_joins, Arc::clone(&counter));
                let ctx = EvalCtx::new(&w, MODE);
                let mut rows = Vec::new();
                let mut row: Vec<Value> = Vec::with_capacity(ncols);
                // One charge per morsel, not per row: totals (and therefore
                // whether the budget trips) are identical to the sequential
                // per-row charges, without a contended atomic in the loop.
                w.charge(range.len() as u64)?;
                let scanned = range.len() as u64;
                let start = profiling.then(Instant::now);
                for i in range {
                    row.clear();
                    row.extend(live.iter().zip(&needed).map(
                        |(&ci, &n)| {
                            if n {
                                table.columns[ci].data.get(i)
                            } else {
                                Value::Null
                            }
                        },
                    ));
                    let env = Env::new(&schema, &row);
                    if eval_filter(predicate, &env, &ctx)? {
                        // Survivor: fill in the columns skipped above.
                        for (cell, (&ci, &n)) in
                            row.iter_mut().zip(live.iter().zip(&needed))
                        {
                            if !n {
                                *cell = table.columns[ci].data.get(i);
                            }
                        }
                        rows.push(std::mem::replace(&mut row, Vec::with_capacity(ncols)));
                    }
                }
                let shard = start.map(|t| {
                    let mut s = ProfileShard::new();
                    s.record(
                        scan_key,
                        NodeMetrics {
                            rows_in: scanned,
                            rows_out: scanned,
                            batches: 1,
                            nanos: t.elapsed().as_nanos() as u64,
                            ..NodeMetrics::default()
                        },
                    );
                    s
                });
                Ok((rows, shard))
            })?;
        for (rows, shard) in &kept {
            if let (Some(prof), Some(s)) = (&self.profiler, shard) {
                prof.absorb(s);
            }
            for row in rows {
                sink(row)?;
            }
        }
        Ok(true)
    }

    /// Push rows of the relational core through `sink`, recording
    /// per-node metrics when profiling is on. The off path is one branch
    /// and a tail call into [`Self::exec_node`].
    fn execute_core(
        &self,
        plan: &Plan,
        outer: Option<&Env<'_>>,
        sink: &mut dyn FnMut(&[Value]) -> EngineResult<()>,
    ) -> EngineResult<()> {
        let Some(prof) = &self.profiler else {
            return self.exec_node(plan, outer, sink);
        };
        let before = child_rows_out(prof, plan);
        let mut rows_out = 0u64;
        let start = Instant::now();
        self.exec_node(plan, outer, &mut |row| {
            rows_out += 1;
            sink(row)
        })?;
        let nanos = start.elapsed().as_nanos() as u64;
        let rows_in = match plan {
            Plan::Scan { table, .. } => table.row_count() as u64,
            Plan::Derived { .. } | Plan::Cte { .. } => rows_out,
            Plan::Filter { .. } | Plan::Join { .. } => child_rows_out(prof, plan) - before,
        };
        prof.record(
            profile::node_key(plan),
            NodeMetrics {
                rows_in,
                rows_out,
                batches: 1,
                nanos,
                ..NodeMetrics::default()
            },
        );
        Ok(())
    }

    /// The unprofiled node dispatch.
    fn exec_node(
        &self,
        plan: &Plan,
        outer: Option<&Env<'_>>,
        sink: &mut dyn FnMut(&[Value]) -> EngineResult<()>,
    ) -> EngineResult<()> {
        match plan {
            Plan::Scan { table, live, .. } => {
                // Every sink copies what it keeps, so one row buffer is
                // reused across the whole scan instead of a fresh
                // allocation per row. Only live (pruned) columns are
                // materialized.
                let mut row: Vec<Value> = Vec::with_capacity(live.len());
                for i in 0..table.row_count() {
                    self.charge(1)?;
                    row.clear();
                    row.extend(live.iter().map(|&ci| table.columns[ci].data.get(i)));
                    sink(&row)?;
                }
                Ok(())
            }
            Plan::Derived { query, .. } => {
                let rows = self.run_query(query, outer)?;
                for row in &rows {
                    self.charge(1)?;
                    sink(row)?;
                }
                Ok(())
            }
            Plan::Cte { name, .. } => {
                let rows = {
                    let frames = self.ctes.borrow();
                    frames
                        .iter()
                        .rev()
                        .find(|f| f.name == *name)
                        .map(|f| Rc::clone(&f.rows))
                        .ok_or_else(|| EngineError::UnknownTable(name.clone()))?
                };
                for row in rows.iter() {
                    self.charge(1)?;
                    sink(row)?;
                }
                Ok(())
            }
            Plan::Filter { input, predicate } => {
                if self.par_filter_scan(input, predicate, outer, sink)? {
                    return Ok(());
                }
                let schema = input.schema();
                let ctx = EvalCtx::new(self, MODE);
                self.execute_core(input, outer, &mut |row| {
                    let env = match outer {
                        Some(o) => Env::with_outer(&schema, row, o),
                        None => Env::new(&schema, row),
                    };
                    if eval_filter(predicate, &env, &ctx)? {
                        sink(row)?;
                    }
                    Ok(())
                })
            }
            Plan::Join {
                left,
                right,
                kind,
                equi,
                residual,
            } => self.execute_join(left, right, *kind, equi, residual.as_ref(), outer, sink),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_join(
        &self,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        equi: &[(Expr, Expr)],
        residual: Option<&Expr>,
        outer: Option<&Env<'_>>,
        sink: &mut dyn FnMut(&[Value]) -> EngineResult<()>,
    ) -> EngineResult<()> {
        let left_schema = left.schema();
        let right_schema = right.schema();
        let mut combined = left_schema.clone();
        combined.extend(right_schema.iter().cloned());
        let ctx = EvalCtx::new(self, MODE);

        // Build side: materialize the right input.
        let mut right_rows: Vec<Vec<Value>> = Vec::new();
        self.execute_core(right, outer, &mut |row| {
            right_rows.push(row.to_vec());
            Ok(())
        })?;

        // Legacy mode: fold the equality keys back into the residual and
        // run the nested loop. Right-side key slots were bound against the
        // right schema; shift them into combined-row positions.
        let folded;
        let (equi, residual) = if self.hash_joins || equi.is_empty() {
            (equi, residual)
        } else {
            let eq_preds: Vec<Expr> = equi
                .iter()
                .map(|(l, r)| Expr::eq_pair(l.clone(), r.shifted(left_schema.len())))
                .chain(residual.cloned())
                .collect();
            folded = Expr::conjoin(eq_preds);
            (&[][..], folded.as_ref())
        };

        // One candidate pair through the residual; emits the combined row
        // for the kinds that output it. Semi and anti joins stop at the
        // first match and emit the left row alone, once, afterwards.
        let emits_right = kind.emits_right();
        let pair = |lrow: &[Value],
                    rrow: &[Value],
                    sink: &mut dyn FnMut(&[Value]) -> EngineResult<()>|
         -> EngineResult<bool> {
            self.charge(1)?;
            if residual.is_none() && !emits_right {
                return Ok(true);
            }
            let mut row = lrow.to_vec();
            row.extend(rrow.iter().cloned());
            let keep = match residual {
                Some(r) => {
                    let env = match outer {
                        Some(o) => Env::with_outer(&combined, &row, o),
                        None => Env::new(&combined, &row),
                    };
                    eval_filter(r, &env, &ctx)?
                }
                None => true,
            };
            if keep && emits_right {
                sink(&row)?;
            }
            Ok(keep)
        };
        // What a left row contributes once its candidates are through.
        let finish = |lrow: &[Value],
                      matched: bool,
                      sink: &mut dyn FnMut(&[Value]) -> EngineResult<()>|
         -> EngineResult<()> {
            match kind {
                JoinKind::LeftOuter if !matched => {
                    let mut row = lrow.to_vec();
                    row.extend(std::iter::repeat_n(Value::Null, right_schema.len()));
                    sink(&row)
                }
                JoinKind::Semi if matched => sink(lrow),
                JoinKind::Anti if !matched => sink(lrow),
                _ => Ok(()),
            }
        };

        if equi.is_empty() {
            // Nested-loop (cross) join with optional residual.
            return self.execute_core(left, outer, &mut |lrow| {
                let mut matched = false;
                for rrow in &right_rows {
                    matched |= pair(lrow, rrow, sink)?;
                    if matched && !emits_right {
                        break;
                    }
                }
                finish(lrow, matched, sink)
            });
        }

        // Hash join: build on right keys. Keys are tagged byte encodings
        // ([`value::encode_key`]) built in one reused scratch buffer — an
        // owned copy exists only per distinct key, not per row.
        let mut table: HashMap<Vec<u8>, Vec<usize>, FxBuild> = HashMap::default();
        let mut key_buf: Vec<u8> = Vec::new();
        for (i, rrow) in right_rows.iter().enumerate() {
            self.charge(1)?;
            let env = match outer {
                Some(o) => Env::with_outer(&right_schema, rrow, o),
                None => Env::new(&right_schema, rrow),
            };
            key_buf.clear();
            for (_, rexpr) in equi {
                value::encode_key(&eval(rexpr, &env, &ctx)?, &mut key_buf)?;
            }
            match table.get_mut(key_buf.as_slice()) {
                Some(list) => list.push(i),
                None => {
                    table.insert(key_buf.clone(), vec![i]);
                }
            }
        }

        self.execute_core(left, outer, &mut |lrow| {
            self.charge(1)?;
            let lenv = match outer {
                Some(o) => Env::with_outer(&left_schema, lrow, o),
                None => Env::new(&left_schema, lrow),
            };
            key_buf.clear();
            for (lexpr, _) in equi {
                value::encode_key(&eval(lexpr, &lenv, &ctx)?, &mut key_buf)?;
            }
            let mut matched = false;
            if let Some(candidates) = table.get(key_buf.as_slice()) {
                for &ri in candidates {
                    matched |= pair(lrow, &right_rows[ri], sink)?;
                    if matched && !emits_right {
                        break;
                    }
                }
            }
            finish(lrow, matched, sink)
        })
    }
}

impl SubqueryRunner for RowExec<'_> {
    fn run_subquery(&self, q: &Query, outer: &Env<'_>) -> EngineResult<Rc<Rows>> {
        eval::run_subquery(
            &self.subqueries,
            q,
            outer,
            || eval::bind_subquery(self.db, &self.ctes.borrow(), self.rewrite, self.optimize, q),
            |bound, outer| self.run_query(bound, outer),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;

    fn db() -> Database {
        Database::tpch(0.001, 42)
    }

    fn try_run(
        db: &Database,
        budget: u64,
        sql: &str,
    ) -> EngineResult<(Vec<String>, Vec<Vec<Value>>)> {
        let q = sqalpel_sql::parse_query(sql)?;
        let bound = Planner::new(db).bind(&q)?;
        let rows = RowExec::new(db, budget).run_query(&bound, None)?;
        Ok((bound.output_names(), rows))
    }

    fn run(db: &Database, sql: &str) -> (Vec<String>, Vec<Vec<Value>>) {
        try_run(db, 50_000_000, sql).unwrap_or_else(|e| panic!("{sql} failed: {e}"))
    }

    #[test]
    fn count_star() {
        let d = db();
        let (_, rows) = run(&d, "select count(*) from nation");
        assert!(matches!(rows[0][0], Value::Int(25)));
    }

    #[test]
    fn filter_and_projection() {
        let d = db();
        let (names, rows) = run(&d, "select n_name, n_regionkey from nation where n_name = 'BRAZIL'");
        assert_eq!(names, vec!["n_name", "n_regionkey"]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].to_string(), "BRAZIL");
        assert!(matches!(rows[0][1], Value::Int(1)));
    }

    #[test]
    fn equi_join() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select n_name, r_name from nation, region \
             where n_regionkey = r_regionkey and r_name = 'EUROPE' order by n_name",
        );
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0].to_string(), "FRANCE");
        assert!(rows.iter().all(|r| r[1].to_string() == "EUROPE"));
    }

    #[test]
    fn group_by_with_aggregates() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select n_regionkey, count(*) as n from nation group by n_regionkey order by n_regionkey",
        );
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| matches!(r[1], Value::Int(5))));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select count(*), sum(n_nationkey) from nation where n_name = 'NOWHERE'",
        );
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0][0], Value::Int(0)));
        assert!(rows[0][1].is_null());
    }

    #[test]
    fn order_by_alias_desc_and_limit() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select n_name, n_nationkey as k from nation order by k desc limit 3",
        );
        assert_eq!(rows.len(), 3);
        assert!(matches!(rows[0][1], Value::Int(24)));
        assert!(matches!(rows[2][1], Value::Int(22)));
    }

    #[test]
    fn distinct_dedups() {
        let d = db();
        let (_, rows) = run(&d, "select distinct n_regionkey from nation");
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn having_filters_groups() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select l_returnflag, count(*) from lineitem group by l_returnflag \
             having count(*) > 100 order by l_returnflag",
        );
        assert!(!rows.is_empty());
        for r in &rows {
            if let Value::Int(n) = r[1] {
                assert!(n > 100);
            } else {
                panic!("expected int count");
            }
        }
    }

    #[test]
    fn uncorrelated_scalar_subquery() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select count(*) from supplier \
             where s_acctbal > (select avg(s_acctbal) from supplier)",
        );
        let Value::Int(n) = rows[0][0] else { panic!() };
        assert!(n > 0 && n < 10);
    }

    #[test]
    fn correlated_exists() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select count(*) from orders where exists (
               select * from lineitem where l_orderkey = o_orderkey and l_quantity > 49)",
        );
        let Value::Int(n) = rows[0][0] else { panic!() };
        // ~2% of lineitems have quantity 50; some orders qualify.
        assert!(n > 0 && n < 1500, "{n}");
    }

    #[test]
    fn in_subquery() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select count(*) from nation where n_regionkey in (
               select r_regionkey from region where r_name = 'ASIA' or r_name = 'AFRICA')",
        );
        assert!(matches!(rows[0][0], Value::Int(10)));
    }

    #[test]
    fn left_outer_join_pads_nulls() {
        let d = db();
        // Customers divisible by 3 have no orders; they must appear with
        // NULL order columns and count(o_orderkey) = 0.
        let (_, rows) = run(
            &d,
            "select c_custkey, count(o_orderkey) as n from customer \
             left outer join orders on c_custkey = o_custkey \
             group by c_custkey order by n, c_custkey limit 5",
        );
        assert!(matches!(rows[0][1], Value::Int(0)));
    }

    #[test]
    fn cte_materializes_and_joins() {
        let d = db();
        let (_, rows) = run(
            &d,
            "with big as (select l_orderkey, sum(l_quantity) as q from lineitem \
              group by l_orderkey having sum(l_quantity) > 150) \
             select count(*) from big",
        );
        let Value::Int(n) = rows[0][0] else { panic!() };
        assert!(n > 0, "some orders exceed 150 total quantity");
    }

    #[test]
    fn derived_table() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select avg(n) from (select n_regionkey, count(*) as n from nation \
             group by n_regionkey) t",
        );
        assert!(matches!(rows[0][0], Value::Float(f) if (f - 5.0).abs() < 1e-9));
    }

    #[test]
    fn budget_aborts_runaway_cross_join() {
        let d = db();
        let err = try_run(&d, 10_000, "select count(*) from lineitem, lineitem l2").unwrap_err();
        assert!(matches!(err, EngineError::Budget(_)));
    }

    #[test]
    fn unknown_column_reported() {
        let d = db();
        let err = try_run(&d, 1_000_000, "select bogus from nation").unwrap_err();
        assert!(matches!(err, EngineError::UnknownColumn(_)));
    }

    #[test]
    fn q1_shape() {
        let d = db();
        let (names, rows) = run(&d, sqalpel_sql::tpch::Q1);
        assert_eq!(names.len(), 10);
        // Four (returnflag, linestatus) groups at any reasonable SF.
        assert!(rows.len() >= 3 && rows.len() <= 4, "{} groups", rows.len());
        // sum_qty positive everywhere.
        assert!(rows.iter().all(|r| r[2].as_f64().unwrap() > 0.0));
    }

    #[test]
    fn q6_revenue() {
        let d = db();
        let (_, rows) = run(&d, sqalpel_sql::tpch::Q6);
        assert_eq!(rows.len(), 1);
        assert!(rows[0][0].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn q3_top_orders() {
        let d = db();
        let (_, rows) = run(&d, sqalpel_sql::tpch::Q3);
        assert!(rows.len() <= 10);
        // Revenue is sorted descending.
        let revs: Vec<f64> = rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert!(revs.windows(2).all(|w| w[0] >= w[1]));
    }
}
