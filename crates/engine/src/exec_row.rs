//! The row engine executor: tuple-at-a-time, pipelined, float arithmetic.
//!
//! "System A" of the pair. Rows flow through the operator tree one at a
//! time via push-based sinks — nothing is materialized except hash-join
//! build sides, grouping state and the final result. Decimals are
//! converted to `f64` on touch ([`ArithMode::Float`]): cheap arithmetic,
//! no overflow guards — the opposite trade-off from the column engine.
//!
//! The rule of the pipeline is *prepare once per operator, pay only for
//! the row*: every operator lowers its expressions into
//! [`Prepared`] form when it opens, base tables enter through one
//! chunk-at-a-time front end (`RowExec::scan`) that consults zone maps
//! and decides `column ⋈ constant` conjuncts on stored values before any
//! row is built, and joins and grouping keep their state in flat arenas
//! and write their output into one reused row.
//!
//! Arithmetic over numbers is computed unboxed: a `+ - * /` subtree of
//! numeric columns and constants takes the evaluator's typed walk (a
//! `Value` only at its root, and only where one is returned), and an
//! aggregate argument of that shape reaches its accumulator as a number
//! ([`Prepared::eval_num`], [`Accumulator::update_num`]) — the same
//! float sums, added in row order.

use crate::codec::{self, KeyImage, KeyTable, MatchBuilder};
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    collect_aggregates, Accumulator, ColTest, Env, EvalCtx, ExecState, Executor, NoSubqueries,
    Prepared, Rows, Scope,
};
use crate::ir::Expr;
use crate::morsel;
use crate::output::{finish_rows, prepare_sort_keys, sort_keys};
use crate::plan::{BoundQuery, JoinKind, Plan};
use crate::profile::{self, child_rows_out, NodeMetrics};
use crate::storage::{self, CellPred, Table, ZonePred, CHUNK_ROWS};
use crate::value::{self, ArithMode, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One query execution over the row engine.
///
/// Created per statement; holds the per-execution `ExecState`.
pub struct RowExec {
    /// Rows the execution may touch before aborting with
    /// [`EngineError::Budget`] (morphed queries can go cartesian).
    budget: u64,
    used: Cell<u64>,
    /// Worker cap for the scan front end's decide step; `1` keeps
    /// execution on the calling thread.
    threads: usize,
    /// False for the legacy (pre-hash-join) version: every join runs as a
    /// nested loop over its equality predicates.
    hash_joins: bool,
    /// Subquery cache, CTE frames and profiler. Without a profiler every
    /// operator takes an early-return path with no metrics code at all.
    state: ExecState,
}

const MODE: ArithMode = ArithMode::Float;

/// Rows the scan front end materializes between two pushes downstream:
/// enough to amortize the per-column dispatch and (when profiling) the
/// two clock reads, small enough that the batch stays cache-resident.
const BATCH_ROWS: usize = 256;

type Sink<'s> = dyn FnMut(&[Value]) -> EngineResult<()> + 's;

/// What the decide step found in one chunk.
enum ChunkSel {
    /// The zone maps ruled the chunk out.
    Skipped,
    All,
    /// Offsets of the surviving rows from the chunk's first row.
    Rows(Vec<u32>),
}

/// The per-scan state of the front end: everything the predicate needs,
/// prepared once. Shared by reference with the decide workers.
struct ScanFilter<'p> {
    table: &'p Table,
    live: &'p [usize],
    zones: Vec<ZonePred>,
    /// The leading conjuncts that test one column against constants:
    /// decided on stored values, a selection vector at a time. They
    /// cannot fail, so running them ahead of the rows is invisible.
    typed: Vec<(usize, CellPred<'p>)>,
    /// The conjuncts from the first one of any other shape on: evaluated
    /// per surviving row, in order, so the first error is the one a
    /// row-at-a-time walk of the whole predicate raises.
    rest: &'p [Prepared<'p>],
    /// The slots `rest` reads.
    rest_slots: Vec<usize>,
    /// The predicate is a single conjunct (and so reports a non-boolean
    /// as a filter, not as an operand of AND).
    single: bool,
}

impl<'p> ScanFilter<'p> {
    fn new(
        table: &'p Table,
        live: &'p [usize],
        exprs: &[&Expr],
        conjuncts: &'p [Prepared<'p>],
    ) -> ScanFilter<'p> {
        let zones = storage::zone_preds(conjuncts, table, live);
        let mut typed = Vec::new();
        for c in conjuncts {
            let data = |slot: usize| &table.columns[live[slot]].data;
            let compiled = match c.col_test() {
                Some(ColTest::Cmp { slot, bounds }) => bounds
                    .into_iter()
                    .map(|(op, value)| {
                        Some((live[slot], CellPred::compare(op, value, data(slot))?))
                    })
                    .collect(),
                Some(ColTest::Like {
                    slot,
                    negated,
                    pattern,
                }) => CellPred::like(negated, pattern, data(slot)).map(|p| vec![(live[slot], p)]),
                None => None,
            };
            match compiled {
                Some(preds) => typed.push(preds),
                None => break,
            }
        }
        let rest = &conjuncts[typed.len()..];
        // A subquery left in the predicate may read any column of the
        // row by name.
        let rest_exprs = &exprs[typed.len()..];
        let mut rest_slots: Vec<usize> = if rest_exprs.iter().any(|e| e.contains_subquery()) {
            (0..live.len()).collect()
        } else {
            rest_exprs.iter().flat_map(|e| e.slots()).collect()
        };
        rest_slots.sort_unstable();
        rest_slots.dedup();
        ScanFilter {
            table,
            live,
            zones,
            typed: typed.into_iter().flatten().collect(),
            rest,
            rest_slots,
            single: conjuncts.len() == 1,
        }
    }

    /// Whether deciding a chunk costs enough to hand chunks to workers:
    /// some conjunct is *evaluated* per row. Comparisons on stored values
    /// run at memory speed — a whole chunk of them costs less than waking
    /// a thread.
    fn worth_workers(&self) -> bool {
        !self.rest.is_empty()
            || self
                .typed
                .iter()
                .any(|(_, p)| matches!(p, CellPred::Like { .. }))
    }

    /// The surviving rows of one chunk. `row` is scratch space of the
    /// scan's width; only the slots the predicate reads are filled.
    fn decide(
        &self,
        range: Range<usize>,
        row: &mut [Value],
        ctx: &EvalCtx<'_>,
    ) -> EngineResult<ChunkSel> {
        if self.table.zone_skips(range.start / CHUNK_ROWS, &self.zones) {
            return Ok(ChunkSel::Skipped);
        }
        let base = range.start;
        let mut sel: Vec<u32> = Vec::new();
        let mut whole = Some(range.clone());
        for (col, pred) in &self.typed {
            pred.select(&self.table.columns[*col].data, base, whole.take(), &mut sel);
            if sel.is_empty() {
                return Ok(ChunkSel::Rows(sel));
            }
        }
        if !self.rest.is_empty() {
            if whole.take().is_some() {
                sel.extend(0..range.len() as u32);
            }
            let mut kept = 0;
            for at in 0..sel.len() {
                let off = sel[at];
                for &slot in &self.rest_slots {
                    let data = &self.table.columns[self.live[slot]].data;
                    data.read_into(base + off as usize, &mut row[slot]);
                }
                if self.passes(row, ctx)? {
                    sel[kept] = off;
                    kept += 1;
                }
            }
            sel.truncate(kept);
        }
        Ok(if whole.is_some() || sel.len() == range.len() {
            ChunkSel::All
        } else {
            ChunkSel::Rows(sel)
        })
    }

    /// The verdict of `rest` on one row: conjuncts run in order up to the
    /// first false one, a NULL one fails the row but not the walk — the
    /// same operands, in the same order, as Kleene AND over the whole
    /// predicate evaluates.
    fn passes(&self, row: &[Value], ctx: &EvalCtx<'_>) -> EngineResult<bool> {
        if self.single {
            return self.rest[0].filter(row, ctx);
        }
        let mut pass = true;
        for c in self.rest {
            match c.truth(row, ctx)? {
                Some(true) => {}
                Some(false) => return Ok(false),
                None => pass = false,
            }
        }
        Ok(pass)
    }
}

/// The reused output row of a join: left columns, then right.
struct Combined {
    row: Vec<Value>,
    left_width: usize,
}

impl Combined {
    fn set_left(&mut self, left: &[Value]) {
        for (dst, src) in self.row[..self.left_width].iter_mut().zip(left) {
            value::assign(dst, src);
        }
    }

    fn set_right(&mut self, right: &[Value]) {
        for (dst, src) in self.row[self.left_width..].iter_mut().zip(right) {
            value::assign(dst, src);
        }
    }

    fn pad_right(&mut self) {
        self.row[self.left_width..].fill(Value::Null);
    }
}

impl RowExec {
    /// An execution under a row `budget`. `hash_joins = false` is the
    /// RowStore 1.x nested-loop behaviour. Only the scan front end's
    /// decide step fans out over `threads` — float aggregation must fold
    /// in row order — and `threads = 1` runs the same code on the calling
    /// thread. With `profile` every operator records its metrics.
    pub fn new(budget: u64, hash_joins: bool, threads: usize, profile: bool) -> Self {
        RowExec {
            budget,
            used: Cell::new(0),
            threads: threads.max(1),
            hash_joins,
            state: ExecState::new(profile),
        }
    }

    /// Charge `n` rows to the budget. Only the executor's own thread
    /// charges (scan workers decide rows already paid for), so the
    /// counter is a plain cell at every thread count.
    fn charge(&self, n: u64) -> EngineResult<()> {
        let used = self.used.get() + n;
        self.used.set(used);
        if used > self.budget {
            Err(EngineError::Budget(format!("{used} rows touched")))
        } else {
            Ok(())
        }
    }

    fn run_aggregated(
        &self,
        bq: &BoundQuery,
        scope: Scope<'_>,
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
        let agg_keys: Vec<String> = specs.iter().map(|s| s.key.clone()).collect();
        let group_by: Vec<Prepared<'_>> = bq
            .group_by
            .iter()
            .map(|g| Prepared::new(g, scope, MODE, &[]))
            .collect();
        let args: Vec<Option<Prepared<'_>>> = specs
            .iter()
            .map(|s| s.arg.as_ref().map(|a| Prepared::new(a, scope, MODE, &[])))
            .collect();

        // Group state in first-seen order for deterministic output, in
        // two flat arenas: each group's representative row and its
        // accumulators, one stride apiece.
        let width = scope.schema.len();
        let mut index = KeyTable::default();
        let mut scratch = Vec::new();
        let mut groups = 0usize;
        let mut reps: Vec<Value> = Vec::new();
        let mut accs: Vec<Accumulator> = Vec::new();

        self.execute_core(&bq.core, scope.outer, &mut |row| {
            let key = |i: usize| group_by[i].eval_ref(row, ctx);
            let (gid, fresh) = index.insert(codec::tuple_image(group_by.len(), key, &mut scratch)?);
            if fresh {
                groups += 1;
                reps.extend_from_slice(row);
                accs.extend(specs.iter().map(|s| Accumulator::new(s, MODE)));
            }
            let first = gid as usize * specs.len();
            for (arg, acc) in args.iter().zip(&mut accs[first..first + specs.len()]) {
                let Some(arg) = arg else {
                    acc.update(None)?;
                    continue;
                };
                match arg.eval_num(row) {
                    // Aggregates skip NULLs.
                    Some(n) => n?.map_or(Ok(()), |n| acc.update_num(n))?,
                    None => acc.update(Some(&*arg.eval_ref(row, ctx)?))?,
                }
            }
            Ok(())
        })?;

        // A global aggregate over zero rows still yields one group.
        if groups == 0 && bq.group_by.is_empty() {
            groups = 1;
            reps.resize(width, Value::Null);
            accs.extend(specs.iter().map(|s| Accumulator::new(s, MODE)));
        }

        let having = bq
            .having
            .as_ref()
            .map(|h| Prepared::new(h, scope, MODE, &agg_keys));
        let items: Vec<Prepared<'_>> = bq
            .items
            .iter()
            .map(|item| Prepared::new(&item.expr, scope, MODE, &agg_keys))
            .collect();
        let order = prepare_sort_keys(bq, scope, MODE, &agg_keys);
        let mut values: Vec<Value> = Vec::with_capacity(specs.len());
        for g in 0..groups {
            let rep_row = &reps[g * width..(g + 1) * width];
            values.clear();
            values.extend(accs[g * specs.len()..(g + 1) * specs.len()].iter().map(|a| a.finish()));
            let gctx = ctx.with_aggs(&values);
            if let Some(h) = &having {
                if !h.filter(rep_row, &gctx)? {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                out.push(item.eval(rep_row, &gctx)?);
            }
            let skeys = sort_keys(&order, &out, rep_row, &gctx)?;
            produced.push((out, skeys));
        }
        Ok(())
    }

    /// The chunk-at-a-time front end every base-table scan goes through,
    /// with or without a filter on top. Two steps per 4 096-row chunk:
    ///
    /// * **decide** — test the zone maps against the bounds the prepared
    ///   conjuncts put on columns, run the leading `column ⋈ constant`
    ///   conjuncts on the stored values and the rest per surviving row
    ///   with only the columns they read fetched
    ///   ([`ScanFilter::decide`]). Chunks are independent, so this step
    ///   runs on morsel workers when the host has them, the predicate
    ///   holds no subquery and deciding is worth a thread
    ///   ([`ScanFilter::worth_workers`]); one worker is the same function
    ///   called in a loop.
    /// * **push** — materialize the survivors' live columns, a batch at a
    ///   time into one reused buffer, and hand the rows downstream in row
    ///   order, on the executor's thread.
    ///
    /// A skipped chunk still counts its rows, as the column engine's
    /// `filter_chunk` does, so profiled row counts do not depend on
    /// engine, thread count or zone maps.
    fn scan(
        &self,
        scan: &Plan,
        filter: Option<(&Plan, &Expr)>,
        outer: Option<&Env<'_>>,
        sink: &mut Sink<'_>,
    ) -> EngineResult<()> {
        let Plan::Scan { table, live, .. } = scan else {
            unreachable!("the scan front end is entered with a scan");
        };
        let table: &Table = table;
        let rows = table.row_count();
        let schema = scan.schema();
        let scope = Scope {
            schema: &schema,
            outer,
        };
        let exprs = filter.map(|(_, p)| p.conjuncts()).unwrap_or_default();
        let conjuncts: Vec<Prepared<'_>> = exprs
            .iter()
            .map(|c| Prepared::new(c, scope, MODE, &[]))
            .collect();
        let filt = ScanFilter::new(table, live, &exprs, &conjuncts);
        let profiling = self.state.profiler.is_some();

        // Decide. Each chunk yields its selection and the time it took.
        let decide = |range: Range<usize>, row: &mut [Value], ctx: &EvalCtx<'_>| {
            let start = profiling.then(Instant::now);
            let sel = filt.decide(range, row, ctx)?;
            Ok((sel, start.map_or(Duration::ZERO, |t| t.elapsed())))
        };
        let workers = match (&filter, outer) {
            (Some((_, p)), None)
                if rows >= morsel::MIN_PARALLEL_ROWS
                    && p.parallel_safe()
                    && filt.worth_workers() =>
            {
                morsel::effective_workers(self.threads)
            }
            _ => 1,
        };
        // The whole table is charged up front — skipped chunks included,
        // as the column engine's `filter_chunk` charges them — so the
        // budget never depends on who decides which chunk.
        self.charge(rows as u64)?;
        let decided: Vec<(ChunkSel, Duration)> = if workers > 1 {
            morsel::run_on_morsels(rows, self.threads, |range| {
                let mut row = vec![Value::Null; live.len()];
                decide(range, &mut row, &EvalCtx::new(&NoSubqueries, MODE))
            })?
        } else {
            let ctx = EvalCtx::new(self, MODE);
            let mut row = vec![Value::Null; live.len()];
            morsel::morsels(rows)
                .into_iter()
                .map(|range| decide(range, &mut row, &ctx))
                .collect::<EngineResult<_>>()?
        };

        // Push.
        let width = live.len();
        let mut batch = vec![Value::Null; BATCH_ROWS.min(rows) * width];
        let mut every: Vec<u32> = Vec::new();
        let mut m = NodeMetrics {
            rows_in: rows as u64,
            rows_out: rows as u64,
            batches: 1,
            ..NodeMetrics::default()
        };
        let (mut decide_time, mut fetch_time, mut survivors) = (Duration::ZERO, Duration::ZERO, 0u64);
        for (range, (sel, took)) in morsel::morsels(rows).into_iter().zip(&decided) {
            decide_time += *took;
            let sel: &[u32] = match sel {
                ChunkSel::Skipped => {
                    m.chunks_skipped += 1;
                    continue;
                }
                ChunkSel::All => {
                    every.clear();
                    every.extend(0..range.len() as u32);
                    &every
                }
                ChunkSel::Rows(sel) => sel,
            };
            m.chunks_scanned += 1;
            survivors += sel.len() as u64;
            for part in sel.chunks(BATCH_ROWS) {
                let start = profiling.then(Instant::now);
                for (slot, &col) in live.iter().enumerate() {
                    table.columns[col].data.fill(range.start, part, &mut batch, slot, width);
                }
                if let Some(t) = start {
                    fetch_time += t.elapsed();
                }
                for r in 0..part.len() {
                    sink(&batch[r * width..(r + 1) * width])?;
                }
            }
        }

        if let Some(prof) = &self.state.profiler {
            // What is timed is this node and what is below it — never
            // the consumer the rows were pushed into: the scan is the
            // fetch of the survivors, the filter the decision plus that.
            m.nanos = fetch_time.as_nanos() as u64;
            if let Some((node, _)) = filter {
                prof.record(
                    profile::node_key(node),
                    NodeMetrics {
                        rows_in: rows as u64,
                        rows_out: survivors,
                        batches: 1,
                        nanos: (decide_time + fetch_time).as_nanos() as u64,
                        ..NodeMetrics::default()
                    },
                );
            }
            prof.record(profile::node_key(scan), m);
        }
        Ok(())
    }

    /// Push rows of the relational core through `sink`, recording
    /// per-node metrics when profiling is on. The off path is one branch
    /// and a tail call into [`Self::exec_node`].
    ///
    /// A node's `nanos` cover the node and its inputs, not the consumer
    /// its rows are pushed into — what the column engine's materializing
    /// operators report by construction. In a push pipeline that takes a
    /// clock read on either side of every `sink` call; base-table scans
    /// time themselves per batch instead ([`Self::scan`]).
    fn execute_core(
        &self,
        plan: &Plan,
        outer: Option<&Env<'_>>,
        sink: &mut Sink<'_>,
    ) -> EngineResult<()> {
        let Some(prof) = &self.state.profiler else {
            return self.exec_node(plan, outer, sink);
        };
        if scan_parts(plan).is_some() {
            return self.exec_node(plan, outer, sink);
        }
        let before = child_rows_out(prof, plan);
        let mut rows_out = 0u64;
        let mut downstream = Duration::ZERO;
        let start = Instant::now();
        self.exec_node(plan, outer, &mut |row| {
            rows_out += 1;
            let pushed = Instant::now();
            let result = sink(row);
            downstream += pushed.elapsed();
            result
        })?;
        let nanos = start.elapsed().saturating_sub(downstream).as_nanos() as u64;
        let rows_in = match plan {
            Plan::Scan { .. } | Plan::Derived { .. } | Plan::Cte { .. } => rows_out,
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
        sink: &mut Sink<'_>,
    ) -> EngineResult<()> {
        if let Some((scan, filter)) = scan_parts(plan) {
            return self.scan(scan, filter, outer, sink);
        }
        match plan {
            Plan::Scan { .. } => unreachable!("scans go through the front end"),
            Plan::Derived { query, .. } => {
                let rows = self.run_query(query, outer)?;
                for row in &rows {
                    self.charge(1)?;
                    sink(row)?;
                }
                Ok(())
            }
            Plan::Cte { name, .. } => {
                let rows = self.state.cte_rows(name)?;
                for row in rows.iter() {
                    self.charge(1)?;
                    sink(row)?;
                }
                Ok(())
            }
            Plan::Filter { input, predicate } => {
                let schema = input.schema();
                let scope = Scope {
                    schema: &schema,
                    outer,
                };
                let predicate = Prepared::new(predicate, scope, MODE, &[]);
                let ctx = EvalCtx::new(self, MODE);
                self.execute_core(input, outer, &mut |row| {
                    if predicate.filter(row, &ctx)? {
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
        sink: &mut Sink<'_>,
    ) -> EngineResult<()> {
        let left_schema = left.schema();
        let right_schema = right.schema();
        let mut combined = left_schema.clone();
        combined.extend(right_schema.iter().cloned());
        let ctx = EvalCtx::new(self, MODE);

        // Build side: the right input's rows, end to end in one arena.
        let right_width = right_schema.len();
        let mut build: Vec<Value> = Vec::new();
        let mut build_rows = 0usize;
        self.execute_core(right, outer, &mut |row| {
            build.extend_from_slice(row);
            build_rows += 1;
            Ok(())
        })?;
        let build_row = |i: usize| &build[i * right_width..(i + 1) * right_width];

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
        let scope_of = |schema| Scope { schema, outer };
        let residual = residual.map(|r| Prepared::new(r, scope_of(&combined), MODE, &[]));

        // One left row against its candidates, through the residual, into
        // the reused output row. Semi and anti joins stop at the first
        // match and emit the left row alone, once, afterwards.
        let emits_right = kind.emits_right();
        let mut out = Combined {
            row: vec![Value::Null; combined.len()],
            left_width: left_schema.len(),
        };
        let mut probe = |lrow: &[Value],
                         candidates: &mut dyn Iterator<Item = usize>,
                         sink: &mut Sink<'_>|
         -> EngineResult<()> {
            let mut matched = false;
            let mut left_set = false;
            for ri in candidates {
                self.charge(1)?;
                if residual.is_none() && !emits_right {
                    matched = true;
                    break;
                }
                if !left_set {
                    out.set_left(lrow);
                    left_set = true;
                }
                out.set_right(build_row(ri));
                let keep = match &residual {
                    Some(r) => r.filter(&out.row, &ctx)?,
                    None => true,
                };
                if keep {
                    matched = true;
                    if !emits_right {
                        break;
                    }
                    sink(&out.row)?;
                }
            }
            match kind {
                JoinKind::LeftOuter if !matched => {
                    out.set_left(lrow);
                    out.pad_right();
                    sink(&out.row)
                }
                JoinKind::Semi if matched => sink(lrow),
                JoinKind::Anti if !matched => sink(lrow),
                _ => Ok(()),
            }
        };

        if equi.is_empty() {
            // Nested-loop (cross) join with optional residual.
            return self.execute_core(left, outer, &mut |lrow| {
                probe(lrow, &mut (0..build_rows), sink)
            });
        }

        // Hash join: the build rows grouped by key, each key's rows in
        // build order.
        let lkeys: Vec<Prepared<'_>> = equi
            .iter()
            .map(|(l, _)| Prepared::new(l, scope_of(&left_schema), MODE, &[]))
            .collect();
        let rkeys: Vec<Prepared<'_>> = equi
            .iter()
            .map(|(_, r)| Prepared::new(r, scope_of(&right_schema), MODE, &[]))
            .collect();
        let mut scratch = Vec::new();
        let mut lists = MatchBuilder::with_capacity(build_rows);
        for i in 0..build_rows {
            self.charge(1)?;
            let row = build_row(i);
            let key = |k: usize| rkeys[k].eval_ref(row, &ctx);
            if let Some(image) = join_image(rkeys.len(), key, &mut scratch)? {
                lists.push(image, i as u32);
            }
        }
        let lists = lists.finish();

        self.execute_core(left, outer, &mut |lrow| {
            self.charge(1)?;
            let key = |k: usize| lkeys[k].eval_ref(lrow, &ctx);
            let list = join_image(lkeys.len(), key, &mut scratch)?.and_then(|k| lists.get(k));
            probe(lrow, &mut list.unwrap_or_default().iter().map(|&i| i as usize), sink)
        })
    }
}

/// The hash image of a join key tuple, `None` when one of its values is
/// NULL: such a key matches nothing. Every value is still evaluated and
/// encoded, so a key that fails fails on the same row either way.
fn join_image<'v, 'b>(
    n: usize,
    mut value: impl FnMut(usize) -> EngineResult<Cow<'v, Value>>,
    buf: &'b mut Vec<u8>,
) -> EngineResult<Option<KeyImage<'b>>> {
    let mut null = false;
    let image = codec::tuple_image(
        n,
        |k| {
            let v = value(k)?;
            null |= v.is_null();
            Ok(v)
        },
        buf,
    )?;
    Ok((!null).then_some(image))
}

/// `plan` as the scan front end takes it: a base-table scan, and the
/// filter directly over it, if that is what `plan` is.
fn scan_parts(plan: &Plan) -> Option<(&Plan, Option<(&Plan, &Expr)>)> {
    match plan {
        Plan::Scan { .. } => Some((plan, None)),
        Plan::Filter { input, predicate } if matches!(**input, Plan::Scan { .. }) => {
            Some((input, Some((plan, predicate))))
        }
        _ => None,
    }
}

impl Executor for RowExec {
    fn state(&self) -> &ExecState {
        &self.state
    }

    fn run_block(&self, bq: &BoundQuery, outer: Option<&Env<'_>>) -> EngineResult<Rows> {
        let core_schema = bq.core.schema();
        let scope = Scope {
            schema: &core_schema,
            outer,
        };
        let ctx = EvalCtx::new(self, MODE);

        // (output row, sort keys) pairs.
        let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();

        if bq.aggregated {
            self.run_aggregated(bq, scope, &ctx, &mut produced)?;
        } else {
            let items: Vec<Prepared<'_>> = bq
                .items
                .iter()
                .map(|item| Prepared::new(&item.expr, scope, MODE, &[]))
                .collect();
            let order = prepare_sort_keys(bq, scope, MODE, &[]);
            self.execute_core(&bq.core, outer, &mut |row| {
                let mut out = Vec::with_capacity(items.len());
                for item in &items {
                    out.push(item.eval(row, &ctx)?);
                }
                let keys = sort_keys(&order, &out, row, &ctx)?;
                produced.push((out, keys));
                Ok(())
            })?;
        }

        finish_rows(bq, produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::storage::Database;

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
        let rows = RowExec::new(budget, true, 1, false).run_query(&bound, None)?;
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
