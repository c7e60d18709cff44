//! The column engine executor: column-at-a-time, materializing, guarded
//! fixed-point arithmetic.
//!
//! "System B" of the pair, modelled on MonetDB's execution discipline:
//! every operator — including every node of a scalar expression — consumes
//! whole columns and **materializes** its result as a new column; decimal
//! arithmetic is widened to `i128` with explicit overflow guards
//! ([`ArithMode::GuardedDecimal`]). Selective scans and tight aggregations
//! fly; deep arithmetic expressions pay for guard checks and intermediate
//! materialization — exactly the cost profile behind the paper's Figure 2
//! `sum_charge` anecdote.
//!
//! Expressions the vectorized kernels cannot handle (subqueries, CASE,
//! string functions) fall back to per-row evaluation over materialized
//! rows through the one evaluator in [`crate::eval`], prepared once per
//! batch; the same preparation supplies the constants zone maps are
//! tested against, so a `date ± interval` bound prunes like a literal.

use crate::codec;
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    self, collect_aggregates, Accumulator, AggFunc, AggSpec, CteFrame, Env, EvalCtx, Prepared,
    Rows, Scope, SubStates, SubqueryRunner,
};
use crate::ir::Expr;
use crate::morsel::{self, BudgetCounter};
use crate::output::finish_rows;
use crate::plan::{BoundQuery, JoinKind, Plan, Schema};
use crate::profile::{self, child_rows_out, NodeMetrics, ProfileShard, Profiler};
use crate::storage::{self, ColumnData, Database, Table, ZonePred};
use crate::value::{self, ArithMode, Key, LikePattern, Value};
use sqalpel_sql::ast::{BinOp, Query, UnaryOp};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const MODE: ArithMode = ArithMode::GuardedDecimal;

/// Grouped-aggregation state: (representative row index, accumulators)
/// per group, in first-seen order.
type MergedGroups = Vec<(usize, Vec<Accumulator>)>;

/// A materialized column vector.
#[derive(Debug, Clone)]
pub enum ColVec {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Widened fixed-point (`i128`): the overflow-guard representation.
    Decimal { raw: Vec<i128>, scale: u8 },
    Str(Vec<String>),
    Date(Vec<i32>),
    Bool(Vec<bool>),
    /// Mixed / nullable fallback.
    Val(Vec<Value>),
    /// A broadcast constant (literals, outer-row references).
    Const(Value, usize),
    /// Dictionary-coded strings sharing the storage dictionary. The
    /// dictionary is sorted, so code order is string order and predicate
    /// kernels compare codes instead of strings.
    Dict {
        codes: Vec<u32>,
        dict: Arc<Vec<String>>,
    },
}

impl ColVec {
    pub fn len(&self) -> usize {
        match self {
            ColVec::Int(v) => v.len(),
            ColVec::Float(v) => v.len(),
            ColVec::Decimal { raw, .. } => raw.len(),
            ColVec::Str(v) => v.len(),
            ColVec::Date(v) => v.len(),
            ColVec::Bool(v) => v.len(),
            ColVec::Val(v) => v.len(),
            ColVec::Const(_, n) => *n,
            ColVec::Dict { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one element as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColVec::Int(v) => Value::Int(v[i]),
            ColVec::Float(v) => Value::Float(v[i]),
            ColVec::Decimal { raw, scale } => Value::Decimal {
                raw: raw[i],
                scale: *scale,
            },
            ColVec::Str(v) => Value::Str(v[i].clone()),
            ColVec::Date(v) => Value::Date(v[i]),
            ColVec::Bool(v) => Value::Bool(v[i]),
            ColVec::Val(v) => v[i].clone(),
            ColVec::Const(v, _) => v.clone(),
            ColVec::Dict { codes, dict } => Value::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// Gather elements at `idx` into a new vector (materializes).
    pub fn gather(&self, idx: &[usize]) -> ColVec {
        match self {
            ColVec::Int(v) => ColVec::Int(idx.iter().map(|&i| v[i]).collect()),
            ColVec::Float(v) => ColVec::Float(idx.iter().map(|&i| v[i]).collect()),
            ColVec::Decimal { raw, scale } => ColVec::Decimal {
                raw: idx.iter().map(|&i| raw[i]).collect(),
                scale: *scale,
            },
            ColVec::Str(v) => ColVec::Str(idx.iter().map(|&i| v[i].clone()).collect()),
            ColVec::Date(v) => ColVec::Date(idx.iter().map(|&i| v[i]).collect()),
            ColVec::Bool(v) => ColVec::Bool(idx.iter().map(|&i| v[i]).collect()),
            ColVec::Val(v) => ColVec::Val(idx.iter().map(|&i| v[i].clone()).collect()),
            ColVec::Const(v, _) => ColVec::Const(v.clone(), idx.len()),
            // Gathering codes keeps the encoding: no string is touched.
            ColVec::Dict { codes, dict } => ColVec::Dict {
                codes: idx.iter().map(|&i| codes[i]).collect(),
                dict: Arc::clone(dict),
            },
        }
    }

    /// Truth vector view: `Some(bool)` per row, `None` for SQL NULL.
    fn truth(&self, i: usize) -> EngineResult<Option<bool>> {
        match self {
            ColVec::Bool(v) => Ok(Some(v[i])),
            // Borrow boxed values instead of cloning them per row.
            ColVec::Val(v) => match &v[i] {
                Value::Bool(b) => Ok(Some(*b)),
                Value::Null => Ok(None),
                other => Err(EngineError::Type(format!(
                    "expected boolean column, got {}",
                    other.type_name()
                ))),
            },
            _ => match self.get(i) {
                Value::Bool(b) => Ok(Some(b)),
                Value::Null => Ok(None),
                other => Err(EngineError::Type(format!(
                    "expected boolean column, got {}",
                    other.type_name()
                ))),
            },
        }
    }
}

/// A materialized batch: the unit every column operator consumes and
/// produces.
#[derive(Debug, Clone)]
pub struct Batch {
    pub schema: Schema,
    pub len: usize,
    pub cols: Vec<ColVec>,
}

impl Batch {
    pub fn empty(schema: Schema) -> Batch {
        let cols = schema.iter().map(|_| ColVec::Val(Vec::new())).collect();
        Batch {
            schema,
            len: 0,
            cols,
        }
    }

    /// Materialize one row.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// Materialize one row into a caller-owned buffer, so row-at-a-time
    /// loops reuse one allocation instead of building a `Vec` per row.
    pub fn row_into(&self, i: usize, buf: &mut Vec<Value>) {
        buf.clear();
        buf.extend(self.cols.iter().map(|c| c.get(i)));
    }

    /// Keep only the rows at `idx`.
    pub fn gather(&self, idx: &[usize]) -> Batch {
        Batch {
            schema: self.schema.clone(),
            len: idx.len(),
            cols: self.cols.iter().map(|c| c.gather(idx)).collect(),
        }
    }

}

/// One query execution over the column engine.
pub struct ColExec<'a> {
    db: &'a Database,
    budget: u64,
    used: BudgetCounter,
    /// Worker cap for morsel-parallel operators; `1` keeps every operator
    /// on its original sequential code path.
    threads: usize,
    subqueries: SubStates,
    ctes: RefCell<Vec<CteFrame>>,
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

impl<'a> ColExec<'a> {
    pub fn new(db: &'a Database, budget: u64) -> Self {
        Self::with_threads(db, budget, 1)
    }

    /// An executor that may fan base-table work out over `threads` morsel
    /// workers. `threads = 1` is exactly the sequential executor.
    pub fn with_threads(db: &'a Database, budget: u64, threads: usize) -> Self {
        let threads = threads.max(1);
        ColExec {
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
    fn worker(db: &'a Database, budget: u64, counter: Arc<AtomicU64>) -> Self {
        ColExec {
            db,
            budget,
            used: BudgetCounter::Shared(counter),
            threads: 1,
            subqueries: RefCell::new(HashMap::new()),
            ctes: RefCell::new(Vec::new()),
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

    /// Execute a bound query with an optional outer row in scope.
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
        // Projection pushdown happened at plan time: the rewriter's
        // liveness pass shrank every scan's `live` list, so scans
        // materialize only referenced columns (the column-store advantage
        // MonetDB's BATs provide).
        let batch = self.exec_core(&bq.core, outer)?;
        let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
        if bq.aggregated {
            self.project_aggregated(bq, &batch, outer, &mut produced)?;
        } else {
            self.project_plain(bq, &batch, outer, &mut produced)?;
        }
        finish_rows(bq, produced)
    }

    fn project_plain(
        &self,
        bq: &BoundQuery,
        batch: &Batch,
        outer: Option<&Env<'_>>,
        produced: &mut Vec<(Vec<Value>, Vec<Value>)>,
    ) -> EngineResult<()> {
        let out_cols: Vec<ColVec> = bq
            .items
            .iter()
            .map(|item| self.eval_vec(&item.expr, batch, outer))
            .collect::<EngineResult<_>>()?;
        // Sort keys: select-list aliases were bound to output columns at
        // plan time, anything else evaluates over the core batch.
        let mut key_cols: Vec<ColVec> = Vec::with_capacity(bq.order_by.len());
        for (key, _) in &bq.order_by {
            if let Expr::OutputCol(i) = key {
                key_cols.push(out_cols[*i].clone());
                continue;
            }
            key_cols.push(self.eval_vec(key, batch, outer)?);
        }
        for i in 0..batch.len {
            let row: Vec<Value> = out_cols.iter().map(|c| c.get(i)).collect();
            let keys: Vec<Value> = key_cols.iter().map(|c| c.get(i)).collect();
            produced.push((row, keys));
        }
        Ok(())
    }

    fn project_aggregated(
        &self,
        bq: &BoundQuery,
        batch: &Batch,
        outer: Option<&Env<'_>>,
        produced: &mut Vec<(Vec<Value>, Vec<Value>)>,
    ) -> EngineResult<()> {
        let mut agg_exprs: Vec<&Expr> = bq.items.iter().map(|i| &i.expr).collect();
        if let Some(h) = &bq.having {
            agg_exprs.push(h);
        }
        for (k, _) in &bq.order_by {
            agg_exprs.push(k);
        }
        let specs = collect_aggregates(&agg_exprs);
        let keys: Vec<String> = specs.iter().map(|s| s.key.clone()).collect();

        // Vectorized pass 1: group-key columns and aggregate arguments.
        let key_cols: Vec<ColVec> = bq
            .group_by
            .iter()
            .map(|g| self.eval_vec(g, batch, outer))
            .collect::<EngineResult<_>>()?;
        let arg_cols: Vec<Option<ColVec>> = specs
            .iter()
            .map(|s| {
                s.arg
                    .as_ref()
                    .map(|a| self.eval_vec(a, batch, outer))
                    .transpose()
            })
            .collect::<EngineResult<_>>()?;

        // Pass 2: group ids and accumulation — radix-partitioned and
        // morsel-parallel when every accumulator merges exactly,
        // sequential (but still codec-keyed) otherwise.
        let mut groups: Vec<(usize, Vec<Accumulator>)> = // (rep row idx, accs)
            match self.par_aggregate(batch, &key_cols, &arg_cols, &specs)? {
                Some(groups) => groups,
                None => self.seq_aggregate(batch, &key_cols, &arg_cols, &specs)?,
            };
        if groups.is_empty() && bq.group_by.is_empty() {
            groups.push((
                usize::MAX,
                specs.iter().map(|s| Accumulator::new(s, MODE)).collect(),
            ));
        }

        // Pass 3: per-group projection (few groups: row-wise is fine).
        let ctx = EvalCtx::new(self, MODE);
        let scope = Scope {
            schema: &batch.schema,
            outer,
        };
        let having = bq
            .having
            .as_ref()
            .map(|h| Prepared::new(h, scope, MODE, &keys));
        let items: Vec<Prepared<'_>> = bq
            .items
            .iter()
            .map(|item| Prepared::new(&item.expr, scope, MODE, &keys))
            .collect();
        let order = crate::output::prepare_sort_keys(bq, scope, MODE, &keys);
        for (rep, accs) in &groups {
            let rep_row: Vec<Value> = if *rep == usize::MAX {
                vec![Value::Null; batch.schema.len()]
            } else {
                batch.row(*rep)
            };
            let values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
            let gctx = ctx.with_aggs(&values);
            if let Some(h) = &having {
                if !h.filter(&rep_row, &gctx)? {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                out.push(item.eval(&rep_row, &gctx)?);
            }
            let skeys = crate::output::sort_keys(&order, &out, &rep_row, &gctx)?;
            produced.push((out, skeys));
        }
        Ok(())
    }

    // ---------------------------------------------------- parallel operators

    /// Sequential grouped accumulation. Typed key columns go through the
    /// [`codec`] (no per-row key allocation); `Float`/`Val` columns keep
    /// the legacy `Vec<Key>` path, whose representation-unifying key
    /// images those columns genuinely need.
    fn seq_aggregate(
        &self,
        batch: &Batch,
        key_cols: &[ColVec],
        arg_cols: &[Option<ColVec>],
        specs: &[AggSpec],
    ) -> EngineResult<MergedGroups> {
        let feeders: Vec<ArgCol> = arg_cols.iter().map(ArgCol::from).collect();
        let mut groups: MergedGroups = Vec::new();
        if let Some(codec) = codec::GroupCodec::for_group(key_cols) {
            let mut map = codec::GroupMap::new(codec.u64_mode());
            let mut scratch = Vec::new();
            for i in 0..batch.len {
                self.charge(1)?;
                let k = codec.encode(i, &mut scratch)?;
                let gid = match map.get(&k) {
                    Some(g) => g as usize,
                    None => {
                        let g = groups.len();
                        map.insert(&k, g as u32);
                        groups.push((
                            i,
                            specs.iter().map(|s| Accumulator::new(s, MODE)).collect(),
                        ));
                        g
                    }
                };
                let (_, accs) = &mut groups[gid];
                for (f, acc) in feeders.iter().zip(accs.iter_mut()) {
                    f.feed(acc, i)?;
                }
            }
            return Ok(groups);
        }
        let mut group_index: HashMap<Vec<Key>, usize> = HashMap::new();
        for i in 0..batch.len {
            self.charge(1)?;
            let key: Vec<Key> = key_cols
                .iter()
                .map(|c| c.get(i).key())
                .collect::<EngineResult<_>>()?;
            let gid = match group_index.get(&key) {
                Some(&g) => g,
                None => {
                    let g = groups.len();
                    group_index.insert(key, g);
                    groups.push((
                        i,
                        specs.iter().map(|s| Accumulator::new(s, MODE)).collect(),
                    ));
                    g
                }
            };
            let (_, accs) = &mut groups[gid];
            for (f, acc) in feeders.iter().zip(accs.iter_mut()) {
                f.feed(acc, i)?;
            }
        }
        Ok(groups)
    }

    /// Radix-partitioned morsel-parallel grouped accumulation, in three
    /// deterministic phases:
    ///
    /// 1. each worker accumulates one coarse chunk into [`codec::NPARTS`]
    ///    partition-local tables (partition = pure function of the key);
    /// 2. partitions are **disjoint**, so they merge in parallel — within
    ///    a partition, chunks fold in chunk order, so every group keeps
    ///    the representative row of the first chunk that saw it, i.e. its
    ///    global first-occurrence row;
    /// 3. a stitch pass sorts all groups by representative row. First
    ///    occurrences are unique per group and ascending row order *is*
    ///    the sequential first-seen order, so the output is byte-identical
    ///    to the sequential scan at every thread count.
    ///
    /// Returns `None` — falling back to [`Self::seq_aggregate`] — unless
    /// every accumulator merges exactly (DISTINCT needs one seen-set,
    /// float sums would expose addition order) and the keys have a typed
    /// codec.
    fn par_aggregate(
        &self,
        batch: &Batch,
        key_cols: &[ColVec],
        arg_cols: &[Option<ColVec>],
        specs: &[AggSpec],
    ) -> EngineResult<Option<MergedGroups>> {
        let Some(counter) = self.used.handle() else {
            return Ok(None);
        };
        if morsel::effective_workers(self.threads) < 2 || batch.len < morsel::MIN_PARALLEL_ROWS {
            return Ok(None);
        }
        let exactly_mergeable = specs.iter().zip(arg_cols).all(|(s, arg)| {
            if s.distinct {
                return false;
            }
            match s.func {
                AggFunc::Count => true,
                // Sums stay on the i128 decimal path only for integer /
                // decimal inputs; anything else folds into f64.
                AggFunc::Sum | AggFunc::Avg => match arg {
                    None | Some(ColVec::Int(_)) | Some(ColVec::Decimal { .. }) => true,
                    Some(ColVec::Const(v, _)) => {
                        matches!(v, Value::Int(_) | Value::Decimal { .. } | Value::Null)
                    }
                    _ => false,
                },
                // Typed columns are homogeneous, so comparison is a total
                // order and min/max are merge-order independent; a mixed
                // `Val` column could compare incomparable pairs in a
                // different order than the sequential scan.
                AggFunc::Min | AggFunc::Max => !matches!(arg, Some(ColVec::Val(_))),
            }
        });
        if !exactly_mergeable {
            return Ok(None);
        }
        let Some(codec) = codec::GroupCodec::for_group(key_cols) else {
            return Ok(None);
        };

        let budget = self.budget;
        // Per partition, groups in first-seen order within one chunk.
        type PartGroups = Vec<(codec::OwnedEnc, usize, Vec<Accumulator>)>;
        // Coarse chunks: per-chunk group tables must be merged afterwards,
        // and with 4096-row morsels that merge would rival the
        // accumulation itself when groups are plentiful.
        let chunks = morsel::coarse_morsels(batch.len, self.threads);
        let partials: Vec<Vec<PartGroups>> =
            morsel::run_on_ranges(chunks, self.threads, |range| {
                let mut maps: Vec<codec::GroupMap> = (0..codec::NPARTS)
                    .map(|_| codec::GroupMap::new(codec.u64_mode()))
                    .collect();
                let mut parts: Vec<PartGroups> = vec![Vec::new(); codec::NPARTS];
                // One charge per chunk, not per row: the accumulated total
                // (and so whether the budget trips) matches the sequential
                // per-row charges, without a contended atomic in the loop.
                let n = range.len() as u64;
                let used = counter.fetch_add(n, Ordering::Relaxed) + n;
                if used > budget {
                    return Err(EngineError::Budget(format!("{used} rows touched")));
                }
                let feeders: Vec<ArgCol> = arg_cols.iter().map(ArgCol::from).collect();
                let mut scratch = Vec::new();
                for i in range {
                    let k = codec.encode(i, &mut scratch)?;
                    let p = codec::partition(k.hash());
                    let gid = match maps[p].get(&k) {
                        Some(g) => g as usize,
                        None => {
                            let g = parts[p].len();
                            maps[p].insert(&k, g as u32);
                            parts[p].push((
                                k.to_owned_enc(),
                                i,
                                specs.iter().map(|s| Accumulator::new(s, MODE)).collect(),
                            ));
                            g
                        }
                    };
                    let (_, _, accs) = &mut parts[p][gid];
                    for (f, acc) in feeders.iter().zip(accs.iter_mut()) {
                        f.feed(acc, i)?;
                    }
                }
                Ok(parts)
            })?;

        // Phase 2: disjoint partitions merge in parallel, chunks in order.
        let merged: Vec<MergedGroups> =
            morsel::run_indexed(codec::NPARTS, self.threads, |p| {
                let mut map = codec::GroupMap::new(codec.u64_mode());
                let mut groups: MergedGroups = Vec::new();
                for chunk in &partials {
                    for (key, rep, accs) in &chunk[p] {
                        let k = key.as_row();
                        match map.get(&k) {
                            Some(g) => {
                                for (acc, other) in
                                    groups[g as usize].1.iter_mut().zip(accs)
                                {
                                    acc.merge(other)?;
                                }
                            }
                            None => {
                                map.insert(&k, groups.len() as u32);
                                groups.push((*rep, accs.clone()));
                            }
                        }
                    }
                }
                Ok(groups)
            })?;

        // Phase 3: stitch — ascending first-occurrence row index is the
        // sequential first-seen group order.
        let mut groups: MergedGroups = merged.into_iter().flatten().collect();
        groups.sort_unstable_by_key(|(rep, _)| *rep);
        Ok(Some(groups))
    }

    /// Filter one storage chunk of a base-table scan with zone-map
    /// skipping and a staged selection vector. Returns the chunk's
    /// surviving rows (late-materialized: payload columns are fetched
    /// only at survivor positions) and whether the zone test skipped the
    /// chunk outright.
    ///
    /// This is THE per-chunk filter kernel: the sequential scan and every
    /// parallel morsel worker run this same function, so budget charges,
    /// error positions and zone decisions are identical at every thread
    /// count — the property the parallel differential walls pin.
    fn filter_chunk(
        &self,
        table: &Table,
        schema: &Schema,
        live: &[usize],
        range: Range<usize>,
        conjs: &[&Expr],
        zpreds: &[ZonePred],
    ) -> EngineResult<(Batch, bool)> {
        self.charge(range.len() as u64)?;
        if table.zone_skips(range.start / storage::CHUNK_ROWS, zpreds) {
            // Provably no qualifying row: emit a typed empty batch (so
            // chunk concatenation keeps its representation).
            let cols = live
                .iter()
                .map(|&ci| gather_table_col(&table.columns[ci].data, &[]))
                .collect();
            return Ok((
                Batch {
                    schema: schema.clone(),
                    len: 0,
                    cols,
                },
                true,
            ));
        }
        // Staged conjunct evaluation over a selection vector of global row
        // ids. Each conjunct materializes only the columns it reads, only
        // at the rows still in play; a row survives iff every conjunct is
        // true, so evaluating later conjuncts on earlier survivors only is
        // exact (Kleene AND: any false or NULL conjunct drops the row).
        let mut sel: Option<Vec<usize>> = None; // None = the whole chunk
        for conj in conjs {
            let n_cur = sel.as_ref().map_or(range.len(), Vec::len);
            let mut slots = conj.slots();
            slots.sort_unstable();
            slots.dedup();
            let mut cols: Vec<ColVec> = schema
                .iter()
                .map(|_| ColVec::Const(Value::Null, n_cur))
                .collect();
            for &slot in &slots {
                let data = &table.columns[live[slot]].data;
                cols[slot] = match &sel {
                    None => materialize_col(data, range.clone()),
                    Some(s) => gather_table_col(data, s),
                };
            }
            let batch = Batch {
                schema: schema.clone(),
                len: n_cur,
                cols,
            };
            let mask = self.eval_vec(conj, &batch, None)?;
            let mut next = Vec::new();
            for i in 0..n_cur {
                if mask.truth(i)? == Some(true) {
                    next.push(match &sel {
                        None => range.start + i,
                        Some(s) => s[i],
                    });
                }
            }
            sel = Some(next);
        }
        let sel = sel.unwrap_or_default();
        let cols = live
            .iter()
            .map(|&ci| gather_table_col(&table.columns[ci].data, &sel))
            .collect();
        Ok((
            Batch {
                schema: schema.clone(),
                len: sel.len(),
                cols,
            },
            false,
        ))
    }

    /// Sequential fused filter-scan: one pass over the table's chunks
    /// through [`Self::filter_chunk`], so zone maps skip chunks and
    /// filters never materialize a full-table intermediate. Returns
    /// `None` when the shape keeps this on the materialize-then-filter
    /// path (non-vectorizable predicates, correlated outer rows).
    fn seq_filter_scan(
        &self,
        input: &Plan,
        predicate: &Expr,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Option<Batch>> {
        let Plan::Scan { table, live, .. } = input else {
            return Ok(None);
        };
        if outer.is_some() || table.row_count() == 0 {
            return Ok(None);
        }
        let conjs = predicate.conjuncts();
        if !conjs.iter().copied().all(vectorizable) {
            return Ok(None);
        }
        let schema = input.schema();
        let zpreds = zone_preds(&conjs, &schema, table, live);
        let start = self.profiler.as_ref().map(|_| Instant::now());
        let mut parts = Vec::new();
        let (mut scanned, mut skipped) = (0u64, 0u64);
        for range in morsel::morsels(table.row_count()) {
            let (batch, skip) = self.filter_chunk(table, &schema, live, range, &conjs, &zpreds)?;
            if skip {
                skipped += 1;
            } else {
                scanned += 1;
            }
            parts.push(batch);
        }
        if let (Some(prof), Some(t)) = (&self.profiler, start) {
            // One scan sample, as if the scan had produced the whole
            // table: skipped chunks still count their rows, so the
            // per-operator row flow is engine- and knob-independent.
            prof.record(
                profile::node_key(input),
                NodeMetrics {
                    rows_in: table.row_count() as u64,
                    rows_out: table.row_count() as u64,
                    batches: 1,
                    nanos: t.elapsed().as_nanos() as u64,
                    chunks_scanned: scanned,
                    chunks_skipped: skipped,
                },
            );
        }
        Ok(Some(concat_batches(schema, parts)))
    }

    /// Morsel-parallel filter over a base-table scan: each worker filters
    /// one chunk (through the same [`Self::filter_chunk`] kernel as the
    /// sequential scan when the predicate is vectorizable, the generic
    /// materialize-then-filter loop otherwise); chunk outputs are
    /// concatenated in order, so the surviving rows appear exactly as the
    /// sequential scan emits them. Returns `None` when the shape or
    /// configuration keeps this on the sequential path.
    fn par_filter_scan(
        &self,
        input: &Plan,
        predicate: &Expr,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Option<Batch>> {
        let Plan::Scan { table, live, .. } = input else {
            return Ok(None);
        };
        let Some(counter) = self.used.handle() else {
            return Ok(None);
        };
        if morsel::effective_workers(self.threads) < 2
            || outer.is_some()
            || table.row_count() < morsel::MIN_PARALLEL_ROWS
            || !predicate.parallel_safe()
        {
            return Ok(None);
        }
        let schema = input.schema();
        let conjs = predicate.conjuncts();
        let staged = conjs.iter().copied().all(vectorizable);
        let zpreds = if staged {
            zone_preds(&conjs, &schema, table, live)
        } else {
            Vec::new()
        };
        let db = self.db;
        let budget = self.budget;
        // This kernel bypasses `exec_core` for the scan child, so when
        // profiling each worker records the scan's share of the work in a
        // private shard (a `Profiler` is not `Sync`); the coordinator
        // merges the shards after the parallel region, in morsel order.
        let profiling = self.profiler.is_some();
        let scan_key = profile::node_key(input);
        let parts = morsel::run_on_morsels(table.row_count(), self.threads, |range| {
            let w = ColExec::worker(db, budget, Arc::clone(&counter));
            if staged {
                let n = range.len() as u64;
                let start = profiling.then(Instant::now);
                let (batch, skip) =
                    w.filter_chunk(table, &schema, live, range, &conjs, &zpreds)?;
                let shard = start.map(|t| {
                    let mut s = ProfileShard::new();
                    s.record(
                        scan_key,
                        NodeMetrics {
                            rows_in: n,
                            rows_out: n,
                            batches: 1,
                            nanos: t.elapsed().as_nanos() as u64,
                            chunks_scanned: u64::from(!skip),
                            chunks_skipped: u64::from(skip),
                        },
                    );
                    s
                });
                return Ok((batch, shard));
            }
            w.charge(range.len() as u64)?;
            let start = profiling.then(Instant::now);
            let batch = scan_batch(table, &schema, live, range);
            let shard = start.map(|t| {
                let mut s = ProfileShard::new();
                s.record(
                    scan_key,
                    NodeMetrics {
                        rows_in: batch.len as u64,
                        rows_out: batch.len as u64,
                        batches: 1,
                        nanos: t.elapsed().as_nanos() as u64,
                        ..NodeMetrics::default()
                    },
                );
                s
            });
            let mask = w.eval_vec(predicate, &batch, None)?;
            let mut idx = Vec::new();
            for i in 0..batch.len {
                if mask.truth(i)? == Some(true) {
                    idx.push(i);
                }
            }
            Ok((batch.gather(&idx), shard))
        })?;
        let mut batches = Vec::with_capacity(parts.len());
        for (batch, shard) in parts {
            if let (Some(prof), Some(s)) = (&self.profiler, &shard) {
                prof.absorb(s);
            }
            batches.push(batch);
        }
        Ok(Some(concat_batches(schema, batches)))
    }

    /// Equi-join candidate pairs over already-materialized key columns.
    /// Typed keys go through the [`codec`] (parallel when configuration
    /// and input size allow, sequential otherwise); anything the codec
    /// cannot represent keeps the legacy `Vec<Key>` build/probe. Every
    /// path emits the identical candidate sequence: probe rows in order,
    /// each key's match list in build-side row order.
    fn join_indices(
        &self,
        lbatch: &Batch,
        rbatch: &Batch,
        lkeys: &[ColVec],
        rkeys: &[ColVec],
    ) -> EngineResult<(Vec<usize>, Vec<usize>)> {
        // The codec gate: with an empty side the sequential path computes
        // keys (and surfaces per-row errors) only for the non-empty side,
        // which the legacy loop reproduces for free; row indices must
        // also fit the arenas' u32 slots.
        if lbatch.len > 0 && rbatch.len > 0 && rbatch.len <= u32::MAX as usize {
            if let Some((lc, rc)) = codec::join_codecs(lkeys, rkeys)? {
                if let Some(pairs) = self.par_hash_join(lbatch, rbatch, &lc, &rc)? {
                    return Ok(pairs);
                }
                return self.seq_hash_join(lbatch, rbatch, &lc, &rc);
            }
        }
        let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
        for j in 0..rbatch.len {
            let key: Vec<Key> = rkeys
                .iter()
                .map(|c| c.get(j).key())
                .collect::<EngineResult<_>>()?;
            table.entry(key).or_default().push(j);
        }
        let mut lidx = Vec::new();
        let mut ridx = Vec::new();
        for i in 0..lbatch.len {
            let key: Vec<Key> = lkeys
                .iter()
                .map(|c| c.get(i).key())
                .collect::<EngineResult<_>>()?;
            if let Some(matches) = table.get(&key) {
                self.charge(matches.len() as u64)?;
                for &j in matches {
                    lidx.push(i);
                    ridx.push(j);
                }
            }
        }
        Ok((lidx, ridx))
    }

    /// Sequential codec-keyed hash join: same budget charges and error
    /// positions as the legacy loop, no per-row key allocation.
    fn seq_hash_join(
        &self,
        lbatch: &Batch,
        rbatch: &Batch,
        lc: &codec::GroupCodec<'_>,
        rc: &codec::GroupCodec<'_>,
    ) -> EngineResult<(Vec<usize>, Vec<usize>)> {
        let mut table = codec::MatchMap::new(rc.u64_mode());
        let mut scratch = Vec::new();
        for j in 0..rbatch.len {
            let k = rc.encode(j, &mut scratch)?;
            table.push(&k, j as u32);
        }
        let mut lidx = Vec::new();
        let mut ridx = Vec::new();
        for i in 0..lbatch.len {
            let k = lc.encode(i, &mut scratch)?;
            if let Some(matches) = table.get(&k) {
                self.charge(matches.len() as u64)?;
                for &j in matches {
                    lidx.push(i);
                    ridx.push(j as usize);
                }
            }
        }
        Ok((lidx, ridx))
    }

    /// Radix-partitioned parallel equi-join: build-side keys are encoded
    /// morsel-parallel into per-(chunk, partition) arenas (flat buffers —
    /// no per-row allocation), each partition's table is then built by one
    /// worker replaying the arenas in chunk order (so every key's match
    /// list stays in global build-row order), and probing runs
    /// morsel-parallel with pair lists concatenated in morsel order — the
    /// candidate sequence is byte-identical to the sequential build/probe
    /// at every thread count.
    fn par_hash_join(
        &self,
        lbatch: &Batch,
        rbatch: &Batch,
        lc: &codec::GroupCodec<'_>,
        rc: &codec::GroupCodec<'_>,
    ) -> EngineResult<Option<(Vec<usize>, Vec<usize>)>> {
        let Some(counter) = self.used.handle() else {
            return Ok(None);
        };
        if morsel::effective_workers(self.threads) < 2 || lbatch.len.max(rbatch.len) < morsel::MIN_PARALLEL_ROWS {
            return Ok(None);
        }
        let budget = self.budget;

        let chunks = morsel::coarse_morsels(rbatch.len, self.threads);
        let bucketed: Vec<Vec<codec::Bucket>> =
            morsel::run_on_ranges(chunks, self.threads, |range| {
                let mut buckets: Vec<codec::Bucket> = (0..codec::NPARTS)
                    .map(|_| codec::Bucket::new(rc.u64_mode()))
                    .collect();
                let mut scratch = Vec::new();
                for j in range {
                    let k = rc.encode(j, &mut scratch)?;
                    buckets[codec::partition(k.hash())].push(&k, j as u32);
                }
                Ok(buckets)
            })?;
        let tables: Vec<codec::MatchMap> =
            morsel::run_indexed(codec::NPARTS, self.threads, |p| {
                let mut m = codec::MatchMap::new(rc.u64_mode());
                for chunk in &bucketed {
                    chunk[p].append_to(&mut m);
                }
                Ok(m)
            })?;
        let pairs: Vec<(Vec<usize>, Vec<usize>)> =
            morsel::run_on_morsels(lbatch.len, self.threads, |range| {
                let mut li = Vec::new();
                let mut ri = Vec::new();
                let mut scratch = Vec::new();
                for i in range {
                    let k = lc.encode(i, &mut scratch)?;
                    if let Some(matches) = tables[codec::partition(k.hash())].get(&k) {
                        let n = matches.len() as u64;
                        let used = counter.fetch_add(n, Ordering::Relaxed) + n;
                        if used > budget {
                            return Err(EngineError::Budget(format!("{used} rows touched")));
                        }
                        for &j in matches {
                            li.push(i);
                            ri.push(j as usize);
                        }
                    }
                }
                Ok((li, ri))
            })?;

        let total: usize = pairs.iter().map(|(li, _)| li.len()).sum();
        let mut lidx = Vec::with_capacity(total);
        let mut ridx = Vec::with_capacity(total);
        for (li, ri) in pairs {
            lidx.extend(li);
            ridx.extend(ri);
        }
        Ok(Some((lidx, ridx)))
    }

    // ------------------------------------------------------------- operators

    /// Execute the relational core to a materialized batch, recording
    /// per-node metrics when profiling is on. The off path is one branch
    /// and a tail call into [`Self::exec_node`].
    fn exec_core(&self, plan: &Plan, outer: Option<&Env<'_>>) -> EngineResult<Batch> {
        let Some(prof) = &self.profiler else {
            return self.exec_node(plan, outer);
        };
        let before = child_rows_out(prof, plan);
        let start = Instant::now();
        let batch = self.exec_node(plan, outer)?;
        let rows_in = match plan {
            Plan::Scan { table, .. } => table.row_count() as u64,
            Plan::Derived { .. } | Plan::Cte { .. } => batch.len as u64,
            Plan::Filter { .. } | Plan::Join { .. } => child_rows_out(prof, plan) - before,
        };
        prof.record(
            profile::node_key(plan),
            NodeMetrics {
                rows_in,
                rows_out: batch.len as u64,
                batches: 1,
                nanos: start.elapsed().as_nanos() as u64,
                ..NodeMetrics::default()
            },
        );
        Ok(batch)
    }

    /// The unprofiled node dispatch. Scans materialize only their `live`
    /// (plan-time pruned) columns.
    fn exec_node(&self, plan: &Plan, outer: Option<&Env<'_>>) -> EngineResult<Batch> {
        match plan {
            Plan::Scan { table, live, .. } => {
                self.charge(table.row_count() as u64)?;
                let schema = plan.schema();
                let cols = live
                    .iter()
                    .map(|&ci| materialize_col(&table.columns[ci].data, 0..table.row_count()))
                    .collect();
                Ok(Batch {
                    schema,
                    len: table.row_count(),
                    cols,
                })
            }
            Plan::Derived { query, .. } => {
                let rows = self.run_query(query, outer)?;
                self.charge(rows.len() as u64)?;
                Ok(rows_to_batch(plan.schema(), &rows))
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
                self.charge(rows.len() as u64)?;
                Ok(rows_to_batch(plan.schema(), &rows))
            }
            Plan::Filter { input, predicate } => {
                if let Some(filtered) = self.par_filter_scan(input, predicate, outer)? {
                    return Ok(filtered);
                }
                if let Some(filtered) = self.seq_filter_scan(input, predicate, outer)? {
                    return Ok(filtered);
                }
                let batch = self.exec_core(input, outer)?;
                let mask = self.eval_vec(predicate, &batch, outer)?;
                let mut idx = Vec::new();
                for i in 0..batch.len {
                    if mask.truth(i)? == Some(true) {
                        idx.push(i);
                    }
                }
                Ok(batch.gather(&idx))
            }
            Plan::Join {
                left,
                right,
                kind,
                equi,
                residual,
            } => self.exec_join(left, right, *kind, equi, residual.as_ref(), outer),
        }
    }

    /// Execute one join input. An inner equi-join input that is a plain
    /// base-table scan whose keys are all bare columns executes *lazily*:
    /// only the key columns materialize now (null-constant placeholders
    /// hold the other slots — invisible to the join, which touches key
    /// slots only), and the returned table reference lets the caller
    /// fetch payload columns at the matched rows alone.
    fn join_input<'p>(
        &self,
        plan: &'p Plan,
        kind: JoinKind,
        key_slots: Option<Vec<usize>>,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<(Batch, Option<LazySide<'p>>)> {
        if let (JoinKind::Inner, Some(mut slots), Plan::Scan { table, live, .. }) =
            (kind, key_slots, plan)
        {
            self.charge(table.row_count() as u64)?;
            let start = self.profiler.as_ref().map(|_| Instant::now());
            let schema = plan.schema();
            let n = table.row_count();
            slots.sort_unstable();
            slots.dedup();
            let mut cols: Vec<ColVec> = schema
                .iter()
                .map(|_| ColVec::Const(Value::Null, n))
                .collect();
            for &slot in &slots {
                cols[slot] = materialize_col(&table.columns[live[slot]].data, 0..n);
            }
            if let (Some(prof), Some(t)) = (&self.profiler, start) {
                // `exec_core` is bypassed, so record the scan sample here
                // (same row flow as an eager scan of the whole table).
                prof.record(
                    profile::node_key(plan),
                    NodeMetrics {
                        rows_in: n as u64,
                        rows_out: n as u64,
                        batches: 1,
                        nanos: t.elapsed().as_nanos() as u64,
                        ..NodeMetrics::default()
                    },
                );
            }
            return Ok((
                Batch {
                    schema,
                    len: n,
                    cols,
                },
                Some((table.as_ref(), live.as_slice())),
            ));
        }
        Ok((self.exec_core(plan, outer)?, None))
    }

    /// Semi/anti membership: per left row, whether some right row with an
    /// equal key passes the residual. A probe, not a join: no candidate
    /// pair is built without a residual, and with one each left row
    /// stops at its first passing candidate — round `k` runs the residual
    /// over the `k`-th candidate of every left row still unmatched, so a
    /// low-cardinality key costs a lookup per row, not the pair product.
    /// Charges one row per candidate tested, as the row engine does.
    fn semi_matched(
        &self,
        lbatch: &Batch,
        rbatch: &Batch,
        equi: &[(Expr, Expr)],
        residual: Option<&Expr>,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Vec<bool>> {
        let lkeys: Vec<ColVec> = equi
            .iter()
            .map(|(le, _)| self.eval_vec(le, lbatch, outer))
            .collect::<EngineResult<_>>()?;
        let rkeys: Vec<ColVec> = equi
            .iter()
            .map(|(_, re)| self.eval_vec(re, rbatch, outer))
            .collect::<EngineResult<_>>()?;

        // Per left row, the right rows with an equal key, in build order:
        // `join_indices`' tables and codec gate, the match lists kept as
        // lists. Without a key every right row is a candidate, which is
        // what the one empty `Vec<Key>` of the legacy table says.
        self.charge((lbatch.len + rbatch.len) as u64)?;
        let codecs = if !equi.is_empty() && lbatch.len > 0 && rbatch.len > 0 {
            codec::join_codecs(&lkeys, &rkeys)?
        } else {
            None
        };
        let typed;
        let mut legacy: HashMap<Vec<Key>, Vec<u32>> = HashMap::new();
        let mut lists: Vec<&[u32]> = Vec::with_capacity(lbatch.len);
        if let Some((lc, rc)) = &codecs {
            let mut table = codec::MatchMap::new(rc.u64_mode());
            let mut scratch = Vec::new();
            for j in 0..rbatch.len {
                table.push(&rc.encode(j, &mut scratch)?, j as u32);
            }
            typed = table;
            for i in 0..lbatch.len {
                lists.push(typed.get(&lc.encode(i, &mut scratch)?).unwrap_or(&[]));
            }
        } else {
            let key = |keys: &[ColVec], i: usize| -> EngineResult<Vec<Key>> {
                keys.iter().map(|c| c.get(i).key()).collect()
            };
            for j in 0..rbatch.len {
                legacy.entry(key(&rkeys, j)?).or_default().push(j as u32);
            }
            for i in 0..lbatch.len {
                lists.push(legacy.get(&key(&lkeys, i)?).map_or(&[], Vec::as_slice));
            }
        }

        let mut schema = lbatch.schema.clone();
        schema.extend(rbatch.schema.iter().cloned());
        let mut candidates = Batch {
            schema,
            len: 0,
            cols: Vec::new(),
        };
        let lw = lbatch.cols.len();
        let read = residual.map(Expr::slots).unwrap_or_default();
        let mut matched = vec![false; lbatch.len];
        let mut active: Vec<usize> = (0..lbatch.len).filter(|&i| !lists[i].is_empty()).collect();
        let mut k = 0;
        while !active.is_empty() {
            self.charge(active.len() as u64)?;
            let Some(r) = residual else {
                for &i in &active {
                    matched[i] = true;
                }
                break;
            };
            // The k-th candidate of every active left row, carrying only
            // the columns the residual reads.
            let ridx: Vec<usize> = active.iter().map(|&i| lists[i][k] as usize).collect();
            candidates.len = active.len();
            candidates.cols = (0..lw + rbatch.cols.len())
                .map(|slot| match slot {
                    _ if !read.contains(&slot) => ColVec::Const(Value::Null, active.len()),
                    _ if slot < lw => lbatch.cols[slot].gather(&active),
                    _ => rbatch.cols[slot - lw].gather(&ridx),
                })
                .collect();
            let mask = self.eval_vec(r, &candidates, outer)?;
            for (pos, &i) in active.iter().enumerate() {
                matched[i] = mask.truth(pos)? == Some(true);
            }
            k += 1;
            active.retain(|&i| !matched[i] && lists[i].len() > k);
        }
        Ok(matched)
    }

    fn exec_join(
        &self,
        left: &Plan,
        right: &Plan,
        kind: JoinKind,
        equi: &[(Expr, Expr)],
        residual: Option<&Expr>,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Batch> {
        // Bare-column key slots per side, when *every* key is one — the
        // late-materialization gate (expressions over placeholder slots
        // would otherwise reach the row-wise evaluator).
        let col_slots = |exprs: Vec<&Expr>| -> Option<Vec<usize>> {
            (!exprs.is_empty())
                .then(|| {
                    exprs
                        .iter()
                        .map(|e| match e {
                            Expr::Col { slot, .. } => Some(*slot),
                            _ => None,
                        })
                        .collect()
                })
                .flatten()
        };
        let (lbatch, llazy) =
            self.join_input(left, kind, col_slots(equi.iter().map(|(l, _)| l).collect()), outer)?;
        let (rbatch, rlazy) =
            self.join_input(right, kind, col_slots(equi.iter().map(|(_, r)| r).collect()), outer)?;
        if !kind.emits_right() {
            // One output row per left row that matched (semi) or did not
            // (anti), in probe order.
            let matched = self.semi_matched(&lbatch, &rbatch, equi, residual, outer)?;
            let keep: Vec<usize> = (0..lbatch.len)
                .filter(|&i| matched[i] == (kind == JoinKind::Semi))
                .collect();
            return Ok(lbatch.gather(&keep));
        }

        let mut combined_schema = lbatch.schema.clone();
        combined_schema.extend(rbatch.schema.iter().cloned());

        // Candidate index pairs.
        let mut lidx: Vec<usize> = Vec::new();
        let mut ridx: Vec<usize> = Vec::new();
        let mut lmatched = vec![false; lbatch.len];

        if equi.is_empty() {
            self.charge(lbatch.len as u64 * rbatch.len.max(1) as u64)?;
            for i in 0..lbatch.len {
                for j in 0..rbatch.len {
                    lidx.push(i);
                    ridx.push(j);
                }
            }
        } else {
            // Vectorized key computation on both sides.
            let lkeys: Vec<ColVec> = equi
                .iter()
                .map(|(le, _)| self.eval_vec(le, &lbatch, outer))
                .collect::<EngineResult<_>>()?;
            let rkeys: Vec<ColVec> = equi
                .iter()
                .map(|(_, re)| self.eval_vec(re, &rbatch, outer))
                .collect::<EngineResult<_>>()?;
            self.charge((lbatch.len + rbatch.len) as u64)?;
            let (pl, pr) = self.join_indices(&lbatch, &rbatch, &lkeys, &rkeys)?;
            lidx = pl;
            ridx = pr;
        }

        // Materialize candidates, then apply the residual as a filter.
        // Lazily-scanned sides fetch payload columns straight from table
        // storage at the matched rows only (late materialization); their
        // placeholder slots are exactly the `Const(Null)` columns.
        let fetch = |batch: &Batch,
                     lazy: &Option<LazySide<'_>>,
                     idx: &[usize],
                     cols: &mut Vec<ColVec>| {
            for (slot, c) in batch.cols.iter().enumerate() {
                cols.push(match (lazy, c) {
                    (Some((table, live)), ColVec::Const(Value::Null, _)) => {
                        gather_table_col(&table.columns[live[slot]].data, idx)
                    }
                    _ => c.gather(idx),
                });
            }
        };
        let mut cols: Vec<ColVec> = Vec::with_capacity(combined_schema.len());
        fetch(&lbatch, &llazy, &lidx, &mut cols);
        fetch(&rbatch, &rlazy, &ridx, &mut cols);
        let mut candidates = Batch {
            schema: combined_schema,
            len: lidx.len(),
            cols,
        };
        if let Some(r) = residual {
            let mask = self.eval_vec(r, &candidates, outer)?;
            let mut keep = Vec::new();
            for i in 0..candidates.len {
                if mask.truth(i)? == Some(true) {
                    keep.push(i);
                }
            }
            let kept_lidx: Vec<usize> = keep.iter().map(|&i| lidx[i]).collect();
            candidates = candidates.gather(&keep);
            for &i in &kept_lidx {
                lmatched[i] = true;
            }
        } else {
            for &i in &lidx {
                lmatched[i] = true;
            }
        }

        if kind == JoinKind::LeftOuter {
            // Append null-padded rows for unmatched left rows.
            let unmatched: Vec<usize> = (0..lbatch.len).filter(|&i| !lmatched[i]).collect();
            if !unmatched.is_empty() {
                let pad = lbatch.gather(&unmatched);
                let rwidth = rbatch.schema.len();
                let mut rows: Vec<Vec<Value>> = Vec::with_capacity(candidates.len + pad.len);
                for i in 0..candidates.len {
                    rows.push(candidates.row(i));
                }
                for i in 0..pad.len {
                    let mut row = pad.row(i);
                    row.extend(std::iter::repeat_n(Value::Null, rwidth));
                    rows.push(row);
                }
                return Ok(rows_to_batch(candidates.schema, &rows));
            }
        }
        Ok(candidates)
    }

    // --------------------------------------------------------- vectorized eval

    /// Evaluate an expression over a whole batch, materializing the result.
    fn eval_vec(
        &self,
        e: &Expr,
        batch: &Batch,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<ColVec> {
        let n = batch.len;
        match e {
            Expr::Col { slot, .. } => Ok(batch.cols[*slot].clone()), // materializing copy
            Expr::Outer(c) => match outer {
                Some(env) => Ok(ColVec::Const(env.resolve(c)?, n)),
                None => Err(EngineError::UnknownColumn(c.to_string())),
            },
            Expr::Bool(b) => Ok(ColVec::Const(Value::Bool(*b), n)),
            Expr::OutputCol(_) => Err(EngineError::Unsupported(
                "output-column reference outside ORDER BY".into(),
            )),
            Expr::Literal(l) => Ok(ColVec::Const(eval::literal(l)?, n)),
            Expr::Binary { left, op, right } => match op {
                BinOp::And | BinOp::Or => {
                    let l = self.eval_vec(left, batch, outer)?;
                    let r = self.eval_vec(right, batch, outer)?;
                    self.charge(n as u64)?;
                    bool_kernel(*op, &l, &r, n)
                }
                BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div | BinOp::Mod
                | BinOp::Concat => {
                    let l = self.eval_vec(left, batch, outer)?;
                    let r = self.eval_vec(right, batch, outer)?;
                    self.charge(n as u64)?;
                    arith_kernel(*op, &l, &r, n)
                }
                cmp => {
                    let l = self.eval_vec(left, batch, outer)?;
                    let r = self.eval_vec(right, batch, outer)?;
                    self.charge(n as u64)?;
                    cmp_kernel(*cmp, &l, &r, n)
                }
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = self.eval_vec(expr, batch, outer)?;
                let lo = self.eval_vec(low, batch, outer)?;
                let hi = self.eval_vec(high, batch, outer)?;
                self.charge(2 * n as u64)?;
                let ge = cmp_kernel(BinOp::GtEq, &v, &lo, n)?;
                let le = cmp_kernel(BinOp::LtEq, &v, &hi, n)?;
                let both = bool_kernel(BinOp::And, &ge, &le, n)?;
                if *negated {
                    not_kernel(&both, n)
                } else {
                    Ok(both)
                }
            }
            Expr::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = self.eval_vec(expr, batch, outer)?;
                let p = self.eval_vec(pattern, batch, outer)?;
                self.charge(n as u64)?;
                // Fast paths against a constant pattern, compiled once.
                if let ColVec::Const(Value::Str(pat), _) = &p {
                    let pat = LikePattern::new(pat);
                    match &v {
                        ColVec::Str(texts) => {
                            return Ok(ColVec::Bool(
                                texts.iter().map(|t| pat.matches(t) != *negated).collect(),
                            ));
                        }
                        // Match the pattern once per dictionary entry,
                        // then map codes through the result table.
                        ColVec::Dict { codes, dict } => {
                            let table: Vec<bool> =
                                dict.iter().map(|t| pat.matches(t) != *negated).collect();
                            return Ok(ColVec::Bool(
                                codes.iter().map(|&c| table[c as usize]).collect(),
                            ));
                        }
                        _ => {}
                    }
                }
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(match (v.get(i), p.get(i)) {
                        (Value::Null, _) | (_, Value::Null) => Value::Null,
                        (Value::Str(t), Value::Str(pt)) => {
                            Value::Bool(value::like_match(&t, &pt) != *negated)
                        }
                        (a, b) => {
                            return Err(EngineError::Type(format!(
                                "LIKE requires strings, got {} and {}",
                                a.type_name(),
                                b.type_name()
                            )))
                        }
                    });
                }
                Ok(ColVec::Val(out))
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                let v = self.eval_vec(expr, batch, outer)?;
                self.charge(n as u64)?;
                not_kernel(&v, n)
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                let v = self.eval_vec(expr, batch, outer)?;
                let items: Vec<ColVec> = list
                    .iter()
                    .map(|it| self.eval_vec(it, batch, outer))
                    .collect::<EngineResult<_>>()?;
                self.charge(n as u64)?;
                // Dict fast path: constant string lists (`l_shipmode in
                // ('MAIL', 'SHIP')`) become a per-code membership table.
                if let ColVec::Dict { codes, dict } = &v {
                    if items
                        .iter()
                        .all(|it| matches!(it, ColVec::Const(Value::Str(_), _)))
                    {
                        let mut member = vec![false; dict.len()];
                        for it in &items {
                            if let ColVec::Const(Value::Str(s), _) = it {
                                if let Ok(p) = dict.binary_search(s) {
                                    member[p] = true;
                                }
                            }
                        }
                        return Ok(ColVec::Bool(
                            codes.iter().map(|&c| member[c as usize] != *negated).collect(),
                        ));
                    }
                }
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let x = v.get(i);
                    if x.is_null() {
                        out.push(Value::Null);
                        continue;
                    }
                    let found = items.iter().any(|it| value::group_eq(&x, &it.get(i)));
                    out.push(Value::Bool(found != *negated));
                }
                Ok(ColVec::Val(out))
            }
            // Everything else (CASE, EXTRACT, SUBSTRING, subqueries,
            // unary minus, IS NULL): row-wise fallback with full semantics,
            // through the expression prepared once for the whole batch.
            // The context and row buffer live outside the loop so the only
            // per-row allocations are the values themselves.
            _ => {
                self.charge(n as u64)?;
                let ctx = EvalCtx::new(self, MODE);
                let scope = Scope {
                    schema: &batch.schema,
                    outer,
                };
                let prepared = Prepared::new(e, scope, MODE, &[]);
                let mut out = Vec::with_capacity(n);
                let mut row: Vec<Value> = Vec::with_capacity(batch.schema.len());
                for i in 0..n {
                    batch.row_into(i, &mut row);
                    out.push(prepared.eval(&row, &ctx)?);
                }
                Ok(ColVec::Val(out))
            }
        }
    }
}

impl SubqueryRunner for ColExec<'_> {
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

/// Whether every node of `e` stays on `eval_vec`'s vectorized kernels.
/// A lazily-scanned join input: the stored table plus the scan's live
/// column mapping, enough to fetch payload columns at matched rows only.
type LazySide<'p> = (&'p Table, &'p [usize]);

/// The staged filter builds batches whose unreferenced slots are null
/// placeholders, so any expression that could reach the row-wise fallback
/// (which materializes *all* slots) must be rejected here.
fn vectorizable(e: &Expr) -> bool {
    match e {
        Expr::Col { .. } | Expr::Literal(_) | Expr::Bool(_) => true,
        Expr::Binary { left, right, .. } => vectorizable(left) && vectorizable(right),
        Expr::Between {
            expr, low, high, ..
        } => vectorizable(expr) && vectorizable(low) && vectorizable(high),
        Expr::Like { expr, pattern, .. } => vectorizable(expr) && vectorizable(pattern),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => vectorizable(expr),
        Expr::InList { expr, list, .. } => {
            vectorizable(expr) && list.iter().all(vectorizable)
        }
        _ => false,
    }
}

/// Zone predicates for a conjunct list: whatever bounds the conjuncts,
/// prepared in this engine's arithmetic, put on the scan's columns —
/// `col ⋈ constant` in either order and non-negated `BETWEEN`, where a
/// constant is any column-free expression (`date ± interval` included).
fn zone_preds(conjs: &[&Expr], schema: &Schema, table: &Table, live: &[usize]) -> Vec<ZonePred> {
    let scope = Scope {
        schema,
        outer: None,
    };
    let prepared: Vec<Prepared<'_>> = conjs
        .iter()
        .map(|c| Prepared::new(c, scope, MODE, &[]))
        .collect();
    storage::zone_preds(prepared.iter().flat_map(Prepared::col_bounds), table, live)
}

/// Materialize one range of a stored column into an executor vector:
/// `i64 → i128` decimal widening, frame-of-reference unpacking, and
/// dictionary code slicing (codes move, strings never do).
fn materialize_col(data: &ColumnData, range: Range<usize>) -> ColVec {
    match data {
        ColumnData::Int(v) => ColVec::Int(v[range].to_vec()),
        ColumnData::Decimal { raw, scale } => ColVec::Decimal {
            raw: raw[range].iter().map(|&x| x as i128).collect(),
            scale: *scale,
        },
        ColumnData::Str(v) => ColVec::Str(v[range].to_vec()),
        ColumnData::Date(v) => ColVec::Date(v[range].to_vec()),
        ColumnData::Float(v) => ColVec::Float(v[range].to_vec()),
        ColumnData::Dict { codes, dict } => ColVec::Dict {
            codes: codes[range].to_vec(),
            dict: Arc::clone(dict),
        },
        ColumnData::ForInt(v) => {
            let mut out = Vec::new();
            v.decode_range(range, &mut out);
            ColVec::Int(out)
        }
        ColumnData::ForDate(v) => {
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                out.push(v.get(i) as i32);
            }
            ColVec::Date(out)
        }
    }
}

/// Gather single rows of a stored column directly, bypassing full
/// materialization — the late-materialization fetch used for join payload
/// columns and zone-map filter output.
fn gather_table_col(data: &ColumnData, idx: &[usize]) -> ColVec {
    match data {
        ColumnData::Int(v) => ColVec::Int(idx.iter().map(|&i| v[i]).collect()),
        ColumnData::Decimal { raw, scale } => ColVec::Decimal {
            raw: idx.iter().map(|&i| raw[i] as i128).collect(),
            scale: *scale,
        },
        ColumnData::Str(v) => ColVec::Str(idx.iter().map(|&i| v[i].clone()).collect()),
        ColumnData::Date(v) => ColVec::Date(idx.iter().map(|&i| v[i]).collect()),
        ColumnData::Float(v) => ColVec::Float(idx.iter().map(|&i| v[i]).collect()),
        ColumnData::Dict { codes, dict } => ColVec::Dict {
            codes: idx.iter().map(|&i| codes[i]).collect(),
            dict: Arc::clone(dict),
        },
        ColumnData::ForInt(v) => ColVec::Int(idx.iter().map(|&i| v.get(i)).collect()),
        ColumnData::ForDate(v) => ColVec::Date(idx.iter().map(|&i| v.get(i) as i32).collect()),
    }
}

/// Materialize one morsel of a base-table scan, pruned to the plan's
/// `live` columns (the same pruning and decoding as the full sequential
/// scan).
fn scan_batch(table: &Table, schema: &Schema, live: &[usize], range: Range<usize>) -> Batch {
    let cols = live
        .iter()
        .map(|&ci| materialize_col(&table.columns[ci].data, range.clone()))
        .collect();
    Batch {
        schema: schema.clone(),
        len: range.len(),
        cols,
    }
}

/// Concatenate per-morsel batches in morsel order.
fn concat_batches(schema: Schema, parts: Vec<Batch>) -> Batch {
    let len = parts.iter().map(|b| b.len).sum();
    let mut by_col: Vec<Vec<ColVec>> = (0..schema.len())
        .map(|_| Vec::with_capacity(parts.len()))
        .collect();
    for b in parts {
        for (slot, col) in by_col.iter_mut().zip(b.cols) {
            slot.push(col);
        }
    }
    let cols = by_col.into_iter().map(concat_col).collect();
    Batch { schema, len, cols }
}

/// Concatenate column fragments, preserving the typed representation.
/// Fragments from one operator share a variant; mismatches (possible only
/// through future operators) fall back to boxed values.
fn concat_col(parts: Vec<ColVec>) -> ColVec {
    let total: usize = parts.iter().map(|c| c.len()).sum();
    let mut iter = parts.into_iter();
    let Some(mut acc) = iter.next() else {
        return ColVec::Val(Vec::new());
    };
    for part in iter {
        acc = match (acc, part) {
            (ColVec::Int(mut a), ColVec::Int(b)) => {
                a.extend(b);
                ColVec::Int(a)
            }
            (ColVec::Float(mut a), ColVec::Float(b)) => {
                a.extend(b);
                ColVec::Float(a)
            }
            (
                ColVec::Decimal { raw: mut a, scale: sa },
                ColVec::Decimal { raw: b, scale: sb },
            ) if sa == sb => {
                a.extend(b);
                ColVec::Decimal { raw: a, scale: sa }
            }
            (ColVec::Str(mut a), ColVec::Str(b)) => {
                a.extend(b);
                ColVec::Str(a)
            }
            (ColVec::Date(mut a), ColVec::Date(b)) => {
                a.extend(b);
                ColVec::Date(a)
            }
            (ColVec::Bool(mut a), ColVec::Bool(b)) => {
                a.extend(b);
                ColVec::Bool(a)
            }
            (ColVec::Val(mut a), ColVec::Val(b)) => {
                a.extend(b);
                ColVec::Val(a)
            }
            (
                ColVec::Dict {
                    codes: mut a,
                    dict: da,
                },
                ColVec::Dict { codes: b, dict: db },
            ) if Arc::ptr_eq(&da, &db) => {
                a.extend(b);
                ColVec::Dict { codes: a, dict: da }
            }
            (a, b) => {
                let mut out = Vec::with_capacity(total);
                for c in [a, b] {
                    for i in 0..c.len() {
                        out.push(c.get(i));
                    }
                }
                ColVec::Val(out)
            }
        };
    }
    acc
}

/// One aggregate argument's feeder: how each input row reaches its
/// accumulator. Splitting this out of the row loop keeps typed string
/// columns on [`Accumulator::update_str`] (no per-row boxing) and
/// avoids re-matching the column variant per row per aggregate.
enum ArgCol<'a> {
    /// `count(*)`: no argument.
    Star,
    /// A typed string column: feed by reference.
    Str(&'a [String]),
    /// A dictionary column: decode the code to a borrowed string, no
    /// per-row allocation.
    Dict {
        codes: &'a [u32],
        dict: &'a [String],
    },
    /// Everything else: box one value per row (ints and decimals are
    /// stack-only, so this allocates nothing for numeric columns).
    Generic(&'a ColVec),
}

impl<'a> ArgCol<'a> {
    fn from(arg: &'a Option<ColVec>) -> ArgCol<'a> {
        match arg {
            None => ArgCol::Star,
            Some(ColVec::Str(v)) => ArgCol::Str(v),
            Some(ColVec::Dict { codes, dict }) => ArgCol::Dict {
                codes,
                dict: dict.as_slice(),
            },
            Some(c) => ArgCol::Generic(c),
        }
    }

    #[inline]
    fn feed(&self, acc: &mut Accumulator, i: usize) -> EngineResult<()> {
        match self {
            ArgCol::Star => acc.update(None),
            ArgCol::Str(v) => acc.update_str(&v[i]),
            ArgCol::Dict { codes, dict } => acc.update_str(&dict[codes[i] as usize]),
            ArgCol::Generic(c) => {
                let v = c.get(i);
                acc.update(Some(&v))
            }
        }
    }
}

/// Convert row-major results into a batch (derived tables / CTE scans).
/// A column whose values are all integers, all dates or all strings gets
/// its typed vector — what join keys are made of, and what keeps a join
/// against a derived table (every group join is one) on the codec path
/// instead of boxing a key per row. Everything else stays boxed.
fn rows_to_batch(schema: Schema, rows: &[Vec<Value>]) -> Batch {
    let width = schema.len();
    let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); width];
    for row in rows {
        for (c, v) in cols.iter_mut().zip(row.iter()) {
            c.push(v.clone());
        }
    }
    let typed = |vals: Vec<Value>| {
        let all = |is: fn(&Value) -> bool| !vals.is_empty() && vals.iter().all(is);
        if all(|v| matches!(v, Value::Int(_))) {
            ColVec::Int(
                vals.iter()
                    .filter_map(|v| match v {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect(),
            )
        } else if all(|v| matches!(v, Value::Date(_))) {
            ColVec::Date(
                vals.iter()
                    .filter_map(|v| match v {
                        Value::Date(d) => Some(*d),
                        _ => None,
                    })
                    .collect(),
            )
        } else if all(|v| matches!(v, Value::Str(_))) {
            ColVec::Str(
                vals.into_iter()
                    .filter_map(|v| match v {
                        Value::Str(s) => Some(s),
                        _ => None,
                    })
                    .collect(),
            )
        } else {
            ColVec::Val(vals)
        }
    };
    Batch {
        schema,
        len: rows.len(),
        cols: cols.into_iter().map(typed).collect(),
    }
}

// ------------------------------------------------------------------- kernels

/// Vectorized arithmetic with typed fast paths; the guarded-decimal paths
/// are the expensive, overflow-checked ones.
fn arith_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    match (op, l, r) {
        // Constant against constant (`date '1998-12-01' - interval '90'
        // day`): compute the one value once and keep it a constant, so
        // the comparison above it takes its typed fast path. (No rows,
        // no evaluation: an erroring constant stays silent on empty
        // input.)
        (_, ColVec::Const(..), ColVec::Const(..)) if n > 0 => {
            Ok(ColVec::Const(elementwise(op, l, r, 1)?.get(0), n))
        }
        // decimal ⊙ decimal
        (
            BinOp::Mul,
            ColVec::Decimal { raw: lr, scale: ls },
            ColVec::Decimal { raw: rr, scale: rs },
        ) => {
            let mut out = Vec::with_capacity(n);
            let mut scale = ls + rs;
            let mut shift = 1i128;
            while scale > 6 {
                shift *= 10;
                scale -= 1;
            }
            for i in 0..n {
                let p = lr[i]
                    .checked_mul(rr[i])
                    .ok_or_else(|| EngineError::Overflow("decimal *".into()))?;
                out.push(p / shift);
            }
            Ok(ColVec::Decimal { raw: out, scale })
        }
        (
            BinOp::Plus | BinOp::Minus,
            ColVec::Decimal { raw: lr, scale: ls },
            ColVec::Decimal { raw: rr, scale: rs },
        ) => {
            let scale = (*ls).max(*rs);
            let lf = 10i128.pow((scale - ls) as u32);
            let rf = 10i128.pow((scale - rs) as u32);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let a = lr[i]
                    .checked_mul(lf)
                    .ok_or_else(|| EngineError::Overflow("decimal rescale".into()))?;
                let b = rr[i]
                    .checked_mul(rf)
                    .ok_or_else(|| EngineError::Overflow("decimal rescale".into()))?;
                let v = if op == BinOp::Plus {
                    a.checked_add(b)
                } else {
                    a.checked_sub(b)
                };
                out.push(v.ok_or_else(|| EngineError::Overflow("decimal +/-".into()))?);
            }
            Ok(ColVec::Decimal { raw: out, scale })
        }
        // int ⊙ int
        (BinOp::Plus, ColVec::Int(a), ColVec::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(
                    a[i].checked_add(b[i])
                        .ok_or_else(|| EngineError::Overflow("integer +".into()))?,
                );
            }
            Ok(ColVec::Int(out))
        }
        (BinOp::Minus, ColVec::Int(a), ColVec::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(
                    a[i].checked_sub(b[i])
                        .ok_or_else(|| EngineError::Overflow("integer -".into()))?,
                );
            }
            Ok(ColVec::Int(out))
        }
        (BinOp::Mul, ColVec::Int(a), ColVec::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(
                    a[i].checked_mul(b[i])
                        .ok_or_else(|| EngineError::Overflow("integer *".into()))?,
                );
            }
            Ok(ColVec::Int(out))
        }
        // Constant broadcast: expand and retry via the generic path below
        // would lose the typed loop; handle decimal-const specially.
        (_, ColVec::Const(cv, _), _) if cv.is_numeric() || matches!(cv, Value::Null) => {
            elementwise(op, l, r, n)
        }
        (_, _, ColVec::Const(cv, _)) if cv.is_numeric() || matches!(cv, Value::Null) => {
            elementwise(op, l, r, n)
        }
        _ => elementwise(op, l, r, n),
    }
}

/// Generic element-at-a-time fallback using the guarded scalar ops.
fn elementwise(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = l.get(i);
        let b = r.get(i);
        out.push(match op {
            BinOp::Plus => value::add(&a, &b, MODE)?,
            BinOp::Minus => value::sub(&a, &b, MODE)?,
            BinOp::Mul => value::mul(&a, &b, MODE)?,
            BinOp::Div => value::div(&a, &b, MODE)?,
            BinOp::Mod => value::rem(&a, &b)?,
            BinOp::Concat => value::concat(&a, &b)?,
            _ => return Err(EngineError::Type("non-arithmetic op in kernel".into())),
        });
    }
    Ok(ColVec::Val(out))
}

/// Vectorized comparison producing a boolean (or nullable) vector.
fn cmp_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    let apply = value::ordering_holds;
    // Typed fast paths against constants (the common filter shape).
    match (l, r) {
        (ColVec::Int(a), ColVec::Const(Value::Int(c), _)) => {
            return Ok(ColVec::Bool(
                a.iter().map(|&x| apply(x.cmp(c), op)).collect(),
            ))
        }
        (ColVec::Date(a), ColVec::Const(Value::Date(c), _)) => {
            return Ok(ColVec::Bool(
                a.iter().map(|&x| apply(x.cmp(c), op)).collect(),
            ))
        }
        (ColVec::Str(a), ColVec::Const(Value::Str(c), _)) => {
            return Ok(ColVec::Bool(
                a.iter().map(|x| apply(x.as_str().cmp(c.as_str()), op)).collect(),
            ))
        }
        (ColVec::Int(a), ColVec::Int(b)) => {
            return Ok(ColVec::Bool(
                a.iter().zip(b).map(|(&x, &y)| apply(x.cmp(&y), op)).collect(),
            ))
        }
        (ColVec::Date(a), ColVec::Date(b)) => {
            return Ok(ColVec::Bool(
                a.iter().zip(b).map(|(&x, &y)| apply(x.cmp(&y), op)).collect(),
            ))
        }
        // Dictionary column against a constant string: the dictionary is
        // sorted, so the whole comparison collapses into code space — one
        // binary search, then an integer compare per row.
        (ColVec::Dict { codes, dict }, ColVec::Const(Value::Str(c), _)) => {
            let out: Vec<bool> = match dict.binary_search(c) {
                Ok(p) => {
                    let p = p as u32;
                    codes.iter().map(|&x| apply(x.cmp(&p), op)).collect()
                }
                // The constant is absent: equality is constant-false,
                // inequality constant-true, and for range ops `p` is the
                // insertion point, so `x < p` ⇔ `dict[x] < c` (no code
                // equals `c`, which folds `<`/`<=` and `>`/`>=` together).
                Err(p) => {
                    let p = p as u32;
                    match op {
                        BinOp::Eq => vec![false; codes.len()],
                        BinOp::NotEq => vec![true; codes.len()],
                        BinOp::Lt | BinOp::LtEq => codes.iter().map(|&x| x < p).collect(),
                        BinOp::Gt | BinOp::GtEq => codes.iter().map(|&x| x >= p).collect(),
                        _ => unreachable!("cmp_kernel only sees comparison ops"),
                    }
                }
            };
            return Ok(ColVec::Bool(out));
        }
        (
            ColVec::Dict {
                codes: a,
                dict: da,
            },
            ColVec::Dict {
                codes: b,
                dict: db,
            },
        ) => {
            // Same dictionary: pure code compare; different dictionaries:
            // compare the strings by reference, still allocation-free.
            let out: Vec<bool> = if Arc::ptr_eq(da, db) {
                a.iter().zip(b).map(|(&x, &y)| apply(x.cmp(&y), op)).collect()
            } else {
                a.iter()
                    .zip(b)
                    .map(|(&x, &y)| {
                        apply(da[x as usize].as_str().cmp(db[y as usize].as_str()), op)
                    })
                    .collect()
            };
            return Ok(ColVec::Bool(out));
        }
        (ColVec::Dict { codes, dict }, ColVec::Str(b)) => {
            return Ok(ColVec::Bool(
                codes
                    .iter()
                    .zip(b)
                    .map(|(&x, y)| apply(dict[x as usize].as_str().cmp(y.as_str()), op))
                    .collect(),
            ))
        }
        (ColVec::Str(a), ColVec::Dict { codes, dict }) => {
            return Ok(ColVec::Bool(
                a.iter()
                    .zip(codes)
                    .map(|(x, &y)| apply(x.as_str().cmp(dict[y as usize].as_str()), op))
                    .collect(),
            ))
        }
        _ => {}
    }
    let mut out = Vec::with_capacity(n);
    let mut nullable = false;
    for i in 0..n {
        match value::compare(&l.get(i), &r.get(i))? {
            Some(o) => out.push(Value::Bool(apply(o, op))),
            None => {
                nullable = true;
                out.push(Value::Null);
            }
        }
    }
    if nullable {
        Ok(ColVec::Val(out))
    } else {
        Ok(ColVec::Bool(
            out.iter().map(|v| v.as_bool().unwrap()).collect(),
        ))
    }
}

/// Kleene AND/OR over boolean vectors.
fn bool_kernel(op: BinOp, l: &ColVec, r: &ColVec, n: usize) -> EngineResult<ColVec> {
    if let (ColVec::Bool(a), ColVec::Bool(b)) = (l, r) {
        let out: Vec<bool> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| if op == BinOp::And { x && y } else { x || y })
            .collect();
        return Ok(ColVec::Bool(out));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = l.truth(i)?;
        let b = r.truth(i)?;
        let v = if op == BinOp::And {
            match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        } else {
            match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        };
        out.push(match v {
            Some(b) => Value::Bool(b),
            None => Value::Null,
        });
    }
    Ok(ColVec::Val(out))
}

fn not_kernel(v: &ColVec, n: usize) -> EngineResult<ColVec> {
    if let ColVec::Bool(b) = v {
        return Ok(ColVec::Bool(b.iter().map(|x| !x).collect()));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(match v.truth(i)? {
            Some(b) => Value::Bool(!b),
            None => Value::Null,
        });
    }
    Ok(ColVec::Val(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;

    fn db() -> Database {
        Database::tpch(0.001, 42)
    }

    fn bind(db: &Database, sql: &str) -> EngineResult<BoundQuery> {
        Planner::new(db).bind(&sqalpel_sql::parse_query(sql)?)
    }

    fn try_run(
        db: &Database,
        budget: u64,
        sql: &str,
    ) -> EngineResult<(Vec<String>, Vec<Vec<Value>>)> {
        let bound = bind(db, sql)?;
        let rows = ColExec::new(db, budget).run_query(&bound, None)?;
        Ok((bound.output_names(), rows))
    }

    fn run(db: &Database, sql: &str) -> (Vec<String>, Vec<Vec<Value>>) {
        try_run(db, 50_000_000, sql).unwrap_or_else(|e| panic!("{sql} failed: {e}"))
    }

    fn run_row_engine(db: &Database, sql: &str) -> Vec<Vec<Value>> {
        let bound = bind(db, sql).unwrap();
        crate::exec_row::RowExec::new(db, 50_000_000)
            .run_query(&bound, None)
            .unwrap()
    }

    #[test]
    fn count_star() {
        let d = db();
        let (_, rows) = run(&d, "select count(*) from nation");
        assert!(matches!(rows[0][0], Value::Int(25)));
    }

    #[test]
    fn vectorized_filter() {
        let d = db();
        let (_, rows) = run(&d, "select n_name from nation where n_regionkey = 3 order by n_name");
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0].to_string(), "FRANCE");
    }

    #[test]
    fn guarded_decimal_sum_matches_exact() {
        let d = db();
        let (_, rows) = run(&d, "select sum(l_extendedprice) from lineitem");
        // The column engine returns an exact decimal.
        assert!(matches!(rows[0][0], Value::Decimal { .. }));
    }

    #[test]
    fn like_fast_path() {
        let d = db();
        let (_, rows) = run(&d, "select count(*) from part where p_type like 'PROMO%'");
        let Value::Int(n) = rows[0][0] else { panic!() };
        assert!(n > 0 && n < 200);
    }

    #[test]
    fn join_matches_row_engine() {
        let d = db();
        let sql = "select n_name, count(*) as c from nation, supplier \
                   where n_nationkey = s_nationkey group by n_name order by c desc, n_name";
        let (_, crows) = run(&d, sql);
        let rrows = run_row_engine(&d, sql);
        assert_eq!(crows.len(), rrows.len());
        for (c, r) in crows.iter().zip(&rrows) {
            assert_eq!(c[0].to_string(), r[0].to_string());
            assert_eq!(c[1].to_string(), r[1].to_string());
        }
    }

    #[test]
    fn left_outer_join_null_padding() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select c_custkey, count(o_orderkey) as n from customer \
             left outer join orders on c_custkey = o_custkey \
             group by c_custkey order by n, c_custkey limit 3",
        );
        assert!(matches!(rows[0][1], Value::Int(0)));
    }

    #[test]
    fn q1_runs_and_is_decimal_exact() {
        let d = db();
        let (_, rows) = run(&d, sqalpel_sql::tpch::Q1);
        assert!(rows.len() >= 3);
        // sum_charge (index 5) computed in the decimal domain.
        assert!(matches!(rows[0][5], Value::Decimal { .. } | Value::Float(_)));
    }

    #[test]
    fn q6_matches_row_engine_approximately() {
        let d = db();
        let (_, c) = run(&d, sqalpel_sql::tpch::Q6);
        let r = run_row_engine(&d, sqalpel_sql::tpch::Q6);
        let cv = c[0][0].as_f64().unwrap();
        let rv = r[0][0].as_f64().unwrap();
        assert!((cv - rv).abs() / rv.abs() < 1e-6, "{cv} vs {rv}");
    }

    #[test]
    fn correlated_subquery_q17_style() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select count(*) from lineitem, part where p_partkey = l_partkey \
             and p_brand = 'Brand#23' \
             and l_quantity < (select 0.3 * avg(l_quantity) from lineitem \
                               where l_partkey = p_partkey)",
        );
        assert!(matches!(rows[0][0], Value::Int(n) if n > 0));
    }

    #[test]
    fn budget_enforced() {
        let d = db();
        let err = try_run(&d, 1_000, "select count(*) from lineitem, lineitem l2").unwrap_err();
        assert!(matches!(err, EngineError::Budget(_)));
    }

    #[test]
    fn gather_and_get_round_trip() {
        let v = ColVec::Decimal {
            raw: vec![100, 200, 300],
            scale: 2,
        };
        let g = v.gather(&[2, 0]);
        assert_eq!(g.get(0).to_string(), "3.00");
        assert_eq!(g.get(1).to_string(), "1.00");
        let c = ColVec::Const(Value::Int(7), 5);
        assert_eq!(c.gather(&[1, 2]).len(), 2);
    }

    #[test]
    fn in_list_vectorized() {
        let d = db();
        let (_, rows) = run(
            &d,
            "select count(*) from lineitem where l_shipmode in ('MAIL', 'SHIP')",
        );
        let Value::Int(n) = rows[0][0] else { panic!() };
        let (_, all) = run(&d, "select count(*) from lineitem");
        let Value::Int(total) = all[0][0] else { panic!() };
        assert!(n > 0 && n < total);
    }
}
