//! The target-system abstraction: what the sqalpel platform benchmarks.
//!
//! [`Dbms`] plays the role of the paper's "DBMS + host combination": a
//! named, versioned system that executes SQL. Three ship, all one
//! [`Store`] front end over an [`Engine`]:
//!
//! - [`RowStore`] 2.0 — the pipelined tuple-at-a-time engine with hash
//!   joins ([`crate::exec_row`]);
//! - [`RowStore`] 1.x (`RowStore::legacy`) — the same engine before the
//!   hash-join upgrade: every join is a nested loop. The pair is the
//!   "two versions of the same system" scenario from the paper's intro;
//! - [`ColStore`] — the materializing column-at-a-time engine
//!   ([`crate::exec_col`]).

use crate::error::EngineResult;
use crate::exec_col::ColExec;
use crate::eval::Executor;
use crate::exec_row::RowExec;
use crate::ir::{self, Explain};
use crate::morsel;
use crate::plan::{BoundQuery, Planner};
use crate::plan_cache::{CacheOutcome, FpExecution, PlanCache};
use crate::profile::{OpProfile, ProfileShard};
use crate::result::ResultSet;
use crate::storage::Database;
use crate::value::Value;
use std::sync::Arc;

/// Default execution budget: rows an execution may touch before aborting.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

/// The product of EXPLAIN ANALYZE: the annotated EXPLAIN tree plus the
/// flat per-operator rows. The fingerprint is the plain EXPLAIN
/// fingerprint — profiling never changes plan identity.
#[derive(Debug, Clone)]
pub struct AnalyzedPlan {
    pub explain: Explain,
    pub ops: Vec<OpProfile>,
}

/// A benchmarkable target system.
pub trait Dbms: Send + Sync {
    /// Product name, e.g. `"rowstore"`.
    fn name(&self) -> &str;
    /// Version string, e.g. `"2.0"`.
    fn version(&self) -> &str;
    /// Execute one SQL query.
    fn execute(&self, sql: &str) -> EngineResult<ResultSet>;

    /// Render the rewritten logical plan and its canonical fingerprint
    /// without executing.
    fn explain(&self, sql: &str) -> EngineResult<Explain>;

    /// Execute `sql` with the profiler on and render the EXPLAIN tree
    /// annotated with per-operator metrics.
    fn explain_analyze(&self, sql: &str) -> EngineResult<AnalyzedPlan>;

    /// Execute with prepared-statement semantics: if the system has a
    /// plan cache and `fingerprint` names a cached plan, parse/bind/
    /// rewrite are skipped and the cached [`BoundQuery`] runs directly.
    /// The returned [`FpExecution`] always carries the authoritative
    /// fingerprint of the plan that ran — the [`Dbms::explain`]
    /// fingerprint of `sql`; on a miss, that is the key the caller should
    /// reuse to hit next time. Without a cache the call reports
    /// [`CacheOutcome::Bypass`].
    fn execute_by_fingerprint(
        &self,
        sql: &str,
        fingerprint: Option<u64>,
    ) -> EngineResult<FpExecution>;

    /// `name-version` label used in reports.
    fn label(&self) -> String {
        format!("{}-{}", self.name(), self.version())
    }
}

/// The shared hit/miss/reoptimize/bypass protocol of
/// `execute_by_fingerprint`, parameterized over how a store binds SQL
/// (optionally with cardinality hints) and runs a bound plan so both
/// engines get identical cache semantics.
///
/// The adaptive loop closes here: when profiled runs have recorded
/// actual cardinalities newer than the cached plan (see
/// [`PlanCache::record_feedback`]), the query is re-planned with those
/// actuals as hints, the stale entry is replaced in place, and the call
/// reports [`CacheOutcome::Reoptimized`].
fn cached_execute(
    cache: Option<&Arc<PlanCache>>,
    fingerprint: Option<u64>,
    bind: impl Fn(Option<&ir::cost::CardHints>) -> EngineResult<BoundQuery>,
    run: impl Fn(&BoundQuery) -> EngineResult<ResultSet>,
) -> EngineResult<FpExecution> {
    let Some(cache) = cache else {
        let bound = bind(None)?;
        let fp = ir::explain(&bound).fingerprint;
        return Ok(FpExecution {
            result: run(&bound)?,
            fingerprint: fp,
            cache: CacheOutcome::Bypass,
        });
    };
    // Fresh actuals arrived since the plan for `fp` was built: re-search
    // the join order with corrected cardinalities and cache the new plan.
    let reoptimize =
        |fp: u64, (hints, generation): (ir::cost::CardHints, u64)| -> EngineResult<_> {
            let rebound = Arc::new(bind(Some(&hints))?);
            let new_fp = ir::explain(&rebound).fingerprint;
            cache.insert(new_fp, rebound.clone());
            cache.mark_planned(fp, generation);
            cache.count_reoptimized();
            Ok(FpExecution {
                result: run(&rebound)?,
                fingerprint: new_fp,
                cache: CacheOutcome::Reoptimized,
            })
        };
    if let Some(fp) = fingerprint {
        if let Some(bound) = cache.get(fp) {
            if let Some(stale) = cache.stale_hints(fp) {
                return reoptimize(fp, stale);
            }
            return Ok(FpExecution {
                result: run(&bound)?,
                fingerprint: fp,
                cache: CacheOutcome::Hit,
            });
        }
    } else {
        cache.count_miss();
    }
    // Miss: build the plan, insert it under its *authoritative*
    // fingerprint (a stale or wrong client key must not poison the
    // cache), then execute the plan we just cached. If feedback is
    // already waiting for this fingerprint (entry evicted, actuals
    // kept), re-plan with it immediately rather than caching a plan
    // known to be built on bad estimates.
    let plain = bind(None)?;
    let fp = ir::explain(&plain).fingerprint;
    if let Some(stale) = cache.stale_hints(fp) {
        return reoptimize(fp, stale);
    }
    let bound = Arc::new(plain);
    let evicted = cache.insert(fp, bound.clone());
    Ok(FpExecution {
        result: run(&bound)?,
        fingerprint: fp,
        cache: CacheOutcome::Miss { evicted },
    })
}

/// What makes one target system differ from another: its label and the
/// executor it runs bound plans on. Everything else a system does —
/// knobs, binding, the plan cache protocol, EXPLAIN in all its forms — is
/// [`Store`], once, for every engine.
pub trait Engine: Clone + Send + Sync + Sized {
    /// Product name, e.g. `"rowstore"`.
    const NAME: &'static str;

    /// Version string, e.g. `"2.0"`.
    fn version(&self) -> &'static str;

    /// Run `bound` on a fresh executor carrying `store`'s budget and
    /// worker cap. With `profile` the executor also collects per-operator
    /// metrics; the shard is empty otherwise.
    fn run(
        store: &Store<Self>,
        bound: &BoundQuery,
        profile: bool,
    ) -> EngineResult<(Vec<Vec<Value>>, ProfileShard)>;
}

/// The pipelined tuple-at-a-time engine ([`crate::exec_row`]), with or
/// without its hash joins.
#[derive(Clone)]
pub struct RowEngine {
    version: &'static str,
    hash_joins: bool,
}

impl Engine for RowEngine {
    const NAME: &'static str = "rowstore";

    fn version(&self) -> &'static str {
        self.version
    }

    fn run(
        store: &Store<Self>,
        bound: &BoundQuery,
        profile: bool,
    ) -> EngineResult<(Vec<Vec<Value>>, ProfileShard)> {
        let hash_joins = store.engine.hash_joins;
        let exec = RowExec::new(store.budget, hash_joins, store.threads, profile);
        let rows = exec.run_query(bound, None)?;
        Ok((rows, exec.state().take_profile()))
    }
}

/// The materializing column-at-a-time engine ([`crate::exec_col`]).
#[derive(Clone)]
pub struct ColEngine;

impl Engine for ColEngine {
    const NAME: &'static str = "colstore";

    fn version(&self) -> &'static str {
        "5.1"
    }

    fn run(
        store: &Store<Self>,
        bound: &BoundQuery,
        profile: bool,
    ) -> EngineResult<(Vec<Vec<Value>>, ProfileShard)> {
        let exec = ColExec::new(&store.db, store.budget, store.threads, profile);
        let rows = exec.run_query(bound, None)?;
        Ok((rows, exec.state().take_profile()))
    }
}

/// An engine over a database as a target system.
#[derive(Clone)]
pub struct Store<E: Engine> {
    engine: E,
    db: Arc<Database>,
    budget: u64,
    threads: usize,
    rewrite: bool,
    optimize: bool,
    plan_cache: Option<Arc<PlanCache>>,
}

/// The row engine as a target system.
pub type RowStore = Store<RowEngine>;

/// The column engine as a target system.
pub type ColStore = Store<ColEngine>;

impl Store<RowEngine> {
    /// RowStore 2.0: hash joins on equality predicates.
    pub fn new(db: Arc<Database>) -> Self {
        let engine = RowEngine {
            version: "2.0",
            hash_joins: true,
        };
        Store::over(engine, db)
    }

    /// RowStore 1.4: the version before the hash-join upgrade — every
    /// join is a nested loop. Discriminative benchmarking against 2.0
    /// shows identical single-table queries and wildly slower joins.
    pub fn legacy(db: Arc<Database>) -> Self {
        let engine = RowEngine {
            version: "1.4",
            hash_joins: false,
        };
        Store::over(engine, db)
    }
}

impl Store<ColEngine> {
    pub fn new(db: Arc<Database>) -> Self {
        Store::over(ColEngine, db)
    }
}

/// The built-in system whose [`Dbms::label`] is `label`, over `db` and
/// under a row `budget`: one of [`RowStore::new`], [`RowStore::legacy`]
/// and [`ColStore::new`]. `None` for any other label, so a contributor
/// never files times under a system that did not run them.
pub fn for_label(label: &str, db: Arc<Database>, budget: u64) -> Option<Arc<dyn Dbms>> {
    let systems: [Arc<dyn Dbms>; 3] = [
        Arc::new(RowStore::new(db.clone()).with_budget(budget)),
        Arc::new(RowStore::legacy(db.clone()).with_budget(budget)),
        Arc::new(ColStore::new(db).with_budget(budget)),
    ];
    systems.into_iter().find(|s| s.label() == label)
}

impl<E: Engine> Store<E> {
    fn over(engine: E, db: Arc<Database>) -> Self {
        Store {
            engine,
            db,
            budget: DEFAULT_BUDGET,
            threads: morsel::default_threads(),
            rewrite: true,
            optimize: true,
            plan_cache: None,
        }
    }

    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Cap the morsel workers per query. `1` keeps every operator on one
    /// worker; results are identical at every setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Toggle the logical rewriter (on by default). The equivalence
    /// suites diff rewritten against raw plans with this.
    pub fn with_rewriter(mut self, on: bool) -> Self {
        self.rewrite = on;
        self
    }

    /// Toggle the cost-based join-order search (on by default). Off, every
    /// inner-join region keeps its join tree as bound — `FROM` order,
    /// explicit `JOIN`s as written — and predicates are placed on that
    /// tree as they are on a searched one. The equivalence suites diff
    /// optimized against as-bound plans with this.
    pub fn with_optimizer(mut self, on: bool) -> Self {
        self.optimize = on;
        self
    }

    /// Attach a shared plan cache: `execute_by_fingerprint` hits skip
    /// parse/bind/rewrite entirely.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    fn bind_sql(&self, sql: &str, hints: Option<&ir::cost::CardHints>) -> EngineResult<BoundQuery> {
        let q = sqalpel_sql::parse_query(sql)?;
        let mut p = Planner::new(&self.db)
            .with_rewrite(self.rewrite)
            .with_optimize(self.optimize);
        if let Some(h) = hints {
            p = p.with_hints(h.clone());
        }
        p.bind(&q)
    }

    fn run_bound(&self, bound: &BoundQuery) -> EngineResult<ResultSet> {
        let (rows, _) = E::run(self, bound, false)?;
        Ok(ResultSet::new(bound.output_names(), rows))
    }

    /// Execute with the profiler on, returning both the result set and
    /// the annotated plan. The invariance suite checks the rows are
    /// byte-identical to a profiler-off `execute`. When a plan cache is
    /// attached, the observed per-operator cardinalities are recorded as
    /// feedback so the next `execute_by_fingerprint` re-optimizes with
    /// actuals.
    pub fn execute_analyzed(&self, sql: &str) -> EngineResult<(ResultSet, AnalyzedPlan)> {
        let bound = self.bind_sql(sql, None)?;
        let (rows, profile) = E::run(self, &bound, true)?;
        let (explain, ops) = ir::explain_analyze(&bound, &profile);
        let plan = AnalyzedPlan { explain, ops };
        if let Some(cache) = &self.plan_cache {
            let hints = crate::profile::extract_feedback(&bound, &profile);
            cache.record_feedback(plan.explain.fingerprint, hints);
        }
        Ok((ResultSet::new(bound.output_names(), rows), plan))
    }

    /// Two-pass adaptive EXPLAIN: run the cold (stats-only) plan with
    /// the profiler on and render `est_rows` next to the actuals, then
    /// re-plan with the observed cardinalities as hints and render the
    /// reoptimized plan the same way. The pair is what the plan goldens
    /// pin — the second pass shows both any join-order change and the
    /// estimates converging on the actuals.
    pub fn explain_adaptive(&self, sql: &str) -> EngineResult<(Explain, Explain)> {
        let cold_bound = self.bind_sql(sql, None)?;
        let (_, cold_profile) = E::run(self, &cold_bound, true)?;
        let cold = ir::explain_estimates(
            &cold_bound,
            &cold_profile,
            &ir::cost::CardHints::default(),
        );
        let hints = crate::profile::extract_feedback(&cold_bound, &cold_profile);
        let warm_bound = self.bind_sql(sql, Some(&hints))?;
        let (_, warm_profile) = E::run(self, &warm_bound, true)?;
        let warm = ir::explain_estimates(&warm_bound, &warm_profile, &hints);
        Ok((cold, warm))
    }
}

impl<E: Engine> Dbms for Store<E> {
    fn name(&self) -> &str {
        E::NAME
    }

    fn version(&self) -> &str {
        self.engine.version()
    }

    fn execute(&self, sql: &str) -> EngineResult<ResultSet> {
        self.run_bound(&self.bind_sql(sql, None)?)
    }

    fn explain(&self, sql: &str) -> EngineResult<Explain> {
        Ok(ir::explain(&self.bind_sql(sql, None)?))
    }

    fn explain_analyze(&self, sql: &str) -> EngineResult<AnalyzedPlan> {
        self.execute_analyzed(sql).map(|(_, plan)| plan)
    }

    fn execute_by_fingerprint(
        &self,
        sql: &str,
        fingerprint: Option<u64>,
    ) -> EngineResult<FpExecution> {
        cached_execute(
            self.plan_cache.as_ref(),
            fingerprint,
            |hints| self.bind_sql(sql, hints),
            |bound| self.run_bound(bound),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpch() -> Arc<Database> {
        Arc::new(Database::tpch(0.001, 42))
    }

    #[test]
    fn labels() {
        let db = tpch();
        assert_eq!(RowStore::new(db.clone()).label(), "rowstore-2.0");
        assert_eq!(RowStore::legacy(db.clone()).label(), "rowstore-1.4");
        assert_eq!(ColStore::new(db).label(), "colstore-5.1");
    }

    #[test]
    fn for_label_builds_the_labelled_system_or_none() {
        let db = tpch();
        for label in ["rowstore-2.0", "rowstore-1.4", "colstore-5.1"] {
            let system = for_label(label, db.clone(), 1_000).expect("a built-in label");
            assert_eq!(system.label(), label);
        }
        for label in ["postgres-15", "colstore-9.9", "rowstore", ""] {
            assert!(for_label(label, db.clone(), 1_000).is_none(), "{label:?}");
        }
        // The budget reaches the system: 10 rows cannot cover a join of
        // nation's 25 with region's 5.
        let tiny = for_label("colstore-5.1", db, 10).unwrap();
        let err = tiny.execute("select count(*) from nation, region").unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn engines_agree_on_simple_query() {
        let db = tpch();
        let sql = "select n_regionkey, count(*) from nation group by n_regionkey order by n_regionkey";
        let a = RowStore::new(db.clone()).execute(sql).unwrap();
        let b = ColStore::new(db).execute(sql).unwrap();
        assert!(a.approx_eq(&b, 1e-9), "\n{a}\nvs\n{b}");
    }

    #[test]
    fn legacy_rowstore_gives_same_answers() {
        let db = tpch();
        let sql = "select n_name from nation, region \
                   where n_regionkey = r_regionkey and r_name = 'ASIA' order by n_name";
        let new = RowStore::new(db.clone()).execute(sql).unwrap();
        let old = RowStore::legacy(db).execute(sql).unwrap();
        assert!(new.approx_eq(&old, 0.0));
    }

    #[test]
    fn errors_surface_as_results() {
        let db = tpch();
        let err = RowStore::new(db).execute("select nope from nowhere").unwrap_err();
        assert!(err.to_string().contains("unknown table"));
    }

    #[test]
    fn thread_counts_agree_exactly() {
        // SF 0.01 puts lineitem well past the parallel threshold.
        let db = Arc::new(Database::tpch(0.01, 42));
        let sql = "select l_returnflag, count(*), sum(l_quantity), min(l_shipdate) \
                   from lineitem where l_quantity < 24 \
                   group by l_returnflag order by l_returnflag";
        let row1 = RowStore::new(db.clone()).with_threads(1).execute(sql).unwrap();
        let row4 = RowStore::new(db.clone()).with_threads(4).execute(sql).unwrap();
        assert!(row1.approx_eq(&row4, 0.0), "\n{row1}\nvs\n{row4}");
        let col1 = ColStore::new(db.clone()).with_threads(1).execute(sql).unwrap();
        let col4 = ColStore::new(db).with_threads(4).execute(sql).unwrap();
        assert!(col1.approx_eq(&col4, 0.0), "\n{col1}\nvs\n{col4}");
    }

    #[test]
    fn explain_analyze_agrees_across_engines_and_keeps_the_fingerprint() {
        let db = tpch();
        let sql = "select l_returnflag, count(*) from lineitem \
                   where l_quantity < 24 group by l_returnflag order by l_returnflag";
        let row = RowStore::new(db.clone()).with_threads(1);
        let col = ColStore::new(db).with_threads(1);
        let (r_rows, r_plan) = row.execute_analyzed(sql).unwrap();
        let (c_rows, c_plan) = col.execute_analyzed(sql).unwrap();
        // Profiling changes no result bytes.
        assert!(r_rows.approx_eq(&row.execute(sql).unwrap(), 0.0));
        assert!(c_rows.approx_eq(&col.execute(sql).unwrap(), 0.0));
        // ANALYZE never changes plan identity.
        let plain = row.explain(sql).unwrap();
        assert_eq!(r_plan.explain.fingerprint, plain.fingerprint);
        assert_eq!(c_plan.explain.fingerprint, plain.fingerprint);
        // Rows and batches agree across engines at threads=1; only the
        // timings are engine-specific.
        let strip = |ops: &[OpProfile]| {
            ops.iter()
                .map(|o| {
                    (
                        o.op.clone(),
                        o.metrics.rows_in,
                        o.metrics.rows_out,
                        o.metrics.batches,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&r_plan.ops), strip(&c_plan.ops));
        assert!(r_plan.explain.text.contains("rows_in="), "{}", r_plan.explain.text);
        assert!(!plain.text.contains("rows_in="));
    }

    #[test]
    fn dbms_is_object_safe() {
        let db = tpch();
        let systems: Vec<Box<dyn Dbms>> = vec![
            Box::new(RowStore::new(db.clone())),
            Box::new(ColStore::new(db)),
        ];
        for s in &systems {
            let r = s.execute("select count(*) from region").unwrap();
            assert_eq!(r.rows[0][0].to_string(), "5");
        }
    }
}
