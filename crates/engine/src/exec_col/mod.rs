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
//!
//! One file per operator: `scan` (the fused filter-scan and the stored
//! column readers), `join` (one hash build, one probe, three ways of
//! consuming match lists), `aggregate` (accumulate / merge / stitch) and
//! `kernels` (vectorized expression evaluation); this file holds the
//! vectors, the executor and the plan-node dispatch. Each operator is
//! one function over a list of row ranges and computes its own worker
//! count; one worker is that function over a single range
//! ([`crate::morsel`]).

mod aggregate;
mod join;
mod kernels;
mod scan;

use crate::error::{EngineError, EngineResult};
use crate::eval::{Env, ExecState, Executor, Rows};
use crate::ir::Expr;
use crate::morsel::{self, RowBudget};
use crate::output::finish_rows;
use crate::plan::{BoundQuery, Plan, Schema};
use crate::profile::{self, child_rows_out, NodeMetrics};
use crate::storage::Database;
use crate::value::{ArithMode, Value};
use std::sync::Arc;
use std::time::Instant;

const MODE: ArithMode = ArithMode::GuardedDecimal;

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

    /// The positions among the first `n` where this truth vector is true
    /// (a false or NULL predicate both drop the row).
    fn selected(&self, n: usize) -> EngineResult<Vec<usize>> {
        let mut idx = Vec::new();
        for i in 0..n {
            if self.truth(i)? == Some(true) {
                idx.push(i);
            }
        }
        Ok(idx)
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
    /// Shared with the workers of this execution's parallel operators:
    /// the budget bounds the query, not each thread.
    budget: Arc<RowBudget>,
    /// Worker cap for the morsel-parallel operators. Each computes its
    /// own worker count from this, the host and its input
    /// ([`Self::workers_for`]); one worker is the same code over one
    /// range.
    threads: usize,
    /// Subquery cache, CTE frames and profiler. Without a profiler every
    /// operator takes an early-return path with no metrics code at all.
    state: ExecState,
}

impl<'a> ColExec<'a> {
    /// An execution under a row `budget` that may fan work out over
    /// `threads` morsel workers. With `profile` every operator records
    /// its metrics.
    pub fn new(db: &'a Database, budget: u64, threads: usize, profile: bool) -> Self {
        Self::over(db, Arc::new(RowBudget::new(budget)), threads.max(1), profile)
    }

    fn over(db: &'a Database, budget: Arc<RowBudget>, threads: usize, profile: bool) -> Self {
        ColExec {
            db,
            budget,
            threads,
            state: ExecState::new(profile),
        }
    }

    /// The executor one worker of a parallel scan evaluates its chunk's
    /// predicate with: single-threaded, charging the coordinating
    /// execution's budget, no subquery state (a predicate that needs any
    /// is not fanned out) and no profiler (the coordinator times the
    /// operator as a whole).
    fn worker(db: &'a Database, budget: Arc<RowBudget>) -> Self {
        Self::over(db, budget, 1, false)
    }

    fn charge(&self, n: u64) -> EngineResult<()> {
        self.budget.charge(n)
    }

    /// Workers for an operator over `rows` input rows: one below the
    /// spawn threshold (threads would cost more than the work),
    /// otherwise what the `threads` cap yields on this host.
    fn workers_for(&self, rows: usize) -> usize {
        if rows < morsel::MIN_PARALLEL_ROWS {
            1
        } else {
            morsel::effective_workers(self.threads)
        }
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

    // ------------------------------------------------------------- operators

    /// Execute the relational core to a materialized batch, recording
    /// per-node metrics when profiling is on. The off path is one branch
    /// and a tail call into [`Self::exec_node`].
    fn exec_core(&self, plan: &Plan, outer: Option<&Env<'_>>) -> EngineResult<Batch> {
        let Some(prof) = &self.state.profiler else {
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
                    .map(|&ci| scan::materialize_col(&table.columns[ci].data, 0..table.row_count()))
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
                let rows = self.state.cte_rows(name)?;
                self.charge(rows.len() as u64)?;
                Ok(rows_to_batch(plan.schema(), &rows))
            }
            Plan::Filter { input, predicate } => {
                if let Some(filtered) = self.filter_scan(input, predicate, outer)? {
                    return Ok(filtered);
                }
                let batch = self.exec_core(input, outer)?;
                let mask = self.eval_vec(predicate, &batch, outer)?;
                Ok(batch.gather(&mask.selected(batch.len)?))
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
}

impl Executor for ColExec<'_> {
    fn state(&self) -> &ExecState {
        &self.state
    }

    fn run_block(&self, bq: &BoundQuery, outer: Option<&Env<'_>>) -> EngineResult<Rows> {
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
        let rows = ColExec::new(db, budget, 1, false).run_query(&bound, None)?;
        Ok((bound.output_names(), rows))
    }

    fn run(db: &Database, sql: &str) -> (Vec<String>, Vec<Vec<Value>>) {
        try_run(db, 50_000_000, sql).unwrap_or_else(|e| panic!("{sql} failed: {e}"))
    }

    fn run_row_engine(db: &Database, sql: &str) -> Vec<Vec<Value>> {
        let bound = bind(db, sql).unwrap();
        crate::exec_row::RowExec::new(50_000_000, true, 1, false)
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
    fn a_shared_argument_is_charged_per_occurrence() {
        // The first list computes `l_extendedprice * (1 - l_discount)`
        // once and reads it twice more; the second has the same kernels
        // in the same order, none shared. Every budget must end both the
        // same way: the same error, with the same row count in it.
        let d = db();
        let shared = "select sum(l_extendedprice * (1 - l_discount)), \
                      sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
                      avg(l_extendedprice * (1 - l_discount)) from lineitem";
        let unshared = "select sum(l_extendedprice * (1 - l_discount)), \
                        sum(l_extendedprice * (1 - l_tax) * (1 + l_discount)), \
                        avg(l_discount * (1 - l_extendedprice)) from lineitem";
        let rows = d.table("lineitem").unwrap().row_count() as u64;
        let outcome = |sql: &str, budget: u64| match try_run(&d, budget, sql) {
            Ok(_) => "ok".to_string(),
            Err(e) => e.to_string(),
        };
        let mut errors = 0;
        for budget in (0..=12 * rows).step_by(rows as usize / 3) {
            let got = outcome(shared, budget);
            errors += (got != "ok") as usize;
            assert_eq!(got, outcome(unshared, budget), "budget {budget}");
        }
        assert!(errors > 20, "the sweep must cross most of the charges");
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

