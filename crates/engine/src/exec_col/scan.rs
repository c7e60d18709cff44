//! The scan side of the column engine: the fused filter over a base-table
//! scan — chunk by chunk, zone maps first, a selection vector between
//! conjuncts — and the readers that turn stored columns into executor
//! vectors.

use super::kernels::vectorizable;
use super::{Batch, ColExec, ColVec, MODE};
use crate::error::EngineResult;
use crate::eval::{Env, Prepared, Scope};
use crate::ir::Expr;
use crate::morsel;
use crate::plan::{Plan, Schema};
use crate::profile::{self, NodeMetrics};
use crate::storage::{self, ColumnData, Table, ZonePred};
use crate::value::Value;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

impl ColExec<'_> {
    /// Filter one storage chunk of a base-table scan with zone-map
    /// skipping and a staged selection vector. Returns the chunk's
    /// surviving rows (late-materialized: payload columns are fetched
    /// only at survivor positions) and whether the zone test skipped the
    /// chunk outright.
    ///
    /// This is THE per-chunk filter kernel: every scanned chunk goes
    /// through it whoever runs it, so budget charges, error positions
    /// and zone decisions are identical at every worker count — the
    /// property the parallel differential walls pin.
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
        // Staged conjunct evaluation, in written order, over a selection
        // vector of global row ids. Each conjunct materializes only the
        // columns it reads, only at the rows still in play; a row
        // survives iff every conjunct is true, so evaluating later
        // conjuncts on earlier survivors only is exact (Kleene AND: any
        // false or NULL conjunct drops the row).
        let mut sel: Option<Vec<usize>> = None; // None = the whole chunk
        for conj in conjs {
            let n_cur = sel.as_ref().map_or(range.len(), Vec::len);
            // Unread slots stay null placeholders — which only the
            // vectorized kernels are guaranteed never to look at: the
            // row-wise evaluator hands a subquery the whole row.
            let slots = if vectorizable(conj) {
                let mut slots = conj.slots();
                slots.sort_unstable();
                slots.dedup();
                slots
            } else {
                (0..live.len()).collect()
            };
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
            let hits = self.eval_vec(conj, &batch, None)?.selected(n_cur)?;
            sel = Some(match &sel {
                None => hits.into_iter().map(|i| range.start + i).collect(),
                Some(s) => hits.into_iter().map(|i| s[i]).collect(),
            });
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

    /// The fused filter-scan: every storage chunk of the table goes
    /// through [`Self::filter_chunk`], so zone maps skip chunks and the
    /// filter never materializes a full-table intermediate; chunk
    /// outputs are concatenated in chunk order. Returns `None` for what
    /// is not a filter directly over a non-empty base table, or runs
    /// under a correlated outer row — the caller then filters the
    /// materialized input.
    pub(super) fn filter_scan(
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
        let schema = input.schema();
        let conjs = predicate.conjuncts();
        // The zone predicates come from the conjuncts prepared in this
        // engine's arithmetic, so a `date ± interval` bound is its value.
        let scope = Scope {
            schema: &schema,
            outer: None,
        };
        let prepared: Vec<Prepared<'_>> = conjs
            .iter()
            .map(|c| Prepared::new(c, scope, MODE, &[]))
            .collect();
        let zpreds = storage::zone_preds(&prepared, table, live);
        let start = self.state.profiler.as_ref().map(|_| Instant::now());
        let chunk = |exec: &ColExec<'_>, range| {
            exec.filter_chunk(table, &schema, live, range, &conjs, &zpreds)
        };
        let chunks = morsel::morsels(table.row_count());
        // A subquery runs through this executor's result cache and CTE
        // frames, which workers do not share: such a predicate stays on
        // this thread, on this executor.
        let workers = if predicate.parallel_safe() {
            self.workers_for(table.row_count())
        } else {
            1
        };
        let parts = if workers > 1 {
            let (db, budget) = (self.db, &self.budget);
            morsel::run_on_ranges(chunks, workers, |range| {
                chunk(&ColExec::worker(db, Arc::clone(budget)), range)
            })?
        } else {
            chunks
                .into_iter()
                .map(|range| chunk(self, range))
                .collect::<EngineResult<Vec<_>>>()?
        };
        if let (Some(prof), Some(t)) = (&self.state.profiler, start) {
            // `exec_core` is bypassed for the scan child, so its one
            // sample is recorded here — as if the scan had produced the
            // whole table: skipped chunks still count their rows, so the
            // per-operator row flow is engine- and knob-independent.
            let skipped = parts.iter().filter(|(_, skip)| *skip).count();
            prof.record(
                profile::node_key(input),
                NodeMetrics {
                    rows_in: table.row_count() as u64,
                    rows_out: table.row_count() as u64,
                    batches: 1,
                    nanos: t.elapsed().as_nanos() as u64,
                    chunks_scanned: (parts.len() - skipped) as u64,
                    chunks_skipped: skipped as u64,
                },
            );
        }
        let batches = parts.into_iter().map(|(batch, _)| batch).collect();
        Ok(Some(concat_batches(schema, batches)))
    }
}

/// Materialize one range of a stored column into an executor vector:
/// `i64 → i128` decimal widening, frame-of-reference unpacking, and
/// dictionary code slicing (codes move, strings never do).
pub(super) fn materialize_col(data: &ColumnData, range: Range<usize>) -> ColVec {
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
pub(super) fn gather_table_col(data: &ColumnData, idx: &[usize]) -> ColVec {
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
pub(super) fn concat_col(parts: Vec<ColVec>) -> ColVec {
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
