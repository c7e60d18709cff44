//! The join operator: one partitioned hash build over the right input,
//! one probe that yields every left row's match list, and the three ways
//! of consuming those lists — candidate pairs (inner), pairs plus NULL
//! padding (left outer), membership (semi, anti).

use super::scan::{concat_col, gather_table_col, materialize_col};
use super::{Batch, ColExec, ColVec};
use crate::codec::{self, GroupCodec, MatchBuilder, MatchLists};
use crate::error::EngineResult;
use crate::eval::Env;
use crate::ir::Expr;
use crate::morsel;
use crate::plan::{JoinKind, Plan};
use crate::profile::{self, NodeMetrics};
use crate::storage::Table;
use crate::value::Value;
use std::time::Instant;

/// A lazily-scanned join input: the stored table plus the scan's live
/// column mapping, enough to fetch payload columns at matched rows only.
type LazySide<'p> = (&'p Table, &'p [usize]);

/// Build the join's match lists over `rows` build-side rows, one table
/// per key partition ([`morsel::run_by_partition`]): each partition's
/// keys are inserted once, by one worker visiting its rows in build
/// order, so each key's rows stay in global build-row order however the
/// input was split. One worker builds one table over the whole input. A
/// row whose key holds a NULL matches nothing and is left out.
fn build_tables(rc: &GroupCodec<'_>, rows: usize, workers: usize) -> EngineResult<Vec<MatchLists>> {
    morsel::run_by_partition(rc, rows, workers, |part| {
        let mut builder = MatchBuilder::with_capacity(part.len());
        let mut scratch = Vec::new();
        part.try_each(|j| {
            let k = rc.encode(j, &mut scratch)?;
            if !rc.has_null(j) {
                builder.push(k, j as u32);
            }
            Ok(())
        })?;
        Ok(builder.finish())
    })
}

/// One left row that found its key in the build table, with the right
/// rows that carry it, in build order.
type Matches<'t> = (usize, &'t [u32]);

/// Probe `tables` with every one of `rows` left rows: the rows that
/// match anything, in probe order, each with its match list. A key
/// holding a NULL matches nothing.
fn probe<'t>(
    tables: &'t [MatchLists],
    lc: &GroupCodec<'_>,
    rows: usize,
    workers: usize,
) -> EngineResult<Vec<Matches<'t>>> {
    let ranges = morsel::coarse_morsels(rows, workers);
    let per_range = morsel::run_on_ranges(ranges, workers, |range| {
        let mut found: Vec<Matches<'t>> = Vec::new();
        let mut scratch = Vec::new();
        for i in range {
            let k = lc.encode(i, &mut scratch)?;
            if lc.has_null(i) {
                continue;
            }
            if let Some(list) = tables[k.partition(tables.len())].get(k) {
                found.push((i, list));
            }
        }
        Ok(found)
    })?;
    Ok(per_range.concat())
}

impl ColExec<'_> {
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
            let start = self.state.profiler.as_ref().map(|_| Instant::now());
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
            if let (Some(prof), Some(t)) = (&self.state.profiler, start) {
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

    /// Semi/anti membership: per left row, whether some right row of its
    /// match list (if it found one) passes the residual. A probe, not a join: no candidate
    /// pair is built without a residual, and with one each left row
    /// stops at its first passing candidate — round `k` runs the residual
    /// over the `k`-th candidate of every left row still unmatched, so a
    /// low-cardinality key costs a lookup per row, not the pair product.
    /// Charges one row per candidate tested, as the row engine does.
    fn semi_matched(
        &self,
        lbatch: &Batch,
        rbatch: &Batch,
        found: &[Matches<'_>],
        residual: Option<&Expr>,
        outer: Option<&Env<'_>>,
    ) -> EngineResult<Vec<bool>> {
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
        let mut active: Vec<Matches<'_>> = found.to_vec();
        let mut k = 0;
        while !active.is_empty() {
            self.charge(active.len() as u64)?;
            let Some(r) = residual else {
                for &(i, _) in &active {
                    matched[i] = true;
                }
                break;
            };
            // The k-th candidate of every active left row, carrying only
            // the columns the residual reads.
            let lidx: Vec<usize> = active.iter().map(|&(i, _)| i).collect();
            let ridx: Vec<usize> = active.iter().map(|&(_, list)| list[k] as usize).collect();
            candidates.len = active.len();
            candidates.cols = (0..lw + rbatch.cols.len())
                .map(|slot| match slot {
                    _ if !read.contains(&slot) => ColVec::Const(Value::Null, active.len()),
                    _ if slot < lw => lbatch.cols[slot].gather(&lidx),
                    _ => rbatch.cols[slot - lw].gather(&ridx),
                })
                .collect();
            let mask = self.eval_vec(r, &candidates, outer)?;
            for (pos, &(i, _)) in active.iter().enumerate() {
                matched[i] = mask.truth(pos)? == Some(true);
            }
            k += 1;
            active.retain(|&(i, list)| !matched[i] && list.len() > k);
        }
        Ok(matched)
    }

    pub(super) fn exec_join(
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

        // Vectorized key computation on both sides, then one build and
        // one probe. Without a key every right row is a candidate for
        // every left row, which is what the one (empty) key of a codec
        // over no columns says.
        let lkeys: Vec<ColVec> = equi
            .iter()
            .map(|(le, _)| self.eval_vec(le, &lbatch, outer))
            .collect::<EngineResult<_>>()?;
        let rkeys: Vec<ColVec> = equi
            .iter()
            .map(|(_, re)| self.eval_vec(re, &rbatch, outer))
            .collect::<EngineResult<_>>()?;
        self.charge((lbatch.len + rbatch.len) as u64)?;
        let (lc, rc) = codec::join_codecs(&lkeys, &rkeys);
        let tables = build_tables(&rc, rbatch.len, self.workers_for(rbatch.len))?;
        let found = probe(&tables, &lc, lbatch.len, self.workers_for(lbatch.len))?;

        if !kind.emits_right() {
            // One output row per left row that matched (semi) or did not
            // (anti), in probe order.
            let matched = self.semi_matched(&lbatch, &rbatch, &found, residual, outer)?;
            let keep: Vec<usize> = (0..lbatch.len)
                .filter(|&i| matched[i] == (kind == JoinKind::Semi))
                .collect();
            return Ok(lbatch.gather(&keep));
        }

        // Candidate index pairs: probe rows in order, each row's match
        // list in build order — all charged before any is materialized.
        let pairs: usize = found.iter().map(|(_, list)| list.len()).sum();
        self.charge(pairs as u64)?;
        let mut lidx: Vec<usize> = Vec::with_capacity(pairs);
        let mut ridx: Vec<usize> = Vec::with_capacity(pairs);
        for &(i, list) in &found {
            lidx.extend(std::iter::repeat_n(i, list.len()));
            ridx.extend(list.iter().map(|&j| j as usize));
        }
        let mut lmatched = vec![false; lbatch.len];

        let mut combined_schema = lbatch.schema.clone();
        combined_schema.extend(rbatch.schema.iter().cloned());

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
            let keep = self.eval_vec(r, &candidates, outer)?.selected(candidates.len)?;
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
            // Append the unmatched left rows, their right side NULL. The
            // left columns stay what they are; only the right ones, which
            // now mix values and NULLs, become boxed.
            let unmatched: Vec<usize> = (0..lbatch.len).filter(|&i| !lmatched[i]).collect();
            if !unmatched.is_empty() {
                let len = candidates.len + unmatched.len();
                let cols = candidates
                    .cols
                    .into_iter()
                    .enumerate()
                    .map(|(slot, matched)| {
                        let pad = match lbatch.cols.get(slot) {
                            Some(left) => left.gather(&unmatched),
                            None => ColVec::Const(Value::Null, unmatched.len()),
                        };
                        concat_col(vec![matched, pad])
                    })
                    .collect();
                return Ok(Batch {
                    schema: candidates.schema,
                    len,
                    cols,
                });
            }
        }
        Ok(candidates)
    }
}
