//! Grouped aggregation: vectorized key and argument columns, one
//! partitioned accumulate / merge / stitch over them, then a row-wise
//! projection of the (few) groups.
//!
//! A bare key or argument column is borrowed from the batch; an argument
//! several aggregates take, and a kernel subexpression that repeats
//! across the arguments, is computed once per batch and charged to the
//! budget per occurrence ([`Memo`]). Typed argument columns reach their
//! accumulators without a [`Value`] per row ([`ArgCol`]).

use super::kernels::{Col, Memo};
use super::{Batch, ColExec, ColVec, MODE};
use crate::codec::{self, GroupCodec, KeyTable};
use crate::error::EngineResult;
use crate::eval::{collect_aggregates, Accumulator, AggFunc, AggSpec, Env, EvalCtx, Prepared, Scope};
use crate::ir::Expr;
use crate::morsel;
use crate::plan::BoundQuery;
use crate::value::{Num, Value};

/// Grouped-aggregation state, in two flat arenas: each group's
/// representative row index, and its accumulators, `stride` (one per
/// aggregate) apiece.
#[derive(Default)]
struct Groups {
    reps: Vec<usize>,
    accs: Vec<Accumulator>,
}

impl Groups {
    fn push(&mut self, rep: usize, accs: impl IntoIterator<Item = Accumulator>) {
        self.reps.push(rep);
        self.accs.extend(accs);
    }

    /// The stitch: group indices by ascending representative row — each
    /// is its group's first occurrence, so this is first-seen order.
    fn first_seen(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.reps.len()).collect();
        order.sort_unstable_by_key(|&g| self.reps[g]);
        order
    }
}

impl ColExec<'_> {
    pub(super) fn project_aggregated(
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

        // Vectorized pass 1: group-key columns and aggregate arguments,
        // a bare column borrowed from the batch and a subexpression the
        // arguments share computed once.
        let key_cols: Vec<Col<'_>> = bq
            .group_by
            .iter()
            .map(|g| self.eval_col(g, batch, outer, &mut Memo::default()))
            .collect::<EngineResult<_>>()?;
        let args: Vec<&Expr> = specs.iter().filter_map(|s| s.arg.as_ref()).collect();
        let mut memo = Memo::for_args(&args);
        let arg_cols: Vec<Option<Col<'_>>> = specs
            .iter()
            .map(|s| {
                s.arg
                    .as_ref()
                    .map(|a| self.eval_col(a, batch, outer, &mut memo))
                    .transpose()
            })
            .collect::<EngineResult<_>>()?;
        let key_cols: Vec<&ColVec> = key_cols.iter().map(|c| &**c).collect();
        let arg_cols: Vec<Option<&ColVec>> = arg_cols.iter().map(|c| c.as_deref()).collect();

        // Pass 2: group ids and accumulation.
        let stride = specs.len();
        let mut groups = self.aggregate(batch.len, &key_cols, &arg_cols, &specs)?;
        if groups.reps.is_empty() && bq.group_by.is_empty() {
            groups.push(usize::MAX, specs.iter().map(|s| Accumulator::new(s, MODE)));
        }

        // Pass 3: per-group projection (few groups: row-wise is fine),
        // through one reused row and one reused value buffer.
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
        let mut rep_row: Vec<Value> = Vec::with_capacity(batch.schema.len());
        let mut values: Vec<Value> = Vec::with_capacity(stride);
        for g in groups.first_seen() {
            let rep = groups.reps[g];
            if rep == usize::MAX {
                rep_row.clear();
                rep_row.resize(batch.schema.len(), Value::Null);
            } else {
                batch.row_into(rep, &mut rep_row);
            }
            values.clear();
            values.extend(groups.accs[g * stride..(g + 1) * stride].iter().map(|a| a.finish()));
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

    /// Grouped accumulation over `rows` input rows, in three
    /// deterministic phases:
    ///
    /// 1. each range of the input accumulates into partition-local tables
    ///    (partition = pure function of the key), its groups in
    ///    first-seen order;
    /// 2. partitions are **disjoint**, so they merge independently —
    ///    within a partition, ranges fold in range order, so every group
    ///    keeps the representative row of the first range that saw it,
    ///    i.e. its global first-occurrence row;
    /// 3. a stitch ([`Groups::first_seen`]) orders all groups by
    ///    representative row. First occurrences are unique per group and
    ///    ascending row order *is* first-seen order over the whole input,
    ///    so the output does not depend on how the input was split.
    ///
    /// One worker gets one range and one partition, with nothing to merge
    /// and groups already in order. So does any input with an accumulator
    /// that does not merge exactly: DISTINCT needs one seen-set, float
    /// sums would expose addition order.
    fn aggregate(
        &self,
        rows: usize,
        key_cols: &[&ColVec],
        arg_cols: &[Option<&ColVec>],
        specs: &[AggSpec],
    ) -> EngineResult<Groups> {
        let workers = if exactly_mergeable(specs, arg_cols) {
            self.workers_for(rows)
        } else {
            1
        };
        let nparts = if workers > 1 { codec::NPARTS } else { 1 };
        let codec = GroupCodec::for_group(key_cols.iter().copied());
        let budget = &self.budget;

        // Coarse ranges: per-range group tables must be merged
        // afterwards, and with 4096-row morsels that merge would rival
        // the accumulation itself when groups are plentiful.
        let stride = specs.len();
        let ranges = morsel::coarse_morsels(rows, workers);
        let partials: Vec<Vec<(KeyTable, Groups)>> =
            morsel::run_on_ranges(ranges, workers, |range| {
                // One charge per range, not per row: the same total, and
                // no contended atomic in the loop.
                budget.charge(range.len() as u64)?;
                let mut parts: Vec<(KeyTable, Groups)> =
                    (0..nparts).map(|_| Default::default()).collect();
                let feeders: Vec<ArgCol> = arg_cols.iter().copied().map(ArgCol::from).collect();
                let mut scratch = Vec::new();
                for i in range {
                    let k = codec.encode(i, &mut scratch)?;
                    let (table, groups) = &mut parts[k.partition(nparts)];
                    let (gid, fresh) = table.insert(k);
                    if fresh {
                        groups.push(i, specs.iter().map(|s| Accumulator::new(s, MODE)));
                    }
                    let first = gid as usize * stride;
                    for (f, acc) in feeders.iter().zip(&mut groups.accs[first..first + stride]) {
                        f.feed(acc, i)?;
                    }
                }
                Ok(parts)
            })?;

        // Phase 2: a partition's ranges fold in order into the first
        // range's table, which is not rebuilt.
        let merged = morsel::fold_partitions(partials, workers, |(mut table, mut groups), later| {
            for (later_table, later) in later {
                for (k, gid) in later_table.iter() {
                    let gid = gid as usize;
                    let accs = &later.accs[gid * stride..(gid + 1) * stride];
                    match table.insert(k) {
                        (_, true) => groups.push(later.reps[gid], accs.iter().cloned()),
                        (g, false) => {
                            let first = g as usize * stride;
                            for (acc, other) in groups.accs[first..].iter_mut().zip(accs) {
                                acc.merge(other)?;
                            }
                        }
                    }
                }
            }
            Ok(groups)
        })?;

        // The partitions' groups in one arena, for the caller to stitch.
        let mut groups = Groups::default();
        for part in merged {
            groups.reps.extend(part.reps);
            groups.accs.extend(part.accs);
        }
        Ok(groups)
    }
}

/// Whether per-range accumulators of these aggregates combine into
/// exactly what one pass over the whole input computes.
fn exactly_mergeable(specs: &[AggSpec], arg_cols: &[Option<&ColVec>]) -> bool {
    specs.iter().zip(arg_cols).all(|(s, arg)| {
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
            // different order than one pass does.
            AggFunc::Min | AggFunc::Max => !matches!(arg, Some(ColVec::Val(_))),
        }
    })
}

/// One aggregate argument's feeder: how each input row reaches its
/// accumulator. Splitting this out of the row loop keeps typed columns
/// on the accumulator's typed entry points ([`Accumulator::update_str`],
/// [`Accumulator::update_num`]: no [`Value`] per row) and avoids
/// re-matching the column variant per row per aggregate.
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
    Int(&'a [i64]),
    Decimal {
        raw: &'a [i128],
        scale: u8,
    },
    Float(&'a [f64]),
    /// The same value on every row: fed by reference.
    Const(&'a Value),
    /// Everything else: one value per row, through [`Accumulator::update`].
    Generic(&'a ColVec),
}

impl<'a> ArgCol<'a> {
    fn from(arg: Option<&'a ColVec>) -> ArgCol<'a> {
        match arg {
            None => ArgCol::Star,
            Some(ColVec::Str(v)) => ArgCol::Str(v),
            Some(ColVec::Dict { codes, dict }) => ArgCol::Dict {
                codes,
                dict: dict.as_slice(),
            },
            Some(ColVec::Int(v)) => ArgCol::Int(v),
            Some(ColVec::Decimal { raw, scale }) => ArgCol::Decimal { raw, scale: *scale },
            Some(ColVec::Float(v)) => ArgCol::Float(v),
            Some(ColVec::Const(v, _)) => ArgCol::Const(v),
            Some(c) => ArgCol::Generic(c),
        }
    }

    #[inline]
    fn feed(&self, acc: &mut Accumulator, i: usize) -> EngineResult<()> {
        match self {
            ArgCol::Star => acc.update(None),
            ArgCol::Str(v) => acc.update_str(&v[i]),
            ArgCol::Dict { codes, dict } => acc.update_str(&dict[codes[i] as usize]),
            ArgCol::Int(v) => acc.update_num(Num::Int(v[i])),
            ArgCol::Decimal { raw, scale } => acc.update_num(Num::Decimal {
                raw: raw[i],
                scale: *scale,
            }),
            ArgCol::Float(v) => acc.update_num(Num::Float(v[i])),
            ArgCol::Const(v) => acc.update(Some(v)),
            ArgCol::Generic(c) => acc.update(Some(&c.get(i))),
        }
    }
}
