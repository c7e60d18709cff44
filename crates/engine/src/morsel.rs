//! Morsel-driven parallelism primitives (Leis et al., adapted).
//!
//! Base-table work is partitioned into fixed-size row ranges — *morsels* —
//! that a small pool of scoped threads drains from a shared cursor. Every
//! parallel operator in the engines follows the same discipline:
//!
//! 1. workers produce one partial result per morsel, never touching
//!    shared mutable state except the [`RowBudget`];
//! 2. partial results are merged **in morsel order**, so row order,
//!    group first-seen order and join match order do not depend on how
//!    the input was split;
//! 3. the first error in morsel order wins. Because a morsel is scanned
//!    sequentially and earlier morsels contain no failing row, that is
//!    the error a single pass over the whole input reports (budget
//!    messages excepted — those quote the shared counter).
//!
//! Neither engine has a sequential twin of an operator. `threads = 1`,
//! a one-core host and an input below [`MIN_PARALLEL_ROWS`] all mean *one
//! worker*, and one worker is the degenerate case of the same function:
//! [`run_indexed`] runs inline without spawning, [`coarse_morsels`] hands
//! the whole input over as a single range, and the partitioned hash
//! kernels ([`crate::codec`]) then hold one partition table with nothing
//! to merge. The row engine fans out only the decide step of its scans;
//! the column engine's scan, join and aggregate each compute their worker
//! count from what they can observe — [`effective_workers`], the input
//! size, whether the predicate needs this execution's subquery state,
//! whether every accumulator merges exactly.

use crate::error::{EngineError, EngineResult};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per morsel. Small enough that a skewed predicate still load-balances
/// across workers, large enough that per-morsel overhead (a batch header,
/// a hash-table allocation) stays invisible. Equal to the storage chunk
/// size by construction: a morsel is exactly one zone-mapped chunk, so
/// a scan's zone test skips whole morsels at every worker count.
pub const MORSEL_ROWS: usize = crate::storage::CHUNK_ROWS;

/// Inputs below this row count get one worker: spawning threads costs
/// more than the scan.
pub const MIN_PARALLEL_ROWS: usize = 2 * MORSEL_ROWS;

/// The default for the `threads` knob: whatever the machine offers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Split `0..len` into fixed-size morsels (the last one may be short).
pub fn morsels(len: usize) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(len.div_ceil(MORSEL_ROWS.max(1)));
    let mut lo = 0;
    while lo < len {
        let hi = (lo + MORSEL_ROWS).min(len);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Split `0..len` into the contiguous ranges `workers` workers share: the
/// whole input as one range for one worker — per-range state then has
/// nothing to merge with — and otherwise enough large chunks to
/// load-balance (4 per worker) but far fewer than [`morsels`] would
/// produce. Used where per-range state must be *merged* afterwards
/// (grouped aggregation, join builds): with 4096-row morsels and many
/// groups the merge work rivals the accumulation itself. Chunks never go
/// below [`MORSEL_ROWS`]; boundaries don't affect results (merging is
/// associative over contiguous splits), only overhead.
pub fn coarse_morsels(len: usize, workers: usize) -> Vec<Range<usize>> {
    let target = if workers <= 1 { 1 } else { workers * 4 };
    let chunk = len.div_ceil(target).max(MORSEL_ROWS);
    let mut out = Vec::with_capacity(len.div_ceil(chunk.max(1)));
    let mut lo = 0;
    while lo < len {
        let hi = (lo + chunk).min(len);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// An execution's row budget: how many rows a query may touch before it
/// is aborted, counted once for the whole query however many workers
/// charge it.
#[derive(Debug)]
pub struct RowBudget {
    limit: u64,
    used: AtomicU64,
}

impl RowBudget {
    pub fn new(limit: u64) -> Self {
        RowBudget {
            limit,
            used: AtomicU64::new(0),
        }
    }

    /// Count `n` more rows; an error once the total passes the limit.
    pub fn charge(&self, n: u64) -> EngineResult<()> {
        // Relaxed: the counter publishes no other data.
        let used = self.used.fetch_add(n, Ordering::Relaxed) + n;
        if used > self.limit {
            Err(EngineError::Budget(format!("{used} rows touched")))
        } else {
            Ok(())
        }
    }
}

/// Run `f` over every morsel of `0..len` on up to `threads` scoped workers
/// and return the per-morsel results **in morsel order**. Workers pull
/// morsels from a shared cursor (dynamic scheduling) and stop early on
/// error; the error of the earliest failing morsel is reported.
pub fn run_on_morsels<T, F>(len: usize, threads: usize, f: F) -> EngineResult<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> EngineResult<T> + Sync,
{
    run_on_ranges(morsels(len), threads, f)
}

/// [`run_on_morsels`] over caller-chosen ranges (e.g. [`coarse_morsels`]).
pub fn run_on_ranges<T, F>(ranges: Vec<Range<usize>>, threads: usize, f: F) -> EngineResult<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> EngineResult<T> + Sync,
{
    run_indexed(ranges.len(), threads, |i| f(ranges[i].clone()))
}

/// Number of OS workers worth spawning: the requested thread count
/// bounded by what the host can actually run concurrently. The *semantic*
/// thread count (chunk layout, shared-budget accounting) stays as
/// requested — results are identical for any worker count by the morsel
/// discipline — but oversubscribing a small host buys only
/// context-switch overhead, so the pool never exceeds the core count.
/// `SQALPEL_FORCE_WORKERS` overrides the host bound; the differential
/// suites use it to exercise the parallel kernels on single-core hosts.
fn host_workers() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::env::var("SQALPEL_FORCE_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(default_threads)
    })
}

/// Workers a `threads = N` request actually yields on this host. The
/// executors consult this before splitting an input: when it says one
/// worker, ranges and partitions would pay their merge overhead with
/// zero concurrency in return, so the operator runs as one range — which
/// produces byte-identical results anyway.
pub fn effective_workers(threads: usize) -> usize {
    threads.min(host_workers())
}

/// Fold per-range state partition by partition: `per_range[r][p]` is
/// range `r`'s state for partition `p`. Each partition's first range's
/// state goes to `fold` with the later ranges' states, in range order;
/// partitions spread over up to `threads` workers and come back in
/// partition order. One range folds nothing into each of its states, on
/// the calling thread. The grouped aggregation and the join build both
/// merge this way.
pub fn fold_partitions<T, R, F>(
    mut per_range: Vec<Vec<T>>,
    threads: usize,
    fold: F,
) -> EngineResult<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T, std::vec::IntoIter<T>) -> EngineResult<R> + Sync,
{
    if per_range.len() <= 1 {
        let parts = per_range.pop().unwrap_or_default();
        return parts.into_iter().map(|part| fold(part, Vec::new().into_iter())).collect();
    }
    let nparts = per_range[0].len();
    let mut by_part: Vec<Mutex<Vec<T>>> = (0..nparts)
        .map(|_| Mutex::new(Vec::with_capacity(per_range.len())))
        .collect();
    for parts in per_range {
        for (slot, part) in by_part.iter_mut().zip(parts) {
            slot.get_mut().expect("not shared yet").push(part);
        }
    }
    run_indexed(nparts, threads, |p| {
        let mut parts = std::mem::take(&mut *by_part[p].lock().expect("holders do not panic"))
            .into_iter();
        let first = parts.next().expect("one state per range");
        fold(first, parts)
    })
}

/// Run `f(0) .. f(count - 1)` on up to `threads` scoped workers and return
/// the results in index order; the error of the earliest failing index
/// wins. The morsel runner and the partitioned join build both sit on this.
pub fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> EngineResult<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> EngineResult<T> + Sync,
{
    let workers = threads.clamp(1, count.max(1)).min(host_workers());
    if workers == 1 {
        // Degenerate pool: run inline. Same results, same earliest-error
        // rule, none of the spawn or scheduling cost.
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(f(i)?);
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<EngineResult<T>>> = Vec::new();
    slots.resize_with(count, || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let result = f(i);
                        let stop = result.is_err();
                        produced.push((i, result));
                        if stop {
                            break;
                        }
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    // Claimed morsels form a contiguous prefix; a missing slot can only
    // follow an error, so scanning in order surfaces the earliest failure.
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => {
                return Err(EngineError::Unsupported(
                    "morsel skipped without a preceding error".into(),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_the_range_exactly() {
        for len in [0, 1, MORSEL_ROWS - 1, MORSEL_ROWS, MORSEL_ROWS + 1, 3 * MORSEL_ROWS + 17] {
            let parts = morsels(len);
            let mut next = 0;
            for p in &parts {
                assert_eq!(p.start, next);
                assert!(p.end > p.start);
                assert!(p.end - p.start <= MORSEL_ROWS);
                next = p.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn coarse_morsels_cover_the_range_with_few_chunks() {
        for len in [0, 1, MORSEL_ROWS, 10 * MORSEL_ROWS + 17, 150 * MORSEL_ROWS] {
            for threads in [1, 2, 4, 8] {
                let parts = coarse_morsels(len, threads);
                let mut next = 0;
                for (k, p) in parts.iter().enumerate() {
                    assert_eq!(p.start, next);
                    assert!(p.end > p.start);
                    if k + 1 < parts.len() {
                        assert!(p.end - p.start >= MORSEL_ROWS);
                    }
                    next = p.end;
                }
                assert_eq!(next, len);
                // Never more chunks than the load-balancing target needs.
                assert!(parts.len() <= threads * 4 + 1);
            }
        }
    }

    #[test]
    fn results_come_back_in_morsel_order() {
        let n = 5 * MORSEL_ROWS + 123;
        let sums = run_on_morsels(n, 4, |r| Ok::<_, EngineError>(r.start)).unwrap();
        let expected: Vec<usize> = morsels(n).iter().map(|r| r.start).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn earliest_error_wins() {
        let n = 8 * MORSEL_ROWS;
        let err = run_on_morsels(n, 4, |r| {
            if r.start >= 2 * MORSEL_ROWS {
                Err(EngineError::Type(format!("fail at {}", r.start)))
            } else {
                Ok(r.start)
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), EngineError::Type(format!("fail at {}", 2 * MORSEL_ROWS)).to_string());
    }

    #[test]
    fn one_worker_gets_the_whole_input_as_one_range() {
        for len in [1, MORSEL_ROWS, 150 * MORSEL_ROWS + 3] {
            assert_eq!(coarse_morsels(len, 1), vec![0..len]);
        }
        assert!(coarse_morsels(0, 1).is_empty());
    }

    #[test]
    fn row_budget_counts_across_sharers_and_trips_past_the_limit() {
        let b = std::sync::Arc::new(RowBudget::new(15));
        let other = std::sync::Arc::clone(&b);
        b.charge(10).unwrap();
        other.charge(5).unwrap();
        let err = b.charge(1).unwrap_err();
        assert_eq!(err, EngineError::Budget("16 rows touched".into()));
    }
}
