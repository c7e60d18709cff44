//! Morsel-driven parallelism primitives (Leis et al., adapted).
//!
//! Base-table work is partitioned into fixed-size row ranges — *morsels* —
//! that a few scoped threads and the calling thread drain from a shared
//! cursor. Every parallel operator in the engines follows the same
//! discipline:
//!
//! 1. workers produce one partial result per morsel, never touching
//!    shared mutable state except the [`RowBudget`];
//! 2. partial results are combined **in morsel order**, so row order,
//!    group first-seen order and join match order do not depend on how
//!    the input was split;
//! 3. the first error in morsel order wins. Because a morsel is scanned
//!    sequentially and earlier morsels contain no failing row, that is
//!    the error a single pass over the whole input reports (budget
//!    messages excepted — those quote the shared counter).
//!
//! [`run_indexed`] is the one place the engines start threads, and it
//! starts them per call: the calling thread works as one of the workers,
//! so `n` workers spawn `n - 1` scoped threads. A call over two indices
//! at two workers — one spawn and join — costs 36–42 µs on a 2-core
//! host; a persistent pool was measured and kept out (see DESIGN.md).
//!
//! Neither engine has a sequential twin of an operator. `threads = 1`,
//! a one-core host and an input below [`MIN_PARALLEL_ROWS`] all mean *one
//! worker*, and one worker is the degenerate case of the same function:
//! [`run_indexed`] runs inline without spawning, [`coarse_morsels`] hands
//! the whole input over as a single range, `run_by_partition` hands it
//! to one table with nothing scattered, and [`fold_partitions`] has
//! nothing to fold. The row engine fans out only the decide step of its
//! scans; the column engine's scan, join build, join probe and aggregate
//! each compute their worker count from what they can observe —
//! [`effective_workers`], their own input's size, whether the predicate
//! needs this execution's subquery state, whether every accumulator
//! merges exactly.

use crate::codec::{GroupCodec, NPARTS};
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

/// Inputs below this row count get one worker. A parallel call at two
/// workers costs 36–42 µs of spawn and join on a 2-core host (one
/// thread spawned); the threshold is a fixed row count, not derived
/// from that cost or from the operator's work.
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
/// whole input as one range for one worker, and otherwise enough large
/// chunks to load-balance (4 per worker) but far fewer than [`morsels`]
/// would produce. Used where each range's output is state to merge (the
/// grouped aggregation's tables, whose merge would rival the
/// accumulation itself over 4096-row morsels when groups are
/// plentiful), row ids per key partition (`run_by_partition`) or match
/// lists to concatenate (the join probe). Chunks never go below
/// [`MORSEL_ROWS`]; boundaries don't affect results, only overhead.
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
/// context-switch overhead, so the workers never outnumber the cores.
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
/// worker, ranges and partitions would pay their scatter and merge
/// overhead with zero concurrency in return, so the operator runs as
/// one range — which produces byte-identical results anyway.
pub fn effective_workers(threads: usize) -> usize {
    threads.min(host_workers())
}

/// Fold per-range state partition by partition: `per_range[r][p]` is
/// range `r`'s state for partition `p`. Each partition's first range's
/// state goes to `fold` with the later ranges' states, in range order;
/// partitions spread over up to `threads` workers and come back in
/// partition order. One range folds nothing into each of its states, on
/// the calling thread. The grouped aggregation merges this way.
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

/// One key partition's rows, in ascending row order: the whole input
/// when one worker keeps one partition, otherwise the rows each range
/// scattered to it, range by range.
pub(crate) enum PartRows<'a> {
    All(Range<usize>),
    Scattered {
        per_range: &'a [Vec<Vec<u32>>],
        part: usize,
    },
}

impl PartRows<'_> {
    /// How many rows the partition holds.
    pub(crate) fn len(&self) -> usize {
        match self {
            PartRows::All(rows) => rows.len(),
            PartRows::Scattered { per_range, part } => {
                per_range.iter().map(|r| r[*part].len()).sum()
            }
        }
    }

    /// Visit every row in ascending order, stopping at the first error.
    pub(crate) fn try_each(&self, mut f: impl FnMut(usize) -> EngineResult<()>) -> EngineResult<()> {
        match self {
            PartRows::All(rows) => rows.clone().try_for_each(f),
            PartRows::Scattered { per_range, part } => per_range
                .iter()
                .flat_map(|r| &r[*part])
                .try_for_each(|&i| f(i as usize)),
        }
    }
}

/// Run `f` once per key partition of the rows `0..rows`, on up to
/// `workers` workers, and return its results in partition order. One
/// worker gets the whole input as one partition, on the calling thread.
/// More first scatter each range's row ids by their key's radix
/// partition among [`NPARTS`] (the earliest range's encoding error
/// wins), then give each partition to one worker: every key is seen by
/// exactly one `f`, which visits its rows in global row order, so
/// whatever `f` builds per key is what one pass over the input builds.
/// The join build runs this way.
pub(crate) fn run_by_partition<R, F>(
    codec: &GroupCodec<'_>,
    rows: usize,
    workers: usize,
    f: F,
) -> EngineResult<Vec<R>>
where
    R: Send,
    F: Fn(PartRows<'_>) -> EngineResult<R> + Sync,
{
    // Row ids are `u32`, here and in what `f` builds from them.
    if rows > u32::MAX as usize {
        return Err(EngineError::Unsupported(
            "a partitioned input exceeds 2^32 rows".into(),
        ));
    }
    if workers <= 1 {
        return Ok(vec![f(PartRows::All(0..rows))?]);
    }
    let per_range = run_on_ranges(coarse_morsels(rows, workers), workers, |range| {
        let mut parts: Vec<Vec<u32>> = (0..NPARTS)
            .map(|_| Vec::with_capacity(range.len().div_ceil(NPARTS)))
            .collect();
        let mut scratch = Vec::new();
        for i in range {
            parts[codec.encode(i, &mut scratch)?.partition(NPARTS)].push(i as u32);
        }
        Ok(parts)
    })?;
    run_indexed(NPARTS, workers, |part| {
        f(PartRows::Scattered {
            per_range: &per_range,
            part,
        })
    })
}

/// Run `f(0) .. f(count - 1)` on up to `threads` workers and return the
/// results in index order; the error of the earliest failing index wins.
/// Every other parallel primitive here sits on this; it is the one place
/// the engines start threads.
pub fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> EngineResult<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> EngineResult<T> + Sync,
{
    run_on_workers(count, threads.min(host_workers()), f)
}

#[cfg(test)]
thread_local! {
    /// Threads this thread has spawned in [`run_on_workers`].
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`run_indexed`] on exactly `workers` workers (fewer when there are
/// fewer indices): the calling thread is one of them, so one worker
/// spawns nothing and `n` spawn `n - 1` scoped threads, which drain one
/// shared cursor beside it.
fn run_on_workers<T, F>(count: usize, workers: usize, f: F) -> EngineResult<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> EngineResult<T> + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    if workers == 1 {
        // Same results, same earliest-error rule, no scheduling cost.
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(f(i)?);
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    // One worker's share: indices off the cursor until it runs dry or
    // an index fails.
    let drain = || {
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
    };
    let mut slots: Vec<Option<EngineResult<T>>> = Vec::new();
    slots.resize_with(count, || None);

    #[cfg(test)]
    SPAWNED.with(|n| n.set(n.get() + workers - 1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        // A panic here leaves the scope, which joins the spawned threads
        // and re-raises it.
        for (i, r) in drain() {
            slots[i] = Some(r);
        }
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

    // Claimed indices form a contiguous prefix; a missing slot can only
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

    // The worker discipline, at exactly 4 workers on any host: these call
    // `run_on_workers`, which `run_indexed` reaches after bounding the
    // request by the host.

    use std::sync::atomic::AtomicBool;
    use std::thread::{self, ThreadId};

    fn spawned() -> usize {
        SPAWNED.with(|n| n.get())
    }

    /// Spin until `flag` is up; a flag that never rises fails the test
    /// rather than hanging it.
    fn wait_for(flag: &AtomicBool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "the other worker never ran"
            );
            thread::yield_now();
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = thread::current().id();
        let before = spawned();
        // The spawned threads hold their first index until the caller
        // has run one.
        let caller_ran = AtomicBool::new(false);
        let ran: Vec<ThreadId> = run_on_workers(32, 4, |_| {
            if thread::current().id() == caller {
                caller_ran.store(true, Ordering::SeqCst);
            } else {
                wait_for(&caller_ran);
            }
            Ok(thread::current().id())
        })
        .unwrap();
        assert_eq!(
            spawned() - before,
            3,
            "4 workers are the caller and 3 threads"
        );
        let distinct: std::collections::HashSet<ThreadId> = ran.into_iter().collect();
        assert!(
            distinct.contains(&caller),
            "the calling thread ran no index"
        );
        assert!(
            distinct.len() <= 4,
            "{} threads ran indices",
            distinct.len()
        );
    }

    #[test]
    fn a_panic_in_any_index_reaches_the_caller() {
        let caller = thread::current().id();
        for on_caller in [true, false] {
            // The worker that is not to panic waits until the other has.
            let panicking = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(|| {
                run_on_workers(64, 4, |i| {
                    if (thread::current().id() == caller) == on_caller {
                        panicking.store(true, Ordering::SeqCst);
                        panic!("index {i} panicked");
                    }
                    wait_for(&panicking);
                    Ok(i)
                })
            })
            .expect_err("the panic was swallowed");
            let text = caught
                .downcast_ref::<String>()
                .expect("the panic's own payload");
            assert!(text.ends_with(" panicked"), "{text}");
        }
    }

    #[test]
    fn the_earliest_error_wins_on_the_caller_and_on_a_spawned_thread() {
        let caller = thread::current().id();
        let fail = |i: usize| Err::<usize, _>(EngineError::Type(format!("fail at {i}")));

        // The caller fails on its first index; the spawned threads succeed
        // on every index, but only once it has failed, so they hold the
        // indices below its own.
        let caller_failed = AtomicBool::new(false);
        let caller_index = AtomicUsize::new(usize::MAX);
        let err = run_on_workers(64, 4, |i| {
            if thread::current().id() == caller {
                caller_index.store(i, Ordering::SeqCst);
                caller_failed.store(true, Ordering::SeqCst);
                return fail(i);
            }
            wait_for(&caller_failed);
            Ok(i)
        })
        .unwrap_err();
        let at = caller_index.load(Ordering::SeqCst);
        assert_eq!(err.to_string(), fail(at).unwrap_err().to_string());

        // Each spawned thread fails on its first index; the caller
        // succeeds, but only once one of them has failed.
        let spawned_failed = AtomicBool::new(false);
        let first_spawned_failure = AtomicUsize::new(usize::MAX);
        let err = run_on_workers(64, 4, |i| {
            if thread::current().id() == caller {
                wait_for(&spawned_failed);
                return Ok(i);
            }
            first_spawned_failure.fetch_min(i, Ordering::SeqCst);
            spawned_failed.store(true, Ordering::SeqCst);
            fail(i)
        })
        .unwrap_err();
        let at = first_spawned_failure.load(Ordering::SeqCst);
        assert_eq!(err.to_string(), fail(at).unwrap_err().to_string());
    }

    #[test]
    fn no_work_spawns_nothing() {
        let calls = AtomicUsize::new(0);
        let before = spawned();
        let none: Vec<usize> = run_indexed(0, 4, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(i)
        })
        .unwrap();
        assert!(none.is_empty());
        assert_eq!(run_on_workers(0, 4, Ok).unwrap(), Vec::<usize>::new());
        // One index is one worker's, on the calling thread.
        assert_eq!(run_on_workers(1, 4, Ok).unwrap(), vec![0]);
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(spawned(), before);
    }

    #[test]
    fn partitions_hold_every_row_once_in_row_order() {
        let keys: Vec<i64> = (0..(3 * MORSEL_ROWS as i64 + 5))
            .map(|i| i * 7 % 1000)
            .collect();
        let col = crate::exec_col::ColVec::Int(keys.clone());
        let codec = GroupCodec::for_group([&col]);
        for workers in [1, 2, 4] {
            let parts = run_by_partition(&codec, keys.len(), workers, |part| {
                let mut rows = Vec::with_capacity(part.len());
                part.try_each(|i| {
                    rows.push(i);
                    Ok(())
                })?;
                Ok(rows)
            })
            .unwrap();
            assert_eq!(parts.len(), if workers == 1 { 1 } else { NPARTS });
            let mut scratch = Vec::new();
            let mut all = Vec::new();
            for (p, rows) in parts.iter().enumerate() {
                assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "partition {p} out of row order"
                );
                for &i in rows {
                    let k = codec.encode(i, &mut scratch).unwrap();
                    assert_eq!(
                        k.partition(parts.len()),
                        p,
                        "row {i} in the wrong partition"
                    );
                }
                all.extend_from_slice(rows);
            }
            all.sort_unstable();
            assert_eq!(all, (0..keys.len()).collect::<Vec<_>>());
        }
    }
}
