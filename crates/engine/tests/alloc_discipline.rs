//! The radix kernels' allocation contract: aggregation and join inner
//! loops must not allocate per row, for typed (int/decimal/dict) keys
//! and for the float keys that go through the tagged key image alike. A
//! counting global allocator measures whole-query allocation counts; the
//! bound is a small fraction of the row count, so any per-row `Vec<Key>`
//! boxing or key cloning creeping back into the hot loops fails the test
//! loudly.
//! The row engine's tuple pipeline is held to the same contract: scan,
//! filter, join and grouping keep rows in reused buffers and arenas.
//!
//! A Q1-shaped aggregate list is held to its bytes as well: the column
//! engine borrows a bare key or argument column from its batch and
//! evaluates a subexpression the arguments share once, so what it
//! allocates is its scan's columns and one column per distinct kernel.
//!
//! One `#[test]` only: the allocator counts globally, so concurrent tests
//! would pollute each other's deltas.

use sqalpel_engine::storage::{date_col, dec_col, float_col, int_col, str_col};
use sqalpel_engine::{ColStore, Database, Dbms, RowStore, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for: a `realloc` counts its whole new size.
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count(n);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static A: Counting = Counting;

const ROWS: usize = 100_000;
const KEYS: usize = 1_000;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn kernel_loops_do_not_allocate_per_row() {
    // Lift the single-core worker bound so the kernels are measured over
    // several ranges and partitions too, not just over one.
    std::env::set_var("SQALPEL_FORCE_WORKERS", "8");

    let mut db = Database::new();
    db.add_table(
        Table::new(
            "facts",
            vec![
                int_col("k", (0..ROWS).map(|i| (i % KEYS) as i64)),
                dec_col("amount", (0..ROWS).map(|i| (i % 500) as i64), 2),
                // Low-NDV, so the loader dictionary-encodes it: predicates
                // and probes on this column run over u32 codes.
                str_col("tag", (0..ROWS).map(|i| format!("tag-{:02}", i % 40))),
                date_col("day", (0..ROWS).map(|i| 9_000 + (i % 2_000) as i32)),
                int_col("qty", (0..ROWS).map(|i| (i % 50) as i64)),
                float_col("fkey", (0..ROWS).map(|i| (i % KEYS) as f64 + 0.5)),
            ],
        )
        .expect("facts table"),
    );
    db.add_table(
        Table::new(
            "dims",
            vec![
                int_col("k", (0..KEYS).map(|i| i as i64)),
                float_col("fkey", (0..KEYS).map(|i| i as f64 + 0.5)),
            ],
        )
        .expect("dims table"),
    );
    // A second dimension keyed on the dict-encoded string: its own
    // (distinct) dictionary, so the join compares via string bytes.
    db.add_table(
        Table::new("tags", vec![str_col("tag", (0..40).map(|i| format!("tag-{i:02}")))])
            .expect("tags table"),
    );
    // Q1's shape: two low-NDV string keys, an integer and three decimal
    // columns.
    db.add_table(
        Table::new(
            "lines",
            vec![
                str_col("flag", (0..ROWS).map(|i| ["A", "N", "R"][i % 3].to_string())),
                str_col("status", (0..ROWS).map(|i| ["F", "O"][i / 7 % 2].to_string())),
                int_col("qty", (0..ROWS).map(|i| 1 + (i % 50) as i64)),
                dec_col("amount", (0..ROWS).map(|i| 90_000 + (i % 10_000) as i64), 2),
                dec_col("disc", (0..ROWS).map(|i| (i % 11) as i64), 2),
                dec_col("tax", (0..ROWS).map(|i| (i % 9) as i64), 2),
            ],
        )
        .expect("lines table"),
    );
    let db = Arc::new(db);

    let agg = "select k, count(*), sum(amount), min(amount), max(amount) from facts group by k";
    let join = "select count(*) from facts, dims where facts.k = dims.k";
    // Selection-vector path: vectorizable conjuncts evaluated stage by
    // stage over each chunk, the dict equality comparing u32 codes.
    let filt = "select count(*), sum(amount) from facts \
                where k >= 100 and k < 900 and tag = 'tag-07'";
    // Dict-probe path: both join keys are dictionary-encoded with
    // different dictionaries.
    let probe = "select count(*) from facts, tags where facts.tag = tags.tag";
    // Float keys have no typed encoding: each row's key is its tagged
    // image, written into the same scratch buffer and hash tables.
    let float_agg = "select fkey, count(*), sum(amount) from facts group by fkey";
    let float_join = "select count(*) from facts, dims where facts.fkey = dims.fkey";

    // The tuple pipeline end to end: scan -> filter (a typed conjunct
    // and one the evaluator runs) -> int-key hash join -> grouped
    // aggregates over int, decimal and date columns.
    let pipeline = "select facts.k, sum(amount), sum(qty), max(day), count(*) \
                    from facts, dims \
                    where facts.k = dims.k and qty >= 5 and qty + 0 < 45 \
                    and day >= date '1994-09-01' - interval '1' month \
                    group by facts.k";

    // Q1's aggregate list: `qty` under two aggregates, and `amount * (1 -
    // disc)` on its own and inside the next argument.
    let q1 = "select flag, status, sum(qty), avg(qty), sum(amount * (1 - disc)), \
              sum(amount * (1 - disc) * (1 + tax)), count(*) from lines group by flag, status";

    for threads in [1usize, 4] {
        let row = RowStore::new(db.clone()).with_threads(threads);
        let col = ColStore::new(db.clone()).with_threads(threads);
        row.execute(q1).expect("q1 warms");
        col.execute(q1).expect("q1 warms");

        // The row engine folds each argument into its accumulator as a
        // number: nothing per row.
        let row_allocs = allocs_during(|| {
            row.execute(q1).expect("q1 executes");
        });
        assert!(
            row_allocs < (ROWS / 10) as u64,
            "row engine Q1 shape at threads={threads} allocated {row_allocs} times \
             for {ROWS} rows — a per-row allocation is back in the loop"
        );

        // The column engine materializes the scan's six live columns (two
        // u32 code columns, an i64 and three i128: 64 B a row) and four
        // kernel results (`1 - disc`, `amount * (1 - disc)`, `1 + tax`
        // and the product: 64 B a row), and nothing else of a row's
        // size. Measured 128.4 B a row at one worker and 129.9 at four
        // (group tables and partitions). Copying one bare column adds at
        // least 4 B a row, and evaluating `amount * (1 - disc)` a second
        // time 32.
        let per_row = bytes_during(|| {
            col.execute(q1).expect("q1 executes");
        }) as f64
            / ROWS as f64;
        assert!(
            per_row < 131.0,
            "column engine Q1 shape at threads={threads} allocated {per_row:.1} B a row \
             (bound 131) — a bare column is copied, or a shared argument computed twice"
        );
    }

    for threads in [1usize, 4] {
        // What the row engine may allocate is its state — the build
        // arena and match lists (KEYS rows), the group arenas (KEYS
        // groups, grown by doubling), a selection vector per chunk — and
        // its result. A Vec per scanned, joined or grouped row would cost
        // >= ROWS and blow straight past ROWS / 10.
        let row = RowStore::new(db.clone()).with_threads(threads);
        row.execute(pipeline).expect("pipeline warms");
        let pipeline_allocs = allocs_during(|| {
            row.execute(pipeline).expect("pipeline executes");
        });
        assert!(
            pipeline_allocs < (ROWS / 10) as u64,
            "row pipeline at threads={threads} allocated {pipeline_allocs} times \
             for {ROWS} rows — a per-row allocation is back in the loop"
        );

        let col = ColStore::new(db.clone()).with_threads(threads);
        // Warm once: lazy one-time state (worker bound, table caches)
        // must not count against the steady-state budget.
        col.execute(agg).expect("agg warms");
        col.execute(join).expect("join warms");
        col.execute(filt).expect("filter warms");
        col.execute(probe).expect("probe warms");
        col.execute(float_agg).expect("float agg warms");
        col.execute(float_join).expect("float join warms");

        // Steady-state allocation budget: group state, partition tables,
        // chunk merges and the result are all O(groups + chunks + cols),
        // far below the row count. Per-row boxing would cost >= ROWS
        // allocations and blow straight past ROWS / 2.
        let agg_allocs = allocs_during(|| {
            col.execute(agg).expect("agg executes");
        });
        assert!(
            agg_allocs < (ROWS / 2) as u64,
            "aggregation at threads={threads} allocated {agg_allocs} times \
             for {ROWS} rows — a per-row allocation is back in the loop"
        );

        // The join's build side is one key table, two flat arrays and
        // their offsets, whatever the number of keys: a list per key
        // would cost >= KEYS allocations at one worker, and a per-row
        // allocation >= ROWS. Measured 336 at one worker and 653-654 at
        // four: the build over KEYS rows is one worker's single table,
        // and only the probe over ROWS rows splits. The pins sit just
        // above.
        let join_allocs = allocs_during(|| {
            col.execute(join).expect("join executes");
        });
        let join_pin = if threads == 1 { 350 } else { 680 };
        assert!(
            join_allocs < join_pin,
            "join at threads={threads} allocated {join_allocs} times \
             for {ROWS} probe rows over {KEYS} keys (pin {join_pin}) — \
             a list per key or an allocation per row is back"
        );

        // Selection-vector filters stay in the code domain: a dict
        // equality must not materialize strings per row, and the staged
        // conjuncts must not clone surviving rows between stages.
        let filt_allocs = allocs_during(|| {
            col.execute(filt).expect("filter executes");
        });
        assert!(
            filt_allocs < (ROWS / 2) as u64,
            "selection-vector filter at threads={threads} allocated {filt_allocs} times \
             for {ROWS} rows — a per-row allocation is back in the loop"
        );

        // Dict-keyed probe: key encoding reads dictionary bytes in place;
        // per-row String materialization would blow the budget.
        let probe_allocs = allocs_during(|| {
            col.execute(probe).expect("probe executes");
        });
        assert!(
            probe_allocs < (ROWS / 2) as u64,
            "dict probe at threads={threads} allocated {probe_allocs} times \
             for {ROWS} probe rows — a per-row allocation is back in the loop"
        );

        // Float keys: a boxed key per row would cost >= ROWS.
        for (what, sql) in [("float-keyed aggregation", float_agg), ("float-keyed join", float_join)] {
            let allocs = allocs_during(|| {
                col.execute(sql).expect("float-keyed query executes");
            });
            assert!(
                allocs < (ROWS / 2) as u64,
                "{what} at threads={threads} allocated {allocs} times \
                 for {ROWS} rows — a per-row allocation is back in the loop"
            );
        }
    }
}
