//! Adversarial shapes for the radix-partitioned kernels.
//!
//! The TPC-H/SSB differential suite exercises realistic distributions;
//! this one aims at the spots where a kernel split over ranges and
//! partitions could diverge from one pass over the whole input:
//!
//! * **single group** — every row lands in one partition, the merge
//!   phase degenerates to a pure reduction across chunks;
//! * **all distinct** — no two rows share a group, the stitch phase has
//!   to reproduce the sequential first-seen order for tens of thousands
//!   of groups;
//! * **zipf-ish skew** — one giant group plus a long tail, so chunk
//!   partials disagree wildly in size;
//! * **join extremes** — duplicate-heavy probe sides, unique⋈unique, a
//!   mixed int=decimal key (the widened 16-byte domain), and string
//!   keys;
//! * **untyped keys** — float = float, float = int, a `CASE`-valued key
//!   (a boxed column of ints and NULLs), a key that is NULL on every
//!   row, and two-column keys mixing a typed and a float column, as
//!   inner, semi (`IN`/`EXISTS`) and anti (`NOT IN`/`NOT EXISTS`) joins
//!   and as GROUP BY keys: the column engine encodes these with the
//!   tagged key image, row by row, in the same hash tables as the typed
//!   ones.
//!
//! Every case must be byte-identical (`approx_eq` with tolerance 0.0)
//! between `threads = 1` and `threads ∈ {2, 4, 8}` on both engines, the
//! two engines must agree with each other, and budget exhaustion must
//! fail with the same error kind at every thread count.

use sqalpel_engine::storage::{dec_col, float_col, int_col, str_col};
use sqalpel_engine::{ColStore, Database, Dbms, EngineError, RowStore, Table};
use std::sync::Arc;

const THREADS: [usize; 3] = [2, 4, 8];

/// See `parallel_differential.rs`: lift the single-core worker bound so
/// the partitioned kernels actually run on any CI machine.
fn force_parallel() {
    std::env::set_var("SQALPEL_FORCE_WORKERS", "8");
}

/// Rows in the aggregation table: comfortably past the engines'
/// parallel spawn threshold (2 × 4096).
const AGG_ROWS: usize = 20_000;
/// Probe side of the join table pair; build side is `JOIN_KEYS`.
const PROBE_ROWS: usize = 16_384;
const JOIN_KEYS: usize = 1_000;

fn kind(e: &EngineError) -> &'static str {
    match e {
        EngineError::Parse(_) => "parse",
        EngineError::UnknownTable(_) => "unknown-table",
        EngineError::UnknownColumn(_) => "unknown-column",
        EngineError::AmbiguousColumn(_) => "ambiguous-column",
        EngineError::Type(_) => "type",
        EngineError::Unsupported(_) => "unsupported",
        EngineError::Overflow(_) => "overflow",
        EngineError::ScalarCardinality(_) => "scalar-cardinality",
        EngineError::Budget(_) => "budget",
    }
}

fn assert_thread_invariant<D: Dbms>(seq: &D, par: &D, threads: usize, sql: &str) {
    match (seq.execute(sql), par.execute(sql)) {
        (Ok(a), Ok(b)) => assert!(
            a.approx_eq(&b, 0.0),
            "{sql} differs on {} between threads=1 and threads={threads}:\n{a}\nvs\n{b}",
            seq.label(),
        ),
        (Err(a), Err(b)) => assert_eq!(
            kind(&a),
            kind(&b),
            "{sql} fails differently on {}: threads=1 -> {a}, threads={threads} -> {b}",
            seq.label(),
        ),
        (Ok(a), Err(b)) => panic!(
            "{sql} on {}: threads=1 succeeded but threads={threads} failed: {b}\n{a}",
            seq.label()
        ),
        (Err(a), Ok(b)) => panic!(
            "{sql} on {}: threads=1 failed ({a}) but threads={threads} succeeded\n{b}",
            seq.label()
        ),
    }
}

/// The column engine against the row engine: the same rows, whatever
/// each one's hash tables are keyed on.
fn assert_engines_agree(row: &RowStore, col: &ColStore, sql: &str) {
    let a = row
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql} failed on rowstore: {e}"));
    let b = col
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql} failed on colstore: {e}"));
    assert!(
        a.canonicalized().approx_eq(&b.canonicalized(), 1e-9),
        "{sql} diverged:\nrowstore:\n{a}\ncolstore:\n{b}"
    );
}

/// One table holding every adversarial aggregation distribution as a
/// separate column, so each query picks its poison.
fn agg_db() -> Arc<Database> {
    let n = AGG_ROWS;
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "skew",
            vec![
                // Single group: the whole table collapses into one key.
                int_col("one_group", (0..n).map(|_| 7)),
                // All distinct: every row is its own group.
                int_col("distinct_key", (0..n).map(|i| i as i64)),
                // Zipf-ish: 90% of rows share key 0, the rest scatter.
                int_col(
                    "zipf",
                    (0..n).map(|i| {
                        if i % 10 == 0 {
                            ((i * i) % 1009) as i64
                        } else {
                            0
                        }
                    }),
                ),
                dec_col("dec_val", (0..n).map(|i| (i % 1000) as i64), 2),
                str_col("str_key", (0..n).map(|i| format!("s{:02}", i % 97))),
                float_col("f_val", (0..n).map(|i| i as f64 * 0.5)),
            ],
        )
        .expect("skew table"),
    );
    Arc::new(db)
}

/// Probe/build pair for the join extremes.
fn join_db() -> Arc<Database> {
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "build",
            vec![
                int_col("k", (0..JOIN_KEYS).map(|i| i as i64)),
                // Same key domain as `k`, spelled as decimal(·,2): raw
                // i*100 at scale 2 is the value i, so `probe.k =
                // build.dec_k` matches exactly where `probe.k = build.k`
                // does — through the widened int=decimal codec domain.
                dec_col("dec_k", (0..JOIN_KEYS).map(|i| (i * 100) as i64), 2),
                str_col("name", (0..JOIN_KEYS).map(|i| format!("n{i}"))),
                // `k` again, as a float.
                float_col("f", (0..JOIN_KEYS).map(|i| i as f64)),
            ],
        )
        .expect("build table"),
    );
    db.add_table(
        Table::new(
            "probe",
            vec![
                // Duplicate-heavy: ~16 probe rows per build key.
                int_col("k", (0..PROBE_ROWS).map(|i| (i % JOIN_KEYS) as i64)),
                // Unique: only the first JOIN_KEYS rows find a partner.
                int_col("u", (0..PROBE_ROWS).map(|i| i as i64)),
                str_col(
                    "name_k",
                    (0..PROBE_ROWS).map(|i| format!("n{}", i % JOIN_KEYS)),
                ),
                int_col("v", (0..PROBE_ROWS).map(|i| (i % 13) as i64)),
                // Half-steps over the key domain: every other value is
                // integral (the key image of an int), the rest are not.
                float_col(
                    "fk",
                    (0..PROBE_ROWS).map(|i| (i % (2 * JOIN_KEYS)) as f64 * 0.5),
                ),
            ],
        )
        .expect("probe table"),
    );
    Arc::new(db)
}

const AGG_QUERIES: &[&str] = &[
    "select one_group, count(*), sum(dec_val) from skew group by one_group",
    "select distinct_key, count(*), sum(dec_val) from skew group by distinct_key",
    "select zipf, count(*), min(distinct_key), max(str_key) from skew group by zipf",
    "select str_key, count(*), min(str_key), max(dec_val) from skew group by str_key",
    "select one_group, avg(f_val), count(distinct zipf) from skew group by one_group",
    // Untyped keys. A float column, all distinct:
    "select count(*), sum(dec_val) from skew group by f_val",
    // floats and ints in one key column, meeting where they are equal
    // (`7.0` of row 14 and the `7` of every odd row are one group);
    "select count(*), sum(dec_val) from skew \
     group by case when distinct_key % 2 = 0 then f_val else one_group end",
    // a CASE-valued key that is NULL for most rows;
    "select case when zipf > 0 then zipf end, count(*), sum(dec_val) from skew \
     group by case when zipf > 0 then zipf end",
    // a NULL constant: one group;
    "select count(*), min(distinct_key) from skew group by null",
    // and a typed column next to a float one.
    "select zipf, f_val, count(*), sum(dec_val) from skew group by zipf, f_val",
];

const JOIN_QUERIES: &[&str] = &[
    "select count(*), sum(probe.v) from probe, build where probe.k = build.k",
    "select count(*), min(build.name) from probe, build where probe.u = build.k",
    "select count(*), sum(probe.v) from probe, build where probe.k = build.dec_k",
    "select count(*), max(probe.v) from probe, build where probe.name_k = build.name",
    // Untyped keys, inner: float = float, float = int, a CASE-valued key
    // (ints and NULLs), a key NULL on every row, typed + float columns.
    "select count(*), sum(probe.v) from probe, build where probe.fk = build.f",
    "select count(*), sum(probe.v) from probe, build where probe.fk = build.k",
    "select count(*), sum(probe.v) from probe, build \
     where case when probe.v < 6 then probe.k end = build.k",
    "select count(*) from probe, build where case when probe.v < 0 then probe.k end = build.k",
    "select count(*), sum(probe.v) from probe, build \
     where probe.k = build.k and probe.fk = build.f",
    // Semi and anti, on the CASE-valued key from either side (the
    // unnester hashes only statically typed keys; this one is typed int
    // and boxed at run time), and with the float pair as the residual.
    "select count(*), sum(v) from probe \
     where case when v < 6 then k end in (select k from build where k < 500)",
    "select count(*), sum(v) from probe \
     where case when v < 6 then k end not in (select k from build where k < 500)",
    "select count(*), sum(v) from probe where exists \
     (select 1 from build where build.k = case when probe.v < 6 then probe.k end)",
    "select count(*), sum(v) from probe where not exists \
     (select 1 from build where build.k = case when probe.v < 6 then probe.k end)",
    "select count(*), sum(v) from probe \
     where k in (select case when k < 500 then k end from build)",
    "select count(*), sum(v) from probe where not exists \
     (select 1 from build where build.k = probe.k and build.f = probe.fk)",
    // A build side of PROBE_ROWS rows, every key in every range: the only
    // builds here that split. The left join lists each match list in
    // build-row order, so a split that reorders one shows.
    "select p.u, q.u from probe p left join probe q on p.k = q.k where p.u < 50",
    "select count(*), sum(v) from probe where u in (select u from probe where v < 12)",
];

#[test]
fn aggregation_extremes_are_thread_invariant() {
    force_parallel();
    let db = agg_db();
    for &sql in AGG_QUERIES {
        for threads in THREADS {
            let row_seq = RowStore::new(db.clone()).with_threads(1);
            let row_par = RowStore::new(db.clone()).with_threads(threads);
            let col_seq = ColStore::new(db.clone()).with_threads(1);
            let col_par = ColStore::new(db.clone()).with_threads(threads);
            assert_thread_invariant(&row_seq, &row_par, threads, sql);
            assert_thread_invariant(&col_seq, &col_par, threads, sql);
            assert_engines_agree(&row_par, &col_par, sql);
        }
    }
}

#[test]
fn join_extremes_are_thread_invariant() {
    force_parallel();
    let db = join_db();
    for &sql in JOIN_QUERIES {
        for threads in THREADS {
            let row_seq = RowStore::new(db.clone()).with_threads(1);
            let row_par = RowStore::new(db.clone()).with_threads(threads);
            let col_seq = ColStore::new(db.clone()).with_threads(1);
            let col_par = ColStore::new(db.clone()).with_threads(threads);
            assert_thread_invariant(&row_seq, &row_par, threads, sql);
            assert_thread_invariant(&col_seq, &col_par, threads, sql);
            assert_engines_agree(&row_par, &col_par, sql);
        }
    }
}

#[test]
fn budget_exhaustion_is_thread_invariant() {
    force_parallel();
    // Budgets chosen to trip mid-kernel: the scan fits but the join (or
    // the group build) does not, so the abort happens inside the
    // partitioned code, not before it.
    let agg = agg_db();
    let join = join_db();
    let cases = [
        (
            &agg,
            "select distinct_key, sum(dec_val) from skew group by distinct_key",
            25_000u64,
        ),
        (
            &join,
            "select count(*), sum(probe.v) from probe, build where probe.k = build.k",
            20_000u64,
        ),
    ];
    for (db, sql, budget) in cases {
        for threads in THREADS {
            let row_seq = RowStore::new((*db).clone())
                .with_budget(budget)
                .with_threads(1);
            let row_par = RowStore::new((*db).clone())
                .with_budget(budget)
                .with_threads(threads);
            let col_seq = ColStore::new((*db).clone())
                .with_budget(budget)
                .with_threads(1);
            let col_par = ColStore::new((*db).clone())
                .with_budget(budget)
                .with_threads(threads);
            assert_thread_invariant(&row_seq, &row_par, threads, sql);
            assert_thread_invariant(&col_seq, &col_par, threads, sql);
        }
    }
}

/// A predicate that fails on one row deep inside the table: which error
/// a query reports must not depend on how many workers decide the scan's
/// chunks, and the order of conjuncts decides whether it is reported at
/// all — a conjunct is evaluated only if every one before it held, so a
/// cheap conjunct *after* a failing one may not mask it, while one
/// *before* it does.
#[test]
fn predicate_errors_are_thread_invariant_and_respect_conjunct_order() {
    force_parallel();
    const ROWS: usize = 6 * 4096;
    // Two traps: modulo by zero at row 17 of chunk 2, division by zero at
    // row 5 of chunk 4. Row order says the first one wins.
    let (mod_trap, div_trap) = (2 * 4096 + 17, 4 * 4096 + 5);
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "traps",
            vec![
                int_col("id", (0..ROWS).map(|i| i as i64)),
                int_col("m", (0..ROWS).map(|i| if i == mod_trap { 0 } else { 3 })),
                int_col("d", (0..ROWS).map(|i| if i == div_trap { 0 } else { 2 })),
                // 1 on the trapped rows, 0 elsewhere.
                int_col(
                    "flag",
                    (0..ROWS).map(|i| (i == mod_trap || i == div_trap) as i64),
                ),
            ],
        )
        .expect("traps table"),
    );
    let db = Arc::new(db);
    let run = |threads: usize, pred: &str| {
        RowStore::new(db.clone())
            .with_threads(threads)
            .execute(&format!("select count(*) from traps where {pred}"))
            .map(|rs| rs.to_string())
    };
    let cases: [(&str, Result<(), &str>); 5] = [
        // The earlier row's error, whatever chunk a worker reaches first.
        ("id % m >= 0 and 10 / d > 0", Err("modulo by zero")),
        ("10 / d > 0 and id % m >= 0", Err("modulo by zero")),
        ("10 / d > 0", Err("division by zero")),
        // A later conjunct that is false on the trapped rows hides nothing.
        ("10 / d > 0 and flag = 0", Err("division by zero")),
        // An earlier one keeps evaluation from ever reaching the trap.
        ("flag = 0 and 10 / d > 0 and id % m >= 0", Ok(())),
    ];
    for (pred, want) in cases {
        let seq = run(1, pred);
        match (&seq, want) {
            (Ok(_), Ok(())) => {}
            (Err(e), Err(text)) => assert!(e.to_string().contains(text), "{pred}: {e}"),
            _ => panic!("{pred} at threads=1: {seq:?}, expected {want:?}"),
        }
        for threads in THREADS {
            assert_eq!(run(threads, pred), seq, "{pred} at threads={threads}");
        }
    }
}
