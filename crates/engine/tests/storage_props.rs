//! Property tests for the compressed storage layer.
//!
//! Dictionary and frame-of-reference encodings must be lossless, and a
//! zone map may only skip a chunk when no row in the *unencoded* data
//! could satisfy the predicate — a false skip silently drops rows, which
//! no differential wall would catch if both engines shared the bug.

use proptest::prelude::*;
use sqalpel_engine::storage::{
    date_col, dec_col, dict_encode, int_col, str_col, ColumnData, ForVec, Table, CHUNK_ROWS,
};
use sqalpel_engine::value::{Day, Value};
use sqalpel_engine::{ColStore, Database, Dbms, RowStore};
use std::sync::Arc;

/// Deterministic splitmix-style expansion of a proptest-drawn seed, the
/// same idiom the profiler property tests use for structured inputs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Strings drawn from a small random pool so dictionary encoding engages;
/// the pool itself is arbitrary, so dictionaries see unsorted, duplicated,
/// and empty-string inputs. Spans multiple chunks.
fn low_ndv_strings(seed: u64, len: usize) -> Vec<String> {
    let mut g = Gen(seed | 1);
    let pool_size = 1 + g.below(24) as usize;
    let alphabet = [
        "", "a", "b", "z", "aa", "ab", "ship", "mail", "rail", "air", "truck", "Ä", "名",
    ];
    let pool: Vec<String> = (0..pool_size)
        .map(|_| {
            let n = g.below(4);
            (0..n)
                .map(|_| alphabet[g.below(alphabet.len() as u64) as usize])
                .collect::<Vec<_>>()
                .join("-")
        })
        .collect();
    (0..len)
        .map(|_| pool[g.below(pool.len() as u64) as usize].clone())
        .collect()
}

/// Integer vectors spanning several chunks, mixing narrow clusters (where
/// bit-packing engages) with full-range outliers (where it must not lose
/// bits).
fn mixed_ints(seed: u64, len: usize) -> Vec<i64> {
    let mut g = Gen(seed | 1);
    (0..len)
        .map(|_| {
            if g.below(10) == 0 {
                g.next() as i64 ^ (g.next() as i64) << 32
            } else {
                g.below(10_000) as i64
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// dict_encode is lossless: `dict[codes[i]] == values[i]`, and the
    /// dictionary is strictly sorted so code order is string order.
    #[test]
    fn dict_encode_round_trips(seed in any::<u64>(), len in 1usize..6000) {
        let values = low_ndv_strings(seed, len);
        let (codes, dict) = dict_encode(&values).expect("low-NDV input must encode");
        prop_assert_eq!(codes.len(), values.len());
        prop_assert!(dict.windows(2).all(|w| w[0] < w[1]), "dict must be strictly sorted");
        for (code, value) in codes.iter().zip(&values) {
            prop_assert_eq!(&dict[*code as usize], value);
        }
    }

    /// Frame-of-reference bit-packing is lossless for any i64 input,
    /// including full-range outliers, via both `get` and `decode`.
    #[test]
    fn for_encode_round_trips(seed in any::<u64>(), len in 0usize..10_000) {
        let values = mixed_ints(seed, len);
        let packed = ForVec::encode(&values);
        prop_assert_eq!(packed.len(), values.len());
        prop_assert_eq!(&packed.decode(), &values);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(packed.get(i), v);
        }
    }

    /// Optimizer statistics are encoding-blind: a bit-packed column and
    /// its raw twin collect identical min/max/NDV, so the join-order
    /// search sees the same numbers regardless of storage layout.
    #[test]
    fn for_encoding_does_not_change_stats(seed in any::<u64>(), len in 0usize..10_000) {
        let values = mixed_ints(seed, len);
        let raw = sqalpel_engine::ir::stats::collect(&ColumnData::Int(values.clone()));
        let packed = sqalpel_engine::ir::stats::collect(&ColumnData::ForInt(ForVec::encode(&values)));
        prop_assert_eq!(raw, packed);
    }

    /// Same for dictionary encoding: the sketch hashes strings, not
    /// codes, so the NDV estimate survives the encoding exactly.
    #[test]
    fn dict_encoding_does_not_change_stats(seed in any::<u64>(), len in 1usize..6000) {
        let values = low_ndv_strings(seed, len);
        let raw = sqalpel_engine::ir::stats::collect(&ColumnData::Str(values.clone()));
        let (codes, dict) = dict_encode(&values).expect("low-NDV input must encode");
        let encoded = sqalpel_engine::ir::stats::collect(&ColumnData::Dict { codes, dict });
        prop_assert_eq!(raw, encoded);
    }

    /// ForVec chunk bounds are exact: each chunk's (min, max) equals the
    /// true min/max of the raw values in that chunk.
    #[test]
    fn for_chunk_bounds_are_exact(seed in any::<u64>(), len in 1usize..10_000) {
        let values = mixed_ints(seed, len);
        let packed = ForVec::encode(&values);
        let bounds: Vec<(i64, i64)> = packed.chunk_bounds().collect();
        let raw: Vec<&[i64]> = values.chunks(CHUNK_ROWS).collect();
        prop_assert_eq!(bounds.len(), raw.len());
        for (b, chunk) in bounds.iter().zip(&raw) {
            prop_assert_eq!(b.0, chunk.iter().copied().min().unwrap());
            prop_assert_eq!(b.1, chunk.iter().copied().max().unwrap());
        }
    }

    /// Zone-map soundness for numeric scans: when `overlaps` says a chunk
    /// can be skipped for `v ∈ [lo, hi]`, no row of the unencoded input in
    /// that chunk satisfies the predicate — whichever physical encoding
    /// the loader picked.
    #[test]
    fn zone_skip_never_drops_qualifying_rows(
        seed in any::<u64>(),
        len in 1usize..10_000,
        lo in any::<i64>(),
        span in 0i64..1_000_000,
    ) {
        let values = mixed_ints(seed, len);
        let hi = lo.saturating_add(span);
        let table = Table::new(
            "t",
            vec![
                int_col("v", values.iter().copied()),
                date_col("d", values.iter().map(|&v| (v as i32).unsigned_abs().min(1 << 20) as Day)),
            ],
        )
        .unwrap();
        let zm = table.zone_map(0).expect("int columns always have zone maps");
        for (chunk, raw) in values.chunks(CHUNK_ROWS).enumerate() {
            if !zm.overlaps(chunk, lo, hi) {
                prop_assert!(
                    raw.iter().all(|&v| v < lo || v > hi),
                    "chunk {} skipped but contains a qualifying row", chunk
                );
            }
        }
        let dzm = table.zone_map(1).expect("date columns always have zone maps");
        for (chunk, raw) in values.chunks(CHUNK_ROWS).enumerate() {
            if !dzm.overlaps(chunk, lo, hi) {
                prop_assert!(
                    raw.iter()
                        .map(|&v| (v as i32).unsigned_abs().min(1 << 20) as i64)
                        .all(|v| v < lo || v > hi),
                    "date chunk {} skipped but contains a qualifying row", chunk
                );
            }
        }
    }

    /// Zone-map completeness for dictionary columns: a chunk that contains
    /// string `s` always overlaps the code-domain point predicate for `s`,
    /// so an equality scan can never skip a chunk holding a match.
    #[test]
    fn dict_zone_map_covers_every_present_string(seed in any::<u64>(), len in 1usize..6000) {
        let values = low_ndv_strings(seed, len);
        let table = Table::new("t", vec![str_col("s", values.iter().cloned())]).unwrap();
        let ColumnData::Dict { dict, .. } = &table.columns[0].data else {
            panic!("low-NDV strings must dictionary-encode");
        };
        let zm = table.zone_map(0).expect("dict columns have code-domain zone maps");
        for (chunk, raw) in values.chunks(CHUNK_ROWS).enumerate() {
            for s in raw {
                let code = dict.binary_search(s).expect("dict covers values") as i64;
                prop_assert!(
                    zm.overlaps(chunk, code, code),
                    "chunk {} holds {:?} but its zone map excludes code {}", chunk, s, code
                );
            }
        }
    }
}

/// The scan's `(chunks_scanned, chunks_skipped)` of an analyzed query.
fn scan_chunks(plan: &sqalpel_engine::AnalyzedPlan) -> (u64, u64) {
    let scan = plan
        .ops
        .iter()
        .find(|o| o.op.starts_with("scan"))
        .expect("a scan operator");
    (scan.metrics.chunks_scanned, scan.metrics.chunks_skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both engines' scans end to end: zone tests, typed conjuncts (the
    /// row engine's) or vector kernels (the column engine's) and the
    /// generic stage together count exactly the rows of the *unencoded*
    /// input that satisfy the predicate, at one worker and at several —
    /// a false skip or a wrong verdict on a stored value would drop or
    /// invent rows. Clustered input, so chunks do get skipped.
    #[test]
    fn scan_is_sound_against_raw_data(
        seed in any::<u64>(),
        len in 1usize..30_000,
        lo in -100i64..12_000,
        span in 0i64..3_000,
    ) {
        std::env::set_var("SQALPEL_FORCE_WORKERS", "4");
        let mut values = mixed_ints(seed, len);
        // Keep sums in range and cluster: sorted input gives every chunk
        // a narrow band.
        for v in &mut values {
            *v %= 10_000;
        }
        values.sort_unstable();
        let tags = low_ndv_strings(seed, len);
        let hi = lo + span;
        let mut db = Database::new();
        db.add_table(
            Table::new(
                "t",
                vec![
                    int_col("v", values.iter().copied()),
                    str_col("tag", tags.iter().cloned()),
                ],
            )
            .unwrap(),
        );
        let db = Arc::new(db);
        // (The SQL lexer reads string literals bytewise, so the probe
        // stays ASCII.)
        let probe = tags.iter().find(|t| t.is_ascii()).cloned().unwrap_or_default();
        // Typed prefix only; typed prefix then a generic conjunct.
        let typed = format!("select count(*) from t where v >= {lo} and v <= {hi}");
        let mixed = format!(
            "select count(*) from t where v between {lo} and {hi} and tag = '{probe}' and v + 0 <= {hi}"
        );
        let want_typed = values.iter().filter(|&&v| v >= lo && v <= hi).count() as i64;
        let want_mixed = values
            .iter()
            .zip(&tags)
            .filter(|(&v, t)| v >= lo && v <= hi && **t == probe)
            .count() as i64;
        for threads in [1usize, 4] {
            let row = RowStore::new(db.clone()).with_threads(threads);
            let col = ColStore::new(db.clone()).with_threads(threads);
            for (sql, want) in [(&typed, want_typed), (&mixed, want_mixed)] {
                for (rs, plan) in [row.execute_analyzed(sql).unwrap(), col.execute_analyzed(sql).unwrap()] {
                    prop_assert!(
                        matches!(rs.rows[0][0], Value::Int(n) if n == want),
                        "{} at threads={}: got {:?}, want {}", sql, threads, rs.rows[0][0], want
                    );
                    let (scanned, skipped) = scan_chunks(&plan);
                    prop_assert_eq!((scanned + skipped) as usize, len.div_ceil(CHUNK_ROWS));
                }
            }
        }
    }
}

/// `col op k` means one thing whichever path decides it. Over an integer
/// and a decimal column holding values around ±2⁵³ (±2⁵³·100 raw), where
/// `f64` no longer tells neighbours apart, every comparison, `IN` list and
/// `BETWEEN` against integer, decimal and float constants counts the same
/// rows through the base-table scan (zone tests, typed predicates,
/// dictionary and vector kernels), through `(select … limit n)`, where no
/// scan shortcut applies, and as the rows whose projected comparison is
/// true — on both engines, at 1 and 4 workers. An integer and a decimal
/// compare exactly; a float compares as `f64`. One row is the decimal
/// 9007199254740992.01, which equals the integer 9007199254740992 as
/// `f64` but not exactly.
#[test]
fn a_comparison_counts_the_same_rows_on_every_path() {
    std::env::set_var("SQALPEL_FORCE_WORKERS", "4");
    const TWO_53: i64 = 1 << 53;
    // Three chunks, one band each: below -2⁵³, around 0, around 2⁵³.
    let mut ks = Vec::new();
    let mut raws = Vec::new();
    for base in [-TWO_53, 0, TWO_53] {
        for j in -20i64..20 {
            ks.push(base + j);
            raws.push(base * 100 + j);
        }
        let fill = ks.len().next_multiple_of(CHUNK_ROWS) - 16;
        ks.resize(fill, base);
        raws.resize(fill, base * 100);
    }
    // And the ends of `i64`.
    ks.extend([i64::MIN, i64::MAX]);
    raws.extend([i64::MIN, i64::MAX]);
    ks.sort_unstable();
    raws.sort_unstable();
    assert!(raws.contains(&(TWO_53 * 100 + 1)), "the probe row");
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "t",
            vec![int_col("k", ks.iter().copied()), dec_col("d", raws.iter().copied(), 2)],
        )
        .unwrap(),
    );
    let db = Arc::new(db);
    let constants = [
        // Integers.
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "0",
        // Decimals: at the column's scale, past it, near zero, and past
        // every stored value.
        "9007199254740992.01",
        "9007199254740992.005",
        "-9007199254740992.19",
        "0.5",
        "0.00000000000000000000000000000000000001",
        "-1e38",
        // Floats (division is always a float; so is a literal past
        // `i128`).
        "9007199254740993 / 1",
        "-9007199254740992.19 / 1",
        "1e39",
    ];
    let mut preds = Vec::new();
    for col in ["k", "d"] {
        for k in constants {
            for op in ["=", "<>", "<", "<=", ">", ">="] {
                preds.push(format!("{col} {op} {k}"));
            }
            preds.push(format!("{col} in ({k}, 1)"));
        }
        for (lo, hi) in [(2, 5), (4, 10), (10, 0), (6, 4), (3, 1), (9, 8), (11, 12)] {
            preds.push(format!("{col} between {} and {}", constants[lo], constants[hi]));
        }
    }
    let count = |rs: &sqalpel_engine::ResultSet| match rs.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("count(*) gave {v:?}"),
    };
    for threads in [1usize, 4] {
        let engines: [Box<dyn Dbms>; 2] = [
            Box::new(RowStore::new(db.clone()).with_threads(threads)),
            Box::new(ColStore::new(db.clone()).with_threads(threads)),
        ];
        for dbms in &engines {
            for pred in &preds {
                let run = |sql: String| {
                    dbms.execute(&sql)
                        .unwrap_or_else(|e| panic!("{sql} on {}: {e}", dbms.label()))
                };
                let scanned = count(&run(format!("select count(*) from t where {pred}")));
                let derived = count(&run(format!(
                    "select count(*) from (select k, d from t limit {}) s where {pred}",
                    ks.len()
                )));
                let projected = run(format!("select {pred} from t"))
                    .rows
                    .iter()
                    .filter(|r| matches!(r[0], Value::Bool(true)))
                    .count() as i64;
                assert_eq!(
                    (scanned, derived),
                    (projected, projected),
                    "{pred} on {} at {threads} workers: scan, derived table, projection",
                    dbms.label()
                );
            }
        }
    }
}

/// A bound spelled `date ± interval` prunes exactly the chunks its
/// folded literal prunes, in both engines, and both engines agree on
/// which: the bounds come from the prepared conjunct, not from the plan
/// text.
#[test]
fn date_interval_bounds_prune_like_literals() {
    // Ten years of days in order: every chunk is a narrow date band.
    let days: Vec<Day> = (0..40_000).map(|i| 8_000 + (i / 11) as Day).collect();
    let mut db = Database::new();
    db.add_table(Table::new("t", vec![date_col("d", days.iter().copied())]).unwrap());
    let db = Arc::new(db);
    let row = RowStore::new(db.clone()).with_threads(1);
    let col = ColStore::new(db).with_threads(1);
    let pairs = [
        (
            "d >= date '1994-01-01' and d < date '1994-01-01' + interval '1' year",
            "d >= date '1994-01-01' and d < date '1995-01-01'",
        ),
        (
            "d <= date '1998-12-01' - interval '90' day",
            "d <= date '1998-09-02'",
        ),
        (
            "d between date '1995-06-01' - interval '1' month and date '1995-06-01' + interval '1' month",
            "d between date '1995-05-01' and date '1995-07-01'",
        ),
    ];
    for (computed, literal) in pairs {
        let run = |pred: &str| {
            let sql = format!("select count(*) from t where {pred}");
            let (rrs, rplan) = row.execute_analyzed(&sql).unwrap();
            let (crs, cplan) = col.execute_analyzed(&sql).unwrap();
            assert!(rrs.approx_eq(&crs, 0.0), "{sql}: engines disagree");
            assert_eq!(scan_chunks(&rplan), scan_chunks(&cplan), "{sql}");
            (format!("{:?}", rrs.rows), scan_chunks(&rplan))
        };
        let (rows_c, chunks_c) = run(computed);
        let (rows_l, chunks_l) = run(literal);
        assert_eq!(rows_c, rows_l, "{computed} vs {literal}");
        assert_eq!(chunks_c, chunks_l, "{computed} vs {literal}");
        assert!(chunks_c.1 > 0, "{computed}: nothing skipped on clustered dates");
    }
}

/// Above DICT_MAX_NDV distinct values the encoder must decline rather
/// than build an unprofitable dictionary.
#[test]
fn dict_encode_rejects_high_ndv() {
    let values: Vec<String> = (0..2000).map(|i| format!("val-{i:04}")).collect();
    assert!(dict_encode(&values).is_none());
}
