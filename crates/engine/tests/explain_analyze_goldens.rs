//! EXPLAIN ANALYZE golden files for a representative query slice.
//!
//! Four TPC-H queries spanning the plan shapes (Q1 scan+agg, Q3 3-way
//! join, Q6 selective filter, Q18 CTE) plus one SSB star join are pinned
//! with their profiled annotations in `tests/goldens/explain_analyze/`.
//! Timings are inherently nondeterministic, so `time=<n>ns` is masked to
//! `time=***` before comparison — rows_in/rows_out/batches stay live, so
//! any cardinality drift trips the golden. Re-bless with
//! `SQALPEL_BLESS=1` (or `./ci.sh explain-goldens --bless`).
//!
//! At one worker both engines must render byte-identical masked output
//! once the scans' zone-map counters are set aside (the row engine counts
//! chunks on every base-table scan, the column engine only where a
//! filter was fused into one), ANALYZE must not move the plan
//! fingerprint, and the plain EXPLAIN goldens must be untouched by the
//! annotation machinery.

use sqalpel_engine::{ColStore, Database, Dbms, RowStore};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("explain_analyze")
}

fn plain_golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("explain")
}

fn golden_name(query: &str) -> String {
    format!("{}.txt", query.to_lowercase().replace(['.', '-'], "_"))
}

/// Replace every `time=<digits>ns` with `time=***`.
fn mask_times(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("time=") {
        let after = pos + "time=".len();
        out.push_str(&rest[..after]);
        rest = &rest[after..];
        let digits = rest.chars().take_while(char::is_ascii_digit).count();
        if digits > 0 && rest[digits..].starts_with("ns") {
            out.push_str("***");
            rest = &rest[digits + 2..];
        }
    }
    out.push_str(rest);
    out
}

/// Remove ` chunks_scanned=<n> chunks_skipped=<n>` annotations — the
/// zone-map counters, which the two engines keep on different scans.
/// Everything else must match byte-for-byte.
fn strip_chunks(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find(" chunks_scanned=") {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let end = rest.find(')').unwrap_or(rest.len());
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// The pinned slice: every distinct plan shape, not the whole flight.
fn slice() -> Vec<(&'static str, &'static str)> {
    let picks = ["Q1", "Q3", "Q6", "Q18", "SSB-Q1.1"];
    sqalpel_sql::tpch::all_queries()
        .into_iter()
        .chain(sqalpel_sql::ssb::all_queries())
        .filter(|(name, _)| picks.contains(name))
        .collect()
}

fn check(db: Arc<Database>, queries: &[(&str, &str)]) {
    let bless = std::env::var_os("SQALPEL_BLESS").is_some();
    let row = RowStore::new(db.clone()).with_threads(1);
    let col = ColStore::new(db).with_threads(1);
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut drifted = Vec::new();
    for (name, sql) in queries {
        let (_, a) = row
            .execute_analyzed(sql)
            .unwrap_or_else(|e| panic!("{name} failed to analyze on rowstore: {e}"));
        let (_, b) = col
            .execute_analyzed(sql)
            .unwrap_or_else(|e| panic!("{name} failed to analyze on colstore: {e}"));
        let masked = mask_times(&a.explain.text);
        assert_eq!(
            strip_chunks(&masked),
            strip_chunks(&mask_times(&b.explain.text)),
            "{name}: engines disagree on masked EXPLAIN ANALYZE text"
        );

        // ANALYZE annotates the rendering but never the plan identity.
        let plain = row.explain(sql).unwrap();
        assert_eq!(
            a.explain.fingerprint, plain.fingerprint,
            "{name}: ANALYZE moved the fingerprint"
        );
        let plain_golden = std::fs::read_to_string(plain_golden_dir().join(golden_name(name)))
            .unwrap_or_else(|e| panic!("{name}: missing plain golden: {e}"));
        assert_eq!(
            plain_golden,
            format!("fingerprint: {}\n{}", plain.fingerprint_hex(), plain.text),
            "{name}: plain EXPLAIN golden drifted — annotations leaked?"
        );

        let rendered = format!("fingerprint: {}\n{}", a.explain.fingerprint_hex(), masked);
        let path = dir.join(golden_name(name));
        if bless {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
        if golden != rendered {
            drifted.push(format!(
                "{name}: EXPLAIN ANALYZE drifted from {}\n--- golden ---\n{golden}\n--- actual ---\n{rendered}",
                path.display()
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "{} golden(s) drifted; re-bless with SQALPEL_BLESS=1 if intended\n\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn analyze_slice_matches_goldens() {
    // Fixed scale and seed: the annotated row counts are part of the
    // golden, so the data must be reproducible, not just the schema.
    let tpch = Arc::new(Database::tpch(0.001, 42));
    let ssb = Arc::new(Database::ssb(0.001, 42));
    let (t, s): (Vec<_>, Vec<_>) = slice()
        .into_iter()
        .partition(|(name, _)| !name.starts_with("SSB"));
    check(tpch, &t);
    check(ssb, &s);
}

#[test]
fn analyze_reports_zone_skipping() {
    // Q6's date window covers one year of seven: with shipdate roughly
    // clustered by orderdate, most lineitem chunks prune, and the scan
    // node must say so.
    let db = Arc::new(Database::tpch(0.05, 42));
    let col = ColStore::new(db.clone()).with_threads(1);
    let (_, plan) = col.execute_analyzed(sqalpel_sql::tpch::Q6).unwrap();
    let scan = plan
        .ops
        .iter()
        .find(|o| o.op.starts_with("scan"))
        .expect("Q6 has a scan operator");
    assert!(
        scan.metrics.chunks_skipped > 0,
        "zone maps skipped nothing on Q6: {:?}",
        scan.metrics
    );
    assert!(
        plan.explain.text.contains("chunks_skipped="),
        "ANALYZE text lacks chunk counters:\n{}",
        plan.explain.text
    );
    // The row engine's scan front end tests the same zone maps against
    // the same bounds, so it skips the same chunks.
    let row = RowStore::new(db).with_threads(1);
    let (_, rplan) = row.execute_analyzed(sqalpel_sql::tpch::Q6).unwrap();
    let rscan = rplan
        .ops
        .iter()
        .find(|o| o.op.starts_with("scan"))
        .expect("Q6 has a scan operator");
    assert_eq!(
        (rscan.metrics.chunks_scanned, rscan.metrics.chunks_skipped),
        (scan.metrics.chunks_scanned, scan.metrics.chunks_skipped),
    );
}

#[test]
fn analyze_goldens_cover_the_slice() {
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = slice().iter().map(|(n, _)| golden_name(n)).collect();
    expected.sort();
    assert_eq!(files, expected);
}
