//! EXPLAIN golden files for the full TPC-H and SSB flights.
//!
//! Every query's rendered plan (and its canonical fingerprint) is pinned
//! in `tests/goldens/explain/`. The rewriter is deterministic, so any
//! drift in the goldens means a rule changed plan shapes — which must be
//! a conscious decision, re-blessed with `SQALPEL_BLESS=1` (or
//! `./ci.sh explain-goldens --bless`).
//!
//! Both engines share the binder and rewriter, so the suite also asserts
//! RowStore and ColStore produce byte-identical EXPLAIN output, and that
//! executing each query on either engine reports the pinned fingerprint.

use sqalpel_engine::{ColStore, Database, Dbms, RowStore};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("explain")
}

fn golden_name(query: &str) -> String {
    format!(
        "{}.txt",
        query.to_lowercase().replace(['.', '-'], "_")
    )
}

fn check_flight(db: Arc<Database>, queries: &[(&str, &str)]) {
    let bless = std::env::var_os("SQALPEL_BLESS").is_some();
    let row = RowStore::new(db.clone());
    let col = ColStore::new(db);
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut drifted = Vec::new();
    for (name, sql) in queries {
        let a = row
            .explain(sql)
            .unwrap_or_else(|e| panic!("{name} failed to explain on rowstore: {e}"));
        let b = col
            .explain(sql)
            .unwrap_or_else(|e| panic!("{name} failed to explain on colstore: {e}"));
        assert_eq!(
            a.text, b.text,
            "{name}: engines disagree on EXPLAIN text"
        );
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{name}: engines disagree on fingerprint"
        );
        // Executing binds the way EXPLAIN does: it runs under the pinned
        // fingerprint.
        for (label, executed) in [
            ("rowstore", row.execute_by_fingerprint(sql, None)),
            ("colstore", col.execute_by_fingerprint(sql, None)),
        ] {
            let executed =
                executed.unwrap_or_else(|e| panic!("{name} failed to execute on {label}: {e}"));
            assert_eq!(
                executed.fingerprint, a.fingerprint,
                "{name}: {label} executes under another fingerprint than EXPLAIN's"
            );
        }
        let rendered = format!("fingerprint: {}\n{}", a.fingerprint_hex(), a.text);
        let path = dir.join(golden_name(name));
        if bless {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
        if golden != rendered {
            drifted.push(format!(
                "{name}: EXPLAIN drifted from {}\n--- golden ---\n{golden}\n--- actual ---\n{rendered}",
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
fn tpch_explain_matches_goldens() {
    // Fixed tiny scale and seed: the join-order optimizer consults
    // load-time statistics, so the goldens depend on reproducible data,
    // not just the schema.
    let db = Arc::new(Database::tpch(0.001, 42));
    check_flight(db, &sqalpel_sql::tpch::all_queries());
}

#[test]
fn ssb_explain_matches_goldens() {
    let db = Arc::new(Database::ssb(0.001, 42));
    check_flight(db, &sqalpel_sql::ssb::all_queries());
}

/// The ratchet behind the unnesting pass: no TPC-H query evaluates a
/// subquery per outer row any more. The subqueries still in place are the
/// uncorrelated scalars of Q11, Q15 and Q22, each evaluated once and
/// cached — listed here so a new one is a conscious decision.
#[test]
fn no_tpch_plan_runs_a_subquery_per_row() {
    let row = RowStore::new(Arc::new(Database::tpch(0.001, 42)));
    let mut in_place = Vec::new();
    for (name, sql) in sqalpel_sql::tpch::all_queries() {
        let text = row.explain(sql).unwrap().text;
        for line in text.lines().map(str::trim_start) {
            let Some(note) = line.strip_prefix("subquery ") else {
                continue;
            };
            assert!(
                !note.starts_with("per-row"),
                "{name} evaluates a subquery per outer row:\n{text}"
            );
            let how = note.split(" -- ").next().unwrap_or(note);
            in_place.push(format!("{name} {how}"));
        }
        // Nothing opaque may hide without a note either.
        let opaque = text.matches("(SELECT ").count();
        let noted = text.lines().filter(|l| l.trim_start().starts_with("subquery ")).count();
        assert_eq!(opaque, noted, "{name}: a subquery without a note:\n{text}");
    }
    assert_eq!(
        in_place,
        [
            "Q11 cached: uncorrelated scalar (in HAVING)",
            "Q15 cached: uncorrelated scalar",
            "Q22 cached: uncorrelated scalar",
        ]
    );
}

#[test]
fn goldens_cover_the_whole_flight() {
    // 22 TPC-H + 8 SSB golden files, no strays.
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = sqalpel_sql::tpch::all_queries()
        .iter()
        .chain(sqalpel_sql::ssb::all_queries().iter())
        .map(|(name, _)| golden_name(name))
        .collect();
    expected.sort();
    assert_eq!(files, expected);
}
