//! Plan goldens for the cost-based join-order optimizer.
//!
//! The five TPC-H queries where join order matters most (Q5, Q7, Q8,
//! Q9, Q21), and Q18, whose `IN` the memo places on `orders` below its
//! three-way join, are pinned through [`RowStore::explain_adaptive`]: each
//! golden holds the *cold* plan (chosen from load-time statistics
//! alone, `est_rows` next to executed actuals) followed by the
//! *reoptimized* plan (re-planned with the observed cardinalities as
//! hints). The goldens therefore lock down three things at once — the
//! chosen join order and semi/anti join placement, the estimator's
//! numbers (all from the one model the search priced the plan with: on
//! an inner join, the estimate the search held for its leaf set, the
//! number that chose the plan), and the adaptive loop's second-pass
//! behavior. Q5, Q7 and Q8 must also come out of the cold
//! pass in the order the reoptimized pass picks, at two scales. Timings
//! are masked (`time=***`) and the scans' zone-map counters dropped
//! (storage detail, pinned by the EXPLAIN ANALYZE goldens); row counts
//! stay live because the data is reproducible (SF 0.001, seed 42). The
//! summed |log2 q-error| of the goldens is held to a budget.
//!
//! Re-bless with `SQALPEL_BLESS=1` (or `./ci.sh plan-goldens --bless`).

use sqalpel_engine::{Database, Dbms, RowStore};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
        .join("plan")
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

/// Remove ` chunks_scanned=<n> chunks_skipped=<n>` annotations.
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

/// The join-order slice: the multi-way inner-join queries, each with at
/// least four relations in one region, plus Q18, the one query whose
/// semi join moves below its region's joins.
fn slice() -> Vec<(&'static str, &'static str)> {
    let picks = ["Q5", "Q7", "Q8", "Q9", "Q18", "Q21"];
    sqalpel_sql::tpch::all_queries()
        .into_iter()
        .filter(|(name, _)| picks.contains(name))
        .collect()
}

#[test]
fn adaptive_plans_match_goldens() {
    let bless = std::env::var_os("SQALPEL_BLESS").is_some();
    let db = Arc::new(Database::tpch(0.001, 42));
    let row = RowStore::new(db).with_threads(1);
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut drifted = Vec::new();
    for (name, sql) in slice() {
        let (cold, warm) = row
            .explain_adaptive(sql)
            .unwrap_or_else(|e| panic!("{name} failed adaptive explain: {e}"));

        // Reoptimization may change the join order but never the plan
        // identity: the fingerprint is join-order-invariant.
        assert_eq!(
            cold.fingerprint, warm.fingerprint,
            "{name}: reoptimization moved the fingerprint"
        );
        assert!(
            cold.text.contains("est_rows="),
            "{name}: cold plan lacks estimates:\n{}",
            cold.text
        );

        let rendered = format!(
            "fingerprint: {}\n-- cold (stats-only estimates)\n{}-- reoptimized (actual-cardinality hints)\n{}",
            cold.fingerprint_hex(),
            strip_chunks(&mask_times(&cold.text)),
            strip_chunks(&mask_times(&warm.text)),
        );
        let path = dir.join(golden_name(name));
        if bless {
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
        if golden != rendered {
            drifted.push(format!(
                "{name}: plan golden drifted from {}\n--- golden ---\n{golden}\n--- actual ---\n{rendered}",
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
fn optimizer_reorders_the_slice() {
    // The acceptance bar: with the optimizer on, at least three of the
    // pinned queries pick a join order or placement different from the
    // syntactic one. All six currently do; three keeps the gate
    // meaningful without pinning the exact count.
    let db = Arc::new(Database::tpch(0.001, 42));
    let on = RowStore::new(db.clone()).with_threads(1);
    let off = RowStore::new(db).with_threads(1).with_optimizer(false);
    let mut reordered = 0;
    for (name, sql) in slice() {
        let a = on.explain(sql).unwrap();
        let b = off.explain(sql).unwrap();
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{name}: optimizer on/off disagree on fingerprint"
        );
        if a.text != b.text {
            reordered += 1;
        }
    }
    assert!(
        reordered >= 3,
        "optimizer changed only {reordered}/{} plans on the pinned slice",
        slice().len()
    );
}

#[test]
fn plan_goldens_cover_the_slice() {
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = slice().iter().map(|(n, _)| golden_name(n)).collect();
    expected.sort();
    assert_eq!(files, expected);
}

/// A plan's shape: its text without the estimates and actuals.
fn shape(text: &str) -> String {
    text.lines()
        .map(|line| {
            let end = [" (est_rows=", " (rows_in=", " (not executed)"]
                .iter()
                .filter_map(|mark| line.find(mark))
                .min();
            &line[..end.unwrap_or(line.len())]
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The estimator ranks these plans cold: the join order chosen from
/// load-time statistics alone is the one the feedback loop picks from
/// the observed cardinalities. Q8's `p_type` and `r_name` and Q7's
/// nation-pair OR are string equalities, priced from their columns'
/// distinct counts; Q5's `o_orderdate` window is one interval.
#[test]
fn cold_join_order_is_the_reoptimized_one() {
    for (sf, seed) in [(0.001, 42), (0.02, 15)] {
        let db = Arc::new(Database::tpch(sf, seed));
        let row = RowStore::new(db).with_threads(1);
        for name in ["Q5", "Q7", "Q8"] {
            let sql = sqalpel_sql::tpch::query(name).unwrap();
            let (cold, warm) = row.explain_adaptive(sql).unwrap();
            assert_eq!(
                shape(&cold.text),
                shape(&warm.text),
                "{name} at SF {sf}, seed {seed}: the cold plan is not the reoptimized one\n{}\n{}",
                cold.text,
                warm.text
            );
        }
    }
}

/// Feedback is keyed by binding set, and a set names one subplan only
/// within a block: an unnested `IN` body that scans the table its
/// enclosing block scans, unaliased, shares `{lineitem}` with the outer
/// leaf and with the semi join above both. No count may be handed from
/// one to the other — the set gets no hint and the reoptimized plan keeps
/// its statistics-based estimates. With aliases the sets differ and the
/// semi join's estimate converges on what it emitted.
#[test]
fn colliding_binding_sets_get_no_feedback() {
    let db = Arc::new(Database::tpch(0.001, 42));
    let row = RowStore::new(db).with_threads(1);
    let estimates = |text: &str| -> Vec<String> {
        text.match_indices("est_rows=")
            .map(|(at, _)| text[at..].chars().take_while(|c| *c != ')').collect())
            .collect()
    };
    let (cold, warm) = row
        .explain_adaptive(
            "select count(*) from lineitem where l_quantity < 3 and l_orderkey in \
             (select l_orderkey from lineitem where l_quantity > 45)",
        )
        .unwrap();
    assert!(cold.text.contains("join semi"), "{}", cold.text);
    assert_eq!(estimates(&cold.text), estimates(&warm.text), "{}", warm.text);

    let (cold, warm) = row
        .explain_adaptive(
            "select count(*) from lineitem l1 where l1.l_quantity < 3 and l1.l_orderkey in \
             (select l2.l_orderkey from lineitem l2 where l2.l_quantity > 45)",
        )
        .unwrap();
    assert!(!cold.text.contains("join semi on #0 = #0 (est_rows=64)"), "{}", cold.text);
    assert!(warm.text.contains("join semi on #0 = #0 (est_rows=64)"), "{}", warm.text);
    assert!(warm.text.contains("filter (#1 > 45) (est_rows=606)"), "{}", warm.text);
}

/// A join's `est_rows` is the search's estimate for its leaf set, read
/// from the plan the join heads, so two joins of one block over the same
/// binding set keep their own numbers: the unaliased `IN` body joins
/// `nation, region` as its enclosing block does, and either spelling
/// shows 25 nations for the outer join and the 5 of one region for the
/// body.
#[test]
fn colliding_binding_sets_keep_their_own_estimates() {
    let db = Arc::new(Database::tpch(0.001, 42));
    let row = RowStore::new(db).with_threads(1);
    let join_estimates = |sql: &str| -> Vec<String> {
        let (cold, _) = row.explain_adaptive(sql).unwrap();
        cold.text
            .lines()
            .filter(|l| l.trim_start().starts_with("join inner"))
            .filter_map(|l| l.split(" (").find(|part| part.starts_with("est_rows=")))
            .map(str::to_string)
            .collect()
    };
    let unaliased = join_estimates(
        "select count(*) from nation, region where n_regionkey = r_regionkey and n_nationkey in \
         (select n_nationkey from nation, region where n_regionkey = r_regionkey and r_name = 'ASIA')",
    );
    assert_eq!(unaliased, ["est_rows=25)", "est_rows=5)"]);
    let aliased = join_estimates(
        "select count(*) from nation n1, region r1 where n1.n_regionkey = r1.r_regionkey \
         and n1.n_nationkey in (select n2.n_nationkey from nation n2, region r2 \
         where n2.n_regionkey = r2.r_regionkey and r2.r_name = 'ASIA')",
    );
    assert_eq!(aliased, ["est_rows=25)", "est_rows=5)"]);
}

/// The summed |log2 q-error| of the goldens may not exceed this, pinned
/// just above what the estimator spends today (197.53): a change that
/// spends more fails here, one that spends less lowers it.
const QERROR_BUDGET: f64 = 197.6;

/// |log2 q| of one annotated operator, `q` being `est_rows` over
/// `rows_out`, each floored at one row; `None` for a line without both.
fn log2_qerror(line: &str) -> Option<f64> {
    let number = |mark: &str| -> Option<f64> {
        let rest = &line[line.find(mark)? + mark.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let (est, out) = (number("(est_rows=")?, number(" rows_out=")?);
    Some((est.max(1.0) / out.max(1.0)).log2().abs())
}

/// The estimator's error over every annotated operator of the goldens,
/// cold and reoptimized: printed per golden, held to [`QERROR_BUDGET`].
#[test]
fn estimate_error_stays_within_budget() {
    let mut total = 0.0;
    for (name, _) in slice() {
        let path = golden_dir().join(golden_name(name));
        let golden = std::fs::read_to_string(&path).unwrap();
        let sum: f64 = golden.lines().filter_map(log2_qerror).sum();
        println!("{}: summed |log2 q-error| {sum:.2}", golden_name(name));
        total += sum;
    }
    println!("plan goldens: summed |log2 q-error| {total:.2} (budget {QERROR_BUDGET})");
    assert!(
        total <= QERROR_BUDGET,
        "summed |log2 q-error| {total:.2} exceeds the budget {QERROR_BUDGET}"
    );
}
