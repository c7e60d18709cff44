//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `fig*`/`table*` function computes one artifact and returns it as a
//! printable report; the `repro` binary is a thin dispatcher over them.
//! Scale factors are sized for a laptop run and can be raised with the
//! `SQALPEL_SF` environment variable (the base scale; Figure 3 uses
//! `10 × SQALPEL_SF` for its larger instance).

pub mod ablations;

use sqalpel_core::analytics::{self, SpeedupReport};
use sqalpel_core::{
    reports, results, ContributorKey, DriverConfig, EngineConnector, ExperimentDriver,
    ExperimentId, PoolEntry, ProjectId, QueryPool, ResultRecord, TaskId,
};
use sqalpel_engine::{ColStore, Database, Dbms, RowStore};
use sqalpel_grammar::Grammar;
use std::fmt::Write as _;
use std::sync::Arc;

/// The base scale factor for engine-backed experiments.
pub fn base_sf() -> f64 {
    std::env::var("SQALPEL_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.02)
}

/// Repetitions per query (the paper's driver default is 5; 3 keeps the
/// full reproduction under a few minutes).
pub fn repetitions() -> usize {
    std::env::var("SQALPEL_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Build the Q1 query pool: baseline + random seeds + a morphing walk.
pub fn q1_pool(n_random: usize, n_morph: usize, seed: u64) -> QueryPool {
    let grammar = sqalpel_grammar::convert_sql(sqalpel_sql::tpch::Q1).expect("Q1 converts");
    let mut pool = QueryPool::new(grammar, 10_000, 10_000).expect("valid grammar");
    pool.walk(|d| d.seed_baseline()).expect("baseline");
    let mut rng = sqalpel_grammar::seeded_rng(seed);
    pool.walk(|d| d.add_random(n_random, &mut rng)).expect("random seeds");
    for _ in 0..n_morph {
        let _ = pool.walk(|d| d.morph_auto(&mut rng)).expect("morph");
    }
    pool
}

/// Run each query through an [`ExperimentDriver`] on `dbms` — `reps`
/// timed repetitions, the loads around them and the profiled run, as for
/// any contributor — and file every outcome as a result record under the
/// system's label and host `bench-server`.
fn run_queries<'a>(
    dbms: Arc<dyn Dbms>,
    reps: usize,
    queries: impl IntoIterator<Item = &'a PoolEntry>,
) -> Vec<ResultRecord> {
    let config = DriverConfig {
        dbms_label: dbms.label(),
        host: "bench-server".into(),
        repetitions: reps,
    };
    let driver = ExperimentDriver::new(EngineConnector::new(dbms), config);
    let config = driver.config();
    let contributor = ContributorKey("ck_repro".into());
    queries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            results::record(
                TaskId(i as u64),
                ProjectId(1),
                ExperimentId(0),
                entry.id,
                &config.dbms_label,
                &config.host,
                &contributor,
                driver.run(&entry.sql),
            )
        })
        .collect()
}

/// How many of `records` errored.
fn errors(records: &[ResultRecord]) -> usize {
    records.iter().filter(|r| r.error.is_some()).count()
}

// ----------------------------------------------------------------- tables

/// Table 1: TPC benchmark adoption (literature data quoted by the paper).
pub fn table1() -> String {
    let mut out = String::from("## Table 1 — TPC benchmarks (tpc.org snapshot quoted by the paper)\n\n");
    out.push_str(&reports::tpc_table());
    out
}

/// Table 2: TPC-H query spaces from the automatic SQL→grammar conversion.
pub fn table2() -> String {
    let mut out = String::from(
        "## Table 2 — TPC-H query space (tags, templates, space per converted grammar)\n\n\
         query  tags  templates      space\n",
    );
    for (name, sql) in sqalpel_sql::tpch::all_queries() {
        let g = sqalpel_grammar::convert_sql(sql).expect("tpch converts");
        match g.space_report(sqalpel_grammar::DEFAULT_TEMPLATE_CAP) {
            Ok(r) => {
                let templates = if r.truncated {
                    format!(">{}", r.templates)
                } else {
                    r.templates.to_string()
                };
                let space = if r.truncated {
                    format!(">{}", r.space)
                } else {
                    r.space.to_string()
                };
                let _ = writeln!(out, "{name:<6} {:>4}  {templates:>9}  {space:>9}", r.tags);
            }
            Err(e) => {
                let _ = writeln!(out, "{name:<6} enumeration failed: {e}");
            }
        }
    }
    out
}

// ---------------------------------------------------------------- figures

/// Figure 1: the sample grammar, parsed, validated and measured.
pub fn fig1() -> String {
    let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).expect("figure 1 grammar");
    let report = g.space_report(1000).expect("space");
    let mut out = String::from("## Figure 1 — sample sqalpel grammar\n\n");
    out.push_str(&g.to_string());
    let _ = writeln!(out, "\nvalidation: {}", g.check());
    let _ = writeln!(out, "space: {report}");
    out
}

/// Figure 2: dominant lexical components of TPC-H Q1 on the column store.
///
/// The paper's anecdote: "the dominant term in Q1 for MonetDB is
/// sum(l_extendedprice*(1-l_discount)*(1+l_tax)) as sum_charge … The
/// underlying reason stems from the way MonetDB evaluates such
/// expressions, which includes type casts to guard against overflow and
/// creation of fully materialized intermediates." ColStore reproduces
/// exactly that cost model.
pub fn fig2() -> String {
    let pool = q1_pool(40, 40, 2);
    let db = Arc::new(Database::tpch(base_sf(), 42));
    let col: Arc<dyn Dbms> = Arc::new(ColStore::new(db));
    let label = col.label();
    let records = run_queries(col, repetitions(), pool.entries());
    let times = analytics::times_by_query(&records, &label);
    let ranked = analytics::components(&pool, &times);
    let mut out = format!(
        "## Figure 2 — dominant lexical components (Q1 pool on {label}, SF {}, {} measured, {} errors)\n\n",
        base_sf(),
        times.len(),
        errors(&records)
    );
    out.push_str(&reports::components_page(&ranked, 12));
    if let Some(top) = ranked.first() {
        let _ = writeln!(
            out,
            "\ndominant term: {} (class {})",
            top.literal, top.class
        );
    }
    out
}

/// Figure 3: query speedup between the same system on SF and 10×SF.
///
/// Paper: "the base line query SF 1 Q1 runs about a factor 8 slower on a
/// 10 times larger database instance. However, looking at the query
/// variations it actually shows a spread of a factor 8-14."
pub fn fig3() -> (String, Option<SpeedupReport>, QueryPool) {
    let pool = q1_pool(15, 20, 3);
    let sf = base_sf();
    let times = |sf: f64| {
        let col: Arc<dyn Dbms> = Arc::new(ColStore::new(Arc::new(Database::tpch(sf, 42))));
        let label = col.label();
        let records = run_queries(col, repetitions(), pool.entries());
        (analytics::times_by_query(&records, &label), label)
    };
    let (t_small, label) = times(sf);
    let (t_large, _) = times(sf * 10.0);
    let report = analytics::speedup(&t_small, &t_large);
    let mut out = format!(
        "## Figure 3 — slowdown of {label} between SF {sf} and SF {} (per Q1 variant)\n\n",
        sf * 10.0
    );
    match &report {
        Some(r) => {
            out.push_str(&reports::speedup_page(
                r,
                &format!("SF {sf}"),
                &format!("SF {}", sf * 10.0),
            ));
            let baseline_factor = r.factors.first().map(|(_, f)| *f).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "\nbaseline query factor: {baseline_factor:.2}x; variant spread {:.2}x–{:.2}x",
                r.min, r.max
            );
        }
        None => out.push_str("no overlapping measurements\n"),
    }
    (out, report, pool)
}

/// Figure 4: the differential page for the extreme variants of Figure 3.
pub fn fig4() -> String {
    let (_, report, pool) = fig3();
    fig4_from(report, &pool)
}

/// Figure 4 from precomputed Figure 3 measurements (used by `repro all`).
pub fn fig4_from(report: Option<SpeedupReport>, pool: &QueryPool) -> String {
    let Some(report) = report else {
        return "## Figure 4 — no data\n".into();
    };
    let hi = report
        .factors
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    let lo = report
        .factors
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    let q_hi = pool.entry(hi.0).expect("entry");
    let q_lo = pool.entry(lo.0).expect("entry");
    let diff = analytics::differential(&q_lo.sql, &q_hi.sql);

    // Per-system timings of the two variants (row vs column store).
    let db = Arc::new(Database::tpch(base_sf(), 42));
    let systems: [Arc<dyn Dbms>; 2] = [
        Arc::new(RowStore::new(db.clone())),
        Arc::new(ColStore::new(db)),
    ];
    let mut out = format!(
        "## Figure 4 — query differential (least-affected {:.2}x vs most-affected {:.2}x)\n\n",
        lo.1, hi.1
    );
    let _ = writeln!(out, "token diff (-: least-affected only, +: most-affected only):");
    out.push_str(&analytics::render_diff(&diff));
    let _ = writeln!(out, "\nper-system medians:");
    for sys in systems {
        let records = run_queries(sys, repetitions(), [q_lo, q_hi]);
        for (tag, r) in ["least", "most"].into_iter().zip(&records) {
            let median = r
                .median_ms()
                .map(|m| format!("{m:.2}ms"))
                .unwrap_or_else(|| "error".into());
            let _ = writeln!(out, "  {:<14} {:<6} {median}", r.dbms_label, tag);
        }
    }
    out
}

/// Figures 5 & 6: the experiment (grammar) page and the pool page of a
/// demo project.
pub fn fig5_fig6() -> (String, String) {
    use sqalpel_core::{Project, ProjectId, UserId, Visibility};
    let mut project = Project::new(
        ProjectId(1),
        "tpch-q1-study",
        "Discriminative exploration of TPC-H Q1; data generated by sqalpel-datagen \
         (dbgen derivative, scale-factor parameterized).",
        UserId(1),
        Visibility::Public,
    );
    let (id, pool) = project
        .new_experiment(UserId(1), sqalpel_sql::tpch::Q1, None, 10_000, 1000)
        .expect("experiment");
    project.add_experiment(id, "Q1 pricing summary".into(), sqalpel_sql::tpch::Q1.into(), pool);
    {
        let exp = project.experiment_mut(id).expect("exists");
        exp.pool.walk(|d| d.seed_baseline()).expect("baseline");
        let mut rng = sqalpel_grammar::seeded_rng(4);
        exp.pool.walk(|d| d.add_random(8, &mut rng)).expect("seeds");
        for _ in 0..8 {
            let _ = exp.pool.walk(|d| d.morph_auto(&mut rng)).expect("morph");
        }
    }
    let exp = project.experiment(id).expect("exists");
    let fig5 = format!(
        "## Figure 5 — experiment page\n\n{}",
        reports::experiment_page(&project, exp)
    );
    let fig6 = format!("## Figure 6 — query pool page\n\n{}", reports::pool_page(&exp.pool));
    (fig5, fig6)
}

/// Figure 7: the experiment history of a full guided session, run on two
/// versions of the same system (the intro's scenario: RowStore 2.0 with
/// hash joins vs 1.4 with nested loops), plus the discriminative queries
/// the walk surfaces. Variants that drop a joined table but keep its
/// predicates fail to execute — the yellow error dots of the figure.
pub fn fig7() -> String {
    let grammar = sqalpel_grammar::convert_sql(sqalpel_sql::tpch::Q3).expect("Q3 converts");
    let mut pool = QueryPool::new(grammar, 10_000, 10_000).expect("valid grammar");
    pool.walk(|d| d.seed_baseline()).expect("baseline");
    let mut rng = sqalpel_grammar::seeded_rng(7);
    pool.walk(|d| d.add_random(20, &mut rng)).expect("random seeds");
    for _ in 0..30 {
        let _ = pool.walk(|d| d.morph_auto(&mut rng)).expect("morph");
    }

    // A small instance: the nested-loop version must be able to finish
    // its two-table variants, while three-table variants exceed the row
    // budget and surface as killed runs (the paper's stuck-query story).
    let sf = (base_sf() / 10.0).max(0.001);
    let db = Arc::new(Database::tpch(sf, 42));
    // Both versions run under a server-side row budget: variants that
    // morphed away a join predicate go cartesian and are killed (the
    // paper's stuck-query timeout), surfacing as error dots.
    let new_version: Arc<dyn Dbms> = Arc::new(RowStore::new(db.clone()).with_budget(8_000_000));
    let old_version: Arc<dyn Dbms> = Arc::new(RowStore::legacy(db.clone()).with_budget(4_000_000));
    let (new_label, old_label) = (new_version.label(), old_version.label());
    let new_records = run_queries(new_version, repetitions(), pool.entries());
    // The nested-loop version is measured once per query: its slow runs
    // are two orders of magnitude above timer noise anyway.
    let old_records = run_queries(old_version, 1, pool.entries());
    let (e_new, e_old) = (errors(&new_records), errors(&old_records));
    let records = [new_records, old_records].concat();
    let t_new = analytics::times_by_query(&records, &new_label);
    let t_old = analytics::times_by_query(&records, &old_label);

    let nodes = analytics::history(&pool, &records);
    let mut out = format!(
        "## Figure 7 — experiment history (Q3 pool, {new_label} vs {old_label}, SF {sf}, \
         {e_new}/{e_old} error runs)\n\n"
    );
    out.push_str(&reports::history_page(&nodes));

    // Factors t_old / t_new: large where the hash-join upgrade pays off.
    let (upgrade_wins, regressions) = analytics::discriminative(&t_new, &t_old, 1.5);
    let _ = writeln!(
        out,
        "\ndiscriminative queries (>=1.5x): {} much faster on 2.0 (hash joins), {} faster on 1.4",
        upgrade_wins.len(),
        regressions.len()
    );
    for id in upgrade_wins.iter().take(3) {
        let f = t_old[id] / t_new[id];
        let _ = writeln!(out, "  {:>7.1}x  {}", f, pool.entry(*id).expect("entry").sql);
    }
    if let Some(r) = analytics::speedup(&t_new, &t_old) {
        let _ = writeln!(
            out,
            "version factors span {:.2}x-{:.2}x over {} variants both versions completed",
            r.min,
            r.max,
            r.factors.len()
        );
    }

    // The cross-system comparison of the same pool (row vs column store).
    let col: Arc<dyn Dbms> = Arc::new(ColStore::new(db).with_budget(20_000_000));
    let col_label = col.label();
    let t_col =
        analytics::times_by_query(&run_queries(col, repetitions(), pool.entries()), &col_label);
    let (row_wins, col_wins) = analytics::discriminative(&t_new, &t_col, 1.5);
    let _ = writeln!(
        out,
        "\ncross-system on the same pool: {} queries favor rowstore-2.0, {} favor colstore (>=1.5x)",
        row_wins.len(),
        col_wins.len()
    );
    out
}

// ---------------------------------------------------------------- metrics

/// Render a [`sqalpel_core::MetricsSnapshot`] as the two-section text
/// report printed by `repro metrics`.
pub fn format_metrics(snap: &sqalpel_core::MetricsSnapshot) -> String {
    let mut out = String::from("## Server metrics\n\ncounters:\n");
    if snap.counters.is_empty() {
        out.push_str("  (none)\n");
    }
    for (name, n) in &snap.counters {
        let _ = writeln!(out, "  {name} = {n}");
    }
    out.push_str("\nhistograms (nanoseconds):\n");
    if snap.histograms.is_empty() {
        out.push_str("  (none)\n");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "  {name}: count={} sum={} p50<={} p95<={} p99<={}",
            h.count, h.sum, h.p50, h.p95, h.p99
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_pool_builds_and_dedups() {
        let p = q1_pool(10, 10, 1);
        assert!(p.len() >= 11);
        let mut sqls: Vec<&str> = p.entries().iter().map(|e| e.sql.as_str()).collect();
        let n = sqls.len();
        sqls.sort_unstable();
        sqls.dedup();
        assert_eq!(sqls.len(), n);
    }

    #[test]
    fn driver_filed_records_keep_repetitions_and_loads() {
        let pool = q1_pool(5, 5, 2);
        let db = Arc::new(Database::tpch(0.001, 42));
        let loaded = sqalpel_core::driver::read_loadavg().fifteen > 0.0;
        let records = run_queries(Arc::new(RowStore::new(db)), 2, pool.entries());
        assert_eq!(records.len(), pool.len());
        let ran: Vec<&ResultRecord> = records.iter().filter(|r| r.error.is_none()).collect();
        assert!(!ran.is_empty());
        for r in ran {
            assert_eq!(r.times_ms.len(), 2);
            assert_eq!((&*r.dbms_label, &*r.host), ("rowstore-2.0", "bench-server"));
            assert!(r.extras.contains(r#""repetitions":2"#), "{}", r.extras);
            assert!(r.fingerprint.is_some() && r.profile.is_some());
            // Where the host reports a load, the record holds the one
            // the driver read around the run.
            if loaded {
                assert!(r.load_before.fifteen > 0.0 && r.load_after.fifteen > 0.0);
            }
        }
    }

    #[test]
    fn a_budget_killed_run_files_the_engine_error() {
        let pool = q1_pool(2, 0, 2);
        let db = Arc::new(Database::tpch(0.001, 42));
        let tight: Arc<dyn Dbms> = Arc::new(RowStore::new(db).with_budget(100));
        let records = run_queries(tight, 1, pool.entries());
        for r in &records {
            let error = r.error.as_deref().unwrap_or_default();
            assert!(error.contains("row budget exceeded"), "{error:?}");
            assert!(r.times_ms.is_empty() && r.median_ms().is_none());
        }
    }

    #[test]
    fn table1_text() {
        let t = table1();
        assert!(t.contains("TPC-C"));
        assert!(t.contains("368"));
    }

    #[test]
    fn fig1_text() {
        let f = fig1();
        assert!(f.contains("grammar OK"));
        assert!(f.contains("space: tags=7 templates=10 space=32"));
    }
}
