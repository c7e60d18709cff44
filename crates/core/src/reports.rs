//! Server-side page rendering — the text equivalents of the paper's demo
//! views: the TPC overview (Table 1), the experiment/grammar page
//! (Figure 5), the query-pool page (Figure 6) and the experiment history
//! (Figure 7). Pages are generated server-side, as in the Flask original.

use crate::analytics::{ComponentWeight, HistoryNode, SpeedupReport};
use crate::pool::QueryPool;
use crate::project::{Experiment, Project};
use std::fmt::Write as _;

/// One row of the paper's Table 1 (TPC benchmark adoption), quoted from
/// the tpc.org snapshot the paper tabulates. Literature data — the only
/// artifact of the paper that is not measurable.
pub struct TpcRow {
    pub benchmark: &'static str,
    pub reports: u32,
    pub systems: &'static str,
}

/// The paper's Table 1 contents.
pub fn tpc_table_data() -> Vec<TpcRow> {
    [
        ("TPC-C", 368, "Oracle, IBM DB2, MS SQLserver, Sybase, SymfoWARE"),
        ("TPC-DI", 0, ""),
        ("TPC-DS", 1, "Intel"),
        ("TPC-E", 77, "MS SQLserver"),
        (
            "TPC-H <= SF-300",
            252,
            "MS SQLserver, Oracle, EXASOL, Actian Vector 5.0, Sybase, IBM DB2, Informix, Teradata, Paraccel",
        ),
        ("TPC-H SF-1000", 4, "MS SQLserver"),
        ("TPC-H SF-3000", 6, "MS SQLserver, Actian Vector 5.0"),
        ("TPC-H SF-10000", 9, "MS SQLserver"),
        ("TPC-H SF-30000", 1, "MS SQLserver"),
        ("TPC-VMS", 0, ""),
        ("TPCx-BB", 4, "Cloudera"),
        ("TPCx-HCI", 0, ""),
        ("TPCx-HS", 0, ""),
        ("TPCx-IoT", 1, "Hbase"),
    ]
    .into_iter()
    .map(|(benchmark, reports, systems)| TpcRow {
        benchmark,
        reports,
        systems,
    })
    .collect()
}

/// Render Table 1.
pub fn tpc_table() -> String {
    let mut out = String::from("benchmark            reports  systems reported\n");
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for row in tpc_table_data() {
        let _ = writeln!(out, "{:<20} {:>7}  {}", row.benchmark, row.reports, row.systems);
    }
    out
}

/// The experiment page (Figure 5): synopsis, baseline query, grammar.
pub fn experiment_page(project: &Project, experiment: &Experiment) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== project: {} ===", project.title);
    let _ = writeln!(out, "{}", project.synopsis);
    let _ = writeln!(
        out,
        "visibility: {:?} | contributors: {} | comments: {}",
        project.visibility,
        project.contributors.len(),
        project.comments.len()
    );
    let _ = writeln!(out, "\n--- experiment: {} ---", experiment.title);
    let _ = writeln!(out, "baseline query:\n{}\n", experiment.baseline_sql);
    let report = experiment
        .pool
        .grammar()
        .space_report(sqalpel_grammar::DEFAULT_TEMPLATE_CAP)
        .map(|r| r.to_string())
        .unwrap_or_else(|e| e.to_string());
    let _ = writeln!(out, "query space: {report}");
    let _ = writeln!(out, "\nsqalpel grammar:\n{}", experiment.pool.grammar());
    out
}

/// The query-pool page (Figure 6): entries, origins, guidance controls.
pub fn pool_page(pool: &QueryPool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== query pool: {} queries (templates: {}{}) ===",
        pool.len(),
        pool.templates().len(),
        if pool.templates_truncated { ", capped" } else { "" }
    );
    let g = &pool.guidance;
    let _ = writeln!(
        out,
        "guidance: exclude={:?} require={:?}",
        g.exclude, g.require
    );
    let _ = writeln!(out, "{:>4}  {:<22} {:>5}  sql", "id", "origin", "size");
    for e in pool.entries() {
        let origin = match e.origin {
            crate::pool::Origin::Baseline => "baseline".to_string(),
            crate::pool::Origin::Random => "random".to_string(),
            crate::pool::Origin::Morph { strategy, parent } => {
                format!("{} of #{}", strategy.name(), parent.0)
            }
        };
        let sql = if e.sql.len() > 70 {
            format!("{}…", &e.sql[..69])
        } else {
            e.sql.clone()
        };
        let _ = writeln!(out, "{:>4}  {:<22} {:>5}  {}", e.id.0, origin, e.components(), sql);
    }
    out
}

/// The experiment-history page (Figure 7): one line per node with step,
/// strategy color, node size and timings; errors show as yellow.
pub fn history_page(nodes: &[HistoryNode]) -> String {
    let mut out = String::from("step  query  color    size  times\n");
    for n in nodes {
        let times: Vec<String> = n
            .times_ms
            .iter()
            .map(|(sys, ms)| format!("{sys}={ms:.2}ms"))
            .collect();
        let _ = writeln!(
            out,
            "{:>4}  #{:<4}  {:<8} {:>4}  {}{}",
            n.step,
            n.query.0,
            n.color(),
            n.components,
            times.join(" "),
            if n.error { " [error]" } else { "" }
        );
    }
    out
}

/// Render the Figure 2 component ranking.
pub fn components_page(ranked: &[ComponentWeight], top: usize) -> String {
    let mut out = String::from("rank  weight_ms  support  class        term\n");
    for (i, c) in ranked.iter().take(top).enumerate() {
        let _ = writeln!(
            out,
            "{:>4}  {:>9.3}  {:>7}  {:<12} {}",
            i + 1,
            c.weight_ms,
            c.support,
            c.class,
            c.literal
        );
    }
    out
}

/// Render the Figure 3 speedup summary.
pub fn speedup_page(report: &SpeedupReport, label_a: &str, label_b: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "speedup {label_b} / {label_a}: min={:.2}x median={:.2}x max={:.2}x over {} queries",
        report.min,
        report.median,
        report.max,
        report.factors.len()
    );
    for (id, f) in &report.factors {
        let _ = writeln!(out, "  query #{:<4} {f:.2}x", id.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Visibility;
    use crate::project::{Project, ProjectId};
    use crate::user::UserId;

    #[test]
    fn tpc_table_matches_paper() {
        let data = tpc_table_data();
        assert_eq!(data.len(), 14);
        assert_eq!(data[0].benchmark, "TPC-C");
        assert_eq!(data[0].reports, 368);
        let total: u32 = data.iter().map(|r| r.reports).sum();
        assert_eq!(total, 368 + 1 + 77 + 252 + 4 + 6 + 9 + 1 + 4 + 1);
        let text = tpc_table();
        assert!(text.contains("TPC-H SF-30000"));
        assert!(text.contains("368"));
    }

    #[test]
    fn experiment_and_pool_pages_render() {
        let mut p = Project::new(
            ProjectId(1),
            "demo",
            "Figure 1 nation space",
            UserId(1),
            Visibility::Public,
        );
        let g = sqalpel_grammar::Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let baseline = "SELECT count(*) FROM nation WHERE n_name= 'BRAZIL'";
        let (id, pool) = p.new_experiment(UserId(1), baseline, Some(g), 1000, 100).unwrap();
        p.add_experiment(id, "nation".into(), baseline.into(), pool);
        {
            let exp = p.experiment_mut(id).unwrap();
            exp.pool.walk(|d| d.seed_baseline()).unwrap();
            let mut rng = sqalpel_grammar::seeded_rng(1);
            exp.pool.walk(|d| d.add_random(5, &mut rng)).unwrap();
            exp.pool.walk(|d| d.morph_auto(&mut rng)).unwrap();
        }
        let exp = p.experiment(id).unwrap();
        let page = experiment_page(&p, exp);
        assert!(page.contains("=== project: demo ==="));
        assert!(page.contains("sqalpel grammar:"));
        assert!(page.contains("query space: tags=7 templates=10 space=32"));

        let pool_text = pool_page(&exp.pool);
        assert!(pool_text.contains("baseline"));
        assert!(pool_text.contains("random"));
        assert!(pool_text.contains("query pool:"));
    }

    #[test]
    fn history_page_marks_errors() {
        use crate::analytics::HistoryNode;
        use crate::pool::QueryId;
        let nodes = vec![HistoryNode {
            step: 0,
            query: QueryId(0),
            strategy: None,
            parent: None,
            components: 3,
            error: true,
            times_ms: Default::default(),
        }];
        let page = history_page(&nodes);
        assert!(page.contains("yellow"));
        assert!(page.contains("[error]"));
    }
}
