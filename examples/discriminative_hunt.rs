//! The paper's demo scenario as a program: a full sqalpel session hunting
//! discriminative queries between two target systems.
//!
//! A project owner registers, sets up a TPC-H Q3 experiment, seeds and
//! morphs the query pool; a contributor drains the task queue with the
//! experiment driver against both RowStore versions; the analytics then
//! surface the queries that discriminate between them.
//!
//! ```text
//! cargo run --release --example discriminative_hunt
//! ```

use sqalpel::core::analytics;
use sqalpel::core::{
    contribute, DriverConfig, EngineConnector, ExperimentDriver, PollPolicy, QueryId,
    SqalpelServer, Visibility, Worker,
};
use sqalpel::engine::{self, Database};
use std::collections::HashMap;
use std::sync::Arc;

fn main() {
    let server = SqalpelServer::new();

    // --- project setup (the owner's side) -------------------------------
    let owner = server.register_user("mlk", "mlk@cwi.nl").expect("register");
    let contrib = server.register_user("pk", "pk@monetdb.com").expect("register");
    let project = server
        .create_project(
            owner,
            "q3-hash-join-study",
            "Does the 2.0 hash-join upgrade help TPC-H Q3-like workloads?",
            Visibility::Public,
        )
        .expect("project");
    server
        .set_targets(
            project,
            owner,
            vec!["rowstore-2.0".into(), "rowstore-1.4".into()],
            vec!["bench-server".into()],
        )
        .expect("targets are public catalog entries");
    server.invite(project, owner, contrib).expect("invite");

    let experiment = server
        .add_experiment(
            project,
            owner,
            "Q3 shipping priority",
            sqalpel::sql::tpch::Q3,
            None, // automatic SQL → grammar conversion
            10_000,
            1_000,
        )
        .expect("experiment");
    let seeded = server.seed_pool(project, experiment, owner, 10, 42).expect("seed");
    let morphed = server
        .morph_pool(project, experiment, owner, None, 18, 7)
        .expect("morph")
        .len();
    println!("pool: {seeded} seeded + {morphed} morphed queries");
    let tasks = server.enqueue_experiment(project, experiment, owner).expect("enqueue");
    println!("queue: {tasks} tasks ({} queries x 2 systems)", tasks / 2);

    // --- contribution (the driver's side) -------------------------------
    let db = Arc::new(Database::tpch(0.002, 42));
    let key = server.issue_key(contrib).expect("key");
    // Both versions run under a row budget: runaway variants get killed.
    for (label, budget) in [("rowstore-2.0", 4_000_000), ("rowstore-1.4", 2_000_000)] {
        let driver = ExperimentDriver::new(
            EngineConnector::new(engine::for_label(label, db.clone(), budget).expect("built in")),
            DriverConfig::parse(&format!("dbms = {label}\nhost = bench-server\nrepetitions = 3"))
                .expect("config"),
        );
        let worker = Worker::new(key.clone(), driver);
        let mut failed = 0;
        let report = contribute(&server, &worker, &PollPolicy::default(), 1, |_, reports, _| {
            failed += reports.iter().filter(|(_, o)| o.error.is_some()).count()
        });
        println!("{label}: ran {} tasks ({failed} error runs)", report.completed);
    }

    // --- analysis (anyone's side) ----------------------------------------
    let records = server.results_for(project, contrib).expect("visible");
    let t_new: HashMap<QueryId, f64> = analytics::times_by_query(&records, "rowstore-2.0");
    let t_old: HashMap<QueryId, f64> = analytics::times_by_query(&records, "rowstore-1.4");
    let (upgrade_wins, regressions) = analytics::discriminative(&t_new, &t_old, 2.0);
    println!(
        "\ndiscriminative (>=2x): {} queries favor 2.0, {} favor 1.4",
        upgrade_wins.len(),
        regressions.len()
    );
    if let Some(r) = analytics::speedup(&t_new, &t_old) {
        println!(
            "hash-join upgrade factors: min {:.1}x, median {:.1}x, max {:.1}x",
            r.min, r.median, r.max
        );
    }
    server
        .with_project_view(project, contrib, |p| {
            let exp = p.experiment(experiment).expect("exists");
            for id in upgrade_wins.iter().take(3) {
                let e = exp.pool.entry(*id).expect("entry");
                println!("  2.0 wins ({:.1}x): {}", t_old[id] / t_new[id], e.sql);
            }
        })
        .expect("view");

    // Export for post-processing, as the paper's GUI offers.
    let csv = server.export_csv(project, contrib).expect("csv");
    println!("\nCSV export: {} lines", csv.lines().count());
}
