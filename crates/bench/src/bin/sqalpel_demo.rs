//! The paper's §5 demo scenario as a terminal walk-through: bootstrap the
//! platform with the sample projects, run one experiment end to end, and
//! print the pages a visitor would see.
//!
//! ```text
//! cargo run --release -p sqalpel-bench --bin sqalpel_demo
//! ```

use sqalpel_core::{
    bootstrap_server, reports, run_worker_pool, DriverConfig, EngineConnector, ExperimentDriver,
    PollPolicy, SqalpelServer, Worker,
};
use sqalpel_engine::{for_label, Database, DEFAULT_BUDGET};
use std::sync::Arc;

fn main() {
    // §5.2: top-menu — users, catalogs.
    let server = SqalpelServer::new();
    println!("=== sqalpel demo ===\n");
    println!("DBMS catalog: {}\n", server.dbms_labels().join(", "));

    // §1: "We bootstrap the platform with a sizable number of OLAP cases."
    let b = bootstrap_server(&server, 6, 42).expect("bootstrap");
    println!(
        "bootstrapped projects: tpch-olap ({} experiments), ssb-star-schema, airtraffic-ontime\n",
        b.tpch_experiments.len()
    );

    // §5.3/§5.4: open the Q6 experiment, show its pages.
    let (name, exp) = b.tpch_experiments[2];
    assert_eq!(name, "Q6");
    server
        .morph_pool(b.tpch, exp, b.admin, None, 8, 7)
        .expect("morph");
    let (page5, page6) = server
        .with_project_view(b.tpch, b.admin, |p| {
            let e = p.experiment(exp).expect("exists");
            (reports::experiment_page(p, e), reports::pool_page(&e.pool))
        })
        .expect("view");
    println!("{page5}");
    println!("{page6}");

    // §5.5: contribute results with the driver against two systems.
    let tasks = server.enqueue_experiment(b.tpch, exp, b.admin).expect("enqueue");
    println!("enqueued {tasks} tasks\n");
    let key = server.issue_key(b.admin).expect("key");
    let db = Arc::new(Database::tpch(0.005, 42));
    for label in ["rowstore-2.0", "rowstore-1.4", "colstore-5.1"] {
        let dbms = for_label(label, db.clone(), DEFAULT_BUDGET).expect("a built-in label");
        let driver = ExperimentDriver::new(
            EngineConnector::new(dbms),
            DriverConfig::parse(&format!("dbms = {label}\nhost = bench-server\nrepetitions = 5"))
                .expect("config"),
        );
        let worker = Worker::new(key.clone(), driver);
        let pool = run_worker_pool(&server, vec![worker], PollPolicy::default());
        println!("{label}: contributed {} results", pool.completed());
    }

    // §5.6: visual analytics — history and CSV export.
    let records = server.results_for(b.tpch, b.admin).expect("results");
    let nodes = server
        .with_project_view(b.tpch, b.admin, |p| {
            sqalpel_core::analytics::history(&p.experiment(exp).expect("exists").pool, &records)
        })
        .expect("view");
    println!("\n{}", reports::history_page(&nodes));
    let csv = server.export_csv(b.tpch, b.admin).expect("csv");
    println!("CSV export ready: {} data rows", csv.lines().count() - 1);
}
