//! Quickstart: the paper's Figure 1 grammar, end to end.
//!
//! Parses the sample grammar, validates it, enumerates its templates,
//! generates a few concrete queries and runs them against both target
//! systems through the experiment driver.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use sqalpel::core::{DriverConfig, EngineConnector, ExperimentDriver};
use sqalpel::engine::{ColStore, Database, Dbms, RowStore};
use sqalpel::grammar::{self, Grammar};
use std::sync::Arc;

fn main() {
    // 1. The query-space grammar (paper Figure 1).
    let g = Grammar::parse(grammar::FIG1_GRAMMAR).expect("the sample grammar parses");
    println!("grammar:\n{g}");
    println!("validation: {}", g.check());

    // 2. Its query space: templates and concrete-query count.
    let report = g.space_report(10_000).expect("small space");
    println!("space: {report}\n");

    // 3. Generate a handful of concrete queries.
    let set = g.templates(10_000).expect("enumerable");
    let mut rng = grammar::seeded_rng(42);
    let queries: Vec<String> = (0..5)
        .map(|_| grammar::random_query(&g, &set.templates, &mut rng, None).expect("generates"))
        .collect();

    // 4. Run each once on the two target systems over a TPC-H instance,
    //    timed by the experiment driver.
    let db = Arc::new(Database::tpch(0.01, 42));
    let row: Arc<dyn Dbms> = Arc::new(RowStore::new(db.clone()));
    let col: Arc<dyn Dbms> = Arc::new(ColStore::new(db));
    let driver = |dbms: &Arc<dyn Dbms>| {
        let cfg = DriverConfig { dbms_label: dbms.label(), repetitions: 1, ..Default::default() };
        ExperimentDriver::new(EngineConnector::new(Arc::clone(dbms)), cfg)
    };
    let (row_driver, col_driver) = (driver(&row), driver(&col));
    println!("{:<62} {:>12} {:>12}", "query", "rowstore", "colstore");
    for sql in &queries {
        let time = |driver: &ExperimentDriver<EngineConnector>| {
            let run = driver.run(sql);
            match run.error {
                None => format!("{:.2}ms/{}r", run.times_ms[0], run.rows),
                Some(e) => format!("error: {e:.20}"),
            }
        };
        let display = if sql.len() > 60 { format!("{}…", &sql[..59]) } else { sql.clone() };
        println!("{display:<62} {:>12} {:>12}", time(&row_driver), time(&col_driver));
    }

    // 5. Results agree across systems (differential check).
    for sql in &queries {
        let a = row.execute(sql).expect("runs on rowstore");
        let b = col.execute(sql).expect("runs on colstore");
        assert!(
            a.canonicalized().approx_eq(&b.canonicalized(), 1e-6),
            "engines disagree on {sql}"
        );
    }
    println!("\nall generated queries agree across both engines ✓");
}
