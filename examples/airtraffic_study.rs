//! The airtraffic sample project: an ad-hoc analytic query over the
//! synthetic `ontime` flights table is turned into a grammar, its space
//! explored, and the dominant cost components identified — the same
//! workflow the paper demos on its airtraffic project.
//!
//! ```text
//! cargo run --release --example airtraffic_study
//! ```

use sqalpel::core::{
    analytics, results, ContributorKey, DriverConfig, EngineConnector, ExperimentDriver,
    ExperimentId, ProjectId, QueryPool, ResultRecord, TaskId,
};
use sqalpel::engine::{ColStore, Database, Dbms};
use std::sync::Arc;

/// The baseline question a DBA might ask of the ontime data.
const BASELINE: &str = "\
select carrier, origin,
  count(*) as flights,
  avg(depdelay) as avg_dep_delay,
  avg(arrdelay) as avg_arr_delay,
  max(depdelay) as worst
from ontime
where cancelled = 0
  and depdelay > 0
  and distance between 300 and 2500
group by carrier, origin
order by avg_dep_delay desc
limit 15";

fn main() {
    // 1. Convert the baseline into a sqalpel grammar.
    let grammar = sqalpel::grammar::convert_sql(BASELINE).expect("baseline converts");
    let space = grammar.space_report(10_000).expect("space");
    println!("query space from the baseline: {space}\n");

    // 2. Build and walk the pool.
    let mut pool = QueryPool::new(grammar, 10_000, 500).expect("pool");
    pool.walk(|d| d.seed_baseline()).expect("baseline");
    let mut rng = sqalpel::grammar::seeded_rng(99);
    pool.walk(|d| d.add_random(20, &mut rng)).expect("seeds");
    for _ in 0..30 {
        let _ = pool.walk(|d| d.morph_auto(&mut rng)).expect("morph");
    }
    println!("pool holds {} query variants", pool.len());

    // 3. Measure on the column store over a year of flights: the
    //    experiment driver runs each variant three times, and each
    //    outcome is filed as a result record.
    let db = Arc::new(Database::airtraffic(400, 2015, 9));
    let col: Arc<dyn Dbms> = Arc::new(ColStore::new(db));
    let config = DriverConfig { dbms_label: col.label(), repetitions: 3, ..Default::default() };
    let driver = ExperimentDriver::new(EngineConnector::new(col), config);
    let (label, host) = (&driver.config().dbms_label, &driver.config().host);
    let key = ContributorKey("ck_airtraffic".into());
    let records: Vec<ResultRecord> = pool
        .entries()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let (task, query) = (TaskId(i as u64), entry.id);
            let outcome = driver.run(&entry.sql);
            results::record(task, ProjectId(1), ExperimentId(0), query, label, host, &key, outcome)
        })
        .collect();
    let errors = records.iter().filter(|r| r.error.is_some()).count();
    let times = analytics::times_by_query(&records, label);
    println!("measured {} variants on {label} ({errors} error runs)\n", times.len());

    // 4. Which lexical terms dominate the cost?
    let ranked = analytics::components(&pool, &times);
    println!("dominant components:");
    for (i, c) in ranked.iter().take(8).enumerate() {
        println!(
            "  {:>2}. {:+8.3}ms  [{}] {}",
            i + 1,
            c.weight_ms,
            c.class,
            c.literal
        );
    }

    // 5. Inspect the syntactic gap between the cheapest and costliest
    //    variants (the paper's differential page).
    let cheapest = times
        .iter()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(id, _)| *id)
        .expect("non-empty");
    let costliest = times
        .iter()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(id, _)| *id)
        .expect("non-empty");
    let a = pool.entry(cheapest).expect("entry");
    let b = pool.entry(costliest).expect("entry");
    println!(
        "\ncheapest ({:.2}ms) vs costliest ({:.2}ms) variant diff:",
        times[&cheapest], times[&costliest]
    );
    print!("{}", analytics::render_diff(&analytics::differential(&a.sql, &b.sql)));
}
