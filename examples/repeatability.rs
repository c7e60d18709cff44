//! Repeatability: the property the sqalpel platform is built around.
//!
//! "Performance data only makes sense if you can easily document it and
//! share it" — and a shared project must reproduce. This example shows
//! that every layer of the stack is deterministic under a seed: the data
//! generators, the grammar conversion, the pool walk and the result
//! shapes, so an independent contributor rebuilds the exact same
//! experiment.
//!
//! ```text
//! cargo run --example repeatability
//! ```

use sqalpel::core::QueryPool;
use sqalpel::datagen::TpchGen;
use sqalpel::engine::{Database, Dbms, RowStore};
use std::sync::Arc;

fn build_pool(seed: u64) -> QueryPool {
    let grammar = sqalpel::grammar::convert_sql(sqalpel::sql::tpch::Q6).expect("Q6 converts");
    let mut pool = QueryPool::new(grammar, 10_000, 500).expect("pool");
    pool.walk(|d| d.seed_baseline()).expect("baseline");
    let mut rng = sqalpel::grammar::seeded_rng(seed);
    pool.walk(|d| d.add_random(8, &mut rng)).expect("seeds");
    for _ in 0..12 {
        let _ = pool.walk(|d| d.morph_auto(&mut rng)).expect("morph");
    }
    pool
}

fn main() {
    // 1. Data generation is bit-identical for the same (SF, seed).
    let a = TpchGen::new(0.002, 7).generate();
    let b = TpchGen::new(0.002, 7).generate();
    assert_eq!(a.lineitem, b.lineitem);
    assert_eq!(a.orders, b.orders);
    println!(
        "datagen: two independent SF 0.002 builds are identical ({} rows)",
        a.total_rows()
    );

    // 2. The pool walk replays exactly.
    let p1 = build_pool(31);
    let p2 = build_pool(31);
    assert_eq!(p1.len(), p2.len());
    for (x, y) in p1.entries().iter().zip(p2.entries()) {
        assert_eq!(x.sql, y.sql);
        assert_eq!(x.origin, y.origin);
    }
    println!("pool walk: {} queries replay identically under seed 31", p1.len());
    let p3 = build_pool(32);
    assert!(
        p1.entries().iter().zip(p3.entries()).any(|(x, y)| x.sql != y.sql),
        "different seeds must explore differently"
    );
    println!("pool walk: seed 32 takes a different path (as it should)");

    // 3. Query answers are stable across executions.
    let db = Arc::new(Database::tpch(0.002, 7));
    let row = RowStore::new(db);
    for entry in p1.entries().iter().take(10) {
        let r1 = row.execute(&entry.sql);
        let r2 = row.execute(&entry.sql);
        match (r1, r2) {
            (Ok(x), Ok(y)) => assert!(x.approx_eq(&y, 0.0), "non-deterministic answer"),
            (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
            _ => panic!("one run succeeded, the other failed"),
        }
    }
    println!("engine: answers are identical run-to-run");

    // 4. The whole chain documents itself: print what a contributor needs.
    println!("\nto repeat this experiment:");
    println!("  data:     TpchGen::new(0.002, 7)");
    println!("  grammar:  convert_sql(tpch::Q6)");
    println!("  pool:     seed_baseline + add_random(8) + 12x morph_auto, seed 31");
    println!("  system:   rowstore-2.0 (hash joins, float64 arithmetic)");
}
