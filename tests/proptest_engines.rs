//! Property-based differential testing of the engines' filter kernels:
//! for arbitrary predicates over `lineitem`, the vectorized column
//! kernels must select exactly the rows the tuple-at-a-time evaluator
//! selects — `count(*)` agrees, and so does a checksum aggregate.
//!
//! The same predicates also fill subquery bodies: a semi, anti or group
//! join must keep exactly the outer rows that evaluating the subquery
//! per row keeps.

use proptest::prelude::*;
use sqalpel::engine::{ColStore, Database, Dbms, RowStore};
use std::sync::{Arc, OnceLock};

fn shared_db() -> Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(Database::tpch(0.001, 11))).clone()
}

/// Generate predicate SQL over lineitem's typed columns, exercising the
/// int/date/decimal/string comparison kernels, BETWEEN, IN, LIKE and the
/// boolean connectives.
fn arb_predicate() -> impl Strategy<Value = String> {
    let atom = prop_oneof![
        // integer comparisons
        (0i64..60, prop_oneof![Just("<"), Just("<="), Just(">"), Just(">="), Just("="), Just("<>")])
            .prop_map(|(v, op)| format!("l_quantity {op} {v}")),
        // decimal comparisons
        (0i64..11).prop_map(|v| format!("l_discount >= 0.0{v}")),
        (0i64..9).prop_map(|v| format!("l_tax < 0.0{v}")),
        // date comparisons
        (1992i32..1999, 1u32..13)
            .prop_map(|(y, m)| format!("l_shipdate < date '{y:04}-{m:02}-01'")),
        // between
        (1i64..25, 25i64..51)
            .prop_map(|(lo, hi)| format!("l_quantity between {lo} and {hi}")),
        // string equality and IN lists
        prop_oneof![Just("MAIL"), Just("SHIP"), Just("AIR"), Just("RAIL")]
            .prop_map(|m| format!("l_shipmode = '{m}'")),
        Just("l_shipmode in ('MAIL', 'SHIP', 'FOB')".to_string()),
        // LIKE over the comment text
        prop_oneof![Just("%ly%"), Just("f%"), Just("%s"), Just("%a%e%")]
            .prop_map(|p| format!("l_comment like '{p}'")),
        Just("l_returnflag = 'R'".to_string()),
    ];
    atom.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} and {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} or {b})")),
            inner.clone().prop_map(|a| format!("not ({a})")),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row-at-a-time and vectorized filtering select the same rows.
    #[test]
    fn filter_kernels_agree(pred in arb_predicate()) {
        let db = shared_db();
        let sql = format!(
            "select count(*), sum(l_orderkey * l_linenumber), min(l_shipdate) \
             from lineitem where {pred}"
        );
        let row = RowStore::new(db.clone());
        let col = ColStore::new(db);
        let a = row.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let b = col.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert!(
            a.approx_eq(&b, 1e-9),
            "kernel divergence on {}:\nrowstore {:?}\ncolstore {:?}",
            pred, a.rows, b.rows
        );
    }

    /// Grouped aggregation over arbitrary filters also agrees.
    #[test]
    fn grouped_aggregation_agrees(pred in arb_predicate()) {
        let db = shared_db();
        let sql = format!(
            "select l_returnflag, count(*), avg(l_quantity) from lineitem \
             where {pred} group by l_returnflag order by l_returnflag"
        );
        let row = RowStore::new(db.clone());
        let col = ColStore::new(db);
        let a = row.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let b = col.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert!(a.approx_eq(&b, 1e-9), "divergence on {}", pred);
    }

}

fn tiny_db() -> Arc<Database> {
    static DB: OnceLock<Arc<Database>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(Database::tpch(0.0003, 11))).clone()
}

proptest! {
    // Few cases: each one runs a quadratic nested-loop join.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The legacy nested-loop version agrees with hash joins on a
    /// filtered two-table join.
    #[test]
    fn join_algorithms_agree(pred in arb_predicate()) {
        let db = tiny_db();
        let sql = format!(
            "select count(*) from lineitem, orders \
             where l_orderkey = o_orderkey and {pred}"
        );
        let new = RowStore::new(db.clone());
        let old = RowStore::legacy(db);
        let a = new.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let b = old.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert!(a.approx_eq(&b, 0.0), "join divergence on {}", pred);
    }
}

/// `[not] exists`, `[not] in` and `cmp (select agg ...)` conjuncts over
/// `orders`, keyed on the (near-unique) order key or on the two- and
/// three-valued status columns, with an arbitrary predicate inside the
/// body. The rewriter turns each into a join.
fn arb_subquery_conjunct() -> impl Strategy<Value = String> {
    let negation = prop_oneof![Just(""), Just("not ")];
    let cmp = prop_oneof![Just("<"), Just("<="), Just(">"), Just(">="), Just("="), Just("<>")];
    let agg = prop_oneof![
        Just("min(l_extendedprice)"),
        Just("max(l_extendedprice) * 2"),
        Just("3 * avg(l_extendedprice)"),
        Just("sum(l_extendedprice) / 2"),
        Just("sum(l_quantity) * 1000"),
    ];
    prop_oneof![
        (negation.clone(), arb_predicate()).prop_map(|(not, p)| format!(
            "{not}exists (select * from lineitem where l_orderkey = o_orderkey and {p})"
        )),
        (negation.clone(), arb_predicate()).prop_map(|(not, p)| format!(
            "o_orderkey {not}in (select l_orderkey from lineitem where {p})"
        )),
        // Keys with two or three distinct values: long match lists, where
        // a semi join must probe for membership instead of pairing rows.
        (negation.clone(), arb_predicate()).prop_map(|(not, p)| format!(
            "o_orderstatus {not}in (select l_linestatus from lineitem where {p})"
        )),
        (negation, arb_predicate()).prop_map(|(not, p)| format!(
            "{not}exists (select * from lineitem where l_linestatus = o_orderstatus \
             and l_orderkey <> o_orderkey and {p})"
        )),
        (cmp, agg, arb_predicate()).prop_map(|(op, agg, p)| format!(
            "o_totalprice {op} (select {agg} from lineitem \
             where l_orderkey = o_orderkey and {p})"
        )),
    ]
}

proptest! {
    // Few cases: the reference side runs the body once per order.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unnesting keeps exactly the rows per-row evaluation keeps, in the
    /// same order: with the join order pinned the float sums are
    /// bit-identical on each engine, and the engines agree with each other.
    #[test]
    fn unnested_subqueries_agree_with_per_row_evaluation(
        conjunct in arb_subquery_conjunct(),
        with_filter in any::<bool>(),
    ) {
        let db = tiny_db();
        let filter = if with_filter { " and o_orderstatus <> 'P'" } else { "" };
        let sql = format!(
            "select count(*), sum(o_totalprice), min(o_orderdate) \
             from orders where {conjunct}{filter}"
        );
        let run = |e: &dyn Dbms| e.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let row_on = run(&RowStore::new(db.clone()).with_optimizer(false));
        let row_off = run(&RowStore::new(db.clone()).with_optimizer(false).with_rewriter(false));
        let col_on = run(&ColStore::new(db.clone()).with_optimizer(false));
        let col_off = run(&ColStore::new(db).with_optimizer(false).with_rewriter(false));
        prop_assert!(
            row_on.approx_eq(&row_off, 0.0),
            "rowstore: join {:?} vs per-row {:?} on {}", row_on.rows, row_off.rows, conjunct
        );
        prop_assert!(
            col_on.approx_eq(&col_off, 0.0),
            "colstore: join {:?} vs per-row {:?} on {}", col_on.rows, col_off.rows, conjunct
        );
        prop_assert!(
            row_on.approx_eq(&col_on, 1e-9),
            "engines disagree on {}: {:?} vs {:?}", conjunct, row_on.rows, col_on.rows
        );
    }
}
