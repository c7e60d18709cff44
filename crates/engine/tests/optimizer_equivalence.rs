//! The optimizer's contract: join reordering is result-preserving.
//!
//! Both full flights (TPC-H, SSB) plus handcrafted multi-join queries
//! run with the cost-based optimizer on and off, on both engines,
//! sequentially and with 4 morsel workers. Every pairing must produce
//! the same *result set*: identical column names and the same rows
//! after sorting — a reordered join legally permutes row order
//! wherever ORDER BY is absent or not a total order, so exact row
//! order is the rewriter wall's concern, not this one's.
//!
//! How equal "the same rows" is depends on the engine's arithmetic:
//!
//! * ColStore sums decimals as exact `i128`s, so a different join
//!   order feeds the same addends in a different order to an
//!   associative sum: it is compared byte for byte, and holds on
//!   every query here, `avg` included (one division of an exact sum).
//! * RowStore folds `f64`s in arrival order, and float addition is not
//!   associative: a reordered join moves sums by an ulp or two (Q9 and
//!   SSB-Q3.1 at these scales). It is compared the way
//!   `cross_engine.rs` compares engines: canonical row order, relative
//!   tolerance 1e-9. Non-numeric cells still compare exactly.
//!
//! On top of row equality, the optimizer must never move a
//! fingerprint: the canonical form is join-order-invariant, so EXPLAIN
//! with the optimizer on and off must hash identically. And so that
//! this wall cannot silently compare a plan with itself, two tests at
//! the bottom check that "off" really is off: the join-heavy TPC-H
//! queries render a different plan, and `execute` touches the rows of
//! the syntactic plan, not of the optimized one.

use sqalpel_engine::storage::{int_col, str_col, Table};
use sqalpel_engine::{ColStore, Database, Dbms, ResultSet, RowStore};
use std::sync::Arc;

/// Order-insensitive byte-exact comparison: each row's debug rendering
/// is collected and sorted, so any permutation of identical rows
/// passes and any value difference fails.
fn sorted_rows(rs: &ResultSet) -> Vec<String> {
    let mut v: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

fn assert_same_set_exact(name: &str, ctx: &str, a: &ResultSet, b: &ResultSet) {
    assert_eq!(a.columns, b.columns, "{name} [{ctx}]: column names differ");
    assert_eq!(
        sorted_rows(a),
        sorted_rows(b),
        "{name} [{ctx}]: row sets differ"
    );
}

fn assert_same_set_f64(name: &str, ctx: &str, a: &ResultSet, b: &ResultSet) {
    assert_eq!(a.columns, b.columns, "{name} [{ctx}]: column names differ");
    assert!(
        a.canonicalized().approx_eq(&b.canonicalized(), 1e-9),
        "{name} [{ctx}]: row sets differ beyond float reassociation\n--- optimized ---\n{a}\n--- syntactic ---\n{b}"
    );
}

fn check_queries(db: Arc<Database>, queries: &[(&str, &str)]) {
    // Fingerprint invariance is thread-independent; check it once.
    let on = RowStore::new(db.clone());
    let off = RowStore::new(db.clone()).with_optimizer(false);
    for (name, sql) in queries {
        let a = on.explain(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = off.explain(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{name}: fingerprint moved with the join order\n--- optimized ---\n{}\n--- syntactic ---\n{}",
            a.text, b.text
        );
    }
    for &threads in &[1usize, 4] {
        let row_on = RowStore::new(db.clone()).with_threads(threads);
        let row_off = RowStore::new(db.clone())
            .with_threads(threads)
            .with_optimizer(false);
        let col_on = ColStore::new(db.clone()).with_threads(threads);
        let col_off = ColStore::new(db.clone())
            .with_threads(threads)
            .with_optimizer(false);
        for (name, sql) in queries {
            let ctx_row = format!("rowstore, threads={threads}");
            let ctx_col = format!("colstore, threads={threads}");
            let a = row_on
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_row}, optimizer on] failed: {e}"));
            let b = row_off
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_row}, optimizer off] failed: {e}"));
            assert_same_set_f64(name, &ctx_row, &a, &b);
            let c = col_on
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_col}, optimizer on] failed: {e}"));
            let d = col_off
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_col}, optimizer off] failed: {e}"));
            assert_same_set_exact(name, &ctx_col, &c, &d);
            // No cross-engine assert here: the engines intentionally
            // differ in aggregate value representation (float vs
            // decimal); cross_engine.rs owns that comparison with the
            // appropriate normalization.
        }
    }
}

/// A FROM list written in the worst order: big relations first, the
/// selective region filter dead last.
const WORST_SYNTACTIC_ORDER: &str =
    "select count(*) from lineitem, orders, customer, nation, region \
     where l_orderkey = o_orderkey and o_custkey = c_custkey \
       and c_nationkey = n_nationkey and n_regionkey = r_regionkey \
       and r_name = 'ASIA'";

#[test]
fn tpch_flight_is_join_order_invariant() {
    let db = Arc::new(Database::tpch(0.0005, 7));
    check_queries(db, &sqalpel_sql::tpch::all_queries());
}

#[test]
fn ssb_flight_is_join_order_invariant() {
    let db = Arc::new(Database::ssb(0.002, 7));
    check_queries(db, &sqalpel_sql::ssb::all_queries());
}

#[test]
fn multi_join_corner_cases_are_join_order_invariant() {
    let db = Arc::new(Database::tpch(0.001, 42));
    let from: Vec<String> = (1..=17).map(|i| format!("nation n{i}")).collect();
    let on: Vec<String> = (2..=17)
        .map(|i| format!("n{}.n_nationkey = n{i}.n_nationkey", i - 1))
        .collect();
    let nation_chain = format!(
        "select count(*) from {} where {}",
        from.join(", "),
        on.join(" and ")
    );
    let queries: &[(&str, &str)] = &[
        ("worst-syntactic-order", WORST_SYNTACTIC_ORDER),
        // An unconnected FROM item: the optimizer must cope with a
        // genuine cross product in the region.
        (
            "cross-product-region",
            "select count(*) from region, nation, supplier \
             where n_nationkey = s_nationkey",
        ),
        // Join with a non-equi (residual) predicate between two tables.
        (
            "residual-join",
            "select count(*) from part, lineitem \
             where p_partkey = l_partkey and l_quantity < p_size",
        ),
        // LEFT OUTER is a reorder barrier; inner regions on both sides.
        (
            "outer-barrier",
            "select n_name, count(r_name) from nation \
             left join region on n_regionkey = r_regionkey and r_name like 'A%' \
             group by n_name order by n_name",
        ),
        // A derived table as a region leaf, its body its own region.
        (
            "derived-leaf",
            "select count(*) from \
             (select o_orderkey, o_custkey from orders where o_totalprice > 1000) o, \
             customer, nation \
             where o_custkey = c_custkey and c_nationkey = n_nationkey",
        ),
        // CTE referenced twice: both references are leaves of one region.
        (
            "cte-twice",
            "with n as (select n_nationkey, n_name, n_regionkey from nation) \
             select count(*) from n a, n b, region \
             where a.n_regionkey = r_regionkey and b.n_regionkey = r_regionkey \
               and a.n_nationkey < b.n_nationkey",
        ),
        // Correlated subquery predicate: immovable, must stay above the
        // region while the rest reorders.
        (
            "correlated-immovable",
            "select count(*) from supplier, nation \
             where s_nationkey = n_nationkey \
               and s_acctbal > (select min(c_acctbal) from customer \
                                where c_nationkey = n_nationkey)",
        ),
        // Self-join chain with an ORDER BY that is not a total order.
        (
            "partial-order-by",
            "select a.n_regionkey, b.n_name from nation a, nation b, region \
             where a.n_regionkey = b.n_regionkey and a.n_regionkey = r_regionkey \
             order by a.n_regionkey",
        ),
        // One leaf past `MAX_DP`: the region is not searched but keeps
        // its tree as bound, keys placed. Without them the binder's
        // keyless chain would touch 25^17 rows, far past the default
        // budget.
        ("past-max-dp", &nation_chain),
        // The tree as bound is bushy: region over (nation ⋈ supplier).
        (
            "bushy-as-bound",
            "select count(*) from region, nation join supplier on n_nationkey = s_nationkey \
             where r_regionkey = n_regionkey",
        ),
        // A two-table non-equality and a three-table equality: each is
        // placed at its lowest covering join, the latter a key only
        // where its sides fall on the two inputs.
        (
            "non-equality-and-three-table-equality",
            "select count(*) from nation, supplier, customer \
             where s_nationkey = n_nationkey \
               and c_nationkey + s_nationkey = n_nationkey + n_nationkey \
               and s_acctbal < c_acctbal",
        ),
    ];
    check_queries(db, queries);
}

/// people(id, name, dept), pets(owner_id, pet): `sql_semantics`' tiny
/// database. Two of four people share each dept, dan (id 4) has no pets,
/// so a left join from people to pets yields one NULL `owner_id`.
fn people_and_pets() -> Arc<Database> {
    let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut db = Database::new();
    let people = Table::new(
        "people",
        vec![
            int_col("id", [1, 2, 3, 4].into_iter()),
            str_col("name", strings(&["ann", "bob", "cat", "dan"]).into_iter()),
            str_col("dept", strings(&["eng", "eng", "ops", "ops"]).into_iter()),
        ],
    );
    db.add_table(people.unwrap());
    let pets = Table::new(
        "pets",
        vec![
            int_col("owner_id", [1, 1, 2, 3].into_iter()),
            str_col("pet", strings(&["cat", "dog", "fish", "cat"]).into_iter()),
        ],
    );
    db.add_table(pets.unwrap());
    Arc::new(db)
}

/// The semi and anti joins of an EXPLAIN text: how many sit above its
/// first inner join, and how many there are.
fn semi_anti_above_region(text: &str) -> (usize, usize) {
    let joins: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("join "))
        .collect();
    let is_filter = |l: &&&str| l.starts_with("join semi") || l.starts_with("join anti");
    let above = joins.iter().take_while(|l| !l.starts_with("join inner"));
    let all = joins.iter().filter(is_filter).count();
    (above.filter(is_filter).count(), all)
}

/// Moving a semi or anti join from above an inner-join region onto the
/// leaf it filters changes no result: each case runs with the optimizer
/// on and off, on both engines at 1 and 4 workers. Each case is also
/// checked to take the placement it is named for: with the optimizer on,
/// the named number of semi and anti joins stays above the region, the
/// rest sit on a leaf; with it off, all stay above.
#[test]
fn semi_and_anti_join_placement_is_result_preserving() {
    const PAIRS: &str = "from people p1, people p2 where p1.dept = p2.dept";
    let tiny = [
        (
            "not-in-with-a-null-in-the-set-on-a-leaf",
            format!(
                "select p1.name, p2.name {PAIRS} and p1.id not in \
                 (select pets.owner_id from people left join pets on id = pets.owner_id)"
            ),
            0,
        ),
        (
            "not-exists-on-a-leaf",
            format!(
                "select p1.name, p2.name {PAIRS} and not exists \
                 (select * from pets where owner_id = p1.id)"
            ),
            0,
        ),
        (
            "exists-reading-two-leaves-stays-on-top",
            format!(
                "select p1.name, p2.name {PAIRS} and exists \
                 (select * from pets where owner_id = p1.id and pet <> p2.name)"
            ),
            1,
        ),
        (
            "semi-and-anti-chain-on-one-leaf",
            format!(
                "select p1.name, p2.name {PAIRS} \
                 and exists (select * from pets where owner_id = p1.id) \
                 and not exists (select * from pets where owner_id = p1.id and pet = 'fish')"
            ),
            0,
        ),
        (
            "semi-on-a-leaf-under-an-anti-on-top",
            format!(
                "select p1.name, p2.name {PAIRS} \
                 and exists (select * from pets where owner_id = p1.id) \
                 and not exists (select * from pets where owner_id = p2.id and pet = p1.name)"
            ),
            1,
        ),
    ];
    // Q18's shape at a threshold this scale meets: an IN over a grouped
    // body under a three-way join.
    let q18_shape = [(
        "in-under-a-three-way-join",
        "select c_name, o_orderkey, sum(l_quantity) from customer, orders, lineitem \
         where o_orderkey in (select l_orderkey from lineitem group by l_orderkey \
                              having sum(l_quantity) > 200) \
           and c_custkey = o_custkey and o_orderkey = l_orderkey \
         group by c_name, o_orderkey"
            .to_string(),
        0,
    )];
    for (db, cases) in [
        (people_and_pets(), &tiny[..]),
        (Arc::new(Database::tpch(0.001, 42)), &q18_shape[..]),
    ] {
        let on = RowStore::new(db.clone());
        let off = on.clone().with_optimizer(false);
        for (name, sql, above) in cases {
            let placed = on.explain(sql).unwrap().text;
            let (top, all) = semi_anti_above_region(&placed);
            assert!(all > 0, "{name}: no semi or anti join\n{placed}");
            assert_eq!(top, *above, "{name}: placement\n{placed}");
            let bound = off.explain(sql).unwrap().text;
            let (top, _) = semi_anti_above_region(&bound);
            assert_eq!(top, all, "{name}: optimizer off\n{bound}");
            let rows = on.execute(sql).unwrap().row_count();
            assert!(rows > 0, "{name}: an empty result proves little");
        }
        let queries: Vec<(&str, &str)> = cases.iter().map(|(n, q, _)| (*n, q.as_str())).collect();
        check_queries(db, &queries);
    }
}

/// The wall above is only a wall if "off" plans differ from "on" plans.
/// At the scale `plan_goldens` pins (SF 0.001, seed 42) all six queries
/// there are known to reorder or, Q18, to move their semi join: the
/// rendered plans must differ while the fingerprints agree.
#[test]
fn optimizer_off_renders_a_different_plan_on_the_plan_golden_queries() {
    let db = Arc::new(Database::tpch(0.001, 42));
    let on = RowStore::new(db.clone());
    let off = RowStore::new(db).with_optimizer(false);
    for name in ["Q5", "Q7", "Q8", "Q9", "Q18", "Q21"] {
        let sql = sqalpel_sql::tpch::query(name).expect("a TPC-H query");
        let a = on.explain(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = off.explain(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_ne!(
            a.text, b.text,
            "{name}: optimizer off rendered the optimized plan"
        );
        assert_eq!(a.fingerprint, b.fingerprint, "{name}: fingerprint moved");
    }
}

/// `execute` must run the plan `explain` shows. The row budget counts
/// rows touched, which is deterministic: on this database the optimized
/// five-way join touches under 19k rows on either engine and the
/// syntactic one over 52k, so a budget between the two tells them
/// apart without a timer. An `execute` that binds without the store's
/// flags runs the optimized plan on both stores and fails here.
#[test]
fn optimizer_off_executes_the_syntactic_plan() {
    const BUDGET: u64 = 30_000;
    let db = Arc::new(Database::tpch(0.001, 42));
    let row = RowStore::new(db.clone())
        .with_threads(1)
        .with_budget(BUDGET);
    let row_off = row.clone().with_optimizer(false);
    let col = ColStore::new(db).with_threads(1).with_budget(BUDGET);
    let col_off = col.clone().with_optimizer(false);
    let pairs: [(&dyn Dbms, &dyn Dbms); 2] = [(&row, &row_off), (&col, &col_off)];
    for (on, off) in pairs {
        let label = on.label();
        on.execute(WORST_SYNTACTIC_ORDER)
            .unwrap_or_else(|e| panic!("{label}: optimized plan must fit the budget: {e}"));
        let err = off
            .execute(WORST_SYNTACTIC_ORDER)
            .expect_err("the syntactic plan must exceed the budget");
        assert!(err.to_string().contains("budget"), "{label}: {err}");
    }
}
