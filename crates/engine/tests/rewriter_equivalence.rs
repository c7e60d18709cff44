//! The rewriter's contract: every rewrite is result-preserving.
//!
//! Both full flights (TPC-H, SSB) plus handcrafted queries that exercise
//! each rule's tricky corners run with the rewriter on and off, on both
//! engines, sequentially and with 4 morsel workers — and every pairing
//! must produce byte-identical ResultSets (column names and debug-exact
//! rows, not just approximate equality).
//!
//! "Off" is also the reference for the unnesting pass: with the rewriter
//! off every subquery runs per outer row through the evaluator, so the
//! semi, anti and group joins are held to the evaluator's semantics —
//! NULL probes, NULLs in the set, empty groups, duplicate inner keys —
//! and to its row order and float bits.

use sqalpel_engine::{ColStore, Database, Dbms, ResultSet, RowStore};
use std::sync::Arc;

/// Byte-identical comparison: Value has no PartialEq by design, so the
/// rows are compared through their exact debug rendering.
fn assert_identical(name: &str, ctx: &str, a: &ResultSet, b: &ResultSet) {
    assert_eq!(a.columns, b.columns, "{name} [{ctx}]: column names differ");
    assert_eq!(
        format!("{:?}", a.rows),
        format!("{:?}", b.rows),
        "{name} [{ctx}]: rows differ"
    );
}

fn check_queries(db: Arc<Database>, queries: &[(&str, &str)]) {
    for &threads in &[1usize, 4] {
        // The join-order optimizer is pinned off on every store: this
        // wall isolates the *rewriter*, and exact row order is only
        // comparable when both sides execute the same join order (see
        // optimizer_equivalence for the optimizer's own wall).
        let row_on = RowStore::new(db.clone())
            .with_threads(threads)
            .with_optimizer(false);
        let row_off = RowStore::new(db.clone())
            .with_threads(threads)
            .with_optimizer(false)
            .with_rewriter(false);
        let col_on = ColStore::new(db.clone())
            .with_threads(threads)
            .with_optimizer(false);
        let col_off = ColStore::new(db.clone())
            .with_threads(threads)
            .with_optimizer(false)
            .with_rewriter(false);
        for (name, sql) in queries {
            let ctx_row = format!("rowstore, threads={threads}");
            let ctx_col = format!("colstore, threads={threads}");
            let a = row_on
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_row}, rewrite on] failed: {e}"));
            let b = row_off
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_row}, rewrite off] failed: {e}"));
            assert_identical(name, &ctx_row, &a, &b);
            let c = col_on
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_col}, rewrite on] failed: {e}"));
            let d = col_off
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} [{ctx_col}, rewrite off] failed: {e}"));
            assert_identical(name, &ctx_col, &c, &d);
        }
    }
}

#[test]
fn tpch_flight_is_rewrite_invariant() {
    let db = Arc::new(Database::tpch(0.0005, 7));
    check_queries(db, &sqalpel_sql::tpch::all_queries());
}

#[test]
fn ssb_flight_is_rewrite_invariant() {
    let db = Arc::new(Database::ssb(0.002, 7));
    check_queries(db, &sqalpel_sql::ssb::all_queries());
}

#[test]
fn rule_corner_cases_are_rewrite_invariant() {
    let db = Arc::new(Database::tpch(0.001, 42));
    let queries: &[(&str, &str)] = &[
        // Constant folding, including short-circuit booleans.
        (
            "const-fold",
            "select n_name from nation where 1 + 1 = 2 and n_regionkey < 2 + 1",
        ),
        (
            "trivial-true-filter",
            "select count(*) from lineitem where 1 = 1",
        ),
        (
            "contradiction-filter",
            "select n_name from nation where 1 = 0",
        ),
        // Pushdown through an inner join plus duplicate equi-conjuncts.
        (
            "dup-equi-conjuncts",
            "select n_name, r_name from nation, region \
             where n_regionkey = r_regionkey and r_regionkey = n_regionkey \
               and r_name = 'ASIA' order by n_name",
        ),
        // Pushdown into a derived table.
        (
            "derived-pushdown",
            "select x_name from (select n_name as x_name, n_regionkey as x_reg \
             from nation) t where x_reg = 2 order by x_name",
        ),
        // Pushdown into a derived table under a join.
        (
            "derived-under-join",
            "select x_name, r_name from \
             (select n_name as x_name, n_regionkey as x_reg from nation) t, region \
             where x_reg = r_regionkey and x_reg < 3 order by x_name, r_name",
        ),
        // Pushdown into a CTE body referenced once.
        (
            "cte-pushdown",
            "with big as (select o_orderkey, o_totalprice, o_custkey from orders) \
             select count(*), sum(o_totalprice) from big where o_custkey < 500",
        ),
        // A CTE referenced twice: per-reference filters must not leak
        // into the shared body.
        (
            "cte-shared-twice",
            "with n as (select n_nationkey, n_name, n_regionkey from nation) \
             select a.n_name, b.n_name from n a, n b \
             where a.n_regionkey = 0 and b.n_regionkey = 1 \
               and a.n_nationkey < b.n_nationkey \
             order by a.n_name, b.n_name",
        ),
        // Projection pruning: a wide scan of which only one column is live.
        (
            "liveness-prune",
            "select count(*) from lineitem where l_quantity < 10",
        ),
        // Left outer joins must keep their filters above the join.
        (
            "left-outer-filter",
            "select n_name, r_name from nation left join region \
             on n_regionkey = r_regionkey and r_name = 'ASIA' \
             order by n_name",
        ),
        // Correlated subquery: the outer column must survive pruning.
        (
            "correlated-subquery",
            "select n_name from nation n where n_regionkey = \
             (select min(r_regionkey) from region where r_regionkey = n.n_regionkey) \
             order by n_name",
        ),
        // Aggregation over an expression the rewriter could fold.
        (
            "agg-over-folded",
            "select l_returnflag, sum(l_quantity * (2 - 1)) from lineitem \
             group by l_returnflag order by l_returnflag",
        ),
        // A conjunct every OR branch shares becomes a hash key (the Q19
        // shape), and a branch that is only the shared part absorbs the OR.
        (
            "or-common-conjunct",
            "select count(*), sum(ps_availqty) from part, partsupp \
             where (p_partkey = ps_partkey and p_size < 10 and ps_availqty > 5000) \
                or (p_partkey = ps_partkey and p_size > 40 and ps_availqty < 1000)",
        ),
        (
            "or-absorbed-branch",
            "select count(*) from part, partsupp \
             where (p_partkey = ps_partkey) or (p_partkey = ps_partkey and p_size > 40)",
        ),
        // A WHERE conjunct on a derived table three joins down sinks
        // through all three in one pass and then into the body.
        (
            "derived-under-three-joins",
            "select count(*), sum(cb) from \
             (select c_custkey as ck, c_nationkey as cn, c_acctbal as cb from customer) t, \
             nation, region, supplier \
             where cn = n_nationkey and n_regionkey = r_regionkey \
               and s_nationkey = n_nationkey and cb > 5000",
        ),
    ];
    let (name, sql) = queries[queries.len() - 1];
    for optimizer in [true, false] {
        let text = RowStore::new(db.clone())
            .with_optimizer(optimizer)
            .explain(sql)
            .unwrap()
            .text;
        // The derived table's block: the lines indented past its header.
        let header = text.lines().find(|l| l.trim() == "derived t").unwrap();
        let depth = header.len() - header.trim_start().len();
        let body: Vec<&str> = text
            .lines()
            .skip_while(|l| l.trim() != "derived t")
            .skip(1)
            .take_while(|l| l.len() - l.trim_start().len() > depth)
            .collect();
        let filters = text
            .lines()
            .filter(|l| l.trim_start().starts_with("filter"));
        assert!(
            body.iter().any(|l| l.trim() == "filter (#2 > 5000)") && filters.count() == 1,
            "{name} (optimizer {optimizer}): the filter is not in the body\n{text}"
        );
    }
    check_queries(db, queries);
}

/// A two-column relation with NULLs in the second column — TPC-H itself
/// has none: every third customer has no orders.
const NULLABLE: &str = "(select c_custkey as ck, o_custkey as ok \
                        from customer left join orders on c_custkey = o_custkey)";

#[test]
fn unnested_subqueries_match_per_row_evaluation() {
    let db = Arc::new(Database::tpch(0.0005, 42));
    let queries: Vec<(&str, String)> = vec![
        // EXISTS / NOT EXISTS with a `<>` correlated residual (Q21).
        (
            "exists-residual",
            "select p1.ps_partkey, p1.ps_suppkey from partsupp p1 where exists \
             (select * from partsupp p2 where p2.ps_partkey = p1.ps_partkey \
              and p2.ps_suppkey <> p1.ps_suppkey and p2.ps_availqty > 9000)"
                .into(),
        ),
        (
            "not-exists-residual",
            "select p1.ps_partkey, sum(p1.ps_supplycost) from partsupp p1 where not exists \
             (select * from partsupp p2 where p2.ps_partkey = p1.ps_partkey \
              and p2.ps_suppkey <> p1.ps_suppkey and p2.ps_availqty > 5000) \
             group by p1.ps_partkey order by p1.ps_partkey"
                .into(),
        ),
        // A residual that reads the outer row only: for the anti join it
        // decides whether anything can match at all.
        (
            "not-exists-outer-only-residual",
            "select count(*), sum(o_totalprice) from orders where not exists \
             (select * from lineitem where l_orderkey = o_orderkey and o_orderstatus = 'F')"
                .into(),
        ),
        // Duplicate inner keys must not duplicate outer rows.
        (
            "in-duplicate-keys",
            "select count(*), sum(o_totalprice) from orders \
             where o_orderkey in (select l_orderkey from lineitem where l_quantity < 30)"
                .into(),
        ),
        (
            "exists-duplicate-keys",
            "select o_orderkey from orders where exists \
             (select * from lineitem where l_orderkey = o_orderkey) and o_orderkey < 200"
                .into(),
        ),
        // NULLs in the probe column: NULL IN / NULL NOT IN are both NULL.
        (
            "in-null-probe",
            format!(
                "select ck, ok from {NULLABLE} t where ok in \
                 (select o_custkey from orders where o_totalprice > 100000)"
            ),
        ),
        (
            "not-in-null-probe",
            format!(
                "select ck, ok from {NULLABLE} t where ok not in \
                 (select o_custkey from orders where o_totalprice > 300000)"
            ),
        ),
        // NULLs in the set: they match nothing and poison nothing.
        (
            "in-null-in-set",
            format!("select c_custkey from customer where c_custkey in (select ok from {NULLABLE} u)"),
        ),
        (
            "not-in-null-in-set",
            format!(
                "select c_custkey from customer where c_custkey not in (select ok from {NULLABLE} u)"
            ),
        ),
        // NULLs on both sides at once.
        (
            "not-in-null-both",
            format!(
                "select ck, ok from {NULLABLE} t where ok not in \
                 (select ok from {NULLABLE} u where ck < 60)"
            ),
        ),
        // A correlation key that can be NULL on both sides: NULL = NULL
        // is not a match, whatever the hash table thinks.
        (
            "exists-null-correlation",
            format!(
                "select ck, ok from {NULLABLE} t where exists \
                 (select * from {NULLABLE} u where u.ok = t.ok and u.ck <> 7)"
            ),
        ),
        (
            "not-exists-null-correlation",
            format!(
                "select ck, ok from {NULLABLE} t where not exists \
                 (select * from {NULLABLE} u where u.ok = t.ok)"
            ),
        ),
        // Empty inner sets.
        (
            "in-empty-set",
            "select count(*) from nation where n_nationkey in \
             (select s_nationkey from supplier where s_acctbal > 1000000)"
                .into(),
        ),
        (
            "not-in-empty-set",
            "select count(*) from nation where n_nationkey not in \
             (select s_nationkey from supplier where s_acctbal > 1000000)"
                .into(),
        ),
        (
            "exists-empty-set",
            "select count(*) from nation where exists \
             (select * from supplier where s_nationkey = n_nationkey and s_acctbal > 1000000)"
                .into(),
        ),
        // Correlated IN / NOT IN: probe key plus correlation key.
        (
            "correlated-in",
            "select ps_partkey, ps_suppkey from partsupp where ps_suppkey in \
             (select l_suppkey from lineitem where l_partkey = ps_partkey and l_quantity > 45)"
                .into(),
        ),
        (
            "correlated-not-in",
            "select count(*), sum(ps_availqty) from partsupp where ps_suppkey not in \
             (select l_suppkey from lineitem where l_partkey = ps_partkey)"
                .into(),
        ),
        // IN over an aggregated body (Q18), and nested unnesting (Q20).
        (
            "in-aggregated-body",
            "select o_orderkey, o_totalprice from orders where o_orderkey in \
             (select l_orderkey from lineitem group by l_orderkey having sum(l_quantity) > 250)"
                .into(),
        ),
        (
            "nested-in-and-scalar",
            "select s_name from supplier where s_suppkey in \
             (select ps_suppkey from partsupp where ps_partkey in \
               (select p_partkey from part where p_size < 20) \
              and ps_availqty > (select 0.5 * sum(l_quantity) from lineitem \
                where l_partkey = ps_partkey and l_suppkey = ps_suppkey)) \
             order by s_name"
                .into(),
        ),
        // Scalar min / avg / sum: float sums, empty groups, subquery on
        // either side of the comparison.
        (
            "scalar-avg",
            "select sum(l_extendedprice) / 7.0, count(*) from lineitem, part \
             where p_partkey = l_partkey and p_size < 8 and l_quantity < \
             (select 0.2 * avg(l_quantity) from lineitem where l_partkey = p_partkey)"
                .into(),
        ),
        (
            "scalar-min-some-groups-empty",
            "select c_custkey, c_acctbal from customer where c_acctbal * 40 > \
             (select min(o_totalprice) from orders where o_custkey = c_custkey)"
                .into(),
        ),
        (
            "scalar-sum-on-the-left",
            "select c_custkey from customer where \
             (select sum(o_totalprice) from orders where o_custkey = c_custkey) > 2000000"
                .into(),
        ),
        (
            "scalar-all-groups-empty",
            "select count(*) from orders where o_totalprice > \
             (select sum(l_extendedprice) from lineitem \
              where l_orderkey = o_orderkey and l_quantity > 100)"
                .into(),
        ),
        (
            "scalar-null-correlation-key",
            format!(
                "select ck, ok from {NULLABLE} t where ck * 10000 > \
                 (select max(o_totalprice) from orders where o_custkey = t.ok)"
            ),
        ),
        // Several subquery conjuncts in one block, a group join between
        // two semi joins: every later slot must still line up.
        (
            "mixed-conjuncts",
            "select o_orderkey, o_totalprice from orders where exists \
             (select * from lineitem where l_orderkey = o_orderkey and l_quantity > 48) \
             and o_totalprice > (select 3 * avg(l_extendedprice) from lineitem \
               where l_orderkey = o_orderkey) \
             and o_custkey not in (select c_custkey from customer where c_acctbal < 0) \
             and o_orderstatus <> 'P'"
                .into(),
        ),
        // Every fallback shape stays on the per-row path and still agrees.
        (
            "fallback-under-or",
            "select count(*) from orders where o_totalprice > 400000 or exists \
             (select * from lineitem where l_orderkey = o_orderkey and l_quantity > 49)"
                .into(),
        ),
        (
            "fallback-count",
            "select count(*) from customer where 12 < \
             (select count(*) from orders where o_custkey = c_custkey)"
                .into(),
        ),
        (
            "fallback-select-list",
            "select c_custkey, (select max(o_totalprice) from orders where o_custkey = c_custkey) \
             from customer where c_custkey < 20 order by c_custkey"
                .into(),
        ),
        (
            "fallback-two-level-correlation",
            "select s_suppkey from supplier where exists \
             (select * from partsupp where ps_suppkey = s_suppkey and ps_availqty > 9900 \
              and exists (select * from lineitem \
                where l_partkey = ps_partkey and l_suppkey = s_suppkey))"
                .into(),
        ),
        (
            "fallback-limit-inside",
            "select count(*) from customer where c_custkey in \
             (select o_custkey from orders where o_custkey = c_custkey limit 1)"
                .into(),
        ),
        (
            "fallback-no-equality",
            "select count(*) from supplier where exists \
             (select * from customer where c_acctbal > s_acctbal + 5000)"
                .into(),
        ),
        (
            "fallback-inexact-key",
            "select count(*) from orders where o_totalprice in \
             (select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
                .into(),
        ),
        // The body under OR holds a group join of its own, bound before
        // the outer group join is named: the outer one is `$sq2` however
        // the plan is used.
        (
            "fallback-under-or-beside-a-group-join",
            "select count(*) from partsupp ps1, part where p_partkey = ps1.ps_partkey \
             and (p_size = 1 or exists (select * from lineitem where l_partkey = p_partkey \
               and l_quantity > (select avg(l_quantity) from lineitem l2 \
                 where l2.l_partkey = lineitem.l_partkey))) \
             and ps1.ps_supplycost <= (select min(ps_supplycost) from partsupp ps2 \
               where ps2.ps_partkey = p_partkey)"
                .into(),
        ),
        // Pruning keeps what a body left in place reads of the outer row:
        // `o_custkey` is read by nothing else in the outer block.
        (
            "fallback-outer-column-only-the-body-reads",
            "select o_orderkey from orders where o_orderkey < 100 or exists \
             (select * from lineitem where l_orderkey = o_orderkey and l_suppkey < o_custkey)"
                .into(),
        ),
        // The same with a nested body that does not bind, in a CASE arm no
        // row reaches: it protects no column, and nothing fails.
        (
            "fallback-outer-column-beside-a-body-that-does-not-bind",
            "select o_orderkey from orders where o_orderkey < 100 or exists \
             (select * from lineitem where l_orderkey = o_orderkey and l_suppkey < \
              case when l_quantity > 1000 then (select max(o_clerk) from nosuchtable) \
              else o_custkey end)"
                .into(),
        ),
        // A CTE scanned once by the outer block and again by a body left in
        // place: the outer `o_custkey < 40` must not filter its rows.
        (
            "fallback-cte-read-by-a-body-under-or",
            "with big as (select o_orderkey, o_custkey, o_totalprice from orders) \
             select count(*), sum(o_totalprice) from big where o_custkey < 40 \
             and (o_orderkey < 50 or exists \
               (select * from big b2 where b2.o_custkey = big.o_custkey + 30))"
                .into(),
        ),
    ];
    // The wall only means something if each case takes the path its
    // name says: a join for the unnested ones, the evaluator per row for
    // the fallbacks. And the plan that runs is the plan EXPLAIN shows:
    // executing a case reports its EXPLAIN fingerprint on both engines.
    let row = RowStore::new(db.clone());
    let col = ColStore::new(db.clone());
    for (name, sql) in &queries {
        let explained = row.explain(sql).unwrap();
        let text = &explained.text;
        assert_eq!(
            text.contains("subquery per-row"),
            name.starts_with("fallback-"),
            "{name} took the other path:\n{text}"
        );
        for system in [&row as &dyn Dbms, &col] {
            let ran = system.execute_by_fingerprint(sql, None).unwrap();
            assert_eq!(
                ran.fingerprint,
                explained.fingerprint,
                "{name} on {}: executed under another fingerprint than EXPLAIN's\n{text}",
                system.label()
            );
        }
        if *name == "fallback-under-or-beside-a-group-join" {
            assert_eq!(explained.fingerprint_hex(), "a0bc7b3dc92e735f", "{text}");
        }
        if *name == "fallback-cte-read-by-a-body-under-or" {
            let cte: Vec<&str> = text
                .lines()
                .skip_while(|l| l.trim() != "cte big:")
                .skip(1)
                .take_while(|l| l.starts_with("    "))
                .collect();
            assert!(
                !cte.is_empty() && !cte.iter().any(|l| l.trim_start().starts_with("filter")),
                "the CTE a body reads was filtered:\n{text}"
            );
        }
    }
    let borrowed: Vec<(&str, &str)> = queries.iter().map(|(n, q)| (*n, q.as_str())).collect();
    check_queries(db, &borrowed);
}

/// Fails at the parent of the unnesting change: there the column engine
/// evaluates the correlated body of Q4 and Q20 once per outer row,
/// re-scanning `lineitem` each time, and at SF 0.005 runs into the default
/// 200 M-row budget (`EngineError::Budget`). As joins, one build and one
/// probe fit with room to spare — and still say what per-row evaluation
/// says (the row engine's per-row path fits the budget at this scale).
#[test]
fn subquery_class_fits_the_default_budget_at_sf_0_005() {
    let db = Arc::new(Database::tpch(0.005, 15));
    let col = ColStore::new(db.clone());
    let reference = RowStore::new(db).with_rewriter(false);
    for name in ["Q4", "Q20"] {
        let sql = sqalpel_sql::tpch::query(name).unwrap();
        let got = col
            .execute(sql)
            .unwrap_or_else(|e| panic!("{name} on colstore under the default budget: {e}"));
        assert!(got.row_count() > 0, "{name} returned no rows");
        let want = reference.execute(sql).unwrap();
        assert!(
            got.canonicalized().approx_eq(&want.canonicalized(), 1e-9),
            "{name}: joins {:?} vs per-row {:?}",
            got.rows,
            want.rows
        );
    }
}

/// A semi or anti join is a membership probe, not a join: on a key with a
/// handful of distinct values the candidate pairs are the product of the
/// two inputs (30 k x 30 k `lineitem` rows here, over the default budget
/// four times), the probe one lookup per outer row. Every uncorrelated
/// `IN` takes this path, so both engines must answer within the default
/// budget what per-row evaluation against the cached set answers — and,
/// with a residual, stop each outer row at its first passing candidate.
#[test]
fn low_cardinality_semi_joins_probe_instead_of_pairing() {
    let db = Arc::new(Database::tpch(0.005, 15));
    let engines: [(&str, Box<dyn Dbms>); 2] = [
        ("rowstore", Box::new(RowStore::new(db.clone()))),
        ("colstore", Box::new(ColStore::new(db.clone()))),
    ];
    let reference = RowStore::new(db).with_rewriter(false);
    for (sql, kind) in [
        (
            "select count(*) from lineitem where l_returnflag in \
             (select l_returnflag from lineitem)",
            "join semi",
        ),
        (
            "select count(*) from lineitem where l_shipmode in \
             (select l_shipmode from lineitem where l_quantity > 10)",
            "join semi",
        ),
        (
            "select count(*) from lineitem where l_shipmode not in \
             (select l_shipmode from lineitem where l_shipinstruct = 'NONE' and l_tax > 0.07)",
            "join anti",
        ),
    ] {
        let want = reference.execute(sql).unwrap();
        for (name, engine) in &engines {
            let text = engine.explain(sql).unwrap().text;
            assert!(text.contains(kind), "{name}: no {kind} in\n{text}");
            let got = engine
                .execute(sql)
                .unwrap_or_else(|e| panic!("{name} under the default budget: {e}\n{sql}"));
            assert_eq!(got.to_csv(), want.to_csv(), "{name}: {sql}");
        }
    }
    // Correlated on a three-valued key with a residual nearly every
    // candidate passes: the per-row reference is out of reach here (a
    // `lineitem` scan per `lineitem` row), so the engines check each other.
    let sql = "select count(*) from lineitem l1 where exists (select * from lineitem l2 \
               where l2.l_returnflag = l1.l_returnflag and l2.l_quantity <> l1.l_quantity)";
    let results: Vec<_> = engines
        .iter()
        .map(|(name, e)| e.execute(sql).unwrap_or_else(|e| panic!("{name}: {e}\n{sql}")))
        .collect();
    assert_eq!(results[0].to_csv(), results[1].to_csv(), "{sql}");
}
