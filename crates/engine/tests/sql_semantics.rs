//! Golden SQL-semantics tests on a tiny hand-built database: exact
//! expected outputs for the corners that differ between naive and correct
//! implementations — NULL propagation through outer joins and aggregates,
//! three-valued logic in filters, DISTINCT aggregates, HAVING over
//! post-aggregation expressions, ORDER BY with NULLs and ties, LIMIT
//! edges. Every assertion runs on both engines.

use sqalpel_engine::storage::{date_col, dec_col, int_col, str_col, Table};
use sqalpel_engine::{ColStore, Database, Dbms, ResultSet, RowStore, Value};
use std::sync::Arc;

/// people(id, name, dept, salary_cents), pets(owner_id, pet)
/// dept "eng" has 2 people, "ops" 1, and one person (id 4) has no pets.
fn tiny_db() -> Arc<Database> {
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "people",
            vec![
                int_col("id", [1, 2, 3, 4].into_iter()),
                str_col(
                    "name",
                    ["ann", "bob", "cat", "dan"].iter().map(|s| s.to_string()),
                ),
                str_col(
                    "dept",
                    ["eng", "eng", "ops", "ops"].iter().map(|s| s.to_string()),
                ),
                dec_col("salary", [10000, 20000, 15000, 15000].into_iter(), 2),
            ],
        )
        .unwrap(),
    );
    db.add_table(
        Table::new(
            "pets",
            vec![
                int_col("owner_id", [1, 1, 2, 3].into_iter()),
                str_col(
                    "pet",
                    ["cat", "dog", "fish", "cat"].iter().map(|s| s.to_string()),
                ),
            ],
        )
        .unwrap(),
    );
    Arc::new(db)
}

fn on_both(sql: &str, check: impl Fn(&ResultSet, &str)) {
    on_both_over(tiny_db(), sql, check)
}

fn on_both_over(db: Arc<Database>, sql: &str, check: impl Fn(&ResultSet, &str)) {
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        let result = dbms
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql} failed on {}: {e}", dbms.label()));
        check(&result, &dbms.label());
    }
}

fn cell(r: &ResultSet, row: usize, col: usize) -> String {
    r.rows[row][col].to_string()
}

#[test]
fn left_outer_join_null_padding_and_count_semantics() {
    // dan (id 4) has no pets: count(pet) must be 0 (NULLs skipped),
    // count(*) must be 1 (the padded row exists).
    on_both(
        "select name, count(pet), count(*) from people \
         left outer join pets on id = owner_id \
         group by name order by name",
        |r, label| {
            assert_eq!(r.row_count(), 4, "{label}");
            // ann: 2 pets; bob 1; cat 1; dan 0 but count(*) 1.
            assert_eq!((cell(r, 0, 0), cell(r, 0, 1)), ("ann".into(), "2".into()), "{label}");
            assert_eq!((cell(r, 3, 0), cell(r, 3, 1), cell(r, 3, 2)),
                ("dan".into(), "0".into(), "1".into()), "{label}");
        },
    );
}

#[test]
fn null_comparisons_filter_nothing_in() {
    // pet IS NULL only for dan's padded row; pet = 'cat' excludes it by
    // three-valued logic (NULL = 'cat' is NULL, not true).
    on_both(
        "select name from people left outer join pets on id = owner_id \
         where pet = 'cat' order by name",
        |r, label| {
            assert_eq!(r.row_count(), 2, "{label}");
            assert_eq!(cell(r, 0, 0), "ann", "{label}");
            assert_eq!(cell(r, 1, 0), "cat", "{label}");
        },
    );
    on_both(
        "select name from people left outer join pets on id = owner_id \
         where pet is null",
        |r, label| {
            assert_eq!(r.row_count(), 1, "{label}");
            assert_eq!(cell(r, 0, 0), "dan", "{label}");
        },
    );
}

#[test]
fn distinct_aggregate_vs_plain() {
    on_both(
        "select count(pet), count(distinct pet) from pets",
        |r, label| {
            assert_eq!(cell(r, 0, 0), "4", "{label}");
            assert_eq!(cell(r, 0, 1), "3", "{label}"); // cat, dog, fish
        },
    );
}

#[test]
fn having_filters_on_aggregates_not_rows() {
    on_both(
        "select dept, sum(salary) as total from people group by dept \
         having sum(salary) > 250.00 order by dept",
        |r, label| {
            assert_eq!(r.row_count(), 2, "{label}");
            assert_eq!(cell(r, 0, 0), "eng", "{label}");
            assert_eq!(cell(r, 1, 0), "ops", "{label}");
        },
    );
    on_both(
        "select dept from people group by dept having count(*) > 2",
        |r, label| assert_eq!(r.row_count(), 0, "{label}"),
    );
}

#[test]
fn avg_min_max_over_decimals() {
    on_both(
        "select avg(salary), min(salary), max(salary) from people",
        |r, label| {
            let avg = r.rows[0][0].as_f64().unwrap();
            assert!((avg - 150.0).abs() < 1e-9, "{label}: {avg}");
            assert_eq!(cell(r, 0, 1), "100.00", "{label}");
            assert_eq!(cell(r, 0, 2), "200.00", "{label}");
        },
    );
}

#[test]
fn order_by_ties_and_desc() {
    // cat and dan tie on salary; secondary key disambiguates.
    on_both(
        "select name, salary from people order by salary desc, name desc",
        |r, label| {
            let names: Vec<String> = (0..4).map(|i| cell(r, i, 0)).collect();
            assert_eq!(names, ["bob", "dan", "cat", "ann"], "{label}");
        },
    );
}

#[test]
fn order_by_nulls_last() {
    on_both(
        "select name, pet from people left outer join pets on id = owner_id \
         order by pet, name",
        |r, label| {
            // The NULL pet (dan) sorts last.
            let last = r.rows.last().unwrap();
            assert_eq!(last[0].to_string(), "dan", "{label}");
            assert!(last[1].is_null(), "{label}");
        },
    );
}

#[test]
fn limit_edges() {
    on_both("select name from people order by name limit 0", |r, label| {
        assert_eq!(r.row_count(), 0, "{label}");
    });
    on_both("select name from people order by name limit 99", |r, label| {
        assert_eq!(r.row_count(), 4, "{label}");
    });
}

#[test]
fn distinct_rows() {
    on_both("select distinct dept from people order by dept", |r, label| {
        assert_eq!(r.row_count(), 2, "{label}");
        assert_eq!(cell(r, 0, 0), "eng", "{label}");
    });
}

#[test]
fn case_with_null_operand_branches() {
    on_both(
        "select name, case when pet is null then 'lonely' else pet end as status \
         from people left outer join pets on id = owner_id \
         where name = 'dan'",
        |r, label| {
            assert_eq!(cell(r, 0, 1), "lonely", "{label}");
        },
    );
}

#[test]
fn scalar_subquery_empty_is_null() {
    on_both(
        "select count(*) from people \
         where salary > (select sum(salary) from people where dept = 'none')",
        |r, label| {
            // The subquery's sum over zero rows is NULL; NULL comparison
            // filters everything.
            assert_eq!(cell(r, 0, 0), "0", "{label}");
        },
    );
}

#[test]
fn in_and_not_in_lists() {
    on_both(
        "select count(*) from people where dept in ('eng', 'hr')",
        |r, label| assert_eq!(cell(r, 0, 0), "2", "{label}"),
    );
    on_both(
        "select count(*) from people where dept not in ('eng')",
        |r, label| assert_eq!(cell(r, 0, 0), "2", "{label}"),
    );
}

#[test]
fn arithmetic_and_division_in_projection() {
    on_both(
        "select name, salary * 2 as double_pay, salary / 4 as quarter \
         from people where name = 'ann'",
        |r, label| {
            assert!((r.rows[0][1].as_f64().unwrap() - 200.0).abs() < 1e-9, "{label}");
            assert!((r.rows[0][2].as_f64().unwrap() - 25.0).abs() < 1e-9, "{label}");
        },
    );
}

#[test]
fn a_decimal_literal_scale_4_cannot_hold_stays_a_float() {
    // 2^120 at scale 4 needs a raw past `i128`: the literal is the float
    // it reads as (it once saturated to i128::MAX, 1.7e34), and so is an
    // integer plus it, on both engines. 0.05 still fits, exactly.
    let two_120 = "1329227995784915872903807060280344576.0";
    on_both(
        &format!("select {two_120}, id + {two_120}, 0.05 from people where id = 1"),
        |r, label| {
            let big = Value::Float(2f64.powi(120));
            let want = [big.clone(), big, Value::Decimal { raw: 500, scale: 4 }];
            assert_eq!(format!("{:?}", r.rows[0]), format!("{want:?}"), "{label}");
        },
    );
}

/// A decimal literal keeps its digits: up to 4 fractional digits it is
/// the scale-4 decimal it always was, exactly, however many digits come
/// before the point (an `f64` would round 9007199254740993 and invent
/// digits past 16); with more it is the float its digits read as. Both
/// engines.
#[test]
fn a_decimal_literal_keeps_its_digits() {
    on_both(
        "select 9007199254740993.0, 12345678901234567.89, -0.1234567, 1.50 \
         from people where id = 1",
        |r, label| {
            let want = [
                Value::Decimal { raw: 90071992547409930000, scale: 4 },
                Value::Decimal { raw: 123456789012345678900, scale: 4 },
                Value::Float(-0.1234567),
                Value::Decimal { raw: 15000, scale: 4 },
            ];
            assert_eq!(format!("{:?}", r.rows[0]), format!("{want:?}"), "{label}");
        },
    );
}

/// A literal with more fractional digits than scale 4 holds scales a
/// decimal as a float, the same on both engines. As a decimal it would
/// meet guarded `*`'s scale-6 cap on ColStore, which cuts `d * 0.0000001`
/// to 0 for every `|d| < 10`, and the join below would pair all 9 rows
/// there and none on RowStore.
#[test]
fn a_fine_literal_times_a_decimal_is_the_same_float_on_both_engines() {
    let mut db = Database::new();
    let cols = vec![int_col("k", 1..=3), dec_col("d", [1, 2, 3].into_iter(), 2)];
    db.add_table(Table::new("small", cols).unwrap());
    let db = Arc::new(db);
    on_both_over(db.clone(), "select d * 0.0000001 from small order by k", |r, label| {
        let want: Vec<Value> = [0.01, 0.02, 0.03].map(|d| Value::Float(d * 1e-7)).into();
        let got: Vec<Value> = r.rows.iter().map(|row| row[0].clone()).collect();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
    });
    on_both_over(
        db,
        "select count(*) from small a, small b where a.d * 0.0000001 = b.d * 0.00000011",
        |r, label| assert_eq!(cell(r, 0, 0), "0", "{label}"),
    );
}

/// Decimals that differ only past the sixth fractional digit are
/// different keys: DISTINCT, GROUP BY and a hash join keep them apart, as
/// `=` does, also from the integer whose float they round to. (The
/// scale-6 key image cannot hold them; they key in lowest terms.) Both
/// engines.
#[test]
fn decimals_past_scale_6_are_distinct_keys() {
    let mut db = Database::new();
    // d: 1.00000000000000001, 1, 0.1234567, 0.1234568, 1.00000000000000001
    let one = 100_000_000_000_000_000;
    let raws = [one + 1, one, 12_345_670_000_000_000, 12_345_680_000_000_000, one + 1];
    let cols = vec![int_col("id", 1..=5), dec_col("d", raws.into_iter(), 17)];
    db.add_table(Table::new("fine", cols).unwrap());
    db.add_table(Table::new("ints", vec![int_col("k", [1, 2].into_iter())]).unwrap());
    let db = Arc::new(db);
    on_both_over(db.clone(), "select distinct d from fine", |r, label| {
        assert_eq!(r.rows.len(), 4, "{label}");
    });
    on_both_over(db.clone(), "select id, d from fine order by d, id", |r, label| {
        let ids: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(ids, ["3", "4", "2", "1", "5"], "{label}");
    });
    on_both_over(db.clone(), "select d, count(*) from fine group by d order by d", |r, label| {
        let counts: Vec<String> = r.rows.iter().map(|row| row[1].to_string()).collect();
        assert_eq!(counts, ["1", "1", "1", "2"], "{label}");
    });
    for sql in [
        "select count(*) from fine where d = 1",
        "select count(*) from fine, ints where d = k",
        "select count(*) from fine where d in (select k from ints)",
    ] {
        on_both_over(db.clone(), sql, |r, label| assert_eq!(cell(r, 0, 0), "1", "{sql} {label}"));
    }
}

#[test]
fn division_by_zero_is_an_error_run() {
    let db = tiny_db();
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        let err = dbms
            .execute("select salary / (id - id) from people")
            .unwrap_err();
        assert!(err.to_string().contains("division by zero"), "{}", dbms.label());
    }
}

#[test]
fn integer_subtraction_and_negation_overflow_is_an_error_run() {
    let db = tiny_db();
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        // i64::MIN is `-9223372036854775807 - 1`: subtracting or negating
        // it overflows, on a constant and on a column alike.
        for sql in [
            "select 5 - (-9223372036854775807 - 1) from people",
            "select id - (-9223372036854775807 - 1) from people",
            "select -(-9223372036854775807 - 1) from people",
        ] {
            let err = dbms.execute(sql).unwrap_err();
            assert_eq!(
                err.to_string(),
                "numeric overflow: integer -",
                "{sql} on {}",
                dbms.label()
            );
        }
        let r = dbms
            .execute("select id - 9223372036854775807 from people where id = 1")
            .unwrap();
        assert_eq!(cell(&r, 0, 0), "-9223372036854775806", "{}", dbms.label());
    }
}

/// `NULL - x` is NULL, as `NULL + x` is: subtraction looks at NULL before
/// it negates its right side, so neither a date (which has no negation)
/// nor `i64::MIN` (whose negation overflows) raises on the right of a
/// NULL — as a constant or from a column, through the boxed and the typed
/// paths of both engines.
#[test]
fn null_minus_anything_is_null() {
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "t",
            vec![
                date_col("d", [8766, 9131].into_iter()),
                int_col("i", [i64::MIN, 7].into_iter()),
            ],
        )
        .unwrap(),
    );
    let db = Arc::new(db);
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        for sql in [
            "select null - d, null + d from t",
            "select null - i, null + i from t",
            "select null - (-9223372036854775807 - 1), null + (-9223372036854775807 - 1) from t",
            "select (i - i + null) - i, null - (i + 0) from t",
        ] {
            let r = dbms
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql} failed on {}: {e}", dbms.label()));
            assert_eq!(r.rows.len(), 2, "{sql} on {}", dbms.label());
            for row in &r.rows {
                assert!(row.iter().all(Value::is_null), "{sql} on {}: {row:?}", dbms.label());
            }
        }
    }
}

/// A date plus or minus a number of days is a date while the result fits
/// the engine's `i32` day count and an integer overflow where it does not
/// — never a wrapped count: `4294967296` days is `2^32`, which wraps to 0
/// in `i32`, and `2147483647` days past 1994 leaves the range. Two dates
/// subtract in `i64`, so the days between the ends of the range are a
/// number. Both engines.
#[test]
fn date_plus_days_out_of_range_is_an_overflow() {
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "t",
            vec![
                date_col("d", [8766, 9131].into_iter()),
                date_col("lo", [i32::MIN, i32::MIN].into_iter()),
                date_col("hi", [i32::MAX, i32::MAX].into_iter()),
            ],
        )
        .unwrap(),
    );
    let db = Arc::new(db);
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        for (sql, want) in [
            ("select d + 4294967296 from t", "numeric overflow: integer +"),
            ("select d - 4294967296 from t", "numeric overflow: integer -"),
            ("select d + 2147483647 from t", "numeric overflow: integer +"),
        ] {
            let err = dbms.execute(sql).unwrap_err();
            assert_eq!(err.to_string(), want, "{sql} on {}", dbms.label());
        }
        let r = dbms.execute("select d + 31, d - 365, hi - lo from t").unwrap();
        let rows: Vec<Vec<String>> =
            r.rows.iter().map(|row| row.iter().map(Value::to_string).collect()).collect();
        assert_eq!(
            rows,
            [
                ["1994-02-01", "1993-01-01", "4294967295"],
                ["1995-02-01", "1994-01-01", "4294967295"],
            ],
            "{}",
            dbms.label()
        );
    }
}

/// An interval literal that does not fit the engine's `i32` day or month
/// count is a numeric overflow, never a wrapped count: `4294967296` days
/// is `2^32`, which wraps to 0, and `200000000` years is more months than
/// `i32` holds. A date moved by months far past the calendar's range is
/// the overflow of its operator. Folding such a literal into an estimate
/// gives up the bound. Both engines.
#[test]
fn interval_literals_and_month_shifts_out_of_range_are_an_overflow() {
    let mut db = Database::new();
    db.add_table(Table::new("t", vec![date_col("d", [8766, 9131].into_iter())]).unwrap());
    let db = Arc::new(db);
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        for (sql, want) in [
            (
                "select d + interval '4294967296' day from t",
                "numeric overflow: interval '4294967296' day",
            ),
            (
                "select d - interval '200000000' year from t",
                "numeric overflow: interval '200000000' year",
            ),
            (
                "select d + interval '100000000' month from t",
                "numeric overflow: integer +",
            ),
            (
                "select d - interval '100000000' month from t",
                "numeric overflow: integer -",
            ),
            (
                "select count(*) from t where d < date '1994-01-01' + interval '4294967296' day",
                "numeric overflow: interval '4294967296' day",
            ),
        ] {
            let err = dbms.execute(sql).unwrap_err();
            assert_eq!(err.to_string(), want, "{sql} on {}", dbms.label());
        }
        let r = dbms
            .execute("select d + interval '2147483647' day - d, d + interval '12' month from t")
            .unwrap_err();
        assert_eq!(
            r.to_string(),
            "numeric overflow: integer +",
            "{}",
            dbms.label()
        );
        let r = dbms
            .execute("select d + interval '100' year, d - interval '1000' month from t")
            .unwrap();
        let rows: Vec<Vec<String>> = r
            .rows
            .iter()
            .map(|row| row.iter().map(Value::to_string).collect())
            .collect();
        assert_eq!(
            rows,
            [["2094-01-01", "1910-09-01"], ["2095-01-01", "1911-09-01"]],
            "{}",
            dbms.label()
        );
    }
}

/// A number minus a date is the type error a number plus a date is: the
/// operator and both types named, on both engines.
#[test]
fn a_number_minus_a_date_names_both_types() {
    let mut db = Database::new();
    db.add_table(Table::new("t", vec![date_col("d", [8766, 9131].into_iter())]).unwrap());
    let db = Arc::new(db);
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        for (sql, want) in [
            ("select 1 + d from t", "type error: cannot apply + to integer and date"),
            ("select 1 - d from t", "type error: cannot apply - to integer and date"),
        ] {
            let err = dbms.execute(sql).unwrap_err();
            assert_eq!(err.to_string(), want, "{sql} on {}", dbms.label());
        }
    }
}

/// A subquery is bound when its statement is planned, but a body that
/// does not bind is an error only where evaluation reaches it — as with
/// `1/0` behind a false conjunct. Both engines, rewriter on and off. (A
/// body that binds but names a column no scope has is refused at plan
/// time: see `a_name_no_scope_resolves_does_not_plan`.)
#[test]
fn a_subquery_that_does_not_bind_fails_only_where_it_is_reached() {
    use sqalpel_engine::EngineError;
    let db = Arc::new(Database::tpch(0.001, 42));
    for rewrite in [true, false] {
        for dbms in [
            Box::new(RowStore::new(db.clone()).with_rewriter(rewrite)) as Box<dyn Dbms>,
            Box::new(ColStore::new(db.clone()).with_rewriter(rewrite)),
        ] {
            let ctx = format!("{}, rewriter {rewrite}", dbms.label());
            // No region row passes the first conjunct.
            for sql in [
                "select count(*) from region where r_regionkey < 0 \
                 and exists (select * from nosuchtable)",
                "select count(*) from region where r_regionkey < 0 \
                 and r_name in (select n_name from nation, nosuchtable)",
            ] {
                let r = dbms
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql} failed on {ctx}: {e}"));
                assert_eq!(r.row_count(), 1, "{sql} on {ctx}");
                assert_eq!(cell(&r, 0, 0), "0", "{sql} on {ctx}");
            }
            // No CASE reaches its THEN arm.
            let r = dbms
                .execute(
                    "select r_regionkey, case when r_regionkey > 10 then \
                     (select max(x) from nosuchtable) end from region order by 1",
                )
                .unwrap_or_else(|e| panic!("CASE failed on {ctx}: {e}"));
            assert_eq!(r.row_count(), 5, "{ctx}");
            // Every row reaches the EXISTS.
            let err = dbms
                .execute(
                    "select count(*) from region where r_regionkey < 0 \
                     or r_regionkey > 100 or exists (select * from nosuchtable)",
                )
                .unwrap_err();
            assert_eq!(err, EngineError::UnknownTable("nosuchtable".into()), "{ctx}");
        }
    }
}

/// The outermost block has no enclosing scope: a name that neither it
/// nor any subquery scope resolves is refused when the statement is
/// planned — by EXPLAIN and by `execute` alike, on both engines, with the
/// rewriter on and off — not when a row reaches it. A correlated body
/// whose names resolve, two scopes up included, still plans and runs.
#[test]
fn a_name_no_scope_resolves_does_not_plan() {
    use sqalpel_engine::EngineError;
    let db = Arc::new(Database::tpch(0.001, 42));
    let refused = [
        ("select o_orderkey, c_name from orders", "c_name"),
        ("select count(*) from orders where c_custkey = 1", "c_custkey"),
        ("select count(*) from orders group by c_phone", "c_phone"),
        (
            "select o_custkey, count(*) from orders group by o_custkey \
             having max(l_quantity) > 3",
            "l_quantity",
        ),
        ("select o_orderkey from orders order by c_name", "c_name"),
        ("select count(*) from orders o where x.o_orderkey = 1", "x.o_orderkey"),
        // Left unresolved by the body, and by the block around it.
        (
            "select count(*) from region where r_regionkey < 0 \
             and r_name in (select n_name from nation where n_nosuch = 1)",
            "n_nosuch",
        ),
    ];
    let valid = "select count(*) from nation where exists (select * from supplier \
                 where s_nationkey = n_nationkey and exists (select * from customer \
                 where c_nationkey = n_nationkey and c_acctbal > s_acctbal))";
    for rewrite in [true, false] {
        for dbms in [
            Box::new(RowStore::new(db.clone()).with_rewriter(rewrite)) as Box<dyn Dbms>,
            Box::new(ColStore::new(db.clone()).with_rewriter(rewrite)),
        ] {
            let ctx = format!("{}, rewriter {rewrite}", dbms.label());
            for (sql, name) in refused {
                let want = EngineError::UnknownColumn(name.into());
                let err = dbms.explain(sql).map(|e| e.text).unwrap_err();
                assert_eq!(err, want, "EXPLAIN {sql} on {ctx}");
                let err = dbms.execute(sql).unwrap_err();
                assert_eq!(err, want, "{sql} on {ctx}");
            }
            dbms.explain(valid)
                .unwrap_or_else(|e| panic!("EXPLAIN {valid} on {ctx}: {e}"));
            let r = dbms
                .execute(valid)
                .unwrap_or_else(|e| panic!("{valid} on {ctx}: {e}"));
            assert_eq!(r.row_count(), 1, "{ctx}");
        }
    }
}

#[test]
fn correlated_exists_and_not_exists() {
    on_both(
        "select name from people where exists \
         (select * from pets where owner_id = id) order by name",
        |r, label| {
            assert_eq!(r.row_count(), 3, "{label}");
        },
    );
    on_both(
        "select name from people where not exists \
         (select * from pets where owner_id = id)",
        |r, label| {
            assert_eq!(r.row_count(), 1, "{label}");
            assert_eq!(cell(r, 0, 0), "dan", "{label}");
        },
    );
}

#[test]
fn group_by_expression() {
    on_both(
        "select salary > 120.00 as well_paid, count(*) from people \
         group by salary > 120.00 order by well_paid",
        |r, label| {
            assert_eq!(r.row_count(), 2, "{label}");
            assert_eq!(cell(r, 0, 1), "1", "{label}"); // ann
            assert_eq!(cell(r, 1, 1), "3", "{label}");
        },
    );
}

#[test]
fn aggregate_of_expression_and_expression_of_aggregate() {
    on_both(
        "select sum(salary * 2), sum(salary) * 2 from people",
        |r, label| {
            let a = r.rows[0][0].as_f64().unwrap();
            let b = r.rows[0][1].as_f64().unwrap();
            assert!((a - 1200.0).abs() < 1e-9, "{label}");
            assert!((a - b).abs() < 1e-9, "{label}");
        },
    );
}

#[test]
fn wildcard_projection_matches_schema() {
    on_both("select * from pets order by owner_id, pet", |r, label| {
        assert_eq!(r.columns, vec!["owner_id", "pet"], "{label}");
        assert_eq!(r.row_count(), 4, "{label}");
        assert!(matches!(r.rows[0][0], Value::Int(1)), "{label}");
    });
}

#[test]
fn self_join_with_aliases() {
    on_both(
        "select count(*) from people a, people b \
         where a.dept = b.dept and a.id < b.id",
        |r, label| {
            // eng pair (1,2) + ops pair (3,4).
            assert_eq!(cell(r, 0, 0), "2", "{label}");
        },
    );
}

/// A join key that holds NULL matches nothing — `NULL = NULL` is not
/// true — on every engine, with the optimizer and the rewriter each on
/// and off. `o` is the padded column of a LEFT JOIN's output: dan has no
/// pets, so his `o` is NULL, and the self-join on `o` pairs ann's two
/// rows four ways, bob and cat once each.
#[test]
fn a_join_key_holding_null_matches_nothing() {
    const X: &str = "with x as (select p.id, pets.owner_id as o from people p \
                     left join pets on p.id = pets.owner_id) ";
    let db = tiny_db();
    for optimizer in [true, false] {
        for rewriter in [true, false] {
            let stores: [Box<dyn Dbms>; 3] = [
                Box::new(
                    RowStore::new(db.clone())
                        .with_optimizer(optimizer)
                        .with_rewriter(rewriter),
                ),
                Box::new(
                    RowStore::legacy(db.clone())
                        .with_optimizer(optimizer)
                        .with_rewriter(rewriter),
                ),
                Box::new(
                    ColStore::new(db.clone())
                        .with_optimizer(optimizer)
                        .with_rewriter(rewriter),
                ),
            ];
            for dbms in &stores {
                let run = |sql: &str| {
                    let label = dbms.label();
                    let ctx = format!("{label}, optimizer {optimizer}, rewriter {rewriter}");
                    let r = dbms
                        .execute(&format!("{X}{sql}"))
                        .unwrap_or_else(|e| panic!("{sql} [{ctx}] failed: {e}"));
                    let counts: Vec<String> =
                        (0..r.columns.len()).map(|c| cell(&r, 0, c)).collect();
                    (counts, ctx)
                };
                for sql in [
                    "select count(*) from x a, x b where a.o = b.o",
                    "select count(*) from x a join x b on a.o = b.o",
                ] {
                    let (counts, ctx) = run(sql);
                    assert_eq!(counts, ["6"], "{sql} [{ctx}]");
                }
                // The left join keeps dan's row, its right side NULL.
                let sql = "select count(*), count(b.id) from x a left join x b on a.o = b.o";
                let (counts, ctx) = run(sql);
                assert_eq!(counts, ["7", "6"], "{sql} [{ctx}]");
                let sql = "select count(*), count(b.id) from x a \
                           left join x b on a.o = b.o where a.id = 4";
                let (counts, ctx) = run(sql);
                assert_eq!(counts, ["1", "0"], "{sql} [{ctx}]");
            }
        }
    }
}

#[test]
fn non_ascii_literals_and_quoted_identifiers() {
    // A literal is its characters, not one Latin-1 `char` per UTF-8
    // byte: it must equal, and prefix-match, stored UTF-8 data.
    let mut db = Database::new();
    db.add_table(
        Table::new(
            "orte",
            vec![
                str_col(
                    "name",
                    ["Ä", "Ärmel", "Apfel", "Öl"].iter().map(|s| s.to_string()),
                ),
                int_col("größe", [1, 2, 3, 4].into_iter()),
            ],
        )
        .unwrap(),
    );
    let db = Arc::new(db);
    let cases = [
        ("select \"größe\" from orte where name = 'Ä'", vec!["1"]),
        ("select \"größe\" from orte where name like 'Ä%' order by 1", vec!["1", "2"]),
        ("select name from orte where \"größe\" = 4", vec!["Öl"]),
        ("select 'Ä''ö' from orte where name = 'Öl'", vec!["Ä'ö"]),
    ];
    for dbms in [
        Box::new(RowStore::new(db.clone())) as Box<dyn Dbms>,
        Box::new(ColStore::new(db)),
    ] {
        for (sql, want) in &cases {
            let r = dbms
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql} failed on {}: {e}", dbms.label()));
            let got: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
            assert_eq!(&got, want, "{sql} on {}", dbms.label());
        }
    }
}

/// A sum whose input turns from decimal to float part way: ColStore sums
/// decimals exactly until the first float arrives, and must carry that
/// exact sum into the float sum then, not drop it. RowStore adds floats
/// from the first row. Both must give what the inputs add up to, read
/// back row by row and summed here.
#[test]
fn a_sum_that_turns_float_keeps_its_decimal_part() {
    let db = Arc::new(Database::tpch(0.002, 15));
    let inputs = RowStore::new(db.clone())
        .execute(
            "select l_orderkey, l_linenumber, l_extendedprice, l_quantity \
             from lineitem where l_orderkey < 5",
        )
        .unwrap();
    let num = |v: &Value| v.as_f64().unwrap();
    let key = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("{other:?}"),
    };
    // `case when <first> then l_extendedprice else l_quantity / 2 end`.
    let arg = |first: bool, r: &[Value]| if first { num(&r[2]) } else { num(&r[3]) / 2.0 };
    let by_order: Vec<f64> = inputs.rows.iter().map(|r| arg(key(&r[0]) == 1, r)).collect();
    let sum: f64 = by_order.iter().sum();
    let avg = sum / by_order.len() as f64;
    let per_order = |order: i64| -> f64 {
        inputs
            .rows
            .iter()
            .filter(|r| key(&r[0]) == order)
            .map(|r| arg(key(&r[1]) == 1, r))
            .sum()
    };
    let close = |got: &Value, want: f64, what: &str| {
        let got = num(got);
        assert!((got - want).abs() <= 1e-9 * want.abs(), "{what}: {got} vs {want}");
    };
    let case = |cond: &str| {
        format!("case when {cond} then l_extendedprice else l_quantity / 2 end")
    };
    let queries = [
        format!("select sum({}) from lineitem where l_orderkey < 5", case("l_orderkey = 1")),
        format!("select avg({}) from lineitem where l_orderkey < 5", case("l_orderkey = 1")),
        format!(
            "select l_orderkey, sum({}) from lineitem where l_orderkey < 5 \
             group by l_orderkey order by l_orderkey",
            case("l_linenumber = 1")
        ),
    ];
    let mut answers: Vec<Vec<String>> = Vec::new();
    for threads in [1, 4] {
        for dbms in [
            Box::new(RowStore::new(db.clone()).with_threads(threads)) as Box<dyn Dbms>,
            Box::new(ColStore::new(db.clone()).with_threads(threads)),
        ] {
            let label = dbms.label();
            let run = |sql: &str| dbms.execute(sql).unwrap_or_else(|e| panic!("{label}: {e}"));
            close(&run(&queries[0]).rows[0][0], sum, &format!("sum on {label}"));
            close(&run(&queries[1]).rows[0][0], avg, &format!("avg on {label}"));
            let grouped = run(&queries[2]);
            assert_eq!(grouped.row_count(), 4, "{label}");
            for row in &grouped.rows {
                let order = key(&row[0]);
                close(&row[1], per_order(order), &format!("order {order} on {label}"));
            }
            answers.push(
                queries
                    .iter()
                    .map(|q| format!("{:?}", run(q).rows))
                    .collect(),
            );
        }
    }
    // The engines agree, at every thread count, value for value.
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:#?}");
}
