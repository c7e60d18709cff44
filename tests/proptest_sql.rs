//! Property-based tests for the SQL front-end and the engine's scalar
//! semantics: the canonical printer and the parser are mutually inverse,
//! `LIKE` matches a reference implementation, and the calendar arithmetic
//! round-trips.

use proptest::prelude::*;
use sqalpel::sql::ast::{BinOp, Expr, Literal};
use sqalpel::sql::{parse_expr, parse_query};

// ----------------------------------------------------------- expression gen

/// A strategy for well-formed scalar/boolean expressions over columns
/// `a, b, c` (avoiding reserved words and degenerate literals).
fn arb_scalar() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Expr::col),
        (-1000i64..1000).prop_map(Expr::int),
        (0i64..10_000).prop_map(|c| Expr::Literal(Literal::decimal(c.into(), 2))),
        "[a-z]{0,6}".prop_map(Expr::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), prop_oneof![
                Just(BinOp::Plus),
                Just(BinOp::Minus),
                Just(BinOp::Mul),
            ])
                .prop_map(|(l, r, op)| Expr::binary(l, op, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Case {
                operand: None,
                branches: vec![(Expr::eq(l, Expr::int(1)), r)],
                else_branch: None,
            }),
        ]
    })
}

fn arb_predicate() -> impl Strategy<Value = Expr> {
    let cmp = (arb_scalar(), arb_scalar(), prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::GtEq),
    ])
        .prop_map(|(l, r, op)| Expr::binary(l, op, r));
    cmp.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: sqalpel::sql::UnaryOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

// ------------------------------------------------------- reference matcher

/// Straightforward recursive reference for SQL LIKE.
fn like_reference(text: &[char], pat: &[char]) -> bool {
    match pat.split_first() {
        None => text.is_empty(),
        Some(('%', rest)) => {
            (0..=text.len()).any(|i| like_reference(&text[i..], rest))
        }
        Some(('_', rest)) => !text.is_empty() && like_reference(&text[1..], rest),
        Some((c, rest)) => text.first() == Some(c) && like_reference(&text[1..], rest),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print ∘ parse is the identity on scalar expressions.
    #[test]
    fn scalar_print_parse_roundtrip(e in arb_scalar()) {
        let text = e.to_string();
        let back = parse_expr(&text)
            .unwrap_or_else(|err| panic!("unparseable {text:?}: {err}"));
        prop_assert_eq!(back, e, "{}", text);
    }

    /// print ∘ parse is the identity on boolean predicates.
    #[test]
    fn predicate_print_parse_roundtrip(e in arb_predicate()) {
        let text = e.to_string();
        let back = parse_expr(&text)
            .unwrap_or_else(|err| panic!("unparseable {text:?}: {err}"));
        prop_assert_eq!(back, e, "{}", text);
    }

    /// Full queries round-trip through the canonical printer.
    #[test]
    fn query_print_parse_roundtrip(
        pred in arb_predicate(),
        item in arb_scalar(),
        desc in any::<bool>(),
        limit in proptest::option::of(0u64..100),
    ) {
        let mut sql = format!("SELECT {item} AS v FROM t WHERE {pred} ORDER BY v");
        if desc {
            sql.push_str(" DESC");
        }
        if let Some(n) = limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        let q = parse_query(&sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
        let printed = q.to_string();
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("{printed:?}: {e}"));
        prop_assert_eq!(q, q2);
    }

    /// The iterative LIKE matcher agrees with the recursive reference.
    #[test]
    fn like_matches_reference(
        text in "[abc%_]{0,12}",
        pattern in "[abc%_]{0,8}",
    ) {
        let got = sqalpel::engine::value::like_match(&text, &pattern);
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        prop_assert_eq!(got, like_reference(&t, &p), "text={:?} pat={:?}", text, pattern);
    }

    /// Calendar day numbers round-trip and month arithmetic is sane.
    #[test]
    fn calendar_roundtrip(days in -200_000i32..200_000) {
        use sqalpel::datagen::calendar;
        let d = calendar::from_days(days);
        prop_assert_eq!(calendar::to_days(d), Some(days));
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
        // Formatting parses back.
        prop_assert_eq!(calendar::parse_days(&calendar::format_days(days)), Some(days));
    }

    #[test]
    fn add_months_is_monotone_and_bounded(days in 0i32..20_000, n in 0i32..48) {
        use sqalpel::datagen::calendar;
        let later = calendar::add_months(days, n).unwrap();
        prop_assert!(later >= days);
        // n months is at most 31 days each.
        prop_assert!(later - days <= 31 * n);
        // Inverse direction never overshoots the original month length.
        let back = calendar::add_months(later, -n).unwrap();
        prop_assert!(back <= days && days - back <= 3);
    }

    /// PCG ranges stay in bounds and are deterministic per seed.
    #[test]
    fn prng_range_bounds(seed in any::<u64>(), lo in -50i64..50, span in 0i64..100) {
        use sqalpel::datagen::Pcg32;
        let hi = lo + span;
        let mut a = Pcg32::new(seed, 1);
        let mut b = Pcg32::new(seed, 1);
        for _ in 0..20 {
            let x = a.range_i64(lo, hi);
            prop_assert!((lo..=hi).contains(&x));
            prop_assert_eq!(x, b.range_i64(lo, hi));
        }
    }
}
