//! Property tests for the cardinality estimator.
//!
//! Two invariants the join-order search leans on, checked over randomly
//! generated predicates and (possibly degenerate) frame statistics:
//!
//! 1. `selectivity` is always a fraction in `[0, 1]` — never NaN, never
//!    negative, never above one — no matter how nonsensical the stats
//!    (empty columns, inverted min/max, zero NDV) or the predicate.
//! 2. Conjunction is monotone: adding a conjunct never *increases* the
//!    estimate. The DP compares subplans whose predicate sets grow as
//!    joins stack up; a non-monotone estimator could rank a superset of
//!    predicates as less selective and pick absurd orders.
//! 3. A semi join and the anti join over the same inputs split the left
//!    side: `0 <= est(semi) <= est(left)` and `est(semi) + est(anti) =
//!    est(left)`, whatever the key statistics say.
//! 4. The one-sided bounds a conjunction puts on one slot intersect into
//!    an interval; narrowing it, like adding any other conjunct, never
//!    increases the estimate.
//! 5. A composite join key (several equalities between the same two
//!    inputs) is neither more selective than its pairs taken as
//!    independent edges nor less selective than its most selective pair;
//!    a key of one pair is the classic single-edge rule.
//! 6. One plan, one model: in the cold EXPLAIN of every TPC-H and SSB
//!    query no semi or anti join is estimated above its left input,
//!    every derived table or CTE scan is estimated at its body's
//!    estimate, and a body with no aggregate, DISTINCT or LIMIT at its
//!    core's.

use proptest::prelude::*;
use sqalpel_engine::ir::cost::{
    key_selectivity, selectivity, semi_anti_rows, semi_selectivity,
    FrameStats, KeyPair, SlotStat,
};
use sqalpel_engine::ir::{explain_estimates, Expr, Ty};
use sqalpel_engine::plan::Planner;
use sqalpel_engine::{Database, ProfileShard};
use sqalpel_sql::ast::{BinOp, Literal, UnaryOp};

/// Deterministic splitmix-style expansion of a proptest-drawn seed, the
/// same idiom the storage and profiler property tests use.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn i64_small(&mut self) -> i64 {
        self.below(2001) as i64 - 1000
    }
}

/// Random statistics, deliberately including degenerate shapes: unknown
/// slots, empty columns (ndv 0, no bounds), single-value columns, and
/// inverted bounds that a buggy loader could produce.
fn random_frame(g: &mut Gen, slots: usize) -> FrameStats {
    let slots = (0..slots)
        .map(|_| {
            if g.below(4) == 0 {
                return None;
            }
            let min = (g.below(5) > 0).then(|| g.i64_small());
            let max = (g.below(5) > 0).then(|| g.i64_small());
            Some(SlotStat {
                min,
                max,
                ndv: g.below(1_000) as f64 / 3.0,
                scale: (g.below(6) == 0).then(|| g.below(3) as u8),
            })
        })
        .collect();
    FrameStats { slots }
}

fn random_literal(g: &mut Gen) -> Expr {
    Expr::Literal(match g.below(5) {
        0 => Literal::Integer(g.i64_small()),
        1 => Literal::Float(g.i64_small() as f64 / 7.0),
        2 => Literal::decimal(g.i64_small().into(), g.below(8) as u8),
        3 => Literal::String(format!("s{}", g.below(50))),
        _ => Literal::Null,
    })
}

fn random_col(g: &mut Gen, width: usize) -> Expr {
    let tys = [Ty::Int, Ty::Decimal, Ty::Str, Ty::Date, Ty::Float];
    Expr::Col {
        slot: g.below(width as u64) as usize,
        ty: tys[g.below(tys.len() as u64) as usize],
    }
}

/// A random boolean predicate over `width` slots, depth-bounded.
fn random_pred(g: &mut Gen, width: usize, depth: usize) -> Expr {
    let cmp_ops = [
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
    ];
    if depth > 0 && g.below(3) == 0 {
        return match g.below(3) {
            0 => Expr::and(
                random_pred(g, width, depth - 1),
                random_pred(g, width, depth - 1),
            ),
            1 => Expr::Binary {
                left: Box::new(random_pred(g, width, depth - 1)),
                op: BinOp::Or,
                right: Box::new(random_pred(g, width, depth - 1)),
            },
            _ => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(random_pred(g, width, depth - 1)),
            },
        };
    }
    match g.below(6) {
        0 => Expr::Binary {
            left: Box::new(random_col(g, width)),
            op: cmp_ops[g.below(cmp_ops.len() as u64) as usize],
            right: Box::new(random_literal(g)),
        },
        1 => Expr::Binary {
            // Literal-on-the-left and column-vs-column comparisons.
            left: Box::new(random_literal(g)),
            op: cmp_ops[g.below(cmp_ops.len() as u64) as usize],
            right: Box::new(random_col(g, width)),
        },
        2 => Expr::Between {
            expr: Box::new(random_col(g, width)),
            negated: g.below(2) == 0,
            low: Box::new(random_literal(g)),
            high: Box::new(random_literal(g)),
        },
        3 => Expr::InList {
            expr: Box::new(random_col(g, width)),
            negated: g.below(2) == 0,
            list: (0..1 + g.below(6)).map(|_| random_literal(g)).collect(),
        },
        4 => Expr::Like {
            expr: Box::new(random_col(g, width)),
            negated: g.below(2) == 0,
            pattern: Box::new(Expr::Literal(Literal::String(format!(
                "%p{}%",
                g.below(9)
            )))),
        },
        _ => Expr::IsNull {
            expr: Box::new(random_col(g, width)),
            negated: g.below(2) == 0,
        },
    }
}

/// A one-sided range bound on one of `width` slots, either operand
/// order: the conjuncts that intersect into one interval per slot.
fn random_bound(g: &mut Gen, width: usize) -> Expr {
    let ops = [BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq];
    let op = ops[g.below(ops.len() as u64) as usize];
    let col = random_col(g, width);
    let lit = Expr::Literal(Literal::Integer(g.i64_small()));
    let (left, right) = if g.below(2) == 0 { (col, lit) } else { (lit, col) };
    Expr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

/// The single-edge rule a composite key generalizes: `1 / max(ndv_l,
/// ndv_r)`, a side without a statistic counting each of its rows.
fn edge_selectivity(pair: KeyPair, left_rows: f64, right_rows: f64) -> f64 {
    let ndv = |st: Option<&SlotStat>, rows: f64| st.map_or(rows.max(1.0), |s| s.ndv.max(1.0));
    1.0 / ndv(pair.0, left_rows).max(ndv(pair.1, right_rows)).max(1.0)
}

/// Random statistics for an equi-join key's side: unknown, empty or
/// positive distinct counts.
fn random_key_stat(g: &mut Gen) -> Option<SlotStat> {
    (g.below(4) > 0).then(|| SlotStat {
        min: None,
        max: None,
        ndv: g.below(50_000) as f64 / (1 + g.below(3)) as f64,
        scale: None,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn narrowing_an_interval_never_increases_selectivity(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        // Few slots, so bounds pile up on the same one.
        let width = 1 + g.below(2) as usize;
        let frame = random_frame(&mut g, width);
        let mut conjuncts: Vec<Expr> = (0..1 + g.below(4))
            .map(|_| {
                if g.below(4) == 0 {
                    random_pred(&mut g, width, 1)
                } else {
                    random_bound(&mut g, width)
                }
            })
            .collect();
        let before = Expr::conjoin(conjuncts.clone()).unwrap();
        let sa = selectivity(&before, &frame);
        conjuncts.push(random_bound(&mut g, width));
        let after = Expr::conjoin(conjuncts).unwrap();
        let both = selectivity(&after, &frame);
        prop_assert!(
            (0.0..=1.0).contains(&both) && both <= sa + 1e-12,
            "sel({after}) = {both} > sel({before}) = {sa}"
        );
    }

    #[test]
    fn a_composite_key_lies_between_its_pairs_product_and_their_minimum(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let stats: Vec<(Option<SlotStat>, Option<SlotStat>)> = (0..1 + g.below(4))
            .map(|_| (random_key_stat(&mut g), random_key_stat(&mut g)))
            .collect();
        let pairs: Vec<KeyPair> = stats.iter().map(|(l, r)| (l.as_ref(), r.as_ref())).collect();
        let left_rows = g.below(1_000_000) as f64 / (1 + g.below(4)) as f64;
        let right_rows = g.below(1_000_000) as f64 / (1 + g.below(4)) as f64;
        let key = key_selectivity(&pairs, left_rows, right_rows);
        let single: Vec<f64> = pairs
            .iter()
            .map(|&pair| edge_selectivity(pair, left_rows, right_rows))
            .collect();
        let one = key_selectivity(&pairs[..1], left_rows, right_rows);
        prop_assert_eq!(one, single[0], "one pair is one edge");
        let product: f64 = single.iter().product();
        let smallest = single.iter().copied().fold(1.0, f64::min);
        prop_assert!((0.0..=1.0).contains(&key), "key selectivity {key} out of [0,1]");
        prop_assert!(
            product <= key * (1.0 + 1e-12) && key <= smallest * (1.0 + 1e-12),
            "key {key} outside [{product}, {smallest}] for {pairs:?} over {left_rows} x {right_rows}"
        );
    }

    #[test]
    fn selectivity_is_always_a_fraction(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let width = 1 + g.below(8) as usize;
        let frame = random_frame(&mut g, width);
        let e = random_pred(&mut g, width, 3);
        let s = selectivity(&e, &frame);
        prop_assert!(
            (0.0..=1.0).contains(&s),
            "selectivity {s} out of [0,1] for {e}"
        );
    }

    #[test]
    fn adding_a_conjunct_never_increases_selectivity(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let width = 1 + g.below(8) as usize;
        let frame = random_frame(&mut g, width);
        let a = random_pred(&mut g, width, 2);
        let b = random_pred(&mut g, width, 2);
        let sa = selectivity(&a, &frame);
        let both = selectivity(&Expr::and(a.clone(), b.clone()), &frame);
        prop_assert!(
            both <= sa + 1e-12,
            "sel(a AND b) = {both} > sel(a) = {sa}\n a = {a}\n b = {b}"
        );
    }

    #[test]
    fn semi_and_anti_estimates_partition_the_left_input(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let frame = random_frame(&mut g, 2);
        // Row counts from empty to large, sometimes fractional (they are
        // estimates themselves).
        let left_rows = g.below(1_000_000) as f64 / (1 + g.below(4)) as f64;
        let right_rows = g.below(1_000_000) as f64 / (1 + g.below(4)) as f64;
        let sel = semi_selectivity(frame.slot(0), frame.slot(1), left_rows, right_rows);
        prop_assert!((0.0..=1.0).contains(&sel), "match selectivity {sel} out of [0,1]");
        let (semi, anti) = semi_anti_rows(left_rows, sel);
        prop_assert!(
            0.0 <= semi && semi <= left_rows,
            "semi estimate {semi} outside [0, {left_rows}]"
        );
        prop_assert!(0.0 <= anti, "anti estimate {anti} is negative");
        prop_assert!(
            (semi + anti - left_rows).abs() <= 1e-9 * left_rows.max(1.0),
            "semi {semi} + anti {anti} != left {left_rows}"
        );
    }
}

/// `(depth, operator text, est_rows)` of each line of an EXPLAIN that
/// carries an estimate; other lines have none.
fn estimated_lines(text: &str) -> Vec<(usize, &str, Option<f64>)> {
    text.lines()
        .map(|line| {
            let body = line.trim_start();
            let est = body.find("(est_rows=").and_then(|at| {
                let digits = &body[at + "(est_rows=".len()..];
                digits[..digits.find(')')?].parse().ok()
            });
            ((line.len() - body.len()) / 2, body, est)
        })
        .collect()
}

/// The estimate of the first line below `at` one level deeper, where
/// `depth` is the depth of line `at`.
fn first_child(lines: &[(usize, &str, Option<f64>)], at: usize, depth: usize) -> Option<f64> {
    lines[at + 1..]
        .iter()
        .take_while(|(d, _, _)| *d > depth)
        .find(|(d, _, est)| *d == depth + 1 && est.is_some())
        .and_then(|(_, _, est)| *est)
}

fn check_one_model(name: &str, text: &str) {
    let lines = estimated_lines(text);
    for (at, &(depth, op, est)) in lines.iter().enumerate() {
        let Some(est) = est else { continue };
        if op.starts_with("join semi") || op.starts_with("join anti") {
            let left = first_child(&lines, at, depth).expect("a join has inputs");
            assert!(
                est <= left,
                "{name}: `{op}` above its left input ({left})\n{text}"
            );
        }
        if op.starts_with("derived ") {
            let body = first_child(&lines, at, depth).expect("a derived table has a body");
            assert_eq!(
                est, body,
                "{name}: `{op}` is not its body's estimate\n{text}"
            );
        }
        if op.starts_with("select (") {
            // No aggregate, DISTINCT or LIMIT: the block is its core.
            let core = first_child(&lines, at, depth).expect("a block has a core");
            assert_eq!(
                est,
                core.max(1.0),
                "{name}: `{op}` is not its core's estimate\n{text}"
            );
        }
        if let Some(scan) = op.strip_prefix("cte scan ") {
            let cte = scan.split([' ', '(']).next().unwrap();
            let header = format!("cte {cte}:");
            let def = lines.iter().position(|(_, l, _)| *l == header).unwrap();
            let body = first_child(&lines, def, lines[def].0).expect("a CTE has a body");
            assert_eq!(
                est, body,
                "{name}: `{op}` is not its body's estimate\n{text}"
            );
        }
    }
}

/// Invariant 6, over the cold plans at SF 0.001.
#[test]
fn one_plan_reads_one_cardinality_model() {
    let flights = [
        (Database::tpch(0.001, 42), sqalpel_sql::tpch::all_queries()),
        (Database::ssb(0.001, 42), sqalpel_sql::ssb::all_queries()),
    ];
    let cold = sqalpel_engine::ir::cost::CardHints::default();
    let mut derived = 0;
    for (db, queries) in &flights {
        for (name, sql) in queries {
            let q = sqalpel_sql::parse_query(sql).unwrap();
            let bq = Planner::new(db).bind(&q).unwrap();
            let text = explain_estimates(&bq, &ProfileShard::default(), &cold).text;
            check_one_model(name, &text);
            derived += text.matches("derived ").count() + text.matches("cte scan ").count();
        }
    }
    // Q2, Q7–Q9, Q13, Q15, Q17, Q18, Q20 and Q22 read derived tables or CTEs.
    assert!(derived >= 10, "only {derived} derived or CTE leaves");
}
