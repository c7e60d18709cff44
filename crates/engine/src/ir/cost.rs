//! Cardinality estimation and the cost model for the join-order search.
//!
//! Selectivities are estimated from the load-time [`super::stats`] —
//! NDV for equality predicates (against a number, a date or a string),
//! min/max interpolation for ranges — with textbook fallback constants
//! where no statistic applies. The estimator is deliberately simple:
//! independence is assumed between columns (conjunctions multiply,
//! disjunctions use inclusion–exclusion), but not within one — the
//! one-sided bounds a conjunction puts on one column intersect into one
//! interval, and the equalities that join the same two inputs form one
//! composite key ([`key_selectivity`]). The adaptive feedback loop
//! corrects the worst remaining mistakes with observed row counts keyed
//! by relation subset ([`CardHints`]).

use super::expr::Expr;
use super::stats::ColStats;
use crate::eval;
use crate::value::{self, ArithMode, Num, Value};
use sqalpel_sql::ast::{BinOp, Literal, UnaryOp};
use std::collections::BTreeMap;

/// Default selectivity for predicates the estimator cannot analyze.
pub const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Equality against a literal when the column has no NDV statistic.
pub const EQ_DEFAULT_SEL: f64 = 0.1;
/// `LIKE '%..%'` (contains) and `LIKE 'x%'` (prefix) guesses.
pub const LIKE_CONTAINS_SEL: f64 = 0.1;
pub const LIKE_PREFIX_SEL: f64 = 0.05;
/// `IS NULL` — the generated data is essentially null-free.
pub const IS_NULL_SEL: f64 = 0.05;
/// Any predicate involving a subquery (IN/EXISTS/scalar) that was left
/// in place; the ones unnested into semi/anti joins are priced from
/// their keys ([`semi_selectivity`]).
pub const SUBQUERY_SEL: f64 = 0.3;

/// Cost weights for a hash join: the build side is hashed (insert per
/// row), the probe side streams (lookup per row), and every output row
/// is materialized. Both executors build on the RIGHT input and probe
/// from the LEFT, so the optimizer puts the smaller input right.
pub const BUILD_W: f64 = 2.0;
pub const PROBE_W: f64 = 1.0;
pub const OUT_W: f64 = 1.0;

/// Cost of one hash join given input/output cardinalities (inputs'
/// own subtree costs are added by the search).
pub fn hash_join_cost(probe_left: f64, build_right: f64, out: f64) -> f64 {
    BUILD_W * build_right + PROBE_W * probe_left + OUT_W * out
}

/// Per-slot statistics for one plan frame (a schema the estimator's
/// expressions are bound against). `None` where nothing is known —
/// derived-table outputs, computed columns.
#[derive(Debug, Clone, Default)]
pub struct FrameStats {
    pub slots: Vec<Option<SlotStat>>,
}

/// Statistics for one slot, in the column's raw i64 domain. `scale` is
/// the decimal scale when that domain is `value * 10^scale` (literals
/// must be scaled to compare against `min`/`max`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotStat {
    pub min: Option<i64>,
    pub max: Option<i64>,
    pub ndv: f64,
    pub scale: Option<u8>,
}

impl SlotStat {
    pub fn from_col(stats: &ColStats, scale: Option<u8>) -> SlotStat {
        SlotStat {
            min: stats.min,
            max: stats.max,
            ndv: stats.ndv,
            scale,
        }
    }

    fn ndv_floor(&self) -> f64 {
        self.ndv.max(1.0)
    }
}

impl FrameStats {
    pub fn slot(&self, i: usize) -> Option<&SlotStat> {
        self.slots.get(i).and_then(|s| s.as_ref())
    }
}

fn clamp(s: f64) -> f64 {
    if s.is_nan() {
        return DEFAULT_SEL;
    }
    s.clamp(0.0, 1.0)
}

/// Estimated fraction of input rows satisfying predicate `e`, always in
/// `[0, 1]`. Adding a conjunct never increases the estimate (pinned by
/// proptest).
pub fn selectivity(e: &Expr, frame: &FrameStats) -> f64 {
    clamp(sel(e, frame))
}

/// The selectivity of an `AND` of `conjuncts`. Conjuncts multiply,
/// except the one-sided range bounds (`<`, `<=`, `>`, `>=` against a
/// constant) on one slot: those intersect into one interval, priced as
/// the share of the slot's `[min, max]` it covers. `c >= a AND c < b` is
/// the rows between `a` and `b`, not the rows above `a` times the rows
/// below `b`.
fn conjunction_sel(conjuncts: &[&Expr], frame: &FrameStats) -> f64 {
    // Per slot, the share of its domain below the highest lower bound and
    // below the lowest upper bound.
    let mut intervals: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut s = 1.0;
    for c in conjuncts {
        match one_sided_bound(c, frame) {
            Some((slot, upper, below)) => {
                let (lo, hi) = intervals.entry(slot).or_insert((0.0, 1.0));
                if upper {
                    *hi = hi.min(below);
                } else {
                    *lo = lo.max(below);
                }
            }
            None => s *= clamp(sel(c, frame)),
        }
    }
    intervals.values().fold(s, |s, (lo, hi)| s * clamp(hi - lo))
}

/// `col < v`, `col >= v` (either operand order) on a slot whose
/// statistics span a range: the slot, whether `v` bounds it from above,
/// and the share of the slot's values below `v`.
fn one_sided_bound(e: &Expr, frame: &FrameStats) -> Option<(usize, bool, f64)> {
    let Expr::Binary { left, op, right } = e else {
        return None;
    };
    let (slot, v, op) = match (left.as_ref(), right.as_ref()) {
        (Expr::Col { slot, .. }, v) => (*slot, v, *op),
        (v, Expr::Col { slot, .. }) => (*slot, v, op.mirrored()?),
        _ => return None,
    };
    let upper = match op {
        BinOp::Lt | BinOp::LtEq => true,
        BinOp::Gt | BinOp::GtEq => false,
        _ => return None,
    };
    let st = frame.slot(slot)?;
    let (Some(min), Some(max)) = (st.min, st.max) else {
        return None;
    };
    if max <= min {
        return None;
    }
    let v = raw_position(&constant(v)?, st)?;
    Some((slot, upper, fraction_below(st, v)))
}

fn sel(e: &Expr, frame: &FrameStats) -> f64 {
    if e.contains_subquery() {
        return SUBQUERY_SEL;
    }
    match e {
        Expr::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => 1.0 - clamp(sel(expr, frame)),
        Expr::Binary { left, op, right } => match op {
            BinOp::And => conjunction_sel(&e.conjuncts(), frame),
            BinOp::Or => {
                let a = clamp(sel(left, frame));
                let b = clamp(sel(right, frame));
                a + b - a * b
            }
            op if op.is_comparison() => comparison_sel(left, *op, right, frame),
            _ => DEFAULT_SEL,
        },
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            let s = range_sel(expr, low, high, frame);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            let per = match col_stat(expr, frame) {
                Some(st) => 1.0 / st.ndv_floor(),
                None => EQ_DEFAULT_SEL,
            };
            let s = clamp(per * list.len() as f64);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Like { negated, pattern, .. } => {
            let s = match pattern.as_ref() {
                Expr::Literal(Literal::String(p)) if !p.starts_with('%') => LIKE_PREFIX_SEL,
                _ => LIKE_CONTAINS_SEL,
            };
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::IsNull { negated, .. } => {
            if *negated {
                1.0 - IS_NULL_SEL
            } else {
                IS_NULL_SEL
            }
        }
        _ => DEFAULT_SEL,
    }
}

/// `a op b` where one side is a plain column and the other a constant:
/// `=` and `<>` from the column's distinct count when the constant folds
/// into its raw domain or is a string; the ranges by interpolating the
/// folded constant between the column's bounds.
fn comparison_sel(a: &Expr, op: BinOp, b: &Expr, frame: &FrameStats) -> f64 {
    let (st, other, op) = match (col_stat(a, frame), col_stat(b, frame)) {
        (Some(st), _) => (st, b, op),
        // Flip `lit op col` to `col op' lit`.
        (None, Some(st)) => (st, a, op.mirrored().expect("`sel` passes comparisons only")),
        (None, None) => {
            // Column-to-column or uninstrumented comparison.
            return if op == BinOp::Eq {
                EQ_DEFAULT_SEL
            } else {
                DEFAULT_SEL
            };
        }
    };
    let k = constant(other);
    let lit = k.as_ref().and_then(|k| raw_position(k, st));
    let constant = lit.is_some() || matches!(k, Some(Value::Str(_)));
    match (op, lit) {
        (BinOp::Eq, _) if constant => 1.0 / st.ndv_floor(),
        (BinOp::NotEq, _) if constant => 1.0 - 1.0 / st.ndv_floor(),
        (BinOp::Lt | BinOp::LtEq, Some(v)) => fraction_below(st, v),
        (BinOp::Gt | BinOp::GtEq, Some(v)) => 1.0 - fraction_below(st, v),
        _ => DEFAULT_SEL,
    }
}

/// Linear-interpolated fraction of values strictly below `v`, assuming
/// a uniform distribution over `[min, max]`.
fn fraction_below(st: &SlotStat, v: f64) -> f64 {
    let (Some(min), Some(max)) = (st.min, st.max) else {
        return DEFAULT_SEL;
    };
    let (min, max) = (min as f64, max as f64);
    if max <= min {
        // Single-valued column: a range predicate either takes all or none;
        // split the difference without more information.
        return 0.5;
    }
    clamp((v - min) / (max - min))
}

fn range_sel(expr: &Expr, low: &Expr, high: &Expr, frame: &FrameStats) -> f64 {
    let Some(st) = col_stat(expr, frame) else {
        return DEFAULT_SEL * DEFAULT_SEL;
    };
    let bound = |e| raw_position(&constant(e)?, st);
    match (bound(low), bound(high)) {
        (Some(lo), Some(hi)) => clamp(fraction_below(st, hi) - fraction_below(st, lo)),
        _ => DEFAULT_SEL * DEFAULT_SEL,
    }
}

/// The statistic behind `e` when it is a plain column reference.
fn col_stat<'a>(e: &Expr, frame: &'a FrameStats) -> Option<&'a SlotStat> {
    match e {
        Expr::Col { slot, .. } => frame.slot(*slot),
        _ => None,
    }
}

/// The constant `e` folds to: by the evaluator's own folding
/// ([`eval::constant`]), in guarded arithmetic whichever engine asks, so
/// an estimate and the EXPLAIN it prints are engine-independent.
fn constant(e: &Expr) -> Option<Value> {
    eval::constant(e, ArithMode::GuardedDecimal)
}

/// Where constant `v` lies in the raw i64 domain of a slot: a number
/// times `10^scale`, a date as its day.
fn raw_position(v: &Value, st: &SlotStat) -> Option<f64> {
    match v {
        Value::Date(d) => Some(f64::from(*d)),
        v => Some(Num::of(v)??.f64() * value::pow10(st.scale.unwrap_or(0))),
    }
}

/// The `(left, right)` statistics of one equality of a join key, `None`
/// where a side has none.
pub type KeyPair<'a> = (Option<&'a SlotStat>, Option<&'a SlotStat>);

/// Selectivity of an equi-join key — the `(left, right)` statistics of
/// every equality between the same two inputs: the classic
/// `1 / max(ndv_l, ndv_r)`. A column's distinct count defaults to its
/// input's rows when no statistic exists. With one pair that is the
/// single-edge estimate. Several pairs are one composite key, not
/// independent edges: a side's count is the product of its columns'
/// counts, capped at the side's rows (a key cannot be more distinct than
/// the rows that hold it) but never below its largest single count. So a
/// composite key's selectivity lies between the product of its pairs'
/// own selectivities and the smallest of them.
pub fn key_selectivity(pairs: &[KeyPair], left_rows: f64, right_rows: f64) -> f64 {
    let distinct = |stats: &mut dyn Iterator<Item = Option<&SlotStat>>, rows: f64| {
        let rows = rows.max(1.0);
        let (product, largest) = stats
            .map(|st| st.map_or(rows, SlotStat::ndv_floor))
            .fold((1.0f64, 1.0f64), |(p, m), n| (p * n, m.max(n)));
        product.min(rows).max(largest)
    };
    let ndv_l = distinct(&mut pairs.iter().map(|p| p.0), left_rows);
    let ndv_r = distinct(&mut pairs.iter().map(|p| p.1), right_rows);
    1.0 / ndv_l.max(ndv_r).max(1.0)
}

/// Fraction of a semi join's left rows that find a partner on one key
/// pair, by containment: the smaller key domain is assumed to lie inside
/// the larger, so `min(ndv_l, ndv_r)` of the left side's `ndv_l` distinct
/// values — and, values taken as equally frequent, that share of its rows
/// — match. A side without a statistic counts each of its rows as
/// distinct, and a right side filtered down to `right_rows` cannot hold
/// more distinct keys than rows.
pub fn semi_selectivity(
    left: Option<&SlotStat>,
    right: Option<&SlotStat>,
    left_rows: f64,
    right_rows: f64,
) -> f64 {
    let ndv_l = left.map_or(left_rows.max(1.0), SlotStat::ndv_floor);
    let ndv_r = right
        .map_or(right_rows.max(1.0), SlotStat::ndv_floor)
        .min(right_rows.max(0.0));
    clamp(ndv_r.min(ndv_l) / ndv_l)
}

/// Output rows of the semi and of the anti join over one pair of inputs:
/// between them they emit every left row exactly once.
pub fn semi_anti_rows(left_rows: f64, match_sel: f64) -> (f64, f64) {
    let semi = left_rows * clamp(match_sel);
    (semi, left_rows - semi)
}

/// Observed cardinalities from a prior profiled run, keyed by the
/// *sorted* set of relation bindings a subplan covers — stable across
/// join orders, which is what lets a re-search consume them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CardHints {
    map: BTreeMap<Vec<String>, f64>,
}

impl CardHints {
    pub fn insert(&mut self, mut bindings: Vec<String>, rows: f64) {
        bindings.sort();
        self.map.insert(bindings, rows);
    }

    /// Look up the observed row count for a binding set (any order).
    pub fn get(&self, bindings: &[String]) -> Option<f64> {
        if bindings.windows(2).all(|w| w[0] <= w[1]) {
            return self.map.get(bindings).copied();
        }
        let mut sorted = bindings.to_vec();
        sorted.sort();
        self.map.get(&sorted).copied()
    }

    /// Forget the hint for a *sorted* binding set.
    pub fn remove(&mut self, bindings: &[String]) {
        self.map.remove(bindings);
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Vec<String>, f64)> {
        self.map.iter().map(|(k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::expr::Ty;
    use sqalpel_sql::ast::IntervalUnit;

    fn frame(st: SlotStat) -> FrameStats {
        FrameStats {
            slots: vec![Some(st)],
        }
    }

    fn col() -> Expr {
        Expr::Col { slot: 0, ty: Ty::Int }
    }

    fn lit(i: i64) -> Expr {
        Expr::Literal(Literal::Integer(i))
    }

    fn stat(min: i64, max: i64, ndv: f64) -> SlotStat {
        SlotStat {
            min: Some(min),
            max: Some(max),
            ndv,
            scale: None,
        }
    }

    #[test]
    fn equality_uses_ndv() {
        let f = frame(stat(0, 99, 100.0));
        let s = selectivity(&Expr::eq_pair(col(), lit(7)), &f);
        assert!((s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn range_interpolates_between_min_and_max() {
        let f = frame(stat(0, 100, 100.0));
        let e = Expr::Binary {
            left: Box::new(col()),
            op: BinOp::Lt,
            right: Box::new(lit(25)),
        };
        assert!((selectivity(&e, &f) - 0.25).abs() < 1e-12);
        // Flipped literal-left form mirrors the operator.
        let e = Expr::Binary {
            left: Box::new(lit(25)),
            op: BinOp::Gt,
            right: Box::new(col()),
        };
        assert!((selectivity(&e, &f) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_literals_clamp() {
        let f = frame(stat(10, 20, 10.0));
        let below = Expr::Binary {
            left: Box::new(col()),
            op: BinOp::Lt,
            right: Box::new(lit(-5)),
        };
        assert_eq!(selectivity(&below, &f), 0.0);
        let above = Expr::Binary {
            left: Box::new(col()),
            op: BinOp::Lt,
            right: Box::new(lit(50)),
        };
        assert_eq!(selectivity(&above, &f), 1.0);
    }

    #[test]
    fn conjunction_multiplies() {
        let f = frame(stat(0, 100, 100.0));
        let a = Expr::eq_pair(col(), lit(7));
        let b = Expr::Binary {
            left: Box::new(col()),
            op: BinOp::Lt,
            right: Box::new(lit(50)),
        };
        let sa = selectivity(&a, &f);
        let both = selectivity(&Expr::and(a, b), &f);
        assert!(both <= sa);
        assert!((both - sa * 0.5).abs() < 1e-12);
    }

    #[test]
    fn decimal_scale_converts_literals() {
        // Column stores 0.00 .. 100.00 at scale 2 (raw 0..10000).
        let st = SlotStat {
            min: Some(0),
            max: Some(10_000),
            ndv: 10_000.0,
            scale: Some(2),
        };
        let e = Expr::Binary {
            left: Box::new(col()),
            op: BinOp::Lt,
            right: Box::new(Expr::Literal(Literal::Decimal { raw: 25, scale: 0 })),
        };
        assert!((selectivity(&e, &frame(st)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn date_interval_arithmetic_folds() {
        let jan1 = sqalpel_datagen::calendar::parse_days("1994-01-01").unwrap();
        let next = sqalpel_datagen::calendar::parse_days("1995-01-01").unwrap();
        let shifted = Expr::Binary {
            left: Box::new(Expr::Literal(Literal::Date("1994-01-01".into()))),
            op: BinOp::Plus,
            right: Box::new(Expr::Literal(Literal::Interval {
                value: 1,
                unit: IntervalUnit::Year,
            })),
        };
        let st = stat(0, 0, 1.0);
        let raw = |e: &Expr| raw_position(&constant(e)?, &st);
        assert_eq!(raw(&shifted), Some(f64::from(next)));
        assert_eq!(
            raw(&Expr::Literal(Literal::Date("1994-01-01".into()))),
            Some(f64::from(jan1))
        );
    }

    #[test]
    fn join_edge_selectivity_uses_larger_ndv() {
        let l = stat(0, 0, 1_000.0);
        let r = stat(0, 0, 50.0);
        let s = key_selectivity(&[(Some(&l), Some(&r))], 1e6, 1e6);
        assert!((s - 0.001).abs() < 1e-12);
        // Missing stats fall back to input cardinality.
        let s = key_selectivity(&[(None, Some(&r))], 200.0, 1e6);
        assert!((s - 1.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn a_composite_key_is_capped_at_its_rows() {
        // Q9's partsupp ⋈ lineitem at SF 0.02: (suppkey, partkey) pairs.
        let supp = stat(1, 200, 200.0);
        let part = stat(1, 4_000, 4_000.0);
        let pairs = [(Some(&supp), Some(&supp)), (Some(&part), Some(&part))];
        // partsupp's 16,000 rows hold at most 16,000 distinct keys,
        // lineitem's 120,000 at most 120,000: one partsupp row per
        // lineitem row, not 1/200 × 1/4,000 of the cross product.
        let s = key_selectivity(&pairs, 16_000.0, 120_000.0);
        assert!((s - 1.0 / 120_000.0).abs() < 1e-15, "{s}");
        // Never below a single column's own count: two keys over 10 rows
        // each still have 4,000 distinct part keys.
        let s = key_selectivity(&pairs, 10.0, 10.0);
        assert!((s - 1.0 / 4_000.0).abs() < 1e-15, "{s}");
    }

    fn cmp(op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(col()),
            op,
            right: Box::new(right),
        }
    }

    #[test]
    fn string_equality_uses_ndv() {
        // A string column has no bounds, only a distinct count.
        let f = frame(SlotStat {
            min: None,
            max: None,
            ndv: 150.0,
            scale: None,
        });
        let steel = || Expr::Literal(Literal::String("ECONOMY ANODIZED STEEL".into()));
        assert!((selectivity(&cmp(BinOp::Eq, steel()), &f) - 1.0 / 150.0).abs() < 1e-12);
        let ne = selectivity(&cmp(BinOp::NotEq, steel()), &f);
        assert!((ne - (1.0 - 1.0 / 150.0)).abs() < 1e-12);
        // Literal on the left reads the same.
        let flipped = Expr::eq_pair(steel(), col());
        assert!((selectivity(&flipped, &f) - 1.0 / 150.0).abs() < 1e-12);
        // A range against a string has no domain to interpolate in.
        assert_eq!(selectivity(&cmp(BinOp::Lt, steel()), &f), DEFAULT_SEL);
    }

    #[test]
    fn two_bounds_on_one_column_are_one_interval() {
        let f = frame(stat(0, 100, 100.0));
        let within = Expr::and(cmp(BinOp::GtEq, lit(20)), cmp(BinOp::Lt, lit(30)));
        assert!((selectivity(&within, &f) - 0.10).abs() < 1e-12);
        // Literal-left bounds and a third, tighter bound join the interval.
        let narrower = Expr::and(
            Expr::and(
                Expr::Binary {
                    left: Box::new(lit(20)),
                    op: BinOp::LtEq,
                    right: Box::new(col()),
                },
                cmp(BinOp::Lt, lit(30)),
            ),
            cmp(BinOp::LtEq, lit(25)),
        );
        assert!((selectivity(&narrower, &f) - 0.05).abs() < 1e-12);
        // Disjoint bounds select nothing.
        let empty = Expr::and(cmp(BinOp::Gt, lit(60)), cmp(BinOp::Lt, lit(40)));
        assert_eq!(selectivity(&empty, &f), 0.0);
    }

    #[test]
    fn bounds_on_two_columns_still_multiply() {
        let f = FrameStats {
            slots: vec![Some(stat(0, 100, 100.0)), Some(stat(0, 100, 100.0))],
        };
        let other = Expr::Col { slot: 1, ty: Ty::Int };
        let e = Expr::and(
            cmp(BinOp::GtEq, lit(20)),
            Expr::Binary {
                left: Box::new(other),
                op: BinOp::Lt,
                right: Box::new(lit(30)),
            },
        );
        assert!((selectivity(&e, &f) - 0.8 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn hints_ignore_binding_order() {
        let mut h = CardHints::default();
        h.insert(vec!["b".into(), "a".into()], 42.0);
        assert_eq!(h.get(&["a".into(), "b".into()]), Some(42.0));
        assert_eq!(h.get(&["b".into(), "a".into()]), Some(42.0));
        assert_eq!(h.get(&["a".into()]), None);
    }

    #[test]
    fn everything_stays_in_unit_interval() {
        let f = frame(stat(0, 10, 5.0));
        for e in [
            Expr::Bool(true),
            Expr::Bool(false),
            Expr::IsNull { expr: Box::new(col()), negated: true },
            Expr::Like {
                expr: Box::new(col()),
                negated: false,
                pattern: Box::new(Expr::Literal(Literal::String("%x%".into()))),
            },
            Expr::InList {
                expr: Box::new(col()),
                negated: false,
                list: vec![lit(1), lit(2), lit(3)],
            },
        ] {
            let s = selectivity(&e, &f);
            assert!((0.0..=1.0).contains(&s), "{e} -> {s}");
        }
    }
}
