//! Visual analytics (paper §5.6) — the numbers behind Figures 2, 3, 4
//! and 7, computed rather than drawn.
//!
//! - [`components`]: dominant lexical terms by least-squares attribution
//!   of run time to term presence (Figure 2's principal components);
//! - [`speedup`]: per-query speedup factors between two result sets
//!   (Figure 3);
//! - [`differential`]: token-level diff between two query variants with
//!   their per-system timings (Figure 4);
//! - [`history`]: the experiment timeline with morph strategies, error
//!   runs and node sizes (Figure 7).

use crate::pool::{Origin, PoolEntry, QueryId, QueryPool, Strategy};
use crate::results::ResultRecord;
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ------------------------------------------------------------- components

/// A lexical term with its estimated time contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentWeight {
    pub class: String,
    pub literal: String,
    /// Estimated milliseconds this term adds to a query that contains it.
    pub weight_ms: f64,
    /// How many measured queries contained the term.
    pub support: usize,
}

/// Attribute measured times to lexical terms with ridge-regularized least
/// squares over the term-presence design matrix. Returns terms sorted by
/// descending weight.
///
/// `times` maps pool query ids to a representative time (median over
/// repetitions) on a single system.
pub fn components(pool: &QueryPool, times: &HashMap<QueryId, f64>) -> Vec<ComponentWeight> {
    // Collect the measured entries and the distinct terms they use.
    let measured: Vec<&PoolEntry> = pool
        .entries()
        .iter()
        .filter(|e| times.contains_key(&e.id))
        .collect();
    if measured.is_empty() {
        return Vec::new();
    }
    // Count term support first: terms present in *every* measured query
    // are collinear with the intercept (they explain the base cost, not a
    // component) and are folded into it rather than ranked.
    let mut raw_support: BTreeMap<(String, usize), usize> = BTreeMap::new();
    for e in &measured {
        for (class, idx) in e.terms() {
            *raw_support.entry((class.to_string(), idx)).or_insert(0) += 1;
        }
    }
    let mut term_index: BTreeMap<(String, usize), usize> = BTreeMap::new();
    for (key, &count) in &raw_support {
        if count < measured.len() {
            let next = term_index.len();
            term_index.insert(key.clone(), next);
        }
    }
    let n_terms = term_index.len();
    let n_rows = measured.len();

    // Design matrix (presence) with an intercept column.
    let cols = n_terms + 1;
    let mut x = vec![vec![0.0f64; cols]; n_rows];
    let mut y = vec![0.0f64; n_rows];
    for (i, e) in measured.iter().enumerate() {
        x[i][0] = 1.0; // intercept
        for (class, idx) in e.terms() {
            if let Some(&j) = term_index.get(&(class.to_string(), idx)) {
                x[i][j + 1] = 1.0;
            }
        }
        y[i] = times[&e.id];
    }

    // Normal equations with ridge: (XᵀX + λI) w = Xᵀy.
    let lambda = 1e-6;
    let mut a = vec![vec![0.0f64; cols]; cols];
    let mut b = vec![0.0f64; cols];
    for i in 0..n_rows {
        for j in 0..cols {
            if x[i][j] == 0.0 {
                continue;
            }
            b[j] += y[i];
            for (k, cell) in x[i].iter().enumerate() {
                a[j][k] += cell;
            }
        }
    }
    for (j, row) in a.iter_mut().enumerate() {
        row[j] += lambda;
    }
    let w = solve(a, b);

    let mut out: Vec<ComponentWeight> = term_index
        .into_iter()
        .map(|((class, idx), j)| ComponentWeight {
            literal: pool.term_text(&class, idx).unwrap_or_default(),
            support: raw_support[&(class.clone(), idx)],
            class,
            weight_ms: w[j + 1],
        })
        .collect();
    out.sort_by(|a, b| b.weight_ms.partial_cmp(&a.weight_ms).expect("finite weights"));
    out
}

/// Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite matrix")
            })
            .expect("non-empty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-12 {
            continue; // singular direction; ridge keeps this rare
        }
        for row in col + 1..n {
            let factor = a[row][col] / diag;
            if factor == 0.0 {
                continue;
            }
            let pivot_row = a[col].clone();
            for (k, pv) in pivot_row.iter().enumerate().skip(col) {
                a[row][k] -= factor * pv;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut w = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * w[k];
        }
        w[col] = if a[col][col].abs() < 1e-12 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    w
}

// ---------------------------------------------------------------- speedup

/// Speedup statistics between two timing maps (e.g. the same system on a
/// 10× larger database, or two different systems).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    /// Per-query `(id, factor)` where factor = slow/fast (denominator
    /// system first argument).
    pub factors: Vec<(QueryId, f64)>,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

/// Compute per-query factors `times_b / times_a` over the common ids.
/// Returns `None` when there is no overlap.
pub fn speedup(
    times_a: &HashMap<QueryId, f64>,
    times_b: &HashMap<QueryId, f64>,
) -> Option<SpeedupReport> {
    let mut factors: Vec<(QueryId, f64)> = times_a
        .iter()
        .filter_map(|(id, &a)| {
            let b = *times_b.get(id)?;
            (a > 0.0).then_some((*id, b / a))
        })
        .collect();
    if factors.is_empty() {
        return None;
    }
    factors.sort_by_key(|(id, _)| *id);
    let mut sorted: Vec<f64> = factors.iter().map(|(_, f)| *f).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite factors"));
    Some(SpeedupReport {
        min: sorted[0],
        median: sorted[sorted.len() / 2],
        max: sorted[sorted.len() - 1],
        factors,
    })
}

/// Extract a `query id → median ms` map for one system from raw records
/// (error runs are skipped).
pub fn times_by_query(records: &[ResultRecord], dbms_label: &str) -> HashMap<QueryId, f64> {
    let mut out = HashMap::new();
    for r in records {
        if &*r.dbms_label == dbms_label {
            if let Some(m) = r.median_ms() {
                out.insert(QueryId(r.query), m);
            }
        }
    }
    out
}

/// Queries discriminating between two systems: relatively better on A
/// (factor above `threshold`) or on B (below `1/threshold`).
pub fn discriminative(
    times_a: &HashMap<QueryId, f64>,
    times_b: &HashMap<QueryId, f64>,
    threshold: f64,
) -> (Vec<QueryId>, Vec<QueryId>) {
    let mut better_on_a = Vec::new();
    let mut better_on_b = Vec::new();
    if let Some(report) = speedup(times_a, times_b) {
        for (id, factor) in report.factors {
            if factor >= threshold {
                better_on_a.push(id); // B is slower here: A wins
            } else if factor <= 1.0 / threshold {
                better_on_b.push(id);
            }
        }
    }
    (better_on_a, better_on_b)
}

// ------------------------------------------------------------ differential

/// One segment of a token-level diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffPiece {
    Common(String),
    OnlyLeft(String),
    OnlyRight(String),
}

/// Token-level LCS diff between two SQL texts (Figure 4's "highlights the
/// differences in query formulation").
pub fn differential(left: &str, right: &str) -> Vec<DiffPiece> {
    let l: Vec<&str> = left.split_whitespace().collect();
    let r: Vec<&str> = right.split_whitespace().collect();
    // LCS table.
    let mut dp = vec![vec![0usize; r.len() + 1]; l.len() + 1];
    for i in (0..l.len()).rev() {
        for j in (0..r.len()).rev() {
            dp[i][j] = if l[i] == r[j] {
                dp[i + 1][j + 1] + 1
            } else {
                dp[i + 1][j].max(dp[i][j + 1])
            };
        }
    }
    // Walk.
    let mut out: Vec<DiffPiece> = Vec::new();
    let push = |out: &mut Vec<DiffPiece>, piece: DiffPiece| {
        match (out.last_mut(), &piece) {
            (Some(DiffPiece::Common(a)), DiffPiece::Common(b)) => {
                a.push(' ');
                a.push_str(b);
            }
            (Some(DiffPiece::OnlyLeft(a)), DiffPiece::OnlyLeft(b)) => {
                a.push(' ');
                a.push_str(b);
            }
            (Some(DiffPiece::OnlyRight(a)), DiffPiece::OnlyRight(b)) => {
                a.push(' ');
                a.push_str(b);
            }
            _ => out.push(piece),
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        if l[i] == r[j] {
            push(&mut out, DiffPiece::Common(l[i].to_string()));
            i += 1;
            j += 1;
        } else if dp[i + 1][j] >= dp[i][j + 1] {
            push(&mut out, DiffPiece::OnlyLeft(l[i].to_string()));
            i += 1;
        } else {
            push(&mut out, DiffPiece::OnlyRight(r[j].to_string()));
            j += 1;
        }
    }
    while i < l.len() {
        push(&mut out, DiffPiece::OnlyLeft(l[i].to_string()));
        i += 1;
    }
    while j < r.len() {
        push(&mut out, DiffPiece::OnlyRight(r[j].to_string()));
        j += 1;
    }
    out
}

/// Render a diff as `  common / - left-only / + right-only` lines.
pub fn render_diff(diff: &[DiffPiece]) -> String {
    let mut out = String::new();
    for piece in diff {
        match piece {
            DiffPiece::Common(t) => out.push_str(&format!("  {t}\n")),
            DiffPiece::OnlyLeft(t) => out.push_str(&format!("- {t}\n")),
            DiffPiece::OnlyRight(t) => out.push_str(&format!("+ {t}\n")),
        }
    }
    out
}

// --------------------------------------------------------------- history

/// One node of the experiment-history timeline (Figure 7).
#[derive(Debug, Clone)]
pub struct HistoryNode {
    pub step: usize,
    pub query: QueryId,
    /// The morph strategy, `None` for baseline/random seeds.
    pub strategy: Option<Strategy>,
    /// Link to the parent (the dashed morph edges).
    pub parent: Option<QueryId>,
    /// Node size: number of lexical components.
    pub components: usize,
    /// True when every measured run of the query errored (yellow dots).
    pub error: bool,
    /// Median time per DBMS label (absent for unmeasured/errored runs).
    pub times_ms: BTreeMap<String, f64>,
}

impl HistoryNode {
    /// The display color: strategy color, yellow for errors, grey seeds.
    pub fn color(&self) -> &'static str {
        if self.error {
            "yellow"
        } else {
            match self.strategy {
                Some(s) => s.color(),
                None => "grey",
            }
        }
    }
}

/// Build the experiment history from the pool and the raw results.
pub fn history(pool: &QueryPool, records: &[ResultRecord]) -> Vec<HistoryNode> {
    let mut times: HashMap<QueryId, BTreeMap<String, f64>> = HashMap::new();
    let mut errored: HashMap<QueryId, bool> = HashMap::new();
    let mut measured: BTreeSet<QueryId> = BTreeSet::new();
    for r in records {
        let id = QueryId(r.query);
        measured.insert(id);
        match r.median_ms() {
            Some(m) => {
                times.entry(id).or_default().insert(r.dbms_label.to_string(), m);
                errored.insert(id, false);
            }
            None => {
                errored.entry(id).or_insert(true);
            }
        }
    }
    pool.entries()
        .iter()
        .map(|e| {
            let (strategy, parent) = match e.origin {
                Origin::Morph { strategy, parent } => (Some(strategy), Some(parent)),
                _ => (None, None),
            };
            HistoryNode {
                step: e.step,
                query: e.id,
                strategy,
                parent,
                components: e.components(),
                error: errored.get(&e.id).copied().unwrap_or(false),
                times_ms: times.get(&e.id).cloned().unwrap_or_default(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunOutcome;
    use sqalpel_grammar::Grammar;

    fn pool() -> QueryPool {
        let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let mut p = QueryPool::new(g, 10_000, 1000).unwrap();
        p.walk(|d| d.seed_baseline()).unwrap();
        let mut rng = sqalpel_grammar::seeded_rng(2);
        p.walk(|d| d.add_random(12, &mut rng)).unwrap();
        p
    }

    #[test]
    fn components_identify_expensive_term() {
        let p = pool();
        // Synthetic cost model: n_comment costs 50ms, everything else 1ms
        // per component; intercept 2ms.
        let mut times = HashMap::new();
        for e in p.entries() {
            let mut t = 2.0;
            for (class, idx) in e.terms() {
                t += if class == "l_column" && idx == 3 { 50.0 } else { 1.0 };
            }
            times.insert(e.id, t);
        }
        let ranked = components(&p, &times);
        assert!(!ranked.is_empty());
        assert_eq!(ranked[0].literal, "n_comment", "{ranked:#?}");
        assert!(ranked[0].weight_ms > 25.0);
        // All other terms must be far below.
        assert!(ranked[1].weight_ms < 10.0, "{ranked:#?}");
    }

    #[test]
    fn components_empty_without_measurements() {
        let p = pool();
        assert!(components(&p, &HashMap::new()).is_empty());
    }

    #[test]
    fn speedup_statistics() {
        let a: HashMap<QueryId, f64> =
            [(QueryId(0), 10.0), (QueryId(1), 20.0), (QueryId(2), 5.0)]
                .into_iter()
                .collect();
        let b: HashMap<QueryId, f64> =
            [(QueryId(0), 80.0), (QueryId(1), 280.0), (QueryId(2), 60.0)]
                .into_iter()
                .collect();
        let r = speedup(&a, &b).unwrap();
        assert_eq!(r.min, 8.0);
        assert_eq!(r.max, 14.0);
        assert_eq!(r.median, 12.0);
        assert_eq!(r.factors.len(), 3);
        assert!(speedup(&a, &HashMap::new()).is_none());
    }

    #[test]
    fn discriminative_split() {
        let a: HashMap<QueryId, f64> =
            [(QueryId(0), 1.0), (QueryId(1), 10.0), (QueryId(2), 5.0)]
                .into_iter()
                .collect();
        let b: HashMap<QueryId, f64> =
            [(QueryId(0), 4.0), (QueryId(1), 2.0), (QueryId(2), 5.0)]
                .into_iter()
                .collect();
        let (on_a, on_b) = discriminative(&a, &b, 2.0);
        assert_eq!(on_a, vec![QueryId(0)]);
        assert_eq!(on_b, vec![QueryId(1)]);
    }

    #[test]
    fn differential_marks_changed_tokens() {
        let d = differential(
            "SELECT n_name FROM nation WHERE n_name= 'BRAZIL'",
            "SELECT n_name , n_regionkey FROM nation",
        );
        let rendered = render_diff(&d);
        assert!(rendered.contains("+ , n_regionkey"), "{rendered}");
        assert!(rendered.contains("- WHERE n_name= 'BRAZIL'"), "{rendered}");
        assert!(rendered.contains("  SELECT n_name"), "{rendered}");
    }

    #[test]
    fn differential_identical_texts() {
        let d = differential("a b c", "a b c");
        assert_eq!(d, vec![DiffPiece::Common("a b c".into())]);
    }

    #[test]
    fn history_nodes_follow_pool() {
        let mut p = pool();
        let mut rng = sqalpel_grammar::seeded_rng(5);
        for _ in 0..10 {
            p.walk(|d| d.morph_auto(&mut rng)).unwrap();
        }
        // Simulate results: first query errored, second measured.
        let records = vec![
            crate::results::record(
                crate::queue::TaskId(0),
                crate::project::ProjectId(1),
                crate::project::ExperimentId(0),
                QueryId(0),
                "rowstore-2.0",
                "h",
                &crate::user::ContributorKey("ck".into()),
                RunOutcome { error: Some("boom".into()), ..RunOutcome::default() },
            ),
            crate::results::record(
                crate::queue::TaskId(1),
                crate::project::ProjectId(1),
                crate::project::ExperimentId(0),
                QueryId(1),
                "rowstore-2.0",
                "h",
                &crate::user::ContributorKey("ck".into()),
                RunOutcome { times_ms: vec![3.0, 1.0, 2.0], rows: 5, ..RunOutcome::default() },
            ),
        ];
        let h = history(&p, &records);
        assert_eq!(h.len(), p.len());
        assert!(h[0].error);
        assert_eq!(h[0].color(), "yellow");
        assert_eq!(h[1].times_ms["rowstore-2.0"], 2.0);
        // Morphed nodes carry strategy colors and parents.
        let morphed = h.iter().find(|n| n.strategy.is_some()).unwrap();
        assert!(morphed.parent.is_some());
        assert!(["purple", "green", "blue"].contains(&morphed.color()));
        // Node sizes match component counts.
        assert!(h.iter().all(|n| n.components >= 1));
    }

    #[test]
    fn solve_simple_system() {
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let w = solve(a, b);
        assert!((w[0] - 1.0).abs() < 1e-9);
        assert!((w[1] - 3.0).abs() < 1e-9);
    }
}
