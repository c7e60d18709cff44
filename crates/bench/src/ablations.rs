//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Literal-once rule** (§3.1): the space with distinct-subset
//!    semantics `C(n,k)` versus with-replacement choices `n^k`.
//! 2. **Order normalization** (§3.1): multiset templates versus ordered
//!    sequences `P(n,k) = C(n,k)·k!`.
//! 3. **Guided pool walk vs brute-force random** (§3.2 vs RAGS): novel
//!    queries and near-duplicate probes per generation attempt.

use sqalpel_core::QueryPool;
use sqalpel_grammar::Grammar;
use std::fmt::Write as _;

/// Ablation 1 + 2: recompute the space of a grammar under three counting
/// regimes and report the blow-up factors.
pub fn counting_regimes(grammar: &Grammar, cap: usize) -> String {
    let set = grammar.templates(cap).expect("enumerable grammar");
    let mut with_rule: u128 = 0; // C(n, k) — the paper's rule
    let mut ordered: u128 = 0; // P(n, k) — order not normalized
    let mut replacement: u128 = 0; // n^k — literals reusable
    for t in &set.templates {
        let mut a: u128 = 1;
        let mut b: u128 = 1;
        let mut c: u128 = 1;
        for (class, &k) in &t.counts {
            let n = grammar.class_size(class) as u128;
            a = a.saturating_mul(sqalpel_grammar::binomial(n as usize, k));
            let mut perm: u128 = 1;
            for i in 0..k as u128 {
                perm = perm.saturating_mul(n - i);
            }
            b = b.saturating_mul(perm);
            c = c.saturating_mul(n.saturating_pow(k as u32));
        }
        with_rule = with_rule.saturating_add(a);
        ordered = ordered.saturating_add(b);
        replacement = replacement.saturating_add(c);
    }
    let mut out = String::new();
    let _ = writeln!(out, "templates: {}{}", set.templates.len(), if set.truncated { " (capped)" } else { "" });
    let _ = writeln!(out, "space, literal-once + order-normalized (the paper): {with_rule}");
    let _ = writeln!(
        out,
        "space, ordered sequences (no order normalization):   {ordered}  ({:.1}x blow-up)",
        ordered as f64 / with_rule.max(1) as f64
    );
    let _ = writeln!(
        out,
        "space, with replacement (no literal-once rule):      {replacement}  ({:.1}x blow-up)",
        replacement as f64 / with_rule.max(1) as f64
    );
    out
}

/// Ablation 3: exploration efficiency of the guided walk vs brute-force
/// random draws over the same grammar. Both run until the pool stops
/// growing or `attempts` are spent; reports novel queries per attempt.
pub fn guidance_vs_random(grammar: &Grammar, attempts: usize) -> String {
    // Guided: baseline + a few random seeds, then the morphing walk.
    let mut guided = QueryPool::new(grammar.clone(), 10_000, 1_000_000).expect("pool");
    guided.walk(|d| d.seed_baseline()).expect("baseline");
    let mut rng = sqalpel_grammar::seeded_rng(11);
    guided.walk(|d| d.add_random(5, &mut rng)).expect("seeds");
    let guided_seeded = guided.len();
    let mut guided_hits = 0;
    for _ in 0..attempts {
        if guided.walk(|d| d.morph_auto(&mut rng)).expect("morph").is_some() {
            guided_hits += 1;
        }
    }

    // Brute force: independent random template draws (RAGS-style).
    let mut random = QueryPool::new(grammar.clone(), 10_000, 1_000_000).expect("pool");
    random.walk(|d| d.seed_baseline()).expect("baseline");
    let mut rng = sqalpel_grammar::seeded_rng(11);
    random.walk(|d| d.add_random(5, &mut rng)).expect("seeds");
    let random_seeded = random.len();
    let mut random_hits = 0;
    for _ in 0..attempts {
        if !random.walk(|d| d.add_random(1, &mut rng)).expect("draw").is_empty() {
            random_hits += 1;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "attempts per method: {attempts}");
    let _ = writeln!(
        out,
        "guided walk:  {} novel queries ({:.1}% hit rate), pool {} -> {}",
        guided_hits,
        100.0 * guided_hits as f64 / attempts as f64,
        guided_seeded,
        guided.len()
    );
    let _ = writeln!(
        out,
        "random draws: {} novel queries ({:.1}% hit rate), pool {} -> {}",
        random_hits,
        100.0 * random_hits as f64 / attempts as f64,
        random_seeded,
        random.len()
    );
    // Locality: how many guided queries sit one component away from their
    // parent (the property that makes differentials interpretable).
    let local = guided
        .entries()
        .iter()
        .filter(|e| match e.origin {
            sqalpel_core::Origin::Morph { parent, .. } => {
                let p = guided.entry(parent).expect("parent exists");
                e.components().abs_diff(p.components()) <= 1
            }
            _ => false,
        })
        .count();
    let _ = writeln!(
        out,
        "guided locality: {local} morphed queries within one component of their parent \
         (random draws have no parent structure)"
    );
    out
}

/// The full ablation report.
pub fn report() -> String {
    let q1 = sqalpel_grammar::convert_sql(sqalpel_sql::tpch::Q1).expect("Q1 converts");
    let fig1 = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).expect("fig1");
    let mut out = String::from("## Ablations\n\n### Counting regimes, TPC-H Q1 grammar\n\n");
    out.push_str(&counting_regimes(&q1, 100_000));
    out.push_str("\n### Counting regimes, Figure 1 grammar\n\n");
    out.push_str(&counting_regimes(&fig1, 10_000));
    out.push_str("\n### Guided walk vs brute-force random, TPC-H Q1 grammar (large space)\n\n");
    out.push_str(&guidance_vs_random(&q1, 300));
    out.push_str(
        "\n### Guided walk vs brute-force random, Figure 1 grammar (small space, saturating)\n\n",
    );
    out.push_str(&guidance_vs_random(&fig1, 200));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_once_and_order_blowups_are_monotone() {
        let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let text = counting_regimes(&g, 10_000);
        // fig1: 32 with the rule; ordered = sum over k of P(4,k) variants.
        assert!(text.contains("the paper): 32"), "{text}");
        // Both ablated regimes must be strictly larger.
        let nums: Vec<u128> = text
            .lines()
            .filter_map(|l| l.split(':').nth(1))
            .filter_map(|v| v.split_whitespace().next())
            .filter_map(|v| v.parse().ok())
            .collect();
        assert!(nums.len() >= 3, "{text}");
        assert!(nums[1] > nums[0] && nums[2] > nums[0], "{text}");
    }

    #[test]
    fn guidance_report_renders() {
        let g = Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR).unwrap();
        let text = guidance_vs_random(&g, 50);
        assert!(text.contains("guided walk:"));
        assert!(text.contains("random draws:"));
    }
}
