//! The statistics every number in the benchmark goes through: medians,
//! the "ten samples beyond" percentile rule, geometric means, quartile
//! spread and open-loop due times.

/// Sort a copy of the samples ascending. Samples are finite by
/// construction (elapsed times and counts).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The `p`-th percentile (0–100) of an ascending slice, linearly
/// interpolated between the two closest ranks. Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A percentile may be reported only when at least this many samples lie
/// beyond it; below that it measures a handful of scheduler accidents.
pub const MIN_BEYOND: usize = 10;

/// Whether `p` has at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p / 100.0)).floor() as usize >= MIN_BEYOND
}

/// Geometric mean of positive values; zero and negative entries are
/// skipped (a class with no successful sample has no median).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Class-balanced ratio of two sets of latencies grouped by the same
/// op classes: the geometric mean, over the classes both sets have, of
/// the ratio of their medians.
pub fn balanced_ratio(num: &[Vec<f64>], den: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .filter(|(n, d)| !n.is_empty() && !d.is_empty())
        .map(|(n, d)| median(n) / median(d).max(1e-12))
        .collect();
    geomean(&ratios)
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance rule is written in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

/// Due times of an open-loop generator: request `i` is due at
/// `i / rate` seconds after the start, whatever happened to the
/// requests before it.
pub fn due_s(i: u64, rate_per_s: f64) -> f64 {
    i as f64 / rate_per_s
}

/// Latency of an open-loop request counted from when it was due, so the
/// wait a stall imposes on later requests is charged to them, and how
/// late the generator got round to sending it.
pub fn open_loop_sample(due: f64, sent: f64, done: f64) -> (f64, f64) {
    (done - due, (sent - due).max(0.0))
}

/// The benchmark's own generator (splitmix64): everything it draws
/// comes from `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 of 199 samples leaves 9.95 beyond: not enough.
        assert!(!percentile_supported(199, 95.0));
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
    }

    #[test]
    fn geomean_weights_classes_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 0.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn balanced_ratio_ignores_the_mix() {
        // Class 0 is 10x class 1; the traced side is 10 % slower in both
        // but holds more of the fast class. Pooled medians would say
        // "faster"; per class it is 1.1.
        let untraced = vec![vec![10.0, 10.0, 10.0], vec![1.0]];
        let traced = vec![vec![11.0], vec![1.1, 1.1, 1.1]];
        assert!((balanced_ratio(&traced, &untraced) - 1.1).abs() < 1e-9);
        assert_eq!(balanced_ratio(&[vec![]], &[vec![1.0]]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // 20 requests/s: the fourth request is due at 0.15 s.
        let due = due_s(3, 20.0);
        assert!((due - 0.15).abs() < 1e-12);
        // The generator was stalled until 0.40 s and the reply took 10 ms:
        // the visitor waited 260 ms, of which 250 ms was lateness.
        let (latency, late) = open_loop_sample(due, 0.40, 0.41);
        assert!((latency - 0.26).abs() < 1e-12);
        assert!((late - 0.25).abs() < 1e-12);
        // A generator running ahead of schedule is not negative-late.
        assert_eq!(open_loop_sample(1.0, 0.9, 1.2).1, 0.0);
    }
}
