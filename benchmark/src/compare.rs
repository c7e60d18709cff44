//! `--compare A.jsonl B.jsonl`: one row per (end-to-end metric,
//! workload) with both medians, the change of B against A, the bound,
//! and a verdict. This is the tool the repeatability criterion and
//! every later performance claim use.

use crate::spec::{self, Better};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Run-to-run spread on either side is wider than the bound: the
    /// runs cannot tell a regression of that size from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), for a metric with the given direction.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    let worse = worsening(stats::median(a), stats::median(b), better);
    let noise = stats::spread(a).max(stats::spread(b));
    if worse > bound {
        // Past the bound and past both sides' own spread: resolved.
        return if worse > noise {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if noise > bound {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// (workload, metric) -> values of the untraced runs in a result file.
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut by: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", no + 1))?;
        if v["trace"].as_bool() != Some(false) {
            continue;
        }
        let workload = v["workload"]
            .as_str()
            .ok_or(format!("{path}:{}: no workload", no + 1))?;
        for (name, value) in v["end_to_end"].as_object().into_iter().flatten() {
            if let Some(x) = value.as_f64() {
                by.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(by)
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {a_path}\nB = {b_path}\nchange and spreads are shares of A's median (spread: of each side's own)");
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8} {:>3} {:>3}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "worse",
        "bound",
        "spread A",
        "spread B",
        "nA",
        "nB"
    );
    let mut worst = Verdict::Ok;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(va, vb, m.better, bound);
            println!(
                "{:<14} {:<14} {:>12.4} {:>12.4} {:>+8.3} {:>7.2} {:>8.3} {:>8.3} {:>3} {:>3}  {}",
                w.name,
                m.name,
                stats::median(va),
                stats::median(vb),
                worsening(stats::median(va), stats::median(vb), m.better),
                bound,
                stats::spread(va),
                stats::spread(vb),
                va.len(),
                vb.len(),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if v == Verdict::Regressed || (v == Verdict::Unresolved && worst == Verdict::Ok) {
                worst = v;
            }
        }
    }
    match worst {
        Verdict::Ok => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts() {
        let slower: Vec<f64> = STEADY.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = STEADY.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&STEADY, &STEADY, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&STEADY, &slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // An improvement is never a regression, whatever the direction.
        assert_eq!(verdict(&STEADY, &faster, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&STEADY, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            verdict(&STEADY, &faster, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Within the bound.
        let a_bit: Vec<f64> = STEADY.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&STEADY, &a_bit, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(
            verdict(&noisy, &STEADY, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&STEADY, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // One run a side has no spread to speak of.
        assert_eq!(
            verdict(&[100.0], &[100.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // ...but a regression far outside the noise is still a regression.
        let much_slower: Vec<f64> = noisy.iter().map(|x| x * 3.0).collect();
        assert_eq!(
            verdict(&noisy, &much_slower, Better::Lower, 0.10),
            Verdict::Regressed
        );
    }
}
