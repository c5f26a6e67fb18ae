//! `perf compare BASE.jsonl NEW.jsonl`: a verdict for every (workload,
//! metric) pair of two sets of runs recorded with `--out`.
//!
//! The runs of the two files are paired in file order, so record them
//! alternating (base, new, base, new, ...). The rule:
//!
//! - *improved*: the new side wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than the base's own
//!   interquartile distance; or, where the base's spread exceeds the
//!   bound, every new run is better than every base run;
//! - *unresolved*: the base's spread (interquartile distance over median)
//!   exceeds the metric's bound, so the bound cannot be checked;
//! - *regressed*: the new median is worse than the base median by more
//!   than the bound;
//! - *within bound*: otherwise.
//!
//! Per-layer metrics have no bound: they are *improved*, *regressed* (the
//! mirror of the improvement rule) or *no claim*. Values that repeat
//! exactly on both sides (the simulator's counts) read *same* or
//! *changed*. Fewer than ten pairs give *too few pairs*.

use crate::layers::Json;
use crate::report::Better;
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Pairs needed for any verdict.
const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    WithinBound,
    Unresolved,
    NoClaim,
    Same,
    Changed,
    TooFewPairs,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoClaim => "no claim",
            Verdict::Same => "same",
            Verdict::Changed => "changed",
            Verdict::TooFewPairs => "too few pairs",
        }
    }
}

/// How much better `n` is than `b`: positive when it is better.
fn gain(better: Better, b: f64, n: f64) -> f64 {
    match better {
        Better::Lower => b - n,
        Better::Higher => n - b,
    }
}

/// Pairs (by index) in which `new` is better than `base`.
fn wins(base: &[f64], new: &[f64], better: Better) -> usize {
    base.iter()
        .zip(new)
        .filter(|(b, n)| gain(better, **b, **n) > 0.0)
        .count()
}

/// The verdict on `new` against `base`, paired by index.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let constant = |v: &[f64]| v.windows(2).all(|w| w[0] == w[1]);
    if !base.is_empty() && !new.is_empty() && constant(base) && constant(new) {
        return if base[0] == new[0] {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    let pairs = base.len().min(new.len());
    if pairs < MIN_PAIRS {
        return Verdict::TooFewPairs;
    }
    let (wins, losses) = (wins(base, new, better), wins(new, base, better));
    let (bm, nm) = (
        stats::median(base).expect("pairs"),
        stats::median(new).expect("pairs"),
    );
    let (q1, q3) = stats::quartiles(base).expect("pairs");
    let gap = gain(better, bm, nm);
    if wins * 10 >= pairs * 9 && gap > q3 - q1 {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if losses * 10 >= pairs * 9 && -gap > q3 - q1 {
            Verdict::Regressed
        } else {
            Verdict::NoClaim
        };
    };
    if (q3 - q1) > bound * bm.abs() {
        let all_better = base
            .iter()
            .all(|&b| new.iter().all(|&n| gain(better, b, n) > 0.0));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if -gap > bound * bm.abs() {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// Values of one metric over a file's runs, in file order.
struct Series {
    values: Vec<f64>,
    better: Better,
    bound: Option<f64>,
}

/// `(workload, traced)` → metric → series.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Series>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| j.get(k).ok_or(format!("{path}:{}: no {k:?}", n + 1));
        let workload = field("workload")?.as_str().unwrap_or("?").to_string();
        let traced = matches!(field("trace")?, Json::Bool(true));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or(format!("{path}:{}: bad metrics", n + 1))?;
        let group = runs.entry((workload, traced)).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            group
                .entry(name.clone())
                .or_insert(Series {
                    values: Vec::new(),
                    better,
                    bound,
                })
                .values
                .push(value);
        }
    }
    Ok(runs)
}

fn summary(v: &[f64]) -> String {
    match (stats::median(v), stats::quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4}"),
        _ => "-".into(),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [base_path, new_path] = args else {
        eprintln!("usage: perf compare BASE.jsonl NEW.jsonl");
        return ExitCode::from(2);
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut regressed = false;
    println!(
        "{:<24} {:<30} {:>36} {:>36} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "wins"
    );
    for ((workload, traced), metrics) in &base {
        let Some(new_metrics) = new.get(&(workload.clone(), *traced)) else {
            continue;
        };
        let label = if *traced {
            format!("{workload} (traced)")
        } else {
            workload.clone()
        };
        for (name, b) in metrics {
            let Some(n) = new_metrics.get(name) else {
                continue;
            };
            let v = verdict(&b.values, &n.values, b.better, b.bound);
            regressed |= v == Verdict::Regressed;
            let pairs = b.values.len().min(n.values.len());
            let wins = wins(&b.values, &n.values, b.better);
            println!(
                "{label:<24} {name:<30} {:>36} {:>36} {:>7}  {}",
                summary(&b.values),
                summary(&n.values),
                format!("{wins}/{pairs}"),
                v.as_str()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(start: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| start + step * f64::from(i)).collect()
    }

    #[test]
    fn a_clear_win_is_an_improvement() {
        let base = ramp(100.0, 0.5);
        let new = ramp(80.0, 0.5);
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&new, &base, Better::Higher, Some(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_regresses_and_within_it_does_not() {
        let base = ramp(100.0, 0.5);
        assert_eq!(
            verdict(&base, &ramp(120.0, 0.5), Better::Lower, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &ramp(103.0, 0.5), Better::Lower, Some(0.1)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved() {
        let base = ramp(100.0, 10.0);
        let new = ramp(110.0, 10.0);
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let far = ramp(0.0, 1.0);
        assert_eq!(
            verdict(&base, &far, Better::Lower, Some(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_gap_inside_the_base_spread_is_no_improvement() {
        let base = ramp(100.0, 1.0);
        let new: Vec<f64> = base.iter().map(|x| x - 0.5).collect();
        assert_eq!(
            verdict(&base, &new, Better::Lower, Some(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&base, &new, Better::Lower, None), Verdict::NoClaim);
    }

    #[test]
    fn exact_counts_and_short_series() {
        assert_eq!(
            verdict(&[7.0; 3], &[7.0; 3], Better::Lower, None),
            Verdict::Same
        );
        assert_eq!(
            verdict(&[7.0; 3], &[8.0; 3], Better::Lower, None),
            Verdict::Changed
        );
        assert_eq!(
            verdict(&[1.0, 2.0], &[1.0, 3.0], Better::Lower, None),
            Verdict::TooFewPairs
        );
    }
}
