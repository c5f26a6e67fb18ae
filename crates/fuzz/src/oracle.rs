//! The differential oracle: run a program through the reference
//! interpreter and through the compiled simulator on every device profile
//! under every ablation configuration, and demand bit-identical results.
//! Every simulator run is repeated on the per-lane reference engine,
//! whose faults and counters, per source site too, must match the warp
//! engine's, and the bottleneck analysis of every run must keep its
//! invariants.
//!
//! Because every configuration must compute the same function, *any*
//! difference — a compile error in one configuration, a runtime fault, or
//! a single differing bit in an output — is a bug by construction, either
//! in an optimisation pass, in the code generator, or in the semantics the
//! interpreter and simulator are supposed to share.

use futhark::{interpret, Compiler, Device, RunOptions, Schedule};
use futhark_core::{Rng64, Value};

/// The two simulated devices, with stable labels for reports.
pub fn devices() -> [(Device, &'static str); 2] {
    [(Device::Gtx780, "gtx780"), (Device::W8100, "w8100")]
}

/// How a configuration disagreed with the reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The pipeline rejected a program the interpreter executes.
    CompileError,
    /// The simulator faulted at runtime.
    RunError,
    /// The simulator produced different output values.
    Mismatch,
    /// The bottleneck analysis broke an invariant: a launch whose time
    /// decomposition disagrees with its recorded time, or an
    /// [`futhark::AnalysisReport`] that fails its own JSON round-trip.
    /// Analysis is derived data — either means it misread the run.
    AnalysisPerturbation,
    /// The warp execution engine disagreed with the per-lane reference
    /// engine ([`futhark::Compiled::into_reference`]): different output
    /// values, a different error, or different cost counters, in
    /// aggregate or at a source site.
    /// The two engines implement the same SIMT semantics and must be
    /// observationally indistinguishable.
    WarpExecution,
}

/// One observed disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The failing configuration: the [`Schedule::describe`] text of an
    /// ablation corner, or `sched:` and the label of a sampled schedule.
    pub config: String,
    /// The device label, when execution got that far.
    pub device: Option<String>,
    /// The failure class.
    pub kind: DivergenceKind,
    /// Human-readable detail (error text, or expected/actual values with
    /// the first differing flat index).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            DivergenceKind::CompileError => "compile error",
            DivergenceKind::RunError => "run error",
            DivergenceKind::Mismatch => "mismatch",
            DivergenceKind::AnalysisPerturbation => "analysis perturbation",
            DivergenceKind::WarpExecution => "warp execution",
        };
        write!(f, "[{}", self.config)?;
        if let Some(d) = &self.device {
            write!(f, " on {d}")?;
        }
        write!(f, "] {kind}: {}", self.detail)
    }
}

/// The oracle's verdict on one program.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every configuration and device matched the interpreter bit for bit.
    Clean,
    /// The reference interpreter itself failed — a generator bug or an
    /// interpreter bug; never expected, always reported.
    InterpError(String),
    /// At least one configuration disagreed (first disagreement reported).
    Diverged(Divergence),
}

impl Outcome {
    /// Whether the outcome is a failure of any class.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Clean)
    }

    /// A short description of the failure, if any.
    pub fn describe(&self) -> Option<String> {
        match self {
            Outcome::Clean => None,
            Outcome::InterpError(e) => Some(format!("interpreter error: {e}")),
            Outcome::Diverged(d) => Some(d.to_string()),
        }
    }
}

fn truncated(v: &Value) -> String {
    let s = format!("{v:?}");
    if s.len() > 160 {
        format!("{}…", &s[..160])
    } else {
        s
    }
}

/// How two runs' outputs differ, if they do, naming each side as `sides`
/// does: `sides[0]` produced `a` and `sides[1]` produced `b`.
fn compare(sides: [&str; 2], a: &[Value], b: &[Value]) -> Option<String> {
    let [an, bn] = sides;
    if a.len() != b.len() {
        return Some(format!(
            "result arity: {an} {} vs {bn} {}",
            a.len(),
            b.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if !x.bit_eq(y) {
            let at = x
                .first_mismatch(y)
                .map(|k| format!(" (first differing flat index {k})"))
                .unwrap_or_default();
            return Some(format!(
                "result {i}{at}: {an} {} vs {bn} {}",
                truncated(x),
                truncated(y)
            ));
        }
    }
    None
}

/// How two runs' [`futhark::PerfReport`] counters (launches, transposes,
/// whole-run kernel stats, and each source site's counters and modelled
/// time) differ, if they do.
fn counters_differ(a: &futhark::PerfReport, b: &futhark::PerfReport) -> Option<String> {
    if a.stats != b.stats || a.launches != b.launches || a.transposes != b.transposes {
        return Some(format!(
            "launches {} vs {}, transposes {} vs {}, stats {:?} vs {:?}",
            a.launches, b.launches, a.transposes, b.transposes, a.stats, b.stats
        ));
    }
    let sites: std::collections::BTreeSet<&String> =
        a.per_site.keys().chain(b.per_site.keys()).collect();
    sites.into_iter().find_map(|k| {
        let (x, y) = (a.per_site.get(k), b.per_site.get(k));
        (x != y).then(|| format!("site {k}: {x:?} vs {y:?}"))
    })
}

/// Re-runs the program on the per-lane reference engine (`reference`,
/// from [`futhark::Compiled::into_reference`]) and demands bit-identical
/// outputs — or the identical error — and identical
/// [`futhark::PerfReport`] counters, per site too, to the warp engine's
/// run. The warp
/// engine is a pure execution-strategy change; any observable difference
/// is a bug in its masking, fault ordering, register compilation or
/// counter accounting.
fn check_warp_vs_reference(
    reference: &futhark::Compiled,
    device: Device,
    dlabel: &str,
    args: &[Value],
    warp_run: &Result<(Vec<Value>, futhark::PerfReport), String>,
    sched: &Schedule,
) -> Option<Divergence> {
    let reference_run = reference
        .run_with_opts(device, args, RunOptions::default())
        .map_err(|e| e.to_string());
    let detail = match (warp_run, &reference_run) {
        (Ok((vals, perf)), Ok((rvals, rperf))) => {
            compare(["reference", "warp engine"], rvals, vals)
                .map(|d| format!("outputs: {d}"))
                .or_else(|| {
                    counters_differ(perf, rperf)
                        .map(|d| format!("counters, warp vs reference: {d}"))
                })
        }
        (Err(e), Err(re)) => {
            (e != re).then(|| format!("engines fault differently: warp {e:?} vs reference {re:?}"))
        }
        (Ok(_), Err(re)) => Some(format!("reference faulted, warp engine did not: {re}")),
        (Err(e), Ok(_)) => Some(format!("warp engine faulted, reference did not: {e}")),
    }?;
    Some(Divergence {
        config: format!("{}+reference", sched.describe()),
        device: Some(dlabel.to_string()),
        kind: DivergenceKind::WarpExecution,
        detail,
    })
}

/// Checks that the bottleneck analysis reads the run it describes
/// faithfully. Invariants, both exact (no tolerances):
///
/// 1. Every launch's recorded time decomposition reproduces its recorded
///    time bit-for-bit: `breakdown.total_us() == us`.
/// 2. The [`futhark::AnalysisReport`] survives a JSON round-trip.
fn check_analysis(device: Device, perf: &futhark::PerfReport) -> Option<String> {
    use futhark::TimelineEvent;
    for e in &perf.timeline {
        if let TimelineEvent::Launch(l) = e {
            if l.breakdown.total_us() != l.us {
                return Some(format!(
                    "launch of {}: breakdown total {:?} != recorded {:?} us",
                    l.kernel,
                    l.breakdown.total_us(),
                    l.us
                ));
            }
        }
    }
    let report = futhark::analyze::analyze(perf, &device.profile());
    let text = report.to_json().render();
    let parsed = futhark::Json::parse(&text).ok();
    match parsed.as_ref().and_then(futhark::AnalysisReport::from_json) {
        Some(back) if back == report => None,
        _ => Some("analysis report failed its JSON round-trip".to_string()),
    }
}

/// The schedule-sampling stage: compiles the program under `n` random
/// valid schedules (drawn from a [`Rng64`] seeded by `seed`) and runs
/// each on both devices, demanding bit-identical agreement with the
/// reference interpreter. Schedules are valid by construction — a
/// declined choice site falls back to sequential code — so *any*
/// disagreement is a pipeline bug, exactly as for the ablation corners.
pub fn check_schedules(
    src: &str,
    args: &[Value],
    reference: &[Value],
    seed: u64,
    n: u32,
) -> Option<Divergence> {
    let mut rng = Rng64::seed_from_u64(seed);
    for _ in 0..n {
        let sched = Schedule::sample(&mut rng);
        let config = format!("sched:{}", sched.label());
        let compiled = match Compiler::with_schedule(sched).compile(src) {
            Ok(c) => c,
            Err(e) => {
                return Some(Divergence {
                    config,
                    device: None,
                    kind: DivergenceKind::CompileError,
                    detail: e.to_string(),
                })
            }
        };
        for (device, dlabel) in devices() {
            match compiled.run_with_opts(device, args, RunOptions::default()) {
                Ok((got, _)) => {
                    if let Some(detail) = compare(["interpreter", "simulator"], reference, &got) {
                        return Some(Divergence {
                            config: config.clone(),
                            device: Some(dlabel.to_string()),
                            kind: DivergenceKind::Mismatch,
                            detail,
                        });
                    }
                }
                Err(e) => {
                    return Some(Divergence {
                        config: config.clone(),
                        device: Some(dlabel.to_string()),
                        kind: DivergenceKind::RunError,
                        detail: e.to_string(),
                    })
                }
            }
        }
    }
    None
}

/// Runs the full differential check plus the schedule-sampling stage.
pub fn check_source_with_schedules(
    src: &str,
    args: &[Value],
    sched_seed: u64,
    schedules: u32,
) -> Outcome {
    match check_source(src, args) {
        Outcome::Clean if schedules > 0 => {
            let reference = match interpret(src, args) {
                Ok(v) => v,
                Err(e) => return Outcome::InterpError(e.to_string()),
            };
            match check_schedules(src, args, &reference, sched_seed, schedules) {
                None => Outcome::Clean,
                Some(d) => Outcome::Diverged(d),
            }
        }
        other => other,
    }
}

/// Runs the full differential check on one program.
pub fn check_source(src: &str, args: &[Value]) -> Outcome {
    let reference = match interpret(src, args) {
        Ok(v) => v,
        Err(e) => return Outcome::InterpError(e.to_string()),
    };
    for sched in Schedule::ablation_corners() {
        let compiled = match Compiler::with_schedule(sched.clone()).compile(src) {
            Ok(c) => c,
            Err(e) => {
                return Outcome::Diverged(Divergence {
                    config: sched.describe(),
                    device: None,
                    kind: DivergenceKind::CompileError,
                    detail: e.to_string(),
                })
            }
        };
        // The warp runs go first: `into_reference` consumes `compiled`.
        let runs: Vec<_> = devices()
            .into_iter()
            .map(|(device, _)| {
                compiled
                    .run_with_opts(device, args, RunOptions::default())
                    .map_err(|e| e.to_string())
            })
            .collect();
        // The warp engine must be observationally indistinguishable from
        // the per-lane reference on every configuration: decode the
        // program once for the reference, re-run it on each device, and
        // demand identical outputs (or the identical fault) and identical
        // counters, in aggregate and per site.
        let per_lane = match compiled.into_reference() {
            Ok(r) => r,
            Err(e) => {
                return Outcome::Diverged(Divergence {
                    config: format!("{}+reference", sched.describe()),
                    device: None,
                    kind: DivergenceKind::WarpExecution,
                    detail: format!("reference decode failed: {e}"),
                })
            }
        };
        for ((device, dlabel), run) in devices().into_iter().zip(runs) {
            if let Some(d) = check_warp_vs_reference(&per_lane, device, dlabel, args, &run, &sched)
            {
                return Outcome::Diverged(d);
            }
            match run {
                Ok((got, perf)) => {
                    if let Some(detail) = compare(["interpreter", "simulator"], &reference, &got) {
                        return Outcome::Diverged(Divergence {
                            config: sched.describe(),
                            device: Some(dlabel.to_string()),
                            kind: DivergenceKind::Mismatch,
                            detail,
                        });
                    }
                    if let Some(detail) = check_analysis(device, &perf) {
                        return Outcome::Diverged(Divergence {
                            config: format!("{}+analyze", sched.describe()),
                            device: Some(dlabel.to_string()),
                            kind: DivergenceKind::AnalysisPerturbation,
                            detail,
                        });
                    }
                }
                Err(e) => {
                    return Outcome::Diverged(Divergence {
                        config: sched.describe(),
                        device: Some(dlabel.to_string()),
                        kind: DivergenceKind::RunError,
                        detail: e,
                    })
                }
            }
        }
    }
    Outcome::Clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark_core::ArrayVal;

    const DOUBLE: &str = "fun main (n: i64) (xs: [n]i64): [n]i64 =\n  \
                          let r = map (\\x -> x * 2) xs\n  in r";

    fn args() -> Vec<Value> {
        vec![
            Value::i64(3),
            Value::Array(ArrayVal::from_i64s(vec![1, -2, 3])),
        ]
    }

    #[test]
    fn clean_program_is_clean() {
        assert!(matches!(check_source(DOUBLE, &args()), Outcome::Clean));
    }

    #[test]
    fn compare_names_the_sides_it_is_given() {
        let one = [Value::i64(1)];
        let two = [Value::i64(2)];
        let arity = compare(["interpreter", "simulator"], &one, &[]).unwrap();
        assert_eq!(arity, "result arity: interpreter 1 vs simulator 0");
        let value = compare(["reference", "warp engine"], &one, &two).unwrap();
        assert!(
            value.starts_with("result 0: reference ") && value.contains(" vs warp engine "),
            "{value}"
        );
        assert_eq!(compare(["a", "b"], &one, &one), None);
    }

    #[test]
    fn unparseable_program_reports_interp_error() {
        match check_source("fun main (): i64 = oops", &args()) {
            Outcome::InterpError(_) => {}
            other => panic!("expected InterpError, got {other:?}"),
        }
    }
}
