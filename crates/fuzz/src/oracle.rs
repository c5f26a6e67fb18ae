//! The differential oracle: run a program through the reference
//! interpreter and through the compiled simulator on every device profile
//! under every ablation configuration, and demand bit-identical results.
//! Every simulator run is repeated on the per-lane reference engine,
//! whose faults and counters must match the warp engine's too.
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
    /// Profiled execution perturbed the run: different output values or
    /// different aggregate cost counters than the unprofiled run.
    ProfilePerturbation,
    /// The bottleneck analysis broke an invariant: a launch whose time
    /// decomposition disagrees with its recorded time, limiters that
    /// differ between the profiled and unprofiled run of the same
    /// program, or an [`futhark::AnalysisReport`] that fails its own
    /// JSON round-trip. Analysis is derived data — any of these means it
    /// perturbed or misread the run.
    AnalysisPerturbation,
    /// The warp execution engine disagreed with the per-lane reference
    /// engine ([`futhark::Compiled::into_reference`]): different output
    /// values, a different error, or different aggregate cost counters.
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
            DivergenceKind::ProfilePerturbation => "profile perturbation",
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

/// How two runs' aggregate [`futhark::PerfReport`] counters (launches,
/// transposes, whole-run kernel stats) differ, if they do.
fn counters_differ(a: &futhark::PerfReport, b: &futhark::PerfReport) -> Option<String> {
    (a.stats != b.stats || a.launches != b.launches || a.transposes != b.transposes).then(|| {
        format!(
            "launches {} vs {}, transposes {} vs {}, stats {:?} vs {:?}",
            a.launches, b.launches, a.transposes, b.transposes, a.stats, b.stats
        )
    })
}

/// Compares a profiled re-run against the unprofiled run: the outputs
/// must be bit-identical and the aggregate [`futhark::PerfReport`]
/// counters (launches, transposes, whole-run kernel stats) unchanged —
/// profiling is an observer, never a participant.
fn check_profiled_run(
    compiled: &futhark::Compiled,
    device: Device,
    dlabel: &str,
    args: &[Value],
    unprofiled: &[Value],
    perf: &futhark::PerfReport,
    sched: &Schedule,
) -> Option<Divergence> {
    let diverge = |detail: String| {
        Some(Divergence {
            config: format!("{}+profile", sched.describe()),
            device: Some(dlabel.to_string()),
            kind: DivergenceKind::ProfilePerturbation,
            detail,
        })
    };
    let profiled = RunOptions {
        profile: true,
        ..RunOptions::default()
    };
    match compiled.run_with_opts(device, args, profiled) {
        Ok((got, pperf)) => {
            if let Some(detail) = compare(["unprofiled", "profiled"], unprofiled, &got) {
                return diverge(detail);
            }
            if let Some(d) = counters_differ(perf, &pperf) {
                return diverge(format!("aggregate counters changed under profiling: {d}"));
            }
            if let Some(detail) = check_analysis(device, perf, &pperf) {
                return Some(Divergence {
                    config: format!("{}+analyze", sched.describe()),
                    device: Some(dlabel.to_string()),
                    kind: DivergenceKind::AnalysisPerturbation,
                    detail,
                });
            }
            None
        }
        Err(e) => diverge(format!("profiled run failed: {e}")),
    }
}

/// Re-runs the program on the per-lane reference engine (`reference`,
/// from [`futhark::Compiled::into_reference`]) and demands bit-identical
/// outputs — or the identical error — and identical aggregate
/// [`futhark::PerfReport`] counters to the warp engine's run. The warp
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

/// Checks that the bottleneck analysis layer is a pure observer of the
/// run it describes. Invariants, all exact (no tolerances):
///
/// 1. Every launch's recorded time decomposition reproduces its recorded
///    time bit-for-bit: `breakdown.total_us() == us`.
/// 2. The per-kernel limiters and summed decompositions of the profiled
///    and unprofiled runs are identical — enabling per-site profiling
///    must not move a single modelled nanosecond.
/// 3. The peak footprint and its owning site agree between the runs.
/// 4. The [`futhark::AnalysisReport`] survives a JSON round-trip.
fn check_analysis(
    device: Device,
    perf: &futhark::PerfReport,
    pperf: &futhark::PerfReport,
) -> Option<String> {
    use futhark::TimelineEvent;
    for (label, r) in [("unprofiled", perf), ("profiled", pperf)] {
        for e in &r.timeline {
            if let TimelineEvent::Launch(l) = e {
                match l.breakdown {
                    None => {
                        return Some(format!("{label} launch of {} has no breakdown", l.kernel))
                    }
                    Some(bd) if bd.total_us() != l.us => {
                        return Some(format!(
                            "{label} launch of {}: breakdown total {:?} != recorded {:?} us",
                            l.kernel,
                            bd.total_us(),
                            l.us
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    let profile = device.profile();
    let a = futhark::analyze::analyze(perf, &profile);
    let b = futhark::analyze::analyze(pperf, &profile);
    if a.kernels.len() != b.kernels.len() {
        return Some(format!(
            "analysis sees {} kernels unprofiled vs {} profiled",
            a.kernels.len(),
            b.kernels.len()
        ));
    }
    for (name, ka) in &a.kernels {
        let Some(kb) = b.kernels.get(name) else {
            return Some(format!("kernel {name} analysed only in the unprofiled run"));
        };
        if ka.limiter != kb.limiter || ka.breakdown != kb.breakdown {
            return Some(format!(
                "kernel {name}: limiter/breakdown changed under profiling: \
                 {} {:?} vs {} {:?}",
                ka.limiter, ka.breakdown, kb.limiter, kb.breakdown
            ));
        }
    }
    if a.peak_bytes != b.peak_bytes || a.peak_site != b.peak_site {
        return Some(format!(
            "peak attribution changed under profiling: {} B at {:?} vs {} B at {:?}",
            a.peak_bytes, a.peak_site, b.peak_bytes, b.peak_site
        ));
    }
    for (label, rep) in [("unprofiled", &a), ("profiled", &b)] {
        let text = rep.to_json().render();
        let parsed = futhark::Json::parse(&text).ok();
        match parsed.as_ref().and_then(futhark::AnalysisReport::from_json) {
            Some(back) if back == *rep => {}
            _ => {
                return Some(format!(
                    "{label} analysis report failed its JSON round-trip"
                ))
            }
        }
    }
    None
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
        // The warp runs first, each with its profiled re-run on the
        // default configuration: profiled execution must be a pure
        // observer, giving bit-identical outputs and identical aggregate
        // cost counters. Its verdict is reported after the checks below,
        // in their order.
        let runs: Vec<_> = devices()
            .into_iter()
            .map(|(device, dlabel)| {
                let run = compiled
                    .run_with_opts(device, args, RunOptions::default())
                    .map_err(|e| e.to_string());
                let profiled = match &run {
                    Ok((got, perf)) if sched.is_default() => {
                        check_profiled_run(&compiled, device, dlabel, args, got, perf, &sched)
                    }
                    _ => None,
                };
                (run, profiled)
            })
            .collect();
        // The warp engine must be observationally indistinguishable from
        // the per-lane reference on every configuration: decode the
        // program once for the reference, re-run it on each device, and
        // demand identical outputs (or the identical fault) and identical
        // aggregate counters.
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
        for ((device, dlabel), (run, profiled)) in devices().into_iter().zip(runs) {
            if let Some(d) = check_warp_vs_reference(&per_lane, device, dlabel, args, &run, &sched)
            {
                return Outcome::Diverged(d);
            }
            match run {
                Ok((got, _)) => {
                    if let Some(detail) = compare(["interpreter", "simulator"], &reference, &got) {
                        return Outcome::Diverged(Divergence {
                            config: sched.describe(),
                            device: Some(dlabel.to_string()),
                            kind: DivergenceKind::Mismatch,
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
            if let Some(d) = profiled {
                return Outcome::Diverged(d);
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
        let arity = compare(["unprofiled", "profiled"], &one, &[]).unwrap();
        assert_eq!(arity, "result arity: unprofiled 1 vs profiled 0");
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
