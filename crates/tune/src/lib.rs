//! The deterministic schedule autotuner.
//!
//! The optimisation pipeline exposes every decision it takes as a choice
//! point on a [`Schedule`] (see `futhark_core::schedule`); this crate
//! searches that space with a greedy hill-climb scored by the simulator's
//! *exact* cost model — no wall-clock measurement, no noise. The search
//! is deterministic end to end: neighbours are enumerated in a fixed
//! order, per-site mutations are sampled from the in-tree [`Rng64`]
//! seeded by [`TuneConfig::seed`], and the simulator's modelled time is a
//! pure function of `(program, schedule, arguments, device)`. Equal seeds
//! and inputs therefore reproduce the same winning schedule bit for bit.
//!
//! Two invariants the tests pin:
//!
//! - **Soundness**: a candidate is accepted only if its outputs are
//!   bit-identical to the default schedule's outputs on the tuning
//!   arguments. (Every schedule is semantically valid by construction —
//!   declined sites fall back to sequential code — so this is a belt on
//!   top of braces.)
//! - **Monotonicity**: an accepted step strictly improves the
//!   lexicographic [`Score`]; the objective never worsens over a tuning
//!   run.

use futhark::{ChoiceClass, Compiler, Device, Error, PerfReport, RunOptions, Schedule};
use futhark_core::{Rng64, Value};

/// The tuner's objective, compared lexicographically: modelled time
/// first, then global memory transactions, bus bytes, and finally the
/// peak device footprint as tie-breakers. All four come from the
/// simulator's exact cost model, so comparisons are noise-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Modelled execution time, microseconds.
    pub total_us: f64,
    /// Global-memory transactions.
    pub transactions: u64,
    /// Bytes moved over the memory bus.
    pub bus_bytes: u64,
    /// Peak device bytes.
    pub peak_bytes: u64,
}

impl Score {
    /// The score of one run.
    pub fn of(perf: &PerfReport) -> Score {
        Score {
            total_us: perf.total_us,
            transactions: perf.stats.global_transactions,
            bus_bytes: perf.stats.bus_bytes,
            peak_bytes: perf.mem.peak_bytes,
        }
    }

    /// Strict lexicographic improvement.
    pub fn better_than(&self, other: &Score) -> bool {
        if self.total_us != other.total_us {
            return self.total_us < other.total_us;
        }
        if self.transactions != other.transactions {
            return self.transactions < other.transactions;
        }
        if self.bus_bytes != other.bus_bytes {
            return self.bus_bytes < other.bus_bytes;
        }
        self.peak_bytes < other.peak_bytes
    }

    /// Relative modelled-time improvement over `base` in `[0, 1]`.
    pub fn speedup_over(&self, base: &Score) -> f64 {
        if base.total_us <= 0.0 {
            0.0
        } else {
            1.0 - self.total_us / base.total_us
        }
    }
}

/// Search parameters.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// PRNG seed for the sampled per-site mutations.
    pub seed: u64,
    /// Maximum hill-climb rounds; the search also stops at the first
    /// round without an improvement.
    pub rounds: usize,
    /// Sampled per-site override flips per round (on top of the fixed
    /// coarse-switch and class-default neighbourhood).
    pub site_samples: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 0,
            rounds: 4,
            site_samples: 8,
        }
    }
}

/// One accepted hill-climb step.
#[derive(Debug, Clone)]
pub struct TuneStep {
    /// What was flipped, human-readable.
    pub description: String,
    /// The score after the step.
    pub score: Score,
}

/// The result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning schedule (the default schedule if nothing beat it).
    pub schedule: Schedule,
    /// Score of the default schedule.
    pub default_score: Score,
    /// Score of the winning schedule.
    pub score: Score,
    /// Candidate schedules compiled and run.
    pub evaluated: usize,
    /// The accepted steps, in order.
    pub steps: Vec<TuneStep>,
}

impl TuneOutcome {
    /// Relative modelled-time improvement of the winner over the default.
    pub fn speedup(&self) -> f64 {
        self.score.speedup_over(&self.default_score)
    }
}

/// One evaluation of a schedule: compile, run, score.
///
/// # Errors
///
/// Propagates pipeline and execution errors.
pub fn evaluate(
    source: &str,
    args: &[Value],
    device: Device,
    sched: &Schedule,
) -> Result<(Vec<Value>, Score, [u32; ChoiceClass::COUNT]), Error> {
    let compiled = Compiler::with_schedule(sched.clone()).compile(source)?;
    let counts = compiled.choice_counts;
    let (outputs, perf) = compiled.run_with_opts(device, args, RunOptions::default())?;
    Ok((outputs, Score::of(&perf), counts))
}

fn bit_identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
}

/// The fixed part of the neighbourhood: coarse pass switches, simplify
/// rewrite toggles, and class-default flips for classes with at least
/// one observed site. Deterministic enumeration order.
fn fixed_neighbours(cur: &Schedule, counts: &[u32; ChoiceClass::COUNT]) -> Vec<(String, Schedule)> {
    let mut out: Vec<(String, Schedule)> = Vec::new();
    {
        let mut s = cur.clone();
        s.simplify_pass = !s.simplify_pass;
        out.push((format!("simplify_pass={}", s.simplify_pass), s));
    }
    {
        let mut s = cur.clone();
        s.fusion_pass = !s.fusion_pass;
        out.push((format!("fusion_pass={}", s.fusion_pass), s));
    }
    {
        let mut s = cur.clone();
        s.memplan = !s.memplan;
        out.push((format!("memplan={}", s.memplan), s));
    }
    if cur.simplify_pass {
        type Toggle = (&'static str, fn(&mut Schedule));
        let toggles: [Toggle; 5] = [
            ("copy_prop", |s| {
                s.simplify.copy_prop = !s.simplify.copy_prop
            }),
            ("const_fold", |s| {
                s.simplify.const_fold = !s.simplify.const_fold;
            }),
            ("cse", |s| s.simplify.cse = !s.simplify.cse),
            ("hoist", |s| s.simplify.hoist = !s.simplify.hoist),
            ("dead_code", |s| {
                s.simplify.dead_code = !s.simplify.dead_code
            }),
        ];
        for (name, flip) in toggles {
            let mut s = cur.clone();
            flip(&mut s);
            out.push((format!("flip simplify.{name}"), s));
        }
    }
    for &class in ChoiceClass::ALL {
        if counts[class.index()] == 0 {
            continue;
        }
        let mut s = cur.clone();
        let d = s.decisions_mut(class);
        d.default = !d.default;
        d.overrides.clear();
        out.push((
            format!("{}.default={}", class.name(), !cur.decisions(class).default),
            s,
        ));
    }
    out
}

/// Sampled per-site override flips within the observed site counts.
fn sampled_neighbours(
    cur: &Schedule,
    counts: &[u32; ChoiceClass::COUNT],
    rng: &mut Rng64,
    samples: usize,
) -> Vec<(String, Schedule)> {
    let live: Vec<ChoiceClass> = ChoiceClass::ALL
        .iter()
        .copied()
        .filter(|c| counts[c.index()] > 0)
        .collect();
    if live.is_empty() {
        return Vec::new();
    }
    let mut seen: Vec<(ChoiceClass, u32)> = Vec::new();
    let mut out = Vec::new();
    for _ in 0..samples {
        let class = live[rng.pick(live.len())];
        let site = (rng.next_u64() % counts[class.index()] as u64) as u32;
        if seen.contains(&(class, site)) {
            continue;
        }
        seen.push((class, site));
        let flipped = !cur.decisions(class).decide(site);
        let s = cur.clone().with_override(class, site, flipped);
        out.push((
            format!(
                "{}@{site}={}",
                class.name(),
                if flipped { "+" } else { "-" }
            ),
            s,
        ));
    }
    out
}

/// Greedy, deterministic hill-climb from the default schedule.
///
/// Each round enumerates the neighbourhood of the current schedule,
/// evaluates every candidate with the exact cost model, rejects any
/// candidate whose outputs are not bit-identical to the default
/// schedule's outputs, and accepts the *best* strictly-improving
/// candidate (steepest descent). The search stops after
/// [`TuneConfig::rounds`] rounds or the first round with no improvement.
///
/// # Errors
///
/// Propagates errors only for the default schedule's compile/run; a
/// failing *candidate* is skipped (no valid schedule should fail, but
/// the search must not abort if one does).
pub fn tune(
    source: &str,
    args: &[Value],
    device: Device,
    cfg: &TuneConfig,
) -> Result<TuneOutcome, Error> {
    let base = Schedule::default();
    let (oracle, default_score, mut counts) = evaluate(source, args, device, &base)?;
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let mut current = base;
    let mut current_score = default_score;
    let mut evaluated = 1;
    let mut steps = Vec::new();
    for _ in 0..cfg.rounds {
        let mut cands = fixed_neighbours(&current, &counts);
        cands.extend(sampled_neighbours(
            &current,
            &counts,
            &mut rng,
            cfg.site_samples,
        ));
        let mut best: Option<(String, Schedule, Score, [u32; ChoiceClass::COUNT])> = None;
        for (desc, sched) in cands {
            let Ok((outs, score, c)) = evaluate(source, args, device, &sched) else {
                continue;
            };
            evaluated += 1;
            if !bit_identical(&outs, &oracle) {
                continue;
            }
            let beats_current = score.better_than(&current_score);
            let beats_best = best
                .as_ref()
                .is_none_or(|(_, _, s, _)| score.better_than(s));
            if beats_current && beats_best {
                best = Some((desc, sched, score, c));
            }
        }
        match best {
            Some((desc, sched, score, c)) => {
                current = sched;
                current_score = score;
                counts = c;
                steps.push(TuneStep {
                    description: desc,
                    score,
                });
            }
            None => break,
        }
    }
    Ok(TuneOutcome {
        schedule: current,
        default_score,
        score: current_score,
        evaluated,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
                       let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
                       in sums";

    fn args() -> Vec<Value> {
        use futhark_core::{ArrayVal, Buffer};
        let n = 16usize;
        let m = 8usize;
        vec![
            Value::i64(n as i64),
            Value::i64(m as i64),
            Value::Array(ArrayVal::new(
                vec![n, m],
                Buffer::F32((0..n * m).map(|i| (i % 5) as f32).collect()),
            )),
        ]
    }

    #[test]
    fn tuning_is_deterministic_per_seed() {
        let cfg = TuneConfig {
            seed: 42,
            rounds: 2,
            site_samples: 4,
        };
        let a = tune(SRC, &args(), Device::Gtx780, &cfg).unwrap();
        let b = tune(SRC, &args(), Device::Gtx780, &cfg).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.score, b.score);
        assert_eq!(a.evaluated, b.evaluated);
    }

    #[test]
    fn accepted_steps_never_worsen_the_objective() {
        let cfg = TuneConfig {
            seed: 7,
            rounds: 3,
            site_samples: 6,
        };
        let out = tune(SRC, &args(), Device::Gtx780, &cfg).unwrap();
        let mut prev = out.default_score;
        for step in &out.steps {
            assert!(
                step.score.better_than(&prev),
                "step {:?} did not improve on {:?}",
                step,
                prev
            );
            prev = step.score;
        }
        assert!(!out.default_score.better_than(&out.score));
    }
}
