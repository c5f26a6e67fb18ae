//! `serve-warm` and `serve-cold`: an in-process futharkd with two
//! modelled GTX 780s, driven by one closed-loop client. The client blocks
//! on its reply before sending the next request, as futharkd's callers
//! do; with two cores, an open-loop generator would measure the scheduler
//! rather than the daemon. One client, not two: with two busy client
//! threads on a 2-vCPU host, anything else the host runs takes a core
//! from a client in the middle of a request.
//!
//! - warm: the paper programs on their small datasets plus fuzz programs,
//!   all cached after set-up, so every request is a cache hit on a tiny
//!   input and per-request fixed costs dominate. The fuzz programs are the
//!   same for every seed, which only orders the pool: fuzz programs differ
//!   up to tenfold in cost, and with 48 of them, which ones a seed drew
//!   moved set-up time by 40% and compile time by 18% between seeds.
//! - cold: four times as many distinct cache keys as the cache holds,
//!   sent in a fixed seeded cyclic order, so the LRU misses on every
//!   request and each one pays for compilation and the admission
//!   prediction. (With only twice as many, which programs and schedules a
//!   seed draws moved throughput by about 12% between seeds.)

use crate::layers::{self, Compiled, PaperBench, Schedule, Server, Value};
use crate::probe::Probe;
use crate::reissue::{self, Distinct};
use crate::report::{EndToEnd, Failures, Outcome, PAPER};
use crate::trace::Tracer;
use crate::{shuffle, stats, Config};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Seed streams.
const FUZZ_STREAM: u64 = 2;
/// The seed whose fuzz campaign serve-warm uses, whatever the run's seed.
const WARM_FUZZ_SEED: u64 = 0;
const SCHEDULE_STREAM: u64 = 3;
const ORDER_STREAM: u64 = 4;

/// The client takes a probe reading after a reply once this long has
/// passed since the last one, s. A reading takes about 3 ms.
const PROBE_EVERY_S: f64 = 0.1;

/// Artifact-cache capacity of the daemon.
const CACHE_CAPACITY: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Cold,
}

/// One distinct cache key of the pool.
struct Job {
    source: String,
    args: Vec<Value>,
    schedule: Option<Schedule>,
    line: String,
    /// Index of the interpreter output this job must reproduce.
    reference: usize,
    /// The paper benchmark this job runs, if any.
    paper: Option<usize>,
}

struct Pool {
    jobs: Vec<Job>,
    references: Vec<Vec<Value>>,
    paper: Vec<PaperBench>,
}

/// Pool sizes: `(fuzz programs, sampled schedules per paper program)`.
fn sizes(mode: Mode, smoke: bool) -> (usize, usize) {
    match (mode, smoke) {
        (Mode::Warm, false) => (48, 0),
        (Mode::Warm, true) => (4, 0),
        (Mode::Cold, false) => (256, 16),
        (Mode::Cold, true) => (8, 2),
    }
}

/// Builds the pool and its interpreter references. The fuzz programs are
/// the first of the campaign that the interpreter accepts; warm runs the paper
/// programs at the default schedule, cold at sampled schedules
/// (deduplicated by label). Every schedule computes the same function, so
/// one reference covers all schedules of a program.
fn build_pool(mode: Mode, cfg: &Config) -> Result<Pool, String> {
    let (fuzz, schedules) = sizes(mode, cfg.smoke);
    let paper = layers::paper_suite();
    let mut references = Vec::new();
    let mut jobs = Vec::new();
    let mut keys = BTreeSet::new();
    let mut push = |jobs: &mut Vec<Job>,
                    source: &str,
                    args: &[Value],
                    schedule: Option<Schedule>,
                    reference,
                    paper| {
        if !keys.insert(layers::cache_key(source, schedule.as_ref())) {
            return;
        }
        let id = format!("j{}", jobs.len());
        jobs.push(Job {
            line: layers::run_request(&id, source, args, schedule.as_ref()),
            source: source.to_string(),
            args: args.to_vec(),
            schedule,
            reference,
            paper,
        });
    };
    let mut rng = crate::rng(cfg.seed, SCHEDULE_STREAM);
    for (i, b) in paper.iter().enumerate() {
        let reference = layers::interpret(&b.source, &b.small_args)
            .map_err(|e| format!("{}: interpreter failed: {e}", b.name))?;
        references.push(reference);
        let r = references.len() - 1;
        if mode == Mode::Warm {
            push(&mut jobs, &b.source, &b.small_args, None, r, Some(i));
        }
        for _ in 0..schedules {
            let s = layers::sample_schedule(&mut rng);
            push(&mut jobs, &b.source, &b.small_args, Some(s), r, Some(i));
        }
    }
    let fuzz_seed = match mode {
        Mode::Warm => WARM_FUZZ_SEED,
        Mode::Cold => cfg.seed,
    };
    let campaign = crate::rng(fuzz_seed, FUZZ_STREAM).next_u64();
    let (mut accepted, mut index) = (0, 0);
    while accepted < fuzz {
        if index >= 20 * fuzz as u64 {
            return Err(format!(
                "the interpreter accepted {accepted} of {index} fuzz programs"
            ));
        }
        let (source, args) = layers::fuzz_program(campaign, index);
        index += 1;
        if let Ok(reference) = layers::interpret(&source, &args) {
            references.push(reference);
            let before = jobs.len();
            push(&mut jobs, &source, &args, None, references.len() - 1, None);
            accepted += jobs.len() - before;
        }
    }
    Ok(Pool {
        jobs,
        references,
        paper,
    })
}

/// The seeded order in which the client cycles through `k` jobs.
fn cyclic_order(k: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    shuffle(&mut order, &mut crate::rng(seed, ORDER_STREAM));
    order
}

/// One answered request.
struct Sample {
    job: u32,
    /// Probe readings taken before the reply.
    probe_count: usize,
    latency_ms: f64,
    compile_us: Option<f64>,
    execute_us: f64,
}

/// What a closed-loop phase measured.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    failures: Failures,
    elapsed_s: f64,
    hit_rate: f64,
    busy_us: u64,
}

/// Checks a reply: a successful run, outputs equal to the interpreter's,
/// and the expected cache verdict.
fn check(pool: &Pool, job: &Job, reply: &layers::Reply, expect_hit: bool) -> Result<(), String> {
    let outputs = reply
        .outputs
        .as_ref()
        .ok_or_else(|| reply.message.clone())?;
    if !layers::outputs_match(outputs, &pool.references[job.reference]) {
        return Err("outputs differ from the interpreter".into());
    }
    if reply.cache_hit != expect_hit {
        return Err(format!(
            "cache {} where a {} was expected",
            hit_word(reply.cache_hit),
            hit_word(expect_hit)
        ));
    }
    Ok(())
}

fn hit_word(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

/// The client, which sends its next request only after the previous
/// reply.
struct ClosedLoop<'a> {
    server: &'a Server,
    pool: &'a Pool,
    order: &'a [usize],
    /// Requests sent so far: the position in the cyclic order. It
    /// persists across phases, so the LRU always sees the same cycle.
    sent: usize,
    expect_hit: bool,
}

impl ClosedLoop<'_> {
    /// Sends requests until `seconds` have elapsed, with probe readings
    /// at the start, between requests and at the end.
    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, probe: &mut Probe) -> Phase {
        let (hits0, misses0) = self.server.cache_counts();
        let busy0 = self.server.device_busy_us();
        let mut phase = Phase::default();
        probe.sample();
        let start = Instant::now();
        let mut probed = start;
        while start.elapsed().as_secs_f64() < seconds {
            let req = self.sent;
            self.sent += 1;
            let j = self.order[req % self.order.len()];
            let job = &self.pool.jobs[j];
            let t0 = Instant::now();
            let line = self.server.handle(&job.line);
            let t1 = Instant::now();
            let reply = layers::parse_reply(&line);
            if let Err(e) = check(self.pool, job, &reply, self.expect_hit) {
                phase.failures.add(format!("request {req} (job {j}): {e}"));
            }
            let req = req as u64;
            tracer.span(req, j as u32, "request", t0, t1);
            for &(name, us) in &reply.spans {
                tracer.child(req, j as u32, name, "request", us);
            }
            phase.samples.push(Sample {
                job: j as u32,
                probe_count: probe.count(),
                latency_ms: t1.duration_since(t0).as_secs_f64() * 1e3,
                compile_us: reply.span("compile"),
                execute_us: reply.span("execute").unwrap_or(0.0),
            });
            if t1.duration_since(probed).as_secs_f64() >= PROBE_EVERY_S {
                probe.sample();
                probed = Instant::now();
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        probe.sample();
        let (hits1, misses1) = self.server.cache_counts();
        let lookups = (hits1 + misses1) - (hits0 + misses0);
        phase.hit_rate = (hits1 - hits0) as f64 / lookups.max(1) as f64;
        phase.busy_us = self.server.device_busy_us() - busy0;
        phase
    }
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }
}

pub fn run(mode: Mode, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Probe::new();
    let pool = match build_pool(mode, cfg) {
        Ok(p) => p,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let k = pool.jobs.len();
    // The smoke test's cold pool is small, so its cache shrinks with it.
    let capacity = match mode {
        Mode::Cold if cfg.smoke => k / 2,
        _ => CACHE_CAPACITY,
    };
    if (mode == Mode::Cold) == (k <= capacity) {
        out.fail(format!(
            "{k} cache keys in a {capacity}-entry cache cannot give the required hit rate"
        ));
        return out;
    }
    let order = cyclic_order(k, cfg.seed);

    // Set-up: a fresh daemon receives each job once, in the cyclic order,
    // so the cache ends in the state the cycle keeps it in. A set-up's time
    // is that of its requests: the checks and probe readings between them
    // are this program's own work. Set-up compiles count toward
    // `compile_ref_ms`; on serve-warm they are the only ones.
    let mut e2e = EndToEnd::default();
    let mut setup_s = Vec::new();
    let mut server = Server::new(capacity);
    probe.sample();
    while cfg.another_setup(&setup_s) {
        server = Server::new(capacity);
        let mut wall_s = 0.0;
        let mut probed = Instant::now();
        for &j in &order {
            let job = &pool.jobs[j];
            let t = Instant::now();
            let line = server.handle(&job.line);
            let s = t.elapsed().as_secs_f64();
            e2e.setup.push(setup_s.len() as u32, s * 1e3, probe.count());
            wall_s += s;
            let reply = layers::parse_reply(&line);
            out.attempted += 1;
            if let Err(e) = check(&pool, job, &reply, false) {
                out.fail(format!("set-up job {j}: {e}"));
            }
            if let Some(us) = reply.span("compile") {
                e2e.compile.push(j as u32, us / 1e3, probe.count());
            }
            if probed.elapsed().as_secs_f64() >= PROBE_EVERY_S {
                probe.sample();
                probed = Instant::now();
            }
        }
        setup_s.push(wall_s);
    }
    probe.sample();

    let mut client = ClosedLoop {
        server: &server,
        pool: &pool,
        order: &order,
        sent: 0,
        expect_hit: mode == Mode::Warm,
    };
    let (plain_s, traced_s) = cfg.split_seconds();
    let account = |out: &mut Outcome, p: &mut Phase| {
        out.attempted += p.samples.len() as u64;
        out.failures.merge(std::mem::take(&mut p.failures));
        let want = if mode == Mode::Warm { 1.0 } else { 0.0 };
        if p.hit_rate != want {
            out.fail(format!(
                "cache hit rate {} where {want} was required",
                p.hit_rate
            ));
        }
    };
    let mut plain = client.phase(plain_s, &mut Tracer::new(false), &mut probe);
    account(&mut out, &mut plain);
    out.samples.insert("setups", setup_s.len() as u64);
    out.samples.insert("jobs", plain.samples.len() as u64);
    out.samples.insert("distinct_jobs", k as u64);

    if !cfg.trace {
        for s in &plain.samples {
            e2e.job.push(s.job, s.latency_ms, s.probe_count);
            e2e.run.push(s.job, s.execute_us / 1e3, s.probe_count);
            if let Some(us) = s.compile_us {
                e2e.compile.push(s.job, us / 1e3, s.probe_count);
            }
        }
        out.set_end_to_end(&e2e, &probe);
        return out;
    }
    let latency = plain.latencies_ms();
    out.set(
        "client.p50_ms",
        stats::percentile(&latency, 50.0).unwrap_or(0.0),
    );
    out.set(
        "client.p99_ms",
        stats::percentile(&latency, 99.0).unwrap_or(0.0),
    );

    let mut tracer = Tracer::new(true);
    let mut traced = client.phase(traced_s, &mut tracer, &mut probe);
    account(&mut out, &mut traced);
    out.set_probe(&probe);
    out.samples
        .insert("traced_jobs", traced.samples.len() as u64);
    let mean = |name: &str| stats::mean(&tracer.durations_ms(name)).unwrap_or(0.0);
    out.set("serve.compile_ms", mean("compile"));
    out.set("serve.queue_ms", mean("queue"));
    out.set("serve.execute_ms", mean("execute"));
    out.set(
        "serve.self_ms",
        stats::mean(&tracer.self_ms("request")).unwrap_or(0.0),
    );
    out.set("serve.cache_hit_rate", traced.hit_rate);
    let device_us = traced.elapsed_s * 1e6 * layers::DEVICES as f64;
    out.set("serve.device_busy_share", traced.busy_us as f64 / device_us);
    let per_request = |p: &Phase| p.elapsed_s / p.samples.len().max(1) as f64;
    out.set("trace_overhead", per_request(&traced) / per_request(&plain));
    let mut exec_by_paper: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (j, ms) in tracer.durations_by_job_ms("execute") {
        if let Some(p) = pool.jobs[j as usize].paper {
            exec_by_paper.entry(p).or_default().extend(ms);
        }
    }
    for (i, name) in PAPER.iter().enumerate() {
        let ms = exec_by_paper.get(&i).and_then(|v| stats::median(v));
        out.set(&format!("gpu.exec_ms.{name}"), ms.unwrap_or(0.0));
    }

    let distinct: Vec<Distinct> = pool
        .jobs
        .iter()
        .map(|j| Distinct {
            source: &j.source,
            args: &j.args,
            schedule: j.schedule.as_ref(),
            line: Some(&j.line),
        })
        .collect();
    let artifacts = reissue::compile_layers(&distinct, &mut out);
    if artifacts.len() != distinct.len() {
        return out;
    }
    reissue::serve_layers(&distinct, &artifacts, mode == Mode::Cold, &mut out);
    if mode == Mode::Cold {
        let passes: f64 = reissue::PASSES.iter().map(|(_, m)| out.metrics[*m]).sum();
        let daemon = out.metrics["serve.compile_ms"];
        eprintln!(
            "perf: accounting: the compile pass spans sum to {passes:.3} ms, {:.1}% of \
             serve.compile_ms ({daemon:.3} ms)",
            100.0 * passes / daemon
        );
    }
    let paper_artifacts: Result<Vec<Compiled>, String> = pool
        .paper
        .iter()
        .map(|b| layers::compile(&b.source, None, false))
        .collect();
    let paper_artifacts = match paper_artifacts {
        Ok(a) => a,
        Err(e) => {
            out.fail(format!("paper compile failed: {e}"));
            return out;
        }
    };
    let counted: Vec<(&Compiled, &[Value])> = paper_artifacts
        .iter()
        .zip(&pool.paper)
        .map(|(c, b)| (c, &b.small_args[..]))
        .collect();
    let others: Vec<(&Compiled, &[Value])> = artifacts
        .iter()
        .zip(&pool.jobs)
        .map(|(c, j)| (c, &j.args[..]))
        .collect();
    // Small inputs run in microseconds: repeat them for a stable median.
    let reps = if cfg.smoke { 2 } else { 25 };
    reissue::exec_layers(&counted, &others, reps, cfg.threads, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The requests a run sends, in the order it sends them.
    fn requests(mode: Mode, seed: u64) -> Vec<String> {
        let cfg = Config::smoke(seed, false);
        let pool = build_pool(mode, &cfg).expect("pool builds");
        cyclic_order(pool.jobs.len(), seed)
            .into_iter()
            .map(|j| pool.jobs[j].line.clone())
            .collect()
    }

    #[test]
    fn requests_are_deterministic_per_seed_and_differ_between_seeds() {
        for mode in [Mode::Warm, Mode::Cold] {
            let a = requests(mode, 7);
            assert_eq!(a, requests(mode, 7), "{mode:?}");
            assert_ne!(a, requests(mode, 8), "{mode:?}");
        }
        // serve-warm's seed orders a fixed pool; serve-cold's draws it.
        let sorted = |mode, seed| {
            let mut v = requests(mode, seed);
            v.sort();
            v
        };
        assert_eq!(sorted(Mode::Warm, 7), sorted(Mode::Warm, 8));
        assert_ne!(sorted(Mode::Cold, 7), sorted(Mode::Cold, 8));
    }
}
