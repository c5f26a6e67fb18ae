//! `suite-large`: the sixteen paper benchmarks on their Table-2-scaled
//! datasets. Each pass compiles and runs every benchmark afresh, in a
//! seed-shuffled order, at one host thread with the warp engine. Nearly
//! all of the time is simulated execution (`gpu.exec`), so this is where
//! a change to the simulator's memory path or dispatch shows.

use crate::layers::{self, Compiled, Json, PaperBench, Rng64, RunCounts, Value};
use crate::probe::Probe;
use crate::reissue::{self, Distinct};
use crate::report::{EndToEnd, Outcome, RefTimes, PAPER};
use crate::trace::Tracer;
use crate::{shuffle, stats, Config};
use std::collections::BTreeMap;
use std::time::Instant;

/// Digests of the suite's inputs and large-dataset outputs, written by
/// `perf pin`.
const EXPECTED: &str = include_str!("expected.json");

/// Seed stream for the pass order.
const ORDER_STREAM: u64 = 1;

/// Digests of a benchmark's source, large dataset and small dataset.
type InputPin = [u64; 3];

/// Digest of a run's outputs and the bit pattern of its modelled time.
type RunPin = (u64, u64);

fn input_pin(b: &PaperBench) -> InputPin {
    [
        layers::digest_str(&b.source),
        layers::digest_values(&b.args),
        layers::digest_values(&b.small_args),
    ]
}

fn pin(outputs: &[Value], counts: &RunCounts) -> RunPin {
    (layers::digest_values(outputs), counts.total_us.to_bits())
}

fn run_pin(c: &Compiled, args: &[Value]) -> Result<RunPin, String> {
    layers::run(c, args, 1).map(|(out, counts)| pin(&out, &counts))
}

fn hex(x: u64) -> Json {
    Json::Str(format!("{x:016x}"))
}

/// The `expected.json` document for the current suite and compiler:
/// input digests, and the output digest and modelled time of a run on
/// the large dataset. The interpreter cannot check the large datasets
/// (on Backprop's alone it runs for minutes), so later runs are held to
/// these pins instead.
pub fn pin_document() -> Result<String, String> {
    let mut rows = Vec::new();
    for b in layers::paper_suite() {
        let c = layers::compile(&b.source, None, false)?;
        let (out, total_bits) = run_pin(&c, &b.args)?;
        let [source, args, small_args] = input_pin(&b);
        rows.push((
            b.name.to_string(),
            Json::obj(vec![
                ("source", hex(source)),
                ("args", hex(args)),
                ("small_args", hex(small_args)),
                ("outputs", hex(out)),
                ("total_us_bits", hex(total_bits)),
                ("total_us", Json::F64(f64::from_bits(total_bits))),
            ]),
        ));
    }
    let note = "64-bit FNV-1a digests of each paper benchmark's source and datasets, and of \
                its large-dataset outputs and modelled total_us at the default schedule. \
                Regenerate with `perf pin` after an intended change.";
    Ok(Json::obj(vec![
        ("note", Json::Str(note.into())),
        ("benchmarks", Json::Obj(rows)),
    ])
    .render_pretty())
}

fn expected_pins() -> BTreeMap<String, (InputPin, RunPin)> {
    let doc = Json::parse(EXPECTED).expect("expected.json is JSON");
    let rows = doc
        .get("benchmarks")
        .and_then(Json::as_obj)
        .expect("expected.json has a benchmarks object");
    rows.iter()
        .map(|(name, r)| {
            let h = |k: &str| {
                let s = r.get(k).and_then(Json::as_str).expect("hex digest");
                u64::from_str_radix(s, 16).expect("hex digest")
            };
            let inputs = [h("source"), h("args"), h("small_args")];
            (name.clone(), (inputs, (h("outputs"), h("total_us_bits"))))
        })
        .collect()
}

/// Samples of one timed phase.
#[derive(Default)]
struct Timed {
    /// Compile and run time of each pass, s: the pass's wall time less
    /// the output checks and the probes.
    passes_s: Vec<f64>,
    /// Per benchmark: compile and run times, ms.
    compile_ms: Vec<Vec<f64>>,
    run_ms: Vec<Vec<f64>>,
    /// The same times, for conversion to `ref_ms`.
    refs: EndToEnd,
    /// Jobs (one compile and run each) completed.
    jobs: usize,
}

impl Timed {
    /// Each benchmark's median job (compile plus run) time, ms.
    fn job_medians_ms(&self) -> Vec<f64> {
        self.compile_ms
            .iter()
            .zip(&self.run_ms)
            .filter_map(|(c, r)| {
                let jobs: Vec<f64> = c.iter().zip(r).map(|(c, r)| c + r).collect();
                stats::median(&jobs)
            })
            .collect()
    }
}

/// The suite after set-up: what every timed pass runs and checks.
struct Prepared<'a> {
    suite: &'a [PaperBench],
    /// The dataset each benchmark runs on.
    data: Vec<&'a [Value]>,
    /// The warm-up pass's result per benchmark.
    reference: Vec<RunPin>,
}

impl Prepared<'_> {
    /// Passes until `seconds` have elapsed (at least one), each output
    /// checked bit for bit against the warm-up pass, with a probe reading
    /// before the first job and after every job.
    fn timed(
        &self,
        seconds: f64,
        order: &mut [usize],
        rng: &mut Rng64,
        tracer: &mut Tracer,
        probe: &mut Probe,
        out: &mut Outcome,
    ) -> Timed {
        let n = self.suite.len();
        let mut t = Timed {
            compile_ms: vec![Vec::new(); n],
            run_ms: vec![Vec::new(); n],
            ..Timed::default()
        };
        probe.sample();
        let start = Instant::now();
        while t.passes_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
            shuffle(order, rng);
            let mut pass_s = 0.0;
            for &i in order.iter() {
                let b = &self.suite[i];
                let req = t.jobs as u64;
                out.attempted += 1;
                let t0 = Instant::now();
                let compiled = layers::compile(&b.source, None, false);
                let t1 = Instant::now();
                let ran = match &compiled {
                    Ok(c) => layers::run(c, self.data[i], 1),
                    Err(e) => Err(e.clone()),
                };
                let t2 = Instant::now();
                // The output digest and the frees are the harness's own
                // work: outside the execute span and the pass.
                let pinned = ran.map(|(outputs, counts)| pin(&outputs, &counts));
                drop(compiled);
                match pinned {
                    Ok(p) if p == self.reference[i] => {}
                    Ok(_) => out.fail(format!(
                        "{}: outputs or total_us changed between passes",
                        b.name
                    )),
                    Err(e) => out.fail(format!("{}: {e}", b.name)),
                }
                tracer.span(req, i as u32, "compile", t0, t1);
                tracer.span(req, i as u32, "execute", t1, t2);
                let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
                let k = probe.count();
                t.refs.compile.push(i as u32, ms(t0, t1), k);
                t.refs.run.push(i as u32, ms(t1, t2), k);
                t.refs.job.push(i as u32, ms(t0, t2), k);
                t.compile_ms[i].push(ms(t0, t1));
                t.run_ms[i].push(ms(t1, t2));
                t.jobs += 1;
                pass_s += t2.duration_since(t0).as_secs_f64();
                probe.sample();
            }
            t.passes_s.push(pass_s);
        }
        t
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut probe = Probe::new();

    // Set-up: build the datasets and compile everything, several times,
    // with a probe reading before the first and after each.
    let mut setup_s = Vec::new();
    let mut setup = RefTimes::default();
    let (mut suite, mut compiled) = (Vec::new(), Vec::new());
    probe.sample();
    while cfg.another_setup(&setup_s) {
        let t = Instant::now();
        suite = layers::paper_suite();
        compiled = suite
            .iter()
            .map(|b| layers::compile(&b.source, None, false))
            .collect();
        let s = t.elapsed().as_secs_f64();
        setup.push(setup_s.len() as u32, s * 1e3, probe.count());
        setup_s.push(s);
        probe.sample();
    }
    let names: Vec<&str> = suite.iter().map(|b| b.name).collect();
    if names != PAPER {
        out.fail(format!("the suite is {names:?}, expected {PAPER:?}"));
        return out;
    }
    let compiled: Vec<Compiled> = match compiled.into_iter().collect() {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("set-up compile failed: {e}"));
            return out;
        }
    };

    let expected = expected_pins();
    for b in &suite {
        if expected.get(b.name).map(|p| p.0) != Some(input_pin(b)) {
            out.fail(format!(
                "{}: source or dataset digest differs from expected.json (re-pin with `perf pin`)",
                b.name
            ));
        }
    }

    // Small datasets against the interpreter.
    for (b, c) in suite.iter().zip(&compiled) {
        out.attempted += 1;
        let gpu = layers::run(c, &b.small_args, 1).map(|r| r.0);
        match (gpu, layers::interpret(&b.source, &b.small_args)) {
            (Ok(g), Ok(r)) if layers::outputs_match(&g, &r) => {}
            (Ok(_), Ok(_)) => out.fail(format!(
                "{}: small outputs differ from the interpreter",
                b.name
            )),
            (Err(e), _) | (_, Err(e)) => out.fail(format!("{}: small run failed: {e}", b.name)),
        }
    }

    // Warm-up pass. Its outputs are the reference for every timed pass
    // and, at full scale, must equal the pinned digests.
    let data: Vec<&[Value]> = suite
        .iter()
        .map(|b| {
            if cfg.smoke {
                &b.small_args[..]
            } else {
                &b.args[..]
            }
        })
        .collect();
    let mut reference = Vec::new();
    for ((b, c), args) in suite.iter().zip(&compiled).zip(&data) {
        match run_pin(c, args) {
            Ok(pin) => {
                if !cfg.smoke && expected.get(b.name).map(|p| p.1) != Some(pin) {
                    out.fail(format!(
                        "{}: large outputs or total_us differ from expected.json",
                        b.name
                    ));
                }
                reference.push(pin);
            }
            Err(e) => {
                out.fail(format!("{}: warm-up run failed: {e}", b.name));
                return out;
            }
        }
    }
    let prepared = Prepared {
        suite: &suite,
        data,
        reference,
    };

    let mut order: Vec<usize> = (0..suite.len()).collect();
    let mut rng = crate::rng(cfg.seed, ORDER_STREAM);
    let (plain_s, traced_s) = cfg.split_seconds();
    let mut plain = prepared.timed(
        plain_s,
        &mut order,
        &mut rng,
        &mut Tracer::new(false),
        &mut probe,
        &mut out,
    );
    out.samples.insert("setups", setup_s.len() as u64);
    out.samples.insert("passes", plain.passes_s.len() as u64);
    out.samples.insert("jobs", plain.jobs as u64);

    if !cfg.trace {
        plain.refs.setup = setup;
        out.set_end_to_end(&plain.refs, &probe);
        return out;
    }
    // A pass holds sixteen fixed jobs, so the latency distribution is
    // taken over the benchmarks' median job times: p99 is the slowest
    // benchmark's. (Over single jobs, a p99 of ~250 samples would be one
    // benchmark's third-worst run: a measure of host hiccups.)
    let jobs = plain.job_medians_ms();
    out.set(
        "client.p50_ms",
        stats::percentile(&jobs, 50.0).unwrap_or(0.0),
    );
    out.set(
        "client.p99_ms",
        stats::percentile(&jobs, 99.0).unwrap_or(0.0),
    );

    let mut tracer = Tracer::new(true);
    let traced = prepared.timed(
        traced_s,
        &mut order,
        &mut rng,
        &mut tracer,
        &mut probe,
        &mut out,
    );
    out.set_probe(&probe);
    out.samples.insert("traced_jobs", traced.jobs as u64);
    let exec = tracer.durations_by_job_ms("execute");
    let mut exec_sum = 0.0;
    for (i, name) in PAPER.iter().enumerate() {
        let ms = exec.get(&(i as u32)).and_then(|v| stats::median(v));
        exec_sum += ms.unwrap_or(0.0);
        out.set(&format!("gpu.exec_ms.{name}"), ms.unwrap_or(0.0));
    }
    let mean_pass = |t: &Timed| stats::mean(&t.passes_s).unwrap_or(0.0);
    out.set("trace_overhead", mean_pass(&traced) / mean_pass(&plain));
    let pass_ms = stats::median(&traced.passes_s).unwrap_or(0.0) * 1e3;
    let compile_ms: f64 = traced
        .compile_ms
        .iter()
        .filter_map(|v| stats::median(v))
        .sum();
    eprintln!(
        "perf: accounting: the gpu.exec_ms medians sum to {exec_sum:.1} ms, {:.1}% of the \
         median traced pass ({pass_ms:.1} ms) less its compiles ({compile_ms:.1} ms)",
        100.0 * exec_sum / (pass_ms - compile_ms)
    );

    let jobs: Vec<Distinct> = suite
        .iter()
        .map(|b| Distinct {
            source: &b.source,
            args: &b.args,
            schedule: None,
            line: None,
        })
        .collect();
    reissue::compile_layers(&jobs, &mut out);
    let counted: Vec<(&Compiled, &[Value])> = compiled.iter().zip(prepared.data).collect();
    reissue::exec_layers(&counted, &[], 1, cfg.threads, &mut out);
    // futharkd is not on this workload's path.
    for m in [
        "serve.compile_ms",
        "serve.queue_ms",
        "serve.execute_ms",
        "serve.self_ms",
        "serve.parse_request_us",
        "serve.cache_key_us",
        "serve.predict_us",
        "serve.cache_hit_rate",
        "serve.device_busy_share",
    ] {
        out.set(m, 0.0);
    }
    out
}
