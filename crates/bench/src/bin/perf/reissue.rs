//! The per-layer re-issue of a traced run: after the timed phase, each
//! distinct job is sent through the layers one public call at a time, on
//! one thread, with a span around each call.

use crate::layers::{self, Compiled, Schedule, Value};
use crate::report::Outcome;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Compile passes as `CompileReport` names them, and their metrics.
pub const PASSES: [(&str, &str); 9] = [
    ("parse", "frontend.parse_ms"),
    ("check", "check.check_ms"),
    ("inline", "opt.inline_ms"),
    ("simplify", "opt.simplify_ms"),
    ("fusion", "opt.fusion_ms"),
    ("flatten", "opt.flatten_ms"),
    ("simplify-post", "opt.simplify_post_ms"),
    ("codegen", "gpu.codegen_ms"),
    ("memplan", "gpu.memplan_ms"),
];

/// Repetitions of each sub-millisecond call, averaged.
const SMALL_REPS: u32 = 20;

/// One distinct job of a workload.
pub struct Distinct<'a> {
    pub source: &'a str,
    pub args: &'a [Value],
    pub schedule: Option<&'a Schedule>,
    /// The request line, for workloads that go through futharkd.
    pub line: Option<&'a str>,
}

fn mean_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Traced compiles and tape decodes: the mean per-job time of every
/// compile pass and of decoding the plan's kernels, the statements left
/// for codegen, and the kernels extracted. Returns the artifacts.
pub fn compile_layers(jobs: &[Distinct], out: &mut Outcome) -> Vec<Compiled> {
    let mut pass_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut stms, mut kernels, mut decode_ms) = (0u64, 0u64, 0.0);
    let mut artifacts = Vec::new();
    for j in jobs {
        let c = match layers::compile(j.source, j.schedule, true) {
            Ok(c) => c,
            Err(e) => {
                out.fail(format!("traced compile failed: {e}"));
                continue;
            }
        };
        let spans = layers::pass_spans(&c);
        for (pass, us, _, _) in &spans {
            if let Some((_, metric)) = PASSES.iter().find(|(p, _)| p == pass) {
                *pass_ms.entry(metric).or_default() += us / 1e3;
            }
        }
        if let Some(at) = spans.iter().position(|s| s.0 == "codegen") {
            // The last optimisation pass leaves the statements codegen reads.
            stms += at.checked_sub(1).map_or(0, |p| spans[p].2);
            kernels += spans[at].3;
        }
        let t = Instant::now();
        if let Err(e) = layers::decode_kernels(&c) {
            out.fail(format!("tape decode failed: {e}"));
        }
        decode_ms += t.elapsed().as_secs_f64() * 1e3;
        artifacts.push(c);
    }
    let n = jobs.len().max(1) as f64;
    for (_, metric) in PASSES {
        out.set(metric, pass_ms.get(metric).copied().unwrap_or(0.0) / n);
    }
    out.set("opt.stms_after", stms as f64);
    out.set("gpu.kernels", kernels as f64);
    out.set("gpu.decode_ms", decode_ms / n);
    artifacts
}

/// futharkd's own per-request work outside compile and execute: the
/// protocol parse, the cache key, and (on a miss) the admission
/// prediction. `predict` is false on workloads that never pay for it.
pub fn serve_layers(jobs: &[Distinct], artifacts: &[Compiled], predict: bool, out: &mut Outcome) {
    let (mut parse, mut key, mut pred) = (Vec::new(), Vec::new(), Vec::new());
    for (j, c) in jobs.iter().zip(artifacts) {
        let line = j.line.expect("served jobs carry a request line");
        parse.push(mean_us(SMALL_REPS, || {
            std::hint::black_box(layers::parse_request(line));
        }));
        key.push(mean_us(SMALL_REPS, || {
            std::hint::black_box(layers::cache_key(j.source, j.schedule));
        }));
        if predict {
            pred.push(mean_us(SMALL_REPS, || {
                std::hint::black_box(layers::predict_peak_bytes(c, j.args));
            }));
        }
    }
    out.set("serve.parse_request_us", stats::mean(&parse).unwrap_or(0.0));
    out.set("serve.cache_key_us", stats::mean(&key).unwrap_or(0.0));
    out.set("serve.predict_us", stats::mean(&pred).unwrap_or(0.0));
}

/// Execution: exact simulator counts and host cost per lane and per warp
/// instruction over `counted` (the paper programs at the default
/// schedule, so the counts do not depend on the seed), the parallel
/// speed-up at `threads` host threads, and the modelled host-fallback
/// share over `counted` and `others`.
pub fn exec_layers(
    counted: &[(&Compiled, &[Value])],
    others: &[(&Compiled, &[Value])],
    reps: usize,
    threads: usize,
    out: &mut Outcome,
) {
    let mut total = layers::RunCounts::default();
    let (mut t1_ns, mut tn_ns, mut peak) = (0.0, 0.0, 0u64);
    let (mut fallback_us, mut modelled_us) = (0.0, 0.0);
    for &(c, args) in counted {
        let time = |threads: usize| {
            let mut ns = Vec::new();
            let mut last = None;
            for _ in 0..reps {
                let t = Instant::now();
                let r = layers::run(c, args, threads);
                ns.push(t.elapsed().as_secs_f64() * 1e9);
                last = Some(r);
            }
            (stats::median(&ns).unwrap_or(0.0), last.expect("reps >= 1"))
        };
        let (ns1, r1) = time(1);
        let (nsn, _) = time(threads);
        match r1 {
            Ok((_, k)) => {
                total.launches += k.launches;
                total.lanes += k.lanes;
                total.warp_instructions += k.warp_instructions;
                total.global_transactions += k.global_transactions;
                peak = peak.max(k.peak_bytes);
                fallback_us += k.fallback_us;
                modelled_us += k.total_us;
            }
            Err(e) => out.fail(format!("counted run failed: {e}")),
        }
        t1_ns += ns1;
        tn_ns += nsn;
    }
    for &(c, args) in others {
        match layers::run(c, args, 1) {
            Ok((_, k)) => {
                fallback_us += k.fallback_us;
                modelled_us += k.total_us;
            }
            Err(e) => out.fail(format!("re-issued run failed: {e}")),
        }
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set("gpu.launches", total.launches as f64);
    out.set("gpu.warp_instructions", total.warp_instructions as f64);
    out.set("gpu.global_transactions", total.global_transactions as f64);
    out.set("gpu.peak_device_mb", peak as f64 / (1024.0 * 1024.0));
    out.set("gpu.ns_per_lane", ratio(t1_ns, total.lanes as f64));
    out.set(
        "gpu.ns_per_warp_instr",
        ratio(t1_ns, total.warp_instructions as f64),
    );
    out.set("gpu.par_speedup", ratio(t1_ns, tn_ns));
    out.set("gpu.fallback_share", ratio(fallback_us, modelled_us));
}
