//! The adapter: every call the benchmark makes into the program under
//! test goes through this file, so a refactor of a public API is fixed
//! here once and the measurement code around it stays untouched.
//!
//! Layers, by crate: `serve` (protocol, artifact cache, admission,
//! queue), `frontend` (parse and elaborate), `check`, `opt` (inline,
//! simplify, fusion, flatten, simplify-post) and `gpu` (codegen, memplan,
//! tape decode, and execution including host fallback). Execution is
//! always configured explicitly — one host thread unless stated, the warp
//! engine, no profiling — so `FUTHARK_SIM_THREADS` and
//! `FUTHARK_SIM_ENGINE` cannot change a run.

use futhark::{Compiler, Device, DeviceProfile, RunOptions, SimEngine};
use futhark_core::{ArrayVal, Buffer, Scalar};
use futhark_serve::hash::Fnv1a;
use futhark_serve::proto::{value_from_json, value_to_json};
use futhark_serve::{Daemon, DaemonConfig};

pub use futhark::{Compiled, Schedule};
pub use futhark_core::rng::Rng64;
pub use futhark_core::Value;
pub use futhark_trace::Json;

/// The tolerance `Benchmark::verify` compares simulator outputs to the
/// interpreter with.
const TOLERANCE: f64 = 1e-3;

/// One of the sixteen paper benchmarks.
pub struct PaperBench {
    /// Name as in the paper's Table 1.
    pub name: &'static str,
    /// Futhark source.
    pub source: String,
    /// The Table-2-scaled dataset.
    pub args: Vec<Value>,
    /// The small verification dataset.
    pub small_args: Vec<Value>,
}

/// The paper suite, datasets built.
pub fn paper_suite() -> Vec<PaperBench> {
    futhark_bench::all_benchmarks()
        .into_iter()
        .map(|b| PaperBench {
            name: b.name,
            source: b.source,
            args: b.args,
            small_args: b.small_args,
        })
        .collect()
}

/// The modelled device every job targets.
pub fn device() -> DeviceProfile {
    Device::Gtx780.profile()
}

/// Compiles through the full pipeline. `schedule: None` is the default
/// schedule; `trace` attaches the per-pass spans of `CompileReport`.
pub fn compile(src: &str, schedule: Option<&Schedule>, trace: bool) -> Result<Compiled, String> {
    let c = Compiler::with_schedule(schedule.cloned().unwrap_or_default());
    let c = if trace { c.with_trace() } else { c };
    c.compile(src).map_err(|e| e.to_string())
}

/// Per-pass wall time (µs) and IR size of a traced compile, in pipeline
/// order: `(pass, wall_us, statements_after, kernels_after)`.
pub fn pass_spans(c: &Compiled) -> Vec<(String, f64, u64, u64)> {
    c.report()
        .map(|r| {
            r.passes
                .iter()
                .map(|p| {
                    (
                        p.name.clone(),
                        p.wall_us,
                        p.after.statements,
                        p.after.kernels,
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The simulator's exact counters for one run (modelled quantities; the
/// host wall clock is measured by the caller).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunCounts {
    /// Kernel launches.
    pub launches: u64,
    /// Lanes (GPU threads) launched.
    pub lanes: u64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Global-memory transactions.
    pub global_transactions: u64,
    /// Peak device bytes.
    pub peak_bytes: u64,
    /// Modelled total time, µs.
    pub total_us: f64,
    /// Modelled time in host (interpreter) fallbacks, µs.
    pub fallback_us: f64,
}

/// Runs a compiled program on the modelled GTX 780 with `threads` host
/// threads and the warp engine.
pub fn run(
    c: &Compiled,
    args: &[Value],
    threads: usize,
) -> Result<(Vec<Value>, RunCounts), String> {
    let opts = RunOptions {
        threads,
        profile: false,
        engine: SimEngine::Warp,
    };
    let (out, perf) = c
        .run_with_opts(Device::Gtx780, args, opts)
        .map_err(|e| e.to_string())?;
    let counts = RunCounts {
        launches: perf.launches,
        lanes: perf.stats.threads,
        warp_instructions: perf.stats.warp_instructions,
        global_transactions: perf.stats.global_transactions,
        peak_bytes: perf.mem.peak_bytes,
        total_us: perf.total_us,
        fallback_us: perf.fallback_us,
    };
    Ok((out, counts))
}

/// Runs the source on the reference interpreter.
pub fn interpret(src: &str, args: &[Value]) -> Result<Vec<Value>, String> {
    futhark::interpret(src, args).map_err(|e| e.to_string())
}

/// Whether outputs agree with the reference within the suite tolerance.
pub fn outputs_match(out: &[Value], reference: &[Value]) -> bool {
    out.len() == reference.len()
        && out
            .iter()
            .zip(reference)
            .all(|(a, b)| a.approx_eq(b, TOLERANCE))
}

/// Decodes every kernel of the plan to its execution tape, as the
/// executor does afresh on every run.
pub fn decode_kernels(c: &Compiled) -> Result<(), String> {
    for k in &c.plan.kernels {
        futhark_gpu::DecodedKernel::decode(k).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The admission-time static peak prediction, in bytes.
pub fn predict_peak_bytes(c: &Compiled, args: &[Value]) -> u64 {
    futhark_gpu::predict_peak_bytes(&c.plan, &device(), args).peak_bytes
}

/// One seeded fuzz program and its inputs.
pub fn fuzz_program(campaign: u64, index: u64) -> (String, Vec<Value>) {
    let case = futhark_fuzz::generate(
        futhark_fuzz::case_seed(campaign, index),
        &futhark_fuzz::GenConfig::default(),
    );
    (case.source(), case.args())
}

/// A random valid schedule.
pub fn sample_schedule(rng: &mut Rng64) -> Schedule {
    Schedule::sample(rng)
}

/// A 64-bit FNV-1a digest of a string.
pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.update_str(s);
    h.finish()
}

/// A 64-bit FNV-1a digest of values: element types, shapes and every
/// element's bit pattern.
pub fn digest_values(vals: &[Value]) -> u64 {
    fn scalar(h: &mut Fnv1a, s: &Scalar) {
        match s {
            Scalar::Bool(b) => h.update(&[0, u8::from(*b)]),
            Scalar::I32(k) => h.update(&[1]).update(&k.to_le_bytes()),
            Scalar::I64(k) => h.update(&[2]).update(&k.to_le_bytes()),
            Scalar::F32(x) => h.update(&[3]).update(&x.to_bits().to_le_bytes()),
            Scalar::F64(x) => h.update(&[4]).update(&x.to_bits().to_le_bytes()),
        };
    }
    fn array(h: &mut Fnv1a, a: &ArrayVal) {
        h.update(&(a.shape.len() as u64).to_le_bytes());
        for d in &a.shape {
            h.update(&(*d as u64).to_le_bytes());
        }
        match &a.data {
            Buffer::Bool(v) => v.iter().for_each(|b| {
                h.update(&[u8::from(*b)]);
            }),
            Buffer::I32(v) => v.iter().for_each(|k| {
                h.update(&k.to_le_bytes());
            }),
            Buffer::I64(v) => v.iter().for_each(|k| {
                h.update(&k.to_le_bytes());
            }),
            Buffer::F32(v) => v.iter().for_each(|x| {
                h.update(&x.to_bits().to_le_bytes());
            }),
            Buffer::F64(v) => v.iter().for_each(|x| {
                h.update(&x.to_bits().to_le_bytes());
            }),
        }
    }
    let mut h = Fnv1a::default();
    for v in vals {
        match v {
            Value::Scalar(s) => {
                h.update(b"s");
                scalar(&mut h, s);
            }
            Value::Array(a) => {
                h.update(b"a");
                array(&mut h, a);
            }
        }
    }
    h.finish()
}

/// Modelled devices in the daemon's pool.
pub const DEVICES: usize = 2;

/// An in-process futharkd: [`DEVICES`] modelled GTX 780s and an explicit
/// cache capacity. Callers block in [`Server::handle`], as futharkd's
/// clients do.
pub struct Server {
    daemon: Daemon,
}

impl Server {
    /// A fresh daemon with an empty artifact cache.
    pub fn new(cache_capacity: usize) -> Server {
        let devices = (0..DEVICES)
            .map(|i| {
                let mut d = device();
                d.name = format!("gtx780#{i}");
                d
            })
            .collect();
        Server {
            daemon: Daemon::new(DaemonConfig {
                devices,
                workers: DEVICES,
                cache_capacity,
                ..DaemonConfig::default()
            }),
        }
    }

    /// Handles one wire line, returning the response line.
    pub fn handle(&self, line: &str) -> String {
        self.daemon.handle_line(line)
    }

    /// Lifetime artifact-cache `(hits, misses)`.
    pub fn cache_counts(&self) -> (u64, u64) {
        let c = self.daemon.stats().cache;
        (c.hits, c.misses)
    }

    /// Device busy time summed over the pool, µs.
    pub fn device_busy_us(&self) -> u64 {
        self.daemon
            .metrics()
            .snapshot()
            .devices
            .iter()
            .map(|d| d.busy_us)
            .sum()
    }
}

/// A `run` request line. Threads and engine are always stated, so the
/// daemon's defaults cannot change a run.
pub fn run_request(id: &str, source: &str, args: &[Value], schedule: Option<&Schedule>) -> String {
    let mut pairs = vec![
        ("op", Json::Str("run".into())),
        ("id", Json::Str(id.into())),
        ("source", Json::Str(source.into())),
        ("args", Json::Arr(args.iter().map(value_to_json).collect())),
        ("threads", Json::U64(1)),
        ("engine", Json::Str("warp".into())),
    ];
    if let Some(s) = schedule {
        pairs.push(("schedule", Json::Str(s.label())));
    }
    Json::obj(pairs).render()
}

/// A decoded `run` response.
#[derive(Debug, Default)]
pub struct Reply {
    /// Outputs of a successful run; `None` on an error or a malformed reply.
    pub outputs: Option<Vec<Value>>,
    /// Whether the artifact cache served the compile.
    pub cache_hit: bool,
    /// The daemon's stage spans, µs, by name: `compile` (absent on a
    /// hit), `queue` and `execute`.
    pub spans: Vec<(&'static str, f64)>,
    /// The error message, if any.
    pub message: String,
}

impl Reply {
    /// The duration of the stage span `name`, µs.
    pub fn span(&self, name: &str) -> Option<f64> {
        self.spans.iter().find(|s| s.0 == name).map(|s| s.1)
    }
}

/// The stage spans a run response reports.
const STAGES: [&str; 3] = ["compile", "queue", "execute"];

/// Decodes a response line.
pub fn parse_reply(line: &str) -> Reply {
    let j = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            return Reply {
                message: format!("response is not JSON: {e}"),
                ..Reply::default()
            }
        }
    };
    if j.get("status").and_then(Json::as_str) != Some("ok") {
        return Reply {
            message: j
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("error without a message")
                .to_string(),
            ..Reply::default()
        };
    }
    let outputs = j
        .get("outputs")
        .and_then(Json::as_arr)
        .and_then(|a| a.iter().map(value_from_json).collect::<Option<Vec<_>>>());
    let spans = j
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            let name = s.get("name")?.as_str()?;
            Some((
                *STAGES.iter().find(|n| **n == name)?,
                s.get("us")?.as_f64()?,
            ))
        })
        .collect();
    Reply {
        message: if outputs.is_none() {
            "malformed outputs".into()
        } else {
            String::new()
        },
        outputs,
        cache_hit: j.get("cache").and_then(Json::as_str) == Some("hit"),
        spans,
    }
}

/// Parses a request line with the daemon's protocol parser.
pub fn parse_request(line: &str) -> bool {
    futhark_serve::proto::parse_request(line).is_ok()
}

/// The daemon's artifact-cache key of one compilation input.
pub fn cache_key(source: &str, schedule: Option<&Schedule>) -> u64 {
    let sched = schedule.cloned().unwrap_or_default();
    futhark_serve::cache::artifact_key_sched(source, &sched, &device())
}
