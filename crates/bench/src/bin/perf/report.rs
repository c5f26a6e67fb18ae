//! The metric table, the result line, and the host fingerprint.
//!
//! `END_TO_END` and [`per_layer`] must list exactly what `BENCHMARK.json`
//! at the repository root declares (a test holds the two together).

use crate::layers::Json;
use crate::probe::Probe;
use crate::{stats, Config};
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The sixteen paper benchmarks, in Table 1 order (the suffixes of the
/// `gpu.exec_ms.*` metrics).
pub const PAPER: [&str; 16] = [
    "Backprop",
    "CFD",
    "HotSpot",
    "K-means",
    "LavaMD",
    "Myocyte",
    "NN",
    "Pathfinder",
    "SRAD",
    "LocVolCalib",
    "OptionPricing",
    "MRI-Q",
    "Crystal",
    "Fluid",
    "Mandelbrot",
    "N-body",
];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports all of them from an untraced run. The times are at the
/// reference speed, at which a probe reading takes 1 ms: each wall-clock
/// time is divided by the probe readings around it (see `probe.rs`).
/// `setup_s` is in seconds at that speed, the others in `ref_ms`.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("jobs_per_ref_s", "1/ref_s", Better::Higher, 0.25),
    ("run_ref_ms", "ref_ms", Better::Lower, 0.25),
    ("compile_ref_ms", "ref_ms", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Wall-clock times of jobs (a paper benchmark, or a distinct cache key),
/// each with the probe count when it ended, for conversion to `ref_ms`
/// once the probe readings after them exist.
#[derive(Debug, Default)]
pub struct RefTimes(Vec<(u32, f64, usize)>);

impl RefTimes {
    /// Records a time of `ms` that ended after `count` probe readings.
    pub fn push(&mut self, job: u32, ms: f64, count: usize) {
        self.0.push((job, ms, count));
    }

    /// Each job's times in `ref_ms`.
    fn by_job(&self, probe: &Probe) -> BTreeMap<u32, Vec<f64>> {
        let mut by_job: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for &(job, ms, count) in &self.0 {
            if let Some(probe_ms) = probe.around(count) {
                by_job.entry(job).or_default().push(ms / probe_ms);
            }
        }
        by_job
    }

    fn medians(&self, probe: &Probe) -> Vec<f64> {
        let by_job = self.by_job(probe);
        by_job.values().filter_map(|v| stats::median(v)).collect()
    }

    /// The median over the jobs of each one's total, `ref_ms`.
    pub fn median_total(&self, probe: &Probe) -> Option<f64> {
        let totals: Vec<f64> = self
            .by_job(probe)
            .values()
            .map(|v| v.iter().sum())
            .collect();
        stats::median(&totals)
    }

    /// Geometric mean over the jobs of each one's median, `ref_ms`.
    pub fn geomean(&self, probe: &Probe) -> Option<f64> {
        stats::geomean(&self.medians(probe))
    }

    /// Jobs per `ref_s` (1000 `ref_ms`) when each job takes its median
    /// time: the throughput of one closed-loop client cycling the jobs.
    pub fn per_ref_s(&self, probe: &Probe) -> Option<f64> {
        let medians = self.medians(probe);
        let total: f64 = medians.iter().sum();
        (total > 0.0).then(|| 1e3 * medians.len() as f64 / total)
    }
}

/// What an untraced run measured for the end-to-end metrics.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-ups, each its own job: a set-up's parts sum to its time.
    pub setup: RefTimes,
    /// Whole jobs: a compile and run (suite), or a request (futharkd).
    pub job: RefTimes,
    pub run: RefTimes,
    pub compile: RefTimes,
}

/// Per-layer metrics without a per-benchmark suffix: `(name, unit,
/// better)`. Reported by a traced run; 0 where a layer does not apply to
/// the workload (the `serve.*` metrics on suite-large).
const LAYERS: [(&str, &str, Better); 33] = [
    ("host.probe_ms", "ms", Better::Lower),
    ("client.p50_ms", "ms", Better::Lower),
    ("client.p99_ms", "ms", Better::Lower),
    ("frontend.parse_ms", "ms", Better::Lower),
    ("check.check_ms", "ms", Better::Lower),
    ("opt.inline_ms", "ms", Better::Lower),
    ("opt.simplify_ms", "ms", Better::Lower),
    ("opt.fusion_ms", "ms", Better::Lower),
    ("opt.flatten_ms", "ms", Better::Lower),
    ("opt.simplify_post_ms", "ms", Better::Lower),
    ("opt.stms_after", "count", Better::Lower),
    ("gpu.codegen_ms", "ms", Better::Lower),
    ("gpu.memplan_ms", "ms", Better::Lower),
    ("gpu.kernels", "count", Better::Lower),
    ("gpu.decode_ms", "ms", Better::Lower),
    ("gpu.ns_per_lane", "ns", Better::Lower),
    ("gpu.ns_per_warp_instr", "ns", Better::Lower),
    ("gpu.launches", "count", Better::Lower),
    ("gpu.warp_instructions", "count", Better::Lower),
    ("gpu.global_transactions", "count", Better::Lower),
    ("gpu.peak_device_mb", "MB", Better::Lower),
    ("gpu.fallback_share", "ratio", Better::Lower),
    ("gpu.par_speedup", "ratio", Better::Higher),
    ("serve.compile_ms", "ms", Better::Lower),
    ("serve.queue_ms", "ms", Better::Lower),
    ("serve.execute_ms", "ms", Better::Lower),
    ("serve.self_ms", "ms", Better::Lower),
    ("serve.parse_request_us", "us", Better::Lower),
    ("serve.cache_key_us", "us", Better::Lower),
    ("serve.predict_us", "us", Better::Lower),
    ("serve.cache_hit_rate", "ratio", Better::Higher),
    ("serve.device_busy_share", "ratio", Better::Higher),
    ("trace_overhead", "ratio", Better::Lower),
];

/// The end-to-end metric table.
pub fn end_to_end() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| MetricDef {
            name: name.to_string(),
            unit,
            better,
            bound: Some(bound),
        })
        .collect()
}

/// The per-layer metric table: the layer metrics, then one
/// `gpu.exec_ms.<benchmark>` per paper benchmark.
pub fn per_layer() -> Vec<MetricDef> {
    let layers = LAYERS.iter().map(|&(name, unit, better)| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    });
    let exec = PAPER.iter().map(|b| MetricDef {
        name: format!("gpu.exec_ms.{b}"),
        unit: "ms",
        better: Better::Lower,
        bound: None,
    });
    layers.chain(exec).collect()
}

/// Failed or wrong operations: all are counted, the first few described.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub kept: Vec<String>,
}

impl Failures {
    const KEEP: usize = 20;

    pub fn add(&mut self, what: String) {
        self.count += 1;
        if self.kept.len() < Self::KEEP {
            self.kept.push(what);
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        let room = Self::KEEP.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    pub failures: Failures,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the metrics, for the fingerprint.
    pub samples: BTreeMap<&'static str, u64>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failures.add(what);
    }

    pub fn correct(&self) -> bool {
        self.failures.count == 0
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `host.probe_ms`, the median probe reading: the wall-clock
    /// length of one `ref_ms` on this run's host.
    pub fn set_probe(&mut self, probe: &Probe) {
        self.samples.insert("probes", probe.count() as u64);
        match probe.median_ms() {
            Some(ms) => self.set("host.probe_ms", ms),
            None => self.fail("the probe was never sampled".into()),
        }
    }

    /// Sets the end-to-end metrics: the median set-up and the job times
    /// at the reference speed, and the peak resident set.
    pub fn set_end_to_end(&mut self, e: &EndToEnd, probe: &Probe) {
        self.set_probe(probe);
        for (name, value) in [
            ("setup_s", e.setup.median_total(probe).map(|ms| ms / 1e3)),
            ("jobs_per_ref_s", e.job.per_ref_s(probe)),
            ("run_ref_ms", e.run.geomean(probe)),
            ("compile_ref_ms", e.compile.geomean(probe)),
            ("peak_rss_mb", peak_rss_mb()),
        ] {
            match value {
                Some(v) => self.set(name, v),
                None => self.fail(format!("{name} has no samples")),
            }
        }
    }
}

/// The host and run description recorded with every result.
pub fn fingerprint(workload: &str, cfg: &Config, out: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FUTHARK_SIM_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    env.sort_by(|a, b| a.0.cmp(&b.0));
    let samples = out
        .samples
        .iter()
        .map(|(k, v)| (k.to_string(), Json::U64(*v)))
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("seed", Json::U64(cfg.seed)),
        ("seconds", Json::F64(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", Json::U64(nproc as u64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git", Json::Str(git_revision())),
        (
            "probe_ms",
            Json::F64(out.metrics.get("host.probe_ms").copied().unwrap_or(0.0)),
        ),
        ("env", Json::Obj(env)),
        ("samples", Json::Obj(samples)),
    ])
}

/// The revision checked out in the working directory, read from `.git`
/// there (nothing outside it), or `unknown`.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let rev = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(str::to_string)
        }),
        None => Some(head),
    });
    rev.map(|r| r.trim().chars().take(12).collect())
        .unwrap_or_else(|| "unknown".into())
}

/// The value of every metric in `table`. A run that failed may stop
/// before measuring everything; its missing metrics read 0. A correct
/// run that misses one is a bug in this program, and panics.
pub fn values(table: &[MetricDef], out: &Outcome) -> Vec<(MetricDef, f64)> {
    table
        .iter()
        .map(|m| {
            let v = match out.metrics.get(&m.name) {
                Some(v) => *v,
                None if !out.correct() => 0.0,
                None => panic!("metric {} was not measured", m.name),
            };
            (m.clone(), v)
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// each metric with its unit.
pub fn result_line(table: &[MetricDef], out: &Outcome) -> Json {
    let metrics = values(table, out)
        .into_iter()
        .map(|(m, v)| {
            let unit = Json::Str(m.unit.into());
            (
                m.name,
                Json::obj(vec![("value", Json::F64(v)), ("unit", unit)]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failures.count)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, found by walking up from
    /// the package directory.
    fn benchmark_json() -> Json {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let p = dir.join("BENCHMARK.json");
            if p.is_file() {
                let text = std::fs::read_to_string(p).expect("readable BENCHMARK.json");
                return Json::parse(&text).expect("BENCHMARK.json is JSON");
            }
            assert!(dir.pop(), "no BENCHMARK.json above the package");
        }
    }

    fn declared(j: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let j = benchmark_json();
        assert_eq!(declared(&j, "end_to_end"), table(&end_to_end()));
        assert_eq!(declared(&j, "per_layer"), table(&per_layer()));
        let workloads: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
