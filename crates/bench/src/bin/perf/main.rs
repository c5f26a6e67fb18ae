//! perf — the repository benchmark: host wall-clock of the paper suite
//! and of futharkd, end to end and layer by layer.
//!
//! ```text
//! perf --workload <suite-large|serve-warm|serve-cold|all> --seed N
//!      [--seconds S] [--trace [0|1]] [--out FILE]
//! perf compare BASE.jsonl NEW.jsonl
//! perf pin > crates/bench/src/bin/perf/expected.json
//! ```
//!
//! A run sets up, measures for `--seconds`, checks every output, and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones. `--out` appends the run, with its host
//! fingerprint, to a JSON-lines file that `perf compare` reads. The exit
//! code is 0 only if every checked output was right. See README.md.

mod compare;
mod layers;
mod probe;
mod reissue;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use layers::{Json, Rng64};
use std::io::Write;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["suite-large", "serve-warm", "serve-cold"];

const USAGE: &str = "usage: perf --workload <suite-large|serve-warm|serve-cold|all> --seed N \
                     [--seconds S] [--trace [0|1]] [--out FILE]\n       \
                     perf compare BASE.jsonl NEW.jsonl\n       perf pin";

/// The least time a run spends setting up, s.
const SETUP_SECONDS: f64 = 4.0;

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Small datasets and pools, for the smoke test in debug builds.
    pub smoke: bool,
    /// Host threads for the traced run's parallel speed-up: at most two,
    /// and never more than the host has. Everything else runs on one.
    pub threads: usize,
}

impl Config {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Config {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Config {
            seed,
            seconds,
            trace,
            smoke: false,
            threads: nproc.min(2),
        }
    }

    /// A short run on small datasets and pools: the smoke test's
    /// configuration, fast enough for a debug build.
    #[cfg(test)]
    pub fn smoke(seed: u64, trace: bool) -> Config {
        Config {
            smoke: true,
            ..Config::new(seed, 0.3, trace)
        }
    }

    /// Whether to set up once more, given the times of the set-ups so far,
    /// s. `setup_s` is their median. A run sets up at least five times and
    /// for at least [`SETUP_SECONDS`], so that the median is steady whether
    /// one set-up takes 20 ms (suite-large) or a second (serve-cold).
    pub fn another_setup(&self, setup_s: &[f64]) -> bool {
        if self.smoke {
            setup_s.is_empty()
        } else {
            setup_s.len() < 5 || setup_s.iter().sum::<f64>() < SETUP_SECONDS
        }
    }

    /// Seconds of the untraced and the traced timed phase. A traced run
    /// splits its time between the two, and their ratio is the tracing
    /// overhead.
    pub fn split_seconds(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// An independent random stream for one purpose of one seed.
pub fn rng(seed: u64, stream: u64) -> Rng64 {
    Rng64::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.wrapping_mul(0xbf58_476d_1ce4_e5b9),
    )
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.pick(i + 1));
    }
}

fn run_workload(name: &str, cfg: &Config) -> report::Outcome {
    match name {
        "suite-large" => suite::run(cfg),
        "serve-warm" => serve::run(serve::Mode::Warm, cfg),
        "serve-cold" => serve::run(serve::Mode::Cold, cfg),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Cli {
    workload: String,
    cfg: Config,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, 1u64, 20.0f64, false, None);
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--out" => out = Some(value("--out")?),
            "--trace" => {
                trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Cli {
        workload,
        cfg: Config::new(seed, seconds, trace),
        out,
    })
}

/// `--workload all`: each workload in a fresh process of this binary.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perf: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = w.to_string();
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perf: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perf: cannot start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run record `--out` appends and `perf compare` reads.
fn record(
    workload: &str,
    cfg: &Config,
    table: &[report::MetricDef],
    out: &report::Outcome,
    fingerprint: Json,
) -> Json {
    let metrics = report::values(table, out)
        .into_iter()
        .map(|(m, v)| {
            let mut f = vec![
                ("value", Json::F64(v)),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.as_str().into())),
            ];
            if let Some(b) = m.bound {
                f.push(("bound", Json::F64(b)));
            }
            (m.name, Json::obj(f))
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::Str(workload.into())),
        ("trace", Json::Bool(cfg.trace)),
        ("fingerprint", fingerprint),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failures.count)),
        (
            "failures",
            Json::Arr(
                out.failures
                    .kept
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")?;
    f.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("pin") => {
            return match suite::pin_document() {
                Ok(doc) => {
                    println!("{doc}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perf pin: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&args);
    }

    let out = run_workload(&cli.workload, &cli.cfg);
    let table = if cli.cfg.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for f in &out.failures.kept {
        eprintln!("perf: FAILED: {f}");
    }
    let fingerprint = report::fingerprint(&cli.workload, &cli.cfg, &out);
    for (m, v) in report::values(&table, &out) {
        println!("{:<28} {v:>14.4} {}", m.name, m.unit);
    }
    println!(
        "{}",
        Json::obj(vec![("fingerprint", fingerprint.clone())]).render()
    );
    if let Some(path) = &cli.out {
        let rec = record(&cli.workload, &cli.cfg, &table, &out, fingerprint);
        if let Err(e) = append_line(path, &rec.render()) {
            eprintln!("perf: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&table, &out).render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(seed: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..16).collect();
        shuffle(&mut v, &mut rng(seed, 1));
        v
    }

    #[test]
    fn job_orders_are_deterministic_per_seed_and_differ_between_seeds() {
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
        let mut sorted = order(3);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn cli_accepts_trace_values_and_rejects_unknowns() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&args(
            "--workload serve-cold --seed 9 --seconds 3 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (
                cli.workload.as_str(),
                cli.cfg.seed,
                cli.cfg.seconds,
                cli.cfg.trace
            ),
            ("serve-cold", 9, 3.0, true)
        );
        assert!(
            !parse_cli(&args("--workload all --trace 0"))
                .expect("parses")
                .cfg
                .trace
        );
        assert!(
            parse_cli(&args("--workload all --trace"))
                .expect("parses")
                .cfg
                .trace
        );
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--seed 1")).is_err());
        assert!(parse_cli(&args("--workload all --bogus")).is_err());
    }

    /// About a second per workload and mode: every declared metric is
    /// measured, nothing fails, and the cache behaves as each workload
    /// requires.
    #[test]
    fn smoke_runs_emit_every_declared_metric() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(w, &Config::smoke(5, trace));
                assert!(out.correct(), "{w}: {:?}", out.failures.kept);
                assert!(out.attempted > 0, "{w}");
                let table = if trace {
                    report::per_layer()
                } else {
                    report::end_to_end()
                };
                for m in &table {
                    let v = out.metrics.get(&m.name);
                    assert!(v.is_some(), "{w}: {} missing", m.name);
                    if !trace {
                        assert!(
                            v.is_some_and(|v| *v > 0.0),
                            "{w}: {} is not positive",
                            m.name
                        );
                    }
                }
                if trace && w != "suite-large" {
                    let want = if w == "serve-warm" { 1.0 } else { 0.0 };
                    assert_eq!(out.metrics["serve.cache_hit_rate"], want, "{w}");
                }
            }
        }
    }
}
