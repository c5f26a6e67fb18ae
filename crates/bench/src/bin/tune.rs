//! tune — schedule autotuner over the 16 paper benchmarks.
//!
//! Runs the deterministic hill-climb of `futhark-tune` on each selected
//! benchmark, prints a tuned-vs-default table, writes the winning
//! schedule of each benchmark to `schedules/<name>.json` (label plus
//! provenance: device, seed, argument set, modelled scores), and a
//! summary table to `BENCH_tune.json`. Because the cost model is exact
//! and the search is seeded, re-running with the same flags reproduces
//! the committed files byte for byte — which is what `--replay` checks:
//! it re-evaluates each committed schedule and fails unless the outputs
//! are bit-identical to the default schedule's outputs and the modelled
//! time matches the recorded value exactly.
//!
//! Usage: tune [--bench NAME]... [--device gtx780|w8100] [--seed N]
//!             [--rounds N] [--samples N] [--small] [--out FILE]
//!             [--schedules DIR] [--no-write]
//!        tune --replay [--schedules DIR] [--bench NAME]...
//!        tune --check-schema FILE
//!
//!   --bench NAME     tune only NAME (repeatable; default: all 16)
//!   --device NAME    simulated device (default gtx780)
//!   --seed N         PRNG seed for sampled per-site flips (default 0)
//!   --rounds N       max hill-climb rounds (default 4)
//!   --samples N      sampled per-site flips per round (default 8)
//!   --small          tune on the small datasets (CI smoke)
//!   --out FILE       summary path (default BENCH_tune.json)
//!   --schedules DIR  per-benchmark schedule dir (default schedules)
//!   --no-write       search and print, but write no files
//!   --replay         re-evaluate committed schedules bit-for-bit
//!   --check-schema FILE  compare FILE's JSON schema against what tune
//!                    writes today (quick search); exit 1 on drift

use futhark::{schedule_from_json, schedule_to_json, Device, Schedule};
use futhark_bench::{all_benchmarks, benchmark, Benchmark};
use futhark_core::Value;
use futhark_trace::Json;
use futhark_tune::{evaluate, tune, Score, TuneConfig};

fn device_name(d: Device) -> &'static str {
    match d {
        Device::Gtx780 => "gtx780",
        Device::W8100 => "w8100",
    }
}

fn parse_device(s: &str) -> Device {
    match s {
        "gtx780" => Device::Gtx780,
        "w8100" => Device::W8100,
        other => {
            eprintln!("unknown device {other:?} (expected gtx780 or w8100)");
            std::process::exit(2)
        }
    }
}

fn score_json(s: &Score) -> Json {
    Json::obj(vec![
        ("total_us", Json::F64(s.total_us)),
        ("transactions", Json::U64(s.transactions)),
        ("bus_bytes", Json::U64(s.bus_bytes)),
        ("peak_bytes", Json::U64(s.peak_bytes)),
    ])
}

/// The per-benchmark schedule file: the winning schedule plus enough
/// provenance to replay it.
fn schedule_doc(
    bench: &Benchmark,
    device: Device,
    cfg: &TuneConfig,
    small: bool,
    out: &futhark_tune::TuneOutcome,
) -> Json {
    Json::obj(vec![
        ("benchmark", Json::Str(bench.name.to_string())),
        ("device", Json::Str(device_name(device).to_string())),
        ("seed", Json::U64(cfg.seed)),
        ("rounds", Json::U64(cfg.rounds as u64)),
        ("samples", Json::U64(cfg.site_samples as u64)),
        (
            "dataset",
            Json::Str(if small { "small" } else { "full" }.to_string()),
        ),
        ("schedule", schedule_to_json(&out.schedule)),
        ("default_score", score_json(&out.default_score)),
        ("tuned_score", score_json(&out.score)),
        ("speedup_pct", Json::F64(out.speedup() * 100.0)),
        ("evaluated", Json::U64(out.evaluated as u64)),
        (
            "steps",
            Json::Arr(
                out.steps
                    .iter()
                    .map(|s| Json::Str(s.description.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Re-evaluates one committed schedule file: the schedule must still
/// parse from its canonical label, produce outputs bit-identical to the
/// default schedule's, and hit the recorded modelled time exactly.
fn replay_one(dir: &str, bench: &Benchmark) -> Result<f64, String> {
    let path = format!("{dir}/{}.json", bench.name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let sched_j = doc
        .get("schedule")
        .ok_or_else(|| format!("{path}: no \"schedule\" key"))?;
    let sched = schedule_from_json(sched_j).map_err(|e| format!("{path}: {e}"))?;
    let device = parse_device(
        doc.get("device")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no \"device\" key"))?,
    );
    let small = doc.get("dataset").and_then(Json::as_str) == Some("small");
    let args: &[Value] = if small {
        &bench.small_args
    } else {
        &bench.args
    };
    let recorded_us = doc
        .get("tuned_score")
        .and_then(|s| s.get("total_us"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: no tuned_score.total_us"))?;
    let (def_out, _, _) = evaluate(&bench.source, args, device, &Schedule::default())
        .map_err(|e| format!("{}: default schedule failed: {e}", bench.name))?;
    let (tuned_out, tuned_score, _) = evaluate(&bench.source, args, device, &sched)
        .map_err(|e| format!("{}: tuned schedule failed: {e}", bench.name))?;
    if def_out.len() != tuned_out.len() || !def_out.iter().zip(&tuned_out).all(|(a, b)| a.bit_eq(b))
    {
        return Err(format!(
            "{}: tuned outputs are not bit-identical to the default schedule's",
            bench.name
        ));
    }
    if tuned_score.total_us != recorded_us {
        return Err(format!(
            "{}: modelled time drifted: committed {recorded_us} µs, replayed {} µs",
            bench.name, tuned_score.total_us
        ));
    }
    Ok(recorded_us)
}

fn main() {
    let mut benches: Vec<String> = Vec::new();
    let mut device = Device::Gtx780;
    let mut cfg = TuneConfig::default();
    let mut small = false;
    let mut out_path = "BENCH_tune.json".to_string();
    let mut sched_dir = "schedules".to_string();
    let mut write = true;
    let mut replay = false;
    let mut schema: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2)
            })
        };
        match arg.as_str() {
            "--bench" => benches.push(val("--bench")),
            "--device" => device = parse_device(&val("--device")),
            "--seed" => cfg.seed = val("--seed").parse().expect("--seed N"),
            "--rounds" => cfg.rounds = val("--rounds").parse().expect("--rounds N"),
            "--samples" => cfg.site_samples = val("--samples").parse().expect("--samples N"),
            "--small" => small = true,
            "--out" => out_path = val("--out"),
            "--schedules" => sched_dir = val("--schedules"),
            "--no-write" => write = false,
            "--replay" => replay = true,
            "--check-schema" => schema = Some(val("--check-schema")),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2)
            }
        }
    }

    let selected: Vec<Benchmark> = if benches.is_empty() {
        all_benchmarks()
    } else {
        benches
            .iter()
            .map(|n| {
                benchmark(n).unwrap_or_else(|| {
                    eprintln!("unknown benchmark {n:?}");
                    std::process::exit(2)
                })
            })
            .collect()
    };

    if replay {
        let mut failed = false;
        for b in &selected {
            match replay_one(&sched_dir, b) {
                Ok(us) => println!("replay OK: {:<12} {us:>10.1} µs (bit-identical)", b.name),
                Err(e) => {
                    println!("replay FAILED: {e}");
                    failed = true;
                }
            }
        }
        std::process::exit(if failed { 1 } else { 0 })
    }

    // Schema checking runs a genuinely quick search so the document has
    // today's real shape.
    let (selected, small, cfg) = if schema.is_some() {
        let quick = vec![all_benchmarks().remove(0)];
        (
            quick,
            true,
            TuneConfig {
                seed: 0,
                rounds: 1,
                site_samples: 2,
            },
        )
    } else {
        (selected, small, cfg)
    };

    println!(
        "tune: {} benchmark(s) on {}, seed {}, {} round(s), {} sample(s)/round, {} datasets",
        selected.len(),
        device_name(device),
        cfg.seed,
        cfg.rounds,
        cfg.site_samples,
        if small { "small" } else { "full" }
    );
    println!("{:-<96}", "");
    println!(
        "{:<12} {:>12} {:>12} {:>8} {:>6} {:>6}  first step",
        "benchmark", "default µs", "tuned µs", "speedup", "evals", "steps"
    );
    println!("{:-<96}", "");

    let mut rows = Vec::new();
    let mut improved3 = 0usize;
    for b in &selected {
        let argv: &[Value] = if small { &b.small_args } else { &b.args };
        let out = match tune(&b.source, argv, device, &cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: tuning failed: {e}", b.name);
                std::process::exit(1)
            }
        };
        let pct = out.speedup() * 100.0;
        if pct >= 10.0 {
            improved3 += 1;
        }
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>7.1}% {:>6} {:>6}  {}",
            b.name,
            out.default_score.total_us,
            out.score.total_us,
            pct,
            out.evaluated,
            out.steps.len(),
            out.steps.first().map_or("-", |s| s.description.as_str()),
        );
        if write && schema.is_none() {
            let doc = schedule_doc(b, device, &cfg, small, &out);
            if let Err(e) = std::fs::create_dir_all(&sched_dir) {
                eprintln!("creating {sched_dir}: {e}");
                std::process::exit(1)
            }
            let path = format!("{sched_dir}/{}.json", b.name);
            if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
                eprintln!("writing {path}: {e}");
                std::process::exit(1)
            }
        }
        rows.push(Json::obj(vec![
            ("benchmark", Json::Str(b.name.to_string())),
            ("default_score", score_json(&out.default_score)),
            ("tuned_score", score_json(&out.score)),
            ("speedup_pct", Json::F64(pct)),
            ("evaluated", Json::U64(out.evaluated as u64)),
            ("accepted_steps", Json::U64(out.steps.len() as u64)),
            ("schedule_label", Json::Str(out.schedule.label())),
        ]));
    }
    println!("{:-<96}", "");
    println!("{improved3} benchmark(s) improved by >= 10% modelled time");

    let doc = Json::obj(vec![
        ("bench", Json::Str("tune".into())),
        ("device", Json::Str(device_name(device).to_string())),
        ("seed", Json::U64(cfg.seed)),
        ("rounds", Json::U64(cfg.rounds as u64)),
        ("samples", Json::U64(cfg.site_samples as u64)),
        (
            "dataset",
            Json::Str(if small { "small" } else { "full" }.to_string()),
        ),
        ("benchmarks", Json::Arr(rows)),
    ]);
    if let Some(path) = schema {
        let regenerate = "cargo run --release -p futhark-bench --bin tune";
        futhark_bench::check_schema(&path, &doc, "tune", regenerate);
    }
    if write {
        match std::fs::write(&out_path, doc.render_pretty()) {
            Ok(()) => println!("results written to {out_path}"),
            Err(e) => {
                eprintln!("writing {out_path}: {e}");
                std::process::exit(1)
            }
        }
    }
}
