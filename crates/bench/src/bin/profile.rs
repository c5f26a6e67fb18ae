//! `futhark-prof` for the benchmark suite: compiles a benchmark with
//! pass-level tracing, runs it on a simulated device, and prints the
//! profile — per-kernel time table, pass-time breakdown, rewrite
//! counters — optionally archiving the whole trace as JSON.
//!
//! ```text
//! Usage: profile [options] <benchmark> | --all | --diff OLD NEW
//!
//!   --list              list benchmark names and exit
//!   --all               profile every benchmark; exit non-zero if any fails
//!   --diff OLD NEW      compare two archived trace JSONs and exit
//!   --device <name>     gtx780 (default) or w8100
//!   --small             run the verification-sized dataset
//!   --annotate          print the annotated listing (counters per source line)
//!   --analyze           print the bottleneck analysis (limiter table,
//!                       findings, memory timeline)
//!   --roofline          print the per-kernel roofline placement
//!   --json <file>       also write the full trace as JSON
//!   --chrome <file>     also write a Chrome trace-event file (Perfetto)
//!   --no-simplify / --no-fusion / --no-coalescing / --no-tiling /
//!   --no-memplan        disable individual optimisations (each is an edit
//!                       of the default schedule)
//! ```

use futhark::{prof, ChoiceClass, Compiler, Device, Json, RunOptions, Schedule};
use futhark_bench::{all_benchmarks, benchmark, Benchmark};

struct Config {
    name: Option<String>,
    all: bool,
    device: Device,
    small: bool,
    annotate: bool,
    analyze: bool,
    roofline: bool,
    json: Option<String>,
    chrome: Option<String>,
    sched: Schedule,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile [--list] [--all] [--diff OLD NEW] \
         [--device gtx780|w8100] [--small] [--annotate] [--analyze] \
         [--roofline] [--json FILE] [--chrome FILE] [--no-simplify] \
         [--no-fusion] [--no-coalescing] [--no-tiling] [--no-memplan] \
         <benchmark>"
    );
    std::process::exit(2)
}

fn read_trace(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn run_diff(old: &str, new: &str) -> Result<(), String> {
    let (old_j, new_j) = (read_trace(old)?, read_trace(new)?);
    let d = prof::diff_traces(&old_j, &new_j)
        .ok_or_else(|| "traces do not look like futhark-prof output".to_string())?;
    print!("{}", prof::render_diff(&d));
    Ok(())
}

fn parse_args() -> Config {
    let mut cfg = Config {
        name: None,
        all: false,
        device: Device::Gtx780,
        small: false,
        annotate: false,
        analyze: false,
        roofline: false,
        json: None,
        chrome: None,
        sched: Schedule::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => {
                for b in all_benchmarks() {
                    println!("{:<14} ({}, {})", b.name, b.suite, b.paper_dataset);
                }
                std::process::exit(0)
            }
            "--all" => cfg.all = true,
            "--diff" => {
                let (Some(old), Some(new)) = (args.next(), args.next()) else {
                    usage()
                };
                match run_diff(&old, &new) {
                    Ok(()) => std::process::exit(0),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(1)
                    }
                }
            }
            "--device" => {
                cfg.device = match args.next().as_deref() {
                    Some("gtx780") => Device::Gtx780,
                    Some("w8100") => Device::W8100,
                    _ => usage(),
                }
            }
            "--small" => cfg.small = true,
            "--annotate" => cfg.annotate = true,
            "--analyze" => cfg.analyze = true,
            "--roofline" => cfg.roofline = true,
            "--json" => cfg.json = Some(args.next().unwrap_or_else(|| usage())),
            "--chrome" => cfg.chrome = Some(args.next().unwrap_or_else(|| usage())),
            "--no-simplify" => cfg.sched.simplify_pass = false,
            "--no-fusion" => cfg.sched.fusion_pass = false,
            "--no-coalescing" => cfg.sched = cfg.sched.with_coalescing(false),
            "--no-tiling" => cfg.sched = cfg.sched.with_default(ChoiceClass::Tile, false),
            "--no-memplan" => cfg.sched.memplan = false,
            _ if a.starts_with('-') => usage(),
            _ if cfg.name.is_none() => cfg.name = Some(a),
            _ => usage(),
        }
    }
    cfg
}

fn profile_one(b: &Benchmark, cfg: &Config) -> Result<(), String> {
    let compiled = Compiler::with_schedule(cfg.sched.clone())
        .with_trace()
        .compile(&b.source)
        .map_err(|e| format!("{}: compile failed: {e}", b.name))?;
    let args = if cfg.small { &b.small_args } else { &b.args };
    let (_, perf) = compiled
        .run_with_opts(cfg.device, args, RunOptions::default())
        .map_err(|e| format!("{}: run failed: {e}", b.name))?;
    println!(
        "{} ({}) on {:?}, {} dataset",
        b.name,
        b.suite,
        cfg.device,
        if cfg.small { "small" } else { "timed" }
    );
    print!("{}", prof::render(compiled.report(), &perf));
    if cfg.annotate {
        println!();
        print!("{}", prof::render_annotated(&b.source, &perf));
    }
    if cfg.analyze || cfg.roofline {
        let analysis = futhark::analyze::analyze(&perf, &cfg.device.profile());
        if cfg.analyze {
            println!();
            print!("{}", prof::render_analysis(&analysis));
            println!();
            print!("{}", prof::render_mem_timeline(&perf));
        }
        if cfg.roofline {
            println!();
            print!("{}", prof::render_roofline(&analysis));
        }
    }
    if let Some(path) = &cfg.json {
        let doc = prof::trace_json(compiled.report(), &perf).render_pretty();
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\ntrace written to {path}");
    }
    if let Some(path) = &cfg.chrome {
        let doc = prof::chrome_trace(compiled.report(), &perf).render();
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
        println!("chrome trace written to {path} (load in ui.perfetto.dev)");
    }
    Ok(())
}

fn main() {
    let cfg = parse_args();
    let targets: Vec<Benchmark> = if cfg.all {
        if cfg.name.is_some() || cfg.json.is_some() || cfg.chrome.is_some() {
            usage()
        }
        all_benchmarks()
    } else {
        let Some(name) = &cfg.name else { usage() };
        let Some(b) = benchmark(name) else {
            eprintln!("unknown benchmark {name:?}; try --list");
            std::process::exit(2)
        };
        vec![b]
    };
    let mut failed = 0usize;
    for (i, b) in targets.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(e) = profile_one(b, &cfg) {
            eprintln!("{e}");
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("\n{failed} of {} benchmarks failed", targets.len());
        std::process::exit(1)
    }
}
