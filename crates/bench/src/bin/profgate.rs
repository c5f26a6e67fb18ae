//! `profgate` — the profile-regression gate.
//!
//! Replays every benchmark (verification-sized datasets, GTX 780 Ti
//! profile) with tracing on, snapshots the **deterministic**
//! execution shape — kernel launches, transpositions, per-kernel cost
//! counters, per-source-site counters, compile-side rewrite counters —
//! and compares it against the committed baseline (`prof-baseline.json`
//! at the workspace root).
//! Wall-clock time is deliberately excluded, and modelled time enters
//! only as the per-kernel time decompositions and per-site shares, which
//! fixed-order arithmetic derives from the integer counters: everything
//! in the snapshot must reproduce bit-for-bit on any machine, so any
//! difference is a real pipeline change, not noise.
//!
//! Usage: profgate check [--baseline FILE]     compare; non-zero on drift
//!        profgate refresh [--baseline FILE]   rewrite the baseline

use futhark::{Compiler, Counters, Json, MemStats, RunOptions, Schedule, TimeBreakdown};
use futhark_bench::all_benchmarks;
use futhark_gpu::{KernelStats, SiteStats};
use std::collections::BTreeMap;

const DEFAULT_BASELINE: &str = "prof-baseline.json";

/// The deterministic execution shape of one benchmark. The per-kernel
/// time decompositions are IEEE f64 but derived from integer counters by
/// fixed-order arithmetic, so they too reproduce bit-for-bit (and the
/// JSON renderer prints f64 exactly).
#[derive(Debug, Clone, Default, PartialEq)]
struct Snapshot {
    launches: u64,
    transposes: u64,
    mem: MemStats,
    /// Source site owning the peak footprint (from the memory timeline).
    peak_site: Option<String>,
    /// The run's counters per source site (`"?"` for work no
    /// site claims), so attribution by source line is pinned too.
    per_site: BTreeMap<String, SiteStats>,
    /// Per kernel: launches, merged counters, and the summed per-launch
    /// time decomposition (whose JSON carries the limiter class).
    per_kernel: BTreeMap<String, (u64, KernelStats, TimeBreakdown)>,
    rewrites: Counters,
}

impl Snapshot {
    fn to_json(&self) -> Json {
        let kernels: Vec<Json> = self
            .per_kernel
            .iter()
            .map(|(name, (launches, stats, breakdown))| {
                Json::obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("launches", Json::U64(*launches)),
                    ("stats", stats.to_json()),
                    ("breakdown", breakdown.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("launches", Json::U64(self.launches)),
            ("transposes", Json::U64(self.transposes)),
            ("mem", self.mem.to_json()),
            (
                "peak_site",
                self.peak_site
                    .as_ref()
                    .map_or(Json::Null, |s| Json::Str(s.clone())),
            ),
            (
                "per_site",
                Json::Obj(
                    self.per_site
                        .iter()
                        .map(|(k, s)| (k.clone(), s.to_json()))
                        .collect(),
                ),
            ),
            ("per_kernel", Json::Arr(kernels)),
            ("rewrites", self.rewrites.to_json()),
        ])
    }

    fn from_json(j: &Json) -> Option<Snapshot> {
        let mut per_kernel = BTreeMap::new();
        for k in j.get("per_kernel")?.as_arr()? {
            per_kernel.insert(
                k.get("name")?.as_str()?.to_string(),
                (
                    k.get("launches")?.as_u64()?,
                    KernelStats::from_json(k.get("stats")?)?,
                    TimeBreakdown::from_json(k.get("breakdown")?)?,
                ),
            );
        }
        let peak_site = match j.get("peak_site")? {
            Json::Null => None,
            s => Some(s.as_str()?.to_string()),
        };
        let mut per_site = BTreeMap::new();
        for (k, s) in j.get("per_site")?.as_obj()? {
            per_site.insert(k.clone(), SiteStats::from_json(s)?);
        }
        Some(Snapshot {
            launches: j.get("launches")?.as_u64()?,
            transposes: j.get("transposes")?.as_u64()?,
            mem: MemStats::from_json(j.get("mem")?)?,
            peak_site,
            per_site,
            per_kernel,
            rewrites: Counters::from_json(j.get("rewrites")?)?,
        })
    }
}

/// Computes the snapshot of every benchmark, in Table 1 order.
fn measure() -> Result<BTreeMap<String, Snapshot>, String> {
    let mut out = BTreeMap::new();
    for b in all_benchmarks() {
        let compiled = Compiler::new()
            .with_trace()
            .compile(&b.source)
            .map_err(|e| format!("{}: compile failed: {e}", b.name))?;
        let (_, perf) = compiled
            .run_with_opts(
                futhark::Device::Gtx780,
                &b.small_args,
                RunOptions::default(),
            )
            .map_err(|e| format!("{}: run failed: {e}", b.name))?;
        let breakdowns = perf.kernel_breakdowns();
        let snap = Snapshot {
            launches: perf.launches,
            transposes: perf.transposes,
            peak_site: perf.peak_site().map(|(s, _)| s.to_string()),
            per_site: perf.per_site.clone(),
            per_kernel: perf
                .per_kernel
                .iter()
                .map(|(k, (l, _us, s))| {
                    (
                        k.clone(),
                        (*l, *s, breakdowns.get(k).copied().unwrap_or_default()),
                    )
                })
                .collect(),
            mem: perf.mem,
            rewrites: compiled
                .report()
                .map(futhark::CompileReport::all_counters)
                .unwrap_or_default(),
        };
        out.insert(b.name.to_string(), snap);
    }
    Ok(out)
}

fn baseline_json(snaps: &BTreeMap<String, Snapshot>) -> Json {
    Json::obj(vec![
        ("device", Json::Str("gtx780".to_string())),
        ("dataset", Json::Str("small".to_string())),
        // The schedule every snapshot was taken under: the default
        // schedule's canonical label. Any change to the default choice
        // space shows up here before it shows up as counter drift.
        ("schedule_label", Json::Str(Schedule::default().label())),
        (
            "benchmarks",
            Json::Obj(
                snaps
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        ),
    ])
}

fn load_baseline(path: &str) -> Result<(String, BTreeMap<String, Snapshot>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!("reading {path}: {e} (run `profgate refresh` to create the baseline)")
    })?;
    let j = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    let label = j
        .get("schedule_label")
        .and_then(Json::as_str)
        .ok_or_else(|| {
            format!("{path}: missing \"schedule_label\" (run `profgate refresh` to upgrade)")
        })?
        .to_string();
    let mut out = BTreeMap::new();
    let benches = j
        .get("benchmarks")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: missing \"benchmarks\" object"))?;
    for (name, snap) in benches {
        let s = Snapshot::from_json(snap)
            .ok_or_else(|| format!("{path}: malformed snapshot for {name}"))?;
        out.insert(name.clone(), s);
    }
    Ok((label, out))
}

/// Prints what changed between a baseline snapshot and the current one,
/// per kernel, and returns whether they differ.
fn report_drift(name: &str, old: &Snapshot, new: &Snapshot) -> bool {
    if old == new {
        return false;
    }
    println!("DRIFT {name}:");
    if old.launches != new.launches {
        println!("  launches: {} -> {}", old.launches, new.launches);
    }
    if old.transposes != new.transposes {
        println!("  transposes: {} -> {}", old.transposes, new.transposes);
    }
    if old.mem != new.mem {
        println!(
            "  memory: peak {} -> {} bytes, allocs {} -> {}, frees {} -> {}, \
             reuses {} -> {}, hoisted {} -> {}",
            old.mem.peak_bytes,
            new.mem.peak_bytes,
            old.mem.allocs,
            new.mem.allocs,
            old.mem.frees,
            new.mem.frees,
            old.mem.reuses,
            new.mem.reuses,
            old.mem.hoisted,
            new.mem.hoisted
        );
    }
    if old.peak_site != new.peak_site {
        let f = |s: &Option<String>| s.clone().unwrap_or_else(|| "n/a".to_string());
        println!(
            "  peak site: {} -> {}",
            f(&old.peak_site),
            f(&new.peak_site)
        );
    }
    let sites: std::collections::BTreeSet<&String> =
        old.per_site.keys().chain(new.per_site.keys()).collect();
    for k in sites {
        let (a, b) = (old.per_site.get(k), new.per_site.get(k));
        if a != b {
            println!("  site {k}: {a:?} -> {b:?}");
        }
    }
    let keys: std::collections::BTreeSet<&String> =
        old.per_kernel.keys().chain(new.per_kernel.keys()).collect();
    for k in keys {
        match (old.per_kernel.get(k), new.per_kernel.get(k)) {
            (Some(a), Some(b)) if a == b => {}
            (Some((al, a, abd)), Some((bl, b, bbd))) => println!(
                "  kernel {k}: launches {al} -> {bl}, gmem transactions {} -> {}, \
                 warp instructions {} -> {}, barriers {} -> {}, \
                 limiter {} -> {}, busy {:?} -> {:?} us",
                a.global_transactions,
                b.global_transactions,
                a.warp_instructions,
                b.warp_instructions,
                a.barriers,
                b.barriers,
                abd.limiter(),
                bbd.limiter(),
                abd.total_us() - abd.overhead_us,
                bbd.total_us() - bbd.overhead_us,
            ),
            (Some(_), None) => println!("  kernel {k}: removed"),
            (None, Some(_)) => println!("  kernel {k}: added"),
            (None, None) => unreachable!(),
        }
    }
    if old.rewrites != new.rewrites {
        let keys: std::collections::BTreeSet<&str> = old
            .rewrites
            .iter()
            .map(|(k, _)| k)
            .chain(new.rewrites.iter().map(|(k, _)| k))
            .collect();
        for k in keys {
            let (a, b) = (old.rewrites.get(k), new.rewrites.get(k));
            if a != b {
                println!("  rewrite {k}: {a} -> {b}");
            }
        }
    }
    true
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let mut baseline = DEFAULT_BASELINE.to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => match args.next() {
                Some(p) => baseline = p,
                None => {
                    eprintln!("--baseline needs a path");
                    std::process::exit(2)
                }
            },
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2)
            }
        }
    }
    match cmd.as_str() {
        "refresh" => {
            let snaps = measure().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1)
            });
            let doc = baseline_json(&snaps).render_pretty();
            if let Err(e) = std::fs::write(&baseline, doc) {
                eprintln!("writing {baseline}: {e}");
                std::process::exit(1)
            }
            println!(
                "baseline for {} benchmarks written to {baseline}",
                snaps.len()
            );
        }
        "check" => {
            let (old_label, old) = load_baseline(&baseline).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1)
            });
            let new = measure().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1)
            });
            let mut drifted = 0usize;
            let new_label = Schedule::default().label();
            if old_label != new_label {
                println!(
                    "DRIFT default schedule label:\n  baseline {old_label}\n  current  {new_label}"
                );
                drifted += 1;
            }
            let keys: std::collections::BTreeSet<&String> = old.keys().chain(new.keys()).collect();
            for name in keys {
                match (old.get(name), new.get(name)) {
                    (Some(a), Some(b)) => {
                        if report_drift(name, a, b) {
                            drifted += 1;
                        }
                    }
                    (Some(_), None) => {
                        println!("DRIFT {name}: benchmark removed");
                        drifted += 1;
                    }
                    (None, Some(_)) => {
                        println!("DRIFT {name}: benchmark not in baseline");
                        drifted += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            if drifted > 0 {
                eprintln!(
                    "\nprofile gate FAILED: {drifted} benchmark(s) drifted from {baseline}.\n\
                     If the change is intentional, refresh with:\n  \
                     cargo run --release -p futhark-bench --bin profgate -- refresh"
                );
                std::process::exit(1)
            }
            println!(
                "profile gate OK: {} benchmarks match {baseline} bit-for-bit",
                new.len()
            );
        }
        _ => {
            eprintln!("usage: profgate check|refresh [--baseline FILE]");
            std::process::exit(2)
        }
    }
}
