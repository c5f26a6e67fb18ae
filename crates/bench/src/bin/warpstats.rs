//! warpstats — warp-vs-lane throughput and uniform-path hit rate over the
//! sixteen paper benchmarks.
//!
//! For each benchmark the full pipeline runs once on the per-lane
//! reference engine and once on the warp engine (same device profile,
//! sequential groups), timing the whole run and demanding bit-identical
//! aggregate [`futhark_gpu::KernelStats`]. The warp run's own
//! [`PerfReport::uniform_hits`]/[`PerfReport::uniform_misses`] tallies give
//! the fraction of divergence points (branches, loops) whose warps turned
//! out to be uniform and took the single-sided fast path — per-run values,
//! unperturbed by anything else executing in the process.
//!
//! Output is the markdown table embedded in EXPERIMENTS.md; regenerate it
//! with:
//!
//! ```text
//! cargo run --release -p futhark-bench --bin warpstats
//! ```
//!
//! Usage: warpstats [--markdown]
//!
//!   --markdown   emit a GitHub-flavoured markdown table (default: aligned
//!                plain text)

use futhark::{Device, PerfReport, RunOptions, SimEngine};
use std::time::Instant;

/// Lanes executed per wall-clock second: every launch contributes its
/// thread count, so sequential-loop-heavy kernels aren't undercounted.
fn lanes_per_sec(perf: &PerfReport, seconds: f64) -> f64 {
    perf.stats.threads as f64 / seconds
}

fn main() {
    let markdown = std::env::args().any(|a| a == "--markdown");
    let device = Device::Gtx780;
    if markdown {
        println!("| benchmark | lane Ml/s | warp Ml/s | speedup | uniform-path hit rate |");
        println!("|---|---:|---:|---:|---:|");
    } else {
        println!("{:-<76}", "");
        println!(
            "{:<14} {:>10} {:>10} {:>9} {:>14}",
            "benchmark", "lane Ml/s", "warp Ml/s", "speedup", "uniform hits"
        );
        println!("{:-<76}", "");
    }
    for b in futhark_bench::all_benchmarks() {
        let compiled = b
            .compile(futhark::Schedule::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        let run = |engine: SimEngine| {
            let opts = RunOptions {
                threads: 1,
                profile: false,
                engine,
            };
            let t0 = Instant::now();
            let (_, perf) = compiled
                .run_with_opts(device, &b.args, opts)
                .unwrap_or_else(|e| panic!("{}: run failed: {e}", b.name));
            (t0.elapsed().as_secs_f64(), perf)
        };
        // Warm-up, then one timed run per engine.
        let _ = run(SimEngine::Warp);
        let (lane_s, lane_perf) = run(SimEngine::Lane);
        let (warp_s, warp_perf) = run(SimEngine::Warp);
        let (hits, misses) = (warp_perf.uniform_hits, warp_perf.uniform_misses);
        assert_eq!(
            lane_perf.stats, warp_perf.stats,
            "{}: warp stats diverged from the per-lane engine",
            b.name
        );
        let lane_mls = lanes_per_sec(&lane_perf, lane_s) / 1e6;
        let warp_mls = lanes_per_sec(&warp_perf, warp_s) / 1e6;
        let rate = if hits + misses == 0 {
            "—".to_string()
        } else {
            format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
        };
        if markdown {
            println!(
                "| {} | {:.2} | {:.2} | {:.2}× | {} |",
                b.name,
                lane_mls,
                warp_mls,
                warp_mls / lane_mls,
                rate
            );
        } else {
            println!(
                "{:<14} {:>10.2} {:>10.2} {:>8.2}x {:>14}",
                b.name,
                lane_mls,
                warp_mls,
                warp_mls / lane_mls,
                rate
            );
        }
    }
}
