//! Regenerates the Section 6.1.1 optimisation-impact numbers: runtimes with
//! individual optimisations disabled, as ratios over the fully optimised
//! build (NVIDIA profile, as in the paper).
//!
//! Usage: impact [fusion|inplace|coalescing|tiling|all]

use futhark::{ChoiceClass, Device, RunOptions, Schedule};
use futhark_bench::benchmark;

fn ratio_with(bname: &str, sched: &Schedule) -> Result<f64, futhark::Error> {
    let b = benchmark(bname).expect("benchmark exists");
    let base = b.run_futhark(Device::Gtx780)?.total_ms();
    let compiled = b.compile(sched.clone())?;
    let (_, perf) = compiled.run_with_opts(Device::Gtx780, &b.args, RunOptions::default())?;
    Ok(perf.total_ms() / base)
}

fn fusion() {
    println!("\nImpact of fusion (×slowdown when disabled; paper: K-means 1.42, LavaMD 4.55, Myocyte 1.66, SRAD 1.21, Crystal 10.1, LocVolCalib 9.4):");
    let sched = Schedule {
        fusion_pass: false,
        ..Schedule::default()
    };
    for name in [
        "K-means",
        "LavaMD",
        "Myocyte",
        "SRAD",
        "Crystal",
        "LocVolCalib",
        "N-body",
        "MRI-Q",
        "OptionPricing",
    ] {
        match ratio_with(name, &sched) {
            Ok(r) => println!("  {name:<14} x{r:.2}"),
            Err(e) => println!("  {name:<14} failed without fusion: {e} (paper: OptionPricing, N-body and MRI-Q fail due to increased storage requirements)"),
        }
    }
}

fn inplace() {
    // The paper replaces K-means' Figure 4c formulation with Figure 4b.
    println!(
        "\nImpact of in-place updates (paper: K-means ×8.3 slower with the Figure 4b formulation):"
    );
    let b = benchmark("K-means").expect("kmeans");
    let base = b.run_futhark(Device::Gtx780).expect("base").total_ms();
    let fig4b = "\
fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =
  let increments = map (\\(cluster: i64) ->
    let incr = replicate k 0
    let incr[cluster] = 1
    in incr) membership
  let zeros = replicate k 0
  let counts = reduce (\\(x: [k]i64) (y: [k]i64) -> map (+) x y) zeros increments
  in counts";
    let fig4c = "\
fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =
  let zeros = replicate k 0
  let counts = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)
    (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->
      loop (a = acc) for ii < chunk do (
        let cl = cs[ii]
        let old = a[cl]
        in a with [cl] <- old + 1))
    zeros membership
  in counts";
    let n = 32768usize;
    let k = 64i64;
    let membership: Vec<i64> = (0..n as i64).map(|x| (x * 7 + 3) % k).collect();
    let args = vec![
        futhark_core::Value::i64(n as i64),
        futhark_core::Value::i64(k),
        futhark_core::Value::Array(futhark_core::ArrayVal::from_i64s(membership)),
    ];
    let run = |src: &str| -> f64 {
        let c = futhark::Compiler::new().compile(src).expect("compiles");
        c.run_with_opts(Device::Gtx780, &args, RunOptions::default())
            .expect("runs")
            .1
            .total_ms()
    };
    let with_ip = run(fig4c);
    let without = run(fig4b);
    println!("  K-means counts: Figure 4c (stream_red + in-place) {with_ip:.3} ms");
    println!("  K-means counts: Figure 4b (O(n*k) work)           {without:.3} ms");
    println!(
        "  slowdown without in-place updates: x{:.2}",
        without / with_ip
    );
    println!("  (full K-means baseline: {base:.2} ms; OptionPricing's Brownian bridge is inexpressible without in-place updates)");
}

fn coalescing() {
    println!("\nImpact of coalescing (×slowdown when disabled; paper: K-means 9.26, Myocyte 4.2, OptionPricing 8.79, LocVolCalib 8.4):");
    let sched = Schedule::default().with_coalescing(false);
    for name in ["K-means", "Myocyte", "OptionPricing", "LocVolCalib"] {
        match ratio_with(name, &sched) {
            Ok(r) => println!("  {name:<14} x{r:.2}"),
            Err(e) => println!("  {name:<14} error: {e}"),
        }
    }
}

fn tiling() {
    println!("\nImpact of block tiling (×slowdown when disabled; paper: LavaMD 1.35, MRI-Q 1.33, N-body 2.29):");
    let sched = Schedule::default().with_default(ChoiceClass::Tile, false);
    for name in ["LavaMD", "MRI-Q", "N-body"] {
        match ratio_with(name, &sched) {
            Ok(r) => println!("  {name:<14} x{r:.2}"),
            Err(e) => println!("  {name:<14} error: {e}"),
        }
    }
}

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    println!("Section 6.1.1: Impact of Optimisations (simulated GTX 780 Ti)");
    match what.as_str() {
        "fusion" => fusion(),
        "inplace" => inplace(),
        "coalescing" => coalescing(),
        "tiling" => tiling(),
        _ => {
            fusion();
            inplace();
            coalescing();
            tiling();
        }
    }
}
