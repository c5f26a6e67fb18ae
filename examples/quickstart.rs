//! Quickstart: compile a Futhark program through the full pipeline and run
//! it on the simulated GPU, printing results and the performance report.
//!
//!     cargo run --release --example quickstart

use futhark::{Compiler, Device, RunOptions};
use futhark_core::{ArrayVal, Value};

fn main() -> Result<(), futhark::Error> {
    // Dot product with a map-reduce composition; the fusion engine turns
    // it into a single redomap kernel (Section 4 of the paper).
    let src = "\
fun main (n: i64) (xs: [n]f32) (ys: [n]f32): f32 =
  let prods = map (\\(x: f32) (y: f32) -> x * y) xs ys
  let s = reduce (+) 0.0f32 prods
  in s";
    let compiled = Compiler::new().compile(src)?;
    println!("compiled {} kernel(s)", compiled.plan.kernel_count());

    let n = 100_000usize;
    let xs: Vec<f32> = (0..n).map(|i| (i % 17) as f32 * 0.25).collect();
    let ys: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.5).collect();
    let args = vec![
        Value::i64(n as i64),
        Value::Array(ArrayVal::from_f32s(xs)),
        Value::Array(ArrayVal::from_f32s(ys)),
    ];

    for device in [Device::Gtx780, Device::W8100] {
        let (out, perf) = compiled.run_with_opts(device, &args, RunOptions::default())?;
        println!(
            "{device:?}: dot = {}  ({:.3} simulated ms, {} launches, {} memory transactions, coalescing {:.0}%)",
            out[0],
            perf.total_ms(),
            perf.launches,
            perf.stats.global_transactions,
            perf.stats.coalescing_efficiency() * 100.0
        );
    }
    Ok(())
}
