//! Regression suite for the process-global-state bug a long-lived daemon
//! exposed: `FUTHARK_SIM_THREADS` used to be latched in a `OnceLock`, so
//! the first launch in a process pinned the host thread count forever —
//! per-request `RunOptions` overrides silently lost. This test runs
//! differing thread counts *in one process* and demands bit-identical
//! results throughout.

use futhark::{Compiler, Device, PerfReport, RunOptions};
use futhark_core::{ArrayVal, Value};

/// A program with both a data-dependent branch and enough parallelism to
/// span several work-groups: divergence points exist and multi-threaded
/// group execution has real work to split.
const SRC: &str = "fun main (n: i64) (xs: [n]i64): [n]i64 =\n\
                   map (\\(x: i64) -> if x % 3 == 0 then x * 2 else x - 1) xs";

fn compile_and_args() -> (futhark::Compiled, Vec<Value>) {
    let n = 4096i64;
    let xs: Vec<i64> = (0..n).map(|i| i * 7 % 1001).collect();
    let compiled = Compiler::new().compile(SRC).expect("compiles");
    (
        compiled,
        vec![Value::i64(n), Value::Array(ArrayVal::from_i64s(xs))],
    )
}

fn run(compiled: &futhark::Compiled, args: &[Value], threads: usize) -> (Vec<Value>, PerfReport) {
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    compiled
        .run_with_opts(Device::Gtx780, args, opts)
        .expect("runs")
}

/// Differing thread counts in one process: every request's `threads`
/// setting must be honoured (before the fix the first request's count was
/// pinned), and results stay bit-identical regardless.
#[test]
fn thread_count_overrides_win_per_request() {
    let (compiled, args) = compile_and_args();
    let (base_vals, base_perf) = run(&compiled, &args, 1);
    for threads in [2, 4, 3, 1] {
        let (vals, perf) = run(&compiled, &args, threads);
        assert_eq!(vals, base_vals, "threads={threads} changed outputs");
        assert_eq!(
            perf, base_perf,
            "threads={threads} perturbed the report — group scheduling \
             must be observationally invisible"
        );
    }
}
