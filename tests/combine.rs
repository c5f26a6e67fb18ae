//! The second stage of every two-stage reduction is a one-thread fold
//! kernel on the simulator (`HStm::Combine`). These tests pin where the
//! combines are, so a `red_lam` that stage 2 cannot lower shows up as a
//! changed count instead of a reduction that silently stops being
//! kernelised, and check the fold against the interpreter: its
//! left-to-right order, its tie-breaking, and its faults.

use futhark::{Compiled, Compiler, Device, RunOptions, TimelineEvent};
use futhark_core::{ArrayVal, Value};
use futhark_gpu::plan::{HBody, HStm};
use std::path::PathBuf;

fn combines(b: &HBody) -> usize {
    b.stms
        .iter()
        .map(|s| match s {
            HStm::Combine { .. } => 1,
            HStm::Loop {
                body, while_cond, ..
            } => combines(body) + while_cond.as_ref().map_or(0, combines),
            HStm::If { then_b, else_b, .. } => combines(then_b) + combines(else_b),
            _ => 0,
        })
        .sum()
}

/// Combine statements and plan kernels of a program.
fn counts(src: &str) -> (usize, usize) {
    let compiled = Compiler::new().compile(src).expect("compiles");
    (combines(&compiled.plan.body), compiled.plan.kernel_count())
}

#[test]
fn combine_and_kernel_counts_are_pinned() {
    // Taken before the combine moved onto the simulator: stage-2 kernels
    // add no kernel to the plan.
    let paper = [
        ("Backprop", (1, 3)),
        ("CFD", (0, 1)),
        ("HotSpot", (0, 2)),
        ("K-means", (2, 5)),
        ("LavaMD", (0, 1)),
        ("Myocyte", (0, 1)),
        ("NN", (1, 2)),
        ("Pathfinder", (0, 1)),
        ("SRAD", (1, 3)),
        ("LocVolCalib", (0, 6)),
        ("OptionPricing", (1, 1)),
        ("MRI-Q", (0, 1)),
        ("Crystal", (0, 2)),
        ("Fluid", (0, 3)),
        ("Mandelbrot", (0, 2)),
        ("N-body", (0, 1)),
    ];
    let got: Vec<(&str, (usize, usize))> = paper
        .iter()
        .map(|&(name, _)| {
            let b = futhark_bench::benchmark(name).expect("paper benchmark");
            (name, counts(&b.source))
        })
        .collect();
    assert_eq!(got, paper);

    let corpus = [
        ("filter_empty.fut", 3),
        ("floored_divmod.fut", 0),
        ("fuzz_s1_c0.fut", 0),
        ("loop_double_buffer.fut", 0),
        ("loop_inplace.fut", 0),
        ("scatter_oob_dup.fut", 0),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let got: Vec<(&str, usize)> = corpus
        .iter()
        .map(|&(file, _)| {
            let src = std::fs::read_to_string(dir.join(file)).expect("fixture readable");
            (file, counts(&src).0)
        })
        .collect();
    assert_eq!(got, corpus);
}

fn opts() -> RunOptions {
    RunOptions {
        threads: 2,
        ..RunOptions::default()
    }
}

/// `src` compiled for the warp engine, and converted for the per-lane
/// reference.
fn engines(src: &str) -> [(&'static str, Compiled); 2] {
    let warp = Compiler::new().compile(src).expect("compiles");
    let reference = warp
        .clone()
        .into_reference()
        .expect("decodes for the reference");
    [("warp", warp), ("reference", reference)]
}

/// Runs `src` on both devices and both engines, checks every output
/// against the interpreter bit for bit, and returns the outputs.
fn matches_interpreter(src: &str, args: &[Value]) -> Vec<Value> {
    let want = futhark::interpret(src, args).expect("interprets");
    let engines = engines(src);
    for device in [Device::Gtx780, Device::W8100] {
        for (engine, compiled) in &engines {
            let (got, _) = compiled.run_with_opts(device, args, opts()).expect("runs");
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(g.bit_eq(w), "{device:?}, {engine}: {g:?} != {w:?}");
            }
        }
    }
    want
}

#[test]
fn f32_sum_folds_partials_left_to_right() {
    // One 1e8 followed by halves: every chunk's partial and every later
    // partial round away against 1e8, so a left-to-right fold gives 1e8,
    // exactly like the interpreter's sequential fold. Any other order of
    // the partials sums the small ones first and does not.
    let src = "fun main (n: i64) (xs: [n]f32): f32 = reduce (+) 0.0f32 xs";
    let n = 65_536usize;
    let mut xs = vec![0.5f32; n];
    xs[0] = 1e8;
    let args = vec![
        Value::i64(n as i64),
        Value::Array(ArrayVal::from_f32s(xs.clone())),
    ];
    let want = matches_interpreter(src, &args);
    assert!(want[0].bit_eq(&Value::f32(1e8)));
    assert_ne!(
        xs.iter().rev().sum::<f32>(),
        1e8,
        "the data is order-sensitive"
    );
    // The fold runs over one partial per stage-1 thread.
    let compiled = Compiler::new().compile(src).expect("compiles");
    let (_, perf) = compiled
        .run_with_opts(Device::Gtx780, &args, opts())
        .expect("runs");
    let threads: Vec<u64> = perf
        .timeline
        .iter()
        .filter_map(|e| match e {
            TimelineEvent::Launch(l) => Some(l.num_threads),
            _ => None,
        })
        .collect();
    assert_eq!(threads, [15_360]);
}

#[test]
fn argmin_ties_keep_the_lowest_index() {
    let src = "fun main (n: i64) (xs: [n]f32): (f32, i64) =\n  \
               let is = iota n\n  \
               in reduce (\\(av: f32) (ai: i64) (bv: f32) (bi: i64) ->\n    \
               if bv < av then (bv, bi) else (av, ai)) (100000000.0f32, 0) xs is";
    let n = 70_000usize;
    let mut xs: Vec<f32> = (0..n).map(|i| (i % 997) as f32).collect();
    for i in [69_001, 30_000, 50_000, 30_001] {
        xs[i] = -1.0;
    }
    let args = vec![Value::i64(n as i64), Value::Array(ArrayVal::from_f32s(xs))];
    let want = matches_interpreter(src, &args);
    assert!(want[0].bit_eq(&Value::f32(-1.0)));
    assert!(want[1].bit_eq(&Value::i64(30_000)));
}

#[test]
fn a_fault_in_the_combine_is_the_same_run_error_on_both_engines() {
    // Every chunk folds 1 / 2 / 2 / ... down to a zero partial without
    // dividing by zero; the combine's first step then divides by it.
    let src = "fun main (n: i64) (xs: [n]i64): i64 = reduce (\\(a: i64) (b: i64) -> a / b) 1 xs";
    let n = 20_000i64;
    let args = vec![
        Value::i64(n),
        Value::Array(ArrayVal::from_i64s(vec![2; n as usize])),
    ];
    let [warp, lane] = engines(src).map(|(_, compiled)| {
        compiled
            .run_with_opts(Device::Gtx780, &args, opts())
            .map(|(v, _)| v)
            .map_err(|e| e.to_string())
    });
    assert_eq!(warp, lane);
    let err = warp.expect_err("the combine divides by a zero partial");
    assert!(err.contains("division by zero"), "{err}");
}
