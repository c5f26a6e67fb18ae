//! Memory-planning integration tests: liveness-driven buffer reuse cuts
//! the peak device footprint, the double-buffered loop pattern loses its
//! per-iteration copies, planning never changes results, and exhausting
//! a device's global memory is a structured error rather than a panic.

use futhark::{
    Compiler, Device, Error, ExecError, PerfReport, RunOptions, Schedule, SimError, TimelineEvent,
};
use futhark_core::{ArrayVal, Value};
use futhark_gpu::DeviceProfile;

/// A chain of maps and scans: the scans block full fusion, so the chain
/// keeps several same-sized intermediate arrays whose lifetimes do not
/// overlap — exactly what liveness-driven reuse exploits.
const SCAN_CHAIN: &str = "fun main (n: i64) (xs: [n]i64): i64 =\n\
                          let a = map (\\x -> x * 3 + 1) xs\n\
                          let b = scan (+) 0 a\n\
                          let c = map (\\x -> x - 7) b\n\
                          let d = scan (+) 0 c\n\
                          let e = map (\\x -> x / 2) d\n\
                          let s = reduce (+) 0 e\n\
                          in s";

/// The double-buffering pattern: each iteration copies the loop-carried
/// array and scatters into the copy.
const DOUBLE_BUFFER: &str = "fun main (n: i64) (iters: i64) (xs: [n]i64): [n]i64 =\n\
                             let r = loop (cur = xs) for i < iters do (\n\
                               let buf = copy cur\n\
                               let is = map (\\x -> (x + i) % n) cur\n\
                               let vs = map (\\x -> x + 1) cur\n\
                               let next = scatter buf is vs\n\
                               in next)\n\
                             in r";

fn i64_args(n: usize) -> Vec<Value> {
    vec![
        Value::i64(n as i64),
        Value::Array(ArrayVal::from_i64s(
            (0..n as i64).map(|i| i * 5 % 131).collect(),
        )),
    ]
}

fn run_with(src: &str, sched: Schedule, args: &[Value]) -> (Vec<Value>, PerfReport) {
    Compiler::with_schedule(sched)
        .compile(src)
        .expect("compiles")
        .run_with_opts(Device::Gtx780, args, RunOptions::default())
        .expect("runs")
}

fn no_memplan() -> Schedule {
    Schedule {
        memplan: false,
        ..Schedule::default()
    }
}

fn interp(src: &str, args: &[Value]) -> Vec<Value> {
    let (prog, _) = futhark_frontend::parse_program(src).expect("parses");
    futhark_interp::Interpreter::new(&prog)
        .run_main(args)
        .expect("interprets")
}

/// Planning frees each intermediate at its last use and services the
/// next allocation from the free list, so the peak footprint of the
/// map/scan chain drops by at least 30% — with bit-identical results.
#[test]
fn planning_cuts_peak_footprint_by_thirty_percent() {
    let args = i64_args(4096);
    let (out_on, perf_on) = run_with(SCAN_CHAIN, Schedule::default(), &args);
    let (out_off, perf_off) = run_with(SCAN_CHAIN, no_memplan(), &args);
    assert_eq!(out_on, out_off, "planning must not change results");
    assert_eq!(out_on, interp(SCAN_CHAIN, &args));
    let (on, off) = (perf_on.mem.peak_bytes, perf_off.mem.peak_bytes);
    assert!(
        on * 10 <= off * 7,
        "peak bytes should drop >= 30%: on={on} off={off}"
    );
    assert!(perf_on.mem.frees > 0, "planning inserts frees");
    assert!(perf_on.mem.reuses > 0, "freed buffers get reused");
    assert_eq!(perf_off.mem.frees, 0, "without planning nothing is freed");
    assert_eq!(perf_off.mem.reuses, 0);
    assert!(perf_on.mem.allocs > 0 && perf_on.mem.peak_bytes > 0);
    assert!(
        perf_on.mem.live_bytes <= perf_off.mem.live_bytes,
        "planning never leaves more live at the end: on={} off={}",
        perf_on.mem.live_bytes,
        perf_off.mem.live_bytes
    );
}

/// The double-buffered loop: copy elision removes every per-iteration
/// `copy` device op, the rotate steal keeps at most one `init_copy`
/// (the first iteration seeds the second buffer), and the values stay
/// bit-identical to the interpreter and the unplanned pipeline.
#[test]
fn double_buffered_loop_drops_per_iteration_copies() {
    let n = 64usize;
    let iters = 10i64;
    let args = vec![
        Value::i64(n as i64),
        Value::i64(iters),
        Value::Array(ArrayVal::from_i64s((0..n as i64).map(|i| i * 3).collect())),
    ];
    let (out_on, perf_on) = run_with(DOUBLE_BUFFER, Schedule::default(), &args);
    let (out_off, perf_off) = run_with(DOUBLE_BUFFER, no_memplan(), &args);
    assert_eq!(out_on, out_off, "planning must not change results");
    assert_eq!(out_on, interp(DOUBLE_BUFFER, &args));

    let count_op = |perf: &PerfReport, name: &str| {
        perf.timeline
            .iter()
            .filter(|e| matches!(e, TimelineEvent::DeviceOp { what, .. } if what == name))
            .count()
    };
    assert_eq!(
        count_op(&perf_on, "copy"),
        0,
        "the explicit copy must be elided"
    );
    assert!(
        count_op(&perf_on, "init_copy") <= 1,
        "rotation leaves at most the seeding copy"
    );
    assert!(
        count_op(&perf_off, "copy") >= iters as usize,
        "without planning every iteration copies"
    );
    assert!(perf_on.mem.frees > 0, "rotation frees the dead buffer");
    assert!(perf_on.mem.reuses > 0, "iterations steal the dead buffer");
    assert!(
        perf_on.mem.peak_bytes < perf_off.mem.peak_bytes,
        "double buffering caps the footprint: on={} off={}",
        perf_on.mem.peak_bytes,
        perf_off.mem.peak_bytes
    );
}

/// Every ablation-matrix configuration (including planning off) agrees
/// bit for bit on both fixtures above.
#[test]
fn whole_matrix_is_bit_identical_on_memplan_fixtures() {
    for (src, args) in [
        (SCAN_CHAIN, i64_args(257)),
        (
            DOUBLE_BUFFER,
            vec![
                Value::i64(17),
                Value::i64(6),
                Value::Array(ArrayVal::from_i64s((0..17).map(|i| i * 11 % 23).collect())),
            ],
        ),
    ] {
        let reference = interp(src, &args);
        for sched in Schedule::ablation_corners() {
            let config = sched.describe();
            let (out, _) = run_with(src, sched, &args);
            assert_eq!(out, reference, "config {config} diverged on\n{src}");
        }
    }
}

/// A deliberately undersized device yields a structured
/// [`SimError::OutOfMemory`] — never a panic or unbounded host growth —
/// while the same program fits comfortably on a real profile.
#[test]
fn undersized_device_reports_out_of_memory() {
    let args = i64_args(4096);
    let compiled = Compiler::new().compile(SCAN_CHAIN).expect("compiles");

    let mut tiny = DeviceProfile::gtx780();
    tiny.name = "gtx780-tiny".into();
    tiny.global_mem_bytes = 8 * 1024; // two i64 arrays of 4096 do not fit
    match compiled.run_with_opts(tiny, &args, RunOptions::default()) {
        Err(Error::Exec(ExecError::Sim(SimError::OutOfMemory {
            requested,
            live,
            capacity,
        }))) => {
            assert_eq!(capacity, 8 * 1024);
            assert!(requested > 0);
            assert!(live + requested > capacity);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }

    let (out, _) = compiled
        .run_with_opts(DeviceProfile::gtx780(), &args, RunOptions::default())
        .expect("fits on the real profile");
    assert_eq!(out, interp(SCAN_CHAIN, &args));
}

// ---------------------------------------------------------------------------
// Static peak prediction (admission control)
// ---------------------------------------------------------------------------

/// `predict_peak_bytes` is a lower bound on the measured peak across all
/// sixteen paper benchmarks: the daemon's admission control may reject a
/// job only when even its optimistic footprint cannot fit, so the
/// prediction must never exceed what a run actually uses — and it must
/// be non-trivial (at least the uploaded input bytes).
#[test]
fn predicted_peak_is_a_nontrivial_lower_bound_on_all_benchmarks() {
    let profile = Device::Gtx780.profile();
    for b in futhark_bench::all_benchmarks() {
        let compiled = b
            .compile(Schedule::default())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        let (_, perf) = compiled
            .run_with_opts(Device::Gtx780, &b.small_args, RunOptions::default())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", b.name));
        let pred = futhark_gpu::predict_peak_bytes(&compiled.plan, &profile, &b.small_args);
        let input_bytes: u64 = b
            .small_args
            .iter()
            .map(|v| match v {
                Value::Array(a) => (a.data.len() * a.elem_type().byte_size()) as u64,
                _ => 0,
            })
            .sum();
        assert!(
            pred.peak_bytes <= perf.mem.peak_bytes,
            "{}: predicted {} exceeds measured peak {} (prediction must be \
             a lower bound)",
            b.name,
            pred.peak_bytes,
            perf.mem.peak_bytes
        );
        assert!(
            pred.peak_bytes >= input_bytes,
            "{}: predicted {} below the {} input bytes the run must upload",
            b.name,
            pred.peak_bytes,
            input_bytes
        );
    }
}

/// A straight-line program with fully known sizes predicts exactly: the
/// abstract walk sees every allocation the executor performs, so the
/// prediction equals the measured peak, and the `exact` flag says so.
#[test]
fn straight_line_prediction_is_exact() {
    let args = i64_args(4096);
    let compiled = Compiler::new().compile(SCAN_CHAIN).expect("compiles");
    let (_, perf) = compiled
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .expect("runs on the default profile");
    let pred = futhark_gpu::predict_peak_bytes(&compiled.plan, &Device::Gtx780.profile(), &args);
    assert!(
        pred.exact,
        "no loops or unknowns — prediction should be exact"
    );
    assert_eq!(
        pred.peak_bytes, perf.mem.peak_bytes,
        "exact prediction must equal the measured peak"
    );
}

/// The admission-control scenario: a job whose predicted footprint alone
/// exceeds the device's capacity is detectable *before* execution — the
/// prediction for a huge `replicate` crosses `global_mem_bytes` while
/// actually running it would OOM mid-flight.
#[test]
fn prediction_flags_over_capacity_jobs_before_execution() {
    const HUGE: &str = "fun main (n: i64): [n]i64 = replicate n 7";
    let compiled = Compiler::new().compile(HUGE).expect("compiles");
    let profile = Device::Gtx780.profile();
    let n = 1i64 << 30; // 8 GiB of i64s vs a 3 GiB device
    let pred = futhark_gpu::predict_peak_bytes(&compiled.plan, &profile, &[Value::i64(n)]);
    assert!(
        pred.peak_bytes > profile.global_mem_bytes,
        "predicted {} should exceed capacity {}",
        pred.peak_bytes,
        profile.global_mem_bytes
    );
    // And a small instance of the same program is admissible and runs.
    let small = futhark_gpu::predict_peak_bytes(&compiled.plan, &profile, &[Value::i64(64)]);
    assert!(small.peak_bytes <= profile.global_mem_bytes);
    compiled
        .run_with_opts(Device::Gtx780, &[Value::i64(64)], RunOptions::default())
        .expect("small instance runs");
}
