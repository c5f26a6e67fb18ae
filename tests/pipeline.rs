//! Integration tests spanning the whole workspace: frontend → checker →
//! optimiser → GPU backend → simulator, cross-checked against the
//! reference interpreter — including all sixteen paper benchmarks.

use futhark::{ChoiceClass, Compiler, Device, RunOptions, Schedule};
use futhark_core::{ArrayVal, Buffer, Value};

fn assert_gpu_matches_interp(src: &str, args: &[Value]) {
    let compiled = Compiler::new().compile(src).expect("compiles");
    for device in [Device::Gtx780, Device::W8100] {
        let (gpu, perf) = compiled
            .run_with_opts(device, args, RunOptions::default())
            .unwrap_or_else(|e| panic!("run failed on {device:?}: {e}"));
        let interp = futhark::interpret(src, args).expect("interprets");
        assert_eq!(gpu.len(), interp.len());
        for (a, b) in gpu.iter().zip(&interp) {
            assert!(a.approx_eq(b, 1e-3), "{device:?}: {a} != {b}");
        }
        assert!(perf.total_ms() > 0.0);
    }
}

#[test]
fn all_sixteen_benchmarks_verify() {
    let mut failures = Vec::new();
    for b in futhark_bench::all_benchmarks() {
        if let Err(e) = b.verify() {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn benchmark_references_also_verify() {
    // The reference models must compute the same answers.
    for b in futhark_bench::all_benchmarks() {
        let src = b.reference.source.as_deref().unwrap_or(&b.source);
        let compiled = Compiler::with_schedule(b.reference.schedule.clone())
            .compile(src)
            .unwrap_or_else(|e| panic!("{}: reference compile failed: {e}", b.name));
        let (gpu, _) = compiled
            .run_with_opts(Device::Gtx780, &b.small_args, RunOptions::default())
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", b.name));
        let interp = futhark::interpret(&b.source, &b.small_args)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", b.name));
        for (a, bb) in gpu.iter().zip(&interp) {
            assert!(
                a.approx_eq(bb, 1e-3),
                "{}: reference and Futhark semantics disagree",
                b.name
            );
        }
    }
}

#[test]
fn section22_running_example() {
    let src = "fun main (n: i64) (m: i64) (matrix: [n][m]f32): ([n][m]f32, [n]f32) =\n\
               let (rows, sums) = map (\\(row: [m]f32) ->\n\
                 let r2 = map (\\x -> x + 1.0f32) row\n\
                 let s = reduce (+) 0.0f32 row\n\
                 in (r2, s)) matrix\n\
               in (rows, sums)";
    let m = ArrayVal::new(
        vec![6, 5],
        Buffer::F32((0..30).map(|i| i as f32 * 0.5).collect()),
    );
    assert_gpu_matches_interp(src, &[Value::i64(6), Value::i64(5), Value::Array(m)]);
}

#[test]
fn ablations_preserve_semantics() {
    // Every combination of pipeline switches computes the same answer.
    let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): ([n]f32, f32) =\n\
               let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
               let sq = map (\\s -> s * s) sums\n\
               let total = reduce (+) 0.0f32 sq\n\
               in (sums, total)";
    let xss = ArrayVal::new(
        vec![24, 16],
        Buffer::F32((0..384).map(|i| ((i * 7) % 23) as f32 * 0.25).collect()),
    );
    let args = vec![Value::i64(24), Value::i64(16), Value::Array(xss)];
    let baseline = futhark::interpret(src, &args).unwrap();
    for fusion in [true, false] {
        for coalescing in [true, false] {
            for tiling in [true, false] {
                let sched = Schedule {
                    fusion_pass: fusion,
                    ..Schedule::default()
                }
                .with_coalescing(coalescing)
                .with_default(ChoiceClass::Tile, tiling);
                let config = sched.describe();
                let compiled = Compiler::with_schedule(sched).compile(src).unwrap();
                let (out, _) = compiled
                    .run_with_opts(Device::Gtx780, &args, RunOptions::default())
                    .unwrap();
                for (a, b) in out.iter().zip(&baseline) {
                    assert!(a.approx_eq(b, 1e-3), "schedule {config} changed semantics");
                }
            }
        }
    }
}

#[test]
fn coalescing_reduces_transactions_on_row_traversal() {
    let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
               let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
               in sums";
    let xss = ArrayVal::new(
        vec![512, 64],
        Buffer::F32((0..512 * 64).map(|i| (i % 9) as f32).collect()),
    );
    let args = vec![Value::i64(512), Value::i64(64), Value::Array(xss)];
    let on = Compiler::new().compile(src).unwrap();
    let off = Compiler::with_schedule(Schedule::default().with_coalescing(false))
        .compile(src)
        .unwrap();
    let (_, p_on) = on
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    let (_, p_off) = off
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    assert!(
        p_off.stats.global_transactions > 4 * p_on.stats.global_transactions,
        "on: {}, off: {}",
        p_on.stats.global_transactions,
        p_off.stats.global_transactions
    );
    assert!(p_off.total_us > p_on.total_us);
}

#[test]
fn tiling_uses_local_memory_and_cuts_traffic() {
    let src = "fun main (nv: i64) (nk: i64) (x: [nv]f32) (kx: [nk]f32): [nv]f32 =\n\
               let out = map (\\(xv: f32) ->\n\
                 loop (acc = 0.0f32) for j < nk do (\n\
                   let k = kx[j]\n\
                   in acc + k * xv)) x\n\
               in out";
    let nv = 2048usize;
    let nk = 256usize;
    let args = vec![
        Value::i64(nv as i64),
        Value::i64(nk as i64),
        Value::Array(ArrayVal::from_f32s(
            (0..nv).map(|i| i as f32 * 0.01).collect(),
        )),
        Value::Array(ArrayVal::from_f32s(
            (0..nk).map(|i| (i % 7) as f32).collect(),
        )),
    ];
    let tiled = Compiler::new().compile(src).unwrap();
    let untiled =
        Compiler::with_schedule(Schedule::default().with_default(ChoiceClass::Tile, false))
            .compile(src)
            .unwrap();
    let (r1, p1) = tiled
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    let (r2, p2) = untiled
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    for (a, b) in r1.iter().zip(&r2) {
        assert!(a.approx_eq(b, 1e-3));
    }
    assert!(
        p1.stats.local_accesses > 0,
        "tiling should stage via local memory"
    );
    assert_eq!(p2.stats.local_accesses, 0);
    assert!(
        p1.stats.bus_bytes < p2.stats.bus_bytes,
        "tiled: {} bytes, untiled: {} bytes",
        p1.stats.bus_bytes,
        p2.stats.bus_bytes
    );
}

#[test]
fn uniqueness_violations_are_rejected_by_the_pipeline() {
    let bad = "fun main (n: i64) (a: *[n]i64): i64 =\n\
               let b = a with [0] <- 1\n\
               let v = a[0]\n\
               in v";
    assert!(matches!(
        Compiler::new().compile(bad),
        Err(futhark::Error::Check(_))
    ));
}

#[test]
fn amd_launch_overhead_shows_in_launch_heavy_programs() {
    // Many tiny kernels: the W8100 profile's higher launch overhead must
    // dominate (the paper's NN explanation).
    let src = "fun main (n: i64) (iters: i64) (xs: [n]f32): [n]f32 =\n\
               let out = loop (cur = xs) for t < iters do (\n\
                 let nxt = map (\\x -> x * 0.999f32 + 0.001f32) cur\n\
                 in nxt)\n\
               in out";
    let args = vec![
        Value::i64(256),
        Value::i64(40),
        Value::Array(ArrayVal::from_f32s(vec![1.0; 256])),
    ];
    let compiled = Compiler::new().compile(src).unwrap();
    let (_, nv) = compiled
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    let (_, amd) = compiled
        .run_with_opts(Device::W8100, &args, RunOptions::default())
        .unwrap();
    assert!(
        amd.total_us > 2.0 * nv.total_us,
        "AMD {:.1}us vs NV {:.1}us",
        amd.total_us,
        nv.total_us
    );
}

#[test]
fn floored_divmod_pins() {
    // `/` is floored division (round toward negative infinity) and `%` is
    // the matching modulo (result takes the divisor's sign) — NOT Rust's
    // truncating `wrapping_div`/`wrapping_rem`. The differential fuzzer
    // cannot catch a truncating implementation because the interpreter and
    // the simulator share the scalar evaluator, so the concrete results
    // are pinned here in both executors.
    let src = "fun main (n: i64) (xs: [n]i64) (ys: [n]i64): ([n]i64, [n]i64) =\n\
               let q = map (\\(x: i64) (y: i64) -> x / y) xs ys\n\
               let r = map (\\(x: i64) (y: i64) -> x % y) xs ys\n\
               in (q, r)";
    let xs = vec![-7, 7, -7, 7, i64::MIN, i64::MIN, -1, 5];
    let ys = vec![2, -2, -2, 2, -1, 3, 5, -3];
    // Floored quotients and remainders (identity q*y + r == x, wrapping).
    let want_q = vec![-4, -4, 3, 3, i64::MIN, -3074457345618258603, -1, -2];
    let want_r = vec![1, -1, -1, 1, 0, 1, 4, -1];
    let args = vec![
        Value::i64(xs.len() as i64),
        Value::Array(ArrayVal::from_i64s(xs)),
        Value::Array(ArrayVal::from_i64s(ys)),
    ];
    let expect = vec![
        Value::Array(ArrayVal::from_i64s(want_q)),
        Value::Array(ArrayVal::from_i64s(want_r)),
    ];
    let interp = futhark::interpret(src, &args).expect("interprets");
    assert_eq!(
        interp, expect,
        "interpreter disagrees with floored semantics"
    );
    let compiled = Compiler::new().compile(src).expect("compiles");
    for device in [Device::Gtx780, Device::W8100] {
        let (gpu, _) = compiled
            .run_with_opts(device, &args, RunOptions::default())
            .expect("runs");
        assert_eq!(gpu, expect, "{device:?} disagrees with floored semantics");
    }
}

#[test]
fn float_to_int_conversion_edge_cases_pin() {
    // NaN converts to 0; ±inf and out-of-range values saturate to the
    // integer type's bounds — identically in interpreter and simulator.
    let src = "fun main (n: i64) (xs: [n]f64): [n]i64 =\n\
               let out = map (\\x -> i64 x) xs\n\
               in out";
    let xs = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        -1e300,
        2.9,
        -2.9,
        -9223372036854775808.0,
    ];
    let want = vec![0, i64::MAX, i64::MIN, i64::MAX, i64::MIN, 2, -2, i64::MIN];
    let args = vec![
        Value::i64(xs.len() as i64),
        Value::Array(ArrayVal::new(vec![8], Buffer::F64(xs))),
    ];
    let expect = vec![Value::Array(ArrayVal::from_i64s(want))];
    let interp = futhark::interpret(src, &args).expect("interprets");
    assert_eq!(interp, expect, "interpreter conversion edge cases");
    let compiled = Compiler::new().compile(src).expect("compiles");
    for device in [Device::Gtx780, Device::W8100] {
        let (gpu, _) = compiled
            .run_with_opts(device, &args, RunOptions::default())
            .expect("runs");
        assert_eq!(gpu, expect, "{device:?} conversion edge cases");
    }
}
