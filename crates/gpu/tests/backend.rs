//! Backend-focused integration tests: plan structure, symbolic layouts,
//! tiling rewrites, stream chunking, and device-profile effects.

use futhark_core::schedule::{ChoiceClass, Schedule, ScheduleCursor, SimplifyToggles};
use futhark_core::{ArrayVal, Buffer, NameSource, Program, Value};
use futhark_gpu::codegen;
use futhark_gpu::kernel::KStm;
use futhark_gpu::plan::{GpuPlan, HStm, LaunchKind};
use futhark_gpu::{exec, DeviceProfile, RunOptions};

fn compile(src: &str, sched: Schedule) -> (GpuPlan, Program) {
    let (mut prog, mut ns): (Program, NameSource) =
        futhark_frontend::parse_program(src).expect("parses");
    futhark_opt::simplify::simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
    let mut cur = ScheduleCursor::new(Schedule::default());
    futhark_opt::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
    futhark_opt::flatten::flatten_program(&mut prog, &mut ns, &mut cur);
    futhark_opt::simplify::simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
    let plan = codegen::compile(&prog, &mut ScheduleCursor::new(sched)).expect("codegen");
    (plan, prog)
}

fn run(plan: &GpuPlan, prog: &Program, args: &[Value]) -> (Vec<Value>, exec::PerfReport) {
    exec::run(
        plan,
        &exec::DecodedPlan::decode(plan).expect("decodes"),
        prog,
        &DeviceProfile::gtx780(),
        args,
        &RunOptions::default(),
    )
    .expect("runs")
}

#[test]
fn map_nest_produces_one_grid_launch() {
    let (plan, _) = compile(
        "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n][m]f32 =\n\
         let r = map (\\(row: [m]f32) -> map (\\x -> x + 1.0f32) row) xss\n\
         in r",
        Schedule::default(),
    );
    assert_eq!(plan.kernel_count(), 1);
    assert_eq!(plan.launch_sites(), 1);
    let HStm::Launch { spec, .. } = &plan.body.stms[plan.body.stms.len() - 1] else {
        panic!("expected a launch");
    };
    assert_eq!(spec.kind, LaunchKind::Grid);
    assert_eq!(spec.widths.len(), 2, "two grid dimensions for the 2-D nest");
}

#[test]
fn top_level_reduce_is_stream_plus_combine() {
    let (plan, prog) = compile(
        "fun main (n: i64) (xs: [n]i64): i64 =\n\
         let s = reduce (+) 0 xs\n\
         in s",
        Schedule::default(),
    );
    let kinds: Vec<&str> = plan
        .body
        .stms
        .iter()
        .map(|s| match s {
            HStm::Launch { spec, .. } => match spec.kind {
                LaunchKind::Stream { .. } => "stream",
                LaunchKind::Grid => "grid",
            },
            HStm::Combine { .. } => "combine",
            _ => "other",
        })
        .collect();
    assert!(kinds.contains(&"stream"), "{kinds:?}");
    assert!(kinds.contains(&"combine"), "{kinds:?}");
    let args = vec![
        Value::i64(1000),
        Value::Array(ArrayVal::from_i64s((0..1000).collect())),
    ];
    let (out, _) = run(&plan, &prog, &args);
    assert_eq!(out, vec![Value::i64(499500)]);
}

/// A run checks its decoded kernels against its plan: the decoded kernels
/// of another plan are a plan error, never a panic or a wrong kernel.
#[test]
fn decoded_kernels_of_another_plan_are_a_plan_error() {
    let (sum, prog) = compile(
        "fun main (n: i64) (xs: [n]i64): i64 =\n\
         let s = reduce (+) 0 xs\n\
         in s",
        Schedule::default(),
    );
    let (none, _) = compile(
        "fun main (n: i64) (xs: [n]i64): i64 = n",
        Schedule::default(),
    );
    let (map, _) = compile(
        "fun main (n: i64) (xs: [n]i64): [n]i64 = map (\\x -> x + 1) xs",
        Schedule::default(),
    );
    assert_eq!(sum.kernels.len(), map.kernels.len());
    let args = vec![
        Value::i64(8),
        Value::Array(ArrayVal::from_i64s((0..8).collect())),
    ];
    for other in [&none, &map] {
        let decoded = exec::DecodedPlan::decode(other).expect("decodes");
        let err = exec::run(
            &sum,
            &decoded,
            &prog,
            &DeviceProfile::gtx780(),
            &args,
            &RunOptions::default(),
        )
        .expect_err("mismatched decoded kernels");
        assert!(matches!(err, exec::ExecError::Plan(_)), "got {err}");
    }
}

#[test]
fn symbolic_transposes_compose_without_cost() {
    // transpose (transpose a) == a, with zero materialisations.
    let (plan, prog) = compile(
        "fun main (n: i64) (m: i64) (a: [n][m]i64): [n][m]i64 =\n\
         let t = transpose a\n\
         let u = transpose t\n\
         in u",
        Schedule::default(),
    );
    let a = ArrayVal::new(vec![3, 4], Buffer::I64((0..12).collect()));
    let (out, perf) = run(
        &plan,
        &prog,
        &[Value::i64(3), Value::i64(4), Value::Array(a.clone())],
    );
    assert_eq!(out, vec![Value::Array(a)]);
    assert_eq!(perf.transposes, 0, "double transpose must stay symbolic");
    assert_eq!(perf.launches, 0);
}

#[test]
fn layout_materialisations_are_cached_across_host_loops() {
    // The same input array consumed in a transposed layout inside a host
    // loop pays for one materialisation only.
    let (plan, prog) = compile(
        "fun main (n: i64) (m: i64) (iters: i64) (xss: [n][m]f32): [n]f32 =\n\
         let z = replicate n 0.0f32\n\
         let out = loop (acc = z) for t < iters do (\n\
           let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
           let acc2 = map (\\(a: f32) (s: f32) -> a + s) acc sums\n\
           in acc2)\n\
         in out",
        Schedule::default(),
    );
    let xss = ArrayVal::new(
        vec![64, 32],
        Buffer::F32((0..64 * 32).map(|i| (i % 5) as f32).collect()),
    );
    let (_, perf) = run(
        &plan,
        &prog,
        &[
            Value::i64(64),
            Value::i64(32),
            Value::i64(8),
            Value::Array(xss),
        ],
    );
    assert!(perf.launches >= 8);
    assert_eq!(
        perf.transposes, 1,
        "xss must be transposed once, then served from the layout cache"
    );
}

#[test]
fn tiling_rewrites_invariant_array_loops() {
    let src = "fun main (n: i64) (k: i64) (xs: [n]f32) (ws: [k]f32): [n]f32 =\n\
               let out = map (\\(x: f32) ->\n\
                 loop (acc = 0.0f32) for j < k do (\n\
                   let w = ws[j]\n\
                   in acc + w * x)) xs\n\
               in out";
    let (tiled, _) = compile(src, Schedule::default());
    let (untiled, _) = compile(
        src,
        Schedule::default().with_default(ChoiceClass::Tile, false),
    );
    fn has_barrier(stms: &[KStm]) -> bool {
        stms.iter().any(|s| match s {
            KStm::Barrier => true,
            KStm::For { body, .. } | KStm::While { body, .. } | KStm::At { body, .. } => {
                has_barrier(body)
            }
            KStm::If { then_s, else_s, .. } => has_barrier(then_s) || has_barrier(else_s),
            _ => false,
        })
    }
    assert!(has_barrier(&tiled.kernels[0].body), "tiled kernel barriers");
    assert!(
        !tiled.kernels[0].locals.is_empty(),
        "tiled kernel local mem"
    );
    assert!(!has_barrier(&untiled.kernels[0].body));
    assert!(untiled.kernels[0].locals.is_empty());
}

#[test]
fn scatter_launch_initialises_output_from_destination() {
    let (plan, prog) = compile(
        "fun main (k: i64) (n: i64) (dest: *[k]i64) (is: [n]i64) (vs: [n]i64): *[k]i64 =\n\
         let r = scatter dest is vs\n\
         in r",
        Schedule::default(),
    );
    let (out, _) = run(
        &plan,
        &prog,
        &[
            Value::i64(6),
            Value::i64(2),
            Value::Array(ArrayVal::from_i64s(vec![9, 9, 9, 9, 9, 9])),
            Value::Array(ArrayVal::from_i64s(vec![1, 4])),
            Value::Array(ArrayVal::from_i64s(vec![100, 200])),
        ],
    );
    assert_eq!(
        out,
        vec![Value::Array(ArrayVal::from_i64s(vec![
            9, 100, 9, 9, 200, 9
        ]))]
    );
}

#[test]
fn stream_thread_count_balances_accumulator_footprint() {
    // A stream_red with a large array accumulator must choose far fewer
    // threads than one with a scalar accumulator.
    let scalar_src = "fun main (n: i64) (xs: [n]i64): i64 =\n\
                      let s = reduce (+) 0 xs\n\
                      in s";
    let hist_src = "fun main (n: i64) (k: i64) (ms: [n]i64): [k]i64 =\n\
                    let z = replicate k 0\n\
                    let c = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)\n\
                      (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->\n\
                        loop (a = acc) for i < chunk do (\n\
                          let cl = cs[i]\n\
                          let o = a[cl]\n\
                          in a with [cl] <- o + 1))\n\
                      z ms\n\
                    in c";

    let n = 32768usize;
    let (p1, g1) = compile(scalar_src, Schedule::default());
    let (_, perf1) = run(
        &p1,
        &g1,
        &[
            Value::i64(n as i64),
            Value::Array(ArrayVal::from_i64s(vec![1; n])),
        ],
    );
    let (p2, g2) = compile(hist_src, Schedule::default());
    let (_, perf2) = run(
        &p2,
        &g2,
        &[
            Value::i64(n as i64),
            Value::i64(128),
            Value::Array(ArrayVal::from_i64s(
                (0..n as i64).map(|i| i % 128).collect(),
            )),
        ],
    );
    assert!(
        perf2.stats.threads < perf1.stats.threads,
        "histogram stream used {} threads, scalar stream {}",
        perf2.stats.threads,
        perf1.stats.threads
    );
}

#[test]
fn device_profiles_order_bandwidth_bound_kernels() {
    // A purely bandwidth-bound kernel is slightly faster on the GTX 780 Ti
    // (336 vs 320 GB/s) once launch overheads are excluded.
    let (plan, prog) = compile(
        "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
         let r = map (\\x -> x + 1.0f32) xs\n\
         in r",
        Schedule::default(),
    );
    let args = vec![
        Value::i64(1 << 16),
        Value::Array(ArrayVal::from_f32s(vec![1.0; 1 << 16])),
    ];
    let opts = RunOptions::default();
    let decoded = exec::DecodedPlan::decode(&plan).expect("decodes");
    let nv = exec::run(
        &plan,
        &decoded,
        &prog,
        &DeviceProfile::gtx780(),
        &args,
        &opts,
    )
    .unwrap()
    .1;
    let amd = exec::run(
        &plan,
        &decoded,
        &prog,
        &DeviceProfile::w8100(),
        &args,
        &opts,
    )
    .unwrap()
    .1;
    let nv_pure = nv.kernel_us - DeviceProfile::gtx780().launch_overhead_us;
    let amd_pure = amd.kernel_us - DeviceProfile::w8100().launch_overhead_us;
    assert!(
        nv_pure <= amd_pure,
        "nv {nv_pure:.2}us vs amd {amd_pure:.2}us"
    );
}

#[test]
fn fallbacks_still_compute_correctly() {
    // A top-level stream_seq is outside the kernelisable subset; it must
    // fall back to the interpreter and still produce the right answer.
    let (plan, prog) = compile(
        "fun main (n: i64) (xs: [n]i64): i64 =\n\
         let (s) = stream_seq (\\(chunk: i64) (acc: i64) (cs: [chunk]i64) ->\n\
           let p = reduce (+) 0 cs\n\
           in acc + p) 0 xs\n\
         in s",
        Schedule::default(),
    );
    let (out, perf) = run(
        &plan,
        &prog,
        &[
            Value::i64(100),
            Value::Array(ArrayVal::from_i64s((1..=100).collect())),
        ],
    );
    assert_eq!(out, vec![Value::i64(5050)]);
    assert!(perf.fallback_us > 0.0, "expected an interpreter fallback");
}
