//! Tests pinning the qualitative claims of the paper's figures and
//! evaluation section — the "shape" the reproduction must preserve.

use futhark::{Compiler, Device, RunOptions, Schedule};
use futhark_core::{ArrayVal, Value};
use futhark_interp::Interpreter;

/// Figure 4: 4a does O(n) work; 4b does O(n·k); both agree with 4c.
#[test]
fn figure4_work_complexity_and_agreement() {
    let srcs = [
        // 4a
        "fun main (n: i64) (k: i64) (ms: [n]i64): [k]i64 =\n\
         let z = replicate k 0\n\
         let c = loop (c = z) for i < n do (\n\
           let cl = ms[i]\n\
           let o = c[cl]\n\
           in c with [cl] <- o + 1)\n\
         in c",
        // 4b
        "fun main (n: i64) (k: i64) (ms: [n]i64): [k]i64 =\n\
         let incr = map (\\(cl: i64) ->\n\
           let e = replicate k 0\n\
           let e[cl] = 1\n\
           in e) ms\n\
         let z = replicate k 0\n\
         let c = reduce (\\(x: [k]i64) (y: [k]i64) -> map (+) x y) z incr\n\
         in c",
        // 4c
        "fun main (n: i64) (k: i64) (ms: [n]i64): [k]i64 =\n\
         let z = replicate k 0\n\
         let c = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)\n\
           (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->\n\
             loop (a = acc) for i < chunk do (\n\
               let cl = cs[i]\n\
               let o = a[cl]\n\
               in a with [cl] <- o + 1))\n\
           z ms\n\
         in c",
    ];
    let n = 512i64;
    let k = 64i64;
    let ms: Vec<i64> = (0..n).map(|i| (i * 31 + 7) % k).collect();
    let args = vec![
        Value::i64(n),
        Value::i64(k),
        Value::Array(ArrayVal::from_i64s(ms)),
    ];
    let mut works = Vec::new();
    let mut results = Vec::new();
    for src in &srcs {
        let (prog, _) = futhark_frontend::parse_program(src).unwrap();
        let mut interp = Interpreter::new(&prog);
        results.push(interp.run_main(&args).unwrap());
        works.push(interp.work());
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
    // 4b does at least k/4 times the work of 4a at this size.
    assert!(
        works[1] > works[0] * (k as u64) / 4,
        "4a work {} vs 4b work {}",
        works[0],
        works[1]
    );
    // 4c stays within a small constant of 4a.
    assert!(
        works[2] < works[0] * 8,
        "4c work {} vs 4a {}",
        works[2],
        works[0]
    );
}

/// Figure 10's fusion pipeline: stream_map consumed by a reduce becomes a
/// stream_red (rules F3/F6).
#[test]
fn figure10_stream_fusion_shape() {
    use futhark_core::{Exp, Soac};
    let src = "fun main (n: i64) (xs: [n]i64): i64 =\n\
               let ys = stream_map (\\(chunk: i64) (cs: [chunk]i64) ->\n\
                 map (\\c -> c * 2 + 1) cs) xs\n\
               let s = reduce (+) 0 ys\n\
               in s";
    let (mut prog, mut ns) = futhark_frontend::parse_program(src).unwrap();
    futhark_opt::simplify::simplify_program(&mut prog, &mut ns);
    futhark_opt::fusion::fuse_program(&mut prog, &mut ns);
    let main = prog.main().unwrap();
    assert!(
        main.body
            .stms
            .iter()
            .any(|s| matches!(s.exp, Exp::Soac(Soac::StreamRed { .. }))),
        "expected stream_red after fusion:\n{main}"
    );
    // Semantics preserved end-to-end.
    let args = vec![
        Value::i64(9),
        Value::Array(ArrayVal::from_i64s((0..9).collect())),
    ];
    let compiled = Compiler::new()
        .compile(src)
        .expect("compiles through full pipeline");
    let (gpu, _) = compiled
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    assert_eq!(gpu, vec![Value::i64((0..9).map(|x| 2 * x + 1).sum())]);
}

/// Figure 11's headline: an imperfect nest (map over map + loop-of-map)
/// becomes perfect nests with the loop interchanged to the top (G7).
#[test]
fn figure11_interchange_to_top_level() {
    use futhark_core::Exp;
    let src = "fun main (m: i64) (nn: i64) (pss: [m][m]i64): [m]i64 =\n\
               let bss = map (\\(ps: [m]i64) ->\n\
                 let ws = loop (ws = ps) for i < nn do (\n\
                   let ws2 = map (\\w -> w * 2 + 1) ws\n\
                   in ws2)\n\
                 let s = reduce (+) 0 ws\n\
                 in s) pss\n\
               in bss";
    let (mut prog, mut ns) = futhark_frontend::parse_program(src).unwrap();
    futhark_opt::simplify::simplify_program(&mut prog, &mut ns);
    futhark_opt::fusion::fuse_program(&mut prog, &mut ns);
    futhark_opt::flatten::flatten_program(&mut prog, &mut ns);
    let main = prog.main().unwrap();
    assert!(
        main.body
            .stms
            .iter()
            .any(|s| matches!(s.exp, Exp::Loop { .. })),
        "loop should be interchanged to the top level:\n{main}"
    );
    // And the whole thing still computes correctly on the GPU.
    let args = vec![
        Value::i64(4),
        Value::i64(3),
        Value::Array(ArrayVal::new(
            vec![4, 4],
            futhark_core::Buffer::I64((0..16).collect()),
        )),
    ];
    let compiled = Compiler::new().compile(src).unwrap();
    let (gpu, _) = compiled
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .unwrap();
    let interp = futhark::interpret(src, &args).unwrap();
    assert_eq!(gpu, interp);
}

/// Section 6.1.1's coalescing claim, as a counted (not timed) property:
/// disabling the transposition multiplies memory transactions.
#[test]
fn coalescing_transaction_counts() {
    let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
               let s = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
               in s";
    let xss = ArrayVal::new(
        vec![1024, 32],
        futhark_core::Buffer::F32((0..1024 * 32).map(|i| (i % 11) as f32).collect()),
    );
    let args = vec![Value::i64(1024), Value::i64(32), Value::Array(xss)];
    let run = |coalescing: bool| {
        let compiled = Compiler::with_schedule(Schedule::default().with_coalescing(coalescing))
            .compile(src)
            .unwrap();
        compiled
            .run_with_opts(Device::Gtx780, &args, RunOptions::default())
            .unwrap()
            .1
    };
    let on = run(true);
    let off = run(false);
    let factor = off.stats.global_transactions as f64 / on.stats.global_transactions as f64;
    assert!(
        factor > 5.0,
        "coalescing cut transactions only {factor:.1}x (paper reports order-of-magnitude effects)"
    );
}

/// Paper-shape pins for Table 1 / Figure 13, from the actual harness:
/// Futhark wins and loses where the paper says it does.
#[test]
fn table1_shape_pins() {
    let get = |name: &str| futhark_bench::benchmark(name).unwrap();
    // Futhark wins on NN, Backprop, Myocyte, N-body on the NVIDIA profile.
    for name in ["NN", "Backprop", "Myocyte", "N-body"] {
        let b = get(name);
        let fut = b.run_futhark(Device::Gtx780).unwrap().total_ms();
        let rf = b.run_reference(Device::Gtx780).unwrap();
        assert!(
            rf / fut > 1.2,
            "{name}: expected a Futhark win, got {:.2}x",
            rf / fut
        );
    }
    // Futhark loses on CFD, HotSpot, LavaMD, LocVolCalib on NVIDIA — the
    // paper's "4 out of 12" slower set.
    for name in ["CFD", "HotSpot", "LavaMD", "LocVolCalib"] {
        let b = get(name);
        let fut = b.run_futhark(Device::Gtx780).unwrap().total_ms();
        let rf = b.run_reference(Device::Gtx780).unwrap();
        assert!(
            rf / fut < 1.0,
            "{name}: expected a Futhark loss, got {:.2}x",
            rf / fut
        );
    }
    // NN's speedup is smaller on AMD than NVIDIA (launch overheads).
    let nn = get("NN");
    let nv = nn.run_reference(Device::Gtx780).unwrap()
        / nn.run_futhark(Device::Gtx780).unwrap().total_ms();
    let amd = nn.run_reference(Device::W8100).unwrap()
        / nn.run_futhark(Device::W8100).unwrap().total_ms();
    assert!(nv > amd, "NN: NV {nv:.2}x should exceed AMD {amd:.2}x");
}
