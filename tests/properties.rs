//! Property-based tests on the compiler's core invariants, driven by the
//! `futhark-fuzz` type-directed program generator (the external proptest
//! crate is not available offline; the in-tree generator covers a much
//! larger language surface than the original structured family, which
//! survives as [`Strategy::Chains`]):
//!
//! - compiled GPU execution matches the reference interpreter bit for bit
//!   on random full-language programs, on both device profiles, under
//!   every ablation corner of the schedule (the differential oracle);
//! - every optimisation pass individually preserves interpreter semantics
//!   and leaves the program well-typed;
//! - fusion reaches its fixed point in one pass;
//! - streaming SOACs are invariant to the chunk size (the `sFold`
//!   well-definedness argument of Section 2.1);
//! - the ablation corners themselves are well formed;
//! - the shrinker only ever produces smaller cases that still satisfy the
//!   failure predicate.

use futhark::{Compiler, Device, RunOptions, Schedule, ScheduleCursor, SimplifyToggles};
use futhark_core::{ArrayVal, Rng64, Value};
use futhark_fuzz::{check_case, generate, shrink, GenConfig, Outcome, Strategy, TestCase};
use futhark_interp::Interpreter;

const CASES: u64 = 24;

fn chains_cfg() -> GenConfig {
    GenConfig {
        strategy: Strategy::Chains,
        ..GenConfig::default()
    }
}

fn full_cfg() -> GenConfig {
    GenConfig {
        strategy: Strategy::Full,
        ..GenConfig::default()
    }
}

fn assert_clean(case: &TestCase) {
    if let Some(failure) = check_case(case).describe() {
        panic!(
            "seed {} diverged: {failure}\n--- program ---\n{}",
            case.seed,
            case.source()
        );
    }
}

/// The old structured family (map/scan chains) still passes the full
/// differential oracle: interpreter vs simulator, 7 configs x 2 devices.
#[test]
fn map_scan_chains_match_interpreter_everywhere() {
    for seed in 0..CASES {
        assert_clean(&generate(0x1000 + seed, &chains_cfg()));
    }
}

/// Full-language programs (all SOACs, loops, branches, 2-D arrays,
/// in-place updates, filter/scatter) pass the differential oracle.
#[test]
fn full_language_programs_match_interpreter_everywhere() {
    for seed in 0..CASES {
        assert_clean(&generate(0x2000 + seed, &full_cfg()));
    }
}

/// Each optimisation pass, applied in pipeline order, preserves the
/// interpreter's results and keeps the program well-typed.
#[test]
fn each_pass_preserves_semantics() {
    for seed in 0..CASES {
        let case = generate(0x3000 + seed, &full_cfg());
        let src = case.source();
        let args = case.args();
        let (prog, mut ns) = futhark_frontend::parse_program(&src)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
        let baseline = Interpreter::new(&prog).run_main(&args).expect("base");

        let mut p1 = prog.clone();
        futhark_opt::simplify::simplify_program(&mut p1, &mut ns, &SimplifyToggles::default());
        assert_eq!(
            Interpreter::new(&p1).run_main(&args).expect("simplified"),
            baseline,
            "simplify changed semantics for\n{src}"
        );
        futhark_check::check_program(&p1).expect("simplified program checks");

        let mut p2 = p1.clone();
        let mut cur = ScheduleCursor::new(Schedule::default());
        futhark_opt::fusion::fuse_program(&mut p2, &mut ns, &mut cur);
        assert_eq!(
            Interpreter::new(&p2).run_main(&args).expect("fused"),
            baseline,
            "fusion changed semantics for\n{src}"
        );
        futhark_check::check_program(&p2).expect("fused program checks");

        let mut p3 = p2.clone();
        futhark_opt::flatten::flatten_program(&mut p3, &mut ns, &mut cur);
        assert_eq!(
            Interpreter::new(&p3).run_main(&args).expect("flattened"),
            baseline,
            "flattening changed semantics for\n{src}"
        );
    }
}

/// Fusion reaches its fixed point: a second pass over its output leaves
/// every function's top-level statement count unchanged. (Nested counts
/// may still move: the bodies of composed lambdas are not fused again.)
#[test]
fn fusion_reaches_its_fixed_point() {
    let top = |p: &futhark_core::Program| -> Vec<usize> {
        p.functions.iter().map(|f| f.body.stms.len()).collect()
    };
    for seed in 0..200 {
        let src = generate(0x5000 + seed, &GenConfig::default()).source();
        let (mut prog, mut ns) = futhark_frontend::parse_program(&src)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
        futhark_opt::simplify::simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
        let mut cur = ScheduleCursor::new(Schedule::default());
        futhark_opt::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
        let once = top(&prog);
        futhark_opt::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
        assert_eq!(top(&prog), once, "a second fusion pass changed\n{src}");
    }
}

#[test]
fn stream_red_is_chunk_invariant() {
    // Figure 4c's histogram: any partitioning yields the same counts.
    let src = "fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =\n\
               let zeros = replicate k 0\n\
               let counts = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)\n\
                 (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->\n\
                   loop (a = acc) for i < chunk do (\n\
                     let c = cs[i]\n\
                     let old = a[c]\n\
                     in a with [c] <- old + 1))\n\
                 zeros membership\n\
               in counts";
    let (prog, _) = futhark_frontend::parse_program(src).expect("parses");
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x4000 + case);
        let len = rng.gen_i64(1, 50) as usize;
        let data: Vec<i64> = (0..len).map(|_| rng.gen_i64(0, 8)).collect();
        let chunk = rng.gen_i64(1, 16) as usize;
        let args = vec![
            Value::i64(data.len() as i64),
            Value::i64(8),
            Value::Array(ArrayVal::from_i64s(data)),
        ];
        let whole = Interpreter::new(&prog).run_main(&args).expect("whole");
        let mut chunked_interp = Interpreter::new(&prog);
        chunked_interp.set_chunk_size(chunk);
        let chunked = chunked_interp.run_main(&args).expect("chunked");
        assert_eq!(whole, chunked);
        // And the GPU's own (thread-count dependent) partitioning agrees.
        let compiled = Compiler::new().compile(src).expect("compiles");
        let (gpu, _) = compiled
            .run_with_opts(Device::Gtx780, &args, RunOptions::default())
            .expect("runs");
        assert_eq!(gpu, whole);
    }
}

/// The ablation corners the oracle iterates are well formed: seven
/// distinct schedules, the first being the fully optimised default, and
/// the checker enabled throughout (disabling verification is never part
/// of an ablation). The labels pin the exact seven configurations the
/// oracle and the CI fuzz campaigns cover: all on, all off, then
/// simplify, fusion, coalescing, tiling and memplan off on their own.
#[test]
fn ablation_corners_are_well_formed() {
    let corners = Schedule::ablation_corners();
    assert_eq!(corners.len(), 7);
    let labels: Vec<String> = corners.iter().map(Schedule::label).collect();
    for (i, l) in labels.iter().enumerate() {
        assert!(
            !labels[..i].contains(l),
            "duplicate ablation label {l:?} in {labels:?}"
        );
    }
    assert!(corners[0].is_default());
    assert_eq!(
        labels,
        [
            "sched3,8:11111111,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,",
            "sched3,8:00011111,1:1,1:1,1:1,1:1,1:1,1:0,1:0,1:0,",
            "sched3,8:01111111,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,",
            "sched3,8:10111111,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,",
            "sched3,8:11111111,1:1,1:1,1:1,1:1,1:1,1:0,1:0,1:1,",
            "sched3,8:11111111,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:0,",
            "sched3,8:11011111,1:1,1:1,1:1,1:1,1:1,1:1,1:1,1:1,",
        ]
    );
}

/// Shrinking never grows a case and always lands on one that still
/// satisfies the failure predicate (here synthetic, so the test does not
/// depend on a real compiler bug existing).
#[test]
fn shrinking_is_sound_and_monotone() {
    let mut exercised = 0;
    for seed in 0..CASES {
        let case = generate(0x5000 + seed, &full_cfg());
        let pred = |c: &TestCase| c.source().contains("scatter");
        if !pred(&case) {
            continue;
        }
        exercised += 1;
        let (small, stats) = shrink(&case, &mut |c| pred(c), 2000);
        assert!(pred(&small), "shrink lost the predicate");
        assert!(small.stages.len() <= case.stages.len());
        assert!(small.n <= case.n && small.m <= case.m);
        assert!(stats.attempts >= stats.accepted);
        // The shrunk program is still a valid, runnable program.
        assert!(
            !matches!(check_case(&small), Outcome::InterpError(_)),
            "shrunk program no longer runs:\n{}",
            small.source()
        );
    }
    assert!(exercised >= 3, "too few scatter-bearing seeds: {exercised}");
}
