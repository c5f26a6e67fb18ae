//! `futhark` — the umbrella crate of **futhark-rs**, a Rust reproduction of
//! *Futhark: Purely Functional GPU-Programming with Nested Parallelism and
//! In-Place Array Updates* (PLDI 2017).
//!
//! This crate wires the whole compiler pipeline of the paper's Figure 3:
//!
//! ```text
//! source ──parse/elaborate──► core IR ──type/uniqueness check──►
//!   simplification ──► fusion ──► kernel extraction (flattening) ──►
//!   locality optimisation + code generation ──► simulated-GPU execution
//! ```
//!
//! # Quick start
//!
//! ```
//! use futhark::{ChoiceClass, Compiler, Device, RunOptions, Schedule};
//! use futhark_core::{ArrayVal, Value};
//!
//! let src = "fun main (n: i64) (xs: [n]f32): f32 =\n\
//!            let ys = map (\\x -> x * x) xs\n\
//!            let s = reduce (+) 0.0f32 ys\n\
//!            in s";
//! let args = [Value::i64(4), Value::Array(ArrayVal::from_f32s(vec![1.0, 2.0, 3.0, 4.0]))];
//! let compiled = Compiler::new().compile(src)?;
//! let (out, perf) = compiled.run_with_opts(Device::Gtx780, &args, RunOptions::default())?;
//! assert_eq!(out, vec![Value::f32(30.0)]);
//! assert!(perf.total_ms() > 0.0);
//!
//! // Each Section 6.1.1 ablation is an edit of the one compile
//! // configuration, the `Schedule`: here, fusion and tiling off.
//! let ablated = Schedule { fusion_pass: false, ..Schedule::default() }
//!     .with_default(ChoiceClass::Tile, false);
//! let (same, _) = Compiler::with_schedule(ablated)
//!     .compile(src)?
//!     .run_with_opts(Device::Gtx780, &args, RunOptions::default())?;
//! assert_eq!(same, out);
//! # Ok::<(), futhark::Error>(())
//! ```

pub use futhark_core::schedule::{
    ChoiceClass, LabelError, Schedule, ScheduleCursor, SimplifyToggles, SiteDecisions,
};
use futhark_core::{Body, Program, Value};
use futhark_gpu::codegen;
use futhark_gpu::exec::{self, DecodedPlan};
use futhark_gpu::plan::GpuPlan;
pub use futhark_gpu::DeviceProfile;
use futhark_trace::SpanTimer;
use std::fmt;

pub mod analyze;
pub mod prof;

pub use analyze::{AnalysisReport, Finding, KernelAnalysis};
pub use futhark_gpu::exec::{ExecError, LaunchRecord, PerfReport, TimelineEvent};
pub use futhark_gpu::sim::{
    Limiter, MemEvent, MemOp, MemStats, SimError, SiteStats, TimeBreakdown,
};
pub use futhark_gpu::{RunOptions, SimEngine};
pub use futhark_trace::{CompileReport, Counters, IrSize, Json, PassSpan};

/// The two simulated devices of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// NVIDIA GeForce GTX 780 Ti (simulated).
    Gtx780,
    /// AMD FirePro W8100 (simulated).
    W8100,
}

impl Device {
    /// The device profile.
    pub fn profile(self) -> DeviceProfile {
        match self {
            Device::Gtx780 => DeviceProfile::gtx780(),
            Device::W8100 => DeviceProfile::w8100(),
        }
    }
}

impl From<Device> for DeviceProfile {
    fn from(d: Device) -> DeviceProfile {
        d.profile()
    }
}

/// A pipeline error.
#[derive(Debug)]
pub enum Error {
    /// Parse/elaboration failure.
    Front(futhark_frontend::FrontError),
    /// Type or uniqueness error.
    Check(futhark_check::CheckError),
    /// Code generation failure.
    Codegen(codegen::CodegenError),
    /// A generated kernel the simulator rejects when decoding it (the
    /// last compile stage); the error names the kernel.
    Decode(SimError),
    /// Execution failure.
    Exec(ExecError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Front(e) => write!(f, "{e}"),
            Error::Check(e) => write!(f, "{e}"),
            Error::Codegen(e) => write!(f, "{e}"),
            Error::Decode(e) => write!(f, "decode error: {e}"),
            Error::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<futhark_frontend::FrontError> for Error {
    fn from(e: futhark_frontend::FrontError) -> Self {
        Error::Front(e)
    }
}

impl From<futhark_check::CheckError> for Error {
    fn from(e: futhark_check::CheckError) -> Self {
        Error::Check(e)
    }
}

impl From<codegen::CodegenError> for Error {
    fn from(e: codegen::CodegenError) -> Self {
        Error::Codegen(e)
    }
}

impl From<ExecError> for Error {
    fn from(e: ExecError) -> Self {
        Error::Exec(e)
    }
}

/// Statement count of a body, recursing into nested bodies (branches,
/// loop and lambda bodies).
fn body_statements(body: &Body) -> u64 {
    let mut n = body.stms.len() as u64;
    for stm in &body.stms {
        for inner in stm.exp.inner_bodies() {
            n += body_statements(inner);
        }
    }
    n
}

/// IR size of a whole program (statements only; kernels are counted at
/// the codegen boundary).
fn program_size(prog: &Program) -> IrSize {
    IrSize::stms(
        prog.functions
            .iter()
            .map(|f| body_statements(&f.body))
            .sum(),
    )
}

/// Runs one pipeline phase, recording a [`PassSpan`] when tracing is on.
/// `f` returns the phase result together with the IR size after the
/// phase (returning it from the closure keeps the borrow of the program
/// inside `f`).
fn spanned<R>(
    report: &mut Option<CompileReport>,
    name: &str,
    before: IrSize,
    f: impl FnOnce() -> (R, IrSize),
) -> R {
    match report {
        Some(rep) => {
            let mut timer = SpanTimer::start(name, before);
            let ((r, after), counters) = futhark_trace::collect(f);
            timer.counters = counters;
            rep.push(timer.finish(after));
            r
        }
        None => f().0,
    }
}

/// The compiler driver. Its [`Schedule`] is the only compile
/// configuration: every pass switch and every per-site decision of the
/// Section 6.1.1 ablations is an edit of it.
#[derive(Debug, Clone, Default)]
pub struct Compiler {
    sched: Schedule,
    trace: bool,
}

impl Compiler {
    /// A compiler with the default schedule (everything on).
    pub fn new() -> Self {
        Self::default()
    }

    /// A compiler driven by an explicit [`Schedule`].
    pub fn with_schedule(sched: Schedule) -> Self {
        Compiler {
            sched,
            trace: false,
        }
    }

    /// Enables pass-level tracing: compilation attaches a
    /// [`CompileReport`] (one [`PassSpan`] per phase, with wall-clock
    /// time, IR sizes, and rewrite counters) to the resulting
    /// [`Compiled`] program.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Compiles source text through the full pipeline, ending with the
    /// `decode` stage: every kernel is decoded for the simulator once,
    /// here, and every run of the result reuses it.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for syntax, type, uniqueness, or code
    /// generation failures, and for a kernel the simulator rejects.
    pub fn compile(&self, src: &str) -> Result<Compiled, Error> {
        let mut report = self.trace.then(CompileReport::new);
        let (mut prog, mut ns) = spanned(&mut report, "parse", IrSize::stms(0), || {
            let res = futhark_frontend::parse_program(src);
            let after = res
                .as_ref()
                .map(|(p, _)| program_size(p))
                .unwrap_or_default();
            (res, after)
        })?;
        let size = program_size(&prog);
        spanned(&mut report, "check", size, || {
            (futhark_check::check_program(&prog), size)
        })?;
        let sched = &self.sched;
        let mut cur = ScheduleCursor::new(sched.clone());
        // Provenance fill #1: give compiler-synthesised scaffolding from
        // elaboration a source line by inheritance, so the optimisation
        // passes have non-empty provenance to merge.
        futhark_core::prov::fill_program(&mut prog);
        // Inlining always runs (kernels cannot call functions).
        spanned(&mut report, "inline", program_size(&prog), || {
            futhark_opt::simplify::inline_functions(&mut prog, &mut ns);
            ((), program_size(&prog))
        });
        if sched.simplify_pass {
            spanned(&mut report, "simplify", program_size(&prog), || {
                futhark_opt::simplify::simplify_program(&mut prog, &mut ns, &sched.simplify);
                ((), program_size(&prog))
            });
        }
        if sched.fusion_pass {
            spanned(&mut report, "fusion", program_size(&prog), || {
                futhark_opt::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
                ((), program_size(&prog))
            });
        }
        spanned(&mut report, "flatten", program_size(&prog), || {
            futhark_opt::flatten::flatten_program(&mut prog, &mut ns, &mut cur);
            ((), program_size(&prog))
        });
        if sched.simplify_pass {
            spanned(&mut report, "simplify-post", program_size(&prog), || {
                futhark_opt::simplify::simplify_program(&mut prog, &mut ns, &sched.simplify);
                ((), program_size(&prog))
            });
        }
        // Provenance fill #2: statements introduced by the optimisation
        // passes inherit provenance before codegen stamps kernel tapes.
        futhark_core::prov::fill_program(&mut prog);
        let mut plan = spanned(&mut report, "codegen", program_size(&prog), || {
            let res = codegen::compile(&prog, &mut ns, &mut cur);
            let mut after = program_size(&prog);
            if let Ok(plan) = &res {
                after.kernels = plan.kernel_count() as u64;
            }
            (res, after)
        })?;
        let mut size = program_size(&prog);
        size.kernels = plan.kernel_count() as u64;
        if sched.memplan {
            spanned(&mut report, "memplan", size, || {
                futhark_gpu::plan_memory(&mut plan, &mut ns);
                ((), size)
            });
        }
        let decoded = spanned(&mut report, "decode", size, || (decode(&plan), size))?;
        Ok(Compiled {
            prog,
            plan,
            report,
            schedule: sched.clone(),
            choice_counts: cur.observed_counts(),
            decoded,
        })
    }
}

/// The `decode` stage: every launch and fold kernel of the plan, decoded
/// for the simulator. A rejection is a compile error naming the kernel.
fn decode(plan: &GpuPlan) -> Result<DecodedPlan, Error> {
    DecodedPlan::decode(plan).map_err(Error::Decode)
}

/// A fully compiled program, ready to run on a simulated device.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The flattened core program (used for host fallbacks and reference
    /// runs).
    pub prog: Program,
    /// The GPU plan.
    pub plan: GpuPlan,
    /// The pass-level trace, when compiled with
    /// [`Compiler::with_trace`].
    pub report: Option<CompileReport>,
    /// The schedule the pipeline answered its choice points from.
    pub schedule: Schedule,
    /// How many choice sites of each class the compilation visited,
    /// indexed by [`ChoiceClass::index`] — the autotuner's search space.
    pub choice_counts: [u32; ChoiceClass::COUNT],
    /// The plan's kernels, decoded by the `decode` stage; every run reads
    /// them and none decodes again.
    decoded: DecodedPlan,
}

impl Compiled {
    /// Runs the program on a simulated device: a [`Device`] or any custom
    /// [`DeviceProfile`] (a server's per-device capacity model). The
    /// [`RunOptions`] choose the host thread count, per call — never
    /// process-global state. Outputs and every counter of the
    /// [`PerfReport`] are bit-identical at every thread count, and every
    /// run fills [`PerfReport::per_site`].
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] for runtime faults.
    pub fn run_with_opts(
        &self,
        device: impl Into<DeviceProfile>,
        args: &[Value],
        opts: RunOptions,
    ) -> Result<(Vec<Value>, PerfReport), Error> {
        Ok(exec::run(
            &self.plan,
            &self.decoded,
            &self.prog,
            &device.into(),
            args,
            &opts,
        )?)
    }

    /// The same program with every kernel decoded, once, for the
    /// per-lane reference engine ([`DecodedPlan::reference`]), so that
    /// [`Compiled::run_with_opts`] runs it there. Only tests and the fuzz
    /// oracle call it, to check that outputs, faults and counters match.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`] for a kernel the reference rejects.
    pub fn into_reference(self) -> Result<Compiled, Error> {
        let decoded = DecodedPlan::reference(&self.plan).map_err(Error::Decode)?;
        Ok(Compiled { decoded, ..self })
    }

    /// The pass-level trace (present when compiled with
    /// [`Compiler::with_trace`]).
    pub fn report(&self) -> Option<&CompileReport> {
        self.report.as_ref()
    }
}

/// Serialises a [`Schedule`] as JSON. The canonical `label` string is the
/// authoritative encoding (collision-free, strict to parse); `describe`
/// rides along for human readers and is ignored on decode.
pub fn schedule_to_json(s: &Schedule) -> Json {
    Json::obj(vec![
        ("label", Json::Str(s.label())),
        ("describe", Json::Str(s.describe())),
    ])
}

/// Decodes a [`Schedule`] from JSON: either a bare label string or an
/// object with a `label` field.
///
/// # Errors
///
/// Returns a description of the malformed input.
pub fn schedule_from_json(j: &Json) -> Result<Schedule, String> {
    let label = if let Some(s) = j.as_str() {
        s
    } else {
        j.get("label").and_then(Json::as_str).ok_or_else(|| {
            "schedule JSON must be a label string or an object with a \"label\" string".to_string()
        })?
    };
    Schedule::parse_label(label).map_err(|e| e.to_string())
}

/// Convenience: run a source program on the reference interpreter.
///
/// # Errors
///
/// Returns an [`Error`] for frontend or interpretation failures.
pub fn interpret(src: &str, args: &[Value]) -> Result<Vec<Value>, Error> {
    let (prog, _) = futhark_frontend::parse_program(src)?;
    futhark_interp::Interpreter::new(&prog)
        .run_main(args)
        .map_err(|e| Error::Exec(ExecError::Interp(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark_core::{ArrayVal, Buffer, Value};

    fn run_both(src: &str, args: &[Value]) -> (Vec<Value>, PerfReport) {
        let compiled = Compiler::new().compile(src).expect("compiles");
        let (gpu_out, perf) = compiled
            .run_with_opts(Device::Gtx780, args, RunOptions::default())
            .unwrap_or_else(|e| panic!("gpu run failed: {e}\n{}", compiled.prog));
        let interp_out = interpret(src, args).expect("interprets");
        assert_eq!(gpu_out.len(), interp_out.len());
        for (a, b) in gpu_out.iter().zip(&interp_out) {
            assert!(
                a.approx_eq(b, 1e-4),
                "GPU {a} != interpreter {b}\nflattened:\n{}",
                compiled.prog
            );
        }
        (gpu_out, perf)
    }

    #[test]
    fn map_kernel_end_to_end() {
        let (_, perf) = run_both(
            "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
             let ys = map (\\x -> x * 2.0f32 + 1.0f32) xs\n\
             in ys",
            &[
                Value::i64(100),
                Value::Array(ArrayVal::from_f32s((0..100).map(|i| i as f32).collect())),
            ],
        );
        assert_eq!(perf.launches, 1);
    }

    #[test]
    fn fused_map_reduce_is_one_kernel_chain() {
        let (out, perf) = run_both(
            "fun main (n: i64) (xs: [n]f32): f32 =\n\
             let ys = map (\\x -> x * x) xs\n\
             let s = reduce (+) 0.0f32 ys\n\
             in s",
            &[
                Value::i64(1000),
                Value::Array(ArrayVal::from_f32s(vec![1.0; 1000])),
            ],
        );
        assert_eq!(out, vec![Value::f32(1000.0)]);
        // Fusion gives one redomap → one stage-1 launch.
        assert_eq!(perf.launches, 1, "{perf:?}");
    }

    #[test]
    fn nested_map_reduce_segmented() {
        let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
                   let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
                   in sums";
        let n = 64usize;
        let m = 32usize;
        let data: Vec<f32> = (0..n * m).map(|i| (i % 7) as f32).collect();
        let (out, perf) = run_both(
            src,
            &[
                Value::i64(n as i64),
                Value::i64(m as i64),
                Value::Array(ArrayVal::new(vec![n, m], Buffer::F32(data))),
            ],
        );
        let sums = out[0].as_array().unwrap();
        assert_eq!(sums.shape, vec![n]);
        // Coalescing: the segmented reduce reads the (transposed) matrix
        // with high efficiency.
        assert!(perf.stats.coalescing_efficiency() > 0.5, "{:?}", perf.stats);
        assert!(perf.transposes >= 1, "expected a coalescing transpose");
    }

    #[test]
    fn coalescing_off_is_slower() {
        let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
                   let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
                   in sums";
        let n = 256usize;
        let m = 64usize;
        let data: Vec<f32> = (0..n * m).map(|i| (i % 5) as f32).collect();
        let args = vec![
            Value::i64(n as i64),
            Value::i64(m as i64),
            Value::Array(ArrayVal::new(vec![n, m], Buffer::F32(data))),
        ];
        let on = Compiler::new().compile(src).unwrap();
        let off = Compiler::with_schedule(Schedule::default().with_coalescing(false))
            .compile(src)
            .unwrap();
        let (ro, po) = on
            .run_with_opts(Device::Gtx780, &args, RunOptions::default())
            .unwrap();
        let (rf, pf) = off
            .run_with_opts(Device::Gtx780, &args, RunOptions::default())
            .unwrap();
        for (a, b) in ro.iter().zip(&rf) {
            assert!(a.approx_eq(b, 1e-4));
        }
        assert!(
            pf.stats.global_transactions > po.stats.global_transactions * 4,
            "coalescing should cut transactions: on={} off={}",
            po.stats.global_transactions,
            pf.stats.global_transactions
        );
    }

    #[test]
    fn kmeans_counts_figure4c_runs_on_gpu() {
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
        let n = 10_000i64;
        let k = 8i64;
        let membership: Vec<i64> = (0..n).map(|i| (i * 7 + 3) % k).collect();
        let (out, perf) = run_both(
            src,
            &[
                Value::i64(n),
                Value::i64(k),
                Value::Array(ArrayVal::from_i64s(membership)),
            ],
        );
        let counts = out[0].as_array().unwrap();
        let total: i64 = (0..k as usize)
            .map(|i| match counts.data.get(i) {
                futhark_core::Scalar::I64(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(total, n);
        assert!(perf.launches >= 1);
    }

    #[test]
    fn host_loop_with_kernels() {
        // Iterated stencil-ish update: a host loop launching a map kernel
        // per iteration.
        let src = "fun main (n: i64) (iters: i64) (xs: [n]f32): [n]f32 =\n\
                   let out = loop (cur = xs) for t < iters do (\n\
                     let next = map (\\x -> x * 0.5f32 + 1.0f32) cur\n\
                     in next)\n\
                   in out";
        let (_, perf) = run_both(
            src,
            &[
                Value::i64(64),
                Value::i64(5),
                Value::Array(ArrayVal::from_f32s(vec![4.0; 64])),
            ],
        );
        assert_eq!(perf.launches, 5, "{perf:?}");
    }

    #[test]
    fn scatter_kernel() {
        let src =
            "fun main (k: i64) (n: i64) (dest: *[k]f32) (is: [n]i64) (vs: [n]f32): *[k]f32 =\n\
                   let r = scatter dest is vs\n\
                   in r";
        run_both(
            src,
            &[
                Value::i64(8),
                Value::i64(3),
                Value::Array(ArrayVal::from_f32s(vec![0.0; 8])),
                Value::Array(ArrayVal::from_i64s(vec![1, 7, 100])),
                Value::Array(ArrayVal::from_f32s(vec![10.0, 20.0, 30.0])),
            ],
        );
    }

    #[test]
    fn matrix_pipeline_section_2_2() {
        let src = "fun main (n: i64) (m: i64) (matrix: [n][m]f32): ([n][m]f32, [n]f32) =\n\
                   let (rows, sums) = map (\\(row: [m]f32) ->\n\
                     let r2 = map (\\x -> x + 1.0f32) row\n\
                     let s = reduce (+) 0.0f32 row\n\
                     in (r2, s)) matrix\n\
                   in (rows, sums)";
        let n = 16usize;
        let m = 8usize;
        run_both(
            src,
            &[
                Value::i64(n as i64),
                Value::i64(m as i64),
                Value::Array(ArrayVal::new(
                    vec![n, m],
                    Buffer::F32((0..n * m).map(|i| i as f32 * 0.25).collect()),
                )),
            ],
        );
    }

    #[test]
    fn in_place_update_kernels() {
        // Figure 7's legal example: per-row in-place updates in a map.
        let src = "fun main (n: i64) (m: i64) (as1: *[n][m]i64): [n][m]i64 =\n\
                   let bs = map (\\(a: [m]i64) -> a with [0] <- 2) as1\n\
                   in bs";
        run_both(
            src,
            &[
                Value::i64(8),
                Value::i64(4),
                Value::Array(ArrayVal::new(vec![8, 4], Buffer::I64((0..32).collect()))),
            ],
        );
    }

    /// A kernel that declares register 0 at i64 and then writes an f64
    /// into it: decode rejects the write.
    fn two_class_kernel(name: &str) -> futhark_gpu::kernel::Kernel {
        use futhark_core::{Scalar, ScalarType};
        use futhark_gpu::kernel::{KExp, KParam, KStm, Kernel};
        Kernel {
            name: name.into(),
            params: vec![KParam::Scalar(ScalarType::I64)],
            locals: vec![],
            regs: vec![ScalarType::I64],
            privs: vec![],
            prov_table: vec![],
            body: vec![
                KStm::Assign {
                    var: 0,
                    exp: KExp::i64(1),
                },
                KStm::Assign {
                    var: 0,
                    exp: KExp::Const(Scalar::F64(1.0)),
                },
            ],
        }
    }

    #[test]
    fn decode_stage_rejects_a_two_class_register_naming_the_kernel() {
        use futhark_gpu::plan::HBody;
        let expect_rejected = |plan: &GpuPlan, name: &str| match decode(plan) {
            Err(Error::Decode(e)) => {
                let msg = Error::Decode(e).to_string();
                assert!(
                    msg.contains(&format!("`{name}`")),
                    "names the kernel: {msg}"
                );
                assert!(msg.contains("register 0"), "says what is wrong: {msg}");
            }
            Err(other) => panic!("expected a decode error, got {other}"),
            Ok(_) => panic!("kernel `{name}` was accepted"),
        };
        // A launch kernel and a stage-2 fold kernel: each rejected even
        // though nothing runs it.
        let plan = |kernels, folds| GpuPlan {
            params: vec![],
            kernels,
            folds,
            body: HBody::default(),
            mem_planned: false,
        };
        expect_rejected(
            &plan(vec![two_class_kernel("bad_launch")], vec![]),
            "bad_launch",
        );
        expect_rejected(
            &plan(vec![], vec![two_class_kernel("bad_fold")]),
            "bad_fold",
        );
    }
}
