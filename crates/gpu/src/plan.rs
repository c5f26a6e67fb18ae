//! The GPU execution plan: host-side IR plus compiled kernels.
//!
//! A [`GpuPlan`] is what `codegen` produces from a flattened core program:
//! host statements (scalar code, device builtins, control flow) with
//! [`HStm::Launch`] nodes for the extracted kernels. The executor in
//! `exec` walks the plan against a [`crate::DeviceProfile`], keeping arrays
//! in simulated device memory and accumulating a performance report.

use crate::kernel::Kernel;
use futhark_core::{Name, Param, PatElem, Scalar, ScalarType, Stm, SubExp};

/// How a launch computes its thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchKind {
    /// One thread per element of the (multi-dimensional) grid: the product
    /// of the widths.
    Grid,
    /// A streaming fold: the executor picks a thread count `T` that
    /// saturates the device, and each thread processes a contiguous chunk
    /// of the `total` elements (the paper's `stream_red`: "the optimal
    /// chunk size is the maximal one that still fully occupies hardware").
    Stream {
        /// Total number of elements to partition.
        total: SubExp,
    },
}

/// One kernel argument as seen by the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgSpec {
    /// A host scalar variable.
    ScalarVar(Name),
    /// A constant.
    ScalarConst(Scalar),
    /// The launch's total thread count (streams need it for chunking). In
    /// a [`HStm::Combine`], the stage-1 launch's: the number of partials.
    NumThreadsArg,
    /// An input array, materialised in the given layout (`perm` maps
    /// physical dimension position → logical dimension; empty = row-major).
    ArrayIn {
        /// The host array.
        name: Name,
        /// Requested layout.
        perm: Vec<usize>,
    },
    /// Output buffer `index` of this launch.
    Out(usize),
}

/// When an `init_from` output may *steal* the source buffer instead of
/// copying it — the memory planner's in-place story (Section 4 of the
/// paper: uniqueness types exist so consumption can update, not copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealKind {
    /// The source's alias class is dead after this statement: always
    /// steal (subject to the executor's runtime layout/size guards).
    Always,
    /// The source is a loop-carried merge parameter whose only body use
    /// is this statement: steal from iteration 2 on, once the incoming
    /// buffer was allocated inside the loop (stamp ≥ the loop-entry
    /// watermark) — the double-buffer rotation.
    LoopRotate,
}

/// An output buffer of a launch.
#[derive(Debug, Clone, PartialEq)]
pub struct OutSpec {
    /// Element type.
    pub elem: ScalarType,
    /// Logical shape (host-evaluable).
    pub shape: Vec<SubExp>,
    /// Physical layout of the buffer the kernel writes (see
    /// [`ArgSpec::ArrayIn`]); recorded on the resulting device array so
    /// later consumers can use or undo it lazily — the paper's "symbolic
    /// composition of affine transformations".
    pub perm: Vec<usize>,
    /// If set, the output buffer starts as a copy of this array (used by
    /// `scatter`, whose kernel only writes the scattered positions).
    pub init_from: Option<Name>,
    /// Planner verdict: `init_from` may take the source's buffer in place
    /// of copying (guarded again at runtime; `None` = always copy).
    pub steal: Option<StealKind>,
    /// Planner-hoisted destination: write into this pre-allocated host
    /// binding (an [`HStm::Alloc`] outside the loop) instead of
    /// allocating a fresh buffer per iteration.
    pub write_into: Option<Name>,
}

/// A kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpec {
    /// Index into [`GpuPlan::kernels`].
    pub kernel: usize,
    /// Grid widths (outermost first); the thread count is their product
    /// for [`LaunchKind::Grid`].
    pub widths: Vec<SubExp>,
    /// Thread-count policy.
    pub kind: LaunchKind,
    /// Arguments, aligned with the kernel's parameter list.
    pub args: Vec<ArgSpec>,
    /// Outputs, aligned with the statement pattern.
    pub outs: Vec<OutSpec>,
}

/// A host-level statement of the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum HStm {
    /// Evaluated directly by the executor: scalar operations on the host,
    /// array builtins (`iota`, `replicate`, `rearrange`, …) as device
    /// operations with modelled cost, or — for anything the backend cannot
    /// kernelise — an interpreter fallback costed as sequential device
    /// code.
    Direct(Stm),
    /// A kernel launch.
    Launch {
        /// Bound pattern.
        pat: Vec<PatElem>,
        /// The launch.
        spec: LaunchSpec,
    },
    /// The second stage of a two-stage reduction / `stream_red`: a
    /// one-thread fold kernel combines the stage-1 launch's per-thread
    /// partials with the associative operator, left to right from the
    /// initial accumulators (`acc = init; for i < t: acc = red(acc,
    /// partials[i])`, the interpreter's order), and leaves the result in
    /// row 0 of the partials, which are dead afterwards. The executor runs
    /// it decoded with the rest of the plan, so on the same engine as the
    /// stage-1 launch, and charges it as one `combine` device op:
    /// the fold kernel adds no launch, no per-kernel entry, and nothing to
    /// [`GpuPlan::kernel_count`].
    Combine {
        /// Bound pattern (the final accumulator values).
        pat: Vec<PatElem>,
        /// Partials: one array per accumulator, outer size = thread count.
        partials: Vec<Name>,
        /// The fold kernel, named after its stage-1 kernel.
        kernel: Kernel,
        /// Its arguments, aligned with the kernel's parameter list.
        args: Vec<ArgSpec>,
    },
    /// A sequential host loop containing device work.
    Loop {
        /// Bound pattern.
        pat: Vec<PatElem>,
        /// Merge parameters and initial values.
        params: Vec<(Param, SubExp)>,
        /// Loop form: `Some` body = while-condition, `None` = for.
        while_cond: Option<HBody>,
        /// For-loop variable and bound (unused for while loops).
        for_var: Option<(Name, SubExp)>,
        /// The body.
        body: HBody,
    },
    /// Host-side branch.
    If {
        /// Bound pattern.
        pat: Vec<PatElem>,
        /// Condition (a host scalar).
        cond: SubExp,
        /// Then branch.
        then_b: HBody,
        /// Else branch.
        else_b: HBody,
    },
    /// Planner-inserted: free the device buffers of these names (a whole
    /// alias class — the executor dedups by buffer and skips names that
    /// are scalars or already dead, so the statement is idempotent).
    Free {
        /// The names whose buffers are dead past this point.
        names: Vec<Name>,
    },
    /// Planner-inserted: pre-allocate a zeroed device buffer (the hoisted
    /// destination of a loop-invariant launch output; see
    /// [`OutSpec::write_into`]).
    Alloc {
        /// Host binding for the buffer.
        name: Name,
        /// Element type.
        elem: ScalarType,
        /// Shape (host-evaluable outside the loop).
        shape: Vec<SubExp>,
    },
}

/// A sequence of host statements with results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HBody {
    /// The statements.
    pub stms: Vec<HStm>,
    /// Result operands.
    pub result: Vec<SubExp>,
}

/// A compiled GPU program.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPlan {
    /// Entry parameters (from `main`).
    pub params: Vec<Param>,
    /// Compiled kernels.
    pub kernels: Vec<Kernel>,
    /// The host program.
    pub body: HBody,
    /// Whether the memory planner ran (the executor only trusts
    /// planner-dependent paths — steals, rotation, hoisted writes — on a
    /// planned program).
    pub mem_planned: bool,
}

impl GpuPlan {
    /// Number of distinct kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Total number of launch sites (static).
    pub fn launch_sites(&self) -> usize {
        fn count(b: &HBody) -> usize {
            b.stms
                .iter()
                .map(|s| match s {
                    HStm::Launch { .. } => 1,
                    HStm::Loop {
                        body, while_cond, ..
                    } => count(body) + while_cond.as_ref().map(count).unwrap_or(0),
                    HStm::If { then_b, else_b, .. } => count(then_b) + count(else_b),
                    _ => 0,
                })
                .sum()
        }
        count(&self.body)
    }
}
