//! The GPU kernel IR: a small imperative per-thread language, the last
//! representation before (simulated) device code.
//!
//! A [`Kernel`] is a scalar program executed by every thread of a launch
//! grid. Threads are grouped into work-groups; each group shares *local
//! memory* (OpenCL terminology; CUDA calls it shared memory, Section 5's
//! footnotes 7 and 9) and can synchronise with [`KStm::Barrier`]. Each
//! thread additionally has *private* arrays (registers / spilled private
//! memory) for sequentialised inner SOACs.

use futhark_core::{BinOp, CmpOp, Prov, Scalar, ScalarType, UnOp};

/// A virtual register index within a kernel.
pub type Reg = u32;

/// A private (per-thread) array index within a kernel.
pub type PrivId = usize;

/// A local (per-group) memory buffer index within a kernel.
pub type LocalId = usize;

/// A scalar expression evaluated per thread.
#[derive(Debug, Clone, PartialEq)]
pub enum KExp {
    /// A constant.
    Const(Scalar),
    /// A virtual register.
    Var(Reg),
    /// The linear global thread id (`group_id * group_size + local_id`).
    GlobalId,
    /// The work-group id.
    GroupId,
    /// The intra-group (local) thread id.
    LocalId,
    /// The work-group size.
    GroupSize,
    /// The total number of threads in the launch.
    NumThreads,
    /// A scalar kernel argument.
    ScalarArg(usize),
    /// Binary operation.
    BinOp(BinOp, Box<KExp>, Box<KExp>),
    /// Unary operation.
    UnOp(UnOp, Box<KExp>),
    /// Comparison.
    Cmp(CmpOp, Box<KExp>, Box<KExp>),
    /// Conversion.
    Convert(ScalarType, Box<KExp>),
}

impl KExp {
    /// An `i64` constant.
    pub fn i64(k: i64) -> KExp {
        KExp::Const(Scalar::I64(k))
    }

    /// `self + other`, folding the `x + 0` identities so generated index
    /// arithmetic stays canonical (the tiling pattern matcher relies on
    /// `A[j]` lowering to a bare `Var(j)` index).
    #[allow(clippy::should_implement_trait)] // inherent, so call sites need no trait import
    pub fn add(self, other: KExp) -> KExp {
        if matches!(other, KExp::Const(Scalar::I64(0))) {
            return self;
        }
        if matches!(self, KExp::Const(Scalar::I64(0))) {
            return other;
        }
        if let (KExp::Const(Scalar::I64(a)), KExp::Const(Scalar::I64(b))) = (&self, &other) {
            return KExp::i64(a + b);
        }
        KExp::BinOp(BinOp::Add, Box::new(self), Box::new(other))
    }

    /// `self * other`, folding `x * 1` and `x * 0`.
    #[allow(clippy::should_implement_trait)] // inherent, so call sites need no trait import
    pub fn mul(self, other: KExp) -> KExp {
        if matches!(other, KExp::Const(Scalar::I64(1))) {
            return self;
        }
        if matches!(self, KExp::Const(Scalar::I64(1))) {
            return other;
        }
        if matches!(other, KExp::Const(Scalar::I64(0)))
            || matches!(self, KExp::Const(Scalar::I64(0)))
        {
            return KExp::i64(0);
        }
        if let (KExp::Const(Scalar::I64(a)), KExp::Const(Scalar::I64(b))) = (&self, &other) {
            return KExp::i64(a * b);
        }
        KExp::BinOp(BinOp::Mul, Box::new(self), Box::new(other))
    }

    /// `self / other`.
    #[allow(clippy::should_implement_trait)] // inherent, so call sites need no trait import
    pub fn div(self, other: KExp) -> KExp {
        KExp::BinOp(BinOp::Div, Box::new(self), Box::new(other))
    }

    /// `self % other`.
    #[allow(clippy::should_implement_trait)] // inherent, so call sites need no trait import
    pub fn rem(self, other: KExp) -> KExp {
        KExp::BinOp(BinOp::Rem, Box::new(self), Box::new(other))
    }

    /// Number of scalar operations in this expression (cost model).
    pub fn op_count(&self) -> u64 {
        match self {
            KExp::Const(_)
            | KExp::Var(_)
            | KExp::GlobalId
            | KExp::GroupId
            | KExp::LocalId
            | KExp::GroupSize
            | KExp::NumThreads
            | KExp::ScalarArg(_) => 0,
            KExp::BinOp(_, a, b) | KExp::Cmp(_, a, b) => 1 + a.op_count() + b.op_count(),
            KExp::UnOp(_, a) | KExp::Convert(_, a) => 1 + a.op_count(),
        }
    }
}

/// A per-thread statement.
#[derive(Debug, Clone, PartialEq)]
pub enum KStm {
    /// `var := exp`.
    Assign {
        /// Destination register.
        var: Reg,
        /// Value.
        exp: KExp,
    },
    /// `var := global[buf][index]` (index in elements).
    GlobalRead {
        /// Destination register.
        var: Reg,
        /// Buffer argument position.
        buf: usize,
        /// Element index.
        index: KExp,
    },
    /// `global[buf][index] := value`.
    GlobalWrite {
        /// Buffer argument position.
        buf: usize,
        /// Element index.
        index: KExp,
        /// Stored value.
        value: KExp,
    },
    /// `var := local[mem][index]`.
    LocalRead {
        /// Destination register.
        var: Reg,
        /// Local buffer.
        mem: LocalId,
        /// Element index.
        index: KExp,
    },
    /// `local[mem][index] := value`.
    LocalWrite {
        /// Local buffer.
        mem: LocalId,
        /// Element index.
        index: KExp,
        /// Stored value.
        value: KExp,
    },
    /// Allocate (or clear) a private array of `size` elements, of the
    /// element type [`Kernel::privs`] declares for it.
    PrivAlloc {
        /// Private array id.
        arr: PrivId,
        /// Element count.
        size: KExp,
    },
    /// `var := priv[arr][index]`.
    PrivRead {
        /// Destination register.
        var: Reg,
        /// Private array.
        arr: PrivId,
        /// Element index.
        index: KExp,
    },
    /// `priv[arr][index] := value`.
    PrivWrite {
        /// Private array.
        arr: PrivId,
        /// Element index.
        index: KExp,
        /// Stored value.
        value: KExp,
    },
    /// Copy one private array into another (same length).
    PrivCopy {
        /// Destination private array.
        dst: PrivId,
        /// Source private array.
        src: PrivId,
        /// Element count.
        len: KExp,
    },
    /// `for var in 0..bound { body }` (bound evaluated once per thread).
    For {
        /// Loop counter register (i64).
        var: Reg,
        /// Trip count.
        bound: KExp,
        /// Body.
        body: Vec<KStm>,
    },
    /// `while cond { body }` (condition re-evaluated each iteration).
    While {
        /// Condition (bool).
        cond: KExp,
        /// Body.
        body: Vec<KStm>,
    },
    /// `if cond { then_s } else { else_s }` (SIMT divergence).
    If {
        /// Condition (bool).
        cond: KExp,
        /// Taken when true.
        then_s: Vec<KStm>,
        /// Taken when false.
        else_s: Vec<KStm>,
    },
    /// Work-group barrier. All threads of the group must reach it.
    Barrier,
    /// Provenance marker: `body` descends from source site `prov` (an index
    /// into [`Kernel::prov_table`]). Semantically transparent; nested
    /// markers refine outer ones (the innermost marker wins).
    At {
        /// Index into the kernel's provenance table.
        prov: u32,
        /// The attributed statements.
        body: Vec<KStm>,
    },
}

/// Kernel parameter kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum KParam {
    /// A global-memory buffer of the given element type.
    Buffer(ScalarType),
    /// A scalar argument.
    Scalar(ScalarType),
}

/// A compiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Diagnostic name.
    pub name: String,
    /// Parameters in order: buffers and scalars share one argument list;
    /// [`KExp::ScalarArg`] and buffer indices refer into it.
    pub params: Vec<KParam>,
    /// Local (per-group) buffers: element type and size (an expression over
    /// scalar arguments and `GroupSize`).
    pub locals: Vec<(ScalarType, KExp)>,
    /// The scalar type of each virtual register, indexed by [`Reg`]:
    /// codegen declares it where it allocates the register, and decode
    /// checks every write against it.
    pub regs: Vec<ScalarType>,
    /// The element type of each private array, indexed by [`PrivId`].
    pub privs: Vec<ScalarType>,
    /// The thread body.
    pub body: Vec<KStm>,
    /// Source provenance sets referenced by [`KStm::At`] markers.
    pub prov_table: Vec<Prov>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_count_counts_tree_nodes() {
        let e = KExp::GlobalId.mul(KExp::i64(4)).add(KExp::i64(1));
        assert_eq!(e.op_count(), 2);
    }
}
