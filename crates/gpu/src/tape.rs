//! Pre-decoded kernel execution: flat opcode tapes, one register file of
//! bit columns, and deterministic parallel work-group execution.
//!
//! The tree-walking simulator paid for every scalar operation twice: once
//! chasing `Box`ed [`KExp`] nodes, and once boxing/unboxing [`Scalar`]
//! enum values in `Vec<Scalar>` register files. [`DecodedKernel::decode`]
//! removes both costs ahead of time:
//!
//! - every expression becomes a flat `Tape` of register-form `WInstr`s
//!   over register-file columns — no recursion, no allocation per lane;
//! - every virtual register gets a *statically inferred* scalar class,
//!   which decode checks every use against, and a column of raw `u64`
//!   bits in one structure-of-arrays register file (`regs[reg * lanes +
//!   lane]`), as on a GPU, whose registers are untyped lane slots that
//!   each instruction reads at its own type.
//!
//! Scalar *semantics* are unchanged: integer arithmetic wraps, `/` and `%`
//! are floored ([`futhark_interp::scalar::floor_div_i64`] and friends), and
//! the rare ops with delicate float behaviour (`UnOp`, `Convert`) reuse the
//! interpreter's own helpers on reconstructed [`Scalar`]s so the simulator
//! cannot drift from the reference semantics.
//!
//! # Parallel work-group execution and the launch memory model
//!
//! Work-groups of one launch are independent by construction: this module
//! *defines* a launch as every group reading the device memory snapshot
//! taken at launch time plus its **own** writes (a per-group write log
//! overlays the snapshot), with the logs applied to device memory in
//! ascending group order once all groups finish. Sequential and parallel
//! execution both implement exactly this definition, so they are
//! bit-identical — in output values *and* in every [`KernelStats`] counter
//! — no matter how groups are scheduled across host threads.
//!
//! A group's log is one overlay per buffer it writes: a dense window of
//! values indexed by element offset, with a dirty flag per slot, grown as
//! writes arrive. Only when a write would stretch the window's hull past
//! `DENSE_RATIO` slots per written element (and past `DENSE_MIN_SPAN`
//! slots) does it turn into a map, so scatters and far-strided writes stay
//! small while map-style writes cost one indexed store each. Commit walks
//! the dirty slots.
//!
//! Data-race freedom: worker threads share only immutable state (the
//! decoded kernel, the launch arguments, and the `&DeviceMemory` snapshot);
//! each group accumulates its writes and stats privately. Conflicting
//! writes to the same element from *different* groups are resolved
//! deterministically by the ordered log application (highest group id
//! wins, matching what sequential group-at-a-time execution produced);
//! within a group, later lanes/statements win, as on real hardware's
//! in-order warp retirement. The only behaviour this model cannot express
//! is a group *reading* another group's write from the same launch — that
//! is a data race on a real GPU (no inter-group synchronisation exists
//! short of kernel exit), the code generator never emits it, and under
//! this model such a read deterministically sees the pre-launch value.
//!
//! Errors are deterministic too: if any group faults, the error of the
//! lowest-numbered faulting group is reported (what sequential execution
//! would have hit first), after applying the write logs of the groups
//! before it.
//!
//! # The warp engine and its reference
//!
//! How a kernel was decoded, not a run option, picks its engine. The
//! warp engine ([`DecodedKernel::decode`], the only decode production
//! calls) runs each statement a column at a time: one dispatch, then
//! dense loops over the group's lanes. A group's register file holds the
//! kernel's registers and, above them, the temporaries of its tapes.
//! Register tapes run instruction by instruction over its columns split
//! into distinct slices, so their loops vectorize; an instruction names a
//! register's column directly, so reading a register costs no
//! instruction. Under a full mask an assignment's last instruction writes
//! its register in place; under a partial one the tape's result is stored
//! into the register's active lanes. A memory statement converts its
//! index column once, scans every active lane for a fault in one
//! branch-free pass, and only if that scan or a tape reports a fault walks
//! its lanes in ascending order to pick the error the per-lane engine
//! would report. Fault-free, it gathers the bits of the launch snapshot's
//! elements straight into its register's column, or writes its whole
//! column into the group's window. Reallocating a lane's private array
//! at the length it has zeroes it in place, and copying into an array of
//! the copied length overwrites it in place. The per-lane engine ([`DecodedKernel::reference`]) runs each statement
//! lane by lane over postfix tapes and the same register file, allocating
//! every private array afresh; it is the reference the tests and the fuzz
//! oracle hold the warp engine to. Both engines count global-memory
//! transactions through one coalescer over the statement's index column,
//! which takes a warp's segments as a shift of its indices (`Segments`)
//! and counts a full warp's in one branch-free pass.
//!
//! Every count goes once, to the bucket of the current statement's source
//! site ([`SiteStats`]); each decoded statement carries its site, so
//! provenance markers cost nothing at run time. A launch's
//! [`KernelStats`] is the sum of its buckets plus `threads`, so the site
//! counters add up to the aggregate by construction.

// Lane loops index several parallel per-lane arrays (mask, indices,
// registers) by the same lane id; iterator rewrites obscure that.
#![allow(clippy::needless_range_loop)]

use crate::device::DeviceProfile;
use crate::kernel::{KExp, KParam, KStm, Kernel};
use crate::sim::{Arg, BufId, DeviceMemory, KernelStats, SimError, SiteStats};
use futhark_core::{BinOp, Buffer, CmpOp, Prov, Scalar, ScalarType, UnOp};
use futhark_interp::scalar::{
    eval_binop, eval_convert, eval_unop, floor_div_i32, floor_div_i64, floor_mod_i32, floor_mod_i64,
};
use std::collections::HashMap;

type SResult<T> = Result<T, SimError>;

// ---------------------------------------------------------------------------
// Bit encoding
// ---------------------------------------------------------------------------
//
// All runtime values travel as raw `u64` bit patterns; the statically known
// class says how to interpret them. Encoding: i64 as-is; i32 zero-extended
// from its 32-bit two's-complement pattern; floats via `to_bits` (f32 in the
// low 32 bits); bool as 0/1. Round-tripping is exact, including NaN
// payloads. Every instruction, gather and argument produces bits in
// exactly this form, so registers hold them as they come, and nothing
// re-normalises them on the way in or out.

#[inline]
fn enc(s: Scalar) -> u64 {
    match s {
        Scalar::Bool(b) => b as u64,
        Scalar::I32(v) => v as u32 as u64,
        Scalar::I64(v) => v as u64,
        Scalar::F32(v) => v.to_bits() as u64,
        Scalar::F64(v) => v.to_bits(),
    }
}

#[inline]
fn dec(t: ScalarType, bits: u64) -> Scalar {
    match t {
        ScalarType::Bool => Scalar::Bool(bits != 0),
        ScalarType::I32 => Scalar::I32(bits as u32 as i32),
        ScalarType::I64 => Scalar::I64(bits as i64),
        ScalarType::F32 => Scalar::F32(f32::from_bits(bits as u32)),
        ScalarType::F64 => Scalar::F64(f64::from_bits(bits)),
    }
}

#[inline]
fn buf_get_bits(b: &Buffer, i: usize) -> u64 {
    match b {
        Buffer::Bool(v) => v[i] as u64,
        Buffer::I32(v) => v[i] as u32 as u64,
        Buffer::I64(v) => v[i] as u64,
        Buffer::F32(v) => v[i].to_bits() as u64,
        Buffer::F64(v) => v[i].to_bits(),
    }
}

#[inline]
fn buf_set_bits(b: &mut Buffer, i: usize, bits: u64) {
    match b {
        Buffer::Bool(v) => v[i] = bits != 0,
        Buffer::I32(v) => v[i] = bits as u32 as i32,
        Buffer::I64(v) => v[i] = bits as i64,
        Buffer::F32(v) => v[i] = f32::from_bits(bits as u32),
        Buffer::F64(v) => v[i] = f64::from_bits(bits),
    }
}

/// Interprets index bits of the given class as an `i64` element index.
#[inline]
fn index_i64(t: ScalarType, bits: u64) -> SResult<i64> {
    match t {
        ScalarType::I64 => Ok(bits as i64),
        ScalarType::I32 => Ok(bits as u32 as i32 as i64),
        _ => Err(SimError::Scalar("non-integer index".into())),
    }
}

// ---------------------------------------------------------------------------
// The opcode tape
// ---------------------------------------------------------------------------

/// One postfix opcode. Operand classes are baked in at decode time, so
/// execution never inspects a value tag.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EOp {
    /// Push pre-encoded constant bits.
    Const(u64),
    /// Push a register (its column of the register file).
    Load(u32),
    /// Push the linear global thread id (i64).
    GlobalId,
    /// Push the work-group id (i64).
    GroupId,
    /// Push the intra-group thread id (i64).
    LocalId,
    /// Push the work-group size (i64).
    GroupSize,
    /// Push the launch thread count (i64).
    NumThreads,
    /// Push a pre-encoded scalar launch argument.
    ScalarArg(u32),
    /// Apply a binary op to the top two stack slots (operand class baked).
    Bin(BinOp, ScalarType),
    /// Apply a comparison (pushes a bool).
    Cmp(CmpOp, ScalarType),
    /// Apply a unary op.
    Un(UnOp, ScalarType),
    /// Convert from one class to another.
    Conv(ScalarType, ScalarType),
}

/// A flat expression. `cost` is the original tree's [`KExp::op_count`]
/// so warp-issue accounting is unchanged; `class` is the statically known
/// class of the result bits.
///
/// A tape owns no instructions: it is the range `start..start + len` of
/// its kernel's one instruction array, in whichever form the kernel was
/// decoded to ([`Instrs`]). The decoder always builds a tape's postfix
/// ops first; [`reg_compile`] turns them into the register form, which
/// names register-file columns explicitly and emits nothing for a
/// register read. The warp engine executes the register form one
/// *instruction* at a time across all lanes (each column holds `lanes`
/// bit-slots); the reference engine evaluates the postfix form one
/// *lane* at a time on a bit stack, and the result is the single
/// remaining slot.
#[derive(Debug, Clone, Copy)]
struct Tape {
    /// First instruction in the kernel's array.
    start: u32,
    /// Instructions in the kernel's array.
    len: u32,
    /// Column holding the tape's result in the register form: the
    /// register's own when the tape only reads one, else a temporary; 0
    /// in the postfix form.
    result: u32,
    cost: u32,
    class: ScalarType,
}

impl Tape {
    /// The tape's instructions in its kernel's array.
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }

    /// The warp-issue cost, widened so that two tapes' costs add without
    /// overflow.
    #[inline]
    fn cost(&self) -> u64 {
        u64::from(self.cost)
    }
}

/// One register-form instruction: the [`EOp`] payload plus explicit
/// register-file columns assigned by [`reg_compile`]. Columns hold the
/// same raw `u64` bit patterns as the postfix stack did; a decoded
/// destination is always a temporary, and only an assignment under a full
/// mask points its tape's last instruction at a register when it runs
/// ([`GroupRun::weval_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum WInstr {
    Const {
        dst: u32,
        bits: u64,
    },
    GlobalId {
        dst: u32,
    },
    GroupId {
        dst: u32,
    },
    LocalId {
        dst: u32,
    },
    GroupSize {
        dst: u32,
    },
    NumThreads {
        dst: u32,
    },
    ScalarArg {
        dst: u32,
        arg: u32,
    },
    Bin {
        op: BinOp,
        t: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    Cmp {
        op: CmpOp,
        t: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        t: ScalarType,
        dst: u32,
        a: u32,
    },
    Conv {
        from: ScalarType,
        to: ScalarType,
        dst: u32,
        a: u32,
    },
}

impl WInstr {
    /// The same instruction, writing column `to`.
    fn with_dst(mut self, to: u32) -> WInstr {
        match &mut self {
            WInstr::Const { dst, .. }
            | WInstr::GlobalId { dst }
            | WInstr::GroupId { dst }
            | WInstr::LocalId { dst }
            | WInstr::GroupSize { dst }
            | WInstr::NumThreads { dst }
            | WInstr::ScalarArg { dst, .. }
            | WInstr::Bin { dst, .. }
            | WInstr::Cmp { dst, .. }
            | WInstr::Un { dst, .. }
            | WInstr::Conv { dst, .. } => *dst = to,
        }
        self
    }
}

/// Deterministic linear-scan allocation of a postfix tape onto the
/// register file, whose first `base` columns are the kernel's registers.
/// A register read pushes the register's own column and emits nothing;
/// every other op emits one instruction into a temporary, a column from
/// `base` up. A stack of columns mirrors the evaluation stack, and a LIFO
/// free list recycles the temporaries an operator consumes, so a binary
/// op's destination reuses its left operand's temporary (safe: every lane
/// reads both operands before writing the destination). A register's
/// column never enters the free list, so no instruction writes a
/// register. Same tape, same assignment — always; nothing here depends
/// on runtime state, which is what keeps the counters and the profgate
/// baseline bit-for-bit.
///
/// The register form is appended to `out`, and the result is `(columns,
/// result column)`: the columns the tape needs, `base` plus its
/// temporaries, and the one holding its result.
///
/// A structurally invalid tape — an operator with too few operands on the
/// stack, an empty tape, or leftover operands — is reported as an error
/// string (the caller wraps it in [`SimError::Malformed`] with the kernel
/// name attached): such tapes cannot come out of the decoder, but a
/// hand-constructed artifact must not panic a long-lived process.
fn reg_compile(ops: &[EOp], base: u32, out: &mut Vec<WInstr>) -> Result<(u32, u32), String> {
    struct Alloc {
        base: u32,
        free: Vec<u32>,
        next: u32,
    }
    impl Alloc {
        fn get(&mut self) -> u32 {
            self.free.pop().unwrap_or_else(|| {
                let r = self.next;
                self.next += 1;
                r
            })
        }

        /// Returns a consumed operand's column to the free list if it is
        /// a temporary.
        fn release(&mut self, c: u32) {
            if c >= self.base {
                self.free.push(c);
            }
        }
    }
    let mut alloc = Alloc {
        base,
        free: Vec::new(),
        next: base,
    };
    let mut stack: Vec<u32> = Vec::new();
    for (at, op) in ops.iter().enumerate() {
        let pop = |stack: &mut Vec<u32>| {
            stack
                .pop()
                .ok_or_else(|| format!("expression tape underflow at op {at}"))
        };
        match *op {
            EOp::Const(bits) => {
                let dst = alloc.get();
                out.push(WInstr::Const { dst, bits });
                stack.push(dst);
            }
            EOp::Load(reg) => stack.push(reg),
            EOp::GlobalId => {
                let dst = alloc.get();
                out.push(WInstr::GlobalId { dst });
                stack.push(dst);
            }
            EOp::GroupId => {
                let dst = alloc.get();
                out.push(WInstr::GroupId { dst });
                stack.push(dst);
            }
            EOp::LocalId => {
                let dst = alloc.get();
                out.push(WInstr::LocalId { dst });
                stack.push(dst);
            }
            EOp::GroupSize => {
                let dst = alloc.get();
                out.push(WInstr::GroupSize { dst });
                stack.push(dst);
            }
            EOp::NumThreads => {
                let dst = alloc.get();
                out.push(WInstr::NumThreads { dst });
                stack.push(dst);
            }
            EOp::ScalarArg(arg) => {
                let dst = alloc.get();
                out.push(WInstr::ScalarArg { dst, arg });
                stack.push(dst);
            }
            EOp::Bin(op, t) => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                alloc.release(b);
                alloc.release(a);
                let dst = alloc.get();
                out.push(WInstr::Bin { op, t, dst, a, b });
                stack.push(dst);
            }
            EOp::Cmp(op, t) => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                alloc.release(b);
                alloc.release(a);
                let dst = alloc.get();
                out.push(WInstr::Cmp { op, t, dst, a, b });
                stack.push(dst);
            }
            EOp::Un(op, t) => {
                let a = pop(&mut stack)?;
                alloc.release(a);
                let dst = alloc.get();
                out.push(WInstr::Un { op, t, dst, a });
                stack.push(dst);
            }
            EOp::Conv(from, to) => {
                let a = pop(&mut stack)?;
                alloc.release(a);
                let dst = alloc.get();
                out.push(WInstr::Conv { from, to, dst, a });
                stack.push(dst);
            }
        }
    }
    let result = stack.pop().ok_or("empty expression tape")?;
    if !stack.is_empty() {
        return Err(format!(
            "unbalanced expression tape: {} leftover operands",
            stack.len()
        ));
    }
    Ok((alloc.next, result))
}

/// A decoded statement: what it does, and the source site its counters
/// are charged to. The site is an index into the kernel's
/// provenance table, that of the innermost [`KStm::At`] marker around the
/// statement, or the unattributed bucket just past the table for a
/// statement outside every marker. Decode folds the markers into this
/// field, so no marker is a statement of its own.
#[derive(Debug, Clone)]
struct DStm {
    site: u32,
    kind: DKind,
}

/// What a decoded statement does: the shapes of [`KStm`] other than its
/// provenance marker, with expressions as tapes. A destination register
/// is its column of the register file. Every nested body is a boxed slice
/// of exactly its statement count.
#[derive(Debug, Clone)]
enum DKind {
    Assign {
        reg: u32,
        exp: Tape,
    },
    GlobalRead {
        reg: u32,
        buf: usize,
        index: Tape,
    },
    GlobalWrite {
        buf: usize,
        index: Tape,
        value: Tape,
    },
    LocalRead {
        reg: u32,
        mem: usize,
        index: Tape,
    },
    LocalWrite {
        mem: usize,
        index: Tape,
        value: Tape,
    },
    PrivAlloc {
        arr: usize,
        size: Tape,
    },
    PrivRead {
        reg: u32,
        arr: usize,
        index: Tape,
    },
    PrivWrite {
        arr: usize,
        index: Tape,
        value: Tape,
    },
    PrivCopy {
        dst: usize,
        src: usize,
        len: Tape,
    },
    For {
        /// Register of the (i64) loop counter.
        reg: u32,
        bound: Tape,
        body: Box<[DStm]>,
    },
    While {
        cond: Tape,
        body: Box<[DStm]>,
    },
    If {
        cond: Tape,
        then_s: Box<[DStm]>,
        else_s: Box<[DStm]>,
    },
    Barrier,
}

/// Every tape's instructions of one kernel, back to back, in the one
/// form that picks the kernel's engine.
#[derive(Debug, Clone)]
enum Instrs {
    /// Register form, for the warp engine ([`DecodedKernel::decode`]).
    Register(Box<[WInstr]>),
    /// Postfix form, for the reference ([`DecodedKernel::reference`]).
    Postfix(Box<[EOp]>),
}

/// A kernel pre-decoded for execution: register classes inferred and
/// checked, expressions flattened to tapes. Decoded kernels are
/// immutable once built, so one can be shared by any number of
/// concurrent launches.
///
/// The instructions of every tape live in one array per kernel, in the
/// register form or, decoded for the reference, in the postfix form;
/// each tape in `body` is a range of it.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    /// Diagnostic name (same as the source kernel's).
    pub name: String,
    params: Vec<KParam>,
    /// Local buffer element types and (uniform) size expressions, kept in
    /// tree form: they are evaluated once per launch, not per lane.
    locals: Vec<(ScalarType, KExp)>,
    /// Columns of a group's register file: the kernel's registers, then
    /// the temporaries of its deepest register-form tape.
    columns: u32,
    /// Element class of each private array.
    priv_class: Vec<ScalarType>,
    body: Box<[DStm]>,
    instrs: Instrs,
    /// Per-site counter buckets of a launch: one per entry of
    /// the kernel's [`Kernel::prov_table`] (the sites its statements
    /// name), plus the implicit "unattributed" bucket last.
    n_sites: usize,
    /// The provenance-union key of all of the kernel's sites: the source
    /// site a launch's memory events are attributed to.
    pub(crate) site: String,
}

// ---------------------------------------------------------------------------
// Decode: register class inference + tape compilation
// ---------------------------------------------------------------------------

struct Decoder<'k> {
    kernel: &'k Kernel,
    /// Inferred class per register (`None` = never written; defaults to
    /// i64, matching the old simulator's `Scalar::I64(0)` register init).
    regs: Vec<Option<ScalarType>>,
    privs: Vec<Option<ScalarType>>,
    changed: bool,
}

impl<'k> Decoder<'k> {
    fn scalar_err(msg: impl Into<String>) -> SimError {
        SimError::Scalar(msg.into())
    }

    fn param_scalar(&self, i: usize) -> SResult<ScalarType> {
        match self.kernel.params.get(i) {
            Some(KParam::Scalar(t)) => Ok(*t),
            _ => Err(Self::scalar_err(format!("argument {i} is not a scalar"))),
        }
    }

    fn param_buffer(&self, i: usize) -> SResult<ScalarType> {
        match self.kernel.params.get(i) {
            Some(KParam::Buffer(t)) => Ok(*t),
            _ => Err(Self::scalar_err(format!("argument {i} is not a buffer"))),
        }
    }

    /// The class of an expression, if enough register classes are known.
    fn exp_class(&self, e: &KExp) -> SResult<Option<ScalarType>> {
        Ok(match e {
            KExp::Const(s) => Some(s.scalar_type()),
            KExp::Var(r) => self.regs[*r as usize],
            KExp::GlobalId | KExp::GroupId | KExp::LocalId | KExp::GroupSize | KExp::NumThreads => {
                Some(ScalarType::I64)
            }
            KExp::ScalarArg(i) => Some(self.param_scalar(*i)?),
            KExp::BinOp(_, a, b) => match self.exp_class(a)? {
                Some(t) => Some(t),
                None => self.exp_class(b)?,
            },
            KExp::Cmp(..) => Some(ScalarType::Bool),
            KExp::UnOp(_, a) => self.exp_class(a)?,
            KExp::Convert(t, _) => Some(*t),
        })
    }

    fn set_reg(&mut self, r: u32, t: ScalarType) -> SResult<()> {
        match self.regs[r as usize] {
            None => {
                self.regs[r as usize] = Some(t);
                self.changed = true;
                Ok(())
            }
            Some(old) if old == t => Ok(()),
            Some(old) => Err(Self::scalar_err(format!(
                "register {r} used at both {old:?} and {t:?}"
            ))),
        }
    }

    fn set_priv(&mut self, p: usize, t: ScalarType) -> SResult<()> {
        match self.privs[p] {
            None => {
                self.privs[p] = Some(t);
                self.changed = true;
                Ok(())
            }
            Some(old) if old == t => Ok(()),
            Some(old) => Err(Self::scalar_err(format!(
                "private array {p} used at both {old:?} and {t:?}"
            ))),
        }
    }

    fn infer_stms(&mut self, stms: &[KStm]) -> SResult<()> {
        for stm in stms {
            match stm {
                KStm::Assign { var, exp } => {
                    if let Some(t) = self.exp_class(exp)? {
                        self.set_reg(*var, t)?;
                    }
                }
                KStm::GlobalRead { var, buf, .. } => {
                    let t = self.param_buffer(*buf)?;
                    self.set_reg(*var, t)?;
                }
                KStm::LocalRead { var, mem, .. } => {
                    let t = self.kernel.locals[*mem].0;
                    self.set_reg(*var, t)?;
                }
                KStm::PrivAlloc { arr, elem, .. } => self.set_priv(*arr, *elem)?,
                KStm::PrivRead { var, arr, .. } => {
                    if let Some(t) = self.privs[*arr] {
                        self.set_reg(*var, t)?;
                    }
                }
                KStm::PrivCopy { dst, src, .. } => {
                    if let Some(t) = self.privs[*src] {
                        self.set_priv(*dst, t)?;
                    }
                }
                KStm::For { var, body, .. } => {
                    self.set_reg(*var, ScalarType::I64)?;
                    self.infer_stms(body)?;
                }
                KStm::While { body, .. } | KStm::At { body, .. } => self.infer_stms(body)?,
                KStm::If { then_s, else_s, .. } => {
                    self.infer_stms(then_s)?;
                    self.infer_stms(else_s)?;
                }
                KStm::GlobalWrite { .. }
                | KStm::LocalWrite { .. }
                | KStm::PrivWrite { .. }
                | KStm::Barrier => {}
            }
        }
        Ok(())
    }
}

struct Compiler<'k> {
    kernel: &'k Kernel,
    /// The inferred class of each register, which every use is checked
    /// against.
    reg_class: Vec<ScalarType>,
    priv_class: Vec<ScalarType>,
    /// Postfix ops: every tape's so far in a reference decode, else only
    /// those of the tape being built, [`reg_compile`]'s input.
    ops: Vec<EOp>,
    /// Every tape's register-form instructions so far; `None` in a
    /// reference decode.
    winstrs: Option<Vec<WInstr>>,
    /// The register-file columns the tapes so far need.
    columns: u32,
    /// The site of the statements being decoded: the innermost marker's,
    /// or the unattributed bucket outside every marker.
    site: u32,
}

impl<'k> Compiler<'k> {
    /// Appends an expression's postfix ops to the kernel's, returning its
    /// class.
    fn exp(&mut self, e: &KExp) -> SResult<ScalarType> {
        Ok(match e {
            KExp::Const(s) => {
                self.ops.push(EOp::Const(enc(*s)));
                s.scalar_type()
            }
            KExp::Var(r) => {
                self.ops.push(EOp::Load(*r));
                self.reg_class[*r as usize]
            }
            KExp::GlobalId => {
                self.ops.push(EOp::GlobalId);
                ScalarType::I64
            }
            KExp::GroupId => {
                self.ops.push(EOp::GroupId);
                ScalarType::I64
            }
            KExp::LocalId => {
                self.ops.push(EOp::LocalId);
                ScalarType::I64
            }
            KExp::GroupSize => {
                self.ops.push(EOp::GroupSize);
                ScalarType::I64
            }
            KExp::NumThreads => {
                self.ops.push(EOp::NumThreads);
                ScalarType::I64
            }
            KExp::ScalarArg(i) => {
                let t = match self.kernel.params.get(*i) {
                    Some(KParam::Scalar(t)) => *t,
                    _ => {
                        return Err(SimError::Scalar(format!("argument {i} is not a scalar")));
                    }
                };
                self.ops.push(EOp::ScalarArg(*i as u32));
                t
            }
            KExp::BinOp(op, a, b) => {
                let ta = self.exp(a)?;
                let tb = self.exp(b)?;
                if ta != tb {
                    return Err(SimError::Scalar(format!(
                        "operand type mismatch: {ta:?} vs {tb:?}"
                    )));
                }
                self.ops.push(EOp::Bin(*op, ta));
                ta
            }
            KExp::Cmp(op, a, b) => {
                let ta = self.exp(a)?;
                let tb = self.exp(b)?;
                if ta != tb {
                    return Err(SimError::Scalar(format!(
                        "comparison type mismatch: {ta:?} vs {tb:?}"
                    )));
                }
                self.ops.push(EOp::Cmp(*op, ta));
                ScalarType::Bool
            }
            KExp::UnOp(op, a) => {
                let ta = self.exp(a)?;
                self.ops.push(EOp::Un(*op, ta));
                ta
            }
            KExp::Convert(t, a) => {
                let ta = self.exp(a)?;
                self.ops.push(EOp::Conv(ta, *t));
                *t
            }
        })
    }

    fn malformed(&self, what: impl Into<String>) -> SimError {
        SimError::Malformed {
            kernel: self.kernel.name.clone(),
            what: what.into(),
        }
    }

    /// Appends an expression's instructions to the kernel's array, in
    /// the form being decoded to, and returns the tape that ranges over
    /// them. The register form is compiled from the tape's postfix ops,
    /// which are dropped once it is built.
    fn tape(&mut self, e: &KExp) -> SResult<Tape> {
        let start = self.ops.len();
        let class = self.exp(e)?;
        let (start, end, result) = match &mut self.winstrs {
            Some(winstrs) => {
                let at = winstrs.len();
                let compiled = reg_compile(&self.ops[start..], self.kernel.num_regs, winstrs);
                let end = winstrs.len();
                self.ops.truncate(start);
                let (columns, result) = compiled.map_err(|what| self.malformed(what))?;
                self.columns = self.columns.max(columns);
                (at, end, result)
            }
            None => (start, self.ops.len(), 0),
        };
        let end = u32::try_from(end)
            .map_err(|_| self.malformed("kernel tapes exceed 2^32 instructions"))?;
        let start = start as u32;
        Ok(Tape {
            start,
            len: end - start,
            result,
            cost: u32::try_from(e.op_count())
                .map_err(|_| self.malformed("expression cost exceeds 2^32 operations"))?,
            class,
        })
    }

    /// A tape whose result will be used as an element index (i32 or i64).
    fn index_tape(&mut self, e: &KExp) -> SResult<Tape> {
        let tape = self.tape(e)?;
        if !matches!(tape.class, ScalarType::I32 | ScalarType::I64) {
            return Err(SimError::Scalar("non-integer index".into()));
        }
        Ok(tape)
    }

    /// A tape whose result must be a boolean condition.
    fn cond_tape(&mut self, e: &KExp, what: &str) -> SResult<Tape> {
        let tape = self.tape(e)?;
        if tape.class != ScalarType::Bool {
            return Err(SimError::Scalar(format!("non-boolean {what} condition")));
        }
        Ok(tape)
    }

    /// A tape whose result is stored into something of class `want`.
    fn value_tape(&mut self, e: &KExp, want: ScalarType, what: &str) -> SResult<Tape> {
        let tape = self.tape(e)?;
        if tape.class != want {
            return Err(SimError::Scalar(format!(
                "{what} of class {:?} stored into {want:?}",
                tape.class
            )));
        }
        Ok(tape)
    }

    /// Decodes a body into a slice of exactly its length (collecting a
    /// `Result` iterator would start at capacity 4 and double). A
    /// marker's statements take its site and its place in the body.
    fn stms(&mut self, stms: &[KStm]) -> SResult<Box<[DStm]>> {
        fn len(stms: &[KStm]) -> usize {
            stms.iter()
                .map(|s| match s {
                    KStm::At { body, .. } => len(body),
                    _ => 1,
                })
                .sum()
        }
        let mut out = Vec::with_capacity(len(stms));
        self.push_stms(stms, &mut out)?;
        Ok(out.into_boxed_slice())
    }

    fn push_stms(&mut self, stms: &[KStm], out: &mut Vec<DStm>) -> SResult<()> {
        for s in stms {
            if let KStm::At { prov, body } = s {
                // Every run indexes its site buckets by this number.
                if *prov as usize >= self.kernel.prov_table.len() {
                    return Err(self.malformed(format!(
                        "marker names site {prov} of a {}-entry provenance table",
                        self.kernel.prov_table.len()
                    )));
                }
                let outer = std::mem::replace(&mut self.site, *prov);
                self.push_stms(body, out)?;
                self.site = outer;
            } else {
                out.push(DStm {
                    site: self.site,
                    kind: self.stm(s)?,
                });
            }
        }
        Ok(())
    }

    /// Decodes a statement other than a marker.
    fn stm(&mut self, stm: &KStm) -> SResult<DKind> {
        Ok(match stm {
            KStm::Assign { var, exp } => DKind::Assign {
                reg: *var,
                exp: self.value_tape(exp, self.reg_class[*var as usize], "assignment")?,
            },
            KStm::GlobalRead { var, buf, index } => DKind::GlobalRead {
                reg: *var,
                buf: *buf,
                index: self.index_tape(index)?,
            },
            KStm::GlobalWrite { buf, index, value } => {
                let elem = match self.kernel.params.get(*buf) {
                    Some(KParam::Buffer(t)) => *t,
                    _ => {
                        return Err(SimError::Scalar(format!("argument {buf} is not a buffer")));
                    }
                };
                DKind::GlobalWrite {
                    buf: *buf,
                    index: self.index_tape(index)?,
                    value: self.value_tape(value, elem, "global write")?,
                }
            }
            KStm::LocalRead { var, mem, index } => DKind::LocalRead {
                reg: *var,
                mem: *mem,
                index: self.index_tape(index)?,
            },
            KStm::LocalWrite { mem, index, value } => DKind::LocalWrite {
                mem: *mem,
                index: self.index_tape(index)?,
                value: self.value_tape(value, self.kernel.locals[*mem].0, "local write")?,
            },
            KStm::PrivAlloc { arr, size, .. } => DKind::PrivAlloc {
                arr: *arr,
                size: self.index_tape(size)?,
            },
            KStm::PrivRead { var, arr, index } => DKind::PrivRead {
                reg: *var,
                arr: *arr,
                index: self.index_tape(index)?,
            },
            KStm::PrivWrite { arr, index, value } => DKind::PrivWrite {
                arr: *arr,
                index: self.index_tape(index)?,
                value: self.value_tape(value, self.priv_class[*arr], "private write")?,
            },
            KStm::PrivCopy { dst, src, len } => DKind::PrivCopy {
                dst: *dst,
                src: *src,
                len: self.index_tape(len)?,
            },
            KStm::For { var, bound, body } => {
                debug_assert_eq!(self.reg_class[*var as usize], ScalarType::I64);
                DKind::For {
                    reg: *var,
                    bound: self.index_tape(bound)?,
                    body: self.stms(body)?,
                }
            }
            KStm::While { cond, body } => DKind::While {
                cond: self.cond_tape(cond, "while")?,
                body: self.stms(body)?,
            },
            KStm::If {
                cond,
                then_s,
                else_s,
            } => DKind::If {
                cond: self.cond_tape(cond, "if")?,
                then_s: self.stms(then_s)?,
                else_s: self.stms(else_s)?,
            },
            KStm::Barrier => DKind::Barrier,
            KStm::At { .. } => unreachable!("markers are folded into their statements"),
        })
    }
}

impl DecodedKernel {
    /// Pre-decodes a kernel for the warp engine: infers a scalar class
    /// for every register and private array (fixpoint over the body;
    /// registers that are never written default to i64, matching the old
    /// `Scalar::I64(0)` register initialisation), checks every use
    /// against it, and flattens every expression into a register-form
    /// `Tape`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Scalar`] for kernels the static model rejects:
    /// a register or private array used at two different classes, operand
    /// class mismatches, or argument kind confusion (well-typed codegen
    /// output never triggers them).
    pub fn decode(kernel: &Kernel) -> SResult<DecodedKernel> {
        Self::decode_to(kernel, true)
    }

    /// Decodes a kernel for the per-lane reference engine: the classes,
    /// checks and tapes of [`DecodedKernel::decode`], kept in postfix
    /// form and never register-compiled. Only tests and the fuzz oracle
    /// call it.
    ///
    /// # Errors
    ///
    /// As [`DecodedKernel::decode`].
    pub fn reference(kernel: &Kernel) -> SResult<DecodedKernel> {
        Self::decode_to(kernel, false)
    }

    /// Decodes to the register form if `register`, else to postfix.
    fn decode_to(kernel: &Kernel, register: bool) -> SResult<DecodedKernel> {
        // Static-model rejections name the kernel, whichever step finds
        // them.
        let named = |e: SimError| match e {
            SimError::Scalar(m) => {
                SimError::Scalar(format!("decoding kernel `{}`: {m}", kernel.name))
            }
            other => other,
        };
        let mut inf = Decoder {
            kernel,
            regs: vec![None; kernel.num_regs as usize],
            privs: vec![None; kernel.num_priv],
            changed: true,
        };
        // Fixpoint: classes only ever go from unknown to known, so this
        // terminates after at most `num_regs + num_priv + 1` sweeps.
        while inf.changed {
            inf.changed = false;
            inf.infer_stms(&kernel.body).map_err(named)?;
        }
        let reg_class = inf
            .regs
            .iter()
            .map(|c| c.unwrap_or(ScalarType::I64))
            .collect();
        let priv_class: Vec<ScalarType> = inf
            .privs
            .iter()
            .map(|c| c.unwrap_or(ScalarType::I64))
            .collect();
        let mut comp = Compiler {
            kernel,
            reg_class,
            priv_class,
            ops: Vec::new(),
            winstrs: register.then(Vec::new),
            columns: kernel.num_regs,
            site: kernel.prov_table.len() as u32,
        };
        let body = comp.stms(&kernel.body).map_err(named)?;
        let mut site = Prov::none();
        for p in &kernel.prov_table {
            site.merge(p);
        }
        Ok(DecodedKernel {
            name: kernel.name.clone(),
            params: kernel.params.clone(),
            locals: kernel.locals.clone(),
            columns: comp.columns,
            priv_class: comp.priv_class,
            body,
            instrs: match comp.winstrs {
                Some(winstrs) => Instrs::Register(winstrs.into_boxed_slice()),
                None => Instrs::Postfix(comp.ops.into_boxed_slice()),
            },
            n_sites: kernel.prov_table.len() + 1,
            site: site.key(),
        })
    }

    /// A tape's postfix ops (none in the register form).
    #[inline]
    fn ops(&self, tape: &Tape) -> &[EOp] {
        match &self.instrs {
            Instrs::Postfix(ops) => &ops[tape.range()],
            Instrs::Register(_) => &[],
        }
    }

    /// A tape's register-form instructions (none in the postfix form).
    #[inline]
    fn winstrs(&self, tape: &Tape) -> &[WInstr] {
        match &self.instrs {
            Instrs::Register(winstrs) => &winstrs[tape.range()],
            Instrs::Postfix(_) => &[],
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-level operator implementations
// ---------------------------------------------------------------------------
//
// Integer and float arithmetic are implemented directly on the bit
// representation with *exactly* the expressions `eval_binop`/`eval_cmp`
// use (including the shared floored-division helpers), so results are
// bit-identical to the interpreter. `UnOp` and `Convert` reconstruct
// `Scalar`s and call the interpreter's helpers outright: they are rare in
// kernel inner loops and have the most delicate float edge cases
// (double rounding in i64→f32, NaN/±inf/out-of-range in float→int).

fn div_by_zero() -> SimError {
    // Matches `InterpError::DivisionByZero`'s display, the error
    // `eval_binop` reports.
    SimError::Scalar("division by zero".into())
}

#[inline]
fn bin_bits(op: BinOp, t: ScalarType, a: u64, b: u64) -> SResult<u64> {
    use BinOp::*;
    let type_err = |what: &str| SimError::Scalar(format!("type error at runtime: {what}"));
    Ok(match t {
        ScalarType::I64 => {
            let (x, y) = (a as i64, b as i64);
            (match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(div_by_zero());
                    }
                    floor_div_i64(x, y)
                }
                Rem => {
                    if y == 0 {
                        return Err(div_by_zero());
                    }
                    floor_mod_i64(x, y)
                }
                Min => x.min(y),
                Max => x.max(y),
                Pow | Atan2 => return Err(type_err("pow/atan2 on integers")),
                And | Or => return Err(type_err("logical op on integers")),
            }) as u64
        }
        ScalarType::I32 => {
            let (x, y) = (a as u32 as i32, b as u32 as i32);
            (match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return Err(div_by_zero());
                    }
                    floor_div_i32(x, y)
                }
                Rem => {
                    if y == 0 {
                        return Err(div_by_zero());
                    }
                    floor_mod_i32(x, y)
                }
                Min => x.min(y),
                Max => x.max(y),
                Pow | Atan2 => return Err(type_err("pow/atan2 on integers")),
                And | Or => return Err(type_err("logical op on integers")),
            }) as u32 as u64
        }
        ScalarType::F32 => {
            let (x, y) = (f32::from_bits(a as u32), f32::from_bits(b as u32));
            (match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => x % y,
                Min => x.min(y),
                Max => x.max(y),
                Pow => x.powf(y),
                Atan2 => x.atan2(y),
                And | Or => return Err(type_err("logical op on floats")),
            })
            .to_bits() as u64
        }
        ScalarType::F64 => {
            let (x, y) = (f64::from_bits(a), f64::from_bits(b));
            (match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => x % y,
                Min => x.min(y),
                Max => x.max(y),
                Pow => x.powf(y),
                Atan2 => x.atan2(y),
                And | Or => return Err(type_err("logical op on floats")),
            })
            .to_bits()
        }
        ScalarType::Bool => match op {
            And => a & b,
            Or => a | b,
            _ => return Err(type_err("arithmetic on booleans")),
        },
    })
}

#[inline]
fn cmp_bits(op: CmpOp, t: ScalarType, a: u64, b: u64) -> u64 {
    #[inline]
    fn cmp<T: PartialOrd>(op: CmpOp, x: T, y: T) -> bool {
        match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }
    (match t {
        ScalarType::I64 => cmp(op, a as i64, b as i64),
        ScalarType::I32 => cmp(op, a as u32 as i32, b as u32 as i32),
        ScalarType::F32 => cmp(op, f32::from_bits(a as u32), f32::from_bits(b as u32)),
        ScalarType::F64 => cmp(op, f64::from_bits(a), f64::from_bits(b)),
        ScalarType::Bool => cmp(op, a != 0, b != 0),
    }) as u64
}

// ---------------------------------------------------------------------------
// Group write overlays
// ---------------------------------------------------------------------------

/// A dense window may span at most this many slots per distinct element
/// written, or [`DENSE_MIN_SPAN`] slots, whichever is larger; a write that
/// would stretch its hull past that turns the window into a map.
const DENSE_RATIO: usize = 4;
/// Span every dense window may reach regardless of how few elements it
/// holds (32 KiB of values).
const DENSE_MIN_SPAN: usize = 4096;

/// One group's pending writes to one buffer: what its own reads see
/// before the launch snapshot, and the log the ordered commit applies.
/// Within the group the last write to an element wins.
#[derive(Debug)]
enum Window {
    /// Values by offset over `lo..lo + vals.len()`; `dirty[k]` marks
    /// element `lo + k` as written. `hull` is the lowest and highest
    /// written offset and `written` the number of dirty slots.
    Dense {
        lo: usize,
        vals: Vec<u64>,
        dirty: Vec<bool>,
        hull: (usize, usize),
        written: usize,
    },
    /// Written elements by offset, once the writes are too sparse for a
    /// window.
    Sparse(HashMap<usize, u64>),
}

impl Window {
    fn new() -> Window {
        Window::Dense {
            lo: 0,
            vals: Vec::new(),
            dirty: Vec::new(),
            hull: (0, 0),
            written: 0,
        }
    }

    /// The group's own write to element `i`, if any.
    #[inline]
    fn get(&self, i: usize) -> Option<u64> {
        match self {
            Window::Dense {
                lo, vals, dirty, ..
            } => {
                let k = i.checked_sub(*lo)?;
                (k < vals.len() && dirty[k]).then(|| vals[k])
            }
            Window::Sparse(m) => m.get(&i).copied(),
        }
    }

    /// Readies a dense window for `n` writes within `a..=b`: grows it to
    /// span them, or turns it into a map when the hull would break the
    /// density rule. Returns whether the window is dense.
    fn cover(&mut self, a: usize, b: usize, n: usize) -> bool {
        let Window::Dense {
            lo,
            vals,
            dirty,
            hull,
            written,
        } = self
        else {
            return false;
        };
        if a >= *lo && b < *lo + vals.len() {
            return true;
        }
        if *written == 0 {
            (*lo, *hull) = (a, (a, a));
        }
        let room = DENSE_MIN_SPAN.max(DENSE_RATIO * (*written + n));
        if hull.1.max(b) - hull.0.min(a) >= room {
            let mut m: HashMap<usize, u64> = HashMap::with_capacity(*written + n);
            for (k, _) in dirty.iter().enumerate().filter(|(_, &d)| d) {
                m.insert(*lo + k, vals[k]);
            }
            *self = Window::Sparse(m);
            return false;
        }
        if a < *lo {
            // Grow downwards by at least the current length, so a
            // descending run of writes costs amortised O(1) each.
            let head = (*lo - a).max(vals.len()).min(*lo);
            vals.splice(0..0, std::iter::repeat_n(0, head));
            dirty.splice(0..0, std::iter::repeat_n(false, head));
            *lo -= head;
        }
        if b >= *lo + vals.len() {
            // Grow upwards geometrically as well, but no further than the
            // span the density rule allows, so growth alone never holds
            // more slots than the rule would.
            let len = (b + 1 - *lo).max((2 * vals.len()).min(room));
            vals.resize(len, 0);
            dirty.resize(len, false);
        }
        true
    }

    #[inline]
    fn set(&mut self, i: usize, bits: u64) {
        if self.cover(i, i, 1) {
            if let Window::Dense {
                lo,
                vals,
                dirty,
                hull,
                written,
            } = self
            {
                let k = i - *lo;
                vals[k] = bits;
                *written += usize::from(!dirty[k]);
                dirty[k] = true;
                *hull = (hull.0.min(i), hull.1.max(i));
            }
        } else if let Window::Sparse(m) = self {
            m.insert(i, bits);
        }
    }

    /// Writes `bits[l]` to element `idx[l]` for the mask's active lanes,
    /// later lanes winning. A dense window is readied once for the
    /// column's hull and then takes every write in one loop.
    fn set_column(&mut self, idx: &[i64], bits: &[u64], mask: &WMask) {
        let (mut a, mut b) = (usize::MAX, 0usize);
        for (&i, &on) in idx.iter().zip(&mask.on) {
            if on {
                (a, b) = (a.min(i as usize), b.max(i as usize));
            }
        }
        if !mask.any {
            return;
        }
        if !self.cover(a, b, mask.active as usize) {
            for l in (0..idx.len()).filter(|&l| mask.on[l]) {
                self.set(idx[l] as usize, bits[l]);
            }
            return;
        }
        let Window::Dense {
            lo,
            vals,
            dirty,
            hull,
            written,
        } = self
        else {
            unreachable!("a covered window is dense")
        };
        let (lo, mut fresh) = (*lo, 0usize);
        for ((&i, &v), &on) in idx.iter().zip(bits).zip(&mask.on) {
            if on {
                let k = i as usize - lo;
                vals[k] = v;
                fresh += usize::from(!dirty[k]);
                dirty[k] = true;
            }
        }
        *written += fresh;
        *hull = (hull.0.min(a), hull.1.max(b));
    }

    /// Applies the writes to `buf`.
    fn commit(&self, buf: &mut Buffer) {
        match self {
            Window::Dense {
                lo, vals, dirty, ..
            } => {
                for (k, _) in dirty.iter().enumerate().filter(|(_, &d)| d) {
                    buf_set_bits(buf, lo + k, vals[k]);
                }
            }
            Window::Sparse(m) => {
                for (&i, &bits) in m {
                    buf_set_bits(buf, i, bits);
                }
            }
        }
    }
}

/// A group's write overlays, one per buffer it writes. Groups write few
/// buffers, so lookup is a scan.
#[derive(Debug, Default)]
struct Overlays(Vec<(BufId, Window)>);

impl Overlays {
    #[inline]
    fn get(&self, bid: BufId) -> Option<&Window> {
        self.0.iter().find(|(b, _)| *b == bid).map(|(_, w)| w)
    }

    /// The window for `bid`, opened empty if the group has not written
    /// the buffer yet.
    #[inline]
    fn window(&mut self, bid: BufId) -> &mut Window {
        let at = match self.0.iter().position(|(b, _)| *b == bid) {
            Some(at) => at,
            None => {
                self.0.push((bid, Window::new()));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }
}

/// How one memory statement's element indices map to the device's
/// `tb`-byte segments, worked out once per statement. Both profiles'
/// transaction sizes (128 and 64 bytes) are power-of-two multiples of
/// every element size (1, 4 and 8 bytes), so the segment of an in-bounds,
/// so non-negative, index is a shift of it, as a hardware coalescer
/// compares line addresses. Any other ratio divides.
#[derive(Debug, Clone, Copy)]
struct Segments {
    elem_bytes: u64,
    tb: u64,
    /// `log2(tb / elem_bytes)`, when `tb` is a power-of-two multiple of
    /// `elem_bytes`.
    shift: Option<u32>,
}

impl Segments {
    fn new(elem_bytes: u64, tb: u64) -> Segments {
        let per = tb / elem_bytes;
        let shift = (per * elem_bytes == tb && per.is_power_of_two()).then(|| per.trailing_zeros());
        Segments {
            elem_bytes,
            tb,
            shift,
        }
    }
}

/// The number of distinct segments one warp's active lanes touch, and the
/// bytes they move. `idx` covers the warp's lanes (a tail warp may be
/// short), and `mask` is `None` when every one of them is active. An
/// active lane holds an in-bounds, so non-negative, element index, and an
/// inactive lane's index is ignored. Both engines count through here.
#[inline]
fn warp_transactions(
    mask: Option<&[bool]>,
    idx: &[i64],
    segs: Segments,
    scratch: &mut Vec<i64>,
) -> (u64, u64) {
    let Segments { elem_bytes, tb, .. } = segs;
    match segs.shift {
        Some(k) => count_segments(mask, idx, elem_bytes, |i| i >> k, scratch),
        None => count_segments(
            mask,
            idx,
            elem_bytes,
            |i| (i * elem_bytes as i64) / tb as i64,
            scratch,
        ),
    }
}

/// [`warp_transactions`] for one segment function. A full warp counts the
/// segment changes between adjacent lanes in one branch-free pass; a
/// masked warp walks its active lanes once. Either way, segments that come
/// non-decreasing, as coalesced accesses always do, are counted there, and
/// anything else is sorted and deduplicated in `scratch`.
#[inline(always)]
fn count_segments(
    mask: Option<&[bool]>,
    idx: &[i64],
    elem_bytes: u64,
    seg: impl Fn(i64) -> i64,
    scratch: &mut Vec<i64>,
) -> (u64, u64) {
    let Some(mask) = mask else {
        if idx.is_empty() {
            return (0, 0);
        }
        let (mut changes, mut down) = (0u64, false);
        for (&a, &b) in idx.iter().zip(&idx[1..]) {
            let (a, b) = (seg(a), seg(b));
            changes += u64::from(a != b);
            down |= b < a;
        }
        if down {
            return sort_dedup(idx.iter().map(|&i| seg(i)), elem_bytes, scratch);
        }
        return (1 + changes, idx.len() as u64 * elem_bytes);
    };
    let active = || mask.iter().zip(idx).filter_map(|(&on, &i)| on.then_some(i));
    let (mut tx, mut useful, mut last) = (0u64, 0u64, None);
    for off in active() {
        let s = seg(off);
        match last {
            Some(p) if s == p => {}
            Some(p) if s < p => return sort_dedup(active().map(&seg), elem_bytes, scratch),
            _ => {
                tx += 1;
                last = Some(s);
            }
        }
        useful += elem_bytes;
    }
    (tx, useful)
}

/// The number of distinct segments in `segs`, by sorting and
/// deduplicating them in `scratch`, and the bytes their lanes move.
#[cold]
fn sort_dedup(
    segs: impl Iterator<Item = i64>,
    elem_bytes: u64,
    scratch: &mut Vec<i64>,
) -> (u64, u64) {
    scratch.clear();
    scratch.extend(segs);
    let useful = scratch.len() as u64 * elem_bytes;
    scratch.sort_unstable();
    scratch.dedup();
    (scratch.len() as u64, useful)
}

// ---------------------------------------------------------------------------
// Group execution
// ---------------------------------------------------------------------------

/// The most iterations one execution of a kernel `while` loop may take in
/// one work-group before the launch fails with [`SimError::RunawayLoop`].
/// The execution budget planned in ROADMAP.md is to replace it.
const MAX_WHILE_ITERATIONS: u64 = 100_000_000;

/// What one group's execution produces: its counters and its write log
/// (final value per written element — within-group ordering is already
/// resolved, last write wins).
struct GroupOut {
    writes: Overlays,
    /// Per-site counters; length is `prov_table.len() + 1`, the last slot
    /// being the unattributed bucket.
    sites: Vec<SiteStats>,
}

struct GroupRun<'a> {
    dk: &'a DecodedKernel,
    base: &'a DeviceMemory,
    buf_ids: &'a [Option<BufId>],
    scalar_bits: &'a [Option<u64>],
    group_id: u64,
    group_size: u64,
    num_threads: u64,
    lanes: usize,
    warp_size: usize,
    transaction_bytes: u64,
    /// The register file: `dk.columns` columns of `lanes` bit-slots each,
    /// column `c` of lane `l` at `regs[c * lanes + l]`. The kernel's
    /// registers come first, so a register's column is its number; the
    /// warp engine's tape temporaries follow.
    regs: Vec<u64>,
    /// Per-lane private arrays as bits: `privs[arr * lanes + lane]`.
    privs: Vec<Vec<u64>>,
    /// Bytes the group's private arrays hold on the host, 8 an element.
    priv_bytes: u64,
    /// The device's global-memory capacity, which bounds `priv_bytes`.
    capacity: u64,
    /// Per-group local buffers as bits.
    locals: Vec<Vec<u64>>,
    /// This group's global-memory overlays: reads consult them before
    /// the base snapshot, and they double as the group's write log.
    writes: Overlays,
    /// Reference engine: the bit stack postfix tapes evaluate on (grown
    /// on first use, so the warp engine never allocates it).
    stack: Vec<u64>,
    /// Scratch: segment ids for transaction counting.
    segs: Vec<i64>,
    /// Per-lane element indices of the current memory statement, the
    /// column the coalescer counts. The warp engine fills it from the
    /// index tape before the value tape runs, whose temporaries would
    /// otherwise overwrite the index tape's result.
    icol: Vec<i64>,
    /// Warp engine: recycled mask storage for divergent control flow.
    mask_pool: Vec<Vec<bool>>,
    /// Warp engine: recycled copies of `icol` that hold each running
    /// `for` loop's trip counts while its body reuses `icol`.
    bounds_pool: Vec<Vec<i64>>,
    /// The group's counters, one bucket per source site.
    sites: Vec<SiteStats>,
    /// The bucket counters go to: each statement's own site, set before
    /// it counts anything.
    cur_site: usize,
}

/// An execution mask with its warp bookkeeping precomputed: which lanes
/// are on, whether any/all are, how many warps have at least one active
/// lane, and how many lane-slots idle inside those warps. Computing this
/// once per mask makes [`GroupRun::issue_w`] O(1) instead of a scan per
/// statement.
struct WMask {
    on: Vec<bool>,
    any: bool,
    all: bool,
    /// Active lanes.
    active: u64,
    warps: u64,
    inactive: u64,
}

impl WMask {
    fn new(on: Vec<bool>, warp_size: usize) -> WMask {
        let mut m = WMask {
            on,
            any: false,
            all: false,
            active: 0,
            warps: 0,
            inactive: 0,
        };
        m.recompute(warp_size);
        m
    }

    /// Recomputes the cached bookkeeping after `on` changed in place.
    fn recompute(&mut self, warp_size: usize) {
        let mut warps = 0u64;
        let mut inactive = 0u64;
        let mut active_total = 0usize;
        for chunk in self.on.chunks(warp_size) {
            let active = chunk.iter().filter(|&&b| b).count();
            if active > 0 {
                warps += 1;
                inactive += (chunk.len() - active) as u64;
            }
            active_total += active;
        }
        self.any = active_total > 0;
        self.all = active_total == self.on.len();
        self.active = active_total as u64;
        self.warps = warps;
        self.inactive = inactive;
    }
}

/// Per-lane faults recorded while evaluating one tape across the warp:
/// `None` in the (overwhelmingly common) fault-free case, else one
/// optional error per lane — a lane's *first* fault, after which it is
/// masked out of subsequent fallible instructions of the same tape.
struct TapeFaults(Option<Box<[Option<SimError>]>>);

impl TapeFaults {
    /// Whether any lane faulted.
    #[inline]
    fn any(&self) -> bool {
        self.0.is_some()
    }

    /// Takes lane's fault, if any — callers walk lanes in ascending
    /// order, so each fault is inspected at most once.
    #[inline]
    fn take(&mut self, lane: usize) -> Option<SimError> {
        self.0.as_mut().and_then(|f| f[lane].take())
    }

    /// The lowest faulting lane and its error — what lane-ascending
    /// per-lane evaluation would have reported first.
    fn into_first(self) -> Option<(usize, SimError)> {
        self.0.and_then(|f| {
            f.into_vec()
                .into_iter()
                .enumerate()
                .find_map(|(l, e)| e.map(|e| (l, e)))
        })
    }
}

#[inline]
fn lane_faulted(faults: &Option<Box<[Option<SimError>]>>, lane: usize) -> bool {
    faults.as_ref().is_some_and(|f| f[lane].is_some())
}

#[inline]
fn record_fault(
    faults: &mut Option<Box<[Option<SimError>]>>,
    lanes: usize,
    lane: usize,
    e: SimError,
) {
    let f = faults.get_or_insert_with(|| vec![None; lanes].into_boxed_slice());
    if f[lane].is_none() {
        f[lane] = Some(e);
    }
}

/// Whether any active lane's index lies outside `0..len`, in one
/// branch-free pass (a negative index reads as a huge unsigned one).
#[inline]
fn any_out_of_bounds(idx: &[i64], mask: &WMask, len: impl Fn(usize) -> usize) -> bool {
    let oob = |l: usize, i: i64| i as u64 >= len(l) as u64;
    let mut bad = false;
    if mask.all {
        for (l, &i) in idx.iter().enumerate() {
            bad |= oob(l, i);
        }
    } else {
        for (l, (&i, &on)) in idx.iter().zip(&mask.on).enumerate() {
            bad |= on & oob(l, i);
        }
    }
    bad
}

/// The error lane-ascending per-lane execution of a memory statement
/// reports first. Per active lane: its index-tape fault; then its
/// value-tape fault when `value_first`; then `bounds`; then its
/// value-tape fault. Only called once a column scan has found a fault.
#[cold]
fn first_fault(
    on: &[bool],
    mut index: TapeFaults,
    mut value: TapeFaults,
    value_first: bool,
    mut bounds: impl FnMut(usize) -> Option<SimError>,
) -> SimError {
    for l in (0..on.len()).filter(|&l| on[l]) {
        let fault = index
            .take(l)
            .or_else(|| value_first.then(|| value.take(l)).flatten())
            .or_else(|| bounds(l))
            .or_else(|| value.take(l));
        if let Some(e) = fault {
            return e;
        }
    }
    unreachable!("a column scan found a fault that no active lane holds")
}

/// Stores `bits(l)` into a register's column for the mask's active
/// lanes; masked-off lanes keep their values. `bits` is only called for
/// active lanes.
#[inline(always)]
fn store_lanes(col: &mut [u64], mask: &WMask, bits: impl Fn(usize) -> u64) {
    if mask.all {
        for (l, o) in col.iter_mut().enumerate() {
            *o = bits(l);
        }
    } else {
        for (l, (o, &on)) in col.iter_mut().zip(&mask.on).enumerate() {
            if on {
                *o = bits(l);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Column arithmetic
// ---------------------------------------------------------------------------
//
// One register-form instruction is one dispatch followed by one loop over
// the lanes. The allocator often makes a destination one of its operands,
// and indexing a single `&mut [u64]` at aliasing offsets defeats LLVM's
// runtime alias check, so every loop below runs over distinct slices: the
// destination column split out of the register file, and the operand
// columns beside it. Infallible ops run over every lane, masked or not.

/// Splits column `dst` out of the register file for writing; every other
/// column stays readable through the two halves around it.
#[inline(always)]
fn split_col(s: &mut [u64], lanes: usize, dst: u32) -> (&mut [u64], &[u64], &[u64]) {
    let (below, rest) = s.split_at_mut(dst as usize * lanes);
    let (d, above) = rest.split_at_mut(lanes);
    (d, below, above)
}

/// Column `c` (not the split-out `dst`) of a register file split by
/// [`split_col`].
#[inline(always)]
fn col<'s>(below: &'s [u64], above: &'s [u64], lanes: usize, dst: u32, c: u32) -> &'s [u64] {
    let (c, dst) = (c as usize, dst as usize);
    if c < dst {
        &below[c * lanes..(c + 1) * lanes]
    } else {
        &above[(c - dst - 1) * lanes..(c - dst) * lanes]
    }
}

/// `dst[l] = f(a[l], b[l])` for every lane, in place when the destination
/// is an operand or the operands coincide.
#[inline(always)]
fn zip_col(s: &mut [u64], lanes: usize, [dst, a, b]: [u32; 3], f: impl Fn(u64, u64) -> u64) {
    let (d, below, above) = split_col(s, lanes, dst);
    match (a == dst, b == dst) {
        (true, true) => d.iter_mut().for_each(|o| *o = f(*o, *o)),
        (true, false) => {
            let ys = col(below, above, lanes, dst, b);
            d.iter_mut().zip(ys).for_each(|(o, &y)| *o = f(*o, y));
        }
        (false, true) => {
            let xs = col(below, above, lanes, dst, a);
            d.iter_mut().zip(xs).for_each(|(o, &x)| *o = f(x, *o));
        }
        (false, false) if a == b => {
            let xs = col(below, above, lanes, dst, a);
            d.iter_mut().zip(xs).for_each(|(o, &x)| *o = f(x, x));
        }
        (false, false) => {
            let xs = col(below, above, lanes, dst, a);
            let ys = col(below, above, lanes, dst, b);
            for (o, (&x, &y)) in d.iter_mut().zip(xs.iter().zip(ys)) {
                *o = f(x, y);
            }
        }
    }
}

/// `dst[l] = f(a[l])` for every lane, in place when `dst == a`.
#[inline(always)]
fn map_col(s: &mut [u64], lanes: usize, [dst, a]: [u32; 2], f: impl Fn(u64) -> u64) {
    let (d, below, above) = split_col(s, lanes, dst);
    if a == dst {
        d.iter_mut().for_each(|o| *o = f(*o));
    } else {
        let xs = col(below, above, lanes, dst, a);
        d.iter_mut().zip(xs).for_each(|(o, &x)| *o = f(x));
    }
}

#[inline(always)]
fn f32b(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline(always)]
fn bf32(v: f32) -> u64 {
    v.to_bits() as u64
}

/// One `Bin` instruction over the lanes of `regs = [dst, a, b]`, with
/// exactly [`bin_bits`]'s results. Integer division takes the unmasked
/// loop when no lane's divisor is zero; otherwise it, like an op/class
/// mismatch, goes lane by lane and records each active lane's fault.
fn bin_col(
    op: BinOp,
    t: ScalarType,
    s: &mut [u64],
    lanes: usize,
    regs: [u32; 3],
    on: &[bool],
    faults: &mut Option<Box<[Option<SimError>]>>,
) {
    use BinOp::*;
    use ScalarType::*;
    macro_rules! z {
        (|$x:ident, $y:ident| $e:expr) => {
            zip_col(s, lanes, regs, |$x, $y| $e)
        };
    }
    macro_rules! i64s {
        (|$x:ident, $y:ident| $e:expr) => {
            z!(|x, y| {
                let ($x, $y) = (x as i64, y as i64);
                ($e) as u64
            })
        };
    }
    macro_rules! i32s {
        (|$x:ident, $y:ident| $e:expr) => {
            z!(|x, y| {
                let ($x, $y) = (x as u32 as i32, y as u32 as i32);
                ($e) as u32 as u64
            })
        };
    }
    macro_rules! f32s {
        (|$x:ident, $y:ident| $e:expr) => {
            z!(|x, y| {
                let ($x, $y) = (f32b(x), f32b(y));
                bf32($e)
            })
        };
    }
    macro_rules! f64s {
        (|$x:ident, $y:ident| $e:expr) => {
            z!(|x, y| {
                let ($x, $y) = (f64::from_bits(x), f64::from_bits(y));
                ($e).to_bits()
            })
        };
    }
    let bcol = regs[2] as usize * lanes;
    let zero_divisor =
        |s: &[u64], zero: fn(u64) -> bool| s[bcol..bcol + lanes].iter().any(|&y| zero(y));
    match (t, op) {
        (I64, Add) => i64s!(|x, y| x.wrapping_add(y)),
        (I64, Sub) => i64s!(|x, y| x.wrapping_sub(y)),
        (I64, Mul) => i64s!(|x, y| x.wrapping_mul(y)),
        (I64, Min) => i64s!(|x, y| x.min(y)),
        (I64, Max) => i64s!(|x, y| x.max(y)),
        (I32, Add) => i32s!(|x, y| x.wrapping_add(y)),
        (I32, Sub) => i32s!(|x, y| x.wrapping_sub(y)),
        (I32, Mul) => i32s!(|x, y| x.wrapping_mul(y)),
        (I32, Min) => i32s!(|x, y| x.min(y)),
        (I32, Max) => i32s!(|x, y| x.max(y)),
        (F64, Add) => f64s!(|x, y| x + y),
        (F64, Sub) => f64s!(|x, y| x - y),
        (F64, Mul) => f64s!(|x, y| x * y),
        (F64, Div) => f64s!(|x, y| x / y),
        (F64, Rem) => f64s!(|x, y| x % y),
        (F64, Min) => f64s!(|x, y| x.min(y)),
        (F64, Max) => f64s!(|x, y| x.max(y)),
        (F64, Pow) => f64s!(|x, y| x.powf(y)),
        (F64, Atan2) => f64s!(|x, y| x.atan2(y)),
        (F32, Add) => f32s!(|x, y| x + y),
        (F32, Sub) => f32s!(|x, y| x - y),
        (F32, Mul) => f32s!(|x, y| x * y),
        (F32, Div) => f32s!(|x, y| x / y),
        (F32, Rem) => f32s!(|x, y| x % y),
        (F32, Min) => f32s!(|x, y| x.min(y)),
        (F32, Max) => f32s!(|x, y| x.max(y)),
        (F32, Pow) => f32s!(|x, y| x.powf(y)),
        (F32, Atan2) => f32s!(|x, y| x.atan2(y)),
        (Bool, And) => z!(|x, y| x & y),
        (Bool, Or) => z!(|x, y| x | y),
        // Every lane's divisor is scanned, masked or not: the fast path
        // divides unmasked, so even a dead lane's garbage divisor must be
        // nonzero to take it.
        (I64, Div) if !zero_divisor(s, |y| y as i64 == 0) => {
            i64s!(|x, y| floor_div_i64(x, y))
        }
        (I64, Rem) if !zero_divisor(s, |y| y as i64 == 0) => {
            i64s!(|x, y| floor_mod_i64(x, y))
        }
        (I32, Div) if !zero_divisor(s, |y| y as u32 == 0) => {
            i32s!(|x, y| floor_div_i32(x, y))
        }
        (I32, Rem) if !zero_divisor(s, |y| y as u32 == 0) => {
            i32s!(|x, y| floor_mod_i32(x, y))
        }
        _ => {
            // A zero divisor somewhere, or an op/class mismatch (`pow` on
            // integers, arithmetic on booleans, …): lane by lane through
            // `bin_bits`, whose errors the per-lane engine raised.
            let [di, ai, bi] = regs.map(|r| r as usize * lanes);
            for l in 0..lanes {
                if on[l] && !lane_faulted(faults, l) {
                    match bin_bits(op, t, s[ai + l], s[bi + l]) {
                        Ok(v) => s[di + l] = v,
                        Err(e) => record_fault(faults, lanes, l, e),
                    }
                }
            }
        }
    }
}

/// One `Cmp` instruction over the lanes of `regs = [dst, a, b]`, with
/// exactly [`cmp_bits`]'s results.
fn cmp_col(op: CmpOp, t: ScalarType, s: &mut [u64], lanes: usize, regs: [u32; 3]) {
    macro_rules! cmps {
        ($conv:expr) => {{
            let c = $conv;
            match op {
                CmpOp::Eq => zip_col(s, lanes, regs, |x, y| (c(x) == c(y)) as u64),
                CmpOp::Ne => zip_col(s, lanes, regs, |x, y| (c(x) != c(y)) as u64),
                CmpOp::Lt => zip_col(s, lanes, regs, |x, y| (c(x) < c(y)) as u64),
                CmpOp::Le => zip_col(s, lanes, regs, |x, y| (c(x) <= c(y)) as u64),
                CmpOp::Gt => zip_col(s, lanes, regs, |x, y| (c(x) > c(y)) as u64),
                CmpOp::Ge => zip_col(s, lanes, regs, |x, y| (c(x) >= c(y)) as u64),
            }
        }};
    }
    match t {
        ScalarType::I64 => cmps!(|v: u64| v as i64),
        ScalarType::I32 => cmps!(|v: u64| v as u32 as i32),
        ScalarType::F32 => cmps!(f32b),
        ScalarType::F64 => cmps!(f64::from_bits),
        ScalarType::Bool => cmps!(|v: u64| v != 0),
    }
}

/// One `Un` instruction over the lanes of `regs = [dst, a]`. The float ops
/// are column loops over the same `std` functions [`eval_unop`] calls;
/// the rest go lane by lane through `eval_unop` itself.
fn un_col(
    op: UnOp,
    t: ScalarType,
    s: &mut [u64],
    lanes: usize,
    regs: [u32; 2],
    on: &[bool],
    faults: &mut Option<Box<[Option<SimError>]>>,
) {
    use ScalarType::*;
    use UnOp::*;
    macro_rules! f32u {
        ($f:expr) => {{
            let f: fn(f32) -> f32 = $f;
            map_col(s, lanes, regs, |x| bf32(f(f32b(x))))
        }};
    }
    macro_rules! f64u {
        ($f:expr) => {{
            let f: fn(f64) -> f64 = $f;
            map_col(s, lanes, regs, |x| f(f64::from_bits(x)).to_bits())
        }};
    }
    match (t, op) {
        (F32, Neg) => f32u!(|x| -x),
        (F32, Abs) => f32u!(f32::abs),
        (F32, Sqrt) => f32u!(f32::sqrt),
        (F32, Exp) => f32u!(f32::exp),
        (F32, Log) => f32u!(f32::ln),
        (F32, Sin) => f32u!(f32::sin),
        (F32, Cos) => f32u!(f32::cos),
        (F32, Tanh) => f32u!(f32::tanh),
        (F64, Neg) => f64u!(|x| -x),
        (F64, Abs) => f64u!(f64::abs),
        (F64, Sqrt) => f64u!(f64::sqrt),
        (F64, Exp) => f64u!(f64::exp),
        (F64, Log) => f64u!(f64::ln),
        (F64, Sin) => f64u!(f64::sin),
        (F64, Cos) => f64u!(f64::cos),
        (F64, Tanh) => f64u!(f64::tanh),
        _ => {
            let [di, ai] = regs.map(|r| r as usize * lanes);
            for l in 0..lanes {
                if on[l] && !lane_faulted(faults, l) {
                    match eval_unop(op, dec(t, s[ai + l])) {
                        Ok(r) => s[di + l] = enc(r),
                        Err(e) => record_fault(faults, lanes, l, SimError::Scalar(e.to_string())),
                    }
                }
            }
        }
    }
}

impl<'a> GroupRun<'a> {
    fn oob(&self, what: String) -> SimError {
        SimError::OutOfBounds {
            kernel: self.dk.name.clone(),
            what,
        }
    }

    fn buffer(&self, arg: usize) -> SResult<BufId> {
        self.buf_ids
            .get(arg)
            .copied()
            .flatten()
            .ok_or_else(|| SimError::Scalar(format!("argument {arg} is not a buffer")))
    }

    /// A malformed-artifact fault attributed to this kernel (tape stack
    /// underflow and the like — unreachable from decoded kernels, but a
    /// corrupted artifact must be an error, not a process-killing panic).
    fn malformed(&self, what: impl Into<String>) -> SimError {
        SimError::Malformed {
            kernel: self.dk.name.clone(),
            what: what.into(),
        }
    }

    /// Evaluates a tape for one lane on the bit stack.
    fn eval(&mut self, tape: &Tape, lane: usize) -> SResult<u64> {
        self.stack.clear();
        let dk = self.dk;
        for op in dk.ops(tape) {
            match *op {
                EOp::Const(bits) => self.stack.push(bits),
                EOp::Load(reg) => self.stack.push(self.regs[reg as usize * self.lanes + lane]),
                EOp::GlobalId => self
                    .stack
                    .push((self.group_id * self.group_size + lane as u64) as i64 as u64),
                EOp::GroupId => self.stack.push(self.group_id as i64 as u64),
                EOp::LocalId => self.stack.push(lane as i64 as u64),
                EOp::GroupSize => self.stack.push(self.group_size as i64 as u64),
                EOp::NumThreads => self.stack.push(self.num_threads as i64 as u64),
                EOp::ScalarArg(i) => {
                    let bits = self.scalar_bits[i as usize]
                        .ok_or_else(|| SimError::Scalar(format!("argument {i} is not a scalar")))?;
                    self.stack.push(bits);
                }
                EOp::Bin(op, t) => {
                    let b = self.pop_operand()?;
                    let a = self.pop_operand()?;
                    self.stack.push(bin_bits(op, t, a, b)?);
                }
                EOp::Cmp(op, t) => {
                    let b = self.pop_operand()?;
                    let a = self.pop_operand()?;
                    self.stack.push(cmp_bits(op, t, a, b));
                }
                EOp::Un(op, t) => {
                    let a = self.pop_operand()?;
                    let r =
                        eval_unop(op, dec(t, a)).map_err(|e| SimError::Scalar(e.to_string()))?;
                    self.stack.push(enc(r));
                }
                EOp::Conv(from, to) => {
                    let a = self.pop_operand()?;
                    let r = eval_convert(to, dec(from, a))
                        .map_err(|e| SimError::Scalar(e.to_string()))?;
                    self.stack.push(enc(r));
                }
            }
        }
        self.stack
            .pop()
            .ok_or_else(|| self.malformed("empty expression tape"))
    }

    /// Pops one operand from the lane-engine bit stack; underflow means the
    /// tape is structurally invalid.
    #[inline]
    fn pop_operand(&mut self) -> SResult<u64> {
        match self.stack.pop() {
            Some(bits) => Ok(bits),
            None => Err(self.malformed("expression tape underflow")),
        }
    }

    fn eval_index(&mut self, tape: &Tape, lane: usize) -> SResult<i64> {
        let bits = self.eval(tape, lane)?;
        index_i64(tape.class, bits)
    }

    /// The current statement's counters.
    #[inline]
    fn site(&mut self) -> &mut SiteStats {
        &mut self.sites[self.cur_site]
    }

    /// Counts the warp issue cost for one statement over a mask, and the
    /// issue slots of lanes masked off in warps that still issue: the
    /// divergence waste.
    fn issue(&mut self, mask: &[bool], ops: u64) {
        let (mut warps, mut inactive) = (0u64, 0u64);
        for chunk in mask.chunks(self.warp_size) {
            let active = chunk.iter().filter(|&&b| b).count() as u64;
            if active > 0 {
                warps += 1;
                inactive += chunk.len() as u64 - active;
            }
        }
        let s = self.site();
        s.warp_instructions += warps * (1 + ops);
        s.inactive_lane_instructions += inactive * (1 + ops);
    }

    /// Charges the group's private storage for lane `lane`'s array `arr`
    /// becoming `n` elements long, or fails with
    /// [`SimError::OutOfMemory`] before anything is allocated when that
    /// would take the group past the device capacity. Private arrays are
    /// device memory that admission cannot see, so a size taken from a
    /// request argument must stop here rather than grow the host. Every
    /// element is charged the 8 bytes the host holds it in, whatever its
    /// type, so one running group never holds more than the capacity;
    /// a launch holds at most one such budget per host thread.
    fn reserve_private(&mut self, arr: usize, lane: usize, n: usize) -> SResult<()> {
        const ESIZE: u64 = std::mem::size_of::<u64>() as u64;
        let held = self.privs[arr * self.lanes + lane].len() as u64 * ESIZE;
        let live = self.priv_bytes - held;
        let requested = (n as u64).saturating_mul(ESIZE);
        if requested > self.capacity.saturating_sub(live) {
            return Err(SimError::OutOfMemory {
                requested,
                live,
                capacity: self.capacity,
            });
        }
        self.priv_bytes = live + requested;
        Ok(())
    }

    /// Counts memory transactions for a warp-grouped global access using
    /// the per-lane indices in `self.icol`: per warp, the number of
    /// distinct aligned segments its active lanes touch
    /// ([`warp_transactions`]). `all` says that every lane of `mask` is
    /// on.
    fn memory_access(&mut self, mask: &[bool], all: bool, elem_bytes: u64) {
        let segs = Segments::new(elem_bytes, self.transaction_bytes);
        let ws = self.warp_size;
        let (mut tx, mut useful) = (0u64, 0u64);
        for (w, idx) in self.icol[..mask.len()].chunks(ws).enumerate() {
            let on = (!all).then(|| &mask[w * ws..w * ws + idx.len()]);
            let (t, u) = warp_transactions(on, idx, segs, &mut self.segs);
            tx += t;
            useful += u;
        }
        let bus = tx * self.transaction_bytes;
        let s = self.site();
        s.global_transactions += tx;
        s.bus_bytes += bus;
        s.useful_bytes += useful;
    }

    fn exec(&mut self, stms: &[DStm], mask: &[bool]) -> SResult<()> {
        if !mask.iter().any(|&b| b) {
            return Ok(());
        }
        let all = mask.iter().all(|&b| b);
        for stm in stms {
            self.cur_site = stm.site as usize;
            match &stm.kind {
                DKind::Assign { reg, exp } => {
                    self.issue(mask, exp.cost());
                    let at = *reg as usize * self.lanes;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            self.regs[at + lane] = self.eval(exp, lane)?;
                        }
                    }
                }
                DKind::GlobalRead { reg, buf, index } => {
                    self.issue(mask, index.cost());
                    let at = *reg as usize * self.lanes;
                    let bid = self.buffer(*buf)?;
                    let base_buf = self.base.raw(bid);
                    let len = base_buf.len() as i64;
                    let elem_bytes = base_buf.elem_type().byte_size() as u64;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            if i < 0 || i >= len {
                                return Err(self.oob(format!("read {i} of buffer len {len}")));
                            }
                            self.icol[lane] = i;
                            // Overlay first: the group sees its own writes.
                            self.regs[at + lane] =
                                match self.writes.get(bid).and_then(|w| w.get(i as usize)) {
                                    Some(b) => b,
                                    None => buf_get_bits(self.base.raw(bid), i as usize),
                                };
                        }
                    }
                    self.memory_access(mask, all, elem_bytes);
                }
                DKind::GlobalWrite { buf, index, value } => {
                    self.issue(mask, index.cost() + value.cost());
                    let bid = self.buffer(*buf)?;
                    let len = self.base.raw(bid).len() as i64;
                    let elem_bytes = self.base.raw(bid).elem_type().byte_size() as u64;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            if i < 0 || i >= len {
                                return Err(self.oob(format!("write {i} of buffer len {len}")));
                            }
                            let bits = self.eval(value, lane)?;
                            self.icol[lane] = i;
                            self.writes.window(bid).set(i as usize, bits);
                        }
                    }
                    self.memory_access(mask, all, elem_bytes);
                }
                DKind::LocalRead { reg, mem, index } => {
                    self.issue(mask, index.cost());
                    let at = *reg as usize * self.lanes;
                    let mut n = 0u64;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            let len = self.locals[*mem].len();
                            if i < 0 || i as usize >= len {
                                return Err(self.oob(format!("local read {i} of len {len}")));
                            }
                            self.regs[at + lane] = self.locals[*mem][i as usize];
                            n += 1;
                        }
                    }
                    self.count_local(n);
                }
                DKind::LocalWrite { mem, index, value } => {
                    self.issue(mask, index.cost() + value.cost());
                    let mut n = 0u64;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            let bits = self.eval(value, lane)?;
                            let len = self.locals[*mem].len();
                            if i < 0 || i as usize >= len {
                                return Err(self.oob(format!("local write {i} of len {len}")));
                            }
                            self.locals[*mem][i as usize] = bits;
                            n += 1;
                        }
                    }
                    self.count_local(n);
                }
                DKind::PrivAlloc { arr, size } => {
                    self.issue(mask, size.cost());
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let n = self.eval_index(size, lane)?.max(0) as usize;
                            self.reserve_private(*arr, lane, n)?;
                            self.privs[*arr * self.lanes + lane] = vec![0u64; n];
                        }
                    }
                }
                DKind::PrivRead { reg, arr, index } => {
                    self.issue(mask, index.cost());
                    let at = *reg as usize * self.lanes;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            let p = &self.privs[*arr * self.lanes + lane];
                            if i < 0 || i as usize >= p.len() {
                                return Err(
                                    self.oob(format!("private read {i} of len {}", p.len()))
                                );
                            }
                            self.regs[at + lane] = p[i as usize];
                        }
                    }
                }
                DKind::PrivWrite { arr, index, value } => {
                    self.issue(mask, index.cost() + value.cost());
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            let bits = self.eval(value, lane)?;
                            let p = &mut self.privs[*arr * self.lanes + lane];
                            if i < 0 || i as usize >= p.len() {
                                return Err(SimError::OutOfBounds {
                                    kernel: self.dk.name.clone(),
                                    what: format!("private write {i} of len {}", p.len()),
                                });
                            }
                            p[i as usize] = bits;
                        }
                    }
                }
                DKind::PrivCopy { dst, src, len } => {
                    self.issue(mask, len.cost());
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let n = self.eval_index(len, lane)?.max(0) as usize;
                            let s = &self.privs[*src * self.lanes + lane];
                            if n > s.len() {
                                return Err(
                                    self.oob(format!("private copy {n} of len {}", s.len()))
                                );
                            }
                            self.reserve_private(*dst, lane, n)?;
                            let v = self.privs[*src * self.lanes + lane][..n].to_vec();
                            self.privs[*dst * self.lanes + lane] = v;
                        }
                    }
                }
                DKind::For { reg, bound, body } => {
                    self.issue(mask, bound.cost());
                    let at = *reg as usize * self.lanes;
                    let mut bounds = vec![0i64; mask.len()];
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            bounds[lane] = self.eval_index(bound, lane)?;
                        }
                    }
                    let max_bound = bounds.iter().copied().max().unwrap_or(0);
                    for t in 0..max_bound {
                        let sub: Vec<bool> = mask
                            .iter()
                            .zip(&bounds)
                            .map(|(&m, &b)| m && t < b)
                            .collect();
                        if !sub.iter().any(|&b| b) {
                            break;
                        }
                        for lane in 0..mask.len() {
                            if sub[lane] {
                                self.regs[at + lane] = t as u64;
                            }
                        }
                        self.exec(body, &sub)?;
                    }
                }
                DKind::While { cond, body } => {
                    let mut live = mask.to_vec();
                    let mut iterations = 0u64;
                    loop {
                        // The body's statements move the site; the
                        // condition is the loop's own.
                        self.cur_site = stm.site as usize;
                        self.issue(&live, cond.cost());
                        for lane in 0..live.len() {
                            if live[lane] {
                                live[lane] = self.eval(cond, lane)? != 0;
                            }
                        }
                        if !live.iter().any(|&b| b) {
                            break;
                        }
                        self.exec(body, &live)?;
                        iterations += 1;
                        if iterations > MAX_WHILE_ITERATIONS {
                            return Err(SimError::RunawayLoop {
                                kernel: self.dk.name.clone(),
                            });
                        }
                    }
                }
                DKind::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    self.issue(mask, cond.cost());
                    let mut then_mask = vec![false; mask.len()];
                    let mut else_mask = vec![false; mask.len()];
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let c = self.eval(cond, lane)? != 0;
                            then_mask[lane] = c;
                            else_mask[lane] = !c;
                        }
                    }
                    self.exec(then_s, &then_mask)?;
                    self.exec(else_s, &else_mask)?;
                }
                DKind::Barrier => {
                    // All in-bounds lanes of the group must participate.
                    if mask.iter().any(|&b| !b) {
                        return Err(SimError::DivergentBarrier {
                            kernel: self.dk.name.clone(),
                        });
                    }
                    self.site().barriers += 1;
                    self.issue(mask, 0);
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // The warp engine
    // -----------------------------------------------------------------

    /// O(1) warp-issue accounting from the mask's precomputed meta;
    /// counter-identical to [`GroupRun::issue`] over `mask.on`.
    fn issue_w(&mut self, mask: &WMask, ops: u64) {
        let s = self.site();
        s.warp_instructions += mask.warps * (1 + ops);
        s.inactive_lane_instructions += mask.inactive * (1 + ops);
    }

    /// A recycled lane-sized mask buffer (all false).
    fn take_bits(&mut self) -> Vec<bool> {
        match self.mask_pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(self.lanes, false);
                v
            }
            None => vec![false; self.lanes],
        }
    }

    fn put_bits(&mut self, v: Vec<bool>) {
        self.mask_pool.push(v);
    }

    /// A recycled buffer holding a copy of `icol`.
    fn take_bounds(&mut self) -> Vec<i64> {
        let mut v = self.bounds_pool.pop().unwrap_or_default();
        v.clear();
        v.extend_from_slice(&self.icol);
        v
    }

    fn put_bounds(&mut self, v: Vec<i64>) {
        self.bounds_pool.push(v);
    }

    /// Converts a tape's integer result column into `self.icol`: one class
    /// dispatch, then a dense loop.
    fn index_column(&mut self, tape: &Tape) {
        let r = tape.result as usize * self.lanes;
        let bits = &self.regs[r..r + self.lanes];
        let idx = self.icol.iter_mut().zip(bits);
        match tape.class {
            ScalarType::I32 => idx.for_each(|(i, &b)| *i = b as u32 as i32 as i64),
            _ => idx.for_each(|(i, &b)| *i = b as i64),
        }
    }

    /// The fault-scan contract of a memory statement over `icol`: `None`
    /// when its tapes raised nothing and every active lane's index lies
    /// in `0..len(lane)`, found by one branch-free scan; otherwise the
    /// error lane-ascending execution reports first ([`first_fault`]),
    /// with `what(index, len)` describing an out-of-bounds access.
    fn column_fault(
        &self,
        mask: &WMask,
        (index, value): (TapeFaults, TapeFaults),
        value_first: bool,
        len: impl Fn(usize) -> usize,
        what: impl Fn(i64, usize) -> String,
    ) -> Option<SimError> {
        if !(index.any() || value.any() || any_out_of_bounds(&self.icol, mask, &len)) {
            return None;
        }
        Some(first_fault(&mask.on, index, value, value_first, |l| {
            let (i, n) = (self.icol[l], len(l));
            (i < 0 || i as usize >= n).then(|| self.oob(what(i, n)))
        }))
    }

    /// Reads the bits of `src[icol[l]]` into register `reg` for the
    /// mask's active lanes: one match on the buffer's type, then a gather
    /// straight from the launch snapshot. Only a group holding a window
    /// for the buffer then reads its own writes through it.
    fn gather_global(&mut self, reg: u32, bid: BufId, src: &Buffer, mask: &WMask) {
        #[inline(always)]
        fn gather<T: Copy>(
            dst: &mut [u64],
            src: &[T],
            idx: &[i64],
            mask: &WMask,
            bits: impl Fn(T) -> u64,
        ) {
            if mask.all {
                for (o, &i) in dst.iter_mut().zip(idx) {
                    *o = bits(src[i as usize]);
                }
            } else {
                for ((o, &i), &on) in dst.iter_mut().zip(idx).zip(&mask.on) {
                    if on {
                        *o = bits(src[i as usize]);
                    }
                }
            }
        }
        let lanes = self.lanes;
        let at = reg as usize * lanes;
        let (idx, dst) = (&self.icol, &mut self.regs[at..at + lanes]);
        match src {
            Buffer::Bool(v) => gather(dst, v, idx, mask, |x| x as u64),
            Buffer::I32(v) => gather(dst, v, idx, mask, |x| x as u32 as u64),
            Buffer::I64(v) => gather(dst, v, idx, mask, |x| x as u64),
            Buffer::F32(v) => gather(dst, v, idx, mask, |x| x.to_bits() as u64),
            Buffer::F64(v) => gather(dst, v, idx, mask, f64::to_bits),
        }
        if let Some(w) = self.writes.get(bid) {
            for l in (0..lanes).filter(|&l| mask.on[l]) {
                if let Some(bits) = w.get(idx[l] as usize) {
                    dst[l] = bits;
                }
            }
        }
    }

    /// Counts `n` local-memory accesses.
    fn count_local(&mut self, n: u64) {
        self.site().local_accesses += n;
    }

    /// Copies column `src` into register `dst` for the mask's active
    /// lanes; masked-off lanes keep their register values. An assignment
    /// stores through here only under a partial mask or from a tape that
    /// runs no instruction.
    fn store_column(&mut self, dst: u32, src: u32, mask: &WMask) {
        if dst == src {
            // A register assigned to itself.
            return;
        }
        let lanes = self.lanes;
        let (d, below, above) = split_col(&mut self.regs, lanes, dst);
        let s = col(below, above, lanes, dst, src);
        if mask.all {
            d.copy_from_slice(s);
        } else {
            for ((o, &b), &on) in d.iter_mut().zip(s).zip(&mask.on) {
                if on {
                    *o = b;
                }
            }
        }
    }

    /// Evaluates a tape's register form across every lane of the group in
    /// one instruction-major sweep: each instruction is a single dispatch
    /// followed by a per-opcode loop over the lanes.
    ///
    /// Infallible instructions run *unmasked* at full width — a masked-off
    /// (or already-faulted) lane's column values are garbage that nothing
    /// downstream may observe (register stores, memory traffic, counters,
    /// and fault checks are all mask-predicated by the caller), so
    /// computing them costs nothing semantically and buys check-free loops
    /// over distinct column slices ([`zip_col`]) that LLVM vectorizes even
    /// under heavy divergence. Only fallible instructions (integer div/rem
    /// with a zero divisor in the column, non-float unops, conversions)
    /// consult the mask, because a dead lane must not fault.
    ///
    /// The result is left in column `tape.result`. Faults are
    /// recorded per lane — a faulted lane is masked out of subsequent
    /// fallible instructions of the same tape — and returned for the
    /// caller to interleave with its own per-lane checks in lane-ascending
    /// order, reproducing exactly the error the per-lane engine would
    /// pick.
    fn weval(&mut self, tape: &Tape, mask: &WMask) -> SResult<TapeFaults> {
        self.weval_into(tape, tape.result, mask)
    }

    /// [`GroupRun::weval`], with the tape's last instruction writing
    /// column `out` in place of `tape.result`: no instruction after it
    /// reads that temporary, so the result lands in `out` and nothing
    /// else changes.
    fn weval_into(&mut self, tape: &Tape, out: u32, mask: &WMask) -> SResult<TapeFaults> {
        let lanes = self.lanes;
        let dk = self.dk;
        let (group_id, group_size, num_threads) =
            (self.group_id, self.group_size, self.num_threads);
        let scalar_bits = self.scalar_bits;
        let s: &mut [u64] = &mut self.regs;
        let on: &[bool] = &mask.on;
        let mut faults: Option<Box<[Option<SimError>]>> = None;

        macro_rules! fill1 {
            ($dst:expr, |$l:ident| $e:expr) => {{
                let d = $dst as usize * lanes;
                for ($l, o) in s[d..d + lanes].iter_mut().enumerate() {
                    *o = $e;
                }
            }};
        }

        let instrs = dk.winstrs(tape);
        for (k, &ins) in instrs.iter().enumerate() {
            let ins = if k + 1 == instrs.len() {
                ins.with_dst(out)
            } else {
                ins
            };
            match ins {
                WInstr::Const { dst, bits } => fill1!(dst, |_l| bits),
                WInstr::GlobalId { dst } => {
                    fill1!(dst, |l| (group_id * group_size + l as u64) as i64 as u64)
                }
                WInstr::GroupId { dst } => fill1!(dst, |_l| group_id as i64 as u64),
                WInstr::LocalId { dst } => fill1!(dst, |l| l as i64 as u64),
                WInstr::GroupSize { dst } => fill1!(dst, |_l| group_size as i64 as u64),
                WInstr::NumThreads { dst } => fill1!(dst, |_l| num_threads as i64 as u64),
                WInstr::ScalarArg { dst, arg } => {
                    // A missing scalar argument faults every lane alike;
                    // the per-lane engine reported it at the first active
                    // lane, before any other lane's checks could run.
                    let bits = scalar_bits[arg as usize].ok_or_else(|| {
                        SimError::Scalar(format!("argument {arg} is not a scalar"))
                    })?;
                    fill1!(dst, |_l| bits)
                }
                WInstr::Bin { op, t, dst, a, b } => {
                    bin_col(op, t, s, lanes, [dst, a, b], on, &mut faults)
                }
                WInstr::Cmp { op, t, dst, a, b } => cmp_col(op, t, s, lanes, [dst, a, b]),
                WInstr::Un { op, t, dst, a } => un_col(op, t, s, lanes, [dst, a], on, &mut faults),
                WInstr::Conv { from, to, dst, a } => {
                    let (di, ai) = (dst as usize * lanes, a as usize * lanes);
                    for l in 0..lanes {
                        if on[l] && !lane_faulted(&faults, l) {
                            match eval_convert(to, dec(from, s[ai + l])) {
                                Ok(r) => s[di + l] = enc(r),
                                Err(e) => record_fault(
                                    &mut faults,
                                    lanes,
                                    l,
                                    SimError::Scalar(e.to_string()),
                                ),
                            }
                        }
                    }
                }
            }
        }
        Ok(TapeFaults(faults))
    }

    /// The warp execution engine: statement-major like [`GroupRun::exec`]
    /// (so error precedence and every counter stay bit-identical), but a
    /// column at a time. Each statement is one dispatch followed by dense
    /// loops over the group's lanes: its tapes evaluate via
    /// [`GroupRun::weval`], a memory statement converts its index column
    /// once into `icol`, scans every active lane for a fault in one
    /// branch-free pass, and then moves whole columns of bits — gathers
    /// from the launch snapshot, column writes into the group's window —
    /// and control flow takes a uniform fast path when all
    /// active lanes agree, skipping per-lane mask rebuilds entirely.
    ///
    /// The fault-scan contract: only when a scan (or a tape) reports a
    /// fault does a statement walk its lanes in ascending order, checking
    /// each lane's index-tape fault, bounds and value-tape fault in the
    /// per-lane engine's order, so the error that wins is the one
    /// lane-by-lane execution reports.
    fn wexec(&mut self, stms: &[DStm], mask: &WMask) -> SResult<()> {
        if !mask.any {
            return Ok(());
        }
        let lanes = self.lanes;
        let snapshot: &'a DeviceMemory = self.base;
        for stm in stms {
            self.cur_site = stm.site as usize;
            match &stm.kind {
                DKind::Assign { reg, exp } => {
                    self.issue_w(mask, exp.cost());
                    // Under a full mask the tape's last instruction writes
                    // the register itself. Under a partial one it may not:
                    // infallible instructions write inactive lanes too.
                    let in_place = mask.all && exp.len > 0;
                    let out = if in_place { *reg } else { exp.result };
                    let tf = self.weval_into(exp, out, mask)?;
                    if let Some((_, e)) = tf.into_first() {
                        return Err(e);
                    }
                    if !in_place {
                        self.store_column(*reg, exp.result, mask);
                    }
                }
                DKind::GlobalRead { reg, buf, index } => {
                    self.issue_w(mask, index.cost());
                    let bid = self.buffer(*buf)?;
                    let src = snapshot.raw(bid);
                    let len = src.len();
                    let tf = self.weval(index, mask)?;
                    self.index_column(index);
                    if let Some(e) = self.column_fault(
                        mask,
                        (tf, TapeFaults(None)),
                        false,
                        |_| len,
                        |i, n| format!("read {i} of buffer len {n}"),
                    ) {
                        return Err(e);
                    }
                    self.gather_global(*reg, bid, src, mask);
                    self.memory_access(&mask.on, mask.all, src.elem_type().byte_size() as u64);
                }
                DKind::GlobalWrite { buf, index, value } => {
                    self.issue_w(mask, index.cost() + value.cost());
                    let bid = self.buffer(*buf)?;
                    let src = snapshot.raw(bid);
                    let len = src.len();
                    let tfi = self.weval(index, mask)?;
                    self.index_column(index);
                    let tfv = self.weval(value, mask)?;
                    if let Some(e) = self.column_fault(
                        mask,
                        (tfi, tfv),
                        false,
                        |_| len,
                        |i, n| format!("write {i} of buffer len {n}"),
                    ) {
                        return Err(e);
                    }
                    let rv = value.result as usize * lanes;
                    let (idx, vals) = (&self.icol, &self.regs[rv..rv + lanes]);
                    self.writes.window(bid).set_column(idx, vals, mask);
                    self.memory_access(&mask.on, mask.all, src.elem_type().byte_size() as u64);
                }
                DKind::LocalRead { reg, mem, index } => {
                    self.issue_w(mask, index.cost());
                    let tf = self.weval(index, mask)?;
                    self.index_column(index);
                    let len = self.locals[*mem].len();
                    if let Some(e) = self.column_fault(
                        mask,
                        (tf, TapeFaults(None)),
                        false,
                        |_| len,
                        |i, n| format!("local read {i} of len {n}"),
                    ) {
                        return Err(e);
                    }
                    let at = *reg as usize * lanes;
                    let (idx, local) = (&self.icol, &self.locals[*mem]);
                    store_lanes(&mut self.regs[at..at + lanes], mask, |l| {
                        local[idx[l] as usize]
                    });
                    self.count_local(mask.active);
                }
                DKind::LocalWrite { mem, index, value } => {
                    self.issue_w(mask, index.cost() + value.cost());
                    let tfi = self.weval(index, mask)?;
                    self.index_column(index);
                    let tfv = self.weval(value, mask)?;
                    let len = self.locals[*mem].len();
                    // The per-lane engine checked bounds after evaluating
                    // the value.
                    if let Some(e) = self.column_fault(
                        mask,
                        (tfi, tfv),
                        true,
                        |_| len,
                        |i, n| format!("local write {i} of len {n}"),
                    ) {
                        return Err(e);
                    }
                    let rv = value.result as usize * lanes;
                    let (idx, vals) = (&self.icol, &self.regs[rv..rv + lanes]);
                    let local = &mut self.locals[*mem];
                    for l in (0..lanes).filter(|&l| mask.on[l]) {
                        local[idx[l] as usize] = vals[l];
                    }
                    self.count_local(mask.active);
                }
                DKind::PrivAlloc { arr, size } => {
                    self.issue_w(mask, size.cost());
                    let mut tf = self.weval(size, mask)?;
                    self.index_column(size);
                    // Lane-ascending, as the per-lane engine allocated: a
                    // lane's size fault, then its allocation.
                    for l in (0..lanes).filter(|&l| mask.on[l]) {
                        if let Some(e) = tf.take(l) {
                            return Err(e);
                        }
                        let n = self.icol[l].max(0) as usize;
                        self.reserve_private(*arr, l, n)?;
                        // An array of the same length is zeroed in place:
                        // it is charged, and holds, exactly `n` elements.
                        let p = &mut self.privs[*arr * lanes + l];
                        if p.len() == n {
                            p.fill(0);
                        } else {
                            *p = vec![0u64; n];
                        }
                    }
                }
                DKind::PrivRead { reg, arr, index } => {
                    self.issue_w(mask, index.cost());
                    let tf = self.weval(index, mask)?;
                    self.index_column(index);
                    let ps = &self.privs[*arr * lanes..(*arr + 1) * lanes];
                    if let Some(e) = self.column_fault(
                        mask,
                        (tf, TapeFaults(None)),
                        false,
                        |l| ps[l].len(),
                        |i, n| format!("private read {i} of len {n}"),
                    ) {
                        return Err(e);
                    }
                    let at = *reg as usize * lanes;
                    let (idx, dst) = (&self.icol, &mut self.regs[at..at + lanes]);
                    if mask.all {
                        for ((o, &i), p) in dst.iter_mut().zip(idx).zip(ps) {
                            *o = p[i as usize];
                        }
                    } else {
                        store_lanes(dst, mask, |l| ps[l][idx[l] as usize]);
                    }
                }
                DKind::PrivWrite { arr, index, value } => {
                    self.issue_w(mask, index.cost() + value.cost());
                    let tfi = self.weval(index, mask)?;
                    self.index_column(index);
                    let tfv = self.weval(value, mask)?;
                    let ps = &self.privs[*arr * lanes..(*arr + 1) * lanes];
                    if let Some(e) = self.column_fault(
                        mask,
                        (tfi, tfv),
                        true,
                        |l| ps[l].len(),
                        |i, n| format!("private write {i} of len {n}"),
                    ) {
                        return Err(e);
                    }
                    let rv = value.result as usize * lanes;
                    let (idx, vals) = (&self.icol, &self.regs[rv..rv + lanes]);
                    let ps = &mut self.privs[*arr * lanes..(*arr + 1) * lanes];
                    if mask.all {
                        for ((p, &i), &v) in ps.iter_mut().zip(idx).zip(vals) {
                            p[i as usize] = v;
                        }
                    } else {
                        for l in (0..lanes).filter(|&l| mask.on[l]) {
                            ps[l][idx[l] as usize] = vals[l];
                        }
                    }
                }
                DKind::PrivCopy { dst, src, len } => {
                    self.issue_w(mask, len.cost());
                    let mut tf = self.weval(len, mask)?;
                    self.index_column(len);
                    for l in (0..lanes).filter(|&l| mask.on[l]) {
                        if let Some(e) = tf.take(l) {
                            return Err(e);
                        }
                        let n = self.icol[l].max(0) as usize;
                        let have = self.privs[*src * lanes + l].len();
                        if n > have {
                            return Err(self.oob(format!("private copy {n} of len {have}")));
                        }
                        self.reserve_private(*dst, l, n)?;
                        // Into an array of the same length, in place.
                        let (s, d) = (*src * lanes + l, *dst * lanes + l);
                        if self.privs[d].len() != n {
                            self.privs[d] = self.privs[s][..n].to_vec();
                        } else if s != d {
                            let mut to = std::mem::take(&mut self.privs[d]);
                            to.copy_from_slice(&self.privs[s][..n]);
                            self.privs[d] = to;
                        }
                    }
                }
                DKind::For { reg, bound, body } => {
                    self.issue_w(mask, bound.cost());
                    let at = *reg as usize * lanes;
                    let tf = self.weval(bound, mask)?;
                    if let Some((_, e)) = tf.into_first() {
                        return Err(e);
                    }
                    self.index_column(bound);
                    // A copy of the bounds: the body recurses through the
                    // shared index column.
                    let bounds = self.take_bounds();
                    let mut active = (0..lanes).filter(|&l| mask.on[l]).map(|l| bounds[l]);
                    let first = active.next();
                    let uniform = active.all(|b| Some(b) == first);
                    if uniform {
                        // Uniform fast path: every active lane runs the
                        // same trip count, so the per-iteration sub-mask
                        // is the loop mask itself — never rebuilt.
                        let b = first.unwrap_or(0);
                        for t in 0..b {
                            store_lanes(&mut self.regs[at..at + lanes], mask, |_| t as u64);
                            self.wexec(body, mask)?;
                        }
                    } else {
                        let max_bound = (0..lanes)
                            .filter(|&l| mask.on[l])
                            .map(|l| bounds[l])
                            .max()
                            .unwrap_or(0);
                        let ws = self.warp_size;
                        let mut sub = WMask::new(self.take_bits(), ws);
                        for t in 0..max_bound {
                            for l in 0..lanes {
                                sub.on[l] = mask.on[l] && t < bounds[l];
                            }
                            sub.recompute(ws);
                            if !sub.any {
                                break;
                            }
                            store_lanes(&mut self.regs[at..at + lanes], &sub, |_| t as u64);
                            self.wexec(body, &sub)?;
                        }
                        let bits = sub.on;
                        self.put_bits(bits);
                    }
                    self.put_bounds(bounds);
                }
                DKind::While { cond, body } => {
                    let ws = self.warp_size;
                    let mut live = {
                        let mut v = self.take_bits();
                        v.copy_from_slice(&mask.on);
                        WMask::new(v, ws)
                    };
                    let mut iterations = 0u64;
                    loop {
                        // The body's statements move the site; the
                        // condition is the loop's own.
                        self.cur_site = stm.site as usize;
                        self.issue_w(&live, cond.cost());
                        let tf = self.weval(cond, &live)?;
                        if let Some((_, e)) = tf.into_first() {
                            return Err(e);
                        }
                        let r = cond.result as usize * lanes;
                        let mut dropped = false;
                        for (on, &c) in live.on.iter_mut().zip(&self.regs[r..r + lanes]) {
                            dropped |= *on & (c == 0);
                            *on &= c != 0;
                        }
                        if dropped {
                            live.recompute(ws);
                        }
                        if !live.any {
                            break;
                        }
                        self.wexec(body, &live)?;
                        iterations += 1;
                        if iterations > MAX_WHILE_ITERATIONS {
                            return Err(SimError::RunawayLoop {
                                kernel: self.dk.name.clone(),
                            });
                        }
                    }
                    let bits = live.on;
                    self.put_bits(bits);
                }
                DKind::If {
                    cond,
                    then_s,
                    else_s,
                } => {
                    self.issue_w(mask, cond.cost());
                    let tf = self.weval(cond, mask)?;
                    if let Some((_, e)) = tf.into_first() {
                        return Err(e);
                    }
                    let r = cond.result as usize * lanes;
                    let (mut any_t, mut any_f) = (false, false);
                    for (&on, &c) in mask.on.iter().zip(&self.regs[r..r + lanes]) {
                        any_t |= on & (c != 0);
                        any_f |= on & (c == 0);
                    }
                    if any_t && any_f {
                        // Divergent: split the mask and run both arms.
                        let ws = self.warp_size;
                        let mut tb = self.take_bits();
                        let mut eb = self.take_bits();
                        for l in 0..lanes {
                            if mask.on[l] {
                                let c = self.regs[r + l] != 0;
                                tb[l] = c;
                                eb[l] = !c;
                            }
                        }
                        let tm = WMask::new(tb, ws);
                        let em = WMask::new(eb, ws);
                        self.wexec(then_s, &tm)?;
                        self.wexec(else_s, &em)?;
                        self.put_bits(tm.on);
                        self.put_bits(em.on);
                    } else {
                        // Uniform: all active lanes agree. The untaken
                        // branch would run under an all-false mask — a
                        // no-op with zero counters — so skip it outright.
                        if any_t {
                            self.wexec(then_s, mask)?;
                        } else {
                            self.wexec(else_s, mask)?;
                        }
                    }
                }
                DKind::Barrier => {
                    if !mask.all {
                        return Err(SimError::DivergentBarrier {
                            kernel: self.dk.name.clone(),
                        });
                    }
                    self.site().barriers += 1;
                    self.issue_w(mask, 0);
                }
            }
        }
        Ok(())
    }
}

/// Runs one work-group against the shared memory snapshot and returns its
/// per-site counters and write log, on the engine the kernel's decoded
/// form picks.
#[allow(clippy::too_many_arguments)]
fn run_group(
    dk: &DecodedKernel,
    device: &DeviceProfile,
    base: &DeviceMemory,
    buf_ids: &[Option<BufId>],
    scalar_bits: &[Option<u64>],
    local_sizes: &[(ScalarType, usize)],
    group_id: u64,
    lanes: usize,
    num_threads: u64,
) -> SResult<GroupOut> {
    let n_sites = dk.n_sites;
    let reference = matches!(dk.instrs, Instrs::Postfix(_));
    let mut run = GroupRun {
        dk,
        base,
        buf_ids,
        scalar_bits,
        group_id,
        group_size: device.group_size as u64,
        num_threads,
        lanes,
        warp_size: device.warp_size as usize,
        transaction_bytes: device.transaction_bytes,
        regs: vec![0u64; dk.columns as usize * lanes],
        privs: vec![Vec::new(); dk.priv_class.len() * lanes],
        priv_bytes: 0,
        capacity: device.global_mem_bytes,
        locals: local_sizes.iter().map(|&(_, n)| vec![0u64; n]).collect(),
        writes: Overlays::default(),
        stack: Vec::new(),
        segs: Vec::with_capacity(device.warp_size as usize),
        icol: vec![0i64; lanes],
        mask_pool: Vec::new(),
        bounds_pool: Vec::new(),
        sites: vec![SiteStats::default(); n_sites],
        cur_site: n_sites - 1,
    };
    if reference {
        let mask = vec![true; lanes];
        run.exec(&dk.body, &mask)?;
    } else {
        let mask = WMask::new(vec![true; lanes], run.warp_size);
        run.wexec(&dk.body, &mask)?;
    }
    Ok(GroupOut {
        writes: run.writes,
        sites: run.sites,
    })
}

// ---------------------------------------------------------------------------
// Launch
// ---------------------------------------------------------------------------

/// Evaluates a local-buffer size expression, which must be uniform across
/// the group: built from constants, `GroupSize`, scalar arguments, and
/// binary operators, all at i64.
fn eval_uniform(e: &KExp, group_size: u64, scalars: &[Option<Scalar>]) -> SResult<i64> {
    match e {
        KExp::Const(k) => k
            .as_i64()
            .ok_or_else(|| SimError::Scalar("non-integer uniform expression".into())),
        KExp::GroupSize => Ok(group_size as i64),
        KExp::ScalarArg(i) => scalars
            .get(*i)
            .copied()
            .flatten()
            .and_then(|s| s.as_i64())
            .ok_or_else(|| SimError::Scalar("bad scalar argument".into())),
        KExp::BinOp(op, a, b) => {
            let x = eval_uniform(a, group_size, scalars)?;
            let y = eval_uniform(b, group_size, scalars)?;
            eval_binop(*op, Scalar::I64(x), Scalar::I64(y))
                .map_err(|e| SimError::Scalar(e.to_string()))?
                .as_i64()
                .ok_or_else(|| SimError::Scalar("non-integer uniform".into()))
        }
        _ => Err(SimError::Scalar(
            "local size must be built from constants and scalar args".into(),
        )),
    }
}

/// The default number of host threads for group execution: the
/// `FUTHARK_SIM_THREADS` environment variable if set (minimum 1), else the
/// machine's available parallelism. Read from the environment on every
/// call — this is a *default-only fallback*, consulted when building
/// [`RunOptions`] defaults; explicit per-request overrides
/// always win.
pub fn host_threads() -> usize {
    match std::env::var("FUTHARK_SIM_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// The engine of [`RunOptions::engine`], which selects nothing: how a
/// kernel was decoded picks its engine. It goes with that field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// The warp engine.
    Warp,
}

/// Execution options for a run ([`crate::exec::run`]) and for each of
/// its launches ([`launch`]).
///
/// The default reads the thread count from the environment
/// ([`host_threads`]) at construction time, as a default-only fallback:
/// explicit fields always win, per request — nothing is latched
/// process-wide, so a long-lived server honours each job's own
/// thread-count setting. Differential comparisons that must hold two runs
/// to one configuration should build one `RunOptions` and reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Host worker threads for parallel group execution (`1` = sequential).
    pub threads: usize,
    /// Changes nothing: every run counts per source site, and no code
    /// reads it. The benchmark's adapter still sets it; the next change
    /// to the benchmark deletes it.
    pub profile: bool,
    /// Selects nothing: its only value is [`SimEngine::Warp`] and no code
    /// reads it. The benchmark's adapter still sets it; the next change
    /// to the benchmark deletes it.
    pub engine: SimEngine,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: host_threads(),
            profile: false,
            engine: SimEngine::Warp,
        }
    }
}

/// Everything one launch produced: its counters per source site, and the
/// aggregate they sum to.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchOut {
    /// Aggregate execution counters: `threads`, and the sum of `sites`
    /// for every other field (bit-identical across engines and thread
    /// counts).
    pub stats: KernelStats,
    /// Per-site counters: one per entry of the kernel's
    /// [`Kernel::prov_table`], then the unattributed bucket.
    pub sites: Vec<SiteStats>,
}

/// Minimum group count before spawning worker threads: below this the
/// per-thread setup costs more than the parallelism recovers.
const PAR_MIN_GROUPS: u64 = 2;

/// Launches a pre-decoded kernel over `num_threads` threads, executing
/// independent work-groups on up to `opts.threads` host threads, and
/// bucketing counters by source site (the decoded kernel's provenance
/// table; the extra final slot is the unattributed bucket). The kernel
/// runs on the warp engine if it was decoded by
/// [`DecodedKernel::decode`], and on the per-lane reference engine if by
/// [`DecodedKernel::reference`]. Results — device memory, the returned
/// counters, and any error — are bit-identical for every thread count
/// and engine (see the module docs
/// for the memory model that guarantees this). The kernel is decoded
/// once, ahead of any launch (a compiled program decodes all of its
/// kernels at compile time, [`crate::exec::DecodedPlan`]), and a launch
/// only reads it.
///
/// # Errors
///
/// Returns a [`SimError`] on faults (bounds, divergent barriers, runaway
/// loops, negative local-memory sizes). When several groups fault, the
/// lowest-numbered group's error is reported, after committing the writes
/// of the groups before it — exactly what sequential execution observed.
pub fn launch(
    device: &DeviceProfile,
    dk: &DecodedKernel,
    num_threads: u64,
    args: &[Arg],
    mem: &mut DeviceMemory,
    opts: &RunOptions,
) -> SResult<LaunchOut> {
    let threads = opts.threads;
    // Tapes index the arguments by parameter position.
    if args.len() != dk.params.len() {
        return Err(SimError::Malformed {
            kernel: dk.name.clone(),
            what: format!(
                "{} launch arguments for {} parameters",
                args.len(),
                dk.params.len()
            ),
        });
    }
    let group_size = device.group_size as u64;
    let num_groups = num_threads.div_ceil(group_size).max(1);
    // Resolve launch arguments once.
    let mut buf_ids: Vec<Option<BufId>> = vec![None; args.len()];
    let mut scalar_bits: Vec<Option<u64>> = vec![None; args.len()];
    let mut scalars: Vec<Option<Scalar>> = vec![None; args.len()];
    for (i, a) in args.iter().enumerate() {
        match a {
            Arg::Buffer(b) => buf_ids[i] = Some(*b),
            Arg::Scalar(s) => {
                scalar_bits[i] = Some(enc(*s));
                scalars[i] = Some(*s);
            }
        }
    }
    // Buffer arguments must carry the element type the kernel declared:
    // registers are statically classed from the declaration, so a mismatch
    // would silently reinterpret bits.
    for (i, p) in dk.params.iter().enumerate() {
        if let (KParam::Buffer(want), Some(Some(bid))) = (p, buf_ids.get(i)) {
            let got = mem
                .download(*bid)
                .map_err(|_| SimError::UseAfterFree {
                    buf: *bid,
                    what: format!("buffer argument {i} of kernel `{}`", dk.name),
                })?
                .elem_type();
            if got != *want {
                return Err(SimError::Scalar(format!(
                    "buffer argument {i} has element type {got:?}, kernel `{}` expects {want:?}",
                    dk.name
                )));
            }
        }
        if let (KParam::Scalar(want), Some(Some(s))) = (p, scalars.get(i)) {
            let got = s.scalar_type();
            if got != *want {
                return Err(SimError::Scalar(format!(
                    "scalar argument {i} has type {got:?}, kernel `{}` expects {want:?}",
                    dk.name
                )));
            }
        }
    }
    // Size local buffers once per launch (they are uniform by
    // construction). A negative requested size is a fault, not an empty
    // buffer.
    let mut local_sizes: Vec<(ScalarType, usize)> = Vec::with_capacity(dk.locals.len());
    for (t, size) in &dk.locals {
        let n = eval_uniform(size, group_size, &scalars)?;
        if n < 0 {
            return Err(SimError::NegativeLocalSize {
                kernel: dk.name.clone(),
                requested: n,
            });
        }
        local_sizes.push((*t, n as usize));
    }

    let lanes_of = |g: u64| group_size.min(num_threads.saturating_sub(g * group_size)) as usize;
    let run_one = |g: u64, base: &DeviceMemory| -> Option<SResult<GroupOut>> {
        let lanes = lanes_of(g);
        if lanes == 0 {
            return None;
        }
        Some(run_group(
            dk,
            device,
            base,
            &buf_ids,
            &scalar_bits,
            &local_sizes,
            g,
            lanes,
            num_threads,
        ))
    };

    let workers = threads.min(num_groups as usize).max(1);
    let mut outs: Vec<Option<SResult<GroupOut>>> = Vec::with_capacity(num_groups as usize);
    if workers <= 1 || num_groups < PAR_MIN_GROUPS {
        let base: &DeviceMemory = mem;
        for g in 0..num_groups {
            outs.push(run_one(g, base));
        }
    } else {
        outs.resize_with(num_groups as usize, || None);
        let base: &DeviceMemory = mem;
        let slots: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let run_one = &run_one;
                    s.spawn(move || {
                        // Strided group assignment balances uneven groups.
                        let mut mine = Vec::new();
                        let mut g = w as u64;
                        while g < num_groups {
                            mine.push((g, run_one(g, base)));
                            g += workers as u64;
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("simulator worker panicked"))
                .collect()
        });
        for (g, out) in slots {
            outs[g as usize] = out;
        }
    }

    // Commit in ascending group order: write logs are applied and counters
    // merged deterministically, and the lowest faulting group's error wins
    // with exactly its predecessors' writes committed.
    let mut sites = vec![SiteStats::default(); dk.n_sites];
    for out in outs.into_iter().flatten() {
        let out = out?;
        for (bid, win) in &out.writes.0 {
            win.commit(mem.raw_mut(*bid));
        }
        for (t, g) in sites.iter_mut().zip(&out.sites) {
            t.merge(g);
        }
    }
    let stats = KernelStats::of_sites(num_threads, &sites);
    Ok(LaunchOut { stats, sites })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KParam, KStm};
    use futhark_core::Prov;

    /// On `threads` host threads.
    fn threads_only(threads: usize) -> RunOptions {
        RunOptions {
            threads,
            ..RunOptions::default()
        }
    }

    /// `k` decoded for each engine: the reference first, then the warp
    /// engine.
    fn both_forms(k: &Kernel) -> [(&'static str, DecodedKernel); 2] {
        [
            ("reference", DecodedKernel::reference(k).unwrap()),
            ("warp", DecodedKernel::decode(k).unwrap()),
        ]
    }

    fn square_kernel() -> Kernel {
        // out[i] = in[i] * in[i]
        Kernel {
            name: "square".into(),
            params: vec![
                KParam::Buffer(ScalarType::I64),
                KParam::Buffer(ScalarType::I64),
            ],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::GlobalWrite {
                    buf: 1,
                    index: KExp::GlobalId,
                    value: KExp::Var(0).mul(KExp::Var(0)),
                },
            ],
        }
    }

    #[test]
    fn decode_infers_register_classes() {
        // A buffer read, a scalar argument and a comparison each give
        // their register a class. Every destination is the register's own
        // column, and the tapes that read a register carry its class.
        let k = Kernel {
            name: "mixed".into(),
            params: vec![
                KParam::Buffer(ScalarType::F64),
                KParam::Scalar(ScalarType::I64),
            ],
            locals: vec![],
            num_regs: 3,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::Assign {
                    var: 1,
                    exp: KExp::ScalarArg(1),
                },
                KStm::Assign {
                    var: 2,
                    exp: KExp::Cmp(
                        futhark_core::CmpOp::Lt,
                        Box::new(KExp::Var(1)),
                        Box::new(KExp::i64(3)),
                    ),
                },
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::Var(0),
                },
            ],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        let body = kinds(&dk.body);
        let [DKind::GlobalRead { reg: 0, .. }, DKind::Assign { reg: 1, exp: arg }, DKind::Assign { reg: 2, exp: cmp }, DKind::GlobalWrite { value, .. }] =
            &body[..]
        else {
            panic!("unexpected statements {:?}", dk.body)
        };
        assert_eq!(arg.class, ScalarType::I64);
        assert_eq!(cmp.class, ScalarType::Bool);
        // The comparison reads register 1 at its class, i64, in place.
        assert_eq!(
            dk.winstrs(cmp),
            [
                WInstr::Const { dst: 3, bits: 3 },
                WInstr::Cmp {
                    op: CmpOp::Lt,
                    t: ScalarType::I64,
                    dst: 3,
                    a: 1,
                    b: 3
                }
            ]
        );
        // Register 0 holds the f64 buffer's elements.
        assert_eq!((value.class, value.result), (ScalarType::F64, 0));
    }

    #[test]
    fn register_reads_are_columns_not_instructions() {
        // Instructions read registers in place: a tape that only reads `x`
        // holds no instruction and leaves its result in `x`'s column, and
        // `x + y` is one `Bin` over the two registers' columns into the
        // first temporary above them.
        let k = Kernel {
            name: "reads".into(),
            params: vec![KParam::Buffer(ScalarType::I64); 2],
            locals: vec![],
            num_regs: 2,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::Assign {
                    var: 1,
                    exp: KExp::Var(0),
                },
                KStm::GlobalWrite {
                    buf: 1,
                    index: KExp::GlobalId,
                    value: KExp::Var(0).add(KExp::Var(1)),
                },
            ],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        let body = kinds(&dk.body);
        let [_, DKind::Assign { reg: 1, exp: read }, DKind::GlobalWrite { value: sum, .. }] =
            &body[..]
        else {
            panic!("unexpected statements {:?}", dk.body)
        };
        assert_eq!(dk.winstrs(read), []);
        assert_eq!(read.result, 0);
        assert_eq!(
            dk.winstrs(sum),
            [WInstr::Bin {
                op: BinOp::Add,
                t: ScalarType::I64,
                dst: 2,
                a: 0,
                b: 1
            }]
        );
        assert_eq!(sum.result, 2);
        assert_eq!(dk.columns, 3);
        // Both engines double the input.
        let dev = DeviceProfile::gtx780();
        let n = 300usize;
        for (engine, dk) in &both_forms(&k) {
            let mut mem = DeviceMemory::new();
            let a = mem
                .upload(Buffer::I64((0..n as i64).map(|i| i - 7).collect()))
                .unwrap();
            let out = mem.alloc(ScalarType::I64, n).unwrap();
            let args = [Arg::Buffer(a), Arg::Buffer(out)];
            launch(&dev, dk, n as u64, &args, &mut mem, &threads_only(1)).unwrap();
            let Buffer::I64(v) = mem.download(out).unwrap() else {
                panic!()
            };
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, 2 * (i as i64 - 7), "{engine}, lane {i}");
            }
        }
    }

    #[test]
    fn decode_rejects_register_class_conflicts() {
        let k = Kernel {
            name: "conflict".into(),
            params: vec![KParam::Scalar(ScalarType::I64)],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
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
        };
        assert!(DecodedKernel::decode(&k).is_err());
    }

    #[test]
    fn decode_rejects_markers_past_the_provenance_table() {
        let k = Kernel {
            name: "stray".into(),
            params: vec![],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
            prov_table: vec![Prov::line(1)],
            body: vec![KStm::At {
                prov: 1,
                body: vec![KStm::Assign {
                    var: 0,
                    exp: KExp::i64(1),
                }],
            }],
        };
        for (engine, got) in [
            ("reference", DecodedKernel::reference(&k)),
            ("warp", DecodedKernel::decode(&k)),
        ] {
            assert!(
                matches!(got, Err(SimError::Malformed { ref kernel, .. }) if kernel == "stray"),
                "{engine}: {:?}",
                got.err()
            );
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical_to_sequential() {
        let dev = DeviceProfile::gtx780();
        let dk = DecodedKernel::decode(&square_kernel()).unwrap();
        let n = 10_000usize;
        let run = |threads: usize| {
            let mut mem = DeviceMemory::new();
            let a = mem
                .upload(Buffer::I64((0..n as i64).map(|i| i - 5000).collect()))
                .unwrap();
            let out = mem.alloc(ScalarType::I64, n).unwrap();
            let stats = launch(
                &dev,
                &dk,
                n as u64,
                &[Arg::Buffer(a), Arg::Buffer(out)],
                &mut mem,
                &threads_only(threads),
            )
            .unwrap()
            .stats;
            (stats, mem.download(out).unwrap().clone())
        };
        let (seq_stats, seq_out) = run(1);
        for threads in [2, 3, 8] {
            let (par_stats, par_out) = run(threads);
            assert_eq!(seq_stats, par_stats, "stats differ at {threads} threads");
            assert_eq!(seq_out, par_out, "outputs differ at {threads} threads");
        }
    }

    #[test]
    fn cross_group_scatter_conflicts_resolve_in_group_order() {
        // Every thread writes its group id to out[0]: the last group wins,
        // deterministically, at any host-thread count.
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "conflict".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 0,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::GlobalWrite {
                buf: 0,
                index: KExp::i64(0),
                value: KExp::GroupId,
            }],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        let n = 4 * dev.group_size as u64; // four full groups
        for threads in [1, 2, 4] {
            let mut mem = DeviceMemory::new();
            let out = mem.alloc(ScalarType::I64, 1).unwrap();
            launch(
                &dev,
                &dk,
                n,
                &[Arg::Buffer(out)],
                &mut mem,
                &threads_only(threads),
            )
            .unwrap();
            let Buffer::I64(v) = mem.download(out).unwrap() else {
                panic!()
            };
            assert_eq!(v[0], 3, "at {threads} threads");
        }
    }

    #[test]
    fn lowest_faulting_group_wins_and_predecessors_commit() {
        // Group 0 writes out[0] = 7; group 1 reads out of bounds. The
        // error must be group 1's, and group 0's write must be visible.
        let dev = DeviceProfile::gtx780();
        let gs = dev.group_size as i64;
        let k = Kernel {
            name: "fault".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::If {
                cond: KExp::Cmp(
                    futhark_core::CmpOp::Eq,
                    Box::new(KExp::GroupId),
                    Box::new(KExp::i64(0)),
                ),
                then_s: vec![KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::LocalId.rem(KExp::i64(2)),
                    value: KExp::i64(7),
                }],
                else_s: vec![KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::i64(1_000_000),
                }],
            }],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        for threads in [1, 4] {
            let mut mem = DeviceMemory::new();
            let out = mem.alloc(ScalarType::I64, 2).unwrap();
            let e = launch(
                &dev,
                &dk,
                2 * gs as u64,
                &[Arg::Buffer(out)],
                &mut mem,
                &threads_only(threads),
            )
            .unwrap_err();
            assert!(matches!(e, SimError::OutOfBounds { .. }), "at {threads}");
            let Buffer::I64(v) = mem.download(out).unwrap() else {
                panic!()
            };
            assert_eq!(&v[..], &[7, 7], "group 0's writes must be committed");
        }
    }

    #[test]
    fn floored_division_in_decoded_kernels() {
        // out[i] = (i - 8) / 3 over the tape engine must match the
        // interpreter's floored semantics.
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "floordiv".into(),
            params: vec![
                KParam::Buffer(ScalarType::I64),
                KParam::Buffer(ScalarType::I64),
            ],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::GlobalWrite {
                    buf: 1,
                    index: KExp::GlobalId,
                    value: KExp::Var(0).div(KExp::i64(3)),
                },
            ],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        let mut mem = DeviceMemory::new();
        let xs: Vec<i64> = (0..16).map(|i| i - 8).collect();
        let a = mem.upload(Buffer::I64(xs.clone())).unwrap();
        let out = mem.alloc(ScalarType::I64, 16).unwrap();
        launch(
            &dev,
            &dk,
            16,
            &[Arg::Buffer(a), Arg::Buffer(out)],
            &mut mem,
            &threads_only(1),
        )
        .unwrap();
        let Buffer::I64(v) = mem.download(out).unwrap() else {
            panic!()
        };
        for (x, got) in xs.iter().zip(v) {
            assert_eq!(*got, floor_div_i64(*x, 3), "{x} / 3");
        }
        assert_eq!(v[0], -3); // -8/3 floors to -3, not -2
    }

    #[test]
    fn negative_local_size_is_an_error() {
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "neglocal".into(),
            params: vec![KParam::Scalar(ScalarType::I64)],
            locals: vec![(ScalarType::I64, KExp::ScalarArg(0))],
            num_regs: 0,
            num_priv: 0,
            prov_table: vec![],
            body: vec![],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        let mut mem = DeviceMemory::new();
        let e = launch(
            &dev,
            &dk,
            8,
            &[Arg::Scalar(Scalar::I64(-5))],
            &mut mem,
            &threads_only(1),
        )
        .unwrap_err();
        assert!(
            matches!(e, SimError::NegativeLocalSize { requested: -5, .. }),
            "got {e:?}"
        );
    }

    #[test]
    fn group_reads_its_own_writes_through_the_overlay() {
        // Write out[id] = id, then read it back and double it, all in one
        // launch: reads must see the group's own earlier writes.
        let dev = DeviceProfile::gtx780();
        let k = Kernel {
            name: "rmw".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 1,
            num_priv: 0,
            prov_table: vec![],
            body: vec![
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::GlobalId,
                },
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::Var(0).mul(KExp::i64(2)),
                },
            ],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        for threads in [1, 4] {
            let mut mem = DeviceMemory::new();
            let out = mem.alloc(ScalarType::I64, 600).unwrap();
            launch(
                &dev,
                &dk,
                600,
                &[Arg::Buffer(out)],
                &mut mem,
                &threads_only(threads),
            )
            .unwrap();
            let Buffer::I64(v) = mem.download(out).unwrap() else {
                panic!()
            };
            assert_eq!(v[0], 0);
            assert_eq!(v[299], 598);
            assert_eq!(v[599], 1198);
        }
    }

    // -----------------------------------------------------------------------
    // Register allocator (reg_compile): determinism, sizing, type classes
    // -----------------------------------------------------------------------

    /// `out[i] = c1 + (c2 + (… + (c_depth + i)))`, built without the
    /// constant-folding helpers so the postfix stack reaches `depth + 1`
    /// live slots.
    fn deep_sum_kernel(depth: usize) -> Kernel {
        let mut e = KExp::GlobalId;
        for i in (1..=depth).rev() {
            e = KExp::BinOp(BinOp::Add, Box::new(KExp::i64(i as i64)), Box::new(e));
        }
        Kernel {
            name: "deep_sum".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 0,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::GlobalWrite {
                buf: 0,
                index: KExp::GlobalId,
                value: e,
            }],
        }
    }

    /// What each statement of a decoded body does.
    fn kinds(body: &[DStm]) -> Vec<&DKind> {
        body.iter().map(|s| &s.kind).collect()
    }

    /// The value tape of a kernel whose single statement is a GlobalWrite.
    fn write_value_tape(dk: &DecodedKernel) -> &Tape {
        assert_eq!(dk.body.len(), 1, "expected a single statement");
        write_value_tape_at(dk, 0)
    }

    /// The value tape of the GlobalWrite at statement `at`.
    fn write_value_tape_at(dk: &DecodedKernel, at: usize) -> &Tape {
        match &dk.body[at].kind {
            DKind::GlobalWrite { value, .. } => value,
            other => panic!("expected a GlobalWrite, found {other:?}"),
        }
    }

    #[test]
    fn decoded_statements_stay_compact() {
        // A tape is a range of its kernel's instruction arrays, so a
        // statement holds no instruction storage of its own.
        assert_eq!(std::mem::size_of::<Tape>(), 20);
        assert!(std::mem::size_of::<DStm>() <= 64);
    }

    #[test]
    fn each_decode_keeps_exactly_one_instruction_form() {
        // `decode` keeps only the register form and `reference` only the
        // postfix form, over the same tapes: register-compiling a
        // reference tape's ops gives the decoded tape's instructions.
        let k = deep_sum_kernel(20);
        let dk = DecodedKernel::decode(&k).unwrap();
        let rk = DecodedKernel::reference(&k).unwrap();
        let (Instrs::Register(_), Instrs::Postfix(_)) = (&dk.instrs, &rk.instrs) else {
            panic!("decode keeps the register form, reference the postfix form");
        };
        let (
            DKind::GlobalWrite {
                index: di,
                value: dv,
                ..
            },
            DKind::GlobalWrite {
                index: ri,
                value: rv,
                ..
            },
        ) = (&dk.body[0].kind, &rk.body[0].kind)
        else {
            panic!("expected a GlobalWrite in both");
        };
        for (d, r) in [(di, ri), (dv, rv)] {
            assert!(dk.ops(d).is_empty() && rk.winstrs(r).is_empty());
            let mut w = Vec::new();
            let (_, result) = reg_compile(rk.ops(r), k.num_regs, &mut w).unwrap();
            assert_eq!(w, dk.winstrs(d));
            assert_eq!(result, d.result);
        }
    }

    #[test]
    fn register_allocation_is_deterministic() {
        // Same tape, same assignment — decode twice and demand identical
        // register-form instructions (profgate's bit-for-bit baseline
        // depends on this).
        let k = deep_sum_kernel(20);
        let a = DecodedKernel::decode(&k).unwrap();
        let b = DecodedKernel::decode(&k).unwrap();
        let (ta, tb) = (write_value_tape(&a), write_value_tape(&b));
        assert_eq!(a.winstrs(ta), b.winstrs(tb));
        assert_eq!(a.columns, b.columns);
        assert_eq!(ta.result, tb.result);
        // And directly on the allocator, with every leaf opcode kind.
        let ops = vec![
            EOp::GlobalId,
            EOp::Const(7),
            EOp::Bin(BinOp::Add, ScalarType::I64),
            EOp::LocalId,
            EOp::Bin(BinOp::Mul, ScalarType::I64),
        ];
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        assert_eq!(reg_compile(&ops, 0, &mut wa), reg_compile(&ops, 0, &mut wb));
        assert_eq!(wa, wb);
        assert_eq!(
            wa.len(),
            ops.len(),
            "no register reads: one instruction per op"
        );
    }

    #[test]
    fn binary_ops_reuse_the_left_operand_register() {
        // The LIFO free list hands a binary op's destination its left
        // operand's register, so a left-leaning chain runs in two
        // registers flat.
        let ops = vec![
            EOp::Const(1),
            EOp::Const(2),
            EOp::Bin(BinOp::Add, ScalarType::I64),
            EOp::Const(3),
            EOp::Bin(BinOp::Add, ScalarType::I64),
        ];
        let mut winstrs = Vec::new();
        let (columns, result) = reg_compile(&ops, 0, &mut winstrs).unwrap();
        assert_eq!(columns, 2);
        assert_eq!(result, 0);
        for w in &winstrs {
            if let WInstr::Bin { dst, a, .. } = w {
                assert_eq!(dst, a, "destination must reuse the left operand");
            }
        }
    }

    #[test]
    fn reg_compile_rejects_structurally_invalid_tapes() {
        // A binary op with an empty stack: underflow, not a panic. These
        // tapes cannot come out of the decoder, but a hand-constructed
        // artifact fed to a long-lived server must be a structured error.
        let underflow = vec![EOp::Bin(BinOp::Add, ScalarType::I64)];
        let err = reg_compile(&underflow, 0, &mut Vec::new()).unwrap_err();
        assert!(err.contains("underflow"), "got: {err}");
        // An empty tape has no result.
        let err = reg_compile(&[], 0, &mut Vec::new()).unwrap_err();
        assert!(err.contains("empty"), "got: {err}");
        // Two pushes, no combining op: leftover operands.
        let unbalanced = vec![EOp::Const(1), EOp::Const(2)];
        let err = reg_compile(&unbalanced, 0, &mut Vec::new()).unwrap_err();
        assert!(err.contains("unbalanced"), "got: {err}");
    }

    #[test]
    fn corrupted_tape_is_a_malformed_error_not_a_panic() {
        // Decode a valid kernel for the reference engine, then corrupt the
        // write-value tape so its postfix ops underflow. The reference
        // engine (which interprets the ops directly) must fault with
        // SimError::Malformed — the structured error futharkd returns as a
        // job failure — rather than panicking and killing the process.
        let mut dk = DecodedKernel::reference(&square_kernel()).unwrap();
        let start = write_value_tape_at(&dk, 1).start as usize;
        let Instrs::Postfix(ops) = &mut dk.instrs else {
            panic!("a reference decode holds the postfix form")
        };
        ops[start] = EOp::Bin(BinOp::Mul, ScalarType::I64);
        let dev = DeviceProfile::gtx780();
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(ScalarType::I64, 8).unwrap();
        let b = mem.alloc(ScalarType::I64, 8).unwrap();
        let err = launch(
            &dev,
            &dk,
            8,
            &[Arg::Buffer(a), Arg::Buffer(b)],
            &mut mem,
            &threads_only(1),
        )
        .unwrap_err();
        match err {
            SimError::Malformed { kernel, what } => {
                assert_eq!(kernel, "square");
                assert!(what.contains("underflow"), "got: {what}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn deep_tapes_spill_past_the_register_file_and_still_evaluate() {
        let depth = 24usize;
        let dk = DecodedKernel::decode(&deep_sum_kernel(depth)).unwrap();
        // The register file is sized once, at decode, for the deepest
        // tape: one temporary per live stack slot.
        assert_eq!(dk.columns, depth as u32 + 1);
        // The deep tape must still evaluate correctly on both engines.
        let dev = DeviceProfile::gtx780();
        let n = 300usize;
        let base: i64 = (1..=depth as i64).sum();
        let run = |dk: &DecodedKernel| {
            let mut mem = DeviceMemory::new();
            let out = mem.alloc(ScalarType::I64, n).unwrap();
            let opts = threads_only(1);
            let out_run = launch(&dev, dk, n as u64, &[Arg::Buffer(out)], &mut mem, &opts).unwrap();
            (out_run.stats, mem.download(out).unwrap().clone())
        };
        let (wstats, wout) = run(&dk);
        let (lstats, lout) = run(&DecodedKernel::reference(&deep_sum_kernel(depth)).unwrap());
        assert_eq!(wstats, lstats);
        assert_eq!(wout, lout);
        let Buffer::I64(v) = wout else { panic!() };
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, base + i as i64);
        }
    }

    #[test]
    fn mixed_class_tapes_carry_inferred_types() {
        // i64 lane id → f64, scaled — the register form must carry the
        // conversion endpoints and the f64 operand class, and the tape's
        // own class must be the converted one.
        let k = Kernel {
            name: "mixed_tape".into(),
            params: vec![KParam::Buffer(ScalarType::F64)],
            locals: vec![],
            num_regs: 0,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::GlobalWrite {
                buf: 0,
                index: KExp::GlobalId,
                value: KExp::BinOp(
                    BinOp::Mul,
                    Box::new(KExp::Convert(ScalarType::F64, Box::new(KExp::GlobalId))),
                    Box::new(KExp::Const(Scalar::F64(0.5))),
                ),
            }],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        let tape = write_value_tape(&dk);
        assert_eq!(tape.class, ScalarType::F64);
        let winstrs = dk.winstrs(tape);
        assert!(
            winstrs.iter().any(|w| matches!(
                w,
                WInstr::Conv {
                    from: ScalarType::I64,
                    to: ScalarType::F64,
                    ..
                }
            )),
            "conversion endpoints missing: {winstrs:?}"
        );
        assert!(
            winstrs.iter().any(|w| matches!(
                w,
                WInstr::Bin {
                    op: BinOp::Mul,
                    t: ScalarType::F64,
                    ..
                }
            )),
            "f64 operand class missing: {winstrs:?}"
        );
        // Booleans join through comparisons: the cond tape of an If over
        // an i64 comparison is a Bool tape whose Cmp carries the i64
        // operand class.
        let kb = Kernel {
            name: "bool_tape".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 0,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::If {
                cond: KExp::Cmp(CmpOp::Lt, Box::new(KExp::GlobalId), Box::new(KExp::i64(4))),
                then_s: vec![KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::GlobalId,
                }],
                else_s: vec![],
            }],
        };
        let dkb = DecodedKernel::decode(&kb).unwrap();
        match &kinds(&dkb.body)[..] {
            [DKind::If { cond, .. }] => {
                assert_eq!(cond.class, ScalarType::Bool);
                let winstrs = dkb.winstrs(cond);
                assert!(
                    winstrs.iter().any(|w| matches!(
                        w,
                        WInstr::Cmp {
                            op: CmpOp::Lt,
                            t: ScalarType::I64,
                            ..
                        }
                    )),
                    "i64 comparison class missing: {winstrs:?}"
                );
            }
            other => panic!("expected a single If, found {other:?}"),
        }
    }

    // -----------------------------------------------------------------------
    // Write overlays and the coalescer against reference models
    // -----------------------------------------------------------------------

    /// Steps per thread of [`script_kernel`].
    const STEPS: i64 = 24;

    /// Runs a per-thread script of global writes and reads against one
    /// buffer: step `s` of thread `g` reads `code = script[g * STEPS + s]`;
    /// `code >= 0` writes `out[code] = g * STEPS + s + 1`, and `code < 0`
    /// reads `out[-1 - code]` into `reads[g * STEPS + s]`.
    fn script_kernel() -> Kernel {
        let op = || KExp::GlobalId.mul(KExp::i64(STEPS)).add(KExp::Var(0));
        Kernel {
            name: "script".into(),
            params: vec![
                KParam::Buffer(ScalarType::I64),
                KParam::Buffer(ScalarType::I64),
                KParam::Buffer(ScalarType::I64),
            ],
            locals: vec![],
            num_regs: 3,
            num_priv: 0,
            prov_table: vec![],
            body: vec![KStm::For {
                var: 0,
                bound: KExp::i64(STEPS),
                body: vec![
                    KStm::GlobalRead {
                        var: 1,
                        buf: 0,
                        index: op(),
                    },
                    KStm::If {
                        cond: KExp::Cmp(CmpOp::Ge, Box::new(KExp::Var(1)), Box::new(KExp::i64(0))),
                        then_s: vec![KStm::GlobalWrite {
                            buf: 1,
                            index: KExp::Var(1),
                            value: op().add(KExp::i64(1)),
                        }],
                        else_s: vec![
                            KStm::GlobalRead {
                                var: 2,
                                buf: 1,
                                index: KExp::i64(-1).add(KExp::Var(1).mul(KExp::i64(-1))),
                            },
                            KStm::GlobalWrite {
                                buf: 2,
                                index: op(),
                                value: KExp::Var(2),
                            },
                        ],
                    },
                ],
            }],
        }
    }

    /// The launch memory model over a `HashMap` write log per group: every
    /// group reads the pre-launch `out` plus its own writes; within a step
    /// a group's writes (lanes ascending) precede its reads; logs commit in
    /// ascending group order, and the lowest faulting group's first fault
    /// wins after its predecessors commit.
    fn script_model(
        script: &[i64],
        threads: usize,
        group: usize,
        out: &mut [i64],
        reads: &mut [i64],
    ) -> Option<String> {
        let len = out.len() as i64;
        let oob = |what: String| {
            SimError::OutOfBounds {
                kernel: "script".into(),
                what,
            }
            .to_string()
        };
        let base = out.to_vec();
        for g0 in (0..threads).step_by(group) {
            let lanes = g0..threads.min(g0 + group);
            let mut log: HashMap<usize, i64> = HashMap::new();
            let mut read_log: HashMap<usize, i64> = HashMap::new();
            for s in 0..STEPS as usize {
                let at = |t: usize| t * STEPS as usize + s;
                for t in lanes.clone().filter(|&t| script[at(t)] >= 0) {
                    let i = script[at(t)];
                    if i >= len {
                        return Some(oob(format!("write {i} of buffer len {len}")));
                    }
                    log.insert(i as usize, at(t) as i64 + 1);
                }
                for t in lanes.clone().filter(|&t| script[at(t)] < 0) {
                    let i = -1 - script[at(t)];
                    if i >= len {
                        return Some(oob(format!("read {i} of buffer len {len}")));
                    }
                    let v = log.get(&(i as usize)).copied().unwrap_or(base[i as usize]);
                    read_log.insert(at(t), v);
                }
            }
            for (i, v) in log {
                out[i] = v;
            }
            for (i, v) in read_log {
                reads[i] = v;
            }
        }
        None
    }

    /// One thread's script for a pattern (see the test below).
    fn script_for(
        pattern: usize,
        t: usize,
        len: i64,
        rng: &mut futhark_core::rng::Rng64,
    ) -> Vec<i64> {
        let read = |i: i64| -1 - i;
        let t = t as i64;
        (0..STEPS)
            .map(|s| match pattern {
                // Ascending, then descending, runs of writes.
                0 => (s * 256 + t) % len,
                1 => len - 1 - (s * 256 + t) % len,
                // Strided far past the density rule.
                2 => (s * 600 + t * 37) % len,
                // Every lane writes one element over and over.
                3 => 7,
                // Reads after writes, before and after the strided writes
                // push the window into the map.
                4 if s % 3 == 2 => read(((s - 2) * 600 + t * 37) % len),
                4 => (s * 600 + t * 37) % len,
                // Random writes and reads; pattern 6 rarely out of bounds.
                6 if rng.chance(1, 5000) => len + rng.gen_i64(0, 3),
                _ if rng.chance(1, 3) => read(rng.gen_i64(0, len)),
                _ => rng.gen_i64(0, len),
            })
            .collect()
    }

    #[test]
    fn overlays_match_a_hashmap_model() {
        let dev = DeviceProfile::gtx780();
        let kernels = both_forms(&script_kernel());
        let len = 50_000i64;
        let threads = 600usize; // two full groups and a partial tail
        let mut rng = futhark_core::rng::Rng64::seed_from_u64(12);
        let mut faults = 0;
        for case in 0..28 {
            let pattern = case % 7;
            let script: Vec<i64> = (0..threads)
                .flat_map(|t| script_for(pattern, t, len, &mut rng))
                .collect();
            let init: Vec<i64> = (0..len).map(|i| -i).collect();
            let (mut want_out, mut want_reads) = (init.clone(), vec![0i64; script.len()]);
            let want_err = script_model(
                &script,
                threads,
                dev.group_size as usize,
                &mut want_out,
                &mut want_reads,
            );
            faults += usize::from(want_err.is_some());
            for (engine, dk) in &kernels {
                for host in [1, 4] {
                    let mut mem = DeviceMemory::new();
                    let sb = mem.upload(Buffer::I64(script.clone())).unwrap();
                    let ob = mem.upload(Buffer::I64(init.clone())).unwrap();
                    let rb = mem.alloc(ScalarType::I64, script.len()).unwrap();
                    let opts = threads_only(host);
                    let args = [Arg::Buffer(sb), Arg::Buffer(ob), Arg::Buffer(rb)];
                    let got = launch(&dev, dk, threads as u64, &args, &mut mem, &opts);
                    let label =
                        format!("case {case} (pattern {pattern}), {engine}, {host} threads");
                    assert_eq!(got.err().map(|e| e.to_string()), want_err, "{label}");
                    let (Buffer::I64(o), Buffer::I64(r)) =
                        (mem.download(ob).unwrap(), mem.download(rb).unwrap())
                    else {
                        panic!("{label}: buffers changed type")
                    };
                    assert!(o == &want_out, "{label}: final memory differs");
                    assert!(r == &want_reads, "{label}: read values differ");
                }
            }
        }
        assert!(
            faults > 0,
            "the random scripts exercise the first-error path"
        );
    }

    #[test]
    fn dense_windows_fall_back_to_a_map_past_the_density_rule() {
        let mut w = Window::new();
        for i in (0..DENSE_MIN_SPAN).rev() {
            w.set(1000 + i, i as u64);
        }
        assert!(matches!(w, Window::Dense { written, .. } if written == DENSE_MIN_SPAN));
        w.set(1000 + DENSE_MIN_SPAN, 1);
        assert!(
            matches!(w, Window::Dense { .. }),
            "a full window may keep growing"
        );
        let mut w = Window::new();
        w.set(0, 5);
        w.set(DENSE_MIN_SPAN - 1, 6);
        assert!(matches!(w, Window::Dense { .. }), "within the minimum span");
        w.set(DENSE_MIN_SPAN, 7);
        assert!(
            matches!(w, Window::Sparse(_)),
            "three writes spanning past the minimum"
        );
        assert_eq!(
            (w.get(0), w.get(DENSE_MIN_SPAN), w.get(1)),
            (Some(5), Some(7), None)
        );
    }

    /// Reference: distinct segments by sort + dedup, useful bytes per
    /// active lane.
    fn sort_dedup_transactions(mask: &[bool], idx: &[i64], eb: u64, tb: u64) -> (u64, u64) {
        let mut segs: Vec<i64> = mask
            .iter()
            .zip(idx)
            .filter(|(&on, _)| on)
            .map(|(_, &i)| i * eb as i64 / tb as i64)
            .collect();
        let useful = segs.len() as u64 * eb;
        segs.sort_unstable();
        segs.dedup();
        (segs.len() as u64, useful)
    }

    #[test]
    fn one_pass_coalescer_matches_sort_dedup() {
        // Every element size against both profiles' transaction sizes
        // shifts; 96 bytes, and a segment narrower than an element, divide.
        let tbs = [
            DeviceProfile::gtx780().transaction_bytes,
            DeviceProfile::w8100().transaction_bytes,
        ];
        assert_eq!(tbs, [128, 64]);
        for eb in [1u64, 4, 8] {
            for tb in tbs {
                let want = (tb / eb).trailing_zeros();
                assert_eq!(Segments::new(eb, tb).shift, Some(want), "{eb} B in {tb} B");
            }
            assert_eq!(Segments::new(eb, 96).shift, None, "{eb} B in 96 B");
        }
        assert_eq!(Segments::new(8, 4).shift, None);
        let mut rng = futhark_core::rng::Rng64::seed_from_u64(7);
        let mut scratch = Vec::new();
        // Cases per (shift path, full warp, segments ever decrease).
        let mut seen = [[[0usize; 2]; 2]; 2];
        let mut tails = 0;
        for case in 0..4000 {
            let warp = [32usize, 64][case % 2];
            // A partial tail warp every few cases.
            let lanes = if case % 5 == 0 {
                1 + rng.pick(warp)
            } else {
                warp
            };
            let eb = [1u64, 4, 8][rng.pick(3)];
            let tb = [64u64, 96, 128][rng.pick(3)];
            let segs = Segments::new(eb, tb);
            let base = rng.gen_i64(0, 1 << 20);
            let stride = rng.gen_i64(0, 40);
            let mut idx: Vec<i64> = (0..lanes as i64).map(|l| base + l * stride).collect();
            match case % 7 {
                0 => {}
                1 => idx.reverse(),
                2 => {
                    for i in (1..lanes).rev() {
                        idx.swap(i, rng.pick(i + 1));
                    }
                }
                3 => {
                    for o in idx.iter_mut() {
                        *o = base + rng.gen_i64(0, 4) * 16;
                    }
                    idx.sort_unstable();
                }
                4 => {
                    for o in idx.iter_mut() {
                        *o = base + rng.gen_i64(0, 4096);
                    }
                }
                5 => {
                    for l in 1..lanes {
                        if rng.chance(1, 3) {
                            idx[l] = idx[l - 1];
                        }
                    }
                }
                // Consecutive ascending.
                _ => idx = (0..lanes as i64).map(|l| base + l).collect(),
            }
            // Every other round of the seven index patterns is a full
            // warp.
            let full = (case / 7) % 2 == 0;
            let mask: Vec<bool> = (0..lanes).map(|_| full || !rng.chance(1, 4)).collect();
            // An inactive lane's index is garbage the coalescer ignores.
            for (i, &on) in idx.iter_mut().zip(&mask) {
                if !on && rng.chance(1, 2) {
                    *i = rng.gen_i64(-(1 << 40), 1 << 40);
                }
            }
            let want = sort_dedup_transactions(&mask, &idx, eb, tb);
            let got = warp_transactions(Some(&mask), &idx, segs, &mut scratch);
            assert_eq!(got, want, "case {case}: mask {mask:?} indices {idx:?}");
            if full {
                let got = warp_transactions(None, &idx, segs, &mut scratch);
                assert_eq!(got, want, "case {case}, full warp: indices {idx:?}");
                tails += usize::from(lanes < warp);
            }
            let mut last = i64::MIN;
            let down = !mask.iter().zip(&idx).filter(|(&on, _)| on).all(|(_, &i)| {
                let s = i * eb as i64 / tb as i64;
                std::mem::replace(&mut last, s) <= s
            });
            seen[usize::from(segs.shift.is_some())][usize::from(full)][usize::from(down)] += 1;
        }
        for (shift, by_mask) in seen.iter().enumerate() {
            for (full, by_order) in by_mask.iter().enumerate() {
                for (down, &n) in by_order.iter().enumerate() {
                    assert!(
                        n > 100,
                        "{n} cases of shift {shift}, full {full}, down {down}"
                    );
                }
            }
        }
        let one_pass: usize = seen.iter().flatten().map(|by_order| by_order[0]).sum();
        assert!(one_pass > 1000, "monotone warps take the one-pass path");
        assert!(tails > 100, "{tails} full tail warps");
        // A full warp of consecutive indices: 32 f32s from index 30 span
        // bytes 120..248, two 128-byte segments; 32 i64s from 0 span three
        // 96-byte segments.
        let on = [true; 32];
        let from = |k: i64| (k..k + 32).collect::<Vec<i64>>();
        for mask in [None, Some(&on[..])] {
            assert_eq!(
                warp_transactions(mask, &from(30), Segments::new(4, 128), &mut scratch),
                (2, 128)
            );
            assert_eq!(
                warp_transactions(mask, &from(0), Segments::new(8, 96), &mut scratch),
                (3, 256)
            );
            // An element wider than a segment skips segments.
            assert_eq!(
                warp_transactions(mask, &from(0), Segments::new(8, 4), &mut scratch),
                (32, 256)
            );
        }
    }

    // -----------------------------------------------------------------------
    // Column statements and column arithmetic against per-lane references
    // -----------------------------------------------------------------------

    /// What a fault scenario plants at one thread.
    #[derive(Clone, Copy)]
    enum Plant {
        /// The index tape divides by zero.
        IndexFault,
        /// The index is out of bounds (for `PrivAlloc`, too big to fit).
        OutOfBounds,
        /// The value tape divides by zero.
        ValueFault,
    }

    /// A kernel whose statement of kind `kind` (0 `GlobalRead`, 1
    /// `GlobalWrite`, 2 `LocalRead`, 3 `LocalWrite`, 4 `PrivAlloc`, 5
    /// `PrivRead`, 6 `PrivWrite`, 7 `PrivCopy`) runs for threads with
    /// `gid % 5 != 3`. Its index is `ctl[gid]`, and its index and value
    /// tapes divide by `dz_index[gid]` and `dz_value[gid]`. Reads land in
    /// `out[gid]`; writes land in `data`, local or private memory, which
    /// is then copied to `out[gid]`.
    fn fault_kernel(kind: usize) -> Kernel {
        let gid = || KExp::GlobalId;
        let guard = |e: KExp, reg: u32| {
            let div = KExp::BinOp(BinOp::Div, Box::new(KExp::i64(1)), Box::new(KExp::Var(reg)));
            KExp::BinOp(
                BinOp::Add,
                Box::new(e),
                Box::new(KExp::BinOp(
                    BinOp::Mul,
                    Box::new(div),
                    Box::new(KExp::i64(0)),
                )),
            )
        };
        let index = || guard(KExp::Var(0), 1);
        let value = || guard(gid(), 2);
        let lane4 = || KExp::LocalId.rem(KExp::i64(4));
        let stm = match kind {
            0 => KStm::GlobalRead {
                var: 3,
                buf: 3,
                index: index(),
            },
            1 => KStm::GlobalWrite {
                buf: 3,
                index: index(),
                value: value(),
            },
            2 => KStm::LocalRead {
                var: 3,
                mem: 0,
                index: index(),
            },
            3 => KStm::LocalWrite {
                mem: 0,
                index: index(),
                value: value(),
            },
            4 => KStm::PrivAlloc {
                arr: 1,
                elem: ScalarType::I64,
                size: index(),
            },
            5 => KStm::PrivRead {
                var: 3,
                arr: 0,
                index: index(),
            },
            6 => KStm::PrivWrite {
                arr: 0,
                index: index(),
                value: value(),
            },
            _ => KStm::PrivCopy {
                dst: 1,
                src: 0,
                len: index(),
            },
        };
        let mut body: Vec<KStm> = (0..3)
            .map(|r| KStm::GlobalRead {
                var: r,
                buf: r as usize,
                index: gid(),
            })
            .collect();
        body.extend([
            KStm::LocalWrite {
                mem: 0,
                index: KExp::LocalId,
                value: gid().mul(KExp::i64(3)),
            },
            KStm::PrivAlloc {
                arr: 0,
                elem: ScalarType::I64,
                size: KExp::i64(4),
            },
            KStm::PrivWrite {
                arr: 0,
                index: lane4(),
                value: gid().add(KExp::i64(1)),
            },
            KStm::If {
                cond: KExp::Cmp(
                    CmpOp::Ne,
                    Box::new(gid().rem(KExp::i64(5))),
                    Box::new(KExp::i64(3)),
                ),
                then_s: vec![stm],
                else_s: vec![],
            },
        ]);
        match kind {
            3 => body.push(KStm::LocalRead {
                var: 3,
                mem: 0,
                index: KExp::LocalId,
            }),
            6 => body.push(KStm::PrivRead {
                var: 3,
                arr: 0,
                index: lane4(),
            }),
            _ => {}
        }
        body.push(KStm::GlobalWrite {
            buf: 4,
            index: gid(),
            value: KExp::Var(3),
        });
        Kernel {
            name: format!("fault{kind}"),
            params: vec![KParam::Buffer(ScalarType::I64); 5],
            locals: vec![(ScalarType::I64, KExp::GroupSize)],
            num_regs: 4,
            num_priv: 2,
            prov_table: vec![],
            body,
        }
    }

    #[test]
    fn column_statements_fault_and_count_like_the_lane_engine() {
        let dev = DeviceProfile::gtx780();
        let threads = 300usize; // a full group and a 44-lane tail
        let data_len = 512i64;
        let scenarios: Vec<(&str, Vec<(usize, Plant)>)> = vec![
            ("clean", vec![]),
            ("index fault, first lane", vec![(0, Plant::IndexFault)]),
            ("index fault, last lane", vec![(299, Plant::IndexFault)]),
            ("index fault, masked lane", vec![(3, Plant::IndexFault)]),
            ("out of bounds, first lane", vec![(0, Plant::OutOfBounds)]),
            ("out of bounds, last lane", vec![(299, Plant::OutOfBounds)]),
            (
                "out of bounds, masked lane",
                vec![(298, Plant::OutOfBounds)],
            ),
            ("value fault, first lane", vec![(0, Plant::ValueFault)]),
            ("value fault, last lane", vec![(299, Plant::ValueFault)]),
            ("value fault, masked lane", vec![(8, Plant::ValueFault)]),
            (
                "index fault before bounds",
                vec![(7, Plant::IndexFault), (10, Plant::OutOfBounds)],
            ),
            (
                "bounds before index fault",
                vec![(5, Plant::OutOfBounds), (9, Plant::IndexFault)],
            ),
            (
                "value fault before index fault",
                vec![(15, Plant::ValueFault), (20, Plant::IndexFault)],
            ),
            (
                "bounds and value at one lane",
                vec![(12, Plant::OutOfBounds), (12, Plant::ValueFault)],
            ),
        ];
        for kind in 0..8 {
            let [(_, reference), (_, warp)] = both_forms(&fault_kernel(kind));
            let (normal, oob): (fn(i64) -> i64, i64) = match kind {
                0 | 1 => (|g| g * 7 % 512, data_len + 3),
                2 | 3 => (|g| g * 7 % 256, -1),
                4 => (|g| g % 5, 1 << 40),
                7 => (|g| g % 5, 5),
                _ => (|g| g % 4, 4),
            };
            for (what, plants) in &scenarios {
                let mut ctl: Vec<i64> = (0..threads as i64).map(normal).collect();
                let (mut dz_index, mut dz_value) = (vec![1i64; threads], vec![1i64; threads]);
                for &(g, plant) in plants {
                    match plant {
                        Plant::IndexFault => dz_index[g] = 0,
                        Plant::OutOfBounds => ctl[g] = oob,
                        Plant::ValueFault => dz_value[g] = 0,
                    }
                }
                let run = |dk: &DecodedKernel, host: usize| {
                    let mut mem = DeviceMemory::new();
                    let mut up =
                        |v: &[i64]| Arg::Buffer(mem.upload(Buffer::I64(v.to_vec())).unwrap());
                    let data: Vec<i64> = (0..data_len).map(|i| -i).collect();
                    let args = [
                        up(&ctl),
                        up(&dz_index),
                        up(&dz_value),
                        up(&data),
                        up(&vec![0; threads]),
                    ];
                    let opts = threads_only(host);
                    let got = launch(&dev, dk, threads as u64, &args, &mut mem, &opts)
                        .map(|out| (out.stats, out.sites))
                        .map_err(|e| e.to_string());
                    let bufs: Vec<Buffer> = args[3..]
                        .iter()
                        .map(|a| match a {
                            Arg::Buffer(b) => mem.download(*b).unwrap().clone(),
                            Arg::Scalar(_) => unreachable!(),
                        })
                        .collect();
                    (got, bufs)
                };
                let want = run(&reference, 1);
                let masked_only = plants.iter().all(|&(g, p)| {
                    g % 5 == 3 || (matches!(p, Plant::ValueFault) && ![1, 3, 6].contains(&kind))
                });
                assert_eq!(
                    want.0.is_ok(),
                    masked_only,
                    "kind {kind}, {what}: {:?}",
                    want.0
                );
                for (engine, dk, host) in [
                    ("reference", &reference, 4),
                    ("warp", &warp, 1),
                    ("warp", &warp, 4),
                ] {
                    let got = run(dk, host);
                    assert_eq!(
                        got.0, want.0,
                        "kind {kind}, {what}: {engine} at {host} threads"
                    );
                    assert_eq!(
                        got.1, want.1,
                        "kind {kind}, {what}: memory, {engine} at {host}"
                    );
                }
            }
        }
    }

    /// Launches `dk` over `threads` threads on `host` host threads,
    /// with one i64 buffer argument per entry of `bufs`, and
    /// returns the launch's counters or error and every buffer afterwards.
    fn launch_i64(
        dk: &DecodedKernel,
        threads: usize,
        host: usize,
        bufs: &[Vec<i64>],
    ) -> (Result<LaunchOut, String>, Vec<Buffer>) {
        let mut mem = DeviceMemory::new();
        let args: Vec<Arg> = bufs
            .iter()
            .map(|v| Arg::Buffer(mem.upload(Buffer::I64(v.clone())).unwrap()))
            .collect();
        let got = launch(
            &DeviceProfile::gtx780(),
            dk,
            threads as u64,
            &args,
            &mut mem,
            &threads_only(host),
        )
        .map_err(|e| e.to_string());
        let after = args
            .iter()
            .map(|a| match a {
                Arg::Buffer(b) => mem.download(*b).unwrap().clone(),
                Arg::Scalar(_) => unreachable!(),
            })
            .collect();
        (got, after)
    }

    #[test]
    fn assignments_store_in_place_like_the_lane_engine() {
        // Registers x, y, w, z, d and q (0 to 5) are read from buffers 0
        // to 5; then `x = x + y`, `w = w * w`, `z = 7` and `q = x / d` run
        // for every thread, or for threads with `gid % 3 != 1`, and x, w,
        // z and q are written to buffers 6 to 9. Under a full mask each
        // tape's last instruction writes its register in place.
        let gid = || KExp::GlobalId;
        let assign_kernel = |partial: bool| {
            let mut body: Vec<KStm> = (0..6)
                .map(|r| KStm::GlobalRead {
                    var: r,
                    buf: r as usize,
                    index: gid(),
                })
                .collect();
            let assigns = vec![
                KStm::Assign {
                    var: 0,
                    exp: KExp::Var(0).add(KExp::Var(1)),
                },
                KStm::Assign {
                    var: 2,
                    exp: KExp::Var(2).mul(KExp::Var(2)),
                },
                KStm::Assign {
                    var: 3,
                    exp: KExp::i64(7),
                },
                KStm::Assign {
                    var: 5,
                    exp: KExp::BinOp(BinOp::Div, Box::new(KExp::Var(0)), Box::new(KExp::Var(4))),
                },
            ];
            if partial {
                body.push(KStm::If {
                    cond: KExp::Cmp(
                        CmpOp::Ne,
                        Box::new(gid().rem(KExp::i64(3))),
                        Box::new(KExp::i64(1)),
                    ),
                    then_s: assigns,
                    else_s: vec![],
                });
            } else {
                body.extend(assigns);
            }
            for (k, r) in [0, 2, 3, 5].into_iter().enumerate() {
                body.push(KStm::GlobalWrite {
                    buf: 6 + k,
                    index: gid(),
                    value: KExp::Var(r),
                });
            }
            Kernel {
                name: "assign".into(),
                params: vec![KParam::Buffer(ScalarType::I64); 10],
                locals: vec![],
                num_regs: 6,
                num_priv: 0,
                prov_table: vec![],
                body,
            }
        };
        let threads = 300usize; // a full group and a 44-lane tail
        let scenarios: [(&str, bool, &[usize]); 6] = [
            ("full mask", false, &[]),
            ("partial mask", true, &[]),
            ("full mask, zero divisor in the tail group", false, &[290]),
            ("full mask, zero divisors in both groups", false, &[7, 290]),
            ("partial mask, zero divisor in an inactive lane", true, &[4]),
            ("partial mask, zero divisor in an active lane", true, &[5]),
        ];
        for (what, partial, zeros) in scenarios {
            let k = assign_kernel(partial);
            let [(_, reference), (_, warp)] = both_forms(&k);
            let lanes = 0..threads as i64;
            let x: Vec<i64> = lanes.clone().map(|g| g * 3 - 200).collect();
            let y: Vec<i64> = lanes.clone().map(|g| 17 - g).collect();
            let w: Vec<i64> = lanes.clone().map(|g| g - 150).collect();
            let z: Vec<i64> = lanes.clone().map(|g| -g).collect();
            let mut d: Vec<i64> = lanes
                .clone()
                .map(|g| [1, -2, 3, -4][g as usize % 4])
                .collect();
            for &g in zeros {
                d[g] = 0;
            }
            let q: Vec<i64> = lanes.map(|g| g + 1000).collect();
            let mut bufs = vec![
                x.clone(),
                y.clone(),
                w.clone(),
                z.clone(),
                d.clone(),
                q.clone(),
            ];
            bufs.extend(std::iter::repeat_n(vec![0; threads], 4));
            let want = launch_i64(&reference, threads, 1, &bufs);
            let faults = zeros.iter().any(|&g| !partial || g % 3 != 1);
            assert_eq!(want.0.is_err(), faults, "{what}: {:?}", want.0);
            if let Err(e) = &want.0 {
                assert_eq!(e, "scalar fault: division by zero", "{what}");
            } else {
                // Active lanes hold the assigned values; inactive lanes
                // keep what they read.
                let on = |g: usize| !partial || g % 3 != 1;
                let pick = |g: usize, new: i64, old: i64| if on(g) { new } else { old };
                let xs: Vec<i64> = (0..threads).map(|g| pick(g, x[g] + y[g], x[g])).collect();
                let expect = [
                    xs.clone(),
                    (0..threads).map(|g| pick(g, w[g] * w[g], w[g])).collect(),
                    (0..threads).map(|g| pick(g, 7, z[g])).collect(),
                    (0..threads)
                        .map(|g| {
                            if on(g) {
                                floor_div_i64(xs[g], d[g])
                            } else {
                                q[g]
                            }
                        })
                        .collect(),
                ]
                .map(Buffer::I64);
                assert_eq!(want.1[6..], expect, "{what}: reference registers");
            }
            for (engine, dk, host) in [
                ("reference", &reference, 4),
                ("warp", &warp, 1),
                ("warp", &warp, 4),
            ] {
                let got = launch_i64(dk, threads, host, &bufs);
                assert_eq!(got.0, want.0, "{what}: {engine} at {host} threads");
                assert_eq!(got.1, want.1, "{what}: memory, {engine} at {host}");
            }
        }
    }

    #[test]
    fn private_arrays_are_reused_like_fresh_ones() {
        // Each thread fills array 0 with `gid * 10 + i + 1`, copies it
        // into a zeroed array 1 of the same length when `gid` is even,
        // and reallocates array 0 at the same length when `gid % 3 != 1`.
        // Reading both back, the reallocating lanes see zeros and the
        // others their old elements, as freshly allocated arrays give.
        let gid = || KExp::GlobalId;
        let elem = || KExp::Var(0);
        let when = |m: i64, r: i64, then_s: Vec<KStm>| KStm::If {
            cond: KExp::Cmp(
                CmpOp::Ne,
                Box::new(gid().rem(KExp::i64(m))),
                Box::new(KExp::i64(r)),
            ),
            then_s,
            else_s: vec![],
        };
        let alloc = |arr: usize| KStm::PrivAlloc {
            arr,
            elem: ScalarType::I64,
            size: KExp::i64(4),
        };
        let read_back = |arr: usize, buf: usize| KStm::For {
            var: 0,
            bound: KExp::i64(4),
            body: vec![
                KStm::PrivRead {
                    var: 1,
                    arr,
                    index: elem(),
                },
                KStm::GlobalWrite {
                    buf,
                    index: gid().mul(KExp::i64(4)).add(elem()),
                    value: KExp::Var(1),
                },
            ],
        };
        let k = Kernel {
            name: "reuse".into(),
            params: vec![KParam::Buffer(ScalarType::I64); 2],
            locals: vec![],
            num_regs: 2,
            num_priv: 2,
            prov_table: vec![],
            body: vec![
                alloc(0),
                KStm::For {
                    var: 0,
                    bound: KExp::i64(4),
                    body: vec![KStm::PrivWrite {
                        arr: 0,
                        index: elem(),
                        value: gid().mul(KExp::i64(10)).add(elem()).add(KExp::i64(1)),
                    }],
                },
                alloc(1),
                when(
                    2,
                    1,
                    vec![KStm::PrivCopy {
                        dst: 1,
                        src: 0,
                        len: KExp::i64(4),
                    }],
                ),
                when(3, 1, vec![alloc(0)]),
                read_back(0, 0),
                read_back(1, 1),
            ],
        };
        let threads = 300usize;
        let old = |g: usize, i: usize| (g * 10 + i + 1) as i64;
        let expect = |keep: fn(usize) -> bool| {
            let v: Vec<i64> = (0..threads * 4)
                .map(|at| if keep(at / 4) { old(at / 4, at % 4) } else { 0 })
                .collect();
            Buffer::I64(v)
        };
        let want = vec![expect(|g| g % 3 == 1), expect(|g| g % 2 == 0)];
        let bufs = vec![vec![-1; threads * 4]; 2];
        for (engine, dk) in &both_forms(&k) {
            for host in [1, 4] {
                let (got, after) = launch_i64(dk, threads, host, &bufs);
                assert!(got.is_ok(), "{engine} at {host}: {got:?}");
                assert_eq!(after, want, "{engine} at {host}");
            }
        }
    }

    #[test]
    fn profiled_runs_charge_each_statement_to_its_innermost_site() {
        // Site 0 wraps an assignment and a `while` whose body holds sites 1
        // and 2; a read outside every marker is unattributed (site 3).
        // The loop's condition, issued again after sites 1 and 2 ran, is
        // still charged to site 0.
        let init = KExp::i64(0);
        let cond = KExp::Cmp(CmpOp::Lt, Box::new(KExp::Var(0)), Box::new(KExp::i64(3)));
        let step = KExp::Var(0).add(KExp::i64(1));
        let at = |prov: u32, body: Vec<KStm>| KStm::At { prov, body };
        let k = Kernel {
            name: "sites".into(),
            params: vec![KParam::Buffer(ScalarType::I64)],
            locals: vec![],
            num_regs: 2,
            num_priv: 0,
            prov_table: (1..=3).map(Prov::line).collect(),
            body: vec![
                at(
                    0,
                    vec![
                        KStm::Assign {
                            var: 0,
                            exp: init.clone(),
                        },
                        KStm::While {
                            cond: cond.clone(),
                            body: vec![
                                at(
                                    1,
                                    vec![KStm::Assign {
                                        var: 0,
                                        exp: step.clone(),
                                    }],
                                ),
                                at(
                                    2,
                                    vec![KStm::GlobalWrite {
                                        buf: 0,
                                        index: KExp::GlobalId,
                                        value: KExp::Var(0),
                                    }],
                                ),
                            ],
                        },
                    ],
                ),
                KStm::GlobalRead {
                    var: 1,
                    buf: 0,
                    index: KExp::GlobalId,
                },
            ],
        };
        // One warp of 32 i64 lanes: 256 bytes, two 128-byte segments.
        let issue = |e: &KExp| 1 + e.op_count();
        let site = |warp_instructions: u64, accesses: u64| SiteStats {
            warp_instructions,
            global_transactions: 2 * accesses,
            bus_bytes: 256 * accesses,
            useful_bytes: 256 * accesses,
            ..SiteStats::default()
        };
        let want = vec![
            site(issue(&init) + 4 * issue(&cond), 0),
            site(3 * issue(&step), 0),
            site(3, 3),
            site(1, 1),
        ];
        for (engine, dk) in &both_forms(&k) {
            for host in [1, 4] {
                let (got, _) = launch_i64(dk, 32, host, &[vec![0; 32]]);
                let out = got.unwrap();
                assert_eq!(out.sites, want, "{engine} at {host}");
                assert_eq!(
                    out.stats,
                    KernelStats::of_sites(32, &want),
                    "{engine} at {host}"
                );
            }
        }
    }

    #[test]
    fn private_storage_is_bounded_by_the_device_per_group() {
        // Each lane reallocates a 16-element array three times: the old
        // array is released first, so eight lanes fit a 1024-byte device
        // exactly and a ninth lane's array does not. Every element costs
        // the 8 bytes the host holds it in, a bool's as much as an i64's.
        let mut dev = DeviceProfile::gtx780();
        dev.global_mem_bytes = 1024;
        for elem in [ScalarType::I64, ScalarType::Bool] {
            let k = Kernel {
                name: "privs".into(),
                params: vec![],
                locals: vec![],
                num_regs: 1,
                num_priv: 1,
                prov_table: vec![],
                body: vec![KStm::For {
                    var: 0,
                    bound: KExp::i64(3),
                    body: vec![KStm::PrivAlloc {
                        arr: 0,
                        elem,
                        size: KExp::i64(16),
                    }],
                }],
            };
            for (engine, dk) in &both_forms(&k) {
                for threads in [1, 4] {
                    let opts = threads_only(threads);
                    let mut mem = DeviceMemory::new();
                    let fits = launch(&dev, dk, 8, &[], &mut mem, &opts);
                    assert!(fits.is_ok(), "{elem:?}, {engine} at {threads}: {fits:?}");
                    let err = launch(&dev, dk, 9, &[], &mut mem, &opts).unwrap_err();
                    assert_eq!(
                        err,
                        SimError::OutOfMemory {
                            requested: 128,
                            live: 1024,
                            capacity: 1024
                        },
                        "{elem:?}, {engine} at {threads}"
                    );
                }
            }
        }
    }

    /// Operand bits of class `t`: edge values a third of the time, else
    /// random bits (random float bits include NaNs, infinities and
    /// subnormals).
    fn operand_bits(t: ScalarType, rng: &mut futhark_core::rng::Rng64) -> u64 {
        let edge = rng.chance(1, 3);
        match t {
            ScalarType::I64 if edge => [0, 1, -1, 3, -3, i64::MIN, i64::MAX][rng.pick(7)] as u64,
            ScalarType::I32 if edge => {
                [0, 1, -1, 3, -3, i32::MIN, i32::MAX][rng.pick(7)] as u32 as u64
            }
            ScalarType::F32 if edge => enc(Scalar::F32(
                [
                    0.0,
                    -0.0,
                    1.5,
                    -2.25,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    1e-45,
                    f32::MAX,
                ][rng.pick(8)],
            )),
            ScalarType::F64 if edge => enc(Scalar::F64(
                [
                    0.0,
                    -0.0,
                    1.5,
                    -2.25,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    5e-324,
                    1e300,
                ][rng.pick(8)],
            )),
            ScalarType::Bool => rng.pick(2) as u64,
            ScalarType::I32 | ScalarType::F32 => rng.next_u64() & 0xffff_ffff,
            ScalarType::I64 | ScalarType::F64 => rng.next_u64(),
        }
    }

    const CLASSES: [ScalarType; 5] = [
        ScalarType::Bool,
        ScalarType::I32,
        ScalarType::I64,
        ScalarType::F32,
        ScalarType::F64,
    ];

    /// Register patterns `[dst, a, b]`: dst == a, dst == b, a == b, all
    /// three, and all distinct (dst between and beside its operands).
    const PATTERNS: [[u32; 3]; 6] = [
        [0, 0, 1],
        [1, 0, 1],
        [2, 1, 1],
        [1, 1, 1],
        [2, 0, 1],
        [1, 2, 0],
    ];

    #[test]
    fn column_arithmetic_matches_per_lane_bits_under_every_aliasing() {
        use BinOp::*;
        let lanes = 37; // not a multiple of any vector width
        let on = vec![true; lanes];
        let mut rng = futhark_core::rng::Rng64::seed_from_u64(5);
        let bins = [Add, Sub, Mul, Div, Rem, Min, Max, Pow, Atan2, And, Or];
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for t in CLASSES {
            for regs in PATTERNS {
                // Divisors with and without a zero lane: the unmasked
                // division loop and the lane-by-lane one.
                for zeros in [false, true] {
                    let mut init: Vec<u64> =
                        (0..3 * lanes).map(|_| operand_bits(t, &mut rng)).collect();
                    let b = regs[2] as usize * lanes;
                    for y in &mut init[b..b + lanes] {
                        if !zeros && (*y as u32 == 0 || *y == 0) {
                            *y = 5;
                        }
                    }
                    if zeros {
                        init[b + 11] = 0;
                    }
                    let [d, a, b] = regs.map(|r| r as usize * lanes);
                    for op in bins {
                        let mut s = init.clone();
                        let mut faults = None;
                        bin_col(op, t, &mut s, lanes, regs, &on, &mut faults);
                        for l in 0..lanes {
                            let label = format!("{op:?} {t:?} regs {regs:?} lane {l}");
                            match bin_bits(op, t, init[a + l], init[b + l]) {
                                Ok(v) => assert_eq!(s[d + l], v, "{label}"),
                                Err(e) => assert_eq!(
                                    faults.as_ref().and_then(|f| f[l].as_ref()),
                                    Some(&e),
                                    "{label}"
                                ),
                            }
                        }
                    }
                    for op in cmps {
                        let mut s = init.clone();
                        cmp_col(op, t, &mut s, lanes, regs);
                        for l in 0..lanes {
                            let want = cmp_bits(op, t, init[a + l], init[b + l]);
                            assert_eq!(s[d + l], want, "{op:?} {t:?} regs {regs:?} lane {l}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn float_unary_columns_match_eval_unop_bit_for_bit() {
        use UnOp::*;
        let lanes = 41;
        let on = vec![true; lanes];
        let mut rng = futhark_core::rng::Rng64::seed_from_u64(9);
        let f32s = [
            f32::from_bits(0x7fc0_0001), // quiet NaN with a payload
            f32::from_bits(0xffa0_0123), // negative signalling NaN
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-45, // smallest subnormal
            -3e-39,
            1e30, // large sin/cos arguments
            -7.5e7,
            f32::MAX,
        ];
        let f64s = [
            f64::from_bits(0x7ff8_0000_0000_0abc),
            f64::from_bits(0xfff4_0000_0000_0001),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -2e-310,
            1e300,
            -1e22,
            f64::MAX,
        ];
        let ops = [Neg, Not, Abs, Signum, Sqrt, Exp, Log, Sin, Cos, Tanh];
        for t in CLASSES {
            for regs in [[0u32, 0], [1, 0], [0, 1]] {
                let init: Vec<u64> = (0..2 * lanes)
                    .map(|i| match t {
                        ScalarType::F32 if i % 2 == 0 => enc(Scalar::F32(f32s[i / 2 % f32s.len()])),
                        ScalarType::F64 if i % 2 == 0 => enc(Scalar::F64(f64s[i / 2 % f64s.len()])),
                        _ => operand_bits(t, &mut rng),
                    })
                    .collect();
                let [d, a] = regs.map(|r| r as usize * lanes);
                for op in ops {
                    let mut s = init.clone();
                    let mut faults = None;
                    un_col(op, t, &mut s, lanes, regs, &on, &mut faults);
                    for l in 0..lanes {
                        let label = format!("{op:?} {t:?} regs {regs:?} lane {l}");
                        match eval_unop(op, dec(t, init[a + l])) {
                            Ok(r) => assert_eq!(s[d + l], enc(r), "{label}"),
                            Err(e) => assert_eq!(
                                faults.as_ref().and_then(|f| f[l].as_ref()),
                                Some(&SimError::Scalar(e.to_string())),
                                "{label}"
                            ),
                        }
                    }
                }
            }
        }
    }
}
