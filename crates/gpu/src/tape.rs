//! Pre-decoded kernel execution: flat opcode tapes, typed register files,
//! and deterministic parallel work-group execution.
//!
//! The tree-walking simulator paid for every scalar operation twice: once
//! chasing `Box`ed [`KExp`] nodes, and once boxing/unboxing [`Scalar`]
//! enum values in `Vec<Scalar>` register files. [`DecodedKernel::decode`]
//! removes both costs ahead of time:
//!
//! - every expression becomes a flat `Tape` of register-form `WInstr`s
//!   over scratch columns — no recursion, no allocation per lane;
//! - every virtual register gets a *statically inferred* scalar class and a
//!   slot in a typed, unboxed register file (separate `Vec<i64>`,
//!   `Vec<i32>`, `Vec<f32>`, `Vec<f64>`, `Vec<bool>` in structure-of-arrays
//!   layout, `file[slot * lanes + lane]`) instead of a `Vec<Scalar>` per
//!   lane.
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
//! dense loops over the group's lanes. Register tapes run instruction by
//! instruction over scratch columns split into distinct slices, so their
//! loops vectorize; a memory statement converts its index column once,
//! scans every active lane for a fault in one branch-free pass, and only
//! if that scan or a tape reports a fault walks its lanes in ascending
//! order to pick the error the per-lane engine would report. Fault-free,
//! it gathers from the launch snapshot straight into the typed register
//! file, or writes its whole column into the group's window. The
//! per-lane engine ([`DecodedKernel::reference`]) runs each statement
//! lane by lane over postfix tapes; it is the reference the tests and the
//! fuzz oracle hold the warp engine to. Both engines count global-memory
//! transactions through one coalescer over the statement's index column.

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
// payloads.

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
    /// Push a register (class + slot in that class's file).
    Load(ScalarType, u32),
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
/// ops first; [`reg_compile`] turns them into the register form, the
/// same ops with explicit scratch-register operands, one instruction per
/// op, so a tape's range is the same in either form. The warp engine
/// executes the register form one *instruction* at a time across all
/// lanes (each scratch register is a column of `lanes` bit-slots); the
/// reference engine evaluates the postfix form one *lane* at a time on a
/// bit stack, and the result is the single remaining slot.
#[derive(Debug, Clone, Copy)]
struct Tape {
    /// First instruction in the kernel's array.
    start: u32,
    /// Instructions in the kernel's array.
    len: u32,
    /// Scratch registers the register form needs (high-water mark of the
    /// decode-time allocator); 0 in the postfix form.
    n_regs: u32,
    /// Scratch register holding the tape's result; 0 in the postfix form.
    result: u32,
    cost: u32,
    class: ScalarType,
}

/// The scratch-register budget the warp engine preallocates per group.
/// Tapes whose register form needs more ([`Tape::spills`]) grow the
/// scratch arena on first use — the simulator's analogue of spilling.
const WREG_FILE: u32 = 16;

impl Tape {
    /// Registers beyond the preallocated file ([`WREG_FILE`]): how far
    /// this tape spills.
    #[cfg_attr(not(test), allow(dead_code))]
    fn spills(&self) -> u32 {
        self.n_regs.saturating_sub(WREG_FILE)
    }

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
/// scratch-register operands assigned by [`reg_compile`]. Registers hold
/// the same raw `u64` bit patterns as the postfix stack did.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WInstr {
    Const {
        dst: u32,
        bits: u64,
    },
    Load {
        dst: u32,
        class: ScalarType,
        slot: u32,
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

/// Deterministic linear-scan register allocation over a postfix tape: a
/// stack of register ids mirrors the evaluation stack, and a LIFO free
/// list recycles the registers an operator consumes, so a binary op's
/// destination reuses its left operand's register (safe: every lane reads
/// both operands before writing the destination). Same tape, same
/// assignment — always; nothing here depends on runtime state, which is
/// what keeps profiled counters and the profgate baseline bit-for-bit.
///
/// The register form is appended to `out`, exactly one instruction per
/// op, and the result is `(n_regs, result register)`. That one-to-one
/// correspondence is what gives a [`Tape`] the same range in either of
/// its kernel's forms.
///
/// A structurally invalid tape — an operator with too few operands on the
/// stack, an empty tape, or leftover operands — is reported as an error
/// string (the caller wraps it in [`SimError::Malformed`] with the kernel
/// name attached): such tapes cannot come out of the decoder, but a
/// hand-constructed artifact must not panic a long-lived process.
fn reg_compile(ops: &[EOp], out: &mut Vec<WInstr>) -> Result<(u32, u32), String> {
    struct Alloc {
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
    }
    let mut alloc = Alloc {
        free: Vec::new(),
        next: 0,
    };
    let mut stack: Vec<u32> = Vec::new();
    let emitted = out.len();
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
            EOp::Load(class, slot) => {
                let dst = alloc.get();
                out.push(WInstr::Load { dst, class, slot });
                stack.push(dst);
            }
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
                alloc.free.push(b);
                alloc.free.push(a);
                let dst = alloc.get();
                out.push(WInstr::Bin { op, t, dst, a, b });
                stack.push(dst);
            }
            EOp::Cmp(op, t) => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                alloc.free.push(b);
                alloc.free.push(a);
                let dst = alloc.get();
                out.push(WInstr::Cmp { op, t, dst, a, b });
                stack.push(dst);
            }
            EOp::Un(op, t) => {
                let a = pop(&mut stack)?;
                alloc.free.push(a);
                let dst = alloc.get();
                out.push(WInstr::Un { op, t, dst, a });
                stack.push(dst);
            }
            EOp::Conv(from, to) => {
                let a = pop(&mut stack)?;
                alloc.free.push(a);
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
    debug_assert_eq!(out.len() - emitted, ops.len(), "one instruction per op");
    Ok((alloc.next, result))
}

/// A decoded statement: the same shapes as [`KStm`], with expressions as
/// tapes and destinations as (class, slot) pairs resolved at decode time.
/// Every nested body is a boxed slice of exactly its statement count.
#[derive(Debug, Clone)]
enum DStm {
    Assign {
        class: ScalarType,
        slot: u32,
        exp: Tape,
    },
    GlobalRead {
        class: ScalarType,
        slot: u32,
        buf: usize,
        index: Tape,
    },
    GlobalWrite {
        buf: usize,
        index: Tape,
        value: Tape,
    },
    LocalRead {
        class: ScalarType,
        slot: u32,
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
        class: ScalarType,
        slot: u32,
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
        /// Slot of the (i64) loop counter.
        slot: u32,
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
    /// Provenance marker: while executing `body`, profiled runs attribute
    /// counters to site `prov` (an index into the decoded kernel's
    /// provenance table). Free in unprofiled runs beyond the recursion.
    At {
        prov: u32,
        body: Box<[DStm]>,
    },
}

/// Index of a scalar class in per-class tables.
#[inline]
fn ci(t: ScalarType) -> usize {
    match t {
        ScalarType::Bool => 0,
        ScalarType::I32 => 1,
        ScalarType::I64 => 2,
        ScalarType::F32 => 3,
        ScalarType::F64 => 4,
    }
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

/// A kernel pre-decoded for execution: register classes inferred, slots
/// assigned, expressions flattened to tapes. Decoded kernels are
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
    /// Slots used per class (indexed by [`ci`]).
    file_len: [u32; 5],
    /// Element class of each private array.
    priv_class: Vec<ScalarType>,
    body: Box<[DStm]>,
    instrs: Instrs,
    /// Per-site counter buckets of a profiled launch: one per entry of
    /// the kernel's [`Kernel::prov_table`] (the sites its `At` markers
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
    reg_slot: Vec<(ScalarType, u32)>,
    priv_class: Vec<ScalarType>,
    /// Postfix ops: every tape's so far in a reference decode, else only
    /// those of the tape being built, [`reg_compile`]'s input.
    ops: Vec<EOp>,
    /// Every tape's register-form instructions so far; `None` in a
    /// reference decode.
    winstrs: Option<Vec<WInstr>>,
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
                let (t, slot) = self.reg_slot[*r as usize];
                self.ops.push(EOp::Load(t, slot));
                t
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
        let (start, end, n_regs, result) = match &mut self.winstrs {
            Some(winstrs) => {
                let at = winstrs.len();
                let compiled = reg_compile(&self.ops[start..], winstrs);
                let end = winstrs.len();
                self.ops.truncate(start);
                let (n_regs, result) = compiled.map_err(|what| self.malformed(what))?;
                (at, end, n_regs, result)
            }
            None => (start, self.ops.len(), 0, 0),
        };
        let end = u32::try_from(end)
            .map_err(|_| self.malformed("kernel tapes exceed 2^32 instructions"))?;
        let start = start as u32;
        Ok(Tape {
            start,
            len: end - start,
            n_regs,
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

    fn reg(&self, r: u32) -> (ScalarType, u32) {
        self.reg_slot[r as usize]
    }

    /// Decodes a body into a slice of exactly its length (collecting a
    /// `Result` iterator would start at capacity 4 and double).
    fn stms(&mut self, stms: &[KStm]) -> SResult<Box<[DStm]>> {
        let mut out = Vec::with_capacity(stms.len());
        for s in stms {
            out.push(self.stm(s)?);
        }
        Ok(out.into_boxed_slice())
    }

    fn stm(&mut self, stm: &KStm) -> SResult<DStm> {
        Ok(match stm {
            KStm::Assign { var, exp } => {
                let (class, slot) = self.reg(*var);
                DStm::Assign {
                    class,
                    slot,
                    exp: self.value_tape(exp, class, "assignment")?,
                }
            }
            KStm::GlobalRead { var, buf, index } => {
                let (class, slot) = self.reg(*var);
                DStm::GlobalRead {
                    class,
                    slot,
                    buf: *buf,
                    index: self.index_tape(index)?,
                }
            }
            KStm::GlobalWrite { buf, index, value } => {
                let elem = match self.kernel.params.get(*buf) {
                    Some(KParam::Buffer(t)) => *t,
                    _ => {
                        return Err(SimError::Scalar(format!("argument {buf} is not a buffer")));
                    }
                };
                DStm::GlobalWrite {
                    buf: *buf,
                    index: self.index_tape(index)?,
                    value: self.value_tape(value, elem, "global write")?,
                }
            }
            KStm::LocalRead { var, mem, index } => {
                let (class, slot) = self.reg(*var);
                DStm::LocalRead {
                    class,
                    slot,
                    mem: *mem,
                    index: self.index_tape(index)?,
                }
            }
            KStm::LocalWrite { mem, index, value } => DStm::LocalWrite {
                mem: *mem,
                index: self.index_tape(index)?,
                value: self.value_tape(value, self.kernel.locals[*mem].0, "local write")?,
            },
            KStm::PrivAlloc { arr, size, .. } => DStm::PrivAlloc {
                arr: *arr,
                size: self.index_tape(size)?,
            },
            KStm::PrivRead { var, arr, index } => {
                let (class, slot) = self.reg(*var);
                DStm::PrivRead {
                    class,
                    slot,
                    arr: *arr,
                    index: self.index_tape(index)?,
                }
            }
            KStm::PrivWrite { arr, index, value } => DStm::PrivWrite {
                arr: *arr,
                index: self.index_tape(index)?,
                value: self.value_tape(value, self.priv_class[*arr], "private write")?,
            },
            KStm::PrivCopy { dst, src, len } => DStm::PrivCopy {
                dst: *dst,
                src: *src,
                len: self.index_tape(len)?,
            },
            KStm::For { var, bound, body } => {
                let (class, slot) = self.reg(*var);
                debug_assert_eq!(class, ScalarType::I64);
                DStm::For {
                    slot,
                    bound: self.index_tape(bound)?,
                    body: self.stms(body)?,
                }
            }
            KStm::While { cond, body } => DStm::While {
                cond: self.cond_tape(cond, "while")?,
                body: self.stms(body)?,
            },
            KStm::If {
                cond,
                then_s,
                else_s,
            } => DStm::If {
                cond: self.cond_tape(cond, "if")?,
                then_s: self.stms(then_s)?,
                else_s: self.stms(else_s)?,
            },
            KStm::Barrier => DStm::Barrier,
            KStm::At { prov, body } => DStm::At {
                prov: *prov,
                body: self.stms(body)?,
            },
        })
    }
}

impl DecodedKernel {
    /// Pre-decodes a kernel for the warp engine: infers a scalar class
    /// for every register and private array (fixpoint over the body;
    /// registers that are never written default to i64, matching the old
    /// `Scalar::I64(0)` register initialisation), assigns each register a
    /// slot in its class's file, and flattens every expression into a
    /// register-form `Tape`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Scalar`] for kernels the static model rejects:
    /// a register or private array used at two different classes, operand
    /// class mismatches, or argument kind confusion (these were dynamic
    /// faults in the tree-walking simulator; well-typed codegen output
    /// never triggers them).
    pub fn decode(kernel: &Kernel) -> SResult<DecodedKernel> {
        Self::decode_to(kernel, true)
    }

    /// Decodes a kernel for the per-lane reference engine: the classes,
    /// slots and tapes of [`DecodedKernel::decode`], kept in postfix form
    /// and never register-compiled. Only tests and the fuzz oracle call
    /// it.
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
        let mut file_len = [0u32; 5];
        let reg_slot: Vec<(ScalarType, u32)> = inf
            .regs
            .iter()
            .map(|c| {
                let t = c.unwrap_or(ScalarType::I64);
                let slot = file_len[ci(t)];
                file_len[ci(t)] += 1;
                (t, slot)
            })
            .collect();
        let priv_class: Vec<ScalarType> = inf
            .privs
            .iter()
            .map(|c| c.unwrap_or(ScalarType::I64))
            .collect();
        let mut comp = Compiler {
            kernel,
            reg_slot,
            priv_class,
            ops: Vec::new(),
            winstrs: register.then(Vec::new),
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
            file_len,
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
    // Matches `InterpError::DivisionByZero`'s display, which the old
    // tree-walking evaluator surfaced through `eval_binop`.
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
// Typed register files
// ---------------------------------------------------------------------------

/// Unboxed per-class register files in structure-of-arrays layout: register
/// slot `s` of lane `l` lives at `file[s * lanes + l]`, so a statement
/// sweeping the lanes for one register walks memory contiguously.
struct RegFiles {
    lanes: usize,
    i64s: Vec<i64>,
    i32s: Vec<i32>,
    f32s: Vec<f32>,
    f64s: Vec<f64>,
    bools: Vec<bool>,
}

impl RegFiles {
    fn new(file_len: &[u32; 5], lanes: usize) -> RegFiles {
        RegFiles {
            lanes,
            bools: vec![false; file_len[0] as usize * lanes],
            i32s: vec![0; file_len[1] as usize * lanes],
            i64s: vec![0; file_len[2] as usize * lanes],
            f32s: vec![0.0; file_len[3] as usize * lanes],
            f64s: vec![0.0; file_len[4] as usize * lanes],
        }
    }

    #[inline]
    fn get(&self, class: ScalarType, slot: u32, lane: usize) -> u64 {
        let i = slot as usize * self.lanes + lane;
        match class {
            ScalarType::Bool => self.bools[i] as u64,
            ScalarType::I32 => self.i32s[i] as u32 as u64,
            ScalarType::I64 => self.i64s[i] as u64,
            ScalarType::F32 => self.f32s[i].to_bits() as u64,
            ScalarType::F64 => self.f64s[i].to_bits(),
        }
    }

    #[inline]
    fn set(&mut self, class: ScalarType, slot: u32, lane: usize, bits: u64) {
        let i = slot as usize * self.lanes + lane;
        match class {
            ScalarType::Bool => self.bools[i] = bits != 0,
            ScalarType::I32 => self.i32s[i] = bits as u32 as i32,
            ScalarType::I64 => self.i64s[i] = bits as i64,
            ScalarType::F32 => self.f32s[i] = f32::from_bits(bits as u32),
            ScalarType::F64 => self.f64s[i] = f64::from_bits(bits),
        }
    }

    #[inline]
    fn set_i64(&mut self, slot: u32, lane: usize, v: i64) {
        self.i64s[slot as usize * self.lanes + lane] = v;
    }
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

/// The number of distinct `tb`-byte segments one warp's active lanes
/// touch, and the bytes they move. `mask` and `idx` cover the warp's
/// lanes (a tail warp may be short); an active lane holds an in-bounds,
/// so non-negative, element index, and an inactive lane's index is
/// ignored. Both engines count through here: one pass while the segments
/// come non-decreasing, which coalesced accesses always do; anything else
/// is sorted and deduplicated in `scratch`.
#[inline]
fn warp_transactions(
    mask: &[bool],
    idx: &[i64],
    elem_bytes: u64,
    tb: u64,
    scratch: &mut Vec<i64>,
) -> (u64, u64) {
    let seg = |i: i64| (i * elem_bytes as i64) / tb as i64;
    let active = || mask.iter().zip(idx).filter_map(|(&on, &i)| on.then_some(i));
    let (mut tx, mut useful, mut last) = (0u64, 0u64, None);
    for off in active() {
        let s = seg(off);
        match last {
            Some(p) if s == p => {}
            Some(p) if s < p => {
                scratch.clear();
                scratch.extend(active().map(seg));
                let useful = scratch.len() as u64 * elem_bytes;
                scratch.sort_unstable();
                scratch.dedup();
                return (scratch.len() as u64, useful);
            }
            _ => {
                tx += 1;
                last = Some(s);
            }
        }
        useful += elem_bytes;
    }
    (tx, useful)
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
    stats: KernelStats,
    writes: Overlays,
    /// Per-site counters (profiled runs only); length is
    /// `prov_table.len() + 1`, the last slot being the unattributed bucket.
    sites: Option<Vec<SiteStats>>,
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
    files: RegFiles,
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
    /// Warp engine: the scratch-register arena, `n_regs` columns of
    /// `lanes` bit-slots each (`scratch[reg * lanes + lane]`).
    /// Preallocated at [`WREG_FILE`] columns; spilling tapes grow it.
    scratch: Vec<u64>,
    /// Per-lane element indices of the current memory statement, the
    /// column the coalescer counts. The warp engine fills it from the
    /// index tape before the value tape runs, whose register columns
    /// would otherwise collide.
    icol: Vec<i64>,
    /// Warp engine: recycled mask storage for divergent control flow.
    mask_pool: Vec<Vec<bool>>,
    stats: KernelStats,
    /// Per-site counters, allocated only in profiled runs.
    sites: Option<Vec<SiteStats>>,
    /// The site currently executing (maintained by `DStm::At`); starts at
    /// the unattributed bucket.
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

/// Stores `bits(l)` into register `slot` of class `class` for the mask's
/// active lanes: one class dispatch, then a typed loop. `bits` is only
/// called for active lanes.
#[inline(always)]
fn store_lanes(
    files: &mut RegFiles,
    class: ScalarType,
    slot: u32,
    mask: &WMask,
    bits: impl Fn(usize) -> u64,
) {
    let lanes = files.lanes;
    let at = slot as usize * lanes;
    macro_rules! store {
        ($file:expr, |$b:ident| $e:expr) => {{
            let dst = &mut $file[at..at + lanes];
            if mask.all {
                for (l, o) in dst.iter_mut().enumerate() {
                    let $b = bits(l);
                    *o = $e;
                }
            } else {
                for (l, (o, &on)) in dst.iter_mut().zip(&mask.on).enumerate() {
                    if on {
                        let $b = bits(l);
                        *o = $e;
                    }
                }
            }
        }};
    }
    match class {
        ScalarType::Bool => store!(files.bools, |b| b != 0),
        ScalarType::I32 => store!(files.i32s, |b| b as u32 as i32),
        ScalarType::I64 => store!(files.i64s, |b| b as i64),
        ScalarType::F32 => store!(files.f32s, |b| f32::from_bits(b as u32)),
        ScalarType::F64 => store!(files.f64s, |b| f64::from_bits(b)),
    }
}

// ---------------------------------------------------------------------------
// Scratch-column arithmetic
// ---------------------------------------------------------------------------
//
// One register-form instruction is one dispatch followed by one loop over
// the lanes. The allocator often makes a destination one of its operands,
// and indexing a single `&mut [u64]` at aliasing offsets defeats LLVM's
// runtime alias check, so every loop below runs over distinct slices: the
// destination column split out of the arena, and the operand columns
// beside it. Infallible ops run over every lane, masked or not.

/// Splits column `dst` out of the arena for writing; every other column
/// stays readable through the two halves around it.
#[inline(always)]
fn split_col(s: &mut [u64], lanes: usize, dst: u32) -> (&mut [u64], &[u64], &[u64]) {
    let (below, rest) = s.split_at_mut(dst as usize * lanes);
    let (d, above) = rest.split_at_mut(lanes);
    (d, below, above)
}

/// Column `c` (not the split-out `dst`) of an arena split by [`split_col`].
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
                EOp::Load(class, slot) => self.stack.push(self.files.get(class, slot, lane)),
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

    /// The current site's counters, if this is a profiled run.
    #[inline]
    fn site(&mut self) -> Option<&mut SiteStats> {
        let i = self.cur_site;
        self.sites.as_mut().map(|s| &mut s[i])
    }

    /// Counts the warp issue cost for one statement over a mask.
    fn issue(&mut self, mask: &[bool], ops: u64) {
        let mut warps = 0u64;
        for chunk in mask.chunks(self.warp_size) {
            if chunk.iter().any(|&b| b) {
                warps += 1;
            }
        }
        self.stats.warp_instructions += warps * (1 + ops);
        if self.sites.is_some() {
            // Inactive-lane slots: lanes masked off in warps that still
            // issue — the divergence waste. Counted per site only, so the
            // aggregate stats are identical with and without profiling.
            let mut inactive = 0u64;
            for chunk in mask.chunks(self.warp_size) {
                let active = chunk.iter().filter(|&&b| b).count() as u64;
                if active > 0 {
                    inactive += chunk.len() as u64 - active;
                }
            }
            let s = self.site().expect("profiled run");
            s.warp_instructions += warps * (1 + ops);
            s.inactive_lane_instructions += inactive * (1 + ops);
        }
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
    /// ([`warp_transactions`]).
    fn memory_access(&mut self, mask: &[bool], elem_bytes: u64) {
        for (w, chunk) in mask.chunks(self.warp_size).enumerate() {
            let at = w * self.warp_size;
            let (tx, useful) = warp_transactions(
                chunk,
                &self.icol[at..at + chunk.len()],
                elem_bytes,
                self.transaction_bytes,
                &mut self.segs,
            );
            let bus = tx * self.transaction_bytes;
            self.stats.global_transactions += tx;
            self.stats.bus_bytes += bus;
            self.stats.useful_bytes += useful;
            if let Some(s) = self.site() {
                s.global_transactions += tx;
                s.bus_bytes += bus;
                s.useful_bytes += useful;
            }
        }
    }

    fn exec(&mut self, stms: &[DStm], mask: &[bool]) -> SResult<()> {
        if !mask.iter().any(|&b| b) {
            return Ok(());
        }
        for stm in stms {
            match stm {
                DStm::Assign { class, slot, exp } => {
                    self.issue(mask, exp.cost());
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let bits = self.eval(exp, lane)?;
                            self.files.set(*class, *slot, lane, bits);
                        }
                    }
                }
                DStm::GlobalRead {
                    class,
                    slot,
                    buf,
                    index,
                } => {
                    self.issue(mask, index.cost());
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
                            let bits = match self.writes.get(bid).and_then(|w| w.get(i as usize)) {
                                Some(b) => b,
                                None => buf_get_bits(self.base.raw(bid), i as usize),
                            };
                            self.files.set(*class, *slot, lane, bits);
                        }
                    }
                    self.memory_access(mask, elem_bytes);
                }
                DStm::GlobalWrite { buf, index, value } => {
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
                    self.memory_access(mask, elem_bytes);
                }
                DStm::LocalRead {
                    class,
                    slot,
                    mem,
                    index,
                } => {
                    self.issue(mask, index.cost());
                    let mut n = 0u64;
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            let len = self.locals[*mem].len();
                            if i < 0 || i as usize >= len {
                                return Err(self.oob(format!("local read {i} of len {len}")));
                            }
                            let bits = self.locals[*mem][i as usize];
                            self.files.set(*class, *slot, lane, bits);
                            n += 1;
                        }
                    }
                    self.count_local(n);
                }
                DStm::LocalWrite { mem, index, value } => {
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
                DStm::PrivAlloc { arr, size } => {
                    self.issue(mask, size.cost());
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let n = self.eval_index(size, lane)?.max(0) as usize;
                            self.reserve_private(*arr, lane, n)?;
                            self.privs[*arr * self.lanes + lane] = vec![0u64; n];
                        }
                    }
                }
                DStm::PrivRead {
                    class,
                    slot,
                    arr,
                    index,
                } => {
                    self.issue(mask, index.cost());
                    for lane in 0..mask.len() {
                        if mask[lane] {
                            let i = self.eval_index(index, lane)?;
                            let p = &self.privs[*arr * self.lanes + lane];
                            if i < 0 || i as usize >= p.len() {
                                return Err(
                                    self.oob(format!("private read {i} of len {}", p.len()))
                                );
                            }
                            let bits = p[i as usize];
                            self.files.set(*class, *slot, lane, bits);
                        }
                    }
                }
                DStm::PrivWrite { arr, index, value } => {
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
                DStm::PrivCopy { dst, src, len } => {
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
                DStm::For { slot, bound, body } => {
                    self.issue(mask, bound.cost());
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
                                self.files.set_i64(*slot, lane, t);
                            }
                        }
                        self.exec(body, &sub)?;
                    }
                }
                DStm::While { cond, body } => {
                    let mut live = mask.to_vec();
                    let mut iterations = 0u64;
                    loop {
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
                DStm::If {
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
                DStm::Barrier => {
                    // All in-bounds lanes of the group must participate.
                    if mask.iter().any(|&b| !b) {
                        return Err(SimError::DivergentBarrier {
                            kernel: self.dk.name.clone(),
                        });
                    }
                    self.stats.barriers += 1;
                    if let Some(s) = self.site() {
                        s.barriers += 1;
                    }
                    self.issue(mask, 0);
                }
                DStm::At { prov, body } => {
                    // Transparent for execution; in profiled runs the body's
                    // counters go to this site (restored on the way out, so
                    // siblings keep the enclosing attribution).
                    let saved = self.cur_site;
                    if self.sites.is_some() {
                        self.cur_site = *prov as usize;
                    }
                    let r = self.exec(body, mask);
                    self.cur_site = saved;
                    r?;
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
        self.stats.warp_instructions += mask.warps * (1 + ops);
        if self.sites.is_some() {
            let (warps, inactive) = (mask.warps, mask.inactive);
            let s = self.site().expect("profiled run");
            s.warp_instructions += warps * (1 + ops);
            s.inactive_lane_instructions += inactive * (1 + ops);
        }
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

    /// Converts a tape's integer result column into `self.icol`: one class
    /// dispatch, then a dense loop.
    fn index_column(&mut self, tape: &Tape) {
        let r = tape.result as usize * self.lanes;
        let bits = &self.scratch[r..r + self.lanes];
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

    /// Reads `src[icol[l]]` into register `slot` for the mask's active
    /// lanes: one match on (buffer type, register class), then a typed
    /// gather straight from the launch snapshot. Only a group holding a
    /// window for the buffer then reads its own writes through it.
    fn gather_global(
        &mut self,
        class: ScalarType,
        slot: u32,
        bid: BufId,
        src: &Buffer,
        mask: &WMask,
    ) {
        #[inline(always)]
        fn gather<T: Copy>(dst: &mut [T], src: &[T], idx: &[i64], mask: &WMask) {
            if mask.all {
                for (o, &i) in dst.iter_mut().zip(idx) {
                    *o = src[i as usize];
                }
            } else {
                for ((o, &i), &on) in dst.iter_mut().zip(idx).zip(&mask.on) {
                    if on {
                        *o = src[i as usize];
                    }
                }
            }
        }
        let lanes = self.lanes;
        let at = slot as usize * lanes..(slot as usize + 1) * lanes;
        let (idx, files) = (&self.icol, &mut self.files);
        match (src, class) {
            (Buffer::Bool(v), ScalarType::Bool) => gather(&mut files.bools[at], v, idx, mask),
            (Buffer::I32(v), ScalarType::I32) => gather(&mut files.i32s[at], v, idx, mask),
            (Buffer::I64(v), ScalarType::I64) => gather(&mut files.i64s[at], v, idx, mask),
            (Buffer::F32(v), ScalarType::F32) => gather(&mut files.f32s[at], v, idx, mask),
            (Buffer::F64(v), ScalarType::F64) => gather(&mut files.f64s[at], v, idx, mask),
            _ => store_lanes(files, class, slot, mask, |l| {
                buf_get_bits(src, idx[l] as usize)
            }),
        }
        if let Some(w) = self.writes.get(bid) {
            for l in (0..lanes).filter(|&l| mask.on[l]) {
                if let Some(bits) = w.get(idx[l] as usize) {
                    files.set(class, slot, l, bits);
                }
            }
        }
    }

    /// Counts `n` local-memory accesses.
    fn count_local(&mut self, n: u64) {
        self.stats.local_accesses += n;
        if let Some(s) = self.site() {
            s.local_accesses += n;
        }
    }

    /// Stores a scratch column into the typed register file for the
    /// mask's active lanes; masked-off lanes keep their register values.
    fn store_column(&mut self, class: ScalarType, slot: u32, reg: u32, mask: &WMask) {
        let lanes = self.lanes;
        let r = reg as usize * lanes;
        let s = &self.scratch;
        let base = slot as usize * lanes;
        let on = &mask.on;
        macro_rules! store {
            ($file:expr, |$b:ident| $e:expr) => {{
                let src = &s[r..r + lanes];
                let dc = &mut $file[base..base + lanes];
                if mask.all {
                    for (o, &$b) in dc.iter_mut().zip(src) {
                        *o = $e;
                    }
                } else {
                    for ((o, &$b), &m) in dc.iter_mut().zip(src).zip(on.iter()) {
                        if m {
                            *o = $e;
                        }
                    }
                }
            }};
        }
        match class {
            ScalarType::Bool => store!(&mut self.files.bools, |b| b != 0),
            ScalarType::I32 => store!(&mut self.files.i32s, |b| b as u32 as i32),
            ScalarType::I64 => store!(&mut self.files.i64s, |b| b as i64),
            ScalarType::F32 => store!(&mut self.files.f32s, |b| f32::from_bits(b as u32)),
            ScalarType::F64 => store!(&mut self.files.f64s, |b| f64::from_bits(b)),
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
    /// The result is left in scratch column `tape.result`. Faults are
    /// recorded per lane — a faulted lane is masked out of subsequent
    /// fallible instructions of the same tape — and returned for the
    /// caller to interleave with its own per-lane checks in lane-ascending
    /// order, reproducing exactly the error the per-lane engine would
    /// pick.
    fn weval(&mut self, tape: &Tape, mask: &WMask) -> SResult<TapeFaults> {
        let lanes = self.lanes;
        let dk = self.dk;
        let need = tape.n_regs as usize * lanes;
        if self.scratch.len() < need {
            // Spill: this tape needs more columns than the preallocated
            // register file; the arena grows and stays grown.
            self.scratch.resize(need, 0);
        }
        let (group_id, group_size, num_threads) =
            (self.group_id, self.group_size, self.num_threads);
        let scalar_bits = self.scalar_bits;
        let files = &self.files;
        let s: &mut [u64] = &mut self.scratch;
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

        for ins in dk.winstrs(tape) {
            match *ins {
                WInstr::Const { dst, bits } => fill1!(dst, |_l| bits),
                WInstr::Load { dst, class, slot } => {
                    // Exact subslices of the register file and the scratch
                    // column: check-free, vectorizable copies.
                    macro_rules! load {
                        ($file:expr, |$v:ident| $e:expr) => {{
                            let base = slot as usize * lanes;
                            let src = &$file[base..base + lanes];
                            let d = dst as usize * lanes;
                            let dc = &mut s[d..d + lanes];
                            for (o, &$v) in dc.iter_mut().zip(src) {
                                *o = $e;
                            }
                        }};
                    }
                    match class {
                        ScalarType::Bool => load!(files.bools, |v| v as u64),
                        ScalarType::I32 => load!(files.i32s, |v| v as u32 as u64),
                        ScalarType::I64 => load!(files.i64s, |v| v as u64),
                        ScalarType::F32 => load!(files.f32s, |v| v.to_bits() as u64),
                        ScalarType::F64 => load!(files.f64s, |v| v.to_bits()),
                    }
                }
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
    /// branch-free pass, and then moves data between typed columns —
    /// gathers from the launch snapshot, column writes into the group's
    /// window — and control flow takes a uniform fast path when all
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
            match stm {
                DStm::Assign { class, slot, exp } => {
                    self.issue_w(mask, exp.cost());
                    let tf = self.weval(exp, mask)?;
                    if let Some((_, e)) = tf.into_first() {
                        return Err(e);
                    }
                    self.store_column(*class, *slot, exp.result, mask);
                }
                DStm::GlobalRead {
                    class,
                    slot,
                    buf,
                    index,
                } => {
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
                    self.gather_global(*class, *slot, bid, src, mask);
                    self.memory_access(&mask.on, src.elem_type().byte_size() as u64);
                }
                DStm::GlobalWrite { buf, index, value } => {
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
                    let (idx, vals) = (&self.icol, &self.scratch[rv..rv + lanes]);
                    self.writes.window(bid).set_column(idx, vals, mask);
                    self.memory_access(&mask.on, src.elem_type().byte_size() as u64);
                }
                DStm::LocalRead {
                    class,
                    slot,
                    mem,
                    index,
                } => {
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
                    let (idx, local) = (&self.icol, &self.locals[*mem]);
                    store_lanes(&mut self.files, *class, *slot, mask, |l| {
                        local[idx[l] as usize]
                    });
                    self.count_local(mask.active);
                }
                DStm::LocalWrite { mem, index, value } => {
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
                    let (idx, vals) = (&self.icol, &self.scratch[rv..rv + lanes]);
                    let local = &mut self.locals[*mem];
                    for l in (0..lanes).filter(|&l| mask.on[l]) {
                        local[idx[l] as usize] = vals[l];
                    }
                    self.count_local(mask.active);
                }
                DStm::PrivAlloc { arr, size } => {
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
                        self.privs[*arr * lanes + l] = vec![0u64; n];
                    }
                }
                DStm::PrivRead {
                    class,
                    slot,
                    arr,
                    index,
                } => {
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
                    let idx = &self.icol;
                    store_lanes(&mut self.files, *class, *slot, mask, |l| {
                        ps[l][idx[l] as usize]
                    });
                }
                DStm::PrivWrite { arr, index, value } => {
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
                    let (idx, vals) = (&self.icol, &self.scratch[rv..rv + lanes]);
                    let ps = &mut self.privs[*arr * lanes..(*arr + 1) * lanes];
                    for l in (0..lanes).filter(|&l| mask.on[l]) {
                        ps[l][idx[l] as usize] = vals[l];
                    }
                }
                DStm::PrivCopy { dst, src, len } => {
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
                        let v = self.privs[*src * lanes + l][..n].to_vec();
                        self.privs[*dst * lanes + l] = v;
                    }
                }
                DStm::For { slot, bound, body } => {
                    self.issue_w(mask, bound.cost());
                    let tf = self.weval(bound, mask)?;
                    if let Some((_, e)) = tf.into_first() {
                        return Err(e);
                    }
                    self.index_column(bound);
                    // Owned per-For bounds: the body recurses through the
                    // shared index column.
                    let bounds = self.icol.clone();
                    let mut active = (0..lanes).filter(|&l| mask.on[l]).map(|l| bounds[l]);
                    let first = active.next();
                    let uniform = active.all(|b| Some(b) == first);
                    if uniform {
                        // Uniform fast path: every active lane runs the
                        // same trip count, so the per-iteration sub-mask
                        // is the loop mask itself — never rebuilt.
                        let b = first.unwrap_or(0);
                        for t in 0..b {
                            if mask.all {
                                let base = *slot as usize * lanes;
                                for l in 0..lanes {
                                    self.files.i64s[base + l] = t;
                                }
                            } else {
                                for l in 0..lanes {
                                    if mask.on[l] {
                                        self.files.set_i64(*slot, l, t);
                                    }
                                }
                            }
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
                            for l in 0..lanes {
                                if sub.on[l] {
                                    self.files.set_i64(*slot, l, t);
                                }
                            }
                            self.wexec(body, &sub)?;
                        }
                        let bits = sub.on;
                        self.put_bits(bits);
                    }
                }
                DStm::While { cond, body } => {
                    let ws = self.warp_size;
                    let mut live = {
                        let mut v = self.take_bits();
                        v.copy_from_slice(&mask.on);
                        WMask::new(v, ws)
                    };
                    let mut iterations = 0u64;
                    loop {
                        self.issue_w(&live, cond.cost());
                        let tf = self.weval(cond, &live)?;
                        if let Some((_, e)) = tf.into_first() {
                            return Err(e);
                        }
                        let r = cond.result as usize * lanes;
                        let mut dropped = false;
                        for (on, &c) in live.on.iter_mut().zip(&self.scratch[r..r + lanes]) {
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
                DStm::If {
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
                    for (&on, &c) in mask.on.iter().zip(&self.scratch[r..r + lanes]) {
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
                                let c = self.scratch[r + l] != 0;
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
                DStm::Barrier => {
                    if !mask.all {
                        return Err(SimError::DivergentBarrier {
                            kernel: self.dk.name.clone(),
                        });
                    }
                    self.stats.barriers += 1;
                    if let Some(s) = self.site() {
                        s.barriers += 1;
                    }
                    self.issue_w(mask, 0);
                }
                DStm::At { prov, body } => {
                    let saved = self.cur_site;
                    if self.sites.is_some() {
                        self.cur_site = *prov as usize;
                    }
                    let r = self.wexec(body, mask);
                    self.cur_site = saved;
                    r?;
                }
            }
        }
        Ok(())
    }
}

/// Runs one work-group against the shared memory snapshot and returns its
/// stats and write log, on the engine the kernel's decoded form picks.
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
    profile: bool,
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
        files: RegFiles::new(&dk.file_len, lanes),
        privs: vec![Vec::new(); dk.priv_class.len() * lanes],
        priv_bytes: 0,
        capacity: device.global_mem_bytes,
        locals: local_sizes.iter().map(|&(_, n)| vec![0u64; n]).collect(),
        writes: Overlays::default(),
        stack: Vec::new(),
        segs: Vec::with_capacity(device.warp_size as usize),
        scratch: if reference {
            Vec::new()
        } else {
            vec![0u64; WREG_FILE as usize * lanes]
        },
        icol: vec![0i64; lanes],
        mask_pool: Vec::new(),
        stats: KernelStats::default(),
        sites: profile.then(|| vec![SiteStats::default(); n_sites]),
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
        stats: run.stats,
        writes: run.writes,
        sites: run.sites,
    })
}

// ---------------------------------------------------------------------------
// Launch
// ---------------------------------------------------------------------------

/// Evaluates a local-buffer size expression, which must be uniform across
/// the group: built from constants, `GroupSize`, scalar arguments, and
/// binary operators (all at i64, as in the tree-walking simulator).
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
/// always win. (It used to be latched in a `OnceLock`, which pinned the
/// first caller's snapshot for the life of the process — fatal in a
/// long-lived daemon serving requests with differing settings.)
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
    /// Collect per-source-site counters ([`LaunchOut::sites`], and the
    /// run's `PerfReport::per_site`). Off by default; the aggregate
    /// counters are bit-identical either way (per-site counters are
    /// accumulated separately and never feed back into execution or the
    /// [`KernelStats`] totals).
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

/// Everything one launch produced: the aggregate counters, and per-site
/// buckets when profiled.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchOut {
    /// Aggregate execution counters (bit-identical across engines, thread
    /// counts, and profiling).
    pub stats: KernelStats,
    /// Per-site counters, present only on profiled launches.
    pub sites: Option<Vec<SiteStats>>,
}

/// Minimum group count before spawning worker threads: below this the
/// per-thread setup costs more than the parallelism recovers.
const PAR_MIN_GROUPS: u64 = 2;

/// Launches a pre-decoded kernel over `num_threads` threads, executing
/// independent work-groups on up to `opts.threads` host threads, and
/// bucketing counters by source site when `opts.profile` is set (the
/// decoded kernel's provenance table; the extra final slot is the
/// unattributed bucket). The kernel runs on the warp engine if it was
/// decoded by [`DecodedKernel::decode`], and on the per-lane reference
/// engine if by [`DecodedKernel::reference`]. Results — device memory,
/// the returned [`KernelStats`], and any error — are bit-identical for
/// every thread count, engine and profiling choice (see the module docs
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
    let &RunOptions {
        threads, profile, ..
    } = opts;
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
            profile,
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
    let mut stats = KernelStats {
        threads: num_threads,
        ..KernelStats::default()
    };
    let mut sites = profile.then(|| vec![SiteStats::default(); dk.n_sites]);
    for out in outs.into_iter().flatten() {
        let out = out?;
        for (bid, win) in &out.writes.0 {
            win.commit(mem.raw_mut(*bid));
        }
        stats.merge(&out.stats);
        if let (Some(total), Some(group)) = (&mut sites, &out.sites) {
            for (t, g) in total.iter_mut().zip(group) {
                t.merge(g);
            }
        }
    }
    Ok(LaunchOut { stats, sites })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KParam, KStm};

    /// Unprofiled, on `threads` host threads.
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
            ],
        };
        let dk = DecodedKernel::decode(&k).unwrap();
        // Each register's destination carries its inferred class.
        let dests: Vec<(ScalarType, u32)> = dk
            .body
            .iter()
            .map(|s| match s {
                DStm::GlobalRead { class, slot, .. } | DStm::Assign { class, slot, .. } => {
                    (*class, *slot)
                }
                other => panic!("unexpected statement {other:?}"),
            })
            .collect();
        assert_eq!(
            dests,
            [
                (ScalarType::F64, 0),
                (ScalarType::I64, 0),
                (ScalarType::Bool, 0)
            ]
        );
        // One slot per class used.
        assert_eq!(dk.file_len[ci(ScalarType::F64)], 1);
        assert_eq!(dk.file_len[ci(ScalarType::I64)], 1);
        assert_eq!(dk.file_len[ci(ScalarType::Bool)], 1);
        assert_eq!(dk.file_len[ci(ScalarType::F32)], 0);
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
    // Register allocator (reg_compile): determinism, spills, type classes
    // -----------------------------------------------------------------------

    /// `out[i] = c1 + (c2 + (… + (c_depth + i)))`, built without the
    /// constant-folding helpers so the postfix stack reaches `depth + 1`
    /// live slots — past the warp register file for `depth >= 16`.
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

    /// The value tape of a kernel whose single statement is a GlobalWrite.
    fn write_value_tape(dk: &DecodedKernel) -> &Tape {
        assert_eq!(dk.body.len(), 1, "expected a single statement");
        write_value_tape_at(dk, 0)
    }

    /// The value tape of the GlobalWrite at statement `at`.
    fn write_value_tape_at(dk: &DecodedKernel, at: usize) -> &Tape {
        match &dk.body[at] {
            DStm::GlobalWrite { value, .. } => value,
            other => panic!("expected a GlobalWrite, found {other:?}"),
        }
    }

    #[test]
    fn decoded_statements_stay_compact() {
        // A tape is a range of its kernel's instruction arrays, so a
        // statement holds no instruction storage of its own.
        assert_eq!(std::mem::size_of::<Tape>(), 24);
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
        let (Instrs::Register(winstrs), Instrs::Postfix(ops)) = (&dk.instrs, &rk.instrs) else {
            panic!("decode keeps the register form, reference the postfix form");
        };
        assert_eq!(winstrs.len(), ops.len(), "one instruction per op");
        let (
            DStm::GlobalWrite {
                index: di,
                value: dv,
                ..
            },
            DStm::GlobalWrite {
                index: ri,
                value: rv,
                ..
            },
        ) = (&dk.body[0], &rk.body[0])
        else {
            panic!("expected a GlobalWrite in both");
        };
        for (d, r) in [(di, ri), (dv, rv)] {
            assert_eq!(d.range(), r.range());
            assert!(dk.ops(d).is_empty() && rk.winstrs(r).is_empty());
            let mut w = Vec::new();
            let (n_regs, result) = reg_compile(rk.ops(r), &mut w).unwrap();
            assert_eq!(w, dk.winstrs(d));
            assert_eq!((n_regs, result), (d.n_regs, d.result));
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
        assert_eq!(ta.n_regs, tb.n_regs);
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
        assert_eq!(reg_compile(&ops, &mut wa), reg_compile(&ops, &mut wb));
        assert_eq!(wa, wb);
        assert_eq!(wa.len(), ops.len(), "one instruction per op");
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
        let (n_regs, result) = reg_compile(&ops, &mut winstrs).unwrap();
        assert_eq!(n_regs, 2);
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
        let err = reg_compile(&underflow, &mut Vec::new()).unwrap_err();
        assert!(err.contains("underflow"), "got: {err}");
        // An empty tape has no result.
        let err = reg_compile(&[], &mut Vec::new()).unwrap_err();
        assert!(err.contains("empty"), "got: {err}");
        // Two pushes, no combining op: leftover operands.
        let unbalanced = vec![EOp::Const(1), EOp::Const(2)];
        let err = reg_compile(&unbalanced, &mut Vec::new()).unwrap_err();
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
        let tape = write_value_tape(&dk);
        assert!(
            tape.n_regs > WREG_FILE,
            "depth {depth} should exceed the {WREG_FILE}-register file, used {}",
            tape.n_regs
        );
        assert_eq!(tape.spills(), tape.n_regs - WREG_FILE);
        // The spilling tape must still evaluate correctly on both engines.
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
        match &dkb.body[..] {
            [DStm::If { cond, .. }] => {
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
        let mut rng = futhark_core::rng::Rng64::seed_from_u64(7);
        let mut scratch = Vec::new();
        let mut one_pass = 0;
        for case in 0..4000 {
            let warp = [32usize, 64][case % 2];
            // A partial tail warp every few cases.
            let lanes = if case % 5 == 0 {
                1 + rng.pick(warp)
            } else {
                warp
            };
            let eb = [1u64, 4, 8][rng.pick(3)];
            // 96 is not a power of two.
            let tb = [64u64, 96, 128][rng.pick(3)];
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
                // Consecutive ascending, often with every lane on.
                _ => idx = (0..lanes as i64).map(|l| base + l).collect(),
            }
            let full = case % 7 == 6 && case % 3 != 0;
            let mask: Vec<bool> = (0..lanes).map(|_| full || !rng.chance(1, 4)).collect();
            // An inactive lane's index is garbage the coalescer ignores.
            for (i, &on) in idx.iter_mut().zip(&mask) {
                if !on && rng.chance(1, 2) {
                    *i = rng.gen_i64(-(1 << 40), 1 << 40);
                }
            }
            let want = sort_dedup_transactions(&mask, &idx, eb, tb);
            let got = warp_transactions(&mask, &idx, eb, tb, &mut scratch);
            assert_eq!(got, want, "case {case}: mask {mask:?} indices {idx:?}");
            let mut last = i64::MIN;
            one_pass += usize::from(mask.iter().zip(&idx).filter(|(&on, _)| on).all(|(_, &i)| {
                let s = i * eb as i64 / tb as i64;
                std::mem::replace(&mut last, s) <= s
            }));
        }
        assert!(one_pass > 1000, "monotone warps take the one-pass path");
        // A full warp of consecutive indices: 32 f32s from index 30 span
        // bytes 120..248, two 128-byte segments; 32 i64s from 0 span three
        // 96-byte segments.
        let on = [true; 32];
        let from = |k: i64| (k..k + 32).collect::<Vec<i64>>();
        assert_eq!(
            warp_transactions(&on, &from(30), 4, 128, &mut scratch),
            (2, 128)
        );
        assert_eq!(
            warp_transactions(&on, &from(0), 8, 96, &mut scratch),
            (3, 256)
        );
        // An element wider than a segment skips segments.
        assert_eq!(
            warp_transactions(&on, &from(0), 8, 4, &mut scratch),
            (32, 256)
        );
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
                    let opts = RunOptions {
                        threads: host,
                        profile: true,
                        ..RunOptions::default()
                    };
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
