//! Code generation: flattened core IR → [`GpuPlan`].
//!
//! Perfect map nests become `SegMap`-style kernels (one thread per element
//! of the nest's index space); nests whose innermost statement is a
//! `reduce`/`scan` become segmented-operator kernels (one thread per
//! segment, reducing sequentially — always efficient, cf. the discussion
//! of rule G5); top-level `reduce`/`redomap`/`stream_red` become two-stage
//! streaming folds. All remaining SOACs inside a thread body are
//! *efficiently sequentialised* (Section 4): loops over registers and
//! private arrays, with in-place updates compiled to plain writes.
//!
//! Two locality optimisations from Section 5.2 are applied here:
//!
//! - **Memory coalescing**: a context array whose rows are iterated
//!   sequentially inside the thread is requested in a transposed layout
//!   (sequential dimensions outermost), making consecutive threads touch
//!   consecutive addresses. The executor materialises layouts lazily and
//!   caches them.
//! - **1-D block tiling**: a thread-body loop reading a thread-invariant
//!   array element per iteration is rewritten to stage the array through
//!   local memory, one tile per barrier round (the N-body pattern).

use crate::kernel::{KExp, KParam, KStm, Kernel, PrivId, Reg};
use crate::plan::{ArgSpec, GpuPlan, HBody, HStm, LaunchKind, LaunchSpec, OutSpec};
use futhark_core::schedule::{ChoiceClass, ScheduleCursor};
use futhark_core::{
    BinOp, Body, Exp, Lambda, LoopForm, Name, Param, PatElem, Program, Prov, ScalarType, Size,
    Soac, Stm, SubExp, Type,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A code-generation failure (construct outside the supported subset; such
/// statements fall back to interpreted device ops instead, so this error
/// is internal).
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenError {
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

type CResult<T> = Result<T, CodegenError>;

fn cerr<T>(m: impl Into<String>) -> CResult<T> {
    Err(CodegenError { message: m.into() })
}

/// Compiles the `main` function of a flattened program into a GPU plan.
/// The coalescing-transposition and 1-D tiling sites consult (and
/// advance) the given schedule cursor.
///
/// # Errors
///
/// Returns a [`CodegenError`] only if `main` is missing; unsupported
/// statements become interpreter fallbacks, not errors.
pub fn compile(prog: &Program, cur: &mut ScheduleCursor) -> Result<GpuPlan, CodegenError> {
    let main = prog.main().ok_or_else(|| CodegenError {
        message: "program has no main function".into(),
    })?;
    let mut cg = Codegen {
        cur,
        kernels: Vec::new(),
        folds: Vec::new(),
        types: HashMap::new(),
        kcount: 0,
    };
    for p in &main.params {
        cg.types.insert(p.name.clone(), p.ty.clone());
    }
    let body = cg.host_body(&main.body);
    futhark_trace::event_n("codegen.kernels_extracted", cg.kcount as u64);
    Ok(GpuPlan {
        params: main.params.clone(),
        kernels: cg.kernels,
        folds: cg.folds,
        body,
        mem_planned: false,
    })
}

struct Codegen<'a> {
    /// Choice points: per-site coalescing and per-kernel tiling decisions.
    cur: &'a mut ScheduleCursor,
    kernels: Vec<Kernel>,
    folds: Vec<Kernel>,
    types: HashMap<Name, Type>,
    kcount: usize,
}

impl Codegen<'_> {
    fn host_body(&mut self, body: &Body) -> HBody {
        let mut out = Vec::new();
        for stm in &body.stms {
            for pe in &stm.pat {
                self.types.insert(pe.name.clone(), pe.ty.clone());
            }
            match &stm.exp {
                Exp::Soac(_) => match self.try_launch(stm) {
                    Ok(hstms) => out.extend(hstms),
                    Err(_) => {
                        // The statement runs as an interpreter fallback; the
                        // trace counter (surfaced by futhark-prof) replaces
                        // the old stderr diagnostic.
                        futhark_trace::event("codegen.fallback_sites");
                        out.push(HStm::Direct(stm.clone()));
                    }
                },
                Exp::Loop {
                    params,
                    form,
                    body: lbody,
                } if body_has_soac(lbody)
                    || matches!(form, LoopForm::While(c) if body_has_soac(c)) =>
                {
                    for (p, _) in params {
                        self.types.insert(p.name.clone(), p.ty.clone());
                    }
                    let hb = self.host_body(lbody);
                    match form {
                        LoopForm::For { var, bound } => out.push(HStm::Loop {
                            pat: stm.pat.clone(),
                            params: params.clone(),
                            while_cond: None,
                            for_var: Some((var.clone(), bound.clone())),
                            body: hb,
                        }),
                        LoopForm::While(c) => out.push(HStm::Loop {
                            pat: stm.pat.clone(),
                            params: params.clone(),
                            while_cond: Some(self.host_body(c)),
                            for_var: None,
                            body: hb,
                        }),
                    }
                }
                Exp::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } if body_has_soac(then_body) || body_has_soac(else_body) => {
                    let t = self.host_body(then_body);
                    let e = self.host_body(else_body);
                    out.push(HStm::If {
                        pat: stm.pat.clone(),
                        cond: cond.clone(),
                        then_b: t,
                        else_b: e,
                    });
                }
                _ => out.push(HStm::Direct(stm.clone())),
            }
        }
        HBody {
            stms: out,
            result: body.result.clone(),
        }
    }

    fn kernel_name(&mut self, tag: &str) -> String {
        self.kcount += 1;
        format!("{tag}_{}", self.kcount)
    }

    /// Attempts to compile a SOAC statement into kernel launches.
    fn try_launch(&mut self, stm: &Stm) -> CResult<Vec<HStm>> {
        match &stm.exp {
            Exp::Soac(Soac::Map { width, lam, arrs }) => self.segmap(stm, width, lam, arrs),
            Exp::Soac(Soac::Reduce {
                width,
                lam,
                neutral,
                arrs,
                ..
            }) if lam.ret.iter().all(Type::is_scalar) => {
                self.stream_fold_launch(
                    stm, width, neutral, arrs, lam, None, // plain reduce: identity map stage
                )
            }
            Exp::Soac(Soac::Redomap {
                width,
                red_lam,
                map_lam,
                neutral,
                arrs,
                ..
            }) if red_lam.ret.iter().all(Type::is_scalar) && map_lam.ret.len() == neutral.len() => {
                self.stream_fold_launch(stm, width, neutral, arrs, red_lam, Some(map_lam))
            }
            Exp::Soac(Soac::StreamRed {
                width,
                red_lam,
                fold_lam,
                accs,
                arrs,
            }) if fold_lam.ret.len() == accs.len() => {
                self.stream_red_launch(stm, width, red_lam, fold_lam, accs, arrs)
            }
            Exp::Soac(Soac::Scatter {
                width,
                dest,
                indices,
                values,
            }) => self.scatter_launch(stm, width, dest, indices, values),
            _ => cerr("unsupported SOAC at host level"),
        }
    }

    /// Builds a SegMap-family kernel from a perfect map nest.
    fn segmap(
        &mut self,
        stm: &Stm,
        width: &SubExp,
        lam: &Lambda,
        arrs: &[Name],
    ) -> CResult<Vec<HStm>> {
        // Peel the nest.
        let mut widths = vec![width.clone()];
        let mut levels: Vec<(Vec<Param>, Vec<Name>)> = vec![(lam.params.clone(), arrs.to_vec())];
        let mut innermost = &lam.body;
        loop {
            if innermost.stms.len() == 1 && innermost.result.len() == innermost.stms[0].pat.len() {
                if let Exp::Soac(Soac::Map {
                    width: w2,
                    lam: l2,
                    arrs: a2,
                }) = &innermost.stms[0].exp
                {
                    // The nest continues only if the map's outputs are the
                    // body result in order.
                    let all_res = innermost.stms[0]
                        .pat
                        .iter()
                        .zip(&innermost.result)
                        .all(|(pe, se)| se.as_var() == Some(&pe.name));
                    if all_res {
                        widths.push(w2.clone());
                        levels.push((l2.params.clone(), a2.clone()));
                        innermost = &l2.body;
                        continue;
                    }
                }
            }
            break;
        }
        let mut kb = KBuild::new(self.kernel_name("segmap"), stm.prov.clone());
        let depth = widths.len();
        // Thread indices.
        let width_args: Vec<KExp> = widths
            .iter()
            .map(|w| kb.scalar_subexp(w, ScalarType::I64))
            .collect::<CResult<_>>()?;
        let mut body_stms: Vec<KStm> = Vec::new();
        let idx_regs = kb.grid_indices(&width_args, &mut body_stms);
        // Decide coalescing layouts for context arrays: a context array
        // whose rows are themselves arrays is iterated sequentially inside
        // the thread, so we want its sequential dimensions outermost.
        let mut env: HashMap<Name, TVal> = HashMap::new();
        for (l, (params, anames)) in levels.iter().enumerate() {
            for (p, a) in params.iter().zip(anames) {
                // Resolve the array: at level 0 it is a host array; deeper
                // it is a previous level's parameter.
                let base = if l == 0 {
                    let ty = self.types.get(a).cloned().ok_or_else(|| CodegenError {
                        message: format!("unknown host array {a}"),
                    })?;
                    let row_rank = ty.rank().saturating_sub(depth);
                    let perm = if row_rank >= 1
                        && ty.rank() >= 2
                        && self.cur.decide(ChoiceClass::CoalesceInputs)
                    {
                        // Sequential (row) dims first, context dims last.
                        let d = ty.rank() - row_rank;
                        let mut perm: Vec<usize> = (d..ty.rank()).collect();
                        perm.extend(0..d);
                        futhark_trace::event("codegen.coalesced_inputs");
                        perm
                    } else {
                        Vec::new()
                    };
                    kb.array_ref(a, &ty, perm)?
                } else {
                    match env.get(a) {
                        Some(TVal::GArr(g)) => TVal::GArr(g.clone()),
                        Some(other) => other.clone(),
                        None => {
                            // A nested map over an array invariant to the
                            // outer levels (bound at host level): bind it
                            // row-major — its slicing index is this level's
                            // thread index, which is the faster-varying one,
                            // so row-major is already the coalesced layout
                            // for rank-1 rows.
                            let ty = self.types.get(a).cloned().ok_or_else(|| CodegenError {
                                message: format!("nest array {a} not bound"),
                            })?;
                            kb.array_ref(a, &ty, Vec::new())?
                        }
                    }
                };
                // Slice by this level's thread index; scalar rows become
                // register reads.
                let idx = KExp::Var(idx_regs[l]);
                let sliced = if base.rank() == 1 {
                    let TVal::GArr(g) = &base else {
                        return cerr("nest level over non-global array");
                    };
                    let s = g.slice(&[idx]);
                    let r = kb.reg();
                    body_stms.push(KStm::GlobalRead {
                        var: r,
                        buf: g.buf_arg,
                        index: s.offset,
                    });
                    TVal::Reg(r, g.elem)
                } else {
                    slice_tval(&base, &[idx])?
                };
                env.insert(p.name.clone(), sliced);
            }
        }
        // Output buffers.
        let mut outs = Vec::new();
        let mut out_refs: Vec<GRef> = Vec::new();
        for pe in &stm.pat {
            let Some(at) = pe.ty.as_array() else {
                return cerr("map output must be an array");
            };
            let row_rank = at.rank() - depth;
            let perm = if row_rank >= 1 && self.cur.decide(ChoiceClass::CoalesceOutputs) {
                let mut perm: Vec<usize> = (depth..at.rank()).collect();
                perm.extend(0..depth);
                futhark_trace::event("codegen.coalesced_outputs");
                perm
            } else {
                Vec::new()
            };
            let arg = kb.out_arg(outs.len(), at.elem);
            let dims: Vec<KExp> = at
                .dims
                .iter()
                .map(|d| kb.scalar_subexp(&SubExp::from(d), ScalarType::I64))
                .collect::<CResult<_>>()?;
            out_refs.push(GRef::new(arg, at.elem, dims, &perm));
            outs.push(OutSpec {
                elem: at.elem,
                shape: at.dims.iter().map(SubExp::from).collect(),
                perm,
                init_from: None,
                steal: None,
                write_into: None,
            });
        }
        // Lower the thread body.
        let mut lower = Lower {
            cg_types: &self.types,
            kb: &mut kb,
            env,
        };
        let results = lower.body(innermost, &mut body_stms)?;
        // Write results.
        for (r, oref) in results.iter().zip(&out_refs) {
            let idxs: Vec<KExp> = idx_regs.iter().map(|&r| KExp::Var(r)).collect();
            let dst = oref.slice(&idxs);
            lower.write_into(&dst, r, &mut body_stms)?;
        }
        let mut kernel = kb.finish(body_stms);
        if tile_1d_candidate(&kernel) && self.cur.decide(ChoiceClass::Tile) && tile_1d(&mut kernel)
        {
            futhark_trace::event("codegen.tiled_kernels");
        }
        let spec = LaunchSpec {
            kernel: self.push_kernel(kernel),
            widths,
            kind: LaunchKind::Grid,
            args: kb_args(&kb),
            outs,
        };
        Ok(vec![HStm::Launch {
            pat: stm.pat.clone(),
            spec,
        }])
    }

    /// Two-stage reduction: a streaming fold kernel producing per-thread
    /// partials, then a one-thread fold kernel combining them (see
    /// [`Codegen::combine`]). Covers top-level `reduce` and `redomap`.
    fn stream_fold_launch(
        &mut self,
        stm: &Stm,
        width: &SubExp,
        neutral: &[SubExp],
        arrs: &[Name],
        red_lam: &Lambda,
        map_lam: Option<&Lambda>,
    ) -> CResult<Vec<HStm>> {
        let mut kb = KBuild::new(self.kernel_name("redstage1"), stm.prov.clone());
        let n = kb.scalar_subexp(width, ScalarType::I64)?;
        let mut body_stms = Vec::new();
        let (lo, len) = kb.stream_chunk(&n, &mut body_stms);
        let mut lower = Lower {
            cg_types: &self.types,
            kb: &mut kb,
            env: HashMap::new(),
        };
        // Accumulator registers initialised with the neutral elements.
        let mut acc_regs = Vec::new();
        for ne in neutral {
            let e = lower.subexp(ne, &mut body_stms)?;
            let r = lower.kb.reg();
            body_stms.push(KStm::Assign { var: r, exp: e });
            acc_regs.push(r);
        }
        // Input refs.
        let mut inputs = Vec::new();
        for a in arrs {
            inputs.push(lower.lookup_array(a)?);
        }
        // Sequential loop over the chunk.
        let i = lower.kb.reg();
        let mut loop_body: Vec<KStm> = Vec::new();
        let elem_idx = KExp::Var(i).add(KExp::Var(lo));
        let mut elems: Vec<TVal> = Vec::new();
        for inp in &inputs {
            elems.push(lower.read_elem_or_slice(
                inp,
                std::slice::from_ref(&elem_idx),
                &mut loop_body,
            )?);
        }
        // Optionally apply the map stage (names are globally unique, so
        // binding into the shared environment is safe).
        let mapped: Vec<TVal> = match map_lam {
            Some(ml) => {
                for (p, v) in ml.params.iter().zip(&elems) {
                    lower.env.insert(p.name.clone(), v.clone());
                }
                lower.body(&ml.body, &mut loop_body)?
            }
            None => elems,
        };
        // acc = red(acc, mapped).
        let k = acc_regs.len();
        for (j, p) in red_lam.params.iter().enumerate() {
            let v = if j < k {
                TVal::Reg(acc_regs[j], scalar_of(&p.ty)?)
            } else {
                mapped[j - k].clone()
            };
            lower.env.insert(p.name.clone(), v);
        }
        let res = lower.body(&red_lam.body, &mut loop_body)?;
        for (r, acc) in res.iter().zip(&acc_regs) {
            let e = tval_scalar(r)?;
            loop_body.push(KStm::Assign { var: *acc, exp: e });
        }
        body_stms.push(KStm::For {
            var: i,
            bound: KExp::Var(len),
            body: loop_body,
        });
        // Write partials: one output buffer per accumulator, size T (the
        // executor substitutes the chosen thread count for the -1 shape).
        let mut outs = Vec::new();
        for (j, ne) in neutral.iter().enumerate() {
            let t = self.subexp_scalar_type(ne)?;
            let arg = lower.kb.out_arg(j, t);
            body_stms.push(KStm::GlobalWrite {
                buf: arg,
                index: KExp::GlobalId,
                value: KExp::Var(acc_regs[j]),
            });
            outs.push(OutSpec {
                elem: t,
                shape: vec![SubExp::i64(-1)],
                perm: Vec::new(),
                init_from: None,
                steal: None,
                write_into: None,
            });
        }
        let kernel = kb.finish(body_stms);
        // The launch binds the partials under the final output names (the
        // Combine reads them before rebinding, so the shadowing is safe).
        let pat: Vec<PatElem> = stm
            .pat
            .iter()
            .zip(neutral)
            .map(|(pe, ne)| {
                let t = self.subexp_scalar_type(ne).expect("scalar neutral");
                PatElem::new(pe.name.clone(), Type::array_of(t, vec![Size::Const(-1)]))
            })
            .collect();
        let partial_names: Vec<Name> = pat.iter().map(|pe| pe.name.clone()).collect();
        let rows: Vec<Type> = pat.iter().map(|pe| Type::Scalar(pe.ty.elem())).collect();
        let combine = self.combine(&kernel.name, stm, &partial_names, &rows, red_lam, neutral)?;
        let spec = LaunchSpec {
            kernel: self.push_kernel(kernel),
            widths: vec![width.clone()],
            kind: LaunchKind::Stream {
                total: width.clone(),
            },
            args: kb_args(&kb),
            outs,
        };
        Ok(vec![HStm::Launch { pat, spec }, combine])
    }

    /// Top-level `stream_red`: fold kernel over chunks + combine.
    fn stream_red_launch(
        &mut self,
        stm: &Stm,
        width: &SubExp,
        red_lam: &Lambda,
        fold_lam: &Lambda,
        accs: &[SubExp],
        arrs: &[Name],
    ) -> CResult<Vec<HStm>> {
        // Only accumulator results supported (no mapped-out chunk arrays).
        if fold_lam.ret.len() != accs.len() {
            return cerr("stream_red with chunk array outputs not kernelised");
        }
        let mut kb = KBuild::new(self.kernel_name("streamred"), stm.prov.clone());
        let n = kb.scalar_subexp(width, ScalarType::I64)?;
        let mut body_stms = Vec::new();
        let (lo, len) = kb.stream_chunk(&n, &mut body_stms);
        let mut lower = Lower {
            cg_types: &self.types,
            kb: &mut kb,
            env: HashMap::new(),
        };
        // chunk-size parameter.
        let chunk_param = &fold_lam.params[0];
        let chunk_reg = lower.kb.reg();
        body_stms.push(KStm::Assign {
            var: chunk_reg,
            exp: KExp::Var(len),
        });
        lower.env.insert(
            chunk_param.name.clone(),
            TVal::Reg(chunk_reg, ScalarType::I64),
        );
        // Accumulator parameters: materialised per-thread (consumable).
        let k = accs.len();
        for (p, init) in fold_lam.params[1..1 + k].iter().zip(accs) {
            let v = lower.init_acc(p, init, &mut body_stms)?;
            lower.env.insert(p.name.clone(), v);
        }
        // Chunk arrays: slices [lo, lo+len) of the inputs.
        for (p, a) in fold_lam.params[1 + k..].iter().zip(arrs) {
            let base = lower.lookup_array(a)?;
            let TVal::GArr(mut g) = base else {
                return cerr("stream input must be global");
            };
            g.offset = g
                .offset
                .clone()
                .add(KExp::Var(lo).mul(g.strides[0].clone()));
            g.dims[0] = KExp::Var(len);
            lower.env.insert(p.name.clone(), TVal::GArr(g));
        }
        let results = lower.body(&fold_lam.body, &mut body_stms)?;
        // Write per-thread accumulator partials.
        let mut outs = Vec::new();
        for (j, r) in results.iter().enumerate() {
            let acc_ty = &fold_lam.ret[j];
            match acc_ty {
                Type::Scalar(t) => {
                    let arg = lower.kb.out_arg(j, *t);
                    let e = tval_scalar(r)?;
                    body_stms.push(KStm::GlobalWrite {
                        buf: arg,
                        index: KExp::GlobalId,
                        value: e,
                    });
                    outs.push(OutSpec {
                        elem: *t,
                        shape: vec![SubExp::i64(-1)],
                        perm: Vec::new(),
                        init_from: None,
                        steal: None,
                        write_into: None,
                    });
                }
                Type::Array(at) => {
                    let arg = lower.kb.out_arg(j, at.elem);
                    let mut dim_exprs = Vec::new();
                    for d in &at.dims {
                        dim_exprs.push(lower.kb.scalar_subexp(&SubExp::from(d), ScalarType::I64)?);
                    }
                    let rowlen = dim_exprs
                        .iter()
                        .cloned()
                        .reduce(|a, b| a.mul(b))
                        .unwrap_or(KExp::i64(1));
                    let base_off = KExp::GlobalId.mul(rowlen);
                    let mut strides = vec![KExp::i64(1); dim_exprs.len()];
                    for q in (0..dim_exprs.len().saturating_sub(1)).rev() {
                        strides[q] = strides[q + 1].clone().mul(dim_exprs[q + 1].clone());
                    }
                    let dst = GRef {
                        buf_arg: arg,
                        elem: at.elem,
                        dims: dim_exprs,
                        strides,
                        offset: base_off,
                    };
                    lower.write_into(&dst, r, &mut body_stms)?;
                    let mut shape = vec![SubExp::i64(-1)];
                    shape.extend(at.dims.iter().map(SubExp::from));
                    outs.push(OutSpec {
                        elem: at.elem,
                        shape,
                        perm: Vec::new(),
                        init_from: None,
                        steal: None,
                        write_into: None,
                    });
                }
            }
        }
        let kernel = kb.finish(body_stms);
        let pat: Vec<PatElem> = stm
            .pat
            .iter()
            .zip(&fold_lam.ret)
            .map(|(pe, t)| {
                let mut dims = vec![Size::Const(-1)];
                if let Type::Array(at) = t {
                    dims.extend(at.dims.iter().cloned());
                }
                PatElem::new(pe.name.clone(), Type::array_of(t.elem(), dims))
            })
            .collect();
        let partial_names: Vec<Name> = pat.iter().map(|pe| pe.name.clone()).collect();
        let combine = self.combine(
            &kernel.name,
            stm,
            &partial_names,
            &fold_lam.ret,
            red_lam,
            accs,
        )?;
        let spec = LaunchSpec {
            kernel: self.push_kernel(kernel),
            widths: vec![width.clone()],
            kind: LaunchKind::Stream {
                total: width.clone(),
            },
            args: kb_args(&kb),
            outs,
        };
        Ok(vec![HStm::Launch { pat, spec }, combine])
    }

    /// Stage 2 of a two-stage reduction: a one-thread kernel that folds
    /// the `t` per-thread partials left to right from the initial
    /// accumulators, `acc = init; for i < t: acc = red(acc, partials[i])`
    /// (the interpreter's order), and writes the result into row 0 of the
    /// partials, which are dead afterwards. `rows` are the per-thread
    /// accumulator types. The kernel takes its stage-1 kernel's name and
    /// joins the plan's fold kernels, not its launch kernels; parameter 0
    /// is the partial count ([`ArgSpec::NumThreadsArg`] of the stage-1
    /// launch).
    fn combine(
        &mut self,
        name: &str,
        stm: &Stm,
        partials: &[Name],
        rows: &[Type],
        red_lam: &Lambda,
        init: &[SubExp],
    ) -> CResult<HStm> {
        let mut kb = KBuild::new(name.to_string(), stm.prov.clone());
        kb.params.push(KParam::Scalar(ScalarType::I64));
        kb.launch_args.push(ArgSpec::NumThreadsArg);
        let t = KExp::ScalarArg(0);
        let mut parts = Vec::new();
        for (p, row) in partials.iter().zip(rows) {
            kb.params.push(KParam::Buffer(row.elem()));
            kb.launch_args.push(ArgSpec::ArrayIn {
                name: p.clone(),
                perm: Vec::new(),
            });
            let arg = kb.params.len() - 1;
            let mut dims = vec![t.clone()];
            if let Type::Array(at) = row {
                for d in &at.dims {
                    dims.push(kb.scalar_subexp(&SubExp::from(d), ScalarType::I64)?);
                }
            }
            parts.push(GRef::new(arg, row.elem(), dims, &[]));
        }
        let mut lower = Lower {
            cg_types: &self.types,
            kb: &mut kb,
            env: HashMap::new(),
        };
        let mut body = Vec::new();
        let k = init.len();
        let mut accs = Vec::new();
        for (p, ne) in red_lam.params.iter().zip(init) {
            let acc = lower.init_acc(p, ne, &mut body)?;
            lower.env.insert(p.name.clone(), acc.clone());
            accs.push(acc);
        }
        let i = lower.kb.reg();
        let mut step = Vec::new();
        for (p, g) in red_lam.params[k..].iter().zip(&parts) {
            let x = lower.read_elem_or_slice(&TVal::GArr(g.clone()), &[KExp::Var(i)], &mut step)?;
            lower.env.insert(p.name.clone(), x);
        }
        let res = lower.body(&red_lam.body, &mut step)?;
        lower.write_back(&accs, &res, &mut step)?;
        body.push(KStm::For {
            var: i,
            bound: t,
            body: step,
        });
        for (g, acc) in parts.iter().zip(&accs) {
            lower.write_into(&g.slice(&[KExp::i64(0)]), acc, &mut body)?;
        }
        let args = kb_args(&kb);
        self.folds.push(kb.finish(body));
        Ok(HStm::Combine {
            pat: stm.pat.clone(),
            partials: partials.to_vec(),
            fold: self.folds.len() - 1,
            args,
        })
    }

    /// A scatter kernel: one thread per index/value pair. The output buffer
    /// starts as a copy of the destination; the kernel writes only the
    /// scattered positions.
    fn scatter_launch(
        &mut self,
        stm: &Stm,
        width: &SubExp,
        dest: &Name,
        indices: &Name,
        values: &Name,
    ) -> CResult<Vec<HStm>> {
        let dty = self.types.get(dest).cloned().ok_or_else(|| CodegenError {
            message: format!("unknown array {dest}"),
        })?;
        let Type::Array(dat) = &dty else {
            return cerr("scatter destination must be an array");
        };
        if dat.rank() != 1 {
            return cerr("only rank-1 scatter kernels supported");
        }
        let mut kb = KBuild::new(self.kernel_name("scatter"), stm.prov.clone());
        let mut body = Vec::new();
        let ity = self
            .types
            .get(indices)
            .cloned()
            .ok_or_else(|| CodegenError {
                message: format!("unknown array {indices}"),
            })?;
        let vty = self
            .types
            .get(values)
            .cloned()
            .ok_or_else(|| CodegenError {
                message: format!("unknown array {values}"),
            })?;
        let iref = kb.array_ref(indices, &ity, Vec::new())?;
        let vref = kb.array_ref(values, &vty, Vec::new())?;
        let out_arg = kb.out_arg(0, dat.elem);
        let dlen = kb.scalar_subexp(&SubExp::from(&dat.dims[0]), ScalarType::I64)?;
        let (TVal::GArr(ig), TVal::GArr(vg)) = (&iref, &vref) else {
            return cerr("scatter inputs must be global");
        };
        let ix = kb.reg();
        body.push(KStm::GlobalRead {
            var: ix,
            buf: ig.buf_arg,
            index: KExp::GlobalId,
        });
        let v = kb.reg();
        body.push(KStm::GlobalRead {
            var: v,
            buf: vg.buf_arg,
            index: KExp::GlobalId,
        });
        let in_bounds = KExp::BinOp(
            BinOp::And,
            Box::new(KExp::Cmp(
                futhark_core::CmpOp::Ge,
                Box::new(KExp::Var(ix)),
                Box::new(KExp::i64(0)),
            )),
            Box::new(KExp::Cmp(
                futhark_core::CmpOp::Lt,
                Box::new(KExp::Var(ix)),
                Box::new(dlen),
            )),
        );
        body.push(KStm::If {
            cond: in_bounds,
            then_s: vec![KStm::GlobalWrite {
                buf: out_arg,
                index: KExp::Var(ix),
                value: KExp::Var(v),
            }],
            else_s: vec![],
        });
        let kernel = kb.finish(body);
        let spec = LaunchSpec {
            kernel: self.push_kernel(kernel),
            widths: vec![width.clone()],
            kind: LaunchKind::Grid,
            args: kb_args(&kb),
            outs: vec![OutSpec {
                elem: dat.elem,
                shape: dat.dims.iter().map(SubExp::from).collect(),
                perm: Vec::new(),
                init_from: Some(dest.clone()),
                steal: None,
                write_into: None,
            }],
        };
        Ok(vec![HStm::Launch {
            pat: stm.pat.clone(),
            spec,
        }])
    }

    fn push_kernel(&mut self, k: Kernel) -> usize {
        self.kernels.push(k);
        self.kernels.len() - 1
    }

    fn subexp_scalar_type(&self, se: &SubExp) -> CResult<ScalarType> {
        match se {
            SubExp::Const(k) => Ok(k.scalar_type()),
            SubExp::Var(v) => match self.types.get(v) {
                Some(Type::Scalar(t)) => Ok(*t),
                _ => cerr(format!("{v} is not a scalar")),
            },
        }
    }
}

fn kb_args(kb: &KBuild) -> Vec<ArgSpec> {
    kb.launch_args.clone()
}

fn scalar_of(t: &Type) -> CResult<ScalarType> {
    match t {
        Type::Scalar(s) => Ok(*s),
        t => cerr(format!("expected scalar type, got {t}")),
    }
}

fn tval_scalar(v: &TVal) -> CResult<KExp> {
    match v {
        TVal::Reg(r, _) => Ok(KExp::Var(*r)),
        _ => cerr("expected a scalar value"),
    }
}

// ---- Kernel builder ----

/// Incremental kernel construction state.
struct KBuild {
    name: String,
    params: Vec<KParam>,
    launch_args: Vec<ArgSpec>,
    scalar_cache: HashMap<Name, usize>,
    array_cache: HashMap<(Name, Vec<usize>), usize>,
    locals: Vec<(ScalarType, KExp)>,
    regs: u32,
    privs: usize,
    /// Provenance table under construction (deduplicated).
    provs: Vec<Prov>,
    prov_cache: HashMap<Prov, u32>,
    /// Provenance of the host statement this kernel implements; wraps the
    /// whole body so scaffolding (index math, output writes) is attributed
    /// to the originating site rather than left unattributed.
    root_prov: Prov,
}

impl KBuild {
    fn new(name: String, root_prov: Prov) -> Self {
        KBuild {
            name,
            params: Vec::new(),
            launch_args: Vec::new(),
            scalar_cache: HashMap::new(),
            array_cache: HashMap::new(),
            locals: Vec::new(),
            regs: 0,
            privs: 0,
            provs: Vec::new(),
            prov_cache: HashMap::new(),
            root_prov,
        }
    }

    /// Interns a provenance set, returning its table index.
    fn prov_idx(&mut self, p: &Prov) -> u32 {
        if let Some(&i) = self.prov_cache.get(p) {
            return i;
        }
        let i = self.provs.len() as u32;
        self.provs.push(p.clone());
        self.prov_cache.insert(p.clone(), i);
        i
    }

    fn reg(&mut self) -> Reg {
        self.regs += 1;
        self.regs - 1
    }

    fn priv_id(&mut self) -> PrivId {
        self.privs += 1;
        self.privs - 1
    }

    /// A scalar argument (or constant) as a kernel expression. `t` is the
    /// scalar's type, declared on the kernel parameter so the simulator can
    /// give the argument a correctly-typed register.
    fn scalar_subexp(&mut self, se: &SubExp, t: ScalarType) -> CResult<KExp> {
        Ok(match se {
            SubExp::Const(k) => KExp::Const(*k),
            SubExp::Var(v) => {
                let idx = *self.scalar_cache.entry(v.clone()).or_insert_with(|| {
                    self.params.push(KParam::Scalar(t));
                    self.launch_args.push(ArgSpec::ScalarVar(v.clone()));
                    self.params.len() - 1
                });
                KExp::ScalarArg(idx)
            }
        })
    }

    /// A global array argument with a requested layout; returns a base ref.
    fn array_ref(&mut self, name: &Name, ty: &Type, perm: Vec<usize>) -> CResult<TVal> {
        let Type::Array(at) = ty else {
            return cerr(format!("{name} is not an array"));
        };
        let key = (name.clone(), perm.clone());
        let arg = match self.array_cache.get(&key) {
            Some(&i) => i,
            None => {
                self.params.push(KParam::Buffer(at.elem));
                self.launch_args.push(ArgSpec::ArrayIn {
                    name: name.clone(),
                    perm: perm.clone(),
                });
                let i = self.params.len() - 1;
                self.array_cache.insert(key, i);
                i
            }
        };
        let dims: Vec<KExp> = at
            .dims
            .iter()
            .map(|d| self.scalar_subexp(&SubExp::from(d), ScalarType::I64))
            .collect::<CResult<_>>()?;
        Ok(TVal::GArr(GRef::new(arg, at.elem, dims, &perm)))
    }

    /// Adds an output buffer parameter.
    fn out_arg(&mut self, out_idx: usize, elem: ScalarType) -> usize {
        self.params.push(KParam::Buffer(elem));
        self.launch_args.push(ArgSpec::Out(out_idx));
        self.params.len() - 1
    }

    /// Emits grid-index computation: decomposes the linear thread id into
    /// per-level indices (innermost fastest).
    fn grid_indices(&mut self, widths: &[KExp], out: &mut Vec<KStm>) -> Vec<Reg> {
        let lin = self.reg();
        out.push(KStm::Assign {
            var: lin,
            exp: KExp::GlobalId,
        });
        let mut regs = vec![0; widths.len()];
        let mut cur = lin;
        for l in (0..widths.len()).rev() {
            let r = self.reg();
            if l == 0 {
                out.push(KStm::Assign {
                    var: r,
                    exp: KExp::Var(cur),
                });
            } else {
                out.push(KStm::Assign {
                    var: r,
                    exp: KExp::Var(cur).rem(widths[l].clone()),
                });
                let next = self.reg();
                out.push(KStm::Assign {
                    var: next,
                    exp: KExp::Var(cur).div(widths[l].clone()),
                });
                cur = next;
            }
            regs[l] = r;
        }
        regs
    }

    /// Emits the chunk computation for streaming kernels: returns registers
    /// holding the chunk start and length for this thread.
    fn stream_chunk(&mut self, n: &KExp, out: &mut Vec<KStm>) -> (Reg, Reg) {
        // c = ceil(n / T); lo = gid*c; len = max(0, min(c, n - lo)).
        let c = self.reg();
        out.push(KStm::Assign {
            var: c,
            exp: n
                .clone()
                .add(KExp::NumThreads.add(KExp::i64(-1)))
                .div(KExp::NumThreads),
        });
        let lo = self.reg();
        out.push(KStm::Assign {
            var: lo,
            exp: KExp::GlobalId.mul(KExp::Var(c)),
        });
        let len = self.reg();
        let remaining = n.clone().add(KExp::Var(lo).mul(KExp::i64(-1)));
        out.push(KStm::Assign {
            var: len,
            exp: KExp::BinOp(
                BinOp::Max,
                Box::new(KExp::i64(0)),
                Box::new(KExp::BinOp(
                    BinOp::Min,
                    Box::new(KExp::Var(c)),
                    Box::new(remaining),
                )),
            ),
        });
        (lo, len)
    }

    fn finish(&mut self, body: Vec<KStm>) -> Kernel {
        // Root provenance marker: inner At markers (stamped per core
        // statement during lowering) refine it, so only scaffolding with no
        // closer origin falls back to the root site.
        let body = if self.root_prov.is_empty() {
            body
        } else {
            let prov = self.prov_idx(&self.root_prov.clone());
            vec![KStm::At { prov, body }]
        };
        Kernel {
            name: self.name.clone(),
            params: self.params.clone(),
            locals: self.locals.clone(),
            num_regs: self.regs,
            num_priv: self.privs,
            body,
            prov_table: self.provs.clone(),
        }
    }
}

// ---- Thread-local values ----

/// A reference into a global buffer with symbolic dims/strides (logical
/// dimension order).
#[derive(Debug, Clone)]
struct GRef {
    buf_arg: usize,
    elem: ScalarType,
    dims: Vec<KExp>,
    strides: Vec<KExp>,
    offset: KExp,
}

impl GRef {
    /// Builds a ref with strides derived from `perm` (physical order).
    fn new(buf_arg: usize, elem: ScalarType, dims: Vec<KExp>, perm: &[usize]) -> GRef {
        let rank = dims.len();
        let physical: Vec<usize> = if perm.is_empty() {
            (0..rank).collect()
        } else {
            perm.to_vec()
        };
        // stride(logical i) = product of physical dims after i's position.
        let mut strides = vec![KExp::i64(1); rank];
        for (pos, &l) in physical.iter().enumerate() {
            let mut s = KExp::i64(1);
            for &l2 in &physical[pos + 1..] {
                s = s.mul(dims[l2].clone());
            }
            strides[l] = s;
        }
        GRef {
            buf_arg,
            elem,
            dims,
            strides,
            offset: KExp::i64(0),
        }
    }

    fn slice(&self, idxs: &[KExp]) -> GRef {
        let mut offset = self.offset.clone();
        for (i, idx) in idxs.iter().enumerate() {
            offset = offset.add(idx.clone().mul(self.strides[i].clone()));
        }
        GRef {
            buf_arg: self.buf_arg,
            elem: self.elem,
            dims: self.dims[idxs.len()..].to_vec(),
            strides: self.strides[idxs.len()..].to_vec(),
            offset,
        }
    }
}

/// A reference into a per-thread private array.
#[derive(Debug, Clone)]
struct PRef {
    id: PrivId,
    elem: ScalarType,
    dims: Vec<KExp>,
    strides: Vec<KExp>,
    offset: KExp,
}

impl PRef {
    fn slice(&self, idxs: &[KExp]) -> PRef {
        let mut offset = self.offset.clone();
        for (i, idx) in idxs.iter().enumerate() {
            offset = offset.add(idx.clone().mul(self.strides[i].clone()));
        }
        PRef {
            id: self.id,
            elem: self.elem,
            dims: self.dims[idxs.len()..].to_vec(),
            strides: self.strides[idxs.len()..].to_vec(),
            offset,
        }
    }
}

/// A thread-local value.
#[derive(Debug, Clone)]
enum TVal {
    /// A scalar in a register.
    Reg(Reg, ScalarType),
    /// A view into global memory.
    GArr(GRef),
    /// A view into a private array.
    Priv(PRef),
    /// A virtual `iota n` (element `i` reads as `i`).
    VirtIota(KExp),
    /// A virtual `replicate` of a scalar.
    VirtRepl {
        /// Element value.
        value: KExp,
        /// Element type.
        elem: ScalarType,
        /// Dimensions.
        dims: Vec<KExp>,
    },
}

impl TVal {
    fn rank(&self) -> usize {
        match self {
            TVal::Reg(..) => 0,
            TVal::GArr(g) => g.dims.len(),
            TVal::Priv(p) => p.dims.len(),
            TVal::VirtIota(_) => 1,
            TVal::VirtRepl { dims, .. } => dims.len(),
        }
    }

    fn elem(&self) -> ScalarType {
        match self {
            TVal::Reg(_, t) => *t,
            TVal::GArr(g) => g.elem,
            TVal::Priv(p) => p.elem,
            TVal::VirtIota(_) => ScalarType::I64,
            TVal::VirtRepl { elem, .. } => *elem,
        }
    }

    fn dims(&self) -> Vec<KExp> {
        match self {
            TVal::Reg(..) => vec![],
            TVal::GArr(g) => g.dims.clone(),
            TVal::Priv(p) => p.dims.clone(),
            TVal::VirtIota(n) => vec![n.clone()],
            TVal::VirtRepl { dims, .. } => dims.clone(),
        }
    }
}

fn slice_tval(v: &TVal, idxs: &[KExp]) -> CResult<TVal> {
    Ok(match v {
        TVal::GArr(g) => TVal::GArr(g.slice(idxs)),
        TVal::Priv(p) => TVal::Priv(p.slice(idxs)),
        TVal::VirtRepl { value, elem, dims } => TVal::VirtRepl {
            value: value.clone(),
            elem: *elem,
            dims: dims[idxs.len()..].to_vec(),
        },
        TVal::VirtIota(_) => return cerr("cannot slice an iota (rank 1)"),
        TVal::Reg(..) => return cerr("cannot slice a scalar"),
    })
}

// ---- Thread body lowering ----

struct Lower<'a> {
    cg_types: &'a HashMap<Name, Type>,
    kb: &'a mut KBuild,
    env: HashMap<Name, TVal>,
}

impl<'a> Lower<'a> {
    fn subexp(&mut self, se: &SubExp, out: &mut Vec<KStm>) -> CResult<KExp> {
        match se {
            SubExp::Const(k) => Ok(KExp::Const(*k)),
            SubExp::Var(v) => match self.env.get(v) {
                Some(TVal::Reg(r, _)) => Ok(KExp::Var(*r)),
                Some(_) => cerr(format!("{v} is an array, not a scalar")),
                None => {
                    let _ = out;
                    // A free host scalar: declare the kernel param with the
                    // variable's real type (the simulator type-checks args).
                    let t = match self.cg_types.get(v) {
                        Some(ty) => scalar_of(ty)?,
                        None => ScalarType::I64,
                    };
                    self.kb.scalar_subexp(se, t)
                }
            },
        }
    }

    fn lookup_array(&mut self, v: &Name) -> CResult<TVal> {
        if let Some(t) = self.env.get(v) {
            return Ok(t.clone());
        }
        // A free (host) array used inside the kernel.
        let ty = self.cg_types.get(v).cloned().ok_or_else(|| CodegenError {
            message: format!("unknown array {v} in kernel body"),
        })?;
        let r = self.kb.array_ref(v, &ty, Vec::new())?;
        self.env.insert(v.clone(), r.clone());
        Ok(r)
    }

    /// Reads a single element (full indexing) or produces a slice.
    fn read_elem_or_slice(
        &mut self,
        v: &TVal,
        idxs: &[KExp],
        out: &mut Vec<KStm>,
    ) -> CResult<TVal> {
        if idxs.len() < v.rank() {
            return slice_tval(v, idxs);
        }
        let t = v.elem();
        let r = self.kb.reg();
        match v {
            TVal::GArr(g) => {
                let s = g.slice(idxs);
                out.push(KStm::GlobalRead {
                    var: r,
                    buf: g.buf_arg,
                    index: s.offset,
                });
            }
            TVal::Priv(p) => {
                let s = p.slice(idxs);
                out.push(KStm::PrivRead {
                    var: r,
                    arr: p.id,
                    index: s.offset,
                });
            }
            TVal::VirtIota(_) => {
                out.push(KStm::Assign {
                    var: r,
                    exp: idxs[0].clone(),
                });
            }
            TVal::VirtRepl { value, .. } => {
                out.push(KStm::Assign {
                    var: r,
                    exp: value.clone(),
                });
            }
            TVal::Reg(..) => return cerr("indexing a scalar"),
        }
        Ok(TVal::Reg(r, t))
    }

    /// Materialises an array value into a fresh private array.
    fn materialise(&mut self, v: &TVal, out: &mut Vec<KStm>) -> CResult<PRef> {
        let dims = v.dims();
        let elem = v.elem();
        let total = dims
            .iter()
            .cloned()
            .reduce(|a, b| a.mul(b))
            .unwrap_or(KExp::i64(1));
        let id = self.kb.priv_id();
        out.push(KStm::PrivAlloc {
            arr: id,
            elem,
            size: total,
        });
        let mut strides = vec![KExp::i64(1); dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1].clone().mul(dims[i + 1].clone());
        }
        let dst = PRef {
            id,
            elem,
            dims,
            strides,
            offset: KExp::i64(0),
        };
        self.copy_elements(&CopyDst::Priv(dst.clone()), v, out)?;
        Ok(dst)
    }

    /// Copies every element of `src` into the destination view.
    fn copy_elements(&mut self, dst: &CopyDst, src: &TVal, out: &mut Vec<KStm>) -> CResult<()> {
        let dims = src.dims();
        // Nested loops over the logical dims.
        let mut idx_regs: Vec<Reg> = Vec::new();
        for _ in &dims {
            idx_regs.push(self.kb.reg());
        }
        // Build from innermost out.
        let idxs: Vec<KExp> = idx_regs.iter().map(|&r| KExp::Var(r)).collect();
        let mut inner: Vec<KStm> = Vec::new();
        let val = self.read_elem_or_slice(src, &idxs, &mut inner)?;
        let ve = tval_scalar(&val)?;
        match dst {
            CopyDst::Priv(p) => {
                let s = p.slice(&idxs);
                inner.push(KStm::PrivWrite {
                    arr: p.id,
                    index: s.offset,
                    value: ve,
                });
            }
            CopyDst::Global(g) => {
                let s = g.slice(&idxs);
                inner.push(KStm::GlobalWrite {
                    buf: g.buf_arg,
                    index: s.offset,
                    value: ve,
                });
            }
        }
        let mut block = inner;
        for l in (0..dims.len()).rev() {
            block = vec![KStm::For {
                var: idx_regs[l],
                bound: dims[l].clone(),
                body: block,
            }];
        }
        out.extend(block);
        Ok(())
    }

    /// Writes a result value into a destination view (global output).
    fn write_into(&mut self, dst: &GRef, src: &TVal, out: &mut Vec<KStm>) -> CResult<()> {
        match src {
            TVal::Reg(r, _) => {
                out.push(KStm::GlobalWrite {
                    buf: dst.buf_arg,
                    index: dst.offset.clone(),
                    value: KExp::Var(*r),
                });
                Ok(())
            }
            arr => self.copy_elements(&CopyDst::Global(dst.clone()), arr, out),
        }
    }

    /// Initialises a (consumable) accumulator parameter from its initial
    /// value: scalars to registers, arrays to private copies.
    fn init_acc(&mut self, p: &Param, init: &SubExp, out: &mut Vec<KStm>) -> CResult<TVal> {
        match &p.ty {
            Type::Scalar(t) => {
                let e = self.subexp(init, out)?;
                let r = self.kb.reg();
                out.push(KStm::Assign { var: r, exp: e });
                Ok(TVal::Reg(r, *t))
            }
            Type::Array(_) => {
                let v = match init {
                    SubExp::Var(n) => self.lookup_array(n)?,
                    SubExp::Const(_) => return cerr("array accumulator from constant"),
                };
                let pr = self.materialise(&v, out)?;
                Ok(TVal::Priv(pr))
            }
        }
    }

    fn body(&mut self, body: &Body, out: &mut Vec<KStm>) -> CResult<Vec<TVal>> {
        for stm in &body.stms {
            // Everything emitted for this core statement is attributed to
            // its source site (inner statements re-wrap with their own,
            // finer provenance as lowering recurses).
            let start = out.len();
            let vals = self.exp(&stm.exp, &stm.pat, out)?;
            if !stm.prov.is_empty() && out.len() > start {
                let prov = self.kb.prov_idx(&stm.prov);
                let inner: Vec<KStm> = out.drain(start..).collect();
                out.push(KStm::At { prov, body: inner });
            }
            for (pe, v) in stm.pat.iter().zip(vals) {
                self.env.insert(pe.name.clone(), v);
            }
        }
        body.result
            .iter()
            .map(|se| match se {
                SubExp::Const(k) => {
                    let r = self.kb.reg();
                    out.push(KStm::Assign {
                        var: r,
                        exp: KExp::Const(*k),
                    });
                    Ok(TVal::Reg(r, k.scalar_type()))
                }
                SubExp::Var(v) => self
                    .env
                    .get(v)
                    .cloned()
                    .ok_or(())
                    .or_else(|_| self.lookup_array(v)),
            })
            .collect()
    }

    fn exp(&mut self, e: &Exp, pat: &[PatElem], out: &mut Vec<KStm>) -> CResult<Vec<TVal>> {
        match e {
            Exp::SubExp(se) => match se {
                SubExp::Const(k) => {
                    let r = self.kb.reg();
                    out.push(KStm::Assign {
                        var: r,
                        exp: KExp::Const(*k),
                    });
                    Ok(vec![TVal::Reg(r, k.scalar_type())])
                }
                SubExp::Var(v) => Ok(vec![self.env.get(v).cloned().ok_or(()).or_else(|_| {
                    if matches!(self.cg_types.get(v), Some(Type::Scalar(_))) {
                        let t = scalar_of(&self.cg_types[v])?;
                        let e = self.kb.scalar_subexp(se, t)?;
                        let r = self.kb.reg();
                        out.push(KStm::Assign { var: r, exp: e });
                        Ok(TVal::Reg(r, t))
                    } else {
                        self.lookup_array(v)
                    }
                })?]),
            },
            Exp::BinOp(op, a, b) => {
                let x = self.subexp(a, out)?;
                let y = self.subexp(b, out)?;
                let r = self.kb.reg();
                out.push(KStm::Assign {
                    var: r,
                    exp: KExp::BinOp(*op, Box::new(x), Box::new(y)),
                });
                Ok(vec![TVal::Reg(r, scalar_of(&pat[0].ty)?)])
            }
            Exp::UnOp(op, a) => {
                let x = self.subexp(a, out)?;
                let r = self.kb.reg();
                out.push(KStm::Assign {
                    var: r,
                    exp: KExp::UnOp(*op, Box::new(x)),
                });
                Ok(vec![TVal::Reg(r, scalar_of(&pat[0].ty)?)])
            }
            Exp::Cmp(op, a, b) => {
                let x = self.subexp(a, out)?;
                let y = self.subexp(b, out)?;
                let r = self.kb.reg();
                out.push(KStm::Assign {
                    var: r,
                    exp: KExp::Cmp(*op, Box::new(x), Box::new(y)),
                });
                Ok(vec![TVal::Reg(r, ScalarType::Bool)])
            }
            Exp::Convert(t, a) => {
                let x = self.subexp(a, out)?;
                let r = self.kb.reg();
                out.push(KStm::Assign {
                    var: r,
                    exp: KExp::Convert(*t, Box::new(x)),
                });
                Ok(vec![TVal::Reg(r, *t)])
            }
            Exp::Index { array, indices } => {
                let v = self.lookup_array(array)?;
                let idxs: Vec<KExp> = indices
                    .iter()
                    .map(|i| self.subexp(i, out))
                    .collect::<CResult<_>>()?;
                Ok(vec![self.read_elem_or_slice(&v, &idxs, out)?])
            }
            Exp::Update {
                array,
                indices,
                value,
            } => {
                let v = self.lookup_array(array)?;
                // Consumed target: ensure a private copy (global inputs are
                // never written by thread bodies).
                let pr = match v {
                    TVal::Priv(p) => p,
                    other => self.materialise(&other, out)?,
                };
                let idxs: Vec<KExp> = indices
                    .iter()
                    .map(|i| self.subexp(i, out))
                    .collect::<CResult<_>>()?;
                if idxs.len() == pr.dims.len() {
                    let s = pr.slice(&idxs);
                    let val = self.subexp(value, out)?;
                    out.push(KStm::PrivWrite {
                        arr: pr.id,
                        index: s.offset,
                        value: val,
                    });
                } else {
                    // Bulk row update.
                    let dst = pr.slice(&idxs);
                    let srcv = match value {
                        SubExp::Var(n) => self.lookup_array(n)?,
                        SubExp::Const(_) => return cerr("bulk update from constant"),
                    };
                    self.copy_elements(&CopyDst::Priv(dst), &srcv, out)?;
                }
                Ok(vec![TVal::Priv(pr)])
            }
            Exp::Iota(n) => {
                let e = self.subexp(n, out)?;
                Ok(vec![TVal::VirtIota(e)])
            }
            Exp::Replicate(n, v) => {
                let ne = self.subexp(n, out)?;
                match v {
                    SubExp::Const(k) => Ok(vec![TVal::VirtRepl {
                        value: KExp::Const(*k),
                        elem: k.scalar_type(),
                        dims: vec![ne],
                    }]),
                    SubExp::Var(name) => match self.env.get(name).cloned() {
                        Some(TVal::Reg(r, t)) => Ok(vec![TVal::VirtRepl {
                            value: KExp::Var(r),
                            elem: t,
                            dims: vec![ne],
                        }]),
                        Some(arr) => {
                            // replicate of an array value: materialise.
                            let mut dims = vec![ne];
                            dims.extend(arr.dims());
                            let elem = arr.elem();
                            let total = dims.iter().cloned().reduce(|a, b| a.mul(b)).unwrap();
                            let id = self.kb.priv_id();
                            out.push(KStm::PrivAlloc {
                                arr: id,
                                elem,
                                size: total,
                            });
                            let mut strides = vec![KExp::i64(1); dims.len()];
                            for i in (0..dims.len() - 1).rev() {
                                strides[i] = strides[i + 1].clone().mul(dims[i + 1].clone());
                            }
                            let pr = PRef {
                                id,
                                elem,
                                dims: dims.clone(),
                                strides,
                                offset: KExp::i64(0),
                            };
                            let i = self.kb.reg();
                            let mut inner = Vec::new();
                            let row = pr.slice(&[KExp::Var(i)]);
                            self.copy_elements(&CopyDst::Priv(row), &arr, &mut inner)?;
                            out.push(KStm::For {
                                var: i,
                                bound: dims[0].clone(),
                                body: inner,
                            });
                            Ok(vec![TVal::Priv(pr)])
                        }
                        None => {
                            let t = scalar_of(
                                &self
                                    .cg_types
                                    .get(name)
                                    .cloned()
                                    .unwrap_or(Type::Scalar(ScalarType::I64)),
                            )?;
                            let e = self.kb.scalar_subexp(v, t)?;
                            Ok(vec![TVal::VirtRepl {
                                value: e,
                                elem: t,
                                dims: vec![ne],
                            }])
                        }
                    },
                }
            }
            Exp::Rearrange { perm, array } => {
                let v = self.lookup_array(array)?;
                match v {
                    TVal::GArr(g) => {
                        let dims = perm.iter().map(|&p| g.dims[p].clone()).collect();
                        let strides = perm.iter().map(|&p| g.strides[p].clone()).collect();
                        Ok(vec![TVal::GArr(GRef {
                            buf_arg: g.buf_arg,
                            elem: g.elem,
                            dims,
                            strides,
                            offset: g.offset,
                        })])
                    }
                    TVal::Priv(p) => {
                        let dims = perm.iter().map(|&q| p.dims[q].clone()).collect();
                        let strides = perm.iter().map(|&q| p.strides[q].clone()).collect();
                        Ok(vec![TVal::Priv(PRef {
                            id: p.id,
                            elem: p.elem,
                            dims,
                            strides,
                            offset: p.offset,
                        })])
                    }
                    other => Ok(vec![other]), // rank-1 virtuals
                }
            }
            Exp::Reshape { shape, array } => {
                let v = self.lookup_array(array)?;
                // Materialise then view row-major with the new shape.
                let pr = self.materialise(&v, out)?;
                let dims: Vec<KExp> = shape
                    .iter()
                    .map(|s| self.subexp(s, out))
                    .collect::<CResult<_>>()?;
                let mut strides = vec![KExp::i64(1); dims.len()];
                for i in (0..dims.len().saturating_sub(1)).rev() {
                    strides[i] = strides[i + 1].clone().mul(dims[i + 1].clone());
                }
                Ok(vec![TVal::Priv(PRef {
                    id: pr.id,
                    elem: pr.elem,
                    dims,
                    strides,
                    offset: KExp::i64(0),
                })])
            }
            Exp::Copy(a) => {
                let v = self.lookup_array(a)?;
                let pr = self.materialise(&v, out)?;
                Ok(vec![TVal::Priv(pr)])
            }
            Exp::Concat { arrays } => {
                let vals: Vec<TVal> = arrays
                    .iter()
                    .map(|a| self.lookup_array(a))
                    .collect::<CResult<_>>()?;
                let elem = vals[0].elem();
                let total = vals
                    .iter()
                    .map(|v| {
                        v.dims()
                            .iter()
                            .cloned()
                            .reduce(|a, b| a.mul(b))
                            .unwrap_or(KExp::i64(1))
                    })
                    .reduce(|a, b| a.add(b))
                    .unwrap();
                let id = self.kb.priv_id();
                out.push(KStm::PrivAlloc {
                    arr: id,
                    elem,
                    size: total.clone(),
                });
                // Sequential copy with a running offset register.
                let off = self.kb.reg();
                out.push(KStm::Assign {
                    var: off,
                    exp: KExp::i64(0),
                });
                for v in &vals {
                    let dims = v.dims();
                    let i = self.kb.reg();
                    let mut inner = Vec::new();
                    let x = self.read_elem_or_slice(v, &[KExp::Var(i)], &mut inner)?;
                    match x {
                        TVal::Reg(r, _) => inner.push(KStm::PrivWrite {
                            arr: id,
                            index: KExp::Var(off).add(KExp::Var(i)),
                            value: KExp::Var(r),
                        }),
                        _ => return cerr("concat of multi-dim arrays in kernels"),
                    }
                    out.push(KStm::For {
                        var: i,
                        bound: dims[0].clone(),
                        body: inner,
                    });
                    out.push(KStm::Assign {
                        var: off,
                        exp: KExp::Var(off).add(dims[0].clone()),
                    });
                }
                let first_dims = total;
                Ok(vec![TVal::Priv(PRef {
                    id,
                    elem,
                    dims: vec![first_dims],
                    strides: vec![KExp::i64(1)],
                    offset: KExp::i64(0),
                })])
            }
            Exp::If {
                cond,
                then_body,
                else_body,
                ret,
            } => {
                let c = self.subexp(cond, out)?;
                // Result registers / private arrays per return value.
                let mut result_slots: Vec<TVal> = Vec::new();
                for t in ret {
                    match t {
                        Type::Scalar(s) => {
                            let r = self.kb.reg();
                            result_slots.push(TVal::Reg(r, *s));
                        }
                        Type::Array(_) => {
                            // Allocate lazily inside branches via copy; use
                            // a priv allocated with the then-branch's size.
                            let id = self.kb.priv_id();
                            result_slots.push(TVal::Priv(PRef {
                                id,
                                elem: t.elem(),
                                dims: vec![],
                                strides: vec![],
                                offset: KExp::i64(0),
                            }));
                        }
                    }
                }
                let lower_branch =
                    |lower: &mut Self, b: &Body| -> CResult<(Vec<KStm>, Vec<TVal>)> {
                        let mut stms = Vec::new();
                        let vals = lower.body(b, &mut stms)?;
                        Ok((stms, vals))
                    };
                let (mut then_s, tvals) = lower_branch(self, then_body)?;
                let (mut else_s, evals) = lower_branch(self, else_body)?;
                let mut final_slots = Vec::new();
                for ((slot, tv), ev) in result_slots.iter().zip(&tvals).zip(&evals) {
                    match slot {
                        TVal::Reg(r, t) => {
                            then_s.push(KStm::Assign {
                                var: *r,
                                exp: tval_scalar(tv)?,
                            });
                            else_s.push(KStm::Assign {
                                var: *r,
                                exp: tval_scalar(ev)?,
                            });
                            final_slots.push(TVal::Reg(*r, *t));
                        }
                        TVal::Priv(p) => {
                            // Copy branch results into the shared priv.
                            let dims = tv.dims();
                            let total = dims
                                .iter()
                                .cloned()
                                .reduce(|a, b| a.mul(b))
                                .unwrap_or(KExp::i64(1));
                            let mut strides = vec![KExp::i64(1); dims.len()];
                            for i in (0..dims.len().saturating_sub(1)).rev() {
                                strides[i] = strides[i + 1].clone().mul(dims[i + 1].clone());
                            }
                            let dst = PRef {
                                id: p.id,
                                elem: p.elem,
                                dims: dims.clone(),
                                strides,
                                offset: KExp::i64(0),
                            };
                            then_s.push(KStm::PrivAlloc {
                                arr: p.id,
                                elem: p.elem,
                                size: total.clone(),
                            });
                            self.copy_elements(&CopyDst::Priv(dst.clone()), tv, &mut then_s)?;
                            else_s.push(KStm::PrivAlloc {
                                arr: p.id,
                                elem: p.elem,
                                size: total,
                            });
                            self.copy_elements(&CopyDst::Priv(dst.clone()), ev, &mut else_s)?;
                            final_slots.push(TVal::Priv(dst));
                        }
                        _ => unreachable!(),
                    }
                }
                out.push(KStm::If {
                    cond: c,
                    then_s,
                    else_s,
                });
                Ok(final_slots)
            }
            Exp::Loop { params, form, body } => self.lower_loop(params, form, body, out),
            Exp::Soac(soac) => self.lower_soac(soac, pat, out),
            Exp::Apply { .. } => cerr("function call in kernel body (inlining missed it)"),
        }
    }

    fn lower_loop(
        &mut self,
        params: &[(Param, SubExp)],
        form: &LoopForm,
        body: &Body,
        out: &mut Vec<KStm>,
    ) -> CResult<Vec<TVal>> {
        // Initialise merge values.
        let mut merge: Vec<TVal> = Vec::new();
        for (p, init) in params {
            let v = self.init_acc(p, init, out)?;
            self.env.insert(p.name.clone(), v.clone());
            merge.push(v);
        }
        match form {
            LoopForm::For { var, bound } => {
                let b = self.subexp(bound, out)?;
                let i = self.kb.reg();
                self.env.insert(var.clone(), TVal::Reg(i, ScalarType::I64));
                let mut inner = Vec::new();
                let results = self.body(body, &mut inner)?;
                self.write_back(&merge, &results, &mut inner)?;
                out.push(KStm::For {
                    var: i,
                    bound: b,
                    body: inner,
                });
            }
            LoopForm::While(cond) => {
                // Evaluate the condition before the loop and at the end of
                // each iteration.
                let mut pre = Vec::new();
                let cvals = self.body(cond, &mut pre)?;
                let c0 = tval_scalar(&cvals[0])?;
                let cr = self.kb.reg();
                pre.push(KStm::Assign { var: cr, exp: c0 });
                out.extend(pre);
                let mut inner = Vec::new();
                let results = self.body(body, &mut inner)?;
                self.write_back(&merge, &results, &mut inner)?;
                let cvals2 = self.body(cond, &mut inner)?;
                let c2 = tval_scalar(&cvals2[0])?;
                inner.push(KStm::Assign { var: cr, exp: c2 });
                out.push(KStm::While {
                    cond: KExp::Var(cr),
                    body: inner,
                });
            }
        }
        Ok(merge)
    }

    /// Stores loop-carried results into their merge storage: registers
    /// by assignment, private arrays by element copy.
    fn write_back(&mut self, merge: &[TVal], results: &[TVal], out: &mut Vec<KStm>) -> CResult<()> {
        for (m, r) in merge.iter().zip(results) {
            match (m, r) {
                (TVal::Reg(mr, _), rv) => out.push(KStm::Assign {
                    var: *mr,
                    exp: tval_scalar(rv)?,
                }),
                (TVal::Priv(mp), TVal::Priv(rp)) if mp.id == rp.id => {}
                (TVal::Priv(mp), rv) => self.copy_elements(&CopyDst::Priv(mp.clone()), rv, out)?,
                _ => return cerr("unsupported loop merge shape"),
            }
        }
        Ok(())
    }

    fn lower_soac(
        &mut self,
        soac: &Soac,
        pat: &[PatElem],
        out: &mut Vec<KStm>,
    ) -> CResult<Vec<TVal>> {
        match soac {
            Soac::Map { width, lam, arrs } => {
                let w = self.subexp(width, out)?;
                let inputs: Vec<TVal> = arrs
                    .iter()
                    .map(|a| self.lookup_array(a))
                    .collect::<CResult<_>>()?;
                // Output private arrays.
                let mut outputs: Vec<PRef> = Vec::new();
                for (t, _pe) in lam.ret.iter().zip(pat) {
                    let mut dims = vec![w.clone()];
                    if let Type::Array(at) = t {
                        for d in &at.dims {
                            dims.push(self.kb.scalar_subexp(&SubExp::from(d), ScalarType::I64)?);
                        }
                    }
                    let elem = t.elem();
                    let total = dims.iter().cloned().reduce(|a, b| a.mul(b)).unwrap();
                    let id = self.kb.priv_id();
                    out.push(KStm::PrivAlloc {
                        arr: id,
                        elem,
                        size: total,
                    });
                    let mut strides = vec![KExp::i64(1); dims.len()];
                    for i in (0..dims.len() - 1).rev() {
                        strides[i] = strides[i + 1].clone().mul(dims[i + 1].clone());
                    }
                    outputs.push(PRef {
                        id,
                        elem,
                        dims,
                        strides,
                        offset: KExp::i64(0),
                    });
                }
                let i = self.kb.reg();
                let mut inner = Vec::new();
                for (p, v) in lam.params.iter().zip(&inputs) {
                    let elem = self.read_elem_or_slice(v, &[KExp::Var(i)], &mut inner)?;
                    self.env.insert(p.name.clone(), elem);
                }
                let results = self.body(&lam.body, &mut inner)?;
                for (r, o) in results.iter().zip(&outputs) {
                    let dst = o.slice(&[KExp::Var(i)]);
                    match r {
                        TVal::Reg(reg, _) => inner.push(KStm::PrivWrite {
                            arr: o.id,
                            index: dst.offset.clone(),
                            value: KExp::Var(*reg),
                        }),
                        arr => {
                            self.copy_elements(&CopyDst::Priv(dst), arr, &mut inner)?;
                        }
                    }
                }
                out.push(KStm::For {
                    var: i,
                    bound: w,
                    body: inner,
                });
                Ok(outputs.into_iter().map(TVal::Priv).collect())
            }
            Soac::Reduce {
                width,
                lam,
                neutral,
                arrs,
                ..
            } => self.sequential_fold(width, lam, None, neutral, arrs, out),
            Soac::Redomap {
                width,
                red_lam,
                map_lam,
                neutral,
                arrs,
                ..
            } => self.sequential_fold(width, red_lam, Some(map_lam), neutral, arrs, out),
            Soac::Scan {
                width,
                lam,
                neutral,
                arrs,
            } => {
                // Sequential scan: carry registers + output priv arrays.
                let w = self.subexp(width, out)?;
                let inputs: Vec<TVal> = arrs
                    .iter()
                    .map(|a| self.lookup_array(a))
                    .collect::<CResult<_>>()?;
                let mut carries = Vec::new();
                for ne in neutral {
                    let e = self.subexp(ne, out)?;
                    let r = self.kb.reg();
                    out.push(KStm::Assign { var: r, exp: e });
                    carries.push(r);
                }
                let mut outputs = Vec::new();
                for t in &lam.ret {
                    let elem = t.elem();
                    let id = self.kb.priv_id();
                    out.push(KStm::PrivAlloc {
                        arr: id,
                        elem,
                        size: w.clone(),
                    });
                    outputs.push(PRef {
                        id,
                        elem,
                        dims: vec![w.clone()],
                        strides: vec![KExp::i64(1)],
                        offset: KExp::i64(0),
                    });
                }
                let i = self.kb.reg();
                let mut inner = Vec::new();
                let k = neutral.len();
                for (j, p) in lam.params.iter().enumerate() {
                    if j < k {
                        self.env
                            .insert(p.name.clone(), TVal::Reg(carries[j], scalar_of(&p.ty)?));
                    } else {
                        let elem =
                            self.read_elem_or_slice(&inputs[j - k], &[KExp::Var(i)], &mut inner)?;
                        self.env.insert(p.name.clone(), elem);
                    }
                }
                let results = self.body(&lam.body, &mut inner)?;
                for ((r, o), c) in results.iter().zip(&outputs).zip(&carries) {
                    let e = tval_scalar(r)?;
                    inner.push(KStm::Assign {
                        var: *c,
                        exp: e.clone(),
                    });
                    inner.push(KStm::PrivWrite {
                        arr: o.id,
                        index: KExp::Var(i),
                        value: e,
                    });
                }
                out.push(KStm::For {
                    var: i,
                    bound: w,
                    body: inner,
                });
                Ok(outputs.into_iter().map(TVal::Priv).collect())
            }
            Soac::StreamSeq {
                width,
                lam,
                accs,
                arrs,
            } => self.inline_stream(width, lam, accs, arrs, out),
            Soac::StreamRed {
                width,
                fold_lam,
                accs,
                arrs,
                ..
            } => self.inline_stream(width, fold_lam, accs, arrs, out),
            Soac::StreamMap { width, lam, arrs } => self.inline_stream(width, lam, &[], arrs, out),
            _ => cerr("unsupported SOAC in kernel body"),
        }
    }

    /// Single-chunk inlining of a streaming SOAC inside a thread body:
    /// `stream f a ≡ f n a` (Section 4.1, chunk-size maximisation).
    fn inline_stream(
        &mut self,
        width: &SubExp,
        lam: &Lambda,
        accs: &[SubExp],
        arrs: &[Name],
        out: &mut Vec<KStm>,
    ) -> CResult<Vec<TVal>> {
        let w = self.subexp(width, out)?;
        let chunk = &lam.params[0];
        let cr = self.kb.reg();
        out.push(KStm::Assign { var: cr, exp: w });
        self.env
            .insert(chunk.name.clone(), TVal::Reg(cr, ScalarType::I64));
        let k = accs.len();
        for (p, init) in lam.params[1..1 + k].iter().zip(accs) {
            let v = self.init_acc(p, init, out)?;
            self.env.insert(p.name.clone(), v);
        }
        for (p, a) in lam.params[1 + k..].iter().zip(arrs) {
            let v = self.lookup_array(a)?;
            self.env.insert(p.name.clone(), v);
        }
        self.body(&lam.body, out)
    }

    /// Sequential reduce/redomap: accumulator registers + loop.
    fn sequential_fold(
        &mut self,
        width: &SubExp,
        red_lam: &Lambda,
        map_lam: Option<&Lambda>,
        neutral: &[SubExp],
        arrs: &[Name],
        out: &mut Vec<KStm>,
    ) -> CResult<Vec<TVal>> {
        if !red_lam.ret.iter().all(Type::is_scalar) {
            return cerr("array-valued reduction operators must be flattened (G5)");
        }
        let w = self.subexp(width, out)?;
        let inputs: Vec<TVal> = arrs
            .iter()
            .map(|a| self.lookup_array(a))
            .collect::<CResult<_>>()?;
        let mut accs = Vec::new();
        for ne in neutral {
            let e = self.subexp(ne, out)?;
            let r = self.kb.reg();
            out.push(KStm::Assign { var: r, exp: e });
            accs.push(r);
        }
        let i = self.kb.reg();
        let mut inner = Vec::new();
        let mut elems: Vec<TVal> = Vec::new();
        for v in &inputs {
            elems.push(self.read_elem_or_slice(v, &[KExp::Var(i)], &mut inner)?);
        }
        let mapped = match map_lam {
            Some(ml) => {
                for (p, v) in ml.params.iter().zip(&elems) {
                    self.env.insert(p.name.clone(), v.clone());
                }
                self.body(&ml.body, &mut inner)?
            }
            None => elems,
        };
        let k = accs.len();
        for (j, p) in red_lam.params.iter().enumerate() {
            let v = if j < k {
                TVal::Reg(accs[j], scalar_of(&p.ty)?)
            } else {
                mapped[j - k].clone()
            };
            self.env.insert(p.name.clone(), v);
        }
        let results = self.body(&red_lam.body, &mut inner)?;
        for (r, acc) in results.iter().zip(&accs) {
            let e = tval_scalar(r)?;
            inner.push(KStm::Assign { var: *acc, exp: e });
        }
        out.push(KStm::For {
            var: i,
            bound: w,
            body: inner,
        });
        Ok(accs
            .iter()
            .zip(&red_lam.ret)
            .map(|(r, t)| TVal::Reg(*r, t.elem()))
            .collect())
    }
}

enum CopyDst {
    Priv(PRef),
    Global(GRef),
}

// ---- 1-D block tiling (Section 5.2) ----

/// Rewrites top-level thread-body loops that read thread-invariant arrays
/// elementwise (`A[j]`) to stage tiles through local memory with barriers —
/// the N-body pattern. Only applied at the outermost statement level so
/// barriers stay convergent.
/// Pure applicability probe for [`tile_1d`]: true iff the rewrite would
/// tile at least one loop. Used to ask the schedule's `Tile` choice point
/// only at kernels where tiling is actually possible.
pub fn tile_1d_candidate(kernel: &Kernel) -> bool {
    fn scan(stms: &[KStm]) -> bool {
        stms.iter().any(|s| match s {
            KStm::At { body, .. } => scan(body),
            KStm::For { var, bound, body } if is_uniform(bound) => {
                !qualifying_reads(body, *var).is_empty() && !contains_barrier(body)
            }
            _ => false,
        })
    }
    scan(&kernel.body)
}

pub fn tile_1d(kernel: &mut Kernel) -> bool {
    let mut locals = kernel.locals.clone();
    let mut next_reg = kernel.num_regs;
    let mut tiled = false;
    let body = std::mem::take(&mut kernel.body);
    kernel.body = tile_stms(body, &kernel.params, &mut locals, &mut next_reg, &mut tiled);
    kernel.locals = locals;
    kernel.num_regs = next_reg;
    tiled
}

/// Collects buffers read as `A[var]` among `stms`, looking through
/// provenance markers (which are transparent statement grouping).
fn qualifying_reads(stms: &[KStm], var: Reg) -> Vec<usize> {
    let mut bufs = Vec::new();
    for s in stms {
        match s {
            KStm::GlobalRead { buf, index, .. } if *index == KExp::Var(var) => bufs.push(*buf),
            KStm::At { body, .. } => bufs.extend(qualifying_reads(body, var)),
            _ => {}
        }
    }
    bufs
}

fn tile_stms(
    stms: Vec<KStm>,
    params: &[KParam],
    locals: &mut Vec<(ScalarType, KExp)>,
    next_reg: &mut u32,
    tiled: &mut bool,
) -> Vec<KStm> {
    let mut new_body = Vec::new();
    for stm in stms {
        match stm {
            // Provenance markers are transparent: a loop directly inside
            // one is still at the outermost (convergent) statement level.
            KStm::At { prov, body } => new_body.push(KStm::At {
                prov,
                body: tile_stms(body, params, locals, next_reg, tiled),
            }),
            KStm::For { var, bound, body } if is_uniform(&bound) => {
                // Qualifying reads: GlobalRead { index: Var(var) }.
                let bufs = qualifying_reads(&body, var);
                if bufs.is_empty() || contains_barrier(&body) {
                    new_body.push(KStm::For { var, bound, body });
                    continue;
                }
                // Allocate one local buffer per distinct qualifying array,
                // keyed in buffer order so the loads below are emitted in a
                // fixed order.
                let mut local_of: BTreeMap<usize, usize> = BTreeMap::new();
                for (i, p) in params.iter().enumerate() {
                    if bufs.contains(&i) {
                        if let KParam::Buffer(t) = p {
                            local_of.entry(i).or_insert_with(|| {
                                locals.push((*t, KExp::GroupSize));
                                locals.len() - 1
                            });
                        }
                    }
                }
                // The tile size is the number of live lanes in this group
                // (the last group may be partial):
                //   lanes = min(GroupSize, NumThreads - GroupId*GroupSize).
                let lanes = *next_reg;
                let to = *next_reg + 1;
                let base = *next_reg + 2;
                let ji = *next_reg + 3;
                let lim = *next_reg + 4;
                let ld = *next_reg + 5;
                *next_reg += 6;
                new_body.push(KStm::Assign {
                    var: lanes,
                    exp: KExp::BinOp(
                        BinOp::Min,
                        Box::new(KExp::GroupSize),
                        Box::new(
                            KExp::NumThreads
                                .add(KExp::GroupId.mul(KExp::GroupSize).mul(KExp::i64(-1))),
                        ),
                    ),
                });
                let ntiles = bound
                    .clone()
                    .add(KExp::Var(lanes).add(KExp::i64(-1)))
                    .div(KExp::Var(lanes));
                let mut tile_body: Vec<KStm> = Vec::new();
                tile_body.push(KStm::Assign {
                    var: base,
                    exp: KExp::Var(to).mul(KExp::Var(lanes)),
                });
                // Clamped cooperative load (one element per live lane).
                tile_body.push(KStm::Assign {
                    var: ld,
                    exp: KExp::BinOp(
                        BinOp::Min,
                        Box::new(KExp::Var(base).add(KExp::LocalId)),
                        Box::new(bound.clone().add(KExp::i64(-1))),
                    ),
                });
                for (&buf, &lmem) in &local_of {
                    let tmp = *next_reg;
                    *next_reg += 1;
                    tile_body.push(KStm::GlobalRead {
                        var: tmp,
                        buf,
                        index: KExp::Var(ld),
                    });
                    tile_body.push(KStm::LocalWrite {
                        mem: lmem,
                        index: KExp::LocalId,
                        value: KExp::Var(tmp),
                    });
                }
                tile_body.push(KStm::Barrier);
                // Inner loop over the tile.
                tile_body.push(KStm::Assign {
                    var: lim,
                    exp: KExp::BinOp(
                        BinOp::Min,
                        Box::new(KExp::Var(lanes)),
                        Box::new(bound.clone().add(KExp::Var(base).mul(KExp::i64(-1)))),
                    ),
                });
                let mut inner = vec![KStm::Assign {
                    var,
                    exp: KExp::Var(base).add(KExp::Var(ji)),
                }];
                inner.extend(
                    body.iter()
                        .map(|s| rewrite_reads(s.clone(), &local_of, var, ji)),
                );
                tile_body.push(KStm::For {
                    var: ji,
                    bound: KExp::Var(lim),
                    body: inner,
                });
                tile_body.push(KStm::Barrier);
                new_body.push(KStm::For {
                    var: to,
                    bound: ntiles,
                    body: tile_body,
                });
                *tiled = true;
            }
            other => new_body.push(other),
        }
    }
    new_body
}

fn is_uniform(e: &KExp) -> bool {
    match e {
        KExp::Const(_) | KExp::ScalarArg(_) | KExp::GroupSize | KExp::NumThreads => true,
        KExp::Var(_) | KExp::GlobalId | KExp::GroupId | KExp::LocalId => false,
        KExp::BinOp(_, a, b) | KExp::Cmp(_, a, b) => is_uniform(a) && is_uniform(b),
        KExp::UnOp(_, a) | KExp::Convert(_, a) => is_uniform(a),
    }
}

fn contains_barrier(stms: &[KStm]) -> bool {
    stms.iter().any(|s| match s {
        KStm::Barrier => true,
        KStm::For { body, .. } | KStm::While { body, .. } | KStm::At { body, .. } => {
            contains_barrier(body)
        }
        KStm::If { then_s, else_s, .. } => contains_barrier(then_s) || contains_barrier(else_s),
        _ => false,
    })
}

fn rewrite_reads(stm: KStm, local_of: &BTreeMap<usize, usize>, j: Reg, ji: Reg) -> KStm {
    match stm {
        KStm::GlobalRead { var, buf, index }
            if index == KExp::Var(j) && local_of.contains_key(&buf) =>
        {
            KStm::LocalRead {
                var,
                mem: local_of[&buf],
                index: KExp::Var(ji),
            }
        }
        KStm::For { var, bound, body } => KStm::For {
            var,
            bound,
            body: body
                .into_iter()
                .map(|s| rewrite_reads(s, local_of, j, ji))
                .collect(),
        },
        KStm::While { cond, body } => KStm::While {
            cond,
            body: body
                .into_iter()
                .map(|s| rewrite_reads(s, local_of, j, ji))
                .collect(),
        },
        KStm::At { prov, body } => KStm::At {
            prov,
            body: body
                .into_iter()
                .map(|s| rewrite_reads(s, local_of, j, ji))
                .collect(),
        },
        KStm::If {
            cond,
            then_s,
            else_s,
        } => KStm::If {
            cond,
            then_s: then_s
                .into_iter()
                .map(|s| rewrite_reads(s, local_of, j, ji))
                .collect(),
            else_s: else_s
                .into_iter()
                .map(|s| rewrite_reads(s, local_of, j, ji))
                .collect(),
        },
        other => other,
    }
}

/// Whether a body contains any SOAC (i.e. potential kernels). Host loops
/// and branches without SOACs are executed whole as interpreter fallbacks —
/// exactly how a hand-written host-side implementation behaves (one
/// transfer, then sequential host work).
fn body_has_soac(b: &Body) -> bool {
    b.stms.iter().any(|s| {
        matches!(s.exp, Exp::Soac(_)) || s.exp.inner_bodies().into_iter().any(body_has_soac)
    })
}
