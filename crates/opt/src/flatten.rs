//! Flattening / kernel extraction: the transformation of Section 5,
//! Figure 12 (rules G1–G7).
//!
//! The algorithm rearranges (imperfectly) nested parallelism into *perfect*
//! nests of `map` operators whose innermost level is a SOAC or sequential
//! scalar code, which the GPU backend then turns into kernels:
//!
//! - **G2**: a nested `map` extends the map-nest context Σ.
//! - **G4**: map fission — the bindings of a map body are distributed, each
//!   group manifesting the whole context around it, with intermediate
//!   values lifted into arrays. Distribution stops (the group is
//!   *swallowed* into a sequential body, rule G1) when it would create an
//!   irregular array, exactly as in Figure 11 where `scan`/`reduce` over
//!   `iota p` are sequentialised.
//! - **G5**: `reduce` with a vectorised (map) operator and replicated
//!   neutral element becomes a transposition plus a segmented reduction.
//! - **G6**: `rearrange` distributes by rearranging the underlying array
//!   with a context-expanded permutation.
//! - **G7**: map–loop interchange: a sequential loop inside a map becomes
//!   a loop of maps, with merge parameters lifted (`replicate`d).
//!
//! Nested `stream_red`/`stream_seq` are sequentialised (the paper's stated
//! policy), preserving the program structure that the locality
//! optimisations of Section 5.2 need.

use futhark_core::schedule::{ChoiceClass, ScheduleCursor};
use futhark_core::traverse::{free_in_body, free_in_exp, Subst};
use futhark_core::{
    ArrayType, Body, Exp, Lambda, LoopForm, Name, NameSource, Param, PatElem, Program, Prov,
    ScalarType, Size, Soac, Stm, SubExp, Type,
};
use std::collections::{HashMap, HashSet};

/// Flattens all functions of a program, with the G5 (segmented
/// reduction) and G7 (loop interchange) rules consulted as choice points.
/// A declined site falls back to the always-valid sequentialisation path
/// (rule G1 under a map context, a direct host statement at depth 0).
pub fn flatten_program(prog: &mut Program, ns: &mut NameSource, cur: &mut ScheduleCursor) {
    for f in &mut prog.functions {
        let mut fl = Flattener {
            ns,
            cur,
            env: HashMap::new(),
            types: HashMap::new(),
        };
        for p in &f.params {
            fl.types.insert(p.name.clone(), p.ty.clone());
        }
        let body = std::mem::take(&mut f.body);
        f.body = fl.host_body(body);
    }
}

/// A lift entry: `name`, bound under the map-nest context, denotes
/// `top[i_{l₁}][i_{l₂}]…` where `path` lists the context levels (1-based)
/// at which one dimension is peeled.
#[derive(Debug, Clone)]
struct Entry {
    path: Vec<usize>,
    top: Name,
}

struct Flattener<'a> {
    ns: &'a mut NameSource,
    /// Choice points: G5 and G7 sites consult (and advance) this cursor.
    cur: &'a mut ScheduleCursor,
    /// Context-lifted names currently in scope.
    env: HashMap<Name, Entry>,
    /// Types of every binding seen (for lifting).
    types: HashMap<Name, Type>,
}

impl<'a> Flattener<'a> {
    fn record_types(&mut self, stm: &Stm) {
        for pe in &stm.pat {
            self.types.insert(pe.name.clone(), pe.ty.clone());
        }
    }

    fn ty_of(&self, v: &Name) -> Type {
        self.types
            .get(v)
            .cloned()
            .unwrap_or(Type::Scalar(ScalarType::I64))
    }

    /// Processes a host-level (depth-0) body: distributes top-level maps,
    /// recurses into loops and ifs, leaves everything else.
    fn host_body(&mut self, body: Body) -> Body {
        let mut out: Vec<Stm> = Vec::new();
        for stm in body.stms {
            self.record_types(&stm);
            match stm.exp {
                Exp::Soac(Soac::Map { width, lam, arrs }) => {
                    let stms = self.distribute_map(&[], width, lam, arrs, stm.pat);
                    out.extend(stms);
                }
                Exp::Soac(Soac::Reduce { .. })
                    if self.g5_candidate(&stm, &[]) && self.cur.decide(ChoiceClass::FlattenG5) =>
                {
                    let stms = self.try_g5(&stm, &[]).expect("candidate checked");
                    futhark_trace::event("flatten.g5_segmented_reductions");
                    out.extend(stms);
                }
                Exp::Loop {
                    params,
                    form,
                    body: lbody,
                } => {
                    for (p, _) in &params {
                        self.types.insert(p.name.clone(), p.ty.clone());
                    }
                    let lbody = self.host_body(lbody);
                    let form = match form {
                        LoopForm::While(c) => LoopForm::While(self.host_body(c)),
                        f => f,
                    };
                    out.push(
                        Stm::new(
                            stm.pat,
                            Exp::Loop {
                                params,
                                form,
                                body: lbody,
                            },
                        )
                        .with_prov(stm.prov),
                    );
                }
                Exp::If {
                    cond,
                    then_body,
                    else_body,
                    ret,
                } => {
                    let then_body = self.host_body(then_body);
                    let else_body = self.host_body(else_body);
                    out.push(
                        Stm::new(
                            stm.pat,
                            Exp::If {
                                cond,
                                then_body,
                                else_body,
                                ret,
                            },
                        )
                        .with_prov(stm.prov),
                    );
                }
                e => out.push(Stm::new(stm.pat, e).with_prov(stm.prov)),
            }
        }
        Body::new(out, body.result)
    }

    /// G2: enter a map, extending the context, then distribute its body.
    /// `ctx` holds the widths of the enclosing maps (level 1 first).
    fn distribute_map(
        &mut self,
        ctx: &[SubExp],
        width: SubExp,
        lam: Lambda,
        arrs: Vec<Name>,
        out_pat: Vec<PatElem>,
    ) -> Vec<Stm> {
        futhark_trace::event("flatten.g2_maps_distributed");
        let mut widths = ctx.to_vec();
        widths.push(width);
        let depth = widths.len();
        // Bind the lambda parameters as lift entries.
        for (p, a) in lam.params.iter().zip(&arrs) {
            self.types.insert(p.name.clone(), p.ty.clone());
            let entry = match self.env.get(a) {
                Some(e) => {
                    let mut path = e.path.clone();
                    path.push(depth);
                    Entry {
                        path,
                        top: e.top.clone(),
                    }
                }
                None => Entry {
                    path: vec![depth],
                    top: a.clone(),
                },
            };
            self.env.insert(p.name.clone(), entry);
        }
        self.distribute_body(&widths, lam.body, out_pat)
    }

    /// G4: distribute the statements of a map body, producing host-level
    /// statements. `out_pat` names the lifted results at depth
    /// `widths.len() - 1` relative bindings (i.e. the enclosing scope).
    fn distribute_body(
        &mut self,
        widths: &[SubExp],
        body: Body,
        out_pat: Vec<PatElem>,
    ) -> Vec<Stm> {
        let depth = widths.len();
        let mut out: Vec<Stm> = Vec::new();
        let stms = body.stms;
        let mut i = 0;
        while i < stms.len() {
            let stm = &stms[i];
            self.record_types(stm);
            // What later statements (and the body result) need.
            let _used_later: HashSet<Name> = {
                let mut s = HashSet::new();
                for later in &stms[i + 1..] {
                    s.extend(free_in_exp(&later.exp));
                }
                for se in &body.result {
                    if let SubExp::Var(v) = se {
                        s.insert(v.clone());
                    }
                }
                s
            };
            match &stm.exp {
                // G2: nested regular map distributes recursively.
                Exp::Soac(Soac::Map {
                    width: w,
                    lam,
                    arrs,
                }) if self.is_invariant(w) => {
                    let stms2 = self.distribute_map(
                        widths,
                        w.clone(),
                        lam.clone(),
                        arrs.clone(),
                        stm.pat.clone(),
                    );
                    out.extend(stms2);
                    i += 1;
                }
                // G5: reduce with a vectorised operator → transpose +
                // segmented (map-of-reduce) form.
                Exp::Soac(Soac::Reduce { .. })
                    if self.g5_candidate(stm, widths)
                        && self.cur.decide(ChoiceClass::FlattenG5) =>
                {
                    let stms2 = self.try_g5(stm, widths).expect("candidate checked");
                    futhark_trace::event("flatten.g5_segmented_reductions");
                    out.extend(stms2);
                    i += 1;
                }
                // Regular scalar-operator reduce/scan/redomap: manifest as
                // its own nest with the SOAC innermost (segmented op).
                Exp::Soac(Soac::Reduce { width: w, lam, .. })
                | Exp::Soac(Soac::Scan { width: w, lam, .. })
                    if self.is_invariant(w) && lam.ret.iter().all(Type::is_scalar) =>
                {
                    let res = stm
                        .pat
                        .iter()
                        .map(|pe| SubExp::Var(pe.name.clone()))
                        .collect();
                    let group = Body::new(vec![stm.clone()], res);
                    out.extend(self.manifest(widths, group, stm.pat.clone()));
                    i += 1;
                }
                Exp::Soac(Soac::Redomap {
                    width: w, red_lam, ..
                }) if self.is_invariant(w) && red_lam.ret.iter().all(Type::is_scalar) => {
                    let res = stm
                        .pat
                        .iter()
                        .map(|pe| SubExp::Var(pe.name.clone()))
                        .collect();
                    let group = Body::new(vec![stm.clone()], res);
                    out.extend(self.manifest(widths, group, stm.pat.clone()));
                    i += 1;
                }
                // G6: rearrange distributes onto the underlying array.
                Exp::Rearrange { perm, array }
                    if self
                        .env
                        .get(array)
                        .map(|e| e.path == (1..=depth).collect::<Vec<_>>())
                        .unwrap_or(false) =>
                {
                    let e = self.env[array].clone();
                    let top_ty = self.ty_of(&e.top);
                    let mut perm2: Vec<usize> = (0..depth).collect();
                    perm2.extend(perm.iter().map(|p| p + depth));
                    let new_top = self.ns.fresh("rearr");
                    let new_ty = match &top_ty {
                        Type::Array(at) => {
                            let dims = perm2.iter().map(|&p| at.dims[p].clone()).collect();
                            Type::array_of(at.elem, dims)
                        }
                        t => t.clone(),
                    };
                    self.types.insert(new_top.clone(), new_ty.clone());
                    out.push(
                        Stm::single(
                            new_top.clone(),
                            new_ty,
                            Exp::Rearrange {
                                perm: perm2,
                                array: e.top.clone(),
                            },
                        )
                        .with_prov(stm.prov.clone()),
                    );
                    self.env.insert(
                        stm.pat[0].name.clone(),
                        Entry {
                            path: (1..=depth).collect(),
                            top: new_top,
                        },
                    );
                    futhark_trace::event("flatten.g6_rearranges");
                    i += 1;
                }
                // G7: map–loop interchange when the loop body has inner
                // parallelism.
                Exp::Loop {
                    params,
                    form: LoopForm::For { var, bound },
                    body: lbody,
                } if self.is_invariant(bound)
                    && has_inner_parallelism(lbody)
                    && self.cur.decide(ChoiceClass::FlattenInterchange) =>
                {
                    let stms2 = self.interchange_loop(
                        widths,
                        params.clone(),
                        var.clone(),
                        bound.clone(),
                        lbody.clone(),
                        stm.pat.clone(),
                        stm.prov.clone(),
                    );
                    out.extend(stms2);
                    i += 1;
                }
                // Everything else: a sequential group (G1). Consecutive
                // sequential statements are grouped (the paper's
                // let-floating/tupling), and subsequent statements are
                // swallowed while any needed output would be irregular.
                _ => {
                    let mut group: Vec<Stm> = vec![stm.clone()];
                    let mut j = i + 1;
                    while j < stms.len() && !self.is_distributable(&stms[j]) {
                        self.record_types(&stms[j]);
                        group.push(stms[j].clone());
                        j += 1;
                    }
                    loop {
                        let outputs = self.group_outputs(&group, &stms[j..], &body.result);
                        let irregular = outputs.iter().any(|pe| !self.type_is_invariant(&pe.ty));
                        if !irregular || j >= stms.len() {
                            break;
                        }
                        self.record_types(&stms[j]);
                        group.push(stms[j].clone());
                        j += 1;
                    }
                    let outputs = self.group_outputs(&group, &stms[j..], &body.result);
                    let result = outputs
                        .iter()
                        .map(|pe| SubExp::Var(pe.name.clone()))
                        .collect();
                    let gbody = Body::new(group, result);
                    out.extend(self.manifest(widths, gbody, outputs));
                    i = j;
                }
            }
        }
        // Tie the body results to the out pattern.
        for (se, pe) in body.result.iter().zip(&out_pat) {
            self.types.insert(pe.name.clone(), pe.ty.clone());
            match se {
                SubExp::Var(v)
                    if self
                        .env
                        .get(v)
                        .map(|e| e.path == (1..=depth).collect::<Vec<_>>())
                        .unwrap_or(false) =>
                {
                    // Fully lifted: the top array *is* the result. The out
                    // pattern is bound one level up: at depth>1 register an
                    // entry, at depth 1 emit a binding.
                    let top = self.env[v].top.clone();
                    if depth == 1 {
                        out.push(Stm::single(
                            pe.name.clone(),
                            pe.ty.clone(),
                            Exp::SubExp(SubExp::Var(top)),
                        ));
                    } else {
                        self.env.insert(
                            pe.name.clone(),
                            Entry {
                                path: (1..depth).collect(),
                                top,
                            },
                        );
                    }
                }
                _ => {
                    // Identity manifestation (broadcast / constant).
                    let ident = Body::new(vec![], vec![se.clone()]);
                    let inner_ty = match pe.ty.as_array() {
                        Some(at) => at.row_type(),
                        None => pe.ty.clone(),
                    };
                    let tmp = PatElem::new(self.ns.fresh("res"), inner_ty);
                    let stms2 = self.manifest(widths, ident, vec![tmp.clone()]);
                    // manifest registered the lifted entry/binding under
                    // tmp; rebind to the out name.
                    out.extend(stms2);
                    if depth == 1 {
                        let top = self.env[&tmp.name].top.clone();
                        out.push(Stm::single(
                            pe.name.clone(),
                            pe.ty.clone(),
                            Exp::SubExp(SubExp::Var(top)),
                        ));
                    } else {
                        let e = self.env[&tmp.name].clone();
                        self.env.insert(
                            pe.name.clone(),
                            Entry {
                                path: e.path[..e.path.len() - 1].to_vec(),
                                top: e.top,
                            },
                        );
                    }
                }
            }
        }
        out
    }

    /// Outputs of a statement group: names it binds that later code needs.
    fn group_outputs(&self, group: &[Stm], rest: &[Stm], result: &[SubExp]) -> Vec<PatElem> {
        let mut needed: HashSet<Name> = HashSet::new();
        for s in rest {
            needed.extend(free_in_exp(&s.exp));
        }
        for se in result {
            if let SubExp::Var(v) = se {
                needed.insert(v.clone());
            }
        }
        let mut out = Vec::new();
        for s in group {
            for pe in &s.pat {
                if needed.contains(&pe.name) {
                    out.push(pe.clone());
                }
            }
        }
        out
    }

    /// Whether a statement would be handled by one of the distribution
    /// rules G2/G5/G6/G7 or a segmented-SOAC manifestation (as opposed to
    /// joining a sequential group).
    fn is_distributable(&self, stm: &Stm) -> bool {
        match &stm.exp {
            Exp::Soac(Soac::Map { width, .. }) => self.is_invariant(width),
            Exp::Soac(Soac::Reduce { width, lam, .. })
            | Exp::Soac(Soac::Scan { width, lam, .. }) => {
                self.is_invariant(width)
                    && (lam.ret.iter().all(Type::is_scalar) || {
                        // G5 candidates are also distributable.
                        matches!(
                            lam.body.stms.first().map(|s| &s.exp),
                            Some(Exp::Soac(Soac::Map { .. }))
                        )
                    })
            }
            Exp::Soac(Soac::Redomap { width, red_lam, .. }) => {
                self.is_invariant(width) && red_lam.ret.iter().all(Type::is_scalar)
            }
            Exp::Rearrange { array, .. } => self.env.contains_key(array),
            Exp::Loop {
                form: LoopForm::For { bound, .. },
                body,
                ..
            } => self.is_invariant(bound) && has_inner_parallelism(body),
            _ => false,
        }
    }

    /// Whether a width/size operand is invariant to the context (does not
    /// reference context-lifted names).
    fn is_invariant(&self, se: &SubExp) -> bool {
        match se {
            SubExp::Const(_) => true,
            SubExp::Var(v) => !self.env.contains_key(v),
        }
    }

    fn type_is_invariant(&self, t: &Type) -> bool {
        match t {
            Type::Scalar(_) => true,
            Type::Array(at) => at.dims.iter().all(|d| match d {
                Size::Const(_) => true,
                Size::Var(v) => !self.env.contains_key(v),
            }),
        }
    }

    /// G1/G3: manifest the map-nest context around `body`, producing one
    /// perfect nest. `out` are the depth-local pattern elements; their
    /// lifted top arrays get fresh names and lift entries are registered.
    fn manifest(&mut self, widths: &[SubExp], body: Body, out: Vec<PatElem>) -> Vec<Stm> {
        futhark_trace::event("flatten.nests_manifested");
        let depth = widths.len();
        // The manifested nest descends from every statement in the group.
        let mut nest_prov = Prov::none();
        for s in &body.stms {
            nest_prov.merge(&s.prov);
        }
        // Needed lift entries.
        let mut free = free_in_body(&body);
        for se in &body.result {
            if let SubExp::Var(v) = se {
                free.insert(v.clone());
            }
        }
        let mut entries: Vec<(Name, Entry)> = free
            .iter()
            .filter_map(|v| self.env.get(v).map(|e| (v.clone(), e.clone())))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // Chains of fresh names per entry, one per path level.
        struct Chain {
            orig: Name,
            top: Name,
            top_ty: Type,
            path: Vec<usize>,
            names: Vec<Name>,
        }
        let mut chains: Vec<Chain> = Vec::new();
        for (orig, e) in entries {
            let names = e.path.iter().map(|_| self.ns.fresh_from(&orig)).collect();
            chains.push(Chain {
                top_ty: self.ty_of(&e.top),
                orig,
                top: e.top.clone(),
                path: e.path,
                names,
            });
        }
        // Substitute original names with the deepest chain name.
        let mut inner_body = body;
        let mut subst = Subst::new();
        for c in &chains {
            subst.bind(
                c.orig.clone(),
                SubExp::Var(c.names.last().expect("nonempty path").clone()),
            );
        }
        subst.apply_body(&mut inner_body);
        // Inner pattern: the out elems with their local types.
        let mut result_tys: Vec<Type> = out.iter().map(|pe| pe.ty.clone()).collect();
        // Build levels innermost → outermost.
        for l in (1..=depth).rev() {
            let mut params: Vec<Param> = Vec::new();
            let mut arrs: Vec<Name> = Vec::new();
            for c in &chains {
                if let Some(k) = c.path.iter().position(|&pl| pl == l) {
                    // Type: top type peeled (k+1) times.
                    let ty = peel(&c.top_ty, k + 1);
                    params.push(Param::new(c.names[k].clone(), ty));
                    arrs.push(if k == 0 {
                        c.top.clone()
                    } else {
                        c.names[k - 1].clone()
                    });
                }
            }
            let map = Soac::Map {
                width: widths[l - 1].clone(),
                lam: Lambda {
                    params,
                    body: inner_body,
                    ret: result_tys.clone(),
                },
                arrs,
            };
            // Lift result types by this width.
            result_tys = result_tys
                .iter()
                .map(|t| lift(t, size_of(&widths[l - 1])))
                .collect();
            let pat: Vec<PatElem> = out
                .iter()
                .zip(&result_tys)
                .map(|(pe, t)| PatElem::new(self.ns.fresh_from(&pe.name), t.clone()))
                .collect();
            let res = pat.iter().map(|pe| SubExp::Var(pe.name.clone())).collect();
            inner_body = Body::new(
                vec![Stm::new(pat, Exp::Soac(map)).with_prov(nest_prov.clone())],
                res,
            );
        }
        // The outermost body is one statement binding the lifted arrays.
        let stm = inner_body.stms.into_iter().next().expect("one stm");
        // Register entries for the group outputs and record types.
        for (pe, top_pe) in out.iter().zip(&stm.pat) {
            self.types.insert(top_pe.name.clone(), top_pe.ty.clone());
            self.types.insert(pe.name.clone(), pe.ty.clone());
            self.env.insert(
                pe.name.clone(),
                Entry {
                    path: (1..=depth).collect(),
                    top: top_pe.name.clone(),
                },
            );
        }
        vec![stm]
    }

    /// Pure applicability probe for G5: true only when [`Self::try_g5`] is
    /// guaranteed to succeed. Mirrors every early-return check of `try_g5`
    /// without mutating any state, so the schedule decision can be asked
    /// *before* the (side-effecting, recursive) rewrite runs.
    fn g5_candidate(&self, stm: &Stm, widths: &[SubExp]) -> bool {
        let Exp::Soac(Soac::Reduce {
            width,
            lam,
            neutral,
            arrs,
            ..
        }) = &stm.exp
        else {
            return false;
        };
        if !self.is_invariant(width) || neutral.len() != 1 || arrs.len() != 1 {
            return false;
        }
        if lam.body.stms.len() != 1 {
            return false;
        }
        let Exp::Soac(Soac::Map {
            lam: inner,
            width: seg_w,
            ..
        }) = &lam.body.stms[0].exp
        else {
            return false;
        };
        if inner.ret.is_empty()
            || !inner.ret.iter().all(Type::is_scalar)
            || !self.is_invariant(seg_w)
        {
            return false;
        }
        let Some(ne_var) = neutral[0].as_var() else {
            return false;
        };
        if self.env.contains_key(ne_var) {
            return false;
        }
        let depth = widths.len();
        let z = &arrs[0];
        match self.env.get(z) {
            Some(e) if e.path == (1..=depth).collect::<Vec<_>>() => {
                let Type::Array(at) = self.ty_of(&e.top) else {
                    return false;
                };
                if at.rank() < depth + 2 {
                    return false;
                }
                matches!(self.ty_of(z), Type::Array(at2) if at2.rank() >= 2)
            }
            None => matches!(self.ty_of(z), Type::Array(at) if at.rank() >= 2),
            _ => false,
        }
    }

    /// G5: `reduce (map ⊕) (replicate k e) zss` → transpose + map(reduce ⊕).
    fn try_g5(&mut self, stm: &Stm, widths: &[SubExp]) -> Option<Vec<Stm>> {
        let Exp::Soac(Soac::Reduce {
            width,
            lam,
            neutral,
            arrs,
            comm,
        }) = &stm.exp
        else {
            return None;
        };
        if !self.is_invariant(width) || neutral.len() != 1 || arrs.len() != 1 {
            return None;
        }
        // The operator must be a single vectorised map of a scalar op.
        if lam.body.stms.len() != 1 {
            return None;
        }
        let Exp::Soac(Soac::Map {
            lam: inner,
            width: seg_w,
            ..
        }) = &lam.body.stms[0].exp
        else {
            return None;
        };
        if !inner.ret.iter().all(Type::is_scalar) || !self.is_invariant(seg_w) {
            return None;
        }
        // Neutral must be a replicate of a scalar (checked loosely: it is a
        // variable whose type is a rank-1 array) — we reduce per column
        // starting from the scalar inside. We recover the scalar neutral by
        // indexing the replicated value; constant-folding cleans this up.
        let ne_var = neutral[0].as_var()?.clone();
        let seg_w = seg_w.clone();
        let z = arrs[0].clone();
        let comm = *comm;
        let inner = inner.clone();
        let depth = widths.len();
        let mut out = Vec::new();
        // Scalar neutral: ne_var[0].
        let ne_scalar = self.ns.fresh("ne");
        let ne_ty = inner.ret[0].clone();
        // The neutral may itself be context-lifted; keep it simple and
        // require it invariant.
        if self.env.contains_key(&ne_var) {
            return None;
        }
        out.push(
            Stm::single(
                ne_scalar.clone(),
                ne_ty.clone(),
                Exp::Index {
                    array: ne_var,
                    indices: vec![SubExp::i64(0)],
                },
            )
            .with_prov(stm.prov.clone()),
        );
        // Transpose z (context-aware, reusing the G6 logic): z has lifted
        // entry path [1..depth]; its top is [w₁…w_d][n][k]τ and we need the
        // [k] dimension before [n].
        let (zt_name, zt_depth_ty) = match self.env.get(&z) {
            Some(e) if e.path == (1..=depth).collect::<Vec<_>>() => {
                let top_ty = self.ty_of(&e.top);
                let Type::Array(at) = &top_ty else {
                    return None;
                };
                let rank = at.rank();
                if rank < depth + 2 {
                    return None;
                }
                let mut perm: Vec<usize> = (0..depth).collect();
                perm.push(depth + 1);
                perm.push(depth);
                perm.extend(depth + 2..rank);
                let dims: Vec<Size> = perm.iter().map(|&p| at.dims[p].clone()).collect();
                let new_ty = Type::array_of(at.elem, dims);
                let new_top = self.ns.fresh("zt");
                self.types.insert(new_top.clone(), new_ty.clone());
                out.push(
                    Stm::single(
                        new_top.clone(),
                        new_ty,
                        Exp::Rearrange {
                            perm,
                            array: e.top.clone(),
                        },
                    )
                    .with_prov(stm.prov.clone()),
                );
                let local = self.ns.fresh("ztrow");
                self.env.insert(
                    local.clone(),
                    Entry {
                        path: (1..=depth).collect(),
                        top: new_top,
                    },
                );
                let zty = self.ty_of(&z);
                let Type::Array(at2) = &zty else { return None };
                let tdims = vec![at2.dims[1].clone(), at2.dims[0].clone()];
                let tty = Type::array_of(at2.elem, tdims);
                self.types.insert(local.clone(), tty.clone());
                (local, tty)
            }
            None => {
                // Invariant array: plain transpose at host level.
                let zty = self.ty_of(&z);
                let Type::Array(at) = &zty else { return None };
                if at.rank() < 2 {
                    return None;
                }
                let mut perm: Vec<usize> = (0..at.rank()).collect();
                perm.swap(0, 1);
                let dims: Vec<Size> = perm.iter().map(|&p| at.dims[p].clone()).collect();
                let tty = Type::array_of(at.elem, dims);
                let zt = self.ns.fresh("zt");
                self.types.insert(zt.clone(), tty.clone());
                out.push(
                    Stm::single(zt.clone(), tty.clone(), Exp::Rearrange { perm, array: z })
                        .with_prov(stm.prov.clone()),
                );
                (zt, tty)
            }
            _ => return None,
        };
        // map (\col -> reduce ⊕ ne col) zt — a segmented reduction.
        let col = self.ns.fresh("col");
        let Type::Array(at) = &zt_depth_ty else {
            return None;
        };
        let col_ty = at.row_type();
        self.types.insert(col.clone(), col_ty.clone());
        let red = self.ns.fresh("segred");
        let red_ty = ne_ty.clone();
        let inner_n = SubExp::from(&at.dims[1]);
        let seg_lam = Lambda {
            params: vec![Param::new(col.clone(), col_ty)],
            body: Body::new(
                vec![Stm::single(
                    red.clone(),
                    red_ty.clone(),
                    Exp::Soac(Soac::Reduce {
                        width: inner_n,
                        lam: inner,
                        neutral: vec![SubExp::Var(ne_scalar)],
                        arrs: vec![col],
                        comm,
                    }),
                )
                .with_prov(stm.prov.clone())],
                vec![SubExp::Var(red)],
            ),
            ret: vec![red_ty],
        };
        let seg_map = Soac::Map {
            width: seg_w,
            lam: seg_lam,
            arrs: vec![zt_name],
        };
        // Distribute the segmented map in the current context (it becomes
        // a map^{d+1}(reduce) nest — a segmented reduction kernel).
        let Soac::Map {
            width: sw,
            lam: sl,
            arrs: sa,
        } = seg_map
        else {
            unreachable!()
        };
        let stms2 = self.distribute_map(widths, sw, sl, sa, stm.pat.clone());
        out.extend(stms2);
        Some(out)
    }

    /// G7: map^d(loop) → loop(map^d).
    #[allow(clippy::too_many_arguments)]
    fn interchange_loop(
        &mut self,
        widths: &[SubExp],
        params: Vec<(Param, SubExp)>,
        var: Name,
        bound: SubExp,
        lbody: Body,
        out_pat: Vec<PatElem>,
        prov: Prov,
    ) -> Vec<Stm> {
        futhark_trace::event("flatten.g7_loop_interchanges");
        let depth = widths.len();
        let mut out = Vec::new();
        // Lifted merge parameters.
        let mut lifted_params: Vec<(Param, SubExp)> = Vec::new();
        for (p, init) in &params {
            let lifted_ty = widths
                .iter()
                .rev()
                .fold(p.ty.clone(), |t, w| lift(&t, size_of(w)));
            let lp = self.ns.fresh_from(&p.name);
            // Initial value: fully-lifted entry → its top array; otherwise
            // replicate the (invariant) value to the lifted shape.
            let init_top = match init {
                SubExp::Var(v)
                    if self
                        .env
                        .get(v)
                        .map(|e| e.path == (1..=depth).collect::<Vec<_>>())
                        .unwrap_or(false) =>
                {
                    SubExp::Var(self.env[v].top.clone())
                }
                inv if self.is_invariant(inv) => {
                    // replicate w₁ (replicate w₂ … init).
                    let mut cur = inv.clone();
                    let mut cur_ty = p.ty.clone();
                    for w in widths.iter().rev() {
                        cur_ty = lift(&cur_ty, size_of(w));
                        let r = self.ns.fresh("repl");
                        self.types.insert(r.clone(), cur_ty.clone());
                        out.push(
                            Stm::single(r.clone(), cur_ty.clone(), Exp::Replicate(w.clone(), cur))
                                .with_prov(prov.clone()),
                        );
                        cur = SubExp::Var(r);
                    }
                    cur
                }
                _ => {
                    // Partially lifted initialiser: manifest an identity
                    // nest to materialise it.
                    let tmp = PatElem::new(self.ns.fresh("linit"), p.ty.clone());
                    let ident = Body::new(vec![], vec![init.clone()]);
                    out.extend(self.manifest(widths, ident, vec![tmp.clone()]));
                    SubExp::Var(self.env[&tmp.name].top.clone())
                }
            };
            self.types.insert(lp.clone(), lifted_ty.clone());
            lifted_params.push((
                Param {
                    name: lp,
                    ty: lifted_ty,
                    unique: p.unique,
                },
                init_top,
            ));
        }
        // Inside the loop body, the original merge parameters are lifted
        // entries over the new merge arrays.
        for ((p, _), (lp, _)) in params.iter().zip(&lifted_params) {
            self.env.insert(
                p.name.clone(),
                Entry {
                    path: (1..=depth).collect(),
                    top: lp.name.clone(),
                },
            );
            self.types.insert(p.name.clone(), p.ty.clone());
        }
        // Distribute the loop body under the same context; the loop body's
        // results become the lifted merge results.
        let res_pat: Vec<PatElem> = params
            .iter()
            .map(|(p, _)| PatElem::new(self.ns.fresh_from(&p.name), p.ty.clone()))
            .collect();
        let mut res_body = lbody;
        let result = std::mem::take(&mut res_body.result);
        let inner_stms = self.distribute_body(
            widths,
            Body::new(res_body.stms, result.clone()),
            res_pat.clone(),
        );
        // Gather the lifted result arrays registered for res_pat (depth-1
        // entries or direct bindings at depth 1).
        let mut loop_result: Vec<SubExp> = Vec::new();
        let loop_stms = inner_stms;
        for (pe, se) in res_pat.iter().zip(&result) {
            // The distribute_body result-tying logic bound/registered the
            // outputs; at depth 1 a binding exists, deeper an entry.
            if depth == 1 {
                // A binding `pe.name = top` was emitted.
                loop_result.push(SubExp::Var(pe.name.clone()));
            } else if let Some(e) = self.env.get(&pe.name) {
                loop_result.push(SubExp::Var(e.top.clone()));
            } else if let SubExp::Const(_) = se {
                loop_result.push(se.clone());
            } else {
                loop_result.push(SubExp::Var(pe.name.clone()));
            }
        }
        // Hoisting note: at depth 1 the result binding is inside loop_stms.
        let lifted_loop = Exp::Loop {
            params: lifted_params.clone(),
            form: LoopForm::For { var, bound },
            body: Body::new(loop_stms, loop_result),
        };
        // Bind the loop's lifted outputs, then register the original
        // pattern as lifted entries.
        let top_pat: Vec<PatElem> = out_pat
            .iter()
            .zip(&lifted_params)
            .map(|(pe, (lp, _))| PatElem::new(self.ns.fresh_from(&pe.name), lp.ty.clone()))
            .collect();
        out.push(Stm::new(top_pat.clone(), lifted_loop).with_prov(prov));
        for (pe, top_pe) in out_pat.iter().zip(&top_pat) {
            self.types.insert(pe.name.clone(), pe.ty.clone());
            self.types.insert(top_pe.name.clone(), top_pe.ty.clone());
            if depth == 0 {
                unreachable!("interchange only fires under a map context");
            }
            self.env.insert(
                pe.name.clone(),
                Entry {
                    path: (1..=depth).collect(),
                    top: top_pe.name.clone(),
                },
            );
        }
        // If this is the outermost context (depth 1) and the loop is the
        // whole map, the caller's result-tying will emit the binding.
        out
    }
}

fn peel(t: &Type, n: usize) -> Type {
    match t {
        Type::Scalar(_) => t.clone(),
        Type::Array(at) => {
            if n >= at.rank() {
                Type::Scalar(at.elem)
            } else {
                Type::Array(ArrayType {
                    elem: at.elem,
                    dims: at.dims[n..].to_vec(),
                })
            }
        }
    }
}

fn lift(t: &Type, outer: Size) -> Type {
    match t {
        Type::Scalar(s) => Type::array_of(*s, vec![outer]),
        Type::Array(a) => Type::Array(a.with_outer(outer)),
    }
}

fn size_of(se: &SubExp) -> Size {
    match se {
        SubExp::Const(k) => Size::Const(k.as_i64().unwrap_or(0)),
        SubExp::Var(v) => Size::Var(v.clone()),
    }
}

/// Whether a body contains exploitable inner parallelism (a SOAC).
pub fn has_inner_parallelism(body: &Body) -> bool {
    for stm in &body.stms {
        if matches!(stm.exp, Exp::Soac(_)) {
            return true;
        }
        for ib in stm.exp.inner_bodies() {
            if has_inner_parallelism(ib) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark_core::schedule::{Schedule, SimplifyToggles};
    use futhark_core::{ArrayVal, Buffer, Value};
    use futhark_frontend::parse_program;
    use futhark_interp::Interpreter;

    fn flattened(src: &str) -> Program {
        let (mut prog, mut ns) = parse_program(src).unwrap();
        crate::simplify::simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
        let mut cur = ScheduleCursor::new(Schedule::default());
        crate::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
        flatten_program(&mut prog, &mut ns, &mut cur);
        prog
    }

    /// Checks that the top-level statements are perfect nests: every map's
    /// body is either a single SOAC statement or contains no SOACs at all
    /// (sequential code), recursively.
    fn assert_perfect_nests(body: &Body) {
        for stm in &body.stms {
            match &stm.exp {
                Exp::Soac(Soac::Map { lam, .. }) => assert_perfect_map(&lam.body),
                Exp::Loop { body: b, .. } => assert_perfect_nests(b),
                Exp::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    assert_perfect_nests(then_body);
                    assert_perfect_nests(else_body);
                }
                _ => {}
            }
        }
    }

    fn assert_perfect_map(body: &Body) {
        // A perfect nest continues with exactly one map statement; any
        // other body is the innermost (per-thread) level, which must not
        // contain further *regular* maps — those should have been
        // distributed. (Irregular SOACs are legitimately sequentialised.)
        if body.stms.len() == 1 {
            if let Exp::Soac(Soac::Map { lam, .. }) = &body.stms[0].exp {
                assert_perfect_map(&lam.body);
                return;
            }
        }
        for stm in &body.stms {
            if let Exp::Soac(Soac::Map { width, .. }) = &stm.exp {
                assert!(
                    width.as_var().is_some(),
                    "regular nested map survived flattening:\n{}",
                    futhark_core::pretty::body_to_string(body)
                );
            }
        }
    }

    fn run_both(src: &str, args: &[Value]) {
        let (prog, mut ns) = parse_program(src).unwrap();
        let mut flat = prog.clone();
        crate::simplify::simplify_program(&mut flat, &mut ns, &SimplifyToggles::default());
        let mut cur = ScheduleCursor::new(Schedule::default());
        crate::fusion::fuse_program(&mut flat, &mut ns, &mut cur);
        flatten_program(&mut flat, &mut ns, &mut cur);
        let r1 = Interpreter::new(&prog).run_main(args).unwrap();
        let r2 = Interpreter::new(&flat)
            .run_main(args)
            .unwrap_or_else(|e| panic!("flattened program failed: {e}\n{flat}"));
        for (a, b) in r1.iter().zip(&r2) {
            assert!(
                a.approx_eq(b, 1e-5),
                "flattening changed semantics:\n{flat}"
            );
        }
    }

    #[test]
    fn distributes_map_of_map_and_reduce() {
        // The Section 2.2 example: map over rows computing map + reduce.
        let src = "fun main (n: i64) (m: i64) (matrix: [n][m]f32): ([n][m]f32, [n]f32) =\n\
                   let (rows, sums) = map (\\(row: [m]f32) ->\n\
                     let r2 = map (\\x -> x + 1.0f32) row\n\
                     let s = reduce (+) 0.0f32 row\n\
                     in (r2, s)) matrix\n\
                   in (rows, sums)";
        let prog = flattened(src);
        let f = prog.main().unwrap();
        assert_perfect_nests(&f.body);
        // There must now be (at least) two separate top-level nests.
        let top_soacs = f
            .body
            .stms
            .iter()
            .filter(|s| matches!(s.exp, Exp::Soac(_)))
            .count();
        assert!(top_soacs >= 2, "{f}");
        let m = ArrayVal::new(vec![2, 3], Buffer::F32(vec![1., 2., 3., 4., 5., 6.]));
        run_both(src, &[Value::i64(2), Value::i64(3), Value::Array(m)]);
    }

    #[test]
    fn figure11_like_program_flattens() {
        // A close rendition of Figure 11a (sizes made regular: the iota is
        // over m rather than the row value so distribution succeeds where
        // the paper's example sequentialises — both paths are exercised).
        let src = "fun main (m: i64) (nn: i64) (pss: [m][m]i64): ([m][m]i64, [m]i64) =\n\
                   let (asss, bss) = map (\\(ps: [m]i64) ->\n\
                     let ass = map (\\(p: i64) ->\n\
                       let cs = scan (+) 0 (iota m)\n\
                       let r = reduce (+) 0 cs\n\
                       let as1 = map (\\pp -> pp + r) ps\n\
                       in as1) ps\n\
                     let bs = loop (ws = ps) for i < nn do (\n\
                       let ws2 = map (\\(asx: [m]i64) (w: i64) ->\n\
                         let d = reduce (+) 0 asx\n\
                         let e = d + w\n\
                         let w2 = 2 * e\n\
                         in w2) ass ws\n\
                       in ws2)\n\
                     in (ass, bs)) pss\n\
                   in (asss, bss)";
        let prog = flattened(src);
        let f = prog.main().unwrap();
        assert_perfect_nests(&f.body);
        // The loop must have been interchanged to the top level (G7):
        let top_loop = f
            .body
            .stms
            .iter()
            .any(|s| matches!(s.exp, Exp::Loop { .. }));
        assert!(top_loop, "no top-level loop after interchange:\n{f}");
        let pss = ArrayVal::new(vec![3, 3], Buffer::I64((1..=9).collect()));
        run_both(src, &[Value::i64(3), Value::i64(2), Value::Array(pss)]);
    }

    #[test]
    fn irregular_inner_sizes_are_sequentialised() {
        // iota p with p row-dependent: must NOT be distributed (it would be
        // irregular); the whole inner computation is swallowed into one
        // sequential kernel body.
        let src = "fun main (n: i64) (ps: [n]i64): [n]i64 =\n\
                   let rs = map (\\(p: i64) ->\n\
                     let cs = iota p\n\
                     let r = reduce (+) 0 cs\n\
                     in r) ps\n\
                   in rs";
        let prog = flattened(src);
        let f = prog.main().unwrap();
        assert_perfect_nests(&f.body);
        run_both(
            src,
            &[
                Value::i64(4),
                Value::Array(ArrayVal::from_i64s(vec![1, 2, 3, 4])),
            ],
        );
    }

    #[test]
    fn g5_reduce_with_vectorised_operator() {
        // Figure 4b's reduction with map (+) becomes a segmented reduce.
        let src = "fun main (n: i64) (k: i64) (incr: [n][k]i64): [k]i64 =\n\
                   let zeros = replicate k 0\n\
                   let counts = reduce (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)\n\
                     zeros incr\n\
                   in counts";
        let (mut prog, mut ns) = parse_program(src).unwrap();
        let mut cur = ScheduleCursor::new(Schedule::default());
        flatten_program(&mut prog, &mut ns, &mut cur);
        let f = prog.main().unwrap();
        let s = f.to_string();
        assert!(s.contains("rearrange"), "no transposition inserted:\n{s}");
        let incr = ArrayVal::new(
            vec![4, 3],
            Buffer::I64(vec![1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1]),
        );
        run_both(src, &[Value::i64(4), Value::i64(3), Value::Array(incr)]);
    }

    #[test]
    fn g6_rearrange_distribution() {
        let src = "fun main (n: i64) (m: i64) (k: i64) (xsss: [n][m][k]f32): [n][k][m]f32 =\n\
                   let r = map (\\(xss: [m][k]f32) ->\n\
                     let t = transpose xss\n\
                     in t) xsss\n\
                   in r";
        let prog = flattened(src);
        let f = prog.main().unwrap();
        let s = f.to_string();
        // The inner transpose becomes a host-level rearrange with an
        // expanded permutation (0,2,1).
        assert!(s.contains("rearrange (0, 2, 1)"), "{s}");
        let x = ArrayVal::new(
            vec![2, 2, 3],
            Buffer::F32((0..12).map(|i| i as f32).collect()),
        );
        run_both(
            src,
            &[Value::i64(2), Value::i64(2), Value::i64(3), Value::Array(x)],
        );
    }

    #[test]
    fn g7_map_loop_interchange_semantics() {
        let src = "fun main (n: i64) (k: i64) (xss: [n][4]f32): [n][4]f32 =\n\
                   let r = map (\\(xs: [4]f32) ->\n\
                     let out = loop (acc = xs) for i < k do (\n\
                       let acc2 = map (\\a -> a * 2.0f32) acc\n\
                       in acc2)\n\
                     in out) xss\n\
                   in r";
        let prog = flattened(src);
        let f = prog.main().unwrap();
        let top_loop = f
            .body
            .stms
            .iter()
            .any(|s| matches!(s.exp, Exp::Loop { .. }));
        assert!(top_loop, "{f}");
        let xss = ArrayVal::new(vec![2, 4], Buffer::F32((0..8).map(|i| i as f32).collect()));
        run_both(src, &[Value::i64(2), Value::i64(3), Value::Array(xss)]);
    }

    #[test]
    fn scalar_code_in_map_becomes_one_nest() {
        let src = "fun main (n: i64) (xs: [n]f32) (ys: [n]f32): [n]f32 =\n\
                   let r = map (\\(x: f32) (y: f32) ->\n\
                     let a = x * y\n\
                     let b = a + x\n\
                     in b) xs ys\n\
                   in r";
        let prog = flattened(src);
        let f = prog.main().unwrap();
        assert_perfect_nests(&f.body);
        let top_soacs = f
            .body
            .stms
            .iter()
            .filter(|s| matches!(s.exp, Exp::Soac(_)))
            .count();
        assert_eq!(top_soacs, 1, "{f}");
        run_both(
            src,
            &[
                Value::i64(3),
                Value::Array(ArrayVal::from_f32s(vec![1., 2., 3.])),
                Value::Array(ArrayVal::from_f32s(vec![4., 5., 6.])),
            ],
        );
    }
}
