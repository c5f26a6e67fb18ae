//! The simplification engine of Figure 3: inlining, copy propagation,
//! constant folding, common-subexpression elimination, hoisting of
//! loop-invariant scalar code, and dead-code removal.
//!
//! All passes are semantics-preserving (validated against the interpreter
//! by the property tests in `tests/`), and all operate on one function at a
//! time except inlining.
//!
//! The rewrite families run in rounds, and each family returns whether it
//! changed the function: a statement removed, folded, spliced or moved, or
//! an operand or result substituted. [`simplify_fun`] stops after the first
//! round in which no enabled family changed anything, so the fixed point
//! comes from the rewrites themselves and nothing prints or compares the IR
//! to find it.

use futhark_core::schedule::SimplifyToggles;
use futhark_core::traverse::{alpha_rename_body, free_in_exp, Subst};
use futhark_core::{
    BinOp, Body, CmpOp, Exp, FunDef, LoopForm, Name, NameSource, Program, Scalar, ScalarType, Soac,
    Stm, SubExp, UnOp,
};
use futhark_interp::scalar::{eval_binop, eval_cmp, eval_convert, eval_unop};
use std::collections::{HashMap, HashSet};

/// Runs the simplification pipeline to a (bounded) fixed point with only
/// the scheduled rewrite families enabled. Inlining always runs — it is a
/// prerequisite of fusion and flattening, not an optimisation choice.
pub fn simplify_program(prog: &mut Program, ns: &mut NameSource, toggles: &SimplifyToggles) {
    inline_functions(prog, ns);
    for f in &mut prog.functions {
        simplify_fun(f, toggles);
    }
}

/// Simplifies one function to a (bounded) fixed point with only the
/// scheduled rewrite families.
///
/// A round runs each enabled family once, in the order copy propagation,
/// constant folding, CSE, hoisting, dead-code removal. Each family reports
/// whether it changed the function, and the loop stops after the first
/// round in which none did, or after eight rounds.
pub fn simplify_fun(f: &mut FunDef, toggles: &SimplifyToggles) {
    for _ in 0..8 {
        let mut changed = false;
        if toggles.copy_prop {
            changed |= copy_propagate_body(&mut f.body);
        }
        if toggles.const_fold {
            changed |= constant_fold_body(&mut f.body);
        }
        if toggles.cse {
            changed |= cse_body(&mut f.body);
        }
        if toggles.hoist {
            changed |= hoist_fun(f);
        }
        if toggles.dead_code {
            changed |= dead_code_fun(f);
        }
        if !changed {
            break;
        }
    }
}

// ---- Inlining ----

/// Inlines every call to a non-recursive function (the paper's pipeline
/// inlines aggressively before fusion).
pub fn inline_functions(prog: &mut Program, ns: &mut NameSource) {
    // Iterate: inline calls whose callee contains no calls itself, until no
    // calls remain (or only recursive ones, which we leave).
    for _ in 0..16 {
        let snapshot = prog.clone();
        let mut changed = false;
        for f in &mut prog.functions {
            changed |= inline_in_body(&mut f.body, &snapshot, ns);
        }
        if !changed {
            break;
        }
    }
    // Drop now-unused non-main functions.
    let called: HashSet<String> = prog
        .functions
        .iter()
        .flat_map(|f| calls_in_body(&f.body))
        .collect();
    prog.functions
        .retain(|f| f.name == "main" || called.contains(&f.name));
}

fn calls_in_body(b: &Body) -> Vec<String> {
    let mut out = Vec::new();
    for stm in &b.stms {
        if let Exp::Apply { func, .. } = &stm.exp {
            out.push(func.clone());
        }
        for ib in stm.exp.inner_bodies() {
            out.extend(calls_in_body(ib));
        }
    }
    out
}

fn inline_in_body(body: &mut Body, prog: &Program, ns: &mut NameSource) -> bool {
    let mut changed = false;
    let mut new_stms = Vec::with_capacity(body.stms.len());
    for mut stm in std::mem::take(&mut body.stms) {
        for ib in stm.exp.inner_bodies_mut() {
            changed |= inline_in_body(ib, prog, ns);
        }
        if let Exp::Apply { func, args } = &stm.exp {
            if let Some(callee) = prog.function(func) {
                // Only inline leaf callees to guarantee termination even
                // with (unsupported) recursion.
                if calls_in_body(&callee.body).is_empty() {
                    let mut inlined = alpha_rename_body(ns, &callee.body);
                    // The alpha-renaming freshened internal binders but the
                    // parameters are free in the body; substitute them.
                    let mut subst = Subst::new();
                    for (p, a) in callee.params.iter().zip(args) {
                        subst.bind(p.name.clone(), a.clone());
                    }
                    subst.apply_body(&mut inlined);
                    new_stms.extend(inlined.stms);
                    // Bind the pattern to the inlined results.
                    for (pe, res) in stm.pat.iter().zip(&inlined.result) {
                        new_stms.push(
                            Stm::single(pe.name.clone(), pe.ty.clone(), Exp::SubExp(res.clone()))
                                .with_prov(stm.prov.clone()),
                        );
                    }
                    futhark_trace::event("simplify.calls_inlined");
                    changed = true;
                    continue;
                }
            }
        }
        new_stms.push(stm);
    }
    body.stms = new_stms;
    changed
}

// ---- Copy propagation ----

/// Replaces uses of `let x = y` bindings by `y`, recursively. Returns
/// whether any binding was removed.
pub fn copy_propagate_body(body: &mut Body) -> bool {
    propagate_copies(body, true)
}

/// Copy propagation of the bindings of `body` itself, for a body whose
/// nested bodies bind no copies; the substitution still reaches into them.
pub(crate) fn copy_propagate_stms(body: &mut Body) {
    let is_copy = |stm: &Stm| stm.pat.len() == 1 && matches!(stm.exp, Exp::SubExp(_));
    if body.stms.iter().any(is_copy) {
        propagate_copies(body, false);
    }
}

/// Removes the copy bindings of `body` (and of its nested bodies when
/// `nested`), substituting each one's operand for its uses. A substitution
/// only ever replaces the name of a removed binding, so the body changed
/// exactly when a binding was removed.
fn propagate_copies(body: &mut Body, nested: bool) -> bool {
    let mut subst = Subst::new();
    let mut changed = false;
    let mut new_stms = Vec::with_capacity(body.stms.len());
    for mut stm in std::mem::take(&mut body.stms) {
        subst.apply_exp(&mut stm.exp);
        if nested {
            for ib in stm.exp.inner_bodies_mut() {
                changed |= propagate_copies(ib, true);
            }
        }
        if stm.pat.len() == 1 {
            if let Exp::SubExp(se) = &stm.exp {
                futhark_trace::event("simplify.copies_propagated");
                subst.bind(stm.pat[0].name.clone(), se.clone());
                changed = true;
                continue;
            }
        }
        new_stms.push(stm);
    }
    body.stms = new_stms;
    for se in &mut body.result {
        let mut e = Exp::SubExp(se.clone());
        subst.apply_exp(&mut e);
        if let Exp::SubExp(se2) = e {
            *se = se2;
        }
    }
    changed
}

// ---- Constant folding ----

/// Folds scalar operations on constants and simple algebraic identities;
/// resolves `if` on constant conditions. Returns whether anything changed:
/// a fold, a resolved branch, or a constant substituted into an operand or
/// a result.
pub fn constant_fold_body(body: &mut Body) -> bool {
    let mut consts: HashMap<Name, Scalar> = HashMap::new();
    let mut changed = false;
    let mut new_stms = Vec::with_capacity(body.stms.len());
    for mut stm in std::mem::take(&mut body.stms) {
        // Substitute known constants into operands.
        changed |= substitute_consts(&mut stm.exp, &consts);
        for ib in stm.exp.inner_bodies_mut() {
            changed |= constant_fold_body(ib);
        }
        if let Some(folded) = fold_exp(&stm.exp) {
            futhark_trace::event("simplify.constants_folded");
            stm.exp = folded;
            changed = true;
        }
        // `if` with constant condition: splice the chosen branch.
        if let Exp::If {
            cond: SubExp::Const(Scalar::Bool(b)),
            then_body,
            else_body,
            ..
        } = &stm.exp
        {
            futhark_trace::event("simplify.branches_resolved");
            let chosen = if *b {
                then_body.clone()
            } else {
                else_body.clone()
            };
            new_stms.extend(chosen.stms);
            for (pe, res) in stm.pat.iter().zip(&chosen.result) {
                let mut e = Exp::SubExp(res.clone());
                substitute_consts(&mut e, &consts);
                new_stms.push(
                    Stm::single(pe.name.clone(), pe.ty.clone(), e).with_prov(stm.prov.clone()),
                );
            }
            changed = true;
            continue;
        }
        if stm.pat.len() == 1 {
            if let Exp::SubExp(SubExp::Const(k)) = &stm.exp {
                consts.insert(stm.pat[0].name.clone(), *k);
            }
        }
        new_stms.push(stm);
    }
    body.stms = new_stms;
    for se in &mut body.result {
        if let SubExp::Var(v) = se {
            if let Some(k) = consts.get(v) {
                *se = SubExp::Const(*k);
                changed = true;
            }
        }
    }
    changed
}

/// Substitutes the known constants into `e`; returns whether any occurred
/// in it. Every free occurrence is replaced (the size of a type too, as
/// constants bound to sizes are integers), so that is whether `e` changed.
fn substitute_consts(e: &mut Exp, consts: &HashMap<Name, Scalar>) -> bool {
    if consts.is_empty() {
        return false;
    }
    let mut subst = Subst::new();
    for v in free_in_exp(e) {
        if let Some(k) = consts.get(&v) {
            subst.bind(v.clone(), SubExp::Const(*k));
        }
    }
    if subst.is_empty() {
        return false;
    }
    // Array positions cannot hold constants; consts only bind scalars, and
    // scalars never appear in array positions in well-typed IR.
    subst.apply_exp(e);
    true
}

fn fold_exp(e: &Exp) -> Option<Exp> {
    match e {
        Exp::BinOp(op, SubExp::Const(a), SubExp::Const(b)) => eval_binop(*op, *a, *b)
            .ok()
            .map(|k| Exp::SubExp(SubExp::Const(k))),
        Exp::UnOp(op, SubExp::Const(a)) => eval_unop(*op, *a)
            .ok()
            .map(|k| Exp::SubExp(SubExp::Const(k))),
        Exp::Cmp(op, SubExp::Const(a), SubExp::Const(b)) => eval_cmp(*op, *a, *b)
            .ok()
            .map(|k| Exp::SubExp(SubExp::Const(k))),
        Exp::Convert(t, SubExp::Const(a)) => eval_convert(*t, *a)
            .ok()
            .map(|k| Exp::SubExp(SubExp::Const(k))),
        // Algebraic identities (x+0, 0+x, x*1, 1*x, x*0, x-0, x/1).
        Exp::BinOp(BinOp::Add, x, SubExp::Const(k))
        | Exp::BinOp(BinOp::Add, SubExp::Const(k), x)
            if is_zero(k) =>
        {
            Some(Exp::SubExp(x.clone()))
        }
        Exp::BinOp(BinOp::Sub, x, SubExp::Const(k)) if is_zero(k) => Some(Exp::SubExp(x.clone())),
        Exp::BinOp(BinOp::Mul, x, SubExp::Const(k))
        | Exp::BinOp(BinOp::Mul, SubExp::Const(k), x)
            if is_one(k) =>
        {
            Some(Exp::SubExp(x.clone()))
        }
        Exp::BinOp(BinOp::Mul, _, SubExp::Const(k))
        | Exp::BinOp(BinOp::Mul, SubExp::Const(k), _)
            if is_zero(k) && k.scalar_type().is_integral() =>
        {
            Some(Exp::SubExp(SubExp::Const(*k)))
        }
        Exp::BinOp(BinOp::Div, x, SubExp::Const(k)) if is_one(k) => Some(Exp::SubExp(x.clone())),
        _ => None,
    }
}

fn is_zero(k: &Scalar) -> bool {
    matches!(k, Scalar::I32(0) | Scalar::I64(0))
        || matches!(k, Scalar::F32(x) if *x == 0.0)
        || matches!(k, Scalar::F64(x) if *x == 0.0)
}

fn is_one(k: &Scalar) -> bool {
    matches!(k, Scalar::I32(1) | Scalar::I64(1))
        || matches!(k, Scalar::F32(x) if *x == 1.0)
        || matches!(k, Scalar::F64(x) if *x == 1.0)
}

// ---- Common subexpression elimination ----

/// What CSE compares: an operator and its operands, or an array and its
/// indices. Operands compare as `SubExp`s (a constant by its bits), except
/// that the NaNs of one type are one key.
#[derive(Clone, PartialEq, Eq, Hash)]
enum CseKey {
    UnOp(UnOp, SubExp),
    BinOp(BinOp, SubExp, SubExp),
    Cmp(CmpOp, SubExp, SubExp),
    Convert(ScalarType, SubExp),
    Index(Name, Vec<SubExp>),
}

/// An operand as CSE keys it: every NaN of a type is one NaN.
fn operand(se: &SubExp) -> SubExp {
    match se {
        SubExp::Const(Scalar::F32(x)) if x.is_nan() => SubExp::Const(Scalar::F32(f32::NAN)),
        SubExp::Const(Scalar::F64(x)) if x.is_nan() => SubExp::Const(Scalar::F64(f64::NAN)),
        other => other.clone(),
    }
}

/// The key of a pure, cheap expression CSE may merge; `None` for any
/// other expression (and for a bare operand, which copy propagation owns).
fn cse_key(e: &Exp) -> Option<CseKey> {
    Some(match e {
        Exp::UnOp(op, a) => CseKey::UnOp(*op, operand(a)),
        Exp::BinOp(op, a, b) => CseKey::BinOp(*op, operand(a), operand(b)),
        Exp::Cmp(op, a, b) => CseKey::Cmp(*op, operand(a), operand(b)),
        Exp::Convert(t, a) => CseKey::Convert(*t, operand(a)),
        Exp::Index { array, indices } => {
            CseKey::Index(array.clone(), indices.iter().map(operand).collect())
        }
        _ => return None,
    })
}

/// Replaces repeated pure, cheap expressions with references to the first
/// occurrence. In-place updates and SOACs are never merged. Returns whether
/// a use of a repeat was replaced.
pub fn cse_body(body: &mut Body) -> bool {
    cse_scope(body, &mut HashMap::new())
}

/// CSE of `body` with `seen` holding the expressions of the enclosing
/// scopes. The entries `body` adds are removed again before returning, so
/// one map serves every nested body; names are unique, so outer entries
/// (which dominate) are safe to reuse.
fn cse_scope(body: &mut Body, seen: &mut HashMap<CseKey, Name>) -> bool {
    let mut subst = Subst::new();
    let mut changed = false;
    let mut added = Vec::new();
    for stm in &mut body.stms {
        if !subst.is_empty() {
            let before = stm.exp.clone();
            subst.apply_exp(&mut stm.exp);
            changed |= stm.exp != before;
        }
        for ib in stm.exp.inner_bodies_mut() {
            changed |= cse_scope(ib, seen);
        }
        if stm.pat.len() != 1 {
            continue;
        }
        let Some(key) = cse_key(&stm.exp) else {
            continue;
        };
        if let Some(prev) = seen.get(&key) {
            futhark_trace::event("simplify.cse_hits");
            subst.bind(stm.pat[0].name.clone(), SubExp::Var(prev.clone()));
        } else {
            seen.insert(key.clone(), stm.pat[0].name.clone());
            added.push(key);
        }
    }
    // `Subst::apply_exp` recurses into nested bodies, so each statement
    // (processed in order, after the substitution grew) is fully rewritten;
    // the now-duplicate bindings die in dead-code removal.
    if !subst.is_empty() {
        for se in &mut body.result {
            let mut e = Exp::SubExp(se.clone());
            subst.apply_exp(&mut e);
            if let Exp::SubExp(se2) = e {
                changed |= *se != se2;
                *se = se2;
            }
        }
    }
    for key in &added {
        seen.remove(key);
    }
    changed
}

// ---- Hoisting ----

/// Moves loop- and lambda-invariant cheap scalar computations out of loop
/// bodies and SOAC operators within a function, with its parameters in
/// scope (the paper hoists aggressively before kernel extraction so that
/// kernel bodies contain only essential code). Returns whether any
/// statement moved.
pub fn hoist_fun(f: &mut FunDef) -> bool {
    let mut scope: HashSet<Name> = f.params.iter().map(|p| p.name.clone()).collect();
    hoist_body_in(&mut f.body, &mut scope)
}

/// The names visible at a point of the walk, kept in one set: a scope adds
/// its binders with [`Scope::bind`] and removes them again with
/// [`Scope::undo`], so no nested body or lambda copies the set.
struct Scope<'a> {
    names: &'a mut HashSet<Name>,
    added: Vec<Name>,
}

impl<'a> Scope<'a> {
    fn enter(names: &'a mut HashSet<Name>) -> Self {
        Scope {
            names,
            added: Vec::new(),
        }
    }

    fn bind(&mut self, n: &Name) {
        if self.names.insert(n.clone()) {
            self.added.push(n.clone());
        }
    }

    fn undo(self) {
        for n in &self.added {
            self.names.remove(n);
        }
    }
}

fn hoist_body_in(body: &mut Body, names: &mut HashSet<Name>) -> bool {
    let mut scope = Scope::enter(names);
    let mut changed = false;
    let mut new_stms: Vec<Stm> = Vec::new();
    for mut stm in std::mem::take(&mut body.stms) {
        // Recurse first (with the names visible at the nested scope) so
        // inner invariants bubble out one level per pass.
        changed |= recurse_hoist(&mut stm.exp, scope.names);
        let hoisted = hoist_from_exp(&mut stm.exp, scope.names);
        changed |= !hoisted.is_empty();
        for h in hoisted {
            for pe in &h.pat {
                scope.bind(&pe.name);
            }
            new_stms.push(h);
        }
        for pe in &stm.pat {
            scope.bind(&pe.name);
        }
        new_stms.push(stm);
    }
    body.stms = new_stms;
    scope.undo();
    changed
}

/// Recurses into nested bodies with their binders added to scope.
fn recurse_hoist(e: &mut Exp, names: &mut HashSet<Name>) -> bool {
    let mut changed = false;
    match e {
        Exp::If {
            then_body,
            else_body,
            ..
        } => {
            changed |= hoist_body_in(then_body, names);
            changed |= hoist_body_in(else_body, names);
        }
        Exp::Loop { params, form, body } => {
            let mut scope = Scope::enter(names);
            for (p, _) in params.iter() {
                scope.bind(&p.name);
            }
            if let LoopForm::For { var, .. } = form {
                scope.bind(var);
            }
            if let LoopForm::While(c) = form {
                changed |= hoist_body_in(c, scope.names);
            }
            changed |= hoist_body_in(body, scope.names);
            scope.undo();
        }
        Exp::Soac(soac) => {
            // Lambdas: add their parameters.
            let lams: Vec<&mut futhark_core::Lambda> = match soac {
                Soac::Map { lam, .. }
                | Soac::Scan { lam, .. }
                | Soac::Reduce { lam, .. }
                | Soac::StreamMap { lam, .. }
                | Soac::StreamSeq { lam, .. } => vec![lam],
                Soac::Redomap {
                    red_lam, map_lam, ..
                } => vec![red_lam, map_lam],
                Soac::StreamRed {
                    red_lam, fold_lam, ..
                } => vec![red_lam, fold_lam],
                Soac::Scatter { .. } => vec![],
            };
            for lam in lams {
                let mut scope = Scope::enter(names);
                for p in &lam.params {
                    scope.bind(&p.name);
                }
                changed |= hoist_body_in(&mut lam.body, scope.names);
                scope.undo();
            }
        }
        _ => {}
    }
    changed
}

/// Extracts invariant cheap statements from the inner bodies of `e` whose
/// free variables are all bound outside; returns them for insertion before
/// the statement. Only loop bodies and SOAC operators are hoisted from;
/// if-branches are not (that would compute both sides unconditionally).
fn hoist_from_exp(e: &mut Exp, outside: &HashSet<Name>) -> Vec<Stm> {
    let bodies: Vec<&mut Body> = match e {
        Exp::Loop { body, .. } => vec![body],
        Exp::Soac(soac) => match soac {
            Soac::Map { lam, .. }
            | Soac::Scan { lam, .. }
            | Soac::Reduce { lam, .. }
            | Soac::StreamMap { lam, .. }
            | Soac::StreamSeq { lam, .. } => vec![&mut lam.body],
            Soac::Redomap {
                red_lam, map_lam, ..
            } => vec![&mut red_lam.body, &mut map_lam.body],
            Soac::StreamRed {
                red_lam, fold_lam, ..
            } => vec![&mut red_lam.body, &mut fold_lam.body],
            Soac::Scatter { .. } => vec![],
        },
        _ => vec![],
    };
    let mut out = Vec::new();
    for b in bodies {
        let mut kept = Vec::with_capacity(b.stms.len());
        for stm in std::mem::take(&mut b.stms) {
            let invariant = stm.exp.is_scalar_cheap()
                && !matches!(stm.exp, Exp::Index { .. })
                && free_in_exp(&stm.exp).iter().all(|v| outside.contains(v));
            if invariant {
                futhark_trace::event("simplify.hoisted");
                out.push(stm);
            } else {
                kept.push(stm);
            }
        }
        b.stms = kept;
    }
    out
}

// ---- Dead code removal ----

/// Dead-code removal over a function body, whose variable results are
/// live. Returns whether any binding was removed.
fn dead_code_fun(f: &mut FunDef) -> bool {
    let keep: HashSet<Name> = f
        .body
        .result
        .iter()
        .filter_map(|se| se.as_var().cloned())
        .collect();
    dead_code_body(&mut f.body, &keep)
}

/// Removes bindings whose names are never used. All core expressions are
/// pure, so removal is always sound. Returns whether any binding was
/// removed, here or in a nested body.
pub fn dead_code_body(body: &mut Body, live_out: &HashSet<Name>) -> bool {
    // Compute liveness backwards.
    let mut live: HashSet<Name> = live_out.clone();
    for se in &body.result {
        if let SubExp::Var(v) = se {
            live.insert(v.clone());
        }
    }
    let mut keep = vec![false; body.stms.len()];
    for (i, stm) in body.stms.iter().enumerate().rev() {
        let used = stm.pat.iter().any(|pe| live.contains(&pe.name));
        if used {
            keep[i] = true;
            live.extend(free_in_exp(&stm.exp));
        }
    }
    let mut i = 0;
    let before = body.stms.len();
    body.stms.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
    let removed = before - body.stms.len();
    futhark_trace::event_n("simplify.dead_removed", removed as u64);
    let mut changed = removed > 0;
    // Recurse: clean inner bodies too.
    for stm in &mut body.stms {
        for ib in stm.exp.inner_bodies_mut() {
            changed |= dead_code_body(ib, &HashSet::new());
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark_core::Value;
    use futhark_frontend::parse_program;
    use futhark_interp::Interpreter;

    fn simplified(src: &str) -> Program {
        let (mut prog, mut ns) = parse_program(src).unwrap();
        simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
        prog
    }

    /// The reference fixed point: print the function before and after each
    /// round and stop once the text is unchanged, with CSE keyed on the
    /// printed expression. [`simplify_fun`] must agree with it exactly.
    fn simplify_fun_by_printing(f: &mut FunDef, toggles: &SimplifyToggles) {
        for _ in 0..8 {
            let before = format!("{f}");
            if toggles.copy_prop {
                copy_propagate_body(&mut f.body);
            }
            if toggles.const_fold {
                constant_fold_body(&mut f.body);
            }
            if toggles.cse {
                cse_by_printing(&mut f.body, &mut HashMap::new());
            }
            if toggles.hoist {
                hoist_fun(f);
            }
            if toggles.dead_code {
                dead_code_fun(f);
            }
            if format!("{f}") == before {
                break;
            }
        }
    }

    /// CSE keyed on `format!("{}", exp)`, each nested body with its own
    /// copy of the enclosing scopes' entries.
    fn cse_by_printing(body: &mut Body, seen: &mut HashMap<String, Name>) {
        let mut subst = Subst::new();
        for stm in &mut body.stms {
            subst.apply_exp(&mut stm.exp);
            for ib in stm.exp.inner_bodies_mut() {
                cse_by_printing(ib, &mut seen.clone());
            }
            let cse_able = stm.exp.is_scalar_cheap()
                && !matches!(stm.exp, Exp::SubExp(_))
                && stm.pat.len() == 1;
            if cse_able {
                let key = format!("{}", stm.exp);
                if let Some(prev) = seen.get(&key) {
                    subst.bind(stm.pat[0].name.clone(), SubExp::Var(prev.clone()));
                } else {
                    seen.insert(key, stm.pat[0].name.clone());
                }
            }
        }
        for se in &mut body.result {
            let mut e = Exp::SubExp(se.clone());
            subst.apply_exp(&mut e);
            if let Exp::SubExp(se2) = e {
                *se = se2;
            }
        }
    }

    /// All 32 combinations of the five rewrite families.
    fn all_toggles() -> Vec<SimplifyToggles> {
        (0..32u32)
            .map(|m| SimplifyToggles {
                copy_prop: m & 1 != 0,
                const_fold: m & 2 != 0,
                cse: m & 4 != 0,
                hoist: m & 8 != 0,
                dead_code: m & 16 != 0,
            })
            .collect()
    }

    /// Parses `src` and returns it as the simplifier first sees it
    /// (provenance filled, calls inlined) and as the post-flattening
    /// simplification sees it.
    fn simplifier_inputs(src: &str) -> [Program; 2] {
        let (mut prog, mut ns) = parse_program(src).unwrap();
        futhark_core::prov::fill_program(&mut prog);
        inline_functions(&mut prog, &mut ns);
        let inlined = prog.clone();
        let sched = futhark_core::schedule::Schedule::default();
        let mut cur = futhark_core::schedule::ScheduleCursor::new(sched.clone());
        simplify_program(&mut prog, &mut ns, &sched.simplify);
        crate::fusion::fuse_program(&mut prog, &mut ns, &mut cur);
        crate::flatten::flatten_program(&mut prog, &mut ns, &mut cur);
        [inlined, prog]
    }

    /// Runs the rounds of [`simplify_fun`] by hand, requiring each family
    /// to report a change exactly when the function differs (`==`) from
    /// before the call.
    fn assert_flags_exact(what: &str, f: &FunDef, t: &SimplifyToggles) {
        type Family = fn(&mut FunDef) -> bool;
        let families: [(&str, bool, Family); 5] = [
            ("copy propagation", t.copy_prop, |f| {
                copy_propagate_body(&mut f.body)
            }),
            ("constant folding", t.const_fold, |f| {
                constant_fold_body(&mut f.body)
            }),
            ("CSE", t.cse, |f| cse_body(&mut f.body)),
            ("hoisting", t.hoist, hoist_fun),
            ("dead-code removal", t.dead_code, dead_code_fun),
        ];
        let mut f = f.clone();
        for round in 0..8 {
            let mut changed = false;
            for (family, on, run) in families {
                if on {
                    let before = f.clone();
                    let reported = run(&mut f);
                    let differs = f != before;
                    assert_eq!(
                        reported, differs,
                        "{what}: {family} in round {round} under {t:?}"
                    );
                    changed |= reported;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Simplifies every function of every input both ways under each
    /// toggle combination and requires equal results (`==`, provenance
    /// included) and exact change reports.
    fn assert_matches_printing(what: &str, inputs: &[Program], toggles: &[SimplifyToggles]) {
        for prog in inputs {
            for t in toggles {
                for f in &prog.functions {
                    let mut fast = f.clone();
                    simplify_fun(&mut fast, t);
                    let mut slow = f.clone();
                    simplify_fun_by_printing(&mut slow, t);
                    assert!(fast == slow, "{what} under {t:?}:\n{fast}\nvs\n{slow}");
                    assert_flags_exact(what, f, t);
                }
            }
        }
    }

    #[test]
    fn fixed_point_matches_printing_on_paper_programs_under_every_toggle() {
        let toggles = all_toggles();
        for b in futhark_bench::all_benchmarks() {
            assert_matches_printing(b.name, &simplifier_inputs(&b.source), &toggles);
        }
    }

    #[test]
    fn fixed_point_matches_printing_on_fuzz_programs() {
        let toggles = all_toggles();
        let cfg = futhark_fuzz::GenConfig::default();
        for seed in 0..500u64 {
            let src = futhark_fuzz::generate(seed, &cfg).source();
            let pick = [SimplifyToggles::default(), toggles[seed as usize % 32]];
            assert_matches_printing(
                &format!("fuzz seed {seed}"),
                &simplifier_inputs(&src),
                &pick,
            );
        }
    }

    #[test]
    fn cse_merges_nans_of_one_type_and_keeps_signed_zeros_apart() {
        // `a` and `b` add the same NaN by its printed form but not by its
        // bits; `c` and `d` add zeros of opposite sign.
        let src = "fun main (x: f32) (y: f64): (f32, f32, f32, f32, f64) =\n\
                   let a = x + 1.0f32\n\
                   let b = x + 2.0f32\n\
                   let c = x + 3.0f32\n\
                   let d = x + 4.0f32\n\
                   let e = y + 5.0f64\n\
                   in (a, b, c, d, e)";
        let (prog, _) = parse_program(src).unwrap();
        let mut f = prog.main().unwrap().clone();
        let consts = [
            Scalar::F32(f32::NAN),
            Scalar::F32(f32::from_bits(f32::NAN.to_bits() | 1)),
            Scalar::F32(0.0),
            Scalar::F32(-0.0),
            Scalar::F64(f64::NAN),
        ];
        for (stm, k) in f.body.stms.iter_mut().zip(consts) {
            let Exp::BinOp(_, _, rhs) = &mut stm.exp else {
                panic!("{stm:?}")
            };
            *rhs = SubExp::Const(k);
        }
        let mut printed = f.clone();
        cse_by_printing(&mut printed.body, &mut HashMap::new());
        assert!(cse_body(&mut f.body), "the two NaNs merge");
        assert_eq!(f, printed);
        let names: Vec<_> = f.body.stms.iter().map(|s| s.pat[0].name.clone()).collect();
        let want = [0, 0, 2, 3, 4].map(|i| SubExp::Var(names[i].clone()));
        assert_eq!(f.body.result, want);
        assert!(!cse_body(&mut f.body), "nothing left to merge");
    }

    #[test]
    fn folds_constants() {
        let prog = simplified(
            "fun main (x: i64): i64 =\n\
             let a = 2 + 3\n\
             let b = a * x\n\
             in b",
        );
        let f = prog.main().unwrap();
        // `a` folded to 5 and propagated into the multiply.
        assert_eq!(f.body.stms.len(), 1, "{f}");
        assert!(f.to_string().contains("5i64"), "{f}");
    }

    #[test]
    fn removes_dead_code() {
        let prog = simplified(
            "fun main (n: i64) (x: i64): i64 =\n\
             let unused = iota n\n\
             let y = x + 1\n\
             in y",
        );
        let f = prog.main().unwrap();
        assert!(!f.to_string().contains("iota"), "{f}");
    }

    #[test]
    fn cse_merges_repeats() {
        let prog = simplified(
            "fun main (x: i64) (y: i64): i64 =\n\
             let a = x * y\n\
             let b = x * y\n\
             let c = a + b\n\
             in c",
        );
        let f = prog.main().unwrap();
        let muls = f.to_string().matches('*').count();
        assert_eq!(muls, 1, "{f}");
    }

    #[test]
    fn inlines_function_calls() {
        let prog = simplified(
            "fun square (v: i64): i64 = let r = v * v in r\n\
             fun main (x: i64): i64 =\n\
             let y = square(x)\n\
             in y",
        );
        assert_eq!(prog.functions.len(), 1);
        let f = prog.main().unwrap();
        assert!(!f.to_string().contains("square("), "{f}");
    }

    #[test]
    fn hoists_invariant_code_out_of_loops() {
        let prog = simplified(
            "fun main (n: i64) (x: i64): i64 =\n\
             let r = loop (acc = 0) for i < n do (\n\
               let inv = x * x\n\
               in acc + inv)\n\
             in r",
        );
        let f = prog.main().unwrap();
        // The multiply must appear before the loop.
        let s = f.to_string();
        let mul_at = s.find('*').unwrap();
        let loop_at = s.find("loop").unwrap();
        assert!(mul_at < loop_at, "{s}");
    }

    #[test]
    fn constant_if_selects_branch() {
        let prog = simplified(
            "fun main (x: i64): i64 =\n\
             let c = if true then x + 1 else x - 1\n\
             in c",
        );
        let f = prog.main().unwrap();
        assert!(!f.to_string().contains("if"), "{f}");
        assert!(f.to_string().contains('+'), "{f}");
    }

    #[test]
    fn simplification_preserves_semantics() {
        let src = "fun helper (a: i64) (b: i64): i64 = let c = a * b + a in c\n\
                   fun main (n: i64) (xs: [n]i64): i64 =\n\
                   let k = 3 + 4\n\
                   let ys = map (\\x -> helper(x, k) + helper(x, k)) xs\n\
                   let s = reduce (+) 0 ys\n\
                   let dead = iota n\n\
                   in s";
        let (prog, mut ns) = parse_program(src).unwrap();
        let mut opt = prog.clone();
        simplify_program(&mut opt, &mut ns, &SimplifyToggles::default());
        let args = vec![
            Value::i64(5),
            Value::Array(futhark_core::ArrayVal::from_i64s(vec![1, 2, 3, 4, 5])),
        ];
        let r1 = Interpreter::new(&prog).run_main(&args).unwrap();
        let r2 = Interpreter::new(&opt).run_main(&args).unwrap();
        assert_eq!(r1, r2);
        // And it still checks.
        futhark_check::check_program(&opt).unwrap();
    }
}
