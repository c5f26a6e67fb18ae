//! The simplification engine of Figure 3: inlining, copy propagation,
//! constant folding, common-subexpression elimination, hoisting of
//! loop-invariant scalar code, and dead-code removal.
//!
//! All passes are semantics-preserving (validated against the interpreter
//! by the property tests in `tests/`), and all operate on one function at a
//! time except inlining.

use futhark_core::schedule::SimplifyToggles;
use futhark_core::traverse::{alpha_rename_body, free_in_exp, Subst};
use futhark_core::{
    BinOp, Body, Exp, FunDef, LoopForm, Name, NameSource, Program, Scalar, Soac, Stm, SubExp,
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
pub fn simplify_fun(f: &mut FunDef, toggles: &SimplifyToggles) {
    for _ in 0..8 {
        let before = format!("{f}");
        if toggles.copy_prop {
            copy_propagate_body(&mut f.body);
        }
        if toggles.const_fold {
            constant_fold_body(&mut f.body);
        }
        if toggles.cse {
            cse_body(&mut f.body, &mut HashMap::new());
        }
        if toggles.hoist {
            hoist_fun(f);
        }
        if toggles.dead_code {
            let keep: HashSet<Name> = f
                .body
                .result
                .iter()
                .filter_map(|se| se.as_var().cloned())
                .collect();
            dead_code_body(&mut f.body, &keep);
        }
        if format!("{f}") == before {
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

/// Replaces uses of `let x = y` bindings by `y`, recursively.
pub fn copy_propagate_body(body: &mut Body) {
    propagate_copies(body, true);
}

/// Copy propagation of the bindings of `body` itself, for a body whose
/// nested bodies bind no copies; the substitution still reaches into them.
pub(crate) fn copy_propagate_stms(body: &mut Body) {
    let is_copy = |stm: &Stm| stm.pat.len() == 1 && matches!(stm.exp, Exp::SubExp(_));
    if body.stms.iter().any(is_copy) {
        propagate_copies(body, false);
    }
}

fn propagate_copies(body: &mut Body, nested: bool) {
    let mut subst = Subst::new();
    let mut new_stms = Vec::with_capacity(body.stms.len());
    for mut stm in std::mem::take(&mut body.stms) {
        subst.apply_exp(&mut stm.exp);
        if nested {
            for ib in stm.exp.inner_bodies_mut() {
                propagate_copies(ib, true);
            }
        }
        if stm.pat.len() == 1 {
            if let Exp::SubExp(se) = &stm.exp {
                futhark_trace::event("simplify.copies_propagated");
                subst.bind(stm.pat[0].name.clone(), se.clone());
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
}

// ---- Constant folding ----

/// Folds scalar operations on constants and simple algebraic identities;
/// resolves `if` on constant conditions.
pub fn constant_fold_body(body: &mut Body) {
    let mut consts: HashMap<Name, Scalar> = HashMap::new();
    let mut new_stms = Vec::with_capacity(body.stms.len());
    for mut stm in std::mem::take(&mut body.stms) {
        // Substitute known constants into operands.
        substitute_consts(&mut stm.exp, &consts);
        for ib in stm.exp.inner_bodies_mut() {
            constant_fold_body(ib);
        }
        if let Some(folded) = fold_exp(&stm.exp) {
            futhark_trace::event("simplify.constants_folded");
            stm.exp = folded;
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
            }
        }
    }
}

fn substitute_consts(e: &mut Exp, consts: &HashMap<Name, Scalar>) {
    if consts.is_empty() {
        return;
    }
    let mut subst = Subst::new();
    for v in free_in_exp(e) {
        if let Some(k) = consts.get(&v) {
            subst.bind(v.clone(), SubExp::Const(*k));
        }
    }
    // Array positions cannot hold constants; consts only bind scalars, and
    // scalars never appear in array positions in well-typed IR.
    subst.apply_exp(e);
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

/// Replaces repeated pure, cheap expressions with references to the first
/// occurrence. In-place updates and SOACs are never merged.
pub fn cse_body(body: &mut Body, seen: &mut HashMap<String, Name>) {
    let mut subst = Subst::new();
    for stm in &mut body.stms {
        subst.apply_exp(&mut stm.exp);
        for ib in stm.exp.inner_bodies_mut() {
            // Nested bodies get their own scope seeded with ours; names are
            // unique so reusing outer entries is safe (they dominate).
            let mut inner = seen.clone();
            cse_body(ib, &mut inner);
        }
        let cse_able =
            stm.exp.is_scalar_cheap() && !matches!(stm.exp, Exp::SubExp(_)) && stm.pat.len() == 1;
        if cse_able {
            let key = format!("{}", stm.exp);
            if let Some(prev) = seen.get(&key) {
                futhark_trace::event("simplify.cse_hits");
                subst.bind(stm.pat[0].name.clone(), SubExp::Var(prev.clone()));
            } else {
                seen.insert(key, stm.pat[0].name.clone());
            }
        }
    }
    // `Subst::apply_exp` recurses into nested bodies, so each statement
    // (processed in order, after the substitution grew) is fully rewritten;
    // the now-duplicate bindings die in dead-code removal.
    let mut final_res = Vec::with_capacity(body.result.len());
    for se in &body.result {
        let mut e = Exp::SubExp(se.clone());
        subst.apply_exp(&mut e);
        match e {
            Exp::SubExp(se2) => final_res.push(se2),
            _ => unreachable!(),
        }
    }
    body.result = final_res;
}

// ---- Hoisting ----

/// Moves loop- and lambda-invariant cheap scalar computations out of loop
/// bodies and SOAC operators within a function, with its parameters in
/// scope (the paper hoists aggressively before kernel extraction so that
/// kernel bodies contain only essential code).
pub fn hoist_fun(f: &mut FunDef) {
    let params: HashSet<Name> = f.params.iter().map(|p| p.name.clone()).collect();
    hoist_body_in(&mut f.body, &params);
}

fn hoist_body_in(body: &mut Body, outside: &HashSet<Name>) {
    let mut bound: HashSet<Name> = outside.clone();
    let mut new_stms: Vec<Stm> = Vec::new();
    for stm in std::mem::take(&mut body.stms) {
        let mut stm = stm;
        // Recurse first (with the names visible at the nested scope) so
        // inner invariants bubble out one level per pass.
        recurse_hoist(&mut stm.exp, &bound);
        let hoisted = hoist_from_exp(&mut stm.exp, &bound);
        for h in hoisted {
            for pe in &h.pat {
                bound.insert(pe.name.clone());
            }
            new_stms.push(h);
        }
        for pe in &stm.pat {
            bound.insert(pe.name.clone());
        }
        new_stms.push(stm);
    }
    body.stms = new_stms;
}

/// Recurses into nested bodies with their binders added to scope.
fn recurse_hoist(e: &mut Exp, bound: &HashSet<Name>) {
    match e {
        Exp::If {
            then_body,
            else_body,
            ..
        } => {
            hoist_body_in(then_body, bound);
            hoist_body_in(else_body, bound);
        }
        Exp::Loop { params, form, body } => {
            let mut inner = bound.clone();
            for (p, _) in params.iter() {
                inner.insert(p.name.clone());
            }
            if let LoopForm::For { var, .. } = form {
                inner.insert(var.clone());
            }
            if let LoopForm::While(c) = form {
                hoist_body_in(c, &inner);
            }
            hoist_body_in(body, &inner);
        }
        Exp::Soac(_) => {
            // Lambdas: add their parameters.
            let lams: Vec<&mut futhark_core::Lambda> = match e {
                Exp::Soac(soac) => match soac {
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
                },
                _ => unreachable!(),
            };
            for lam in lams {
                let mut inner = bound.clone();
                for p in &lam.params {
                    inner.insert(p.name.clone());
                }
                hoist_body_in(&mut lam.body, &inner);
            }
        }
        _ => {}
    }
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

/// Removes bindings whose names are never used. All core expressions are
/// pure, so removal is always sound.
pub fn dead_code_body(body: &mut Body, live_out: &HashSet<Name>) {
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
    futhark_trace::event_n("simplify.dead_removed", (before - body.stms.len()) as u64);
    // Recurse: clean inner bodies too.
    for stm in &mut body.stms {
        let exp = &mut stm.exp;
        match exp {
            Exp::If {
                then_body,
                else_body,
                ..
            } => {
                dead_code_body(then_body, &HashSet::new());
                dead_code_body(else_body, &HashSet::new());
            }
            Exp::Loop { form, body: b, .. } => {
                if let LoopForm::While(c) = form {
                    dead_code_body(c, &HashSet::new());
                }
                dead_code_body(b, &HashSet::new());
            }
            Exp::Soac(_) => {
                for ib in exp.inner_bodies_mut() {
                    dead_code_body(ib, &HashSet::new());
                }
            }
            _ => {}
        }
    }
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
