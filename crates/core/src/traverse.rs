//! Generic IR traversals: free variables, substitution, and alpha-renaming.
//!
//! Names are globally unique within a program, so substitution does not need
//! capture avoidance as long as code is not duplicated; passes that duplicate
//! code (inlining, loop peeling, fusion of shared producers) first call
//! [`alpha_rename_lambda`] / [`alpha_rename_body`] to freshen every binder.

use crate::ir::{Body, Exp, Lambda, LoopForm, Soac, SubExp};
use crate::name::{Name, NameSource};
use crate::types::{Size, Type};
use std::collections::{HashMap, HashSet};

/// The set of variables occurring free in a body.
pub fn free_in_body(body: &Body) -> HashSet<Name> {
    let mut free = HashSet::new();
    let mut bound = HashSet::new();
    free_body(body, &mut bound, &mut free);
    free
}

/// The set of variables occurring free in an expression.
pub fn free_in_exp(exp: &Exp) -> HashSet<Name> {
    let mut free = HashSet::new();
    let mut bound = HashSet::new();
    free_exp(exp, &mut bound, &mut free);
    free
}

/// The set of variables occurring free in a lambda (not counting its
/// parameters).
pub fn free_in_lambda(lam: &Lambda) -> HashSet<Name> {
    let mut free = HashSet::new();
    let mut bound = HashSet::new();
    for p in &lam.params {
        bound.insert(p.name.clone());
        free_type(&p.ty, &bound, &mut free);
    }
    free_body(&lam.body, &mut bound, &mut free);
    for t in &lam.ret {
        free_type(t, &bound, &mut free);
    }
    free
}

fn record(v: &Name, bound: &HashSet<Name>, free: &mut HashSet<Name>) {
    if !bound.contains(v) {
        free.insert(v.clone());
    }
}

fn free_subexp(se: &SubExp, bound: &HashSet<Name>, free: &mut HashSet<Name>) {
    if let SubExp::Var(v) = se {
        record(v, bound, free);
    }
}

fn free_type(t: &Type, bound: &HashSet<Name>, free: &mut HashSet<Name>) {
    if let Type::Array(a) = t {
        for d in &a.dims {
            if let Size::Var(v) = d {
                record(v, bound, free);
            }
        }
    }
}

fn free_body(body: &Body, bound: &mut HashSet<Name>, free: &mut HashSet<Name>) {
    let mut locally_bound = Vec::new();
    for stm in &body.stms {
        free_exp(&stm.exp, bound, free);
        for pe in &stm.pat {
            free_type(&pe.ty, bound, free);
            bound.insert(pe.name.clone());
            locally_bound.push(pe.name.clone());
        }
    }
    for se in &body.result {
        free_subexp(se, bound, free);
    }
    for n in locally_bound {
        bound.remove(&n);
    }
}

fn free_lambda(lam: &Lambda, bound: &mut HashSet<Name>, free: &mut HashSet<Name>) {
    let mut locally_bound = Vec::new();
    for p in &lam.params {
        free_type(&p.ty, bound, free);
        bound.insert(p.name.clone());
        locally_bound.push(p.name.clone());
    }
    free_body(&lam.body, bound, free);
    for t in &lam.ret {
        free_type(t, bound, free);
    }
    for n in locally_bound {
        bound.remove(&n);
    }
}

fn free_exp(exp: &Exp, bound: &mut HashSet<Name>, free: &mut HashSet<Name>) {
    match exp {
        Exp::SubExp(se) => free_subexp(se, bound, free),
        Exp::UnOp(_, a) | Exp::Convert(_, a) => free_subexp(a, bound, free),
        Exp::BinOp(_, a, b) | Exp::Cmp(_, a, b) => {
            free_subexp(a, bound, free);
            free_subexp(b, bound, free);
        }
        Exp::If {
            cond,
            then_body,
            else_body,
            ret,
        } => {
            free_subexp(cond, bound, free);
            free_body(then_body, bound, free);
            free_body(else_body, bound, free);
            for t in ret {
                free_type(t, bound, free);
            }
        }
        Exp::Apply { args, .. } => {
            for a in args {
                free_subexp(a, bound, free);
            }
        }
        Exp::Index { array, indices } => {
            record(array, bound, free);
            for i in indices {
                free_subexp(i, bound, free);
            }
        }
        Exp::Update {
            array,
            indices,
            value,
        } => {
            record(array, bound, free);
            for i in indices {
                free_subexp(i, bound, free);
            }
            free_subexp(value, bound, free);
        }
        Exp::Iota(n) => free_subexp(n, bound, free),
        Exp::Replicate(n, v) => {
            free_subexp(n, bound, free);
            free_subexp(v, bound, free);
        }
        Exp::Rearrange { array, .. } => record(array, bound, free),
        Exp::Reshape { shape, array } => {
            for s in shape {
                free_subexp(s, bound, free);
            }
            record(array, bound, free);
        }
        Exp::Concat { arrays } => {
            for a in arrays {
                record(a, bound, free);
            }
        }
        Exp::Copy(a) => record(a, bound, free),
        Exp::Loop { params, form, body } => {
            for (p, init) in params {
                free_subexp(init, bound, free);
                free_type(&p.ty, bound, free);
            }
            let mut locally = Vec::new();
            for (p, _) in params {
                bound.insert(p.name.clone());
                locally.push(p.name.clone());
            }
            match form {
                LoopForm::For { var, bound: b } => {
                    free_subexp(b, bound, free);
                    bound.insert(var.clone());
                    locally.push(var.clone());
                }
                LoopForm::While(cond) => free_body(cond, bound, free),
            }
            free_body(body, bound, free);
            for n in locally {
                bound.remove(&n);
            }
        }
        Exp::Soac(soac) => match soac {
            Soac::Map { width, lam, arrs } => {
                free_subexp(width, bound, free);
                free_lambda(lam, bound, free);
                for a in arrs {
                    record(a, bound, free);
                }
            }
            Soac::Reduce {
                width,
                lam,
                neutral,
                arrs,
                ..
            }
            | Soac::Scan {
                width,
                lam,
                neutral,
                arrs,
            } => {
                free_subexp(width, bound, free);
                free_lambda(lam, bound, free);
                for n in neutral {
                    free_subexp(n, bound, free);
                }
                for a in arrs {
                    record(a, bound, free);
                }
            }
            Soac::Redomap {
                width,
                red_lam,
                map_lam,
                neutral,
                arrs,
                ..
            } => {
                free_subexp(width, bound, free);
                free_lambda(red_lam, bound, free);
                free_lambda(map_lam, bound, free);
                for n in neutral {
                    free_subexp(n, bound, free);
                }
                for a in arrs {
                    record(a, bound, free);
                }
            }
            Soac::StreamMap { width, lam, arrs } => {
                free_subexp(width, bound, free);
                free_lambda(lam, bound, free);
                for a in arrs {
                    record(a, bound, free);
                }
            }
            Soac::StreamRed {
                width,
                red_lam,
                fold_lam,
                accs,
                arrs,
            } => {
                free_subexp(width, bound, free);
                free_lambda(red_lam, bound, free);
                free_lambda(fold_lam, bound, free);
                for a in accs {
                    free_subexp(a, bound, free);
                }
                for a in arrs {
                    record(a, bound, free);
                }
            }
            Soac::StreamSeq {
                width,
                lam,
                accs,
                arrs,
            } => {
                free_subexp(width, bound, free);
                free_lambda(lam, bound, free);
                for a in accs {
                    free_subexp(a, bound, free);
                }
                for a in arrs {
                    record(a, bound, free);
                }
            }
            Soac::Scatter {
                width,
                dest,
                indices,
                values,
            } => {
                free_subexp(width, bound, free);
                record(dest, bound, free);
                record(indices, bound, free);
                record(values, bound, free);
            }
        },
    }
}

/// A name-to-operand substitution applied to free occurrences.
///
/// Positions that syntactically require a variable (array operands of
/// `index`, SOAC inputs, …) only accept a substitution to another variable.
///
/// # Panics
///
/// Applying a substitution that maps an array-position variable to a
/// constant panics; such substitutions are compiler bugs.
#[derive(Debug, Clone, Default)]
pub struct Subst {
    map: HashMap<Name, SubExp>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a mapping.
    pub fn bind(&mut self, from: Name, to: SubExp) -> &mut Self {
        self.map.insert(from, to);
        self
    }

    /// Whether the substitution is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn subexp(&self, se: &mut SubExp) {
        if let SubExp::Var(v) = se {
            if let Some(rep) = self.map.get(v) {
                *se = rep.clone();
            }
        }
    }

    fn var(&self, v: &mut Name) {
        if let Some(rep) = self.map.get(v) {
            match rep {
                SubExp::Var(w) => *v = w.clone(),
                SubExp::Const(_) => {
                    panic!("substituting constant for array variable {v}")
                }
            }
        }
    }

    fn ty(&self, t: &mut Type) {
        if let Type::Array(a) = t {
            for d in &mut a.dims {
                if let Size::Var(v) = d {
                    if let Some(rep) = self.map.get(v) {
                        match rep {
                            SubExp::Var(w) => *d = Size::Var(w.clone()),
                            SubExp::Const(k) => {
                                if let Some(n) = k.as_i64() {
                                    *d = Size::Const(n);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Applies the substitution to a body in place.
    pub fn apply_body(&self, body: &mut Body) {
        if self.is_empty() {
            return;
        }
        for stm in &mut body.stms {
            for pe in &mut stm.pat {
                self.ty(&mut pe.ty);
            }
            self.apply_exp(&mut stm.exp);
        }
        for se in &mut body.result {
            self.subexp(se);
        }
    }

    /// Applies the substitution to a lambda in place (parameters are binders
    /// and are not replaced, but their types' sizes are).
    pub fn apply_lambda(&self, lam: &mut Lambda) {
        for p in &mut lam.params {
            self.ty(&mut p.ty);
        }
        self.apply_body(&mut lam.body);
        for t in &mut lam.ret {
            self.ty(t);
        }
    }

    /// Applies the substitution to an expression in place.
    pub fn apply_exp(&self, exp: &mut Exp) {
        match exp {
            Exp::SubExp(se) => self.subexp(se),
            Exp::UnOp(_, a) | Exp::Convert(_, a) => self.subexp(a),
            Exp::BinOp(_, a, b) | Exp::Cmp(_, a, b) => {
                self.subexp(a);
                self.subexp(b);
            }
            Exp::If {
                cond,
                then_body,
                else_body,
                ret,
            } => {
                self.subexp(cond);
                self.apply_body(then_body);
                self.apply_body(else_body);
                for t in ret {
                    self.ty(t);
                }
            }
            Exp::Apply { args, .. } => {
                for a in args {
                    self.subexp(a);
                }
            }
            Exp::Index { array, indices } => {
                self.var(array);
                for i in indices {
                    self.subexp(i);
                }
            }
            Exp::Update {
                array,
                indices,
                value,
            } => {
                self.var(array);
                for i in indices {
                    self.subexp(i);
                }
                self.subexp(value);
            }
            Exp::Iota(n) => self.subexp(n),
            Exp::Replicate(n, v) => {
                self.subexp(n);
                self.subexp(v);
            }
            Exp::Rearrange { array, .. } => self.var(array),
            Exp::Reshape { shape, array } => {
                for s in shape {
                    self.subexp(s);
                }
                self.var(array);
            }
            Exp::Concat { arrays } => {
                for a in arrays {
                    self.var(a);
                }
            }
            Exp::Copy(a) => self.var(a),
            Exp::Loop { params, form, body } => {
                for (p, init) in params.iter_mut() {
                    self.subexp(init);
                    self.ty(&mut p.ty);
                }
                match form {
                    LoopForm::For { bound, .. } => self.subexp(bound),
                    LoopForm::While(cond) => self.apply_body(cond),
                }
                self.apply_body(body);
            }
            Exp::Soac(soac) => match soac {
                Soac::Map { width, lam, arrs } => {
                    self.subexp(width);
                    self.apply_lambda(lam);
                    for a in arrs {
                        self.var(a);
                    }
                }
                Soac::Reduce {
                    width,
                    lam,
                    neutral,
                    arrs,
                    ..
                }
                | Soac::Scan {
                    width,
                    lam,
                    neutral,
                    arrs,
                } => {
                    self.subexp(width);
                    self.apply_lambda(lam);
                    for n in neutral {
                        self.subexp(n);
                    }
                    for a in arrs {
                        self.var(a);
                    }
                }
                Soac::Redomap {
                    width,
                    red_lam,
                    map_lam,
                    neutral,
                    arrs,
                    ..
                } => {
                    self.subexp(width);
                    self.apply_lambda(red_lam);
                    self.apply_lambda(map_lam);
                    for n in neutral {
                        self.subexp(n);
                    }
                    for a in arrs {
                        self.var(a);
                    }
                }
                Soac::StreamMap { width, lam, arrs } => {
                    self.subexp(width);
                    self.apply_lambda(lam);
                    for a in arrs {
                        self.var(a);
                    }
                }
                Soac::StreamRed {
                    width,
                    red_lam,
                    fold_lam,
                    accs,
                    arrs,
                } => {
                    self.subexp(width);
                    self.apply_lambda(red_lam);
                    self.apply_lambda(fold_lam);
                    for a in accs {
                        self.subexp(a);
                    }
                    for a in arrs {
                        self.var(a);
                    }
                }
                Soac::StreamSeq {
                    width,
                    lam,
                    accs,
                    arrs,
                } => {
                    self.subexp(width);
                    self.apply_lambda(lam);
                    for a in accs {
                        self.subexp(a);
                    }
                    for a in arrs {
                        self.var(a);
                    }
                }
                Soac::Scatter {
                    width,
                    dest,
                    indices,
                    values,
                } => {
                    self.subexp(width);
                    self.var(dest);
                    self.var(indices);
                    self.var(values);
                }
            },
        }
    }
}

/// Returns a copy of the lambda with every binder (parameters and all names
/// bound in the body, recursively) renamed fresh.
pub fn alpha_rename_lambda(ns: &mut NameSource, lam: &Lambda) -> Lambda {
    let mut lam = lam.clone();
    let mut subst = Subst::new();
    for p in &mut lam.params {
        let fresh = ns.fresh_from(&p.name);
        subst.bind(p.name.clone(), SubExp::Var(fresh.clone()));
        p.name = fresh;
    }
    rename_body_binders(ns, &mut lam.body, &mut subst);
    // Apply accumulated renames to types and results.
    subst.apply_lambda(&mut lam);
    lam
}

/// Returns a copy of the body with every binder renamed fresh; `subst`
/// receives the renames and is applied afterwards by the caller.
fn rename_body_binders(ns: &mut NameSource, body: &mut Body, subst: &mut Subst) {
    for stm in &mut body.stms {
        rename_exp_binders(ns, &mut stm.exp, subst);
        for pe in &mut stm.pat {
            let fresh = ns.fresh_from(&pe.name);
            subst.bind(pe.name.clone(), SubExp::Var(fresh.clone()));
            pe.name = fresh;
        }
    }
}

fn rename_exp_binders(ns: &mut NameSource, exp: &mut Exp, subst: &mut Subst) {
    match exp {
        Exp::Loop { params, form, body } => {
            for (p, _) in params.iter_mut() {
                let fresh = ns.fresh_from(&p.name);
                subst.bind(p.name.clone(), SubExp::Var(fresh.clone()));
                p.name = fresh;
            }
            if let LoopForm::For { var, .. } = form {
                let fresh = ns.fresh_from(var);
                subst.bind(var.clone(), SubExp::Var(fresh.clone()));
                *var = fresh;
            }
            if let LoopForm::While(cond) = form {
                rename_body_binders(ns, cond, subst);
            }
            rename_body_binders(ns, body, subst);
        }
        _ => {
            for b in exp.inner_bodies_mut() {
                rename_body_binders(ns, b, subst);
            }
            if let Exp::Soac(soac) = exp {
                let lams: Vec<&mut Lambda> = match soac {
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
                    for p in &mut lam.params {
                        let fresh = ns.fresh_from(&p.name);
                        subst.bind(p.name.clone(), SubExp::Var(fresh.clone()));
                        p.name = fresh;
                    }
                }
            }
        }
    }
}

/// Returns a copy of the body with every binder renamed fresh and the new
/// names applied throughout.
pub fn alpha_rename_body(ns: &mut NameSource, body: &Body) -> Body {
    let mut body = body.clone();
    let mut subst = Subst::new();
    rename_body_binders(ns, &mut body, &mut subst);
    subst.apply_body(&mut body);
    body
}

/// All names bound anywhere inside a body (statement patterns, loop and
/// lambda parameters, recursively).
pub fn bound_in_body(body: &Body) -> HashSet<Name> {
    let mut out = HashSet::new();
    collect_bound_body(body, &mut out);
    out
}

fn collect_bound_body(body: &Body, out: &mut HashSet<Name>) {
    for stm in &body.stms {
        for pe in &stm.pat {
            out.insert(pe.name.clone());
        }
        collect_bound_exp(&stm.exp, out);
    }
}

fn collect_bound_exp(exp: &Exp, out: &mut HashSet<Name>) {
    if let Exp::Loop { params, form, .. } = exp {
        for (p, _) in params {
            out.insert(p.name.clone());
        }
        if let LoopForm::For { var, .. } = form {
            out.insert(var.clone());
        }
    }
    if let Exp::Soac(soac) = exp {
        let lams: Vec<&Lambda> = match soac {
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
            for p in &lam.params {
                out.insert(p.name.clone());
            }
        }
    }
    for b in exp.inner_bodies() {
        collect_bound_body(b, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Param, Scalar, Stm};
    use crate::types::ScalarType;

    fn i64t() -> Type {
        Type::Scalar(ScalarType::I64)
    }

    #[test]
    fn free_vars_of_simple_body() {
        let mut ns = NameSource::new();
        let x = ns.fresh("x");
        let y = ns.fresh("y");
        let z = ns.fresh("z");
        // let y = x + 1 in (y, z)
        let body = Body::new(
            vec![Stm::single(
                y.clone(),
                i64t(),
                Exp::BinOp(BinOp::Add, SubExp::Var(x.clone()), SubExp::i64(1)),
            )],
            vec![SubExp::Var(y.clone()), SubExp::Var(z.clone())],
        );
        let free = free_in_body(&body);
        assert!(free.contains(&x));
        assert!(free.contains(&z));
        assert!(!free.contains(&y));
    }

    #[test]
    fn free_vars_include_type_sizes() {
        let mut ns = NameSource::new();
        let n = ns.fresh("n");
        let xs = ns.fresh("xs");
        let p = ns.fresh("p");
        let lam = Lambda {
            params: vec![Param::new(
                p.clone(),
                Type::array_of(ScalarType::F32, vec![Size::Var(n.clone())]),
            )],
            body: Body::new(vec![], vec![SubExp::Var(p)]),
            ret: vec![Type::array_of(ScalarType::F32, vec![Size::Var(n.clone())])],
        };
        let free = free_in_lambda(&lam);
        assert!(free.contains(&n));
        assert!(!free.contains(&xs));
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        let mut ns = NameSource::new();
        let x = ns.fresh("x");
        let y = ns.fresh("y");
        let mut body = Body::new(
            vec![Stm::single(
                y.clone(),
                i64t(),
                Exp::BinOp(BinOp::Add, SubExp::Var(x.clone()), SubExp::Var(x.clone())),
            )],
            vec![SubExp::Var(y.clone())],
        );
        let mut s = Subst::new();
        s.bind(x.clone(), SubExp::Const(Scalar::I64(5)));
        s.apply_body(&mut body);
        assert_eq!(
            body.stms[0].exp,
            Exp::BinOp(BinOp::Add, SubExp::i64(5), SubExp::i64(5))
        );
    }

    #[test]
    fn alpha_rename_freshens_binders() {
        let mut ns = NameSource::new();
        let x = ns.fresh("x");
        let y = ns.fresh("y");
        let lam = Lambda {
            params: vec![Param::new(x.clone(), i64t())],
            body: Body::new(
                vec![Stm::single(
                    y.clone(),
                    i64t(),
                    Exp::BinOp(BinOp::Mul, SubExp::Var(x.clone()), SubExp::i64(2)),
                )],
                vec![SubExp::Var(y.clone())],
            ),
            ret: vec![i64t()],
        };
        let lam2 = alpha_rename_lambda(&mut ns, &lam);
        assert_ne!(lam2.params[0].name, x);
        assert_ne!(lam2.body.stms[0].pat[0].name, y);
        // The body still refers to the *new* parameter.
        match &lam2.body.stms[0].exp {
            Exp::BinOp(BinOp::Mul, SubExp::Var(v), _) => {
                assert_eq!(v, &lam2.params[0].name)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Result refers to the new binding.
        assert_eq!(
            lam2.body.result[0],
            SubExp::Var(lam2.body.stms[0].pat[0].name.clone())
        );
    }

    #[test]
    fn bound_in_body_collects_nested() {
        let mut ns = NameSource::new();
        let i = ns.fresh("i");
        let acc = ns.fresh("acc");
        let r = ns.fresh("r");
        let body = Body::new(
            vec![Stm::single(
                r.clone(),
                i64t(),
                Exp::Loop {
                    params: vec![(Param::new(acc.clone(), i64t()), SubExp::i64(0))],
                    form: LoopForm::For {
                        var: i.clone(),
                        bound: SubExp::i64(3),
                    },
                    body: Body::new(vec![], vec![SubExp::Var(acc.clone())]),
                },
            )],
            vec![SubExp::Var(r.clone())],
        );
        let bound = bound_in_body(&body);
        assert!(bound.contains(&i));
        assert!(bound.contains(&acc));
        assert!(bound.contains(&r));
    }
}
