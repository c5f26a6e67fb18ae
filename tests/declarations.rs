//! What codegen declares, checked against what the plan itself implies:
//! every kernel's register and private-array types against the classes
//! its statements give them, and every host name against a single
//! binding.

use futhark::{Compiler, Schedule};
use futhark_core::{Name, Rng64, ScalarType};
use futhark_fuzz::{case_seed, generate, GenConfig};
use futhark_gpu::kernel::{KExp, KParam, KStm, Kernel};
use futhark_gpu::plan::{GpuPlan, HBody, HStm};
use std::collections::HashSet;

/// The class inference decode ran before kernels declared their types,
/// kept as the oracle for the declarations: a fixpoint over the body in
/// which a register takes the class of what is written into it, and a
/// private array the class of the values stored or copied into it (an
/// allocation no longer names one). A slot nothing writes stays `None`.
struct Inference<'k> {
    kernel: &'k Kernel,
    regs: Vec<Option<ScalarType>>,
    privs: Vec<Option<ScalarType>>,
    changed: bool,
}

type Classes = Vec<Option<ScalarType>>;

impl Inference<'_> {
    /// The classes of `kernel`'s registers and private arrays, or the
    /// first slot written at two classes.
    fn of(kernel: &Kernel) -> Result<(Classes, Classes), String> {
        let mut inf = Inference {
            kernel,
            regs: vec![None; kernel.regs.len()],
            privs: vec![None; kernel.privs.len()],
            changed: true,
        };
        // Classes only ever go from unknown to known, so this ends after
        // at most one sweep per slot, plus one.
        while inf.changed {
            inf.changed = false;
            inf.stms(&kernel.body)?;
        }
        Ok((inf.regs, inf.privs))
    }

    /// The class of an expression, if enough register classes are known.
    fn exp_class(&self, e: &KExp) -> Option<ScalarType> {
        match e {
            KExp::Const(s) => Some(s.scalar_type()),
            KExp::Var(r) => self.regs[*r as usize],
            KExp::GlobalId | KExp::GroupId | KExp::LocalId | KExp::GroupSize | KExp::NumThreads => {
                Some(ScalarType::I64)
            }
            KExp::ScalarArg(i) => match self.kernel.params[*i] {
                KParam::Scalar(t) => Some(t),
                KParam::Buffer(_) => None,
            },
            KExp::BinOp(_, a, b) => self.exp_class(a).or_else(|| self.exp_class(b)),
            KExp::Cmp(..) => Some(ScalarType::Bool),
            KExp::UnOp(_, a) => self.exp_class(a),
            KExp::Convert(t, _) => Some(*t),
        }
    }

    fn set(
        slots: &mut [Option<ScalarType>],
        changed: &mut bool,
        what: &str,
        i: usize,
        t: ScalarType,
    ) -> Result<(), String> {
        match slots[i] {
            None => {
                slots[i] = Some(t);
                *changed = true;
                Ok(())
            }
            Some(old) if old == t => Ok(()),
            Some(old) => Err(format!("{what} {i} used at both {old:?} and {t:?}")),
        }
    }

    fn set_reg(&mut self, r: u32, t: ScalarType) -> Result<(), String> {
        Self::set(&mut self.regs, &mut self.changed, "register", r as usize, t)
    }

    fn set_priv(&mut self, p: usize, t: ScalarType) -> Result<(), String> {
        Self::set(&mut self.privs, &mut self.changed, "private array", p, t)
    }

    fn stms(&mut self, stms: &[KStm]) -> Result<(), String> {
        for stm in stms {
            match stm {
                KStm::Assign { var, exp } => {
                    if let Some(t) = self.exp_class(exp) {
                        self.set_reg(*var, t)?;
                    }
                }
                KStm::GlobalRead { var, buf, .. } => match self.kernel.params[*buf] {
                    KParam::Buffer(t) => self.set_reg(*var, t)?,
                    KParam::Scalar(_) => return Err(format!("argument {buf} is not a buffer")),
                },
                KStm::LocalRead { var, mem, .. } => {
                    let t = self.kernel.locals[*mem].0;
                    self.set_reg(*var, t)?;
                }
                KStm::PrivWrite { arr, value, .. } => {
                    if let Some(t) = self.exp_class(value) {
                        self.set_priv(*arr, t)?;
                    }
                }
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
                    self.stms(body)?;
                }
                KStm::While { body, .. } | KStm::At { body, .. } => self.stms(body)?,
                KStm::If { then_s, else_s, .. } => {
                    self.stms(then_s)?;
                    self.stms(else_s)?;
                }
                KStm::GlobalWrite { .. }
                | KStm::LocalWrite { .. }
                | KStm::PrivAlloc { .. }
                | KStm::Barrier => {}
            }
        }
        Ok(())
    }
}

/// Checks every launch and fold kernel of `plan` against the oracle,
/// collecting each declaration that differs from the inferred class (a
/// slot nothing writes differs from every declaration). Returns the
/// number of kernels checked.
fn check_declarations(label: &str, plan: &GpuPlan, mismatches: &mut Vec<String>) -> usize {
    for k in plan.kernels.iter().chain(&plan.folds) {
        let (regs, privs) =
            Inference::of(k).unwrap_or_else(|e| panic!("{label}: kernel `{}`: {e}", k.name));
        for (what, declared, inferred) in [
            ("register", &k.regs, regs),
            ("private array", &k.privs, privs),
        ] {
            for (i, (d, inf)) in declared.iter().zip(inferred).enumerate() {
                if Some(*d) != inf {
                    mismatches.push(format!(
                        "{label}: kernel `{}` {what} {i}: declared {d:?}, inferred {inf:?}",
                        k.name
                    ));
                }
            }
        }
    }
    plan.kernels.len() + plan.folds.len()
}

#[test]
fn declared_types_are_the_classes_the_statements_give() {
    let mut mismatches = Vec::new();
    let mut kernels = 0;
    let mut rng = Rng64::seed_from_u64(7);
    for b in futhark_bench::all_benchmarks() {
        let mut scheds = vec![Schedule::default()];
        scheds.extend((0..16).map(|_| Schedule::sample(&mut rng)));
        for (i, s) in scheds.into_iter().enumerate() {
            let label = format!("{} under schedule {i} ({})", b.name, s.label());
            let c = Compiler::with_schedule(s)
                .compile(&b.source)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            kernels += check_declarations(&label, &c.plan, &mut mismatches);
        }
    }
    let cfg = GenConfig::default();
    for i in 0..500 {
        let src = generate(case_seed(41, i), &cfg).source();
        let label = format!("fuzz case {i}");
        let c = Compiler::new()
            .compile(&src)
            .unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));
        kernels += check_declarations(&label, &c.plan, &mut mismatches);
    }
    assert!(kernels > 1000, "only {kernels} kernels checked");
    assert!(
        mismatches.is_empty(),
        "{} declarations of {kernels} kernels differ from the inferred classes: {:#?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(20)]
    );
}

/// Every name `body` binds, nested bodies included, once per binding.
fn bindings(body: &HBody, out: &mut Vec<Name>) {
    for stm in &body.stms {
        match stm {
            HStm::Direct(s) => out.extend(s.pat.iter().map(|pe| pe.name.clone())),
            HStm::Launch { pat, .. } | HStm::Combine { pat, .. } => {
                out.extend(pat.iter().map(|pe| pe.name.clone()))
            }
            HStm::Loop {
                pat,
                params,
                while_cond,
                for_var,
                body,
            } => {
                out.extend(pat.iter().map(|pe| pe.name.clone()));
                out.extend(params.iter().map(|(p, _)| p.name.clone()));
                out.extend(for_var.iter().map(|(v, _)| v.clone()));
                if let Some(c) = while_cond {
                    bindings(c, out);
                }
                bindings(body, out);
            }
            HStm::If {
                pat,
                then_b,
                else_b,
                ..
            } => {
                out.extend(pat.iter().map(|pe| pe.name.clone()));
                bindings(then_b, out);
                bindings(else_b, out);
            }
            HStm::Alloc { name, .. } => out.push(name.clone()),
            HStm::Free { .. } => {}
        }
    }
}

#[test]
fn the_plan_binds_every_name_once_from_codegen_on() {
    // With `memplan` off the plan is codegen's own output; with it on,
    // the planner's too. Either way each reduction's partials have a
    // name of their own, not the name its combine binds.
    let mut combines = 0;
    for b in futhark_bench::all_benchmarks() {
        for memplan in [false, true] {
            let sched = Schedule {
                memplan,
                ..Schedule::default()
            };
            let c = Compiler::with_schedule(sched)
                .compile(&b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let mut names = Vec::new();
            bindings(&c.plan.body, &mut names);
            let mut seen = HashSet::new();
            let twice: Vec<&Name> = names.iter().filter(|n| !seen.insert(*n)).collect();
            assert!(
                twice.is_empty(),
                "{} (memplan {memplan}) binds {twice:?} more than once",
                b.name
            );
            combines += c.plan.folds.len();
        }
    }
    assert!(combines > 0, "no reduction's partials were bound");
}
