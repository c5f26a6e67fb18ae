//! In-place update (uniqueness) checking: the occurrence-trace judgments of
//! the paper's Figure 6 and the examples of Figure 7.
//!
//! Every expression yields an *occurrence trace* `⟨C, O⟩` of consumed and
//! observed variables (both closed under aliasing). Two traces sequence,
//! `⟨C₁,O₁⟩ ≫ ⟨C₂,O₂⟩`, only when `(O₂ ∪ C₂) ∩ C₁ = ∅` — nothing consumed
//! earlier may be touched later (O<small>CCURRENCE</small>-S<small>EQ</small>).
//!
//! SOAC operators are checked through the `Δ` judgment: a lambda may
//! consume *only its own parameters*; consumption of a parameter is
//! translated (via the `P` mapping) into consumption of the corresponding
//! input array by the SOAC as a whole, which preserves the parallel
//! semantics — distinct rows may be updated in parallel.

use crate::alias::{analyze_fun, Aliases};
use futhark_core::traverse::bound_in_body;
use futhark_core::{Body, Exp, FunDef, Lambda, LoopForm, Name, Program, Soac, SubExp};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A uniqueness violation.
#[derive(Debug, Clone, PartialEq)]
pub enum UniquenessError {
    /// A variable (or an alias of it) is used after being consumed.
    UseAfterConsume {
        /// A witness variable that was consumed and then touched.
        var: String,
    },
    /// A SOAC operator or loop body consumes a variable bound outside it
    /// that is not one of its parameters (Figure 7's `cs` example).
    ConsumedFree {
        /// The offending variable.
        var: String,
        /// Which construct.
        context: String,
    },
    /// A function consumes a parameter not declared unique, or a value
    /// aliasing one.
    ConsumedNonUnique {
        /// The non-unique parameter touched by consumption.
        var: String,
    },
    /// The same value is consumed twice in one expression (e.g. passed to
    /// two unique parameters of a call).
    DoubleConsume {
        /// The variable.
        var: String,
    },
    /// A unique function result aliases a non-unique parameter.
    UniqueReturnAliasesParam {
        /// The parameter aliased.
        var: String,
    },
    /// Consumption inside a `while` condition.
    ConsumeInWhileCondition,
}

impl fmt::Display for UniquenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniquenessError::UseAfterConsume { var } => {
                write!(f, "`{var}` is used after being consumed")
            }
            UniquenessError::ConsumedFree { var, context } => write!(
                f,
                "`{var}` is consumed inside a {context} but is not one of its parameters"
            ),
            UniquenessError::ConsumedNonUnique { var } => write!(
                f,
                "consumption touches parameter `{var}`, which is not declared unique (*)"
            ),
            UniquenessError::DoubleConsume { var } => {
                write!(f, "`{var}` is consumed twice in one expression")
            }
            UniquenessError::UniqueReturnAliasesParam { var } => {
                write!(f, "unique result aliases non-unique parameter `{var}`")
            }
            UniquenessError::ConsumeInWhileCondition => {
                write!(f, "a while-loop condition may not consume arrays")
            }
        }
    }
}

impl std::error::Error for UniquenessError {}

type CResult<T> = Result<T, UniquenessError>;

/// An occurrence trace `⟨C, O⟩`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Consumed variables (closed under aliasing).
    pub consumed: HashSet<Name>,
    /// Observed variables (closed under aliasing).
    pub observed: HashSet<Name>,
}

impl Trace {
    /// The empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// A pure observation.
    pub fn observing(observed: HashSet<Name>) -> Self {
        Trace {
            consumed: HashSet::new(),
            observed,
        }
    }

    /// The sequencing judgment `self ≫ then`: derivable iff nothing
    /// consumed in `self` is touched in `then`.
    ///
    /// # Errors
    ///
    /// Returns [`UniquenessError::UseAfterConsume`] naming a witness.
    pub fn seq(mut self, then: Trace) -> CResult<Trace> {
        if let Some(w) = then
            .observed
            .iter()
            .chain(then.consumed.iter())
            .find(|v| self.consumed.contains(v))
        {
            return Err(UniquenessError::UseAfterConsume { var: w.to_string() });
        }
        self.consumed.extend(then.consumed);
        self.observed.extend(then.observed);
        Ok(self)
    }

    /// Parallel combination (if-branches): both traces start from the same
    /// point, so no sequencing constraint applies between them.
    pub fn union(mut self, other: Trace) -> Trace {
        self.consumed.extend(other.consumed);
        self.observed.extend(other.observed);
        self
    }
}

/// Checks in-place-update safety for a whole program.
///
/// # Errors
///
/// Returns the first [`UniquenessError`].
pub fn check_program_consumption(prog: &Program) -> CResult<()> {
    for f in &prog.functions {
        check_fun(prog, f)?;
    }
    Ok(())
}

/// Checks one function: its body trace must only consume unique parameters
/// (or fresh local values), and unique results must not alias non-unique
/// parameters.
pub fn check_fun(prog: &Program, f: &FunDef) -> CResult<()> {
    let aliases = analyze_fun(prog, f);
    let mut ck = ConsumeCheck { prog, aliases };
    let trace = ck.body(&f.body)?;
    // Consumption may only touch unique parameters.
    for p in &f.params {
        if !p.unique && trace.consumed.contains(&p.name) {
            return Err(UniquenessError::ConsumedNonUnique {
                var: p.name.to_string(),
            });
        }
    }
    // Unique results must not alias non-unique parameters.
    for (se, d) in f.body.result.iter().zip(&f.ret) {
        if d.unique {
            if let SubExp::Var(v) = se {
                let als = ck.aliases.observe(v);
                for p in &f.params {
                    if !p.unique && als.contains(&p.name) {
                        return Err(UniquenessError::UniqueReturnAliasesParam {
                            var: p.name.to_string(),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

struct ConsumeCheck<'a> {
    prog: &'a Program,
    aliases: Aliases,
}

impl<'a> ConsumeCheck<'a> {
    fn obs_subexp(&self, se: &SubExp) -> HashSet<Name> {
        match se {
            SubExp::Const(_) => HashSet::new(),
            SubExp::Var(v) => self.aliases.observe(v),
        }
    }

    fn obs_many<'b>(&self, it: impl Iterator<Item = &'b SubExp>) -> HashSet<Name> {
        let mut s = HashSet::new();
        for se in it {
            s.extend(self.obs_subexp(se));
        }
        s
    }

    fn obs_vars<'b>(&self, it: impl Iterator<Item = &'b Name>) -> HashSet<Name> {
        let mut s = HashSet::new();
        for v in it {
            s.extend(self.aliases.observe(v));
        }
        s
    }

    fn body(&mut self, b: &Body) -> CResult<Trace> {
        let mut trace = Trace::new();
        for stm in &b.stms {
            let t = self.exp(&stm.exp)?;
            trace = trace.seq(t)?;
        }
        let result_obs = self.obs_many(b.result.iter());
        trace = trace.seq(Trace::observing(result_obs))?;
        Ok(trace)
    }

    fn exp(&mut self, e: &Exp) -> CResult<Trace> {
        match e {
            Exp::SubExp(se) => Ok(Trace::observing(self.obs_subexp(se))),
            Exp::UnOp(_, a) | Exp::Convert(_, a) => Ok(Trace::observing(self.obs_subexp(a))),
            Exp::BinOp(_, a, b) | Exp::Cmp(_, a, b) => {
                let mut o = self.obs_subexp(a);
                o.extend(self.obs_subexp(b));
                Ok(Trace::observing(o))
            }
            Exp::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                // SAFE-IF: cond sequences before each branch; branches merge.
                let ct = Trace::observing(self.obs_subexp(cond));
                let tt = self.body(then_body)?;
                let et = self.body(else_body)?;
                let t1 = ct.clone().seq(tt)?;
                let t2 = ct.seq(et)?;
                Ok(t1.union(t2))
            }
            Exp::Apply { func, args } => {
                let f = self.prog.function(func).expect("typechecked call");
                let mut consumed = HashSet::new();
                let mut observed = HashSet::new();
                for (a, p) in args.iter().zip(&f.params) {
                    if p.unique {
                        if let SubExp::Var(v) = a {
                            let als = self.aliases.observe(v);
                            if let Some(w) = als.intersection(&consumed).next() {
                                return Err(UniquenessError::DoubleConsume { var: w.to_string() });
                            }
                            consumed.extend(als);
                        }
                    } else {
                        observed.extend(self.obs_subexp(a));
                    }
                }
                if let Some(w) = consumed.intersection(&observed).next() {
                    return Err(UniquenessError::DoubleConsume { var: w.to_string() });
                }
                Ok(Trace { consumed, observed })
            }
            Exp::Index { array, indices } => {
                let mut o = self.aliases.observe(array);
                o.extend(self.obs_many(indices.iter()));
                Ok(Trace::observing(o))
            }
            Exp::Update {
                array,
                indices,
                value,
            } => {
                // SAFE-UPDATE: consume aliases(va), observe the value.
                let consumed = self.aliases.observe(array);
                let mut observed = self.obs_subexp(value);
                observed.extend(self.obs_many(indices.iter()));
                Ok(Trace { consumed, observed })
            }
            Exp::Iota(n) => Ok(Trace::observing(self.obs_subexp(n))),
            Exp::Replicate(n, v) => {
                let mut o = self.obs_subexp(n);
                o.extend(self.obs_subexp(v));
                Ok(Trace::observing(o))
            }
            Exp::Rearrange { array, .. } => Ok(Trace::observing(self.aliases.observe(array))),
            Exp::Reshape { shape, array } => {
                let mut o = self.aliases.observe(array);
                o.extend(self.obs_many(shape.iter()));
                Ok(Trace::observing(o))
            }
            Exp::Concat { arrays } => Ok(Trace::observing(self.obs_vars(arrays.iter()))),
            Exp::Copy(a) => Ok(Trace::observing(self.aliases.observe(a))),
            Exp::Loop { params, form, body } => {
                // The loop body may consume its merge parameters (in-place
                // accumulation, Figure 4a); consumption maps back to the
                // initialisers. Consuming any other outer variable would
                // consume it once per iteration — rejected.
                let mut init_obs = HashSet::new();
                for (_, init) in params {
                    init_obs.extend(self.obs_subexp(init));
                }
                let mut trace = Trace::observing(init_obs);
                if let LoopForm::While(cond) = form {
                    let ct = self.body(cond)?;
                    if !ct.consumed.is_empty() {
                        return Err(UniquenessError::ConsumeInWhileCondition);
                    }
                    trace = trace.seq(ct)?;
                }
                if let LoopForm::For { bound, .. } = form {
                    trace = trace.seq(Trace::observing(self.obs_subexp(bound)))?;
                }
                let bt = self.body(body)?;
                let local = bound_in_body(body);
                let mut pmap: HashMap<Name, HashSet<Name>> = HashMap::new();
                for (p, init) in params {
                    pmap.insert(p.name.clone(), self.obs_subexp(init));
                }
                let mapped = self.map_through_params(bt, &pmap, &local, "loop body")?;
                trace.seq(mapped)
            }
            Exp::Soac(soac) => self.soac(soac),
        }
    }

    /// The `Δ` judgment (Figure 6, bottom): translates a nested trace
    /// through a parameter mapping `P`. Observed parameters become
    /// observations of `P[v]`; consumed parameters become consumption of
    /// `P[v]`; consumption of anything else bound outside is an error;
    /// names local to the construct are dropped.
    fn map_through_params(
        &self,
        t: Trace,
        pmap: &HashMap<Name, HashSet<Name>>,
        local: &HashSet<Name>,
        context: &str,
    ) -> CResult<Trace> {
        // Names in the image of `P` are the alias-closures of the
        // parameters themselves: consumption of a parameter is alias-closed
        // and already carries them, so they are not "free" consumption.
        let image: HashSet<&Name> = pmap.values().flatten().collect();
        let mut out = Trace::new();
        for v in t.observed {
            if let Some(s) = pmap.get(&v) {
                out.observed.extend(s.iter().cloned());
            } else if !local.contains(&v) {
                out.observed.insert(v);
            }
        }
        for v in t.consumed {
            if let Some(s) = pmap.get(&v) {
                out.consumed.extend(s.iter().cloned());
            } else if image.contains(&v) {
                out.consumed.insert(v);
            } else if !local.contains(&v) {
                return Err(UniquenessError::ConsumedFree {
                    var: v.to_string(),
                    context: context.to_string(),
                });
            }
        }
        Ok(out)
    }

    /// Checks a SOAC operator lambda: its trace maps through `P`, where
    /// parameter `i` corresponds to `inputs[i]` (or, for operators that may
    /// not consume at all, `P` is empty and any consumption of a parameter
    /// is an error).
    fn operator_trace(
        &mut self,
        lam: &Lambda,
        inputs: &[Option<&SubExp>],
        context: &str,
    ) -> CResult<Trace> {
        let t = self.body(&lam.body)?;
        let mut local = bound_in_body(&lam.body);
        let mut pmap: HashMap<Name, HashSet<Name>> = HashMap::new();
        for (p, input) in lam.params.iter().zip(inputs) {
            match input {
                Some(se) => {
                    pmap.insert(p.name.clone(), self.obs_subexp(se));
                }
                None => {
                    // Parameter with no consumable counterpart (e.g. a
                    // reduce operand): it is local and non-consumable.
                    local.insert(p.name.clone());
                    if t.consumed.contains(&p.name) {
                        return Err(UniquenessError::ConsumedFree {
                            var: p.name.to_string(),
                            context: context.to_string(),
                        });
                    }
                }
            }
        }
        self.map_through_params(t, &pmap, &local, context)
    }

    fn soac(&mut self, soac: &Soac) -> CResult<Trace> {
        let var_se = |v: &Name| SubExp::Var(v.clone());
        match soac {
            Soac::Map { width, lam, arrs } => {
                let ses: Vec<SubExp> = arrs.iter().map(var_se).collect();
                let inputs: Vec<Option<&SubExp>> = ses.iter().map(Some).collect();
                let t = self.operator_trace(lam, &inputs, "map operator")?;
                let mut obs = self.obs_subexp(width);
                obs.extend(self.obs_vars(arrs.iter()));
                // Inputs are observed unless consumed through a parameter.
                let obs = obs.difference(&t.consumed).cloned().collect();
                Ok(Trace {
                    consumed: t.consumed,
                    observed: t.observed.union(&obs).cloned().collect(),
                })
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
                let inputs: Vec<Option<&SubExp>> = lam.params.iter().map(|_| None).collect();
                let t = self.operator_trace(lam, &inputs, "reduction operator")?;
                let mut obs = self.obs_subexp(width);
                obs.extend(self.obs_many(neutral.iter()));
                obs.extend(self.obs_vars(arrs.iter()));
                Ok(Trace {
                    consumed: t.consumed,
                    observed: t.observed.union(&obs).cloned().collect(),
                })
            }
            Soac::Redomap {
                width,
                red_lam,
                map_lam,
                neutral,
                arrs,
                ..
            } => {
                let ses: Vec<SubExp> = arrs.iter().map(var_se).collect();
                let minputs: Vec<Option<&SubExp>> = ses.iter().map(Some).collect();
                let mt = self.operator_trace(map_lam, &minputs, "redomap map operator")?;
                let rinputs: Vec<Option<&SubExp>> = red_lam.params.iter().map(|_| None).collect();
                let rt = self.operator_trace(red_lam, &rinputs, "redomap operator")?;
                let mut obs = self.obs_subexp(width);
                obs.extend(self.obs_many(neutral.iter()));
                obs.extend(self.obs_vars(arrs.iter()));
                let t = mt.union(rt);
                let obs = obs.difference(&t.consumed).cloned().collect::<HashSet<_>>();
                Ok(Trace {
                    consumed: t.consumed,
                    observed: t.observed.union(&obs).cloned().collect(),
                })
            }
            Soac::StreamMap { width, lam, arrs } => {
                let ses: Vec<SubExp> = arrs.iter().map(var_se).collect();
                let mut inputs: Vec<Option<&SubExp>> = vec![None]; // chunk size
                inputs.extend(ses.iter().map(Some));
                let t = self.operator_trace(lam, &inputs, "stream_map operator")?;
                let mut obs = self.obs_subexp(width);
                obs.extend(self.obs_vars(arrs.iter()));
                let obs = obs.difference(&t.consumed).cloned().collect::<HashSet<_>>();
                Ok(Trace {
                    consumed: t.consumed,
                    observed: t.observed.union(&obs).cloned().collect(),
                })
            }
            Soac::StreamRed {
                width,
                red_lam,
                fold_lam,
                accs,
                arrs,
            } => {
                let ses: Vec<SubExp> = arrs.iter().map(var_se).collect();
                let mut inputs: Vec<Option<&SubExp>> = vec![None]; // chunk size
                                                                   // Accumulator parameters: consuming them consumes the
                                                                   // initial accumulator values (Figure 4c's `acc: *[k]int`).
                inputs.extend(accs.iter().map(Some));
                inputs.extend(ses.iter().map(Some));
                let ft = self.operator_trace(fold_lam, &inputs, "stream_red fold")?;
                let rinputs: Vec<Option<&SubExp>> = red_lam.params.iter().map(|_| None).collect();
                let rt = self.operator_trace(red_lam, &rinputs, "stream_red operator")?;
                let mut obs = self.obs_subexp(width);
                obs.extend(self.obs_many(accs.iter()));
                obs.extend(self.obs_vars(arrs.iter()));
                let t = ft.union(rt);
                let obs = obs.difference(&t.consumed).cloned().collect::<HashSet<_>>();
                Ok(Trace {
                    consumed: t.consumed,
                    observed: t.observed.union(&obs).cloned().collect(),
                })
            }
            Soac::StreamSeq {
                width,
                lam,
                accs,
                arrs,
            } => {
                let ses: Vec<SubExp> = arrs.iter().map(var_se).collect();
                let mut inputs: Vec<Option<&SubExp>> = vec![None];
                inputs.extend(accs.iter().map(Some));
                inputs.extend(ses.iter().map(Some));
                let t = self.operator_trace(lam, &inputs, "stream_seq fold")?;
                let mut obs = self.obs_subexp(width);
                obs.extend(self.obs_many(accs.iter()));
                obs.extend(self.obs_vars(arrs.iter()));
                let obs = obs.difference(&t.consumed).cloned().collect::<HashSet<_>>();
                Ok(Trace {
                    consumed: t.consumed,
                    observed: t.observed.union(&obs).cloned().collect(),
                })
            }
            Soac::Scatter {
                width,
                dest,
                indices,
                values,
            } => {
                let consumed = self.aliases.observe(dest);
                let mut observed = self.obs_subexp(width);
                observed.extend(self.aliases.observe(indices));
                observed.extend(self.aliases.observe(values));
                if let Some(w) = consumed.intersection(&observed).next() {
                    return Err(UniquenessError::DoubleConsume { var: w.to_string() });
                }
                Ok(Trace { consumed, observed })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_program;
    use futhark_frontend::parse_program;

    fn check(src: &str) -> Result<(), crate::CheckError> {
        let (prog, _) = parse_program(src).unwrap();
        check_program(&prog)
    }

    #[test]
    fn modify_example_from_section_3_1() {
        // The paper's `modify` function.
        check(
            "fun modify (n: i64) (a: *[n]i64) (i: i64) (x: [n]i64): *[n]i64 =\n\
             let ai = a[i]\n\
             let xi = x[i]\n\
             let r = a with [i] <- ai + xi\n\
             in r",
        )
        .unwrap();
    }

    #[test]
    fn use_after_consume_is_rejected() {
        let e = check(
            "fun main (n: i64) (a: *[n]i64): i64 =\n\
             let b = a with [0] <- 1\n\
             let v = a[0]\n\
             in v",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn alias_use_after_consume_is_rejected() {
        // `t` aliases `a`; consuming `a` forbids later use of `t`.
        let e = check(
            "fun main (n: i64) (m: i64) (a: *[n][m]i64): [m][n]i64 =\n\
             let t = transpose a\n\
             let z = replicate m 0\n\
             let b = a with [0] <- z\n\
             in t",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn consuming_nonunique_param_is_rejected() {
        let e = check(
            "fun main (n: i64) (a: [n]i64): [n]i64 =\n\
             let b = a with [0] <- 1\n\
             in b",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::ConsumedNonUnique { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn figure7_map_consuming_its_parameter_is_ok() {
        // "This one is OK and considered to consume 'as'."
        check(
            "fun main (n: i64) (m: i64) (as1: *[n][m]i64): [n][m]i64 =\n\
             let bs = map (\\(a: [m]i64) -> a with [0] <- 2) as1\n\
             in bs",
        )
        .unwrap();
    }

    #[test]
    fn figure7_map_consuming_free_variable_is_rejected() {
        // "This one is NOT safe, since d is not a formal parameter."
        let e = check(
            "fun main (n: i64) (m: i64): [n][m]i64 =\n\
             let d = replicate m 0\n\
             let is = iota n\n\
             let cs = map (\\(i: i64) -> d with [i] <- 2) is\n\
             in cs",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::ConsumedFree { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn map_consumption_propagates_to_input() {
        // After the map consumes as1, as1 may not be used again.
        let e = check(
            "fun main (n: i64) (m: i64) (as1: *[n][m]i64): [m]i64 =\n\
             let bs = map (\\(a: [m]i64) -> a with [0] <- 2) as1\n\
             let row = as1[0]\n\
             in row",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn loop_accumulator_update_is_ok() {
        // Figure 4a.
        check(
            "fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =\n\
             let zeros = replicate k 0\n\
             let counts = loop (c = zeros) for i < n do (\n\
               let cluster = membership[i]\n\
               let old = c[cluster]\n\
               in c with [cluster] <- old + 1)\n\
             in counts",
        )
        .unwrap();
    }

    #[test]
    fn loop_consuming_free_array_is_rejected() {
        let e = check(
            "fun main (n: i64) (k: i64): [k]i64 =\n\
             let d = replicate k 0\n\
             let r = loop (acc = 0) for i < n do (\n\
               let d2 = d with [0] <- i\n\
               let v = d2[0]\n\
               in acc + v)\n\
             let out = replicate k r\n\
             in out",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::ConsumedFree { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn loop_initialiser_unusable_after_consuming_loop() {
        let e = check(
            "fun main (n: i64) (k: i64) (membership: [n]i64): ([k]i64, [k]i64) =\n\
             let zeros = replicate k 0\n\
             let counts = loop (c = zeros) for i < n do (\n\
               let cluster = membership[i]\n\
               let old = c[cluster]\n\
               in c with [cluster] <- old + 1)\n\
             in (counts, zeros)",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn figure_4c_stream_red_accumulator_is_ok() {
        check(
            "fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =\n\
             let zeros = replicate k 0\n\
             let counts = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)\n\
               (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->\n\
                 loop (a = acc) for i < chunk do (\n\
                   let c = cs[i]\n\
                   let old = a[c]\n\
                   in a with [c] <- old + 1))\n\
               zeros membership\n\
             in counts",
        )
        .unwrap();
    }

    #[test]
    fn calling_unique_function_consumes_argument() {
        let e = check(
            "fun modify (n: i64) (a: *[n]i64): *[n]i64 =\n\
             let r = a with [0] <- 1\n\
             in r\n\
             fun main (n: i64) (xs: *[n]i64): i64 =\n\
             let b = modify(n, xs)\n\
             let v = xs[0]\n\
             in v",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn double_consume_in_one_call_is_rejected() {
        let e = check(
            "fun two (n: i64) (a: *[n]i64) (b: *[n]i64): i64 =\n\
             let x = a with [0] <- 1\n\
             let y = b with [0] <- 2\n\
             in 0\n\
             fun main (n: i64) (xs: *[n]i64): i64 =\n\
             let r = two(n, xs, xs)\n\
             in r",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::DoubleConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn unique_return_may_not_alias_nonunique_param() {
        let e = check(
            "fun main (n: i64) (xs: [n]i64): *[n]i64 =\n\
             in xs",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UniqueReturnAliasesParam { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn copy_restores_consumability() {
        check(
            "fun main (n: i64) (xs: [n]i64): *[n]i64 =\n\
             let c = copy xs\n\
             let r = c with [0] <- 5\n\
             in r",
        )
        .unwrap();
    }

    #[test]
    fn branches_may_consume_independently() {
        // Both branches consume `a`; that is fine (only one path runs).
        check(
            "fun main (n: i64) (a: *[n]i64) (flag: bool): *[n]i64 =\n\
             let r = if flag then a with [0] <- 1 else a with [0] <- 2\n\
             in r",
        )
        .unwrap();
    }

    #[test]
    fn consume_then_branch_use_is_rejected() {
        let e = check(
            "fun main (n: i64) (a: *[n]i64) (flag: bool): i64 =\n\
             let b = a with [0] <- 1\n\
             let v = if flag then a[0] else 0\n\
             in v",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }

    #[test]
    fn scatter_consumes_destination() {
        let e = check(
            "fun main (k: i64) (n: i64) (dest: *[k]i64) (is: [n]i64) (vs: [n]i64): i64 =\n\
             let r = scatter dest is vs\n\
             let v = dest[0]\n\
             in v",
        )
        .unwrap_err();
        assert!(
            matches!(
                e,
                crate::CheckError::Uniqueness(UniquenessError::UseAfterConsume { .. })
            ),
            "{e}"
        );
    }
}
