//! The memory-planning pass: a pipeline stage between codegen and
//! execution that turns the paper's in-place story (Section 4: uniqueness
//! types exist so consumption can *update* instead of *copy*) into
//! explicit decisions over the host IR.
//!
//! Given a [`GpuPlan`], the pass
//!
//! 1. builds a liveness analysis over the whole [`HBody`] tree (loop and
//!    branch scopes included), grouping names into alias classes;
//! 2. **elides copies**: a host-level `copy` becomes a plain rebind —
//!    sound here because nothing in the executor mutates a buffer in
//!    place except the guarded steal/hoist paths this pass itself
//!    introduces;
//! 3. **marks steals** ([`crate::plan::OutSpec::steal`]): an `init_from` output may
//!    take the source's buffer when the source's alias class is dead
//!    afterwards ([`StealKind::Always`]), or rotate a loop-carried merge
//!    buffer from iteration 2 on ([`StealKind::LoopRotate`] — the
//!    double-buffer swap);
//! 4. **hoists loop-invariant allocations** out of loop bodies: a fresh
//!    [`HStm::Alloc`] before the loop, [`crate::plan::OutSpec::write_into`] at the
//!    launch, a [`HStm::Free`] after;
//! 5. **inserts frees** at each alias class's last use, so the executor's
//!    capacity-modelled [`crate::DeviceMemory`] can recycle dead buffers.
//!
//! The pass is deliberately conservative: anything it cannot prove safe
//! (cross-branch aliasing, non-SSA rebinding, escaping results) it leaves
//! alone, and every planner verdict is re-checked by cheap runtime guards
//! in the executor, so a wrong-but-marked site degrades to a copy, never
//! to wrong values.

use crate::plan::{ArgSpec, GpuPlan, HBody, HStm, LaunchKind, StealKind};
use futhark_core::traverse::free_in_exp;
use futhark_core::{Exp, Name, NameSource, ScalarType, SubExp, Type};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A program point: the chain of `(scope, statement index)` pairs from the
/// root body down to the statement. Scopes get unique pre-order ids, so a
/// chain pinpoints one syntactic site; the virtual index `stms.len()`
/// stands for a body's result position.
type Site = Vec<(usize, usize)>;

/// What kind of body a scope is — drives the "may execute after" order
/// and the loop-related rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Root,
    /// A while-loop's condition body.
    LoopCond,
    /// A loop body (for or while).
    LoopBody,
    /// The two branches of an `If` (mutually exclusive).
    IfThen,
    IfElse,
}

#[derive(Debug)]
struct ScopeInfo {
    kind: ScopeKind,
    /// Site of the owning `Loop`/`If` statement (empty for the root).
    owner: Site,
    /// Number of statements (so `len` is the result position).
    len: usize,
}

/// One `init_from` output of a launch, as the steal/hoist phases see it.
struct LaunchOut {
    site: Site,
    out_idx: usize,
    pat_name: Name,
    init_from: Option<Name>,
    elem: ScalarType,
    shape: Vec<SubExp>,
    is_stream: bool,
}

/// Union-find over names, with deterministic roots (the smallest name of
/// a class, by `Name`'s total order).
#[derive(Default)]
struct Aliases {
    parent: HashMap<Name, Name>,
}

impl Aliases {
    fn find(&mut self, n: &Name) -> Name {
        let mut root = n.clone();
        while let Some(p) = self.parent.get(&root) {
            if *p == root {
                break;
            }
            root = p.clone();
        }
        // Path compression.
        let mut cur = n.clone();
        while let Some(p) = self.parent.get(&cur).cloned() {
            if p == root {
                break;
            }
            self.parent.insert(cur, root.clone());
            cur = p;
        }
        root
    }

    fn union(&mut self, a: &Name, b: &Name) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
        }
    }
}

/// The liveness analysis: definition and use sites per name, alias
/// classes, and per-scope structure.
#[derive(Default)]
struct Analysis {
    scopes: Vec<ScopeInfo>,
    defs: HashMap<Name, Vec<Site>>,
    uses: HashMap<Name, Vec<Site>>,
    /// Names with array type at their definition.
    arrays: HashSet<Name>,
    /// Loop merge-parameter names (excluded from `Free` lists: their env
    /// binding may be stale after rotation).
    param_names: HashSet<Name>,
    aliases: Aliases,
    /// Top-level `dst = copy src` statements, in program order.
    copies: Vec<(Site, Name, Name)>,
    /// `init_from` outputs of launches, in program order.
    launch_outs: Vec<LaunchOut>,
    /// Loop-body scope id → merge parameter names.
    loop_params: HashMap<usize, Vec<Name>>,
}

impl Analysis {
    fn def(&mut self, n: &Name, ty: &Type, site: &Site) {
        self.defs.entry(n.clone()).or_default().push(site.clone());
        if matches!(ty, Type::Array(_)) {
            self.arrays.insert(n.clone());
        }
    }

    fn use_at(&mut self, n: &Name, site: &Site) {
        self.uses.entry(n.clone()).or_default().push(site.clone());
    }

    fn use_subexp(&mut self, se: &SubExp, site: &Site) {
        if let Some(v) = se.as_var() {
            self.use_at(v, site);
        }
    }

    fn new_scope(&mut self, kind: ScopeKind, owner: Site) -> usize {
        self.scopes.push(ScopeInfo {
            kind,
            owner,
            len: 0,
        });
        self.scopes.len() - 1
    }

    fn walk_body(&mut self, body: &HBody, scope: usize, prefix: &Site) {
        self.scopes[scope].len = body.stms.len();
        for (i, stm) in body.stms.iter().enumerate() {
            let mut site = prefix.clone();
            site.push((scope, i));
            self.walk_stm(stm, &site);
        }
        let mut end = prefix.clone();
        end.push((scope, body.stms.len()));
        for r in &body.result {
            self.use_subexp(r, &end);
        }
    }

    fn walk_stm(&mut self, stm: &HStm, site: &Site) {
        match stm {
            HStm::Direct(s) => {
                for v in free_in_exp(&s.exp) {
                    self.use_at(&v, site);
                }
                for pe in &s.pat {
                    self.def(&pe.name, &pe.ty, site);
                }
                // Alias edges: expressions whose result may share the
                // source's buffer in the executor.
                match &s.exp {
                    Exp::SubExp(SubExp::Var(v)) => self.aliases.union(&s.pat[0].name, v),
                    Exp::Rearrange { array, .. } | Exp::Reshape { array, .. } => {
                        self.aliases.union(&s.pat[0].name, array)
                    }
                    Exp::Copy(src) => {
                        if matches!(s.pat[0].ty, Type::Array(_)) {
                            self.copies
                                .push((site.clone(), src.clone(), s.pat[0].name.clone()));
                        }
                    }
                    _ => {}
                }
            }
            HStm::Launch { pat, spec } => {
                for w in &spec.widths {
                    self.use_subexp(w, site);
                }
                if let LaunchKind::Stream { total } = &spec.kind {
                    self.use_subexp(total, site);
                }
                for a in &spec.args {
                    match a {
                        ArgSpec::ScalarVar(v) => self.use_at(v, site),
                        ArgSpec::ArrayIn { name, .. } => self.use_at(name, site),
                        _ => {}
                    }
                }
                for (j, o) in spec.outs.iter().enumerate() {
                    for s in &o.shape {
                        self.use_subexp(s, site);
                    }
                    if let Some(src) = &o.init_from {
                        self.use_at(src, site);
                    }
                    self.launch_outs.push(LaunchOut {
                        site: site.clone(),
                        out_idx: j,
                        pat_name: pat[j].name.clone(),
                        init_from: o.init_from.clone(),
                        elem: o.elem,
                        shape: o.shape.clone(),
                        is_stream: matches!(spec.kind, LaunchKind::Stream { .. }),
                    });
                }
                for pe in pat {
                    self.def(&pe.name, &pe.ty, site);
                }
            }
            HStm::Combine {
                pat,
                partials,
                args,
                ..
            } => {
                for p in partials {
                    self.use_at(p, site);
                }
                for a in args {
                    match a {
                        ArgSpec::ScalarVar(v) => self.use_at(v, site),
                        ArgSpec::ArrayIn { name, .. } => self.use_at(name, site),
                        _ => {}
                    }
                }
                for pe in pat {
                    self.def(&pe.name, &pe.ty, site);
                }
            }
            HStm::Loop {
                pat,
                params,
                while_cond,
                for_var,
                body,
            } => {
                for (_, init) in params {
                    self.use_subexp(init, site);
                }
                if let Some((var, bound)) = for_var {
                    self.use_subexp(bound, site);
                    self.def(var, &Type::Scalar(ScalarType::I64), site);
                }
                for pe in pat {
                    self.def(&pe.name, &pe.ty, site);
                }
                for (p, init) in params {
                    self.def(&p.name, &p.ty, site);
                    self.param_names.insert(p.name.clone());
                    if let Some(v) = init.as_var() {
                        self.aliases.union(&p.name, v);
                    }
                }
                for (pe, (p, _)) in pat.iter().zip(params) {
                    self.aliases.union(&pe.name, &p.name);
                }
                if let Some(cond) = while_cond {
                    let cs = self.new_scope(ScopeKind::LoopCond, site.clone());
                    self.walk_body(cond, cs, site);
                }
                let bs = self.new_scope(ScopeKind::LoopBody, site.clone());
                self.loop_params
                    .insert(bs, params.iter().map(|(p, _)| p.name.clone()).collect());
                self.walk_body(body, bs, site);
                // The back edge: each body result feeds the matching merge
                // parameter of the next iteration.
                for ((p, _), r) in params.iter().zip(&body.result) {
                    if let Some(v) = r.as_var() {
                        self.aliases.union(&p.name, v);
                    }
                }
            }
            HStm::If {
                pat,
                cond,
                then_b,
                else_b,
            } => {
                self.use_subexp(cond, site);
                for pe in pat {
                    self.def(&pe.name, &pe.ty, site);
                }
                let ts = self.new_scope(ScopeKind::IfThen, site.clone());
                self.walk_body(then_b, ts, site);
                let es = self.new_scope(ScopeKind::IfElse, site.clone());
                self.walk_body(else_b, es, site);
                for (b, pe) in [then_b, else_b].into_iter().zip([pat, pat]) {
                    for (p, r) in pe.iter().zip(&b.result) {
                        if let Some(v) = r.as_var() {
                            self.aliases.union(&p.name, v);
                        }
                    }
                }
            }
            // Planner output; never present in input plans.
            HStm::Free { .. } | HStm::Alloc { .. } => {}
        }
    }

    /// Whether a statement at `a` may execute after one at `b` (within one
    /// activation of their common scope). Sibling `If` branches are
    /// mutually exclusive, hence never "after"; any other scope divergence
    /// (e.g. a while-condition vs. the body, which alternate) is
    /// conservatively "after".
    fn may_execute_after(&self, a: &Site, b: &Site) -> bool {
        for k in 0..a.len().min(b.len()) {
            let (sa, ia) = a[k];
            let (sb, ib) = b[k];
            if sa != sb {
                let (x, y) = (&self.scopes[sa], &self.scopes[sb]);
                let exclusive = x.owner == y.owner
                    && matches!(x.kind, ScopeKind::IfThen | ScopeKind::IfElse)
                    && matches!(y.kind, ScopeKind::IfThen | ScopeKind::IfElse);
                return !exclusive;
            }
            if ia != ib {
                return ia > ib;
            }
        }
        false
    }

    /// The innermost enclosing loop scope (body or condition) of a site,
    /// if any.
    fn innermost_loop_scope(&self, site: &Site) -> Option<usize> {
        site.iter().rev().map(|&(s, _)| s).find(|&s| {
            matches!(
                self.scopes[s].kind,
                ScopeKind::LoopBody | ScopeKind::LoopCond
            )
        })
    }

    /// All names of the alias class rooted at `root` (deterministic
    /// order).
    fn class_members(&mut self, root: &Name) -> BTreeSet<Name> {
        let names: Vec<Name> = self
            .defs
            .keys()
            .chain(self.uses.keys())
            .cloned()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        let mut out = BTreeSet::new();
        for n in names {
            if self.aliases.find(&n) == *root {
                out.insert(n);
            }
        }
        out
    }

    fn class_defs(&mut self, root: &Name) -> Vec<(Name, Site)> {
        let mut out = Vec::new();
        for m in self.class_members(root) {
            for d in self.defs.get(&m).into_iter().flatten() {
                out.push((m.clone(), d.clone()));
            }
        }
        out
    }

    fn class_uses(&mut self, root: &Name) -> Vec<Site> {
        let mut out = Vec::new();
        for m in self.class_members(root) {
            out.extend(self.uses.get(&m).into_iter().flatten().cloned());
        }
        out
    }

    /// As [`Analysis::class_uses`], but keeping which member is used at
    /// each site.
    fn class_uses_named(&mut self, root: &Name) -> Vec<(Name, Site)> {
        let mut out = Vec::new();
        for m in self.class_members(root) {
            for u in self.uses.get(&m).into_iter().flatten() {
                out.push((m.clone(), u.clone()));
            }
        }
        out
    }
}

/// One `Alloc` statement the rewrite inserts: name, element type, shape.
type AllocSpec = (Name, ScalarType, Vec<SubExp>);

/// Everything the rewrite walk applies, keyed by `(scope, stm index)` of
/// the *original* plan.
#[derive(Default)]
struct Edits {
    /// Copy statements to rewrite into plain rebinds: site → source name.
    elide: HashMap<(usize, usize), Name>,
    /// Steal verdicts: (scope, idx, out index) → kind.
    steal: HashMap<(usize, usize, usize), StealKind>,
    /// Hoisted destinations: (scope, idx, out index) → hoisted name.
    write_into: HashMap<(usize, usize, usize), Name>,
    /// `Alloc` statements to insert before a statement.
    alloc_before: BTreeMap<(usize, usize), Vec<AllocSpec>>,
    /// `Free` statements to insert after a statement.
    free_after: BTreeMap<(usize, usize), BTreeSet<Name>>,
}

/// Codegen's reduce idiom is deliberately non-SSA: a `Launch` writes
/// per-group partials into a name that the directly following `Combine`
/// shadows with the combined scalar. Renames the partials binding (its
/// definition in the launch pattern and the `Combine`'s reference) so
/// the planner sees an SSA plan; any other rebinding still bails.
fn normalize_partials(body: &mut HBody, ns: &mut NameSource) {
    for stm in &mut body.stms {
        match stm {
            HStm::Loop {
                while_cond, body, ..
            } => {
                if let Some(c) = while_cond {
                    normalize_partials(c, ns);
                }
                normalize_partials(body, ns);
            }
            HStm::If { then_b, else_b, .. } => {
                normalize_partials(then_b, ns);
                normalize_partials(else_b, ns);
            }
            _ => {}
        }
    }
    for j in 1..body.stms.len() {
        let (head, tail) = body.stms.split_at_mut(j);
        let HStm::Combine {
            pat,
            partials,
            args,
            ..
        } = &mut tail[0]
        else {
            continue;
        };
        let HStm::Launch { pat: lpat, .. } = &mut head[j - 1] else {
            continue;
        };
        for le in lpat.iter_mut() {
            if !pat.iter().any(|pe| pe.name == le.name) {
                continue;
            }
            let fresh = ns.fresh("part");
            let arrays = args.iter_mut().filter_map(|a| match a {
                ArgSpec::ArrayIn { name, .. } => Some(name),
                _ => None,
            });
            for p in partials.iter_mut().chain(arrays) {
                if *p == le.name {
                    *p = fresh.clone();
                }
            }
            le.name = fresh;
        }
    }
}

/// Runs the memory planner over a plan, in place. Idempotent: a plan that
/// was already planned is left untouched.
pub fn plan_memory(plan: &mut GpuPlan, ns: &mut NameSource) {
    if plan.mem_planned {
        return;
    }
    normalize_partials(&mut plan.body, ns);
    let mut a = Analysis::default();
    let root = a.new_scope(ScopeKind::Root, Vec::new());
    // Entry parameters are defined "before statement 0" of the root.
    let entry: Site = vec![(root, 0)];
    for p in &plan.params {
        a.def(&p.name, &p.ty, &entry);
    }
    a.walk_body(&plan.body, root, &Vec::new());

    // Non-SSA rebinding would make every class verdict unreliable: keep
    // only the runtime-guarded rotation and bail from the rest.
    let ssa = a.defs.values().all(|d| d.len() <= 1);
    futhark_trace::event_n("memplan.bailed", u64::from(!ssa));

    let mut edits = Edits::default();
    if ssa {
        elide_copies(&mut a, &mut edits);
        mark_steals(&mut a, &mut edits);
        hoist_allocs(&mut a, &mut edits, ns);
        insert_frees(&mut a, &mut edits);
    }
    futhark_trace::event_n("memplan.elided_copies", edits.elide.len() as u64);
    futhark_trace::event_n("memplan.steals_marked", edits.steal.len() as u64);
    futhark_trace::event_n("memplan.hoisted_allocs", edits.write_into.len() as u64);
    futhark_trace::event_n("memplan.free_points", edits.free_after.len() as u64);

    let mut next_scope = 1;
    rewrite_body(&mut plan.body, root, &mut next_scope, &edits);
    plan.mem_planned = true;
}

/// Phase: rewrite `dst = copy src` into `dst = src`. Sound because the
/// executor never mutates a live buffer in place outside the guarded
/// steal/hoist paths, so sharing is unobservable; the union keeps the
/// liveness of the merged class honest.
fn elide_copies(a: &mut Analysis, edits: &mut Edits) {
    let copies = a.copies.clone();
    for (site, src, dst) in copies {
        let key = *site.last().expect("copy site is never empty");
        edits.elide.insert(key, src.clone());
        a.aliases.union(&dst, &src);
    }
}

/// Phase: decide `OutSpec::steal` for every `init_from` output.
fn mark_steals(a: &mut Analysis, edits: &mut Edits) {
    let outs: Vec<_> = a
        .launch_outs
        .iter()
        .filter(|o| o.init_from.is_some())
        .map(|o| {
            (
                o.site.clone(),
                o.out_idx,
                o.pat_name.clone(),
                o.init_from.clone().expect("filtered"),
            )
        })
        .collect();
    for (site, j, pat_name, src) in outs {
        let c = a.aliases.find(&src);
        let named_uses = a.class_uses_named(&c);
        let uses: Vec<Site> = named_uses.iter().map(|(_, u)| u.clone()).collect();
        // The launch itself must touch the class exactly once (the
        // `init_from` read); a second reference (e.g. the source also fed
        // as an input) keeps the copy.
        if uses.iter().filter(|u| **u == site).count() != 1 {
            continue;
        }
        let used_after = uses.iter().any(|u| a.may_execute_after(u, &site));
        let always_ok = !used_after
            && match a.innermost_loop_scope(&site) {
                // Inside a loop, the class must be freshly defined every
                // iteration — otherwise the next iteration would re-read
                // the buffer this iteration consumed.
                Some(ls) => a
                    .class_defs(&c)
                    .iter()
                    .all(|(_, d)| d.iter().any(|&(s, _)| s == ls)),
                None => true,
            };
        let key = (site[site.len() - 1].0, site[site.len() - 1].1, j);
        if always_ok {
            edits.steal.insert(key, StealKind::Always);
            a.aliases.union(&pat_name, &src);
            continue;
        }
        // Double-buffer rotation: the source is (an alias of) exactly one
        // merge parameter of the immediately enclosing loop, and past this
        // launch the class only flows out through the body result (the
        // back edge that becomes the next iteration's parameter).
        let body_scope = site.last().expect("launch site").0;
        if !matches!(a.scopes[body_scope].kind, ScopeKind::LoopBody) {
            continue;
        }
        let params = a.loop_params.get(&body_scope).cloned().unwrap_or_default();
        let in_class = params.iter().filter(|p| a.aliases.find(p) == c).count();
        if in_class != 1 {
            continue;
        }
        let body_len = a.scopes[body_scope].len;
        let rotate_ok = named_uses.iter().all(|(m, u)| {
            if !a.may_execute_after(u, &site) {
                return true;
            }
            match u.iter().find(|&&(s, _)| s == body_scope) {
                // Inside the body after the launch only the back edge may
                // see the class, and only through the launch's own output
                // (an older alias there would still name the consumed
                // buffer).
                Some(&(_, k)) => k == body_len && *m == pat_name,
                // Outside the body — the while-condition or after the
                // loop — a use names either a pre-loop buffer, which the
                // runtime watermark shields from the steal, or the loop
                // pattern, which is the final rotated buffer.
                None => true,
            }
        });
        if rotate_ok {
            edits.steal.insert(key, StealKind::LoopRotate);
            a.aliases.union(&pat_name, &src);
        }
    }
}

/// Phase: hoist loop-invariant launch allocations out of loop bodies.
fn hoist_allocs(a: &mut Analysis, edits: &mut Edits, ns: &mut NameSource) {
    let outs: Vec<_> = a
        .launch_outs
        .iter()
        .filter(|o| o.init_from.is_none() && !o.is_stream)
        .map(|o| {
            (
                o.site.clone(),
                o.out_idx,
                o.pat_name.clone(),
                o.elem,
                o.shape.clone(),
            )
        })
        .collect();
    for (site, j, pat_name, elem, shape) in outs {
        let body_scope = site.last().expect("launch site").0;
        if !matches!(a.scopes[body_scope].kind, ScopeKind::LoopBody) {
            continue;
        }
        let owner = a.scopes[body_scope].owner.clone();
        // The shape must be computable before the loop runs: constants or
        // variables whose definition is outside the loop statement.
        let invariant = shape.iter().all(|s| match s.as_var() {
            None => *s != SubExp::i64(-1),
            Some(v) => match a.defs.get(v).and_then(|d| d.first()) {
                Some(d) => !d.starts_with(&owner) || d.len() == owner.len(),
                // No visible definition: an implicit size, bound at entry.
                None => true,
            },
        });
        // Defined at the loop site itself (a merge parameter / pattern)
        // still varies per iteration.
        let invariant = invariant
            && shape.iter().all(|s| match s.as_var() {
                Some(v) => a
                    .defs
                    .get(v)
                    .and_then(|d| d.first())
                    .is_none_or(|d| *d != owner),
                None => true,
            });
        if !invariant {
            continue;
        }
        // The output's whole alias class must live and die inside the
        // loop: any escape (including into the merge) keeps per-iteration
        // allocation.
        let c = a.aliases.find(&pat_name);
        let contained = |s: &Site| s.len() > owner.len() && s.starts_with(&owner);
        let defs = a.class_defs(&c);
        let uses = a.class_uses(&c);
        if !defs.iter().all(|(_, d)| contained(d)) || !uses.iter().all(contained) {
            continue;
        }
        let h = ns.fresh("hoist");
        let owner_key = *owner.last().expect("loop site is never empty");
        edits
            .alloc_before
            .entry(owner_key)
            .or_default()
            .push((h.clone(), elem, shape));
        edits
            .free_after
            .entry(owner_key)
            .or_default()
            .insert(h.clone());
        let key = (site[site.len() - 1].0, site[site.len() - 1].1, j);
        edits.write_into.insert(key, h);
    }
}

/// Phase: insert a `Free` of each alias class after its last use.
fn insert_frees(a: &mut Analysis, edits: &mut Edits) {
    // Classes that got a hoisted destination keep their buffer across
    // iterations: never free them mid-loop (the hoist's own free after
    // the loop covers the buffer).
    let hoisted_classes: HashSet<Name> = edits
        .write_into
        .keys()
        .map(|&(s, i, j)| (s, i, j))
        .collect::<Vec<_>>()
        .into_iter()
        .filter_map(|(s, i, j)| {
            a.launch_outs
                .iter()
                .find(|o| o.site.last() == Some(&(s, i)) && o.out_idx == j)
                .map(|o| o.pat_name.clone())
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|n| a.aliases.find(&n))
        .collect();

    let mut roots = BTreeSet::new();
    let names: Vec<Name> = a
        .defs
        .keys()
        .chain(a.uses.keys())
        .cloned()
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    for n in names {
        roots.insert(a.aliases.find(&n));
    }
    for c in roots {
        if hoisted_classes.contains(&c) {
            continue;
        }
        let members = a.class_members(&c);
        if !members.iter().any(|m| a.arrays.contains(m)) {
            continue;
        }
        let defs = a.class_defs(&c);
        if defs.is_empty() {
            continue;
        }
        // The free scope: where the shallowest definition lives. Every
        // other definition and every use must pass through it, else the
        // class crosses sibling scopes and we leave it alone.
        let shallowest = defs
            .iter()
            .map(|(_, d)| d)
            .min_by(|x, y| x.len().cmp(&y.len()).then_with(|| x.cmp(y)))
            .expect("nonempty defs");
        let scope = shallowest.last().expect("def chains are nonempty").0;
        let project = |s: &Site| s.iter().find(|&&(sc, _)| sc == scope).map(|&(_, i)| i);
        let uses = a.class_uses(&c);
        let mut last = 0usize;
        let mut escapes = false;
        for s in defs.iter().map(|(_, d)| d).chain(uses.iter()) {
            match project(s) {
                Some(i) => last = last.max(i),
                None => escapes = true,
            }
        }
        // `last == len` is the body's result position: the class outlives
        // the scope (for the root body, the program), so no free.
        if escapes || last >= a.scopes[scope].len {
            continue;
        }
        // Free the members bound in the free scope itself: their env
        // bindings are fresh in the current activation. Loop parameters
        // are excluded — after rotation their binding may point at a
        // freed-and-recycled buffer.
        let to_free: BTreeSet<Name> = members
            .iter()
            .filter(|m| {
                !a.param_names.contains(*m)
                    && a.defs
                        .get(*m)
                        .and_then(|d| d.first())
                        .and_then(|d| d.last().copied())
                        .is_some_and(|(sc, _)| sc == scope)
            })
            .cloned()
            .collect();
        if to_free.is_empty() {
            continue;
        }
        edits
            .free_after
            .entry((scope, last))
            .or_default()
            .extend(to_free);
    }
}

/// Applies the planned edits, mirroring the analysis's scope numbering
/// exactly (pre-order; a while-condition before its loop body).
fn rewrite_body(body: &mut HBody, scope: usize, next_scope: &mut usize, edits: &Edits) {
    let old = std::mem::take(&mut body.stms);
    let mut out = Vec::with_capacity(old.len());
    for (i, mut stm) in old.into_iter().enumerate() {
        if let Some(allocs) = edits.alloc_before.get(&(scope, i)) {
            for (name, elem, shape) in allocs {
                out.push(HStm::Alloc {
                    name: name.clone(),
                    elem: *elem,
                    shape: shape.clone(),
                });
            }
        }
        match &mut stm {
            HStm::Direct(s) => {
                if let Some(src) = edits.elide.get(&(scope, i)) {
                    s.exp = Exp::SubExp(SubExp::Var(src.clone()));
                }
            }
            HStm::Launch { spec, .. } => {
                for (j, o) in spec.outs.iter_mut().enumerate() {
                    if let Some(k) = edits.steal.get(&(scope, i, j)) {
                        o.steal = Some(*k);
                    }
                    if let Some(h) = edits.write_into.get(&(scope, i, j)) {
                        o.write_into = Some(h.clone());
                    }
                }
            }
            HStm::Loop {
                while_cond, body, ..
            } => {
                if let Some(cond) = while_cond {
                    let cs = *next_scope;
                    *next_scope += 1;
                    rewrite_body(cond, cs, next_scope, edits);
                }
                let bs = *next_scope;
                *next_scope += 1;
                rewrite_body(body, bs, next_scope, edits);
            }
            HStm::If { then_b, else_b, .. } => {
                let ts = *next_scope;
                *next_scope += 1;
                rewrite_body(then_b, ts, next_scope, edits);
                let es = *next_scope;
                *next_scope += 1;
                rewrite_body(else_b, es, next_scope, edits);
            }
            _ => {}
        }
        out.push(stm);
        if let Some(frees) = edits.free_after.get(&(scope, i)) {
            out.push(HStm::Free {
                names: frees.iter().cloned().collect(),
            });
        }
    }
    body.stms = out;
}

// ---------------------------------------------------------------------------
// Static peak-memory prediction (admission control)
// ---------------------------------------------------------------------------

/// A statically predicted device-memory peak for one run of a plan on
/// concrete arguments.
///
/// The prediction is a **lower bound** on the executor's measured
/// `MemStats::peak_bytes`: every allocation the predictor cannot size
/// (an unknown dimension, an interpreter fallback of unknown result
/// shape) contributes zero and clears [`PeakPrediction::exact`], and
/// loop bodies are walked once even though later iterations may allocate
/// more. The bound is what admission control needs — a job whose *lower*
/// bound already exceeds a device's capacity provably cannot run, so it
/// can be rejected before any device work starts, while a job under the
/// bound is admitted and still protected by the executor's own
/// capacity-modelled arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeakPrediction {
    /// Predicted peak live device bytes (a lower bound on the measured
    /// peak).
    pub peak_bytes: u64,
    /// Whether every allocation was sized precisely and no loop or
    /// unknown branch was involved. When `true` the prediction is the
    /// exact straight-line peak; when `false` it is only a lower bound.
    pub exact: bool,
}

/// What the predictor knows about one bound array: which abstract
/// buffer root it aliases (the byte size lives in [`PState::live`]).
#[derive(Clone, Copy)]
struct PArr {
    root: u64,
}

/// The abstract machine state: a scalar environment (sizes flow through
/// host arithmetic), array-to-root aliasing, and the live-set byte
/// accounting that yields the peak.
#[derive(Clone, Default)]
struct PState {
    scalars: HashMap<Name, futhark_core::Scalar>,
    arrays: HashMap<Name, PArr>,
    /// Live abstract buffers: root id -> bytes (so a [`HStm::Free`] of a
    /// whole alias class subtracts each buffer exactly once).
    live: HashMap<u64, u64>,
    next_root: u64,
    live_bytes: u64,
    peak_bytes: u64,
    exact: bool,
}

impl PState {
    fn alloc(&mut self, bytes: u64) -> PArr {
        let root = self.next_root;
        self.next_root += 1;
        self.live.insert(root, bytes);
        self.live_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        PArr { root }
    }

    fn free_root(&mut self, root: u64) {
        if let Some(bytes) = self.live.remove(&root) {
            self.live_bytes = self.live_bytes.saturating_sub(bytes);
        }
    }

    fn sub(&self, se: &SubExp) -> Option<futhark_core::Scalar> {
        match se {
            SubExp::Const(k) => Some(*k),
            SubExp::Var(v) => self.scalars.get(v).copied(),
        }
    }

    fn sub_u64(&self, se: &SubExp) -> Option<u64> {
        self.sub(se)?.as_i64().map(|k| k.max(0) as u64)
    }

    /// Element count of a shape in `SubExp`s, with `-1` standing for the
    /// surrounding launch's thread count.
    fn elems_of(&self, shape: &[SubExp], num_threads: Option<u64>) -> Option<u64> {
        let mut total = 1u64;
        for d in shape {
            let n = if *d == SubExp::i64(-1) {
                num_threads?
            } else {
                self.sub_u64(d)?
            };
            total = total.saturating_mul(n);
        }
        Some(total)
    }

    /// Byte size of an array-typed binding, from its checked type.
    fn bytes_of_type(&self, ty: &Type) -> Option<u64> {
        match ty {
            Type::Scalar(_) => None,
            Type::Array(at) => {
                let mut total = at.elem.byte_size() as u64;
                for d in &at.dims {
                    let n = match d {
                        futhark_core::Size::Const(k) => (*k).max(0) as u64,
                        futhark_core::Size::Var(v) => self.scalars.get(v)?.as_i64()?.max(0) as u64,
                    };
                    total = total.saturating_mul(n);
                }
                Some(total)
            }
        }
    }

    /// Bind an array-typed pattern element to a freshly allocated buffer
    /// sized from its type, or record imprecision if the size is unknown.
    fn bind_fresh(&mut self, name: &Name, ty: &Type) {
        match self.bytes_of_type(ty) {
            Some(b) => {
                let a = self.alloc(b);
                self.arrays.insert(name.clone(), a);
            }
            None => {
                self.exact = false;
                self.arrays.remove(name);
            }
        }
    }

    /// Bind a pattern element to whatever a result operand denotes:
    /// arrays alias, known scalars copy, unknowns clear the binding.
    fn bind_result(&mut self, pe: &futhark_core::PatElem, se: &SubExp) {
        match se {
            SubExp::Const(k) => {
                self.scalars.insert(pe.name.clone(), *k);
            }
            SubExp::Var(v) => {
                if let Some(a) = self.arrays.get(v).cloned() {
                    self.arrays.insert(pe.name.clone(), a);
                } else if let Some(s) = self.scalars.get(v).copied() {
                    self.scalars.insert(pe.name.clone(), s);
                } else {
                    self.scalars.remove(&pe.name);
                    self.arrays.remove(&pe.name);
                    if matches!(pe.ty, Type::Array(_)) {
                        self.exact = false;
                    }
                }
            }
        }
    }
}

/// Predict the device-memory peak of running `plan` on `args` against
/// `device`, without executing anything.
///
/// The walk mirrors the executor's allocation behaviour statement by
/// statement: `iota`/`replicate`/`copy`/`concat`/slice-`index`/`update`
/// allocate their result, `rearrange` and (row-major) `reshape` alias,
/// launches size their outputs with the executor's Grid/Stream
/// thread-count formulas and honour the planner's `steal`/`write_into`
/// no-alloc verdicts, and planner `Free`s retire whole alias classes.
/// See [`PeakPrediction`] for the lower-bound contract.
pub fn predict_peak_bytes(
    plan: &GpuPlan,
    device: &crate::DeviceProfile,
    args: &[futhark_core::Value],
) -> PeakPrediction {
    let mut st = PState {
        exact: true,
        ..PState::default()
    };
    if args.len() != plan.params.len() {
        st.exact = false;
    }
    // Bind parameters and implicit sizes, as the executor does.
    for (p, a) in plan.params.iter().zip(args) {
        match a {
            futhark_core::Value::Scalar(s) => {
                st.scalars.insert(p.name.clone(), *s);
            }
            futhark_core::Value::Array(arr) => {
                let bytes = (arr.data.len() * arr.elem_type().byte_size()) as u64;
                let buf = st.alloc(bytes);
                st.arrays.insert(p.name.clone(), buf);
                if let Type::Array(at) = &p.ty {
                    for (d, &actual) in at.dims.iter().zip(&arr.shape) {
                        if let futhark_core::Size::Var(v) = d {
                            st.scalars
                                .entry(v.clone())
                                .or_insert(futhark_core::Scalar::I64(actual as i64));
                        }
                    }
                }
            }
        }
    }
    predict_body(&mut st, plan, device, &plan.body);
    PeakPrediction {
        peak_bytes: st.peak_bytes,
        exact: st.exact,
    }
}

fn predict_body(st: &mut PState, plan: &GpuPlan, device: &crate::DeviceProfile, body: &HBody) {
    for stm in &body.stms {
        predict_stm(st, plan, device, stm);
    }
}

fn predict_stm(st: &mut PState, plan: &GpuPlan, device: &crate::DeviceProfile, stm: &HStm) {
    use futhark_interp::scalar as sc;
    match stm {
        HStm::Direct(d) => match &d.exp {
            Exp::SubExp(se) => st.bind_result(&d.pat[0], se),
            Exp::BinOp(op, a, b) => {
                let r = st
                    .sub(a)
                    .zip(st.sub(b))
                    .and_then(|(x, y)| sc::eval_binop(*op, x, y).ok());
                match r {
                    Some(s) => {
                        st.scalars.insert(d.pat[0].name.clone(), s);
                    }
                    None => {
                        st.scalars.remove(&d.pat[0].name);
                    }
                }
            }
            Exp::UnOp(op, a) => {
                let r = st.sub(a).and_then(|x| sc::eval_unop(*op, x).ok());
                match r {
                    Some(s) => {
                        st.scalars.insert(d.pat[0].name.clone(), s);
                    }
                    None => {
                        st.scalars.remove(&d.pat[0].name);
                    }
                }
            }
            Exp::Cmp(op, a, b) => {
                let r = st
                    .sub(a)
                    .zip(st.sub(b))
                    .and_then(|(x, y)| sc::eval_cmp(*op, x, y).ok());
                match r {
                    Some(s) => {
                        st.scalars.insert(d.pat[0].name.clone(), s);
                    }
                    None => {
                        st.scalars.remove(&d.pat[0].name);
                    }
                }
            }
            Exp::Convert(t, a) => {
                let r = st.sub(a).and_then(|x| sc::eval_convert(*t, x).ok());
                match r {
                    Some(s) => {
                        st.scalars.insert(d.pat[0].name.clone(), s);
                    }
                    None => {
                        st.scalars.remove(&d.pat[0].name);
                    }
                }
            }
            // Aliasing builtins: no device allocation.
            Exp::Rearrange { array, .. } => match st.arrays.get(array).cloned() {
                Some(a) => {
                    st.arrays.insert(d.pat[0].name.clone(), a);
                }
                None => st.exact = false,
            },
            // Reshape materialises, which aliases for the (dominant)
            // row-major case; treating it as an alias is the lower bound.
            Exp::Reshape { array, .. } => match st.arrays.get(array).cloned() {
                Some(a) => {
                    st.arrays.insert(d.pat[0].name.clone(), a);
                }
                None => st.exact = false,
            },
            // Allocating builtins: the result is a fresh buffer sized by
            // the pattern's checked type.
            Exp::Iota(_)
            | Exp::Replicate(..)
            | Exp::Copy(_)
            | Exp::Concat { .. }
            | Exp::Update { .. } => {
                st.bind_fresh(&d.pat[0].name, &d.pat[0].ty);
            }
            Exp::Index { .. } => match &d.pat[0].ty {
                // Full-rank index is a host scalar read of unknown value.
                Type::Scalar(_) => {
                    st.scalars.remove(&d.pat[0].name);
                }
                // Partial index uploads the slice as a fresh buffer.
                Type::Array(_) => st.bind_fresh(&d.pat[0].name, &d.pat[0].ty),
            },
            // Interpreter fallback: results of array type are uploaded.
            _ => {
                for pe in &d.pat {
                    match &pe.ty {
                        Type::Array(_) => st.bind_fresh(&pe.name, &pe.ty),
                        Type::Scalar(_) => {
                            st.scalars.remove(&pe.name);
                        }
                    }
                }
            }
        },
        HStm::Launch { pat, spec } => {
            // Thread count, mirroring the executor.
            let num_threads = match &spec.kind {
                LaunchKind::Grid => {
                    let mut t = Some(1u64);
                    for w in &spec.widths {
                        t = t.zip(st.sub_u64(w)).map(|(a, b)| a.saturating_mul(b));
                    }
                    t
                }
                LaunchKind::Stream { total } => st.sub_u64(total).map(|n| {
                    let cap = device.num_cus as u64 * device.group_size as u64 * 4;
                    let acc_elems: u64 = spec
                        .outs
                        .iter()
                        .map(|o| {
                            o.shape[1..]
                                .iter()
                                .map(|d| st.sub_u64(d).unwrap_or(1))
                                .product::<u64>()
                        })
                        .sum::<u64>()
                        .max(1);
                    let floor = (device.num_cus * device.warp_size) as u64;
                    let balanced = (n / acc_elems.max(1)).max(floor);
                    n.min(cap).min(balanced).max(1)
                }),
            };
            if num_threads.is_none() {
                st.exact = false;
            }
            for (pe, o) in pat.iter().zip(&spec.outs) {
                let bytes = st
                    .elems_of(&o.shape, num_threads)
                    .map(|e| e.saturating_mul(o.elem.byte_size() as u64));
                let arr = if let Some(h) = &o.write_into {
                    // Hoisted destination: writes into the pre-allocated
                    // buffer, no new allocation.
                    st.arrays.get(h).cloned()
                } else if let Some(src) = &o.init_from {
                    match (o.steal, st.arrays.get(src).cloned()) {
                        // Steal verdict: the source buffer is consumed in
                        // place. (`LoopRotate`'s guarded first-iteration
                        // copy is above the lower bound, so aliasing is
                        // safe here too.)
                        (Some(_), Some(src_arr)) => Some(src_arr),
                        // Copy path: a fresh buffer; the source stays
                        // live until its `Free`.
                        _ => bytes.map(|b| st.alloc(b)),
                    }
                } else {
                    bytes.map(|b| st.alloc(b))
                };
                match arr {
                    Some(a) => {
                        st.arrays.insert(pe.name.clone(), a);
                    }
                    None => {
                        st.exact = false;
                        st.arrays.remove(&pe.name);
                    }
                }
            }
        }
        HStm::Combine { pat, .. } => {
            // Array-typed results are copied out of the partials into
            // fresh buffers.
            for pe in pat {
                match &pe.ty {
                    Type::Array(_) => st.bind_fresh(&pe.name, &pe.ty),
                    Type::Scalar(_) => {
                        st.scalars.remove(&pe.name);
                    }
                }
            }
        }
        HStm::Loop {
            pat,
            params,
            while_cond,
            for_var,
            body,
        } => {
            // One symbolic iteration is a lower bound on however many the
            // loop actually runs.
            st.exact = false;
            for (p, init) in params {
                match st.sub(init) {
                    Some(s) => {
                        st.scalars.insert(p.name.clone(), s);
                    }
                    None => {
                        if let SubExp::Var(v) = init {
                            if let Some(a) = st.arrays.get(v).cloned() {
                                st.arrays.insert(p.name.clone(), a);
                                continue;
                            }
                        }
                        st.scalars.remove(&p.name);
                    }
                }
            }
            if let Some((v, _bound)) = for_var {
                st.scalars.insert(v.clone(), futhark_core::Scalar::I64(0));
            }
            if let Some(cond) = while_cond {
                predict_body(st, plan, device, cond);
            }
            predict_body(st, plan, device, body);
            for (pe, se) in pat.iter().zip(&body.result) {
                st.bind_result(pe, se);
            }
        }
        HStm::If {
            pat,
            cond,
            then_b,
            else_b,
        } => {
            let taken = st.sub(cond).map(|s| s == futhark_core::Scalar::Bool(true));
            match taken {
                Some(true) => {
                    predict_body(st, plan, device, then_b);
                    for (pe, se) in pat.iter().zip(&then_b.result) {
                        st.bind_result(pe, se);
                    }
                }
                Some(false) => {
                    predict_body(st, plan, device, else_b);
                    for (pe, se) in pat.iter().zip(&else_b.result) {
                        st.bind_result(pe, se);
                    }
                }
                None => {
                    // Unknown branch: only one arm will run, so the
                    // sound lower bound is the *min* over the arms'
                    // peaks (each already includes the pre-branch
                    // high-water mark). Bindings follow the then-arm
                    // (arbitrary but deterministic), and the prediction
                    // turns inexact.
                    st.exact = false;
                    let mut alt = st.clone();
                    predict_body(st, plan, device, then_b);
                    predict_body(&mut alt, plan, device, else_b);
                    st.peak_bytes = st.peak_bytes.min(alt.peak_bytes);
                    st.next_root = st.next_root.max(alt.next_root);
                    for (pe, se) in pat.iter().zip(&then_b.result) {
                        st.bind_result(pe, se);
                    }
                }
            }
        }
        HStm::Free { names } => {
            let roots: BTreeSet<u64> = names
                .iter()
                .filter_map(|n| st.arrays.get(n).map(|a| a.root))
                .collect();
            for r in roots {
                st.free_root(r);
            }
        }
        HStm::Alloc { name, elem, shape } => match st.elems_of(shape, None) {
            Some(e) => {
                let a = st.alloc(e.saturating_mul(elem.byte_size() as u64));
                st.arrays.insert(name.clone(), a);
            }
            None => {
                st.exact = false;
                st.arrays.remove(name);
            }
        },
    }
}
