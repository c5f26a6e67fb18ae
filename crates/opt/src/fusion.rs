//! The fusion engine of Section 4.
//!
//! Fusion is a T2 reduction of each body's dependency graph. The graph is
//! built once per body: each name's defining position and users, and each
//! statement's free variables and consumed names. Three rules then rewrite
//! it until none applies:
//!
//! - vertical: a `map` whose outputs all feed one later SOAC, as inputs
//!   only, fuses into it (`map ∘ map` is a map, `map ∘ reduce` a redomap);
//! - F3/F6 (specialised): a `stream_map` whose array result is consumed by
//!   a `reduce` fuses into a `stream_red` (the Figure 10a→10b step);
//! - horizontal: two independent maps of the same width merge.
//!
//! Every rewrite replaces two statements by one, so a body of n statements
//! reaches its fixed point within n rewrites. A round applies one vertical,
//! then one stream, then one horizontal rewrite, each at the lowest
//! position where one is legal; this priority decides between overlapping
//! edges. A rewrite updates the graph entries of the statements it touches
//! and queues only the positions whose rules may have changed. Every legal
//! edge is a choice point of the cursor's schedule, asked once: a declined
//! edge is asked again only after its producer or consumer is rewritten.
//!
//! F2/F4/F5/F7 at chunk size one is [`chain_to_loop`]: it rewrites a
//! map→scan→reduce chain into a single sequential loop with scalar
//! accumulators — the Figure 10c "tension resolved" form with O(1)
//! per-thread footprint. Only its unit test calls it; no pass does.
//!
//! In-place updates are not a burden on the engine; the only restriction is
//! that a producer never moves past a consumption point of one of its
//! inputs. Updates, calls and scatters bound every rewrite, and a
//! producer's free variables may not be consumed, at any depth, between it
//! and its consumer (§4.2).

use futhark_core::schedule::{ChoiceClass, ScheduleCursor};
use futhark_core::traverse::{alpha_rename_lambda, free_in_exp, free_in_lambda, Subst};
use futhark_core::{
    Body, Exp, Lambda, LoopForm, Name, NameSource, Param, PatElem, Program, ScalarType, Soac, Stm,
    SubExp, Type,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;

/// Runs fusion over a whole program to its fixed point, with every legal
/// edge consulted as a choice point on the cursor's schedule. A site is
/// only *queried* when the rewrite is legal, so site numbering is the
/// deterministic order in which legal rewrites are found.
pub fn fuse_program(prog: &mut Program, ns: &mut NameSource, cur: &mut ScheduleCursor) {
    for f in &mut prog.functions {
        fuse_body(&mut f.body, ns, cur);
    }
}

/// Fuses the nested bodies first, then reduces this body's graph.
fn fuse_body(body: &mut Body, ns: &mut NameSource, cur: &mut ScheduleCursor) {
    for stm in &mut body.stms {
        for ib in stm.exp.inner_bodies_mut() {
            fuse_body(ib, ns, cur);
        }
    }
    crate::simplify::copy_propagate_stms(body);
    // Every rule fuses a map or a stream_map with another SOAC.
    let soacs = || body.stms.iter().filter_map(soac_of);
    let producer = |s: &Soac| matches!(s, Soac::Map { .. } | Soac::StreamMap { .. });
    if soacs().count() < 2 || !soacs().any(producer) {
        return;
    }
    let mut graph = Graph::new(std::mem::take(&mut body.stms), &body.result);
    graph.reduce(ns, cur);
    body.stms = graph.into_stms();
}

/// Counts uses of each name in a body (operands, SOAC inputs, results,
/// nested bodies).
fn use_counts(body: &Body) -> HashMap<Name, usize> {
    let mut counts: HashMap<Name, usize> = HashMap::new();
    for stm in &body.stms {
        for v in free_in_exp(&stm.exp) {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    for se in &body.result {
        if let SubExp::Var(v) = se {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
    }
    counts
}

/// Whether a statement may consume an array: the blanket barrier that no
/// rewrite moves a statement past.
fn is_consuming(stm: &Stm) -> bool {
    matches!(
        stm.exp,
        Exp::Update { .. } | Exp::Apply { .. } | Exp::Soac(Soac::Scatter { .. })
    )
}

fn soac_of(stm: &Stm) -> Option<&Soac> {
    match &stm.exp {
        Exp::Soac(s) => Some(s),
        _ => None,
    }
}

/// The operator lambdas of a SOAC.
fn operators(soac: &Soac) -> Vec<&Lambda> {
    match soac {
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
    }
}

/// Collects the names an expression may consume, at any depth: updated
/// arrays, scatter destinations, call arguments, a loop's array-typed
/// merge initialisers, and the inputs and accumulators of a SOAC whose
/// operator consumes one of its parameters.
fn consumed_in(exp: &Exp, out: &mut Vec<Name>) {
    let nested = out.len();
    for b in exp.inner_bodies() {
        for stm in &b.stms {
            consumed_in(&stm.exp, out);
        }
    }
    match exp {
        Exp::Update { array, .. } => out.push(array.clone()),
        Exp::Apply { args, .. } => out.extend(args.iter().filter_map(SubExp::as_var).cloned()),
        Exp::Loop { params, .. } => out.extend(
            params
                .iter()
                .filter(|(p, _)| !p.ty.is_scalar())
                .filter_map(|(_, init)| init.as_var().cloned()),
        ),
        Exp::Soac(Soac::Scatter { dest, .. }) => out.push(dest.clone()),
        Exp::Soac(soac) => {
            let consumes_param = out[nested..].iter().any(|v| {
                operators(soac)
                    .iter()
                    .any(|l| l.params.iter().any(|p| p.name == *v))
            });
            if consumes_param {
                out.extend(soac.input_arrays().into_iter().cloned());
                if let Soac::StreamRed { accs, .. } | Soac::StreamSeq { accs, .. } = soac {
                    out.extend(accs.iter().filter_map(SubExp::as_var).cloned());
                }
            }
        }
        _ => {}
    }
}

/// One statement of the body under reduction, with its graph entries.
struct Node {
    /// Identifies the statement in the declined-edge record; a rewritten
    /// statement gets a new one.
    id: u32,
    stm: Stm,
    /// Free variables of the expression.
    free: HashSet<Name>,
    /// The free variables it may consume, at any depth.
    consumed: Vec<Name>,
    /// The last position defining one of `free`, if the body defines any.
    ready: Option<usize>,
}

/// A body's dependency graph. Statements keep their positions: a rewrite
/// puts the fused statement at one of its two sources' positions and
/// leaves the other empty, so the survivors never change order.
struct Graph {
    nodes: Vec<Option<Node>>,
    /// The position binding each name.
    def: HashMap<Name, usize>,
    /// The positions of the statements reading each name.
    users: HashMap<Name, Vec<usize>>,
    /// Names the body returns.
    result: HashSet<Name>,
    /// Positions of the [`is_consuming`] statements. No rule rewrites them,
    /// so they split the body into fixed segments.
    barriers: Vec<usize>,
    /// Positions of the statements that consume something.
    consuming: BTreeSet<usize>,
    /// Positions of the maps.
    maps: BTreeSet<usize>,
    /// The consumer each producer's last evaluation found. The producer's
    /// status then also depends on the statements between the two.
    spans: BTreeMap<usize, usize>,
    /// Edges the schedule declined, by node identity.
    declined: HashSet<(u32, u32)>,
    next_id: u32,
    /// Positions whose rule may newly apply, per rule: producers of
    /// vertical and stream edges, and the earlier map of horizontal pairs.
    vertical: BTreeSet<usize>,
    stream: BTreeSet<usize>,
    horizontal: BTreeSet<usize>,
}

impl Graph {
    fn new(stms: Vec<Stm>, result: &[SubExp]) -> Graph {
        let mut g = Graph {
            nodes: Vec::with_capacity(stms.len()),
            def: HashMap::new(),
            users: HashMap::new(),
            result: result.iter().filter_map(SubExp::as_var).cloned().collect(),
            barriers: Vec::new(),
            consuming: BTreeSet::new(),
            maps: BTreeSet::new(),
            spans: BTreeMap::new(),
            declined: HashSet::new(),
            next_id: 0,
            vertical: BTreeSet::new(),
            stream: BTreeSet::new(),
            horizontal: BTreeSet::new(),
        };
        for (pos, stm) in stms.into_iter().enumerate() {
            if is_consuming(&stm) {
                g.barriers.push(pos);
            }
            g.nodes.push(None);
            let id = g.fresh_id();
            g.link(pos, stm, id);
        }
        g
    }

    fn into_stms(self) -> Vec<Stm> {
        self.nodes.into_iter().flatten().map(|n| n.stm).collect()
    }

    /// Applies rounds of one vertical, one stream and one horizontal
    /// rewrite until a round finds none.
    fn reduce(&mut self, ns: &mut NameSource, cur: &mut ScheduleCursor) {
        loop {
            let vertical = self.fuse_vertical(ns, cur);
            let stream = self.fuse_stream(ns, cur);
            let horizontal = self.fuse_horizontal(ns, cur);
            if !(vertical || stream || horizontal) {
                return;
            }
        }
    }

    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn node(&self, pos: usize) -> &Node {
        self.nodes[pos].as_ref().expect("a live statement")
    }

    fn map_at(&self, pos: usize) -> Option<&Node> {
        let node = self.nodes[pos].as_ref()?;
        matches!(node.stm.exp, Exp::Soac(Soac::Map { .. })).then_some(node)
    }

    fn ready(&self, free: &HashSet<Name>) -> Option<usize> {
        free.iter().filter_map(|v| self.def.get(v).copied()).max()
    }

    /// The number of barriers before `pos`: two positions are in the same
    /// segment when no barrier lies between them.
    fn segment(&self, pos: usize) -> usize {
        self.barriers.partition_point(|&b| b < pos)
    }

    /// Enters `stm` at the empty position `pos`.
    fn link(&mut self, pos: usize, stm: Stm, id: u32) {
        let free = free_in_exp(&stm.exp);
        let mut consumed = Vec::new();
        consumed_in(&stm.exp, &mut consumed);
        consumed.retain(|v| free.contains(v));
        let ready = self.ready(&free);
        for v in &free {
            self.users.entry(v.clone()).or_default().push(pos);
        }
        for pe in &stm.pat {
            self.def.insert(pe.name.clone(), pos);
        }
        if !consumed.is_empty() {
            self.consuming.insert(pos);
        }
        match stm.exp {
            Exp::Soac(Soac::Map { .. }) => {
                self.maps.insert(pos);
                self.vertical.insert(pos);
                self.horizontal.insert(pos);
            }
            Exp::Soac(Soac::StreamMap { .. }) => {
                self.stream.insert(pos);
            }
            _ => {}
        }
        self.nodes[pos] = Some(Node {
            id,
            stm,
            free,
            consumed,
            ready,
        });
    }

    /// Removes the statement at `pos`, queueing the producers whose
    /// status may depend on it.
    fn unlink(&mut self, pos: usize) -> Node {
        let node = self.nodes[pos].take().expect("a live statement");
        for v in &node.free {
            if let Some(us) = self.users.get_mut(v) {
                us.retain(|&u| u != pos);
            }
            if let Some(&p) = self.def.get(v) {
                self.queue_producer(p);
            }
        }
        for pe in &node.stm.pat {
            self.def.remove(&pe.name);
        }
        self.consuming.remove(&pos);
        self.maps.remove(&pos);
        self.spans.remove(&pos);
        self.queue_spanning(pos);
        node
    }

    /// Queues everything whose status may depend on the statement just
    /// linked at `pos`: the producers it reads, the producers whose edge
    /// spans it, the maps it may merge with, and the maps that its
    /// outputs' users may now merge with.
    fn notify(&mut self, pos: usize) {
        let node = self.node(pos);
        let producers: Vec<usize> = node
            .free
            .iter()
            .filter_map(|v| self.def.get(v).copied())
            .collect();
        // A merge moves its outputs' definitions earlier.
        let users: Vec<usize> = node
            .stm
            .pat
            .iter()
            .filter_map(|pe| self.users.get(&pe.name))
            .flatten()
            .copied()
            .collect();
        let ready = node.ready;
        for p in producers {
            self.queue_producer(p);
        }
        self.queue_spanning(pos);
        self.queue_partners(pos, ready.map_or(0, |r| r + 1)..pos);
        for u in users {
            let old = self.node(u).ready;
            let new = self.ready(&self.node(u).free);
            if new < old {
                self.nodes[u].as_mut().expect("a live statement").ready = new;
                let old = old.expect("a later definition");
                self.queue_partners(u, new.map_or(0, |r| r + 1)..old + 1);
            }
        }
    }

    /// Queues the statement at `p` for the rule it may be the producer of.
    fn queue_producer(&mut self, p: usize) {
        match self.nodes[p].as_ref().map(|n| &n.stm.exp) {
            Some(Exp::Soac(Soac::Map { .. })) => {
                self.vertical.insert(p);
            }
            Some(Exp::Soac(Soac::StreamMap { .. })) => {
                self.stream.insert(p);
            }
            _ => {}
        }
    }

    /// Queues the producers whose last-found edge spans `pos`.
    fn queue_spanning(&mut self, pos: usize) {
        let spanning: Vec<usize> = self
            .spans
            .range(..pos)
            .filter(|&(_, &k)| k > pos)
            .map(|(&p, _)| p)
            .collect();
        for p in spanning {
            self.queue_producer(p);
        }
    }

    /// Queues the maps at `range` that may now absorb the map at `k`: same
    /// width, same segment.
    fn queue_partners(&mut self, k: usize, range: Range<usize>) {
        let Some(Soac::Map { width, .. }) = self.map_at(k).and_then(|n| soac_of(&n.stm)) else {
            return;
        };
        let seg = self.segment(k);
        let js: Vec<usize> = self
            .maps
            .range(range)
            .copied()
            .filter(|&j| {
                self.segment(j) == seg
                    && matches!(soac_of(&self.node(j).stm), Some(Soac::Map { width: w, .. }) if w == width)
            })
            .collect();
        self.horizontal.extend(js);
    }

    /// Replaces the statements at `gone` and `keep` by `stm` at `keep`.
    fn replace(&mut self, gone: usize, keep: usize, mut stm: Stm) {
        // Composing lambdas binds copies, at the top of the new operator.
        for ib in stm.exp.inner_bodies_mut() {
            crate::simplify::copy_propagate_stms(ib);
        }
        self.unlink(gone);
        self.unlink(keep);
        let id = self.fresh_id();
        self.link(keep, stm, id);
        self.notify(keep);
    }

    /// Answers a legal edge's choice point, recording a declined edge so
    /// that it is not asked again.
    fn decide(
        &mut self,
        from: usize,
        to: usize,
        class: ChoiceClass,
        cur: &mut ScheduleCursor,
    ) -> bool {
        if cur.decide(class) {
            return true;
        }
        self.declined.insert((self.node(from).id, self.node(to).id));
        false
    }

    /// Whether moving the producer at `p` down to its consumer at `k`
    /// passes a barrier or a consumption of one of the producer's free
    /// variables; or whether a statement between binds a variable the
    /// consumer reads; or whether the schedule declined the edge.
    fn blocked(&self, p: usize, k: usize) -> bool {
        let (producer, consumer) = (self.node(p), self.node(k));
        self.segment(p) != self.segment(k)
            || self.consuming.range(p + 1..k).any(|&s| {
                self.node(s)
                    .consumed
                    .iter()
                    .any(|v| producer.free.contains(v))
            })
            || consumer.ready.is_some_and(|r| r > p)
            || self.declined.contains(&(producer.id, consumer.id))
    }

    // ---- Vertical fusion ----

    fn fuse_vertical(&mut self, ns: &mut NameSource, cur: &mut ScheduleCursor) -> bool {
        while let Some(p) = self.vertical.pop_first() {
            let Some(k) = self.vertical_consumer(p) else {
                continue;
            };
            let Some(fused) = fuse_pair(&self.node(p).stm, &self.node(k).stm, ns) else {
                continue;
            };
            if !self.decide(p, k, ChoiceClass::FuseVertical, cur) {
                continue;
            }
            if matches!(fused.exp, Exp::Soac(Soac::Redomap { .. })) {
                futhark_trace::event("fusion.redomap");
            }
            futhark_trace::event("fusion.vertical");
            self.replace(p, k, fused);
            return true;
        }
        false
    }

    /// The statement the map at `p` may fuse into: the one later SOAC that
    /// reads its outputs, only as inputs and each at most once.
    fn vertical_consumer(&mut self, p: usize) -> Option<usize> {
        self.spans.remove(&p);
        let node = self.map_at(p)?;
        let mut consumer = None;
        for pe in &node.stm.pat {
            if self.result.contains(&pe.name) {
                return None;
            }
            match self.users.get(&pe.name).map_or(&[][..], Vec::as_slice) {
                [] => {}
                &[k] if consumer.is_none_or(|c| c == k) => consumer = Some(k),
                _ => return None,
            }
        }
        let k = consumer?;
        let soac = soac_of(&self.node(k).stm)?;
        let inputs = soac.input_arrays();
        let used = |o: &Name| self.users.get(o).is_some_and(|us| !us.is_empty());
        if node.stm.pat.iter().any(|pe| {
            inputs.iter().filter(|&&a| *a == pe.name).count() != usize::from(used(&pe.name))
        }) {
            return None;
        }
        let op_free: HashSet<Name> = operators(soac)
            .into_iter()
            .flat_map(free_in_lambda)
            .collect();
        if node.stm.pat.iter().any(|pe| op_free.contains(&pe.name)) {
            return None;
        }
        self.spans.insert(p, k);
        (!self.blocked(p, k)).then_some(k)
    }

    // ---- stream_map + reduce → stream_red (F3/F6, the Figure 10 outer step) ----

    fn fuse_stream(&mut self, ns: &mut NameSource, cur: &mut ScheduleCursor) -> bool {
        while let Some(j) = self.stream.pop_first() {
            let Some(k) = self.stream_consumer(j) else {
                continue;
            };
            if !self.decide(j, k, ChoiceClass::FuseStream, cur) {
                continue;
            }
            let fused = stream_red(&self.node(j).stm, &self.node(k).stm, ns);
            futhark_trace::event("fusion.stream_red");
            self.replace(j, k, fused);
            return true;
        }
        false
    }

    /// The `reduce` that the single-result `stream_map` at `j` may fuse
    /// into: the only reader of its result.
    fn stream_consumer(&mut self, j: usize) -> Option<usize> {
        self.spans.remove(&j);
        let node = self.nodes[j].as_ref()?;
        let (Exp::Soac(Soac::StreamMap { lam, .. }), [out]) = (&node.stm.exp, &node.stm.pat[..])
        else {
            return None;
        };
        if self.result.contains(&out.name) || lam.ret.len() != 1 {
            return None;
        }
        let &[k] = self.users.get(&out.name)?.as_slice() else {
            return None;
        };
        let Some(Soac::Reduce { neutral, arrs, .. }) = soac_of(&self.node(k).stm) else {
            return None;
        };
        if arrs.as_slice() != std::slice::from_ref(&out.name) || neutral.len() != 1 {
            return None;
        }
        self.spans.insert(j, k);
        (!self.blocked(j, k)).then_some(k)
    }

    // ---- Horizontal fusion ----

    fn fuse_horizontal(&mut self, ns: &mut NameSource, cur: &mut ScheduleCursor) -> bool {
        while let Some(j) = self.horizontal.pop_first() {
            while let Some(k) = self.horizontal_partner(j) {
                if !self.decide(j, k, ChoiceClass::FuseHorizontal, cur) {
                    continue;
                }
                let merged = merge_maps(&self.node(j).stm, &self.node(k).stm, ns);
                futhark_trace::event("fusion.horizontal");
                self.replace(k, j, merged);
                return true;
            }
        }
        false
    }

    /// The first later map that the map at `j` may absorb: same width, in
    /// the same segment, and reading nothing bound at or after `j`.
    fn horizontal_partner(&self, j: usize) -> Option<usize> {
        let node = self.map_at(j)?;
        let Some(Soac::Map { width, .. }) = soac_of(&node.stm) else {
            return None;
        };
        let end = self
            .barriers
            .get(self.segment(j))
            .copied()
            .unwrap_or(self.nodes.len());
        self.maps.range(j + 1..end).copied().find(|&k| {
            let other = self.node(k);
            matches!(soac_of(&other.stm), Some(Soac::Map { width: w, .. }) if w == width)
                && other.ready.is_none_or(|r| r < j)
                && !self.declined.contains(&(node.id, other.id))
        })
    }
}

/// Fuses producer map `pstm` into consumer SOAC `cstm`, producing the new
/// consumer statement.
fn fuse_pair(pstm: &Stm, cstm: &Stm, ns: &mut NameSource) -> Option<Stm> {
    let Exp::Soac(Soac::Map {
        width: pw,
        lam: plam,
        arrs: parrs,
    }) = &pstm.exp
    else {
        return None;
    };
    let produced: HashMap<Name, usize> = pstm
        .pat
        .iter()
        .enumerate()
        .map(|(i, pe)| (pe.name.clone(), i))
        .collect();
    match &cstm.exp {
        Exp::Soac(Soac::Map {
            width: cw,
            lam: clam,
            arrs: carrs,
        }) => {
            if pw != cw {
                return None;
            }
            let (lam, arrs) = compose_map_lambdas(plam, parrs, clam, carrs, &produced, ns);
            // The fused statement descends from both source sites.
            Some(
                Stm::new(
                    cstm.pat.clone(),
                    Exp::Soac(Soac::Map {
                        width: cw.clone(),
                        lam,
                        arrs,
                    }),
                )
                .with_prov(pstm.prov.union(&cstm.prov)),
            )
        }
        Exp::Soac(Soac::Reduce {
            width: cw,
            lam: rlam,
            neutral,
            arrs: carrs,
            comm,
        }) => {
            if pw != cw {
                return None;
            }
            // map f ∘ reduce ⊕ => redomap ⊕ f (Section 4's redomap).
            let (map_lam, arrs) = passthrough_map_lambda(plam, parrs, carrs, &produced, ns)?;
            Some(
                Stm::new(
                    cstm.pat.clone(),
                    Exp::Soac(Soac::Redomap {
                        width: cw.clone(),
                        red_lam: rlam.clone(),
                        map_lam,
                        neutral: neutral.clone(),
                        arrs,
                        comm: *comm,
                    }),
                )
                .with_prov(pstm.prov.union(&cstm.prov)),
            )
        }
        Exp::Soac(Soac::Redomap {
            width: cw,
            red_lam,
            map_lam,
            neutral,
            arrs: carrs,
            comm,
        }) => {
            if pw != cw {
                return None;
            }
            let (lam, arrs) = compose_map_lambdas(plam, parrs, map_lam, carrs, &produced, ns);
            Some(
                Stm::new(
                    cstm.pat.clone(),
                    Exp::Soac(Soac::Redomap {
                        width: cw.clone(),
                        red_lam: red_lam.clone(),
                        map_lam: lam,
                        neutral: neutral.clone(),
                        arrs,
                        comm: *comm,
                    }),
                )
                .with_prov(pstm.prov.union(&cstm.prov)),
            )
        }
        _ => None,
    }
}

/// Builds the fused lambda for map∘map: the producer's body runs first, its
/// results are bound to the consumer's parameters for produced inputs.
fn compose_map_lambdas(
    plam: &Lambda,
    parrs: &[Name],
    clam: &Lambda,
    carrs: &[Name],
    produced: &HashMap<Name, usize>,
    ns: &mut NameSource,
) -> (Lambda, Vec<Name>) {
    let plam = alpha_rename_lambda(ns, plam);
    let clam = alpha_rename_lambda(ns, clam);
    // Producer inputs first, then the consumer inputs it does not produce.
    let mut params: Vec<Param> = plam.params;
    let mut arrs: Vec<Name> = parrs.to_vec();
    let mut stms = plam.body.stms;
    for (cp, ca) in clam.params.into_iter().zip(carrs) {
        if let Some(&i) = produced.get(ca) {
            stms.push(Stm::single(
                cp.name,
                cp.ty,
                Exp::SubExp(plam.body.result[i].clone()),
            ));
        } else {
            params.push(cp);
            arrs.push(ca.clone());
        }
    }
    stms.extend(clam.body.stms);
    let lam = Lambda {
        params,
        body: Body::new(stms, clam.body.result),
        ret: clam.ret,
    };
    (lam, arrs)
}

/// Builds the map lambda for fusing a producer map into a reduce: the new
/// lambda's results align with the consumer's input order. Every reduce
/// input must be one of the producer's outputs.
fn passthrough_map_lambda(
    plam: &Lambda,
    parrs: &[Name],
    carrs: &[Name],
    produced: &HashMap<Name, usize>,
    ns: &mut NameSource,
) -> Option<(Lambda, Vec<Name>)> {
    let outs: Vec<usize> = carrs
        .iter()
        .map(|ca| produced.get(ca).copied())
        .collect::<Option<_>>()?;
    let plam = alpha_rename_lambda(ns, plam);
    let results = outs.iter().map(|&i| plam.body.result[i].clone()).collect();
    let ret = outs.iter().map(|&i| plam.ret[i].clone()).collect();
    let lam = Lambda {
        params: plam.params,
        body: Body::new(plam.body.stms, results),
        ret,
    };
    Some((lam, parrs.to_vec()))
}

/// Merges two independent maps of the same width into one whose outputs
/// are `jstm`'s followed by `kstm`'s.
fn merge_maps(jstm: &Stm, kstm: &Stm, ns: &mut NameSource) -> Stm {
    let (
        Exp::Soac(Soac::Map {
            width,
            lam: jlam,
            arrs: jarrs,
        }),
        Exp::Soac(Soac::Map {
            lam: klam,
            arrs: karrs,
            ..
        }),
    ) = (&jstm.exp, &kstm.exp)
    else {
        unreachable!("horizontal fusion merges maps")
    };
    let jlam = alpha_rename_lambda(ns, jlam);
    let klam = alpha_rename_lambda(ns, klam);
    let mut params = jlam.params;
    params.extend(klam.params);
    let mut arrs = jarrs.clone();
    arrs.extend(karrs.iter().cloned());
    let mut stms = jlam.body.stms;
    stms.extend(klam.body.stms);
    let mut result = jlam.body.result;
    result.extend(klam.body.result);
    let mut ret = jlam.ret;
    ret.extend(klam.ret);
    let mut pat = jstm.pat.clone();
    pat.extend(kstm.pat.iter().cloned());
    Stm::new(
        pat,
        Exp::Soac(Soac::Map {
            width: width.clone(),
            lam: Lambda {
                params,
                body: Body::new(stms, result),
                ret,
            },
            arrs,
        }),
    )
    .with_prov(jstm.prov.union(&kstm.prov))
}

/// Fuses `stream_map` `jstm` into the `reduce` `kstm` of its result.
fn stream_red(jstm: &Stm, kstm: &Stm, ns: &mut NameSource) -> Stm {
    let (
        Exp::Soac(Soac::StreamMap {
            width,
            lam: slam,
            arrs,
        }),
        Exp::Soac(Soac::Reduce {
            lam: rlam, neutral, ..
        }),
    ) = (&jstm.exp, &kstm.exp)
    else {
        unreachable!("stream fusion joins a stream_map and a reduce")
    };
    let slam2 = alpha_rename_lambda(ns, slam);
    let rlam2 = alpha_rename_lambda(ns, rlam);
    // fold_lam: (chunk, acc, chunks…) -> acc ⊕ reduce ⊕ ne (f chunk).
    let acc = ns.fresh("acc");
    let acc_ty = rlam2.ret[0].clone();
    let chunk_var = slam2.params[0].name.clone();
    let mut fold_params = vec![slam2.params[0].clone()];
    fold_params.push(Param::unique(acc.clone(), acc_ty.clone()));
    fold_params.extend(slam2.params[1..].iter().cloned());
    let mut stms = slam2.body.stms;
    // Bind the chunk result; it may be a variable already.
    let ys = match &slam2.body.result[0] {
        SubExp::Var(v) => v.clone(),
        c => {
            let tmp = ns.fresh("ys");
            stms.push(Stm::single(
                tmp.clone(),
                slam2.ret[0].clone(),
                Exp::SubExp(c.clone()),
            ));
            tmp
        }
    };
    let partial = ns.fresh("partial");
    stms.push(Stm::single(
        partial.clone(),
        acc_ty.clone(),
        Exp::Soac(Soac::Reduce {
            width: SubExp::Var(chunk_var),
            lam: rlam2.clone(),
            neutral: neutral.clone(),
            arrs: vec![ys],
            comm: false,
        }),
    ));
    // acc2 = rlam(acc, partial) — inline the operator body.
    let mut op = alpha_rename_lambda(ns, &rlam2);
    let mut subst = Subst::new();
    subst.bind(op.params[0].name.clone(), SubExp::Var(acc.clone()));
    subst.bind(op.params[1].name.clone(), SubExp::Var(partial));
    subst.apply_body(&mut op.body);
    stms.extend(op.body.stms);
    let acc2 = op.body.result[0].clone();
    let fold_lam = Lambda {
        params: fold_params,
        body: Body::new(stms, vec![acc2]),
        ret: vec![acc_ty],
    };
    Stm::new(
        kstm.pat.clone(),
        Exp::Soac(Soac::StreamRed {
            width: width.clone(),
            red_lam: rlam.clone(),
            fold_lam,
            accs: neutral.clone(),
            arrs: arrs.clone(),
        }),
    )
    .with_prov(jstm.prov.union(&kstm.prov))
}

// ---- Chain sequentialisation (F2/F4/F5/F7 at chunk size 1) ----

/// Rewrites a linear map→scan→reduce chain over the same width into one
/// sequential loop with scalar accumulators, as produced by converting each
/// member to a stream (F2/F4/F5), fusing the streams (F7), and choosing
/// chunk size one (Section 4.3: "the thread footprint is O(1)").
///
/// `body` is modified in place; returns whether anything changed. Only
/// chains whose intermediate arrays are each used exactly once, ending in a
/// `reduce` (scalar result), are rewritten; the final reduce's value is the
/// loop result. The rewrite is consulted as a `FuseChain` choice point.
pub fn chain_to_loop(body: &mut Body, ns: &mut NameSource, cur: &mut ScheduleCursor) -> bool {
    let counts = use_counts(body);
    // Find a reduce whose input comes from a chain of single-use map/scan
    // statements.
    for k in 0..body.stms.len() {
        let Some(Soac::Reduce {
            width,
            lam: rlam,
            neutral,
            arrs,
            ..
        }) = soac_of(&body.stms[k])
        else {
            continue;
        };
        if arrs.len() != 1 || neutral.len() != 1 || !rlam.ret[0].is_scalar() {
            continue;
        }
        // Walk the chain backwards.
        let mut chain: Vec<usize> = vec![k];
        let mut cur_input = arrs[0].clone();
        let width = width.clone();
        while let Some(j) = body
            .stms
            .iter()
            .position(|s| s.pat.len() == 1 && s.pat[0].name == cur_input)
        {
            match soac_of(&body.stms[j]) {
                Some(Soac::Map {
                    width: w, arrs: a, ..
                })
                | Some(Soac::Scan {
                    width: w, arrs: a, ..
                }) if *w == width
                    && a.len() == 1
                    && counts.get(&cur_input) == Some(&1)
                    && !body.result.iter().any(|se| se.as_var() == Some(&cur_input)) =>
                {
                    chain.push(j);
                    cur_input = a[0].clone();
                }
                _ => break,
            }
        }
        if chain.len() < 2 {
            continue;
        }
        chain.reverse(); // now source-first
                         // Ensure the chain is contiguous enough to collapse: no statement
                         // between members defines or consumes anything the members use.
        let lo = *chain.first().unwrap();
        let hi = *chain.last().unwrap();
        if body.stms[lo..=hi]
            .iter()
            .enumerate()
            .any(|(off, s)| !chain.contains(&(lo + off)) && is_consuming(s))
        {
            continue;
        }
        // A collapsible chain exists: the choice point.
        if !cur.decide(ChoiceClass::FuseChain) {
            continue;
        }
        // Build the loop.
        let i = ns.fresh("i");
        let mut loop_stms: Vec<Stm> = Vec::new();
        // Read the source element.
        let elem = ns.fresh("x");
        let src_ty = match &body.stms[chain[0]].exp {
            Exp::Soac(Soac::Map { lam, .. }) | Exp::Soac(Soac::Scan { lam, .. }) => {
                lam.params[0].ty.clone()
            }
            _ => continue,
        };
        loop_stms.push(Stm::single(
            elem.clone(),
            src_ty,
            Exp::Index {
                array: cur_input.clone(),
                indices: vec![SubExp::Var(i.clone())],
            },
        ));
        let mut cur_val = SubExp::Var(elem);
        let mut merge: Vec<(Param, SubExp)> = Vec::new();
        let mut final_results: Vec<SubExp> = Vec::new();
        for &idx in &chain {
            match &body.stms[idx].exp {
                Exp::Soac(Soac::Map { lam, .. }) => {
                    let mut l = alpha_rename_lambda(ns, lam);
                    let mut s = Subst::new();
                    s.bind(l.params[0].name.clone(), cur_val.clone());
                    s.apply_body(&mut l.body);
                    loop_stms.extend(l.body.stms);
                    cur_val = l.body.result[0].clone();
                }
                Exp::Soac(Soac::Scan { lam, neutral, .. }) => {
                    // carry ⊕ x, threading the carry.
                    let carry = ns.fresh("carry");
                    let cty = lam.ret[0].clone();
                    let mut l = alpha_rename_lambda(ns, lam);
                    let mut s = Subst::new();
                    s.bind(l.params[0].name.clone(), SubExp::Var(carry.clone()));
                    s.bind(l.params[1].name.clone(), cur_val.clone());
                    s.apply_body(&mut l.body);
                    loop_stms.extend(l.body.stms);
                    cur_val = l.body.result[0].clone();
                    merge.push((Param::new(carry, cty), neutral[0].clone()));
                    final_results.push(cur_val.clone());
                }
                Exp::Soac(Soac::Reduce { lam, neutral, .. }) => {
                    let racc = ns.fresh("racc");
                    let rty = lam.ret[0].clone();
                    let mut l = alpha_rename_lambda(ns, lam);
                    let mut s = Subst::new();
                    s.bind(l.params[0].name.clone(), SubExp::Var(racc.clone()));
                    s.bind(l.params[1].name.clone(), cur_val.clone());
                    s.apply_body(&mut l.body);
                    loop_stms.extend(l.body.stms);
                    cur_val = l.body.result[0].clone();
                    merge.push((Param::new(racc, rty), neutral[0].clone()));
                    final_results.push(cur_val.clone());
                }
                _ => unreachable!(),
            }
        }
        // Loop results: one per merge parameter, in order.
        let loop_body = Body::new(loop_stms, final_results);
        // The reduce's pattern receives the last merge value; scans in the
        // middle of the chain had their (array) outputs consumed inside the
        // chain only, so only the final scalar matters.
        let reduce_pat = body.stms[k].pat.clone();
        let n_merge = merge.len();
        let loop_exp = Exp::Loop {
            params: merge,
            form: LoopForm::For {
                var: i,
                bound: width.clone(),
            },
            body: loop_body,
        };
        // The collapsed loop descends from every chain member's site.
        let mut chain_prov = futhark_core::Prov::none();
        for &idx in &chain {
            chain_prov.merge(&body.stms[idx].prov);
        }
        let new_stm = if n_merge == 1 {
            Stm::new(reduce_pat, loop_exp).with_prov(chain_prov)
        } else {
            // Bind all merge results; the reduce output is the last.
            let mut pat = Vec::new();
            for m in 0..n_merge - 1 {
                pat.push(PatElem::new(
                    ns.fresh("carryout"),
                    Type::Scalar(ScalarType::F64), // placeholder, fixed below
                ));
                let _ = m;
            }
            pat.push(reduce_pat[0].clone());
            Stm::new(pat, loop_exp).with_prov(chain_prov)
        };
        // Fix placeholder types from the loop params.
        let mut new_stm = new_stm;
        if let Exp::Loop { params, .. } = &new_stm.exp {
            for (pe, (p, _)) in new_stm.pat.iter_mut().zip(params) {
                pe.ty = p.ty.clone();
            }
        }
        // Replace: remove chain members except k, substitute statement k.
        futhark_trace::event("fusion.chain_to_loop");
        let mut to_remove: Vec<usize> = chain[..chain.len() - 1].to_vec();
        body.stms[k] = new_stm;
        to_remove.sort_unstable_by(|a, b| b.cmp(a));
        for idx in to_remove {
            body.stms.remove(idx);
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark_core::schedule::{Schedule, SimplifyToggles};
    use futhark_core::{ArrayVal, Value};
    use futhark_frontend::parse_program;
    use futhark_interp::Interpreter;

    fn count_soacs(body: &Body) -> usize {
        let mut n = 0;
        for stm in &body.stms {
            if matches!(stm.exp, Exp::Soac(_)) {
                n += 1;
            }
            for ib in stm.exp.inner_bodies() {
                n += count_soacs(ib);
            }
        }
        n
    }

    fn fused(src: &str) -> Program {
        let (mut prog, mut ns) = parse_program(src).unwrap();
        crate::simplify::simplify_program(&mut prog, &mut ns, &SimplifyToggles::default());
        let mut cur = ScheduleCursor::new(Schedule::default());
        fuse_program(&mut prog, &mut ns, &mut cur);
        prog
    }

    #[test]
    fn map_map_fuses_vertically() {
        let prog = fused(
            "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
             let a = map (\\x -> x + 1.0f32) xs\n\
             let b = map (\\x -> x * 2.0f32) a\n\
             in b",
        );
        let f = prog.main().unwrap();
        assert_eq!(count_soacs(&f.body), 1, "{f}");
    }

    #[test]
    fn map_reduce_fuses_to_redomap() {
        let prog = fused(
            "fun main (n: i64) (xs: [n]f32): f32 =\n\
             let a = map (\\x -> x * x) xs\n\
             let s = reduce (+) 0.0f32 a\n\
             in s",
        );
        let f = prog.main().unwrap();
        let has_redomap = f
            .body
            .stms
            .iter()
            .any(|s| matches!(s.exp, Exp::Soac(Soac::Redomap { .. })));
        assert!(has_redomap, "{f}");
        assert_eq!(count_soacs(&f.body), 1, "{f}");
    }

    #[test]
    fn horizontal_fusion_merges_independent_maps() {
        let prog = fused(
            "fun main (n: i64) (xs: [n]f32) (ys: [n]f32): ([n]f32, [n]f32) =\n\
             let a = map (\\x -> x + 1.0f32) xs\n\
             let b = map (\\y -> y * 2.0f32) ys\n\
             in (a, b)",
        );
        let f = prog.main().unwrap();
        assert_eq!(count_soacs(&f.body), 1, "{f}");
    }

    #[test]
    fn fusion_blocked_by_multiple_uses() {
        let prog = fused(
            "fun main (n: i64) (xs: [n]f32): ([n]f32, f32) =\n\
             let a = map (\\x -> x + 1.0f32) xs\n\
             let s = reduce (+) 0.0f32 a\n\
             in (a, s)",
        );
        let f = prog.main().unwrap();
        // `a` escapes in the result, so both SOACs must survive.
        assert_eq!(count_soacs(&f.body), 2, "{f}");
    }

    #[test]
    fn fusion_blocked_by_consumption_point() {
        // From Section 4.2: let x = map f a; let a[0] = 0; map g x — the
        // producer must not move past the consumption of a.
        let prog = fused(
            "fun main (n: i64) (a: *[n]i64): [n]i64 =\n\
             let x = map (\\v -> v + 1) a\n\
             let a2 = a with [0] <- 0\n\
             let y = map (\\v -> v * 2) x\n\
             let s = reduce (+) 0 a2\n\
             let z = map (\\v -> v + s) y\n\
             in z",
        );
        let f = prog.main().unwrap();
        // x's map may not fuse into y's map (an update of its input is in
        // between), and s is bound between y and z.
        assert!(f.to_string().contains("with"), "{f}");
        assert_eq!(count_soacs(&f.body), 4, "{f}");
        futhark_check::check_program(&prog).unwrap_or_else(|e| panic!("{e}\n{prog}"));
    }

    #[test]
    fn fusion_never_moves_a_producer_past_a_nested_consumption() {
        // The loop consumes its array-typed merge initialiser, the branch
        // updates `xs`: `a`'s map may not move below either.
        for consume in [
            "loop (acc = xs) for i < n do acc with [i] <- 0",
            "if n > 2 then xs with [0] <- 7 else replicate n 3",
        ] {
            let src = format!(
                "fun main (n: i64) (xs: *[n]i64): ([n]i64, [n]i64) =\n\
                 let a = map (\\x -> x + 1) xs\n\
                 let ys = {consume}\n\
                 let b = map (\\x -> x * 2) a\n\
                 in (b, ys)"
            );
            let prog = fused(&src);
            futhark_check::check_program(&prog).unwrap_or_else(|e| panic!("{e}\n{prog}"));
            let args = vec![
                Value::i64(4),
                Value::Array(ArrayVal::from_i64s(vec![1, 2, 3, 4])),
            ];
            let (orig, _) = parse_program(&src).unwrap();
            assert_eq!(
                Interpreter::new(&prog).run_main(&args).unwrap(),
                Interpreter::new(&orig).run_main(&args).unwrap(),
                "{prog}"
            );
        }
    }

    #[test]
    fn a_declined_edge_is_asked_once() {
        // The schedule declines `a`'s edge into the reduce while the maps
        // over `ys` merge over two rounds.
        let src = "fun main (n: i64) (m: i64) (xs: [n]i64) (ys: [m]i64): (i64, [m]i64, [m]i64, [m]i64) =\n\
                   let a = map (\\x -> x + 1) xs\n\
                   let s = reduce (+) 0 a\n\
                   let c = map (\\y -> y - 1) ys\n\
                   let d = map (\\y -> y * 3) ys\n\
                   let e = map (\\y -> y + 5) ys\n\
                   in (s, c, d, e)";
        let (mut prog, mut ns) = parse_program(src).unwrap();
        let sched = Schedule::default().with_default(ChoiceClass::FuseVertical, false);
        let mut cur = ScheduleCursor::new(sched);
        fuse_program(&mut prog, &mut ns, &mut cur);
        assert_eq!(cur.observed(ChoiceClass::FuseVertical), 1);
        assert_eq!(cur.observed(ChoiceClass::FuseHorizontal), 2);
        assert_eq!(count_soacs(&prog.main().unwrap().body), 3, "{prog}");
    }

    #[test]
    fn fusion_runs_to_its_fixed_point() {
        // Three independent maps merge; a chain of thirty maps, the last
        // of which also reads the merged map, fuses into one. That takes
        // more than thirty rounds.
        let mut src = String::from(
            "fun main (n: i64) (xs: [n]i64) (ys: [n]i64) (zs: [n]i64): [n]i64 =\n\
             let b1 = map (\\y -> y * 2) ys\n\
             let b2 = map (\\z -> z + 3) zs\n\
             let b3 = map (\\y -> y - 1) ys\n\
             let a1 = map (\\x -> x + 1) xs\n",
        );
        for i in 2..30 {
            src.push_str(&format!("let a{i} = map (\\x -> x * {i}) a{}\n", i - 1));
        }
        src.push_str("let r = map (\\a p q s -> a + p + q + s) a29 b1 b2 b3\nin r");
        let prog = fused(&src);
        let f = prog.main().unwrap();
        assert_eq!(count_soacs(&f.body), 1, "{f}");
        assert_eq!(f.body.stms.len(), 1, "{f}");
    }

    #[test]
    fn stream_map_reduce_fuses_to_stream_red() {
        let prog = fused(
            "fun main (n: i64) (xs: [n]i64): i64 =\n\
             let ys = stream_map (\\(chunk: i64) (cs: [chunk]i64) ->\n\
               map (\\c -> c * 2) cs) xs\n\
             let s = reduce (+) 0 ys\n\
             in s",
        );
        let f = prog.main().unwrap();
        let has_stream_red = f
            .body
            .stms
            .iter()
            .any(|s| matches!(s.exp, Exp::Soac(Soac::StreamRed { .. })));
        assert!(has_stream_red, "{f}");
    }

    #[test]
    fn fusion_preserves_semantics() {
        let src = "fun main (n: i64) (xs: [n]f32) (ys: [n]f32): (f32, [n]f32) =\n\
                   let a = map (\\x -> x * x) xs\n\
                   let b = map (\\y -> y + 0.5f32) ys\n\
                   let s = reduce (+) 0.0f32 a\n\
                   let c = map (\\v -> v * 3.0f32) b\n\
                   in (s, c)";
        let (prog, mut ns) = parse_program(src).unwrap();
        let mut opt = prog.clone();
        crate::simplify::simplify_program(&mut opt, &mut ns, &SimplifyToggles::default());
        let mut cur = ScheduleCursor::new(Schedule::default());
        fuse_program(&mut opt, &mut ns, &mut cur);
        let args = vec![
            Value::i64(4),
            Value::Array(ArrayVal::from_f32s(vec![1.0, 2.0, 3.0, 4.0])),
            Value::Array(ArrayVal::from_f32s(vec![0.5, 1.5, 2.5, 3.5])),
        ];
        let r1 = Interpreter::new(&prog).run_main(&args).unwrap();
        let r2 = Interpreter::new(&opt).run_main(&args).unwrap();
        for (a, b) in r1.iter().zip(&r2) {
            assert!(a.approx_eq(b, 1e-6), "{a} vs {b}");
        }
        futhark_check::check_program(&opt).unwrap();
    }

    #[test]
    fn figure10_chain_to_loop() {
        // The inner part of Figure 10: map (g a) → scan ⊙ → reduce (+)
        // collapses into one loop with two scalar accumulators.
        let src = "fun main (m: i64) (a: f32) (iss: [m]f32): f32 =\n\
                   let t = map (\\x -> x * a) iss\n\
                   let y = scan (+) 0.0f32 t\n\
                   let b = reduce max 0.0f32 y\n\
                   in b";
        let (mut prog, mut ns) = parse_program(src).unwrap();
        let f = prog.function_mut("main").unwrap();
        let mut cur = ScheduleCursor::new(Schedule::default());
        let changed = chain_to_loop(&mut f.body, &mut ns, &mut cur);
        assert!(changed, "{f}");
        let f = prog.main().unwrap();
        assert_eq!(count_soacs(&f.body), 0, "{f}");
        assert!(f.to_string().contains("loop"), "{f}");
        // Semantics check.
        let args = vec![
            Value::i64(4),
            Value::f32(2.0),
            Value::Array(ArrayVal::from_f32s(vec![1.0, -2.0, 3.0, 0.5])),
        ];
        let (orig, _) = parse_program(src).unwrap();
        let r1 = Interpreter::new(&orig).run_main(&args).unwrap();
        let r2 = Interpreter::new(&prog).run_main(&args).unwrap();
        assert!(r1[0].approx_eq(&r2[0], 1e-6), "{:?} vs {:?}", r1, r2);
    }
}
