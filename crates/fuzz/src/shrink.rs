//! Greedy shrinking of failing test cases.
//!
//! A counterexample is shrunk by repeatedly applying three families of
//! transformations, keeping a candidate only when the failure predicate
//! still holds:
//!
//! 1. **Stage deletion.** Removing stage `k` re-resolves every later
//!    reference to its slot to the nearest earlier slot of the same
//!    [`crate::gen::Kind`]; stages whose references cannot be re-resolved (e.g. users
//!    of a deleted filter's dynamically sized output) are deleted in
//!    cascade.
//! 2. **Input truncation.** Halving `n` and `m` (with the arrays cut to
//!    match) and canonicalising element values towards small integers.
//! 3. **Constant simplification.** Replacing scalar function bodies with
//!    the identity, predicates with a trivial comparison, loop bounds
//!    with 1, operators with addition, and indices with 0.
//!
//! The loop runs to a fixpoint (or an attempt budget), so the result is
//! locally minimal: no single transformation can make it smaller while
//! still failing.

use crate::gen::{slot_kinds, AOp, COp, Pred, SExp, Stage, TestCase, INITIAL_SLOTS};

/// Counters describing one shrink run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShrinkStats {
    /// Oracle invocations spent.
    pub attempts: usize,
    /// Accepted (still-failing) candidates.
    pub accepted: usize,
}

/// Deletes stage `k`, re-resolving or cascading later references.
/// Returns the shrunk case (possibly with further stages dropped).
pub fn delete_stage(case: &TestCase, k: usize) -> TestCase {
    let old_kinds = slot_kinds(&case.stages);
    let mut deleted = vec![false; old_kinds.len()];
    deleted[INITIAL_SLOTS + k] = true;
    // Kept stages with refs still in the old slot numbering.
    let mut kept: Vec<(usize, Stage)> = Vec::new();
    'stages: for (i, stage) in case.stages.iter().enumerate() {
        let slot = INITIAL_SLOTS + i;
        if deleted[slot] {
            continue;
        }
        let mut stage = stage.clone();
        for r in stage.refs_mut() {
            if !deleted[*r] {
                continue;
            }
            // Nearest earlier live slot of the same kind.
            match (0..*r)
                .rev()
                .find(|&c| !deleted[c] && old_kinds[c] == old_kinds[*r])
            {
                Some(c) => *r = c,
                None => {
                    deleted[slot] = true;
                    continue 'stages;
                }
            }
        }
        kept.push((slot, stage));
    }
    // Remap old slot numbers to the compacted numbering.
    let mut new_index = vec![usize::MAX; old_kinds.len()];
    for (s, slot) in new_index.iter_mut().enumerate().take(INITIAL_SLOTS) {
        *slot = s;
    }
    for (next, (slot, _)) in kept.iter().enumerate() {
        new_index[*slot] = INITIAL_SLOTS + next;
    }
    let stages = kept
        .into_iter()
        .map(|(_, mut stage)| {
            for r in stage.refs_mut() {
                *r = new_index[*r];
            }
            stage
        })
        .collect();
    TestCase {
        stages,
        ..case.clone()
    }
}

fn truncate_n(case: &TestCase, n2: usize) -> TestCase {
    let mut c = case.clone();
    c.n = n2;
    c.xs0.truncate(n2);
    c.xs1.truncate(n2);
    c.mat.truncate(n2 * c.m);
    c
}

fn truncate_m(case: &TestCase, m2: usize) -> TestCase {
    let mut c = case.clone();
    c.mat = case
        .mat
        .chunks(case.m)
        .flat_map(|row| row[..m2].to_vec())
        .collect();
    c.m = m2;
    c
}

fn input_shrinks(case: &TestCase) -> Vec<TestCase> {
    let mut out = Vec::new();
    if case.n > 1 {
        out.push(truncate_n(case, case.n / 2));
        out.push(truncate_n(case, 1));
    }
    if case.m > 1 {
        out.push(truncate_m(case, case.m / 2));
        out.push(truncate_m(case, 1));
    }
    let small = |v: &[i64]| v.iter().map(|x| x % 10).collect::<Vec<i64>>();
    let canon = TestCase {
        xs0: small(&case.xs0),
        xs1: small(&case.xs1),
        mat: small(&case.mat),
        ..case.clone()
    };
    if canon != *case {
        out.push(canon);
    }
    let zeroed = TestCase {
        xs0: vec![0; case.xs0.len()],
        xs1: vec![0; case.xs1.len()],
        mat: vec![0; case.mat.len()],
        ..case.clone()
    };
    if zeroed != *case {
        out.push(zeroed);
    }
    out
}

fn trivial_pred() -> Pred {
    Pred {
        op: COp::Lt,
        lhs: SExp::A,
        rhs: SExp::C(0),
    }
}

/// Strictly simpler variants of one stage (semantics-changing is fine —
/// a candidate is only kept if it still fails).
fn simpler_stages(stage: &Stage) -> Vec<Stage> {
    let mut out = Vec::new();
    // `Some(identity)` when the scalar body is not already the identity.
    let simpler_f = |f: &SExp| (f.size() > 1).then_some(SExp::A);
    match stage {
        Stage::MapUnary { src, f } => {
            if let Some(f) = simpler_f(f) {
                out.push(Stage::MapUnary { src: *src, f });
            }
        }
        Stage::MapBinary { a, b, f } => {
            if let Some(f) = simpler_f(f) {
                out.push(Stage::MapBinary { a: *a, b: *b, f });
            }
        }
        Stage::Scan { src, op } if *op != AOp::Add => out.push(Stage::Scan {
            src: *src,
            op: AOp::Add,
        }),
        Stage::Reduce { src, op } if *op != AOp::Add => out.push(Stage::Reduce {
            src: *src,
            op: AOp::Add,
        }),
        Stage::Filter { src, pred } if *pred != trivial_pred() => out.push(Stage::Filter {
            src: *src,
            pred: trivial_pred(),
        }),
        Stage::Scatter {
            idx,
            idx_f,
            vals,
            init,
        } => {
            let (idx, vals) = (*idx, *vals);
            if *init != 0 {
                out.push(Stage::Scatter {
                    idx,
                    idx_f: idx_f.clone(),
                    vals,
                    init: 0,
                });
            }
            if let Some(idx_f) = simpler_f(idx_f) {
                out.push(Stage::Scatter {
                    idx,
                    idx_f,
                    vals,
                    init: 0,
                });
            }
        }
        Stage::Index { src, at } if *at != 0 => out.push(Stage::Index { src: *src, at: 0 }),
        Stage::Update { src, at, val } if *at != 0 => out.push(Stage::Update {
            src: *src,
            at: 0,
            val: *val,
        }),
        Stage::ForScalar { init, bound, f } => {
            let (init, bound) = (*init, *bound);
            if bound > 1 {
                out.push(Stage::ForScalar {
                    init,
                    bound: 1,
                    f: f.clone(),
                });
            }
            if let Some(f) = simpler_f(f) {
                out.push(Stage::ForScalar { init, bound, f });
            }
        }
        Stage::ForArray { init, bound, f } => {
            let (init, bound) = (*init, *bound);
            if bound > 1 {
                out.push(Stage::ForArray {
                    init,
                    bound: 1,
                    f: f.clone(),
                });
            }
            if let Some(f) = simpler_f(f) {
                out.push(Stage::ForArray { init, bound, f });
            }
        }
        Stage::WhileScalar { init, bound, f } => {
            let (init, bound) = (*init, *bound);
            if bound > 1 {
                out.push(Stage::WhileScalar {
                    init,
                    bound: 1,
                    f: f.clone(),
                });
            }
            if let Some(f) = simpler_f(f) {
                out.push(Stage::WhileScalar { init, bound, f });
            }
        }
        Stage::RowReduce { src, op } if *op != AOp::Add => out.push(Stage::RowReduce {
            src: *src,
            op: AOp::Add,
        }),
        Stage::RowScan { src, op } if *op != AOp::Add => out.push(Stage::RowScan {
            src: *src,
            op: AOp::Add,
        }),
        Stage::MatMap { src, f } => {
            if let Some(f) = simpler_f(f) {
                out.push(Stage::MatMap { src: *src, f });
            }
        }
        Stage::ScalarBin { a, b, f } => {
            if let Some(f) = simpler_f(f) {
                out.push(Stage::ScalarBin { a: *a, b: *b, f });
            }
        }
        Stage::MapLoop { src, k, c, f } => {
            let (src, k, c) = (*src, *k, *c);
            // Shrink towards the minimal divergent loop: trip counts 0/1
            // (`k = 2`, `c = 0`) with an identity body.
            if k > 2 || c > 0 {
                out.push(Stage::MapLoop {
                    src,
                    k: 2,
                    c: 0,
                    f: f.clone(),
                });
            }
            if let Some(f) = simpler_f(f) {
                out.push(Stage::MapLoop { src, k, c, f });
            }
        }
        _ => {}
    }
    out
}

/// Greedily shrinks `case` while `still_fails` holds, spending at most
/// `max_attempts` predicate evaluations.
pub fn shrink(
    case: &TestCase,
    still_fails: &mut dyn FnMut(&TestCase) -> bool,
    max_attempts: usize,
) -> (TestCase, ShrinkStats) {
    let mut cur = case.clone();
    let mut stats = ShrinkStats::default();
    let mut try_candidate = |cur: &mut TestCase, cand: TestCase, stats: &mut ShrinkStats| -> bool {
        stats.attempts += 1;
        if still_fails(&cand) {
            *cur = cand;
            stats.accepted += 1;
            true
        } else {
            false
        }
    };
    loop {
        let mut progressed = false;
        // Stage deletion, last stage first (no other stage can reference
        // the last one, so it deletes without cascades).
        let mut k = cur.stages.len();
        while k > 0 {
            k -= 1;
            if stats.attempts >= max_attempts {
                return (cur, stats);
            }
            let cand = delete_stage(&cur, k);
            if try_candidate(&mut cur, cand, &mut stats) {
                progressed = true;
                k = k.min(cur.stages.len());
            }
        }
        for cand in input_shrinks(&cur) {
            if stats.attempts >= max_attempts {
                return (cur, stats);
            }
            if try_candidate(&mut cur, cand, &mut stats) {
                progressed = true;
            }
        }
        for i in 0..cur.stages.len() {
            if i >= cur.stages.len() {
                break;
            }
            for simpler in simpler_stages(&cur.stages[i]) {
                if stats.attempts >= max_attempts {
                    return (cur, stats);
                }
                let mut cand = cur.clone();
                cand.stages[i] = simpler;
                if try_candidate(&mut cur, cand, &mut stats) {
                    progressed = true;
                }
            }
        }
        if !progressed {
            return (cur, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig, Strategy};

    /// Deleting a filter cascades through everything typed by its length.
    #[test]
    fn deleting_a_filter_cascades() {
        let case = TestCase {
            seed: 0,
            n: 4,
            m: 2,
            xs0: vec![1, 2, 3, 4],
            xs1: vec![5, 6, 7, 8],
            mat: vec![0; 8],
            stages: vec![
                Stage::Filter {
                    src: 2,
                    pred: trivial_pred(),
                },
                Stage::MapUnary { src: 5, f: SExp::A },
                Stage::Reduce {
                    src: 6,
                    op: AOp::Add,
                },
            ],
        };
        let out = delete_stage(&case, 0);
        assert!(out.stages.is_empty(), "{:?}", out.stages);
    }

    /// Deleting a map re-resolves consumers to the nearest earlier slot
    /// of the same kind (here `xs1`, slot 3).
    #[test]
    fn deleting_a_map_reresolves() {
        let case = TestCase {
            seed: 0,
            n: 4,
            m: 2,
            xs0: vec![1, 2, 3, 4],
            xs1: vec![5, 6, 7, 8],
            mat: vec![0; 8],
            stages: vec![
                Stage::MapUnary { src: 2, f: SExp::A },
                Stage::Scan {
                    src: 5,
                    op: AOp::Add,
                },
            ],
        };
        let out = delete_stage(&case, 0);
        assert_eq!(
            out.stages,
            vec![Stage::Scan {
                src: 3,
                op: AOp::Add
            }]
        );
    }

    /// A synthetic predicate ("contains a scan") shrinks any generated
    /// case down to little more than the scan itself, without an oracle.
    #[test]
    fn shrinks_to_minimal_scan_witness() {
        let cfg = GenConfig {
            max_stages: 14,
            strategy: Strategy::Full,
            ..GenConfig::default()
        };
        let mut tried = 0usize;
        for seed in 0..50u64 {
            let case = generate(seed, &cfg);
            let has_scan = |c: &TestCase| c.stages.iter().any(|s| matches!(s, Stage::Scan { .. }));
            if !has_scan(&case) {
                continue;
            }
            tried += 1;
            let (small, stats) = shrink(&case, &mut |c| has_scan(c), 3000);
            assert!(has_scan(&small));
            assert_eq!(
                small
                    .stages
                    .iter()
                    .filter(|s| matches!(s, Stage::Scan { .. }))
                    .count(),
                1,
                "exactly one scan should survive: {:?}",
                small.stages
            );
            assert!(
                small.stages.len() <= 2,
                "scan plus at most one dependency: {:?}",
                small.stages
            );
            assert_eq!(small.n, 1);
            assert!(stats.accepted > 0);
            // The shrunk case still renders a valid program.
            assert!(small.source().contains("scan"));
            if tried >= 5 {
                break;
            }
        }
        assert!(tried >= 5, "not enough scan-bearing seeds");
    }
}
