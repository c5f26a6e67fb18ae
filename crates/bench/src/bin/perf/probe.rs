//! The host-speed probe: a fixed, program-independent piece of work that a
//! run times between its measurements. Each timing is divided by the probe
//! readings taken just before and just after it, giving a time in `ref_ms`
//! (multiples of one probe), which removes most of the host's drift.
//!
//! This benchmark runs on a small VM that shares its machine. For seconds
//! to minutes at a time, the host runs this process's code up to twice as
//! slowly, by amounts that differ between runs, so the wall-clock medians
//! of ten runs spread by 20–40% (see README.md). The compiler, the
//! simulator and the daemon build and walk heap-allocated trees, and that
//! kind of work slows the most. So the probe does the same: it builds and
//! drops an ordered map of small heap buffers. Before each timing it walks
//! two random cycles, untimed, so that it always starts from the same
//! cache state whatever the measured work before it touched. A compact
//! arithmetic loop followed the drift less closely; see README.md.
//!
//! The probe never runs inside a measured interval, and it lives in the
//! benchmark, so a change to the program cannot change its work.

use crate::layers::Rng64;
use std::collections::BTreeMap;
use std::time::Instant;

/// Entries in the map the probe builds.
const ENTRIES: u64 = 4000;

/// Untimed steps over each random cycle before a timing.
const FAR_STEPS: usize = 10_000;
const NEAR_STEPS: usize = 50_000;

/// The probe readings of one run.
pub struct Probe {
    /// A random cycle over 16 MiB and one over 256 KiB, walked before each
    /// timing.
    far: Vec<u32>,
    near: Vec<u32>,
    samples_ms: Vec<f64>,
}

/// A random cyclic permutation of `0..n`: `next[i]` follows `i`.
fn random_cycle(n: usize, rng: &mut Rng64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    crate::shuffle(&mut order, rng);
    let mut next = vec![0; n];
    for (k, &at) in order.iter().enumerate() {
        next[at as usize] = order[(k + 1) % n];
    }
    next
}

fn walk(next: &[u32], steps: usize) -> u32 {
    let mut at = 0;
    for _ in 0..steps {
        at = next[at as usize];
    }
    at
}

impl Probe {
    pub fn new() -> Probe {
        // A fixed seed, not the run's: every run probes the same work.
        let mut rng = Rng64::seed_from_u64(0x9e37_79b9_7f4a_7c15);
        Probe {
            far: random_cycle(4 << 20, &mut rng),
            near: random_cycle(64 << 10, &mut rng),
            samples_ms: Vec::new(),
        }
    }

    /// Takes one reading.
    pub fn sample(&mut self) {
        std::hint::black_box(walk(&self.far, FAR_STEPS) ^ walk(&self.near, NEAR_STEPS));
        let t = Instant::now();
        let mut map = BTreeMap::new();
        for i in 0..ENTRIES {
            let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            map.insert(key, vec![i as u8; (i % 64) as usize + 8]);
        }
        let bytes: usize = map.values().map(Vec::len).sum();
        std::hint::black_box(bytes);
        drop(map);
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Readings taken so far. A measurement records this when it ends, and
    /// passes it to [`Probe::around`] later.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }

    /// The probe time, ms, for a measurement that ended after `count`
    /// readings: the mean of the readings just before and just after it.
    pub fn around(&self, count: usize) -> Option<f64> {
        let near: Vec<f64> = [count.checked_sub(1), Some(count)]
            .into_iter()
            .flatten()
            .filter_map(|k| self.samples_ms.get(k).copied())
            .collect();
        crate::stats::mean(&near)
    }

    /// The median reading, ms.
    pub fn median_ms(&self) -> Option<f64> {
        crate::stats::median(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_visit_every_slot() {
        let next = random_cycle(1000, &mut Rng64::seed_from_u64(1));
        let mut seen = vec![false; next.len()];
        let mut at = 0;
        for _ in 0..next.len() {
            seen[at as usize] = true;
            at = next[at as usize];
        }
        assert_eq!(at, 0);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn readings_pair_around_a_measurement() {
        let mut p = Probe {
            far: vec![0],
            near: vec![0],
            samples_ms: Vec::new(),
        };
        assert_eq!(p.around(0), None);
        p.sample();
        assert!(p.median_ms().is_some_and(|ms| ms > 0.0));
        p.samples_ms = vec![1.0, 3.0];
        assert_eq!(p.around(0), Some(1.0));
        assert_eq!(p.around(1), Some(2.0));
        assert_eq!(p.around(2), Some(3.0));
        assert_eq!(p.count(), 2);
    }
}
