//! The content-addressed compiled-artifact cache.
//!
//! Artifacts are keyed on the FNV-1a hash of `(source text, Schedule
//! label, device profile)` — the full compilation input — so a hit is
//! sound by construction: any byte of source, any decision of the
//! schedule, or a different target profile changes the key. Entries are
//! `Arc`-shared so concurrent jobs can execute the same artifact while
//! the cache lock is released.
//!
//! Beyond artifacts, the cache carries what admission control *learns*:
//! the measured peak bytes of finished runs, keyed per artifact and
//! argument-shape signature. The static predictor
//! ([`futhark_gpu::predict_peak_bytes`]) is a lower bound; a learned
//! measured peak is exact for the same artifact and shapes, so it takes
//! precedence on the next submission.
//!
//! Hit/miss counters are fields of this struct — per daemon, never
//! process-global (the warpstats lesson: a long-lived server can host
//! many tenants, and their statistics must not bleed together).

use crate::hash::Fnv1a;
use futhark::{Compiled, DeviceProfile, Schedule};
use futhark_core::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when the cache is cold).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    artifact: Arc<Compiled>,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// The content-addressed artifact cache plus learned peak footprints.
pub struct ArtifactCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<u64, Entry>,
    /// Measured peak bytes per `(artifact key, argument-shape signature)`.
    learned_peaks: HashMap<(u64, String), u64>,
    stats: CacheStats,
}

/// The content-addressed key of one compilation input, keyed on the full
/// [`Schedule`]. The schedule's canonical label is collision-free by
/// construction, so two distinct schedules can never share a key for the
/// same source and device.
pub fn artifact_key_sched(source: &str, sched: &Schedule, device: &DeviceProfile) -> u64 {
    let mut h = Fnv1a::default();
    h.update_str(source);
    h.update_str(&sched.label());
    h.update_str(&device.name);
    h.update(&device.global_mem_bytes.to_le_bytes());
    h.update(&(device.num_cus as u64).to_le_bytes());
    h.update(&(device.group_size as u64).to_le_bytes());
    h.finish()
}

/// The shape signature of an argument list: scalar types and array
/// shapes, without the data. Two calls with the same signature allocate
/// identically, so a measured peak transfers between them.
pub fn shape_signature(args: &[Value]) -> String {
    let mut s = String::new();
    for a in args {
        match a {
            Value::Scalar(k) => {
                // Integral scalars feed size computations, so their
                // *values* are part of the signature; other scalars only
                // contribute their type.
                match k.as_i64() {
                    Some(v) => s.push_str(&format!("{v};")),
                    None => s.push_str(&format!("{:?};", k.scalar_type())),
                }
            }
            Value::Array(arr) => {
                s.push_str(&format!("{:?}{:?};", arr.elem_type(), arr.shape));
            }
        }
    }
    s
}

impl ArtifactCache {
    /// A cache holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            capacity: capacity.max(1),
            clock: 0,
            entries: HashMap::new(),
            learned_peaks: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up an artifact, counting a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<Arc<Compiled>> {
        self.clock += 1;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = self.clock;
                self.stats.hits += 1;
                Some(Arc::clone(&e.artifact))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly compiled artifact, evicting the least recently
    /// used entry when full.
    pub fn insert(&mut self, key: u64, artifact: Arc<Compiled>) {
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
                self.learned_peaks.retain(|(k, _), _| *k != victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(
            key,
            Entry {
                artifact,
                last_used: self.clock,
            },
        );
    }

    /// Records the measured peak of a finished run.
    pub fn learn_peak(&mut self, key: u64, sig: &str, measured: u64) {
        let e = self
            .learned_peaks
            .entry((key, sig.to_string()))
            .or_insert(0);
        *e = (*e).max(measured);
    }

    /// A previously measured peak for this artifact and shape signature.
    pub fn learned_peak(&self, key: u64, sig: &str) -> Option<u64> {
        self.learned_peaks.get(&(key, sig.to_string())).copied()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark::{Compiler, Device};

    fn compile(src: &str) -> Arc<Compiled> {
        Arc::new(Compiler::new().compile(src).expect("compiles"))
    }

    #[test]
    fn keys_separate_source_schedule_and_device() {
        let gtx = Device::Gtx780.profile();
        let amd = Device::W8100.profile();
        let dflt = Schedule::default();
        let nofuse = Schedule {
            fusion_pass: false,
            ..Schedule::default()
        };
        let a = artifact_key_sched("fun main (x: i64): i64 = x", &dflt, &gtx);
        let b = artifact_key_sched("fun main (x: i64): i64 = x + 1", &dflt, &gtx);
        let c = artifact_key_sched("fun main (x: i64): i64 = x", &nofuse, &gtx);
        let d = artifact_key_sched("fun main (x: i64): i64 = x", &dflt, &amd);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(
            a,
            artifact_key_sched("fun main (x: i64): i64 = x", &dflt, &gtx)
        );
    }

    #[test]
    fn lru_evicts_the_oldest_and_counts() {
        let mut cache = ArtifactCache::new(2);
        let art = compile("fun main (x: i64): i64 = x");
        cache.insert(1, Arc::clone(&art));
        cache.insert(2, Arc::clone(&art));
        assert!(cache.get(1).is_some()); // 1 is now fresher than 2
        cache.insert(3, art); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn learned_peaks_key_on_shapes_and_keep_the_max() {
        use futhark_core::ArrayVal;
        let mut cache = ArtifactCache::new(2);
        let sig_a =
            shape_signature(&[Value::i64(8), Value::Array(ArrayVal::from_i64s(vec![0; 8]))]);
        let sig_b = shape_signature(&[
            Value::i64(16),
            Value::Array(ArrayVal::from_i64s(vec![0; 16])),
        ]);
        assert_ne!(sig_a, sig_b);
        // Same shapes, different data: same signature.
        assert_eq!(
            sig_a,
            shape_signature(&[Value::i64(8), Value::Array(ArrayVal::from_i64s(vec![7; 8]))])
        );
        cache.learn_peak(1, &sig_a, 100);
        cache.learn_peak(1, &sig_a, 80);
        assert_eq!(cache.learned_peak(1, &sig_a), Some(100));
        assert_eq!(cache.learned_peak(1, &sig_b), None);
    }
}
