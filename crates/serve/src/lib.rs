//! `futhark-serve`: the `futharkd` daemon — a persistent
//! compile-and-execute service over the simulated GPU pipeline.
//!
//! A long-lived server changes the engineering contract in three ways the
//! one-shot CLI never exercised, and this crate is built around them:
//!
//! 1. **Compilation is amortised, not repeated.** Submitting the same
//!    source twice must not pay the pipeline twice: compiled artifacts
//!    live in a content-addressed [`cache::ArtifactCache`], keyed on the
//!    FNV-1a hash of the source text together with the
//!    [`futhark::Schedule`] and the device profile.
//!    A response's span list makes the distinction observable — the
//!    `compile` span is absent on a cache hit.
//!
//! 2. **Memory admission happens before execution, not during.** Every
//!    job's device-memory footprint is predicted up front
//!    ([`futhark_gpu::predict_peak_bytes`], a lower bound, upgraded by
//!    *learned* measured peaks from earlier runs of the same artifact and
//!    argument shapes). A job whose footprint cannot fit any configured
//!    device is rejected at admission with the prediction attached;
//!    admissible jobs queue for a device with enough capacity. Execution
//!    stays within that capacity: an underpredicted job, or one whose
//!    kernels' private arrays outgrow the device, fails with a structured
//!    `OutOfMemory` run error instead of growing the host, and what it
//!    asked for is learned, so the next submission is rejected up front.
//!
//! 3. **No process-global state.** Thread counts are per-request
//!    ([`futhark::RunOptions`]), and every counter is
//!    per-run ([`futhark::PerfReport`]) — the daemon is the reason those
//!    moved off `OnceLock`s and process-wide atomics.
//!
//! The wire protocol is line-delimited JSON over stdio or TCP; see
//! [`proto`] for the request/response schema and the README's `futharkd`
//! section for examples.

pub mod cache;
pub mod daemon;
pub mod hash;
pub mod metrics;
pub mod proto;
pub mod recorder;

pub use cache::{ArtifactCache, CacheStats};
pub use daemon::{Daemon, DaemonConfig, ServeStats};
pub use metrics::{GaugeSet, Metrics, MetricsSnapshot};
pub use proto::{ErrorKind, MetricsFormat, Request, Response, RunRequest, Span};
pub use recorder::{EventKind, FlightRecorder, JobEvent};

/// Locks a mutex, recovering from poison: a panicking job thread must
/// not wedge every future `stats`/`metrics` call of a long-lived daemon.
/// The guarded data are counters and slot tables whose invariants hold
/// between mutations, so the poisoned value is safe to keep serving.
pub(crate) fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
