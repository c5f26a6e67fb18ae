//! The daemon: admission control, device-slot scheduling, and the
//! blocking request handler that the stdio and TCP front-ends share.
//!
//! ## Job lifecycle
//!
//! ```text
//! parse ──> compile (artifact cache) ──> admission ──> queue ──> execute
//!   │             │                          │            │         │
//!   │protocol err │compile err               │reject      │wait for │run err
//!   ▼             ▼                          ▼ (predicted │a device ▼
//!  error         error                      error  fits   │slot    error
//!                                           no device)    ▼
//! ```
//!
//! Admission compares the job's predicted peak device bytes — a learned
//! measured peak when this artifact has run on these argument shapes
//! before, otherwise the static lower bound
//! [`futhark_gpu::predict_peak_bytes`] — against each device's capacity.
//! A job that fits no device is rejected *before* any device time is
//! spent, with the prediction in the error. Admitted jobs block until a
//! device with sufficient capacity frees up, then execute within that
//! device's capacity. The static bound is a lower bound and cannot see
//! kernels' private arrays, so an admitted job can still outgrow the
//! device; it then fails mid-flight with the simulator's `OutOfMemory`
//! as a run error instead of growing the host, and the size it asked for
//! is learned, so the next submission with the same artifact and shapes
//! is rejected at admission (or placed on a larger device). Private
//! arrays are charged against the capacity per running work-group, so a
//! job's private arrays take at most its request's `threads` × the
//! device capacity of host memory; `threads` above the host's available
//! parallelism is a protocol error.
//!
//! ## Telemetry
//!
//! Every lifecycle edge above feeds the [`crate::metrics::Metrics`]
//! registry (counters, latency histograms for queue-wait / compile /
//! execute / end-to-end, per-device busy time) and the
//! [`crate::recorder::FlightRecorder`] ring (structured per-job events).
//! The `metrics` protocol op — and `futharkd --metrics` — surface the
//! registry as JSON, Prometheus text, or a Chrome/Perfetto daemon
//! timeline; `stats` is a compatibility projection of the same registry.
//! All daemon locks recover from poison (the crate-private `lock_ok`): one
//! panicking job thread must not wedge every future scrape.

use crate::cache::{artifact_key_sched, shape_signature, ArtifactCache, CacheStats};
use crate::lock_ok;
use crate::metrics::{registry_json, registry_prometheus, GaugeSet, Metrics};
use crate::proto::{self, ErrorKind, MetricsFormat, Request, Response, RunRequest, Span};
use crate::recorder::{EventKind, FlightRecorder};
use futhark::{Compiler, DeviceProfile, ExecError, RunOptions, SimEngine, SimError};
use futhark_trace::{ChromeTrace, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The simulated device pool; one job runs per device at a time.
    pub devices: Vec<DeviceProfile>,
    /// Maximum requests in flight (compiling or executing) at once.
    pub workers: usize,
    /// Artifact-cache capacity (entries).
    pub cache_capacity: usize,
    /// TCP accept-loop poll interval, milliseconds ([`serve_tcp`] sleeps
    /// this long when no connection is pending; each sleep counts one
    /// `accept.wakeups`).
    pub accept_poll_ms: u64,
    /// Flight-recorder ring capacity (events).
    pub recorder_capacity: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            devices: vec![DeviceProfile::gtx780()],
            workers: 4,
            cache_capacity: 128,
            accept_poll_ms: 20,
            recorder_capacity: 256,
        }
    }
}

/// Lifetime counters, reported by the `stats` op. Since the metrics
/// registry landed this is a *projection* of the registry, kept for
/// backward compatibility of the `stats` protocol op and embedders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs that ran to completion within capacity.
    pub jobs_completed: u64,
    /// Jobs rejected at admission.
    pub jobs_rejected: u64,
    /// Jobs that failed in compilation or execution.
    pub jobs_failed: u64,
    /// Malformed request lines.
    pub protocol_errors: u64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
}

/// Scheduler state under the mutex: per-device busy flags, the
/// in-flight job count the drain waits on, and the device-queue depth.
struct Sched {
    busy: Vec<bool>,
    inflight: u64,
    /// Admitted jobs currently blocked waiting for a device slot.
    waiting: u64,
    draining: bool,
}

struct Inner {
    cfg: DaemonConfig,
    cache: Mutex<ArtifactCache>,
    sched: Mutex<Sched>,
    cond: Condvar,
    metrics: Metrics,
    recorder: Mutex<FlightRecorder>,
    start: Instant,
    /// The largest `threads` a request may ask for: the host's available
    /// parallelism, read once here rather than per request.
    max_threads: usize,
    /// Set once a shutdown response has been sent; front-ends exit.
    stopped: AtomicBool,
}

/// The persistent compile-and-execute service. Cheap to clone-by-`Arc`;
/// [`Daemon::handle`] is blocking and safe to call from many threads.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
}

impl Daemon {
    /// Builds a daemon over a device pool.
    ///
    /// # Panics
    /// Panics if the pool is empty.
    pub fn new(cfg: DaemonConfig) -> Daemon {
        assert!(!cfg.devices.is_empty(), "daemon needs at least one device");
        let n = cfg.devices.len();
        let cache_capacity = cfg.cache_capacity;
        let recorder_capacity = cfg.recorder_capacity;
        let device_names = cfg.devices.iter().map(|d| d.name.clone()).collect();
        Daemon {
            inner: Arc::new(Inner {
                cfg,
                cache: Mutex::new(ArtifactCache::new(cache_capacity)),
                sched: Mutex::new(Sched {
                    busy: vec![false; n],
                    inflight: 0,
                    waiting: 0,
                    draining: false,
                }),
                cond: Condvar::new(),
                metrics: Metrics::new(device_names),
                recorder: Mutex::new(FlightRecorder::new(recorder_capacity)),
                start: Instant::now(),
                max_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                stopped: AtomicBool::new(false),
            }),
        }
    }

    /// The device class admission and compilation are resolved against:
    /// the most capacious profile in the pool (for a homogeneous pool,
    /// simply *the* profile).
    fn class_profile(&self) -> &DeviceProfile {
        self.inner
            .cfg
            .devices
            .iter()
            .max_by_key(|d| d.global_mem_bytes)
            .expect("non-empty pool")
    }

    /// Whether a shutdown has completed.
    pub fn stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::SeqCst)
    }

    /// Jobs currently accepted and not yet answered (queued or running).
    pub fn inflight(&self) -> u64 {
        lock_ok(&self.inner.sched).inflight
    }

    /// Microseconds since the daemon was built.
    fn now_us(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64() * 1e6
    }

    /// The metrics registry (counters, histograms, per-device busy time).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    fn record(&self, job: &str, kind: EventKind) {
        lock_ok(&self.inner.recorder).record(self.now_us(), job, kind);
    }

    /// Lifetime counters (a projection of the metrics registry, plus
    /// current cache stats).
    pub fn stats(&self) -> ServeStats {
        let m = &self.inner.metrics;
        ServeStats {
            jobs_completed: m.get("jobs.completed"),
            jobs_rejected: m.get("jobs.rejected"),
            jobs_failed: m.get("jobs.failed"),
            protocol_errors: m.get("protocol.errors"),
            cache: lock_ok(&self.inner.cache).stats(),
        }
    }

    /// Samples the point-in-time gauges from the live scheduler state.
    pub fn gauges(&self) -> GaugeSet {
        let sched = lock_ok(&self.inner.sched);
        let device_busy = sched.busy.clone();
        let devices_busy = device_busy.iter().filter(|&&b| b).count() as u64;
        let inflight = sched.inflight;
        let queue_depth = sched.waiting;
        drop(sched);
        GaugeSet {
            uptime_us: self.now_us(),
            inflight,
            queue_depth,
            devices_busy,
            cache_artifacts: lock_ok(&self.inner.cache).len() as u64,
            device_busy,
        }
    }

    /// Synchronises cache counters into the registry, then snapshots it.
    fn scrape(&self) -> crate::metrics::MetricsSnapshot {
        let cache = lock_ok(&self.inner.cache).stats();
        self.inner.metrics.with(|m| {
            // Cache counters live in the ArtifactCache; mirror them so a
            // scrape is one self-contained document. Counters only grow,
            // so setting by delta keeps the registry monotone.
            let dh = cache.hits.saturating_sub(m.counters.get("cache.hits"));
            let dm = cache.misses.saturating_sub(m.counters.get("cache.misses"));
            m.counters.add("cache.hits", dh);
            m.counters.add("cache.misses", dm);
            m.clone()
        })
    }

    /// The full registry as JSON: counters, gauges, the four latency
    /// histograms, per-device counters, and the flight-recorder tail
    /// (most recent `tail` events).
    pub fn metrics_json(&self, tail: usize) -> Json {
        let snap = self.scrape();
        let gauges = self.gauges();
        let recorder = lock_ok(&self.inner.recorder).to_json(tail);
        registry_json(&snap, &gauges, recorder)
    }

    /// The registry in the Prometheus plaintext exposition format.
    pub fn metrics_prometheus(&self) -> String {
        let snap = self.scrape();
        let gauges = self.gauges();
        registry_prometheus(&snap, &gauges)
    }

    /// The daemon timeline as a Chrome/Perfetto trace: one track per
    /// device, one for the queue, plus a queue-depth counter track.
    pub fn metrics_chrome(&self) -> ChromeTrace {
        let names: Vec<String> = self
            .inner
            .cfg
            .devices
            .iter()
            .map(|d| d.name.clone())
            .collect();
        lock_ok(&self.inner.recorder).chrome_trace(&names)
    }

    /// Handles one request, blocking until the response is ready. Safe to
    /// call concurrently; `run` jobs queue on the device pool.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Stats { id } => Response::Stats {
                id: id.clone(),
                body: self.stats_json(),
            },
            Request::Metrics { id, format, tail } => Response::Metrics {
                id: id.clone(),
                body: match format {
                    MetricsFormat::Json => self.metrics_json(*tail),
                    MetricsFormat::Prometheus => {
                        Json::obj(vec![("text", Json::Str(self.metrics_prometheus()))])
                    }
                    MetricsFormat::Chrome => self.metrics_chrome().to_json(),
                },
            },
            Request::Shutdown { id } => self.shutdown(id),
            Request::Run(r) => self.run(r),
        }
    }

    /// Parses and handles one wire line, returning the response line.
    pub fn handle_line(&self, line: &str) -> String {
        match proto::parse_request(line) {
            Ok(req) => self.handle(&req).render(),
            Err((id, message)) => {
                self.inner.metrics.bump("protocol.errors");
                Response::Error {
                    id,
                    kind: ErrorKind::Protocol,
                    message,
                    predicted_peak_bytes: None,
                    capacity: None,
                }
                .render()
            }
        }
    }

    /// The `stats` body: unchanged key set from before the registry
    /// landed, now derived from it.
    fn stats_json(&self) -> Json {
        let s = self.stats();
        let sched = lock_ok(&self.inner.sched);
        let inflight = sched.inflight;
        let devices: Vec<Json> = self
            .inner
            .cfg
            .devices
            .iter()
            .zip(&sched.busy)
            .map(|(d, &busy)| {
                Json::obj(vec![
                    ("name", Json::Str(d.name.clone())),
                    ("capacity_bytes", Json::U64(d.global_mem_bytes)),
                    ("busy", Json::Bool(busy)),
                ])
            })
            .collect();
        drop(sched);
        let artifacts = lock_ok(&self.inner.cache).len();
        Json::obj(vec![
            ("jobs_completed", Json::U64(s.jobs_completed)),
            ("jobs_rejected", Json::U64(s.jobs_rejected)),
            ("jobs_failed", Json::U64(s.jobs_failed)),
            ("protocol_errors", Json::U64(s.protocol_errors)),
            ("inflight", Json::U64(inflight)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::U64(s.cache.hits)),
                    ("misses", Json::U64(s.cache.misses)),
                    ("evictions", Json::U64(s.cache.evictions)),
                    ("hit_rate", Json::F64(s.cache.hit_rate())),
                    ("artifacts", Json::U64(artifacts as u64)),
                ]),
            ),
            ("devices", Json::Arr(devices)),
        ])
    }

    /// Drain: refuse new work, wait for in-flight jobs, acknowledge.
    fn shutdown(&self, id: &str) -> Response {
        let mut sched = lock_ok(&self.inner.sched);
        sched.draining = true;
        self.inner.cond.notify_all();
        while sched.inflight > 0 {
            sched = self
                .inner
                .cond
                .wait(sched)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(sched);
        self.inner.stopped.store(true, Ordering::SeqCst);
        Response::ShutdownOk {
            id: id.to_string(),
            jobs_completed: self.stats().jobs_completed,
        }
    }

    fn run(&self, r: &RunRequest) -> Response {
        // Each thread becomes an OS thread during execution: more than the
        // host can run buys nothing, and a failed spawn would panic.
        if r.threads > self.inner.max_threads {
            self.inner.metrics.bump("protocol.errors");
            return Response::Error {
                id: r.id.clone(),
                kind: ErrorKind::Protocol,
                message: format!(
                    "run: \"threads\" must be <= {}, the host's available parallelism",
                    self.inner.max_threads
                ),
                predicted_peak_bytes: None,
                capacity: None,
            };
        }
        // Register as in flight (or refuse when draining) before any
        // work, so a shutdown drains exactly the accepted jobs.
        {
            let mut sched = lock_ok(&self.inner.sched);
            if sched.draining {
                return Response::Error {
                    id: r.id.clone(),
                    kind: ErrorKind::Protocol,
                    message: "server is shutting down".into(),
                    predicted_peak_bytes: None,
                    capacity: None,
                };
            }
            sched.inflight += 1;
        }
        let resp = self.run_inflight(r);
        let mut sched = lock_ok(&self.inner.sched);
        sched.inflight -= 1;
        self.inner.cond.notify_all();
        drop(sched);
        resp
    }

    fn run_inflight(&self, r: &RunRequest) -> Response {
        let t_received = Instant::now();
        self.inner.metrics.bump("jobs.received");
        self.record(&r.id, EventKind::Received);
        let mut spans = Vec::new();
        let class = self.class_profile().clone();
        // The schedule keys the artifact cache, so two schedules for the
        // same source occupy distinct entries.
        let key = artifact_key_sched(&r.source, &r.schedule, &class);

        // Compile, or hit the artifact cache. The lock is held only for
        // the lookup/insert, not for compilation — concurrent misses of
        // the same key may compile twice, but both insert the same
        // content-addressed artifact, so the race is benign.
        let cached = lock_ok(&self.inner.cache).get(key);
        let (artifact, cache_hit) = match cached {
            Some(a) => (a, true),
            None => {
                let t0 = Instant::now();
                let compiled = Compiler::with_schedule(r.schedule.clone()).compile(&r.source);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                match compiled {
                    Ok(c) => {
                        spans.push(Span {
                            name: "compile",
                            us,
                        });
                        self.inner.metrics.with(|m| m.compile_us.observe_us(us));
                        let a = Arc::new(c);
                        lock_ok(&self.inner.cache).insert(key, Arc::clone(&a));
                        (a, false)
                    }
                    Err(e) => {
                        self.inner.metrics.with(|m| {
                            m.counters.bump("jobs.failed");
                            m.counters.bump("jobs.failed.compile");
                        });
                        self.record(
                            &r.id,
                            EventKind::Failed {
                                stage: "compile",
                                device: None,
                            },
                        );
                        return Response::Error {
                            id: r.id.clone(),
                            kind: ErrorKind::Compile,
                            message: e.to_string(),
                            predicted_peak_bytes: None,
                            capacity: None,
                        };
                    }
                }
            }
        };

        // Admission: learned peak (measured for these shapes, or what a
        // run that ran out of memory asked for) or the static lower bound.
        let sig = shape_signature(&r.args);
        let predicted =
            { lock_ok(&self.inner.cache).learned_peak(key, &sig) }.unwrap_or_else(|| {
                futhark_gpu::predict_peak_bytes(&artifact.plan, &class, &r.args).peak_bytes
            });
        let best_capacity = class.global_mem_bytes;
        if !self
            .inner
            .cfg
            .devices
            .iter()
            .any(|d| predicted <= d.global_mem_bytes)
        {
            self.inner.metrics.bump("jobs.rejected");
            self.record(
                &r.id,
                EventKind::Rejected {
                    predicted_peak_bytes: predicted,
                    capacity: best_capacity,
                },
            );
            return Response::Error {
                id: r.id.clone(),
                kind: ErrorKind::Admission,
                message: format!(
                    "predicted peak {predicted} bytes exceeds every device \
                     capacity (best {best_capacity} bytes)"
                ),
                predicted_peak_bytes: Some(predicted),
                capacity: Some(best_capacity),
            };
        }

        // Queue for a device whose capacity covers the prediction.
        // `queue_depth_at_admission` is how many admitted jobs were
        // already waiting for a slot when this one joined the queue.
        let tq = Instant::now();
        let (dev_idx, queue_depth_at_admission) = {
            let mut sched = lock_ok(&self.inner.sched);
            let depth = sched.waiting;
            self.inner.metrics.bump("jobs.admitted");
            self.record(
                &r.id,
                EventKind::Admitted {
                    artifact_key: key,
                    shapes: sig.clone(),
                    cache_hit,
                    predicted_peak_bytes: predicted,
                    queue_depth: depth,
                },
            );
            let mut waited = false;
            let idx = loop {
                let free = (0..self.inner.cfg.devices.len()).find(|&i| {
                    !sched.busy[i] && predicted <= self.inner.cfg.devices[i].global_mem_bytes
                });
                match free {
                    Some(i) => {
                        sched.busy[i] = true;
                        if waited {
                            sched.waiting -= 1;
                        }
                        break i;
                    }
                    None => {
                        if !waited {
                            waited = true;
                            sched.waiting += 1;
                            self.inner.metrics.bump("queue.waits");
                        }
                        sched = self
                            .inner
                            .cond
                            .wait(sched)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                }
            };
            (idx, depth)
        };
        let queue_us = tq.elapsed().as_secs_f64() * 1e6;
        spans.push(Span {
            name: "queue",
            us: queue_us,
        });
        self.inner
            .metrics
            .with(|m| m.queue_wait_us.observe_us(queue_us));
        self.record(&r.id, EventKind::Started { device: dev_idx });

        // Execute within the device's capacity: the prediction is a lower
        // bound, and private arrays are invisible to it, so a job that
        // outgrows the device stops with `OutOfMemory` rather than
        // growing the host without bound.
        let device = &self.inner.cfg.devices[dev_idx];
        let opts = RunOptions {
            threads: r.threads,
            profile: false,
            engine: SimEngine::Warp,
        };
        let target = device.clone();
        let te = Instant::now();
        let result = artifact.run_with_opts(target, &r.args, opts);
        let execute_us = te.elapsed().as_secs_f64() * 1e6;
        spans.push(Span {
            name: "execute",
            us: execute_us,
        });
        self.inner.metrics.with(|m| {
            m.execute_us.observe_us(execute_us);
            m.devices[dev_idx].jobs += 1;
            m.devices[dev_idx].busy_us += execute_us.round() as u64;
        });

        // Release the device slot.
        {
            let mut sched = lock_ok(&self.inner.sched);
            sched.busy[dev_idx] = false;
            self.inner.cond.notify_all();
        }

        let e2e_us = t_received.elapsed().as_secs_f64() * 1e6;
        self.inner.metrics.with(|m| m.e2e_us.observe_us(e2e_us));
        match result {
            Ok((outputs, perf)) => {
                let measured = perf.mem.peak_bytes;
                lock_ok(&self.inner.cache).learn_peak(key, &sig, measured);
                self.inner.metrics.bump("jobs.completed");
                self.record(
                    &r.id,
                    EventKind::Finished {
                        device: dev_idx,
                        predicted_peak_bytes: predicted,
                        measured_peak_bytes: measured,
                        total_us: perf.total_us,
                    },
                );
                Response::RunOk {
                    id: r.id.clone(),
                    outputs,
                    spans,
                    cache_hit,
                    predicted_peak_bytes: predicted,
                    device: device.name.clone(),
                    queue_depth_at_admission,
                    measured_peak_bytes: measured,
                    total_us: perf.total_us,
                }
            }
            Err(e) => {
                if let futhark::Error::Exec(ExecError::Sim(SimError::OutOfMemory {
                    requested,
                    live,
                    ..
                })) = &e
                {
                    let needed = live.saturating_add(*requested);
                    lock_ok(&self.inner.cache).learn_peak(key, &sig, needed);
                }
                self.inner.metrics.with(|m| {
                    m.counters.bump("jobs.failed");
                    m.counters.bump("jobs.failed.run");
                });
                self.record(
                    &r.id,
                    EventKind::Failed {
                        stage: "run",
                        device: Some(dev_idx),
                    },
                );
                Response::Error {
                    id: r.id.clone(),
                    kind: ErrorKind::Run,
                    message: e.to_string(),
                    predicted_peak_bytes: Some(predicted),
                    capacity: Some(device.global_mem_bytes),
                }
            }
        }
    }
}

/// Serves line-delimited JSON over a reader/writer pair (the stdio
/// front-end, also used over TCP streams). Requests are handled
/// concurrently up to the configured worker count; responses are written
/// as they complete (correlate by `id`). Returns after a `shutdown`
/// response has been written, or at end of input (which also drains).
pub fn serve_lines<R, W>(daemon: &Daemon, reader: R, writer: W) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let workers = daemon.inner.cfg.workers.max(1);
    dispatch_lines(reader, writer, workers, |line| daemon.handle_line(line))
}

/// Releases one handler slot when dropped, so a panicking handler frees
/// its slot too.
struct SlotGuard<'a>(&'a (Mutex<usize>, Condvar));

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        let mut active = lock_ok(&self.0 .0);
        *active -= 1;
        self.0 .1.notify_one();
    }
}

/// The dispatch loop of [`serve_lines`] over any line handler: at most
/// `workers` handlers run at once, and a `shutdown` line stops dispatch,
/// waits for the running handlers, and is then handled itself. A handler
/// that panics still frees its slot, so the loop keeps answering the
/// other lines and ends; the panic propagates when the loop returns.
fn dispatch_lines<R, W, H>(reader: R, writer: W, workers: usize, handle: H) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
    H: Fn(&str) -> String + Sync,
{
    let writer = Mutex::new(writer);
    let write_line = |line: &str| -> std::io::Result<()> {
        let mut w = lock_ok(&writer);
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    };
    let slots = (Mutex::new(0usize), Condvar::new());
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut shutdown_line: Option<String> = None;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            // A shutdown drains: stop dispatching, wait for the
            // outstanding handlers, then acknowledge.
            if matches!(proto::parse_request(&line), Ok(Request::Shutdown { .. })) {
                shutdown_line = Some(line);
                break;
            }
            // Throttle to `workers` concurrent handlers.
            {
                let mut active = lock_ok(&slots.0);
                while *active >= workers {
                    active = slots.1.wait(active).unwrap_or_else(|e| e.into_inner());
                }
                *active += 1;
            }
            let slot = SlotGuard(&slots);
            let (handle, write_line) = (&handle, &write_line);
            scope.spawn(move || {
                let _slot = slot;
                let _ = write_line(&handle(&line));
            });
        }
        // Wait for all dispatched handlers before acknowledging the
        // shutdown (or returning at EOF).
        {
            let mut active = lock_ok(&slots.0);
            while *active > 0 {
                active = slots.1.wait(active).unwrap_or_else(|e| e.into_inner());
            }
        }
        if let Some(line) = shutdown_line {
            write_line(&handle(&line))?;
        }
        Ok(())
    })
}

/// Serves connections on a TCP listener, one thread per connection, until
/// a `shutdown` request completes on any of them. The accept loop polls
/// at [`DaemonConfig::accept_poll_ms`]; every idle wakeup counts one
/// `accept.wakeups` in the metrics registry.
pub fn serve_tcp(daemon: &Daemon, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poll = Duration::from_millis(daemon.inner.cfg.accept_poll_ms.max(1));
    std::thread::scope(|scope| -> std::io::Result<()> {
        loop {
            if daemon.stopped() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let daemon = daemon.clone();
                    scope.spawn(move || {
                        let reader = BufReader::new(match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => return,
                        });
                        let _ = serve_lines(&daemon, reader, stream);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    daemon.inner.metrics.bump("accept.wakeups");
                    std::thread::sleep(poll);
                }
                Err(e) => return Err(e),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::dispatch_lines;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn a_panicking_handler_does_not_hang_the_drain() {
        let input = "a\nboom\nb\nc\n{\"op\":\"shutdown\",\"id\":\"z\"}\n";
        for workers in [1, 2] {
            let (tx, rx) = mpsc::channel();
            let worker = std::thread::spawn(move || {
                let mut out = Vec::new();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    dispatch_lines(input.as_bytes(), &mut out, workers, |line| {
                        assert_ne!(line, "boom", "injected handler panic");
                        format!("ok {line}")
                    })
                }));
                let _ = tx.send((run.is_err(), String::from_utf8(out).unwrap()));
            });
            let (panicked, out) = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| {
                    panic!("dispatch loop hung after a handler panic ({workers} workers)")
                });
            worker
                .join()
                .expect("the dispatch thread catches the handler panic");
            assert!(panicked, "the handler panic propagates once the loop ends");
            let mut lines: Vec<&str> = out.lines().collect();
            lines.sort_unstable();
            assert_eq!(
                lines,
                [
                    "ok a",
                    "ok b",
                    "ok c",
                    "ok {\"op\":\"shutdown\",\"id\":\"z\"}"
                ],
                "every other line is answered ({workers} workers)"
            );
        }
    }
}
