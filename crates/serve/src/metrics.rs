//! The daemon metrics registry: monotone counters, point-in-time
//! gauges, and fixed-bucket latency histograms, behind one short-lived
//! lock.
//!
//! Counters follow the `futhark_trace::Counters` dotted-key convention
//! (`jobs.admitted`, `cache.hits`, `accept.wakeups`); the full key set is
//! pre-declared in [`COUNTER_KEYS`] so every scrape — JSON or Prometheus
//! text — emits every counter (zeros included) in a deterministic order.
//! Histograms ([`futhark_trace::Histogram`]) cover the four stages of a
//! job's latency: queue wait, compile, execute, and end-to-end; each
//! observes wall-clock microseconds into fixed power-of-two buckets, so
//! quantile estimates carry a 2× bucket bound; the test
//! `gauges_return_to_zero_after_drain` (`tests/metrics.rs`) asserts the
//! end-to-end p50 and p99 against client-side measurements with it.
//! Per-device counters track jobs executed and busy microseconds;
//! utilization gauges derive from busy time over daemon uptime at scrape
//! time.
//!
//! Gauges (in-flight jobs, device-queue depth, busy devices, cached
//! artifacts, uptime) are *sampled* by the daemon at scrape time from
//! the live scheduler state — the registry never caches a value that the
//! scheduler already owns.

use futhark_trace::{Counters, Exposition, Histogram, Json};
use std::sync::Mutex;

/// Every counter the registry exposes, in exposition order. Scrapes emit
/// all of them (zero when never bumped), so the schema of a scrape does
/// not depend on which code paths have fired yet.
pub const COUNTER_KEYS: [&str; 12] = [
    "jobs.received",
    "jobs.admitted",
    "jobs.rejected",
    "jobs.completed",
    "jobs.failed",
    "jobs.failed.compile",
    "jobs.failed.run",
    "protocol.errors",
    "queue.waits",
    "accept.wakeups",
    "cache.hits",
    "cache.misses",
];

/// Per-device monotone counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceCounters {
    /// Device name (pool-unique).
    pub name: String,
    /// Jobs executed on this device.
    pub jobs: u64,
    /// Wall-clock microseconds the device spent executing.
    pub busy_us: u64,
}

/// The registry contents (cloned out as a consistent snapshot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotone counters (dotted keys; see [`COUNTER_KEYS`]).
    pub counters: Counters,
    /// Wait between admission and device-slot acquisition.
    pub queue_wait_us: Histogram,
    /// Wall-clock compile time (cache misses only).
    pub compile_us: Histogram,
    /// Wall-clock execution time on a device slot.
    pub execute_us: Histogram,
    /// Received-to-response latency of admitted jobs.
    pub e2e_us: Histogram,
    /// Per-device execution counters, pool order.
    pub devices: Vec<DeviceCounters>,
}

/// Point-in-time values the daemon samples at scrape time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSet {
    /// Microseconds since daemon start.
    pub uptime_us: f64,
    /// Jobs accepted and not yet answered.
    pub inflight: u64,
    /// Jobs waiting for a device slot.
    pub queue_depth: u64,
    /// Devices currently executing a job.
    pub devices_busy: u64,
    /// Artifacts in the compiled-artifact cache.
    pub cache_artifacts: u64,
    /// Per-device busy flags, pool order.
    pub device_busy: Vec<bool>,
}

/// The lock-cheap registry: one mutex, short critical sections, poison
/// recovered (a panicking job thread must not wedge future scrapes).
#[derive(Debug)]
pub struct Metrics {
    inner: Mutex<MetricsSnapshot>,
}

impl Metrics {
    /// A fresh registry for a pool of `device_names`.
    pub fn new(device_names: Vec<String>) -> Metrics {
        Metrics {
            inner: Mutex::new(MetricsSnapshot {
                devices: device_names
                    .into_iter()
                    .map(|name| DeviceCounters {
                        name,
                        jobs: 0,
                        busy_us: 0,
                    })
                    .collect(),
                ..MetricsSnapshot::default()
            }),
        }
    }

    /// Runs `f` under the registry lock (poison-recovering).
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsSnapshot) -> R) -> R {
        f(&mut crate::lock_ok(&self.inner))
    }

    /// Increments a counter by one.
    pub fn bump(&self, key: &str) {
        self.with(|m| m.counters.bump(key));
    }

    /// Increments a counter by `n`.
    pub fn add(&self, key: &str, n: u64) {
        self.with(|m| m.counters.add(key, n));
    }

    /// The current counter value.
    pub fn get(&self, key: &str) -> u64 {
        self.with(|m| m.counters.get(key))
    }

    /// A consistent copy of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with(|m| m.clone())
    }
}

fn histogram_json(h: &Histogram) -> Json {
    let mut j = h.to_json();
    if let Json::Obj(pairs) = &mut j {
        pairs.push(("p50_us".to_string(), Json::F64(h.p50())));
        pairs.push(("p99_us".to_string(), Json::F64(h.p99())));
    }
    j
}

/// Renders the full registry (snapshot + gauges + recorder summary) as
/// the JSON body of the `metrics` protocol op. `recorder` is the
/// already-serialised flight-recorder object.
pub fn registry_json(snap: &MetricsSnapshot, gauges: &GaugeSet, recorder: Json) -> Json {
    let mut counters: Vec<(&str, Json)> = COUNTER_KEYS
        .iter()
        .map(|&k| (k, Json::U64(snap.counters.get(k))))
        .collect();
    // Any counters outside the pre-declared set (future-proofing) follow
    // in their own sorted order.
    for (k, v) in snap.counters.iter() {
        if !COUNTER_KEYS.contains(&k) {
            counters.push((k, Json::U64(v)));
        }
    }
    let devices: Vec<Json> = snap
        .devices
        .iter()
        .zip(
            gauges
                .device_busy
                .iter()
                .copied()
                .chain(std::iter::repeat(false)),
        )
        .map(|(d, busy)| {
            let utilization = if gauges.uptime_us > 0.0 {
                (d.busy_us as f64 / gauges.uptime_us).min(1.0)
            } else {
                0.0
            };
            Json::obj(vec![
                ("name", Json::Str(d.name.clone())),
                ("jobs", Json::U64(d.jobs)),
                ("busy_us", Json::U64(d.busy_us)),
                ("busy", Json::Bool(busy)),
                ("utilization", Json::F64(utilization)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("counters", Json::obj(counters)),
        (
            "gauges",
            Json::obj(vec![
                ("uptime_us", Json::F64(gauges.uptime_us)),
                ("inflight", Json::U64(gauges.inflight)),
                ("queue_depth", Json::U64(gauges.queue_depth)),
                ("devices_busy", Json::U64(gauges.devices_busy)),
                ("cache_artifacts", Json::U64(gauges.cache_artifacts)),
            ]),
        ),
        (
            "histograms",
            Json::obj(vec![
                ("queue_wait_us", histogram_json(&snap.queue_wait_us)),
                ("compile_us", histogram_json(&snap.compile_us)),
                ("execute_us", histogram_json(&snap.execute_us)),
                ("e2e_us", histogram_json(&snap.e2e_us)),
            ]),
        ),
        ("devices", Json::Arr(devices)),
        ("recorder", recorder),
    ])
}

/// Renders the registry in the Prometheus text format, `futharkd_`
/// prefixed, deterministically ordered: counters first (declaration
/// order), then gauges, per-device families, and the four histograms.
pub fn registry_prometheus(snap: &MetricsSnapshot, gauges: &GaugeSet) -> String {
    let mut e = Exposition::new();
    for &key in &COUNTER_KEYS {
        let name = format!("futharkd_{}_total", key.replace('.', "_"));
        e.counter(
            &name,
            &format!("Monotone counter {key}"),
            snap.counters.get(key),
        );
    }
    e.gauge(
        "futharkd_inflight",
        "Jobs accepted and not yet answered",
        gauges.inflight,
    );
    e.gauge(
        "futharkd_queue_depth",
        "Jobs waiting for a device slot",
        gauges.queue_depth,
    );
    e.gauge(
        "futharkd_devices_busy",
        "Devices currently executing a job",
        gauges.devices_busy,
    );
    e.gauge(
        "futharkd_cache_artifacts",
        "Artifacts in the compiled-artifact cache",
        gauges.cache_artifacts,
    );
    e.header(
        "futharkd_uptime_us",
        "Microseconds since daemon start",
        "gauge",
    );
    e.sample_f64("futharkd_uptime_us", &[], gauges.uptime_us);
    e.header(
        "futharkd_device_jobs_total",
        "Jobs executed per device",
        "counter",
    );
    for d in &snap.devices {
        e.sample_u64("futharkd_device_jobs_total", &[("device", &d.name)], d.jobs);
    }
    e.header(
        "futharkd_device_busy_us_total",
        "Wall-clock microseconds spent executing per device",
        "counter",
    );
    for d in &snap.devices {
        e.sample_u64(
            "futharkd_device_busy_us_total",
            &[("device", &d.name)],
            d.busy_us,
        );
    }
    e.header(
        "futharkd_device_utilization",
        "Busy time over uptime per device",
        "gauge",
    );
    for d in &snap.devices {
        let u = if gauges.uptime_us > 0.0 {
            (d.busy_us as f64 / gauges.uptime_us).min(1.0)
        } else {
            0.0
        };
        e.sample_f64("futharkd_device_utilization", &[("device", &d.name)], u);
    }
    e.histogram(
        "futharkd_queue_wait_us",
        "Wait between admission and device-slot acquisition (µs)",
        &snap.queue_wait_us,
    );
    e.histogram(
        "futharkd_compile_us",
        "Wall-clock compile time on cache misses (µs)",
        &snap.compile_us,
    );
    e.histogram(
        "futharkd_execute_us",
        "Wall-clock execution time on a device slot (µs)",
        &snap.execute_us,
    );
    e.histogram(
        "futharkd_e2e_us",
        "Received-to-response latency of admitted jobs (µs)",
        &snap.e2e_us,
    );
    e.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrapes_emit_every_declared_counter_even_at_zero() {
        let m = Metrics::new(vec!["d0".into()]);
        m.bump("jobs.received");
        let j = registry_json(&m.snapshot(), &GaugeSet::default(), Json::Null);
        let counters = j.get("counters").unwrap();
        for key in COUNTER_KEYS {
            assert!(counters.get(key).is_some(), "missing {key}");
        }
        assert_eq!(counters.get("jobs.received").unwrap().as_u64(), Some(1));
        assert_eq!(counters.get("jobs.admitted").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_complete() {
        let m = Metrics::new(vec!["gtx780#0".into(), "gtx780#1".into()]);
        m.add("jobs.admitted", 3);
        m.with(|s| {
            s.e2e_us.observe_us(400.0);
            s.devices[1].jobs = 2;
            s.devices[1].busy_us = 500;
        });
        let g = GaugeSet {
            uptime_us: 1000.0,
            device_busy: vec![false, true],
            devices_busy: 1,
            ..GaugeSet::default()
        };
        let a = registry_prometheus(&m.snapshot(), &g);
        let b = registry_prometheus(&m.snapshot(), &g);
        assert_eq!(a, b);
        assert!(a.contains("futharkd_jobs_admitted_total 3"));
        assert!(
            a.contains("futharkd_jobs_rejected_total 0"),
            "zeros present"
        );
        assert!(a.contains("futharkd_device_busy_us_total{device=\"gtx780#1\"} 500"));
        assert!(a.contains("futharkd_device_utilization{device=\"gtx780#1\"} 0.5"));
        assert!(a.contains("futharkd_e2e_us_bucket{le=\"+Inf\"} 1"));
        assert!(a.contains("# TYPE futharkd_e2e_us histogram"));
    }

    #[test]
    fn registry_json_carries_quantiles_and_utilization() {
        let m = Metrics::new(vec!["d0".into()]);
        m.with(|s| {
            for _ in 0..10 {
                s.e2e_us.observe_us(200.0);
            }
            s.devices[0].busy_us = 250;
        });
        let g = GaugeSet {
            uptime_us: 1000.0,
            device_busy: vec![true],
            ..GaugeSet::default()
        };
        let j = registry_json(&m.snapshot(), &g, Json::Null);
        let e2e = j.get("histograms").unwrap().get("e2e_us").unwrap();
        assert_eq!(e2e.get("count").unwrap().as_u64(), Some(10));
        let p50 = e2e.get("p50_us").unwrap().as_f64().unwrap();
        assert!((100.0..=400.0).contains(&p50), "p50 within 2x: {p50}");
        let d = &j.get("devices").unwrap().as_arr().unwrap()[0];
        assert_eq!(d.get("utilization").unwrap().as_f64(), Some(0.25));
        assert_eq!(d.get("busy"), Some(&Json::Bool(true)));
    }
}
