//! The flight recorder: a bounded ring buffer of structured per-job
//! lifecycle events.
//!
//! Every `run` job emits events as it moves through the daemon —
//! `received` → `admitted`/`rejected` → `started(device)` →
//! `finished`/`failed` — each stamped with a monotone sequence number
//! and a timestamp relative to daemon start. The ring keeps the most
//! recent [`FlightRecorder::capacity`] events (old ones are dropped, and
//! the drop count is reported), while *totals per event kind* are
//! tracked unboundedly, so ledger invariants ("finished + failed-run
//! events == jobs admitted") survive ring overflow.
//!
//! The recorder is also the source of the daemon timeline: a
//! [`FlightRecorder::chrome_trace`] export lays jobs out on one track per device plus a
//! queue track (with a queue-depth counter track), loadable in Perfetto.

use futhark_trace::{ChromeTrace, Counters, Json};
use std::collections::VecDeque;

/// One recorded lifecycle step of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobEvent {
    /// Monotone sequence number over the daemon's lifetime (0-based).
    pub seq: u64,
    /// Microseconds since daemon start.
    pub ts_us: f64,
    /// The job's correlation id.
    pub job: String,
    /// What happened.
    pub kind: EventKind,
}

/// The lifecycle step taken.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The run request was parsed and registered in flight.
    Received,
    /// Admission rejected the job: no device fits the prediction.
    Rejected {
        /// Predicted peak device bytes.
        predicted_peak_bytes: u64,
        /// The largest capacity in the pool.
        capacity: u64,
    },
    /// Admission passed; the job joins the device queue.
    Admitted {
        /// Content-addressed artifact key.
        artifact_key: u64,
        /// Argument shape signature.
        shapes: String,
        /// Whether the artifact cache served the compile.
        cache_hit: bool,
        /// Predicted peak device bytes (learned or static bound).
        predicted_peak_bytes: u64,
        /// Jobs already waiting for a device slot at admission time.
        queue_depth: u64,
    },
    /// A device slot was acquired; execution begins.
    Started {
        /// Pool index of the executing device.
        device: usize,
    },
    /// Execution completed within capacity.
    Finished {
        /// Pool index of the executing device.
        device: usize,
        /// The admission-time prediction, for comparison.
        predicted_peak_bytes: u64,
        /// Measured peak device bytes.
        measured_peak_bytes: u64,
        /// Modelled execution time, microseconds.
        total_us: f64,
    },
    /// The job failed; `stage` says where (`compile` or `run`).
    Failed {
        /// Failure stage.
        stage: &'static str,
        /// Executing device, when one was assigned.
        device: Option<usize>,
    },
}

impl EventKind {
    /// The event's wire/counter name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Received => "received",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Admitted { .. } => "admitted",
            EventKind::Started { .. } => "started",
            EventKind::Finished { .. } => "finished",
            EventKind::Failed { .. } => "failed",
        }
    }
}

impl JobEvent {
    /// Serialises one event (flat object; kind-specific fields inline).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", Json::U64(self.seq)),
            ("ts_us", Json::F64(self.ts_us)),
            ("job", Json::Str(self.job.clone())),
            ("event", Json::Str(self.kind.name().into())),
        ];
        match &self.kind {
            EventKind::Received => {}
            EventKind::Rejected {
                predicted_peak_bytes,
                capacity,
            } => {
                pairs.push(("predicted_peak_bytes", Json::U64(*predicted_peak_bytes)));
                pairs.push(("capacity", Json::U64(*capacity)));
            }
            EventKind::Admitted {
                artifact_key,
                shapes,
                cache_hit,
                predicted_peak_bytes,
                queue_depth,
            } => {
                pairs.push(("artifact_key", Json::U64(*artifact_key)));
                pairs.push(("shapes", Json::Str(shapes.clone())));
                pairs.push(("cache_hit", Json::Bool(*cache_hit)));
                pairs.push(("predicted_peak_bytes", Json::U64(*predicted_peak_bytes)));
                pairs.push(("queue_depth", Json::U64(*queue_depth)));
            }
            EventKind::Started { device } => {
                pairs.push(("device", Json::U64(*device as u64)));
            }
            EventKind::Finished {
                device,
                predicted_peak_bytes,
                measured_peak_bytes,
                total_us,
            } => {
                pairs.push(("device", Json::U64(*device as u64)));
                pairs.push(("predicted_peak_bytes", Json::U64(*predicted_peak_bytes)));
                pairs.push(("measured_peak_bytes", Json::U64(*measured_peak_bytes)));
                pairs.push(("total_us", Json::F64(*total_us)));
            }
            EventKind::Failed { stage, device } => {
                pairs.push(("stage", Json::Str((*stage).into())));
                if let Some(d) = device {
                    pairs.push(("device", Json::U64(*d as u64)));
                }
            }
        }
        Json::obj(pairs)
    }
}

/// The bounded ring of recent events plus unbounded per-kind totals.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<JobEvent>,
    next_seq: u64,
    dropped: u64,
    totals: Counters,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            totals: Counters::new(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one lifecycle event, evicting the oldest when full.
    pub fn record(&mut self, ts_us: f64, job: &str, kind: EventKind) {
        self.totals.bump(kind.name());
        let ev = JobEvent {
            seq: self.next_seq,
            ts_us,
            job: job.to_string(),
            kind,
        };
        self.next_seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Events recorded over the daemon's lifetime.
    pub fn total_events(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Lifetime totals per event kind (`received`, `admitted`, …) —
    /// unaffected by ring eviction.
    pub fn totals(&self) -> &Counters {
        &self.totals
    }

    /// The most recent `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<&JobEvent> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring.iter().skip(skip).collect()
    }

    /// Serialises the recorder: totals, drop accounting, and the last
    /// `tail_n` events.
    pub fn to_json(&self, tail_n: usize) -> Json {
        Json::obj(vec![
            ("capacity", Json::U64(self.capacity as u64)),
            ("total_events", Json::U64(self.total_events())),
            ("dropped", Json::U64(self.dropped)),
            ("totals", self.totals.to_json()),
            (
                "events",
                Json::Arr(self.tail(tail_n).iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }

    /// Exports the ring as a Chrome/Perfetto timeline: one track per
    /// device (execution slices, predicted vs measured bytes in the
    /// detail pane), one queue track (admission → start wait slices),
    /// and a queue-depth counter track sampled at each admission. Jobs
    /// whose start or end events were evicted from the ring are skipped.
    pub fn chrome_trace(&self, device_names: &[String]) -> ChromeTrace {
        const PID: u64 = 1;
        const QUEUE_TID: u64 = 0;
        let mut t = ChromeTrace::new();
        t.name_lane(PID, QUEUE_TID, "queue");
        for (i, name) in device_names.iter().enumerate() {
            t.name_lane(PID, 1 + i as u64, &format!("device {name}"));
        }
        // Collect per-job milestones from whatever survives in the ring.
        struct Times {
            admitted: Option<f64>,
            started: Option<(f64, usize)>,
        }
        let mut jobs: std::collections::HashMap<&str, Times> = std::collections::HashMap::new();
        for ev in &self.ring {
            let entry = jobs.entry(ev.job.as_str()).or_insert(Times {
                admitted: None,
                started: None,
            });
            match &ev.kind {
                EventKind::Admitted { queue_depth, .. } => {
                    entry.admitted = Some(ev.ts_us);
                    t.counter("queue_depth", PID, QUEUE_TID, ev.ts_us, *queue_depth);
                }
                EventKind::Started { device } => entry.started = Some((ev.ts_us, *device)),
                EventKind::Finished {
                    device,
                    predicted_peak_bytes,
                    measured_peak_bytes,
                    total_us,
                } => {
                    if let Some((t0, d)) = entry.started {
                        debug_assert_eq!(d, *device);
                        t.complete(
                            &ev.job,
                            "job",
                            PID,
                            1 + *device as u64,
                            t0,
                            (ev.ts_us - t0).max(0.0),
                            vec![
                                ("predicted_peak_bytes", Json::U64(*predicted_peak_bytes)),
                                ("measured_peak_bytes", Json::U64(*measured_peak_bytes)),
                                ("modelled_us", Json::F64(*total_us)),
                            ],
                        );
                    }
                    if let Some(ta) = entry.admitted {
                        if let Some((t0, _)) = entry.started {
                            t.complete(
                                &format!("{} (queued)", ev.job),
                                "queue",
                                PID,
                                QUEUE_TID,
                                ta,
                                (t0 - ta).max(0.0),
                                vec![],
                            );
                        }
                    }
                }
                EventKind::Failed {
                    device: Some(d), ..
                } => {
                    if let Some((t0, _)) = entry.started {
                        t.complete(
                            &format!("{} (failed)", ev.job),
                            "job",
                            PID,
                            1 + *d as u64,
                            t0,
                            (ev.ts_us - t0).max(0.0),
                            vec![],
                        );
                    }
                }
                _ => {}
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_but_totals_do_not() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(i as f64, &format!("j{i}"), EventKind::Received);
        }
        assert_eq!(r.tail(100).len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.total_events(), 10);
        assert_eq!(r.totals().get("received"), 10);
        // Tail is the most recent events, oldest first.
        let seqs: Vec<u64> = r.tail(2).iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9]);
    }

    #[test]
    fn events_serialise_with_kind_fields() {
        let mut r = FlightRecorder::new(8);
        r.record(
            1.0,
            "a",
            EventKind::Admitted {
                artifact_key: 0xfeed,
                shapes: "8;I64[8];".into(),
                cache_hit: true,
                predicted_peak_bytes: 64,
                queue_depth: 2,
            },
        );
        r.record(2.0, "a", EventKind::Started { device: 1 });
        let j = r.to_json(16);
        let evs = j.get("events").unwrap().as_arr().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("event").unwrap().as_str(), Some("admitted"));
        assert_eq!(evs[0].get("queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(evs[0].get("cache_hit"), Some(&Json::Bool(true)));
        assert_eq!(evs[1].get("device").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("total_events").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn chrome_trace_lays_jobs_on_device_and_queue_tracks() {
        let mut r = FlightRecorder::new(64);
        r.record(0.0, "a", EventKind::Received);
        r.record(
            1.0,
            "a",
            EventKind::Admitted {
                artifact_key: 1,
                shapes: String::new(),
                cache_hit: false,
                predicted_peak_bytes: 64,
                queue_depth: 0,
            },
        );
        r.record(5.0, "a", EventKind::Started { device: 0 });
        r.record(
            9.0,
            "a",
            EventKind::Finished {
                device: 0,
                predicted_peak_bytes: 64,
                measured_peak_bytes: 64,
                total_us: 3.0,
            },
        );
        let t = r.chrome_trace(&["gtx780#0".to_string()]);
        let doc = t.to_json();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 lane names + 1 counter + queue slice + device slice.
        assert_eq!(events.len(), 5);
        let device_slice = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("cat").and_then(Json::as_str) == Some("job")
            })
            .expect("device slice");
        assert_eq!(device_slice.get("tid").unwrap().as_u64(), Some(1));
        assert_eq!(device_slice.get("dur").unwrap().as_f64(), Some(4.0));
        assert!(events.iter().any(|e| {
            e.get("cat").and_then(Json::as_str) == Some("queue")
                && e.get("dur").and_then(Json::as_f64) == Some(4.0)
        }));
    }
}
