//! Fixed-bucket latency histograms and a Prometheus-style plaintext
//! exposition builder.
//!
//! A [`Histogram`] records wall-clock durations into a *fixed* set of
//! power-of-two microsecond buckets (1 µs … ~67 s, plus overflow). Fixed
//! boundaries make the serialised form, the exposition text, and quantile
//! estimates deterministic functions of the observations — there is no
//! adaptive resizing to perturb a scrape mid-run — and make merging two
//! histograms a plain element-wise add. Quantile estimation interpolates
//! linearly inside the bucket holding the target rank, so an estimate is
//! always within the bucket's bounds: at most 2× the true value and at
//! least half of it. futharkd's `gauges_return_to_zero_after_drain` test
//! asserts that bound between the daemon's end-to-end quantiles and
//! client-side measurements.
//!
//! [`Exposition`] renders counters, gauges, and histograms in the
//! Prometheus text format (`# HELP` / `# TYPE` headers, cumulative
//! `_bucket{le="..."}` samples, `_sum` and `_count`). Lines are emitted
//! in caller order and values print deterministically, so two scrapes of
//! a quiescent registry are byte-identical.

use crate::json::Json;

/// Upper bounds (inclusive, microseconds) of the finite buckets:
/// 2^0 … 2^26 µs. One overflow bucket follows for observations beyond
/// ~67 s.
pub const BUCKET_BOUNDS_US: [u64; 27] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576, 2097152, 4194304, 8388608, 16777216, 33554432, 67108864,
];

/// A fixed-bucket duration histogram (microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; the last entry is the overflow bucket.
    counts: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of observations, rounded to whole microseconds (integer so
    /// that merge order cannot perturb the total).
    sum_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKET_BOUNDS_US.len() + 1],
            count: 0,
            sum_us: 0,
        }
    }

    /// Records one duration in microseconds.
    pub fn observe_us(&mut self, us: f64) {
        let us = if us.is_finite() { us.max(0.0) } else { 0.0 };
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b as f64)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_us += us.round() as u64;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations in whole microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Raw per-bucket counts (the last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) in microseconds by
    /// linear interpolation inside the bucket holding the target rank.
    /// The estimate is bounded by the bucket: at most 2× and at least
    /// half of the true order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 {
                    0.0
                } else {
                    BUCKET_BOUNDS_US[i - 1] as f64
                };
                let hi = if i < BUCKET_BOUNDS_US.len() {
                    BUCKET_BOUNDS_US[i] as f64
                } else {
                    // Overflow bucket: no finite upper bound; report the
                    // last finite boundary (a floor, clearly marked).
                    return BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64;
                };
                let into = (rank - seen) as f64 / c as f64;
                return lo + (hi - lo) * into;
            }
            seen += c;
        }
        BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1] as f64
    }

    /// The median estimate in microseconds.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The 99th-percentile estimate in microseconds.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serialises to JSON (`{"count", "sum_us", "buckets"}`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("sum_us", Json::U64(self.sum_us)),
            (
                "buckets",
                Json::Arr(self.counts.iter().map(|&c| Json::U64(c)).collect()),
            ),
        ])
    }

    /// Deserialises from JSON; `None` on shape mismatch or when the
    /// bucket counts do not sum to `count`.
    pub fn from_json(j: &Json) -> Option<Histogram> {
        let count = j.get("count")?.as_u64()?;
        let sum_us = j.get("sum_us")?.as_u64()?;
        let counts: Vec<u64> = j
            .get("buckets")?
            .as_arr()?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<_>>()?;
        if counts.len() != BUCKET_BOUNDS_US.len() + 1 || counts.iter().sum::<u64>() != count {
            return None;
        }
        Some(Histogram {
            counts,
            count,
            sum_us,
        })
    }
}

/// A Prometheus-text-format builder. Metric families are emitted in the
/// order the caller declares them; each family gets exactly one
/// `# HELP` / `# TYPE` header.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Emits the `# HELP` / `# TYPE` header of a metric family.
    pub fn header(&mut self, name: &str, help: &str, typ: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {typ}\n"));
    }

    /// Emits one integer sample line.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Emits one float sample line (shortest round-tripping form).
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out
            .push_str(&format!("{name}{} {value:?}\n", render_labels(labels)));
    }

    /// Header plus a single unlabelled counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample_u64(name, &[], value);
    }

    /// Header plus a single unlabelled gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "gauge");
        self.sample_u64(name, &[], value);
    }

    /// A full histogram family: cumulative `_bucket{le=...}` samples
    /// (ending in `le="+Inf"`), then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        self.header(name, help, "histogram");
        let mut cum = 0u64;
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            cum += c;
            let le = if i < BUCKET_BOUNDS_US.len() {
                BUCKET_BOUNDS_US[i].to_string()
            } else {
                "+Inf".to_string()
            };
            self.sample_u64(&format!("{name}_bucket"), &[("le", &le)], cum);
        }
        self.sample_u64(&format!("{name}_sum"), &[], h.sum_us());
        self.sample_u64(&format!("{name}_count"), &[], h.count());
    }

    /// The finished document.
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let mut h = Histogram::new();
        h.observe_us(0.4); // <= 1
        h.observe_us(1.0); // <= 1 (inclusive bound)
        h.observe_us(1.5); // <= 2
        h.observe_us(1000.0); // <= 1024
        h.observe_us(1e9); // overflow
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[10], 1);
        assert_eq!(h.bucket_counts()[BUCKET_BOUNDS_US.len()], 1);
        assert_eq!(h.sum_us(), 1_000_001_003, "sums round to whole µs");
    }

    #[test]
    fn quantiles_stay_within_their_bucket() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe_us(200.0); // bucket (128, 256]
        }
        let p50 = h.p50();
        assert!((128.0..=256.0).contains(&p50), "p50 {p50} escaped bucket");
        // Bucket bound guarantee relative to the true value 200.
        assert!((200.0 / 2.0..=2.0 * 200.0).contains(&p50));
        assert_eq!(Histogram::new().p50(), 0.0);
        // All mass in overflow reports the last finite bound.
        let mut o = Histogram::new();
        o.observe_us(1e12);
        assert_eq!(o.p99(), *BUCKET_BOUNDS_US.last().unwrap() as f64);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = Histogram::new();
        a.observe_us(3.0);
        let mut b = Histogram::new();
        b.observe_us(3.0);
        b.observe_us(500.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket_counts()[2], 2);
        assert_eq!(a.sum_us(), 506);
    }

    #[test]
    fn json_round_trip_and_rejection() {
        let mut h = Histogram::new();
        h.observe_us(42.0);
        h.observe_us(9000.0);
        let j = Json::parse(&h.to_json().render()).expect("valid JSON");
        assert_eq!(Histogram::from_json(&j), Some(h.clone()));
        // Tampered count no longer matches the bucket sum.
        let mut bad = h.to_json();
        if let Json::Obj(pairs) = &mut bad {
            pairs[0].1 = Json::U64(99);
        }
        assert_eq!(Histogram::from_json(&bad), None);
    }

    #[test]
    fn exposition_is_deterministic_and_well_formed() {
        let build = || {
            let mut h = Histogram::new();
            h.observe_us(100.0);
            h.observe_us(100000.0);
            let mut e = Exposition::new();
            e.counter("d_jobs_total", "jobs", 7);
            e.gauge("d_inflight", "in flight", 2);
            e.header("d_busy_us_total", "busy", "counter");
            e.sample_u64("d_busy_us_total", &[("device", "gtx780#0")], 123);
            e.histogram("d_e2e_us", "end to end", &h);
            e.render()
        };
        let text = build();
        assert_eq!(text, build(), "two renders are byte-identical");
        assert!(text.contains("# TYPE d_e2e_us histogram"));
        assert!(text.contains("d_busy_us_total{device=\"gtx780#0\"} 123"));
        assert!(text.contains("d_e2e_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("d_e2e_us_count 2"));
        // Cumulative counts never decrease down the bucket list.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("d_e2e_us_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket samples must be cumulative");
            last = v;
        }
    }
}
