//! The span log of a traced run. Spans are recorded here, in the
//! benchmark, around its calls into each layer (and, for futharkd, from
//! the stage spans each response reports); nothing inside the program is
//! instrumented. The log stays in memory and is reduced to per-layer
//! metrics when the run ends. An untraced run keeps no log, and the
//! difference between the two is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One span: a layer's work for one request.
#[derive(Debug, Clone)]
struct Span {
    /// The request (or suite job) this span belongs to; shared by the
    /// spans of one request.
    req: u64,
    /// The distinct job (pool entry or benchmark) the request ran.
    job: u32,
    name: &'static str,
    /// The enclosing span's name, if any.
    parent: Option<&'static str>,
    dur_us: f64,
}

/// A span log; a disabled log records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            spans: on.then(Vec::new),
        }
    }

    /// Records a span this program timed.
    pub fn span(&mut self, req: u64, job: u32, name: &'static str, start: Instant, end: Instant) {
        let dur_us = end.duration_since(start).as_secs_f64() * 1e6;
        self.push(req, job, name, None, dur_us);
    }

    /// Records a child span whose duration a layer reported itself.
    pub fn child(
        &mut self,
        req: u64,
        job: u32,
        name: &'static str,
        parent: &'static str,
        dur_us: f64,
    ) {
        self.push(req, job, name, Some(parent), dur_us);
    }

    fn push(
        &mut self,
        req: u64,
        job: u32,
        name: &'static str,
        parent: Option<&'static str>,
        dur_us: f64,
    ) {
        if let Some(v) = &mut self.spans {
            v.push(Span {
                req,
                job,
                name,
                parent,
                dur_us,
            });
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().flatten().filter(move |s| s.name == name)
    }

    /// Durations of every span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_us / 1e3).collect()
    }

    /// Durations of the spans named `name`, ms, grouped by job.
    pub fn durations_by_job_ms(&self, name: &str) -> BTreeMap<u32, Vec<f64>> {
        let mut m: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in self.named(name) {
            m.entry(s.job).or_default().push(s.dur_us / 1e3);
        }
        m
    }

    /// Self time of every span named `name`, ms: its duration minus the
    /// durations of its child spans in the same request.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut children: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .flatten()
            .filter(|s| s.parent == Some(name))
        {
            *children.entry(s.req).or_default() += s.dur_us;
        }
        self.named(name)
            .map(|s| (s.dur_us - children.get(&s.req).copied().unwrap_or(0.0)) / 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let mut t = Tracer::new(true);
        t.push(1, 0, "request", None, 10_000.0);
        t.child(1, 0, "execute", "request", 6_000.0);
        t.child(1, 0, "queue", "request", 1_000.0);
        t.push(2, 3, "request", None, 4_000.0);
        t.child(2, 3, "execute", "request", 4_000.0);
        assert_eq!(t.self_ms("request"), vec![3.0, 0.0]);
        assert_eq!(t.durations_ms("execute"), vec![6.0, 4.0]);
        assert_eq!(t.durations_by_job_ms("execute")[&3], vec![4.0]);
        let mut off = Tracer::new(false);
        off.child(1, 0, "execute", "request", 1.0);
        assert!(off.durations_ms("execute").is_empty());
    }
}
