//! The bottleneck analysis engine, end to end: per-launch time
//! decompositions and their exact identities, limiter classification of
//! the coalescing acceptance case before and after transposition, the
//! device memory timeline against `MemStats`, per-site modelled-time
//! attribution, the analysis/roofline renderers, and graceful
//! degradation on traces that predate the analysis layer.

use futhark::analyze::{analyze, AnalysisReport};
use futhark::{
    prof, Compiled, Compiler, Device, Json, Limiter, RunOptions, Schedule, TimelineEvent,
};
use futhark_core::{ArrayVal, Buffer, Value};
use futhark_gpu::sim::MemOp;

fn compile(src: &str, sched: Schedule) -> Compiled {
    Compiler::with_schedule(sched)
        .with_trace()
        .compile(src)
        .expect("compiles")
}

/// The PR-4 acceptance program: row-sums over a [n][m] matrix. Without
/// coalescing transformation every lane strides by `m`.
const ROWSUM: &str = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
                      let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
                      in sums";

fn rowsum_args(n: i64, m: i64) -> Vec<Value> {
    vec![
        Value::i64(n),
        Value::i64(m),
        Value::Array(ArrayVal::new(
            vec![n as usize, m as usize],
            Buffer::F32((0..n * m).map(|i| (i % 7) as f32).collect()),
        )),
    ]
}

fn run(src: &str, sched: Schedule, args: &[Value]) -> futhark::PerfReport {
    let (_, perf) = compile(src, sched)
        .run_with_opts(Device::Gtx780, args, RunOptions::default())
        .expect("runs");
    perf
}

// ---- time decomposition identities ----

#[test]
fn every_launch_decomposes_exactly_and_sums_over_the_timeline() {
    let perf = run(ROWSUM, Schedule::default(), &rowsum_args(64, 32));
    let mut launches = 0;
    let mut kernel_us = 0.0;
    for e in &perf.timeline {
        if let TimelineEvent::Launch(l) = e {
            launches += 1;
            let bd = l.breakdown.expect("fresh runs always record breakdowns");
            // Bit-exact identity, not approximate: the recorded time IS
            // the decomposition's total.
            assert_eq!(
                bd.total_us(),
                l.us,
                "launch of {}: total != overhead + max(compute, memory, local)",
                l.kernel
            );
            assert_eq!(
                bd.total_us(),
                bd.overhead_us + bd.compute_us.max(bd.memory_us).max(bd.local_us)
            );
            // The limiter names the component that binds the max.
            let binding = match bd.limiter() {
                Limiter::Compute => bd.compute_us,
                Limiter::Memory => bd.memory_us,
                Limiter::Local => bd.local_us,
            };
            assert_eq!(binding, bd.compute_us.max(bd.memory_us).max(bd.local_us));
            kernel_us += l.us;
        }
    }
    assert!(launches > 0, "the program launches kernels");
    assert!(
        (kernel_us - perf.kernel_us).abs() <= 1e-9 * perf.kernel_us.max(1.0),
        "per-launch totals sum to the report's kernel time"
    );
    // Per-kernel summed decompositions cover every launched kernel and
    // sum component-wise to the per-kernel time.
    let bds = perf.kernel_breakdowns();
    assert_eq!(bds.len(), perf.per_kernel.len());
    for (name, (l, us, _)) in &perf.per_kernel {
        let bd = &bds[name];
        assert!(
            (bd.total_us() - us).abs() <= 1e-9 * us.max(1.0),
            "kernel {name}: summed breakdown total {} vs recorded {us}",
            bd.total_us()
        );
        assert!(
            (bd.overhead_us - *l as f64 * Device::Gtx780.profile().launch_overhead_us).abs()
                < 1e-12,
            "overhead sums launch by launch"
        );
    }
}

// ---- limiter flip on the coalescing acceptance case ----

#[test]
fn uncoalesced_rowsum_is_memory_limited_and_transposition_flips_it() {
    let args = rowsum_args(256, 64);
    let device = Device::Gtx780.profile();

    let off = Schedule::default().with_coalescing(false);
    let before = run(ROWSUM, off, &args);
    let after = run(ROWSUM, Schedule::default(), &args);

    let a_before = analyze(&before, &device);
    let a_after = analyze(&after, &device);

    // Uncoalesced: the run is memory-limited and the analysis says so,
    // with a transpose-candidate finding on the offending kernel.
    assert_eq!(a_before.limiter, Limiter::Memory);
    let (hot_name, hot) = a_before
        .kernels
        .iter()
        .max_by(|a, b| a.1.time_us.total_cmp(&b.1.time_us))
        .expect("kernels exist");
    assert_eq!(hot.limiter, Limiter::Memory);
    assert!(
        hot.coalescing_efficiency < 0.5,
        "strided access wastes most of each transaction ({:.2})",
        hot.coalescing_efficiency
    );
    assert!(
        a_before
            .findings
            .iter()
            .any(|f| f.kind == "transpose_candidate" && &f.target == hot_name),
        "analysis flags the uncoalesced kernel: {:?}",
        a_before.findings
    );

    // Coalesced: either the limiter flips away from memory, or the
    // memory component collapses by at least 5x.
    let mem_before = a_before.breakdown.memory_us;
    let mem_after = a_after.breakdown.memory_us;
    assert!(
        a_after.limiter != Limiter::Memory || mem_before >= 5.0 * mem_after,
        "transposition neither flipped the limiter ({}) nor cut memory \
         time 5x ({mem_before:.1} -> {mem_after:.1} us)",
        a_after.limiter
    );
    assert!(
        a_after.total_us < a_before.total_us,
        "coalesced run is faster"
    );
}

// ---- memory timeline ----

#[test]
fn memory_timeline_balances_to_mem_stats_and_peaks_at_peak_bytes() {
    let perf = run(ROWSUM, Schedule::default(), &rowsum_args(64, 32));
    let events: Vec<_> = perf.mem_events().cloned().collect();
    assert!(!events.is_empty(), "the run allocates device buffers");

    let count = |op: MemOp| events.iter().filter(|m| m.op == op).count() as u64;
    // Event counts balance to the aggregate MemStats: an "alloc" stat is
    // a fresh Alloc or a free-list Reuse; a "free" stat is an explicit
    // Free or a rotation; a "reuse" stat is a free-list hit or an
    // in-place steal; hoists match one-for-one.
    assert_eq!(perf.mem.allocs, count(MemOp::Alloc) + count(MemOp::Reuse));
    assert_eq!(perf.mem.frees, count(MemOp::Free) + count(MemOp::Rotate));
    assert_eq!(perf.mem.reuses, count(MemOp::Reuse) + count(MemOp::Steal));
    assert_eq!(perf.mem.hoisted, count(MemOp::Hoist));

    // The live-bytes curve's maximum IS the recorded peak.
    let live_max = events.iter().map(|m| m.live_bytes).max().unwrap();
    assert_eq!(live_max, perf.mem.peak_bytes);
    // And the peak has an owner.
    let (site, peak) = perf.peak_site().expect("peak is attributable");
    assert_eq!(peak, perf.mem.peak_bytes);
    assert!(!site.is_empty());

    // Every event carries a non-zero size and a site label.
    for m in &events {
        assert!(m.bytes > 0, "{:?}", m);
        assert!(!m.site.is_empty());
    }

    // The rendered timeline shows the curve peaking at peak_bytes.
    let text = prof::render_mem_timeline(&perf);
    assert!(text.contains("== memory timeline =="));
    assert!(text.contains(&format!("peak {} B", perf.mem.peak_bytes)));
}

// ---- per-site modelled time ----

#[test]
fn modelled_time_attribution_splits_launch_busy_time_across_sites() {
    let perf = run(ROWSUM, Schedule::default(), &rowsum_args(64, 32));
    assert!(!perf.per_site.is_empty(), "the run has sites");
    let attributed: f64 = perf.per_site.values().map(|s| s.modelled_us).sum();
    assert!(attributed > 0.0, "some busy time is attributed");
    // Busy time = total kernel time minus launch overheads; attribution
    // never invents time beyond it (each launch splits proportionally).
    let overhead: f64 = perf.launches as f64 * Device::Gtx780.profile().launch_overhead_us;
    let busy = perf.kernel_us - overhead;
    assert!(
        attributed <= busy * (1.0 + 1e-9),
        "attributed {attributed:.3} us exceeds busy {busy:.3} us"
    );
}

// ---- analysis report round-trip + renderers ----

#[test]
fn analysis_of_a_real_run_round_trips_and_renders() {
    let perf = run(ROWSUM, Schedule::default(), &rowsum_args(64, 32));
    let a = analyze(&perf, &Device::Gtx780.profile());
    assert_eq!(a.device, Device::Gtx780.profile().name);
    assert_eq!(a.peak_bytes, perf.mem.peak_bytes);
    assert!(a.peak_site.is_some());

    let text = a.to_json().render_pretty();
    let back = AnalysisReport::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(back, a, "bit-exact round-trip");

    let rendered = prof::render_analysis(&a);
    assert!(rendered.contains("== analysis ("));
    assert!(rendered.contains("limiter"));
    let roofline = prof::render_roofline(&a);
    assert!(roofline.contains("== roofline ("));
    for name in a.kernels.keys() {
        assert!(roofline.contains(name.as_str()));
    }
}

// ---- old traces: graceful degradation + malformed rejection ----

/// Recursively strips the analysis-era fields from a trace document,
/// simulating a trace archived before this layer existed.
fn strip_new_fields(j: &Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "breakdown" && k != "modelled_us")
                .map(|(k, v)| (k.clone(), strip_new_fields(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(
            items
                .iter()
                .filter(|e| e.get("kind").and_then(Json::as_str) != Some("mem"))
                .map(strip_new_fields)
                .collect(),
        ),
        other => other.clone(),
    }
}

#[test]
fn pre_analysis_traces_still_load_and_diff_shows_na() {
    let c = compile(ROWSUM, Schedule::default());
    let (_, perf) = c
        .run_with_opts(Device::Gtx780, &rowsum_args(64, 32), RunOptions::default())
        .expect("runs");
    let new_doc = prof::trace_json(c.report(), &perf);
    let old_doc = strip_new_fields(&new_doc);

    // The stripped (pre-analysis) document still parses...
    let (_, old_perf) = prof::trace_from_json(&old_doc).expect("old traces stay readable");
    // ...with the new fields absent rather than defaulted.
    for e in &old_perf.timeline {
        if let TimelineEvent::Launch(l) = e {
            assert!(l.breakdown.is_none(), "stripped trace has no breakdowns");
        }
    }
    assert_eq!(old_perf.mem_events().count(), 0);
    for s in old_perf.per_site.values() {
        assert_eq!(s.modelled_us, 0.0);
    }

    // Diffing old-vs-new degrades gracefully: the old side's limiter is
    // "n/a", and the diff is clean (same deterministic counters).
    let d = prof::diff_traces(&old_doc, &new_doc).expect("both sides parse");
    assert!(d.limiter.0.is_none() && d.limiter.1.is_some());
    assert!(d.is_clean(), "stripping derived fields changes no counters");
    let rendered = prof::render_diff(&d);
    assert!(
        rendered.contains("limiter n/a ->"),
        "absent limiter renders as n/a: {rendered}"
    );

    // Malformed documents are rejected, not misread: truncation, a
    // breakdown contradicting its own limiter tag, a missing field.
    let text = new_doc.render();
    assert!(Json::parse(&text[..text.len() / 2]).is_err());
    let lying = text.replacen("\"limiter\":\"memory\"", "\"limiter\":\"local\"", 1);
    assert_ne!(lying, text, "the row-sum run has a memory-limited launch");
    let j = Json::parse(&lying).expect("still valid JSON");
    assert!(
        prof::trace_from_json(&j).is_none(),
        "a breakdown whose limiter tag contradicts its components is rejected"
    );
    let missing = text.replacen("\"launches\":", "\"launchez\":", 1);
    assert_ne!(missing, text);
    let j = Json::parse(&missing).expect("still valid JSON");
    assert!(
        prof::trace_from_json(&j).is_none(),
        "a renamed required field is rejected"
    );
}
