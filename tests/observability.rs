//! Observability integration tests: pass-level tracing, the execution
//! timeline, and the futhark-prof trace serialisation.

use futhark::{prof, Compiler, Device, PerfReport, RunOptions, Schedule, TimelineEvent};
use futhark_core::{ArrayVal, Value};
use futhark_gpu::sim::KernelStats;
use std::collections::BTreeMap;

/// The quick-start program: a map feeding a reduce, which fusion turns
/// into a single redomap.
const QUICKSTART: &str = "fun main (n: i64) (xs: [n]f32): f32 =\n\
                          let ys = map (\\x -> x * x) xs\n\
                          let s = reduce (+) 0.0f32 ys\n\
                          in s";

fn quickstart_args(n: usize) -> Vec<Value> {
    vec![
        Value::i64(n as i64),
        Value::Array(ArrayVal::from_f32s(
            (0..n).map(|i| (i % 13) as f32).collect(),
        )),
    ]
}

#[test]
fn trace_covers_enabled_phases_with_nonzero_sizes() {
    let compiled = Compiler::new()
        .with_trace()
        .compile(QUICKSTART)
        .expect("compiles");
    let report = compiled.report().expect("with_trace attaches a report");
    let names: Vec<&str> = report.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "parse",
            "check",
            "inline",
            "simplify",
            "fusion",
            "flatten",
            "simplify-post",
            "codegen",
            "memplan",
            "decode"
        ]
    );
    for p in &report.passes {
        assert!(
            p.after.statements > 0,
            "pass {} left an empty program",
            p.name
        );
        assert!(p.wall_us >= 0.0);
    }
    assert_eq!(report.pass("parse").unwrap().before.statements, 0);
    assert!(
        report.pass("codegen").unwrap().after.kernels >= 1,
        "codegen should report extracted kernels"
    );
    assert!(
        report.counter("codegen.kernels_extracted") >= 1,
        "kernel extraction should be counted"
    );

    // Disabled phases produce no spans, and untraced compilation no report.
    let plain = Compiler::with_schedule(Schedule {
        simplify_pass: false,
        fusion_pass: false,
        ..Schedule::default()
    })
    .with_trace()
    .compile(QUICKSTART)
    .expect("compiles");
    let plain_report = plain.report().unwrap();
    assert!(plain_report.pass("fusion").is_none());
    assert!(plain_report.pass("simplify").is_none());
    assert!(Compiler::new()
        .compile(QUICKSTART)
        .expect("compiles")
        .report()
        .is_none());
}

#[test]
fn fusion_event_fires_and_reduces_launches_and_traffic() {
    let on = Compiler::new()
        .with_trace()
        .compile(QUICKSTART)
        .expect("compiles");
    let fusion_events: u64 = on
        .report()
        .unwrap()
        .all_counters()
        .iter()
        .filter(|(k, _)| k.starts_with("fusion."))
        .map(|(_, v)| v)
        .sum();
    assert!(fusion_events > 0, "fusing map|>reduce must fire a rule");

    let off = Compiler::with_schedule(Schedule {
        fusion_pass: false,
        ..Schedule::default()
    })
    .with_trace()
    .compile(QUICKSTART)
    .expect("compiles");
    assert_eq!(
        off.report()
            .unwrap()
            .all_counters()
            .iter()
            .filter(|(k, _)| k.starts_with("fusion."))
            .count(),
        0
    );

    let args = quickstart_args(4096);
    let (out_on, perf_on) = on
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .expect("runs");
    let (out_off, perf_off) = off
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .expect("runs");
    assert_eq!(out_on, out_off, "fusion must not change the result");
    assert!(
        perf_on.launches < perf_off.launches,
        "fusion should save launches: on={} off={}",
        perf_on.launches,
        perf_off.launches
    );
    assert!(
        perf_on.stats.bus_bytes < perf_off.stats.bus_bytes,
        "fusion should save memory traffic: on={} off={}",
        perf_on.stats.bus_bytes,
        perf_off.stats.bus_bytes
    );
}

/// A program exercising every timeline event class: kernels, device ops
/// (replicate + coalescing transpose), and a host sync (scalar read).
const NESTED: &str = "fun main (n: i64) (m: i64) (xss: [n][m]f32): f32 =\n\
                      let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
                      let total = reduce (+) 0.0f32 sums\n\
                      in total";

fn nested_perf() -> PerfReport {
    let n = 64usize;
    let m = 32usize;
    let data: Vec<f32> = (0..n * m).map(|i| (i % 9) as f32).collect();
    let compiled = Compiler::new()
        .with_trace()
        .compile(NESTED)
        .expect("compiles");
    let (_, perf) = compiled
        .run_with_opts(
            Device::Gtx780,
            &[
                Value::i64(n as i64),
                Value::i64(m as i64),
                Value::Array(ArrayVal::new(vec![n, m], futhark_core::Buffer::F32(data))),
            ],
            RunOptions::default(),
        )
        .expect("runs");
    perf
}

#[test]
fn timeline_aggregates_to_perf_report_totals() {
    let perf = nested_perf();
    assert!(!perf.timeline.is_empty());

    let sum: f64 = perf.timeline.iter().map(TimelineEvent::us).sum();
    assert!(
        (sum - perf.total_us).abs() <= 1e-9 * perf.total_us.max(1.0),
        "timeline sums to {sum}, report says {}",
        perf.total_us
    );

    let mut kernel_us = 0.0;
    let mut device_op_us = 0.0;
    let mut fallback_us = 0.0;
    let mut launches = 0u64;
    let mut transposes = 0u64;
    let mut agg = KernelStats::default();
    let mut per_kernel: BTreeMap<String, (u64, f64, KernelStats)> = BTreeMap::new();
    for e in &perf.timeline {
        match e {
            TimelineEvent::Launch(l) => {
                kernel_us += l.us;
                launches += 1;
                agg.merge(&l.stats);
                let entry = per_kernel.entry(l.kernel.clone()).or_default();
                entry.0 += 1;
                entry.1 += l.us;
                entry.2.merge(&l.stats);
                assert_eq!(l.num_groups, l.num_threads.div_ceil(l.group_size));
            }
            TimelineEvent::DeviceOp { what, us, .. } => {
                device_op_us += us;
                if what == "transpose" {
                    transposes += 1;
                }
            }
            TimelineEvent::Fallback { us, .. } => fallback_us += us,
            TimelineEvent::Sync { .. } => {}
            TimelineEvent::Mem(_) => {
                assert_eq!(e.us(), 0.0, "memory events are instantaneous");
            }
        }
    }
    assert!((kernel_us - perf.kernel_us).abs() <= 1e-9 * perf.kernel_us.max(1.0));
    assert!((device_op_us - perf.device_op_us).abs() <= 1e-9 * perf.device_op_us.max(1.0));
    assert!((fallback_us - perf.fallback_us).abs() <= 1e-9 * perf.fallback_us.max(1.0));
    assert_eq!(launches, perf.launches);
    assert_eq!(
        transposes, perf.transposes,
        "coalescing transposes appear as device ops"
    );
    assert_eq!(agg, perf.stats, "aggregated stats equal the per-launch sum");
    assert_eq!(per_kernel.len(), perf.per_kernel.len());
    for (name, (l, us, stats)) in &per_kernel {
        let (rl, rus, rstats) = &perf.per_kernel[name];
        assert_eq!(l, rl);
        assert!((us - rus).abs() <= 1e-9 * rus.max(1.0));
        assert_eq!(stats, rstats);
    }

    // The hottest-first ordering is total-time descending.
    let by_time = perf.kernels_by_time();
    for w in by_time.windows(2) {
        assert!(w[0].1 .1 >= w[1].1 .1);
    }
}

#[test]
fn trace_round_trips_through_json() {
    let compiled = Compiler::new()
        .with_trace()
        .compile(QUICKSTART)
        .expect("compiles");
    let (_, perf) = compiled
        .run_with_opts(
            Device::Gtx780,
            &quickstart_args(1024),
            RunOptions::default(),
        )
        .expect("runs");

    let doc = prof::trace_json(compiled.report(), &perf);
    let text = doc.render_pretty();
    let parsed = futhark::Json::parse(&text).expect("parses");
    let (compile_back, run_back) = prof::trace_from_json(&parsed).expect("decodes");
    assert_eq!(compile_back.as_ref(), compiled.report());
    assert_eq!(run_back, perf);

    // Without with_trace the compile half is null and still round-trips.
    let doc = prof::trace_json(None, &perf);
    let (none_back, run_back) =
        prof::trace_from_json(&futhark::Json::parse(&doc.render()).expect("parses"))
            .expect("decodes");
    assert!(none_back.is_none());
    assert_eq!(run_back, perf);

    // Traces written while runs reported the warp engine's uniform-path
    // tallies carry two more keys; they still load, to the same report.
    let mut run = perf.to_json();
    if let futhark::Json::Obj(fields) = &mut run {
        fields.push(("uniform_hits".into(), futhark::Json::U64(7)));
        fields.push(("uniform_misses".into(), futhark::Json::U64(2)));
    }
    let old = futhark::Json::obj(vec![("compile", futhark::Json::Null), ("run", run)]);
    let text = old.render();
    assert!(text.contains("\"uniform_hits\""));
    let (_, run_back) =
        prof::trace_from_json(&futhark::Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(run_back, perf);
}

#[test]
fn prof_render_shows_kernels_passes_and_counters() {
    let compiled = Compiler::new()
        .with_trace()
        .compile(QUICKSTART)
        .expect("compiles");
    let (_, perf) = compiled
        .run_with_opts(
            Device::Gtx780,
            &quickstart_args(1024),
            RunOptions::default(),
        )
        .expect("runs");
    let text = prof::render(compiled.report(), &perf);
    assert!(text.contains("== futhark-prof =="));
    assert!(text.contains("coalesce"), "kernel table header present");
    assert!(text.contains("codegen"), "pass breakdown present");
    assert!(
        text.contains("rewrite counters:"),
        "counter section present"
    );
    let (hottest, _) = perf.kernels_by_time()[0];
    assert!(text.contains(hottest), "hottest kernel listed");
}
