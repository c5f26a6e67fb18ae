//! Parallel work-group execution must be observationally invisible: for
//! any program, running the simulator with N worker threads produces
//! bit-identical `Value` outputs and a bit-identical [`PerfReport`]
//! (counters, per-kernel stats, timeline) to the sequential run. This
//! binary checks that end to end — over every corpus fixture and over a
//! fuzz campaign — by compiling once and running each program at several
//! thread counts via [`Compiled::run_with_opts`].
//!
//! The campaign size defaults to 1000 cases and can be overridden with
//! `FUTHARK_PAR_FUZZ_CASES` (CI smoke uses a smaller value).

use futhark::{Compiled, Compiler, Device, PerfReport, RunOptions};
use futhark_core::Value;
use futhark_fuzz::{corpus, generate, GenConfig};
use std::path::PathBuf;

/// Runs `compiled` with the given worker-thread count, normalising errors
/// to their display strings so faulting programs can be compared too.
fn outcome(
    compiled: &Compiled,
    device: Device,
    args: &[Value],
    threads: usize,
) -> Result<(Vec<Value>, PerfReport), String> {
    let opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    compiled
        .run_with_opts(device, args, opts)
        .map_err(|e| e.to_string())
}

fn assert_thread_invariant(label: &str, compiled: &Compiled, args: &[Value]) {
    for device in [Device::Gtx780, Device::W8100] {
        let seq = outcome(compiled, device, args, 1);
        for threads in [2, 4, 8] {
            let par = outcome(compiled, device, args, threads);
            assert_eq!(
                seq, par,
                "{label}: {threads}-thread run differs from sequential on {device:?}"
            );
        }
    }
}

#[test]
fn corpus_is_bit_identical_across_thread_counts() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus dir readable")
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            (path.extension().and_then(|x| x.to_str()) == Some("fut")).then_some(path)
        })
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty());
    for path in fixtures {
        let text = std::fs::read_to_string(&path).expect("fixture readable");
        let args = corpus::parse_fixture(&text).expect("fixture header");
        let compiled = match Compiler::new().compile(&text) {
            Ok(c) => c,
            Err(_) => continue, // compile-time faults have no launches to race
        };
        assert_thread_invariant(&path.display().to_string(), &compiled, &args);
    }
}

#[test]
fn fuzz_campaign_is_bit_identical_across_thread_counts() {
    let cases: u64 = std::env::var("FUTHARK_PAR_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1000);
    let cfg = GenConfig::default();
    let mut compiled_ok = 0u64;
    for seed in 0..cases {
        let case = generate(seed, &cfg);
        let src = case.source();
        let compiled = match Compiler::new().compile(&src) {
            Ok(c) => c,
            Err(_) => continue,
        };
        compiled_ok += 1;
        let args = case.args();
        let devices = [Device::Gtx780, Device::W8100];
        // One device per case keeps the campaign fast; alternate so both
        // profiles see half the cases.
        let device = devices[(seed % 2) as usize];
        let seq = outcome(&compiled, device, &args, 1);
        let par = outcome(&compiled, device, &args, 4);
        assert_eq!(
            seq, par,
            "case seed {seed}: 4-thread run differs from sequential on {device:?}\n{src}"
        );
    }
    assert!(
        compiled_ok > cases / 2,
        "campaign degenerate: only {compiled_ok}/{cases} cases compiled"
    );
}
