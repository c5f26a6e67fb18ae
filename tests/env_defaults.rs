//! `FUTHARK_SIM_THREADS` is a *default-only fallback*, re-read from the
//! environment each time a default is built — never latched in a
//! `OnceLock` (the old behaviour, under which the first read pinned the
//! value for the life of the process, so a long-lived daemon could never
//! honour a changed default).
//!
//! This file holds the single test that mutates the process environment;
//! it is registered as its own integration-test binary so the mutation
//! cannot race other tests' environment reads.

use futhark::RunOptions;

#[test]
fn env_is_a_default_only_fallback_reread_per_call() {
    // Each read sees the variable's current value: an unparsable value
    // clamps to 1, a removed variable falls back to available
    // parallelism (>= 1).
    std::env::set_var("FUTHARK_SIM_THREADS", "3");
    assert_eq!(futhark_gpu::host_threads(), 3);
    assert_eq!(RunOptions::default().threads, 3);

    std::env::set_var("FUTHARK_SIM_THREADS", "5");
    assert_eq!(
        futhark_gpu::host_threads(),
        5,
        "second read must see the new value — it used to be latched"
    );

    std::env::set_var("FUTHARK_SIM_THREADS", "not-a-number");
    assert_eq!(futhark_gpu::host_threads(), 1);

    std::env::remove_var("FUTHARK_SIM_THREADS");
    assert!(futhark_gpu::host_threads() >= 1);

    // Explicit options always beat the environment.
    std::env::set_var("FUTHARK_SIM_THREADS", "2");
    let opts = RunOptions {
        threads: 7,
        ..RunOptions::default()
    };
    assert_eq!(opts.threads, 7);
    std::env::remove_var("FUTHARK_SIM_THREADS");
}
