//! Thread-count determinism of the flow profile's count metrics.
//!
//! DESIGN.md §9 promises that every `outcome` and `work` counter is
//! byte-identical across `CA_THREADS` settings. This binary proves it
//! end to end: the full `ca-bench profile` pipeline runs once on one
//! worker and once on four, and the canonical per-stage fingerprints
//! must match byte for byte. Timings (spans, wall/CPU clocks) and
//! `ops`-class scheduling telemetry are excluded by construction.
//!
//! ONE test function only: stage deltas are snapshots of the global
//! metric registry, so a sibling test running concurrently in this
//! binary would leak its counts into our stages and make the
//! comparison flaky. Keep any future assertions inside this function.

use ca_bench::corpus::Profile;
use ca_bench::profiling;
use ca_core::Executor;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ca-obs-det-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn profile_counts_are_identical_across_thread_counts() {
    let dir = scratch("threads");

    let serial = profiling::run_with(
        Profile::Quick,
        &dir.join("serial.castore"),
        &Executor::with_threads(1),
    )
    .expect("serial profile runs");
    let parallel = profiling::run_with(
        Profile::Quick,
        &dir.join("parallel.castore"),
        &Executor::with_threads(4),
    )
    .expect("parallel profile runs");
    let _ = std::fs::remove_dir_all(&dir);

    let serial_fpr = serial.deterministic_fingerprint();
    let parallel_fpr = parallel.deterministic_fingerprint();

    // The fingerprint must actually witness the instrumented stack, not
    // vacuously compare two empty strings.
    for needle in [
        "[characterize]",
        "ca_core.flow.models_complete",
        "ca_core.cache.hits",
        "ca_sim.solver.iterations",
        "ca_ml.forest.trees_fitted",
        "ca_store.journal.appends",
        "ca_exec.items",
        "[shard]",
        "ca_shard.merge.records",
    ] {
        assert!(
            serial_fpr.contains(needle),
            "fingerprint must mention {needle}:\n{serial_fpr}"
        );
    }
    assert_eq!(
        serial_fpr, parallel_fpr,
        "outcome+work counters must be byte-identical at CA_THREADS=1 vs 4"
    );

    // Scheduling telemetry is allowed to differ — and the worker pool
    // size genuinely does — but must never leak into the fingerprint.
    assert!(!serial_fpr.contains("ca_exec.workers_spawned"));
    assert!(!serial_fpr.contains("ca_exec.steals"));

    // The `outcome` subset is a projection of the full fingerprint, so
    // it matches too; assert anyway since crash-resume tests rely on it.
    assert_eq!(serial.outcome_fingerprint(), parallel.outcome_fingerprint());
}
