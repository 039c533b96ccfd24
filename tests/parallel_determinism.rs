//! The parallel engine must be a pure performance optimization: every
//! observable output — prepared-cell order, quarantine diagnoses,
//! exported `.cam` bytes — is identical at every thread count.

use ca_core::{
    characterize_library_robust, characterize_library_with, export_cam, CharCache, Executor,
    FaultPolicy, RobustOutcome,
};
use ca_defects::GenerateOptions;
use ca_netlist::corrupt::salt_library;
use ca_netlist::{generate_library, Library, LibraryConfig, Technology};
use ca_sim::SimBudget;

fn salted_library() -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
    lib.cells.truncate(24);
    let salted = salt_library(&mut lib, 5, 7);
    assert_eq!(salted.len(), 5);
    lib
}

fn robust_run(lib: &Library, threads: usize) -> RobustOutcome {
    characterize_library_robust(
        lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(threads),
        &CharCache::new(),
        None,
    )
    .unwrap()
}

#[test]
fn robust_runs_are_identical_across_thread_counts() {
    let lib = salted_library();
    let serial = robust_run(&lib, 1);
    let parallel = robust_run(&lib, 8);

    // Same prepared cells, in library order.
    let serial_names: Vec<&str> = serial.prepared.iter().map(|p| p.cell.name()).collect();
    let parallel_names: Vec<&str> = parallel.prepared.iter().map(|p| p.cell.name()).collect();
    assert_eq!(serial_names, parallel_names);

    // Same quarantine diagnoses (elapsed times legitimately differ).
    let diagnose = |o: &RobustOutcome| -> Vec<(String, String, String, u32)> {
        o.quarantine
            .entries
            .iter()
            .map(|e| {
                (
                    e.cell.clone(),
                    e.phase.to_string(),
                    e.reason.clone(),
                    e.retries,
                )
            })
            .collect()
    };
    assert_eq!(diagnose(&serial), diagnose(&parallel));
    assert!(!serial.quarantine.is_empty(), "salting must quarantine");
    assert_eq!(
        serial.prepared.len() + serial.quarantine.len(),
        lib.len(),
        "robust invariant"
    );

    // Same exported model bytes.
    assert_eq!(export_cam(&serial.prepared), export_cam(&parallel.prepared));
}

#[test]
fn retry_policy_is_identical_across_thread_counts() {
    let lib = salted_library();
    let budget = SimBudget {
        max_defects: Some(6),
        ..SimBudget::unlimited()
    };
    let run = |threads| {
        characterize_library_robust(
            &lib,
            GenerateOptions::default(),
            &budget,
            FaultPolicy::RetryWithReducedBudget(2),
            &Executor::with_threads(threads),
            &CharCache::new(),
            None,
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.degraded_count(), parallel.degraded_count());
    assert_eq!(serial.quarantine.len(), parallel.quarantine.len());
    for (a, b) in serial.prepared.iter().zip(&parallel.prepared) {
        assert_eq!(a.cell.name(), b.cell.name());
        assert_eq!(a.model, b.model, "{}", a.cell.name());
    }
}

#[test]
fn plain_characterization_is_identical_across_thread_counts() {
    let lib = {
        let mut lib = generate_library(&LibraryConfig {
            skew_variants: true,
            ..LibraryConfig::quick(Technology::C40)
        });
        lib.cells.truncate(30);
        lib
    };
    let options = GenerateOptions::default();
    let run = |threads| {
        characterize_library_with(
            &lib,
            options,
            &Executor::with_threads(threads),
            &CharCache::new(),
        )
        .unwrap()
    };
    let (serial, serial_summary) = run(1);
    let (parallel, parallel_summary) = run(8);
    assert_eq!(serial_summary, parallel_summary);
    assert_eq!(export_cam(&serial), export_cam(&parallel));
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.cell.name(), b.cell.name());
        assert_eq!(a.model, b.model);
    }
}

#[test]
fn fail_fast_reports_the_first_failure_at_any_thread_count() {
    let lib = salted_library();
    let first_bad = {
        let outcome = robust_run(&lib, 1);
        outcome.quarantine.entries[0].cell.clone()
    };
    for threads in [1, 8] {
        let robust = characterize_library_robust(
            &lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::FailFast,
            &Executor::with_threads(threads),
            &CharCache::new(),
            None,
        )
        .unwrap_err();
        // The plain driver is the same guarded pipeline under FailFast.
        let plain = characterize_library_with(
            &lib,
            GenerateOptions::default(),
            &Executor::with_threads(threads),
            &CharCache::new(),
        )
        .unwrap_err();
        for err in [robust, plain] {
            assert!(
                err.to_string().contains(&first_bad),
                "threads={threads}: `{err}` should name `{first_bad}`"
            );
        }
    }
}
