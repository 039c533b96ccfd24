//! End-to-end robustness: a salted (deliberately corrupted) library runs
//! through the fault-tolerant characterization driver, every broken cell
//! lands in quarantine with a deterministic diagnosis, and the healthy
//! rest still exports.

use ca_core::{
    characterize_library_robust, export_cam, export_cam_with, summarize, CharCache, Executor,
    FailurePhase, FaultPolicy,
};
use ca_defects::GenerateOptions;
use ca_netlist::corrupt::{salt_library, Corruption};
use ca_netlist::library::{generate_library, LibraryConfig};
use ca_netlist::Technology;
use ca_sim::SimBudget;

/// Phase + reason fragment each corruption must be diagnosed with.
fn expected_diagnosis(c: Corruption) -> (FailurePhase, &'static str) {
    match c {
        Corruption::FloatingOutput => (FailurePhase::Lint, "undriven-output"),
        Corruption::DanglingGate => (FailurePhase::Lint, "floating-gate-net"),
        Corruption::ZeroTransistor => (FailurePhase::Lint, "no-transistors"),
        Corruption::MultiOutput => (FailurePhase::Prepare, "single-output"),
        Corruption::OscillatorLoop => (FailurePhase::Golden, "oscillated"),
    }
}

#[test]
fn salted_library_quarantines_exactly_the_corrupted_cells() {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
    lib.cells.truncate(20);
    let salted = salt_library(&mut lib, 5, 7);
    assert_eq!(salted.len(), 5, "salting must land all five corruptions");

    let outcome = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )
    .unwrap();

    // The acceptance shape: 20 cells in, 5 quarantined, 15 healthy out.
    assert_eq!(
        outcome.quarantine.len(),
        5,
        "{}",
        outcome.quarantine.render()
    );
    assert_eq!(outcome.prepared.len(), 15);
    assert_eq!(outcome.prepared.len() + outcome.quarantine.len(), lib.len());

    // Each corrupted cell is diagnosed in the right phase with the right
    // reason — nothing is lumped into a generic failure bucket.
    for s in &salted {
        let entry = outcome
            .quarantine
            .entry(&s.cell)
            .unwrap_or_else(|| panic!("{} missing from quarantine", s.cell));
        let (phase, fragment) = expected_diagnosis(s.corruption);
        assert_eq!(entry.phase, phase, "{}: {}", s.cell, entry.reason);
        assert!(
            entry.reason.contains(fragment),
            "{} ({}): reason `{}` lacks `{fragment}`",
            s.cell,
            s.corruption,
            entry.reason
        );
        assert_eq!(entry.retries, 0, "structural failures must not retry");
    }

    // No healthy cell was dragged into quarantine.
    for entry in &outcome.quarantine.entries {
        assert!(
            salted.iter().any(|s| s.cell == entry.cell),
            "{}",
            entry.cell
        );
    }

    // The survivors carry full (non-degraded) models and all export.
    assert_eq!(outcome.degraded_count(), 0);
    let exported = export_cam(&outcome.prepared);
    assert_eq!(exported.len(), 15);

    // The summary reflects the robust run.
    let mut summary = summarize(lib.technology.name(), &outcome.prepared);
    summary.quarantined = outcome.quarantine.len();
    assert_eq!(summary.num_cells, 15);
    assert!(summary.mean_coverage > 0.4);
    assert!(summary.render().contains("5 quarantined"));

    // The human-readable report names every quarantined cell.
    let report = outcome.quarantine.render();
    for s in &salted {
        assert!(
            report.contains(&s.cell),
            "report misses {}:\n{report}",
            s.cell
        );
    }
}

#[test]
fn robust_characterization_is_deterministic() {
    let build = || {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
        lib.cells.truncate(20);
        salt_library(&mut lib, 5, 7);
        characterize_library_robust(
            &lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::SkipAndReport,
            &Executor::from_env(),
            &CharCache::new(),
            None,
        )
        .unwrap()
    };
    let a = build();
    let b = build();
    let key = |o: &ca_core::RobustOutcome| {
        o.quarantine
            .entries
            .iter()
            .map(|e| (e.cell.clone(), e.phase, e.reason.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn fail_fast_stops_on_the_first_corrupted_cell() {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
    lib.cells.truncate(20);
    salt_library(&mut lib, 5, 7);
    let err = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::FailFast,
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )
    .unwrap_err();
    // Whatever the first corrupted cell is, the error must carry a
    // cell-specific message rather than a generic one.
    assert!(err.to_string().contains('`'), "{err}");
}

#[test]
fn retry_produces_degraded_models_that_export_only_on_opt_in() {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(4);
    // A zero wall clock exhausts every cell's budget before its first
    // defect simulation; one retry re-runs with the clock lifted and a
    // reduced (static-only) budget, producing degraded but exportable
    // models.
    let budget = SimBudget {
        wall_clock: Some(std::time::Duration::ZERO),
        ..SimBudget::unlimited()
    };
    let outcome = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &budget,
        FaultPolicy::RetryWithReducedBudget(1),
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )
    .unwrap();
    assert!(
        outcome.quarantine.is_empty(),
        "{}",
        outcome.quarantine.render()
    );
    assert_eq!(outcome.prepared.len(), 4);
    assert_eq!(outcome.degraded_count(), 4);

    // Degraded dictionaries are held back by default...
    assert!(export_cam(&outcome.prepared).is_empty());
    // ...but export (marked) when the consumer opts in.
    let opted = export_cam_with(&outcome.prepared, true);
    assert_eq!(opted.len(), 4);
    for (name, text) in &opted {
        assert!(name.ends_with(".cam"));
        assert!(text.contains("degraded"), "{name} lacks the degraded mark");
    }
}
