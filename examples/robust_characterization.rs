//! Fault-tolerant library characterization (README "Handling broken
//! netlists").
//!
//! Generates a 20-cell library, deliberately corrupts 5 cells with the
//! fault-injection harness, then characterizes the library robustly:
//! the broken cells land in quarantine with per-phase diagnoses while
//! the healthy 15 still produce exportable `.cam` models. A second run
//! shows the retry policy turning budget exhaustion into degraded (but
//! exportable-on-opt-in) models.

use cell_aware::core::{
    characterize_library_robust, export_cam, export_cam_with, summarize, CharCache, Executor,
    FaultPolicy,
};
use cell_aware::defects::GenerateOptions;
use cell_aware::netlist::corrupt::salt_library;
use cell_aware::netlist::{generate_library, LibraryConfig, Technology};
use cell_aware::sim::SimBudget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small library with five deliberately broken cells.
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C28));
    lib.cells.truncate(20);
    let salted = salt_library(&mut lib, 5, 7);
    println!("salted {} of {} cells:", salted.len(), lib.len());
    for s in &salted {
        println!("  {} <- {}", s.cell, s.corruption);
    }

    // Robust characterization: skip-and-report policy.
    let outcome = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )?;
    println!();
    print!("{}", outcome.quarantine.render());
    let mut summary = summarize(lib.technology.name(), &outcome.prepared);
    summary.quarantined = outcome.quarantine.len();
    println!();
    print!("{}", summary.render());
    println!(
        "exported {} .cam models from {} healthy cells",
        export_cam(&outcome.prepared).len(),
        outcome.prepared.len()
    );

    // Retry policy: a zero wall-clock budget exhausts every cell; one
    // retry (static stimuli, reduced defects) still yields models,
    // marked degraded and exported only on opt-in.
    let strangled = SimBudget {
        wall_clock: Some(std::time::Duration::ZERO),
        ..SimBudget::unlimited()
    };
    let retried = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &strangled,
        FaultPolicy::RetryWithReducedBudget(1),
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )?;
    println!(
        "\nretry-with-reduced-budget: {} models ({} degraded), \
         default export {}, opt-in export {}",
        retried.prepared.len(),
        retried.degraded_count(),
        export_cam(&retried.prepared).len(),
        export_cam_with(&retried.prepared, true).len()
    );
    Ok(())
}
