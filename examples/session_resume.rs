//! Crash-safe characterization sessions (README "Resuming an
//! interrupted run").
//!
//! Characterizes a library under a durable [`Session`]: every finished
//! cell is journaled to an on-disk store as it lands. The example then
//! simulates the morning after a crash — reopening the same store and
//! re-running the identical command — and shows the resumed run serving
//! every cell from the journal (zero new simulations), converging to
//! byte-identical `.cam` exports. Finally it edits one cell's netlist
//! and demonstrates that only that cell's stale record is evicted and
//! re-simulated.

use cell_aware::core::{
    characterize_library_robust, export_cam_with, summarize, CharCache, Executor, FaultPolicy,
    Session,
};
use cell_aware::defects::GenerateOptions;
use cell_aware::netlist::corrupt::{corrupt_cell, Corruption};
use cell_aware::netlist::{generate_library, LibraryConfig, Technology};
use cell_aware::sim::SimBudget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(10);

    let dir = std::env::temp_dir().join(format!("ca-session-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let store = dir.join("campaign.caj");

    let run = |lib: &_, session: &Session| {
        characterize_library_robust(
            lib,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
            FaultPolicy::SkipAndReport,
            &Executor::from_env(),
            &CharCache::new(),
            Some(session),
        )
    };

    // Day one: a fresh store. Every cell simulates and is journaled.
    let session = Session::open(&store)?;
    let first = run(&lib, &session)?;
    let summary = summarize(lib.technology.name(), &first.prepared);
    println!("first run:  {} cells characterized", summary.num_cells);
    print!("{}", session.report().render());

    // Day two: same command, same store — as after a crash or requeue.
    // Every record verifies against the (unchanged) library, so nothing
    // simulates again and the exports are byte-identical.
    let session = Session::open(&store)?;
    let second = run(&lib, &session)?;
    let report = session.report();
    println!(
        "\nresumed run: {} of {} cells served from the store",
        report.reused_complete + report.reused_degraded,
        lib.len()
    );
    assert_eq!(
        export_cam_with(&first.prepared, true),
        export_cam_with(&second.prepared, true),
        "resume must be byte-identical"
    );
    println!("exports are byte-identical across the resume");

    // An edited netlist invalidates exactly its own record: the session
    // re-verifies canonical hashes before trusting anything on disk.
    lib.cells[4].cell = corrupt_cell(&lib.cells[4].cell, Corruption::DanglingGate, 1)?;
    let session = Session::open(&store)?;
    let third = run(&lib, &session)?;
    let report = session.report();
    println!(
        "\nafter editing one cell: {} stale record(s) evicted, {} reused",
        report.evicted_stale, report.reused_complete
    );
    print!("{}", third.quarantine.render());

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
