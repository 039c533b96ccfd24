//! Sharded multi-process characterization (README "Running a sharded
//! campaign").
//!
//! Partitions a library into shards, spawns one supervised worker
//! process per shard (this example binary doubles as the worker
//! executable, handed its shard as one spec document named by
//! `CA_SHARD_SPEC`), merges the shard journals deterministically, then
//! proves the campaign's `.cam` exports are byte-identical to a plain
//! single-process session over the same library.

use cell_aware::core::{
    characterize_library_robust, export_cam_with, CharCache, Executor, FaultPolicy, Session,
};
use cell_aware::defects::GenerateOptions;
use cell_aware::netlist::{generate_library, LibraryConfig, Technology};
use cell_aware::shard::{run_campaign, CampaignConfig, Spawner};
use cell_aware::sim::SimBudget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Worker mode: the supervisor re-invokes this same binary with
    // CA_SHARD_SPEC naming the spec document of one shard attempt.
    if let Some(code) = cell_aware::shard::worker::run_from_env() {
        std::process::exit(code);
    }

    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(24);

    let dir = std::env::temp_dir().join(format!("ca-shard-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // Sharded campaign: 3 supervised worker processes, deterministic
    // plan, order-independent merge, final verification pass.
    let config = CampaignConfig::new(3);
    let spawner = Spawner::current_exe(Vec::new())?;
    let campaign = run_campaign(&lib, &config, &spawner, &dir.join("campaign"))?;
    print!("{}", campaign.report.render());

    // Single-process golden over the same library.
    let golden = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        Some(&Session::open(dir.join("golden.caj"))?),
    )?;

    let sharded = export_cam_with(&campaign.outcome.prepared, true);
    let single = export_cam_with(&golden.prepared, true);
    println!();
    println!(
        "exports: {} sharded vs {} single-process, byte-identical: {}",
        sharded.len(),
        single.len(),
        sharded == single
    );
    assert_eq!(sharded, single, "campaign must match the golden");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
