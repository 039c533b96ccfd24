//! `ca-bench shard` — wall-clock benchmark of the sharded supervised
//! campaign against the unsharded single-process session run.
//!
//! The point is not raw speedup (workers re-pay process startup and the
//! merged store is re-verified by a final pass) but evidence for the
//! subsystem's core claim: the sharded campaign's `.cam` exports are
//! **byte-identical** to the unsharded run's. The benchmark fails hard
//! on any divergence before reporting a single number.

// Benchmark results feed BENCH_shard.json; a stray unwrap would abort
// the run instead of reporting the failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corpus::Profile;
use ca_core::{characterize_library_robust, export_cam_with, CharCache, FaultPolicy, Session};
use ca_defects::GenerateOptions;
use ca_exec::Executor;
use ca_netlist::library::generate_library;
use ca_netlist::Technology;
use ca_obs::JsonWriter;
use ca_shard::supervisor::{run_campaign, CampaignConfig, Spawner};
use ca_sim::SimBudget;
use std::time::{Duration, Instant};

/// Measured numbers of one sharded-campaign benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBench {
    /// Shard count of the campaign.
    pub shards: usize,
    /// Library size in cells.
    pub cells: usize,
    /// Unsharded single-process session run, seconds.
    pub single_s: f64,
    /// Sharded campaign (spawn + supervise + merge + final pass), seconds.
    pub sharded_s: f64,
    /// Records in the merged store.
    pub merged_records: usize,
    /// Shard attempts beyond the first (0 in a healthy run).
    pub retries: usize,
    /// Whether the sharded exports matched the unsharded ones byte for
    /// byte (always true when this struct is returned by [`run`]).
    pub identical: bool,
}

impl ShardBench {
    /// The `BENCH_shard.json` document.
    pub fn to_json(&self) -> String {
        JsonWriter::pretty()
            .object(|w| {
                w.key("shards").u64(self.shards as u64);
                w.key("cells").u64(self.cells as u64);
                w.key("single_s").f64(self.single_s, 3);
                w.key("sharded_s").f64(self.sharded_s, 3);
                w.key("merged_records").u64(self.merged_records as u64);
                w.key("retries").u64(self.retries as u64);
                w.key("identical").bool(self.identical);
            })
            .finish()
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "sharded campaign — {} cells over {} shard(s)\n  \
             unsharded session run: {:.2} s\n  sharded campaign:      {:.2} s\n  \
             merged records: {}, retries: {}, exports byte-identical: {}\n",
            self.cells,
            self.shards,
            self.single_s,
            self.sharded_s,
            self.merged_records,
            self.retries,
            self.identical
        )
    }
}

/// Runs the benchmark: unsharded golden run, then a sharded campaign
/// with real worker processes, then a byte-identity check.
///
/// # Panics
///
/// Panics if either run fails or if the sharded exports differ from the
/// unsharded ones — a sharding layer that changes model bytes must
/// never report a timing.
pub fn run(profile: Profile, shards: usize) -> ShardBench {
    let library = generate_library(&profile.library_config(Technology::C40));
    let options = GenerateOptions::default();
    let budget = SimBudget::unlimited();
    let work_dir = std::env::temp_dir().join(format!("ca-bench-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", work_dir.display()));

    // Unsharded golden: the same robust session driver, one process.
    let single_start = Instant::now();
    let session = Session::open(work_dir.join("single.caj"))
        .unwrap_or_else(|e| panic!("cannot open golden session: {e}"));
    let golden = characterize_library_robust(
        &library,
        options,
        &budget,
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        Some(&session),
    )
    .unwrap_or_else(|e| panic!("unsharded run failed: {e}"));
    let single_s = single_start.elapsed().as_secs_f64();
    let golden_cam = export_cam_with(&golden.prepared, true);

    // Sharded campaign with real worker processes (this binary,
    // re-invoked; see `main.rs`'s shard-worker dispatch).
    let mut config = CampaignConfig::new(shards);
    config.options = options;
    config.budget = budget;
    config.heartbeat_timeout = Duration::from_secs(30);
    let spawner = Spawner::current_exe(vec!["shard-worker".into()])
        .unwrap_or_else(|e| panic!("cannot locate own executable: {e}"));
    let sharded_start = Instant::now();
    let campaign = run_campaign(&library, &config, &spawner, &work_dir.join("campaign"))
        .unwrap_or_else(|e| panic!("sharded campaign failed: {e}"));
    let sharded_s = sharded_start.elapsed().as_secs_f64();

    assert!(
        campaign.skipped_cells.is_empty(),
        "healthy campaign quarantined cells: {:?}",
        campaign.skipped_cells
    );
    let sharded_cam = export_cam_with(&campaign.outcome.prepared, true);
    assert_eq!(
        sharded_cam.len(),
        golden_cam.len(),
        "sharded campaign exported a different cell set"
    );
    for ((gn, gc), (sn, sc)) in golden_cam.iter().zip(&sharded_cam) {
        assert_eq!(gn, sn, "export order must be library order");
        assert_eq!(gc, sc, "sharded .cam for {gn} differs from unsharded");
    }

    let bench = ShardBench {
        shards,
        cells: library.len(),
        single_s,
        sharded_s,
        merged_records: campaign.report.merge.merged_records,
        retries: campaign.report.retries,
        identical: true,
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    bench
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_obs::parse_json;

    #[test]
    fn json_document_is_well_formed_enough() {
        let bench = ShardBench {
            shards: 4,
            cells: 120,
            single_s: 8.0,
            sharded_s: 3.0,
            merged_records: 120,
            retries: 0,
            identical: true,
        };
        // The document as the hand-rendered writer before `JsonWriter`
        // produced it for this input.
        let before = "{\n  \"shards\": 4,\n  \"cells\": 120,\n  \"single_s\": 8.000,\n  \
                      \"sharded_s\": 3.000,\n  \"merged_records\": 120,\n  \"retries\": 0,\n  \
                      \"identical\": true\n}\n";
        let json = bench.to_json();
        assert_eq!(parse_json(&json), parse_json(before), "{json}");
        assert!(bench.render().contains("4 shard(s)"));
    }
}
