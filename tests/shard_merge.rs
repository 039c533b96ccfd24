//! Property tests for the order-independent shard-journal merge.
//!
//! Real shard journals (written by the robust session driver over
//! sub-libraries, quarantine records included) are merged in shuffled
//! orders, with duplicated sources and with deliberate journal damage;
//! the merged store's bytes and the final session pass's `.cam`
//! exports must be invariant throughout.

use ca_core::{
    characterize_library_robust, export_cam_with, CharCache, Executor, FaultPolicy, Quarantine,
    RobustOutcome, Session,
};
use ca_defects::GenerateOptions;
use ca_netlist::corrupt::{corrupt_cell, Corruption};
use ca_netlist::library::{generate_library, Library, LibraryConfig};
use ca_netlist::Technology;
use ca_rng::SplitMix64;
use ca_shard::{merge_shard_stores, ShardPlan};
use ca_sim::SimBudget;
use std::path::{Path, PathBuf};

/// Small library with one deliberately broken cell, so quarantine
/// records are part of what must merge correctly.
fn merge_library() -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(8);
    lib.cells[2].cell = corrupt_cell(&lib.cells[2].cell, Corruption::FloatingOutput, 3)
        .expect("corruption applies");
    lib
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ca-shard-merge-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_session(lib: &Library, session: &Session) -> RobustOutcome {
    characterize_library_robust(
        lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(2),
        &CharCache::new(),
        Some(session),
    )
    .expect("SkipAndReport never errors")
}

type CamBytes = Vec<(String, String)>;
type QuarantineKeys = Vec<(String, String, String, u32)>;

fn projection(outcome: &RobustOutcome) -> (CamBytes, QuarantineKeys) {
    (
        export_cam_with(&outcome.prepared, true),
        quarantine_keys(&outcome.quarantine),
    )
}

fn quarantine_keys(q: &Quarantine) -> QuarantineKeys {
    q.entries
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
}

/// Writes one journal per shard by running the session driver over each
/// shard sub-library, and returns the journal paths.
fn write_shard_journals(lib: &Library, shards: usize, dir: &Path) -> Vec<PathBuf> {
    let plan = ShardPlan::partition(lib, shards);
    let mut paths = Vec::new();
    for i in 0..shards {
        if plan.shards[i].is_empty() {
            continue;
        }
        let path = dir.join(format!("shard-{i}.caj"));
        let sub = plan.shard_library(lib, i);
        run_session(&sub, &Session::open(&path).expect("open shard journal"));
        paths.push(path);
    }
    paths
}

fn fisher_yates(items: &mut [PathBuf], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[test]
fn merged_bytes_are_invariant_under_source_order_and_duplicates() {
    let lib = merge_library();
    let dir = scratch_dir("shuffle");
    let mut sources = write_shard_journals(&lib, 3, &dir);
    assert!(sources.len() >= 2, "library must spread over shards");

    // A duplicated source: the same shard characterized twice (e.g. a
    // retry that lost the race with its own success) yields identical
    // records under identical tags.
    let dup = dir.join("duplicate-of-first.caj");
    std::fs::copy(&sources[0], &dup).expect("copy journal");
    sources.push(dup);

    let mut rng = SplitMix64::new(0xCA5C_ADE5);
    let mut baseline: Option<Vec<u8>> = None;
    for round in 0..6 {
        fisher_yates(&mut sources, &mut rng);
        let dest = dir.join("merged.caj");
        let report = merge_shard_stores(&sources, &dest).expect("merge");
        assert_eq!(report.merged_records, lib.cells.len());
        assert!(report.duplicates > 0, "duplicated source must be seen");
        let bytes = std::fs::read(&dest).expect("read merged store");
        match &baseline {
            None => baseline = Some(bytes),
            Some(expect) => assert_eq!(&bytes, expect, "round {round} diverged"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn final_pass_over_merged_store_matches_unsharded_golden() {
    let lib = merge_library();
    let dir = scratch_dir("golden");
    let golden = run_session(&lib, &Session::open(dir.join("golden.caj")).expect("open"));

    let sources = write_shard_journals(&lib, 3, &dir);
    let merged = dir.join("merged.caj");
    merge_shard_stores(&sources, &merged).expect("merge");

    let session = Session::open(&merged).expect("open merged store");
    let outcome = run_session(&lib, &session);
    assert_eq!(projection(&outcome), projection(&golden));
    // Every merged record must be *reused*, not recharacterized: the
    // merge preserves the session's certified-donor contract.
    let report = session.report();
    assert_eq!(
        report.reused_complete + report.reused_degraded + report.reused_quarantined,
        lib.cells.len(),
        "{}",
        report.render()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_shard_journals_recover_and_still_converge() {
    let lib = merge_library();
    let dir = scratch_dir("damage");
    let golden = run_session(&lib, &Session::open(dir.join("golden.caj")).expect("open"));

    let sources = write_shard_journals(&lib, 3, &dir);
    assert!(sources.len() >= 2);
    // Bit-flip the middle of one journal and tear the tail off another:
    // recovery must truncate the damage, and the final pass must
    // recharacterize exactly what was lost.
    let flipped_len = std::fs::metadata(&sources[0]).expect("stat").len();
    ca_store::corrupt::bit_flip(&sources[0], flipped_len / 2, 5).expect("bit flip");
    let torn_len = std::fs::metadata(&sources[1]).expect("stat").len();
    ca_store::corrupt::truncate_at(&sources[1], torn_len - 7).expect("truncate");

    let merged = dir.join("merged.caj");
    let report = merge_shard_stores(&sources, &merged).expect("merge");
    assert!(
        report.recovered_sources >= 1,
        "damage must be diagnosed: {}",
        report.render()
    );
    assert!(
        report.merged_records < lib.cells.len(),
        "damage must cost records, not corrupt them"
    );

    let outcome = run_session(&lib, &Session::open(&merged).expect("open merged"));
    assert_eq!(
        projection(&outcome),
        projection(&golden),
        "recovery + recharacterization must converge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
