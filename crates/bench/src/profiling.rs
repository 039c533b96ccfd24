//! `ca-bench profile` — end-to-end flow profile.
//!
//! Runs a representative characterization campaign through every
//! instrumented layer — lint, a journaled robust characterization
//! (simulator, cache, session, store), a session resume, CAM export,
//! forest training, batch prediction, a short in-process serving pass
//! through the `ca-serve` daemon and a two-shard `ca-shard` campaign run
//! in process — wrapping each phase in a
//! [`FlowProfile`] stage. The result renders as a human table and as
//! the machine artifact `BENCH_profile.json` (schema `ca-obs-profile/1`,
//! validated by `ca-bench profile-check` in CI).
//!
//! The workload reuses the variant-heavy benchmark library of
//! [`crate::perf`] truncated to a bounded size, with one cell corrupted
//! so the quarantine path (and its rate) is exercised, not just
//! asserted empty.

// Profile runs feed the CI gate; a stray unwrap would abort the run
// instead of reporting the failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corpus::Profile;
use ca_core::{
    characterize_library_robust, export_cam_with, CharCache, Executor, FaultPolicy, MlFlow,
    RobustOutcome, Session,
};
use ca_defects::GenerateOptions;
use ca_netlist::corrupt::{corrupt_cell, Corruption};
use ca_netlist::library::Library;
use ca_netlist::lint::{lint, Severity};
use ca_obs::FlowProfile;
use ca_sim::SimBudget;
use std::path::Path;

/// Library size cap per profile: the flow profile measures stage
/// *shape*, not throughput, so it stays deliberately small.
fn max_cells(profile: Profile) -> usize {
    match profile {
        Profile::Quick => 12,
        Profile::Full => 48,
    }
}

/// The profiled workload: the benchmark variant library truncated to
/// the profile's cell cap (12 cells quick, 48 full), with one cell's
/// output floated so the quarantine path runs.
pub fn workload_library(profile: Profile) -> Library {
    let mut library = crate::perf::bench_library(profile);
    library.cells.truncate(max_cells(profile));
    if library.cells.len() > 2 {
        if let Ok(broken) = corrupt_cell(&library.cells[2].cell, Corruption::FloatingOutput, 7) {
            library.cells[2].cell = broken;
        }
    }
    library
}

/// Runs the instrumented end-to-end flow on `executor`, journaling into
/// a session store at `store`, and returns the aggregated profile.
///
/// # Errors
///
/// Returns a rendered message on any stage failure (store I/O, an
/// unexpectedly empty training set, a prediction without coverage).
pub fn run_with(
    profile: Profile,
    store: &Path,
    executor: &Executor,
) -> Result<FlowProfile, String> {
    let library = workload_library(profile);
    let options = GenerateOptions::default();
    let budget = SimBudget::unlimited();
    let label = match profile {
        Profile::Quick => "quick",
        Profile::Full => "full",
    };
    let mut fp = FlowProfile::new(label, executor.threads());
    fp.set_meta("cells", library.len() as u64);
    // Root span for the whole profiled flow (traced only when CA_TRACE
    // is set): stage spans and everything the stages call parent here.
    // The fingerprint is the workload size — deterministic per profile.
    let _profile_span = ca_obs::root!("ca_bench.profile", library.len() as u64, "bench");

    let lint_rejects = fp.stage("lint", || {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        library
            .cells
            .iter()
            .filter(|lc| lint(&lc.cell).iter().any(|f| f.severity == Severity::Error))
            .count() as u64
    });
    fp.set_meta("lint_rejects", lint_rejects);

    // Fresh characterization: every layer under a journaling session.
    let cache = CharCache::new();
    let outcome = fp.stage("characterize", || -> Result<RobustOutcome, String> {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        let session = Session::open(store).map_err(|e| e.to_string())?;
        characterize_library_robust(
            &library,
            options,
            &budget,
            FaultPolicy::SkipAndReport,
            executor,
            &cache,
            Some(&session),
        )
        .map_err(|e| e.to_string())
    })?;

    // Resume against the same store: models and verdicts replay from
    // the journal instead of re-simulating.
    let resumed = fp.stage("resume", || -> Result<RobustOutcome, String> {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        let session = Session::open(store).map_err(|e| e.to_string())?;
        characterize_library_robust(
            &library,
            options,
            &budget,
            FaultPolicy::SkipAndReport,
            executor,
            &CharCache::new(),
            Some(&session),
        )
        .map_err(|e| e.to_string())
    })?;
    if resumed.prepared.len() != outcome.prepared.len() {
        return Err(format!(
            "resume diverged: {} models fresh vs {} resumed",
            outcome.prepared.len(),
            resumed.prepared.len()
        ));
    }

    let exported = fp.stage("export", || {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        let cams = export_cam_with(&outcome.prepared, true);
        let bytes: usize = cams.iter().map(|(_, body)| body.len()).sum();
        ca_obs::counter!("ca_bench.export.models").add(cams.len() as u64);
        ca_obs::counter!("ca_bench.export.bytes").add(bytes as u64);
        cams.len() as u64
    });
    fp.set_meta("exported_models", exported);

    let ml = fp.stage("forest_fit", || {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        MlFlow::train(&outcome.prepared, profile.ml_params()).map_err(|e| e.to_string())
    })?;

    fp.stage("predict", || -> Result<(), String> {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        let covered: Vec<_> = outcome
            .prepared
            .iter()
            .filter(|p| ml.covers(p))
            .cloned()
            .collect();
        ca_obs::counter!("ca_bench.predict.cells").add(covered.len() as u64);
        ml.predict_batch(&covered, executor)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;

    // A short serving pass over the same workload: an in-process daemon
    // answers a couple of requests sequentially (one slot, one client),
    // so the profile — and the profile-check CI gate — covers the
    // `ca_serve` layer too. Sequential requests keep every Work/Outcome
    // counter thread-invariant.
    fp.stage("serve", || -> Result<(), String> {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        let mut serve_lib = library.clone();
        serve_lib.cells.truncate(2);
        let mut config = ca_serve::ServeConfig::new(store.with_extension("serve.caj"), serve_lib);
        config.admission.slots = 1;
        let uds = store.with_extension("serve.sock");
        let server = ca_serve::Server::start(config, &[ca_serve::Endpoint::Uds(uds.clone())])
            .map_err(|e| e.to_string())?;
        let mut client = ca_serve::ServeClient::connect_uds(&uds).map_err(|e| e.to_string())?;
        let mut served = 0u64;
        for lc in library.cells.iter().take(2) {
            match client
                .characterize("profile", lc.cell.name(), 0)
                .map_err(|e| e.to_string())?
            {
                ca_serve::Response::Model { .. } => served += 1,
                other => return Err(format!("unexpected serve response: {other:?}")),
            }
        }
        drop(client);
        server.shutdown();
        ca_obs::counter!("ca_bench.profile.served").add(served);
        Ok(())
    })?;

    // A two-shard campaign over the same workload, next to the store.
    // Its workers run in this process (`Spawner::InProcess`): no process
    // is spawned, and the profile covers the `ca_shard` layer too.
    fp.stage("shard", || -> Result<(), String> {
        ca_obs::counter!("ca_bench.profile.stages").inc();
        let config = ca_shard::CampaignConfig::new(2);
        ca_shard::run_campaign(
            &library,
            &config,
            &ca_shard::Spawner::InProcess,
            &store.with_extension("shard"),
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    })?;

    let stats = cache.stats();
    fp.set_rate("cache_hit_rate", stats.hit_rate());
    fp.set_rate("cache_bypass_rate", stats.bypass_rate());
    let cells = library.len().max(1) as f64;
    fp.set_rate("quarantine_rate", outcome.quarantine.len() as f64 / cells);
    fp.set_rate("degraded_rate", outcome.degraded_count() as f64 / cells);
    fp.set_meta("models", outcome.prepared.len() as u64);
    fp.set_meta("quarantined", outcome.quarantine.len() as u64);
    Ok(fp)
}

/// [`run_with`] on the `CA_THREADS` executor and a temporary store that
/// is removed afterwards.
///
/// # Errors
///
/// See [`run_with`]; additionally fails when no scratch directory can
/// be created.
pub fn run(profile: Profile) -> Result<FlowProfile, String> {
    let dir = std::env::temp_dir().join(format!("ca-bench-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let store = dir.join("profile.castore");
    let result = run_with(profile, &store, &Executor::from_env());
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test only: stage deltas read the global registry, so a
    /// sibling test running concurrently in this binary would leak its
    /// counts into our stages. (The cross-thread determinism assertions
    /// live in `tests/obs_determinism.rs` for the same reason.)
    #[test]
    fn quick_profile_emits_a_valid_report() {
        let dir =
            std::env::temp_dir().join(format!("ca-bench-profiling-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let store = dir.join("s.castore");
        let fp =
            run_with(Profile::Quick, &store, &Executor::with_threads(2)).expect("profile runs");
        std::fs::remove_dir_all(&dir).ok();
        let json = fp.to_json();
        ca_obs::validate_profile_json(&json).expect("emitted profile validates");
        assert_eq!(fp.stages.len(), 8, "lint..shard stages");
        // The corrupted cell must travel the quarantine path.
        assert!(fp.counter_total("ca_core.flow.quarantined") >= 1);
        // The resume stage must replay, not re-simulate.
        assert!(fp.counter_total("ca_core.session.reused_complete") >= 1);
        let render = fp.render();
        assert!(render.contains("flow profile"), "{render}");
    }
}
