//! Supervision harness: real worker processes, real crashes.
//!
//! The campaign re-spawns this test binary as its worker executable
//! (`shard_worker_entry`, inert without `CA_SHARD_SPEC`). Test hooks in
//! each campaign's `CampaignConfig` make a worker abort mid-journal (a
//! real SIGABRT, no destructors), hang (stdout silence → supervisor
//! SIGKILL) or fail with an exit code, scoped to one shard and an
//! attempt ceiling so retries then succeed; the supervisor writes them
//! into the spec of each attempt they apply to, so campaigns share no
//! process state and run concurrently. Every scenario must converge to
//! the unsharded single-process golden projection; a shard that keeps
//! failing must quarantine its cells without failing the campaign.

use ca_core::{
    characterize_library_robust, export_cam_with, CharCache, Executor, FaultPolicy, Quarantine,
    RobustOutcome, Session,
};
use ca_defects::GenerateOptions;
use ca_netlist::corrupt::{corrupt_cell, Corruption};
use ca_netlist::library::{generate_library, Library, LibraryConfig};
use ca_netlist::Technology;
use ca_shard::spec::ENV_SPEC;
use ca_shard::supervisor::{
    run_campaign, AttemptOutcome, CampaignConfig, CampaignOutcome, ShardStatus, Spawner,
};
use ca_shard::{shard_of, HookAction, ShardPlan, TestHook, WorkerSpec};
use ca_sim::SimBudget;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const SHARDS: usize = 3;

/// WORKER ENTRY POINT — inert unless spawned by a supervisor with
/// `CA_SHARD_SPEC` set.
#[test]
fn shard_worker_entry() {
    if let Some(code) = ca_shard::worker::run_from_env() {
        std::process::exit(code);
    }
}

/// Same library as the crash-recovery harness: small, with one broken
/// cell so quarantine verdicts are part of the converged state.
fn campaign_library() -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(8);
    lib.cells[2].cell = corrupt_cell(&lib.cells[2].cell, Corruption::FloatingOutput, 3)
        .expect("corruption applies");
    lib
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ca-shard-sup-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn config() -> CampaignConfig {
    let mut config = CampaignConfig::new(SHARDS);
    config.max_attempts = 3;
    config.backoff = ca_obs::Backoff::none();
    config.heartbeat_timeout = Duration::from_secs(60);
    config
}

/// The worker spawner: this test binary, re-invoked so that only
/// `shard_worker_entry` runs (and only acts when `CA_SHARD_SPEC` is
/// set).
fn worker_spawner() -> Spawner {
    Spawner::Process {
        program: std::env::current_exe().expect("own test binary"),
        args: vec![
            "shard_worker_entry".into(),
            "--exact".into(),
            "--test-threads=1".into(),
        ],
    }
}

fn golden(lib: &Library, policy: FaultPolicy, dir: &Path) -> RobustOutcome {
    characterize_library_robust(
        lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        policy,
        &Executor::from_env(),
        &CharCache::new(),
        Some(&Session::open(dir.join("golden.caj")).expect("open golden session")),
    )
    .expect("quarantining policies never error")
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

/// The shard with the most cells under the test partition — crash
/// hooks need a victim with enough journal appends to interrupt.
fn victim_shard(lib: &Library) -> usize {
    let plan = ShardPlan::partition(lib, SHARDS);
    (0..SHARDS)
        .max_by_key(|&i| plan.shards[i].len())
        .expect("some shard is populated")
}

/// The supervision record of shard `index` (the report only lists
/// populated shards, so position and index need not coincide).
fn shard_report(campaign: &CampaignOutcome, index: usize) -> &ca_shard::supervisor::ShardReport {
    campaign
        .report
        .shards
        .iter()
        .find(|s| s.index == index)
        .expect("victim shard is populated")
}

/// Runs a campaign in `dir`'s `campaign` subdirectory; each test
/// removes its `dir` once it has made its assertions.
fn run(lib: &Library, config: &CampaignConfig, spawner: &Spawner, dir: &Path) -> CampaignOutcome {
    run_campaign(lib, config, spawner, &dir.join("campaign")).expect("campaign runs")
}

/// A spawned worker proves liveness on its stdout, and libtest's output
/// capture (the spawner passes no `--nocapture`) must not swallow it.
#[test]
fn spawned_worker_beats_on_its_stdout() {
    let lib = campaign_library();
    let dir = scratch_dir("beats");
    let spec = WorkerSpec {
        store_path: dir.join("shard-0.caj"),
        heartbeat_interval: Duration::from_millis(1),
        options: GenerateOptions::default(),
        budget: SimBudget::unlimited(),
        policy: FaultPolicy::SkipAndReport,
        shard_index: 0,
        attempt: 1,
        trace: None,
        hooks: Vec::new(),
        technology: lib.technology,
        cells: lib.cells.into_iter().map(|lc| lc.cell).collect(),
    };
    let spec_path = dir.join("shard-0.spec");
    ca_store::write_atomic(&spec_path, spec.render()).expect("write spec");
    let Spawner::Process { program, args } = worker_spawner() else {
        unreachable!("the worker spawner spawns processes")
    };
    let output = Command::new(program)
        .args(args)
        .env(ENV_SPEC, &spec_path)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .expect("worker runs");
    assert!(output.status.success(), "{:?}", output.status);
    // Substrings, not lines: libtest's un-terminated
    // `test shard_worker_entry ... ` prefix shares the first beat's line.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.matches("CA-SHARD-BEAT").count() >= 2, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthy_campaign_converges_to_unsharded_golden() {
    let lib = campaign_library();
    let dir = scratch_dir("healthy");
    let golden = golden(&lib, FaultPolicy::SkipAndReport, &dir);

    let campaign = run(&lib, &config(), &worker_spawner(), &dir);
    assert_eq!(projection(&campaign.outcome), projection(&golden));
    assert!(campaign.skipped_cells.is_empty());
    assert_eq!(campaign.report.retries, 0, "{}", campaign.report.render());
    assert_eq!(campaign.report.quarantined_shards, 0);
    // Every cell's record (quarantine verdict included) is in the
    // merged store.
    assert_eq!(campaign.report.merge.merged_records, lib.cells.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_crashed_mid_journal_is_retried_and_converges() {
    let lib = campaign_library();
    let dir = scratch_dir("crash");
    let golden = golden(&lib, FaultPolicy::SkipAndReport, &dir);
    let victim = victim_shard(&lib);

    for halt in [1usize, 2] {
        // The victim's worker aborts after `halt` journal appends on
        // attempt 1 (a real SIGABRT — fsynced records survive, nothing
        // else does); the hook expires and attempt 2 resumes.
        let mut config = config();
        config.test_hooks = vec![TestHook {
            shard: victim,
            max_attempt: 1,
            action: HookAction::Halt(halt),
        }];
        let halt_dir = dir.join(format!("crash-{halt}"));
        let campaign = run(&lib, &config, &worker_spawner(), &halt_dir);
        assert_eq!(
            projection(&campaign.outcome),
            projection(&golden),
            "halt={halt} must converge"
        );
        assert!(campaign.skipped_cells.is_empty());
        assert!(campaign.report.retries >= 1, "{}", campaign.report.render());
        let victim_report = shard_report(&campaign, victim);
        assert!(
            victim_report
                .attempts
                .iter()
                .any(|a| matches!(a, AttemptOutcome::Killed)),
            "crash must surface as a signal death: {victim_report:?}"
        );
        assert_eq!(victim_report.status, ShardStatus::Completed);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_worker_is_killed_on_heartbeat_timeout_and_retried() {
    let lib = campaign_library();
    let dir = scratch_dir("hang");
    let golden = golden(&lib, FaultPolicy::SkipAndReport, &dir);
    let victim = victim_shard(&lib);

    let mut config = config();
    config.heartbeat_timeout = Duration::from_millis(400);
    config.test_hooks = vec![TestHook {
        shard: victim,
        max_attempt: 1,
        action: HookAction::Hang,
    }];
    let campaign = run(&lib, &config, &worker_spawner(), &dir);
    assert_eq!(projection(&campaign.outcome), projection(&golden));
    assert!(
        campaign.report.heartbeat_timeouts >= 1,
        "{}",
        campaign.report.render()
    );
    assert!(shard_report(&campaign, victim)
        .attempts
        .iter()
        .any(|a| matches!(a, AttemptOutcome::HeartbeatTimeout)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistently_failing_shard_quarantines_without_failing_the_campaign() {
    let lib = campaign_library();
    let dir = scratch_dir("quarantine");
    let victim = victim_shard(&lib);

    let mut config = config();
    config.max_attempts = 2;
    // The hook never expires: the shard fails every attempt.
    config.test_hooks = vec![TestHook {
        shard: victim,
        max_attempt: 99,
        action: HookAction::Fail(7),
    }];
    let campaign = run(&lib, &config, &worker_spawner(), &dir);

    let victim_report = shard_report(&campaign, victim);
    assert_eq!(victim_report.status, ShardStatus::Quarantined);
    // Each attempt exits with the hook's code and says why on its
    // stdout pipe; libtest's `test … ` prefix can share that line.
    assert_eq!(victim_report.attempts.len(), 2);
    for attempt in &victim_report.attempts {
        let AttemptOutcome::ExitCode {
            code: 7,
            reason: Some(reason),
        } = attempt
        else {
            panic!("expected exit code 7 with a reason: {attempt:?}");
        };
        assert!(reason.contains("test hook: failing"), "{reason}");
    }
    assert_eq!(campaign.report.quarantined_shards, 1);
    // Exactly the victim shard's cells are skipped, in library order.
    let expect_skipped: Vec<String> = lib
        .cells
        .iter()
        .filter(|lc| shard_of(lc.cell.name(), SHARDS) == victim)
        .map(|lc| lc.cell.name().to_string())
        .collect();
    assert!(!expect_skipped.is_empty());
    assert_eq!(campaign.skipped_cells, expect_skipped);

    // The rest of the library still matches the golden run restricted
    // to the surviving cells.
    let mut rest = lib.clone();
    rest.cells
        .retain(|lc| shard_of(lc.cell.name(), SHARDS) != victim);
    let golden = golden(&rest, FaultPolicy::SkipAndReport, &dir);
    assert_eq!(projection(&campaign.outcome), projection(&golden));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spawn_failure_degrades_to_in_process_and_converges() {
    let lib = campaign_library();
    let dir = scratch_dir("nospawn");
    let golden = golden(&lib, FaultPolicy::SkipAndReport, &dir);

    let spawner = Spawner::Process {
        program: PathBuf::from("/nonexistent/ca-shard-worker"),
        args: Vec::new(),
    };
    let campaign = run(&lib, &config(), &spawner, &dir);
    assert_eq!(projection(&campaign.outcome), projection(&golden));
    assert!(
        campaign.report.spawn_failures >= 1,
        "{}",
        campaign.report.render()
    );
    assert!(campaign.report.shards.iter().any(|s| s.degraded()));
    assert_eq!(campaign.report.quarantined_shards, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_in_process_spawner_converges() {
    let lib = campaign_library();
    let dir = scratch_dir("inproc");
    let golden = golden(&lib, FaultPolicy::SkipAndReport, &dir);

    let campaign = run(&lib, &config(), &Spawner::InProcess, &dir);
    assert_eq!(projection(&campaign.outcome), projection(&golden));
    assert!(campaign.skipped_cells.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `RetryWithReducedBudget` a single-attempt campaign must equal
/// the unsharded golden run under that policy (quarantine verdicts
/// carry the retry count).
#[test]
fn reduced_budget_campaign_matches_reduced_budget_golden() {
    let lib = campaign_library();
    let dir = scratch_dir("reduced");
    let golden = golden(&lib, FaultPolicy::RetryWithReducedBudget(1), &dir);

    let mut config = config();
    config.max_attempts = 1;
    // Workers and the final pass both run under this policy; the final
    // pass replays the workers' journaled verdicts.
    config.retry_policy = FaultPolicy::RetryWithReducedBudget(1);
    let campaign = run(&lib, &config, &worker_spawner(), &dir);
    assert_eq!(projection(&campaign.outcome), projection(&golden));
    let _ = std::fs::remove_dir_all(&dir);
}
