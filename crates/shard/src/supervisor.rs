//! The supervisor: plans shards, launches workers, watches them, and
//! merges what survives.
//!
//! Failure handling is the whole design:
//!
//! * **Crash** (abort/SIGKILL mid-journal): the worker's exit status has
//!   no code; the shard is retried and its successor *resumes* from the
//!   fsynced prefix of the same journal.
//! * **Hang** (no output on the worker's stdout pipe for
//!   `heartbeat_timeout`, while a healthy worker beats every quarter of
//!   it): the supervisor SIGKILLs the worker and retries the shard.
//! * **Failure** (nonzero exit): retried like a crash.
//! * **Retries** are paced by a deterministic capped [`Backoff`] — no
//!   ambient randomness, identical pacing on every run.
//! * **Exhausted retries** quarantine the shard with a structured
//!   [`ShardReport`]; the campaign completes without it.
//! * **No spawn at all** (container without process permissions): the
//!   shard degrades to in-process execution with a loud event.
//!
//! After supervision every shard journal — including a quarantined
//! shard's partial journal — is merged ([`crate::merge`]) and a final
//! in-process session pass over the merged store re-verifies every
//! record and characterizes whatever is missing (held-back cells that
//! could not cross the process boundary, cells lost to quarantine are
//! *excluded* and reported). The certified-donor session path makes the
//! resulting `.cam` exports byte-identical to an unsharded run.

use crate::merge::{merge_shard_stores, MergeReport};
use crate::plan::ShardPlan;
use crate::spec::{round_trips, TestHook, WorkerSpec, ENV_SPEC};
use crate::worker;
use ca_core::{
    characterize_library_robust, CharCache, CoreError, FaultPolicy, RobustOutcome, Session,
};
use ca_exec::Executor;
use ca_netlist::library::Library;
use ca_netlist::Cell;
use ca_obs::{Backoff, Stopwatch};
use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How worker processes are launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spawner {
    /// Spawn `program args...` with [`ENV_SPEC`] naming the attempt's
    /// spec document; the program must call
    /// [`crate::worker::run_from_env`].
    Process {
        /// Worker executable.
        program: PathBuf,
        /// Arguments of the worker executable.
        args: Vec<String>,
    },
    /// Run every worker inside the supervisor process (no isolation —
    /// a worker crash is a campaign crash). The explicit form of the
    /// degraded mode the supervisor falls into when spawning fails.
    InProcess,
}

impl Spawner {
    /// A spawner that re-invokes the current executable with `args`.
    ///
    /// # Errors
    ///
    /// When the current executable path cannot be determined.
    pub fn current_exe(args: Vec<String>) -> io::Result<Spawner> {
        Ok(Spawner::Process {
            program: std::env::current_exe()?,
            args,
        })
    }
}

/// How many shards are supervised concurrently.
const CONCURRENCY: usize = 4;

/// Campaign-level knobs. Everything is explicit and deterministic;
/// the only wall-clock inputs are the backoff and the heartbeat
/// timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Shard count (clamped to at least 1).
    pub shards: usize,
    /// Model-generation options, shared by workers and the final pass.
    pub options: ca_defects::GenerateOptions,
    /// Simulation budget, shared by workers and the final pass.
    pub budget: ca_sim::SimBudget,
    /// Maximum worker attempts per shard (at least 1).
    pub max_attempts: u32,
    /// Per-cell fault policy for workers and the final pass. Must not
    /// be [`FaultPolicy::FailFast`] — one broken cell must not sink a
    /// campaign. `RetryWithReducedBudget` lets a budget-starved cell
    /// degrade instead of quarantining.
    pub retry_policy: FaultPolicy,
    /// Deterministic pacing between a shard's attempts.
    pub backoff: Backoff,
    /// Silence on a spawned worker's stdout after which it is declared
    /// hung and killed. Workers beat every quarter of it (but at most
    /// once a millisecond), so a healthy worker never comes close.
    pub heartbeat_timeout: Duration,
    /// Faults injected into workers, for supervision tests; each is
    /// written into the spec of every attempt it
    /// [applies](TestHook::applies) to. Empty by default.
    pub test_hooks: Vec<TestHook>,
}

impl CampaignConfig {
    /// A conservative default campaign over `shards` shards.
    pub fn new(shards: usize) -> CampaignConfig {
        CampaignConfig {
            shards,
            options: ca_defects::GenerateOptions::default(),
            budget: ca_sim::SimBudget::unlimited(),
            max_attempts: 3,
            retry_policy: FaultPolicy::SkipAndReport,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_secs(2)),
            heartbeat_timeout: Duration::from_secs(5),
            test_hooks: Vec::new(),
        }
    }
}

/// What one worker attempt came to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Worker process exited 0.
    Completed,
    /// Spawning failed; the in-process fallback completed the shard.
    CompletedInProcess,
    /// Worker exited with this nonzero code.
    ExitCode(i32),
    /// Worker died without an exit code (crash signal, e.g. abort or
    /// SIGKILL).
    Killed,
    /// Worker fell silent on its stdout and was killed by the
    /// supervisor.
    HeartbeatTimeout,
    /// Spawning failed *and* the in-process fallback failed too.
    SpawnFailed(String),
}

/// Terminal state of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Some attempt completed the shard.
    Completed,
    /// Every attempt failed; the shard's cells were skipped.
    Quarantined,
}

/// Per-shard supervision record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub index: usize,
    /// Cell names in this shard, in library order.
    pub cells: Vec<String>,
    /// One entry per attempt, in attempt order.
    pub attempts: Vec<AttemptOutcome>,
    /// Terminal state.
    pub status: ShardStatus,
}

impl ShardReport {
    /// Whether this shard fell back to in-process execution.
    pub fn degraded(&self) -> bool {
        self.attempts
            .iter()
            .any(|a| matches!(a, AttemptOutcome::CompletedInProcess))
    }
}

/// Campaign-level summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Per-shard supervision records, by shard index.
    pub shards: Vec<ShardReport>,
    /// What the journal merge did.
    pub merge: MergeReport,
    /// Wall-clock seconds the merge took (ops timing, not part of any
    /// deterministic output).
    pub merge_seconds: f64,
    /// Attempts beyond each shard's first (a healthy campaign has 0).
    pub retries: usize,
    /// Workers killed for heartbeat silence.
    pub heartbeat_timeouts: usize,
    /// Attempts that could not spawn a worker process.
    pub spawn_failures: usize,
    /// Shards that exhausted every attempt.
    pub quarantined_shards: usize,
    /// Cells that could not round-trip the worker spec and were
    /// characterized in-process instead.
    pub held_back_cells: usize,
}

impl CampaignReport {
    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign: {} shard(s), {} retr{}, {} heartbeat timeout(s), {} spawn failure(s), \
             {} quarantined, {} held back\n{}",
            self.shards.len(),
            self.retries,
            if self.retries == 1 { "y" } else { "ies" },
            self.heartbeat_timeouts,
            self.spawn_failures,
            self.quarantined_shards,
            self.held_back_cells,
            self.merge.render(),
        );
        for shard in &self.shards {
            out.push_str(&format!(
                "\n  shard {}: {} cell(s), {} attempt(s), {:?}",
                shard.index,
                shard.cells.len(),
                shard.attempts.len(),
                shard.status
            ));
        }
        out
    }
}

/// A completed campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The final characterization outcome (same shape as the unsharded
    /// robust driver's).
    pub outcome: RobustOutcome,
    /// Supervision and merge summary.
    pub report: CampaignReport,
    /// Cells skipped because their shard was quarantined, in library
    /// order.
    pub skipped_cells: Vec<String>,
    /// Path of the merged journal (a valid `ca-store` file).
    pub merged_store: PathBuf,
}

/// Campaign-level failure (shard-level failures never surface here —
/// they retry, degrade or quarantine).
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure in the supervisor itself.
    Io(io::Error),
    /// The configuration cannot run a campaign.
    Config(String),
    /// The final in-process pass failed.
    Run(CoreError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "supervisor i/o error: {e}"),
            ShardError::Config(msg) => write!(f, "invalid campaign config: {msg}"),
            ShardError::Run(e) => write!(f, "final characterization pass failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> ShardError {
        ShardError::Io(e)
    }
}

impl From<CoreError> for ShardError {
    fn from(e: CoreError) -> ShardError {
        ShardError::Run(e)
    }
}

/// Runs a sharded campaign over `library`, using `work_dir` for worker
/// specs and journals. See the module docs for the failure model.
///
/// # Errors
///
/// [`ShardError::Config`] for unrunnable configurations (zero
/// attempts, `FailFast` policy), [`ShardError::Io`] for supervisor
/// filesystem failures (the work directory, a spec document, the
/// merge), [`ShardError::Run`] if the final in-process pass fails.
/// Worker failures are handled, not returned.
pub fn run_campaign(
    library: &Library,
    config: &CampaignConfig,
    spawner: &Spawner,
    work_dir: &Path,
) -> Result<CampaignOutcome, ShardError> {
    if config.max_attempts == 0 {
        return Err(ShardError::Config("max_attempts must be at least 1".into()));
    }
    if matches!(config.retry_policy, FaultPolicy::FailFast) {
        return Err(ShardError::Config(
            "FailFast cannot supervise a campaign; use SkipAndReport or RetryWithReducedBudget"
                .into(),
        ));
    }
    std::fs::create_dir_all(work_dir)?;

    // Campaign root span: the trace id is derived from the library's
    // cell fingerprints (order-sensitive FNV fold), so the same
    // campaign yields the same trace id on every run and every resume.
    let campaign_fp = library
        .cells
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, lc| {
            acc.wrapping_mul(0x100_0000_01b3) ^ ca_core::cell_fingerprint(&lc.cell)
        });
    let _campaign_span = ca_obs::root!("campaign", campaign_fp, "supervisor");

    // Cells that cannot cross the process boundary losslessly are held
    // back for the final in-process pass: correctness over parallelism.
    let mut shardable = Library {
        technology: library.technology,
        cells: Vec::new(),
    };
    let mut held_back = 0usize;
    for lc in &library.cells {
        if round_trips(&lc.cell) {
            shardable.cells.push(lc.clone());
        } else {
            held_back += 1;
            ca_obs::warn(
                "ca_shard.supervisor",
                "cell cannot round-trip the worker spec; held back for in-process characterization",
                &[("cell", lc.cell.name())],
            );
        }
    }

    let plan = ShardPlan::partition(&shardable, config.shards);
    let indices: Vec<usize> = plan
        .shards
        .iter()
        .enumerate()
        .filter(|(_, cells)| !cells.is_empty())
        .map(|(i, _)| i)
        .collect();
    ca_obs::counter!("ca_shard.campaign.shards", Work).add(indices.len() as u64);

    // Supervise shards concurrently.
    let pool = Executor::with_threads(CONCURRENCY);
    let shard_reports = pool
        .map(&indices, |_, &i| {
            supervise_shard(
                i,
                plan.shard_library(&shardable, i),
                config,
                spawner,
                work_dir,
            )
        })
        .into_iter()
        .collect::<io::Result<Vec<ShardReport>>>()?;

    let quarantined: BTreeSet<usize> = shard_reports
        .iter()
        .filter(|r| r.status == ShardStatus::Quarantined)
        .map(|r| r.index)
        .collect();
    for report in &shard_reports {
        if report.status == ShardStatus::Quarantined {
            ca_obs::counter!("ca_shard.campaign.quarantined_shards", Ops).inc();
            ca_obs::warn(
                "ca_shard.supervisor",
                "shard exhausted every attempt; its cells are skipped",
                &[
                    ("shard", &report.index.to_string()),
                    ("cells", &report.cells.len().to_string()),
                    ("attempts", &report.attempts.len().to_string()),
                ],
            );
        }
    }

    // Merge every journal that exists — a quarantined shard's partial
    // journal included (its records are simply unused by the final
    // pass; merging them is harmless and keeps the merge total).
    let sources: Vec<PathBuf> = indices
        .iter()
        .map(|&i| shard_path(work_dir, i, "caj"))
        .collect();
    let merged_store = work_dir.join("merged.caj");
    let merge_watch = Stopwatch::start();
    let merge = merge_shard_stores(&sources, &merged_store)?;
    let merge_seconds = merge_watch.elapsed().as_secs_f64();

    // Final in-process pass over the merged store: re-verifies every
    // merged record via the certified donor path and characterizes
    // held-back cells. Quarantined shards' cells are excluded.
    let mut final_lib = Library {
        technology: library.technology,
        cells: Vec::new(),
    };
    let mut skipped_cells = Vec::new();
    for lc in &library.cells {
        let in_quarantined_shard = round_trips(&lc.cell)
            && quarantined.contains(&crate::plan::shard_of(lc.cell.name(), config.shards.max(1)));
        if in_quarantined_shard {
            skipped_cells.push(lc.cell.name().to_string());
        } else {
            final_lib.cells.push(lc.clone());
        }
    }
    let session = Session::open(&merged_store)?;
    let outcome = characterize_library_robust(
        &final_lib,
        config.options,
        &config.budget,
        config.retry_policy,
        &Executor::from_env(),
        &CharCache::new(),
        Some(&session),
    )
    .map_err(ShardError::Run)?;

    let report = CampaignReport {
        retries: shard_reports
            .iter()
            .map(|r| r.attempts.len().saturating_sub(1))
            .sum(),
        heartbeat_timeouts: count_outcomes(&shard_reports, |a| {
            matches!(a, AttemptOutcome::HeartbeatTimeout)
        }),
        spawn_failures: count_outcomes(&shard_reports, |a| {
            matches!(
                a,
                AttemptOutcome::CompletedInProcess | AttemptOutcome::SpawnFailed(_)
            )
        }),
        quarantined_shards: quarantined.len(),
        held_back_cells: held_back,
        shards: shard_reports,
        merge,
        merge_seconds,
    };
    Ok(CampaignOutcome {
        outcome,
        report,
        skipped_cells,
        merged_store,
    })
}

fn count_outcomes(reports: &[ShardReport], pred: impl Fn(&AttemptOutcome) -> bool) -> usize {
    reports
        .iter()
        .flat_map(|r| r.attempts.iter())
        .filter(|a| pred(a))
        .count()
}

fn shard_path(work_dir: &Path, index: usize, ext: &str) -> PathBuf {
    work_dir.join(format!("shard-{index}.{ext}"))
}

/// Supervises one shard to its terminal state.
///
/// # Errors
///
/// When an attempt's spec document cannot be written.
fn supervise_shard(
    index: usize,
    shard: Library,
    config: &CampaignConfig,
    spawner: &Spawner,
    work_dir: &Path,
) -> io::Result<ShardReport> {
    // The executor adopted this closure into the campaign span's fork
    // (keyed by shard position), so this parents under the campaign
    // root at any concurrency level.
    let _shard_span = ca_obs::span_keyed!("shard", index as u64);
    let shard_cells: Vec<Cell> = shard.cells.into_iter().map(|lc| lc.cell).collect();
    let cells: Vec<String> = shard_cells.iter().map(|c| c.name().to_string()).collect();
    let spec_path = shard_path(work_dir, index, "spec");
    let mut attempts = Vec::new();
    for attempt in 1..=config.max_attempts {
        let pause = config.backoff.delay(attempt - 1);
        if pause > Duration::ZERO {
            std::thread::sleep(pause);
        }
        if attempt > 1 {
            ca_obs::counter!("ca_shard.campaign.retries", Ops).inc();
        }
        let attempt_span = ca_obs::span_keyed!("shard_attempt", u64::from(attempt));
        let spec = WorkerSpec {
            store_path: shard_path(work_dir, index, "caj"),
            heartbeat_interval: (config.heartbeat_timeout / 4).max(Duration::from_millis(1)),
            options: config.options,
            budget: config.budget,
            policy: config.retry_policy,
            shard_index: index,
            attempt,
            trace: attempt_span.context(),
            hooks: config
                .test_hooks
                .iter()
                .filter(|h| h.applies(index, attempt))
                .map(|h| h.action)
                .collect(),
            technology: shard.technology,
            cells: shard_cells.clone(),
        };
        let outcome = run_attempt(&spec, &spec_path, config, spawner)?;
        drop(attempt_span);
        let completed = matches!(
            outcome,
            AttemptOutcome::Completed | AttemptOutcome::CompletedInProcess
        );
        attempts.push(outcome);
        if completed {
            return Ok(ShardReport {
                index,
                cells,
                attempts,
                status: ShardStatus::Completed,
            });
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "D9: this attempt's outcome was pushed just above"
        )]
        ca_obs::warn(
            "ca_shard.supervisor",
            "shard attempt failed",
            &[
                ("shard", &index.to_string()),
                ("attempt", &attempt.to_string()),
                ("outcome", &format!("{:?}", attempts[attempts.len() - 1])),
            ],
        );
    }
    Ok(ShardReport {
        index,
        cells,
        attempts,
        status: ShardStatus::Quarantined,
    })
}

/// Runs one worker attempt through the spawner and supervises it.
/// `spec` is first written to `spec_path`, rewritten for every attempt
/// whichever way it runs: a spawned worker reads it from there, and it
/// is the record of what the attempt was told.
///
/// # Errors
///
/// When the spec document cannot be written.
fn run_attempt(
    spec: &WorkerSpec,
    spec_path: &Path,
    config: &CampaignConfig,
    spawner: &Spawner,
) -> io::Result<AttemptOutcome> {
    ca_store::write_atomic(spec_path, spec.render())?;
    let (program, args) = match spawner {
        Spawner::InProcess => return Ok(in_process_attempt(spec, None)),
        Spawner::Process { program, args } => (program, args),
    };
    let mut command = Command::new(program);
    command
        .args(args)
        .env(ENV_SPEC, spec_path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if ca_obs::trace::enabled() {
        // The worker inherits tracing and flushes its own span events
        // to a per-attempt JSONL file next to its spec; the stitcher
        // later merges every such file into one trace.
        command.env("CA_TRACE", "1").env(
            "CA_OBS_PATH",
            spec_path.with_extension(format!("a{}.trace.jsonl", spec.attempt)),
        );
    }
    let mut child = match command.spawn() {
        Ok(child) => child,
        Err(e) => {
            // The environment cannot start worker processes: degrade to
            // in-process execution, loudly.
            ca_obs::counter!("ca_shard.campaign.spawn_failures", Ops).inc();
            ca_obs::warn(
                "ca_shard.supervisor",
                "cannot spawn worker process; degrading to in-process execution",
                &[
                    ("shard", &spec.shard_index.to_string()),
                    ("error", &e.to_string()),
                ],
            );
            return Ok(in_process_attempt(spec, Some(e.to_string())));
        }
    };
    // Watch the worker's stdout: any output is a beat, a closed pipe
    // means the worker exited, and silence for the whole timeout is a
    // hang, killed before the reader can see the pipe close.
    let watched = match child.stdout.take() {
        Some(stdout) => watch(stdout, config.heartbeat_timeout, || {
            let _ = child.kill();
        }),
        // Not reached: stdout is piped above.
        None => Watch::Closed,
    };
    let status = child.wait();
    if watched == Watch::Silent {
        ca_obs::counter!("ca_shard.campaign.heartbeat_timeouts", Ops).inc();
        ca_obs::warn(
            "ca_shard.supervisor",
            "worker stdout silent past the heartbeat timeout; killed it",
            &[
                ("shard", &spec.shard_index.to_string()),
                ("attempt", &spec.attempt.to_string()),
            ],
        );
        return Ok(AttemptOutcome::HeartbeatTimeout);
    }
    Ok(match status.map(|s| s.code()) {
        Ok(Some(0)) => AttemptOutcome::Completed,
        Ok(Some(code)) => AttemptOutcome::ExitCode(code),
        // No code: the worker died to a signal (abort, SIGKILL,
        // OOM-killer...).
        Ok(None) | Err(_) => AttemptOutcome::Killed,
    })
}

/// How [`watch`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Watch {
    /// The pipe closed: the worker exited.
    Closed,
    /// No output for a whole timeout.
    Silent,
}

/// Drains `stdout` on a scoped reader thread and blocks until the pipe
/// closes or stays silent for `timeout`; any output re-arms the window.
/// On silence `on_silence` runs before the reader is joined, so it must
/// close the pipe's far end (the supervisor kills the worker).
fn watch(stdout: impl Read + Send, timeout: Duration, on_silence: impl FnOnce()) -> Watch {
    let (beat, beats) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || drain(stdout, &beat));
        loop {
            match beats.recv_timeout(timeout) {
                Ok(()) => {}
                Err(RecvTimeoutError::Disconnected) => return Watch::Closed,
                Err(RecvTimeoutError::Timeout) => {
                    on_silence();
                    return Watch::Silent;
                }
            }
        }
    })
}

/// Sends one message per read of `stdout` until it reaches its end.
fn drain(mut stdout: impl Read, beat: &mpsc::Sender<()>) {
    let mut buf = [0u8; 256];
    loop {
        match stdout.read(&mut buf) {
            Ok(n) if n > 0 => {
                let _ = beat.send(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            _ => return,
        }
    }
}

/// Runs the worker inside this process (explicit `Spawner::InProcess`
/// or spawn-failure fallback).
fn in_process_attempt(spec: &WorkerSpec, spawn_error: Option<String>) -> AttemptOutcome {
    match (worker::run(spec), spawn_error) {
        (0, None) => AttemptOutcome::Completed,
        (0, Some(_)) => AttemptOutcome::CompletedInProcess,
        (code, None) => AttemptOutcome::ExitCode(code),
        (code, Some(e)) => {
            AttemptOutcome::SpawnFailed(format!("{e}; in-process fallback exited {code}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::Technology;

    #[test]
    fn config_rejects_fail_fast_and_zero_attempts() {
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        let dir = std::env::temp_dir().join(format!("ca-shard-cfg-{}", std::process::id()));
        let mut config = CampaignConfig::new(2);
        config.retry_policy = FaultPolicy::FailFast;
        let err = run_campaign(&lib, &config, &Spawner::InProcess, &dir).unwrap_err();
        assert!(matches!(err, ShardError::Config(_)), "{err}");

        let mut config = CampaignConfig::new(2);
        config.max_attempts = 0;
        let err = run_campaign(&lib, &config, &Spawner::InProcess, &dir).unwrap_err();
        assert!(matches!(err, ShardError::Config(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_spec_fails_the_campaign_with_io() {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(2);
        let dir = std::env::temp_dir().join(format!("ca-shard-spec-io-{}", std::process::id()));
        // A directory where shard 0's spec document belongs.
        std::fs::create_dir_all(shard_path(&dir, 0, "spec")).expect("blocker dir");
        let err =
            run_campaign(&lib, &CampaignConfig::new(1), &Spawner::InProcess, &dir).unwrap_err();
        assert!(matches!(err, ShardError::Io(_)), "{err}");
        assert!(!shard_path(&dir, 0, "caj").exists(), "no attempt ran");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_report_renders() {
        let report = CampaignReport {
            shards: vec![ShardReport {
                index: 0,
                cells: vec!["X".into()],
                attempts: vec![AttemptOutcome::Killed, AttemptOutcome::Completed],
                status: ShardStatus::Completed,
            }],
            merge: MergeReport::default(),
            merge_seconds: 0.0,
            retries: 1,
            heartbeat_timeouts: 0,
            spawn_failures: 0,
            quarantined_shards: 0,
            held_back_cells: 0,
        };
        let text = report.render();
        assert!(text.contains("1 retry"), "{text}");
        assert!(text.contains("shard 0: 1 cell(s), 2 attempt(s)"), "{text}");
    }

    /// Runs `scenario` on its own thread and waits at most 10 s for it,
    /// so a watch that never returns fails the test instead of hanging.
    fn within_10s<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = mpsc::channel();
        std::thread::spawn(move || done.send(scenario()));
        result
            .recv_timeout(Duration::from_secs(10))
            .expect("a verdict within 10 s")
    }

    #[test]
    fn beats_hold_the_watch_and_silence_ends_it_after_a_timeout() {
        use std::io::Write as _;
        let timeout = Duration::from_millis(200);
        let (verdict, watched_for, silent_for) = within_10s(move || {
            let (reader, mut writer) = std::io::pipe().expect("pipe");
            // Beats every quarter timeout across three timeouts, then a
            // last beat and silence with the pipe still open.
            let beater = std::thread::spawn(move || {
                for beat in 0..12 {
                    let _ = writeln!(writer, "CA-SHARD-BEAT {beat}");
                    std::thread::sleep(timeout / 4);
                }
                let since_last_beat = Stopwatch::start();
                let _ = writeln!(writer, "CA-SHARD-BEAT 12");
                (writer, since_last_beat)
            });
            let watched = Stopwatch::start();
            let mut silent_for = Duration::ZERO;
            let verdict = watch(reader, timeout, || {
                let (writer, since_last_beat) = beater.join().expect("beater");
                silent_for = since_last_beat.elapsed();
                drop(writer);
            });
            (verdict, watched.elapsed(), silent_for)
        });
        assert_eq!(verdict, Watch::Silent);
        assert!(watched_for >= timeout * 3, "{watched_for:?}");
        assert!(silent_for >= timeout, "{silent_for:?}");
    }

    #[test]
    fn a_closed_pipe_ends_the_watch() {
        use std::io::Write as _;
        let verdict = within_10s(|| {
            let (reader, mut writer) = std::io::pipe().expect("pipe");
            let _ = writeln!(writer, "CA-SHARD-BEAT 1");
            drop(writer);
            watch(reader, Duration::from_secs(3600), || {
                panic!("a closed pipe is not silence")
            })
        });
        assert_eq!(verdict, Watch::Closed);
    }

    #[test]
    fn current_exe_spawner_points_at_this_binary() {
        let Spawner::Process { program, args } =
            Spawner::current_exe(vec!["--x".into()]).expect("current exe")
        else {
            panic!("process spawner expected");
        };
        assert!(program.exists());
        assert_eq!(args, vec!["--x".to_string()]);
    }
}
