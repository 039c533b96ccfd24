//! The worker side of a sharded campaign.
//!
//! A worker is any process whose entry point calls [`run_from_env`]:
//! the `ca-bench shard-worker` command, a test binary, a future
//! `ca-serve` executor. With no [`ENV_SPEC`] in the environment the
//! call is inert (`None`), so host binaries can call it
//! unconditionally. With it set, the worker:
//!
//! 1. reads and parses the spec document it names ([`crate::spec`]),
//! 2. obeys the spec's test hooks, if the supervisor wrote any,
//! 3. starts a beat thread that writes one `CA-SHARD-BEAT <n>` line to
//!    stdout every interval (liveness proof for the supervisor, which
//!    holds the other end of the pipe),
//! 4. opens a [`ca_core::Session`] on its private journal and runs the
//!    crash-safe robust driver — so a retried worker resumes from the
//!    records its predecessor got durable before dying,
//! 5. exits 0 on success, or a nonzero code the supervisor treats as a
//!    retryable shard failure.
//!
//! [`run`], the supervisor's in-process path, does the same without
//! the beat thread: it writes nothing to the host's stdout.
//!
//! Exit codes: `0` success, `2` bad spec, `3` run failure.

use crate::spec::{HookAction, WorkerSpec, ENV_SPEC};
use ca_core::{characterize_library_robust, CharCache, Session};
use ca_exec::Executor;
use std::path::Path;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Worker success.
pub const EXIT_OK: i32 = 0;
/// The spec document could not be read or parsed.
pub const EXIT_BAD_SPEC: i32 = 2;
/// The session or the robust driver failed.
pub const EXIT_RUN_FAILED: i32 = 3;

/// Runs as a shard worker if [`ENV_SPEC`] names a spec document.
///
/// Returns `None` when the process is not a worker (caller proceeds
/// normally) and `Some(exit_code)` when it is — the caller should
/// `std::process::exit` with that code.
pub fn run_from_env() -> Option<i32> {
    let path = std::env::var_os(ENV_SPEC)?;
    Some(run_file(Path::new(&path)))
}

/// Reads, parses and runs the spec document at `path`, beating on
/// stdout while it works.
fn run_file(path: &Path) -> i32 {
    let spec = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read worker spec {}: {e}", path.display()))
        .and_then(|text| WorkerSpec::parse(&text).map_err(|e| e.to_string()));
    match spec {
        Ok(spec) => execute(&spec, true),
        Err(e) => {
            ca_obs::warn("ca_shard.worker", &e, &[]);
            EXIT_BAD_SPEC
        }
    }
}

/// Runs one worker to completion without beating. The supervisor's
/// in-process path calls it directly with the spec it would have
/// written.
pub fn run(spec: &WorkerSpec) -> i32 {
    execute(spec, false)
}

/// The worker proper; with `beat` a beat thread proves liveness on
/// stdout while the shard is characterized.
fn execute(spec: &WorkerSpec, beat: bool) -> i32 {
    let shard = spec.shard_index.to_string();
    let attempt = spec.attempt.to_string();
    let fields: &[(&str, &str)] = &[("shard", shard.as_str()), ("attempt", attempt.as_str())];

    // Adopt the supervisor's shard-attempt span (carried in the spec
    // across the process boundary) so every span this worker emits —
    // including per-cell spans inside the robust driver — parents into
    // the campaign trace. Inert when the campaign is untraced.
    let _trace_adopt = spec.trace.map(ca_obs::trace::adopt);
    let worker_span = ca_obs::span!("worker");

    // The spawned-process path exits immediately after this function
    // returns, so the worker flushes its own buffered events (the
    // supervisor points CA_OBS_PATH at a per-attempt JSONL file).
    let finish = |code: i32, span: ca_obs::Span| {
        drop(span);
        let _ = ca_obs::flush();
        code
    };

    // Of the spec's test hooks only the least in `HookAction`'s order
    // acts, whatever the list order: fail, then hang, then halt.
    let mut halt_after = None;
    match spec.hooks.iter().min() {
        Some(&HookAction::Fail(code)) => {
            ca_obs::warn("ca_shard.worker", "test hook: failing", fields);
            return finish(code, worker_span);
        }
        Some(HookAction::Hang) => {
            // No beat, ever: the supervisor must diagnose this as a hang
            // (heartbeat timeout) and SIGKILL us.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(&HookAction::Halt(appends)) => halt_after = Some(appends),
        None => {}
    }

    // Dropping `stop` ends the beat thread's wait at once, whatever the
    // interval, and the scope joins it before the worker reports.
    let (stop, stopped) = mpsc::channel::<()>();
    let code = std::thread::scope(|scope| {
        if beat {
            scope.spawn(move || beat_until(&stopped, spec.heartbeat_interval));
        }
        let code = characterize(spec, halt_after, fields);
        drop(stop);
        code
    });
    finish(code, worker_span)
}

/// Opens the worker's session and runs the robust driver over its
/// shard, aborting after `halt_after` journal appends when a test hook
/// asks for it.
fn characterize(spec: &WorkerSpec, halt_after: Option<usize>, fields: &[(&str, &str)]) -> i32 {
    let session = match Session::open(&spec.store_path) {
        Ok(session) => session,
        Err(e) => {
            ca_obs::warn(
                "ca_shard.worker",
                &format!("cannot open store: {e}"),
                fields,
            );
            return EXIT_RUN_FAILED;
        }
    };
    if let Some(appends) = halt_after {
        session.abort_after_journal(appends);
    }
    let outcome = characterize_library_robust(
        &spec.library(),
        spec.options,
        &spec.budget,
        spec.policy,
        &Executor::from_env(),
        &CharCache::new(),
        Some(&session),
    );
    match outcome {
        Ok(_) => EXIT_OK,
        Err(e) => {
            ca_obs::warn("ca_shard.worker", &format!("shard run failed: {e}"), fields);
            EXIT_RUN_FAILED
        }
    }
}

/// The beat thread: `CA-SHARD-BEAT <n>` on stdout every `interval` (at
/// least 1 ms) until `stop`'s sender is dropped.
fn beat_until(stop: &mpsc::Receiver<()>, interval: Duration) {
    let interval = interval.max(Duration::from_millis(1));
    let mut beat = 0u64;
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        beat += 1;
        ca_obs::protocol_marker(&format!("CA-SHARD-BEAT {beat}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::FaultPolicy;
    use ca_defects::GenerateOptions;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::Technology;
    use ca_sim::SimBudget;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ca-shard-worker-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn spec_for(dir: &Path) -> WorkerSpec {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(3);
        WorkerSpec {
            store_path: dir.join("shard.caj"),
            heartbeat_interval: Duration::from_secs(15),
            options: GenerateOptions::default(),
            budget: SimBudget::unlimited(),
            policy: FaultPolicy::SkipAndReport,
            shard_index: 0,
            attempt: 1,
            trace: None,
            hooks: Vec::new(),
            technology: lib.technology,
            cells: lib.cells.into_iter().map(|lc| lc.cell).collect(),
        }
    }

    #[test]
    fn worker_runs_a_spec_document_and_journals() {
        let dir = scratch("run");
        let spec = spec_for(&dir);
        let path = dir.join("shard.spec");
        ca_store::write_atomic(&path, spec.render()).expect("write spec");
        let watch = ca_obs::Stopwatch::start();
        assert_eq!(run_file(&path), EXIT_OK);
        // The beat thread stops when the run ends, not at its first beat.
        assert!(watch.elapsed() < spec.heartbeat_interval);
        // Every cell journaled.
        let session = Session::open(&spec.store_path).expect("reopen");
        assert_eq!(session.len(), spec.cells.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fail_hook_exits_with_its_code_before_any_work() {
        let dir = scratch("fail");
        // A `Fail` wins wherever it sits in the list: listed after a
        // `Hang`, it still exits instead of hanging.
        for hooks in [
            vec![HookAction::Fail(7)],
            vec![HookAction::Hang, HookAction::Halt(0), HookAction::Fail(7)],
        ] {
            let spec = WorkerSpec {
                hooks,
                ..spec_for(&dir)
            };
            assert_eq!(run(&spec), 7);
            assert!(!spec.store_path.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_spec_file_is_a_bad_spec() {
        let dir = scratch("missing");
        assert_eq!(run_file(&dir.join("absent.spec")), EXIT_BAD_SPEC);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparsable_spec_file_is_a_bad_spec() {
        let dir = scratch("garbled");
        let path = dir.join("shard.spec");
        ca_store::write_atomic(&path, "not a worker spec").expect("write");
        assert_eq!(run_file(&path), EXIT_BAD_SPEC);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
