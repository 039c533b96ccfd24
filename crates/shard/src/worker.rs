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
//! 3. starts a heartbeat thread that atomically rewrites the heartbeat
//!    file every interval (liveness proof for the supervisor),
//! 4. opens a [`ca_core::Session`] on its private journal and runs the
//!    crash-safe robust driver — so a retried worker resumes from the
//!    records its predecessor got durable before dying,
//! 5. exits 0 on success, or a nonzero code the supervisor treats as a
//!    retryable shard failure.
//!
//! Exit codes: `0` success, `2` bad spec, `3` run failure.

use crate::spec::{HookAction, WorkerSpec, ENV_SPEC};
use ca_core::{characterize_library_robust, CharCache, Session};
use ca_exec::Executor;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// Reads, parses and runs the spec document at `path`.
fn run_file(path: &Path) -> i32 {
    let spec = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read worker spec {}: {e}", path.display()))
        .and_then(|text| WorkerSpec::parse(&text).map_err(|e| e.to_string()));
    match spec {
        Ok(spec) => run(&spec),
        Err(e) => {
            ca_obs::warn("ca_shard.worker", &e, &[]);
            EXIT_BAD_SPEC
        }
    }
}

/// Runs one worker to completion. The supervisor's in-process path
/// calls it directly with the spec it would have written.
pub fn run(spec: &WorkerSpec) -> i32 {
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
            // One heartbeat, then silence: the supervisor must diagnose
            // this as a hang (heartbeat timeout) and SIGKILL us.
            let _ = ca_store::write_atomic(&spec.heartbeat_path, b"0\n");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(&HookAction::Halt(appends)) => halt_after = Some(appends),
        None => {}
    }

    let heartbeat = Heartbeat::start(spec);
    let session = match Session::open(&spec.store_path) {
        Ok(session) => session,
        Err(e) => {
            ca_obs::warn(
                "ca_shard.worker",
                &format!("cannot open store: {e}"),
                fields,
            );
            heartbeat.stop();
            return finish(EXIT_RUN_FAILED, worker_span);
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
    heartbeat.stop();
    match outcome {
        Ok(_) => finish(EXIT_OK, worker_span),
        Err(e) => {
            ca_obs::warn("ca_shard.worker", &format!("shard run failed: {e}"), fields);
            finish(EXIT_RUN_FAILED, worker_span)
        }
    }
}

/// The liveness thread: rewrites the heartbeat file (atomically, via
/// the durability layer) with an incrementing counter every interval.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(spec: &WorkerSpec) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let path = spec.heartbeat_path.clone();
        let interval = spec.heartbeat_interval.max(Duration::from_millis(1));
        let handle = std::thread::spawn(move || {
            let mut beat = 0u64;
            while !flag.load(Ordering::Relaxed) {
                beat += 1;
                // A failed beat is not fatal here: the supervisor will
                // diagnose the silence as a hang and retry the shard.
                let _ = ca_store::write_atomic(&path, format!("{beat}\n"));
                // Sleep in small slices so stop() returns promptly.
                let mut remaining = interval;
                while !flag.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                    let slice = remaining.min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
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
            heartbeat_path: dir.join("shard.hb"),
            heartbeat_interval: Duration::from_millis(5),
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
        assert_eq!(run_file(&path), EXIT_OK);
        // Every cell journaled; heartbeat file exists and counts up.
        let session = Session::open(&spec.store_path).expect("reopen");
        assert_eq!(session.len(), spec.cells.len());
        let beat = std::fs::read_to_string(&spec.heartbeat_path).expect("heartbeat");
        assert!(beat.trim().parse::<u64>().expect("counter") >= 1);
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
