//! The worker side of a sharded campaign.
//!
//! A worker is any process whose entry point calls [`run_from_env`]:
//! the `ca-bench shard-worker` command, a test binary, a future
//! `ca-serve` executor. With no `CA_SHARD_LIBRARY` in the environment
//! the call is inert (`None`), so host binaries can call it
//! unconditionally. With a spec present, the worker:
//!
//! 1. decodes its shard library ([`crate::codec`]),
//! 2. starts a heartbeat thread that atomically rewrites the heartbeat
//!    file every interval (liveness proof for the supervisor),
//! 3. opens a [`ca_core::Session`] on its private journal and runs the
//!    crash-safe robust driver — so a retried worker resumes from the
//!    records its predecessor got durable before dying,
//! 4. exits 0 on success, or a nonzero code the supervisor treats as a
//!    retryable shard failure.
//!
//! Exit codes: `0` success, `2` bad spec/library, `3` run failure.

use crate::spec::{TestHook, WorkerSpec, ENV_HALT, ENV_TEST_FAIL, ENV_TEST_HANG};
use ca_core::{characterize_library_robust, CharCache, Session};
use ca_exec::Executor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker success.
pub const EXIT_OK: i32 = 0;
/// The spec or the shard library failed to decode.
pub const EXIT_BAD_SPEC: i32 = 2;
/// The session or the robust driver failed.
pub const EXIT_RUN_FAILED: i32 = 3;

/// Runs as a shard worker if the `CA_SHARD_*` environment says so.
///
/// Returns `None` when the process is not a worker (caller proceeds
/// normally) and `Some(exit_code)` when it is — the caller should
/// `std::process::exit` with that code.
pub fn run_from_env() -> Option<i32> {
    let spec = match WorkerSpec::from_env() {
        Ok(None) => return None,
        Ok(Some(spec)) => spec,
        Err(e) => {
            ca_obs::warn("ca_shard.worker", &format!("bad worker spec: {e}"), &[]);
            return Some(EXIT_BAD_SPEC);
        }
    };
    Some(run(&spec))
}

/// Runs one worker to completion. Factored out of [`run_from_env`] so
/// the supervisor's in-process degraded path can reuse it verbatim.
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

    // Crash-injection hooks, scoped by shard and attempt ceiling.
    let hook = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|v| TestHook::parse(&v))
            .filter(|h| h.applies(spec.shard_index, spec.attempt))
    };
    if let Some(h) = hook(ENV_TEST_FAIL) {
        ca_obs::warn("ca_shard.worker", "test hook: failing", fields);
        return finish(h.param as i32, worker_span);
    }
    if hook(ENV_TEST_HANG).is_some() {
        // One heartbeat, then silence: the supervisor must diagnose
        // this as a hang (heartbeat timeout) and SIGKILL us.
        let _ = ca_store::write_atomic(&spec.heartbeat_path, b"0\n");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    let text = match std::fs::read_to_string(&spec.library_path) {
        Ok(text) => text,
        Err(e) => {
            ca_obs::warn(
                "ca_shard.worker",
                &format!("cannot read shard library: {e}"),
                fields,
            );
            return finish(EXIT_BAD_SPEC, worker_span);
        }
    };
    let library = match crate::codec::decode_library(&text) {
        Ok(lib) => lib,
        Err(e) => {
            ca_obs::warn("ca_shard.worker", &format!("{e}"), fields);
            return finish(EXIT_BAD_SPEC, worker_span);
        }
    };

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
    if let Some(h) = hook(ENV_HALT) {
        session.abort_after_journal(h.param as usize);
    }

    let outcome = characterize_library_robust(
        &library,
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
    use std::path::{Path, PathBuf};

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ca-shard-worker-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn spec_for(dir: &Path) -> WorkerSpec {
        WorkerSpec {
            library_path: dir.join("shard.lib"),
            store_path: dir.join("shard.caj"),
            heartbeat_path: dir.join("shard.hb"),
            options: GenerateOptions::default(),
            budget: SimBudget::unlimited(),
            policy: FaultPolicy::SkipAndReport,
            shard_index: 0,
            attempt: 1,
            heartbeat_interval: Duration::from_millis(5),
            trace: None,
        }
    }

    #[test]
    fn worker_runs_a_shard_in_process_and_journals() {
        let dir = scratch("run");
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(3);
        let spec = spec_for(&dir);
        ca_store::write_atomic(&spec.library_path, crate::codec::encode_library(&lib))
            .expect("write shard library");
        assert_eq!(run(&spec), EXIT_OK);
        // Every cell journaled; heartbeat file exists and counts up.
        let session = Session::open(&spec.store_path).expect("reopen");
        assert_eq!(session.len(), lib.cells.len());
        let beat = std::fs::read_to_string(&spec.heartbeat_path).expect("heartbeat");
        assert!(beat.trim().parse::<u64>().expect("counter") >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_library_file_is_a_bad_spec() {
        let dir = scratch("missing");
        let spec = spec_for(&dir);
        assert_eq!(run(&spec), EXIT_BAD_SPEC);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_library_is_a_bad_spec() {
        let dir = scratch("garbled");
        let spec = spec_for(&dir);
        ca_store::write_atomic(&spec.library_path, "not a shard library").expect("write");
        assert_eq!(run(&spec), EXIT_BAD_SPEC);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
