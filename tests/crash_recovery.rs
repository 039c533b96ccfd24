//! Crash/corruption-injection harness for durable characterization
//! sessions.
//!
//! The headline test re-spawns this test binary as a child process,
//! points it at a session store, and tells the [`ca_core::Session`] to
//! freeze after the N-th journal append (printing `CA-SESSION-HALT N`).
//! The parent SIGKILLs the frozen child — a real crash, no destructors —
//! then resumes the run in-process against the same store and proves it
//! converges to the uninterrupted run's `.cam` bytes and quarantine
//! verdicts, at 1 and 4 threads and several kill points.
//!
//! The corruption tests damage the store file directly (truncation,
//! bit-flips, garbage appends) with [`ca_store::corrupt`] and prove the
//! recovery path reports the damage, never serves it, and still converges.

use ca_core::{
    characterize_library_robust, export_cam_with, CharCache, Executor, FaultPolicy, Quarantine,
    RobustOutcome, Session,
};
use ca_defects::GenerateOptions;
use ca_netlist::corrupt::{corrupt_cell, salt_library, Corruption};
use ca_netlist::library::{generate_library, Library, LibraryConfig};
use ca_netlist::Technology;
use ca_sim::SimBudget;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Env vars of the parent→child protocol. The child test is a no-op
/// unless `STORE_ENV` is set, so it stays inert in normal suite runs.
const STORE_ENV: &str = "CA_CRASH_STORE";
const HALT_ENV: &str = "CA_CRASH_HALT";
/// Store path for the `profile_child` fingerprint protocol.
const PROFILE_STORE_ENV: &str = "CA_PROFILE_STORE";

/// The library every run (parent, child, reference) characterizes: small
/// enough to be quick, with one deliberately broken cell so quarantine
/// records are part of what must survive the crash.
fn crash_library() -> Library {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(8);
    lib.cells[2].cell = corrupt_cell(&lib.cells[2].cell, Corruption::FloatingOutput, 3)
        .expect("corruption applies");
    lib
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ca-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the robust session flow with a fresh cache.
fn run_session(lib: &Library, threads: usize, session: &Session) -> RobustOutcome {
    characterize_library_robust(
        lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(threads),
        &CharCache::new(),
        Some(session),
    )
    .expect("SkipAndReport never errors")
}

/// The comparable projection of an outcome: `.cam` file bytes (degraded
/// included) and quarantine verdicts minus the elapsed-time field.
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

/// CHILD ENTRY POINT — inert unless spawned by the harness with the
/// protocol env vars set. Runs the session flow against the given store,
/// frozen (and then SIGKILLed by the parent) after `CA_CRASH_HALT`
/// journal appends.
#[test]
fn crash_child() {
    let Ok(store) = std::env::var(STORE_ENV) else {
        return;
    };
    let halt: usize = std::env::var(HALT_ENV)
        .expect("harness sets halt point")
        .parse()
        .expect("halt point is a number");
    let lib = crash_library();
    let session = Session::open(&store).expect("child opens store");
    session.halt_after_journal(halt);
    // Thread count comes from CA_THREADS via the executor's env path.
    let outcome = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        Some(&session),
    );
    // Reaching here means the halt point exceeded the fresh work — the
    // harness only asks for halts below the library size, so this is a
    // protocol bug worth failing loudly over.
    panic!("child was expected to freeze before finishing: {outcome:?}");
}

/// CHILD ENTRY POINT — inert unless spawned with `CA_PROFILE_STORE`.
/// Runs the session flow wrapped in a [`ca_obs::FlowProfile`] stage and
/// prints the outcome-counter fingerprint between markers. It runs in
/// its own process because stage deltas snapshot the process-global
/// metric registry: sibling tests of this binary would otherwise leak
/// their counts into the stage and poison the byte comparison.
#[test]
fn profile_child() {
    let Ok(store) = std::env::var(PROFILE_STORE_ENV) else {
        return;
    };
    let threads: usize = std::env::var("CA_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let lib = crash_library();
    let session = Session::open(&store).expect("child opens store");
    let mut fp = ca_obs::FlowProfile::new("crash-harness", threads);
    fp.stage("characterize", || run_session(&lib, threads, &session));
    println!("CA-OBS-FPR-BEGIN");
    print!("{}", fp.outcome_fingerprint());
    println!("CA-OBS-FPR-END");
}

/// Spawns `profile_child` against `store` and returns the fingerprint
/// it prints.
fn profile_fingerprint(store: &Path, threads: usize) -> String {
    let exe = std::env::current_exe().expect("own test binary");
    let output = Command::new(exe)
        .args([
            "profile_child",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env(PROFILE_STORE_ENV, store)
        .env("CA_THREADS", threads.to_string())
        .stderr(Stdio::null())
        .output()
        .expect("run profile child");
    assert!(output.status.success(), "profile child must pass");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let begin = stdout
        .find("CA-OBS-FPR-BEGIN")
        .expect("fingerprint begin marker")
        + "CA-OBS-FPR-BEGIN".len();
    let end = stdout
        .find("CA-OBS-FPR-END")
        .expect("fingerprint end marker");
    stdout[begin..end]
        .trim_start_matches(['\r', '\n'])
        .to_string()
}

/// Spawns this test binary as a crash child and returns it plus its
/// stdout reader.
fn spawn_child(
    store: &Path,
    halt: usize,
    threads: usize,
) -> (Child, BufReader<impl std::io::Read>) {
    let exe = std::env::current_exe().expect("own test binary");
    let mut child = Command::new(exe)
        .args(["crash_child", "--exact", "--test-threads=1", "--nocapture"])
        .env(STORE_ENV, store)
        .env(HALT_ENV, halt.to_string())
        .env("CA_THREADS", threads.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crash child");
    let reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    (child, reader)
}

/// Reads the child's stdout until the halt marker, with a watchdog so a
/// misbehaving child can never hang CI.
fn await_halt_marker(reader: BufReader<impl std::io::Read + Send + 'static>, halt: usize) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            // Under `--nocapture` the marker shares a line with libtest's
            // un-terminated `test crash_child ... ` prefix, so search by
            // substring, not prefix.
            if let Some(at) = line.find("CA-SESSION-HALT") {
                let _ = tx.send(line[at..].to_string());
                return;
            }
        }
        // Dropping tx makes the recv below fail fast on child death.
    });
    let marker = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("child must reach its halt point");
    assert_eq!(marker, format!("CA-SESSION-HALT {halt}"));
}

fn kill_and_reap(mut child: Child) {
    // On unix `kill` is SIGKILL: the frozen child dies mid-run with no
    // destructors, exactly like a crashed or OOM-killed batch.
    child.kill().expect("kill crash child");
    let _ = child.wait();
}

fn crash_resume_converges(threads: usize) {
    let lib = crash_library();
    let dir = scratch_dir(&format!("kill-t{threads}"));

    // Uninterrupted reference: session flow on a fresh store, plus the
    // session-less driver to pin down that sessions never perturb output.
    let ref_store = dir.join("reference.caj");
    let reference = run_session(&lib, threads, &Session::open(&ref_store).expect("open"));
    let plain = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(threads),
        &CharCache::new(),
        None,
    )
    .expect("SkipAndReport never errors");
    assert_eq!(projection(&reference), projection(&plain));

    for halt in [1, 3] {
        let store = dir.join(format!("killed-at-{halt}.caj"));
        let (child, reader) = spawn_child(&store, halt, threads);
        await_halt_marker(reader, halt);
        kill_and_reap(child);

        // Resume against the orphaned store. Exactly `halt` records were
        // durable when the child died (the halt freezes while *holding*
        // the store lock, so no later append can slip in).
        let session = Session::open(&store).expect("reopen after SIGKILL");
        assert!(
            session.recovery().is_clean(),
            "fsynced appends must survive SIGKILL intact: {}",
            session.recovery().render()
        );
        assert_eq!(session.len(), halt);
        let resumed = run_session(&lib, threads, &session);
        assert_eq!(
            projection(&resumed),
            projection(&reference),
            "resume at halt={halt}, threads={threads} must converge"
        );
        let report = session.report();
        assert_eq!(
            report.reused_complete + report.reused_degraded + report.reused_quarantined,
            halt,
            "every durable record must be reused: {}",
            report.render()
        );
        assert_eq!(report.evicted_stale + report.evicted_invalid, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkilled_run_resumes_to_identical_outputs_single_thread() {
    crash_resume_converges(1);
}

#[test]
fn sigkilled_run_resumes_to_identical_outputs_four_threads() {
    crash_resume_converges(4);
}

/// DESIGN.md §9: `outcome`-class counters must survive a crash-resume
/// cycle byte-identically — a replayed quarantine verdict or a
/// store-served model counts exactly like the fresh work it replaces.
/// (`work`-class counters legitimately shrink on resume: doing less
/// simulation is the whole point of the session store.)
#[test]
fn outcome_counters_survive_crash_resume() {
    let dir = scratch_dir("fingerprint");

    // Uninterrupted reference run in a pristine child process.
    let reference = profile_fingerprint(&dir.join("reference.caj"), 2);
    for needle in [
        "[characterize]",
        "ca_core.flow.cells=8",
        "ca_core.flow.quarantined=1",
        "ca_core.flow.models_complete",
    ] {
        assert!(
            reference.contains(needle),
            "reference fingerprint must mention {needle}:\n{reference}"
        );
    }

    // Crash a second run mid-journal, then resume it on the orphaned
    // store; the resumed run's outcome counters must match the
    // uninterrupted reference's exactly.
    let store = dir.join("killed.caj");
    let (child, reader) = spawn_child(&store, 3, 2);
    await_halt_marker(reader, 3);
    kill_and_reap(child);
    let resumed = profile_fingerprint(&store, 2);
    assert_eq!(
        reference, resumed,
        "outcome counters must be byte-identical across crash-resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Store-corruptor sweep: after a complete run, damage the store file in
/// every supported way; reopening must report the damage (except for the
/// pure tail-truncation, which is indistinguishable from a clean shorter
/// log) and a re-run must converge without ever serving corrupt bytes.
#[test]
fn corrupted_store_recovers_and_converges() {
    let lib = crash_library();
    let dir = scratch_dir("corrupt");
    let reference = {
        let store = dir.join("reference.caj");
        run_session(&lib, 2, &Session::open(&store).expect("open"))
    };

    let pristine = {
        let store = dir.join("pristine.caj");
        run_session(&lib, 2, &Session::open(&store).expect("open"));
        std::fs::read(&store).expect("read pristine store")
    };
    assert!(pristine.len() > 64, "store must hold real records");

    enum Damage {
        Truncate(u64),
        BitFlip(u64),
        Garbage,
    }
    let cases: Vec<(&str, Damage)> = vec![
        // Mid-frame truncation: torn final record.
        ("truncate-mid", Damage::Truncate(pristine.len() as u64 - 7)),
        // Torn frame header right after the magic.
        ("truncate-head", Damage::Truncate(11)),
        // Bit-flip in the middle of some record's payload.
        ("bitflip-mid", Damage::BitFlip(pristine.len() as u64 / 2)),
        // Bit-flip inside the file magic.
        ("bitflip-magic", Damage::BitFlip(3)),
        // Garbage appended after the last valid frame.
        ("garbage-tail", Damage::Garbage),
    ];

    for (tag, damage) in cases {
        let store = dir.join(format!("{tag}.caj"));
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: the corruption matrix plants a raw copy of the journal to damage"
        )]
        std::fs::write(&store, &pristine).expect("plant pristine copy");
        let expect_report = match damage {
            Damage::Truncate(at) => {
                ca_store::corrupt::truncate_at(&store, at).expect("truncate");
                // Chopping below the header leaves a torn frame; chopping
                // into the header itself is also always reported.
                true
            }
            Damage::BitFlip(offset) => {
                ca_store::corrupt::bit_flip(&store, offset, 5).expect("bit flip");
                true
            }
            Damage::Garbage => {
                ca_store::corrupt::garbage_append(&store, 0xDA_7A, 33).expect("garbage");
                true
            }
        };
        let session = Session::open(&store).expect("open damaged store");
        assert_eq!(
            !session.recovery().is_clean(),
            expect_report,
            "{tag}: {}",
            session.recovery().render()
        );
        let resumed = run_session(&lib, 2, &session);
        assert_eq!(
            projection(&resumed),
            projection(&reference),
            "{tag}: recovery must converge"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing the library between runs must evict exactly the affected
/// records: the salted cells are re-diagnosed against their *new*
/// netlists while untouched cells still resume from the store.
#[test]
fn edited_library_evicts_stale_records_and_reconverges() {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(8);
    let dir = scratch_dir("salted");
    let store = dir.join("store.caj");

    let first = run_session(&lib, 2, &Session::open(&store).expect("open"));
    assert!(first.quarantine.is_empty(), "clean library to start");

    // Salt the library in place: those cells' netlists (and canonical
    // hashes / fingerprints) no longer match their journaled records.
    let salted = salt_library(&mut lib, 3, 41);
    assert_eq!(salted.len(), 3);

    let session = Session::open(&store).expect("reopen");
    let resumed = run_session(&lib, 2, &session);
    let report = session.report();
    assert_eq!(
        report.evicted_stale,
        salted.len(),
        "each salted cell must be evicted: {}",
        report.render()
    );
    assert_eq!(report.reused_complete, lib.cells.len() - salted.len());

    // The resumed run on the edited library must match a from-scratch
    // run on it — stale models must never leak through.
    let scratch = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(2),
        &CharCache::new(),
        None,
    )
    .expect("SkipAndReport never errors");
    assert_eq!(projection(&resumed), projection(&scratch));
    for s in &salted {
        let diagnosed = resumed.quarantine.entry(&s.cell).is_some()
            || resumed
                .prepared
                .iter()
                .any(|p| p.cell.name() == s.cell && p.model.is_some());
        assert!(diagnosed, "salted cell {} must be re-diagnosed", s.cell);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degraded models journal and resume too — served back to their own
/// cell, byte-identical, without re-simulation, and still flagged
/// degraded (the never-a-donor rule holds on the resume path).
#[test]
fn degraded_models_resume_byte_identical() {
    let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
    lib.cells.truncate(5);
    let dir = scratch_dir("degraded");
    let store = dir.join("store.caj");
    let budget = SimBudget {
        max_defects: Some(4),
        ..SimBudget::unlimited()
    };
    let run = |session: &Session| {
        characterize_library_robust(
            &lib,
            GenerateOptions::default(),
            &budget,
            FaultPolicy::SkipAndReport,
            &Executor::with_threads(2),
            &CharCache::new(),
            Some(session),
        )
        .expect("SkipAndReport never errors")
    };
    let first = run(&Session::open(&store).expect("open"));
    assert_eq!(first.degraded_count(), lib.cells.len());

    let session = Session::open(&store).expect("reopen");
    let resumed = run(&session);
    assert_eq!(resumed.degraded_count(), lib.cells.len());
    let report = session.report();
    assert_eq!(
        report.reused_degraded,
        lib.cells.len(),
        "{}",
        report.render()
    );
    for (a, b) in first.prepared.iter().zip(&resumed.prepared) {
        assert_eq!(a.cell.name(), b.cell.name());
        assert_eq!(a.model, b.model, "{}: resumed model differs", a.cell.name());
    }

    // A different budget is a different campaign: nothing may be reused.
    let other_budget = SimBudget {
        max_defects: Some(2),
        ..SimBudget::unlimited()
    };
    let session = Session::open(&store).expect("reopen under new budget");
    let outcome = characterize_library_robust(
        &lib,
        GenerateOptions::default(),
        &other_budget,
        FaultPolicy::SkipAndReport,
        &Executor::with_threads(2),
        &CharCache::new(),
        Some(&session),
    )
    .expect("SkipAndReport never errors");
    let report = session.report();
    assert_eq!(
        report.reused_complete + report.reused_degraded + report.reused_quarantined,
        0,
        "budget change must invalidate every record: {}",
        report.render()
    );
    assert_eq!(outcome.prepared.len(), lib.cells.len());
    let _ = std::fs::remove_dir_all(&dir);
}
