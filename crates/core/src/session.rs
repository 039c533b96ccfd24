//! Durable characterization sessions: checkpoint/resume over the
//! journaled on-disk store of `ca-store`.
//!
//! A [`Session`] wraps a [`ca_store::Store`] and gives the library
//! drivers ([`characterize_library_robust`](crate::characterize_library_robust)
//! with `Some(session)`, and the plain
//! [`characterize_library_with_session`](crate::characterize_library_with_session)
//! built on it) three behaviours:
//!
//! 1. **On start** the store is loaded (recovering any torn tail) and
//!    every record is *re-verified* against the incoming library: the
//!    canonical triple hash, the generation-option tag and the budget tag
//!    must all match the live netlist, and the `.cam` body must parse
//!    against it. Stale or invalid records are evicted and the cell is
//!    re-simulated — a store carried over from an edited library can
//!    never yield a wrong model. Verified complete models are pre-seeded
//!    into the [`CharCache`], so on-disk hits flow through the existing
//!    isomorphism-certified donor path (and benefit structure siblings
//!    that never had a record of their own).
//! 2. **During the run** every finished cell is journaled as it lands —
//!    complete models, degraded models (tagged, and per the
//!    never-a-donor rule *not* seeded into the cache) and quarantine
//!    verdicts alike. Each append is CRC-framed and fsynced, so a crash
//!    at any instant loses at most the cell in flight.
//! 3. **On restart after a crash** verified-complete cells are skipped
//!    and the run resumes mid-library, converging to byte-identical
//!    `.cam` exports and an identical quarantine report (modulo
//!    elapsed-time fields) at any thread count.
//!
//! Journaling failures (disk full mid-run) never abort a batch: they are
//! collected into the [`SessionReport`] and the run continues undurable.

// Session code runs unattended for hours; a stray unwrap here aborts a
// whole characterization run.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cache::CharCache;
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::robust::FailurePhase;
use ca_defects::{from_cam, to_cam, GenerateOptions};
use ca_netlist::library::Library;
use ca_netlist::Cell;
use ca_sim::SimBudget;
use ca_store::{Payload, Record, RecoveryReport, Store, StoreStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

thread_local! {
    // Nanoseconds this thread spent inside journal appends (lock wait
    // included) since the last `take_journal_ns`. A ca-serve request
    // runs leader-side on one connection thread, so draining this
    // around the engine call attributes journal time per request
    // without threading a handle through every layer.
    static JOURNAL_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Takes (and resets) the nanoseconds the *calling thread* has spent in
/// session journal appends since the previous take. Feeds the
/// `journal_us` field of ca-serve response timing breakdowns.
pub fn take_journal_ns() -> u64 {
    JOURNAL_NS.with(|c| c.replace(0))
}

/// A durable characterization session bound to one on-disk store.
///
/// Create with [`Session::open`], pass to a library driver (reusing one
/// session across restarts of the same campaign), and read
/// [`Session::report`] afterwards. The session is `Sync`: journal appends
/// from executor workers serialize on an internal lock.
#[derive(Debug)]
pub struct Session {
    store: Mutex<Store>,
    path: PathBuf,
    recovery: RecoveryReport,
    planned_complete: AtomicUsize,
    planned_degraded: AtomicUsize,
    planned_quarantined: AtomicUsize,
    evicted_stale: AtomicUsize,
    evicted_invalid: AtomicUsize,
    evicted_this_run: AtomicUsize,
    /// Appends that superseded a live record of the same cell since the
    /// last compaction: each leaves a duplicate in the journal.
    superseded_this_run: AtomicUsize,
    journaled: AtomicUsize,
    journal_errors: Mutex<Vec<String>>,
    halt_after: AtomicUsize,
    abort_on_halt: AtomicBool,
    appended: AtomicUsize,
    /// Last [`StoreStats`] values already mirrored into the global metric
    /// registry; [`Session::lift_store_stats`] publishes only the delta.
    lifted_store: Mutex<StoreStats>,
}

/// Why [`Session::evict`] drops a record.
#[derive(Debug, Clone, Copy)]
enum Eviction {
    /// A hash or tag no longer matches the library or the run
    /// configuration.
    Stale,
    /// The body failed to parse or re-verify.
    Invalid,
}

/// Snapshot of a session's lifetime counters, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Outcome of replaying the journal when the session was opened
    /// (torn tails, CRC mismatches, duplicates — all already recovered).
    pub recovery: RecoveryReport,
    /// Records verified and scheduled for reuse as complete models.
    pub reused_complete: usize,
    /// Records verified and scheduled for reuse as degraded models.
    pub reused_degraded: usize,
    /// Quarantine verdicts verified and scheduled for replay.
    pub reused_quarantined: usize,
    /// Records evicted because a hash/tag no longer matched the incoming
    /// library or run configuration (the cell is re-simulated).
    pub evicted_stale: usize,
    /// Records evicted because their body failed to parse or re-verify
    /// (the cell is re-simulated).
    pub evicted_invalid: usize,
    /// Records journaled by runs under this session.
    pub journaled: usize,
    /// Journal append/compaction failures (the runs continued; the named
    /// cells are simply not durable).
    pub journal_errors: Vec<String>,
}

impl SessionReport {
    /// Renders a compact multi-line text report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "session: {}", self.recovery.render());
        let _ = writeln!(
            out,
            "  reused: {} complete, {} degraded, {} quarantined",
            self.reused_complete, self.reused_degraded, self.reused_quarantined
        );
        let _ = writeln!(
            out,
            "  evicted: {} stale, {} invalid   journaled: {}",
            self.evicted_stale, self.evicted_invalid, self.journaled
        );
        for err in &self.journal_errors {
            let _ = writeln!(out, "  journal error: {err}");
        }
        out
    }
}

/// How the run should treat one cell, decided at plan time.
#[derive(Debug)]
pub(crate) enum Reuse {
    /// A verified complete model was seeded into the cache; characterize
    /// through the cache (certified donor path) without re-running
    /// lint/golden/simulation.
    Complete,
    /// A verified degraded model, served back to this exact cell only.
    Degraded(Box<PreparedCell>),
    /// A verified quarantine verdict, replayed without re-diagnosis.
    Quarantined {
        phase: FailurePhase,
        retries: u32,
        reason: String,
    },
}

/// Per-run reuse decisions for one library (see [`Session::plan`]).
#[derive(Debug, Default)]
pub(crate) struct SessionPlan {
    reuse: BTreeMap<String, Reuse>,
}

impl SessionPlan {
    pub(crate) fn reuse(&self, cell: &str) -> Option<&Reuse> {
        self.reuse.get(cell)
    }
}

/// Stable whole-netlist fingerprint of a cell (names, net kinds, pins,
/// connectivity and sizes — everything). Exposed for callers that need a
/// cheap exact-identity key *before* the expensive canonical analysis:
/// [`CellService`](crate::CellService) keys its journaled and memoized
/// verdicts on it, and it is the same hash the session layer stores to
/// re-verify quarantine records.
pub fn cell_fingerprint(cell: &Cell) -> u64 {
    fingerprint(cell)
}

impl Session {
    /// Opens (or creates) the session store at `path`, replaying and
    /// recovering the journal.
    ///
    /// # Errors
    ///
    /// [`CoreError::Storage`] on genuine I/O failure; corruption is
    /// recovered from and surfaced via [`Session::recovery`] instead.
    pub fn open(path: impl AsRef<Path>) -> Result<Session, CoreError> {
        let path = path.as_ref().to_path_buf();
        let store = Store::open(&path).map_err(|e| CoreError::Storage {
            path: path.display().to_string(),
            source: e.to_string(),
        })?;
        let recovery = store.recovery().clone();
        // Recovery is news, not failure: surface it in the structured
        // event sink instead of leaving it buried in the report value.
        ca_obs::emit_recovery("ca_core.session", &path, &recovery);
        let session = Session {
            store: Mutex::new(store),
            path,
            recovery,
            planned_complete: AtomicUsize::new(0),
            planned_degraded: AtomicUsize::new(0),
            planned_quarantined: AtomicUsize::new(0),
            evicted_stale: AtomicUsize::new(0),
            evicted_invalid: AtomicUsize::new(0),
            evicted_this_run: AtomicUsize::new(0),
            superseded_this_run: AtomicUsize::new(0),
            journaled: AtomicUsize::new(0),
            journal_errors: Mutex::new(Vec::new()),
            halt_after: AtomicUsize::new(0),
            abort_on_halt: AtomicBool::new(false),
            appended: AtomicUsize::new(0),
            lifted_store: Mutex::new(StoreStats::default()),
        };
        // Publish the open/recovery I/O (header fsyncs, torn-tail
        // truncation) before the first append.
        {
            let store = session.lock_store();
            session.lift_store_stats(&store);
        }
        Ok(session)
    }

    /// Path of the underlying store file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Snapshot-isolated read of one journaled record: the store lock is
    /// held for the duration of the clone, so the caller sees a record
    /// that was fully journaled — never a half-applied update — even
    /// while executor workers are appending concurrently.
    pub fn snapshot_record(&self, cell: &str) -> Option<Record> {
        self.lock_store().get(cell).cloned()
    }

    /// The journal replay/recovery outcome from [`Session::open`].
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Number of live records currently in the store.
    pub fn len(&self) -> usize {
        self.lock_store().len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the session counters.
    pub fn report(&self) -> SessionReport {
        SessionReport {
            recovery: self.recovery.clone(),
            reused_complete: self.planned_complete.load(Ordering::Relaxed),
            reused_degraded: self.planned_degraded.load(Ordering::Relaxed),
            reused_quarantined: self.planned_quarantined.load(Ordering::Relaxed),
            evicted_stale: self.evicted_stale.load(Ordering::Relaxed),
            evicted_invalid: self.evicted_invalid.load(Ordering::Relaxed),
            journaled: self.journaled.load(Ordering::Relaxed),
            journal_errors: self.lock_errors().clone(),
        }
    }

    /// CRASH-INJECTION HOOK (tests): after the `n`-th journal append of
    /// this session completes (record durable on disk), print
    /// `CA-SESSION-HALT <n>` to stdout and freeze while *holding the
    /// store lock*, so no further record can land. The process must then
    /// be killed externally — this is how the crash-recovery harness
    /// SIGKILLs a run at a deterministic cell index.
    pub fn halt_after_journal(&self, n: usize) {
        self.halt_after.store(n, Ordering::SeqCst);
    }

    /// CRASH-INJECTION HOOK (tests): like
    /// [`halt_after_journal`](Session::halt_after_journal), but instead
    /// of freezing, the process calls [`std::process::abort`] right
    /// after the marker — dying at a journal append point with no
    /// destructors, exactly like a SIGKILL that needs no external
    /// killer. The shard-worker crash matrix uses this to crash a
    /// worker deterministically mid-campaign; every fsynced record
    /// survives, everything after the append point is lost.
    pub fn abort_after_journal(&self, n: usize) {
        self.abort_on_halt.store(true, Ordering::SeqCst);
        self.halt_after.store(n, Ordering::SeqCst);
    }

    /// Re-verifies every store record against `library` under the run
    /// configuration, evicting anything stale or invalid, seeding the
    /// cache with verified complete models, and returning the per-cell
    /// reuse decisions. `replay_quarantine` is false for fail-fast runs
    /// (a replayed verdict cannot reproduce the original error value).
    pub(crate) fn plan(
        &self,
        library: &Library,
        options: GenerateOptions,
        budget: &SimBudget,
        cache: &CharCache,
        replay_quarantine: bool,
    ) -> SessionPlan {
        let mut plan = SessionPlan::default();
        let mut store = self.lock_store();
        for lc in &library.cells {
            let (cell, replay) = (&lc.cell, replay_quarantine);
            if let Some(reuse) = self.verify(&mut store, cell, options, budget, cache, replay) {
                plan.reuse.insert(cell.name().to_string(), reuse);
            }
        }
        plan
    }

    /// Verifies the live record under `cell`'s name exactly as
    /// [`Session::plan`] verifies a library cell's, for a netlist no
    /// library holds: whether it is a complete model of this very
    /// netlist (same fingerprint), now seeded into `cache` as a donor. A
    /// stale or invalid record is evicted; a record of another netlist
    /// under the name is left alone.
    pub(crate) fn verify_complete(
        &self,
        cell: &Cell,
        options: GenerateOptions,
        budget: &SimBudget,
        cache: &CharCache,
    ) -> bool {
        let mut store = self.lock_store();
        let this_netlist = store.get(cell.name()).is_some_and(|r| {
            r.fingerprint == fingerprint(cell) && matches!(r.payload, Payload::Complete { .. })
        });
        this_netlist
            && matches!(
                self.verify(&mut store, cell, options, budget, cache, false),
                Some(Reuse::Complete)
            )
    }

    /// Re-verifies the live record under `cell`'s name against `cell`
    /// under the run configuration: the reuse it allows, or `None` when
    /// there is no record, the record is a quarantine verdict and
    /// `replay_quarantine` is off, or the record was stale or invalid
    /// and has been evicted.
    fn verify(
        &self,
        store: &mut MutexGuard<'_, Store>,
        cell: &Cell,
        options: GenerateOptions,
        budget: &SimBudget,
        cache: &CharCache,
        replay_quarantine: bool,
    ) -> Option<Reuse> {
        let name = cell.name();
        let record = store.get(name).cloned()?;
        if record.options_tag != options_tag(options) || record.budget_tag != budget_tag(budget) {
            self.evict(store, name, Eviction::Stale);
            return None;
        }
        match record.payload {
            Payload::Quarantined {
                phase,
                retries,
                reason,
            } => {
                if !replay_quarantine {
                    return None;
                }
                if record.fingerprint != fingerprint(cell) {
                    self.evict(store, name, Eviction::Stale);
                    return None;
                }
                let Some(phase) = decode_phase(phase) else {
                    self.evict(store, name, Eviction::Invalid);
                    return None;
                };
                self.planned_quarantined.fetch_add(1, Ordering::Relaxed);
                ca_obs::counter!("ca_core.session.reused_quarantined", Work).inc();
                Some(Reuse::Quarantined {
                    phase,
                    retries,
                    reason,
                })
            }
            Payload::Complete { ref cam } | Payload::Degraded { ref cam } => {
                let degraded_record = matches!(record.payload, Payload::Degraded { .. });
                // Panic-isolated: a library edit can make `prepare` not
                // just fail but panic, and re-verification must only
                // cost the record, never the run.
                let prepared =
                    crate::robust::isolated(name, || PreparedCell::prepare(cell.clone()));
                let Ok(prepared) = prepared else {
                    // The record promises a model but the live cell no
                    // longer even prepares: the library was edited.
                    self.evict(store, name, Eviction::Stale);
                    return None;
                };
                if prepared.canonical.is_netlist_ordered()
                    || record.structure != prepared.canonical.structure_hash()
                    || record.wiring != prepared.canonical.wiring_hash()
                    || record.reduced != prepared.canonical.reduced_hash()
                {
                    self.evict(store, name, Eviction::Stale);
                    return None;
                }
                let Ok(model) = from_cam(cam, &prepared.cell) else {
                    self.evict(store, name, Eviction::Invalid);
                    return None;
                };
                if model.degraded != degraded_record {
                    self.evict(store, name, Eviction::Invalid);
                    return None;
                }
                if degraded_record {
                    self.planned_degraded.fetch_add(1, Ordering::Relaxed);
                    ca_obs::counter!("ca_core.session.reused_degraded", Work).inc();
                    Some(Reuse::Degraded(Box::new(prepared.with_model(model))))
                } else {
                    cache.seed_donor(
                        prepared.cell.clone(),
                        prepared.canonical.clone(),
                        model,
                        options,
                    );
                    self.planned_complete.fetch_add(1, Ordering::Relaxed);
                    ca_obs::counter!("ca_core.session.reused_complete", Work).inc();
                    Some(Reuse::Complete)
                }
            }
        }
    }

    /// Journals a characterized cell (complete or degraded) and returns
    /// whether the append landed. Errors are reported, never raised: a
    /// dead disk must not kill the batch.
    pub(crate) fn journal_model(
        &self,
        prepared: &PreparedCell,
        options: GenerateOptions,
        budget: &SimBudget,
    ) -> bool {
        let Some(model) = prepared.model.as_ref() else {
            return false;
        };
        let cam = to_cam(model);
        let record = Record {
            cell: prepared.cell.name().to_string(),
            structure: prepared.canonical.structure_hash(),
            wiring: prepared.canonical.wiring_hash(),
            reduced: prepared.canonical.reduced_hash(),
            fingerprint: fingerprint(&prepared.cell),
            options_tag: options_tag(options),
            budget_tag: budget_tag(budget),
            payload: if model.degraded {
                Payload::Degraded { cam }
            } else {
                Payload::Complete { cam }
            },
        };
        self.append(&record)
    }

    /// Journals a quarantine verdict so a resumed run can replay it
    /// without re-diagnosing the failure.
    pub(crate) fn journal_quarantine(
        &self,
        cell: &Cell,
        phase: FailurePhase,
        reason: &str,
        retries: u32,
        options: GenerateOptions,
        budget: &SimBudget,
    ) {
        let record = Record {
            cell: cell.name().to_string(),
            structure: 0,
            wiring: 0,
            reduced: 0,
            fingerprint: fingerprint(cell),
            options_tag: options_tag(options),
            budget_tag: budget_tag(budget),
            payload: Payload::Quarantined {
                phase: encode_phase(phase),
                retries,
                reason: reason.to_string(),
            },
        };
        self.append(&record);
    }

    /// Compacts the journal if it carries corruption, duplicates (found
    /// at open or appended since the last compaction) or evictions
    /// (otherwise the file is already a clean snapshot). Called by the
    /// drivers at the end of a run and by the service on drain.
    pub(crate) fn maybe_compact(&self) {
        let evicted = self.evicted_this_run.swap(0, Ordering::Relaxed);
        let superseded = self.superseded_this_run.swap(0, Ordering::Relaxed);
        let needs = !self.recovery.is_clean()
            || self.recovery.duplicates > 0
            || evicted > 0
            || superseded > 0;
        if !needs {
            return;
        }
        let mut store = self.lock_store();
        if let Err(e) = store.compact() {
            self.lock_errors().push(format!("compaction failed: {e}"));
        }
        self.lift_store_stats(&store);
    }

    /// Appends `record`, returning whether it landed.
    fn append(&self, record: &Record) -> bool {
        let journal_time = ca_obs::Stopwatch::start();
        let mut store = self.lock_store();
        let landed = match store.append(record) {
            Ok(superseded) => {
                if superseded {
                    self.superseded_this_run.fetch_add(1, Ordering::Relaxed);
                }
                self.journaled.fetch_add(1, Ordering::Relaxed);
                ca_obs::counter!("ca_core.session.journaled", Work).inc();
                self.lift_store_stats(&store);
                let count = self.appended.fetch_add(1, Ordering::SeqCst) + 1;
                let halt = self.halt_after.load(Ordering::SeqCst);
                if halt != 0 && count == halt {
                    // Crash-injection hook: announce the halt point, then
                    // freeze *holding the store lock* so no later record
                    // can land before the external SIGKILL arrives. The
                    // marker is inter-process protocol with the SIGKILL
                    // harness, so it goes through the one sanctioned
                    // stdout door (invariant D5).
                    ca_obs::protocol_marker(&format!("CA-SESSION-HALT {count}"));
                    if self.abort_on_halt.load(Ordering::SeqCst) {
                        // Self-inflicted crash: no unwinding, no
                        // destructors, records up to here are durable.
                        std::process::abort();
                    }
                    loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    }
                }
                true
            }
            Err(e) => {
                // I/O failures are environment accidents, not work done:
                // `Ops`, so they never join determinism fingerprints.
                ca_obs::counter!("ca_core.session.journal_errors", Ops).inc();
                self.lock_errors()
                    .push(format!("journal append for `{}` failed: {e}", record.cell));
                false
            }
        };
        JOURNAL_NS.with(|c| c.set(c.get().saturating_add(journal_time.elapsed_ns())));
        landed
    }

    fn evict(&self, store: &mut MutexGuard<'_, Store>, cell: &str, why: Eviction) {
        store.evict(cell);
        match why {
            Eviction::Stale => {
                self.evicted_stale.fetch_add(1, Ordering::Relaxed);
                ca_obs::counter!("ca_core.session.evicted_stale", Work).inc();
            }
            Eviction::Invalid => {
                self.evicted_invalid.fetch_add(1, Ordering::Relaxed);
                ca_obs::counter!("ca_core.session.evicted_invalid", Work).inc();
            }
        }
        self.evicted_this_run.fetch_add(1, Ordering::Relaxed);
        self.lift_store_stats(store);
    }

    /// Mirrors the underlying store's I/O counters into the global metric
    /// registry as `ca_store.*` deltas. `ca-store` itself carries no
    /// `ca-obs` dependency (the dependency points the other way: `ca-obs`
    /// uses its `write_atomic`), so the session layer lifts the plain
    /// [`StoreStats`] fields here. Idempotent: only growth since the last
    /// lift is added.
    fn lift_store_stats(&self, store: &Store) {
        let stats = store.stats();
        let mut last = self
            .lifted_store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let lift = |name: &str, now: u64, then: u64| {
            if now > then {
                ca_obs::global()
                    .counter(name, ca_obs::MetricClass::Work)
                    .add(now - then);
            }
        };
        lift("ca_store.journal.appends", stats.appends, last.appends);
        lift(
            "ca_store.journal.append_bytes",
            stats.append_bytes,
            last.append_bytes,
        );
        lift("ca_store.journal.fsyncs", stats.fsyncs, last.fsyncs);
        lift(
            "ca_store.journal.compactions",
            stats.compactions,
            last.compactions,
        );
        lift(
            "ca_store.journal.evictions",
            stats.evictions,
            last.evictions,
        );
        lift(
            "ca_store.recovery.truncated_bytes",
            stats.recovery_truncated_bytes,
            last.recovery_truncated_bytes,
        );
        *last = stats;
    }

    fn lock_store(&self) -> MutexGuard<'_, Store> {
        self.store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_errors(&self) -> MutexGuard<'_, Vec<String>> {
        self.journal_errors
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

// ---------------------------------------------------------------------
// Tags and fingerprints
// ---------------------------------------------------------------------

/// Stable tag of the generation options. Bit-packed rather than hashed:
/// three booleans, trivially collision-free and stable across versions.
fn options_tag(options: GenerateOptions) -> u64 {
    u64::from(options.policy.driven_x_detects)
        | u64::from(options.policy.floating_x_detects) << 1
        | u64::from(options.inter_transistor) << 2
}

/// Stable tag of a simulation budget (FNV over its encoded fields).
/// Records are only reused under the budget they were produced with, so
/// a resumed run converges to exactly what the uninterrupted run under
/// the same configuration would have produced.
fn budget_tag(budget: &SimBudget) -> u64 {
    let mut h = Fnv::new();
    h.opt(budget.max_solver_iterations.map(|v| v as u64));
    h.opt(budget.max_stimuli.map(|v| v as u64));
    h.opt(budget.max_defects.map(|v| v as u64));
    h.opt(budget.wall_clock.map(|d| {
        let nanos = d.as_nanos();
        (nanos as u64) ^ ((nanos >> 64) as u64)
    }));
    h.finish()
}

/// Whole-netlist fingerprint: names, net kinds, pin lists, transistor
/// connectivity *and sizes*. Unlike the canonical triple (which quotients
/// away sizes and naming on purpose), this changes on any edit — it is
/// the staleness check for quarantine records, whose failure can depend
/// on anything in the netlist.
fn fingerprint(cell: &Cell) -> u64 {
    let mut h = Fnv::new();
    h.str(cell.name());
    h.u64(cell.nets().len() as u64);
    for net in cell.nets() {
        h.str(net.name());
        h.u64(net.kind() as u64);
    }
    for pins in [cell.inputs(), cell.outputs()] {
        h.u64(pins.len() as u64);
        for pin in pins {
            h.u64(u64::from(pin.0));
        }
    }
    h.u64(u64::from(cell.power().0));
    h.u64(u64::from(cell.ground().0));
    h.u64(cell.num_transistors() as u64);
    for t in cell.transistors() {
        h.str(t.name());
        h.u64(t.kind() as u64);
        for net in [t.drain(), t.gate(), t.source(), t.bulk()] {
            h.u64(u64::from(net.0));
        }
        h.u64(u64::from(t.width_nm()));
        h.u64(u64::from(t.length_nm()));
    }
    h.finish()
}

/// FNV-1a, with length-prefixed field framing so adjacent fields cannot
/// alias.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.byte(0),
            Some(v) => {
                self.byte(1);
                self.u64(v);
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn encode_phase(phase: FailurePhase) -> u8 {
    match phase {
        FailurePhase::Lint => 0,
        FailurePhase::Golden => 1,
        FailurePhase::Prepare => 2,
        FailurePhase::Characterize => 3,
    }
}

pub(crate) fn decode_phase(byte: u8) -> Option<FailurePhase> {
    match byte {
        0 => Some(FailurePhase::Lint),
        1 => Some(FailurePhase::Golden),
        2 => Some(FailurePhase::Prepare),
        3 => Some(FailurePhase::Characterize),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;
    use std::time::Duration;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ca-session-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.caj"))
    }

    #[test]
    fn options_tag_distinguishes_all_axes() {
        use ca_sim::DetectionPolicy;
        let mut tags = std::collections::BTreeSet::new();
        for driven in [false, true] {
            for floating in [false, true] {
                for inter in [false, true] {
                    tags.insert(options_tag(GenerateOptions {
                        policy: DetectionPolicy {
                            driven_x_detects: driven,
                            floating_x_detects: floating,
                        },
                        inter_transistor: inter,
                    }));
                }
            }
        }
        assert_eq!(tags.len(), 8);
    }

    #[test]
    fn budget_tag_distinguishes_field_positions() {
        let unlimited = SimBudget::unlimited();
        let a = SimBudget {
            max_stimuli: Some(4),
            ..SimBudget::unlimited()
        };
        let b = SimBudget {
            max_defects: Some(4),
            ..SimBudget::unlimited()
        };
        let c = SimBudget {
            wall_clock: Some(Duration::from_secs(4)),
            ..SimBudget::unlimited()
        };
        let tags = [
            budget_tag(&unlimited),
            budget_tag(&a),
            budget_tag(&b),
            budget_tag(&c),
        ];
        let unique: std::collections::BTreeSet<u64> = tags.iter().copied().collect();
        assert_eq!(unique.len(), tags.len(), "{tags:?}");
        assert_eq!(budget_tag(&unlimited), budget_tag(&SimBudget::default()));
    }

    #[test]
    fn fingerprint_sees_sizes_and_names() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let base = fingerprint(&cell);
        assert_eq!(base, fingerprint(&spice::parse_cell(NAND2).unwrap()));
        let renamed = spice::parse_cell(&NAND2.replace("MN1", "MNX")).unwrap();
        assert_ne!(base, fingerprint(&renamed));
        let rewired = spice::parse_cell(&NAND2.replace("MN1 net0 B", "MN1 net0 A")).unwrap();
        assert_ne!(base, fingerprint(&rewired));
    }

    /// The slot of `phase` in `seen`. No `_` arm: a new phase does not
    /// compile until it claims a slot, a slot past the array does not
    /// compile until the array grows, and then `phase_codes_round_trip`
    /// fails until the phase is listed there.
    fn phase_slot(phase: FailurePhase, seen: &mut [bool; 4]) -> &mut bool {
        match phase {
            FailurePhase::Lint => &mut seen[0],
            FailurePhase::Golden => &mut seen[1],
            FailurePhase::Prepare => &mut seen[2],
            FailurePhase::Characterize => &mut seen[3],
        }
    }

    #[test]
    fn phase_codes_round_trip() {
        let mut seen = [false; 4];
        for phase in [
            FailurePhase::Lint,
            FailurePhase::Golden,
            FailurePhase::Prepare,
            FailurePhase::Characterize,
        ] {
            *phase_slot(phase, &mut seen) = true;
            assert_eq!(decode_phase(encode_phase(phase)), Some(phase));
        }
        assert_eq!(seen, [true; 4], "a FailurePhase is not round-tripped");
        assert_eq!(decode_phase(200), None);
    }

    #[test]
    fn open_reports_recovery_and_counts() {
        let path = tmp_path("open");
        let _ = std::fs::remove_file(&path);
        let session = Session::open(&path).unwrap();
        assert!(session.recovery().is_clean());
        assert!(session.is_empty());
        let report = session.report();
        assert_eq!(report.journaled, 0);
        assert!(report.render().contains("session:"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicates_appended_this_session_are_compacted() {
        let path = tmp_path("superseded");
        let _ = std::fs::remove_file(&path);
        let session = Session::open(&path).unwrap();
        let cell = spice::parse_cell(NAND2).unwrap();
        let journal = |reason: &str| {
            session.journal_quarantine(
                &cell,
                FailurePhase::Golden,
                reason,
                0,
                GenerateOptions::default(),
                &SimBudget::unlimited(),
            )
        };
        journal("first");
        session.maybe_compact();
        assert_eq!(
            session.lock_store().stats().compactions,
            0,
            "one record per name: the journal is already a snapshot"
        );
        journal("second");
        session.maybe_compact();
        assert_eq!(session.len(), 1);
        assert_eq!(session.lock_store().stats().compactions, 1);
        session.maybe_compact();
        assert_eq!(
            session.lock_store().stats().compactions,
            1,
            "compaction drops the duplicate, so a second drain has none"
        );
        drop(session);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.recovery().valid_records, 1);
        assert_eq!(store.recovery().duplicates, 0);
        match &store.get("NAND2").unwrap().payload {
            Payload::Quarantined { reason, .. } => assert_eq!(reason, "second"),
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_failure_is_a_storage_error() {
        let err = Session::open("/nonexistent-dir-xyz/store.caj").unwrap_err();
        assert!(matches!(err, CoreError::Storage { .. }), "{err:?}");
    }
}
