//! Per-cell, deadline-aware characterization over a durable session —
//! the engine behind the `ca-serve` daemon.
//!
//! The batch driver ([`characterize_library_robust`](crate::characterize_library_robust))
//! answers "run this whole library"; a long-running service instead
//! answers one cell at a time, concurrently, with a per-request deadline.
//! [`CellService`] is that entry point:
//!
//! - **Open** binds a [`Session`] store to a [`Library`]: journaled
//!   records are re-verified exactly as a batch resume would (stale/
//!   invalid evicted, complete models seeded into the donor cache,
//!   degraded models and quarantine verdicts memoized for replay).
//! - **Characterize** runs one cell through the batch driver's guarded
//!   pipeline and retry loop (lint, then prepare/characterize with its
//!   golden check; reduced-budget retries) and journals results under
//!   the *configured* budget, so a killed server resumes — and a batch
//!   run over the same store converges — byte-identically.
//! - **Concurrent identical requests** share one simulation through the
//!   cache's per-key leader election, and each verdict is appended once:
//!   the check for an existing record and the append happen under one
//!   lock.
//! - **Repeats** of a netlist whose complete model is the store's live
//!   record under its name (journaled by this service, verified at open,
//!   or, for a netlist the library does not hold, verified on its first
//!   request) skip lint, golden and the journal: they resolve through
//!   the certified donor path alone, exactly as a restarted service
//!   answers a store-verified cell. Repeats of a degraded model or a
//!   quarantine verdict replay it from the memo.
//! - **Deadlines** clamp every attempt's [`SimBudget::wall_clock`] to
//!   the request's remaining time. When the deadline rather than the
//!   cell ends the work, the answer is [`CellVerdict::DeadlineExceeded`]
//!   and nothing is journaled. Any other outcome is what a run under the
//!   configured budget produces — a wall clock only ever fails a run, it
//!   never truncates one — so it is journaled like an undeadlined one.

// Service code runs unattended for days; a stray unwrap kills the
// daemon instead of failing one request.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::cache::CharCache;
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::robust::{characterize_with_retries, isolated, FailurePhase};
use crate::session::{cell_fingerprint, Reuse, Session, SessionReport};
use ca_defects::GenerateOptions;
use ca_netlist::library::Library;
use ca_netlist::Cell;
use ca_obs::clock::Deadline;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Reduced-budget retries a request spends before quarantining a cell.
const MAX_RETRIES: u32 = 2;

/// The outcome of one service request.
#[derive(Debug, Clone)]
pub enum CellVerdict {
    /// A model landed: fresh simulation, certified donor hit, or
    /// store-verified reuse. `model` is always populated.
    Model(Box<PreparedCell>),
    /// The cell failed characterization — fresh diagnosis or a replayed
    /// journal verdict.
    Quarantined {
        /// Pipeline phase the failure happened in.
        phase: FailurePhase,
        /// Human-readable diagnosis.
        reason: String,
        /// Reduced-budget retries spent before giving up.
        retries: u32,
    },
    /// The request's deadline ended the work (or expired before it
    /// started); nothing was journaled.
    DeadlineExceeded,
}

/// A journaled record served without simulation (snapshot-isolated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredVerdict {
    /// A complete model's `.cam` body.
    Complete(String),
    /// A degraded model's `.cam` body.
    Degraded(String),
    /// A quarantine verdict.
    Quarantined {
        /// Diagnosis phase, when the stored byte decodes.
        phase: Option<FailurePhase>,
        /// Stored diagnosis.
        reason: String,
        /// Retries recorded at quarantine time.
        retries: u32,
    },
}

/// Per-cell characterization service over one durable session; see the
/// module docs. `Sync`: requests may run concurrently from any number of
/// threads, serializing only on the journal append and the small
/// verdict maps.
pub struct CellService {
    session: Session,
    cache: CharCache,
    options: GenerateOptions,
    budget: SimBudget,
    /// Fingerprint of each library cell, guarding journaling against
    /// same-name lookalikes submitted inline.
    library_fp: BTreeMap<String, u64>,
    /// What the store holds, as requests consult it. Every append goes
    /// through [`CellService::journal`], which holds this lock across the
    /// check and the append (always before the store lock), so the maps
    /// never disagree with the store and no verdict is appended twice.
    verdicts: Mutex<Verdicts>,
}

/// The verdict maps of a [`CellService`], under one lock.
#[derive(Default)]
struct Verdicts {
    /// Cell name → fingerprint of the netlist whose complete model is the
    /// store's live record under that name, with its donor in the cache.
    /// A request that matches an entry takes the donor path alone.
    journaled: BTreeMap<String, u64>,
    /// Degraded models and quarantine verdicts by whole-netlist
    /// fingerprint, so a name collision between unrelated cells can
    /// never replay the wrong verdict (the same identity check the
    /// session store uses).
    memo: BTreeMap<u64, CellVerdict>,
}

impl std::fmt::Debug for CellService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellService")
            .field("store", &self.session.path())
            .field("library_cells", &self.library_fp.len())
            .field("cache", &self.cache.stats())
            .finish()
    }
}

impl CellService {
    /// Opens (or resumes) the session store at `store` bound to
    /// `library`, re-verifying every journaled record against the live
    /// netlists exactly like a batch resume.
    ///
    /// # Errors
    ///
    /// [`CoreError::Storage`] when the store cannot be opened; journal
    /// corruption is recovered from, not failed on.
    pub fn open(
        store: impl AsRef<Path>,
        library: &Library,
        options: GenerateOptions,
        budget: SimBudget,
    ) -> Result<CellService, CoreError> {
        let session = Session::open(store)?;
        let cache = CharCache::new();
        let plan = session.plan(library, options, &budget, &cache, true);
        let library_fp: BTreeMap<String, u64> = library
            .cells
            .iter()
            .map(|lc| (lc.cell.name().to_string(), cell_fingerprint(&lc.cell)))
            .collect();
        // The plan verified these records against the library netlists
        // (and seeded the donors of the complete ones).
        let mut verdicts = Verdicts::default();
        for (name, &fp) in &library_fp {
            match plan.reuse(name) {
                Some(Reuse::Complete) => {
                    verdicts.journaled.insert(name.clone(), fp);
                }
                Some(Reuse::Degraded(p)) => {
                    verdicts.memo.insert(fp, CellVerdict::Model(p.clone()));
                }
                Some(Reuse::Quarantined {
                    phase,
                    retries,
                    reason,
                }) => {
                    let verdict = CellVerdict::Quarantined {
                        phase: *phase,
                        reason: reason.clone(),
                        retries: *retries,
                    };
                    verdicts.memo.insert(fp, verdict);
                }
                None => {}
            }
        }
        Ok(CellService {
            session,
            cache,
            options,
            budget,
            library_fp,
            verdicts: Mutex::new(verdicts),
        })
    }

    /// The underlying session (crash hooks, path, report).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Session counters (reuse, evictions, journal appends/errors).
    pub fn report(&self) -> SessionReport {
        self.session.report()
    }

    /// Donor-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Compacts the journal when it carries duplicates, corruption or
    /// evictions. Called by the server on graceful drain.
    pub fn compact(&self) {
        self.session.maybe_compact();
    }

    /// Snapshot-isolated read of `name`'s journaled record, served
    /// without any simulation.
    pub fn lookup(&self, name: &str) -> Option<StoredVerdict> {
        let record = self.session.snapshot_record(name)?;
        Some(match record.payload {
            ca_store::Payload::Complete { cam } => StoredVerdict::Complete(cam),
            ca_store::Payload::Degraded { cam } => StoredVerdict::Degraded(cam),
            ca_store::Payload::Quarantined {
                phase,
                retries,
                reason,
            } => StoredVerdict::Quarantined {
                phase: crate::session::decode_phase(phase),
                reason,
                retries,
            },
        })
    }

    /// Characterizes one cell under `deadline`, reusing the journaled
    /// store, the certified donor cache and memoized verdicts; fresh
    /// outcomes are journaled as they land (see the module docs for the
    /// deadline/journal interaction). Never panics: cell failures come
    /// back as [`CellVerdict::Quarantined`].
    pub fn characterize_cell(&self, cell: &Cell, deadline: Deadline) -> CellVerdict {
        if deadline.expired() {
            return CellVerdict::DeadlineExceeded;
        }
        let name = cell.name();
        let fp = cell_fingerprint(cell);
        let (journaled, memoized) = {
            let verdicts = lock(&self.verdicts);
            let journaled = verdicts.journaled.get(name) == Some(&fp);
            (journaled, verdicts.memo.get(&fp).cloned())
        };
        // 1. The store's live record under `name` is this netlist's
        // complete model, and its donor is in the cache: resolve through
        // the certified donor path without lint, golden or an append.
        // The fingerprint covers every netlist field lint and golden
        // read, and the remap re-certifies the answer.
        if journaled {
            return self.donor_path(cell);
        }
        // 2. A degraded model or quarantine verdict of this very netlist:
        // verified from the store at open, or journaled since.
        if let Some(verdict) = memoized {
            return verdict;
        }
        // 3. A netlist the library does not hold, journaled before the
        // service opened: verify its record as the plan verifies a
        // library cell's, then take the donor path.
        if !self.library_fp.contains_key(name) && self.verify_journaled(cell, fp) {
            return self.donor_path(cell);
        }
        // 4. Fresh guarded pipeline. (Complete models need no memo:
        // step 1 serves repeats of journaled ones, the donor cache the
        // rest.)
        self.fresh(cell, fp, deadline)
    }

    /// Whether the store's live record under `cell`'s name verifies as
    /// a complete model of this netlist (fingerprint `fp`); if so its
    /// donor is seeded and the name enters `journaled`. The verdict
    /// lock is taken before the store lock, as in
    /// [`journal`](CellService::journal).
    fn verify_journaled(&self, cell: &Cell, fp: u64) -> bool {
        let mut verdicts = lock(&self.verdicts);
        let verified = self
            .session
            .verify_complete(cell, self.options, &self.budget, &self.cache);
        if verified {
            verdicts.journaled.insert(cell.name().to_string(), fp);
        }
        verified
    }

    fn fresh(&self, cell: &Cell, fp: u64, deadline: Deadline) -> CellVerdict {
        let guarded = characterize_with_retries(
            cell,
            self.options,
            &self.budget,
            MAX_RETRIES,
            deadline,
            &self.cache,
        );
        // A wall-clock exhaustion whose binding constraint was the
        // request deadline is not a cell problem and must not be
        // diagnosed (or journaled) as one.
        if guarded.deadline_ended {
            return CellVerdict::DeadlineExceeded;
        }
        // Everything else is what the configured budget produces:
        // journal it under that budget.
        let verdict = match guarded.outcome {
            Ok(p) => CellVerdict::Model(Box::new(p)),
            Err((phase, err)) => CellVerdict::Quarantined {
                phase,
                reason: err.to_string(),
                retries: guarded.retries,
            },
        };
        self.journal(cell, fp, &verdict);
        verdict
    }

    /// Appends a fresh `verdict` for `cell` (fingerprint `fp`) unless the
    /// store already holds it — a complete model that is the live record
    /// under the name, or a degraded model or quarantine verdict memoized
    /// for `fp` — and updates `journaled` and `memo` to match the store:
    ///
    /// - a complete model whose append landed enters `journaled`, after
    ///   its donor is seeded as [`Session::plan`] seeds one on open (so a
    ///   repeat finds a donor even when the budget made the first run
    ///   bypass the cache); after a failed append or a netlist-ordered
    ///   canonical (no cache key) the name has no entry;
    /// - any other verdict removes the name's entry and enters `memo`.
    ///
    /// The verdict lock is held across the check and the append, always
    /// before the store lock, so concurrent identical requests append
    /// one record and the maps never disagree with the store's live
    /// record. Same-name lookalikes of a library cell are served but
    /// never journaled: their record would clobber the library cell's
    /// and force an eviction and a re-simulation on the next restart.
    fn journal(&self, cell: &Cell, fp: u64, verdict: &CellVerdict) {
        let name = cell.name();
        let allowed = self.library_fp.get(name).is_none_or(|lib| *lib == fp);
        let mut verdicts = lock(&self.verdicts);
        let Verdicts { journaled, memo } = &mut *verdicts;
        if let CellVerdict::Model(p) = verdict {
            if let Some(model) = p.model.as_ref().filter(|m| !m.degraded) {
                if !allowed || journaled.get(name) == Some(&fp) {
                    return;
                }
                // Out until the append lands, so a failure or a panic in
                // between leaves no entry rather than a stale one.
                journaled.remove(name);
                if self.session.journal_model(p, self.options, &self.budget)
                    && !p.canonical.is_netlist_ordered()
                {
                    self.cache.seed_donor(
                        p.cell.clone(),
                        p.canonical.clone(),
                        model.clone(),
                        self.options,
                    );
                    journaled.insert(name.to_string(), fp);
                }
                return;
            }
        }
        if memo.contains_key(&fp) {
            return;
        }
        if allowed {
            journaled.remove(name);
            match verdict {
                CellVerdict::Model(p) => {
                    self.session.journal_model(p, self.options, &self.budget);
                }
                CellVerdict::Quarantined {
                    phase,
                    reason,
                    retries,
                } => self.session.journal_quarantine(
                    cell,
                    *phase,
                    reason,
                    *retries,
                    self.options,
                    &self.budget,
                ),
                CellVerdict::DeadlineExceeded => return,
            }
        }
        memo.insert(fp, verdict.clone());
    }

    /// The certified donor path shared by repeats and store-verified
    /// cells: prepare, iso-certify against the cached donor, remap — no
    /// lint, no golden pass, no append.
    fn donor_path(&self, cell: &Cell) -> CellVerdict {
        match isolated(cell.name(), || {
            self.cache.characterize(cell.clone(), self.options)
        }) {
            Ok(p) => CellVerdict::Model(Box::new(p)),
            Err(err) => CellVerdict::Quarantined {
                phase: FailurePhase::Prepare,
                reason: err.to_string(),
                retries: 0,
            },
        }
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestStore;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::{spice, Technology};
    use std::time::Duration;

    fn tmp_store(tag: &str) -> TestStore {
        TestStore::new(&format!("service-{tag}"))
    }

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(4);
        lib
    }

    /// A service over a fresh store; the store's directory goes when
    /// the returned guard drops.
    fn open_service(tag: &str, lib: &Library) -> (TestStore, CellService) {
        let store = tmp_store(tag);
        let service = CellService::open(
            &store,
            lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
        )
        .unwrap();
        (store, service)
    }

    #[test]
    fn serves_and_journals_library_cells() {
        let lib = tiny_library();
        let (_store, service) = open_service("serve", &lib);
        for lc in &lib.cells {
            match service.characterize_cell(&lc.cell, Deadline::never()) {
                CellVerdict::Model(p) => assert!(p.model.is_some()),
                other => panic!("{}: {other:?}", lc.cell.name()),
            }
        }
        assert_eq!(service.report().journaled, lib.len());
        // Snapshot reads see every journaled record.
        for lc in &lib.cells {
            match service.lookup(lc.cell.name()) {
                Some(StoredVerdict::Complete(cam)) => assert!(!cam.is_empty()),
                other => panic!("{}: {other:?}", lc.cell.name()),
            }
        }
        assert!(service.lookup("NO_SUCH_CELL").is_none());
    }

    #[test]
    fn reopened_service_reuses_without_journaling() {
        let lib = tiny_library();
        let store = tmp_store("reuse");
        let svc = CellService::open(
            &store,
            &lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
        )
        .unwrap();
        let mut first = Vec::new();
        for lc in &lib.cells {
            match svc.characterize_cell(&lc.cell, Deadline::never()) {
                CellVerdict::Model(p) => first.push(ca_defects::to_cam(p.model.as_ref().unwrap())),
                other => panic!("{other:?}"),
            }
        }
        drop(svc);
        let svc = CellService::open(
            &store,
            &lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(svc.report().reused_complete, lib.len());
        for (lc, cam) in lib.cells.iter().zip(&first) {
            match svc.characterize_cell(&lc.cell, Deadline::never()) {
                CellVerdict::Model(p) => {
                    assert_eq!(&ca_defects::to_cam(p.model.as_ref().unwrap()), cam)
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(svc.report().journaled, 0, "reuse must not re-journal");
    }

    #[test]
    fn expired_deadline_is_rejected_without_work_or_journal() {
        let lib = tiny_library();
        let (_store, service) = open_service("deadline", &lib);
        let verdict =
            service.characterize_cell(&lib.cells[0].cell, Deadline::after(Duration::ZERO));
        assert!(
            matches!(verdict, CellVerdict::DeadlineExceeded),
            "{verdict:?}"
        );
        assert_eq!(service.report().journaled, 0);
    }

    #[test]
    fn broken_cell_is_quarantined_and_memoized() {
        let lib = tiny_library();
        let (_store, service) = open_service("quarantine", &lib);
        // A floating gate fails lint deterministically.
        let broken = spice::parse_cell(
            ".SUBCKT BROKEN A Z VDD VSS\nMP0 Z X VDD VDD pch\nMN0 Z X VSS VSS nch\n.ENDS",
        )
        .unwrap();
        let first = service.characterize_cell(&broken, Deadline::never());
        let CellVerdict::Quarantined { reason, .. } = first else {
            panic!("{first:?}");
        };
        // The second request replays the memoized verdict.
        let second = service.characterize_cell(&broken, Deadline::never());
        match second {
            CellVerdict::Quarantined { reason: r2, .. } => assert_eq!(r2, reason),
            other => panic!("{other:?}"),
        }
        // Journaled: a restarted service replays it from the store too.
        assert_eq!(service.report().journaled, 1);
    }

    #[test]
    fn lookalike_inline_cell_never_clobbers_a_library_record() {
        let lib = tiny_library();
        let (_store, service) = open_service("lookalike", &lib);
        let name = lib.cells[0].cell.name().to_string();
        match service.characterize_cell(&lib.cells[0].cell, Deadline::never()) {
            CellVerdict::Model(_) => {}
            other => panic!("{other:?}"),
        }
        // An unrelated inline netlist that reuses a library cell name:
        // served, but never journaled over the library record.
        let lookalike = spice::parse_cell(&format!(
            ".SUBCKT {name} A Z VDD VSS\nMP0 Z A VDD VDD pch\nMN0 Z A VSS VSS nch\n.ENDS"
        ))
        .unwrap();
        match service.characterize_cell(&lookalike, Deadline::never()) {
            CellVerdict::Model(p) => assert!(p.model.is_some()),
            other => panic!("{other:?}"),
        }
        assert_eq!(service.report().journaled, 1, "lookalike must not journal");
        match service.lookup(&name) {
            Some(StoredVerdict::Complete(_)) => {}
            other => panic!("library record clobbered: {other:?}"),
        }
    }

    fn cam_of(verdict: CellVerdict) -> String {
        match verdict {
            CellVerdict::Model(p) => ca_defects::to_cam(p.model.as_ref().unwrap()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeat_under_a_truncating_budget_is_a_donor_hit() {
        let lib = tiny_library();
        // A defect cap above every cell's count: the model is complete,
        // but `characterize_budgeted` bypasses the cache, so only the
        // donor seeded after the append can serve the repeat.
        let budget = SimBudget {
            max_defects: Some(100_000),
            ..SimBudget::unlimited()
        };
        let store = tmp_store("truncating");
        let service = CellService::open(&store, &lib, GenerateOptions::default(), budget).unwrap();
        let cell = &lib.cells[0].cell;
        let first = cam_of(service.characterize_cell(cell, Deadline::never()));
        assert_eq!(service.cache_stats().bypassed, 1, "first run bypasses");
        assert_eq!(service.report().journaled, 1);
        let before = service.cache_stats();
        let repeat = cam_of(service.characterize_cell(cell, Deadline::never()));
        let after = service.cache_stats();
        assert_eq!(repeat, first);
        assert_eq!(after.hits, before.hits + 1, "{after:?}");
        assert_eq!(after.misses, before.misses, "{after:?}");
        assert_eq!(service.report().journaled, 1, "a repeat appends nothing");
    }

    #[test]
    fn failed_append_leaves_the_repeat_on_the_full_path() {
        let lib = tiny_library();
        let (_store, service) = open_service("failed-append", &lib);
        // The store refuses a name longer than its u16 length field, so
        // this cell's append fails every time.
        let cell = lib.cells[0].cell.clone().with_name("X".repeat(70_000));
        let first = cam_of(service.characterize_cell(&cell, Deadline::never()));
        let report = service.report();
        assert_eq!((report.journaled, report.journal_errors.len()), (0, 1));
        assert!(lock(&service.verdicts).journaled.is_empty());
        // Not entered: the repeat runs lint, golden and the append again.
        let repeat = cam_of(service.characterize_cell(&cell, Deadline::never()));
        assert_eq!(repeat, first);
        let report = service.report();
        assert_eq!((report.journaled, report.journal_errors.len()), (0, 2));
        assert!(lock(&service.verdicts).journaled.is_empty());
    }

    #[test]
    fn quarantine_under_a_journaled_name_clears_its_entry() {
        let lib = tiny_library();
        let (_store, service) = open_service("requarantine", &lib);
        let good = spice::parse_cell(
            ".SUBCKT ADHOC A Z VDD VSS\nMP0 Z A VDD VDD pch\nMN0 Z A VSS VSS nch\n.ENDS",
        )
        .unwrap();
        // Same name, floating gate: fails lint.
        let broken = spice::parse_cell(
            ".SUBCKT ADHOC A Z VDD VSS\nMP0 Z X VDD VDD pch\nMN0 Z X VSS VSS nch\n.ENDS",
        )
        .unwrap();
        let cam = cam_of(service.characterize_cell(&good, Deadline::never()));
        assert!(matches!(
            service.characterize_cell(&broken, Deadline::never()),
            CellVerdict::Quarantined { .. }
        ));
        assert!(matches!(
            service.lookup("ADHOC"),
            Some(StoredVerdict::Quarantined { .. })
        ));
        // The verdict is now the live record: the good netlist journals
        // its model again rather than skipping on a stale entry.
        assert_eq!(
            cam_of(service.characterize_cell(&good, Deadline::never())),
            cam
        );
        assert_eq!(service.report().journaled, 3);
        assert_eq!(service.lookup("ADHOC"), Some(StoredVerdict::Complete(cam)));
    }

    /// Runs `cell` on four threads released together by a barrier.
    fn four_at_once(service: &CellService, cell: &Cell) -> Vec<CellVerdict> {
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        service.characterize_cell(cell, Deadline::never())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_identical_requests_share_one_simulation_and_one_append() {
        let lib = tiny_library();
        let (_store, service) = open_service("concurrent-model", &lib);
        let cams: Vec<String> = four_at_once(&service, &lib.cells[0].cell)
            .into_iter()
            .map(cam_of)
            .collect();
        assert!(cams.windows(2).all(|w| w[0] == w[1]), "divergent models");
        let stats = service.cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 3), "{stats:?}");
        assert_eq!(service.report().journaled, 1);
    }

    #[test]
    fn concurrent_identical_failures_append_one_verdict() {
        let lib = tiny_library();
        let (_store, service) = open_service("concurrent-quarantine", &lib);
        // A floating gate fails lint deterministically.
        let broken = spice::parse_cell(
            ".SUBCKT BROKEN A Z VDD VSS\nMP0 Z X VDD VDD pch\nMN0 Z X VSS VSS nch\n.ENDS",
        )
        .unwrap();
        let reasons: Vec<String> = four_at_once(&service, &broken)
            .into_iter()
            .map(|verdict| match verdict {
                CellVerdict::Quarantined {
                    phase: FailurePhase::Lint,
                    reason,
                    retries: 0,
                } => reason,
                other => panic!("{other:?}"),
            })
            .collect();
        assert!(reasons.windows(2).all(|w| w[0] == w[1]), "{reasons:?}");
        assert_eq!(service.report().journaled, 1);
    }

    #[test]
    fn a_follower_answers_deadline_exceeded_within_its_deadline() {
        let lib = tiny_library();
        let (_store, service) = open_service("follower-deadline", &lib);
        let service = std::sync::Arc::new(service);
        let cell = lib.cells[0].cell.clone();
        let canonical = PreparedCell::prepare(cell.clone()).unwrap().canonical;
        // A leader that is still characterizing the cell's structure.
        let _slot = service
            .cache
            .plant_pending(&canonical, GenerateOptions::default());
        let (tx, rx) = std::sync::mpsc::channel();
        let follower = {
            let service = std::sync::Arc::clone(&service);
            std::thread::spawn(move || {
                let deadline = Deadline::after(Duration::from_millis(50));
                tx.send(service.characterize_cell(&cell, deadline)).unwrap();
            })
        };
        let verdict = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the follower outwaited its deadline");
        follower.join().unwrap();
        assert!(
            matches!(verdict, CellVerdict::DeadlineExceeded),
            "{verdict:?}"
        );
        assert_eq!(service.report().journaled, 0);
    }

    #[test]
    fn restart_replays_a_journaled_library_quarantine_without_appending() {
        let mut lib = tiny_library();
        let cell = &mut lib.cells[0].cell;
        *cell = ca_netlist::corrupt::corrupt_cell(
            cell,
            ca_netlist::corrupt::Corruption::DanglingGate,
            1,
        )
        .unwrap();
        let cell = lib.cells[0].cell.clone();
        let store = tmp_store("restart-quarantine");
        let first = CellService::open(
            &store,
            &lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
        )
        .unwrap();
        let verdict = first.characterize_cell(&cell, Deadline::never());
        let CellVerdict::Quarantined { reason, .. } = &verdict else {
            panic!("{verdict:?}");
        };
        assert_eq!(first.report().journaled, 1);
        drop(first);
        let service = CellService::open(
            &store,
            &lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(service.report().reused_quarantined, 1);
        for _ in 0..2 {
            match service.characterize_cell(&cell, Deadline::never()) {
                CellVerdict::Quarantined {
                    reason: replayed, ..
                } => assert_eq!(&replayed, reason),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(service.report().journaled, 0, "a replay appends nothing");
    }

    #[test]
    fn a_generous_deadline_still_journals() {
        let lib = tiny_library();
        let (_store, service) = open_service("generous-deadline", &lib);
        let cell = &lib.cells[0].cell;
        let deadline = || Deadline::after(Duration::from_secs(600));
        let first = cam_of(service.characterize_cell(cell, deadline()));
        assert_eq!(service.report().journaled, 1, "the first answer journals");
        assert_eq!(
            service.lookup(cell.name()),
            Some(StoredVerdict::Complete(first.clone()))
        );
        let hits = service.cache_stats().hits;
        assert_eq!(cam_of(service.characterize_cell(cell, deadline())), first);
        assert_eq!(service.cache_stats().hits, hits + 1, "a repeat is a hit");
        assert_eq!(service.report().journaled, 1, "a repeat appends nothing");
    }
}
