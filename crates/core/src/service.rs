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
//!   degraded models and quarantine verdicts scheduled for replay).
//! - **Characterize** runs one cell through the batch driver's guarded
//!   pipeline and retry loop (lint, then prepare/characterize with its
//!   golden check; reduced-budget retries) and journals results under
//!   the *configured* budget, so a killed server resumes — and a batch
//!   run over the same store converges — byte-identically.
//! - **Repeats** of a netlist whose complete model is the store's live
//!   record under its name (journaled by this service, or verified at
//!   open) skip lint, golden and the journal: they resolve through the
//!   certified donor path alone, exactly as a restarted service answers
//!   a store-verified cell.
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
use crate::session::{cell_fingerprint, Reuse, Session, SessionPlan, SessionReport};
use ca_defects::GenerateOptions;
use ca_netlist::library::Library;
use ca_netlist::Cell;
use ca_obs::clock::Deadline;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// The outcome of one service request.
#[derive(Debug)]
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

/// Memoized fresh outcomes, keyed by whole-netlist fingerprint so a
/// name collision between unrelated cells can never replay the wrong
/// verdict (the same identity check the session store uses).
enum Memo {
    Degraded(Box<PreparedCell>),
    Quarantined {
        phase: FailurePhase,
        reason: String,
        retries: u32,
    },
}

/// Per-cell characterization service over one durable session; see the
/// module docs. `Sync`: requests may run concurrently from any number of
/// threads, serializing only on the journal append and the small
/// journaled/memo maps.
pub struct CellService {
    session: Session,
    cache: CharCache,
    options: GenerateOptions,
    budget: SimBudget,
    max_retries: u32,
    plan: SessionPlan,
    /// Fingerprint of each library cell, guarding plan reuse and
    /// journaling against same-name lookalikes submitted inline.
    library_fp: BTreeMap<String, u64>,
    /// Cell name → fingerprint of the netlist whose complete model is the
    /// store's live record under that name, with its donor in `cache`.
    /// A request that matches an entry takes the donor path alone. Every
    /// append goes through [`CellService::journal_model`] or
    /// [`CellService::journal_quarantine`], which hold this lock across
    /// the append, so the map never disagrees with the store.
    journaled: Mutex<BTreeMap<String, u64>>,
    memo: Mutex<BTreeMap<u64, Memo>>,
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
        max_retries: u32,
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
        // and seeded their donors.
        let journaled = library_fp
            .iter()
            .filter(|(name, _)| matches!(plan.reuse(name), Some(Reuse::Complete)))
            .map(|(name, fp)| (name.clone(), *fp))
            .collect();
        Ok(CellService {
            session,
            cache,
            options,
            budget,
            max_retries,
            plan,
            library_fp,
            journaled: Mutex::new(journaled),
            memo: Mutex::new(BTreeMap::new()),
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
        // 1. The store's live record under `name` is this netlist's
        // complete model, and its donor is in the cache: resolve through
        // the certified donor path without lint, golden or an append.
        // The fingerprint covers every netlist field lint and golden
        // read, and the remap re-certifies the answer.
        if lock(&self.journaled).get(name) == Some(&fp) {
            return self.donor_path(cell);
        }
        // 2. Store-verified degraded models and quarantine verdicts from
        // the open-time plan — only when the request's netlist *is* the
        // library cell the plan verified. (Its complete models seeded
        // `journaled` at open.)
        if self.library_fp.get(name) == Some(&fp) {
            match self.plan.reuse(name) {
                Some(Reuse::Degraded(p)) => return CellVerdict::Model(p.clone()),
                Some(Reuse::Quarantined {
                    phase,
                    retries,
                    reason,
                }) => {
                    return CellVerdict::Quarantined {
                        phase: *phase,
                        reason: reason.clone(),
                        retries: *retries,
                    }
                }
                Some(Reuse::Complete) | None => {}
            }
        }
        // 3. Memoized fresh verdicts (exact-identity key).
        {
            let memo = lock(&self.memo);
            match memo.get(&fp) {
                Some(Memo::Degraded(p)) => return CellVerdict::Model(p.clone()),
                Some(Memo::Quarantined {
                    phase,
                    reason,
                    retries,
                }) => {
                    return CellVerdict::Quarantined {
                        phase: *phase,
                        reason: reason.clone(),
                        retries: *retries,
                    }
                }
                None => {}
            }
        }
        // 4. Fresh guarded pipeline. (Complete models need no memo:
        // step 1 serves repeats of journaled ones, the donor cache the
        // rest.)
        self.fresh(cell, fp, deadline)
    }

    fn fresh(&self, cell: &Cell, fp: u64, deadline: Deadline) -> CellVerdict {
        let guarded = characterize_with_retries(
            cell,
            self.options,
            &self.budget,
            self.max_retries,
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
        let journal = self.journal_allowed(cell.name(), fp);
        let retries = guarded.retries;
        match guarded.outcome {
            Ok(p) => {
                if journal {
                    self.journal_model(&p, fp);
                    if p.model.as_ref().is_some_and(|m| m.degraded) {
                        // Mirror what a restart would plan from the
                        // store: degraded models replay to this exact
                        // cell (never as donors).
                        lock(&self.memo).insert(fp, Memo::Degraded(Box::new(p.clone())));
                    }
                }
                CellVerdict::Model(Box::new(p))
            }
            Err((phase, err)) => {
                let reason = err.to_string();
                if journal {
                    self.journal_quarantine(cell, phase, &reason, retries);
                }
                lock(&self.memo).insert(
                    fp,
                    Memo::Quarantined {
                        phase,
                        reason: reason.clone(),
                        retries,
                    },
                );
                CellVerdict::Quarantined {
                    phase,
                    reason,
                    retries,
                }
            }
        }
    }

    /// Journals `p` (fingerprint `fp`) and updates `journaled` to match
    /// the store: a complete model whose append landed enters the map,
    /// after its donor is seeded as [`Session::plan`] seeds one on open
    /// (so a repeat finds a donor even when the budget made the first run
    /// bypass the cache); after a degraded model, a failed append or a
    /// netlist-ordered canonical (no cache key) the name has no entry.
    /// The `journaled` lock is held across the append, always before the
    /// store lock, so concurrent appends cannot leave the map
    /// disagreeing with the store's live record.
    fn journal_model(&self, p: &PreparedCell, fp: u64) {
        let name = p.cell.name();
        let mut journaled = lock(&self.journaled);
        // Out until the append lands, so a failure or a panic in between
        // leaves no entry rather than a stale one.
        journaled.remove(name);
        if !self.session.journal_model(p, self.options, &self.budget) {
            return;
        }
        let Some(model) = p.model.as_ref().filter(|m| !m.degraded) else {
            return;
        };
        if p.canonical.is_netlist_ordered() {
            return;
        }
        self.cache.seed_donor(
            p.cell.clone(),
            p.canonical.clone(),
            model.clone(),
            self.options,
        );
        journaled.insert(name.to_string(), fp);
    }

    /// Journals a quarantine verdict for `cell`: the store's live record
    /// under its name is then no model, so the name has no entry (lock
    /// held across the append, as in
    /// [`journal_model`](CellService::journal_model)).
    fn journal_quarantine(&self, cell: &Cell, phase: FailurePhase, reason: &str, retries: u32) {
        let mut journaled = lock(&self.journaled);
        journaled.remove(cell.name());
        self.session
            .journal_quarantine(cell, phase, reason, retries, self.options, &self.budget);
    }

    /// Follower fast path for request coalescing: resolves `cell`
    /// through the certified donor cache without re-running lint or the
    /// golden simulation — the leader that just published the donor
    /// already did both on a structure-identical netlist, and the donor
    /// remap re-certifies equivalence per cell. Journals nothing (the
    /// leader's journal entry is the durable copy).
    pub fn coalesced_characterize(&self, cell: &Cell) -> CellVerdict {
        self.donor_path(cell)
    }

    /// The certified donor path shared by repeats, store-verified cells
    /// and coalesced followers: prepare, iso-certify against the cached
    /// donor, remap — no lint, no golden pass, no append.
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

    /// Whether a fresh outcome for `name` may be journaled: yes for
    /// library cells when the request matches the library netlist, yes
    /// for names the library does not own, no for same-name lookalikes
    /// (journaling one would clobber the library cell's record and force
    /// an eviction/re-simulation on the next restart).
    fn journal_allowed(&self, name: &str, fp: u64) -> bool {
        self.library_fp.get(name).is_none_or(|lib| *lib == fp)
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
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::{spice, Technology};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ca-service-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.caj"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(4);
        lib
    }

    fn open_service(tag: &str, lib: &Library) -> CellService {
        CellService::open(
            tmp_store(tag),
            lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
            2,
        )
        .unwrap()
    }

    #[test]
    fn serves_and_journals_library_cells() {
        let lib = tiny_library();
        let service = open_service("serve", &lib);
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
            2,
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
            2,
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
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn expired_deadline_is_rejected_without_work_or_journal() {
        let lib = tiny_library();
        let service = open_service("deadline", &lib);
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
        let service = open_service("quarantine", &lib);
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
        let service = open_service("lookalike", &lib);
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
        let service = CellService::open(
            tmp_store("truncating"),
            &lib,
            GenerateOptions::default(),
            budget,
            2,
        )
        .unwrap();
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
        let service = open_service("failed-append", &lib);
        // The store refuses a name longer than its u16 length field, so
        // this cell's append fails every time.
        let cell = lib.cells[0].cell.clone().with_name("X".repeat(70_000));
        let first = cam_of(service.characterize_cell(&cell, Deadline::never()));
        let report = service.report();
        assert_eq!((report.journaled, report.journal_errors.len()), (0, 1));
        assert!(lock(&service.journaled).is_empty());
        // Not entered: the repeat runs lint, golden and the append again.
        let repeat = cam_of(service.characterize_cell(&cell, Deadline::never()));
        assert_eq!(repeat, first);
        let report = service.report();
        assert_eq!((report.journaled, report.journal_errors.len()), (0, 2));
        assert!(lock(&service.journaled).is_empty());
    }

    #[test]
    fn quarantine_under_a_journaled_name_clears_its_entry() {
        let lib = tiny_library();
        let service = open_service("requarantine", &lib);
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

    #[test]
    fn a_generous_deadline_still_journals() {
        let lib = tiny_library();
        let service = open_service("generous-deadline", &lib);
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
