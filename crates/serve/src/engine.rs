//! The serving engine: one [`CellService`] behind request coalescing
//! and a panic catch.
//!
//! **Coalescing** (DESIGN.md §13): concurrent requests for the same
//! netlist (keyed by the session's whole-netlist fingerprint) elect one
//! *leader* that runs the simulation; *followers* wait — bounded by
//! their own deadlines — and then ride the leader's published result
//! through the certified donor cache, so N identical requests cost one
//! lint, one golden simulation and one characterization plus N−1 donor
//! remaps.
//!
//! **Panic catch**: the service's guarded pipeline already isolates
//! panics in characterization and retries a budget-starved cell under a
//! reduced budget. A panic that still escapes it is caught once per
//! request and answered as a structured `Quarantined` verdict, so a
//! connection is never dropped. Running the same call again would see
//! the same cell, deadline and store, so there is no retry loop.

use crate::protocol::ModelSource;
use ca_core::{panic_message, CellService, CellVerdict};
use ca_netlist::Cell;
use ca_obs::clock::Deadline;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// What a flight leader publishes for its followers.
#[derive(Debug, Clone)]
enum Share {
    /// A model landed (leader journaled if eligible); followers resolve
    /// through the donor cache.
    Model,
    /// The cell quarantined; followers replay the verdict.
    Quarantined {
        phase: ca_core::FailurePhase,
        reason: String,
        retries: u32,
    },
    /// The leader's own deadline cut it short — its result says nothing
    /// about the cell, so followers run for themselves.
    LeaderDeadline,
    /// The leader aborted without publishing (handler panic unwound
    /// past the engine); followers run for themselves.
    Aborted,
}

#[derive(Debug, Default)]
struct Flight {
    done: Mutex<Option<Share>>,
    cv: Condvar,
}

impl Flight {
    fn publish(&self, share: Share) {
        *lock(&self.done) = Some(share);
        self.cv.notify_all();
    }

    /// Waits for the leader's result, bounded by `deadline`; `None`
    /// means the deadline expired first.
    fn await_result(&self, deadline: Deadline) -> Option<Share> {
        let mut done = lock(&self.done);
        loop {
            if let Some(share) = done.as_ref() {
                return Some(share.clone());
            }
            if deadline.expired() {
                return None;
            }
            let wait = deadline.remaining().map_or(Duration::from_millis(50), |r| {
                r.min(Duration::from_millis(50))
            });
            done = self
                .cv
                .wait_timeout(done, wait)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }
}

/// Publishes [`Share::Aborted`] if the leader unwinds before reaching
/// its normal publish, so followers can never wait on a dead leader.
struct LeaderGuard<'a> {
    engine: &'a Engine,
    fingerprint: u64,
    flight: Arc<Flight>,
    published: bool,
}

impl LeaderGuard<'_> {
    fn publish(&mut self, share: Share) {
        self.published = true;
        lock(&self.engine.inflight).remove(&self.fingerprint);
        self.flight.publish(share);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            lock(&self.engine.inflight).remove(&self.fingerprint);
            self.flight.publish(Share::Aborted);
        }
    }
}

/// The coalescing front of one [`CellService`].
#[derive(Debug)]
pub struct Engine {
    service: CellService,
    inflight: Mutex<BTreeMap<u64, Arc<Flight>>>,
    /// Test hook: artificial service time injected before each leader
    /// simulation, so overload/coalescing tests get deterministic
    /// contention without depending on cell complexity.
    service_delay: Duration,
}

impl Engine {
    pub fn new(service: CellService, service_delay: Duration) -> Engine {
        Engine {
            service,
            inflight: Mutex::new(BTreeMap::new()),
            service_delay,
        }
    }

    pub fn service(&self) -> &CellService {
        &self.service
    }

    /// Characterizes `cell` under `deadline`, coalescing with any
    /// concurrent identical request. Never panics.
    pub fn characterize(&self, cell: &Cell, deadline: Deadline) -> (CellVerdict, ModelSource) {
        let fingerprint = ca_core::cell_fingerprint(cell);
        let (flight, leader) = {
            let mut inflight = lock(&self.inflight);
            match inflight.get(&fingerprint) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::default());
                    inflight.insert(fingerprint, Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if leader {
            self.lead(cell, deadline, fingerprint, flight)
        } else {
            self.follow(cell, deadline, &flight)
        }
    }

    fn lead(
        &self,
        cell: &Cell,
        deadline: Deadline,
        fingerprint: u64,
        flight: Arc<Flight>,
    ) -> (CellVerdict, ModelSource) {
        let mut guard = LeaderGuard {
            engine: self,
            fingerprint,
            flight,
            published: false,
        };
        let verdict = self.characterize_caught(cell, deadline);
        let share = match &verdict {
            CellVerdict::Model(_) => Share::Model,
            CellVerdict::Quarantined {
                phase,
                reason,
                retries,
            } => Share::Quarantined {
                phase: *phase,
                reason: reason.clone(),
                retries: *retries,
            },
            CellVerdict::DeadlineExceeded => Share::LeaderDeadline,
        };
        guard.publish(share);
        (verdict, ModelSource::Fresh)
    }

    fn follow(
        &self,
        cell: &Cell,
        deadline: Deadline,
        flight: &Flight,
    ) -> (CellVerdict, ModelSource) {
        ca_obs::counter!("ca_serve.coalesced", Ops).inc();
        match flight.await_result(deadline) {
            None => (CellVerdict::DeadlineExceeded, ModelSource::Coalesced),
            Some(Share::Model) => (
                self.service.coalesced_characterize(cell),
                ModelSource::Coalesced,
            ),
            Some(Share::Quarantined {
                phase,
                reason,
                retries,
            }) => (
                CellVerdict::Quarantined {
                    phase,
                    reason,
                    retries,
                },
                ModelSource::Coalesced,
            ),
            // The leader's outcome says nothing about the cell: run for
            // ourselves (possibly becoming the next leader).
            Some(Share::LeaderDeadline | Share::Aborted) => self.characterize(cell, deadline),
        }
    }

    /// Runs the guarded pipeline once, turning an escaping panic into a
    /// `Quarantined` verdict (see the module docs).
    fn characterize_caught(&self, cell: &Cell, deadline: Deadline) -> CellVerdict {
        if !self.service_delay.is_zero() {
            std::thread::sleep(self.service_delay);
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.service.characterize_cell(cell, deadline)
        }))
        .unwrap_or_else(|panic| {
            ca_obs::counter!("ca_serve.retry.worker_failures", Ops).inc();
            let reason = panic_message(&panic);
            ca_obs::warn(
                "ca_serve.engine",
                "request worker failed",
                &[("cell", cell.name()), ("reason", &reason)],
            );
            CellVerdict::Quarantined {
                phase: ca_core::FailurePhase::Characterize,
                reason: format!("worker failed: {reason}"),
                retries: 0,
            }
        })
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
    use ca_defects::GenerateOptions;
    use ca_netlist::library::{generate_library, Library, LibraryConfig};
    use ca_netlist::Technology;
    use ca_sim::SimBudget;
    use std::path::PathBuf;

    fn tmp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ca-serve-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.caj"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn tiny_library() -> Library {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(3);
        lib
    }

    fn engine(tag: &str, lib: &Library, delay: Duration) -> Engine {
        let service = CellService::open(
            tmp_store(tag),
            lib,
            GenerateOptions::default(),
            SimBudget::unlimited(),
            2,
        )
        .unwrap();
        Engine::new(service, delay)
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_simulation() {
        let lib = tiny_library();
        let engine = Arc::new(engine("coalesce", &lib, Duration::from_millis(100)));
        let cell = lib.cells[0].cell.clone();
        let before = ca_obs::global().snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let cell = cell.clone();
                std::thread::spawn(move || engine.characterize(&cell, Deadline::never()))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut cams = Vec::new();
        let mut coalesced = 0;
        for (verdict, source) in results {
            match verdict {
                CellVerdict::Model(p) => {
                    cams.push(ca_defects::to_cam(p.model.as_ref().unwrap()));
                }
                other => panic!("{other:?}"),
            }
            if source == ModelSource::Coalesced {
                coalesced += 1;
            }
        }
        assert!(cams.windows(2).all(|w| w[0] == w[1]), "divergent models");
        assert!(coalesced >= 1, "no request coalesced");
        // Exactly one journal append: the leader's.
        assert_eq!(engine.service().report().journaled, 1);
        let delta = ca_obs::global().snapshot().delta(&before);
        assert!(
            delta.counters["ca_serve.coalesced"].1 >= 1,
            "coalesce counter"
        );
    }

    #[test]
    fn follower_deadline_expires_while_leader_runs() {
        let lib = tiny_library();
        let engine = Arc::new(engine(
            "follower-deadline",
            &lib,
            Duration::from_millis(300),
        ));
        let cell = lib.cells[0].cell.clone();
        let leader = {
            let engine = Arc::clone(&engine);
            let cell = cell.clone();
            std::thread::spawn(move || engine.characterize(&cell, Deadline::never()))
        };
        // Give the leader time to claim the flight.
        std::thread::sleep(Duration::from_millis(50));
        let (verdict, source) =
            engine.characterize(&cell, Deadline::after(Duration::from_millis(1)));
        assert!(
            matches!(verdict, CellVerdict::DeadlineExceeded),
            "{verdict:?}"
        );
        assert_eq!(source, ModelSource::Coalesced);
        let (leader_verdict, _) = leader.join().unwrap();
        assert!(matches!(leader_verdict, CellVerdict::Model(_)));
    }
}
