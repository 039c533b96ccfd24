//! Admission control: bounded queues, execution slots, per-client
//! quotas and the drain gate.
//!
//! The state machine (DESIGN.md §13) sees every characterize request
//! twice:
//!
//! 1. **Admit** ([`Admission::try_admit`]): a constant-time decision at
//!    the socket. A request is *denied* — with a structured
//!    [`Denial`], never a dropped connection — when the server is
//!    draining, the client is over its concurrency or lifetime quota,
//!    or queue + executing capacity is full. An admitted request holds
//!    a [`Ticket`] whose `Drop` releases every count it holds, so a
//!    panicking handler can never leak capacity.
//! 2. **Execute** ([`Ticket::acquire_slot`]): the queued request waits
//!    on a condvar for one of the bounded execution slots, but never
//!    longer than its deadline — a request that would start late is
//!    answered `DeadlineExceeded` from the queue instead of wasting a
//!    slot on an answer nobody is waiting for.
//!
//! Memory is bounded by construction: at most `queue + slots` tickets
//! exist per server, each a few hundred bytes, and everything beyond
//! that is shed at admission.

use ca_obs::clock::Deadline;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Sizing and quota knobs for one [`Admission`] gate.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrent executions (simulation slots).
    pub slots: usize,
    /// Admitted requests allowed to wait beyond the executing ones.
    pub queue: usize,
    /// Concurrent admitted requests (queued + executing) per client.
    pub per_client: usize,
    /// Lifetime admitted-request allowance per client; `None` = no cap.
    pub client_budget: Option<u64>,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            slots: 2,
            queue: 32,
            per_client: 8,
            client_budget: None,
        }
    }
}

/// Why admission was refused; maps 1:1 onto protocol error kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Denial {
    /// Queue + slots capacity is full.
    Overloaded,
    /// The client is over its concurrency or lifetime quota.
    QuotaExceeded,
    /// The server is draining and admits nothing new.
    Draining,
}

#[derive(Debug, Default)]
struct ClientState {
    /// Admitted (queued + executing) requests right now.
    active: usize,
    /// Lifetime admitted total, charged against `client_budget`.
    admitted: u64,
}

#[derive(Debug, Default)]
struct State {
    executing: usize,
    queued: usize,
    clients: BTreeMap<String, ClientState>,
}

/// The admission gate; see the module docs. One per server, shared by
/// every connection thread.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    state: Mutex<State>,
    changed: Condvar,
    draining: AtomicBool,
}

impl Admission {
    pub fn new(config: AdmissionConfig) -> Admission {
        Admission {
            config,
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            draining: AtomicBool::new(false),
        }
    }

    /// Admits or sheds one request from `client`. On admission the
    /// returned [`Ticket`] occupies one queue position until
    /// [`Ticket::acquire_slot`] promotes it (and frees the position for
    /// the next arrival).
    pub fn try_admit<'a>(&'a self, client: &str) -> Result<Ticket<'a>, Denial> {
        if self.draining() {
            ca_obs::counter!("ca_serve.shed.draining").inc();
            return Err(Denial::Draining);
        }
        let mut state = lock(&self.state);
        let entry = state.clients.entry(client.to_string()).or_default();
        if entry.active >= self.config.per_client
            || self
                .config
                .client_budget
                .is_some_and(|cap| entry.admitted >= cap)
        {
            ca_obs::counter!("ca_serve.shed.quota").inc();
            return Err(Denial::QuotaExceeded);
        }
        if state.queued >= self.config.queue {
            ca_obs::counter!("ca_serve.shed.overloaded").inc();
            return Err(Denial::Overloaded);
        }
        let entry = state.clients.entry(client.to_string()).or_default();
        entry.active += 1;
        entry.admitted += 1;
        state.queued += 1;
        ca_obs::counter!("ca_serve.admitted").inc();
        self.publish_depths(&state);
        Ok(Ticket {
            gate: self,
            client: client.to_string(),
            executing: false,
            released: false,
        })
    }

    /// Flips the gate shut: every subsequent [`Admission::try_admit`]
    /// returns [`Denial::Draining`]. Already-admitted work proceeds.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Wake queued waiters so they observe the drain promptly (their
        // tickets stay valid — admitted work is finished, not shed).
        self.changed.notify_all();
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Admitted requests currently queued or executing.
    pub fn in_flight(&self) -> usize {
        let state = lock(&self.state);
        state.queued + state.executing
    }

    /// Blocks until nothing is queued or executing (the drain
    /// barrier). Polling with a condvar timeout keeps this robust to a
    /// missed notify from a panicking handler.
    pub fn await_idle(&self) {
        let mut state = lock(&self.state);
        while state.queued + state.executing > 0 {
            state = self
                .changed
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    fn publish_depths(&self, state: &State) {
        ca_obs::gauge!("ca_serve.queue.depth").set(state.queued as u64);
        ca_obs::gauge!("ca_serve.executing").set(state.executing as u64);
    }
}

/// The request's deadline expired while it waited in queue for an
/// execution slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueTimeout;

/// One admitted request's hold on the gate; see the module docs.
#[derive(Debug)]
pub struct Ticket<'a> {
    gate: &'a Admission,
    client: String,
    executing: bool,
    released: bool,
}

impl Ticket<'_> {
    /// Waits for an execution slot, but never past `deadline`.
    /// [`QueueTimeout`] means the deadline expired first; the ticket
    /// stays valid (its capacity is released on drop as usual).
    pub fn acquire_slot(&mut self, deadline: Deadline) -> Result<(), QueueTimeout> {
        let mut state = lock(&self.gate.state);
        loop {
            if state.executing < self.gate.config.slots {
                state.executing += 1;
                state.queued -= 1;
                self.executing = true;
                self.gate.publish_depths(&state);
                // A freed queue position is capacity for the accept
                // threads, not a slot: no notify needed (admission
                // re-checks under the same lock).
                return Ok(());
            }
            if deadline.expired() {
                ca_obs::counter!("ca_serve.shed.deadline_in_queue").inc();
                return Err(QueueTimeout);
            }
            // Wait for a slot release, re-checking the deadline at
            // least every 50ms even if notifies go missing.
            let wait = deadline.remaining().map_or(Duration::from_millis(50), |r| {
                r.min(Duration::from_millis(50))
            });
            state = self
                .gate
                .changed
                .wait_timeout(state, wait)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        let mut state = lock(&self.gate.state);
        if self.executing {
            state.executing -= 1;
        } else {
            state.queued -= 1;
        }
        if let Some(entry) = state.clients.get_mut(&self.client) {
            entry.active = entry.active.saturating_sub(1);
        }
        self.gate.publish_depths(&state);
        self.gate.changed.notify_all();
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

    fn gate(slots: usize, queue: usize, per_client: usize) -> Admission {
        Admission::new(AdmissionConfig {
            slots,
            queue,
            per_client,
            client_budget: None,
        })
    }

    #[test]
    fn capacity_is_bounded_and_released_on_drop() {
        let gate = gate(1, 2, 10);
        let t1 = gate.try_admit("a").unwrap();
        let t2 = gate.try_admit("a").unwrap();
        assert_eq!(gate.try_admit("a").unwrap_err(), Denial::Overloaded);
        drop(t1);
        let t3 = gate.try_admit("a").unwrap();
        assert_eq!(gate.in_flight(), 2);
        drop((t2, t3));
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn per_client_quota_sheds_before_global_capacity() {
        let gate = gate(4, 16, 2);
        let _a1 = gate.try_admit("a").unwrap();
        let _a2 = gate.try_admit("a").unwrap();
        assert_eq!(gate.try_admit("a").unwrap_err(), Denial::QuotaExceeded);
        // A different client still gets in.
        assert!(gate.try_admit("b").is_ok());
    }

    #[test]
    fn lifetime_budget_is_charged_even_after_release() {
        let gate = Admission::new(AdmissionConfig {
            slots: 4,
            queue: 16,
            per_client: 8,
            client_budget: Some(2),
        });
        drop(gate.try_admit("a").unwrap());
        drop(gate.try_admit("a").unwrap());
        assert_eq!(gate.try_admit("a").unwrap_err(), Denial::QuotaExceeded);
        assert!(gate.try_admit("b").is_ok(), "budget is per-client");
    }

    #[test]
    fn slots_gate_execution_and_deadline_bounds_the_wait() {
        let gate = gate(1, 8, 8);
        let mut t1 = gate.try_admit("a").unwrap();
        t1.acquire_slot(Deadline::never()).unwrap();
        // The slot is taken: an expired deadline sheds from the queue.
        let mut t2 = gate.try_admit("a").unwrap();
        assert!(t2.acquire_slot(Deadline::after(Duration::ZERO)).is_err());
        // Releasing the executor lets the next waiter promote.
        drop(t1);
        let mut t3 = gate.try_admit("a").unwrap();
        t3.acquire_slot(Deadline::after(Duration::from_secs(5)))
            .unwrap();
    }

    #[test]
    fn drain_closes_the_gate_and_await_idle_returns() {
        let gate = gate(2, 8, 8);
        let t = gate.try_admit("a").unwrap();
        gate.begin_drain();
        assert_eq!(gate.try_admit("b").unwrap_err(), Denial::Draining);
        assert_eq!(gate.in_flight(), 1, "admitted work survives drain");
        drop(t);
        gate.await_idle();
        assert_eq!(gate.in_flight(), 0);
    }
}
