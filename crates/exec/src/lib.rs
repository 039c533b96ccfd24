//! Scoped parallel executor for embarrassingly parallel batch stages.
//!
//! Every expensive stage of the characterization pipeline — per-cell
//! conventional flows, per-tree forest fits, per-cell predictions — is a
//! map over independent items. This crate provides that map once, with
//! the three properties each hand-rolled copy used to get only partially
//! right:
//!
//! - **Deterministic result ordering** — results come back in item order
//!   regardless of which worker ran what. Work distribution is a shared
//!   atomic cursor (work-*pulling*: a fast worker pulls the next item the
//!   moment it finishes, so no static chunking can strand a slow chunk on
//!   one thread).
//! - **Per-item panic isolation** — a panicking item never takes down a
//!   worker or poisons its siblings' results. [`Executor::map`] re-raises
//!   the lowest-index panic after the batch; [`Executor::map_isolated`]
//!   converts each panic into an `Err(message)` for quarantine flows.
//! - **`CA_THREADS` override** — [`Executor::from_env`] honours the
//!   `CA_THREADS` environment variable, else uses
//!   [`std::thread::available_parallelism`]. `CA_THREADS=1` reproduces
//!   the serial behaviour exactly (items run inline on the caller's
//!   thread, in order).
//!
//! The workspace is hermetic (no external crates), so this is plain
//! `std::thread::scope` + `AtomicUsize`, not a dependency on rayon.

// Workspace rules D5 and D6 (DESIGN.md §10): report through ca-obs, not
// ad-hoc stdout/stderr, and document every `unsafe` block. Every lint
// suppression states its reason.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]
// Workspace rule D9: a panic in a work item is caught and re-raised on
// the caller (see `map`), but the executor's own bookkeeping must not
// panic at all.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on auto-detected worker threads (a safety valve for
/// many-core CI machines; `CA_THREADS` may exceed it explicitly).
const MAX_AUTO_THREADS: usize = 16;

/// A fixed-width scoped executor. Cheap to construct; spawns its worker
/// threads per [`map`](Executor::map) call and joins them before
/// returning, so no state outlives a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::from_env()
    }
}

impl Executor {
    /// An executor with exactly `threads` workers (at least 1).
    pub fn with_threads(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Reads the width from the `CA_THREADS` environment variable when it
    /// is set to a positive integer, else uses the machine's available
    /// parallelism (capped at 16).
    ///
    /// A `CA_THREADS` value that is set but *not* a positive integer
    /// (`0`, empty, garbage) is a configuration mistake, not a request
    /// for the default: this constructor prints a loud warning to stderr
    /// naming the bad value and falls back to auto-detected parallelism.
    /// Batch entry points that would rather refuse to start should use
    /// [`Executor::try_from_env`].
    pub fn from_env() -> Executor {
        Executor::or_auto(Executor::try_from_env())
    }

    /// Like [`Executor::from_env`], but a set-yet-invalid `CA_THREADS`
    /// is an error instead of a warning-and-fallback — for entry points
    /// where silently ignoring an explicit (mis)configuration would be
    /// worse than not starting.
    ///
    /// An *unset* `CA_THREADS` is not an error: it means auto-detect.
    ///
    /// # Errors
    ///
    /// [`BadThreadsVar`] echoing the rejected value.
    pub fn try_from_env() -> Result<Executor, BadThreadsVar> {
        Executor::parse_threads(std::env::var("CA_THREADS").ok())
    }

    /// The `CA_THREADS` rule over a value already read: `None` (unset)
    /// auto-detects, a positive integer (surrounding whitespace
    /// allowed) sets the width, anything else is rejected.
    fn parse_threads(raw: Option<String>) -> Result<Executor, BadThreadsVar> {
        let Some(raw) = raw else {
            return Ok(Executor::auto());
        };
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Executor::with_threads(n)),
            _ => Err(BadThreadsVar { value: raw }),
        }
    }

    /// [`Executor::from_env`]'s fallback: a rejected value is warned
    /// about and replaced by auto-detected parallelism.
    fn or_auto(parsed: Result<Executor, BadThreadsVar>) -> Executor {
        parsed.unwrap_or_else(|err| {
            ca_obs::warn(
                "ca_exec",
                &format!("warning: {err}; falling back to auto-detected parallelism"),
                &[("raw", &err.value)],
            );
            Executor::auto()
        })
    }

    /// The machine's available parallelism, capped at
    /// [`MAX_AUTO_THREADS`].
    fn auto() -> Executor {
        Executor::with_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS),
        )
    }

    /// Number of worker threads this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in item order.
    ///
    /// # Panics
    ///
    /// If one or more items panic, the whole batch still runs (other
    /// items are unaffected), then the payload of the *lowest-index*
    /// panicking item is re-raised — so the surfacing panic is
    /// deterministic across thread counts.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        let mut first_panic = None;
        for result in self.run(items, &f) {
            match result {
                Ok(r) => out.push(r),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }

    /// Like [`map`](Executor::map), but converts each item's panic into
    /// `Err(message)` instead of re-raising, preserving item order.
    pub fn map_isolated<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, String>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items, &f)
            .into_iter()
            .map(|r| r.map_err(|payload| panic_message(payload.as_ref())))
            .collect()
    }

    /// Shared driver: runs every item under `catch_unwind`, returning the
    /// raw per-item outcomes in item order.
    fn run<T, R, F>(&self, items: &[T], f: &F) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Batch/item/panic counts are `work`-class: what ran is fixed
        // by the input, not by scheduling (DESIGN.md §9). Worker and
        // steal telemetry is `ops`-class — it legitimately varies with
        // CA_THREADS and carries no determinism promise.
        ca_obs::counter!("ca_exec.batches", Work).inc();
        ca_obs::counter!("ca_exec.items", Work).add(items.len() as u64);
        let results = self.run_inner(items, f);
        let panics = results.iter().filter(|r| r.is_err()).count();
        ca_obs::counter!("ca_exec.panics", Work).add(panics as u64);
        results
    }

    fn run_inner<T, R, F>(
        &self,
        items: &[T],
        f: &F,
    ) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len()).max(1);
        // Trace adoption: capture the caller's context once, then
        // re-establish it per item keyed by the item index — on the
        // inline path exactly as on worker threads — so the spans an
        // item opens derive identical ids at every CA_THREADS setting
        // (DESIGN.md §14).
        let fork = ca_obs::trace::fork();
        if workers == 1 {
            ca_obs::counter!("ca_exec.inline_batches", Ops).inc();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let _trace = fork.as_ref().map(|fp| fp.adopt(i as u64));
                    catch_unwind(AssertUnwindSafe(|| f(i, item)))
                })
                .collect();
        }
        ca_obs::counter!("ca_exec.workers_spawned", Ops).add(workers as u64);
        let cursor = AtomicUsize::new(0);
        let batch_start = ca_obs::Stopwatch::start();
        let mut parts: Vec<Vec<(usize, Result<R, _>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        // Queue wait: spawn-to-first-pull latency, the
                        // scheduling overhead a work-pulling design pays
                        // per worker rather than per item.
                        let mut first_pull = true;
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if first_pull {
                                first_pull = false;
                                ca_obs::timer!("ca_exec.queue_wait")
                                    .record_ns(batch_start.elapsed_ns());
                            }
                            let Some(item) = items.get(i) else {
                                break;
                            };
                            let _trace = fork.as_ref().map(|fp| fp.adopt(i as u64));
                            local.push((i, catch_unwind(AssertUnwindSafe(|| f(i, item)))));
                        }
                        // Every pull after a worker's first competes on
                        // the shared cursor: count those as steals.
                        ca_obs::counter!("ca_exec.steals", Ops)
                            .add(local.len().saturating_sub(1) as u64);
                        ca_obs::histogram!(
                            "ca_exec.worker_items",
                            Ops,
                            &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
                        )
                        .observe(local.len() as u64);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                // Workers only unwind through catch_unwind, so a join
                // error would mean the panic payload itself panicked on
                // drop; nothing to recover there.
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        let mut slots: Vec<Option<Result<R, _>>> = (0..items.len()).map(|_| None).collect();
        for part in &mut parts {
            for (i, result) in part.drain(..) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "D9: `i` is an item index a worker pulled, and `slots` spans every item index"
                )]
                let slot = &mut slots[i];
                *slot = Some(result);
            }
        }
        slots
            .into_iter()
            .map(|s| s.unwrap_or_else(|| Err(Box::new("item lost by worker".to_string()) as _)))
            .collect()
    }
}

/// The `CA_THREADS` environment variable was set to something other than
/// a positive integer (see [`Executor::try_from_env`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadThreadsVar {
    /// The rejected value, verbatim.
    pub value: String,
}

impl std::fmt::Display for BadThreadsVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CA_THREADS must be a positive integer, got `{}`",
            self.value
        )
    }
}

impl std::error::Error for BadThreadsVar {}

/// Extracts a human-readable message from a panic payload (the `&str` /
/// `String` payloads `panic!` produces; anything else gets a marker).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        for threads in [1, 2, 8] {
            let exec = Executor::with_threads(threads);
            let items: Vec<usize> = (0..100).collect();
            let out = exec.map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_isolated_converts_panics_per_item() {
        let exec = Executor::with_threads(4);
        let items: Vec<usize> = (0..20).collect();
        let out = exec.map_isolated(&items, |_, &x| {
            if x % 5 == 0 {
                panic!("boom {x}");
            }
            x
        });
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 0 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("boom {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn map_reraises_lowest_index_panic() {
        for threads in [1, 3] {
            let exec = Executor::with_threads(threads);
            let items: Vec<usize> = (0..32).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                exec.map(&items, |_, &x| {
                    if x == 7 || x == 23 {
                        panic!("panic at {x}");
                    }
                    x
                })
            }))
            .unwrap_err();
            assert_eq!(panic_message(caught.as_ref()), "panic at 7");
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let exec = Executor::with_threads(1);
        let main_thread = std::thread::current().id();
        let items = [0u8; 4];
        exec.map(&items, |_, _| {
            assert_eq!(std::thread::current().id(), main_thread);
        });
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = Executor::with_threads(8);
        let out: Vec<u32> = exec.map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn threads_floor_is_one() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
    }

    #[test]
    fn results_outnumbering_threads_still_complete() {
        let exec = Executor::with_threads(3);
        let items: Vec<u64> = (0..1000).collect();
        let sum: u64 = exec.map(&items, |_, &x| x).into_iter().sum();
        assert_eq!(sum, 999 * 1000 / 2);
    }

    fn parse(raw: Option<&str>) -> Result<Executor, BadThreadsVar> {
        Executor::parse_threads(raw.map(str::to_string))
    }

    #[test]
    fn threads_var_accepts_valid_overrides() {
        assert_eq!(parse(Some("3")).unwrap().threads(), 3);
        assert_eq!(Executor::or_auto(parse(Some("3"))).threads(), 3);
        // Whitespace is operator noise, not an error.
        assert_eq!(parse(Some(" 2 ")).unwrap().threads(), 2);
        let auto = Executor::auto().threads();
        assert_eq!(parse(None).unwrap().threads(), auto);
        assert_eq!(Executor::or_auto(parse(None)).threads(), auto);
    }

    #[test]
    fn threads_var_rejects_zero_and_garbage() {
        for bad in ["0", "-1", "abc", "", "1.5"] {
            let err = parse(Some(bad)).unwrap_err();
            assert_eq!(err.value, bad);
            assert_eq!(
                err.to_string(),
                format!("CA_THREADS must be a positive integer, got `{bad}`")
            );
        }
    }

    #[test]
    fn rejected_values_fall_back_loudly_to_auto() {
        // The warning itself goes to the event sink; what must hold for
        // the batch is that the executor still comes up at auto width.
        for bad in ["0", "not-a-number"] {
            assert_eq!(
                Executor::or_auto(parse(Some(bad))).threads(),
                Executor::auto().threads()
            );
        }
    }

    /// Batch metrics land in the global `ca-obs` registry. Sibling
    /// tests run concurrently against the same registry, so this
    /// checks growth bounds, not exact deltas — the strict
    /// thread-invariance contract is enforced by the dedicated
    /// `obs_determinism` integration suite.
    #[test]
    fn batches_feed_the_metric_registry() {
        let before = ca_obs::global().snapshot();
        let items: Vec<usize> = (0..40).collect();
        let out = Executor::with_threads(4).map_isolated(&items, |_, &x| {
            if x == 3 {
                panic!("instrumented panic");
            }
            x
        });
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
        let delta = ca_obs::global().snapshot().delta(&before);
        let count = |name: &str| delta.counters.get(name).map(|(_, v)| *v).unwrap_or(0);
        assert!(count("ca_exec.batches") >= 1);
        assert!(count("ca_exec.items") >= 40);
        assert!(count("ca_exec.panics") >= 1);
        assert!(count("ca_exec.workers_spawned") >= 4);
    }

    /// A span opened inside a mapped item records under its own name
    /// whether the item runs inline under the caller's span (one thread)
    /// or on a worker thread: span timers never nest into paths.
    #[test]
    fn item_spans_record_the_same_timer_at_any_thread_count() {
        let items: Vec<usize> = (0..32).collect();
        let counts: Vec<u64> = [1, 4]
            .into_iter()
            .map(|threads| {
                let before = ca_obs::global().snapshot();
                let _outer = ca_obs::span!("ca_exec.test.outer");
                Executor::with_threads(threads).map(&items, |_, _| {
                    drop(ca_obs::span!("ca_exec.test.item"));
                });
                let delta = ca_obs::global().snapshot().delta(&before);
                assert!(
                    delta.timers.keys().all(|name| !name.contains('/')),
                    "{:?}",
                    delta.timers
                );
                delta.timers["ca_exec.test.item"].count
            })
            .collect();
        assert_eq!(counts, vec![32, 32]);
    }

    /// The executor forks the caller's trace context per item, keyed by
    /// item index: the span ids an item derives must be identical at
    /// every thread count and distinct across items.
    #[test]
    fn trace_contexts_fork_identically_across_thread_counts() {
        ca_obs::trace::set_enabled(Some(true));
        let ids_at = |threads: usize| {
            let exec = Executor::with_threads(threads);
            let _root = ca_obs::root!("exec-trace-test", 42, "test");
            let items: Vec<usize> = (0..32).collect();
            exec.map(&items, |_, _| ca_obs::span!("item").id())
        };
        let serial = ids_at(1);
        let parallel = ids_at(4);
        ca_obs::trace::set_enabled(None);
        assert_eq!(serial, parallel, "span ids must not depend on CA_THREADS");
        assert!(serial.iter().all(Option::is_some));
        let distinct: std::collections::BTreeSet<_> = serial.iter().collect();
        assert_eq!(
            distinct.len(),
            serial.len(),
            "sibling items must not collide"
        );
    }

    #[test]
    fn panic_message_extracts_both_payload_kinds() {
        let s = catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(s.as_ref()), "literal");
        let owned = catch_unwind(|| panic!("{}", String::from("owned"))).unwrap_err();
        assert_eq!(panic_message(owned.as_ref()), "owned");
    }
}
