//! Monotonic clock facade — the workspace's only door to wall time.
//!
//! Invariant D2 (DESIGN.md §10): `Instant::now` / `SystemTime::now`
//! never appear outside `ca-obs`, so every time read in the flow is
//! visible here and auditable. Two shapes cover every legitimate use:
//!
//! - [`Stopwatch`]: elapsed-time measurement for telemetry that is not
//!   a span (executor queue wait, journal time); spans
//!   ([`Span`](crate::Span)) time themselves. Readings are `ops`-class
//!   data and must never feed canonical outputs.
//! - [`Deadline`]: a wall-clock budget checked *between* deterministic
//!   units of work (stimuli, cells), so expiry changes *whether* a run
//!   finishes, never *what* a finished run contains.
//! - [`Backoff`]: a pure retry-delay schedule (capped exponential). It
//!   never reads a clock or randomness itself — it only *computes*
//!   durations from an attempt number — so retry pacing stays
//!   deterministic and injectable (invariants D2/D3).
//!
//! Clippy enforces the invariant statically (`disallowed-methods` in the
//! root `clippy.toml`); code that needs time imports it from here
//! instead of carrying a suppression.

use std::time::{Duration, Instant};

/// A started monotonic timer; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX` (584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

/// A wall-clock budget; `None` inside means "never expires".
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (the unlimited budget).
    pub const fn never() -> Deadline {
        Deadline { at: None }
    }

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Deadline {
        Deadline {
            at: Some(Instant::now() + d),
        }
    }

    /// Whether the deadline has passed. Always `false` for
    /// [`Deadline::never`].
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left before expiry: `None` for [`Deadline::never`],
    /// [`Duration::ZERO`] once expired. This is the one sanctioned way
    /// to turn a deadline back into a duration (condvar waits, socket
    /// timeouts, clamping a `SimBudget`-style wall-clock budget to the
    /// tighter of two limits) without reading the ambient clock.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// A deterministic capped-exponential retry-delay schedule.
///
/// `delay(n)` is the pause *before* retry `n` (1-based): `base` doubled
/// per prior retry, saturating at `cap`. Attempt 0 — the first try — has
/// no delay. The schedule is a pure function of its inputs: no jitter,
/// no ambient clock, so a supervisor's retry pacing replays identically
/// and tests can inject a zero schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
}

impl Backoff {
    /// A schedule starting at `base` and never exceeding `cap`.
    pub const fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap }
    }

    /// The all-zero schedule (retries pause nothing; test default).
    pub const fn none() -> Backoff {
        Backoff {
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// Delay before retry `retry` (1-based): `base * 2^(retry-1)`,
    /// capped. `retry == 0` (the initial attempt) is `ZERO`.
    pub fn delay(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        // 2^30 * any non-zero base already exceeds every practical cap;
        // clamping the exponent keeps the shift from overflowing.
        let factor = 1u32 << (retry - 1).min(30);
        self.base
            .checked_mul(factor)
            .unwrap_or(self.cap)
            .min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_ns() < u64::MAX);
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn never_deadline_never_expires() {
        assert!(!Deadline::never().expired());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        assert!(Deadline::after(Duration::ZERO).expired());
    }

    #[test]
    fn far_deadline_is_live() {
        assert!(!Deadline::after(Duration::from_secs(3600)).expired());
    }

    #[test]
    fn remaining_is_none_for_never_and_zero_after_expiry() {
        assert_eq!(Deadline::never().remaining(), None);
        assert_eq!(
            Deadline::after(Duration::ZERO).remaining(),
            Some(Duration::ZERO)
        );
        let left = Deadline::after(Duration::from_secs(3600))
            .remaining()
            .unwrap();
        assert!(left <= Duration::from_secs(3600));
        assert!(left > Duration::from_secs(3500));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let b = Backoff::new(Duration::from_millis(10), Duration::from_millis(35));
        assert_eq!(b.delay(0), Duration::ZERO);
        assert_eq!(b.delay(1), Duration::from_millis(10));
        assert_eq!(b.delay(2), Duration::from_millis(20));
        assert_eq!(b.delay(3), Duration::from_millis(35));
        assert_eq!(b.delay(4), Duration::from_millis(35));
        assert_eq!(b.delay(u32::MAX), Duration::from_millis(35));
    }

    #[test]
    fn backoff_none_is_always_zero() {
        let b = Backoff::none();
        for retry in [0, 1, 5, 31, 64] {
            assert_eq!(b.delay(retry), Duration::ZERO);
        }
    }

    #[test]
    fn backoff_is_pure() {
        let b = Backoff::new(Duration::from_millis(3), Duration::from_secs(1));
        assert_eq!(b.delay(4), b.delay(4));
        assert_eq!(
            b,
            Backoff::new(Duration::from_millis(3), Duration::from_secs(1))
        );
    }
}
