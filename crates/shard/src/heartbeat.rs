//! Hardened heartbeat reading for the supervisor's liveness watchdog.
//!
//! Workers rewrite their heartbeat file atomically with an incrementing
//! counter ([`worker`](crate::worker)); the supervisor polls it. The
//! naive read — "any read failure counts as silence" — conflates three
//! very different situations, and [`HeartbeatMonitor`] splits them
//! apart:
//!
//! - [`HeartbeatStatus::Fresh`]: the counter progressed, or the liveness
//!   window since the last progress is still open. The worker is alive.
//!   Before the first beat the file does not exist yet; while the
//!   window is open that is Fresh too, the expected state of every new
//!   attempt.
//! - [`HeartbeatStatus::Unreadable`]: the file went missing after a
//!   beat, cannot be read, or holds something that is not a counter (a
//!   partially-written or garbage file). This is an *observation*
//!   problem, not proof of a hang — the worker may be alive and beating
//!   into a file we briefly cannot see — so it must not reset or
//!   shortcut the liveness window.
//! - [`HeartbeatStatus::Stale`]: no progress has been observed for the
//!   whole timeout, whatever the reads said in between. Only this
//!   status justifies killing the worker.
//!
//! The liveness window is a [`ca_obs::clock::Deadline`] re-armed on each
//! observed progress, so the policy is explicit: *fresh beats buy time,
//! failed reads never take it away early*. Heartbeat files are written
//! via `write_atomic`, so an unreadable file is rare — but a hostile
//! filesystem (NFS hiccup, torn tmpfs, operator `truncate`) must
//! degrade to a classified observation, never to an instant kill.

use ca_obs::clock::Deadline;
use std::path::PathBuf;
use std::time::Duration;

/// One classified heartbeat observation; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatStatus {
    /// Progress observed, or the liveness window is still open.
    Fresh,
    /// No progress for at least the timeout: the worker is presumed
    /// hung and should be killed.
    Stale,
    /// The file could not be read or parsed this poll; the liveness
    /// window keeps running unchanged.
    Unreadable,
}

/// Stateful heartbeat reader: owns the last-seen counter and the
/// liveness window. One monitor per worker attempt.
#[derive(Debug)]
pub struct HeartbeatMonitor {
    path: PathBuf,
    timeout: Duration,
    last: Option<u64>,
    window: Deadline,
}

impl HeartbeatMonitor {
    /// A monitor whose liveness window starts now: the worker has
    /// `timeout` to produce its first beat.
    pub fn new(path: PathBuf, timeout: Duration) -> HeartbeatMonitor {
        HeartbeatMonitor {
            path,
            timeout,
            last: None,
            window: Deadline::after(timeout),
        }
    }

    /// Reads and classifies the heartbeat file once.
    pub fn poll(&mut self) -> HeartbeatStatus {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => match text.trim().parse::<u64>() {
                Ok(beat) => {
                    // Any counter change is progress — including a
                    // restart from zero after an attempt boundary.
                    if self.last != Some(beat) {
                        self.last = Some(beat);
                        self.window = Deadline::after(self.timeout);
                        return HeartbeatStatus::Fresh;
                    }
                    self.within_window(HeartbeatStatus::Fresh)
                }
                // UTF-8 but not a counter: a partially-written or
                // foreign file. Classified, window untouched.
                Err(_) => self.within_window(HeartbeatStatus::Unreadable),
            },
            // Not written yet: the worker has yet to beat.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && self.last.is_none() => {
                self.within_window(HeartbeatStatus::Fresh)
            }
            // Gone after a beat, or genuinely unreadable (permissions,
            // non-UTF-8 garbage).
            Err(_) => self.within_window(HeartbeatStatus::Unreadable),
        }
    }

    /// `status` while the liveness window is open. No read shortcuts
    /// the window, and none holds it open forever either: with no
    /// observed progress for the whole timeout, the verdict is a hang.
    fn within_window(&self, status: HeartbeatStatus) -> HeartbeatStatus {
        if self.window.expired() {
            HeartbeatStatus::Stale
        } else {
            status
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ca-heartbeat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.beat"));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn progressing_counter_is_fresh() {
        let path = tmp("fresh");
        // A zero timeout expires instantly, so only genuine progress
        // can report Fresh — the strictest possible check.
        let mut monitor = HeartbeatMonitor::new(path.clone(), Duration::ZERO);
        for beat in 1..=3u64 {
            ca_store::write_atomic(&path, format!("{beat}\n")).unwrap();
            assert_eq!(monitor.poll(), HeartbeatStatus::Fresh, "beat {beat}");
        }
        // A restart from a lower counter still counts as progress.
        ca_store::write_atomic(&path, "0\n").unwrap();
        assert_eq!(monitor.poll(), HeartbeatStatus::Fresh);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unchanged_counter_past_timeout_is_stale() {
        let path = tmp("stale");
        ca_store::write_atomic(&path, "7\n").unwrap();
        let mut monitor = HeartbeatMonitor::new(path.clone(), Duration::ZERO);
        // First poll observes progress (re-arms the zero window, which
        // expires immediately); the second poll sees no progress past
        // the window: a hang.
        assert_eq!(monitor.poll(), HeartbeatStatus::Fresh);
        assert_eq!(monitor.poll(), HeartbeatStatus::Stale);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_file_is_classified_not_treated_as_a_hang() {
        let path = tmp("unreadable");
        let mut monitor = HeartbeatMonitor::new(path.clone(), Duration::from_secs(3600));
        // Missing before the first beat: not written yet, which is
        // every new attempt's state, and the worker keeps its window.
        assert_eq!(monitor.poll(), HeartbeatStatus::Fresh);
        // Garbage text (a partial write torn mid-number-plus-junk).
        ca_store::write_atomic(&path, "12 garbage\n").unwrap();
        assert_eq!(monitor.poll(), HeartbeatStatus::Unreadable);
        // Non-UTF-8 bytes.
        ca_store::write_atomic(&path, [0xFFu8, 0xFE, 0x00, 0x80]).unwrap();
        assert_eq!(monitor.poll(), HeartbeatStatus::Unreadable);
        // Recovery: a valid beat after the noise is fresh again.
        ca_store::write_atomic(&path, "13\n").unwrap();
        assert_eq!(monitor.poll(), HeartbeatStatus::Fresh);
        // Missing after a beat: the file went away under a live worker.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(monitor.poll(), HeartbeatStatus::Unreadable);
    }

    #[test]
    fn unreadable_past_timeout_becomes_stale() {
        let path = tmp("unreadable-stale");
        ca_store::write_atomic(&path, "not a counter").unwrap();
        let mut monitor = HeartbeatMonitor::new(path.clone(), Duration::ZERO);
        // The window opened expired and no progress was ever observed:
        // even an unreadable file must eventually resolve to a hang.
        assert_eq!(monitor.poll(), HeartbeatStatus::Stale);
        // So must a first beat that never comes.
        let _ = std::fs::remove_file(&path);
        assert_eq!(monitor.poll(), HeartbeatStatus::Stale);
    }
}
