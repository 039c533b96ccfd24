//! Structured surfacing of journal-recovery outcomes.
//!
//! `ca-store` deliberately carries no observability dependency (the
//! dependency points the other way: this crate uses its
//! `write_atomic`), so the store can only *report* recovery through the
//! plain [`ca_store::RecoveryReport`] value. Every layer that opens a
//! store — sessions, shard merges — funnels that report through
//! [`emit_recovery`] so torn tails, CRC mismatches and superseded
//! records land in the JSONL event sink instead of being silently
//! swallowed by the caller.

use crate::event::{info, warn};
use ca_store::RecoveryReport;
use std::path::Path;

/// Emits the outcome of one journal replay as structured events under
/// `target` (the opening layer, e.g. `ca_core.session` or
/// `ca_shard.merge`).
///
/// - Recovered corruption is a **warn** event (mirrored to stderr)
///   carrying the damage kind, byte offset, detail and truncation size,
///   plus an `Ops` counter `ca_store.recovery.reported`.
/// - A clean replay that superseded duplicate records is an **info**
///   event (last-writer-wins is normal after a resumed run, but worth a
///   line in the sink).
/// - A clean, duplicate-free replay emits nothing.
pub fn emit_recovery(target: &str, path: &Path, report: &RecoveryReport) {
    if let Some(ev) = &report.corruption {
        // Environment damage, not work done: `Ops`, so recovery noise
        // never joins determinism fingerprints.
        crate::counter!("ca_store.recovery.reported").inc();
        let path = path.display().to_string();
        let kind = ev.kind.to_string();
        let offset = ev.offset.to_string();
        let truncated = report.truncated_bytes.to_string();
        let valid = report.valid_records.to_string();
        warn(
            target,
            "journal recovered from corruption",
            &[
                ("path", path.as_str()),
                ("kind", kind.as_str()),
                ("offset", offset.as_str()),
                ("detail", ev.detail.as_str()),
                ("truncated_bytes", truncated.as_str()),
                ("valid_records", valid.as_str()),
            ],
        );
    } else if report.duplicates > 0 {
        let path = path.display().to_string();
        let duplicates = report.duplicates.to_string();
        let valid = report.valid_records.to_string();
        info(
            target,
            "journal replayed with superseded records",
            &[
                ("path", path.as_str()),
                ("duplicates", duplicates.as_str()),
                ("valid_records", valid.as_str()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_store::{CorruptionEvent, CorruptionKind};

    #[test]
    fn corruption_report_emits_a_warn_event() {
        let before = crate::buffered_events();
        emit_recovery(
            "ca_test.recovery",
            Path::new("/tmp/x.caj"),
            &RecoveryReport {
                valid_records: 3,
                duplicates: 0,
                corruption: Some(CorruptionEvent {
                    offset: 42,
                    kind: CorruptionKind::TornFrame,
                    detail: "frame body short".into(),
                }),
                truncated_bytes: 17,
            },
        );
        assert!(crate::buffered_events() > before);
    }

    #[test]
    fn clean_report_is_silent() {
        let before = crate::buffered_events();
        emit_recovery(
            "ca_test.recovery",
            Path::new("/tmp/x.caj"),
            &RecoveryReport::default(),
        );
        assert_eq!(crate::buffered_events(), before);
    }
}
