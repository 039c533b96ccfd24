//! Deterministic, order-independent merge of shard journals.
//!
//! Every source journal is replayed through `ca-store`'s torn-tail
//! recovery (damage is truncated away, reported, and surfaced as
//! structured events via [`ca_obs::emit_recovery`] — never merged).
//! Records then fold into one map keyed by the canonical cell key with
//! a *commutative, associative* conflict resolution, so the merged
//! store is byte-identical no matter how shards are ordered, retried
//! or duplicated:
//!
//! 1. Higher payload rank wins: `Complete` > `Degraded` >
//!    `Quarantined` (a retry that produced a better outcome beats the
//!    leftovers of a crashed attempt).
//! 2. Ties fall back to a total lexicographic order over every record
//!    field — an arbitrary but *stable* choice, so conflicting
//!    duplicates (which a healthy campaign never produces) still
//!    resolve identically from any merge order.
//!
//! The destination is rewritten from scratch in key order; its bytes
//! are a pure function of the merged record set.

use ca_store::{Payload, Record, Store};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// What one merge did, for reports and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Source journals that existed and were replayed.
    pub sources: usize,
    /// Live records seen across all sources (after per-journal
    /// last-writer-wins replay).
    pub records_seen: usize,
    /// Records in the merged store.
    pub merged_records: usize,
    /// Cross-shard duplicate keys that had to be resolved.
    pub duplicates: usize,
    /// Sources whose journal needed corruption recovery.
    pub recovered_sources: usize,
}

impl MergeReport {
    /// One-line summary.
    pub fn render(&self) -> String {
        format!(
            "merge: {} source(s), {} record(s) -> {} merged, {} duplicate key(s), {} recovered",
            self.sources,
            self.records_seen,
            self.merged_records,
            self.duplicates,
            self.recovered_sources
        )
    }
}

/// Rank of a payload in conflict resolution (higher wins).
fn payload_rank(payload: &Payload) -> u8 {
    match payload {
        Payload::Complete { .. } => 2,
        Payload::Degraded { .. } => 1,
        Payload::Quarantined { .. } => 0,
    }
}

/// Total order over records: payload rank first, then every field
/// lexicographically. Used only to resolve conflicting duplicates
/// deterministically — the *choice* is arbitrary, its stability is not.
fn record_cmp(a: &Record, b: &Record) -> Ordering {
    payload_rank(&a.payload)
        .cmp(&payload_rank(&b.payload))
        .then_with(|| a.structure.cmp(&b.structure))
        .then_with(|| a.wiring.cmp(&b.wiring))
        .then_with(|| a.reduced.cmp(&b.reduced))
        .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        .then_with(|| a.options_tag.cmp(&b.options_tag))
        .then_with(|| a.budget_tag.cmp(&b.budget_tag))
        .then_with(|| match (&a.payload, &b.payload) {
            (Payload::Complete { cam: x }, Payload::Complete { cam: y })
            | (Payload::Degraded { cam: x }, Payload::Degraded { cam: y }) => x.cmp(y),
            (
                Payload::Quarantined {
                    phase: xp,
                    retries: xr,
                    reason: xs,
                },
                Payload::Quarantined {
                    phase: yp,
                    retries: yr,
                    reason: ys,
                },
            ) => xp.cmp(yp).then_with(|| xr.cmp(yr)).then_with(|| xs.cmp(ys)),
            // Ranks already differ; unreachable but total anyway.
            _ => Ordering::Equal,
        })
}

/// Merges every existing journal in `sources` into a fresh store at
/// `dest` (any previous file there is replaced). Missing sources are
/// skipped — a shard that never launched has no journal, and that must
/// not fail the campaign's merge.
///
/// # Errors
///
/// Genuine I/O failure opening, reading or writing a store. Journal
/// *corruption* is never an error: recovery truncates and reports it.
pub fn merge_shard_stores(sources: &[PathBuf], dest: &Path) -> io::Result<MergeReport> {
    let mut report = MergeReport::default();
    let mut merged: BTreeMap<String, Record> = BTreeMap::new();
    for source in sources {
        if !source.exists() {
            continue;
        }
        let store = Store::open(source)?;
        ca_obs::emit_recovery("ca_shard.merge", source, store.recovery());
        if !store.recovery().is_clean() {
            report.recovered_sources += 1;
        }
        report.sources += 1;
        report.records_seen += store.len();
        for (cell, record) in store.records() {
            match merged.get(cell) {
                None => {
                    merged.insert(cell.clone(), record.clone());
                }
                Some(existing) => {
                    report.duplicates += 1;
                    if record_cmp(record, existing) == Ordering::Greater {
                        merged.insert(cell.clone(), record.clone());
                    }
                }
            }
        }
    }
    if dest.exists() {
        std::fs::remove_file(dest)?;
    }
    let mut out = Store::open(dest)?;
    for record in merged.values() {
        out.append(record)?;
    }
    report.merged_records = merged.len();
    ca_obs::counter!("ca_shard.merge.records", Work).add(report.merged_records as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cell: &str, payload: Payload) -> Record {
        Record {
            cell: cell.to_string(),
            structure: 1,
            wiring: 2,
            reduced: 3,
            fingerprint: 4,
            options_tag: 0,
            budget_tag: 0,
            payload,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ca-shard-merge-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn plant(path: &Path, records: &[Record]) {
        let _ = std::fs::remove_file(path);
        let mut store = Store::open(path).expect("open");
        for r in records {
            store.append(r).expect("append");
        }
    }

    #[test]
    fn complete_beats_degraded_beats_quarantined_from_either_order() {
        let dir = scratch("rank");
        let a = dir.join("a.caj");
        let b = dir.join("b.caj");
        plant(&a, &[record("X", Payload::Complete { cam: "good".into() })]);
        plant(
            &b,
            &[record(
                "X",
                Payload::Quarantined {
                    phase: 1,
                    retries: 0,
                    reason: "crashed attempt leftovers".into(),
                },
            )],
        );
        for order in [[a.clone(), b.clone()], [b.clone(), a.clone()]] {
            let dest = dir.join("merged.caj");
            let report = merge_shard_stores(&order, &dest).expect("merge");
            assert_eq!(report.merged_records, 1);
            assert_eq!(report.duplicates, 1);
            let merged = Store::open(&dest).expect("reopen");
            assert!(matches!(
                merged.get("X").expect("record").payload,
                Payload::Complete { .. }
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_bytes_are_order_independent() {
        let dir = scratch("bytes");
        let a = dir.join("a.caj");
        let b = dir.join("b.caj");
        let c = dir.join("c.caj");
        plant(&a, &[record("P", Payload::Complete { cam: "p".into() })]);
        plant(
            &b,
            &[
                record("Q", Payload::Degraded { cam: "q".into() }),
                record("P", Payload::Complete { cam: "p".into() }),
            ],
        );
        plant(&c, &[record("R", Payload::Complete { cam: "r".into() })]);
        let mut baseline = None;
        for order in [
            vec![a.clone(), b.clone(), c.clone()],
            vec![c.clone(), b.clone(), a.clone()],
            vec![b.clone(), c.clone(), a.clone()],
        ] {
            let dest = dir.join("merged.caj");
            merge_shard_stores(&order, &dest).expect("merge");
            let bytes = std::fs::read(&dest).expect("read merged");
            match &baseline {
                None => baseline = Some(bytes),
                Some(expect) => assert_eq!(&bytes, expect, "order {order:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sources_are_skipped() {
        let dir = scratch("missing");
        let a = dir.join("a.caj");
        plant(&a, &[record("X", Payload::Complete { cam: "x".into() })]);
        let dest = dir.join("merged.caj");
        let report =
            merge_shard_stores(&[dir.join("never-launched.caj"), a], &dest).expect("merge");
        assert_eq!(report.sources, 1);
        assert_eq!(report.merged_records, 1);
        // The missing path must not have been created by the merge.
        assert!(!dir.join("never-launched.caj").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_ties_resolve_identically_from_any_order() {
        let dir = scratch("tie");
        let a = dir.join("a.caj");
        let b = dir.join("b.caj");
        // Same rank, different bodies: resolution must be stable.
        plant(&a, &[record("X", Payload::Complete { cam: "aaa".into() })]);
        plant(&b, &[record("X", Payload::Complete { cam: "zzz".into() })]);
        let mut winners = Vec::new();
        for order in [[a.clone(), b.clone()], [b.clone(), a.clone()]] {
            let dest = dir.join("merged.caj");
            merge_shard_stores(&order, &dest).expect("merge");
            let merged = Store::open(&dest).expect("reopen");
            let Payload::Complete { cam } = merged.get("X").expect("record").payload.clone() else {
                panic!("complete expected");
            };
            winners.push(cam);
        }
        assert_eq!(winners[0], winners[1]);
        assert_eq!(winners[0], "zzz", "lexicographically greater body wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_source_is_recovered_and_counted() {
        let dir = scratch("damage");
        let a = dir.join("a.caj");
        plant(
            &a,
            &[
                record("X", Payload::Complete { cam: "x".into() }),
                record("Y", Payload::Complete { cam: "y".into() }),
            ],
        );
        ca_store::corrupt::garbage_append(&a, 0xBAD, 40).expect("garbage");
        let dest = dir.join("merged.caj");
        let report = merge_shard_stores(&[a], &dest).expect("merge");
        assert_eq!(report.recovered_sources, 1);
        assert_eq!(report.merged_records, 2);
        assert!(report.render().contains("1 recovered"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
