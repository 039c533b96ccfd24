//! Byte pins of the quick-profile C40 outputs.
//!
//! Two FNV-1a digests, taken once and checked into the repository:
//!
//! - the sorted conventional `.cam` export of the quick C40 library,
//!   which pins the `.cam` renderer;
//! - the journal file that a session run on one thread writes over the
//!   same library (file magic, then one CRC-framed record per cell in
//!   library order), which pins the record encoding, the frame header
//!   and the CRC32 of every record.
//!
//! Other tests compare two in-tree paths with each other (packed with
//! scalar, one thread with four, sharded with single-process); these
//! compare the bytes with the bytes the flow wrote when the pins were
//! taken, so a codec rewrite that changed both sides alike fails here.

use cell_aware::core::{
    characterize_library_with_session, export_cam, CharCache, Executor, Session,
};
use cell_aware::defects::GenerateOptions;
use cell_aware::netlist::library::{generate_library, LibraryConfig};
use cell_aware::netlist::Technology;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// FNV-1a of the sorted quick C40 `.cam` export ([`digest_docs`]).
const QUICK_C40_CAM_EXPORT: u64 = 0x3687_6040_9bce_278b;
/// FNV-1a of the journal file of a one-thread session run over the
/// quick C40 library.
const QUICK_C40_JOURNAL: u64 = 0xec33_8e43_3d96_d103;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a digest of named documents: each name and body, length-prefixed,
/// in name order (the digest of `tests/ml_pipeline.rs` and the benchmark).
fn digest_docs(docs: &BTreeMap<String, String>) -> u64 {
    let mut h = FNV_OFFSET;
    for (name, body) in docs {
        for part in [name.as_bytes(), body.as_bytes()] {
            fnv1a(&mut h, &(part.len() as u64).to_le_bytes());
            fnv1a(&mut h, part);
        }
    }
    h
}

/// One session run over the quick C40 library on one thread: its sorted
/// export and the bytes of the journal it wrote.
fn session_run() -> &'static (BTreeMap<String, String>, Vec<u8>) {
    static RUN: OnceLock<(BTreeMap<String, String>, Vec<u8>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let library = generate_library(&LibraryConfig::quick(Technology::C40));
        let dir = std::env::temp_dir().join(format!("ca-byte-pins-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("journal.caj");
        let session = Session::open(&path).expect("fresh store opens");
        let (prepared, _) = characterize_library_with_session(
            &library,
            GenerateOptions::default(),
            &Executor::with_threads(1),
            &CharCache::new(),
            &session,
        )
        .expect("synthesized cells characterize");
        drop(session);
        let journal = std::fs::read(&path).expect("journal readable");
        std::fs::remove_dir_all(&dir).expect("scratch dir removable");
        let export = export_cam(&prepared).into_iter().collect();
        (export, journal)
    })
}

#[test]
fn quick_c40_cam_export_is_pinned() {
    let (export, _) = session_run();
    let digest = digest_docs(export);
    assert_eq!(
        digest,
        QUICK_C40_CAM_EXPORT,
        "quick C40 .cam export changed: digest {digest:#018x} over {} documents",
        export.len()
    );
}

#[test]
fn quick_c40_journal_is_pinned() {
    let (_, journal) = session_run();
    let mut digest = FNV_OFFSET;
    fnv1a(&mut digest, journal);
    assert_eq!(
        digest,
        QUICK_C40_JOURNAL,
        "quick C40 journal changed: digest {digest:#018x} over {} bytes",
        journal.len()
    );
}
