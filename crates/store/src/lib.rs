//! Crash-safe journaled on-disk store of CA models.
//!
//! The paper's premise is that a *large database of CA models* built up
//! over past libraries is the asset everything else trains on — so losing
//! a multi-hour characterization run to a crash is not an option. This
//! crate provides the durability layer:
//!
//! - an **append-only journal**: a versioned header followed by
//!   length + CRC32 framed records, one per characterized cell. Each
//!   record carries the cell name, the canonical triple hashes, a netlist
//!   fingerprint, generation-option/budget tags and either a `.cam`
//!   payload or a quarantine verdict;
//! - **torn-write recovery**: [`Store::open`] replays the journal and, on
//!   the first invalid frame (truncated tail, CRC mismatch, undecodable
//!   payload), truncates the file back to the last valid record. The
//!   damage is *reported* via [`RecoveryReport`], never served;
//! - **atomic snapshot compaction**: [`Store::compact`] rewrites the live
//!   record set through the same tmp → fsync → rename → fsync-dir dance
//!   as [`write_atomic`], collapsing duplicates and reclaiming space;
//! - [`write_atomic`], the shared crash-safe file write used for every
//!   file emission in the workspace (`.cam` exports, `BENCH_*.json`);
//! - deterministic [`corrupt`]ion helpers for fault-injection tests.
//!
//! The store knows nothing about netlists or models: hashes and tags are
//! opaque `u64`s and the model body is an opaque string, so the crate has
//! no workspace dependencies beyond the in-tree RNG (used only by the
//! corruption helpers). Semantics — which hash means what, when a record
//! may be reused — live in `ca-core`'s session layer.
//!
//! CRC framing is an *integrity* check against torn writes and bit rot,
//! not authentication: an adversary who can rewrite records and their
//! CRCs is outside the threat model (the session layer still re-verifies
//! every record against the live netlist before reuse).

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
// A store error mid-run must surface as a report, never abort the batch.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "D4: importing the raw-write primitives this crate wraps"
)]
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub mod corrupt;
pub mod frame;

/// 8-byte file magic; the trailing byte is the format version.
pub const MAGIC: [u8; 8] = *b"CASTOR\x00\x01";

/// Size of the file header (just the magic + version).
pub const HEADER_LEN: u64 = 8;

/// Sanity cap on a single record payload; a frame length above this is
/// treated as corruption rather than attempted (protects replay from a
/// garbage length field that happens to fit in the file).
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-16 over tables computed at compile time
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table of the reflected IEEE
/// polynomial; `CRC_TABLES[k][b]` is what byte `b` followed by `k` zero
/// bytes leaves in a zero register, so 16 independent lookups advance
/// the CRC over 16 bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// IEEE CRC32 of `bytes` (the polynomial used by zip/png/ethernet).
///
/// Slicing-by-16: each 16-byte block folds the running CRC into its
/// first four bytes and XORs one table lookup per byte, so the lookups
/// of a block are independent instead of a chain of 16. The value is
/// the bytewise table loop's, which the tests keep as the oracle.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        let mut folded = *block;
        for (byte, register) in folded.iter_mut().zip(c.to_le_bytes()) {
            *byte ^= register;
        }
        // Byte `i` of the block is followed by `15 - i` more bytes.
        c = folded
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |sum, (&byte, table)| sum ^ table[usize::from(byte)]);
    }
    for &b in tail {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// Outcome body of a journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A complete (never budget-truncated) model; `cam` is the `.cam`
    /// document. Eligible for cache donation after re-verification.
    Complete {
        /// The `.cam` document of the model.
        cam: String,
    },
    /// A model produced under a reduced budget. Journaled with its
    /// budget-outcome tag so a resumed run can serve it back to the *same*
    /// cell, but never used as a cache donor.
    Degraded {
        /// The `.cam` document of the (degraded) model.
        cam: String,
    },
    /// A cell the robust pipeline quarantined; replaying the verdict lets
    /// a resumed run skip the (possibly expensive) failure re-diagnosis.
    Quarantined {
        /// Failure phase, encoded by the session layer.
        phase: u8,
        /// Reduced-budget retries that were attempted.
        retries: u32,
        /// Human-readable failure reason.
        reason: String,
    },
}

impl Payload {
    fn tag(&self) -> u8 {
        match self {
            Payload::Complete { .. } => 0,
            Payload::Degraded { .. } => 1,
            Payload::Quarantined { .. } => 2,
        }
    }
}

/// One per-cell characterization record.
///
/// The hash fields are opaque to the store; the session layer writes the
/// canonical triple (`structure`/`wiring`/`reduced`), a whole-netlist
/// `fingerprint`, and tags derived from the generation options and the
/// simulation budget, and re-verifies all of them before reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Cell name (the lookup key; duplicates are last-writer-wins).
    pub cell: String,
    /// Canonical structure hash (0 when unavailable, e.g. quarantined).
    pub structure: u64,
    /// Canonical wiring hash.
    pub wiring: u64,
    /// Canonical reduced hash.
    pub reduced: u64,
    /// Whole-netlist fingerprint (covers sizes, names, connectivity).
    pub fingerprint: u64,
    /// Tag of the generation options the record was produced under.
    pub options_tag: u64,
    /// Tag of the simulation budget the record was produced under.
    pub budget_tag: u64,
    /// Outcome body.
    pub payload: Payload,
}

impl Record {
    /// An upper bound on the encoded payload's length: the fixed-width
    /// fields take at most 64 bytes, the strings come on top.
    fn len_bound(&self) -> usize {
        let body = match &self.payload {
            Payload::Complete { cam } | Payload::Degraded { cam } => cam.len(),
            Payload::Quarantined { reason, .. } => reason.len(),
        };
        64 + self.cell.len() + body
    }

    /// Appends the record to `out` as one journal frame, encoded in
    /// place.
    fn append_frame(&self, out: &mut Vec<u8>) -> io::Result<()> {
        frame::append_frame(out, MAX_PAYLOAD, |out| {
            self.encode_into(out)
                .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))
        })
    }

    fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), String> {
        out.push(self.payload.tag());
        let name = self.cell.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(format!("cell name too long ({} bytes)", name.len()));
        }
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        for word in [
            self.structure,
            self.wiring,
            self.reduced,
            self.fingerprint,
            self.options_tag,
            self.budget_tag,
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        match &self.payload {
            Payload::Complete { cam } | Payload::Degraded { cam } => {
                let cam = cam.as_bytes();
                if cam.len() > MAX_PAYLOAD as usize {
                    return Err(format!("cam body too long ({} bytes)", cam.len()));
                }
                out.extend_from_slice(&(cam.len() as u32).to_le_bytes());
                out.extend_from_slice(cam);
            }
            Payload::Quarantined {
                phase,
                retries,
                reason,
            } => {
                out.push(*phase);
                out.extend_from_slice(&retries.to_le_bytes());
                let reason = reason.as_bytes();
                if reason.len() > u16::MAX as usize {
                    return Err(format!("reason too long ({} bytes)", reason.len()));
                }
                out.extend_from_slice(&(reason.len() as u16).to_le_bytes());
                out.extend_from_slice(reason);
            }
        }
        Ok(())
    }

    fn decode(bytes: &[u8]) -> Result<Record, String> {
        let mut cur = Cursor { bytes, pos: 0 };
        let tag = cur.u8()?;
        let name_len = cur.u16()? as usize;
        let cell = cur.str(name_len)?;
        let structure = cur.u64()?;
        let wiring = cur.u64()?;
        let reduced = cur.u64()?;
        let fingerprint = cur.u64()?;
        let options_tag = cur.u64()?;
        let budget_tag = cur.u64()?;
        let payload = match tag {
            0 | 1 => {
                let cam_len = cur.u32()?;
                if cam_len > MAX_PAYLOAD {
                    return Err(format!("cam length {cam_len} exceeds sanity cap"));
                }
                let cam = cur.str(cam_len as usize)?;
                if tag == 0 {
                    Payload::Complete { cam }
                } else {
                    Payload::Degraded { cam }
                }
            }
            2 => {
                let phase = cur.u8()?;
                let retries = cur.u32()?;
                let reason_len = cur.u16()? as usize;
                let reason = cur.str(reason_len)?;
                Payload::Quarantined {
                    phase,
                    retries,
                    reason,
                }
            }
            other => return Err(format!("unknown record tag {other}")),
        };
        if cur.pos != bytes.len() {
            return Err(format!(
                "{} trailing bytes after record body",
                bytes.len() - cur.pos
            ));
        }
        Ok(Record {
            cell,
            structure,
            wiring,
            reduced,
            fingerprint,
            options_tag,
            budget_tag,
            payload,
        })
    }
}

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(b);
        Ok(u64::from_le_bytes(word))
    }

    fn str(&mut self, n: usize) -> Result<String, String> {
        let bytes = self.take(n)?.to_vec();
        String::from_utf8(bytes).map_err(|_| "non-UTF-8 string field".to_string())
    }
}

// ---------------------------------------------------------------------
// Recovery reporting
// ---------------------------------------------------------------------

/// What kind of damage recovery found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// The file header is missing, short, or carries the wrong
    /// magic/version; the store was reset to a fresh header.
    BadHeader,
    /// The tail holds a frame header or body shorter than its declared
    /// length (the classic torn write).
    TornFrame,
    /// A frame's payload does not match its CRC32.
    CrcMismatch,
    /// A CRC-valid frame whose payload does not decode (foreign or
    /// half-written bytes that happened to checksum).
    BadPayload,
}

impl fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionKind::BadHeader => write!(f, "bad header"),
            CorruptionKind::TornFrame => write!(f, "torn frame"),
            CorruptionKind::CrcMismatch => write!(f, "CRC mismatch"),
            CorruptionKind::BadPayload => write!(f, "undecodable payload"),
        }
    }
}

/// One corruption event found (and neutralized) during replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// Classification of the damage.
    pub kind: CorruptionKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for CorruptionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}: {}", self.kind, self.offset, self.detail)
    }
}

/// Outcome of replaying the journal on open. Corruption here is *news*,
/// not failure: the store truncated the damage away and is consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames that replayed cleanly.
    pub valid_records: usize,
    /// Cells that appeared more than once (superseded, last-writer-wins).
    pub duplicates: usize,
    /// The first invalid frame, if any (replay stops there).
    pub corruption: Option<CorruptionEvent>,
    /// Bytes discarded when truncating past the last valid record.
    pub truncated_bytes: u64,
}

impl RecoveryReport {
    /// Whether the journal replayed without any damage.
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none()
    }

    /// Renders a one-line summary.
    pub fn render(&self) -> String {
        match &self.corruption {
            None => format!(
                "store: {} record(s), {} superseded, clean",
                self.valid_records, self.duplicates
            ),
            Some(ev) => format!(
                "store: {} record(s), {} superseded, RECOVERED from {} ({} byte(s) truncated)",
                self.valid_records, self.duplicates, ev, self.truncated_bytes
            ),
        }
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Plain I/O counters a [`Store`] keeps about itself: journal appends,
/// fsyncs, compactions and evictions, plus the recovery truncation from
/// open. Kept as ordinary fields (not an observability dependency) so
/// this crate stays at the bottom of the workspace graph; the session
/// layer lifts them into the `ca-obs` metric registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames appended to the journal.
    pub appends: u64,
    /// Bytes written by those appends (frame headers included).
    pub append_bytes: u64,
    /// `fsync`/`fdatasync` calls issued (header writes, appends,
    /// recovery truncations).
    pub fsyncs: u64,
    /// Snapshot compactions completed.
    pub compactions: u64,
    /// Records dropped from the live view by [`Store::evict`].
    pub evictions: u64,
    /// Bytes discarded by torn-tail/corruption truncation at open.
    pub recovery_truncated_bytes: u64,
}

/// A journaled on-disk store of per-cell characterization records.
///
/// Opening replays the journal (recovering from any torn tail), appends
/// are fsynced frames, and [`compact`](Store::compact) atomically rewrites
/// the live snapshot. See the module docs for the format.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    file: File,
    live: BTreeMap<String, Record>,
    recovery: RecoveryReport,
    stats: StoreStats,
}

impl Store {
    /// Opens (or creates) the store at `path`, replaying the journal.
    ///
    /// Any invalid tail is truncated away and reported via
    /// [`recovery`](Store::recovery); it is never served as a record.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, missing parent directory);
    /// corruption is recovered from, not failed on.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Store> {
        let path = path.as_ref().to_path_buf();
        #[expect(
            clippy::disallowed_types,
            reason = "D4: the journal open/append path is the durability primitive itself"
        )]
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut recovery = RecoveryReport::default();
        let mut stats = StoreStats::default();
        let mut live = BTreeMap::new();
        if bytes.is_empty() {
            // Fresh store: persist the header (and its directory entry)
            // immediately so a crash right after creation replays cleanly.
            file.write_all(&MAGIC)?;
            file.sync_all()?;
            stats.fsyncs += 2; // header + parent directory
            sync_parent_dir(&path);
        } else if bytes.len() < HEADER_LEN as usize || bytes[..8] != MAGIC {
            recovery.corruption = Some(CorruptionEvent {
                offset: 0,
                kind: CorruptionKind::BadHeader,
                detail: "magic/version mismatch; store reset".to_string(),
            });
            recovery.truncated_bytes = bytes.len() as u64;
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&MAGIC)?;
            file.sync_all()?;
            stats.fsyncs += 1;
        } else {
            let mut offset = HEADER_LEN as usize;
            while offset < bytes.len() {
                match replay_frame(&bytes, offset) {
                    Ok((record, next)) => {
                        if live.insert(record.cell.clone(), record).is_some() {
                            recovery.duplicates += 1;
                        }
                        recovery.valid_records += 1;
                        offset = next;
                    }
                    Err(event) => {
                        recovery.truncated_bytes = (bytes.len() - offset) as u64;
                        recovery.corruption = Some(event);
                        file.set_len(offset as u64)?;
                        file.sync_all()?;
                        stats.fsyncs += 1;
                        break;
                    }
                }
            }
        }
        file.seek(SeekFrom::End(0))?;
        stats.recovery_truncated_bytes = recovery.truncated_bytes;
        Ok(Store {
            path,
            file,
            live,
            recovery,
            stats,
        })
    }

    /// I/O counters accumulated by this handle (appends, fsyncs,
    /// compactions, evictions, recovery truncation).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The replay/recovery outcome of [`open`](Store::open).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Path the store lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live records (last writer wins), keyed and ordered by cell name.
    pub fn records(&self) -> &BTreeMap<String, Record> {
        &self.live
    }

    /// The live record for `cell`, if any.
    pub fn get(&self, cell: &str) -> Option<&Record> {
        self.live.get(cell)
    }

    /// Number of live (deduplicated) records.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Appends `record` to the journal and fsyncs it. The write is
    /// framed, so a crash mid-append leaves at worst a torn tail that the
    /// next [`open`](Store::open) truncates away. Returns whether the
    /// record superseded a live record of the same cell (the journal then
    /// carries a duplicate that only [`compact`](Store::compact) drops).
    ///
    /// # Errors
    ///
    /// I/O failures, or a record with an over-long field or a payload
    /// over the cap replay accepts (which would otherwise be written,
    /// then truncated away as a torn tail on the next open).
    pub fn append(&mut self, record: &Record) -> io::Result<bool> {
        let mut frame = Vec::with_capacity(frame::FRAME_HEADER_LEN + record.len_bound());
        record.append_frame(&mut frame)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.stats.appends += 1;
        self.stats.append_bytes += frame.len() as u64;
        self.stats.fsyncs += 1;
        Ok(self
            .live
            .insert(record.cell.clone(), record.clone())
            .is_some())
    }

    /// Drops `cell`'s record from the live view (it stays in the journal
    /// until the next [`compact`](Store::compact)). Used by the session
    /// layer to evict stale records whose hashes no longer match.
    pub fn evict(&mut self, cell: &str) -> bool {
        let evicted = self.live.remove(cell).is_some();
        if evicted {
            self.stats.evictions += 1;
        }
        evicted
    }

    /// Atomically rewrites the journal as a snapshot of the live records
    /// (deduplicated, in name order): tmp file in the same directory →
    /// fsync → rename over the journal → fsync directory. A crash at any
    /// point leaves either the old or the new journal, never a mix.
    ///
    /// # Errors
    ///
    /// I/O failures; the original journal is untouched on error.
    pub fn compact(&mut self) -> io::Result<()> {
        let frames: usize = self
            .live
            .values()
            .map(|record| frame::FRAME_HEADER_LEN + record.len_bound())
            .sum();
        let mut snapshot = Vec::with_capacity(HEADER_LEN as usize + frames);
        snapshot.extend_from_slice(&MAGIC);
        for record in self.live.values() {
            record.append_frame(&mut snapshot)?;
        }
        write_atomic(&self.path, &snapshot)?;
        // The old handle points at the replaced inode; reopen.
        #[expect(
            clippy::disallowed_types,
            reason = "D4: reopening the compacted journal inode for appends"
        )]
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.stats.compactions += 1;
        self.stats.fsyncs += 2; // write_atomic: tmp file + parent dir
        Ok(())
    }
}

/// Replays one frame at `offset`; returns the record and the next offset.
///
/// The byte-level framing lives in [`frame`] (shared with the `ca-serve`
/// wire protocol); this function maps its errors onto the journal's
/// recovery taxonomy: a torn or over-long frame is a torn tail, a CRC
/// failure is bit rot, and only a frame that passes both can fail as
/// [`CorruptionKind::BadPayload`].
fn replay_frame(bytes: &[u8], offset: usize) -> Result<(Record, usize), CorruptionEvent> {
    let at = |kind, detail: String| CorruptionEvent {
        offset: offset as u64,
        kind,
        detail,
    };
    let (payload, next) = match frame::decode(bytes, offset, MAX_PAYLOAD) {
        Ok(ok) => ok,
        Err(e @ frame::FrameError::CrcMismatch { .. }) => {
            return Err(at(CorruptionKind::CrcMismatch, e.to_string()))
        }
        Err(e) => return Err(at(CorruptionKind::TornFrame, e.to_string())),
    };
    match Record::decode(payload) {
        Ok(record) => Ok((record, next)),
        Err(msg) => Err(at(CorruptionKind::BadPayload, msg)),
    }
}

// ---------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------

/// Crash-safe whole-file write: tmp file in the same directory → fsync →
/// rename over `path` → fsync directory. Readers see either the old
/// contents or the new, never a torn mix; a crash leaves at worst a stale
/// `.tmp` file.
///
/// # Errors
///
/// I/O failures creating, writing, fsyncing or renaming the tmp file (a
/// failure to fsync the *directory* is tolerated: some filesystems refuse
/// directory handles, and the rename itself is already durable there).
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: write_atomic is the sanctioned tmp+rename+fsync primitive"
        )]
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_ref())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    sync_parent_dir(path);
    Ok(())
}

/// Fsyncs the directory holding `path`, making a freshly renamed or
/// created entry durable. Best-effort: failures are ignored (see
/// [`write_atomic`]).
fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Self-cleaning temp dir (no external tempfile crate).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("ca-store-test-{}-{tag}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn record(cell: &str, structure: u64, cam: &str) -> Record {
        Record {
            cell: cell.to_string(),
            structure,
            wiring: structure ^ 0xAB,
            reduced: structure ^ 0xCD,
            fingerprint: structure.wrapping_mul(31),
            options_tag: 5,
            budget_tag: 7,
            payload: Payload::Complete {
                cam: cam.to_string(),
            },
        }
    }

    #[test]
    fn store_stats_count_io() {
        let tmp = TempDir::new("stats");
        let path = tmp.path("store.caj");
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.stats().fsyncs, 2, "fresh header + parent dir");
        store.append(&record("a", 1, "CAM-A")).unwrap();
        store.append(&record("b", 2, "CAM-B")).unwrap();
        let stats = store.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.fsyncs, 4);
        assert!(stats.append_bytes > 16, "two framed payloads");
        assert!(store.evict("a"));
        assert!(!store.evict("a"));
        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!((stats.evictions, stats.compactions), (1, 1));
        assert_eq!(stats.recovery_truncated_bytes, 0);

        // A torn tail shows up in the next handle's recovery stats.
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAA; 5]);
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: deliberate corruption harness"
        )]
        std::fs::write(&path, &bytes).unwrap();
        let reopened = Store::open(&path).unwrap();
        assert_eq!(reopened.stats().recovery_truncated_bytes, 5);
        assert_eq!(reopened.stats().appends, 0);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table loop `crc32` replaced: one dependent lookup
    /// per byte. The oracle of the sliced loop.
    fn bytewise_crc(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn pseudo_random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ca_rng::SplitMix64::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        // Every start offset within a 16-byte block and every length up
        // to five blocks: each tail length 0..16 behind 0..=5 blocks.
        let bytes = pseudo_random_bytes(16 + 80, 0xC3C3);
        for offset in 0..16 {
            for len in 0..=80 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    bytewise_crc(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_checksum_matches_bytewise_reference_over_a_mebibyte() {
        let bytes = pseudo_random_bytes(1 << 20, 0x5EED);
        assert_eq!(crc32(&bytes), bytewise_crc(&bytes));
        assert_eq!(crc32(&bytes[3..]), bytewise_crc(&bytes[3..]));
    }

    #[test]
    fn empty_and_header_only_files_open_clean() {
        let tmp = TempDir::new("fresh");
        let path = tmp.path("store.caj");
        // Nonexistent -> created with just a header.
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean());
        assert!(store.is_empty());
        drop(store);
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC);
        // Header-only file replays clean with zero records.
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean());
        assert_eq!(store.recovery().valid_records, 0);
        assert!(store.is_empty());
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let path = tmp.path("store.caj");
        let a = record("AND2", 1, "CAM 1\nend\n");
        let q = Record {
            cell: "BROKEN".to_string(),
            structure: 0,
            wiring: 0,
            reduced: 0,
            fingerprint: 99,
            options_tag: 5,
            budget_tag: 7,
            payload: Payload::Quarantined {
                phase: 1,
                retries: 2,
                reason: "solver oscillated on `BROKEN` (nets: osc)".to_string(),
            },
        };
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&a).unwrap();
            store.append(&q).unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
        assert_eq!(store.recovery().valid_records, 2);
        assert_eq!(store.get("AND2"), Some(&a));
        assert_eq!(store.get("BROKEN"), Some(&q));
        assert_eq!(store.get("MISSING"), None);
    }

    #[test]
    fn duplicate_cells_are_last_writer_wins() {
        let tmp = TempDir::new("dups");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            assert!(!store.append(&record("X", 1, "old")).unwrap());
            assert!(!store.append(&record("Y", 2, "y")).unwrap());
            assert!(
                store.append(&record("X", 3, "new")).unwrap(),
                "a second record of X supersedes the first"
            );
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.recovery().valid_records, 3);
        assert_eq!(store.recovery().duplicates, 1);
        assert_eq!(store.len(), 2);
        match &store.get("X").unwrap().payload {
            Payload::Complete { cam } => assert_eq!(cam, "new"),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let tmp = TempDir::new("torn");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&record("GOOD", 1, "kept")).unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        // Simulate a crash mid-append: a frame header promising more
        // bytes than the file holds.
        let mut torn = intact.clone();
        torn.extend_from_slice(&500u32.to_le_bytes());
        torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        torn.extend_from_slice(b"half a reco");
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: deliberate corruption harness"
        )]
        std::fs::write(&path, &torn).unwrap();
        let store = Store::open(&path).unwrap();
        let report = store.recovery();
        assert_eq!(report.valid_records, 1);
        let ev = report.corruption.as_ref().unwrap();
        assert_eq!(ev.kind, CorruptionKind::TornFrame);
        assert_eq!(ev.offset, intact.len() as u64);
        assert_eq!(report.truncated_bytes, (torn.len() - intact.len()) as u64);
        assert_eq!(store.get("GOOD"), Some(&record("GOOD", 1, "kept")));
        drop(store);
        // The tail is physically gone: the journal is byte-identical to
        // the pre-crash state and replays clean.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean());
    }

    #[test]
    fn exactly_one_valid_record_with_torn_tail_survives_and_extends() {
        let tmp = TempDir::new("extend");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&record("A", 1, "a")).unwrap();
        }
        // Torn tail...
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 9, 9]);
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: deliberate corruption harness"
        )]
        std::fs::write(&path, &bytes).unwrap();
        // ...recovered, then the journal keeps growing normally.
        {
            let mut store = Store::open(&path).unwrap();
            assert!(!store.recovery().is_clean());
            store.append(&record("B", 2, "b")).unwrap();
        }
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean(), "{:?}", store.recovery());
        assert_eq!(store.recovery().valid_records, 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn crc_mismatch_detected_on_bit_flip() {
        let tmp = TempDir::new("flip");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&record("A", 1, "aaaa")).unwrap();
            store.append(&record("B", 2, "bbbb")).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        // Flip a bit inside the *second* record's payload.
        corrupt::bit_flip(&path, len - 3, 2).unwrap();
        let store = Store::open(&path).unwrap();
        let report = store.recovery();
        assert_eq!(report.valid_records, 1);
        assert_eq!(
            report.corruption.as_ref().unwrap().kind,
            CorruptionKind::CrcMismatch
        );
        assert_eq!(store.get("A"), Some(&record("A", 1, "aaaa")));
        assert_eq!(store.get("B"), None, "corrupted record must not serve");
    }

    #[test]
    fn garbage_append_is_rejected() {
        let tmp = TempDir::new("garbage");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&record("A", 1, "a")).unwrap();
        }
        corrupt::garbage_append(&path, 42, 64).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.recovery().valid_records, 1);
        assert!(store.recovery().corruption.is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn bad_header_resets_the_store() {
        let tmp = TempDir::new("header");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&record("A", 1, "a")).unwrap();
        }
        corrupt::bit_flip(&path, 2, 0).unwrap();
        let store = Store::open(&path).unwrap();
        let report = store.recovery();
        assert_eq!(
            report.corruption.as_ref().unwrap().kind,
            CorruptionKind::BadHeader
        );
        assert_eq!(report.valid_records, 0);
        assert!(store.is_empty());
        drop(store);
        // The reset store is a working empty store.
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean());
    }

    #[test]
    fn truncation_inside_header_resets() {
        let tmp = TempDir::new("shorthdr");
        let path = tmp.path("store.caj");
        {
            let mut store = Store::open(&path).unwrap();
            store.append(&record("A", 1, "a")).unwrap();
        }
        corrupt::truncate_at(&path, 5).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(
            store.recovery().corruption.as_ref().unwrap().kind,
            CorruptionKind::BadHeader
        );
        assert!(store.is_empty());
    }

    #[test]
    fn compact_collapses_duplicates_and_replays_clean() {
        let tmp = TempDir::new("compact");
        let path = tmp.path("store.caj");
        let mut store = Store::open(&path).unwrap();
        store.append(&record("X", 1, "old")).unwrap();
        store.append(&record("X", 2, "new")).unwrap();
        store.append(&record("Y", 3, "y")).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        store.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "{after} >= {before}");
        // The compacted store is still appendable with the same handle.
        store.append(&record("Z", 4, "z")).unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert!(store.recovery().is_clean());
        assert_eq!(store.recovery().valid_records, 3);
        assert_eq!(store.recovery().duplicates, 0);
        assert_eq!(store.get("X"), Some(&record("X", 2, "new")));
    }

    #[test]
    fn evicted_records_disappear_after_compaction() {
        let tmp = TempDir::new("evict");
        let path = tmp.path("store.caj");
        let mut store = Store::open(&path).unwrap();
        store.append(&record("STALE", 1, "old")).unwrap();
        store.append(&record("FRESH", 2, "new")).unwrap();
        assert!(store.evict("STALE"));
        assert!(!store.evict("STALE"), "second evict is a no-op");
        store.compact().unwrap();
        drop(store);
        let store = Store::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("STALE"), None);
    }

    fn payload(record: &Record) -> Vec<u8> {
        let mut out = Vec::new();
        record.encode_into(&mut out).unwrap();
        out
    }

    /// Every record shape, framed in place in a buffer sized by
    /// `len_bound`, is exactly `frame::encode` of its payload, and never
    /// outgrows the reservation.
    #[test]
    fn records_frame_in_place_as_encode_frames_them() {
        let quarantined = |reason: &str| Record {
            payload: Payload::Quarantined {
                phase: 3,
                retries: u32::MAX,
                reason: reason.to_string(),
            },
            ..record("Q", 9, "")
        };
        let samples = [
            record("A", 1, "CAM-A"),
            record("", 0, ""),
            record(&"N".repeat(300), u64::MAX, &"0 1\n".repeat(7_000)),
            Record {
                payload: Payload::Degraded {
                    cam: "degraded".to_string(),
                },
                ..record("D", 2, "")
            },
            quarantined(""),
            quarantined("lint: floating gate"),
        ];
        for record in &samples {
            let bound = frame::FRAME_HEADER_LEN + record.len_bound();
            let mut out = Vec::with_capacity(bound);
            record.append_frame(&mut out).unwrap();
            assert_eq!(out, frame::encode(&payload(record)), "{}", record.cell);
            assert!(out.len() <= bound, "{} outgrew its bound", record.cell);
        }
        // The journal and its compaction hold the same frames.
        let tmp = TempDir::new("in-place");
        let path = tmp.path("store.caj");
        let mut store = Store::open(&path).unwrap();
        let mut journal = MAGIC.to_vec();
        for record in &samples {
            store.append(record).unwrap();
            journal.extend_from_slice(&frame::encode(&payload(record)));
        }
        assert_eq!(std::fs::read(&path).unwrap(), journal);
        store.compact().unwrap();
        let mut snapshot = MAGIC.to_vec();
        for record in store.records().values() {
            snapshot.extend_from_slice(&frame::encode(&payload(record)));
        }
        assert_eq!(std::fs::read(&path).unwrap(), snapshot);
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut bytes = payload(&record("A", 1, "a"));
        bytes.push(0);
        assert!(Record::decode(&bytes).unwrap_err().contains("trailing"));
        let mut bytes = payload(&record("A", 1, "a"));
        bytes[0] = 9;
        assert!(Record::decode(&bytes).unwrap_err().contains("unknown"));
        assert!(Record::decode(&[]).is_err());
    }

    #[test]
    fn write_atomic_creates_and_replaces() {
        let tmp = TempDir::new("atomic");
        let path = tmp.path("out.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        // No tmp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn recovery_report_renders() {
        let clean = RecoveryReport {
            valid_records: 3,
            duplicates: 1,
            ..RecoveryReport::default()
        };
        assert!(clean.render().contains("clean"));
        let dirty = RecoveryReport {
            valid_records: 2,
            duplicates: 0,
            corruption: Some(CorruptionEvent {
                offset: 40,
                kind: CorruptionKind::CrcMismatch,
                detail: "stored 0x0, computed 0x1".into(),
            }),
            truncated_bytes: 17,
        };
        let text = dirty.render();
        assert!(text.contains("RECOVERED"), "{text}");
        assert!(text.contains("CRC mismatch at byte 40"), "{text}");
    }
}
