//! Deterministic store-corruption helpers for fault-injection tests.
//!
//! The mirror image of `ca_netlist::corrupt`, one layer down: where that
//! module damages *netlists* to exercise the robust characterization
//! pipeline, this one damages the *journal file* to exercise
//! [`Store::open`](crate::Store::open)'s recovery path. All helpers are
//! deterministic (seeded where randomness is involved) so failing tests
//! reproduce exactly.

use ca_rng::SplitMix64;
#[expect(
    clippy::disallowed_types,
    reason = "D4: importing the raw-write primitive the harness wraps"
)]
use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Truncates the file to `len` bytes (a crash that lost the tail).
///
/// # Errors
///
/// I/O failures opening or truncating the file.
pub fn truncate_at(path: impl AsRef<Path>, len: u64) -> io::Result<()> {
    #[expect(clippy::disallowed_types, reason = "D4: deliberate corruption harness")]
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)
}

/// Flips bit `bit` (0..8) of the byte at `offset` (media bit rot).
///
/// # Errors
///
/// I/O failures, or an offset past the end of the file.
pub fn bit_flip(path: impl AsRef<Path>, offset: u64, bit: u8) -> io::Result<()> {
    #[expect(clippy::disallowed_types, reason = "D4: deliberate corruption harness")]
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.seek(SeekFrom::Start(offset))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    byte[0] ^= 1 << (bit % 8);
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&byte)
}

/// Appends `count` pseudo-random bytes drawn from `seed` (a foreign
/// writer, or a crash that flushed unrelated buffers into the journal).
///
/// # Errors
///
/// I/O failures opening or writing the file.
pub fn garbage_append(path: impl AsRef<Path>, seed: u64, count: usize) -> io::Result<()> {
    let mut rng = SplitMix64::new(seed);
    let bytes: Vec<u8> = (0..count).map(|_| rng.next_u64() as u8).collect();
    #[expect(clippy::disallowed_types, reason = "D4: deliberate corruption harness")]
    let mut file = OpenOptions::new().append(true).open(path)?;
    file.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_do_what_they_say() {
        let dir = std::env::temp_dir().join(format!("ca-store-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim");
        #[expect(
            clippy::disallowed_methods,
            reason = "D4: deliberate corruption harness"
        )]
        std::fs::write(&path, [0u8; 16]).unwrap();
        truncate_at(&path, 10).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 10);
        bit_flip(&path, 3, 1).unwrap();
        assert_eq!(std::fs::read(&path).unwrap()[3], 0b10);
        garbage_append(&path, 7, 6).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 16);
        // Deterministic: same seed, same garbage.
        let mut rng = SplitMix64::new(7);
        let expected: Vec<u8> = (0..6).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(&bytes[10..], &expected[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
