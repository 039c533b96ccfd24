//! FNV-1a output digests and the values pinned for them.
//!
//! A digest covers a set of named documents sorted by name, so it does
//! not depend on processing order or thread count. The pins were taken
//! from the flows as they stand when the benchmark was defined; a change
//! that alters any pinned output fails every run until the pin is
//! deliberately updated.

use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of named documents: each name and body, length-prefixed, in
/// name order.
pub fn digest_docs(docs: &BTreeMap<String, String>) -> u64 {
    let mut h = Fnv::default();
    for (name, body) in docs {
        for part in [name.as_bytes(), body.as_bytes()] {
            h.write(&(part.len() as u64).to_le_bytes());
            h.write(part);
        }
    }
    h.finish()
}

/// `hybrid_quick`, any seed: every exported `.cam`.
pub const HYBRID_CAM: u64 = 0x6353_2c04_86f4_5d3e;
/// `hybrid_quick`, any seed: the route of every cell.
pub const HYBRID_ROUTES: u64 = 0x386c_328b_2f16_f724;
/// `hybrid_quick`, any seed: the `.cam` of the ML-routed (predicted) cells.
pub const HYBRID_PREDICTED: u64 = 0x8df5_3e17_7030_d505;
/// `charlib_full`, any seed: the cold export (equal to the resume export).
pub const CHARLIB_CAM: u64 = 0x7622_65c3_7690_c3ed;
/// `serve_c40`, any seed: the batch golden every served model must match.
pub const SERVE_GOLDEN: u64 = 0x6e00_d030_cac7_19db;

/// Checks a digest against its pin, naming the output on mismatch.
pub fn check(what: &str, got: u64, pinned: u64) -> Result<(), String> {
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "{what} digest {got:016x} differs from the pinned {pinned:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_core::{characterize_library_with, export_cam, CharCache, Executor};
    use ca_defects::GenerateOptions;
    use ca_netlist::{generate_library, LibraryConfig, Technology};

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn document_boundaries_matter() {
        let a: BTreeMap<String, String> = [("ab".into(), "c".into())].into();
        let b: BTreeMap<String, String> = [("a".into(), "bc".into())].into();
        assert_ne!(digest_docs(&a), digest_docs(&b));
    }

    #[test]
    fn export_digest_is_independent_of_order_and_threads() {
        let mut lib = generate_library(&LibraryConfig::quick(Technology::C40));
        lib.cells.truncate(6);
        let run = |lib: &ca_netlist::Library, threads: usize| {
            let (prepared, _) = characterize_library_with(
                lib,
                GenerateOptions::default(),
                &Executor::with_threads(threads),
                &CharCache::new(),
            )
            .expect("synthesized cells are valid");
            digest_docs(&export_cam(&prepared).into_iter().collect())
        };
        let forward = run(&lib, 1);
        lib.cells.reverse();
        assert_eq!(run(&lib, 2), forward);
        lib.cells.truncate(5);
        assert_ne!(run(&lib, 1), forward);
        assert!(check("export", forward, forward).is_ok());
        assert!(check("export", forward, forward ^ 1).is_err());
    }
}
