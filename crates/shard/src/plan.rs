//! Deterministic shard planning.
//!
//! A cell's shard is `fnv1a(cell_name) % shards` — a pure function of
//! the canonical cell key and the shard count. Nothing else enters:
//! not library order, not retry history, not which shard launched
//! first. A retried shard therefore re-receives exactly the cells it
//! had, and a merged campaign is comparable across runs cell-by-cell.

use ca_netlist::library::Library;

/// FNV-1a over a byte string (the workspace's standard cheap stable
/// hash; see `ca_core::session` for the framed variant).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The shard index of `cell_name` under `shards` shards.
pub fn shard_of(cell_name: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (fnv1a(cell_name.as_bytes()) % shards.max(1) as u64) as usize
}

/// A partition of library cell indices into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards[i]` holds the library indices of shard `i`'s cells, in
    /// library order. Shards may be empty.
    pub shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Partitions `library` into `shards` shards (at least 1).
    pub fn partition(library: &Library, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let mut plan = vec![Vec::new(); shards];
        for (i, lc) in library.cells.iter().enumerate() {
            #[expect(
                clippy::indexing_slicing,
                reason = "D9: shard_of reduces modulo `shards` == plan.len()"
            )]
            plan[shard_of(lc.cell.name(), shards)].push(i);
        }
        ShardPlan { shards: plan }
    }

    /// Number of non-empty shards.
    pub fn populated(&self) -> usize {
        self.shards.iter().filter(|s| !s.is_empty()).count()
    }

    /// The sub-library of shard `index` (cells cloned in library order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a shard of this plan or if `library` is
    /// not the library the plan partitioned.
    #[expect(
        clippy::indexing_slicing,
        reason = "D9: documented contract; `index` names a shard of this plan, whose entries index the library"
    )]
    pub fn shard_library(&self, library: &Library, index: usize) -> Library {
        Library {
            technology: library.technology,
            cells: self.shards[index]
                .iter()
                .map(|&i| library.cells[i].clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::Technology;

    #[test]
    fn assignment_is_stable_under_library_order() {
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        let mut reversed = lib.clone();
        reversed.cells.reverse();
        for shards in [1, 2, 3, 7] {
            for lc in &lib.cells {
                assert_eq!(
                    shard_of(lc.cell.name(), shards),
                    shard_of(lc.cell.name(), shards)
                );
            }
            let a = ShardPlan::partition(&lib, shards);
            let b = ShardPlan::partition(&reversed, shards);
            // Same cells per shard regardless of library order.
            for s in 0..shards {
                let names = |plan: &ShardPlan, lib: &Library| {
                    let mut v: Vec<String> = plan.shards[s]
                        .iter()
                        .map(|&i| lib.cells[i].cell.name().to_string())
                        .collect();
                    v.sort();
                    v
                };
                assert_eq!(names(&a, &lib), names(&b, &reversed), "shard {s}");
            }
        }
    }

    #[test]
    fn partition_covers_every_cell_exactly_once() {
        let lib = generate_library(&LibraryConfig::quick(Technology::Soi28));
        let plan = ShardPlan::partition(&lib, 4);
        let mut seen: Vec<usize> = plan.shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..lib.cells.len()).collect();
        assert_eq!(seen, expect);
        assert!(plan.populated() >= 2, "quick library spreads over shards");
    }

    #[test]
    fn shard_library_preserves_library_order() {
        let lib = generate_library(&LibraryConfig::quick(Technology::C40));
        let plan = ShardPlan::partition(&lib, 3);
        for s in 0..3 {
            let sub = plan.shard_library(&lib, s);
            let names: Vec<&str> = sub.cells.iter().map(|lc| lc.cell.name()).collect();
            let expect: Vec<&str> = plan.shards[s]
                .iter()
                .map(|&i| lib.cells[i].cell.name())
                .collect();
            assert_eq!(names, expect);
            assert_eq!(sub.technology, lib.technology);
        }
    }

    #[test]
    fn one_shard_is_the_whole_library() {
        let lib = generate_library(&LibraryConfig::quick(Technology::C28));
        let plan = ShardPlan::partition(&lib, 1);
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].len(), lib.cells.len());
    }
}
