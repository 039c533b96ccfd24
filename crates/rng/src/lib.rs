//! Tiny deterministic PRNGs shared by the workspace.
//!
//! The workspace needs *reproducible* randomness (library synthesis,
//! forest bagging, fuzz loops) but not cryptographic quality, and it must
//! build with zero network access — so instead of the external `rand`
//! crate we carry the two classic generators in-tree:
//!
//! - [`SplitMix64`] — the 64-bit mixer from Steele/Lea/Flood, used both as
//!   a stand-alone stream and to seed the main generator;
//! - [`Xoshiro256StarStar`] — Blackman/Vigna's general-purpose generator,
//!   the same algorithm `rand`'s `StdRng`-class generators are built on.
//!
//! Both are seeded explicitly; the same seed always yields the same
//! stream, on every platform.

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

/// The SplitMix64 generator: one 64-bit word of state, invertible output
/// mixing. Ideal for seeding and for cheap inline streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator (Blackman & Vigna, 2018).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the full 256-bit state from `seed` via SplitMix64, as the
    /// reference implementation recommends.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256StarStar {
        let mut mix = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The operations the workspace actually uses, implemented for both
/// generators.
pub trait Rng {
    /// Next raw 64-bit value.
    fn gen_u64(&mut self) -> u64;

    /// Uniform index in `0..n`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is
    /// negligible for the `n` values used here (≤ millions).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_index requires a non-empty range");
        (((self.gen_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `bool`.
    fn gen_bool(&mut self) -> bool {
        self.gen_u64() & 1 == 1
    }

    /// In-place Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }
}

impl Rng for SplitMix64 {
    fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }
}

impl Rng for Xoshiro256StarStar {
    fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the published
        // splitmix64.c test harness.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn xoshiro_is_deterministic_and_distinct_per_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        let mut c = Xoshiro256StarStar::seed_from_u64(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_index_stays_in_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(rng.gen_index(n) < n);
            }
        }
    }

    #[test]
    fn gen_index_covers_all_buckets() {
        let mut rng = SplitMix64::new(99);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_index(8)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "shuffle of 50 items should move something");
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn gen_index_rejects_zero() {
        let mut rng = SplitMix64::new(0);
        let _ = rng.gen_index(0);
    }
}
