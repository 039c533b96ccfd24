//! Seeded violations: one per rule the workspace hands to clippy
//! (DESIGN.md §10). `scripts/ci.sh` runs
//! `cargo clippy --manifest-path lint-fixtures/Cargo.toml -- -D warnings`
//! and fails if clippy passes or if any entry below does not fire: a
//! rule that stops firing here has stopped guarding the workspace.
//!
//! The crate-root attributes are the ones every workspace library
//! carries; the `disallowed_*` entries come from the root `clippy.toml`.

#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

/// D1: a hash-ordered map.
pub fn d1_hash_map() -> std::collections::HashMap<u8, u8> {
    Default::default()
}

/// D1: a hash-ordered set.
pub fn d1_hash_set() -> std::collections::HashSet<u8> {
    Default::default()
}

/// D2: the monotonic clock.
pub fn d2_instant() -> std::time::Instant {
    std::time::Instant::now()
}

/// D2: the wall clock.
pub fn d2_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// D3: ambient randomness.
pub fn d3_random_state() -> std::hash::RandomState {
    Default::default()
}

/// D4: an open-for-write handle.
pub fn d4_open_options() -> std::fs::OpenOptions {
    std::fs::OpenOptions::new()
}

/// D4: a raw whole-file write.
pub fn d4_write() -> std::io::Result<()> {
    std::fs::write("lint-fixture.out", b"x")
}

/// D4: a raw file creation.
pub fn d4_create() -> std::io::Result<std::fs::File> {
    std::fs::File::create("lint-fixture.out")
}

/// D13: mutating the process environment.
pub fn d13_set_var() {
    std::env::set_var("LINT_FIXTURE", "1");
}

/// D5: stdout.
pub fn d5_println() {
    println!("seeded");
}

/// D5: stderr.
pub fn d5_eprintln() {
    eprintln!("seeded");
}

/// D5: a leftover debugging macro.
pub fn d5_dbg(x: u8) -> u8 {
    dbg!(x)
}

/// D6: an `unsafe` block with no safety comment.
pub fn d6_unsafe() -> &'static str {
    unsafe { std::str::from_utf8_unchecked(b"seeded") }
}

/// D9: an unwrap.
pub fn d9_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// D9: an expect.
pub fn d9_expect(x: Option<u8>) -> u8 {
    x.expect("seeded")
}

/// D9: an unchecked index.
pub fn d9_index(xs: &[u8]) -> u8 {
    xs[0]
}

/// A0: a suppression with no reason.
#[expect(clippy::needless_return)]
pub fn a0_no_reason() -> u8 {
    return 1;
}

/// A1: a suppression that suppresses nothing.
#[expect(clippy::needless_return, reason = "seeded: nothing here returns")]
pub fn a1_unfulfilled() -> u8 {
    1
}
