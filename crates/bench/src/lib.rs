//! Experiment harness shared by the `ca-bench` binary and the wall-clock
//! micro-benches.
//!
//! Every table and figure of the paper's evaluation has a regenerator
//! here; see `DESIGN.md` for the experiment index and `EXPERIMENTS.md`
//! for measured-vs-paper numbers.

// Workspace rule D6 (DESIGN.md §10): document every `unsafe` block.
// Every lint suppression states its reason.
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

pub mod corpus;
pub mod microbench;
pub mod packed_bench;
pub mod perf;
pub mod profiling;
pub mod report;
pub mod serve_bench;
pub mod shard_bench;
pub mod tables;
pub mod trace_cmd;

pub use corpus::{build_corpus, CorpusBuild, Profile, SkippedCell};
pub use report::Grid;
