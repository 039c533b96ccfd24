//! `ca-shard` — fault-tolerant sharded multi-process characterization.
//!
//! A long characterization campaign makes worker failure the common
//! case, not the exception: a process is OOM-killed mid-library, a
//! pathological cell hangs a solver, a container loses its spawn
//! permissions. This crate turns the single-process durable session of
//! `ca-core` into a supervised multi-process campaign (DESIGN.md §11):
//!
//! 1. **Plan** ([`plan`]): the library is partitioned into shards by a
//!    stable FNV-1a hash of the canonical cell key (the cell name), so
//!    a cell's shard assignment never depends on library order, retry
//!    history or shard launch order.
//! 2. **Ship** ([`spec`]): before each attempt the supervisor writes
//!    one text document — journal path, beat interval, options, budget,
//!    policy, trace context, test hooks and the shard's cells — and
//!    names it in the worker's only variable, `CA_SHARD_SPEC`. The
//!    cells round-trip the exact netlist model (explicit net kinds,
//!    exact net/transistor order), so even deliberately broken cells
//!    (the robustness pipeline's whole point) arrive at the worker
//!    bit-for-bit. Cells that cannot round-trip are held back and
//!    characterized in-process.
//! 3. **Work** ([`worker`]): each worker process runs the crash-safe
//!    robust session driver against a *private* `.caj` journal and
//!    proves liveness by writing a `CA-SHARD-BEAT` line to its stdout
//!    every quarter of the heartbeat timeout.
//! 4. **Supervise** ([`supervisor`]): the supervisor holds the other
//!    end of each worker's stdout pipe and blocks on it: any output is
//!    a beat, a closed pipe an exit. A crashed (SIGKILL/abort), hung
//!    (silent for the heartbeat timeout → SIGKILL) or failing (nonzero
//!    exit) worker gets its shard retried under a deterministic capped
//!    [`ca_obs::Backoff`]; a shard that exhausts retries is quarantined
//!    with a structured report instead of failing the campaign; if
//!    process spawning itself is unavailable the shard degrades to
//!    in-process execution with a loud event.
//! 5. **Merge** ([`merge`]): all shard journals are replayed through
//!    `ca-store` torn-tail recovery and folded — order-independently,
//!    last conflict resolved by a total record order — into one store,
//!    and a final in-process session pass over the merged store yields
//!    `.cam` exports byte-identical to the unsharded single-process
//!    run, regardless of shard count, kill points or retry history.
//!
//! The byte-identity claim is not aspirational: `tests/shard_merge.rs`
//! shuffles/duplicates/damages shard journals and
//! `tests/shard_supervision.rs` crashes real worker processes at
//! deterministic journal append points, both asserting convergence to
//! the single-process golden output.

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
// Workspace rule D9: supervision code runs unattended for hours; a
// stray unwrap or unchecked index here kills a campaign instead of
// retrying a shard.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod merge;
pub mod plan;
pub mod spec;
pub mod supervisor;
pub mod worker;

pub use merge::{merge_shard_stores, MergeReport};
pub use plan::{shard_of, ShardPlan};
pub use spec::{round_trips, HookAction, TestHook, WorkerSpec};
pub use supervisor::{
    run_campaign, AttemptOutcome, CampaignConfig, CampaignOutcome, CampaignReport, ShardError,
    ShardReport, ShardStatus, Spawner,
};
