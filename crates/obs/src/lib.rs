//! `ca-obs` — dependency-light observability for the cell-aware stack.
//!
//! One crate, four pieces (DESIGN.md §9, §14):
//!
//! - [`MetricRegistry`]: thread-safe counters, gauges, fixed-bucket
//!   histograms and timers, each counter tagged with a [`MetricClass`]
//!   stating its determinism contract (`outcome` / `work` / `ops`). The
//!   hot path is a single relaxed atomic op via site-cached handles
//!   ([`counter!`] / [`histogram!`] / [`timer!`]), cheap enough to stay
//!   always-on. Timings are always reported apart from counts and never
//!   enter determinism checks.
//! - [`Span`], opened by [`span!`], [`span_keyed!`] or [`root!`]: the
//!   one RAII span guard. It always records the registry timer named
//!   after it and, when tracing is on, also emits its [`trace`] event —
//!   deterministic distributed tracing with campaign trace ids,
//!   parent-linked spans with FNV-derived ids, and context propagation
//!   across threads (`ca-exec`), processes (the ca-shard worker spec) and
//!   sockets (ca-serve wire v2), stitched by `ca-bench trace` into a
//!   Chrome/Perfetto `trace_event` timeline.
//! - A structured JSONL event sink ([`event()`], [`warn`],
//!   [`info_status`], [`flush`]) controlled by `CA_OBS` /
//!   `CA_OBS_PATH`, replacing ad-hoc `eprintln!`s; warn/error events
//!   mirror to stderr so default behavior is unchanged, and flushes go
//!   through `ca_store::write_atomic` so the log file is never torn.
//! - [`FlowProfile`]: per-stage registry snapshots + wall/CPU clocks,
//!   rendered as `BENCH_profile.json` (schema `ca-obs-profile/1`, see
//!   [`validate_profile_json`]) and a human-readable table.
//!
//! Plus two cross-cutting helpers: [`clock`] is the workspace's only
//! door to wall time (and hosts the pure [`Backoff`] retry schedule),
//! and [`emit_recovery`] turns `ca_store` journal-recovery reports into
//! structured events wherever a store is opened.
//!
//! The determinism invariant the whole design serves: every `outcome`
//! and `work` counter is byte-identical across `CA_THREADS` settings,
//! and `outcome` counters additionally survive a crash-resume cycle
//! unchanged. `tests/obs_determinism.rs` and the crash-recovery
//! harness enforce this.

// Workspace rule D6 (DESIGN.md §10): document every `unsafe` block.
// Every lint suppression states its reason.
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

pub mod clock;
pub mod event;
pub mod json;
pub mod profile;
pub mod recovery;
pub mod registry;
pub mod trace;

pub use clock::{Backoff, Deadline, Stopwatch};
pub use event::{
    buffered_events, drain_events, event, flush, flush_to, info, info_status, protocol_marker,
    warn, Level, Mirror,
};
pub use json::{escape_json, parse as parse_json, JsonValue};
pub use profile::{
    cpu_time_s, validate_profile_json, validate_profile_json_with, FlowProfile, StageProfile,
    INSTRUMENTED_PREFIXES, PROFILE_SCHEMA,
};
pub use recovery::emit_recovery;
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricClass, MetricRegistry, Snapshot,
    Timer, TimerSnapshot,
};
pub use trace::Span;
