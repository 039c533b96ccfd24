//! Deterministic distributed tracing (DESIGN.md §14).
//!
//! Every campaign gets a trace id and every unit of work — a serve
//! request, a shard attempt, a session cell, a packed-sim batch — gets
//! a span id with an explicit parent, recorded as structured JSONL
//! events through the [`event`](crate::event()) sink (target
//! [`TARGET`]). Ids are *derived*, never drawn: FNV-1a over the trace
//! id, the parent span id, the span name and a per-parent sequence
//! counter (invariant D3 — no ambient randomness). Two runs of the
//! same campaign therefore produce the same span tree, byte for byte,
//! regardless of `CA_THREADS` — the property
//! `tests/trace_determinism.rs` enforces.
//!
//! Context crosses the boundaries we own three ways:
//!
//! - **Threads**: [`fork`] captures the calling thread's context and
//!   [`ForkPoint::adopt`] re-establishes it on a worker thread, keyed
//!   by the item index so sibling items derive disjoint — but
//!   schedule-independent — child ids (`ca-exec` does this for every
//!   mapped item).
//! - **Processes**: a [`TraceContext`] serializes to the
//!   `CA_SHARD_TRACE_ID` / `CA_SHARD_TRACE_SPAN` / `CA_SHARD_TRACE_SEED`
//!   env vars ([`ENV_TRACE_ID`] &c.); shard workers [`adopt`] it at
//!   startup so their spans parent under the supervisor's shard-attempt
//!   span.
//! - **Sockets**: the `ca-serve` wire protocol v2 carries the context
//!   in `Characterize` frames; the server adopts it per request.
//!
//! Clock alignment: span events carry `t0_us`/`dur_us` on a
//! process-local monotonic clock ([`mono_us`]). The first span each
//! process emits is preceded by one *anchor* event pairing that clock
//! with the sink's unix-epoch `ts_us`; the `ca-bench trace` stitcher
//! subtracts the pair to place every process on one global timeline.
//!
//! Tracing is off unless `CA_TRACE` is set truthy (or a harness forces
//! it with [`set_enabled`]); disabled spans are inert and cost one
//! atomic load.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::clock::Stopwatch;
use crate::event::{event, Level, Mirror};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Once, OnceLock};

/// Event-sink target of every trace event (spans and anchors).
pub const TARGET: &str = "ca_trace";

/// Env var carrying a propagated trace id (16 lowercase hex digits).
pub const ENV_TRACE_ID: &str = "CA_SHARD_TRACE_ID";
/// Env var carrying the parent span id.
pub const ENV_TRACE_SPAN: &str = "CA_SHARD_TRACE_SPAN";
/// Env var carrying the fork seed of the parent context.
pub const ENV_TRACE_SEED: &str = "CA_SHARD_TRACE_SEED";

// --- deterministic id derivation (FNV-1a 64) -------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Derivation-domain tags: distinct byte per derivation shape so a
/// sequential child, a keyed child and a fork seed can never collide
/// even from identical numeric inputs.
const TAG_TRACE: u8 = b'T';
const TAG_ROOT: u8 = b'R';
const TAG_CHILD: u8 = b'C';
const TAG_FORK: u8 = b'F';

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// The propagated form of a live trace position: enough to derive the
/// ids of any children created under it, in this thread or another
/// process. `child_seed` namespaces forked copies of the same parent
/// span so concurrent items derive disjoint child ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Campaign-wide trace id.
    pub trace_id: u64,
    /// Span id of the nearest enclosing span.
    pub span_id: u64,
    /// Fork namespace; `0` for an unforked context.
    pub child_seed: u64,
}

impl TraceContext {
    /// Derives the id of child number `key` named `name` under this
    /// context. Pure: same inputs, same id, on any thread or host.
    fn child_id(&self, name: &str, key: u64) -> u64 {
        let mut h = fnv_bytes(FNV_OFFSET, &[TAG_CHILD]);
        h = fnv_u64(h, self.trace_id);
        h = fnv_u64(h, self.span_id);
        h = fnv_u64(h, self.child_seed);
        h = fnv_u64(h, key);
        fnv_bytes(h, name.as_bytes())
    }
}

/// Derives a campaign trace id from a caller-supplied fingerprint
/// (e.g. a folded library fingerprint) and the role opening it.
pub fn derive_trace_id(fingerprint: u64, role: &str) -> u64 {
    let h = fnv_bytes(FNV_OFFSET, &[TAG_TRACE]);
    fnv_bytes(fnv_u64(h, fingerprint), role.as_bytes())
}

fn derive_root_span_id(trace_id: u64, name: &str) -> u64 {
    let h = fnv_bytes(FNV_OFFSET, &[TAG_ROOT]);
    fnv_bytes(fnv_u64(h, trace_id), name.as_bytes())
}

fn derive_fork_seed(ctx: &TraceContext, key: u64) -> u64 {
    let mut h = fnv_bytes(FNV_OFFSET, &[TAG_FORK]);
    h = fnv_u64(h, ctx.trace_id);
    h = fnv_u64(h, ctx.span_id);
    h = fnv_u64(h, ctx.child_seed);
    fnv_u64(h, key)
}

// --- enablement ------------------------------------------------------

/// Process-local override of the `CA_TRACE` switch:
/// 0 = none (read the environment), 1 = force on, 2 = force off.
static TRACE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| match std::env::var("CA_TRACE") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "off" || v == "false")
        }
        Err(_) => false,
    })
}

/// Programmatically forces tracing on/off (`Some`) or restores the
/// `CA_TRACE` environment switch (`None`). For benches and tests that
/// must pin one mode without mutating the process environment.
pub fn set_enabled(mode: Option<bool>) {
    let v = match mode {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    TRACE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Whether tracing is on. The environment value is read once per
/// process; [`set_enabled`] wins over it.
pub fn enabled() -> bool {
    match TRACE_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_enabled(),
    }
}

// --- thread-local context stack --------------------------------------

struct Frame {
    ctx: TraceContext,
    next_child: u64,
    token: u64,
}

thread_local! {
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static NEXT_TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(1) };
}

fn push_frame(ctx: TraceContext) -> u64 {
    let token = NEXT_TOKEN.with(|t| {
        let v = t.get();
        t.set(v + 1);
        v
    });
    FRAMES.with(|frames| {
        frames.borrow_mut().push(Frame {
            ctx,
            next_child: 0,
            token,
        })
    });
    token
}

/// Removes the frame with `token` wherever it sits — by identity, not
/// position, so a guard dropped out of LIFO order can never pop a
/// sibling's frame (the same hazard fixed in [`crate::span`]).
fn pop_frame(token: u64) {
    FRAMES.with(|frames| {
        let mut frames = frames.borrow_mut();
        if let Some(at) = frames.iter().rposition(|f| f.token == token) {
            frames.remove(at);
        }
    });
}

/// The calling thread's innermost trace context, if any.
pub fn current() -> Option<TraceContext> {
    if !enabled() {
        return None;
    }
    FRAMES.with(|frames| frames.borrow().last().map(|f| f.ctx))
}

// --- clock + anchor --------------------------------------------------

fn process_epoch() -> &'static Stopwatch {
    static EPOCH: OnceLock<Stopwatch> = OnceLock::new();
    EPOCH.get_or_init(Stopwatch::start)
}

/// Microseconds on the process-local monotonic trace clock.
pub fn mono_us() -> u64 {
    process_epoch().elapsed_ns() / 1_000
}

/// Emits this process's clock-anchor event (once; later calls no-op).
/// The sink stamps the line with unix-epoch `ts_us`; the `mono_us`
/// field is the same instant on the trace clock, so a stitcher can
/// place every event of this process on the epoch timeline.
pub fn emit_anchor() {
    static ANCHOR: Once = Once::new();
    ANCHOR.call_once(|| {
        let mono = mono_us().to_string();
        let pid = std::process::id().to_string();
        event(
            Level::Info,
            TARGET,
            "anchor",
            &[("mono_us", mono.as_str()), ("pid", pid.as_str())],
            Mirror::Never,
        );
    });
}

// --- spans -----------------------------------------------------------

/// A live trace span; emits one event and unwinds its frame on drop.
/// Inert (no event, no frame) when tracing is disabled or — for
/// [`span`] — when no context is active on the thread.
#[derive(Debug)]
pub struct TraceSpan {
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: String,
    t0_us: u64,
    token: u64,
}

impl TraceSpan {
    const DEAD: TraceSpan = TraceSpan { live: None };

    /// The context children of this span derive from, if live.
    pub fn context(&self) -> Option<TraceContext> {
        self.live.as_ref().map(|s| TraceContext {
            trace_id: s.trace_id,
            span_id: s.span_id,
            child_seed: 0,
        })
    }

    /// This span's id, if live (diagnostics/tests).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|s| s.span_id)
    }

    fn open(trace_id: u64, span_id: u64, parent_id: u64, name: &str) -> TraceSpan {
        let token = push_frame(TraceContext {
            trace_id,
            span_id,
            child_seed: 0,
        });
        TraceSpan {
            live: Some(LiveSpan {
                trace_id,
                span_id,
                parent_id,
                name: name.to_string(),
                t0_us: mono_us(),
                token,
            }),
        }
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        emit_anchor();
        let dur = mono_us().saturating_sub(live.t0_us).to_string();
        let t0 = live.t0_us.to_string();
        let trace = format!("{:016x}", live.trace_id);
        let span = format!("{:016x}", live.span_id);
        let parent = format!("{:016x}", live.parent_id);
        event(
            Level::Info,
            TARGET,
            "span",
            &[
                ("trace", trace.as_str()),
                ("span", span.as_str()),
                ("parent", parent.as_str()),
                ("name", live.name.as_str()),
                ("t0_us", t0.as_str()),
                ("dur_us", dur.as_str()),
            ],
            Mirror::Never,
        );
        pop_frame(live.token);
    }
}

/// Opens a campaign root span: trace id from `fingerprint` + `role`
/// ([`derive_trace_id`]), span id from the trace id + `name`, parent
/// `0`. Inert when tracing is off.
pub fn root(name: &str, fingerprint: u64, role: &str) -> TraceSpan {
    if !enabled() {
        return TraceSpan::DEAD;
    }
    let trace_id = derive_trace_id(fingerprint, role);
    let span_id = derive_root_span_id(trace_id, name);
    TraceSpan::open(trace_id, span_id, 0, name)
}

/// Opens the next sequential child span of the innermost context on
/// this thread. Inert when tracing is off or no context is active —
/// instrumentation sites need no enablement checks of their own.
pub fn span(name: &str) -> TraceSpan {
    if !enabled() {
        return TraceSpan::DEAD;
    }
    let Some((ctx, key)) = FRAMES.with(|frames| {
        let mut frames = frames.borrow_mut();
        frames.last_mut().map(|top| {
            let key = top.next_child;
            top.next_child += 1;
            (top.ctx, key)
        })
    }) else {
        return TraceSpan::DEAD;
    };
    let span_id = ctx.child_id(name, key);
    TraceSpan::open(ctx.trace_id, span_id, ctx.span_id, name)
}

/// Opens a child span keyed explicitly (a shard index, an attempt
/// number) instead of by arrival order, so its id is stable however
/// siblings are scheduled. The key joins the name in the derivation;
/// reusing a (`name`, `key`) pair under one parent collides.
pub fn span_keyed(name: &str, key: u64) -> TraceSpan {
    if !enabled() {
        return TraceSpan::DEAD;
    }
    let Some(ctx) = FRAMES.with(|frames| frames.borrow().last().map(|f| f.ctx)) else {
        return TraceSpan::DEAD;
    };
    // Keyed ids live in a disjoint counter domain from sequential ones:
    // the key is offset into the top bit so the two cannot collide for
    // small counters (and the tagged hash separates them regardless).
    let span_id = ctx.child_id(name, key | 1 << 63);
    TraceSpan::open(ctx.trace_id, span_id, ctx.span_id, name)
}

// --- adoption (threads and processes) --------------------------------

/// Frame guard for an adopted context; unwinds on drop.
#[derive(Debug)]
pub struct AdoptGuard {
    token: Option<u64>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            pop_frame(token);
        }
    }
}

/// Re-establishes `ctx` as the innermost context on this thread —
/// the receiving end of every propagation edge (worker process from
/// env, serve request from the wire). Spans opened under the guard
/// parent to `ctx.span_id`.
pub fn adopt(ctx: TraceContext) -> AdoptGuard {
    if !enabled() {
        return AdoptGuard { token: None };
    }
    AdoptGuard {
        token: Some(push_frame(ctx)),
    }
}

/// A captured context for crossing a thread boundary; see [`fork`].
#[derive(Debug, Clone, Copy)]
pub struct ForkPoint {
    ctx: TraceContext,
}

impl ForkPoint {
    /// Adopts the fork on the current thread for item `key`: children
    /// keep parenting to the forked span, but their ids are derived in
    /// a per-key namespace, so every item's spans are identical no
    /// matter which worker thread — or how many — ran it.
    pub fn adopt(&self, key: u64) -> AdoptGuard {
        adopt(TraceContext {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            child_seed: derive_fork_seed(&self.ctx, key),
        })
    }
}

/// Captures the calling thread's innermost context for adoption on
/// worker threads; `None` when tracing is off or no context is active.
pub fn fork() -> Option<ForkPoint> {
    current().map(|ctx| ForkPoint { ctx })
}

// --- env propagation -------------------------------------------------

/// Serializes a context to the `CA_SHARD_TRACE*` env pairs.
pub fn context_to_env(ctx: &TraceContext) -> Vec<(String, String)> {
    vec![
        (ENV_TRACE_ID.to_string(), format!("{:016x}", ctx.trace_id)),
        (ENV_TRACE_SPAN.to_string(), format!("{:016x}", ctx.span_id)),
        (
            ENV_TRACE_SEED.to_string(),
            format!("{:016x}", ctx.child_seed),
        ),
    ]
}

/// Parses one `CA_SHARD_TRACE*` value (16 hex digits, case-blind).
pub fn parse_id(raw: &str) -> Option<u64> {
    u64::from_str_radix(raw.trim(), 16).ok()
}

/// Reads a propagated context from the process environment; `None`
/// unless all three vars are present and parse.
pub fn context_from_env() -> Option<TraceContext> {
    let read = |var: &str| std::env::var(var).ok().and_then(|v| parse_id(&v));
    Some(TraceContext {
        trace_id: read(ENV_TRACE_ID)?,
        span_id: read(ENV_TRACE_SPAN)?,
        child_seed: read(ENV_TRACE_SEED)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace_id: u64, span_id: u64, child_seed: u64) -> TraceContext {
        TraceContext {
            trace_id,
            span_id,
            child_seed,
        }
    }

    #[test]
    fn derivation_is_pure_and_tag_separated() {
        assert_eq!(
            derive_trace_id(7, "supervisor"),
            derive_trace_id(7, "supervisor")
        );
        assert_ne!(
            derive_trace_id(7, "supervisor"),
            derive_trace_id(7, "worker")
        );
        assert_ne!(derive_trace_id(7, "x"), derive_root_span_id(7, "x"));
        let c = ctx(1, 2, 3);
        assert_eq!(c.child_id("cell", 0), c.child_id("cell", 0));
        assert_ne!(c.child_id("cell", 0), c.child_id("cell", 1));
        assert_ne!(c.child_id("cell", 0), c.child_id("lint", 0));
        // A fork seed never collides with a child id from the same inputs.
        assert_ne!(derive_fork_seed(&c, 0), c.child_id("", 0));
    }

    #[test]
    fn forked_items_derive_disjoint_but_stable_children() {
        let parent = ctx(11, 22, 0);
        let item3 = ctx(11, 22, derive_fork_seed(&parent, 3));
        let item4 = ctx(11, 22, derive_fork_seed(&parent, 4));
        // Same item: same ids, independent of which thread computes them.
        assert_eq!(item3.child_id("cell", 0), item3.child_id("cell", 0));
        // Sibling items: disjoint ids for identical local structure.
        assert_ne!(item3.child_id("cell", 0), item4.child_id("cell", 0));
        // Both still parent to the span they forked from.
        assert_eq!(item3.span_id, parent.span_id);
    }

    #[test]
    fn keyed_and_sequential_children_do_not_collide() {
        let c = ctx(5, 6, 0);
        // Keyed key 0 vs sequential counter 0, same name.
        assert_ne!(c.child_id("shard", 1 << 63), c.child_id("shard", 0));
    }

    #[test]
    fn env_round_trip_preserves_the_context() {
        let c = ctx(u64::MAX, 0x0123_4567_89ab_cdef, 1);
        let pairs = context_to_env(&c);
        assert_eq!(pairs.len(), 3);
        let decoded = ctx(
            parse_id(&pairs[0].1).unwrap(),
            parse_id(&pairs[1].1).unwrap(),
            parse_id(&pairs[2].1).unwrap(),
        );
        assert_eq!(decoded, c);
        assert_eq!(parse_id("zz"), None);
    }

    #[test]
    fn stack_adopt_and_fork_compose_without_enablement_leaks() {
        // Forced off: everything is inert.
        set_enabled(Some(false));
        assert!(current().is_none());
        assert!(span("dead").id().is_none());

        set_enabled(Some(true));
        let c = ctx(9, 10, 0);
        {
            let _g = adopt(c);
            assert_eq!(current(), Some(c));
            let fork = fork().expect("context is live");
            {
                let _item = fork.adopt(2);
                let inner = current().expect("forked context is live");
                assert_eq!(inner.span_id, c.span_id);
                assert_ne!(inner.child_seed, 0);
            }
            assert_eq!(current(), Some(c));
        }
        assert!(current().is_none());
        set_enabled(None);
    }

    #[test]
    fn guards_dropped_out_of_order_pop_by_identity() {
        set_enabled(Some(true));
        let outer = adopt(ctx(1, 100, 0));
        let inner = adopt(ctx(1, 200, 0));
        // Dropping the *outer* guard first must not evict the inner frame.
        drop(outer);
        assert_eq!(current().map(|c| c.span_id), Some(200));
        drop(inner);
        assert!(current().is_none());
        set_enabled(None);
    }
}
