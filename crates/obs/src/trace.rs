//! Spans and deterministic distributed tracing (DESIGN.md §9, §14).
//!
//! [`Span`] is the workspace's one span guard, opened by
//! [`span!`](crate::span!), [`span_keyed!`](crate::span_keyed!) or
//! [`root!`](crate::root!). It reads the clock when opened and again
//! when closed, and every span feeds two planes:
//!
//! - the metric registry: the elapsed time always lands in the timer
//!   named after the span, through a handle cached at the opening site
//!   (every opener names a span row of [`crate::inventory`], so the set
//!   of timers is bounded);
//! - the trace: when tracing is on and the span has a parent context
//!   (or is a root), it also emits one `span` event.
//!
//! Every campaign gets a trace id and every traced unit of work — a
//! serve request, a shard attempt, a session cell, a packed-sim batch —
//! gets a span id with an explicit parent, recorded as structured JSONL
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
//! - **Processes**: a [`TraceContext`] is three plain integers, so a
//!   process boundary carries it in whatever document already crosses
//!   it (`ca-shard` writes it into each worker's spec); the worker
//!   [`adopt`]s it at startup so its spans parent under the
//!   supervisor's shard-attempt span.
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
//! it with [`set_enabled`]); with it off a span costs its two clock
//! reads and the timer update, and touches no thread-local state.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::event::{event, Level, Mirror};
use crate::registry::Timer;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

/// Event-sink target of every trace event (spans and anchors).
pub const TARGET: &str = "ca_trace";

/// The keys a `span` event line carries of its own: the sink's (`seq`,
/// `ts_us`, `level`, `target`, `msg`), then the span's. Every other
/// member of the line is a field added with [`Span::field`], which
/// refuses these keys.
pub const SPAN_EVENT_KEYS: [&str; 11] = [
    "seq", "ts_us", "level", "target", "msg", "trace", "span", "parent", "name", "t0_us", "dur_us",
];

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

#[expect(
    clippy::disallowed_methods,
    reason = "D12: CA_TRACE switches tracing on"
)]
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
/// position, so a guard dropped out of LIFO order (a span stored in a
/// struct, or held across an early return past a younger sibling) can
/// never pop a sibling's frame.
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

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds on the process-local monotonic trace clock.
pub fn mono_us() -> u64 {
    micros(process_epoch().elapsed())
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
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

/// A live span: records its registry timer when closed and, when
/// traced, emits its `span` event and unwinds its frame. Open one with
/// [`span!`](crate::span!), [`span_keyed!`](crate::span_keyed!) or
/// [`root!`](crate::root!); close it by dropping it, or with
/// [`Span::finish`] when the caller needs the duration it recorded.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    /// `None` once the span has closed, so a finished span's drop
    /// records nothing a second time.
    timer: Option<Timer>,
    start: Instant,
    /// The trace side; `None` when tracing is off or the span found no
    /// parent context.
    traced: Option<Traced>,
}

#[derive(Debug)]
struct Traced {
    /// The context this span's children derive from.
    ctx: TraceContext,
    parent_id: u64,
    name: &'static str,
    token: u64,
    fields: Vec<(&'static str, String)>,
}

/// Where an opened span attaches in the trace. Chosen by the opener
/// macros, or by a test that opens an undeclared span with
/// [`Span::open`].
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    /// The next sequential child of the innermost context.
    Next,
    /// A child keyed explicitly, see [`span_keyed!`](crate::span_keyed!).
    Keyed(u64),
    /// A campaign root, see [`root!`](crate::root!).
    Root {
        fingerprint: u64,
        role: &'static str,
    },
}

impl Span {
    /// Opens a span recording into `timer`. The opener macros call this
    /// with a declared name and a handle cached at their site; code
    /// outside tests uses them instead.
    pub fn open(timer: &Timer, name: &'static str, placement: Placement) -> Span {
        let traced = enabled().then(|| Traced::place(name, placement)).flatten();
        Span {
            timer: Some(timer.clone()),
            start: Instant::now(),
            traced,
        }
    }

    /// The context children of this span derive from, if traced.
    pub fn context(&self) -> Option<TraceContext> {
        self.traced.as_ref().map(|t| t.ctx)
    }

    /// This span's trace id, if traced (diagnostics/tests).
    pub fn id(&self) -> Option<u64> {
        self.traced.as_ref().map(|t| t.ctx.span_id)
    }

    /// Adds a field to this span's trace event; a no-op when the span
    /// is not traced. `key` must not be one of [`SPAN_EVENT_KEYS`].
    pub fn field(&mut self, key: &'static str, value: &str) {
        debug_assert!(
            !SPAN_EVENT_KEYS.contains(&key),
            "span field `{key}` collides with a span event key"
        );
        if let Some(traced) = &mut self.traced {
            traced.fields.push((key, value.to_string()));
        }
    }

    /// Closes the span and returns the duration it recorded.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(timer) = self.timer.take() else {
            return Duration::ZERO;
        };
        let elapsed = self.start.elapsed();
        timer.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        if let Some(traced) = self.traced.take() {
            traced.emit(self.start, elapsed);
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

impl Traced {
    /// Derives the span's ids from `placement` and pushes its frame;
    /// `None` for a child span opened with no context on this thread.
    fn place(name: &'static str, placement: Placement) -> Option<Traced> {
        let (trace_id, span_id, parent_id) = match placement {
            Placement::Root { fingerprint, role } => {
                let trace_id = derive_trace_id(fingerprint, role);
                (trace_id, derive_root_span_id(trace_id, name), 0)
            }
            Placement::Next => {
                let (ctx, key) = FRAMES.with(|frames| {
                    let mut frames = frames.borrow_mut();
                    frames.last_mut().map(|top| {
                        let key = top.next_child;
                        top.next_child += 1;
                        (top.ctx, key)
                    })
                })?;
                (ctx.trace_id, ctx.child_id(name, key), ctx.span_id)
            }
            Placement::Keyed(key) => {
                let ctx = FRAMES.with(|frames| frames.borrow().last().map(|f| f.ctx))?;
                // Keyed ids live in a disjoint counter domain from
                // sequential ones: the key is offset into the top bit so
                // the two cannot collide for small counters (and the
                // tagged hash separates them regardless).
                let id = ctx.child_id(name, key | 1 << 63);
                (ctx.trace_id, id, ctx.span_id)
            }
        };
        // Start the trace clock no later than the span, so `t0_us` is
        // never clamped.
        process_epoch();
        let ctx = TraceContext {
            trace_id,
            span_id,
            child_seed: 0,
        };
        Some(Traced {
            ctx,
            parent_id,
            name,
            token: push_frame(ctx),
            fields: Vec::new(),
        })
    }

    fn emit(self, start: Instant, elapsed: Duration) {
        emit_anchor();
        let since_epoch = start.saturating_duration_since(process_epoch());
        let t0_us = micros(since_epoch);
        let dur = (micros(since_epoch + elapsed) - t0_us).to_string();
        let t0 = t0_us.to_string();
        let trace = format!("{:016x}", self.ctx.trace_id);
        let span = format!("{:016x}", self.ctx.span_id);
        let parent = format!("{:016x}", self.parent_id);
        let mut fields = vec![
            ("trace", trace.as_str()),
            ("span", span.as_str()),
            ("parent", parent.as_str()),
            ("name", self.name),
            ("t0_us", t0.as_str()),
            ("dur_us", dur.as_str()),
        ];
        fields.extend(self.fields.iter().map(|(k, v)| (*k, v.as_str())));
        event(Level::Info, TARGET, "span", &fields, Mirror::Never);
        pop_frame(self.token);
    }
}

/// Opens the span declared as `$name` in [`crate::inventory`], as the
/// next sequential child of this thread's innermost trace context.
/// Always records the registry timer `$name`; traced only when tracing
/// is on and a context is active, so instrumentation sites need no
/// enablement checks of their own.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::__open_span!($name, $crate::trace::Placement::Next)
    };
}

/// Like [`span!`](crate::span!), but the child is keyed explicitly (a
/// shard index, an attempt number) instead of by arrival order, so its
/// id is stable however siblings are scheduled. The key joins the name
/// in the derivation; reusing a (`$name`, `$key`) pair under one parent
/// collides.
#[macro_export]
macro_rules! span_keyed {
    ($name:literal, $key:expr) => {
        $crate::__open_span!($name, $crate::trace::Placement::Keyed($key))
    };
}

/// Opens a campaign root span: trace id from `$fingerprint` + `$role`
/// ([`derive_trace_id`](crate::trace::derive_trace_id)), span id from
/// the trace id + `$name`, parent `0`. Traced whenever tracing is on.
#[macro_export]
macro_rules! root {
    ($name:literal, $fingerprint:expr, $role:literal) => {
        $crate::__open_span!(
            $name,
            $crate::trace::Placement::Root {
                fingerprint: $fingerprint,
                role: $role,
            }
        )
    };
}

/// Shared body of the opener macros: resolves the span's row in
/// [`crate::inventory`] at compile time and caches the timer handle at
/// the call site, like [`counter!`](crate::counter!).
#[doc(hidden)]
#[macro_export]
macro_rules! __open_span {
    ($name:literal, $placement:expr) => {{
        const METRIC: &$crate::inventory::Metric = $crate::__declared!($name, "span");
        static SITE: std::sync::OnceLock<$crate::Timer> = std::sync::OnceLock::new();
        $crate::trace::Span::open(
            SITE.get_or_init(|| $crate::global().timer(METRIC.name)),
            METRIC.name,
            $placement,
        )
    }};
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
/// its spec, serve request from the wire). Spans opened under the guard
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collides with a span event key")]
    fn span_fields_cannot_shadow_event_keys() {
        let timer = crate::MetricRegistry::new().timer("obs_test.reserved_field");
        let mut span = Span::open(&timer, "obs_test.reserved_field", Placement::Next);
        span.field("name", "INV");
    }
}
