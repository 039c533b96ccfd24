//! The span guard against the process-wide trace switch and event sink
//! (DESIGN.md §9, §14): every span records its registry timer, and a
//! traced one also emits its `span` event and keeps the thread's
//! context stack in order.
//!
//! ONE test function only: `set_enabled` flips tracing for the whole
//! process and span events land in the global sink, so a sibling test
//! running concurrently in this binary could flip the switch between
//! another's open and its assertion, or interleave its events.

use ca_obs::trace::{self, Placement, TraceContext};
use ca_obs::{JsonValue, Span, TimerSnapshot};
use std::time::Duration;

/// Opens a test-only span, which has no row in the metric inventory.
fn test_span(name: &'static str, placement: Placement) -> Span {
    Span::open(&ca_obs::global().timer(name), name, placement)
}

fn ctx(trace_id: u64, span_id: u64) -> TraceContext {
    TraceContext {
        trace_id,
        span_id,
        child_seed: 0,
    }
}

/// The `span` trace events buffered since the last call.
fn drained_spans() -> Vec<JsonValue> {
    ca_obs::drain_events()
        .iter()
        .map(|line| ca_obs::parse_json(line).expect("event line parses"))
        .filter(|doc| {
            doc.get("target").and_then(JsonValue::as_str) == Some(trace::TARGET)
                && doc.get("msg").and_then(JsonValue::as_str) == Some("span")
        })
        .collect()
}

fn field<'a>(doc: &'a JsonValue, key: &str) -> &'a str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or_default()
}

fn hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Timer growth since `before`, by name.
fn timer_delta(before: &ca_obs::Snapshot, name: &str) -> TimerSnapshot {
    ca_obs::global()
        .snapshot()
        .delta(before)
        .timers
        .get(name)
        .copied()
        .unwrap_or_default()
}

#[test]
fn spans_record_timers_and_trace_only_when_enabled() {
    // Tracing off: the span is timed, but emits nothing and pushes no
    // frame, and adoption is inert.
    trace::set_enabled(Some(false));
    let _ = ca_obs::drain_events();
    let before = ca_obs::global().snapshot();
    {
        let _adopted = trace::adopt(ctx(9, 10));
        let off = test_span("obs_test.off", Placement::Next);
        assert!(off.id().is_none());
        assert!(trace::current().is_none());
        std::thread::sleep(Duration::from_millis(1));
    }
    let off = timer_delta(&before, "obs_test.off");
    assert_eq!(off.count, 1);
    assert!(off.total_ns >= 1_000_000, "slept >= 1ms: {off:?}");
    assert!(drained_spans().is_empty(), "an untraced span emits nothing");

    // Tracing on, under a root: the child records its timer — the same
    // duration `finish` returns — and emits exactly one event, parented
    // to the root and carrying its field.
    trace::set_enabled(Some(true));
    let before = ca_obs::global().snapshot();
    let (root_id, child_id, recorded) = {
        let root = test_span(
            "obs_test.root",
            Placement::Root {
                fingerprint: 7,
                role: "test",
            },
        );
        let root_id = root.id().expect("a root is traced when tracing is on");
        let mut child = test_span("obs_test.child", Placement::Next);
        child.field("cell", "INV");
        let child_id = child.id().expect("traced under the root");
        assert_eq!(trace::current().map(|c| c.span_id), Some(child_id));
        let recorded = child.finish();
        assert_eq!(trace::current().map(|c| c.span_id), Some(root_id));
        (root_id, child_id, recorded)
    };
    assert!(trace::current().is_none());
    let child = timer_delta(&before, "obs_test.child");
    assert_eq!(child.count, 1);
    assert_eq!(u128::from(child.total_ns), recorded.as_nanos());
    assert_eq!(timer_delta(&before, "obs_test.root").count, 1);
    let spans = drained_spans();
    let children: Vec<_> = spans
        .iter()
        .filter(|s| field(s, "name") == "obs_test.child")
        .collect();
    assert_eq!(children.len(), 1, "one event per span: {spans:?}");
    assert_eq!(field(children[0], "span"), hex(child_id));
    assert_eq!(field(children[0], "parent"), hex(root_id));
    assert_eq!(field(children[0], "cell"), "INV");
    let root = spans
        .iter()
        .find(|s| field(s, "name") == "obs_test.root")
        .expect("root event");
    assert_eq!(field(root, "parent"), hex(0));

    // Forks parent to the forked span in a per-item namespace.
    let c = ctx(9, 10);
    {
        let _adopted = trace::adopt(c);
        assert_eq!(trace::current(), Some(c));
        let fork = trace::fork().expect("context is live");
        {
            let _item = fork.adopt(2);
            let inner = trace::current().expect("forked context is live");
            assert_eq!(inner.span_id, c.span_id);
            assert_ne!(inner.child_seed, 0);
        }
        assert_eq!(trace::current(), Some(c));
    }
    assert!(trace::current().is_none());

    // Guards dropped out of LIFO order pop by identity: dropping the
    // outer frame first leaves the inner span's frame on top, so a span
    // opened now parents under it. Timer names stay flat either way.
    let before = ca_obs::global().snapshot();
    let outer = trace::adopt(ctx(1, 100));
    let inner = test_span("obs_test.inner", Placement::Next);
    let inner_id = inner.id().expect("traced under the adopted context");
    drop(outer);
    assert_eq!(trace::current().map(|c| c.span_id), Some(inner_id));
    let late = test_span("obs_test.late", Placement::Next);
    let late_id = late.id().expect("traced under the inner span");
    drop(inner);
    assert_eq!(trace::current().map(|c| c.span_id), Some(late_id));
    drop(late);
    assert!(trace::current().is_none());
    let spans = drained_spans();
    let late = spans
        .iter()
        .find(|s| field(s, "name") == "obs_test.late")
        .expect("late event");
    assert_eq!(field(late, "parent"), hex(inner_id));
    assert_eq!(timer_delta(&before, "obs_test.late").count, 1);
    let timers = ca_obs::global().snapshot().timers;
    assert!(timers.keys().all(|name| !name.contains('/')), "{timers:?}");

    trace::set_enabled(None);
}
