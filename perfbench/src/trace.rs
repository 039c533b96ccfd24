//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer;
//! nothing inside the program is instrumented. A span's layer is its
//! name up to the first `.` (`ml.train` belongs to `ml`). Spans stay in
//! memory and are written out once, as Chrome/Perfetto `trace_event`
//! JSON, when the benchmark ends. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as a parent link.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The workload iteration (or request stream) the span belongs to.
    pub run: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the tracer's creation to `at`: the time base of
    /// recorded spans and of the iteration windows they are judged in.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; `None` when the tracer is disabled.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        run: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let rec = SpanRec {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            run,
        };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        spans.push(rec);
        Some(spans.len() - 1)
    }

    /// Opens a span that ends when the guard drops. Children opened
    /// while it is live link to [`Open::id`].
    pub fn open(&self, name: &str, parent: Option<SpanId>, run: u64) -> Open<'_> {
        let id = self.record(name, Instant::now(), Instant::now(), parent, run);
        Open { tracer: self, id }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _span = self.open(name, parent, run);
        f()
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// A live span; sets its end time on drop.
#[derive(Debug)]
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
}

impl Open<'_> {
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.tracer.ns(Instant::now());
        if let Ok(mut spans) = self.tracer.spans.lock() {
            if let Some(span) = spans.get_mut(id) {
                span.end_ns = end;
            }
        }
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Self time per layer, seconds: each span's duration minus the part of
/// it that its children cover, summed by layer.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let own = span.end_ns.saturating_sub(span.start_ns);
        let covered = children.get_mut(&id).map_or(0, |c| covered_ns(c));
        let layer = span.name.split('.').next().unwrap_or("").to_string();
        *out.entry(layer).or_default() += own.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Share of a window left uncovered by top-level spans (`parent ==
/// None`) that fall inside it.
pub fn dark_fraction(spans: &[SpanRec], window: (u64, u64)) -> f64 {
    let (lo, hi) = window;
    if hi <= lo {
        return 0.0;
    }
    let mut tops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns.max(lo), s.end_ns.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    1.0 - covered_ns(&mut tops) as f64 / (hi - lo) as f64
}

/// Chrome/Perfetto `trace_event` document of every span.
pub fn to_chrome_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{id},\"parent\":{parent},\"run\":{}}}}}",
            ca_obs::escape_json(&span.name),
            span.run,
            span.start_ns as f64 / 1e3,
            span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            span.run
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn rec(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> SpanRec {
        SpanRec {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(covered_ns(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            rec("core.run", 0, 100, None),
            rec("ml.fit", 10, 50, Some(0)),
            rec("ml.fit", 40, 60, Some(0)),
            rec("sim.solve", 70, 80, Some(0)),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert!((by_layer["core"] - 40e-9).abs() < 1e-15);
        assert!((by_layer["ml"] - 60e-9).abs() < 1e-15);
        assert!((by_layer["sim"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn dark_fraction_counts_gaps_between_top_spans() {
        let spans = vec![
            rec("a.x", 0, 40, None),
            rec("a.y", 50, 100, None),
            rec("b.z", 10, 20, Some(0)),
        ];
        assert!((dark_fraction(&spans, (0, 100)) - 0.1).abs() < 1e-12);
        assert_eq!(dark_fraction(&spans, (5, 5)), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.time("a.b", None, 0, || 7), 7);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        {
            let outer = on.open("a.outer", None, 3);
            std::thread::sleep(Duration::from_millis(2));
            on.time("b.inner", outer.id(), 3, || ());
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[0].end_ns - spans[0].start_ns >= 2_000_000);
        let json = to_chrome_json(&spans);
        assert!(json.contains("\"name\":\"a.outer\"") && json.contains("\"parent\":0"));
        assert!(ca_obs::parse_json(&json).is_ok(), "{json}");
    }
}
