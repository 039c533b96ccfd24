//! Thread-safe metric registry: counters, gauges and fixed-bucket
//! histograms, each tagged with a [`MetricClass`] that states its
//! determinism contract (see DESIGN.md §9).
//!
//! The hot path is one relaxed atomic op: call sites cache their
//! [`Counter`] handle in a `OnceLock` (the [`crate::counter!`] macro
//! does this), so the registry's interior mutex is only taken at first
//! touch and at snapshot time. The macros take their names, classes and
//! bounds from [`crate::inventory`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::json::JsonWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Determinism contract of a count metric. Timings (spans, histograms
/// of durations) sit outside this taxonomy: they are never part of any
/// determinism check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// Derivable from the converged outputs: byte-identical across
    /// `CA_THREADS` settings *and* across a crash-resume cycle.
    Outcome,
    /// Work actually performed this process: byte-identical across
    /// `CA_THREADS` settings for the same starting state, but a
    /// resumed run legitimately does less of it (that saving is the
    /// point of the session store).
    Work,
    /// Operational/scheduling telemetry (worker counts, steals, queue
    /// depths): no determinism promise at all.
    Ops,
}

impl MetricClass {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Outcome => "outcome",
            MetricClass::Work => "work",
            MetricClass::Ops => "ops",
        }
    }
}

/// Cheap cloneable handle to a monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Cheap cloneable handle to a last-value-wins gauge.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram: cumulative-style observation counts per
/// upper bound, plus sum and count. Bounds are fixed at registration,
/// so observing is bucket search + two relaxed adds.
#[derive(Debug)]
pub struct HistogramInner {
    bounds: &'static [u64],
    /// One slot per bound plus a final overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Cheap cloneable handle to a fixed-bucket histogram.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    pub fn observe(&self, value: u64) {
        let inner = &self.0;
        let slot = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[slot].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// Aggregated span timings for one name: call count, total and max
/// elapsed nanoseconds. Always reported separately from counts and
/// excluded from determinism checks.
#[derive(Debug, Default)]
pub struct TimerInner {
    pub count: AtomicU64,
    pub total_ns: AtomicU64,
    pub max_ns: AtomicU64,
}

/// Cheap cloneable handle to a span-timing aggregate.
#[derive(Debug, Clone)]
pub struct Timer(pub(crate) Arc<TimerInner>);

impl Timer {
    pub fn record_ns(&self, ns: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Tables {
    counters: BTreeMap<String, (MetricClass, Arc<AtomicU64>)>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, (MetricClass, Arc<HistogramInner>)>,
    timers: BTreeMap<String, Arc<TimerInner>>,
}

/// Thread-safe registry of named metrics. One global instance (see
/// [`global`]) serves the whole process; tests may build private ones.
#[derive(Default)]
pub struct MetricRegistry {
    tables: Mutex<Tables>,
}

/// Relocks a poisoned registry: metrics are plain atomics, so the worst
/// a panicking thread leaves behind is a half-registered name, which is
/// still structurally sound.
fn lock_recover(m: &Mutex<Tables>) -> MutexGuard<'_, Tables> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl MetricRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter `name`, creating it with `class` on first
    /// use. The class is fixed by the first registration; later calls
    /// keep it (classes are part of the metric's published contract,
    /// and flip-flopping them would corrupt profile sections).
    pub fn counter(&self, name: &str, class: MetricClass) -> Counter {
        let mut t = lock_recover(&self.tables);
        let (_, cell) = t
            .counters
            .entry(name.to_string())
            .or_insert_with(|| (class, Arc::new(AtomicU64::new(0))));
        Counter(Arc::clone(cell))
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        let mut t = lock_recover(&self.tables);
        let cell = t
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// Returns the histogram `name`, creating it with the given static
    /// bucket upper bounds on first use.
    pub fn histogram(&self, name: &str, class: MetricClass, bounds: &'static [u64]) -> Histogram {
        let mut t = lock_recover(&self.tables);
        let (_, cell) = t.histograms.entry(name.to_string()).or_insert_with(|| {
            (
                class,
                Arc::new(HistogramInner {
                    bounds,
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }),
            )
        });
        Histogram(Arc::clone(cell))
    }

    pub fn timer(&self, name: &str) -> Timer {
        let mut t = lock_recover(&self.tables);
        let cell = t
            .timers
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(TimerInner::default()));
        Timer(Arc::clone(cell))
    }

    /// Point-in-time copy of every metric. Counters/histograms/timers
    /// are cumulative, so two snapshots [`Snapshot::delta`] into a
    /// per-stage view.
    pub fn snapshot(&self) -> Snapshot {
        let t = lock_recover(&self.tables);
        Snapshot {
            counters: t
                .counters
                .iter()
                .map(|(k, (class, v))| (k.clone(), (*class, v.load(Ordering::Relaxed))))
                .collect(),
            gauges: t
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: t
                .histograms
                .iter()
                .map(|(k, (class, h))| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            class: *class,
                            bounds: h.bounds,
                            buckets: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
            timers: t
                .timers
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        TimerSnapshot {
                            count: v.count.load(Ordering::Relaxed),
                            total_ns: v.total_ns.load(Ordering::Relaxed),
                            max_ns: v.max_ns.load(Ordering::Relaxed),
                        },
                    )
                })
                .collect(),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub class: MetricClass,
    pub bounds: &'static [u64],
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Writes the members both JSON documents give a histogram.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.key("bounds").array(|w| {
            for b in self.bounds {
                w.u64(*b);
            }
        });
        w.key("buckets").array(|w| {
            for b in &self.buckets {
                w.u64(*b);
            }
        });
        w.key("count").u64(self.count);
        w.key("sum").u64(self.sum);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerSnapshot {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

/// Point-in-time (or, after [`Snapshot::delta`], per-stage) view of a
/// registry's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, (MetricClass, u64)>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub timers: BTreeMap<String, TimerSnapshot>,
}

impl Snapshot {
    /// `self - earlier` for the cumulative families (counters,
    /// histograms, timers; max_ns keeps the later value). Gauges are
    /// last-value-wins and carried over as-is. Metrics absent from
    /// `earlier` are treated as zero there.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, (class, v))| {
                let base = earlier.counters.get(k).map(|(_, b)| *b).unwrap_or(0);
                (k.clone(), (*class, v.saturating_sub(base)))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut out = h.clone();
                if let Some(base) = earlier.histograms.get(k) {
                    for (slot, b) in out.buckets.iter_mut().zip(&base.buckets) {
                        *slot = slot.saturating_sub(*b);
                    }
                    out.count = out.count.saturating_sub(base.count);
                    out.sum = out.sum.saturating_sub(base.sum);
                }
                (k.clone(), out)
            })
            .collect();
        let timers = self
            .timers
            .iter()
            .map(|(k, t)| {
                let base = earlier.timers.get(k).copied().unwrap_or_default();
                (
                    k.clone(),
                    TimerSnapshot {
                        count: t.count.saturating_sub(base.count),
                        total_ns: t.total_ns.saturating_sub(base.total_ns),
                        max_ns: t.max_ns,
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            timers,
        }
    }

    /// Counters of one class, by name. Zero-valued entries are
    /// dropped: registration is first-touch, so whether an untouched
    /// counter exists at all depends on process history — filtering
    /// zeros makes renderings a function of the work done, not of
    /// which call sites happened to run earlier.
    pub fn counts_of(&self, class: MetricClass) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(_, (c, v))| *c == class && *v != 0)
            .map(|(k, (_, v))| (k.clone(), *v))
            .collect()
    }

    /// Every nonzero counter covered by a determinism promise
    /// (`outcome` + `work`): the set that must be byte-identical
    /// across `CA_THREADS` settings.
    pub fn deterministic_counts(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(_, (c, v))| *c != MetricClass::Ops && *v != 0)
            .map(|(k, (_, v))| (k.clone(), *v))
            .collect()
    }

    /// Canonical `name=value` line rendering of a count map, for
    /// byte-for-byte comparisons in determinism tests.
    pub fn render_counts(counts: &BTreeMap<String, u64>) -> String {
        let mut out = String::new();
        for (k, v) in counts {
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }

    /// The whole snapshot as one machine-readable JSON object (schema
    /// `ca-obs-metrics/1`) — the payload of a ca-serve
    /// `MetricsSnapshot` frame, so a live daemon is scrapeable without
    /// parsing the human-oriented `Stats` text. BTreeMap ordering makes
    /// the rendering canonical for a given snapshot.
    pub fn to_json(&self) -> String {
        JsonWriter::compact()
            .object(|w| {
                w.key("schema").string("ca-obs-metrics/1");
                w.key("counters").object(|w| {
                    for (name, (class, value)) in &self.counters {
                        w.key(name).object(|w| {
                            w.key("class").string(class.as_str());
                            w.key("value").u64(*value);
                        });
                    }
                });
                w.key("gauges").object(|w| {
                    for (name, value) in &self.gauges {
                        w.key(name).u64(*value);
                    }
                });
                w.key("histograms").object(|w| {
                    for (name, h) in &self.histograms {
                        w.key(name).object(|w| {
                            w.key("class").string(h.class.as_str());
                            h.write_json(w);
                        });
                    }
                });
                w.key("timers").object(|w| {
                    for (name, t) in &self.timers {
                        w.key(name).object(|w| {
                            w.key("count").u64(t.count);
                            w.key("total_ns").u64(t.total_ns);
                            w.key("max_ns").u64(t.max_ns);
                        });
                    }
                });
            })
            .finish()
    }
}

/// The process-wide registry every `ca-*` crate records into.
pub fn global() -> &'static MetricRegistry {
    static GLOBAL: OnceLock<MetricRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricRegistry::new)
}

/// The [`Metric`](crate::inventory::Metric) row a macro site of
/// `$kind` names, resolved in a `const` item of the calling crate: an
/// undeclared name, a row of another kind, or a row another crate
/// records fails that crate's build.
#[doc(hidden)]
#[macro_export]
macro_rules! __declared {
    ($name:literal, $kind:literal) => {
        match $crate::inventory::lookup($name, $kind, module_path!()) {
            Ok(metric) => metric,
            Err(err) => panic!("{}", err.message()),
        }
    };
}

/// The counter declared as `$name` in [`crate::inventory`], registered
/// on first use with the row's class. The handle is cached at the call
/// site, so the steady-state cost is one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        const METRIC: &$crate::inventory::Metric = $crate::__declared!($name, "counter");
        static SITE: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::global().counter(METRIC.name, METRIC.class()))
    }};
}

/// Site-cached handle to the histogram declared as `$name`, with the
/// row's class and bounds, mirroring [`crate::counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        const METRIC: &$crate::inventory::Metric = $crate::__declared!($name, "histogram");
        static SITE: std::sync::OnceLock<$crate::Histogram> = std::sync::OnceLock::new();
        SITE.get_or_init(|| {
            $crate::global().histogram(METRIC.name, METRIC.class(), METRIC.bounds())
        })
    }};
}

/// Site-cached handle to the gauge declared as `$name`, mirroring
/// [`crate::counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        const METRIC: &$crate::inventory::Metric = $crate::__declared!($name, "gauge");
        static SITE: std::sync::OnceLock<$crate::Gauge> = std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::global().gauge(METRIC.name))
    }};
}

/// Site-cached handle to the timer declared as `$name`, mirroring
/// [`crate::counter!`] — for explicit duration recording where an RAII
/// span guard does not fit.
#[macro_export]
macro_rules! timer {
    ($name:literal) => {{
        const METRIC: &$crate::inventory::Metric = $crate::__declared!($name, "timer");
        static SITE: std::sync::OnceLock<$crate::Timer> = std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::global().timer(METRIC.name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_delta() {
        let reg = MetricRegistry::new();
        let c = reg.counter("x.hits", MetricClass::Work);
        c.add(3);
        let before = reg.snapshot();
        c.add(4);
        reg.counter("x.new", MetricClass::Outcome).inc();
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counters["x.hits"], (MetricClass::Work, 4));
        assert_eq!(delta.counters["x.new"], (MetricClass::Outcome, 1));
    }

    #[test]
    fn counter_class_is_fixed_by_first_registration() {
        let reg = MetricRegistry::new();
        reg.counter("a", MetricClass::Outcome);
        let snap = {
            reg.counter("a", MetricClass::Ops).inc();
            reg.snapshot()
        };
        assert_eq!(snap.counters["a"], (MetricClass::Outcome, 1));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricRegistry::new();
        let h = reg.histogram("sizes", MetricClass::Ops, &[1, 10, 100]);
        for v in [0, 1, 5, 50, 5000] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms["sizes"];
        assert_eq!(hs.buckets, vec![2, 1, 1, 1]);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 5056);
    }

    #[test]
    fn deterministic_counts_exclude_ops() {
        let reg = MetricRegistry::new();
        reg.counter("o", MetricClass::Outcome).inc();
        reg.counter("w", MetricClass::Work).inc();
        reg.counter("s", MetricClass::Ops).inc();
        let det = reg.snapshot().deterministic_counts();
        assert_eq!(
            det.keys().map(String::as_str).collect::<Vec<_>>(),
            vec!["o", "w"]
        );
        assert_eq!(Snapshot::render_counts(&det), "o=1\nw=1\n");
    }

    #[test]
    fn timers_aggregate() {
        let reg = MetricRegistry::new();
        let t = reg.timer("span");
        t.record_ns(10);
        t.record_ns(30);
        let snap = reg.snapshot();
        let ts = snap.timers["span"];
        assert_eq!((ts.count, ts.total_ns, ts.max_ns), (2, 40, 30));
    }

    #[test]
    fn gauge_last_value_and_max() {
        let reg = MetricRegistry::new();
        let g = reg.gauge("depth");
        g.set(4);
        g.max(2);
        assert_eq!(g.get(), 4);
        g.max(9);
        assert_eq!(reg.snapshot().gauges["depth"], 9);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = MetricRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let c = reg.counter("shared", MetricClass::Work);
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counters["shared"].1, 4000);
    }

    #[test]
    fn snapshot_json_is_parseable_and_complete() {
        let reg = MetricRegistry::new();
        reg.counter("alpha.count", MetricClass::Outcome).add(3);
        reg.gauge("alpha.depth").set(7);
        reg.histogram("alpha.lat", MetricClass::Ops, &[10, 100])
            .observe(42);
        reg.timer("alpha.span").record_ns(1_500);
        let json = reg.snapshot().to_json();
        let parsed = crate::json::parse(&json).expect("snapshot JSON parses");
        // The document as the hand-rendered writer before `JsonWriter`
        // produced it for this snapshot.
        let before = concat!(
            r#"{"schema":"ca-obs-metrics/1","counters":{"alpha.count":{"class":"outcome","value":3}},"#,
            r#""gauges":{"alpha.depth":7},"histograms":{"alpha.lat":{"class":"ops","bounds":[10,100],"#,
            r#""buckets":[0,1,0],"count":1,"sum":42}},"timers":{"alpha.span":{"count":1,"total_ns":1500,"#,
            r#""max_ns":1500}}}"#
        );
        assert_eq!(Ok(parsed.clone()), crate::json::parse(before), "{json}");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("ca-obs-metrics/1")
        );
        let counters = parsed.get("counters").expect("counters object");
        let alpha = counters.get("alpha.count").expect("counter present");
        assert_eq!(alpha.get("class").and_then(|v| v.as_str()), Some("outcome"));
        assert_eq!(alpha.get("value").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("alpha.depth"))
                .and_then(|v| v.as_f64()),
            Some(7.0)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("alpha.lat"))
            .expect("histogram present");
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(1.0));
        let timer = parsed
            .get("timers")
            .and_then(|t| t.get("alpha.span"))
            .expect("timer present");
        assert_eq!(timer.get("total_ns").and_then(|v| v.as_f64()), Some(1500.0));
    }
}
