//! The metric inventory: every counter, histogram, gauge, timer and
//! span name the workspace records, declared once (DESIGN.md §9).
//!
//! Each [`Metric`] row names the metric, states its [`Kind`] — with the
//! determinism class of a counter or histogram and a histogram's bucket
//! bounds — and the one crate that records it. The metric macros
//! ([`counter!`](crate::counter!), [`histogram!`](crate::histogram!),
//! [`gauge!`](crate::gauge!), [`timer!`](crate::timer!) and the span
//! openers) take only the name literal and look their row up in a
//! `const` item, so an undeclared name, a name of another kind, or a
//! name recorded from a crate other than the row's is a compile error
//! of the calling crate:
//!
//! ```compile_fail,E0080
//! // No row declares this name (and none is recorded from a doctest).
//! ca_obs::counter!("ca_core.cache.lookups").inc();
//! ```
//!
//! The recording crate is the first segment of `module_path!()` at the
//! call site, so a crate's library, its binaries and its `#[cfg(test)]`
//! modules all record its rows. A row is recorded by its prefix crate
//! unless it says otherwise: `ca-store` has no `ca-obs` dependency, so
//! `ca-core`'s session layer lifts the journal statistics and `ca-obs`
//! counts recovery reports. Test-only names stay out of the table;
//! tests that need one call the registry (`global().counter(..)`) or
//! [`Span::open`](crate::Span::open) directly.

use crate::registry::MetricClass;
use crate::registry::MetricClass::{Ops, Outcome, Work};
use std::collections::BTreeSet;

/// What a row registers, with what its registration takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A counter of the given determinism class.
    Counter(MetricClass),
    /// A fixed-bucket histogram: class and bucket upper bounds.
    Histogram(MetricClass, &'static [u64]),
    /// A last-value-wins gauge.
    Gauge,
    /// A timer recorded explicitly through [`timer!`](crate::timer!).
    Timer,
    /// A span: its guard records the timer of the same name.
    Span,
}

impl Kind {
    /// The kind as the macro that records it spells it.
    pub const fn name(&self) -> &'static str {
        match self {
            Kind::Counter(_) => "counter",
            Kind::Histogram(..) => "histogram",
            Kind::Gauge => "gauge",
            Kind::Timer => "timer",
            Kind::Span => "span",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// `<crate>.<subsystem>.<event>`.
    pub name: &'static str,
    /// What it registers.
    pub kind: Kind,
    /// The crate whose code records it, as `module_path!()` spells it.
    pub recorder: &'static str,
}

impl Metric {
    /// The row recorded by `recorder` instead of its prefix crate.
    const fn recorded_by(self, recorder: &'static str) -> Metric {
        Metric { recorder, ..self }
    }

    /// The determinism class of a counter or histogram row.
    ///
    /// # Panics
    ///
    /// For a gauge, timer or span row: none has a class.
    pub const fn class(&self) -> MetricClass {
        match self.kind {
            Kind::Counter(class) | Kind::Histogram(class, _) => class,
            Kind::Gauge | Kind::Timer | Kind::Span => panic!("only counters and histograms"),
        }
    }

    /// A histogram row's bucket upper bounds; empty for other kinds.
    pub const fn bounds(&self) -> &'static [u64] {
        match self.kind {
            Kind::Histogram(_, bounds) => bounds,
            _ => &[],
        }
    }

    /// The name up to and including its first `.`.
    pub(crate) const fn prefix(&self) -> &'static str {
        self.name.split_at(segment_len(self.name.as_bytes()) + 1).0
    }
}

const fn row(name: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        kind,
        recorder: name.split_at(segment_len(name.as_bytes())).0,
    }
}

const fn counter(name: &'static str, class: MetricClass) -> Metric {
    row(name, Kind::Counter(class))
}

const fn histogram(name: &'static str, class: MetricClass, bounds: &'static [u64]) -> Metric {
    row(name, Kind::Histogram(class, bounds))
}

const fn gauge(name: &'static str) -> Metric {
    row(name, Kind::Gauge)
}

const fn timer(name: &'static str) -> Metric {
    row(name, Kind::Timer)
}

const fn span(name: &'static str) -> Metric {
    row(name, Kind::Span)
}

/// Microsecond latency buckets: 100 µs to 30 s, roughly ×3 per step.
const LATENCY_US: &[u64] = &[
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
    30_000_000,
];

/// Every metric the workspace records, grouped by recording crate.
pub const METRICS: &[Metric] = &[
    // ca-exec: what ran is work, how it was scheduled is ops.
    counter("ca_exec.batches", Work),
    counter("ca_exec.items", Work),
    counter("ca_exec.panics", Work),
    counter("ca_exec.inline_batches", Ops),
    counter("ca_exec.workers_spawned", Ops),
    counter("ca_exec.steals", Ops),
    histogram(
        "ca_exec.worker_items",
        Ops,
        &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
    ),
    timer("ca_exec.queue_wait"),
    // ca-sim: the packed and the scalar solver feed the same rows.
    counter("ca_sim.packed.blocks", Work),
    counter("ca_sim.packed.lanes", Work),
    counter("ca_sim.packed.cone_skips", Work),
    counter("ca_sim.solver.solves", Work),
    counter("ca_sim.solver.iterations", Work),
    histogram(
        "ca_sim.solver.iterations_to_convergence",
        Work,
        &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128],
    ),
    counter("ca_sim.solver.budget_exceeded", Work),
    counter("ca_sim.solver.oscillations", Work),
    counter("ca_sim.budget.stimuli_clamped", Work),
    counter("ca_sim.budget.stimuli_dropped", Work),
    counter("ca_sim.budget.defects_clamped", Work),
    counter("ca_sim.budget.defects_dropped", Work),
    counter("ca_sim.budget.wall_clock_expired", Ops),
    counter("ca_sim.kernel.fallback", Work),
    counter("ca_sim.kernel.compiled", Work),
    counter("ca_sim.sim.runs", Work),
    counter("ca_sim.sim.checked_runs", Work),
    span("ca_sim.packed.batch"),
    // ca-ml
    counter("ca_ml.forest.rows", Work),
    counter("ca_ml.forest.unique_rows", Work),
    counter("ca_ml.forest.trees_fitted", Work),
    counter("ca_ml.predict.rows", Work),
    span("ca_ml.forest.fit"),
    span("ca_ml.forest.fit_tree"),
    // ca-core: the flow totals are the outcome of a run.
    counter("ca_core.flow.cells", Outcome),
    counter("ca_core.flow.models_complete", Outcome),
    counter("ca_core.flow.models_degraded", Outcome),
    counter("ca_core.flow.quarantined", Outcome),
    counter("ca_core.flow.retries", Work),
    counter("ca_core.flow.lint_rejects", Work),
    counter("ca_core.cache.hits", Work),
    counter("ca_core.cache.misses", Work),
    counter("ca_core.cache.rejected", Work),
    counter("ca_core.cache.bypassed", Work),
    counter("ca_core.iso.attempts", Work),
    counter("ca_core.iso.budget_exhausted", Work),
    counter("ca_core.iso.certified", Work),
    counter("ca_core.ml_flow.groups_trained", Work),
    counter("ca_core.ml_flow.cells_predicted", Work),
    counter("ca_core.session.reused_complete", Work),
    counter("ca_core.session.reused_degraded", Work),
    counter("ca_core.session.reused_quarantined", Work),
    counter("ca_core.session.journaled", Work),
    counter("ca_core.session.journal_errors", Ops),
    counter("ca_core.session.evicted_stale", Work),
    counter("ca_core.session.evicted_invalid", Work),
    span("ca_core.cell"),
    span("ca_core.ml_flow.train"),
    span("ca_core.ml_flow.predict_batch"),
    // ca-store's own statistics, lifted by ca-core's session layer.
    counter("ca_store.journal.appends", Work).recorded_by("ca_core"),
    counter("ca_store.journal.append_bytes", Work).recorded_by("ca_core"),
    counter("ca_store.journal.fsyncs", Work).recorded_by("ca_core"),
    counter("ca_store.journal.compactions", Work).recorded_by("ca_core"),
    counter("ca_store.journal.evictions", Work).recorded_by("ca_core"),
    counter("ca_store.recovery.truncated_bytes", Work).recorded_by("ca_core"),
    // Environment damage, not work done: never in a fingerprint.
    counter("ca_store.recovery.reported", Ops).recorded_by("ca_obs"),
    // ca-obs
    span("ca_obs.profile.stage"),
    // ca-shard
    counter("ca_shard.campaign.shards", Work),
    counter("ca_shard.campaign.retries", Ops),
    counter("ca_shard.campaign.spawn_failures", Ops),
    counter("ca_shard.campaign.heartbeat_timeouts", Ops),
    counter("ca_shard.campaign.quarantined_shards", Ops),
    counter("ca_shard.merge.records", Work),
    span("ca_shard.campaign"),
    span("ca_shard.shard"),
    span("ca_shard.shard_attempt"),
    span("ca_shard.worker"),
    // ca-serve: a daemon's traffic promises nothing.
    counter("ca_serve.connections", Ops),
    counter("ca_serve.conn_panics", Ops),
    counter("ca_serve.bad_frames", Ops),
    counter("ca_serve.admitted", Ops),
    counter("ca_serve.shed.connections", Ops),
    counter("ca_serve.shed.draining", Ops),
    counter("ca_serve.shed.quota", Ops),
    counter("ca_serve.shed.overloaded", Ops),
    counter("ca_serve.shed.deadline_in_queue", Ops),
    counter("ca_serve.served.models", Ops),
    counter("ca_serve.served.quarantined", Ops),
    counter("ca_serve.served.deadline_exceeded", Ops),
    counter("ca_serve.retry.worker_failures", Ops),
    histogram("ca_serve.latency.queue_us", Ops, LATENCY_US),
    histogram("ca_serve.latency.service_us", Ops, LATENCY_US),
    histogram("ca_serve.latency.total_us", Ops, LATENCY_US),
    gauge("ca_serve.queue.depth"),
    gauge("ca_serve.executing"),
    span("ca_serve.rpc"),
    span("ca_serve.request"),
    span("ca_serve.queue"),
    span("ca_serve.service"),
    // ca-bench
    counter("ca_bench.profile.stages", Work),
    counter("ca_bench.profile.served", Work),
    counter("ca_bench.export.models", Work),
    counter("ca_bench.export.bytes", Work),
    counter("ca_bench.predict.cells", Work),
    span("ca_bench.profile"),
    span("ca_bench.serve_demo"),
];

// A malformed or duplicate row fails the build of this crate.
const _: () = if let Err(err) = check(METRICS) {
    panic!("{}", err.message())
};

/// Why a macro site's name does not resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// No row has the name.
    Undeclared,
    /// The row declares another kind.
    WrongKind,
    /// The row is recorded by another crate.
    ForeignCrate,
}

impl LookupError {
    /// The compile error a macro site reports.
    pub const fn message(self) -> &'static str {
        match self {
            LookupError::Undeclared => "metric is not declared in ca_obs::inventory::METRICS",
            LookupError::WrongKind => "metric is declared with another kind in ca_obs::inventory",
            LookupError::ForeignCrate => {
                "metric is recorded by another crate according to ca_obs::inventory"
            }
        }
    }
}

/// The row named `name` in `table`, if any.
pub(crate) const fn find(table: &'static [Metric], name: &str) -> Option<&'static Metric> {
    let mut i = 0;
    while i < table.len() {
        if str_eq(table[i].name, name) {
            return Some(&table[i]);
        }
        i += 1;
    }
    None
}

/// [`lookup`] over any table.
pub(crate) const fn lookup_in(
    table: &'static [Metric],
    name: &str,
    kind: &str,
    module_path: &str,
) -> Result<&'static Metric, LookupError> {
    let Some(metric) = find(table, name) else {
        return Err(LookupError::Undeclared);
    };
    if !str_eq(metric.kind.name(), kind) {
        return Err(LookupError::WrongKind);
    }
    if !str_eq(
        metric.recorder,
        module_path.split_at(segment_len(module_path.as_bytes())).0,
    ) {
        return Err(LookupError::ForeignCrate);
    }
    Ok(metric)
}

/// The row of [`METRICS`] a macro site of `kind` (as [`Kind::name`]
/// spells it) at `module_path` records under `name`: what every metric
/// macro evaluates.
pub const fn lookup(
    name: &str,
    kind: &str,
    module_path: &str,
) -> Result<&'static Metric, LookupError> {
    lookup_in(METRICS, name, kind, module_path)
}

/// Why a table does not build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TableError {
    /// The row's name is not `<crate>.<segment>(.<segment>)*` in
    /// lower-case snake segments, its recorder is not a crate name, or
    /// its histogram bounds are empty or not strictly ascending.
    Malformed(&'static str),
    /// Two rows share the name.
    Duplicate(&'static str),
}

impl TableError {
    /// The compile error a bad table reports.
    pub(crate) const fn message(self) -> &'static str {
        match self {
            TableError::Malformed(_) => "ca_obs::inventory declares a malformed row",
            TableError::Duplicate(_) => "ca_obs::inventory declares a name twice",
        }
    }
}

/// Checks every row of `table` and that no name repeats.
pub(crate) const fn check(table: &[Metric]) -> Result<(), TableError> {
    let mut i = 0;
    while i < table.len() {
        let metric = &table[i];
        if !well_formed(metric) {
            return Err(TableError::Malformed(metric.name));
        }
        let mut j = 0;
        while j < i {
            if str_eq(table[j].name, metric.name) {
                return Err(TableError::Duplicate(metric.name));
            }
            j += 1;
        }
        i += 1;
    }
    Ok(())
}

/// The prefixes (`ca_core.`, …) of the counter and histogram rows: a
/// complete flow profile carries a counter under each.
pub fn instrumented_prefixes() -> BTreeSet<&'static str> {
    METRICS
        .iter()
        .filter(|m| matches!(m.kind, Kind::Counter(_) | Kind::Histogram(..)))
        .map(Metric::prefix)
        .collect()
}

const fn well_formed(metric: &Metric) -> bool {
    let mut rest = metric.name.as_bytes();
    let mut segments = 0;
    loop {
        let (segment, tail) = rest.split_at(segment_len(rest));
        if !snake_segment(segment) {
            return false;
        }
        segments += 1;
        match tail {
            [b'.', next @ ..] => rest = next,
            [] => break,
            _ => return false,
        }
    }
    if segments < 2 || !snake_segment(metric.recorder.as_bytes()) {
        return false;
    }
    let bounds = metric.bounds();
    if matches!(metric.kind, Kind::Histogram(..)) && bounds.is_empty() {
        return false;
    }
    let mut k = 1;
    while k < bounds.len() {
        if bounds[k - 1] >= bounds[k] {
            return false;
        }
        k += 1;
    }
    true
}

/// `[a-z][a-z0-9_]*`.
const fn snake_segment(segment: &[u8]) -> bool {
    if segment.is_empty() || !segment[0].is_ascii_lowercase() {
        return false;
    }
    let mut i = 1;
    while i < segment.len() {
        let b = segment[i];
        if !(b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_') {
            return false;
        }
        i += 1;
    }
    true
}

/// Length of the first segment of a dotted name or a module path.
const fn segment_len(text: &[u8]) -> usize {
    let mut i = 0;
    while i < text.len() && text[i] != b'.' && text[i] != b':' {
        i += 1;
    }
    i
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Metric] = &[
        counter("ca_x.cache.hits", Work),
        histogram("ca_x.latency_us", Ops, &[1, 10]),
        span("ca_x.cell"),
        counter("ca_y.journal.appends", Work).recorded_by("ca_x"),
    ];

    #[test]
    fn lookup_resolves_a_declared_site() {
        let row = lookup_in(TABLE, "ca_x.cache.hits", "counter", "ca_x::cache").unwrap();
        assert_eq!((row.class(), row.bounds()), (Work, &[][..]));
        let row = lookup_in(TABLE, "ca_x.latency_us", "histogram", "ca_x").unwrap();
        assert_eq!((row.class(), row.bounds()), (Ops, &[1, 10][..]));
        // A crate's binary and test modules share its first segment.
        assert!(lookup_in(TABLE, "ca_x.cell", "span", "ca_x::tests::inner").is_ok());
        // A row says who records it when that is not its prefix crate.
        assert!(lookup_in(TABLE, "ca_y.journal.appends", "counter", "ca_x::session").is_ok());
    }

    #[test]
    fn lookup_rejects_undeclared_names() {
        for name in ["ca_x.cache.misses", "ca_x.cache", "ca_x.cache.hits.", ""] {
            assert_eq!(
                lookup_in(TABLE, name, "counter", "ca_x"),
                Err(LookupError::Undeclared),
                "{name:?}"
            );
        }
    }

    #[test]
    fn lookup_rejects_another_kind() {
        for (name, kind) in [
            ("ca_x.cell", "counter"),
            ("ca_x.cache.hits", "histogram"),
            ("ca_x.cache.hits", "timer"),
            ("ca_x.latency_us", "gauge"),
        ] {
            assert_eq!(
                lookup_in(TABLE, name, kind, "ca_x"),
                Err(LookupError::WrongKind),
                "{name} as {kind}"
            );
        }
    }

    #[test]
    fn lookup_rejects_a_foreign_crate() {
        for module_path in ["ca_y", "ca_y::lib", "ca_xy::cache", "ca", "ca_x_test"] {
            assert_eq!(
                lookup_in(TABLE, "ca_x.cache.hits", "counter", module_path),
                Err(LookupError::ForeignCrate),
                "{module_path}"
            );
        }
        // The prefix crate of a re-attributed row does not record it.
        assert_eq!(
            lookup_in(TABLE, "ca_y.journal.appends", "counter", "ca_y"),
            Err(LookupError::ForeignCrate)
        );
    }

    #[test]
    fn check_rejects_duplicate_rows() {
        let table = [counter("ca_x.hits", Work), span("ca_x.hits")];
        assert_eq!(check(&table), Err(TableError::Duplicate("ca_x.hits")));
        assert_eq!(check(&table[..1]), Ok(()));
    }

    #[test]
    fn check_rejects_malformed_rows() {
        for name in [
            "ca_x",
            "ca_x.",
            ".hits",
            "ca_x..hits",
            "ca_x.Hits",
            "ca_x.2hits",
            "ca-x.hits",
            "ca_x.hits us",
            "ca_x::hits",
        ] {
            assert_eq!(
                check(&[span(name)]),
                Err(TableError::Malformed(name)),
                "{name:?}"
            );
        }
        for bounds in [&[][..], &[1, 1], &[10, 1]] {
            let row = histogram("ca_x.sizes", Ops, bounds);
            assert_eq!(check(&[row]), Err(TableError::Malformed("ca_x.sizes")));
        }
        let row = span("ca_x.cell").recorded_by("Ca-X");
        assert_eq!(check(&[row]), Err(TableError::Malformed("ca_x.cell")));
    }

    #[test]
    fn the_declared_table_is_well_formed() {
        assert_eq!(check(METRICS), Ok(()));
        assert_eq!(
            instrumented_prefixes().into_iter().collect::<Vec<_>>(),
            [
                "ca_bench.",
                "ca_core.",
                "ca_exec.",
                "ca_ml.",
                "ca_serve.",
                "ca_shard.",
                "ca_sim.",
                "ca_store."
            ]
        );
    }
}
