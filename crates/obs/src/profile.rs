//! Per-stage flow profiling.
//!
//! A [`FlowProfile`] wraps each pipeline stage in a registry snapshot
//! pair plus wall/CPU clocks, producing per-stage metric deltas. It
//! renders both the machine artifact (`BENCH_profile.json`, schema
//! `ca-obs-profile/1`) and a human-readable table, and exposes the
//! canonical count fingerprints the determinism tests byte-compare.
//!
//! Counts and timings are kept strictly apart: the JSON carries
//! `counts` (outcome), `work` and `ops` sections per stage for the
//! count metrics, and `timers`/`wall_s`/`cpu_s` for the wall-clock
//! side that is excluded from every determinism check.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::json::{JsonValue, JsonWriter};
use crate::registry::{global, HistogramSnapshot, MetricClass, Snapshot};
use crate::trace::{Placement, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag embedded in (and required from) `BENCH_profile.json`.
pub const PROFILE_SCHEMA: &str = "ca-obs-profile/1";

/// Process CPU time (user + system) in seconds, read from
/// `/proc/self/stat`. Best-effort: `None` off Linux or on parse
/// trouble. Assumes the (universal in practice) USER_HZ of 100.
pub fn cpu_time_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // comm may contain spaces/parens; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// One profiled stage: the registry delta it produced plus its clocks.
#[derive(Debug, Clone)]
pub struct StageProfile {
    pub name: String,
    pub wall_s: f64,
    /// Process-wide CPU seconds spent during the stage; `None` when
    /// the platform offers no cheap reading.
    pub cpu_s: Option<f64>,
    pub delta: Snapshot,
}

/// Aggregates a run's stages into one report.
#[derive(Debug, Clone)]
pub struct FlowProfile {
    pub label: String,
    pub threads: usize,
    /// Free-form integer facts about the run (cell count, …).
    pub meta: BTreeMap<String, u64>,
    /// Derived ratios (cache hit rate, quarantine rate, …) in [0, 1].
    pub rates: BTreeMap<String, f64>,
    pub stages: Vec<StageProfile>,
}

impl FlowProfile {
    pub fn new(label: impl Into<String>, threads: usize) -> Self {
        FlowProfile {
            label: label.into(),
            threads,
            meta: BTreeMap::new(),
            rates: BTreeMap::new(),
            stages: Vec::new(),
        }
    }

    /// Runs `f` as a named stage: snapshots the global registry and
    /// both clocks around it and records the delta. The stage is a span
    /// like any other (recorded as the timer `name`, and traced when
    /// tracing is on), and its wall time is that span's duration.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let before = global().snapshot();
        let cpu_before = cpu_time_s();
        // Sequential on the calling thread, so stage span ids are
        // deterministic (DESIGN.md §14). The name varies at this one
        // site, so the timer is looked up per stage rather than cached;
        // the snapshots take the same lock anyway.
        let span = Span::open(&global().timer(name), name, Placement::Next);
        let result = f();
        let wall_s = span.finish().as_secs_f64();
        let cpu_s = match (cpu_before, cpu_time_s()) {
            (Some(a), Some(b)) => Some((b - a).max(0.0)),
            _ => None,
        };
        self.stages.push(StageProfile {
            name: name.to_string(),
            wall_s,
            cpu_s,
            delta: global().snapshot().delta(&before),
        });
        result
    }

    pub fn set_meta(&mut self, key: impl Into<String>, value: u64) {
        self.meta.insert(key.into(), value);
    }

    pub fn set_rate(&mut self, key: impl Into<String>, value: f64) {
        self.rates.insert(key.into(), value);
    }

    /// Sum of one counter across all stages.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .filter_map(|s| s.delta.counters.get(name).map(|(_, v)| *v))
            .sum()
    }

    /// All counters of `class`, summed across stages.
    pub fn totals_of(&self, class: MetricClass) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for stage in &self.stages {
            for (name, value) in stage.delta.counts_of(class) {
                *out.entry(name).or_insert(0) += value;
            }
        }
        out
    }

    /// Canonical per-stage rendering of every deterministically
    /// promised counter (`outcome` + `work`): the byte string that
    /// must be identical across `CA_THREADS=1` and `4`.
    pub fn deterministic_fingerprint(&self) -> String {
        self.fingerprint(|snap| snap.deterministic_counts())
    }

    /// Canonical per-stage rendering of the `outcome` counters only:
    /// the byte string that must additionally survive a crash-resume
    /// cycle unchanged.
    pub fn outcome_fingerprint(&self) -> String {
        self.fingerprint(|snap| snap.counts_of(MetricClass::Outcome))
    }

    fn fingerprint(&self, pick: impl Fn(&Snapshot) -> BTreeMap<String, u64>) -> String {
        let mut out = String::new();
        for stage in &self.stages {
            let _ = writeln!(out, "[{}]", stage.name);
            out.push_str(&Snapshot::render_counts(&pick(&stage.delta)));
        }
        out
    }

    /// Renders the `BENCH_profile.json` document.
    pub fn to_json(&self) -> String {
        JsonWriter::pretty()
            .object(|w| {
                w.key("schema").string(PROFILE_SCHEMA);
                w.key("profile").string(&self.label);
                w.key("threads").u64(self.threads as u64);
                for (k, v) in &self.meta {
                    w.key(k).u64(*v);
                }
                w.key("wall_s").f64(self.total_wall_s(), 6);
                w.key("cpu_s").f64(self.total_cpu_s(), 6);
                w.key("rates").object(|w| {
                    for (k, v) in &self.rates {
                        w.key(k).f64(*v, 6);
                    }
                });
                w.key("stages").array(|w| {
                    for stage in &self.stages {
                        w.object(|w| stage.write_json(w));
                    }
                });
            })
            .finish()
    }

    pub fn total_wall_s(&self) -> f64 {
        self.stages.iter().map(|s| s.wall_s).sum()
    }

    pub fn total_cpu_s(&self) -> Option<f64> {
        self.stages.iter().map(|s| s.cpu_s).sum()
    }

    /// Human-readable report: stage table, rates, and the summed
    /// deterministic counters.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== flow profile: {} (threads={}) ==",
            self.label, self.threads
        );
        for (k, v) in &self.meta {
            let _ = writeln!(out, "   {k}: {v}");
        }
        let _ = writeln!(out, "{:<18} {:>9} {:>9}", "stage", "wall_s", "cpu_s");
        for stage in &self.stages {
            let cpu = stage
                .cpu_s
                .map(|c| format!("{c:.3}"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(out, "{:<18} {:>9.3} {:>9}", stage.name, stage.wall_s, cpu);
        }
        let cpu = self
            .total_cpu_s()
            .map(|c| format!("{c:.3}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<18} {:>9.3} {:>9}",
            "total",
            self.total_wall_s(),
            cpu
        );
        if !self.rates.is_empty() {
            let rates: Vec<String> = self
                .rates
                .iter()
                .map(|(k, v)| format!("{k}={:.1}%", v * 100.0))
                .collect();
            let _ = writeln!(out, "rates: {}", rates.join("  "));
        }
        for class in [MetricClass::Outcome, MetricClass::Work] {
            let totals = self.totals_of(class);
            if totals.is_empty() {
                continue;
            }
            let _ = writeln!(out, "counters ({}):", class.as_str());
            for (name, value) in totals {
                let _ = writeln!(out, "  {name:<44} {value}");
            }
        }
        // Histogram distributions summed across stages (e.g. the solver's
        // iterations-to-convergence), rendered as `<=bound:count` pairs.
        let mut hists: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for stage in &self.stages {
            for (name, h) in &stage.delta.histograms {
                if h.count == 0 {
                    continue;
                }
                hists
                    .entry(name.clone())
                    .and_modify(|acc| {
                        for (a, b) in acc.buckets.iter_mut().zip(&h.buckets) {
                            *a += b;
                        }
                        acc.count += h.count;
                        acc.sum += h.sum;
                    })
                    .or_insert_with(|| h.clone());
            }
        }
        if !hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, h) in hists {
                let mean = h.sum as f64 / h.count as f64;
                let mut cells: Vec<String> = h
                    .bounds
                    .iter()
                    .zip(&h.buckets)
                    .filter(|(_, &c)| c > 0)
                    .map(|(b, c)| format!("<={b}:{c}"))
                    .collect();
                if let (Some(&overflow), Some(last)) =
                    (h.buckets.get(h.bounds.len()), h.bounds.last())
                {
                    if overflow > 0 {
                        cells.push(format!(">{last}:{overflow}"));
                    }
                }
                let _ = writeln!(
                    out,
                    "  {name:<44} count={} mean={mean:.2} {}",
                    h.count,
                    cells.join(" ")
                );
            }
        }
        out
    }
}

impl StageProfile {
    fn write_json(&self, w: &mut JsonWriter) {
        w.key("name").string(&self.name);
        w.key("wall_s").f64(self.wall_s, 6);
        w.key("cpu_s").f64(self.cpu_s, 6);
        for (key, class) in [
            ("counts", MetricClass::Outcome),
            ("work", MetricClass::Work),
            ("ops", MetricClass::Ops),
        ] {
            w.key(key).object(|w| {
                for (k, v) in self.delta.counts_of(class) {
                    w.key(&k).u64(v);
                }
            });
        }
        w.key("hist").object(|w| {
            for (k, h) in self.delta.histograms.iter().filter(|(_, h)| h.count > 0) {
                w.key(k).object(|w| h.write_json(w));
            }
        });
        w.key("timers").object(|w| {
            for (k, t) in self.delta.timers.iter().filter(|(_, t)| t.count > 0) {
                w.key(k).object(|w| {
                    w.key("count").u64(t.count);
                    w.key("total_ms").f64(t.total_ns as f64 / 1e6, 3);
                    w.key("max_ms").f64(t.max_ns as f64 / 1e6, 3);
                });
            }
        });
    }
}

/// The eight crates whose counters a complete profile must carry.
pub const INSTRUMENTED_PREFIXES: [&str; 8] = [
    "ca_exec.",
    "ca_sim.",
    "ca_ml.",
    "ca_core.",
    "ca_store.",
    "ca_bench.",
    "ca_serve.",
    "ca_shard.",
];

/// Validates a `BENCH_profile.json` document against schema
/// `ca-obs-profile/1`, including coverage of all eight instrumented
/// crates. Used by the `ca-bench profile-check` CI gate; audit rule D11
/// keeps [`INSTRUMENTED_PREFIXES`] equal to the prefixes of the
/// workspace's metric macro sites.
pub fn validate_profile_json(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text)?;
    let obj = doc.as_object().ok_or("top level must be an object")?;
    match obj.get("schema").and_then(JsonValue::as_str) {
        Some(PROFILE_SCHEMA) => {}
        other => return Err(format!("schema must be {PROFILE_SCHEMA:?}, got {other:?}")),
    }
    obj.get("profile")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field: profile")?;
    let threads = obj
        .get("threads")
        .and_then(JsonValue::as_u64)
        .ok_or("missing integer field: threads")?;
    if threads == 0 {
        return Err("threads must be >= 1".to_string());
    }
    obj.get("wall_s")
        .and_then(JsonValue::as_f64)
        .ok_or("missing number field: wall_s")?;
    match obj.get("cpu_s") {
        Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
        other => return Err(format!("cpu_s must be number or null, got {other:?}")),
    }
    let rates = obj
        .get("rates")
        .and_then(JsonValue::as_object)
        .ok_or("missing object field: rates")?;
    for (key, value) in rates {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("rate {key:?} must be a number"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("rate {key:?} out of [0,1]: {v}"));
        }
    }
    let stages = obj
        .get("stages")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field: stages")?;
    if stages.is_empty() {
        return Err("stages must be non-empty".to_string());
    }
    let mut seen_counters: Vec<String> = Vec::new();
    for stage in stages {
        let name = stage
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("stage missing string field: name")?;
        stage
            .get("wall_s")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("stage {name:?} missing number field: wall_s"))?;
        match stage.get("cpu_s") {
            Some(JsonValue::Null) | Some(JsonValue::Number(_)) => {}
            other => return Err(format!("stage {name:?} cpu_s invalid: {other:?}")),
        }
        for section in ["counts", "work", "ops"] {
            let map = stage
                .get(section)
                .and_then(JsonValue::as_object)
                .ok_or_else(|| format!("stage {name:?} missing object field: {section}"))?;
            for (counter, value) in map {
                value.as_u64().ok_or_else(|| {
                    format!("stage {name:?} counter {counter:?} must be a non-negative integer")
                })?;
                seen_counters.push(counter.clone());
            }
        }
        let timers = stage
            .get("timers")
            .and_then(JsonValue::as_object)
            .ok_or_else(|| format!("stage {name:?} missing object field: timers"))?;
        for (timer, value) in timers {
            for field in ["count", "total_ms", "max_ms"] {
                value
                    .get(field)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("timer {timer:?} missing number field: {field}"))?;
            }
        }
    }
    for prefix in INSTRUMENTED_PREFIXES {
        if !seen_counters.iter().any(|c| c.starts_with(prefix)) {
            return Err(format!("no counters from instrumented crate {prefix:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let cpu = cpu_time_s().expect("/proc/self/stat parses");
            assert!(cpu >= 0.0);
        }
    }

    #[test]
    fn stage_captures_deltas_and_fingerprints() {
        let mut profile = FlowProfile::new("test", 2);
        profile.stage("alpha", || {
            crate::counter!("obs_test.profile.outcome", Outcome).add(2);
            crate::counter!("obs_test.profile.work", Work).add(3);
            crate::counter!("obs_test.profile.ops", Ops).add(5);
        });
        profile.stage("beta", || {
            crate::counter!("obs_test.profile.outcome", Outcome).inc();
        });
        assert_eq!(profile.counter_total("obs_test.profile.outcome"), 3);
        let det = profile.deterministic_fingerprint();
        assert!(det.contains("[alpha]"));
        assert!(det.contains("obs_test.profile.work=3"));
        assert!(!det.contains("obs_test.profile.ops"));
        let outcome = profile.outcome_fingerprint();
        assert!(outcome.contains("obs_test.profile.outcome=2"));
        assert!(!outcome.contains("obs_test.profile.work"));
    }

    /// A profile whose counters cover all eight instrumented crates
    /// must round-trip through its own validator.
    #[test]
    fn emitted_json_passes_validator() {
        let mut profile = FlowProfile::new("quick", 4);
        profile.set_meta("cells", 8);
        profile.set_rate("cache_hit_rate", 0.5);
        profile.stage("all", || {
            for prefix in INSTRUMENTED_PREFIXES {
                global()
                    .counter(&format!("{prefix}validator_probe"), MetricClass::Work)
                    .inc();
            }
            drop(crate::span!("probe"));
        });
        let json = profile.to_json();
        validate_profile_json(&json).expect("emitted profile validates");
        let parsed = crate::json::parse(&json).expect("parses");
        assert_eq!(parsed.get("threads").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(parsed.get("cells").and_then(JsonValue::as_u64), Some(8));

        // A fixed profile renders as the hand-rendered writer before
        // `JsonWriter` rendered it.
        let reg = crate::registry::MetricRegistry::new();
        reg.counter("ca_core.fixed", MetricClass::Outcome).add(2);
        reg.counter("ca_sim.fixed", MetricClass::Work).add(3);
        reg.counter("ca_exec.fixed", MetricClass::Ops).add(5);
        reg.histogram("ca_sim.hist", MetricClass::Work, &[1, 10])
            .observe(4);
        reg.timer("probe").record_ns(1_234_567);
        let mut fixed = FlowProfile::new("fixed \"q\"", 3);
        fixed.set_meta("cells", 8);
        fixed.set_rate("cache_hit_rate", 0.25);
        for (name, wall_s, cpu_s, delta) in [
            ("all", 0.125, None, reg.snapshot()),
            ("empty", 1.5, Some(0.75), Snapshot::default()),
        ] {
            fixed.stages.push(StageProfile {
                name: name.into(),
                wall_s,
                cpu_s,
                delta,
            });
        }
        let before = r#"{
  "schema": "ca-obs-profile/1",
  "profile": "fixed \"q\"",
  "threads": 3,
  "cells": 8,
  "wall_s": 1.625000,
  "cpu_s": null,
  "rates": {"cache_hit_rate": 0.250000},
  "stages": [
    {
      "name": "all",
      "wall_s": 0.125000,
      "cpu_s": null,
      "counts": {"ca_core.fixed": 2},
      "work": {"ca_sim.fixed": 3},
      "ops": {"ca_exec.fixed": 5},
      "hist": {"ca_sim.hist": {"bounds": [1, 10], "buckets": [0, 1, 0], "count": 1, "sum": 4}},
      "timers": {"probe": {"count": 1, "total_ms": 1.235, "max_ms": 1.235}}
    },
    {
      "name": "empty",
      "wall_s": 1.500000,
      "cpu_s": 0.750000,
      "counts": {},
      "work": {},
      "ops": {},
      "hist": {},
      "timers": {}
    }
  ]
}
"#;
        let json = fixed.to_json();
        assert_eq!(
            crate::json::parse(&json),
            crate::json::parse(before),
            "{json}"
        );
    }

    #[test]
    fn validator_rejects_missing_sections() {
        let bad = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA}\", \"profile\": \"q\", \"threads\": 1, \
             \"wall_s\": 0.1, \"cpu_s\": null, \"rates\": {{}}, \"stages\": []}}"
        );
        let err = validate_profile_json(&bad).expect_err("empty stages rejected");
        assert!(err.contains("non-empty"), "{err}");
        let err = validate_profile_json("{}").expect_err("schema required");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn validator_rejects_out_of_range_rates() {
        let bad = format!(
            "{{\"schema\": \"{PROFILE_SCHEMA}\", \"profile\": \"q\", \"threads\": 1, \
             \"wall_s\": 0.1, \"cpu_s\": 0.2, \"rates\": {{\"x\": 1.5}}, \
             \"stages\": [{{\"name\": \"s\", \"wall_s\": 0.1, \"cpu_s\": null, \
             \"counts\": {{}}, \"work\": {{}}, \"ops\": {{}}, \"timers\": {{}}}}]}}"
        );
        let err = validate_profile_json(&bad).expect_err("rate 1.5 rejected");
        assert!(err.contains("out of [0,1]"), "{err}");
    }
}
