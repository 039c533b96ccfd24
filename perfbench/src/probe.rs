//! Process- and registry-level probes read around the timed regions.

use std::collections::BTreeMap;

/// Every counter of the global `ca-obs` registry, by name.
pub fn counters() -> BTreeMap<String, u64> {
    ca_obs::global()
        .snapshot()
        .counters
        .into_iter()
        .map(|(name, (_, value))| (name, value))
        .collect()
}

/// Counter increments between two [`counters`] snapshots.
#[derive(Debug, Clone, Default)]
pub struct Delta(BTreeMap<String, u64>);

impl Delta {
    pub fn between(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Delta {
        Delta(
            after
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(*before.get(k).unwrap_or(&0))))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0) as f64
    }
}

/// Sets the per-layer metrics that come straight from registry
/// counters, plus the ratios derived from them.
pub fn layer_counters(out: &mut crate::Outcome, d: &Delta) {
    for (metric, counter) in [
        ("core.cache_hits", "ca_core.cache.hits"),
        ("core.cache_misses", "ca_core.cache.misses"),
        ("core.iso_attempts", "ca_core.iso.attempts"),
        ("core.iso_certified", "ca_core.iso.certified"),
        ("ml.trees_fitted", "ca_ml.forest.trees_fitted"),
        ("ml.predict_rows", "ca_ml.predict.rows"),
        ("sim.solves", "ca_sim.solver.solves"),
        ("sim.iterations", "ca_sim.solver.iterations"),
        ("sim.packed_lanes", "ca_sim.packed.lanes"),
        ("sim.kernel_fallbacks", "ca_sim.kernel.fallback"),
        ("exec.items", "ca_exec.items"),
        ("store.appends", "ca_store.journal.appends"),
        ("store.append_bytes", "ca_store.journal.append_bytes"),
        ("store.fsyncs", "ca_store.journal.fsyncs"),
    ] {
        out.set(metric, d.get(counter));
    }
    let (hits, misses) = (d.get("ca_core.cache.hits"), d.get("ca_core.cache.misses"));
    out.set("core.cache_hit_rate", ratio(hits, hits + misses));
    let blocks = d.get("ca_sim.packed.blocks");
    out.set(
        "sim.lane_occupancy",
        ratio(d.get("ca_sim.packed.lanes"), blocks * 64.0),
    );
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds this process has used so far (user + system).
pub fn cpu_s() -> f64 {
    ca_obs::cpu_time_s().unwrap_or(0.0)
}
