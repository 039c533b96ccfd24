//! `ca-perfbench` — the repository benchmark.
//!
//! ```text
//! ca-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ca-perfbench compare PARENT_DIR CHANGE_DIR [BENCHMARK.json]
//! ```
//!
//! A run builds its inputs from the seed, measures the workload for
//! about `S` seconds, checks the outputs against the golden and pinned
//! digests, and prints one JSON object as its last stdout line. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! repeats the timed region with spans on and reports the per-layer
//! metrics. A failed output check, an error or a panic prints a result
//! with `"correct": false` and no metric, and exits 1. See
//! `README.md` for the workloads, the metrics and how to compare runs.

mod charlib;
mod compare;
mod digest;
mod hybrid;
mod probe;
mod serve;
mod stats;
mod trace;

use ca_core::Executor;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: name, unit, whether lower is better.
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("run_s", "s", true),
    ("setup_s", "s", true),
    ("peak_rss_mb", "MiB", true),
    ("success_rate", "ratio", false),
    ("ml_accuracy", "ratio", false),
    ("modeled_reduction", "ratio", false),
    ("requests_per_s", "1/s", false),
    ("latency_p50_us", "us", true),
    ("latency_tail_us", "us", true),
];

/// Per-layer metrics of the traced run: name, unit. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("netlist.synth_s", "s"),
    ("core.train_charlib_s", "s"),
    ("core.charlib_cold_s", "s"),
    ("core.charlib_resume_s", "s"),
    ("core.export_s", "s"),
    ("core.export_bytes", "bytes"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("core.iso_attempts", "count"),
    ("core.iso_certified", "count"),
    ("core.prepare_s", "s"),
    ("flow.ml_route_s", "s"),
    ("flow.ml_cells", "count"),
    ("flow.sim_route_s", "s"),
    ("flow.sim_cells", "count"),
    ("flow.sim_route_max_s", "s"),
    ("matrix.encode_s", "s"),
    ("matrix.rows", "count"),
    ("ml.train_s", "s"),
    ("ml.group_fit_max_s", "s"),
    ("ml.trees_fitted", "count"),
    ("ml.predict_rows", "count"),
    ("sim.solves", "count"),
    ("sim.iterations", "count"),
    ("sim.packed_lanes", "count"),
    ("sim.lane_occupancy", "ratio"),
    ("sim.kernel_fallbacks", "count"),
    ("defects.generate_s", "s"),
    ("exec.cpu_util", "ratio"),
    ("exec.items", "count"),
    ("store.appends", "count"),
    ("store.append_bytes", "bytes"),
    ("store.fsyncs", "count"),
    ("serve.queue_p50_us", "us"),
    ("serve.queue_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.journal_p50_us", "us"),
    ("serve.journal_p99_us", "us"),
    ("serve.wire_p50_us", "us"),
    ("serve.hit_latency_p50_us", "us"),
    ("serve.miss_latency_p50_us", "us"),
    ("serve.spice_latency_p50_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.shed", "count"),
    ("obs.dark_frac", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.traced_run_s", "s"),
];

/// Set-up is timed in chunks of repeats lasting at least this long, one
/// before the timed loop and one after it; `setup_s` is the median of
/// every repeat. Library synthesis takes 1–10 ms on a 2-vCPU virtual
/// machine whose speed switches by tens of percent in stretches of
/// seconds, so one burst of repeats would time a single moment of it.
pub const SETUP_CHUNK_S: f64 = 0.5;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub executor: Executor,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// The seed's permutation of `items`; seed 0 keeps the given order.
    pub fn permute<T>(&self, items: &mut [T]) {
        if self.seed != 0 {
            use ca_rng::Rng;
            ca_rng::Xoshiro256StarStar::seed_from_u64(self.seed).shuffle(items);
        }
    }
}

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; any entry fails the whole run.
    pub mismatches: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.mismatches.push(e);
        }
    }

    /// Records the per-layer numbers every traced run shares: span
    /// count, dark fraction over the traced iteration windows, trace
    /// overhead against the untraced median, and self time per layer.
    pub fn trace_summary(&mut self, tracer: &Tracer, windows: &[(u64, u64)], untraced_run_s: f64) {
        let spans = tracer.spans();
        let total: u64 = windows.iter().map(|&w| w.1 - w.0).sum();
        let dark: f64 = windows
            .iter()
            .map(|&w| trace::dark_fraction(&spans, w) * (w.1 - w.0) as f64)
            .sum();
        let traced: Vec<f64> = windows.iter().map(|&w| secs(w)).collect();
        let traced_run_s = stats::median(&traced).unwrap_or(0.0);
        self.notes.push(format!("{} spans recorded", spans.len()));
        self.set("obs.dark_frac", dark / total.max(1) as f64);
        self.set("obs.traced_run_s", traced_run_s);
        self.set("obs.trace_overhead", traced_run_s / untraced_run_s - 1.0);
        for (layer, s) in trace::self_time_by_layer(&spans) {
            self.notes
                .push(format!("self time {layer:<10} {s:>10.4} s"));
        }
    }

    /// Sets the timing metrics of an untraced run: `run_s` (median
    /// iteration wall), `requests_per_s` (operations completed over the
    /// summed iteration walls), and the median and the `tail_pct`
    /// nearest-rank percentile of per-operation latency. Each workload
    /// fixes its tail percentile so that runs of any length report the
    /// same statistic; the note says how many samples lie beyond it.
    pub fn timing(
        &mut self,
        walls: &[f64],
        completed: f64,
        latency_us: &[f64],
        tail_pct: f64,
        what: &str,
    ) {
        let sorted = stats::sorted(latency_us);
        let tail = stats::percentile(&sorted, tail_pct).unwrap_or(0.0);
        let beyond = stats::beyond(sorted.len(), tail_pct);
        self.notes.push(format!(
            "{what}: p50 {:.3} us, p{tail_pct} {tail:.3} us (n={}, {beyond} beyond the tail{})",
            stats::median(&sorted).unwrap_or(0.0),
            sorted.len(),
            if beyond < 10 { "; fewer than 10" } else { "" }
        ));
        self.set("run_s", stats::median(walls).unwrap_or(0.0));
        self.set("requests_per_s", completed / walls.iter().sum::<f64>());
        self.set("latency_p50_us", stats::median(&sorted).unwrap_or(0.0));
        self.set("latency_tail_us", tail);
    }

    /// Notes a timing sample as its median and its highest percentile
    /// with at least ten samples beyond it, with the sample count.
    pub fn note_sample(&mut self, what: &str, unit: &str, sample: &[f64]) {
        let sorted = stats::sorted(sample);
        let median = stats::median(&sorted).unwrap_or(0.0);
        let tail = stats::tail_percentile(sorted.len())
            .and_then(|p| stats::percentile(&sorted, p).map(|v| format!(", p{p} {v:.6} {unit}")))
            .unwrap_or_default();
        self.notes.push(format!(
            "{what}: median {median:.6} {unit}{tail} (n={})",
            sorted.len()
        ));
    }
}

/// Median of `f` over `items` (0 when empty).
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Runs `iteration` until `seconds` have passed, at least once.
pub fn repeat<R>(seconds: f64, mut iteration: impl FnMut(u64) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        out.push(iteration(out.len() as u64));
    }
    out
}

/// Wall times of set-up repeats, collected in chunks spread over a run.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Repeats `f` for at least [`SETUP_CHUNK_S`] seconds, recording
    /// each call's wall time, and returns the last call's value.
    pub fn chunk<R>(&mut self, mut f: impl FnMut() -> R) -> R {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let value = f();
            self.0.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= SETUP_CHUNK_S {
                return value;
            }
        }
    }

    /// Median of every recorded repeat, seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.0).unwrap_or(0.0)
    }
}

/// Length in seconds of a `(start_ns, end_ns)` window.
pub fn secs(window: (u64, u64)) -> f64 {
    window.1.saturating_sub(window.0) as f64 / 1e9
}

fn usage() -> ! {
    eprintln!(
        "usage: ca-perfbench --workload hybrid_quick|charlib_full|serve_c40 --seed N \
         --seconds S --trace 0|1\n       ca-perfbench compare PARENT_DIR CHANGE_DIR [BENCHMARK.json]"
    );
    std::process::exit(2);
}

type Runner = fn(&Ctx, &mut Outcome, &Tracer) -> Result<(), String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let code = match compare::main(&args[1..]) {
            Ok(clean) => i32::from(!clean),
            Err(e) => {
                eprintln!("ca-perfbench compare: {e}");
                2
            }
        };
        std::process::exit(code);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let runner: Runner = match workload.as_str() {
        "hybrid_quick" => hybrid::run,
        "charlib_full" => charlib::run,
        "serve_c40" => serve::run,
        _ => usage(),
    };

    // Pin every executor, including the ones the program builds from
    // the environment, to the machine's parallelism (or less, if asked).
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = std::env::var("CA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map_or(nproc, |n| n.min(nproc));
    std::env::set_var("CA_THREADS", threads.to_string());
    std::env::set_var("CA_OBS", "off");
    std::env::remove_var("CA_TRACE");

    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("ca-perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        threads,
        executor: Executor::with_threads(threads),
        work: work.clone(),
    };
    let tracer = Tracer::new(trace);
    let mut outcome = Outcome::default();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runner(&ctx, &mut outcome, &tracer)
    }))
    .unwrap_or_else(|_| Err("the workload panicked".into()));
    let _ = std::fs::remove_dir_all(&work);
    if trace {
        let path = PathBuf::from(".bench_work").join(format!("trace-{workload}-{seed}.json"));
        if let Err(e) = std::fs::write(&path, trace::to_chrome_json(&tracer.spans())) {
            eprintln!("ca-perfbench: cannot write {}: {e}", path.display());
        }
    }
    // A workload that stopped on an error, or whose outputs failed a
    // check, still prints a result line, so that result sets keep one
    // line per run; every operation of the run counts as failed.
    let attempted = outcome.attempted.max(1);
    if let Err(e) = &result {
        eprintln!("ca-perfbench: {workload} failed: {e}");
    }
    for m in &outcome.mismatches {
        eprintln!("ca-perfbench: output check failed: {m}");
    }
    if result.is_err() || !outcome.mismatches.is_empty() {
        println!(
            "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {attempted}, \"metrics\": {{}}}}"
        );
        std::process::exit(1);
    }
    outcome.set("peak_rss_mb", probe::peak_rss_mb());
    outcome.set(
        "success_rate",
        1.0 - outcome.failed as f64 / attempted as f64,
    );

    println!(
        "{workload} seed {seed} seconds {seconds} trace {} threads {threads} (nproc {nproc})",
        u8::from(trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let chosen: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in chosen {
        let value = match outcome.values.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => {
                eprintln!("ca-perfbench: {workload} did not measure {name}");
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("ca-perfbench: {name} is not finite ({value})");
            std::process::exit(1);
        }
        println!("  {name:<28} {value:>18.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_the_benchmark_spec() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let doc = ca_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let e2e: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, lower)| {
                let better = if lower { "lower" } else { "higher" };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = list("per_layer")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
