//! `ca-bench serve` — load generator for the ca-serve daemon.
//!
//! Two phases against in-process [`ca_serve::Server`] instances on a
//! Unix-domain socket (TCP loopback off Unix):
//!
//! 1. **Closed loop**: `threads` workers issue requests back-to-back
//!    over the whole library, as many rounds as it takes to reach
//!    [`MIN_CLOSED_REQUESTS`]. Every served model is compared
//!    byte-for-byte against a batch golden run — the bench fails hard on
//!    divergence before reporting any number — and the per-request
//!    latencies feed the p50/p95/p99 figures. Only each cell's first
//!    request may reach the journal: the bench also fails unless the
//!    daemon's `session.journaled` equals the number of distinct cells.
//! 2. **Open loop**: arrivals are fired on a fixed schedule regardless
//!    of completions against a deliberately small queue, so admission
//!    control is actually exercised: the report counts served vs shed
//!    and proves overload degrades to structured errors, not latency
//!    collapse or worse.

// Benchmark results feed BENCH_serve.json; a stray unwrap would abort
// the run instead of reporting the failure.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::corpus::Profile;
use ca_core::{characterize_library_robust, export_cam_with, CharCache, FaultPolicy};
use ca_defects::GenerateOptions;
use ca_exec::Executor;
use ca_netlist::library::{generate_library, Library};
use ca_netlist::Technology;
use ca_serve::protocol::{ErrorKind, Response};
use ca_serve::server::{Endpoint, ServeConfig, Server};
use ca_serve::ServeClient;
use ca_sim::SimBudget;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop requests per run, at least: p99 then has at least 10
/// samples beyond it, at any thread count.
pub const MIN_CLOSED_REQUESTS: usize = 1000;

/// Measured numbers of one serve-bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBench {
    /// Library size served.
    pub cells: usize,
    /// Closed-loop requests issued (all served).
    pub closed_requests: usize,
    /// Closed-loop throughput, requests/second.
    pub closed_rps: f64,
    /// Closed-loop latency percentiles, microseconds.
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Open-loop requests offered.
    pub open_offered: usize,
    /// Open-loop requests served with a model.
    pub open_served: usize,
    /// Open-loop requests shed with structured frames.
    pub open_shed: usize,
    /// Whether every served model matched the batch golden bytes
    /// (always true when this struct is returned by [`run`]).
    pub identical: bool,
    /// Mean server-side queue wait per closed-loop request, µs (from
    /// the per-request timing breakdown in wire-v2 `Model` frames).
    pub srv_queue_us: u64,
    /// Mean server-side service time per closed-loop request, µs.
    pub srv_service_us: u64,
    /// Mean server-side journal time per closed-loop request, µs.
    pub srv_journal_us: u64,
    /// Journal appends of the closed-loop daemon (its `Stats` frame's
    /// `session.journaled`): one per distinct cell.
    pub journaled: usize,
    /// `ca_serve.*` counters present in the scraped
    /// `MetricsSnapshot` (proves the daemon is machine-scrapeable).
    pub metrics_counters: usize,
}

impl ServeBench {
    /// The `BENCH_serve.json` document (hand-rendered: the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"ca-serve-bench/3\",\n  \"cells\": {},\n  \
             \"closed_requests\": {},\n  \"closed_rps\": {:.1},\n  \
             \"p50_us\": {},\n  \"p95_us\": {},\n  \"p99_us\": {},\n  \
             \"srv_queue_us\": {},\n  \"srv_service_us\": {},\n  \"srv_journal_us\": {},\n  \
             \"journaled\": {},\n  \
             \"open_offered\": {},\n  \"open_served\": {},\n  \"open_shed\": {},\n  \
             \"metrics_counters\": {},\n  \
             \"identical\": {}\n}}\n",
            self.cells,
            self.closed_requests,
            self.closed_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.srv_queue_us,
            self.srv_service_us,
            self.srv_journal_us,
            self.journaled,
            self.open_offered,
            self.open_served,
            self.open_shed,
            self.metrics_counters,
            self.identical
        )
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "serve bench — {} cells\n  closed loop: {} requests, {:.0} req/s, \
             p50 {} µs, p95 {} µs, p99 {} µs\n  server side: queue {} µs, service {} µs, \
             journal {} µs (means), {} journal appends\n  open loop:   {} offered, {} served, \
             {} shed (structured)\n  metrics snapshot: {} ca_serve counters scraped\n  \
             models byte-identical to batch golden: {}\n",
            self.cells,
            self.closed_requests,
            self.closed_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.srv_queue_us,
            self.srv_service_us,
            self.srv_journal_us,
            self.journaled,
            self.open_offered,
            self.open_served,
            self.open_shed,
            self.metrics_counters,
            self.identical
        )
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank: the smallest value with at least p% of the sample
    // at or below it.
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn endpoint(dir: &std::path::Path) -> Endpoint {
    #[cfg(unix)]
    {
        Endpoint::Uds(dir.join("bench.sock"))
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Endpoint::Tcp("127.0.0.1:0".into())
    }
}

fn connect(server: &Server) -> ServeClient {
    #[cfg(unix)]
    if let Some(path) = server.uds_path() {
        return ServeClient::connect_uds(path)
            .unwrap_or_else(|e| panic!("uds connect failed: {e}"));
    }
    let addr = server
        .tcp_addr()
        .unwrap_or_else(|| panic!("server bound no endpoint"));
    ServeClient::connect_tcp(addr).unwrap_or_else(|e| panic!("tcp connect failed: {e}"))
}

fn bench_library(profile: Profile) -> Library {
    let mut library = generate_library(&profile.library_config(Technology::C40));
    // Serving latency, not library scale, is under test: enough cells
    // to keep every slot busy with distinct structures.
    let cap = match profile {
        Profile::Quick => 8,
        Profile::Full => 24,
    };
    library.cells.truncate(cap);
    library
}

/// Runs the benchmark; see the module docs.
///
/// # Panics
///
/// Panics if the daemon cannot start, a request fails transport-level,
/// or any served model diverges from the batch golden bytes — a serving
/// layer that changes model bytes must never report a timing.
pub fn run(profile: Profile) -> ServeBench {
    let library = bench_library(profile);
    let cells = library.len();
    let threads = Executor::from_env().threads().max(2);
    let work_dir = std::env::temp_dir().join(format!("ca-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", work_dir.display()));

    // Batch golden: the robust driver, no server, no deadlines.
    let golden_outcome = characterize_library_robust(
        &library,
        GenerateOptions::default(),
        &SimBudget::unlimited(),
        FaultPolicy::SkipAndReport,
        &Executor::from_env(),
        &CharCache::new(),
        None,
    )
    .unwrap_or_else(|e| panic!("golden run failed: {e}"));
    let golden: Arc<BTreeMap<String, String>> = Arc::new(
        export_cam_with(&golden_outcome.prepared, true)
            .into_iter()
            .map(|(file, body)| (file.trim_end_matches(".cam").to_string(), body))
            .collect(),
    );

    // ---- Closed loop: ample queue, measure service latency. --------
    let mut config = ServeConfig::new(work_dir.join("closed.caj"), library.clone());
    config.admission.slots = threads;
    config.admission.queue = 1024;
    config.admission.per_client = 1024;
    let server = Server::start(config, &[endpoint(&work_dir)])
        .unwrap_or_else(|e| panic!("closed-loop server failed to start: {e}"));
    let names: Vec<String> = library
        .cells
        .iter()
        .map(|lc| lc.cell.name().to_string())
        .collect();
    let rounds = MIN_CLOSED_REQUESTS.div_ceil(threads * names.len());
    let names = Arc::new(names);
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|w| {
            let names = Arc::clone(&names);
            let golden = Arc::clone(&golden);
            let mut client = connect(&server);
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                let mut timing_sum = [0u64; 3];
                for _round in 0..rounds {
                    for i in 0..names.len() {
                        // Stagger start points so workers collide on
                        // cells (exercising coalescing) without all
                        // hammering the same cell in lockstep.
                        let name = &names[(i + w) % names.len()];
                        let t = Instant::now();
                        match client
                            .characterize(&format!("bench-{w}"), name, 0)
                            .unwrap_or_else(|e| panic!("closed-loop request failed: {e}"))
                        {
                            Response::Model {
                                cell, cam, timing, ..
                            } => {
                                let want = golden
                                    .get(&cell)
                                    .unwrap_or_else(|| panic!("golden misses {cell}"));
                                assert_eq!(want, &cam, "{cell} diverged from batch golden");
                                timing_sum[0] += timing.queue_us;
                                timing_sum[1] += timing.service_us;
                                timing_sum[2] += timing.journal_us;
                            }
                            other => panic!("closed-loop got {other:?}"),
                        }
                        latencies.push(t.elapsed().as_micros() as u64);
                    }
                }
                (latencies, timing_sum)
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    let mut timing_sum = [0u64; 3];
    for worker in workers {
        let (worker_latencies, worker_timing) = worker
            .join()
            .unwrap_or_else(|_| panic!("closed-loop worker panicked"));
        latencies.extend(worker_latencies);
        for (total, part) in timing_sum.iter_mut().zip(worker_timing) {
            *total += part;
        }
    }
    let closed_elapsed = start.elapsed().as_secs_f64();
    // Scrape the live daemon before shutdown: every repeat of a
    // journaled cell must have left the journal alone, and the
    // machine-readable registry snapshot must parse and carry the
    // serving counters.
    let mut probe = connect(&server);
    let journaled = match probe.stats() {
        Ok(Response::Stats { body }) => body
            .lines()
            .find_map(|line| line.strip_prefix("session.journaled "))
            .and_then(|n| n.trim().parse::<usize>().ok())
            .unwrap_or_else(|| panic!("stats frame has no session.journaled line:\n{body}")),
        Ok(other) => panic!("stats got {other:?}"),
        Err(e) => panic!("stats failed: {e}"),
    };
    assert_eq!(
        journaled, cells,
        "the closed loop journaled {journaled} records for {cells} distinct cells: \
         repeats of a journaled cell must not append"
    );
    let metrics_counters = {
        let json = match probe.metrics_snapshot() {
            Ok(Response::MetricsSnapshot { json }) => json,
            Ok(other) => panic!("metrics snapshot got {other:?}"),
            Err(e) => panic!("metrics snapshot failed: {e}"),
        };
        let doc = ca_obs::json::parse(&json)
            .unwrap_or_else(|e| panic!("metrics snapshot does not parse: {e}"));
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("ca-obs-metrics/1"),
            "unexpected metrics schema"
        );
        doc.get("counters")
            .and_then(|v| v.as_object())
            .map(|counters| {
                counters
                    .keys()
                    .filter(|name| name.starts_with("ca_serve."))
                    .count()
            })
            .unwrap_or_else(|| panic!("metrics snapshot has no counters object"))
    };
    assert!(
        metrics_counters > 0,
        "a loaded daemon must expose ca_serve counters"
    );
    server.shutdown();
    latencies.sort_unstable();
    let closed_requests = latencies.len();
    let closed_rps = closed_requests as f64 / closed_elapsed.max(1e-9);

    // ---- Open loop: tiny queue + service delay, provoke shedding. --
    let mut config = ServeConfig::new(work_dir.join("open.caj"), library.clone());
    config.admission.slots = 2;
    config.admission.queue = 2;
    config.admission.per_client = 1024;
    config.service_delay = Duration::from_millis(15);
    let server = Server::start(config, &[endpoint(&work_dir)])
        .unwrap_or_else(|e| panic!("open-loop server failed to start: {e}"));
    let open_offered = match profile {
        Profile::Quick => 60,
        Profile::Full => 200,
    };
    let arrivals: Vec<_> = (0..open_offered)
        .map(|i| {
            let names = Arc::clone(&names);
            let mut client = connect(&server);
            let handle = std::thread::spawn(move || {
                let name = &names[i % names.len()];
                match client
                    .characterize(&format!("open-{i}"), name, 500)
                    .unwrap_or_else(|e| panic!("open-loop request failed: {e}"))
                {
                    Response::Model { .. } => true,
                    Response::Error { kind, .. } => {
                        assert!(
                            matches!(kind, ErrorKind::Overloaded | ErrorKind::DeadlineExceeded),
                            "open loop shed with unexpected kind {kind:?}"
                        );
                        false
                    }
                    other => panic!("open-loop got {other:?}"),
                }
            });
            // Fixed arrival schedule, independent of completions.
            std::thread::sleep(Duration::from_millis(5));
            handle
        })
        .collect();
    let mut open_served = 0usize;
    let mut open_shed = 0usize;
    for arrival in arrivals {
        if arrival
            .join()
            .unwrap_or_else(|_| panic!("open-loop arrival panicked"))
        {
            open_served += 1;
        } else {
            open_shed += 1;
        }
    }
    server.shutdown();

    let n = closed_requests.max(1) as u64;
    let bench = ServeBench {
        cells,
        closed_requests,
        closed_rps,
        p50_us: percentile(&latencies, 50.0),
        p95_us: percentile(&latencies, 95.0),
        p99_us: percentile(&latencies, 99.0),
        open_offered,
        open_served,
        open_shed,
        identical: true,
        srv_queue_us: timing_sum[0] / n,
        srv_service_us: timing_sum[1] / n,
        srv_journal_us: timing_sum[2] / n,
        journaled,
        metrics_counters,
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    bench
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_and_render_are_well_formed() {
        let bench = ServeBench {
            cells: 8,
            closed_requests: 1008,
            closed_rps: 120.0,
            p50_us: 900,
            p95_us: 2500,
            p99_us: 4000,
            open_offered: 60,
            open_served: 40,
            open_shed: 20,
            identical: true,
            srv_queue_us: 30,
            srv_service_us: 700,
            srv_journal_us: 12,
            journaled: 8,
            metrics_counters: 5,
        };
        let json = bench.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"ca-serve-bench/3\""), "{json}");
        assert!(json.contains("\"journaled\": 8"), "{json}");
        assert!(json.contains("\"p99_us\": 4000"), "{json}");
        assert!(json.contains("\"srv_service_us\": 700"), "{json}");
        assert!(json.contains("\"metrics_counters\": 5"), "{json}");
        let render = bench.render();
        assert!(render.contains("p95 2500"), "{render}");
        assert!(render.contains("service 700"), "{render}");
        assert!(render.contains("8 journal appends"), "{render}");
    }

    #[test]
    fn percentiles_pick_sane_ranks() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
