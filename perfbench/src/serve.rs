//! `serve_c40` — the single-cell request that `ca-serve` answers.
//!
//! Each pass starts an in-process server over a Unix-domain socket,
//! bound to the full-profile C40 library (314 cells) with a fresh store,
//! and runs one closed-loop client on one connection. The client first
//! requests every cell of the library once (misses: simulate, then a
//! journal append with fsync), then sends [`REPEATS`] repeats of those
//! cells (hits), with every [`SPICE_EVERY`]-th repeat an inline C28
//! SPICE netlist (parse, then the donor path). The seed permutes the
//! stream. It shares the cache and store layers with `charlib_full` but
//! in request-sized pieces, with reads beside writes.

use crate::probe::{self, Delta};
use crate::trace::{SpanId, Tracer};
use crate::{digest, median_by, repeat, stats, Ctx, Outcome, SetupTimes};
use ca_bench::Profile;
use ca_core::{characterize_library_with, export_cam_with, CharCache};
use ca_defects::{to_cam, GenerateOptions};
use ca_netlist::{generate_library, spice, writer, Technology};
use ca_rng::Rng;
use ca_serve::protocol::{ErrorKind, Response};
use ca_serve::server::{Endpoint, ServeConfig, Server};
use ca_serve::ServeClient;
use std::collections::BTreeMap;
use std::time::Instant;

// The traffic mix. No recorded production mix exists for `ca-serve`,
// so its numbers are assumptions, chosen as follows; the per-kind
// latencies in the notes and in the traced run do not depend on them.
//
// One client, not one per core: a closed-loop client waits while the
// server works, so one client keeps about one core busy and leaves the
// other core of a 2-vCPU machine to the kernel and to fsync. With two
// clients on two cores, the median latency of runs minutes apart
// spread by up to 28% of its value.

/// Repeat requests sent per pass, after the misses: 314 + 1500 = 1814
/// requests per pass, so p99 has 18 samples beyond it after a single
/// pass. Repeats are 83% of the requests, so the median of all
/// requests falls inside the bulk of the repeat latencies (near their
/// p60), not on the shoulder where the slower first requests begin.
const REPEATS: usize = 1500;
/// Every `SPICE_EVERY`-th repeat carries an inline SPICE netlist: a
/// minority path (cells outside the bound library), yet 187 requests
/// per pass, enough for a SPICE median from every pass.
const SPICE_EVERY: usize = 8;
/// Distinct C28 netlists the SPICE requests draw from, spread over the
/// C28 library: each is sent about 8 times a pass, so both a first
/// sight (parse, donor path) and repeats of the same netlist occur.
const SPICE_CELLS: usize = 24;

/// Nearest-rank percentile reported as `latency_tail_us`.
const TAIL_PCT: f64 = 99.0;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Miss,
    Hit,
    Spice,
}

enum Ask<'a> {
    Name(&'a str, Kind),
    Spice(&'a str),
}

struct Sample {
    kind: Kind,
    latency_us: f64,
    queue_us: f64,
    service_us: f64,
    journal_us: f64,
    bytes: f64,
    ok: bool,
    shed: bool,
}

/// A client's samples and the golden mismatches it saw.
type ClientResult = Result<(Vec<Sample>, Vec<String>), String>;

struct Pass {
    wall_s: f64,
    start_s: f64,
    window: (u64, u64),
    samples: Vec<Sample>,
    delta: Delta,
    cpu_s: f64,
}

pub fn run(ctx: &Ctx, out: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    let synthesize = || generate_library(&Profile::Full.library_config(Technology::C40));
    let mut setup = SetupTimes::default();
    let library = setup.chunk(synthesize);
    let options = GenerateOptions::default();

    // SPICE inputs and the batch golden: benchmark-only, untimed.
    let c28 = generate_library(&Profile::Full.library_config(Technology::C28));
    let stride = (c28.len() / SPICE_CELLS).max(1);
    let spice_texts: Vec<String> = c28
        .cells
        .iter()
        .step_by(stride)
        .take(SPICE_CELLS)
        .map(|lc| {
            let name = format!("C28_{}", lc.cell.name());
            writer::to_spice(&lc.cell.clone().with_name(name))
        })
        .collect();
    let (prepared, _) =
        characterize_library_with(&library, options, &ctx.executor, &CharCache::new())
            .map_err(|e| format!("golden run: {e}"))?;
    let mut golden: BTreeMap<String, String> = export_cam_with(&prepared, true)
        .into_iter()
        .map(|(file, body)| (file.trim_end_matches(".cam").to_string(), body))
        .collect();
    out.check(digest::check(
        "serve batch golden",
        digest::digest_docs(&golden),
        digest::SERVE_GOLDEN,
    ));
    let spice_cache = CharCache::new();
    for text in &spice_texts {
        let cell = spice::parse_cell(text).map_err(|e| format!("SPICE input: {e}"))?;
        let name = cell.name().to_string();
        let model = spice_cache
            .characterize(cell, options)
            .map_err(|e| format!("SPICE golden {name}: {e}"))?
            .model
            .ok_or_else(|| format!("SPICE golden {name}: no model"))?;
        golden.insert(name, to_cam(&model));
    }

    // The seeded stream: the library once, then repeats of its cells
    // with a fixed SPICE share.
    let mut names: Vec<String> = library
        .cells
        .iter()
        .map(|lc| lc.cell.name().to_string())
        .collect();
    ctx.permute(&mut names);
    let mut rng = ca_rng::Xoshiro256StarStar::seed_from_u64(ctx.seed.wrapping_mul(31));
    let mut stream: Vec<Ask> = names.iter().map(|n| Ask::Name(n, Kind::Miss)).collect();
    for k in 0..REPEATS {
        stream.push(if k % SPICE_EVERY == SPICE_EVERY - 1 {
            Ask::Spice(&spice_texts[rng.gen_index(spice_texts.len())])
        } else {
            Ask::Name(&names[rng.gen_index(names.len())], Kind::Hit)
        });
    }

    let untraced_tracer = Tracer::new(false);
    let run_passes = |tracer: &Tracer, out: &mut Outcome| -> Result<Vec<Pass>, String> {
        repeat(ctx.seconds, |i| {
            pass(ctx, &library, &stream, &golden, tracer, i, out)
        })
        .into_iter()
        .collect()
    };
    let untraced = run_passes(&untraced_tracer, out)?;
    setup.chunk(synthesize);
    out.set("netlist.synth_s", setup.median());
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let run_s = stats::median(&walls).unwrap_or(0.0);
    out.note_sample("run_s", "s", &walls);
    if !ctx.trace {
        let starts: Vec<f64> = untraced.iter().map(|p| p.start_s).collect();
        let samples: Vec<&Sample> = untraced.iter().flat_map(|p| &p.samples).collect();
        for (kind, what) in [
            (Kind::Miss, "miss latency"),
            (Kind::Hit, "hit latency"),
            (Kind::Spice, "SPICE latency"),
        ] {
            let of_kind: Vec<f64> = samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.latency_us)
                .collect();
            out.note_sample(what, "us", &of_kind);
        }
        let latency: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        let served = samples.iter().filter(|s| s.ok).count() as f64;
        out.timing(&walls, served, &latency, TAIL_PCT, "request latency");
        let delta = &untraced.last().expect("repeat runs at least once").delta;
        let (hits, misses) = (
            delta.get("ca_core.cache.hits"),
            delta.get("ca_core.cache.misses"),
        );
        out.set("setup_s", setup.median() + stats::median(&starts).unwrap_or(0.0));
        // No request takes an ML route here: 1 by definition, not measured.
        out.set("ml_accuracy", 1.0);
        out.set("modeled_reduction", probe::ratio(hits, hits + misses));
        return Ok(());
    }

    let traced = run_passes(tracer, out)?;
    let samples: Vec<&Sample> = traced.iter().flat_map(|p| &p.samples).collect();
    let p = |sel: &dyn Fn(&Sample) -> Option<f64>, pct: f64| {
        let values: Vec<f64> = samples.iter().filter_map(|s| sel(s)).collect();
        stats::percentile(&stats::sorted(&values), pct).unwrap_or(0.0)
    };
    out.set("serve.queue_p50_us", p(&|s| Some(s.queue_us), 50.0));
    out.set("serve.queue_p99_us", p(&|s| Some(s.queue_us), 99.0));
    out.set("serve.service_p50_us", p(&|s| Some(s.service_us), 50.0));
    out.set("serve.service_p99_us", p(&|s| Some(s.service_us), 99.0));
    out.set("serve.journal_p50_us", p(&|s| Some(s.journal_us), 50.0));
    out.set("serve.journal_p99_us", p(&|s| Some(s.journal_us), 99.0));
    out.set(
        "serve.wire_p50_us",
        p(&|s| Some(s.latency_us - s.queue_us - s.service_us), 50.0),
    );
    let of_kind = |k: Kind| move |s: &Sample| (s.kind == k).then_some(s.latency_us);
    out.set("serve.hit_latency_p50_us", p(&of_kind(Kind::Hit), 50.0));
    out.set("serve.miss_latency_p50_us", p(&of_kind(Kind::Miss), 50.0));
    out.set("serve.spice_latency_p50_us", p(&of_kind(Kind::Spice), 50.0));
    out.set(
        "serve.response_bytes",
        p(&|s| s.ok.then_some(s.bytes), 50.0),
    );
    out.set(
        "serve.shed",
        samples.iter().filter(|s| s.shed).count() as f64,
    );
    out.set(
        "exec.cpu_util",
        median_by(&traced, |p| p.cpu_s / (p.wall_s * ctx.threads as f64)),
    );
    probe::layer_counters(
        out,
        &traced.last().expect("repeat runs at least once").delta,
    );
    let windows: Vec<(u64, u64)> = traced.iter().map(|p| p.window).collect();
    out.trace_summary(tracer, &windows, run_s);
    Ok(())
}

/// One pass: start a server on a fresh store, run the client stream
/// (timed), then shut the server down (untimed).
fn pass(
    ctx: &Ctx,
    library: &ca_netlist::Library,
    stream: &[Ask],
    golden: &BTreeMap<String, String>,
    tracer: &Tracer,
    run: u64,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let store = ctx.work.join(format!("pass-{run}.caj"));
    let socket = ctx.work.join(format!("pass-{run}.sock"));
    let mut config = ServeConfig::new(&store, library.clone());
    config.admission.slots = ctx.threads;
    config.admission.queue = 1024;
    config.admission.per_client = 1024;
    let t = Instant::now();
    let server = Server::start(config, &[Endpoint::Uds(socket.clone())])
        .map_err(|e| format!("server start: {e}"))?;
    let start_s = t.elapsed().as_secs_f64();

    let before = probe::counters();
    let cpu0 = probe::cpu_s();
    let start = Instant::now();
    // A panicking client still lets the server shut down below.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        client(stream, &socket, golden, tracer, run)
    }))
    .unwrap_or_else(|_| Err("the client panicked".into()));
    let end = Instant::now();
    let wall_s = end.duration_since(start).as_secs_f64();
    let cpu_s = probe::cpu_s() - cpu0;
    let delta = Delta::between(&before, &probe::counters());
    server.shutdown();
    let _ = std::fs::remove_file(&store);

    let (samples, mismatches) = result?;
    out.mismatches.extend(mismatches);
    out.attempted += samples.len() as u64;
    out.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    Ok(Pass {
        wall_s,
        start_s,
        window: (tracer.ns(start), tracer.ns(end)),
        samples,
        delta,
        cpu_s,
    })
}

/// One closed-loop client: sends its stream back to back and checks
/// every served model against the golden bytes.
fn client(
    stream: &[Ask],
    socket: &std::path::Path,
    golden: &BTreeMap<String, String>,
    tracer: &Tracer,
    run: u64,
) -> ClientResult {
    let span = tracer.open("serve.client", None, run);
    let parent: Option<SpanId> = span.id();
    let mut client = ServeClient::connect_uds(socket).map_err(|e| format!("connect: {e}"))?;
    let id = "bench";
    let mut samples = Vec::with_capacity(stream.len());
    let mut mismatches = Vec::new();
    for ask in stream {
        let t = Instant::now();
        let (kind, response) = match ask {
            Ask::Name(name, kind) => (*kind, client.characterize(id, name, 0)),
            Ask::Spice(text) => (Kind::Spice, client.characterize_spice(id, text, 0)),
        };
        let end = Instant::now();
        tracer.record("serve.request", t, end, parent, run);
        let latency_us = end.duration_since(t).as_secs_f64() * 1e6;
        let mut sample = Sample {
            kind,
            latency_us,
            queue_us: 0.0,
            service_us: 0.0,
            journal_us: 0.0,
            bytes: 0.0,
            ok: false,
            shed: false,
        };
        match response.map_err(|e| format!("request failed: {e}"))? {
            Response::Model {
                cell, cam, timing, ..
            } => {
                if golden.get(&cell) != Some(&cam) {
                    mismatches.push(format!("served {cell} differs from the batch golden"));
                }
                sample.queue_us = timing.queue_us as f64;
                sample.service_us = timing.service_us as f64;
                sample.journal_us = timing.journal_us as f64;
                sample.bytes = cam.len() as f64;
                sample.ok = true;
            }
            Response::Error { kind, .. } => {
                sample.shed = matches!(
                    kind,
                    ErrorKind::Overloaded
                        | ErrorKind::QuotaExceeded
                        | ErrorKind::Draining
                        | ErrorKind::DeadlineExceeded
                );
            }
            other => return Err(format!("unexpected response {other:?}")),
        }
        samples.push(sample);
    }
    drop(span);
    Ok((samples, mismatches))
}
