//! `charlib_full` — the conventional flow at paper-scale cell size.
//!
//! One iteration runs the session-bound library driver over the
//! full-profile C40 library with skew and LVT/HVT flavors (942 cells,
//! 157 distinct structures) with a fresh cache and a fresh journal,
//! renders the `.cam` documents one cell at a time (the per-cell call
//! whose latency this workload reports), then reopens the store and
//! runs again (journal reads plus re-verification). The seed permutes
//! library order. There is no ML here: a forest change predicts no change on
//! this workload, while simulation, isomorphism certification and the
//! journal are all exercised.

use crate::probe::{self, Delta};
use crate::trace::Tracer;
use crate::{digest, median_by, repeat, stats, Ctx, Outcome, SetupTimes};
use ca_bench::{perf::bench_library, Profile};
use ca_core::{
    characterize_library_with_session, export_cam_with, CharCache, PreparedCell, Session,
};
use ca_defects::{CaModel, GenerateOptions};
use ca_netlist::{Cell, Library};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Nearest-rank percentile reported as `latency_tail_us`, over the
/// per-cell `.cam` renders: 942 per iteration, and a run of the
/// benchmark's 20 s makes five or more iterations.
const TAIL_PCT: f64 = 99.0;

struct Iteration {
    wall_s: f64,
    window: (u64, u64),
    /// Wall time of each driver call (cold, export, resume), µs.
    call_us: [f64; 3],
    /// Wall time of each cell's `.cam` render in the export, µs.
    render_us: Vec<f64>,
    cells: u64,
    export_bytes: f64,
    hit_share: f64,
    delta: Delta,
    cpu_s: f64,
}

pub fn run(ctx: &Ctx, out: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    let synthesize = || bench_library(Profile::Full);
    let mut setup = SetupTimes::default();
    let mut library = setup.chunk(synthesize);
    ctx.permute(&mut library.cells);

    let mut representatives: Vec<Cell> = Vec::new();
    let untraced_tracer = Tracer::new(false);
    let untraced: Vec<Iteration> = repeat(ctx.seconds, |i| {
        iteration(
            ctx,
            &library,
            &untraced_tracer,
            i,
            out,
            &mut representatives,
        )
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    setup.chunk(synthesize);
    out.set("setup_s", setup.median());
    out.set("netlist.synth_s", setup.median());
    let walls: Vec<f64> = untraced.iter().map(|it| it.wall_s).collect();
    let run_s = stats::median(&walls).unwrap_or(0.0);
    out.note_sample("run_s", "s", &walls);
    if !ctx.trace {
        for (k, what) in ["cold driver call", "export", "resume driver call"]
            .iter()
            .enumerate()
        {
            let calls: Vec<f64> = untraced.iter().map(|it| it.call_us[k]).collect();
            out.note_sample(what, "us", &calls);
        }
        let render_us: Vec<f64> = untraced.iter().flat_map(|it| it.render_us.clone()).collect();
        let done: u64 = untraced.iter().map(|it| it.cells).sum();
        out.timing(&walls, done as f64, &render_us, TAIL_PCT, "per-cell .cam render");
        // No cell takes an ML route here: 1 by definition, not measured.
        out.set("ml_accuracy", 1.0);
        let last = untraced.last().expect("repeat runs at least once");
        out.set("modeled_reduction", last.hit_share);
        return Ok(());
    }

    let traced: Vec<Iteration> = repeat(ctx.seconds, |i| {
        iteration(ctx, &library, tracer, i, out, &mut representatives)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    out.set(
        "core.charlib_cold_s",
        median_by(&traced, |it| it.call_us[0] / 1e6),
    );
    out.set(
        "core.export_s",
        median_by(&traced, |it| it.call_us[1] / 1e6),
    );
    out.set(
        "core.charlib_resume_s",
        median_by(&traced, |it| it.call_us[2] / 1e6),
    );
    out.set(
        "exec.cpu_util",
        median_by(&traced, |it| it.cpu_s / (it.wall_s * ctx.threads as f64)),
    );
    let last = traced.last().expect("repeat runs at least once");
    out.set("core.export_bytes", last.export_bytes);
    probe::layer_counters(out, &last.delta);
    let windows: Vec<(u64, u64)> = traced.iter().map(|it| it.window).collect();
    out.trace_summary(tracer, &windows, run_s);
    decompose(&representatives, out);
    Ok(())
}

/// One timed cold + export + resume cycle in a fresh directory, then
/// its output checks (untimed).
fn iteration(
    ctx: &Ctx,
    library: &Library,
    tracer: &Tracer,
    run: u64,
    out: &mut Outcome,
    representatives: &mut Vec<Cell>,
) -> Result<Iteration, String> {
    let options = GenerateOptions::default();
    let dir = ctx.work.join(format!("iter-{run}"));
    let store = dir.join("journal.caj");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let before = probe::counters();
    let cpu0 = probe::cpu_s();
    let start = Instant::now();

    let cache = CharCache::new();
    let t = Instant::now();
    let (cold, _) = tracer
        .time("core.charlib_cold", None, run, || {
            let session = Session::open(&store)?;
            characterize_library_with_session(library, options, &ctx.executor, &cache, &session)
        })
        .map_err(|e| format!("cold run: {e}"))?;
    let cold_s = t.elapsed().as_secs_f64();

    // The export, one cell at a time so that each render is timed.
    let t = Instant::now();
    let mut render_us = Vec::with_capacity(cold.len());
    let exported: Vec<(String, String)> = tracer.time("core.export", None, run, || {
        cold.iter()
            .flat_map(|p| {
                let r = Instant::now();
                let doc = export_cam_with(std::slice::from_ref(p), false);
                render_us.push(r.elapsed().as_secs_f64() * 1e6);
                doc
            })
            .collect()
    });
    let export_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (resumed, _) = tracer
        .time("core.charlib_resume", None, run, || {
            let session = Session::open(&store)?;
            characterize_library_with_session(
                library,
                options,
                &ctx.executor,
                &CharCache::new(),
                &session,
            )
        })
        .map_err(|e| format!("resume run: {e}"))?;
    let resume_s = t.elapsed().as_secs_f64();
    let end = Instant::now();
    let wall_s = end.duration_since(start).as_secs_f64();
    let cpu_s = probe::cpu_s() - cpu0;
    let delta = Delta::between(&before, &probe::counters());

    // Output checks, outside the timed region.
    let files = exported.len();
    let cold_docs: BTreeMap<String, String> = exported.into_iter().collect();
    let resumed_docs: BTreeMap<String, String> =
        export_cam_with(&resumed, false).into_iter().collect();
    let cold_digest = digest::digest_docs(&cold_docs);
    out.check(digest::check(
        "charlib cold .cam export",
        cold_digest,
        digest::CHARLIB_CAM,
    ));
    let identical = cold_docs
        .iter()
        .filter(|(name, body)| resumed_docs.get(*name) == Some(*body))
        .count();
    if identical != cold_docs.len() || resumed_docs.len() != cold_docs.len() {
        out.mismatches.push(format!(
            "charlib resume export differs from cold export ({identical} of {} equal)",
            cold_docs.len()
        ));
    }
    if files != library.len() || cold_docs.len() != library.len() {
        out.mismatches.push(format!(
            "charlib exported {files} documents for {} cells",
            library.len()
        ));
    }
    if representatives.is_empty() {
        *representatives = distinct_structures(&cold);
        out.notes.push(format!(
            "{} cells, {} distinct structures, {:.1} MB exported",
            library.len(),
            representatives.len(),
            export_bytes(&cold_docs) / 1e6
        ));
    }
    let stats = cache.stats();
    let cells = 2 * library.len() as u64;
    out.attempted += cells;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Iteration {
        wall_s,
        window: (tracer.ns(start), tracer.ns(end)),
        call_us: [cold_s * 1e6, export_s * 1e6, resume_s * 1e6],
        render_us,
        cells,
        export_bytes: export_bytes(&cold_docs),
        hit_share: probe::ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
        delta,
        cpu_s,
    })
}

fn export_bytes(docs: &BTreeMap<String, String>) -> f64 {
    docs.values().map(|body| body.len() as f64).sum()
}

/// The first cell of each distinct canonical structure.
fn distinct_structures(prepared: &[PreparedCell]) -> Vec<Cell> {
    let mut seen = BTreeSet::new();
    prepared
        .iter()
        .filter(|p| seen.insert(p.canonical.wiring_hash()))
        .map(|p| p.cell.clone())
        .collect()
}

/// Decomposition pass, after the timed region: golden preparation and
/// defect simulation of each distinct structure, one cell at a time.
fn decompose(representatives: &[Cell], out: &mut Outcome) {
    let t = Instant::now();
    for cell in representatives {
        let _ = PreparedCell::prepare(cell.clone());
    }
    out.set("core.prepare_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    for cell in representatives {
        std::hint::black_box(CaModel::generate(cell, GenerateOptions::default()));
    }
    out.set("defects.generate_s", t.elapsed().as_secs_f64());
}
