//! `hybrid_quick` — the §V.C hybrid flow at quick scale, the system's
//! defining unit of work.
//!
//! One iteration characterizes the SOI28 training library, trains the
//! group forests (`HybridFlow::new`), routes every C40 cell through the
//! Fig. 7 gate with reinforcement on, and renders the `.cam` models.
//! Forest fitting is nearly all of the time, so trainer work shows here
//! and nowhere else.
//!
//! The seed permutes the order of the training library. The C40 cells
//! are routed in library order: the reinforcement loop makes the work
//! depend on that order (which cells are simulated, which groups are
//! refit and how large they are by then), and permuting it changed
//! `run_s` by up to 60% between seeds. Training is invariant
//! to corpus order, so routes and models, and their pinned digests, are
//! the same at every seed.

use crate::probe::{self, Delta};
use crate::trace::Tracer;
use crate::{digest, median_by, repeat, secs, stats, Ctx, Outcome, SetupTimes};
use ca_bench::Profile;
use ca_core::{
    characterize_library_with, train_group_forest, CharCache, CostModel, HybridFlow, HybridOptions,
    HybridReport, MlFlowParams, PreparedCell, Route,
};
use ca_defects::{to_cam, CaModel, GenerateOptions};
use ca_ml::Dataset;
use ca_netlist::{generate_library, Cell, Library, Technology};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile reported as `latency_tail_us`: the highest
/// that leaves ten of an iteration's 92 `generate` calls beyond it.
const TAIL_PCT: f64 = 89.0;

/// Measurements of one iteration.
struct Iteration {
    wall_s: f64,
    window: (u64, u64),
    cells: u64,
    failed: u64,
    /// Wall time of each `HybridFlow::generate` call, microseconds.
    cell_us: Vec<f64>,
    train_charlib_s: f64,
    train_s: f64,
    export_s: f64,
    ml_route_s: f64,
    sim_route_s: f64,
    sim_route_max_s: f64,
    ml_cells: u64,
    sim_cells: u64,
    accuracy: f64,
    reduction: f64,
    delta: Delta,
    cpu_s: f64,
    corpus: Vec<PreparedCell>,
}

pub fn run(ctx: &Ctx, out: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    // The quick-profile libraries of the §V.C experiment.
    let synthesize = || {
        (
            generate_library(&Profile::Quick.library_config(Technology::Soi28)),
            generate_library(&Profile::Quick.library_config(Technology::C40)),
        )
    };
    let mut setup = SetupTimes::default();
    let (mut soi, c40) = setup.chunk(synthesize);

    // Conventional truth for every C40 cell: benchmark-only, untimed.
    let (truth_cells, _) = characterize_library_with(
        &c40,
        GenerateOptions::default(),
        &ctx.executor,
        &CharCache::new(),
    )
    .map_err(|e| format!("truth characterization: {e}"))?;
    let truth: BTreeMap<String, CaModel> = truth_cells
        .into_iter()
        .filter_map(|p| p.model.map(|m| (p.cell.name().to_string(), m)))
        .collect();
    ctx.permute(&mut soi.cells);
    let order: Vec<Cell> = c40.cells.iter().map(|lc| lc.cell.clone()).collect();

    let untraced_tracer = Tracer::new(false);
    let iterate = |tracer: &Tracer, run: u64, out: &mut Outcome| {
        iteration(ctx, &soi, &order, &truth, tracer, run, out)
    };
    let untraced: Vec<Iteration> = repeat(ctx.seconds, |i| iterate(&untraced_tracer, i, out))
        .into_iter()
        .collect::<Result<_, _>>()?;
    setup.chunk(synthesize);
    out.set("setup_s", setup.median());
    out.set("netlist.synth_s", setup.median());
    let walls: Vec<f64> = untraced.iter().map(|it| it.wall_s).collect();
    let run_s = stats::median(&walls).unwrap_or(0.0);
    out.note_sample("run_s", "s", &walls);
    if !ctx.trace {
        let cell_us: Vec<f64> = untraced.iter().flat_map(|it| it.cell_us.clone()).collect();
        let done: u64 = untraced.iter().map(|it| it.cells - it.failed).sum();
        out.timing(&walls, done as f64, &cell_us, TAIL_PCT, "generate latency");
        let last = untraced.last().expect("repeat runs at least once");
        out.set("ml_accuracy", last.accuracy);
        out.set("modeled_reduction", last.reduction);
        return Ok(());
    }

    let traced: Vec<Iteration> = repeat(ctx.seconds, |i| iterate(tracer, i, out))
        .into_iter()
        .collect::<Result<_, _>>()?;
    out.set(
        "core.train_charlib_s",
        median_by(&traced, |it| it.train_charlib_s),
    );
    out.set("ml.train_s", median_by(&traced, |it| it.train_s));
    out.set("core.export_s", median_by(&traced, |it| it.export_s));
    out.set("flow.ml_route_s", median_by(&traced, |it| it.ml_route_s));
    out.set("flow.sim_route_s", median_by(&traced, |it| it.sim_route_s));
    out.set(
        "flow.sim_route_max_s",
        median_by(&traced, |it| it.sim_route_max_s),
    );
    out.set(
        "exec.cpu_util",
        median_by(&traced, |it| it.cpu_s / (it.wall_s * ctx.threads as f64)),
    );
    let last = traced.last().expect("repeat runs at least once");
    out.set("flow.ml_cells", last.ml_cells as f64);
    out.set("flow.sim_cells", last.sim_cells as f64);
    probe::layer_counters(out, &last.delta);
    let windows: Vec<(u64, u64)> = traced.iter().map(|it| it.window).collect();
    out.trace_summary(tracer, &windows, run_s);
    out.notes.push(format!(
        "ml.train_s + flow.sim_route_s = {:.1}% of traced run_s",
        100.0 * (median_by(&traced, |it| it.train_s) + median_by(&traced, |it| it.sim_route_s))
            / median_by(&traced, |it| secs(it.window))
    ));
    decompose(&last.corpus, out);
    Ok(())
}

/// One timed hybrid run, then its output checks (untimed).
fn iteration(
    ctx: &Ctx,
    soi: &Library,
    order: &[Cell],
    truth: &BTreeMap<String, CaModel>,
    tracer: &Tracer,
    run: u64,
    out: &mut Outcome,
) -> Result<Iteration, String> {
    let options = GenerateOptions::default();
    let before = probe::counters();
    let cpu0 = probe::cpu_s();
    let start = Instant::now();

    let t = Instant::now();
    let (corpus, _) = tracer
        .time("core.train_charlib", None, run, || {
            characterize_library_with(soi, options, &ctx.executor, &CharCache::new())
        })
        .map_err(|e| format!("training characterization: {e}"))?;
    let train_charlib_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut flow = tracer
        .time("ml.train", None, run, || {
            HybridFlow::new(
                &corpus,
                MlFlowParams::quick(),
                CostModel::paper_calibrated(),
                HybridOptions {
                    reinforce: true,
                    evaluate_ml_accuracy: false,
                    generate: options,
                },
            )
        })
        .map_err(|e| format!("HybridFlow::new: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();

    let mut report = HybridReport::default();
    let mut models = Vec::with_capacity(order.len());
    let mut cell_us = Vec::with_capacity(order.len());
    let mut failed = 0;
    let (mut ml_route_s, mut sim_route_s, mut sim_route_max_s) = (0.0, 0.0, 0.0f64);
    for cell in order {
        let cell = cell.clone();
        let t = Instant::now();
        let result = flow.generate(cell);
        let end = Instant::now();
        let took = end.duration_since(t).as_secs_f64();
        cell_us.push(took * 1e6);
        match result {
            Ok((model, outcome)) => {
                let name = if matches!(outcome.route, Route::Ml(_)) {
                    ml_route_s += took;
                    "flow.ml_route"
                } else {
                    sim_route_s += took;
                    sim_route_max_s = sim_route_max_s.max(took);
                    "flow.sim_route"
                };
                tracer.record(name, t, end, None, run);
                models.push((model, outcome.route));
                report.outcomes.push(outcome);
            }
            Err(e) => {
                failed += 1;
                out.notes.push(format!("generate failed: {e}"));
            }
        }
    }

    let t = Instant::now();
    let exports: BTreeMap<String, String> = tracer.time("core.export", None, run, || {
        models
            .iter()
            .map(|(m, _)| (format!("{}.cam", m.cell_name), to_cam(m)))
            .collect()
    });
    let export_s = t.elapsed().as_secs_f64();
    let end = Instant::now();
    let wall_s = end.duration_since(start).as_secs_f64();
    let cpu_s = probe::cpu_s() - cpu0;
    let delta = Delta::between(&before, &probe::counters());

    // Output checks, outside the timed region.
    let mut accuracy = Vec::new();
    let mut routes = BTreeMap::new();
    let mut predicted = BTreeMap::new();
    let (mut ml_cells, mut sim_cells) = (0, 0);
    for (model, route) in &models {
        let Some(want) = truth.get(&model.cell_name) else {
            out.mismatches
                .push(format!("{}: no conventional truth", model.cell_name));
            continue;
        };
        routes.insert(model.cell_name.clone(), format!("{route:?}"));
        if matches!(route, Route::Ml(_)) {
            ml_cells += 1;
            accuracy.push(want.agreement(model));
            predicted.insert(model.cell_name.clone(), to_cam(model));
        } else {
            sim_cells += 1;
            if model != want {
                out.mismatches.push(format!(
                    "{}: simulated model differs from conventional truth",
                    model.cell_name
                ));
            }
        }
    }
    for (what, docs, pinned) in [
        ("hybrid .cam export", &exports, digest::HYBRID_CAM),
        ("hybrid routes", &routes, digest::HYBRID_ROUTES),
        (
            "hybrid predicted models",
            &predicted,
            digest::HYBRID_PREDICTED,
        ),
    ] {
        out.check(digest::check(what, digest::digest_docs(docs), pinned));
    }
    let cells = (soi.len() + order.len()) as u64;
    out.attempted += cells;
    out.failed += failed;
    let (identical, equivalent, simulated) = report.route_counts();
    if run == 0 {
        out.notes.push(format!(
            "routes: {identical} identical + {equivalent} equivalent + {simulated} simulated"
        ));
    }
    Ok(Iteration {
        wall_s,
        window: (tracer.ns(start), tracer.ns(end)),
        cells,
        failed,
        cell_us,
        train_charlib_s,
        train_s,
        export_s,
        ml_route_s,
        sim_route_s,
        sim_route_max_s,
        ml_cells,
        sim_cells,
        accuracy: accuracy.iter().sum::<f64>() / accuracy.len().max(1) as f64,
        reduction: report.reduction(),
        delta,
        cpu_s,
        corpus,
    })
}

/// Decomposition pass, after the timed region: CA-matrix encoding over
/// the training corpus and the slowest single group fit.
fn decompose(corpus: &[PreparedCell], out: &mut Outcome) {
    let t = Instant::now();
    let mut rows = 0;
    for prepared in corpus {
        let mut data = Dataset::new(prepared.layout().num_features());
        prepared.training_rows(&mut data);
        rows += data.len();
    }
    out.set("matrix.encode_s", t.elapsed().as_secs_f64());
    out.set("matrix.rows", rows as f64);

    let mut groups: BTreeMap<(usize, usize), Vec<&PreparedCell>> = BTreeMap::new();
    for prepared in corpus.iter().filter(|p| p.model.is_some()) {
        groups
            .entry(prepared.group_key())
            .or_default()
            .push(prepared);
    }
    let mut slowest = 0.0f64;
    for cells in groups.values() {
        let t = Instant::now();
        if train_group_forest(cells, &MlFlowParams::quick()).is_ok() {
            slowest = slowest.max(t.elapsed().as_secs_f64());
        }
    }
    out.set("ml.group_fit_max_s", slowest);
}
