//! Regenerators for every table and figure of the paper's evaluation.

use crate::corpus::{build_corpus, CorpusCell, Profile};
use crate::report::{kv_table, Grid};
use ca_core::{
    format_duration, train_group_forest, Activation, CanonicalCell, CostModel, HybridFlow,
    HybridOptions, MlFlow, PreparedCell, StructuralMatch, StructureIndex,
};
use ca_defects::{CaModel, DefectKind, GenerateOptions};
use ca_ml::{Classifier, KNearest, LinearClassifier, RandomForest};
use ca_netlist::synth::{synthesize, DriveStyle, NetlistStyle, Stage, StageExpr, StagePlan};
use ca_netlist::{spice, Technology, Terminal};
use ca_sim::Injection;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The paper's reference NAND2 (Fig. 4a naming).
pub const NAND2_SPICE: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MPX Z A VDD VDD pch W=300n L=30n
MPY Z B VDD VDD pch W=300n L=30n
MN10 Z A net0 VSS nch W=200n L=30n
MN11 net0 B VSS VSS nch W=200n L=30n
.ENDS
";

fn group_corpus(corpus: &[CorpusCell]) -> BTreeMap<(usize, usize), Vec<&CorpusCell>> {
    let mut by_key: BTreeMap<(usize, usize), Vec<&CorpusCell>> = BTreeMap::new();
    for c in corpus {
        by_key.entry(c.prepared.group_key()).or_default().push(c);
    }
    by_key
}

/// Table IV.a — same-technology prediction accuracy: leave-one-out within
/// the 28SOI corpus, grouped by (inputs, transistors).
pub fn table_iv_a(profile: Profile) -> Grid {
    let corpus = build_corpus(Technology::Soi28, profile);
    let params = profile.ml_params();
    let cap = profile.max_eval_per_group();
    let mut grid = Grid::new();
    for (key, cells) in group_corpus(&corpus) {
        if cells.len() < 2 {
            continue; // the paper leaves singleton groups empty
        }
        let evals = cap.unwrap_or(cells.len()).min(cells.len());
        for i in 0..evals {
            let train: Vec<&PreparedCell> = cells
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| &c.prepared)
                .collect();
            let Ok((forest, _)) = train_group_forest(&train, &params) else {
                continue;
            };
            let target = &cells[i].prepared;
            let predicted = target.predict_model(&forest);
            // The paper's Table IV reports open defects (shorts "similar").
            grid.record(
                key.0,
                key.1,
                target.accuracy_of_kind(&predicted, DefectKind::Open),
            );
        }
    }
    grid
}

/// Tables IV.b / IV.c — cross-technology prediction: train on all of
/// `train_tech`, evaluate every cell of `eval_tech` whose group exists.
pub fn table_iv_cross(train_tech: Technology, eval_tech: Technology, profile: Profile) -> Grid {
    let train = build_corpus(train_tech, profile);
    let eval = build_corpus(eval_tech, profile);
    cross_grid(&train, &eval, profile)
}

fn cross_grid(train: &[CorpusCell], eval: &[CorpusCell], profile: Profile) -> Grid {
    let prepared: Vec<PreparedCell> = train.iter().map(|c| c.prepared.clone()).collect();
    let flow = MlFlow::train(&prepared, profile.ml_params()).expect("non-empty corpus");
    // Prediction over the evaluated cells is read-only and independent:
    // batch it across the executor's workers.
    let covered: Vec<PreparedCell> = eval
        .iter()
        .map(|c| &c.prepared)
        .filter(|p| flow.covers(p))
        .cloned()
        .collect();
    let predictions = flow
        .predict_batch(&covered, &ca_exec::Executor::from_env())
        .expect("every batched cell is covered");
    let mut grid = Grid::new();
    for (p, predicted) in covered.iter().zip(&predictions) {
        let (inputs, transistors) = p.group_key();
        grid.record(
            inputs,
            transistors,
            p.accuracy_of_kind(predicted, DefectKind::Open),
        );
    }
    grid
}

/// §V.B — accuracy distribution and its correlation with the structural
/// match category (identical / equivalent / new).
pub fn accuracy_histogram(
    train_tech: Technology,
    eval_tech: Technology,
    profile: Profile,
) -> String {
    let train = build_corpus(train_tech, profile);
    let eval = build_corpus(eval_tech, profile);
    let prepared: Vec<PreparedCell> = train.iter().map(|c| c.prepared.clone()).collect();
    let flow = MlFlow::train(&prepared, profile.ml_params()).expect("non-empty corpus");
    let index = StructureIndex::from_corpus(&prepared);
    let mut buckets = [0usize; 4]; // >=99, 97-99, 90-97, <90
    let mut per_match: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut evaluated = 0usize;
    for c in eval.iter() {
        if !flow.covers(&c.prepared) {
            continue;
        }
        evaluated += 1;
        let predicted = flow.predict(&c.prepared).expect("group covered");
        let acc = c.prepared.accuracy_of_kind(&predicted, DefectKind::Open);
        let bucket = if acc >= 0.99 {
            0
        } else if acc >= 0.97 {
            1
        } else if acc >= 0.90 {
            2
        } else {
            3
        };
        buckets[bucket] += 1;
        let tag = match index.classify(&c.prepared.canonical) {
            StructuralMatch::Identical => "identical",
            StructuralMatch::Equivalent => "equivalent",
            StructuralMatch::New => "new",
        };
        per_match.entry(tag).or_default().push(acc);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§V.B accuracy distribution: train {} -> evaluate {} ({} cells)",
        train_tech.name(),
        eval_tech.name(),
        evaluated
    );
    for (label, count) in [">=99%", "97-99%", "90-97%", "<90%"].iter().zip(buckets) {
        let pct = 100.0 * count as f64 / evaluated.max(1) as f64;
        let _ = writeln!(out, "  {label:>7}: {count:4} cells ({pct:5.1}%)");
    }
    let above97 = buckets[0] + buckets[1];
    let _ = writeln!(
        out,
        "  accuracy > 97% for {:.0}% of cells (paper: ~70% overall; 68% C28, 80% C40)",
        100.0 * above97 as f64 / evaluated.max(1) as f64
    );
    let _ = writeln!(out, "correlation with structural match (paper §V.B):");
    for (tag, accs) in per_match {
        let mean = accs.iter().sum::<f64>() / accs.len() as f64;
        let _ = writeln!(
            out,
            "  {tag:>10}: {:4} cells, mean accuracy {:6.2}%",
            accs.len(),
            mean * 100.0
        );
    }
    out
}

/// §II.B — classifier comparison on the largest group of the training
/// technology (the experiment motivating the Random Forest choice).
pub fn algo_comparison(profile: Profile) -> String {
    let corpus = build_corpus(Technology::Soi28, profile);
    let groups = group_corpus(&corpus);
    let (key, cells) = groups
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("non-empty corpus");
    // Leave-one-out on the first cell of the group.
    let target = &cells[0].prepared;
    let train: Vec<&PreparedCell> = cells[1..].iter().map(|c| &c.prepared).collect();
    let params = profile.ml_params();
    let (_, full_data) = train_group_forest(&train, &params).expect("group has cells");
    // Baselines get a capped training set: k-NN is O(train x eval).
    let cap = 4_000.min(full_data.len());
    let stride = (full_data.len() as f64 / cap as f64).max(1.0);
    let capped_idx: Vec<usize> = (0..cap)
        .map(|j| ((j as f64 * stride) as usize).min(full_data.len() - 1))
        .collect();
    let capped = full_data.subset(&capped_idx);
    let mut rows: Vec<(String, String)> = Vec::new();
    let mut eval = |name: &str, classifier: &dyn Classifier| {
        let predicted = target.predict_model(classifier);
        let acc = target.accuracy_of(&predicted);
        rows.push((name.to_string(), format!("{:6.2}%", acc * 100.0)));
    };
    let mut forest = RandomForest::new(params.forest.clone());
    forest.fit(&full_data);
    eval("RandomForest", &forest);
    let mut tree = ca_ml::DecisionTree::new(ca_ml::TreeParams::default());
    tree.fit(&full_data);
    eval("DecisionTree", &tree);
    let mut knn = KNearest::new(5);
    knn.fit(&capped);
    eval("k-NN (k=5)", &knn);
    let mut logistic = LinearClassifier::logistic();
    logistic.fit(&capped);
    eval("Logistic", &logistic);
    let mut ridge = LinearClassifier::ridge();
    ridge.fit(&capped);
    eval("Ridge", &ridge);
    let mut svm = LinearClassifier::svm();
    svm.fit(&capped);
    eval("Linear SVM", &svm);
    let mut nb = ca_ml::GaussianNb::new();
    nb.fit(&capped);
    eval("GaussianNB", &nb);
    kv_table(
        &format!(
            "§II.B classifier comparison on group (inputs={}, transistors={}, {} cells)",
            key.0,
            key.1,
            cells.len()
        ),
        &rows,
    )
}

/// §V.C / Fig. 7 — the hybrid flow experiment: structural gate routing,
/// generation-time estimates and the reduction numbers.
pub fn hybrid_experiment(profile: Profile) -> String {
    let train = build_corpus(Technology::Soi28, profile);
    let eval_lib = ca_netlist::library::generate_library(&profile.library_config(Technology::C40));
    let prepared: Vec<PreparedCell> = train.iter().map(|c| c.prepared.clone()).collect();
    let cost = CostModel::paper_calibrated();

    // 1. Static structural analysis against the *initial* training corpus
    //    — this is how the paper obtains its 118/87/204 split (§V.C).
    let index = StructureIndex::from_corpus(&prepared);
    let mut static_counts = (0usize, 0usize, 0usize);
    let mut static_ml_time = 0.0;
    let mut static_sim_time = 0.0;
    let mut conventional_time = 0.0;
    for lc in &eval_lib.cells {
        let p = PreparedCell::prepare(lc.cell.clone()).expect("valid cell");
        let sim_t = cost.simulation_time_s(&p.cell);
        conventional_time += sim_t;
        match index.classify(&p.canonical) {
            StructuralMatch::Identical => {
                static_counts.0 += 1;
                static_ml_time += cost.ml_time_s(&p.cell);
            }
            StructuralMatch::Equivalent => {
                static_counts.1 += 1;
                static_ml_time += cost.ml_time_s(&p.cell);
            }
            StructuralMatch::New => {
                static_counts.2 += 1;
                static_sim_time += sim_t;
            }
        }
    }
    let total = eval_lib.cells.len();
    let pct = |x: usize| 100.0 * x as f64 / total.max(1) as f64;
    let static_hybrid_time = static_ml_time + static_sim_time;
    let ml_conventional: f64 = conventional_time - static_sim_time;

    // 2. Actual hybrid run with the Fig. 7 reinforcement loop (simulated
    //    cells immediately extend the corpus, so later variants of a new
    //    template route to ML).
    let mut params = profile.ml_params();
    params.retain_training_data = true;
    let mut hybrid = HybridFlow::new(
        &prepared,
        params,
        cost,
        HybridOptions {
            reinforce: true,
            evaluate_ml_accuracy: true,
            generate: GenerateOptions::default(),
        },
    )
    .expect("non-empty corpus");
    let cells: Vec<ca_netlist::Cell> = eval_lib.cells.iter().map(|c| c.cell.clone()).collect();
    let (_, report) = hybrid.run(cells).expect("synthesized cells are valid");
    let (r_id, r_eq, r_sim) = report.route_counts();

    let mut rows: Vec<(String, String)> = vec![
        ("C40 cells processed".into(), format!("{total}")),
        (
            "— static gate analysis (initial corpus, as in the paper) —".into(),
            String::new(),
        ),
        (
            "identical structure".into(),
            format!(
                "{} ({:.0}%)  [paper: 118 (29%)]",
                static_counts.0,
                pct(static_counts.0)
            ),
        ),
        (
            "equivalent structure".into(),
            format!(
                "{} ({:.0}%)  [paper: 87 (21%)]",
                static_counts.1,
                pct(static_counts.1)
            ),
        ),
        (
            "new structure (simulate)".into(),
            format!(
                "{} ({:.0}%)  [paper: 204 (50%)]",
                static_counts.2,
                pct(static_counts.2)
            ),
        ),
        (
            "hybrid generation time".into(),
            format!(
                "{} vs conventional-only {}  [paper: 172d+6h vs ~250d]",
                format_duration(static_hybrid_time),
                format_duration(conventional_time)
            ),
        ),
        (
            "reduction (overall)".into(),
            format!(
                "{:.0}%  [paper: ~38%]",
                (1.0 - static_hybrid_time / conventional_time) * 100.0
            ),
        ),
        (
            "reduction (ML-routed cells)".into(),
            format!(
                "{:.1}%  [paper: 99.7%]",
                (1.0 - static_ml_time / ml_conventional.max(1e-9)) * 100.0
            ),
        ),
        (
            "— full run with Fig. 7 reinforcement feedback —".into(),
            String::new(),
        ),
        (
            "routes after reinforcement".into(),
            format!(
                "{r_id} identical + {r_eq} equivalent + {r_sim} simulated \
                 (feedback shrinks the simulated share)"
            ),
        ),
        (
            "hybrid time (reinforced)".into(),
            format!(
                "{}  ->  {:.0}% reduction",
                format_duration(report.hybrid_time_s()),
                report.reduction() * 100.0
            ),
        ),
    ];
    if let Some(acc) = report.mean_ml_accuracy() {
        rows.push((
            "mean ML accuracy (routed cells)".into(),
            format!("{:.2}%", acc * 100.0),
        ));
    }
    kv_table("§V.C hybrid flow (train 28SOI, generate C40)", &rows)
}

/// Library characterization summary (the `charlib` driver end-to-end).
pub fn library_report(tech: Technology, profile: Profile) -> String {
    let corpus = build_corpus(tech, profile);
    let prepared: Vec<PreparedCell> = corpus.iter().map(|c| c.prepared.clone()).collect();
    let summary = ca_core::summarize(tech.name(), &prepared);
    summary.render()
}

/// Ablation — remove the canonical renaming (keep raw netlist order) and
/// measure the cross-technology accuracy collapse. This isolates the
/// contribution of §III.B, the paper's central mechanism.
pub fn ablation(profile: Profile) -> String {
    let train = build_corpus(Technology::Soi28, profile);
    let eval = build_corpus(Technology::C28, profile);
    let with_renaming = cross_grid(&train, &eval, profile);
    // Rebuild both corpora with the degenerate netlist-order view.
    let strip = |cells: &[CorpusCell]| -> Vec<PreparedCell> {
        cells
            .iter()
            .map(|cc| {
                let mut p = cc.prepared.clone();
                p.canonical = CanonicalCell::netlist_order(&p.cell, &p.activation);
                p
            })
            .collect()
    };
    let train_stripped_cells: Vec<CorpusCell> = strip(&train)
        .into_iter()
        .zip(train.iter())
        .map(|(prepared, cc)| CorpusCell {
            prepared,
            template: cc.template.clone(),
        })
        .collect();
    let eval_stripped_cells: Vec<CorpusCell> = strip(&eval)
        .into_iter()
        .zip(eval.iter())
        .map(|(prepared, cc)| CorpusCell {
            prepared,
            template: cc.template.clone(),
        })
        .collect();
    let without_renaming = cross_grid(&train_stripped_cells, &eval_stripped_cells, profile);
    kv_table(
        "Ablation — canonical transistor renaming (train 28SOI -> eval C28, opens)",
        &[
            (
                "with renaming (paper flow)".into(),
                format!(
                    "mean {:.2}%   >97%: {:.0}%",
                    with_renaming.mean() * 100.0,
                    with_renaming.fraction_above(0.97) * 100.0
                ),
            ),
            (
                "without renaming (netlist order)".into(),
                format!(
                    "mean {:.2}%   >97%: {:.0}%",
                    without_renaming.mean() * 100.0,
                    without_renaming.fraction_above(0.97) * 100.0
                ),
            ),
            (
                "accuracy delta".into(),
                format!(
                    "{:+.2} points",
                    (with_renaming.mean() - without_renaming.mean()) * 100.0
                ),
            ),
        ],
    )
}

/// Feature importance of a trained group forest, mapped back to CA-matrix
/// column names — which parts of the encoding carry the signal.
pub fn feature_importance(profile: Profile) -> String {
    let corpus = build_corpus(Technology::Soi28, profile);
    let groups = group_corpus(&corpus);
    let (key, cells) = groups
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("non-empty corpus");
    let train: Vec<&PreparedCell> = cells.iter().map(|c| &c.prepared).collect();
    let params = profile.ml_params();
    let (forest, _) = train_group_forest(&train, &params).expect("trains");
    let importance = forest.feature_importance();
    let names = cells[0].prepared.layout().column_names();
    let mut ranked: Vec<(f64, String)> =
        importance.iter().zip(names).map(|(&v, n)| (v, n)).collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let rows: Vec<(String, String)> = ranked
        .into_iter()
        .take(12)
        .map(|(v, n)| (n, format!("{:.1}%", v * 100.0)))
        .collect();
    kv_table(
        &format!(
            "Random-forest feature importance (group inputs={}, transistors={})",
            key.0, key.1
        ),
        &rows,
    )
}

/// Fig. 4 — the NAND2 partial CA-matrix (input/response and activity
/// columns, canonical names, PMOS shown negated like the paper).
pub fn fig4() -> String {
    let cell = spice::parse_cell(NAND2_SPICE).expect("reference netlist parses");
    let activation = Activation::extract(&cell).expect("valid cell");
    let canonical = CanonicalCell::build(&cell, &activation).expect("canonizable");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4b — partial CA-matrix of NAND2 (canonical names)"
    );
    let order = canonical.order().to_vec();
    let _ = write!(out, "{:>3} {:>3} | {:>3} |", "A", "B", "Z");
    for &t in &order {
        let _ = write!(out, "{:>5}", canonical.name(t));
    }
    let _ = writeln!(out);
    for (si, stim) in activation.stimuli().iter().enumerate().take(12) {
        let waves = stim.waves();
        let _ = write!(
            out,
            "{:>3} {:>3} | {:>3} |",
            waves[0].to_string(),
            waves[1].to_string(),
            activation.output_waves()[si].to_string()
        );
        for &t in &order {
            let wave = activation.transistor_wave(si, t);
            let negate = cell.transistor(t).kind() == ca_netlist::MosKind::Pmos;
            let text = if negate {
                format!("-{wave}")
            } else {
                format!("{wave}")
            };
            let _ = write!(out, "{text:>5}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "  ... ({} rows total)", activation.stimuli().len());
    out
}

/// Table I — training dataset excerpt for the NAND2: free rows and a
/// drain-source short, with detection labels from the conventional flow.
pub fn table1() -> String {
    let cell = spice::parse_cell(NAND2_SPICE).expect("reference netlist parses");
    let prepared = PreparedCell::characterize(cell, GenerateOptions::default()).expect("valid");
    let layout = prepared.layout();
    let model = prepared.model.as_ref().expect("characterized");
    let names = layout.column_names();
    let mut out = String::new();
    let _ = writeln!(out, "Table I — training dataset excerpt (NAND2)");
    let _ = writeln!(out, "  columns: {} | label", names.join(" "));
    let mut print_row = |stimulus: usize, injection: Injection, label: u32, tag: &str| {
        let row = prepared.encode_row(stimulus, injection);
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.0}")).collect();
        let _ = writeln!(out, "  {} | {}   ({tag})", cells.join(" "), label);
    };
    for s in 0..3 {
        print_row(s, Injection::None, 0, "free");
    }
    // A drain-source short (the paper's D15-style defect).
    let short = prepared
        .universe
        .defects()
        .iter()
        .find(|d| {
            d.kind == DefectKind::Short
                && matches!(
                    d.injection,
                    Injection::Short {
                        a: Terminal::Drain,
                        b: Terminal::Source,
                        ..
                    }
                )
        })
        .expect("universe has shorts");
    for s in 0..4 {
        let label = u32::from(model.detects(short.id, s));
        print_row(s, short.injection, label, &short.label(&prepared.cell));
    }
    out
}

/// Table II — activity values and renaming for the NAND2.
pub fn table2() -> String {
    let cell = spice::parse_cell(NAND2_SPICE).expect("reference netlist parses");
    let activation = Activation::extract(&cell).expect("valid cell");
    let canonical = CanonicalCell::build(&cell, &activation).expect("canonizable");
    let mut rows: Vec<(String, String)> = Vec::new();
    for (id, t) in cell.transistor_ids() {
        rows.push((
            t.name().to_string(),
            format!(
                "activity {:>3}  ->  {}",
                activation.activity_value(id).to_string(),
                canonical.name(id)
            ),
        ));
    }
    kv_table(
        "Table II — activity values and renaming (paper: Px=12,Py=10,N10=3,N11=5 -> P1,P0,N0,N1)",
        &rows,
    )
}

/// Table III — defect column examples: an intra-transistor short and an
/// inter-transistor net short.
pub fn table3() -> String {
    let cell = spice::parse_cell(NAND2_SPICE).expect("reference netlist parses");
    let prepared = PreparedCell::prepare(cell).expect("valid");
    let layout = prepared.layout();
    let names = layout.column_names();
    let defect_cols: Vec<usize> = (0..layout.num_transistors)
        .flat_map(|k| {
            [Terminal::Drain, Terminal::Gate, Terminal::Source].map(|t| layout.defect_col(k, t))
        })
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "Table III — defect description columns (NAND2)");
    let header: Vec<&str> = defect_cols.iter().map(|&c| names[c].as_str()).collect();
    let _ = writeln!(out, "  {}", header.join(" "));
    let mpx = prepared.cell.find_transistor("MPX").expect("exists");
    let ds_short = Injection::Short {
        transistor: mpx,
        a: Terminal::Drain,
        b: Terminal::Source,
    };
    let net0 = prepared.cell.find_net("net0").expect("exists");
    let a_pin = prepared.cell.find_net("A").expect("exists");
    let net_short = Injection::NetShort { a: net0, b: a_pin };
    for (injection, tag) in [
        (ds_short, "source-drain short on P1 (old Px)"),
        (net_short, "net0-A inter-transistor short"),
    ] {
        let row = prepared.encode_row(0, injection);
        let cells: Vec<String> = defect_cols
            .iter()
            .map(|&c| format!("{:.0}", row[c]))
            .collect();
        let _ = writeln!(out, "  {}   ({tag})", cells.join(" "));
    }
    out
}

/// Fig. 5 — branch equations of the example schematic.
pub fn fig5() -> String {
    // Pull-down ((N0 & (N1 | N2)) | N3) driving Y, plus the output
    // inverter Y -> Z.
    let plan = StagePlan::new(
        4,
        vec![
            Stage::new(StageExpr::Or(vec![
                StageExpr::And(vec![
                    StageExpr::pin(0),
                    StageExpr::Or(vec![StageExpr::pin(1), StageExpr::pin(2)]),
                ]),
                StageExpr::pin(3),
            ])),
            Stage::new(StageExpr::stage(0)),
        ],
    )
    .expect("valid plan");
    let s = synthesize(
        "FIG5",
        &plan,
        1,
        DriveStyle::SharedNets,
        &NetlistStyle::default(),
    )
    .expect("synthesizable");
    let activation = Activation::extract(&s.cell).expect("valid cell");
    let canonical = CanonicalCell::build(&s.cell, &activation).expect("canonizable");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 5 — branch equations (sorted: level, size, equation)"
    );
    for b in canonical.branches() {
        let _ = writeln!(
            out,
            "  level {}  exit {:<6} {:>2} transistors   {}",
            b.level,
            s.cell.net(b.exit).name(),
            b.transistors.len(),
            b.equation
        );
    }
    let _ = writeln!(
        out,
        "  (paper writes the NMOS branch as ((1n&(1n|1n))|1n); our canonical\n   ordering sorts parallel operands, and the output inverter is split\n   into its pull-up/pull-down branches — see DESIGN.md §3.2)"
    );
    out
}

/// Fig. 6 — the two drive configurations: different structures, equal
/// after reduction.
pub fn fig6() -> String {
    let plan = StagePlan::single(
        2,
        StageExpr::And(vec![StageExpr::pin(0), StageExpr::pin(1)]),
    )
    .expect("valid plan");
    let style = NetlistStyle::default();
    let shared = synthesize("NAND2X2", &plan, 2, DriveStyle::SharedNets, &style).expect("ok");
    let split = synthesize("NAND2X2F", &plan, 2, DriveStyle::SplitFingers, &style).expect("ok");
    let canon = |cell: &ca_netlist::Cell| {
        let act = Activation::extract(cell).expect("valid");
        CanonicalCell::build(cell, &act).expect("canonizable")
    };
    let cs = canon(&shared.cell);
    let cf = canon(&split.cell);
    let rows = vec![
        (
            "config B (red net present)".to_string(),
            cs.branches()
                .iter()
                .map(|b| b.equation.clone())
                .collect::<Vec<_>>()
                .join("  "),
        ),
        (
            "config A (red net absent)".to_string(),
            cf.branches()
                .iter()
                .map(|b| b.equation.clone())
                .collect::<Vec<_>>()
                .join("  "),
        ),
        (
            "identical structure?".to_string(),
            format!("{}", cs.wiring_hash() == cf.wiring_hash()),
        ),
        (
            "equivalent (reduced) structure?".to_string(),
            format!("{}", cs.reduced_hash() == cf.reduced_hash()),
        ),
    ];
    kv_table("Fig. 6 — drive configurations of a NAND2 X2", &rows)
}

/// Fig. 1 — conventional flow demonstration on the reference NAND2.
pub fn fig1() -> String {
    let cell = spice::parse_cell(NAND2_SPICE).expect("reference netlist parses");
    let model = CaModel::generate(&cell, GenerateOptions::default());
    let (static_classes, dynamic_classes, undetectable) = model.behavior_counts();
    kv_table(
        "Fig. 1 — conventional CA model generation (NAND2)",
        &[
            (
                "defects simulated".into(),
                format!("{}", model.universe.len()),
            ),
            (
                "defect simulations".into(),
                format!("{}", model.defect_simulations),
            ),
            (
                "equivalence classes".into(),
                format!("{}", model.classes.len()),
            ),
            ("static classes".into(), format!("{static_classes}")),
            ("dynamic classes".into(), format!("{dynamic_classes}")),
            ("undetectable classes".into(), format!("{undetectable}")),
            (
                "coverage".into(),
                format!("{:.1}%", model.coverage() * 100.0),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_artifacts_render() {
        for text in [fig1(), fig4(), fig5(), fig6(), table1(), table2(), table3()] {
            assert!(!text.is_empty());
        }
    }

    #[test]
    fn table2_contains_paper_values() {
        let text = table2();
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("N0"), "{text}");
    }

    #[test]
    fn fig6_reports_equivalence() {
        let text = fig6();
        assert!(text.contains("identical structure?         false") || text.contains("false"));
        assert!(text.contains("true"));
    }
}
