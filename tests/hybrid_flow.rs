//! Integration tests of the hybrid flow's end-to-end invariants.

use cell_aware::core::{
    CostModel, HybridFlow, HybridOptions, MlFlowParams, PreparedCell, Route, StructuralMatch,
};
use cell_aware::defects::{CaModel, GenerateOptions};
use cell_aware::netlist::library::{generate_library, LibraryConfig};
use cell_aware::netlist::Technology;

fn corpus(tech: Technology, take: usize) -> Vec<PreparedCell> {
    generate_library(&LibraryConfig::quick(tech))
        .cells
        .into_iter()
        .take(take)
        .map(|lc| PreparedCell::characterize(lc.cell, GenerateOptions::default()).expect("valid"))
        .collect()
}

#[test]
fn hybrid_models_match_conventional_for_simulated_routes() {
    let train = corpus(Technology::Soi28, 8);
    let mut hybrid = HybridFlow::new(
        &train,
        MlFlowParams::quick(),
        CostModel::paper_calibrated(),
        HybridOptions::default(),
    )
    .expect("trains");
    let eval: Vec<_> = generate_library(&LibraryConfig::quick(Technology::C28))
        .cells
        .into_iter()
        .take(10)
        .map(|lc| lc.cell)
        .collect();
    for cell in eval {
        let reference = CaModel::generate(&cell, GenerateOptions::default());
        let (model, outcome) = hybrid.generate(cell).expect("valid");
        match outcome.route {
            Route::Simulated => {
                // The simulated route IS the conventional flow.
                assert_eq!(model, reference, "{}", outcome.name);
                assert!(outcome.time_s >= outcome.simulation_time_s);
            }
            Route::Ml(_) => {
                // The ML route must at least produce a structurally
                // compatible model and beat the simulation clock.
                assert_eq!(model.universe.len(), reference.universe.len());
                assert!(outcome.time_s < outcome.simulation_time_s);
                // And be reasonably accurate.
                let accuracy = reference.agreement(&model);
                assert!(accuracy > 0.80, "{}: {accuracy}", outcome.name);
            }
        }
    }
}

#[test]
fn reinforcement_converts_new_structures_to_known() {
    let train = corpus(Technology::Soi28, 6);
    let mut hybrid = HybridFlow::new(
        &train,
        MlFlowParams::quick(),
        CostModel::paper_calibrated(),
        HybridOptions::default(),
    )
    .expect("trains");
    // Find a C28 cell whose structure is new.
    let c28 = generate_library(&LibraryConfig::quick(Technology::C28));
    let newcomer = c28
        .cells
        .iter()
        .map(|lc| lc.cell.clone())
        .find(|cell| {
            let p = PreparedCell::prepare(cell.clone()).expect("valid");
            hybrid.index().classify(&p.canonical) == StructuralMatch::New
        })
        .expect("quick libraries differ somewhere");
    let (_, first) = hybrid.generate(newcomer.clone()).expect("valid");
    assert_eq!(first.route, Route::Simulated);
    // Processing the very same cell again must now route to ML.
    let (_, second) = hybrid.generate(newcomer).expect("valid");
    assert!(
        matches!(second.route, Route::Ml(StructuralMatch::Identical)),
        "got {:?}",
        second.route
    );
    assert!(second.time_s < first.time_s);
}

#[test]
fn report_totals_are_consistent() {
    let train = corpus(Technology::Soi28, 6);
    let mut hybrid = HybridFlow::new(
        &train,
        MlFlowParams::quick(),
        CostModel::paper_calibrated(),
        HybridOptions::default(),
    )
    .expect("trains");
    let eval: Vec<_> = generate_library(&LibraryConfig::quick(Technology::C40))
        .cells
        .into_iter()
        .take(8)
        .map(|lc| lc.cell)
        .collect();
    let n = eval.len();
    let (models, report) = hybrid.run(eval).expect("valid");
    assert_eq!(models.len(), n);
    let (a, b, c) = report.route_counts();
    assert_eq!(a + b + c, n);
    assert!(report.hybrid_time_s() <= report.conventional_time_s() + 1e-9);
    assert!((0.0..=1.0).contains(&report.reduction()));
    let per_cell: f64 = report.outcomes.iter().map(|o| o.time_s).sum();
    assert!((per_cell - report.hybrid_time_s()).abs() < 1e-9);
}
