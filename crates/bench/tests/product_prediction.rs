//! Differential test of the ML flow's prediction path on the real corpus.
//!
//! `MlFlow::predict` encodes a cell's stimulus and defect blocks once and
//! classifies their product through each tree at once
//! (`Classifier::predict_product`). The oracle here predicts the same
//! cells row by row, the way the flow did before: the group forest from
//! `train_group_forest`, one `encode_row` per ⟨defect, stimulus⟩ pair,
//! `RandomForest::predict` on it, and `CaModel::from_rows`. The two must
//! render the same `.cam` bytes for every quick C40 and C28 cell the
//! SOI28-trained flow covers, with prediction at 1 and 4 threads and
//! training at the default executor's (`CA_THREADS`).

use ca_bench::corpus::{build_corpus, Profile};
use ca_core::{train_group_forest, Executor, MlFlow, MlFlowParams, PreparedCell};
use ca_defects::{to_cam, BitRow, CaModel};
use ca_ml::{Classifier, RandomForest};
use ca_netlist::library::generate_library;
use ca_netlist::Technology;
use std::collections::BTreeMap;

/// The row-wise oracle: one `predict` per encoded row.
fn row_wise(prepared: &PreparedCell, forest: &RandomForest) -> CaModel {
    let n = prepared.activation.stimuli().len();
    let rows = prepared
        .universe
        .defects()
        .iter()
        .map(|defect| {
            let mut row = BitRow::zeros(n);
            for s in 0..n {
                row.set(
                    s,
                    forest.predict(&prepared.encode_row(s, defect.injection)) == 1,
                );
            }
            row
        })
        .collect();
    CaModel::from_rows(&prepared.cell, prepared.universe.clone(), rows)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "row-wise prediction of two libraries takes minutes unoptimized; scripts/ci.sh runs this in release"
)]
fn ml_flow_predictions_match_row_wise_prediction() {
    let training: Vec<PreparedCell> = build_corpus(Technology::Soi28, Profile::Quick)
        .iter()
        .map(|c| c.prepared.clone())
        .collect();
    let params = MlFlowParams::quick();
    let flow = MlFlow::train(&training, params.clone()).expect("corpus non-empty");
    let mut groups: BTreeMap<(usize, usize), Vec<&PreparedCell>> = BTreeMap::new();
    for prepared in &training {
        groups
            .entry(prepared.group_key())
            .or_default()
            .push(prepared);
    }
    let forests: BTreeMap<(usize, usize), RandomForest> = groups
        .into_iter()
        .map(|(key, cells)| {
            let (forest, _) = train_group_forest(&cells, &params).expect("group trains");
            (key, forest)
        })
        .collect();

    for (tech, min_cells) in [(Technology::C40, 80), (Technology::C28, 80)] {
        let covered: Vec<PreparedCell> = generate_library(&Profile::Quick.library_config(tech))
            .cells
            .into_iter()
            .map(|lc| PreparedCell::prepare(lc.cell).expect("library cells prepare"))
            .filter(|p| flow.covers(p))
            .collect();
        assert!(
            covered.len() >= min_cells,
            "{tech:?}: only {} cells covered",
            covered.len()
        );
        let expected: Vec<String> = covered
            .iter()
            .map(|p| to_cam(&row_wise(p, &forests[&p.group_key()])))
            .collect();
        for threads in [1, 4] {
            let predicted = flow
                .predict_batch(&covered, &Executor::with_threads(threads))
                .expect("every cell is covered");
            for ((p, model), want) in covered.iter().zip(&predicted).zip(&expected) {
                assert!(
                    to_cam(model) == *want,
                    "{tech:?} {}, threads={threads}: product and row-wise predictions differ",
                    p.cell.name()
                );
            }
        }
    }
}
