//! Micro-bench: measured per-cell generation time, ML route vs
//! conventional route — the real-machine counterpart of the paper's
//! §V.C wall-clock argument.

use ca_bench::corpus::{build_corpus, Profile};
use ca_bench::microbench::BenchGroup;
use ca_core::{MlFlow, PreparedCell};
use ca_defects::{CaModel, GenerateOptions};
use ca_netlist::library::generate_library;
use ca_netlist::Technology;

fn main() {
    let train = build_corpus(Technology::Soi28, Profile::Quick);
    let prepared: Vec<PreparedCell> = train.iter().map(|cc| cc.prepared.clone()).collect();
    let flow = MlFlow::train(&prepared, Profile::Quick.ml_params()).expect("trains");
    // Pick a C40 cell the flow covers.
    let eval_lib = generate_library(&Profile::Quick.library_config(Technology::C40));
    let cell = eval_lib
        .cells
        .iter()
        .map(|lc| lc.cell.clone())
        .find(|cell| {
            PreparedCell::prepare(cell.clone())
                .map(|p| flow.covers(&p))
                .unwrap_or(false)
        })
        .expect("some covered cell exists");
    let mut group = BenchGroup::new("per_cell_generation");
    group.sample_size(5);
    group.bench("ml_route", || {
        let p = PreparedCell::prepare(cell.clone()).expect("valid");
        flow.predict(&p).expect("covered")
    });
    group.bench("conventional_route", || {
        CaModel::generate(&cell, GenerateOptions::default())
    });
    group.finish();
}
