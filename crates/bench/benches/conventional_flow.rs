//! Micro-bench: the conventional (simulation-based) generation flow
//! of paper Fig. 1 — this is the cost the ML flow amortizes away.

use ca_bench::microbench::BenchGroup;
use ca_defects::{CaModel, GenerateOptions};
use ca_netlist::library::{generate_library, LibraryConfig};
use ca_netlist::Technology;
use ca_sim::{Simulator, Stimulus};

fn main() {
    let lib = generate_library(&LibraryConfig::quick(Technology::C40));
    let mut group = BenchGroup::new("conventional_flow");
    for template in ["INV", "NAND2", "AOI21", "XOR2"] {
        let Some(cell) = lib
            .cells
            .iter()
            .find(|lc| lc.template == template && lc.drive == 1)
            .map(|lc| lc.cell.clone())
        else {
            continue; // per-technology catalog subsets may drop a template
        };
        group.bench(&format!("generate/{template}"), || {
            CaModel::generate(&cell, GenerateOptions::default())
        });
        let sim = Simulator::new(&cell);
        let stimuli = Stimulus::all(cell.num_inputs());
        group.bench(&format!("golden_simulation/{template}"), || {
            stimuli
                .iter()
                .map(|s| sim.run(s).final_values().len())
                .sum::<usize>()
        });
    }
    group.finish();
}
