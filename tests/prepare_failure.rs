//! A cell that cannot be prepared costs its golden pass, never a defect
//! simulation: the error ranking needs only the golden check.
//!
//! ONE test function only: the simulator's work counters are
//! process-global, so a sibling test running concurrently in this
//! binary would add its solves to ours.

use cell_aware::core::{CharCache, CoreError};
use cell_aware::defects::GenerateOptions;
use cell_aware::netlist::spice;
use cell_aware::sim::Stimulus;

/// A dual-output cell: ZN = NAND2(A,B), ZR = NOR2(A,B). Its golden
/// simulation converges, but the single-response CA-matrix encoding
/// rejects it at prepare.
const DUAL: &str = "\
.SUBCKT DUAL A B ZN ZR VDD VSS
MP0 ZN A VDD VDD pch
MP1 ZN B VDD VDD pch
MN0 ZN A net0 VSS nch
MN1 net0 B VSS VSS nch
MP2 mid A VDD VDD pch
MP3 ZR B mid VDD pch
MN2 ZR A VSS VSS nch
MN3 ZR B VSS VSS nch
.ENDS
";

/// A NAND2 with one pull-up gated by a net nothing drives: prepare runs
/// the golden pass of activation extraction and rejects the floating
/// gate as `GoldenNotBinary`.
const DANGLE: &str = "\
.SUBCKT DANGLE A B ZN VDD VSS
MP0 ZN A VDD VDD pch
MP1 ZN float VDD VDD pch
MN0 ZN A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

fn packed_lanes() -> u64 {
    cell_aware::obs::global()
        .snapshot()
        .counters
        .get("ca_sim.packed.lanes")
        .map_or(0, |(_, lanes)| *lanes)
}

#[test]
fn prepare_failures_simulate_no_defects() {
    // DUAL fails before any simulation, DANGLE after prepare's own
    // golden pass; neither may prepare twice or simulate a defect.
    for netlist in [DUAL, DANGLE] {
        let cell = spice::parse_cell(netlist).unwrap();
        let golden_pass = Stimulus::all(cell.num_inputs()).len() as u64;
        let before = packed_lanes();
        let err = CharCache::new()
            .characterize(cell, GenerateOptions::default())
            .unwrap_err();
        let solved = packed_lanes() - before;
        assert!(
            matches!(
                (netlist, &err),
                (DUAL, CoreError::Unsupported(_)) | (DANGLE, CoreError::GoldenNotBinary { .. })
            ),
            "unexpected error {err}"
        );
        assert!(solved > 0, "the golden pass still runs");
        assert!(
            solved <= 2 * golden_pass,
            "{err}: {solved} lanes solved for a {golden_pass}-stimulus golden pass"
        );
    }
}
