//! Generation-time cost model (paper §V.C).
//!
//! The paper quantifies the hybrid flow's value in wall-clock time on a
//! single SPICE license: 204 simulated cells ≈ 172 days, 205 ML-predicted
//! cells ≈ 6 hours. We cannot run their SPICE farm, so the simulation side
//! is a *calibrated model* — per-cell time proportional to the number of
//! defective-cell simulations (defects × stimuli), with constants chosen
//! so the paper's 409-cell C40 subgroup lands near the published totals.
//! The ML side can also be measured for real on this machine.

use ca_netlist::Cell;

/// Seconds-per-unit constants of the generation-time model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed SPICE setup time per cell (netlist extraction, licensing).
    pub spice_setup_s: f64,
    /// SPICE time per defective-cell simulation (one defect, one stimulus).
    pub spice_per_sim_s: f64,
    /// Fixed ML preparation time per cell (golden sim, CA-matrix build).
    pub ml_setup_s: f64,
    /// ML inference time per CA-matrix row.
    pub ml_per_row_s: f64,
}

impl CostModel {
    /// Constants calibrated against §V.C:
    ///
    /// * 204 simulated cells ≈ 172 days → ≈ 20.2 h/cell. With a typical
    ///   C40 cell at ~4 inputs / ~20 transistors (256 stimuli × 120
    ///   defects ≈ 30 720 simulations), that is ≈ 2.4 s per defect
    ///   simulation.
    /// * 205 predicted cells ≈ 21 947 s → ≈ 107 s/cell, i.e. ≈ 3.5 ms per
    ///   CA-matrix row at the same cell size.
    pub fn paper_calibrated() -> CostModel {
        CostModel {
            spice_setup_s: 600.0,
            spice_per_sim_s: 2.4,
            ml_setup_s: 2.0,
            ml_per_row_s: 0.0034,
        }
    }

    /// Number of defective-cell simulations the conventional flow runs
    /// for `cell` (defects × stimuli).
    pub fn simulation_count(cell: &Cell) -> usize {
        let stimuli = 4usize.pow(cell.num_inputs() as u32);
        let defects = cell.num_transistors() * 6;
        stimuli * defects
    }

    /// Estimated conventional (SPICE) generation time for `cell`, seconds.
    pub fn simulation_time_s(&self, cell: &Cell) -> f64 {
        self.spice_setup_s + self.spice_per_sim_s * Self::simulation_count(cell) as f64
    }

    /// Estimated ML generation time for `cell`, seconds.
    pub fn ml_time_s(&self, cell: &Cell) -> f64 {
        self.ml_setup_s + self.ml_per_row_s * Self::simulation_count(cell) as f64
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::paper_calibrated()
    }
}

/// Formats seconds as a compact human-readable duration.
pub fn format_duration(seconds: f64) -> String {
    if seconds >= 86_400.0 {
        format!("{:.1} days", seconds / 86_400.0)
    } else if seconds >= 3_600.0 {
        format!("{:.1} h", seconds / 3_600.0)
    } else if seconds >= 60.0 {
        format!("{:.1} min", seconds / 60.0)
    } else {
        format!("{seconds:.1} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    #[test]
    fn simulation_count_formula() {
        let cell = spice::parse_cell(NAND2).unwrap();
        assert_eq!(CostModel::simulation_count(&cell), 16 * 24);
    }

    #[test]
    fn ml_is_orders_of_magnitude_faster() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CostModel::paper_calibrated();
        let spice = model.simulation_time_s(&cell);
        let ml = model.ml_time_s(&cell);
        assert!(spice / ml > 100.0, "spice={spice} ml={ml}");
    }

    #[test]
    fn calibration_matches_paper_scale() {
        // A typical 4-input / 20-transistor cell should cost ~20 h SPICE
        // and ~2 min ML, matching §V.C's per-cell averages.
        let model = CostModel::paper_calibrated();
        let sims = 256.0 * 120.0;
        let spice_h = (model.spice_setup_s + model.spice_per_sim_s * sims) / 3600.0;
        assert!((15.0..25.0).contains(&spice_h), "{spice_h} h");
        let ml_s = model.ml_setup_s + model.ml_per_row_s * sims;
        assert!((60.0..180.0).contains(&ml_s), "{ml_s} s");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(30.0), "30.0 s");
        assert_eq!(format_duration(120.0), "2.0 min");
        assert_eq!(format_duration(7200.0), "2.0 h");
        assert_eq!(format_duration(172.0 * 86_400.0), "172.0 days");
    }
}
