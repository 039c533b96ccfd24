//! Public simulation API: golden and defective cell simulation, detection.

use crate::budget::{SimBudget, SimError};
use crate::injection::Injection;
use crate::solver::{CellGraph, SolveOutcome};
use crate::values::{Stimulus, Value, Wave};
use ca_netlist::{Cell, NetId};

/// How unknown faulty responses count towards detection.
///
/// The default matches industrial practice: a *driven* conflict (rail
/// fight) is observable and counts as detected, a *floating* node cannot be
/// relied upon by the tester and does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DetectionPolicy {
    /// Whether a faulty [`Value::Xd`] (fight) counts as detected.
    pub driven_x_detects: bool,
    /// Whether a faulty [`Value::Xf`] (floating) counts as detected.
    pub floating_x_detects: bool,
}

impl Default for DetectionPolicy {
    fn default() -> DetectionPolicy {
        DetectionPolicy {
            driven_x_detects: true,
            floating_x_detects: false,
        }
    }
}

impl DetectionPolicy {
    /// Pessimistic policy: any unknown faulty response counts as detected.
    pub fn pessimistic() -> DetectionPolicy {
        DetectionPolicy {
            driven_x_detects: true,
            floating_x_detects: true,
        }
    }

    /// Optimistic policy: only a definite opposite level detects.
    pub fn optimistic() -> DetectionPolicy {
        DetectionPolicy {
            driven_x_detects: false,
            floating_x_detects: false,
        }
    }

    /// Whether observing `faulty` where the golden cell shows `golden`
    /// detects the defect.
    pub fn detects(self, golden: Value, faulty: Value) -> bool {
        if !golden.is_binary() {
            return false;
        }
        match faulty {
            Value::Zero | Value::One => faulty != golden,
            Value::Xd => self.driven_x_detects,
            Value::Xf => self.floating_x_detects,
        }
    }
}

/// Result of simulating one stimulus: the steady-state net values of each
/// phase (one for static stimuli, two for dynamic ones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    phases: Vec<Vec<Value>>,
}

impl SimResult {
    /// Net values at the end of the final phase.
    pub fn final_values(&self) -> &[Value] {
        self.phases.last().expect("at least one phase")
    }

    /// Value of `net` at the end of phase `phase` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `net` is out of range.
    pub fn value(&self, phase: usize, net: NetId) -> Value {
        self.phases[phase][net.index()]
    }

    /// Value of `net` at the end of the final phase.
    pub fn final_value(&self, net: NetId) -> Value {
        self.final_values()[net.index()]
    }

    /// Number of phases simulated (1 = static, 2 = dynamic).
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// The waveform seen on `net` across the stimulus, if the net is
    /// binary in every phase.
    pub fn wave(&self, net: NetId) -> Option<Wave> {
        let level = |v: Value| match v {
            Value::Zero => Some(false),
            Value::One => Some(true),
            _ => None,
        };
        let first = level(self.phases[0][net.index()])?;
        let last = level(self.final_values()[net.index()])?;
        Some(Wave::from_pair(first, last))
    }
}

/// Switch-level simulator for one cell with one (optional) injected defect.
///
/// # Example
///
/// ```
/// use ca_netlist::spice;
/// use ca_sim::{Simulator, Stimulus, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cell = spice::parse_cell(
///     ".SUBCKT INV A Z VDD VSS\nMP0 Z A VDD VDD pch\nMN0 Z A VSS VSS nch\n.ENDS",
/// )?;
/// let sim = Simulator::new(&cell);
/// let result = sim.run(&Stimulus::static_pattern(1, 0b1));
/// assert_eq!(result.final_value(cell.output()), Value::Zero);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'c> {
    cell: &'c Cell,
    graph: CellGraph<'c>,
}

impl<'c> Simulator<'c> {
    /// Golden (defect-free) simulator.
    pub fn new(cell: &'c Cell) -> Simulator<'c> {
        Simulator::with_injection(cell, Injection::None)
    }

    /// Simulator with `injection` applied.
    pub fn with_injection(cell: &'c Cell, injection: Injection) -> Simulator<'c> {
        Simulator {
            cell,
            graph: CellGraph::new(cell, injection),
        }
    }

    /// Simulator with `injection` applied and the solver iteration cap
    /// taken from `budget` (other budget axes are enforced by the
    /// characterization layers, not per-stimulus simulation).
    pub fn with_budget(cell: &'c Cell, injection: Injection, budget: &SimBudget) -> Simulator<'c> {
        let mut graph = CellGraph::new(cell, injection);
        if let Some(limit) = budget.max_solver_iterations {
            graph = graph.with_max_iterations(limit);
        }
        Simulator { cell, graph }
    }

    /// The simulated cell.
    pub fn cell(&self) -> &Cell {
        self.cell
    }

    /// Simulates `stimulus` from an unknown initial state.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus pin count does not match the cell.
    pub fn run(&self, stimulus: &Stimulus) -> SimResult {
        assert_eq!(
            stimulus.num_pins(),
            self.cell.num_inputs(),
            "stimulus pin count mismatch for cell `{}`",
            self.cell.name()
        );
        ca_obs::counter!("ca_sim.sim.runs", Work).inc();
        let fresh = vec![Value::Xf; self.cell.nets().len()];
        let initial: Vec<bool> = stimulus.waves().iter().map(|w| w.initial()).collect();
        let phase1 = self.graph.solve_phase(&initial, &fresh);
        if stimulus.is_static() {
            return SimResult {
                phases: vec![phase1],
            };
        }
        let stored: Vec<Value> = phase1.iter().map(|v| v.retained()).collect();
        let final_inputs: Vec<bool> = stimulus.waves().iter().map(|w| w.final_value()).collect();
        let phase2 = self.graph.solve_phase(&final_inputs, &stored);
        SimResult {
            phases: vec![phase1, phase2],
        }
    }

    /// Simulates `stimulus`, reporting non-convergence as an error
    /// instead of conservatively forcing unstable nets to `X`.
    ///
    /// This is the right entry point for *golden* simulation: a
    /// defect-free cell that oscillates (or exhausts a reduced solver
    /// budget) has no meaningful truth table, and characterizing it
    /// against silently X-forced responses would produce a garbage model.
    /// Faulty simulation should keep using [`Simulator::run`], where
    /// X-forcing is the correct conservative semantics.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus pin count does not match the cell.
    pub fn try_run(&self, stimulus: &Stimulus) -> Result<SimResult, SimError> {
        assert_eq!(
            stimulus.num_pins(),
            self.cell.num_inputs(),
            "stimulus pin count mismatch for cell `{}`",
            self.cell.name()
        );
        ca_obs::counter!("ca_sim.sim.checked_runs", Work).inc();
        let fresh = vec![Value::Xf; self.cell.nets().len()];
        let initial: Vec<bool> = stimulus.waves().iter().map(|w| w.initial()).collect();
        let phase1 = self.checked_phase(&initial, &fresh)?;
        if stimulus.is_static() {
            return Ok(SimResult {
                phases: vec![phase1],
            });
        }
        let stored: Vec<Value> = phase1.iter().map(|v| v.retained()).collect();
        let final_inputs: Vec<bool> = stimulus.waves().iter().map(|w| w.final_value()).collect();
        let phase2 = self.checked_phase(&final_inputs, &stored)?;
        Ok(SimResult {
            phases: vec![phase1, phase2],
        })
    }

    fn checked_phase(&self, inputs: &[bool], stored: &[Value]) -> Result<Vec<Value>, SimError> {
        match self.graph.solve_phase_checked(inputs, stored) {
            SolveOutcome::Converged(values) => Ok(values),
            SolveOutcome::Oscillated { nets, .. } => Err(SimError::Oscillated {
                nets: nets
                    .into_iter()
                    .map(|n| self.cell.nets()[n.index()].name().to_string())
                    .collect(),
            }),
            SolveOutcome::BudgetExceeded { .. } => Err(SimError::BudgetExceeded {
                resource: "solver iterations",
            }),
        }
    }

    /// Convenience: final value on the cell's (single) output.
    pub fn output(&self, stimulus: &Stimulus) -> Value {
        self.run(stimulus).final_value(self.cell.output())
    }

    /// Simulates an arbitrary pattern *sequence* with state carried
    /// between patterns (charge retention across the whole run) — the
    /// tester-like mode used by diagnosis experiments. Returns the
    /// steady-state net values after each pattern.
    ///
    /// # Panics
    ///
    /// Panics if any pattern exceeds the cell's input count (patterns are
    /// plain levels; bit `i` drives input `i`).
    pub fn run_sequence(&self, patterns: &[u32]) -> Vec<Vec<Value>> {
        let n = self.cell.num_inputs();
        let mut stored = vec![Value::Xf; self.cell.nets().len()];
        let mut out = Vec::with_capacity(patterns.len());
        for &p in patterns {
            assert!(
                (p as u64) < (1u64 << n),
                "pattern {p:#b} exceeds {n} inputs"
            );
            let inputs: Vec<bool> = (0..n).map(|i| (p >> i) & 1 == 1).collect();
            let values = self.graph.solve_phase(&inputs, &stored);
            stored = values.iter().map(|v| v.retained()).collect();
            out.push(values);
        }
        out
    }
}

/// Simulates `cell` against every stimulus with and without `injection`
/// and reports which stimuli detect the defect under `policy`. A stimulus
/// detects when *any* output pin deviates (multi-output cells are fully
/// observed).
///
/// Returns one flag per stimulus, in order. Uses the bit-parallel packed
/// engine (64 stimuli per solver pass) when the cell compiles to a
/// kernel and the scalar path when it does not; the flags are
/// bit-identical either way.
pub fn detection_row(
    cell: &Cell,
    injection: Injection,
    stimuli: &[Stimulus],
    policy: DetectionPolicy,
) -> Vec<bool> {
    crate::packed::detection_flags(cell, injection, stimuli, policy)
        .unwrap_or_else(|| detection_row_scalar(cell, injection, stimuli, policy))
}

/// The interpreted per-stimulus path of [`detection_row`] — always
/// available, and the reference the packed path is differentially tested
/// against.
pub fn detection_row_scalar(
    cell: &Cell,
    injection: Injection,
    stimuli: &[Stimulus],
    policy: DetectionPolicy,
) -> Vec<bool> {
    let golden = Simulator::new(cell);
    let faulty = Simulator::with_injection(cell, injection);
    stimuli
        .iter()
        .map(|s| {
            let g = golden.run(s);
            let f = faulty.run(s);
            cell.outputs()
                .iter()
                .any(|&out| policy.detects(g.final_value(out), f.final_value(out)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::{spice, Terminal};

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    #[test]
    fn golden_nand2_matches_truth_table() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let sim = Simulator::new(&cell);
        for p in 0..4u32 {
            let expected = Value::from_bool(!((p & 1 == 1) && (p & 2 == 2)));
            assert_eq!(sim.output(&Stimulus::static_pattern(2, p)), expected);
        }
    }

    #[test]
    fn dynamic_stimulus_runs_two_phases() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let sim = Simulator::new(&cell);
        let result = sim.run(&Stimulus::from_patterns(2, 0b01, 0b11));
        assert_eq!(result.num_phases(), 2);
        assert_eq!(result.final_value(cell.output()), Value::Zero);
        assert_eq!(result.wave(cell.output()), Some(Wave::Fall));
    }

    #[test]
    fn stuck_open_needs_two_patterns() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mn0 = cell.find_transistor("MN0").unwrap();
        let open = Injection::Open {
            transistor: mn0,
            terminal: Terminal::Source,
        };
        let policy = DetectionPolicy::default();
        // Statically undetected: output floats (Xf does not detect).
        let statics = Stimulus::all_static(2);
        let static_hits = detection_row(&cell, open, &statics, policy);
        assert!(static_hits.iter().all(|&d| !d));
        // The classic two-pattern test 01 -> 11 detects it.
        let pair = vec![Stimulus::from_patterns(2, 0b01, 0b11)];
        let hits = detection_row(&cell, open, &pair, policy);
        assert!(hits[0]);
    }

    #[test]
    fn stuck_on_short_detected_statically() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mp1 = cell.find_transistor("MP1").unwrap();
        let short = Injection::Short {
            transistor: mp1,
            a: Terminal::Drain,
            b: Terminal::Source,
        };
        let statics = Stimulus::all_static(2);
        let hits = detection_row(&cell, short, &statics, DetectionPolicy::default());
        // AB=11 sees the fight won by the short (Z stays 1, golden 0).
        assert!(hits[3]);
        // AB=00/01/10 are unaffected (golden already 1).
        assert!(!hits[0] && !hits[1]);
    }

    #[test]
    fn policies_differ_on_floating_x() {
        assert!(!DetectionPolicy::default().detects(Value::One, Value::Xf));
        assert!(DetectionPolicy::pessimistic().detects(Value::One, Value::Xf));
        assert!(!DetectionPolicy::optimistic().detects(Value::One, Value::Xd));
        assert!(DetectionPolicy::default().detects(Value::One, Value::Zero));
        assert!(!DetectionPolicy::default().detects(Value::Xd, Value::Zero));
    }

    #[test]
    fn sequence_matches_pairwise_simulation() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let sim = Simulator::new(&cell);
        // Sequence 00 -> 01 -> 11: the last transition is the classic
        // two-pattern test; its final state must match run() on (01, 11).
        let seq = sim.run_sequence(&[0b00, 0b01, 0b11]);
        assert_eq!(seq.len(), 3);
        let pairwise = sim.run(&Stimulus::from_patterns(2, 0b01, 0b11));
        assert_eq!(
            seq[2][cell.output().index()],
            pairwise.final_value(cell.output())
        );
    }

    #[test]
    fn sequence_retains_charge_through_opens() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mn0 = cell.find_transistor("MN0").unwrap();
        let sim = Simulator::with_injection(
            &cell,
            Injection::Open {
                transistor: mn0,
                terminal: Terminal::Drain,
            },
        );
        // Charge Z high, then float it for two consecutive patterns: the
        // stored 1 persists across the whole tail of the sequence.
        let seq = sim.run_sequence(&[0b01, 0b11, 0b11]);
        let z = cell.output().index();
        assert_eq!(seq[0][z], Value::One);
        assert_eq!(seq[1][z], Value::One);
        assert_eq!(seq[2][z], Value::One);
    }

    #[test]
    fn try_run_matches_run_on_stable_cells() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let sim = Simulator::new(&cell);
        for p in 0..4u32 {
            let s = Stimulus::static_pattern(2, p);
            let checked = sim.try_run(&s).expect("NAND2 converges");
            assert_eq!(checked, sim.run(&s));
        }
    }

    // With A=0 the pull-up charges Z; raising A opens the pull-up and
    // closes the foot of Z's self-gated pull-down, so the stored 1
    // discharges, floats back and discharges again: a binary oscillation
    // in the second phase of the rising stimulus.
    const RING: &str = "\
.SUBCKT OSC A Z VDD VSS
MP0 Z A VDD VDD pch
MN0 Z Z net0 VSS nch
MN1 net0 A VSS VSS nch
.ENDS
";

    #[test]
    fn try_run_reports_oscillation_by_net_name() {
        let cell = spice::parse_cell(RING).unwrap();
        let sim = Simulator::new(&cell);
        let err = sim
            .try_run(&Stimulus::from_patterns(1, 0b0, 0b1))
            .expect_err("armed feedback loop oscillates");
        match err {
            crate::SimError::Oscillated { nets } => {
                assert!(nets.contains(&"Z".to_string()), "nets: {nets:?}")
            }
            other => panic!("expected oscillation, got {other}"),
        }
    }

    #[test]
    fn budgeted_simulator_reports_exhaustion() {
        let cell = spice::parse_cell(RING).unwrap();
        let budget = crate::SimBudget {
            max_solver_iterations: Some(2),
            ..crate::SimBudget::unlimited()
        };
        let sim = Simulator::with_budget(&cell, Injection::None, &budget);
        let err = sim
            .try_run(&Stimulus::from_patterns(1, 0b0, 0b1))
            .expect_err("budget too small to converge");
        assert_eq!(
            err,
            crate::SimError::BudgetExceeded {
                resource: "solver iterations"
            }
        );
        // run() still X-forces under the same budget.
        let result = sim.run(&Stimulus::from_patterns(1, 0b0, 0b1));
        assert!(result.final_value(cell.output()).is_x());
    }

    #[test]
    #[should_panic(expected = "exceeds 2 inputs")]
    fn sequence_checks_pattern_width() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let sim = Simulator::new(&cell);
        let _ = sim.run_sequence(&[0b100]);
    }

    #[test]
    #[should_panic(expected = "stimulus pin count mismatch")]
    fn pin_count_mismatch_panics() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let sim = Simulator::new(&cell);
        let _ = sim.run(&Stimulus::static_pattern(3, 0));
    }
}
