//! Steady-state phase solver.
//!
//! Models the cell as a conduction graph: nets are nodes; each transistor
//! contributes a channel edge that conducts according to its gate value;
//! shorts contribute always-conducting zero-weight edges. Value *drivers*
//! are the two rails and the primary input pins.
//!
//! A phase is solved to a fixpoint: transistor conduction is derived from
//! the current net values, then net values are recomputed from multi-source
//! 0-1 BFS distances to 1-drivers and 0-drivers:
//!
//! - definite ("must") paths use only definitely-conducting edges,
//! - possible ("may") paths additionally use unknown-conduction edges,
//! - a net reached by must-paths to both rails is a *fight*, resolved in
//!   favour of the strictly shorter (stronger) path — shorts have weight 0,
//!   channels weight 1 — or [`Value::Xd`] on a tie,
//! - a net with no may-path to any driver floats and retains its stored
//!   charge.

use crate::injection::Injection;
use crate::values::Value;
use ca_netlist::{Cell, MosKind, NetId, Terminal};

const INF: u32 = u32::MAX;

/// Result of solving one phase with [`CellGraph::solve_phase_checked`].
///
/// Non-convergence is a first-class outcome: callers decide whether an
/// oscillation is an error (golden simulation must converge) or
/// acceptable conservatism (faulty simulation may force the unstable
/// nets to [`Value::Xd`], which is what [`CellGraph::solve_phase`] does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A fixpoint was reached; these are the steady-state net values.
    Converged(Vec<Value>),
    /// The natural iteration bound was exhausted without a fixpoint: the
    /// phase genuinely oscillates. `nets` lists the unstable nets;
    /// `values` is the last iterate with those nets forced to
    /// [`Value::Xd`].
    Oscillated {
        values: Vec<Value>,
        nets: Vec<NetId>,
    },
    /// An externally reduced iteration budget ran out before the natural
    /// bound; convergence is unknown. `values` is the last iterate with
    /// the still-changing nets forced to [`Value::Xd`].
    BudgetExceeded { values: Vec<Value> },
}

impl SolveOutcome {
    /// The net values, regardless of how the solve ended.
    pub fn values(&self) -> &[Value] {
        match self {
            SolveOutcome::Converged(v) => v,
            SolveOutcome::Oscillated { values, .. } => values,
            SolveOutcome::BudgetExceeded { values } => values,
        }
    }

    /// Consumes the outcome, returning the net values.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            SolveOutcome::Converged(v) => v,
            SolveOutcome::Oscillated { values, .. } => values,
            SolveOutcome::BudgetExceeded { values } => values,
        }
    }

    /// Whether the solve reached a fixpoint.
    pub fn converged(&self) -> bool {
        matches!(self, SolveOutcome::Converged(_))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conduction {
    On,
    Off,
    Unknown,
}

#[derive(Debug, Clone, Copy)]
enum EdgeKind {
    /// Channel of transistor `t` (weight 1, conduction from gate).
    Channel(usize),
    /// Hard short (weight 0, always conducting).
    Short,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    a: usize,
    b: usize,
    kind: EdgeKind,
}

/// The conduction graph of one cell with one injected defect.
#[derive(Debug, Clone)]
pub struct CellGraph<'c> {
    cell: &'c Cell,
    edges: Vec<Edge>,
    adj: Vec<Vec<(usize, usize)>>,
    forced_off: Vec<bool>,
    max_iterations: usize,
}

impl<'c> CellGraph<'c> {
    /// Builds the graph for `cell` with `injection` applied.
    pub fn new(cell: &'c Cell, injection: Injection) -> CellGraph<'c> {
        let n_nets = cell.nets().len();
        let n_transistors = cell.num_transistors();
        let mut forced_off = vec![false; n_transistors];
        let mut edges: Vec<Edge> = Vec::with_capacity(n_transistors + 2);
        for (id, t) in cell.transistor_ids() {
            edges.push(Edge {
                a: t.drain().index(),
                b: t.source().index(),
                kind: EdgeKind::Channel(id.index()),
            });
        }
        match injection {
            Injection::None => {}
            Injection::Open { transistor, .. } => {
                // Any terminal open leaves the device unable to conduct:
                // drain/source opens break the channel edge, a floating
                // gate is modelled as stuck-open.
                forced_off[transistor.index()] = true;
            }
            Injection::Short { transistor, a, b } => {
                let t = cell.transistor(transistor);
                let net_of = |term: Terminal| t.terminal(term).index();
                edges.push(Edge {
                    a: net_of(a),
                    b: net_of(b),
                    kind: EdgeKind::Short,
                });
            }
            Injection::NetShort { a, b } => {
                edges.push(Edge {
                    a: a.index(),
                    b: b.index(),
                    kind: EdgeKind::Short,
                });
            }
        }
        let mut adj = vec![Vec::new(); n_nets];
        for (i, e) in edges.iter().enumerate() {
            adj[e.a].push((i, e.b));
            adj[e.b].push((i, e.a));
        }
        CellGraph {
            cell,
            edges,
            adj,
            forced_off,
            max_iterations: CellGraph::natural_iterations(n_nets),
        }
    }

    /// The natural fixpoint iteration bound for a cell with `n_nets`
    /// nets: large enough that non-convergence implies true oscillation.
    pub fn natural_iterations(n_nets: usize) -> usize {
        2 * n_nets + 8
    }

    /// Caps the solver's fixpoint iterations at `limit` (floored at 1).
    /// A cap below the natural bound makes non-convergence report
    /// [`SolveOutcome::BudgetExceeded`] instead of `Oscillated`.
    pub fn with_max_iterations(mut self, limit: usize) -> CellGraph<'c> {
        self.max_iterations = limit.max(1);
        self
    }

    /// The current fixpoint iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Solves one phase, reporting convergence as a first-class outcome.
    /// `inputs[i]` is the level on primary input `i`; `stored` is the
    /// charge each net holds at the start of the phase.
    pub fn solve_phase_checked(&self, inputs: &[bool], stored: &[Value]) -> SolveOutcome {
        debug_assert_eq!(inputs.len(), self.cell.num_inputs());
        debug_assert_eq!(stored.len(), self.cell.nets().len());
        // Solve and sweep counts are `work`-class: the synchronous
        // fixpoint sweep count is a function of the graph and stimulus
        // alone (all nets update per sweep), so it is invariant across
        // thread counts and net orderings (DESIGN.md §9).
        ca_obs::counter!("ca_sim.solver.solves").inc();
        let mut values = stored.to_vec();
        // Seed with driver levels so the first conduction pass sees them.
        self.apply_drivers(&mut values, inputs);
        let mut previous = values.clone();
        for iteration in 0..self.max_iterations {
            let conduction = self.conduction(&values);
            let next = self.net_values(&conduction, inputs, stored);
            if next == values {
                ca_obs::counter!("ca_sim.solver.iterations").add(iteration as u64 + 1);
                // Iterations-to-convergence distribution, shared with the
                // packed solver so both paths feed one histogram.
                ca_obs::histogram!("ca_sim.solver.iterations_to_convergence")
                    .observe(iteration as u64 + 1);
                return SolveOutcome::Converged(next);
            }
            if iteration + 1 == self.max_iterations {
                ca_obs::counter!("ca_sim.solver.iterations").add(self.max_iterations as u64);
                // No fixpoint within the cap: conservatively mark the
                // unstable nets as driven-unknown and report why.
                let mut unstable = Vec::new();
                let mut forced = next;
                for (i, v) in forced.iter_mut().enumerate() {
                    if previous[i] != values[i] {
                        *v = Value::Xd;
                        unstable.push(NetId(i as u32));
                    }
                }
                let natural = CellGraph::natural_iterations(self.cell.nets().len());
                return if self.max_iterations < natural {
                    ca_obs::counter!("ca_sim.solver.budget_exceeded").inc();
                    SolveOutcome::BudgetExceeded { values: forced }
                } else {
                    ca_obs::counter!("ca_sim.solver.oscillations").inc();
                    SolveOutcome::Oscillated {
                        values: forced,
                        nets: unstable,
                    }
                };
            }
            previous = std::mem::replace(&mut values, next);
        }
        SolveOutcome::Converged(values)
    }

    /// Solves one phase, forcing unstable nets to [`Value::Xd`] on
    /// non-convergence — the historical conservative behaviour, correct
    /// for *faulty* simulation where an injected defect may create a
    /// ring. Golden simulation should use [`solve_phase_checked`] so
    /// oscillation surfaces as an error instead.
    ///
    /// [`solve_phase_checked`]: CellGraph::solve_phase_checked
    pub fn solve_phase(&self, inputs: &[bool], stored: &[Value]) -> Vec<Value> {
        self.solve_phase_checked(inputs, stored).into_values()
    }

    fn apply_drivers(&self, values: &mut [Value], inputs: &[bool]) {
        values[self.cell.power().index()] = Value::One;
        values[self.cell.ground().index()] = Value::Zero;
        for (i, &net) in self.cell.inputs().iter().enumerate() {
            values[net.index()] = Value::from_bool(inputs[i]);
        }
    }

    fn conduction(&self, values: &[Value]) -> Vec<Conduction> {
        self.cell
            .transistor_ids()
            .map(|(id, t)| {
                if self.forced_off[id.index()] {
                    return Conduction::Off;
                }
                let gate = values[t.gate().index()];
                match (t.kind(), gate) {
                    (MosKind::Nmos, Value::One) | (MosKind::Pmos, Value::Zero) => Conduction::On,
                    (MosKind::Nmos, Value::Zero) | (MosKind::Pmos, Value::One) => Conduction::Off,
                    _ => Conduction::Unknown,
                }
            })
            .collect()
    }

    /// 0-1 BFS from all driver nets of `level`, using edges admitted by
    /// `admit_unknown`.
    fn distances(
        &self,
        conduction: &[Conduction],
        inputs: &[bool],
        level: bool,
        admit_unknown: bool,
    ) -> Vec<u32> {
        let n = self.adj.len();
        let mut dist = vec![INF; n];
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u32, usize)>> =
            std::collections::BinaryHeap::new();
        // Graded strength model: rails are the strongest drivers (0),
        // primary inputs are driven through the previous stage's devices
        // (1), every conducting channel adds 2, hard shorts add 0. A hard
        // short to a rail therefore beats an input driver, which in turn
        // beats any transistor path.
        let rail = if level {
            self.cell.power()
        } else {
            self.cell.ground()
        };
        dist[rail.index()] = 0;
        heap.push(std::cmp::Reverse((0, rail.index())));
        for (i, &net) in self.cell.inputs().iter().enumerate() {
            if inputs[i] == level && dist[net.index()] > 1 {
                dist[net.index()] = 1;
                heap.push(std::cmp::Reverse((1, net.index())));
            }
        }
        while let Some(std::cmp::Reverse((du, u))) = heap.pop() {
            if du > dist[u] {
                continue;
            }
            for &(edge_idx, v) in &self.adj[u] {
                let edge = self.edges[edge_idx];
                let weight = match edge.kind {
                    EdgeKind::Short => 0,
                    EdgeKind::Channel(t) => match conduction[t] {
                        Conduction::On => 2,
                        Conduction::Unknown if admit_unknown => 2,
                        _ => continue,
                    },
                };
                let candidate = du.saturating_add(weight);
                if candidate < dist[v] {
                    dist[v] = candidate;
                    heap.push(std::cmp::Reverse((candidate, v)));
                }
            }
        }
        dist
    }

    fn net_values(
        &self,
        conduction: &[Conduction],
        inputs: &[bool],
        stored: &[Value],
    ) -> Vec<Value> {
        let must1 = self.distances(conduction, inputs, true, false);
        let must0 = self.distances(conduction, inputs, false, false);
        let may1 = self.distances(conduction, inputs, true, true);
        let may0 = self.distances(conduction, inputs, false, true);
        (0..self.adj.len())
            .map(|n| {
                let (m1, m0) = (must1[n] != INF, must0[n] != INF);
                let (y1, y0) = (may1[n] != INF, may0[n] != INF);
                if !y1 && !y0 {
                    // Fully isolated: the node keeps its charge.
                    stored[n]
                } else if !m1 && !m0 {
                    // Possibly driven, possibly floating: unknown charge.
                    Value::Xf
                } else {
                    // A side wins when its definite drive is strictly
                    // stronger than everything the opposite side might
                    // muster (its *may* distance).
                    let win1 = m1 && must1[n] < may0[n];
                    let win0 = m0 && must0[n] < may1[n];
                    match (win1, win0) {
                        (true, false) => Value::One,
                        (false, true) => Value::Zero,
                        _ => Value::Xd,
                    }
                }
            })
            .collect()
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

    fn fresh(cell: &Cell) -> Vec<Value> {
        vec![Value::Xf; cell.nets().len()]
    }

    #[test]
    fn nand2_truth_table() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let graph = CellGraph::new(&cell, Injection::None);
        let z = cell.output().index();
        for (a, b, expected) in [
            (false, false, Value::One),
            (false, true, Value::One),
            (true, false, Value::One),
            (true, true, Value::Zero),
        ] {
            let values = graph.solve_phase(&[a, b], &fresh(&cell));
            assert_eq!(values[z], expected, "a={a} b={b}");
        }
    }

    #[test]
    fn open_floats_output_statically() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mn0 = cell.find_transistor("MN0").unwrap();
        let graph = CellGraph::new(
            &cell,
            Injection::Open {
                transistor: mn0,
                terminal: Terminal::Drain,
            },
        );
        let values = graph.solve_phase(&[true, true], &fresh(&cell));
        assert_eq!(values[cell.output().index()], Value::Xf);
    }

    #[test]
    fn open_retains_previous_charge() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mn0 = cell.find_transistor("MN0").unwrap();
        let graph = CellGraph::new(
            &cell,
            Injection::Open {
                transistor: mn0,
                terminal: Terminal::Drain,
            },
        );
        // Phase 1: AB=01 drives Z to 1 through MP0.
        let phase1 = graph.solve_phase(&[false, true], &fresh(&cell));
        assert_eq!(phase1[cell.output().index()], Value::One);
        // Phase 2: AB=11 floats Z (pull-down broken), so it keeps the 1.
        let stored: Vec<Value> = phase1.iter().map(|v| v.retained()).collect();
        let phase2 = graph.solve_phase(&[true, true], &stored);
        assert_eq!(phase2[cell.output().index()], Value::One);
    }

    #[test]
    fn drain_source_short_wins_fight() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mp1 = cell.find_transistor("MP1").unwrap();
        let graph = CellGraph::new(
            &cell,
            Injection::Short {
                transistor: mp1,
                a: Terminal::Drain,
                b: Terminal::Source,
            },
        );
        // AB=11: golden pulls Z low (weight 2), the short offers VDD at
        // weight 0 — the short wins the fight.
        let values = graph.solve_phase(&[true, true], &fresh(&cell));
        assert_eq!(values[cell.output().index()], Value::One);
    }

    #[test]
    fn balanced_fight_is_driven_x() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mn0 = cell.find_transistor("MN0").unwrap();
        // Short MN0 drain-source: bridges Z to net0 at weight 0.
        let graph = CellGraph::new(
            &cell,
            Injection::Short {
                transistor: mn0,
                a: Terminal::Drain,
                b: Terminal::Source,
            },
        );
        // AB=01: pull-up through MP0 (weight 1) vs pull-down short+MN1
        // (weight 0+1=1): balanced fight.
        let values = graph.solve_phase(&[false, true], &fresh(&cell));
        assert_eq!(values[cell.output().index()], Value::Xd);
    }

    #[test]
    fn gate_short_propagates_input() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let mp0 = cell.find_transistor("MP0").unwrap();
        // MP0 gate-drain short bridges input A to output Z at weight 0.
        let graph = CellGraph::new(
            &cell,
            Injection::Short {
                transistor: mp0,
                a: Terminal::Gate,
                b: Terminal::Drain,
            },
        );
        // AB=01: golden Z=1. With the short, A=0 reaches Z through the
        // defect at strength 1 (input driver) + 0 (short), beating MP0's
        // pull-up at strength 2 (one channel): Z is dragged to 0.
        let values = graph.solve_phase(&[false, true], &fresh(&cell));
        assert_eq!(values[cell.output().index()], Value::Zero);
    }

    #[test]
    fn feedback_loop_terminates_with_unknown() {
        // Z gates its own pull-down: with the pull-up off this is a
        // self-inverting loop — the solver must terminate and report an
        // unknown rather than oscillate forever.
        let src = "\
.SUBCKT OSC A Z VDD VSS
MP0 Z A VDD VDD pch
MN0 Z Z VSS VSS nch
.ENDS
";
        let cell = spice::parse_cell(src).unwrap();
        let graph = CellGraph::new(&cell, Injection::None);
        let values = graph.solve_phase(&[true], &fresh(&cell));
        assert!(
            values[cell.output().index()].is_x(),
            "got {}",
            values[cell.output().index()]
        );
    }

    #[test]
    fn checked_solve_reports_convergence() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let graph = CellGraph::new(&cell, Injection::None);
        let outcome = graph.solve_phase_checked(&[true, true], &fresh(&cell));
        assert!(outcome.converged());
        assert_eq!(outcome.values()[cell.output().index()], Value::Zero);
    }

    // A genuine binary oscillator: with A=1 the pull-up is off and Z
    // gates its own pull-down, so a stored 1 on Z discharges, floats
    // back to the stored 1, and discharges again — a period-2 cycle the
    // fixpoint iteration can never escape.
    const RING: &str = "\
.SUBCKT OSC A Z VDD VSS
MP0 Z A VDD VDD pch
MN0 Z Z net0 VSS nch
MN1 net0 A VSS VSS nch
.ENDS
";

    fn ring_armed(cell: &Cell) -> Vec<Value> {
        let mut stored = fresh(cell);
        stored[cell.output().index()] = Value::One;
        stored
    }

    #[test]
    fn checked_solve_reports_oscillation_with_nets() {
        let cell = spice::parse_cell(RING).unwrap();
        let graph = CellGraph::new(&cell, Injection::None);
        match graph.solve_phase_checked(&[true], &ring_armed(&cell)) {
            SolveOutcome::Oscillated { values, nets } => {
                assert!(nets.contains(&cell.output()), "unstable nets: {nets:?}");
                assert!(values[cell.output().index()].is_x());
            }
            other => panic!("expected oscillation, got {other:?}"),
        }
    }

    #[test]
    fn reduced_iteration_budget_reports_budget_exceeded() {
        let cell = spice::parse_cell(RING).unwrap();
        let graph = CellGraph::new(&cell, Injection::None).with_max_iterations(2);
        match graph.solve_phase_checked(&[true], &ring_armed(&cell)) {
            SolveOutcome::BudgetExceeded { values } => {
                assert!(values[cell.output().index()].is_x());
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn reduced_budget_still_converges_on_easy_cells() {
        // NAND2 settles in a couple of iterations; a tight budget that is
        // still sufficient must report Converged, not BudgetExceeded.
        let cell = spice::parse_cell(NAND2).unwrap();
        let graph = CellGraph::new(&cell, Injection::None).with_max_iterations(6);
        let outcome = graph.solve_phase_checked(&[false, true], &fresh(&cell));
        assert!(outcome.converged());
        assert_eq!(outcome.values()[cell.output().index()], Value::One);
    }

    #[test]
    fn rails_hold_their_levels() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let graph = CellGraph::new(&cell, Injection::None);
        let values = graph.solve_phase(&[false, false], &fresh(&cell));
        assert_eq!(values[cell.power().index()], Value::One);
        assert_eq!(values[cell.ground().index()], Value::Zero);
    }
}
