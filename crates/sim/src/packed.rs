//! Bit-parallel pattern-packed simulation (PPSFP, DESIGN.md §12).
//!
//! The scalar solver evaluates one `(stimulus, defect)` pair per
//! fixpoint solve. This module packs **64 stimuli into one solve**: a
//! net's four-valued [`Value`] is encoded as two bitplanes
//! ([`PackedValue`]), one `u64` bit per stimulus *lane*, and every
//! solver operation — conduction, rail reachability, fight resolution,
//! convergence detection, oscillation forcing — becomes a handful of
//! word-wide boolean ops that act on all 64 lanes at once. Per lane,
//! the trajectory is *exactly* the scalar solver's: no operation mixes
//! bits across lanes, so convergence, oscillation and budget semantics
//! are preserved lane-by-lane and the results are bit-identical to
//! [`CellGraph::solve_phase_checked`](crate::solver::CellGraph).
//!
//! The scalar solver's four Dijkstra passes are replaced by a
//! level-synchronous reachability sweep: `R[d]` masks ("distance ≤ d"
//! per lane) grow level by level (rails seed level 0, input drivers
//! level 1, conducting channels relax at weight 2, hard shorts close at
//! weight 0), and the strict `must < may` strength comparison is
//! accumulated as `∃d: must ≤ d < may` — see DESIGN.md §12 for the
//! correctness argument.
//!
//! On top sits single-fault cone restriction for stuck-open defects:
//! the golden solve records, per transistor, the lanes where the device
//! never conducted in any iteration; for those lanes an `Open` on that
//! device provably cannot change the trajectory, so the faulty solve
//! skips them and reuses the cached golden bitplanes
//! (`ca_sim.packed.cone_skips`).
//!
//! Every caller takes the packed path whenever [`CellKernel::compile`]
//! accepts the cell and falls back to the scalar solver when it
//! declines; no switch chooses between them.

use crate::injection::Injection;
use crate::kernel::CellKernel;
use crate::simulator::DetectionPolicy;
use crate::solver::CellGraph;
use crate::values::{Stimulus, Value};
use ca_netlist::Cell;

/// Number of stimulus lanes per packed word.
pub const LANES: usize = 64;

/// 64 lanes of a four-valued [`Value`], encoded as two bitplanes:
/// `hi` is set for `{One, Xd}`, `x` is set for `{Xf, Xd}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedValue {
    /// Lanes whose value is `One` or `Xd`.
    pub hi: u64,
    /// Lanes whose value is `Xf` or `Xd`.
    pub x: u64,
}

impl PackedValue {
    /// The same value in every lane.
    pub fn splat(v: Value) -> PackedValue {
        match v {
            Value::Zero => PackedValue { hi: 0, x: 0 },
            Value::One => PackedValue { hi: !0, x: 0 },
            Value::Xf => PackedValue { hi: 0, x: !0 },
            Value::Xd => PackedValue { hi: !0, x: !0 },
        }
    }

    /// The value in `lane`.
    pub fn get(self, lane: usize) -> Value {
        let hi = (self.hi >> lane) & 1 == 1;
        let x = (self.x >> lane) & 1 == 1;
        match (hi, x) {
            (false, false) => Value::Zero,
            (true, false) => Value::One,
            (false, true) => Value::Xf,
            (true, true) => Value::Xd,
        }
    }

    /// Sets `lane` to `v`.
    pub fn set(&mut self, lane: usize, v: Value) {
        let bit = 1u64 << lane;
        let s = PackedValue::splat(v);
        self.hi = (self.hi & !bit) | (s.hi & bit);
        self.x = (self.x & !bit) | (s.x & bit);
    }

    /// Lane-wise [`Value::retained`]: fights decay to floating unknowns
    /// (`Xd → Xf`), binaries keep their level.
    pub fn retained(self) -> PackedValue {
        PackedValue {
            hi: self.hi & !self.x,
            x: self.x,
        }
    }
}

/// Up to 64 stimuli transposed into per-pin lane masks.
#[derive(Debug, Clone)]
pub struct StimulusBlock {
    /// Mask of occupied lanes (lane `i` carries stimulus `base + i`).
    pub lanes: u64,
    /// Lanes whose stimulus has a transition (two-phase lanes).
    pub dynamic: u64,
    /// Per input pin: lanes where the pin is high in phase 1.
    pub initial: Vec<u64>,
    /// Per input pin: lanes where the pin is high in phase 2.
    pub final_inputs: Vec<u64>,
}

impl StimulusBlock {
    /// Number of occupied lanes.
    pub fn occupancy(&self) -> usize {
        self.lanes.count_ones() as usize
    }
}

/// A stimulus list transposed into [`StimulusBlock`]s of 64 lanes.
#[derive(Debug, Clone)]
pub struct PackedStimulus {
    n_inputs: usize,
    blocks: Vec<StimulusBlock>,
}

impl PackedStimulus {
    /// Transposes `stimuli` into blocks of up to 64 lanes, in order:
    /// stimulus `i` occupies lane `i % 64` of block `i / 64`.
    ///
    /// # Panics
    ///
    /// Panics if any stimulus pin count differs from `n_inputs`.
    pub fn pack(n_inputs: usize, stimuli: &[Stimulus]) -> PackedStimulus {
        let mut blocks = Vec::with_capacity(stimuli.len().div_ceil(LANES));
        for chunk in stimuli.chunks(LANES) {
            let mut block = StimulusBlock {
                lanes: 0,
                dynamic: 0,
                initial: vec![0; n_inputs],
                final_inputs: vec![0; n_inputs],
            };
            for (lane, stimulus) in chunk.iter().enumerate() {
                assert_eq!(
                    stimulus.num_pins(),
                    n_inputs,
                    "stimulus pin count mismatch in packed block"
                );
                let bit = 1u64 << lane;
                block.lanes |= bit;
                if !stimulus.is_static() {
                    block.dynamic |= bit;
                }
                for (pin, wave) in stimulus.waves().iter().enumerate() {
                    if wave.initial() {
                        block.initial[pin] |= bit;
                    }
                    if wave.final_value() {
                        block.final_inputs[pin] |= bit;
                    }
                }
            }
            blocks.push(block);
        }
        PackedStimulus { n_inputs, blocks }
    }

    /// The blocks, in stimulus order.
    pub fn blocks(&self) -> &[StimulusBlock] {
        &self.blocks
    }

    /// Input pin count the blocks were packed for.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }
}

/// How one lane's phase solve ended — the packed mirror of
/// [`SolveOutcome`](crate::solver::SolveOutcome)'s three classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneOutcome {
    /// The lane reached a fixpoint.
    Converged,
    /// The natural iteration bound ran out: true oscillation.
    Oscillated,
    /// A reduced iteration budget ran out before the natural bound.
    BudgetExceeded,
}

/// Per-lane outcome masks of one packed phase solve.
#[derive(Debug, Clone, Default)]
pub struct PhaseOutcomes {
    /// Lanes that reached a fixpoint.
    pub converged: u64,
    /// Lanes that exhausted the natural iteration bound.
    pub oscillated: u64,
    /// Lanes that exhausted a reduced (budget) iteration cap.
    pub budget_exceeded: u64,
    /// Per net: lanes where the net was still changing at the cap (the
    /// nets scalar `SolveOutcome::Oscillated` reports, X-forced).
    pub unstable: Vec<u64>,
    /// Per transistor: lanes where the device's conduction was `Off` in
    /// *every* executed iteration — the activation mask cone restriction
    /// keys on.
    pub off_all: Vec<u64>,
}

impl PhaseOutcomes {
    /// The outcome class of `lane`.
    pub fn lane(&self, lane: usize) -> LaneOutcome {
        let bit = 1u64 << lane;
        if self.oscillated & bit != 0 {
            LaneOutcome::Oscillated
        } else if self.budget_exceeded & bit != 0 {
            LaneOutcome::BudgetExceeded
        } else {
            LaneOutcome::Converged
        }
    }
}

/// Result of running one [`StimulusBlock`] through both phases.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// Mask of lanes the block occupied.
    pub lanes: u64,
    /// Lanes that ran a second phase.
    pub dynamic: u64,
    /// Per net: steady-state planes at the end of phase 1.
    pub phase1: Vec<PackedValue>,
    /// Per net: phase-1 planes after charge retention (`Xd → Xf`) — the
    /// stored charge phase 2 starts from.
    pub retained1: Vec<PackedValue>,
    /// Per net: final planes (phase 1 for static lanes, phase 2 for
    /// dynamic ones).
    pub final_values: Vec<PackedValue>,
    /// Phase-1 outcome masks.
    pub p1: PhaseOutcomes,
    /// Phase-2 outcome masks (meaningful on `dynamic` lanes only).
    pub p2: PhaseOutcomes,
}

impl BlockResult {
    /// Value of `net` in `lane` at the end of phase `phase` (0-based;
    /// phase 1 of a static lane is also its final phase).
    pub fn value(&self, phase: usize, net: usize, lane: usize) -> Value {
        match phase {
            0 => self.phase1[net].get(lane),
            1 => self.final_values[net].get(lane),
            _ => panic!("phase {phase} out of range"),
        }
    }

    /// One lane's per-phase net values, in [`SimResult`] shape (one
    /// phase for static lanes, two for dynamic ones).
    ///
    /// [`SimResult`]: crate::simulator::SimResult
    pub fn lane_phases(&self, lane: usize) -> Vec<Vec<Value>> {
        let unpack = |planes: &[PackedValue]| planes.iter().map(|p| p.get(lane)).collect();
        if self.dynamic & (1u64 << lane) != 0 {
            vec![unpack(&self.phase1), unpack(&self.final_values)]
        } else {
            vec![unpack(&self.phase1)]
        }
    }
}

// Reachability family indices: must/may × level.
const M1: usize = 0;
const M0: usize = 1;
const Y1: usize = 2;
const Y0: usize = 3;

/// Scratch buffers for the level-synchronous reachability sweep,
/// allocated once per phase solve and reused across fixpoint iterations.
struct DistScratch {
    cur: [Vec<u64>; 4],
    prev: [Vec<u64>; 4],
    prev2: [Vec<u64>; 4],
    win1: Vec<u64>,
    win0: Vec<u64>,
}

impl DistScratch {
    fn new(n_nets: usize) -> DistScratch {
        let z = || {
            [
                vec![0; n_nets],
                vec![0; n_nets],
                vec![0; n_nets],
                vec![0; n_nets],
            ]
        };
        DistScratch {
            cur: z(),
            prev: z(),
            prev2: z(),
            win1: vec![0; n_nets],
            win0: vec![0; n_nets],
        }
    }

    fn reset(&mut self) {
        for f in 0..4 {
            self.cur[f].fill(0);
            self.prev[f].fill(0);
            self.prev2[f].fill(0);
        }
        self.win1.fill(0);
        self.win0.fill(0);
    }
}

/// The packed evaluator for one cell kernel with one injected defect:
/// the word-parallel counterpart of
/// [`Simulator`](crate::simulator::Simulator).
#[derive(Debug, Clone)]
pub struct PackedSim<'k> {
    kernel: &'k CellKernel,
    forced_off: Vec<bool>,
    /// Injected hard short (weight-0 edge), if any.
    short_edge: Option<(usize, usize)>,
    max_iterations: usize,
}

impl<'k> PackedSim<'k> {
    /// Builds the evaluator for `kernel` with `injection` applied and an
    /// optional solver iteration cap (floored at 1, mirroring
    /// [`CellGraph::with_max_iterations`]).
    pub fn new(
        kernel: &'k CellKernel,
        injection: Injection,
        max_iterations: Option<usize>,
    ) -> PackedSim<'k> {
        let mut forced_off = vec![false; kernel.n_transistors()];
        let mut short_edge = None;
        match injection {
            Injection::None => {}
            Injection::Open { transistor, .. } => forced_off[transistor.index()] = true,
            Injection::Short { transistor, a, b } => {
                let t = transistor.index();
                short_edge = Some((kernel.terminal(t, a), kernel.terminal(t, b)));
            }
            Injection::NetShort { a, b } => short_edge = Some((a.index(), b.index())),
        }
        let natural = CellGraph::natural_iterations(kernel.n_nets());
        PackedSim {
            kernel,
            forced_off,
            short_edge,
            max_iterations: max_iterations.map_or(natural, |l| l.max(1)),
        }
    }

    /// The solver iteration cap in force.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Runs `block` through both phases from an unknown initial state —
    /// the packed counterpart of [`Simulator::run`] for all lanes at
    /// once, with identical per-lane values and outcome classes.
    ///
    /// [`Simulator::run`]: crate::simulator::Simulator::run
    pub fn run_block(&self, block: &StimulusBlock) -> BlockResult {
        ca_obs::counter!("ca_sim.packed.blocks").inc();
        ca_obs::counter!("ca_sim.packed.lanes").add(u64::from(block.lanes.count_ones()));
        let n = self.kernel.n_nets();
        let fresh = vec![PackedValue::splat(Value::Xf); n];
        let (phase1, p1) = self.solve_phase(&block.initial, &fresh, block.lanes);
        let retained1: Vec<PackedValue> = phase1.iter().map(|p| p.retained()).collect();
        let (final_values, p2) = if block.dynamic != 0 {
            let (mut p2v, p2) = self.solve_phase(&block.final_inputs, &retained1, block.dynamic);
            // Static lanes end at phase 1; only dynamic lanes take the
            // phase-2 planes.
            for (v2, v1) in p2v.iter_mut().zip(&phase1) {
                v2.hi = (v1.hi & !block.dynamic) | (v2.hi & block.dynamic);
                v2.x = (v1.x & !block.dynamic) | (v2.x & block.dynamic);
            }
            (p2v, p2)
        } else {
            (phase1.clone(), PhaseOutcomes::default())
        };
        BlockResult {
            lanes: block.lanes,
            dynamic: block.dynamic,
            phase1,
            retained1,
            final_values,
            p1,
            p2,
        }
    }

    /// Like [`PackedSim::run_block`], but with single-fault cone
    /// restriction against a cached golden result: when this evaluator
    /// injects `Open` on `open_transistor` and the golden solve proves
    /// the device never conducted in a lane (its
    /// [`PhaseOutcomes::off_all`] bit), that lane's faulty trajectory is
    /// identical to the golden one, so the solve skips it and reuses the
    /// golden bitplanes (counted as `ca_sim.packed.cone_skips`).
    ///
    /// `golden` must be the defect-free result of the *same* block.
    pub fn run_block_against(
        &self,
        block: &StimulusBlock,
        golden: &BlockResult,
        open_transistor: Option<usize>,
    ) -> BlockResult {
        let Some(t) = open_transistor else {
            return self.run_block(block);
        };
        let n = self.kernel.n_nets();
        let skip1 = golden.p1.off_all[t] & block.lanes;
        let solve1 = block.lanes & !skip1;
        ca_obs::counter!("ca_sim.packed.cone_skips").add(u64::from(skip1.count_ones()));
        ca_obs::counter!("ca_sim.packed.blocks").inc();
        ca_obs::counter!("ca_sim.packed.lanes").add(u64::from(solve1.count_ones()));
        let fresh = vec![PackedValue::splat(Value::Xf); n];
        let (mut phase1, mut p1) = if solve1 != 0 {
            self.solve_phase(&block.initial, &fresh, solve1)
        } else {
            (fresh, empty_outcomes(self.kernel))
        };
        // Skipped lanes reuse the golden planes and inherit the golden
        // outcome masks (the trajectories are identical by construction).
        merge_planes(&mut phase1, &golden.phase1, skip1);
        merge_outcomes(&mut p1, &golden.p1, skip1);
        let retained1: Vec<PackedValue> = phase1.iter().map(|p| p.retained()).collect();

        // Phase 2 can be skipped where the stored charge entering it is
        // identical to the golden one *and* the device never conducted
        // in the golden phase 2.
        let mut same_retained = !0u64;
        for (f, g) in retained1.iter().zip(&golden.retained1) {
            same_retained &= !((f.hi ^ g.hi) | (f.x ^ g.x));
        }
        let skip2 = block.dynamic & same_retained & golden.p2.off_all.get(t).copied().unwrap_or(0);
        let solve2 = block.dynamic & !skip2;
        ca_obs::counter!("ca_sim.packed.cone_skips").add(u64::from(skip2.count_ones()));
        let (final_values, p2) = if block.dynamic != 0 {
            let (mut p2v, mut p2) = if solve2 != 0 {
                self.solve_phase(&block.final_inputs, &retained1, solve2)
            } else {
                (retained1.clone(), empty_outcomes(self.kernel))
            };
            merge_planes(&mut p2v, &golden.final_values, skip2);
            merge_outcomes(&mut p2, &golden.p2, skip2);
            for (v2, v1) in p2v.iter_mut().zip(&phase1) {
                v2.hi = (v1.hi & !block.dynamic) | (v2.hi & block.dynamic);
                v2.x = (v1.x & !block.dynamic) | (v2.x & block.dynamic);
            }
            (p2v, p2)
        } else {
            (phase1.clone(), PhaseOutcomes::default())
        };
        BlockResult {
            lanes: block.lanes,
            dynamic: block.dynamic,
            phase1,
            retained1,
            final_values,
            p1,
            p2,
        }
    }

    /// Solves one phase for the lanes in `solve`, replicating
    /// [`CellGraph::solve_phase_checked`] lane-by-lane: same seeding,
    /// same per-iteration update, same convergence test, same
    /// oscillation forcing and iteration accounting.
    ///
    /// [`CellGraph::solve_phase_checked`]: crate::solver::CellGraph::solve_phase_checked
    fn solve_phase(
        &self,
        inputs_hi: &[u64],
        stored: &[PackedValue],
        solve: u64,
    ) -> (Vec<PackedValue>, PhaseOutcomes) {
        let kernel = self.kernel;
        let n = kernel.n_nets();
        let n_t = kernel.n_transistors();
        ca_obs::counter!("ca_sim.solver.solves").add(u64::from(solve.count_ones()));

        let mut values = stored.to_vec();
        // Seed drivers so the first conduction pass sees them, exactly
        // like the scalar `apply_drivers`.
        values[kernel.power()] = PackedValue::splat(Value::One);
        values[kernel.ground()] = PackedValue::splat(Value::Zero);
        for (pin, &net) in kernel.inputs().iter().enumerate() {
            values[net] = PackedValue {
                hi: inputs_hi[pin],
                x: 0,
            };
        }

        let mut outcomes = empty_outcomes(kernel);
        let mut scratch = DistScratch::new(n);
        let mut on = vec![0u64; n_t];
        let mut unknown = vec![0u64; n_t];
        let mut next = vec![PackedValue::default(); n];
        let mut diff_prev = vec![0u64; n];
        let mut diff_now = vec![0u64; n];
        let mut active = solve;
        let mut iters = [0u32; LANES];

        for iteration in 0..self.max_iterations {
            ca_obs::counter!("ca_sim.solver.iterations").add(u64::from(active.count_ones()));
            let mut m = active;
            while m != 0 {
                iters[m.trailing_zeros() as usize] += 1;
                m &= m - 1;
            }
            // Conduction from current net values (lane-wise).
            for t in 0..n_t {
                if self.forced_off[t] {
                    on[t] = 0;
                    unknown[t] = 0;
                    outcomes.off_all[t] &= !0;
                    continue;
                }
                let gate = values[kernel.gate(t)];
                let binary = !gate.x;
                let (t_on, t_off) = if kernel.is_pmos(t) {
                    (!gate.hi & binary, gate.hi & binary)
                } else {
                    (gate.hi & binary, !gate.hi & binary)
                };
                on[t] = t_on;
                unknown[t] = gate.x;
                outcomes.off_all[t] &= t_off;
            }
            self.net_values(&mut scratch, &on, &unknown, inputs_hi, stored, &mut next);
            // Lane-wise convergence: a lane converges when no net's
            // planes changed in it.
            let mut changed = 0u64;
            for i in 0..n {
                let d = (values[i].hi ^ next[i].hi) | (values[i].x ^ next[i].x);
                diff_now[i] = d;
                changed |= d;
            }
            let newly = active & !changed;
            if newly != 0 {
                outcomes.converged |= newly;
                let hist = ca_obs::histogram!("ca_sim.solver.iterations_to_convergence");
                let mut m = newly;
                while m != 0 {
                    hist.observe(u64::from(iters[m.trailing_zeros() as usize]));
                    m &= m - 1;
                }
            }
            active &= changed;
            if active == 0 {
                values.copy_from_slice(&next);
                break;
            }
            if iteration + 1 == self.max_iterations {
                // Cap hit with lanes still changing: force the nets that
                // were unstable in the *previous* iterate to Xd, exactly
                // like the scalar solver (`previous[i] != values[i]`).
                for i in 0..n {
                    let m = diff_prev[i] & active;
                    if m != 0 {
                        next[i].hi |= m;
                        next[i].x |= m;
                        outcomes.unstable[i] = m;
                    }
                }
                let natural = CellGraph::natural_iterations(n);
                if self.max_iterations < natural {
                    ca_obs::counter!("ca_sim.solver.budget_exceeded")
                        .add(u64::from(active.count_ones()));
                    outcomes.budget_exceeded = active;
                } else {
                    ca_obs::counter!("ca_sim.solver.oscillations")
                        .add(u64::from(active.count_ones()));
                    outcomes.oscillated = active;
                }
                values.copy_from_slice(&next);
                break;
            }
            std::mem::swap(&mut diff_prev, &mut diff_now);
            values.copy_from_slice(&next);
        }
        (values, outcomes)
    }

    /// Word-parallel counterpart of the scalar `net_values`: four
    /// level-synchronous reachability sweeps (must/may × 1/0) with
    /// strict-strength win accumulation, then the value-composition
    /// rules, written into `out` for all lanes.
    fn net_values(
        &self,
        scratch: &mut DistScratch,
        on: &[u64],
        unknown: &[u64],
        inputs_hi: &[u64],
        stored: &[PackedValue],
        out: &mut [PackedValue],
    ) {
        let kernel = self.kernel;
        let n = kernel.n_nets();
        scratch.reset();
        // Max finite distance: a shortest path uses at most n-1 channel
        // edges (weight 2) from a seed at distance ≤ 1.
        let dmax = 2 * n + 2;
        let mut stable_streak = 0usize;
        let mut d = 0usize;
        loop {
            for f in 0..4 {
                let (cur, prev) = (&mut scratch.cur[f], &scratch.prev[f]);
                cur.copy_from_slice(prev);
            }
            match d {
                0 => {
                    // Rails: the strongest drivers, every lane.
                    scratch.cur[M1][kernel.power()] = !0;
                    scratch.cur[Y1][kernel.power()] = !0;
                    scratch.cur[M0][kernel.ground()] = !0;
                    scratch.cur[Y0][kernel.ground()] = !0;
                }
                1 => {
                    // Primary inputs: driven through the previous stage,
                    // in the lanes where the pin sits at that level.
                    for (pin, &net) in kernel.inputs().iter().enumerate() {
                        let hi = inputs_hi[pin];
                        scratch.cur[M1][net] |= hi;
                        scratch.cur[Y1][net] |= hi;
                        scratch.cur[M0][net] |= !hi;
                        scratch.cur[Y0][net] |= !hi;
                    }
                }
                _ => {
                    // Channel relax at weight 2: from the planes two
                    // levels back, gated per lane by conduction (must:
                    // definitely on; may: on or unknown).
                    for t in 0..on.len() {
                        let (a, b) = (kernel.drain(t), kernel.source(t));
                        let on_m = on[t];
                        let may_m = on[t] | unknown[t];
                        if may_m == 0 {
                            continue;
                        }
                        scratch.cur[M1][b] |= scratch.prev2[M1][a] & on_m;
                        scratch.cur[M1][a] |= scratch.prev2[M1][b] & on_m;
                        scratch.cur[M0][b] |= scratch.prev2[M0][a] & on_m;
                        scratch.cur[M0][a] |= scratch.prev2[M0][b] & on_m;
                        scratch.cur[Y1][b] |= scratch.prev2[Y1][a] & may_m;
                        scratch.cur[Y1][a] |= scratch.prev2[Y1][b] & may_m;
                        scratch.cur[Y0][b] |= scratch.prev2[Y0][a] & may_m;
                        scratch.cur[Y0][a] |= scratch.prev2[Y0][b] & may_m;
                    }
                }
            }
            // Hard shorts close at weight 0 inside the level.
            if let Some((a, b)) = self.short_edge {
                for f in 0..4 {
                    let u = scratch.cur[f][a] | scratch.cur[f][b];
                    scratch.cur[f][a] = u;
                    scratch.cur[f][b] = u;
                }
            }
            // Strict-strength wins: `must < may` holds iff some level d
            // has must ≤ d < may (including the may-unreachable case).
            for i in 0..n {
                scratch.win1[i] |= scratch.cur[M1][i] & !scratch.cur[Y0][i];
                scratch.win0[i] |= scratch.cur[M0][i] & !scratch.cur[Y1][i];
            }
            // Two consecutive unchanged levels mean both relax sources
            // (d-1 and d-2) are at their fixpoint: nothing can grow.
            let stable = (0..4).all(|f| scratch.cur[f] == scratch.prev[f]);
            if stable {
                stable_streak += 1;
            } else {
                stable_streak = 0;
            }
            // Break with `cur` holding the final planes — the value
            // composition below reads them — both on early stability and
            // on natural exhaustion at `dmax`.
            if stable_streak >= 2 || d == dmax {
                break;
            }
            // Rotate: prev2 <- prev, prev <- cur. The three buffers are
            // distinct struct fields, so the swaps borrow disjointly.
            for f in 0..4 {
                std::mem::swap(&mut scratch.prev[f], &mut scratch.prev2[f]);
                std::mem::swap(&mut scratch.cur[f], &mut scratch.prev[f]);
            }
            d += 1;
        }
        // Value composition, lane-wise (the scalar rules verbatim).
        for i in 0..n {
            let m1 = scratch.cur[M1][i];
            let m0 = scratch.cur[M0][i];
            let y1 = scratch.cur[Y1][i];
            let y0 = scratch.cur[Y0][i];
            let iso = !(y1 | y0);
            let drv = m1 | m0;
            let flo = (y1 | y0) & !drv;
            let one = drv & scratch.win1[i] & !scratch.win0[i];
            let zero = drv & scratch.win0[i] & !scratch.win1[i];
            let xd = drv & !one & !zero;
            out[i] = PackedValue {
                hi: (iso & stored[i].hi) | one | xd,
                x: (iso & stored[i].x) | flo | xd,
            };
        }
    }
}

fn empty_outcomes(kernel: &CellKernel) -> PhaseOutcomes {
    PhaseOutcomes {
        converged: 0,
        oscillated: 0,
        budget_exceeded: 0,
        unstable: vec![0; kernel.n_nets()],
        off_all: vec![!0; kernel.n_transistors()],
    }
}

fn merge_planes(dst: &mut [PackedValue], src: &[PackedValue], lanes: u64) {
    if lanes == 0 {
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        d.hi = (d.hi & !lanes) | (s.hi & lanes);
        d.x = (d.x & !lanes) | (s.x & lanes);
    }
}

fn merge_outcomes(dst: &mut PhaseOutcomes, src: &PhaseOutcomes, lanes: u64) {
    if lanes == 0 {
        return;
    }
    dst.converged |= src.converged & lanes;
    dst.oscillated |= src.oscillated & lanes;
    dst.budget_exceeded |= src.budget_exceeded & lanes;
    for (d, s) in dst.unstable.iter_mut().zip(&src.unstable) {
        *d |= s & lanes;
    }
    // off_all starts all-ones; skipped lanes take the golden device
    // activity (identical trajectories imply identical conduction).
    for (d, s) in dst.off_all.iter_mut().zip(&src.off_all) {
        *d = (*d & !lanes) | (s & lanes);
    }
}

/// Lanes of a block where `faulty` deviates detectably from `golden` on
/// any of `outputs`, under `policy` — the packed counterpart of
/// [`DetectionPolicy::detects`] applied per lane and OR-ed over outputs.
pub fn detect_mask(
    golden: &BlockResult,
    faulty: &BlockResult,
    outputs: &[usize],
    policy: DetectionPolicy,
) -> u64 {
    let driven = if policy.driven_x_detects { !0u64 } else { 0 };
    let floating = if policy.floating_x_detects { !0u64 } else { 0 };
    let mut detected = 0u64;
    for &o in outputs {
        let g = golden.final_values[o];
        let f = faulty.final_values[o];
        let golden_binary = !g.x;
        let flips = !f.x & (f.hi ^ g.hi);
        let xd = f.x & f.hi & driven;
        let xf = f.x & !f.hi & floating;
        detected |= golden_binary & (flips | xd | xf);
    }
    detected & golden.lanes
}

/// Packed implementation of [`detection_row`](crate::detection_row):
/// golden blocks solved once, every lane of every block compared under
/// `policy`, with cone restriction for `Open` injections. Returns
/// `None` when the kernel compiler declines the cell.
pub fn detection_flags(
    cell: &Cell,
    injection: Injection,
    stimuli: &[Stimulus],
    policy: DetectionPolicy,
) -> Option<Vec<bool>> {
    let kernel = CellKernel::compile(cell)?;
    // One trace span per packed batch (a whole golden+faulty sweep for
    // one injection), not per 64-lane block: coarse enough to stay
    // within the event cap and the <3% tracing-overhead budget.
    let _span = ca_obs::span!("ca_sim.packed.batch");
    let packed = PackedStimulus::pack(cell.num_inputs(), stimuli);
    let outputs: Vec<usize> = cell.outputs().iter().map(|o| o.index()).collect();
    let golden = PackedSim::new(&kernel, Injection::None, None);
    let faulty = PackedSim::new(&kernel, injection, None);
    let open_t = match injection {
        Injection::Open { transistor, .. } => Some(transistor.index()),
        _ => None,
    };
    let mut flags = Vec::with_capacity(stimuli.len());
    for block in packed.blocks() {
        let g = golden.run_block(block);
        let f = faulty.run_block_against(block, &g, open_t);
        let mask = detect_mask(&g, &f, &outputs, policy);
        for lane in 0..block.occupancy() {
            flags.push(mask & (1u64 << lane) != 0);
        }
    }
    Some(flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use crate::solver::SolveOutcome;
    use ca_netlist::{spice, Terminal};

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MP0 Z A VDD VDD pch
MP1 Z B VDD VDD pch
MN0 Z A net0 VSS nch
MN1 net0 B VSS VSS nch
.ENDS
";

    const RING: &str = "\
.SUBCKT OSC A Z VDD VSS
MP0 Z A VDD VDD pch
MN0 Z Z net0 VSS nch
MN1 net0 A VSS VSS nch
.ENDS
";

    #[test]
    fn packed_value_round_trip() {
        for v in [Value::Zero, Value::One, Value::Xf, Value::Xd] {
            let p = PackedValue::splat(v);
            assert_eq!(p.get(0), v);
            assert_eq!(p.get(63), v);
            assert_eq!(p.retained().get(7), v.retained());
        }
        let mut p = PackedValue::splat(Value::Zero);
        p.set(3, Value::Xd);
        p.set(5, Value::One);
        assert_eq!(p.get(3), Value::Xd);
        assert_eq!(p.get(5), Value::One);
        assert_eq!(p.get(4), Value::Zero);
    }

    #[test]
    fn pack_transposes_waves() {
        let stimuli = Stimulus::all(2);
        let packed = PackedStimulus::pack(2, &stimuli);
        assert_eq!(packed.blocks().len(), 1);
        let block = &packed.blocks()[0];
        assert_eq!(block.occupancy(), 16);
        assert_eq!(block.dynamic.count_ones(), 12);
        for (lane, s) in stimuli.iter().enumerate() {
            for pin in 0..2 {
                assert_eq!(
                    block.initial[pin] >> lane & 1 == 1,
                    s.waves()[pin].initial(),
                    "lane {lane} pin {pin}"
                );
                assert_eq!(
                    block.final_inputs[pin] >> lane & 1 == 1,
                    s.waves()[pin].final_value()
                );
            }
        }
    }

    /// The packed golden run must reproduce the scalar simulator's
    /// per-phase values on every lane.
    #[test]
    fn golden_block_matches_scalar() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let kernel = CellKernel::compile(&cell).unwrap();
        let stimuli = Stimulus::all(2);
        let packed = PackedStimulus::pack(2, &stimuli);
        let sim = PackedSim::new(&kernel, Injection::None, None);
        let scalar = Simulator::new(&cell);
        let block = sim.run_block(&packed.blocks()[0]);
        for (lane, s) in stimuli.iter().enumerate() {
            let want = scalar.run(s);
            let got = block.lane_phases(lane);
            assert_eq!(got.len(), want.num_phases(), "{s}");
            for (phase, values) in got.iter().enumerate() {
                for (i, &v) in values.iter().enumerate() {
                    assert_eq!(
                        v,
                        want.value(phase, ca_netlist::NetId(i as u32)),
                        "{s} phase {phase} net {i}"
                    );
                }
            }
        }
    }

    /// Every injected defect, every stimulus: the packed per-lane values
    /// must equal the scalar faulty simulator's.
    #[test]
    fn faulty_blocks_match_scalar() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let kernel = CellKernel::compile(&cell).unwrap();
        let stimuli = Stimulus::all(2);
        let packed = PackedStimulus::pack(2, &stimuli);
        let golden = PackedSim::new(&kernel, Injection::None, None).run_block(&packed.blocks()[0]);
        let mut injections = vec![];
        for (id, _) in cell.transistor_ids() {
            for terminal in Terminal::CHANNEL_AND_GATE {
                injections.push(Injection::Open {
                    transistor: id,
                    terminal,
                });
            }
            for (a, b) in [
                (Terminal::Drain, Terminal::Source),
                (Terminal::Gate, Terminal::Source),
                (Terminal::Gate, Terminal::Drain),
            ] {
                injections.push(Injection::Short {
                    transistor: id,
                    a,
                    b,
                });
            }
        }
        for injection in injections {
            let open_t = match injection {
                Injection::Open { transistor, .. } => Some(transistor.index()),
                _ => None,
            };
            let block = PackedSim::new(&kernel, injection, None).run_block_against(
                &packed.blocks()[0],
                &golden,
                open_t,
            );
            let scalar = Simulator::with_injection(&cell, injection);
            for (lane, s) in stimuli.iter().enumerate() {
                let want = scalar.run(s);
                let got = block.lane_phases(lane);
                for (phase, values) in got.iter().enumerate() {
                    for (i, &v) in values.iter().enumerate() {
                        assert_eq!(
                            v,
                            want.value(phase, ca_netlist::NetId(i as u32)),
                            "{injection} {s} phase {phase} net {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn detection_flags_match_scalar_rows() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let stimuli = Stimulus::all(2);
        let mn0 = cell.find_transistor("MN0").unwrap();
        for injection in [
            Injection::Open {
                transistor: mn0,
                terminal: Terminal::Source,
            },
            Injection::Short {
                transistor: mn0,
                a: Terminal::Drain,
                b: Terminal::Source,
            },
        ] {
            let policy = DetectionPolicy::default();
            let golden = Simulator::new(&cell);
            let faulty = Simulator::with_injection(&cell, injection);
            let scalar: Vec<bool> = stimuli
                .iter()
                .map(|s| {
                    let g = golden.run(s);
                    let f = faulty.run(s);
                    cell.outputs()
                        .iter()
                        .any(|&o| policy.detects(g.final_value(o), f.final_value(o)))
                })
                .collect();
            let packed = detection_flags(&cell, injection, &stimuli, policy).unwrap();
            assert_eq!(packed, scalar, "{injection}");
        }
    }

    /// Per-lane oscillation and budget classes mirror the scalar
    /// checked solver, including the forced-Xd values.
    #[test]
    fn lane_outcomes_mirror_scalar_classes() {
        let cell = spice::parse_cell(RING).unwrap();
        let kernel = CellKernel::compile(&cell).unwrap();
        let stimuli = vec![
            Stimulus::static_pattern(1, 0),
            Stimulus::from_patterns(1, 0, 1),
            Stimulus::static_pattern(1, 1),
        ];
        let packed = PackedStimulus::pack(1, &stimuli);
        for cap in [None, Some(2)] {
            let sim = PackedSim::new(&kernel, Injection::None, cap);
            let block = sim.run_block(&packed.blocks()[0]);
            let graph = match cap {
                Some(c) => CellGraph::new(&cell, Injection::None).with_max_iterations(c),
                None => CellGraph::new(&cell, Injection::None),
            };
            for (lane, s) in stimuli.iter().enumerate() {
                let fresh = vec![Value::Xf; cell.nets().len()];
                let initial: Vec<bool> = s.waves().iter().map(|w| w.initial()).collect();
                let o1 = graph.solve_phase_checked(&initial, &fresh);
                let want1 = match &o1 {
                    SolveOutcome::Converged(_) => LaneOutcome::Converged,
                    SolveOutcome::Oscillated { .. } => LaneOutcome::Oscillated,
                    SolveOutcome::BudgetExceeded { .. } => LaneOutcome::BudgetExceeded,
                };
                assert_eq!(block.p1.lane(lane), want1, "{s} cap {cap:?}");
                for (i, &v) in o1.values().iter().enumerate() {
                    assert_eq!(block.phase1[i].get(lane), v, "{s} cap {cap:?} net {i}");
                }
                if !s.is_static() {
                    let stored: Vec<Value> = o1.values().iter().map(|v| v.retained()).collect();
                    let finals: Vec<bool> = s.waves().iter().map(|w| w.final_value()).collect();
                    let o2 = graph.solve_phase_checked(&finals, &stored);
                    let want2 = match &o2 {
                        SolveOutcome::Converged(_) => LaneOutcome::Converged,
                        SolveOutcome::Oscillated { .. } => LaneOutcome::Oscillated,
                        SolveOutcome::BudgetExceeded { .. } => LaneOutcome::BudgetExceeded,
                    };
                    assert_eq!(block.p2.lane(lane), want2, "{s} cap {cap:?} phase 2");
                    for (i, &v) in o2.values().iter().enumerate() {
                        assert_eq!(block.final_values[i].get(lane), v);
                    }
                }
            }
        }
    }

    /// An unstable lane's oscillating nets are reported per net, in the
    /// same index order the scalar `SolveOutcome::Oscillated` lists.
    #[test]
    fn unstable_nets_match_scalar() {
        let cell = spice::parse_cell(RING).unwrap();
        let kernel = CellKernel::compile(&cell).unwrap();
        let stimuli = vec![Stimulus::from_patterns(1, 0, 1)];
        let packed = PackedStimulus::pack(1, &stimuli);
        let block = PackedSim::new(&kernel, Injection::None, None).run_block(&packed.blocks()[0]);
        assert_eq!(block.p2.lane(0), LaneOutcome::Oscillated);
        let graph = CellGraph::new(&cell, Injection::None);
        let fresh = vec![Value::Xf; cell.nets().len()];
        let phase1 = graph.solve_phase(&[false], &fresh);
        let stored: Vec<Value> = phase1.iter().map(|v| v.retained()).collect();
        match graph.solve_phase_checked(&[true], &stored) {
            SolveOutcome::Oscillated { nets, .. } => {
                let packed_nets: Vec<usize> = (0..cell.nets().len())
                    .filter(|&i| block.p2.unstable[i] & 1 != 0)
                    .collect();
                let scalar_nets: Vec<usize> = nets.iter().map(|n| n.index()).collect();
                assert_eq!(packed_nets, scalar_nets);
            }
            other => panic!("expected oscillation, got {other:?}"),
        }
    }

    /// The cone restriction must actually fire: an `Open` on a device
    /// that never conducts under some lanes skips those lanes and still
    /// produces scalar-identical values everywhere.
    #[test]
    fn cone_restriction_skips_inactive_lanes() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let kernel = CellKernel::compile(&cell).unwrap();
        let stimuli = Stimulus::all(2);
        let packed = PackedStimulus::pack(2, &stimuli);
        let golden = PackedSim::new(&kernel, Injection::None, None).run_block(&packed.blocks()[0]);
        let mn1 = cell.find_transistor("MN1").unwrap();
        // MN1's gate is input B: with B=0 in both phases the device
        // never conducts, so lanes with B held low are skippable.
        assert_ne!(
            golden.p1.off_all[mn1.index()] & golden.lanes,
            0,
            "expected some always-off lanes for MN1"
        );
        let injection = Injection::Open {
            transistor: mn1,
            terminal: Terminal::Drain,
        };
        let faulty = PackedSim::new(&kernel, injection, None).run_block_against(
            &packed.blocks()[0],
            &golden,
            Some(mn1.index()),
        );
        let scalar = Simulator::with_injection(&cell, injection);
        for (lane, s) in stimuli.iter().enumerate() {
            let want = scalar.run(s);
            for i in 0..cell.nets().len() {
                assert_eq!(
                    faulty.final_values[i].get(lane),
                    want.final_value(ca_netlist::NetId(i as u32)),
                    "{s} net {i}"
                );
            }
        }
    }
}
