//! Detection tables: the bit matrix `defect × stimulus → detected`.
//!
//! This is the raw product of exhaustive defect simulation (the inner loop
//! of the conventional flow, paper Fig. 1) and the source of the training
//! labels of the ML flow.

use crate::universe::{DefectId, DefectUniverse};
use ca_netlist::Cell;
use ca_sim::packed::{detect_mask, PackedSim, PackedStimulus, PhaseOutcomes};
use ca_sim::{
    CellKernel, DetectionPolicy, Injection, LaneOutcome, SimBudget, SimError, Simulator, Stimulus,
    Value,
};

/// A packed bit row (one bit per stimulus).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRow {
    bits: Vec<u64>,
    len: usize,
}

impl BitRow {
    /// An all-zero row of `len` bits.
    pub fn zeros(len: usize) -> BitRow {
        BitRow {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A row of `len` bits from its 64-bit words, bit `i` at bit `i % 64`
    /// of word `i / 64`: the layout [`BitRow::words`] exposes.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not `len.div_ceil(64)` long or sets a bit at
    /// or past `len` (rows compare word by word, so a stray high bit
    /// would make equal rows unequal).
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> BitRow {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{len} bits in {} words",
            words.len()
        );
        if let (Some(&last), 1..=63) = (words.last(), len % 64) {
            assert_eq!(last >> (len % 64), 0, "bits set past {len}");
        }
        BitRow { bits: words, len }
    }

    /// The row's 64-bit words, bit `i` at bit `i % 64` of word `i / 64`;
    /// the bits of the last word at or past [`BitRow::len`] are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Gets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.bits[i / 64] |= mask;
        } else {
            self.bits[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&b| b != 0)
    }

    /// Indices of set bits.
    pub fn ones(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.get(i)).collect()
    }
}

/// Detection results of a full defect universe under a full stimulus set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTable {
    stimuli: Vec<Stimulus>,
    rows: Vec<BitRow>,
    policy: DetectionPolicy,
    /// Number of defective-cell simulations performed (for the cost model).
    defect_simulations: usize,
}

impl DetectionTable {
    /// Simulates every defect of `universe` against `stimuli` under a
    /// [`SimBudget`].
    ///
    /// The golden responses are simulated once and shared across
    /// defects. Semantics:
    ///
    /// - golden simulation must converge: an oscillating defect-free
    ///   cell is an error ([`SimError::Oscillated`]), because its truth
    ///   table is meaningless;
    /// - faulty simulation keeps the conservative X-forcing of
    ///   [`Simulator::run`] — an injected defect may legitimately create
    ///   a ring;
    /// - `max_stimuli` / `max_defects` truncate the work and mark the
    ///   result degraded;
    /// - the wall-clock deadline is checked *between* defect-simulation
    ///   stimuli (never mid-solve); expiry is
    ///   [`SimError::BudgetExceeded`].
    ///
    /// On success, the table covers `universe.truncated(degraded
    /// defect count)` — callers align their universe with
    /// [`BudgetedTable::defects_covered`]. Uses the bit-parallel packed
    /// engine (64 stimuli per solver pass, DESIGN.md §12) when the cell
    /// compiles to a [`CellKernel`], and the scalar solver when the
    /// kernel compiler declines it; results and errors are identical
    /// either way.
    pub fn generate_budgeted(
        cell: &Cell,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
        budget: &SimBudget,
    ) -> Result<BudgetedTable, SimError> {
        DetectionTable::generate_budgeted_packed(cell, universe, stimuli, policy, budget)
            .unwrap_or_else(|| {
                DetectionTable::generate_budgeted_scalar(cell, universe, stimuli, policy, budget)
            })
    }

    /// The interpreted per-stimulus path of
    /// [`DetectionTable::generate_budgeted`]: the reference the packed
    /// path is differentially tested against, and the fallback for cells
    /// the kernel compiler declines.
    pub fn generate_budgeted_scalar(
        cell: &Cell,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
        budget: &SimBudget,
    ) -> Result<BudgetedTable, SimError> {
        let work = BudgetedWork::of(universe, stimuli, budget);
        let stimuli = work.stimuli;
        let clock = budget.start();
        let outputs = cell.outputs().to_vec();
        let golden_sim = Simulator::with_budget(cell, Injection::None, budget);
        let golden: Vec<Vec<Value>> = stimuli
            .iter()
            .map(|s| {
                let result = golden_sim.try_run(s)?;
                Ok(outputs.iter().map(|&o| result.final_value(o)).collect())
            })
            .collect::<Result<_, SimError>>()?;
        let mut rows = Vec::with_capacity(work.defects);
        let mut defect_simulations = 0;
        for defect in &universe.defects()[..work.defects] {
            let faulty_sim = Simulator::with_budget(cell, defect.injection, budget);
            let mut row = BitRow::zeros(stimuli.len());
            for (i, stimulus) in stimuli.iter().enumerate() {
                if clock.expired() {
                    return Err(SimError::BudgetExceeded {
                        resource: "wall clock",
                    });
                }
                let result = faulty_sim.run(stimulus);
                defect_simulations += 1;
                let detected = outputs
                    .iter()
                    .enumerate()
                    .any(|(oi, &o)| policy.detects(golden[i][oi], result.final_value(o)));
                row.set(i, detected);
            }
            rows.push(row);
        }
        Ok(work.finish(DetectionTable {
            stimuli: stimuli.to_vec(),
            rows,
            policy,
            defect_simulations,
        }))
    }

    /// The bit-parallel path of [`DetectionTable::generate_budgeted`]:
    /// the same semantics lane by lane. Golden lanes are checked in
    /// stimulus order and the first non-convergent one raises the same
    /// [`SimError`] the scalar `try_run` would (phase-1 failures take
    /// precedence per lane), the wall-clock deadline is checked between
    /// defect blocks, and faulty lanes keep conservative X-forcing.
    /// `defect_simulations` reports the *logical* count (defects ×
    /// stimuli), so the table compares equal to the scalar one. Returns
    /// `None` when the kernel compiler declines the cell.
    pub fn generate_budgeted_packed(
        cell: &Cell,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
        budget: &SimBudget,
    ) -> Option<Result<BudgetedTable, SimError>> {
        let kernel = CellKernel::compile(cell)?;
        Some(DetectionTable::budgeted_packed(
            cell, &kernel, universe, stimuli, policy, budget,
        ))
    }

    fn budgeted_packed(
        cell: &Cell,
        kernel: &CellKernel,
        universe: &DefectUniverse,
        stimuli: &[Stimulus],
        policy: DetectionPolicy,
        budget: &SimBudget,
    ) -> Result<BudgetedTable, SimError> {
        let work = BudgetedWork::of(universe, stimuli, budget);
        let stimuli = work.stimuli;
        let clock = budget.start();
        let packed = PackedStimulus::pack(cell.num_inputs(), stimuli);
        let outputs: Vec<usize> = cell.outputs().iter().map(|o| o.index()).collect();
        let golden_sim = PackedSim::new(kernel, Injection::None, budget.max_solver_iterations);
        let mut golden = Vec::with_capacity(packed.blocks().len());
        for block in packed.blocks() {
            let result = golden_sim.run_block(block);
            // Golden simulation must converge: surface the first failing
            // lane, in stimulus order, exactly like the scalar `try_run`
            // (a phase-1 failure wins over a phase-2 one per lane).
            let mut lanes = block.lanes;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                let p1 = result.p1.lane(lane);
                if p1 != LaneOutcome::Converged {
                    return Err(lane_error(cell, &result.p1, p1, lane));
                }
                if block.dynamic & (1u64 << lane) != 0 {
                    let p2 = result.p2.lane(lane);
                    if p2 != LaneOutcome::Converged {
                        return Err(lane_error(cell, &result.p2, p2, lane));
                    }
                }
            }
            golden.push(result);
        }
        let mut rows = Vec::with_capacity(work.defects);
        for defect in &universe.defects()[..work.defects] {
            let faulty = PackedSim::new(kernel, defect.injection, budget.max_solver_iterations);
            let open_t = match defect.injection {
                Injection::Open { transistor, .. } => Some(transistor.index()),
                _ => None,
            };
            let mut row = BitRow::zeros(stimuli.len());
            let mut base = 0;
            for (block, g) in packed.blocks().iter().zip(&golden) {
                // The deadline is checked between blocks, never
                // mid-solve; a zero deadline therefore fails before any
                // faulty work, like the scalar per-stimulus check.
                if clock.expired() {
                    return Err(SimError::BudgetExceeded {
                        resource: "wall clock",
                    });
                }
                let f = faulty.run_block_against(block, g, open_t);
                let mut mask = detect_mask(g, &f, &outputs, policy);
                while mask != 0 {
                    row.set(base + mask.trailing_zeros() as usize, true);
                    mask &= mask - 1;
                }
                base += block.occupancy();
            }
            rows.push(row);
        }
        Ok(work.finish(DetectionTable {
            stimuli: stimuli.to_vec(),
            rows,
            policy,
            defect_simulations: work.defects * stimuli.len(),
        }))
    }

    /// Simulates every defect of `universe` against the canonical full
    /// stimulus set ([`Stimulus::all`]`(n)`), without limits.
    ///
    /// # Panics
    ///
    /// Panics if the defect-free (golden) simulation of `cell` does not
    /// converge; [`DetectionTable::generate_budgeted`] reports that as
    /// an error instead.
    pub fn generate_exhaustive(
        cell: &Cell,
        universe: &DefectUniverse,
        policy: DetectionPolicy,
    ) -> DetectionTable {
        let stimuli = Stimulus::all(cell.num_inputs());
        match DetectionTable::generate_budgeted(
            cell,
            universe,
            &stimuli,
            policy,
            &SimBudget::unlimited(),
        ) {
            Ok(budgeted) => budgeted.table,
            Err(e) => panic!("golden simulation of `{}` failed: {e}", cell.name()),
        }
    }

    /// The stimuli the table was generated against.
    pub fn stimuli(&self) -> &[Stimulus] {
        &self.stimuli
    }

    /// Detection row of `defect`.
    ///
    /// # Panics
    ///
    /// Panics if `defect` is out of range.
    pub fn row(&self, defect: DefectId) -> &BitRow {
        &self.rows[defect.index()]
    }

    /// All rows in defect-id order.
    pub fn rows(&self) -> &[BitRow] {
        &self.rows
    }

    /// Whether stimulus `stimulus` detects `defect`.
    pub fn detects(&self, defect: DefectId, stimulus: usize) -> bool {
        self.rows[defect.index()].get(stimulus)
    }

    /// The detection policy used.
    pub fn policy(&self) -> DetectionPolicy {
        self.policy
    }

    /// Number of defective-cell simulations that were run.
    pub fn defect_simulations(&self) -> usize {
        self.defect_simulations
    }

    /// Fraction of defects detected by at least one stimulus.
    pub fn coverage(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let detected = self.rows.iter().filter(|r| r.any()).count();
        detected as f64 / self.rows.len() as f64
    }
}

/// A [`DetectionTable`] generated under a [`SimBudget`], with the
/// truncation bookkeeping budgeted callers need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedTable {
    /// The generated table (rows cover the first
    /// [`defects_covered`](BudgetedTable::defects_covered) defects).
    pub table: DetectionTable,
    /// Whether any budget axis truncated the work (fewer stimuli or
    /// defects than requested).
    pub degraded: bool,
    /// Number of leading universe defects the rows cover.
    pub defects_covered: usize,
}

/// The share of a request a [`SimBudget`] allows: the leading stimuli,
/// the leading defect count, and whether either cap cut the request.
struct BudgetedWork<'a> {
    stimuli: &'a [Stimulus],
    defects: usize,
    degraded: bool,
}

impl<'a> BudgetedWork<'a> {
    fn of(universe: &DefectUniverse, stimuli: &'a [Stimulus], budget: &SimBudget) -> Self {
        let n_stimuli = budget.clamp_stimuli(stimuli.len());
        let defects = budget.clamp_defects(universe.len());
        BudgetedWork {
            stimuli: &stimuli[..n_stimuli],
            defects,
            degraded: n_stimuli < stimuli.len() || defects < universe.len(),
        }
    }

    fn finish(&self, table: DetectionTable) -> BudgetedTable {
        BudgetedTable {
            table,
            degraded: self.degraded,
            defects_covered: self.defects,
        }
    }
}

/// Builds the [`SimError`] a non-convergent golden lane raises, matching
/// the scalar `try_run` error shape: oscillations name the unstable nets
/// in net-index order, budget exhaustion names the solver-iterations
/// resource.
fn lane_error(cell: &Cell, outcomes: &PhaseOutcomes, class: LaneOutcome, lane: usize) -> SimError {
    match class {
        LaneOutcome::Oscillated => SimError::Oscillated {
            nets: (0..cell.nets().len())
                .filter(|&i| outcomes.unstable[i] & (1u64 << lane) != 0)
                .map(|i| cell.nets()[i].name().to_string())
                .collect(),
        },
        _ => SimError::BudgetExceeded {
            resource: "solver iterations",
        },
    }
}

/// Convenience: simulate a single injection against `stimuli` (used by
/// inference comparisons).
pub fn single_defect_row(
    cell: &Cell,
    injection: Injection,
    stimuli: &[Stimulus],
    policy: DetectionPolicy,
) -> BitRow {
    let flags = ca_sim::detection_row(cell, injection, stimuli, policy);
    let mut row = BitRow::zeros(flags.len());
    for (i, &f) in flags.iter().enumerate() {
        row.set(i, f);
    }
    row
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
    fn bitrow_set_get_count() {
        let mut row = BitRow::zeros(100);
        assert_eq!(row.len(), 100);
        row.set(0, true);
        row.set(64, true);
        row.set(99, true);
        assert!(row.get(0) && row.get(64) && row.get(99));
        assert!(!row.get(1));
        assert_eq!(row.count_ones(), 3);
        assert_eq!(row.ones(), vec![0, 64, 99]);
        row.set(64, false);
        assert_eq!(row.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitrow_bounds_checked() {
        let row = BitRow::zeros(10);
        let _ = row.get(10);
    }

    #[test]
    fn nand2_table_has_full_coverage() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let table =
            DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        assert_eq!(table.rows().len(), 24);
        assert_eq!(table.stimuli().len(), 16);
        // Every intra-transistor defect of a NAND2 is detectable.
        assert!(
            (table.coverage() - 1.0).abs() < 1e-9,
            "{}",
            table.coverage()
        );
        assert_eq!(table.defect_simulations(), 24 * 16);
    }

    #[test]
    fn table_is_deterministic() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let a = DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        let b = DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
        assert_eq!(a, b);
    }

    #[test]
    fn unlimited_budget_matches_per_defect_rows() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let policy = DetectionPolicy::default();
        let stimuli = Stimulus::all(2);
        let budgeted = DetectionTable::generate_budgeted(
            &cell,
            &universe,
            &stimuli,
            policy,
            &SimBudget::unlimited(),
        )
        .expect("NAND2 characterizes");
        assert!(!budgeted.degraded);
        assert_eq!(budgeted.defects_covered, universe.len());
        for d in universe.defects() {
            let row = single_defect_row(&cell, d.injection, &stimuli, policy);
            assert_eq!(&row, budgeted.table.row(d.id), "{}", d.injection);
        }
    }

    #[test]
    #[should_panic(expected = "golden simulation of `OSC` failed")]
    fn exhaustive_generation_panics_on_an_oscillating_golden() {
        // MN0's gate is its own drain: the output never settles for A=1.
        let cell = spice::parse_cell(
            ".SUBCKT OSC A Z VDD VSS\nMP0 Z A VDD VDD pch\n\
             MN0 Z Z net0 VSS nch\nMN1 net0 A VSS VSS nch\n.ENDS",
        )
        .unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        DetectionTable::generate_exhaustive(&cell, &universe, DetectionPolicy::default());
    }

    #[test]
    fn stimulus_and_defect_caps_truncate_and_degrade() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let stimuli = Stimulus::all(2);
        let budget = SimBudget {
            max_stimuli: Some(4),
            max_defects: Some(10),
            ..SimBudget::unlimited()
        };
        let b = DetectionTable::generate_budgeted(
            &cell,
            &universe,
            &stimuli,
            DetectionPolicy::default(),
            &budget,
        )
        .expect("truncation is not an error");
        assert!(b.degraded);
        assert_eq!(b.defects_covered, 10);
        assert_eq!(b.table.rows().len(), 10);
        assert_eq!(b.table.stimuli().len(), 4);
        assert_eq!(b.table.defect_simulations(), 40);
    }

    #[test]
    fn expired_wall_clock_is_budget_exceeded() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let budget = SimBudget {
            wall_clock: Some(std::time::Duration::ZERO),
            ..SimBudget::unlimited()
        };
        let err = DetectionTable::generate_budgeted(
            &cell,
            &universe,
            &Stimulus::all(2),
            DetectionPolicy::default(),
            &budget,
        )
        .expect_err("zero deadline expires before the first stimulus");
        assert_eq!(
            err,
            SimError::BudgetExceeded {
                resource: "wall clock"
            }
        );
    }

    #[test]
    fn single_row_matches_table() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let universe = DefectUniverse::intra_transistor(&cell);
        let policy = DetectionPolicy::default();
        let table = DetectionTable::generate_exhaustive(&cell, &universe, policy);
        let d = universe.defects()[5];
        let row = single_defect_row(&cell, d.injection, table.stimuli(), policy);
        assert_eq!(&row, table.row(d.id));
    }
}
