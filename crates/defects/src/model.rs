//! The CA model: the end product of cell-aware characterization.
//!
//! A [`CaModel`] is the cell-internal fault dictionary the paper's flows
//! produce: for each defect (class), its behaviour and the set of
//! detecting stimuli. [`CaModel::generate`] is the library's *conventional
//! flow* (paper Fig. 1): exhaustive defect simulation, equivalence
//! classing, synthesis into the dictionary. The ML flow produces the same
//! type through prediction (see `ca-core`), which is what makes
//! paper-vs-ML accuracy comparisons direct.

use crate::classes::{equivalence_classes, Behavior, DefectClass};
use crate::table::{BitRow, DetectionTable};
use crate::universe::{DefectId, DefectUniverse};
use ca_netlist::Cell;
use ca_sim::{DetectionPolicy, SimBudget, SimError, Stimulus};

/// Options of CA model generation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenerateOptions {
    /// Detection policy for unknown responses.
    pub policy: DetectionPolicy,
    /// Also enumerate inter-transistor net shorts.
    pub inter_transistor: bool,
}

/// A cell-aware model: the detection dictionary of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaModel {
    /// Name of the characterized cell.
    pub cell_name: String,
    /// Number of primary inputs (fixes the canonical stimulus order).
    pub num_inputs: usize,
    /// Number of transistors.
    pub num_transistors: usize,
    /// The defect universe the model covers.
    pub universe: DefectUniverse,
    /// Per-defect detection rows (aligned with the universe).
    pub rows: Vec<BitRow>,
    /// Equivalence classes over the universe.
    pub classes: Vec<DefectClass>,
    /// Simulation effort spent building the model (0 for predicted models).
    pub defect_simulations: usize,
    /// Whether the model was produced under a reduced budget (truncated
    /// stimuli, truncated defect universe, or a characterization retry).
    /// Degraded models are valid but incomplete; library export skips
    /// them unless explicitly included.
    pub degraded: bool,
}

impl CaModel {
    /// Runs the conventional (simulation-based) generation flow without
    /// limits: [`CaModel::generate_budgeted`] under
    /// [`SimBudget::unlimited`].
    ///
    /// # Panics
    ///
    /// Panics if the defect-free (golden) simulation of `cell` does not
    /// converge; [`CaModel::generate_budgeted`] reports that as an error
    /// instead.
    pub fn generate(cell: &Cell, options: GenerateOptions) -> CaModel {
        CaModel::generate_budgeted(cell, options, &SimBudget::unlimited())
            .unwrap_or_else(|e| panic!("golden simulation of `{}` failed: {e}", cell.name()))
    }

    /// Runs the conventional flow under a [`SimBudget`].
    ///
    /// Truncating budgets (`max_stimuli`, `max_defects`) yield a valid
    /// but [`degraded`](CaModel::degraded) model covering the truncated
    /// work; an oscillating golden cell or an expired wall clock is an
    /// error.
    pub fn generate_budgeted(
        cell: &Cell,
        options: GenerateOptions,
        budget: &SimBudget,
    ) -> Result<CaModel, SimError> {
        let universe = if options.inter_transistor {
            DefectUniverse::with_inter_transistor(cell)
        } else {
            DefectUniverse::intra_transistor(cell)
        };
        let stimuli = Stimulus::all(cell.num_inputs());
        let budgeted =
            DetectionTable::generate_budgeted(cell, &universe, &stimuli, options.policy, budget)?;
        let universe = universe.truncated(budgeted.defects_covered);
        let classes = equivalence_classes(&universe, &budgeted.table);
        Ok(CaModel {
            cell_name: cell.name().to_string(),
            num_inputs: cell.num_inputs(),
            num_transistors: cell.num_transistors(),
            rows: budgeted.table.rows().to_vec(),
            defect_simulations: budgeted.table.defect_simulations(),
            universe,
            classes,
            degraded: budgeted.degraded,
        })
    }

    /// Builds a model from externally produced rows (e.g. ML predictions).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not aligned with `universe`.
    pub fn from_rows(cell: &Cell, universe: DefectUniverse, rows: Vec<BitRow>) -> CaModel {
        assert_eq!(rows.len(), universe.len(), "rows/universe mismatch");
        // `Stimulus::all` lists the 2^n static stimuli first; counting
        // them needs no stimulus list.
        let static_count = 1usize << cell.num_inputs();
        // Rebuild classes from the provided rows.
        let classes = {
            use std::collections::BTreeMap;
            let mut by_row: BTreeMap<&BitRow, Vec<DefectId>> = BTreeMap::new();
            for d in universe.defects() {
                by_row.entry(&rows[d.id.index()]).or_default().push(d.id);
            }
            let mut classes: Vec<DefectClass> = by_row
                .into_iter()
                .map(|(row, mut members)| {
                    members.sort();
                    // Degraded rows may cover fewer stimuli than the
                    // canonical set; classify over what is present.
                    let static_hit = (0..static_count.min(row.len())).any(|i| row.get(i));
                    let behavior = if static_hit {
                        Behavior::Static
                    } else if row.any() {
                        Behavior::Dynamic
                    } else {
                        Behavior::Undetectable
                    };
                    DefectClass {
                        representative: members[0],
                        members,
                        behavior,
                        row: row.clone(),
                    }
                })
                .collect();
            classes.sort_by_key(|c| c.representative);
            classes
        };
        CaModel {
            cell_name: cell.name().to_string(),
            num_inputs: cell.num_inputs(),
            num_transistors: cell.num_transistors(),
            rows,
            defect_simulations: 0,
            universe,
            classes,
            degraded: false,
        }
    }

    /// The canonical stimulus list the rows are aligned with.
    pub fn stimuli(&self) -> Vec<Stimulus> {
        Stimulus::all(self.num_inputs)
    }

    /// Detection row of `defect`.
    pub fn row(&self, defect: DefectId) -> &BitRow {
        &self.rows[defect.index()]
    }

    /// Whether stimulus index `stimulus` detects `defect`.
    pub fn detects(&self, defect: DefectId, stimulus: usize) -> bool {
        self.rows[defect.index()].get(stimulus)
    }

    /// Fraction of defects detectable by at least one stimulus.
    pub fn coverage(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().filter(|r| r.any()).count() as f64 / self.rows.len() as f64
    }

    /// Counts classes by behaviour: `(static, dynamic, undetectable)`.
    pub fn behavior_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.classes {
            match c.behavior {
                Behavior::Static => counts.0 += 1,
                Behavior::Dynamic => counts.1 += 1,
                Behavior::Undetectable => counts.2 += 1,
            }
        }
        counts
    }

    /// Bit-level agreement between two models of the same shape, in
    /// `[0, 1]` — the paper's *prediction accuracy* when one side is
    /// predicted.
    ///
    /// # Panics
    ///
    /// Panics if the models have different universe or stimulus sizes.
    pub fn agreement(&self, other: &CaModel) -> f64 {
        self.agreement_filtered(other, |_| true)
    }

    /// Like [`CaModel::agreement`], restricted to one defect category —
    /// the paper reports opens and shorts separately (§V.A).
    ///
    /// # Panics
    ///
    /// See [`CaModel::agreement`].
    pub fn agreement_of_kind(&self, other: &CaModel, kind: crate::DefectKind) -> f64 {
        self.agreement_filtered(other, |d| d.kind == kind)
    }

    /// Agreement over the defects selected by `filter`.
    ///
    /// # Panics
    ///
    /// See [`CaModel::agreement`].
    pub fn agreement_filtered(
        &self,
        other: &CaModel,
        mut filter: impl FnMut(&crate::Defect) -> bool,
    ) -> f64 {
        assert_eq!(self.rows.len(), other.rows.len(), "universe size mismatch");
        let mut total = 0usize;
        let mut same = 0usize;
        for defect in self.universe.defects() {
            if !filter(defect) {
                continue;
            }
            let a = &self.rows[defect.id.index()];
            let b = &other.rows[defect.id.index()];
            assert_eq!(a.len(), b.len(), "stimulus count mismatch");
            for i in 0..a.len() {
                total += 1;
                if a.get(i) == b.get(i) {
                    same += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            same as f64 / total as f64
        }
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
    fn generate_builds_complete_model() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        assert_eq!(model.cell_name, "NAND2");
        assert_eq!(model.num_inputs, 2);
        assert_eq!(model.universe.len(), 24);
        assert_eq!(model.rows.len(), 24);
        assert!(model.defect_simulations > 0);
        assert!((model.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "golden simulation of `OSC` failed")]
    fn generate_panics_on_an_oscillating_golden() {
        // MN0's gate is its own drain: the output never settles for A=1.
        let cell = spice::parse_cell(
            ".SUBCKT OSC A Z VDD VSS\nMP0 Z A VDD VDD pch\n\
             MN0 Z Z net0 VSS nch\nMN1 net0 A VSS VSS nch\n.ENDS",
        )
        .unwrap();
        CaModel::generate(&cell, GenerateOptions::default());
    }

    #[test]
    fn budgeted_generation_truncates_and_marks_degraded() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let budget = SimBudget {
            max_stimuli: Some(4), // statics only for a 2-input cell
            max_defects: Some(12),
            ..SimBudget::unlimited()
        };
        let model = CaModel::generate_budgeted(&cell, GenerateOptions::default(), &budget)
            .expect("truncation is not an error");
        assert!(model.degraded);
        assert_eq!(model.universe.len(), 12);
        assert_eq!(model.rows.len(), 12);
        assert!(model.rows.iter().all(|r| r.len() == 4));
        // Static-only characterization sees no dynamic classes.
        let (_, dynamic, _) = model.behavior_counts();
        assert_eq!(dynamic, 0);
    }

    #[test]
    fn budgeted_generation_propagates_wall_clock_exhaustion() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let budget = SimBudget {
            wall_clock: Some(std::time::Duration::ZERO),
            ..SimBudget::unlimited()
        };
        let err = CaModel::generate_budgeted(&cell, GenerateOptions::default(), &budget)
            .expect_err("zero deadline cannot finish");
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }

    #[test]
    fn agreement_with_self_is_one() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        assert!((model.agreement(&model) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn agreement_drops_when_rows_flip() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let mut rows = model.rows.clone();
        let flipped = !rows[0].get(0);
        rows[0].set(0, flipped);
        let altered = CaModel::from_rows(&cell, model.universe.clone(), rows);
        let total = 24.0 * 16.0;
        let expected = (total - 1.0) / total;
        assert!((model.agreement(&altered) - expected).abs() < 1e-12);
        assert_eq!(altered.defect_simulations, 0);
    }

    #[test]
    fn behavior_counts_sum_to_class_count() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let (s, d, u) = model.behavior_counts();
        assert_eq!(s + d + u, model.classes.len());
        assert!(s > 0 && d > 0);
    }

    #[test]
    fn cloned_model_equals_original() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let model = CaModel::generate(&cell, GenerateOptions::default());
        let copy = model.clone();
        assert_eq!(model, copy);
    }
}
