//! CA-matrix assembly and ML feature encoding (paper Table I, §III/IV).
//!
//! One CA-matrix row is one ⟨stimulus, defect⟩ pair:
//!
//! | columns | content |
//! |---|---|
//! | `n` | input waves, `{0,1,R,F}` coded `0..=3` |
//! | `1` | golden output wave |
//! | `T` | per canonical transistor: activity wave code |
//! | `3T` | per canonical transistor: defect flags on D, G, S |
//! | `1` | defect kind: 0 = free, 1 = open, 2 = short |
//!
//! The label (not part of the features) is the detection bit. Defect-free
//! "free" rows (Table I) carry all-zero flags and label 0. Because all
//! per-transistor columns are indexed by *canonical* position, rows from
//! different cells of the same (inputs, transistors) group align.

use crate::activation::Activation;
use crate::canonical::CanonicalCell;
use crate::error::CoreError;
use ca_defects::{BitRow, CaModel, DefectKind, DefectUniverse, GenerateOptions};
use ca_ml::{Classifier, Dataset};
use ca_netlist::{Cell, Terminal};
use ca_sim::{Injection, SimBudget, SimError};

/// Fixed column layout of a cell group's CA-matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixLayout {
    /// Number of primary inputs of the group.
    pub num_inputs: usize,
    /// Number of transistors of the group.
    pub num_transistors: usize,
}

impl MatrixLayout {
    /// Total number of feature columns.
    pub fn num_features(self) -> usize {
        self.stimulus_width() + 3 * self.num_transistors + 1
    }

    /// Number of columns of the stimulus block, which holds the input
    /// waves, the output wave and the activity waves (`n + 1 + T`). The
    /// defect block (D/G/S flags and kind, `3T + 1` columns) follows it.
    /// A row's stimulus block depends only on its stimulus and its defect
    /// block only on its defect.
    pub fn stimulus_width(self) -> usize {
        self.num_inputs + 1 + self.num_transistors
    }

    /// Column index of input pin `i`'s wave.
    pub fn input_col(self, i: usize) -> usize {
        i
    }

    /// Column index of the golden output wave.
    pub fn output_col(self) -> usize {
        self.num_inputs
    }

    /// Column index of canonical transistor `k`'s activity wave.
    pub fn activity_col(self, k: usize) -> usize {
        self.num_inputs + 1 + k
    }

    /// Column index of the defect flag for canonical transistor `k`,
    /// terminal `term`.
    pub fn defect_col(self, k: usize, term: Terminal) -> usize {
        let offset = match term {
            Terminal::Drain => 0,
            Terminal::Gate => 1,
            Terminal::Source => 2,
            Terminal::Bulk => panic!("bulk terminals are not part of the CA-matrix"),
        };
        self.stimulus_width() + 3 * k + offset
    }

    /// Column index of the defect-kind code.
    pub fn kind_col(self) -> usize {
        self.num_features() - 1
    }

    /// Human-readable column names (`A`, ..., `Z`, `N0`, ..., `N0_D`, ...).
    pub fn column_names(self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.num_features());
        for i in 0..self.num_inputs {
            names.push(((b'A' + i as u8) as char).to_string());
        }
        names.push("Z".into());
        for k in 0..self.num_transistors {
            names.push(format!("T{k}"));
        }
        for k in 0..self.num_transistors {
            for term in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                names.push(format!("T{k}_{term}"));
            }
        }
        names.push("kind".into());
        names
    }
}

/// A cell with everything the ML flow needs: activation, canonical view,
/// defect universe and (for training cells) the ground-truth CA model.
#[derive(Debug, Clone)]
pub struct PreparedCell {
    /// The transistor netlist.
    pub cell: Cell,
    /// Golden activation information.
    pub activation: Activation,
    /// Canonical (renamed) view.
    pub canonical: CanonicalCell,
    /// Defect universe (intra-transistor).
    pub universe: DefectUniverse,
    /// Ground-truth CA model, present for training cells.
    pub model: Option<CaModel>,
}

impl PreparedCell {
    /// Prepares a *training* cell: runs the conventional flow to obtain
    /// ground-truth labels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] for invalid netlists.
    pub fn characterize(cell: Cell, options: GenerateOptions) -> Result<PreparedCell, CoreError> {
        let mut prepared = PreparedCell::prepare(cell)?;
        prepared.model = Some(CaModel::generate(&prepared.cell, options));
        Ok(prepared)
    }

    /// Like [`PreparedCell::characterize`], but runs the conventional
    /// flow under a [`SimBudget`]: oscillation and exhausted budgets
    /// become errors instead of silently X-forced values.
    ///
    /// Truncating budgets (`max_stimuli` / `max_defects`) produce a
    /// [degraded](CaModel::degraded) model; the prepared cell's universe
    /// is aligned with the (possibly truncated) model universe. Degraded
    /// cells must not be used as ML training cells — their detection
    /// rows cover fewer stimuli than the activation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SolverDiverged`] when the golden cell
    /// oscillates, [`CoreError::BudgetExceeded`] when the wall clock or
    /// iteration budget runs out, and the usual prepare errors.
    pub fn characterize_budgeted(
        cell: Cell,
        options: GenerateOptions,
        budget: &SimBudget,
    ) -> Result<PreparedCell, CoreError> {
        // The model first: its errors (oscillation, an exhausted budget)
        // take precedence over prepare's.
        let model = budgeted_model(&cell, options, budget)?;
        Ok(PreparedCell::prepare(cell)?.with_model(model))
    }

    /// Attaches `model`, aligning the universe with the one it covers.
    pub(crate) fn with_model(mut self, model: CaModel) -> PreparedCell {
        self.universe = model.universe.clone();
        self.model = Some(model);
        self
    }

    /// Prepares a *new* cell for inference (no labels). Only the
    /// defect-free golden simulation is run — this is the cheap part the
    /// ML flow keeps from Fig. 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] for invalid netlists.
    pub fn prepare(cell: Cell) -> Result<PreparedCell, CoreError> {
        if cell.outputs().len() != 1 {
            // The paper's CA-matrix has a single response column; the
            // conventional flow (CaModel::generate) handles multi-output
            // cells, the ML encoding does not.
            return Err(CoreError::Unsupported(format!(
                "cell `{}` has {} outputs; the CA-matrix encoding is single-output",
                cell.name(),
                cell.outputs().len()
            )));
        }
        let activation = Activation::extract(&cell)?;
        let canonical = CanonicalCell::build(&cell, &activation)?;
        let universe = DefectUniverse::intra_transistor(&cell);
        Ok(PreparedCell {
            cell,
            activation,
            canonical,
            universe,
            model: None,
        })
    }

    /// The (inputs, transistors) group key used for training/inference
    /// grouping (paper §II.B).
    pub fn group_key(&self) -> (usize, usize) {
        (self.cell.num_inputs(), self.cell.num_transistors())
    }

    /// The matrix layout of this cell's group.
    pub fn layout(&self) -> MatrixLayout {
        MatrixLayout {
            num_inputs: self.cell.num_inputs(),
            num_transistors: self.cell.num_transistors(),
        }
    }

    /// Encodes the stimulus block of `stimulus`'s rows
    /// ([`MatrixLayout::stimulus_width`] columns): input waves, golden
    /// output wave and each canonical transistor's activity wave.
    pub fn encode_stimulus(&self, stimulus: usize) -> Vec<f32> {
        let layout = self.layout();
        let mut block = vec![0.0f32; layout.stimulus_width()];
        let stim = &self.activation.stimuli()[stimulus];
        for (i, w) in stim.waves().iter().enumerate() {
            block[layout.input_col(i)] = w.code() as f32;
        }
        block[layout.output_col()] = self.activation.output_waves()[stimulus].code() as f32;
        for (tid, _) in self.cell.transistor_ids() {
            let k = self.canonical.position(tid);
            block[layout.activity_col(k)] =
                self.activation.transistor_wave(stimulus, tid).code() as f32;
        }
        block
    }

    /// Encodes the defect block of `injection`'s rows (the columns after
    /// [`MatrixLayout::stimulus_width`]): D/G/S flags of each canonical
    /// transistor and the defect kind.
    ///
    /// Pass [`Injection::None`] for a "free" row.
    pub fn encode_defect(&self, injection: Injection) -> Vec<f32> {
        let layout = self.layout();
        let offset = layout.stimulus_width();
        let mut block = vec![0.0f32; layout.num_features() - offset];
        let mut flag = |tid: ca_netlist::TransistorId, term: Terminal| {
            let k = self.canonical.position(tid);
            block[layout.defect_col(k, term) - offset] = 1.0;
        };
        let kind_code = match injection {
            Injection::None => 0.0,
            Injection::Open {
                transistor,
                terminal,
            } => {
                flag(transistor, terminal);
                1.0
            }
            Injection::Short { transistor, a, b } => {
                flag(transistor, a);
                flag(transistor, b);
                2.0
            }
            Injection::NetShort { a, b } => {
                for (tid, t) in self.cell.transistor_ids() {
                    for term in Terminal::CHANNEL_AND_GATE {
                        if t.terminal(term) == a || t.terminal(term) == b {
                            flag(tid, term);
                        }
                    }
                }
                2.0
            }
        };
        block[layout.kind_col() - offset] = kind_code;
        block
    }

    /// Encodes the feature row for (`stimulus` index, defect `injection`):
    /// its stimulus block followed by its defect block.
    ///
    /// Pass [`Injection::None`] for a "free" row.
    pub fn encode_row(&self, stimulus: usize, injection: Injection) -> Vec<f32> {
        let mut row = self.encode_stimulus(stimulus);
        row.extend(self.encode_defect(injection));
        row
    }

    /// The stimulus blocks of every stimulus, in activation order.
    fn stimulus_blocks(&self) -> Dataset {
        let mut blocks = Dataset::new(self.layout().stimulus_width());
        for s in 0..self.activation.stimuli().len() {
            blocks.push_row(&self.encode_stimulus(s), 0);
        }
        blocks
    }

    /// Builds the labelled training rows of this cell: one row per
    /// ⟨defect, stimulus⟩ plus the defect-free rows.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no ground-truth model.
    pub fn training_rows(&self, out: &mut Dataset) {
        let model = self
            .model
            .as_ref()
            .expect("training_rows requires a characterized cell");
        let stimuli = self.stimulus_blocks();
        let mut row = Vec::with_capacity(self.layout().num_features());
        let mut push = |s: usize, defect: &[f32], label: u32| {
            row.clear();
            row.extend_from_slice(stimuli.row(s));
            row.extend_from_slice(defect);
            out.push_row(&row, label);
        };
        let free = self.encode_defect(Injection::None);
        for s in 0..stimuli.len() {
            push(s, &free, 0);
        }
        for defect in self.universe.defects() {
            let block = self.encode_defect(defect.injection);
            for s in 0..stimuli.len() {
                push(s, &block, u32::from(model.detects(defect.id, s)));
            }
        }
    }

    /// Predicts a full CA model: a ⟨defect, stimulus⟩ pair is detected
    /// when `classifier` labels its row 1. The stimulus and defect blocks
    /// are encoded once each and classified as a product
    /// ([`Classifier::predict_product`]).
    pub fn predict_model(&self, classifier: &dyn Classifier) -> CaModel {
        let layout = self.layout();
        let stimuli = self.stimulus_blocks();
        let mut defects = Dataset::new(layout.num_features() - layout.stimulus_width());
        for defect in self.universe.defects() {
            defects.push_row(&self.encode_defect(defect.injection), 0);
        }
        let labels = classifier.predict_product(&stimuli, &defects);
        let n = stimuli.len();
        let rows: Vec<BitRow> = (0..defects.len())
            .map(|d| {
                let mut row = BitRow::zeros(n);
                for (s, &label) in labels[d * n..(d + 1) * n].iter().enumerate() {
                    row.set(s, label == 1);
                }
                row
            })
            .collect();
        CaModel::from_rows(&self.cell, self.universe.clone(), rows)
    }

    /// Prediction accuracy of `predicted` against this cell's ground
    /// truth (all defects).
    ///
    /// # Panics
    ///
    /// Panics if the cell has no ground-truth model.
    pub fn accuracy_of(&self, predicted: &CaModel) -> f64 {
        self.model
            .as_ref()
            .expect("accuracy requires ground truth")
            .agreement(predicted)
    }

    /// Prediction accuracy restricted to one defect category; the paper
    /// reports opens and shorts separately (§V.A).
    ///
    /// # Panics
    ///
    /// Panics if the cell has no ground-truth model.
    pub fn accuracy_of_kind(&self, predicted: &CaModel, kind: DefectKind) -> f64 {
        self.model
            .as_ref()
            .expect("accuracy requires ground truth")
            .agreement_of_kind(predicted, kind)
    }

    /// Number of defect kinds in the universe: `(opens, shorts)`.
    pub fn defect_counts(&self) -> (usize, usize) {
        let opens = self
            .universe
            .defects()
            .iter()
            .filter(|d| d.kind == DefectKind::Open)
            .count();
        (opens, self.universe.len() - opens)
    }
}

/// [`CaModel::generate_budgeted`], with its simulation errors as
/// [`CoreError`]s naming `cell`.
pub(crate) fn budgeted_model(
    cell: &Cell,
    options: GenerateOptions,
    budget: &SimBudget,
) -> Result<CaModel, CoreError> {
    CaModel::generate_budgeted(cell, options, budget).map_err(|e| match e {
        SimError::Oscillated { nets } => CoreError::SolverDiverged {
            cell: cell.name().to_string(),
            nets,
        },
        SimError::BudgetExceeded { resource } => CoreError::BudgetExceeded {
            cell: cell.name().to_string(),
            resource: resource.to_string(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;
    use std::collections::BTreeMap;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MPX Z A VDD VDD pch
MPY Z B VDD VDD pch
MN10 Z A net0 VSS nch
MN11 net0 B VSS VSS nch
.ENDS
";

    fn prepared() -> PreparedCell {
        let cell = spice::parse_cell(NAND2).unwrap();
        PreparedCell::characterize(cell, GenerateOptions::default()).unwrap()
    }

    #[test]
    fn layout_indices_are_disjoint_and_dense() {
        let layout = MatrixLayout {
            num_inputs: 2,
            num_transistors: 4,
        };
        assert_eq!(layout.num_features(), 2 + 1 + 4 + 12 + 1);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2 {
            assert!(seen.insert(layout.input_col(i)));
        }
        assert!(seen.insert(layout.output_col()));
        for k in 0..4 {
            assert!(seen.insert(layout.activity_col(k)));
            for t in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                assert!(seen.insert(layout.defect_col(k, t)));
            }
        }
        assert!(seen.insert(layout.kind_col()));
        assert_eq!(seen.len(), layout.num_features());
        assert_eq!(layout.column_names().len(), layout.num_features());
    }

    #[test]
    fn free_row_has_zero_flags() {
        let p = prepared();
        let layout = p.layout();
        let row = p.encode_row(0, Injection::None);
        assert_eq!(row[layout.kind_col()], 0.0);
        for k in 0..4 {
            for t in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                assert_eq!(row[layout.defect_col(k, t)], 0.0);
            }
        }
        // AB=00: both PMOS active, both NMOS passive.
        assert_eq!(row[layout.input_col(0)], 0.0);
        assert_eq!(row[layout.output_col()], 1.0);
    }

    #[test]
    fn short_row_flags_both_terminals() {
        let p = prepared();
        let layout = p.layout();
        let mpx = p.cell.find_transistor("MPX").unwrap();
        let injection = Injection::Short {
            transistor: mpx,
            a: Terminal::Drain,
            b: Terminal::Source,
        };
        let row = p.encode_row(0, injection);
        let k = p.canonical.position(mpx);
        assert_eq!(row[layout.defect_col(k, Terminal::Drain)], 1.0);
        assert_eq!(row[layout.defect_col(k, Terminal::Source)], 1.0);
        assert_eq!(row[layout.defect_col(k, Terminal::Gate)], 0.0);
        assert_eq!(row[layout.kind_col()], 2.0);
        let flags: f32 = (0..4)
            .flat_map(|k| {
                [Terminal::Drain, Terminal::Gate, Terminal::Source]
                    .map(|t| row[layout.defect_col(k, t)])
            })
            .sum();
        assert_eq!(flags, 2.0);
    }

    #[test]
    fn training_rows_count_and_labels() {
        let p = prepared();
        let layout = p.layout();
        let mut data = Dataset::new(layout.num_features());
        p.training_rows(&mut data);
        // 16 free rows + 24 defects x 16 stimuli.
        assert_eq!(data.len(), 16 + 24 * 16);
        // Free rows are labelled 0.
        for i in 0..16 {
            assert_eq!(data.label(i), 0);
        }
        // Some defect rows are labelled 1.
        assert!(data.labels().contains(&1));
    }

    #[test]
    fn perfect_oracle_reproduces_ground_truth() {
        // An oracle that re-simulates is exactly the conventional flow;
        // emulate it with a classifier that looks each row's label up in
        // the truth model.
        struct Lookup(BTreeMap<Vec<u32>, u32>);
        impl Classifier for Lookup {
            fn fit(&mut self, _: &Dataset) {}
            fn predict(&self, row: &[f32]) -> u32 {
                self.0[&row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()]
            }
        }
        let p = prepared();
        let truth = p.model.clone().unwrap();
        let mut labels = BTreeMap::new();
        for d in p.universe.defects() {
            for s in 0..16 {
                let row = p.encode_row(s, d.injection);
                let key = row.iter().map(|v| v.to_bits()).collect();
                let label = u32::from(truth.detects(d.id, s));
                assert!(labels.insert(key, label).is_none(), "rows are distinct");
            }
        }
        let predicted = p.predict_model(&Lookup(labels));
        assert!((p.accuracy_of(&predicted) - 1.0).abs() < 1e-12);
        assert_eq!(predicted.classes.len(), truth.classes.len());
    }

    #[test]
    fn rows_are_a_stimulus_block_then_a_defect_block() {
        let p = prepared();
        let layout = p.layout();
        assert_eq!(
            layout.stimulus_width(),
            layout.defect_col(0, Terminal::Drain)
        );
        let z = p.cell.find_net("Z").unwrap();
        let net0 = p.cell.find_net("net0").unwrap();
        let net_short = Injection::NetShort { a: z, b: net0 };
        let mut injections: Vec<Injection> =
            p.universe.defects().iter().map(|d| d.injection).collect();
        injections.extend([Injection::None, net_short]);
        for injection in injections {
            let defect = p.encode_defect(injection);
            assert_eq!(
                defect.len(),
                layout.num_features() - layout.stimulus_width()
            );
            for s in 0..16 {
                let mut row = p.encode_stimulus(s);
                row.extend(&defect);
                assert_eq!(
                    p.encode_row(s, injection),
                    row,
                    "{injection:?}, stimulus {s}"
                );
            }
        }
        // The net short flags every terminal on Z (three drains) or net0
        // (MN10's source, MN11's drain), at their full-row columns.
        let row = p.encode_row(0, net_short);
        let mut flagged = Vec::new();
        for (tid, t) in p.cell.transistor_ids() {
            for term in [Terminal::Drain, Terminal::Gate, Terminal::Source] {
                if row[layout.defect_col(p.canonical.position(tid), term)] == 1.0 {
                    flagged.push(format!("{}_{term}", t.name()));
                }
            }
        }
        flagged.sort();
        assert_eq!(flagged, ["MN10_D", "MN10_S", "MN11_D", "MPX_D", "MPY_D"]);
        assert_eq!(row[layout.kind_col()], 2.0);
    }

    #[test]
    fn defect_counts_split() {
        let p = prepared();
        assert_eq!(p.defect_counts(), (12, 12));
    }

    #[test]
    fn budgeted_characterization_matches_unlimited() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let p = PreparedCell::characterize_budgeted(
            cell,
            GenerateOptions::default(),
            &SimBudget::unlimited(),
        )
        .unwrap();
        let q = prepared();
        assert_eq!(p.model.as_ref().unwrap(), q.model.as_ref().unwrap());
        assert!(!p.model.as_ref().unwrap().degraded);
    }

    #[test]
    fn budgeted_characterization_truncates_universe() {
        let cell = spice::parse_cell(NAND2).unwrap();
        let budget = SimBudget {
            max_defects: Some(10),
            ..SimBudget::unlimited()
        };
        let p =
            PreparedCell::characterize_budgeted(cell, GenerateOptions::default(), &budget).unwrap();
        let model = p.model.as_ref().unwrap();
        assert!(model.degraded);
        assert_eq!(model.universe.len(), 10);
        // The prepared universe is aligned with the truncated model.
        assert_eq!(p.universe.len(), 10);
    }
}
