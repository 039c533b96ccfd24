//! CA model generation flows: conventional, ML-based and hybrid
//! (paper Fig. 1, Fig. 2 and Fig. 7).

use crate::canonical::CanonicalCell;
use crate::cost::CostModel;
use crate::error::CoreError;
use crate::matrix::PreparedCell;
use crate::robust::{isolated, lint_error, FailurePhase, Quarantine, QuarantineEntry};
use ca_defects::{CaModel, GenerateOptions};
use ca_ml::{Classifier, Dataset, ForestParams, RandomForest};
use ca_netlist::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// Parameters of the ML flow.
#[derive(Debug, Clone)]
pub struct MlFlowParams {
    /// Random-forest hyperparameters.
    pub forest: ForestParams,
    /// Training-row cap per cell: all detected (label 1) rows are kept,
    /// undetected rows are deterministically subsampled. `None` = keep
    /// everything.
    pub max_rows_per_cell: Option<usize>,
    /// Keep per-group training data so the hybrid feedback loop can
    /// retrain (costs memory).
    pub retain_training_data: bool,
}

impl Default for MlFlowParams {
    fn default() -> MlFlowParams {
        MlFlowParams {
            forest: ForestParams::default(),
            max_rows_per_cell: None,
            retain_training_data: true,
        }
    }
}

impl MlFlowParams {
    /// Faster settings for tests and quick sweeps.
    pub fn quick() -> MlFlowParams {
        MlFlowParams {
            forest: ForestParams::quick(),
            max_rows_per_cell: Some(20_000),
            retain_training_data: true,
        }
    }
}

/// Runs the conventional, simulation-based flow (Fig. 1).
pub fn conventional_flow(cell: &Cell, options: GenerateOptions) -> CaModel {
    CaModel::generate(cell, options)
}

/// Builds the labelled dataset of a cell group and trains a forest on it.
///
/// # Errors
///
/// Returns [`CoreError::EmptyTrainingSet`] when `cells` is empty or
/// contains no characterized cell.
pub fn train_group_forest(
    cells: &[&PreparedCell],
    params: &MlFlowParams,
) -> Result<(RandomForest, Dataset), CoreError> {
    let mut characterized: Vec<&PreparedCell> = cells
        .iter()
        .copied()
        .filter(|c| c.model.is_some())
        .collect();
    characterized.sort_by(|a, b| a.cell.name().cmp(b.cell.name()));
    let first = characterized.first().ok_or(CoreError::EmptyTrainingSet)?;
    let layout = first.layout();
    let mut data = Dataset::new(layout.num_features());
    for (ci, prepared) in characterized.iter().enumerate() {
        let mut cell_data = Dataset::new(layout.num_features());
        prepared.training_rows(&mut cell_data);
        match params.max_rows_per_cell {
            Some(cap) if cell_data.len() > cap => {
                let kept = subsample_rows(&cell_data, cap, ci as u64);
                data.extend_from(&cell_data.subset(&kept));
            }
            _ => data.extend_from(&cell_data),
        }
    }
    let mut forest = RandomForest::new(params.forest.clone());
    forest.fit(&data);
    Ok((forest, data))
}

/// Keeps every positive row and a deterministic subsample of negatives so
/// that roughly `cap` rows remain.
fn subsample_rows(data: &Dataset, cap: usize, seed: u64) -> Vec<usize> {
    let positives: Vec<usize> = (0..data.len()).filter(|&i| data.label(i) == 1).collect();
    let negatives: Vec<usize> = (0..data.len()).filter(|&i| data.label(i) == 0).collect();
    let budget = cap.saturating_sub(positives.len()).max(1);
    let mut kept = positives;
    if negatives.len() <= budget {
        kept.extend(negatives);
    } else {
        // Deterministic stride sampling with a seeded offset.
        let stride = negatives.len() as f64 / budget as f64;
        let offset = (seed.wrapping_mul(0x9E3779B97F4A7C15) % 997) as f64 / 997.0;
        for j in 0..budget {
            let idx = ((j as f64 + offset) * stride) as usize;
            kept.push(negatives[idx.min(negatives.len() - 1)]);
        }
    }
    kept.sort_unstable();
    kept.dedup();
    kept
}

struct TrainedGroup {
    forest: RandomForest,
    training_data: Option<Dataset>,
    num_cells: usize,
}

/// The ML-based generation flow (Fig. 2): per-group random forests
/// trained on existing CA models, predicting models for new cells.
pub struct MlFlow {
    groups: BTreeMap<(usize, usize), TrainedGroup>,
    params: MlFlowParams,
}

impl std::fmt::Debug for MlFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlFlow")
            .field("groups", &self.groups.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl MlFlow {
    /// Trains one forest per (inputs, transistors) group of `corpus`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`] when no cell in the corpus
    /// carries a ground-truth model.
    pub fn train(corpus: &[PreparedCell], params: MlFlowParams) -> Result<MlFlow, CoreError> {
        let mut by_key: BTreeMap<(usize, usize), Vec<&PreparedCell>> = BTreeMap::new();
        for prepared in corpus.iter().filter(|c| c.model.is_some()) {
            by_key
                .entry(prepared.group_key())
                .or_default()
                .push(prepared);
        }
        if by_key.is_empty() {
            return Err(CoreError::EmptyTrainingSet);
        }
        let _span = ca_obs::span_root("ca_core.ml_flow.train");
        ca_obs::counter!("ca_core.ml_flow.groups_trained", Work).add(by_key.len() as u64);
        let mut groups = BTreeMap::new();
        for (key, cells) in by_key {
            let (forest, data) = train_group_forest(&cells, &params)?;
            groups.insert(
                key,
                TrainedGroup {
                    forest,
                    training_data: params.retain_training_data.then_some(data),
                    num_cells: cells.len(),
                },
            );
        }
        Ok(MlFlow { groups, params })
    }

    /// Group keys with a trained forest.
    pub fn group_keys(&self) -> Vec<(usize, usize)> {
        self.groups.keys().copied().collect()
    }

    /// Number of training cells in the group of `key`.
    pub fn group_size(&self, key: (usize, usize)) -> Option<usize> {
        self.groups.get(&key).map(|g| g.num_cells)
    }

    /// Whether a forest exists for the cell's group.
    pub fn covers(&self, prepared: &PreparedCell) -> bool {
        self.groups.contains_key(&prepared.group_key())
    }

    /// Predicts the CA model of a prepared (new) cell.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoMatchingGroup`] when no forest matches the
    /// cell's (inputs, transistors) key.
    pub fn predict(&self, prepared: &PreparedCell) -> Result<CaModel, CoreError> {
        let group =
            self.groups
                .get(&prepared.group_key())
                .ok_or_else(|| CoreError::NoMatchingGroup {
                    cell: prepared.cell.name().to_string(),
                    inputs: prepared.cell.num_inputs(),
                    transistors: prepared.cell.num_transistors(),
                })?;
        Ok(prepared.predict_model(&group.forest))
    }

    /// Predicts models for a batch of prepared cells on `executor`,
    /// returning them in input order (prediction is read-only over the
    /// trained forests, so the cells are independent).
    ///
    /// # Errors
    ///
    /// Returns the first (in input order) [`CoreError::NoMatchingGroup`].
    pub fn predict_batch(
        &self,
        prepared: &[PreparedCell],
        executor: &ca_exec::Executor,
    ) -> Result<Vec<CaModel>, CoreError> {
        let _span = ca_obs::span_root("ca_core.ml_flow.predict_batch");
        ca_obs::counter!("ca_core.ml_flow.cells_predicted", Work).add(prepared.len() as u64);
        executor
            .map(prepared, |_, p| self.predict(p))
            .into_iter()
            .collect()
    }

    /// Adds a freshly characterized cell to its group and retrains the
    /// group (the Fig. 7 feedback loop). A new group is created when none
    /// exists.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyTrainingSet`] if `prepared` has no model,
    /// or [`CoreError::Unsupported`] when training data was not retained.
    pub fn reinforce(&mut self, prepared: &PreparedCell) -> Result<(), CoreError> {
        if prepared.model.is_none() {
            return Err(CoreError::EmptyTrainingSet);
        }
        if !self.params.retain_training_data {
            return Err(CoreError::Unsupported(
                "reinforcement requires retain_training_data".into(),
            ));
        }
        let key = prepared.group_key();
        let layout = prepared.layout();
        let mut cell_data = Dataset::new(layout.num_features());
        prepared.training_rows(&mut cell_data);
        if let Some(cap) = self.params.max_rows_per_cell {
            if cell_data.len() > cap {
                let kept = subsample_rows(&cell_data, cap, 0xFEED);
                cell_data = cell_data.subset(&kept);
            }
        }
        match self.groups.get_mut(&key) {
            Some(group) => {
                let data = group
                    .training_data
                    .as_mut()
                    .expect("retain_training_data checked above");
                data.extend_from(&cell_data);
                let mut forest = RandomForest::new(self.params.forest.clone());
                forest.fit(data);
                group.forest = forest;
                group.num_cells += 1;
            }
            None => {
                let mut forest = RandomForest::new(self.params.forest.clone());
                forest.fit(&cell_data);
                self.groups.insert(
                    key,
                    TrainedGroup {
                        forest,
                        training_data: Some(cell_data),
                        num_cells: 1,
                    },
                );
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Structural gate (§V.B / §V.C)
// ---------------------------------------------------------------------

/// Outcome of the structural analysis for a new cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructuralMatch {
    /// A training cell has the identical structure (wiring hash match).
    Identical,
    /// A training cell has an equivalent structure (Fig. 6 reduction
    /// match).
    Equivalent,
    /// No identical or equivalent structure is known.
    New,
}

impl std::fmt::Display for StructuralMatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructuralMatch::Identical => write!(f, "identical"),
            StructuralMatch::Equivalent => write!(f, "equivalent"),
            StructuralMatch::New => write!(f, "new"),
        }
    }
}

/// Index of the known (training) structures, queried by the hybrid gate.
#[derive(Debug, Clone, Default)]
pub struct StructureIndex {
    identical: BTreeSet<u64>,
    reduced: BTreeSet<u64>,
}

impl StructureIndex {
    /// An empty index.
    pub fn new() -> StructureIndex {
        StructureIndex::default()
    }

    /// Builds the index over a training corpus.
    pub fn from_corpus(corpus: &[PreparedCell]) -> StructureIndex {
        let mut index = StructureIndex::new();
        for prepared in corpus {
            index.insert(&prepared.canonical);
        }
        index
    }

    /// Registers a known structure.
    pub fn insert(&mut self, canonical: &CanonicalCell) {
        self.identical.insert(canonical.wiring_hash());
        self.reduced.insert(canonical.reduced_hash());
    }

    /// Classifies a new cell's structure against the known set.
    pub fn classify(&self, canonical: &CanonicalCell) -> StructuralMatch {
        if self.identical.contains(&canonical.wiring_hash()) {
            StructuralMatch::Identical
        } else if self.reduced.contains(&canonical.reduced_hash()) {
            StructuralMatch::Equivalent
        } else {
            StructuralMatch::New
        }
    }

    /// Number of distinct identical-structure signatures known.
    pub fn len(&self) -> usize {
        self.identical.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.identical.is_empty()
    }
}

// ---------------------------------------------------------------------
// Hybrid flow (Fig. 7)
// ---------------------------------------------------------------------

/// How a cell was generated by the hybrid flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// ML prediction; the gate found this structural match.
    Ml(StructuralMatch),
    /// Conventional simulation (no usable structural match).
    Simulated,
}

/// Per-cell outcome of a hybrid run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell name.
    pub name: String,
    /// Route taken.
    pub route: Route,
    /// Estimated generation time of the taken route, seconds.
    pub time_s: f64,
    /// Estimated conventional time for comparison, seconds.
    pub simulation_time_s: f64,
    /// Prediction accuracy vs ground truth (only when evaluation is on
    /// and the route was ML).
    pub accuracy: Option<f64>,
}

/// Options of the hybrid flow.
#[derive(Debug, Clone, Copy)]
pub struct HybridOptions {
    /// Feed simulated cells back into the training set (Fig. 7 loop).
    pub reinforce: bool,
    /// Also run the conventional flow for ML-routed cells to measure the
    /// prediction accuracy (experiment mode; costs simulation time but is
    /// not charged to the hybrid clock).
    pub evaluate_ml_accuracy: bool,
    /// Options of the conventional flow.
    pub generate: GenerateOptions,
}

impl Default for HybridOptions {
    fn default() -> HybridOptions {
        HybridOptions {
            reinforce: true,
            evaluate_ml_accuracy: false,
            generate: GenerateOptions::default(),
        }
    }
}

/// Aggregated outcomes of a hybrid run.
#[derive(Debug, Clone, Default)]
pub struct HybridReport {
    /// Per-cell outcomes in processing order.
    pub outcomes: Vec<CellOutcome>,
}

impl HybridReport {
    /// `(identical, equivalent, simulated)` cell counts.
    pub fn route_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for o in &self.outcomes {
            match o.route {
                Route::Ml(StructuralMatch::Identical) => c.0 += 1,
                Route::Ml(StructuralMatch::Equivalent) => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }

    /// Total hybrid generation time, seconds.
    pub fn hybrid_time_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.time_s).sum()
    }

    /// Total conventional-only generation time, seconds.
    pub fn conventional_time_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.simulation_time_s).sum()
    }

    /// Overall reduction in generation time, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        let conventional = self.conventional_time_s();
        if conventional == 0.0 {
            return 0.0;
        }
        1.0 - self.hybrid_time_s() / conventional
    }

    /// Reduction restricted to the ML-routed cells.
    pub fn ml_reduction(&self) -> f64 {
        let (mut ml, mut conv) = (0.0, 0.0);
        for o in &self.outcomes {
            if matches!(o.route, Route::Ml(_)) {
                ml += o.time_s;
                conv += o.simulation_time_s;
            }
        }
        if conv == 0.0 {
            0.0
        } else {
            1.0 - ml / conv
        }
    }

    /// Mean accuracy over evaluated ML-routed cells.
    pub fn mean_ml_accuracy(&self) -> Option<f64> {
        let accs: Vec<f64> = self.outcomes.iter().filter_map(|o| o.accuracy).collect();
        if accs.is_empty() {
            None
        } else {
            Some(accs.iter().sum::<f64>() / accs.len() as f64)
        }
    }
}

/// The hybrid generation flow of Fig. 7: a structural gate dispatches each
/// new cell to ML prediction or conventional simulation, and simulated
/// cells reinforce the training set.
#[derive(Debug)]
pub struct HybridFlow {
    ml: MlFlow,
    index: StructureIndex,
    cost: CostModel,
    options: HybridOptions,
}

impl HybridFlow {
    /// Builds the flow from a characterized training corpus.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unsupported`], before any training, when
    /// `options.reinforce` is on but `params.retain_training_data` is off:
    /// the feedback loop retrains groups from their retained data.
    /// Returns [`CoreError::EmptyTrainingSet`] when the corpus carries no
    /// ground-truth models.
    pub fn new(
        corpus: &[PreparedCell],
        params: MlFlowParams,
        cost: CostModel,
        options: HybridOptions,
    ) -> Result<HybridFlow, CoreError> {
        if options.reinforce && !params.retain_training_data {
            return Err(CoreError::Unsupported(
                "reinforcement requires retain_training_data".into(),
            ));
        }
        let ml = MlFlow::train(corpus, params)?;
        let index = StructureIndex::from_corpus(corpus);
        Ok(HybridFlow {
            ml,
            index,
            cost,
            options,
        })
    }

    /// Access to the inner ML flow.
    pub fn ml(&self) -> &MlFlow {
        &self.ml
    }

    /// Access to the structural index.
    pub fn index(&self) -> &StructureIndex {
        &self.index
    }

    /// Generates the CA model of one new cell, routing per the gate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GoldenNotBinary`] for invalid netlists.
    pub fn generate(&mut self, cell: Cell) -> Result<(CaModel, CellOutcome), CoreError> {
        let prepared = PreparedCell::prepare(cell)?;
        let simulation_time_s = self.cost.simulation_time_s(&prepared.cell);
        let matched = self.index.classify(&prepared.canonical);
        let use_ml = matched != StructuralMatch::New && self.ml.covers(&prepared);
        if use_ml {
            let predicted = self.ml.predict(&prepared)?;
            let accuracy = if self.options.evaluate_ml_accuracy {
                let truth = conventional_flow(&prepared.cell, self.options.generate);
                Some(truth.agreement(&predicted))
            } else {
                None
            };
            let outcome = CellOutcome {
                name: prepared.cell.name().to_string(),
                route: Route::Ml(matched),
                time_s: self.cost.ml_time_s(&prepared.cell),
                simulation_time_s,
                accuracy,
            };
            return Ok((predicted, outcome));
        }
        // Conventional route + feedback. The structure index is updated
        // only after the whole route (including reinforcement) succeeds:
        // registering the structure first would make a later failure
        // poison the index, routing future look-alike cells to an ML
        // group that was never trained on this structure.
        let model = conventional_flow(&prepared.cell, self.options.generate);
        if self.options.reinforce {
            let canonical = prepared.canonical.clone();
            let mut characterized = prepared;
            characterized.model = Some(model.clone());
            self.ml.reinforce(&characterized)?;
            self.index.insert(&canonical);
        } else {
            self.index.insert(&prepared.canonical);
        }
        let outcome = CellOutcome {
            name: model.cell_name.clone(),
            route: Route::Simulated,
            time_s: simulation_time_s,
            simulation_time_s,
            accuracy: None,
        };
        Ok((model, outcome))
    }

    /// Generates models for a batch of new cells.
    ///
    /// # Errors
    ///
    /// Propagates the first per-cell error.
    pub fn run(
        &mut self,
        cells: impl IntoIterator<Item = Cell>,
    ) -> Result<(Vec<CaModel>, HybridReport), CoreError> {
        let mut models = Vec::new();
        let mut report = HybridReport::default();
        for cell in cells {
            let (model, outcome) = self.generate(cell)?;
            models.push(model);
            report.outcomes.push(outcome);
        }
        Ok((models, report))
    }

    /// Like [`HybridFlow::run`], but a failing cell is quarantined
    /// instead of aborting the batch: each cell passes the library
    /// driver's lint gate first, and its generation is panic-isolated and
    /// its failure phased as in the driver, so a quarantined cell never
    /// reaches the structure index or the training set.
    pub fn run_robust(
        &mut self,
        cells: impl IntoIterator<Item = Cell>,
    ) -> (Vec<CaModel>, HybridReport, Quarantine) {
        let mut models = Vec::new();
        let mut report = HybridReport::default();
        let mut quarantine = Quarantine::default();
        for cell in cells {
            let started = ca_obs::Stopwatch::start();
            let name = cell.name().to_string();
            let generated = match lint_error(&cell) {
                Some(finding) => Err((FailurePhase::Lint, finding.to_string())),
                None => isolated(&name, || self.generate(cell))
                    .map_err(|err| (FailurePhase::of(&err), err.to_string())),
            };
            match generated {
                Ok((model, outcome)) => {
                    models.push(model);
                    report.outcomes.push(outcome);
                }
                Err((phase, reason)) => quarantine.entries.push(QuarantineEntry {
                    cell: name,
                    phase,
                    reason,
                    elapsed: started.elapsed(),
                    retries: 0,
                }),
            }
        }
        (models, report, quarantine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::library::{generate_library, LibraryConfig};
    use ca_netlist::Technology;

    fn quick_corpus(tech: Technology, max_cells: usize) -> Vec<PreparedCell> {
        let lib = generate_library(&LibraryConfig::quick(tech));
        lib.cells
            .into_iter()
            .take(max_cells)
            .map(|lc| PreparedCell::characterize(lc.cell, GenerateOptions::default()).unwrap())
            .collect()
    }

    #[test]
    fn ml_flow_learns_its_own_training_cells() {
        let corpus = quick_corpus(Technology::Soi28, 10);
        let flow = MlFlow::train(&corpus, MlFlowParams::quick()).unwrap();
        // Training cells are predicted nearly perfectly on average. A few
        // bits are intrinsically ambiguous in the paper's encoding (cells
        // of different functions in one group can collide on identical
        // CA-matrix rows with opposite labels), so per-cell accuracy is
        // high but not necessarily 1.0.
        let mut total = 0.0;
        for prepared in &corpus {
            let predicted = flow.predict(prepared).unwrap();
            total += prepared.accuracy_of(&predicted);
        }
        let mean = total / corpus.len() as f64;
        assert!(mean > 0.93, "mean training accuracy {mean}");
    }

    #[test]
    fn predict_batch_matches_per_cell_predict_at_any_thread_count() {
        let corpus = quick_corpus(Technology::Soi28, 10);
        let flow = MlFlow::train(&corpus, MlFlowParams::quick()).unwrap();
        let expected: Vec<CaModel> = corpus.iter().map(|p| flow.predict(p).unwrap()).collect();
        for threads in [1, 8] {
            let batched = flow
                .predict_batch(&corpus, &ca_exec::Executor::with_threads(threads))
                .unwrap();
            assert_eq!(batched, expected, "threads={threads}");
        }
    }

    #[test]
    fn predict_batch_surfaces_the_first_uncovered_cell() {
        let corpus = quick_corpus(Technology::Soi28, 4);
        let flow = MlFlow::train(&corpus[..2], MlFlowParams::quick()).unwrap();
        if corpus.iter().any(|p| !flow.covers(p)) {
            let err = flow
                .predict_batch(&corpus, &ca_exec::Executor::with_threads(4))
                .unwrap_err();
            assert!(matches!(err, CoreError::NoMatchingGroup { .. }), "{err:?}");
        }
    }

    #[test]
    fn missing_group_is_reported() {
        let corpus = quick_corpus(Technology::Soi28, 4);
        let flow = MlFlow::train(&corpus, MlFlowParams::quick()).unwrap();
        // A 3-input cell from a group the corpus cannot contain.
        let lib = generate_library(&LibraryConfig::quick(Technology::C28));
        let odd = lib
            .cells
            .into_iter()
            .find(|c| c.template == "XOR3")
            .map(|c| PreparedCell::prepare(c.cell).unwrap());
        if let Some(odd) = odd {
            if !flow.covers(&odd) {
                let err = flow.predict(&odd).unwrap_err();
                assert!(matches!(err, CoreError::NoMatchingGroup { .. }));
            }
        }
    }

    #[test]
    fn structural_gate_classifies_three_ways() {
        let soi = generate_library(&LibraryConfig::quick(Technology::Soi28));
        let corpus: Vec<PreparedCell> = soi
            .cells
            .iter()
            .filter(|c| c.drive == 1)
            .take(8)
            .map(|lc| PreparedCell::prepare(lc.cell.clone()).unwrap())
            .collect();
        let index = StructureIndex::from_corpus(&corpus);
        assert!(!index.is_empty());
        // Same cells from another technology: identical.
        let c28 = generate_library(&LibraryConfig::quick(Technology::C28));
        let nand2 = c28
            .cells
            .iter()
            .find(|c| c.template == "NAND2" && c.drive == 1)
            .unwrap();
        let p = PreparedCell::prepare(nand2.cell.clone()).unwrap();
        assert_eq!(index.classify(&p.canonical), StructuralMatch::Identical);
        // A higher drive of a known function: equivalent (if not in corpus).
        let nand2_x2 = soi
            .cells
            .iter()
            .find(|c| c.template == "NAND2" && c.drive == 2)
            .unwrap();
        let p2 = PreparedCell::prepare(nand2_x2.cell.clone()).unwrap();
        assert!(matches!(
            index.classify(&p2.canonical),
            StructuralMatch::Equivalent | StructuralMatch::Identical
        ));
        // A function not in the corpus: new.
        let xor3 = c28.cells.iter().find(|c| c.template == "XOR3");
        if let Some(xor3) = xor3 {
            let p3 = PreparedCell::prepare(xor3.cell.clone()).unwrap();
            assert_eq!(index.classify(&p3.canonical), StructuralMatch::New);
        }
    }

    #[test]
    fn hybrid_flow_routes_and_reports() {
        let corpus = quick_corpus(Technology::Soi28, 8);
        let mut hybrid = HybridFlow::new(
            &corpus,
            MlFlowParams::quick(),
            CostModel::paper_calibrated(),
            HybridOptions {
                reinforce: true,
                evaluate_ml_accuracy: true,
                generate: GenerateOptions::default(),
            },
        )
        .unwrap();
        let c28 = generate_library(&LibraryConfig::quick(Technology::C28));
        let new_cells: Vec<Cell> = c28.cells.iter().take(6).map(|c| c.cell.clone()).collect();
        let (models, report) = hybrid.run(new_cells).unwrap();
        assert_eq!(models.len(), 6);
        assert_eq!(report.outcomes.len(), 6);
        let (identical, equivalent, simulated) = report.route_counts();
        assert_eq!(identical + equivalent + simulated, 6);
        // Identical structures exist across our synthetic technologies.
        assert!(identical > 0, "routes: {:?}", report.route_counts());
        // The hybrid clock beats the conventional clock whenever at least
        // one cell took the ML route.
        if identical + equivalent > 0 {
            assert!(report.hybrid_time_s() < report.conventional_time_s());
            assert!(report.reduction() > 0.0);
            assert!(report.ml_reduction() > 0.9);
        }
    }

    #[test]
    fn robust_hybrid_run_quarantines_bad_cells_and_continues() {
        use ca_netlist::corrupt::{corrupt_cell, Corruption};
        let corpus = quick_corpus(Technology::Soi28, 6);
        let mut hybrid = HybridFlow::new(
            &corpus,
            MlFlowParams::quick(),
            CostModel::paper_calibrated(),
            HybridOptions::default(),
        )
        .unwrap();
        let c28 = generate_library(&LibraryConfig::quick(Technology::C28));
        let mut cells: Vec<Cell> = c28.cells.iter().take(4).map(|c| c.cell.clone()).collect();
        // One structurally broken cell (caught by the lint gate) and one
        // multi-output cell (caught inside generation).
        cells[1] = corrupt_cell(&cells[1], Corruption::DanglingGate, 3).unwrap();
        // Not every cell has an internal net to promote; take the first
        // library cell that does.
        cells[2] = c28
            .cells
            .iter()
            .find_map(|lc| corrupt_cell(&lc.cell, Corruption::MultiOutput, 3).ok())
            .unwrap();
        let (models, report, quarantine) = hybrid.run_robust(cells);
        assert_eq!(models.len(), 2);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(quarantine.len(), 2);
        assert_eq!(quarantine.entries[0].phase, FailurePhase::Lint);
        assert!(quarantine.entries[0].reason.contains("floating-gate-net"));
        assert_eq!(quarantine.entries[1].phase, FailurePhase::Prepare);
        assert!(quarantine.entries[1].reason.contains("single-output"));
        // The surviving flow still works after the failures.
        let more: Vec<Cell> = c28
            .cells
            .iter()
            .skip(4)
            .take(2)
            .map(|c| c.cell.clone())
            .collect();
        let (more_models, _, more_quarantine) = hybrid.run_robust(more);
        assert_eq!(more_models.len(), 2);
        assert!(more_quarantine.is_empty());
    }

    #[test]
    fn reinforcement_without_retained_data_is_rejected_before_training() {
        let discard = MlFlowParams {
            retain_training_data: false,
            ..MlFlowParams::quick()
        };
        let cost = CostModel::paper_calibrated();
        // An empty corpus would fail training: the combination is
        // rejected first.
        let err =
            HybridFlow::new(&[], discard.clone(), cost, HybridOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::Unsupported(_)), "{err:?}");
        let corpus = quick_corpus(Technology::Soi28, 2);
        let err =
            HybridFlow::new(&corpus, discard.clone(), cost, HybridOptions::default()).unwrap_err();
        assert!(err.to_string().contains("retain_training_data"), "{err}");
        // Without reinforcement nothing needs the retained data.
        let options = HybridOptions {
            reinforce: false,
            ..HybridOptions::default()
        };
        assert!(HybridFlow::new(&corpus, discard, cost, options).is_ok());
    }

    #[test]
    fn reinforcement_creates_or_extends_groups() {
        let corpus = quick_corpus(Technology::Soi28, 4);
        let mut flow = MlFlow::train(&corpus, MlFlowParams::quick()).unwrap();
        let before = flow.group_keys().len();
        // Reinforce with a cell from a (probably) new group.
        let c28 = quick_corpus(Technology::C28, 8);
        let newcomer = c28
            .into_iter()
            .find(|p| !flow.group_keys().contains(&p.group_key()));
        if let Some(newcomer) = newcomer {
            flow.reinforce(&newcomer).unwrap();
            assert_eq!(flow.group_keys().len(), before + 1);
            assert!(flow.covers(&newcomer));
        }
    }

    #[test]
    fn subsample_keeps_positives() {
        let mut data = Dataset::new(1);
        for i in 0..100 {
            data.push_row(&[i as f32], u32::from(i % 10 == 0));
        }
        let kept = subsample_rows(&data, 30, 7);
        assert!(kept.len() <= 31);
        let positives_kept = kept.iter().filter(|&&i| data.label(i) == 1).count();
        assert_eq!(positives_kept, 10);
    }
}
