//! Random Forest classifier: bagged CART trees with feature subsampling.
//!
//! This is the classifier the paper selects after comparing k-NN, SVM,
//! linear and ridge models (§II.B).
//!
//! A fit bins and deduplicates the dataset once (see `view.rs`), then
//! draws every tree's bootstrap sample from one master stream, tree by
//! tree, as a count per unique row. Only the tree fits run in parallel,
//! and each reads the shared view through its own counts, so no tree
//! copies the data. All randomness derives from [`ForestParams::seed`],
//! and the forest is bit-identical at every thread count.
//!
//! `predict_product` descends each tree once for a whole product of two
//! blocks of columns and counts integer votes per pair (DESIGN.md §17).

use crate::data::Dataset;
use crate::tree::{DecisionTree, Sample, TreeParams};
use crate::view::TrainView;
use crate::Classifier;
use ca_rng::{Rng, Xoshiro256StarStar};

/// Hyperparameters of a random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub num_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features examined per split; `None` = `max(round(sqrt(n)), n / 3)`
    /// for `n` features, clamped to `1..=n`.
    pub max_features: Option<usize>,
    /// Bootstrap sample size as a fraction of the training set.
    pub bootstrap_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> ForestParams {
        ForestParams {
            num_trees: 100,
            max_depth: 24,
            min_samples_leaf: 1,
            max_features: None,
            bootstrap_fraction: 1.0,
            seed: 0,
        }
    }
}

impl ForestParams {
    /// A smaller, faster configuration for tests and quick sweeps.
    pub fn quick() -> ForestParams {
        ForestParams {
            num_trees: 40,
            max_depth: 20,
            ..ForestParams::default()
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: ForestParams,
    trees: Vec<DecisionTree>,
    num_classes: usize,
}

impl RandomForest {
    /// Creates an untrained forest.
    pub fn new(params: ForestParams) -> RandomForest {
        RandomForest {
            params,
            trees: Vec::new(),
            num_classes: 0,
        }
    }

    /// Number of trained trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean per-feature importance across trees (normalized to sum to 1,
    /// empty before training).
    pub fn feature_importance(&self) -> Vec<f64> {
        if self.trees.is_empty() {
            return Vec::new();
        }
        let n = self.trees[0].feature_importance().len();
        let mut sum = vec![0.0f64; n];
        for tree in &self.trees {
            for (s, &v) in sum.iter_mut().zip(tree.feature_importance()) {
                *s += v;
            }
        }
        let total: f64 = sum.iter().sum();
        if total > 0.0 {
            for v in &mut sum {
                *v /= total;
            }
        }
        sum
    }

    /// Per-class vote fractions for `row` (sums to 1).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Classifier::fit`].
    pub fn predict_proba(&self, row: &[f32]) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "predict before fit");
        ca_obs::counter!("ca_ml.predict.rows").inc();
        let mut votes = vec![0usize; self.num_classes.max(1)];
        for tree in &self.trees {
            let label = tree.predict(row) as usize;
            if label < votes.len() {
                votes[label] += 1;
            }
        }
        let total = self.trees.len() as f64;
        votes.iter().map(|&v| v as f64 / total).collect()
    }
}

impl RandomForest {
    /// [`Classifier::fit`] on an explicit executor. The trained forest is
    /// bit-identical at every thread count: bootstrap sampling stays on
    /// the single sequential master stream, and each tree's fit depends
    /// only on its own sample and per-tree seed.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or holds a NaN or infinite feature.
    pub fn fit_with(&mut self, data: &Dataset, executor: &ca_exec::Executor) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let _span = ca_obs::span!("ca_ml.forest.fit");
        self.num_classes = data.num_classes().max(1);
        self.trees.clear();
        let view = TrainView::new(data);
        // How much the deduplication saves: a tree's work scales with the
        // unique rows its sample hits, not with the rows drawn.
        ca_obs::counter!("ca_ml.forest.rows").add(data.len() as u64);
        ca_obs::counter!("ca_ml.forest.unique_rows").add(view.num_unique() as u64);
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.params.seed);
        let sample_size =
            ((data.len() as f64 * self.params.bootstrap_fraction).round() as usize).max(1);
        assert!(
            u32::try_from(sample_size).is_ok(),
            "bootstrap sample too large"
        );
        let max_features = self.params.max_features.unwrap_or_else(|| {
            // sqrt(n) is the classic forest default but starves trees when
            // only a handful of columns are informative (as in CA-matrix
            // groups with many all-zero defect flags); n/3 is a better
            // floor for those.
            let n = data.num_features();
            ((n as f64).sqrt().round() as usize).max(n / 3).clamp(1, n)
        });
        // Bootstrap draws come from the single master stream, tree after
        // tree, so the forest is the same at every thread count and equal
        // to the reference trainer's (DESIGN.md §16). Each drawn row lands
        // as a count on its unique row.
        let bootstraps: Vec<Vec<u32>> = (0..self.params.num_trees)
            .map(|_| {
                let mut counts = vec![0u32; view.num_unique()];
                for _ in 0..sample_size {
                    counts[view.unique_of[rng.gen_index(data.len())] as usize] += 1;
                }
                counts
            })
            .collect();
        let (max_depth, min_samples_leaf, seed) = (
            self.params.max_depth,
            self.params.min_samples_leaf,
            self.params.seed,
        );
        self.trees = executor.map(&bootstraps, |t, counts| {
            // Per-tree fit time is a wall-clock observation (excluded
            // from determinism checks); the tree count is `work`.
            let _tree_span = ca_obs::span!("ca_ml.forest.fit_tree");
            ca_obs::counter!("ca_ml.forest.trees_fitted").inc();
            let mut sample: Vec<Sample> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &weight)| weight > 0)
                .map(|(u, &weight)| Sample {
                    row: u as u32,
                    label: view.labels[u],
                    weight,
                })
                .collect();
            let mut tree = DecisionTree::new(TreeParams {
                max_depth,
                min_samples_leaf,
                max_features: Some(max_features),
                seed: seed.wrapping_add(t as u64 + 1),
            });
            // A bootstrap sample can miss classes entirely; the tree's
            // label space is its own sample's.
            tree.fit_sample(&view, &mut sample);
            tree
        });
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        self.fit_with(data, &ca_exec::Executor::from_env());
    }

    fn predict(&self, row: &[f32]) -> u32 {
        let proba = self.predict_proba(row);
        proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Sends the whole product down each tree once (see
    /// `DecisionTree::descend_product`) and counts every pair's votes as
    /// integers. Vote fractions share one denominator, so the class with
    /// the most votes, the last one on a tie, is the class
    /// [`Classifier::predict`] picks; a label outside the forest's label
    /// space gets no vote, as in [`RandomForest::predict_proba`].
    fn predict_product(&self, left: &Dataset, right: &Dataset) -> Vec<u32> {
        assert!(!self.trees.is_empty(), "predict before fit");
        let pairs = left.len() * right.len();
        ca_obs::counter!("ca_ml.predict.rows").add(pairs as u64);
        let k = self.num_classes.max(1);
        // Votes of pair `p` for class `c` at `p * k + c`.
        let mut votes = vec![0u32; pairs * k];
        let mut ls: Vec<usize> = (0..left.len()).collect();
        let mut rs: Vec<usize> = (0..right.len()).collect();
        for tree in &self.trees {
            tree.descend_product(0, left, right, &mut ls, &mut rs, &mut |label, ls, rs| {
                let label = label as usize;
                if label >= k {
                    return;
                }
                for &r in rs {
                    for &l in ls {
                        votes[(r * left.len() + l) * k + label] += 1;
                    }
                }
            });
        }
        votes
            .chunks_exact(k)
            .map(|votes| {
                let mut best = 0;
                for (class, &v) in votes.iter().enumerate() {
                    if v >= votes[best] {
                        best = class;
                    }
                }
                best as u32
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_bands() -> Dataset {
        // label = 1 iff feature0 >= 5, with a second noisy feature.
        let mut d = Dataset::new(2);
        for i in 0..200 {
            let x = (i % 10) as f32;
            let noise = ((i * 37) % 7) as f32;
            d.push_row(&[x, noise], u32::from(x >= 5.0));
        }
        d
    }

    #[test]
    fn learns_simple_band() {
        let mut forest = RandomForest::new(ForestParams::quick());
        let data = noisy_bands();
        forest.fit(&data);
        let correct = (0..data.len())
            .filter(|&i| forest.predict(data.row(i)) == data.label(i))
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.98);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = noisy_bands();
        let mut a = RandomForest::new(ForestParams::quick());
        let mut b = RandomForest::new(ForestParams::quick());
        a.fit(&data);
        b.fit(&data);
        for i in 0..data.len() {
            assert_eq!(a.predict(data.row(i)), b.predict(data.row(i)));
        }
    }

    #[test]
    fn proba_sums_to_one() {
        let mut forest = RandomForest::new(ForestParams::quick());
        let data = noisy_bands();
        forest.fit(&data);
        let p = forest.predict_proba(data.row(0));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_majority_baseline_on_balanced_data() {
        let data = noisy_bands();
        let mut forest = RandomForest::new(ForestParams::quick());
        forest.fit(&data);
        let majority = data.majority_label().unwrap();
        let baseline =
            data.labels().iter().filter(|&&l| l == majority).count() as f64 / data.len() as f64;
        let accuracy = (0..data.len())
            .filter(|&i| forest.predict(data.row(i)) == data.label(i))
            .count() as f64
            / data.len() as f64;
        assert!(accuracy > baseline);
    }

    #[test]
    fn forest_importance_is_normalized_and_informative() {
        let data = noisy_bands();
        let mut forest = RandomForest::new(ForestParams::quick());
        forest.fit(&data);
        let imp = forest.feature_importance();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "label depends on feature 0: {imp:?}");
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        let data = noisy_bands();
        let mut serial = RandomForest::new(ForestParams::quick());
        serial.fit_with(&data, &ca_exec::Executor::with_threads(1));
        let mut parallel = RandomForest::new(ForestParams::quick());
        parallel.fit_with(&data, &ca_exec::Executor::with_threads(8));
        assert_eq!(serial.num_trees(), parallel.num_trees());
        assert_eq!(serial.feature_importance(), parallel.feature_importance());
        for i in 0..data.len() {
            assert_eq!(
                serial.predict_proba(data.row(i)),
                parallel.predict_proba(data.row(i)),
                "row {i}"
            );
        }
    }

    #[test]
    fn trains_requested_tree_count() {
        let mut forest = RandomForest::new(ForestParams {
            num_trees: 7,
            ..ForestParams::quick()
        });
        forest.fit(&noisy_bands());
        assert_eq!(forest.num_trees(), 7);
    }
}
