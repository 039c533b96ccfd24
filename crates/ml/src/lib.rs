//! From-scratch classifiers for cell-aware defect prediction.
//!
//! The paper implements its methodology on scikit-learn; this crate is the
//! native Rust equivalent the workspace trains and benchmarks:
//!
//! - [`RandomForest`] — the selected model (bagged CART trees,
//!   feature subsampling),
//! - [`DecisionTree`] — the forest member, usable standalone,
//! - [`KNearest`] and [`LinearClassifier`] (logistic / ridge / linear SVM)
//!   — the baselines the paper rejected after comparison (§II.B),
//! - [`Dataset`], [`metrics`] — containers and evaluation.
//!
//! Everything is deterministic given the seeds in the parameter structs.
//!
//! # Example
//!
//! ```
//! use ca_ml::{Classifier, Dataset, ForestParams, RandomForest};
//!
//! let mut data = Dataset::new(2);
//! for i in 0..100u32 {
//!     let x = (i % 10) as f32;
//!     data.push_row(&[x, 1.0], u32::from(x > 4.0));
//! }
//! let mut forest = RandomForest::new(ForestParams::quick());
//! forest.fit(&data);
//! assert_eq!(forest.predict(&[9.0, 1.0]), 1);
//! assert_eq!(forest.predict(&[1.0, 1.0]), 0);
//! ```

pub mod baselines;
pub mod data;
pub mod forest;
pub mod metrics;
pub mod naive_bayes;
pub mod tree;
pub mod validate;
mod view;

pub use baselines::{KNearest, LinearClassifier, LinearLoss};
pub use data::Dataset;
pub use forest::{ForestParams, RandomForest};
pub use naive_bayes::GaussianNb;
pub use tree::{DecisionTree, TreeParams};
pub use validate::{cross_validate, train_test_split, CrossValidation};

/// Common supervised-classifier interface.
pub trait Classifier {
    /// Trains on `data`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `data` is empty.
    fn fit(&mut self, data: &Dataset);

    /// Predicts the class of one feature row.
    ///
    /// # Panics
    ///
    /// Implementations panic when called before [`Classifier::fit`].
    fn predict(&self, row: &[f32]) -> u32;

    /// Predicts every row of `data`.
    fn predict_batch(&self, data: &Dataset) -> Vec<u32> {
        (0..data.len()).map(|i| self.predict(data.row(i))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_is_object_safe() {
        let mut data = Dataset::new(1);
        data.push_row(&[0.0], 0);
        data.push_row(&[1.0], 1);
        let mut boxed: Box<dyn Classifier> = Box::new(KNearest::new(1));
        boxed.fit(&data);
        assert_eq!(boxed.predict(&[0.9]), 1);
        assert_eq!(boxed.predict_batch(&data), vec![0, 1]);
    }
}
