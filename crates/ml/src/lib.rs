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
//! - [`Dataset`] — the row container every classifier trains on.
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

// Workspace rules D5 and D6 (DESIGN.md §10): report through ca-obs, not
// ad-hoc stdout/stderr, and document every `unsafe` block. Every lint
// suppression states its reason.
#![cfg_attr(
    not(test),
    deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::allow_attributes_without_reason
)]

pub mod baselines;
pub mod data;
pub mod forest;
pub mod naive_bayes;
pub mod tree;
mod view;

pub use baselines::{KNearest, LinearClassifier, LinearLoss};
pub use data::Dataset;
pub use forest::{ForestParams, RandomForest};
pub use naive_bayes::GaussianNb;
pub use tree::{DecisionTree, TreeParams};

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

    /// Predicts every row of the product of two blocks of columns: row
    /// `(l, r)` is `left.row(l)` followed by `right.row(r)`, and its label
    /// lands at `r * left.len() + l`. The blocks' labels are ignored.
    ///
    /// This default predicts each concatenated row and is the definition
    /// the overrides must reproduce label for label.
    fn predict_product(&self, left: &Dataset, right: &Dataset) -> Vec<u32> {
        let mut row = Vec::with_capacity(left.num_features() + right.num_features());
        let mut labels = Vec::with_capacity(left.len() * right.len());
        for r in 0..right.len() {
            for l in 0..left.len() {
                row.clear();
                row.extend_from_slice(left.row(l));
                row.extend_from_slice(right.row(r));
                labels.push(self.predict(&row));
            }
        }
        labels
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

    #[test]
    fn product_labels_are_right_major() {
        // Labels the row by its left value when the right one is 0, by
        // its right value otherwise.
        struct Pick;
        impl Classifier for Pick {
            fn fit(&mut self, _: &Dataset) {}
            fn predict(&self, row: &[f32]) -> u32 {
                (if row[1] == 0.0 { row[0] } else { row[1] }) as u32
            }
        }
        let left = Dataset::from_parts(vec![1.0, 2.0, 3.0], vec![0; 3], 1);
        let right = Dataset::from_parts(vec![0.0, 7.0], vec![0; 2], 1);
        assert_eq!(Pick.predict_product(&left, &right), vec![1, 2, 3, 7, 7, 7]);
        assert!(Pick.predict_product(&left, &Dataset::new(1)).is_empty());
    }
}
