//! CART decision tree with Gini impurity.
//!
//! Training reads a `TrainView` (`view.rs`): each column's sorted distinct values
//! with a `u8` code per row (`u32` past 256 values), and rows deduplicated
//! on (codes, label) with a multiplicity. A tree trains on a weighted
//! sample of the view's unique rows, where weight `w` stands for `w`
//! copies of the row, so a forest's bootstrap sample is a count per unique
//! row rather than a copy of the data.
//!
//! At each node, one weighted histogram pass per sampled feature gives the
//! per-class weight of every value present. Each boundary between two
//! consecutive present values is a candidate, and the first one with the
//! lowest weighted child Gini wins. The threshold is half a unit above the
//! lower value when the node's values are integers spanning at most 64,
//! and the midpoint of the two values otherwise. Rows go left when their
//! value is `<=` the threshold in `f32`. These rules are fixed: every tree
//! must stay identical to the reference trainer's in
//! `crates/bench/tests/forest_differential.rs` (DESIGN.md §16). Feature
//! subsampling (`max_features`) makes the tree usable as a random forest
//! member.
//!
//! `predict_product` labels the product of two blocks of columns in one
//! descent that carries an index list per block (DESIGN.md §17).

use crate::data::Dataset;
use crate::view::{Codes, Column, TrainView};
use crate::Classifier;
use ca_rng::{Rng, SplitMix64};

/// Hyperparameters of a decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf must hold.
    pub min_samples_leaf: usize,
    /// Number of features examined per split; `None` = all.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> TreeParams {
        TreeParams {
            max_depth: 24,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        label: u32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A trained CART decision tree classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    num_classes: usize,
    rng: SplitMix64,
    importance: Vec<f64>,
}

impl DecisionTree {
    /// Creates an untrained tree with the given parameters.
    pub fn new(params: TreeParams) -> DecisionTree {
        let rng = SplitMix64::new(params.seed ^ 0x9E3779B97F4A7C15);
        DecisionTree {
            params,
            nodes: Vec::new(),
            num_classes: 0,
            rng,
            importance: Vec::new(),
        }
    }

    /// Per-feature importance: total weighted Gini decrease contributed by
    /// splits on each feature, normalized to sum to 1 (all zeros before
    /// training or when the tree is a single leaf).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of nodes in the trained tree (0 before training).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the trained tree.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, left).max(rec(nodes, right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Grows the tree on a weighted sample of `view`'s unique rows: a
    /// sample of weight `w` stands for `w` copies of its row, and the tree
    /// is the one [`Classifier::fit`] grows on the dataset those copies
    /// form. The label space is the sample's own (`max label + 1`).
    pub(crate) fn fit_sample(&mut self, view: &TrainView, samples: &mut [Sample]) {
        let k = samples
            .iter()
            .map(|s| s.label as usize + 1)
            .max()
            .unwrap_or(0)
            .max(1);
        self.num_classes = k;
        self.nodes.clear();
        self.importance = vec![0.0; view.columns.len()];
        let mut counts = vec![0usize; k];
        for s in samples.iter() {
            counts[s.label as usize] += s.weight as usize;
        }
        let mut scratch = Scratch::new(view, k);
        self.grow(view, &mut scratch, samples, counts, 0);
        let total: f64 = self.importance.iter().sum();
        if total > 0.0 {
            for v in &mut self.importance {
                *v /= total;
            }
        }
    }

    /// Grows the subtree of one node holding `samples` (per-class weights
    /// `counts`) and returns its node id. Nodes are numbered in pre-order.
    fn grow(
        &mut self,
        view: &TrainView,
        scratch: &mut Scratch,
        samples: &mut [Sample],
        counts: Vec<usize>,
        depth: usize,
    ) -> usize {
        let n: usize = counts.iter().sum();
        let majority = argmax(&counts);
        let node_gini = gini(&counts, n);
        let min_leaf = self.params.min_samples_leaf;
        let stop = depth >= self.params.max_depth || n < 2 * min_leaf || node_gini == 0.0;
        if !stop {
            if let Some((feature, threshold)) = self.best_split(view, scratch, samples, &counts) {
                // Partition by the feature value itself, in `f32`: a
                // midpoint threshold can round onto the value above it,
                // and then that value goes left too.
                let column = &view.columns[feature];
                let mut left_counts = vec![0usize; counts.len()];
                let mut mid = 0;
                for i in 0..samples.len() {
                    let s = samples[i];
                    if column.value(s.row as usize) <= threshold {
                        left_counts[s.label as usize] += s.weight as usize;
                        samples.swap(i, mid);
                        mid += 1;
                    }
                }
                let left_n: usize = left_counts.iter().sum();
                let right_n = n - left_n;
                if left_n >= min_leaf && right_n >= min_leaf {
                    let right_counts: Vec<usize> = counts
                        .iter()
                        .zip(&left_counts)
                        .map(|(t, l)| t - l)
                        .collect();
                    // Mean-decrease-in-impurity bookkeeping.
                    let child = (left_n as f64 * gini(&left_counts, left_n)
                        + right_n as f64 * gini(&right_counts, right_n))
                        / n as f64;
                    self.importance[feature] += n as f64 * (node_gini - child).max(0.0);
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { label: majority }); // placeholder
                    let (left_samples, right_samples) = samples.split_at_mut(mid);
                    let left = self.grow(view, scratch, left_samples, left_counts, depth + 1);
                    let right = self.grow(view, scratch, right_samples, right_counts, depth + 1);
                    self.nodes[id] = Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    };
                    return id;
                }
            }
        }
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { label: majority });
        id
    }

    /// Finds the impurity-minimizing `(feature, threshold)` over the
    /// (sub)sampled features, or `None` when nothing improves. The feature
    /// draw happens at every node that is not a stop, even when the split
    /// it finds is later rejected by `min_samples_leaf`.
    fn best_split(
        &mut self,
        view: &TrainView,
        scratch: &mut Scratch,
        samples: &[Sample],
        counts: &[usize],
    ) -> Option<(usize, f32)> {
        let n_features = view.columns.len();
        let k = self
            .params
            .max_features
            .unwrap_or(n_features)
            .min(n_features);
        let features = &mut scratch.features;
        features.clear();
        features.extend(0..n_features);
        // Partial Fisher-Yates to pick k random features.
        for i in 0..k {
            let j = i + self.rng.gen_index(n_features - i);
            features.swap(i, j);
        }
        let mut best: Option<(f64, usize, f32)> = None;
        for i in 0..k {
            let feature = scratch.features[i];
            if let Some((threshold, score)) =
                scratch.column_split(&view.columns[feature], samples, counts)
            {
                if best.is_none_or(|(best_score, _, _)| score < best_score - 1e-12) {
                    best = Some((score, feature, threshold));
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }

    /// Sends the product of `left` and `right` (row `(l, r)` is
    /// `left.row(l)` followed by `right.row(r)`) down the subtree of node
    /// `id`, where `ls` and `rs` hold the left and right row indices that
    /// reach it. A split on a left column reorders only `ls`, and one on a
    /// right column only `rs`, by the comparison [`Classifier::predict`]
    /// makes on the concatenated row, so every pair reaches the leaf it
    /// would reach alone. Each leaf reached by a nonempty product gets
    /// `leaf(label, ls, rs)`.
    pub(crate) fn descend_product(
        &self,
        id: usize,
        left: &Dataset,
        right: &Dataset,
        ls: &mut [usize],
        rs: &mut [usize],
        leaf: &mut impl FnMut(u32, &[usize], &[usize]),
    ) {
        if ls.is_empty() || rs.is_empty() {
            return;
        }
        match self.nodes[id] {
            Node::Leaf { label } => leaf(label, ls, rs),
            Node::Split {
                feature,
                threshold,
                left: below,
                right: above,
            } => {
                let width = left.num_features();
                if feature < width {
                    let mid = partition(ls, |l| left.row(l)[feature] <= threshold);
                    let (ls_below, ls_above) = ls.split_at_mut(mid);
                    self.descend_product(below, left, right, ls_below, rs, leaf);
                    self.descend_product(above, left, right, ls_above, rs, leaf);
                } else {
                    let mid = partition(rs, |r| right.row(r)[feature - width] <= threshold);
                    let (rs_below, rs_above) = rs.split_at_mut(mid);
                    self.descend_product(below, left, right, ls, rs_below, leaf);
                    self.descend_product(above, left, right, ls, rs_above, leaf);
                }
            }
        }
    }

    fn predict_one(&self, row: &[f32]) -> u32 {
        let mut i = 0;
        loop {
            match self.nodes[i] {
                Node::Leaf { label } => return label,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

impl Classifier for DecisionTree {
    /// Trains on `data`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or holds a NaN or infinite feature.
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let view = TrainView::new(data);
        let mut samples: Vec<Sample> = (0..view.num_unique())
            .map(|u| Sample {
                row: u as u32,
                label: view.labels[u],
                weight: view.multiplicity[u],
            })
            .collect();
        self.fit_sample(&view, &mut samples);
    }

    fn predict(&self, row: &[f32]) -> u32 {
        assert!(!self.nodes.is_empty(), "predict before fit");
        self.predict_one(row)
    }

    /// One descent for the whole product (see `descend_product`); each
    /// leaf labels every pair that reaches it.
    fn predict_product(&self, left: &Dataset, right: &Dataset) -> Vec<u32> {
        assert!(!self.nodes.is_empty(), "predict before fit");
        let mut labels = vec![0; left.len() * right.len()];
        let mut ls: Vec<usize> = (0..left.len()).collect();
        let mut rs: Vec<usize> = (0..right.len()).collect();
        self.descend_product(0, left, right, &mut ls, &mut rs, &mut |label, ls, rs| {
            for &r in rs {
                for &l in ls {
                    labels[r * left.len() + l] = label;
                }
            }
        });
        labels
    }
}

/// Moves the indices `goes_left` accepts to the front of `idx` and
/// returns how many there are.
fn partition(idx: &mut [usize], goes_left: impl Fn(usize) -> bool) -> usize {
    let mut mid = 0;
    for i in 0..idx.len() {
        if goes_left(idx[i]) {
            idx.swap(i, mid);
            mid += 1;
        }
    }
    mid
}

/// A unique row of a [`TrainView`] in a tree's sample, with the number of
/// copies the sample holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sample {
    /// Unique row index in the view.
    pub row: u32,
    /// Its label.
    pub label: u32,
    /// Copies of it in the sample (at least 1).
    pub weight: u32,
}

/// Partial histograms of a `u8`-coded column's pass, filled round robin.
/// A CA-matrix column holds a few values of two classes, so consecutive
/// samples mostly hit the same few bins, and each `+=` into one histogram
/// would wait for the store of the one before. `column_split` unrolls
/// the pass by this count.
const PARTIALS: usize = 4;

/// Per-tree buffers reused across nodes.
struct Scratch {
    /// Feature indices, permuted by the per-node draw.
    features: Vec<usize>,
    /// [`PARTIALS`] histograms of per-(code, class) weight of a
    /// `u8`-coded column in one node. A node's weight is at most its
    /// tree's sample size, which fits in a `u32`.
    hist: Vec<u32>,
    /// `(code, label, weight)` of a `u32`-coded column in one node.
    runs: Vec<(u32, u32, u32)>,
    /// Per-class weight of one code present in a node.
    run_counts: Vec<usize>,
    /// Per-class weight left and right of a candidate threshold.
    left: Vec<usize>,
    right: Vec<usize>,
}

impl Scratch {
    fn new(view: &TrainView, k: usize) -> Scratch {
        Scratch {
            features: Vec::with_capacity(view.columns.len()),
            hist: vec![0; PARTIALS * view.max_narrow_values() * k],
            runs: Vec::new(),
            run_counts: vec![0; k],
            left: vec![0; k],
            right: vec![0; k],
        }
    }

    /// Scans the thresholds of one column in one node, returning the best
    /// `(threshold, weighted child Gini)`, or `None` when the column is
    /// constant there. One weighted histogram pass collects the per-class
    /// weight of every code present in the node.
    fn column_split(
        &mut self,
        column: &Column,
        samples: &[Sample],
        total_counts: &[usize],
    ) -> Option<(f32, f64)> {
        let k = total_counts.len();
        let mut scan = Scan::new(column, total_counts, &mut self.left, &mut self.right);
        match &column.codes {
            Codes::Narrow(codes) => {
                let width = column.values.len() * k;
                let hist = &mut self.hist[..PARTIALS * width];
                // Sample `i` goes into partial histogram `i % 4`.
                let (h01, h23) = hist.split_at_mut(2 * width);
                let (h0, h1) = h01.split_at_mut(width);
                let (h2, h3) = h23.split_at_mut(width);
                let bin_of = |s: &Sample| usize::from(codes[s.row as usize]) * k + s.label as usize;
                let mut chunks = samples.chunks_exact(PARTIALS);
                for c in &mut chunks {
                    h0[bin_of(&c[0])] += c[0].weight;
                    h1[bin_of(&c[1])] += c[1].weight;
                    h2[bin_of(&c[2])] += c[2].weight;
                    h3[bin_of(&c[3])] += c[3].weight;
                }
                for (h, s) in [h0, h1, h2].into_iter().zip(chunks.remainder()) {
                    h[bin_of(s)] += s.weight;
                }
                for code in 0..column.values.len() {
                    for (label, count) in self.run_counts.iter_mut().enumerate() {
                        let bin = code * k + label;
                        *count = (0..PARTIALS).map(|p| hist[p * width + bin] as usize).sum();
                    }
                    if self.run_counts.iter().any(|&c| c > 0) {
                        scan.push(code, &self.run_counts);
                    }
                }
                hist.fill(0);
            }
            Codes::Wide(codes) => {
                // Too many codes for a dense histogram: sort the node's
                // codes instead.
                self.runs.clear();
                self.runs.extend(
                    samples
                        .iter()
                        .map(|s| (codes[s.row as usize], s.label, s.weight)),
                );
                self.runs.sort_unstable_by_key(|r| r.0);
                for run in self.runs.chunk_by(|a, b| a.0 == b.0) {
                    self.run_counts.fill(0);
                    for &(_, label, weight) in run {
                        self.run_counts[label as usize] += weight as usize;
                    }
                    scan.push(run[0].0 as usize, &self.run_counts);
                }
            }
        }
        scan.finish()
    }
}

/// Threshold search over the codes of one column present in a node, fed
/// in ascending order with each code's per-class weight.
///
/// Every boundary between two consecutive present values is a candidate;
/// the first one with the lowest weighted child Gini wins. Its threshold
/// follows the value domain of the node: when every present value is an
/// integer and they span at most 64, it is the lower value plus one half
/// (the counting rule); otherwise it is the midpoint of the two values.
struct Scan<'a> {
    values: &'a [f32],
    total_counts: &'a [usize],
    total: usize,
    left: &'a mut [usize],
    right: &'a mut [usize],
    left_total: usize,
    first: usize,
    prev: Option<usize>,
    integral: bool,
    /// `(score, code below, code above)` of the best boundary so far.
    best: Option<(f64, usize, usize)>,
}

impl<'a> Scan<'a> {
    fn new(
        column: &'a Column,
        total_counts: &'a [usize],
        left: &'a mut [usize],
        right: &'a mut [usize],
    ) -> Scan<'a> {
        left.fill(0);
        Scan {
            values: &column.values,
            total_counts,
            total: total_counts.iter().sum(),
            left,
            right,
            left_total: 0,
            first: 0,
            prev: None,
            integral: true,
            best: None,
        }
    }

    fn push(&mut self, code: usize, counts: &[usize]) {
        match self.prev {
            None => self.first = code,
            Some(below) => {
                let left_total = self.left_total;
                let right_total = self.total - left_total;
                for ((r, &t), &l) in self
                    .right
                    .iter_mut()
                    .zip(self.total_counts)
                    .zip(&*self.left)
                {
                    *r = t - l;
                }
                let score = (left_total as f64 * gini(self.left, left_total)
                    + right_total as f64 * gini(self.right, right_total))
                    / self.total as f64;
                if self.best.is_none_or(|(s, _, _)| score < s) {
                    self.best = Some((score, below, code));
                }
            }
        }
        for (l, &c) in self.left.iter_mut().zip(counts) {
            *l += c;
        }
        self.left_total += counts.iter().sum::<usize>();
        self.integral &= self.values[code].fract() == 0.0;
        self.prev = Some(code);
    }

    fn finish(self) -> Option<(f32, f64)> {
        let (score, below, above) = self.best?;
        let min_v = self.values[self.first];
        let max_v = self.values[self.prev?];
        let v = self.values[below];
        let threshold = if self.integral && (max_v - min_v) as usize <= 64 {
            let b = (v - min_v) as usize;
            min_v + b as f32 + 0.5
        } else {
            (v + self.values[above]) / 2.0
        };
        Some((threshold, score))
    }
}

fn argmax(counts: &[usize]) -> u32 {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i as u32)
        .unwrap_or(0)
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..10 {
            d.push_row(&[0.0, 0.0], 0);
            d.push_row(&[0.0, 1.0], 1);
            d.push_row(&[1.0, 0.0], 1);
            d.push_row(&[1.0, 1.0], 0);
        }
        d
    }

    #[test]
    fn learns_xor_exactly() {
        let mut tree = DecisionTree::new(TreeParams::default());
        let data = xor_data();
        tree.fit(&data);
        for i in 0..data.len() {
            assert_eq!(tree.predict(data.row(i)), data.label(i));
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let mut d = Dataset::new(1);
        d.push_row(&[0.0], 1);
        d.push_row(&[5.0], 1);
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[3.0]), 1);
    }

    #[test]
    fn depth_limit_respected() {
        let mut tree = DecisionTree::new(TreeParams {
            max_depth: 1,
            ..TreeParams::default()
        });
        tree.fit(&xor_data());
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], u32::from(i == 9));
        }
        let mut tree = DecisionTree::new(TreeParams {
            min_samples_leaf: 3,
            ..TreeParams::default()
        });
        tree.fit(&d);
        // The lone positive cannot be isolated in a leaf of 1 sample.
        // (It sits in a leaf of >= 3 samples, predicted as majority 0.)
        assert_eq!(tree.predict(&[9.0]), 0);
    }

    #[test]
    fn continuous_features_use_sorting_path() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            let v = i as f32 * 0.37;
            d.push_row(&[v], u32::from(v > 3.0));
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        assert_eq!(tree.predict(&[0.1]), 0);
        assert_eq!(tree.predict(&[6.9]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = xor_data();
        let mut a = DecisionTree::new(TreeParams {
            max_features: Some(1),
            seed: 7,
            ..TreeParams::default()
        });
        let mut b = DecisionTree::new(TreeParams {
            max_features: Some(1),
            seed: 7,
            ..TreeParams::default()
        });
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn importance_points_at_informative_feature() {
        // Feature 1 decides the label; feature 0 is constant noise.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            d.push_row(&[1.0, (i % 2) as f32], (i % 2) as u32);
        }
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&d);
        let imp = tree.feature_importance();
        assert!(imp[1] > 0.99, "{imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot fit on an empty dataset")]
    fn empty_fit_panics() {
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit(&Dataset::new(2));
    }
}
