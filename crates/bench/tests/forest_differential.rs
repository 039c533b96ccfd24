//! Differential test of the forest trainer against a frozen reference.
//!
//! `reference` below is the row-major `f32` trainer that `ca-ml` used
//! before the binned, deduplicated one: each node made two strided passes
//! per sampled feature over a bootstrap copy of the data. It is kept here,
//! unchanged, as the oracle. Its types mirror `ca_ml::DecisionTree`,
//! `Node` and `RandomForest` field for field, so their `Debug` output has
//! the same shape. The tests compare the two `Debug` renderings, which
//! cover every field: nodes, thresholds, importances, label space and the
//! tree's RNG state. `Debug` prints an `f32`/`f64` in its shortest
//! round-trip form, so for the finite values the trainers accept, equal
//! text means equal bits.
//!
//! The new trainer runs at 1 and 4 threads, and through the default
//! executor (`CA_THREADS`), on:
//! - every SOI28 quick group dataset from `train_group_forest`;
//! - `DecisionTree::fit` with `TreeParams::default()` on the largest group;
//! - hand-built edge cases and random datasets (see `edge_cases` and
//!   `random_dataset`).

use ca_bench::corpus::{build_corpus, Profile};
use ca_core::{train_group_forest, Executor, MlFlowParams, PreparedCell};
use ca_ml::{Classifier, Dataset, DecisionTree, ForestParams, RandomForest, TreeParams};
use ca_netlist::Technology;
use ca_rng::{Rng, SplitMix64};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// The frozen row-major trainer. Do not edit: it is the definition the
/// binned trainer must reproduce.
mod reference {
    use ca_core::Executor;
    use ca_ml::{Dataset, ForestParams, TreeParams};
    use ca_rng::{Rng, SplitMix64, Xoshiro256StarStar};

    #[derive(Debug, Clone, PartialEq)]
    pub enum Node {
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

    #[derive(Debug, Clone, PartialEq)]
    pub struct DecisionTree {
        pub params: TreeParams,
        pub nodes: Vec<Node>,
        pub num_classes: usize,
        pub rng: SplitMix64,
        pub importance: Vec<f64>,
    }

    #[derive(Debug, Clone)]
    pub struct RandomForest {
        pub params: ForestParams,
        pub trees: Vec<DecisionTree>,
        pub num_classes: usize,
    }

    impl RandomForest {
        pub fn new(params: ForestParams) -> RandomForest {
            RandomForest {
                params,
                trees: Vec::new(),
                num_classes: 0,
            }
        }

        pub fn fit_with(&mut self, data: &Dataset, executor: &Executor) {
            assert!(!data.is_empty(), "cannot fit on an empty dataset");
            self.num_classes = data.num_classes().max(1);
            self.trees.clear();
            let mut rng = Xoshiro256StarStar::seed_from_u64(self.params.seed);
            let sample_size =
                ((data.len() as f64 * self.params.bootstrap_fraction).round() as usize).max(1);
            let max_features = self.params.max_features.unwrap_or_else(|| {
                let n = data.num_features();
                ((n as f64).sqrt().round() as usize).max(n / 3).clamp(1, n)
            });
            let bootstraps: Vec<Vec<usize>> = (0..self.params.num_trees)
                .map(|_| {
                    (0..sample_size)
                        .map(|_| rng.gen_index(data.len()))
                        .collect()
                })
                .collect();
            let (max_depth, min_samples_leaf, seed) = (
                self.params.max_depth,
                self.params.min_samples_leaf,
                self.params.seed,
            );
            self.trees = executor.map(&bootstraps, |t, indices| {
                let sample = data.subset(indices);
                let mut tree = DecisionTree::new(TreeParams {
                    max_depth,
                    min_samples_leaf,
                    max_features: Some(max_features),
                    seed: seed.wrapping_add(t as u64 + 1),
                });
                tree.fit(&sample);
                tree
            });
        }
    }

    impl DecisionTree {
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

        pub fn fit(&mut self, data: &Dataset) {
            assert!(!data.is_empty(), "cannot fit on an empty dataset");
            self.num_classes = data.num_classes().max(1);
            self.nodes.clear();
            self.importance = vec![0.0; data.num_features()];
            let mut indices: Vec<usize> = (0..data.len()).collect();
            self.build(data, &mut indices, 0);
            let total: f64 = self.importance.iter().sum();
            if total > 0.0 {
                for v in &mut self.importance {
                    *v /= total;
                }
            }
        }

        fn build(&mut self, data: &Dataset, indices: &mut [usize], depth: usize) -> usize {
            let counts = class_counts(data, indices, self.num_classes);
            let majority = argmax(&counts);
            let node_gini = gini(&counts, indices.len());
            let stop = depth >= self.params.max_depth
                || indices.len() < 2 * self.params.min_samples_leaf
                || node_gini == 0.0;
            if !stop {
                if let Some((feature, threshold)) = self.best_split(data, indices, &counts) {
                    // Partition indices in place.
                    let mut mid = 0;
                    for i in 0..indices.len() {
                        if data.row(indices[i])[feature] <= threshold {
                            indices.swap(i, mid);
                            mid += 1;
                        }
                    }
                    if mid >= self.params.min_samples_leaf
                        && indices.len() - mid >= self.params.min_samples_leaf
                    {
                        // Mean-decrease-in-impurity bookkeeping.
                        let left_counts = class_counts(data, &indices[..mid], self.num_classes);
                        let right_counts = class_counts(data, &indices[mid..], self.num_classes);
                        let n = indices.len() as f64;
                        let child = (mid as f64 * gini(&left_counts, mid)
                            + (indices.len() - mid) as f64
                                * gini(&right_counts, indices.len() - mid))
                            / n;
                        self.importance[feature] += n * (node_gini - child).max(0.0);
                        let id = self.nodes.len();
                        self.nodes.push(Node::Leaf { label: majority }); // placeholder
                        let (left_idx, right_idx) = indices.split_at_mut(mid);
                        let left = self.build(data, left_idx, depth + 1);
                        let right = self.build(data, right_idx, depth + 1);
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

        fn best_split(
            &mut self,
            data: &Dataset,
            indices: &[usize],
            total_counts: &[usize],
        ) -> Option<(usize, f32)> {
            let n_features = data.num_features();
            let k = self
                .params
                .max_features
                .unwrap_or(n_features)
                .min(n_features);
            let mut features: Vec<usize> = (0..n_features).collect();
            // Partial Fisher-Yates to pick k random features.
            for i in 0..k {
                let j = i + self.rng.gen_index(n_features - i);
                features.swap(i, j);
            }
            let mut best: Option<(f64, usize, f32)> = None;
            for &feature in &features[..k] {
                if let Some((threshold, score)) =
                    best_threshold(data, indices, feature, total_counts, self.num_classes)
                {
                    let improves = match best {
                        None => true,
                        Some((best_score, _, _)) => score < best_score - 1e-12,
                    };
                    if improves {
                        best = Some((score, feature, threshold));
                    }
                }
            }
            best.map(|(_, f, t)| (f, t))
        }
    }

    fn class_counts(data: &Dataset, indices: &[usize], k: usize) -> Vec<usize> {
        let mut counts = vec![0usize; k];
        for &i in indices {
            counts[data.label(i) as usize] += 1;
        }
        counts
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

    fn best_threshold(
        data: &Dataset,
        indices: &[usize],
        feature: usize,
        total_counts: &[usize],
        k: usize,
    ) -> Option<(f32, f64)> {
        // Detect a small non-negative integer domain for the counting path.
        let mut min_v = f32::INFINITY;
        let mut max_v = f32::NEG_INFINITY;
        let mut integral = true;
        for &i in indices {
            let v = data.row(i)[feature];
            min_v = min_v.min(v);
            max_v = max_v.max(v);
            if v.fract() != 0.0 {
                integral = false;
            }
        }
        if min_v >= max_v {
            return None; // constant feature
        }
        let span = (max_v - min_v) as usize;
        if integral && span <= 64 {
            counting_threshold(data, indices, feature, total_counts, k, min_v, span)
        } else {
            sorting_threshold(data, indices, feature, total_counts, k)
        }
    }

    fn counting_threshold(
        data: &Dataset,
        indices: &[usize],
        feature: usize,
        total_counts: &[usize],
        k: usize,
        min_v: f32,
        span: usize,
    ) -> Option<(f32, f64)> {
        let buckets = span + 1;
        let mut hist = vec![0usize; buckets * k];
        for &i in indices {
            let v = data.row(i)[feature];
            let b = (v - min_v) as usize;
            hist[b * k + data.label(i) as usize] += 1;
        }
        let total = indices.len();
        let mut left = vec![0usize; k];
        let mut left_total = 0usize;
        let mut best: Option<(f32, f64)> = None;
        for b in 0..span {
            for c in 0..k {
                left[c] += hist[b * k + c];
            }
            left_total += hist[b * k..b * k + k].iter().sum::<usize>();
            if left_total == 0 || left_total == total {
                continue;
            }
            let right_total = total - left_total;
            let right: Vec<usize> = (0..k).map(|c| total_counts[c] - left[c]).collect();
            let score = (left_total as f64 * gini(&left, left_total)
                + right_total as f64 * gini(&right, right_total))
                / total as f64;
            let threshold = min_v + b as f32 + 0.5;
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((threshold, score));
            }
        }
        best
    }

    fn sorting_threshold(
        data: &Dataset,
        indices: &[usize],
        feature: usize,
        total_counts: &[usize],
        k: usize,
    ) -> Option<(f32, f64)> {
        let mut pairs: Vec<(f32, u32)> = indices
            .iter()
            .map(|&i| (data.row(i)[feature], data.label(i)))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = pairs.len();
        let mut left = vec![0usize; k];
        let mut best: Option<(f32, f64)> = None;
        for w in 0..total - 1 {
            left[pairs[w].1 as usize] += 1;
            if pairs[w].0 == pairs[w + 1].0 {
                continue;
            }
            let left_total = w + 1;
            let right_total = total - left_total;
            let right: Vec<usize> = (0..k).map(|c| total_counts[c] - left[c]).collect();
            let score = (left_total as f64 * gini(&left, left_total)
                + right_total as f64 * gini(&right, right_total))
                / total as f64;
            let threshold = (pairs[w].0 + pairs[w + 1].0) / 2.0;
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((threshold, score));
            }
        }
        best
    }
}

/// Panics unless `new` and `reference` render identically, pointing at
/// the first difference and the tree it falls in.
fn assert_same(what: &str, new: &impl Debug, reference: &impl Debug) {
    let (a, b) = (format!("{new:?}"), format!("{reference:?}"));
    if a == b {
        return;
    }
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let tree = a[..at].matches("DecisionTree {").count();
    let lo = at.saturating_sub(160);
    panic!(
        "{what}: trainer diverges from the reference (tree #{tree}, byte {at})\n  \
         new: ...{}\n  ref: ...{}",
        &a[lo..(at + 80).min(a.len())],
        &b[lo..(at + 80).min(b.len())]
    );
}

/// Fits `params` on `data` with the reference and with the trainer at 1
/// and 4 threads, asserting identical forests. Returns the reference.
fn check_forest(what: &str, data: &Dataset, params: &ForestParams) -> reference::RandomForest {
    let mut expected = reference::RandomForest::new(params.clone());
    expected.fit_with(data, &Executor::from_env());
    for threads in [1, 4] {
        let mut forest = RandomForest::new(params.clone());
        forest.fit_with(data, &Executor::with_threads(threads));
        assert_same(&format!("{what}, threads={threads}"), &forest, &expected);
    }
    expected
}

/// Fits a single tree on `data` with the reference and with the trainer.
fn check_tree(what: &str, data: &Dataset, params: &TreeParams) {
    let mut expected = reference::DecisionTree::new(params.clone());
    expected.fit(data);
    let mut tree = DecisionTree::new(params.clone());
    tree.fit(data);
    assert_same(what, &tree, &expected);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the reference trainer takes minutes here unoptimized; scripts/ci.sh runs this in release"
)]
fn soi28_group_forests_match_the_reference() {
    // The training corpus of the quick hybrid flow, grouped by (inputs,
    // transistors) like `MlFlow::train` groups it.
    let corpus = build_corpus(Technology::Soi28, Profile::Quick);
    let mut groups: BTreeMap<(usize, usize), Vec<&PreparedCell>> = BTreeMap::new();
    for cell in corpus.iter() {
        groups
            .entry(cell.prepared.group_key())
            .or_default()
            .push(&cell.prepared);
    }
    assert!(groups.len() >= 8, "only {} groups", groups.len());
    let params = MlFlowParams::quick();
    let mut largest = Dataset::new(0);
    for (key, cells) in &groups {
        // The production path: `train_group_forest` on the default
        // executor, then the same dataset at 1 and 4 threads.
        let (forest, data) = train_group_forest(cells, &params).expect("group trains");
        let what = format!("group {key:?} ({} rows)", data.len());
        let expected = check_forest(&what, &data, &params.forest);
        assert_same(&what, &forest, &expected);
        if data.len() > largest.len() {
            largest = data;
        }
    }
    // The §II.B comparison fits a standalone tree with default
    // parameters (every feature at every node, depth 24).
    check_tree(
        "largest group, DecisionTree",
        &largest,
        &TreeParams::default(),
    );
}

/// Labels for a row of values: a noisy function of the first columns.
fn label_of(row: &[f32], classes: u32, rng: &mut SplitMix64) -> u32 {
    if rng.gen_index(8) == 0 {
        return rng.gen_index(classes as usize) as u32;
    }
    let s: f32 = row.iter().take(3).sum();
    (s.abs() as u32) % classes
}

/// One column kind of the random datasets.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// CA-matrix-like codes `0..=3`.
    Codes,
    /// Integers spanning more than 64: the midpoint rule applies.
    WideIntegers,
    /// Non-integral values on a coarse grid.
    Fractions,
    /// Random reals: in a pool of more than 256 rows, more distinct
    /// values than a `u8` code holds.
    Continuous,
    /// `-0.0` beside `0.0` and small signed integers.
    SignedZeros,
    /// Integers around 2^24, where `v + 0.5` rounds in `f32`.
    LargeIntegers,
    /// Adjacent `f32` values, whose midpoints round onto a neighbour.
    Adjacent,
}

const KINDS: [Kind; 7] = [
    Kind::Codes,
    Kind::WideIntegers,
    Kind::Fractions,
    Kind::Continuous,
    Kind::SignedZeros,
    Kind::LargeIntegers,
    Kind::Adjacent,
];

fn draw(kind: Kind, rng: &mut SplitMix64) -> f32 {
    match kind {
        Kind::Codes => rng.gen_index(4) as f32,
        Kind::WideIntegers => (rng.gen_index(40) * 7) as f32 - 100.0,
        Kind::Fractions => rng.gen_index(12) as f32 * 0.37 - 1.0,
        Kind::Continuous => (rng.gen_f64() * 2000.0 - 1000.0) as f32,
        Kind::SignedZeros => [-0.0, 0.0, 1.0, -1.0, 2.0][rng.gen_index(5)],
        Kind::LargeIntegers => 16_777_200.0 + rng.gen_index(40) as f32,
        Kind::Adjacent => {
            let mut v = 1.0f32;
            for _ in 0..rng.gen_index(5) {
                v = v.next_up();
            }
            v
        }
    }
}

/// A random dataset: a pool of distinct rows drawn with repeats (so rows
/// are duplicated), columns of random kinds, 2 to 4 classes.
fn random_dataset(rng: &mut SplitMix64) -> Dataset {
    let width = 2 + rng.gen_index(7);
    let kinds: Vec<Kind> = (0..width)
        .map(|_| KINDS[rng.gen_index(KINDS.len())])
        .collect();
    let classes = 2 + rng.gen_index(3) as u32;
    let pool_size = 20 + rng.gen_index(400);
    let pool: Vec<(Vec<f32>, u32)> = (0..pool_size)
        .map(|_| {
            let row: Vec<f32> = kinds.iter().map(|&k| draw(k, rng)).collect();
            let label = label_of(&row, classes, rng);
            (row, label)
        })
        .collect();
    let mut data = Dataset::new(width);
    for _ in 0..pool_size + rng.gen_index(2 * pool_size) {
        let (row, label) = &pool[rng.gen_index(pool_size)];
        data.push_row(row, *label);
    }
    data
}

fn random_params(rng: &mut SplitMix64, width: usize) -> ForestParams {
    ForestParams {
        num_trees: 1 + rng.gen_index(8),
        max_depth: [2, 3, 6, 20][rng.gen_index(4)],
        min_samples_leaf: [1, 1, 2, 5][rng.gen_index(4)],
        max_features: [None, Some(1), Some(width)][rng.gen_index(3)],
        bootstrap_fraction: [1.0, 0.5, 1.5][rng.gen_index(3)],
        seed: rng.next_u64(),
    }
}

#[test]
fn random_datasets_match_the_reference() {
    let mut rng = SplitMix64::new(0x5EED_F0E5);
    for case in 0..40 {
        let data = random_dataset(&mut rng);
        let params = random_params(&mut rng, data.num_features());
        let what = format!("random case {case} ({} rows, {params:?})", data.len());
        check_forest(&what, &data, &params);
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_leaf: params.min_samples_leaf,
            max_features: params.max_features,
            seed: params.seed,
        };
        check_tree(&what, &data, &tree_params);
    }
}

#[test]
fn wide_columns_stay_exact() {
    // 600 distinct values in one column: past what a `u8` code holds.
    let mut rng = SplitMix64::new(7);
    let mut data = Dataset::new(2);
    for i in 0..1200 {
        let v = (i % 600) as f32 * 0.01 + 0.003;
        let label = u32::from(v > 2.5) ^ u32::from(rng.gen_index(10) == 0);
        data.push_row(&[v, (i % 3) as f32], label);
    }
    check_forest("wide column", &data, &ForestParams::quick());
    check_tree("wide column", &data, &TreeParams::default());
}

#[test]
fn bootstraps_that_miss_the_top_class_match() {
    // One row of class 3 among 300: most bootstrap samples miss it, and
    // those trees see only classes 0..=2.
    let mut data = Dataset::new(2);
    for i in 0..300u32 {
        let label = if i == 0 { 3 } else { i % 3 };
        data.push_row(&[(i % 4) as f32, (i % 7) as f32], label);
    }
    let expected = check_forest("missing top class", &data, &ForestParams::quick());
    assert_eq!(expected.num_classes, 4);
    assert!(expected.trees.iter().any(|t| t.num_classes == 3));
    assert!(expected.trees.iter().any(|t| t.num_classes == 4));
}

#[test]
fn edge_cases_match_the_reference() {
    // A split the leaf size rejects after the feature draw: the lone
    // positive cannot be isolated with min_samples_leaf = 3.
    let mut data = Dataset::new(1);
    for i in 0..10 {
        data.push_row(&[i as f32], u32::from(i == 9));
    }
    let params = TreeParams {
        min_samples_leaf: 3,
        ..TreeParams::default()
    };
    check_tree("rejected split", &data, &params);

    // A midpoint that rounds onto the value above it: the only boundary
    // sends every row left, so the split is rejected.
    let a = 1.0f32.next_up();
    let b = a.next_up();
    assert_eq!((a + b) / 2.0, b);
    let mut data = Dataset::new(1);
    for i in 0..8 {
        data.push_row(&[if i % 2 == 0 { a } else { b }], i % 2);
    }
    check_tree(
        "midpoint onto the right value",
        &data,
        &TreeParams::default(),
    );

    // The same with a third value: `b` goes left with `a`.
    data.push_row(&[b.next_up().next_up()], 1);
    check_tree("midpoint with a third value", &data, &TreeParams::default());

    // Signed zeros are one value.
    let mut data = Dataset::new(2);
    for i in 0..40 {
        let z = if i % 3 == 0 { -0.0 } else { 0.0 };
        data.push_row(&[z, (i % 5) as f32 - 2.0], u32::from(i % 5 >= 3));
    }
    check_forest("signed zeros", &data, &ForestParams::quick());

    // A shallow tree.
    let params = ForestParams {
        max_depth: 1,
        ..ForestParams::quick()
    };
    check_forest("depth 1", &data, &params);
}
