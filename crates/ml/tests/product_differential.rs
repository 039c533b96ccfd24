//! Differential tests of `Classifier::predict_product`.
//!
//! `DecisionTree` and `RandomForest` override it with one descent per
//! tree that carries a list of left rows and a list of right rows. The
//! oracle is the trait's default, which concatenates each pair and calls
//! `predict` on it: `RowWise` below forwards only `predict`, so its
//! `predict_product` is that default. Every test compares the two on
//! every pair.

use ca_ml::{Classifier, Dataset, DecisionTree, ForestParams, RandomForest, TreeParams};
use ca_rng::{Rng, SplitMix64};

/// A classifier seen through `predict` alone.
struct RowWise<'a>(&'a dyn Classifier);

impl Classifier for RowWise<'_> {
    fn fit(&mut self, _: &Dataset) {
        unreachable!("the oracle only predicts");
    }

    fn predict(&self, row: &[f32]) -> u32 {
        self.0.predict(row)
    }
}

/// Asserts that `classifier`'s product prediction equals the row-wise
/// one on `left` × `right`, and returns the labels.
fn check(what: &str, classifier: &dyn Classifier, left: &Dataset, right: &Dataset) -> Vec<u32> {
    let expected = RowWise(classifier).predict_product(left, right);
    assert_eq!(expected.len(), left.len() * right.len(), "{what}");
    assert_eq!(
        classifier.predict_product(left, right),
        expected,
        "{what}: product prediction differs from row-wise prediction"
    );
    expected
}

/// Splits the first `rows` rows of `data` after column `at` into a left
/// and a right block (labels kept, though the product ignores them).
fn split(data: &Dataset, at: usize, rows: usize) -> (Dataset, Dataset) {
    let mut left = Dataset::new(at);
    let mut right = Dataset::new(data.num_features() - at);
    for i in 0..rows.min(data.len()) {
        let (l, r) = data.row(i).split_at(at);
        left.push_row(l, data.label(i));
        right.push_row(r, data.label(i));
    }
    (left, right)
}

fn fit_tree(data: &Dataset, params: TreeParams) -> DecisionTree {
    let mut tree = DecisionTree::new(params);
    tree.fit(data);
    tree
}

fn fit_forest(data: &Dataset, params: ForestParams) -> RandomForest {
    let mut forest = RandomForest::new(params);
    forest.fit(data);
    forest
}

/// A value of one of the column kinds the trainer handles differently:
/// CA-matrix codes, integers spanning more than 64, fractions, reals and
/// signed zeros.
fn draw(kind: usize, rng: &mut SplitMix64) -> f32 {
    match kind {
        0 => rng.gen_index(4) as f32,
        1 => (rng.gen_index(40) * 7) as f32 - 100.0,
        2 => rng.gen_index(12) as f32 * 0.37 - 1.0,
        3 => (rng.gen_f64() * 200.0 - 100.0) as f32,
        _ => [-0.0, 0.0, 1.0, -1.0, 2.0][rng.gen_index(5)],
    }
}

/// A dataset of columns of the given kinds and 2 to 4 classes, whose
/// labels are a noisy function of its first, middle and last columns.
fn random_dataset(rng: &mut SplitMix64, width: usize, kinds: &[usize]) -> Dataset {
    let classes = 2 + rng.gen_index(3);
    let mut data = Dataset::new(width);
    for _ in 0..20 + rng.gen_index(300) {
        let row: Vec<f32> = kinds.iter().map(|&k| draw(k, rng)).collect();
        let label = if rng.gen_index(8) == 0 {
            rng.gen_index(classes)
        } else {
            let s = row[0] + row[width - 1] + row[width / 2];
            s.abs() as usize % classes
        };
        data.push_row(&row, label as u32);
    }
    data
}

/// Query rows for one block: rows of the training block, so the descent
/// reaches deep leaves, and fresh draws of the same kinds.
fn random_block(rng: &mut SplitMix64, trained: &Dataset, kinds: &[usize]) -> Dataset {
    let mut block = Dataset::new(kinds.len());
    for _ in 0..rng.gen_index(25) {
        if rng.gen_index(3) == 0 {
            let row: Vec<f32> = kinds.iter().map(|&k| draw(k, rng)).collect();
            block.push_row(&row, 0);
        } else {
            block.push_row(trained.row(rng.gen_index(trained.len())), 0);
        }
    }
    block
}

#[test]
fn random_trees_and_forests_match_row_wise_prediction() {
    let mut rng = SplitMix64::new(0x0DD_B10C5);
    for case in 0..60 {
        let width = 2 + rng.gen_index(7);
        let kinds: Vec<usize> = (0..width).map(|_| rng.gen_index(5)).collect();
        let data = random_dataset(&mut rng, width, &kinds);
        // Any cut, including one that leaves a block without columns.
        let at = rng.gen_index(width + 1);
        let (trained_left, trained_right) = split(&data, at, data.len());
        let left = random_block(&mut rng, &trained_left, &kinds[..at]);
        let right = random_block(&mut rng, &trained_right, &kinds[at..]);
        let max_depth = [1, 3, 6, 20][rng.gen_index(4)];
        let max_features = [None, Some(1), Some(width)][rng.gen_index(3)];
        let seed = rng.next_u64();
        let what = format!(
            "case {case}: {} rows, cut at {at} of {width}, {}x{} pairs",
            data.len(),
            left.len(),
            right.len()
        );
        let tree = fit_tree(
            &data,
            TreeParams {
                max_depth,
                min_samples_leaf: [1, 2, 5][rng.gen_index(3)],
                max_features,
                seed,
            },
        );
        check(&format!("{what}, tree"), &tree, &left, &right);
        let forest = fit_forest(
            &data,
            ForestParams {
                num_trees: 1 + rng.gen_index(8),
                max_depth,
                max_features,
                bootstrap_fraction: [1.0, 0.5][rng.gen_index(2)],
                seed,
                ..ForestParams::quick()
            },
        );
        check(&format!("{what}, forest"), &forest, &left, &right);
    }
}

#[test]
fn an_even_vote_tie_goes_to_class_one() {
    // Labels that are pure noise: trees trained on different bootstraps
    // disagree on many rows, and an even number of trees can split them
    // evenly.
    let mut rng = SplitMix64::new(42);
    let mut data = Dataset::new(4);
    for _ in 0..400 {
        let row: Vec<f32> = (0..4).map(|_| rng.gen_index(4) as f32).collect();
        data.push_row(&row, rng.gen_index(2) as u32);
    }
    let (left, right) = split(&data, 2, 80);
    for num_trees in [2, 40] {
        let forest = fit_forest(
            &data,
            ForestParams {
                num_trees,
                ..ForestParams::quick()
            },
        );
        let labels = check(&format!("{num_trees} trees"), &forest, &left, &right);
        let mut ties = 0;
        for r in 0..right.len() {
            for l in 0..left.len() {
                let row = [left.row(l), right.row(r)].concat();
                if forest.predict_proba(&row) == [0.5, 0.5] {
                    ties += 1;
                    assert_eq!(labels[r * left.len() + l], 1, "{num_trees} trees");
                }
            }
        }
        assert!(ties > 0, "no tie among the {} pairs", labels.len());
    }
}

#[test]
fn bootstraps_that_miss_the_top_class_match() {
    // One row of class 2 among 300: about a third of the bootstraps miss
    // it, so those trees have the label space {0, 1} and the forest {0,
    // 1, 2}.
    let mut data = Dataset::new(3);
    for i in 0..300u32 {
        let label = if i == 0 { 2 } else { u32::from(i % 3 == 1) };
        data.push_row(&[(i % 4) as f32, (i % 7) as f32, (i % 5) as f32], label);
    }
    let forest = fit_forest(&data, ForestParams::quick());
    assert_eq!(forest.predict_proba(data.row(0)).len(), 3);
    // The first rows include the one of class 2.
    let (left, right) = split(&data, 1, 60);
    let labels = check("missing top class", &forest, &left, &right);
    assert!(labels.contains(&0) && labels.contains(&1));
}

#[test]
fn single_leaf_trees_label_every_pair() {
    let mut data = Dataset::new(2);
    for i in 0..20 {
        data.push_row(&[i as f32, (i % 3) as f32], 1);
    }
    let tree = fit_tree(&data, TreeParams::default());
    assert_eq!(tree.num_nodes(), 1);
    let (left, right) = split(&data, 1, 20);
    assert_eq!(check("pure tree", &tree, &left, &right), vec![1; 400]);
    // Depth 0 makes every tree a leaf even on mixed labels.
    data.push_row(&[0.0, 0.0], 0);
    let forest = fit_forest(
        &data,
        ForestParams {
            max_depth: 0,
            ..ForestParams::quick()
        },
    );
    check("depth-0 forest", &forest, &left, &right);
}

#[test]
fn a_value_equal_to_the_threshold_goes_left() {
    // Integer codes 0..=3 with the label `x > 1`: the one split is at
    // the counting threshold 1.5, on the left block's last column.
    let mut data = Dataset::new(2);
    for i in 0..40 {
        let x = (i % 4) as f32;
        data.push_row(&[(i % 3) as f32, x], u32::from(x > 1.0));
    }
    let tree = fit_tree(&data, TreeParams::default());
    assert!(format!("{tree:?}").contains("threshold: 1.5"), "{tree:?}");
    let xs = [1.0, 1.5f32.next_down(), 1.5, 1.5f32.next_up(), 2.0];
    let mut left = Dataset::new(2);
    for x in xs {
        left.push_row(&[0.0, x], 0);
    }
    let mut right = Dataset::new(0);
    right.push_row(&[], 0);
    assert_eq!(check("at 1.5", &tree, &left, &right), [0, 0, 0, 1, 1]);
}

#[test]
fn signed_zeros_compare_equal() {
    // Values -0.5 and 0.5 give the midpoint threshold 0.0, on the right
    // block's first column; -0.0 and 0.0 both go left of it.
    let mut data = Dataset::new(2);
    for i in 0..40 {
        let x = if i % 2 == 0 { -0.5 } else { 0.5 };
        data.push_row(&[(i % 5) as f32, x], u32::from(x > 0.0));
    }
    let tree = fit_tree(&data, TreeParams::default());
    assert!(format!("{tree:?}").contains("threshold: 0.0"), "{tree:?}");
    let left = Dataset::from_parts(vec![0.0, 4.0], vec![0; 2], 1);
    let right = Dataset::from_parts(vec![-0.0, 0.0, 0.5], vec![0; 3], 1);
    assert_eq!(
        check("signed zeros", &tree, &left, &right),
        [0, 0, 0, 0, 1, 1]
    );
    let forest = fit_forest(&data, ForestParams::quick());
    check("signed zeros, forest", &forest, &left, &right);
}

#[test]
fn empty_blocks_give_no_labels() {
    let mut data = Dataset::new(3);
    for i in 0..30 {
        data.push_row(&[(i % 4) as f32, (i % 3) as f32, 1.0], (i % 2) as u32);
    }
    let tree = fit_tree(&data, TreeParams::default());
    let forest = fit_forest(&data, ForestParams::quick());
    let (left, right) = split(&data, 2, 30);
    let (no_left, no_right) = (Dataset::new(2), Dataset::new(1));
    for (what, l, r) in [
        ("empty left", &no_left, &right),
        ("empty right", &left, &no_right),
        ("both empty", &no_left, &no_right),
    ] {
        assert!(check(what, &tree, l, r).is_empty());
        assert!(check(what, &forest, l, r).is_empty());
    }
}

#[test]
fn splits_on_each_blocks_edge_columns() {
    // Three columns per block; the label depends on the outer and inner
    // edge columns of both blocks (0, 2 | 3, 5), never on 1 or 4.
    let mut rng = SplitMix64::new(9);
    let mut data = Dataset::new(6);
    for _ in 0..600 {
        let row: Vec<f32> = (0..6).map(|_| rng.gen_index(4) as f32).collect();
        let votes = [0, 2, 3, 5].iter().filter(|&&c| row[c] >= 2.0).count();
        data.push_row(&row, u32::from(votes >= 2));
    }
    let tree = fit_tree(&data, TreeParams::default());
    let importance = tree.feature_importance();
    for column in [0, 2, 3, 5] {
        assert!(importance[column] > 0.0, "no split on column {column}");
    }
    let (left, right) = split(&data, 3, 80);
    check("edge columns", &tree, &left, &right);
    let forest = fit_forest(&data, ForestParams::quick());
    check("edge columns, forest", &forest, &left, &right);
}
