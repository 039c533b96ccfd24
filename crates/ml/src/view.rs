//! The binned, deduplicated training view the tree trainer reads.
//!
//! A [`TrainView`] is built once per fit from a row-major [`Dataset`]:
//!
//! - each column keeps its sorted distinct values, and each row stores
//!   the index (*code*) of its value in that list, column-major, as a
//!   `u8` when the column has at most 256 distinct values and as a `u32`
//!   otherwise, so no column is ever approximated;
//! - rows equal on (codes, label) collapse into one *unique row* with a
//!   multiplicity, and every dataset row remembers its unique row, so a
//!   bootstrap draw of dataset row `i` becomes a count on `unique_of[i]`.
//!
//! Values are keyed by `f32 ==`, so `-0.0` and `0.0` share a code; every
//! split compares a code's value against the threshold in `f32`, exactly
//! as a comparison on the raw feature would.

use crate::data::Dataset;
#[expect(
    clippy::disallowed_types,
    reason = "D1: the dedup index is only probed, never iterated; a BTreeMap would slow every fit"
)]
use std::collections::HashMap;

/// Distinct values up to which a column's codes fit in a `u8`.
const NARROW_MAX: usize = 256;

/// Per-row codes of one column.
#[derive(Debug)]
pub(crate) enum Codes {
    /// At most [`NARROW_MAX`] distinct values.
    Narrow(Vec<u8>),
    /// More distinct values than a `u8` can index.
    Wide(Vec<u32>),
}

/// One feature column: sorted distinct values and each unique row's code.
#[derive(Debug)]
pub(crate) struct Column {
    /// Distinct values in ascending order (distinct under `f32 ==`).
    pub values: Vec<f32>,
    /// Code of each unique row, indexing `values`.
    pub codes: Codes,
}

impl Column {
    /// The feature value of unique row `row`.
    pub fn value(&self, row: usize) -> f32 {
        match &self.codes {
            Codes::Narrow(codes) => self.values[usize::from(codes[row])],
            Codes::Wide(codes) => self.values[codes[row] as usize],
        }
    }
}

/// A dataset binned per column and deduplicated on (codes, label).
#[derive(Debug)]
pub(crate) struct TrainView {
    /// Feature columns.
    pub columns: Vec<Column>,
    /// Label of each unique row.
    pub labels: Vec<u32>,
    /// Number of dataset rows each unique row stands for.
    pub multiplicity: Vec<u32>,
    /// Unique row of each dataset row.
    pub unique_of: Vec<u32>,
}

impl TrainView {
    /// Bins and deduplicates `data`.
    ///
    /// # Panics
    ///
    /// Panics if a feature value is NaN or infinite (thresholds are
    /// midpoints between values, which are only meaningful for finite
    /// ones), or if the dataset has `u32::MAX` rows or more.
    pub fn new(data: &Dataset) -> TrainView {
        let n = data.len();
        assert!(u32::try_from(n).is_ok(), "dataset too large to bin");
        let values = distinct_values(data);
        let narrow: Vec<bool> = values.iter().map(|v| v.len() <= NARROW_MAX).collect();

        // Row-major key per row: each column's code (1 byte if narrow,
        // 4 if wide), then the label.
        let key_len: usize = narrow.iter().map(|&w| if w { 1 } else { 4 }).sum::<usize>() + 4;
        let mut keys = Vec::with_capacity(n * key_len);
        for i in 0..n {
            for ((&v, column), &is_narrow) in data.row(i).iter().zip(&values).zip(&narrow) {
                let code = column.partition_point(|&x| x < v);
                if is_narrow {
                    keys.push(code as u8);
                } else {
                    keys.extend_from_slice(&(code as u32).to_le_bytes());
                }
            }
            keys.extend_from_slice(&data.label(i).to_le_bytes());
        }

        // Unique rows in order of first occurrence.
        #[expect(
            clippy::disallowed_types,
            reason = "D1: probed by key only; unique rows keep first-occurrence order"
        )]
        let mut index: HashMap<&[u8], u32> = HashMap::with_capacity(n);
        let mut first_row = Vec::new();
        let mut multiplicity: Vec<u32> = Vec::new();
        let mut unique_of = Vec::with_capacity(n);
        for (i, key) in keys.chunks_exact(key_len).enumerate() {
            let next = first_row.len() as u32;
            let u = *index.entry(key).or_insert(next);
            if u == next {
                first_row.push(i);
                multiplicity.push(0);
            }
            multiplicity[u as usize] += 1;
            unique_of.push(u);
        }

        // Gather the unique rows' codes column-major, reading each key once.
        let mut codes: Vec<Codes> = narrow
            .iter()
            .map(|&is_narrow| {
                let cap = first_row.len();
                if is_narrow {
                    Codes::Narrow(Vec::with_capacity(cap))
                } else {
                    Codes::Wide(Vec::with_capacity(cap))
                }
            })
            .collect();
        for &i in &first_row {
            let mut key = &keys[i * key_len..];
            for column in &mut codes {
                match column {
                    Codes::Narrow(c) => {
                        c.push(key[0]);
                        key = &key[1..];
                    }
                    Codes::Wide(c) => {
                        c.push(u32::from_le_bytes([key[0], key[1], key[2], key[3]]));
                        key = &key[4..];
                    }
                }
            }
        }
        let columns = values
            .into_iter()
            .zip(codes)
            .map(|(values, codes)| Column { values, codes })
            .collect();
        let labels = first_row.iter().map(|&i| data.label(i)).collect();
        TrainView {
            columns,
            labels,
            multiplicity,
            unique_of,
        }
    }

    /// Number of unique rows.
    pub fn num_unique(&self) -> usize {
        self.labels.len()
    }

    /// Largest distinct-value count of a `u8`-coded column.
    pub fn max_narrow_values(&self) -> usize {
        self.columns
            .iter()
            .filter(|c| matches!(c.codes, Codes::Narrow(_)))
            .map(|c| c.values.len())
            .max()
            .unwrap_or(0)
    }
}

/// Sorted distinct values of every column (distinct under `f32 ==`).
fn distinct_values(data: &Dataset) -> Vec<Vec<f32>> {
    // One row-major pass keeps a small sorted set per column: CA-matrix
    // columns hold a handful of codes. A column that outgrows a `u8` is
    // collected separately.
    let mut sets: Vec<Vec<f32>> = vec![Vec::new(); data.num_features()];
    let mut wide = vec![false; data.num_features()];
    for i in 0..data.len() {
        for (j, &v) in data.row(i).iter().enumerate() {
            assert!(v.is_finite(), "feature {j} of row {i} is not finite: {v}");
            if wide[j] {
                continue;
            }
            let set = &mut sets[j];
            let at = set.partition_point(|&x| x < v);
            if set.get(at) != Some(&v) {
                if set.len() == NARROW_MAX {
                    wide[j] = true;
                } else {
                    set.insert(at, v);
                }
            }
        }
    }
    for (j, set) in sets.iter_mut().enumerate().filter(|&(j, _)| wide[j]) {
        let mut all: Vec<f32> = (0..data.len()).map(|i| data.row(i)[j]).collect();
        all.sort_by(f32::total_cmp);
        all.dedup_by(|a, b| a == b);
        *set = all;
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates_on_codes_and_label() {
        let mut d = Dataset::new(2);
        d.push_row(&[1.0, 0.0], 0);
        d.push_row(&[1.0, 0.0], 1);
        d.push_row(&[1.0, 0.0], 0);
        d.push_row(&[2.0, 0.0], 0);
        let view = TrainView::new(&d);
        assert_eq!(view.num_unique(), 3);
        assert_eq!(view.unique_of, vec![0, 1, 0, 2]);
        assert_eq!(view.multiplicity, vec![2, 1, 1]);
        assert_eq!(view.labels, vec![0, 1, 0]);
        assert_eq!(view.columns[0].values, vec![1.0, 2.0]);
        assert_eq!(view.columns[0].value(2), 2.0);
    }

    #[test]
    fn signed_zeros_share_a_code() {
        let mut d = Dataset::new(1);
        d.push_row(&[-0.0], 0);
        d.push_row(&[0.0], 0);
        d.push_row(&[-1.0], 1);
        let view = TrainView::new(&d);
        assert_eq!(view.columns[0].values.len(), 2);
        assert_eq!(view.unique_of, vec![0, 0, 1]);
    }

    #[test]
    fn wide_columns_keep_every_value() {
        let mut d = Dataset::new(1);
        for i in 0..1000 {
            d.push_row(&[(i % 600) as f32 * 0.25], 0);
        }
        let view = TrainView::new(&d);
        let column = &view.columns[0];
        assert!(matches!(column.codes, Codes::Wide(_)));
        assert_eq!(column.values.len(), 600);
        assert_eq!(view.num_unique(), 600);
        for i in 0..1000 {
            assert_eq!(column.value(view.unique_of[i] as usize), d.row(i)[0]);
        }
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_non_finite_values() {
        let mut d = Dataset::new(1);
        d.push_row(&[f32::NAN], 0);
        TrainView::new(&d);
    }
}
