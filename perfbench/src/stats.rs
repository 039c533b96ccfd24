//! Order statistics and the compare verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads printed here match the
//! ones computed from the same runs outside the benchmark.

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unordered sample (mean of the middle two for even
/// sizes). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// `(q1, median, q3)` by Python's exclusive quantile method. A single
/// value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((data[0], data[0], data[0]));
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// How many samples of a sample of `n` lie strictly beyond the nearest
/// rank of percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = (n as f64 * p / 100.0).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Percentiles a tail figure may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples strictly beyond its nearest rank in a sample of `n`; `None`
/// when even the median has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= 10)
}

/// Ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Outcome of comparing one metric between a parent and a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges a change against its parent for one metric.
///
/// - Improved: the change wins at least 9 of 10 index-paired runs (ties
///   count for neither) and the medians differ, in the better
///   direction, by more than the parent's interquartile range.
/// - Unresolved: the spread of either side (IQR over the parent median)
///   exceeds `bound`, unless every change run reads better than every
///   parent run.
/// - Regressed: the change median is worse than the parent median by
///   more than `bound` of the parent median.
/// - Unchanged otherwise.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some((p1, pm, p3)), Some((c1, cm, c3))) = (quartiles(parent), quartiles(change)) else {
        return Verdict::Unresolved;
    };
    // Map both sides so that larger is always better.
    let good = |v: f64| if lower_is_better { -v } else { v };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| good(**c) > good(**p))
        .count();
    let gain = good(cm) - good(pm);
    if pairs > 0 && wins * 10 >= pairs * 9 && gain > (p3 - p1) {
        return Verdict::Improved;
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let spread = (p3 - p1).max(c3 - c1) / scale;
    let worst_change = change
        .iter()
        .map(|&v| good(v))
        .fold(f64::INFINITY, f64::min);
    let best_parent = parent
        .iter()
        .map(|&v| good(v))
        .fold(f64::NEG_INFINITY, f64::max);
    if spread > bound && worst_change <= best_parent {
        return Verdict::Unresolved;
    }
    if -gain > bound * scale {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(median(&v), Some(5.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(median(&[4.0, 1.0, 9.0]), Some(4.0));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        // The fixed tails the workloads report: p89 of one hybrid
        // iteration's 92 cells, p99 of one serve pass's 1814 requests.
        assert_eq!(beyond(92, 89.0), 10);
        assert_eq!(beyond(92, 99.0), 0);
        assert_eq!(beyond(1814, 99.0), 18);
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn identical_sets_are_unchanged() {
        let a = runs(10.0, 0.01);
        assert_eq!(verdict(&a, &a, true, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn clear_gain_is_improved_in_either_direction() {
        let parent = runs(10.0, 0.01);
        let faster = runs(8.0, 0.01);
        assert_eq!(verdict(&parent, &faster, true, 0.05), Verdict::Improved);
        assert_eq!(verdict(&faster, &parent, false, 0.05), Verdict::Improved);
    }

    #[test]
    fn worse_beyond_bound_is_regressed() {
        let parent = runs(10.0, 0.01);
        let slower = runs(11.0, 0.01);
        assert_eq!(verdict(&parent, &slower, true, 0.05), Verdict::Regressed);
        // Within the bound it is no regression.
        let slightly = runs(10.2, 0.01);
        assert_eq!(verdict(&parent, &slightly, true, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn spread_beyond_bound_is_unresolved() {
        let parent = runs(10.0, 0.5);
        let change = runs(10.5, 0.5);
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let disjoint = runs(1.0, 0.5);
        assert_ne!(verdict(&parent, &disjoint, true, 0.05), Verdict::Unresolved);
    }

    #[test]
    fn a_win_short_of_nine_in_ten_is_not_improved() {
        let parent = runs(10.0, 0.01);
        let mut change = runs(9.0, 0.01);
        change[0] = 20.0;
        change[1] = 20.0;
        assert_ne!(verdict(&parent, &change, true, 0.5), Verdict::Improved);
    }
}
