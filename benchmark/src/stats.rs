//! Order statistics for the benchmark's samples.

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistics of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The first and third quartiles as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default
/// "exclusive" method), so the spreads printed here match the ones
/// computed from the same values in Python.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let len = s.len();
    if len == 1 {
        return (s[0], s[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-th percentile of sorted samples by nearest rank: the
/// smallest sample with at least `p`% of all samples at or below it.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// The highest whole percentile at or above the median that still has
/// at least ten samples beyond it, or `None` when `n` samples are too
/// few for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n - (p as usize * n).div_ceil(100) >= 10)
}

/// A timing's summary: the median, the tail percentile the sample count
/// supports, and the count itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Samples summarized.
    pub n: usize,
    /// The 50th percentile.
    pub p50: f64,
    /// `(p, value)` for the [`tail_percentile`], when there is one.
    pub tail: Option<(u32, f64)>,
}

impl Timing {
    /// Summarize samples.
    pub fn of(xs: &[f64]) -> Timing {
        let s = sorted(xs);
        let tail = tail_percentile(s.len()).map(|p| (p, percentile(&s, p)));
        Timing { n: s.len(), p50: percentile(&s, 50), tail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        assert_eq!(quartiles(&[6.0]), (6.0, 6.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(30), Some(66));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(3), None);
        for n in 20..2000 {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - (p as usize * n).div_ceil(100) >= 10, "n={n} p={p}");
            if p < 99 {
                let next = p as usize + 1;
                assert!(n - (next * n).div_ceil(100) < 10, "n={n}: p{next} also qualifies");
            }
        }
    }

    #[test]
    fn timing_reports_nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = Timing::of(&xs);
        assert_eq!(t.n, 100);
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.tail, Some((90, 90.0)));
        assert_eq!(Timing::of(&[2.0, 1.0]).tail, None);
    }
}
