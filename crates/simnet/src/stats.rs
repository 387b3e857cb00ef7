//! Summary statistics used throughout the reproduction: means, standard
//! deviations, percentiles and empirical CDFs — the quantities the
//! paper's tables and figures report.

/// Basic summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Sample mean (0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub sd: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Compute the summary of `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary { n: 0, mean: 0.0, sd: 0.0, min: 0.0, max: 0.0 };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Summary { n, mean, sd: var.sqrt(), min, max }
    }
}

/// Linear-interpolation percentile (`q` in `[0, 1]`) of an unsorted sample.
///
/// Returns 0 for an empty sample. Matches the common "type 7" estimator
/// used by numpy's default.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&v, q)
}

/// Percentile of an already-sorted sample.
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// An empirical cumulative distribution function.
///
/// Built once from a sample; supports evaluation at arbitrary points and
/// extraction of evenly spaced points for figure series.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from a sample (NaNs are rejected by debug assertion).
    pub fn new(mut xs: Vec<f64>) -> Ecdf {
        debug_assert!(xs.iter().all(|x| !x.is_nan()));
        xs.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted: xs }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the `q`-quantile of the sample.
    pub fn quantile(&self, q: f64) -> f64 {
        percentile_sorted(&self.sorted, q)
    }

    /// `(x, F(x))` points at `k` evenly spaced quantiles — convenient for
    /// printing a figure series.
    pub fn series(&self, k: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || k == 0 {
            return Vec::new();
        }
        (0..=k)
            .map(|i| {
                let q = i as f64 / k as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// The fraction of the sample strictly greater than `x`.
    pub fn exceed(&self, x: f64) -> f64 {
        1.0 - self.eval(x)
    }
}

/// Histogram with fixed-width bins over `[lo, hi)`; values outside the
/// range are clamped into the edge bins. Used for the violin-plot style
/// densities of Fig 5.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo && bins > 0);
        Histogram { lo, hi, counts: vec![0; bins], total: 0 }
    }

    /// Add an observation.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        let idx = (((x - self.lo) / w).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// `(bin_center, density)` pairs normalized so densities integrate to 1.
    pub fn density(&self) -> Vec<(f64, f64)> {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        let norm = if self.total == 0 { 0.0 } else { 1.0 / (self.total as f64 * w) };
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * w, c as f64 * norm))
            .collect()
    }

    /// Total observations added.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.sd - 2.1380899).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_edge_cases() {
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.mean, 0.0);
        let one = Summary::of(&[3.0]);
        assert_eq!(one.sd, 0.0);
        assert_eq!(one.mean, 3.0);
    }

    #[test]
    fn percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ecdf_eval_and_quantile() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert!((e.exceed(2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ecdf_series_monotone() {
        let e = Ecdf::new((0..100).map(|i| (i * 7 % 31) as f64).collect());
        let s = e.series(10);
        assert_eq!(s.len(), 11);
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 20);
        for i in 0..1000 {
            h.add((i % 10) as f64 + 0.5);
        }
        let total: f64 = h.density().iter().map(|&(_, d)| d * 0.5).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(h.total(), 1000);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.total(), 2);
    }
}
