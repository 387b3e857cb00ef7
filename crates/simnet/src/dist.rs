//! Seeded random-number generation and the handful of distributions the
//! reproduction needs (normal, lognormal, exponential, Pareto, …).
//!
//! We implement the samplers here (Box–Muller for the normal family)
//! rather than pulling in `rand_distr`, keeping the dependency footprint
//! to the crates allowed for this project.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random-number generator.
///
/// Thin wrapper over [`StdRng`] so every stochastic component in the
/// workspace takes the same seedable type and substreams can be derived
/// reproducibly with [`SimRng::derive`].
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derive an independent substream keyed by `salt`.
    ///
    /// Deriving (rather than sharing one generator) keeps experiment
    /// components independent: adding a draw in one module does not
    /// perturb the sample path of another.
    pub fn derive(&self, salt: u64) -> Self {
        // SplitMix64 finalizer over (next output, salt) — cheap and well mixed.
        let mut base = self.inner.clone();
        let mut z = base.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub(crate) fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index(0) is meaningless");
        self.inner.random_range(0..n)
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal via Box–Muller (one value per call; we discard the
    /// cosine twin for simplicity — sampling is far from any hot path).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // Guard against ln(0).
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Lognormal parameterized by the *underlying* normal's `mu`/`sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Lognormal parameterized by its own mean and standard deviation
    /// (the natural way to match trace moments reported in the paper).
    pub fn lognormal_mean_sd(&mut self, mean: f64, sd: f64) -> f64 {
        let (mu, sigma) = lognormal_params(mean, sd);
        self.lognormal(mu, sigma)
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.uniform().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Pareto with scale `xm` and shape `alpha` (heavy-tailed sizes).
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        xm / u.powf(1.0 / alpha)
    }

    /// Normal truncated to `[lo, hi]` by rejection (falls back to clamping
    /// after 64 rejections to stay loop-free in pathological configs).
    pub fn truncated_normal(&mut self, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        for _ in 0..64 {
            let x = self.normal(mean, sd);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        self.normal(mean, sd).clamp(lo, hi)
    }

    /// Draw a sample from a [`Distribution`] specification.
    pub fn sample(&mut self, dist: &Distribution) -> f64 {
        match *dist {
            Distribution::Constant(v) => v,
            Distribution::Uniform { lo, hi } => self.uniform_range(lo, hi),
            Distribution::Normal { mean, sd } => self.normal(mean, sd),
            Distribution::TruncatedNormal { mean, sd, lo, hi } => {
                self.truncated_normal(mean, sd, lo, hi)
            }
            Distribution::LogNormal { mean, sd } => self.lognormal_mean_sd(mean, sd),
            Distribution::Exponential { mean } => self.exponential(mean),
            Distribution::Pareto { scale, shape } => self.pareto(scale, shape),
        }
    }
}

/// Mix a base seed with a salt into a new well-distributed seed
/// (SplitMix64 finalizer). Used to derive per-component seeds from one
/// experiment seed without constructing intermediate generators.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Convert a lognormal's (mean, sd) into the underlying normal's (mu, sigma).
pub(crate) fn lognormal_params(mean: f64, sd: f64) -> (f64, f64) {
    assert!(mean > 0.0, "lognormal mean must be positive");
    let cv2 = (sd / mean).powi(2);
    let sigma2 = (1.0 + cv2).ln();
    let mu = mean.ln() - sigma2 / 2.0;
    (mu, sigma2.sqrt())
}

/// A declarative distribution specification.
///
/// Used by trace generators and capacity processes so experiment
/// parameters can live in plain data (and be serialized alongside
/// results).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Distribution {
    /// Always the same value.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
    /// Normal with mean and standard deviation.
    Normal { mean: f64, sd: f64 },
    /// Normal truncated to `[lo, hi]`.
    TruncatedNormal { mean: f64, sd: f64, lo: f64, hi: f64 },
    /// Lognormal matching the given mean and standard deviation.
    LogNormal { mean: f64, sd: f64 },
    /// Exponential with the given mean.
    Exponential { mean: f64 },
    /// Pareto with `scale` (minimum) and tail `shape`.
    Pareto { scale: f64, shape: f64 },
}

impl Distribution {
    /// The distribution's mean, where it exists in closed form.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Constant(v) => v,
            Distribution::Uniform { lo, hi } => (lo + hi) / 2.0,
            Distribution::Normal { mean, .. } => mean,
            Distribution::TruncatedNormal { mean, .. } => mean, // approximation
            Distribution::LogNormal { mean, .. } => mean,
            Distribution::Exponential { mean } => mean,
            Distribution::Pareto { scale, shape } => {
                if shape > 1.0 {
                    shape * scale / (shape - 1.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let s = Summary::of(samples);
        (s.mean, s.sd)
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn derive_gives_independent_streams() {
        let base = SimRng::seed_from_u64(7);
        let mut s1 = base.derive(1);
        let mut s2 = base.derive(2);
        let v1: Vec<f64> = (0..8).map(|_| s1.uniform()).collect();
        let v2: Vec<f64> = (0..8).map(|_| s2.uniform()).collect();
        assert_ne!(v1, v2);
        // And deriving the same salt twice matches.
        let mut s1b = base.derive(1);
        let v1b: Vec<f64> = (0..8).map(|_| s1b.uniform()).collect();
        assert_eq!(v1, v1b);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.normal(5.0, 2.0)).collect();
        let (m, sd) = moments(&xs);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((sd - 2.0).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn lognormal_matches_target_moments() {
        let mut rng = SimRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.lognormal_mean_sd(2.5, 0.74)).collect();
        let (m, sd) = moments(&xs);
        assert!((m - 2.5).abs() < 0.02, "mean {m}");
        assert!((sd - 0.74).abs() < 0.03, "sd {sd}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.exponential(3.0)).collect();
        let (m, _) = moments(&xs);
        assert!((m - 3.0).abs() < 0.08, "mean {m}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            assert!(rng.pareto(1.5, 2.0) >= 1.5);
        }
    }

    #[test]
    fn truncated_normal_within_bounds() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = rng.truncated_normal(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn chance_probability() {
        let mut rng = SimRng::seed_from_u64(6);
        let hits = (0..20_000).filter(|_| rng.chance(0.25)).count();
        let p = hits as f64 / 20_000.0;
        assert!((p - 0.25).abs() < 0.02, "p {p}");
    }

    #[test]
    fn spec_sampling_and_means() {
        let mut rng = SimRng::seed_from_u64(8);
        let spec = Distribution::Uniform { lo: 2.0, hi: 4.0 };
        assert_eq!(spec.mean(), 3.0);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.sample(&spec)).collect();
        let (m, _) = moments(&xs);
        assert!((m - 3.0).abs() < 0.03);
        assert_eq!(Distribution::Constant(9.0).mean(), 9.0);
        assert!(Distribution::Pareto { scale: 1.0, shape: 0.5 }.mean().is_infinite());
    }
}
