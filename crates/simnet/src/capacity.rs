//! Time-varying link capacities.
//!
//! A [`CapacityProcess`] answers two questions for the fluid engine:
//! what is the capacity *now* (`capacity_at`), and when does it next
//! change (`next_change`)? Stochastic processes are **pure functions of
//! (seed, time-bin)**, so evaluation is stateless, order-independent and
//! reproducible regardless of how the engine interleaves queries.

use crate::dist::SimRng;
use crate::time::SimTime;

/// A normalized 24-hour load/weight profile.
///
/// Stores one weight per hour; evaluation linearly interpolates between
/// hour marks and wraps around midnight. Used both for cellular load
/// (paper Fig 1 mobile curve) and for wired traffic (Fig 1 wired curve).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiurnalProfile {
    weights: [f64; 24],
}

impl DiurnalProfile {
    /// Build from 24 non-negative hourly weights (hour 0 = midnight).
    pub fn new(weights: [f64; 24]) -> DiurnalProfile {
        assert!(weights.iter().all(|w| *w >= 0.0), "negative diurnal weight");
        DiurnalProfile { weights }
    }

    /// A flat profile (no diurnal variation).
    pub fn flat() -> DiurnalProfile {
        DiurnalProfile { weights: [1.0; 24] }
    }

    /// The profile normalized so its peak weight is 1.
    pub fn normalized_peak(&self) -> DiurnalProfile {
        let peak = self.weights.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.0, "cannot normalize an all-zero profile");
        let mut w = self.weights;
        for v in &mut w {
            *v /= peak;
        }
        DiurnalProfile { weights: w }
    }

    /// The profile normalized so its weights sum to 1 (a distribution
    /// over hours — used when spreading a day's traffic volume).
    pub fn normalized_sum(&self) -> DiurnalProfile {
        let sum: f64 = self.weights.iter().sum();
        assert!(sum > 0.0, "cannot normalize an all-zero profile");
        let mut w = self.weights;
        for v in &mut w {
            *v /= sum;
        }
        DiurnalProfile { weights: w }
    }

    /// Interpolated weight at an hour-of-day in `[0, 24)`.
    pub fn at_hour(&self, hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        let lo = h.floor() as usize % 24;
        let hi = (lo + 1) % 24;
        let frac = h - h.floor();
        self.weights[lo] * (1.0 - frac) + self.weights[hi] * frac
    }

    /// Weight at a simulation time (wrapping multi-day times).
    pub fn at(&self, t: SimTime) -> f64 {
        self.at_hour(t.hour_of_day())
    }

    /// The hour with the largest weight.
    pub fn peak_hour(&self) -> usize {
        self.weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Raw hourly weights.
    pub fn weights(&self) -> &[f64; 24] {
        &self.weights
    }
}

/// How a link's capacity evolves over time.
// One process lives inline per link and links number in the dozens;
// boxing `Stochastic`'s diurnal table would only add an indirection to
// every `capacity_at` call on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CapacityProcess {
    /// Fixed capacity, in bits/second.
    Constant(f64),
    /// Step function: `(from_time, capacity)` change points, sorted by
    /// time. Capacity before the first point is the first point's value.
    Piecewise(Vec<(SimTime, f64)>),
    /// Stochastic piecewise-constant process: every `step_secs` the
    /// capacity is redrawn as `base × diurnal(t) × lognormal(1, rel_sd)`,
    /// clamped to `[floor, ceil]`. Models HSPA short-term rate variation
    /// on top of a diurnal load curve.
    Stochastic {
        /// Nominal capacity in bits/second.
        base: f64,
        /// Relative standard deviation of the lognormal multiplier.
        rel_sd: f64,
        /// Redraw interval, seconds.
        step_secs: f64,
        /// Diurnal modulation (use [`DiurnalProfile::flat`] for none).
        diurnal: DiurnalProfile,
        /// Lower clamp, bits/second.
        floor: f64,
        /// Upper clamp, bits/second.
        ceil: f64,
        /// Seed for the per-bin multiplier stream.
        seed: u64,
    },
}

impl CapacityProcess {
    /// Fixed capacity in bits/second.
    pub fn constant(bps: f64) -> CapacityProcess {
        assert!(bps >= 0.0 && bps.is_finite());
        CapacityProcess::Constant(bps)
    }

    /// Step-function capacity; `points` must be non-empty and sorted.
    pub fn piecewise(points: Vec<(SimTime, f64)>) -> CapacityProcess {
        assert!(!points.is_empty(), "piecewise process needs >= 1 point");
        assert!(
            points.windows(2).all(|w| w[0].0 <= w[1].0),
            "piecewise points must be sorted by time"
        );
        CapacityProcess::Piecewise(points)
    }

    /// Convenience constructor for the stochastic process.
    pub fn stochastic(
        base: f64,
        rel_sd: f64,
        step_secs: f64,
        diurnal: DiurnalProfile,
        seed: u64,
    ) -> CapacityProcess {
        assert!(base > 0.0 && step_secs > 0.0 && rel_sd >= 0.0);
        CapacityProcess::Stochastic {
            base,
            rel_sd,
            step_secs,
            diurnal,
            floor: 0.0,
            ceil: f64::INFINITY,
            seed,
        }
    }

    /// Clamp a stochastic process to `[floor, ceil]` (no-op for others).
    pub fn with_bounds(self, new_floor: f64, new_ceil: f64) -> CapacityProcess {
        match self {
            CapacityProcess::Stochastic { base, rel_sd, step_secs, diurnal, seed, .. } => {
                CapacityProcess::Stochastic {
                    base,
                    rel_sd,
                    step_secs,
                    diurnal,
                    floor: new_floor,
                    ceil: new_ceil,
                    seed,
                }
            }
            other => other,
        }
    }

    /// Capacity in bits/second at time `t`.
    pub fn capacity_at(&self, t: SimTime) -> f64 {
        match self {
            CapacityProcess::Constant(bps) => *bps,
            CapacityProcess::Piecewise(points) => {
                let idx = points.partition_point(|(pt, _)| *pt <= t);
                if idx == 0 {
                    points[0].1
                } else {
                    points[idx - 1].1
                }
            }
            CapacityProcess::Stochastic { base, rel_sd, step_secs, diurnal, floor, ceil, seed } => {
                let bin = (t.secs() / step_secs).floor() as u64;
                let mult = if *rel_sd > 0.0 {
                    let mut rng = SimRng::seed_from_u64(*seed).derive(bin);
                    rng.lognormal_mean_sd(1.0, *rel_sd)
                } else {
                    1.0
                };
                (base * diurnal.at(t) * mult).clamp(*floor, *ceil)
            }
        }
    }

    /// The next time strictly after `t` at which capacity may change, or
    /// `None` if it never changes again.
    ///
    /// The *strictly after* contract is load-bearing: the engine's
    /// capacity calendar re-arms a fired link from this method at the
    /// fire instant itself, so a return value of `t` would re-queue the
    /// same instant forever. Every process family honours it —
    /// `Constant` never changes, `Piecewise` returns the first point
    /// past `t`, `Stochastic` the next resampling boundary after `t`.
    pub fn next_change(&self, t: SimTime) -> Option<SimTime> {
        match self {
            CapacityProcess::Constant(_) => None,
            CapacityProcess::Piecewise(points) => {
                points.iter().map(|(pt, _)| *pt).find(|pt| *pt > t)
            }
            CapacityProcess::Stochastic { step_secs, .. } => {
                let bin = (t.secs() / step_secs).floor();
                Some(SimTime::from_secs((bin + 1.0) * step_secs))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_changes() {
        let p = CapacityProcess::constant(1e6);
        assert_eq!(p.capacity_at(SimTime::ZERO), 1e6);
        assert_eq!(p.capacity_at(SimTime::from_hours(100.0)), 1e6);
        assert_eq!(p.next_change(SimTime::ZERO), None);
    }

    #[test]
    fn piecewise_steps() {
        let p = CapacityProcess::piecewise(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(5.0), 20.0),
            (SimTime::from_secs(9.0), 5.0),
        ]);
        assert_eq!(p.capacity_at(SimTime::from_secs(0.0)), 10.0);
        assert_eq!(p.capacity_at(SimTime::from_secs(4.9)), 10.0);
        assert_eq!(p.capacity_at(SimTime::from_secs(5.0)), 20.0);
        assert_eq!(p.capacity_at(SimTime::from_secs(100.0)), 5.0);
        assert_eq!(p.next_change(SimTime::ZERO), Some(SimTime::from_secs(5.0)));
        assert_eq!(p.next_change(SimTime::from_secs(5.0)), Some(SimTime::from_secs(9.0)));
        assert_eq!(p.next_change(SimTime::from_secs(9.0)), None);
    }

    #[test]
    fn stochastic_is_pure_in_time() {
        let p = CapacityProcess::stochastic(1e6, 0.3, 10.0, DiurnalProfile::flat(), 42);
        let t = SimTime::from_secs(123.0);
        assert_eq!(p.capacity_at(t), p.capacity_at(t));
        // Same bin, same value.
        assert_eq!(
            p.capacity_at(SimTime::from_secs(120.1)),
            p.capacity_at(SimTime::from_secs(129.9))
        );
        // Change points land on bin boundaries.
        assert_eq!(p.next_change(t), Some(SimTime::from_secs(130.0)));
    }

    #[test]
    fn stochastic_mean_tracks_base() {
        let p = CapacityProcess::stochastic(2e6, 0.25, 1.0, DiurnalProfile::flat(), 7);
        let mean: f64 =
            (0..5000).map(|i| p.capacity_at(SimTime::from_secs(i as f64))).sum::<f64>() / 5000.0;
        assert!((mean / 2e6 - 1.0).abs() < 0.03, "mean ratio {}", mean / 2e6);
    }

    #[test]
    fn bounds_are_enforced() {
        let p = CapacityProcess::stochastic(1e6, 1.0, 1.0, DiurnalProfile::flat(), 9)
            .with_bounds(0.8e6, 1.2e6);
        for i in 0..500 {
            let c = p.capacity_at(SimTime::from_secs(i as f64));
            assert!((0.8e6..=1.2e6).contains(&c));
        }
    }

    #[test]
    fn diurnal_interpolates_and_wraps() {
        let mut w = [0.0; 24];
        w[0] = 1.0;
        w[1] = 3.0;
        w[23] = 2.0;
        let d = DiurnalProfile::new(w);
        assert_eq!(d.at_hour(0.0), 1.0);
        assert_eq!(d.at_hour(0.5), 2.0);
        // Wrap 23h -> 0h.
        assert_eq!(d.at_hour(23.5), 1.5);
        assert_eq!(d.at_hour(24.0), 1.0);
        assert_eq!(d.peak_hour(), 1);
    }

    #[test]
    fn diurnal_normalizations() {
        let mut w = [1.0; 24];
        w[12] = 4.0;
        let d = DiurnalProfile::new(w);
        let peak = d.normalized_peak();
        assert_eq!(peak.at_hour(12.0), 1.0);
        assert_eq!(peak.at_hour(0.0), 0.25);
        let sum = d.normalized_sum();
        let total: f64 = sum.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_modulates_capacity() {
        let mut w = [1.0; 24];
        w[3] = 0.5;
        let p = CapacityProcess::stochastic(1e6, 0.0, 60.0, DiurnalProfile::new(w), 1);
        assert_eq!(p.capacity_at(SimTime::from_hours(3.0)), 0.5e6);
        assert_eq!(p.capacity_at(SimTime::from_hours(12.0)), 1e6);
    }
}
