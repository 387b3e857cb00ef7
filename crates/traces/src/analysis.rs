//! The trace-driven analyses of §6, feeding Figs 11a–c.
//!
//! All three take the synthetic DSLAM/MNO traces and a simple fluid
//! transfer model: a video of `size` bytes downloads over ADSL at
//! `adsl_bps` assisted by an aggregate 3G bandwidth `g3_bps`; the
//! onloaded share is throttled by the remaining daily 3GOL budget.

use crate::diurnal::{mobile_diurnal_load, wired_diurnal_load};
use crate::dslam::DslamTrace;

/// Transfer-model parameters for the budgeted analyses.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BudgetModel {
    /// Subscriber ADSL downlink, bits/s (paper: 3 Mbit/s).
    pub adsl_bps: f64,
    /// Aggregate 3G bandwidth of the household's devices, bits/s
    /// (paper: two HSPA+ devices, ~2.35 Mbit/s each).
    pub g3_bps: f64,
    /// Daily 3GOL budget for the household, bytes (paper: 2 × 20 MB).
    pub daily_budget_bytes: f64,
}

impl BudgetModel {
    /// The paper's Fig 11 configuration: 3 Mbit/s ADSL, two HSPA+
    /// devices, 40 MB/day.
    pub fn paper() -> BudgetModel {
        BudgetModel { adsl_bps: 3e6, g3_bps: 2.0 * 2.35e6, daily_budget_bytes: 40e6 }
    }

    /// Bytes onloaded for one video of `size_bytes` given the remaining
    /// budget: the parallel-optimal 3G share, truncated by the budget.
    pub fn onload_bytes(&self, size_bytes: f64, budget_remaining: f64) -> f64 {
        let share = self.g3_bps / (self.g3_bps + self.adsl_bps);
        (size_bytes * share).min(budget_remaining).max(0.0)
    }

    /// Download latency of one video when `onloaded` bytes go over 3G
    /// and the rest over ADSL, both in parallel.
    pub fn latency_secs(&self, size_bytes: f64, onloaded: f64) -> f64 {
        let adsl_part = (size_bytes - onloaded).max(0.0) * 8.0 / self.adsl_bps;
        let g3_part = if onloaded > 0.0 { onloaded * 8.0 / self.g3_bps } else { 0.0 };
        adsl_part.max(g3_part)
    }

    /// DSL-only latency of one video.
    pub fn dsl_latency_secs(&self, size_bytes: f64) -> f64 {
        size_bytes * 8.0 / self.adsl_bps
    }
}

/// Fig 11a: per-user speedup `DSL latency / 3GOL latency` over the
/// day's videos, with the daily budget applied in request order.
/// Returns one ratio per video user.
pub fn budgeted_speedup_per_user(trace: &DslamTrace, model: &BudgetModel) -> Vec<f64> {
    let mut ratios = Vec::new();
    for (_, requests) in trace.by_user() {
        let mut budget = model.daily_budget_bytes;
        let mut dsl_total = 0.0;
        let mut gol_total = 0.0;
        for r in &requests {
            dsl_total += model.dsl_latency_secs(r.size_bytes);
            let o = model.onload_bytes(r.size_bytes, budget);
            budget -= o;
            gol_total += model.latency_secs(r.size_bytes, o);
        }
        if gol_total > 0.0 {
            ratios.push(dsl_total / gol_total);
        }
    }
    ratios
}

/// Result of the Fig 11b load computation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLoad {
    /// Onloaded traffic per 5-minute bin, bits/s, under the daily budget.
    pub capped_bps: Vec<f64>,
    /// Onloaded traffic per 5-minute bin, bits/s, with no budget.
    pub uncapped_bps: Vec<f64>,
    /// The covering cellular backhaul capacity, bits/s (paper: two
    /// towers × 40 Mbit/s).
    pub backhaul_bps: f64,
    /// Mean onloaded volume per video user per day under caps, bytes
    /// (the paper reports 29.78 MB).
    pub mean_onloaded_per_user_bytes: f64,
}

/// Minimum video size worth accelerating (paper: > 750 KB, "more than
/// 2 seconds on DSL").
pub(crate) const MIN_BOOST_BYTES: f64 = 750e3;

/// Fig 11b: traffic onloaded onto the cellular network in 5-minute
/// bins. Capped mode accelerates each user's qualifying videos until
/// the daily budget runs out; uncapped mode accelerates everything.
pub fn cell_load(trace: &DslamTrace, model: &BudgetModel, backhaul_bps: f64) -> CellLoad {
    let mut capped = vec![0.0_f64; 288];
    let mut uncapped = vec![0.0_f64; 288];
    let mut onloaded_total = 0.0;
    let mut users = 0usize;
    for (_, requests) in trace.by_user() {
        users += 1;
        let mut budget = model.daily_budget_bytes;
        for r in &requests {
            if r.size_bytes < MIN_BOOST_BYTES {
                continue;
            }
            let bin = ((r.time_secs / 300.0).floor() as usize).min(287);
            let unlimited = model.onload_bytes(r.size_bytes, f64::INFINITY);
            uncapped[bin] += unlimited;
            let o = model.onload_bytes(r.size_bytes, budget);
            budget -= o;
            capped[bin] += o;
            onloaded_total += o;
        }
    }
    // bytes per 300 s bin → bits/s
    let to_bps = |v: Vec<f64>| v.into_iter().map(|b| b * 8.0 / 300.0).collect();
    CellLoad {
        capped_bps: to_bps(capped),
        uncapped_bps: to_bps(uncapped),
        backhaul_bps,
        mean_onloaded_per_user_bytes: onloaded_total / users.max(1) as f64,
    }
}

/// One point of the Fig 11c adoption analysis.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AdoptionPoint {
    /// Fraction of 3G subscribers adopting 3GOL.
    pub adoption: f64,
    /// Relative increase of total daily 3G traffic.
    pub total_increase: f64,
    /// Relative increase of 3G traffic during the mobile peak hour.
    pub peak_increase: f64,
}

/// Fig 11c: relative 3G traffic increase as a function of adoption.
///
/// `mean_daily_used_bytes` is the average existing 3G usage per
/// subscriber per day (from the MNO trace); each adopter adds
/// `daily_budget_bytes` of 3GOL traffic, shaped like the *wired*
/// diurnal profile, while existing traffic follows the mobile profile.
pub fn adoption_increase(
    mean_daily_used_bytes: f64,
    daily_budget_bytes: f64,
    fractions: &[f64],
) -> Vec<AdoptionPoint> {
    assert!(mean_daily_used_bytes > 0.0);
    let mobile = mobile_diurnal_load().normalized_sum();
    let wired = wired_diurnal_load().normalized_sum();
    let peak_hour = mobile_diurnal_load().peak_hour();
    let mobile_peak_share = mobile.weights()[peak_hour];
    let wired_at_peak_share = wired.weights()[peak_hour];
    fractions
        .iter()
        .map(|&f| {
            let total = f * daily_budget_bytes / mean_daily_used_bytes;
            let peak = f * daily_budget_bytes * wired_at_peak_share
                / (mean_daily_used_bytes * mobile_peak_share);
            AdoptionPoint { adoption: f, total_increase: total, peak_increase: peak }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dslam::DslamTraceConfig;
    use threegol_simnet::stats::Ecdf;

    fn trace() -> DslamTrace {
        DslamTrace::generate(DslamTraceConfig { n_users: 3000, ..DslamTraceConfig::default() })
    }

    #[test]
    fn onload_respects_budget_and_share() {
        let m = BudgetModel::paper();
        let share = m.g3_bps / (m.g3_bps + m.adsl_bps);
        assert!((m.onload_bytes(10e6, f64::INFINITY) - 10e6 * share).abs() < 1.0);
        assert_eq!(m.onload_bytes(100e6, 5e6), 5e6);
        assert_eq!(m.onload_bytes(100e6, 0.0), 0.0);
    }

    #[test]
    fn latency_improves_with_onloading() {
        let m = BudgetModel::paper();
        let size = 50e6;
        let dsl = m.dsl_latency_secs(size);
        let o = m.onload_bytes(size, f64::INFINITY);
        let gol = m.latency_secs(size, o);
        // Optimal split: latency ratio equals capacity ratio.
        let expect = dsl / (1.0 + m.g3_bps / m.adsl_bps);
        assert!((gol - expect).abs() / expect < 1e-9);
        assert!(gol < dsl);
    }

    #[test]
    fn fig11a_speedups_match_paper_shape() {
        let ratios = budgeted_speedup_per_user(&trace(), &BudgetModel::paper());
        let ecdf = Ecdf::new(ratios);
        // "50% of the users can see at least 20% speedup."
        let at_least_20 = ecdf.exceed(1.2);
        assert!(at_least_20 >= 0.40, "P(speedup >= 1.2) = {at_least_20}");
        // "5% of the users can see a speedup of 2" (roughly).
        let at_least_2 = ecdf.exceed(2.0);
        assert!(at_least_2 > 0.005 && at_least_2 < 0.30, "P(>=2.0) = {at_least_2}");
        // Ratios are >= 1 (3GOL never slower) and bounded by the
        // capacity ratio 1 + g3/adsl ≈ 2.57 (Fig 11a's x-range tops
        // out near 2.6).
        assert!(ecdf.quantile(0.0) >= 1.0 - 1e-9);
        assert!(ecdf.quantile(1.0) <= 2.6 + 1e-9);
    }

    #[test]
    fn fig11b_caps_bound_the_load() {
        let t = trace();
        let load = cell_load(&t, &BudgetModel::paper(), 80e6);
        assert_eq!(load.capped_bps.len(), 288);
        // Capped load never exceeds uncapped.
        for (c, u) in load.capped_bps.iter().zip(&load.uncapped_bps) {
            assert!(c <= u);
        }
        // Uncapped load overloads the backhaul at peak; capped stays
        // in the same order of magnitude as the backhaul.
        let peak_uncapped = load.uncapped_bps.iter().cloned().fold(0.0, f64::max);
        assert!(peak_uncapped > load.backhaul_bps, "peak uncapped {peak_uncapped}");
        // Paper: "on average, a user would onload 29.78 MB per day"
        // (two devices, caps respected).
        let mb = load.mean_onloaded_per_user_bytes / 1e6;
        assert!((mb - 29.78).abs() < 8.0, "mean onloaded {mb} MB");
    }

    #[test]
    fn fig11c_adoption_scaling() {
        let pts = adoption_increase(20e6, 20e6, &[0.0, 0.25, 0.5, 1.0]);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].total_increase, 0.0);
        // Full adoption with budget == existing usage doubles traffic
        // (the paper's "increase in traffic is around 100%").
        assert!((pts[3].total_increase - 1.0).abs() < 1e-9);
        // Linear in adoption.
        assert!((pts[1].total_increase * 2.0 - pts[2].total_increase).abs() < 1e-12);
        // Peak increase below total increase (offset peaks), but close.
        for p in &pts[1..] {
            assert!(p.peak_increase < p.total_increase);
            assert!(p.peak_increase > 0.5 * p.total_increase);
        }
    }
}
