//! Per-device throughput efficiency as a function of cluster size.
//!
//! The paper's Table 3 reports the mean/max/sd of the per-device
//! throughput a single HSPA base station delivers when 1, 3 or 5 devices
//! share its channels:
//!
//! | cluster | uplink mean | downlink mean |
//! |---|---|---|
//! | 1 | 1.09 Mbit/s | 1.61 Mbit/s |
//! | 3 | 0.90 Mbit/s | 1.33 Mbit/s |
//! | 5 | 0.65 Mbit/s | 1.16 Mbit/s |
//!
//! [`EfficiencyCurve`] interpolates those anchors (and extrapolates with
//! a `1/n` tail) to give per-device and aggregate cell throughput at any
//! cluster size. Scheduling overhead and inter-device contention are why
//! the aggregate is *not* `n ×` the single-device rate.

/// Piecewise per-device throughput anchors `(cluster_size, bps)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EfficiencyCurve {
    anchors: Vec<(f64, f64)>,
    /// Relative standard deviation of short-term variation around the
    /// mean (drives the max/sd columns of Table 3).
    pub rel_sd: f64,
}

impl EfficiencyCurve {
    /// Build a curve from `(cluster_size, per_device_bps)` anchors.
    ///
    /// # Panics
    /// Panics if `anchors` is empty, unsorted, or contains non-positive
    /// cluster sizes.
    pub fn new(anchors: Vec<(f64, f64)>, rel_sd: f64) -> EfficiencyCurve {
        assert!(!anchors.is_empty());
        assert!(anchors.windows(2).all(|w| w[0].0 < w[1].0), "anchors must be sorted");
        assert!(anchors.iter().all(|&(n, r)| n >= 1.0 && r > 0.0));
        EfficiencyCurve { anchors, rel_sd }
    }

    /// The paper's Table 3 downlink curve (bits/s).
    pub fn paper_downlink() -> EfficiencyCurve {
        EfficiencyCurve::new(
            vec![(1.0, 1.61e6), (3.0, 1.33e6), (5.0, 1.16e6)],
            // sd/mean from Table 3 downlink ≈ 0.57/1.61 … 0.56/1.16.
            0.40,
        )
    }

    /// The paper's Table 3 uplink curve (bits/s).
    pub fn paper_uplink() -> EfficiencyCurve {
        EfficiencyCurve::new(
            vec![(1.0, 1.09e6), (3.0, 0.90e6), (5.0, 0.65e6)],
            // sd/mean from Table 3 uplink ≈ 0.72/1.09 … 0.50/0.65.
            0.55,
        )
    }

    /// Mean per-device throughput (bps) with `n` devices on the cell.
    ///
    /// Linear interpolation between anchors; beyond the last anchor the
    /// *aggregate* is held constant, i.e. per-device decays as `1/n`
    /// (channel fully saturated).
    pub fn per_device(&self, n: usize) -> f64 {
        assert!(n >= 1, "cluster size must be >= 1");
        let x = n as f64;
        let first = self.anchors[0];
        let last = *self.anchors.last().expect("non-empty");
        if x <= first.0 {
            return first.1;
        }
        if x >= last.0 {
            // Saturated: aggregate frozen at last anchor's aggregate.
            return last.0 * last.1 / x;
        }
        let idx = self
            .anchors
            .windows(2)
            .position(|w| x >= w[0].0 && x <= w[1].0)
            .expect("x within anchor range");
        let (x0, y0) = self.anchors[idx];
        let (x1, y1) = self.anchors[idx + 1];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Mean aggregate cell throughput (bps) with `n` active devices.
    pub fn aggregate(&self, n: usize) -> f64 {
        n as f64 * self.per_device(n)
    }

    /// The `(cluster_size, per_device_bps)` anchor points.
    pub(crate) fn anchors(&self) -> &[(f64, f64)] {
        &self.anchors
    }

    /// The largest aggregate the curve can deliver (its saturation point).
    pub fn saturated_aggregate(&self) -> f64 {
        let last = *self.anchors.last().expect("non-empty");
        last.0 * last.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_reproduced() {
        let dl = EfficiencyCurve::paper_downlink();
        assert_eq!(dl.per_device(1), 1.61e6);
        assert_eq!(dl.per_device(3), 1.33e6);
        assert_eq!(dl.per_device(5), 1.16e6);
        let ul = EfficiencyCurve::paper_uplink();
        assert_eq!(ul.per_device(1), 1.09e6);
        assert_eq!(ul.per_device(5), 0.65e6);
    }

    #[test]
    fn interpolation_between_anchors() {
        let dl = EfficiencyCurve::paper_downlink();
        let d2 = dl.per_device(2);
        assert!((d2 - 1.47e6).abs() < 1e3, "{d2}");
        let d4 = dl.per_device(4);
        assert!((d4 - 1.245e6).abs() < 1e3, "{d4}");
    }

    #[test]
    fn per_device_decreases_with_cluster_size() {
        let dl = EfficiencyCurve::paper_downlink();
        for n in 1..10 {
            assert!(dl.per_device(n) >= dl.per_device(n + 1));
        }
    }

    #[test]
    fn aggregate_increases_then_saturates() {
        let ul = EfficiencyCurve::paper_uplink();
        for n in 1..5 {
            assert!(ul.aggregate(n) < ul.aggregate(n + 1) + 1.0);
        }
        // Beyond the last anchor the aggregate is flat.
        assert!((ul.aggregate(7) - ul.saturated_aggregate()).abs() < 1.0);
        assert!((ul.aggregate(10) - ul.saturated_aggregate()).abs() < 1.0);
    }

    #[test]
    fn uplink_saturates_near_hsupa_ceiling_order() {
        // 5 × 0.65 = 3.25 Mbit/s per cell; with ≥2 visible cells the
        // location aggregate approaches the paper's ~5 Mbit/s plateau.
        let ul = EfficiencyCurve::paper_uplink();
        assert!((ul.saturated_aggregate() - 3.25e6).abs() < 1e3);
    }

    #[test]
    #[should_panic]
    fn unsorted_anchors_panic() {
        let _ = EfficiencyCurve::new(vec![(3.0, 1.0), (1.0, 2.0)], 0.1);
    }

    #[test]
    #[should_panic]
    fn zero_cluster_panics() {
        EfficiencyCurve::paper_downlink().per_device(0);
    }
}
