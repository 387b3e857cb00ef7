//! The 4G/LTE extension (paper §2.3):
//!
//! > "If 4G is available, the concept of 3GOL is even more compelling.
//! > With the reduced latency, and the large increase of bandwidth,
//! > the period of powerboosting time might be extremely short,
//! > reducing the overhead added on the cellular network."
//!
//! The paper leaves 4G as an outlook; this module implements it as a
//! drop-in alternative radio generation: an [`RadioGeneration::Lte`]
//! deployment scales the per-device efficiency curves (~5× the HSPA
//! rates of the era), raises the channel ceilings (20 MHz cat-3 LTE:
//! ~75 Mbit/s down, ~25 Mbit/s up per cell), and shrinks the RRC
//! promotion delay to ~100 ms (LTE RRC connection setup). The ablation
//! `abl03` (`repro_all abl03`) quantifies the §2.3 claim.

use crate::efficiency::EfficiencyCurve;
use crate::rrc::RrcConfig;

/// Cellular radio generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RadioGeneration {
    /// UMTS/HSPA, as measured by the paper.
    Hspa,
    /// LTE (the paper's §2.3 outlook).
    Lte,
}

/// LTE cell downlink ceiling, bits/s (20 MHz, cat-3 era deployment).
pub(crate) const LTE_CELL_DL_MAX_BPS: f64 = 75e6;

/// LTE cell uplink ceiling, bits/s.
pub(crate) const LTE_CELL_UL_MAX_BPS: f64 = 25e6;

/// Rate multiplier of early LTE over the paper's HSPA measurements.
pub const LTE_RATE_MULTIPLIER: f64 = 5.0;

impl RadioGeneration {
    /// Per-device downlink efficiency curve for this generation.
    pub fn downlink_curve(self) -> EfficiencyCurve {
        match self {
            RadioGeneration::Hspa => EfficiencyCurve::paper_downlink(),
            RadioGeneration::Lte => scale_curve(EfficiencyCurve::paper_downlink()),
        }
    }

    /// Per-device uplink efficiency curve for this generation.
    pub fn uplink_curve(self) -> EfficiencyCurve {
        match self {
            RadioGeneration::Hspa => EfficiencyCurve::paper_uplink(),
            RadioGeneration::Lte => scale_curve(EfficiencyCurve::paper_uplink()),
        }
    }

    /// Downlink cell ceiling, bits/s.
    pub fn cell_dl_max_bps(self) -> f64 {
        match self {
            RadioGeneration::Hspa => crate::consts::HSDPA_CELL_MAX_BPS,
            RadioGeneration::Lte => LTE_CELL_DL_MAX_BPS,
        }
    }

    /// Uplink cell ceiling, bits/s.
    pub fn cell_ul_max_bps(self) -> f64 {
        match self {
            RadioGeneration::Hspa => crate::consts::HSUPA_MAX_BPS,
            RadioGeneration::Lte => LTE_CELL_UL_MAX_BPS,
        }
    }

    /// RRC timings for this generation: LTE connection setup is an
    /// order of magnitude faster than UMTS promotions.
    pub fn rrc_config(self) -> RrcConfig {
        match self {
            RadioGeneration::Hspa => RrcConfig::default(),
            RadioGeneration::Lte => RrcConfig {
                idle_to_dch_secs: 0.1,
                fach_to_dch_secs: 0.05,
                dch_inactivity_secs: 10.0,
                fach_inactivity_secs: 10.0,
            },
        }
    }
}

fn scale_curve(curve: EfficiencyCurve) -> EfficiencyCurve {
    let anchors = curve.anchors().iter().map(|&(n, bps)| (n, bps * LTE_RATE_MULTIPLIER)).collect();
    EfficiencyCurve::new(anchors, curve.rel_sd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lte_is_faster_everywhere() {
        let hspa = RadioGeneration::Hspa;
        let lte = RadioGeneration::Lte;
        for n in [1usize, 3, 5, 8] {
            assert!(lte.downlink_curve().per_device(n) > hspa.downlink_curve().per_device(n));
            assert!(lte.uplink_curve().per_device(n) > hspa.uplink_curve().per_device(n));
        }
        assert!(lte.cell_dl_max_bps() > hspa.cell_dl_max_bps());
        assert!(lte.cell_ul_max_bps() > hspa.cell_ul_max_bps());
    }

    #[test]
    fn lte_rrc_is_an_order_of_magnitude_quicker() {
        let h = RadioGeneration::Hspa.rrc_config();
        let l = RadioGeneration::Lte.rrc_config();
        assert!(l.idle_to_dch_secs <= h.idle_to_dch_secs / 10.0);
    }

    #[test]
    fn scaling_preserves_cluster_shape() {
        let lte = RadioGeneration::Lte.downlink_curve();
        // Per-device still declines with cluster size.
        assert!(lte.per_device(1) > lte.per_device(3));
        assert!(lte.per_device(3) > lte.per_device(5));
        assert_eq!(lte.per_device(1), 1.61e6 * LTE_RATE_MULTIPLIER);
    }
}
