//! A single HSPA base station: shared-channel capacity processes.
//!
//! A base station produces `threegol-simnet` capacity processes for its
//! shared HSDPA (downlink) and HSUPA (uplink) channels, parameterized by
//! the number of 3GOL devices currently attached. The aggregate follows
//! the Table 3 efficiency curves (scaled by the location calibration
//! factor and signal quality, modulated by the diurnal availability of
//! leftover capacity) and is clamped to the channel ceilings.

use threegol_simnet::capacity::{CapacityProcess, DiurnalProfile};
use threegol_simnet::dist::mix_seed;

use crate::consts::{UMTS_DEDICATED_DL_BPS, UMTS_DEDICATED_UL_BPS};
use crate::efficiency::EfficiencyCurve;

/// Short-term capacity redraw interval, seconds (HSPA scheduling-grain
/// variation as seen at the transport layer).
const CAPACITY_STEP_SECS: f64 = 1.0;

/// Relative std-dev of the per-device radio link's own variation (on
/// top of the cell channel's variation).
const DEVICE_REL_SD: f64 = 0.20;

/// One HSPA base station serving a 3GOL location.
#[derive(Debug, Clone)]
pub struct BaseStation {
    /// Index within the location's deployment.
    pub index: usize,
    /// Downlink efficiency curve (Table 3 calibrated).
    pub dl_curve: EfficiencyCurve,
    /// Uplink efficiency curve (Table 3 calibrated).
    pub ul_curve: EfficiencyCurve,
    /// Location calibration factor, downlink.
    pub factor_dl: f64,
    /// Location calibration factor, uplink.
    pub factor_ul: f64,
    /// Signal-strength rate multiplier in `(0, 1]`.
    pub signal_factor: f64,
    /// Hourly fraction of capacity left over for 3GOL.
    pub availability: DiurnalProfile,
    /// Downlink shared-channel ceiling, bits/s (generation dependent).
    pub dl_ceiling_bps: f64,
    /// Uplink shared-channel ceiling, bits/s (generation dependent).
    pub ul_ceiling_bps: f64,
    /// Seed for this station's capacity noise streams.
    pub seed: u64,
}

impl BaseStation {
    /// Effective mean aggregate downlink with `n` attached devices, bps
    /// (before diurnal modulation and ceiling clamp).
    fn dl_base(&self, n: usize) -> f64 {
        self.dl_curve.aggregate(n.max(1)) * self.factor_dl * self.signal_factor
    }

    fn ul_base(&self, n: usize) -> f64 {
        self.ul_curve.aggregate(n.max(1)) * self.factor_ul * self.signal_factor
    }

    /// Capacity process for the shared HSDPA downlink channel with `n`
    /// attached devices.
    pub fn dl_cell_process(&self, n: usize) -> CapacityProcess {
        CapacityProcess::stochastic(
            self.dl_base(n).min(self.dl_ceiling_bps),
            self.dl_curve.rel_sd,
            CAPACITY_STEP_SECS,
            self.availability.clone(),
            mix_seed(self.seed, 0xD1),
        )
        .with_bounds(UMTS_DEDICATED_DL_BPS * self.signal_factor, self.dl_ceiling_bps)
    }

    /// Capacity process for the shared HSUPA uplink channel with `n`
    /// attached devices.
    pub fn ul_cell_process(&self, n: usize) -> CapacityProcess {
        CapacityProcess::stochastic(
            self.ul_base(n).min(self.ul_ceiling_bps),
            self.ul_curve.rel_sd,
            CAPACITY_STEP_SECS,
            self.availability.clone(),
            mix_seed(self.seed, 0xE1),
        )
        .with_bounds(UMTS_DEDICATED_UL_BPS * self.signal_factor, self.ul_ceiling_bps)
    }

    /// Capacity process for one device's downlink radio share when `n`
    /// devices are attached. `device_salt` individualizes the noise;
    /// `category_cap_bps` is the handset's hard ceiling.
    pub fn dl_device_process(
        &self,
        n: usize,
        device_salt: u64,
        category_cap_bps: f64,
    ) -> CapacityProcess {
        let base = (self.dl_curve.per_device(n.max(1)) * self.factor_dl * self.signal_factor)
            .min(category_cap_bps);
        CapacityProcess::stochastic(
            base,
            DEVICE_REL_SD,
            CAPACITY_STEP_SECS,
            DiurnalProfile::flat(),
            mix_seed(self.seed, 0xDD00 | device_salt),
        )
        .with_bounds(UMTS_DEDICATED_DL_BPS * self.signal_factor, category_cap_bps)
    }

    /// Capacity process for one device's uplink radio share.
    pub fn ul_device_process(
        &self,
        n: usize,
        device_salt: u64,
        category_cap_bps: f64,
    ) -> CapacityProcess {
        let base = (self.ul_curve.per_device(n.max(1)) * self.factor_ul * self.signal_factor)
            .min(category_cap_bps);
        CapacityProcess::stochastic(
            base,
            DEVICE_REL_SD,
            CAPACITY_STEP_SECS,
            DiurnalProfile::flat(),
            mix_seed(self.seed, 0xEE00 | device_salt),
        )
        .with_bounds(UMTS_DEDICATED_UL_BPS * self.signal_factor, category_cap_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::HSUPA_MAX_BPS;
    use threegol_simnet::SimTime;

    fn station() -> BaseStation {
        BaseStation {
            index: 0,
            dl_curve: EfficiencyCurve::paper_downlink(),
            ul_curve: EfficiencyCurve::paper_uplink(),
            factor_dl: 1.0,
            factor_ul: 1.0,
            signal_factor: 1.0,
            availability: DiurnalProfile::flat(),
            dl_ceiling_bps: crate::consts::HSDPA_CELL_MAX_BPS,
            ul_ceiling_bps: crate::consts::HSUPA_MAX_BPS,
            seed: 7,
        }
    }

    fn mean_capacity(p: &CapacityProcess, samples: usize) -> f64 {
        (0..samples).map(|i| p.capacity_at(SimTime::from_secs(i as f64))).sum::<f64>()
            / samples as f64
    }

    #[test]
    fn dl_cell_mean_tracks_curve() {
        let bs = station();
        let p1 = bs.dl_cell_process(1);
        let m1 = mean_capacity(&p1, 4000);
        assert!((m1 / 1.61e6 - 1.0).abs() < 0.1, "mean {m1}");
        let p5 = bs.dl_cell_process(5);
        let m5 = mean_capacity(&p5, 4000);
        assert!((m5 / (5.0 * 1.16e6) - 1.0).abs() < 0.1, "mean {m5}");
    }

    #[test]
    fn ul_cell_respects_hsupa_ceiling() {
        let mut bs = station();
        bs.factor_ul = 3.0; // hot location
        let p = bs.ul_cell_process(8);
        for i in 0..2000 {
            assert!(p.capacity_at(SimTime::from_secs(i as f64)) <= HSUPA_MAX_BPS + 1.0);
        }
    }

    #[test]
    fn device_process_respects_category_cap() {
        let bs = station();
        let p = bs.dl_device_process(1, 3, 1.2e6);
        for i in 0..1000 {
            assert!(p.capacity_at(SimTime::from_secs(i as f64)) <= 1.2e6 + 1.0);
        }
    }

    #[test]
    fn dedicated_floor_holds() {
        let bs = station();
        let p = bs.ul_device_process(10, 1, HSUPA_MAX_BPS);
        for i in 0..1000 {
            assert!(p.capacity_at(SimTime::from_secs(i as f64)) >= UMTS_DEDICATED_UL_BPS - 1.0);
        }
    }

    #[test]
    fn different_devices_get_different_noise() {
        let bs = station();
        let a = bs.dl_device_process(2, 1, 42e6);
        let b = bs.dl_device_process(2, 2, 42e6);
        let t = SimTime::from_secs(10.0);
        assert_ne!(a.capacity_at(t), b.capacity_at(t));
    }

    #[test]
    fn signal_scales_rates() {
        let mut weak = station();
        weak.signal_factor = 0.5;
        let strong = station();
        let mw = mean_capacity(&weak.dl_cell_process(1), 2000);
        let ms = mean_capacity(&strong.dl_cell_process(1), 2000);
        assert!(mw < ms * 0.6);
    }
}
