//! Measurement and evaluation location profiles (paper Tables 2 and 4).
//!
//! A [`LocationProfile`] bundles everything location-specific: the ADSL
//! line speeds, the local cellular deployment (number of visible base
//! stations, provisioning level, signal strength) and calibration
//! factors that reproduce the 3-device aggregate 3G throughputs the
//! paper measured at each location.

use threegol_simnet::capacity::DiurnalProfile;

use crate::consts::signal_to_rate_factor;
use crate::efficiency::EfficiencyCurve;

/// Kind of area a location sits in (drives which diurnal load applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AreaKind {
    /// Densely populated residential area (city centre).
    DenseResidential,
    /// Office district.
    Office,
    /// Residential area in a tourist hotspot.
    Tourist,
    /// Sparsely populated residential suburb.
    Suburban,
}

/// How heavily loaded the local cells are at their busiest hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Provisioning {
    /// Plenty of spare capacity even at peak (paper: "even at peak hour
    /// … the cellular network seems to be well provisioned").
    Well,
    /// Noticeable but moderate peak-hour load.
    Moderate,
    /// Heavily loaded at peak.
    Congested,
}

impl Provisioning {
    /// Fraction of cell capacity consumed by background users at the
    /// diurnal peak.
    pub fn peak_utilization(self) -> f64 {
        match self {
            Provisioning::Well => 0.15,
            Provisioning::Moderate => 0.30,
            Provisioning::Congested => 0.50,
        }
    }
}

pub use threegol_traces::diurnal::{mobile_diurnal_load, wired_diurnal_load};

/// Per-location availability profile: the fraction of nominal cell
/// capacity left over for 3GOL at each hour.
pub fn availability_profile(provisioning: Provisioning) -> DiurnalProfile {
    let load = mobile_diurnal_load().normalized_peak();
    let rho = provisioning.peak_utilization();
    let mut w = [0.0; 24];
    for (h, item) in w.iter_mut().enumerate() {
        *item = 1.0 - rho * load.at_hour(h as f64);
    }
    DiurnalProfile::new(w)
}

/// Everything location-specific about a 3GOL site.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LocationProfile {
    /// Display name, e.g. `"T2-loc1"`.
    pub name: String,
    /// Area kind.
    pub area: AreaKind,
    /// ADSL downlink, bits/s.
    pub adsl_down_bps: f64,
    /// ADSL uplink, bits/s.
    pub adsl_up_bps: f64,
    /// Base stations visible from the home ("devices are associated
    /// with at least two different base stations at all locations").
    pub n_base_stations: usize,
    /// Tourist-hub style sectorized deployment with extra uplink
    /// headroom (paper's Location 3 exceeded the HSUPA single-cell cap).
    pub sectorized: bool,
    /// 3G signal strength at the home, dBm.
    pub signal_dbm: f64,
    /// Peak-hour load of the local cells.
    pub provisioning: Provisioning,
    /// Calibration multiplier on the Table 3 downlink curve.
    pub cell_factor_dl: f64,
    /// Calibration multiplier on the Table 3 uplink curve.
    pub cell_factor_ul: f64,
    /// The paper's measured 3-device 3G throughput `(dl, ul)` in bits/s,
    /// when the location comes from Table 2 (used for comparison output).
    pub paper_3g_3dev_bps: Option<(f64, f64)>,
    /// Hour-of-day at which the paper measured this location (Table 2).
    pub measured_hour: Option<f64>,
}

impl LocationProfile {
    /// Expected aggregate throughput (bps) of `n` devices spread over
    /// this location's base stations at hour `hour`, for the given curve
    /// and calibration factor. Pure mean-field computation (no noise);
    /// used for calibration and sanity checks.
    pub fn expected_aggregate(
        &self,
        curve: &EfficiencyCurve,
        factor: f64,
        n_devices: usize,
        hour: f64,
    ) -> f64 {
        if n_devices == 0 {
            return 0.0;
        }
        let avail = availability_profile(self.provisioning).at_hour(hour);
        let sig = signal_to_rate_factor(self.signal_dbm);
        let counts = split_devices(n_devices, self.n_base_stations);
        let raw: f64 = counts.iter().filter(|&&c| c > 0).map(|&c| curve.aggregate(c)).sum();
        raw * factor * avail * sig
    }

    /// Calibrate `cell_factor_dl`/`cell_factor_ul` so that the expected
    /// 3-device aggregate at `hour` matches the paper-measured targets.
    pub(crate) fn calibrate(&mut self, target_dl_bps: f64, target_ul_bps: f64, hour: f64) {
        let dl_curve = EfficiencyCurve::paper_downlink();
        let ul_curve = EfficiencyCurve::paper_uplink();
        let base_dl = self.expected_aggregate(&dl_curve, 1.0, 3, hour);
        let base_ul = self.expected_aggregate(&ul_curve, 1.0, 3, hour);
        assert!(base_dl > 0.0 && base_ul > 0.0);
        self.cell_factor_dl = target_dl_bps / base_dl;
        self.cell_factor_ul = target_ul_bps / base_ul;
        self.paper_3g_3dev_bps = Some((target_dl_bps, target_ul_bps));
        self.measured_hour = Some(hour);
    }

    /// The six measurement locations of the paper's Table 2, calibrated
    /// to the reported DSL and 3-device 3G throughputs.
    #[allow(clippy::type_complexity)] // literal table, one column per Table 2 field
    pub fn paper_table2() -> Vec<LocationProfile> {
        let mbps = 1e6;
        let rows: [(&str, AreaKind, f64, f64, f64, f64, f64, f64, Provisioning, bool); 6] = [
            // name, area, hour, dsl_d, dsl_u, 3g_d, 3g_u, signal, provisioning, sectorized
            (
                "T2-loc1 dense residential (1am)",
                AreaKind::DenseResidential,
                1.0,
                3.44,
                0.30,
                5.73,
                3.58,
                -80.0,
                Provisioning::Well,
                false,
            ),
            (
                "T2-loc2 office at rush hour (4pm)",
                AreaKind::Office,
                16.0,
                4.51,
                0.47,
                2.94,
                1.52,
                -85.0,
                Provisioning::Moderate,
                false,
            ),
            (
                "T2-loc3 tourist hotspot (10pm)",
                AreaKind::Tourist,
                22.0,
                6.72,
                0.84,
                2.08,
                1.29,
                -88.0,
                Provisioning::Congested,
                true,
            ),
            (
                "T2-loc4 suburbs (1am)",
                AreaKind::Suburban,
                1.0,
                2.84,
                0.45,
                4.55,
                2.17,
                -83.0,
                Provisioning::Well,
                false,
            ),
            (
                "T2-loc5 dense residential",
                AreaKind::DenseResidential,
                12.0,
                8.57,
                0.63,
                3.88,
                2.63,
                -82.0,
                Provisioning::Moderate,
                false,
            ),
            (
                "T2-loc6 dense residential (VDSL)",
                AreaKind::DenseResidential,
                12.0,
                55.48,
                11.35,
                2.32,
                1.52,
                -90.0,
                Provisioning::Moderate,
                false,
            ),
        ];
        rows.iter()
            .map(|&(name, area, hour, dsl_d, dsl_u, g_d, g_u, dbm, prov, sect)| {
                let mut p = LocationProfile {
                    name: name.to_string(),
                    area,
                    adsl_down_bps: dsl_d * mbps,
                    adsl_up_bps: dsl_u * mbps,
                    n_base_stations: 2,
                    sectorized: sect,
                    signal_dbm: dbm,
                    provisioning: prov,
                    cell_factor_dl: 1.0,
                    cell_factor_ul: 1.0,
                    paper_3g_3dev_bps: None,
                    measured_hour: None,
                };
                p.calibrate(g_d * mbps, g_u * mbps, hour);
                p
            })
            .collect()
    }

    /// The five residential evaluation locations of Table 4 (where the
    /// prototype was exercised "in the wild"), with the reported ADSL
    /// speeds and 3G signal strengths.
    pub fn paper_table4() -> Vec<LocationProfile> {
        let mbps = 1e6;
        let rows: [(&str, f64, f64, f64); 5] = [
            ("loc1", 6.48, 0.83, -81.0),
            ("loc2", 21.64, 2.77, -95.0),
            ("loc3", 8.67, 0.62, -97.0),
            ("loc4", 6.20, 0.65, -89.0),
            ("loc5", 6.82, 0.58, -89.0),
        ];
        rows.iter()
            .map(|&(name, dsl_d, dsl_u, dbm)| LocationProfile {
                name: name.to_string(),
                area: AreaKind::DenseResidential,
                adsl_down_bps: dsl_d * mbps,
                adsl_up_bps: dsl_u * mbps,
                n_base_stations: 2,
                sectorized: false,
                signal_dbm: dbm,
                provisioning: Provisioning::Moderate,
                // The §5 evaluation reports strong 3G gains at all five
                // locations; the in-the-wild cells were better
                // provisioned than the Table 3 reference cell.
                cell_factor_dl: 1.5,
                cell_factor_ul: 1.5,
                paper_3g_3dev_bps: None,
                measured_hour: None,
            })
            .collect()
    }

    /// A simple well-provisioned reference location (used by examples
    /// and the scheduler-comparison experiment, which ran on a 2 Mbit/s
    /// down / 0.512 Mbit/s up ADSL line at 1 am).
    pub fn reference_2mbps() -> LocationProfile {
        LocationProfile {
            name: "reference 2 Mbps ADSL".to_string(),
            area: AreaKind::DenseResidential,
            adsl_down_bps: 2.0e6,
            adsl_up_bps: 0.512e6,
            n_base_stations: 2,
            sectorized: false,
            signal_dbm: -85.0,
            provisioning: Provisioning::Well,
            cell_factor_dl: 1.25,
            cell_factor_ul: 1.25,
            paper_3g_3dev_bps: None,
            measured_hour: None,
        }
    }
}

/// Distribute `n` devices over `k` base stations, least-loaded first
/// (deterministic round-robin). Returns the per-station counts.
pub fn split_devices(n: usize, k: usize) -> Vec<usize> {
    assert!(k > 0, "need at least one base station");
    let mut counts = vec![0usize; k];
    for i in 0..n {
        counts[i % k] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_balanced() {
        assert_eq!(split_devices(3, 2), vec![2, 1]);
        assert_eq!(split_devices(10, 2), vec![5, 5]);
        assert_eq!(split_devices(1, 3), vec![1, 0, 0]);
        assert_eq!(split_devices(0, 2), vec![0, 0]);
    }

    #[test]
    fn table2_has_six_calibrated_locations() {
        let locs = LocationProfile::paper_table2();
        assert_eq!(locs.len(), 6);
        for l in &locs {
            assert!(
                l.cell_factor_dl > 0.1 && l.cell_factor_dl < 10.0,
                "{}: {}",
                l.name,
                l.cell_factor_dl
            );
            assert!(l.cell_factor_ul > 0.1 && l.cell_factor_ul < 10.0);
            assert!(l.paper_3g_3dev_bps.is_some());
        }
    }

    #[test]
    fn calibration_reproduces_targets() {
        for l in LocationProfile::paper_table2() {
            let (target_dl, target_ul) = l.paper_3g_3dev_bps.unwrap();
            let hour = l.measured_hour.unwrap();
            let dl =
                l.expected_aggregate(&EfficiencyCurve::paper_downlink(), l.cell_factor_dl, 3, hour);
            let ul =
                l.expected_aggregate(&EfficiencyCurve::paper_uplink(), l.cell_factor_ul, 3, hour);
            assert!((dl / target_dl - 1.0).abs() < 1e-9, "{}", l.name);
            assert!((ul / target_ul - 1.0).abs() < 1e-9, "{}", l.name);
        }
    }

    #[test]
    fn table4_locations_match_reported_dsl() {
        let locs = LocationProfile::paper_table4();
        assert_eq!(locs.len(), 5);
        assert_eq!(locs[1].adsl_down_bps, 21.64e6); // loc2, fastest
        assert_eq!(locs[3].adsl_down_bps, 6.20e6); // loc4, slowest
    }

    #[test]
    fn availability_dips_at_peak() {
        let a = availability_profile(Provisioning::Congested);
        let night = a.at_hour(4.0);
        let peak = a.at_hour(19.0);
        assert!(night > peak);
        assert!(peak >= 0.5 - 1e-12);
        assert!(night <= 1.0);
    }

    #[test]
    fn diurnal_peaks_are_offset() {
        // The paper's Fig 1 point: mobile and wired peaks do not align.
        let mobile = mobile_diurnal_load().peak_hour();
        let wired = wired_diurnal_load().peak_hour();
        assert_ne!(mobile, wired);
        assert!((18..=22).contains(&mobile));
        assert!((20..=23).contains(&wired));
    }

    #[test]
    fn expected_aggregate_scales_with_devices() {
        let l = &LocationProfile::paper_table2()[0];
        let dl = EfficiencyCurve::paper_downlink();
        let a1 = l.expected_aggregate(&dl, l.cell_factor_dl, 1, 1.0);
        let a3 = l.expected_aggregate(&dl, l.cell_factor_dl, 3, 1.0);
        let a10 = l.expected_aggregate(&dl, l.cell_factor_dl, 10, 1.0);
        assert!(a3 > a1 * 2.0);
        assert!(a10 > a3 * 2.0);
    }
}
