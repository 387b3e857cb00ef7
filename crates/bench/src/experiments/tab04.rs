//! Table 4: the five "in the wild" evaluation locations — measured
//! ADSL speeds and 3G signal strength — plus, from the model, the
//! single-device 3G throughput each location supports.

use threegol_measure::{Campaign, Direction};
use threegol_radio::consts::dbm_to_asu;
use threegol_radio::LocationProfile;

use crate::experiment::{Experiment, Scale};
use crate::util::{mbps, reps, Report};

/// The Table 4 reproduction experiment.
#[derive(Debug, Clone, Copy)]
pub struct Tab04;

/// One evaluation location.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Index into the five Table 4 locations.
    pub li: usize,
    /// Repetitions per measurement.
    pub n_reps: u64,
}

/// One location's modeled single-device downlink.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partial {
    /// Mean single-device 3G downlink, bits/s.
    pub dl: f64,
}

impl Experiment for Tab04 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "tab04"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(6, scale.get());
        (0..LocationProfile::paper_table4().len()).map(|li| Unit { li, n_reps }).collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let loc = LocationProfile::paper_table4().into_iter().nth(unit.li).expect("location");
        let campaign = Campaign::new(loc, 0x7AB4 + unit.li as u64);
        Partial { dl: campaign.aggregate_throughput(1, 9.0, Direction::Down, unit.n_reps).mean }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let locations = LocationProfile::paper_table4();
        let mut rows = Vec::new();
        let mut best_signal_dl = 0.0_f64;
        let mut worst_signal_dl = f64::INFINITY;
        for (loc, p) in locations.iter().zip(&partials) {
            if loc.signal_dbm >= -85.0 {
                best_signal_dl = best_signal_dl.max(p.dl);
            }
            if loc.signal_dbm <= -95.0 {
                worst_signal_dl = worst_signal_dl.min(p.dl);
            }
            rows.push(vec![
                loc.name.clone(),
                format!("{}/{}", mbps(loc.adsl_down_bps), mbps(loc.adsl_up_bps)),
                format!("{:.0}/{:.0}", loc.signal_dbm, dbm_to_asu(loc.signal_dbm)),
                mbps(p.dl),
            ]);
        }
        Report::new(
            self.id(),
            "Table 4: evaluation locations (ADSL speed, 3G signal, modeled 1-device dl)",
        )
        .headers(&["location", "DSL Mbit/s (d/u)", "signal dBm/ASU", "1-device 3G dl Mbit/s"])
        .rows(rows)
        .check(
            "ADSL speeds reproduced",
            "6.48/0.83 … 21.64/2.77 Mbit/s (Table 4)",
            format!(
                "loc1 {} / loc2 {} Mbit/s down",
                mbps(locations[0].adsl_down_bps),
                mbps(locations[1].adsl_down_bps)
            ),
            locations[0].adsl_down_bps == 6.48e6 && locations[1].adsl_down_bps == 21.64e6,
        )
        .check(
            "signal affects 3G rate",
            "weak-signal locations (−95/−97 dBm) see lower 3G rates",
            format!("strong {} vs weak {} Mbit/s", mbps(best_signal_dl), mbps(worst_signal_dl)),
            best_signal_dl > worst_signal_dl,
        )
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn table4_reproduced() {
        let r = Tab04.run_serial(Scale::new(0.5).unwrap());
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 2 + 5);
    }
}
