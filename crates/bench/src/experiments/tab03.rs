//! Table 3: average, maximum and standard deviation of the per-device
//! throughput of an HSPA base station for device groupings of 1/3/5.

use threegol_measure::{Campaign, Direction};
use threegol_radio::LocationProfile;
use threegol_simnet::stats::Summary;

use crate::experiment::{Experiment, Scale};
use crate::util::{close, mbps, Report};

/// The paper's Table 3 means, bits/s: `(cluster, ul_mean, dl_mean)`.
const PAPER_MEANS: &[(usize, f64, f64)] =
    &[(1, 1.09e6, 1.61e6), (3, 0.90e6, 1.33e6), (5, 0.65e6, 1.16e6)];

/// The Table 3 reproduction experiment.
#[derive(Debug, Clone, Copy)]
pub struct Tab03;

/// One cluster size of the sweep.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Device cluster size (1, 3 or 5).
    pub cluster: usize,
    /// The paper's uplink mean anchor for this cluster, bits/s.
    pub paper_ul: f64,
    /// The paper's downlink mean anchor for this cluster, bits/s.
    pub paper_dl: f64,
    /// Number of measurement days.
    pub days: u64,
}

/// One cluster's measured summaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partial {
    /// The unit this partial answers.
    pub unit: Unit,
    /// Uplink per-device throughput summary.
    pub ul: Summary,
    /// Downlink per-device throughput summary.
    pub dl: Summary,
}

impl Experiment for Tab03 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "tab03"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let days = if scale.get() >= 0.8 { 5 } else { 2 };
        PAPER_MEANS
            .iter()
            .map(|&(cluster, paper_ul, paper_dl)| Unit { cluster, paper_ul, paper_dl, days })
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let hours: Vec<f64> = (0..24).step_by(3).map(|h| h as f64).collect();
        // A neutral, well-provisioned location with unit calibration:
        // the Table 3 anchors are the raw curve, so we measure them on
        // a factor-1 deployment.
        let mut loc = LocationProfile::reference_2mbps();
        loc.cell_factor_dl = 1.0;
        loc.cell_factor_ul = 1.0;
        loc.signal_dbm = -70.0; // full signal: measure the curve itself
        let campaign = Campaign::new(loc, 0x7AB3);
        Partial {
            unit: *unit,
            ul: Summary::of(&campaign.per_device_throughput(
                unit.cluster,
                &hours,
                unit.days,
                Direction::Up,
            )),
            dl: Summary::of(&campaign.per_device_throughput(
                unit.cluster,
                &hours,
                unit.days,
                Direction::Down,
            )),
        }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let mut report =
            Report::new(self.id(), "Table 3: per-device throughput by cluster size (mean/max/sd)")
                .headers(&[
                    "cluster",
                    "uplink Mbit/s (mean/max/sd)",
                    "downlink Mbit/s (mean/max/sd)",
                ]);
        for p in &partials {
            report = report
                .row(vec![
                    p.unit.cluster.to_string(),
                    format!("{}/{}/{}", mbps(p.ul.mean), mbps(p.ul.max), mbps(p.ul.sd)),
                    format!("{}/{}/{}", mbps(p.dl.mean), mbps(p.dl.max), mbps(p.dl.sd)),
                ])
                .check(
                    format!("cluster {} ul mean", p.unit.cluster),
                    format!("{} Mbit/s", mbps(p.unit.paper_ul)),
                    format!("{} Mbit/s", mbps(p.ul.mean)),
                    close(p.ul.mean, p.unit.paper_ul, 0.30),
                )
                .check(
                    format!("cluster {} dl mean", p.unit.cluster),
                    format!("{} Mbit/s", mbps(p.unit.paper_dl)),
                    format!("{} Mbit/s", mbps(p.dl.mean)),
                    close(p.dl.mean, p.unit.paper_dl, 0.30),
                );
        }
        report.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn table3_reproduced() {
        let r = Tab03.run_serial(Scale::new(0.3).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
