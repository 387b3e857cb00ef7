//! Fig 3: aggregate 3G throughput (downlink and uplink) as a function
//! of the number of simultaneously active devices (1–10), at the first
//! four Table 2 locations and their measurement hours.

use threegol_measure::{Campaign, Direction};
use threegol_radio::consts::HSUPA_MAX_BPS;
use threegol_radio::LocationProfile;

use crate::experiment::{Experiment, Scale};
use crate::util::{mbps, reps, Report};

/// The Fig 3 aggregate-throughput experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig03;

/// One (location, device-count) cell of the sweep: all repetitions of
/// both directions at that point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Index into the first four Table 2 locations.
    pub li: usize,
    /// Number of simultaneously active devices (1–10).
    pub n: usize,
    /// Repetitions per measurement.
    pub n_reps: u64,
}

/// Mean aggregate throughput for one cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partial {
    /// The unit's location index.
    pub li: usize,
    /// The unit's device count.
    pub n: usize,
    /// Mean downlink bits/s.
    pub dl: f64,
    /// Mean uplink bits/s.
    pub ul: f64,
}

impl Experiment for Fig03 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "fig03"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(4, scale.get());
        (0..4).flat_map(|li| (1..=10).map(move |n| Unit { li, n, n_reps })).collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let loc = LocationProfile::paper_table2().into_iter().nth(unit.li).expect("location");
        let hour = loc.measured_hour.unwrap_or(12.0);
        let campaign = Campaign::new(loc, 0xF163 + unit.li as u64);
        Partial {
            li: unit.li,
            n: unit.n,
            dl: campaign.aggregate_throughput(unit.n, hour, Direction::Down, unit.n_reps).mean,
            ul: campaign.aggregate_throughput(unit.n, hour, Direction::Up, unit.n_reps).mean,
        }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let mut report = Report::new(
            self.id(),
            "Fig 3: aggregate 3G throughput vs number of devices (4 locations)",
        )
        .headers(&["location", "devices", "downlink Mbit/s", "uplink Mbit/s"]);
        let mut loc1_dl_10 = 0.0;
        let mut loc1_ul_5 = 0.0;
        let mut loc1_ul_10 = 0.0;
        let mut loc1_dl_2 = 0.0;
        for p in &partials {
            if p.li == 0 {
                if p.n == 2 {
                    loc1_dl_2 = p.dl;
                }
                if p.n == 10 {
                    loc1_dl_10 = p.dl;
                    loc1_ul_10 = p.ul;
                }
                if p.n == 5 {
                    loc1_ul_5 = p.ul;
                }
            }
            report = report.row(vec![
                format!("loc{}", p.li + 1),
                p.n.to_string(),
                mbps(p.dl),
                mbps(p.ul),
            ]);
        }
        report
            .check(
                "downlink augmentation reach",
                "up to ~14 Mbit/s downlink at 10 devices",
                format!("loc1: {} Mbit/s", mbps(loc1_dl_10)),
                loc1_dl_10 > 8e6 && loc1_dl_10 < 16e6,
            )
            .check(
                "2-device downlink augmentation",
                "~4.8 Mbit/s median with 2 devices",
                format!("loc1: {} Mbit/s", mbps(loc1_dl_2)),
                loc1_dl_2 > 2.5e6 && loc1_dl_2 < 7e6,
            )
            .check(
                "uplink plateau",
                "uplink plateaus ≈5 Mbit/s by 5 devices (HSUPA max 5.76)",
                format!("loc1: {} @5 dev, {} @10 dev Mbit/s", mbps(loc1_ul_5), mbps(loc1_ul_10)),
                loc1_ul_10 <= HSUPA_MAX_BPS * 1.05 && loc1_ul_10 < loc1_ul_5 * 1.4,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig3_shape_holds() {
        let r = Fig03.run_serial(Scale::new(0.5).unwrap());
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 2 + 40);
    }
}
