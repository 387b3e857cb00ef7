//! Fig 4: per-device throughput over the hours of the day at the six
//! Table 2 locations, for device groups of 5, 3 and 1 (the paper runs
//! the groups at every hour over five days).

use threegol_measure::{Campaign, Direction};
use threegol_radio::LocationProfile;
use threegol_simnet::stats::Summary;

use crate::experiment::{Experiment, Scale};
use crate::util::{mbps, Report};

/// The Fig 4 temporal-throughput experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig04;

/// One (location, hour) cell: all three cluster sizes over all days.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Index into the six Table 2 locations.
    pub li: usize,
    /// Hour of day probed.
    pub hour: f64,
    /// Number of measurement days.
    pub days: u64,
}

/// One table row plus the series samples the checks need.
#[derive(Debug, Clone)]
pub(crate) struct Partial {
    /// The preformatted row cells for this (location, hour).
    pub cells: Vec<String>,
    /// Mean per-device downlink of the 5-device cluster, bits/s.
    pub five_dl_mean: f64,
    /// Mean per-device downlink of the single device, bits/s.
    pub one_dl_mean: f64,
}

impl Experiment for Fig04 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "fig04"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let days = if scale.get() >= 0.8 { 5 } else { 2 };
        let hours: Vec<f64> = if scale.get() >= 0.8 {
            (0..24).map(|h| h as f64).collect()
        } else {
            (0..24).step_by(4).map(|h| h as f64).collect()
        };
        (0..LocationProfile::paper_table2().len())
            .flat_map(|li| hours.iter().map(move |&hour| Unit { li, hour, days }))
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let loc = LocationProfile::paper_table2().into_iter().nth(unit.li).expect("location");
        let campaign = Campaign::new(loc, 0xF164 + unit.li as u64);
        let mut cells = vec![format!("loc{}", unit.li + 1), format!("{:02.0}:00", unit.hour)];
        let mut five_dl_mean = 0.0;
        let mut one_dl_mean = 0.0;
        for &cluster in &[1usize, 3, 5] {
            let dl = Summary::of(&campaign.per_device_throughput(
                cluster,
                &[unit.hour],
                unit.days,
                Direction::Down,
            ));
            let ul = Summary::of(&campaign.per_device_throughput(
                cluster,
                &[unit.hour],
                unit.days,
                Direction::Up,
            ));
            if cluster == 5 {
                five_dl_mean = dl.mean;
            }
            if cluster == 1 {
                one_dl_mean = dl.mean;
            }
            cells.push(mbps(dl.mean));
            cells.push(mbps(ul.mean));
        }
        Partial { cells, five_dl_mean, one_dl_mean }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        // Per-device throughput variability across the day, cluster
        // of 5; samples accumulate in unit order so the summary is
        // identical to the serial sweep's.
        let five_dev_dl_all: Vec<f64> = partials.iter().map(|p| p.five_dl_mean).collect();
        let one_dev_dl_max =
            partials.iter().map(|p| p.one_dl_mean).fold(0.0_f64, |acc, v| acc.max(v));
        let five = Summary::of(&five_dev_dl_all);
        let rel_var = if five.mean > 0.0 { five.sd / five.mean } else { 0.0 };
        Report::new(
            self.id(),
            "Fig 4: per-device throughput by hour (clusters 1/3/5, six locations)",
        )
        .headers(&[
            "location", "hour", "1dev dl", "1dev ul", "3dev dl", "3dev ul", "5dev dl", "5dev ul",
        ])
        .rows(partials.into_iter().map(|p| p.cells))
        .check(
            "single-device ceiling",
            "single device up to ~2.5 Mbit/s depending on hour",
            format!("max per-device mean {} Mbit/s", mbps(one_dev_dl_max)),
            one_dev_dl_max > 1.2e6 && one_dev_dl_max < 4.5e6,
        )
        .check(
            "diurnal variation is modest",
            "diurnal throughput variations exist but are rather small",
            format!("5-device per-device dl rel. σ across hours/locations = {rel_var:.2}"),
            rel_var < 0.5,
        )
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig4_shape_holds() {
        let r = Fig04.run_serial(Scale::new(0.15).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
