//! Fig 5: distribution of the single-device throughput served per base
//! station at each location over five days (the paper's violin plots;
//! we report quantiles). The solid reference lines in the paper are
//! the dedicated-channel rates: 360 kbit/s down, 64 kbit/s up.

use threegol_measure::{Campaign, Direction};
use threegol_radio::consts::{UMTS_DEDICATED_DL_BPS, UMTS_DEDICATED_UL_BPS};
use threegol_radio::LocationProfile;
use threegol_simnet::stats::percentile;

use crate::experiment::{Experiment, Scale};
use crate::util::{mbps, Report};

/// The Fig 5 per-station distribution experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig05;

/// One (location, direction) cell: every station's sample set there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Index into the six Table 2 locations.
    pub li: usize,
    /// Probe direction for this cell.
    pub dir: Direction,
    /// Number of measurement days.
    pub days: u64,
    /// Whether to probe all 24 hours or every sixth.
    pub all_hours: bool,
}

/// Per-station quantile rows plus the raw samples for the pooled checks.
#[derive(Debug, Clone)]
pub(crate) struct Partial {
    /// Preformatted table rows, one per base station.
    pub rows: Vec<Vec<String>>,
    /// All samples of this cell concatenated in station order.
    pub vals: Vec<f64>,
    /// True when this cell probed the downlink.
    pub is_down: bool,
}

impl Experiment for Fig05 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "fig05"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let days = if scale.get() >= 0.8 { 5 } else { 2 };
        let all_hours = scale.get() >= 0.8;
        (0..LocationProfile::paper_table2().len())
            .flat_map(|li| {
                [Direction::Down, Direction::Up].into_iter().map(move |dir| Unit {
                    li,
                    dir,
                    days,
                    all_hours,
                })
            })
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let hours: Vec<f64> = if unit.all_hours {
            (0..24).map(|h| h as f64).collect()
        } else {
            (0..24).step_by(6).map(|h| h as f64).collect()
        };
        let loc = LocationProfile::paper_table2().into_iter().nth(unit.li).expect("location");
        let campaign = Campaign::new(loc.clone(), 0xF165 + unit.li as u64);
        let label = match unit.dir {
            Direction::Down => "dl",
            Direction::Up => "ul",
        };
        let samples = campaign.per_station_samples(&hours, unit.days, unit.dir);
        let mut rows = Vec::new();
        let mut all: Vec<f64> = Vec::new();
        for station in 0..loc.n_base_stations {
            let vals: Vec<f64> =
                samples.iter().filter(|&&(s, _)| s == station).map(|&(_, v)| v).collect();
            all.extend(&vals);
            rows.push(vec![
                format!("loc{}", unit.li + 1),
                format!("bs{station}"),
                label.to_string(),
                mbps(percentile(&vals, 0.05)),
                mbps(percentile(&vals, 0.25)),
                mbps(percentile(&vals, 0.50)),
                mbps(percentile(&vals, 0.75)),
                mbps(percentile(&vals, 0.95)),
            ]);
        }
        Partial { rows, vals: all, is_down: matches!(unit.dir, Direction::Down) }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        // Pool the samples in unit order (locations outer, dl before
        // ul) so the quantiles match the serial sweep bit-for-bit.
        let mut all_dl: Vec<f64> = Vec::new();
        let mut all_ul: Vec<f64> = Vec::new();
        let mut report =
            Report::new(self.id(), "Fig 5: per-base-station single-device throughput quantiles")
                .headers(&["location", "station", "dir", "p5", "p25", "p50", "p75", "p95"]);
        for p in partials {
            if p.is_down {
                all_dl.extend(&p.vals);
            } else {
                all_ul.extend(&p.vals);
            }
            report = report.rows(p.rows);
        }
        let dl_med = percentile(&all_dl, 0.5);
        let ul_med = percentile(&all_ul, 0.5);
        let dl_hi = percentile(&all_dl, 0.95);
        report
            .check(
                "range of per-cell service",
                "base stations provide ~0.7–2.5 Mbit/s in both directions",
                format!("median dl {} / ul {} Mbit/s", mbps(dl_med), mbps(ul_med)),
                dl_med > 0.5e6 && dl_med < 3.0e6 && ul_med > 0.4e6 && ul_med < 2.5e6,
            )
            .check(
                "HSPA above dedicated channels",
                "shared-channel rates exceed 360/64 kbit/s dedicated lines",
                format!("p95 dl {} Mbit/s", mbps(dl_hi)),
                dl_med > UMTS_DEDICATED_DL_BPS && ul_med > UMTS_DEDICATED_UL_BPS,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig5_shape_holds() {
        let r = Fig05.run_serial(Scale::new(0.2).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
