//! Fig 1: normalized diurnal traffic on the cellular and wired
//! networks, with offset peaks.

use threegol_traces::diurnal::{fig1_series, mobile_diurnal_load, wired_diurnal_load};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The Fig 1 diurnal-pattern experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig01;

impl Experiment for Fig01 {
    // Deterministic trace lookup: one unit regenerates everything.
    type Unit = ();
    type Partial = Report;

    fn id(&self) -> &'static str {
        "fig01"
    }

    fn units(&self, _scale: Scale) -> Vec<()> {
        vec![()]
    }

    fn run_unit(&self, _unit: &()) -> Report {
        let series = fig1_series();
        let rows = series
            .iter()
            .map(|&(h, m, w)| vec![format!("{h:02}:00"), format!("{m:.2}"), format!("{w:.2}")]);
        let mobile_peak = mobile_diurnal_load().peak_hour();
        let wired_peak = wired_diurnal_load().peak_hour();
        let night = mobile_diurnal_load().normalized_peak().at_hour(4.0);
        Report::new(self.id(), "Fig 1: diurnal traffic pattern, cellular vs wired (normalized)")
            .headers(&["hour", "mobile", "wired"])
            .rows(rows)
            .check(
                "peak offset",
                "mobile and wired peaks not aligned",
                format!("mobile {mobile_peak}:00, wired {wired_peak}:00"),
                mobile_peak != wired_peak,
            )
            .check(
                "cellular diurnal valley",
                "cellular not constantly loaded",
                format!("mobile load at 04:00 = {night:.2} of peak"),
                night < 0.4,
            )
            .finish()
    }

    fn merge(&self, _scale: Scale, mut partials: Vec<Report>) -> Report {
        partials.pop().expect("one unit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig1_checks_pass() {
        let r = Fig01.run_serial(Scale::FULL);
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 26); // header + rule + 24 hours
    }
}
