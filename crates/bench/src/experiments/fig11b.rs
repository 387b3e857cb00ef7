//! Fig 11b: traffic onloaded onto the cellular network over the day
//! (5-minute bins), with and without the daily budget, against the
//! covering backhaul capacity (2 towers × 40 Mbit/s).

use threegol_traces::analysis::{cell_load, BudgetModel};
use threegol_traces::dslam::{DslamTrace, DslamTraceConfig};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The Fig 11b cell-load experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig11b;

/// One unit: the whole DSLAM population.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Synthetic DSLAM population size at this scale.
    pub n_users: usize,
}

impl Experiment for Fig11b {
    type Unit = Unit;
    type Partial = Report;

    fn id(&self) -> &'static str {
        "fig11b"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        vec![Unit { n_users: ((18_000.0 * scale.get()) as usize).max(2_000) }]
    }

    /// Reported in 30-minute steps for readability; the computation
    /// uses 5-minute bins as in the paper.
    fn run_unit(&self, unit: &Unit) -> Report {
        let trace = DslamTrace::generate(DslamTraceConfig {
            n_users: unit.n_users,
            ..DslamTraceConfig::default()
        });
        // Scale the per-user results to the full DSLAM population where
        // needed: loads are population-proportional, so compute on the
        // generated population and scale to 18 000 users.
        let pop_scale = 18_000.0 / unit.n_users as f64;
        let model = BudgetModel::paper();
        let load = cell_load(&trace, &model, 2.0 * 40e6);
        let rows = (0..48).map(|i| {
            let bin = i * 6; // every 30 min
            let h = bin as f64 * 300.0 / 3600.0;
            vec![
                format!("{:02.0}:{:02.0}", h.floor(), (h.fract() * 60.0).round()),
                format!("{:.1}", load.capped_bps[bin] * pop_scale / 1e6),
                format!("{:.1}", load.uncapped_bps[bin] * pop_scale / 1e6),
            ]
        });
        let peak_capped = load.capped_bps.iter().cloned().fold(0.0, f64::max) * pop_scale;
        let peak_uncapped = load.uncapped_bps.iter().cloned().fold(0.0, f64::max) * pop_scale;
        let mean_onloaded_mb = load.mean_onloaded_per_user_bytes / 1e6;
        Report::new(self.id(), "Fig 11b: onloaded cellular load (Mbit/s, scaled to 18k DSL lines)")
            .headers(&["time", "capped Mbit/s", "uncapped Mbit/s"])
            .rows(rows.collect::<Vec<_>>())
            .check(
                "uncapped overload",
                "without caps the 3G network is guaranteed to be overloaded",
                format!(
                    "peak uncapped {:.0} Mbit/s vs backhaul {:.0} Mbit/s",
                    peak_uncapped / 1e6,
                    load.backhaul_bps / 1e6
                ),
                peak_uncapped > load.backhaul_bps,
            )
            .check(
                "capped load is reasonable",
                "within caps the additional load could be reasonable",
                format!("peak capped {:.0} Mbit/s", peak_capped / 1e6),
                peak_capped < peak_uncapped * 0.8,
            )
            .check(
                "mean onloaded volume",
                "29.78 MB per user per day with caps",
                format!("{mean_onloaded_mb:.1} MB"),
                (mean_onloaded_mb - 29.78).abs() < 8.0,
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
    fn fig11b_loads_match() {
        let r = Fig11b.run_serial(Scale::new(0.2).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
