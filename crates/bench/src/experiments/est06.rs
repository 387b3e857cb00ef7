//! §6's allowance estimator evaluation: rolling
//! `3GOLa(t) = F̄u(t) − α·σ̄u(t)` over the MNO trace, sweeping the
//! guard α. The paper: "using τ = 5 and choosing α = 4 allows around
//! 65 % of the available free capacity to be used by 3GOL with
//! expected overrun time of under 1 day per month".

use threegol_caps::{evaluate_estimator, AllowanceEstimator, QuantileEstimator};
use threegol_traces::mno::{MnoConfig, MnoTrace};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The §6 allowance-estimator experiment.
#[derive(Debug, Clone, Copy)]
pub struct Est06;

/// One unit: every estimator rule evaluated over one generated trace
/// (splitting per rule would regenerate the 18-month trace per unit,
/// costing more than it parallelizes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Synthetic MNO population size at this scale.
    pub n_users: usize,
}

impl Experiment for Est06 {
    type Unit = Unit;
    type Partial = Report;

    fn id(&self) -> &'static str {
        "est06"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        vec![Unit { n_users: ((20_000.0 * scale.get()) as usize).max(2_000) }]
    }

    fn run_unit(&self, unit: &Unit) -> Report {
        let trace = MnoTrace::generate(MnoConfig {
            n_users: unit.n_users,
            n_months: 18,
            ..MnoConfig::default()
        });
        let series = trace.free_series();
        let mut report = Report::new(self.id(), "§6 allowance estimator: guard sweep (τ = 5)")
            .headers(&[
                "rule (α or quantile)",
                "free capacity used",
                "overrun days/month",
                "months with overrun",
            ]);
        let mut paper_point = None;
        for &alpha in &[0.0, 1.0, 2.0, 4.0, 6.0, 8.0] {
            let est = AllowanceEstimator::new(5, alpha);
            let ev = evaluate_estimator(&est, &series);
            if alpha == 4.0 {
                paper_point = Some(ev);
            }
            report = report.row(vec![
                format!("{alpha:.0}"),
                format!("{:.1}%", ev.free_capacity_used * 100.0),
                format!("{:.2}", ev.mean_overrun_days),
                format!("{:.1}%", ev.overrun_month_fraction * 100.0),
            ]);
        }
        // Alternative rule for comparison: allowance = window minimum.
        for &q in &[0.0, 0.25] {
            let est = QuantileEstimator::new(5, q);
            let ev = evaluate_estimator(&est, &series);
            report = report.row(vec![
                format!("P{:.0}", q * 100.0),
                format!("{:.1}%", ev.free_capacity_used * 100.0),
                format!("{:.2}", ev.mean_overrun_days),
                format!("{:.1}%", ev.overrun_month_fraction * 100.0),
            ]);
        }
        let ev = paper_point.expect("alpha=4 evaluated");
        report
            .check(
                "utilization at τ=5, α=4",
                "~65 % of available free capacity usable",
                format!("{:.0}%", ev.free_capacity_used * 100.0),
                ev.free_capacity_used > 0.45 && ev.free_capacity_used < 0.85,
            )
            .check(
                "overrun at τ=5, α=4",
                "expected overrun under 1 day per month",
                format!("{:.2} days/month", ev.mean_overrun_days),
                ev.mean_overrun_days < 1.0,
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
    fn estimator_matches_paper_point() {
        let r = Est06.run_serial(Scale::new(0.25).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
