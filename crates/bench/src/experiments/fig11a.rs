//! Fig 11a: CDF over users of the per-video latency improvement
//! `DSL / 3GOL` under a 40 MB daily household budget (two devices ×
//! 20 MB), driven by the DSLAM trace.

use threegol_simnet::stats::Ecdf;
use threegol_traces::analysis::{budgeted_speedup_per_user, BudgetModel};
use threegol_traces::dslam::{DslamTrace, DslamTraceConfig};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The Fig 11a budgeted-speedup experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig11a;

/// One unit: the whole DSLAM population.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Synthetic DSLAM population size at this scale.
    pub n_users: usize,
}

impl Experiment for Fig11a {
    type Unit = Unit;
    type Partial = Report;

    fn id(&self) -> &'static str {
        "fig11a"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        vec![Unit { n_users: ((18_000.0 * scale.get()) as usize).max(2_000) }]
    }

    fn run_unit(&self, unit: &Unit) -> Report {
        let trace = DslamTrace::generate(DslamTraceConfig {
            n_users: unit.n_users,
            ..DslamTraceConfig::default()
        });
        let model = BudgetModel::paper();
        let ratios = budgeted_speedup_per_user(&trace, &model);
        let ecdf = Ecdf::new(ratios);
        let rows = (0..=16).map(|i| {
            let x = 1.0 + i as f64 * 0.1;
            vec![format!("{x:.1}"), format!("{:.3}", ecdf.eval(x))]
        });
        let at_least_20 = ecdf.exceed(1.2);
        let at_least_2 = ecdf.exceed(2.0);
        Report::new(self.id(), "Fig 11a: CDF of DSL/3GOL latency ratio under a 40 MB daily budget")
            .headers(&["speedup ≥", "CDF"])
            .rows(rows)
            .check(
                "median benefit",
                "50 % of users see at least 20 % speedup",
                format!("P(speedup ≥ 1.2) = {at_least_20:.2}"),
                at_least_20 >= 0.40,
            )
            .check(
                "tail benefit",
                "5 % of users see a speedup of 2",
                format!("P(speedup ≥ 2.0) = {at_least_2:.2}"),
                at_least_2 > 0.01 && at_least_2 < 0.35,
            )
            .check(
                "ratio support",
                "improvements range up to ~2.6 (Fig 11a x-axis)",
                format!("max ratio {:.2}", ecdf.quantile(1.0)),
                ecdf.quantile(1.0) <= 2.65 && ecdf.quantile(0.0) >= 1.0 - 1e-9,
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
    fn fig11a_cdf_matches() {
        let r = Fig11a.run_serial(Scale::new(0.2).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
