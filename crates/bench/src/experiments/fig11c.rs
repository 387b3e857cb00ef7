//! Fig 11c: relative increase of 3G traffic (total and during the
//! mobile peak hour) as a function of the fraction of subscribers
//! adopting 3GOL at 20 MB/day.

use threegol_traces::analysis::adoption_increase;
use threegol_traces::mno::{MnoConfig, MnoTrace};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The Fig 11c adoption-scaling experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig11c;

/// One unit: the whole MNO population.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Synthetic MNO population size at this scale.
    pub n_users: usize,
}

impl Experiment for Fig11c {
    type Unit = Unit;
    type Partial = Report;

    fn id(&self) -> &'static str {
        "fig11c"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        vec![Unit { n_users: ((20_000.0 * scale.get()) as usize).max(2_000) }]
    }

    fn run_unit(&self, unit: &Unit) -> Report {
        let trace = MnoTrace::generate(MnoConfig { n_users: unit.n_users, ..MnoConfig::default() });
        let mean_daily_used = trace.mean_used_bytes() / 30.0;
        let budget = 20e6;
        let fractions: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let points = adoption_increase(mean_daily_used, budget, &fractions);
        let rows = points.iter().map(|p| {
            vec![
                format!("{:.1}", p.adoption),
                format!("{:.0}%", p.total_increase * 100.0),
                format!("{:.0}%", p.peak_increase * 100.0),
            ]
        });
        let full = points.last().expect("points");
        Report::new(self.id(), "Fig 11c: relative 3G traffic increase vs 3GOL adoption")
            .headers(&["adoption", "total increase", "peak-hour increase"])
            .rows(rows.collect::<Vec<_>>())
            .check(
                "full adoption doubles traffic",
                "at 100 % adoption the increase in traffic is around 100 %",
                format!("{:.0}%", full.total_increase * 100.0),
                full.total_increase > 0.5 && full.total_increase < 2.0,
            )
            .check(
                "peak increase below total",
                "peak-hour increase smaller than total, difference rather small",
                format!(
                    "peak {:.0}% vs total {:.0}%",
                    full.peak_increase * 100.0,
                    full.total_increase * 100.0
                ),
                full.peak_increase < full.total_increase
                    && full.peak_increase > 0.6 * full.total_increase,
            )
            .check(
                "linearity in adoption",
                "modest increase at low adoption",
                format!("10 % adoption → {:.0}%", points[1].total_increase * 100.0),
                points[1].total_increase < 0.25,
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
    fn fig11c_scaling_matches() {
        let r = Fig11c.run_serial(Scale::new(0.2).unwrap());
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 2 + 11);
    }
}
