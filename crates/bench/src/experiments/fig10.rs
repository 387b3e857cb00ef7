//! Fig 10: CDF of the fraction of the contracted monthly cap that
//! subscribers actually use (the MNO dataset).

use threegol_traces::mno::{MnoConfig, MnoTrace};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The Fig 10 cap-usage-CDF experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig10;

/// One unit: the whole population (the trace is generated once and
/// every statistic reads from it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Synthetic MNO population size at this scale.
    pub n_users: usize,
}

impl Experiment for Fig10 {
    type Unit = Unit;
    type Partial = Report;

    fn id(&self) -> &'static str {
        "fig10"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        vec![Unit { n_users: ((20_000.0 * scale.get()) as usize).max(2_000) }]
    }

    fn run_unit(&self, unit: &Unit) -> Report {
        let trace = MnoTrace::generate(MnoConfig { n_users: unit.n_users, ..MnoConfig::default() });
        let ecdf = trace.used_fraction_ecdf();
        let rows = (0..=20).map(|i| {
            let x = i as f64 * 0.05;
            vec![format!("{x:.2}"), format!("{:.3}", ecdf.eval(x))]
        });
        let p10 = ecdf.eval(0.10);
        let p50 = ecdf.eval(0.50);
        let mean_free_mb = trace.mean_free_bytes() / 1e6;
        Report::new(self.id(), "Fig 10: CDF of the fraction of used cap (MNO dataset)")
            .headers(&["used fraction", "CDF"])
            .rows(rows)
            .check(
                "light users",
                "40 % of customers use less than 10 % of their cap",
                format!("P(frac ≤ 0.1) = {p10:.2}"),
                (p10 - 0.40).abs() < 0.05,
            )
            .check(
                "moderate users",
                "75 % of customers use less than 50 % of the cap",
                format!("P(frac ≤ 0.5) = {p50:.2}"),
                (p50 - 0.75).abs() < 0.05,
            )
            .check(
                "spare volume",
                "~20 MB/device/day (≈600 MB/month) of free volume on average",
                format!("mean free volume {mean_free_mb:.0} MB/month"),
                mean_free_mb > 300.0 && mean_free_mb < 2500.0,
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
    fn fig10_cdf_matches() {
        let r = Fig10.run_serial(Scale::new(0.5).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
