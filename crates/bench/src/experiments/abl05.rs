//! Ablation: application-layer 3GOL vs coupled-congestion-control
//! MPTCP (§5.2's negative result: "We experimented with MP-TCP and it
//! provided no benefit").

use threegol_core::mptcp::mptcp_vod_download_secs;
use threegol_core::vod::VodExperiment;
use threegol_hls::VideoQuality;
use threegol_radio::LocationProfile;

use crate::experiment::{Experiment, Scale};
use crate::util::{reps, secs, Report};

/// The MPTCP-comparison ablation.
#[derive(Debug, Clone, Copy)]
pub struct Abl05;

/// One quality rung: all three transports over all repetitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Quality index into the paper ladder.
    pub qi: usize,
    /// Repetitions per transport.
    pub n_reps: u64,
}

/// One rung's mean download times per transport.
#[derive(Debug, Clone)]
pub(crate) struct Partial {
    /// The rung's quality label.
    pub label: String,
    /// ADSL-only mean download, seconds.
    pub adsl: f64,
    /// 3GOL (greedy, 2 phones) mean download, seconds.
    pub gol: f64,
    /// Coupled-CC MPTCP mean download, seconds.
    pub mptcp: f64,
}

impl Experiment for Abl05 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "abl05"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(10, scale.get());
        (0..VideoQuality::paper_ladder().len()).map(|qi| Unit { qi, n_reps }).collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let quality = VideoQuality::paper_ladder().into_iter().nth(unit.qi).expect("quality");
        let e =
            VodExperiment::paper_default(LocationProfile::reference_2mbps(), quality.clone(), 2);
        let n_reps = unit.n_reps;
        Partial {
            label: quality.label.clone(),
            adsl: e.adsl_only().run_mean(n_reps).download.mean,
            gol: e.run_mean(n_reps).download.mean,
            mptcp: (0..n_reps).map(|r| mptcp_vod_download_secs(&e, r)).sum::<f64>() / n_reps as f64,
        }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let mut rows = Vec::new();
        let mut ratio_sum = 0.0;
        let mut mptcp_vs_adsl_sum = 0.0;
        let mut count = 0.0;
        for p in &partials {
            ratio_sum += p.mptcp / p.gol;
            mptcp_vs_adsl_sum += p.mptcp / p.adsl;
            count += 1.0;
            rows.push(vec![
                p.label.clone(),
                secs(p.adsl),
                secs(p.mptcp),
                secs(p.gol),
                format!("×{:.2}", p.mptcp / p.gol),
            ]);
        }
        let mean_ratio = ratio_sum / count;
        let mptcp_vs_adsl = mptcp_vs_adsl_sum / count;
        Report::new(self.id(), "Ablation: 3GOL vs coupled-CC MPTCP (download s, 2 phones)")
            .headers(&["quality", "ADSL", "MPTCP (coupled)", "3GOL GRD", "MPTCP/3GOL"])
            .rows(rows)
            .check(
                "coupled MPTCP provides no aggregation benefit",
                "MP-TCP provided no benefit (coupled CC not wireless-ready)",
                format!("MPTCP/ADSL time ratio {mptcp_vs_adsl:.2} (≈1 = no benefit)"),
                mptcp_vs_adsl > 0.6 && mptcp_vs_adsl < 1.2,
            )
            .check(
                "3GOL clearly beats coupled MPTCP",
                "application-layer onloading aggregates where MPTCP cannot",
                format!("MPTCP is ×{mean_ratio:.2} slower than 3GOL"),
                mean_ratio > 1.3,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn mptcp_ablation_holds() {
        let r = Abl05.run_serial(Scale::new(0.3).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
