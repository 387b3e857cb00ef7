//! Fig 6: scheduler comparison downloading the 200 s HLS video over a
//! 2 Mbit/s ADSL line with one and two phones, at 1 am (the paper's
//! low-interference window): ADSL alone vs 3GOL with MIN, RR and GRD.

use threegol_core::vod::{VodExperiment, VodOutcome, VodSummary};
use threegol_hls::VideoQuality;
use threegol_radio::LocationProfile;
use threegol_sched::Policy;

use crate::experiment::{Experiment, Scale};
use crate::util::{reps, secs, Report};

/// Scheduler configurations in column order: ADSL alone, then the
/// three policies with one phone, then with two.
const CONFIGS: usize = 7;

/// The Fig 6 scheduler-comparison experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig06;

/// One repetition of one (quality, configuration) cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Quality index into the paper ladder (0–3).
    pub qi: usize,
    /// Configuration index (0 = ADSL, 1–3 = MIN/RR/GRD 1 phone,
    /// 4–6 = MIN/RR/GRD 2 phones).
    pub cfg: usize,
    /// Repetition number; seeds the stochastic conditions.
    pub rep: u64,
}

fn config(base: &VodExperiment, cfg: usize) -> VodExperiment {
    let mut e = base.clone();
    if cfg == 0 {
        return e;
    }
    e.n_phones = if cfg <= 3 { 1 } else { 2 };
    e.policy = match (cfg - 1) % 3 {
        0 => Policy::min_time_paper(),
        1 => Policy::RoundRobin,
        _ => Policy::Greedy,
    };
    e
}

fn config_label(cfg: usize) -> &'static str {
    ["ADSL", "MIN", "RR", "GRD", "MIN", "RR", "GRD"][cfg]
}

impl Experiment for Fig06 {
    type Unit = Unit;
    type Partial = VodOutcome;

    fn id(&self) -> &'static str {
        "fig06"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(30, scale.get());
        (0..4)
            .flat_map(|qi| {
                (0..CONFIGS).flat_map(move |cfg| (0..n_reps).map(move |rep| Unit { qi, cfg, rep }))
            })
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> VodOutcome {
        let ladder = VideoQuality::paper_ladder();
        let mut base = VodExperiment::paper_default(
            LocationProfile::reference_2mbps(),
            ladder[unit.qi].clone(),
            0,
        );
        base.hour = 1.0; // the paper starts the comparison at 1:00 am
        config(&base, unit.cfg).run_once(unit.rep)
    }

    fn merge(&self, scale: Scale, partials: Vec<VodOutcome>) -> Report {
        let n_reps = reps(30, scale.get()) as usize;
        // Partials arrive in unit order, so each (quality, config)
        // cell is a contiguous rep-ordered chunk; summarizing a chunk
        // reproduces `run_mean` exactly.
        let mut cells = partials.chunks(n_reps);
        let mut rows = Vec::new();
        // grd/min means for the ordering checks, per phone count.
        let mut means: std::collections::HashMap<(usize, &'static str, usize), f64> =
            std::collections::HashMap::new();
        let mut adsl_q1 = 0.0;
        let mut adsl_q4 = 0.0;
        for qi in 0..4 {
            let ladder = VideoQuality::paper_ladder();
            let mut row = vec![ladder[qi].label.clone()];
            for cfg in 0..CONFIGS {
                let s = VodSummary::from_outcomes(cells.next().expect("cell chunk"));
                if cfg == 0 {
                    if qi == 0 {
                        adsl_q1 = s.download.mean;
                    }
                    if qi == 3 {
                        adsl_q4 = s.download.mean;
                    }
                } else {
                    let n_phones = if cfg <= 3 { 1 } else { 2 };
                    means.insert((qi, config_label(cfg), n_phones), s.download.mean);
                }
                row.push(format!("{}±{}", secs(s.download.mean), secs(s.download.sd)));
            }
            rows.push(row);
        }
        // Ordering check averaged over qualities.
        let avg = |label: &'static str, phones: usize| -> f64 {
            (0..4).map(|q| means[&(q, label, phones)]).sum::<f64>() / 4.0
        };
        let (grd1, rr1, min1) = (avg("GRD", 1), avg("RR", 1), avg("MIN", 1));
        let grd2 = avg("GRD", 2);
        Report::new(
            self.id(),
            "Fig 6: scheduler comparison, HLS 200 s video on 2 Mbit/s ADSL (download s)",
        )
        .headers(&[
            "quality", "ADSL", "MIN 1ph", "RR 1ph", "GRD 1ph", "MIN 2ph", "RR 2ph", "GRD 2ph",
        ])
        .rows(rows)
        .check(
            "ADSL-only Q1 download",
            "41 s",
            format!("{} s", secs(adsl_q1)),
            adsl_q1 > 30.0 && adsl_q1 < 55.0,
        )
        .check(
            "ADSL-only Q4 download",
            "127 s",
            format!("{} s", secs(adsl_q4)),
            adsl_q4 > 100.0 && adsl_q4 < 150.0,
        )
        .check(
            "scheduler ordering (1 phone)",
            "GRD best, then RR, MIN worst",
            format!("GRD {} ≤ RR {} ≤ MIN {} s", secs(grd1), secs(rr1), secs(min1)),
            grd1 <= rr1 * 1.02 && rr1 <= min1 * 1.02,
        )
        .check(
            "second phone helps sublinearly",
            "benefit does not linearly scale with phones",
            format!("GRD 1ph {} s → 2ph {} s", secs(grd1), secs(grd2)),
            grd2 < grd1 && grd2 > grd1 * 0.5,
        )
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig6_ordering_holds() {
        let r = Fig06.run_serial(Scale::new(0.3).unwrap());
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 2 + 4);
    }
}
