//! Ablation: playout-aware (just-in-time) scheduling — the extension
//! the paper leaves as future work (§4.1.1).
//!
//! The greedy scheduler races the whole video down as fast as possible,
//! burning cellular quota on bytes that would have arrived in time over
//! ADSL anyway. The playout-aware scheduler fetches the pre-buffer at
//! full speed, then gates each segment on its playout deadline minus a
//! fetch-ahead horizon. Measured here: onloaded (cellular) bytes,
//! playout stalls, and startup delay, across horizons.

use threegol_core::home::ADSL_EFFICIENCY;
use threegol_core::vod::VodExperiment;
use threegol_hls::VideoQuality;
use threegol_radio::LocationProfile;

use crate::experiment::{Experiment, Scale};
use crate::util::{reps, secs, Report};

/// Fetch-ahead horizons for the playout-aware rows (∞ as 1e9).
const HORIZONS: [f64; 3] = [5.0, 15.0, 1e9];

/// The playout-aware scheduling ablation.
#[derive(Debug, Clone, Copy)]
pub struct Abl02;

/// One repetition of one scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// 0 = greedy baseline, 1–3 = playout-aware with `HORIZONS`.
    pub cfg: usize,
    /// Repetition number.
    pub rep: u64,
}

/// One repetition's quota-relevant outcomes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partial {
    /// Bytes fetched over the cellular paths this rep.
    pub onloaded: f64,
    /// Pre-buffer (startup) time this rep, seconds.
    pub prebuffer_secs: f64,
    /// Number of playout stalls this rep.
    pub stalls: usize,
}

fn experiment_under_test() -> (VodExperiment, f64) {
    let q3 = VideoQuality::paper_ladder().swap_remove(2);
    let location = LocationProfile::reference_2mbps();
    let mut e = VodExperiment::paper_default(location.clone(), q3.clone(), 2);
    e.prebuffer_fraction = 0.2;
    // Conservative startup estimate: the pre-buffer over ADSL alone.
    let prebuffer_bytes = 4.0 * q3.bytes_per_sec() * 10.0;
    let startup_est = prebuffer_bytes * 8.0 / (location.adsl_down_bps * ADSL_EFFICIENCY);
    (e, startup_est)
}

impl Experiment for Abl02 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "abl02"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(10, scale.get());
        (0..4).flat_map(|cfg| (0..n_reps).map(move |rep| Unit { cfg, rep })).collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let (e, startup_est) = experiment_under_test();
        let o = if unit.cfg == 0 {
            e.run_once(unit.rep)
        } else {
            e.run_once_playout_aware(unit.rep, HORIZONS[unit.cfg - 1], startup_est)
        };
        Partial {
            onloaded: o.bytes_per_path.iter().skip(1).sum::<f64>(),
            prebuffer_secs: o.prebuffer_secs,
            stalls: o.playout.stalls.len(),
        }
    }

    fn merge(&self, scale: Scale, partials: Vec<Partial>) -> Report {
        let n_reps = reps(10, scale.get());
        // Accumulate each configuration rep-by-rep in unit order, with
        // the same per-term division the serial loop used, so the
        // floating-point sums match exactly.
        let mut per_cfg = Vec::new();
        for chunk in partials.chunks(n_reps as usize) {
            let mut onloaded = 0.0;
            let mut prebuffer = 0.0;
            let mut stalls = 0usize;
            for p in chunk {
                onloaded += p.onloaded / n_reps as f64;
                prebuffer += p.prebuffer_secs / n_reps as f64;
                stalls += p.stalls;
            }
            per_cfg.push((onloaded, prebuffer, stalls));
        }
        let (greedy_onloaded, greedy_prebuffer, greedy_stalls) = per_cfg[0];
        let mut rows = vec![vec![
            "greedy (paper)".into(),
            "-".into(),
            format!("{:.1}", greedy_onloaded / 1e6),
            secs(greedy_prebuffer),
            greedy_stalls.to_string(),
        ]];
        for (&horizon, &(onloaded, prebuffer, stalls)) in HORIZONS.iter().zip(&per_cfg[1..]) {
            rows.push(vec![
                "playout-aware".into(),
                if horizon > 1e6 { "∞".into() } else { format!("{horizon:.0} s") },
                format!("{:.1}", onloaded / 1e6),
                secs(prebuffer),
                stalls.to_string(),
            ]);
        }
        let (onl_15, pre_15, stalls_15) = per_cfg[2];
        let (onl_inf, _, _) = per_cfg[3];
        Report::new(self.id(), "Ablation: playout-aware (JIT) scheduling vs greedy")
            .headers(&["scheduler", "horizon", "onloaded MB", "prebuffer s", "stalls"])
            .rows(rows)
            .check(
                "JIT slashes cellular usage",
                "deadline gating should onload far fewer bytes than greedy",
                format!(
                    "greedy {:.1} MB vs JIT(15 s) {:.1} MB",
                    greedy_onloaded / 1e6,
                    onl_15 / 1e6
                ),
                onl_15 < greedy_onloaded * 0.6,
            )
            .check(
                "JIT keeps playback smooth",
                "no stalls with a 15 s fetch-ahead horizon",
                format!("{stalls_15} stalls across {n_reps} runs"),
                stalls_15 == 0,
            )
            .check(
                "startup unaffected",
                "pre-buffer still fetched at full 3GOL speed",
                format!("greedy {} s vs JIT {} s", secs(greedy_prebuffer), secs(pre_15)),
                (pre_15 / greedy_prebuffer - 1.0).abs() < 0.25,
            )
            .check(
                "infinite horizon degenerates to greedy",
                "∞ horizon ≈ greedy onloading",
                format!("{:.1} vs {:.1} MB", onl_inf / 1e6, greedy_onloaded / 1e6),
                (onl_inf / greedy_onloaded - 1.0).abs() < 0.35,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn playout_ablation_holds() {
        let r = Abl02.run_serial(Scale::new(0.3).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
