//! The MP-TCP comparison point (paper §5.2):
//!
//! > "We experimented with MP-TCP and it provided no benefit due to
//! > the issues probably related to the Coupled Congestion Control
//! > (CCC) algorithm of MP-TCP that is not optimized for wireless use
//! > yet."
//!
//! MPTCP with coupled congestion control (LIA) is designed to be no
//! more aggressive than a single TCP flow on the best path; over
//! heterogeneous, highly variable wireless subflows of the paper's era
//! it collapses to roughly best-single-path throughput. We model a
//! coupled-MPTCP video download as the whole transaction carried as
//! one connection on whichever single path would finish it fastest,
//! with a small coupling penalty — deliberately *optimistic* for
//! MPTCP, which only strengthens the reproduced conclusion that
//! application-layer 3GOL aggregation wins.

use threegol_sched::{build, Policy, TransactionSpec};
use threegol_simnet::dist::mix_seed;
use threegol_simnet::{SimTime, Simulation};

use crate::home::{request_overhead_secs, HomeNetwork, ADSL_EFFICIENCY};
use crate::runner::{PathSpec, TransactionRunner};
use crate::vod::VodExperiment;

/// Throughput penalty of coupled congestion control relative to a
/// plain single-path TCP flow (window coupling across lossy subflows).
pub(crate) const COUPLING_PENALTY: f64 = 1.05;

/// Download time of the experiment's video over coupled MPTCP: the
/// best single path carries everything sequentially, slowed by the
/// coupling penalty.
pub fn mptcp_vod_download_secs(e: &VodExperiment, rep: u64) -> f64 {
    let n_paths = e.n_phones + 1;
    let mut best = f64::INFINITY;
    for path_idx in 0..n_paths {
        let seed = mix_seed(e.seed, rep);
        let mut sim = Simulation::new();
        sim.run_until(SimTime::from_hours(e.hour));
        let mut home = HomeNetwork::build_with_generation(
            &mut sim,
            e.location.clone(),
            e.n_phones,
            e.wifi,
            e.generation,
            seed,
        );
        let segments = threegol_hls::segment_video(&e.video);
        let sizes: Vec<f64> = segments.iter().map(|s| s.size_bytes).collect();
        let (links, startup, overhead) = if path_idx == 0 {
            (
                home.adsl_download_path(),
                0.0,
                request_overhead_secs(e.location.adsl_down_bps * ADSL_EFFICIENCY),
            )
        } else {
            let i = path_idx - 1;
            let startup = home.acquire_phone(i, sim.now());
            (
                home.phone_download_path(i),
                startup,
                request_overhead_secs(
                    e.generation.downlink_curve().per_device(1) * e.location.cell_factor_dl,
                ),
            )
        };
        let paths = vec![PathSpec::new(links, overhead, startup)];
        let mut sched = build(Policy::Greedy, TransactionSpec::new(sizes.clone(), 1));
        if let Ok(result) = TransactionRunner::new(paths, sizes).run(&mut sim, sched.as_mut()) {
            best = best.min(result.total_secs);
        }
    }
    best * COUPLING_PENALTY
}

#[cfg(test)]
mod tests {
    use super::*;
    use threegol_hls::VideoQuality;
    use threegol_radio::LocationProfile;

    fn experiment() -> VodExperiment {
        VodExperiment::paper_default(
            LocationProfile::reference_2mbps(),
            VideoQuality::paper_ladder().swap_remove(1),
            2,
        )
    }

    #[test]
    fn coupled_mptcp_is_single_path_bound() {
        let e = experiment();
        let mptcp = mptcp_vod_download_secs(&e, 0);
        let adsl = e.adsl_only().run_once(0).download_secs;
        // MPTCP can at best match its best subflow (here within the
        // coupling penalty of the ADSL-alone time, or a single phone).
        assert!(mptcp > adsl * 0.4, "mptcp {mptcp} suspiciously fast vs adsl {adsl}");
        assert!(mptcp < adsl * 1.2, "mptcp {mptcp} should not be far above best path");
    }

    #[test]
    fn threegol_aggregation_beats_coupled_mptcp() {
        // The paper's conclusion: app-layer onloading aggregates where
        // coupled MPTCP cannot.
        let e = experiment();
        let mptcp: f64 = (0..3).map(|r| mptcp_vod_download_secs(&e, r)).sum::<f64>() / 3.0;
        let gol = e.run_mean(3).download.mean;
        assert!(gol < mptcp * 0.8, "3GOL {gol} should clearly beat coupled MPTCP {mptcp}");
    }
}
