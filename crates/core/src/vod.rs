//! The §5.2 video-on-demand experiment harness.
//!
//! Reproduces the paper's downlink methodology: an HLS video (the
//! bipbop sample, 200 s, 10 s segments) is downloaded with ADSL alone
//! and with 3GOL enabled (1 or 2 phones, starting from idle `3G` or
//! connected `H` mode), sweeping quality Q1–Q4 and the pre-buffer
//! amount from 20 % to 100 % of the video length. Each configuration
//! is repeated with fresh stochastic conditions and averaged.

use threegol_hls::{segment_video, PlayerModel, PlayoutReport, VideoQuality, VideoSpec};
use threegol_radio::{LocationProfile, RadioGeneration};
use threegol_sched::{build, MultipathScheduler, PlayoutAware, Policy, TransactionSpec};
use threegol_simnet::dist::mix_seed;
use threegol_simnet::stats::Summary;
use threegol_simnet::{SimTime, Simulation};

use crate::home::{request_overhead_secs, HomeNetwork, WifiStandard, ADSL_EFFICIENCY};
use crate::runner::{PathSpec, TransactionRunner};

/// Radio state at transaction start (the paper's `3G` vs `H` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RadioStart {
    /// Phones start from RRC idle and pay the channel-acquisition delay.
    Cold,
    /// Phones were warmed into connected mode by an ICMP train.
    Warm,
}

impl RadioStart {
    /// The paper's label for this variant.
    pub fn label(self) -> &'static str {
        match self {
            RadioStart::Cold => "3G",
            RadioStart::Warm => "H",
        }
    }
}

/// One VoD experiment configuration.
#[derive(Debug, Clone)]
pub struct VodExperiment {
    /// Where the household is.
    pub location: LocationProfile,
    /// Number of assisting phones (0 = ADSL alone).
    pub n_phones: usize,
    /// Multipath scheduling policy.
    pub policy: Policy,
    /// Video rendition.
    pub quality: VideoQuality,
    /// Video duration and segmentation.
    pub video: VideoSpec,
    /// Pre-buffer amount as a fraction of the video length.
    pub prebuffer_fraction: f64,
    /// Cold (`3G`) or warm (`H`) radio start.
    pub radio_start: RadioStart,
    /// Hour of day the experiment runs at.
    pub hour: f64,
    /// Home Wi-Fi standard.
    pub wifi: WifiStandard,
    /// Base seed; repetitions derive sub-seeds.
    pub seed: u64,
    /// Radio generation of the assisting phones (paper: HSPA; §2.3
    /// outlook: LTE).
    pub generation: RadioGeneration,
}

impl VodExperiment {
    /// The paper's default downlink experiment at a location: greedy
    /// scheduler, Q-quality paper video, 20 % pre-buffer, 9 am
    /// weekday start ("starting each one around 9.00 am").
    pub fn paper_default(
        location: LocationProfile,
        quality: VideoQuality,
        n_phones: usize,
    ) -> VodExperiment {
        let video = VideoSpec::paper_video(quality.clone());
        VodExperiment {
            location,
            n_phones,
            policy: Policy::Greedy,
            quality,
            video,
            prebuffer_fraction: 0.2,
            radio_start: RadioStart::Cold,
            hour: 9.0,
            wifi: WifiStandard::N,
            seed: 0x90D,
            generation: RadioGeneration::Hspa,
        }
    }

    /// Run one repetition; `rep` perturbs the stochastic conditions.
    pub fn run_once(&self, rep: u64) -> VodOutcome {
        self.run_once_inner(rep, None)
    }

    /// Run one repetition with the playout-aware scheduler (the
    /// paper's §4.1.1 future-work extension): segments past the
    /// pre-buffer are fetched just-in-time, `horizon_secs` ahead of
    /// their playout deadline, assuming playback starts after
    /// `startup_estimate_secs`.
    pub fn run_once_playout_aware(
        &self,
        rep: u64,
        horizon_secs: f64,
        startup_estimate_secs: f64,
    ) -> VodOutcome {
        self.run_once_inner(rep, Some((horizon_secs, startup_estimate_secs)))
    }

    fn run_once_inner(&self, rep: u64, playout: Option<(f64, f64)>) -> VodOutcome {
        let seed = mix_seed(self.seed, rep);
        let mut sim = Simulation::new();
        sim.run_until(SimTime::from_hours(self.hour));
        let mut home = HomeNetwork::build_with_generation(
            &mut sim,
            self.location.clone(),
            self.n_phones,
            self.wifi,
            self.generation,
            seed,
        );

        let segments = segment_video(&self.video);
        let sizes: Vec<f64> = segments.iter().map(|s| s.size_bytes).collect();
        let durations: Vec<f64> = segments.iter().map(|s| s.duration_secs).collect();

        // Path 0: ADSL. Paths 1..: phones with their RRC startup delay.
        let adsl_overhead = request_overhead_secs(self.location.adsl_down_bps * ADSL_EFFICIENCY);
        let phone_overhead = request_overhead_secs(
            self.generation.downlink_curve().per_device(1) * self.location.cell_factor_dl,
        );
        let mut paths = vec![PathSpec::new(home.adsl_download_path(), adsl_overhead, 0.0)];
        for i in 0..self.n_phones {
            let startup = match self.radio_start {
                RadioStart::Warm => {
                    home.warm_phone(i, sim.now());
                    0.0
                }
                RadioStart::Cold => home.acquire_phone(i, sim.now()),
            };
            paths.push(PathSpec::new(home.phone_download_path(i), phone_overhead, startup));
        }

        let spec = TransactionSpec::new(sizes.clone(), paths.len());
        let mut sched: Box<dyn MultipathScheduler> = match playout {
            None => build(self.policy, spec),
            Some((horizon_secs, startup_estimate_secs)) => {
                let player = PlayerModel::new(self.prebuffer_fraction);
                let k = player.prebuffer_segments(segments.len());
                let deadlines = PlayoutAware::vod_deadlines(
                    segments.len(),
                    self.video.segment_secs,
                    k,
                    startup_estimate_secs,
                );
                Box::new(PlayoutAware::new(spec, deadlines, horizon_secs))
            }
        };
        let result = TransactionRunner::new(paths, sizes)
            .run(&mut sim, sched.as_mut())
            .expect("VoD transaction must complete");

        // The playlist fetch precedes segment downloads.
        let playlist_secs = adsl_overhead;
        let player = PlayerModel::new(self.prebuffer_fraction);
        let completion: Vec<f64> = result.item_secs.iter().map(|t| t + playlist_secs).collect();
        let playout = player.playout(&completion, &durations);
        VodOutcome {
            prebuffer_secs: player.prebuffer_time_secs(&completion),
            download_secs: result.total_secs + playlist_secs,
            wasted_bytes: result.wasted_bytes,
            bytes_per_path: result.bytes_per_path,
            playout,
        }
    }

    /// Run `reps` repetitions and summarize pre-buffering and download
    /// times.
    pub fn run_mean(&self, reps: u64) -> VodSummary {
        let outcomes: Vec<VodOutcome> = (0..reps).map(|r| self.run_once(r)).collect();
        VodSummary::from_outcomes(&outcomes)
    }

    /// The same experiment without 3GOL (ADSL alone).
    pub fn adsl_only(&self) -> VodExperiment {
        let mut e = self.clone();
        e.n_phones = 0;
        e
    }
}

/// Result of one VoD repetition.
#[derive(Debug, Clone)]
pub struct VodOutcome {
    /// Pre-buffering time (request → first frame), seconds.
    pub prebuffer_secs: f64,
    /// Total video download time, seconds.
    pub download_secs: f64,
    /// Duplicate bytes discarded by the greedy scheduler.
    pub wasted_bytes: f64,
    /// Payload bytes moved per path (path 0 = ADSL).
    pub bytes_per_path: Vec<f64>,
    /// Playout analysis (stalls, finish time).
    pub playout: PlayoutReport,
}

/// Mean/σ summary across repetitions.
#[derive(Debug, Clone)]
pub struct VodSummary {
    /// Summary of pre-buffering times.
    pub prebuffer: Summary,
    /// Summary of full download times.
    pub download: Summary,
    /// Summary of wasted bytes.
    pub wasted: Summary,
    /// Mean bytes onloaded to phones (paths 1..) per repetition.
    pub mean_onloaded_bytes: f64,
}

impl VodSummary {
    /// Summarize a repetition block. `run_mean(n)` is exactly
    /// `from_outcomes` over `run_once(0..n)` in repetition order, so
    /// callers that shard repetitions across workers can rebuild the
    /// identical summary from the collected outcomes.
    pub fn from_outcomes(outcomes: &[VodOutcome]) -> VodSummary {
        let pre: Vec<f64> = outcomes.iter().map(|o| o.prebuffer_secs).collect();
        let dl: Vec<f64> = outcomes.iter().map(|o| o.download_secs).collect();
        let waste: Vec<f64> = outcomes.iter().map(|o| o.wasted_bytes).collect();
        let onloaded: f64 =
            outcomes.iter().map(|o| o.bytes_per_path.iter().skip(1).sum::<f64>()).sum::<f64>()
                / outcomes.len().max(1) as f64;
        VodSummary {
            prebuffer: Summary::of(&pre),
            download: Summary::of(&dl),
            wasted: Summary::of(&waste),
            mean_onloaded_bytes: onloaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(idx: usize) -> VideoQuality {
        VideoQuality::paper_ladder().swap_remove(idx)
    }

    fn reference(n_phones: usize, quality: VideoQuality) -> VodExperiment {
        VodExperiment::paper_default(LocationProfile::reference_2mbps(), quality, n_phones)
    }

    #[test]
    fn adsl_only_q1_near_paper_fig6() {
        // Fig 6 top: ADSL alone downloads the Q1 200 s video in ~41 s
        // on the 2 Mbit/s line.
        let out = reference(0, q(0)).run_once(0);
        assert!(
            out.download_secs > 30.0 && out.download_secs < 52.0,
            "Q1 ADSL download {}",
            out.download_secs
        );
    }

    #[test]
    fn adsl_only_q4_near_paper_fig6() {
        // Fig 6: ADSL alone, Q4 ≈ 127 s.
        let out = reference(0, q(3)).run_once(0);
        assert!(
            out.download_secs > 100.0 && out.download_secs < 150.0,
            "Q4 ADSL download {}",
            out.download_secs
        );
    }

    #[test]
    fn one_phone_speeds_up_substantially() {
        let adsl = reference(0, q(0)).run_mean(3);
        let gol = reference(1, q(0)).run_mean(3);
        let speedup = adsl.download.mean / gol.download.mean;
        // Fig 6: GRD with one phone cuts Q1 from 41 s to ~11-17 s.
        assert!(speedup > 1.5, "speedup {speedup}");
        assert!(gol.mean_onloaded_bytes > 0.0);
    }

    #[test]
    fn second_phone_helps_but_sublinearly() {
        let one = reference(1, q(2)).run_mean(3);
        let two = reference(2, q(2)).run_mean(3);
        assert!(two.download.mean < one.download.mean);
        // Not a 2× improvement (the paper: "the benefit does not
        // linearly scale with the number of phones").
        assert!(two.download.mean > one.download.mean * 0.5);
    }

    #[test]
    fn warm_start_no_slower_than_cold() {
        let mut cold = reference(1, q(0));
        cold.prebuffer_fraction = 0.2;
        let mut warm = cold.clone();
        warm.radio_start = RadioStart::Warm;
        let c = cold.run_mean(3);
        let w = warm.run_mean(3);
        // Warm start skips the acquisition delay; with short transactions
        // the gain is small but must not be negative on average.
        assert!(w.prebuffer.mean <= c.prebuffer.mean + 0.5);
    }

    #[test]
    fn prebuffer_grows_with_fraction() {
        let mut e = reference(1, q(1));
        e.prebuffer_fraction = 0.2;
        let small = e.run_mean(3);
        e.prebuffer_fraction = 1.0;
        let full = e.run_mean(3);
        assert!(small.prebuffer.mean < full.prebuffer.mean);
        // Full pre-buffer equals the whole download.
        assert!((full.prebuffer.mean - full.download.mean).abs() < 1e-6);
    }

    #[test]
    fn greedy_beats_min_on_average() {
        let mut grd = reference(1, q(1));
        grd.policy = Policy::Greedy;
        let mut min = grd.clone();
        min.policy = Policy::min_time_paper();
        let g = grd.run_mean(5);
        let m = min.run_mean(5);
        assert!(
            g.download.mean <= m.download.mean * 1.05,
            "GRD {} vs MIN {}",
            g.download.mean,
            m.download.mean
        );
    }

    #[test]
    fn outcomes_are_reproducible() {
        let e = reference(2, q(2));
        let a = e.run_once(7);
        let b = e.run_once(7);
        assert_eq!(a.download_secs, b.download_secs);
        assert_eq!(a.prebuffer_secs, b.prebuffer_secs);
    }
}
