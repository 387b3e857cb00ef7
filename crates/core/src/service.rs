//! The 3GOL service policy layer: who may assist, and with how much.
//!
//! The paper describes two deployment modes:
//!
//! * **Network-integrated** (§2.4): one operator owns both networks;
//!   devices ask the 3GOL backend for transmission permits, which are
//!   granted only while cell utilization is below an acceptance
//!   threshold ("offered only when the cellular infrastructure is
//!   lightly utilized"). No metering against the user's data plan.
//! * **Multi-provider** (§6): no operator cooperation; each device
//!   gates itself on its remaining volume-cap quota `A(t)` from the
//!   allowance estimator.
//!
//! [`ServicePolicy`] decides, at a given instant, which of a
//! household's phones may join the admissible set Φ, and
//! [`DayOfVideos`] simulates a subscriber's day — every video boosted
//! through the policy, quotas depleting, permits granted and denied as
//! cell load moves through the diurnal cycle.

use threegol_caps::QuotaTracker;
use threegol_hls::VideoQuality;
use threegol_radio::{LocationProfile, Provisioning};
use threegol_simnet::SimTime;

use crate::permits::PermitBackend;
use crate::vod::{VodExperiment, VodOutcome};

/// Deployment mode of the 3GOL service.
#[derive(Debug, Clone)]
pub enum Mode {
    /// One operator, permit-gated, unmetered (§2.4).
    NetworkIntegrated {
        /// Cell-utilization threshold above which permits are denied.
        acceptance_threshold: f64,
    },
    /// Separate operators; each device spends its own cap quota (§6).
    MultiProvider {
        /// Daily 3GOL allowance per device, bytes (paper: 20 MB).
        daily_budget_bytes: f64,
    },
}

/// The policy deciding which phones may assist a transaction.
#[derive(Debug, Clone)]
pub struct ServicePolicy {
    /// Deployment mode.
    pub mode: Mode,
}

impl ServicePolicy {
    /// The paper's network-integrated configuration: permits while
    /// utilization is below 40 %.
    pub fn network_integrated() -> ServicePolicy {
        ServicePolicy { mode: Mode::NetworkIntegrated { acceptance_threshold: 0.40 } }
    }

    /// The paper's multi-provider configuration: 20 MB/device/day.
    pub fn multi_provider() -> ServicePolicy {
        ServicePolicy { mode: Mode::MultiProvider { daily_budget_bytes: 20e6 } }
    }

    /// Which phones (tracker indices) may assist at `now`, at a
    /// location with the given provisioning.
    ///
    /// Network-integrated mode grants all-or-nothing (one permit check
    /// covers the cell area); multi-provider mode admits exactly the
    /// phones with positive quota.
    pub(crate) fn admissible_indices(
        &self,
        provisioning: Provisioning,
        now: SimTime,
        trackers: &[QuotaTracker],
    ) -> Vec<usize> {
        match &self.mode {
            Mode::NetworkIntegrated { acceptance_threshold } => {
                let backend = PermitBackend::new(provisioning, *acceptance_threshold);
                if backend.request_permit(now).is_some() {
                    (0..trackers.len()).collect()
                } else {
                    Vec::new()
                }
            }
            Mode::MultiProvider { .. } => trackers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.should_advertise())
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// Convenience: how many phones may assist.
    pub fn admissible_count(
        &self,
        provisioning: Provisioning,
        now: SimTime,
        trackers: &[QuotaTracker],
    ) -> usize {
        self.admissible_indices(provisioning, now, trackers).len()
    }

    /// Fresh per-phone quota trackers for a new day.
    pub fn day_trackers(&self, n_phones: usize) -> Vec<QuotaTracker> {
        let allowance = match &self.mode {
            // Unmetered: effectively unlimited for a day's use.
            Mode::NetworkIntegrated { .. } => f64::INFINITY,
            Mode::MultiProvider { daily_budget_bytes } => *daily_budget_bytes,
        };
        (0..n_phones).map(|_| QuotaTracker::new(allowance)).collect()
    }
}

/// One boosted video within a [`DayOfVideos`].
#[derive(Debug, Clone)]
pub struct BoostedVideo {
    /// Hour-of-day the video started.
    pub hour: f64,
    /// Phones that were admissible for this video.
    pub phones_used: usize,
    /// The video outcome.
    pub outcome: VodOutcome,
    /// ADSL-only baseline download time, seconds.
    pub adsl_secs: f64,
}

impl BoostedVideo {
    /// Download speedup over ADSL alone.
    pub fn speedup(&self) -> f64 {
        self.adsl_secs / self.outcome.download_secs
    }
}

/// Simulate a subscriber's day: `hours` video requests, each boosted
/// through `policy`, phone quotas carrying over between videos.
pub struct DayOfVideos {
    /// Household location.
    pub location: LocationProfile,
    /// Video rendition watched.
    pub quality: VideoQuality,
    /// Number of phones in the home.
    pub n_phones: usize,
    /// The service policy.
    pub policy: ServicePolicy,
    /// Base seed.
    pub seed: u64,
}

impl DayOfVideos {
    /// Run the day: one video starting at each hour in `hours`.
    pub fn run(&self, hours: &[f64]) -> Vec<BoostedVideo> {
        let mut trackers = self.policy.day_trackers(self.n_phones);
        let mut out = Vec::new();
        for (k, &hour) in hours.iter().enumerate() {
            let mut e = VodExperiment::paper_default(
                self.location.clone(),
                self.quality.clone(),
                self.n_phones,
            );
            e.hour = hour;
            e.seed = self.seed ^ 0xDA1;
            let admissible = self.policy.admissible_indices(
                self.location.provisioning,
                SimTime::from_hours(hour),
                &trackers,
            );
            e.n_phones = admissible.len();
            let adsl_secs = e.adsl_only().run_once(k as u64).download_secs;
            let outcome = if admissible.is_empty() {
                e.adsl_only().run_once(k as u64)
            } else {
                e.run_once(k as u64)
            };
            // Charge onloaded bytes to the phones that actually
            // assisted: transaction path `1 + k` is admissible phone `k`.
            for (path_bytes, &tracker_idx) in outcome.bytes_per_path.iter().skip(1).zip(&admissible)
            {
                trackers[tracker_idx].consume(*path_bytes);
            }
            out.push(BoostedVideo { hour, phones_used: admissible.len(), outcome, adsl_secs });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trackers(n: usize, allowance: f64) -> Vec<QuotaTracker> {
        (0..n).map(|_| QuotaTracker::new(allowance)).collect()
    }

    #[test]
    fn integrated_mode_gates_on_cell_load() {
        let policy = ServicePolicy::network_integrated();
        let t = trackers(2, 1e9);
        // Congested cell at peak: denied; at night: granted.
        let peak = SimTime::from_hours(19.0);
        let night = SimTime::from_hours(4.0);
        assert_eq!(policy.admissible_count(Provisioning::Congested, peak, &t), 0);
        assert_eq!(policy.admissible_count(Provisioning::Congested, night, &t), 2);
        // Well-provisioned cell: granted even at peak (the paper's
        // "some cells have left over capacity even during peak hours").
        assert_eq!(policy.admissible_count(Provisioning::Well, peak, &t), 2);
    }

    #[test]
    fn multi_provider_gates_on_quota() {
        let policy = ServicePolicy::multi_provider();
        let mut t = trackers(3, 10e6);
        let now = SimTime::from_hours(19.0); // peak is irrelevant here
        assert_eq!(policy.admissible_count(Provisioning::Congested, now, &t), 3);
        t[0].consume(10e6);
        t[2].consume(10e6);
        assert_eq!(policy.admissible_count(Provisioning::Congested, now, &t), 1);
    }

    #[test]
    fn integrated_day_trackers_are_unmetered() {
        let t = ServicePolicy::network_integrated().day_trackers(2);
        assert!(t.iter().all(|t| t.available_bytes() > 1e15));
        let t = ServicePolicy::multi_provider().day_trackers(2);
        assert!(t.iter().all(|t| t.available_bytes() == 20e6));
    }

    #[test]
    fn day_quota_depletes_and_boost_degrades() {
        let day = DayOfVideos {
            location: LocationProfile::reference_2mbps(),
            quality: VideoQuality::paper_ladder().swap_remove(3),
            n_phones: 2,
            policy: ServicePolicy::multi_provider(),
            seed: 11,
        };
        // Q4 video ≈ 18.4 MB; phones carry most of it, so a 20 MB/phone
        // budget is exhausted within a few videos.
        let videos = day.run(&[9.0, 10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(videos.len(), 6);
        assert!(videos[0].phones_used == 2);
        assert!(videos[0].speedup() > 1.3, "first video speedup {}", videos[0].speedup());
        let last = videos.last().unwrap();
        assert_eq!(last.phones_used, 0, "quota should be exhausted by the last video");
        assert!(last.speedup() <= 1.05);
        // Monotone depletion: phones_used never increases.
        for w in videos.windows(2) {
            assert!(w[1].phones_used <= w[0].phones_used);
        }
    }

    #[test]
    fn integrated_day_follows_diurnal_permits() {
        let mut location = LocationProfile::reference_2mbps();
        location.provisioning = Provisioning::Congested;
        let day = DayOfVideos {
            location,
            quality: VideoQuality::paper_ladder().swap_remove(1),
            n_phones: 2,
            policy: ServicePolicy::network_integrated(),
            seed: 13,
        };
        let videos = day.run(&[4.0, 19.0]);
        assert_eq!(videos[0].phones_used, 2, "night permit expected");
        assert_eq!(videos[1].phones_used, 0, "peak denial expected");
        assert!(videos[0].speedup() > videos[1].speedup());
    }
}
