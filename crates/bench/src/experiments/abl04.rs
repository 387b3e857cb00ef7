//! Ablation: the two deployment modes through a subscriber's day.
//!
//! Network-integrated 3GOL (§2.4) is permit-gated by cell load —
//! "offered only when the cellular infrastructure is lightly
//! utilized" — while multi-provider 3GOL (§6) is gated by each
//! device's cap quota. This experiment walks one household through a
//! day of videos under both policies at a congested and a
//! well-provisioned location.

use threegol_core::service::{DayOfVideos, ServicePolicy};
use threegol_hls::VideoQuality;
use threegol_radio::{LocationProfile, Provisioning};

use crate::experiment::{Experiment, Scale};
use crate::util::Report;

/// The deployment-mode ablation. Deterministic per cell; `scale` has
/// no knob here.
#[derive(Debug, Clone, Copy)]
pub struct Abl04;

/// One (service mode, provisioning) day-long walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// 0 = network-integrated (§2.4), 1 = multi-provider (§6).
    pub mode: usize,
    /// Cell provisioning at the household's location.
    pub provisioning: Provisioning,
}

/// One walked day: `(hour, phones_used, speedup)` per video.
pub(crate) type Partial = Vec<(f64, usize, f64)>;

fn mode_label(mode: usize) -> &'static str {
    ["integrated", "multi-provider"][mode]
}

impl Experiment for Abl04 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "abl04"
    }

    fn units(&self, _scale: Scale) -> Vec<Unit> {
        (0..2)
            .flat_map(|mode| {
                [Provisioning::Well, Provisioning::Congested]
                    .into_iter()
                    .map(move |provisioning| Unit { mode, provisioning })
            })
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let hours = [4.0, 9.0, 12.0, 15.0, 19.0, 21.0];
        let policy = match unit.mode {
            0 => ServicePolicy::network_integrated(),
            _ => ServicePolicy::multi_provider(),
        };
        let mut location = LocationProfile::reference_2mbps();
        location.provisioning = unit.provisioning;
        let day = DayOfVideos {
            location,
            quality: VideoQuality::paper_ladder().swap_remove(3),
            n_phones: 2,
            policy,
            seed: 0xAB14,
        };
        day.run(&hours).iter().map(|v| (v.hour, v.phones_used, v.speedup())).collect()
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let mut rows = Vec::new();
        let mut peak_denied_congested = false;
        let mut night_granted_congested = false;
        let mut well_always_granted = true;
        let mut quota_exhausts = false;
        let mut days = partials.into_iter();
        for mode in 0..2 {
            for provisioning in [Provisioning::Well, Provisioning::Congested] {
                let videos = days.next().expect("one day per unit");
                for (hour, phones_used, speedup) in videos {
                    if mode == 0 && provisioning == Provisioning::Congested {
                        if hour == 19.0 && phones_used == 0 {
                            peak_denied_congested = true;
                        }
                        if hour == 4.0 && phones_used == 2 {
                            night_granted_congested = true;
                        }
                    }
                    if mode == 0 && provisioning == Provisioning::Well && phones_used != 2 {
                        well_always_granted = false;
                    }
                    if mode == 1 && phones_used == 0 {
                        quota_exhausts = true;
                    }
                    rows.push(vec![
                        mode_label(mode).to_string(),
                        format!("{provisioning:?}"),
                        format!("{hour:02.0}:00"),
                        phones_used.to_string(),
                        format!("×{speedup:.2}"),
                    ]);
                }
            }
        }
        Report::new(
            self.id(),
            "Ablation: network-integrated (permits) vs multi-provider (caps) over a day",
        )
        .headers(&["mode", "provisioning", "hour", "phones", "speedup"])
        .rows(rows)
        .check(
            "congested peak denies permits",
            "transmission denied when utilization above threshold",
            format!("peak denial observed: {peak_denied_congested}"),
            peak_denied_congested,
        )
        .check(
            "night grants permits",
            "off-peak capacity is offered to 3GOL",
            format!("night grant observed: {night_granted_congested}"),
            night_granted_congested,
        )
        .check(
            "well-provisioned cells boost all day",
            "some cells have leftover capacity even during peak hours",
            format!("always granted: {well_always_granted}"),
            well_always_granted,
        )
        .check(
            "caps eventually bind",
            "multi-provider quota exhausts within a heavy day",
            format!("exhaustion observed: {quota_exhausts}"),
            quota_exhausts,
        )
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn deployment_mode_ablation_holds() {
        let r = Abl04.run_serial(Scale::new(0.5).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
