//! Ablation: the home Wi-Fi standard (802.11g vs 802.11n).
//!
//! §4.1 bounds 3GOL's backhaul aggregation by the LAN goodput
//! (~24 Mbit/s for 802.11g, ~110 Mbit/s for 802.11n). On the paper's
//! HSPA setups the LAN never binds; with a fast line plus LTE phones
//! (the §2.3 outlook) an 802.11g LAN becomes the bottleneck. This
//! ablation quantifies both regimes.

use threegol_core::home::WifiStandard;
use threegol_core::vod::VodExperiment;
use threegol_hls::VideoQuality;
use threegol_radio::{LocationProfile, RadioGeneration};

use crate::experiment::{Experiment, Scale};
use crate::util::{reps, secs, Report};

/// The Wi-Fi-standard ablation.
#[derive(Debug, Clone, Copy)]
pub struct Abl01;

/// One (setup, Wi-Fi standard) cell: all its repetitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// 0 = HSPA on 2 Mbit/s ADSL, 1 = LTE on 21.6 Mbit/s line.
    pub setup: usize,
    /// The LAN standard under test.
    pub wifi: WifiStandard,
    /// Repetitions per cell.
    pub n_reps: u64,
}

/// One cell's mean download and pre-buffer times.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partial {
    /// Mean total download time, seconds.
    pub download_mean: f64,
    /// Mean pre-buffer time, seconds.
    pub prebuffer_mean: f64,
}

fn setup(index: usize) -> (&'static str, LocationProfile, RadioGeneration) {
    match index {
        0 => ("HSPA on 2 Mbit/s ADSL", LocationProfile::reference_2mbps(), RadioGeneration::Hspa),
        _ => (
            "LTE on 21.6 Mbit/s line",
            LocationProfile::paper_table4().swap_remove(1),
            RadioGeneration::Lte,
        ),
    }
}

impl Experiment for Abl01 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "abl01"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(10, scale.get());
        (0..2)
            .flat_map(|setup| {
                [WifiStandard::G, WifiStandard::N].into_iter().map(move |wifi| Unit {
                    setup,
                    wifi,
                    n_reps,
                })
            })
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let q4 = VideoQuality::paper_ladder().swap_remove(3);
        let (_, location, generation) = setup(unit.setup);
        let mut e = VodExperiment::paper_default(location, q4, 2);
        e.wifi = unit.wifi;
        e.generation = generation;
        let s = e.run_mean(unit.n_reps);
        Partial { download_mean: s.download.mean, prebuffer_mean: s.prebuffer.mean }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        // Unit order: per setup, 802.11g then 802.11n.
        let mut rows = Vec::new();
        let mut results = Vec::new();
        for (si, pair) in partials.chunks(2).enumerate() {
            let (name, _, _) = setup(si);
            for (p, wifi) in pair.iter().zip([WifiStandard::G, WifiStandard::N]) {
                rows.push(vec![
                    name.to_string(),
                    format!("{wifi:?}"),
                    secs(p.download_mean),
                    secs(p.prebuffer_mean),
                ]);
            }
            results.push((pair[0].download_mean, pair[1].download_mean)); // (g, n)
        }
        let (hspa_g, hspa_n) = results[0];
        let (lte_g, lte_n) = results[1];
        Report::new(self.id(), "Ablation: Wi-Fi LAN standard (802.11g vs 802.11n)")
            .headers(&["setup", "wifi", "download s", "prebuffer s"])
            .rows(rows)
            .check(
                "HSPA era: LAN never binds",
                "802.11g ≈ 802.11n for HSPA-rate onloading",
                format!("g {} s vs n {} s", secs(hspa_g), secs(hspa_n)),
                (hspa_g / hspa_n - 1.0).abs() < 0.10,
            )
            .check(
                "LTE outlook: 802.11n pays off",
                "an 802.11g LAN caps high-rate aggregation",
                format!("g {} s vs n {} s", secs(lte_g), secs(lte_n)),
                lte_n <= lte_g * 1.02,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn wifi_ablation_holds() {
        let r = Abl01.run_serial(Scale::new(0.3).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
