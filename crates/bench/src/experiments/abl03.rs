//! Ablation: the §2.3 LTE outlook.
//!
//! > "If 4G is available, the concept of 3GOL is even more compelling.
//! > With the reduced latency, and the large increase of bandwidth,
//! > the period of powerboosting time might be extremely short."
//!
//! Same video, same locations, phones swapped from HSPA to LTE.

use threegol_core::vod::VodExperiment;
use threegol_hls::VideoQuality;
use threegol_radio::{LocationProfile, RadioGeneration};

use crate::experiment::{Experiment, Scale};
use crate::util::{reps, secs, Report};

/// The LTE-outlook ablation.
#[derive(Debug, Clone, Copy)]
pub struct Abl03;

/// One configuration cell: all its repetitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Phone radio generation; ignored when `n_phones` is 0.
    pub generation: RadioGeneration,
    /// Number of onloading phones (0 = ADSL alone).
    pub n_phones: usize,
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

impl Experiment for Abl03 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "abl03"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(10, scale.get());
        let mut units = vec![Unit { generation: RadioGeneration::Hspa, n_phones: 0, n_reps }];
        for generation in [RadioGeneration::Hspa, RadioGeneration::Lte] {
            for n_phones in [1usize, 2] {
                units.push(Unit { generation, n_phones, n_reps });
            }
        }
        units
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let q4 = VideoQuality::paper_ladder().swap_remove(3);
        let mut e =
            VodExperiment::paper_default(LocationProfile::reference_2mbps(), q4, unit.n_phones);
        e.generation = unit.generation;
        let s = e.run_mean(unit.n_reps);
        Partial { download_mean: s.download.mean, prebuffer_mean: s.prebuffer.mean }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        // Unit order: ADSL baseline, then HSPA ×1/×2, then LTE ×1/×2.
        let adsl = partials[0];
        let mut rows = vec![vec![
            "ADSL alone".into(),
            "-".into(),
            secs(adsl.download_mean),
            secs(adsl.prebuffer_mean),
        ]];
        let mut means = std::collections::HashMap::new();
        let mut rest = partials[1..].iter();
        for generation in [RadioGeneration::Hspa, RadioGeneration::Lte] {
            for n_phones in [1usize, 2] {
                let p = rest.next().expect("configuration cell");
                means.insert((generation, n_phones), p.download_mean);
                rows.push(vec![
                    format!("{generation:?} ×{n_phones}"),
                    format!("{n_phones}"),
                    secs(p.download_mean),
                    secs(p.prebuffer_mean),
                ]);
            }
        }
        let hspa2 = means[&(RadioGeneration::Hspa, 2)];
        let lte1 = means[&(RadioGeneration::Lte, 1)];
        let lte2 = means[&(RadioGeneration::Lte, 2)];
        Report::new(self.id(), "Ablation: HSPA vs LTE phones (§2.3 outlook)")
            .headers(&["setup", "phones", "download s", "prebuffer s"])
            .rows(rows)
            .check(
                "one LTE phone beats two HSPA phones",
                "4G makes 3GOL even more compelling",
                format!("LTE×1 {} s vs HSPA×2 {} s", secs(lte1), secs(hspa2)),
                lte1 < hspa2,
            )
            .check(
                "powerboosting period collapses",
                "the boosting period might be extremely short",
                format!(
                    "ADSL {} s → LTE×2 {} s (×{:.1})",
                    secs(adsl.download_mean),
                    secs(lte2),
                    adsl.download_mean / lte2
                ),
                lte2 < adsl.download_mean / 3.0,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn lte_ablation_holds() {
        let r = Abl03.run_serial(Scale::new(0.3).unwrap());
        assert!(r.all_ok(), "{}", r.render());
    }
}
