//! Fig 9: total upload time for the 30-photo set (ADSL alone vs 3GOL
//! with one and two devices starting from idle) at the five evaluation
//! locations.

use threegol_core::upload::UploadExperiment;
use threegol_radio::LocationProfile;

use crate::experiment::{Experiment, Scale};
use crate::util::{reps, secs, Report};

/// The Fig 9 photo-upload experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig09;

/// One (location, device-count) cell: all its repetitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Index into the five Table 4 evaluation locations.
    pub li: usize,
    /// Number of onloading phones (0 = ADSL alone).
    pub n_phones: usize,
    /// Repetitions per cell.
    pub n_reps: u64,
}

/// Mean total upload time for one cell, seconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Partial {
    /// Mean of `total` across the cell's repetitions.
    pub total_mean: f64,
}

impl Experiment for Fig09 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "fig09"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(10, scale.get());
        (0..LocationProfile::paper_table4().len())
            .flat_map(|li| (0..=2).map(move |n_phones| Unit { li, n_phones, n_reps }))
            .collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let loc = LocationProfile::paper_table4().into_iter().nth(unit.li).expect("location");
        Partial {
            total_mean: UploadExperiment::paper_default(loc, unit.n_phones)
                .run_mean(unit.n_reps)
                .total
                .mean,
        }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let locations = LocationProfile::paper_table4();
        // Unit order: per location, ADSL then 1 then 2 phones.
        let mut triples = partials.chunks(3);
        let mut rows = Vec::new();
        let mut red1: Vec<f64> = Vec::new();
        let mut red2: Vec<f64> = Vec::new();
        for loc in &locations {
            let t = triples.next().expect("location triple");
            let (adsl, one, two) = (t[0].total_mean, t[1].total_mean, t[2].total_mean);
            red1.push((adsl - one) / adsl);
            red2.push((adsl - two) / adsl);
            rows.push(vec![
                loc.name.clone(),
                secs(adsl),
                secs(one),
                secs(two),
                format!("×{:.1}/×{:.1}", adsl / one, adsl / two),
            ]);
        }
        let r1_min = red1.iter().cloned().fold(f64::INFINITY, f64::min);
        let r1_max = red1.iter().cloned().fold(0.0, f64::max);
        let r2_min = red2.iter().cloned().fold(f64::INFINITY, f64::min);
        let r2_max = red2.iter().cloned().fold(0.0, f64::max);
        Report::new(self.id(), "Fig 9: 30-photo upload time (s): ADSL vs 1 and 2 devices")
            .headers(&["location", "ADSL s", "1 phone s", "2 phones s", "speedup (1ph/2ph)"])
            .rows(rows)
            .check(
                "one-device reduction",
                "31 % – 75 % (speedup ×1.5–×4.0)",
                format!("{:.0}% – {:.0}%", r1_min * 100.0, r1_max * 100.0),
                r1_min > 0.2 && r1_max < 0.85,
            )
            .check(
                "two-device reduction",
                "54 % – 84 % (speedup ×2.2–×6.2)",
                format!("{:.0}% – {:.0}%", r2_min * 100.0, r2_max * 100.0),
                r2_min > 0.35 && r2_max < 0.92,
            )
            .check(
                "two devices beat one everywhere",
                "second device always reduces upload time",
                format!(
                    "min gap {:.0} pp",
                    red2.iter()
                        .zip(&red1)
                        .map(|(b, a)| (b - a) * 100.0)
                        .fold(f64::INFINITY, f64::min)
                ),
                red2.iter().zip(&red1).all(|(b, a)| b >= a),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn fig9_reductions_hold() {
        let r = Fig09.run_serial(Scale::new(0.2).unwrap());
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 2 + 5);
    }
}
