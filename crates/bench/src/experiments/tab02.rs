//! Table 2: DSL vs 3GOL (DSL + 3 devices of 3G) throughput at the six
//! measurement locations.

use threegol_measure::table2_row;
use threegol_radio::LocationProfile;

use crate::experiment::{Experiment, Scale};
use crate::util::{close, mbps, reps, Report};

/// The Table 2 reproduction experiment.
#[derive(Debug, Clone, Copy)]
pub struct Tab02;

/// One measurement location.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Unit {
    /// Index into the six Table 2 locations.
    pub li: usize,
    /// Repetitions per measurement.
    pub n_reps: u64,
}

/// One location's measured row.
#[derive(Debug, Clone)]
pub(crate) struct Partial {
    /// The location's display name.
    pub name: String,
    /// Measured DSL (down, up) bits/s.
    pub dsl_bps: (f64, f64),
    /// Measured aggregate 3G (down, up) bits/s.
    pub g3_bps: (f64, f64),
    /// 3GOL over DSL speedup (down, up).
    pub speedup: (f64, f64),
    /// The paper's 3G (down, up) anchors for this location.
    pub paper_g3_bps: (f64, f64),
}

impl Experiment for Tab02 {
    type Unit = Unit;
    type Partial = Partial;

    fn id(&self) -> &'static str {
        "tab02"
    }

    fn units(&self, scale: Scale) -> Vec<Unit> {
        let n_reps = reps(8, scale.get());
        (0..LocationProfile::paper_table2().len()).map(|li| Unit { li, n_reps }).collect()
    }

    fn run_unit(&self, unit: &Unit) -> Partial {
        let loc = LocationProfile::paper_table2().into_iter().nth(unit.li).expect("location");
        let row = table2_row(&loc, 0x7AB2 + unit.li as u64, unit.n_reps);
        Partial {
            name: loc.name.clone(),
            dsl_bps: row.dsl_bps,
            g3_bps: row.g3_bps,
            speedup: row.speedup,
            paper_g3_bps: row.paper_g3_bps.expect("table2 targets"),
        }
    }

    fn merge(&self, _scale: Scale, partials: Vec<Partial>) -> Report {
        let mut report =
            Report::new(self.id(), "Table 2: DSL vs 3GOL (3 devices) at the measurement locations")
                .headers(&[
                    "location",
                    "DSL Mbit/s (d/u)",
                    "3G Mbit/s (d/u)",
                    "3GOL/DSL (d/u)",
                    "paper 3G (d/u)",
                ]);
        for (li, p) in partials.iter().enumerate() {
            let (paper_dl, paper_ul) = p.paper_g3_bps;
            report = report.row(vec![
                p.name.clone(),
                format!("{}/{}", mbps(p.dsl_bps.0), mbps(p.dsl_bps.1)),
                format!("{}/{}", mbps(p.g3_bps.0), mbps(p.g3_bps.1)),
                format!("{:.2}/{:.2}", p.speedup.0, p.speedup.1),
                format!("{}/{}", mbps(paper_dl), mbps(paper_ul)),
            ]);
            if li == 0 {
                // Headline: "increase downlink throughput of ADSL
                // connections by ×2.6 and uplink capacity by ×12.9,
                // while using 3 devices".
                report = report
                    .check(
                        "loc1 downlink speedup",
                        "×2.67",
                        format!("×{:.2}", p.speedup.0),
                        close(p.speedup.0, 2.67, 0.30),
                    )
                    .check(
                        "loc1 uplink speedup",
                        "×12.93",
                        format!("×{:.2}", p.speedup.1),
                        close(p.speedup.1, 12.93, 0.30),
                    );
            }
            report = report.check(
                format!("{} 3G dl", p.name),
                format!("{} Mbit/s", mbps(paper_dl)),
                format!("{} Mbit/s", mbps(p.g3_bps.0)),
                close(p.g3_bps.0, paper_dl, 0.35),
            );
        }
        // VDSL observation: loc6's fast line leaves ~no downlink
        // headroom. table2_row is deterministic per (seed, reps), so
        // the li=5 partial already holds the value.
        let row6 = &partials[5];
        report
            .check(
                "loc6 (55 Mbit/s VDSL) headroom",
                "×1.04 downlink (3G adds little to a fat pipe)",
                format!("×{:.2}", row6.speedup.0),
                row6.speedup.0 < 1.15,
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn table2_reproduced() {
        let r = Tab02.run_serial(Scale::new(0.5).unwrap());
        assert!(r.all_ok(), "{}", r.render());
        assert_eq!(r.body.lines().count(), 2 + 6);
    }
}
