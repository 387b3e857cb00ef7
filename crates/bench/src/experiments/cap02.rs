//! §2.1 back-of-the-envelope: aggregate ADSL vs cellular capacity.

use threegol_core::capacity::CapacityModel;

use crate::experiment::{Experiment, Scale};
use crate::util::{close, Report};

/// The §2.1 capacity-comparison experiment.
#[derive(Debug, Clone, Copy)]
pub struct Cap02;

impl Experiment for Cap02 {
    // Closed-form arithmetic: one unit regenerates everything.
    type Unit = ();
    type Partial = Report;

    fn id(&self) -> &'static str {
        "cap02"
    }

    fn units(&self, _scale: Scale) -> Vec<()> {
        vec![()]
    }

    fn run_unit(&self, _unit: &()) -> Report {
        let m = CapacityModel::paper();
        Report::new(self.id(), "§2.1 back-of-the-envelope capacity comparison")
            .headers(&["quantity", "value"])
            .row(vec!["cell area".into(), format!("{:.3} km²", m.cell_area_km2())])
            .row(vec!["subscribers in cell".into(), format!("{:.0}", m.subscribers())])
            .row(vec!["ADSL lines in cell".into(), format!("{:.0}", m.adsl_lines())])
            .row(vec![
                "aggregate ADSL downlink".into(),
                format!("{:.3} Gbit/s", m.adsl_aggregate_dl_bps() / 1e9),
            ])
            .row(vec![
                "aggregate ADSL uplink".into(),
                format!("{:.3} Gbit/s", m.adsl_aggregate_ul_bps() / 1e9),
            ])
            .row(vec!["cell backhaul".into(), format!("{:.0} Mbit/s", m.cell_backhaul_bps / 1e6)])
            .row(vec!["wired/cellular downlink ratio".into(), format!("×{:.0}", m.dl_ratio())])
            .row(vec!["wired/cellular uplink ratio".into(), format!("×{:.1}", m.ul_ratio())])
            .check(
                "subscribers per cell",
                "4375",
                format!("{:.0}", m.subscribers()),
                close(m.subscribers(), 4375.0, 0.02),
            )
            .check(
                "ADSL lines per cell",
                "875",
                format!("{:.0}", m.adsl_lines()),
                close(m.adsl_lines(), 875.0, 0.02),
            )
            .check(
                "aggregate ADSL downlink",
                "5.863 Gbit/s",
                format!("{:.3} Gbit/s", m.adsl_aggregate_dl_bps() / 1e9),
                close(m.adsl_aggregate_dl_bps(), 5.863e9, 0.02),
            )
            .check(
                "capacity gap",
                "1–2 orders of magnitude",
                format!("×{:.0}", m.dl_ratio()),
                m.dl_ratio() >= 10.0 && m.dl_ratio() <= 1000.0,
            )
            .finish()
    }

    fn merge(&self, _scale: Scale, mut partials: Vec<Report>) -> Report {
        partials.pop().expect("one unit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::DynExperiment;

    #[test]
    fn reproduces_paper_numbers() {
        let r = Cap02.run_serial(Scale::FULL);
        assert!(r.all_ok(), "{}", r.render());
    }
}
