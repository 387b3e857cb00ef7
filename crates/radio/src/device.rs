//! Handset model: device categories and their rate ceilings.

use crate::consts;
use crate::rrc::{RrcConfig, RrcMachine};

/// HSPA device category, determining hard rate ceilings.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DeviceCategory {
    /// Samsung Galaxy S II as used in the paper's §3 measurements:
    /// "MIMO HSDPA Category 20 and HSUPA Category 6".
    GalaxyS2,
    /// A conservative older handset (HSDPA Cat 8 / HSUPA Cat 5).
    Legacy,
    /// Custom ceilings, bits/s.
    Custom {
        /// Downlink ceiling, bits/s.
        dl_max_bps: f64,
        /// Uplink ceiling, bits/s.
        ul_max_bps: f64,
    },
}

impl DeviceCategory {
    /// Hard downlink ceiling, bits/s.
    pub fn dl_max_bps(self) -> f64 {
        match self {
            // HSDPA Cat 20 (MIMO): 42 Mbit/s theoretical; real-world
            // ceiling far above anything a shared cell delivers.
            DeviceCategory::GalaxyS2 => 42.0e6,
            DeviceCategory::Legacy => 7.2e6,
            DeviceCategory::Custom { dl_max_bps, .. } => dl_max_bps,
        }
    }

    /// Hard uplink ceiling, bits/s.
    pub fn ul_max_bps(self) -> f64 {
        match self {
            // HSUPA Cat 6: 5.76 Mbit/s.
            DeviceCategory::GalaxyS2 => consts::HSUPA_MAX_BPS,
            DeviceCategory::Legacy => 2.0e6,
            DeviceCategory::Custom { ul_max_bps, .. } => ul_max_bps,
        }
    }
}

/// A 3G-capable device participating in 3GOL.
#[derive(Debug, Clone)]
pub struct Device {
    /// Display name, e.g. `"phone-1"`.
    pub name: String,
    /// HSPA category (rate ceilings).
    pub category: DeviceCategory,
    /// RRC state machine (channel-acquisition delays).
    pub rrc: RrcMachine,
}

impl Device {
    /// A Galaxy S II — the handset used throughout the paper.
    pub fn galaxy_s2(name: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            category: DeviceCategory::GalaxyS2,
            rrc: RrcMachine::new(RrcConfig::default()),
        }
    }

    /// An LTE-capable handset for the §2.3 outlook experiments
    /// (category ceilings matching an early LTE cat-3 device).
    pub fn lte(name: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            category: DeviceCategory::Custom { dl_max_bps: 100.0e6, ul_max_bps: 50.0e6 },
            rrc: RrcMachine::new(crate::lte::RadioGeneration::Lte.rrc_config()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn galaxy_s2_matches_paper_categories() {
        let d = Device::galaxy_s2("p1");
        assert_eq!(d.category.ul_max_bps(), 5.76e6);
        assert!(d.category.dl_max_bps() >= 21.0e6);
    }

    #[test]
    fn custom_category() {
        let c = DeviceCategory::Custom { dl_max_bps: 1.0, ul_max_bps: 2.0 };
        assert_eq!(c.dl_max_bps(), 1.0);
        assert_eq!(c.ul_max_bps(), 2.0);
    }

    #[test]
    fn legacy_is_slower() {
        assert!(DeviceCategory::Legacy.dl_max_bps() < DeviceCategory::GalaxyS2.dl_max_bps());
        assert!(DeviceCategory::Legacy.ul_max_bps() < DeviceCategory::GalaxyS2.ul_max_bps());
    }
}
