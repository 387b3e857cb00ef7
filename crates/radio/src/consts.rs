//! Radio and network constants taken directly from the paper (§2, §3)
//! and from the UMTS/HSPA specifications the paper cites.

/// HSUPA (E-DCH) uplink channel ceiling, bits/s — "5.76 Mbps ... the
/// maximum capacity for HSUPA" (§3).
pub const HSUPA_MAX_BPS: f64 = 5.76e6;

/// Effective HSDPA (HS-DSCH) downlink cell throughput ceiling, bits/s.
///
/// The paper's Fig 3 shows aggregate downlink up to ~14 Mbit/s across
/// the ≥2 base stations covering a location, i.e. ~7 Mbit/s per cell —
/// consistent with a Category 7/8 HSDPA deployment of the era.
pub const HSDPA_CELL_MAX_BPS: f64 = 7.2e6;

/// Dedicated (non-HSPA) UMTS downlink channel under good radio
/// conditions, bits/s — the solid 360 kbit/s line in Fig 5.
pub const UMTS_DEDICATED_DL_BPS: f64 = 360e3;

/// Dedicated UMTS uplink channel, bits/s — the 64 kbit/s line in Fig 5.
pub const UMTS_DEDICATED_UL_BPS: f64 = 64e3;

/// Typical cell-tower backhaul, bits/s — "40−50 Mbps backhaul" (§2.1).
pub const CELL_BACKHAUL_BPS: f64 = 40e6;

/// Average ADSL downlink speed used in §2.1's back-of-envelope
/// calculation (Netalyzr-reported), bits/s.
pub const ADSL_AVG_DL_BPS: f64 = 6.7e6;

/// 802.11g TCP goodput ceiling on the home LAN, bits/s (§4.1).
pub const WIFI_80211G_GOODPUT_BPS: f64 = 24e6;

/// 802.11n TCP goodput ceiling on the home LAN, bits/s (§4.1).
pub const WIFI_80211N_GOODPUT_BPS: f64 = 110e6;

/// Cell coverage radius assumed in §2.1, meters.
pub const CELL_RADIUS_M: f64 = 200.0;

/// Downtown population density assumed in §2.1, inhabitants per km².
pub const POP_DENSITY_PER_KM2: f64 = 35_000.0;

/// Household size assumed in §2.1.
pub const HOUSEHOLD_SIZE: f64 = 4.0;

/// ADSL penetration assumed in §2.1.
pub const ADSL_PENETRATION: f64 = 0.8;

/// Map a 3G signal strength in dBm to a rate multiplier in `(0, 1]`.
///
/// Table 4 reports −81…−97 dBm across the evaluation locations; we map
/// −75 dBm or better to full rate and degrade linearly to 40 % of the
/// nominal rate at −105 dBm (deep indoor coverage).
pub fn signal_to_rate_factor(dbm: f64) -> f64 {
    let hi = -75.0; // full rate at or above this
    let lo = -105.0; // worst considered coverage
    let floor = 0.4;
    if dbm >= hi {
        1.0
    } else if dbm <= lo {
        floor
    } else {
        floor + (1.0 - floor) * (dbm - lo) / (hi - lo)
    }
}

/// Convert dBm to the Android ASU scale used in Table 4 (`asu = (dbm+113)/2`).
pub fn dbm_to_asu(dbm: f64) -> f64 {
    (dbm + 113.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_mapping_is_monotone_and_bounded() {
        assert_eq!(signal_to_rate_factor(-60.0), 1.0);
        assert_eq!(signal_to_rate_factor(-75.0), 1.0);
        assert_eq!(signal_to_rate_factor(-120.0), 0.4);
        let mid = signal_to_rate_factor(-90.0);
        assert!(mid > 0.4 && mid < 1.0);
        assert!(signal_to_rate_factor(-85.0) > signal_to_rate_factor(-95.0));
    }

    #[test]
    fn asu_matches_table4() {
        // Table 4: loc1 = -81 dBm / 16 ASU.
        assert_eq!(dbm_to_asu(-81.0), 16.0);
        // loc2 = -95 dBm / 9 ASU.
        assert_eq!(dbm_to_asu(-95.0), 9.0);
    }
}
