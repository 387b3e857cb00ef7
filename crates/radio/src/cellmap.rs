//! The city grid: which cell serves which home, at which hour, and
//! how a measured per-cell load becomes next-pass per-phone capacity.
//!
//! The paper's §6 aggregate analysis (Fig 11) asks what a whole city's
//! worth of 3GOL homes does to the shared cells. A [`CellMap`] is the
//! deterministic half of that question: a fixed grid of
//! [`CellSite`]s cycling through the paper's area kinds and
//! provisioning levels, with *weighted* home assignment (dense
//! residential cells serve several times the households of a suburb)
//! and diurnal *hour* assignment proportional to the wired traffic
//! profile of Fig 1 — 3GOL demand is wired-shaped, so most homes run
//! their workload in the DSL evening peak.
//!
//! Both assignments are pure functions of the home index, so a
//! streamed fleet can rebuild them on any worker's stack without
//! shared state, and the coupled fleet digest stays byte-identical for
//! any worker count.
//!
//! The feedback half lives in [`CellMap::phone_share`]: given the
//! [`CellLoad`] a fleet pass measured, it computes each phone's
//! per-hour share of the cell for the *next* pass — nominal rate,
//! scaled by the cell's diurnal availability (background users first,
//! as in [`availability_profile`]), then divided down by the
//! congestion the fleet itself caused. Load rises → shares drop →
//! the greedy scheduler shifts bytes back to ADSL → load falls: the
//! outer fixed-point loop in the bench crate iterates this to
//! convergence.

use threegol_simnet::capacity::DiurnalProfile;
use threegol_traces::diurnal::wired_diurnal_load;

use crate::consts::{
    HSDPA_CELL_MAX_BPS, HSUPA_MAX_BPS, UMTS_DEDICATED_DL_BPS, UMTS_DEDICATED_UL_BPS,
};
use crate::location::{availability_profile, AreaKind, Provisioning};

/// One base station's slice of the city.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSite {
    /// Kind of area the cell covers (drives the default weight).
    pub area: AreaKind,
    /// Background load level (drives the availability profile).
    pub provisioning: Provisioning,
    /// Homes-per-cell weight tier: a weight-4 cell is assigned four
    /// times the homes of a weight-1 cell.
    pub weight: u32,
    /// Shared HSDPA downlink capacity, bits/s.
    pub dl_capacity_bps: f64,
    /// Shared HSUPA uplink capacity, bits/s.
    pub ul_capacity_bps: f64,
}

impl CellSite {
    /// The fraction of this cell's capacity left over for 3GOL at each
    /// hour, after its background users.
    pub fn availability(&self) -> DiurnalProfile {
        availability_profile(self.provisioning)
    }
}

/// The 3GOL demand one fleet pass put on one cell: onloaded bytes per
/// hour, expressed as the mean extra bits/s the cell carried that
/// hour, per direction.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLoad {
    /// The cell.
    pub cell: u32,
    /// Homes attached to the cell.
    pub homes: u64,
    /// Mean extra downlink load by hour of day, bits/s.
    pub dl_bps: [f64; 24],
    /// Mean extra uplink load by hour of day, bits/s.
    pub ul_bps: [f64; 24],
}

impl CellLoad {
    /// An unloaded cell (the first fixed-point pass starts here).
    pub fn empty(cell: u32) -> CellLoad {
        CellLoad { cell, homes: 0, dl_bps: [0.0; 24], ul_bps: [0.0; 24] }
    }

    /// The largest hourly downlink load, bits/s.
    pub fn peak_dl_bps(&self) -> f64 {
        self.dl_bps.iter().cloned().fold(0.0, f64::max)
    }

    /// The largest hourly uplink load, bits/s.
    pub fn peak_ul_bps(&self) -> f64 {
        self.ul_bps.iter().cloned().fold(0.0, f64::max)
    }

    /// The hour with the largest combined load.
    pub fn peak_hour(&self) -> usize {
        (0..24)
            .max_by(|&a, &b| {
                (self.dl_bps[a] + self.ul_bps[a]).total_cmp(&(self.dl_bps[b] + self.ul_bps[b]))
            })
            .unwrap_or(0)
    }
}

/// Golden-ratio multiplier decorrelating a home's hour slot from its
/// cell slot (both are pure functions of the index).
const HOUR_MIX: u32 = 0x9e37_79b1;

/// A deterministic city grid of shared 3G cells.
///
/// ```
/// use threegol_radio::CellMap;
///
/// let city = CellMap::city(8);
/// assert_eq!(city.cells(), 8);
/// // Assignments are pure functions of the home index...
/// assert_eq!(city.cell_of(12345), city.cell_of(12345));
/// assert!(city.cell_of(12345) < 8);
/// assert!(city.hour_of(42) < 24);
/// // ...and dense-residential cells serve more homes than suburbs.
/// let mut homes = vec![0u32; 8];
/// for h in 0..8000 {
///     homes[city.cell_of(h) as usize] += 1;
/// }
/// assert!(homes[0] > 2 * homes[3], "{homes:?}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellMap {
    sites: Vec<CellSite>,
    /// Cumulative site weights: home slot `p` maps to the first site
    /// whose cumulative weight exceeds `p`.
    weight_cum: Vec<u32>,
    /// Cumulative per-mille hour weights from the wired diurnal curve.
    hour_cum: [u32; 24],
}

impl CellMap {
    /// Default homes-per-cell weight tiers by area kind: a dense
    /// residential cell serves 4× the homes of a suburb, office and
    /// tourist cells 2×.
    pub(crate) const DEFAULT_TIERS: [u32; 4] = [4, 2, 2, 1];

    /// A city of `cells` cells cycling through the four area kinds
    /// (dense residential, office, tourist, suburban) with the
    /// 4, 2, 2 and 1 homes-per-cell weights.
    pub fn city(cells: u32) -> CellMap {
        CellMap::city_with_tiers(cells, &Self::DEFAULT_TIERS)
    }

    /// A city of `cells` cells with explicit homes-per-cell weight
    /// tiers: cell `c` covers area kind `c % 4` and gets weight
    /// `tiers[c % tiers.len()]`.
    ///
    /// Provisioning follows the paper's Table 2 sketch: tourist cells
    /// are congested, suburbs well provisioned, the rest moderate.
    /// Tourist cells are sectorized (the paper's Location 3), doubling
    /// their shared capacity.
    pub fn city_with_tiers(cells: u32, tiers: &[u32]) -> CellMap {
        assert!(cells > 0, "a city needs at least one cell");
        assert!(!tiers.is_empty() && tiers.iter().all(|&w| w > 0), "weights must be positive");
        const AREAS: [AreaKind; 4] =
            [AreaKind::DenseResidential, AreaKind::Office, AreaKind::Tourist, AreaKind::Suburban];
        let sites: Vec<CellSite> = (0..cells)
            .map(|c| {
                let area = AREAS[(c % 4) as usize];
                let (provisioning, sectors) = match area {
                    AreaKind::Tourist => (Provisioning::Congested, 2.0),
                    AreaKind::Suburban => (Provisioning::Well, 1.0),
                    _ => (Provisioning::Moderate, 1.0),
                };
                CellSite {
                    area,
                    provisioning,
                    weight: tiers[(c as usize) % tiers.len()],
                    dl_capacity_bps: HSDPA_CELL_MAX_BPS * sectors,
                    ul_capacity_bps: HSUPA_MAX_BPS * sectors,
                }
            })
            .collect();
        CellMap::from_sites(sites)
    }

    /// A city from explicit sites.
    pub(crate) fn from_sites(sites: Vec<CellSite>) -> CellMap {
        assert!(!sites.is_empty(), "a city needs at least one cell");
        let mut weight_cum = Vec::with_capacity(sites.len());
        let mut acc = 0u32;
        for site in &sites {
            assert!(site.weight > 0, "cell weights must be positive");
            acc += site.weight;
            weight_cum.push(acc);
        }
        // Hour weights: the wired (DSLAM) diurnal curve in per-mille,
        // so hour assignment is pure integer arithmetic.
        let wired = wired_diurnal_load();
        let mut hour_cum = [0u32; 24];
        let mut acc = 0u32;
        for (h, slot) in hour_cum.iter_mut().enumerate() {
            acc += (wired.weights()[h] * 1000.0).round() as u32;
            *slot = acc;
        }
        CellMap { sites, weight_cum, hour_cum }
    }

    /// Number of cells.
    pub fn cells(&self) -> u32 {
        self.sites.len() as u32
    }

    /// The site of cell `cell`.
    pub fn site(&self, cell: u32) -> &CellSite {
        &self.sites[cell as usize]
    }

    /// The cell serving home `home`: home slots cycle through the
    /// cells proportionally to their weights, so consecutive indices
    /// spread over the whole city and a weight-4 cell sees 4× the
    /// homes of a weight-1 cell. Pure function of the index.
    pub fn cell_of(&self, home: u32) -> u32 {
        let total = *self.weight_cum.last().expect("at least one cell");
        let pos = home % total;
        self.weight_cum.partition_point(|&cum| cum <= pos) as u32
    }

    /// The hour of day home `home` runs its workload at, distributed
    /// over the day proportionally to the wired diurnal traffic curve
    /// (3GOL demand is DSL-shaped: Fig 1). Pure function of the index,
    /// decorrelated from the cell assignment.
    pub fn hour_of(&self, home: u32) -> u8 {
        let total = self.hour_cum[23];
        let pos = home.wrapping_mul(HOUR_MIX) % total;
        self.hour_cum.partition_point(|&cum| cum <= pos) as u8
    }

    /// Each phone's per-hour share of cell `cell` for the next fleet
    /// pass, `(downlink, uplink)` in bits/s, given the 3GOL load the
    /// cell carried in the previous pass.
    ///
    /// The share starts from the nominal per-phone rate scaled by the
    /// hour's availability (background users come first), then shrinks
    /// by the congestion ratio `load / leftover-capacity` — doubling
    /// the fleet's demand on a saturated cell halves everyone's share.
    /// Shares never drop below the dedicated-channel floors (a phone
    /// always gets *a* bearer) and never exceed the leftover capacity.
    pub fn phone_share(
        &self,
        cell: u32,
        nominal_dl_bps: f64,
        nominal_ul_bps: f64,
        load: &CellLoad,
    ) -> ([f64; 24], [f64; 24]) {
        let site = self.site(cell);
        let avail = site.availability();
        let mut dl = [0.0; 24];
        let mut ul = [0.0; 24];
        for h in 0..24 {
            let a = avail.weights()[h];
            let leftover_dl = site.dl_capacity_bps * a;
            let leftover_ul = site.ul_capacity_bps * a;
            dl[h] = (nominal_dl_bps * a / (1.0 + load.dl_bps[h] / leftover_dl))
                .clamp(UMTS_DEDICATED_DL_BPS, leftover_dl);
            ul[h] = (nominal_ul_bps * a / (1.0 + load.ul_bps[h] / leftover_ul))
                .clamp(UMTS_DEDICATED_UL_BPS, leftover_ul);
        }
        (dl, ul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_weight_proportional_and_deterministic() {
        let city = CellMap::city(8);
        let mut homes = [0u32; 8];
        for h in 0..18_000u32 {
            assert_eq!(city.cell_of(h), city.cell_of(h));
            homes[city.cell_of(h) as usize] += 1;
        }
        // Weights cycle 4,2,2,1 over 8 cells → per-cell shares of
        // 18/18k. Dense cells (0 and 4) get 4/18 each; suburbs (3, 7)
        // get 1/18.
        assert_eq!(homes[0], 18_000 * 4 / 18);
        assert_eq!(homes[3], 18_000 / 18);
        assert_eq!(homes[0], homes[4]);
        assert_eq!(homes.iter().sum::<u32>(), 18_000);
    }

    #[test]
    fn hours_follow_the_wired_curve() {
        let city = CellMap::city(4);
        let mut by_hour = [0u32; 24];
        for h in 0..100_000u32 {
            by_hour[city.hour_of(h) as usize] += 1;
        }
        // The wired curve peaks at 21:00 and bottoms out ~04:00; the
        // hour assignment must reproduce that shape.
        let peak = by_hour[21];
        let valley = by_hour[4];
        assert!(peak > 4 * valley, "peak {peak} valley {valley}");
        assert!((18..24).map(|h| by_hour[h]).sum::<u32>() > by_hour.iter().sum::<u32>() / 3);
        // Every hour gets someone.
        assert!(by_hour.iter().all(|&n| n > 0), "{by_hour:?}");
    }

    #[test]
    fn shares_shrink_under_load_and_respect_floors() {
        let city = CellMap::city(8);
        let unloaded = CellLoad::empty(2);
        let (dl0, ul0) = city.phone_share(2, 2e6, 1e6, &unloaded);
        let mut loaded = CellLoad::empty(2);
        loaded.dl_bps = [6e6; 24];
        loaded.ul_bps = [4e6; 24];
        let (dl1, ul1) = city.phone_share(2, 2e6, 1e6, &loaded);
        for h in 0..24 {
            assert!(dl1[h] < dl0[h], "hour {h}: {} !< {}", dl1[h], dl0[h]);
            assert!(ul1[h] < ul0[h]);
            assert!(dl1[h] >= UMTS_DEDICATED_DL_BPS);
            assert!(ul1[h] >= UMTS_DEDICATED_UL_BPS);
            assert!(dl0[h] <= city.site(2).dl_capacity_bps);
        }
        // Unloaded shares still dip at the mobile peak (background
        // users), most on a congested (tourist) cell.
        assert!(dl0[19] < dl0[4]);
    }

    #[test]
    fn congested_cells_give_less_at_peak_than_well_provisioned_ones() {
        let city = CellMap::city(8);
        // Cell 2 is tourist/congested, cell 3 suburban/well.
        let (dl_congested, _) = city.phone_share(2, 2e6, 1e6, &CellLoad::empty(2));
        let (dl_well, _) = city.phone_share(3, 2e6, 1e6, &CellLoad::empty(3));
        assert!(dl_congested[19] < dl_well[19]);
    }

    #[test]
    fn custom_tiers_and_single_cell_cities_work() {
        let flat = CellMap::city_with_tiers(3, &[1]);
        let mut homes = [0u32; 3];
        for h in 0..3000 {
            homes[flat.cell_of(h) as usize] += 1;
        }
        assert_eq!(homes, [1000; 3]);
        let one = CellMap::city(1);
        assert_eq!(one.cell_of(123_456_789), 0);
    }

    #[test]
    fn peak_hour_tracks_the_load() {
        let mut load = CellLoad::empty(0);
        load.dl_bps[21] = 5e6;
        load.ul_bps[21] = 1e6;
        load.dl_bps[4] = 1e6;
        assert_eq!(load.peak_hour(), 21);
        assert_eq!(load.peak_dl_bps(), 5e6);
        assert_eq!(load.peak_ul_bps(), 1e6);
    }
}
