//! The simulated household: origin server, ADSL line, Wi-Fi LAN and
//! the local cellular deployment.
//!
//! The paper's prototype setup (§4.1/§5): all devices join the
//! residential gateway's Wi-Fi (worst case — every byte crosses the
//! wireless LAN), the origin is a dedicated well-provisioned web server
//! (100 Mbit/s down / 40 Mbit/s up), and up to two phones assist the
//! ADSL line.

use threegol_radio::{CellularDeployment, InstalledCell, LocationProfile, RadioGeneration};
use threegol_simnet::capacity::CapacityProcess;
use threegol_simnet::{LinkId, SimTime, Simulation};

/// The home Wi-Fi standard, bounding LAN goodput (paper §4.1: ~24
/// Mbit/s for 802.11g, ~110 Mbit/s for 802.11n TCP goodput).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WifiStandard {
    /// 802.11g (24 Mbit/s TCP goodput).
    G,
    /// 802.11n (110 Mbit/s TCP goodput) — what the paper's evaluation
    /// uses ("we use 802.11n compliant devices").
    N,
}

impl WifiStandard {
    /// TCP goodput ceiling of the shared medium, bits/s.
    pub fn goodput_bps(self) -> f64 {
        match self {
            WifiStandard::G => threegol_radio::consts::WIFI_80211G_GOODPUT_BPS,
            WifiStandard::N => threegol_radio::consts::WIFI_80211N_GOODPUT_BPS,
        }
    }
}

/// Effective throughput efficiency of the ADSL line for HTTP transfers.
///
/// ATM framing (~10 %), PPP/TCP/IP overhead and interleaving put the
/// achieved ADSL goodput well below sync rate; calibrated jointly with
/// the per-request overhead model against the paper's Fig 6 ADSL-only
/// download times (41 s / 127 s for Q1 / Q4 on the 2 Mbit/s line).
pub const ADSL_EFFICIENCY: f64 = 0.63;

/// Per-HTTP-request overhead (seconds) on a path of nominal goodput
/// `rate_bps`: request/response RTT plus the TCP slow-start ramp each
/// fresh sequential GET pays. The ramp term grows logarithmically with
/// the path rate — on fast lines most of a short object's transfer
/// happens below line rate, which is exactly the serialized cost
/// 3GOL's parallel fetches hide. Calibrated so the 2 Mbit/s line of
/// Fig 6 sees ~0.45 s/request.
pub(crate) fn request_overhead_secs(rate_bps: f64) -> f64 {
    const RTT_SECS: f64 = 0.1;
    const MSS_BITS: f64 = 11_680.0; // 1460-byte segments
    let ramp_rounds = (rate_bps * RTT_SECS / MSS_BITS).max(1.0).log2();
    0.08 + RTT_SECS * ramp_rounds
}

/// One household's network, installed into a simulation.
pub struct HomeNetwork {
    /// The location profile the home was built from.
    pub profile: LocationProfile,
    /// Shared Wi-Fi LAN link (every 3GOL byte crosses it).
    pub wifi: LinkId,
    /// ADSL downlink (effective goodput).
    pub adsl_down: LinkId,
    /// ADSL uplink (effective goodput).
    pub adsl_up: LinkId,
    /// Origin server downlink capacity (server → clients).
    pub server_down: LinkId,
    /// Origin server uplink capacity (clients → server).
    pub server_up: LinkId,
    /// The local cellular deployment.
    pub cell: InstalledCell,
    /// Attached phones, in attachment order.
    pub phones: Vec<threegol_radio::Attachment>,
}

impl HomeNetwork {
    /// Build the home topology for `profile` with `n_phones` attached
    /// Galaxy S II devices.
    pub fn build(
        sim: &mut Simulation,
        profile: LocationProfile,
        n_phones: usize,
        wifi: WifiStandard,
        seed: u64,
    ) -> HomeNetwork {
        Self::build_with_generation(sim, profile, n_phones, wifi, RadioGeneration::Hspa, seed)
    }

    /// Build the home with phones of a specific radio generation (the
    /// paper's §2.3 LTE outlook uses [`RadioGeneration::Lte`]).
    pub(crate) fn build_with_generation(
        sim: &mut Simulation,
        profile: LocationProfile,
        n_phones: usize,
        wifi: WifiStandard,
        generation: RadioGeneration,
        seed: u64,
    ) -> HomeNetwork {
        let wifi_link = sim.add_link(
            format!("{} wifi", profile.name),
            CapacityProcess::constant(wifi.goodput_bps()),
        );
        let adsl_down = sim.add_link(
            format!("{} adsl-down", profile.name),
            CapacityProcess::constant(profile.adsl_down_bps * ADSL_EFFICIENCY),
        );
        let adsl_up = sim.add_link(
            format!("{} adsl-up", profile.name),
            CapacityProcess::constant(profile.adsl_up_bps * ADSL_EFFICIENCY),
        );
        // "A dedicated well provisioned web server, featuring a stable
        // bandwidth of 100 Mbps in download and 40 Mbps in upload" (§5).
        let server_down = sim.add_link("origin down", CapacityProcess::constant(100e6));
        let server_up = sim.add_link("origin up", CapacityProcess::constant(40e6));
        let mut cell =
            CellularDeployment::new(profile.clone(), seed).with_generation(generation).install(sim);
        let phones = (0..n_phones)
            .map(|i| {
                let device = cell.default_device(format!("phone-{}", i + 1));
                cell.attach(sim, device)
            })
            .collect();
        HomeNetwork {
            profile,
            wifi: wifi_link,
            adsl_down,
            adsl_up,
            server_down,
            server_up,
            cell,
            phones,
        }
    }

    /// Download path through the residential gateway.
    pub fn adsl_download_path(&self) -> Vec<LinkId> {
        vec![self.server_down, self.adsl_down, self.wifi]
    }

    /// Upload path through the residential gateway.
    pub(crate) fn adsl_upload_path(&self) -> Vec<LinkId> {
        vec![self.wifi, self.adsl_up, self.server_up]
    }

    /// Download path through phone `i` (origin → cell → device → Wi-Fi).
    pub fn phone_download_path(&self, i: usize) -> Vec<LinkId> {
        let mut p = vec![self.server_down];
        p.extend(self.cell.dl_path(self.phones[i]));
        p.push(self.wifi);
        p
    }

    /// Upload path through phone `i`.
    pub(crate) fn phone_upload_path(&self, i: usize) -> Vec<LinkId> {
        let mut p = vec![self.wifi];
        p.extend(self.cell.ul_path(self.phones[i]));
        p.push(self.server_up);
        p
    }

    /// All download paths: index 0 is the ADSL/gateway path, 1.. the
    /// phones (the scheduler's path numbering).
    pub fn download_paths(&self) -> Vec<Vec<LinkId>> {
        let mut paths = vec![self.adsl_download_path()];
        for i in 0..self.phones.len() {
            paths.push(self.phone_download_path(i));
        }
        paths
    }

    /// All upload paths, same numbering as [`HomeNetwork::download_paths`].
    pub fn upload_paths(&self) -> Vec<Vec<LinkId>> {
        let mut paths = vec![self.adsl_upload_path()];
        for i in 0..self.phones.len() {
            paths.push(self.phone_upload_path(i));
        }
        paths
    }

    /// RRC channel-acquisition delay for phone `i` at `now` (paper's
    /// cold-start `3G` variants), leaving the radio connected.
    pub fn acquire_phone(&mut self, i: usize, now: SimTime) -> f64 {
        self.cell.acquire(self.phones[i], now)
    }

    /// Warm phone `i` into connected mode (the paper's `H` variants —
    /// an ICMP train issued right before the transaction).
    pub fn warm_phone(&mut self, i: usize, now: SimTime) {
        self.cell.warm_up(self.phones[i], now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threegol_simnet::SimEvent;

    fn build(n_phones: usize) -> (Simulation, HomeNetwork) {
        let mut sim = Simulation::new();
        let home = HomeNetwork::build(
            &mut sim,
            LocationProfile::reference_2mbps(),
            n_phones,
            WifiStandard::N,
            7,
        );
        (sim, home)
    }

    #[test]
    fn paths_have_expected_shape() {
        let (_, home) = build(2);
        assert_eq!(home.download_paths().len(), 3);
        assert_eq!(home.upload_paths().len(), 3);
        // Every path crosses the Wi-Fi LAN (worst-case OTT deployment).
        for p in home.download_paths().iter().chain(home.upload_paths().iter()) {
            assert!(p.contains(&home.wifi));
        }
        // Phone paths don't use the ADSL line and vice versa.
        assert!(!home.phone_download_path(0).contains(&home.adsl_down));
        assert!(home.adsl_download_path().contains(&home.wifi));
    }

    #[test]
    fn adsl_download_rate_is_derated() {
        let (mut sim, home) = build(0);
        // 2 Mbit/s line at 65 % efficiency = 1.3 Mbit/s; 1 MB transfer
        // ≈ 6.15 s.
        sim.start_flow(home.adsl_download_path(), 1_000_000.0);
        match sim.next_event().unwrap() {
            SimEvent::FlowCompleted { time, .. } => {
                let expect = 8_000_000.0 / (2e6 * ADSL_EFFICIENCY);
                assert!((time.secs() - expect).abs() < 1e-6, "t = {time}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn phone_download_completes() {
        let (mut sim, home) = build(1);
        sim.start_flow(home.phone_download_path(0), 2_000_000.0);
        match sim.next_event().unwrap() {
            SimEvent::FlowCompleted { time, .. } => {
                assert!(time.secs() > 2.0 && time.secs() < 60.0, "t = {time}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parallel_paths_do_not_throttle_each_other() {
        // ADSL and phone transfers should proceed concurrently — the
        // only shared medium is the (fast) Wi-Fi LAN.
        let (mut sim, home) = build(1);
        let adsl_secs = 325_000.0 * 8.0 / (2e6 * ADSL_EFFICIENCY);
        sim.start_flow(home.adsl_download_path(), 325_000.0);
        sim.start_flow(home.phone_download_path(0), 250_000.0);
        let t1 = sim.next_event().unwrap().time().secs();
        let t2 = sim.next_event().unwrap().time().secs();
        // The ADSL flow's completion must be unaffected by the phone
        // flow (one of the events lands exactly at the solo ADSL time).
        assert!(
            (t1 - adsl_secs).abs() < 1e-6 || (t2 - adsl_secs).abs() < 1e-6,
            "t1 {t1}, t2 {t2}, expected {adsl_secs}"
        );
    }

    #[test]
    fn rrc_warm_vs_cold() {
        let (sim, mut home) = build(1);
        let cold = home.acquire_phone(0, sim.now());
        assert!(cold > 0.0);
        // Second acquire right after: already connected.
        assert_eq!(home.acquire_phone(0, sim.now() + 0.1), 0.0);
        let (mut sim2, mut home2) = build(1);
        home2.warm_phone(0, sim2.now());
        sim2.run_until(SimTime::from_secs(2.5));
        assert_eq!(home2.acquire_phone(0, sim2.now()), 0.0);
    }

    #[test]
    fn wifi_standards_differ() {
        assert!(WifiStandard::N.goodput_bps() > WifiStandard::G.goodput_bps());
        assert_eq!(WifiStandard::G.goodput_bps(), 24e6);
    }
}
