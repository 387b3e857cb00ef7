//! The cellular deployment at a 3GOL location, installed into a
//! `threegol-simnet` [`Simulation`].
//!
//! [`CellularDeployment::install`] creates the shared-channel links
//! (one HSDPA + one HSUPA link per base station, plus a location-level
//! HSUPA noise-rise ceiling). [`InstalledCell::attach`] then associates
//! a [`Device`] with the least-loaded base station, creates its
//! per-device radio links, and refreshes every affected capacity
//! process — per-device efficiency depends on cluster size, so the
//! whole cell's links are re-derived whenever the attachment set
//! changes.

use threegol_simnet::capacity::CapacityProcess;
use threegol_simnet::dist::mix_seed;
use threegol_simnet::{LinkId, SimTime, Simulation};

use crate::basestation::BaseStation;
use crate::consts::signal_to_rate_factor;
use crate::device::Device;
use crate::location::{availability_profile, LocationProfile};
use crate::lte::RadioGeneration;

/// Handle for a device attached to an [`InstalledCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Attachment(usize);

/// Builder that turns a [`LocationProfile`] into simulation links.
#[derive(Debug, Clone)]
pub struct CellularDeployment {
    profile: LocationProfile,
    seed: u64,
    generation: RadioGeneration,
}

struct BsLinks {
    station: BaseStation,
    dl: LinkId,
    ul: LinkId,
    attached: Vec<usize>, // attachment slots
}

struct AttachedDevice {
    device: Device,
    bs: usize,
    dl: LinkId,
    ul: LinkId,
    salt: u64,
    active: bool,
}

/// A cellular deployment installed into a simulation.
pub struct InstalledCell {
    profile: LocationProfile,
    seed: u64,
    generation: RadioGeneration,
    stations: Vec<BsLinks>,
    ul_ceiling: LinkId,
    devices: Vec<AttachedDevice>,
}

impl CellularDeployment {
    /// Create a deployment for `profile`, seeded for reproducibility.
    pub fn new(profile: LocationProfile, seed: u64) -> CellularDeployment {
        assert!(profile.n_base_stations >= 1);
        CellularDeployment { profile, seed, generation: RadioGeneration::Hspa }
    }

    /// Switch the deployment to another radio generation (the paper's
    /// §2.3 LTE outlook).
    pub fn with_generation(mut self, generation: RadioGeneration) -> CellularDeployment {
        self.generation = generation;
        self
    }

    /// The location profile.
    pub fn profile(&self) -> &LocationProfile {
        &self.profile
    }

    /// Install the deployment's links into `sim`.
    pub fn install(&self, sim: &mut Simulation) -> InstalledCell {
        let avail = availability_profile(self.profile.provisioning);
        let signal_factor = signal_to_rate_factor(self.profile.signal_dbm);
        let mut stations = Vec::with_capacity(self.profile.n_base_stations);
        for i in 0..self.profile.n_base_stations {
            let station = BaseStation {
                index: i,
                dl_curve: self.generation.downlink_curve(),
                ul_curve: self.generation.uplink_curve(),
                factor_dl: self.profile.cell_factor_dl,
                factor_ul: self.profile.cell_factor_ul,
                signal_factor,
                availability: avail.clone(),
                dl_ceiling_bps: self.generation.cell_dl_max_bps(),
                ul_ceiling_bps: self.generation.cell_ul_max_bps(),
                seed: mix_seed(self.seed, 0xB5_0000 | i as u64),
            };
            let dl = sim.add_link(
                format!("{} bs{} hsdpa", self.profile.name, i),
                station.dl_cell_process(0),
            );
            let ul = sim.add_link(
                format!("{} bs{} hsupa", self.profile.name, i),
                station.ul_cell_process(0),
            );
            stations.push(BsLinks { station, dl, ul, attached: Vec::new() });
        }
        // Location-level uplink noise-rise ceiling: one HSUPA carrier's
        // worth of headroom, doubled for sectorized deployments (the
        // paper's Location 3 exceeded the single-cell limit).
        let ceiling =
            if self.profile.sectorized { 2.0 } else { 1.0 } * self.generation.cell_ul_max_bps();
        let ul_ceiling = sim.add_link(
            format!("{} ul-ceiling", self.profile.name),
            CapacityProcess::constant(ceiling),
        );
        InstalledCell {
            profile: self.profile.clone(),
            seed: self.seed,
            generation: self.generation,
            stations,
            ul_ceiling,
            devices: Vec::new(),
        }
    }
}

impl InstalledCell {
    /// The location profile this cell was built from.
    pub fn profile(&self) -> &LocationProfile {
        &self.profile
    }

    /// A device matching this deployment's generation (Galaxy S II for
    /// HSPA, an LTE cat-3 handset for LTE).
    pub fn default_device(&self, name: impl Into<String>) -> Device {
        match self.generation {
            RadioGeneration::Hspa => Device::galaxy_s2(name),
            RadioGeneration::Lte => Device::lte(name),
        }
    }

    /// Number of currently attached devices.
    pub fn attached_count(&self) -> usize {
        self.devices.iter().filter(|d| d.active).count()
    }

    /// Attach a device to the least-loaded base station, creating its
    /// radio links and refreshing the affected capacity processes.
    pub fn attach(&mut self, sim: &mut Simulation, device: Device) -> Attachment {
        let bs = self
            .stations
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.attached.len(), *i))
            .map(|(i, _)| i)
            .expect("at least one station");
        let slot = self.devices.len();
        let salt = mix_seed(self.seed, 0xDE_0000 | slot as u64) & 0xFF;
        let station = &self.stations[bs].station;
        // Initial per-device processes; refreshed below once counts settle.
        let dl = sim.add_link(
            format!("{} dev{} dl", self.profile.name, slot),
            station.dl_device_process(1, salt, device.category.dl_max_bps()),
        );
        let ul = sim.add_link(
            format!("{} dev{} ul", self.profile.name, slot),
            station.ul_device_process(1, salt, device.category.ul_max_bps()),
        );
        self.devices.push(AttachedDevice { device, bs, dl, ul, salt, active: true });
        self.stations[bs].attached.push(slot);
        self.refresh_station(sim, bs);
        Attachment(slot)
    }

    /// Detach a device (its links stay registered but are refreshed to
    /// the idle state; simnet links are append-only by design).
    pub fn detach(&mut self, sim: &mut Simulation, att: Attachment) {
        let d = &mut self.devices[att.0];
        assert!(d.active, "detaching an inactive attachment");
        d.active = false;
        let bs = d.bs;
        self.stations[bs].attached.retain(|&s| s != att.0);
        self.refresh_station(sim, bs);
    }

    /// Re-derive the capacity processes of a station's shared links and
    /// of every device attached to it (cluster size changed).
    fn refresh_station(&mut self, sim: &mut Simulation, bs: usize) {
        let n = self.stations[bs].attached.len();
        let station = &self.stations[bs].station;
        sim.set_capacity_process(self.stations[bs].dl, station.dl_cell_process(n));
        sim.set_capacity_process(self.stations[bs].ul, station.ul_cell_process(n));
        for &slot in &self.stations[bs].attached {
            let d = &self.devices[slot];
            sim.set_capacity_process(
                d.dl,
                station.dl_device_process(n, d.salt, d.device.category.dl_max_bps()),
            );
            sim.set_capacity_process(
                d.ul,
                station.ul_device_process(n, d.salt, d.device.category.ul_max_bps()),
            );
        }
    }

    /// The links a download through this device traverses (device radio
    /// share, then the station's shared HSDPA channel).
    pub fn dl_path(&self, att: Attachment) -> Vec<LinkId> {
        let d = &self.devices[att.0];
        assert!(d.active, "path of an inactive attachment");
        vec![d.dl, self.stations[d.bs].dl]
    }

    /// The links an upload through this device traverses (device radio
    /// share, station HSUPA channel, location noise-rise ceiling).
    pub fn ul_path(&self, att: Attachment) -> Vec<LinkId> {
        let d = &self.devices[att.0];
        assert!(d.active, "path of an inactive attachment");
        vec![d.ul, self.stations[d.bs].ul, self.ul_ceiling]
    }

    /// Which base station the attachment is associated with.
    pub fn station_of(&self, att: Attachment) -> usize {
        self.devices[att.0].bs
    }

    /// The attached device.
    pub fn device(&self, att: Attachment) -> &Device {
        &self.devices[att.0].device
    }

    /// Request the radio channel for a transfer starting now: returns
    /// the RRC promotion delay in seconds (0 when already connected).
    pub fn acquire(&mut self, att: Attachment, now: SimTime) -> f64 {
        self.devices[att.0].device.rrc.acquire(now)
    }

    /// Warm a device into connected mode (the paper's `H` variants).
    pub fn warm_up(&mut self, att: Attachment, now: SimTime) {
        self.devices[att.0].device.rrc.warm_up(now);
    }

    /// Record data activity on a device (refreshes RRC timers).
    pub fn on_activity(&mut self, att: Attachment, now: SimTime) {
        self.devices[att.0].device.rrc.on_activity(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::HSUPA_MAX_BPS;
    use threegol_simnet::SimEvent;

    fn install(n_bs: usize) -> (Simulation, InstalledCell) {
        let mut profile = LocationProfile::reference_2mbps();
        profile.n_base_stations = n_bs;
        let mut sim = Simulation::new();
        let cell = CellularDeployment::new(profile, 42).install(&mut sim);
        (sim, cell)
    }

    #[test]
    fn attach_balances_across_stations() {
        let (mut sim, mut cell) = install(2);
        let a = cell.attach(&mut sim, Device::galaxy_s2("p1"));
        let b = cell.attach(&mut sim, Device::galaxy_s2("p2"));
        let c = cell.attach(&mut sim, Device::galaxy_s2("p3"));
        assert_ne!(cell.station_of(a), cell.station_of(b));
        // Third device goes to the station with fewer attachments.
        assert_eq!(cell.station_of(c), cell.station_of(a));
        assert_eq!(cell.attached_count(), 3);
    }

    #[test]
    fn detach_rebalances_counts() {
        let (mut sim, mut cell) = install(2);
        let a = cell.attach(&mut sim, Device::galaxy_s2("p1"));
        let _b = cell.attach(&mut sim, Device::galaxy_s2("p2"));
        cell.detach(&mut sim, a);
        assert_eq!(cell.attached_count(), 1);
        let c = cell.attach(&mut sim, Device::galaxy_s2("p3"));
        // Goes to the now-empty station.
        assert_eq!(cell.station_of(c), 0);
    }

    #[test]
    fn download_completes_through_cell() {
        let (mut sim, mut cell) = install(2);
        let att = cell.attach(&mut sim, Device::galaxy_s2("p1"));
        let path = cell.dl_path(att);
        sim.start_flow(path, 2_000_000.0); // the paper's 2 MB probe
        let ev = sim.next_event().expect("completion");
        match ev {
            SimEvent::FlowCompleted { time, .. } => {
                // ~2 MB at ~1.6-2 Mbit/s -> on the order of 6-16 s.
                assert!(time.secs() > 2.0 && time.secs() < 60.0, "t = {time}");
            }
            _ => panic!("expected completion"),
        }
    }

    #[test]
    fn uplink_aggregate_plateaus_at_ceiling() {
        let (mut sim, mut cell) = install(2);
        let mut paths = Vec::new();
        for i in 0..8 {
            let att = cell.attach(&mut sim, Device::galaxy_s2(format!("p{i}")));
            paths.push(cell.ul_path(att));
        }
        // Start a long upload on every device and measure aggregate rate.
        for p in paths {
            sim.start_flow(p, 50_000_000.0);
        }
        sim.run_until(SimTime::from_secs(30.0));
        let carried: f64 = sim
            .links()
            .filter(|(_, l)| l.name.contains("ul-ceiling"))
            .map(|(_, l)| l.bytes_carried)
            .sum();
        let agg_bps = carried * 8.0 / 30.0;
        assert!(agg_bps <= HSUPA_MAX_BPS * 1.01, "aggregate {agg_bps}");
        assert!(agg_bps > 0.5 * HSUPA_MAX_BPS, "aggregate {agg_bps}");
    }

    #[test]
    fn sectorized_location_exceeds_single_carrier() {
        let mut profile = LocationProfile::reference_2mbps();
        profile.sectorized = true;
        profile.cell_factor_ul = 2.0;
        let mut sim = Simulation::new();
        let mut cell = CellularDeployment::new(profile, 1).install(&mut sim);
        for i in 0..10 {
            let att = cell.attach(&mut sim, Device::galaxy_s2(format!("p{i}")));
            sim.start_flow(cell.ul_path(att), 100_000_000.0);
        }
        sim.run_until(SimTime::from_secs(30.0));
        let carried: f64 = sim
            .links()
            .filter(|(_, l)| l.name.contains("ul-ceiling"))
            .map(|(_, l)| l.bytes_carried)
            .sum();
        let agg_bps = carried * 8.0 / 30.0;
        assert!(agg_bps > HSUPA_MAX_BPS, "aggregate {agg_bps}");
    }

    #[test]
    fn rrc_round_trip_via_cell() {
        let (mut sim, mut cell) = install(2);
        let att = cell.attach(&mut sim, Device::galaxy_s2("p1"));
        let d = cell.acquire(att, sim.now());
        assert!(d > 0.0); // cold start
        cell.on_activity(att, SimTime::from_secs(3.0));
        assert_eq!(cell.acquire(att, SimTime::from_secs(4.0)), 0.0);
        // Warmed device acquires for free.
        let att2 = cell.attach(&mut sim, Device::galaxy_s2("p2"));
        cell.warm_up(att2, SimTime::from_secs(0.0));
        assert_eq!(cell.acquire(att2, SimTime::from_secs(2.5)), 0.0);
    }

    #[test]
    #[should_panic]
    fn path_of_detached_device_panics() {
        let (mut sim, mut cell) = install(2);
        let att = cell.attach(&mut sim, Device::galaxy_s2("p1"));
        cell.detach(&mut sim, att);
        let _ = cell.dl_path(att);
    }
}
