//! # threegol-measure
//!
//! The §3 active-measurement methodology ("Handset experiments" in
//! Table 1), reproduced against the `threegol-radio` model.
//!
//! The paper programs up to ten Galaxy S II handsets to download and
//! upload 2 MB files (wget/iperf), activating one more device every 20
//! minutes, repeating each measurement four times, across six
//! locations and five days. The campaigns here run the same probes on
//! the simulated cellular deployment:
//!
//! * [`Campaign::aggregate_throughput`] — aggregate uplink/downlink
//!   throughput versus number of active devices (Fig 3);
//! * [`Campaign::per_device_throughput`] — per-device throughput for
//!   device clusters of 1/3/5 over the hours of the day (Fig 4,
//!   Table 3);
//! * [`Campaign::per_station_samples`] — single-device throughput
//!   attributed to the serving base station (Fig 5's violins);
//! * [`table2_row`] — DSL versus 3-device 3GOL throughput at a
//!   location (Table 2).

use threegol_radio::{CellularDeployment, Device, LocationProfile};
use threegol_simnet::dist::mix_seed;
use threegol_simnet::stats::Summary;
use threegol_simnet::{SimEvent, SimTime, Simulation};

/// Probe transfer size: "download and upload 2 MB files" (§3).
pub(crate) const PROBE_BYTES: f64 = 2e6;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Direction {
    /// HSDPA downlink probes (the paper's wget measurements).
    Down,
    /// HSUPA uplink probes (the paper's iperf measurements).
    Up,
}

/// A measurement campaign at one location.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The location under test.
    pub location: LocationProfile,
    /// Base seed (repetitions and day offsets derive sub-seeds).
    pub seed: u64,
}

impl Campaign {
    /// Create a campaign.
    pub fn new(location: LocationProfile, seed: u64) -> Campaign {
        Campaign { location, seed }
    }

    /// Per-device probe throughputs (bits/s) with `n_devices` active
    /// simultaneously at `hour` on a given `day` (the day offsets the
    /// stochastic channel conditions like the paper's five-day runs).
    pub fn probe(&self, n_devices: usize, hour: f64, day: u64, dir: Direction) -> Vec<f64> {
        assert!(n_devices >= 1);
        let mut sim = Simulation::new();
        sim.run_until(SimTime::from_hours(day as f64 * 24.0 + hour));
        let deployment = CellularDeployment::new(self.location.clone(), mix_seed(self.seed, day));
        let mut cell = deployment.install(&mut sim);
        let mut flows = Vec::new();
        for i in 0..n_devices {
            let att = cell.attach(&mut sim, Device::galaxy_s2(format!("probe-{i}")));
            // Probes are launched back to back; the radio is warm (the
            // paper's devices were mid-campaign).
            cell.warm_up(att, sim.now());
            let path = match dir {
                Direction::Down => cell.dl_path(att),
                Direction::Up => cell.ul_path(att),
            };
            flows.push(sim.start_flow(path, PROBE_BYTES));
        }
        let t0 = sim.now();
        let mut tputs = vec![0.0; n_devices];
        let mut remaining = n_devices;
        while remaining > 0 {
            match sim.next_event() {
                Some(SimEvent::FlowCompleted { flow, time, .. }) => {
                    if let Some(idx) = flows.iter().position(|f| *f == flow) {
                        let secs = time - t0;
                        tputs[idx] = PROBE_BYTES * 8.0 / secs.max(1e-9);
                        remaining -= 1;
                    }
                }
                Some(_) => {}
                None => panic!("probe stalled"),
            }
        }
        tputs
    }

    /// Aggregate throughput (bits/s) of `n_devices` simultaneous
    /// probes, averaged over `reps` repetitions (the paper repeats each
    /// measurement four times).
    pub fn aggregate_throughput(
        &self,
        n_devices: usize,
        hour: f64,
        dir: Direction,
        reps: u64,
    ) -> Summary {
        let aggs: Vec<f64> = (0..reps)
            .map(|rep| self.probe(n_devices, hour + rep as f64 * 0.02, rep, dir).iter().sum())
            .collect();
        Summary::of(&aggs)
    }

    /// Per-device throughput samples for a cluster of `n_devices`, over
    /// the given hours and days (Fig 4 / Table 3).
    pub fn per_device_throughput(
        &self,
        n_devices: usize,
        hours: &[f64],
        days: u64,
        dir: Direction,
    ) -> Vec<f64> {
        let mut samples = Vec::new();
        for day in 0..days {
            for &hour in hours {
                samples.extend(self.probe(n_devices, hour, day, dir));
            }
        }
        samples
    }

    /// Single-device throughput samples attributed to the serving base
    /// station: `(station_index, bps)` (Fig 5).
    ///
    /// The paper's handsets report their serving cell; our model
    /// attaches a lone device to the least-loaded station, so we probe
    /// each station by attaching enough devices to reach it and keeping
    /// only the probe on the target station.
    pub fn per_station_samples(
        &self,
        hours: &[f64],
        days: u64,
        dir: Direction,
    ) -> Vec<(usize, f64)> {
        let n_stations = self.location.n_base_stations;
        let mut out = Vec::new();
        for day in 0..days {
            for &hour in hours {
                // One probe per station: attach n_stations devices; the
                // round-robin association covers every station once.
                let mut sim = Simulation::new();
                sim.run_until(SimTime::from_hours(day as f64 * 24.0 + hour));
                let deployment =
                    CellularDeployment::new(self.location.clone(), mix_seed(self.seed, day));
                let mut cell = deployment.install(&mut sim);
                // Attach one device per station first (round-robin
                // association covers every station), then probe them
                // one at a time so each probe sees an uncontended cell.
                let atts: Vec<_> = (0..n_stations)
                    .map(|i| {
                        let att = cell.attach(&mut sim, Device::galaxy_s2(format!("s{i}")));
                        cell.warm_up(att, sim.now());
                        att
                    })
                    .collect();
                for att in atts {
                    let station = cell.station_of(att);
                    let path = match dir {
                        Direction::Down => cell.dl_path(att),
                        Direction::Up => cell.ul_path(att),
                    };
                    let t0 = sim.now();
                    sim.start_flow(path, PROBE_BYTES);
                    // Sequential probes: one flow at a time per station.
                    match sim.next_event() {
                        Some(SimEvent::FlowCompleted { time, .. }) => {
                            out.push((station, PROBE_BYTES * 8.0 / (time - t0).max(1e-9)));
                        }
                        _ => panic!("station probe stalled"),
                    }
                }
            }
        }
        out
    }
}

/// One step of the §3 staggered activation ramp.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RampStep {
    /// Number of active devices at this step.
    pub n_devices: usize,
    /// Hour-of-day the step ran at.
    pub hour: f64,
    /// Aggregate throughput across active devices, bits/s.
    pub aggregate_bps: f64,
    /// Per-device throughputs, bits/s.
    pub per_device_bps: Vec<f64>,
}

impl Campaign {
    /// The §3 activation ramp: start with one device, "every 20
    /// minutes we introduce a new device and run the same measurements
    /// for all active devices in parallel", up to `max_devices`. Unlike
    /// [`Campaign::aggregate_throughput`], the deployment persists
    /// across steps, so the attach dynamics (association, per-device
    /// efficiency refresh) are exercised exactly as in the paper's
    /// protocol.
    pub fn activation_ramp(
        &self,
        max_devices: usize,
        start_hour: f64,
        dir: Direction,
    ) -> Vec<RampStep> {
        assert!(max_devices >= 1);
        let mut sim = Simulation::new();
        sim.run_until(SimTime::from_hours(start_hour));
        let deployment = CellularDeployment::new(self.location.clone(), self.seed);
        let mut cell = deployment.install(&mut sim);
        let mut attachments = Vec::new();
        let mut steps = Vec::new();
        for k in 1..=max_devices {
            let att = cell.attach(&mut sim, Device::galaxy_s2(format!("ramp-{k}")));
            cell.warm_up(att, sim.now());
            attachments.push(att);
            // All active devices probe in parallel.
            let flows: Vec<_> = attachments
                .iter()
                .map(|&a| {
                    let path = match dir {
                        Direction::Down => cell.dl_path(a),
                        Direction::Up => cell.ul_path(a),
                    };
                    sim.start_flow(path, PROBE_BYTES)
                })
                .collect();
            let t0 = sim.now();
            let mut tputs = vec![0.0; flows.len()];
            let mut remaining = flows.len();
            while remaining > 0 {
                match sim.next_event() {
                    Some(SimEvent::FlowCompleted { flow, time, .. }) => {
                        if let Some(idx) = flows.iter().position(|f| *f == flow) {
                            tputs[idx] = PROBE_BYTES * 8.0 / (time - t0).max(1e-9);
                            remaining -= 1;
                        }
                    }
                    Some(_) => {}
                    None => panic!("ramp probe stalled"),
                }
            }
            steps.push(RampStep {
                n_devices: k,
                hour: sim.now().hour_of_day(),
                aggregate_bps: tputs.iter().sum(),
                per_device_bps: tputs,
            });
            // 20 minutes until the next device joins.
            let next = sim.now() + 20.0 * 60.0;
            sim.run_until(next);
        }
        steps
    }
}

/// One row of Table 2: DSL speed, 3-device 3G throughput, and the
/// 3GOL/DSL speedup, all in bits/s, at the location's measured hour.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table2Row {
    /// Location name.
    pub name: String,
    /// Measurement hour.
    pub hour: f64,
    /// DSL downlink/uplink, bits/s.
    pub dsl_bps: (f64, f64),
    /// Measured 3-device aggregate 3G downlink/uplink, bits/s.
    pub g3_bps: (f64, f64),
    /// `(DSL + 3G) / DSL` speedup, downlink/uplink.
    pub speedup: (f64, f64),
    /// The paper's reported 3G throughputs for comparison, if any.
    pub paper_g3_bps: Option<(f64, f64)>,
}

/// Measure a Table 2 row: 3 devices at the location's measured hour.
pub fn table2_row(location: &LocationProfile, seed: u64, reps: u64) -> Table2Row {
    let hour = location.measured_hour.unwrap_or(12.0);
    let campaign = Campaign::new(location.clone(), seed);
    let dl = campaign.aggregate_throughput(3, hour, Direction::Down, reps).mean;
    let ul = campaign.aggregate_throughput(3, hour, Direction::Up, reps).mean;
    let dsl = (location.adsl_down_bps, location.adsl_up_bps);
    Table2Row {
        name: location.name.clone(),
        hour,
        dsl_bps: dsl,
        g3_bps: (dl, ul),
        speedup: ((dsl.0 + dl) / dsl.0, (dsl.1 + ul) / dsl.1),
        paper_g3_bps: location.paper_3g_3dev_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threegol_radio::consts::HSUPA_MAX_BPS;

    fn loc1() -> LocationProfile {
        LocationProfile::paper_table2().remove(0)
    }

    #[test]
    fn single_probe_in_plausible_range() {
        let c = Campaign::new(loc1(), 1);
        let t = c.probe(1, 1.0, 0, Direction::Down);
        assert_eq!(t.len(), 1);
        // Loc1 is hot (calibrated ×); a single device should see
        // between 0.3 and 7 Mbit/s.
        assert!(t[0] > 0.3e6 && t[0] < 7.2e6, "tput {}", t[0]);
    }

    #[test]
    fn downlink_aggregate_grows_with_devices() {
        let c = Campaign::new(loc1(), 2);
        let a1 = c.aggregate_throughput(1, 1.0, Direction::Down, 4).mean;
        let a3 = c.aggregate_throughput(3, 1.0, Direction::Down, 4).mean;
        let a10 = c.aggregate_throughput(10, 1.0, Direction::Down, 4).mean;
        assert!(a3 > a1 * 1.5, "a1 {a1} a3 {a3}");
        assert!(a10 > a3 * 1.5, "a3 {a3} a10 {a10}");
    }

    #[test]
    fn uplink_aggregate_plateaus() {
        let c = Campaign::new(loc1(), 3);
        let a5 = c.aggregate_throughput(5, 1.0, Direction::Up, 4).mean;
        let a10 = c.aggregate_throughput(10, 1.0, Direction::Up, 4).mean;
        // Fig 3: uplink plateaus near the HSUPA ceiling; adding devices
        // past ~5 yields little.
        assert!(a10 < a5 * 1.35, "a5 {a5} a10 {a10}");
        assert!(a10 <= HSUPA_MAX_BPS * 1.05, "a10 {a10}");
    }

    #[test]
    fn table2_loc1_matches_paper_within_tolerance() {
        let row = table2_row(&loc1(), 7, 6);
        let (paper_dl, paper_ul) = row.paper_g3_bps.unwrap();
        assert!(
            (row.g3_bps.0 / paper_dl - 1.0).abs() < 0.35,
            "dl {} vs paper {paper_dl}",
            row.g3_bps.0
        );
        assert!(
            (row.g3_bps.1 / paper_ul - 1.0).abs() < 0.35,
            "ul {} vs paper {paper_ul}",
            row.g3_bps.1
        );
        // Headline: ×2.6 downlink / ×12.9 uplink with 3 devices.
        assert!(row.speedup.0 > 1.8 && row.speedup.0 < 3.5, "dl speedup {}", row.speedup.0);
        assert!(row.speedup.1 > 8.0 && row.speedup.1 < 18.0, "ul speedup {}", row.speedup.1);
    }

    #[test]
    fn per_device_declines_with_cluster_size() {
        let c = Campaign::new(loc1(), 4);
        let hours = [1.0, 13.0];
        let m1 = Summary::of(&c.per_device_throughput(1, &hours, 2, Direction::Up)).mean;
        let m5 = Summary::of(&c.per_device_throughput(5, &hours, 2, Direction::Up)).mean;
        assert!(m5 < m1, "m1 {m1} m5 {m5}");
    }

    #[test]
    fn per_station_covers_all_stations() {
        let c = Campaign::new(loc1(), 5);
        let samples = c.per_station_samples(&[2.0, 14.0], 2, Direction::Down);
        let mut stations: Vec<usize> = samples.iter().map(|&(s, _)| s).collect();
        stations.sort_unstable();
        stations.dedup();
        assert_eq!(stations.len(), c.location.n_base_stations);
        assert!(samples.iter().all(|&(_, bps)| bps > 0.0));
    }

    #[test]
    fn activation_ramp_follows_paper_protocol() {
        let c = Campaign::new(loc1(), 9);
        let steps = c.activation_ramp(5, 1.0, Direction::Down);
        assert_eq!(steps.len(), 5);
        // Devices join every 20 minutes.
        assert!((steps[1].hour - steps[0].hour - 1.0 / 3.0).abs() < 0.05);
        // Aggregate grows as devices join.
        assert!(steps[4].aggregate_bps > steps[0].aggregate_bps * 1.8);
        // Per-device vectors track the step index.
        for (i, s) in steps.iter().enumerate() {
            assert_eq!(s.per_device_bps.len(), i + 1);
            assert!(s.per_device_bps.iter().all(|&t| t > 0.0));
        }
    }

    #[test]
    fn ramp_uplink_saturates() {
        let c = Campaign::new(loc1(), 10);
        let steps = c.activation_ramp(8, 1.0, Direction::Up);
        let a5 = steps[4].aggregate_bps;
        let a8 = steps[7].aggregate_bps;
        assert!(a8 < a5 * 1.4, "a5 {a5} a8 {a8}");
    }

    #[test]
    fn probes_are_deterministic() {
        let c = Campaign::new(loc1(), 6);
        assert_eq!(c.probe(3, 9.0, 1, Direction::Down), c.probe(3, 9.0, 1, Direction::Down));
    }
}
