//! The end-to-end workloads, what each run of one returns, and the two
//! fleet workloads, which drive the `fleet` CLI.
//!
//! Every workload is a closed loop: the next unit of work starts when
//! the previous one finishes. The system is a batch simulator with no
//! arrival process, so each workload reports work completed per second
//! at a stated input size.

use std::time::Instant;

use bytes::Bytes;

use crate::fleet_cli::{pinned_digest, Fleet};
use crate::{relay, sweep};

/// Worker threads every pooled workload uses; the load is sized for a
/// two-core machine and no process runs more working threads.
pub const WORKERS: usize = 2;

/// Launches of a workload's smallest input whose median is `setup_s`.
pub const SETUP_LAUNCHES: usize = 15;

/// One end-to-end workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fleet 10000 2`: the paper-default street.
    PaperStreet,
    /// `fleet 256 2 8 --scenario 35 --seed S`: a month of traced days.
    ScenarioMonth,
    /// 2,000,000-byte GETs through an unthrottled device relay.
    RelayDown,
    /// Seeded 250 kB multipart photo POSTs through the relay.
    RelayUp,
    /// Playlist GETs through the relay: the smallest message.
    RelaySmall,
    /// Every registered experiment at full scale on a 2-worker pool.
    SimSweep,
}

impl Workload {
    /// Every workload, in the order `run` reports them.
    pub const ALL: [Workload; 6] = [
        Workload::PaperStreet,
        Workload::ScenarioMonth,
        Workload::RelayDown,
        Workload::RelayUp,
        Workload::RelaySmall,
        Workload::SimSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStreet => "paper_street",
            Workload::ScenarioMonth => "scenario_month",
            Workload::RelayDown => "relay_down",
            Workload::RelayUp => "relay_up",
            Workload::RelaySmall => "relay_small",
            Workload::SimSweep => "sim_sweep",
        }
    }

    /// What one item of `throughput` is for this workload.
    pub fn item(self) -> &'static str {
        match self {
            Workload::PaperStreet => "homes",
            Workload::ScenarioMonth => "home-days",
            Workload::RelayDown => "MB of GET body received",
            Workload::RelayUp => "MB of photo committed at the origin",
            Workload::RelaySmall => "playlist requests",
            Workload::SimSweep => "experiments",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload: set up, check, then measure for `seconds`.
    pub fn run(self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        match self {
            Workload::PaperStreet => run_fleet_workload(&FleetWorkload::paper_street(), seconds),
            Workload::ScenarioMonth => {
                run_fleet_workload(&FleetWorkload::scenario_month(seed), seconds)
            }
            Workload::RelayDown => relay::run(relay::Phase::Down, seed, seconds),
            Workload::RelayUp => relay::run(relay::Phase::Up, seed, seconds),
            Workload::RelaySmall => relay::run(relay::Phase::Small, seed, seconds),
            Workload::SimSweep => sweep::run(seconds),
        }
    }
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items per second, one sample per repetition or batch.
    pub throughput: Vec<f64>,
    /// Seconds per launch of the smallest input.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process that did the work, MiB.
    pub peak_rss_mib: Vec<f64>,
    /// Homes, requests or experiments attempted.
    pub attempted: u64,
    /// How many of those failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// A digest of the work's output, equal across runs with one seed.
    pub digest: String,
}

impl Outcome {
    /// Count `items` as failed, saying why.
    pub fn fail(&mut self, items: u64, why: String) {
        self.failed += items;
        self.problems.push(why);
    }
}

/// [`SETUP_LAUNCHES`] timed launches of a workload's smallest input,
/// spread evenly over the measured window. Set-up times swing with
/// whatever else the machine is doing; spread out, their median sees the
/// machine as the measurement saw it rather than one burst at the start.
pub struct Setup {
    interval: f64,
    samples: Vec<f64>,
}

impl Setup {
    /// Launches due across `seconds` of measurement.
    pub fn new(seconds: f64) -> Setup {
        Setup { interval: seconds / SETUP_LAUNCHES as f64, samples: Vec::new() }
    }

    /// Launch until the launches have caught up with `elapsed` seconds
    /// of measurement.
    pub fn catch_up(
        &mut self,
        elapsed: f64,
        mut launch: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        while self.samples.len() < SETUP_LAUNCHES
            && self.samples.len() as f64 * self.interval <= elapsed
        {
            let start = Instant::now();
            launch()?;
            self.samples.push(start.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Make any launches still due and return every launch's seconds.
    pub fn finish(
        mut self,
        launch: impl FnMut() -> Result<(), String>,
    ) -> Result<Vec<f64>, String> {
        self.catch_up(f64::INFINITY, launch)?;
        Ok(self.samples)
    }
}

/// A splitmix64 stream: the benchmark's own generator, from which it
/// makes every seeded input it hands the program.
pub struct SplitMix(u64);

impl SplitMix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The stream for `(seed, index)`: one independent stream per
    /// task, batch or device.
    pub fn derive(seed: u64, index: u64) -> SplitMix {
        SplitMix(SplitMix(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` seeded random bytes.
pub fn seeded_bytes(seed: u64, len: usize) -> Bytes {
    let mut rng = SplitMix::new(seed);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// 64-bit FNV-1a, for printing content digests.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The checked-out `EXPERIMENTS.md`, which pins the expected outputs.
pub fn experiments_md() -> Result<String, String> {
    std::fs::read_to_string("EXPERIMENTS.md")
        .map_err(|e| format!("cannot read EXPERIMENTS.md (run from the repository root): {e}"))
}

/// The process's own peak resident set, MiB.
pub fn own_peak_rss_mib() -> Result<f64, String> {
    threegol_bench::fleet::peak_rss_bytes()
        .map(|b| b as f64 / (1024.0 * 1024.0))
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A workload run through the `fleet` CLI.
struct FleetWorkload {
    /// The smallest input, launched for `setup_s`.
    setup: Vec<String>,
    /// A run whose digest `EXPERIMENTS.md` pins; it is also the warm-up.
    check: Vec<String>,
    check_homes: u64,
    /// The `EXPERIMENTS.md` section holding the pinned digest.
    check_section: &'static str,
    /// One timed repetition.
    timed: Vec<String>,
    timed_homes: u64,
    /// Throughput items in one timed repetition.
    timed_items: f64,
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

impl FleetWorkload {
    fn paper_street() -> FleetWorkload {
        FleetWorkload {
            setup: args(&["1", "1"]),
            check: args(&["200", "2"]),
            check_homes: 200,
            check_section: "fleet",
            timed: args(&["10000", "2"]),
            timed_homes: 10_000,
            timed_items: 10_000.0,
        }
    }

    fn scenario_month(seed: u64) -> FleetWorkload {
        let seed = seed.to_string();
        FleetWorkload {
            setup: args(&["1", "1", "--scenario", "1", "--seed", &seed]),
            // EXPERIMENTS.md records the week at the default seed.
            check: args(&["200", "2", "--scenario", "week"]),
            check_homes: 200,
            check_section: "scenario",
            // Chunks of 8 make 32 units the two workers can balance; at
            // the default 64 the 256 homes form 4 units, and whichever
            // worker a co-tenant slows sets the wall time alone (run-to-run
            // spread 17% against 9% measured on a 2-vCPU VM). The digest
            // does not depend on the chunk size.
            timed: args(&["256", "2", "8", "--scenario", "35", "--seed", &seed]),
            timed_homes: 256,
            timed_items: 256.0 * 35.0,
        }
    }
}

fn run_fleet_workload(w: &FleetWorkload, seconds: f64) -> Result<Outcome, String> {
    let fleet = Fleet::locate()?;
    let md = experiments_md()?;
    let pinned = pinned_digest(&md, w.check_section).ok_or_else(|| {
        format!("EXPERIMENTS.md has no digest in its `## {}` section", w.check_section)
    })?;
    let mut o = Outcome::default();
    let launch = || fleet.run(&w.setup).map(drop);
    let mut setup = Setup::new(seconds);
    setup.catch_up(0.0, launch)?;

    o.attempted += w.check_homes;
    match fleet.run(&w.check) {
        Ok((out, _)) if out.digest == pinned => {}
        Ok((out, _)) => o.fail(
            w.check_homes,
            format!(
                "`fleet {}` printed digest {:016x}; EXPERIMENTS.md pins {pinned:016x}",
                w.check.join(" "),
                out.digest
            ),
        ),
        Err(e) => o.fail(w.check_homes, e),
    }

    let start = Instant::now();
    let mut first: Option<u64> = None;
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < seconds {
        reps += 1;
        o.attempted += w.timed_homes;
        match fleet.run(&w.timed) {
            Ok((out, wall)) if *first.get_or_insert(out.digest) == out.digest => {
                o.throughput.push(w.timed_items / wall);
                o.peak_rss_mib.push(out.peak_rss_mib);
            }
            Ok((out, _)) => o.fail(
                w.timed_homes,
                format!(
                    "repetition {reps} printed digest {:016x}, not {:016x}",
                    out.digest,
                    first.unwrap_or(0)
                ),
            ),
            Err(e) => o.fail(w.timed_homes, e),
        }
        setup.catch_up(start.elapsed().as_secs_f64(), launch)?;
    }
    if o.throughput.is_empty() {
        return Err(format!("every timed `fleet {}` failed: {:?}", w.timed.join(" "), o.problems));
    }
    o.setup_s = setup.finish(launch)?;
    o.digest = format!("{:016x}", first.unwrap_or(0));
    Ok(o)
}
