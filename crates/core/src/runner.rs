//! Driving a multipath scheduler over the fluid simulation.
//!
//! [`TransactionRunner`] is the simulation-side transport behind the
//! shared [`Transaction`] book, the twin of the live client in
//! `threegol-proxy`: a copy waits out its per-request overhead (plus
//! the RRC startup delay on a path's first transfer) and then runs as
//! a fluid flow. The book keeps the accounts; the runner maps the
//! scheduler's ticks onto virtual-time wakeups.

use threegol_sched::{MultipathScheduler, Transaction, TransferReport, Transport};
use threegol_simnet::{FlowId, LinkId, SimEvent, SimTime, Simulation, WakeToken};

/// One path available to a transaction.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Links a transfer on this path traverses.
    pub links: Vec<LinkId>,
    /// Fixed overhead before each item's bytes start flowing (HTTP
    /// request RTT + server latency), seconds.
    pub per_item_overhead_secs: f64,
    /// One-time delay before this path's *first* transfer (RRC channel
    /// acquisition for cellular paths; 0 when warm), seconds.
    pub startup_delay_secs: f64,
}

impl PathSpec {
    /// A path with the given links and overheads.
    pub fn new(links: Vec<LinkId>, per_item_overhead_secs: f64, startup_delay_secs: f64) -> Self {
        PathSpec { links, per_item_overhead_secs, startup_delay_secs }
    }
}

/// Errors the runner can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// The simulation can make no further progress but the transaction
    /// is incomplete (e.g., a zero-capacity path with no alternatives).
    Stalled,
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::Stalled => write!(f, "transaction stalled: no progress possible"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Executes one transaction on a [`Simulation`].
pub struct TransactionRunner {
    paths: Vec<PathSpec>,
    item_sizes: Vec<f64>,
}

impl TransactionRunner {
    /// Create a runner for `item_sizes` over `paths` (path order must
    /// match the scheduler's [`threegol_sched::TransactionSpec`]).
    pub fn new(paths: Vec<PathSpec>, item_sizes: Vec<f64>) -> TransactionRunner {
        assert!(!paths.is_empty());
        TransactionRunner { paths, item_sizes }
    }

    /// Run `sched` to completion on `sim`, starting at the simulation's
    /// current time.
    pub fn run(
        &self,
        sim: &mut Simulation,
        sched: &mut dyn MultipathScheduler,
    ) -> Result<TransferReport, RunnerError> {
        let n = self.paths.len();
        let t0 = sim.now().secs();
        let mut fluid = Fluid {
            sim,
            paths: &self.paths,
            sizes: &self.item_sizes,
            slots: vec![None; n],
            warm: vec![false; n],
            next_token: 0,
            armed: None,
        };
        let mut book = Transaction::start(sched, n, self.item_sizes.len(), t0, &mut fluid);
        fluid.arm(book.next_tick(t0));

        let mut events: u64 = 0;
        while !book.is_done() {
            events += 1;
            if events > 5_000_000 {
                panic!("runner stuck at t={}: paths {:?}", fluid.sim.now(), fluid.slots);
            }
            match fluid.sim.next_event().ok_or(RunnerError::Stalled)? {
                SimEvent::Wakeup { token, time } if token.0 & TICK_BIT != 0 => {
                    let time = time.secs();
                    if fluid.armed == Some(time) {
                        fluid.armed = None;
                    }
                    book.tick(time, &mut fluid);
                    fluid.arm(book.next_tick(time));
                }
                SimEvent::Wakeup { token, .. } => fluid.begin_flow(token.0),
                SimEvent::FlowCompleted { flow, record, time } => {
                    let Some((path, item)) = fluid.find(Stage::Flowing(flow)) else {
                        continue; // not ours (caller may run other flows)
                    };
                    fluid.slots[path] = None;
                    let (time, size) = (time.secs(), record.size_bytes);
                    book.completed(path, item, time, size, size, &mut fluid);
                    fluid.arm(book.next_tick(time));
                }
            }
        }
        Ok(book.finish(&mut fluid))
    }
}

/// High bit of a wakeup token: a scheduler tick, not a copy's start.
const TICK_BIT: u64 = 1 << 63;

/// Where a path's copy is.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// In its overhead window, until the wakeup with this token.
    Waiting(u64),
    Flowing(FlowId),
}

/// The runner's transport: each path's copy on the simulation.
struct Fluid<'a> {
    sim: &'a mut Simulation,
    paths: &'a [PathSpec],
    sizes: &'a [f64],
    /// The item each path runs a copy of, and where that copy is.
    slots: Vec<Option<(usize, Stage)>>,
    /// Whether each path has paid its one-time startup delay.
    warm: Vec<bool>,
    next_token: u64,
    /// Earliest tick already queued. Simulator wakeups cannot be
    /// withdrawn, so a tick is queued only when it is due sooner.
    armed: Option<f64>,
}

impl Fluid<'_> {
    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token - 1
    }

    fn arm(&mut self, due: Option<f64>) {
        let Some(due) = due else { return };
        if self.armed.is_none_or(|t| due < t) {
            let token = self.token();
            self.sim.schedule_wakeup(SimTime::from_secs(due), WakeToken(TICK_BIT | token));
            self.armed = Some(due);
        }
    }

    /// A copy's overhead window ended: its bytes start flowing. A copy
    /// cancelled inside the window left its wakeup behind, and no path
    /// waits for that token any more.
    fn begin_flow(&mut self, token: u64) {
        if let Some((path, item)) = self.find(Stage::Waiting(token)) {
            let flow = self.sim.start_flow(self.paths[path].links.clone(), self.sizes[item]);
            self.slots[path] = Some((item, Stage::Flowing(flow)));
        }
    }

    /// The path whose copy is at `stage`, and its item.
    fn find(&self, stage: Stage) -> Option<(usize, usize)> {
        self.slots.iter().enumerate().find_map(|(path, slot)| match *slot {
            Some((item, at)) if at == stage => Some((path, item)),
            _ => None,
        })
    }
}

impl Transport for Fluid<'_> {
    fn start(&mut self, path: usize, item: usize) {
        let spec = &self.paths[path];
        let mut delay = spec.per_item_overhead_secs;
        if !self.warm[path] {
            delay += spec.startup_delay_secs;
            self.warm[path] = true;
        }
        let token = self.token();
        self.slots[path] = Some((item, Stage::Waiting(token)));
        self.sim.schedule_wakeup_in(delay, WakeToken(token));
    }

    fn cancel(&mut self, path: usize) -> f64 {
        match self.slots[path].take() {
            Some((_, Stage::Flowing(flow))) => {
                self.sim.cancel_flow(flow).expect("flow active").transferred_bytes()
            }
            // Still in its overhead window: no byte has moved.
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threegol_sched::{build, Policy, TransactionSpec};
    use threegol_simnet::CapacityProcess;

    fn mbps(x: f64) -> f64 {
        x * 1e6
    }

    fn run(
        policy: Policy,
        sizes: Vec<f64>,
        rates_mbps: Vec<f64>,
        overhead: f64,
        startup: Vec<f64>,
    ) -> TransferReport {
        let mut sim = Simulation::new();
        let paths: Vec<PathSpec> = rates_mbps
            .iter()
            .zip(&startup)
            .map(|(&r, &s)| {
                let l = sim.add_link(format!("p{r}"), CapacityProcess::constant(mbps(r)));
                PathSpec::new(vec![l], overhead, s)
            })
            .collect();
        let mut sched = build(policy, TransactionSpec::new(sizes.clone(), paths.len()));
        TransactionRunner::new(paths, sizes).run(&mut sim, sched.as_mut()).unwrap()
    }

    #[test]
    fn single_path_sequential_with_overhead() {
        // 3 items of 1 Mbit at 1 Mbps with 0.5 s per-request overhead:
        // 3 × (0.5 + 1.0) = 4.5 s.
        let r = run(Policy::Greedy, vec![125_000.0; 3], vec![1.0], 0.5, vec![0.0]);
        assert!((r.total_secs - 4.5).abs() < 1e-6, "{r:?}");
        assert_eq!(r.starts, 3);
        assert_eq!(r.aborts, 0);
        assert_eq!(r.wasted_bytes, 0.0);
    }

    #[test]
    fn startup_delay_applies_once() {
        // One path with 2 s RRC startup: 2 items take 2 + 2×1 = 4 s.
        let r = run(Policy::Greedy, vec![125_000.0; 2], vec![1.0], 0.0, vec![2.0]);
        assert!((r.total_secs - 4.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn two_paths_parallelize() {
        let r = run(Policy::Greedy, vec![125_000.0; 4], vec![1.0, 1.0], 0.0, vec![0.0, 0.0]);
        assert!((r.total_secs - 2.0).abs() < 1e-6, "{r:?}");
        // Work split evenly.
        assert!((r.bytes_per_path[0] - 250_000.0).abs() < 1.0);
        assert!((r.bytes_per_path[1] - 250_000.0).abs() < 1.0);
    }

    #[test]
    fn greedy_tail_duplication_counts_waste() {
        // Two items, second path 10× slower: greedy duplicates the tail
        // item on the fast path and aborts the slow copy.
        let r = run(Policy::Greedy, vec![125_000.0; 2], vec![1.0, 0.1], 0.0, vec![0.0, 0.0]);
        assert!(r.aborts >= 1, "{r:?}");
        assert!(r.wasted_bytes > 0.0);
        assert!((r.total_secs - 2.0).abs() < 1e-6, "{r:?}");
    }

    #[test]
    fn completion_times_recorded_per_item() {
        let r = run(Policy::RoundRobin, vec![125_000.0; 4], vec![1.0, 0.5], 0.0, vec![0.0, 0.0]);
        assert!(r.item_secs.iter().all(|t| t.is_finite()));
        // Items 0,2 on the 1 Mbps path complete at 1 s and 2 s; items
        // 1,3 on the 0.5 Mbps path at 2 s and 4 s.
        assert!((r.item_secs[0] - 1.0).abs() < 1e-6);
        assert!((r.item_secs[1] - 2.0).abs() < 1e-6);
        assert!((r.item_secs[2] - 2.0).abs() < 1e-6);
        assert!((r.item_secs[3] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn stalled_transaction_is_an_error() {
        let mut sim = Simulation::new();
        let dead = sim.add_link("dead", CapacityProcess::constant(0.0));
        let paths = vec![PathSpec::new(vec![dead], 0.0, 0.0)];
        let sizes = vec![100.0];
        let mut sched = build(Policy::Greedy, TransactionSpec::new(sizes.clone(), 1));
        let err = TransactionRunner::new(paths, sizes).run(&mut sim, sched.as_mut()).unwrap_err();
        assert_eq!(err, RunnerError::Stalled);
    }

    #[test]
    fn min_scheduler_runs_end_to_end() {
        let r =
            run(Policy::min_time_paper(), vec![125_000.0; 6], vec![1.0, 0.5], 0.1, vec![0.0, 0.0]);
        assert!(r.item_secs.iter().all(|t| t.is_finite()));
        assert!(r.total_secs > 0.0);
    }

    #[test]
    fn abort_before_start_cancels_pending() {
        // A fast path finishes both items while the slow path's
        // duplicate is still inside its overhead window; the pending
        // start must be dropped, not executed.
        let r = run(
            Policy::Greedy,
            vec![125_000.0; 2],
            vec![10.0, 0.01],
            0.0,
            vec![0.0, 5.0], // slow path also has a long startup
        );
        assert!((r.total_secs - 0.2).abs() < 1e-6, "{r:?}");
        // The slow path never moved a byte.
        assert_eq!(r.bytes_per_path[1], 0.0);
    }
}
