//! Transaction model, the scheduler interface, and the transaction book
//! every driver shares.

/// Specification of a multipath transaction: `M` item sizes over `N`
/// paths.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TransactionSpec {
    /// Item sizes in bytes, in download/playout order.
    pub item_sizes: Vec<f64>,
    /// Number of available paths (`N`); path 0 is conventionally the
    /// ADSL/gateway path, paths `1..N` the 3G devices.
    pub n_paths: usize,
}

impl TransactionSpec {
    /// A transaction of `m` equally sized items over `n` paths.
    pub fn uniform(m: usize, n: usize, size_bytes: f64) -> TransactionSpec {
        TransactionSpec { item_sizes: vec![size_bytes; m], n_paths: n }
    }

    /// A transaction from explicit item sizes.
    pub fn new(item_sizes: Vec<f64>, n_paths: usize) -> TransactionSpec {
        assert!(n_paths >= 1, "a transaction needs at least one path");
        assert!(!item_sizes.is_empty(), "a transaction needs at least one item");
        assert!(item_sizes.iter().all(|s| s.is_finite() && *s >= 0.0));
        TransactionSpec { item_sizes, n_paths }
    }

    /// Number of items (`M`).
    pub fn n_items(&self) -> usize {
        self.item_sizes.len()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> f64 {
        self.item_sizes.iter().sum()
    }

    /// Largest item size (`S_max` in the waste bound `(N−1)·S_max`).
    pub fn max_item_bytes(&self) -> f64 {
        self.item_sizes.iter().cloned().fold(0.0, f64::max)
    }
}

/// A scheduling policy selector.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Policy {
    /// The paper's greedy scheduler (GRD).
    Greedy,
    /// Static round-robin (RR).
    RoundRobin,
    /// Minimum-estimated-time with exponential smoothing (MIN).
    MinTime {
        /// Smoothing weight on the newest sample; the paper uses 0.75.
        alpha: f64,
    },
}

impl Policy {
    /// The MIN policy with the paper's α = 0.75.
    pub fn min_time_paper() -> Policy {
        Policy::MinTime { alpha: 0.75 }
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Greedy => "GRD",
            Policy::RoundRobin => "RR",
            Policy::MinTime { .. } => "MIN",
        }
    }
}

/// An instruction from the scheduler to the transport driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Begin transferring `item` on `path`.
    Start {
        /// Path index in `0..N`.
        path: usize,
        /// Item index in `0..M`.
        item: usize,
    },
    /// Abort the ongoing transfer of `item` on `path` (a duplicate of an
    /// item that has completed elsewhere).
    Abort {
        /// Path index in `0..N`.
        path: usize,
        /// Item index in `0..M`.
        item: usize,
    },
}

/// A multipath transaction scheduler.
///
/// A [`Transaction`] drives it: it calls [`MultipathScheduler::start`]
/// once, then feeds it every completion, failure and tick, executing
/// the returned commands in order. The transaction ends when
/// [`MultipathScheduler::is_done`] is true.
pub trait MultipathScheduler: Send {
    /// Begin the transaction (all paths idle). Returns initial commands.
    fn start(&mut self) -> Vec<Command>;

    /// `item` finished on `path` at time `now`, having transferred
    /// `bytes` of payload over `elapsed_secs` (from the copy's start
    /// command to its completion). The returned commands may abort
    /// duplicates on other paths and start new transfers on any path
    /// that became idle.
    fn on_complete(
        &mut self,
        path: usize,
        item: usize,
        now: f64,
        bytes: f64,
        elapsed_secs: f64,
    ) -> Vec<Command>;

    /// Notification that a transfer failed (path error). Default: treat
    /// the path as idle again and let the scheduler reassign.
    fn on_failed(&mut self, path: usize, item: usize, now: f64) -> Vec<Command>;

    /// True once every item has completed on some path.
    fn is_done(&self) -> bool;

    /// The next absolute time (same clock as `now`) at which the
    /// scheduler wants a timer tick, if any. A [`Transaction`] calls
    /// [`MultipathScheduler::on_tick`] at (or after) this time on every
    /// driver. Purely time-driven work — e.g. deadline-gated dispatch in
    /// the playout-aware scheduler — relies on this; the paper's three
    /// schedulers never need it.
    fn next_wakeup(&self) -> Option<f64> {
        None
    }

    /// Timer tick at `now`; may emit new commands. Default: no-op.
    fn on_tick(&mut self, _now: f64) -> Vec<Command> {
        Vec::new()
    }

    /// Short display name ("GRD", "RR", "MIN").
    fn name(&self) -> &'static str;
}

/// Timing and accounting for one multipath transaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferReport {
    /// Total transaction time, seconds.
    pub total_secs: f64,
    /// When each item's first copy landed, seconds from transaction
    /// start.
    pub item_secs: Vec<f64>,
    /// Bytes that crossed each path, cancelled and failed copies
    /// included.
    pub bytes_per_path: Vec<f64>,
    /// Bytes moved by copies cancelled before they finished: aborted
    /// duplicates and stragglers still running at the end.
    pub wasted_bytes: f64,
    /// Start commands executed.
    pub starts: usize,
    /// Abort commands executed.
    pub aborts: usize,
}

/// The moving half of a scheduler driver. A [`Transaction`] calls it
/// while it executes the scheduler's commands.
pub trait Transport {
    /// Begin moving `item` on `path`, which is idle.
    fn start(&mut self, path: usize, item: usize);

    /// Stop the copy running on `path` and return the bytes it moved.
    fn cancel(&mut self, path: usize) -> f64;
}

/// An item failed more often than a [`Transaction`] allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaveUp;

/// The books of one transaction, kept for any transport.
///
/// It runs a [`MultipathScheduler`], executes its commands on a
/// [`Transport`], and keeps the accounts: the copy running on each
/// path, start and abort counts, when each item's first copy landed,
/// the bytes on each path and the waste. The book moves no bytes: the
/// driver's transport does, and the driver reports what it saw (a copy
/// completed or failed, a tick came due).
///
/// Times are on the driver's clock; the book subtracts the start time
/// `t0` before the scheduler sees them.
pub struct Transaction<'s> {
    sched: &'s mut dyn MultipathScheduler,
    t0: f64,
    /// The item each path runs a copy of, and when that copy started.
    running: Vec<Option<(usize, f64)>>,
    /// Failed copies of each item.
    failures: Vec<usize>,
    report: TransferReport,
}

impl<'s> Transaction<'s> {
    /// Start `sched` over `n_paths` idle paths and `n_items` items at
    /// driver time `t0`, executing its first commands on `transport`.
    pub fn start(
        sched: &'s mut dyn MultipathScheduler,
        n_paths: usize,
        n_items: usize,
        t0: f64,
        transport: &mut dyn Transport,
    ) -> Transaction<'s> {
        let cmds = sched.start();
        let mut book = Transaction {
            sched,
            t0,
            running: vec![None; n_paths],
            failures: vec![0; n_items],
            report: TransferReport {
                item_secs: vec![f64::NAN; n_items],
                bytes_per_path: vec![0.0; n_paths],
                ..TransferReport::default()
            },
        };
        book.exec(cmds, t0, transport);
        book
    }

    /// True once every item has landed.
    pub fn is_done(&self) -> bool {
        self.sched.is_done()
    }

    /// When the scheduler wants its next tick, in driver time. The
    /// tick is at least 1 µs after `now`, so a policy that keeps asking
    /// cannot freeze the clock at one instant.
    pub fn next_tick(&self, now: f64) -> Option<f64> {
        self.sched.next_wakeup().map(|at| (self.t0 + at.max(0.0)).max(now + 1e-6))
    }

    /// A tick came due at `now`.
    pub fn tick(&mut self, now: f64, transport: &mut dyn Transport) {
        let cmds = self.sched.on_tick(now - self.t0);
        self.exec(cmds, now, transport);
    }

    /// The copy of `item` on `path` completed at `now`, having moved
    /// `moved` bytes over its path; the scheduler hears `bytes`, the
    /// item's payload. Returns whether it was the item's first copy to
    /// land. A report from a copy already aborted is ignored.
    pub fn completed(
        &mut self,
        path: usize,
        item: usize,
        now: f64,
        moved: f64,
        bytes: f64,
        transport: &mut dyn Transport,
    ) -> bool {
        let Some(started) = self.end_copy(path, item, moved) else { return false };
        let at = now - self.t0;
        let first = self.report.item_secs[item].is_nan();
        if first {
            self.report.item_secs[item] = at;
        }
        let cmds = self.sched.on_complete(path, item, at, bytes, now - started);
        self.exec(cmds, now, transport);
        first
    }

    /// The copy of `item` on `path` failed at `now` after moving `moved`
    /// bytes, which count on the path but not as waste. An item gives
    /// up on its (3·N+1)-th failure, N being the number of paths. A
    /// report from a copy already aborted is ignored.
    pub fn failed(
        &mut self,
        path: usize,
        item: usize,
        now: f64,
        moved: f64,
        transport: &mut dyn Transport,
    ) -> Result<(), GaveUp> {
        if self.end_copy(path, item, moved).is_none() {
            return Ok(());
        }
        self.failures[item] += 1;
        if self.failures[item] > 3 * self.running.len() {
            return Err(GaveUp);
        }
        let cmds = self.sched.on_failed(path, item, now - self.t0);
        self.exec(cmds, now, transport);
        Ok(())
    }

    /// Close the books: cancel the copies still running, in path order,
    /// and charge what they moved as waste.
    pub fn finish(mut self, transport: &mut dyn Transport) -> TransferReport {
        for path in 0..self.running.len() {
            if self.running[path].take().is_some() {
                self.charge_waste(path, transport.cancel(path));
            }
        }
        self.report.total_secs = self.report.item_secs.iter().cloned().fold(0.0, f64::max);
        self.report
    }

    /// End the copy of `item` on `path` and put the bytes it moved on
    /// the path; returns when the copy started, or `None` if it no
    /// longer runs there.
    fn end_copy(&mut self, path: usize, item: usize, moved: f64) -> Option<f64> {
        let (_, started) = self.running[path].filter(|&(i, _)| i == item)?;
        self.running[path] = None;
        self.report.bytes_per_path[path] += moved;
        Some(started)
    }

    fn charge_waste(&mut self, path: usize, moved: f64) {
        self.report.wasted_bytes += moved;
        self.report.bytes_per_path[path] += moved;
    }

    fn exec(&mut self, cmds: Vec<Command>, now: f64, transport: &mut dyn Transport) {
        for cmd in cmds {
            match cmd {
                Command::Start { path, item } => {
                    assert!(self.running[path].is_none(), "Start on busy path {path}");
                    self.running[path] = Some((item, now));
                    self.report.starts += 1;
                    transport.start(path, item);
                }
                Command::Abort { path, item } => {
                    let running = matches!(self.running[path], Some((i, _)) if i == item);
                    assert!(running, "Abort of item {item} not on path {path}");
                    self.running[path] = None;
                    self.report.aborts += 1;
                    self.charge_waste(path, transport.cancel(path));
                }
            }
        }
    }
}

/// Book-keeping shared by all scheduler implementations.
#[derive(Debug, Clone)]
pub(crate) struct SharedState {
    pub spec: TransactionSpec,
    /// completed[i]: item i has finished on some path.
    pub completed: Vec<bool>,
    pub n_completed: usize,
    /// inflight[p]: the item path p is currently transferring.
    pub inflight: Vec<Option<usize>>,
}

impl SharedState {
    pub fn new(spec: TransactionSpec) -> SharedState {
        let m = spec.n_items();
        let n = spec.n_paths;
        SharedState { spec, completed: vec![false; m], n_completed: 0, inflight: vec![None; n] }
    }

    /// Record a completion; returns false if the item was already done.
    /// A [`Transaction`] drops the reports of aborted copies, so this
    /// happens only for a duplicate the scheduler left running.
    pub fn complete(&mut self, item: usize) -> bool {
        if self.completed[item] {
            return false;
        }
        self.completed[item] = true;
        self.n_completed += 1;
        true
    }

    pub fn is_done(&self) -> bool {
        self.n_completed == self.spec.n_items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors() {
        let s = TransactionSpec::new(vec![10.0, 30.0, 20.0], 2);
        assert_eq!(s.n_items(), 3);
        assert_eq!(s.total_bytes(), 60.0);
        assert_eq!(s.max_item_bytes(), 30.0);
        let u = TransactionSpec::uniform(5, 3, 7.0);
        assert_eq!(u.n_items(), 5);
        assert_eq!(u.total_bytes(), 35.0);
    }

    #[test]
    #[should_panic]
    fn zero_paths_rejected() {
        TransactionSpec::new(vec![1.0], 0);
    }

    #[test]
    #[should_panic]
    fn empty_items_rejected() {
        TransactionSpec::new(vec![], 1);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::Greedy.label(), "GRD");
        assert_eq!(Policy::RoundRobin.label(), "RR");
        assert_eq!(Policy::min_time_paper().label(), "MIN");
        match Policy::min_time_paper() {
            Policy::MinTime { alpha } => assert_eq!(alpha, 0.75),
            _ => panic!(),
        }
    }

    #[test]
    fn shared_state_counts_unique_completions() {
        let mut s = SharedState::new(TransactionSpec::uniform(2, 1, 1.0));
        assert!(s.complete(0));
        assert!(!s.complete(0)); // duplicate
        assert!(!s.is_done());
        assert!(s.complete(1));
        assert!(s.is_done());
    }

    /// Answers each event with the next scripted batch of commands; done
    /// once every item has completed.
    struct Script {
        replies: Vec<Vec<Command>>,
        landed: Vec<bool>,
        heard: usize,
    }

    impl Script {
        fn new(n_items: usize, mut replies: Vec<Vec<Command>>) -> Script {
            replies.reverse();
            Script { replies, landed: vec![false; n_items], heard: 0 }
        }

        fn reply(&mut self) -> Vec<Command> {
            self.heard += 1;
            self.replies.pop().unwrap_or_default()
        }
    }

    impl MultipathScheduler for Script {
        fn start(&mut self) -> Vec<Command> {
            self.reply()
        }
        fn on_complete(&mut self, _: usize, item: usize, _: f64, _: f64, _: f64) -> Vec<Command> {
            self.landed[item] = true;
            self.reply()
        }
        fn on_failed(&mut self, _: usize, _: usize, _: f64) -> Vec<Command> {
            self.reply()
        }
        fn is_done(&self) -> bool {
            self.landed.iter().all(|&l| l)
        }
        fn name(&self) -> &'static str {
            "SCRIPT"
        }
    }

    /// Records the copies it starts and cancels; a copy cancelled on
    /// path `p` has moved `moved[p]` bytes.
    struct Log {
        moved: Vec<f64>,
        started: Vec<(usize, usize)>,
        cancelled: Vec<usize>,
    }

    impl Log {
        fn new(moved: Vec<f64>) -> Log {
            Log { moved, started: Vec::new(), cancelled: Vec::new() }
        }
    }

    impl Transport for Log {
        fn start(&mut self, path: usize, item: usize) {
            self.started.push((path, item));
        }
        fn cancel(&mut self, path: usize) -> f64 {
            self.cancelled.push(path);
            self.moved[path]
        }
    }

    fn start(path: usize, item: usize) -> Command {
        Command::Start { path, item }
    }

    fn abort(path: usize, item: usize) -> Command {
        Command::Abort { path, item }
    }

    #[test]
    fn an_item_gives_up_on_its_3n_plus_first_failure() {
        // Round-robin retries a failed item on its own path.
        let mut sched = crate::RoundRobin::new(TransactionSpec::uniform(1, 2, 100.0));
        let mut log = Log::new(vec![0.0; 2]);
        let mut book = Transaction::start(&mut sched, 2, 1, 0.0, &mut log);
        for k in 1..=6 {
            assert_eq!(book.failed(0, 0, k as f64, 10.0, &mut log), Ok(()), "failure {k}");
        }
        assert_eq!(book.failed(0, 0, 7.0, 10.0, &mut log), Err(GaveUp));
        assert_eq!(log.started, vec![(0, 0); 7]);
    }

    #[test]
    fn failed_bytes_count_on_the_path_but_not_as_waste() {
        let mut sched = Script::new(1, vec![vec![start(0, 0)], vec![start(0, 0)]]);
        let mut log = Log::new(vec![0.0]);
        let mut book = Transaction::start(&mut sched, 1, 1, 0.0, &mut log);
        assert_eq!(book.failed(0, 0, 1.0, 300.0, &mut log), Ok(()));
        book.completed(0, 0, 2.0, 1000.0, 1000.0, &mut log);
        let report = book.finish(&mut log);
        assert_eq!(report.bytes_per_path, vec![1300.0]);
        assert_eq!(report.wasted_bytes, 0.0);
        assert_eq!(report.item_secs, vec![2.0]);
    }

    #[test]
    fn a_report_from_an_aborted_copy_is_ignored() {
        // Item 0 runs on both paths; its first copy lands on path 0, the
        // copy on path 1 is aborted, and path 1 moves on to item 1.
        let mut sched = Script::new(
            2,
            vec![vec![start(0, 0), start(1, 0)], vec![abort(1, 0), start(1, 1)], vec![]],
        );
        let mut log = Log::new(vec![0.0, 40.0]);
        let mut book = Transaction::start(&mut sched, 2, 2, 0.0, &mut log);
        assert!(book.completed(0, 0, 1.0, 100.0, 100.0, &mut log));
        // The aborted copy's late reports find path 1 running item 1.
        assert!(!book.completed(1, 0, 1.5, 100.0, 100.0, &mut log));
        assert_eq!(book.failed(1, 0, 1.5, 100.0, &mut log), Ok(()));
        assert!(book.completed(1, 1, 3.0, 100.0, 100.0, &mut log));
        let report = book.finish(&mut log);
        assert_eq!(report.item_secs, vec![1.0, 3.0]);
        assert_eq!(report.bytes_per_path, vec![100.0, 140.0]);
        assert_eq!(report.wasted_bytes, 40.0);
        assert_eq!(sched.heard, 3, "the scheduler heard the late reports");
    }

    #[test]
    fn stragglers_are_cancelled_in_path_order_and_charged_as_waste() {
        // A scheduler that leaves its duplicates running.
        let mut sched = Script::new(1, vec![vec![start(2, 0), start(0, 0), start(1, 0)], vec![]]);
        let mut log = Log::new(vec![10.0, 0.0, 30.0]);
        let mut book = Transaction::start(&mut sched, 3, 1, 5.0, &mut log);
        book.completed(1, 0, 7.0, 100.0, 100.0, &mut log);
        assert!(book.is_done());
        let report = book.finish(&mut log);
        assert_eq!(log.cancelled, vec![0, 2]);
        assert_eq!(report.wasted_bytes, 40.0);
        assert_eq!(report.bytes_per_path, vec![10.0, 100.0, 30.0]);
        assert_eq!(report.total_secs, 2.0);
        assert_eq!((report.starts, report.aborts), (3, 0));
    }

    #[test]
    fn starts_and_aborts_count_commands() {
        let sizes = vec![1000.0; 2];
        let mut sched = crate::Greedy::new(TransactionSpec::new(sizes, 2));
        let mut log = Log::new(vec![0.0, 250.0]);
        let mut book = Transaction::start(&mut sched, 2, 2, 0.0, &mut log);
        // Path 0 lands item 0 and duplicates item 1, whose copy there
        // lands first: path 1's copy is aborted.
        book.completed(0, 0, 1.0, 1000.0, 1000.0, &mut log);
        book.completed(0, 1, 2.0, 1000.0, 1000.0, &mut log);
        let report = book.finish(&mut log);
        assert_eq!(log.started, vec![(0, 0), (1, 1), (0, 1)]);
        assert_eq!(log.cancelled, vec![1]);
        assert_eq!((report.starts, report.aborts), (3, 1));
        assert_eq!(report.wasted_bytes, 250.0);
    }

    #[test]
    fn ticks_are_on_the_driver_clock_and_strictly_ahead() {
        let deadlines = crate::PlayoutAware::vod_deadlines(3, 10.0, 1, 5.0);
        let spec = TransactionSpec::uniform(3, 1, 100.0);
        let mut sched = crate::PlayoutAware::new(spec, deadlines, 0.0);
        let mut log = Log::new(vec![0.0]);
        let mut book = Transaction::start(&mut sched, 1, 3, 100.0, &mut log);
        book.completed(0, 0, 101.0, 100.0, 100.0, &mut log);
        // Item 1 is due 5 s into the transaction.
        assert_eq!(book.next_tick(101.0), Some(105.0));
        assert_eq!(book.next_tick(106.0), Some(106.0 + 1e-6));
        book.tick(105.0, &mut log);
        assert_eq!(log.started, vec![(0, 0), (0, 1)]);
    }
}
