//! # threegol-sched
//!
//! The multipath transaction schedulers at the heart of 3GOL (paper
//! §4.1.1 and §5.1).
//!
//! A *transaction* is a set of `M` items (HLS video segments, photos)
//! to transfer over `N` paths (the ADSL line plus one path per 3G
//! device). The scheduler's goal is to minimize the total transaction
//! time. Three policies are implemented:
//!
//! * [`Greedy`] (**GRD**, the paper's contribution): assign items in
//!   order to the first available path; once every item is scheduled,
//!   an idle path re-transfers the *oldest* item still in flight
//!   elsewhere, and when any copy of an item completes all other copies
//!   are aborted. Wasted bytes are bounded by `(N−1)·S_max`.
//! * [`RoundRobin`] (**RR**): item `k` is statically assigned to path
//!   `k mod N`; each path works through its queue sequentially.
//! * [`MinTime`] (**MIN**): first `N` items round-robin to bootstrap,
//!   then each completion updates the path's bandwidth estimate
//!   (exponential smoothing, α = 0.75) and the next unassigned item is
//!   queued on the path with the minimal estimated finish time. Under
//!   rapidly varying cellular bandwidth the estimates go stale and MIN
//!   performs worst — exactly the paper's finding.
//!
//! The schedulers are pure state machines: they receive path/completion
//! events and emit [`Command`]s. One [`Transaction`] book runs them for
//! every driver. It executes their commands on a [`Transport`] and keeps
//! the accounts (starts, aborts, first-copy times, bytes per path, waste,
//! the failure limit and the ticks a policy asks for) in a
//! [`TransferReport`]. So each driver is only its transport: the
//! scripted-rate [`toy`] executor here, the `threegol-simnet` fluid
//! runner in `threegol-core`, and the live tokio client in
//! `threegol-proxy`, and every policy runs on all three.

pub mod estimator;
pub mod greedy;
mod mintime;
pub mod playout;
mod roundrobin;
pub mod toy;
pub mod transaction;

pub use estimator::BandwidthEstimator;
pub use greedy::Greedy;
pub use mintime::MinTime;
pub use playout::PlayoutAware;
pub use roundrobin::RoundRobin;
pub use transaction::{
    Command, GaveUp, MultipathScheduler, Policy, Transaction, TransactionSpec, TransferReport,
    Transport,
};

/// Instantiate a scheduler for `spec` under the given policy.
pub fn build(policy: Policy, spec: TransactionSpec) -> Box<dyn MultipathScheduler> {
    match policy {
        Policy::Greedy => Box::new(Greedy::new(spec)),
        Policy::RoundRobin => Box::new(RoundRobin::new(spec)),
        Policy::MinTime { alpha } => Box::new(MinTime::new(spec, alpha)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches_policies() {
        let spec = TransactionSpec::uniform(4, 2, 100.0);
        assert_eq!(build(Policy::Greedy, spec.clone()).name(), "GRD");
        assert_eq!(build(Policy::RoundRobin, spec.clone()).name(), "RR");
        assert_eq!(build(Policy::MinTime { alpha: 0.75 }, spec).name(), "MIN");
    }
}
