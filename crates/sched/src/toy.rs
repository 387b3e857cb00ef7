//! A tiny deterministic driver for exercising schedulers end-to-end
//! without a network: each path transfers at a scripted rate. Used by
//! unit/property tests and for documenting scheduler behaviour. Like
//! the fluid runner in `threegol-core` and the live client in
//! `threegol-proxy`, it is only a transport: a [`Transaction`] keeps
//! the books and the ticks, so tick-driven policies run here too.

use crate::transaction::{MultipathScheduler, Transaction, TransferReport, Transport};

#[derive(Debug, Clone)]
struct Active {
    item: usize,
    remaining: f64,
    rate_bps: f64,
    /// Start order, used to break simultaneous-completion ties the
    /// same way the fluid runner does (flow creation order).
    seq: u64,
}

/// Deterministic scripted-rate executor.
///
/// `rate_script[p]` is the sequence of rates (bits/second) path `p`
/// uses for its successive transfers, cycled if it runs out. This lets
/// tests model "highly variable" paths deterministically.
#[derive(Debug, Clone)]
pub struct ToyExecutor {
    rate_script: Vec<Vec<f64>>,
    transfers_started: Vec<usize>,
}

impl ToyExecutor {
    /// Create an executor with one rate script per path.
    pub fn new(rate_script: Vec<Vec<f64>>) -> ToyExecutor {
        assert!(!rate_script.is_empty());
        assert!(rate_script.iter().all(|s| !s.is_empty() && s.iter().all(|r| *r > 0.0)));
        let n = rate_script.len();
        ToyExecutor { rate_script, transfers_started: vec![0; n] }
    }

    /// Constant-rate paths.
    pub fn constant(rates_bps: Vec<f64>) -> ToyExecutor {
        ToyExecutor::new(rates_bps.into_iter().map(|r| vec![r]).collect())
    }

    fn next_rate(&mut self, path: usize) -> f64 {
        let script = &self.rate_script[path];
        let r = script[self.transfers_started[path] % script.len()];
        self.transfers_started[path] += 1;
        r
    }

    /// Run `sched` (for `item_sizes`) to completion and report timing.
    ///
    /// # Panics
    /// Panics if the scheduler deadlocks (not done, no transfer active
    /// and no tick asked for) or issues an invalid command — both are
    /// scheduler bugs the tests are meant to catch.
    pub fn run(
        &mut self,
        sched: &mut dyn MultipathScheduler,
        item_sizes: &[f64],
    ) -> TransferReport {
        let n = self.rate_script.len();
        let mut toy =
            Scripted { exec: self, sizes: item_sizes, active: vec![None; n], next_seq: 0 };
        let mut book = Transaction::start(sched, n, item_sizes.len(), 0.0, &mut toy);
        let mut now = 0.0_f64;
        while !book.is_done() {
            // Earliest completion among active transfers.
            let next = toy
                .active
                .iter()
                .enumerate()
                .filter_map(|(p, a)| a.as_ref().map(|a| (p, a.remaining * 8.0 / a.rate_bps, a.seq)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)));
            // A tick due no later than the next completion goes first,
            // as a simulator wakeup does.
            let tick = book.next_tick(now);
            match next {
                Some((path, dt, _)) if tick.is_none_or(|at| now + dt < at) => {
                    now += dt;
                    toy.advance(dt);
                    let item = toy.active[path].take().expect("path had a transfer").item;
                    let size = item_sizes[item];
                    book.completed(path, item, now, size, size, &mut toy);
                }
                _ => {
                    let at = tick.expect("scheduler deadlock: not done but no active transfer");
                    toy.advance(at - now);
                    now = at;
                    book.tick(now, &mut toy);
                }
            }
        }
        book.finish(&mut toy)
    }
}

/// The toy's transport: the transfer each path is running.
struct Scripted<'a> {
    exec: &'a mut ToyExecutor,
    sizes: &'a [f64],
    active: Vec<Option<Active>>,
    next_seq: u64,
}

impl Scripted<'_> {
    /// Move every active transfer `dt` seconds on.
    fn advance(&mut self, dt: f64) {
        for a in self.active.iter_mut().flatten() {
            a.remaining -= a.rate_bps * dt / 8.0;
        }
    }
}

impl Transport for Scripted<'_> {
    fn start(&mut self, path: usize, item: usize) {
        let rate_bps = self.exec.next_rate(path);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.active[path] = Some(Active { item, remaining: self.sizes[item], rate_bps, seq });
    }

    fn cancel(&mut self, path: usize) -> f64 {
        let a = self.active[path].take().expect("the book cancels only running copies");
        self.sizes[a.item] - a.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{Policy, TransactionSpec};
    use crate::{build, Greedy};

    fn run_policy(policy: Policy, sizes: &[f64], rates: Vec<Vec<f64>>) -> TransferReport {
        let spec = TransactionSpec::new(sizes.to_vec(), rates.len());
        let mut sched = build(policy, spec);
        ToyExecutor::new(rates).run(sched.as_mut(), sizes)
    }

    #[test]
    fn single_path_sequential_time() {
        // 3 items of 1000 B at 8000 bps = 1 s each.
        for policy in [Policy::Greedy, Policy::RoundRobin, Policy::min_time_paper()] {
            let r = run_policy(policy, &[1000.0, 1000.0, 1000.0], vec![vec![8000.0]]);
            assert!((r.total_secs - 3.0).abs() < 1e-9, "{policy:?}: {r:?}");
        }
    }

    #[test]
    fn greedy_uses_both_paths_fully() {
        // 4 × 1000 B items; path rates 8000 and 4000 bps (1 s and 2 s per item).
        // Greedy: p0 gets items at t=1,2,3; p1 finishes one at t=2, then
        // duplicates. Total well under the single-path 4 s.
        let r = run_policy(Policy::Greedy, &[1000.0; 4], vec![vec![8000.0], vec![4000.0]]);
        assert!(r.total_secs <= 3.0 + 1e-9, "{r:?}");
        // All completions recorded.
        assert!(r.item_secs.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn greedy_waste_bounded() {
        let sizes = vec![1000.0; 10];
        let spec = TransactionSpec::new(sizes.clone(), 3);
        let bound = Greedy::new(spec.clone()).waste_bound_bytes();
        let mut sched = Greedy::new(spec);
        let r = ToyExecutor::constant(vec![8000.0, 5000.0, 3000.0]).run(&mut sched, &sizes);
        assert!(r.wasted_bytes <= bound + 1e-9, "waste {} > bound {}", r.wasted_bytes, bound);
    }

    #[test]
    fn round_robin_bounded_by_slowest_queue() {
        // 4 items over paths of 8000/2000 bps: RR puts items 1,3 on the
        // slow path (4 s each) → total 8 s. Greedy finishes far sooner.
        let rr = run_policy(Policy::RoundRobin, &[1000.0; 4], vec![vec![8000.0], vec![2000.0]]);
        assert!((rr.total_secs - 8.0).abs() < 1e-9, "{rr:?}");
        let grd = run_policy(Policy::Greedy, &[1000.0; 4], vec![vec![8000.0], vec![2000.0]]);
        assert!(grd.total_secs < rr.total_secs, "GRD {} vs RR {}", grd.total_secs, rr.total_secs);
    }

    #[test]
    fn min_commits_to_stale_estimates() {
        // Path 1's first transfer is fast (burst) then collapses; MIN
        // keeps feeding it based on the stale estimate while path 0
        // idles. Greedy adapts by pulling.
        let sizes = vec![1000.0; 6];
        let script = || vec![vec![4000.0], vec![32000.0, 1000.0, 1000.0, 1000.0, 1000.0]];
        let min = run_policy(Policy::min_time_paper(), &sizes, script());
        let grd = run_policy(Policy::Greedy, &sizes, script());
        let rr = run_policy(Policy::RoundRobin, &sizes, script());
        assert!(
            grd.total_secs <= rr.total_secs && rr.total_secs <= min.total_secs,
            "expected GRD <= RR <= MIN, got GRD {} RR {} MIN {}",
            grd.total_secs,
            rr.total_secs,
            min.total_secs
        );
    }

    #[test]
    fn aborts_clean_up_duplicates() {
        // 2 items, 2 paths; the second path is much slower so greedy
        // duplicates the tail item; one abort must be issued.
        let r = run_policy(Policy::Greedy, &[1000.0, 1000.0], vec![vec![8000.0], vec![800.0]]);
        assert!(r.aborts >= 1, "{r:?}");
        assert!(r.wasted_bytes > 0.0);
        assert!(r.total_secs < 2.5);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every policy finishes every transaction, records every
            /// item completion, and the total time is at least the
            /// lower bound total_bytes / sum(rates).
            #[test]
            fn all_policies_complete(
                m in 1usize..12,
                n in 1usize..4,
                size in 500.0f64..5000.0,
                seed in 0u64..1000,
            ) {
                let sizes = vec![size; m];
                // Deterministic pseudo-random rate scripts from the seed.
                let rates: Vec<Vec<f64>> = (0..n).map(|p| {
                    (0..4).map(|k| {
                        let x = (seed.wrapping_mul(6364136223846793005)
                            .wrapping_add(((p * 7 + k) as u64).wrapping_mul(1442695040888963407))) >> 33;
                        1000.0 + (x % 16000) as f64
                    }).collect()
                }).collect();
                for policy in [Policy::Greedy, Policy::RoundRobin, Policy::min_time_paper()] {
                    let spec = TransactionSpec::new(sizes.clone(), n);
                    let mut sched = build(policy, spec);
                    let r = ToyExecutor::new(rates.clone()).run(sched.as_mut(), &sizes);
                    prop_assert!(r.total_secs.is_finite() && r.total_secs > 0.0);
                    prop_assert!(r.item_secs.iter().all(|t| t.is_finite()));
                    // Can't beat the aggregate-capacity lower bound
                    // (best-case per-transfer rates).
                    let max_rate: f64 = rates.iter().flatten().cloned().fold(0.0, f64::max);
                    let lb = sizes.iter().sum::<f64>() * 8.0 / (n as f64 * max_rate);
                    prop_assert!(r.total_secs >= lb - 1e-6);
                }
            }

            /// Greedy's wasted bytes never exceed the paper's bound.
            #[test]
            fn greedy_waste_bound_holds(
                m in 1usize..10,
                n in 2usize..5,
                seed in 0u64..500,
            ) {
                let sizes: Vec<f64> = (0..m).map(|i| 500.0 + (i as f64 * 321.0) % 2000.0).collect();
                let rates: Vec<Vec<f64>> = (0..n).map(|p| {
                    vec![800.0 + ((seed + p as u64 * 13) % 9000) as f64]
                }).collect();
                let spec = TransactionSpec::new(sizes.clone(), n);
                let bound = Greedy::new(spec.clone()).waste_bound_bytes();
                let mut sched = Greedy::new(spec);
                let r = ToyExecutor::new(rates).run(&mut sched, &sizes);
                prop_assert!(r.wasted_bytes <= bound + 1e-6);
            }
        }
    }
}
