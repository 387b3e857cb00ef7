//! The replication-sharding execution layer: a work-stealing pool of
//! scoped threads that runs an experiment's independent replication
//! units across cores.
//!
//! Design:
//!
//! * jobs enter through a shared [`crossbeam::deque::Injector`];
//! * each worker owns a local deque and follows the classic
//!   crossbeam discipline — pop local work first, then grab a batch
//!   from the injector, then steal from a sibling;
//! * [`map`] fans a `Vec` of units out as one job per unit and
//!   reassembles the results **in unit order**, so the merged output
//!   is byte-identical no matter how many workers ran or how the
//!   steals interleaved;
//! * workers are scoped threads: [`Pool::with`] joins them before it
//!   returns, so a pool can never outlive the driver that created it.
//!
//! Worker-count selection (a CLI argument, else the detected core
//! count) lives in [`resolve_workers`].

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crossbeam::deque::{Injector, Stealer, Worker};

/// A unit of work scheduled on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A work-stealing pool of scoped worker threads.
///
/// Created with [`Pool::with`]; shared by reference (`&Pool`) with any
/// number of submitting threads. Dropping out of `with` shuts the
/// workers down and joins them.
pub struct Pool {
    injector: Injector<Job>,
    workers: usize,
    shutdown: AtomicBool,
    /// Parking lot for idle workers: submitters notify on push.
    idle: Mutex<()>,
    wakeup: Condvar,
}

impl Pool {
    /// Run `f` with a pool of `workers` threads, then shut the pool
    /// down and join every worker before returning.
    ///
    /// `workers == 0` is clamped to 1. With one worker the pool still
    /// works but [`map`] short-circuits to inline execution, so a
    /// 1-worker pool is exactly the serial path.
    pub fn with<R>(workers: usize, f: impl FnOnce(&Pool) -> R) -> R {
        let workers = workers.max(1);
        let pool = Pool {
            injector: Injector::new(),
            workers,
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(()),
            wakeup: Condvar::new(),
        };
        let locals: Vec<Worker<Job>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Job>> = locals.iter().map(|w| w.stealer()).collect();
        std::thread::scope(|scope| {
            let pool_ref = &pool;
            let stealers = &stealers;
            for (index, local) in locals.into_iter().enumerate() {
                scope.spawn(move || pool_ref.worker_loop(index, local, stealers));
            }
            // Catch a panicking driver (e.g. a unit panic re-raised by
            // [`map`]) so the shutdown flag is always set: otherwise
            // the workers never exit and the scope join hangs forever.
            let result = catch_unwind(AssertUnwindSafe(|| f(pool_ref)));
            pool_ref.shutdown.store(true, Ordering::SeqCst);
            {
                let _guard = pool_ref.idle.lock().expect("pool idle lock");
                pool_ref.wakeup.notify_all();
            }
            match result {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            }
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submit one job for execution on any worker.
    pub(crate) fn submit(&self, job: Job) {
        self.injector.push(job);
        // Taking the idle lock orders this notify against any worker's
        // empty-check-then-wait, so a push can't slip between the two
        // and leave the worker parked with work available.
        let _guard = self.idle.lock().expect("pool idle lock");
        self.wakeup.notify_all();
    }

    fn worker_loop(&self, index: usize, local: Worker<Job>, stealers: &[Stealer<Job>]) {
        loop {
            let job = local
                .pop()
                .or_else(|| self.injector.steal_batch_and_pop(&local).success())
                .or_else(|| {
                    stealers
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != index)
                        .find_map(|(_, s)| s.steal().success())
                });
            match job {
                Some(job) => job(),
                None => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Park until a submitter notifies. The timeout is a
                    // backstop for work that sits in a sibling's local
                    // deque (sibling pushes don't notify).
                    let guard = self.idle.lock().expect("pool idle lock");
                    if self.injector.is_empty() && !self.shutdown.load(Ordering::SeqCst) {
                        let _ = self
                            .wakeup
                            .wait_timeout(guard, Duration::from_millis(1))
                            .expect("pool idle lock");
                    }
                }
            }
        }
    }
}

/// Run `f` over every unit on the pool and return the results in unit
/// order (deterministic merge regardless of worker count or stealing
/// interleavings).
///
/// A unit that panics re-raises the panic on the calling thread once
/// all other in-flight sends have resolved, mirroring serial behavior.
/// With a single worker, or a single unit, everything runs inline on
/// the caller — the exact serial code path.
pub fn map<U, P, F>(pool: &Pool, units: Vec<U>, f: F) -> Vec<P>
where
    U: Send + Sync + 'static,
    P: Send + 'static,
    F: Fn(&U) -> P + Send + Sync + 'static,
{
    let n = units.len();
    fold(pool, units, f, Vec::with_capacity(n), |mut all, partial| {
        all.push(partial);
        all
    })
}

/// Run `f` over every unit on the pool and fold the partial results
/// into `init` with `merge`, **in unit order**, as they arrive.
///
/// This is the streaming counterpart of [`map`]: instead of holding
/// every partial result until the end, the caller's accumulator
/// absorbs each one the moment all earlier units have been absorbed —
/// partials that finish out of order wait in a buffer bounded by the
/// pool's reordering depth (at most the in-flight unit count), so the
/// driver's memory stays proportional to the worker count, never to
/// the unit count.
///
/// The merge order is the unit order regardless of how many workers
/// ran or how the steals interleaved, so an order-sensitive
/// accumulator (a running digest, a float fold) produces byte-identical
/// results for any worker count. With a single worker, or a single
/// unit, everything runs inline on the caller — the exact serial path.
///
/// A unit that panics re-raises the panic on the calling thread,
/// mirroring serial behavior.
pub fn fold<U, P, A, F, M>(pool: &Pool, units: Vec<U>, f: F, init: A, mut merge: M) -> A
where
    U: Send + Sync + 'static,
    P: Send + 'static,
    F: Fn(&U) -> P + Send + Sync + 'static,
    M: FnMut(A, P) -> A,
{
    let n = units.len();
    if pool.workers() <= 1 || n <= 1 {
        return units.iter().map(f).fold(init, merge);
    }
    let units = Arc::new(units);
    let f = Arc::new(f);
    let (tx, rx) = channel();
    for index in 0..n {
        let units = Arc::clone(&units);
        let f = Arc::clone(&f);
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| f(&units[index])));
            // A disconnected receiver means the driver already gave up
            // (another unit panicked); dropping the result is fine.
            let _ = tx.send((index, result));
        }));
    }
    drop(tx);
    let mut acc = init;
    let mut next = 0usize;
    let mut pending: BTreeMap<usize, P> = BTreeMap::new();
    for _ in 0..n {
        let (index, result) = rx.recv().expect("pool worker dropped a unit result");
        match result {
            Ok(partial) => {
                pending.insert(index, partial);
                while let Some(partial) = pending.remove(&next) {
                    acc = merge(acc, partial);
                    next += 1;
                }
            }
            Err(payload) => resume_unwind(payload),
        }
    }
    debug_assert!(pending.is_empty() && next == n, "every unit merged exactly once");
    acc
}

/// Pick the worker count: the explicit `cli` argument if given, else
/// the machine's available parallelism.
pub fn resolve_workers(cli: Option<usize>) -> usize {
    cli.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_unit_order() {
        let units: Vec<u64> = (0..100).collect();
        let out = Pool::with(4, |pool| {
            map(pool, units, |&u| {
                // Scramble completion order.
                if u % 7 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                u * 3
            })
        });
        assert_eq!(out, (0..100).map(|u| u * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn one_worker_matches_many_workers() {
        let units: Vec<u64> = (0..50).collect();
        let serial = Pool::with(1, |pool| map(pool, units.clone(), |&u| u * u));
        let parallel = Pool::with(8, |pool| map(pool, units, |&u| u * u));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_usable_from_concurrent_drivers() {
        Pool::with(4, |pool| {
            std::thread::scope(|scope| {
                for d in 0..6u64 {
                    scope.spawn(move || {
                        let units: Vec<u64> = (0..40).collect();
                        let out = map(pool, units, move |&u| u + d);
                        assert_eq!(out, (0..40).map(|u| u + d).collect::<Vec<u64>>());
                    });
                }
            });
        });
    }

    #[test]
    fn fold_merges_in_unit_order_for_any_worker_count() {
        // An order-sensitive accumulator: a polynomial hash of the
        // unit results. Any reordering changes the value.
        let hash = |workers: usize| {
            let units: Vec<u64> = (0..200).collect();
            Pool::with(workers, |pool| {
                fold(
                    pool,
                    units,
                    |&u| {
                        if u % 5 == 0 {
                            std::thread::sleep(Duration::from_micros(150));
                        }
                        u * 7 + 1
                    },
                    0u64,
                    |acc, p| acc.wrapping_mul(0x100000001b3).wrapping_add(p),
                )
            })
        };
        let serial = hash(1);
        assert_eq!(hash(2), serial);
        assert_eq!(hash(4), serial);
        assert_eq!(hash(7), serial);
    }

    #[test]
    fn fold_panic_propagates_to_driver() {
        let result = std::panic::catch_unwind(|| {
            Pool::with(4, |pool| {
                fold(
                    pool,
                    (0..16u64).collect::<Vec<u64>>(),
                    |&u| {
                        assert!(u != 9, "unit 9 exploded");
                        u
                    },
                    0u64,
                    |acc, p| acc + p,
                )
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn unit_panic_propagates_to_driver() {
        let result = std::panic::catch_unwind(|| {
            Pool::with(4, |pool| {
                map(pool, (0..16u64).collect::<Vec<u64>>(), |&u| {
                    assert!(u != 11, "unit 11 exploded");
                    u
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let out = Pool::with(0, |pool| {
            assert_eq!(pool.workers(), 1);
            map(pool, vec![1, 2, 3], |&u: &i32| u * 2)
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn resolve_workers_prefers_cli() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert!(resolve_workers(None) >= 1);
    }
}
