//! Cross-validation of the two offline scheduler drivers: the pure toy
//! executor (`threegol-sched::toy`) and the fluid-simulation runner
//! (`threegol-core::TransactionRunner`) share one transaction book, so
//! on constant-rate, overhead-free paths they must agree exactly — any
//! divergence means one transport misreports what it moved or when.

use proptest::prelude::*;

use threegol::core::{PathSpec, TransactionRunner};
use threegol::sched::toy::ToyExecutor;
use threegol::sched::{
    build, MultipathScheduler, PlayoutAware, Policy, TransactionSpec, TransferReport,
};
use threegol::simnet::{CapacityProcess, Simulation};

fn run_both(
    make: impl Fn() -> Box<dyn MultipathScheduler>,
    sizes: &[f64],
    rates_bps: &[f64],
) -> (TransferReport, TransferReport) {
    let toy = ToyExecutor::constant(rates_bps.to_vec()).run(make().as_mut(), sizes);

    let mut sim = Simulation::new();
    let paths: Vec<PathSpec> = rates_bps
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let l = sim.add_link(format!("p{i}"), CapacityProcess::constant(r));
            PathSpec::new(vec![l], 0.0, 0.0)
        })
        .collect();
    let fluid = TransactionRunner::new(paths, sizes.to_vec())
        .run(&mut sim, make().as_mut())
        .expect("completes");
    (toy, fluid)
}

/// The two reports differ by more than float error, described.
fn disagreement(toy: &TransferReport, fluid: &TransferReport) -> Option<String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
    let agree = close(toy.total_secs, fluid.total_secs)
        && toy.item_secs.len() == fluid.item_secs.len()
        && toy.item_secs.iter().zip(&fluid.item_secs).all(|(a, b)| close(*a, *b))
        && toy.starts == fluid.starts
        && toy.aborts == fluid.aborts
        && close(toy.wasted_bytes, fluid.wasted_bytes);
    (!agree).then(|| format!("toy {toy:?} vs fluid {fluid:?}"))
}

fn policy(policy: Policy, n_paths: usize, sizes: &[f64]) -> Box<dyn MultipathScheduler> {
    build(policy, TransactionSpec::new(sizes.to_vec(), n_paths))
}

#[test]
fn drivers_agree_on_fixed_scenarios() {
    let scenarios: Vec<(Policy, Vec<f64>, Vec<f64>)> = vec![
        (Policy::Greedy, vec![1000.0; 5], vec![8000.0, 4000.0]),
        (Policy::RoundRobin, vec![1000.0; 5], vec![8000.0, 4000.0]),
        (Policy::min_time_paper(), vec![1000.0; 5], vec![8000.0, 4000.0]),
        (Policy::Greedy, vec![500.0, 2500.0, 1500.0], vec![6000.0, 6000.0, 2000.0]),
        (Policy::RoundRobin, vec![750.0; 7], vec![1000.0]),
    ];
    for (p, sizes, rates) in scenarios {
        let (toy, fluid) = run_both(|| policy(p, rates.len(), &sizes), &sizes, &rates);
        assert_eq!(disagreement(&toy, &fluid), None, "{p:?}");
    }
}

/// A tick-driven policy: after the two pre-buffer segments, each
/// segment waits for its playout window, so both drivers must idle the
/// paths and wake on the scheduler's ticks. The last segment is
/// duplicated onto the slow path and its copy there aborted.
#[test]
fn drivers_agree_on_a_tick_driven_policy() {
    let sizes = [1000.0; 6];
    let rates = [8000.0, 4000.0];
    let playout = || -> Box<dyn MultipathScheduler> {
        let deadlines = PlayoutAware::vod_deadlines(6, 2.0, 2, 1.0);
        Box::new(PlayoutAware::new(TransactionSpec::new(sizes.to_vec(), 2), deadlines, 0.5))
    };
    let (toy, fluid) = run_both(playout, &sizes, &rates);
    assert_eq!(disagreement(&toy, &fluid), None);
    assert_eq!((toy.starts, toy.aborts), (7, 1), "{toy:?}");
    assert!((toy.total_secs - 7.5).abs() < 1e-6, "{toy:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn drivers_agree_on_random_transactions(
        m in 1usize..10,
        policy_idx in 0usize..3,
        sizes_seed in 1u64..1000,
        n_paths in 1usize..4,
    ) {
        let p = [Policy::Greedy, Policy::RoundRobin, Policy::min_time_paper()][policy_idx];
        let sizes: Vec<f64> = (0..m)
            .map(|i| 200.0 + ((sizes_seed.wrapping_mul(31).wrapping_add(i as u64 * 97)) % 5000) as f64)
            .collect();
        let rates: Vec<f64> = (0..n_paths)
            .map(|p| 1000.0 + ((sizes_seed.wrapping_mul(17).wrapping_add(p as u64 * 131)) % 9000) as f64)
            .collect();
        let (toy, fluid) = run_both(|| policy(p, n_paths, &sizes), &sizes, &rates);
        prop_assert_eq!(disagreement(&toy, &fluid), None);
    }
}
