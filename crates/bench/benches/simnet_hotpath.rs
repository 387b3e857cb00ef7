//! Micro-benchmarks of the reworked simnet hot path (see `DESIGN.md` §8;
//! end-to-end numbers come from the repository benchmark,
//! `bash benchmark/run.sh`, whose `sim_sweep` workload covers the
//! simulator).
//!
//! Four angles:
//! - `solver`: the allocating reference oracle vs the scratch-backed
//!   `max_min_fair_into` on identical inputs;
//! - `steady_state`: the full event loop on the fig06 shape (one ADSL
//!   home with two onloading phones) where every event is a capacity
//!   resample — the allocation-free path;
//! - `components`: many independent homes, where dirty-component
//!   tracking lets each capacity change re-solve one home instead of
//!   the whole street;
//! - `fleet`: 1000 homes with flow churn (finite flows, each
//!   completion restarts a replacement), the workload the event-local
//!   calendar stepper targets — O(log n) per event instead of a scan
//!   over all flows and links.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use threegol_simnet::capacity::DiurnalProfile;
use threegol_simnet::fairshare::{
    max_min_fair, max_min_fair_into, FairShareScratch, FlowDemand, FlowTable,
};
use threegol_simnet::{CapacityProcess, SimEvent, SimTime, Simulation};

fn solver_inputs(nl: usize, nf: usize) -> (Vec<f64>, Vec<FlowDemand>) {
    let caps: Vec<f64> = (0..nl).map(|i| 1e6 + (i as f64) * 1e5).collect();
    let flows: Vec<FlowDemand> = (0..nf)
        .map(|f| FlowDemand {
            links: vec![f % nl, (f * 7 + 1) % nl],
            cap: if f % 3 == 0 { Some(5e5) } else { None },
        })
        .collect();
    (caps, flows)
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_solver");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (nl, nf) in [(4usize, 8usize), (64, 256)] {
        let (caps, flows) = solver_inputs(nl, nf);
        group.bench_function(format!("reference_l{nl}_f{nf}"), |b| {
            b.iter(|| max_min_fair(std::hint::black_box(&caps), std::hint::black_box(&flows)))
        });
        let table = FlowTable::from_demands(&flows);
        let mut scratch = FairShareScratch::default();
        let mut out = Vec::new();
        group.bench_function(format!("scratch_l{nl}_f{nf}"), |b| {
            b.iter(|| {
                max_min_fair_into(
                    std::hint::black_box(&caps),
                    std::hint::black_box(&table),
                    &mut scratch,
                    &mut out,
                );
                std::hint::black_box(out.len())
            })
        });
    }
    group.finish();
}

fn build_street(n_homes: usize) -> Simulation {
    let mut sim = Simulation::new();
    for h in 0..n_homes as u64 {
        let adsl = sim.add_link(
            format!("adsl{h}"),
            CapacityProcess::stochastic(2e6, 0.3, 1.0, DiurnalProfile::flat(), 1 + h),
        );
        let p1 = sim.add_link(
            format!("3g{h}a"),
            CapacityProcess::stochastic(3e6, 0.4, 1.0, DiurnalProfile::flat(), 100 + h),
        );
        let p2 = sim.add_link(
            format!("3g{h}b"),
            CapacityProcess::stochastic(3e6, 0.4, 1.0, DiurnalProfile::flat(), 200 + h),
        );
        for link in [adsl, p1, p2] {
            sim.start_flow(vec![link], 1e15);
            sim.start_flow(vec![link], 1e15);
        }
    }
    sim
}

fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_steady_state");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("fig06_home_60s", |b| {
        b.iter_batched(
            || build_street(1),
            |mut sim| sim.run_until(SimTime::from_secs(60.0)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_components");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("street_16_homes_30s", |b| {
        b.iter_batched(
            || build_street(16),
            |mut sim| sim.run_until(SimTime::from_secs(30.0)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// One fleet run with churn: every link carries two finite flows and
/// each completion immediately starts a replacement on the same link,
/// at a criterion-friendly horizon.
fn run_churn_fleet(n_homes: usize, horizon_secs: f64) -> u64 {
    let mut sim = Simulation::new();
    let mut links = Vec::with_capacity(n_homes * 3);
    for h in 0..n_homes as u64 {
        links.push(sim.add_link(
            format!("adsl{h}"),
            CapacityProcess::stochastic(2e6, 0.3, 1.0, DiurnalProfile::flat(), 1 + h),
        ));
        for p in 0..2u64 {
            links.push(sim.add_link(
                format!("3g{h}_{p}"),
                CapacityProcess::stochastic(
                    3e6,
                    0.4,
                    1.0,
                    DiurnalProfile::flat(),
                    1000 + h * 31 + p,
                ),
            ));
        }
    }
    let mut seq = 0u64;
    let mut next_size = move || {
        seq += 1;
        250_000.0 + (seq * 37_559 % 500_000) as f64
    };
    for &l in &links {
        sim.start_flow(vec![l], next_size());
        sim.start_flow(vec![l], next_size());
    }
    let horizon = SimTime::from_secs(horizon_secs);
    let mut events = 0u64;
    while let Some(ev) = sim.next_event_until(horizon) {
        events += 1;
        if let SimEvent::FlowCompleted { record, .. } = ev {
            sim.start_flow(vec![record.path[0]], next_size());
        }
    }
    events
}

fn bench_fleet(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_fleet");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    group.bench_function("fleet_1k_homes_2s", |b| {
        b.iter(|| std::hint::black_box(run_churn_fleet(1000, 2.0)))
    });
    group.finish();
}

criterion_group!(simnet_hotpath, bench_solver, bench_steady_state, bench_components, bench_fleet);
criterion_main!(simnet_hotpath);
