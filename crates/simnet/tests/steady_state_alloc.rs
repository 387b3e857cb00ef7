//! Verifies the tentpole property of the hot-path rework: once warm,
//! the steady-state event loop (capacity changes, wakeups and flow
//! completions, no flow *starts*) performs **zero** heap allocations.
//! This covers the calendar stepper end to end: completion and
//! capacity heap pushes must reuse capacity, lazy-deletion compaction
//! must run in place, and retiring a completed flow must recycle its
//! topology slot without growing any buffer.
//!
//! A counting global allocator wraps `System`; the test warms the
//! simulation until every persistent buffer has reached its steady
//! size, snapshots the counter, drives hundreds of further events and
//! asserts the counter did not move. This file must contain exactly
//! one `#[test]` — a concurrently running test could allocate and
//! produce a false failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use threegol_simnet::capacity::DiurnalProfile;
use threegol_simnet::{CapacityProcess, SimTime, Simulation, WakeToken};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_event_loop_allocates_nothing() {
    // The fig06 shape: one ADSL line plus two 3G phone links, all
    // resampled every second, plus a two-link path so several links
    // share one component. Flows are effectively infinite, so the
    // whole run is pure steady state.
    let mut sim = Simulation::new();
    let adsl =
        sim.add_link("adsl", CapacityProcess::stochastic(2e6, 0.3, 1.0, DiurnalProfile::flat(), 1));
    let p1 =
        sim.add_link("3g1", CapacityProcess::stochastic(3e6, 0.4, 1.0, DiurnalProfile::flat(), 2));
    let p2 =
        sim.add_link("3g2", CapacityProcess::stochastic(3e6, 0.4, 1.0, DiurnalProfile::flat(), 3));
    for link in [adsl, p1, p2] {
        sim.start_flow(vec![link], 1e15);
        sim.start_flow(vec![link], 1e15);
    }
    sim.start_flow(vec![adsl, p1], 1e15);
    // A warm-up-only flow, cancelled below: pre-grows the topology's
    // free-slot list so the finite flow's mid-window completion can
    // recycle a slot without allocating.
    let warmup_only = sim.start_flow(vec![p2], 1e15);
    // A finite flow sized to complete mid-measurement (~0.5 Mbps fair
    // share × ~60 s): its retirement exercises the completion calendar
    // — pop, lazy settlement, slot recycling — inside the measured
    // window.
    sim.start_flow(vec![adsl], 4_000_000.0);
    // Wakeups scheduled up front: popping them during the measured
    // window must not allocate either.
    for i in 0..200u64 {
        sim.schedule_wakeup(SimTime::from_secs(20.0 + i as f64), WakeToken(i));
    }

    // Warm-up: grow every persistent buffer (scratch, dirty and walk
    // lists, candidate lists) to steady size, crossing a run_until
    // boundary, plenty of capacity events, and several
    // wakeups coinciding with capacity changes (that pattern defers a
    // recompute and lets dirty-link commits accumulate, so it sets the
    // high-water mark of the dirty list).
    sim.run_until(SimTime::from_secs(10.0));
    let _ = sim.cancel_flow(warmup_only).expect("warm-up flow active");
    while let Some(e) = sim.next_event_until(SimTime::from_secs(30.0)) {
        std::hint::black_box(e);
    }

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    // Measured window: ~600 capacity-change events across the three
    // stochastic links plus 200 wakeups, one flow completion and one
    // run_until boundary.
    let mut completions = 0u32;
    while let Some(e) = sim.next_event_until(SimTime::from_secs(215.0)) {
        if matches!(e, threegol_simnet::SimEvent::FlowCompleted { .. }) {
            completions += 1;
        }
        std::hint::black_box(e);
    }
    sim.run_until(SimTime::from_secs(220.0));
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(after - before, 0, "steady-state event loop allocated {} time(s)", after - before);
    // The simulation really did advance through the window, and the
    // finite flow's completion really happened inside it.
    assert_eq!(sim.now(), SimTime::from_secs(220.0));
    assert_eq!(completions, 1, "the finite flow must complete mid-window");
}
