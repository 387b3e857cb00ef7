//! Regression tests for the engine's per-link flow lists under flow
//! churn: multi-link flows joining components, removals splitting them
//! again, and slot reuse — checked against the reference `max_min_fair`
//! oracle on the live flow set — plus the guarantee that a recompute
//! re-solves only what it reaches from the links that changed.

use threegol_simnet::fairshare::{max_min_fair, FlowDemand};
use threegol_simnet::{
    CapacityProcess, DiurnalProfile, LinkId, SimEvent, SimTime, Simulation, WakeToken,
};

/// Ask the oracle for the aggregate rate on `link` given the current
/// flow population (paths tracked by the test).
fn oracle_link_rate(caps: &[f64], demands: &[FlowDemand], link: usize) -> f64 {
    let rates = max_min_fair(caps, demands);
    demands.iter().zip(&rates).filter(|(d, _)| d.links.contains(&link)).map(|(_, r)| r).sum()
}

/// A multi-link flow bridges two previously independent components;
/// rates must re-split jointly, and removing the bridge must restore
/// the original (independent) rates.
#[test]
fn bridge_flow_merges_and_unmerges_components() {
    let mut sim = Simulation::new();
    let a = sim.add_link("a", CapacityProcess::constant(4e6));
    let b = sim.add_link("b", CapacityProcess::constant(6e6));
    sim.start_flow(vec![a], 1e12);
    sim.start_flow(vec![b], 1e12);
    assert!((sim.link_rate(a) - 4e6).abs() < 1.0);
    assert!((sim.link_rate(b) - 6e6).abs() < 1.0);

    // Bridge a+b: progressive filling gives the a-flow and the bridge
    // 2 Mbit/s each (a saturates), then the b-flow takes b's slack:
    // 6 - 2 = 4 Mbit/s.
    let bridge = sim.start_flow(vec![a, b], 1e12);
    assert!((sim.link_rate(a) - 4e6).abs() < 1.0);
    assert!((sim.link_rate(b) - 6e6).abs() < 1.0);
    let f = sim.flow(bridge).expect("active");
    assert!((f.rate_bps - 2e6).abs() < 1.0, "bridge rate {}", f.rate_bps);

    // Cancel the bridge: both links go back to single-flow saturation.
    sim.cancel_flow(bridge).expect("cancel");
    assert!((sim.link_rate(a) - 4e6).abs() < 1.0);
    assert!((sim.link_rate(b) - 6e6).abs() < 1.0);
}

/// Sustained churn of bridging flows, with every intermediate state
/// checked against the oracle. Exercises slot reuse and components that
/// join when a bridge starts and split when it leaves.
#[test]
fn bridge_churn_matches_oracle() {
    let mut sim = Simulation::new();
    let n_links = 6;
    let caps: Vec<f64> = (0..n_links).map(|i| 1e6 * (i + 1) as f64).collect();
    let links: Vec<LinkId> = caps
        .iter()
        .enumerate()
        .map(|(i, &c)| sim.add_link(format!("l{i}"), CapacityProcess::constant(c)))
        .collect();

    // Long-lived background flows, one per link, that persist across
    // every round.
    let mut demands = Vec::new();
    for &l in &links {
        sim.start_flow(vec![l], 1e12);
        demands.push(FlowDemand { links: vec![l.index()], cap: None });
    }

    // Repeatedly add a two-link bridge (joining two components) and
    // remove it again (splitting them).
    let mut x: u64 = 9;
    for round in 0..200 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
        let i = (x >> 33) as usize % n_links;
        let j = (i + 1 + (x >> 13) as usize % (n_links - 1)) % n_links;
        let bridge = sim.start_flow(vec![links[i], links[j]], 1e12);
        demands.push(FlowDemand { links: vec![links[i].index(), links[j].index()], cap: None });
        for (k, &l) in links.iter().enumerate() {
            let want = oracle_link_rate(&caps, &demands, l.index());
            let got = sim.link_rate(l);
            assert!(
                (got - want).abs() < 1e-3,
                "round {round} (bridge up), link {k}: engine {got} vs oracle {want}"
            );
        }
        sim.cancel_flow(bridge).expect("cancel bridge");
        demands.pop();
        for (k, &l) in links.iter().enumerate() {
            let want = oracle_link_rate(&caps, &demands, l.index());
            let got = sim.link_rate(l);
            assert!(
                (got - want).abs() < 1e-3,
                "round {round} (bridge down), link {k}: engine {got} vs oracle {want}"
            );
        }
    }
}

/// Capped flows keep their caps across churn and slot reuse.
#[test]
fn rate_caps_survive_churn() {
    let mut sim = Simulation::new();
    let l = sim.add_link("l", CapacityProcess::constant(10e6));
    let m = sim.add_link("m", CapacityProcess::constant(10e6));
    let capped = sim.start_capped_flow(vec![l], 1e12, 1e6);

    // Churn bridging flows through the slots next to the capped one.
    for _ in 0..300 {
        let b = sim.start_flow(vec![l, m], 1e12);
        sim.cancel_flow(b).expect("cancel");
    }
    // The capped flow must still be pinned at its cap, with the link
    // otherwise idle.
    assert!((sim.link_rate(l) - 1e6).abs() < 1.0);
    let f = sim.flow(capped).expect("active");
    assert!((f.rate_bps - 1e6).abs() < 1.0);
}

/// Paths longer than the inline limit (4 links) spill to the heap at
/// start time but still solve correctly, join all their links into one
/// component, and survive churn through it.
#[test]
fn long_paths_spill_and_solve() {
    let mut sim = Simulation::new();
    let links: Vec<LinkId> = (0..6)
        .map(|i| sim.add_link(format!("l{i}"), CapacityProcess::constant(1e6 * (i + 2) as f64)))
        .collect();
    // A 6-link path is bottlenecked by its slowest link (2 Mbit/s).
    let f = sim.start_flow(links.clone(), 1e12);
    for &l in &links {
        assert!((sim.link_rate(l) - 2e6).abs() < 1.0);
    }
    assert!((sim.flow(f).expect("active").rate_bps - 2e6).abs() < 1.0);
    // Churn bridges across its end links, then re-check.
    for _ in 0..400 {
        let b = sim.start_flow(vec![links[0], links[5]], 1e12);
        sim.cancel_flow(b).expect("cancel");
    }
    assert!((sim.link_rate(links[0]) - 2e6).abs() < 1.0);
    assert!((sim.flow(f).expect("active").rate_bps - 2e6).abs() < 1.0);
}

/// Run a flow on link B (capacity drifting along a diurnal ramp, never
/// firing a change point) past a bridge over `[A, B]` that is cancelled
/// at 10 s; with `events_on_a`, A then sees a flow start, a capacity drop
/// and that flow's completion. Returns B's flow's completion instant.
fn b_completion(events_on_a: bool) -> SimTime {
    let mut sim = Simulation::new();
    let a = sim.add_link(
        "a",
        CapacityProcess::piecewise(vec![(SimTime::ZERO, 8e6), (SimTime::from_secs(30.0), 2e6)]),
    );
    // No noise, and one resampling step longer than the run: B's
    // capacity drifts between hour marks but never changes by an event.
    let mut ramp = [1.0; 24];
    ramp[1] = 0.5;
    let b =
        sim.add_link("b", CapacityProcess::stochastic(1e6, 0.0, 1e6, DiurnalProfile::new(ramp), 7));
    let on_b = sim.start_flow(vec![b], 30e6);
    let bridge = sim.start_flow(vec![a, b], 1e12);
    sim.schedule_wakeup(SimTime::from_secs(10.0), WakeToken(0));
    if events_on_a {
        sim.schedule_wakeup(SimTime::from_secs(20.0), WakeToken(1));
    }
    let mut a_done = false;
    while let Some(ev) = sim.next_event() {
        match ev {
            SimEvent::Wakeup { token: WakeToken(0), .. } => {
                sim.cancel_flow(bridge).expect("bridge active");
            }
            // 10 MB at 8 Mbit/s until the drop at 30 s, then 1 MB at
            // 2 Mbit/s: done at 34 s.
            SimEvent::Wakeup { .. } => {
                sim.start_flow(vec![a], 11e6);
            }
            SimEvent::FlowCompleted { flow, time, .. } if flow == on_b => {
                assert_eq!(a_done, events_on_a, "A's flow completes first");
                return time;
            }
            SimEvent::FlowCompleted { time, .. } => {
                assert!((time.secs() - 34.0).abs() < 1e-9, "A's flow done at {time}");
                a_done = true;
            }
        }
    }
    panic!("B's flow never completed");
}

/// Once a bridge has left, events on one side re-solve only that side:
/// B's flow completes at the bitwise-same instant whether or not A sees
/// any events afterwards. (A partition that stays joined after the
/// bridge leaves re-solves B at each of A's events, re-reads its drifted
/// capacity, and moves the completion by 0.73 s.)
#[test]
fn a_departed_bridge_leaves_no_history() {
    let quiet = b_completion(false);
    let busy = b_completion(true);
    assert!(quiet.secs() > 200.0, "B's flow outlives A's events: {quiet}");
    assert_eq!(busy.to_bits(), quiet.to_bits(), "A's events moved B: {busy} vs {quiet}");
}
