//! Memory-profile acceptance for the streamed fleet: peak RSS stays
//! under the documented ceiling and does not grow with the fleet size.
//!
//! This lives in its own integration-test binary (one process, one
//! `#[test]`) so `/proc/self/status` `VmHWM` is attributable to the
//! fleet path and nothing else. The 10k-home associativity /
//! sequential-fold bitwise tests live in `fleet.rs`'s unit tests
//! (synthetic reports, milliseconds); the live worker-count sweep is
//! in `tests/fleet.rs` and the CI fleet-smoke job.

use threegol_bench::fleet::{home_spec, peak_rss_bytes, Fleet, FLEET_RSS_CEILING_BYTES};
use threegol_bench::Pool;

#[test]
fn streamed_fleet_memory_is_flat_and_under_the_ceiling() {
    let Some(_) = peak_rss_bytes() else {
        eprintln!("no /proc: skipping RSS assertions");
        return;
    };
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);

    // Warm-up fleet: binary, allocator arenas, per-worker scratch all
    // reach steady state here.
    let small = Pool::with(4, |pool| Fleet::new(500, home_spec).run(pool));
    let peak_after_small = peak_rss_bytes().unwrap();

    // Ten times the homes must not move peak memory: specs are built
    // on worker stacks, reports fold into chunk digests immediately,
    // and the driver only ever holds the reorder buffer of in-flight
    // chunk digests.
    let large = Pool::with(4, |pool| Fleet::new(5000, home_spec).run(pool));
    let peak_after_large = peak_rss_bytes().unwrap();

    assert_eq!(small.homes, 500);
    assert_eq!(large.homes, 5000);
    assert!(large.upload_gain.min > 1.0, "worst upload gain {}", large.upload_gain.min);

    assert!(
        peak_after_large <= FLEET_RSS_CEILING_BYTES,
        "peak RSS {:.1} MiB broke the documented {:.0} MiB ceiling",
        mib(peak_after_large),
        mib(FLEET_RSS_CEILING_BYTES)
    );
    let slack = 48 * 1024 * 1024;
    assert!(
        peak_after_large <= peak_after_small + slack,
        "memory grew with fleet size: {:.1} MiB after 500 homes, {:.1} MiB after 5000",
        mib(peak_after_small),
        mib(peak_after_large)
    );

    // The runtime-reuse leak check: 5000 homes through ONE worker is
    // 5000 consecutive `Runtime::reset`s of the same runtime. A reset
    // that retains anything per-home — a task slot, a timer entry, a
    // virtual-net registration, a parked-waker Arc — compounds 5000x
    // and moves the monotonic VmHWM past the slack; a correct reset
    // keeps only the reusable arenas the warm-up already paid for.
    let reused = Pool::with(1, |pool| Fleet::new(5000, home_spec).run(pool));
    let peak_after_reuse = peak_rss_bytes().unwrap();
    assert_eq!(reused.homes, 5000);
    assert!(
        peak_after_reuse <= peak_after_small + slack,
        "single reused runtime leaked across homes: {:.1} MiB after warm-up, \
         {:.1} MiB after 5000 sequential resets",
        mib(peak_after_small),
        mib(peak_after_reuse)
    );
}
