//! Acceptance tests for the streamed proxy-fleet harness: a 200-home
//! fleet completes in one process under virtual time, the fleet digest
//! is byte-identical across repeated runs, worker counts, and chunk
//! sizes, it agrees with the sequential per-report fold, and the
//! traffic never touches a kernel socket.

use threegol_bench::fleet::{home_spec, scenario_spec, Fleet, FleetDigest, RuntimeMode};
use threegol_bench::Pool;
use threegol_proxy::{Home, HomeReport};
use threegol_traces::DEFAULT_SCENARIO_SEED;

/// Open kernel sockets of this process, per /proc. The virtual-net
/// prototype must never add one.
#[cfg(target_os = "linux")]
fn kernel_socket_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.filter_map(|entry| entry.ok())
                .filter_map(|entry| std::fs::read_link(entry.path()).ok())
                .filter(|target| target.to_string_lossy().starts_with("socket:"))
                .count()
        })
        .unwrap_or(0)
}

/// The sequential fold of materialized per-home reports.
fn refold(reports: &[HomeReport]) -> FleetDigest {
    let mut digest = FleetDigest::empty();
    for report in reports {
        digest.observe(report);
    }
    digest
}

#[test]
fn two_hundred_home_fleet_is_deterministic_and_kernel_socket_free() {
    #[cfg(target_os = "linux")]
    let sockets_before = kernel_socket_count();

    // Two streamed runs on 4 workers, one on 1 worker (the serial
    // path), one on 7 (a count that doesn't divide the fleet) with a
    // chunk size that doesn't divide it either: every digest field —
    // f64-derived sums and the content hash included — must agree bit
    // for bit.
    let street = Fleet::new(200, home_spec);
    let first = Pool::with(4, |pool| street.run(pool));
    let second = Pool::with(4, |pool| street.run(pool));
    let serial = Pool::with(1, |pool| street.run(pool));
    let odd = Pool::with(7, |pool| Fleet { chunk: 23, ..street }.run(pool));
    assert_eq!(first, second, "same worker count diverged");
    assert_eq!(first, serial, "worker count changed the result");
    assert_eq!(first, odd, "worker/chunk combination changed the result");

    // The streamed digest is exactly the sequential fold of the
    // materialized per-home reports.
    let reports = Pool::with(4, |pool| street.reports(pool));
    assert_eq!(refold(&reports).digest(), first.digest(), "streamed digest != sequential fold");

    #[cfg(target_os = "linux")]
    assert_eq!(kernel_socket_count(), sockets_before, "the fleet path opened a real socket");

    // Sanity on the workload itself.
    assert_eq!(first.homes, 200);
    assert_eq!(reports.len(), 200);
    for (h, report) in reports.iter().enumerate() {
        assert_eq!(report.index as usize, h);
        assert!(report.vod_secs.is_finite() && report.vod_secs > 0.0);
        assert!(report.upload_secs.is_finite() && report.upload_secs > 0.0);
        // Every home has at least one phone, so onloading must help
        // the upload (the ADSL uplink is the bottleneck by design).
        assert!(report.upload_gain > 1.0, "home {h}: upload gain {}", report.upload_gain);
        assert!(report.upload_device_bytes > 0.0, "home {h} never used a phone");
    }
    assert!(first.upload_gain.min > 1.0, "worst upload gain {}", first.upload_gain.min);
    assert!(first.upload_gain.p50() > 1.5, "median upload gain {}", first.upload_gain.p50());
    assert!(first.vod_gain.p50() > 1.0, "median vod gain {}", first.vod_gain.p50());
    assert!(first.net_events > 200 * 10, "implausibly few net events: {}", first.net_events);

    // The recorded pre-scenario baseline: adding the scenario engine
    // (new `HomeReport` fields, `Scenario` on the spec) must leave the
    // paper-default street's digest bit-for-bit where it was.
    assert_eq!(
        format!("{:016x}", first.digest()),
        "8cf467045efaa947",
        "paper-default 200-home digest drifted from the recorded baseline"
    );
}

#[test]
fn traced_scenario_fleet_is_deterministic_across_workers_chunks_and_modes() {
    // The four-invariant contract extended to the scenario engine: a
    // multi-day traced fleet — churn, quota withdrawal, live allowance
    // refits and all — folds to one digest whatever the worker count,
    // chunk size, or runtime mode. The default config churns (devices
    // leave mid-day with p=0.35), so this is also the fleet-level churn
    // determinism proof.
    let (homes, days) = (24usize, 3u16);
    let traced = Fleet::new(homes, move |i| scenario_spec(i, days, DEFAULT_SCENARIO_SEED));
    let mut runs = Vec::new();
    for (workers, chunk) in [(1, traced.chunk), (4, 23), (7, 23)] {
        for mode in [RuntimeMode::Reuse, RuntimeMode::Fresh] {
            let digest = Pool::with(workers, |pool| Fleet { chunk, mode, ..traced }.run(pool));
            runs.push((workers, chunk, mode, digest));
        }
    }
    let (_, _, _, reference) = &runs[0];
    for (workers, chunk, mode, digest) in &runs[1..] {
        assert_eq!(
            digest, reference,
            "{workers} worker(s) / chunk {chunk} / {mode:?} diverged on the traced fleet"
        );
    }

    // The scenario accumulators are populated and self-consistent.
    let s = &reference.scenario;
    assert_eq!(reference.homes, homes as u64);
    assert_eq!(s.homes, homes as u64);
    assert!(s.sessions > 0, "no sessions over {days} days");
    assert!(
        s.device_days >= (homes * days as usize) as u64,
        "every home has >= 1 device for {days} days: {} device-days",
        s.device_days
    );
    assert!(s.overrun_device_days <= s.device_days);
    let day_dl: f64 = (0..days as usize).map(|d| s.bytes_on_day(d).0).sum();
    let hour_dl: f64 = (0..24).map(|h| s.bytes_at_hour(h).0).sum();
    assert!((day_dl - hour_dl).abs() < 1.0, "day sum {day_dl} != hour sum {hour_dl}");
    let day_ul: f64 = (0..days as usize).map(|d| s.bytes_on_day(d).1).sum();
    assert!(day_dl > 0.0 && day_ul > 0.0, "traced street onloaded nothing");
    assert!((0.0..=1.0).contains(&s.captured_fraction()));
    assert!(reference.render().contains("scenario:"), "render omits the scenario lines");

    // The materializing path honours the traced spec: its reports,
    // refolded in index order, carry the streamed digest's content hash.
    let reports = Pool::with(4, |pool| traced.reports(pool));
    assert_eq!(refold(&reports).digest(), reference.digest(), "traced reports != streamed digest");

    // The recorded traced street: the scenario engine's output stays
    // bit-for-bit where it was.
    assert_eq!(
        format!("{:016x}", reference.digest()),
        "5daed0ce8811ec0a",
        "24-home 3-day traced digest drifted from the recorded baseline"
    );

    // A different seed is a different street.
    let reseeded = Pool::with(4, |pool| {
        Fleet::new(homes, move |i| scenario_spec(i, days, DEFAULT_SCENARIO_SEED ^ 0xdead)).run(pool)
    });
    assert_ne!(reseeded.digest(), reference.digest(), "seed did not reach the scenario");
}

#[test]
fn runtime_reuse_is_bitwise_invisible() {
    // The fourth determinism invariant (DESIGN.md §11): the fleet
    // digest is a pure function of (homes, spec) — worker count, chunk
    // size, AND runtime mode included. A reused runtime whose reset
    // leaks any state into the next home (a timer, a task, a clock
    // skew, a virtual-net table entry) shifts some transfer's
    // completion instant and changes the content hash, so bitwise
    // equality across every {workers} x {chunk} x {reuse|fresh}
    // combination is the whole proof.
    let mut runs = Vec::new();
    let street = Fleet::new(200, home_spec);
    for (workers, chunk) in [(1, street.chunk), (4, 23)] {
        for mode in [RuntimeMode::Reuse, RuntimeMode::Fresh] {
            let digest = Pool::with(workers, |pool| Fleet { chunk, mode, ..street }.run(pool));
            runs.push((workers, chunk, mode, digest));
        }
    }
    let (_, _, _, reference) = &runs[0];
    assert_eq!(reference.homes, 200);
    for (workers, chunk, mode, digest) in &runs[1..] {
        assert_eq!(
            digest, reference,
            "{workers} worker(s) / chunk {chunk} / {mode:?} diverged from the reference digest"
        );
    }
}

#[test]
fn home_traffic_is_entirely_virtual() {
    // Count the sockets one home binds: they must all be virtual-net
    // registrations, visible to the runtime's own bookkeeping.
    let spec = home_spec(0);
    let devices = spec.devices as u64;
    let stats = tokio::runtime::block_on(async {
        let report = Home::run(&spec).await.unwrap();
        assert!(report.vod_bytes > 0.0);
        tokio::net::stats()
    });
    // TCP listeners: origin + HLS proxy + one per device.
    assert_eq!(stats.tcp_binds, 2 + devices);
    // At minimum: playlist + segment fetches + uploads + device
    // upstream connections all dialed through the registry.
    assert!(stats.tcp_connects > 2 + devices, "{stats:?}");
    // UDP: the discovery listener plus one beacon socket per phone,
    // and one beacon per phone before the home's one session.
    assert_eq!(stats.udp_binds, 1 + devices, "{stats:?}");
    assert_eq!(stats.datagrams, devices, "{stats:?}");
    // Pipe bytes, by how they moved. Bodies enter by reference (origin
    // segments, HLS-proxy cache hits, photo POSTs), cross the phones'
    // relays by reference and are read by reference, by the player's
    // sink and by every reader that holds them; only heads are copied,
    // in and out. A transport on that path that falls back to copying
    // moves these counts.
    let moved =
        [stats.pipe_copied_in, stats.pipe_shared_in, stats.pipe_copied_out, stats.pipe_shared_out];
    assert_eq!(moved, [2_965, 2_083_543, 2_965, 2_057_202], "{stats:?}");
}

#[test]
fn indices_beyond_the_namespace_width_run_fine() {
    // A million-home fleet reaches indices far past the 16-bit subnet
    // plan; each home runs in its own runtime, so the aliased
    // namespace never collides.
    let report =
        tokio::runtime::block_on(Home::run(&home_spec(999_999))).expect("home 999999 runs");
    assert_eq!(report.index, 999_999);
    assert!(report.upload_gain > 1.0);
}
