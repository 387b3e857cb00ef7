//! Cross-crate integration: homes as isolated units on the virtual
//! network. Several households share one runtime; each keeps its own
//! address namespace, discovery broadcast domain and quota state.

use std::net::SocketAddr;
use std::time::Duration;

use threegol::proxy::{Home, HomeSpec, PathTarget, Rig};

/// The phones a path set offers, after the gateway.
fn phones(paths: &[PathTarget]) -> Vec<SocketAddr> {
    paths
        .iter()
        .filter_map(|path| match path {
            PathTarget::Device { addr } => Some(*addr),
            _ => None,
        })
        .collect()
}

#[tokio::test]
async fn quota_exhaustion_withdraws_only_in_its_own_home() {
    // Home A: one phone whose allowance dies in one 2 MB probe, one
    // healthy phone. Home B: one healthy phone.
    let spec_a = HomeSpec::paper_default(1);
    let spec_b = HomeSpec::paper_default(2).devices(1);
    let rig_a = Rig::bring_up(&spec_a, &[1_000_000.0, 1e9]).await.unwrap();
    let rig_b = Rig::bring_up(&spec_b, &[1e9]).await.unwrap();

    let paths_a = rig_a.paths(&spec_a, 12.0, &[true, true]).await;
    let paths_b = rig_b.paths(&spec_b, 12.0, &[true]).await;
    // Broadcast domains are disjoint: neither home hears the other's
    // beacons, and every offered proxy lives in its own subnet.
    assert_eq!(phones(&paths_a), [rig_a.net.device(0), rig_a.net.device(1)]);
    assert_eq!(phones(&paths_b), [rig_b.net.device(0)]);
    for addr in phones(&paths_a) {
        assert_eq!(addr.to_string().split('.').nth(2), Some("1"), "{addr}");
    }

    // Burn the small phone's quota through its proxy.
    let client = rig_a.client(vec![paths_a[1].clone()]);
    let (bodies, _) = client.fetch(vec!["/probe.bin".into()]).await.unwrap();
    assert_eq!(bodies[0].len(), 2_000_000);
    assert!(!rig_a.devices[0].should_advertise());

    // Past the TTL the stale ad has expired — in home A only; home B's
    // path set never flinches.
    tokio::time::sleep(Duration::from_millis(3_200)).await;
    let phi_a = phones(&rig_a.paths(&spec_a, 12.0, &[true, true]).await);
    assert_eq!(phi_a, [rig_a.net.device(1)]);
    assert_eq!(phones(&rig_b.paths(&spec_b, 12.0, &[true]).await), phones(&paths_b));
}

#[tokio::test]
async fn two_full_homes_share_one_runtime() {
    // Two complete households, workload and all, in a single runtime.
    // Identical specs (apart from the namespace) must produce
    // identical timings — the homes cannot perturb each other.
    let a = Home::run(&HomeSpec::paper_default(11)).await.unwrap();
    let b = Home::run(&HomeSpec::paper_default(12)).await.unwrap();
    assert_eq!(a.vod_secs, b.vod_secs);
    assert_eq!(a.upload_secs, b.upload_secs);
    assert_eq!(a.upload_device_bytes, b.upload_device_bytes);

    // A crippled third home (no phones) is slower, proving the gain
    // really comes from its own devices, not a neighbour's.
    let solo = Home::run(&HomeSpec::paper_default(13).devices(0)).await.unwrap();
    assert!(solo.upload_secs > a.upload_secs, "{} vs {}", solo.upload_secs, a.upload_secs);
    assert!(a.upload_gain > solo.upload_gain);
}
