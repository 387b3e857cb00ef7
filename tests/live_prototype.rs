//! Cross-crate integration: the live tokio prototype — origin, device
//! proxies, discovery, HLS-aware client — on the vendored runtime's
//! in-process virtual network. Every household here comes up through
//! `Rig`, the same rig every fleet home runs on, so discovery is the
//! fleet's on-demand discipline: one beacon per present phone with
//! quota, each time a session assembles its paths. Nothing ever touches
//! the kernel: every listener and datagram lives in the runtime's own
//! registry under virtual time, which is what makes the transcript test
//! below able to demand byte-for-byte identical behavior across runs.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use threegol::proxy::{HomeSpec, PathTarget, Rig};

/// The paper-default home's video: five 2 s segments at 400 kbit/s.
const SEGMENT_BYTES: usize = 100_000;
/// The origin's probe file.
const PROBE_BYTES: usize = 2_000_000;

/// The phones a path set offers, in path order; panics unless path 0
/// is the gateway and every later path is a phone.
fn phones(paths: &[PathTarget]) -> Vec<SocketAddr> {
    assert!(matches!(paths[0], PathTarget::SharedGateway { .. }), "{paths:?}");
    paths[1..]
        .iter()
        .map(|path| match path {
            PathTarget::Device { addr } => *addr,
            other => panic!("path after the gateway is not a phone: {other:?}"),
        })
        .collect()
}

#[tokio::test]
async fn discovery_builds_admissible_set_from_live_devices() {
    // Four phones: two armed and present, one without quota, one away.
    let spec = HomeSpec::paper_default(1).devices(4);
    let rig = Rig::bring_up(&spec, &[1e9, 0.0, 1e9, 1e9]).await.unwrap();
    let paths = rig.paths(&spec, 12.0, &[true, true, true, false]).await;
    let phi = phones(&paths);
    assert_eq!(phi, [rig.net.device(0), rig.net.device(2)]);
    assert!([0, 2].iter().all(|&i| rig.devices[i].available_bytes() > 0.0));
}

#[tokio::test]
async fn exhausted_device_drops_out_of_phi() {
    // Allowance below one 2 MB probe: a single transfer exhausts it.
    let spec = HomeSpec::paper_default(2).devices(1);
    let rig = Rig::bring_up(&spec, &[1_000_000.0]).await.unwrap();
    let paths = rig.paths(&spec, 12.0, &[true]).await;
    assert_eq!(phones(&paths), [rig.net.device(0)]);

    // Burn the quota through the proxy.
    let client = rig.client(paths[1..].to_vec());
    let (bodies, _) = client.fetch(vec!["/probe.bin".into()]).await.unwrap();
    assert_eq!(bodies[0].len(), PROBE_BYTES);
    assert!(!rig.devices[0].should_advertise());

    // After the TTL the stale advertisement has expired and the next
    // path set is the gateway alone.
    tokio::time::sleep(Duration::from_millis(3_200)).await;
    assert!(phones(&rig.paths(&spec, 12.0, &[true]).await).is_empty());
}

#[tokio::test]
async fn hls_fetch_through_discovered_devices() {
    let spec = HomeSpec::paper_default(3).devices(1);
    let rig = Rig::bring_up(&spec, &[1e9]).await.unwrap();
    let client = rig.client(rig.paths(&spec, 12.0, &[true]).await);
    assert_eq!(client.paths.len(), 2);
    let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
    assert_eq!(playlist.entries.len(), 5);
    assert_eq!(bodies.len(), 5);
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(body.len(), SEGMENT_BYTES, "segment {i}");
        assert!(body.iter().all(|&byte| byte == i as u8), "segment {i} is not intact");
    }
    assert!((report.bytes_per_path.iter().sum::<f64>()) >= 5.0 * SEGMENT_BYTES as f64);
    assert!(rig.origin.requests_served() >= 6); // playlist + 5 segments
}

#[tokio::test]
async fn uploads_survive_a_slow_device() {
    // One healthy ADSL line and one pathologically slow phone: greedy
    // duplication must still deliver all photos.
    let spec = HomeSpec::paper_default(4).devices(1).isolated(40_000.0, 40_000.0);
    let rig = Rig::bring_up(&spec, &[1e9]).await.unwrap();
    let client = rig.client(rig.paths(&spec, 12.0, &[true]).await);
    assert_eq!(client.paths.len(), 2);
    let photos: Vec<(String, bytes::Bytes)> =
        (0..5).map(|i| (format!("p{i}.jpg"), bytes::Bytes::from(vec![i as u8; 50_000]))).collect();
    let report = client.upload_photos(photos).await.unwrap();
    assert!(report.item_secs.iter().all(|t| t.is_finite()));
    assert_eq!(rig.origin.uploads().len(), 5);
}

/// Run the full prototype scenario once in a fresh runtime and record
/// everything observable — the discovered paths, body sizes and
/// checksums, every report field at full `f64` precision, phone quota
/// and origin-side state — into one transcript string.
fn scenario_transcript() -> String {
    tokio::runtime::block_on(async {
        let mut log = String::new();
        let spec = HomeSpec::paper_default(5);
        let rig = Rig::bring_up(&spec, &[1e9, 1e9]).await.unwrap();
        let paths = rig.paths(&spec, 12.0, &[true, true]).await;
        for addr in phones(&paths) {
            writeln!(log, "discovered phone at {addr}").unwrap();
        }
        let client = rig.client(paths);

        let t0 = tokio::time::Instant::now();
        let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
        writeln!(log, "vod: {} entries in {:?}", playlist.entries.len(), t0.elapsed()).unwrap();
        for body in &bodies {
            let sum: u64 = body.iter().map(|b| *b as u64).sum();
            writeln!(log, "segment {} bytes, checksum {sum}", body.len()).unwrap();
        }
        writeln!(log, "vod report: {report:?}").unwrap();

        let photos: Vec<(String, bytes::Bytes)> = (0..4)
            .map(|i| (format!("p{i}.jpg"), bytes::Bytes::from(vec![i as u8; 80_000])))
            .collect();
        let t0 = tokio::time::Instant::now();
        let report = client.upload_photos(photos).await.unwrap();
        writeln!(log, "upload in {:?}: {report:?}", t0.elapsed()).unwrap();
        for device in &rig.devices {
            writeln!(log, "{} has {} bytes left", device.name, device.available_bytes()).unwrap();
        }
        for up in rig.origin.uploads() {
            writeln!(log, "origin got {:?} ({} bytes)", up.filenames, up.total_bytes).unwrap();
        }
        writeln!(log, "origin served {} requests", rig.origin.requests_served()).unwrap();
        log
    })
}

#[test]
fn scenario_transcript_is_byte_for_byte_deterministic() {
    let first = scenario_transcript();
    let second = scenario_transcript();
    assert!(first.contains("discovered phone at 10.0.5.11:3128"), "{first}");
    assert_eq!(first, second, "virtual-net runs diverged");
}
