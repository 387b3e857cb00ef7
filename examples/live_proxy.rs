//! The live 3GOL prototype end to end on the in-process virtual
//! network (paper §4.1): an origin server, two device proxies with
//! throttled "3G" bearers and quota tracking, UDP discovery, and the
//! HLS-aware multipath client — all inside one home's subnet, under
//! virtual time, with no kernel sockets. The household comes up
//! through `Rig`, the same rig every fleet home runs on.
//!
//! ```text
//! cargo run --release --example live_proxy
//! ```

use threegol::proxy::{HomeSpec, PathTarget, Rig, Tier};

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2 / 0.3 Mbit/s ADSL home with two ~1.8 Mbit/s HSPA phones and a
    // short 60 s video at 200 kbit/s in 10 s segments (keeps the demo
    // quick). Home 0 owns the 10.0.0.0/24 corner of the virtual network.
    let spec = HomeSpec {
        video_bps: 200e3,
        video_secs: 60.0,
        segment_secs: 10.0,
        ..HomeSpec::tier(Tier::Basic).isolated(1.8e6, 1.2e6)
    };
    let allowance = 20e6;
    let rig = Rig::bring_up(&spec, &[allowance; 2]).await?;
    println!("origin listening on {}", rig.net.origin());
    for (i, device) in rig.devices.iter().enumerate() {
        println!("device {} proxying on {}", device.name, rig.net.device(i));
    }

    // Both phones are home and hold quota, so each beacons once and the
    // client's discovery admits both behind the gateway (path 0).
    let paths = rig.paths(&spec, spec.hour as f64, &[true, true]).await;
    let names: Vec<&str> = paths[1..]
        .iter()
        .filter_map(|path| match path {
            PathTarget::Device { addr } => (0..rig.devices.len())
                .find(|&i| rig.net.device(i) == *addr)
                .map(|i| rig.devices[i].name.as_str()),
            PathTarget::SharedGateway { .. } => None,
        })
        .collect();
    println!("discovered {} devices: {names:?}", names.len());

    // ADSL alone.
    let solo = rig.client(paths[..1].to_vec());
    let t0 = tokio::time::Instant::now();
    let (_pl, bodies, _report) = solo.fetch_hls("/q1/index.m3u8").await?;
    let solo_secs = t0.elapsed().as_secs_f64();
    println!(
        "\nADSL alone : {} segments ({:.1} MB) in {:.1} s",
        bodies.len(),
        bodies.iter().map(|b| b.len()).sum::<usize>() as f64 / 1e6,
        solo_secs
    );

    // 3GOL: gateway + discovered phones.
    let client = rig.client(paths);
    let t0 = tokio::time::Instant::now();
    let (_pl, bodies, report) = client.fetch_hls("/q1/index.m3u8").await?;
    let gol_secs = t0.elapsed().as_secs_f64();
    println!(
        "3GOL       : {} segments in {:.1} s (×{:.2} speedup, {} aborts, {:.0} kB waste)",
        bodies.len(),
        gol_secs,
        solo_secs / gol_secs,
        report.aborts,
        report.wasted_bytes / 1e3
    );
    for (i, b) in report.bytes_per_path.iter().enumerate() {
        let name = if i == 0 { "gateway" } else { names[i - 1] };
        println!("  path {i} ({name}): {:.2} MB", b / 1e6);
    }

    // Uplink: a small photo set through the same paths.
    let photos: Vec<(String, bytes::Bytes)> = (0..8)
        .map(|i| (format!("IMG_{i:04}.jpg"), bytes::Bytes::from(vec![i as u8; 400_000])))
        .collect();
    let t0 = tokio::time::Instant::now();
    let report = client.upload_photos(photos).await?;
    println!(
        "\nupload     : 8 photos (3.2 MB) in {:.1} s across {} paths",
        t0.elapsed().as_secs_f64(),
        report.bytes_per_path.iter().filter(|b| **b > 0.0).count()
    );
    // An aborted duplicate occasionally commits before the abort lands;
    // the paper charges those to wasted bytes, the origin just sees an
    // extra copy.
    let ups = rig.origin.uploads();
    let unique: std::collections::HashSet<String> =
        ups.iter().flat_map(|u| u.filenames.clone()).collect();
    println!(
        "origin received {} unique photos ({} uploads incl. duplicates)",
        unique.len(),
        ups.len()
    );
    for device in &rig.devices {
        println!(
            "{} has {:.1} of its {:.0} MB allowance left",
            device.name,
            device.available_bytes() / 1e6,
            allowance / 1e6
        );
    }
    Ok(())
}
