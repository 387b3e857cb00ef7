//! A stock HLS "player" against the 3GOL client proxy.
//!
//! The paper's client component is a local HTTP proxy the video player
//! points at; the player stays completely unaware of 3GOL. This
//! example runs the full chain — origin → {ADSL gateway, device proxy}
//! → HLS-aware proxy → sequential player — on one home's subnet of the
//! virtual network, brought up by `Rig` like every fleet home, and
//! compares startup with and without the 3GOL paths.
//!
//! ```text
//! cargo run --release --example player_proxy
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use tokio::time::Instant;

use threegol::http::codec::HttpStream;
use threegol::http::Request;
use threegol::proxy::{HlsProxy, HomeSpec, Rig, Tier};
use tokio::net::TcpStream;

/// A minimal sequential HLS player: fetch playlist, then segments in
/// order; report the time to buffer the first `prebuffer` segments.
async fn play(proxy_addr: SocketAddr, playlist: &str, prebuffer: usize) -> (f64, usize) {
    let t0 = Instant::now();
    let stream = TcpStream::connect(proxy_addr).await.unwrap();
    let mut http = HttpStream::new(stream);
    http.write_request(&Request::get(playlist)).await.unwrap();
    let resp = http.read_response().await.unwrap();
    let text = std::str::from_utf8(&resp.body).unwrap();
    let media = threegol::hls::MediaPlaylist::parse(text).unwrap();
    let base = playlist.rsplit_once('/').map(|(d, _)| d).unwrap_or("");
    let mut startup = 0.0;
    for (i, (_, uri)) in media.entries.iter().enumerate() {
        http.write_request(&Request::get(format!("{base}/{uri}"))).await.unwrap();
        let seg = http.read_response().await.unwrap();
        assert_eq!(seg.status, 200);
        if i + 1 == prebuffer {
            startup = t0.elapsed().as_secs_f64();
        }
    }
    (startup, media.entries.len())
}

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2 / 0.3 Mbit/s ADSL home with two ~1.8 Mbit/s phones, and a
    // 60 s Q2 (311 kbit/s) video in 10 s segments.
    let spec = HomeSpec {
        video_bps: 311e3,
        video_secs: 60.0,
        segment_secs: 10.0,
        ..HomeSpec::tier(Tier::Basic).isolated(1.8e6, 1.2e6)
    };
    let rig = Rig::bring_up(&spec, &[1e9; 2]).await?;
    let paths = rig.paths(&spec, spec.hour as f64, &[true, true]).await;

    // Proxy with ADSL only, on a second port next to the home's
    // canonical proxy.
    let solo = Arc::new(HlsProxy::new(rig.client(paths[..1].to_vec())));
    let solo_addr = SocketAddr::new(rig.net.client_proxy().ip(), 8089);
    let (solo_addr, _t) = solo.spawn(&solo_addr.to_string()).await?;
    let (startup_solo, n) = play(solo_addr, "/q1/index.m3u8", 2).await;
    println!("player via proxy, ADSL only : {n} segments, 2-segment startup {startup_solo:.2} s");

    // Proxy with ADSL + the two discovered phones.
    let gol = Arc::new(HlsProxy::new(rig.client(paths)));
    let (gol_addr, _t) = gol.spawn(&rig.net.client_proxy().to_string()).await?;
    let (startup_gol, _) = play(gol_addr, "/q1/index.m3u8", 2).await;
    println!("player via proxy, 3GOL (2ph): {n} segments, 2-segment startup {startup_gol:.2} s");
    println!(
        "\nstartup speedup ×{:.2} — the player never knew 3GOL existed",
        startup_solo / startup_gol
    );
    Ok(())
}
