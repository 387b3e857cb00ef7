//! The relay workloads: byte movement through one unthrottled device
//! proxy in front of an origin, with no throttle, scheduler or per-home
//! set-up in the measured path.
//!
//! A batch brings up an origin (the Q1 ladder at 64 kbit/s) and a
//! device proxy on the virtual net, opens one keep-alive connection
//! through the proxy, and sends back-to-back requests of one phase on
//! it. Each request is timed on its own, so the output checks between
//! requests stay out of the measured time; a batch's throughput sample
//! is its items over the sum of its request times. Each batch runs in a
//! freshly reset runtime, so origin-side state (the upload log) does not
//! grow with the run and memory does not depend on speed.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use threegol_hls::{MediaPlaylist, VideoQuality};
use threegol_http::codec::HttpStream;
use threegol_http::multipart::{encode_multipart, multipart_content_type, parse_multipart, Part};
use threegol_http::{HttpError, Request, Response};
use threegol_proxy::{DeviceProxy, OriginServer, RateLimit};
use tokio::net::TcpStream;
use tokio::runtime::Runtime;

use crate::workloads::{fnv, own_peak_rss_mib, seeded_bytes, Outcome, Setup};

/// Which way bytes move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `GET /probe.bin`, a 2,000,000-byte body, relayed downlink.
    Down,
    /// Multipart `POST /upload` of a seeded-random 250 kB photo, uplink.
    Up,
    /// `GET /q1/index.m3u8`: a few hundred bytes, where per-message
    /// head cost dominates.
    Small,
}

const ORIGIN_ADDR: &str = "10.9.0.1:8080";
const DEVICE_ADDR: &str = "10.9.0.10:3128";
const PROBE: &str = "/probe.bin";
/// The smallest GET: the Q1 media playlist.
pub const PLAYLIST: &str = "/q1/index.m3u8";
/// Bytes per uploaded photo.
pub const PHOTO_BYTES: usize = 250_000;
/// The multipart boundary every photo POST uses.
pub const BOUNDARY: &str = "threegol-benchmark-7c1e";

impl Phase {
    /// Requests per batch: each batch is some tens of milliseconds.
    fn batch(self) -> usize {
        match self {
            Phase::Down => 32,
            Phase::Up => 64,
            Phase::Small => 2000,
        }
    }
}

/// Bring up the origin and the device proxy, and connect through it.
async fn bring_up() -> std::io::Result<(Arc<OriginServer>, HttpStream<TcpStream>)> {
    let ladder = [VideoQuality::new("Q1", 64e3)];
    let origin = Arc::new(OriginServer::new(&ladder, 10.0, 2.0));
    let (origin_addr, _) = origin.clone().spawn(ORIGIN_ADDR).await?;
    let device = Arc::new(DeviceProxy::new(
        "benchmark-phone",
        origin_addr,
        RateLimit::unlimited(),
        RateLimit::unlimited(),
        f64::MAX,
    ));
    let (lan, _) = device.spawn(DEVICE_ADDR).await?;
    Ok((origin, HttpStream::new(TcpStream::connect(lan).await?)))
}

async fn exchange(http: &mut HttpStream<TcpStream>, req: &Request) -> Result<Response, HttpError> {
    http.write_request(req).await?;
    http.read_response().await
}

/// What one batch moved and whether it was right.
#[derive(Debug, Default)]
struct Batch {
    /// Requests attempted.
    attempted: u64,
    /// Requests that failed a check.
    failed: u64,
    problems: Vec<String>,
    /// Throughput items delivered by requests that passed.
    items: f64,
    /// Summed request times, seconds.
    busy_s: f64,
}

/// Send `n` requests of `phase` on one connection and check each.
/// Photo names continue from `first`.
async fn batch(phase: Phase, n: usize, photo: &Bytes, first: u64) -> Result<Batch, String> {
    let (origin, mut http) = bring_up().await.map_err(|e| format!("relay bring-up: {e}"))?;
    let target = if phase == Phase::Down { PROBE } else { PLAYLIST };
    let get = Request::get(target);
    let expected = origin.handle(&get).body;
    let content_type = multipart_content_type(BOUNDARY);
    let mut b = Batch::default();
    let mut names = Vec::new();
    for k in 0..n {
        b.attempted += 1;
        let start;
        let result = match phase {
            Phase::Down | Phase::Small => {
                start = Instant::now();
                exchange(&mut http, &get).await
            }
            Phase::Up => {
                let name = format!("IMG_{:08}.jpg", first + k as u64);
                let part = Part::photo("file", name.clone(), photo.clone());
                names.push(name);
                start = Instant::now();
                let body = encode_multipart(std::slice::from_ref(&part), BOUNDARY);
                exchange(&mut http, &Request::post("/upload", &content_type, body)).await
            }
        };
        b.busy_s += start.elapsed().as_secs_f64();
        let resp = match result {
            Ok(resp) => resp,
            Err(e) => {
                // The connection is unusable: the rest of the batch fails.
                b.failed += (n - k) as u64;
                b.attempted += (n - k - 1) as u64;
                b.problems.push(format!("{phase:?} request {k}: {e}"));
                break;
            }
        };
        let ok = resp.status == 200
            && match phase {
                Phase::Down => resp.body == expected,
                Phase::Small => {
                    resp.body == expected
                        && std::str::from_utf8(&resp.body)
                            .is_ok_and(|text| MediaPlaylist::parse(text).is_ok())
                }
                Phase::Up => true,
            };
        if ok {
            b.items += match phase {
                Phase::Down => resp.body.len() as f64 / 1e6,
                Phase::Up => photo.len() as f64 / 1e6,
                Phase::Small => 1.0,
            };
        } else {
            b.failed += 1;
            b.problems
                .push(format!("{phase:?} request {k}: status {} or body mismatch", resp.status));
        }
    }
    if phase == Phase::Up {
        // Every acknowledged photo must be committed once, in order,
        // with all its bytes.
        let uploads = origin.uploads();
        let committed = uploads.len() == names.len()
            && uploads.iter().zip(&names).all(|(u, name)| {
                u.filenames.len() == 1 && &u.filenames[0] == name && u.total_bytes == photo.len()
            });
        if !committed {
            let lost = names.len().abs_diff(uploads.len()).max(1) as u64;
            b.failed += lost;
            b.items -= lost as f64 * photo.len() as f64 / 1e6;
            b.problems.push(format!(
                "origin committed {} uploads for {} photos sent, or with wrong names or sizes",
                uploads.len(),
                names.len()
            ));
        }
    }
    Ok(b)
}

/// One set-up launch: bring-up plus a single request of `phase`, in a
/// freshly reset runtime.
fn launch(rt: &mut Runtime, phase: Phase, photo: &Bytes) -> Result<(), String> {
    rt.reset();
    let b = rt.block_on(batch(phase, 1, photo, 0))?;
    match b.failed {
        0 => Ok(()),
        _ => Err(format!("set-up request failed: {:?}", b.problems)),
    }
}

/// Run one relay phase: one discarded warm-up batch, then batches until
/// `seconds` have passed, with set-up launches spread among them.
pub fn run(phase: Phase, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let photo = seeded_bytes(seed, PHOTO_BYTES);
    // Random bytes could, in principle, contain the boundary; the photo
    // must survive the multipart round trip for the check to mean much.
    let encoded = encode_multipart(&[Part::photo("file", "probe.jpg", photo.clone())], BOUNDARY);
    match parse_multipart(&encoded, BOUNDARY) {
        Ok(parts) if parts.len() == 1 && parts[0].data == photo => {}
        _ => return Err(format!("seed {seed}: the photo does not survive a multipart round trip")),
    }

    let mut rt = Runtime::new();
    let mut o = Outcome::default();
    let mut setup = Setup::new(seconds);
    setup.catch_up(0.0, || launch(&mut rt, phase, &photo))?;
    let mut sent = 0u64;
    let mut next_batch = |rt: &mut Runtime, o: &mut Outcome| {
        rt.reset();
        let b = rt.block_on(batch(phase, phase.batch(), &photo, sent))?;
        sent += phase.batch() as u64;
        o.attempted += b.attempted;
        o.failed += b.failed;
        o.problems.extend(b.problems);
        Ok::<_, String>((b.items, b.busy_s))
    };
    next_batch(&mut rt, &mut o)?;
    let start = Instant::now();
    while o.throughput.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (items, busy_s) = next_batch(&mut rt, &mut o)?;
        if busy_s > 0.0 {
            o.throughput.push(items / busy_s);
        }
        setup.catch_up(start.elapsed().as_secs_f64(), || launch(&mut rt, phase, &photo))?;
    }
    o.setup_s = setup.finish(|| launch(&mut rt, phase, &photo))?;
    o.peak_rss_mib = vec![own_peak_rss_mib()?];
    o.digest = match phase {
        Phase::Up => format!("{:016x}", fnv(&photo)),
        Phase::Down | Phase::Small => {
            let target = if phase == Phase::Down { PROBE } else { PLAYLIST };
            let ladder = [VideoQuality::new("Q1", 64e3)];
            let body = OriginServer::new(&ladder, 10.0, 2.0).handle(&Request::get(target)).body;
            format!("{:016x}", fnv(&body))
        }
    };
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_request_per_phase_passes_its_checks() {
        let photo = seeded_bytes(7, PHOTO_BYTES);
        for phase in [Phase::Down, Phase::Up, Phase::Small] {
            let b = tokio::runtime::block_on(batch(phase, 1, &photo, 0)).unwrap();
            assert_eq!((b.attempted, b.failed), (1, 0), "{phase:?}: {:?}", b.problems);
            assert!(b.items > 0.0 && b.busy_s > 0.0);
        }
    }

    #[test]
    fn seeded_photos_are_reproducible_and_distinct() {
        assert_eq!(seeded_bytes(3, 1000), seeded_bytes(3, 1000));
        assert_ne!(seeded_bytes(3, 1000), seeded_bytes(4, 1000));
        assert_eq!(seeded_bytes(3, 13).len(), 13);
    }
}
