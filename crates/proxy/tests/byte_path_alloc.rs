//! Pins the allocations of the live byte path. Every byte a home reads
//! should land once: a read appends into spare capacity, a body
//! crosses the virtual net by reference and is read by reference, as a
//! view of its writer's buffer, and a virtual TCP connection's two
//! 64 KiB pipe rings come from the thread's free list. So once a
//! runtime is warm, a paper home's only allocations of 64 KiB or more
//! are the uploader's multipart encodes, each made once at its final
//! size; a small response on a kept-alive connection allocates no read
//! buffer; and neither the phone that relays a body nor the client
//! that holds it allocates for it.
//!
//! A counting global allocator wraps `System` and, while armed, logs
//! every allocation and reallocation of at least the armed size.
//! Counts are exact, so the assertions pin them. This file must
//! contain exactly one `#[test]`: a concurrently running test would
//! allocate into the log.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use std::sync::Arc;

use bytes::Bytes;
use threegol_hls::VideoQuality;
use threegol_http::codec::HttpStream;
use threegol_http::{Request, Response};
use threegol_proxy::{DeviceProxy, Home, HomeSpec, OriginServer, RateLimit};
use tokio::io::MIN_READ_WINDOW;
use tokio::net::TcpStream;
use tokio::runtime::Runtime;

/// Logs allocations of at least [`MIN_SIZE`] bytes while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
/// The smallest allocation the armed log records.
static MIN_SIZE: AtomicUsize = AtomicUsize::new(0);
/// Logged sizes, with [`REALLOC`] set on reallocations.
static LOG: [AtomicUsize; 1024] = [const { AtomicUsize::new(0) }; 1024];
static LOGGED: AtomicUsize = AtomicUsize::new(0);
/// Flag bit marking a logged size as a reallocation's new size.
const REALLOC: usize = 1 << 48;

fn log(size: usize, flag: usize) {
    if ARMED.load(Ordering::Relaxed) && size >= MIN_SIZE.load(Ordering::Relaxed) {
        let at = LOGGED.fetch_add(1, Ordering::Relaxed);
        assert!(at < LOG.len(), "allocation log overflow");
        LOG[at].store(size | flag, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        log(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        log(new_size, REALLOC);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Start logging allocations of at least `min_size` bytes, from an
/// empty log.
fn arm(min_size: usize) {
    LOGGED.store(0, Ordering::Relaxed);
    MIN_SIZE.store(min_size, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop logging and return what was logged: `(size, is_realloc)`.
fn disarm() -> Vec<(usize, bool)> {
    ARMED.store(false, Ordering::Relaxed);
    (0..LOGGED.load(Ordering::Relaxed))
        .map(|i| LOG[i].load(Ordering::Relaxed))
        .map(|v| (v & !REALLOC, v & REALLOC != 0))
        .collect()
}

#[test]
fn warm_paper_home_allocates_each_large_buffer_once() {
    // The fleet's reuse mode on one thread: warm a runtime with one
    // paper home, reset it, and measure the next.
    let mut rt = Runtime::new();
    rt.block_on(Home::run(&HomeSpec::paper_default(0))).unwrap();
    rt.reset();
    let spec = HomeSpec::paper_default(1);
    arm(MIN_READ_WINDOW);
    let report = rt.block_on(Home::run(&spec));
    let log = disarm();
    report.unwrap();

    let large: Vec<(usize, bool)> =
        log.into_iter().filter(|&(size, _)| size >= 64 * 1024).collect();
    let reallocs: Vec<usize> =
        large.iter().filter(|&&(_, realloc)| realloc).map(|&(size, _)| size).collect();
    assert!(reallocs.is_empty(), "reallocations of 64 KiB or more: {reallocs:?}");
    let rings = large.iter().filter(|&&(size, _)| size == 64 * 1024).count();
    assert_eq!(rings, 0, "fresh 64 KiB pipe rings");
    // The rest are the photo POSTs (a 100 kB photo plus 160 bytes of
    // multipart framing), each allocated once at its length as the
    // uploader encodes it. No body a reader holds is allocated: the
    // 100 kB HLS segments (2 s at 400 kbit/s) the client's fetches
    // hand the HLS proxy's cache and the POSTs the origin reads are
    // views of the buffers their writers shared.
    let segment = (spec.video_bps * spec.segment_secs / 8.0) as usize;
    let photo_post = spec.photo_bytes + 160;
    let count = |len: usize| large.iter().filter(|&&(size, _)| size == len).count();
    assert_eq!((count(segment), count(photo_post)), (0, 5), "{large:?}");
    assert_eq!(large.len(), 5, "other large allocations: {large:?}");

    // A 300-byte response on a kept-alive connection reads into the
    // buffer the stream kept from the previous message.
    rt.reset();
    rt.block_on(async {
        let (a, b) = tokio::io::duplex(64 * 1024);
        let (mut server, mut client) = (HttpStream::new(a), HttpStream::new(b));
        let resp = Response::ok("text/plain", Bytes::from(vec![b'x'; 300]));
        server.write_response(&resp).await.unwrap();
        client.read_response().await.unwrap();
        server.write_response(&resp).await.unwrap();
        // The response is already in the pipe, so the read never
        // yields to another task while the log is armed.
        arm(MIN_READ_WINDOW);
        let got = client.read_response().await;
        let log = disarm();
        assert_eq!(got.unwrap().body, resp.body);
        assert_eq!(log, [], "read buffers allocated for a 300-byte response");
    });

    // An unthrottled phone relays kept-alive 100 kB GETs. Once the
    // connection is warm, a request allocates only what its heads
    // parse into at each hop and the origin's response: the relay
    // forwards the body's views and the client reads them back as one
    // view of the origin's asset, so nothing is allocated for the body.
    rt.reset();
    let per_request = rt.block_on(async {
        let ladder = [VideoQuality::new("Q1", 400e3)];
        let origin = Arc::new(OriginServer::new(&ladder, 10.0, 2.0));
        let (origin_addr, _) = origin.spawn("10.9.0.1:8080").await.unwrap();
        let unlimited = RateLimit::unlimited();
        let phone = DeviceProxy::new("phone", origin_addr, unlimited, unlimited, f64::MAX);
        let (lan, _) = Arc::new(phone).spawn("10.9.0.10:3128").await.unwrap();
        let mut http = HttpStream::new(TcpStream::connect(lan).await.unwrap());
        let get = Request::get("/q1/seg00001.ts");
        let mut per_request = Vec::new();
        for round in 0..4 {
            arm(0);
            http.write_request(&get).await.unwrap();
            let got = http.read_response().await;
            let log = disarm();
            assert_eq!(got.unwrap().body.len(), 100_000);
            // Round 0 warms the connection up.
            if round > 0 {
                per_request.push(log);
            }
        }
        per_request
    });
    for log in &per_request {
        let sizes: Vec<usize> = log.iter().map(|&(size, _)| size).collect();
        assert_eq!(log.len(), 25, "allocations of one relayed GET: {sizes:?}");
    }
}
