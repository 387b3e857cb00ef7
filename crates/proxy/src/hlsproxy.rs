//! The HLS-aware client proxy (paper §4.1):
//!
//! > "The client component intercepts the extended M3U (m3u8)
//! > playlist, and using the scheduler it pre-fetches the segments by
//! > performing parallel downloads."
//!
//! [`HlsProxy`] is what the video player actually talks to: a local
//! HTTP proxy. A playlist request is forwarded upstream over the
//! gateway path; the moment the playlist is parsed, one background task
//! prefetches every segment over all available paths, and subsequent
//! segment requests are served from the prefetch cache (blocking until
//! the segment lands). The player is completely unaware of 3GOL — the
//! paper's transparency requirement (§4.1: "this implementation is
//! completely transparent to the residential gateway" and needs no
//! server changes).
//!
//! The proxy keeps one `State` behind one lock — the cache (ready,
//! pending, given-up and served segments) and the bytes each path
//! moved — and one [`Notify`] that wakes waiting players whenever a
//! prefetch lands a segment or ends. A prefetch task closes its books
//! in the poll that lands its last segment, so a player holding every
//! segment never sees the tallies short and nobody has to wait for the
//! proxy to go idle.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::Notify;

use threegol_hls::MediaPlaylist;
use threegol_http::codec::HttpStream;
use threegol_http::{HttpError, Request, Response};
use threegol_sched::TransferReport;

use crate::client::{segment_targets, ThreegolClient};

/// The proxy's books: the prefetch cache and the per-path byte
/// tallies. Targets are interned `Arc<str>`s: each segment path is
/// built exactly once per prefetch round and every map, set, in-flight
/// fetch and eviction shares that one allocation (lookups by `&str`
/// still work — `Arc<str>: Borrow<str>`).
#[derive(Default)]
struct State {
    /// Segment target → body, once fetched and not yet served.
    ready: HashMap<Arc<str>, Bytes>,
    /// Targets currently being prefetched.
    pending: HashSet<Arc<str>>,
    /// Targets whose prefetch ended without landing them: a player
    /// asking for one gets `502 Bad Gateway` at once, since the
    /// transfer already retried every path.
    gave_up: HashSet<Arc<str>>,
    /// Targets already handed to the player and evicted from `ready`
    /// (a VoD player requests each segment once, so holding served
    /// bodies would only grow the cache for the length of the video).
    /// Consulted by prefetch so a playlist re-intercept does not
    /// refetch them.
    served: HashSet<Arc<str>>,
    /// Bytes that crossed each path index (0 = gateway, 1.. = phones)
    /// across every transfer this proxy issued, aborted partials
    /// included — the load the access links saw.
    path_bytes: Vec<f64>,
}

impl State {
    fn note(&mut self, report: &TransferReport) {
        if self.path_bytes.len() < report.bytes_per_path.len() {
            self.path_bytes.resize(report.bytes_per_path.len(), 0.0);
        }
        for (acc, v) in self.path_bytes.iter_mut().zip(&report.bytes_per_path) {
            *acc += *v;
        }
    }
}

/// The HLS-aware local proxy.
pub struct HlsProxy {
    client: Arc<ThreegolClient>,
    state: Arc<Mutex<State>>,
    /// Woken whenever a prefetch lands a segment or ends.
    changed: Arc<Notify>,
}

impl HlsProxy {
    /// Create a proxy multiplexing over `client`'s paths.
    pub fn new(client: ThreegolClient) -> HlsProxy {
        HlsProxy {
            client: Arc::new(client),
            state: Arc::new(Mutex::new(State::default())),
            changed: Arc::new(Notify::new()),
        }
    }

    /// Listen on `addr` (port 0 for ephemeral) and serve players.
    pub async fn spawn(
        self: Arc<Self>,
        addr: &str,
    ) -> std::io::Result<(SocketAddr, tokio::task::JoinHandle<()>)> {
        let listener = TcpListener::bind(addr).await?;
        let local = listener.local_addr()?;
        let handle = tokio::spawn(async move {
            loop {
                let Ok((stream, _)) = listener.accept().await else { break };
                let proxy = Arc::clone(&self);
                tokio::spawn(async move {
                    let _ = proxy.serve_connection(stream).await;
                });
            }
        });
        Ok((local, handle))
    }

    /// Serve one player connection.
    pub(crate) async fn serve_connection(&self, stream: TcpStream) -> Result<(), HttpError> {
        let mut http = HttpStream::new(stream);
        while let Some(req) = http.read_request().await? {
            let resp = self.handle(&req).await?;
            http.write_response(&resp).await?;
        }
        Ok(())
    }

    /// Handle one player request.
    pub async fn handle(&self, req: &Request) -> Result<Response, HttpError> {
        if req.method != "GET" {
            return Ok(Response::status(405, "Method Not Allowed"));
        }
        if req.target.ends_with(".m3u8") {
            self.handle_playlist(&req.target).await
        } else {
            self.handle_segment(&req.target).await
        }
    }

    /// Intercept a playlist: forward it, then kick off the multipath
    /// prefetch of all its segments. Master playlists pass through
    /// untouched — the player picks a variant and requests its media
    /// playlist next, which triggers the prefetch.
    async fn handle_playlist(&self, target: &str) -> Result<Response, HttpError> {
        let (bodies, report) = self.client.fetch(vec![Arc::from(target)]).await?;
        self.state.lock().note(&report);
        let body = bodies.into_iter().next().expect("one body");
        if let Ok(text) = std::str::from_utf8(&body) {
            if let Ok(playlist) = MediaPlaylist::parse(text) {
                if !playlist.entries.is_empty() {
                    self.start_prefetch(target, &playlist);
                }
            }
        }
        Ok(Response::ok("application/vnd.apple.mpegurl", body))
    }

    /// Begin prefetching every segment of `playlist` not already cached,
    /// served or in flight, on one task: it lands each body in the
    /// cache as its first copy arrives, and when the transfer ends it
    /// notes the report and moves whatever is still pending to the
    /// given-up set, so a waiting player hears `502` instead of waiting
    /// forever. A re-intercepted playlist retries given-up targets.
    /// Each target string is built exactly once; the pending set, the
    /// fetch jobs and the landing all share it as an `Arc<str>`.
    fn start_prefetch(&self, playlist_target: &str, playlist: &MediaPlaylist) {
        let fresh: Vec<Arc<str>> = {
            let mut state = self.state.lock();
            let mut fresh = Vec::new();
            for t in segment_targets(playlist_target, playlist) {
                if !state.ready.contains_key(&*t)
                    && !state.pending.contains(&*t)
                    && !state.served.contains(&*t)
                {
                    state.gave_up.remove(&*t);
                    state.pending.insert(Arc::clone(&t));
                    fresh.push(t);
                }
            }
            fresh
        };
        if fresh.is_empty() {
            return;
        }
        let client = Arc::clone(&self.client);
        let state = Arc::clone(&self.state);
        let changed = Arc::clone(&self.changed);
        tokio::spawn(async move {
            let mut land = |idx: usize, body: Bytes| {
                let t = &fresh[idx];
                let mut s = state.lock();
                s.pending.remove(&**t);
                s.ready.insert(Arc::clone(t), body);
                drop(s);
                changed.notify_waiters();
            };
            // The fetch gets its own Vec of refcount bumps, not string
            // copies.
            let report = client.fetch_streaming(fresh.clone(), &mut land).await;
            let mut s = state.lock();
            if let Ok(report) = report {
                s.note(&report);
            }
            for t in &fresh {
                if s.pending.remove(&**t) {
                    s.gave_up.insert(Arc::clone(t));
                }
            }
            drop(s);
            changed.notify_waiters();
        });
    }

    /// Serve a segment from the prefetch cache, waiting for it to land
    /// if the prefetch is still in flight; answers `502 Bad Gateway`
    /// for a target whose prefetch gave up, and falls back to a direct
    /// multipath fetch for never-prefetched targets. Serving evicts
    /// the body from the cache — the `Bytes` handle moves to the
    /// response without copying, and the ready cache stays bounded by
    /// the prefetch window instead of the whole video.
    async fn handle_segment(&self, target: &str) -> Result<Response, HttpError> {
        loop {
            let changed = self.changed.notified();
            {
                let mut state = self.state.lock();
                // `remove_entry` recovers the interned key so the
                // served set reuses it instead of re-allocating.
                if let Some((key, body)) = state.ready.remove_entry(target) {
                    state.served.insert(key);
                    return Ok(Response::ok("video/mp2t", body));
                }
                if state.gave_up.contains(target) {
                    return Ok(Response::status(502, "Bad Gateway"));
                }
                if !state.pending.contains(target) {
                    break;
                }
            }
            changed.await;
        }
        // Not part of any intercepted playlist: fetch directly.
        let interned: Arc<str> = Arc::from(target);
        let (bodies, report) = self.client.fetch(vec![Arc::clone(&interned)]).await?;
        let mut state = self.state.lock();
        state.note(&report);
        state.served.insert(interned);
        let body = bodies.into_iter().next().expect("one body");
        Ok(Response::ok("video/mp2t", body))
    }

    /// Bytes this proxy's transfers moved over device (3G) paths —
    /// the downlink burden the phones' cells carried.
    ///
    /// Complete as soon as the player holds every segment it asked
    /// for: a prefetch notes its report in the same poll that lands its
    /// last segment, with no await in between, and the player can only
    /// get that segment after it lands.
    pub(crate) fn device_bytes(&self) -> f64 {
        self.state.lock().path_bytes.iter().skip(1).sum()
    }

    /// Number of cached (fetched, not yet served) segments.
    #[cfg(test)]
    pub(crate) fn cached_segments(&self) -> usize {
        self.state.lock().ready.len()
    }

    /// Number of segments already served (and evicted).
    #[cfg(test)]
    pub(crate) fn served_segments(&self) -> usize {
        self.state.lock().served.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProxy;
    use crate::origin::OriginServer;
    use crate::throttle::{RateLimit, SharedRateLimit};
    use crate::PathTarget;
    use threegol_hls::VideoQuality;

    /// An origin serving a 10 s, 64 kbit/s video in 2 s segments, and
    /// a proxy over the gateway path to it plus `phones` device paths.
    async fn setup(phones: usize) -> (Arc<HlsProxy>, SocketAddr, Arc<OriginServer>) {
        let ladder = vec![VideoQuality::new("Q1", 64e3)];
        let origin = Arc::new(OriginServer::new(&ladder, 10.0, 2.0));
        let (origin_addr, _t) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
        let mut paths = vec![PathTarget::SharedGateway {
            origin: origin_addr,
            down: SharedRateLimit::from_bps(8_000_000),
            up: SharedRateLimit::from_bps(2_000_000),
        }];
        for i in 0..phones {
            let (g3_down, g3_up) = (RateLimit::new(2e6), RateLimit::new(1e6));
            let device = DeviceProxy::new(format!("phone-{i}"), origin_addr, g3_down, g3_up, 1e9);
            let (addr, _t) = Arc::new(device).spawn("127.0.0.1:0").await.unwrap();
            paths.push(PathTarget::Device { addr });
        }
        let proxy = Arc::new(HlsProxy::new(ThreegolClient::new(paths)));
        let (addr, _t2) = proxy.clone().spawn("127.0.0.1:0").await.unwrap();
        (proxy, addr, origin)
    }

    async fn player_get(addr: SocketAddr, target: &str) -> Response {
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        http.write_request(&Request::get(target)).await.unwrap();
        http.read_response().await.unwrap()
    }

    #[tokio::test]
    async fn player_flow_playlist_then_segments() {
        let (proxy, addr, _origin) = setup(0).await;
        // The player asks for the playlist — prefetch starts behind it.
        let pl = player_get(addr, "/q1/index.m3u8").await;
        assert_eq!(pl.status, 200);
        let text = std::str::from_utf8(&pl.body).unwrap();
        assert!(text.contains("#EXTM3U"));
        // The player then requests segments in order; the proxy serves
        // them from the prefetch cache (possibly waiting for arrival).
        for i in 0..5 {
            let seg = player_get(addr, &format!("/q1/seg{i:05}.ts")).await;
            assert_eq!(seg.status, 200);
            assert_eq!(seg.body.len(), 16_000, "segment {i}");
        }
        // Served segments are evicted from the ready cache.
        assert_eq!(proxy.cached_segments(), 0);
        assert_eq!(proxy.served_segments(), 5);
    }

    #[tokio::test]
    async fn served_segments_are_not_refetched_on_replaylist() {
        let (proxy, addr, origin) = setup(0).await;
        let _ = player_get(addr, "/q1/index.m3u8").await;
        for i in 0..5 {
            let seg = player_get(addr, &format!("/q1/seg{i:05}.ts")).await;
            assert_eq!(seg.status, 200);
        }
        assert_eq!(proxy.cached_segments(), 0);
        let served_before = origin.requests_served();
        // Re-intercepting the playlist must not refetch evicted
        // segments the player already consumed.
        let _ = player_get(addr, "/q1/index.m3u8").await;
        tokio::time::sleep(std::time::Duration::from_millis(100)).await;
        assert_eq!(origin.requests_served(), served_before + 1);
    }

    #[tokio::test]
    async fn master_playlist_passes_through() {
        let (proxy, addr, _origin) = setup(0).await;
        let master = player_get(addr, "/master.m3u8").await;
        assert_eq!(master.status, 200);
        assert!(std::str::from_utf8(&master.body).unwrap().contains("STREAM-INF"));
        // A master playlist must not trigger segment prefetch.
        tokio::time::sleep(std::time::Duration::from_millis(100)).await;
        assert_eq!(proxy.cached_segments(), 0);
    }

    #[tokio::test]
    async fn direct_segment_fetch_without_playlist() {
        let (_proxy, addr, _origin) = setup(0).await;
        let seg = player_get(addr, "/q1/seg00002.ts").await;
        assert_eq!(seg.status, 200);
        assert_eq!(seg.body.len(), 16_000);
    }

    #[tokio::test]
    async fn repeated_playlist_requests_do_not_refetch() {
        let (proxy, addr, origin) = setup(0).await;
        let _ = player_get(addr, "/q1/index.m3u8").await;
        // Wait for the prefetch to finish.
        for _ in 0..100 {
            if proxy.cached_segments() == 5 {
                break;
            }
            tokio::time::sleep(std::time::Duration::from_millis(20)).await;
        }
        let served_before = origin.requests_served();
        let _ = player_get(addr, "/q1/index.m3u8").await;
        tokio::time::sleep(std::time::Duration::from_millis(100)).await;
        // Only the playlist itself is refetched, not the segments.
        assert_eq!(origin.requests_served(), served_before + 1);
    }

    #[tokio::test]
    async fn a_prefetch_that_gives_up_releases_the_waiting_player() {
        // A stub origin whose playlist names a segment it answers with
        // 404, a virtual second late: the player's segment request
        // waits on the prefetch, which tries every attempt once and
        // fails for good. The proxy records the target as given up and
        // answers the waiting player 502 without a direct fetch.
        let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let origin = listener.local_addr().unwrap();
        let gone_requests = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&gone_requests);
        tokio::spawn(async move {
            while let Ok((stream, _)) = listener.accept().await {
                let counter = Arc::clone(&counter);
                tokio::spawn(async move {
                    let mut http = HttpStream::new(stream);
                    while let Ok(Some(req)) = http.read_request().await {
                        let resp = if req.target.ends_with(".m3u8") {
                            let playlist = "#EXTM3U\n#EXTINF:2.0,\ngone.ts\n#EXT-X-ENDLIST\n";
                            Response::ok("application/vnd.apple.mpegurl", playlist.into())
                        } else {
                            assert_eq!(req.target, "/v/gone.ts");
                            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            tokio::time::sleep(std::time::Duration::from_secs(1)).await;
                            Response::not_found()
                        };
                        if http.write_response(&resp).await.is_err() {
                            break;
                        }
                    }
                });
            }
        });
        let client = ThreegolClient::new(vec![PathTarget::SharedGateway {
            origin,
            down: SharedRateLimit::from_bps(8_000_000),
            up: SharedRateLimit::from_bps(2_000_000),
        }]);
        let (addr, _t) = Arc::new(HlsProxy::new(client)).spawn("127.0.0.1:0").await.unwrap();
        assert_eq!(player_get(addr, "/v/index.m3u8").await.status, 200);
        let asked = tokio::time::Instant::now();
        let seg = player_get(addr, "/v/gone.ts").await;
        let waited = asked.elapsed();
        assert_eq!(seg.status, 502);
        assert_eq!(gone_requests.load(std::sync::atomic::Ordering::Relaxed), 4);
        // Four 1 s attempts, then the answer: no direct fetch.
        assert_eq!(waited, std::time::Duration::from_secs(4));
    }

    #[tokio::test]
    async fn device_bytes_are_complete_once_the_player_holds_every_segment() {
        let (proxy, addr, _origin) = setup(1).await;
        let _ = player_get(addr, "/q1/index.m3u8").await;
        for i in 0..5 {
            assert_eq!(player_get(addr, &format!("/q1/seg{i:05}.ts")).await.status, 200);
        }
        let at_last_segment = proxy.device_bytes();
        tokio::time::sleep(std::time::Duration::from_secs(60)).await;
        assert_eq!(at_last_segment, proxy.device_bytes());
        assert!(at_last_segment > 0.0);
    }

    #[tokio::test]
    async fn non_get_rejected() {
        let (_proxy, addr, _origin) = setup(0).await;
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        http.write_request(&Request::post("/x", "t/p", Bytes::new())).await.unwrap();
        let resp = http.read_response().await.unwrap();
        assert_eq!(resp.status, 405);
    }
}
