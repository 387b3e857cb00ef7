//! The HLS-aware client proxy (paper §4.1):
//!
//! > "The client component intercepts the extended M3U (m3u8)
//! > playlist, and using the scheduler it pre-fetches the segments by
//! > performing parallel downloads."
//!
//! [`HlsProxy`] is what the video player actually talks to: a local
//! HTTP proxy. A playlist request is forwarded upstream over the
//! gateway path; the moment the playlist is parsed, a background task
//! prefetches every segment over all available paths, and subsequent
//! segment requests are served from the prefetch cache (blocking until
//! the segment lands). The player is completely unaware of 3GOL — the
//! paper's transparency requirement (§4.1: "this implementation is
//! completely transparent to the residential gateway" and needs no
//! server changes).

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, Notify};

use threegol_hls::MediaPlaylist;
use threegol_http::codec::HttpStream;
use threegol_http::{HttpError, Request, Response};
use threegol_sched::TransferReport;

use crate::client::{segment_targets, ThreegolClient};

/// Prefetch cache state. Targets are interned `Arc<str>`s: each
/// segment path is built exactly once per prefetch round and every
/// map, set, in-flight fetch and eviction shares that one allocation
/// (lookups by `&str` still work — `Arc<str>: Borrow<str>`).
#[derive(Default)]
struct Cache {
    /// Segment target → body, once fetched and not yet served.
    ready: HashMap<Arc<str>, Bytes>,
    /// Targets currently being prefetched.
    pending: HashSet<Arc<str>>,
    /// Targets already handed to the player and evicted from `ready`
    /// (a VoD player requests each segment once, so holding served
    /// bodies would only grow the cache for the length of the video).
    /// Consulted by prefetch so a playlist re-intercept does not
    /// refetch them.
    served: HashSet<Arc<str>>,
}

/// Per-path byte tallies across every transfer this proxy issued,
/// plus the number of prefetch transfers still settling their books.
#[derive(Default)]
struct PathStats {
    /// Bytes that crossed each path index (0 = gateway, 1.. = phones),
    /// aborted partials included — the load the access links saw.
    bytes: Vec<f64>,
    /// Prefetch transfers in flight (fetch kicked off, report not yet
    /// folded in).
    in_flight: usize,
}

impl PathStats {
    fn note(&mut self, report: &TransferReport) {
        if self.bytes.len() < report.bytes_per_path.len() {
            self.bytes.resize(report.bytes_per_path.len(), 0.0);
        }
        for (acc, v) in self.bytes.iter_mut().zip(&report.bytes_per_path) {
            *acc += *v;
        }
    }
}

/// The HLS-aware local proxy.
pub struct HlsProxy {
    client: Arc<ThreegolClient>,
    cache: Arc<Mutex<Cache>>,
    arrived: Arc<Notify>,
    stats: Arc<Mutex<PathStats>>,
    idle: Arc<Notify>,
}

impl HlsProxy {
    /// Create a proxy multiplexing over `client`'s paths.
    pub fn new(client: ThreegolClient) -> HlsProxy {
        HlsProxy {
            client: Arc::new(client),
            cache: Arc::new(Mutex::new(Cache::default())),
            arrived: Arc::new(Notify::new()),
            stats: Arc::new(Mutex::new(PathStats::default())),
            idle: Arc::new(Notify::new()),
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
        stream.set_nodelay(true).ok();
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
        self.stats.lock().note(&report);
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

    /// Begin prefetching every segment of `playlist` not already cached
    /// or in flight. Each target string is built exactly once; the
    /// pending set, the fetch jobs and the arrival bookkeeping all
    /// share it as an `Arc<str>`.
    fn start_prefetch(&self, playlist_target: &str, playlist: &MediaPlaylist) {
        let fresh: Vec<Arc<str>> = {
            let mut cache = self.cache.lock();
            let mut fresh = Vec::new();
            for t in segment_targets(playlist_target, playlist) {
                if !cache.ready.contains_key(&*t)
                    && !cache.pending.contains(&*t)
                    && !cache.served.contains(&*t)
                {
                    cache.pending.insert(Arc::clone(&t));
                    fresh.push(t);
                }
            }
            fresh
        };
        if fresh.is_empty() {
            return;
        }
        let client = Arc::clone(&self.client);
        let cache = Arc::clone(&self.cache);
        let arrived = Arc::clone(&self.arrived);
        let stats = Arc::clone(&self.stats);
        let idle = Arc::clone(&self.idle);
        let (tx, mut rx) = mpsc::unbounded_channel::<(usize, Bytes)>();
        // Both tasks below share one target list; the fetch call gets
        // its own Vec of refcount bumps, not string copies.
        let targets: Arc<[Arc<str>]> = fresh.into();
        let fetch_targets: Vec<Arc<str>> = targets.to_vec();
        stats.lock().in_flight += 1;
        tokio::spawn(async move {
            let report = client.fetch_streaming(fetch_targets, tx).await;
            let mut s = stats.lock();
            if let Ok(report) = report {
                s.note(&report);
            }
            s.in_flight -= 1;
            let now_idle = s.in_flight == 0;
            drop(s);
            if now_idle {
                idle.notify_waiters();
            }
        });
        tokio::spawn(async move {
            while let Some((idx, body)) = rx.recv().await {
                let mut c = cache.lock();
                let t = &targets[idx];
                c.pending.remove(&**t);
                c.ready.insert(Arc::clone(t), body);
                drop(c);
                arrived.notify_waiters();
            }
            // Fetch task ended: clear any leftovers so segment requests
            // fall back to direct fetches instead of waiting forever.
            let mut c = cache.lock();
            for t in targets.iter() {
                c.pending.remove(&**t);
            }
            drop(c);
            arrived.notify_waiters();
        });
    }

    /// Serve a segment from the prefetch cache, waiting for it to land
    /// if the prefetch is still in flight; falls back to a direct
    /// multipath fetch for never-prefetched targets. Serving evicts
    /// the body from the cache — the `Bytes` handle moves to the
    /// response without copying, and the ready cache stays bounded by
    /// the prefetch window instead of the whole video.
    async fn handle_segment(&self, target: &str) -> Result<Response, HttpError> {
        loop {
            let notified = self.arrived.notified();
            let in_flight = {
                let mut cache = self.cache.lock();
                // `remove_entry` recovers the interned key so the
                // served set reuses it instead of re-allocating.
                if let Some((key, body)) = cache.ready.remove_entry(target) {
                    cache.served.insert(key);
                    return Ok(Response::ok("video/mp2t", body));
                }
                cache.pending.contains(target)
            };
            if !in_flight {
                // Not part of any intercepted playlist: fetch directly.
                let interned: Arc<str> = Arc::from(target);
                let (bodies, report) = self.client.fetch(vec![Arc::clone(&interned)]).await?;
                self.stats.lock().note(&report);
                let body = bodies.into_iter().next().expect("one body");
                self.cache.lock().served.insert(interned);
                return Ok(Response::ok("video/mp2t", body));
            }
            notified.await;
        }
    }

    /// Wait until no prefetch transfer is settling its books, so the
    /// per-path tallies below are complete. Returns immediately when
    /// nothing is in flight.
    pub(crate) async fn wait_idle(&self) {
        loop {
            let notified = self.idle.notified();
            if self.stats.lock().in_flight == 0 {
                return;
            }
            notified.await;
        }
    }

    /// Bytes this proxy's transfers moved over device (3G) paths —
    /// the downlink burden the phones' cells carried.
    pub(crate) fn device_bytes(&self) -> f64 {
        self.stats.lock().bytes.iter().skip(1).sum()
    }

    /// Number of cached (fetched, not yet served) segments.
    #[cfg(test)]
    pub(crate) fn cached_segments(&self) -> usize {
        self.cache.lock().ready.len()
    }

    /// Number of segments already served (and evicted).
    #[cfg(test)]
    pub(crate) fn served_segments(&self) -> usize {
        self.cache.lock().served.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginServer;
    use crate::throttle::SharedRateLimit;
    use crate::PathTarget;
    use threegol_hls::VideoQuality;

    async fn setup() -> (Arc<HlsProxy>, SocketAddr, Arc<OriginServer>) {
        let ladder = vec![VideoQuality::new("Q1", 64e3)];
        let origin = Arc::new(OriginServer::new(&ladder, 10.0, 2.0));
        let (origin_addr, _t) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
        let client = ThreegolClient::new(vec![PathTarget::SharedGateway {
            origin: origin_addr,
            down: SharedRateLimit::from_bps(8_000_000),
            up: SharedRateLimit::from_bps(2_000_000),
        }]);
        let proxy = Arc::new(HlsProxy::new(client));
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
        let (proxy, addr, _origin) = setup().await;
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
        let (proxy, addr, origin) = setup().await;
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
        let (proxy, addr, _origin) = setup().await;
        let master = player_get(addr, "/master.m3u8").await;
        assert_eq!(master.status, 200);
        assert!(std::str::from_utf8(&master.body).unwrap().contains("STREAM-INF"));
        // A master playlist must not trigger segment prefetch.
        tokio::time::sleep(std::time::Duration::from_millis(100)).await;
        assert_eq!(proxy.cached_segments(), 0);
    }

    #[tokio::test]
    async fn direct_segment_fetch_without_playlist() {
        let (_proxy, addr, _origin) = setup().await;
        let seg = player_get(addr, "/q1/seg00002.ts").await;
        assert_eq!(seg.status, 200);
        assert_eq!(seg.body.len(), 16_000);
    }

    #[tokio::test]
    async fn repeated_playlist_requests_do_not_refetch() {
        let (proxy, addr, origin) = setup().await;
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
    async fn non_get_rejected() {
        let (_proxy, addr, _origin) = setup().await;
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        http.write_request(&Request::post("/x", "t/p", Bytes::new())).await.unwrap();
        let resp = http.read_response().await.unwrap();
        assert_eq!(resp.status, 405);
    }
}
