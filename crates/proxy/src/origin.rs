//! The origin web server: HLS VoD assets, photo-upload endpoint and
//! the §3 probe files, served over plain HTTP/1.1 on a TCP listener.
//!
//! The asset tree mirrors the paper's test setup: a master playlist at
//! `/master.m3u8`, per-quality media playlists at `/q{i}/index.m3u8`,
//! segments at `/q{i}/seg00000.ts` …, a 2 MB probe at `/probe.bin`,
//! and `POST /upload` accepting multipart photo sets.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tokio::net::{TcpListener, TcpStream};

use threegol_hls::{segment_video, MasterPlaylist, MediaPlaylist, VideoQuality, VideoSpec};
use threegol_http::codec::HttpStream;
use threegol_http::multipart::{boundary_from_content_type, parse_multipart};
use threegol_http::{Request, Response};

/// A received photo upload.
#[derive(Debug, Clone)]
pub struct ReceivedUpload {
    /// Filenames in the multipart body.
    pub filenames: Vec<String>,
    /// Total payload bytes.
    pub total_bytes: usize,
}

/// The origin server: generated in-memory assets + upload sink.
pub struct OriginServer {
    /// The asset tree, shared process-wide between every origin built
    /// from the same parameters (see [`cached_assets`]): a fleet of
    /// identical homes pays for the ~2.6 MB of playlists, segments and
    /// probe body once, not once per home.
    assets: Arc<HashMap<String, Bytes>>,
    uploads: Mutex<Vec<ReceivedUpload>>,
    requests_served: AtomicU64,
}

/// Build (or fetch) the asset tree for one parameter set. Keyed by the
/// exact bit patterns of the inputs, so only genuinely identical trees
/// are shared; bodies are `Bytes`, so concurrent servers on different
/// worker threads serve views of one allocation.
fn cached_assets(
    ladder: &[VideoQuality],
    duration_secs: f64,
    segment_secs: f64,
) -> Arc<HashMap<String, Bytes>> {
    type AssetCache = Mutex<HashMap<String, Arc<HashMap<String, Bytes>>>>;
    static CACHE: std::sync::OnceLock<AssetCache> = std::sync::OnceLock::new();
    let mut key = format!("{}:{}", duration_secs.to_bits(), segment_secs.to_bits());
    for q in ladder {
        use std::fmt::Write;
        let _ = write!(key, "|{}={}", q.label, q.bitrate_bps.to_bits());
    }
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(assets) = cache.lock().get(&key) {
        return Arc::clone(assets);
    }
    // Built outside the lock: a miss costs ~2.6 MB of memset and the
    // playlist rendering, and a racing duplicate build is benign (one
    // winner is kept).
    let built = Arc::new(build_assets(ladder, duration_secs, segment_secs));
    Arc::clone(cache.lock().entry(key).or_insert(built))
}

/// Render the asset tree: playlists, deterministic filler segments and
/// the 2 MB probe.
fn build_assets(
    ladder: &[VideoQuality],
    duration_secs: f64,
    segment_secs: f64,
) -> HashMap<String, Bytes> {
    let mut assets = HashMap::new();
    let master = MasterPlaylist::from_ladder(ladder);
    assets.insert("/master.m3u8".to_string(), Bytes::from(master.to_m3u8()));
    for (i, q) in ladder.iter().enumerate() {
        let spec = VideoSpec { duration_secs, segment_secs, quality: q.clone() };
        let segments = segment_video(&spec);
        let media = MediaPlaylist::from_segments(&segments);
        assets.insert(format!("/q{}/index.m3u8", i + 1), Bytes::from(media.to_m3u8()));
        for seg in &segments {
            // Deterministic filler payload of the right size.
            let body = vec![(seg.index % 251) as u8; seg.size_bytes as usize];
            assets.insert(format!("/q{}/{}", i + 1, seg.uri), Bytes::from(body));
        }
    }
    assets.insert("/probe.bin".to_string(), Bytes::from(vec![0xAB; 2_000_000]));
    assets
}

impl OriginServer {
    /// Serve the asset tree for the paper's test video (`duration_secs`
    /// at every quality of the ladder) plus a 2 MB probe file. The
    /// tree itself comes from a process-wide cache shared by every
    /// origin with the same parameters.
    pub fn new(ladder: &[VideoQuality], duration_secs: f64, segment_secs: f64) -> OriginServer {
        OriginServer {
            assets: cached_assets(ladder, duration_secs, segment_secs),
            uploads: Mutex::new(Vec::new()),
            requests_served: AtomicU64::new(0),
        }
    }

    /// A small origin for fast tests: short video, tiny probe.
    #[cfg(test)]
    pub(crate) fn small_for_tests() -> OriginServer {
        let ladder = vec![VideoQuality::new("Q1", 64e3)];
        let mut o = OriginServer::new(&ladder, 10.0, 2.0);
        // This origin's tree diverges from the shared one: un-share
        // before mutating (refcount-bump copies of the bodies).
        Arc::make_mut(&mut o.assets)
            .insert("/probe.bin".to_string(), Bytes::from(vec![0xAB; 64_000]));
        o
    }

    /// Bind a listener on `addr` (use port 0 for an ephemeral port) and
    /// serve forever. Returns the bound address and the join handle.
    pub async fn spawn(
        self: Arc<Self>,
        addr: &str,
    ) -> std::io::Result<(SocketAddr, tokio::task::JoinHandle<()>)> {
        let listener = TcpListener::bind(addr).await?;
        let local = listener.local_addr()?;
        let handle = tokio::spawn(async move {
            loop {
                let Ok((stream, _)) = listener.accept().await else { break };
                let server = Arc::clone(&self);
                tokio::spawn(async move {
                    let _ = server.serve_connection(stream).await;
                });
            }
        });
        Ok((local, handle))
    }

    /// Serve one connection until the peer closes it.
    pub(crate) async fn serve_connection(
        &self,
        stream: TcpStream,
    ) -> Result<(), threegol_http::HttpError> {
        let mut http = HttpStream::new(stream);
        while let Some(req) = http.read_request().await? {
            let resp = self.handle(&req);
            http.write_response(&resp).await?;
        }
        Ok(())
    }

    /// Route one request.
    pub fn handle(&self, req: &Request) -> Response {
        self.requests_served.fetch_add(1, Ordering::Relaxed);
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", target) => match self.assets.get(target) {
                Some(body) => {
                    let ct = if target.ends_with(".m3u8") {
                        "application/vnd.apple.mpegurl"
                    } else if target.ends_with(".ts") {
                        "video/mp2t"
                    } else {
                        "application/octet-stream"
                    };
                    // `Bytes` is reference-counted: the clone is a
                    // view of the stored asset, so serving a segment
                    // never copies its payload. A `Range` header is
                    // ignored: the whole asset comes back with a 200.
                    Response::ok(ct, body.clone())
                }
                None => Response::not_found(),
            },
            ("POST", "/upload") => {
                let Some(ct) = req.headers.get("content-type") else {
                    return Response::status(400, "Bad Request");
                };
                let Some(boundary) = boundary_from_content_type(ct) else {
                    return Response::status(400, "Bad Request");
                };
                match parse_multipart(&req.body, boundary) {
                    Ok(parts) => {
                        let upload = ReceivedUpload {
                            filenames: parts.iter().filter_map(|p| p.filename.clone()).collect(),
                            total_bytes: parts.iter().map(|p| p.data.len()).sum(),
                        };
                        self.uploads.lock().push(upload);
                        Response::ok("text/plain", Bytes::from_static(b"stored"))
                    }
                    Err(_) => Response::status(400, "Bad Request"),
                }
            }
            _ => Response::status(405, "Method Not Allowed"),
        }
    }

    /// Uploads received so far.
    pub fn uploads(&self) -> Vec<ReceivedUpload> {
        self.uploads.lock().clone()
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Asset paths, sorted.
    #[cfg(test)]
    pub(crate) fn asset_paths(&self) -> Vec<String> {
        let mut v: Vec<String> = self.assets.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threegol_http::multipart::{encode_multipart, multipart_content_type, Part};

    #[test]
    fn asset_tree_shape() {
        let ladder = VideoQuality::paper_ladder();
        let o = OriginServer::new(&ladder, 200.0, 10.0);
        let paths = o.asset_paths();
        assert!(paths.contains(&"/master.m3u8".to_string()));
        assert!(paths.contains(&"/q1/index.m3u8".to_string()));
        assert!(paths.contains(&"/q4/seg00019.ts".to_string()));
        assert!(paths.contains(&"/probe.bin".to_string()));
        // 4 qualities × (20 segments + 1 playlist) + master + probe.
        assert_eq!(paths.len(), 4 * 21 + 2);
    }

    #[test]
    fn segment_sizes_match_bitrate() {
        let ladder = VideoQuality::paper_ladder();
        let o = OriginServer::new(&ladder, 200.0, 10.0);
        let resp = o.handle(&Request::get("/q1/seg00000.ts"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 250_000); // 200 kbps × 10 s / 8
        let resp4 = o.handle(&Request::get("/q4/seg00000.ts"));
        assert_eq!(resp4.body.len(), 922_500);
    }

    #[test]
    fn unknown_asset_404s() {
        let o = OriginServer::small_for_tests();
        assert_eq!(o.handle(&Request::get("/nope")).status, 404);
        assert_eq!(o.handle(&Request::post("/x", "t/p", Bytes::new())).status, 405);
    }

    #[test]
    fn upload_endpoint_parses_multipart() {
        let o = OriginServer::small_for_tests();
        let parts = vec![
            Part::photo("file1", "a.jpg", Bytes::from(vec![1u8; 1000])),
            Part::photo("file2", "b.jpg", Bytes::from(vec![2u8; 2000])),
        ];
        let body = encode_multipart(&parts, "bnd");
        let req = Request::post("/upload", &multipart_content_type("bnd"), body);
        let resp = o.handle(&req);
        assert_eq!(resp.status, 200);
        let ups = o.uploads();
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].filenames, vec!["a.jpg", "b.jpg"]);
        assert_eq!(ups[0].total_bytes, 3000);
    }

    #[test]
    fn bad_upload_rejected() {
        let o = OriginServer::small_for_tests();
        let req = Request::post("/upload", "text/plain", Bytes::from_static(b"x"));
        assert_eq!(o.handle(&req).status, 400);
        let req =
            Request::post("/upload", &multipart_content_type("b"), Bytes::from_static(b"garbage"));
        assert_eq!(o.handle(&req).status, 400);
    }

    #[tokio::test]
    async fn serves_over_tcp() {
        let o = Arc::new(OriginServer::small_for_tests());
        let (addr, _h) = o.clone().spawn("127.0.0.1:0").await.unwrap();
        let stream = TcpStream::connect(addr).await.unwrap();
        let mut http = HttpStream::new(stream);
        http.write_request(&Request::get("/master.m3u8")).await.unwrap();
        let resp = http.read_response().await.unwrap();
        assert_eq!(resp.status, 200);
        assert!(std::str::from_utf8(&resp.body).unwrap().contains("#EXTM3U"));
        // Sequential request on the same connection.
        http.write_request(&Request::get("/probe.bin")).await.unwrap();
        let probe = http.read_response().await.unwrap();
        assert_eq!(probe.body.len(), 64_000);
        assert_eq!(o.requests_served(), 2);
    }
}
