//! The 3GOL client component (paper §4.1): an HLS-aware fetcher and a
//! multipart uploader, both driving the multipath scheduler over real
//! tokio connections.
//!
//! The client owns `N` [`PathTarget`]s — path 0 the residential
//! gateway (an origin connection throttled to the ADSL profile), paths
//! `1..N` the discovered device proxies. It is the live transport
//! behind the shared [`Transaction`] book, like the fluid runner in
//! `threegol-core`: a started copy is a spawned task counting the
//! bytes its connection moves, and a cancelled copy is an aborted
//! task. The book keeps the accounts, the failure limit and the ticks
//! a policy asks for, which the client waits for on the virtual clock.

use std::net::SocketAddr;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;
use tokio::time::Instant;

use bytes::Bytes;
use tokio::io::{AsyncRead, AsyncWrite, ReadBuf};
use tokio::net::TcpStream;
use tokio::sync::mpsc;

use threegol_hls::MediaPlaylist;
use threegol_http::codec::HttpStream;
use threegol_http::multipart::{encode_multipart, multipart_content_type, Part};
use threegol_http::{HttpError, Request};
use threegol_sched::{
    Greedy, MultipathScheduler, Transaction, TransactionSpec, TransferReport, Transport,
};

use crate::throttle::{SharedRateLimit, ThrottledStream};

/// Any bidirectional async byte stream.
pub(crate) trait AsyncStream: AsyncRead + AsyncWrite + Unpin + Send {}
impl<T: AsyncRead + AsyncWrite + Unpin + Send> AsyncStream for T {}

/// Where a path's transfers go.
#[derive(Debug, Clone)]
pub enum PathTarget {
    /// Straight to the origin through the residential gateway, drawing
    /// tokens from *shared* ADSL buckets — every connection a home
    /// opens over its DSL line contends for the same capacity, the way
    /// a real line behaves when several transfers cross it at once.
    SharedGateway {
        /// Origin address.
        origin: SocketAddr,
        /// The home's shared ADSL downlink bucket.
        down: SharedRateLimit,
        /// The home's shared ADSL uplink bucket.
        up: SharedRateLimit,
    },
    /// Through a device proxy (which applies its own 3G throttling).
    Device {
        /// The device proxy's LAN address.
        addr: SocketAddr,
    },
}

impl PathTarget {
    /// Open a connection for this path. When `wifi` is set, the whole
    /// stream additionally draws both directions from that shared
    /// bucket: the home's Wi-Fi medium, which every path of a 3GOL
    /// client crosses before reaching the gateway or a phone.
    async fn connect(
        &self,
        wifi: Option<&SharedRateLimit>,
    ) -> std::io::Result<Box<dyn AsyncStream>> {
        let stream: Box<dyn AsyncStream> = match self {
            PathTarget::SharedGateway { origin, down, up } => {
                let tcp = TcpStream::connect(*origin).await?;
                Box::new(ThrottledStream::with_shared(tcp, down.clone(), up.clone()))
            }
            PathTarget::Device { addr } => Box::new(TcpStream::connect(*addr).await?),
        };
        Ok(match wifi {
            Some(medium) => {
                Box::new(ThrottledStream::with_shared(stream, medium.clone(), medium.clone()))
            }
            None => stream,
        })
    }
}

/// One transfer job. Cloned once per transfer attempt, so the fetch
/// target is a shared `Arc<str>` — cloning bumps a refcount instead of
/// copying the path.
#[derive(Debug, Clone)]
enum Job {
    /// `GET {target}` and return the body.
    Fetch(Arc<str>),
    /// `POST /upload` with a single-photo multipart body.
    Upload { filename: String, data: Bytes },
}

/// GET the media playlist `target` over `http` and parse it.
pub(crate) async fn get_media_playlist<T: AsyncRead + AsyncWrite + Unpin>(
    http: &mut HttpStream<T>,
    target: &str,
) -> Result<MediaPlaylist, HttpError> {
    http.write_request(&Request::get(target)).await?;
    let resp = http.read_response().await?;
    if resp.status != 200 {
        return Err(HttpError::Malformed(format!("playlist fetch failed: {}", resp.status)));
    }
    let text = std::str::from_utf8(&resp.body)
        .map_err(|_| HttpError::Malformed("non-UTF-8 playlist".into()))?;
    MediaPlaylist::parse(text).map_err(|e| HttpError::Malformed(format!("bad playlist: {e}")))
}

/// The request targets of `playlist`'s segments in playout order: an
/// absolute `/` URI stays as it is, anything else is resolved against
/// the directory of `playlist_target`.
pub(crate) fn segment_targets<'a>(
    playlist_target: &'a str,
    playlist: &'a MediaPlaylist,
) -> impl Iterator<Item = Arc<str>> + 'a {
    let base = playlist_target.rsplit_once('/').map(|(dir, _)| dir).unwrap_or("");
    playlist.entries.iter().map(move |(_, uri)| {
        if uri.starts_with('/') {
            Arc::from(uri.as_str())
        } else {
            Arc::from(format!("{base}/{uri}"))
        }
    })
}

/// Per-transfer timeout: a wedged path must not hang the transaction.
const TRANSFER_TIMEOUT: Duration = Duration::from_secs(60);

/// The 3GOL client. It schedules every transaction with the greedy
/// scheduler, as the paper deploys it.
pub struct ThreegolClient {
    /// Available paths; index 0 should be the gateway.
    pub paths: Vec<PathTarget>,
    /// Shared Wi-Fi medium every connection crosses (None = ideal LAN).
    pub wifi: Option<SharedRateLimit>,
}

impl ThreegolClient {
    /// A client over the given paths.
    pub fn new(paths: Vec<PathTarget>) -> ThreegolClient {
        ThreegolClient { paths, wifi: None }
    }

    /// Route every connection through the given shared Wi-Fi bucket.
    pub fn with_wifi(mut self, medium: SharedRateLimit) -> ThreegolClient {
        self.wifi = Some(medium);
        self
    }

    /// Fetch `targets` (absolute request paths) in parallel. Returns
    /// the bodies in target order plus the transfer report. Targets
    /// are shared `Arc<str>`s so callers that already intern them (the
    /// HLS proxy's prefetch cache) hand them over without copying;
    /// `"/path".into()` still works for one-off fetches.
    pub async fn fetch(
        &self,
        targets: Vec<Arc<str>>,
    ) -> Result<(Vec<Bytes>, TransferReport), HttpError> {
        let jobs: Vec<Job> = targets.into_iter().map(Job::Fetch).collect();
        self.run(jobs, None, &mut |_, _| {}).await
    }

    /// Like [`ThreegolClient::fetch`], but additionally hands each
    /// item's body to `on_body` the moment its first copy lands — the
    /// HLS-aware proxy serves segments to the player as they land
    /// rather than waiting for the whole transaction.
    pub(crate) async fn fetch_streaming(
        &self,
        targets: Vec<Arc<str>>,
        on_body: &mut (dyn FnMut(usize, Bytes) + Send),
    ) -> Result<TransferReport, HttpError> {
        let jobs: Vec<Job> = targets.into_iter().map(Job::Fetch).collect();
        let (_, report) = self.run(jobs, None, on_body).await?;
        Ok(report)
    }

    /// HLS-aware fetch (the paper's client component): download the
    /// media playlist over the gateway path, then prefetch every
    /// segment in parallel. Returns `(playlist, segment bodies,
    /// report)`.
    pub async fn fetch_hls(
        &self,
        playlist_target: &str,
    ) -> Result<(MediaPlaylist, Vec<Bytes>, TransferReport), HttpError> {
        // Playlist interception happens before multipath kicks in.
        let io = self.paths[0].connect(self.wifi.as_ref()).await.map_err(HttpError::Io)?;
        let mut http = HttpStream::new(io);
        let playlist = get_media_playlist(&mut http, playlist_target).await?;
        let targets = segment_targets(playlist_target, &playlist).collect();
        let (bodies, report) = self.fetch(targets).await?;
        Ok((playlist, bodies, report))
    }

    /// Upload photos (one multipart POST per photo, like the native
    /// Flickr/Facebook clients, but spread over the paths).
    pub async fn upload_photos(
        &self,
        photos: Vec<(String, Bytes)>,
    ) -> Result<TransferReport, HttpError> {
        let sizes: Vec<f64> = photos.iter().map(|(_, d)| d.len() as f64).collect();
        let jobs: Vec<Job> =
            photos.into_iter().map(|(filename, data)| Job::Upload { filename, data }).collect();
        let (_, report) = self.run(jobs, Some(sizes), &mut |_, _| {}).await?;
        Ok(report)
    }

    /// Drive the greedy scheduler over real connections. Fetches pass
    /// no `sizes`: their bodies' lengths are unknown until they land.
    async fn run(
        &self,
        jobs: Vec<Job>,
        sizes: Option<Vec<f64>>,
        on_body: &mut (dyn FnMut(usize, Bytes) + Send),
    ) -> Result<(Vec<Bytes>, TransferReport), HttpError> {
        let sizes = sizes.unwrap_or_else(|| vec![1.0; jobs.len()]);
        let mut sched = Greedy::new(TransactionSpec::new(sizes, self.paths.len()));
        self.drive(jobs, &mut sched, on_body).await
    }

    /// Drive `sched` over real connections, handing each item's body
    /// to `on_body` as its first copy lands.
    async fn drive(
        &self,
        jobs: Vec<Job>,
        sched: &mut dyn MultipathScheduler,
        on_body: &mut (dyn FnMut(usize, Bytes) + Send),
    ) -> Result<(Vec<Bytes>, TransferReport), HttpError> {
        let started = Instant::now();
        let clock = || started.elapsed().as_secs_f64();
        let (tx, mut rx) = mpsc::unbounded_channel();
        let n_paths = self.paths.len();
        let running = (0..n_paths).map(|_| None).collect();
        let mut tasks = Tasks { client: self, jobs: &jobs, tx, running };
        let mut bodies = vec![Bytes::new(); jobs.len()];
        let mut book = Transaction::start(sched, n_paths, jobs.len(), 0.0, &mut tasks);

        while !book.is_done() {
            let landed = match book.next_tick(clock()) {
                None => rx.recv().await,
                Some(at) => {
                    let wait = Duration::from_secs_f64(at).saturating_sub(started.elapsed());
                    match tokio::time::timeout(wait, rx.recv()).await {
                        Ok(landed) => landed,
                        Err(_) => {
                            book.tick(clock(), &mut tasks);
                            continue;
                        }
                    }
                }
            };
            let Some(Landed { path, item, outcome, moved }) = landed else {
                return Err(HttpError::Malformed("transfer channel closed".into()));
            };
            let now = clock();
            match outcome {
                Ok(body) => {
                    // The scheduler hears the item's payload: the photo
                    // for an upload, whose response body is empty.
                    let bytes = match &jobs[item] {
                        Job::Fetch(_) => body.len(),
                        Job::Upload { data, .. } => data.len(),
                    };
                    if book.completed(path, item, now, moved, bytes as f64, &mut tasks) {
                        on_body(item, body.clone());
                        bodies[item] = body;
                    }
                }
                Err(msg) => {
                    if book.failed(path, item, now, moved, &mut tasks).is_err() {
                        return Err(HttpError::Malformed(format!(
                            "item {item} failed repeatedly: {msg}"
                        )));
                    }
                }
            }
        }
        Ok((bodies, book.finish(&mut tasks)))
    }
}

/// How one copy's task ended.
struct Landed {
    path: usize,
    item: usize,
    outcome: Result<Bytes, String>,
    /// Bytes the copy's connection moved, heads included.
    moved: f64,
}

/// The client's transport: one spawned task per copy.
struct Tasks<'a> {
    client: &'a ThreegolClient,
    jobs: &'a [Job],
    tx: mpsc::UnboundedSender<Landed>,
    /// The task of each path's latest copy and its byte counter.
    running: Vec<Option<(tokio::task::JoinHandle<()>, Arc<AtomicU64>)>>,
}

impl Transport for Tasks<'_> {
    fn start(&mut self, path: usize, item: usize) {
        let target = self.client.paths[path].clone();
        let wifi = self.client.wifi.clone();
        let job = self.jobs[item].clone();
        let tx = self.tx.clone();
        let counter = Arc::new(AtomicU64::new(0));
        let tally = Arc::clone(&counter);
        let handle = tokio::spawn(async move {
            let outcome = tokio::time::timeout(
                TRANSFER_TIMEOUT,
                perform(target, wifi, job, Arc::clone(&tally)),
            )
            .await
            .map_err(|_| "transfer timeout".to_string())
            .and_then(|r| r.map_err(|e| e.to_string()));
            let moved = tally.load(Ordering::Relaxed) as f64;
            let _ = tx.send(Landed { path, item, outcome, moved });
        });
        self.running[path] = Some((handle, counter));
    }

    fn cancel(&mut self, path: usize) -> f64 {
        let (handle, counter) =
            self.running[path].take().expect("the book cancels only running copies");
        handle.abort();
        counter.load(Ordering::Relaxed) as f64
    }
}

/// Execute one job over a fresh connection.
async fn perform(
    target: PathTarget,
    wifi: Option<SharedRateLimit>,
    job: Job,
    counter: Arc<AtomicU64>,
) -> Result<Bytes, HttpError> {
    let io = target.connect(wifi.as_ref()).await?;
    let mut http = HttpStream::new(CountingStream { inner: io, counter });
    match job {
        Job::Fetch(t) => {
            http.write_request(&Request::get(&*t)).await?;
            let resp = http.read_response().await?;
            if resp.status == 200 {
                Ok(resp.body)
            } else {
                Err(HttpError::Malformed(format!("GET failed: {}", resp.status)))
            }
        }
        Job::Upload { filename, data } => {
            let part = Part::photo("file", filename, data);
            let boundary = "threegol-boundary-7f3a";
            let body = encode_multipart(std::slice::from_ref(&part), boundary);
            let req = Request::post("/upload", &multipart_content_type(boundary), body);
            http.write_request(&req).await?;
            let resp = http.read_response().await?;
            if resp.status == 200 {
                Ok(Bytes::new())
            } else {
                Err(HttpError::Malformed(format!("POST failed: {}", resp.status)))
            }
        }
    }
}

/// Counts every byte read or written (for waste accounting on abort).
struct CountingStream<T> {
    inner: T,
    counter: Arc<AtomicU64>,
}

impl<T: AsyncRead + Unpin> AsyncRead for CountingStream<T> {
    fn poll_read(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut ReadBuf<'_>,
    ) -> Poll<std::io::Result<()>> {
        let before = buf.filled().len();
        let res = Pin::new(&mut self.inner).poll_read(cx, buf);
        if let Poll::Ready(Ok(())) = res {
            let n = buf.filled().len() - before;
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }

    fn poll_read_shared(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        max: usize,
        copied: &mut Vec<u8>,
        out: &mut Vec<Bytes>,
    ) -> Poll<std::io::Result<usize>> {
        let res = Pin::new(&mut self.inner).poll_read_shared(cx, max, copied, out);
        if let Poll::Ready(Ok(n)) = res {
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }
}

impl<T: AsyncWrite + Unpin> AsyncWrite for CountingStream<T> {
    fn poll_write(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<std::io::Result<usize>> {
        let res = Pin::new(&mut self.inner).poll_write(cx, buf);
        if let Poll::Ready(Ok(n)) = res {
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }
    fn poll_write_shared(
        mut self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        head: &[u8],
        body: &Bytes,
    ) -> Poll<std::io::Result<usize>> {
        let res = Pin::new(&mut self.inner).poll_write_shared(cx, head, body);
        if let Poll::Ready(Ok(n)) = res {
            self.counter.fetch_add(n as u64, Ordering::Relaxed);
        }
        res
    }
    fn poll_flush(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_flush(cx)
    }
    fn poll_shutdown(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<std::io::Result<()>> {
        Pin::new(&mut self.inner).poll_shutdown(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceProxy;
    use crate::origin::OriginServer;
    use crate::throttle::RateLimit;
    use threegol_sched::{Command, PlayoutAware};

    async fn setup(adsl_bps: f64, phone_bps: Vec<f64>) -> (ThreegolClient, Arc<OriginServer>) {
        let origin = Arc::new(OriginServer::small_for_tests());
        let (origin_addr, _h) = origin.clone().spawn("127.0.0.1:0").await.unwrap();
        let mut paths = vec![PathTarget::SharedGateway {
            origin: origin_addr,
            down: SharedRateLimit::from(RateLimit { rate_bps: adsl_bps, burst_bytes: 8192.0 }),
            up: SharedRateLimit::from(RateLimit { rate_bps: adsl_bps / 4.0, burst_bytes: 8192.0 }),
        }];
        for (i, bps) in phone_bps.into_iter().enumerate() {
            let device = Arc::new(DeviceProxy::new(
                format!("phone-{i}"),
                origin_addr,
                RateLimit { rate_bps: bps, burst_bytes: 8192.0 },
                RateLimit { rate_bps: bps, burst_bytes: 8192.0 },
                1e9,
            ));
            let (lan_addr, _h2) = device.clone().spawn("127.0.0.1:0").await.unwrap();
            paths.push(PathTarget::Device { addr: lan_addr });
        }
        (ThreegolClient::new(paths), origin)
    }

    #[tokio::test]
    async fn hls_fetch_end_to_end() {
        let (client, _origin) = setup(4e6, vec![4e6]).await;
        let (playlist, bodies, report) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
        assert_eq!(playlist.entries.len(), 5); // 10 s / 2 s segments
        assert_eq!(bodies.len(), 5);
        // 64 kbps × 2 s / 8 = 16 kB per segment.
        assert!(bodies.iter().all(|b| b.len() == 16_000));
        assert!(report.item_secs.iter().all(|t| t.is_finite()));
        // Both paths moved bytes.
        assert!(report.bytes_per_path[0] > 0.0);
    }

    #[tokio::test]
    async fn multipath_beats_single_path() {
        // 8 probe fetches over 1.6 Mbit/s ADSL alone vs ADSL + two
        // 1.6 Mbit/s phones.
        let targets: Vec<Arc<str>> = (0..6).map(|_| Arc::from("/probe.bin")).collect();
        let (single, _o1) = setup(1.6e6, vec![]).await;
        let t0 = Instant::now();
        let (_, r1) = single.fetch(targets.clone()).await.unwrap();
        let solo = t0.elapsed().as_secs_f64();
        assert!(r1.bytes_per_path.len() == 1);

        let (multi, _o2) = setup(1.6e6, vec![1.6e6, 1.6e6]).await;
        let t0 = Instant::now();
        let (bodies, r2) = multi.fetch(targets).await.unwrap();
        let gol = t0.elapsed().as_secs_f64();
        assert!(bodies.iter().all(|b| b.len() == 64_000));
        assert!(gol < solo * 0.75, "3GOL {gol:.2}s vs ADSL {solo:.2}s (report {r2:?})");
    }

    #[tokio::test]
    async fn upload_photos_arrive_intact() {
        // The gateway uplink (adsl/4 = 250 kbit/s) is far slower than
        // the phone, so when the greedy scheduler duplicates the
        // gateway's photo onto the phone, the duplicate wins by a wide
        // margin and the abort truncates the original well before the
        // origin commits it — each photo is recorded exactly once.
        let (client, origin) = setup(1e6, vec![8e6]).await;
        let photos: Vec<(String, Bytes)> = (0..4)
            .map(|i| (format!("IMG_{i:04}.jpg"), Bytes::from(vec![i as u8; 20_000])))
            .collect();
        let report = client.upload_photos(photos).await.unwrap();
        assert_eq!(report.item_secs.len(), 4);
        let ups = origin.uploads();
        assert_eq!(ups.len(), 4);
        let mut names: Vec<String> = ups.iter().flat_map(|u| u.filenames.clone()).collect();
        names.sort();
        assert_eq!(names, vec!["IMG_0000.jpg", "IMG_0001.jpg", "IMG_0002.jpg", "IMG_0003.jpg"]);
        assert!(ups.iter().all(|u| u.total_bytes == 20_000));
    }

    #[tokio::test]
    async fn missing_asset_fails_cleanly() {
        let (client, _origin) = setup(8e6, vec![]).await;
        let err = client.fetch(vec!["/does-not-exist".into()]).await.unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");
    }

    #[tokio::test]
    async fn greedy_duplicates_tail_on_slow_path() {
        // One very slow phone: the gateway should duplicate-and-abort.
        let (client, _origin) = setup(8e6, vec![64_000.0]).await;
        let targets: Vec<Arc<str>> = (0..3).map(|_| Arc::from("/probe.bin")).collect();
        let (bodies, report) = client.fetch(targets).await.unwrap();
        assert!(bodies.iter().all(|b| b.len() == 64_000));
        assert!(report.aborts >= 1, "{report:?}");
    }

    /// Greedy, remembering the payload each completion reported.
    struct Recording {
        greedy: Greedy,
        heard: Vec<(usize, f64)>,
    }

    impl MultipathScheduler for Recording {
        fn start(&mut self) -> Vec<Command> {
            self.greedy.start()
        }
        fn on_complete(
            &mut self,
            path: usize,
            item: usize,
            now: f64,
            bytes: f64,
            elapsed: f64,
        ) -> Vec<Command> {
            self.heard.push((item, bytes));
            self.greedy.on_complete(path, item, now, bytes, elapsed)
        }
        fn on_failed(&mut self, path: usize, item: usize, now: f64) -> Vec<Command> {
            self.greedy.on_failed(path, item, now)
        }
        fn is_done(&self) -> bool {
            self.greedy.is_done()
        }
        fn name(&self) -> &'static str {
            "REC"
        }
    }

    #[tokio::test]
    async fn the_scheduler_hears_each_photos_length() {
        let (client, _origin) = setup(1e6, vec![8e6]).await;
        let sizes = [10_000, 20_000, 30_000];
        let jobs: Vec<Job> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| Job::Upload {
                filename: format!("IMG_{i}.jpg"),
                data: vec![7; n].into(),
            })
            .collect();
        let spec = TransactionSpec::new(sizes.iter().map(|&n| n as f64).collect(), 2);
        let mut sched = Recording { greedy: Greedy::new(spec), heard: Vec::new() };
        client.drive(jobs, &mut sched, &mut |_, _| {}).await.unwrap();
        sched.heard.sort_by_key(|&(item, _)| item);
        assert_eq!(sched.heard, vec![(0, 10_000.0), (1, 20_000.0), (2, 30_000.0)]);
    }

    #[tokio::test]
    async fn a_tick_driven_policy_runs_live() {
        // After two pre-buffer segments, each segment waits for its
        // playout window to open (deadline minus horizon): the paths
        // idle in between and only the scheduler's ticks wake them.
        let (client, _origin) = setup(8e6, vec![8e6]).await;
        let (n, horizon) = (6, 0.5);
        let deadlines = PlayoutAware::vod_deadlines(n, 2.0, 2, 1.0);
        let spec = TransactionSpec::uniform(n, 2, 64_000.0);
        let mut sched = PlayoutAware::new(spec, deadlines.clone(), horizon);
        let jobs = (0..n).map(|_| Job::Fetch(Arc::from("/probe.bin"))).collect();
        let (bodies, report) = client.drive(jobs, &mut sched, &mut |_, _| {}).await.unwrap();
        assert!(bodies.iter().all(|b| b.len() == 64_000));
        for (i, (&landed, &due)) in report.item_secs.iter().zip(&deadlines).enumerate().skip(2) {
            let opens = due - horizon;
            assert!(landed >= opens, "segment {i} landed at {landed} s, window opens at {opens} s");
        }
        assert!(report.total_secs > deadlines[n - 1] - horizon, "{report:?}");
    }
}
