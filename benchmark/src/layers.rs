//! The traced per-layer run.
//!
//! Each per-layer metric times calls into one layer's public functions
//! from here, over fixed seeded inputs, and records each timed call as
//! a span. The program itself carries no tracing. Metrics marked
//! exact are work counts or ratios of them: they must repeat exactly for
//! a given seed and commit.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use threegol_bench::fleet::{home_spec, scenario_spec, FleetDigest};
use threegol_bench::{fold, registry, DynExperiment, Pool, Scale};
use threegol_caps::{AllowanceEstimator, LiveAllowance};
use threegol_hls::VideoQuality;
use threegol_http::codec::{Body, HttpStream};
use threegol_http::multipart::{encode_multipart, parse_multipart, Part};
use threegol_http::{HttpError, Request, Response};
use threegol_proxy::{
    CapacitySource, DeviceProxy, Discovery, HlsProxy, Home, HomeNet, HomeReport, HomeSpec,
    OriginServer, PathTarget, RateLimit, SharedRateLimit, ThreegolClient, ThrottledStream,
};
use threegol_sched::toy::ToyExecutor;
use threegol_sched::{build, Policy, TransactionSpec};
use threegol_simnet::capacity::DiurnalProfile;
use threegol_simnet::fairshare::{max_min_fair_into, FairShareScratch, FlowDemand, FlowTable};
use threegol_simnet::{CapacityProcess, SimEvent, SimTime, Simulation};
use threegol_traces::{device_free_history, home_day, ScenarioConfig};
use tokio::io::{AsyncReadExt, AsyncWrite, AsyncWriteExt};
use tokio::net::{NetStats, TcpListener, TcpStream};
use tokio::runtime::Runtime;

use crate::fleet_cli::pinned_digest;
use crate::relay::{BOUNDARY, PHOTO_BYTES, PLAYLIST};
use crate::stats::{percentile, Timing};
use crate::sweep;
use crate::trace::Tracer;
use crate::workloads::{seeded_bytes, SplitMix, WORKERS};

/// Paper-default homes in the traced home loop.
const HOMES: u32 = 1000;
/// Traced scenario homes, each living [`SCENARIO_DAYS`].
const SCENARIO_HOMES: u32 = 100;
const SCENARIO_DAYS: u16 = 35;
/// Batches per micro-benchmark: enough for a p66 with ten beyond it.
const BATCHES: usize = 30;
/// Full registry sweeps timed per experiment.
const SWEEPS: usize = 3;
const MB: f64 = 1e6;

/// One per-layer metric's result.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// The name `BENCHMARK.json` lists.
    pub name: String,
    /// Unit of `value`.
    pub unit: &'static str,
    /// The reported value (a timing's p50).
    pub value: f64,
    /// The timing's summary, for timed metrics.
    pub timing: Option<Timing>,
    /// A count that must repeat exactly.
    pub exact: bool,
}

/// What the traced run measured and checked.
pub struct LayerRun {
    seed: u64,
    /// Every span recorded.
    pub tracer: Tracer,
    /// Every per-layer metric, in report order.
    pub metrics: Vec<LayerMetric>,
    /// Homes, requests, transactions and experiments attempted.
    pub attempted: u64,
    /// How many of those failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Output digests, equal across runs with one seed.
    pub digests: Vec<(&'static str, String)>,
    rt: Runtime,
}

/// A measured window of `ops` operations.
struct Window {
    start: Instant,
    end: Instant,
    ops: f64,
}

impl Window {
    fn secs_per_op(&self) -> f64 {
        (self.end - self.start).as_secs_f64() / self.ops
    }

    fn ops_per_sec(&self) -> f64 {
        self.ops / (self.end - self.start).as_secs_f64()
    }
}

/// Run `f` and return the window around it.
fn window(ops: f64, f: impl FnOnce()) -> Window {
    let start = Instant::now();
    f();
    Window { start, end: Instant::now(), ops }
}

async fn run_home(spec: &HomeSpec) -> (Result<HomeReport, HttpError>, NetStats) {
    let report = Home::run(spec).await;
    (report, tokio::net::stats())
}

/// The fleet's virtual-net event count for one home's stats.
fn net_events(s: &NetStats) -> u64 {
    s.tcp_binds + s.tcp_connects + s.udp_binds + s.datagrams
}

/// A paper-default home's origin and paths, brought up on its own
/// corner of the virtual net.
struct Rig {
    spec: HomeSpec,
    origin: Arc<OriginServer>,
    paths: Vec<PathTarget>,
    wifi: SharedRateLimit,
}

async fn rig(index: u32) -> std::io::Result<Rig> {
    let spec = HomeSpec::paper_default(index);
    let net = HomeNet::new(index as u16);
    let ladder = [VideoQuality::new("Q1", spec.video_bps)];
    let origin = Arc::new(OriginServer::new(&ladder, spec.video_secs, spec.segment_secs));
    let (origin_addr, _) = origin.clone().spawn(&net.origin().to_string()).await?;
    let mut paths = vec![PathTarget::SharedGateway {
        origin: origin_addr,
        down: SharedRateLimit::from_bps(spec.adsl_down_bps as u64),
        up: SharedRateLimit::from_bps(spec.adsl_up_bps as u64),
    }];
    let (g3_down, g3_up) = spec.g3.phone_limits(spec.hour as f64);
    for i in 0..spec.devices {
        let device = Arc::new(DeviceProxy::new(
            format!("home{index}-phone-{i}"),
            origin_addr,
            g3_down,
            g3_up,
            spec.allowance_bytes,
        ));
        let (lan, _) = device.spawn(&net.device(i).to_string()).await?;
        paths.push(PathTarget::Device { addr: lan });
    }
    let wifi = SharedRateLimit::from_bps(spec.wifi_bps as u64);
    Ok(Rig { spec, origin, paths, wifi })
}

/// A home's bring-up: the rig plus discovery and the HLS proxy.
async fn bring_up_home(index: u32) -> std::io::Result<(Rig, Discovery, SocketAddr)> {
    let r = rig(index).await?;
    let net = HomeNet::new(index as u16);
    let discovery = Discovery::bind(&net.discovery().to_string()).await?;
    let client = ThreegolClient::new(r.paths.clone()).with_wifi(r.wifi.clone());
    let (proxy, _) = Arc::new(HlsProxy::new(client)).spawn(&net.client_proxy().to_string()).await?;
    Ok((r, discovery, proxy))
}

/// A sink that counts and discards what is written to it.
struct Discard(u64);

impl AsyncWrite for Discard {
    fn poll_write(
        mut self: std::pin::Pin<&mut Self>,
        _: &mut std::task::Context<'_>,
        buf: &[u8],
    ) -> std::task::Poll<std::io::Result<usize>> {
        self.0 += buf.len() as u64;
        std::task::Poll::Ready(Ok(buf.len()))
    }

    fn poll_flush(
        self: std::pin::Pin<&mut Self>,
        _: &mut std::task::Context<'_>,
    ) -> std::task::Poll<std::io::Result<()>> {
        std::task::Poll::Ready(Ok(()))
    }

    fn poll_shutdown(
        self: std::pin::Pin<&mut Self>,
        _: &mut std::task::Context<'_>,
    ) -> std::task::Poll<std::io::Result<()>> {
        std::task::Poll::Ready(Ok(()))
    }
}

/// Read `n` bytes from `from` and drop them. Reads ask for no more than
/// what is still due, so a throttled reader never waits for tokens to
/// cover bytes that will not come.
async fn drain(from: &mut (impl AsyncReadExt + Unpin), n: usize) -> std::io::Result<usize> {
    let mut buf = vec![0u8; 64 * 1024];
    let mut got = 0;
    while got < n {
        let want = buf.len().min(n - got);
        match from.read(&mut buf[..want]).await? {
            0 => break,
            k => got += k,
        }
    }
    Ok(got)
}

/// Write `n` bytes into `to` in 16 KiB writes.
async fn fill(to: &mut (impl AsyncWriteExt + Unpin), n: usize) -> std::io::Result<()> {
    let chunk = [0x5a_u8; 16 * 1024];
    let mut sent = 0;
    while sent < n {
        let k = chunk.len().min(n - sent);
        to.write_all(&chunk[..k]).await?;
        sent += k;
    }
    Ok(())
}

impl LayerRun {
    /// Run every layer's measurements at `seed`, checking outputs
    /// against the checked-out `experiments_md`.
    pub fn run(seed: u64, experiments_md: &str) -> Result<LayerRun, String> {
        let fleet_pin = pinned_digest(experiments_md, "fleet")
            .ok_or("EXPERIMENTS.md has no digest in its `## fleet` section")?;
        let mut run = LayerRun {
            seed,
            tracer: Tracer::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digests: Vec::new(),
            rt: Runtime::new(),
        };
        let reports = run.home_loop(fleet_pin);
        run.runtime();
        run.http();
        run.throttle();
        run.home_setup();
        run.origin();
        run.client();
        run.sched();
        run.scenario_loop();
        run.scenario_generators();
        run.fleet_merge(&reports);
        run.exec();
        run.simnet();
        run.experiments(experiments_md);
        Ok(run)
    }

    /// Count `items` (at least one: a check is itself attempted) as
    /// attempted, and as failed unless `ok`.
    fn check(&mut self, items: u64, ok: bool, why: impl FnOnce() -> String) {
        let items = items.max(1);
        self.attempted += items;
        if !ok {
            self.failed += items;
            self.problems.push(why());
        }
    }

    fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let timing = Timing::of(samples);
        self.metrics.push(LayerMetric {
            name: name.to_string(),
            unit,
            value: timing.p50,
            timing: Some(timing),
            exact: false,
        });
    }

    fn value(&mut self, name: &str, unit: &'static str, value: f64, exact: bool) {
        self.metrics.push(LayerMetric { name: name.to_string(), unit, value, timing: None, exact });
    }

    /// Time [`BATCHES`] windows, each a span named `span`.
    fn batches(
        &mut self,
        span: &'static str,
        mut batch: impl FnMut(&mut Runtime, usize) -> Window,
    ) -> Vec<Window> {
        (0..BATCHES)
            .map(|i| {
                let w = batch(&mut self.rt, i);
                self.tracer.record(span, w.start, w.end);
                w
            })
            .collect()
    }

    /// Time per-op costs in `scale` units per second (1e9 for ns).
    fn per_op(&mut self, name: &str, unit: &'static str, scale: f64, windows: &[Window]) {
        let samples: Vec<f64> = windows.iter().map(|w| w.secs_per_op() * scale).collect();
        self.timing(name, unit, &samples);
    }

    fn rate(&mut self, name: &str, unit: &'static str, windows: &[Window]) {
        let samples: Vec<f64> = windows.iter().map(Window::ops_per_sec).collect();
        self.timing(name, unit, &samples);
    }

    /// The paper-default street, one home at a time on one reused
    /// runtime: each home runs once traced (`home` ⊃ `tokio.reset`,
    /// `home.run`, `fleet.observe`) and once plain, alternating which
    /// goes first, so the difference prices the spans themselves.
    /// Returns the first 64 reports.
    fn home_loop(&mut self, fleet_pin: u64) -> Vec<HomeReport> {
        let mut rt = Runtime::new();
        let (mut traced_digest, mut plain_digest) = (FleetDigest::empty(), FleetDigest::empty());
        let (mut traced_ns, mut plain_ns) = (0u128, 0u128);
        let (mut events, mut datagrams, mut connects) = (0u64, 0u64, 0u64);
        let mut kept = Vec::new();
        for i in 0..HOMES {
            let spec = home_spec(i);
            for traced in [i % 2 == 1, i % 2 == 0] {
                let start = Instant::now();
                let (report, stats) = if traced {
                    self.tracer.span("home", |t| {
                        t.span("tokio.reset", |_| rt.reset());
                        let out = t.span("home.run", |_| rt.block_on(run_home(&spec)));
                        if let Ok(r) = &out.0 {
                            t.span("fleet.observe", |_| traced_digest.observe(r));
                        }
                        out
                    })
                } else {
                    rt.reset();
                    let out = rt.block_on(run_home(&spec));
                    if let Ok(r) = &out.0 {
                        plain_digest.observe(r);
                    }
                    out
                };
                let ns = start.elapsed().as_nanos();
                if !traced {
                    plain_ns += ns;
                    continue;
                }
                traced_ns += ns;
                events += net_events(&stats);
                datagrams += stats.datagrams;
                connects += stats.tcp_connects;
                let failure = report.as_ref().err().map(|e| format!("home {i} failed: {e}"));
                self.check(1, failure.is_none(), || failure.unwrap_or_default());
                if let (Ok(r), true) = (&report, kept.len() < 64) {
                    kept.push(*r);
                }
            }
            if i + 1 == 200 {
                let d = traced_digest.digest();
                self.check(0, d == fleet_pin, || {
                    format!("homes 0..200 digest {d:016x}; EXPERIMENTS.md pins {fleet_pin:016x}")
                });
            }
        }
        let (t, p) = (traced_digest.digest(), plain_digest.digest());
        self.check(0, t == p, || format!("traced digest {t:016x} != plain digest {p:016x}"));
        self.digests.push(("home_loop", format!("{t:016x}")));

        let homes = HOMES as f64;
        let reset = self.tracer.durations_us("tokio.reset");
        self.timing("tokio.reset_us", "us", &reset);
        self.value("tokio.net_events_per_home", "count", events as f64 / homes, true);
        self.value("tokio.datagrams_per_home", "count", datagrams as f64 / homes, true);
        self.value("tokio.tcp_connects_per_home", "count", connects as f64 / homes, true);
        let mut run_us = self.tracer.durations_us("home.run");
        self.timing("home.run_us.p50", "us", &run_us);
        run_us.sort_by(f64::total_cmp);
        self.value("home.run_us.p99", "us", percentile(&run_us, 99), false);
        let observe: Vec<f64> =
            self.tracer.durations_us("fleet.observe").iter().map(|us| us * 1e3).collect();
        self.timing("fleet.observe_ns", "ns", &observe);
        self.value("trace.overhead_frac", "ratio", traced_ns as f64 / plain_ns as f64 - 1.0, false);
        kept
    }

    /// The vendored runtime's timers, wakes, pipes and connects.
    fn runtime(&mut self) {
        let seed = self.seed;
        const TASKS: u64 = 256;
        const SLEEPS: u64 = 1000;
        let w = self.batches("tokio.sleep", |rt, b| {
            rt.reset();
            rt.block_on(async move {
                let start = Instant::now();
                let tasks: Vec<_> = (0..TASKS)
                    .map(|task| {
                        let mut rng = SplitMix::derive(seed, ((b as u64) << 32) | task);
                        tokio::spawn(async move {
                            for _ in 0..SLEEPS {
                                let us = 1 + rng.next_u64() % 1000;
                                tokio::time::sleep(Duration::from_micros(us)).await;
                            }
                        })
                    })
                    .collect();
                for t in tasks {
                    let _ = t.await;
                }
                Window { start, end: Instant::now(), ops: (TASKS * SLEEPS) as f64 }
            })
        });
        self.per_op("tokio.sleep_ns", "ns", 1e9, &w);

        const PINGS: u64 = 10_000;
        let w = self.batches("tokio.wake", |rt, _| {
            rt.reset();
            rt.block_on(async {
                let (to_echo, mut echo_rx) = tokio::sync::mpsc::unbounded_channel::<u64>();
                let (to_main, mut main_rx) = tokio::sync::mpsc::unbounded_channel::<u64>();
                let echo = tokio::spawn(async move {
                    while let Some(v) = echo_rx.recv().await {
                        if to_main.send(v + 1).is_err() {
                            break;
                        }
                    }
                });
                let start = Instant::now();
                for i in 0..PINGS {
                    let _ = to_echo.send(i);
                    black_box(main_rx.recv().await);
                }
                let end = Instant::now();
                drop(to_echo);
                let _ = echo.await;
                Window { start, end, ops: (2 * PINGS) as f64 }
            })
        });
        self.per_op("tokio.wake_ns", "ns", 1e9, &w);

        const PIPE_BYTES: usize = 64 * 1024 * 1024;
        let mut moved = Vec::new();
        let w = self.batches("tokio.pipe", |rt, _| {
            rt.reset();
            let (w, got) = rt.block_on(async {
                let (mut tx, mut rx) = tokio::io::duplex(64 * 1024);
                let start = Instant::now();
                let writer = tokio::spawn(async move { fill(&mut tx, PIPE_BYTES).await });
                let got = drain(&mut rx, PIPE_BYTES).await.unwrap_or(0);
                let end = Instant::now();
                let _ = writer.await;
                (Window { start, end, ops: PIPE_BYTES as f64 / MB }, got)
            });
            moved.push(got);
            w
        });
        self.check(0, moved.iter().all(|&n| n == PIPE_BYTES), || "duplex lost bytes".into());
        self.rate("tokio.pipe_mb_per_s", "MB/s", &w);

        const CONNECTS: u64 = 1000;
        let mut failures = 0;
        let w = self.batches("tokio.connect", |rt, _| {
            rt.reset();
            let w = rt.block_on(async {
                let listener = TcpListener::bind("10.77.0.1:9000").await?;
                let addr = listener.local_addr()?;
                let start = Instant::now();
                for _ in 0..CONNECTS {
                    let client = TcpStream::connect(addr).await?;
                    let (server, _) = listener.accept().await?;
                    drop((client, server));
                }
                Ok::<_, std::io::Error>(Window { start, end: Instant::now(), ops: CONNECTS as f64 })
            });
            w.unwrap_or_else(|_| {
                failures += 1;
                Window { start: Instant::now(), end: Instant::now(), ops: 1.0 }
            })
        });
        self.check(0, failures == 0, || format!("{failures} connect batches failed"));
        self.per_op("tokio.connect_us", "us", 1e6, &w);
    }

    /// The HTTP codec over in-memory pipes: heads, bodies, multipart.
    fn http(&mut self) {
        const HEADS: u64 = 20_000;
        let mut failures = 0;
        let w = self.batches("http.head", |rt, _| {
            rt.reset();
            let w = rt.block_on(async {
                let (a, b) = tokio::io::duplex(64 * 1024);
                let (mut client, mut server) = (HttpStream::new(a), HttpStream::new(b));
                let req = Request::get(PLAYLIST);
                let start = Instant::now();
                for _ in 0..HEADS {
                    client.write_request(&req).await?;
                    match server.read_request_head().await? {
                        Some((head, Body::Full(body))) if body.is_empty() => black_box(head),
                        _ => return Err(HttpError::Malformed("GET lost its head".into())),
                    };
                }
                Ok(Window { start, end: Instant::now(), ops: HEADS as f64 })
            });
            w.unwrap_or_else(|_| {
                failures += 1;
                window(1.0, || ())
            })
        });
        self.per_op("http.head_ns", "ns", 1e9, &w);

        const BODY_BYTES: usize = 2_000_000;
        const BODIES: usize = 8;
        let body = seeded_bytes(self.seed, BODY_BYTES);
        let w = self.batches("http.body", |rt, _| {
            rt.reset();
            let body = body.clone();
            let w = rt.block_on(async move {
                let (a, b) = tokio::io::duplex(64 * 1024);
                let mut client = HttpStream::new(a);
                let resp = Response::ok("application/octet-stream", body);
                let start = Instant::now();
                let server = tokio::spawn(async move {
                    let mut server = HttpStream::new(b);
                    for _ in 0..BODIES {
                        server.write_response(&resp).await?;
                    }
                    Ok::<_, HttpError>(())
                });
                let mut sink = Discard(0);
                for _ in 0..BODIES {
                    let (head, body) = client.read_response_head().await?;
                    let n = client.pipe_body(body, &mut sink).await?;
                    if head.status != 200 || n != BODY_BYTES as u64 {
                        return Err(HttpError::Malformed("short body".into()));
                    }
                }
                let end = Instant::now();
                let _ = server.await;
                Ok(Window { start, end, ops: sink.0 as f64 / MB })
            });
            w.unwrap_or_else(|_| {
                failures += 1;
                window(1.0, || ())
            })
        });
        self.rate("http.body_mb_per_s", "MB/s", &w);
        self.check(0, failures == 0, || format!("{failures} codec batches failed"));

        const PARTS: usize = 40;
        let photo = seeded_bytes(self.seed, PHOTO_BYTES);
        let part = Part::photo("file", "IMG_00000000.jpg", photo.clone());
        let mb = PARTS as f64 * photo.len() as f64 / MB;
        let w = self.batches("http.multipart_encode", |_, _| {
            window(mb, || {
                for _ in 0..PARTS {
                    black_box(encode_multipart(std::slice::from_ref(black_box(&part)), BOUNDARY));
                }
            })
        });
        self.rate("http.multipart_encode_mb_per_s", "MB/s", &w);
        let encoded = encode_multipart(std::slice::from_ref(&part), BOUNDARY);
        let round_trip =
            parse_multipart(&encoded, BOUNDARY).is_ok_and(|p| p.len() == 1 && p[0].data == photo);
        self.check(1, round_trip, || "multipart round trip changed the photo".into());
        let w = self.batches("http.multipart_parse", |_, _| {
            window(mb, || {
                for _ in 0..PARTS {
                    let _ = black_box(parse_multipart(black_box(&encoded), BOUNDARY));
                }
            })
        });
        self.rate("http.multipart_parse_mb_per_s", "MB/s", &w);
    }

    /// Token-bucket throttling in virtual time. Each batch also checks
    /// the virtual time a transfer took against the rate: a bucket that
    /// starts full passes its burst at once and the rest at the rate.
    fn throttle(&mut self) {
        const BYTES: usize = 4_000_000;
        const RATE_BPS: f64 = 1e6;
        let limit = RateLimit::new(RATE_BPS);
        // One stream, 4 MB written then 4 MB read through it.
        let mut worst: f64 = 0.0;
        let w = self.batches("throttle.stream", |rt, _| {
            rt.reset();
            let (w, virtual_s) = rt.block_on(async move {
                let (a, mut peer) = tokio::io::duplex(64 * 1024);
                let mut stream = ThrottledStream::new(a, limit, limit);
                let v0 = tokio::time::Instant::now();
                let start = Instant::now();
                let echo = tokio::spawn(async move {
                    drain(&mut peer, BYTES).await?;
                    fill(&mut peer, BYTES).await
                });
                let ok = fill(&mut stream, BYTES).await.is_ok()
                    && drain(&mut stream, BYTES).await.is_ok_and(|n| n == BYTES);
                let end = Instant::now();
                let _ = echo.await;
                let virtual_s = if ok { v0.elapsed().as_secs_f64() } else { f64::NAN };
                (Window { start, end, ops: 2.0 * BYTES as f64 / MB }, virtual_s)
            });
            let expected = 2.0 * (BYTES as f64 - limit.burst_bytes) * 8.0 / RATE_BPS;
            // A failed transfer reports NaN, which `f64::max` would drop.
            let off = (virtual_s / expected - 1.0).abs();
            worst = if off.is_nan() { f64::INFINITY } else { worst.max(off) };
            w
        });
        self.check(BATCHES as u64, worst <= 1e-3, || {
            format!("throttled stream took virtual time off by {worst:.2e} of bytes*8/rate")
        });
        self.per_op("throttle.us_per_mb", "us/MB", 1e6, &w);

        // Three streams writing through one shared bucket.
        const EACH: usize = 1_500_000;
        let mut worst: f64 = 0.0;
        let w = self.batches("throttle.shared", |rt, _| {
            rt.reset();
            let (w, virtual_s) = rt.block_on(async move {
                let shared = SharedRateLimit::from(limit);
                let v0 = tokio::time::Instant::now();
                let start = Instant::now();
                let mut tasks = Vec::new();
                for _ in 0..3 {
                    let (a, mut peer) = tokio::io::duplex(64 * 1024);
                    let mut stream = ThrottledStream::with_shared(
                        a,
                        SharedRateLimit::unlimited(),
                        shared.clone(),
                    );
                    tasks.push(tokio::spawn(async move { fill(&mut stream, EACH).await.is_ok() }));
                    tasks.push(tokio::spawn(async move {
                        drain(&mut peer, EACH).await.is_ok_and(|n| n == EACH)
                    }));
                }
                let mut ok = true;
                for t in tasks {
                    ok &= t.await.unwrap_or(false);
                }
                let end = Instant::now();
                let virtual_s = if ok { v0.elapsed().as_secs_f64() } else { f64::NAN };
                (Window { start, end, ops: 3.0 * EACH as f64 / MB }, virtual_s)
            });
            let expected = (3.0 * EACH as f64 - limit.burst_bytes) * 8.0 / RATE_BPS;
            // A failed transfer reports NaN, which `f64::max` would drop.
            let off = (virtual_s / expected - 1.0).abs();
            worst = if off.is_nan() { f64::INFINITY } else { worst.max(off) };
            w
        });
        self.check(BATCHES as u64, worst <= 1e-3, || {
            format!("shared bucket took virtual time off by {worst:.2e} of bytes*8/rate")
        });
        self.per_op("throttle.shared_us_per_mb", "us/MB", 1e6, &w);
    }

    /// A home's bring-up alone: origin, two device proxies, discovery
    /// and the HLS proxy, in a reset runtime.
    fn home_setup(&mut self) {
        const RUNS: u32 = 300;
        for i in 0..RUNS {
            self.rt.reset();
            let w = self.rt.block_on(async move {
                let start = Instant::now();
                bring_up_home(i).await.map(|_up| (start, Instant::now()))
            });
            match w {
                Ok((start, end)) => {
                    self.tracer.record("home.setup", start, end);
                    self.check(1, true, String::new);
                }
                Err(e) => self.check(1, false, || format!("home {i} bring-up failed: {e}")),
            }
        }
        let d = self.tracer.durations_us("home.setup");
        self.timing("home.setup_us", "us", &d);
    }

    /// The origin's router on the smallest request.
    fn origin(&mut self) {
        const CALLS: u64 = 20_000;
        let spec = HomeSpec::paper_default(0);
        let origin = OriginServer::new(
            &[VideoQuality::new("Q1", spec.video_bps)],
            spec.video_secs,
            spec.segment_secs,
        );
        let req = Request::get(PLAYLIST);
        let w = self.batches("origin.handle", |_, _| {
            window(CALLS as f64, || {
                for _ in 0..CALLS {
                    black_box(origin.handle(black_box(&req)));
                }
            })
        });
        self.per_op("origin.handle_ns", "ns", 1e9, &w);
    }

    /// The client component over a shared-gateway path and two device
    /// paths at paper-default rates: a 3 × 100 kB photo upload, then an
    /// HLS fetch of the paper-default video.
    fn client(&mut self) {
        const RUNS: u32 = 100;
        let photos: Vec<(String, Bytes)> = (0..3)
            .map(|i| (format!("IMG_{i:04}.jpg"), seeded_bytes(self.seed ^ i, 100_000)))
            .collect();
        let (mut starts, mut items) = (0usize, 0usize);
        let (mut wasted, mut moved) = (0.0, 0.0);
        for i in 0..RUNS {
            let photos = photos.clone();
            let names: Vec<String> = photos.iter().map(|(n, _)| n.clone()).collect();
            let rt = &mut self.rt;
            rt.reset();
            let out = self.tracer.span("client", |t| {
                let out = rt.block_on(async move {
                    let r = rig(i).await?;
                    let client = ThreegolClient::new(r.paths).with_wifi(r.wifi);
                    let t0 = Instant::now();
                    let up = client.upload_photos(photos).await?;
                    let t1 = Instant::now();
                    let (_, bodies, vod) = client.fetch_hls(PLAYLIST).await?;
                    let t2 = Instant::now();
                    let segment = (r.spec.video_bps * r.spec.segment_secs / 8.0) as usize;
                    let segments = (r.spec.video_secs / r.spec.segment_secs).round() as usize;
                    let fetched =
                        bodies.len() == segments && bodies.iter().all(|b| b.len() == segment);
                    let uploads = r.origin.uploads();
                    let committed =
                        names.iter().all(|n| uploads.iter().any(|u| u.filenames.contains(n)));
                    Ok::<_, HttpError>(((t0, t1, t2), up, vod, fetched && committed))
                });
                if let Ok(((t0, t1, t2), ..)) = &out {
                    t.record("client.upload", *t0, *t1);
                    t.record("client.vod", *t1, *t2);
                }
                out
            });
            match out {
                Ok((_, up, vod, ok)) => {
                    self.check(1, ok, || format!("client run {i}: wrong segments or lost photos"));
                    for r in [&up, &vod] {
                        starts += r.starts;
                        items += r.item_secs.len();
                        wasted += r.wasted_bytes;
                        moved += r.bytes_per_path.iter().sum::<f64>();
                    }
                }
                Err(e) => self.check(1, false, || format!("client run {i} failed: {e}")),
            }
        }
        let ms = |us: Vec<f64>| us.iter().map(|v| v / 1e3).collect::<Vec<f64>>();
        let up = ms(self.tracer.durations_us("client.upload"));
        self.timing("client.upload_ms", "ms", &up);
        let vod = ms(self.tracer.durations_us("client.vod"));
        self.timing("client.vod_ms", "ms", &vod);
        self.value("client.starts_per_item", "count", starts as f64 / items.max(1) as f64, true);
        self.value("client.wasted_frac", "ratio", wasted / moved.max(1.0), true);
    }

    /// The greedy scheduler driven by the toy executor on seeded
    /// item sizes and path-rate scripts.
    fn sched(&mut self) {
        const TRANSACTIONS: usize = 200;
        let seed = self.seed;
        let w = self.batches("sched.transactions", |_, b| {
            let mut rng = SplitMix::derive(seed, 0x5c4e_d000 + b as u64);
            let inputs: Vec<(Vec<f64>, Vec<Vec<f64>>)> = (0..TRANSACTIONS)
                .map(|_| {
                    let sizes = (0..20).map(|_| rng.uniform(5e4, 1e6)).collect();
                    let script =
                        (0..3).map(|_| (0..6).map(|_| rng.uniform(5e5, 4e6)).collect()).collect();
                    (sizes, script)
                })
                .collect();
            let start = Instant::now();
            let mut commands = 0;
            for (sizes, script) in &inputs {
                let mut sched = build(Policy::Greedy, TransactionSpec::new(sizes.clone(), 3));
                let r = ToyExecutor::new(script.clone()).run(sched.as_mut(), sizes);
                commands += r.starts + r.aborts;
            }
            Window { start, end: Instant::now(), ops: commands as f64 }
        });
        self.per_op("sched.command_ns", "ns", 1e9, &w);
    }

    /// Traced scenario homes living a month of days each, one at a time.
    fn scenario_loop(&mut self) {
        let mut digest = FleetDigest::empty();
        let (mut sessions, mut adsl_only, mut events) = (0u64, 0u64, 0u64);
        for i in 0..SCENARIO_HOMES {
            let spec = scenario_spec(i, SCENARIO_DAYS, self.seed);
            let rt = &mut self.rt;
            rt.reset();
            let (report, stats) =
                self.tracer.span("scenario.run", |_| rt.block_on(run_home(&spec)));
            match report {
                Ok(r) => {
                    self.check(1, true, String::new);
                    digest.observe(&r);
                    sessions += r.sessions as u64;
                    adsl_only += r.adsl_only_sessions as u64;
                    events += net_events(&stats);
                }
                Err(e) => self.check(1, false, || format!("scenario home {i} failed: {e}")),
            }
        }
        self.digests.push(("scenario_loop", format!("{:016x}", digest.digest())));
        let days = SCENARIO_DAYS as f64;
        let per_day: Vec<f64> =
            self.tracer.durations_us("scenario.run").iter().map(|us| us / days).collect();
        self.timing("scenario.run_us_per_home_day.p50", "us", &per_day);
        let mut sorted = per_day;
        sorted.sort_by(f64::total_cmp);
        self.value("scenario.run_us_per_home_day.p90", "us", percentile(&sorted, 90), false);
        let home_days = SCENARIO_HOMES as f64 * days;
        self.value("scenario.sessions_per_home_day", "count", sessions as f64 / home_days, true);
        self.value("scenario.net_events_per_home_day", "count", events as f64 / home_days, true);
        self.value(
            "scenario.adsl_only_frac",
            "ratio",
            adsl_only as f64 / sessions.max(1) as f64,
            true,
        );
    }

    /// The trace generators and the allowance refit the day loop calls.
    fn scenario_generators(&mut self) {
        const CALLS: usize = 1000;
        let config = ScenarioConfig::paper(self.seed);
        let w = self.batches("scenario.home_day", |_, b| {
            window(CALLS as f64, || {
                for k in 0..CALLS {
                    let home = (b * CALLS + k) as u32;
                    black_box(home_day(&config, home, 1 + home as usize % 3, home % 35));
                }
            })
        });
        self.per_op("scenario.home_day_us", "us", 1e6, &w);
        let months = config.history_months + 2;
        let w = self.batches("scenario.free_history", |_, b| {
            window(CALLS as f64, || {
                for k in 0..CALLS {
                    black_box(device_free_history(&config, (b * CALLS + k) as u32, k % 3, months));
                }
            })
        });
        self.per_op("scenario.free_history_us", "us", 1e6, &w);
        let history = device_free_history(&config, 0, 0, config.history_months);
        let mut rng = SplitMix::derive(self.seed, 0xca95);
        let w = self.batches("caps.refit", |_, _| {
            let mut live: Vec<(LiveAllowance, f64)> = (0..CALLS)
                .map(|_| {
                    let month = rng.uniform(2e7, 7e7);
                    (LiveAllowance::new(AllowanceEstimator::paper(), history.clone()), month)
                })
                .collect();
            window(CALLS as f64, || {
                for (allowance, month) in &mut live {
                    allowance.finish_month(*month);
                    black_box(allowance.daily_allowance());
                }
            })
        });
        self.per_op("caps.refit_us", "us", 1e6, &w);
    }

    /// Merging chunk digests, as the fleet's in-order fold does.
    fn fleet_merge(&mut self, reports: &[HomeReport]) {
        const MERGES: usize = 2000;
        let mut chunk = FleetDigest::empty();
        for r in reports {
            chunk.observe(r);
        }
        let w = self.batches("fleet.merge", |_, _| {
            let mut acc = FleetDigest::empty();
            let w = window(MERGES as f64, || {
                for _ in 0..MERGES {
                    acc.merge(black_box(&chunk));
                }
            });
            black_box(&acc);
            w
        });
        self.per_op("fleet.merge_ns", "ns", 1e9, &w);
    }

    /// The worker pool's per-unit overhead on no-op units.
    fn exec(&mut self) {
        const UNITS: u32 = 10_000;
        let mut sums = Vec::new();
        let w = self.batches("exec.fold", |_, _| {
            let units: Vec<u32> = (0..UNITS).collect();
            let start = Instant::now();
            let sum =
                Pool::with(WORKERS, |pool| fold(pool, units, |&u| u as u64, 0u64, |a, p| a + p));
            sums.push(sum);
            Window { start, end: Instant::now(), ops: UNITS as f64 }
        });
        let want = (UNITS as u64 - 1) * UNITS as u64 / 2;
        self.check(0, sums.iter().all(|&s| s == want), || "pool fold lost units".into());
        self.per_op("exec.unit_us", "us", 1e6, &w);
    }

    /// The fluid simulator's event loop and fair-share solver.
    fn simnet(&mut self) {
        const SIM_HOMES: u64 = 1000;
        let seed = self.seed;
        let w = self.batches("simnet.churn", |_, b| {
            let mut rng = SplitMix::derive(seed, 0x51_0000 + b as u64);
            let mut sim = Simulation::new();
            let mut links = Vec::new();
            for h in 0..SIM_HOMES {
                let mut link = |name: String, base: f64, sd: f64| {
                    let process = CapacityProcess::stochastic(
                        base,
                        sd,
                        1.0,
                        DiurnalProfile::flat(),
                        rng.next_u64(),
                    );
                    links.push(sim.add_link(name, process));
                };
                link(format!("adsl{h}"), 2e6, 0.3);
                link(format!("3g{h}_0"), 3e6, 0.4);
                link(format!("3g{h}_1"), 3e6, 0.4);
            }
            let mut size = move || rng.uniform(2.5e5, 7.5e5);
            for &l in &links {
                sim.start_flow(vec![l], size());
                sim.start_flow(vec![l], size());
            }
            let horizon = SimTime::from_secs(5.0);
            let start = Instant::now();
            let mut events = 0u64;
            while let Some(ev) = sim.next_event_until(horizon) {
                events += 1;
                if let SimEvent::FlowCompleted { record, .. } = ev {
                    sim.start_flow(vec![record.path[0]], size());
                }
            }
            Window { start, end: Instant::now(), ops: events as f64 }
        });
        self.per_op("simnet.event_ns", "ns", 1e9, &w);

        const SOLVES: usize = 20;
        let (nl, nf) = (64, 256);
        let mut rng = SplitMix::derive(seed, 0x50_1e);
        let caps: Vec<f64> = (0..nl).map(|_| rng.uniform(1e6, 7e6)).collect();
        let demands: Vec<FlowDemand> = (0..nf)
            .map(|f| FlowDemand {
                links: vec![f % nl, (rng.next_u64() % nl as u64) as usize],
                cap: (f % 3 == 0).then_some(5e5),
            })
            .collect();
        let table = FlowTable::from_demands(&demands);
        let mut scratch = FairShareScratch::default();
        let mut out = Vec::new();
        let w = self.batches("simnet.solve", |_, _| {
            window(SOLVES as f64, || {
                for _ in 0..SOLVES {
                    max_min_fair_into(black_box(&caps), black_box(&table), &mut scratch, &mut out);
                    black_box(&out);
                }
            })
        });
        self.per_op("simnet.solve_us", "us", 1e6, &w);
    }

    /// Every registered experiment at full scale on a 2-worker pool, in
    /// registry order, [`SWEEPS`] times; each report is checked.
    fn experiments(&mut self, experiments_md: &str) {
        let all: Vec<&'static dyn DynExperiment> = registry().all().collect();
        // Span names are static; these 22 are made once per run.
        let names: Vec<&'static str> = all
            .iter()
            .map(|e| &*Box::leak(format!("experiments.{}", e.id()).into_boxed_str()))
            .collect();
        let mut verdicts = Vec::new();
        let tracer = &mut self.tracer;
        Pool::with(WORKERS, |pool| {
            for _ in 0..SWEEPS {
                tracer.span("experiments.sweep", |t| {
                    for (e, &name) in all.iter().zip(&names) {
                        let report = t.span(name, |_| e.run_sharded(Scale::FULL, pool));
                        verdicts.push(sweep::check(&report, experiments_md));
                    }
                });
            }
        });
        for verdict in verdicts {
            let why = verdict.err();
            self.check(1, why.is_none(), || why.unwrap_or_default());
        }
        for (e, name) in all.iter().zip(names) {
            let ms: Vec<f64> = self.tracer.durations_us(name).iter().map(|us| us / 1e3).collect();
            self.timing(&format!("experiments.{}_ms", e.id()), "ms", &ms);
        }
    }
}
