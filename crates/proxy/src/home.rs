//! A **home** as a first-class unit of the live prototype.
//!
//! The paper's deployment unit is a household: one ADSL line, one
//! Wi-Fi medium, a handful of phones with 3G quota, and the client
//! component running next to the player (§2, §4.1). This module wires
//! those pieces together on the virtual network so a whole home — and
//! a whole *fleet* of homes — runs inside one process under virtual
//! time:
//!
//! * [`HomeNet`] gives each home its own `10.x.y.0/24`-style address
//!   namespace, so any number of homes coexist in one runtime without
//!   colliding and a captured address is attributable to its home;
//! * [`HomeSpec`] bundles the link profiles (shared ADSL buckets,
//!   shared Wi-Fi medium, per-phone 3G rates, 3GOL allowance) and the
//!   workload (VoD prebuffer + concurrent photo upload);
//! * [`Rig`] brings the household up once (origin, discovery, device
//!   proxies, shared media) and assembles each session's paths by
//!   on-demand discovery;
//! * [`Home::run`] drives the workload on a rig and reports the
//!   per-home speedups over ADSL alone.
//!
//! Every throttle a home's transfers cross is *shared*: the ADSL
//! down/up buckets are one pair per home ([`PathTarget::SharedGateway`])
//! and the Wi-Fi medium is one bucket both directions of every
//! connection draw from ([`ThreegolClient::with_wifi`]) — concurrent
//! transactions inside a home contend the way they would on the real
//! links.

use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use tokio::net::TcpStream;
use tokio::time::Instant;

use threegol_hls::VideoQuality;
use threegol_http::codec::HttpStream;
use threegol_http::{HttpError, Request};
use threegol_traces::scenario::ScenarioConfig;

use crate::capacity::{CapacitySource, CellProfile, G3Source};
use crate::client::{get_media_playlist, segment_targets, PathTarget, ThreegolClient};
use crate::device::DeviceProxy;
use crate::discovery::{Advertisement, Announcer, Discovery};
use crate::hlsproxy::HlsProxy;
use crate::origin::OriginServer;
use crate::throttle::SharedRateLimit;

/// A home's private corner of the virtual network.
///
/// Home `h` owns the subnet `10.(h >> 8).(h & 0xff).0/24`; well-known
/// hosts live at fixed final octets so an address appearing in a
/// deadlock diagnostic or a packet trace identifies both the home and
/// the role.
///
/// The namespace index is 16 bits — the 10.x.y.0/24 plan has exactly
/// 65 536 subnets — while [`HomeSpec::index`] is 32 bits so a fleet
/// can hold millions of homes. [`Home::run`] folds the spec index into
/// this space with `index % 65536`: two homes alias the same subnet
/// only if they run in the *same* runtime, and the fleet harness gives
/// every home its own runtime, so fleets larger than 65 536 homes
/// never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeNet {
    /// Home index (the `h` in `10.(h >> 8).(h & 0xff).x`).
    pub index: u16,
}

impl HomeNet {
    /// The namespace of home `index`.
    pub fn new(index: u16) -> HomeNet {
        HomeNet { index }
    }

    fn host(&self, last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, (self.index >> 8) as u8, (self.index & 0xff) as u8, last))
    }

    /// The origin server, as seen from this home: `.1:8080`.
    pub fn origin(&self) -> SocketAddr {
        SocketAddr::new(self.host(1), 8080)
    }

    /// The client's discovery listener (the home's broadcast domain):
    /// `.2:5353`.
    pub fn discovery(&self) -> SocketAddr {
        SocketAddr::new(self.host(2), 5353)
    }

    /// The client-side HLS proxy the player talks to: `.3:8088`.
    pub fn client_proxy(&self) -> SocketAddr {
        SocketAddr::new(self.host(3), 8088)
    }

    /// Device proxy `i`'s LAN listener: `.(10 + i):3128`.
    pub fn device(&self, i: usize) -> SocketAddr {
        assert!(i < 246, "at most 245 devices per home");
        SocketAddr::new(self.host(10 + i as u8), 3128)
    }
}

/// The cell index a [`HomeReport`] carries when the home's 3G is
/// private ([`G3Source::Isolated`]): the all-ones sentinel, never a
/// valid cell.
pub const NO_CELL: u32 = u32::MAX;

/// Longest scenario a [`HomeReport`] can account per-day: five weeks,
/// enough to cross one 30-day billing-month boundary with margin. The
/// per-day accumulator arrays are this long so the report stays a
/// fixed-size `Copy` record.
pub const MAX_SCENARIO_DAYS: usize = 35;

/// Fixed-point scale of the scenario byte accumulators in
/// [`HomeReport`] (and the fleet digest that merges them): 2^10 units
/// per byte, giving sub-byte precision with ~2^53 bytes of headroom in
/// an `i64` slot — integer adds merge exactly associatively.
pub const SCENARIO_FP_SCALE: f64 = 1024.0;

/// How a home's workload is driven (DESIGN.md §14).
///
/// `PaperDefault` is the original fixed script — one VoD prebuffer
/// racing one photo-upload batch at [`HomeSpec::hour`] — whose every
/// transfer plays out as it did before scenarios existed, so a fleet of
/// `PaperDefault` homes reproduces the pre-scenario digest bit for bit.
/// Both run on the same household bring-up. `Traced` drives the
/// home from the per-home trace stream in `threegol-traces::scenario`
/// over simulated days of virtual time, with device churn and the §6
/// allowance loop run live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The fixed single-shot script (the pre-scenario prototype).
    PaperDefault,
    /// Trace-driven multi-day scenario.
    Traced {
        /// Simulated days, `1..=MAX_SCENARIO_DAYS`.
        days: u16,
        /// Scenario seed (mixed with the home index per draw).
        seed: u64,
    },
}

/// An ADSL service tier: the four paper-flavoured line speeds a street
/// of homes cycles through. The tier — together with the cell
/// assignment and the index — is the single source of truth a
/// [`HomeSpec`] is built from; see [`HomeSpec::tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// 2 / 0.3 Mbit/s ADSL.
    Basic,
    /// 4 / 0.5 Mbit/s ADSL — the paper-default line.
    Standard,
    /// 6 / 0.7 Mbit/s ADSL.
    Fast,
    /// 8 / 1.0 Mbit/s ADSL.
    Premium,
}

impl Tier {
    /// Every tier, slowest first.
    pub(crate) const ALL: [Tier; 4] = [Tier::Basic, Tier::Standard, Tier::Fast, Tier::Premium];

    /// The tier of home `index` in a heterogeneous street: indices
    /// cycle through the four tiers, slowest first.
    pub fn of_index(index: u32) -> Tier {
        Tier::ALL[(index % 4) as usize]
    }

    /// The tier's ADSL downlink, bits/s.
    pub fn adsl_down_bps(self) -> f64 {
        match self {
            Tier::Basic => 2e6,
            Tier::Standard => 4e6,
            Tier::Fast => 6e6,
            Tier::Premium => 8e6,
        }
    }

    /// The tier's ADSL uplink, bits/s.
    pub(crate) fn adsl_up_bps(self) -> f64 {
        match self {
            Tier::Basic => 0.3e6,
            Tier::Standard => 0.5e6,
            Tier::Fast => 0.7e6,
            Tier::Premium => 1.0e6,
        }
    }
}

/// Link profiles and workload for one home.
///
/// Plain `Copy` data only — the spec costs nothing to build from an
/// index on a worker's stack, and a million-home fleet never needs to
/// materialize a single one on the heap. Built with the consuming
/// builder starting at [`HomeSpec::tier`]:
///
/// ```
/// use threegol_proxy::{CellProfile, HomeSpec, Tier};
///
/// let home = HomeSpec::tier(Tier::Fast)
///     .devices(3)
///     .cell(CellProfile::flat(2, 1.5e6, 0.8e6))
///     .hour(21)
///     .index(42);
/// assert_eq!(home.adsl_down_bps, 6e6);
/// assert_eq!(home.index, 42);
/// let copy = home; // still Copy
/// assert_eq!(copy, home);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomeSpec {
    /// Home index (selects the [`HomeNet`] namespace, modulo 2^16).
    pub index: u32,
    /// Number of device proxies (phones with quota).
    pub devices: usize,
    /// ADSL downlink, bits/s — one shared bucket for the whole home.
    pub adsl_down_bps: f64,
    /// ADSL uplink, bits/s — one shared bucket for the whole home.
    pub adsl_up_bps: f64,
    /// Where the phones' 3G capacity comes from: private rates or a
    /// per-phone share of a shared cell (see [`G3Source`]).
    pub g3: G3Source,
    /// Hour of day `[0, 24)` the run *starts* at. The paper-default
    /// script runs entirely at this hour (it samples the cell share
    /// here and buckets the home's onloaded bytes in the fleet digest);
    /// a [`Scenario::Traced`] run treats it as the start-of-run offset
    /// and advances the hour from the virtual clock as simulated days
    /// pass.
    pub hour: u8,
    /// The Wi-Fi medium, bits/s — one shared bucket every connection
    /// in the home crosses, both directions.
    pub wifi_bps: f64,
    /// Each phone's 3GOL allowance `A(0)`, bytes.
    pub allowance_bytes: f64,
    /// VoD bitrate, bits/s.
    pub video_bps: f64,
    /// VoD duration to prebuffer, seconds.
    pub video_secs: f64,
    /// HLS segment duration, seconds.
    pub segment_secs: f64,
    /// Photos in the concurrent upload batch.
    pub photos: usize,
    /// Bytes per photo.
    pub photo_bytes: usize,
    /// How the workload is driven: the fixed paper script or a traced
    /// multi-day scenario.
    pub scenario: Scenario,
}

impl HomeSpec {
    /// Start building a spec from an ADSL tier: the tier's line speeds
    /// plus the paper-flavoured defaults — two phones on private
    /// 2/1 Mbit/s 3G, 30 Mbit/s Wi-Fi, a 10 s × 400 kbit/s VoD
    /// prebuffer racing a 3 × 100 kB photo upload, index 0, noon.
    /// Chain [`HomeSpec::index`], [`HomeSpec::devices`],
    /// [`HomeSpec::cell`] and [`HomeSpec::hour`] to finish.
    pub fn tier(tier: Tier) -> HomeSpec {
        HomeSpec {
            index: 0,
            devices: 2,
            adsl_down_bps: tier.adsl_down_bps(),
            adsl_up_bps: tier.adsl_up_bps(),
            g3: G3Source::Isolated { down_bps: 2e6, up_bps: 1e6 },
            hour: 12,
            wifi_bps: 30e6,
            allowance_bytes: 50e6,
            video_bps: 400e3,
            video_secs: 10.0,
            segment_secs: 2.0,
            photos: 3,
            photo_bytes: 100_000,
            scenario: Scenario::PaperDefault,
        }
    }

    /// The paper-default household: the [`Tier::Standard`] line with
    /// every builder default, at `index`.
    pub fn paper_default(index: u32) -> HomeSpec {
        HomeSpec::tier(Tier::Standard).index(index)
    }

    /// Set the home index.
    pub fn index(mut self, index: u32) -> HomeSpec {
        self.index = index;
        self
    }

    /// Set the number of phones.
    pub fn devices(mut self, devices: usize) -> HomeSpec {
        self.devices = devices;
        self
    }

    /// Draw the phones' 3G from a shared cell's per-phone share.
    pub fn cell(mut self, profile: CellProfile) -> HomeSpec {
        self.g3 = G3Source::Cell(profile);
        self
    }

    /// Give the phones private 3G rates (the uncoupled default).
    pub fn isolated(mut self, down_bps: f64, up_bps: f64) -> HomeSpec {
        self.g3 = G3Source::Isolated { down_bps, up_bps };
        self
    }

    /// Set the hour of day `[0, 24)` the run starts at (the whole run
    /// for the paper script; the day-0 offset for a traced scenario).
    pub fn hour(mut self, hour: u8) -> HomeSpec {
        assert!(hour < 24, "hour of day must be in [0, 24), got {hour}");
        self.hour = hour;
        self
    }

    /// Drive the workload as a [`Scenario::Traced`] run of `days`
    /// days (`1..=MAX_SCENARIO_DAYS`) at scenario seed `seed`.
    pub fn traced(mut self, days: u16, seed: u64) -> HomeSpec {
        assert!(
            (1..=MAX_SCENARIO_DAYS as u16).contains(&days),
            "traced scenario must run 1..={MAX_SCENARIO_DAYS} days, got {days}"
        );
        self.scenario = Scenario::Traced { days, seed };
        self
    }
}

/// What one home's workload achieved.
///
/// Like [`HomeSpec`] this is a fixed-size `Copy` record: a fleet
/// aggregates reports into a digest as they are produced instead of
/// holding a vector of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomeReport {
    /// Home index.
    pub index: u32,
    /// The shared cell the home's phones drew from, or [`NO_CELL`]
    /// for private 3G.
    pub cell: u32,
    /// Hour of day the workload ran at (from [`HomeSpec::hour`]).
    pub hour: u8,
    /// VoD prebuffer bytes fetched.
    pub vod_bytes: f64,
    /// VoD prebuffer wall time (virtual seconds).
    pub vod_secs: f64,
    /// Speedup of the prebuffer over ADSL alone
    /// (`bytes / adsl_down` vs measured).
    pub vod_gain: f64,
    /// Upload batch bytes.
    pub upload_bytes: f64,
    /// Upload batch wall time (virtual seconds).
    pub upload_secs: f64,
    /// Speedup of the upload over ADSL alone.
    pub upload_gain: f64,
    /// VoD bytes the HLS proxy pulled over 3G paths (path 1..) —
    /// downlink onload, the cell's downlink burden.
    pub vod_device_bytes: f64,
    /// Upload bytes that crossed 3G paths (path 1..) — uplink onload.
    pub upload_device_bytes: f64,
    /// Upload bytes moved by aborted duplicates.
    pub upload_wasted_bytes: f64,
    /// Simulated days a [`Scenario::Traced`] run covered; 0 for the
    /// paper-default script (every field below is then zero too, and
    /// the fleet digest skips them so paper-default digests are
    /// byte-identical to the pre-scenario prototype's).
    pub days: u16,
    /// VoD + upload sessions the scenario executed.
    pub sessions: u32,
    /// Sessions that ran ADSL-only (no admissible 3G path at session
    /// start: every phone away, exhausted, or the home has none).
    pub adsl_only_sessions: u32,
    /// Device-days that ended with a positive granted allowance fully
    /// exhausted — the live-estimator overrun counter.
    pub overrun_device_days: u32,
    /// Device-days simulated (`devices × days`).
    pub device_days: u32,
    /// Daily allowance granted, summed over device-days, fixed-point
    /// bytes at [`SCENARIO_FP_SCALE`].
    pub granted_allowance_fp: i64,
    /// Allowance actually consumed (`min(used, granted)` per
    /// device-day), fixed-point bytes — captured-fraction numerator.
    pub used_allowance_fp: i64,
    /// Downlink onload (3G path bytes toward the home) per scenario
    /// day, fixed-point bytes.
    pub day_dl_fp: [i64; MAX_SCENARIO_DAYS],
    /// Uplink onload per scenario day, fixed-point bytes.
    pub day_ul_fp: [i64; MAX_SCENARIO_DAYS],
    /// Downlink onload per hour of day (all days folded), fixed-point.
    pub hour_dl_fp: [i64; 24],
    /// Uplink onload per hour of day, fixed-point.
    pub hour_ul_fp: [i64; 24],
}

impl HomeReport {
    /// An all-zero report for home `index` (cell [`NO_CELL`]): the base
    /// the paper script and the scenario engine both fill in, and a
    /// convenient struct-update base for tests.
    pub fn empty(index: u32) -> HomeReport {
        HomeReport {
            index,
            cell: NO_CELL,
            hour: 0,
            vod_bytes: 0.0,
            vod_secs: 0.0,
            vod_gain: 0.0,
            upload_bytes: 0.0,
            upload_secs: 0.0,
            upload_gain: 0.0,
            vod_device_bytes: 0.0,
            upload_device_bytes: 0.0,
            upload_wasted_bytes: 0.0,
            days: 0,
            sessions: 0,
            adsl_only_sessions: 0,
            overrun_device_days: 0,
            device_days: 0,
            granted_allowance_fp: 0,
            used_allowance_fp: 0,
            day_dl_fp: [0; MAX_SCENARIO_DAYS],
            day_ul_fp: [0; MAX_SCENARIO_DAYS],
            hour_dl_fp: [0; 24],
            hour_ul_fp: [0; 24],
        }
    }
}

/// One home, ready to run its workload. See [`Home::run`].
pub struct Home;

impl Home {
    /// Bring up the home and drive its workload. Both scripts bring
    /// the origin, discovery, phones and shared media up once, and
    /// before each session every present phone with quota sends one
    /// beacon: a session's paths are the gateway plus the phones
    /// discovery then admits, so a home whose phones hold no quota
    /// runs over ADSL alone.
    ///
    /// [`Scenario::PaperDefault`] runs one session: a VoD prebuffer
    /// through the client-side HLS proxy, concurrent with a photo
    /// upload. [`Scenario::Traced`] runs the multi-day scenario engine
    /// ([`crate::scenario`]).
    ///
    /// Must run inside a `tokio` runtime; any number of homes may run
    /// in the same runtime (distinct [`HomeNet`] namespaces) or in
    /// separate runtimes on separate threads.
    pub async fn run(spec: &HomeSpec) -> Result<HomeReport, HttpError> {
        match spec.scenario {
            Scenario::PaperDefault => Home::run_paper(spec).await,
            Scenario::Traced { days, seed } => {
                crate::scenario::run_with_config(spec, days, &ScenarioConfig::paper(seed)).await
            }
        }
    }

    /// The original fixed script (see [`Scenario::PaperDefault`]).
    async fn run_paper(spec: &HomeSpec) -> Result<HomeReport, HttpError> {
        let rig = Rig::bring_up(spec, &vec![spec.allowance_bytes; spec.devices]).await?;
        let paths = rig.paths(spec, spec.hour as f64, &vec![true; spec.devices]).await;

        // The client-side HLS proxy the player points at.
        let hls = Arc::new(HlsProxy::new(rig.client(paths.clone())));
        let (proxy_addr, _proxy_task) =
            hls.clone().spawn(&rig.net.client_proxy().to_string()).await?;

        // The uploader is a second client-component app in the same
        // home: its own scheduler, but the same paths and shared media.
        let uploader = rig.client(paths);

        // Drive the two transactions concurrently: the upload runs as
        // its own task while this task plays the VoD prebuffer.
        let photos: Vec<(String, Bytes)> = (0..spec.photos)
            .map(|i| {
                (format!("home{}-IMG_{i:04}.jpg", spec.index), photo_body(i, spec.photo_bytes))
            })
            .collect();
        let upload_bytes: f64 = photos.iter().map(|(_, d)| d.len() as f64).sum();
        let upload_task = tokio::spawn(async move {
            let t0 = Instant::now();
            let report = uploader.upload_photos(photos).await?;
            Ok::<_, HttpError>((t0.elapsed().as_secs_f64(), report))
        });

        let t0 = Instant::now();
        let vod_bytes = prebuffer_vod(proxy_addr, "/q1/index.m3u8").await?;
        let vod_secs = t0.elapsed().as_secs_f64();
        let (upload_secs, upload_report) = upload_task
            .await
            .map_err(|e| HttpError::Malformed(format!("upload task died: {e}")))??;

        // Gains against the home's ADSL line carrying the same bytes
        // alone (the paper's "power boost" ratio).
        let vod_baseline = vod_bytes * 8.0 / spec.adsl_down_bps;
        let upload_baseline = upload_bytes * 8.0 / spec.adsl_up_bps;
        Ok(HomeReport {
            cell: spec.g3.cell().unwrap_or(NO_CELL),
            hour: spec.hour,
            vod_bytes,
            vod_secs,
            vod_gain: vod_baseline / vod_secs,
            upload_bytes,
            upload_secs,
            upload_gain: upload_baseline / upload_secs,
            vod_device_bytes: hls.device_bytes(),
            upload_device_bytes: upload_report.bytes_per_path.iter().skip(1).sum(),
            upload_wasted_bytes: upload_report.wasted_bytes,
            ..HomeReport::empty(spec.index)
        })
    }
}

/// A live household brought up on its own corner of the virtual
/// network: the origin, the discovery listener, each phone's device
/// proxy and beacon sender, and the shared media. Both scripts of
/// [`Home::run`] run their sessions on one, and so do the integration
/// tests and the live examples.
///
/// Everything a caller varies is a [`HomeSpec`] field or a per-phone
/// allowance. [`Rig::paths`] is the one place phones announce.
///
/// ```
/// use threegol_proxy::{HomeSpec, Rig};
///
/// tokio::runtime::block_on(async {
///     let spec = HomeSpec::paper_default(7);
///     let rig = Rig::bring_up(&spec, &[50e6, 0.0]).await.unwrap();
///     // The gateway, then the one phone that holds quota.
///     let paths = rig.paths(&spec, 12.0, &[true, true]).await;
///     assert_eq!(paths.len(), 2);
///     let client = rig.client(paths);
///     let (_, segments, _) = client.fetch_hls("/q1/index.m3u8").await.unwrap();
///     assert_eq!(segments.len(), 5);
///     assert!(rig.origin.requests_served() >= 6);
/// });
/// ```
pub struct Rig {
    /// The home's address namespace.
    pub net: HomeNet,
    /// The home's origin server: its upload sink and request counter.
    pub origin: Arc<OriginServer>,
    /// The phones' device proxies, by device index; phone `i` listens
    /// on [`HomeNet::device`]`(i)`.
    pub devices: Vec<Arc<DeviceProxy>>,
    origin_addr: SocketAddr,
    discovery: Discovery,
    /// Each phone's LAN address and beacon sender, by device index.
    beacons: Vec<(SocketAddr, Announcer)>,
    wifi: SharedRateLimit,
    adsl_down: SharedRateLimit,
    adsl_up: SharedRateLimit,
}

impl Rig {
    /// Bring up the origin and the discovery listener, then per phone a
    /// device proxy holding `allowances[i]` bytes of quota and one
    /// beacon sender, then the shared Wi-Fi and ADSL buckets. The home
    /// has one phone per allowance and lives in the [`HomeNet`] of
    /// `spec.index % 65536`. Every phone starts on the capacity
    /// source's rates at `spec.hour`.
    pub async fn bring_up(spec: &HomeSpec, allowances: &[f64]) -> Result<Rig, HttpError> {
        let net = HomeNet::new((spec.index % (1 << 16)) as u16);

        // Origin, behind the home's view of the WAN.
        let ladder = vec![VideoQuality::new("Q1", spec.video_bps)];
        let origin = Arc::new(OriginServer::new(&ladder, spec.video_secs, spec.segment_secs));
        let (origin_addr, _origin_task) = origin.clone().spawn(&net.origin().to_string()).await?;

        // The home's broadcast domain: a discovery listener the
        // beacons inside this subnet reach, and nobody else.
        let discovery = Discovery::bind(&net.discovery().to_string()).await?;
        let discovery_addr = discovery.local_addr()?;

        let (g3_down, g3_up) = spec.g3.phone_limits(spec.hour as f64);
        let mut devices = Vec::with_capacity(allowances.len());
        let mut beacons = Vec::with_capacity(allowances.len());
        for (i, &allowance) in allowances.iter().enumerate() {
            let device = Arc::new(DeviceProxy::new(
                format!("home{}-phone-{i}", spec.index),
                origin_addr,
                g3_down,
                g3_up,
                allowance,
            ));
            let (lan_addr, _task) = device.clone().spawn(&net.device(i).to_string()).await?;
            devices.push(device);
            beacons.push((lan_addr, Announcer::bind(discovery_addr).await?));
        }

        // The home's shared media: one pair of ADSL buckets and one
        // Wi-Fi medium for the whole run.
        Ok(Rig {
            net,
            origin,
            origin_addr,
            discovery,
            devices,
            beacons,
            wifi: SharedRateLimit::from_bps(spec.wifi_bps as u64),
            adsl_down: SharedRateLimit::from_bps(spec.adsl_down_bps as u64),
            adsl_up: SharedRateLimit::from_bps(spec.adsl_up_bps as u64),
        })
    }

    /// Assemble a session's paths (§2.4): retune every phone's 3G
    /// bearer to the capacity source's rates at `hour`, send one beacon
    /// for each phone that is `present` and holds quota, give the
    /// datagrams 10 ms to land, and read the admissible set Φ behind
    /// the gateway. A phone that left the Wi-Fi or ran out of quota is
    /// not announced, so its discovery entry ages out (3 s TTL) and the
    /// session runs on the paths that remain: ADSL alone at worst.
    /// `present[i]` says whether phone `i` is on the Wi-Fi.
    pub async fn paths(&self, spec: &HomeSpec, hour: f64, present: &[bool]) -> Vec<PathTarget> {
        let (g3_down, g3_up) = spec.g3.phone_limits(hour);
        for device in &self.devices {
            device.set_rates(g3_down, g3_up);
        }
        for ((device, (lan_addr, announcer)), &here) in
            self.devices.iter().zip(&self.beacons).zip(present)
        {
            if here && device.should_advertise() {
                let ad = Advertisement {
                    name: device.name.clone(),
                    proxy_addr: *lan_addr,
                    available_bytes: device.available_bytes(),
                };
                let _ = announcer.announce(&ad).await;
            }
        }
        tokio::time::sleep(Duration::from_millis(10)).await;
        let mut paths = vec![PathTarget::SharedGateway {
            origin: self.origin_addr,
            down: self.adsl_down.clone(),
            up: self.adsl_up.clone(),
        }];
        paths.extend(
            self.discovery
                .admissible()
                .into_iter()
                .map(|ad| PathTarget::Device { addr: ad.proxy_addr }),
        );
        paths
    }

    /// A client-component app on `paths`, crossing the home's Wi-Fi.
    pub fn client(&self, paths: Vec<PathTarget>) -> ThreegolClient {
        ThreegolClient::new(paths).with_wifi(self.wifi.clone())
    }
}

/// Deterministic filler body for photo `i`, shared process-wide: every
/// home with the same photo size uploads views of one allocation
/// instead of re-filling `photo_bytes` per photo per home (the upload
/// path never mutates its payload — multipart encoding copies it into
/// the request body).
pub(crate) fn photo_body(i: usize, photo_bytes: usize) -> Bytes {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(usize, usize), Bytes>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    Bytes::clone(
        cache
            .lock()
            .unwrap()
            .entry((i, photo_bytes))
            .or_insert_with(|| Bytes::from(vec![(i % 251) as u8; photo_bytes])),
    )
}

/// Play the prebuffer phase of a VoD session against the home's HLS
/// proxy: fetch the media playlist, then every segment in order (the
/// proxy serves them from its multipath prefetch as they land).
/// Returns the total segment bytes received. The player only counts a
/// segment, so its body is piped into a sink instead of materialized.
async fn prebuffer_vod(proxy_addr: SocketAddr, playlist: &str) -> Result<f64, HttpError> {
    let stream = TcpStream::connect(proxy_addr).await.map_err(HttpError::Io)?;
    let mut http = HttpStream::new(stream);
    let media = get_media_playlist(&mut http, playlist).await?;
    let mut bytes = 0.0;
    for target in segment_targets(playlist, &media) {
        http.write_request(&Request::get(&*target)).await?;
        let (head, body) = http.read_response_head().await?;
        let len = http.pipe_body(body, &mut tokio::io::sink()).await?;
        if head.status != 200 {
            return Err(HttpError::Malformed(format!("segment fetch failed: {}", head.status)));
        }
        bytes += len as f64;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_do_not_collide() {
        let a = HomeNet::new(0);
        let b = HomeNet::new(1);
        let c = HomeNet::new(256);
        assert_eq!(a.origin().to_string(), "10.0.0.1:8080");
        assert_eq!(b.origin().to_string(), "10.0.1.1:8080");
        assert_eq!(c.origin().to_string(), "10.1.0.1:8080");
        assert_eq!(b.device(3).to_string(), "10.0.1.13:3128");
        assert_ne!(a.discovery(), b.discovery());
    }

    #[tokio::test]
    async fn one_home_end_to_end() {
        let report = Home::run(&HomeSpec::paper_default(7)).await.unwrap();
        assert_eq!(report.index, 7);
        // 10 s × 400 kbit/s = 500 kB of video; 3 × 100 kB of photos.
        assert_eq!(report.vod_bytes, 500_000.0);
        assert_eq!(report.upload_bytes, 300_000.0);
        assert!(report.vod_secs > 0.0 && report.vod_secs.is_finite());
        // The 0.5 Mbit/s ADSL uplink alone would need 4.8 s; two
        // 1 Mbit/s phones must beat that comfortably.
        assert!(report.upload_gain > 1.2, "upload gain {}", report.upload_gain);
        assert!(report.upload_device_bytes > 0.0);
    }

    #[tokio::test]
    async fn home_without_devices_still_works() {
        let spec = HomeSpec::paper_default(9).devices(0);
        let report = Home::run(&spec).await.unwrap();
        // ADSL-only: no 3G bytes, gain near 1 (bounded by bursts).
        assert_eq!(report.upload_device_bytes, 0.0);
        assert_eq!(report.vod_device_bytes, 0.0);
        assert!(report.vod_gain < 1.5, "vod gain {}", report.vod_gain);
    }

    #[tokio::test]
    async fn home_whose_phones_hold_no_quota_runs_over_adsl_alone() {
        // No phone holds quota, so none ever beacons: the session must
        // not wait on discovery but run over the gateway alone.
        let spec = HomeSpec { allowance_bytes: 0.0, ..HomeSpec::paper_default(4) };
        let report = tokio::time::timeout(Duration::from_secs(3600), Home::run(&spec))
            .await
            .expect("a home without quota never finished")
            .unwrap();
        assert_eq!(report.vod_bytes, 500_000.0);
        assert_eq!(report.upload_bytes, 300_000.0);
        assert_eq!(report.vod_device_bytes, 0.0);
        assert_eq!(report.upload_device_bytes, 0.0);
    }

    #[test]
    fn cell_coupled_home_reports_its_cell_and_hour() {
        // Fresh runtime per run (same index, same virtual epoch). A
        // congested evening share vs a generous one: both homes
        // complete, report their cell/hour, and the starved one is
        // slower — the knob the fleet's fixed-point loop turns.
        let run = |spec: HomeSpec| tokio::runtime::block_on(Home::run(&spec)).unwrap();
        let a = run(HomeSpec::paper_default(21).cell(CellProfile::flat(4, 2e6, 1e6)).hour(4));
        let b = run(HomeSpec::paper_default(21).cell(CellProfile::flat(4, 360e3, 64e3)).hour(19));
        assert_eq!((a.cell, a.hour), (4, 4));
        assert_eq!((b.cell, b.hour), (4, 19));
        assert!(a.upload_secs < b.upload_secs, "{} !< {}", a.upload_secs, b.upload_secs);
        // The paper-default isolated home matches the equal-rate cell
        // share bit for bit: the seam changed, the physics did not.
        let isolated = run(HomeSpec::paper_default(21));
        assert_eq!(isolated.upload_secs, a.upload_secs);
        assert_eq!(isolated.vod_secs, a.vod_secs);
    }

    #[test]
    fn repeated_runs_are_identical() {
        // Fresh runtime per run: the same home index is reusable and
        // every event plays out at the same *relative* virtual time,
        // so measured durations must match bit for bit.
        let run = || tokio::runtime::block_on(Home::run(&HomeSpec::paper_default(3))).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.vod_secs, b.vod_secs);
        assert_eq!(a.upload_secs, b.upload_secs);
        assert_eq!(a.upload_device_bytes, b.upload_device_bytes);
        assert_eq!(a.upload_wasted_bytes, b.upload_wasted_bytes);
    }
}
