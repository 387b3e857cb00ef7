//! # threegol-proxy
//!
//! The live 3GOL prototype (paper §4.1), on tokio over the vendored
//! runtime's in-process **virtual network** — every listener, stream
//! and datagram lives inside the runtime, under virtual time, so whole
//! fleets of households run deterministically in one process without
//! opening a single kernel socket.
//!
//! The paper's deployment has three processes: an **origin** web
//! server; a **device component** on each phone (an HTTP proxy piping
//! Wi-Fi-side requests through the 3G interface, advertising itself
//! only while it has quota/permits); and a **client component** (an
//! HLS-aware proxy plus an HTTP uploader, both feeding a multipath
//! scheduler). This crate reproduces all three:
//!
//! * [`throttle::ThrottledStream`] — token-bucket rate limiting that
//!   stands in for the ADSL line and each phone's 3G bearer (the
//!   substitution for real access links; rates are taken from the same
//!   location profiles the simulator uses); [`throttle::SharedRateLimit`]
//!   makes a bucket a shared medium several streams contend for, and
//!   each direction of a stream waits for its tokens in one place;
//! * [`capacity::CapacitySource`] — the seam between a home and
//!   whatever provides its 3G, implemented by one `Copy` type,
//!   [`capacity::G3Source`]: private per-phone rates
//!   ([`capacity::G3Source::Isolated`]) or a per-phone share of a
//!   shared cell ([`capacity::CellProfile`]), folded into the
//!   [`home::HomeSpec`] so a whole fleet can couple through shared
//!   cells without sharing mutable state;
//! * [`origin::OriginServer`] — serves generated HLS playlists and
//!   segments, accepts multipart photo uploads, and serves the 2 MB
//!   probe files of §3;
//! * [`device::DeviceProxy`] — the phone-side component with quota
//!   tracking: its home announces it only while it holds quota;
//! * [`discovery::Discovery`] — UDP announce/browse inside the home's
//!   subnet (the prototype's stand-in for Bonjour);
//! * [`client::ThreegolClient`] — playlist interception, parallel
//!   segment prefetch and parallel multipart uploads, driven by the
//!   *same* `threegol-sched` schedulers the simulator uses;
//! * [`hlsproxy::HlsProxy`] — the local HTTP proxy a stock video
//!   player points at: playlists are intercepted, segments prefetched
//!   multipath by one task per playlist and served from one locked
//!   cache, transparently;
//! * [`home::Home`] — a household as a first-class unit: its own
//!   address namespace ([`home::HomeNet`]), discovery domain, shared
//!   ADSL/Wi-Fi media, and a workload reporting the per-home gain over
//!   ADSL alone — either the fixed VoD + photo-upload script
//!   ([`home::Scenario::PaperDefault`]) or a trace-driven multi-day
//!   scenario with device churn and the live §6 allowance loop
//!   ([`home::Scenario::Traced`], run by [`scenario`]);
//! * [`home::Rig`] — the one way a live home comes up. Both workloads,
//!   the integration tests and the live examples bring the household up
//!   with [`home::Rig::bring_up`] and build every session's paths with
//!   [`home::Rig::paths`] by on-demand discovery: one beacon per present
//!   phone with quota, and the gateway through the home's shared ADSL
//!   buckets.

#![warn(missing_docs)]

pub mod capacity;
pub mod client;
pub mod device;
pub mod discovery;
mod hlsproxy;
pub mod home;
pub mod origin;
pub mod scenario;
pub mod throttle;

pub use capacity::{CapacitySource, CellProfile, G3Source};
pub use client::{PathTarget, ThreegolClient};
pub use device::DeviceProxy;
pub use discovery::{Advertisement, Discovery};
pub use hlsproxy::HlsProxy;
pub use home::{
    Home, HomeNet, HomeReport, HomeSpec, Rig, Scenario, Tier, MAX_SCENARIO_DAYS, NO_CELL,
    SCENARIO_FP_SCALE,
};
pub use origin::OriginServer;
pub use threegol_sched::TransferReport;
pub use throttle::{RateLimit, SharedRateLimit, ThrottledStream};
