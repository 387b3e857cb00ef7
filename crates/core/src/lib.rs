//! # threegol-core
//!
//! The 3GOL service itself: the paper's primary contribution, built on
//! the substrates in this workspace.
//!
//! 3GOL ("3G OnLoading") assists a bottlenecked ADSL line with the 3G
//! connectivity of devices already present in the home, implementing a
//! PowerBoost-like service Over The Top (paper §2.4): a client
//! component discovers admissible 3G devices on the home Wi-Fi and a
//! multipath scheduler spreads a transaction's items over the ADSL
//! gateway path plus one path per device.
//!
//! This crate wires everything together for the *simulated* deployment
//! (the live tokio prototype is `threegol-proxy`):
//!
//! * [`HomeNetwork`] — the simulation topology of one household:
//!   origin server, ADSL line, Wi-Fi LAN and the local cellular
//!   deployment with attached phones;
//! * [`TransactionRunner`] — the fluid-simulation transport for a
//!   `threegol-sched` transaction, with per-request overheads and RRC
//!   startup delays;
//! * [`VodExperiment`] / [`UploadExperiment`] — the §5 evaluation
//!   harnesses (pre-buffering, full-download and photo-upload timing,
//!   with/without 3GOL, warm/cold radio, 1–2 phones);
//! * [`permits`] — the network-integrated admission control sketched in
//!   §2.4 (permits granted while cell utilization is below threshold);
//! * [`capacity`] — the §2.1 back-of-the-envelope capacity comparison.

pub mod capacity;
pub mod home;
pub mod metrics;
pub mod mptcp;
pub mod permits;
pub mod runner;
pub mod service;
pub mod upload;
pub mod vod;

pub use home::{HomeNetwork, WifiStandard};
pub use metrics::{reduction_percent, speedup};
pub use mptcp::mptcp_vod_download_secs;
pub use permits::{Permit, PermitBackend};
pub use runner::{PathSpec, TransactionRunner};
pub use service::{BoostedVideo, DayOfVideos, Mode, ServicePolicy};
pub use upload::{UploadExperiment, UploadOutcome};
pub use vod::{RadioStart, VodExperiment, VodOutcome};
