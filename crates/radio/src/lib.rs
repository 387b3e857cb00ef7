//! # threegol-radio
//!
//! The HSPA (UMTS/3G) radio model behind the 3GOL reproduction.
//!
//! The paper's feasibility study (§3) drives 10 Samsung Galaxy S II
//! handsets against live base stations in a European city. This crate
//! provides the synthetic equivalent: base stations with shared
//! HSDPA/HSUPA channels, per-device throughput that degrades with the
//! number of simultaneously active devices (calibrated to the paper's
//! Table 3), dedicated-channel floors, diurnal load, multi-cell load
//! balancing, RRC state promotion delays and signal-dependent rates.
//!
//! The model plugs into `threegol-simnet`: a [`CellularDeployment`]
//! installs one shared-channel link per base station and direction, and
//! each attached [`Device`] gets its own per-device radio link. Max-min
//! fair sharing over those links then yields the cluster-size behaviour
//! the paper measures (downlink scaling with devices, uplink plateauing
//! near the 5.76 Mbit/s HSUPA ceiling).
//!
//! For the city-scale aggregate analysis (§6, Fig 11) the crate also
//! provides [`CellMap`]: a deterministic grid of shared cells under a
//! streamed fleet of homes, with weighted home→cell assignment,
//! wired-diurnal hour assignment, and the feedback law that turns a
//! measured per-cell 3GOL load into next-pass per-phone capacity
//! shares.

#![warn(missing_docs)]

mod basestation;
mod cellmap;
pub mod consts;
pub mod device;
pub mod efficiency;
pub mod location;
pub mod lte;
pub mod network;
pub mod rrc;

pub use basestation::BaseStation;
pub use cellmap::{CellLoad, CellMap, CellSite};
pub use device::{Device, DeviceCategory};
pub use efficiency::EfficiencyCurve;
pub use location::{
    availability_profile, mobile_diurnal_load, wired_diurnal_load, AreaKind, LocationProfile,
    Provisioning,
};
pub use lte::RadioGeneration;
pub use network::{Attachment, CellularDeployment, InstalledCell};
pub use rrc::{RrcConfig, RrcMachine, RrcState};
