//! The capacity seam between a home and whatever provides its 3G.
//!
//! The paper's prototype treats each phone's 3G bearer as a private
//! pipe; §6 asks what happens when thousands of homes onload onto the
//! *shared* cells of a city. This module is the API that lets both
//! worlds coexist: [`Home::run`](crate::Home::run) asks a
//! [`CapacitySource`] for its phones' rate limits instead of owning
//! raw bits-per-second fields, and the source either hands out a fixed
//! private rate ([`Isolated`] — the pre-coupling behaviour, bit for
//! bit) or samples a per-phone *share* of one shared cell at the
//! home's hour of day ([`CellProfile`]).
//!
//! Everything here is plain `Copy` data on purpose: a
//! [`HomeSpec`](crate::HomeSpec) must stay a stack-built pure function
//! of the home index for the streamed fleet, so a capacity source
//! carries no handles, no `Arc`s, and no references — a cell's diurnal
//! share curve is folded into 24 hourly floats computed *outside* the
//! fleet pass (by `threegol-radio`'s cell map) and fed back in on the
//! next pass. The fleet never shares mutable state across homes; the
//! coupling lives entirely in this data.

use crate::throttle::RateLimit;

/// Where a phone's 3G capacity comes from.
///
/// Implementors answer one question: at hour-of-day `hour`, what rate
/// limits does one phone of this home get? [`Home::run`](crate::Home::run)
/// consumes the answer when it builds its device proxies.
pub trait CapacitySource {
    /// Per-phone downlink and uplink limits at hour-of-day `hour`
    /// (`[0, 24)`, wrapped otherwise).
    fn phone_limits(&self, hour: f64) -> (RateLimit, RateLimit);

    /// The shared cell this source draws from, if any. `None` for
    /// private capacity.
    fn cell(&self) -> Option<u32> {
        None
    }
}

/// Private per-phone 3G rates — each phone owns its pipe, no cell is
/// shared, the hour of day is irrelevant. This reproduces the
/// uncoupled prototype exactly.
///
/// ```
/// use threegol_proxy::{CapacitySource, Isolated};
/// let g3 = Isolated { down_bps: 2e6, up_bps: 1e6 };
/// let (down, up) = g3.phone_limits(19.0);
/// assert_eq!(down.rate_bps, 2e6);
/// assert_eq!(up.rate_bps, 1e6);
/// assert_eq!(g3.cell(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Isolated {
    /// Each phone's 3G downlink, bits/s.
    pub down_bps: f64,
    /// Each phone's 3G uplink, bits/s.
    pub up_bps: f64,
}

impl CapacitySource for Isolated {
    fn phone_limits(&self, _hour: f64) -> (RateLimit, RateLimit) {
        (RateLimit::new(self.down_bps), RateLimit::new(self.up_bps))
    }
}

/// A per-phone share of one shared 3G cell, as a diurnal curve: 24
/// hourly downlink/uplink rates computed from the cell's capacity,
/// its background load (`threegol-radio`'s availability profile) and
/// the 3GOL load the fleet itself put on the cell in the previous
/// pass.
///
/// Rates are sampled at the *whole* hour (no interpolation): the fleet
/// digest buckets onloaded bytes per `(cell, hour)`, and the feedback
/// algebra stays exact when a home's whole workload runs under one
/// hourly rate.
///
/// ```
/// use threegol_proxy::{CapacitySource, CellProfile};
/// let share = CellProfile::flat(3, 1.5e6, 0.8e6);
/// assert_eq!(share.cell(), Some(3));
/// let (down, _up) = share.phone_limits(21.9);
/// assert_eq!(down.rate_bps, 1.5e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellProfile {
    /// The cell this share draws from.
    pub cell: u32,
    /// Per-phone downlink share by hour of day, bits/s (all > 0).
    pub down_bps: [f64; 24],
    /// Per-phone uplink share by hour of day, bits/s (all > 0).
    pub up_bps: [f64; 24],
}

impl CellProfile {
    /// A share that does not vary with the hour — useful as a starting
    /// point and in tests.
    pub fn flat(cell: u32, down_bps: f64, up_bps: f64) -> CellProfile {
        CellProfile { cell, down_bps: [down_bps; 24], up_bps: [up_bps; 24] }
    }

    /// The `(down, up)` share at hour-of-day `hour`, bits/s.
    pub(crate) fn at_hour(&self, hour: f64) -> (f64, f64) {
        let h = hour.rem_euclid(24.0).floor() as usize % 24;
        (self.down_bps[h], self.up_bps[h])
    }
}

impl CapacitySource for CellProfile {
    fn phone_limits(&self, hour: f64) -> (RateLimit, RateLimit) {
        let (down, up) = self.at_hour(hour);
        (RateLimit::new(down), RateLimit::new(up))
    }

    fn cell(&self) -> Option<u32> {
        Some(self.cell)
    }
}

/// The capacity source a [`HomeSpec`](crate::HomeSpec) carries:
/// a closed `Copy` sum of the two implementations, so a spec stays a
/// fixed-size value that can be built on a worker's stack from an
/// index alone.
// The variant sizes differ wildly (16 bytes vs a 392-byte share
// curve), but boxing the big one would defeat the type's purpose:
// specs must be `Copy` values built on worker stacks with no heap.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum G3Source {
    /// Private per-phone rates (the uncoupled prototype).
    Isolated(Isolated),
    /// A per-phone share of a shared cell.
    Cell(CellProfile),
}

impl G3Source {
    /// Private `down`/`up` bits-per-second rates per phone.
    pub fn isolated(down_bps: f64, up_bps: f64) -> G3Source {
        G3Source::Isolated(Isolated { down_bps, up_bps })
    }
}

impl CapacitySource for G3Source {
    fn phone_limits(&self, hour: f64) -> (RateLimit, RateLimit) {
        match self {
            G3Source::Isolated(source) => source.phone_limits(hour),
            G3Source::Cell(source) => source.phone_limits(hour),
        }
    }

    fn cell(&self) -> Option<u32> {
        match self {
            G3Source::Isolated(source) => source.cell(),
            G3Source::Cell(source) => source.cell(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_ignores_the_hour() {
        let g3 = G3Source::isolated(2e6, 1e6);
        for hour in [0.0, 11.5, 23.99, -3.0, 36.0] {
            let (down, up) = g3.phone_limits(hour);
            assert_eq!(down, RateLimit::new(2e6));
            assert_eq!(up, RateLimit::new(1e6));
        }
        assert_eq!(g3.cell(), None);
    }

    #[test]
    fn cell_profile_samples_whole_hours() {
        let mut profile = CellProfile::flat(7, 1e6, 5e5);
        profile.down_bps[19] = 4e5;
        let g3 = G3Source::Cell(profile);
        assert_eq!(g3.cell(), Some(7));
        assert_eq!(g3.phone_limits(19.0).0, RateLimit::new(4e5));
        assert_eq!(g3.phone_limits(19.999).0, RateLimit::new(4e5));
        assert_eq!(g3.phone_limits(20.0).0, RateLimit::new(1e6));
        // Hours wrap: 43 ≡ 19, −5 ≡ 19.
        assert_eq!(g3.phone_limits(43.0).0, RateLimit::new(4e5));
        assert_eq!(g3.phone_limits(-5.0).0, RateLimit::new(4e5));
    }

    #[test]
    fn sources_are_copy_and_comparable() {
        let a = G3Source::Cell(CellProfile::flat(1, 1e6, 5e5));
        let b = a; // Copy
        assert_eq!(a, b);
        assert_ne!(a, G3Source::isolated(1e6, 5e5));
    }
}
