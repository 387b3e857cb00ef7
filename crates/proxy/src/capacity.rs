//! The capacity seam between a home and whatever provides its 3G.
//!
//! The paper's prototype treats each phone's 3G bearer as a private
//! pipe; §6 asks what happens when thousands of homes onload onto the
//! *shared* cells of a city. This module is the API that lets both
//! worlds coexist: [`Home::run`](crate::Home::run) asks a
//! [`CapacitySource`] for its phones' rate limits instead of owning
//! raw bits-per-second fields. Its one implementation, [`G3Source`],
//! either hands out a fixed private rate
//! ([`G3Source::Isolated`] — the pre-coupling behaviour, bit for bit)
//! or samples a per-phone *share* of one shared cell at the home's hour
//! of day ([`G3Source::Cell`], a [`CellProfile`]).
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
/// [`G3Source`], the one implementation, answers one question: at
/// hour-of-day `hour`, what rate limits does one phone of this home
/// get? [`Home::run`](crate::Home::run) consumes the answer when it
/// builds its device proxies.
pub trait CapacitySource {
    /// Per-phone downlink and uplink limits at hour-of-day `hour`
    /// (`[0, 24)`, wrapped otherwise).
    fn phone_limits(&self, hour: f64) -> (RateLimit, RateLimit);

    /// The shared cell this source draws from, if any. `None` for
    /// private capacity.
    fn cell(&self) -> Option<u32>;
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
/// use threegol_proxy::{CapacitySource, CellProfile, G3Source};
/// let share = G3Source::Cell(CellProfile::flat(3, 1.5e6, 0.8e6));
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
}

/// The capacity source a [`HomeSpec`](crate::HomeSpec) carries: a
/// closed `Copy` sum, so a spec stays a fixed-size value that can be
/// built on a worker's stack from an index alone.
///
/// ```
/// use threegol_proxy::{CapacitySource, G3Source};
/// let g3 = G3Source::Isolated { down_bps: 2e6, up_bps: 1e6 };
/// let (down, up) = g3.phone_limits(19.0);
/// assert_eq!(down.rate_bps, 2e6);
/// assert_eq!(up.rate_bps, 1e6);
/// assert_eq!(g3.cell(), None);
/// ```
// The variant sizes differ wildly (16 bytes vs a 392-byte share
// curve), but boxing the big one would defeat the type's purpose:
// specs must be `Copy` values built on worker stacks with no heap.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum G3Source {
    /// Private per-phone rates: each phone owns its pipe, no cell is
    /// shared and the hour of day is irrelevant. This reproduces the
    /// uncoupled prototype exactly.
    Isolated {
        /// Each phone's 3G downlink, bits/s.
        down_bps: f64,
        /// Each phone's 3G uplink, bits/s.
        up_bps: f64,
    },
    /// A per-phone share of a shared cell, sampled at the whole hour.
    Cell(CellProfile),
}

impl CapacitySource for G3Source {
    fn phone_limits(&self, hour: f64) -> (RateLimit, RateLimit) {
        let (down, up) = match self {
            G3Source::Isolated { down_bps, up_bps } => (*down_bps, *up_bps),
            G3Source::Cell(profile) => {
                let h = hour.rem_euclid(24.0).floor() as usize % 24;
                (profile.down_bps[h], profile.up_bps[h])
            }
        };
        (RateLimit::new(down), RateLimit::new(up))
    }

    fn cell(&self) -> Option<u32> {
        match self {
            G3Source::Isolated { .. } => None,
            G3Source::Cell(profile) => Some(profile.cell),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_ignores_the_hour() {
        let g3 = G3Source::Isolated { down_bps: 2e6, up_bps: 1e6 };
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
        assert_ne!(a, G3Source::Isolated { down_bps: 1e6, up_bps: 5e5 });
    }
}
