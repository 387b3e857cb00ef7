//! The deterministic proxy-fleet harness at fleet scale: N whole
//! households from the live prototype (`threegol-proxy`), each an
//! isolated tokio runtime on its own virtual-network namespace,
//! **streamed** through the work-stealing [`Pool`] in chunks and
//! aggregated into a mergeable [`FleetDigest`].
//!
//! A [`Fleet`] value is the one entry point: a home count, a chunk
//! size, a [`RuntimeMode`], and a spec function from home index to
//! [`HomeSpec`]. The paper street ([`home_spec`]), the traced-scenario
//! street ([`scenario_spec`]) and each cell-coupled pass of
//! [`run_cell_fleet`] are just different spec functions.
//!
//! Nothing is ever materialized per home: a [`HomeSpec`] is a pure
//! `Copy` function of the home index built on the worker's stack, a
//! [`HomeReport`] is folded into the worker's chunk digest the moment
//! the home finishes, and [`crate::exec::fold`] absorbs chunk digests
//! into the fleet digest in chunk order as they arrive. The driver's
//! live state is one digest per in-flight chunk — a million-home fleet
//! runs in the same flat tens-of-megabytes RSS as a hundred-home one
//! (see [`FLEET_RSS_CEILING_BYTES`]).
//!
//! Determinism contract: each home is a deterministic function of its
//! index (own runtime, own virtual clock, own virtual net), chunk
//! digests fold homes in index order, and the fleet digest merges
//! chunks in chunk order — so the final digest is byte-identical for
//! any worker count and chunk size, across repeated runs. All
//! [`FleetDigest`] state is exactly mergeable (integer counts,
//! fixed-point integer sums, min/max, histogram buckets, and a
//! polynomial hash monoid), so the merge is associative as well as
//! order-preserving; see `DESIGN.md` §11.

use std::cell::RefCell;

use threegol_proxy::{
    CellProfile, Home, HomeReport, HomeSpec, Tier, MAX_SCENARIO_DAYS, NO_CELL, SCENARIO_FP_SCALE,
};
use threegol_radio::{CellLoad, CellMap};
use tokio::runtime::Runtime;

use crate::exec::{fold, map, Pool};

/// The spec for home `index`: the paper-default household with the
/// access links cycled through the four ADSL [`Tier`]s and
/// one-to-three phones per home, so the fleet is heterogeneous (a
/// street, not one house copied N times) while staying a pure function
/// of the index.
pub fn home_spec(index: u32) -> HomeSpec {
    HomeSpec::tier(Tier::of_index(index)).index(index).devices(1 + (index % 3) as usize)
}

/// The spec for home `index` of a traced-scenario fleet: the same
/// heterogeneous street as [`home_spec`], driven by the multi-day
/// scenario engine from local midnight (`hour(0)`, so every simulated
/// day is complete) instead of the fixed paper script.
pub fn scenario_spec(index: u32, days: u16, seed: u64) -> HomeSpec {
    home_spec(index).hour(0).traced(days, seed)
}

/// Default homes per streamed unit: big enough that pool bookkeeping
/// is noise (a chunk is hundreds of milliseconds of work), small
/// enough that a million-home fleet still load-balances across
/// workers and the reorder buffer stays tiny.
pub const DEFAULT_CHUNK: usize = 64;

/// Documented hard ceiling on peak RSS for a streamed fleet run of
/// *any* size, one million homes included: 256 MiB.
///
/// The streamed design makes peak memory a function of the worker
/// count (one in-flight chunk digest per worker plus one home's
/// transient allocations per worker), never of the fleet size; the
/// `fleet_scale` integration test fails if a run exceeds this.
pub const FLEET_RSS_CEILING_BYTES: u64 = 256 * 1024 * 1024;

/// Number of buckets in a [`MetricDigest`] histogram.
pub(crate) const HIST_BUCKETS: usize = 64;

/// Fixed-point scale for exactly-mergeable metric sums: values are
/// accumulated as `round(v * 2^20)` in 128-bit integers, so summation
/// is associative to the last bit (unlike `f64` addition) while
/// keeping ~1e-6 absolute resolution and room for a million homes of
/// gigabyte-sized byte counts.
const FP_SCALE: f64 = (1u64 << 20) as f64;

/// 64-bit FNV-1a offset basis / prime (the prime doubles as the odd
/// multiplier of the polynomial hash monoid).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn to_fp(v: f64) -> i128 {
    (v * FP_SCALE).round() as i128
}

fn from_fp(fp: i128) -> f64 {
    fp as f64 / FP_SCALE
}

/// Fold one fixed-size row into another, element by element. Every row
/// in the digests is integers, so this add is exact and associative.
fn add_rows<T: Copy + std::ops::AddAssign, const N: usize>(mine: &mut [T; N], theirs: &[T; N]) {
    for (mine, theirs) in mine.iter_mut().zip(theirs) {
        *mine += *theirs;
    }
}

/// Mergeable summary of one per-home metric: count, exact fixed-point
/// sum, min/max, and a 64-bucket quarter-log2 histogram covering
/// `[2^-4, 2^12)` (0.0625 .. 4096, ~19% per bucket) from which
/// quantiles are estimated. Every field merges exactly (integer adds,
/// float min/max), so [`MetricDigest::merge`] is associative and a
/// chunked merge is bit-identical to the sequential fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDigest {
    /// Observations folded in.
    pub count: u64,
    /// Exact sum, fixed-point (`2^-20` units).
    sum_fp: i128,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
    /// Quarter-log2 bucket counts; values outside the covered range
    /// clamp to the end buckets.
    pub hist: [u64; HIST_BUCKETS],
}

impl MetricDigest {
    /// The identity digest: no observations.
    pub fn empty() -> MetricDigest {
        MetricDigest {
            count: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hist: [0; HIST_BUCKETS],
        }
    }

    fn bucket(v: f64) -> usize {
        // NaN and non-positive values (which log2 can't place) land in
        // the first bucket.
        if v <= 0.0 || v.is_nan() {
            return 0;
        }
        let b = ((v.log2() + 4.0) * 4.0).floor();
        b.clamp(0.0, (HIST_BUCKETS - 1) as f64) as usize
    }

    /// Fold one observation in. Values must be finite.
    pub fn observe(&mut self, v: f64) {
        assert!(v.is_finite(), "metric observation must be finite, got {v}");
        self.count += 1;
        self.sum_fp += to_fp(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.hist[Self::bucket(v)] += 1;
    }

    /// Fold another digest in. Exact and associative: integer adds and
    /// float min/max only.
    pub fn merge(&mut self, other: &MetricDigest) {
        self.count += other.count;
        self.sum_fp += other.sum_fp;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        add_rows(&mut self.hist, &other.hist);
    }

    /// Sum of all observations (fixed-point rounded).
    pub fn sum(&self) -> f64 {
        from_fp(self.sum_fp)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Median estimate from the histogram: the geometric midpoint of
    /// the bucket holding the middle observation (~±9% with the
    /// quarter-log2 buckets). 0 when empty.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Quantile estimate from the histogram (see [`MetricDigest::p50`]).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen > rank {
                return f64::exp2((b as f64 + 0.5) / 4.0 - 4.0);
            }
        }
        self.max
    }
}

/// Mergeable rollup of an entire fleet: per-metric digests, exact
/// byte totals, virtual-net event counts, and an order-sensitive
/// content hash — everything the old per-home report vector was for,
/// in a few kilobytes of `Copy` state.
///
/// `merge` is **associative** and order-preserving, so any chunking of
/// the home sequence produces bit-identical results as long as chunks
/// merge in home order — which [`Fleet::run`] guarantees for every
/// worker count. The content hash is a polynomial fold of per-home
/// FNV-1a hashes: home `i` contributes `fnv(report_i)` and the
/// combined hash of a sequence is `Σ fnv(report_i) · R^(n-1-i)` in
/// wrapping 64-bit arithmetic, represented as the pair
/// `(hash, R^n)` so two digests concatenate in O(1).
///
/// ```
/// use threegol_bench::fleet::FleetDigest;
/// use threegol_proxy::HomeReport;
///
/// let report = |index: u32| HomeReport {
///     index,
///     cell: index % 2,
///     hour: 21,
///     vod_bytes: 5e5,
///     vod_secs: 1.0 + index as f64,
///     vod_gain: 2.0,
///     upload_bytes: 3e5,
///     upload_secs: 2.0,
///     upload_gain: 3.0,
///     vod_device_bytes: 1e5,
///     upload_device_bytes: 2e5,
///     upload_wasted_bytes: 1e4,
///     ..HomeReport::empty(index)
/// };
///
/// // Sequential fold of four homes...
/// let mut all = FleetDigest::empty();
/// for i in 0..4 {
///     all.observe(&report(i));
/// }
///
/// // ...equals any associative chunking, merged in home order.
/// let mut left = FleetDigest::empty();
/// left.observe(&report(0));
/// let mut right = FleetDigest::empty();
/// right.observe(&report(1));
/// right.observe(&report(2));
/// right.observe(&report(3));
/// left.merge(&right);
/// assert_eq!(left, all);
/// assert_eq!(left.digest(), all.digest());
///
/// // ...but a different order is a different fleet.
/// let mut swapped = FleetDigest::empty();
/// swapped.observe(&report(1));
/// swapped.observe(&report(0));
/// let mut tail = FleetDigest::empty();
/// tail.observe(&report(2));
/// tail.observe(&report(3));
/// swapped.merge(&tail);
/// assert_ne!(swapped.digest(), all.digest());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDigest {
    /// Homes folded in.
    pub homes: u64,
    /// Per-home VoD prebuffer gain over ADSL alone.
    pub vod_gain: MetricDigest,
    /// Per-home photo-upload gain over ADSL alone.
    pub upload_gain: MetricDigest,
    /// Per-home VoD prebuffer wall time (virtual seconds).
    pub vod_secs: MetricDigest,
    /// Per-home upload batch wall time (virtual seconds).
    pub upload_secs: MetricDigest,
    /// Virtual-net events across all homes (socket binds + connects +
    /// datagrams delivered); bumped by the fleet runner, merged by
    /// addition.
    pub net_events: u64,
    /// Per-cell onloaded-byte accumulators for cell-coupled fleets
    /// (all zeros when every home runs isolated 3G).
    pub cells: CellDigest,
    /// Per-day / per-hour onload and allowance-overrun accumulators
    /// for traced-scenario fleets (all zeros when every home runs the
    /// paper-default script).
    pub scenario: ScenarioDigest,
    /// Exact totals, fixed-point.
    vod_bytes_fp: i128,
    upload_bytes_fp: i128,
    device_bytes_fp: i128,
    wasted_bytes_fp: i128,
    /// Polynomial content hash `Σ fnv(report_i) · R^(n-1-i)`.
    hash: u64,
    /// `R^n` for the `n` reports folded in — the concatenation weight.
    weight: u64,
}

/// FNV-1a over the canonical byte encoding of a report: the index and
/// every metric's exact bit pattern. Stable across platforms (no
/// `Debug` formatting involved) and sensitive to every bit of every
/// field.
fn fnv_report(r: &HomeReport) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&r.index.to_le_bytes());
    eat(&r.cell.to_le_bytes());
    eat(&[r.hour]);
    for v in [
        r.vod_bytes,
        r.vod_secs,
        r.vod_gain,
        r.upload_bytes,
        r.upload_secs,
        r.upload_gain,
        r.vod_device_bytes,
        r.upload_device_bytes,
        r.upload_wasted_bytes,
    ] {
        eat(&v.to_bits().to_le_bytes());
    }
    // Scenario fields are hashed only for traced runs: a paper-default
    // report (`days == 0`, every field below zero) keeps the exact byte
    // stream of the pre-scenario digest, so recorded baselines — the
    // million-home run included — stay bit-for-bit reproducible.
    if r.days > 0 {
        eat(&r.days.to_le_bytes());
        eat(&r.sessions.to_le_bytes());
        eat(&r.adsl_only_sessions.to_le_bytes());
        eat(&r.overrun_device_days.to_le_bytes());
        eat(&r.device_days.to_le_bytes());
        eat(&r.granted_allowance_fp.to_le_bytes());
        eat(&r.used_allowance_fp.to_le_bytes());
        for v in r.day_dl_fp.iter().chain(&r.day_ul_fp).chain(&r.hour_dl_fp).chain(&r.hour_ul_fp) {
            eat(&v.to_le_bytes());
        }
    }
    h
}

/// Most cells a [`CellDigest`] can track: enough for the paper's
/// city-scale sketch (§6 works with ~1.7 M lines over ~2000 cells but
/// the aggregate analysis bins them into a handful of archetypes)
/// while keeping the digest a fixed-size `Copy` value.
pub const MAX_CELLS: usize = 32;

/// Fixed-point scale for per-`(cell, hour)` byte accumulators: 2^10
/// units (~1 millibyte resolution). Coarser than [`FP_SCALE`] on
/// purpose — the slots are `i64`, and a million-home fleet can land
/// several terabytes of onloaded bytes in one `(cell, hour)` slot, so
/// the scale leaves ~2^53 bytes (8 petabytes) of headroom per slot.
const CELL_FP_SCALE: f64 = (1u64 << 10) as f64;

/// Exactly-mergeable per-cell onload accumulators: for every
/// `(cell, hour-of-day)` slot, the fixed-point sum of downlink (VoD)
/// and uplink (upload) bytes that crossed 3G paths, plus a per-cell
/// home count. All state is integers, so `merge` is element-wise
/// addition — associative to the last bit, like the rest of
/// [`FleetDigest`].
///
/// Homes with [`NO_CELL`] (isolated 3G) are not accumulated; a
/// non-`NO_CELL` cell index must be below [`MAX_CELLS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellDigest {
    /// Homes attached per cell.
    pub homes: [u64; MAX_CELLS],
    /// Downlink onloaded bytes per `(cell, hour)`, fixed-point
    /// (`cell * 24 + hour` layout, `2^-10` units).
    dl_fp: [i64; MAX_CELLS * 24],
    /// Uplink onloaded bytes per `(cell, hour)`, same layout.
    ul_fp: [i64; MAX_CELLS * 24],
}

impl CellDigest {
    /// The identity digest: no homes, no bytes.
    pub fn empty() -> CellDigest {
        CellDigest { homes: [0; MAX_CELLS], dl_fp: [0; MAX_CELLS * 24], ul_fp: [0; MAX_CELLS * 24] }
    }

    fn to_cell_fp(v: f64) -> i64 {
        (v * CELL_FP_SCALE).round() as i64
    }

    /// Fold one home's onload into its `(cell, hour)` slot. No-op for
    /// isolated homes.
    pub fn observe(&mut self, report: &HomeReport) {
        if report.cell == NO_CELL {
            return;
        }
        let cell = report.cell as usize;
        assert!(cell < MAX_CELLS, "cell {cell} out of digest range");
        let slot = cell * 24 + (report.hour as usize % 24);
        self.homes[cell] += 1;
        self.dl_fp[slot] += Self::to_cell_fp(report.vod_device_bytes);
        self.ul_fp[slot] += Self::to_cell_fp(report.upload_device_bytes);
    }

    /// Fold another digest in: element-wise integer adds, exact and
    /// associative.
    pub fn merge(&mut self, other: &CellDigest) {
        add_rows(&mut self.homes, &other.homes);
        add_rows(&mut self.dl_fp, &other.dl_fp);
        add_rows(&mut self.ul_fp, &other.ul_fp);
    }

    /// Onloaded bytes for cell `cell` at hour `hour`, `(down, up)`.
    pub fn bytes_at(&self, cell: u32, hour: usize) -> (f64, f64) {
        let slot = cell as usize * 24 + hour % 24;
        (self.dl_fp[slot] as f64 / CELL_FP_SCALE, self.ul_fp[slot] as f64 / CELL_FP_SCALE)
    }

    /// Total onloaded bytes across all cells and hours, `(down, up)`.
    pub fn total_bytes(&self) -> (f64, f64) {
        let dl: i64 = self.dl_fp.iter().sum();
        let ul: i64 = self.ul_fp.iter().sum();
        (dl as f64 / CELL_FP_SCALE, ul as f64 / CELL_FP_SCALE)
    }

    /// The accumulated load on the first `cells` cells as
    /// [`CellLoad`]s: the hourly byte sums become mean extra bits/s
    /// over that hour, with each simulated home standing in for
    /// `scale_per_home` city households (the fleet samples the city;
    /// see `CellFleetConfig::scale_per_home`).
    pub fn loads(&self, cells: u32, scale_per_home: f64) -> Vec<CellLoad> {
        (0..cells)
            .map(|cell| {
                let mut load = CellLoad::empty(cell);
                load.homes = self.homes[cell as usize];
                for hour in 0..24 {
                    let (dl, ul) = self.bytes_at(cell, hour);
                    load.dl_bps[hour] = dl * 8.0 / 3600.0 * scale_per_home;
                    load.ul_bps[hour] = ul * 8.0 / 3600.0 * scale_per_home;
                }
                load
            })
            .collect()
    }
}

/// Exactly-mergeable accumulators for traced-scenario fleets
/// (DESIGN.md §14): per-day and per-hour onloaded bytes in `i64`
/// fixed-point (the reports already carry them at
/// [`SCENARIO_FP_SCALE`]), session counters, and the live allowance
/// loop's overrun/grant tallies. All integers, so `merge` is
/// element-wise addition — associative to the last bit, keeping the
/// four-invariant determinism contract for scenario fleets.
///
/// Paper-default reports (`days == 0`) are not accumulated, so a mixed
/// or classic fleet leaves this digest at the identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioDigest {
    /// Traced homes folded in.
    pub homes: u64,
    /// Total simulated device-days.
    pub device_days: u64,
    /// Device-days that exhausted a positive granted allowance.
    pub overrun_device_days: u64,
    /// VoD + upload sessions executed.
    pub sessions: u64,
    /// Sessions that ran ADSL-only (no admissible 3G path).
    pub adsl_only_sessions: u64,
    /// Daily allowance granted across device-days, fixed-point bytes.
    granted_allowance_fp: i64,
    /// Allowance consumed (`min(used, granted)` per device-day),
    /// fixed-point bytes.
    used_allowance_fp: i64,
    /// Downlink onload per scenario day, fixed-point bytes.
    day_dl_fp: [i64; MAX_SCENARIO_DAYS],
    /// Uplink onload per scenario day, fixed-point bytes.
    day_ul_fp: [i64; MAX_SCENARIO_DAYS],
    /// Downlink onload per hour of day, fixed-point bytes.
    hour_dl_fp: [i64; 24],
    /// Uplink onload per hour of day, fixed-point bytes.
    hour_ul_fp: [i64; 24],
}

impl ScenarioDigest {
    /// The identity digest: no traced homes, no bytes.
    pub fn empty() -> ScenarioDigest {
        ScenarioDigest {
            homes: 0,
            device_days: 0,
            overrun_device_days: 0,
            sessions: 0,
            adsl_only_sessions: 0,
            granted_allowance_fp: 0,
            used_allowance_fp: 0,
            day_dl_fp: [0; MAX_SCENARIO_DAYS],
            day_ul_fp: [0; MAX_SCENARIO_DAYS],
            hour_dl_fp: [0; 24],
            hour_ul_fp: [0; 24],
        }
    }

    /// Fold one home's scenario block in. No-op for paper-default
    /// reports.
    pub fn observe(&mut self, report: &HomeReport) {
        if report.days == 0 {
            return;
        }
        self.homes += 1;
        self.device_days += report.device_days as u64;
        self.overrun_device_days += report.overrun_device_days as u64;
        self.sessions += report.sessions as u64;
        self.adsl_only_sessions += report.adsl_only_sessions as u64;
        self.granted_allowance_fp += report.granted_allowance_fp;
        self.used_allowance_fp += report.used_allowance_fp;
        add_rows(&mut self.day_dl_fp, &report.day_dl_fp);
        add_rows(&mut self.day_ul_fp, &report.day_ul_fp);
        add_rows(&mut self.hour_dl_fp, &report.hour_dl_fp);
        add_rows(&mut self.hour_ul_fp, &report.hour_ul_fp);
    }

    /// Fold another digest in: element-wise integer adds, exact and
    /// associative.
    pub fn merge(&mut self, other: &ScenarioDigest) {
        self.homes += other.homes;
        self.device_days += other.device_days;
        self.overrun_device_days += other.overrun_device_days;
        self.sessions += other.sessions;
        self.adsl_only_sessions += other.adsl_only_sessions;
        self.granted_allowance_fp += other.granted_allowance_fp;
        self.used_allowance_fp += other.used_allowance_fp;
        add_rows(&mut self.day_dl_fp, &other.day_dl_fp);
        add_rows(&mut self.day_ul_fp, &other.day_ul_fp);
        add_rows(&mut self.hour_dl_fp, &other.hour_dl_fp);
        add_rows(&mut self.hour_ul_fp, &other.hour_ul_fp);
    }

    /// Onloaded bytes on scenario day `day`, `(down, up)`.
    pub fn bytes_on_day(&self, day: usize) -> (f64, f64) {
        (
            self.day_dl_fp[day] as f64 / SCENARIO_FP_SCALE,
            self.day_ul_fp[day] as f64 / SCENARIO_FP_SCALE,
        )
    }

    /// Onloaded bytes at hour of day `hour`, `(down, up)`.
    pub fn bytes_at_hour(&self, hour: usize) -> (f64, f64) {
        (
            self.hour_dl_fp[hour % 24] as f64 / SCENARIO_FP_SCALE,
            self.hour_ul_fp[hour % 24] as f64 / SCENARIO_FP_SCALE,
        )
    }

    /// Fraction of device-days with a positive allowance fully
    /// exhausted — the live overrun rate the §6 estimator design
    /// targets at "under one day per month" (≈ 0.033).
    pub fn overrun_rate(&self) -> f64 {
        if self.device_days == 0 {
            return 0.0;
        }
        self.overrun_device_days as f64 / self.device_days as f64
    }

    /// Fraction of the granted allowance the workload actually
    /// consumed (`Σ min(used, granted) / Σ granted`).
    pub fn captured_fraction(&self) -> f64 {
        if self.granted_allowance_fp == 0 {
            return 0.0;
        }
        self.used_allowance_fp as f64 / self.granted_allowance_fp as f64
    }

    /// Total allowance granted across device-days, bytes.
    pub fn granted_bytes(&self) -> f64 {
        self.granted_allowance_fp as f64 / SCENARIO_FP_SCALE
    }
}

impl FleetDigest {
    /// The identity digest: zero homes. Merging it in either direction
    /// is a no-op.
    pub fn empty() -> FleetDigest {
        FleetDigest {
            homes: 0,
            vod_gain: MetricDigest::empty(),
            upload_gain: MetricDigest::empty(),
            vod_secs: MetricDigest::empty(),
            upload_secs: MetricDigest::empty(),
            net_events: 0,
            cells: CellDigest::empty(),
            scenario: ScenarioDigest::empty(),
            vod_bytes_fp: 0,
            upload_bytes_fp: 0,
            device_bytes_fp: 0,
            wasted_bytes_fp: 0,
            hash: 0,
            weight: 1,
        }
    }

    /// Fold one home's report in (appends to the hashed sequence).
    pub fn observe(&mut self, report: &HomeReport) {
        self.homes += 1;
        self.vod_gain.observe(report.vod_gain);
        self.upload_gain.observe(report.upload_gain);
        self.vod_secs.observe(report.vod_secs);
        self.upload_secs.observe(report.upload_secs);
        self.cells.observe(report);
        self.scenario.observe(report);
        self.vod_bytes_fp += to_fp(report.vod_bytes);
        self.upload_bytes_fp += to_fp(report.upload_bytes);
        self.device_bytes_fp += to_fp(report.vod_device_bytes + report.upload_device_bytes);
        self.wasted_bytes_fp += to_fp(report.upload_wasted_bytes);
        self.hash = self.hash.wrapping_mul(FNV_PRIME).wrapping_add(fnv_report(report));
        self.weight = self.weight.wrapping_mul(FNV_PRIME);
    }

    /// Concatenate `other`'s home sequence after this one.
    ///
    /// Associative and exact: counts, histogram buckets and
    /// fixed-point sums add; min/max combine; the content hashes
    /// concatenate through the `(hash, weight)` monoid — so
    /// `(a·b)·c == a·(b·c)` bit for bit, and any chunked merge in
    /// home order equals the sequential fold. See the type-level
    /// example.
    pub fn merge(&mut self, other: &FleetDigest) {
        self.homes += other.homes;
        self.vod_gain.merge(&other.vod_gain);
        self.upload_gain.merge(&other.upload_gain);
        self.vod_secs.merge(&other.vod_secs);
        self.upload_secs.merge(&other.upload_secs);
        self.net_events += other.net_events;
        self.cells.merge(&other.cells);
        self.scenario.merge(&other.scenario);
        self.vod_bytes_fp += other.vod_bytes_fp;
        self.upload_bytes_fp += other.upload_bytes_fp;
        self.device_bytes_fp += other.device_bytes_fp;
        self.wasted_bytes_fp += other.wasted_bytes_fp;
        self.hash = self.hash.wrapping_mul(other.weight).wrapping_add(other.hash);
        self.weight = self.weight.wrapping_mul(other.weight);
    }

    /// The order-sensitive content hash of every report folded in: two
    /// fleets agree on this only if every home's every metric agrees
    /// bit for bit, in the same order.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Total VoD prebuffer bytes fetched across the fleet.
    pub fn vod_bytes(&self) -> f64 {
        from_fp(self.vod_bytes_fp)
    }

    /// Total upload batch bytes across the fleet.
    pub fn upload_bytes(&self) -> f64 {
        from_fp(self.upload_bytes_fp)
    }

    /// Total bytes that crossed 3G paths, both directions (VoD
    /// prefetches plus uploads).
    pub fn device_bytes(&self) -> f64 {
        from_fp(self.device_bytes_fp)
    }

    /// Total upload bytes moved by aborted duplicates.
    pub(crate) fn wasted_bytes(&self) -> f64 {
        from_fp(self.wasted_bytes_fp)
    }

    /// Human-readable rollup table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fleet: {} homes (virtual net, virtual time)\n", self.homes));
        out.push_str("gain over ADSL alone        min   ~p50   mean    max\n");
        for (name, d) in [("vod prebuffer", &self.vod_gain), ("photo upload", &self.upload_gain)] {
            out.push_str(&format!(
                "  {name:<24} {:>6.2} {:>6.2} {:>6.2} {:>6.2}\n",
                d.min,
                d.p50(),
                d.mean(),
                d.max
            ));
        }
        out.push_str(&format!(
            "onloaded {:.2} MB to 3G paths, {:.2} MB duplicate waste, \
             {} virtual-net events\n",
            self.device_bytes() / 1e6,
            self.wasted_bytes() / 1e6,
            self.net_events
        ));
        if self.scenario.device_days > 0 {
            let s = &self.scenario;
            out.push_str(&format!(
                "scenario: {} sessions over {} device-days ({} ADSL-only), \
                 overrun {}/{} device-days ({:.1}%), allowance captured {:.0}%\n",
                s.sessions,
                s.device_days,
                s.adsl_only_sessions,
                s.overrun_device_days,
                s.device_days,
                s.overrun_rate() * 100.0,
                s.captured_fraction() * 100.0,
            ));
            let peak_hour = (0..24)
                .max_by(|&a, &b| {
                    let (da, ua) = s.bytes_at_hour(a);
                    let (db, ub) = s.bytes_at_hour(b);
                    (da + ua).total_cmp(&(db + ub))
                })
                .unwrap_or(0);
            let (pd, pu) = s.bytes_at_hour(peak_hour);
            out.push_str(&format!(
                "scenario onload peaks {:.2} MB at {peak_hour:02}:00 (of {:.2} MB granted)\n",
                (pd + pu) / 1e6,
                s.granted_bytes() / 1e6,
            ));
        }
        out
    }
}

/// How each fleet worker obtains the tokio runtime a home runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeMode {
    /// One runtime per worker thread, [`Runtime::reset`] between homes
    /// (the default): the run queue, timer wheel, task registry, and
    /// virtual-net tables keep their allocations from home to home, so
    /// per-home setup is a handful of pointer writes instead of ~8
    /// fresh `Arc`s and maps.
    Reuse,
    /// A fresh runtime for every home — the pre-reuse behaviour, kept
    /// as the reference arm of the determinism contract (the fleet
    /// digest must be byte-identical in either mode).
    Fresh,
}

thread_local! {
    /// The worker thread's reused home runtime ([`RuntimeMode::Reuse`]).
    static HOME_RT: RefCell<Option<Runtime>> = const { RefCell::new(None) };
}

/// Hand `f` a runtime per `mode`: the thread's reused one (reset) or a
/// fresh throwaway.
fn with_runtime<R>(mode: RuntimeMode, f: impl FnOnce(&mut Runtime) -> R) -> R {
    match mode {
        RuntimeMode::Fresh => f(&mut Runtime::new()),
        RuntimeMode::Reuse => HOME_RT.with(|slot| {
            let mut slot = slot.borrow_mut();
            let rt = slot.get_or_insert_with(Runtime::new);
            rt.reset();
            f(rt)
        }),
    }
}

/// Run one home inside a runtime obtained per `mode`: its report and
/// that run's virtual-net event count (socket binds + connects +
/// datagrams delivered).
///
/// Panics if the home's workload fails: in the virtual-net prototype
/// every failure is a bug, never weather.
fn run_home(spec: &HomeSpec, mode: RuntimeMode) -> (HomeReport, u64) {
    let (report, stats) = with_runtime(mode, |rt| {
        rt.block_on(async {
            let report = Home::run(spec).await;
            (report, tokio::net::stats())
        })
    });
    let report = report.unwrap_or_else(|e| panic!("home {} failed: {e}", spec.index));
    (report, stats.tcp_binds + stats.tcp_connects + stats.udp_binds + stats.datagrams)
}

/// A fleet of `homes` households, home `index` running under
/// `spec(index)`, streamed through the pool in `chunk`-home units.
///
/// `spec` must be a *pure* function of the index: it is called on
/// whichever worker's stack picks the chunk up, and determinism of the
/// digest rests on every call agreeing. [`Fleet::run`] is byte-identical
/// for any worker count, any chunk size and either [`RuntimeMode`],
/// because chunk digests fold homes in index order and merge in chunk
/// order.
///
/// ```
/// use threegol_bench::fleet::{home_spec, Fleet};
/// use threegol_bench::Pool;
///
/// let two = Pool::with(2, |pool| Fleet { chunk: 2, ..Fleet::new(4, home_spec) }.run(pool));
/// let seven = Pool::with(7, |pool| Fleet { chunk: 1, ..Fleet::new(4, home_spec) }.run(pool));
/// assert_eq!(two, seven);
/// assert_eq!(two.homes, 4);
/// assert!(two.upload_gain.min > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fleet<F> {
    /// Households in the fleet (home indices `0..homes`).
    pub homes: usize,
    /// Homes per streamed pool unit.
    pub chunk: usize,
    /// How each worker obtains the runtime a home runs under.
    pub mode: RuntimeMode,
    /// The spec for home `index`.
    pub spec: F,
}

impl<F> Fleet<F>
where
    F: Fn(u32) -> HomeSpec + Clone + Send + Sync + 'static,
{
    /// A fleet of `homes` homes under `spec`, streamed in
    /// [`DEFAULT_CHUNK`]-home units on reused runtimes.
    pub fn new(homes: usize, spec: F) -> Fleet<F> {
        Fleet { homes, chunk: DEFAULT_CHUNK, mode: RuntimeMode::Reuse, spec }
    }

    /// The pool units: `chunk`-home index ranges covering `0..homes`.
    /// The chunk is clamped to `1..=homes` before any index narrows to
    /// `u32`, so an oversized chunk runs the fleet as one unit.
    fn chunks(&self) -> Vec<(u32, u32)> {
        assert!(self.homes <= u32::MAX as usize, "home index space is u32");
        let chunk = self.chunk.clamp(1, self.homes.max(1));
        (0..self.homes)
            .step_by(chunk)
            .map(|start| (start as u32, self.homes.min(start.saturating_add(chunk)) as u32))
            .collect()
    }

    /// Run the fleet and return its digest.
    ///
    /// Memory is flat in the fleet size: no spec, report, or result
    /// vector of length `homes` ever exists (see module docs and
    /// [`FLEET_RSS_CEILING_BYTES`]).
    pub fn run(&self, pool: &Pool) -> FleetDigest {
        let (spec, mode) = (self.spec.clone(), self.mode);
        fold(
            pool,
            self.chunks(),
            move |&(start, end)| {
                let mut part = FleetDigest::empty();
                for index in start..end {
                    let (report, net_events) = run_home(&spec(index), mode);
                    part.observe(&report);
                    part.net_events += net_events;
                }
                part
            },
            FleetDigest::empty(),
            |mut acc, part| {
                acc.merge(&part);
                acc
            },
        )
    }

    /// Run the fleet and keep every per-home report, in index order —
    /// the materializing path for tests and close inspection. Folding
    /// the reports through [`FleetDigest::observe`] reproduces
    /// [`Fleet::run`]'s content hash; this holds `homes` reports in
    /// memory.
    pub fn reports(&self, pool: &Pool) -> Vec<HomeReport> {
        let (spec, mode) = (self.spec.clone(), self.mode);
        let chunks = map(pool, self.chunks(), move |&(start, end)| {
            (start..end).map(|index| run_home(&spec(index), mode).0).collect::<Vec<_>>()
        });
        chunks.concat()
    }
}

/// Configuration for a cell-coupled fleet run (see [`run_cell_fleet`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFleetConfig {
    /// Shared 3G cells in the city grid (≤ [`MAX_CELLS`]).
    pub cells: u32,
    /// Fixed-point passes to run before giving up on convergence.
    pub max_passes: u32,
    /// Convergence threshold: the loop stops once no per-phone share
    /// changed by more than this relative amount between passes.
    pub tolerance: f64,
    /// City households each simulated home stands in for when its
    /// onloaded bytes are charged to the cell. The paper's back of the
    /// envelope (§2.1) puts ~880 DSL households under one urban cell;
    /// the default of 1000 lets a thousand-home fleet model a
    /// million-household city.
    pub scale_per_home: f64,
}

impl Default for CellFleetConfig {
    fn default() -> CellFleetConfig {
        CellFleetConfig { cells: 8, max_passes: 8, tolerance: 0.05, scale_per_home: 1000.0 }
    }
}

/// The outcome of a cell-coupled fleet run: the final pass's digest,
/// how the fixed point went, and the per-cell load and share curves it
/// settled on.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFleetRun {
    /// The configuration the run used.
    pub config: CellFleetConfig,
    /// The city grid the fleet ran under.
    pub map: CellMap,
    /// Digest of the final pass (per-cell accumulators included).
    pub digest: FleetDigest,
    /// Fleet passes executed.
    pub passes: u32,
    /// Whether the share curves settled within the tolerance.
    pub converged: bool,
    /// Final per-cell 3GOL load (what the last pass put on each cell).
    pub loads: Vec<CellLoad>,
    /// The per-phone share curves the last pass ran under.
    pub profiles: Vec<CellProfile>,
}

impl CellFleetRun {
    /// Human-readable per-cell rollup: Fig 11 as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cells: {} shared 3G cells, {} pass{} ({}), \
             {:.0} households per simulated home\n",
            self.map.cells(),
            self.passes,
            if self.passes == 1 { "" } else { "es" },
            if self.converged { "converged" } else { "not converged" },
            self.config.scale_per_home,
        ));
        out.push_str(
            "cell  area              homes  peak-dl Mb/s  peak-ul Mb/s  peak-h  share@19h Mb/s\n",
        );
        for load in &self.loads {
            let site = self.map.site(load.cell);
            let share = &self.profiles[load.cell as usize];
            out.push_str(&format!(
                "  {:>2}  {:<16} {:>6}  {:>12.3}  {:>12.3}  {:>6}  {:>14.3}\n",
                load.cell,
                format!("{:?}", site.area),
                load.homes,
                load.peak_dl_bps() / 1e6,
                load.peak_ul_bps() / 1e6,
                load.peak_hour(),
                share.down_bps[19] / 1e6,
            ));
        }
        out
    }
}

/// Largest relative change between two share curves.
fn profile_shift(old: &CellProfile, new: &CellProfile) -> f64 {
    let mut shift: f64 = 0.0;
    for h in 0..24 {
        shift = shift.max((new.down_bps[h] - old.down_bps[h]).abs() / old.down_bps[h].max(1.0));
        shift = shift.max((new.up_bps[h] - old.up_bps[h]).abs() / old.up_bps[h].max(1.0));
    }
    shift
}

/// Nominal (uncontended) per-phone 3G downlink of a coupled cell,
/// bits/s.
const NOMINAL_DOWN_BPS: f64 = 2e6;

/// Nominal (uncontended) per-phone 3G uplink of a coupled cell, bits/s.
const NOMINAL_UP_BPS: f64 = 1e6;

/// Relaxation weight for the share update: each pass moves the shares
/// this fraction of the way toward the loads' implied shares. The raw
/// undamped update (1.0) can oscillate (low share → bytes shift to
/// ADSL → load drops → high share → …); 0.5 halves the oscillation
/// amplitude every pass.
const DAMPING: f64 = 0.5;

/// Per-phone share curves for every cell given the loads of the
/// previous pass (pure function of map + loads).
fn share_profiles(map: &CellMap, loads: &[CellLoad]) -> Vec<CellProfile> {
    loads
        .iter()
        .map(|load| {
            let (down_bps, up_bps) =
                map.phone_share(load.cell, NOMINAL_DOWN_BPS, NOMINAL_UP_BPS, load);
            CellProfile { cell: load.cell, down_bps, up_bps }
        })
        .collect()
}

/// Run a fleet coupled through shared 3G cells to its fixed point:
/// the paper's §6 question — what does a whole city of 3GOL homes do
/// to the cells it onloads onto? — answered by iteration.
///
/// Each pass streams the full fleet with every home's 3G capacity set
/// to its cell's per-phone share curve from the previous pass (pass 1
/// starts from the unloaded-cell shares). The pass digest's per-cell
/// accumulators then become the next pass's [`CellLoad`]s, and the
/// loop stops when no share moves by more than `config.tolerance`
/// (relative) or after `config.max_passes` passes. Load up → shares
/// down → the schedulers shift bytes back to ADSL → load down: the
/// same damping that makes the real system stable makes the iteration
/// converge.
///
/// Determinism: every pass input is a pure function of the previous
/// pass's digest, and every digest is byte-identical across worker
/// counts and chunk sizes — so the pass count, the convergence
/// verdict, the final profiles *and* the final digest are all
/// worker-invariant. The coupled fleet keeps the streamed fleet's
/// contract.
pub fn run_cell_fleet(
    homes: usize,
    chunk: usize,
    pool: &Pool,
    config: &CellFleetConfig,
) -> CellFleetRun {
    assert!(config.cells > 0 && config.cells as usize <= MAX_CELLS, "1..={MAX_CELLS} cells");
    assert!(config.max_passes > 0, "need at least one pass");
    let map = CellMap::city(config.cells);
    let empty: Vec<CellLoad> = (0..config.cells).map(CellLoad::empty).collect();
    let mut profiles = share_profiles(&map, &empty);
    let mut passes = 0;
    loop {
        passes += 1;
        let (pass_map, pass_profiles) = (map.clone(), profiles.clone());
        let spec = move |index| {
            let cell = pass_map.cell_of(index);
            home_spec(index).hour(pass_map.hour_of(index)).cell(pass_profiles[cell as usize])
        };
        let digest = Fleet { chunk, ..Fleet::new(homes, spec) }.run(pool);
        let loads = digest.cells.loads(config.cells, config.scale_per_home);
        let mut next = share_profiles(&map, &loads);
        // Relax: move only `DAMPING` of the way toward the implied
        // shares, so the load↔share oscillation contracts.
        for (new, old) in next.iter_mut().zip(profiles.iter()) {
            for h in 0..24 {
                new.down_bps[h] = old.down_bps[h] + DAMPING * (new.down_bps[h] - old.down_bps[h]);
                new.up_bps[h] = old.up_bps[h] + DAMPING * (new.up_bps[h] - old.up_bps[h]);
            }
        }
        let shift = profiles
            .iter()
            .zip(next.iter())
            .map(|(old, new)| profile_shift(old, new))
            .fold(0.0, f64::max);
        let converged = shift <= config.tolerance;
        if converged || passes >= config.max_passes {
            return CellFleetRun {
                config: *config,
                map,
                digest,
                passes,
                converged,
                loads,
                profiles,
            };
        }
        profiles = next;
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in bytes.
/// `None` where `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn specs_are_heterogeneous_but_deterministic() {
        assert_eq!(home_spec(5), home_spec(5));
        assert_ne!(home_spec(0).adsl_down_bps, home_spec(1).adsl_down_bps);
        assert_eq!(home_spec(0).devices, 1);
        assert_eq!(home_spec(2).devices, 3);
        assert_eq!(home_spec(4).adsl_down_bps, home_spec(0).adsl_down_bps);
        // The index space reaches a million homes and beyond.
        assert_eq!(home_spec(1_000_000).index, 1_000_000);
    }

    fn synthetic_report(index: u32) -> HomeReport {
        // Deterministic, heterogeneous, and full of awkward float
        // values so order-dependence would show.
        let x = (index as f64 * 0.7370915).sin().abs() + 0.01;
        let mut r = HomeReport {
            cell: if index.is_multiple_of(5) { threegol_proxy::NO_CELL } else { index % 5 },
            hour: (index % 24) as u8,
            vod_bytes: 5e5 + index as f64,
            vod_secs: x * 3.0,
            vod_gain: 0.5 + x * 4.0,
            upload_bytes: 3e5,
            upload_secs: x * 7.0,
            upload_gain: 0.3 + x * 11.0,
            vod_device_bytes: 2e5 * x,
            upload_device_bytes: 1e5 * x,
            upload_wasted_bytes: 1e4 * x,
            ..HomeReport::empty(index)
        };
        // A third of the synthetic street ran traced scenarios, so the
        // chunking/associativity sweeps below cover the scenario
        // accumulators too.
        if !index.is_multiple_of(3) {
            r.days = 1 + (index % 7) as u16;
            r.sessions = 2 + index % 9;
            r.adsl_only_sessions = index % 3;
            r.overrun_device_days = index % 4;
            r.device_days = r.days as u32 * 2;
            r.granted_allowance_fp = (index as i64 + 7) * 1_000_003;
            r.used_allowance_fp = index as i64 * 999_983;
            r.day_dl_fp[(index % 7) as usize] = index as i64 * 11;
            r.day_ul_fp[(index % 5) as usize] = index as i64 * 13;
            r.hour_dl_fp[(index % 24) as usize] = index as i64 * 17;
            r.hour_ul_fp[(index % 23) as usize] = index as i64 * 19;
        }
        r
    }

    /// Digest the chunked-by-`c` sequence `[0, n)`, merging chunk
    /// digests left to right — the shape a `c`-chunk fleet produces.
    fn chunked_digest(n: u32, c: u32) -> FleetDigest {
        let mut acc = FleetDigest::empty();
        let mut start = 0;
        while start < n {
            let mut part = FleetDigest::empty();
            for i in start..n.min(start + c) {
                part.observe(&synthetic_report(i));
            }
            acc.merge(&part);
            start += c;
        }
        acc
    }

    #[test]
    fn digest_merge_is_associative_and_matches_sequential_fold() {
        // 10k synthetic homes: the sequential fold vs every chunking a
        // 1-, 2- or 7-worker fleet run could produce (chunk sizes that
        // divide, don't divide, and exceed the fleet), bit for bit.
        let sequential = chunked_digest(10_000, u32::MAX);
        for chunk in [1, 2, 7, 64, 1000, 9999, 10_000, 20_000] {
            let chunked = chunked_digest(10_000, chunk);
            assert_eq!(chunked, sequential, "chunk size {chunk} diverged");
            assert_eq!(chunked.digest(), sequential.digest());
        }

        // Raw associativity on uneven splits: (a·b)·c == a·(b·c).
        let part = |lo: u32, hi: u32| {
            let mut d = FleetDigest::empty();
            for i in lo..hi {
                d.observe(&synthetic_report(i));
            }
            d
        };
        let (a, b, c) = (part(0, 17), part(17, 6000), part(6000, 10_000));
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        // Identity on both sides.
        let mut with_empty = FleetDigest::empty();
        with_empty.merge(&sequential);
        with_empty.merge(&FleetDigest::empty());
        assert_eq!(with_empty, sequential);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut forward = FleetDigest::empty();
        forward.observe(&synthetic_report(0));
        forward.observe(&synthetic_report(1));
        let mut backward = FleetDigest::empty();
        backward.observe(&synthetic_report(1));
        backward.observe(&synthetic_report(0));
        assert_ne!(forward.digest(), backward.digest());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = FleetDigest::empty();
        a.observe(&synthetic_report(3));
        let mut tweaked = synthetic_report(3);
        tweaked.upload_wasted_bytes = f64::from_bits(tweaked.upload_wasted_bytes.to_bits() ^ 1);
        let mut b = FleetDigest::empty();
        b.observe(&tweaked);
        assert_ne!(a.digest(), b.digest());
        // The hash also covers the cell-coupling fields.
        let mut recelled = synthetic_report(3);
        recelled.cell += 1;
        let mut c = FleetDigest::empty();
        c.observe(&recelled);
        assert_ne!(a.digest(), c.digest());
        let mut rehoured = synthetic_report(3);
        rehoured.hour += 1;
        let mut d = FleetDigest::empty();
        d.observe(&rehoured);
        assert_ne!(a.digest(), d.digest());
    }

    /// A random report: finite floats, a cell below [`MAX_CELLS`], rows
    /// small enough that a few hundred reports sum without overflow,
    /// scenario fields filled in either way, and `days == 0` one time
    /// in three.
    fn random_report(rng: &mut StdRng) -> HomeReport {
        let mut r = HomeReport::empty(rng.random());
        r.cell = rng.random_range(0..MAX_CELLS as u32);
        r.hour = rng.random_range(0..24u8);
        for v in [
            &mut r.vod_bytes,
            &mut r.vod_secs,
            &mut r.vod_gain,
            &mut r.upload_bytes,
            &mut r.upload_secs,
            &mut r.upload_gain,
            &mut r.vod_device_bytes,
            &mut r.upload_device_bytes,
            &mut r.upload_wasted_bytes,
        ] {
            *v = rng.random_range(1e-3..1e6);
        }
        let days = rng.random_range(1..MAX_SCENARIO_DAYS as u16 + 1);
        r.days = if rng.random_range(0..3u32) == 0 { 0 } else { days };
        for v in [
            &mut r.sessions,
            &mut r.adsl_only_sessions,
            &mut r.overrun_device_days,
            &mut r.device_days,
        ] {
            *v = rng.random();
        }
        for v in [&mut r.granted_allowance_fp, &mut r.used_allowance_fp]
            .into_iter()
            .chain(r.day_dl_fp.iter_mut())
            .chain(r.day_ul_fp.iter_mut())
            .chain(r.hour_dl_fp.iter_mut())
            .chain(r.hour_ul_fp.iter_mut())
        {
            *v = rng.random_range(0..1i64 << 40);
        }
        r
    }

    /// Flip mantissa bit `b % 52` of a float, which keeps it finite.
    fn flip_f64(v: &mut f64, b: u64) {
        *v = f64::from_bits(v.to_bits() ^ 1 << (b % 52));
    }

    /// Flip bit `b % 64` of element `b / 64` (wrapped) of a row.
    fn flip_row<const N: usize>(row: &mut [i64; N], b: u64) {
        row[(b / 64) as usize % N] ^= 1 << (b % 64);
    }

    /// A mutator that flips one bit, picked by its `u64` argument, of
    /// one report field.
    type Flip = fn(&mut HomeReport, u64);

    /// Every `HomeReport` field, with a one-bit mutator and whether it
    /// is a scenario field (hashed only when `days > 0`). `cell` flips
    /// a bit below [`MAX_CELLS`], so the report stays observable.
    fn report_fields() -> Vec<(&'static str, bool, Flip)> {
        vec![
            ("index", false, |r, b| r.index ^= 1 << (b % 32)),
            ("cell", false, |r, b| r.cell ^= 1 << (b % 5)),
            ("hour", false, |r, b| r.hour ^= 1 << (b % 8)),
            ("vod_bytes", false, |r, b| flip_f64(&mut r.vod_bytes, b)),
            ("vod_secs", false, |r, b| flip_f64(&mut r.vod_secs, b)),
            ("vod_gain", false, |r, b| flip_f64(&mut r.vod_gain, b)),
            ("upload_bytes", false, |r, b| flip_f64(&mut r.upload_bytes, b)),
            ("upload_secs", false, |r, b| flip_f64(&mut r.upload_secs, b)),
            ("upload_gain", false, |r, b| flip_f64(&mut r.upload_gain, b)),
            ("vod_device_bytes", false, |r, b| flip_f64(&mut r.vod_device_bytes, b)),
            ("upload_device_bytes", false, |r, b| flip_f64(&mut r.upload_device_bytes, b)),
            ("upload_wasted_bytes", false, |r, b| flip_f64(&mut r.upload_wasted_bytes, b)),
            ("days", false, |r, b| r.days ^= 1 << (b % 16)),
            ("sessions", true, |r, b| r.sessions ^= 1 << (b % 32)),
            ("adsl_only_sessions", true, |r, b| r.adsl_only_sessions ^= 1 << (b % 32)),
            ("overrun_device_days", true, |r, b| r.overrun_device_days ^= 1 << (b % 32)),
            ("device_days", true, |r, b| r.device_days ^= 1 << (b % 32)),
            ("granted_allowance_fp", true, |r, b| r.granted_allowance_fp ^= 1 << (b % 64)),
            ("used_allowance_fp", true, |r, b| r.used_allowance_fp ^= 1 << (b % 64)),
            ("day_dl_fp", true, |r, b| flip_row(&mut r.day_dl_fp, b)),
            ("day_ul_fp", true, |r, b| flip_row(&mut r.day_ul_fp, b)),
            ("hour_dl_fp", true, |r, b| flip_row(&mut r.hour_dl_fp, b)),
            ("hour_ul_fp", true, |r, b| flip_row(&mut r.hour_ul_fp, b)),
        ]
    }

    #[test]
    fn every_report_field_reaches_the_digest_and_merges_exactly() {
        // A new `HomeReport` field changes this size: hash it in
        // `fnv_report`, fold it where it belongs, list it in
        // `report_fields`, and only then move the pin.
        assert_eq!(
            std::mem::size_of::<HomeReport>(),
            1064,
            "HomeReport changed shape: hash, fold and list the new field"
        );
        let observed = |r: &HomeReport| {
            let mut d = FleetDigest::empty();
            d.observe(r);
            d
        };
        let mut rng = StdRng::seed_from_u64(0x3601);
        for _ in 0..200 {
            let traced = random_report(&mut rng);
            let traced = HomeReport { days: traced.days.max(1), ..traced };
            let paper = HomeReport { days: 0, ..traced };
            for (name, scenario, flip) in report_fields() {
                let b: u64 = rng.random();
                for base in [traced, paper] {
                    let mut flipped = base;
                    flip(&mut flipped, b);
                    assert_ne!(flipped, base, "{name}: bit {b} did not flip");
                    let (before, after) = (observed(&base), observed(&flipped));
                    if scenario && base.days == 0 {
                        assert_eq!(after, before, "{name} moved a paper-default digest");
                    } else {
                        assert_ne!(
                            after.digest(),
                            before.digest(),
                            "{name} bit {b} missed the hash at days {}",
                            base.days
                        );
                    }
                }
            }
        }

        // Any chunking of a random street, merged in any association,
        // is the sequential fold: every accumulator is exact.
        let street: Vec<HomeReport> = (0..256).map(|_| random_report(&mut rng)).collect();
        let mut sequential = FleetDigest::empty();
        for r in &street {
            sequential.observe(r);
        }
        for _ in 0..50 {
            let mut parts = Vec::new();
            let mut rest = &street[..];
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.random_range(1..rest.len() + 1));
                let mut part = FleetDigest::empty();
                for r in chunk {
                    part.observe(r);
                }
                parts.push(part);
                rest = tail;
            }
            while parts.len() > 1 {
                let i = rng.random_range(0..parts.len() - 1);
                let right = parts.remove(i + 1);
                parts[i].merge(&right);
            }
            assert_eq!(parts[0], sequential);
        }
    }

    #[test]
    fn scenario_digest_accumulates_and_gates_on_days() {
        let mut digest = FleetDigest::empty();
        for i in 0..200u32 {
            digest.observe(&synthetic_report(i));
        }
        // Totals match a direct sum over the traced reports.
        let mut device_days = 0u64;
        let mut overruns = 0u64;
        let mut granted = 0i64;
        let mut day3_dl = 0i64;
        for i in 0..200u32 {
            let r = synthetic_report(i);
            device_days += u64::from(r.device_days);
            overruns += u64::from(r.overrun_device_days);
            granted += r.granted_allowance_fp;
            day3_dl += r.day_dl_fp[3];
        }
        assert_eq!(digest.scenario.device_days, device_days);
        assert_eq!(digest.scenario.overrun_device_days, overruns);
        assert!(
            (digest.scenario.granted_bytes() - granted as f64 / SCENARIO_FP_SCALE).abs() < 1e-9
        );
        assert!(
            (digest.scenario.bytes_on_day(3).0 - day3_dl as f64 / SCENARIO_FP_SCALE).abs() < 1e-9
        );
        let rate = digest.scenario.overrun_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!((rate - overruns as f64 / device_days as f64).abs() < 1e-12);
        // The render names the scenario once device-days exist.
        assert!(digest.render().contains("scenario:"));

        // Every scenario field reaches the hash…
        let traced = synthetic_report(4); // 4 % 3 != 0 → traced
        assert!(traced.days > 0);
        let base = {
            let mut d = FleetDigest::empty();
            d.observe(&traced);
            d.digest()
        };
        for tweak in 0..4usize {
            let mut t = traced;
            match tweak {
                0 => t.overrun_device_days += 1,
                1 => t.granted_allowance_fp ^= 1,
                2 => t.day_ul_fp[7] ^= 1,
                _ => t.hour_dl_fp[21] ^= 1,
            }
            let mut d = FleetDigest::empty();
            d.observe(&t);
            assert_ne!(d.digest(), base, "scenario tweak {tweak} was invisible");
        }

        // …but only when days > 0: a paper-default report hashes and
        // accumulates identically whatever its (unused) scenario fields
        // hold, so pre-scenario recorded digests stay valid.
        let paper = synthetic_report(3); // 3 % 3 == 0 → paper default
        assert_eq!(paper.days, 0);
        let mut junk = paper;
        junk.sessions = 999;
        junk.granted_allowance_fp = 123_456;
        junk.hour_ul_fp[5] = 789;
        let mut a = FleetDigest::empty();
        a.observe(&paper);
        let mut b = FleetDigest::empty();
        b.observe(&junk);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.scenario.device_days, 0);
        assert!(!a.render().contains("scenario:"));
    }

    #[test]
    fn cell_digest_buckets_by_cell_and_hour() {
        let mut digest = CellDigest::empty();
        for i in 0..200u32 {
            digest.observe(&synthetic_report(i));
        }
        // Isolated homes (index % 5 == 0) never land in a cell.
        assert_eq!(digest.homes.iter().sum::<u64>(), 160);
        assert_eq!(digest.homes[0], 0);
        // Byte totals match a direct sum over the coupled reports.
        let (dl, ul) = digest.total_bytes();
        let mut want_dl = 0.0;
        let mut want_ul = 0.0;
        for i in 0..200u32 {
            let r = synthetic_report(i);
            if r.cell != threegol_proxy::NO_CELL {
                want_dl += r.vod_device_bytes;
                want_ul += r.upload_device_bytes;
            }
        }
        assert!((dl - want_dl).abs() < 1.0, "{dl} vs {want_dl}");
        assert!((ul - want_ul).abs() < 1.0);
        // Loads convert bytes to mean bits/s with the city scale.
        let loads = digest.loads(5, 1000.0);
        let r = synthetic_report(7); // cell 2, hour 7
        let (dl7, _) = digest.bytes_at(2, 7);
        assert!(dl7 >= r.vod_device_bytes * 0.999);
        assert!((loads[2].dl_bps[7] - dl7 * 8.0 / 3600.0 * 1000.0).abs() < 1e-6);
        assert_eq!(loads[2].cell, 2);
        assert_eq!(loads[2].homes, digest.homes[2]);
    }

    #[test]
    fn cell_fleet_reaches_a_deterministic_fixed_point() {
        let config =
            CellFleetConfig { cells: 4, scale_per_home: 20_000.0, ..CellFleetConfig::default() };
        let a = Pool::with(2, |pool| run_cell_fleet(12, 3, pool, &config));
        let b = Pool::with(1, |pool| run_cell_fleet(12, 5, pool, &config));
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest.digest(), b.digest.digest());
        // Every home landed in a cell, and the render names them all.
        assert_eq!(a.digest.cells.homes.iter().sum::<u64>(), 12);
        assert!(a.render().contains("shared 3G cells"));
    }

    #[test]
    fn metric_digest_summarizes() {
        let mut d = MetricDigest::empty();
        for v in [1.0, 2.0, 3.0] {
            d.observe(v);
        }
        assert_eq!(d.count, 3);
        assert_eq!((d.min, d.max), (1.0, 3.0));
        assert!((d.mean() - 2.0).abs() < 1e-5);
        // Histogram p50: within one quarter-log2 bucket of the truth.
        assert!((d.p50() / 2.0).log2().abs() < 0.26, "p50 {}", d.p50());
    }

    #[test]
    fn small_fleet_digests_and_renders() {
        let fleet = Fleet { chunk: 2, ..Fleet::new(4, home_spec) };
        let digest = Pool::with(2, |pool| fleet.run(pool));
        assert_eq!(digest.homes, 4);
        assert!(digest.upload_gain.min > 0.0);
        assert!(digest.device_bytes() > 0.0);
        assert!(digest.net_events > 0);
        assert!(!digest.render().is_empty());
        // The materializing path sees the same homes.
        let reports = Pool::with(2, |pool| fleet.reports(pool));
        let mut refold = FleetDigest::empty();
        for r in &reports {
            refold.observe(r);
        }
        assert_eq!(refold.digest(), digest.digest());
    }
}
