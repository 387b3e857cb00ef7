//! The scenario engine: trace-driven multi-day homes (DESIGN.md §14).
//!
//! [`crate::Scenario::Traced`] replaces the fixed VoD-prebuffer +
//! photo-upload script with days of virtual time driven from the
//! per-home stream in `threegol-traces::scenario`: VoD sessions and
//! upload batches land on the wired diurnal curve, phones leave and
//! rejoin the home Wi-Fi mid-day (churn), and the §6 safe-allowance
//! estimator runs *live* — each simulated day grants every phone its
//! `3GOLa(t)/30` daily allowance, an exhausted phone stops announcing
//! until the next day boundary (transfers degrade gracefully to
//! ADSL-only), and every 30-day month boundary refits the estimator
//! from the accrued free-capacity history.
//!
//! Three design points keep a week of virtual time as cheap as the
//! single-shot script, and byte-reproducible:
//!
//! * **Announce-on-demand.** The engine runs on the same household rig
//!   as the paper script: the home comes up once, and right before each
//!   session every present, quota-positive phone sends one beacon. A
//!   phone beaconing every 100 ms would send ~6·10⁶ datagrams per
//!   simulated week. The 3 s discovery TTL expires the entries in the
//!   (hours-long) gaps between sessions, which is exactly how a
//!   departed or exhausted phone withdraws its path.
//! * **Events over polling.** The virtual clock jumps straight to the
//!   next scheduled event, so wall cost is O(sessions), not O(days).
//! * **Fixed-point accounting.** Per-day and per-hour onload lands in
//!   `i64` fixed-point slots ([`crate::home::SCENARIO_FP_SCALE`]) so
//!   the fleet digest merges them exactly associatively.

use std::time::Duration;

use bytes::Bytes;
use tokio::time::Instant;

use threegol_caps::{AllowanceEstimator, LiveAllowance};
use threegol_http::HttpError;
use threegol_traces::scenario::{device_free_history, home_day, HomeEvent, ScenarioConfig};

use crate::capacity::CapacitySource;
use crate::device::DeviceProxy;
use crate::home::{
    photo_body, HomeReport, HomeSpec, Rig, MAX_SCENARIO_DAYS, NO_CELL, SCENARIO_FP_SCALE,
};

const DAY_SECS: f64 = 86_400.0;

/// Bytes → the report's fixed-point representation.
fn fp(bytes: f64) -> i64 {
    (bytes * SCENARIO_FP_SCALE).round() as i64
}

/// Advance the virtual clock to `offset_secs` past `epoch` (no-op if
/// already there — day-0 events before the start hour are skipped by
/// the caller, so offsets are otherwise monotone).
async fn advance_to(epoch: &Instant, offset_secs: f64) {
    let elapsed = epoch.elapsed().as_secs_f64();
    if offset_secs > elapsed {
        tokio::time::sleep(Duration::from_secs_f64(offset_secs - elapsed)).await;
    }
}

/// Close one device's day: credit the consumed allowance
/// (`min(used, granted)`) and count an overrun if a positive grant was
/// fully exhausted. Called at every day boundary *before* the roll-over
/// wipes the day's usage, and once more after the final day.
fn close_device_day(report: &mut HomeReport, device: &DeviceProxy, granted: f64) {
    report.used_allowance_fp += fp(device.used_bytes().min(granted));
    if granted > 0.0 && !device.should_advertise() {
        report.overrun_device_days += 1;
    }
}

/// Run a traced scenario with an explicit config.
/// [`Home::run`](crate::Home::run) runs every
/// [`crate::Scenario::Traced`] spec through here with
/// [`ScenarioConfig::paper`]; tests tighten the churn and allowance
/// knobs.
pub async fn run_with_config(
    spec: &HomeSpec,
    days: u16,
    config: &ScenarioConfig,
) -> Result<HomeReport, HttpError> {
    assert!(
        (1..=MAX_SCENARIO_DAYS as u16).contains(&days),
        "scenario must run 1..={MAX_SCENARIO_DAYS} days, got {days}"
    );
    // Each phone's live allowance, fit on its seeded free-capacity
    // history; the months the run will live through are pre-drawn from
    // the same prefix-stable series so month-boundary refits replay
    // numbers the offline backtest can reproduce exactly. Each phone
    // comes up holding its day-1 grant.
    let estimator = AllowanceEstimator::paper();
    let lived_months = days as usize / 30 + 1;
    let mut allowances: Vec<LiveAllowance> = Vec::with_capacity(spec.devices);
    let mut future_months: Vec<Vec<f64>> = Vec::with_capacity(spec.devices);
    for i in 0..spec.devices {
        let full = device_free_history(config, spec.index, i, config.history_months + lived_months);
        allowances.push(LiveAllowance::new(estimator, full[..config.history_months].to_vec()));
        future_months.push(full[config.history_months..].to_vec());
    }
    let mut granted_today: Vec<f64> = allowances.iter().map(|a| a.daily_allowance()).collect();
    let rig = Rig::bring_up(spec, &granted_today).await?;

    let mut report = HomeReport::empty(spec.index);
    report.cell = spec.g3.cell().unwrap_or(NO_CELL);
    report.hour = spec.hour;
    report.days = days;
    report.device_days = spec.devices as u32 * days as u32;

    // Virtual t = 0 is `spec.hour` o'clock of day 0: local time of
    // virtual offset `t` is `spec.hour·3600 + t`, so scenarios advance
    // the hour from the clock while `spec.hour` stays the start offset.
    let epoch = Instant::now();
    let start_offset_secs = spec.hour as f64 * 3600.0;

    let mut present = vec![true; spec.devices];
    report.granted_allowance_fp += granted_today.iter().map(|&g| fp(g)).sum::<i64>();
    let mut month_cursor = 0usize;
    let mut vod_baseline_secs = 0.0;
    let mut upload_baseline_secs = 0.0;

    for day in 0..days as u32 {
        if day > 0 {
            // Reach the boundary in virtual time, then close books:
            // credit yesterday's consumption, refit on month ends, and
            // grant today's allowance (re-arming exhausted phones).
            advance_to(&epoch, day as f64 * DAY_SECS - start_offset_secs).await;
            let month_end = day % 30 == 0;
            for i in 0..spec.devices {
                close_device_day(&mut report, &rig.devices[i], granted_today[i]);
                if month_end {
                    allowances[i].finish_month(future_months[i][month_cursor]);
                }
                granted_today[i] = allowances[i].daily_allowance();
                report.granted_allowance_fp += fp(granted_today[i]);
                rig.devices[i].roll_over(granted_today[i]);
            }
            if month_end {
                month_cursor += 1;
            }
        }

        for ev in home_day(config, spec.index, spec.devices, day) {
            let offset = day as f64 * DAY_SECS + ev.time_secs - start_offset_secs;
            if offset < 0.0 {
                continue; // day-0 events before the start hour
            }
            advance_to(&epoch, offset).await;
            match ev.event {
                HomeEvent::Leave { device } => present[device] = false,
                HomeEvent::Join { device } => present[device] = true,
                HomeEvent::Vod | HomeEvent::Upload { .. } => {
                    let paths = rig.paths(spec, ev.time_secs / 3600.0, &present).await;
                    report.sessions += 1;
                    if paths.len() == 1 {
                        report.adsl_only_sessions += 1;
                    }
                    let client = rig.client(paths);
                    let day_idx = day as usize;
                    let hour_idx = ((ev.time_secs / 3600.0) as usize).min(23);
                    if let HomeEvent::Upload { photos } = ev.event {
                        let batch: Vec<(String, Bytes)> = (0..photos)
                            .map(|i| {
                                (
                                    format!("home{}-d{day}-IMG_{i:04}.jpg", spec.index),
                                    photo_body(i, spec.photo_bytes),
                                )
                            })
                            .collect();
                        let bytes: f64 = batch.iter().map(|(_, d)| d.len() as f64).sum();
                        let t0 = Instant::now();
                        let tr = client.upload_photos(batch).await?;
                        let secs = t0.elapsed().as_secs_f64();
                        report.upload_bytes += bytes;
                        report.upload_secs += secs;
                        upload_baseline_secs += bytes * 8.0 / spec.adsl_up_bps;
                        let onload: f64 = tr.bytes_per_path.iter().skip(1).sum();
                        report.upload_device_bytes += onload;
                        report.upload_wasted_bytes += tr.wasted_bytes;
                        report.day_ul_fp[day_idx] += fp(onload);
                        report.hour_ul_fp[hour_idx] += fp(onload);
                    } else {
                        let t0 = Instant::now();
                        let (_playlist, bodies, tr) = client.fetch_hls("/q1/index.m3u8").await?;
                        let secs = t0.elapsed().as_secs_f64();
                        let bytes: f64 = bodies.iter().map(|b| b.len() as f64).sum();
                        report.vod_bytes += bytes;
                        report.vod_secs += secs;
                        vod_baseline_secs += bytes * 8.0 / spec.adsl_down_bps;
                        let onload: f64 = tr.bytes_per_path.iter().skip(1).sum();
                        report.vod_device_bytes += onload;
                        report.day_dl_fp[day_idx] += fp(onload);
                        report.hour_dl_fp[hour_idx] += fp(onload);
                    }
                }
            }
        }
    }

    // The last day's books (no further roll-over to trigger them).
    for (device, &granted) in rig.devices.iter().zip(&granted_today) {
        close_device_day(&mut report, device, granted);
    }

    // Gains against the ADSL line carrying the same bytes alone,
    // aggregated over every session; 1.0 (neutral) for a home whose
    // schedule happened to be empty.
    report.vod_gain = if report.vod_secs > 0.0 { vod_baseline_secs / report.vod_secs } else { 1.0 };
    report.upload_gain =
        if report.upload_secs > 0.0 { upload_baseline_secs / report.upload_secs } else { 1.0 };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::home::{Home, Scenario, Tier};

    fn run_to_report(spec: HomeSpec) -> HomeReport {
        tokio::runtime::block_on(Home::run(&spec)).unwrap()
    }

    #[test]
    fn traced_week_runs_and_accounts() {
        let spec = HomeSpec::tier(Tier::Standard).index(5).hour(0).traced(7, 0x3601);
        let report = run_to_report(spec);
        assert_eq!(report.days, 7);
        assert_eq!(report.device_days, 14);
        assert!(report.sessions > 0, "a week should schedule sessions");
        assert!(report.vod_bytes > 0.0 || report.upload_bytes > 0.0);
        // Onload accumulators tie out with the totals they bucket.
        let day_dl: i64 = report.day_dl_fp.iter().sum();
        let day_ul: i64 = report.day_ul_fp.iter().sum();
        assert_eq!(day_dl, report.hour_dl_fp.iter().sum::<i64>());
        assert_eq!(day_ul, report.hour_ul_fp.iter().sum::<i64>());
        assert!((day_dl as f64 / SCENARIO_FP_SCALE - report.vod_device_bytes).abs() < 1.0);
        assert!((day_ul as f64 / SCENARIO_FP_SCALE - report.upload_device_bytes).abs() < 1.0);
        // Consumption never exceeds what the live estimator granted.
        assert!(report.used_allowance_fp <= report.granted_allowance_fp);
        assert!(report.vod_gain.is_finite() && report.upload_gain.is_finite());
    }

    #[test]
    fn traced_runs_are_bitwise_repeatable() {
        let spec = HomeSpec::tier(Tier::Fast).index(11).hour(0).traced(3, 7);
        let a = run_to_report(spec);
        let b = run_to_report(spec);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_default_is_untouched_by_the_scenario_field() {
        // The dispatch seam must be invisible: a spec that never asks
        // for a scenario runs the exact original script.
        let spec = HomeSpec::paper_default(3);
        assert_eq!(spec.scenario, Scenario::PaperDefault);
        let a = tokio::runtime::block_on(Home::run(&spec)).unwrap();
        assert_eq!(a.days, 0);
        assert_eq!(a.sessions, 0);
        assert_eq!(a.granted_allowance_fp, 0);
        assert!(a.day_dl_fp.iter().all(|&v| v == 0));
        assert_eq!(a.vod_bytes, 500_000.0);
    }

    #[test]
    fn quota_exhaustion_withdraws_then_reannounces() {
        // The churn loop at component level: a phone exhausts its daily
        // allowance mid-transfer — the in-flight transfer completes, the
        // phone stops advertising (its discovery entry ages out), and
        // the next day's roll-over re-arms it.
        tokio::runtime::block_on(async {
            // A 1 MB daily allowance, exhausted mid-way by the 2 MB probe.
            let spec = HomeSpec::paper_default(0).devices(1);
            let rig = Rig::bring_up(&spec, &[1_000_000.0]).await.unwrap();
            let device = &rig.devices[0];
            let paths = rig.paths(&spec, 12.0, &[true]).await;
            assert_eq!(paths.len(), 2, "armed phone advertises");

            // Mid-transfer exhaustion: the 2 MB body still arrives in
            // full even though the 1 MB quota runs dry along the way.
            let phone_only = rig.client(paths[1..].to_vec());
            let (bodies, _) = phone_only.fetch(vec!["/probe.bin".into()]).await.unwrap();
            assert_eq!(bodies[0].len(), 2_000_000, "in-flight transfer completes");
            assert!(!device.should_advertise(), "exhausted phone withdraws");
            assert!(device.used_bytes() > 1_000_000.0, "overrun is recorded, not clipped");

            // The rig never beacons for an exhausted phone, so its
            // entry ages out of Φ within the TTL.
            tokio::time::sleep(Duration::from_secs(4)).await;
            assert_eq!(rig.paths(&spec, 12.0, &[true]).await.len(), 1, "entry expired after TTL");

            // Day boundary: a fresh grant re-arms announcements.
            device.roll_over(1_000_000.0);
            assert!(device.should_advertise());
            assert_eq!(rig.paths(&spec, 12.0, &[true]).await.len(), 2, "re-announced next day");
        });
    }

    #[test]
    fn exhausted_fleet_degrades_to_adsl_only() {
        // Starve the allowance loop entirely: zero free capacity means
        // zero granted allowance, phones never advertise, and every
        // session runs ADSL-only — gracefully, with gain ≈ 1.
        let config =
            ScenarioConfig { free_mean_bytes: 0.0, leave_chance: 0.0, ..ScenarioConfig::paper(42) };
        let spec = HomeSpec::tier(Tier::Standard).index(8).hour(0).traced(2, 42);
        let report = tokio::runtime::block_on(run_with_config(&spec, 2, &config)).unwrap();
        assert!(report.sessions > 0);
        assert_eq!(report.adsl_only_sessions, report.sessions);
        assert_eq!(report.vod_device_bytes, 0.0);
        assert_eq!(report.upload_device_bytes, 0.0);
        assert_eq!(report.granted_allowance_fp, 0);
        // Zero granted allowance is absence, not overrun.
        assert_eq!(report.overrun_device_days, 0);
    }

    #[test]
    fn churny_scenario_still_onloads_between_absences() {
        // Constant churn (every device leaves every day) with real
        // allowances: sessions during presence windows still onload.
        let config = ScenarioConfig { leave_chance: 1.0, ..ScenarioConfig::paper(0x3601) };
        let spec = HomeSpec::tier(Tier::Premium).index(2).devices(3).hour(0).traced(5, 0x3601);
        let report = tokio::runtime::block_on(run_with_config(&spec, 5, &config)).unwrap();
        assert!(report.sessions > 0);
        assert!(
            report.vod_device_bytes + report.upload_device_bytes > 0.0,
            "presence windows should still onload"
        );
        let b = tokio::runtime::block_on(run_with_config(&spec, 5, &config)).unwrap();
        assert_eq!(report, b, "churn must stay deterministic");
    }
}
