//! Run every reproduction experiment and print an EXPERIMENTS.md-ready
//! Markdown report to stdout; a human-readable rendering goes to
//! stderr.
//!
//! ```text
//! cargo run -p threegol-bench --release --bin repro_all [scale] [workers] > EXPERIMENTS.md
//! ```
//!
//! `scale` must lie in (0, 1] (default 1). `workers` overrides the
//! `THREEGOL_WORKERS` environment variable and the detected core
//! count. Every experiment decomposes into independent replication
//! units that all interleave in one shared work-stealing pool, and
//! each experiment's merge step reassembles its partials in unit
//! order — so the output is byte-identical for any worker count.

use threegol_bench::fleet::{
    home_spec, run_cell_fleet, scenario_spec, CellFleetConfig, CellFleetRun, Fleet, FleetDigest,
    DEFAULT_CHUNK,
};
use threegol_bench::{registry, resolve_workers, DynExperiment, Pool, Report, Scale};
use threegol_caps::{evaluate_estimator, AllowanceEstimator};
use threegol_traces::{device_free_history, ScenarioConfig, DEFAULT_SCENARIO_SEED};

/// Days the live traced-scenario fleet simulates in this report.
const SCENARIO_DAYS: u16 = 7;

/// Homes in the live fleet run at full scale. Small enough to add only
/// seconds to the report, large enough that every ADSL tier × device
/// mix in [`threegol_bench::fleet::home_spec`] appears many times.
const FLEET_HOMES_FULL: f64 = 200.0;

/// The recorded million-home run (see the section text for why the
/// gain rows and digest reproduce bit for bit anywhere while the
/// throughput and RSS lines are machine-specific).
const RECORDED_1M: &str = "\
fleet: 1000000 homes (virtual net, virtual time)
gain over ADSL alone        min   ~p50   mean    max
  vod prebuffer              1.37   1.83   1.88   2.77
  photo upload               1.79   3.67   4.69  11.92
onloaded 595407.88 MB to 3G paths, 100010.68 MB duplicate waste, 50833330 virtual-net events
1000000 homes on 1 worker(s), chunk 64: 1383.26 s wall (723 homes/s, 36749 net events/s); report digest 36f8644e7ac9100a
peak RSS 11.5 MiB
";

/// Render the fleet-at-scale section: a live streamed fleet run folded
/// into this report, then the recorded million-home run with its exact
/// reproduction command. Returns the Markdown and whether the live
/// checks passed.
fn fleet_section(digest: &FleetDigest, homes: usize) -> (String, bool) {
    let min_ok = digest.upload_gain.min > 1.0;
    let p50_ok = digest.upload_gain.p50() > 1.2;
    let mut out = String::new();
    out.push_str("## fleet — §6 aggregates from the live prototype, at fleet scale\n\n");
    out.push_str(
        "Section 6 of the paper aggregates per-home gains measured in ~10 \
         deployed households. The reproduction's live prototype runs *whole \
         households* — HLS VoD prebuffer and multi-device photo upload through \
         the splitting proxies, one single-threaded tokio runtime per home on a \
         virtual net and virtual clock — and streams them through the worker \
         pool in chunks, folding each report into a mergeable digest \
         (DESIGN.md §11). Virtual time makes every home a pure function of its \
         index, so the gain distributions and the content digest below \
         reproduce bit for bit on any machine and any worker count.\n\n",
    );
    out.push_str(&format!(
        "Live run folded into this report ({homes} homes at this scale):\n\n```text\n{}digest {:016x}\n```\n",
        digest.render(),
        digest.digest(),
    ));
    out.push_str("\n| check | paper | measured | |\n|---|---|---|---|\n");
    out.push_str(&format!(
        "| worst-home upload gain | §6: onloading never hurts (> 1×) | {:.2}× | {} |\n",
        digest.upload_gain.min,
        if min_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(&format!(
        "| median upload gain | §6: phones roughly double the uplink | {:.2}× | {} |\n",
        digest.upload_gain.p50(),
        if p50_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(
        "\n### Recorded million-home run\n\n\
         The same binary scales four orders of magnitude past the paper's \
         deployment on one core in flat memory — the streamed fold never \
         materializes the fleet:\n\n\
         ```text\n\
         $ cargo run -p threegol-bench --release --bin fleet -- 1000000 1 64\n",
    );
    out.push_str(RECORDED_1M);
    out.push_str(
        "```\n\n\
         Throughput, wall-clock and peak RSS above are machine-specific \
         (recorded on the 1-core reference container; the RSS ceiling is \
         enforced at 256 MiB by the `fleet_scale` test). \
         The gain table and the digest are not: rerunning with any worker \
         count or chunk size — `fleet -- 1000000 7 23` included — must \
         reproduce them bit for bit, because each home is deterministic under \
         virtual time and the digest merge reassembles chunk partials in \
         index order (tested at 200, 5 000 and 10 000 homes; the merge \
         algebra makes the invariant size-independent).\n\n",
    );
    (out, min_ok && p50_ok)
}

/// Render the Fig 11 section: the cell-coupled fleet's aggregate
/// cellular load after the fixed-point iteration. Returns the Markdown
/// and whether the shape checks passed.
fn cells_section(run: &CellFleetRun) -> (String, bool) {
    let block = |lo: usize, hi: usize| -> f64 {
        run.loads.iter().map(|l| (lo..hi).map(|h| l.dl_bps[h] + l.ul_bps[h]).sum::<f64>()).sum()
    };
    let evening = block(18, 24);
    let night = block(2, 8);
    // Cells 2 and 3 of the default city: tourist/congested vs
    // suburban/well-provisioned, compared at the mobile evening peak.
    let congested_share = run.profiles[2].down_bps[19];
    let well_share = run.profiles[3].down_bps[19];
    let converged_ok = run.converged;
    // A handful of homes cannot sample 24 hours; the diurnal-shape
    // check needs a fleet big enough that the hour assignment's wired
    // curve shows (the full-scale report is 200 homes).
    let shape_applicable = run.digest.homes >= 100;
    let shape_ok = !shape_applicable || evening > 2.0 * night;
    let shed_ok = congested_share < well_share;
    let mut out = String::new();
    out.push_str(
        "## fig11-fleet — aggregate 3G cell load under city-wide onloading, \
         from the live coupled fleet\n\n",
    );
    out.push_str(
        "Figure 11 asks the §6 question: if a whole city's DSL homes onload \
         onto the shared 3G cells, what load lands on the cells, and when? The \
         reproduction couples the streamed fleet to `threegol-radio`'s city \
         grid: every home is pinned to a cell (weighted by area kind) and an \
         hour of day (distributed like the wired diurnal curve of Fig 1), each \
         fleet pass charges its onloaded bytes to its `(cell, hour)` slot, and \
         the measured load feeds back as the next pass's per-phone capacity \
         shares until the shares settle — a fixed point of the load ⇄ \
         capacity loop, reached deterministically (same pass count, same \
         digest, byte for byte, for any worker count or chunk size).\n\n",
    );
    out.push_str(&format!("```text\n{}```\n", run.render()));
    out.push_str("\n| check | paper | measured | |\n|---|---|---|---|\n");
    out.push_str(&format!(
        "| fixed point | §6: onloading self-limits (stable operating point) | \
         {} passes, converged: {} | {} |\n",
        run.passes,
        run.converged,
        if converged_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(&format!(
        "| diurnal shape | Fig 11: onload follows the wired evening peak | \
         {} | {} |\n",
        if shape_applicable {
            format!("evening/night load {:.1}×", evening / night.max(1.0))
        } else {
            "n/a at this scale (< 100 homes)".to_string()
        },
        if shape_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(&format!(
        "| provisioning | §6: congested cells yield smaller shares at peak | \
         {:.2} vs {:.2} Mbit/s @19h | {} |\n",
        congested_share / 1e6,
        well_share / 1e6,
        if shed_ok { "✅" } else { "⚠️" }
    ));
    out.push('\n');
    (out, converged_ok && shape_ok && shed_ok)
}

/// Render the §6-live section: the traced multi-day fleet with the
/// allowance loop closed, cross-checked against the offline
/// `threegol-caps` backtest on the *same* generated free-capacity
/// histories. Returns the Markdown and whether the checks passed.
fn scenario_section(digest: &FleetDigest, homes: usize) -> (String, bool) {
    let s = &digest.scenario;
    let config = ScenarioConfig::paper(DEFAULT_SCENARIO_SEED);
    let months = config.history_months + SCENARIO_DAYS as usize / 30 + 1;
    let est = AllowanceEstimator::paper();
    // The exact histories the live loop drew (prefix-stable per device),
    // and the exact grants it must therefore have handed out: a 7-day
    // run crosses no month boundary, so every device's daily grant is
    // its seeded-window monthly allowance over 30 for all 7 days.
    let mut histories: Vec<Vec<f64>> = Vec::new();
    let mut expected_granted = 0.0f64;
    for home in 0..homes as u32 {
        let devices = scenario_spec(home, SCENARIO_DAYS, DEFAULT_SCENARIO_SEED).devices as usize;
        for device in 0..devices {
            let h = device_free_history(&config, home, device, months);
            expected_granted +=
                est.monthly_allowance(&h[..config.history_months]) / 30.0 * SCENARIO_DAYS as f64;
            histories.push(h);
        }
    }
    let offline = evaluate_estimator(&est, &histories);
    let granted = s.granted_bytes();
    let grants_ok = (granted - expected_granted).abs() <= expected_granted.max(1.0) * 1e-6;
    // A handful of homes cannot pin down population fractions; the
    // band checks need the full-scale street (200 homes).
    let bands_applicable = homes >= 50;
    let captured = s.captured_fraction();
    let captured_ok = !bands_applicable || (0.30..0.85).contains(&captured);
    let overrun = s.overrun_rate();
    let overrun_ok = overrun < 0.5 && (overrun > 0.0 || !bands_applicable);
    let backtest_ok = offline.mean_overrun_days < 1.0;
    let mut out = String::new();
    out.push_str("## scenario — §6 live: a simulated week with the allowance loop closed\n\n");
    out.push_str(&format!(
        "The paper evaluates `3GOLa(t) = F̄u(t) − α·σ̄u(t)` *offline*, replaying \
         MNO billing records (est06 above). The reproduction also closes the \
         loop live: each of the {homes} streamed households runs a trace-driven \
         {SCENARIO_DAYS}-day scenario under virtual time — diurnal VoD/upload \
         schedules, phones leaving and rejoining the home Wi-Fi mid-day — and \
         each phone's daily grant is its own monthly 3GOLa(t) over 30, debited \
         as bytes flow. A phone that exhausts its grant stops announcing and \
         drops out of path discovery until the next simulated day; month \
         boundaries refit the estimator on the lived window. The per-day and \
         per-hour onload rows below fold exactly-associatively, so this digest \
         too is byte-identical for any worker count, chunk size, or runtime \
         mode.\n\n"
    ));
    out.push_str(&format!("```text\n{}digest {:016x}\n```\n", digest.render(), digest.digest()));
    out.push_str(&format!(
        "\nOffline backtest on the *same* generated histories ({} devices, \
         {months} months each, prefix-stable so both readers see identical \
         numbers): τ = 5, α = 4 uses {:.0}% of free capacity with {:.2} \
         overrun days/month ({:.1}% of months).\n",
        histories.len(),
        offline.free_capacity_used * 100.0,
        offline.mean_overrun_days,
        offline.overrun_month_fraction * 100.0,
    ));
    out.push_str("\n| check | paper | measured | |\n|---|---|---|---|\n");
    out.push_str(&format!(
        "| live grants == offline estimator | §6: allowance computed from billing history | \
         {:.1} vs {:.1} MB granted | {} |\n",
        granted / 1e6,
        expected_granted / 1e6,
        if grants_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(&format!(
        "| live captured fraction | §6: a conservative guard leaves headroom (~65% usable) | \
         {:.0}% of granted allowance consumed | {} |\n",
        captured * 100.0,
        if captured_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(&format!(
        "| live daily overruns | §6: overruns happen but stay the minority | \
         {:.1}% of device-days | {} |\n",
        overrun * 100.0,
        if overrun_ok { "✅" } else { "⚠️" }
    ));
    out.push_str(&format!(
        "| offline backtest | §6: expected overrun under 1 day per month | \
         {:.2} days/month | {} |\n",
        offline.mean_overrun_days,
        if backtest_ok { "✅" } else { "⚠️" }
    ));
    out.push('\n');
    (out, grants_ok && captured_ok && overrun_ok && backtest_ok)
}

fn main() {
    let scale = match std::env::args().nth(1) {
        None => Scale::FULL,
        Some(raw) => match raw
            .parse::<f64>()
            .map_err(|e| e.to_string())
            .and_then(|v| Scale::new(v).map_err(|e| e.to_string()))
        {
            Ok(scale) => scale,
            Err(err) => {
                eprintln!("repro_all: bad scale {raw:?}: {err}");
                std::process::exit(2);
            }
        },
    };
    let workers_arg = match std::env::args().nth(2) {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("repro_all: bad worker count {raw:?}: expected an integer ≥ 1");
                std::process::exit(2);
            }
        },
    };
    let experiments: Vec<&'static dyn DynExperiment> = registry().all().collect();
    let workers = resolve_workers(workers_arg);

    // One shared pool executes every experiment's units; a lightweight
    // driver thread per experiment submits its units and merges the
    // partials as they complete. Drivers mostly block, so the CPU
    // parallelism is the pool's worker count, not 22 + workers.
    let mut slots: Vec<Option<Report>> = (0..experiments.len()).map(|_| None).collect();
    let fleet_homes = ((FLEET_HOMES_FULL * scale.get()).round() as usize).max(1);
    let (fleet_digest, cell_run, scenario_digest) = Pool::with(workers, |pool| {
        std::thread::scope(|scope| {
            for (experiment, slot) in experiments.iter().zip(slots.iter_mut()) {
                scope.spawn(move || {
                    eprintln!("running {} …", experiment.id());
                    *slot = Some(experiment.run_sharded(scale, pool));
                });
            }
        });
        eprintln!("running fleet ({fleet_homes} live homes) …");
        let digest = Fleet::new(fleet_homes, home_spec).run(pool);
        eprintln!("running cell-coupled fleet ({fleet_homes} homes, fixed point) …");
        let cells = run_cell_fleet(fleet_homes, DEFAULT_CHUNK, pool, &CellFleetConfig::default());
        eprintln!("running traced-scenario fleet ({fleet_homes} homes, {SCENARIO_DAYS} days) …");
        let spec = |index| scenario_spec(index, SCENARIO_DAYS, DEFAULT_SCENARIO_SEED);
        let scenario = Fleet::new(fleet_homes, spec).run(pool);
        (digest, cells, scenario)
    });
    let reports: Vec<Report> =
        slots.into_iter().map(|r| r.expect("every experiment ran")).collect();

    println!("# EXPERIMENTS — paper vs reproduction\n");
    println!(
        "Generated by `cargo run -p threegol-bench --release --bin repro_all` (scale {}).\n",
        scale.get()
    );
    println!(
        "Absolute numbers come from the simulated substrate, not the authors' \
         testbed; the checks assert the *shape* of each result (who wins, by \
         what factor, where crossovers sit).\n"
    );
    let mut all_ok = true;
    for report in &reports {
        eprint!("{}", report.render());
        print!("{}", report.render_markdown());
        all_ok &= report.all_ok();
    }
    let (fleet_md, fleet_ok) = fleet_section(&fleet_digest, fleet_homes);
    eprint!("{}", fleet_digest.render());
    print!("{fleet_md}");
    all_ok &= fleet_ok;
    let (cells_md, cells_ok) = cells_section(&cell_run);
    eprint!("{}", cell_run.render());
    print!("{cells_md}");
    all_ok &= cells_ok;
    let (scenario_md, scenario_ok) = scenario_section(&scenario_digest, fleet_homes);
    eprint!("{}", scenario_digest.render());
    print!("{scenario_md}");
    all_ok &= scenario_ok;
    let mut failed: Vec<&str> = reports.iter().filter(|r| !r.all_ok()).map(|r| r.id).collect();
    if !fleet_ok {
        failed.push("fleet");
    }
    if !cells_ok {
        failed.push("fig11-cells");
    }
    if !scenario_ok {
        failed.push("scenario-live");
    }
    if !all_ok {
        eprintln!("checks failed in: {failed:?}");
        std::process::exit(1);
    }
    eprintln!("all {} experiments passed their shape checks", reports.len());
}
