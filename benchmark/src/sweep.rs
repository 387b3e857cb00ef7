//! The simulator sweep: every registered experiment at full scale, in
//! registry order, on a 2-worker pool — the fluid simulator behind the
//! paper's figures and tables, with no live stack at all.

use std::time::Instant;

use threegol_bench::{registry, DynExperiment, Pool, Report, Scale};

use crate::workloads::{experiments_md, fnv, own_peak_rss_mib, Outcome, Setup, WORKERS};

/// Run every experiment once, in registry order, on a fresh pool.
pub fn sweep(experiments: &[&'static dyn DynExperiment]) -> Vec<Report> {
    Pool::with(WORKERS, |pool| {
        experiments.iter().map(|e| e.run_sharded(Scale::FULL, pool)).collect()
    })
}

/// An experiment passes when its paper-vs-measured checks pass and its
/// Markdown section appears verbatim in `EXPERIMENTS.md`.
pub fn check(report: &Report, experiments_md: &str) -> Result<(), String> {
    if !report.all_ok() {
        return Err(format!("{}: a paper-vs-measured check failed", report.id));
    }
    if !experiments_md.contains(&report.render_markdown()) {
        return Err(format!("{}: its section differs from EXPERIMENTS.md", report.id));
    }
    Ok(())
}

/// One checked sweep is the warm-up; then sweeps until `seconds` have
/// passed. A set-up launch is the sweep at its smallest input, `cap02`
/// alone, spread among the timed sweeps. Each sweep gets a fresh pool,
/// so no idle pool sits beside a launch; starting one costs tens of
/// microseconds against a sweep's hundreds of milliseconds.
pub fn run(seconds: f64) -> Result<Outcome, String> {
    let md = experiments_md()?;
    let experiments: Vec<&'static dyn DynExperiment> = registry().all().collect();
    let cap02 = registry().get("cap02").ok_or("cap02 is not registered")?;
    let launch = || {
        std::hint::black_box(sweep(&[cap02]));
        Ok(())
    };
    let mut o = Outcome::default();
    let mut setup = Setup::new(seconds);
    setup.catch_up(0.0, launch)?;
    let absorb = |o: &mut Outcome, reports: &[Report]| {
        for r in reports {
            o.attempted += 1;
            if let Err(why) = check(r, &md) {
                o.fail(1, why);
            }
        }
    };
    let warm = sweep(&experiments);
    absorb(&mut o, &warm);
    let all_md: String = warm.iter().map(Report::render_markdown).collect();
    o.digest = format!("{:016x}", fnv(all_md.as_bytes()));
    let start = Instant::now();
    while o.throughput.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let reports = sweep(&experiments);
        o.throughput.push(experiments.len() as f64 / t.elapsed().as_secs_f64());
        absorb(&mut o, &reports);
        setup.catch_up(start.elapsed().as_secs_f64(), launch)?;
    }
    o.setup_s = setup.finish(launch)?;
    o.peak_rss_mib = vec![own_peak_rss_mib()?];
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap02_alone_matches_experiments_md() {
        let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md"))
            .expect("EXPERIMENTS.md next to the benchmark directory");
        let cap02 = registry().get("cap02").expect("cap02 registered");
        let reports = sweep(&[cap02]);
        assert_eq!(reports.len(), 1);
        check(&reports[0], &md).unwrap();
        let mut broken = reports[0].clone();
        broken.body.push('x');
        assert!(check(&broken, &md).is_err());
    }
}
