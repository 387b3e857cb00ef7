#![warn(missing_docs)]

//! # threegol-bench
//!
//! The reproduction harness: one module per table/figure of the
//! paper's evaluation, each regenerating the corresponding rows or
//! series from the models in this workspace and checking the headline
//! numbers against the paper.
//!
//! Every experiment implements the typed [`Experiment`] trait: it
//! decomposes into independent seeded replication units which a
//! work-stealing [`Pool`] shards across cores, and the partial results
//! merge in unit order — so reports are byte-identical for any worker
//! count (see `experiment` and `exec` module docs).
//!
//! Run a single experiment (optionally at a reduced scale / explicit
//! worker count):
//!
//! ```text
//! cargo run -p threegol-bench --release --bin fig06_schedulers [scale] [workers]
//! ```
//!
//! Run everything and emit an EXPERIMENTS.md-ready report:
//!
//! ```text
//! cargo run -p threegol-bench --release --bin repro_all [scale] [workers]
//! ```
//!
//! Beyond the simulator experiments, the [`fleet`] module streams
//! whole live-prototype households (virtual-net tokio runtimes)
//! through the same pool in chunks: a [`Fleet`] value (home count,
//! chunk size, runtime mode, spec function) folds them into a
//! mergeable [`FleetDigest`] so fleets of a million homes run in flat
//! memory:
//!
//! ```text
//! cargo run -p threegol-bench --release --bin fleet [homes] [workers] [chunk]
//! ```
//!
//! Performance is measured end to end by the repository benchmark
//! (`BENCHMARK.json`, `bash benchmark/run.sh`), which drives the
//! `fleet` binary and this crate's public API from its own package.
//!
//! The `THREEGOL_WORKERS` environment variable overrides the detected
//! core count when no explicit worker argument is given.

pub mod exec;
pub mod experiment;
pub mod experiments;
pub mod fleet;
pub mod relay;
pub mod util;

pub use exec::{fold, map, resolve_workers, Pool};
pub use experiment::{registry, DynExperiment, Experiment, Registry, Scale, ScaleError};
pub use fleet::{Fleet, FleetDigest, MetricDigest};
pub use util::{Check, Report, ReportBuilder};

/// Shared entry point for the per-experiment binaries: parse
/// `[scale] [workers]` from the command line, run the experiment
/// sharded across a worker pool, render to stdout, and exit non-zero
/// if any paper-vs-measured check failed.
pub fn bin_main(id: &str) {
    let mut args = std::env::args().skip(1);
    let scale = match args.next() {
        None => Scale::FULL,
        Some(raw) => match raw
            .parse::<f64>()
            .map_err(|e| e.to_string())
            .and_then(|v| Scale::new(v).map_err(|e| e.to_string()))
        {
            Ok(scale) => scale,
            Err(err) => {
                eprintln!("invalid scale {raw:?}: {err}");
                std::process::exit(2);
            }
        },
    };
    let workers_arg = match args.next() {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(w) if w >= 1 => Some(w),
            _ => {
                eprintln!("invalid worker count {raw:?}: expected a positive integer");
                std::process::exit(2);
            }
        },
    };
    let experiment = registry().get(id).expect("binary wired to a registered experiment id");
    let workers = resolve_workers(workers_arg).min(experiment.unit_count(scale).max(1));
    let report = Pool::with(workers, |pool| experiment.run_sharded(scale, pool));
    print!("{}", report.render());
    if !report.all_ok() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_experiment_runs() {
        // Smoke-run the cheap experiments end to end through the
        // registry + serial path.
        let scale = Scale::new(0.2).unwrap();
        for id in ["cap02", "fig01", "fig10", "fig11c", "est06"] {
            let e = registry().get(id).expect("registered");
            let r = e.run_serial(scale);
            assert_eq!(r.id, id);
            assert!(!r.body.is_empty());
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(registry().get("nope").is_none());
    }
}
