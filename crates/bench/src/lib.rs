#![warn(missing_docs)]

//! # threegol-bench
//!
//! The reproduction harness: one module per table/figure of the
//! paper's evaluation (plus five ablations), each regenerating the
//! corresponding rows or series from the models in this workspace and
//! checking the headline numbers against the paper.
//!
//! Every experiment implements the typed `Experiment` trait: it
//! decomposes into independent seeded replication units which a
//! work-stealing [`Pool`] shards across cores, and the partial results
//! merge in unit order — so reports are byte-identical for any worker
//! count (see `experiment` and `exec` module docs).
//!
//! One binary runs them all and emits an EXPERIMENTS.md-ready report,
//! or only the experiments named by their registry ids:
//!
//! ```text
//! cargo run -p threegol-bench --release --bin repro_all [scale] [workers] [ID…]
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

pub mod exec;
pub mod experiment;
pub mod experiments;
pub mod fleet;
mod util;

pub use exec::{fold, map, resolve_workers, Pool};
pub use experiment::{registry, DynExperiment, Registry, Scale, ScaleError};
pub use fleet::{Fleet, FleetDigest, MetricDigest};
pub use util::{Check, Report};

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
