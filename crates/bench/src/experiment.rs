//! The typed experiment interface and its static registry.
//!
//! Every reproduced table/figure implements the crate's `Experiment`
//! trait: it decomposes into independent, independently-seeded
//! replication units (`units`), each unit runs in isolation
//! (`run_unit`), and the partial results are merged **in unit order**
//! into the final [`Report`] (`merge`).
//! Because unit seeds derive from the unit's coordinates (repetition
//! index, location, quality, …) and never from execution order, the
//! merged report is byte-identical whether the units ran serially or
//! sharded across any number of pool workers.
//!
//! [`DynExperiment`] is the object-safe erasure of the trait (units
//! and partials are experiment-specific types); the static
//! [`registry`] holds one `&'static dyn DynExperiment` per experiment
//! in paper order, replacing the old stringly-typed
//! `run_experiment(id, scale)` dispatch.

use std::fmt;

use crate::exec::{map, Pool};
use crate::experiments;
use crate::util::Report;

/// A validated experiment scale in `(0, 1]`.
///
/// `1.0` is the paper-fidelity configuration; smaller values shrink
/// repetition counts and population sizes proportionally (each
/// experiment keeps a floor of 2 repetitions, see `util::reps`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// The full, paper-fidelity scale (1.0).
    pub const FULL: Scale = Scale(1.0);

    /// Validate a scale: must be a finite value in `(0, 1]`.
    ///
    /// Rejecting instead of clamping keeps a typo'd `repro_all 0`
    /// from silently producing floor-rep pseudo-experiments.
    pub fn new(value: f64) -> Result<Scale, ScaleError> {
        if value.is_finite() && value > 0.0 && value <= 1.0 {
            Ok(Scale(value))
        } else {
            Err(ScaleError(value))
        }
    }

    /// The raw scale factor.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Error for a scale outside `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleError(pub f64);

impl fmt::Display for ScaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scale must be a finite value in (0, 1], got {}", self.0)
    }
}

impl std::error::Error for ScaleError {}

/// One reproduced table/figure, decomposed into replication units.
pub(crate) trait Experiment {
    /// One independent cell of the experiment's sweep: a repetition
    /// block at fixed coordinates (location, quality, policy, …),
    /// carrying everything `run_unit` needs. Seeds must derive from
    /// these coordinates, never from execution order.
    type Unit: Send + Sync + 'static;

    /// The result of one unit, carrying whatever `merge` needs.
    type Partial: Send + 'static;

    /// Stable experiment id (e.g. `"fig06"`), unique in the registry.
    fn id(&self) -> &'static str;

    /// Decompose the experiment at `scale` into replication units.
    /// The returned order is the merge order.
    fn units(&self, scale: Scale) -> Vec<Self::Unit>;

    /// Run one unit. Must not depend on any other unit having run.
    fn run_unit(&self, unit: &Self::Unit) -> Self::Partial;

    /// Merge the per-unit partials — given in `units()` order — into
    /// the final report.
    fn merge(&self, scale: Scale, partials: Vec<Self::Partial>) -> Report;
}

/// Object-safe view of an `Experiment` (unit/partial types erased),
/// what the [`registry`] and the driver binaries work with.
pub trait DynExperiment: Send + Sync {
    /// Stable experiment id (e.g. `"fig06"`).
    fn id(&self) -> &'static str;

    /// Number of replication units at `scale`.
    fn unit_count(&self, scale: Scale) -> usize;

    /// Run every unit inline on the calling thread and merge.
    fn run_serial(&self, scale: Scale) -> Report;

    /// Shard units across the pool's workers and merge in unit order;
    /// byte-identical to [`DynExperiment::run_serial`] for any worker
    /// count.
    fn run_sharded(&self, scale: Scale, pool: &Pool) -> Report;
}

impl<E> DynExperiment for E
where
    E: Experiment + Copy + Send + Sync + 'static,
{
    fn id(&self) -> &'static str {
        Experiment::id(self)
    }

    fn unit_count(&self, scale: Scale) -> usize {
        self.units(scale).len()
    }

    fn run_serial(&self, scale: Scale) -> Report {
        let units = self.units(scale);
        let partials = units.iter().map(|u| self.run_unit(u)).collect();
        self.merge(scale, partials)
    }

    fn run_sharded(&self, scale: Scale, pool: &Pool) -> Report {
        let experiment = *self;
        let partials = map(pool, self.units(scale), move |u| experiment.run_unit(u));
        self.merge(scale, partials)
    }
}

/// The static experiment registry: the 17 paper experiments in paper
/// order, then the 5 ablations in id order.
pub struct Registry {
    experiments: &'static [&'static dyn DynExperiment],
}

static REGISTRY: Registry = Registry {
    experiments: &[
        &experiments::cap02::Cap02,
        &experiments::fig01::Fig01,
        &experiments::fig03::Fig03,
        &experiments::fig04::Fig04,
        &experiments::fig05::Fig05,
        &experiments::tab02::Tab02,
        &experiments::tab03::Tab03,
        &experiments::fig06::Fig06,
        &experiments::fig07::Fig07,
        &experiments::fig08::Fig08,
        &experiments::fig09::Fig09,
        &experiments::fig10::Fig10,
        &experiments::fig11a::Fig11a,
        &experiments::fig11b::Fig11b,
        &experiments::fig11c::Fig11c,
        &experiments::tab04::Tab04,
        &experiments::est06::Est06,
        &experiments::abl01::Abl01,
        &experiments::abl02::Abl02,
        &experiments::abl03::Abl03,
        &experiments::abl04::Abl04,
        &experiments::abl05::Abl05,
    ],
};

/// The registry of every experiment, in paper order.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

impl Registry {
    /// Every experiment: paper order, then ablations.
    pub fn all(&self) -> impl Iterator<Item = &'static dyn DynExperiment> + '_ {
        self.experiments.iter().copied()
    }

    /// Look an experiment up by id.
    pub fn get(&self, id: &str) -> Option<&'static dyn DynExperiment> {
        self.all().find(|e| e.id() == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_validation() {
        assert!(Scale::new(1.0).is_ok());
        assert!(Scale::new(0.05).is_ok());
        assert_eq!(Scale::new(0.25).unwrap().get(), 0.25);
        for bad in [0.0, -1.0, 1.5, f64::NAN, f64::INFINITY] {
            let err = Scale::new(bad).unwrap_err();
            assert!(err.to_string().contains("(0, 1]"), "{err}");
        }
    }

    #[test]
    fn registry_has_every_id_exactly_once_in_paper_order() {
        let mut all: Vec<&str> = registry().all().map(|e| e.id()).collect();
        assert_eq!(
            all,
            [
                "cap02", "fig01", "fig03", "fig04", "fig05", "tab02", "tab03", "fig06", "fig07",
                "fig08", "fig09", "fig10", "fig11a", "fig11b", "fig11c", "tab04", "est06", "abl01",
                "abl02", "abl03", "abl04", "abl05",
            ]
        );
        assert_eq!(all.len(), 22);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 22, "duplicate experiment id in registry");
    }

    #[test]
    fn registry_lookup_by_id() {
        let fig06 = registry().get("fig06").expect("fig06 registered");
        assert_eq!(fig06.id(), "fig06");
        assert!(fig06.unit_count(Scale::new(0.1).unwrap()) > 1);
        assert!(registry().get("nope").is_none());
    }
}
