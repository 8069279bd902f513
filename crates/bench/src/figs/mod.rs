//! One module per table/figure of the paper's evaluation.
//!
//! Every module exposes `run() -> String`: it executes the experiment,
//! formats the same rows/series the paper plots, and returns the report
//! text (which the `all` binary prints and saves under `results/`).

pub mod ablations;
pub mod blame;
pub mod chaos;
pub mod closedloop;
pub mod dynamic_workload;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig08;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fleet;
pub mod lifecycle;
pub mod motivation;
pub mod multi_gpu;
pub mod overhead;
pub mod robustness;
pub mod scalability;
pub mod stability;
pub mod table2;
pub mod telemetry;
pub mod timeline;
pub mod utilization;

use olympian::{OlympianScheduler, ProfileStore, RoundRobin};
use simtime::SimDuration;
use std::sync::Arc;

/// An experiment: a stable name (the `results/<name>.txt` key) and the
/// function regenerating its report.
pub type Experiment = (&'static str, fn() -> String);

/// Every experiment of the reproduction, in the paper's presentation order.
///
/// This is the registry the `all` binary iterates; entries are independent
/// deterministic simulations, so the harness may run them in parallel as
/// long as results are merged in registry order.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("table2", table2::run),
        ("fig03", fig03::run),
        ("fig04", fig04::run),
        ("fig06", fig06::run),
        ("fig08", fig08::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13_14", fig13_14::run),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("fig18", fig18::run),
        ("fig19", fig19::run),
        ("fig20", fig20::run),
        ("fig21", fig21::run),
        ("utilization", utilization::run),
        ("scalability", scalability::run),
        ("stability", stability::run),
        ("multi_gpu", multi_gpu::run),
        ("dynamic_workload", dynamic_workload::run),
        ("ablations", ablations::run),
        ("timeline", timeline::run),
        ("telemetry", telemetry::run),
        ("overhead", overhead::run),
        ("motivation", motivation::run),
        ("robustness", robustness::run),
        ("chaos", chaos::run),
        ("lifecycle", lifecycle::run),
        ("blame", blame::run),
        ("closedloop", closedloop::run),
        ("fleet", fleet::run),
    ]
}

/// The experiments named in `names`, in registry order; every experiment
/// when `names` is empty. A name given twice runs once.
///
/// # Errors
///
/// Returns a message listing the known names when a name is not in the
/// registry.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
    let all = registry();
    if let Some(bad) = names.iter().find(|n| !all.iter().any(|(name, _)| *name == n.as_ref())) {
        let known: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown experiment `{}`; known: {}", bad.as_ref(), known.join(" ")));
    }
    if names.is_empty() {
        return Ok(all);
    }
    Ok(all.into_iter().filter(|(name, _)| names.iter().any(|n| n.as_ref() == *name)).collect())
}

/// A fair-sharing Olympian scheduler over the given profiles and quantum.
pub(crate) fn fair(store: Arc<ProfileStore>, q: SimDuration) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(sel: &[Experiment]) -> Vec<&'static str> {
        sel.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn select_keeps_registry_order() {
        let sel = select(&["fleet", "chaos", "table2", "chaos"]).unwrap();
        assert_eq!(names(&sel), ["table2", "chaos", "fleet"]);
        let none: [&str; 0] = [];
        assert_eq!(names(&select(&none).unwrap()), names(&registry()));
    }

    #[test]
    fn select_rejects_unknown_names() {
        let err = select(&["fig03", "fig13"]).unwrap_err();
        assert!(err.starts_with("unknown experiment `fig13`"), "{err}");
        assert!(err.contains("fig13_14"), "{err}");
    }
}
