//! Traced experiments: named configurations `olympctl trace` (and the CI
//! trace-validation job) can run with capture enabled.
//!
//! Each entry takes the requested [`TraceConfig`] and returns the full
//! [`RunReport`] — trace included — so callers can export Chrome-trace JSON
//! via [`RunReport::chrome_trace_json`] or aggregate a
//! [`trace::TraceStats`] snapshot.

use crate::figs::fair;
use crate::{
    build_store_for, choose_q, default_config, homogeneous_clients, DEFAULT_BATCH,
    DEFAULT_NUM_BATCHES, DEFAULT_TOLERANCE,
};
use models::ModelKind;
use serving::{run_experiment, ClientSpec, RunReport, TraceConfig};
use simtime::SimDuration;

/// A traced experiment: a stable name and the function running it with the
/// given capture configuration.
pub type TracedExperiment = (&'static str, fn(TraceConfig) -> RunReport);

/// Every traced experiment, smallest first.
pub fn traced_registry() -> Vec<TracedExperiment> {
    vec![("smoke", smoke), ("timeline", timeline), ("fig11", fig11)]
}

/// Looks up a traced experiment by name.
pub fn traced_experiment(name: &str) -> Option<fn(TraceConfig) -> RunReport> {
    traced_registry().iter().find(|&&(n, _)| n == name).map(|&(_, f)| f)
}

/// CI-sized: three mini-model clients under fair sharing — milliseconds of
/// wall clock, yet every event kind except deadline-cancel appears.
fn smoke(tc: TraceConfig) -> RunReport {
    let cfg = default_config().with_trace(tc);
    let clients = vec![ClientSpec::new(models::mini::small(4), 3); 3];
    let store = build_store_for(&cfg, &clients);
    let mut sched = fair(store, SimDuration::from_micros(200));
    run_experiment(&cfg, clients, &mut sched)
}

/// The timeline figure's run: 5 Inception clients, fair sharing, Q=1.2 ms.
fn timeline(tc: TraceConfig) -> RunReport {
    let cfg = default_config().with_trace(tc);
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 5, DEFAULT_NUM_BATCHES);
    let store = build_store_for(&cfg, &clients);
    let mut sched = fair(store, SimDuration::from_micros(1200));
    run_experiment(&cfg, clients, &mut sched)
}

/// The Figure 11 configuration: 10 Inception clients under fair sharing
/// with the profiler-chosen quantum — the run behind the `overhead` report.
fn fig11(tc: TraceConfig) -> RunReport {
    let cfg = default_config().with_trace(tc);
    let clients =
        homogeneous_clients(ModelKind::InceptionV4, DEFAULT_BATCH, 10, DEFAULT_NUM_BATCHES);
    let store = build_store_for(&cfg, &clients);
    let q = choose_q(&cfg, &clients, DEFAULT_TOLERANCE);
    let mut sched = fair(store, q);
    run_experiment(&cfg, clients, &mut sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_captures_a_trace() {
        let report = traced_experiment("smoke").unwrap()(TraceConfig::sampled());
        assert!(report.all_finished());
        assert!(!report.trace.is_empty());
        // Sampled mode records scheduling events but no kernels.
        assert!(report
            .trace
            .events
            .iter()
            .any(|e| matches!(e.kind, trace::TraceKind::TokenGrant { .. })));
        assert!(!report.trace.events.iter().any(|e| e.kind.is_kernel()));
        // The export is well-formed JSON.
        let json = report.chrome_trace_json();
        let doc = microjson::Value::parse(&json).expect("valid chrome trace");
        assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() > 4);
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = traced_registry().iter().map(|&(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(traced_experiment("smoke").is_some());
        assert!(traced_experiment("ghost").is_none());
    }
}
