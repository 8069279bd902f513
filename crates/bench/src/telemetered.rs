//! Telemetered experiments: named configurations `olympctl metrics` (and
//! the CI telemetry-validation job) can run with live telemetry enabled.
//!
//! Each entry takes the requested snapshot interval and returns the full
//! [`RunReport`] — telemetry included — so callers can export the
//! JSON-lines time series via [`RunReport::telemetry_jsonl`] or the final
//! registry state via [`RunReport::prometheus_text`]. Every experiment
//! also runs with sampled tracing on, so the alerts the monitors raise
//! land on the Perfetto timeline next to the quanta that caused them.

use crate::figs::fair;
use crate::{build_store_for, default_config};
use serving::{run_experiment, ClientSpec, RunReport, TraceConfig};
use simtime::SimDuration;
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

/// A telemetered experiment: a stable name and the function running it at
/// the given snapshot cadence.
pub type TelemeteredExperiment = (&'static str, fn(SimDuration) -> RunReport);

/// Every telemetered experiment, smallest first.
pub fn telemetered_registry() -> Vec<TelemeteredExperiment> {
    vec![("smoke", smoke), ("drifted", drifted)]
}

/// Looks up a telemetered experiment by name.
pub fn telemetered_experiment(name: &str) -> Option<fn(SimDuration) -> RunReport> {
    telemetered_registry()
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, f)| f)
}

/// The scheduling quantum both experiments target.
const QUANTUM: SimDuration = SimDuration::from_micros(200);

/// CI-sized healthy run: three mini-model clients under fair sharing with
/// a generous latency objective — every counter and histogram fills, no
/// monitor fires.
fn smoke(interval: SimDuration) -> RunReport {
    let clients = vec![ClientSpec::new(models::mini::small(4), 3); 3];
    let tc = TelemetryConfig::enabled(interval).with_slo(SloSpec::new(
        clients[0].model.name(),
        SimDuration::from_secs(1),
        0.05,
    ));
    let cfg = default_config()
        .with_trace(TraceConfig::sampled())
        .with_telemetry(tc);
    let store = build_store_for(&cfg, &clients);
    let mut sched = fair(store, QUANTUM);
    run_experiment(&cfg, clients, &mut sched)
}

/// A deployment whose device regressed 40% after profiling: the profiles
/// (and the latency objective) are calibrated on the fresh device, then
/// the run executes on the slow one. Quanta overshoot `Q` — the streaming
/// drift detector flags the stale profiles mid-run — and every run
/// breaches its objective, so the SLO burn-rate monitor fires too.
fn drifted(interval: SimDuration) -> RunReport {
    let clients = vec![ClientSpec::new(models::mini::small(4), 10); 3];
    let model_name = clients[0].model.name().to_string();
    let fresh = default_config();
    let store = build_store_for(&fresh, &clients);

    // Calibrate the objective on the fresh device: the median run latency
    // plus a 15% margin, read from a telemetry probe run. A healthy
    // deployment meets it; the 1.4x-slower device cannot.
    let probe_cfg = fresh.with_telemetry(TelemetryConfig::enabled(interval));
    let mut probe_sched = fair(Arc::clone(&store), QUANTUM);
    let probe = run_experiment(&probe_cfg, clients.clone(), &mut probe_sched);
    let fresh_p50_us = probe
        .telemetry
        .hist("run_latency_us")
        .expect("latency histogram")
        .p50;
    let objective = SimDuration::from_micros((fresh_p50_us * 1.15).ceil() as u64);

    let mut cfg = default_config();
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        1.4,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    let tc = TelemetryConfig::enabled(interval)
        .with_slo(SloSpec::new(model_name, objective, 0.05))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
        .with_drift(DriftConfig::new(QUANTUM, 0.25));
    let cfg = cfg.with_trace(TraceConfig::sampled()).with_telemetry(tc);
    let mut sched = fair(store, QUANTUM);
    run_experiment(&cfg, clients, &mut sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn smoke_experiment_fills_the_registry_quietly() {
        let report = telemetered_experiment("smoke").unwrap()(us(100));
        assert!(report.all_finished());
        let t = &report.telemetry;
        assert!(t.enabled);
        assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
        assert_eq!(t.counter("clients_admitted"), Some(3));
        assert_eq!(t.counter("runs_completed"), Some(9));
        assert!(t.hist("quantum_us").unwrap().count > 0);
        assert!(t.alerts.is_empty(), "healthy run must not alert: {:?}", t.alerts);
        // Telemetered runs also capture a trace for the Perfetto timeline.
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn drifted_experiment_fires_both_alert_kinds() {
        let report = telemetered_experiment("drifted").unwrap()(us(100));
        assert!(report.all_finished());
        let t = &report.telemetry;
        assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
        assert!(
            t.alerts.iter().any(|a| a.kind() == "drift"),
            "regressed device must trip the streaming drift detector"
        );
        assert!(
            t.alerts.iter().any(|a| a.kind() == "slo-burn"),
            "regressed device must burn the error budget"
        );
        assert!(t.counter("alerts_drift").unwrap() >= 1);
        assert!(t.counter("alerts_slo_burn").unwrap() >= 1);
        assert!(t.counter("slo_breaches").unwrap() >= 1);
        // The same alerts land in the trace as typed events.
        let json = report.chrome_trace_json();
        assert!(json.contains("\"drift-alert\""));
        assert!(json.contains("\"slo-burn-alert\""));
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = telemetered_registry().iter().map(|&(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(telemetered_experiment("drifted").is_some());
        assert!(telemetered_experiment("ghost").is_none());
    }
}
