#![deny(missing_docs)]

//! Live telemetry for the serving stack: a deterministic online metrics
//! registry, an SLO burn-rate monitor and streaming drift detection.
//!
//! The trace layer records *what happened* for post-hoc timelines; this
//! crate watches the run *while it executes*, the way an operator would:
//! counters, gauges and log-linear histograms
//! ([`registry::MetricsRegistry`]) are folded from the engine's typed
//! [`TraceKind`] events ([`TelemetryHub::observe`]) and snapshotted at a
//! fixed **virtual-time** cadence, so two runs of the same experiment
//! produce byte-identical telemetry however the surrounding harness is
//! parallelized — the same guarantee the trace gives.
//!
//! On top of the registry sit two online health monitors:
//!
//! * [`slo::SloMonitor`] — per-model latency objectives with multi-window
//!   burn-rate alerting;
//! * [`drift::DriftDetector`] — EWMA/CUSUM over the stream of observed
//!   quantum lengths, raising re-profile alerts mid-run (§7 of the paper).
//!
//! Alerts surface twice: as [`Alert`] values in the finished
//! [`TelemetryReport`] (and hence the JSON-lines export) and — via the
//! engine — as typed events in the trace, so they land on the
//! Perfetto timeline next to the quanta that caused them.
//!
//! Cost discipline matches the tracer: with telemetry off the hub holds no
//! buffers and every event reduces to one predicted branch; the engine's
//! snapshot check is a single `t >= next_due()` compare against
//! `SimTime::MAX`. The repo benchmark (`perfbench/`) reports what turning
//! telemetry on costs as `telemetry.on_cost`.

use simtime::{SimDuration, SimTime};
use std::collections::HashMap;
use trace::TraceKind;

pub mod drift;
pub mod export;
pub mod registry;
pub mod slo;

pub use drift::{DriftConfig, DriftDetector, DriftSignal};
pub use export::{escape_help, escape_label, json_lines, prometheus_text};
pub use registry::{CounterId, GaugeId, HistogramId, HistogramSnapshot, MetricsRegistry};
pub use slo::{BurnSignal, BurnWindows, SloMonitor, SloSpec};

/// Telemetry configuration carried by the engine config.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch; everything below is ignored when false.
    pub enabled: bool,
    /// Virtual-time snapshot cadence.
    pub interval: SimDuration,
    /// Latency objectives, matched to clients by model name.
    pub slos: Vec<SloSpec>,
    /// Burn-rate window shape shared by all objectives.
    pub burn: BurnWindows,
    /// Streaming drift detection over observed quanta; one detector per
    /// client is cloned from this template.
    pub drift: Option<DriftConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            interval: SimDuration::from_micros(1000),
            slos: Vec::new(),
            burn: BurnWindows::default(),
            drift: None,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry disabled (the default).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    /// Telemetry enabled at the given snapshot cadence.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enabled(interval: SimDuration) -> TelemetryConfig {
        assert!(interval > SimDuration::ZERO, "snapshot interval must be positive");
        TelemetryConfig { enabled: true, interval, ..TelemetryConfig::default() }
    }

    /// Adds a latency objective.
    pub fn with_slo(mut self, slo: SloSpec) -> TelemetryConfig {
        self.slos.push(slo);
        self
    }

    /// Overrides the burn-rate window shape.
    pub fn with_burn(mut self, burn: BurnWindows) -> TelemetryConfig {
        self.burn = burn;
        self
    }

    /// Enables streaming drift detection.
    pub fn with_drift(mut self, drift: DriftConfig) -> TelemetryConfig {
        self.drift = Some(drift);
        self
    }

    /// Whether anything is recorded.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if enabled with a zero interval or an invalid window shape.
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        assert!(self.interval > SimDuration::ZERO, "snapshot interval must be positive");
        self.burn.validate();
        if let Some(d) = &self.drift {
            drift::validate(d.expected_quantum, d.tolerance);
        }
    }
}

/// Gauge values the engine samples at each snapshot boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineGauges {
    /// Clients parked in the admission queue.
    pub queue_depth: u64,
    /// Idle threads in the inter-op pool.
    pub pool_idle: u64,
    /// Jobs in the starvation queue.
    pub starving: u64,
    /// Jobs currently registered with the scheduler.
    pub active_jobs: u64,
    /// Token holder's `(cumulated, threshold)` cost units, for metering
    /// schedulers.
    pub holder_cost: Option<(u64, u64)>,
    /// Weight bytes resident under the lifecycle manager (0 when the
    /// engine runs without one).
    pub resident_model_bytes: u64,
}

/// An alert raised by one of the online monitors.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// A client's offline profile was flagged stale mid-run.
    Drift {
        /// Virtual time of the detection.
        at: SimTime,
        /// The drifting client.
        client: u32,
        /// Smoothed observed quantum length, µs.
        observed_us: f64,
        /// Expected quantum length, µs.
        expected_us: f64,
        /// Relative deviation of the smoothed level.
        deviation: f64,
    },
    /// An SLO burn rate crossed its threshold.
    SloBurn {
        /// Virtual time of the crossing (a snapshot boundary).
        at: SimTime,
        /// Index of the objective in [`TelemetryConfig::slos`].
        slo: u32,
        /// Model the objective applies to.
        model: String,
        /// Burn rate over the short window.
        short_burn: f64,
        /// Burn rate over the long window.
        long_burn: f64,
    },
    /// The fault-recovery layer acted: a circuit breaker opened, a client
    /// was shed, or the token-hold watchdog revoked a stalled holder.
    FaultRecovery {
        /// Virtual time of the action.
        at: SimTime,
        /// The affected client.
        client: u32,
        /// What happened, kebab-case: `breaker-open`, `retries-exhausted`,
        /// `circuit-open` or `watchdog-revoke`.
        action: &'static str,
        /// Action-specific detail: stall µs for watchdog revocations,
        /// attempt count for sheds, 0 otherwise.
        detail: u64,
    },
    /// The lifecycle rollout controller decided a canary: the candidate
    /// version was promoted or rolled back.
    Rollout {
        /// Virtual time of the decision.
        at: SimTime,
        /// The served model name.
        model: String,
        /// The candidate version number (1-based).
        version: u32,
        /// `"promote"` or `"rollback"`.
        action: &'static str,
        /// Candidate mean run latency, µs (0 when superseded undecided).
        cand_us: u64,
        /// Incumbent mean run latency, µs (0 when superseded undecided).
        base_us: u64,
    },
}

impl Alert {
    /// Virtual time of the alert.
    pub fn at(&self) -> SimTime {
        match self {
            Alert::Drift { at, .. }
            | Alert::SloBurn { at, .. }
            | Alert::FaultRecovery { at, .. }
            | Alert::Rollout { at, .. } => *at,
        }
    }

    /// Stable kebab-case label.
    pub fn kind(&self) -> &'static str {
        match self {
            Alert::Drift { .. } => "drift",
            Alert::SloBurn { .. } => "slo-burn",
            Alert::FaultRecovery { .. } => "fault-recovery",
            Alert::Rollout { .. } => "rollout",
        }
    }

    /// The alert as a typed event on the trace timeline, next to the
    /// quanta and runs that caused it. `None` for fault-recovery and
    /// rollout alerts: their typed events (`BreakerTransition`,
    /// `WatchdogRevoke`, `RetryScheduled`, `CanaryPromote`,
    /// `CanaryRollback`) are recorded where the action lands, and
    /// mirroring them would double-count.
    pub fn trace_kind(&self) -> Option<TraceKind> {
        match *self {
            Alert::Drift { client, observed_us, expected_us, deviation, .. } => {
                Some(TraceKind::DriftAlert {
                    client,
                    observed_us: observed_us.round() as u64,
                    expected_us: expected_us.round() as u64,
                    deviation_ppm: (deviation * 1e6).round() as u64,
                })
            }
            Alert::SloBurn { slo, short_burn, long_burn, .. } => Some(TraceKind::SloBurnAlert {
                slo,
                short_ppm: (short_burn * 1e6).round() as u64,
                long_ppm: (long_burn * 1e6).round() as u64,
            }),
            Alert::FaultRecovery { .. } | Alert::Rollout { .. } => None,
        }
    }
}

/// The snapshot time series in struct-of-arrays layout: every boundary
/// appends into five shared vectors, so the steady-state snapshot path is
/// a handful of `memcpy`s with only amortized growth — never five fresh
/// `Vec` allocations per boundary. At the benchmark cadence (one snapshot
/// per 100 µs of virtual time) those allocations were the bulk of the
/// telemetry on-cost.
///
/// Rows are read back through [`SnapshotView`], which borrows the
/// per-snapshot spans in place.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotSeries {
    at: Vec<SimTime>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    hists: Vec<HistogramSnapshot>,
    gpu_ns: Vec<u64>,
    /// Exclusive end offset into `gpu_ns` per snapshot — the client table
    /// grows during a run, so those rows are ragged.
    gpu_ns_end: Vec<u32>,
    n_counters: u32,
    n_gauges: u32,
    n_hists: u32,
}

/// One registry snapshot, viewed in place; value slices are parallel to
/// the name lists in [`TelemetryReport`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Counter values (cumulative).
    pub counters: &'a [u64],
    /// Gauge values.
    pub gauges: &'a [f64],
    /// Histogram summaries (cumulative).
    pub hists: &'a [HistogramSnapshot],
    /// Cumulative attributed GPU nanoseconds per client.
    pub client_gpu_ns: &'a [u64],
}

impl SnapshotSeries {
    /// Number of snapshots taken.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether no snapshot was taken.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The `i`-th snapshot, if taken.
    pub fn get(&self, i: usize) -> Option<SnapshotView<'_>> {
        if i >= self.at.len() {
            return None;
        }
        let (nc, ng, nh) =
            (self.n_counters as usize, self.n_gauges as usize, self.n_hists as usize);
        let g0 = if i == 0 { 0 } else { self.gpu_ns_end[i - 1] as usize };
        Some(SnapshotView {
            at: self.at[i],
            counters: &self.counters[i * nc..(i + 1) * nc],
            gauges: &self.gauges[i * ng..(i + 1) * ng],
            hists: &self.hists[i * nh..(i + 1) * nh],
            client_gpu_ns: &self.gpu_ns[g0..self.gpu_ns_end[i] as usize],
        })
    }

    /// The final snapshot (totals at end of run), if any was taken.
    pub fn last(&self) -> Option<SnapshotView<'_>> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Snapshots in time order.
    pub fn iter(&self) -> impl Iterator<Item = SnapshotView<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }
}

/// The exact per-run completion log in struct-of-arrays layout: one row
/// per completed run, in completion order. The registry's log-linear
/// latency histogram is cheap but lossy (bucket-midpoint quantiles); this
/// log is the loss-free stream the `tsdb` layer ingests so stored runs
/// reproduce nearest-rank quantiles — and blame deltas — exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunLog {
    /// Completion time per run.
    pub at: Vec<SimTime>,
    /// Completing client per run.
    pub client: Vec<u32>,
    /// Registration-to-completion latency per run.
    pub latency: Vec<SimDuration>,
}

impl RunLog {
    /// Number of logged runs.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether no run was logged.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Rows as `(at, client, latency)`, completion order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u32, SimDuration)> + '_ {
        (0..self.len()).map(|i| (self.at[i], self.client[i], self.latency[i]))
    }
}

/// The finished telemetry of one run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Whether telemetry was enabled (everything below is empty if not).
    pub enabled: bool,
    /// Snapshot cadence.
    pub interval: SimDuration,
    /// Run makespan (time of the final, possibly partial, snapshot).
    pub makespan: SimTime,
    /// Counter names, in registration order.
    pub counter_names: Vec<&'static str>,
    /// Gauge names.
    pub gauge_names: Vec<&'static str>,
    /// Histogram names.
    pub hist_names: Vec<&'static str>,
    /// Model name per client, indexed by client id.
    pub client_models: Vec<String>,
    /// The configured latency objectives.
    pub slos: Vec<SloSpec>,
    /// Snapshots in time order; the last one holds the final totals.
    pub snapshots: SnapshotSeries,
    /// Alerts in time order.
    pub alerts: Vec<Alert>,
    /// Exact per-run completion log, completion order.
    pub run_log: RunLog,
}

impl TelemetryReport {
    /// The expected snapshot count for a makespan: one per full interval
    /// plus a final partial one — `max(1, ceil(makespan / interval))`.
    pub fn expected_snapshots(&self) -> u64 {
        let m = self.makespan.as_nanos();
        let i = self.interval.as_nanos();
        m.div_ceil(i).max(1)
    }

    /// The final snapshot (totals at end of run), if telemetry ran.
    pub fn last(&self) -> Option<SnapshotView<'_>> {
        self.snapshots.last()
    }

    /// Final value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        let i = self.counter_names.iter().position(|n| *n == name)?;
        Some(self.last()?.counters[i])
    }

    /// Final summary of a histogram by name.
    pub fn hist(&self, name: &str) -> Option<HistogramSnapshot> {
        let i = self.hist_names.iter().position(|n| *n == name)?;
        Some(self.last()?.hists[i])
    }
}

/// Metric handles, registered once at hub construction. The `_`-prefixed
/// ones are never updated: they keep the exported metric set and its order
/// stable, so those metrics always read 0.
#[derive(Debug, Clone, Copy)]
struct Ids {
    c_admitted: CounterId,
    c_oom: CounterId,
    c_runs_started: CounterId,
    c_runs_completed: CounterId,
    c_deadline: CounterId,
    c_switches: CounterId,
    c_slo_breaches: CounterId,
    c_alerts_drift: CounterId,
    c_alerts_slo: CounterId,
    _batches_planned: CounterId,
    c_faults_kernel: CounterId,
    c_faults_alloc: CounterId,
    c_retries: CounterId,
    c_breaker_open: CounterId,
    c_shed: CounterId,
    c_watchdog: CounterId,
    c_versions_loaded: CounterId,
    c_versions_unloaded: CounterId,
    c_versions_evicted: CounterId,
    c_warmup_runs: CounterId,
    c_promotions: CounterId,
    c_rollbacks: CounterId,
    c_drains: CounterId,
    _trace_dropped: CounterId,
    c_control_transitions: CounterId,
    c_admission_shed: CounterId,
    c_batch_shrinks: CounterId,
    c_profile_rebinds: CounterId,
    c_laxity_cancels: CounterId,
    c_cluster_routes: CounterId,
    c_cluster_migrations: CounterId,
    c_cluster_reconfigs: CounterId,
    g_queue: GaugeId,
    g_pool_idle: GaugeId,
    g_starving: GaugeId,
    g_active_jobs: GaugeId,
    g_holder_ratio: GaugeId,
    g_fairness: GaugeId,
    g_resident: GaugeId,
    h_quantum: HistogramId,
    h_handoff: HistogramId,
    h_latency: HistogramId,
    _batch_size: HistogramId,
    _batch_wait: HistogramId,
}

#[derive(Debug, Clone)]
struct ClientState {
    /// Index into `TelemetryHub::model_names`; `None` until the client is
    /// admitted, so a client table grown past a never-admitted client
    /// reports an empty model name for it.
    model: Option<u32>,
    slo: Option<u32>,
    drift: Option<DriftDetector>,
    gpu_ns: u64,
    /// Registration time of the client's in-flight run (a client has at
    /// most one) — the baseline of its completion latency.
    run_start: SimTime,
}

impl ClientState {
    const UNBOUND: ClientState =
        ClientState { model: None, slo: None, drift: None, gpu_ns: 0, run_start: SimTime::ZERO };
}

/// The engine-side telemetry recorder: a fold over the engine's typed
/// [`TraceKind`] stream.
///
/// The engine hands every fact it records to [`observe`](Self::observe);
/// counters, histograms, the run log and the fault/rollout alerts are all
/// derived from those events, so a counter with no event behind it cannot
/// exist. Everything is a no-op behind a single predicted branch when
/// telemetry is off; the snapshot cadence is driven by the engine
/// comparing event times against [`next_due`](TelemetryHub::next_due),
/// which is `SimTime::MAX` when off so the hot loop pays exactly one
/// compare.
#[derive(Debug)]
pub struct TelemetryHub {
    on: bool,
    interval: SimDuration,
    next_due: SimTime,
    registry: MetricsRegistry,
    ids: Option<Ids>,
    drift_template: Option<DriftConfig>,
    slo_specs: Vec<SloSpec>,
    monitors: Vec<SloMonitor>,
    /// Distinct client model names, first-seen order.
    model_names: Vec<String>,
    /// Per client id: its index into `model_names`.
    client_model: Vec<u32>,
    /// Lifecycle deployment names, by deployment index.
    lifecycle_models: Vec<String>,
    /// Grows on admission, up to the highest admitted client id.
    clients: Vec<ClientState>,
    /// The previous observed event was a `TokenRevoke`: a `TokenGrant`
    /// right after it belongs to the same token move.
    after_revoke: bool,
    snapshots: SnapshotSeries,
    /// Scratch for the per-snapshot fairness computation, reused across
    /// boundaries so the snapshot path stays allocation-free.
    shares_scratch: Vec<f64>,
    alerts: Vec<Alert>,
    run_log: RunLog,
}

impl TelemetryHub {
    /// Creates a hub. `client_models` names each client's model, by
    /// client id; `lifecycle_models` names each lifecycle deployment, by
    /// deployment index — so every event payload can stay an id. Allocates
    /// nothing (and consumes neither name list) when telemetry is off.
    ///
    /// # Panics
    ///
    /// Panics on an invalid enabled configuration (see
    /// [`TelemetryConfig::validate`]).
    pub fn new<'n>(
        cfg: &TelemetryConfig,
        client_models: impl IntoIterator<Item = &'n str>,
        lifecycle_models: impl IntoIterator<Item = &'n str>,
    ) -> TelemetryHub {
        cfg.validate();
        let mut hub = TelemetryHub {
            on: false,
            interval: cfg.interval,
            next_due: SimTime::MAX,
            registry: MetricsRegistry::new(),
            ids: None,
            drift_template: None,
            slo_specs: Vec::new(),
            monitors: Vec::new(),
            model_names: Vec::new(),
            client_model: Vec::new(),
            lifecycle_models: Vec::new(),
            clients: Vec::new(),
            after_revoke: false,
            snapshots: SnapshotSeries::default(),
            shares_scratch: Vec::new(),
            alerts: Vec::new(),
            run_log: RunLog::default(),
        };
        if !cfg.enabled {
            return hub;
        }
        let registry = &mut hub.registry;
        let ids = Ids {
            c_admitted: registry.counter("clients_admitted"),
            c_oom: registry.counter("clients_rejected_oom"),
            c_runs_started: registry.counter("runs_started"),
            c_runs_completed: registry.counter("runs_completed"),
            c_deadline: registry.counter("runs_deadline_cancelled"),
            c_switches: registry.counter("token_switches"),
            c_slo_breaches: registry.counter("slo_breaches"),
            c_alerts_drift: registry.counter("alerts_drift"),
            c_alerts_slo: registry.counter("alerts_slo_burn"),
            _batches_planned: registry.counter("batches_planned"),
            c_faults_kernel: registry.counter("faults_kernel"),
            c_faults_alloc: registry.counter("faults_alloc"),
            c_retries: registry.counter("kernel_retries"),
            c_breaker_open: registry.counter("breaker_open_events"),
            c_shed: registry.counter("clients_shed"),
            c_watchdog: registry.counter("watchdog_revocations"),
            c_versions_loaded: registry.counter("versions_loaded"),
            c_versions_unloaded: registry.counter("versions_unloaded"),
            c_versions_evicted: registry.counter("versions_evicted"),
            c_warmup_runs: registry.counter("warmup_runs"),
            c_promotions: registry.counter("canary_promotions"),
            c_rollbacks: registry.counter("canary_rollbacks"),
            c_drains: registry.counter("drains_started"),
            _trace_dropped: registry.counter("trace_dropped_events"),
            c_control_transitions: registry.counter("control_transitions"),
            c_admission_shed: registry.counter("clients_admission_shed"),
            c_batch_shrinks: registry.counter("control_batch_shrinks"),
            c_profile_rebinds: registry.counter("control_profile_rebinds"),
            c_laxity_cancels: registry.counter("control_laxity_cancels"),
            c_cluster_routes: registry.counter("cluster_routes"),
            c_cluster_migrations: registry.counter("cluster_migrations"),
            c_cluster_reconfigs: registry.counter("cluster_reconfigs"),
            g_queue: registry.gauge("admission_queue_depth"),
            g_pool_idle: registry.gauge("pool_idle_threads"),
            g_starving: registry.gauge("starving_jobs"),
            g_active_jobs: registry.gauge("scheduler_active_jobs"),
            g_holder_ratio: registry.gauge("holder_cost_ratio"),
            g_fairness: registry.gauge("gpu_share_fairness"),
            g_resident: registry.gauge("resident_model_bytes"),
            h_quantum: registry.histogram("quantum_us"),
            h_handoff: registry.histogram("handoff_us"),
            h_latency: registry.histogram("run_latency_us"),
            _batch_size: registry.histogram("batch_size"),
            _batch_wait: registry.histogram("batch_wait_us"),
        };
        let mut interned: HashMap<&str, u32> = HashMap::new();
        for name in client_models {
            let m = *interned.entry(name).or_insert_with(|| {
                hub.model_names.push(name.to_string());
                hub.model_names.len() as u32 - 1
            });
            hub.client_model.push(m);
        }
        hub.lifecycle_models = lifecycle_models.into_iter().map(str::to_string).collect();
        hub.monitors = cfg.slos.iter().map(|s| SloMonitor::new(cfg.burn, s.budget)).collect();
        hub.on = true;
        hub.next_due = SimTime::ZERO + cfg.interval;
        hub.ids = Some(ids);
        hub.drift_template = cfg.drift.clone();
        hub.slo_specs = cfg.slos.clone();
        hub
    }

    /// Whether anything is recorded. Call sites use this to skip building
    /// event payloads entirely.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Next snapshot boundary (`SimTime::MAX` when off) — the engine's
    /// one-branch hot-loop check.
    #[inline]
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    fn ids(&self) -> Ids {
        self.ids.expect("telemetry fed while off")
    }

    /// Folds one engine event recorded at `at` into the registry. Returns
    /// a drift alert the first time a client's quantum detector fires (on
    /// a `QuantumEnd`), for the engine to act on and mirror into the trace.
    ///
    /// Token moves are counted once per move: a `TokenGrant` immediately
    /// following a `TokenRevoke` is the second half of the same move.
    #[inline]
    pub fn observe(&mut self, at: SimTime, kind: &TraceKind) -> Option<Alert> {
        // Per-kernel events carry nothing the fold counts. Checking here,
        // inline, lets each engine call site settle both branches at
        // compile time.
        if !self.on || kind.is_kernel() {
            return None;
        }
        self.fold(at, kind)
    }

    fn fold(&mut self, at: SimTime, kind: &TraceKind) -> Option<Alert> {
        let ids = self.ids();
        let after_revoke = std::mem::take(&mut self.after_revoke);
        let counter = match *kind {
            TraceKind::ClientAdmitted { client, .. } => {
                self.bind(client);
                ids.c_admitted
            }
            TraceKind::ClientRejectedOom { .. } => ids.c_oom,
            TraceKind::RunRegistered { client, .. } => {
                if let Some(state) = self.clients.get_mut(client as usize) {
                    state.run_start = at;
                }
                ids.c_runs_started
            }
            TraceKind::RunCompleted { client, .. } => {
                self.run_complete(at, client);
                ids.c_runs_completed
            }
            TraceKind::DeadlineCancelled { .. } => ids.c_deadline,
            TraceKind::TokenRevoke { .. } => {
                self.after_revoke = true;
                ids.c_switches
            }
            TraceKind::TokenGrant { .. } if after_revoke => return None,
            TraceKind::TokenGrant { .. } => ids.c_switches,
            TraceKind::QuantumEnd { client, gpu, .. } => return self.quantum(at, client, gpu),
            TraceKind::KernelFault { .. } => ids.c_faults_kernel,
            TraceKind::AllocFault { .. } => ids.c_faults_alloc,
            TraceKind::RetryScheduled { .. } => ids.c_retries,
            TraceKind::BreakerTransition { client, shed: Some(cause), .. } => {
                let (action, detail) = (cause.as_str(), u64::from(cause.count()));
                self.alerts.push(Alert::FaultRecovery { at, client, action, detail });
                ids.c_shed
            }
            TraceKind::BreakerTransition { client, state: "open", .. } => {
                let (action, detail) = ("breaker-open", 0);
                self.alerts.push(Alert::FaultRecovery { at, client, action, detail });
                ids.c_breaker_open
            }
            TraceKind::WatchdogRevoke { client, stalled_us, .. } => {
                let (action, detail) = ("watchdog-revoke", stalled_us);
                self.alerts.push(Alert::FaultRecovery { at, client, action, detail });
                ids.c_watchdog
            }
            TraceKind::VersionLoad { .. } => ids.c_versions_loaded,
            TraceKind::VersionUnload { .. } => ids.c_versions_unloaded,
            TraceKind::Evict { .. } => ids.c_versions_evicted,
            TraceKind::WarmupRun { .. } => ids.c_warmup_runs,
            TraceKind::Drain { .. } => ids.c_drains,
            TraceKind::CanaryPromote { model, version, cand_us, base_us } => {
                self.rollout(at, model, version, "promote", cand_us, base_us);
                ids.c_promotions
            }
            TraceKind::CanaryRollback { model, version, cand_us, base_us } => {
                self.rollout(at, model, version, "rollback", cand_us, base_us);
                ids.c_rollbacks
            }
            TraceKind::ControlTransition { .. } => ids.c_control_transitions,
            TraceKind::AdmissionShed { .. } => ids.c_admission_shed,
            TraceKind::BatchShrink { .. } => ids.c_batch_shrinks,
            TraceKind::ProfileRebind { .. } => ids.c_profile_rebinds,
            TraceKind::LaxityCancel { .. } => ids.c_laxity_cancels,
            TraceKind::ClusterRoute { .. } => ids.c_cluster_routes,
            TraceKind::ClusterMigrate { .. } => ids.c_cluster_migrations,
            TraceKind::ClusterReconfig { .. } => ids.c_cluster_reconfigs,
            _ => return None,
        };
        self.registry.inc(counter, 1);
        None
    }

    /// Binds an admitted client to its model's objective and a fresh drift
    /// detector. Grows the per-client table — the only allocation after
    /// construction, and only at client-arrival granularity.
    fn bind(&mut self, client: u32) {
        let idx = client as usize;
        if self.clients.len() <= idx {
            self.clients.resize(idx + 1, ClientState::UNBOUND);
        }
        let model = self.client_model[idx];
        let name = &self.model_names[model as usize];
        self.clients[idx] = ClientState {
            model: Some(model),
            slo: self.slo_specs.iter().position(|s| s.model == *name).map(|i| i as u32),
            drift: self.drift_template.clone().map(DriftDetector::new),
            gpu_ns: 0,
            run_start: SimTime::ZERO,
        };
    }

    /// A run completed: feeds the latency histogram, the exact run log and
    /// the owning model's SLO window.
    fn run_complete(&mut self, at: SimTime, client: u32) {
        let ids = self.ids();
        let Some(state) = self.clients.get(client as usize) else { return };
        let latency = at - state.run_start;
        self.registry.observe(ids.h_latency, latency.as_nanos() / 1_000);
        self.run_log.at.push(at);
        self.run_log.client.push(client);
        self.run_log.latency.push(latency);
        if let Some(slo) = state.slo {
            let breach = latency > self.slo_specs[slo as usize].objective;
            if breach {
                self.registry.inc(ids.c_slo_breaches, 1);
            }
            self.monitors[slo as usize].observe(breach);
        }
    }

    /// A quantum was flushed: feeds the quantum histogram, the per-client
    /// GPU share and the streaming drift detector.
    fn quantum(&mut self, at: SimTime, client: u32, gpu: SimDuration) -> Option<Alert> {
        let ids = self.ids();
        self.registry.observe(ids.h_quantum, gpu.as_nanos() / 1_000);
        let state = self.clients.get_mut(client as usize)?;
        state.gpu_ns += gpu.as_nanos();
        let signal = state.drift.as_mut()?.observe(gpu)?;
        self.registry.inc(ids.c_alerts_drift, 1);
        let alert = Alert::Drift {
            at,
            client,
            observed_us: signal.observed_mean_us,
            expected_us: signal.expected_us,
            deviation: signal.deviation,
        };
        self.alerts.push(alert.clone());
        Some(alert)
    }

    fn rollout(
        &mut self,
        at: SimTime,
        model: u32,
        version: u32,
        action: &'static str,
        cand_us: u64,
        base_us: u64,
    ) {
        let model = self.lifecycle_models[model as usize].clone();
        self.alerts.push(Alert::Rollout { at, model, version, action, cand_us, base_us });
    }

    /// Token hand-off latency: grant to the holder's first kernel
    /// submission. A direct call rather than an event: its second endpoint
    /// is a per-kernel fact the engine only records under a Full trace.
    #[inline]
    pub fn on_handoff(&mut self, latency: SimDuration) {
        if !self.on {
            return;
        }
        let ids = self.ids();
        self.registry.observe(ids.h_handoff, latency.as_nanos() / 1_000);
    }

    /// Acknowledges a burn alert on objective `slo`, resetting that
    /// monitor's rising-edge latch so a burn that persists through the
    /// control plane's countermeasure fires again at the next boundary.
    /// Control feedback, not a fact: it changes what the monitor does next.
    #[inline]
    pub fn reset_burn_latch(&mut self, slo: u32) {
        if !self.on {
            return;
        }
        if let Some(m) = self.monitors.get_mut(slo as usize) {
            m.reset_latch();
        }
    }

    fn snapshot_at(&mut self, at: SimTime, gauges: &EngineGauges, fired: &mut Vec<Alert>) {
        // Buffered histogram observations become visible at snapshot
        // boundaries — flush before anything below reads the registry.
        self.registry.flush();
        let ids = self.ids();
        self.registry.set_gauge(ids.g_queue, gauges.queue_depth as f64);
        self.registry.set_gauge(ids.g_pool_idle, gauges.pool_idle as f64);
        self.registry.set_gauge(ids.g_starving, gauges.starving as f64);
        self.registry.set_gauge(ids.g_active_jobs, gauges.active_jobs as f64);
        let ratio = match gauges.holder_cost {
            Some((c, t)) if t > 0 => c as f64 / t as f64,
            _ => 0.0,
        };
        self.registry.set_gauge(ids.g_holder_ratio, ratio);
        self.registry.set_gauge(ids.g_resident, gauges.resident_model_bytes as f64);
        self.shares_scratch.clear();
        self.shares_scratch.extend(self.clients.iter().map(|c| c.gpu_ns as f64));
        // An idle window (no clients yet) must not panic: try_* + neutral 1.0.
        let fairness = metrics::try_jain_fairness(&self.shares_scratch).unwrap_or(1.0);
        self.registry.set_gauge(ids.g_fairness, fairness);

        // Rotate the SLO windows; burn alerts are stamped at the boundary
        // and counted inside this snapshot.
        for (i, m) in self.monitors.iter_mut().enumerate() {
            if let Some(sig) = m.rotate() {
                self.registry.inc(ids.c_alerts_slo, 1);
                let alert = Alert::SloBurn {
                    at,
                    slo: i as u32,
                    model: self.slo_specs[i].model.clone(),
                    short_burn: sig.short_burn,
                    long_burn: sig.long_burn,
                };
                self.alerts.push(alert.clone());
                fired.push(alert);
            }
        }

        // Append the row into the struct-of-arrays series: plain extends,
        // no per-snapshot allocation.
        let s = &mut self.snapshots;
        s.at.push(at);
        s.counters.extend_from_slice(self.registry.counter_values());
        s.gauges.extend_from_slice(self.registry.gauge_values());
        self.registry.snap_hists_into(&mut s.hists);
        s.gpu_ns.extend(self.clients.iter().map(|c| c.gpu_ns));
        s.gpu_ns_end.push(s.gpu_ns.len() as u32);
        s.n_counters = self.registry.counter_values().len() as u32;
        s.n_gauges = self.registry.gauge_values().len() as u32;
        s.n_hists = self.registry.hist_names().len() as u32;
    }

    /// Emits every snapshot boundary due at or before `now`. The engine
    /// calls this from the event loop when `t >= next_due()`; any alerts
    /// fired at the boundaries are returned for recording into the trace.
    pub fn tick(&mut self, now: SimTime, gauges: &EngineGauges) -> Vec<Alert> {
        let mut fired = Vec::new();
        while self.next_due <= now {
            let at = self.next_due;
            self.snapshot_at(at, gauges, &mut fired);
            self.next_due = at + self.interval;
        }
        fired
    }

    /// Flushes the tail at end of run: remaining full boundaries, then one
    /// final (possibly partial) snapshot at `makespan` so the last window
    /// is never lost. Total snapshots = `max(1, ceil(makespan/interval))`.
    pub fn finalize(&mut self, makespan: SimTime, gauges: &EngineGauges) -> Vec<Alert> {
        if !self.on {
            return Vec::new();
        }
        let mut fired = self.tick(makespan, gauges);
        let partial = match self.snapshots.last() {
            Some(s) => s.at < makespan,
            None => true,
        };
        if partial {
            self.snapshot_at(makespan, gauges, &mut fired);
        }
        fired
    }

    /// Consumes the hub into its report.
    pub fn into_report(self, makespan: SimTime) -> TelemetryReport {
        TelemetryReport {
            enabled: self.on,
            interval: self.interval,
            makespan,
            counter_names: self.registry.counter_names().to_vec(),
            gauge_names: self.registry.gauge_names().to_vec(),
            hist_names: self.registry.hist_names().to_vec(),
            client_models: self
                .clients
                .iter()
                .map(|c| c.model.map_or_else(String::new, |m| self.model_names[m as usize].clone()))
                .collect(),
            slos: self.slo_specs,
            snapshots: self.snapshots,
            alerts: self.alerts,
            run_log: self.run_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::{ShedCause, SwitchReason};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    fn hub(cfg: &TelemetryConfig, models: &[&str]) -> TelemetryHub {
        TelemetryHub::new(cfg, models.iter().copied(), ["m"])
    }

    fn admit(h: &mut TelemetryHub, client: u32) {
        h.observe(t(0), &TraceKind::ClientAdmitted { client, device: 0 });
    }

    fn quantum(h: &mut TelemetryHub, client: u32, gpu: SimDuration, at: SimTime) -> Option<Alert> {
        h.observe(at, &TraceKind::QuantumEnd { job: 0, client, gpu })
    }

    /// One run of `client` registered at `from` and completed at `to`.
    fn run(h: &mut TelemetryHub, client: u32, from: SimTime, to: SimTime) {
        h.observe(from, &TraceKind::RunRegistered { job: 0, client });
        h.observe(to, &TraceKind::RunCompleted { job: 0, client });
    }

    #[test]
    fn off_hub_is_inert() {
        let mut h = hub(&TelemetryConfig::off(), &["m"]);
        assert!(!h.is_on());
        assert_eq!(h.next_due(), SimTime::MAX);
        admit(&mut h, 0);
        assert_eq!(quantum(&mut h, 0, us(100), t(10)), None);
        run(&mut h, 0, t(0), t(50));
        assert!(h.tick(t(1_000_000), &EngineGauges::default()).is_empty());
        assert!(h.finalize(t(1_000_000), &EngineGauges::default()).is_empty());
        let r = h.into_report(t(1_000_000));
        assert!(!r.enabled);
        assert!(r.snapshots.is_empty());
    }

    #[test]
    fn snapshot_count_matches_interval_arithmetic() {
        let mut h = hub(&TelemetryConfig::enabled(us(100)), &["m"]);
        admit(&mut h, 0);
        let g = EngineGauges::default();
        // Events at 250µs: boundaries 100 and 200 fire.
        assert!(h.tick(t(250), &g).is_empty());
        assert_eq!(h.snapshots.len(), 2);
        // Makespan 530µs: boundaries 300,400,500 plus the partial at 530.
        h.finalize(t(530), &g);
        let r = h.into_report(t(530));
        assert_eq!(r.snapshots.len(), 6);
        assert_eq!(r.expected_snapshots(), 6);
        assert_eq!(r.snapshots.last().unwrap().at, t(530));
        // Timestamps strictly increase.
        assert!(r
            .snapshots
            .iter()
            .zip(r.snapshots.iter().skip(1))
            .all(|(a, b)| a.at < b.at));
    }

    #[test]
    fn exact_multiple_makespan_has_no_partial_snapshot() {
        let mut h = hub(&TelemetryConfig::enabled(us(100)), &[]);
        let g = EngineGauges::default();
        h.tick(t(300), &g);
        h.finalize(t(300), &g);
        let r = h.into_report(t(300));
        assert_eq!(r.snapshots.len(), 3);
        assert_eq!(r.expected_snapshots(), 3);
    }

    #[test]
    fn zero_makespan_still_emits_one_snapshot() {
        let mut h = hub(&TelemetryConfig::enabled(us(100)), &[]);
        h.finalize(SimTime::ZERO, &EngineGauges::default());
        let r = h.into_report(SimTime::ZERO);
        assert_eq!(r.snapshots.len(), 1);
        assert_eq!(r.expected_snapshots(), 1);
    }

    #[test]
    fn counters_histograms_and_shares_accumulate() {
        let cfg = TelemetryConfig::enabled(us(100))
            .with_slo(SloSpec::new("m", us(500), 0.1));
        let mut h = hub(&cfg, &["m", "other", "m"]);
        admit(&mut h, 0);
        admit(&mut h, 1);
        h.observe(
            t(10),
            &TraceKind::TokenGrant { job: 0, client: Some(0), reason: SwitchReason::Register },
        );
        h.on_handoff(us(80));
        assert!(quantum(&mut h, 0, us(200), t(50)).is_none(), "no drift config");
        quantum(&mut h, 1, us(100), t(60));
        run(&mut h, 0, t(0), t(700)); // breach of the 500µs objective
        run(&mut h, 1, t(700), t(800)); // no SLO bound to "other"
        h.finalize(t(90), &EngineGauges { queue_depth: 2, ..Default::default() });
        let r = h.into_report(t(90));
        assert_eq!(r.counter("clients_admitted"), Some(2));
        assert_eq!(r.counter("runs_started"), Some(2));
        assert_eq!(r.counter("runs_completed"), Some(2));
        assert_eq!(r.counter("slo_breaches"), Some(1));
        assert_eq!(r.counter("token_switches"), Some(1));
        let q = r.hist("quantum_us").unwrap();
        assert_eq!(q.count, 2);
        assert_eq!(q.sum, 300);
        let last = r.last().unwrap();
        assert_eq!(last.client_gpu_ns, vec![200_000, 100_000]);
        let qd = r.gauge_names.iter().position(|n| *n == "admission_queue_depth").unwrap();
        assert_eq!(last.gauges[qd], 2.0);
        // Client 2 was never admitted: the table stops at client 1.
        assert_eq!(r.client_models, vec!["m".to_string(), "other".to_string()]);
        let lat: Vec<SimDuration> = r.run_log.latency.clone();
        assert_eq!(lat, vec![us(700), us(100)]);
    }

    #[test]
    fn a_revoke_grant_pair_is_one_token_switch() {
        let mut h = hub(&TelemetryConfig::enabled(us(100)), &[]);
        let reason = SwitchReason::QuantumExpired;
        let revoke = TraceKind::TokenRevoke { job: 1, client: Some(0), reason };
        let grant = TraceKind::TokenGrant { job: 2, client: Some(1), reason };
        // Moved { Some, Some }, then Moved { Some, None }, then
        // Moved { None, Some }: three moves, four events.
        h.observe(t(1), &revoke);
        h.observe(t(1), &grant);
        h.observe(t(2), &revoke);
        h.observe(t(3), &TraceKind::ClientFinished { client: 0 });
        h.observe(t(3), &grant);
        h.finalize(t(5), &EngineGauges::default());
        assert_eq!(h.into_report(t(5)).counter("token_switches"), Some(3));
    }

    #[test]
    fn unadmitted_gaps_report_empty_model_names() {
        let mut h = hub(&TelemetryConfig::enabled(us(100)), &["a", "b", "c"]);
        admit(&mut h, 2);
        h.finalize(t(5), &EngineGauges::default());
        let r = h.into_report(t(5));
        assert_eq!(r.client_models, vec![String::new(), String::new(), "c".to_string()]);
    }

    #[test]
    fn fault_and_rollout_events_land_on_the_alert_stream() {
        let mut h = hub(&TelemetryConfig::enabled(us(100)), &[]);
        let open = TraceKind::BreakerTransition { client: 3, state: "open", shed: None };
        let probe = TraceKind::BreakerTransition { client: 3, state: "half-open", shed: None };
        let shed = TraceKind::BreakerTransition {
            client: 3,
            state: "shed",
            shed: Some(ShedCause::CircuitOpen(2)),
        };
        h.observe(t(1), &open);
        h.observe(t(2), &probe);
        h.observe(t(3), &shed);
        h.observe(t(4), &TraceKind::WatchdogRevoke { job: 1, client: 0, stalled_us: 900 });
        h.observe(
            t(5),
            &TraceKind::CanaryRollback { model: 0, version: 2, cand_us: 40, base_us: 30 },
        );
        h.finalize(t(6), &EngineGauges::default());
        let r = h.into_report(t(6));
        assert_eq!(r.counter("breaker_open_events"), Some(1));
        assert_eq!(r.counter("clients_shed"), Some(1));
        assert_eq!(r.counter("watchdog_revocations"), Some(1));
        assert_eq!(r.counter("canary_rollbacks"), Some(1));
        assert_eq!(
            r.alerts,
            vec![
                Alert::FaultRecovery { at: t(1), client: 3, action: "breaker-open", detail: 0 },
                Alert::FaultRecovery { at: t(3), client: 3, action: "circuit-open", detail: 2 },
                Alert::FaultRecovery {
                    at: t(4),
                    client: 0,
                    action: "watchdog-revoke",
                    detail: 900
                },
                Alert::Rollout {
                    at: t(5),
                    model: "m".to_string(),
                    version: 2,
                    action: "rollback",
                    cand_us: 40,
                    base_us: 30
                },
            ]
        );
    }

    #[test]
    fn drift_and_slo_alerts_flow_into_the_report() {
        let cfg = TelemetryConfig::enabled(us(100))
            .with_slo(SloSpec::new("m", us(100), 0.1))
            .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
            .with_drift(DriftConfig::new(us(200), 0.1));
        let mut h = hub(&cfg, &["m"]);
        admit(&mut h, 0);
        let g = EngineGauges::default();
        let mut drift_alerts = 0;
        for i in 0..10u64 {
            // Quanta 50% over target: drift fires once warm.
            if quantum(&mut h, 0, us(300), t(i * 50 + 10)).is_some() {
                drift_alerts += 1;
            }
            // Every run breaches the 100µs objective.
            run(&mut h, 0, t(0), t(400));
            h.tick(t((i + 1) * 50), &g);
        }
        h.finalize(t(500), &g);
        assert_eq!(drift_alerts, 1);
        let r = h.into_report(t(500));
        assert_eq!(r.counter("alerts_drift"), Some(1));
        assert!(r.counter("alerts_slo_burn").unwrap() >= 1);
        assert!(r.alerts.iter().any(|a| a.kind() == "drift"));
        assert!(r.alerts.iter().any(|a| a.kind() == "slo-burn"));
        // Alerts are stamped in non-decreasing time order.
        assert!(r.alerts.windows(2).all(|w| w[0].at() <= w[1].at()));
    }
}
