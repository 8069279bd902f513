//! End-to-end checks of the telemetry layer: byte-determinism of the
//! JSON-lines and Prometheus exports across worker counts, the full alert
//! path of a drifting deployment — report, JSON-lines stream and Perfetto
//! timeline — and the fold property: every counter equals the number of
//! its events in a lossless trace, whatever layers are on.

use lifecycle::{CanaryConfig, DeploymentPlan, LifecycleConfig, ModelDeployment};
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin, StoreBinder};
use serving::faults::{FaultConfig, FaultPlan};
use serving::trace::TraceKind;
use serving::{run_experiment, ClientSpec, EngineConfig, FifoScheduler, RunReport, TraceConfig};
use simtime::{DetRng, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const INTERVAL: SimDuration = SimDuration::from_micros(100);

/// Builds the profile store through `simpar::par_map` — the code path
/// `--jobs N` parallelizes — so the determinism test actually covers the
/// parallel harness.
fn store_for(cfg: &EngineConfig) -> Arc<ProfileStore> {
    let models = [models::mini::small(4), models::mini::branchy(2)];
    let profiles = simpar::par_map(&models, |_, m| Profiler::new(cfg).profile(m));
    let mut store = ProfileStore::new();
    for p in profiles {
        store.insert(p);
    }
    Arc::new(store)
}

fn clients() -> Vec<ClientSpec> {
    vec![
        ClientSpec::new(models::mini::small(4), 8),
        ClientSpec::new(models::mini::small(4), 8),
        ClientSpec::new(models::mini::branchy(2), 8),
    ]
}

/// A deployment whose device regressed 40% after profiling, with telemetry
/// and sampled tracing on: the profiles (and the latency objective,
/// calibrated on the fresh device by a probe run) are stale, so both the
/// streaming drift detector and the SLO burn-rate monitor fire mid-run.
fn drifted_run() -> RunReport {
    let fresh = EngineConfig::default();
    let store = store_for(&fresh);

    let probe_cfg = fresh.with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let mut probe_sched =
        OlympianScheduler::new(Arc::clone(&store), Box::new(RoundRobin::new()), QUANTUM);
    let probe = run_experiment(&probe_cfg, clients(), &mut probe_sched);
    let fresh_p50_us = probe
        .telemetry
        .hist("run_latency_us")
        .expect("latency histogram")
        .p50;
    let objective = SimDuration::from_micros((fresh_p50_us * 1.15).ceil() as u64);

    let mut cfg = EngineConfig::default();
    cfg.device = gpusim::DeviceProfile::custom(
        "regressed",
        1.4,
        cfg.device.memory_bytes(),
        cfg.device.sm_count(),
        0.0,
    );
    let tc = TelemetryConfig::enabled(INTERVAL)
        .with_slo(SloSpec::new("mini-small", objective, 0.05))
        .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
        .with_drift(DriftConfig::new(QUANTUM, 0.25));
    let cfg = cfg.with_trace(TraceConfig::sampled()).with_telemetry(tc);
    let mut sched =
        OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM);
    run_experiment(&cfg, clients(), &mut sched)
}

#[test]
fn telemetry_exports_are_byte_identical_across_job_counts() {
    std::env::remove_var(simpar::JOBS_ENV);
    let serial = drifted_run();
    assert!(serial.all_finished());
    let serial_jsonl = serial.telemetry_jsonl();
    let serial_prom = serial.prometheus_text();

    std::env::set_var(simpar::JOBS_ENV, "2");
    let parallel = drifted_run();
    std::env::remove_var(simpar::JOBS_ENV);

    assert_eq!(
        serial_jsonl,
        parallel.telemetry_jsonl(),
        "JSON-lines export must not depend on the worker count"
    );
    assert_eq!(
        serial_prom,
        parallel.prometheus_text(),
        "Prometheus export must not depend on the worker count"
    );
}

/// The fault-recovery counters are first-class registry members: they show
/// up in both exporters even for a healthy run (at zero), and count real
/// events when a fault plan is active.
#[test]
fn fault_recovery_counters_flow_through_both_exporters() {
    const KEYS: [&str; 6] = [
        "faults_kernel",
        "faults_alloc",
        "kernel_retries",
        "breaker_open_events",
        "clients_shed",
        "watchdog_revocations",
    ];

    let cfg = EngineConfig::default().with_telemetry(TelemetryConfig::enabled(INTERVAL));
    let store = store_for(&cfg);
    let mut sched =
        OlympianScheduler::new(Arc::clone(&store), Box::new(RoundRobin::new()), QUANTUM);
    let healthy = run_experiment(&cfg, clients(), &mut sched);
    let prom = healthy.prometheus_text();
    let jsonl = healthy.telemetry_jsonl();
    for key in KEYS {
        assert!(healthy.telemetry.counter(key).is_some(), "{key} not registered");
        assert!(prom.contains(&format!("olympian_{key} 0")), "{key} missing in prom");
        assert!(jsonl.contains(&format!("\"{key}\":0")), "{key} missing in jsonl");
    }

    let plan = serving::faults::FaultPlan::new().with_kernel_failures(0.05);
    let cfg = cfg.with_faults(serving::faults::FaultConfig::new(plan));
    let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM);
    let faulted = run_experiment(&cfg, clients(), &mut sched);
    let faults = faulted.telemetry.counter("faults_kernel").expect("registered");
    assert!(faults > 0, "plan must fire");
    assert!(faulted
        .prometheus_text()
        .contains(&format!("olympian_faults_kernel {faults}")));
    assert!(faulted
        .telemetry_jsonl()
        .contains(&format!("\"faults_kernel\":{faults}")));
}

#[test]
fn drifting_deployment_alerts_in_report_stream_and_timeline() {
    let report = drifted_run();
    let t = &report.telemetry;
    assert!(t.enabled);
    assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
    assert!(
        t.alerts.iter().any(|a| a.kind() == "drift"),
        "regressed device must trip the drift detector: {:?}",
        t.alerts
    );
    assert!(
        t.alerts.iter().any(|a| a.kind() == "slo-burn"),
        "stale objective must burn its budget: {:?}",
        t.alerts
    );

    // Every JSON-lines line parses; the stream carries both alert kinds
    // and exactly the advertised snapshot/alert counts in time order.
    let jsonl = report.telemetry_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    let meta = microjson::Value::parse(lines[0]).expect("meta line parses");
    assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
    let (mut snapshots, mut alerts, mut last_t) = (0u64, 0u64, 0u64);
    for line in &lines[1..] {
        let v = microjson::Value::parse(line).expect("every line parses");
        let at = v.get("t_ns").unwrap().as_u64().unwrap();
        assert!(at >= last_t, "stream regressed in time");
        last_t = at;
        match v.get("type").unwrap().as_str().unwrap() {
            "snapshot" => snapshots += 1,
            "alert" => alerts += 1,
            other => panic!("unexpected line type {other}"),
        }
    }
    assert_eq!(snapshots, meta.get("snapshots").unwrap().as_u64().unwrap());
    assert_eq!(alerts, meta.get("alerts").unwrap().as_u64().unwrap());
    assert!(jsonl.contains("\"kind\":\"drift\""));
    assert!(jsonl.contains("\"kind\":\"slo-burn\""));

    // The same alerts land on the Perfetto timeline as instant events.
    let trace_json = report.chrome_trace_json();
    assert!(trace_json.contains("\"drift-alert\""));
    assert!(trace_json.contains("\"slo-burn-alert\""));
    microjson::Value::parse(&trace_json).expect("chrome trace parses");
}

/// Counters folded one-to-one from a trace kind, keyed by the kind's name.
const ONE_EVENT_EACH: [(&str, &str); 26] = [
    ("clients_admitted", "ClientAdmitted"),
    ("clients_rejected_oom", "ClientRejectedOom"),
    ("runs_started", "RunRegistered"),
    ("runs_completed", "RunCompleted"),
    ("runs_deadline_cancelled", "DeadlineCancelled"),
    ("alerts_drift", "DriftAlert"),
    ("alerts_slo_burn", "SloBurnAlert"),
    ("faults_kernel", "KernelFault"),
    ("faults_alloc", "AllocFault"),
    ("kernel_retries", "RetryScheduled"),
    ("watchdog_revocations", "WatchdogRevoke"),
    ("versions_loaded", "VersionLoad"),
    ("versions_unloaded", "VersionUnload"),
    ("versions_evicted", "Evict"),
    ("warmup_runs", "WarmupRun"),
    ("canary_promotions", "CanaryPromote"),
    ("canary_rollbacks", "CanaryRollback"),
    ("drains_started", "Drain"),
    ("control_transitions", "ControlTransition"),
    ("clients_admission_shed", "AdmissionShed"),
    ("control_batch_shrinks", "BatchShrink"),
    ("control_profile_rebinds", "ProfileRebind"),
    ("control_laxity_cancels", "LaxityCancel"),
    ("cluster_routes", "ClusterRoute"),
    ("cluster_migrations", "ClusterMigrate"),
    ("cluster_reconfigs", "ClusterReconfig"),
];

/// Counters no event feeds: they stay registered so the export keeps its
/// metric set, and always read 0.
const NOT_EVENTS: [&str; 2] = ["batches_planned", "trace_dropped_events"];

/// Where the clients' models live in one cell.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Unmanaged weights on one device.
    Plain,
    /// A lifecycle plan publishing a canaried version 2 mid-run.
    Lifecycle,
    /// A two-device cluster with routing, reconfiguration and a version 2.
    Cluster,
}

/// Rebadges a mini model as service `name`; `heavy` picks the larger
/// graph.
fn service(name: &str, heavy: bool, batch: u64) -> models::LoadedModel {
    let m = if heavy { models::mini::small(4) } else { models::mini::tiny(4) };
    models::LoadedModel::from_parts(
        name,
        None,
        batch,
        Arc::clone(m.graph()),
        m.weights_bytes(),
        m.activation_bytes(),
    )
}

/// One cell: three clients of two services, every observation layer on
/// (unbounded Full trace, telemetry with an objective, burn windows and
/// drift detection), plus the chosen placement, faults (at the given
/// kernel-failure rate) and control plane.
fn layered_run(
    placement: Placement,
    kernel_faults: Option<f64>,
    control: bool,
    seed: u64,
    regressed: bool,
) -> RunReport {
    let ms = SimTime::from_millis;
    let mut cfg = EngineConfig { seed, ..EngineConfig::default() }
        .with_trace(TraceConfig::full())
        .with_telemetry(
            TelemetryConfig::enabled(SimDuration::from_micros(200))
                .with_slo(SloSpec::new("svc-a", SimDuration::from_micros(600), 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
                .with_drift(DriftConfig::new(QUANTUM, 0.25)),
        );
    let clients = vec![
        ClientSpec::new(service("svc-a", false, 4), 12),
        ClientSpec::new(service("svc-a", false, 4), 12).with_start(SimTime::from_micros(100)),
        ClientSpec::new(service("svc-b", true, 4), 6)
            .with_start(SimTime::from_micros(200))
            .with_run_deadline(SimDuration::from_micros(1500)),
    ];
    // Unmanaged and versioned profiles at the full batch hint and at the
    // Degraded rung's halved one.
    let mut store = ProfileStore::new();
    let profiler = Profiler::new(&cfg);
    for (name, heavy) in [
        ("svc-a", false),
        ("svc-b", true),
        ("svc-a@v1", false),
        ("svc-a@v2", regressed),
        ("svc-b@v1", true),
    ] {
        for batch in [4, 2] {
            store.insert(profiler.profile(&service(name, heavy, batch)));
        }
    }
    let store = Arc::new(store);
    let plan = DeploymentPlan::new()
        .with_model(
            ModelDeployment::new("svc-a", service("svc-a", false, 4))
                .with_version(service("svc-a", regressed, 4), SimTime::from_micros(300)),
        )
        .with_model(ModelDeployment::new("svc-b", service("svc-b", true, 4)));
    match placement {
        Placement::Plain => {}
        Placement::Lifecycle => {
            let binder = StoreBinder::calibrate(&cfg, &plan, Arc::clone(&store));
            let canary = CanaryConfig { stride: 3, min_runs: 4, tolerance: 0.25 };
            cfg = cfg.with_lifecycle(
                LifecycleConfig::new(plan.clone()).with_canary(canary).with_binder(binder),
            );
        }
        Placement::Cluster => {
            let devices = vec![gpusim::DeviceProfile::gtx_1080_ti(); 2];
            cfg = cfg.with_cluster(
                cluster::ClusterConfig::new(devices, LifecycleConfig::new(plan.clone()))
                    .with_tick(SimDuration::from_millis(1)),
            );
        }
    }
    if let Some(p) = kernel_faults {
        let plan = FaultPlan::new()
            .with_kernel_failures(p)
            .with_alloc_failures(0.3)
            .with_slowdown(1.5, ms(1), ms(3))
            .with_stall(ms(4), ms(5));
        cfg = cfg.with_faults(FaultConfig::new(plan));
    }
    if control {
        let oracle = olympian::StoreCostOracle::new(Arc::clone(&store));
        cfg = cfg.with_control(controlplane::ControlConfig::new().with_cost(oracle));
    }
    match placement {
        Placement::Cluster => run_experiment(&cfg, clients, &mut FifoScheduler::new()),
        _ => {
            let mut sched = OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
                .with_watchdog(3.0);
            run_experiment(&cfg, clients, &mut sched)
        }
    }
}

/// A trace kind's variant name, e.g. `"ClientAdmitted"`.
fn kind_name(kind: &TraceKind) -> String {
    format!("{kind:?}").chars().take_while(char::is_ascii_alphanumeric).collect()
}

/// Checks every final counter of `report` against the events of its
/// lossless trace and returns the checked counter values.
fn assert_counters_match_events(report: &RunReport, cell: &str) -> BTreeMap<String, u64> {
    let objective = |client: u32| {
        let model = &report.clients[client as usize].model_name;
        report.telemetry.slos.iter().find(|s| &s.model == model).map(|s| s.objective)
    };
    let mut events: HashMap<String, u64> = HashMap::new();
    let mut derived: HashMap<&str, u64> = HashMap::new();
    let mut run_start: HashMap<u32, SimTime> = HashMap::new();
    let mut after_revoke = false;
    for e in &report.trace.events {
        *events.entry(kind_name(&e.kind)).or_default() += 1;
        let derived_from = match e.kind {
            TraceKind::BreakerTransition { state: "open", .. } => Some("breaker_open_events"),
            TraceKind::BreakerTransition { state: "shed", .. } => Some("clients_shed"),
            // One token move is a revoke, a grant, or a revoke-grant pair.
            TraceKind::TokenRevoke { .. } => Some("token_switches"),
            TraceKind::TokenGrant { .. } if !after_revoke => Some("token_switches"),
            TraceKind::RunRegistered { client, .. } => {
                run_start.insert(client, e.at);
                None
            }
            TraceKind::RunCompleted { client, .. } => objective(client)
                .filter(|&o| e.at - run_start[&client] > o)
                .map(|_| "slo_breaches"),
            _ => None,
        };
        if let Some(counter) = derived_from {
            *derived.entry(counter).or_default() += 1;
        }
        after_revoke = matches!(e.kind, TraceKind::TokenRevoke { .. });
    }
    let mut checked = BTreeMap::new();
    for &name in &report.telemetry.counter_names {
        let want = match ONE_EVENT_EACH.iter().find(|(c, _)| *c == name) {
            Some((_, kind)) => events.get(*kind).copied().unwrap_or(0),
            None if matches!(
                name,
                "breaker_open_events" | "clients_shed" | "token_switches" | "slo_breaches"
            ) =>
            {
                derived.get(name).copied().unwrap_or(0)
            }
            None if NOT_EVENTS.contains(&name) => 0,
            None => panic!("{cell}: counter {name} has no event behind it"),
        };
        let got = report.telemetry.counter(name).expect("registered counter");
        assert_eq!(got, want, "{cell}: counter {name} vs its events");
        checked.insert(name.to_string(), got);
    }
    checked
}

/// Every counter is a fold over the event stream: in a lossless Full
/// trace it equals the number of its events. Cells cover every
/// combination of placement, fault injection and the control plane; each
/// cell's engine seed and canary health are drawn from a seeded stream.
#[test]
fn every_counter_equals_its_event_count_across_layer_combinations() {
    let mut rng = DetRng::new(0xC0_DE);
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for placement in [Placement::Plain, Placement::Lifecycle, Placement::Cluster] {
        for faults in [false, true] {
            for control in [false, true] {
                let seed = rng.next_u64();
                let regressed = rng.next_f64() < 0.5;
                let kernel_faults = faults.then(|| 0.02 + 0.4 * rng.next_f64());
                let cell = format!(
                    "{placement:?} kernel_faults={kernel_faults:?} control={control} \
                     seed={seed:#x} regressed={regressed}"
                );
                let report = layered_run(placement, kernel_faults, control, seed, regressed);
                for (name, v) in assert_counters_match_events(&report, &cell) {
                    *totals.entry(name).or_default() += v;
                }
            }
        }
    }
    // The property is not vacuous: every layer's facts occurred somewhere.
    for name in [
        "token_switches",
        "slo_breaches",
        "alerts_drift",
        "alerts_slo_burn",
        "runs_deadline_cancelled",
        "faults_kernel",
        "breaker_open_events",
        "clients_shed",
        "watchdog_revocations",
        "canary_rollbacks",
        "drains_started",
        "versions_unloaded",
        "cluster_routes",
        "control_transitions",
        "control_batch_shrinks",
        "control_laxity_cancels",
    ] {
        assert!(totals[name] > 0, "no cell exercised {name}: {totals:?}");
    }
}
