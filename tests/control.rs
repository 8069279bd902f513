//! Integration tests for the closed-loop control plane: degradation-ladder
//! hysteresis at engine level, the Shedding admission gate, and
//! byte-determinism of controlled runs across worker counts.

use dataflow::NodeId;
use lifecycle::{CanaryConfig, DeploymentPlan, LifecycleConfig, ModelDeployment};
use olympian::{OlympianScheduler, Profiler, ProfileStore, RoundRobin, StoreCostOracle};
use serving::cluster::{ClusterConfig, RouterPolicy};
use serving::faults::{FaultConfig, FaultPlan};
use serving::trace::TraceKind;
use serving::{
    run_experiment, ClientOutcome, ClientSpec, EngineConfig, FifoScheduler, JobCtx, JobId,
    RegisterError, RunReport, Scheduler, TraceConfig, Verdict,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{BurnWindows, DriftConfig, SloSpec, TelemetryConfig};

const QUANTUM: SimDuration = SimDuration::from_micros(200);
const CADENCE: SimDuration = SimDuration::from_micros(500);

/// Profiles the full batch and the Degraded-rung shrunk batch, so a ladder
/// escalation can re-register jobs at the smaller hint without a miss.
fn store_with_shrunk_batch(cfg: &EngineConfig, full_batch: u64) -> Arc<ProfileStore> {
    let divisor = controlplane::BATCH_DIVISOR;
    let mut store = ProfileStore::new();
    let profiler = Profiler::new(cfg);
    store.insert(profiler.profile(&models::mini::small(full_batch)));
    store.insert(profiler.profile(&models::mini::small((full_batch / divisor).max(1))));
    Arc::new(store)
}

fn fair(store: Arc<ProfileStore>) -> OlympianScheduler {
    OlympianScheduler::new(store, Box::new(RoundRobin::new()), QUANTUM)
}

fn counter(report: &RunReport, name: &str) -> u64 {
    report.telemetry.counter(name).unwrap_or(0)
}

/// The chaos `drift` incident at engine level: a sustained 1.4x slowdown
/// during [1ms, 50ms), profiles and objective from the healthy device.
/// Burn episodes during the window must walk the ladder up (shrinking
/// batch hints on the way); the quiet tail after the window must walk it
/// back down through the cool-window hysteresis — both edges visible as
/// counted, traced transitions.
#[test]
fn ladder_walks_up_under_burn_and_back_down_in_the_quiet_tail() {
    let clients = vec![ClientSpec::new(models::mini::small(4), 6); 6];
    let model_name = clients[0].model.name().to_string();
    let base = EngineConfig::default();
    let store = store_with_shrunk_batch(&base, 4);

    // Objective from the fault-free twin.
    let probe_cfg = base.with_telemetry(TelemetryConfig::enabled(CADENCE));
    let probe = run_experiment(&probe_cfg, clients.clone(), &mut fair(Arc::clone(&store)));
    let p50 = probe.telemetry.hist("run_latency_us").expect("probe histogram").p50;
    let objective = SimDuration::from_micros((p50 * 1.15).ceil() as u64);

    let plan = FaultPlan::new().with_slowdown(
        1.4,
        SimTime::from_millis(1),
        SimTime::from_millis(50),
    );
    let cfg = base
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE)
                .with_slo(SloSpec::new(&model_name, objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_faults(FaultConfig::new(plan))
        .with_control(controlplane::ControlConfig::new());
    let report = run_experiment(&cfg, clients, &mut fair(store));

    // Nobody is dropped: every client was admitted before the first burn,
    // so the ladder degrades accepted work instead of shedding sessions.
    assert!(report.all_finished(), "outcomes: {:?}",
        report.clients.iter().map(|c| &c.outcome).collect::<Vec<_>>());
    assert_eq!(counter(&report, "clients_admission_shed"), 0);

    // Up edge: repeated burn episodes escalate, and the Degraded rung
    // hands shrunk batch hints to re-registering runs.
    assert!(counter(&report, "alerts_slo_burn") >= 2, "burn alerts must repeat");
    assert!(counter(&report, "control_transitions") >= 2);
    assert!(counter(&report, "control_batch_shrinks") >= 1);
    let json = report.chrome_trace_json();
    assert!(json.contains("\"control-healthy-to-degraded\""));

    // Down edge: the quiet tail after the slowdown window clears the burn,
    // and a full cool window later the ladder steps back down.
    assert!(
        json.contains("\"control-degraded-to-healthy\"")
            || json.contains("\"control-shedding-to-degraded\""),
        "no downward transition on the trace"
    );
}

/// The Shedding rung refuses sessions that arrive while it holds: a client
/// starting after the ladder has escalated twice is turned away with
/// `AdmissionShed` before any memory or scheduler state is touched.
#[test]
fn shedding_rung_refuses_a_late_admission() {
    let base = EngineConfig::default();
    let store = store_with_shrunk_batch(&base, 4);
    let model_name = "mini-small";

    // An objective no run can meet: breaches are counted as runs complete
    // (from ~5ms under 3-way fair sharing), the windows after that burn,
    // and the ladder escalates Healthy -> Degraded -> Shedding by ~19ms —
    // well before the straggler shows up at 25ms.
    let objective = SimDuration::from_micros(100);
    let mut clients = vec![ClientSpec::new(models::mini::small(4), 4); 3];
    clients.push(
        ClientSpec::new(models::mini::small(4), 1).with_start(SimTime::from_millis(25)),
    );

    let cfg = base
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(SimDuration::from_micros(200))
                .with_slo(SloSpec::new(model_name, objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_control(
            // A cool window longer than the run: once burns escalate the
            // ladder it stays up, so the straggler meets the Shedding gate.
            controlplane::ControlConfig::new()
                .with_cool_window(SimDuration::from_millis(50)),
        );
    let report = run_experiment(&cfg, clients, &mut fair(store));

    assert_eq!(counter(&report, "clients_admission_shed"), 1);
    assert!(matches!(
        report.clients[3].outcome,
        ClientOutcome::AdmissionShed { .. }
    ));
    // The first three were admitted while Healthy and are never evicted.
    assert_eq!(report.finished_count(), 3);
    assert!(report.chrome_trace_json().contains("\"admission-shed\""));
}

/// FIFO metering that records every registration's instant and profile
/// name — for a managed model, the versioned name the run was issued
/// under.
#[derive(Debug, Default)]
struct RecordingFifo {
    inner: FifoScheduler,
    registered: Vec<(SimTime, String)>,
}

impl Scheduler for RecordingFifo {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        self.registered.push((ctx.now, ctx.model_name.to_string()));
        self.inner.register(job, ctx)
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        self.inner.deregister(job, now)
    }

    fn may_run(&self, job: JobId) -> bool {
        self.inner.may_run(job)
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        self.inner.on_gpu_node_done(job, node, now)
    }

    fn name(&self) -> &str {
        "recording-fifo"
    }
}

/// A zoo model rebadged as the managed service `svc`.
fn svc(m: models::LoadedModel) -> models::LoadedModel {
    models::LoadedModel::from_parts(
        "svc",
        None,
        m.batch(),
        Arc::clone(m.graph()),
        m.weights_bytes(),
        m.activation_bytes(),
    )
}

/// A heavy `svc@v1` and a light canary candidate `svc@v2` (published at
/// 500 µs) under an objective no run can meet, so the ladder escalates as
/// in [`shedding_rung_refuses_a_late_admission`]. The canary never
/// decides (`min_runs` is out of reach), so both versions keep serving.
/// `fleet` runs it as a two-device static fleet instead of through
/// `with_lifecycle`. Returns the Degraded transition instant and every
/// registration.
fn degraded_canary_run(fleet: bool) -> (SimTime, Vec<(SimTime, String)>) {
    let heavy = svc(models::mini::small(4));
    let plan = DeploymentPlan::new().with_model(
        ModelDeployment::new("svc", heavy.clone())
            .with_version(svc(models::mini::tiny(4)), SimTime::from_micros(500)),
    );
    // Fast loads and no warm-up: version 1 serves well before version 2
    // publishes, so the canary split starts at 500 µs.
    let lc = LifecycleConfig::new(plan)
        .with_load_gbps(1_000.0)
        .with_warmup_runs(0)
        .with_canary(CanaryConfig { stride: 2, min_runs: u32::MAX, tolerance: 0.25 });
    let base = EngineConfig::default()
        .with_trace(TraceConfig::sampled())
        .with_telemetry(
            TelemetryConfig::enabled(SimDuration::from_micros(200))
                .with_slo(SloSpec::new("svc", SimDuration::from_micros(100), 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 }),
        )
        .with_control(
            controlplane::ControlConfig::new().with_cool_window(SimDuration::from_millis(50)),
        );
    let cfg = if fleet {
        let cc = ClusterConfig::new(vec![base.device.clone(); 2], lc)
            .with_policy(RouterPolicy::Static)
            .with_reconfigure(false);
        base.with_cluster(cc)
    } else {
        base.with_lifecycle(lc)
    };
    let mut sched = RecordingFifo::default();
    let report = run_experiment(&cfg, vec![ClientSpec::new(heavy, 12); 3], &mut sched);
    assert!(report.all_finished(), "fleet={fleet}: every session must finish");
    let degraded_at = report
        .trace
        .events
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::ControlTransition { to: "degraded", .. } => Some(e.at),
            _ => None,
        })
        .expect("the ladder must reach Degraded");
    (degraded_at, sched.registered)
}

/// The Degraded rung routes managed models to their cheapest serving
/// version, whichever residency mode serves them: lifecycle mode and a
/// fleet take the same route path, so the rule applies on the device the
/// router picked.
#[test]
fn degraded_rung_routes_to_the_cheapest_version_in_lifecycle_and_fleet_mode() {
    for fleet in [false, true] {
        let (degraded_at, registered) = degraded_canary_run(fleet);
        let (before, after): (Vec<_>, Vec<_>) =
            registered.iter().partition(|(at, _)| *at <= degraded_at);
        // Premise: while Healthy the canary split is live, so both
        // versions were serving before the ladder moved.
        assert!(before.iter().any(|(_, n)| n == "svc@v1"), "fleet={fleet}: {before:?}");
        assert!(before.iter().any(|(_, n)| n == "svc@v2"), "fleet={fleet}: {before:?}");
        assert!(after.len() >= 3, "fleet={fleet}: too few runs after Degraded: {after:?}");
        for (at, name) in &after {
            assert_eq!(
                name, "svc@v2",
                "fleet={fleet}: run issued at {at} after Degraded ({degraded_at}) \
                 must take the cheaper version"
            );
        }
    }
}

/// Renders a controlled run to the digits the reports print, so the byte
/// comparison is as strict as the real output.
fn render(report: &RunReport) -> String {
    format!(
        "makespan={:.9}s events={} finishes={:?} transitions={} shrinks={} \
         rebinds={} cancels={} sheds={}",
        report.makespan.as_secs_f64(),
        report.event_count,
        report.finish_times_secs(),
        counter(report, "control_transitions"),
        counter(report, "control_batch_shrinks"),
        counter(report, "control_profile_rebinds"),
        counter(report, "control_laxity_cancels"),
        counter(report, "clients_admission_shed"),
    )
}

/// One seed-forked closed-loop replication: control plane on, drift
/// recalibration live through the cost oracle, deadline-bound clients.
fn replication(seed: u64) -> String {
    let base = EngineConfig::default().with_seed(seed * 7919 + 13);
    let store = store_with_shrunk_batch(&base, 4);
    let run_d = store
        .resolve("mini-small", 4)
        .expect("profiled")
        .gpu_duration;
    let objective = SimDuration::from_micros(2_000);
    let cfg = base
        .with_telemetry(
            TelemetryConfig::enabled(CADENCE)
                .with_slo(SloSpec::new("mini-small", objective, 0.05))
                .with_burn(BurnWindows { short: 1, long: 2, threshold: 2.0 })
                .with_drift(DriftConfig::new(run_d, 0.25)),
        )
        .with_control(
            controlplane::ControlConfig::new()
                .with_cost(StoreCostOracle::new(Arc::clone(&store))),
        );
    let clients =
        vec![ClientSpec::new(models::mini::small(4), 3).with_run_deadline(objective); 4];
    let report = run_experiment(&cfg, clients, &mut fair(store));
    render(&report)
}

/// The closed loop must not cost determinism: replications through the
/// parallel harness are byte-identical to serial, and a same-seed rerun
/// reproduces the same controlled report exactly.
#[test]
fn closed_loop_reports_are_byte_identical_across_jobs() {
    let seeds: Vec<u64> = (0..8).collect();
    let serial = simpar::par_map_jobs(1, &seeds, |_, &s| replication(s));
    let parallel = simpar::par_map_jobs(8, &seeds, |_, &s| replication(s));
    assert_eq!(serial, parallel);
    // Same seed, fresh store and oracle: identical bytes.
    assert_eq!(replication(3), replication(3));
}
