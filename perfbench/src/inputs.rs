//! Workload inputs: everything a run needs before its timed phase, built
//! from the seed alone. Building them is the set-up the benchmark times.

use crate::measure::timed;
use olympian::{ModelProfile, OlympianScheduler, ProfileStore, RoundRobin, StoreCostOracle};
use serving::control::ControlConfig;
use serving::faults::{FaultConfig, FaultPlan};
use serving::telemetry::DriftConfig;
use serving::{
    cluster, lifecycle, workload, ClientSpec, EngineConfig, FifoScheduler, RunReport, Scheduler,
    TelemetryConfig, TraceConfig,
};
use simtime::{SimDuration, SimTime};
use std::sync::Arc;

/// Batches per client on `closed`: enough for ~1.2M events per cell and
/// 42 completed runs, so the tail percentile has ten runs beyond it.
pub const CLOSED_BATCHES: u32 = 3;
/// Batches per client on `incident`. Every batch adds ~0.7M full-trace
/// events, which the post-processing pipeline then walks.
pub const INCIDENT_BATCHES: u32 = 1;
/// Arrivals on `open`, fixed as a count rather than a duration.
pub const OPEN_ARRIVALS: usize = 4_000;
/// Operator overhead tolerance for Q (paper §4.1).
const TOLERANCE: f64 = bench::DEFAULT_TOLERANCE;

// The fleet figure's configuration (`bench::figs::fleet`).
const OPEN_MODELS: usize = 24;
const OPEN_WEIGHTS_BYTES: u64 = 32 << 20;
const OPEN_SPACING: SimDuration = SimDuration::from_micros(100);
const OPEN_EXPONENT: f64 = 1.2;
const OPEN_ROTATE: usize = 7;
const OPEN_TICK: SimDuration = SimDuration::from_millis(5);
/// The fleet figure's arrival-trace seed. The benchmark seed drives the
/// engine's noise on `open`, not the Zipf draw: which model happens to be
/// hot moves run latency by ~10% between draws, more than the bounds allow.
const OPEN_ZIPF_SEED: u64 = 17;
const TELEMETRY_CADENCE: SimDuration = SimDuration::from_millis(1);

// The incident: transient kernel failures throughout, plus a device
// slowdown over part of the run. Retries absorb every failure, so all
// sessions still finish.
const KERNEL_FAULT_P: f64 = 0.002;
const SLOWDOWN: f64 = 1.5;
const SLOWDOWN_FROM_MS: u64 = 2_000;
const SLOWDOWN_UNTIL_MS: u64 = 5_000;
const DRIFT_TOLERANCE: f64 = 0.1;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's complex closed-loop workload, FIFO and Olympian cells.
    Closed,
    /// Open-loop Zipf arrivals over a three-device fleet.
    Open,
    /// A faulted, fully observed Olympian run plus its post-processing.
    Incident,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "closed" => Some(Workload::Closed),
            "open" => Some(Workload::Open),
            "incident" => Some(Workload::Incident),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Closed => "closed",
            Workload::Open => "open",
            Workload::Incident => "incident",
        }
    }
}

/// Which scheduler a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// TF-Serving's baseline.
    Fifo,
    /// Olympian fair sharing with the chosen Q.
    Olympian,
}

/// One simulation of the workload's inputs.
pub struct Cell {
    /// Label for printed output.
    pub label: &'static str,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// Scheduler kind.
    pub sched: Sched,
}

impl Cell {
    fn new(label: &'static str, cfg: EngineConfig, sched: Sched) -> Cell {
        Cell { label, cfg, sched }
    }
}

/// Host seconds spent in each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Model generation (`models::load` or the open catalog).
    pub load_s: f64,
    /// Offline profiling of every distinct model.
    pub profile_s: f64,
    /// Overhead-Q curves and the choice of Q.
    pub q_choice_s: f64,
    /// Engine configurations and client lists.
    pub inputs_s: f64,
}

/// A workload's generated inputs.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Client list shared by every cell.
    pub clients: Vec<ClientSpec>,
    /// The cells of one timed iteration, in run order.
    pub cells: Vec<Cell>,
    /// Index of the cell under study in `cells`.
    pub managed: usize,
    /// The cell `managed` is compared against on identical inputs, when it
    /// is not itself timed (`None`: the first timed cell).
    pub reference: Option<Cell>,
    /// Whether the timed iteration ends with the post-run pipeline.
    pub postprocess: bool,
    /// Offline profiles and Q, on workloads that run Olympian.
    pub olympian: Option<(Arc<ProfileStore>, SimDuration)>,
    /// Host time of each set-up stage.
    pub stages: Stages,
}

/// Mixes a benchmark seed into a well-spread 64-bit stream seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    /// Generates the workload's inputs from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        match workload {
            Workload::Closed | Workload::Incident => Inputs::closed_loop(workload, seed),
            Workload::Open => Inputs::open(seed),
        }
    }

    fn closed_loop(workload: Workload, seed: u64) -> Inputs {
        let batches = if workload == Workload::Closed {
            CLOSED_BATCHES
        } else {
            INCIDENT_BATCHES
        };
        let (clients, load_s) = timed(|| bench::complex_workload(batches));
        let base = EngineConfig::default().with_seed(mix(seed, 1));
        let (store, profile_s) = timed(|| bench::build_store_for(&base, &clients));
        let (q, q_choice_s) = timed(|| bench::choose_q(&base, &clients, TOLERANCE));
        let ((cells, managed, reference), inputs_s) = timed(|| {
            if workload == Workload::Closed {
                let fifo = Cell::new("fifo", base.clone(), Sched::Fifo);
                let olympian = Cell::new("olympian", base.clone(), Sched::Olympian);
                (vec![fifo, olympian], 1, None)
            } else {
                let cfg = incident_config(&base, &store, q);
                let fifo = Cell::new("fifo", cfg.clone(), Sched::Fifo);
                (
                    vec![Cell::new("olympian", cfg, Sched::Olympian)],
                    0,
                    Some(fifo),
                )
            }
        });
        Inputs {
            workload,
            clients,
            cells,
            managed,
            reference,
            postprocess: workload == Workload::Incident,
            olympian: Some((store, q)),
            stages: Stages {
                load_s,
                profile_s,
                q_choice_s,
                inputs_s,
            },
        }
    }

    fn open(seed: u64) -> Inputs {
        let (zoo, load_s) = timed(open_catalog);
        let ((fleet, fixed, clients), inputs_s) = timed(|| {
            let base = EngineConfig::default()
                .with_seed(mix(seed, 1))
                .with_trace(TraceConfig::sampled())
                .with_telemetry(TelemetryConfig::enabled(TELEMETRY_CADENCE));
            let fleet = open_cluster(&zoo, cluster::RouterPolicy::CostAware, true);
            let fixed = open_cluster(&zoo, cluster::RouterPolicy::Static, false);
            (
                base.with_cluster(fleet),
                base.with_cluster(fixed),
                open_clients(&zoo, OPEN_ARRIVALS),
            )
        });
        Inputs {
            workload: Workload::Open,
            clients,
            cells: vec![Cell::new("fleet", fleet, Sched::Fifo)],
            managed: 0,
            reference: Some(Cell::new("static", fixed, Sched::Fifo)),
            postprocess: false,
            olympian: None,
            stages: Stages {
                load_s,
                inputs_s,
                ..Stages::default()
            },
        }
    }

    /// The engine config and scheduler of one run of `cfg` under `sched`.
    /// The control plane rescales profiles in place when it recalibrates,
    /// so every run gets its own copy of the offline profiles, shared by
    /// its scheduler and its control plane.
    pub fn instance(&self, cfg: &EngineConfig, sched: Sched) -> (EngineConfig, Box<dyn Scheduler>) {
        let mut cfg = cfg.clone();
        let Some((base, q)) = &self.olympian else {
            assert_eq!(sched, Sched::Fifo, "workload has no Olympian profiles");
            return (cfg, Box::new(FifoScheduler::new()));
        };
        let mut store = ProfileStore::new();
        for p in base.iter() {
            store.insert(ModelProfile::clone(p));
        }
        let store = Arc::new(store);
        if let Some(control) = cfg.control.as_mut().filter(|c| c.cost.is_some()) {
            control.cost = Some(StoreCostOracle::new(Arc::clone(&store)));
        }
        let scheduler: Box<dyn Scheduler> = match sched {
            Sched::Fifo => Box::new(FifoScheduler::new()),
            Sched::Olympian => Box::new(OlympianScheduler::new(
                store,
                Box::new(RoundRobin::new()),
                *q,
            )),
        };
        (cfg, scheduler)
    }

    /// Runs `cfg` on the workload's clients under a fresh
    /// [`instance`](Self::instance).
    pub fn run(&self, cfg: &EngineConfig, sched: Sched) -> RunReport {
        let (cfg, mut s) = self.instance(cfg, sched);
        serving::run_experiment(&cfg, self.clients.clone(), s.as_mut())
    }

    /// The cell `managed` is compared against.
    pub fn reference_cell(&self) -> &Cell {
        self.reference.as_ref().unwrap_or(&self.cells[0])
    }

    /// The attribution hand-off horizon of the managed cell.
    pub fn horizon(&self) -> SimDuration {
        let cfg = &self.cells[self.managed].cfg;
        cfg.switch_latency + cfg.launch_overhead
    }
}

/// The incident configuration over `base`: every observation and
/// recovery layer on.
fn incident_config(base: &EngineConfig, store: &Arc<ProfileStore>, q: SimDuration) -> EngineConfig {
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new()
        .with_kernel_failures(KERNEL_FAULT_P)
        .with_slowdown(SLOWDOWN, ms(SLOWDOWN_FROM_MS), ms(SLOWDOWN_UNTIL_MS));
    base.with_trace(TraceConfig::full())
        .with_telemetry(
            TelemetryConfig::enabled(TELEMETRY_CADENCE)
                .with_drift(DriftConfig::new(q, DRIFT_TOLERANCE)),
        )
        .with_faults(FaultConfig::new(plan))
        .with_control(ControlConfig::new().with_cost(StoreCostOracle::new(Arc::clone(store))))
}

/// The open catalog: rebadged mini-tiny graphs with inflated weights, so
/// placement is about bytes and transfer time.
pub fn open_catalog() -> Vec<models::LoadedModel> {
    let base = models::mini::tiny(4);
    (0..OPEN_MODELS)
        .map(|i| {
            models::LoadedModel::from_parts(
                format!("zoo-{i:02}"),
                None,
                base.batch(),
                Arc::clone(base.graph()),
                OPEN_WEIGHTS_BYTES,
                base.activation_bytes(),
            )
        })
        .collect()
}

/// The lifecycle registry serving every catalog model.
pub fn open_lifecycle(zoo: &[models::LoadedModel]) -> lifecycle::LifecycleConfig {
    let plan = zoo
        .iter()
        .fold(lifecycle::DeploymentPlan::new(), |plan, m| {
            plan.with_model(lifecycle::ModelDeployment::new(m.name(), m.clone()))
        });
    lifecycle::LifecycleConfig::new(plan)
}

/// The fleet's three heterogeneous devices.
pub fn open_devices() -> Vec<gpusim::DeviceProfile> {
    vec![
        gpusim::DeviceProfile::gtx_1080_ti(),
        gpusim::DeviceProfile::gtx_1080_ti(),
        gpusim::DeviceProfile::titan_x(),
    ]
}

/// The cluster configuration of one open cell.
pub fn open_cluster(
    zoo: &[models::LoadedModel],
    policy: cluster::RouterPolicy,
    reconfigure: bool,
) -> cluster::ClusterConfig {
    cluster::ClusterConfig::new(open_devices(), open_lifecycle(zoo))
        .with_tick(OPEN_TICK)
        .with_policy(policy)
        .with_reconfigure(reconfigure)
}

/// `n` single-run sessions at a fixed spacing, models drawn from the
/// Zipf law whose hot set rotates halfway through.
pub fn open_clients(zoo: &[models::LoadedModel], n: usize) -> Vec<ClientSpec> {
    let picks = workload::zipf_models(
        n,
        zoo.len(),
        OPEN_EXPONENT,
        n / 2,
        OPEN_ROTATE,
        OPEN_ZIPF_SEED,
    );
    let arrivals = workload::uniform_arrivals(n, OPEN_SPACING, SimTime::ZERO);
    picks
        .into_iter()
        .zip(arrivals)
        .map(|(m, at)| ClientSpec::new(zoo[m].clone(), 1).with_start(at))
        .collect()
}
