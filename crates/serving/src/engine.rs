//! The discrete-event serving engine: TF-Serving's processing loop
//! (Algorithm 1) with Olympian's hook points (Algorithm 2) on a virtual
//! clock.
//!
//! # How a job executes
//!
//! A job (`Session::Run`) owns a readiness-driven BFS over its graph. Gang
//! threads come from the shared worker pool: a thread takes a ready node,
//! passes the scheduler's yield check, then either runs a CPU node inline or
//! spends the launch overhead submitting a GPU kernel and blocks until the
//! kernel completes. Children whose parents have all finished become ready.
//!
//! # Worker-pool semantics (the §4.3 scalability mechanism)
//!
//! * A gang thread with no ready node is returned to the pool **only while
//!   its job may run**. Threads of a *suspended* job stay parked inside the
//!   scheduler's yield — they keep their pool slot, which is why Olympian
//!   exhausts the thread pool at lower client counts than TF-Serving.
//! * A runnable job that cannot obtain any worker joins a starvation queue
//!   and is woken when the pool refills; if the pool never refills (every
//!   slot parked under suspended gangs), the run ends with the job stalled.
//!
//! # Baseline nondeterminism
//!
//! Two seeded draws per client model the OS/driver noise that makes vanilla
//! TF-Serving unpredictable (Figure 3): an *effective gang width* (how many
//! kernels the client keeps in flight) and a *submission latency factor*.
//! Under Olympian both still exist but exclusive quanta mask them.

use crate::client::{ClientSpec, ClientState};
use crate::config::EngineConfig;
use crate::control::{self, ControlRuntime};
use crate::faults::FaultRuntime;
use crate::report::{ClientOutcome, ClientReport, RunReport};
use crate::residency::{Issued, Move, ResidencyRuntime};
use crate::scheduler::{ClientId, JobCtx, JobId, Scheduler, Verdict};
use crate::trace::{SwitchReason, TraceBuffer, TraceKind};
use dataflow::{Graph, NodeId, Placement};
use gpusim::{Allocation, GpuDevice, JobTag, MemoryPool};
use lifecycle::{Effects as LcEffects, Route};
use simtime::{DetRng, SimDuration, SimTime, TimingWheel};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use telemetry::{Alert, EngineGauges, TelemetryHub};

/// Initial event-queue capacity: covers the paper-scale experiments' peak
/// pending-event count, so the hot loop never reallocates the heap.
const EVENT_QUEUE_CAPACITY: usize = 4096;
/// Initial capacity of the per-run quanta log.
const QUANTA_CAPACITY: usize = 32;

#[derive(Debug)]
enum Event {
    ClientStart(ClientId),
    /// A bursty client's think time elapsed; issue its next batch.
    NextBatch(ClientId),
    SubmitKernel { job: JobId, node: NodeId },
    NodeDone { job: JobId, node: NodeId, gpu: Option<SimDuration> },
    ResumeJob(JobId),
    /// A run's deadline elapsed; cancel it if it is still alive.
    RunDeadline(JobId),
    SchedTimer(u64),
    /// A faulted kernel's backoff elapsed; submit it again.
    RetryKernel { job: JobId, node: NodeId },
    /// A device stall window ended; resume pumping the device.
    PumpDevice(u32),
    /// A faulted admission's backoff elapsed; attempt admission again.
    RetryAdmit(ClientId),
    /// Workers donated by a drained shard group arrive (sharded runs only;
    /// always scheduled at a window-barrier instant).
    PoolGrant(u32),
    /// A lifecycle transition is due: a version publish, a load
    /// completion or a warm-up run boundary.
    LifecycleTick,
    /// The control plane's periodic tick: degradation-ladder cool-down and
    /// laxity-negative run cancellation.
    ControlTick,
    /// The fleet orchestrator's reconfiguration cadence: solve the
    /// demand-window min-cost flow and issue the load/drain plan.
    ClusterTick,
}

/// Hot half of a job slot: every field the per-node dispatch and
/// completion paths read or write. Kept in its own dense table
/// (`Engine::job_hot`), separate from [`JobCold`], for two reasons:
/// the hot loop's working set stays compact in cache, and the graph can be
/// borrowed from the cold table while the hot row is mutably borrowed —
/// which removes the per-node `Arc` clone the combined struct forced.
#[derive(Debug, Default)]
struct JobHot {
    client: ClientId,
    remaining_parents: Vec<u32>,
    ready: VecDeque<NodeId>,
    done_nodes: u32,
    total_nodes: u32,
    /// Workers currently owned by this gang (busy + parked-idle).
    held: u32,
    /// Of `held`, workers executing a node or blocked on a kernel.
    busy: u32,
    /// Earliest time the gang may proceed after being granted the token.
    resume_at: SimTime,
    resume_scheduled: bool,
    starving: bool,
    /// Whether a YieldBlock trace event is outstanding for this gang (only
    /// maintained while tracing is on).
    yield_blocked: bool,
    gpu_busy: SimDuration,
    quantum_acc: SimDuration,
    /// Time of the last token grant whose hand-off latency has not been
    /// measured yet; `SimTime::MAX` otherwise. Only maintained while
    /// telemetry is on.
    granted_at: SimTime,
}

/// Cold half of a job slot: bookkeeping the hot loop only reads through
/// (the graph) or touches at quantum/run boundaries.
#[derive(Debug)]
struct JobCold {
    graph: Arc<Graph>,
    /// Completed quanta as `(end time, GPU duration received)`.
    quanta: Vec<(SimTime, SimDuration)>,
    /// Registration time — the baseline of the run's deadline and of the
    /// latency reported to the lifecycle layer.
    started_at: SimTime,
    /// Where a managed run was issued; `None` for unmanaged runs.
    issued: Option<Issued>,
}

impl JobHot {
    fn new(client: ClientId, graph: &Graph) -> Self {
        let mut job = JobHot::default();
        job.reset(client, graph);
        job
    }

    /// (Re-)initialises the slot for a fresh run. A recycled slot reuses
    /// its `remaining_parents` and `ready` allocations, so steady-state
    /// serving allocates nothing per run.
    fn reset(&mut self, client: ClientId, graph: &Graph) {
        self.remaining_parents.clear();
        self.remaining_parents
            .extend(graph.node_ids().map(|id| graph.parent_count(id)));
        self.ready.clear();
        // Same contents and order as `graph.roots()`, without the fresh Vec.
        self.ready
            .extend(graph.node_ids().filter(|&id| graph.parent_count(id) == 0));
        self.total_nodes = graph.node_count() as u32;
        self.client = client;
        self.done_nodes = 0;
        self.held = 0;
        self.busy = 0;
        self.resume_at = SimTime::ZERO;
        self.resume_scheduled = false;
        self.starving = false;
        self.yield_blocked = false;
        self.gpu_busy = SimDuration::ZERO;
        self.quantum_acc = SimDuration::ZERO;
        self.granted_at = SimTime::MAX;
    }
}

impl JobCold {
    fn new(graph: Arc<Graph>) -> Self {
        JobCold {
            graph,
            quanta: Vec::with_capacity(QUANTA_CAPACITY),
            started_at: SimTime::ZERO,
            issued: None,
        }
    }

    /// Counterpart of [`JobHot::reset`], reusing the `quanta` allocation.
    fn reset(&mut self, graph: Arc<Graph>) {
        self.graph = graph;
        self.quanta.clear();
        self.started_at = SimTime::ZERO;
        self.issued = None;
    }
}

/// A job handle in the dense `job_refs` table, indexed by `JobId.0`.
///
/// Job ids are allocated densely from zero, so a `Vec` index replaces the
/// `HashMap` probe on the per-node hot path.
#[derive(Debug, Clone, Copy)]
enum JobRef {
    /// Rejected at registration, or completed.
    Dead,
    /// Live, holding this job's slot index in the hot/cold job tables.
    Live(u32),
    /// Cancelled by a deadline; remembers the device index so stale kernel
    /// completions still pump the device.
    Cancelled(u32),
}

pub(crate) struct Engine<'a> {
    cfg: EngineConfig,
    queue: TimingWheel<Event>,
    now: SimTime,
    devices: Vec<GpuDevice>,
    memories: Vec<MemoryPool>,
    scheduler: &'a mut dyn Scheduler,
    clients: Vec<ClientState>,
    /// Sessions whose `outcome` is still `None`; only [`Engine::settle`]
    /// lowers it, so the periodic ticks re-arm without scanning `clients`.
    undecided: usize,
    /// Job handles, indexed by `JobId.0` — ids are dense from 0 (one per
    /// `register` call, including rejected ones).
    job_refs: Vec<JobRef>,
    /// Job-state slots in struct-of-arrays layout: `job_hot[s]` and
    /// `job_cold[s]` are the two halves of slot `s`. Completed slots go on
    /// `free_slots` and are `reset` for the next run instead of reallocated.
    job_hot: Vec<JobHot>,
    job_cold: Vec<JobCold>,
    free_slots: Vec<u32>,
    pool_idle: u32,
    starving: VecDeque<JobId>,
    /// Clients waiting for memory under queued admission, FIFO.
    admission_waiting: VecDeque<ClientId>,
    /// Loaded weights per device index, keyed by model name.
    weights_loaded: Vec<HashMap<String, Allocation>>,
    /// In-flight kernel slab: the device payload is the slab index.
    kernels: Vec<Option<(JobId, NodeId)>>,
    kernel_free: Vec<u32>,
    last_switch: Option<SimTime>,
    /// Cached `telemetry.next_due()` — refreshed after every telemetry tick
    /// so the per-event boundary check reads a local field instead of
    /// calling across the crate boundary.
    telemetry_due: SimTime,
    faults: Option<FaultRuntime>,
    residency: Option<ResidencyRuntime>,
    control: Option<ControlRuntime>,
    trace: TraceBuffer,
    telemetry: TelemetryHub,
    intervals: Vec<SimDuration>,
    switch_count: u64,
    timer_gen: u64,
    event_count: u64,
}

/// Runs one experiment to completion and reports the results.
///
/// Deterministic: identical `(cfg, clients, scheduler)` inputs produce
/// identical reports.
///
/// # Panics
///
/// Panics if the configuration or a client spec is invalid, or if the event
/// watchdog (`cfg.max_events`) trips — which indicates an engine or
/// scheduler bug, never a legal workload.
pub fn run_experiment(
    cfg: &EngineConfig,
    clients: Vec<ClientSpec>,
    scheduler: &mut dyn Scheduler,
) -> RunReport {
    let mut engine = build_engine(cfg, clients, scheduler);
    engine.run();
    engine.finalize()
}

/// Validates inputs, constructs the engine and schedules every client's
/// start event — everything [`run_experiment`] does before the event loop.
/// The sharded runner builds one engine per device group this way and
/// drives them window-by-window instead of straight to completion.
///
/// # Panics
///
/// Panics if the configuration or a client spec is invalid.
pub(crate) fn build_engine<'a>(
    cfg: &EngineConfig,
    clients: Vec<ClientSpec>,
    scheduler: &'a mut dyn Scheduler,
) -> Engine<'a> {
    cfg.validate();
    for spec in &clients {
        spec.validate();
    }
    let mut master_rng = DetRng::new(cfg.seed);
    let mut client_states: Vec<ClientState> = clients
        .into_iter()
        .enumerate()
        .map(|(i, spec)| ClientState::new(spec, cfg.max_gang, master_rng.fork(i as u64)))
        .collect();

    let mut profiles = vec![cfg.device.clone()];
    profiles.extend(cfg.extra_devices.iter().cloned());
    let devices: Vec<GpuDevice> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| GpuDevice::new(p.clone(), cfg.seed ^ 0x6709 ^ ((i as u64) << 32)))
        .collect();
    let memories: Vec<MemoryPool> = profiles
        .iter()
        .map(|p| MemoryPool::new(p.memory_bytes()))
        .collect();
    let faults = cfg
        .faults
        .as_ref()
        .map(|f| FaultRuntime::new(f, cfg.seed, client_states.len(), devices.len()));
    let control = cfg.control.as_ref().map(ControlRuntime::new);
    let residency = ResidencyRuntime::new(cfg, &profiles, &memories);
    if let Some(rt) = &residency {
        for client in &mut client_states {
            client.deployment = rt.deployment(client.spec.model.name());
        }
    }
    let telemetry = TelemetryHub::new(
        &cfg.telemetry,
        client_states.iter().map(|c| c.spec.model.name()),
        residency.iter().flat_map(ResidencyRuntime::model_names),
    );
    let telemetry_due = telemetry.next_due();
    let mut engine = Engine {
        cfg: cfg.clone(),
        queue: TimingWheel::with_capacity(EVENT_QUEUE_CAPACITY),
        now: SimTime::ZERO,
        devices,
        memories,
        scheduler,
        undecided: client_states.len(),
        clients: client_states,
        job_refs: Vec::with_capacity(256),
        job_hot: Vec::new(),
        job_cold: Vec::new(),
        free_slots: Vec::new(),
        pool_idle: cfg.pool_size,
        starving: VecDeque::new(),
        admission_waiting: VecDeque::new(),
        weights_loaded: (0..profiles.len()).map(|_| HashMap::new()).collect(),
        kernels: Vec::with_capacity(64),
        kernel_free: Vec::with_capacity(64),
        last_switch: None,
        telemetry_due,
        faults,
        residency,
        control,
        trace: TraceBuffer::new(&cfg.trace),
        telemetry,
        intervals: Vec::with_capacity(256),
        switch_count: 0,
        timer_gen: 0,
        event_count: 0,
    };
    // Schedule a lifecycle tick at every publish instant before any client
    // starts, so version state is current at admission time.
    let mut startup_fx = LcEffects::default();
    if let Some(rt) = &engine.residency {
        rt.startup(&mut startup_fx);
    }
    engine.apply_lifecycle_effects(startup_fx);
    for i in 0..engine.clients.len() {
        let at = engine.clients[i].spec.start_at;
        engine.queue.schedule(at, Event::ClientStart(ClientId(i as u32)));
    }
    if engine.control.is_some() {
        engine.queue.schedule(SimTime::ZERO + control::TICK, Event::ControlTick);
    }
    if let Some(cc) = cfg.cluster.as_ref().filter(|cc| cc.reconfigure) {
        engine.queue.schedule(SimTime::ZERO + cc.tick, Event::ClusterTick);
    }
    engine
}

impl Engine<'_> {
    /// The slot index of `id` if it is live. Returns a copied index (not a
    /// reference) so callers can split borrows between the job tables and the
    /// engine's other fields.
    #[inline]
    fn live_slot(&self, id: JobId) -> Option<usize> {
        match self.job_refs.get(id.0 as usize) {
            Some(&JobRef::Live(s)) => Some(s as usize),
            _ => None,
        }
    }

    fn run(&mut self) {
        while let Some((t, event)) = self.queue.pop() {
            self.step(t, event);
        }
    }

    /// Processes events due at or before `bound`, then returns at the
    /// window barrier. The sharded runner drives one group engine per call;
    /// between calls the only outside mutation is a [`Event::PoolGrant`]
    /// scheduled at the barrier instant.
    pub(crate) fn run_window(&mut self, bound: SimTime) {
        while let Some((t, event)) = self.queue.pop_at_or_before(bound) {
            self.step(t, event);
        }
    }

    /// Whether any event is still pending.
    pub(crate) fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// The engine clock: the time of the last processed event.
    pub(crate) fn clock(&self) -> SimTime {
        self.now
    }

    /// Whether any job is parked waiting for a worker thread.
    pub(crate) fn is_starved(&self) -> bool {
        !self.starving.is_empty()
    }

    /// The instant of the earliest pending event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Withdraws every currently idle worker from this engine's pool —
    /// the donation half of the barrier rebalance. Only meaningful on a
    /// drained engine (no pending events): live engines keep their share.
    pub(crate) fn take_idle_workers(&mut self) -> u32 {
        std::mem::take(&mut self.pool_idle)
    }

    /// Schedules `n` donated workers to arrive at the barrier instant
    /// `at`; the grant lands inside the event loop so starvation wake-ups
    /// replay identically for every shard count.
    pub(crate) fn grant_workers(&mut self, at: SimTime, n: u32) {
        self.queue.schedule(at, Event::PoolGrant(n));
    }

    #[inline]
    fn step(&mut self, t: SimTime, event: Event) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.event_count += 1;
        assert!(
            self.event_count <= self.cfg.max_events,
            "event watchdog tripped after {} events at {} — engine or scheduler bug",
            self.event_count,
            self.now
        );
        // One predicted branch when telemetry is off (`telemetry_due`
        // is `SimTime::MAX`); boundaries are emitted lazily, *before*
        // the first event at or past them, so snapshots capture the
        // state as of the boundary instant.
        if t >= self.telemetry_due {
            self.telemetry_tick();
        }
        match event {
            Event::ClientStart(c) => self.client_start(c),
            Event::NextBatch(c) => self.start_run(c),
            Event::SubmitKernel { job, node } => self.submit_kernel(job, node),
            Event::NodeDone { job, node, gpu } => self.node_done(job, node, gpu),
            Event::RunDeadline(job) => {
                if let Some(slot) = self.live_slot(job) {
                    let c = self.job_hot[slot].client;
                    self.record(TraceKind::DeadlineCancelled { job: job.0, client: c.0 });
                    self.teardown_job(job, c, ClientOutcome::DeadlineExceeded(self.now));
                }
            }
            Event::ResumeJob(job) => {
                if let Some(slot) = self.live_slot(job) {
                    self.job_hot[slot].resume_scheduled = false;
                }
                self.dispatch(job);
            }
            Event::SchedTimer(gen) => {
                if gen == self.timer_gen {
                    let verdict = self.scheduler.on_timer(self.now);
                    self.apply_verdict(verdict);
                }
            }
            Event::RetryKernel { job, node } => {
                if self.live_slot(job).is_some() {
                    self.submit_kernel(job, node);
                } else if let Some(fr) = self.faults.as_mut() {
                    fr.forget(job.0, node);
                }
            }
            Event::PumpDevice(dev) => {
                if let Some(fr) = self.faults.as_mut() {
                    fr.stall_ended(dev as usize);
                }
                self.pump_device(dev as usize);
            }
            Event::RetryAdmit(c) => self.retry_admit(c),
            Event::LifecycleTick => self.lifecycle_tick(),
            Event::ControlTick => self.control_tick(),
            Event::ClusterTick => self.cluster_tick(),
            Event::PoolGrant(n) => {
                self.pool_idle += n;
                self.wake_starving();
            }
        }
    }

    // ---- client lifecycle -------------------------------------------------

    fn client_start(&mut self, c: ClientId) {
        if self.control.as_ref().is_some_and(ControlRuntime::sheds_admissions) {
            self.record(TraceKind::AdmissionShed { client: c.0 });
            self.settle(c, ClientOutcome::AdmissionShed { at: self.now });
            return;
        }
        let bias = self.clients[c.0 as usize].draw_noise(&self.cfg);
        // Place the client's model instance on the device with the most
        // free memory (deterministic lowest-index tie-break) — how a
        // serving deployment spreads servables across GPUs.
        let dev = (0..self.memories.len())
            .max_by_key(|&i| (self.memories[i].available(), usize::MAX - i))
            .expect("at least one device") as u32;
        self.clients[c.0 as usize].device = dev;
        self.clients[c.0 as usize].home = dev;
        // Per-(run, client) driver arbitration bias — the Figure 3 spread.
        if let Some(b) = bias {
            self.devices[dev as usize].set_bias(JobTag(c.0 as u64), b);
        }
        if self.try_admit(c, dev) {
            self.admitted(c, dev);
        }
    }

    /// Attempts to reserve the client's memory on `dev`. On failure, either
    /// parks the client in the admission queue (queued admission) or
    /// rejects it outright (the default, TF-Serving's behaviour).
    fn try_admit(&mut self, c: ClientId, dev: u32) -> bool {
        if let Some(failure) = self.faults.as_mut().and_then(|fr| fr.admit(c.0, self.now)) {
            // The reservation failed transiently: retry after the backoff,
            // or shed the client once the budget is spent.
            for kind in failure.events {
                self.record(kind);
            }
            match failure.next {
                Ok(at) => self.queue.schedule(at, Event::RetryAdmit(c)),
                Err(outcome) => self.settle(c, outcome),
            }
            return false;
        }
        let client = &self.clients[c.0 as usize];
        let model = &client.spec.model;
        let name = model.name();
        let activation_bytes = model.activation_bytes();
        // A lifecycle-managed model's weights are owned by the manager
        // (loaded per version, on demand); admission reserves only the
        // client's activations.
        let managed = client.deployment.is_some();
        // Unmanaged weights are loaded once per device and shared across
        // clients of the same model (TF-Serving's servable sharing).
        let loaded = &mut self.weights_loaded[dev as usize];
        if !managed && !loaded.contains_key(name) {
            match self.memories[dev as usize].alloc(model.weights_bytes()) {
                Ok(a) => {
                    loaded.insert(name.to_string(), a);
                }
                Err(e) => {
                    self.admission_failure(c, e);
                    return false;
                }
            }
        }
        match self.memories[dev as usize].alloc(activation_bytes) {
            Ok(a) => {
                self.clients[c.0 as usize].activations = Some(a);
                true
            }
            Err(e) => {
                self.admission_failure(c, e);
                false
            }
        }
    }

    /// Ends session `c` with `outcome`, then frees its activation memory
    /// (on its home device, which may differ from the routed one) for
    /// queued clients. Every outcome is set here, so the `undecided` count
    /// stays exact.
    fn settle(&mut self, c: ClientId, outcome: ClientOutcome) {
        let client = &mut self.clients[c.0 as usize];
        if client.outcome.replace(outcome).is_none() {
            self.undecided -= 1;
        }
        if let Some(a) = client.activations.take() {
            self.memories[client.home as usize].free(a);
            self.pump_admission();
        }
    }

    fn admission_failure(&mut self, c: ClientId, e: gpusim::MemoryError) {
        if self.cfg.queue_admission {
            if !self.admission_waiting.contains(&c) {
                self.record(TraceKind::AdmissionQueued { client: c.0 });
                self.admission_waiting.push_back(c);
            }
        } else {
            self.settle(
                c,
                ClientOutcome::RejectedOom {
                    requested: e.requested,
                    available: e.available,
                },
            );
            self.record(TraceKind::ClientRejectedOom {
                client: c.0,
                requested: e.requested,
                available: e.available,
            });
        }
    }

    /// Re-attempts a faulted admission after its backoff elapsed. A client
    /// parked in the queued-admission FIFO retries through the queue so
    /// head-of-line ordering is preserved.
    fn retry_admit(&mut self, c: ClientId) {
        {
            let client = &self.clients[c.0 as usize];
            if client.outcome.is_some() || client.activations.is_some() {
                return;
            }
        }
        if self.admission_waiting.contains(&c) {
            self.pump_admission();
            return;
        }
        let dev = self.clients[c.0 as usize].device;
        if self.try_admit(c, dev) {
            self.admitted(c, dev);
        }
    }

    /// Re-attempts admission for waiting clients, FIFO, after memory freed.
    fn pump_admission(&mut self) {
        while let Some(&c) = self.admission_waiting.front() {
            let dev = self.clients[c.0 as usize].device;
            if self.try_admit(c, dev) {
                self.admission_waiting.pop_front();
                self.admitted(c, dev);
            } else {
                // Head-of-line blocking preserved: admission is FIFO.
                break;
            }
        }
    }

    /// The admission epilogue shared by first attempts, fault retries and
    /// the queued-admission pump: land the fact, then issue the first run.
    fn admitted(&mut self, c: ClientId, dev: u32) {
        self.record(TraceKind::ClientAdmitted { client: c.0, device: dev });
        self.start_run(c);
    }

    fn start_run(&mut self, c: ClientId) {
        // Residency routing: a managed model's run resolves its version at
        // issue time on the picked device.
        let issued = match self.clients[c.0 as usize].deployment {
            Some(mi) => match self.route_managed(c, mi as usize) {
                Some(issued) => Some(issued),
                None => return,
            },
            None => None,
        };
        let job_id = JobId(self.job_refs.len() as u64);
        let client = &self.clients[c.0 as usize];
        // A routed run executes the *version's* graph and registers under
        // its versioned name, so per-version profiles drive scheduling.
        let (graph, model_name) = match (issued, &self.residency) {
            (Some((_, key, _)), Some(rt)) => rt.version(key),
            _ => (client.spec.model.graph(), client.spec.model.name()),
        };
        let graph = Arc::clone(graph);
        let full_batch = client.spec.model.batch();
        let batch = self.control.as_ref().map_or(full_batch, |rt| rt.batch(full_batch));
        let ctx = JobCtx {
            client: c,
            model_name,
            batch,
            weight: client.spec.weight,
            priority: client.spec.priority,
            device: client.device,
            now: self.now,
            deadline: client.spec.run_deadline.map(|d| self.now + d),
        };
        match self.scheduler.register(job_id, &ctx) {
            Ok(verdict) => {
                self.record(TraceKind::RunRegistered { job: job_id.0, client: c.0 });
                if batch != full_batch {
                    self.record(TraceKind::BatchShrink {
                        client: c.0,
                        from: full_batch,
                        to: batch,
                    });
                }
                let slot = match self.free_slots.pop() {
                    Some(s) => {
                        self.job_hot[s as usize].reset(c, &graph);
                        self.job_cold[s as usize].reset(graph);
                        s
                    }
                    None => {
                        self.job_hot.push(JobHot::new(c, &graph));
                        self.job_cold.push(JobCold::new(graph));
                        (self.job_hot.len() - 1) as u32
                    }
                };
                let cold = &mut self.job_cold[slot as usize];
                cold.started_at = self.now;
                cold.issued = issued;
                self.job_refs.push(JobRef::Live(slot));
                if let (Some(issued), Some(rt)) = (issued, &mut self.residency) {
                    rt.charge(issued);
                }
                self.clients[c.0 as usize].current_job = Some(job_id);
                if let Some(deadline) = self.clients[c.0 as usize].spec.run_deadline {
                    self.queue.schedule(self.now + deadline, Event::RunDeadline(job_id));
                }
                self.apply_verdict(verdict);
                self.dispatch(job_id);
            }
            Err(e) => {
                // The id was consumed by the `register` call; keep the
                // table dense.
                self.job_refs.push(JobRef::Dead);
                self.settle(c, ClientOutcome::RejectedByScheduler(e.to_string()));
                if let Some((dev, key, _)) = issued {
                    // The issue never became a job: return the version's
                    // in-flight credit (no latency observation). Nothing
                    // was charged to the device's queue yet.
                    self.run_finished((dev, key, 0), None);
                }
            }
        }
    }

    fn complete_run(&mut self, job_id: JobId) {
        let slot = self.live_slot(job_id).expect("completing a live job");
        self.job_refs[job_id.0 as usize] = JobRef::Dead;
        let job = &mut self.job_hot[slot];
        debug_assert_eq!(job.busy, 0, "no in-flight work at completion");
        let (c, held, gpu_busy) = (job.client, std::mem::take(&mut job.held), job.gpu_busy);
        let final_quantum = self.flush_quantum(slot);
        let cold = &mut self.job_cold[slot];
        let (started_at, issued) = (cold.started_at, cold.issued.take());
        // Return the whole gang to the pool.
        self.release_workers(held);
        if let Some(acc) = final_quantum {
            self.record(TraceKind::QuantumEnd { job: job_id.0, client: c.0, gpu: acc });
        }
        self.record(TraceKind::RunCompleted { job: job_id.0, client: c.0 });
        let quanta = &self.job_cold[slot].quanta;
        self.clients[c.0 as usize].run_completed(self.now, gpu_busy, quanta);
        // Recycle the slot *before* any nested `start_run` below, so the
        // client's next batch reuses this run's buffers.
        self.free_slots.push(slot as u32);
        let verdict = self.scheduler.deregister(job_id, self.now);
        self.apply_verdict(verdict);
        if let Some(issued) = issued {
            self.run_finished(issued, Some(self.now - started_at));
        }
        let client = &mut self.clients[c.0 as usize];
        if client.batches_done < client.spec.num_batches {
            if client.spec.think_time > SimDuration::ZERO {
                // Bursty client: idle between batches (paper §1).
                self.queue.schedule(self.now + client.spec.think_time, Event::NextBatch(c));
            } else {
                self.start_run(c);
            }
        } else {
            self.record(TraceKind::ClientFinished { client: c.0 });
            self.settle(c, ClientOutcome::Finished(self.now));
        }
    }

    /// Shared teardown for deadline cancellations and fault-recovery sheds:
    /// drops the job's queued kernels, returns its gang to the pool,
    /// deregisters it and aborts the session with `outcome`. Kernels
    /// already *executing* finish on the device (non-preemptive, as on real
    /// hardware) but their completions are swallowed.
    fn teardown_job(&mut self, job_id: JobId, c: ClientId, outcome: ClientOutcome) {
        let slot = self.live_slot(job_id).expect("tearing down a live job");
        let held = self.job_hot[slot].held;
        let issued = self.job_cold[slot].issued.take();
        let dev = self.clients[c.0 as usize].device as usize;
        self.job_refs[job_id.0 as usize] = JobRef::Cancelled(dev as u32);
        self.free_slots.push(slot as u32);
        // Drop this job's not-yet-started kernels from the device queue.
        // Cancellation is rare, so the scratch collections are built only
        // here, and `doomed` is in ascending slab order so the free list
        // stays deterministic.
        let doomed: Vec<u64> = self
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Some((j, _)) if *j == job_id))
            .map(|(k, _)| k as u64)
            .collect();
        if !doomed.is_empty() {
            let doomed_set: std::collections::HashSet<u64> = doomed.iter().copied().collect();
            self.devices[dev].cancel_payloads(&doomed_set);
            for &k in &doomed {
                self.kernels[k as usize] = None;
                self.kernel_free.push(k as u32);
            }
        }
        // The gang's threads observe the cancellation and return.
        self.release_workers(held);
        let verdict = self.scheduler.deregister(job_id, self.now);
        self.apply_verdict(verdict);
        if let Some(issued) = issued {
            // Cancelled runs report no latency: they must not skew the
            // canary statistics.
            self.run_finished(issued, None);
        }
        // Abort the whole session.
        self.clients[c.0 as usize].current_job = None;
        self.settle(c, outcome);
    }

    // ---- model residency ------------------------------------------------

    /// Advances every device manager's time-driven transitions, in device
    /// order, applying each device's effects before the next ticks.
    fn lifecycle_tick(&mut self) {
        let devices = self.residency.as_ref().map_or(0, ResidencyRuntime::devices);
        for d in 0..devices {
            let mut fx = LcEffects::default();
            if let Some(rt) = &mut self.residency {
                rt.tick(d, self.now, &mut self.memories[d], &mut fx);
            }
            self.apply_lifecycle_effects(fx);
        }
    }

    /// Routes one run of deployment `mi` for client `c`. Returns `None`
    /// when the client parked inside the picked device's manager; it is
    /// woken (via `Effects::wake`) once a version starts serving there.
    fn route_managed(&mut self, c: ClientId, mi: usize) -> Option<Issued> {
        let rt = self.residency.as_mut()?;
        let degraded = self.control.as_ref().is_some_and(ControlRuntime::degraded);
        let model = &self.clients[c.0 as usize].spec.model;
        let mut fx = LcEffects::default();
        let (route, dev, est_ns) =
            rt.route(c.0, mi, model, degraded, self.now, &mut self.memories, &mut fx);
        self.apply_lifecycle_effects(fx);
        match route {
            Route::Wait => {
                if let Some(rt) = &mut self.residency {
                    rt.park(c.0, dev, est_ns);
                }
                self.record(TraceKind::LifecycleWait { client: c.0 });
                None
            }
            Route::Issue(key) => {
                self.clients[c.0 as usize].device = dev;
                Some((dev, key, est_ns))
            }
        }
    }

    /// Reports a managed run's end (`latency == None` for cancelled or
    /// never-started runs) and applies the effects: canary decisions,
    /// drain completions and retried loads.
    fn run_finished(&mut self, issued: Issued, latency: Option<SimDuration>) {
        let mut fx = LcEffects::default();
        if let Some(rt) = &mut self.residency {
            rt.run_finished(issued, latency, self.now, &mut self.memories, &mut fx);
        }
        self.apply_lifecycle_effects(fx);
    }

    /// Applies residency effects: events onto the stream as they are,
    /// future ticks onto the event queue, parked clients back into
    /// `start_run`, and — after any unload or eviction — a
    /// queued-admission pump over the freed memory.
    fn apply_lifecycle_effects(&mut self, fx: LcEffects) {
        if fx.is_empty() {
            return;
        }
        let mut freed = false;
        for kind in fx.events {
            freed |= matches!(kind, TraceKind::Evict { .. } | TraceKind::VersionUnload { .. });
            self.record(kind);
        }
        for t in fx.ticks {
            self.queue.schedule(t.max(self.now), Event::LifecycleTick);
        }
        for c in fx.wake {
            self.start_run(ClientId(c));
        }
        if freed {
            self.pump_admission();
        }
    }

    /// One fleet reconfiguration tick: solve the demand window's min-cost
    /// flow, drive the plan through the per-device managers (applying each
    /// command's effects before the next), then re-arm while any session is
    /// undecided.
    fn cluster_tick(&mut self) {
        let now = self.now;
        let Some((period, moves)) = self.residency.as_mut().and_then(ResidencyRuntime::plan)
        else {
            return;
        };
        let (mut loads, mut drains) = (0u32, 0u32);
        for mv in moves {
            let mut fx = LcEffects::default();
            let rt = self.residency.as_mut();
            let done = rt.is_some_and(|rt| rt.execute(mv, now, &mut self.memories, &mut fx));
            self.apply_lifecycle_effects(fx);
            match mv {
                Move::Load { .. } => loads += u32::from(done),
                Move::Drain { model, from, to } if done => {
                    drains += 1;
                    self.record(TraceKind::ClusterMigrate { model, from, to });
                }
                Move::Drain { .. } => {}
            }
        }
        if loads > 0 || drains > 0 {
            self.record(TraceKind::ClusterReconfig { loads, drains });
        }
        if self.undecided > 0 {
            self.queue.schedule(now + period, Event::ClusterTick);
        }
    }

    // ---- control plane ----------------------------------------------------

    /// One control-plane tick: steps the degradation ladder's cool-down,
    /// cancels laxity-negative runs early, and re-arms the tick while any
    /// session is still undecided.
    fn control_tick(&mut self) {
        let now = self.now;
        let Some(rt) = self.control.as_mut() else {
            return;
        };
        if let Some(transition) = rt.tick(now) {
            self.record(transition);
        }
        // Early cancellation: a run whose expected remaining GPU work no
        // longer fits before its deadline is torn down now instead of at
        // the deadline, freeing its quanta for runs that can still make it.
        for (job, c, deficit_us) in self.laxity_doomed() {
            self.record(TraceKind::LaxityCancel { job: job.0, client: c.0, deficit_us });
            self.teardown_job(job, c, ClientOutcome::DeadlineExceeded(now));
        }
        if self.undecided > 0 {
            self.queue.schedule(now + control::TICK, Event::ControlTick);
        }
    }

    /// Runs that cannot meet their deadline any more, in client-index
    /// order: `(job, client, deficit in µs)`.
    fn laxity_doomed(&self) -> Vec<(JobId, ClientId, u64)> {
        let Some(rt) = &self.control else {
            return Vec::new();
        };
        let doomed = |(i, client): (usize, &ClientState)| {
            let job = client.current_job?;
            let slot = self.live_slot(job)?;
            let deadline = self.job_cold[slot].started_at + client.spec.run_deadline?;
            let received = self.job_hot[slot].gpu_busy;
            let deficit = rt.laxity_deficit_us(self.now, &client.spec.model, deadline, received)?;
            Some((job, ClientId(i as u32), deficit))
        };
        self.clients.iter().enumerate().filter_map(doomed).collect()
    }

    // ---- scheduling plumbing ---------------------------------------------

    /// Emits one fact at `self.now` — the engine's single event entry
    /// point. Each event goes to two sinks: the trace buffer (which applies
    /// its own sampling and kernel gate) and, whenever telemetry is on, the
    /// telemetry fold. A drift alert the fold raises is acted on and
    /// mirrored into the trace on the spot.
    #[inline]
    fn record(&mut self, kind: TraceKind) {
        self.trace.record(self.now, kind);
        if let Some(alert) = self.telemetry.observe(self.now, &kind) {
            self.record_alert(&alert);
        }
    }

    /// Samples the gauge set telemetry publishes at snapshot boundaries.
    fn engine_gauges(&self) -> EngineGauges {
        let probe = self.scheduler.telemetry_probe();
        EngineGauges {
            queue_depth: self.admission_waiting.len() as u64,
            pool_idle: u64::from(self.pool_idle),
            starving: self.starving.len() as u64,
            active_jobs: u64::from(probe.active_jobs),
            holder_cost: probe.holder_cost,
            resident_model_bytes: self.residency.as_ref().map_or(0, |rt| rt.resident_bytes()),
        }
    }

    /// Emits every telemetry snapshot boundary due at `self.now` and lands
    /// any burn-rate alerts on the trace timeline. Snapshots sample engine
    /// gauges rather than fold events, so this is a direct call.
    fn telemetry_tick(&mut self) {
        let gauges = self.engine_gauges();
        let alerts = self.telemetry.tick(self.now, &gauges);
        self.telemetry_due = self.telemetry.next_due();
        for a in &alerts {
            self.record_alert(a);
        }
    }

    /// Hands a telemetry alert to the control plane, then mirrors it into
    /// the trace as a typed event. Alert kinds go straight to the
    /// trace buffer, not through [`record`](Self::record): the fold already
    /// counted them.
    #[cold]
    fn record_alert(&mut self, alert: &Alert) {
        if let Some(rt) = &mut self.control {
            let clients = &self.clients;
            let reaction = rt.on_alert(alert, |c| &clients[c as usize].spec.model);
            if let Alert::SloBurn { slo, .. } = alert {
                // Control feedback into the monitor, not a fact: a direct
                // call.
                self.telemetry.reset_burn_latch(*slo);
            }
            if let Some(kind) = reaction {
                self.record(kind);
            }
        }
        if let Some(kind) = alert.trace_kind() {
            self.trace.record(alert.at(), kind);
        }
    }

    /// Applies a scheduler hook's verdict — accounting, trace and the
    /// grantee's wake-up when the token moved — then re-arms the
    /// scheduler's timer.
    fn apply_verdict(&mut self, verdict: Verdict) {
        if let Verdict::Moved { from, to, reason } = verdict {
            self.token_moved(from, to, reason);
        }
        self.schedule_timer();
    }

    /// The token moved from `from` to `to`: count the switch, close the
    /// revoked holder's quantum and wake the grantee.
    fn token_moved(&mut self, from: Option<JobId>, to: Option<JobId>, reason: SwitchReason) {
        if matches!(reason, SwitchReason::WatchdogStall) {
            // The token-hold watchdog revoked a stalled holder: surface it
            // before `last_switch` advances, so the stall length is the
            // time since the holder was granted the token.
            if let Some(old) = from {
                let stalled_us = self
                    .last_switch
                    .map_or(0, |t| (self.now - t).as_nanos() / 1_000);
                if let Some(s) = self.live_slot(old) {
                    let client = self.job_hot[s].client.0;
                    self.record(TraceKind::WatchdogRevoke { job: old.0, client, stalled_us });
                }
            }
        }
        self.switch_count += 1;
        if let Some(last) = self.last_switch {
            self.intervals.push(self.now - last);
        }
        self.last_switch = Some(self.now);
        if let Some((old, slot)) = from.and_then(|j| Some((j, self.live_slot(j)?))) {
            if let Some(acc) = self.flush_quantum(slot) {
                let client = self.job_hot[slot].client.0;
                self.record(TraceKind::QuantumEnd { job: old.0, client, gpu: acc });
            }
        }
        if self.trace.is_on() || self.telemetry.is_on() {
            // The token-switch counter is folded from this revoke/grant
            // pair. A revoked/granted job may already be deregistered (its
            // slot is freed before the verdict reaches us), hence the
            // Option client.
            if let Some(old) = from {
                let client = self.live_slot(old).map(|s| self.job_hot[s].client.0);
                self.record(TraceKind::TokenRevoke { job: old.0, client, reason });
            }
            if let Some(new) = to {
                let client = self.live_slot(new).map(|s| self.job_hot[s].client.0);
                self.record(TraceKind::TokenGrant { job: new.0, client, reason });
            }
        }
        if let Some(new) = to {
            if let Some(slot) = self.live_slot(new) {
                let telemetry_on = self.telemetry.is_on();
                let (unblocked, client) = {
                    let j = &mut self.job_hot[slot];
                    j.resume_at = self.now + self.cfg.switch_latency;
                    if telemetry_on {
                        // Hand-off latency runs from here to the holder's
                        // next kernel submission.
                        j.granted_at = self.now;
                    }
                    if !j.resume_scheduled {
                        j.resume_scheduled = true;
                        let at = j.resume_at;
                        self.queue.schedule(at, Event::ResumeJob(new));
                    }
                    (std::mem::take(&mut j.yield_blocked), j.client.0)
                };
                if unblocked {
                    self.record(TraceKind::YieldUnblock { job: new.0, client });
                }
            }
        }
    }

    /// Closes the open quantum of the job in `slot`, if it received GPU
    /// time since the last one.
    fn flush_quantum(&mut self, slot: usize) -> Option<SimDuration> {
        let acc = std::mem::take(&mut self.job_hot[slot].quantum_acc);
        (acc > SimDuration::ZERO).then(|| {
            self.job_cold[slot].quanta.push((self.now, acc));
            acc
        })
    }

    /// Returns `n` gang threads to the pool and wakes starving jobs.
    fn release_workers(&mut self, n: u32) {
        if n > 0 {
            self.pool_idle += n;
            self.wake_starving();
        }
    }

    fn schedule_timer(&mut self) {
        if let Some(t) = self.scheduler.next_timer(self.now) {
            self.timer_gen += 1;
            self.queue.schedule(t.max(self.now), Event::SchedTimer(self.timer_gen));
        }
    }

    fn wake_starving(&mut self) {
        while self.pool_idle > 0 {
            let Some(job) = self.starving.pop_front() else {
                break;
            };
            if let Some(slot) = self.live_slot(job) {
                self.job_hot[slot].starving = false;
                self.dispatch(job);
            }
        }
    }

    // ---- the processing loop (Algorithm 1 + Algorithm 2 hooks) ------------

    fn dispatch(&mut self, job_id: JobId) {
        loop {
            let Some(slot) = self.live_slot(job_id) else {
                return;
            };
            // Algorithm 2 line 12: scheduler.yield() — a suspended gang's
            // threads park here, keeping their pool slots.
            if !self.scheduler.may_run(job_id) {
                if self.trace.is_on() && !self.job_hot[slot].yield_blocked {
                    self.job_hot[slot].yield_blocked = true;
                    let client = self.job_hot[slot].client.0;
                    self.record(TraceKind::YieldBlock { job: job_id.0, client });
                }
                return;
            }
            let job = &self.job_hot[slot];
            // Gang wake-up latency after a token hand-off.
            if self.now < job.resume_at {
                let at = job.resume_at;
                let job = &mut self.job_hot[slot];
                if !job.resume_scheduled {
                    job.resume_scheduled = true;
                    self.queue.schedule(at, Event::ResumeJob(job_id));
                }
                return;
            }
            if job.ready.is_empty() {
                // Nothing to pick up: idle gang threads go back to the pool
                // (TF-Serving returns threads as soon as Process() drains).
                let idle = job.held - job.busy;
                self.job_hot[slot].held -= idle;
                self.release_workers(idle);
                return;
            }
            // Acquire a worker: prefer an idle gang member, else the pool.
            let gang_limit = self.clients[job.client.0 as usize].gang_limit;
            if job.held == job.busy {
                if job.held < gang_limit && self.pool_idle > 0 {
                    self.pool_idle -= 1;
                    self.job_hot[slot].held += 1;
                } else {
                    if job.busy == 0 && !job.starving {
                        self.job_hot[slot].starving = true;
                        self.starving.push_back(job_id);
                    }
                    return;
                }
            }
            let job = &mut self.job_hot[slot];
            job.busy += 1;
            let node = job.ready.pop_front().expect("checked non-empty");
            self.execute_node(job_id, node);
        }
    }

    fn execute_node(&mut self, job_id: JobId, node: NodeId) {
        let slot = self.live_slot(job_id).expect("executing a live job");
        // Hot/cold split: the graph lives in the cold table, so borrowing it
        // alongside the mutable client row needs no `Arc` clone.
        let client_id = self.job_hot[slot].client.0;
        let graph = &self.job_cold[slot].graph;
        let client = &mut self.clients[client_id as usize];
        let n = graph.node(node);
        let jitter = if self.cfg.cpu_jitter > 0.0 {
            client.rng.jitter(self.cfg.cpu_jitter)
        } else {
            1.0
        };
        let scale = jitter * client.submit_factor * self.cfg.profiling_factor();
        // A CPU node runs inline; a GPU node spends the launch overhead
        // submitting its kernel.
        let (delay, event) = match n.placement() {
            Placement::Cpu => (n.duration(), Event::NodeDone { job: job_id, node, gpu: None }),
            Placement::Gpu => (self.cfg.launch_overhead, Event::SubmitKernel { job: job_id, node }),
        };
        self.queue.schedule(self.now + delay.mul_f64(scale), event);
    }

    fn submit_kernel(&mut self, job_id: JobId, node: NodeId) {
        let slot = match self.job_refs[job_id.0 as usize] {
            JobRef::Live(s) => s as usize,
            // Launch raced with a deadline cancellation.
            JobRef::Cancelled(_) => return,
            JobRef::Dead => unreachable!("submitting for a dead job"),
        };
        if self.telemetry.is_on() {
            let granted = std::mem::replace(&mut self.job_hot[slot].granted_at, SimTime::MAX);
            if granted != SimTime::MAX {
                // A direct call, not an event: this endpoint of the hand-off
                // is a per-kernel fact the trace records only in Full mode.
                self.telemetry.on_handoff(self.now - granted);
            }
        }
        if let Some(fr) = &mut self.faults {
            let c = self.job_hot[slot].client;
            let client = &self.clients[c.0 as usize];
            let deadline = client.spec.run_deadline.map(|d| self.job_cold[slot].started_at + d);
            match fr.launch(job_id.0, c.0, node, client.device, self.now, deadline) {
                Ok(None) => {}
                Ok(Some(closed)) => self.record(closed),
                Err(failure) => {
                    // The launch failed: retry after the backoff, or shed
                    // the session. The gang thread stays blocked either way.
                    for kind in failure.events {
                        self.record(kind);
                    }
                    match failure.next {
                        Ok(at) => self.queue.schedule(at, Event::RetryKernel { job: job_id, node }),
                        Err(outcome) => self.teardown_job(job_id, c, outcome),
                    }
                    return;
                }
            }
        }
        let duration = self.job_cold[slot].graph.node(node).duration();
        let tag = JobTag(self.job_hot[slot].client.0 as u64);
        let dev = self.clients[tag.0 as usize].device as usize;
        let kernel_id = match self.kernel_free.pop() {
            Some(k) => {
                self.kernels[k as usize] = Some((job_id, node));
                u64::from(k)
            }
            None => {
                self.kernels.push(Some((job_id, node)));
                (self.kernels.len() - 1) as u64
            }
        };
        if self.trace.records_kernels() {
            let client = self.job_hot[slot].client.0;
            self.record(TraceKind::KernelEnqueue {
                job: job_id.0,
                client,
                device: dev as u32,
                node: node.index() as u32,
            });
        }
        let mut extra = self.cfg.profiling_factor();
        if let Some(fr) = &self.faults {
            // A kernel enqueued inside a slowdown window runs `factor`× slower.
            extra *= fr.slowdown(self.now);
        }
        self.devices[dev].enqueue(tag, kernel_id, duration, extra);
        self.pump_device(dev);
    }

    /// Starts the next queued kernel if the device is free and schedules its
    /// completion. Called after every enqueue and every kernel completion —
    /// the device's pump protocol keeps exactly one completion outstanding.
    fn pump_device(&mut self, dev: usize) {
        if let Some((until, first)) = self.faults.as_mut().and_then(|fr| fr.stall(dev, self.now)) {
            // The device starts no new kernels during a stall window; one
            // wake-up event per (device, window) resumes pumping.
            if first {
                self.record(TraceKind::DeviceStall {
                    device: dev as u32,
                    until_us: until.as_nanos() / 1_000,
                });
                self.queue.schedule(until, Event::PumpDevice(dev as u32));
            }
            return;
        }
        if let Some(k) = self.devices[dev].try_start(self.now) {
            let idx = k.payload as usize;
            let (job, node) = self.kernels[idx].take().expect("started kernel was enqueued");
            self.kernel_free.push(idx as u32);
            if self.trace.records_kernels() {
                // A started kernel's job is still live: queued kernels of
                // cancelled jobs are dropped, and a job with in-flight work
                // cannot complete.
                if let Some(s) = self.live_slot(job) {
                    let client = self.job_hot[s].client.0;
                    self.record(TraceKind::KernelLaunch {
                        job: job.0,
                        client,
                        device: dev as u32,
                        node: node.index() as u32,
                        start: k.start,
                        end: k.end,
                    });
                }
            }
            self.queue.schedule(k.end, Event::NodeDone { job, node, gpu: Some(k.duration) });
        }
    }

    fn node_done(&mut self, job_id: JobId, node: NodeId, gpu: Option<SimDuration>) {
        let slot = match self.job_refs[job_id.0 as usize] {
            JobRef::Live(s) => s as usize,
            JobRef::Cancelled(dev) => {
                // Overflow completion of a cancelled job: the device is free
                // again, but nobody is accounting for this job any more.
                if gpu.is_some() {
                    self.pump_device(dev as usize);
                }
                return;
            }
            JobRef::Dead => unreachable!("finishing a dead job"),
        };
        if gpu.is_some() {
            // A kernel just finished: its device is free for the next one.
            let dev = self.clients[self.job_hot[slot].client.0 as usize].device as usize;
            self.pump_device(dev);
        }
        let job = &mut self.job_hot[slot];
        job.busy -= 1;
        job.done_nodes += 1;
        if let Some(d) = gpu {
            // Algorithm 2 lines 14-18: cost is charged to the job that
            // launched the kernel, even if it was switched out meanwhile
            // (the overflow rule, Figures 10/15).
            job.gpu_busy += d;
            job.quantum_acc += d;
            let client = job.client.0;
            // Off-mode tracing costs one branch here; the threshold probes
            // and overflow check run only while capturing.
            let pre_cost = if self.trace.is_on() {
                if self.trace.records_kernels() {
                    let device = self.clients[client as usize].device;
                    self.record(TraceKind::KernelComplete {
                        job: job_id.0,
                        client,
                        device,
                        node: node.index() as u32,
                        gpu: d,
                    });
                }
                if !self.scheduler.may_run(job_id) {
                    let device = self.clients[client as usize].device;
                    self.record(TraceKind::OverflowCharge {
                        job: job_id.0,
                        client,
                        device,
                        gpu: d,
                    });
                }
                self.scheduler.cost_state(job_id)
            } else {
                None
            };
            let verdict = self.scheduler.on_gpu_node_done(job_id, node, self.now);
            if let Some((pre_c, threshold)) = pre_cost {
                if let Some((post_c, _)) = self.scheduler.cost_state(job_id) {
                    // A holder whose counter reset just crossed; reconstruct
                    // the pre-reset value for the trace.
                    let crossing = if post_c < pre_c { post_c + threshold } else { post_c };
                    if pre_c < threshold && crossing >= threshold {
                        self.record(TraceKind::CostThreshold {
                            job: job_id.0,
                            client,
                            cumulated: crossing,
                            threshold,
                        });
                    }
                }
            }
            self.apply_verdict(verdict);
        }
        // Split borrow across the SoA halves: children come from the cold
        // graph while readiness mutates the hot row — no `Arc` clone.
        let job = &mut self.job_hot[slot];
        let graph = &self.job_cold[slot].graph;
        for &child in graph.children(node) {
            let r = &mut job.remaining_parents[child.index()];
            debug_assert!(*r > 0, "child readiness underflow");
            *r -= 1;
            if *r == 0 {
                job.ready.push_back(child);
            }
        }
        if job.done_nodes == job.total_nodes {
            self.complete_run(job_id);
        } else {
            self.dispatch(job_id);
        }
    }

    // ---- wrap-up -----------------------------------------------------------

    fn finalize(self) -> RunReport {
        let horizon = self.now;
        self.finalize_at(horizon)
    }

    /// [`finalize`](Self::finalize) against an explicit horizon — the
    /// sharded runner passes the global makespan so per-device utilization
    /// denominators agree across groups. `horizon >= self.now` required.
    pub(crate) fn finalize_at(mut self, horizon: SimTime) -> RunReport {
        debug_assert!(horizon >= self.now, "finalize horizon precedes the clock");
        debug_assert!(
            self.undecided > 0
                || self.residency.as_ref().is_none_or(ResidencyRuntime::ledger_settled),
            "every session ended, but the fleet ledger still holds charges"
        );
        let makespan = horizon;
        // Flush the telemetry tail (remaining boundaries plus the final
        // partial snapshot) before the trace is sealed, so burn-rate alerts
        // fired at the end of the run still land on the timeline.
        if self.telemetry.is_on() {
            let gauges = self.engine_gauges();
            let alerts = self.telemetry.finalize(makespan, &gauges);
            for a in &alerts {
                self.record_alert(a);
            }
        }
        let devices = &self.devices;
        let reports: Vec<ClientReport> = self
            .clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                // Summed across devices: cluster routing may move a
                // client's runs between GPUs (other devices report zero).
                let tag = JobTag(i as u64);
                let gpu = devices.iter().fold(SimDuration::ZERO, |acc, d| acc + d.job_busy(tag));
                client.into_report(ClientId(i as u32), gpu)
            })
            .collect();
        let device_utilizations: Vec<f64> = self
            .devices
            .iter()
            .map(|d| {
                if makespan > SimTime::ZERO {
                    d.utilization(makespan.max(d.busy_until()))
                } else {
                    0.0
                }
            })
            .collect();
        let utilization = device_utilizations.iter().sum::<f64>()
            / device_utilizations.len().max(1) as f64;
        RunReport {
            clients: reports,
            makespan,
            utilization,
            scheduling_intervals: self.intervals,
            switch_count: self.switch_count,
            kernel_count: self.devices.iter().map(GpuDevice::kernel_count).sum(),
            event_count: self.event_count,
            scheduler_name: self.scheduler.name().to_string(),
            peak_memory: self.memories.iter().map(MemoryPool::peak).sum(),
            device_utilizations,
            trace: self.trace.finish(),
            telemetry: self.telemetry.into_report(makespan),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FifoScheduler;

    fn tiny_clients(n: usize, batches: u32) -> Vec<ClientSpec> {
        (0..n)
            .map(|_| ClientSpec::new(models::mini::tiny(4), batches))
            .collect()
    }

    #[test]
    fn single_client_finishes() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.kernel_count, 16);
        assert!(report.makespan > SimTime::ZERO);
    }

    #[test]
    fn runtime_close_to_serial_gpu_time() {
        // One client, one batch: makespan ≈ decode + Σ(kernel + launch gap).
        let cfg = EngineConfig::default().quiescent();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        let t = report.makespan.as_secs_f64();
        // 16 nodes × (10 µs kernel + 10 µs launch) + 5 µs decode ≈ 325 µs.
        assert!(t > 250e-6 && t < 400e-6, "makespan {t}");
    }

    #[test]
    fn sequential_batches_accumulate() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 5), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.clients[0].run_finish_times.len(), 5);
        assert_eq!(report.kernel_count, 5 * 16);
        // Runs are sequential: finish times strictly increase.
        let f = &report.clients[0].run_finish_times;
        assert!(f.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_clients_all_finish_and_share_device() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(4, 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.kernel_count, 4 * 2 * 16);
        for c in &report.clients {
            assert!(c.total_gpu > SimDuration::ZERO);
        }
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = EngineConfig::default();
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.finish_times_secs(), b.finish_times_secs());
        assert_eq!(a.kernel_count, b.kernel_count);
        assert_eq!(a.event_count, b.event_count);
    }

    #[test]
    fn different_seed_changes_timeline() {
        let cfg = EngineConfig::default();
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(
            &cfg.with_seed(999),
            tiny_clients(3, 2),
            &mut FifoScheduler::new(),
        );
        assert_ne!(a.makespan, b.makespan);
    }

    #[test]
    fn online_profiling_inflates_makespan() {
        let cfg = EngineConfig::default().quiescent();
        let plain = run_experiment(&cfg, tiny_clients(1, 2), &mut FifoScheduler::new());
        let profiled = run_experiment(
            &cfg.with_online_profiling(0.25),
            tiny_clients(1, 2),
            &mut FifoScheduler::new(),
        );
        let ratio = profiled.makespan.as_secs_f64() / plain.makespan.as_secs_f64();
        assert!(ratio > 1.15 && ratio < 1.35, "inflation ratio {ratio}");
    }

    #[test]
    fn oom_client_is_rejected_others_proceed() {
        let mut cfg = EngineConfig::default();
        // Tiny device: fits one client's weights+activations but not two
        // clients' activations (weights are shared).
        let m = models::mini::tiny(4);
        let need = m.weights_bytes() + m.activation_bytes();
        cfg.device = gpusim::DeviceProfile::custom(
            "toy",
            1.0,
            need + m.activation_bytes() / 2,
            4,
            0.0,
        );
        let report = run_experiment(&cfg, tiny_clients(2, 1), &mut FifoScheduler::new());
        assert_eq!(report.finished_count(), 1);
        assert!(matches!(
            report.clients[1].outcome,
            ClientOutcome::RejectedOom { .. }
        ));
    }

    #[test]
    fn baseline_reports_no_scheduling_intervals() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(2, 1), &mut FifoScheduler::new());
        assert!(report.scheduling_intervals.is_empty());
        assert_eq!(report.switch_count, 0);
        assert_eq!(report.scheduler_name, "tf-serving");
    }

    #[test]
    fn utilization_is_a_fraction() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(3, 3), &mut FifoScheduler::new());
        assert!(report.utilization > 0.1 && report.utilization <= 1.0);
    }

    #[test]
    fn staggered_starts_respected() {
        let cfg = EngineConfig::default();
        let late_start = SimTime::from_millis(10);
        let clients = vec![
            ClientSpec::new(models::mini::tiny(4), 1),
            ClientSpec::new(models::mini::tiny(4), 1).with_start(late_start),
        ];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert!(report.clients[1].finish_time() > late_start);
        assert!(report.clients[0].finish_time() < late_start);
    }

    #[test]
    fn watchdog_trips_on_tiny_budget() {
        let cfg = EngineConfig {
            max_events: 5,
            ..EngineConfig::default()
        };
        // The dyn ProfileBinder inside the lifecycle config keeps the
        // closure from being UnwindSafe; nothing is reused after the panic.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new())
        }));
        assert!(result.is_err(), "watchdog should panic");
    }

    #[test]
    fn two_devices_place_clients_apart() {
        let cfg = EngineConfig::default().with_device_count(2);
        let report = run_experiment(&cfg, tiny_clients(2, 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert_eq!(report.device_utilizations.len(), 2);
        // Memory-balanced placement puts one client on each device, so both
        // accumulated busy time.
        assert!(report.device_utilizations.iter().all(|&u| u > 0.0));
        for c in &report.clients {
            assert!(c.total_gpu > SimDuration::ZERO);
        }
    }

    #[test]
    fn single_device_report_has_one_utilization() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        assert_eq!(report.device_utilizations.len(), 1);
        assert!((report.device_utilizations[0] - report.utilization).abs() < 1e-12);
    }

    #[test]
    fn telemetry_off_report_is_empty() {
        let cfg = EngineConfig::default();
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        assert!(!report.telemetry.enabled);
        assert!(report.telemetry.snapshots.is_empty());
        assert_eq!(report.prometheus_text(), "");
    }

    #[test]
    fn telemetry_snapshot_count_matches_interval_arithmetic() {
        let cfg = EngineConfig::default().with_telemetry(
            telemetry::TelemetryConfig::enabled(SimDuration::from_micros(50)),
        );
        let report = run_experiment(&cfg, tiny_clients(2, 3), &mut FifoScheduler::new());
        let t = &report.telemetry;
        assert!(t.enabled);
        assert_eq!(t.makespan, report.makespan);
        assert_eq!(t.snapshots.len() as u64, t.expected_snapshots());
        assert_eq!(t.snapshots.last().unwrap().at, report.makespan);
        assert_eq!(t.counter("clients_admitted"), Some(2));
        assert_eq!(t.counter("runs_started"), Some(6));
        assert_eq!(t.counter("runs_completed"), Some(6));
        assert_eq!(t.hist("run_latency_us").unwrap().count, 6);
        // Quanta flush at run completion under the baseline scheduler.
        assert_eq!(t.hist("quantum_us").unwrap().count, 6);
        assert_eq!(t.client_models, vec!["mini-tiny".to_string(); 2]);
    }

    #[test]
    fn telemetry_is_deterministic() {
        let cfg = EngineConfig::default().with_telemetry(
            telemetry::TelemetryConfig::enabled(SimDuration::from_micros(100)),
        );
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    fn telemetry_does_not_perturb_the_simulation() {
        let cfg = EngineConfig::default();
        let plain = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let telemetered = run_experiment(
            &cfg.with_telemetry(telemetry::TelemetryConfig::enabled(
                SimDuration::from_micros(50),
            )),
            tiny_clients(3, 2),
            &mut FifoScheduler::new(),
        );
        assert_eq!(plain.makespan, telemetered.makespan);
        assert_eq!(plain.finish_times_secs(), telemetered.finish_times_secs());
        assert_eq!(plain.event_count, telemetered.event_count);
    }

    fn chaos_cfg(plan: faults::FaultPlan) -> EngineConfig {
        EngineConfig::default()
            .with_faults(faults::FaultConfig::new(plan))
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(
                200,
            )))
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let cfg = EngineConfig::default();
        let plain = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let faulted = run_experiment(
            &cfg.with_faults(faults::FaultConfig::new(faults::FaultPlan::new())),
            tiny_clients(3, 2),
            &mut FifoScheduler::new(),
        );
        assert_eq!(plain.makespan, faulted.makespan);
        assert_eq!(plain.finish_times_secs(), faulted.finish_times_secs());
        assert_eq!(plain.event_count, faulted.event_count);
    }

    #[test]
    fn transient_kernel_faults_retry_to_completion() {
        let cfg = chaos_cfg(faults::FaultPlan::new().with_kernel_failures(0.05));
        let report = run_experiment(&cfg, tiny_clients(2, 2), &mut FifoScheduler::new());
        assert!(report.all_finished(), "moderate fault rate must be survivable");
        let faults = report.telemetry.counter("faults_kernel").unwrap();
        let retries = report.telemetry.counter("kernel_retries").unwrap();
        assert!(faults > 0, "p=0.05 over 64 launches should fire");
        assert_eq!(retries, faults, "every transient fault earns a retry");
    }

    #[test]
    fn persistent_kernel_faults_shed_the_client() {
        let cfg = chaos_cfg(faults::FaultPlan::new().with_kernel_failures(0.97));
        let report = run_experiment(&cfg, tiny_clients(1, 1), &mut FifoScheduler::new());
        let outcome = &report.clients[0].outcome;
        assert!(
            matches!(
                outcome,
                ClientOutcome::RetriesExhausted { .. } | ClientOutcome::CircuitOpen { .. }
            ),
            "expected a shed, got {outcome}"
        );
        assert!(report.telemetry.counter("clients_shed").unwrap() >= 1);
    }

    #[test]
    fn device_stall_window_delays_but_run_completes() {
        let base = EngineConfig::default().quiescent();
        let plain = run_experiment(&base, tiny_clients(1, 1), &mut FifoScheduler::new());
        let stalled = run_experiment(
            &base.with_faults(faults::FaultConfig::new(
                faults::FaultPlan::new()
                    .with_stall(SimTime::from_micros(50), SimTime::from_micros(250)),
            )),
            tiny_clients(1, 1),
            &mut FifoScheduler::new(),
        );
        assert!(stalled.all_finished());
        assert!(
            stalled.makespan > plain.makespan,
            "a mid-run stall must push the makespan out"
        );
    }

    #[test]
    fn slowdown_window_inflates_makespan() {
        let base = EngineConfig::default().quiescent();
        let plain = run_experiment(&base, tiny_clients(1, 1), &mut FifoScheduler::new());
        let slowed = run_experiment(
            &base.with_faults(faults::FaultConfig::new(
                faults::FaultPlan::new().with_slowdown(
                    4.0,
                    SimTime::ZERO,
                    SimTime::from_millis(10),
                ),
            )),
            tiny_clients(1, 1),
            &mut FifoScheduler::new(),
        );
        assert!(slowed.all_finished());
        assert!(slowed.makespan > plain.makespan);
    }

    #[test]
    fn transient_alloc_faults_retry_admission() {
        let cfg = chaos_cfg(faults::FaultPlan::new().with_alloc_failures(0.5));
        let report = run_experiment(&cfg, tiny_clients(2, 1), &mut FifoScheduler::new());
        assert!(report.all_finished(), "admission retries must eventually land");
        assert!(report.telemetry.counter("faults_alloc").unwrap() > 0);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let cfg = chaos_cfg(
            faults::FaultPlan::new()
                .with_kernel_failures(0.1)
                .with_alloc_failures(0.2)
                .with_stall(SimTime::from_micros(100), SimTime::from_micros(300)),
        );
        let a = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, tiny_clients(3, 2), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    /// A mini model re-badged under a deployment name, so lifecycle
    /// routing matches the clients that request it.
    fn managed(name: &str) -> models::LoadedModel {
        let m = models::mini::tiny(4);
        models::LoadedModel::from_parts(
            name,
            None,
            m.batch(),
            Arc::clone(m.graph()),
            m.weights_bytes(),
            m.activation_bytes(),
        )
    }

    fn lifecycle_cfg() -> EngineConfig {
        let plan = lifecycle::DeploymentPlan::new()
            .with_model(lifecycle::ModelDeployment::new("svc", managed("svc")));
        EngineConfig::default()
            .with_lifecycle(lifecycle::LifecycleConfig::new(plan))
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(
                200,
            )))
    }

    #[test]
    fn lifecycle_client_waits_for_load_then_finishes() {
        let clients = vec![ClientSpec::new(managed("svc"), 3)];
        let report = run_experiment(&lifecycle_cfg(), clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        let t = &report.telemetry;
        assert_eq!(t.counter("versions_loaded"), Some(1));
        assert!(t.counter("warmup_runs").unwrap() >= 1);
        assert_eq!(t.counter("runs_completed"), Some(3));
    }

    #[test]
    fn lifecycle_run_is_deterministic() {
        let mk = || vec![ClientSpec::new(managed("svc"), 2), ClientSpec::new(managed("svc"), 2)];
        let a = run_experiment(&lifecycle_cfg(), mk(), &mut FifoScheduler::new());
        let b = run_experiment(&lifecycle_cfg(), mk(), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
    }

    #[test]
    fn lifecycle_keeps_resident_bytes_under_budget() {
        // Three single-version deployments on a device that fits two
        // models' weights; clients of all three still finish because the
        // manager evicts idle versions.
        let m = managed("a");
        let weights = m.weights_bytes();
        let budget = 2 * weights + 4 * m.activation_bytes() + (64 << 10);
        let plan = lifecycle::DeploymentPlan::new()
            .with_model(lifecycle::ModelDeployment::new("a", managed("a")))
            .with_model(lifecycle::ModelDeployment::new("b", managed("b")))
            .with_model(lifecycle::ModelDeployment::new("c", managed("c")));
        let cfg = EngineConfig {
            device: gpusim::DeviceProfile::custom("lab", 1.0, budget, 8, 0.0),
            ..EngineConfig::default()
        }
        .with_lifecycle(lifecycle::LifecycleConfig::new(plan))
        .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)));
        let clients = vec![
            ClientSpec::new(managed("a"), 2),
            ClientSpec::new(managed("b"), 2).with_start(SimTime::from_millis(2)),
            ClientSpec::new(managed("c"), 2).with_start(SimTime::from_millis(4)),
        ];
        let report = run_experiment(&cfg, clients, &mut FifoScheduler::new());
        assert!(report.all_finished());
        assert!(report.telemetry.counter("versions_evicted").unwrap() >= 1);
        assert!(report.peak_memory <= budget);
    }

    fn fleet_cfg(policy: cluster::RouterPolicy, names: &[&str]) -> EngineConfig {
        let mut plan = lifecycle::DeploymentPlan::new();
        for n in names {
            plan = plan.with_model(lifecycle::ModelDeployment::new(*n, managed(n)));
        }
        let devices = vec![
            gpusim::DeviceProfile::gtx_1080_ti(),
            gpusim::DeviceProfile::titan_x(),
        ];
        let cc = cluster::ClusterConfig::new(devices, lifecycle::LifecycleConfig::new(plan))
            .with_tick(SimDuration::from_millis(1))
            .with_policy(policy);
        EngineConfig::default()
            .with_cluster(cc)
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)))
    }

    fn fleet_clients(names: &[&str], batches: u32) -> Vec<ClientSpec> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                ClientSpec::new(managed(n), batches)
                    .with_start(SimTime::from_micros(50 * i as u64))
            })
            .collect()
    }

    #[test]
    fn cluster_routes_every_run_and_finishes() {
        let names = ["a", "b", "c"];
        let cfg = fleet_cfg(cluster::RouterPolicy::CostAware, &names);
        let report = run_experiment(&cfg, fleet_clients(&names, 3), &mut FifoScheduler::new());
        assert!(report.all_finished());
        let t = &report.telemetry;
        // Every issue attempt is a route; waits re-route on wake, so the
        // route count is at least the completed-run count.
        assert!(t.counter("cluster_routes").unwrap() >= 9);
        assert_eq!(t.counter("runs_completed"), Some(9));
        assert!(t.counter("versions_loaded").unwrap() >= 3);
        assert_eq!(report.device_utilizations.len(), 2);
    }

    #[test]
    fn cluster_static_policy_pins_models_round_robin() {
        let names = ["a", "b", "c"];
        let mut plan = lifecycle::DeploymentPlan::new();
        for n in names {
            plan = plan.with_model(lifecycle::ModelDeployment::new(n, managed(n)));
        }
        let devices = vec![
            gpusim::DeviceProfile::gtx_1080_ti(),
            gpusim::DeviceProfile::titan_x(),
        ];
        let cc = cluster::ClusterConfig::new(devices, lifecycle::LifecycleConfig::new(plan))
            .with_policy(cluster::RouterPolicy::Static)
            .with_reconfigure(false);
        let cfg = EngineConfig::default()
            .with_cluster(cc)
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)));
        let report = run_experiment(&cfg, fleet_clients(&names, 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        // Model a and c pin to device 0, b to device 1: both devices busy.
        assert!(report.device_utilizations.iter().all(|&u| u > 0.0));
        assert_eq!(report.telemetry.counter("cluster_migrations"), Some(0));
        assert_eq!(report.telemetry.counter("cluster_reconfigs"), Some(0));
    }

    #[test]
    fn cluster_run_is_deterministic() {
        let names = ["a", "b", "c", "d"];
        let cfg = fleet_cfg(cluster::RouterPolicy::CostAware, &names);
        let a = run_experiment(&cfg, fleet_clients(&names, 3), &mut FifoScheduler::new());
        let b = run_experiment(&cfg, fleet_clients(&names, 3), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.event_count, b.event_count);
        assert_eq!(a.telemetry_jsonl(), b.telemetry_jsonl());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    /// FIFO, except that every registration of deployment `b` is refused.
    #[derive(Debug)]
    struct RefuseB(FifoScheduler);

    impl Scheduler for RefuseB {
        fn register(
            &mut self,
            job: JobId,
            ctx: &JobCtx<'_>,
        ) -> Result<Verdict, crate::RegisterError> {
            if ctx.model_name.starts_with("b@") {
                let model = ctx.model_name.to_string();
                return Err(crate::RegisterError::MissingProfile { model, batch: ctx.batch });
            }
            self.0.register(job, ctx)
        }
        fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
            self.0.deregister(job, now)
        }
        fn may_run(&self, job: JobId) -> bool {
            self.0.may_run(job)
        }
        fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
            self.0.on_gpu_node_done(job, node, now)
        }
        fn name(&self) -> &str {
            "refuse-b"
        }
    }

    #[test]
    fn cluster_ledger_returns_every_charge() {
        // Every first arrival parks for a load and re-routes on wake; `b`'s
        // woken run is refused by the scheduler; the last client's run
        // overruns its deadline and is cancelled. Each path must hand its
        // charge back to the router.
        for policy in [cluster::RouterPolicy::CostAware, cluster::RouterPolicy::Static] {
            let names = ["a", "b", "c"];
            let mut clients = fleet_clients(&names, 3);
            let doomed = ClientSpec::new(managed("c"), 3);
            clients.push(doomed.with_run_deadline(SimDuration::from_micros(50)));
            let mut sched = RefuseB(FifoScheduler::new());
            let mut engine = build_engine(&fleet_cfg(policy, &names), clients, &mut sched);
            engine.run();
            assert_eq!(engine.undecided, 0, "{policy:?}: a session never ended");
            let outcome = |i: usize| engine.clients[i].outcome.as_ref();
            assert!(matches!(outcome(0), Some(ClientOutcome::Finished(_))), "{policy:?}");
            assert!(matches!(outcome(1), Some(ClientOutcome::RejectedByScheduler(_))));
            assert!(matches!(outcome(2), Some(ClientOutcome::Finished(_))), "{policy:?}");
            assert!(matches!(outcome(3), Some(ClientOutcome::DeadlineExceeded(_))));
            let rt = engine.residency.as_ref().expect("fleet mode");
            assert!(rt.ledger_settled(), "{policy:?}: charges left on the fleet ledger");
            // 8 arrivals; every route past them is a woken re-route.
            let report = engine.finalize();
            assert!(report.telemetry.counter("cluster_routes").unwrap() > 8, "{policy:?}");
        }
    }

    #[test]
    fn cluster_keeps_each_device_under_its_budget() {
        // Devices sized for two of the three models each: serving all
        // three forces evictions/migrations, and the per-device managers'
        // internal budget assertion holds at every allocation.
        let m = managed("a");
        let weights = m.weights_bytes();
        let budget = 2 * weights + 4 * m.activation_bytes() + (64 << 10);
        let mut plan = lifecycle::DeploymentPlan::new();
        for n in ["a", "b", "c"] {
            plan = plan.with_model(lifecycle::ModelDeployment::new(n, managed(n)));
        }
        let devices = vec![
            gpusim::DeviceProfile::custom("lab0", 1.0, budget, 8, 0.0),
            gpusim::DeviceProfile::custom("lab1", 1.2, budget, 8, 0.0),
        ];
        let cc = cluster::ClusterConfig::new(devices, lifecycle::LifecycleConfig::new(plan))
            .with_tick(SimDuration::from_millis(1));
        let cfg = EngineConfig::default()
            .with_cluster(cc)
            .with_telemetry(telemetry::TelemetryConfig::enabled(SimDuration::from_micros(200)));
        let report =
            run_experiment(&cfg, fleet_clients(&["a", "b", "c"], 2), &mut FifoScheduler::new());
        assert!(report.all_finished());
        // Both pools stayed within their caps (peak is summed over pools;
        // each pool individually asserts on over-allocation).
        assert!(report.peak_memory <= 2 * budget);
    }

    #[test]
    fn quiescent_single_client_is_seed_stable_without_wobble() {
        // With clock wobble disabled via a custom device, two different
        // seeds give identical single-client makespans in quiescent mode.
        let cfg = EngineConfig {
            device: gpusim::DeviceProfile::custom("flat", 1.0, 1 << 33, 8, 0.0),
            ..EngineConfig::default().quiescent()
        };
        let a = run_experiment(&cfg.with_seed(1), tiny_clients(1, 1), &mut FifoScheduler::new());
        let b = run_experiment(&cfg.with_seed(2), tiny_clients(1, 1), &mut FifoScheduler::new());
        assert_eq!(a.makespan, b.makespan);
    }
}
