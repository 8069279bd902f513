//! Client workload specification, and the engine's per-session state.

use crate::config::EngineConfig;
use crate::report::{ClientOutcome, ClientReport};
use crate::scheduler::{ClientId, JobId};
use gpusim::Allocation;
use models::LoadedModel;
use simtime::{DetRng, SimDuration, SimTime};

/// One client: a stream of sequential `Session::Run` requests against a
/// single model, mirroring the paper's workload ("each client submits 10
/// batches sequentially", §4).
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// The model (with batch size baked in) this client queries.
    pub model: LoadedModel,
    /// Number of sequential batches (one `Session::Run` each).
    pub num_batches: u32,
    /// Weight for weighted-fair scheduling (≥ 1; plain fair sharing treats
    /// everyone as weight 1).
    pub weight: u32,
    /// Priority for priority scheduling (higher runs first; ignored by
    /// other policies).
    pub priority: u32,
    /// When the client connects.
    pub start_at: SimTime,
    /// Idle time between consecutive batches — the "intermittent and bursty
    /// GPU usage" of real applications (paper §1): a camera frame interval,
    /// user think time, an upstream pipeline stage. Zero (the default)
    /// reproduces the paper's back-to-back evaluation workload.
    pub think_time: SimDuration,
    /// Per-`Session::Run` deadline: if a run has not completed this long
    /// after it was issued, it is cancelled, its queued kernels dropped and
    /// the whole session ends with
    /// [`ClientOutcome::DeadlineExceeded`](crate::ClientOutcome::DeadlineExceeded).
    /// `None` (the default) disables deadlines.
    pub run_deadline: Option<SimDuration>,
}

impl ClientSpec {
    /// A default client: unit weight, zero priority, starts at time zero.
    pub fn new(model: LoadedModel, num_batches: u32) -> Self {
        ClientSpec {
            model,
            num_batches,
            weight: 1,
            priority: 0,
            start_at: SimTime::ZERO,
            think_time: SimDuration::ZERO,
            run_deadline: None,
        }
    }

    /// Sets the scheduling weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the connection time.
    pub fn with_start(mut self, at: SimTime) -> Self {
        self.start_at = at;
        self
    }

    /// Sets the idle gap between consecutive batches.
    pub fn with_think_time(mut self, think: SimDuration) -> Self {
        self.think_time = think;
        self
    }

    /// Sets the per-run deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn with_run_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(deadline > SimDuration::ZERO, "deadline must be positive");
        self.run_deadline = Some(deadline);
        self
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if `num_batches` or `weight` is zero.
    pub fn validate(&self) {
        assert!(self.num_batches > 0, "client must send at least one batch");
        assert!(self.weight > 0, "weight must be at least 1");
    }
}

/// One client's live session inside the engine: its spec, how far it got,
/// where its runs execute and the seeded noise it drew at connect time.
#[derive(Debug)]
pub(crate) struct ClientState {
    pub(crate) spec: ClientSpec,
    /// Deployment index of the client's model in the residency plan,
    /// resolved once at build time; `None` for unmanaged models.
    pub(crate) deployment: Option<u32>,
    pub(crate) outcome: Option<ClientOutcome>,
    pub(crate) batches_done: u32,
    pub(crate) current_job: Option<JobId>,
    pub(crate) gang_limit: u32,
    pub(crate) submit_factor: f64,
    /// Which GPU this client's *current run* executes on. Outside cluster
    /// mode this never changes after admission.
    pub(crate) device: u32,
    /// Which GPU holds this client's activation memory (fixed at
    /// admission; cluster routing moves runs, not activations).
    pub(crate) home: u32,
    pub(crate) activations: Option<Allocation>,
    pub(crate) run_finish_times: Vec<SimTime>,
    pub(crate) run_gpu_durations: Vec<SimDuration>,
    pub(crate) quantum_marks: Vec<(SimTime, SimDuration)>,
    pub(crate) rng: DetRng,
}

impl ClientState {
    pub(crate) fn new(spec: ClientSpec, max_gang: u32, rng: DetRng) -> Self {
        ClientState {
            spec,
            deployment: None,
            outcome: None,
            batches_done: 0,
            current_job: None,
            gang_limit: max_gang,
            submit_factor: 1.0,
            device: 0,
            home: 0,
            activations: None,
            run_finish_times: Vec::new(),
            run_gpu_durations: Vec::new(),
            quantum_marks: Vec::new(),
            rng,
        }
    }

    /// Draws the session's baseline nondeterminism when it connects: an
    /// effective gang width (how many kernels it keeps in flight), a
    /// submission latency factor and — returned, when its spread is on —
    /// a driver arbitration bias.
    pub(crate) fn draw_noise(&mut self, cfg: &EngineConfig) -> Option<f64> {
        if cfg.min_effective_gang != cfg.max_gang {
            let span = u64::from(cfg.max_gang - cfg.min_effective_gang + 1);
            self.gang_limit = cfg.min_effective_gang + (self.rng.next_u64() % span) as u32;
        }
        if cfg.submit_latency_spread > 0.0 {
            self.submit_factor = self.rng.lognormal(0.0, cfg.submit_latency_spread);
        }
        (cfg.driver_bias_spread > 0.0).then(|| self.rng.lognormal(0.0, cfg.driver_bias_spread))
    }

    /// Books a completed run: its finish time, GPU time and quanta.
    pub(crate) fn run_completed(
        &mut self,
        now: SimTime,
        gpu: SimDuration,
        quanta: &[(SimTime, SimDuration)],
    ) {
        self.run_finish_times.push(now);
        self.run_gpu_durations.push(gpu);
        self.quantum_marks.extend_from_slice(quanta);
        self.batches_done += 1;
        self.current_job = None;
    }

    /// The finished session's report; a session still undecided stalled.
    pub(crate) fn into_report(self, client: ClientId, total_gpu: SimDuration) -> ClientReport {
        ClientReport {
            client,
            model_name: self.spec.model.name().to_string(),
            batch: self.spec.model.batch(),
            outcome: self.outcome.unwrap_or(ClientOutcome::Stalled),
            run_finish_times: self.run_finish_times,
            run_gpu_durations: self.run_gpu_durations,
            quantum_marks: self.quantum_marks,
            total_gpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let spec = ClientSpec::new(models::mini::tiny(1), 3)
            .with_weight(2)
            .with_priority(7)
            .with_start(SimTime::from_millis(5))
            .with_think_time(SimDuration::from_millis(2));
        assert_eq!(spec.num_batches, 3);
        assert_eq!(spec.weight, 2);
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.start_at, SimTime::from_millis(5));
        assert_eq!(spec.think_time, SimDuration::from_millis(2));
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "at least one batch")]
    fn zero_batches_rejected() {
        ClientSpec::new(models::mini::tiny(1), 0).validate();
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn zero_weight_rejected() {
        let mut s = ClientSpec::new(models::mini::tiny(1), 1);
        s.weight = 0;
        s.validate();
    }
}
