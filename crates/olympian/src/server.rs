//! A batteries-included server facade.
//!
//! Wires the pieces a deployment needs — offline profiling, Overhead-Q
//! measurement, quantum selection, policy choice, scheduler construction —
//! behind one builder, so the common path is three calls:
//!
//! ```
//! use olympian::server::{PolicyKind, ServerBuilder};
//! use serving::ClientSpec;
//!
//! let model = models::mini::small(4);
//! let mut server = ServerBuilder::new()
//!     .policy(PolicyKind::Fair)
//!     .overhead_tolerance(0.05)
//!     .build_for_models(std::slice::from_ref(&model));
//! let report = server.run(vec![ClientSpec::new(model, 2); 3]);
//! assert!(report.all_finished());
//! ```

use crate::multi::MultiGpuScheduler;
use crate::policy::{DeficitRoundRobin, Lottery, Policy, Priority, RoundRobin, WeightedFair};
use crate::profiler::Profiler;
use crate::profile::ProfileStore;
use crate::scheduler::OlympianScheduler;
use models::LoadedModel;
use serving::{run_experiment, ClientSpec, EngineConfig, RunReport, Scheduler};
use simtime::SimDuration;
use std::sync::Arc;

/// Which scheduling policy the server applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Round-robin fair sharing (the paper's default).
    Fair,
    /// Weighted fair sharing (client weights from [`ClientSpec::weight`]).
    WeightedFair,
    /// Strict priorities (client priorities from [`ClientSpec::priority`]).
    Priority,
    /// Deficit round robin (extension).
    DeficitRoundRobin,
    /// Lottery scheduling with the given draw seed (extension).
    Lottery(u64),
}

impl PolicyKind {
    fn instantiate(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Fair => Box::new(RoundRobin::new()),
            PolicyKind::WeightedFair => Box::new(WeightedFair::new()),
            PolicyKind::Priority => Box::new(Priority::new()),
            PolicyKind::DeficitRoundRobin => Box::new(DeficitRoundRobin::new()),
            PolicyKind::Lottery(seed) => Box::new(Lottery::new(seed)),
        }
    }
}

/// How the server picks its quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QuantumChoice {
    /// Fixed value supplied by the operator.
    Fixed(SimDuration),
    /// Measured from Overhead-Q curves at this tolerance (paper §3.3).
    FromTolerance(f64),
}

/// Builder for an [`OlympianServer`].
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    cfg: EngineConfig,
    policy: PolicyKind,
    quantum: QuantumChoice,
    q_grid: Vec<SimDuration>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerBuilder {
    /// Starts from the default platform (single simulated GTX 1080 Ti),
    /// fair sharing, 2.5% overhead tolerance.
    pub fn new() -> Self {
        ServerBuilder {
            cfg: EngineConfig::default(),
            policy: PolicyKind::Fair,
            quantum: QuantumChoice::FromTolerance(0.025),
            q_grid: [100u64, 200, 400, 800, 1_200, 1_600, 2_400, 4_000, 6_000, 10_000]
                .into_iter()
                .map(SimDuration::from_micros)
                .collect(),
        }
    }

    /// Uses a custom engine configuration (devices, pool, seeds…).
    pub fn engine(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects the scheduling policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Pins the quantum instead of deriving it from Overhead-Q curves.
    pub fn fixed_quantum(mut self, q: SimDuration) -> Self {
        self.quantum = QuantumChoice::Fixed(q);
        self
    }

    /// Derives the quantum from Overhead-Q curves at this tolerance
    /// (the default, at 2.5%).
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive.
    pub fn overhead_tolerance(mut self, tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        self.quantum = QuantumChoice::FromTolerance(tolerance);
        self
    }

    /// Profiles the given models (each `(model, batch)` once), measures
    /// Overhead-Q curves if the quantum comes from a tolerance, and builds
    /// the server.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn build_for_models(self, models: &[LoadedModel]) -> OlympianServer {
        assert!(!models.is_empty(), "server needs at least one model");
        let profiler = Profiler::new(&self.cfg);
        let mut store = ProfileStore::new();
        let mut distinct: Vec<&LoadedModel> = Vec::new();
        for m in models {
            if store.get(m.name(), m.batch()).is_none() {
                store.insert(profiler.profile(m));
                distinct.push(m);
            }
        }
        let quantum = match self.quantum {
            QuantumChoice::Fixed(q) => q,
            QuantumChoice::FromTolerance(tol) => {
                let curves: Vec<_> = distinct
                    .iter()
                    .map(|m| profiler.overhead_q_curve(m, &self.q_grid))
                    .collect();
                Profiler::q_for_tolerance(&curves, tol)
                    .unwrap_or_else(|| *self.q_grid.last().expect("non-empty grid"))
            }
        };
        OlympianServer {
            cfg: self.cfg,
            store: Arc::new(store),
            policy: self.policy,
            quantum,
        }
    }
}

/// A ready-to-serve Olympian deployment: profiles measured, quantum chosen,
/// policy fixed. Each [`run`](Self::run) constructs a fresh scheduler, so a
/// server can serve many independent workloads.
#[derive(Debug)]
pub struct OlympianServer {
    cfg: EngineConfig,
    store: Arc<ProfileStore>,
    policy: PolicyKind,
    quantum: SimDuration,
}

impl OlympianServer {
    /// The quantum the server operates at.
    pub fn quantum(&self) -> SimDuration {
        self.quantum
    }

    /// The profile store backing admission.
    pub fn profiles(&self) -> &Arc<ProfileStore> {
        &self.store
    }

    /// The configured policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Builds the scheduler this server would run with (multi-GPU aware).
    pub fn make_scheduler(&self) -> Box<dyn Scheduler> {
        if self.cfg.device_count() > 1 {
            let policy = self.policy;
            Box::new(MultiGpuScheduler::new(
                Arc::clone(&self.store),
                move || policy.instantiate(),
                self.quantum,
            ))
        } else {
            Box::new(OlympianScheduler::new(
                Arc::clone(&self.store),
                self.policy.instantiate(),
                self.quantum,
            ))
        }
    }

    /// Serves a workload to completion.
    pub fn run(&mut self, clients: Vec<ClientSpec>) -> RunReport {
        let mut scheduler = self.make_scheduler();
        run_experiment(&self.cfg, clients, scheduler.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_quantum_server_round_trips() {
        let model = models::mini::small(4);
        let mut server = ServerBuilder::new()
            .fixed_quantum(SimDuration::from_micros(250))
            .build_for_models(std::slice::from_ref(&model));
        assert_eq!(server.quantum(), SimDuration::from_micros(250));
        assert_eq!(server.policy(), PolicyKind::Fair);
        let report = server.run(vec![ClientSpec::new(model, 2); 3]);
        assert!(report.all_finished());
        assert!(report.switch_count > 0);
    }

    #[test]
    fn tolerance_quantum_is_measured() {
        let model = models::mini::small(4);
        let server = ServerBuilder::new()
            .overhead_tolerance(0.10)
            .build_for_models(&[model]);
        // A measured quantum from the grid range.
        let q = server.quantum();
        assert!(q >= SimDuration::from_micros(100) && q <= SimDuration::from_micros(10_000));
    }

    #[test]
    fn multi_gpu_server_uses_multi_scheduler() {
        let model = models::mini::small(4);
        let mut server = ServerBuilder::new()
            .engine(EngineConfig::default().with_device_count(2))
            .fixed_quantum(SimDuration::from_micros(200))
            .build_for_models(std::slice::from_ref(&model));
        let report = server.run(vec![ClientSpec::new(model, 2); 4]);
        assert!(report.all_finished());
        assert_eq!(report.device_utilizations.len(), 2);
        assert!(report.scheduler_name.contains("multi"));
    }

    #[test]
    fn server_reuses_across_runs() {
        let model = models::mini::tiny(2);
        let mut server = ServerBuilder::new()
            .fixed_quantum(SimDuration::from_micros(100))
            .policy(PolicyKind::WeightedFair)
            .build_for_models(std::slice::from_ref(&model));
        let a = server.run(vec![ClientSpec::new(model.clone(), 1); 2]);
        let b = server.run(vec![ClientSpec::new(model, 1); 2]);
        assert!(a.all_finished() && b.all_finished());
        assert_eq!(a.makespan, b.makespan, "fresh scheduler per run");
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_model_list_panics() {
        let _ = ServerBuilder::new().build_for_models(&[]);
    }
}
