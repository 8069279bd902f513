//! Fleet orchestration: placement, cost-aware routing, and two-cadence
//! reconfiguration for a simulated multi-device serving cluster.
//!
//! The single-pool engine becomes a fleet by instantiating N heterogeneous
//! [`gpusim::DeviceProfile`]s, each paired with its own
//! [`lifecycle`] manager and memory budget. Two control cadences operate on
//! top, mirroring the MCFP mixture-of-agents split:
//!
//! * **per-arrival routing (δt1)** — every run is stamped on arrival and
//!   sent to the device with the lowest estimated completion cost:
//!   estimated drain latency of already-queued work, plus the PCIe
//!   transfer price when the model is not resident there, plus the
//!   profile-scaled execute time ([`DeviceEstimate::cost_ns`]);
//! * **periodic reconfiguration (δt2)** — on every `ClusterTick` the
//!   observed per-model demand window is matched against per-device
//!   capacity by an exact integer min-cost flow ([`flow::solve`]), and the
//!   resulting placement is materialized as load/drain/migrate commands
//!   through the per-device lifecycle managers, which enforce the byte
//!   budgets.
//!
//! Everything is deterministic: costs are integer nanoseconds (the only
//! float is the IEEE-exact speed division in [`scaled_execute_ns`]), ties
//! break to the lowest device index, and no output depends on hash-map
//! iteration order.

#![deny(missing_docs)]

use std::sync::Arc;

use controlplane::CostOracle;
use gpusim::DeviceProfile;
use lifecycle::LifecycleConfig;
use simtime::SimDuration;

pub mod flow;

pub use flow::{solve, FlowAssignment, FlowProblem};

/// How the router picks a device for an arriving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Cheapest-completion routing: minimize queued + transfer + execute.
    CostAware,
    /// Static hash placement: model `m` always runs on device
    /// `m % devices` — the baseline the fleet experiment beats.
    Static,
}

/// Configuration for the simulated fleet, consumed via
/// `EngineConfig::with_cluster`.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Device profiles, one per fleet member; index is the device id.
    pub devices: Vec<DeviceProfile>,
    /// Versioned-model registry + load bandwidth shared by every
    /// per-device lifecycle manager.
    pub lifecycle: LifecycleConfig,
    /// Reconfiguration cadence (δt2) — the `ClusterTick` period.
    pub tick: SimDuration,
    /// Routing policy (δt1).
    pub policy: RouterPolicy,
    /// Whether the min-cost-flow reconfiguration loop runs at all; off
    /// leaves the startup placement frozen (used for baselines).
    pub reconfigure: bool,
    /// Optional oracle refining the router's execute-time estimate with
    /// calibrated per-(model, batch) predictions.
    pub cost: Option<Arc<dyn CostOracle>>,
}

impl ClusterConfig {
    /// A fleet over `devices` serving the models in `lifecycle`, with
    /// cost-aware routing, reconfiguration on, and a 50 ms tick.
    pub fn new(devices: Vec<DeviceProfile>, lifecycle: LifecycleConfig) -> Self {
        ClusterConfig {
            devices,
            lifecycle,
            tick: SimDuration::from_millis(50),
            policy: RouterPolicy::CostAware,
            reconfigure: true,
            cost: None,
        }
    }

    /// Sets the reconfiguration cadence.
    pub fn with_tick(mut self, tick: SimDuration) -> Self {
        self.tick = tick;
        self
    }

    /// Sets the routing policy.
    pub fn with_policy(mut self, policy: RouterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables the reconfiguration loop.
    pub fn with_reconfigure(mut self, on: bool) -> Self {
        self.reconfigure = on;
        self
    }

    /// Installs a cost oracle for execute-time estimates.
    pub fn with_cost(mut self, oracle: Arc<dyn CostOracle>) -> Self {
        self.cost = Some(oracle);
        self
    }

    /// Checks the configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty device list, a zero tick, or an invalid
    /// lifecycle configuration.
    pub fn validate(&self) {
        assert!(!self.devices.is_empty(), "cluster needs at least one device");
        assert!(self.tick > SimDuration::ZERO, "cluster tick must be positive");
        self.lifecycle.validate();
    }
}

/// The router's per-device view of what sending a run there would cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceEstimate {
    /// Estimated GPU nanoseconds of work already routed to the device and
    /// not yet completed — the drain latency a new arrival queues behind.
    pub queued_ns: u64,
    /// Whether the target model is serving (resident + warm) there.
    pub resident: bool,
    /// Whether a load of the target model is already in flight there (the
    /// arrival will wait, but pays no *new* transfer).
    pub loading: bool,
    /// PCIe transfer nanoseconds if a fresh load would be needed.
    pub transfer_ns: u64,
    /// Profile-scaled execute nanoseconds for this run on this device.
    pub execute_ns: u64,
}

impl DeviceEstimate {
    /// Total estimated completion cost: drain what is queued, pay the
    /// transfer only when nothing resident or in flight covers the model,
    /// then execute.
    pub fn cost_ns(&self) -> u64 {
        let transfer = if self.resident || self.loading { 0 } else { self.transfer_ns };
        self.queued_ns
            .saturating_add(transfer)
            .saturating_add(self.execute_ns)
    }
}

/// Picks the cheapest device: strictly-lower cost wins, ties keep the
/// lowest index, so the choice is independent of evaluation order.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn pick_device(estimates: &[DeviceEstimate]) -> usize {
    assert!(!estimates.is_empty(), "no devices to route to");
    let mut best = 0usize;
    let mut best_cost = estimates[0].cost_ns();
    for (i, e) in estimates.iter().enumerate().skip(1) {
        let c = e.cost_ns();
        if c < best_cost {
            best = i;
            best_cost = c;
        }
    }
    best
}

/// Scales a base-profile execute time onto a device: `base_ns /
/// speed_factor`, rounded down. A single IEEE f64 division and truncation
/// — bit-identical on every platform and run.
pub fn scaled_execute_ns(base_ns: u64, speed_factor: f64) -> u64 {
    debug_assert!(speed_factor > 0.0, "speed factor must be positive");
    (base_ns as f64 / speed_factor) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifecycle::DeploymentPlan;

    fn empty_lifecycle() -> LifecycleConfig {
        LifecycleConfig::new(DeploymentPlan::new())
    }

    fn est(queued: u64, resident: bool, transfer: u64, execute: u64) -> DeviceEstimate {
        DeviceEstimate {
            queued_ns: queued,
            resident,
            loading: false,
            transfer_ns: transfer,
            execute_ns: execute,
        }
    }

    #[test]
    fn cost_charges_transfer_only_when_not_resident() {
        let cold = est(100, false, 1_000, 50);
        let warm = est(100, true, 1_000, 50);
        assert_eq!(cold.cost_ns(), 1_150);
        assert_eq!(warm.cost_ns(), 150);
        let loading = DeviceEstimate { loading: true, ..cold };
        assert_eq!(loading.cost_ns(), 150, "an in-flight load already paid the transfer");
    }

    #[test]
    fn pick_device_prefers_cheapest_then_lowest_index() {
        let costs = [est(300, true, 0, 10), est(100, true, 0, 10), est(100, true, 0, 10)];
        assert_eq!(pick_device(&costs), 1, "tie between 1 and 2 keeps the lower index");
        let all_equal = [est(5, true, 0, 0), est(5, true, 0, 0)];
        assert_eq!(pick_device(&all_equal), 0);
    }

    #[test]
    fn resident_replica_beats_cold_faster_device() {
        // Warm slow device vs cold fast device: the transfer dwarfs the
        // execute delta, so the router stays on the resident replica.
        let warm_slow = est(0, true, 5_600_000, 1_000_000);
        let cold_fast = DeviceEstimate {
            execute_ns: scaled_execute_ns(1_000_000, 1.22),
            ..est(0, false, 5_600_000, 0)
        };
        let picked = pick_device(&[warm_slow, cold_fast]);
        assert_eq!(picked, 0);
    }

    #[test]
    fn scaled_execute_is_exact_division() {
        assert_eq!(scaled_execute_ns(1_220_000, 1.22), 1_000_000);
        assert_eq!(scaled_execute_ns(1_000_000, 1.0), 1_000_000);
        // Same inputs, same bits: rerun stability of the lone float op.
        assert_eq!(scaled_execute_ns(999_999, 1.22), scaled_execute_ns(999_999, 1.22));
    }

    #[test]
    fn config_builders_compose() {
        let cfg = ClusterConfig::new(
            vec![DeviceProfile::gtx_1080_ti(), DeviceProfile::titan_x()],
            empty_lifecycle(),
        )
        .with_tick(SimDuration::from_millis(10))
        .with_policy(RouterPolicy::Static)
        .with_reconfigure(false);
        assert_eq!(cfg.devices.len(), 2);
        assert_eq!(cfg.tick, SimDuration::from_millis(10));
        assert_eq!(cfg.policy, RouterPolicy::Static);
        assert!(!cfg.reconfigure);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_is_rejected() {
        ClusterConfig::new(Vec::new(), empty_lifecycle()).validate();
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_is_rejected() {
        ClusterConfig::new(vec![DeviceProfile::gtx_1080_ti()], empty_lifecycle())
            .with_tick(SimDuration::ZERO)
            .validate();
    }
}
