//! The engine's model-residency layer: one lifecycle manager per device,
//! plus the fleet router and its reconfiguration plan in cluster mode.
//!
//! Lifecycle mode is a one-device fleet without a router, so every managed
//! run takes the same path: pick a device, route on its manager, report
//! the completion back to it. Every call fills a [`lifecycle::Effects`]
//! record whose events are typed [`TraceKind`]s; the engine records them
//! as they are and applies the wakes and ticks.

use crate::config::EngineConfig;
use crate::trace::TraceKind;
use dataflow::{Graph, Placement};
use gpusim::{DeviceProfile, MemoryPool};
use lifecycle::{Effects, LifecycleManager, Route, VersionKey};
use models::LoadedModel;
use simtime::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Where a managed run was issued: `(device, version, estimated execute
/// ns)`. The estimate is what the fleet router charged to the device's
/// queue until the run finishes (0 outside fleet mode).
pub(crate) type Issued = (u32, VersionKey, u64);

/// One command of a reconfiguration plan, in execution order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Move {
    /// Make `model` resident on `device` unless it already serves or loads
    /// there.
    Load { model: u32, device: u32 },
    /// Drain `model`'s serving replica on `from`; the plan places it on
    /// `to` (its first placement).
    Drain { model: u32, from: u32, to: u32 },
}

/// Live model-residency state for one run. Held in an `Option` so the
/// unmanaged hot path pays one predicted branch per hook.
pub(crate) struct ResidencyRuntime {
    /// One manager per device, indexed like `Engine::devices` — exactly one
    /// under `with_lifecycle`, one per fleet member under `with_cluster`.
    /// Every manager holds the same deployment plan, so version keys and
    /// deployment indices agree across devices; residency is per device.
    managers: Vec<LifecycleManager>,
    fleet: Option<FleetRouter>,
}

/// The fleet-only part of [`ResidencyRuntime`]: the router's per-device
/// drain estimates and the demand window the reconfiguration tick solves
/// over.
struct FleetRouter {
    policy: cluster::RouterPolicy,
    /// Reconfiguration cadence — the `ClusterTick` period.
    tick: SimDuration,
    cost: Option<Arc<dyn controlplane::CostOracle>>,
    /// Lifecycle-parked clients: `client -> (device, estimated ns)`. The
    /// estimate is charged to the device's queue while the client waits
    /// for a load, and returned when it is woken and re-routed.
    parked: HashMap<u32, (u32, u64)>,
    /// Estimated not-yet-finished execute time per device, in ns — the
    /// router's queue-drain term.
    outstanding_ns: Vec<u64>,
    /// Arrivals per model since the last reconfiguration tick.
    window_demand: Vec<u64>,
    /// Latest per-arrival execute estimate per model (ns at speed 1.0) —
    /// the flow problem's cost basis for models seen this window.
    exec_est: Vec<u64>,
    /// Device speed factors, cached from the profiles.
    speed: Vec<f64>,
}

impl ResidencyRuntime {
    /// The runtime `cfg` asks for — one manager per memory pool — or `None`
    /// when neither lifecycle nor cluster mode is on. `validate` makes the
    /// two modes exclusive and keeps lifecycle mode on one device.
    ///
    /// # Panics
    ///
    /// Panics if the deployment plan is invalid.
    pub(crate) fn new(
        cfg: &EngineConfig,
        profiles: &[DeviceProfile],
        memories: &[MemoryPool],
    ) -> Option<Self> {
        let (lc, fleet) = match (&cfg.lifecycle, &cfg.cluster) {
            (Some(lc), _) => (lc, None),
            (None, Some(cc)) => (&cc.lifecycle, Some(cc)),
            (None, None) => return None,
        };
        let managers: Vec<LifecycleManager> = memories
            .iter()
            .map(|m| {
                LifecycleManager::new(lc, m.capacity())
                    .unwrap_or_else(|e| panic!("invalid lifecycle config: {e}"))
            })
            .collect();
        let n_models = managers[0].model_count();
        Some(ResidencyRuntime {
            fleet: fleet.map(|cc| FleetRouter {
                policy: cc.policy,
                tick: cc.tick,
                cost: cc.cost.clone(),
                parked: HashMap::new(),
                outstanding_ns: vec![0; managers.len()],
                window_demand: vec![0; n_models],
                exec_est: vec![0; n_models],
                speed: profiles.iter().map(DeviceProfile::speed_factor).collect(),
            }),
            managers,
        })
    }

    /// Deployment index of `model`, if managed.
    pub(crate) fn deployment(&self, model: &str) -> Option<u32> {
        self.managers[0].model_index(model).map(|mi| mi as u32)
    }

    /// Served (deployment) names, by deployment index.
    pub(crate) fn model_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.managers[0].model_names()
    }

    /// Resident weight bytes summed over every device.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.managers.iter().map(LifecycleManager::resident_bytes).sum()
    }

    /// Number of managed devices.
    pub(crate) fn devices(&self) -> usize {
        self.managers.len()
    }

    /// The start-up effects: a tick at every publish instant. Publish
    /// schedules are identical on every manager, so one covers the fleet.
    pub(crate) fn startup(&self, fx: &mut Effects) {
        self.managers[0].startup(fx);
    }

    /// Advances device `d`'s time-driven transitions (publishes, load
    /// completions, warm-up runs).
    pub(crate) fn tick(&mut self, d: usize, now: SimTime, pool: &mut MemoryPool, fx: &mut Effects) {
        self.managers[d].tick(now, pool, fx);
    }

    /// The graph an issued version executes and the versioned name it
    /// registers under. Every manager holds the same plan, so manager 0
    /// resolves any key.
    pub(crate) fn version(&self, key: VersionKey) -> (&Arc<Graph>, &str) {
        let m = &self.managers[0];
        (m.version_model(key).graph(), m.versioned_name(key))
    }

    /// Routes one run of deployment `mi` for client `c`: picks a device
    /// (the router in fleet mode, the single device otherwise) and
    /// resolves the version on that device's manager — the cheapest
    /// serving version when `degraded`. Returns the route, the device and
    /// the run's execute estimate there. A `Wait` parks the client inside
    /// the manager; the caller then charges it with [`park`](Self::park).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route(
        &mut self,
        c: u32,
        mi: usize,
        model: &LoadedModel,
        degraded: bool,
        now: SimTime,
        memories: &mut [MemoryPool],
        fx: &mut Effects,
    ) -> (Route, u32, u64) {
        let (dev, est_ns) = match &mut self.fleet {
            Some(f) => f.pick(&mut self.managers, c, mi, model, fx),
            None => (0, 0),
        };
        let mgr = &mut self.managers[dev as usize];
        let pool = &mut memories[dev as usize];
        let route = if degraded {
            mgr.route_cheapest(mi, c, now, pool, fx)
        } else {
            mgr.route(mi, c, now, pool, fx)
        };
        (route, dev, est_ns)
    }

    /// Charges a parked client's estimate to `dev`'s queue until it is
    /// woken and re-routed.
    pub(crate) fn park(&mut self, c: u32, dev: u32, est_ns: u64) {
        if let Some(f) = &mut self.fleet {
            f.parked.insert(c, (dev, est_ns));
            f.outstanding_ns[dev as usize] += est_ns;
        }
    }

    /// Charges a registered run's estimate to the device it was issued on.
    pub(crate) fn charge(&mut self, (dev, _, est_ns): Issued) {
        if let Some(f) = &mut self.fleet {
            f.outstanding_ns[dev as usize] += est_ns;
        }
    }

    /// Reports a managed run's end (`latency == None` for cancelled or
    /// never-started runs) to the manager of the device it was issued on
    /// and returns its queue charge: canary decisions, drain completions
    /// and retried loads land in `fx`.
    pub(crate) fn run_finished(
        &mut self,
        (dev, key, charged_ns): Issued,
        latency: Option<SimDuration>,
        now: SimTime,
        memories: &mut [MemoryPool],
        fx: &mut Effects,
    ) {
        let d = dev as usize;
        if let Some(f) = &mut self.fleet {
            f.outstanding_ns[d] = f.outstanding_ns[d].saturating_sub(charged_ns);
        }
        self.managers[d].run_finished(key, now, latency, &mut memories[d], fx);
    }

    /// True when the fleet ledger holds no charge: nothing is parked and
    /// every device's outstanding estimate is back to zero. Holds once
    /// every session has ended, whichever way it ended.
    pub(crate) fn ledger_settled(&self) -> bool {
        self.fleet
            .as_ref()
            .is_none_or(|f| f.parked.is_empty() && f.outstanding_ns.iter().all(|&ns| ns == 0))
    }

    /// Closes the demand window: solves its model-demand →
    /// device-capacity min-cost flow and returns the tick period plus the
    /// plan — loads where flow lands on a cold device, drains where a
    /// resident replica receives no flow. `None` outside fleet mode.
    /// Device capacities are run units proportional to relative speed
    /// (ceiling division, so aggregate capacity covers demand).
    pub(crate) fn plan(&mut self) -> Option<(SimDuration, Vec<Move>)> {
        let f = self.fleet.as_mut()?;
        let n_models = f.window_demand.len();
        let n_devs = self.managers.len();
        let demands = std::mem::replace(&mut f.window_demand, vec![0; n_models]);
        let total: u64 = demands.iter().sum();
        if total == 0 {
            return Some((f.tick, Vec::new()));
        }
        let speed_ppm: Vec<u64> = f.speed.iter().map(|s| (s * 1e6) as u64).collect();
        let sum_ppm: u64 = speed_ppm.iter().sum();
        let capacities: Vec<u64> =
            speed_ppm.iter().map(|&p| (total * p).div_ceil(sum_ppm)).collect();
        // Per-unit cost in µs: the transfer a load would pay, plus the
        // profile-scaled execute estimate from this window's arrivals.
        let costs: Vec<Vec<u64>> = (0..n_models)
            .map(|mi| {
                (0..n_devs)
                    .map(|d| {
                        let m = &self.managers[d];
                        let warm = m.serving_version(mi).is_some() || m.is_loading(mi);
                        let transfer = if warm { 0 } else { transfer_ns(m, mi) };
                        (transfer + cluster::scaled_execute_ns(f.exec_est[mi], f.speed[d])) / 1_000
                    })
                    .collect()
            })
            .collect();
        let assignment = cluster::solve(&cluster::FlowProblem { demands, capacities, costs });
        let mut moves = Vec::new();
        for mi in 0..n_models {
            let placements = assignment.placements(mi);
            let Some(&to) = placements.first() else {
                continue;
            };
            let (model, to) = (mi as u32, to as u32);
            moves.extend(placements.iter().map(|&d| Move::Load { model, device: d as u32 }));
            moves.extend(
                (0..n_devs)
                    .filter(|d| !placements.contains(d))
                    .map(|from| Move::Drain { model, from: from as u32, to }),
            );
        }
        Some((f.tick, moves))
    }

    /// Executes one plan command through the device's manager, if it still
    /// applies; returns whether the manager accepted it.
    pub(crate) fn execute(
        &mut self,
        mv: Move,
        now: SimTime,
        memories: &mut [MemoryPool],
        fx: &mut Effects,
    ) -> bool {
        match mv {
            Move::Load { model, device } => {
                let (mi, d) = (model as usize, device as usize);
                let mgr = &mut self.managers[d];
                let warm = mgr.serving_version(mi).is_some() || mgr.is_loading(mi);
                !warm && mgr.request_load(mi, now, &mut memories[d], fx)
            }
            Move::Drain { model, from, .. } => {
                let (mi, d) = (model as usize, from as usize);
                let mgr = &mut self.managers[d];
                mgr.serving_version(mi).is_some()
                    && mgr.request_drain(mi, now, &mut memories[d], fx)
            }
        }
    }
}

impl FleetRouter {
    /// The device pick for one arriving run of deployment `mi`: estimates
    /// each device's cost (queued work + transfer-if-load-needed +
    /// profile-scaled execute) and picks the cheapest (lowest index on
    /// ties). Returns the device and the run's execute estimate there, and
    /// lands the route on `fx` ahead of the manager's own events.
    fn pick(
        &mut self,
        managers: &mut [LifecycleManager],
        c: u32,
        mi: usize,
        model: &LoadedModel,
        fx: &mut Effects,
    ) -> (u32, u64) {
        // Whole-run GPU estimate at speed 1.0: the oracle's figure when
        // bound, else the graph's summed kernel durations.
        let base_ns = self
            .cost
            .as_ref()
            .and_then(|o| o.expected_gpu_ns(model.name(), model.batch()))
            .unwrap_or_else(|| {
                let g = model.graph();
                g.node_ids()
                    .filter(|&id| g.node(id).placement() == Placement::Gpu)
                    .map(|id| g.node(id).duration().as_nanos())
                    .sum()
            });
        // A woken client re-routes from scratch: return its parked charge.
        let parked_dev = self.parked.remove(&c).map(|(pd, pest)| {
            let q = &mut self.outstanding_ns[pd as usize];
            *q = q.saturating_sub(pest);
            pd
        });
        if parked_dev.is_none() {
            // Demand is counted once per arrival, not per wake-up.
            self.window_demand[mi] += 1;
        }
        self.exec_est[mi] = base_ns;
        let (dev, est_ns, cost_ns) = match self.policy {
            cluster::RouterPolicy::Static => {
                let d = mi % managers.len();
                let est = cluster::scaled_execute_ns(base_ns, self.speed[d]);
                (d as u32, est, est)
            }
            cluster::RouterPolicy::CostAware => {
                let ests: Vec<cluster::DeviceEstimate> = managers
                    .iter()
                    .enumerate()
                    .map(|(d, m)| cluster::DeviceEstimate {
                        queued_ns: self.outstanding_ns[d],
                        resident: m.serving_version(mi).is_some(),
                        loading: m.is_loading(mi),
                        transfer_ns: transfer_ns(m, mi),
                        execute_ns: cluster::scaled_execute_ns(base_ns, self.speed[d]),
                    })
                    .collect();
                let d = cluster::pick_device(&ests);
                (d as u32, ests[d].execute_ns, ests[d].cost_ns())
            }
        };
        // A wake credit granted on a device the run no longer routes to
        // must be returned, or that version stays pinned forever.
        if let Some(pd) = parked_dev.filter(|&pd| pd != dev) {
            managers[pd as usize].cancel_wake_credit(mi);
        }
        fx.events.push(TraceKind::ClusterRoute {
            client: c,
            device: dev,
            cost_us: cost_ns / 1_000,
        });
        (dev, est_ns)
    }
}

/// The transfer a fresh load of deployment `mi`'s aspired version would
/// pay on `m`'s device, in ns.
fn transfer_ns(m: &LifecycleManager, mi: usize) -> u64 {
    MemoryPool::transfer_time(m.aspired_weights_bytes(mi), m.load_gbps()).as_nanos()
}
