//! Re-export of the control-plane crate: deadline-aware scheduling
//! support, the burn-rate degradation ladder and online recalibration
//! consumed via [`EngineConfig::with_control`].
//!
//! The engine's control runtime lives here too: the ladder's live state,
//! the admission and batch gates it imposes, the laxity estimate behind
//! early cancellation, and the reactions to telemetry alerts.
//!
//! [`EngineConfig::with_control`]: crate::EngineConfig::with_control

pub use ::controlplane::*;

use crate::trace::TraceKind;
use models::LoadedModel;
use simtime::{SimDuration, SimTime};
use telemetry::Alert;

/// Live control-plane state for one run: the static configuration plus the
/// degradation-ladder state machine. Held in an `Option` so the
/// uncontrolled hot path pays one predicted branch per hook.
pub(crate) struct ControlRuntime {
    cfg: ControlConfig,
    machine: DegradeMachine,
}

impl ControlRuntime {
    pub(crate) fn new(cfg: &ControlConfig) -> Self {
        ControlRuntime { cfg: cfg.clone(), machine: cfg.machine() }
    }

    /// In the ladder's Shedding state new sessions are refused outright —
    /// the cheapest load to serve is load never admitted.
    pub(crate) fn sheds_admissions(&self) -> bool {
        self.machine.state() == DegradeState::Shedding
    }

    /// Past Healthy, managed runs resolve to the cheapest serving version —
    /// trading answer fidelity for GPU time.
    pub(crate) fn degraded(&self) -> bool {
        self.machine.state() != DegradeState::Healthy
    }

    /// The batch hint a run of batch `full` is metered at. Past Healthy it
    /// shrinks: the resolved profile's smaller costs buy shorter quanta and
    /// earlier thresholds while the graph itself is unchanged.
    pub(crate) fn batch(&self, full: u64) -> u64 {
        if self.degraded() {
            (full / BATCH_DIVISOR).max(1)
        } else {
            full
        }
    }

    /// Steps the ladder's cool-down; returns the transition to record.
    pub(crate) fn tick(&mut self, now: SimTime) -> Option<TraceKind> {
        self.machine.on_tick(now).map(transition)
    }

    /// How far, in µs, a run of `model` due by `deadline` that has received
    /// `received` GPU time will overshoot: the bound profile's whole-run
    /// GPU duration minus what it already got. `None` when the run can
    /// still make it, or when no cost oracle is bound or the model is
    /// unprofiled.
    pub(crate) fn laxity_deficit_us(
        &self,
        now: SimTime,
        model: &LoadedModel,
        deadline: SimTime,
        received: SimDuration,
    ) -> Option<u64> {
        let total = self.cfg.cost.as_ref()?.expected_gpu_ns(model.name(), model.batch())?;
        let eta = now + SimDuration::from_nanos(total.saturating_sub(received.as_nanos()));
        (eta > deadline).then(|| (eta - deadline).as_nanos() / 1_000)
    }

    /// The reaction to a telemetry alert; returns the event to record. An
    /// SLO burn escalates the degradation ladder (the caller resets the
    /// burn latch so a *sustained* burn keeps escalating). A drift alert
    /// recalibrates the drifting client's model profile in place — no run
    /// is stopped; the next threshold computation simply sees the rescaled
    /// profile. `model` resolves a client index to its model.
    pub(crate) fn on_alert<'m>(
        &mut self,
        alert: &Alert,
        model: impl FnOnce(u32) -> &'m LoadedModel,
    ) -> Option<TraceKind> {
        match *alert {
            Alert::SloBurn { at, .. } => self.machine.on_burn(at).map(transition),
            Alert::Drift { client, observed_us, expected_us, .. } => {
                if expected_us <= 0.0 {
                    return None;
                }
                let cost = self.cfg.cost.as_ref()?;
                let scale_ppm =
                    clamp_rebind_ppm(((observed_us / expected_us) * 1e6).round() as u64);
                let m = model(client);
                cost.rebind_scaled(m.name(), m.batch(), scale_ppm)
                    .then_some(TraceKind::ProfileRebind { client, scale_ppm })
            }
            _ => None,
        }
    }
}

/// A degradation-ladder transition as an event on the stream.
fn transition(tr: Transition) -> TraceKind {
    TraceKind::ControlTransition { from: tr.from.as_str(), to: tr.to.as_str() }
}
