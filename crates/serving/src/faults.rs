//! Re-export of the fault-injection crate: plans, retry policies and
//! circuit breakers consumed via [`EngineConfig::with_faults`].
//!
//! The engine's fault-recovery runtime lives here too: it draws the seeded
//! injector's verdicts and drives the retry and breaker state machines
//! around them, handing the engine the typed events to record and the
//! retry instant (or the outcome that ends the session).
//!
//! [`EngineConfig::with_faults`]: crate::EngineConfig::with_faults

pub use ::faults::*;

use crate::report::ClientOutcome;
use crate::trace::{ShedCause, TraceKind};
use dataflow::NodeId;
use simtime::{DetRng, SimTime};
use std::collections::HashMap;

/// A failed operation's recovery: the events to record, in order, then
/// the instant to retry at — or the outcome that ends the session.
pub(crate) struct Failure {
    pub(crate) events: Vec<TraceKind>,
    pub(crate) next: Result<SimTime, ClientOutcome>,
}

/// Live fault-injection state for one run: the seeded injector plus the
/// recovery state machines the engine drives around it. Held in an
/// `Option` so the fault-free hot path pays one predicted branch per hook.
pub(crate) struct FaultRuntime {
    injector: FaultInjector,
    retry: RetryPolicy,
    /// One breaker per client, indexed by `ClientId.0`.
    breakers: Vec<CircuitBreaker>,
    /// Failed submission attempts per (job id, node index); entries are
    /// created on the first fault and cleared on success or job death.
    attempts: HashMap<(u64, u32), u32>,
    /// Consecutive failed admission attempts per client.
    admit_attempts: Vec<u32>,
    /// Backoff jitter stream, forked off the fault stream so jitter draws
    /// never perturb fault verdicts.
    retry_rng: DetRng,
    /// Per device: a post-stall pump event is already scheduled.
    stall_pump: Vec<bool>,
}

impl FaultRuntime {
    pub(crate) fn new(cfg: &FaultConfig, seed: u64, clients: usize, devices: usize) -> Self {
        let mut injector = cfg.injector(seed);
        let retry_rng = injector.retry_rng();
        FaultRuntime {
            injector,
            retry: RetryPolicy::default(),
            breakers: vec![CircuitBreaker::new(BreakerConfig::default()); clients],
            attempts: HashMap::new(),
            admit_attempts: vec![0; clients],
            retry_rng,
            stall_pump: vec![false; devices],
        }
    }

    /// Draws the transient reservation-failure verdict for client `c`'s
    /// admission attempt. `None` lets the admission touch the memory pool;
    /// a failure retries after a deterministic backoff, or sheds the
    /// client once the retry budget is spent.
    pub(crate) fn admit(&mut self, c: u32, now: SimTime) -> Option<Failure> {
        if !self.injector.alloc_fails(now) {
            self.admit_attempts[c as usize] = 0;
            return None;
        }
        let attempt = {
            let a = &mut self.admit_attempts[c as usize];
            *a += 1;
            *a
        };
        let mut events = vec![TraceKind::AllocFault { client: c, attempt }];
        let next = match self.retry.next_retry_at(now, attempt - 1, None, &mut self.retry_rng) {
            Some(at) => {
                // `job == u64::MAX` / `node == u32::MAX` mark an admission
                // retry on the trace (there is no job yet).
                events.push(TraceKind::RetryScheduled {
                    job: u64::MAX,
                    client: c,
                    node: u32::MAX,
                    attempt,
                    delay: at - now,
                });
                Ok(at)
            }
            None => {
                events.push(shed(c, ShedCause::RetriesExhausted(attempt)));
                Err(ClientOutcome::RetriesExhausted { at: now, attempts: attempt })
            }
        };
        Some(Failure { events, next })
    }

    /// Draws the kernel-fault verdict for `job`'s launch of `node` on
    /// `device`. A clean launch closes a half-open breaker (the probe
    /// succeeded) and resets the failure streak; `Ok` carries the breaker
    /// transition to record, if any. A fault counts the attempt and drives
    /// client `c`'s circuit breaker, then retries after a backoff (never
    /// past `deadline`) or sheds the session.
    pub(crate) fn launch(
        &mut self,
        job: u64,
        c: u32,
        node: NodeId,
        device: u32,
        now: SimTime,
        deadline: Option<SimTime>,
    ) -> Result<Option<TraceKind>, Failure> {
        let node_ix = node.index() as u32;
        let b = &mut self.breakers[c as usize];
        if !self.injector.kernel_fails(now) {
            let reopened = b.state() != BreakerState::Closed;
            b.record_success();
            if !self.attempts.is_empty() {
                self.attempts.remove(&(job, node_ix));
            }
            return Ok(reopened.then_some(TraceKind::BreakerTransition {
                client: c,
                state: "closed",
                shed: None,
            }));
        }
        let attempt = {
            let a = self.attempts.entry((job, node_ix)).or_insert(0);
            *a += 1;
            *a
        };
        let breaker_event = b.record_failure(now);
        let trips = b.trips();
        let mut probe_scheduled = false;
        let retry_at = match breaker_event {
            BreakerEvent::Shed => None,
            _ => self.retry.next_retry_at(now, attempt - 1, deadline, &mut self.retry_rng).map(
                |at| {
                    // An open breaker defers the retry to its cooldown
                    // edge; consulting it makes the retry the probe.
                    probe_scheduled = b.state() == BreakerState::Open;
                    at.max(b.earliest_attempt(now))
                },
            ),
        };
        let mut events =
            vec![TraceKind::KernelFault { job, client: c, device, node: node_ix, attempt }];
        if let BreakerEvent::Opened { .. } = breaker_event {
            events.push(TraceKind::BreakerTransition { client: c, state: "open", shed: None });
        }
        if probe_scheduled {
            events.push(TraceKind::BreakerTransition { client: c, state: "half-open", shed: None });
        }
        let next = match retry_at {
            Some(at) => {
                events.push(TraceKind::RetryScheduled {
                    job,
                    client: c,
                    node: node_ix,
                    attempt,
                    delay: at - now,
                });
                Ok(at)
            }
            None if breaker_event == BreakerEvent::Shed => {
                events.push(shed(c, ShedCause::CircuitOpen(trips)));
                Err(ClientOutcome::CircuitOpen { at: now, trips })
            }
            None => {
                events.push(shed(c, ShedCause::RetriesExhausted(attempt)));
                Err(ClientOutcome::RetriesExhausted { at: now, attempts: attempt })
            }
        };
        Err(Failure { events, next })
    }

    /// Drops the attempt count of a job that died (deadline or shed) while
    /// its kernel retry was pending.
    pub(crate) fn forget(&mut self, job: u64, node: NodeId) {
        self.attempts.remove(&(job, node.index() as u32));
    }

    /// The stall window `device` is inside at `now`, if any, and whether
    /// this is its first sighting — the caller then records the stall and
    /// schedules the one post-stall pump per (device, window).
    pub(crate) fn stall(&mut self, device: usize, now: SimTime) -> Option<(SimTime, bool)> {
        let until = self.injector.stall_until(now)?;
        Some((until, !std::mem::replace(&mut self.stall_pump[device], true)))
    }

    /// The post-stall pump for `device` ran.
    pub(crate) fn stall_ended(&mut self, device: usize) {
        self.stall_pump[device] = false;
    }

    /// The slowdown factor for a kernel enqueued at `now` (the window is
    /// sampled at submission).
    pub(crate) fn slowdown(&self, now: SimTime) -> f64 {
        self.injector.slowdown_factor(now)
    }
}

/// The breaker transition that ends a persistently failing session.
fn shed(client: u32, cause: ShedCause) -> TraceKind {
    TraceKind::BreakerTransition { client, state: "shed", shed: Some(cause) }
}
