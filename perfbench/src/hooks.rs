//! A timing wrapper around any [`Scheduler`] for the traced run.

use dataflow::NodeId;
use serving::{JobCtx, JobId, RegisterError, Scheduler, SchedulerProbe, Verdict};
use simtime::SimTime;
use std::cell::Cell;
use std::time::Instant;

/// The timed hooks, in metric order.
pub const HOOKS: [&str; 6] = [
    "register",
    "deregister",
    "may_run",
    "on_gpu_node_done",
    "next_timer",
    "on_timer",
];

/// Calls and host nanoseconds per hook, indexed like [`HOOKS`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    /// Calls per hook.
    pub calls: [u64; 6],
    /// Host nanoseconds spent inside each hook.
    pub ns: [u64; 6],
}

/// Forwards every [`Scheduler`] method to `inner`, defaults included, and
/// counts and times the six engine hooks. It only observes, so a run under
/// it must produce the same report as a run without it.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    // `may_run` and `next_timer` take `&self`.
    calls: [Cell<u64>; 6],
    ns: [Cell<u64>; 6],
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> TimedScheduler {
        TimedScheduler {
            inner,
            calls: Default::default(),
            ns: Default::default(),
        }
    }

    /// What the hooks cost so far.
    pub fn stats(&self) -> HookStats {
        HookStats {
            calls: self.calls.each_ref().map(Cell::get),
            ns: self.ns.each_ref().map(Cell::get),
        }
    }

    fn note(&self, hook: usize, start: Instant) {
        self.calls[hook].set(self.calls[hook].get() + 1);
        self.ns[hook].set(self.ns[hook].get() + start.elapsed().as_nanos() as u64);
    }
}

impl Scheduler for TimedScheduler {
    fn register(&mut self, job: JobId, ctx: &JobCtx<'_>) -> Result<Verdict, RegisterError> {
        let t = Instant::now();
        let r = self.inner.register(job, ctx);
        self.note(0, t);
        r
    }

    fn deregister(&mut self, job: JobId, now: SimTime) -> Verdict {
        let t = Instant::now();
        let r = self.inner.deregister(job, now);
        self.note(1, t);
        r
    }

    fn may_run(&self, job: JobId) -> bool {
        let t = Instant::now();
        let r = self.inner.may_run(job);
        self.note(2, t);
        r
    }

    fn on_gpu_node_done(&mut self, job: JobId, node: NodeId, now: SimTime) -> Verdict {
        let t = Instant::now();
        let r = self.inner.on_gpu_node_done(job, node, now);
        self.note(3, t);
        r
    }

    fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        let t = Instant::now();
        let r = self.inner.next_timer(now);
        self.note(4, t);
        r
    }

    fn on_timer(&mut self, now: SimTime) -> Verdict {
        let t = Instant::now();
        let r = self.inner.on_timer(now);
        self.note(5, t);
        r
    }

    fn cost_state(&self, job: JobId) -> Option<(u64, u64)> {
        self.inner.cost_state(job)
    }

    fn telemetry_probe(&self) -> SchedulerProbe {
        self.inner.telemetry_probe()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
