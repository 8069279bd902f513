//! `perfsuite` — the two in-process ratio gates the repo benchmark does
//! not enforce.
//!
//! * `queue_wheel`: the hierarchical timing wheel the engine runs on,
//!   against `BaselineEventQueue` (the binary-heap oracle it replaced), on
//!   the engine's monotone churn and on the open-loop *preloaded* pattern
//!   (thousands of arrivals scheduled up front), where the wheel must stay
//!   at least as fast as the heap;
//! * `shard`: a three-device run through the sharded entry point at
//!   `shards = 1` vs every core, asserting byte-identical reports and a
//!   wall-clock speedup above 1.0 whenever more than one core is available.
//!
//! ```text
//! perfsuite
//! ```
//!
//! Both sides of each ratio run in this process, so neither gate needs a
//! number recorded on another host. It takes no arguments, writes no file,
//! prints its measurements and exits non-zero when a gate fails. Engine
//! throughput and every optional layer's on-cost are measured by the repo
//! benchmark (`perfbench/`), which compares each change against its parent
//! on the same host.

use bench::harness;
use serving::{run_sharded_experiment, ClientSpec, EngineConfig, FifoScheduler, Scheduler};
use simtime::{BaselineEventQueue, DetRng, SimDuration, SimTime, TimingWheel};
use std::hint::black_box;
use std::process::ExitCode;

/// Events pushed through each queue per measured iteration.
const QUEUE_EVENTS: usize = 100_000;

/// Preloaded pattern: arrivals scheduled up front, [`PRELOAD_SPACING_NS`]
/// apart, each fanning out into [`PRELOAD_FAN_OUT`] near-future events when
/// it pops — the serving engine's open-loop shape.
const PRELOAD_ARRIVALS: u64 = 4_000;
const PRELOAD_SPACING_NS: u64 = 100_000;
const PRELOAD_FAN_OUT: usize = 30;

/// Pre-generated near-future offsets for the monotone churn workload: the
/// engine only ever schedules at `now + delta`, never in the past, with
/// deltas on the kernel/switch-latency scale (microseconds to a couple of
/// milliseconds — a few to a few hundred wheel ticks out, the level-0
/// horizon). That is the shape the timing wheel is built for; absolute
/// near-zero times would land everything in the wheel's current tick and
/// measure its same-tick insertion buffer instead of the engine-relevant
/// path.
fn wheel_workload() -> Vec<u64> {
    let mut rng = DetRng::new(0xF00D);
    (0..QUEUE_EVENTS).map(|_| rng.range_u64(0, 1 << 20)).collect()
}

/// Monotone churn: schedule `now + delta` in bursts of 4, pop 3 per burst
/// (advancing `now` to each popped time), then drain — the engine's access
/// pattern, on whichever queue `$new` builds.
macro_rules! monotone_churn {
    ($new:expr, $deltas:expr) => {{
        let mut q = $new;
        let mut now = SimTime::ZERO;
        let mut acc = 0u64;
        for (i, &d) in $deltas.iter().enumerate() {
            q.schedule(now + SimDuration::from_nanos(d), i as u64);
            if i % 4 == 3 {
                for _ in 0..3 {
                    let (t, v) = q.pop().expect("non-empty");
                    now = t;
                    acc = acc.wrapping_add(v);
                }
            }
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    }};
}

/// Preloaded arrivals: schedule every arrival up front (values below
/// `PRELOAD_ARRIVALS`), then drain; each popped arrival schedules
/// `PRELOAD_FAN_OUT` events at `now + delta`. The arrivals beyond 268 ms
/// share one level-2 wheel slot for most of the run.
macro_rules! preloaded_arrivals {
    ($new:expr, $deltas:expr) => {{
        let mut q = $new;
        for k in 0..PRELOAD_ARRIVALS {
            q.schedule(SimTime::from_nanos(k * PRELOAD_SPACING_NS), k);
        }
        let mut next = 0usize;
        let mut acc = 0u64;
        while let Some((now, v)) = q.pop() {
            acc = acc.wrapping_add(v);
            if v < PRELOAD_ARRIVALS {
                for _ in 0..PRELOAD_FAN_OUT {
                    let d = $deltas[next % $deltas.len()];
                    q.schedule(now + SimDuration::from_nanos(d), PRELOAD_ARRIVALS);
                    next += 1;
                }
            }
        }
        acc
    }};
}

/// The hierarchical timing wheel the engine runs on, against the seed
/// binary heap (`BaselineEventQueue`), on the monotone workload and on the preloaded-arrivals
/// pattern.
fn queue_wheel_section() {
    let deltas = wheel_workload();
    let wheel = harness::run("queue_wheel/timing-wheel", || {
        black_box(monotone_churn!(TimingWheel::<u64>::with_capacity(1024), deltas))
    });
    let heap = harness::run("queue_wheel/binary-heap", || {
        black_box(monotone_churn!(BaselineEventQueue::<u64>::new(), deltas))
    });
    let wheel_eps = wheel.per_second() * QUEUE_EVENTS as f64;
    let heap_eps = heap.per_second() * QUEUE_EVENTS as f64;
    let vs_heap = wheel_eps / heap_eps;
    println!(
        "  -> queue_wheel: wheel {wheel_eps:.0} events/s \
         ({vs_heap:.2}x seed heap {heap_eps:.0})"
    );
    let pre_wheel = harness::run("queue_wheel/preloaded/timing-wheel", || {
        black_box(preloaded_arrivals!(
            TimingWheel::<u64>::with_capacity(1024),
            deltas
        ))
    });
    let pre_heap = harness::run("queue_wheel/preloaded/binary-heap", || {
        black_box(preloaded_arrivals!(
            BaselineEventQueue::<u64>::new(),
            deltas
        ))
    });
    // Both sides run in this process, so the ratio needs no reference
    // recorded on another host.
    let pre_vs_heap = pre_wheel.per_second() / pre_heap.per_second();
    println!("  -> queue_wheel/preloaded: wheel {pre_vs_heap:.2}x seed heap");
    assert!(
        pre_vs_heap >= 1.0,
        "timing wheel ran at {pre_vs_heap:.2}x the seed heap on preloaded arrivals — \
         finding the earliest slot must not scan a crowded slot's list"
    );
}

/// The device-group sharding section: a three-device experiment run through
/// the sharded entry point with one worker thread and with every available
/// core, asserting the two reports are byte-identical (the shard-count
/// invariance contract) and printing the wall-clock speedup.
///
/// # Panics
///
/// Panics if the `shards = 1` and `shards = N` reports differ, or if more
/// than one core is available and the parallel run is not faster. On a
/// single-core machine the section degrades to a no-op comparison (both
/// runs use one thread and the speedup hovers around 1.0).
fn shard_section() {
    let base = EngineConfig::default();
    let groups = 3u64;
    // Millisecond hand-off latency — the large-model regime sharding
    // targets. The window length equals the hand-off latency, so this keeps
    // each group's per-window work large relative to the barrier cost.
    let mk_cfg = |shards: u32| EngineConfig {
        extra_devices: vec![base.device.clone(), base.device.clone()],
        shards,
        switch_latency: SimDuration::from_millis(1),
        ..base.clone()
    };
    let clients = || vec![ClientSpec::new(models::mini::small(4), 4); 12];
    let factory =
        |_g: usize| Box::new(FifoScheduler::new()) as Box<dyn Scheduler>;
    let cores = simpar::default_jobs() as u32;

    let cfg_1 = mk_cfg(1);
    let cfg_n = mk_cfg(cores);
    let probe_1 = run_sharded_experiment(&cfg_1, clients(), &factory);
    let probe_n = run_sharded_experiment(&cfg_n, clients(), &factory);
    assert_eq!(
        format!("{probe_1:?}"),
        format!("{probe_n:?}"),
        "sharded report diverged between shards=1 and shards={cores}"
    );

    let m_1 = harness::run("engine_sharded/shards=1", || {
        black_box(run_sharded_experiment(&cfg_1, clients(), &factory))
    });
    let eps_1 = m_1.per_second() * probe_1.event_count as f64;
    // On one core `shards = N` is the same single-threaded run; re-measuring
    // it would only record measurement noise as a bogus "speedup".
    let eps_n = if cores > 1 {
        let m_n = harness::run(&format!("engine_sharded/shards={cores}"), || {
            black_box(run_sharded_experiment(&cfg_n, clients(), &factory))
        });
        m_n.per_second() * probe_n.event_count as f64
    } else {
        eps_1
    };
    let speedup = eps_n / eps_1.max(1e-9);
    println!(
        "  -> shard: {groups} groups, shards=1 {eps_1:.0} events/s, \
         shards={cores} {eps_n:.0} events/s (speedup {speedup:.2}x), reports identical"
    );
    if cores > 1 {
        assert!(
            speedup > 1.0,
            "sharded run with {cores} worker threads was not faster than one \
             ({eps_n:.0} vs {eps_1:.0} events/s) despite {cores} cores"
        );
    }
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: perfsuite (takes no arguments)");
        return ExitCode::FAILURE;
    }
    queue_wheel_section();
    shard_section();
    ExitCode::SUCCESS
}
