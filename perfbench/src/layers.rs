//! The traced run: host time of each call into a layer, the layer's
//! counts from the report and its telemetry, and the in-process on-cost
//! of each optional layer.

use crate::hooks::HOOKS;
use crate::inputs::{self, Inputs, Sched, Workload, OPEN_ARRIVALS};
use crate::iteration::{iterate, postprocess, Post};
use crate::measure::{self, describe, digest, median, timed};
use crate::{Args, Outcome};
use serving::{ClientOutcome, ClientSpec, EngineConfig, RunReport, TelemetryConfig, TraceConfig};
use std::time::Instant;

/// Share of the budget spent on interleaved untraced/traced iterations.
const ITERATION_SHARE: f64 = 0.4;
/// Share of the budget spent on the on-cost A/B probes, split evenly.
const ON_COST_SHARE: f64 = 0.4;
/// Share of the budget spent on the scaling or shard probe.
const PROBE_SHARE: f64 = 0.2;
/// Every probe runs at least this many rounds, whatever the budget.
const MIN_ROUNDS: usize = 3;

/// Runs `round` until `MIN_ROUNDS` rounds ran and `budget_s` is spent.
fn rounds(budget_s: f64, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < MIN_ROUNDS || start.elapsed().as_secs_f64() < budget_s {
        round(i);
        i += 1;
    }
}

/// Host ns per simulated event with a layer on over the same with it off,
/// minus one, per interleaved round (the side that runs first alternates).
fn on_cost(
    inputs: &Inputs,
    off: &EngineConfig,
    on: &EngineConfig,
    sched: Sched,
    budget_s: f64,
) -> Vec<f64> {
    let mut ratios = Vec::new();
    rounds(budget_s, |i| {
        let mut per_event = [0.0; 2];
        for k in 0..2 {
            let side = (k + i) % 2;
            let cfg = if side == 0 { off } else { on };
            let (cfg, mut s) = inputs.instance(cfg, sched);
            let clients = inputs.clients.clone();
            let (r, t) = timed(|| serving::run_experiment(&cfg, clients, s.as_mut()));
            per_event[side] = t / r.event_count as f64;
        }
        ratios.push(per_event[1] / per_event[0] - 1.0);
    });
    ratios
}

/// The on-cost table of the layers `workload` exercises, by metric name.
fn on_cost_table(inputs: &Inputs, budget_s: f64) -> Vec<(&'static str, Vec<f64>)> {
    let managed = &inputs.cells[inputs.managed];
    match inputs.workload {
        Workload::Closed => Vec::new(),
        Workload::Incident => {
            let full = &managed.cfg;
            let mut bare = full
                .with_trace(TraceConfig::off())
                .with_telemetry(TelemetryConfig::off());
            bare.faults = None;
            bare.control = None;
            let mut faults = bare.clone();
            faults.faults = full.faults.clone();
            let mut control = bare.clone();
            control.control = full.control.clone();
            let layers = [
                (
                    "trace.sampled_on_cost",
                    bare.with_trace(TraceConfig::sampled()),
                ),
                ("trace.full_on_cost", bare.with_trace(TraceConfig::full())),
                (
                    "telemetry.on_cost",
                    bare.with_telemetry(full.telemetry.clone()),
                ),
                ("faults.on_cost", faults),
                ("controlplane.on_cost", control),
            ];
            let share = budget_s / layers.len() as f64;
            layers
                .iter()
                .map(|(name, on)| (*name, on_cost(inputs, &bare, on, managed.sched, share)))
                .collect()
        }
        Workload::Open => {
            let zoo = inputs::open_catalog();
            let fleet = managed.cfg.cluster.clone().expect("open runs a fleet");
            let mut bare = EngineConfig {
                seed: managed.cfg.seed,
                ..EngineConfig::default()
            };
            bare.device = fleet.devices[0].clone();
            bare.extra_devices = fleet.devices[1..].to_vec();
            let clustered = bare.with_cluster(fleet);
            let single = EngineConfig {
                seed: managed.cfg.seed,
                ..EngineConfig::default()
            };
            let managed_single = single.with_lifecycle(inputs::open_lifecycle(&zoo));
            let share = budget_s / 2.0;
            vec![
                (
                    "cluster.on_cost",
                    on_cost(inputs, &bare, &clustered, Sched::Fifo, share),
                ),
                (
                    "lifecycle.on_cost",
                    on_cost(inputs, &single, &managed_single, Sched::Fifo, share),
                ),
            ]
        }
    }
}

/// `serving.arrival_scaling_exp`: the least-squares slope of ln(host run
/// time) against ln(arrivals) at N/4, N/2 and N on the open inputs.
fn arrival_scaling(inputs: &Inputs, budget_s: f64, out: &mut Outcome) -> f64 {
    let zoo = inputs::open_catalog();
    let sizes = [OPEN_ARRIVALS / 4, OPEN_ARRIVALS / 2, OPEN_ARRIVALS];
    let clients: Vec<Vec<ClientSpec>> = sizes
        .iter()
        .map(|&n| inputs::open_clients(&zoo, n))
        .collect();
    let cfg = &inputs.cells[inputs.managed].cfg;
    let mut times = vec![Vec::new(); sizes.len()];
    rounds(budget_s, |i| {
        for k in 0..sizes.len() {
            let j = (k + i) % sizes.len();
            let (cfg, mut s) = inputs.instance(cfg, Sched::Fifo);
            let (_, t) = timed(|| serving::run_experiment(&cfg, clients[j].clone(), s.as_mut()));
            times[j].push(t);
        }
    });
    let pts: Vec<(f64, f64)> = sizes
        .iter()
        .zip(&times)
        .map(|(&n, t)| ((n as f64).ln(), median(t).ln()))
        .collect();
    for (n, t) in sizes.iter().zip(&times) {
        out.lines
            .push(format!("  arrivals {n:>6}: run_s {}", describe(t)));
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / pts.len() as f64;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
    let sxy: f64 = pts.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| (x - mx).powi(2)).sum();
    sxy / sxx
}

/// `shard.speedup` and `shard.identical`: a three-device replica of the
/// closed inputs (one batch per client), one Olympian scheduler per device,
/// run with `shards` = 1 and `shards` = the worker count.
fn shard_probe(inputs: &Inputs, workers: usize, budget_s: f64, out: &mut Outcome) -> (f64, bool) {
    let one = bench::complex_workload(1);
    let clients: Vec<ClientSpec> = (0..3).flat_map(|_| one.iter().cloned()).collect();
    let base = inputs.cells[inputs.managed].cfg.with_device_count(3);
    let workers = workers as u32;
    let cfgs = [
        EngineConfig {
            shards: 1,
            ..base.clone()
        },
        EngineConfig {
            shards: workers,
            ..base
        },
    ];
    let make = |_: usize| inputs.instance(&cfgs[0], Sched::Olympian).1;
    let mut times = [Vec::new(), Vec::new()];
    let mut digests = Vec::new();
    rounds(budget_s, |i| {
        for k in 0..2 {
            let side = (k + i) % 2;
            let (r, t) =
                timed(|| serving::run_sharded_experiment(&cfgs[side], clients.clone(), &make));
            times[side].push(t);
            digests.push(digest(&r));
        }
    });
    out.lines
        .push(format!("  shards=1: {}", describe(&times[0])));
    out.lines
        .push(format!("  shards={workers}: {}", describe(&times[1])));
    let identical = digests.windows(2).all(|w| w[0] == w[1]);
    (median(&times[0]) / median(&times[1]), identical)
}

/// Host ns of one `Instant::now` plus `elapsed` pair, the hook timer's
/// own cost per call.
fn span_ns() -> f64 {
    const SPANS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..SPANS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(SPANS)
}

/// Per-layer counts taken from the managed report's telemetry counters.
const COUNTERS: [(&str, &[&str]); 10] = [
    ("cluster.routes", &["cluster_routes"]),
    ("cluster.migrations", &["cluster_migrations"]),
    ("cluster.reconfigs", &["cluster_reconfigs"]),
    ("lifecycle.loads", &["versions_loaded"]),
    ("lifecycle.evictions", &["versions_evicted"]),
    ("faults.injected", &["faults_kernel", "faults_alloc"]),
    ("faults.retries", &["kernel_retries"]),
    ("controlplane.transitions", &["control_transitions"]),
    ("controlplane.cancels", &["control_laxity_cancels"]),
    ("controlplane.shed", &["clients_admission_shed"]),
];

/// Every on-cost metric; [`on_cost_table`] fills the ones a workload
/// exercises.
const ON_COSTS: [&str; 7] = [
    "cluster.on_cost",
    "lifecycle.on_cost",
    "faults.on_cost",
    "controlplane.on_cost",
    "trace.sampled_on_cost",
    "trace.full_on_cost",
    "telemetry.on_cost",
];

fn counter(r: &RunReport, name: &str) -> f64 {
    r.telemetry.counter(name).unwrap_or(0) as f64
}

/// The traced run.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let budget = args.seconds.as_secs_f64();
    let w = args.workload;
    let (inputs, setup_s) = timed(|| Inputs::build(w, args.seed));
    let stages = inputs.stages;
    out.lines.push(format!("set-up {setup_s:.4} s: {stages:?}"));

    // Untraced and traced iterations, interleaved; both must produce the
    // same reports.
    let (mut untraced_wall, mut traced_wall, mut run_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut hook_ns: [Vec<f64>; 6] = Default::default();
    let mut hook_calls = [0u64; 6];
    let mut posts: Vec<Post> = Vec::new();
    let mut events = 0;
    let mut first: Option<(Vec<u64>, RunReport)> = None;
    rounds(budget * ITERATION_SHARE, |i| {
        for k in 0..2 {
            let traced = (k + i) % 2 == 1;
            let mut it = iterate(&inputs, traced);
            let digests: Vec<u64> = it.reports.iter().map(digest).collect();
            for r in &it.reports {
                out.sessions(r);
            }
            if traced {
                traced_wall.push(it.wall_s);
                run_s.push(it.run_s);
                let h = it.hooks.expect("traced iteration times hooks");
                for (v, ns) in hook_ns.iter_mut().zip(h.ns) {
                    v.push(ns as f64);
                }
                hook_calls = h.calls;
                posts.extend(it.post);
            } else {
                untraced_wall.push(it.wall_s);
            }
            events = it.events;
            match &first {
                None => first = Some((digests, it.reports.swap_remove(inputs.managed))),
                Some((d, _)) => out.check(
                    *d == digests,
                    format!(
                        "report digest differs ({} iteration)",
                        if traced { "traced" } else { "untraced" }
                    ),
                ),
            }
        }
    });
    let (digests, report) = first.expect("at least one iteration ran");
    out.lines.push(format!(
        "report digests (traced and untraced): {digests:016x?}"
    ));
    out.lines
        .push(format!("host ns per empty timed span: {:.1}", span_ns()));
    if posts.is_empty() {
        posts.push(postprocess(&report, inputs.horizon()));
    }

    let costs = on_cost_table(&inputs, budget * ON_COST_SHARE);
    let mut probe_lines = Outcome::default();
    let scaling = (w == Workload::Open)
        .then(|| arrival_scaling(&inputs, budget * PROBE_SHARE, &mut probe_lines));
    let shard = (w == Workload::Closed).then(|| {
        shard_probe(
            &inputs,
            args.workers,
            budget * PROBE_SHARE,
            &mut probe_lines,
        )
    });
    if let Some((_, identical)) = shard {
        out.check(identical, "sharded reports differ across shard counts");
    }
    let table2 = measure::table2_err_pct(args.workers);
    out.check(
        table2 <= measure::TABLE2_MAX_ERR_PCT,
        format!("Table 2 runtime error {table2:.2}%"),
    );

    let na = "n/a on this workload; reported as 0";
    out.metric("models.load_s", stages.load_s, "s", "one set-up");
    out.metric(
        "models.table2_err_pct",
        table2,
        "%",
        "mean |error| vs paper Table 2",
    );
    let profiled = if inputs.olympian.is_some() {
        "one set-up"
    } else {
        na
    };
    out.metric("olympian.profile_s", stages.profile_s, "s", profiled);
    out.metric("olympian.q_choice_s", stages.q_choice_s, "s", profiled);
    let cell = inputs.cells[inputs.managed].label;
    for (h, name) in HOOKS.iter().enumerate() {
        out.metric(
            &format!("olympian.hook_calls.{name}"),
            hook_calls[h] as f64,
            "count",
            format!("{cell} cell"),
        );
    }
    for (h, name) in HOOKS.iter().enumerate() {
        out.metric(
            &format!("olympian.hook_ns.{name}"),
            median(&hook_ns[h]),
            "ns",
            describe(&hook_ns[h]),
        );
    }
    out.metric(
        "olympian.switches",
        report.switch_count as f64,
        "count",
        format!("{cell} cell"),
    );
    let q_us = inputs.olympian.as_ref().map(|(_, q)| q.as_micros_f64());
    let errs: Vec<f64> = report
        .clients
        .iter()
        .filter_map(|c| Some((c.mean_quantum_us()? / q_us? - 1.0).abs() * 100.0))
        .collect();
    let quantum_err = if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    out.metric(
        "olympian.quantum_err_pct",
        quantum_err,
        "%",
        format!("mean over {} clients", errs.len()),
    );

    let rs = median(&run_s);
    out.metric("serving.run_s", rs, "s", describe(&run_s));
    out.metric(
        "serving.events",
        events as f64,
        "count",
        "all cells of one iteration",
    );
    out.metric(
        "serving.ns_per_event",
        rs * 1e9 / events as f64,
        "ns/event",
        "traced iterations",
    );
    for l in probe_lines.lines.drain(..) {
        out.lines.push(l);
    }
    out.metric(
        "serving.arrival_scaling_exp",
        scaling.unwrap_or(0.0),
        "exponent",
        if scaling.is_some() {
            "slope of ln run_s on ln arrivals"
        } else {
            na
        },
    );

    out.metric(
        "gpusim.kernels",
        report.kernel_count as f64,
        "count",
        format!("{cell} cell"),
    );
    for d in 0..3 {
        let u = report.device_utilizations.get(d).copied().unwrap_or(0.0);
        out.metric(
            &format!("gpusim.util.{d}"),
            u,
            "fraction",
            format!("device {d} busy share"),
        );
    }
    out.metric(
        "gpusim.peak_mem_mb",
        report.peak_memory as f64 / (1 << 20) as f64,
        "MiB",
        "simulated",
    );

    for (name, names) in COUNTERS {
        let v: f64 = names.iter().map(|n| counter(&report, n)).sum();
        out.metric(name, v, "count", format!("telemetry {}", names.join(" + ")));
    }
    let injected = counter(&report, "faults_kernel") + counter(&report, "faults_alloc");
    let shed = report
        .clients
        .iter()
        .filter(|c| {
            matches!(
                c.outcome,
                ClientOutcome::RetriesExhausted { .. } | ClientOutcome::CircuitOpen { .. }
            )
        })
        .count() as f64;
    let recovered = if injected > 0.0 {
        1.0 - shed / injected
    } else {
        1.0
    };
    let shed_note = format!("{shed} sessions shed");
    out.metric("faults.recovered_share", recovered, "fraction", shed_note);
    out.lines.push(format!(
        "  controlplane profile rebinds {}, drift alerts {}",
        counter(&report, "control_profile_rebinds"),
        counter(&report, "alerts_drift")
    ));
    for name in ON_COSTS {
        match costs.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => out.metric(name, median(v), "ratio", describe(v)),
            None => out.metric(name, 0.0, "ratio", na),
        }
    }

    let post = |f: fn(&Post) -> f64| -> Vec<f64> { posts.iter().map(f).collect() };
    out.metric(
        "trace.events",
        report.trace.len() as f64,
        "count",
        format!("{cell} cell"),
    );
    let v = post(|p| p.trace_export_s);
    out.metric("trace.export_s", median(&v), "s", describe(&v));
    let mb = posts[0].trace_export_bytes as f64 / (1 << 20) as f64;
    out.metric("trace.export_mb", mb, "MiB", "Chrome trace JSON");
    let v = post(|p| p.telemetry_export_s);
    out.metric("telemetry.export_s", median(&v), "s", describe(&v));
    let v = post(|p| p.attrib_s);
    out.metric("attrib.s", median(&v), "s", describe(&v));
    out.metric(
        "attrib.runs",
        posts[0].attrib_runs as f64,
        "count",
        "attributed runs",
    );
    let v = post(|p| p.tsdb_s);
    out.metric("tsdb.ingest_s", median(&v), "s", describe(&v));
    out.metric(
        "tsdb.points",
        posts[0].tsdb_points as f64,
        "count",
        "stored points",
    );

    match shard {
        Some((speedup, identical)) => {
            out.metric(
                "shard.speedup",
                speedup,
                "ratio",
                "shards=1 time / shards=N time",
            );
            out.metric(
                "shard.identical",
                f64::from(u8::from(identical)),
                "bool",
                "reports byte-identical",
            );
        }
        None => {
            out.metric("shard.speedup", 0.0, "ratio", na);
            out.metric("shard.identical", 0.0, "bool", na);
        }
    }
    let overhead = median(&traced_wall) / median(&untraced_wall) - 1.0;
    out.metric(
        "bench.trace_overhead",
        overhead,
        "ratio",
        format!(
            "traced {} / untraced {}",
            describe(&traced_wall),
            describe(&untraced_wall)
        ),
    );
    out
}
