//! The repository benchmark: end-to-end metrics of three workloads of the
//! Olympian serving simulator (untraced run) and the cost of each layer
//! (traced run). See `perfbench/README.md` for what each workload and
//! metric is for.
//!
//! ```text
//! perfbench --workload <closed|open|incident> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! repeat every metric with its unit, sample count and quartiles.

mod hooks;
mod inputs;
mod iteration;
mod layers;
mod measure;

use inputs::{Inputs, Workload};
use iteration::iterate;
use measure::{describe, digest, median, unfinished};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <closed|open|incident> --seed <n> --seconds <s> --trace <0|1>";

/// Set-up repeats at least this often and for at least this long; the
/// median is reported.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 1_000;

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Worker threads for the benchmark's own fan-out (realizations,
    /// Table 2, the shard probe): `OLYMPIAN_JOBS` or all cores.
    pub workers: usize,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what}: {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|_| bad("seconds"))?;
                    if !(1..=600).contains(&s) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            workers: simpar::max_jobs(),
        })
    }
}

/// A run's result: checks, metrics and the human-readable lines.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: sessions run plus output checks made.
    pub attempted: u64,
    /// Sessions that did not finish plus output checks that failed.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the JSON summary.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    /// Counts the sessions of a report.
    pub fn sessions(&mut self, report: &serving::RunReport) {
        self.attempted += report.clients.len() as u64;
        self.failed += unfinished(report) as u64;
    }

    /// Adds a metric, with a line describing how it was measured.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, how: impl Into<String>) {
        self.lines.push(format!(
            "{name:<36} {value:>16.6} {unit:<10} {}",
            how.into()
        ));
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let correct = self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Builds the workload's inputs repeatedly, returning the last build and
/// every build's host seconds. Each build must choose the same Q.
pub fn set_up(args: &Args, out: &mut Outcome) -> (Inputs, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut first_q = None;
    loop {
        let t = Instant::now();
        let inputs = Inputs::build(args.workload, args.seed);
        times.push(t.elapsed().as_secs_f64());
        let q = inputs.olympian.as_ref().map(|(_, q)| *q);
        match first_q {
            None => first_q = Some(q),
            Some(first) => out.check(first == q, "set-up chose a different Q on a repeat"),
        }
        let enough = times.len() >= SETUP_MIN_REPS && start.elapsed() >= SETUP_MIN_TIME;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (inputs, times);
        }
    }
}

/// Engine-noise realizations the `sim_` metrics are taken over.
const REALIZATIONS: u64 = 12;

/// Runs the managed and reference cells once per realization, in
/// parallel. Realization `k` seeds the engine with `mix(seed, 1 + k)`, so
/// realization 0 repeats the timed iterations' inputs.
fn realizations(inputs: &Inputs, args: &Args, out: &mut Outcome) -> Vec<measure::Realization> {
    let ks: Vec<u64> = (0..REALIZATIONS).collect();
    let runs = simpar::par_map_jobs(args.workers, &ks, |_, &k| {
        let engine_seed = inputs::mix(args.seed, 1 + k);
        let run = |cell: &inputs::Cell| inputs.run(&cell.cfg.with_seed(engine_seed), cell.sched);
        let managed = run(&inputs.cells[inputs.managed]);
        let reference = run(inputs.reference_cell());
        let failed = measure::unfinished(&managed) + measure::unfinished(&reference);
        let sessions = managed.clients.len() + reference.clients.len();
        (
            measure::realize(&inputs.clients, &managed, &reference),
            sessions,
            failed,
        )
    });
    runs.into_iter()
        .map(|(r, sessions, failed)| {
            out.attempted += sessions as u64;
            out.failed += failed as u64;
            r
        })
        .collect()
}

/// The untraced run: the end-to-end metrics.
fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup) = set_up(args, &mut out);
    if let Some((_, q)) = &inputs.olympian {
        out.lines.push(format!("Q chosen at 2.5% tolerance: {q}"));
    }

    let start = Instant::now();
    let mut walls = Vec::new();
    let (mut events, mut run_s) = (0, 0.0);
    let mut first_digests: Option<Vec<u64>> = None;
    while first_digests.is_none() || start.elapsed() < args.seconds {
        let it = iterate(&inputs, false);
        walls.push(it.wall_s);
        events += it.events;
        run_s += it.run_s;
        for r in &it.reports {
            out.sessions(r);
        }
        let digests: Vec<u64> = it.reports.iter().map(digest).collect();
        match &first_digests {
            None => {
                out.lines.push(format!("report digests: {digests:016x?}"));
                first_digests = Some(digests);
            }
            Some(first) => out.check(
                *first == digests,
                "report digest changed between iterations",
            ),
        }
    }
    let digests = first_digests.expect("at least one iteration ran");
    // Taken before the realizations, which run two cells at a time.
    let peak_rss_mb = measure::peak_rss_mb();

    let reals = realizations(&inputs, args, &mut out);
    out.check(
        reals[0].digest == digests[inputs.managed],
        "first realization differs from the timed run on the same seed",
    );
    let sim = measure::sim_metrics(&reals);
    let table2 = measure::table2_err_pct(args.workers);
    out.check(
        table2 <= measure::TABLE2_MAX_ERR_PCT,
        format!(
            "Table 2 runtime error {table2:.2}% above {}%",
            measure::TABLE2_MAX_ERR_PCT
        ),
    );
    let ok_share = 1.0 - out.failed as f64 / out.attempted as f64;

    out.metric("wall_s", median(&walls), "s", describe(&walls));
    out.metric(
        "events_per_s",
        events as f64 / run_s,
        "events/s",
        format!(
            "{events} events in {run_s:.6} s inside run_experiment over {} iterations",
            walls.len()
        ),
    );
    out.metric("setup_s", median(&setup), "s", describe(&setup));
    out.metric(
        "peak_rss_mb",
        peak_rss_mb,
        "MiB",
        "VmHWM after set-up and the timed phase",
    );
    let cells = format!("{} cell", inputs.cells[inputs.managed].label);
    out.metric(
        "sim_run_p50_ms",
        sim.run_p50_ms,
        "ms",
        format!(
            "median of {} runs, {cells}, {REALIZATIONS} realizations",
            sim.runs
        ),
    );
    out.metric(
        "sim_run_tail_ms",
        sim.run_tail_ms,
        "ms",
        format!(
            "p{} of {} runs, {cells}, {REALIZATIONS} realizations",
            sim.tail_pct, sim.runs
        ),
    );
    out.metric(
        "sim_goodput_rps",
        sim.goodput_rps,
        "1/s",
        format!("{} runs / time to last finish", sim.runs),
    );
    out.metric(
        "sim_spread",
        sim.spread,
        "ratio",
        "worst same-model max/min session time; median of realizations",
    );
    let reference = inputs.reference_cell().label;
    out.metric(
        "sim_makespan_ratio",
        sim.makespan_ratio,
        "ratio",
        format!(
            "{} / {reference} makespan, median of realizations; sim_overhead_pct = {:.4}",
            inputs.cells[inputs.managed].label,
            (sim.makespan_ratio - 1.0) * 100.0
        ),
    );
    out.metric(
        "ok_share",
        ok_share,
        "fraction",
        format!(
            "failed_share = {:.6} of {} attempted",
            1.0 - ok_share,
            out.attempted
        ),
    );
    out.lines.push(format!(
        "models.table2_err_pct {table2:.4} % (mean |error| vs paper Table 2; checked <= {}%)",
        measure::TABLE2_MAX_ERR_PCT
    ));
    out
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Set-up's profiling fan-out nests `simpar::par_map` (Overhead-Q points
    // inside models), up to `workers`² threads at once. It runs on one
    // worker, so the process never has more busy threads than cores and
    // set-up time does not depend on how the host schedules the fan-out.
    // Nothing else runs yet, so no thread can read the environment
    // concurrently.
    std::env::set_var(simpar::JOBS_ENV, "1");
    let out = if args.trace {
        layers::traced(&args)
    } else {
        untraced(&args)
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        args.workers,
    );
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}
