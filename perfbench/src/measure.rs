//! Statistics, report digests and the simulated (`sim_`) metrics.

use models::ModelKind;
use serving::{ClientOutcome, ClientSpec, FifoScheduler, RunReport};
use std::fmt::Write as _;

/// Runs `f`, returning its result and the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile, by the same exclusive
/// method as Python's `statistics.quantiles(v, n=4)`; a single sample is
/// its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let at = |j: f64| {
                let m = j * (n as f64 + 1.0) / 4.0;
                let i = (m.floor() as usize).clamp(1, n - 1);
                let frac = m - i as f64;
                s[i - 1] + (s[i] - s[i - 1]) * frac
            };
            let mid = if n % 2 == 1 {
                s[n / 2]
            } else {
                (s[n / 2 - 1] + s[n / 2]) / 2.0
            };
            (at(1.0), mid, at(3.0))
        }
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the report's `Debug` rendering: every field, trace and
/// telemetry included, without materialising the string.
pub fn digest(report: &RunReport) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{report:?}").expect("hashing cannot fail");
    h.0
}

/// Sessions of `report` that did not finish.
pub fn unfinished(report: &RunReport) -> usize {
    report.clients.len() - report.finished_count()
}

/// Per-run latencies in simulated ms, from issue to finish. A session's
/// first run is issued when the client connects; each later run when the
/// previous one finished plus the client's think time.
pub fn run_latencies_ms(clients: &[ClientSpec], report: &RunReport) -> Vec<f64> {
    let mut out = Vec::new();
    for (spec, c) in clients.iter().zip(&report.clients) {
        let mut issued = spec.start_at;
        for &done in &c.run_finish_times {
            out.push((done - issued).as_millis_f64());
            issued = done + spec.think_time;
        }
    }
    out
}

/// Percentiles `sim_run_tail_ms` may sit at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// What one realization of the managed and reference cells yields.
pub struct Realization {
    /// Run latencies of the managed cell, sim ms.
    pub latencies_ms: Vec<f64>,
    /// When the managed cell's last run finished, sim s.
    pub last_finish_s: f64,
    /// Same-model session spread of the managed cell.
    pub spread: f64,
    /// Managed makespan over reference makespan.
    pub makespan_ratio: f64,
    /// Digest of the managed report.
    pub digest: u64,
}

/// Summarises a managed report and its reference on the same inputs.
pub fn realize(clients: &[ClientSpec], managed: &RunReport, reference: &RunReport) -> Realization {
    let last_finish = managed
        .clients
        .iter()
        .flat_map(|c| c.run_finish_times.last())
        .max();
    Realization {
        latencies_ms: run_latencies_ms(clients, managed),
        last_finish_s: last_finish.map_or(0.0, |t| t.as_secs_f64()),
        spread: same_model_spread(clients, managed),
        makespan_ratio: managed.makespan.as_secs_f64() / reference.makespan.as_secs_f64(),
        digest: digest(managed),
    }
}

/// The simulated end-to-end metrics of one workload.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    /// Completed runs over all realizations.
    pub runs: usize,
    /// Median run latency, sim ms.
    pub run_p50_ms: f64,
    /// Run latency at `tail_pct`, sim ms.
    pub run_tail_ms: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least ten runs
    /// beyond it.
    pub tail_pct: f64,
    /// Completed runs per simulated second until the last one finished.
    pub goodput_rps: f64,
    /// Median over realizations of the same-model session spread.
    pub spread: f64,
    /// Median over realizations of the makespan ratio.
    pub makespan_ratio: f64,
}

/// Pools the realizations' runs for the latency percentiles and goodput;
/// takes the median over realizations of the per-run ratios.
pub fn sim_metrics(reals: &[Realization]) -> SimMetrics {
    let mut lat: Vec<f64> = reals
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let tail_pct = TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(100.0);
    let rank = ((tail_pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let busy: f64 = reals.iter().map(|r| r.last_finish_s).sum();
    let spreads: Vec<f64> = reals.iter().map(|r| r.spread).collect();
    let ratios: Vec<f64> = reals.iter().map(|r| r.makespan_ratio).collect();
    SimMetrics {
        runs: n,
        run_p50_ms: median(&lat),
        run_tail_ms: lat.get(rank - 1).copied().unwrap_or(0.0),
        tail_pct,
        goodput_rps: if busy > 0.0 { n as f64 / busy } else { 0.0 },
        spread: median(&spreads),
        makespan_ratio: median(&ratios),
    }
}

/// Paper Figure 11's fairness measure generalised to staggered starts:
/// within each model's finished sessions, max/min of (finish − connect);
/// the worst model's ratio.
fn same_model_spread(clients: &[ClientSpec], report: &RunReport) -> f64 {
    let mut groups: std::collections::BTreeMap<&str, (f64, f64)> = Default::default();
    for (spec, c) in clients.iter().zip(&report.clients) {
        if let ClientOutcome::Finished(t) = c.outcome {
            let d = (t - spec.start_at).as_secs_f64();
            let e = groups.entry(c.model_name.as_str()).or_insert((d, d));
            e.0 = e.0.min(d);
            e.1 = e.1.max(d);
        }
    }
    groups
        .values()
        .filter(|(lo, _)| *lo > 0.0)
        .map(|(lo, hi)| hi / lo)
        .fold(1.0, f64::max)
}

/// Mean absolute error, in percent, of the simulator's single-job
/// runtimes against the paper's Table 2 (`models::spec`), each model alone
/// on an idle GPU at its reference batch.
pub fn table2_err_pct(workers: usize) -> f64 {
    let cfg = serving::EngineConfig::default().quiescent();
    let errs: Vec<f64> = simpar::par_map_jobs(workers, &ModelKind::ALL, |_, &kind| {
        let model = models::load(kind, kind.reference_batch()).expect("zoo model loads");
        let r = serving::run_experiment(
            &cfg,
            vec![ClientSpec::new(model, 1)],
            &mut FifoScheduler::new(),
        );
        let paper = models::spec(kind).runtime_s;
        if r.all_finished() {
            (r.makespan.as_secs_f64() / paper - 1.0).abs() * 100.0
        } else {
            f64::INFINITY
        }
    });
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// The accuracy bound `table2_err_pct` is checked against: the repo's own
/// Table 2 reproduction test allows 10% per model.
pub const TABLE2_MAX_ERR_PCT: f64 = 10.0;

/// Formats `v` with its median and quartiles and sample count.
pub fn describe(v: &[f64]) -> String {
    let (q1, m, q3) = quartiles(v);
    let mut s = String::new();
    let _ = write!(s, "median {m:.6} (q1 {q1:.6}, q3 {q3:.6}, n={})", v.len());
    s
}
