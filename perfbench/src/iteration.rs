//! One timed iteration of a workload: its cells, then, on `incident`, the
//! post-run pipeline users run on the report.

use crate::hooks::{HookStats, TimedScheduler};
use crate::inputs::Inputs;
use crate::measure::timed;
use serving::attrib::critical_path;
use serving::RunReport;
use simtime::SimDuration;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds and output sizes of the post-run pipeline on one report.
#[derive(Debug, Clone, Copy, Default)]
pub struct Post {
    /// `attribution` plus the critical path.
    pub attrib_s: f64,
    /// Runs the attribution decomposed.
    pub attrib_runs: usize,
    /// `tsdb` ingest.
    pub tsdb_s: f64,
    /// Points the store holds.
    pub tsdb_points: usize,
    /// `chrome_trace_json`.
    pub trace_export_s: f64,
    /// Bytes of Chrome trace JSON.
    pub trace_export_bytes: usize,
    /// `prometheus_text` plus `telemetry_jsonl`.
    pub telemetry_export_s: f64,
}

/// Runs the post-run pipeline on `report`, timing each call.
pub fn postprocess(report: &RunReport, horizon: SimDuration) -> Post {
    let (attr, attrib_s) = timed(|| {
        let attr = report.attribution(horizon);
        black_box(critical_path(&attr));
        attr
    });
    let (store, tsdb_s) = timed(|| report.tsdb());
    let (chrome, trace_export_s) = timed(|| report.chrome_trace_json());
    let (_, telemetry_export_s) = timed(|| {
        black_box(report.prometheus_text());
        black_box(report.telemetry_jsonl());
    });
    Post {
        attrib_s,
        attrib_runs: attr.runs.len(),
        tsdb_s,
        tsdb_points: store.total_points(),
        trace_export_s,
        trace_export_bytes: chrome.len(),
        telemetry_export_s,
    }
}

/// What one iteration measured and produced.
pub struct Iteration {
    /// Host seconds of the whole iteration.
    pub wall_s: f64,
    /// Host seconds inside `run_experiment`, all cells.
    pub run_s: f64,
    /// Simulated events, all cells.
    pub events: u64,
    /// One report per cell.
    pub reports: Vec<RunReport>,
    /// Scheduler hook costs of the managed cell (traced iterations only).
    pub hooks: Option<HookStats>,
    /// The post-run pipeline, on workloads that run it.
    pub post: Option<Post>,
}

/// Runs every cell of `inputs` once, then the post-run pipeline when the
/// workload has one. `traced` wraps each scheduler in [`TimedScheduler`].
pub fn iterate(inputs: &Inputs, traced: bool) -> Iteration {
    let start = Instant::now();
    let mut run_s = 0.0;
    let mut events = 0;
    let mut reports = Vec::with_capacity(inputs.cells.len());
    let mut hooks = None;
    for (i, cell) in inputs.cells.iter().enumerate() {
        let clients = inputs.clients.clone();
        let (cfg, inner) = inputs.instance(&cell.cfg, cell.sched);
        let (report, t) = if traced {
            let mut sched = TimedScheduler::new(inner);
            let r = timed(|| serving::run_experiment(&cfg, clients, &mut sched));
            if i == inputs.managed {
                hooks = Some(sched.stats());
            }
            r
        } else {
            let mut sched = inner;
            timed(|| serving::run_experiment(&cfg, clients, sched.as_mut()))
        };
        run_s += t;
        events += report.event_count;
        reports.push(report);
    }
    let post = inputs
        .postprocess
        .then(|| postprocess(&reports[inputs.managed], inputs.horizon()));
    Iteration {
        wall_s: start.elapsed().as_secs_f64(),
        run_s,
        events,
        reports,
        hooks,
        post,
    }
}
