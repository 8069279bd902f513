//! Chrome trace-event JSON export (the format Perfetto and
//! `chrome://tracing` load).
//!
//! Layout: process 1 ("clients") holds one track per client plus a
//! "scheduler" track for token events whose owner is no longer known;
//! process 2 ("gpus") holds one track per device. Quantum spans render as
//! complete (`"ph":"X"`) slices on client tracks, kernel executions as
//! slices on device tracks, and everything else as instant events. The
//! per-kernel enqueue/complete events are deliberately *not* exported —
//! they exist for [`stats`](crate::stats) attribution and would triple the
//! file size without adding a visual.
//!
//! Output is byte-deterministic: events are ordered by
//! `(process, track, timestamp, sequence number)` and all numbers derive
//! from integer nanoseconds.

use crate::{Trace, TraceKind};
use microjson::Value;

/// Track labelling for the exporter: everything the trace's raw ids cannot
/// carry by themselves.
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// One label per client, indexed by client id (e.g. `"client 3
    /// (inception-v4)"`). Clients beyond this list get a generic label.
    pub client_labels: Vec<String>,
    /// Number of GPU devices in the run.
    pub device_count: u32,
}

const CLIENTS_PID: u64 = 1;
const GPUS_PID: u64 = 2;

struct Row {
    pid: u64,
    tid: u64,
    ts_ns: u64,
    /// `Some` for complete ("X") slices, `None` for instants.
    dur_ns: Option<u64>,
    name: String,
    cat: &'static str,
    args: Vec<(String, Value)>,
    seq: u64,
}

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn meta_event(pid: u64, tid: Option<u64>, key: &str, name: &str) -> Value {
    let mut fields = vec![
        ("ph".into(), Value::str("M")),
        ("pid".into(), Value::UInt(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".into(), Value::UInt(tid)));
    }
    fields.push(("name".into(), Value::str(key)));
    fields.push((
        "args".into(),
        Value::Object(vec![("name".into(), Value::str(name))]),
    ));
    Value::Object(fields)
}

/// Builds the Chrome trace-event document as a [`Value`] tree.
pub fn chrome_trace(trace: &Trace, meta: &TraceMeta) -> Value {
    let scheduler_tid = meta.client_labels.len() as u64;
    let client_tid = |c: Option<u32>| c.map_or(scheduler_tid, u64::from);
    let mut rows: Vec<Row> = Vec::new();
    for e in &trace.events {
        let row = |tid: u64, ts_ns: u64, dur_ns: Option<u64>, name: String, cat, args| Row {
            pid: CLIENTS_PID,
            tid,
            ts_ns,
            dur_ns,
            name,
            cat,
            args,
            seq: e.seq,
        };
        let job_arg = |job: u64| vec![("job".to_string(), Value::UInt(job))];
        match e.kind {
            TraceKind::QuantumEnd { job, client, gpu } => {
                let dur = gpu.as_nanos();
                let start = e.at.as_nanos().saturating_sub(dur);
                rows.push(row(
                    u64::from(client),
                    start,
                    Some(dur),
                    "quantum".into(),
                    "quantum",
                    job_arg(job),
                ));
            }
            TraceKind::KernelLaunch { job, client, device, node, start, end } => {
                rows.push(Row {
                    pid: GPUS_PID,
                    tid: u64::from(device),
                    ts_ns: start.as_nanos(),
                    dur_ns: Some(end.since(start).as_nanos()),
                    name: "kernel".into(),
                    cat: "kernel",
                    args: vec![
                        ("job".into(), Value::UInt(job)),
                        ("client".into(), Value::UInt(u64::from(client))),
                        ("node".into(), Value::UInt(u64::from(node))),
                    ],
                    seq: e.seq,
                });
            }
            TraceKind::KernelEnqueue { .. } | TraceKind::KernelComplete { .. } => {}
            TraceKind::TokenGrant { job, client, reason } => {
                let mut args = job_arg(job);
                args.push(("reason".into(), Value::str(reason.as_str())));
                rows.push(row(client_tid(client), e.at.as_nanos(), None,
                    "token-grant".into(), "token", args));
            }
            TraceKind::TokenRevoke { job, client, reason } => {
                let mut args = job_arg(job);
                args.push(("reason".into(), Value::str(reason.as_str())));
                rows.push(row(client_tid(client), e.at.as_nanos(), None,
                    "token-revoke".into(), "token", args));
            }
            TraceKind::CostThreshold { job, client, cumulated, threshold } => {
                let mut args = job_arg(job);
                args.push(("cumulated".into(), Value::UInt(cumulated)));
                args.push(("threshold".into(), Value::UInt(threshold)));
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "cost-threshold".into(), "quantum", args));
            }
            TraceKind::YieldBlock { job, client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "yield-block".into(), "yield", job_arg(job)));
            }
            TraceKind::YieldUnblock { job, client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "yield-unblock".into(), "yield", job_arg(job)));
            }
            TraceKind::OverflowCharge { job, client, device, gpu } => {
                let mut args = job_arg(job);
                args.push(("device".into(), Value::UInt(u64::from(device))));
                args.push(("gpu_us".into(), us(gpu.as_nanos())));
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "overflow-charge".into(), "overflow", args));
            }
            TraceKind::ClientAdmitted { client, device } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "client-admitted".into(), "lifecycle",
                    vec![("device".into(), Value::UInt(u64::from(device)))]));
            }
            TraceKind::AdmissionQueued { client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "admission-queued".into(), "lifecycle", Vec::new()));
            }
            TraceKind::LifecycleWait { client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "lifecycle-wait".into(), "lifecycle", Vec::new()));
            }
            TraceKind::ClientRejectedOom { client, requested, available } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "client-rejected-oom".into(), "lifecycle",
                    vec![
                        ("requested".into(), Value::UInt(requested)),
                        ("available".into(), Value::UInt(available)),
                    ]));
            }
            TraceKind::ClientFinished { client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "client-finished".into(), "lifecycle", Vec::new()));
            }
            TraceKind::RunRegistered { job, client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "run-registered".into(), "lifecycle", job_arg(job)));
            }
            TraceKind::RunCompleted { job, client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "run-completed".into(), "lifecycle", job_arg(job)));
            }
            TraceKind::DeadlineCancelled { job, client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "deadline-cancelled".into(), "lifecycle", job_arg(job)));
            }
            TraceKind::DriftAlert { client, observed_us, expected_us, deviation_ppm } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "drift-alert".into(), "alert",
                    vec![
                        ("observed_us".into(), Value::UInt(observed_us)),
                        ("expected_us".into(), Value::UInt(expected_us)),
                        ("deviation_ppm".into(), Value::UInt(deviation_ppm)),
                    ]));
            }
            TraceKind::SloBurnAlert { slo, short_ppm, long_ppm } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "slo-burn-alert".into(), "alert",
                    vec![
                        ("slo".into(), Value::UInt(u64::from(slo))),
                        ("short_ppm".into(), Value::UInt(short_ppm)),
                        ("long_ppm".into(), Value::UInt(long_ppm)),
                    ]));
            }
            TraceKind::KernelFault { job, client, device, node, attempt } => {
                let mut args = job_arg(job);
                args.push(("device".into(), Value::UInt(u64::from(device))));
                args.push(("node".into(), Value::UInt(u64::from(node))));
                args.push(("attempt".into(), Value::UInt(u64::from(attempt))));
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "kernel-fault".into(), "fault", args));
            }
            TraceKind::AllocFault { client, attempt } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "alloc-fault".into(), "fault",
                    vec![("attempt".into(), Value::UInt(u64::from(attempt)))]));
            }
            TraceKind::RetryScheduled { job, client, node, attempt, delay } => {
                let mut args = Vec::new();
                if job != u64::MAX {
                    args.push(("job".into(), Value::UInt(job)));
                    args.push(("node".into(), Value::UInt(u64::from(node))));
                }
                args.push(("attempt".into(), Value::UInt(u64::from(attempt))));
                args.push(("backoff_us".into(), us(delay.as_nanos())));
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "retry-scheduled".into(), "recovery", args));
            }
            TraceKind::BreakerTransition { client, state, .. } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    format!("breaker-{state}"), "recovery", Vec::new()));
            }
            TraceKind::WatchdogRevoke { job, client, stalled_us } => {
                let mut args = job_arg(job);
                args.push(("stalled_us".into(), Value::UInt(stalled_us)));
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "watchdog-revoke".into(), "recovery", args));
            }
            TraceKind::DeviceStall { device, until_us } => {
                rows.push(Row {
                    pid: GPUS_PID,
                    tid: u64::from(device),
                    ts_ns: e.at.as_nanos(),
                    dur_ns: None,
                    name: "device-stall".into(),
                    cat: "fault",
                    args: vec![("until_us".into(), Value::UInt(until_us))],
                    seq: e.seq,
                });
            }
            TraceKind::VersionLoad { model, version, bytes } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "version-load".into(), "residency",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                        ("bytes".into(), Value::UInt(bytes)),
                    ]));
            }
            TraceKind::WarmupRun { model, version, run } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "warmup-run".into(), "residency",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                        ("run".into(), Value::UInt(u64::from(run))),
                    ]));
            }
            TraceKind::Evict { model, version, bytes } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "evict".into(), "residency",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                        ("bytes".into(), Value::UInt(bytes)),
                    ]));
            }
            TraceKind::CanaryPromote { model, version, .. } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "canary-promote".into(), "rollout",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                    ]));
            }
            TraceKind::CanaryRollback { model, version, .. } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "canary-rollback".into(), "rollout",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                    ]));
            }
            TraceKind::Drain { model, version, inflight } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "drain".into(), "residency",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                        ("inflight".into(), Value::UInt(u64::from(inflight))),
                    ]));
            }
            TraceKind::VersionUnload { model, version, bytes } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "version-unload".into(), "residency",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("version".into(), Value::UInt(u64::from(version))),
                        ("bytes".into(), Value::UInt(bytes)),
                    ]));
            }
            TraceKind::ControlTransition { from, to } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    format!("control-{from}-to-{to}"), "control", Vec::new()));
            }
            TraceKind::AdmissionShed { client } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "admission-shed".into(), "control", Vec::new()));
            }
            TraceKind::BatchShrink { client, from, to } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "batch-shrink".into(), "control",
                    vec![
                        ("from".into(), Value::UInt(from)),
                        ("to".into(), Value::UInt(to)),
                    ]));
            }
            TraceKind::ProfileRebind { client, scale_ppm } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "profile-rebind".into(), "control",
                    vec![("scale_ppm".into(), Value::UInt(scale_ppm))]));
            }
            TraceKind::LaxityCancel { job, client, deficit_us } => {
                let mut args = job_arg(job);
                args.push(("deficit_us".into(), Value::UInt(deficit_us)));
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "laxity-cancel".into(), "control", args));
            }
            TraceKind::ClusterRoute { client, device, cost_us } => {
                rows.push(row(u64::from(client), e.at.as_nanos(), None,
                    "cluster-route".into(), "cluster",
                    vec![
                        ("device".into(), Value::UInt(u64::from(device))),
                        ("cost_us".into(), Value::UInt(cost_us)),
                    ]));
            }
            TraceKind::ClusterMigrate { model, from, to } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "cluster-migrate".into(), "cluster",
                    vec![
                        ("model".into(), Value::UInt(u64::from(model))),
                        ("from".into(), Value::UInt(u64::from(from))),
                        ("to".into(), Value::UInt(u64::from(to))),
                    ]));
            }
            TraceKind::ClusterReconfig { loads, drains } => {
                rows.push(row(scheduler_tid, e.at.as_nanos(), None,
                    "cluster-reconfigure".into(), "cluster",
                    vec![
                        ("loads".into(), Value::UInt(u64::from(loads))),
                        ("drains".into(), Value::UInt(u64::from(drains))),
                    ]));
            }
        }
    }

    rows.sort_by_key(|r| (r.pid, r.tid, r.ts_ns, r.seq));

    // Clamp slice starts so each track's slices never overlap: an overflow
    // charge can make a quantum's GPU duration exceed its wall interval,
    // and Perfetto expects same-track slices to nest or abut.
    let mut last: Option<(u64, u64, u64)> = None; // (pid, tid, end_ns)
    for r in rows.iter_mut() {
        let Some(dur) = r.dur_ns else { continue };
        let end = r.ts_ns + dur;
        if let Some((pid, tid, prev_end)) = last {
            if pid == r.pid && tid == r.tid && r.ts_ns < prev_end {
                r.ts_ns = prev_end.min(end);
                r.dur_ns = Some(end - r.ts_ns);
            }
        }
        last = Some((r.pid, r.tid, end.max(r.ts_ns)));
    }

    let mut events: Vec<Value> = Vec::with_capacity(rows.len() + 8);
    events.push(meta_event(CLIENTS_PID, None, "process_name", "clients"));
    events.push(meta_event(GPUS_PID, None, "process_name", "gpus"));
    for (i, label) in meta.client_labels.iter().enumerate() {
        events.push(meta_event(CLIENTS_PID, Some(i as u64), "thread_name", label));
    }
    events.push(meta_event(CLIENTS_PID, Some(scheduler_tid), "thread_name", "scheduler"));
    for d in 0..meta.device_count {
        events.push(meta_event(GPUS_PID, Some(u64::from(d)), "thread_name", &format!("gpu {d}")));
    }

    for r in rows {
        let mut fields = vec![
            ("name".into(), Value::Str(r.name)),
            ("cat".into(), Value::str(r.cat)),
            ("ph".into(), Value::str(if r.dur_ns.is_some() { "X" } else { "i" })),
            ("ts".into(), us(r.ts_ns)),
        ];
        match r.dur_ns {
            Some(d) => fields.push(("dur".into(), us(d))),
            None => fields.push(("s".into(), Value::str("t"))),
        }
        fields.push(("pid".into(), Value::UInt(r.pid)));
        fields.push(("tid".into(), Value::UInt(r.tid)));
        let mut args = r.args;
        args.push(("seq".into(), Value::UInt(r.seq)));
        fields.push(("args".into(), Value::Object(args)));
        events.push(Value::Object(fields));
    }

    // A trace is lossless, so `dropped_events` is always 0; the key stays
    // because consumers of the export read it.
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::str("ms")),
        ("otherData".into(), Value::Object(vec![("dropped_events".into(), Value::UInt(0))])),
    ])
}

/// Serializes [`chrome_trace`] to a compact JSON string (no trailing
/// newline).
pub fn chrome_trace_json(trace: &Trace, meta: &TraceMeta) -> String {
    let mut out = String::new();
    chrome_trace(trace, meta).write(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SwitchReason, TraceBuffer, TraceConfig};
    use simtime::{SimDuration, SimTime};

    fn sample_trace() -> Trace {
        let mut b = TraceBuffer::new(&TraceConfig::full());
        b.record(SimTime::ZERO, TraceKind::ClientAdmitted { client: 0, device: 0 });
        b.record(
            SimTime::from_micros(10),
            TraceKind::TokenGrant { job: 0, client: Some(0), reason: SwitchReason::Register },
        );
        b.record(
            SimTime::from_micros(40),
            TraceKind::KernelLaunch {
                job: 0,
                client: 0,
                device: 0,
                node: 2,
                start: SimTime::from_micros(40),
                end: SimTime::from_micros(55),
            },
        );
        b.record(
            SimTime::from_micros(60),
            TraceKind::QuantumEnd { job: 0, client: 0, gpu: SimDuration::from_micros(15) },
        );
        b.finish()
    }

    fn tracks(doc: &Value) -> Vec<(u64, u64, f64, Option<f64>)> {
        doc.get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() != Some("M"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_u64().unwrap(),
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_f64().unwrap(),
                    e.get("dur").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn export_is_wellformed_and_parses_back() {
        let meta = TraceMeta { client_labels: vec!["client 0 (m)".into()], device_count: 1 };
        let text = chrome_trace_json(&sample_trace(), &meta);
        let doc = Value::parse(&text).expect("exported JSON parses");
        assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 process names + 1 client + 1 scheduler + 1 gpu thread names
        // + 4 payload events, minus the two instants... count the metas:
        let metas = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .count();
        assert_eq!(metas, 5);
        assert_eq!(events.len(), metas + 4);
        // A lossless trace reports zero dropped events and no warning.
        let other = doc.get("otherData").unwrap();
        assert_eq!(other.get("dropped_events").unwrap().as_u64(), Some(0));
        assert!(other.get("warning").is_none());
    }

    #[test]
    fn per_track_timestamps_are_monotonic() {
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 1 };
        let doc = chrome_trace(&sample_trace(), &meta);
        let mut last: std::collections::HashMap<(u64, u64), f64> = Default::default();
        for (pid, tid, ts, dur) in tracks(&doc) {
            let prev = last.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *prev, "ts regressed on track ({pid},{tid})");
            *prev = ts + dur.unwrap_or(0.0);
        }
    }

    #[test]
    fn overlapping_quanta_are_clamped() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        // Two quanta whose naive spans overlap: [0, 100] and [80, 180].
        b.record(
            SimTime::from_micros(100),
            TraceKind::QuantumEnd { job: 0, client: 0, gpu: SimDuration::from_micros(100) },
        );
        b.record(
            SimTime::from_micros(180),
            TraceKind::QuantumEnd { job: 1, client: 0, gpu: SimDuration::from_micros(100) },
        );
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 0 };
        let doc = chrome_trace(&b.finish(), &meta);
        let spans: Vec<_> = tracks(&doc).into_iter().filter(|t| t.3.is_some()).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].2, 100.0, "second span clamped to first's end");
        assert_eq!(spans[1].3, Some(80.0));
    }

    #[test]
    fn unknown_client_token_events_land_on_scheduler_track() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        b.record(
            SimTime::from_micros(5),
            TraceKind::TokenRevoke { job: 7, client: None, reason: SwitchReason::Deregister },
        );
        let meta = TraceMeta { client_labels: vec!["c0".into(), "c1".into()], device_count: 0 };
        let doc = chrome_trace(&b.finish(), &meta);
        let rows = tracks(&doc);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 2, "scheduler tid = client count");
    }

    #[test]
    fn alert_events_land_on_the_timeline() {
        let mut b = TraceBuffer::new(&TraceConfig::sampled());
        b.record(
            SimTime::from_micros(500),
            TraceKind::DriftAlert {
                client: 0,
                observed_us: 280,
                expected_us: 200,
                deviation_ppm: 400_000,
            },
        );
        b.record(
            SimTime::from_micros(600),
            TraceKind::SloBurnAlert { slo: 0, short_ppm: 2_500_000, long_ppm: 2_000_000 },
        );
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 0 };
        let text = chrome_trace_json(&b.finish(), &meta);
        assert!(text.contains("\"drift-alert\""));
        assert!(text.contains("\"slo-burn-alert\""));
        let doc = Value::parse(&text).unwrap();
        let rows = tracks(&doc);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, 0, "drift alert on the client track");
        assert_eq!(rows[1].1, 1, "slo alert on the scheduler track");
    }

    #[test]
    fn export_is_byte_stable() {
        let meta = TraceMeta { client_labels: vec!["c0".into()], device_count: 1 };
        let a = chrome_trace_json(&sample_trace(), &meta);
        let b = chrome_trace_json(&sample_trace(), &meta);
        assert_eq!(a, b);
    }
}
