//! One workload, start to finish: repeated set-up, warm-up, the measured
//! window(s), the output oracle, and the metrics computed from them.

use aipow_core::MetricsSnapshot;
use aipow_trace::{TraceConfig, Tracer, TriggerConfig};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::alloc::{self, AllocCounts};
use crate::closed::{AbuseDriver, ExchangeDriver, PingDriver};
use crate::deploy::Deployment;
use crate::loadgen::{run_closed, BurstDriver, Conn, Recorder, SpanLog};
use crate::probe;
use crate::proc::{self, ReactorCpu};
use crate::spec::Workload;
use crate::stats::{median, percentile, quantile};
use crate::trust_mix::{self, BitsSeen};

/// Seconds of load before the first measured window: caches fill, lazy
/// set-up finishes, first-connection costs are paid.
pub const WARMUP_S: u64 = 2;

/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 61;

/// Verifier labels of the four abuse kinds, in `loadgen::ABUSE_KINDS` order.
const REJECT_LABELS: [&str; 4] = ["bad_mac", "insufficient_work", "replayed", "expired"];

pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Sample counts, warnings and oracle failures, for the human output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The server's side of a window boundary.
struct ServerState {
    at: Instant,
    snap: MetricsSnapshot,
    reactor_cpu_ns: u64,
    loadgen_cpu_ns: u64,
    allocs: AllocCounts,
    replay_len: u64,
    open_connections: usize,
    twin_scan_steps: u64,
    twin_folds: u64,
}

fn read_state(dep: &Deployment) -> io::Result<ServerState> {
    let twin = dep.limiter_twin.as_ref();
    Ok(ServerState {
        at: Instant::now(),
        snap: dep.framework.metrics_snapshot(),
        reactor_cpu_ns: ReactorCpu::find()?.ns()?,
        loadgen_cpu_ns: proc::loadgen_cpu_ns()?,
        allocs: alloc::counts(),
        replay_len: dep.framework.verifier().replay_guard().len() as u64,
        open_connections: dep.server.open_connections(),
        twin_scan_steps: twin.map_or(0, |t| t.eviction_scan_steps()),
        twin_folds: twin.map_or(0, |t| t.global_eviction_folds()),
    })
}

/// One measured phase and the server's state on either side of it.
struct Window {
    rec: Recorder,
    before: ServerState,
    after: ServerState,
    bits: BitsSeen,
}

impl Window {
    fn wall_s(&self) -> f64 {
        self.after.at.duration_since(self.before.at).as_secs_f64()
    }

    fn reactor_cpu_ns(&self) -> f64 {
        (self.after.reactor_cpu_ns - self.before.reactor_cpu_ns) as f64
    }

    fn server_cpu_us_per_op(&self) -> f64 {
        self.reactor_cpu_ns() / 1_000.0 / self.rec.completed.max(1) as f64
    }

    /// Reactor CPU per op, in microseconds, in each 1 s slice that closed.
    fn sliced_cpu_us_per_op(&self) -> Vec<f64> {
        let mut previous = self.before.reactor_cpu_ns;
        let mut per_slice = Vec::new();
        for (&end, &ops) in self.rec.slice_cpu_ns.iter().zip(&self.rec.slices) {
            if end > 0 {
                if ops > 0 {
                    per_slice.push((end - previous) as f64 / 1_000.0 / ops as f64);
                }
                previous = end;
            }
        }
        per_slice
    }
}

/// A live deployment and the loadgen's standing connections to it.
struct Session {
    workload: Workload,
    seed: u64,
    dep: Deployment,
    /// The closed-loop workloads' two persistent connections.
    conns: Vec<Conn>,
    windows_run: u64,
}

impl Session {
    /// Everything `setup_s` covers: model fit, framework build, server
    /// start, connects, and a first full exchange on every connection.
    fn open(workload: Workload, seed: u64) -> io::Result<Session> {
        let dep = Deployment::start(workload.shape(), seed)?;
        let mut session = Session {
            workload,
            seed,
            dep,
            conns: Vec::new(),
            windows_run: 0,
        };
        let mut rec = Recorder::new(1, workload.slo(), false);
        if workload == Workload::TrustMix {
            trust_mix::probe_source_binding(&session.dep)?;
            trust_mix::first_ops(&session.dep, &mut rec)?;
        } else {
            session.conns = vec![Conn::open(session.dep.addr)?, Conn::open(session.dep.addr)?];
            let mut first_ops = Once(ExchangeDriver::new(&session.dep, 1), [false; 2]);
            run_closed(&mut session.conns, &mut first_ops, &mut rec)?;
        }
        if rec.failed > 0 {
            return Err(io::Error::other(format!(
                "first op failed: {:?}",
                rec.failures
            )));
        }
        Ok(session)
    }

    /// Runs one phase of `seconds`. Whatever must exist before the
    /// window (abuse pools, a full limiter) is built before the counters
    /// are read, and the server is quiescent when they are read again.
    fn window(&mut self, seconds: u64, traced: bool) -> io::Result<Window> {
        self.windows_run += 1;
        let seed = self.seed.wrapping_add(self.windows_run);
        let slo = self.workload.slo();
        let dep = &self.dep;
        let mut bits = BitsSeen::default();

        let mut abuse = None;
        match self.workload {
            Workload::AbuseReject => {
                abuse = Some(AbuseDriver::prepare(dep, &mut self.conns[0], seed)?)
            }
            // The limiter table stays full once the first window filled it.
            Workload::TrustMix if self.windows_run == 1 => {
                trust_mix::prefill(dep, &mut Recorder::new(1, slo, false), seed as u32)?;
            }
            _ => {}
        }

        let before = read_state(dep)?;
        let mut rec = Recorder::new(seconds, slo, traced);
        rec.meter_cpu(ReactorCpu::find()?);

        match self.workload {
            Workload::PingFloor => {
                run_closed(&mut self.conns, &mut PingDriver::new(seed), &mut rec)?
            }
            Workload::ExchangeSingle | Workload::ExchangePipelined => {
                let mut driver = ExchangeDriver::new(dep, self.workload.depth());
                run_closed(&mut self.conns, &mut driver, &mut rec)?
            }
            Workload::AbuseReject => {
                let driver = abuse.as_mut().expect("prepared above");
                run_closed(&mut self.conns, driver, &mut rec)?
            }
            Workload::TrustMix => {
                trust_mix::run_phase(dep, seed, &mut rec, &mut bits)?;
            }
        }
        let after = read_state(dep)?;
        Ok(Window {
            rec,
            before,
            after,
            bits,
        })
    }
}

/// Lets the wrapped driver begin one op per connection and no more: the
/// set-up's first ops, which pay every lazy cost before `setup_s` stops.
struct Once<D>(D, [bool; 2]);

impl<D: BurstDriver> BurstDriver for Once<D> {
    fn next_burst(
        &mut self,
        conn: usize,
        out: &mut Vec<u8>,
        _stopping: bool,
        rec: &mut Recorder,
    ) -> usize {
        let begun = std::mem::replace(&mut self.1[conn], true);
        self.0.next_burst(conn, out, begun, rec)
    }

    fn on_replies(
        &mut self,
        conn: usize,
        replies: &mut Vec<aipow_wire::Message>,
        written: Instant,
        done: Instant,
        rec: &mut Recorder,
    ) {
        self.0.on_replies(conn, replies, written, done, rec)
    }
}

/// Compares what the client counted with the server's counter deltas;
/// every mismatch is an oracle failure.
fn reconcile(w: &Window, workload: Workload, failures: &mut Vec<String>) {
    let (b, a) = (&w.before.snap, &w.after.snap);
    let c = &w.rec.counts;
    let mut check = |what: &str, server: u64, client: u64| {
        if server != client {
            failures.push(format!(
                "{}: server counted {server} {what}, client {client}",
                workload.name()
            ));
        }
    };
    check(
        "challenges_issued",
        a.challenges_issued - b.challenges_issued,
        c.challenges,
    );
    check(
        "solutions_accepted",
        a.solutions_accepted - b.solutions_accepted,
        c.grants,
    );
    check(
        "solutions_rejected",
        a.solutions_rejected - b.solutions_rejected,
        c.rejected.iter().sum(),
    );
    check(
        "rate_limited",
        a.rate_limited - b.rate_limited,
        c.rate_limited,
    );
    check(
        "accepted connections",
        a.accepted_total - b.accepted_total,
        c.connects,
    );
    let reason = |snap: &MetricsSnapshot, label: &str| {
        snap.rejected_by_reason.get(label).copied().unwrap_or(0)
    };
    for (kind, label) in REJECT_LABELS.iter().enumerate() {
        check(
            &format!("rejected_by_reason[{label}]"),
            reason(a, label) - reason(b, label),
            c.rejected[kind],
        );
    }
    let other_reasons: u64 = a
        .rejected_by_reason
        .iter()
        .filter(|(label, _)| !REJECT_LABELS.contains(&label.as_str()))
        .map(|(label, n)| n - reason(b, label))
        .sum();
    check("rejections for any other reason", other_reasons, 0);
    // Read with the server quiescent: the standing pair, or a short-lived
    // connection the server has yet to notice closed.
    if w.after.open_connections > 2 {
        failures.push(format!(
            "{} connections open after the window, the loadgen may hold 2",
            w.after.open_connections
        ));
    }
    if w.after.twin_folds != 0 {
        failures.push(format!(
            "shard.global_eviction_folds is {}, must stay 0",
            w.after.twin_folds
        ));
    }
}

/// Seconds of latency samples one percentile is taken over: the shortest
/// slice in which the slowest workload (500 ops/s) leaves ten samples
/// beyond its p99.
const LATENCY_SLICE_S: usize = 2;

/// The `q`-quantile, in microseconds, of each `LATENCY_SLICE_S` slice of
/// the window; slices too thin for it are left out.
fn sliced_percentile_us(per_second: &[Vec<u64>], q: f64) -> Vec<f64> {
    per_second
        .chunks(LATENCY_SLICE_S)
        .filter_map(|seconds| p_us(&sorted(seconds.concat()), q))
        .collect()
}

fn p_us(sorted_ns: &[u64], q: f64) -> Option<f64> {
    percentile(sorted_ns, q).map(|ns| ns as f64 / 1_000.0)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn median_u64(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// (C): counter deltas and client-side tallies over the untraced window.
fn counter_metrics(w: &Window, out: &mut Vec<(&'static str, f64)>) {
    let (b, a) = (&w.before.snap, &w.after.snap);
    let ops = w.rec.completed.max(1) as f64;
    let wakeups = (a.reactor_wakeups - b.reactor_wakeups) as f64;
    out.push((
        "net.reactor.busy_share",
        w.reactor_cpu_ns() / 1e9 / w.wall_s(),
    ));
    out.push(("net.reactor.wakeups_per_op", wakeups / ops));
    out.push((
        "net.reactor.ready_events_per_wakeup",
        (a.reactor_ready_events - b.reactor_ready_events) as f64 / wakeups.max(1.0),
    ));
    out.push((
        "net.gate.refused",
        ((a.per_ip_cap_rejections + a.max_conn_rejections)
            - (b.per_ip_cap_rejections + b.max_conn_rejections)) as f64,
    ));
    out.push((
        "net.reactor.outbound_overflow_closes",
        (a.outbound_overflow_closes - b.outbound_overflow_closes) as f64,
    ));
    out.push((
        "net.reactor.reaped_idle",
        (a.reaped_idle - b.reaped_idle) as f64,
    ));
    out.push(("wire.bytes_per_op", w.rec.bytes as f64 / ops));

    let stages = |snap: &MetricsSnapshot| -> HashMap<String, (u64, u64, u64)> {
        snap.stage_timings
            .iter()
            .map(|t| (t.stage.clone(), (t.batches, t.items, t.total_ns)))
            .collect()
    };
    let (sb, sa) = (stages(b), stages(a));
    let delta = |stage: &str| {
        let (b0, i0, n0) = sb.get(stage).copied().unwrap_or_default();
        let (b1, i1, n1) = sa.get(stage).copied().unwrap_or_default();
        ((b1 - b0) as f64, (i1 - i0) as f64, (n1 - n0) as f64)
    };
    for (stage, name) in aipow_core::metrics::STAGE_NAMES.iter().zip(STAGE_METRICS) {
        let (_, items, ns) = delta(stage);
        out.push((name, if items > 0.0 { ns / items } else { 0.0 }));
    }
    for (stage, name) in [
        ("score", "core.batch.items_per_batch.request"),
        ("verify", "core.batch.items_per_batch.solution"),
    ] {
        let (batches, items, _) = delta(stage);
        out.push((name, if batches > 0.0 { items / batches } else { 0.0 }));
    }
    out.push((
        "core.rate_limited",
        (a.rate_limited - b.rate_limited) as f64,
    ));
    out.push(("pow.replay.len", w.after.replay_len as f64));
    out.push((
        "pow.replay.evicted_live",
        (a.replay_evicted_live - b.replay_evicted_live) as f64,
    ));
    out.push((
        "policy.difficulty_bits.trusted_p50",
        median_u64(&w.bits.trusted),
    ));
    out.push((
        "policy.difficulty_bits.untrusted_p50",
        median_u64(&w.bits.untrusted),
    ));
    out.push((
        "shard.eviction_scan_steps_per_op",
        (w.after.twin_scan_steps - w.before.twin_scan_steps) as f64 / ops,
    ));
    out.push(("shard.global_eviction_folds", w.after.twin_folds as f64));

    let loadgen_cpu = (w.after.loadgen_cpu_ns - w.before.loadgen_cpu_ns) as f64;
    out.push(("loadgen.busy_share", loadgen_cpu / 1e9 / w.wall_s()));
    out.push(("loadgen.cpu_us_per_op", loadgen_cpu / 1_000.0 / ops));
    out.push((
        "loadgen.late_p99_us",
        p_us(&sorted(w.rec.late_ns.clone()), 0.99).unwrap_or(0.0),
    ));
    out.push((
        "loadgen.challenge_p50_us",
        p_us(&sorted(w.rec.challenge_ns.clone()), 0.5).unwrap_or(0.0),
    ));
    out.push((
        "loadgen.grant_p50_us",
        p_us(&sorted(w.rec.grant_ns.clone()), 0.5).unwrap_or(0.0),
    ));
    out.push((
        "loadgen.failed_share",
        w.rec.failed as f64 / (w.rec.completed + w.rec.failed).max(1) as f64,
    ));
}

const STAGE_METRICS: [&str; 8] = [
    "core.stage.score.ns_per_item",
    "core.stage.bypass.ns_per_item",
    "core.stage.policy.ns_per_item",
    "core.stage.issue.ns_per_item",
    "core.stage.request_telemetry.ns_per_item",
    "core.stage.verify.ns_per_item",
    "core.stage.charge.ns_per_item",
    "core.stage.solution_telemetry.ns_per_item",
];

/// Runs `workload` once. Untraced: `SETUPS` set-ups, warm-up, one window
/// of `seconds`; the report carries the end-to-end metrics and the (C)
/// per-layer ones. Traced: one set-up, warm-up, an untraced reference
/// window and a traced window of `seconds / 2` each, the throttle probe
/// (`trust_mix`), the layer probe; the report carries every per-layer
/// metric and `trace_out` receives the span file.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_out: Option<&std::path::Path>,
) -> io::Result<Report> {
    let mut notes = Vec::new();
    let mut failures = Vec::new();

    // Half the set-ups run before the windows and half after them, so
    // `setup_s` samples the host twenty seconds apart, not one instant.
    let mut setup_s = Vec::new();
    let mut timed_open = || -> io::Result<Session> {
        let t = Instant::now();
        let session = Session::open(workload, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(session)
    };
    let setups = if traced { 1 } else { SETUPS };
    let mut session = timed_open()?;
    for _ in 1..setups.div_ceil(2) {
        drop(session);
        session = timed_open()?;
    }

    let warmup = session.window(WARMUP_S, false)?;
    reconcile(&warmup, workload, &mut failures);

    let window_s = if traced {
        (seconds / 2).max(1)
    } else {
        seconds
    };
    let w = session.window(window_s, false)?;
    reconcile(&w, workload, &mut failures);

    // Host interference on this kind of box is one-sided and comes in
    // bursts of seconds, so each window is read at the quartile of its
    // slices on the good side (README, "Run shape").
    let rates: Vec<f64> = w.rec.slices.iter().map(|&n| n as f64).collect();
    let p50 = sliced_percentile_us(&w.rec.lat_ns, 0.5);
    let cpu = w.sliced_cpu_us_per_op();
    let slo_share: Vec<f64> = w
        .rec
        .due
        .chunks(LATENCY_SLICE_S)
        .zip(w.rec.within_slo.chunks(LATENCY_SLICE_S))
        .filter(|(due, _)| due.iter().sum::<u64>() > 0)
        .map(|(due, ok)| ok.iter().sum::<u64>() as f64 / due.iter().sum::<u64>() as f64)
        .collect();
    let samples: usize = w.rec.lat_ns.iter().map(Vec::len).sum();
    // `setup_s` is filled in once the second half of the set-ups has run.
    let mut end_to_end = vec![("setup_s", 0.0), ("ops_per_s", quantile(&rates, 0.75))];
    if p50.is_empty() {
        notes.push(format!("op_p50_us refused: {samples} samples are too few"));
    } else {
        end_to_end.push(("op_p50_us", quantile(&p50, 0.25)));
    }
    end_to_end.push((
        "server_cpu_us_per_op",
        if cpu.is_empty() {
            w.server_cpu_us_per_op()
        } else {
            quantile(&cpu, 0.25)
        },
    ));
    end_to_end.push(("within_slo_share", median(&slo_share)));
    notes.push(format!(
        "window {window_s} s: {} ops in window, {} completed incl. drain, {} failed; slo {} ms",
        samples,
        w.rec.completed,
        w.rec.failed,
        workload.slo().as_millis()
    ));
    let rounded = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    };
    notes.push(format!("ops per 1 s slice: {:?}", w.rec.slices));
    notes.push(format!(
        "server cpu us/op per 1 s slice: {:?}",
        rounded(&cpu)
    ));
    notes.push(format!(
        "op p50 us per {LATENCY_SLICE_S} s slice: {:?}",
        rounded(&p50)
    ));

    let mut per_layer = Vec::new();
    counter_metrics(&w, &mut per_layer);
    let p99 = sliced_percentile_us(&w.rec.lat_ns, 0.99);
    per_layer.push((
        "loadgen.op_p99_us",
        if p99.is_empty() {
            0.0
        } else {
            quantile(&p99, 0.25)
        },
    ));
    per_layer.push(("loadgen.window_ops", samples as f64));
    let mut attempted = w.rec.completed + w.rec.failed;
    let mut failed = w.rec.failed;
    failures.extend(w.rec.failures.iter().cloned());
    failures.extend(warmup.rec.failures.iter().cloned());

    if traced {
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ring_capacity: 1 << 17,
            shards: 8,
            // The flight recorder is not under test; abuse_reject would
            // trip it on the first snapshot.
            triggers: TriggerConfig {
                max_rejections_per_s: f64::INFINITY,
                max_stage_p99_ns: 0,
            },
        }));
        if !session.dep.framework.set_tracer(Arc::clone(&tracer)) {
            return Err(io::Error::other("framework already had a tracer"));
        }
        alloc::set_counting(true);
        let traced_window = session.window(window_s, true);
        alloc::set_counting(false);
        let t = traced_window?;
        reconcile(&t, workload, &mut failures);
        failures.extend(t.rec.failures.iter().cloned());
        attempted += t.rec.completed + t.rec.failed;
        failed += t.rec.failed;

        let ops = t.rec.completed.max(1) as f64;
        per_layer.push((
            "net.allocs_per_op",
            (t.after.allocs.server_allocs - t.before.allocs.server_allocs) as f64 / ops,
        ));
        per_layer.push((
            "net.alloc_bytes_per_op",
            (t.after.allocs.server_bytes - t.before.allocs.server_bytes) as f64 / ops,
        ));
        per_layer.push((
            "trace.overhead_share",
            t.server_cpu_us_per_op() / w.server_cpu_us_per_op() - 1.0,
        ));
        per_layer.push(("trace.spans_dropped", tracer.dropped() as f64));
        let spans = t.rec.spans.as_ref().expect("traced window records spans");
        span_metrics(spans, &mut per_layer, &mut notes);

        if workload == Workload::TrustMix {
            throttle_metrics(&session.dep, &mut per_layer, &mut failures)?;
        }

        let (probe_metrics, budget_ns) = probe::run(&session.dep, workload, seed)?;
        let reject_over_accept = probe_metrics
            .iter()
            .find(|(n, _)| *n == "pow.verifier.reject_over_accept")
            .map_or(0.0, |&(_, v)| v);
        if reject_over_accept > 1.25 {
            notes.push(format!(
                "WARNING: pow.verifier.reject_over_accept = {reject_over_accept:.2}: refusing the dearest bad submission costs over 1.25x an accept"
            ));
        }
        per_layer.extend(probe_metrics);
        let cpu_us = w.server_cpu_us_per_op();
        per_layer.push(("budget.probe_us_per_op", budget_ns / 1_000.0));
        per_layer.push(("budget.accounted_share", budget_ns / 1_000.0 / cpu_us));
        per_layer.push(("budget.residual_us_per_op", cpu_us - budget_ns / 1_000.0));

        if let Some(path) = trace_out {
            let mut text = spans.to_jsonl();
            let server_spans = tracer.spans();
            notes.push(format!(
                "trace: {} loadgen spans written (of {} recorded), {} server spans retained",
                spans.raw.len(),
                spans.totals.values().map(|t| t.0).sum::<u64>(),
                server_spans.len()
            ));
            for span in server_spans.iter().take(20_000) {
                text.push_str(&span.to_jsonl());
                text.push('\n');
            }
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(path, text)?;
        }
    }

    drop(session);
    for _ in 0..setups / 2 {
        drop(timed_open()?);
    }
    end_to_end[0].1 = median(&setup_s);
    // Read last: the traced window and the probe are part of the run.
    end_to_end.push(("peak_rss_mib", proc::peak_rss_mib()?));

    for failure in &failures {
        notes.push(format!("ORACLE: {failure}"));
    }
    Ok(Report {
        workload,
        seed,
        correct: failures.is_empty() && failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    })
}

/// (T): where the loadgen's time went, from its span log. The op span's
/// self time is its duration minus what its steps cover.
fn span_metrics(spans: &SpanLog, out: &mut Vec<(&'static str, f64)>, notes: &mut Vec<String>) {
    let (op_spans, op_ns) = spans.totals.get("op").copied().unwrap_or((0, 0));
    let steps_ns: u64 = spans
        .totals
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, t)| t.1)
        .sum();
    out.push((
        "loadgen.op_self_us",
        op_ns.saturating_sub(steps_ns) as f64 / 1_000.0 / op_spans.max(1) as f64,
    ));
    let connects = sorted(
        spans
            .raw
            .iter()
            .filter(|s| s.name == "connect")
            .map(|s| s.duration_ns)
            .collect(),
    );
    out.push((
        "net.accept.conn_setup_p50_us",
        p_us(&connects, 0.5).unwrap_or(0.0),
    ));
    let breakdown: Vec<String> = spans
        .totals
        .iter()
        .map(|(name, (n, ns))| {
            format!(
                "{name} {:.2} us x {n}",
                *ns as f64 / 1_000.0 / (*n).max(1) as f64
            )
        })
        .collect();
    notes.push(format!("loadgen spans (mean): {}", breakdown.join(", ")));
}

/// The paper's Figure-2 reading: how much longer an untrusted client's
/// fetch takes than a trusted one's, and the hashes behind it.
fn throttle_metrics(
    dep: &Deployment,
    out: &mut Vec<(&'static str, f64)>,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut scratch = Recorder::new(1, std::time::Duration::ZERO, false);
    let probe = trust_mix::throttle_probe(dep, &mut scratch, trust_mix::PROBE_FETCHES)?;
    let ratio = median_u64(&probe.untrusted_fetch_ns) / median_u64(&probe.trusted_fetch_ns);
    out.push((
        "pow.solver.attempts_per_solve.trusted",
        median_u64(&probe.trusted_attempts),
    ));
    out.push((
        "pow.solver.attempts_per_solve.untrusted",
        median_u64(&probe.untrusted_attempts),
    ));
    out.push(("paper.throttle_ratio", ratio));
    if ratio < 4.0 {
        failures.push(format!(
            "paper.throttle_ratio is {ratio:.2}, the paper's claim needs at least 4"
        ));
    }
    Ok(())
}
