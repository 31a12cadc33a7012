//! The *tracefire* scenario: end-to-end proof of the tracing subsystem.
//!
//! A benign client and a flooder drive the real admission pipeline with
//! a tracer attached at 1-in-1 sampling. The flooder submits
//! garbage solutions (a valid issued challenge with nonce 0) fast enough
//! to push the rejection rate through the flight recorder's
//! `rejection_rate` trigger on the next metrics heartbeat. The scenario
//! then *hand-parses the frozen JSONL dump* — not the tracer's in-memory
//! API — and checks the structural claims the observability layer makes:
//!
//! - the trigger tripped, with reason `rejection_rate`;
//! - at least one of the flooder's request chains is **complete**
//!   (slots 0..=4, `score → bypass → policy → issue →
//!   request_telemetry`, in order);
//! - **zero broken stage orderings**: within every trace, slots appear
//!   in strictly increasing order (the per-shard rings preserve
//!   emission order, and a trace's spans all land in one shard);
//! - distinct requests carry distinct trace IDs.
//!
//! Driven by the clock, not wall time: the run is deterministic modulo
//! span durations (which the assertions never read).
//!
//! ```
//! use aipow_netsim::tracefire::{run_tracefire, TracefireConfig};
//!
//! let report = run_tracefire(&TracefireConfig::default());
//! assert!(report.tripped && report.broken_orderings == 0);
//! ```

use aipow_core::{Framework, FrameworkBuilder};
use aipow_pow::{ManualClock, NonceWidth, Solution, TimeSource};
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use aipow_trace::{TraceConfig, Tracer, TriggerConfig};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// Parameters for one tracefire run.
#[derive(Debug, Clone, PartialEq)]
pub struct TracefireConfig {
    /// Benign requests before the flood (request chains only).
    pub benign_requests: usize,
    /// Flood iterations; each is one request plus one garbage solution,
    /// so each contributes one rejection to the rate window.
    pub flood_requests: usize,
    /// The `rejection_rate` trigger threshold handed to the tracer.
    pub max_rejections_per_s: f64,
    /// Per-shard span ring capacity (the flight recorder's memory).
    pub ring_capacity: usize,
}

impl Default for TracefireConfig {
    fn default() -> Self {
        TracefireConfig {
            benign_requests: 32,
            flood_requests: 200,
            max_rejections_per_s: 50.0,
            ring_capacity: 4_096,
        }
    }
}

/// One parsed span line from the flight dump.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DumpSpan {
    trace_id: u64,
    slot: u8,
    ip: String,
}

/// What the frozen dump proved.
#[derive(Debug, Clone, PartialEq)]
pub struct TracefireReport {
    /// Whether the flight recorder tripped during the run.
    pub tripped: bool,
    /// The trip reason (empty when `tripped` is false).
    pub reason: String,
    /// Spans captured in the frozen dump.
    pub dump_spans: usize,
    /// Distinct trace IDs in the dump.
    pub distinct_traces: usize,
    /// Flooder request chains in the dump that are complete
    /// (slots 0,1,2,3,4 in order).
    pub complete_flooder_chains: usize,
    /// Traces whose slots appear out of order — must be zero.
    pub broken_orderings: usize,
    /// Spans the tracer dropped (ring full or contended) during the run.
    pub dropped: u64,
}

fn tracefire_framework(config: &TracefireConfig) -> (Framework, ManualClock, Arc<Tracer>) {
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_every: 1,
        ring_capacity: config.ring_capacity,
        triggers: TriggerConfig {
            max_rejections_per_s: config.max_rejections_per_s,
            max_stage_p99_ns: 0,
        },
        ..TraceConfig::default()
    }));
    // Start the clock away from zero: the metrics rate window treats
    // `prev_ms == 0` as "no previous sample".
    let clock = ManualClock::at(5_000);
    let framework = FrameworkBuilder::new()
        .master_key([0x7Au8; 32])
        .model(FixedScoreModel::new(
            ReputationScore::new(5.0).expect("score 5.0 in [0,10]: range invariant"),
        ))
        .policy(aipow_policy::LinearPolicy::policy2())
        .clock(Arc::new(clock.clone()) as Arc<dyn TimeSource>)
        .tracer(Arc::clone(&tracer))
        .build()
        .expect("static config: builder invariant");
    (framework, clock, tracer)
}

/// Extracts `"key":<integer>` from one JSONL span line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts `"key":"<string>"` from one JSONL span line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    line[start..].split('"').next()
}

fn parse_dump(jsonl: &str) -> Vec<DumpSpan> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| DumpSpan {
            trace_id: json_u64(line, "trace_id").expect("dump format invariant: trace_id"),
            slot: json_u64(line, "slot").expect("dump format invariant: slot") as u8,
            ip: json_str(line, "ip")
                .expect("dump format invariant: ip")
                .to_string(),
        })
        .collect()
}

/// Runs the scenario and reports what the frozen dump contained.
pub fn run_tracefire(config: &TracefireConfig) -> TracefireReport {
    let (framework, clock, tracer) = tracefire_framework(config);
    let benign = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
    let flooder = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 66));

    // Establish the rate window before anything is counted.
    let _ = framework.metrics_snapshot();

    // Benign phase: plain request chains.
    for _ in 0..config.benign_requests {
        let _ = framework.handle_request(benign, &FeatureVector::zeros());
    }

    // Flood phase: each iteration issues a real challenge to the flooder
    // and answers it with nonce 0 — a structurally valid submission that
    // (essentially surely) misses the target, so every iteration is one
    // rejection in the rate window without any solver work.
    for _ in 0..config.flood_requests {
        if let Some(issued) = framework
            .handle_request(flooder, &FeatureVector::zeros())
            .challenge()
        {
            let garbage = Solution {
                backend: issued.challenge.backend(),
                challenge: issued.challenge,
                nonce: 0,
                width: NonceWidth::U64,
            };
            let _ = framework.handle_solution(&garbage, flooder);
        }
    }

    // One second later the heartbeat sees the rejection rate and (if the
    // flood was fast enough for the configured threshold) trips the
    // flight recorder, freezing the rings.
    clock.advance(1_000);
    let _ = framework.metrics_snapshot();

    let dump = tracer.flight_dump();
    let (tripped, reason, jsonl, dump_spans) = match dump {
        Some(d) => (true, d.reason, d.jsonl, d.spans),
        None => (false, String::new(), String::new(), 0),
    };

    // Group the dump's lines by trace, preserving per-shard emission
    // order (a trace's spans all land in one shard, so per-trace order
    // survives the dump).
    let spans = parse_dump(&jsonl);
    let mut chains: HashMap<u64, Vec<&DumpSpan>> = HashMap::new();
    for span in &spans {
        chains.entry(span.trace_id).or_default().push(span);
    }

    let flooder_ip = flooder.to_string();
    let mut complete_flooder_chains = 0;
    let mut broken_orderings = 0;
    for chain in chains.values() {
        if chain.windows(2).any(|w| w[1].slot <= w[0].slot) {
            broken_orderings += 1;
        }
        let slots: Vec<u8> = chain.iter().map(|s| s.slot).collect();
        if chain[0].ip == flooder_ip && slots == [0, 1, 2, 3, 4] {
            complete_flooder_chains += 1;
        }
    }

    TracefireReport {
        tripped,
        reason,
        dump_spans,
        distinct_traces: chains.len(),
        complete_flooder_chains,
        broken_orderings,
        dropped: tracer.dropped(),
    }
}

/// Renders a report as a Markdown table for EXPERIMENTS.md.
pub fn tracefire_to_markdown(report: &TracefireReport) -> String {
    format!(
        "| tripped | reason | dump spans | traces | complete flooder chains | broken orderings | dropped |\n\
         |---|---|---:|---:|---:|---:|---:|\n\
         | {} | {} | {} | {} | {} | {} | {} |\n",
        report.tripped,
        if report.reason.is_empty() {
            "-"
        } else {
            &report.reason
        },
        report.dump_spans,
        report.distinct_traces,
        report.complete_flooder_chains,
        report.broken_orderings,
        report.dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracefire_trips_and_freezes_ordered_chains() {
        let report = run_tracefire(&TracefireConfig::default());
        assert!(report.tripped, "flood did not trip the recorder");
        assert_eq!(report.reason, "rejection_rate");
        assert!(report.dump_spans > 0);
        assert!(
            report.complete_flooder_chains >= 1,
            "no complete flooder chain in the dump: {report:?}"
        );
        assert_eq!(report.broken_orderings, 0, "{report:?}");
        // Benign + flooder requests and flood solutions each carry their
        // own trace.
        assert!(report.distinct_traces > 200, "{report:?}");
    }

    #[test]
    fn quiet_run_does_not_trip() {
        let report = run_tracefire(&TracefireConfig {
            flood_requests: 10,
            max_rejections_per_s: 50.0,
            ..Default::default()
        });
        assert!(!report.tripped, "{report:?}");
        assert_eq!(report.dump_spans, 0);
    }

    #[test]
    fn markdown_renders_both_shapes() {
        let report = run_tracefire(&TracefireConfig {
            benign_requests: 4,
            flood_requests: 60,
            ..Default::default()
        });
        let md = tracefire_to_markdown(&report);
        assert!(md.contains("tripped"));
        assert!(md.lines().count() >= 3);
    }

    #[test]
    fn dump_line_parsers_extract_fields() {
        let line = "{\"trace_id\":7,\"ip\":\"10.0.0.1\",\"stage\":\"score\",\"slot\":0,\
                    \"batch\":1,\"start_ns\":5,\"duration_ns\":9,\"difficulty\":null,\
                    \"verdict\":\"pending\"}";
        assert_eq!(json_u64(line, "trace_id"), Some(7));
        assert_eq!(json_u64(line, "slot"), Some(0));
        assert_eq!(json_str(line, "ip"), Some("10.0.0.1"));
        assert_eq!(json_u64(line, "missing"), None);
    }
}
