//! The benchmark's names: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! generated from these tables (`-- manifest`), and a test keeps the two
//! identical.

use std::time::Duration;

use crate::deploy::Shape;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PingFloor,
    ExchangeSingle,
    ExchangePipelined,
    AbuseReject,
    TrustMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PingFloor,
        Workload::ExchangeSingle,
        Workload::ExchangePipelined,
        Workload::AbuseReject,
        Workload::TrustMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingFloor => "ping_floor",
            Workload::ExchangeSingle => "exchange_single",
            Workload::ExchangePipelined => "exchange_pipelined",
            Workload::AbuseReject => "abuse_reject",
            Workload::TrustMix => "trust_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PingFloor => "Closed loop, one Ping per round trip on each of 2 connections: only net::reactor and wire run, so admission-path changes must show no change here and net-layer changes show largest.",
            Workload::ExchangeSingle => "Closed loop, full Figure-1 exchange one frame per round trip: every batch is size 1, the shape a many-sources flood produces, where per-frame syscall, wakeup and batch-1 issue/verify dominate.",
            Workload::ExchangePipelined => "Closed loop, the exchange in bursts of 32 solutions + 32 requests on 2 staggered connections: syscalls amortised, so batch issue/verify, the wide kernel and codec/queue copies set capacity.",
            Workload::AbuseReject => "Closed loop, 32-deep bursts that must all be refused (forged MAC, bad nonce, replay, expired): an accept-path gain paid for on the reject path shows here.",
            Workload::TrustMix => "Open loop, the paper's scenario: DAbR model, policy 2, trusted fetches of 16 KiB against an address-cycling flood, one short-lived connection per op, rate limiter evicting.",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::TrustMix => Shape::TrustMix,
            _ => Shape::Floor,
        }
    }

    /// Frames per burst on each connection.
    pub fn depth(self) -> usize {
        match self {
            Workload::ExchangePipelined | Workload::AbuseReject => crate::closed::PIPELINE_DEPTH,
            _ => 1,
        }
    }

    /// The frozen latency limit `within_slo_share` is counted against:
    /// 4 x the workload's `op_p50_us` on seed 1, rounded up to a whole
    /// millisecond (README, "Frozen constants").
    pub fn slo(self) -> Duration {
        Duration::from_millis(match self {
            Workload::PingFloor => 1,
            Workload::ExchangeSingle => 1,
            Workload::ExchangePipelined => 3,
            Workload::AbuseReject => 1,
            Workload::TrustMix => 2,
        })
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// What a client or operator of the system sees. Every one is reported
/// on every workload and is never zero.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
    e2e("server_cpu_us_per_op", "us", false, 0.25),
    e2e("within_slo_share", "share", true, 0.10),
    e2e("peak_rss_mib", "MiB", false, 0.25),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Single-layer readings (`<module>.<metric>`). A metric that does not
/// apply to a workload reads 0 there. (C) counter deltas over the
/// untraced window, (T) the traced window, (P) the in-process layer
/// probe; the README glossary says which is which.
pub const PER_LAYER: [PerLayer; 71] = [
    // net
    higher("net.reactor.busy_share", "share"),
    lower("net.reactor.wakeups_per_op", "count"),
    higher("net.reactor.ready_events_per_wakeup", "count"),
    lower("net.gate.refused", "count"),
    lower("net.reactor.outbound_overflow_closes", "count"),
    lower("net.reactor.reaped_idle", "count"),
    lower("net.allocs_per_op", "count"),
    lower("net.alloc_bytes_per_op", "B"),
    lower("net.accept.conn_setup_p50_us", "us"),
    lower("net.conn.assemble_ns_per_frame", "ns"),
    lower("net.conn.queue_ns_per_frame", "ns"),
    lower("net.dispatch.ns_per_frame.b1", "ns"),
    lower("net.dispatch.ns_per_frame.b32", "ns"),
    // wire
    lower("wire.encode_ns_per_frame", "ns"),
    lower("wire.decode_ns_per_frame", "ns"),
    lower("wire.bytes_per_op", "B"),
    // core
    lower("core.stage.score.ns_per_item", "ns"),
    lower("core.stage.bypass.ns_per_item", "ns"),
    lower("core.stage.policy.ns_per_item", "ns"),
    lower("core.stage.issue.ns_per_item", "ns"),
    lower("core.stage.request_telemetry.ns_per_item", "ns"),
    lower("core.stage.verify.ns_per_item", "ns"),
    lower("core.stage.charge.ns_per_item", "ns"),
    lower("core.stage.solution_telemetry.ns_per_item", "ns"),
    higher("core.batch.items_per_batch.request", "count"),
    higher("core.batch.items_per_batch.solution", "count"),
    lower("core.rate_limited", "count"),
    lower("core.handle_request_ns.b1", "ns"),
    lower("core.handle_request_ns.b32", "ns"),
    lower("core.handle_solution_ns.b1", "ns"),
    lower("core.handle_solution_ns.b32", "ns"),
    lower("core.rate_limiter.allow_ns", "ns"),
    lower("core.features.lookup_ns", "ns"),
    // pow
    lower("pow.issuer.issue_ns.b1", "ns"),
    lower("pow.issuer.issue_ns.b32", "ns"),
    lower("pow.verifier.accept_ns.b1", "ns"),
    lower("pow.verifier.accept_ns.b32", "ns"),
    lower("pow.verifier.reject_ns.forged_mac", "ns"),
    lower("pow.verifier.reject_ns.bad_nonce", "ns"),
    lower("pow.verifier.reject_ns.replay", "ns"),
    lower("pow.verifier.reject_ns.expired", "ns"),
    lower("pow.verifier.reject_over_accept", "ratio"),
    lower("pow.replay.check_insert_ns", "ns"),
    higher("pow.solver.attempts_per_s.lanes1", "1/s"),
    higher("pow.solver.attempts_per_s.auto", "1/s"),
    lower("pow.replay.len", "count"),
    lower("pow.replay.evicted_live", "count"),
    lower("pow.solver.attempts_per_solve.trusted", "count"),
    higher("pow.solver.attempts_per_solve.untrusted", "count"),
    higher("paper.throttle_ratio", "ratio"),
    // reputation, policy, shard, crypto
    lower("reputation.score_ns", "ns"),
    lower("policy.difficulty_ns", "ns"),
    lower("crypto.sha256_ns_per_hash", "ns"),
    lower("policy.difficulty_bits.trusted_p50", "bits"),
    higher("policy.difficulty_bits.untrusted_p50", "bits"),
    lower("shard.eviction_scan_steps_per_op", "count"),
    lower("shard.global_eviction_folds", "count"),
    // trace, loadgen, budget
    lower("trace.overhead_share", "share"),
    lower("trace.spans_dropped", "count"),
    lower("loadgen.busy_share", "share"),
    lower("loadgen.cpu_us_per_op", "us"),
    lower("loadgen.late_p99_us", "us"),
    lower("loadgen.op_p99_us", "us"),
    lower("loadgen.challenge_p50_us", "us"),
    lower("loadgen.grant_p50_us", "us"),
    lower("loadgen.failed_share", "share"),
    lower("loadgen.op_self_us", "us"),
    higher("loadgen.window_ops", "count"),
    higher("budget.accounted_share", "share"),
    lower("budget.residual_us_per_op", "us"),
    lower("budget.probe_us_per_op", "us"),
];

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: {}",
                w.name(),
                w.why().len()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }
}
