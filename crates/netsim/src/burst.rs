//! Pipelined-burst admission: the batch path measured against the
//! sequential path it must be equivalent to.
//!
//! The scenario models the traffic the TCP server's frame-draining loop
//! produces: clients whose requests arrive in pipelined bursts of `k`,
//! admitted through [`aipow_core::Framework::handle_request_batch`] in
//! one pipeline pass per burst. Two identically configured frameworks
//! run the same request schedule — one a request at a time, one a burst
//! at a time — and the scenario reports:
//!
//! - **decision equivalence**: every burst's batch decisions must equal
//!   the sequential path's (score, bypass flag, difficulty), which is
//!   the batching correctness claim at scenario scale (the
//!   `batch_equivalence` proptest proves it exhaustively at unit
//!   scale);
//! - **admission latency**: per-request p50/p99 for both paths, where
//!   the batch path's per-request cost must *hold* (not regress) as the
//!   fixed costs amortize across the burst.
//!
//! Like [`crate::contended`], this is a real-thread measurement against
//! a live framework, machine-dependent by design; the decision
//! equivalence half is exact on any machine.

use aipow_core::{AdmissionDecision, Framework, FrameworkBuilder, FrameworkConfig};
use aipow_policy::LinearPolicy;
use aipow_reputation::{FeatureVector, ReputationModel, ReputationScore};
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

/// Scores lane 0 of the feature vector directly, so the scenario can
/// drive a mix of bypassed and challenged decisions from plain data.
#[derive(Debug, Clone, Copy)]
struct Lane0Model;

impl ReputationModel for Lane0Model {
    fn score(&self, features: &FeatureVector) -> ReputationScore {
        ReputationScore::new(features.get(0).clamp(0.0, 10.0)).expect("clamped into range")
    }

    fn name(&self) -> &'static str {
        "lane0"
    }
}

/// Parameters for the burst measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstConfig {
    /// Pipelined requests per burst (the `k` the server's frame drain
    /// would collect from one connection wakeup).
    pub burst_len: usize,
    /// Bursts to run (each from one client, round-robin).
    pub bursts: usize,
    /// Distinct clients cycling through the bursts; client scores are
    /// spread over the policy range so decisions are heterogeneous
    /// (some bypassed, most challenged at varying difficulties).
    pub clients: usize,
    /// Framework batch ceiling (`FrameworkConfig::max_batch`); bursts
    /// longer than this are chunked by the framework itself.
    pub max_batch: usize,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            burst_len: 32,
            bursts: 400,
            clients: 16,
            max_batch: 128,
        }
    }
}

/// The measured outcome of one burst run.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstReport {
    /// Requests per burst.
    pub burst_len: usize,
    /// Total requests admitted per path.
    pub requests: usize,
    /// Decisions where the batch path diverged from the sequential path
    /// (must be zero).
    pub mismatches: usize,
    /// Bypass admissions observed (sanity: the schedule exercises both
    /// decision shapes).
    pub bypassed: usize,
    /// Sequential per-request admission latency, ns.
    pub seq_p50_ns: f64,
    /// Sequential 99th percentile, ns.
    pub seq_p99_ns: f64,
    /// Batch-path per-request admission latency (burst time / burst
    /// length), ns.
    pub batch_p50_ns: f64,
    /// Batch-path 99th percentile, ns.
    pub batch_p99_ns: f64,
}

impl BurstReport {
    /// Sequential p50 over batch p50: >1 means the batch path is
    /// faster per request.
    pub fn p50_speedup(&self) -> f64 {
        self.seq_p50_ns / self.batch_p50_ns.max(1.0)
    }
}

fn build_framework(max_batch: usize) -> Framework {
    FrameworkBuilder::new()
        .master_key([0x42u8; 32])
        .model(Lane0Model)
        .policy(LinearPolicy::policy2())
        .config(FrameworkConfig {
            bypass_threshold: Some(1.0),
            max_batch,
            ..Default::default()
        })
        .build()
        .expect("framework builds")
}

fn client_ip(client: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(0x0A20_0000u32 | client as u32))
}

/// The per-client score schedule: spread over `[0, 8]` so client 0
/// bypasses (score 0 < threshold 1) and the rest land on distinct
/// Policy-2 difficulties.
fn client_features(client: usize, clients: usize) -> FeatureVector {
    let score = 8.0 * client as f64 / clients.max(1) as f64;
    FeatureVector::zeros().with(0, score)
}

fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64
}

/// Runs the same burst schedule through the sequential and batch paths
/// and compares decisions burst by burst.
pub fn run_burst(config: &BurstConfig) -> BurstReport {
    let burst_len = config.burst_len.max(1);
    let seq = build_framework(config.max_batch.max(1));
    let batch = build_framework(config.max_batch.max(1));

    let features: Vec<FeatureVector> = (0..config.clients.max(1))
        .map(|c| client_features(c, config.clients.max(1)))
        .collect();

    let mut mismatches = 0usize;
    let mut bypassed = 0usize;
    let mut seq_ns: Vec<u64> = Vec::with_capacity(config.bursts);
    let mut batch_ns: Vec<u64> = Vec::with_capacity(config.bursts);

    for b in 0..config.bursts {
        let client = b % features.len();
        let ip = client_ip(client);
        let fv = &features[client];

        let start = Instant::now();
        let seq_decisions: Vec<AdmissionDecision> =
            (0..burst_len).map(|_| seq.handle_request(ip, fv)).collect();
        seq_ns.push((start.elapsed().as_nanos() as u64) / burst_len as u64);

        let requests: Vec<(IpAddr, &FeatureVector)> = vec![(ip, fv); burst_len];
        let start = Instant::now();
        let batch_decisions = batch.handle_request_batch(&requests);
        batch_ns.push((start.elapsed().as_nanos() as u64) / burst_len as u64);

        for (s, g) in seq_decisions.iter().zip(&batch_decisions) {
            let same = match (s, g) {
                (AdmissionDecision::Admit { score: a }, AdmissionDecision::Admit { score: b }) => {
                    bypassed += 1;
                    a == b
                }
                (AdmissionDecision::Challenge(a), AdmissionDecision::Challenge(b)) => {
                    a.score == b.score && a.difficulty == b.difficulty
                }
                _ => false,
            };
            if !same {
                mismatches += 1;
            }
        }
    }

    seq_ns.sort_unstable();
    batch_ns.sort_unstable();
    BurstReport {
        burst_len,
        requests: config.bursts * burst_len,
        mismatches,
        bypassed,
        seq_p50_ns: percentile(&seq_ns, 0.50),
        seq_p99_ns: percentile(&seq_ns, 0.99),
        batch_p50_ns: percentile(&batch_ns, 0.50),
        batch_p99_ns: percentile(&batch_ns, 0.99),
    }
}

/// Renders the report as a Markdown table for EXPERIMENTS.md.
pub fn burst_to_markdown(report: &BurstReport) -> String {
    let mut out = String::new();
    out.push_str("| burst | requests | seq p50 (ns) | seq p99 (ns) | batch p50 (ns) | batch p99 (ns) | p50 speedup |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    out.push_str(&format!(
        "| {} | {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.2}x |\n",
        report.burst_len,
        report.requests,
        report.seq_p50_ns,
        report.seq_p99_ns,
        report.batch_p50_ns,
        report.batch_p99_ns,
        report.p50_speedup(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BurstConfig {
        BurstConfig {
            burst_len: 8,
            bursts: 30,
            clients: 6,
            max_batch: 32,
        }
    }

    #[test]
    fn burst_decisions_always_match_sequential() {
        let report = run_burst(&tiny());
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.requests, 240);
        assert!(report.bypassed > 0, "schedule must exercise the bypass");
        assert!(report.seq_p50_ns > 0.0);
        assert!(report.batch_p50_ns > 0.0);
    }

    #[test]
    fn burst_longer_than_max_batch_is_chunked_not_truncated() {
        let report = run_burst(&BurstConfig {
            burst_len: 16,
            bursts: 10,
            clients: 3,
            max_batch: 4,
        });
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.requests, 160);
    }

    #[test]
    fn markdown_has_one_data_row() {
        let md = burst_to_markdown(&run_burst(&tiny()));
        assert_eq!(md.lines().count(), 3);
        assert!(md.contains("| 8 | 240 |"));
    }
}
