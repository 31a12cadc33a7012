//! Policy-routed puzzle backends at scenario scale: suspicious clients
//! pay memory-hard, benign clients stay on SHA-256 and feel nothing.
//!
//! The scenario drives two identically keyed frameworks with the same
//! mixed population — benign clients scoring low, flooders scoring past
//! the routing threshold:
//!
//! - **routed**: a [`ThresholdRouter`](aipow_policy::ThresholdRouter)
//!   issues memory-hard challenges to every client scoring past the
//!   threshold;
//! - **baseline**: the default SHA-256 router, i.e. the pre-seam
//!   behavior.
//!
//! It reports three claims:
//!
//! - **routing**: in the routed framework every benign challenge names
//!   the SHA-256 backend and every flooder challenge names memory-hard
//!   (violations are counted and must be 0);
//! - **asymmetric cost**: the flooders' aggregate wall-clock solve cost
//!   in the routed framework against the all-SHA baseline — the knob
//!   the router exists to turn — must rise multiplicatively, while the
//!   benign clients get the very puzzles the baseline issues them (same
//!   backend, same difficulty), so their end-to-end (request + solve +
//!   verify) latency stays flat;
//! - **seam equivalence**: a mixed schedule of SHA-256 and memory-hard
//!   submissions (valid, forged-MAC, wrong-IP, backend-mismatched,
//!   unknown-backend, replayed) verified through a scalar-lane and a
//!   wide-lane framework must produce identical verdicts — the
//!   `PuzzleBackend` dispatch must not perturb the multi-buffer SHA
//!   fast path.
//!
//! As with [`crate::lanes`], the cost half is a live measurement and
//! machine-dependent; the routing and equivalence halves are exact.

use aipow_core::{Framework, FrameworkBuilder, FrameworkConfig};
use aipow_crypto::MAX_LANES;
use aipow_policy::LinearPolicy;
use aipow_pow::solver::{self, SolverOptions};
use aipow_pow::{BackendId, Challenge, Difficulty, Issuer, Solution};
use aipow_reputation::model::ReputationModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

/// Parameters for the backend-routing run.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendsConfig {
    /// Benign clients cycling through the schedule.
    pub benign_clients: usize,
    /// Total benign fetches (request → solve → submit round trips).
    pub benign_requests: usize,
    /// Total flooder solve-cost samples.
    pub flood_requests: usize,
    /// Benign feature value (scores below the routing threshold).
    pub benign_feature: f64,
    /// Flooder feature value (scores past the routing threshold).
    pub flooder_feature: f64,
    /// Score threshold past which the router issues memory-hard puzzles.
    pub route_threshold: f64,
    /// Memory-hard arena size in MiB.
    pub arena_mib: u8,
    /// Submissions per batch in the seam-equivalence schedule.
    pub verify_batch: usize,
    /// Batches in the seam-equivalence schedule.
    pub verify_batches: usize,
}

impl Default for BackendsConfig {
    fn default() -> Self {
        BackendsConfig {
            benign_clients: 8,
            benign_requests: 200,
            flood_requests: 16,
            benign_feature: 2.0,
            flooder_feature: 9.0,
            route_threshold: 6.0,
            arena_mib: 1,
            verify_batch: 16,
            verify_batches: 6,
        }
    }
}

/// The measured outcome of one backend-routing run.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendsReport {
    /// Benign challenges issued by the routed framework on SHA-256.
    pub benign_sha_challenges: usize,
    /// Flooder challenges issued by the routed framework on memory-hard.
    pub flooder_memhard_challenges: usize,
    /// Challenges the router sent to the wrong backend (must be 0).
    pub routing_violations: usize,
    /// Benign requests the routed and baseline frameworks issued on a
    /// different backend or difficulty (must be 0).
    pub benign_divergences: usize,
    /// Flooder aggregate solve nanoseconds, routed framework.
    pub flooder_routed_solve_ns: u64,
    /// Flooder aggregate solve nanoseconds, all-SHA baseline.
    pub flooder_baseline_solve_ns: u64,
    /// Benign end-to-end median nanoseconds, routed framework.
    pub benign_routed_p50_ns: u64,
    /// Benign end-to-end median nanoseconds, all-SHA baseline.
    pub benign_baseline_p50_ns: u64,
    /// Benign end-to-end p99 nanoseconds, routed framework.
    pub benign_routed_p99_ns: u64,
    /// Benign end-to-end p99 nanoseconds, all-SHA baseline.
    pub benign_baseline_p99_ns: u64,
    /// Mixed-backend submissions verified per lane path.
    pub verify_submissions: usize,
    /// Submissions whose verdict differed between the scalar-lane and
    /// wide-lane paths (must be 0).
    pub verdict_mismatches: usize,
    /// Accepted submissions in the seam schedule (sanity: > 0).
    pub accepted: usize,
    /// Rejected submissions in the seam schedule (sanity: > 0).
    pub rejected: usize,
}

impl BackendsReport {
    /// How much more the flood costs to solve once routed to
    /// memory-hard: routed aggregate over baseline aggregate.
    pub fn flood_cost_ratio(&self) -> f64 {
        self.flooder_routed_solve_ns as f64 / (self.flooder_baseline_solve_ns.max(1)) as f64
    }

    /// Benign median under routing over the baseline median (≈ 1 when
    /// benign clients are unaffected).
    pub fn benign_p50_ratio(&self) -> f64 {
        self.benign_routed_p50_ns as f64 / (self.benign_baseline_p50_ns.max(1)) as f64
    }

    /// Benign p99 under routing over the baseline p99. Reported, not
    /// gated: over a few hundred samples the p99 is one of the largest
    /// two, so a single preemption decides it.
    pub fn benign_p99_ratio(&self) -> f64 {
        self.benign_routed_p99_ns as f64 / (self.benign_baseline_p99_ns.max(1)) as f64
    }
}

const MASTER_KEY: [u8; 32] = [0x7B; 32];

/// Scores a client by its first feature — the scenario's stand-in for a
/// real flow-attribute model, so one framework can score benign and
/// flooder traffic differently.
#[derive(Debug)]
struct FeatureScoreModel;

impl ReputationModel for FeatureScoreModel {
    fn score(&self, features: &FeatureVector) -> ReputationScore {
        ReputationScore::new(features.get(0).clamp(0.0, 10.0))
            .expect("scenario invariant: clamped feature is a valid score")
    }
    fn name(&self) -> &'static str {
        "feature0"
    }
}

fn build_framework(config: &BackendsConfig, routed: bool, lanes: Option<usize>) -> Framework {
    FrameworkBuilder::new()
        .master_key(MASTER_KEY)
        .model(FeatureScoreModel)
        .policy(LinearPolicy::policy1())
        .config(FrameworkConfig {
            memory_hard_above: routed.then_some(config.route_threshold),
            memory_hard_arena_mib: Some(config.arena_mib),
            lanes,
            ..Default::default()
        })
        .build()
        .expect("scenario invariant: the fixed framework config is valid")
}

fn benign_ip(client: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(0x0A40_0000u32 | client as u32))
}

fn flooder_ip(request: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(0x0A50_0000u32 | request as u32))
}

/// The `pct`-th percentile of `sorted` (ascending), 0 when empty.
fn percentile_ns(sorted: &[u64], pct: usize) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[(n - 1).min(n * pct / 100)],
    }
}

/// One benign fetch round trip: request → solve → submit. Returns the
/// end-to-end nanoseconds and the puzzle issued: its backend and
/// difficulty.
fn fetch_roundtrip(
    fw: &Framework,
    ip: IpAddr,
    features: &FeatureVector,
) -> (u64, (BackendId, Difficulty)) {
    let start = Instant::now();
    let issued = fw
        .handle_request(ip, features)
        .challenge()
        .expect("scenario invariant: no bypass threshold is configured");
    let puzzle = (issued.challenge.backend(), issued.difficulty);
    let report = solver::solve(&issued.challenge, ip, &SolverOptions::default())
        .expect("scenario invariant: low-difficulty puzzles always solve");
    fw.handle_solution(&report.solution, ip)
        .expect("scenario invariant: an honest solve verifies");
    (start.elapsed().as_nanos() as u64, puzzle)
}

/// Re-tags a challenge with a corrupted MAC (the forged-stamp rejection).
fn forge_tag(challenge: &Challenge) -> Challenge {
    let mut tag = *challenge.tag();
    tag[0] ^= 0x01;
    Challenge::from_parts_backend(
        challenge.version(),
        challenge.backend(),
        challenge.backend_param(),
        *challenge.seed(),
        challenge.issued_at_ms(),
        challenge.ttl_ms(),
        challenge.difficulty(),
        challenge.client_ip(),
        tag,
    )
}

/// Runs the routed-vs-baseline population and the scalar-vs-wide mixed
/// verification schedule.
pub fn run_backends(config: &BackendsConfig) -> BackendsReport {
    let routed = build_framework(config, true, None);
    let baseline = build_framework(config, false, None);
    let benign_features = FeatureVector::zeros().with(0, config.benign_feature);
    let flooder_features = FeatureVector::zeros().with(0, config.flooder_feature);

    // Benign population: full round trips through both frameworks; the
    // routed one must keep them on SHA-256, issuing the baseline's puzzle.
    let mut benign_sha_challenges = 0usize;
    let mut routing_violations = 0usize;
    let mut benign_divergences = 0usize;
    let mut routed_lat = Vec::with_capacity(config.benign_requests);
    let mut baseline_lat = Vec::with_capacity(config.benign_requests);
    for i in 0..config.benign_requests.max(1) {
        let ip = benign_ip(i % config.benign_clients.max(1));
        let (ns, routed_puzzle) = fetch_roundtrip(&routed, ip, &benign_features);
        routed_lat.push(ns);
        if routed_puzzle.0 == BackendId::SHA256 {
            benign_sha_challenges += 1;
        } else {
            routing_violations += 1;
        }
        let (ns, baseline_puzzle) = fetch_roundtrip(&baseline, ip, &benign_features);
        baseline_lat.push(ns);
        if routed_puzzle != baseline_puzzle {
            benign_divergences += 1;
        }
    }
    routed_lat.sort_unstable();
    baseline_lat.sort_unstable();

    // Flood population: each framework issues to the flooder's score;
    // only the solve is timed — the cost the router is meant to inflate.
    let mut flooder_memhard_challenges = 0usize;
    let mut flooder_routed_solve_ns = 0u64;
    let mut flooder_baseline_solve_ns = 0u64;
    for i in 0..config.flood_requests.max(1) {
        let ip = flooder_ip(i);
        for (fw, expected, total) in [
            (
                &routed,
                BackendId::MEMORY_HARD,
                &mut flooder_routed_solve_ns,
            ),
            (&baseline, BackendId::SHA256, &mut flooder_baseline_solve_ns),
        ] {
            let issued = fw
                .handle_request(ip, &flooder_features)
                .challenge()
                .expect("scenario invariant: no bypass threshold is configured");
            if issued.challenge.backend() == expected {
                if expected == BackendId::MEMORY_HARD {
                    flooder_memhard_challenges += 1;
                }
            } else {
                routing_violations += 1;
            }
            let start = Instant::now();
            let report = solver::solve(&issued.challenge, ip, &SolverOptions::default())
                .expect("scenario invariant: flood-difficulty puzzles still solve");
            *total += start.elapsed().as_nanos() as u64;
            fw.handle_solution(&report.solution, ip)
                .expect("scenario invariant: an honest solve verifies");
        }
    }

    // Seam equivalence: a mixed SHA/memory-hard schedule with staged
    // corruptions, verified by a scalar-lane and a wide-lane framework.
    let scalar = build_framework(config, true, Some(1));
    let wide = build_framework(config, true, Some(MAX_LANES));
    let issuer = Issuer::new(&MASTER_KEY)
        .with_backend_param(BackendId::MEMORY_HARD, config.arena_mib.max(1));
    let difficulty = Difficulty::new(3).expect("scenario invariant: 3 bits is a valid difficulty");

    let mut verify_submissions = 0usize;
    let mut verdict_mismatches = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let batch_len = config.verify_batch.max(8);
    for b in 0..config.verify_batches.max(1) {
        let mut batch: Vec<(Solution, IpAddr)> = (0..batch_len)
            .map(|i| {
                let ip = benign_ip((b * batch_len + i) % 32);
                // Alternate backends within the batch so the verifier's
                // partition-by-backend path sees real interleaving.
                let backend = if i % 2 == 0 {
                    BackendId::SHA256
                } else {
                    BackendId::MEMORY_HARD
                };
                let challenge = issuer.issue_backend(ip, difficulty, backend);
                let report = solver::solve(&challenge, ip, &SolverOptions::default())
                    .expect("scenario invariant: a low-difficulty puzzle always solves");
                (report.solution, ip)
            })
            .collect();
        for (i, entry) in batch.iter_mut().enumerate() {
            match i % 8 {
                3 => {
                    // Claimed backend disagrees with the challenge's.
                    entry.0.backend = if entry.0.backend == BackendId::SHA256 {
                        BackendId::MEMORY_HARD
                    } else {
                        BackendId::SHA256
                    };
                }
                4 => {
                    // Unregistered backend id in the submission.
                    entry.0.backend = BackendId(0x63);
                }
                5 => {
                    entry.0.challenge = forge_tag(&entry.0.challenge);
                }
                6 => {
                    entry.1 = flooder_ip(0xFFFF);
                }
                _ => {}
            }
        }
        if batch_len > 7 {
            // An intra-batch replay, at the same index on both paths.
            let dup = batch[0].clone();
            batch[7] = dup;
        }

        let refs: Vec<(&Solution, IpAddr)> = batch.iter().map(|(s, ip)| (s, *ip)).collect();
        let scalar_out = scalar.handle_solution_batch(&refs);
        let wide_out = wide.handle_solution_batch(&refs);
        verify_submissions += refs.len();
        for (s, w) in scalar_out.iter().zip(&wide_out) {
            let same = match (s, w) {
                (Ok(a), Ok(b)) => {
                    accepted += 1;
                    a.difficulty == b.difficulty && a.client_ip == b.client_ip
                }
                (Err(a), Err(b)) => {
                    rejected += 1;
                    a == b
                }
                _ => false,
            };
            if !same {
                verdict_mismatches += 1;
            }
        }
    }

    BackendsReport {
        benign_sha_challenges,
        flooder_memhard_challenges,
        routing_violations,
        benign_divergences,
        flooder_routed_solve_ns,
        flooder_baseline_solve_ns,
        benign_routed_p50_ns: percentile_ns(&routed_lat, 50),
        benign_baseline_p50_ns: percentile_ns(&baseline_lat, 50),
        benign_routed_p99_ns: percentile_ns(&routed_lat, 99),
        benign_baseline_p99_ns: percentile_ns(&baseline_lat, 99),
        verify_submissions,
        verdict_mismatches,
        accepted,
        rejected,
    }
}

/// Renders the report as a Markdown table for EXPERIMENTS.md.
pub fn backends_to_markdown(report: &BackendsReport) -> String {
    let mut out = String::new();
    out.push_str(
        "| benign (sha) | flooder (mem-hard) | violations | flood cost | benign p50 | \
         benign p99 | verdicts | mismatches |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    out.push_str(&format!(
        "| {} | {} | {} | {:.1}x | {:.2}x | {:.2}x | {} | {} |\n",
        report.benign_sha_challenges,
        report.flooder_memhard_challenges,
        report.routing_violations,
        report.flood_cost_ratio(),
        report.benign_p50_ratio(),
        report.benign_p99_ratio(),
        report.verify_submissions,
        report.verdict_mismatches,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BackendsConfig {
        BackendsConfig {
            benign_clients: 3,
            benign_requests: 6,
            flood_requests: 3,
            verify_batch: 8,
            verify_batches: 2,
            ..Default::default()
        }
    }

    #[test]
    fn routing_is_exact_and_seam_verdicts_agree() {
        let report = run_backends(&tiny());
        assert_eq!(report.routing_violations, 0);
        assert_eq!(report.benign_divergences, 0);
        assert_eq!(report.benign_sha_challenges, 6);
        assert_eq!(report.flooder_memhard_challenges, 3);
        assert_eq!(report.verdict_mismatches, 0);
        assert_eq!(report.verify_submissions, 16);
        assert!(report.accepted > 0, "schedule must exercise accepts");
        assert!(report.rejected > 0, "schedule must exercise rejections");
        // The cost claim at unit scale, stated loosely (debug builds,
        // tiny samples): memory-hard must at least not be cheaper. The
        // ≥ 5x claim is asserted at scenario scale in netsim_scenarios.
        assert!(
            report.flood_cost_ratio() > 1.0,
            "memory-hard flood solve was not costlier: {:.2}x",
            report.flood_cost_ratio()
        );
    }

    #[test]
    fn markdown_has_one_data_row() {
        let md = backends_to_markdown(&run_backends(&tiny()));
        assert_eq!(md.lines().count(), 3);
    }
}
