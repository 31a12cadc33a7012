//! Lane-width equivalence at scenario scale: the multi-buffer verify
//! path against the scalar path it must be indistinguishable from.
//!
//! Two identically keyed frameworks verify the *same* submission
//! schedule — one with `verify_lanes = 1` (scalar), one at the kernel's
//! maximum width — and the scenario reports:
//!
//! - **outcome equivalence**: every submission's verdict (token or
//!   exact rejection reason) must match between the two paths. The
//!   `wide_kernel_props` and `batch_equivalence` proptests prove this
//!   exhaustively at unit scale; here it is asserted over a realistic
//!   mixed schedule of valid, tampered, mismatched, and replayed
//!   submissions at batch sizes the TCP server actually drains.
//! - **verify-stage cost**: mean per-item wall-clock of the pipeline's
//!   `verify` stage (from [`aipow_core::MetricsSnapshot::stage_timings`])
//!   for each path. The wide path must not cost more than the scalar
//!   path, and with a vector ISA compiled in it must be decisively
//!   cheaper.
//!
//! Like [`crate::burst`], the timing half is a real measurement against
//! live frameworks and therefore machine-dependent; the equivalence
//! half is exact on any machine.

use aipow_core::{Framework, FrameworkBuilder, FrameworkConfig};
use aipow_crypto::MAX_LANES;
use aipow_policy::LinearPolicy;
use aipow_pow::solver::{self, SolverOptions};
use aipow_pow::{Challenge, Difficulty, Issuer, Solution};
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::ReputationScore;
use std::net::{IpAddr, Ipv4Addr};

/// Parameters for the lane-comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct LanesConfig {
    /// Submissions per verification batch (the burst the server's frame
    /// drain would hand to `handle_solution_batch`).
    pub batch_len: usize,
    /// Batches to run.
    pub batches: usize,
    /// Distinct clients cycling through the schedule.
    pub clients: usize,
    /// Puzzle difficulty for the pre-solved submissions (kept low: the
    /// scenario measures verification, not solving).
    pub difficulty_bits: u8,
}

impl Default for LanesConfig {
    fn default() -> Self {
        LanesConfig {
            batch_len: 32,
            batches: 60,
            clients: 16,
            difficulty_bits: 4,
        }
    }
}

/// The measured outcome of one lane-comparison run.
#[derive(Debug, Clone, PartialEq)]
pub struct LanesReport {
    /// Total submissions verified per path.
    pub submissions: usize,
    /// Submissions whose outcome differed between the paths (must be 0).
    pub mismatches: usize,
    /// Accepted submissions (sanity: the schedule exercises the accept
    /// path).
    pub accepted: usize,
    /// Rejected submissions (sanity: the schedule exercises rejections).
    pub rejected: usize,
    /// Lane width of the wide framework's verifier.
    pub wide_lanes: usize,
    /// Mean verify-stage nanoseconds per item, scalar path.
    pub scalar_ns_per_item: f64,
    /// Mean verify-stage nanoseconds per item, wide path.
    pub wide_ns_per_item: f64,
}

impl LanesReport {
    /// Scalar verify cost over wide verify cost: >1 means the
    /// multi-buffer kernel made the stage cheaper.
    pub fn verify_speedup(&self) -> f64 {
        self.scalar_ns_per_item / self.wide_ns_per_item.max(1.0)
    }
}

const MASTER_KEY: [u8; 32] = [0x6C; 32];

fn build_framework(lanes: usize, max_batch: usize) -> Framework {
    FrameworkBuilder::new()
        .master_key(MASTER_KEY)
        .model(FixedScoreModel::new(
            ReputationScore::new(5.0).expect("scenario invariant: 5.0 is a valid score"),
        ))
        .policy(LinearPolicy::policy2())
        .config(FrameworkConfig {
            max_batch,
            lanes: Some(lanes),
            ..Default::default()
        })
        .build()
        .expect("scenario invariant: the fixed framework config is valid")
}

fn client_ip(client: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(0x0A30_0000u32 | client as u32))
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

/// Mean verify-stage nanoseconds per item from a framework's metrics.
fn verify_ns_per_item(framework: &Framework) -> f64 {
    framework
        .metrics_snapshot()
        .stage_timings
        .iter()
        .find(|t| t.stage == "verify")
        .map(|t| t.total_ns as f64 / (t.items.max(1)) as f64)
        .unwrap_or(0.0)
}

/// Runs the same pre-solved submission schedule through a scalar-lane
/// and a wide-lane framework and compares every outcome.
pub fn run_lanes(config: &LanesConfig) -> LanesReport {
    let batch_len = config.batch_len.max(1);
    let scalar = build_framework(1, batch_len);
    let wide = build_framework(MAX_LANES, batch_len);

    let issuer = Issuer::new(&MASTER_KEY);
    let difficulty = Difficulty::new(config.difficulty_bits.min(16))
        .expect("scenario invariant: difficulty_bits is clamped into range");

    let mut mismatches = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut submissions = 0usize;

    for b in 0..config.batches.max(1) {
        // Pre-solve one batch of genuine solutions, then corrupt a
        // deterministic minority so both paths walk every staged check:
        // bad MAC, wrong claimed IP, and an intra-batch replay.
        let solved: Vec<(Solution, IpAddr)> = (0..batch_len)
            .map(|i| {
                let ip = client_ip((b * batch_len + i) % config.clients.max(1));
                let challenge = issuer.issue(ip, difficulty);
                let report = solver::solve(&challenge, ip, &SolverOptions::default())
                    .expect("scenario invariant: a low-difficulty puzzle always solves");
                (report.solution, ip)
            })
            .collect();
        let mut batch: Vec<(Solution, IpAddr)> = solved;
        for (i, entry) in batch.iter_mut().enumerate() {
            match i % 8 {
                5 => {
                    entry.0.challenge = forge_tag(&entry.0.challenge);
                }
                6 => {
                    entry.1 = client_ip(usize::MAX & 0xFFFF);
                }
                _ => {}
            }
        }
        if batch_len > 7 {
            // A duplicate seed inside the batch: first wins, second is
            // the replay — in *both* paths, at the same index.
            let dup = batch[0].clone();
            batch[7] = dup;
        }

        let refs: Vec<(&Solution, IpAddr)> = batch.iter().map(|(s, ip)| (s, *ip)).collect();
        let scalar_out = scalar.handle_solution_batch(&refs);
        let wide_out = wide.handle_solution_batch(&refs);

        submissions += refs.len();
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
                mismatches += 1;
            }
        }
    }

    LanesReport {
        submissions,
        mismatches,
        accepted,
        rejected,
        wide_lanes: wide.verifier().verify_lanes(),
        scalar_ns_per_item: verify_ns_per_item(&scalar),
        wide_ns_per_item: verify_ns_per_item(&wide),
    }
}

/// Renders the report as a Markdown table for EXPERIMENTS.md.
pub fn lanes_to_markdown(report: &LanesReport) -> String {
    let mut out = String::new();
    out.push_str(
        "| submissions | accepted | rejected | lanes | scalar ns/item | wide ns/item | speedup |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    out.push_str(&format!(
        "| {} | {} | {} | {} | {:.0} | {:.0} | {:.2}x |\n",
        report.submissions,
        report.accepted,
        report.rejected,
        report.wide_lanes,
        report.scalar_ns_per_item,
        report.wide_ns_per_item,
        report.verify_speedup(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LanesConfig {
        LanesConfig {
            batch_len: 16,
            batches: 4,
            clients: 5,
            difficulty_bits: 2,
        }
    }

    #[test]
    fn wide_and_scalar_paths_agree_on_every_outcome() {
        let report = run_lanes(&tiny());
        assert_eq!(report.mismatches, 0);
        assert_eq!(report.submissions, 64);
        assert!(report.accepted > 0, "schedule must exercise accepts");
        assert!(report.rejected > 0, "schedule must exercise rejections");
        assert!(report.wide_lanes > 1, "wide framework must be wide");
        assert!(report.scalar_ns_per_item > 0.0);
        assert!(report.wide_ns_per_item > 0.0);
    }

    #[test]
    fn markdown_has_one_data_row() {
        let md = lanes_to_markdown(&run_lanes(&tiny()));
        assert_eq!(md.lines().count(), 3);
    }
}
