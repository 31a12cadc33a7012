//! The Figure 2 experiment: latency vs reputation score per policy.
//!
//! “An evaluation of our three implemented policies. The median of 30
//! trials is reported for each reputation score.” — paper Figure 2.
//!
//! For each policy and each reputation score `R ∈ {0..10}`, the driver
//! asks the policy for a difficulty (Policy 3 randomizes per trial),
//! samples the end-to-end latency under the configured
//! [`SolverProfile`], and reports exact order statistics over the trials.

use crate::profile::SolverProfile;
use aipow_metrics::{Summary, TrialSet};
use aipow_policy::{ErrorRangePolicy, LinearPolicy, Policy, PolicyContext};
use aipow_reputation::ReputationScore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the Figure 2 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Config {
    /// Trials per (policy, reputation) point; the paper uses 30.
    pub trials: usize,
    /// Base RNG seed; every point derives its own stream.
    pub seed: u64,
    /// The latency model.
    pub profile: SolverProfile,
    /// Model error `ϵ` for Policy 3.
    pub epsilon: f64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            trials: 30,
            seed: 2022,
            profile: SolverProfile::testbed_2022(),
            epsilon: 2.0,
        }
    }
}

/// One point of the Figure 2 curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Row {
    /// Policy name.
    pub policy: String,
    /// Reputation score band (0..=10).
    pub reputation: u8,
    /// Mean difficulty assigned across trials (varies under Policy 3).
    pub mean_difficulty_bits: f64,
    /// Latency statistics over the trials (ms); `summary.median` is the
    /// quantity Figure 2 plots.
    pub summary: Summary,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Table {
    /// Configuration that produced the table.
    pub config: Fig2Config,
    /// One row per (policy, reputation score).
    pub rows: Vec<Fig2Row>,
}

impl Fig2Table {
    /// The median latency (ms) for a policy at a reputation band.
    pub fn median_ms(&self, policy: &str, reputation: u8) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.reputation == reputation)
            .map(|r| r.summary.median)
    }

    /// The mean latency (ms) for a policy at a reputation band.
    ///
    /// Policy 3's placement “between” Policies 1 and 2 (paper §III.B) is a
    /// mean-scale phenomenon: its symmetric ±ϵ difficulty draws have
    /// asymmetric exponential cost, so the mean rises above Policy 1's
    /// line while the median stays on it. See EXPERIMENTS.md §F2.
    pub fn mean_ms(&self, policy: &str, reputation: u8) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.reputation == reputation)
            .map(|r| r.summary.mean)
    }

    /// Latency growth factor across the score range:
    /// `median(R=10) / median(R=0)`. The paper's qualitative claims C3/C4
    /// compare these across policies.
    pub fn growth_factor(&self, policy: &str) -> Option<f64> {
        let lo = self.median_ms(policy, 0)?;
        let hi = self.median_ms(policy, 10)?;
        if lo <= 0.0 {
            return None;
        }
        Some(hi / lo)
    }

    /// Median-scale per-band latency increase in ms.
    pub fn slope_ms_per_band(&self, policy: &str) -> Option<f64> {
        let lo = self.median_ms(policy, 0)?;
        let hi = self.median_ms(policy, 10)?;
        Some((hi - lo) / 10.0)
    }

    /// Mean-scale per-band latency increase in ms — the “rate of increase”
    /// metric on which Policy 3 sits strictly between Policies 1 and 2
    /// (claim C4).
    pub fn mean_slope_ms_per_band(&self, policy: &str) -> Option<f64> {
        let lo = self.mean_ms(policy, 0)?;
        let hi = self.mean_ms(policy, 10)?;
        Some((hi - lo) / 10.0)
    }

    /// Distinct policy names in row order.
    pub fn policies(&self) -> Vec<String> {
        let mut names = Vec::new();
        for row in &self.rows {
            if !names.contains(&row.policy) {
                names.push(row.policy.clone());
            }
        }
        names
    }
}

/// Runs the experiment for an arbitrary set of policies.
pub fn run(policies: &[&dyn Policy], config: &Fig2Config) -> Fig2Table {
    let mut rows = Vec::with_capacity(policies.len() * 11);
    let ctx = PolicyContext::default();

    for (pi, policy) in policies.iter().enumerate() {
        for band in 0u8..=10 {
            // A dedicated stream per point keeps rows independent of each
            // other and of row ordering.
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ (pi as u64) << 32 ^ (band as u64) << 16);
            let score = ReputationScore::new(band as f64).expect("band within range");

            let mut latencies = TrialSet::with_capacity(config.trials);
            let mut difficulty_sum = 0.0;
            for _ in 0..config.trials {
                let difficulty = policy.difficulty_for(score, &ctx);
                difficulty_sum += difficulty.bits() as f64;
                latencies.record(
                    config
                        .profile
                        .sample_latency_ms(&mut rng, difficulty.bits()),
                );
            }

            rows.push(Fig2Row {
                policy: policy.name().to_string(),
                reputation: band,
                mean_difficulty_bits: difficulty_sum / config.trials as f64,
                summary: Summary::from_trials(&latencies),
            });
        }
    }

    Fig2Table {
        config: *config,
        rows,
    }
}

/// Runs the experiment for the paper's three policies.
pub fn run_paper_policies(config: &Fig2Config) -> Fig2Table {
    let policy1 = LinearPolicy::policy1();
    let policy2 = LinearPolicy::policy2();
    let policy3 = ErrorRangePolicy::new(config.epsilon, config.seed);
    run(&[&policy1, &policy2, &policy3], config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Fig2Table {
        run_paper_policies(&Fig2Config::default())
    }

    #[test]
    fn has_33_rows() {
        let t = table();
        assert_eq!(t.rows.len(), 33);
        assert_eq!(t.policies(), vec!["policy1", "policy2", "policy3"]);
        for row in &t.rows {
            assert_eq!(row.summary.count, 30);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(table(), table());
    }

    /// Paper claim C1 anchor: Policy 1 at reputation 0 issues 1-difficult
    /// puzzles, which the calibrated testbed solves in ≈ 31 ms.
    #[test]
    fn policy1_rep0_near_31ms() {
        let t = table();
        let m = t.median_ms("policy1", 0).unwrap();
        assert!((25.0..40.0).contains(&m), "median {m:.1} ms");
    }

    /// Figure 2 shape: latency increases with reputation score for every
    /// policy (allowing sampling jitter at low difficulties).
    #[test]
    fn latency_increases_with_reputation() {
        let t = table();
        for policy in ["policy1", "policy2", "policy3"] {
            let lo = t.median_ms(policy, 0).unwrap();
            let hi = t.median_ms(policy, 10).unwrap();
            assert!(hi > lo, "{policy}: {lo:.1} !< {hi:.1}");
        }
    }

    /// Claim C3: Policy 1's latency “does not grow significantly”; Policy
    /// 2's does. Quantified: Policy 2's growth factor dominates.
    #[test]
    fn policy2_grows_much_faster_than_policy1() {
        let t = table();
        let g1 = t.growth_factor("policy1").unwrap();
        let g2 = t.growth_factor("policy2").unwrap();
        assert!(
            g2 > 3.0 * g1,
            "policy1 growth {g1:.1}, policy2 growth {g2:.1}"
        );
        // Absolute top-end: Policy 2 at R=10 sits near the paper's ~900 ms.
        let top = t.median_ms("policy2", 10).unwrap();
        assert!((700.0..1_100.0).contains(&top), "top {top:.0} ms");
    }

    /// Claim C4: Policy 3's rate of increase lies between Policies 1 and
    /// 2. Mean-scale — see [`Fig2Table::mean_slope_ms_per_band`]; at the
    /// median, the paper's literal formula puts Policy 3 on Policy 1's
    /// line (documented in EXPERIMENTS.md §F2).
    #[test]
    fn policy3_rate_between_1_and_2() {
        let t = run_paper_policies(&Fig2Config {
            trials: 300, // tight means for a deterministic ordering check
            ..Default::default()
        });
        let s1 = t.mean_slope_ms_per_band("policy1").unwrap();
        let s2 = t.mean_slope_ms_per_band("policy2").unwrap();
        let s3 = t.mean_slope_ms_per_band("policy3").unwrap();
        assert!(
            s1 < s3 && s3 < s2,
            "mean slopes: policy1 {s1:.1}, policy3 {s3:.1}, policy2 {s2:.1}"
        );
        assert!(
            s3 > 1.3 * s1,
            "policy3 {s3:.1} should clearly exceed policy1 {s1:.1} at the mean"
        );
    }

    #[test]
    fn policy3_difficulty_varies_within_band() {
        let t = table();
        // Under Policy 3 with ϵ=2 the mean difficulty at a band is rarely
        // integral (draws span a 5-wide interval).
        let row = t
            .rows
            .iter()
            .find(|r| r.policy == "policy3" && r.reputation == 5)
            .unwrap();
        assert!(
            (row.mean_difficulty_bits - row.mean_difficulty_bits.round()).abs() > 1e-9
                || row.summary.stddev > 0.0,
            "policy3 shows no randomization"
        );
    }

    #[test]
    fn custom_policies_run() {
        let custom = aipow_policy::StepPolicy::builder("custom")
            .band_below(5.0, 2)
            .otherwise(12)
            .build()
            .unwrap();
        let t = run(&[&custom], &Fig2Config::default());
        assert_eq!(t.rows.len(), 11);
        assert!(t.median_ms("custom", 10).unwrap() > t.median_ms("custom", 0).unwrap());
    }

    #[test]
    fn growth_factor_missing_policy_is_none() {
        assert_eq!(table().growth_factor("nope"), None);
    }
}
