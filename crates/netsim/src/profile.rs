//! Solver/latency profiles.
//!
//! A profile captures the two constants that set the latency scale of the
//! whole evaluation: the client's effective hash rate and the fixed
//! per-request overhead (network round trips plus server processing).
//!
//! [`SolverProfile::testbed_2022`] is calibrated against the paper's two
//! anchors: “it takes 31 ms on average to solve a 1-difficult puzzle” and
//! the ≈ 900 ms median of Policy 2 at reputation 10 in Figure 2. Those pin
//! `overhead ≈ 30 ms` and `hash rate ≈ 26 kH/s` (a Python-grade solver on
//! the authors' testbed). Native profiles measure this machine instead.

use crate::sample;
use rand::Rng;

/// A client latency model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverProfile {
    /// Hash evaluations per second the client sustains.
    pub hash_rate_hz: f64,
    /// Fixed per-request overhead in milliseconds: network round trips
    /// (request → challenge, solution → response) plus server processing.
    pub overhead_ms: f64,
}

impl SolverProfile {
    /// The calibrated reproduction of the paper's testbed (see module
    /// docs and EXPERIMENTS.md §calibration).
    pub fn testbed_2022() -> Self {
        SolverProfile {
            hash_rate_hz: 26_000.0,
            overhead_ms: 30.0,
        }
    }

    /// A native profile with an explicitly measured hash rate (use
    /// [`aipow_pow::solver::measure_hash_rate`]) and loopback-grade
    /// overhead.
    pub fn native(hash_rate_hz: f64) -> Self {
        SolverProfile {
            hash_rate_hz,
            overhead_ms: 0.3,
        }
    }

    /// Creates a fully custom profile.
    ///
    /// # Panics
    ///
    /// Panics if the hash rate is not finite-positive or the overhead is
    /// negative.
    pub fn new(hash_rate_hz: f64, overhead_ms: f64) -> Self {
        assert!(
            hash_rate_hz.is_finite() && hash_rate_hz > 0.0,
            "hash rate must be positive"
        );
        assert!(
            overhead_ms.is_finite() && overhead_ms >= 0.0,
            "overhead must be non-negative"
        );
        SolverProfile {
            hash_rate_hz,
            overhead_ms,
        }
    }

    /// Samples one end-to-end request latency (ms) at the given difficulty:
    /// overhead plus `Geometric(2^-d)` attempts at the profile's hash rate.
    pub fn sample_latency_ms<R: Rng + ?Sized>(&self, rng: &mut R, difficulty_bits: u8) -> f64 {
        let attempts = sample::attempts_to_solve(rng, difficulty_bits);
        self.overhead_ms + attempts as f64 / self.hash_rate_hz * 1_000.0
    }

    /// Samples only the solve time (ms), without overhead — what the DDoS
    /// simulator charges a bot between request and submission.
    pub fn sample_solve_ms<R: Rng + ?Sized>(&self, rng: &mut R, difficulty_bits: u8) -> f64 {
        let attempts = sample::attempts_to_solve(rng, difficulty_bits);
        attempts as f64 / self.hash_rate_hz * 1_000.0
    }

    /// Expected (mean) end-to-end latency in ms at a difficulty.
    pub fn expected_latency_ms(&self, difficulty_bits: u8) -> f64 {
        self.overhead_ms + (difficulty_bits as f64).exp2() / self.hash_rate_hz * 1_000.0
    }

    /// Median end-to-end latency in ms at a difficulty (geometric median
    /// ≈ `ln 2 · 2^d` attempts).
    pub fn median_latency_ms(&self, difficulty_bits: u8) -> f64 {
        let median_attempts = if difficulty_bits == 0 {
            1.0
        } else {
            core::f64::consts::LN_2 * (difficulty_bits as f64).exp2()
        };
        self.overhead_ms + median_attempts / self.hash_rate_hz * 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Calibration anchor 1: the paper's “31 ms on average to solve a
    /// 1-difficult puzzle”.
    #[test]
    fn testbed_anchor_one_difficult_31ms() {
        let p = SolverProfile::testbed_2022();
        let mean = p.expected_latency_ms(1);
        assert!(
            (mean - 31.0).abs() < 2.0,
            "1-difficult mean {mean:.1} ms, paper says 31 ms"
        );
    }

    /// Calibration anchor 2: Figure 2's Policy 2 tops out near 900 ms at
    /// reputation 10 (difficulty 15), reading medians.
    #[test]
    fn testbed_anchor_policy2_top_900ms() {
        let p = SolverProfile::testbed_2022();
        let median = p.median_latency_ms(15);
        assert!(
            (800.0..1_000.0).contains(&median),
            "15-difficult median {median:.0} ms, Figure 2 shows ≈ 900 ms"
        );
    }

    #[test]
    fn latency_doubles_per_bit_asymptotically() {
        let p = SolverProfile::testbed_2022();
        let high = p.expected_latency_ms(16) - p.overhead_ms;
        let low = p.expected_latency_ms(15) - p.overhead_ms;
        assert!((high / low - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_latency_mean_matches_expectation() {
        let p = SolverProfile::testbed_2022();
        let mut rng = StdRng::seed_from_u64(11);
        let d = 8u8;
        let n = 20_000;
        let total: f64 = (0..n).map(|_| p.sample_latency_ms(&mut rng, d)).sum();
        let mean = total / n as f64;
        let expected = p.expected_latency_ms(d);
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "sampled {mean:.2} vs expected {expected:.2}"
        );
    }

    #[test]
    fn solve_ms_excludes_overhead() {
        let p = SolverProfile::new(1_000.0, 100.0);
        let mut rng = StdRng::seed_from_u64(12);
        // d=0: exactly one attempt = 1 ms at 1 kH/s.
        assert!((p.sample_solve_ms(&mut rng, 0) - 1.0).abs() < 1e-9);
        assert!((p.sample_latency_ms(&mut rng, 0) - 101.0).abs() < 1e-9);
    }

    #[test]
    fn native_profile_has_small_overhead() {
        let p = SolverProfile::native(5_000_000.0);
        assert!(p.overhead_ms < 1.0);
        assert!(p.expected_latency_ms(20) < 1_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_hash_rate_panics() {
        SolverProfile::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_overhead_panics() {
        SolverProfile::new(1.0, -1.0);
    }

    #[test]
    fn median_below_mean() {
        let p = SolverProfile::testbed_2022();
        for d in 1..=20u8 {
            assert!(p.median_latency_ms(d) < p.expected_latency_ms(d));
        }
    }
}
