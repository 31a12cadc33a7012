//! Fractional difficulty via threshold targets (extension).
//!
//! Integer leading-zero-bit difficulties quantize work in powers of two:
//! the gap between `d` and `d+1` is a full 2× in expected latency. Policies
//! that want finer control (e.g. a continuous variant of the paper's
//! Policy 3 error-range mapping) can express work as a *target*: a solution
//! qualifies if the first 64 bits of its digest, read as a big-endian
//! integer, are `<=` the target. This generalizes zero-bit prefixes —
//! difficulty `d` corresponds to target `2^(64-d) - 1` — and supports any
//! real-valued difficulty in `[0, 64)`.

use crate::difficulty::Difficulty;
use aipow_crypto::sha256::Digest;

/// A 64-bit qualification threshold for digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Target(u64);

impl Target {
    /// The easiest target: every digest qualifies.
    pub const EASIEST: Target = Target(u64::MAX);

    /// Creates a target from a raw threshold.
    pub fn from_raw(threshold: u64) -> Self {
        Target(threshold)
    }

    /// The raw threshold value.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Target equivalent to an integer bit difficulty: `2^(64-d) - 1`.
    ///
    /// ```
    /// use aipow_pow::{Difficulty, Target};
    /// let t = Target::from_difficulty(Difficulty::new(1).unwrap());
    /// assert_eq!(t.raw(), u64::MAX / 2);
    /// ```
    pub fn from_difficulty(d: Difficulty) -> Self {
        let bits = d.bits() as u32;
        if bits == 0 {
            Target::EASIEST
        } else if bits >= 64 {
            Target(0)
        } else {
            Target((1u64 << (64 - bits)) - 1)
        }
    }

    /// Target for a real-valued difficulty `d ∈ [0, 64)`: expected attempts
    /// `2^d`, i.e. threshold `2^64 / 2^d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative, NaN, or ≥ 64.
    pub fn from_difficulty_f64(d: f64) -> Self {
        assert!(
            d.is_finite() && (0.0..64.0).contains(&d),
            "fractional difficulty {d} outside [0, 64)"
        );
        // 2^64 / 2^d = 2^(64-d); compute in f64 then clamp into u64.
        let threshold = (64.0 - d).exp2();
        if threshold >= u64::MAX as f64 {
            Target::EASIEST
        } else {
            Target(threshold as u64)
        }
    }

    /// Whether `digest` satisfies this target.
    pub fn is_met_by(&self, digest: &Digest) -> bool {
        digest.prefix_u64() <= self.0
    }

    /// Expected number of uniformly random digests needed to qualify:
    /// `2^64 / (target + 1)`.
    pub fn expected_attempts(&self) -> f64 {
        (u64::MAX as f64 + 1.0) / (self.0 as f64 + 1.0)
    }

    /// The real-valued difficulty this target encodes:
    /// `log2(expected_attempts)`.
    pub fn difficulty_f64(&self) -> f64 {
        self.expected_attempts().log2()
    }
}

impl From<Difficulty> for Target {
    fn from(d: Difficulty) -> Self {
        Target::from_difficulty(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_crypto::sha256::Sha256;

    #[test]
    fn zero_difficulty_accepts_everything() {
        let t = Target::from_difficulty(Difficulty::ZERO);
        for input in [&b"a"[..], b"b", b"c"] {
            assert!(t.is_met_by(&Sha256::digest(input)));
        }
    }

    #[test]
    fn integer_difficulty_equivalence() {
        // A digest meets bit-difficulty d iff it meets the derived target.
        for d in 0u8..=16 {
            let t = Target::from_difficulty(Difficulty::new(d).unwrap());
            for i in 0u32..200 {
                let digest = Sha256::digest(&i.to_be_bytes());
                let by_bits = digest.leading_zero_bits() >= d as u32;
                assert_eq!(t.is_met_by(&digest), by_bits, "d={d} i={i} digest={digest}");
            }
        }
    }

    #[test]
    fn expected_attempts_matches_difficulty() {
        let t = Target::from_difficulty(Difficulty::new(10).unwrap());
        assert!((t.expected_attempts() - 1024.0).abs() / 1024.0 < 1e-9);
        assert!((t.difficulty_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_difficulties_interpolate() {
        let t_low = Target::from_difficulty_f64(5.0);
        let t_mid = Target::from_difficulty_f64(5.5);
        let t_high = Target::from_difficulty_f64(6.0);
        assert!(t_low.raw() > t_mid.raw());
        assert!(t_mid.raw() > t_high.raw());
        let e = t_mid.expected_attempts();
        assert!((e - 32.0 * 2f64.sqrt()).abs() / e < 1e-6, "e={e}");
    }

    #[test]
    fn fractional_zero_is_easiest() {
        assert_eq!(Target::from_difficulty_f64(0.0), Target::EASIEST);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn fractional_out_of_range_panics() {
        Target::from_difficulty_f64(64.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn fractional_negative_panics() {
        Target::from_difficulty_f64(-1.0);
    }

    #[test]
    fn max_bits_target_is_zero() {
        let t = Target::from_difficulty(Difficulty::new(64).unwrap());
        assert_eq!(t.raw(), 0);
    }

    #[test]
    fn roundtrip_difficulty_f64() {
        for d in [0.5f64, 1.0, 7.3, 15.9, 31.0] {
            let t = Target::from_difficulty_f64(d);
            assert!((t.difficulty_f64() - d).abs() < 0.01, "d={d}");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Monotonicity: higher fractional difficulty ⇒ lower target ⇒
            /// never accepts a digest the lower difficulty rejects.
            #[test]
            fn monotone(d1 in 0.0f64..60.0, d2 in 0.0f64..60.0, input in any::<u64>()) {
                let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
                let t_lo = Target::from_difficulty_f64(lo);
                let t_hi = Target::from_difficulty_f64(hi);
                prop_assert!(t_lo.raw() >= t_hi.raw());
                let digest = Sha256::digest(&input.to_be_bytes());
                if t_hi.is_met_by(&digest) {
                    prop_assert!(t_lo.is_met_by(&digest));
                }
            }
        }
    }
}
