//! The [`Difficulty`] newtype: leading-zero-bit requirement of a puzzle.

use core::fmt;

/// Puzzle difficulty in leading zero bits, `0 ..= 64`.
///
/// A `d`-difficult puzzle requires a SHA-256 digest whose first `d` bits are
/// zero; a uniformly random digest satisfies this with probability `2^-d`,
/// so solving takes an expected `2^d` hash evaluations.
///
/// The ceiling of 64 bits is far beyond anything a policy should assign
/// (2^64 hashes ≈ centuries on one core) but keeps [`Target`] arithmetic
/// exact in `u64`.
///
/// ```
/// use aipow_pow::Difficulty;
/// let d = Difficulty::new(10)?;
/// assert_eq!(d.bits(), 10);
/// assert_eq!(d.expected_attempts(), 1024.0);
/// # Ok::<(), aipow_pow::difficulty::DifficultyError>(())
/// ```
///
/// [`Target`]: crate::target::Target
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Difficulty(u8);

/// Highest representable difficulty, in bits.
pub const MAX_DIFFICULTY_BITS: u8 = 64;

/// Error returned when constructing a [`Difficulty`] above
/// [`MAX_DIFFICULTY_BITS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DifficultyError {
    /// The rejected bit count.
    pub bits: u16,
}

impl fmt::Display for DifficultyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "difficulty of {} bits exceeds the maximum of {} bits",
            self.bits, MAX_DIFFICULTY_BITS
        )
    }
}

impl std::error::Error for DifficultyError {}

impl Difficulty {
    /// The zero difficulty: every digest qualifies, puzzles are free.
    pub const ZERO: Difficulty = Difficulty(0);

    /// Creates a difficulty of `bits` leading zero bits.
    ///
    /// # Errors
    ///
    /// Returns [`DifficultyError`] if `bits > 64`.
    pub fn new(bits: u8) -> Result<Self, DifficultyError> {
        if bits > MAX_DIFFICULTY_BITS {
            Err(DifficultyError { bits: bits as u16 })
        } else {
            Ok(Difficulty(bits))
        }
    }

    /// Creates a difficulty, saturating at [`MAX_DIFFICULTY_BITS`]. Useful
    /// for policies that compute difficulties arithmetically and prefer
    /// clamping over failure.
    pub fn saturating(bits: u32) -> Self {
        Difficulty(bits.min(MAX_DIFFICULTY_BITS as u32) as u8)
    }

    /// The number of required leading zero bits.
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// Expected number of hash evaluations to solve: `2^d`.
    pub fn expected_attempts(&self) -> f64 {
        (self.0 as f64).exp2()
    }

    /// Median number of hash evaluations to solve. The attempt count is
    /// geometric with success probability `2^-d`, so the median is
    /// `⌈-ln 2 / ln(1 - 2^-d)⌉ ≈ 0.693 · 2^d`.
    pub fn median_attempts(&self) -> f64 {
        if self.0 == 0 {
            return 1.0;
        }
        let p = (-(self.0 as f64)).exp2();
        (0.5f64.ln() / (1.0 - p).ln()).ceil()
    }

    /// Probability that a single uniformly random digest qualifies: `2^-d`.
    pub fn success_probability(&self) -> f64 {
        (-(self.0 as f64)).exp2()
    }

    /// Adds `extra` bits, saturating at the maximum.
    pub fn saturating_add(&self, extra: u8) -> Self {
        Difficulty::saturating(self.0 as u32 + extra as u32)
    }
}

impl fmt::Display for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-difficult", self.0)
    }
}

impl TryFrom<u8> for Difficulty {
    type Error = DifficultyError;

    fn try_from(bits: u8) -> Result<Self, Self::Error> {
        Difficulty::new(bits)
    }
}

impl From<Difficulty> for u8 {
    fn from(d: Difficulty) -> u8 {
        d.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(Difficulty::new(0).is_ok());
        assert!(Difficulty::new(64).is_ok());
        assert!(Difficulty::new(65).is_err());
        assert_eq!(Difficulty::new(200).unwrap_err().bits, 200);
    }

    #[test]
    fn saturating_clamps() {
        assert_eq!(Difficulty::saturating(1000).bits(), 64);
        assert_eq!(Difficulty::saturating(12).bits(), 12);
    }

    #[test]
    fn expected_attempts_doubles_per_bit() {
        let d8 = Difficulty::new(8).unwrap();
        let d9 = Difficulty::new(9).unwrap();
        assert_eq!(d8.expected_attempts(), 256.0);
        assert_eq!(d9.expected_attempts() / d8.expected_attempts(), 2.0);
    }

    #[test]
    fn median_is_ln2_fraction_of_mean() {
        let d = Difficulty::new(15).unwrap();
        let ratio = d.median_attempts() / d.expected_attempts();
        assert!((ratio - 0.693).abs() < 0.01, "ratio {ratio}");
        assert_eq!(Difficulty::ZERO.median_attempts(), 1.0);
    }

    #[test]
    fn success_probability_inverse_of_mean() {
        let d = Difficulty::new(12).unwrap();
        assert!((d.success_probability() * d.expected_attempts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_add_caps() {
        let d = Difficulty::new(60).unwrap();
        assert_eq!(d.saturating_add(10).bits(), 64);
        assert_eq!(Difficulty::ZERO.saturating_add(5).bits(), 5);
    }

    #[test]
    fn display_matches_paper_terminology() {
        assert_eq!(Difficulty::new(5).unwrap().to_string(), "5-difficult");
    }

    #[test]
    fn ordering_follows_bits() {
        assert!(Difficulty::new(3).unwrap() < Difficulty::new(4).unwrap());
    }

    #[test]
    fn conversions() {
        let d: Difficulty = 7u8.try_into().unwrap();
        assert_eq!(u8::from(d), 7);
        assert!(Difficulty::try_from(70u8).is_err());
    }

    #[test]
    fn error_display() {
        let err = Difficulty::new(99).unwrap_err();
        assert!(err.to_string().contains("99"));
    }
}
