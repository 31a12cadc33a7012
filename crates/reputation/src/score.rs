//! The [`ReputationScore`] newtype.

use core::fmt;

/// An IP reputation score on the paper's scale: `[0, 10]`, where **higher
/// means more untrustworthy**.
///
/// The type enforces the range at construction; policies may rely on it.
///
/// ```
/// use aipow_reputation::ReputationScore;
/// let s = ReputationScore::new(7.3)?;
/// assert_eq!(s.band(), 7);
/// assert!(ReputationScore::new(11.0).is_err());
/// # Ok::<(), aipow_reputation::score::ScoreRangeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ReputationScore(f64);

/// Error returned when constructing a score outside `[0, 10]` or from a
/// non-finite value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRangeError {
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for ScoreRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reputation score {} outside the valid range [0, 10]",
            self.value
        )
    }
}

impl std::error::Error for ScoreRangeError {}

impl ReputationScore {
    /// The most trustworthy score.
    pub const MIN: ReputationScore = ReputationScore(0.0);
    /// The least trustworthy score.
    pub const MAX: ReputationScore = ReputationScore(10.0);

    /// Creates a score, validating the range.
    ///
    /// # Errors
    ///
    /// Returns [`ScoreRangeError`] for non-finite values or values outside
    /// `[0, 10]`.
    pub fn new(value: f64) -> Result<Self, ScoreRangeError> {
        if value.is_finite() && (0.0..=10.0).contains(&value) {
            Ok(ReputationScore(value))
        } else {
            Err(ScoreRangeError { value })
        }
    }

    /// Creates a score, clamping into `[0, 10]`. NaN clamps to 0 (most
    /// trustworthy is the conservative default for a broken model: the
    /// framework then falls back to its baseline difficulty rather than
    /// denying service).
    pub fn clamped(value: f64) -> Self {
        if value.is_nan() {
            return ReputationScore(0.0);
        }
        ReputationScore(value.clamp(0.0, 10.0))
    }

    /// The raw score value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The discrete band `{0, 1, …, 10}` the paper's Policies 1 and 2 index
    /// by (round-to-nearest).
    pub fn band(&self) -> u8 {
        self.0.round() as u8
    }
}

impl fmt::Display for ReputationScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

impl TryFrom<f64> for ReputationScore {
    type Error = ScoreRangeError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        ReputationScore::new(value)
    }
}

impl From<ReputationScore> for f64 {
    fn from(s: ReputationScore) -> f64 {
        s.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_range_bounds() {
        assert!(ReputationScore::new(0.0).is_ok());
        assert!(ReputationScore::new(10.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range_and_nonfinite() {
        assert!(ReputationScore::new(-0.1).is_err());
        assert!(ReputationScore::new(10.1).is_err());
        assert!(ReputationScore::new(f64::NAN).is_err());
        assert!(ReputationScore::new(f64::INFINITY).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(ReputationScore::clamped(-5.0).value(), 0.0);
        assert_eq!(ReputationScore::clamped(15.0).value(), 10.0);
        assert_eq!(ReputationScore::clamped(5.5).value(), 5.5);
        assert_eq!(ReputationScore::clamped(f64::NAN).value(), 0.0);
    }

    #[test]
    fn band_rounds_to_nearest() {
        assert_eq!(ReputationScore::new(0.4).unwrap().band(), 0);
        assert_eq!(ReputationScore::new(0.5).unwrap().band(), 1);
        assert_eq!(ReputationScore::new(9.6).unwrap().band(), 10);
        assert_eq!(ReputationScore::MAX.band(), 10);
    }

    #[test]
    fn display_two_decimals() {
        assert_eq!(ReputationScore::new(3.21987).unwrap().to_string(), "3.22");
    }

    #[test]
    fn error_is_informative() {
        let err = ReputationScore::new(42.0).unwrap_err();
        assert!(err.to_string().contains("42"));
    }

    #[test]
    fn ordering_works() {
        assert!(ReputationScore::new(2.0).unwrap() < ReputationScore::new(8.0).unwrap());
    }
}
