//! Statistical digests for experiment reports.

/// A statistical digest of a set of observations.
///
/// Every experiment in EXPERIMENTS.md reports its measurements as one or
/// more `Summary` rows, and the reproduce binary writes them as CSV through
/// [`Summary::to_csv_fields`].
///
/// ```
/// use aipow_metrics::Summary;
/// let s = Summary::from_values([1.0, 2.0, 3.0]);
/// assert_eq!(s.count, 3);
/// assert_eq!(s.median, 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Minimum observation (0.0 if empty).
    pub min: f64,
    /// Maximum observation (0.0 if empty).
    pub max: f64,
    /// Arithmetic mean (0.0 if empty).
    pub mean: f64,
    /// Exact interpolated median (0.0 if empty).
    pub median: f64,
    /// 90th percentile (0.0 if empty).
    pub p90: f64,
    /// 99th percentile (0.0 if empty).
    pub p99: f64,
    /// Sample standard deviation (0.0 with fewer than two observations).
    pub stddev: f64,
}

impl Summary {
    /// Computes a digest from any iterator of values.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        let set: crate::sample::TrialSet = values.into_iter().collect();
        Self::from_trials(&set)
    }

    /// Computes a digest from an existing [`crate::sample::TrialSet`].
    pub fn from_trials(set: &crate::sample::TrialSet) -> Self {
        Summary {
            count: set.len(),
            min: set.min().unwrap_or(0.0),
            max: set.max().unwrap_or(0.0),
            mean: set.mean().unwrap_or(0.0),
            median: set.median().unwrap_or(0.0),
            p90: set.quantile(0.9).unwrap_or(0.0),
            p99: set.quantile(0.99).unwrap_or(0.0),
            stddev: set.stddev().unwrap_or(0.0),
        }
    }

    /// Renders the digest as a fixed set of CSV fields (matches
    /// [`Summary::CSV_HEADER`]).
    pub fn to_csv_fields(&self) -> String {
        format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
            self.count, self.min, self.max, self.mean, self.median, self.p90, self.p99, self.stddev
        )
    }

    /// Column names matching [`Summary::to_csv_fields`].
    pub const CSV_HEADER: &'static str = "count,min,max,mean,median,p90,p99,stddev";
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} min={:.2} med={:.2} mean={:.2} p90={:.2} p99={:.2} max={:.2} sd={:.2}",
            self.count, self.min, self.median, self.mean, self.p90, self.p99, self.max, self.stddev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_known_values() {
        let s = Summary::from_values((1..=100).map(f64::from));
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.median, 50.5);
        assert!((s.p90 - 90.1).abs() < 0.2);
    }

    #[test]
    fn empty_digest_is_zeroed() {
        let s = Summary::from_values(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.median, 0.0);
    }

    #[test]
    fn csv_fields_match_header_arity() {
        let s = Summary::from_values([1.0, 2.0]);
        let fields = s.to_csv_fields();
        assert_eq!(
            fields.split(',').count(),
            Summary::CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn display_is_nonempty_and_contains_median() {
        let s = Summary::from_values([5.0]);
        let text = s.to_string();
        assert!(text.contains("med=5.00"), "{text}");
    }
}
