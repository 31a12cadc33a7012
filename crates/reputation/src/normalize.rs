//! Min–max attribute normalization onto `[0, 10]`.
//!
//! DAbR normalizes raw attributes onto a common scale before computing
//! Euclidean distances, so no single large-magnitude attribute (e.g.
//! `interarrival_jitter` in milliseconds) dominates the metric.

use crate::feature::{FeatureVector, FEATURE_COUNT};

/// A fitted min–max normalizer mapping each attribute onto `[0, 10]`.
///
/// Values outside the fitted range (possible at inference time) are
/// clamped, matching the scorer's closed score scale.
///
/// ```
/// use aipow_reputation::normalize::MinMaxNormalizer;
/// use aipow_reputation::FeatureVector;
/// let data = vec![
///     FeatureVector::zeros().with(0, 2.0),
///     FeatureVector::zeros().with(0, 12.0),
/// ];
/// let norm = MinMaxNormalizer::fit(&data);
/// let t = norm.transform(&FeatureVector::zeros().with(0, 7.0));
/// assert!((t.get(0) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxNormalizer {
    mins: [f64; FEATURE_COUNT],
    ranges: [f64; FEATURE_COUNT],
}

/// Output scale upper bound (DAbR's attribute scale).
pub const SCALE: f64 = 10.0;

impl MinMaxNormalizer {
    /// Fits per-attribute minima and ranges on `data`.
    ///
    /// Constant attributes (range 0) transform to 0 rather than dividing
    /// by zero.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &[FeatureVector]) -> Self {
        assert!(!data.is_empty(), "cannot fit normalizer on empty data");
        let mut mins = [f64::INFINITY; FEATURE_COUNT];
        let mut maxs = [f64::NEG_INFINITY; FEATURE_COUNT];
        for fv in data {
            for i in 0..FEATURE_COUNT {
                mins[i] = mins[i].min(fv.get(i));
                maxs[i] = maxs[i].max(fv.get(i));
            }
        }
        let mut ranges = [0.0; FEATURE_COUNT];
        for i in 0..FEATURE_COUNT {
            ranges[i] = maxs[i] - mins[i];
        }
        MinMaxNormalizer { mins, ranges }
    }

    /// Maps a raw vector onto the `[0, 10]` attribute scale.
    pub fn transform(&self, fv: &FeatureVector) -> FeatureVector {
        let mut out = [0.0; FEATURE_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = if self.ranges[i] == 0.0 {
                0.0
            } else {
                (SCALE * (fv.get(i) - self.mins[i]) / self.ranges[i]).clamp(0.0, SCALE)
            };
        }
        FeatureVector::new(out)
    }

    /// Convenience: transform a whole slice.
    pub fn transform_all(&self, data: &[FeatureVector]) -> Vec<FeatureVector> {
        data.iter().map(|fv| self.transform(fv)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<FeatureVector> {
        vec![
            FeatureVector::zeros().with(0, 2.0).with(1, 0.5),
            FeatureVector::zeros().with(0, 12.0).with(1, 0.5),
            FeatureVector::zeros().with(0, 7.0).with(1, 0.5),
        ]
    }

    #[test]
    fn endpoints_map_to_scale_bounds() {
        let norm = MinMaxNormalizer::fit(&data());
        assert_eq!(norm.transform(&data()[0]).get(0), 0.0);
        assert_eq!(norm.transform(&data()[1]).get(0), 10.0);
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let norm = MinMaxNormalizer::fit(&data());
        // Feature 1 is constant (0.5) across the fit data.
        assert_eq!(norm.transform(&data()[0]).get(1), 0.0);
        assert_eq!(
            norm.transform(&FeatureVector::zeros().with(1, 99.0)).get(1),
            0.0
        );
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        let norm = MinMaxNormalizer::fit(&data());
        assert_eq!(
            norm.transform(&FeatureVector::zeros().with(0, -100.0))
                .get(0),
            0.0
        );
        assert_eq!(
            norm.transform(&FeatureVector::zeros().with(0, 1e9)).get(0),
            10.0
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        MinMaxNormalizer::fit(&[]);
    }

    #[test]
    fn transform_all_matches_individual() {
        let norm = MinMaxNormalizer::fit(&data());
        let all = norm.transform_all(&data());
        for (a, b) in all.iter().zip(data().iter()) {
            assert_eq!(*a, norm.transform(b));
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// All transformed attributes land in [0, 10] for any data.
            #[test]
            fn output_bounded(rows in proptest::collection::vec(
                proptest::collection::vec(-1e6f64..1e6, FEATURE_COUNT), 1..50)) {
                let data: Vec<FeatureVector> = rows
                    .into_iter()
                    .map(|r| FeatureVector::new(r.try_into().unwrap()))
                    .collect();
                let norm = MinMaxNormalizer::fit(&data);
                for fv in &data {
                    let t = norm.transform(fv);
                    for i in 0..FEATURE_COUNT {
                        prop_assert!((0.0..=10.0).contains(&t.get(i)));
                    }
                }
            }

            /// Normalization preserves per-feature ordering.
            #[test]
            fn order_preserved(a in -1e3f64..1e3, b in -1e3f64..1e3) {
                let data = vec![
                    FeatureVector::zeros().with(2, a.min(b) - 1.0),
                    FeatureVector::zeros().with(2, a.max(b) + 1.0),
                ];
                let norm = MinMaxNormalizer::fit(&data);
                let ta = norm.transform(&FeatureVector::zeros().with(2, a)).get(2);
                let tb = norm.transform(&FeatureVector::zeros().with(2, b)).get(2);
                if a < b { prop_assert!(ta <= tb); } else { prop_assert!(tb <= ta); }
            }
        }
    }
}
