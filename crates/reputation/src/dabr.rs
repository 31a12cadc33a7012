//! The DAbR-style Euclidean-distance reputation scorer.
//!
//! Reimplements the technique of Renjan et al. (ISI 2018) as the paper's
//! proof-of-concept AI model: learn from known-malicious IPs and score an
//! incoming IP by how close its attribute vector sits to the malicious
//! population.
//!
//! Pipeline (all fitted on the training split only):
//!
//! 1. min–max normalize attributes onto `[0, 10]`,
//! 2. k-means over *malicious* training vectors → attack-family centroids,
//! 3. raw statistic `d(x)` = Euclidean distance from `x` to the nearest
//!    malicious centroid,
//! 4. calibrate `d(x)` onto the `[0, 10]` score scale with a two-Gaussian
//!    likelihood model: fit normal densities to the distance statistic of
//!    malicious and benign training points and report
//!    `score = 10 · P(malicious | d)` (equal priors). Score 5 is then
//!    exactly the Bayes decision boundary of the distance statistic, which
//!    matches the framework's `[0, 10]`-with-threshold-5 convention.

use crate::feature::FeatureVector;
use crate::kmeans::{kmeans, KMeansConfig};
use crate::model::ReputationModel;
use crate::normalize::MinMaxNormalizer;
use crate::score::ReputationScore;
use crate::synth::{ClassLabel, Dataset};

/// Configuration for [`DabrModel::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DabrConfig {
    /// Number of malicious centroids (attack families).
    pub centroids: usize,
    /// Seed for k-means initialization.
    pub seed: u64,
    /// Score threshold above which an IP is classified malicious. The
    /// default of 5.0 is the Bayes boundary of the calibrated score.
    pub threshold: f64,
}

impl Default for DabrConfig {
    fn default() -> Self {
        DabrConfig {
            centroids: 3,
            seed: 0,
            threshold: 5.0,
        }
    }
}

/// Mean/stddev of the distance statistic for one class.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClassDensity {
    mean: f64,
    stddev: f64,
}

impl ClassDensity {
    fn fit(values: &[f64]) -> Self {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        ClassDensity {
            mean,
            // Floor keeps the log-density finite for degenerate classes.
            stddev: var.sqrt().max(1e-6),
        }
    }

    /// Log of the normal density at `x` (up to the shared constant).
    fn log_density(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.stddev;
        -0.5 * z * z - self.stddev.ln()
    }
}

/// A fitted DAbR-style scorer.
#[derive(Debug, Clone, PartialEq)]
pub struct DabrModel {
    normalizer: MinMaxNormalizer,
    centroids: Vec<FeatureVector>,
    malicious_density: ClassDensity,
    benign_density: ClassDensity,
    threshold: f64,
}

impl DabrModel {
    /// Fits the scorer on a labeled training set.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or contains no malicious samples (DAbR
    /// learns from known-malicious attributes) or no benign samples (needed
    /// to calibrate the score scale).
    pub fn fit(train: &Dataset, config: &DabrConfig) -> Self {
        assert!(!train.is_empty(), "cannot fit DAbR on an empty dataset");
        let all_features: Vec<FeatureVector> = train.samples().iter().map(|s| s.features).collect();
        let normalizer = MinMaxNormalizer::fit(&all_features);

        let malicious: Vec<FeatureVector> = train
            .samples()
            .iter()
            .filter(|s| s.label == ClassLabel::Malicious)
            .map(|s| normalizer.transform(&s.features))
            .collect();
        assert!(
            !malicious.is_empty(),
            "DAbR requires known-malicious training samples"
        );

        let clustering = kmeans(
            &malicious,
            &KMeansConfig {
                k: config.centroids,
                seed: config.seed,
                ..Default::default()
            },
        );

        // Distance statistic per class, for calibration.
        let mut d_mal = Vec::new();
        let mut d_ben = Vec::new();
        for s in train.samples() {
            let x = normalizer.transform(&s.features);
            let d = nearest_distance(&x, &clustering.centroids);
            match s.label {
                ClassLabel::Malicious => d_mal.push(d),
                ClassLabel::Benign => d_ben.push(d),
            }
        }
        assert!(
            !d_ben.is_empty(),
            "DAbR calibration requires benign training samples"
        );

        DabrModel {
            normalizer,
            centroids: clustering.centroids,
            malicious_density: ClassDensity::fit(&d_mal),
            benign_density: ClassDensity::fit(&d_ben),
            threshold: config.threshold,
        }
    }

    /// The fitted attack-family centroids (normalized space).
    pub fn centroids(&self) -> &[FeatureVector] {
        &self.centroids
    }

    /// Raw distance statistic for an attribute vector (before calibration).
    pub fn distance(&self, features: &FeatureVector) -> f64 {
        let x = self.normalizer.transform(features);
        nearest_distance(&x, &self.centroids)
    }

    /// Calibrated posterior `P(malicious | distance)` with equal priors.
    pub fn posterior(&self, features: &FeatureVector) -> f64 {
        let d = self.distance(features);
        let z = self.malicious_density.log_density(d) - self.benign_density.log_density(d);
        // Logistic of the log-likelihood ratio; stable for large |z|.
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }
}

impl ReputationModel for DabrModel {
    fn name(&self) -> &str {
        "dabr"
    }

    fn score(&self, features: &FeatureVector) -> ReputationScore {
        ReputationScore::clamped(10.0 * self.posterior(features))
    }

    fn malicious_threshold(&self) -> f64 {
        self.threshold
    }
}

fn nearest_distance(x: &FeatureVector, centroids: &[FeatureVector]) -> f64 {
    centroids
        .iter()
        .map(|c| x.distance(c))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::DatasetSpec;

    fn fitted() -> (DabrModel, Dataset, Dataset) {
        let dataset = DatasetSpec::default().with_seed(5).generate();
        let (train, test) = dataset.split(0.8, 5);
        let model = DabrModel::fit(&train, &DabrConfig::default());
        (model, train, test)
    }

    #[test]
    fn scores_are_in_range() {
        let (model, _, test) = fitted();
        for s in test.samples() {
            let score = model.score(&s.features).value();
            assert!((0.0..=10.0).contains(&score));
        }
    }

    #[test]
    fn malicious_score_higher_on_average() {
        let (model, _, test) = fitted();
        let mean = |label: ClassLabel| {
            let scores: Vec<f64> = test
                .samples()
                .iter()
                .filter(|s| s.label == label)
                .map(|s| model.score(&s.features).value())
                .collect();
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        let benign = mean(ClassLabel::Benign);
        let malicious = mean(ClassLabel::Malicious);
        assert!(
            malicious > benign + 2.0,
            "benign {benign:.2} vs malicious {malicious:.2}"
        );
    }

    #[test]
    fn malicious_distances_are_smaller() {
        // The statistic underlying the score: malicious points sit closer
        // to the malicious centroids.
        let (model, _, test) = fitted();
        let mean_d = |label: ClassLabel| {
            let ds: Vec<f64> = test
                .samples()
                .iter()
                .filter(|s| s.label == label)
                .map(|s| model.distance(&s.features))
                .collect();
            ds.iter().sum::<f64>() / ds.len() as f64
        };
        assert!(mean_d(ClassLabel::Malicious) < mean_d(ClassLabel::Benign));
    }

    #[test]
    fn accuracy_near_paper_band() {
        // The paper reports ≈ 80 % accuracy for DAbR. Allow a tolerant band
        // (the exact value is reported by experiment C2).
        let (model, _, test) = fitted();
        let correct = test
            .samples()
            .iter()
            .filter(|s| model.classify(&s.features) == s.label)
            .count();
        let accuracy = correct as f64 / test.len() as f64;
        assert!(
            (0.72..=0.92).contains(&accuracy),
            "accuracy {accuracy} outside plausible band"
        );
    }

    #[test]
    fn posterior_is_probability() {
        let (model, _, test) = fitted();
        for s in test.samples() {
            let p = model.posterior(&s.features);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_fit() {
        let dataset = DatasetSpec::default().with_seed(5).generate();
        let (train, _) = dataset.split(0.8, 5);
        let a = DabrModel::fit(&train, &DabrConfig::default());
        let b = DabrModel::fit(&train, &DabrConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn centroid_count_respects_config() {
        let dataset = DatasetSpec::default().with_seed(5).generate();
        let (train, _) = dataset.split(0.8, 5);
        let model = DabrModel::fit(
            &train,
            &DabrConfig {
                centroids: 5,
                ..Default::default()
            },
        );
        assert_eq!(model.centroids().len(), 5);
    }

    #[test]
    #[should_panic(expected = "known-malicious")]
    fn fit_requires_malicious_samples() {
        let dataset = DatasetSpec::default().with_sizes(50, 0).generate();
        DabrModel::fit(&dataset, &DabrConfig::default());
    }

    #[test]
    #[should_panic(expected = "benign training samples")]
    fn fit_requires_benign_samples() {
        let dataset = DatasetSpec::default().with_sizes(0, 50).generate();
        DabrModel::fit(&dataset, &DabrConfig::default());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_rejects_empty() {
        DabrModel::fit(&Dataset::from_samples(vec![]), &DabrConfig::default());
    }

    #[test]
    fn density_fit_matches_moments() {
        let d = ClassDensity::fit(&[1.0, 3.0]);
        assert_eq!(d.mean, 2.0);
        assert!((d.stddev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_degenerate_values_finite() {
        let d = ClassDensity::fit(&[2.0, 2.0, 2.0]);
        assert!(d.log_density(2.0).is_finite());
        assert!(d.log_density(100.0).is_finite());
    }

    #[test]
    fn distance_close_to_centroid_scores_high() {
        let (model, train, _) = fitted();
        // The malicious training sample nearest to a centroid should score
        // clearly worse than the benign sample farthest from centroids.
        let mut best_mal_score: f64 = 0.0;
        let mut best_ben_score: f64 = 10.0;
        for s in train.samples() {
            let v = model.score(&s.features).value();
            match s.label {
                ClassLabel::Malicious => best_mal_score = best_mal_score.max(v),
                ClassLabel::Benign => best_ben_score = best_ben_score.min(v),
            }
        }
        assert!(best_mal_score > 7.0, "max malicious score {best_mal_score}");
        assert!(best_ben_score < 3.0, "min benign score {best_ben_score}");
    }
}
