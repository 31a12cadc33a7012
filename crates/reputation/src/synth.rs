//! Synthetic IP-attribute dataset generation.
//!
//! **Substitution note (see DESIGN.md §2).** DAbR trains on Cisco Talos IP
//! attribute data, which is proprietary. This module generates a labeled
//! synthetic population with the properties the downstream pipeline
//! actually depends on: per-class attribute distributions that overlap
//! enough to hold the scorer near the paper's reported ≈ 80 % accuracy, and
//! a ground-truth maliciousness score in `[0, 10]` against which the score
//! error `ϵ` (consumed by Policy 3) can be estimated.
//!
//! Five client archetypes are modeled. Each draws attributes from its own
//! per-feature normal (or count) distribution; the `overlap` knob linearly
//! pulls malicious archetype means toward the benign means, trading
//! separability for realism.

use crate::feature::{FeatureVector, FEATURE_COUNT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth class of a synthetic IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassLabel {
    /// Ordinary, well-behaved client.
    Benign,
    /// Attacker-controlled or abusive client.
    Malicious,
}

/// Behavioural archetype of a synthetic IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// Residential/enterprise user traffic.
    Residential,
    /// Cloud-hosted API client: higher rate, still benign.
    ApiClient,
    /// DDoS botnet node: high rate, high SYN ratio, low jitter.
    Botnet,
    /// Port/service scanner: very many unique ports.
    Scanner,
    /// Credential stuffer: high failed-auth ratio.
    CredentialStuffer,
}

impl Archetype {
    /// All archetypes, in a stable order.
    pub const ALL: [Archetype; 5] = [
        Archetype::Residential,
        Archetype::ApiClient,
        Archetype::Botnet,
        Archetype::Scanner,
        Archetype::CredentialStuffer,
    ];

    /// The ground-truth class of this archetype.
    pub fn label(&self) -> ClassLabel {
        match self {
            Archetype::Residential | Archetype::ApiClient => ClassLabel::Benign,
            _ => ClassLabel::Malicious,
        }
    }

    /// Central ground-truth maliciousness on the `[0, 10]` scale.
    pub fn base_true_score(&self) -> f64 {
        match self {
            Archetype::Residential => 0.8,
            Archetype::ApiClient => 2.0,
            Archetype::Botnet => 9.0,
            Archetype::Scanner => 7.0,
            Archetype::CredentialStuffer => 8.0,
        }
    }

    /// Per-feature `(mean, stddev)` of this archetype's attribute
    /// distribution, in raw feature units (see
    /// [`FEATURE_NAMES`](crate::FEATURE_NAMES)).
    fn distribution(&self) -> [(f64, f64); FEATURE_COUNT] {
        match self {
            Archetype::Residential => [
                (1.5, 1.0),    // request_rate
                (0.04, 0.03),  // syn_ratio
                (2.0, 1.2),    // unique_ports
                (4.3, 0.8),    // payload_entropy
                (0.15, 0.10),  // geo_risk
                (0.12, 0.08),  // asn_risk
                (0.05, 0.22),  // blacklist_hits
                (0.05, 0.05),  // tls_anomaly
                (140.0, 60.0), // interarrival_jitter
                (0.02, 0.02),  // failed_auth_ratio
            ],
            Archetype::ApiClient => [
                (8.0, 3.0),
                (0.03, 0.02),
                (1.5, 0.8),
                (5.2, 0.7),
                (0.22, 0.12),
                (0.25, 0.12),
                (0.1, 0.3),
                (0.08, 0.06),
                (25.0, 12.0),
                (0.01, 0.01),
            ],
            Archetype::Botnet => [
                (42.0, 16.0),
                (0.75, 0.15),
                (3.0, 2.0),
                (6.6, 0.9),
                (0.55, 0.20),
                (0.50, 0.20),
                (2.5, 1.6),
                (0.45, 0.20),
                (12.0, 8.0),
                (0.08, 0.06),
            ],
            Archetype::Scanner => [
                (15.0, 7.0),
                (0.55, 0.20),
                (210.0, 90.0),
                (3.1, 1.0),
                (0.45, 0.20),
                (0.40, 0.18),
                (1.2, 1.1),
                (0.30, 0.15),
                (30.0, 18.0),
                (0.05, 0.04),
            ],
            Archetype::CredentialStuffer => [
                (18.0, 8.0),
                (0.20, 0.12),
                (2.0, 1.0),
                (5.6, 0.8),
                (0.50, 0.20),
                (0.45, 0.18),
                (1.8, 1.4),
                (0.35, 0.18),
                (45.0, 25.0),
                (0.55, 0.20),
            ],
        }
    }
}

/// One labeled synthetic IP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledSample {
    /// The IP's attribute vector.
    pub features: FeatureVector,
    /// Ground-truth class.
    pub label: ClassLabel,
    /// Ground-truth maliciousness on the score scale `[0, 10]`.
    pub true_score: f64,
    /// The generating archetype.
    pub archetype: Archetype,
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Number of benign samples (split between benign archetypes).
    pub n_benign: usize,
    /// Number of malicious samples (split between malicious archetypes).
    pub n_malicious: usize,
    /// Class overlap in `[0, 1]`: 0 = fully separated archetype means,
    /// 1 = malicious means collapsed onto benign means. The default (0.38)
    /// is calibrated so the DAbR scorer lands near the paper's ≈ 80 %
    /// accuracy (measured 78–83 % across seeds); see experiment C2.
    pub overlap: f64,
    /// RNG seed; generation is fully deterministic given the spec.
    pub seed: u64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        DatasetSpec {
            n_benign: 2_500,
            n_malicious: 2_500,
            overlap: 0.38,
            seed: 1,
        }
    }
}

impl DatasetSpec {
    /// Returns the spec with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the spec with a different class overlap.
    ///
    /// # Panics
    ///
    /// Panics if `overlap` is not within `[0, 1]`.
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&overlap),
            "overlap {overlap} outside [0, 1]"
        );
        self.overlap = overlap;
        self
    }

    /// Returns the spec with different population sizes.
    pub fn with_sizes(mut self, n_benign: usize, n_malicious: usize) -> Self {
        self.n_benign = n_benign;
        self.n_malicious = n_malicious;
        self
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut samples = Vec::with_capacity(self.n_benign + self.n_malicious);

        let benign_types = [Archetype::Residential, Archetype::ApiClient];
        let malicious_types = [
            Archetype::Botnet,
            Archetype::Scanner,
            Archetype::CredentialStuffer,
        ];

        // Residential dominates benign traffic 4:1; attack traffic splits
        // evenly between malicious archetypes.
        for i in 0..self.n_benign {
            let archetype = if i % 5 < 4 {
                benign_types[0]
            } else {
                benign_types[1]
            };
            samples.push(self.sample(archetype, &mut rng));
        }
        for i in 0..self.n_malicious {
            let archetype = malicious_types[i % malicious_types.len()];
            samples.push(self.sample(archetype, &mut rng));
        }

        // Shuffle so class order carries no information.
        for i in (1..samples.len()).rev() {
            let j = rng.gen_range(0..=i);
            samples.swap(i, j);
        }

        Dataset { samples }
    }

    fn sample(&self, archetype: Archetype, rng: &mut StdRng) -> LabeledSample {
        let dist = archetype.distribution();
        // Blend malicious means toward the residential (majority benign)
        // means according to `overlap`.
        let benign_dist = Archetype::Residential.distribution();
        let is_malicious = archetype.label() == ClassLabel::Malicious;

        let mut values = [0.0; FEATURE_COUNT];
        for (i, value) in values.iter_mut().enumerate() {
            let (mut mean, sd) = dist[i];
            if is_malicious {
                mean = mean * (1.0 - self.overlap) + benign_dist[i].0 * self.overlap;
            }
            let raw = mean + sd * gaussian(rng);
            // Attributes are physically non-negative; ratio-like features
            // also cap at 1, entropy at 8 bits/byte.
            *value = match i {
                1 | 4 | 5 | 7 | 9 => raw.clamp(0.0, 1.0),
                3 => raw.clamp(0.0, 8.0),
                _ => raw.max(0.0),
            };
        }

        // Ground truth score: archetype base blended toward benign by the
        // same overlap, plus observation noise.
        let mut base = archetype.base_true_score();
        if is_malicious {
            base = base * (1.0 - self.overlap)
                + Archetype::Residential.base_true_score() * self.overlap;
        }
        let true_score = (base + 0.7 * gaussian(rng)).clamp(0.0, 10.0);

        LabeledSample {
            features: FeatureVector::new(values),
            label: archetype.label(),
            true_score,
            archetype,
        }
    }
}

/// Standard normal draw via Box–Muller (rand_distr is outside the allowed
/// dependency set).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A labeled synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    samples: Vec<LabeledSample>,
}

impl Dataset {
    /// Builds a dataset from existing samples (e.g. replayed captures).
    pub fn from_samples(samples: Vec<LabeledSample>) -> Self {
        Dataset { samples }
    }

    /// The samples.
    pub fn samples(&self) -> &[LabeledSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples with the given label.
    pub fn count_label(&self, label: ClassLabel) -> usize {
        self.samples.iter().filter(|s| s.label == label).count()
    }

    /// Splits into `(train, test)` with `train_fraction` of samples in the
    /// training set, shuffled deterministically by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is not within `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction {train_fraction} outside (0, 1)"
        );
        let mut indices: Vec<usize> = (0..self.samples.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5911);
        for i in (1..indices.len()).rev() {
            let j = rng.gen_range(0..=i);
            indices.swap(i, j);
        }
        let cut = ((self.samples.len() as f64) * train_fraction).round() as usize;
        let train = indices[..cut].iter().map(|&i| self.samples[i]).collect();
        let test = indices[cut..].iter().map(|&i| self.samples[i]).collect();
        (Dataset { samples: train }, Dataset { samples: test })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = DatasetSpec::default().with_seed(3).generate();
        let b = DatasetSpec::default().with_seed(3).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = DatasetSpec::default().with_seed(3).generate();
        let b = DatasetSpec::default().with_seed(4).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn sizes_and_labels_match_spec() {
        let d = DatasetSpec::default().with_sizes(300, 200).generate();
        assert_eq!(d.len(), 500);
        assert_eq!(d.count_label(ClassLabel::Benign), 300);
        assert_eq!(d.count_label(ClassLabel::Malicious), 200);
    }

    #[test]
    fn true_scores_in_range_and_separated() {
        let d = DatasetSpec::default().generate();
        let mut benign_sum = 0.0;
        let mut benign_n = 0.0;
        let mut mal_sum = 0.0;
        let mut mal_n = 0.0;
        for s in d.samples() {
            assert!((0.0..=10.0).contains(&s.true_score));
            match s.label {
                ClassLabel::Benign => {
                    benign_sum += s.true_score;
                    benign_n += 1.0;
                }
                ClassLabel::Malicious => {
                    mal_sum += s.true_score;
                    mal_n += 1.0;
                }
            }
        }
        let benign_mean = benign_sum / benign_n;
        let mal_mean = mal_sum / mal_n;
        assert!(
            mal_mean - benign_mean > 2.0,
            "classes not separated: benign {benign_mean:.2} vs malicious {mal_mean:.2}"
        );
    }

    #[test]
    fn ratio_features_respect_physical_bounds() {
        let d = DatasetSpec::default().generate();
        for s in d.samples() {
            let f = s.features;
            for idx in [1usize, 4, 5, 7, 9] {
                assert!(
                    (0.0..=1.0).contains(&f.get(idx)),
                    "feature {idx} out of [0,1]"
                );
            }
            assert!((0.0..=8.0).contains(&f.get(3)));
            assert!(f.get(0) >= 0.0 && f.get(2) >= 0.0);
        }
    }

    #[test]
    fn archetype_labels() {
        assert_eq!(Archetype::Residential.label(), ClassLabel::Benign);
        assert_eq!(Archetype::Botnet.label(), ClassLabel::Malicious);
        assert_eq!(Archetype::ALL.len(), 5);
    }

    #[test]
    fn full_overlap_collapses_means() {
        // At overlap=1 the botnet mean equals the residential mean, so the
        // class means of any single feature should be close relative to
        // their pooled spread.
        let d = DatasetSpec::default()
            .with_overlap(1.0)
            .with_sizes(2000, 2000)
            .generate();
        let mean = |label: ClassLabel, idx: usize| {
            let vals: Vec<f64> = d
                .samples()
                .iter()
                .filter(|s| s.label == label)
                .map(|s| s.features.get(idx))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        // request_rate: benign mix includes ApiClient (higher rate), so
        // tolerate a few units of gap.
        let gap = (mean(ClassLabel::Benign, 0) - mean(ClassLabel::Malicious, 0)).abs();
        assert!(gap < 4.0, "gap {gap}");
    }

    #[test]
    fn split_partitions_and_is_deterministic() {
        let d = DatasetSpec::default().with_sizes(80, 20).generate();
        let (tr1, te1) = d.split(0.8, 9);
        let (tr2, te2) = d.split(0.8, 9);
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.len(), 80);
        assert_eq!(te1.len(), 20);
        // Different split seed shuffles differently.
        let (tr3, _) = d.split(0.8, 10);
        assert_ne!(tr1, tr3);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn split_rejects_bad_fraction() {
        DatasetSpec::default()
            .with_sizes(10, 10)
            .generate()
            .split(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn overlap_out_of_range_panics() {
        DatasetSpec::default().with_overlap(1.5);
    }

    #[test]
    fn gaussian_moments_sane() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
