//! Traffic attribute vectors for IP reputation scoring.
//!
//! DAbR scores an IP from its published *attributes*; our substitute
//! dataset (see [`crate::synth`]) synthesizes per-IP traffic attributes
//! with the same role. The schema is fixed at compile time so distance
//! computations can stay allocation-free.

/// Number of attributes per IP.
pub const FEATURE_COUNT: usize = 10;

/// Human-readable attribute names, indexed like [`FeatureVector`] values.
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "request_rate",        // mean HTTP requests per second
    "syn_ratio",           // TCP SYNs without completing handshake, fraction
    "unique_ports",        // distinct destination ports touched
    "payload_entropy",     // mean Shannon entropy of payloads, bits/byte
    "geo_risk",            // geolocation risk index, [0, 1]
    "asn_risk",            // hosting-ASN risk index, [0, 1]
    "blacklist_hits",      // appearances on public blocklists
    "tls_anomaly",         // TLS fingerprint anomaly score, [0, 1]
    "interarrival_jitter", // std-dev of request inter-arrival times, ms
    "failed_auth_ratio",   // failed authentication attempts, fraction
];

/// One IP's attribute vector.
///
/// ```
/// use aipow_reputation::{FeatureVector, FEATURE_COUNT};
/// let f = FeatureVector::zeros();
/// assert_eq!(f.as_slice().len(), FEATURE_COUNT);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    values: [f64; FEATURE_COUNT],
}

impl FeatureVector {
    /// Creates a vector from raw attribute values.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN — upstream extraction must produce
    /// numbers, and distances over NaN would poison the model silently.
    pub fn new(values: [f64; FEATURE_COUNT]) -> Self {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "feature vector contains NaN"
        );
        FeatureVector { values }
    }

    /// The all-zero vector.
    pub fn zeros() -> Self {
        FeatureVector {
            values: [0.0; FEATURE_COUNT],
        }
    }

    /// Attribute values as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Value of attribute `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= FEATURE_COUNT`.
    pub fn get(&self, idx: usize) -> f64 {
        self.values[idx]
    }

    /// Returns a copy with attribute `idx` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= FEATURE_COUNT` or `value` is NaN.
    pub fn with(&self, idx: usize, value: f64) -> Self {
        assert!(!value.is_nan(), "feature value is NaN");
        let mut values = self.values;
        values[idx] = value;
        FeatureVector { values }
    }

    /// Euclidean distance to another vector.
    pub fn distance(&self, other: &FeatureVector) -> f64 {
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

impl From<[f64; FEATURE_COUNT]> for FeatureVector {
    fn from(values: [f64; FEATURE_COUNT]) -> Self {
        FeatureVector::new(values)
    }
}

/// Raw per-IP traffic counters, as a network tap would aggregate them over
/// an observation window. [`TrafficWindow::extract`] converts counters into
/// the model's attribute vector; the synthetic generator can produce either
/// form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficWindow {
    /// Window length in seconds.
    pub window_secs: f64,
    /// Total HTTP requests observed.
    pub requests: u64,
    /// TCP SYNs observed.
    pub syns: u64,
    /// SYNs that completed a handshake.
    pub completed_handshakes: u64,
    /// Distinct destination ports.
    pub unique_ports: u32,
    /// Mean payload entropy in bits/byte.
    pub payload_entropy: f64,
    /// Geolocation risk index `[0, 1]`.
    pub geo_risk: f64,
    /// Hosting-ASN risk index `[0, 1]`.
    pub asn_risk: f64,
    /// Appearances on public blocklists.
    pub blacklist_hits: u32,
    /// TLS fingerprint anomaly `[0, 1]`.
    pub tls_anomaly: f64,
    /// Std-dev of inter-arrival times in ms.
    pub interarrival_jitter_ms: f64,
    /// Authentication attempts observed.
    pub auth_attempts: u64,
    /// Failed authentication attempts.
    pub auth_failures: u64,
}

impl TrafficWindow {
    /// Converts raw counters into the model's attribute vector.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs <= 0`.
    pub fn extract(&self) -> FeatureVector {
        assert!(self.window_secs > 0.0, "window length must be positive");
        let request_rate = self.requests as f64 / self.window_secs;
        let syn_ratio = if self.syns == 0 {
            0.0
        } else {
            1.0 - (self.completed_handshakes.min(self.syns) as f64 / self.syns as f64)
        };
        let failed_auth_ratio = if self.auth_attempts == 0 {
            0.0
        } else {
            self.auth_failures.min(self.auth_attempts) as f64 / self.auth_attempts as f64
        };
        FeatureVector::new([
            request_rate,
            syn_ratio,
            self.unique_ports as f64,
            self.payload_entropy,
            self.geo_risk,
            self.asn_risk,
            self.blacklist_hits as f64,
            self.tls_anomaly,
            self.interarrival_jitter_ms,
            failed_auth_ratio,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> TrafficWindow {
        TrafficWindow {
            window_secs: 10.0,
            requests: 50,
            syns: 100,
            completed_handshakes: 80,
            unique_ports: 3,
            payload_entropy: 4.2,
            geo_risk: 0.2,
            asn_risk: 0.1,
            blacklist_hits: 0,
            tls_anomaly: 0.05,
            interarrival_jitter_ms: 110.0,
            auth_attempts: 10,
            auth_failures: 1,
        }
    }

    #[test]
    fn names_match_count() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
    }

    #[test]
    fn extraction_computes_rates() {
        let f = window().extract();
        assert_eq!(f.get(0), 5.0); // 50 req / 10 s
        assert!((f.get(1) - 0.2).abs() < 1e-12); // 20 % incomplete SYNs
        assert_eq!(f.get(2), 3.0);
        assert!((f.get(9) - 0.1).abs() < 1e-12); // 1/10 failed auth
    }

    #[test]
    fn extraction_handles_zero_denominators() {
        let mut w = window();
        w.syns = 0;
        w.auth_attempts = 0;
        let f = w.extract();
        assert_eq!(f.get(1), 0.0);
        assert_eq!(f.get(9), 0.0);
    }

    #[test]
    fn extraction_clamps_inconsistent_counters() {
        let mut w = window();
        w.completed_handshakes = 200; // more than syns: clamp, not negative
        let f = w.extract();
        assert_eq!(f.get(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let mut w = window();
        w.window_secs = 0.0;
        w.extract();
    }

    #[test]
    fn distance_is_euclidean() {
        let a = FeatureVector::zeros();
        let b = a.with(0, 3.0).with(1, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_symmetry_and_identity() {
        let a = window().extract();
        let b = a.with(3, 9.9);
        assert_eq!(a.distance(&b), b.distance(&a));
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let mut values = [0.0; FEATURE_COUNT];
        values[4] = f64::NAN;
        FeatureVector::new(values);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Triangle inequality for the distance metric.
            #[test]
            fn triangle_inequality(a in proptest::collection::vec(-100f64..100.0, FEATURE_COUNT),
                                   b in proptest::collection::vec(-100f64..100.0, FEATURE_COUNT),
                                   c in proptest::collection::vec(-100f64..100.0, FEATURE_COUNT)) {
                let fa = FeatureVector::new(a.try_into().unwrap());
                let fb = FeatureVector::new(b.try_into().unwrap());
                let fc = FeatureVector::new(c.try_into().unwrap());
                prop_assert!(fa.distance(&fc) <= fa.distance(&fb) + fb.distance(&fc) + 1e-9);
            }
        }
    }
}
