//! Declarative framework configuration.
//!
//! Everything an operator tunes — which policy, TTLs, caps, bypass — is
//! plain data in a [`FrameworkConfig`], handed to
//! [`FrameworkBuilder::config`](crate::FrameworkBuilder::config), so
//! deployments can keep their admission posture in version-controlled
//! config. Each knob is declared, defaulted and checked here only.

use aipow_policy::registry;
use aipow_pow::Difficulty;
use aipow_trace::TraceConfig;
use core::fmt;

/// Default ceiling on the group size the batch entry points process per
/// pipeline pass (see [`FrameworkConfig::max_batch`]).
pub const DEFAULT_MAX_BATCH: usize = 32;

/// Framework settings; every field is checked by
/// [`validate`](Self::validate), which the builder runs before it builds.
///
/// ```
/// use aipow_core::{FrameworkBuilder, FrameworkConfig};
/// use aipow_reputation::{model::FixedScoreModel, ReputationScore};
/// let config = FrameworkConfig {
///     policy_spec: "policy3:eps=1.5".into(),
///     ..Default::default()
/// };
/// let framework = FrameworkBuilder::new()
///     .config(config)
///     .model(FixedScoreModel::new(ReputationScore::MIN))
///     .master_key([1u8; 32])
///     .build()?;
/// assert_eq!(framework.policy_name(), "policy3");
/// # Ok::<(), aipow_core::BuildError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// Policy spec: a registry shorthand (`policy1`, `policy3:eps=2.0`) or
    /// DSL source (see [`aipow_policy::dsl`]).
    pub policy_spec: String,
    /// Seed for randomized policies.
    pub policy_seed: u64,
    /// Challenge TTL in milliseconds.
    pub ttl_ms: u64,
    /// Replay-guard capacity (entries).
    pub replay_capacity: usize,
    /// Maximum difficulty the verifier accepts (bits).
    pub difficulty_cap_bits: u8,
    /// Tolerated clock skew in milliseconds.
    pub max_skew_ms: u64,
    /// Admit scores strictly below this without a puzzle (None = paper
    /// behaviour: everyone works).
    pub bypass_threshold: Option<f64>,
    /// Audit-log capacity (events).
    pub audit_capacity: usize,
    /// Cost-ledger capacity (clients).
    pub ledger_capacity: usize,
    /// Shard count for per-client structures (rounded up to a power of
    /// two); `None` picks an automatic per-structure count from the
    /// machine's available parallelism. Capacity-evicting structures
    /// raise the count further so no eviction scan exceeds
    /// [`eviction_max_scan`](Self::eviction_max_scan).
    pub shard_count: Option<usize>,
    /// Bound on the entries one capacity-eviction victim scan may visit
    /// — the worst-case hot-path cost of an insert at capacity, kept
    /// independent of the table's total capacity by raising the shard
    /// count (`aipow_shard::ShardLayout::bounded`). Applies to the cost
    /// ledger. The online recorder's sketch table is bounded separately
    /// by [`OnlineSettings::max_scan`] (same default), since the online
    /// settings travel as a self-contained block.
    pub eviction_max_scan: usize,
    /// Ceiling on the group size the framework's batch entry points
    /// (`handle_request_batch`, `handle_solution_batch`) process per
    /// pipeline pass — bounds how long one batch holds the policy
    /// read-lock and each audit/ledger shard lock.
    /// The TCP server drains up to this many pipelined frames per
    /// connection wakeup. Must be at least 1.
    pub max_batch: usize,
    /// Lane width for the verifier's multi-buffer SHA-256 kernel — how
    /// many challenge MACs / work digests batched verification hashes
    /// per compression loop. `None` (the default) auto-detects
    /// ([`aipow_crypto::auto_lanes`]); explicit values must be in
    /// `[1, 8]`, with 1 forcing the scalar path. Purely a performance
    /// knob: every width computes identical outcomes.
    pub lanes: Option<usize>,
    /// Reputation score at or above which clients are routed to the
    /// memory-hard puzzle backend instead of SHA-256 (see
    /// [`aipow_policy::ThresholdRouter`]; higher score = more
    /// suspicious). `None` (the default) keeps every client on the
    /// SHA-256 backend. Must be a finite number in `[0, 10]`.
    pub memory_hard_above: Option<f64>,
    /// Arena size in MiB minted into memory-hard challenges. `None`
    /// uses the backend default
    /// ([`aipow_crypto::memmix::DEFAULT_ARENA_MIB`]); explicit values
    /// must lie in `[aipow_crypto::memmix::MIN_ARENA_MIB,
    /// aipow_crypto::memmix::MAX_ARENA_MIB]`.
    pub memory_hard_arena_mib: Option<u8>,
    /// Request-trace sampling rate: trace 1 in `trace_sample_rate`
    /// admissions through the `aipow-trace` span layer. 0 (the default)
    /// disables tracing entirely — no tracer is attached and the hot path
    /// pays nothing. 1 traces every request (tests and simulations).
    pub trace_sample_rate: u64,
    /// Total span capacity of the tracer's ring buffers — the flight
    /// recorder's look-back window when an anomaly trigger freezes a
    /// dump. Ignored when [`trace_sample_rate`](Self::trace_sample_rate)
    /// is 0; must be positive otherwise.
    pub flight_recorder_capacity: usize,
}

/// Tuning for the online behavioral reputation loop (see the
/// `aipow-online` crate). The loop needs the *built* framework (its tap
/// and clock), so these settings are not part of [`FrameworkConfig`]:
/// set `aipow_net::ServerConfig::online`, or pass them to
/// `aipow_online::OnlineLoop::attach`. They live in this crate so that
/// both can carry them as plain data without `aipow-core` depending on
/// the online crate.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSettings {
    /// Maximum clients the behavior recorder tracks. Enforced per shard
    /// (`capacity / shard_count` each): a full shard evicts its
    /// least-recently-seen sketch (cheapest-eviction, like the cost
    /// ledger) under a single lock, keeping the tap's worst case bounded
    /// on the admission path.
    pub capacity: usize,
    /// Shard count for the recorder's sketch table; `None` picks the
    /// machine default. Like the other capacity-evicting structures, the
    /// count is adjusted on both sides
    /// (`aipow_shard::ShardLayout::bounded`): raised so no shard holds
    /// more than [`max_scan`](Self::max_scan) sketches (the eviction
    /// victim scan runs under the shard lock on the admission path and
    /// must stay bounded), capped at `capacity`, and floored to a power
    /// of two — so per-shard capacity stays ≥ 1 and the total population
    /// bound never exceeds `capacity`.
    pub shard_count: Option<usize>,
    /// Bound on the entries one eviction victim scan may visit in the
    /// sketch table.
    pub max_scan: usize,
    /// Half-life of the exponential decay applied to every behavioral
    /// counter, in milliseconds. Reputation recovers on this timescale
    /// after a client's behaviour improves.
    pub half_life_ms: u64,
    /// Number of observed events at which live behaviour and the prior
    /// are weighted equally. Cold clients (zero events) score exactly the
    /// prior; confidence grows as `events / (events + prior_strength)`.
    pub prior_strength: f64,
    /// Period of the background decay/rescore sweep, in milliseconds.
    pub decay_interval_ms: u64,
    /// Sketches whose decayed event weight falls below this are pruned by
    /// the sweep (full redemption: the client is forgotten).
    pub prune_below: f64,
    /// When set, the decay worker derives `Framework::set_load` from the
    /// observed aggregate arrival rate: `load = rps / capacity_rps`,
    /// clamped to `[0, 1]`.
    pub load_capacity_rps: Option<f64>,
}

impl Default for OnlineSettings {
    fn default() -> Self {
        OnlineSettings {
            capacity: 65_536,
            shard_count: None,
            max_scan: aipow_shard::DEFAULT_MAX_SCAN,
            half_life_ms: 60_000,
            prior_strength: 16.0,
            decay_interval_ms: 1_000,
            prune_below: 0.01,
            load_capacity_rps: None,
        }
    }
}

impl OnlineSettings {
    /// Validates the settings.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero capacities/half-life, bad shard
    /// counts, or non-finite weights.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError::ZeroCapacity {
                field: "online recorder",
            });
        }
        if self.half_life_ms == 0 {
            return Err(ConfigError::ZeroDuration {
                field: "online half-life",
            });
        }
        if self.decay_interval_ms == 0 {
            return Err(ConfigError::ZeroDuration {
                field: "online decay interval",
            });
        }
        if let Some(shards) = self.shard_count {
            if shards == 0 || shards > aipow_shard::MAX_SHARDS {
                return Err(ConfigError::BadShardCount { requested: shards });
            }
        }
        if self.max_scan == 0 {
            return Err(ConfigError::BadMaxScan { requested: 0 });
        }
        if !self.prior_strength.is_finite() || self.prior_strength < 0.0 {
            return Err(ConfigError::BadOnlineWeight {
                field: "prior_strength",
                value: self.prior_strength,
            });
        }
        if !self.prune_below.is_finite() || self.prune_below < 0.0 {
            return Err(ConfigError::BadOnlineWeight {
                field: "prune_below",
                value: self.prune_below,
            });
        }
        if let Some(rps) = self.load_capacity_rps {
            if !rps.is_finite() || rps <= 0.0 {
                return Err(ConfigError::BadOnlineWeight {
                    field: "load_capacity_rps",
                    value: rps,
                });
            }
        }
        Ok(())
    }
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            policy_spec: "policy2".into(),
            policy_seed: 0,
            ttl_ms: aipow_pow::issuer::DEFAULT_TTL_MS,
            replay_capacity: aipow_pow::replay::DEFAULT_CAPACITY,
            difficulty_cap_bits: 40,
            max_skew_ms: aipow_pow::verifier::DEFAULT_MAX_SKEW_MS,
            bypass_threshold: None,
            audit_capacity: 1_024,
            ledger_capacity: 4_096,
            shard_count: None,
            eviction_max_scan: aipow_shard::DEFAULT_MAX_SCAN,
            max_batch: DEFAULT_MAX_BATCH,
            lanes: None,
            memory_hard_above: None,
            memory_hard_arena_mib: None,
            trace_sample_rate: 0,
            flight_recorder_capacity: TraceConfig::default().ring_capacity,
        }
    }
}

/// Error applying a [`FrameworkConfig`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The policy spec did not resolve.
    Policy(registry::SpecError),
    /// The difficulty cap exceeds 64 bits.
    BadDifficultyCap {
        /// The rejected cap.
        bits: u8,
    },
    /// A capacity field was zero.
    ZeroCapacity {
        /// Which field was zero.
        field: &'static str,
    },
    /// A capacity field was above what its structure can address.
    CapacityTooLarge {
        /// Which field was too large.
        field: &'static str,
        /// The rejected capacity.
        requested: usize,
        /// The largest accepted capacity.
        max: usize,
    },
    /// The shard count was zero or beyond the supported maximum.
    BadShardCount {
        /// The rejected count.
        requested: usize,
    },
    /// The eviction scan bound was zero.
    BadMaxScan {
        /// The rejected bound.
        requested: usize,
    },
    /// The batch-size ceiling was zero.
    BadMaxBatch {
        /// The rejected ceiling.
        requested: usize,
    },
    /// The verification lane width was outside `[1, 8]`.
    BadVerifyLanes {
        /// The rejected width.
        requested: usize,
    },
    /// The bypass threshold was not a finite number in `[0, 10]`.
    BadBypassThreshold {
        /// The rejected threshold.
        value: f64,
    },
    /// The memory-hard routing threshold was not a finite number in
    /// `[0, 10]`.
    BadRoutingThreshold {
        /// The rejected threshold.
        value: f64,
    },
    /// The memory-hard arena size was outside the supported MiB range.
    BadArenaMib {
        /// The rejected size in MiB.
        requested: u8,
    },
    /// A duration field was zero.
    ZeroDuration {
        /// Which field was zero.
        field: &'static str,
    },
    /// An online-loop weight was not a finite number in its valid range.
    BadOnlineWeight {
        /// Which field was invalid.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Policy(e) => write!(f, "policy spec error: {e}"),
            ConfigError::BadDifficultyCap { bits } => {
                write!(f, "difficulty cap {bits} exceeds 64 bits")
            }
            ConfigError::ZeroCapacity { field } => {
                write!(f, "{field} capacity must be positive")
            }
            ConfigError::CapacityTooLarge {
                field,
                requested,
                max,
            } => write!(f, "{field} capacity {requested} exceeds {max}"),
            ConfigError::BadShardCount { requested } => {
                write!(
                    f,
                    "shard count {requested} outside [1, {}]",
                    aipow_shard::MAX_SHARDS
                )
            }
            ConfigError::BadMaxScan { requested } => {
                write!(f, "eviction scan bound {requested} must be positive")
            }
            ConfigError::BadMaxBatch { requested } => {
                write!(f, "batch ceiling {requested} must be at least 1")
            }
            ConfigError::BadVerifyLanes { requested } => {
                write!(
                    f,
                    "verification lane width {requested} outside [1, {}]",
                    aipow_crypto::MAX_LANES
                )
            }
            ConfigError::BadBypassThreshold { value } => {
                write!(f, "bypass threshold {value} outside [0, 10]")
            }
            ConfigError::BadRoutingThreshold { value } => {
                write!(f, "memory-hard routing threshold {value} outside [0, 10]")
            }
            ConfigError::BadArenaMib { requested } => {
                write!(
                    f,
                    "memory-hard arena size {requested} MiB outside [{}, {}]",
                    aipow_crypto::memmix::MIN_ARENA_MIB,
                    aipow_crypto::memmix::MAX_ARENA_MIB
                )
            }
            ConfigError::ZeroDuration { field } => {
                write!(f, "{field} must be a positive number of milliseconds")
            }
            ConfigError::BadOnlineWeight { field, value } => {
                write!(f, "online setting {field} = {value} is out of range")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<registry::SpecError> for ConfigError {
    fn from(e: registry::SpecError) -> Self {
        ConfigError::Policy(e)
    }
}

impl FrameworkConfig {
    /// Checks every field, including that the policy spec resolves.
    /// [`FrameworkBuilder::build`](crate::FrameworkBuilder::build) calls
    /// this first, so no out-of-range value reaches a constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid field values or an unresolvable
    /// policy spec.
    pub fn validate(&self) -> Result<(), ConfigError> {
        registry::from_spec(&self.policy_spec, self.policy_seed)?;
        if Difficulty::new(self.difficulty_cap_bits).is_err() {
            return Err(ConfigError::BadDifficultyCap {
                bits: self.difficulty_cap_bits,
            });
        }
        if self.replay_capacity == 0 {
            return Err(ConfigError::ZeroCapacity { field: "replay" });
        }
        if self.replay_capacity > aipow_pow::replay::MAX_CAPACITY {
            return Err(ConfigError::CapacityTooLarge {
                field: "replay",
                requested: self.replay_capacity,
                max: aipow_pow::replay::MAX_CAPACITY,
            });
        }
        if self.audit_capacity == 0 {
            return Err(ConfigError::ZeroCapacity { field: "audit" });
        }
        if self.ledger_capacity == 0 {
            return Err(ConfigError::ZeroCapacity { field: "ledger" });
        }
        if self.eviction_max_scan == 0 {
            return Err(ConfigError::BadMaxScan { requested: 0 });
        }
        if self.max_batch == 0 {
            return Err(ConfigError::BadMaxBatch { requested: 0 });
        }
        let is_score = |t: f64| t.is_finite() && (0.0..=10.0).contains(&t);
        if let Some(shards) = self.shard_count {
            if shards == 0 || shards > aipow_shard::MAX_SHARDS {
                return Err(ConfigError::BadShardCount { requested: shards });
            }
        }
        if let Some(lanes) = self.lanes {
            if lanes == 0 || lanes > aipow_crypto::MAX_LANES {
                return Err(ConfigError::BadVerifyLanes { requested: lanes });
            }
        }
        if let Some(t) = self.bypass_threshold {
            if !is_score(t) {
                return Err(ConfigError::BadBypassThreshold { value: t });
            }
        }
        if let Some(t) = self.memory_hard_above {
            if !is_score(t) {
                return Err(ConfigError::BadRoutingThreshold { value: t });
            }
        }
        if let Some(mib) = self.memory_hard_arena_mib {
            if !aipow_crypto::memmix::validate_arena_mib(mib) {
                return Err(ConfigError::BadArenaMib { requested: mib });
            }
        }
        if self.trace_sample_rate > 0 && self.flight_recorder_capacity == 0 {
            return Err(ConfigError::ZeroCapacity {
                field: "flight recorder",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Framework, FrameworkBuilder};
    use aipow_reputation::model::FixedScoreModel;
    use aipow_reputation::{FeatureVector, ReputationScore};
    use std::net::{IpAddr, Ipv4Addr};

    fn built(config: FrameworkConfig, score: ReputationScore) -> Framework {
        FrameworkBuilder::new()
            .config(config)
            .model(FixedScoreModel::new(score))
            .master_key([1u8; 32])
            .build()
            .unwrap()
    }

    #[test]
    fn default_config_applies() {
        let fw = built(FrameworkConfig::default(), ReputationScore::MIN);
        assert_eq!(fw.policy_name(), "policy2");
    }

    #[test]
    fn policy_spec_resolves_through_config() {
        let config = FrameworkConfig {
            policy_spec: "policy1".into(),
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MIN);
        let issued = fw
            .handle_request(IpAddr::V4(Ipv4Addr::LOCALHOST), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        assert_eq!(issued.difficulty.bits(), 1);
    }

    #[test]
    fn dsl_policy_through_config() {
        let config = FrameworkConfig {
            policy_spec: "policy \"cfg\" { otherwise => difficulty 3; }".into(),
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MAX);
        assert_eq!(fw.policy_name(), "cfg");
    }

    #[test]
    fn bad_policy_spec_rejected() {
        let config = FrameworkConfig {
            policy_spec: "not-a-policy".into(),
            ..Default::default()
        };
        assert!(matches!(config.validate(), Err(ConfigError::Policy(_))));
    }

    #[test]
    fn bad_cap_rejected() {
        let config = FrameworkConfig {
            difficulty_cap_bits: 65,
            ..Default::default()
        };
        assert_eq!(
            config.validate().unwrap_err(),
            ConfigError::BadDifficultyCap { bits: 65 }
        );
    }

    #[test]
    fn zero_capacities_rejected() {
        for (field, config) in [
            (
                "replay",
                FrameworkConfig {
                    replay_capacity: 0,
                    ..Default::default()
                },
            ),
            (
                "audit",
                FrameworkConfig {
                    audit_capacity: 0,
                    ..Default::default()
                },
            ),
            (
                "ledger",
                FrameworkConfig {
                    ledger_capacity: 0,
                    ..Default::default()
                },
            ),
        ] {
            assert_eq!(
                config.validate().unwrap_err(),
                ConfigError::ZeroCapacity { field },
            );
        }
    }

    /// A capacity the replay guard would refuse by panicking is a typed
    /// error here, so no config can abort a server at start.
    #[test]
    fn oversized_replay_capacity_rejected() {
        let max = aipow_pow::replay::MAX_CAPACITY;
        let config = FrameworkConfig {
            replay_capacity: max + 1,
            ..Default::default()
        };
        let err = config.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::CapacityTooLarge {
                field: "replay",
                requested: max + 1,
                max,
            }
        );
        assert!(err.to_string().starts_with("replay capacity"));
        let at_max = FrameworkConfig {
            replay_capacity: max,
            ..Default::default()
        };
        assert!(at_max.validate().is_ok());
    }

    #[test]
    fn shard_count_threads_through_config() {
        let config = FrameworkConfig {
            shard_count: Some(4),
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MIN);
        assert_eq!(fw.audit().shard_count(), 4);
        // The ledger raises the requested count so its eviction scan
        // stays under the default bound: 4096 / 512 = 8 shards minimum.
        assert_eq!(fw.ledger().shard_count(), 8);
        assert!(fw.ledger().per_shard_capacity() <= aipow_shard::DEFAULT_MAX_SCAN);
    }

    #[test]
    fn eviction_max_scan_threads_through_config() {
        let config = FrameworkConfig {
            ledger_capacity: 4_096,
            eviction_max_scan: 64,
            shard_count: Some(4),
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MIN);
        assert!(fw.ledger().per_shard_capacity() <= 64);
        assert!(fw.ledger().shard_count() >= 4_096 / 64);
    }

    #[test]
    fn max_batch_threads_through_config() {
        let config = FrameworkConfig {
            max_batch: 128,
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MIN);
        assert_eq!(fw.max_batch(), 128);
        assert_eq!(FrameworkConfig::default().max_batch, 32);
    }

    #[test]
    fn lanes_threads_through_config() {
        let config = FrameworkConfig {
            lanes: Some(4),
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MIN);
        assert_eq!(fw.verifier().verify_lanes(), 4);
        // The default defers to hardware detection: always a valid width.
        assert_eq!(FrameworkConfig::default().lanes, None);
        let auto = built(FrameworkConfig::default(), ReputationScore::MIN);
        assert!((1..=aipow_crypto::MAX_LANES).contains(&auto.verifier().verify_lanes()));
    }

    #[test]
    fn out_of_range_lanes_rejected() {
        for requested in [0, 9, 64] {
            let config = FrameworkConfig {
                lanes: Some(requested),
                ..Default::default()
            };
            assert_eq!(
                config.validate().unwrap_err(),
                ConfigError::BadVerifyLanes { requested },
                "lanes {requested} should be rejected"
            );
        }
        assert!(ConfigError::BadVerifyLanes { requested: 9 }
            .to_string()
            .contains("lane"));
    }

    #[test]
    fn memory_hard_routing_threads_through_config() {
        let config = FrameworkConfig {
            memory_hard_above: Some(6.0),
            memory_hard_arena_mib: Some(1),
            ..Default::default()
        };
        let fw = built(config, ReputationScore::MAX);
        // Score 10 ≥ 6: the issued challenge must be memory-hard, with
        // the configured arena parameter.
        let issued = fw
            .handle_request(IpAddr::V4(Ipv4Addr::LOCALHOST), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        assert_eq!(
            issued.challenge.backend(),
            aipow_pow::BackendId::MEMORY_HARD
        );
        assert_eq!(issued.challenge.backend_param(), 1);
    }

    #[test]
    fn bad_routing_threshold_rejected() {
        for value in [-1.0, 11.0, f64::NAN] {
            let config = FrameworkConfig {
                memory_hard_above: Some(value),
                ..Default::default()
            };
            assert!(
                matches!(
                    config.validate(),
                    Err(ConfigError::BadRoutingThreshold { .. })
                ),
                "threshold {value} should be rejected"
            );
        }
    }

    #[test]
    fn out_of_bounds_arena_mib_rejected() {
        for requested in [0, aipow_crypto::memmix::MAX_ARENA_MIB + 1, u8::MAX] {
            let config = FrameworkConfig {
                memory_hard_arena_mib: Some(requested),
                ..Default::default()
            };
            assert_eq!(
                config.validate().unwrap_err(),
                ConfigError::BadArenaMib { requested },
                "arena size {requested} should be rejected"
            );
        }
        // The bounds themselves are accepted.
        for requested in [
            aipow_crypto::memmix::MIN_ARENA_MIB,
            aipow_crypto::memmix::MAX_ARENA_MIB,
        ] {
            let config = FrameworkConfig {
                memory_hard_arena_mib: Some(requested),
                ..Default::default()
            };
            assert!(config.validate().is_ok(), "arena size {requested} is valid");
        }
        assert!(ConfigError::BadArenaMib { requested: 0 }
            .to_string()
            .contains("MiB"));
    }

    #[test]
    fn zero_max_batch_rejected() {
        let config = FrameworkConfig {
            max_batch: 0,
            ..Default::default()
        };
        assert_eq!(
            config.validate().unwrap_err(),
            ConfigError::BadMaxBatch { requested: 0 }
        );
        assert!(ConfigError::BadMaxBatch { requested: 0 }
            .to_string()
            .contains("batch"));
    }

    #[test]
    fn zero_max_scan_rejected() {
        let config = FrameworkConfig {
            eviction_max_scan: 0,
            ..Default::default()
        };
        assert_eq!(
            config.validate().unwrap_err(),
            ConfigError::BadMaxScan { requested: 0 }
        );
    }

    #[test]
    fn out_of_range_shard_counts_rejected() {
        for requested in [0, aipow_shard::MAX_SHARDS + 1, 1 << 40] {
            let config = FrameworkConfig {
                shard_count: Some(requested),
                ..Default::default()
            };
            assert_eq!(
                config.validate().unwrap_err(),
                ConfigError::BadShardCount { requested },
                "shard_count {requested} should be rejected"
            );
        }
    }

    #[test]
    fn bad_bypass_rejected() {
        for value in [-1.0, 11.0, f64::NAN] {
            let config = FrameworkConfig {
                bypass_threshold: Some(value),
                ..Default::default()
            };
            assert!(matches!(
                config.validate(),
                Err(ConfigError::BadBypassThreshold { .. })
            ));
        }
    }

    #[test]
    fn online_settings_validate_through_config() {
        // The name predates `FrameworkConfig::online`'s removal: the
        // settings now validate where they are consumed.
        assert!(OnlineSettings::default().validate().is_ok());

        for bad in [
            OnlineSettings {
                capacity: 0,
                ..Default::default()
            },
            OnlineSettings {
                half_life_ms: 0,
                ..Default::default()
            },
            OnlineSettings {
                decay_interval_ms: 0,
                ..Default::default()
            },
            OnlineSettings {
                shard_count: Some(0),
                ..Default::default()
            },
            OnlineSettings {
                max_scan: 0,
                ..Default::default()
            },
            OnlineSettings {
                prior_strength: f64::NAN,
                ..Default::default()
            },
            OnlineSettings {
                prune_below: -1.0,
                ..Default::default()
            },
            OnlineSettings {
                load_capacity_rps: Some(0.0),
                ..Default::default()
            },
        ] {
            assert!(
                bad.validate().is_err(),
                "settings should be rejected: {bad:?}"
            );
        }
    }

    #[test]
    fn trace_sampling_threads_through_config() {
        // Default: off — no tracer attached, hot path pays nothing.
        let off = built(FrameworkConfig::default(), ReputationScore::MIN);
        assert!(off.tracer().is_none());

        let on = built(
            FrameworkConfig {
                trace_sample_rate: 1,
                flight_recorder_capacity: 256,
                ..Default::default()
            },
            ReputationScore::MIN,
        );
        let tracer = on.tracer().expect("tracer attached via config");
        assert_eq!(tracer.sample_every(), 1);
        on.handle_request(IpAddr::V4(Ipv4Addr::LOCALHOST), &FeatureVector::zeros());
        assert!(tracer.recorded() > 0);
    }

    #[test]
    fn zero_flight_recorder_capacity_rejected_when_tracing() {
        let config = FrameworkConfig {
            trace_sample_rate: 64,
            flight_recorder_capacity: 0,
            ..Default::default()
        };
        assert_eq!(
            config.validate().unwrap_err(),
            ConfigError::ZeroCapacity {
                field: "flight recorder"
            }
        );
        // With tracing off the capacity field is inert.
        let off = FrameworkConfig {
            trace_sample_rate: 0,
            flight_recorder_capacity: 0,
            ..Default::default()
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn errors_display() {
        assert!(!ConfigError::ZeroCapacity { field: "audit" }
            .to_string()
            .is_empty());
        assert!(ConfigError::BadOnlineWeight {
            field: "prior_strength",
            value: -1.0,
        }
        .to_string()
        .contains("prior_strength"));
    }
}
