//! The AI-assisted PoW framework (the paper's primary contribution).
//!
//! This crate composes the five modular components of Figure 1 into one
//! admission pipeline:
//!
//! 1. an **AI model** ([`aipow_reputation::ReputationModel`]) scores the
//!    incoming request's IP attributes,
//! 2. a **policy** ([`aipow_policy::Policy`]) maps the score to a puzzle
//!    difficulty,
//! 3. the **puzzle generator** ([`aipow_pow::Issuer`]) mints an
//!    authenticated challenge,
//! 4. the client's **solver** works offline (it is the only component that
//!    does not live in this crate),
//! 5. the **verifier** ([`aipow_pow::Verifier`]) checks the returned
//!    solution, after which the server releases the resource.
//!
//! The paper's two framework properties are first-class here:
//! *every client pays a cost that grows with its reputation score* (tracked
//! by the [`cost::CostLedger`]) and *the inflicted work is adaptive and
//! tunable* (policies are swappable at runtime and may read live server
//! conditions).
//!
//! Every knob that is plain data (TTL, capacities, bypass, sharding,
//! batching, lanes, routing, tracing, policy spec) is a field of
//! [`FrameworkConfig`], handed over with [`FrameworkBuilder::config`];
//! [`FrameworkBuilder::build`] validates it before constructing anything.
//!
//! # Example
//!
//! ```
//! use aipow_core::{Framework, FrameworkBuilder};
//! use aipow_policy::LinearPolicy;
//! use aipow_reputation::model::FixedScoreModel;
//! use aipow_reputation::{FeatureVector, ReputationScore};
//! use aipow_pow::solver;
//! use std::net::{IpAddr, Ipv4Addr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let framework = FrameworkBuilder::new()
//!     .master_key([1u8; 32])
//!     .model(FixedScoreModel::new(ReputationScore::new(2.0)?))
//!     .policy(LinearPolicy::policy2())
//!     .build()?;
//!
//! let ip = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 7));
//! let issued = framework.handle_request(ip, &FeatureVector::zeros()).challenge()
//!     .expect("no bypass configured");
//! assert_eq!(issued.difficulty.bits(), 7); // score 2 → policy2 → 7 bits
//!
//! let report = solver::solve(&issued.challenge, ip, &Default::default())?;
//! let token = framework.handle_solution(&report.solution, ip)?;
//! assert_eq!(token.client_ip, ip);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod controller;
pub mod cost;
pub mod export;
pub mod features;
pub mod framework;
pub mod metrics;
pub mod pipeline;
/// Sharded concurrency primitives backing every per-client structure in
/// this crate (re-exported from `aipow-shard`, which sits below
/// `aipow-pow` so the replay guard can share the implementation).
pub mod sharded {
    pub use aipow_shard::{
        default_shard_count, floor_shards, round_shards, EvictionPolicy, ShardHandle, ShardLayout,
        Sharded, ShardedMap, DEFAULT_MAX_SCAN, MAX_AUTO_SHARDS, MAX_SHARDS,
    };
}
pub mod tap;
pub mod token_bucket;

/// The crate's synchronization primitives. Under the `loom-model`
/// feature (tests only, never production builds) they swap to the
/// vendored `loom` shims so the model checker can explore the
/// interleavings of the admission path's atomics, the policy
/// `RwLock`, and the write-once sink publication.
#[cfg(not(feature = "loom-model"))]
pub(crate) mod sync {
    pub(crate) use parking_lot::RwLock;
    pub(crate) use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    pub(crate) use std::sync::OnceLock;
}
#[cfg(feature = "loom-model")]
pub(crate) mod sync {
    pub(crate) use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    pub(crate) use loom::sync::{OnceLock, RwLock};
}

pub use audit::{AuditEvent, AuditKind, AuditLog};
pub use config::{FrameworkConfig, OnlineSettings, DEFAULT_MAX_BATCH};
pub use controller::{LoadController, LoadSignal};
pub use cost::{CostLedger, LowestCost};
pub use export::{snapshot_json, snapshot_prometheus};
pub use features::{FeatureSource, StaticFeatureSource, SyntheticFeatureSource};
pub use framework::{AdmissionDecision, BuildError, Framework, FrameworkBuilder, IssuedChallenge};
pub use metrics::{FrameworkMetrics, MetricsSnapshot, StageTiming};
pub use sharded::{Sharded, ShardedMap};
pub use tap::{BehaviorSink, RequestObservation, SolutionObservation};
pub use token_bucket::{LeastRecentlyRefilled, RateLimiter, TokenBucket};
