//! # aipow — A Policy Driven AI-Assisted PoW Framework
//!
//! A production-quality Rust reproduction of *“A Policy Driven AI-Assisted
//! PoW Framework”* (Chakraborty, Mitra, Mittal, Young — DSN 2022,
//! arXiv:2203.10698): a modular proof-of-work admission system in which an
//! AI model scores each incoming request's source IP, a policy maps the
//! score to a puzzle difficulty, and untrustworthy clients therefore incur
//! more latency to be served — throttling DDoS traffic while keeping
//! trusted clients fast.
//!
//! This crate is the facade over the workspace; each component lives in
//! its own crate and is re-exported here under a topical module:
//!
//! | module | crate | role (paper section) |
//! |---|---|---|
//! | [`crypto`] | `aipow-crypto` | SHA-256/HMAC/HKDF substrate (§II.4 hash puzzles) |
//! | [`pow`] | `aipow-pow` | issuer, solver, verifier (§II.3–§II.5) |
//! | [`reputation`] | `aipow-reputation` | DAbR-style AI model (§II.1) |
//! | [`policy`] | `aipow-policy` | score→difficulty policies 1–3 + DSL (§II.2, §III) |
//! | [`framework`] | `aipow-core` | the composed admission pipeline (Figure 1) |
//! | [`online`] | `aipow-online` | live behavioral telemetry + online reputation loop |
//! | [`wire`] | `aipow-wire` | binary protocol for the challenge exchange |
//! | [`net`] | `aipow-net` | real TCP server/client runtime |
//! | [`netsim`] | `aipow-netsim` | calibrated evaluation testbed (§III) |
//! | [`metrics`] | `aipow-metrics` | measurement substrate |
//! | [`trace`] | `aipow-trace` | request-scoped tracing + anomaly flight recorder |
//!
//! # Quickstart
//!
//! ```
//! use aipow::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Assemble the framework: model → policy → issuer/verifier. Every
//! //    other knob is a `FrameworkConfig` field, passed with `.config(..)`.
//! let framework = FrameworkBuilder::new()
//!     .master_key([42u8; 32])
//!     .model(FixedScoreModel::new(ReputationScore::new(7.0)?))
//!     .policy(LinearPolicy::policy2())
//!     .build()?;
//!
//! // 2. A request arrives; the pipeline issues a puzzle.
//! let client: std::net::IpAddr = "203.0.113.9".parse()?;
//! let issued = framework
//!     .handle_request(client, &FeatureVector::zeros())
//!     .challenge()
//!     .expect("no bypass configured");
//! assert_eq!(issued.difficulty.bits(), 12); // score 7 → policy 2 → 12 bits
//!
//! // 3. The client solves and the verifier admits it.
//! let report = solve(&issued.challenge, client, &SolverOptions::default())?;
//! let token = framework.handle_solution(&report.solution, client)?;
//! assert_eq!(token.client_ip, client);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable scenarios and
//! `EXPERIMENTS.md` for the full reproduction of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cryptographic substrate: SHA-256, HMAC, HKDF, hex, memory-hard mixing.
pub mod crypto {
    pub use aipow_crypto::*;
}

/// Proof-of-work puzzles: issuance, solving, verification, replay guard.
pub mod pow {
    pub use aipow_pow::*;
}

/// IP reputation scoring: the DAbR reimplementation, dataset synthesis,
/// baselines, and evaluation metrics.
pub mod reputation {
    pub use aipow_reputation::*;
}

/// Score→difficulty policies: the paper's Policies 1–3, extensions, and
/// the administrator rule DSL.
pub mod policy {
    pub use aipow_policy::*;
}

/// The composed admission framework (the paper's primary contribution).
pub mod framework {
    pub use aipow_core::*;
}

/// Live behavioral telemetry: the sharded behavior recorder, the
/// prior-blending behavioral feature source, and the decay/rescore
/// worker that closes the reputation loop.
pub mod online {
    pub use aipow_online::*;
}

/// Binary wire protocol for the challenge exchange.
pub mod wire {
    pub use aipow_wire::*;
}

/// Real TCP server/client runtime.
pub mod net {
    pub use aipow_net::*;
}

/// Deterministic evaluation testbed: calibrated profiles, the Figure 2
/// experiment, and DDoS scenarios.
pub mod netsim {
    pub use aipow_netsim::*;
}

/// Measurement substrate: histograms, trial sets, online statistics.
pub mod metrics {
    pub use aipow_metrics::*;
}

/// Request-scoped tracing: the sampled span tracer, per-shard bounded
/// rings, and the anomaly flight recorder.
pub mod trace {
    pub use aipow_trace::*;
}

/// The most common imports, for `use aipow::prelude::*`.
pub mod prelude {
    pub use aipow_core::{
        AdmissionDecision, FeatureSource, Framework, FrameworkBuilder, FrameworkConfig,
        LoadController, OnlineSettings, StaticFeatureSource,
    };
    pub use aipow_online::{BehaviorRecorder, BehavioralFeatureSource, OnlineLoop};
    pub use aipow_policy::{
        ErrorRangePolicy, LinearPolicy, Policy, PolicyContext, PowerPolicy, StepPolicy,
    };
    pub use aipow_pow::solver::{solve, solve_parallel, SolverOptions};
    pub use aipow_pow::{Challenge, Difficulty, Issuer, Solution, VerifiedToken, Verifier};
    pub use aipow_reputation::model::FixedScoreModel;
    pub use aipow_reputation::{
        DabrModel, Dataset, DatasetSpec, FeatureVector, ReputationModel, ReputationScore,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        use crate::prelude::*;
        let d = Difficulty::new(3).unwrap();
        assert_eq!(d.bits(), 3);
        let p = LinearPolicy::policy1();
        assert_eq!(p.name(), "policy1");
    }
}
