//! Live behavioral telemetry and the online reputation loop.
//!
//! The paper's framework is *AI-assisted*: the model "inspects the
//! features of the request as input". Everywhere else in this workspace
//! those features come from a hand-filled table
//! ([`aipow_core::StaticFeatureSource`]); this crate closes the loop by
//! producing them **from the system's own traffic**:
//!
//! ```text
//!            handle_request / handle_solution
//!   Framework ────────────────────────────────▶ BehaviorRecorder
//!       ▲                (BehaviorSink tap)        (sharded sketches,
//!       │                                           exponential decay)
//!       │ FeatureVector                                   │
//!       │                                                 ▼
//!   BehavioralFeatureSource ◀──────────────── ClientSketch (rate, gaps,
//!       (prior-blended cold start)              abandon/invalid/replay,
//!                                               solve latency)
//! ```
//!
//! - [`BehaviorRecorder`] — a sharded per-client recorder fed lock-lightly
//!   from the framework's [`aipow_core::tap::BehaviorSink`] tap; EWMA-style
//!   decayed counters plus [`aipow_metrics::OnlineStats`] sketches.
//! - [`BehavioralFeatureSource`] — maps live sketches onto the model's
//!   [`aipow_reputation::FeatureVector`], blending with a configurable
//!   prior so cold clients score like the static default.
//! - [`OnlineLoop`] — the assembled loop plus the background decay/rescore
//!   worker: time-based exponential decay (reputation recovers after an
//!   attack stops), capacity-bounded with cheapest-eviction like the cost
//!   ledger, and automatic [`aipow_core::Framework::set_load`] derivation
//!   from the observed aggregate arrival rate.
//!
//! # Example
//!
//! ```
//! use aipow_core::{FrameworkBuilder, OnlineSettings, StaticFeatureSource, FeatureSource};
//! use aipow_online::OnlineLoop;
//! use aipow_policy::LinearPolicy;
//! use aipow_reputation::baseline::BlocklistHeuristic;
//! use aipow_reputation::FeatureVector;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let framework = Arc::new(
//!     FrameworkBuilder::new()
//!         .master_key([1u8; 32])
//!         .model(BlocklistHeuristic)
//!         .policy(LinearPolicy::policy2())
//!         .build()?,
//! );
//! let online = OnlineLoop::attach(
//!     Arc::clone(&framework),
//!     Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
//!     OnlineSettings::default(),
//! ).expect("first sink");
//!
//! // Serve features from the loop's source: the model now sees what the
//! // client actually did.
//! let ip: std::net::IpAddr = "203.0.113.7".parse()?;
//! let features = online.source().features_for(ip);
//! let _decision = framework.handle_request(ip, &features);
//! assert_eq!(online.recorder().total_requests(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recorder;
pub mod source;
pub mod worker;

/// The crate's synchronization primitives. Under the `loom-model`
/// feature (tests only) they swap to the vendored `loom` shims; the
/// recorder's sharded state is shimmed transitively through
/// `aipow-shard`.
#[cfg(not(feature = "loom-model"))]
pub(crate) mod sync {
    pub(crate) use parking_lot::Mutex;
    pub(crate) use std::sync::atomic::{AtomicBool, Ordering};
}
#[cfg(feature = "loom-model")]
pub(crate) mod sync {
    pub(crate) use loom::sync::atomic::{AtomicBool, Ordering};
    pub(crate) use loom::sync::Mutex;
}

pub use recorder::{BehaviorRecorder, ClientSketch};
pub use source::BehavioralFeatureSource;
pub use worker::{AttachError, OnlineLoop, SweepReport};

// The settings type lives in `aipow-core` (so it can ride in
// `ServerConfig` as plain data); re-export it here as the crate's
// canonical configuration.
pub use aipow_core::OnlineSettings;
