//! Measurement substrate for the `aipow` workspace.
//!
//! The paper's evaluation (§III) reports *medians of 30 trials* of
//! end-to-end latency per reputation score, so faithful reproduction needs
//! careful small-sample statistics as well as cheap large-volume recording
//! for the DDoS simulations:
//!
//! - [`TrialSet`] — exact order statistics over small samples (the
//!   paper's median-of-30 methodology),
//! - [`Histogram`] — log-bucketed value histogram with ≤ 1.6 % relative
//!   quantile error for high-volume latency recording,
//! - [`OnlineStats`] — numerically stable streaming mean/variance
//!   (Welford),
//! - [`Counter`] / [`Gauge`] — atomics for the server fast path,
//! - [`Summary`] — a statistical digest used by every experiment report,
//!   written as CSV.
//!
//! # Example
//!
//! ```
//! use aipow_metrics::sample::TrialSet;
//!
//! let mut trials = TrialSet::new();
//! for latency_ms in [30.8, 31.2, 31.0, 30.9, 31.1] {
//!     trials.record(latency_ms);
//! }
//! assert_eq!(trials.median(), Some(31.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod sample;
pub mod summary;
pub mod welford;

pub use counter::{Counter, Gauge};
pub use histogram::{AtomicHistogram, Histogram};
pub use sample::TrialSet;
pub use summary::Summary;
pub use welford::OnlineStats;
