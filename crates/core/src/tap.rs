//! Behavioral taps on the admission pipeline.
//!
//! The paper's AI model "inspects the features of the request as input" —
//! but a deployment has to *produce* those features from somewhere. The
//! [`BehaviorSink`] trait is the framework's outbound half of that loop:
//! [`Framework`](crate::Framework) reports every admission decision and
//! every verification outcome to an attached sink, and an online feature
//! extractor (see the `aipow-online` crate) turns the stream into live
//! per-client sketches that feed back into the model via
//! [`FeatureSource`](crate::FeatureSource).
//!
//! The tap is designed for the hot path:
//!
//! - the framework stores the sink in a [`std::sync::OnceLock`], so the
//!   per-request cost when no sink is attached is one atomic load and a
//!   branch — no lock, ever;
//! - sink implementations are expected to shard their own state (the
//!   `aipow-online` recorder is built on `aipow-shard`), so two clients
//!   never contend on a sink-global lock;
//! - events carry only `Copy` data plus a borrowed [`VerifyError`], so
//!   an event allocates nothing; the framework delivers each admission
//!   pass's events as one slice through
//!   [`on_request_batch`](BehaviorSink::on_request_batch) /
//!   [`on_solution_batch`](BehaviorSink::on_solution_batch), whose
//!   buffer it builds only while a sink is attached.

use aipow_pow::{Difficulty, VerifyError};
use aipow_reputation::ReputationScore;
use std::net::IpAddr;

/// One scored request, as delivered to
/// [`BehaviorSink::on_request_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestObservation {
    /// The client that requested.
    pub ip: IpAddr,
    /// The model's score for the client.
    pub score: ReputationScore,
    /// The issued puzzle difficulty, or `None` for a bypass admission.
    pub difficulty: Option<Difficulty>,
}

/// One verification outcome, as delivered to
/// [`BehaviorSink::on_solution_batch`].
#[derive(Debug, Clone, Copy)]
pub struct SolutionObservation<'a> {
    /// The client that submitted.
    pub ip: IpAddr,
    /// `Ok` with the solved difficulty, or the verifier's rejection.
    pub outcome: Result<Difficulty, &'a VerifyError>,
}

/// Observes admission events emitted by [`Framework`](crate::Framework).
///
/// Implementations must be cheap and non-blocking: the framework calls
/// them synchronously on the request and solution paths.
pub trait BehaviorSink: Send + Sync {
    /// A resource request was scored. `difficulty` is the issued puzzle
    /// difficulty, or `None` when the request was admitted via the bypass
    /// threshold.
    fn on_request(
        &self,
        ip: IpAddr,
        now_ms: u64,
        score: ReputationScore,
        difficulty: Option<Difficulty>,
    );

    /// A solution was verified: `Ok` with the solved difficulty, or the
    /// verifier's rejection.
    fn on_solution(&self, ip: IpAddr, now_ms: u64, outcome: Result<Difficulty, &VerifyError>);

    /// A resource request was rejected upstream of the framework (e.g.
    /// by the server's per-IP rate limiter) and never reached
    /// [`Framework::handle_request`](crate::Framework::handle_request).
    ///
    /// Default: no-op. Recorders should count these toward the client's
    /// arrival rate — the heaviest flooders are precisely the clients
    /// whose requests mostly die at the limiter, and a tap blind to them
    /// would score them *better* than moderate clients.
    fn on_rate_limited(&self, _ip: IpAddr, _now_ms: u64) {}

    /// A batch of scored requests, all observed at `now_ms` (the batch
    /// admission path reads the clock once per group). The default
    /// delivers each observation through [`on_request`](Self::on_request)
    /// in order, so sinks that never override see identical events from
    /// both paths; sinks with sharded state (the `aipow-online` recorder)
    /// override this to take each shard lock once per batch instead of
    /// once per event.
    fn on_request_batch(&self, now_ms: u64, batch: &[RequestObservation]) {
        for obs in batch {
            self.on_request(obs.ip, now_ms, obs.score, obs.difficulty);
        }
    }

    /// A batch of verification outcomes, all observed at `now_ms`. Same
    /// contract as [`on_request_batch`](Self::on_request_batch): the
    /// default loops over [`on_solution`](Self::on_solution) in order.
    fn on_solution_batch(&self, now_ms: u64, batch: &[SolutionObservation<'_>]) {
        for obs in batch {
            self.on_solution(obs.ip, now_ms, obs.outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct CountingSink {
        requests: AtomicU64,
        solutions: AtomicU64,
    }

    impl BehaviorSink for CountingSink {
        fn on_request(
            &self,
            _ip: IpAddr,
            _now_ms: u64,
            _score: ReputationScore,
            _difficulty: Option<Difficulty>,
        ) {
            self.requests.fetch_add(1, Ordering::Relaxed);
        }

        fn on_solution(
            &self,
            _ip: IpAddr,
            _now_ms: u64,
            _outcome: Result<Difficulty, &VerifyError>,
        ) {
            self.solutions.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn sink_is_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<std::sync::Arc<dyn BehaviorSink>>();
        let sink: Box<dyn BehaviorSink> = Box::<CountingSink>::default();
        sink.on_request("192.0.2.1".parse().unwrap(), 0, ReputationScore::MIN, None);
        sink.on_solution("192.0.2.1".parse().unwrap(), 0, Err(&VerifyError::BadMac));
    }

    #[test]
    fn default_batch_methods_deliver_every_observation() {
        let sink = CountingSink::default();
        let ip: IpAddr = "192.0.2.1".parse().unwrap();
        sink.on_request_batch(
            7,
            &[
                RequestObservation {
                    ip,
                    score: ReputationScore::MIN,
                    difficulty: None,
                },
                RequestObservation {
                    ip,
                    score: ReputationScore::MAX,
                    difficulty: aipow_pow::Difficulty::new(5).ok(),
                },
            ],
        );
        let err = VerifyError::BadMac;
        sink.on_solution_batch(
            7,
            &[SolutionObservation {
                ip,
                outcome: Err(&err),
            }],
        );
        sink.on_solution_batch(7, &[]);
        assert_eq!(sink.requests.load(Ordering::Relaxed), 2);
        assert_eq!(sink.solutions.load(Ordering::Relaxed), 1);
    }
}
