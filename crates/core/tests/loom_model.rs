//! Bounded-interleaving model tests for the admission pipeline's
//! concurrency-sensitive pieces: batched audit sequence reservation,
//! the lock-free metrics counters, and the write-once behavior-sink
//! publication.
//!
//! Run with `cargo test -p aipow-core --features loom-model`. See
//! `crates/shard/tests/loom_model.rs` for the sharded-map protocols
//! these build on, and DESIGN.md §11 for the checker's architecture.

#![cfg(feature = "loom-model")]

use aipow_core::metrics::FrameworkMetrics;
use aipow_core::tap::BehaviorSink;
use aipow_core::{AuditEvent, AuditKind, AuditLog, Framework, FrameworkBuilder};
use aipow_policy::LinearPolicy;
use aipow_pow::{Difficulty, VerifyError};
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn ip() -> IpAddr {
    "192.0.2.1"
        .parse()
        .expect("valid fixture address: invariant")
}

fn event(at_ms: u64) -> AuditEvent {
    AuditEvent {
        at_ms,
        client_ip: ip(),
        kind: AuditKind::Bypassed {
            score: ReputationScore::MIN,
        },
    }
}

/// Two racing `record_batch` calls: the single `fetch_add(n)` reserves
/// each batch a contiguous, disjoint sequence range, so the merged
/// snapshot is always one whole batch followed by the other — never an
/// interleaving of the two, and never a lost event. A load-then-store
/// reservation (the PR 5 regression the analyze self-test re-applies)
/// hands both batches the same base and fails all three asserts.
#[test]
fn record_batch_reserves_disjoint_contiguous_seq_ranges() {
    loom::model(|| {
        let log = Arc::new(AuditLog::with_shards(8, 2));
        let other = Arc::clone(&log);
        let racer = loom::thread::spawn(move || {
            other.record_batch(2, |i| event([10, 11][i]));
        });
        log.record_batch(2, |i| event([20, 21][i]));
        racer.join().expect("model thread join: invariant");
        assert_eq!(log.recorded(), 4, "one reservation per batch");
        assert_eq!(log.len(), 4, "no event lost to a duplicate sequence");
        // Snapshot is most-recent-first by sequence number: whichever
        // batch reserved second appears first, both internally ordered.
        let stamps: Vec<u64> = log.snapshot().iter().map(|e| e.at_ms).collect();
        assert!(
            stamps == vec![11, 10, 21, 20] || stamps == vec![21, 20, 11, 10],
            "batches interleaved or reordered: {stamps:?}"
        );
    });
}

/// Concurrent rejection recording: the per-reason tallies and the
/// total are exact — the fixed-array `fetch_add` design loses nothing.
#[test]
fn rejection_counters_lose_no_updates() {
    loom::model(|| {
        let metrics = Arc::new(FrameworkMetrics::new());
        let other = Arc::clone(&metrics);
        let racer = loom::thread::spawn(move || {
            other.record_rejection("replayed");
            other.record_rejection("expired");
        });
        metrics.record_rejection("replayed");
        racer.join().expect("model thread join: invariant");
        let snap = metrics.snapshot();
        assert_eq!(snap.rejected_by_reason["replayed"], 2);
        assert_eq!(snap.rejected_by_reason["expired"], 1);
        assert_eq!(snap.solutions_rejected, 3);
    });
}

/// Concurrent stage-timer recording on the same stage: batch, item,
/// and nanosecond accumulators all stay exact.
#[test]
fn stage_timers_lose_no_updates() {
    loom::model(|| {
        let metrics = Arc::new(FrameworkMetrics::new());
        let other = Arc::clone(&metrics);
        let racer = loom::thread::spawn(move || {
            other.record_stage(0, 3, 100);
        });
        metrics.record_stage(0, 1, 50);
        racer.join().expect("model thread join: invariant");
        let timings = metrics.snapshot().stage_timings;
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].batches, 2);
        assert_eq!(timings[0].items, 4);
        assert_eq!(timings[0].total_ns, 150);
    });
}

#[derive(Default)]
struct CountingSink {
    requests: AtomicU64,
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

    fn on_solution(&self, _ip: IpAddr, _now_ms: u64, _outcome: Result<Difficulty, &VerifyError>) {}
}

fn test_framework() -> Framework {
    FrameworkBuilder::new()
        .master_key([1u8; 32])
        .model(FixedScoreModel::new(
            ReputationScore::new(2.0).expect("2.0 is in score range: invariant"),
        ))
        .policy(LinearPolicy::policy2())
        .build()
        .expect("fixture framework builds: invariant")
}

/// Two threads race `set_behavior_sink`: exactly one publication wins
/// in every schedule, and a subsequent admission is observed by the
/// winner only — the loser's sink is provably never attached.
#[test]
fn behavior_sink_publication_is_write_once() {
    loom::model(|| {
        let framework = Arc::new(test_framework());
        let winner_a = Arc::new(CountingSink::default());
        let winner_b = Arc::new(CountingSink::default());
        let (other_fw, other_sink) = (Arc::clone(&framework), Arc::clone(&winner_b));
        let racer = loom::thread::spawn(move || {
            other_fw.set_behavior_sink(other_sink as Arc<dyn BehaviorSink>)
        });
        let mine = framework.set_behavior_sink(Arc::clone(&winner_a) as Arc<dyn BehaviorSink>);
        let theirs = racer.join().expect("model thread join: invariant");
        assert!(
            mine ^ theirs,
            "exactly one of two racing publications must win (mine={mine}, theirs={theirs})"
        );
        framework.handle_request(ip(), &FeatureVector::zeros());
        let (a, b) = (
            winner_a.requests.load(Ordering::Relaxed),
            winner_b.requests.load(Ordering::Relaxed),
        );
        assert_eq!(a + b, 1, "the event reached exactly one sink");
        assert_eq!(
            if mine { b } else { a },
            0,
            "the losing sink must never observe an event"
        );
    });
}
