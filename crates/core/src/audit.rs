//! Bounded audit log of admission decisions.
//!
//! Operators tuning a policy need to see *why* clients were charged what
//! they were. The log keeps the most recent `capacity` events in memory;
//! persistence is the embedder's concern.

use crate::sync::{AtomicU64, Ordering};
use aipow_pow::Difficulty;
use aipow_reputation::ReputationScore;
use aipow_shard::{default_shard_count, floor_shards, round_shards, Sharded};
use std::collections::VecDeque;
use std::net::IpAddr;

/// What happened in one admission step.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditKind {
    /// A challenge was issued (Figure 1, steps 2–4).
    ChallengeIssued {
        /// The model's score for the client.
        score: ReputationScore,
        /// The policy's difficulty decision.
        difficulty: Difficulty,
    },
    /// A solution verified successfully (steps 6–7).
    SolutionAccepted {
        /// The difficulty that was paid.
        difficulty: Difficulty,
    },
    /// A solution was rejected.
    SolutionRejected {
        /// The verifier's reason, as text.
        reason: String,
    },
    /// The request was admitted without a puzzle (bypass threshold).
    Bypassed {
        /// The model's score for the client.
        score: ReputationScore,
    },
}

/// One audit event.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEvent {
    /// When it happened, ms since the Unix epoch.
    pub at_ms: u64,
    /// The client concerned.
    pub client_ip: IpAddr,
    /// What happened.
    pub kind: AuditKind,
}

/// A bounded, thread-safe, most-recent-first audit log.
///
/// Internally a *sharded ring*: a global atomic sequence number assigns
/// each event to a shard round-robin (`seq mod shards`), and each shard
/// keeps the most recent `ceil(capacity / shards)` of its events in a
/// ring buffer. Because assignment is round-robin, any window of
/// `capacity` consecutive sequence numbers places at most the per-shard
/// quota on each shard — so the union of the shard rings always contains
/// the last `capacity` events exactly, and [`snapshot`](AuditLog::snapshot)
/// reconstructs global order by merging on the sequence number.
/// Concurrent recorders therefore contend only 1-in-`shards` of the time
/// instead of on every event.
///
/// ```
/// use aipow_core::{AuditLog, AuditKind};
/// # use std::net::{IpAddr, Ipv4Addr};
/// let log = AuditLog::new(2);
/// let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
/// for i in 0..3 {
///     log.record(i, ip, AuditKind::SolutionRejected { reason: format!("r{i}") });
/// }
/// let events = log.snapshot();
/// assert_eq!(events.len(), 2); // oldest evicted
/// assert_eq!(events[0].at_ms, 2); // most recent first
/// ```
#[derive(Debug)]
pub struct AuditLog {
    shards: Sharded<VecDeque<(u64, AuditEvent)>>,
    /// Next event sequence number; also the total ever recorded.
    seq: AtomicU64,
    capacity: usize,
    per_shard: usize,
}

impl AuditLog {
    /// Creates a log retaining at most `capacity` events, with an
    /// automatically chosen shard count (never more shards than
    /// capacity).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "audit log capacity must be positive");
        let auto = default_shard_count().min(capacity);
        Self::with_shards(capacity, floor_shards(auto))
    }

    /// Creates a log with an explicit shard count (rounded up to a power
    /// of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_shards(capacity: usize, shard_count: usize) -> Self {
        assert!(capacity > 0, "audit log capacity must be positive");
        let shard_count = round_shards(shard_count);
        let per_shard = capacity.div_ceil(shard_count);
        AuditLog {
            shards: Sharded::new(shard_count, |_| VecDeque::with_capacity(per_shard)),
            seq: AtomicU64::new(0),
            capacity,
            per_shard,
        }
    }

    /// Number of shards the ring is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// The most events the log retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, evicting the oldest if full: a batch of one
    /// through [`record_batch`](AuditLog::record_batch).
    pub fn record(&self, at_ms: u64, client_ip: IpAddr, kind: AuditKind) {
        let mut event = Some(AuditEvent {
            at_ms,
            client_ip,
            kind,
        });
        self.record_batch(1, |_| {
            event
                .take()
                .expect("batch invariant: a batch of one builds one event")
        });
    }

    /// Appends `n` events, `event(i)` being the `i`-th, in order,
    /// reserving the whole sequence range with **one** atomic add and
    /// taking each shard's lock **once** for the batch. Round-robin
    /// assignment places consecutive sequence numbers on consecutive
    /// shards, so a batch of `n` events touches `min(n, shards)` shards
    /// with `⌈n / shards⌉` appends each. `event` is called once per
    /// index, shard by shard rather than in index order, under that
    /// shard's lock; the batch needs no buffer of its own. Retention and
    /// ordering semantics are identical to `n` calls to
    /// [`record`](AuditLog::record).
    ///
    /// Under contention two recorders may land in the same shard with
    /// their sequence numbers reversed, in which case a full ring can
    /// evict an event one slot newer than the strict global oldest; the
    /// merge in [`snapshot`](AuditLog::snapshot) restores exact order for
    /// everything retained.
    pub fn record_batch(&self, n: usize, mut event: impl FnMut(usize) -> AuditEvent) {
        if n == 0 {
            return;
        }
        // AcqRel: reservations form one total order; pairs with the
        // Acquire in recorded() so an observed count covers its events.
        // One RMW reserves the whole batch range.
        let base = self.seq.fetch_add(n as u64, Ordering::AcqRel);
        let shards = self.shards.shard_count();
        for offset in 0..shards.min(n) {
            self.shards
                .with_index((base as usize).wrapping_add(offset), |ring| {
                    for i in (offset..n).step_by(shards) {
                        if ring.len() == self.per_shard {
                            ring.pop_front();
                        }
                        ring.push_back((base + i as u64, event(i)));
                    }
                });
        }
    }

    /// The retained events, most recent first: shard rings are merged by
    /// sequence number, restoring the exact global record order.
    pub fn snapshot(&self) -> Vec<AuditEvent> {
        let mut merged: Vec<(u64, AuditEvent)> = self.shards.fold(Vec::new(), |mut acc, ring| {
            acc.extend(ring.iter().cloned());
            acc
        });
        merged.sort_by_key(|entry| std::cmp::Reverse(entry.0));
        merged.truncate(self.capacity);
        merged.into_iter().map(|(_, event)| event).collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        let total = self.shards.fold(0, |acc, ring| acc + ring.len());
        total.min(self.capacity)
    }

    /// Number of events ever recorded (retained or evicted).
    pub fn recorded(&self) -> u64 {
        // Acquire: pairs with the AcqRel seq reservations
        self.seq.load(Ordering::Acquire)
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip() -> IpAddr {
        IpAddr::V4(Ipv4Addr::LOCALHOST)
    }

    #[test]
    fn records_and_snapshots_most_recent_first() {
        let log = AuditLog::new(10);
        log.record(
            1,
            ip(),
            AuditKind::Bypassed {
                score: ReputationScore::MIN,
            },
        );
        log.record(
            2,
            ip(),
            AuditKind::SolutionAccepted {
                difficulty: Difficulty::new(5).unwrap(),
            },
        );
        let events = log.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at_ms, 2);
        assert_eq!(events[1].at_ms, 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let log = AuditLog::new(3);
        for i in 0..5u64 {
            log.record(i, ip(), AuditKind::SolutionRejected { reason: "x".into() });
        }
        let events = log.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at_ms, 4);
        assert_eq!(events[2].at_ms, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        AuditLog::new(0);
    }

    #[test]
    fn sharded_ring_preserves_global_order_on_read() {
        let log = AuditLog::with_shards(16, 4);
        assert_eq!(log.shard_count(), 4);
        for i in 0..40u64 {
            log.record(i, ip(), AuditKind::SolutionRejected { reason: "x".into() });
        }
        assert_eq!(log.len(), 16);
        assert_eq!(log.recorded(), 40);
        let events = log.snapshot();
        // Exactly the last 16 events, most recent first, in exact order.
        let got: Vec<u64> = events.iter().map(|e| e.at_ms).collect();
        let want: Vec<u64> = (24..40).rev().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn record_batch_matches_sequential_records_exactly() {
        // Same events through both paths: identical retention, order,
        // and sequence accounting.
        let single = AuditLog::with_shards(16, 4);
        let batched = AuditLog::with_shards(16, 4);
        let events: Vec<AuditEvent> = (0..40u64)
            .map(|i| AuditEvent {
                at_ms: i,
                client_ip: ip(),
                kind: AuditKind::SolutionRejected {
                    reason: format!("r{i}"),
                },
            })
            .collect();
        for e in &events {
            single.record(e.at_ms, e.client_ip, e.kind.clone());
        }
        // Mixed batch sizes covering n < shards, n == shards, n > shards.
        let mut start = 0;
        for take in [1usize, 3, 4, 9, 23] {
            batched.record_batch(take, |i| events[start + i].clone());
            start += take;
        }
        batched.record_batch(0, |_| unreachable!("an empty batch builds no event"));
        assert_eq!(batched.recorded(), single.recorded());
        assert_eq!(batched.len(), single.len());
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn record_batch_larger_than_capacity_keeps_the_tail() {
        let log = AuditLog::with_shards(4, 2);
        log.record_batch(10, |i| AuditEvent {
            at_ms: i as u64,
            client_ip: ip(),
            kind: AuditKind::SolutionRejected { reason: "x".into() },
        });
        let got: Vec<u64> = log.snapshot().iter().map(|e| e.at_ms).collect();
        assert_eq!(got, vec![9, 8, 7, 6]);
    }

    #[test]
    fn shard_count_never_exceeds_capacity() {
        assert_eq!(AuditLog::new(1).shard_count(), 1);
        assert!(AuditLog::new(2).shard_count() <= 2);
        assert!(AuditLog::new(1_024).shard_count() >= 1);
    }

    #[test]
    fn concurrent_records_are_all_kept_up_to_capacity() {
        use std::sync::Arc;
        let log = Arc::new(AuditLog::new(1_000));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.record(
                            t * 1_000 + i,
                            ip(),
                            AuditKind::Bypassed {
                                score: ReputationScore::MIN,
                            },
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 400);
    }
}
