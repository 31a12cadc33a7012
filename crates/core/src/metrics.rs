//! Framework-level operational metrics.

use crate::sync::{AtomicU64, Ordering};
use aipow_metrics::{AtomicHistogram, Counter, Gauge};
use aipow_pow::VerifyError;
use std::collections::HashMap;

/// The verifier's stable rejection labels — one per [`VerifyError`]
/// variant, as [`reason_label`] spells them — plus a catch-all. Indexing
/// a fixed array keeps the rejection path — which an attacker drives at
/// flood rate — lock-free.
pub(crate) const REJECT_REASONS: [&str; 13] = [
    "unsupported_version",
    "unknown_backend",
    "backend_mismatch",
    "invalid_backend_param",
    "difficulty_too_high",
    "bad_mac",
    "client_mismatch",
    "not_yet_valid",
    "expired",
    "replayed",
    "insufficient_work",
    "malformed_nonce",
    "other",
];

/// The rejection label a [`VerifyError`] is tallied under. Every label
/// returned here must be listed in [`REJECT_REASONS`], or the rejection
/// is counted as `other`.
pub(crate) fn reason_label(err: &VerifyError) -> &'static str {
    match err {
        VerifyError::UnsupportedVersion { .. } => "unsupported_version",
        VerifyError::UnknownBackend { .. } => "unknown_backend",
        VerifyError::BackendMismatch { .. } => "backend_mismatch",
        VerifyError::InvalidBackendParam { .. } => "invalid_backend_param",
        VerifyError::DifficultyTooHigh { .. } => "difficulty_too_high",
        VerifyError::BadMac => "bad_mac",
        VerifyError::ClientMismatch => "client_mismatch",
        VerifyError::NotYetValid => "not_yet_valid",
        VerifyError::Expired { .. } => "expired",
        VerifyError::Replayed => "replayed",
        VerifyError::InsufficientWork { .. } => "insufficient_work",
        VerifyError::MalformedNonce => "malformed_nonce",
    }
}

/// Lock-free per-reason rejection tallies.
#[derive(Debug)]
struct RejectionCounts {
    counts: [AtomicU64; REJECT_REASONS.len()],
}

impl Default for RejectionCounts {
    fn default() -> Self {
        RejectionCounts {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl RejectionCounts {
    fn record(&self, reason: &'static str) {
        let idx = REJECT_REASONS
            .iter()
            .position(|r| *r == reason)
            .unwrap_or(REJECT_REASONS.len() - 1);
        // relaxed: monotonic stats counter; snapshot tolerates cross-
        // counter skew
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Current tally for one reason label (0 for unknown labels).
    fn count_for(&self, reason: &str) -> u64 {
        REJECT_REASONS
            .iter()
            .position(|r| *r == reason)
            // relaxed: monitoring read of one independent counter
            .map(|idx| self.counts[idx].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Labels with nonzero counts.
    fn snapshot(&self) -> HashMap<String, u64> {
        REJECT_REASONS
            .iter()
            .zip(self.counts.iter())
            .filter_map(|(label, count)| {
                // relaxed: monitoring read; counters are independent
                let n = count.load(Ordering::Relaxed);
                (n > 0).then(|| (label.to_string(), n))
            })
            .collect()
    }
}

/// The admission pipeline's stages, in chain order: the request chain
/// (`score → bypass → policy → issue → request_telemetry`) followed by
/// the solution chain (`verify → charge → solution_telemetry`). Indexes
/// into the per-stage latency counters. This is a stage name's one
/// declaration: `aipow_core::pipeline` pairs each stage function with
/// its slot here and names the stage's trace spans from it.
pub const STAGE_NAMES: [&str; 8] = [
    "score",
    "bypass",
    "policy",
    "issue",
    "request_telemetry",
    "verify",
    "charge",
    "solution_telemetry",
];

/// Lock-free per-stage latency counters: every run of a pipeline stage
/// (over a batch of one on the sequential path, a group on the batch
/// path) adds its wall-clock nanoseconds, the count of items it
/// *actually processed* (contexts a stage skips — bypassed requests at
/// the issue stage, rejected solutions at the charge stage — are
/// excluded), and one batch to its stage's slot. `total_ns / items` is
/// therefore an honest amortized per-item stage cost; `items / batches`
/// the achieved batching factor.
#[derive(Debug)]
struct StageTimers {
    batches: [AtomicU64; STAGE_NAMES.len()],
    items: [AtomicU64; STAGE_NAMES.len()],
    nanos: [AtomicU64; STAGE_NAMES.len()],
    /// Per-item amortized latency distribution per stage (lock-free; a
    /// batch of `k` items records `k` observations of `nanos / k`).
    latency: [AtomicHistogram; STAGE_NAMES.len()],
}

impl Default for StageTimers {
    fn default() -> Self {
        StageTimers {
            batches: std::array::from_fn(|_| AtomicU64::new(0)),
            items: std::array::from_fn(|_| AtomicU64::new(0)),
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }
}

impl StageTimers {
    fn record(&self, stage: usize, items: u64, nanos: u64) {
        let idx = stage.min(STAGE_NAMES.len() - 1);
        // relaxed: monotonic stats counters; snapshot tolerates cross-
        // counter skew
        self.batches[idx].fetch_add(1, Ordering::Relaxed);
        self.items[idx].fetch_add(items, Ordering::Relaxed); // relaxed: as above
        self.nanos[idx].fetch_add(nanos, Ordering::Relaxed); // relaxed: as above
        self.latency[idx].record_n(nanos / items.max(1), items);
    }

    /// Stages that have run at least once, in chain order.
    fn snapshot(&self) -> Vec<StageTiming> {
        STAGE_NAMES
            .iter()
            .enumerate()
            .filter_map(|(i, name)| {
                // relaxed: monitoring reads; a snapshot is allowed to
                // straddle updates
                let batches = self.batches[i].load(Ordering::Relaxed);
                (batches > 0).then(|| {
                    let latency = self.latency[i].snapshot();
                    StageTiming {
                        stage: name.to_string(),
                        batches,
                        items: self.items[i].load(Ordering::Relaxed), // relaxed: as above
                        total_ns: self.nanos[i].load(Ordering::Relaxed), // relaxed: as above
                        p50_ns: latency.value_at_quantile(0.5),
                        p99_ns: latency.value_at_quantile(0.99),
                    }
                })
            })
            .collect()
    }
}

/// One pipeline stage's accumulated latency, as reported in
/// [`MetricsSnapshot::stage_timings`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub stage: String,
    /// Stage invocations (one per batch, of any size).
    pub batches: u64,
    /// Requests/solutions the stage actually processed across all
    /// batches (skipped contexts excluded).
    pub items: u64,
    /// Total wall-clock nanoseconds spent in the stage.
    pub total_ns: u64,
    /// Median amortized per-item stage latency in nanoseconds (≤ 1.6 %
    /// bucket error; a batch of `k` contributes `k` samples of its
    /// per-item average).
    pub p50_ns: u64,
    /// 99th-percentile amortized per-item stage latency in nanoseconds.
    pub p99_ns: u64,
}

/// Lock-free distribution of issued difficulties: one atomic bucket per
/// possible bit count. Difficulty is at most 64 bits, so the exact
/// distribution fits in a fixed array and the admission hot path never
/// takes a lock to record it.
#[derive(Debug)]
struct DifficultyBuckets {
    counts: [AtomicU64; 65],
}

impl Default for DifficultyBuckets {
    fn default() -> Self {
        DifficultyBuckets {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl DifficultyBuckets {
    fn record(&self, bits: u8) {
        // relaxed: monotonic histogram bucket; readers tolerate lag
        self.counts[(bits as usize).min(64)].fetch_add(1, Ordering::Relaxed);
    }

    /// Exact lower median of recorded bit counts (0 when empty).
    fn median(&self) -> u64 {
        let loaded: Vec<u64> = self
            .counts
            .iter()
            // relaxed: monitoring read; buckets are independent
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = loaded.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = total.div_ceil(2);
        let mut cumulative = 0;
        for (bits, n) in loaded.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bits as u64;
            }
        }
        0
    }

    /// Highest recorded bit count (0 when empty).
    fn max(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .rev()
            // relaxed: monitoring read; buckets are independent
            .find(|(_, c)| c.load(Ordering::Relaxed) > 0)
            .map(|(bits, _)| bits as u64)
            .unwrap_or(0)
    }
}

/// One scalar metric as the exporters see it: its exposition kind and
/// its value in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// A monotonic total.
    Counter(u64),
    /// A point-in-time level.
    Gauge(u64),
    /// A derived ratio (per second, per wakeup); exposed as a float gauge.
    Rate(f64),
}

/// Declares every scalar metric exactly once. Each row becomes a field
/// of [`FrameworkMetrics`] (`live` rows only), a field of
/// [`MetricsSnapshot`], its copy in [`FrameworkMetrics::snapshot`] and
/// its row in [`SCALAR_METRICS`], which is all the exporters read — so a
/// new metric is one entry here. A `live` row names its cell type, which
/// is also its [`Metric`] kind; a `derived` row has no cell and computes
/// its snapshot value from the metrics it is handed.
macro_rules! scalar_metrics {
    // A live cell as the unsigned value a snapshot carries (a gauge that
    // transiently dipped below zero reads 0).
    (@read Counter $cell:expr) => { $cell.get() };
    (@read Gauge $cell:expr) => { $cell.get().max(0) as u64 };
    (
        live { $($(#[$live_doc:meta])* $live:ident: $cell:ident,)* }
        derived { $($(#[$doc:meta])* $derived:ident: $kind:ident($ty:ty) = |$m:ident| $value:expr,)* }
    ) => {
        /// Live counters for the admission pipeline. Cheap to update from
        /// any worker thread.
        #[derive(Debug, Default)]
        pub struct FrameworkMetrics {
            $($(#[$live_doc])* pub $live: $cell,)*
            /// Rejections keyed by the verifier's reason label (lock-free).
            rejected_by_reason: RejectionCounts,
            /// Distribution of issued difficulties in bits (lock-free).
            issued_difficulty: DifficultyBuckets,
            /// Per-stage pipeline latency (lock-free).
            stage_timers: StageTimers,
            /// State for per-second rate derivation between timed snapshots.
            rate_window: RateWindow,
        }

        /// A point-in-time view of [`FrameworkMetrics`].
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsSnapshot {
            $($(#[$live_doc])* pub $live: u64,)*
            $($(#[$doc])* pub $derived: $ty,)*
            /// Rejections by reason label (labels with nonzero counts).
            pub rejected_by_reason: HashMap<String, u64>,
            /// Per-stage pipeline latency, in chain order, for stages that
            /// have run (wall-clock totals — two runs of the same workload
            /// report different nanosecond counts, so equality comparisons
            /// of whole snapshots should expect that).
            pub stage_timings: Vec<StageTiming>,
        }

        impl FrameworkMetrics {
            /// Takes a snapshot for reporting. Each field is an atomic
            /// read; fields racing with concurrent updates may be offset
            /// from each other by in-flight operations. Per-second rates
            /// are 0.0 here; use [`FrameworkMetrics::snapshot_at`] to
            /// derive them.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($live: scalar_metrics!(@read $cell self.$live),)*
                    $($derived: {
                        let $m = self;
                        $value
                    },)*
                    rejected_by_reason: self.rejected_by_reason.snapshot(),
                    stage_timings: self.stage_timers.snapshot(),
                }
            }
        }

        /// Every scalar metric, in exposition order: its name and how to
        /// read it from a snapshot. Both exporters iterate this.
        pub const SCALAR_METRICS: &[(&str, fn(&MetricsSnapshot) -> Metric)] = &[
            $((stringify!($live), |s| Metric::$cell(s.$live)),)*
            $((stringify!($derived), |s| Metric::$kind(s.$derived)),)*
        ];
    };
}

scalar_metrics! {
    live {
        /// Challenges issued (Figure 1, step 4).
        challenges_issued: Counter,
        /// Solutions verified successfully (step 6).
        solutions_accepted: Counter,
        /// Solutions rejected, any reason.
        solutions_rejected: Counter,
        /// Requests admitted without a puzzle (bypass threshold).
        bypassed: Counter,
        /// Shard count of the replay guard (set once at build;
        /// lock-pressure observability — saturation of a structure
        /// concentrates on `1/shards` of the traffic).
        replay_shards: Gauge,
        /// Shard count of the audit log (set once at build).
        audit_shards: Gauge,
        /// Shard count of the cost ledger (set once at build).
        ledger_shards: Gauge,
        /// Live (unexpired) replay entries evicted by the capacity bound
        /// — nonzero means the guard is undersized and replays became
        /// theoretically possible (alarm signal). Synced from the guard
        /// after every verification and by
        /// [`Framework::metrics_snapshot`](crate::Framework::metrics_snapshot).
        replay_evicted_live: Gauge,
        /// Seeds the replay guard currently remembers. Synced by
        /// [`Framework::metrics_snapshot`](crate::Framework::metrics_snapshot)
        /// only, never on the admission path.
        replay_len: Gauge,
        /// Heap bytes the replay guard holds for them: 32–64 per seed
        /// while its tables double, 32 once full. Synced with
        /// `replay_len`.
        replay_heap_bytes: Gauge,
        /// Clients currently tracked by the online behavior recorder (0
        /// when no online loop is attached; refreshed by the decay
        /// worker's sweep).
        behavior_tracked: Gauge,
        /// Decay sweeps the online worker has completed.
        behavior_sweeps: Counter,
        /// Behavior sketches pruned by decay (clients fully forgotten) or
        /// evicted by the recorder's capacity bound, cumulative.
        behavior_pruned: Counter,
        /// `accept()` errors the TCP acceptor has absorbed (EMFILE and
        /// friends). Before this counter an fd-exhaustion event was
        /// invisible: the acceptor backed off silently.
        accept_errors: Counter,
        /// The acceptor's current accept-error backoff in milliseconds (0
        /// while accepting normally; climbs toward the 500 ms cap while
        /// `accept()` keeps failing).
        accept_backoff_ms: Gauge,
        /// Requests refused by the per-client rate limiter before
        /// reaching the framework (the limiter sits in front of the
        /// pipeline, so these are *not* in `solutions_rejected` or
        /// `rejected_by_reason`).
        rate_limited: Counter,
        /// Connections currently open across all reactor shards.
        open_connections: Gauge,
        /// Connections admitted past the accept gate, cumulative.
        accepted_total: Counter,
        /// Connections closed by the idle-deadline reaper.
        reaped_idle: Counter,
        /// Connections refused at accept because their source IP was at
        /// its concurrent-connection cap.
        per_ip_cap_rejections: Counter,
        /// Connections refused at accept because the global
        /// `max_connections` cap was full.
        max_conn_rejections: Counter,
        /// Connections closed because their bounded outbound queue
        /// overflowed (the peer stopped reading its replies).
        outbound_overflow_closes: Counter,
        /// Reactor poll wakeups (returns from the readiness wait).
        reactor_wakeups: Counter,
        /// Readiness events delivered across all wakeups. The ratio to
        /// [`reactor_wakeups`](Self::reactor_wakeups) says how much work
        /// each wakeup amortizes — near 1 under light load, rising under
        /// load as one `epoll_wait` return carries many ready connections.
        reactor_ready_events: Counter,
    }
    derived {
        /// Median issued difficulty in bits.
        median_issued_difficulty: Gauge(u64) = |m| m.issued_difficulty.median(),
        /// Maximum issued difficulty in bits.
        max_issued_difficulty: Gauge(u64) = |m| m.issued_difficulty.max(),
        /// Lifetime average of ready events delivered per wakeup (0.0
        /// before the first wakeup) — the reactor's batching leverage.
        ready_events_per_wakeup: Rate(f64) = |m| match m.reactor_wakeups.get() {
            0 => 0.0,
            wakeups => m.reactor_ready_events.get() as f64 / wakeups as f64,
        },
        /// Replay rejections per second over the last snapshot window
        /// (0.0 outside [`FrameworkMetrics::snapshot_at`], like every
        /// `_per_s` rate).
        replay_rejects_per_s: Rate(f64) = |_m| 0.0,
        /// Rate-limiter refusals per second over the last snapshot window.
        rate_limited_per_s: Rate(f64) = |_m| 0.0,
        /// All rejections per second (verifier rejections + rate-limiter
        /// refusals) over the last snapshot window.
        rejections_per_s: Rate(f64) = |_m| 0.0,
        /// Connections admitted per second over the last snapshot window.
        accepts_per_s: Rate(f64) = |_m| 0.0,
    }
}

/// Remembers the totals seen by the previous timed snapshot so
/// [`FrameworkMetrics::snapshot_at`] can report rejection *rates*, not
/// just monotonic totals.
#[derive(Debug, Default)]
struct RateWindow {
    last_ms: AtomicU64,
    last_replayed: AtomicU64,
    last_rate_limited: AtomicU64,
    last_rejected: AtomicU64,
    last_accepted: AtomicU64,
}

impl FrameworkMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a rejection under a stable reason label (lock-free;
    /// unknown labels tally under `"other"`).
    pub fn record_rejection(&self, reason: &'static str) {
        self.solutions_rejected.inc();
        self.rejected_by_reason.record(reason);
    }

    /// Records a batch of issued difficulties: one add to the issue
    /// counter for the whole group, one bucket update per challenge.
    pub fn record_issued_difficulties(&self, bits: impl IntoIterator<Item = u8>) {
        let mut n = 0u64;
        for b in bits {
            self.issued_difficulty.record(b);
            n += 1;
        }
        if n > 0 {
            self.challenges_issued.add(n);
        }
    }

    /// Adds one stage run to the per-stage latency counters: `stage`
    /// indexes [`STAGE_NAMES`], `items` is how many contexts the stage
    /// actually processed, `nanos` the stage's wall-clock cost for the
    /// batch.
    pub fn record_stage(&self, stage: usize, items: u64, nanos: u64) {
        self.stage_timers.record(stage, items, nanos);
    }

    /// Takes a timed snapshot: like [`FrameworkMetrics::snapshot`], plus
    /// per-second rejection rates derived against the previous
    /// `snapshot_at` call (the first call, and calls with a non-advancing
    /// clock, report 0.0 rates). Concurrent callers race benignly over
    /// the shared rate window — each computes rates against *some* recent
    /// reading, which is all a monitoring rate needs.
    pub fn snapshot_at(&self, now_ms: u64) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        let replayed = self.rejected_by_reason.count_for("replayed");
        let rate_limited = self.rate_limited.get();
        let rejected = self.solutions_rejected.get();
        let accepted = self.accepted_total.get();
        // relaxed: the window cells are monitoring state; swaps make each
        // delta consumed by exactly one reader, and skew between cells
        // only perturbs one reported rate sample.
        let prev_ms = self.rate_window.last_ms.swap(now_ms, Ordering::Relaxed);
        let prev_replayed = self
            .rate_window
            .last_replayed
            .swap(replayed, Ordering::Relaxed); // relaxed: as above
        let prev_rate_limited = self
            .rate_window
            .last_rate_limited
            .swap(rate_limited, Ordering::Relaxed); // relaxed: as above
        let prev_rejected = self
            .rate_window
            .last_rejected
            .swap(rejected, Ordering::Relaxed); // relaxed: as above
        let prev_accepted = self
            .rate_window
            .last_accepted
            .swap(accepted, Ordering::Relaxed); // relaxed: as above
        if prev_ms > 0 && now_ms > prev_ms {
            let dt_s = (now_ms - prev_ms) as f64 / 1_000.0;
            snap.replay_rejects_per_s = replayed.saturating_sub(prev_replayed) as f64 / dt_s;
            snap.rate_limited_per_s = rate_limited.saturating_sub(prev_rate_limited) as f64 / dt_s;
            snap.rejections_per_s =
                rejected.saturating_sub(prev_rejected) as f64 / dt_s + snap.rate_limited_per_s;
            snap.accepts_per_s = accepted.saturating_sub(prev_accepted) as f64 / dt_s;
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshot() {
        let m = FrameworkMetrics::new();
        m.record_issued_difficulties([5]);
        m.record_issued_difficulties([9]);
        m.solutions_accepted.inc();
        m.record_rejection("replayed");
        m.record_rejection("replayed");
        m.record_rejection("expired");

        let snap = m.snapshot();
        assert_eq!(snap.challenges_issued, 2);
        assert_eq!(snap.solutions_accepted, 1);
        assert_eq!(snap.solutions_rejected, 3);
        assert_eq!(snap.rejected_by_reason["replayed"], 2);
        assert_eq!(snap.rejected_by_reason["expired"], 1);
        assert_eq!(snap.max_issued_difficulty, 9);
        assert!(snap.median_issued_difficulty >= 5);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = FrameworkMetrics::new().snapshot();
        assert_eq!(snap.challenges_issued, 0);
        assert_eq!(snap.median_issued_difficulty, 0);
        assert!(snap.rejected_by_reason.is_empty());
        assert_eq!(snap.behavior_tracked, 0);
        assert_eq!(snap.behavior_sweeps, 0);
        assert_eq!(snap.behavior_pruned, 0);
    }

    #[test]
    fn behavior_gauges_flow_into_snapshot() {
        let m = FrameworkMetrics::new();
        m.behavior_tracked.set(12);
        m.behavior_sweeps.inc();
        m.behavior_pruned.add(3);
        let snap = m.snapshot();
        assert_eq!(snap.behavior_tracked, 12);
        assert_eq!(snap.behavior_sweeps, 1);
        assert_eq!(snap.behavior_pruned, 3);
    }

    #[test]
    fn unknown_rejection_reasons_tally_under_other() {
        let m = FrameworkMetrics::new();
        m.record_rejection("some_future_reason");
        let snap = m.snapshot();
        assert_eq!(snap.rejected_by_reason["other"], 1);
        assert_eq!(snap.solutions_rejected, 1);
    }

    #[test]
    fn difficulty_median_is_exact() {
        let m = FrameworkMetrics::new();
        for bits in [3u8, 3, 3, 7, 9] {
            m.record_issued_difficulties([bits]);
        }
        let snap = m.snapshot();
        assert_eq!(snap.median_issued_difficulty, 3);
        assert_eq!(snap.max_issued_difficulty, 9);
    }

    #[test]
    fn metrics_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrameworkMetrics>();
    }

    #[test]
    fn batched_difficulty_recording_matches_singles() {
        let single = FrameworkMetrics::new();
        let batched = FrameworkMetrics::new();
        for bits in [3u8, 3, 7, 9] {
            single.record_issued_difficulties([bits]);
        }
        batched.record_issued_difficulties([3u8, 3, 7, 9]);
        batched.record_issued_difficulties([]);
        let (a, b) = (single.snapshot(), batched.snapshot());
        assert_eq!(a.challenges_issued, b.challenges_issued);
        assert_eq!(a.median_issued_difficulty, b.median_issued_difficulty);
        assert_eq!(a.max_issued_difficulty, b.max_issued_difficulty);
    }

    #[test]
    fn stage_quantiles_reflect_per_item_cost() {
        let m = FrameworkMetrics::new();
        // 49 cheap batches and one slow one: p50 tracks the common case,
        // p99 the outlier (within the histogram's 1.6 % bucket error).
        for _ in 0..49 {
            m.record_stage(0, 1, 1_000);
        }
        m.record_stage(0, 1, 1_000_000);
        let timing = &m.snapshot().stage_timings[0];
        assert!(
            (980..=1_020).contains(&timing.p50_ns),
            "p50 was {}",
            timing.p50_ns
        );
        assert!(
            timing.p99_ns >= 900_000,
            "p99 {} missed the outlier",
            timing.p99_ns
        );
        // Batched recording amortizes: a 32-item batch at 32_000 ns is 32
        // observations of ~1_000 ns each.
        let m2 = FrameworkMetrics::new();
        m2.record_stage(0, 32, 32_000);
        let timing = &m2.snapshot().stage_timings[0];
        assert!(
            (980..=1_020).contains(&timing.p50_ns),
            "batched p50 was {}",
            timing.p50_ns
        );
    }

    #[test]
    fn acceptor_health_flows_into_snapshot() {
        let m = FrameworkMetrics::new();
        m.accept_errors.add(3);
        m.accept_backoff_ms.set(250);
        let snap = m.snapshot();
        assert_eq!(snap.accept_errors, 3);
        assert_eq!(snap.accept_backoff_ms, 250);
    }

    #[test]
    fn snapshot_at_derives_per_second_rates() {
        let m = FrameworkMetrics::new();
        // First timed snapshot establishes the window: rates are 0.
        let first = m.snapshot_at(10_000);
        assert_eq!(first.replay_rejects_per_s, 0.0);

        for _ in 0..20 {
            m.record_rejection("replayed");
        }
        for _ in 0..10 {
            m.rate_limited.inc();
        }
        m.record_rejection("expired");

        // 2 seconds later: 20 replays → 10/s, 10 rate-limits → 5/s,
        // 21 verifier rejections + 10 refusals → 15.5/s total.
        let snap = m.snapshot_at(12_000);
        assert_eq!(snap.replay_rejects_per_s, 10.0);
        assert_eq!(snap.rate_limited_per_s, 5.0);
        assert_eq!(snap.rejections_per_s, 15.5);
        assert_eq!(snap.rate_limited, 10);

        // A quiet window reports rates back at zero.
        let quiet = m.snapshot_at(13_000);
        assert_eq!(quiet.rejections_per_s, 0.0);

        // Untimed snapshots never fabricate rates.
        assert_eq!(m.snapshot().replay_rejects_per_s, 0.0);
    }

    #[test]
    fn snapshot_at_with_stalled_clock_is_safe() {
        let m = FrameworkMetrics::new();
        m.snapshot_at(5_000);
        m.record_rejection("replayed");
        let snap = m.snapshot_at(5_000); // dt = 0: no division
        assert_eq!(snap.replay_rejects_per_s, 0.0);
    }

    #[test]
    fn stage_timers_accumulate_per_stage() {
        let m = FrameworkMetrics::new();
        assert!(m.snapshot().stage_timings.is_empty());
        m.record_stage(0, 1, 100); // score, sequential
        m.record_stage(0, 32, 900); // score, batched
        m.record_stage(3, 32, 5_000); // issue
        m.record_stage(usize::MAX, 1, 1); // out of range → last slot
        let timings = m.snapshot().stage_timings;
        assert_eq!(timings.len(), 3);
        assert_eq!(timings[0].stage, "score");
        assert_eq!(timings[0].batches, 2);
        assert_eq!(timings[0].items, 33);
        assert_eq!(timings[0].total_ns, 1_000);
        assert_eq!(timings[1].stage, "issue");
        assert_eq!(timings[2].stage, "solution_telemetry");
    }
}
