//! Contended-admission throughput: the scaling proof for sharded state.
//!
//! Unlike the rest of this crate, this scenario is **not** a simulation:
//! it drives N real OS threads of distinct-IP admissions through the
//! real request-side path — per-IP rate limiter, feature table, then
//! [`aipow_core::Framework::handle_request`] (metrics + audit log) —
//! and measures aggregate wall-clock throughput. The point is the
//! concurrency story: before the per-client structures were sharded,
//! every admission serialized on global locks and thread counts beyond
//! one bought nothing; after sharding, distinct clients contend only on
//! hash-colliding shards. The solution-side structures (replay guard,
//! cost ledger) are covered by the `stress_sharded` integration tests,
//! where exactness rather than throughput is the claim. Results are
//! machine- and load-dependent, not bit-reproducible like the
//! event-engine scenarios.
//!
//! ```
//! use aipow_netsim::contended::{run_contended, ContendedConfig};
//!
//! let report = run_contended(&ContendedConfig {
//!     threads: vec![1, 2],
//!     ops_per_thread: 2_000,
//!     ..Default::default()
//! });
//! assert_eq!(report.rows.len(), 2);
//! assert!(report.rows[0].ops_per_sec > 0.0);
//! ```

use aipow_core::{
    FeatureSource, Framework, FrameworkBuilder, FrameworkConfig, OnlineSettings, RateLimiter,
    StaticFeatureSource,
};
use aipow_online::OnlineLoop;
use aipow_policy::LinearPolicy;
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::Instant;

/// Parameters for the contended-admission measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ContendedConfig {
    /// Thread counts to measure, in order (the paper-style scaling report
    /// uses 1, 4, 8).
    pub threads: Vec<usize>,
    /// Admissions each thread performs per measurement.
    pub ops_per_thread: usize,
    /// Distinct client IPs each thread cycles through (distinct across
    /// threads too, so admissions never share a client).
    pub ips_per_thread: usize,
    /// Explicit shard count for the framework's per-client structures;
    /// `None` uses the automatic choice.
    pub shard_count: Option<usize>,
    /// Attach the online behavior recorder (`aipow-online`) and serve
    /// features from the blending behavioral source, so the measurement
    /// covers the full online-loop admission path. The acceptance bar:
    /// throughput with the recorder enabled stays within ~10 % of the
    /// recorder-free path (no new global lock).
    pub online: bool,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        ContendedConfig {
            threads: vec![1, 4, 8],
            ops_per_thread: 50_000,
            ips_per_thread: 1_024,
            shard_count: None,
            online: false,
        }
    }
}

/// One measured thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ContendedRow {
    /// Number of admission threads.
    pub threads: usize,
    /// Total admissions completed across all threads.
    pub total_ops: u64,
    /// Wall-clock time for the batch, milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate throughput in admissions per second.
    pub ops_per_sec: f64,
}

/// The full scaling report.
#[derive(Debug, Clone, PartialEq)]
pub struct ContendedReport {
    /// One row per measured thread count, in config order.
    pub rows: Vec<ContendedRow>,
    /// Shard count of the audit log (the admission path's hottest shared
    /// structure), recorded so reports are interpretable.
    pub audit_shards: u64,
}

/// The request-side admission path under measurement, mirroring what the
/// TCP server runs per `RequestResource`: rate-limit check → feature
/// lookup → `Framework::handle_request` (which records metrics and the
/// audit event). The solution-side structures (replay guard, cost
/// ledger) are not on this path — their concurrent exactness is covered
/// by `tests/stress_sharded.rs` instead, since driving them here would
/// mostly measure SHA-256 solving, not lock contention.
pub struct AdmissionPath {
    /// The composed framework (audit log, metrics, issuer).
    pub framework: Arc<Framework>,
    /// The server-layer per-IP rate limiter (sized to never deny, so the
    /// measurement stays about contention, not rejection short-circuits).
    pub limiter: RateLimiter,
    /// The server-layer per-IP feature source (the static table, or the
    /// behavioral source when the online loop is attached).
    pub features: Arc<dyn FeatureSource>,
    /// The attached online loop, when measuring the recorder-enabled
    /// path.
    pub online: Option<Arc<OnlineLoop>>,
}

impl std::fmt::Debug for AdmissionPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPath")
            .field("framework", &self.framework)
            .field("online", &self.online.is_some())
            .finish_non_exhaustive()
    }
}

/// Builds the admission path under a fixed mid-range score through
/// Policy 2, so the measured cost is the pipeline itself, not model
/// inference. Shared by the scenario and the criterion bench. With
/// `online`, the behavior recorder taps every admission and features are
/// served through the blending behavioral source — the full online-loop
/// hot path.
pub fn contended_path_with(shard_count: Option<usize>, online: bool) -> AdmissionPath {
    let builder = FrameworkBuilder::new()
        .master_key([0x5Au8; 32])
        .model(FixedScoreModel::new(
            ReputationScore::new(5.0).expect("score in range"),
        ))
        .policy(LinearPolicy::policy2())
        .config(FrameworkConfig {
            shard_count,
            ..Default::default()
        });
    let limiter = match shard_count {
        Some(shards) => RateLimiter::with_shards(1e12, 1e6, 1 << 20, shards),
        None => RateLimiter::new(1e12, 1e6, 1 << 20),
    };
    let table = match shard_count {
        Some(shards) => StaticFeatureSource::with_shards(FeatureVector::zeros(), shards),
        None => StaticFeatureSource::new(FeatureVector::zeros()),
    };
    let framework = Arc::new(builder.build().expect("framework builds"));
    let (features, online) = if online {
        let settings = OnlineSettings {
            // Room for every distinct IP the drivers cycle through, so
            // the measurement covers recording, not eviction churn.
            capacity: 1 << 20,
            shard_count,
            ..Default::default()
        };
        let online = OnlineLoop::attach(Arc::clone(&framework), Arc::new(table), settings)
            .expect("fresh framework has no sink");
        (online.source() as Arc<dyn FeatureSource>, Some(online))
    } else {
        (Arc::new(table) as Arc<dyn FeatureSource>, None)
    };
    AdmissionPath {
        framework,
        limiter,
        features,
        online,
    }
}

/// [`contended_path_with`] without the online loop (the PR 2 baseline).
pub fn contended_path(shard_count: Option<usize>) -> AdmissionPath {
    contended_path_with(shard_count, false)
}

/// The per-thread admission loop: `ops` requests from this thread's
/// private slice of the IP space. Public so the `contended_admission`
/// criterion bench drives the exact same workload this scenario reports.
pub fn drive(path: &AdmissionPath, thread_id: usize, ops: usize, ips: usize) {
    for i in 0..ops {
        // 10.T.x.y — thread-private /16 so clients are distinct across
        // threads and cycle within each thread.
        let low = (i % ips.max(1)) as u32;
        let ip = IpAddr::V4(Ipv4Addr::from(
            (10u32 << 24) | ((thread_id as u32) << 16) | low,
        ));
        let _ = path.limiter.allow(ip, i as u64);
        let features = path.features.features_for(ip);
        let _ = path.framework.handle_request(ip, &features);
    }
}

/// Builds a framework and measures aggregate `handle_request` throughput
/// at each configured thread count.
pub fn run_contended(config: &ContendedConfig) -> ContendedReport {
    let path = contended_path_with(config.shard_count, config.online);
    let audit_shards = path.framework.audit().shard_count() as u64;

    let rows = config
        .threads
        .iter()
        .map(|&threads| {
            let threads = threads.max(1);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let path = &path;
                    scope.spawn(move || {
                        drive(path, t, config.ops_per_thread, config.ips_per_thread)
                    });
                }
            });
            let elapsed = start.elapsed();
            let total_ops = (threads * config.ops_per_thread) as u64;
            let secs = elapsed.as_secs_f64().max(f64::EPSILON);
            ContendedRow {
                threads,
                total_ops,
                elapsed_ms: elapsed.as_secs_f64() * 1_000.0,
                ops_per_sec: total_ops as f64 / secs,
            }
        })
        .collect();

    ContendedReport { rows, audit_shards }
}

/// Renders the report as a Markdown table for EXPERIMENTS.md.
pub fn contended_to_markdown(report: &ContendedReport) -> String {
    let mut out = String::new();
    out.push_str("| threads | total ops | elapsed (ms) | ops/sec |\n");
    out.push_str("|---|---|---|---|\n");
    for row in &report.rows {
        out.push_str(&format!(
            "| {} | {} | {:.1} | {:.0} |\n",
            row.threads, row.total_ops, row.elapsed_ms, row.ops_per_sec
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ContendedConfig {
        ContendedConfig {
            threads: vec![1, 4, 8],
            ops_per_thread: 1_000,
            ips_per_thread: 64,
            shard_count: Some(8),
            online: false,
        }
    }

    #[test]
    fn reports_every_thread_count_with_positive_throughput() {
        let report = run_contended(&tiny());
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.audit_shards, 8);
        for (row, threads) in report.rows.iter().zip([1, 4, 8]) {
            assert_eq!(row.threads, threads);
            assert_eq!(row.total_ops, (threads * 1_000) as u64);
            assert!(row.ops_per_sec > 0.0);
            assert!(row.elapsed_ms > 0.0);
        }
    }

    #[test]
    fn markdown_table_has_a_row_per_measurement() {
        let report = run_contended(&ContendedConfig {
            threads: vec![1],
            ops_per_thread: 100,
            ..tiny()
        });
        let md = contended_to_markdown(&report);
        assert_eq!(md.lines().count(), 3); // header + separator + 1 row
        assert!(md.contains("| 1 | 100 |"));
    }

    #[test]
    fn online_path_records_every_admission() {
        let path = contended_path_with(Some(8), true);
        drive(&path, 0, 1_000, 64);
        let online = path.online.as_ref().expect("online loop attached");
        assert_eq!(online.recorder().total_requests(), 1_000);
        assert_eq!(online.recorder().len(), 64);
        // The report runs too, with the recorder on the path.
        let report = run_contended(&ContendedConfig {
            threads: vec![1, 4],
            ops_per_thread: 1_000,
            online: true,
            ..tiny()
        });
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.ops_per_sec > 0.0));
    }

    #[test]
    fn zero_threads_is_clamped_to_one() {
        let report = run_contended(&ContendedConfig {
            threads: vec![0],
            ops_per_thread: 10,
            ..tiny()
        });
        assert_eq!(report.rows[0].threads, 1);
    }
}
