//! The address-cycling flood scenario: the bounded-eviction proof.
//!
//! An attacker who rotates source addresses drives the admission path's
//! capacity-bounded tables — the per-IP rate limiter and the cost
//! ledger — through their worst case: every request is a *fresh* key
//! inserted into a table already at capacity, so every request pays the
//! eviction protocol. Under the retired global-scan protocol that meant
//! an O(`max_clients`) fold over every shard (with retries) per request:
//! the defense itself handed the flood a linear amplifier. Under the
//! bounded per-shard protocol each insert costs one shard-local scan of
//! at most `max_scan` entries, so the per-request cost is a constant
//! independent of `max_clients`.
//!
//! Like [`contended`](crate::contended), this scenario is **not** a
//! simulation: it times the real admission path (rate-limit check, cost
//! charge, [`aipow_core::Framework::handle_request`]) with the tables
//! churning at capacity, and reports per-phase latency percentiles.
//! [`run_flood_pair`] runs the same flood at a small and a large
//! `max_clients` and reports the ratio — the flatness claim CI asserts
//! (EXPERIMENTS.md §C9). Results are machine-dependent by design.
//!
//! ```
//! use aipow_netsim::flood::{run_flood, FloodConfig};
//!
//! let outcome = run_flood(&FloodConfig {
//!     max_clients: 1_024,
//!     flood_requests: 3_000,
//!     ..Default::default()
//! });
//! assert!(outcome.population <= 1_024);
//! assert_eq!(outcome.global_eviction_folds, 0);
//! ```

use aipow_core::{CostLedger, Framework, FrameworkBuilder, RateLimiter};
use aipow_policy::LinearPolicy;
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

/// Parameters for one flood run.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodConfig {
    /// Capacity of the rate limiter and the cost ledger (the tables the
    /// flood churns).
    pub max_clients: usize,
    /// Explicit shard count; `None` lets the bounded layout choose (it
    /// raises the count so no eviction scan exceeds the default bound
    /// regardless).
    pub shard_count: Option<usize>,
    /// Address-cycling requests measured *after* the tables reach
    /// capacity. Each is a fresh address, so each pays the eviction
    /// protocol.
    pub flood_requests: usize,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            max_clients: 4_096,
            shard_count: None,
            flood_requests: 20_000,
        }
    }
}

/// Latency percentiles for one phase, in nanoseconds per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseLatency {
    /// Median per-request latency.
    pub p50_ns: f64,
    /// 99th-percentile per-request latency.
    pub p99_ns: f64,
    /// Requests measured in the phase.
    pub requests: usize,
}

/// The measured outcome of one flood run.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodOutcome {
    /// The capacity the tables were configured with.
    pub max_clients: usize,
    /// Eviction-free baseline: latency over the first *half* of the
    /// fill. At 50 % population no shard is anywhere near its per-shard
    /// bound (uniform hashing would need a ≫10-sigma collision), so
    /// these requests provably pay no eviction; the second half of the
    /// fill — where the unlucky tail of shards does start evicting —
    /// runs untimed.
    pub warm: PhaseLatency,
    /// Latency at capacity, every request a fresh address (every
    /// request evicts).
    pub churn: PhaseLatency,
    /// Tracked clients at the end (≤ `max_clients`, structurally).
    pub population: usize,
    /// Buckets + accounts evicted during the run.
    pub evictions: u64,
    /// Whole-table victim folds during the run. Zero: the production
    /// tables only use the bounded per-shard protocol.
    pub global_eviction_folds: u64,
    /// Worst-case entries one eviction scan may visit (the limiter's
    /// per-shard bound — the constant that replaces O(`max_clients`)).
    pub scan_bound: usize,
}

/// Flatness report: the same flood at two capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodPair {
    /// The run at the smaller capacity.
    pub small: FloodOutcome,
    /// The run at the larger capacity.
    pub large: FloodOutcome,
}

impl FloodPair {
    /// `large` churn median over `small` churn median: ~1 when the
    /// per-request eviction cost is independent of capacity, ~the
    /// capacity ratio when it is linear in it (the retired global scan).
    pub fn churn_p50_ratio(&self) -> f64 {
        self.large.churn.p50_ns / self.small.churn.p50_ns.max(1.0)
    }

    /// `large` churn p99 over `small` churn p99.
    pub fn churn_p99_ratio(&self) -> f64 {
        self.large.churn.p99_ns / self.small.churn.p99_ns.max(1.0)
    }
}

fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)] as f64
}

fn phase(mut samples_ns: Vec<u64>) -> PhaseLatency {
    samples_ns.sort_unstable();
    PhaseLatency {
        p50_ns: percentile(&samples_ns, 0.50),
        p99_ns: percentile(&samples_ns, 0.99),
        requests: samples_ns.len(),
    }
}

fn flood_framework() -> Framework {
    FrameworkBuilder::new()
        .master_key([0xF1u8; 32])
        .model(FixedScoreModel::new(
            ReputationScore::new(5.0).expect("score in range"),
        ))
        .policy(LinearPolicy::policy2())
        .build()
        .expect("framework builds")
}

/// One admission under the flood: rate-limit check, ledger charge (the
/// solution-path table the flood also churns), and the framework's
/// request pipeline.
fn admit(limiter: &RateLimiter, ledger: &CostLedger, framework: &Framework, ip: IpAddr, t: u64) {
    let _ = limiter.allow(ip, t);
    ledger.charge(ip, 32.0);
    let _ = framework.handle_request(ip, &FeatureVector::zeros());
}

/// Runs one address-cycling flood and reports per-phase latency plus the
/// structural counters.
pub fn run_flood(config: &FloodConfig) -> FloodOutcome {
    let limiter = RateLimiter::with_layout(
        1e12, // never deny: the measurement is about the table, not rejection
        1e6,
        config.max_clients,
        config.shard_count,
        aipow_core::sharded::DEFAULT_MAX_SCAN,
    );
    let ledger = CostLedger::with_layout(
        config.max_clients,
        config.shard_count,
        aipow_core::sharded::DEFAULT_MAX_SCAN,
    );
    let framework = flood_framework();

    // Phase 1 (warm): fill the tables from empty to capacity with
    // distinct addresses. Only the first half is timed: at ≤ 50 %
    // population every shard is far below its per-shard bound, so the
    // timed requests are a true no-eviction baseline, while the
    // untimed second half absorbs the tail shards that reach their
    // bound early (uniform hashing overfills a few shards before the
    // global population hits capacity).
    let warm_target = (config.max_clients / 2).max(1);
    let mut warm_ns = Vec::with_capacity(warm_target);
    for i in 0..config.max_clients as u32 {
        let ip = IpAddr::V4(Ipv4Addr::from(0x0A00_0000u32 | i));
        if (i as usize) < warm_target {
            let start = Instant::now();
            admit(&limiter, &ledger, &framework, ip, i as u64);
            warm_ns.push(start.elapsed().as_nanos() as u64);
        } else {
            admit(&limiter, &ledger, &framework, ip, i as u64);
        }
    }

    // Phase 2 (churn): fresh addresses forever, tables at capacity —
    // every request pays the eviction protocol.
    let mut churn_ns = Vec::with_capacity(config.flood_requests);
    for i in 0..config.flood_requests as u32 {
        let ip = IpAddr::V4(Ipv4Addr::from(0xC000_0000u32.wrapping_add(i)));
        let t = (config.max_clients as u64) + i as u64;
        let start = Instant::now();
        admit(&limiter, &ledger, &framework, ip, t);
        churn_ns.push(start.elapsed().as_nanos() as u64);
    }

    FloodOutcome {
        max_clients: config.max_clients,
        warm: phase(warm_ns),
        churn: phase(churn_ns),
        population: limiter.len(),
        evictions: limiter.evictions() + ledger.evictions(),
        global_eviction_folds: limiter.global_eviction_folds() + ledger.global_eviction_folds(),
        scan_bound: limiter.per_shard_clients(),
    }
}

/// Runs the flood at `small_clients` and `large_clients` so the caller
/// can assert the per-request cost stayed flat while the table grew.
pub fn run_flood_pair(
    small_clients: usize,
    large_clients: usize,
    flood_requests: usize,
) -> FloodPair {
    let small = run_flood(&FloodConfig {
        max_clients: small_clients,
        shard_count: None,
        flood_requests,
    });
    let large = run_flood(&FloodConfig {
        max_clients: large_clients,
        shard_count: None,
        flood_requests,
    });
    FloodPair { small, large }
}

/// Renders an outcome pair as a Markdown table for EXPERIMENTS.md.
pub fn flood_to_markdown(pair: &FloodPair) -> String {
    let mut out = String::from(
        "| max_clients | warm p50 (µs) | warm p99 (µs) | churn p50 (µs) | churn p99 (µs) | evictions | global folds |\n\
         |---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for o in [&pair.small, &pair.large] {
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {} |\n",
            o.max_clients,
            o.warm.p50_ns / 1e3,
            o.warm.p99_ns / 1e3,
            o.churn.p50_ns / 1e3,
            o.churn.p99_ns / 1e3,
            o.evictions,
            o.global_eviction_folds,
        ));
    }
    out.push_str(&format!(
        "\nchurn p50 ratio (large/small): {:.2}; churn p99 ratio: {:.2}\n",
        pair.churn_p50_ratio(),
        pair.churn_p99_ratio(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_respects_structural_invariants() {
        let outcome = run_flood(&FloodConfig {
            max_clients: 512,
            shard_count: Some(4),
            flood_requests: 2_000,
        });
        assert!(outcome.population <= 512);
        assert_eq!(outcome.global_eviction_folds, 0);
        // Both tables churned: limiter + ledger each evict per request.
        assert!(outcome.evictions >= 2_000);
        assert!(outcome.warm.requests == 256 && outcome.churn.requests == 2_000);
        assert!(outcome.churn.p50_ns > 0.0 && outcome.churn.p99_ns >= outcome.churn.p50_ns);
        assert!(outcome.scan_bound <= aipow_core::sharded::DEFAULT_MAX_SCAN);
    }

    #[test]
    fn flood_pair_reports_ratio() {
        let pair = run_flood_pair(512, 2_048, 1_500);
        assert_eq!(pair.small.max_clients, 512);
        assert_eq!(pair.large.max_clients, 2_048);
        assert!(pair.churn_p50_ratio() > 0.0);
        let md = flood_to_markdown(&pair);
        assert!(md.contains("max_clients"));
        assert!(md.contains("churn p50 ratio"));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        assert_eq!(percentile(&[1, 2, 3, 4, 100], 0.5), 3.0);
        assert_eq!(percentile(&[1, 2, 3, 4, 100], 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
