//! The address-cycling insert storm at capacity: the migration toggle.
//!
//! Every benchmark here drives the rate limiter's worst case — a table
//! already at `max_clients` and a fresh source address per request, so
//! every admission pays the eviction protocol. Four groups:
//!
//! - `eviction_flood` — the migrated limiter (bounded per-shard
//!   eviction, one shard lock, victim scan ≤ `DEFAULT_MAX_SCAN`) at 1,
//!   4, and 8 threads;
//! - `eviction_flood_global` — the same bucket semantics through the
//!   retired `ShardedMap::update_or_insert_evicting` global victim scan
//!   (the pre-migration protocol, kept only as this baseline), at 1, 4,
//!   and 8 threads with far fewer ops per iteration (each insert folds
//!   the whole table);
//! - `eviction_flood_capacity` — single-thread per-insert cost of the
//!   migrated limiter as `max_clients` grows 4 Ki → 1 Mi: the flat line
//!   (EXPERIMENTS.md §C9's headline claim);
//! - `eviction_flood_capacity_global` — the same sweep for the global
//!   scan, 4 Ki → 64 Ki: the linear amplifier the migration removed.
//!
//! Throughput is reported per element, so the sharded and global groups
//! are directly comparable despite the different batch sizes.
//! `bench_gate` holds `eviction_flood` to ≥ 10× `eviction_flood_global`
//! within the run at each thread count; the capacity sweeps are reported
//! only.

use aipow_core::sharded::{ShardedMap, DEFAULT_MAX_SCAN};
use aipow_core::{RateLimiter, TokenBucket};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// Burst/refill sized to never deny: the measurement is the eviction
/// protocol, not rejection short-circuits.
const BURST: f64 = 1e12;
const REFILL: f64 = 1e6;

/// Admissions per thread per iteration on the bounded path.
const SHARDED_OPS: usize = 4_096;
/// Admissions per thread per iteration on the global-scan baseline
/// (each one folds the whole table, so iterations must stay small).
const GLOBAL_OPS: usize = 64;
/// Table capacity for the threaded groups.
const CAPACITY: usize = 65_536;

/// Fresh-address source shared by all groups: every admission must be a
/// brand-new key (the insert-at-capacity case), including across
/// criterion's repeated iterations.
static NEXT_ADDR: AtomicU32 = AtomicU32::new(1);

fn fresh_block(n: usize) -> u32 {
    NEXT_ADDR.fetch_add(n as u32, Ordering::Relaxed)
}

fn addr(i: u32) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(i))
}

/// The pre-migration limiter: identical bucket semantics, but the
/// capacity bound enforced by the retired global victim scan
/// (`update_or_insert_evicting`). Exists only so this bench can measure
/// what the migration removed.
struct GlobalScanLimiter {
    buckets: ShardedMap<IpAddr, TokenBucket>,
    max_clients: usize,
}

impl GlobalScanLimiter {
    fn new(max_clients: usize, shard_count: usize) -> Self {
        GlobalScanLimiter {
            buckets: ShardedMap::new(shard_count),
            max_clients,
        }
    }

    fn allow(&self, ip: IpAddr, now_ms: u64) -> bool {
        self.buckets.update_or_insert_evicting(
            ip,
            self.max_clients,
            |b| b.last_refill_ms(),
            || TokenBucket::new(BURST, REFILL),
            |b| b.try_acquire(now_ms),
        )
    }
}

/// Runs a threaded flood group over any `admit` function.
fn flood_group(
    c: &mut Criterion,
    name: &str,
    ops_per_thread: usize,
    admit: &(dyn Fn(IpAddr, u64) + Sync),
) {
    let mut group = c.benchmark_group(name);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &threads in &[1usize, 4, 8] {
        group.throughput(Throughput::Elements((threads * ops_per_thread) as u64));
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            scope.spawn(|| {
                                let base = fresh_block(ops_per_thread);
                                for i in 0..ops_per_thread as u32 {
                                    admit(addr(base.wrapping_add(i)), i as u64);
                                }
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

fn eviction_flood(c: &mut Criterion) {
    // The migrated limiter, prefilled to capacity so every measured
    // admission is an insert-with-eviction.
    let limiter = RateLimiter::with_layout(BURST, REFILL, CAPACITY, None, DEFAULT_MAX_SCAN);
    let base = fresh_block(CAPACITY);
    for i in 0..CAPACITY as u32 {
        limiter.allow(addr(base.wrapping_add(i)), 0);
    }
    flood_group(c, "eviction_flood", SHARDED_OPS, &|ip, t| {
        limiter.allow(ip, t);
    });
    assert_eq!(
        limiter.global_eviction_folds(),
        0,
        "the migrated limiter used the retired global scan"
    );

    // The pre-migration baseline, same shard count, same prefill.
    let global = GlobalScanLimiter::new(CAPACITY, limiter.shard_count());
    let base = fresh_block(CAPACITY);
    for i in 0..CAPACITY as u32 {
        global.allow(addr(base.wrapping_add(i)), 0);
    }
    flood_group(c, "eviction_flood_global", GLOBAL_OPS, &|ip, t| {
        global.allow(ip, t);
    });
}

/// Per-insert cost as the table grows: flat for the bounded path,
/// linear for the retired global scan.
fn eviction_flood_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("eviction_flood_capacity");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &capacity in &[4_096usize, 65_536, 1 << 20] {
        let limiter = RateLimiter::with_layout(BURST, REFILL, capacity, None, DEFAULT_MAX_SCAN);
        let base = fresh_block(capacity);
        for i in 0..capacity as u32 {
            limiter.allow(addr(base.wrapping_add(i)), 0);
        }
        group.throughput(Throughput::Elements(SHARDED_OPS as u64));
        group.bench_with_input(
            BenchmarkId::new("max_clients", capacity),
            &capacity,
            |b, _| {
                b.iter(|| {
                    let base = fresh_block(SHARDED_OPS);
                    for i in 0..SHARDED_OPS as u32 {
                        limiter.allow(addr(base.wrapping_add(i)), i as u64);
                    }
                });
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("eviction_flood_capacity_global");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &capacity in &[4_096usize, 16_384, 65_536] {
        let global = GlobalScanLimiter::new(capacity, 128);
        let base = fresh_block(capacity);
        for i in 0..capacity as u32 {
            global.allow(addr(base.wrapping_add(i)), 0);
        }
        group.throughput(Throughput::Elements(GLOBAL_OPS as u64));
        group.bench_with_input(
            BenchmarkId::new("max_clients", capacity),
            &capacity,
            |b, _| {
                b.iter(|| {
                    let base = fresh_block(GLOBAL_OPS);
                    for i in 0..GLOBAL_OPS as u32 {
                        global.allow(addr(base.wrapping_add(i)), i as u64);
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, eviction_flood, eviction_flood_capacity);
criterion_main!(benches);
