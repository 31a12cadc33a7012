//! Multi-thread stress tests for the sharded per-client structures.
//!
//! Each test runs ≥ 8 threads × ≥ 10k operations against one shared
//! structure and checks an exact invariant at the end — sharding must
//! never trade correctness (double redemption, token inflation, lost
//! counts) for throughput. CI runs these with `RUST_TEST_THREADS` unset
//! so the OS actually interleaves the workers.

use aipow::framework::sharded::ShardedMap;
use aipow::framework::RateLimiter;
use aipow::pow::ReplayGuard;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const OPS: usize = 10_000;

fn ip(n: u32) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(n))
}

/// Interleaved inserts/reads/removes over a shared key space must keep
/// the global length counter exact and lose no entry.
#[test]
fn sharded_map_mixed_ops_keep_len_exact() {
    let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(16));
    let removed = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let map = Arc::clone(&map);
            let removed = Arc::clone(&removed);
            scope.spawn(move || {
                for i in 0..OPS as u64 {
                    let key = t * OPS as u64 + i;
                    map.insert(key, t);
                    // Read someone else's slice to force cross-shard traffic.
                    let _ = map.get_cloned(&(key / 2));
                    if i % 4 == 0 && map.remove(&key).is_some() {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let inserted = (THREADS * OPS) as u64;
    let removed = removed.load(Ordering::Relaxed);
    assert_eq!(map.len() as u64, inserted - removed);
    // The atomic counter must agree with an exhaustive shard walk.
    assert_eq!(map.fold(0u64, |acc, _, _| acc + 1), inserted - removed);
}

/// `with_or_insert_with` must run exactly one init per key and serialize
/// all increments, even when every thread hammers the same hot keys.
#[test]
fn sharded_map_entry_api_counts_exactly_under_contention() {
    let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(16));
    const HOT_KEYS: u64 = 32;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let map = Arc::clone(&map);
            scope.spawn(move || {
                for i in 0..OPS as u64 {
                    map.with_or_insert_with(i % HOT_KEYS, || 0, |v| *v += 1);
                }
            });
        }
    });
    assert_eq!(map.len() as u64, HOT_KEYS);
    let total = map.fold(0u64, |acc, _, v| acc + v);
    assert_eq!(total, (THREADS * OPS) as u64, "increments were lost");
}

/// Racing redemptions of the same seed set across many shards must admit
/// each seed exactly once (no double redemption across shard boundaries).
#[test]
fn replay_guard_admits_each_seed_exactly_once_across_shards() {
    let guard = Arc::new(ReplayGuard::with_shards(1 << 18, 16));
    assert_eq!(guard.shard_count(), 16);
    let accepted = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let guard = Arc::clone(&guard);
            let accepted = Arc::clone(&accepted);
            scope.spawn(move || {
                for i in 0..OPS as u64 {
                    let mut seed = [0u8; 16];
                    seed[..8].copy_from_slice(&i.to_be_bytes());
                    if guard.check_and_insert(&seed, u64::MAX, 0) {
                        accepted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        OPS as u64,
        "a seed was redeemed more than once"
    );
    assert_eq!(guard.len(), OPS);
    assert_eq!(guard.live_evictions(), 0);
}

/// Concurrent inserts far beyond capacity must respect the per-shard
/// eviction bound: the guard never holds more than its capacity.
#[test]
fn replay_guard_eviction_bound_holds_under_contention() {
    const CAPACITY: usize = 8 * 1_024; // 16 shards × 512 slots
    let guard = Arc::new(ReplayGuard::with_shards(CAPACITY, 16));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let guard = Arc::clone(&guard);
            scope.spawn(move || {
                for i in 0..OPS as u64 {
                    let mut seed = [0u8; 16];
                    seed[..8].copy_from_slice(&(t * OPS as u64 + i).to_be_bytes());
                    assert!(guard.check_and_insert(&seed, u64::MAX, 0));
                }
            });
        }
    });
    assert!(
        guard.len() <= CAPACITY,
        "guard holds {} entries, capacity {CAPACITY}",
        guard.len()
    );
    // 80k distinct live seeds through an 8k-slot guard: the overflow is
    // exactly the live-eviction count.
    assert_eq!(guard.live_evictions(), (THREADS * OPS - guard.len()) as u64);
}

/// Every insert into full shards evicts: 160k distinct live seeds through
/// 8 shards of 512 slots must each be accepted, fill every shard exactly,
/// and count every other seed as a live eviction.
#[test]
fn replay_guard_evicts_exactly_at_saturation_under_contention() {
    const CAPACITY: usize = 4_096;
    const SEEDS: usize = 20_000;
    let guard = Arc::new(ReplayGuard::with_shards(CAPACITY, 8));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let guard = Arc::clone(&guard);
            scope.spawn(move || {
                for i in 0..SEEDS as u64 {
                    let mut seed = [0u8; 16];
                    seed[..8].copy_from_slice(&(t * SEEDS as u64 + i).to_be_bytes());
                    assert!(guard.check_and_insert(&seed, u64::MAX, 0));
                }
            });
        }
    });
    assert_eq!(guard.len(), CAPACITY);
    assert_eq!(guard.live_evictions(), (THREADS * SEEDS - CAPACITY) as u64);
}

/// All threads draining one hot bucket must be granted exactly the burst
/// capacity — sharding must not let racing refills mint extra tokens.
#[test]
fn rate_limiter_no_token_inflation_under_contention() {
    const BURST: f64 = 10_000.0;
    let limiter = Arc::new(RateLimiter::with_shards(BURST, 0.001, 1 << 16, 16));
    let granted = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let limiter = Arc::clone(&limiter);
            let granted = Arc::clone(&granted);
            scope.spawn(move || {
                for _ in 0..OPS {
                    // Fixed timestamp: no refill can occur, so grants are
                    // bounded by the burst alone.
                    if limiter.allow(ip(0x0A00_0001), 0) {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        granted.load(Ordering::Relaxed),
        BURST as u64,
        "token inflation: more grants than the burst capacity"
    );
}

/// A full ledger with threads racing to create the *same* new account
/// must never evict that account's in-flight charges: the per-shard
/// eviction runs scan, eviction, insert, and charge under one shard
/// lock, so the key being charged can never be the victim and the hot
/// client's total stays exact. (Regression test for an
/// evict-then-insert race.)
#[test]
fn cost_ledger_racing_charges_to_new_client_at_capacity_sum_exactly() {
    use aipow::framework::CostLedger;
    let ledger = Arc::new(CostLedger::with_shards(4, 8));
    // Fill to capacity with expensive accounts.
    for i in 0..4 {
        ledger.charge(ip(0x0B00_0000 + i), 1_000_000.0);
    }
    let hot = ip(0x0B00_00FF);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let ledger = Arc::clone(&ledger);
            scope.spawn(move || {
                for _ in 0..OPS {
                    ledger.charge(hot, 1.0);
                }
            });
        }
    });
    assert_eq!(
        ledger.total(hot),
        (THREADS * OPS) as f64,
        "a racing eviction erased charges for the client being charged"
    );
}

/// A full limiter with threads racing to create the *same* new bucket —
/// whose timestamp makes it the stalest eviction candidate everywhere —
/// must never evict that bucket and refund its debits: the
/// refill-timestamp (eviction score) update is atomic with the upsert
/// under the single shard lock, so no retry window exists in which a
/// racing admission could evict-then-reinsert the client being charged.
/// (Regression test for an evict-then-insert race.)
#[test]
fn rate_limiter_racing_inserts_never_refund_own_bucket() {
    const BURST: f64 = 100.0;
    let limiter = Arc::new(RateLimiter::with_shards(BURST, 0.001, 4, 8));
    // Fill to capacity with buckets refilled *later* than the hot client
    // will be, so the hot bucket is always the stalest candidate.
    for i in 0..4 {
        assert!(limiter.allow(ip(0x0C00_0000 + i), 1_000));
    }
    let hot = ip(0x0C00_00FF);
    let granted = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let limiter = Arc::clone(&limiter);
            let granted = Arc::clone(&granted);
            scope.spawn(move || {
                for _ in 0..OPS {
                    if limiter.allow(hot, 0) {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        granted.load(Ordering::Relaxed),
        BURST as u64,
        "evicting the bucket being charged refunded its token debits"
    );
}

/// Distinct clients hammering different shards must each get exactly
/// their own burst — no cross-client interference, exact accounting.
/// The burst is *half* the per-client attempts, so both inflation
/// (extra grants) and lost grants shift the total.
#[test]
fn rate_limiter_distinct_clients_account_exactly() {
    const BURST: f64 = 50.0;
    let limiter = Arc::new(RateLimiter::with_shards(BURST, 0.001, 1 << 16, 16));
    let granted = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u32 {
            let limiter = Arc::clone(&limiter);
            let granted = Arc::clone(&granted);
            scope.spawn(move || {
                // 100 clients per thread, OPS/100 attempts each at t=0:
                // exactly BURST grants per client.
                for i in 0..OPS as u32 {
                    let client = ip(0x0A00_0000 + t * 100 + (i % 100));
                    if limiter.allow(client, 0) {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        granted.load(Ordering::Relaxed),
        (THREADS * 100) as u64 * BURST as u64,
        "per-client burst accounting drifted under contention"
    );
    assert_eq!(limiter.len(), THREADS * 100);
}

/// Eight threads address-cycling through a full limiter — the flood
/// worst case the bounded-eviction migration exists for. The per-shard
/// bound is enforced under the shard lock, so the population must never
/// exceed `max_clients` (not even transiently, unlike the retired
/// global-scan protocol), no admission may fold over the whole table,
/// and the per-admission scan must stay within the per-shard capacity.
#[test]
fn rate_limiter_flood_stays_bounded_without_global_scans() {
    const MAX_CLIENTS: usize = 4_096;
    let limiter = Arc::new(RateLimiter::with_shards(5.0, 1.0, MAX_CLIENTS, 16));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u32 {
            let limiter = Arc::clone(&limiter);
            scope.spawn(move || {
                for i in 0..OPS as u32 {
                    // A fresh address per request, distinct across threads.
                    let _ = limiter.allow(ip((t << 24) | i), i as u64);
                    assert!(
                        limiter.len() <= MAX_CLIENTS,
                        "population exceeded max_clients mid-flood"
                    );
                }
            });
        }
    });
    assert!(limiter.len() <= MAX_CLIENTS);
    assert_eq!(
        limiter.global_eviction_folds(),
        0,
        "an admission used the retired global victim scan"
    );
    let admissions = (THREADS * OPS) as u64;
    assert_eq!(limiter.evictions() + limiter.len() as u64, admissions);
    assert!(
        limiter.eviction_scan_steps() <= admissions * limiter.per_shard_clients() as u64,
        "a victim scan exceeded the per-shard bound"
    );
}

/// The same flood through the cost ledger (the solution-path eviction
/// site): population hard-bounded, cheapest-account eviction, no global
/// folds, heavy hitters retained.
#[test]
fn cost_ledger_flood_stays_bounded_and_keeps_heavy_hitters() {
    const CAPACITY: usize = 4_096;
    let ledger = Arc::new(aipow::framework::CostLedger::with_shards(CAPACITY, 16));
    // Heavy hitters first: large accounts that cheap flood entries must
    // never displace (the flood inserts score 1.0; victims are always
    // the shard-local cheapest).
    let heavy: Vec<IpAddr> = (0..64u32).map(|i| ip(0xFF00_0000 + i)).collect();
    for &hh in &heavy {
        ledger.charge(hh, 1_000_000.0);
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS as u32 {
            let ledger = Arc::clone(&ledger);
            scope.spawn(move || {
                for i in 0..OPS as u32 {
                    ledger.charge(ip((t << 24) | i), 1.0);
                }
            });
        }
    });
    assert!(
        ledger.len() <= CAPACITY,
        "ledger population {} over capacity",
        ledger.len()
    );
    assert_eq!(ledger.global_eviction_folds(), 0);
    for &hh in &heavy {
        assert_eq!(
            ledger.total(hh),
            1_000_000.0,
            "a heavy hitter was displaced by cheap flood accounts"
        );
    }
}

/// The issuer's seed counter under contention: 8 threads × 10k draws,
/// mixing single issues and batches of 1–8, never repeat a seed — and
/// together they draw exactly the first 80k values of the stream, so no
/// counter value is lost or taken twice.
#[test]
fn issuer_seed_draws_never_repeat_across_threads() {
    use aipow::pow::{Difficulty, Issuer};
    const KEY: [u8; 32] = [0x5e; 32];
    let issuer = Issuer::new(&KEY);
    let per_thread: Vec<Vec<[u8; 16]>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS as u32)
            .map(|t| {
                let issuer = &issuer;
                scope.spawn(move || {
                    let mut seeds = Vec::with_capacity(OPS);
                    let mut i = 0u32;
                    while seeds.len() < OPS {
                        let batch = (1 + i as usize % 8).min(OPS - seeds.len());
                        if i.is_multiple_of(2) {
                            seeds.push(*issuer.issue_at(ip(t), Difficulty::ZERO, 0).seed());
                        } else {
                            let requests = vec![(ip(t), Difficulty::ZERO); batch];
                            let minted = issuer.issue_batch_at(&requests, 0);
                            seeds.extend(minted.iter().map(|c| *c.seed()));
                        }
                        i += 1;
                    }
                    seeds
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut seen = std::collections::HashSet::with_capacity(THREADS * OPS);
    for seed in per_thread.into_iter().flatten() {
        assert!(seen.insert(seed), "seed drawn twice");
    }
    let sequential = Issuer::new(&KEY);
    let stream: std::collections::HashSet<[u8; 16]> = (0..THREADS * OPS)
        .map(|_| *sequential.issue_at(ip(0), Difficulty::ZERO, 0).seed())
        .collect();
    assert_eq!(
        seen, stream,
        "the threads drew other than the first 80k seeds"
    );
}
