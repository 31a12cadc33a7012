//! Experiment C11: the multi-lane SHA-256/HMAC kernel.
//!
//! Three layers of the same question — how much does lane interleaving
//! buy? — measured bottom-up:
//!
//! - `verify_kernel`: raw digest throughput over a batch of equal-length
//!   preimage-sized messages, scalar vs 4-wide vs 8-wide.
//! - `verify_kernel_mac`: batched HMAC under one hoisted key schedule vs
//!   a scalar loop over the same hoisted key.
//! - `verify_kernel_batch`: the full `Verifier::verify_batch` path at
//!   batch sizes 1/8/32/128 with `verify_lanes` pinned to 1 (scalar)
//!   vs 8 (wide). `bench_gate` asserts the wide/scalar ratio at batch
//!   32 (floor 2x).
//!
//! The portable kernel only reaches full width when the compiler can
//! vectorize it — `bench_gate` therefore runs this bench with
//! `-C target-cpu=native`.

use aipow_bench::{bench_client_ip, BENCH_MASTER_KEY};
use aipow_crypto::hmac::HmacKey;
use aipow_crypto::sha256::Sha256;
use aipow_crypto::sha256_wide::digest_batch;
use aipow_pow::solver::{self, SolverOptions};
use aipow_pow::time::TimeSource;
use aipow_pow::{BackendId, BackendRegistry, Difficulty, Issuer, ManualClock, Solution, Verifier};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

/// Messages sized like a work-check preimage (challenge prefix + nonce).
const MSG_LEN: usize = 107;
/// Enough items that full 8-lane rounds dominate over tail handling.
const KERNEL_ITEMS: usize = 64;
const BATCHES: [usize; 4] = [1, 8, 32, 128];

fn kernel_messages() -> Vec<Vec<u8>> {
    (0..KERNEL_ITEMS)
        .map(|i| {
            (0..MSG_LEN)
                .map(|j| ((i * 251 + j * 31) % 256) as u8)
                .collect()
        })
        .collect()
}

fn digest_kernel(c: &mut Criterion) {
    let messages = kernel_messages();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();

    let mut group = c.benchmark_group("verify_kernel");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Elements(KERNEL_ITEMS as u64));
    group.bench_function("digest/scalar", |b| {
        b.iter(|| {
            refs.iter()
                .map(|m| Sha256::digest(m).as_bytes()[0])
                .fold(0u8, u8::wrapping_add)
        })
    });
    for lanes in [4usize, 8] {
        group.bench_function(BenchmarkId::new("digest/wide", lanes), |b| {
            b.iter(|| {
                digest_batch(&refs, lanes)
                    .iter()
                    .map(|d| d.as_bytes()[0])
                    .fold(0u8, u8::wrapping_add)
            })
        });
    }
    group.finish();

    let key = HmacKey::new(&BENCH_MASTER_KEY);
    let mut group = c.benchmark_group("verify_kernel_mac");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    group.throughput(Throughput::Elements(KERNEL_ITEMS as u64));
    group.bench_function("mac/scalar", |b| {
        b.iter(|| {
            refs.iter()
                .map(|m| key.mac(m).as_bytes()[0])
                .fold(0u8, u8::wrapping_add)
        })
    });
    for lanes in [4usize, 8] {
        group.bench_function(BenchmarkId::new("mac/wide", lanes), |b| {
            b.iter(|| {
                key.mac_batch(&refs, lanes)
                    .iter()
                    .map(|d| d.as_bytes()[0])
                    .fold(0u8, u8::wrapping_add)
            })
        });
    }
    group.finish();
}

/// Pre-solved valid submissions over a pinned clock (so nothing expires
/// however long the harness runs).
fn solved_batch(clock: &Arc<dyn TimeSource>, n: usize) -> Vec<(Solution, IpAddr)> {
    let issuer = Issuer::with_clock(&BENCH_MASTER_KEY, Arc::clone(clock));
    let ip = bench_client_ip();
    let difficulty = Difficulty::new(0).expect("zero difficulty");
    (0..n)
        .map(|_| {
            let challenge = issuer.issue(ip, difficulty);
            let report =
                solver::solve(&challenge, ip, &SolverOptions::default()).expect("d=0 solvable");
            (report.solution, ip)
        })
        .collect()
}

fn verify_batch_kernel(c: &mut Criterion) {
    let clock: Arc<dyn TimeSource> = Arc::new(ManualClock::at(1_000_000));
    let submissions = solved_batch(&clock, *BATCHES.iter().max().unwrap());

    let mut group = c.benchmark_group("verify_kernel_batch");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for (label, lanes) in [("scalar", 1usize), ("wide", 8)] {
        let verifier =
            Verifier::with_clock(&BENCH_MASTER_KEY, Arc::clone(&clock)).with_verify_lanes(lanes);
        for batch in BATCHES {
            group.throughput(Throughput::Elements(batch as u64));
            group.bench_with_input(
                BenchmarkId::new(label, batch),
                &submissions[..batch],
                |b, subs| {
                    // After the first redemption every iteration lands on
                    // `Replayed` — but replay is the *last* staged check,
                    // so the MAC and work hashing under measurement is
                    // identical to the accept path.
                    b.iter(|| {
                        verifier
                            .verify_batch(subs)
                            .iter()
                            .filter(|outcome| outcome.is_err())
                            .count()
                    })
                },
            );
        }
    }
    group.finish();
}

/// The memory-hard arena for the backend-asymmetry measurement: the
/// smallest valid size keeps the bench quick while the solve/verify
/// asymmetry it gates is already orders of magnitude.
const BACKEND_ARENA_MIB: u8 = 1;

/// Pre-solved valid submissions on an explicit backend.
fn solved_backend_batch(
    clock: &Arc<dyn TimeSource>,
    n: usize,
    backend: BackendId,
) -> Vec<(Solution, IpAddr)> {
    let issuer = Issuer::with_clock(&BENCH_MASTER_KEY, Arc::clone(clock))
        .with_backend_param(BackendId::MEMORY_HARD, BACKEND_ARENA_MIB);
    let ip = bench_client_ip();
    let difficulty = Difficulty::new(0).expect("zero difficulty");
    (0..n)
        .map(|_| {
            let challenge = issuer.issue_backend(ip, difficulty, backend);
            let report =
                solver::solve(&challenge, ip, &SolverOptions::default()).expect("d=0 solvable");
            (report.solution, ip)
        })
        .collect()
}

/// Nonce probes per solve-cost iteration: enough that the per-attempt
/// marginal cost dominates the loop scaffolding.
const SOLVE_ATTEMPTS: u64 = 64;

/// Experiment C13: the backend cost asymmetry the router trades on.
///
/// - `verify/<backend>/32`: `Verifier::verify_batch` over 32 same-backend
///   submissions. SHA-256 runs with scalar lanes — the baseline the gate
///   names — while memory-hard runs its production path (8 lanes, so its
///   independent walks interleave through the wide kernel). `bench_gate`
///   asserts memory-hard verify stays within 2x of the SHA-256 scalar
///   cost, so routing floods to memory-hard never meaningfully taxes the
///   server.
/// - `solve/<backend>/64`: 64 nonce probes through the backend's
///   [`aipow_pow::SolveCursor`] with the cursor hoisted (as in a real
///   solve run, where its setup amortizes over ~2^d attempts), measuring
///   the marginal per-attempt cost — `bench_gate` asserts a memory-hard
///   attempt costs at least 10x a SHA-256 attempt, the asymmetry that
///   makes routing punitive.
fn backend_kernel(c: &mut Criterion) {
    let clock: Arc<dyn TimeSource> = Arc::new(ManualClock::at(1_000_000));
    let registry = BackendRegistry::standard();
    let issuer = Issuer::with_clock(&BENCH_MASTER_KEY, Arc::clone(&clock))
        .with_backend_param(BackendId::MEMORY_HARD, BACKEND_ARENA_MIB);
    let ip = bench_client_ip();

    let mut group = c.benchmark_group("verify_kernel_backend");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    for (label, backend, lanes) in [
        ("sha256", BackendId::SHA256, 1usize),
        ("memhard", BackendId::MEMORY_HARD, 8),
    ] {
        let submissions = solved_backend_batch(&clock, 32, backend);
        let verifier =
            Verifier::with_clock(&BENCH_MASTER_KEY, Arc::clone(&clock)).with_verify_lanes(lanes);
        group.throughput(Throughput::Elements(32));
        group.bench_with_input(
            BenchmarkId::new(format!("verify/{label}"), 32),
            &submissions[..],
            |b, subs| {
                // As in `verify_kernel_batch`: after the first redemption
                // every iteration rejects as `Replayed`, but replay is the
                // last staged check, so the measured work matches the
                // accept path.
                b.iter(|| {
                    verifier
                        .verify_batch(subs)
                        .iter()
                        .filter(|outcome| outcome.is_err())
                        .count()
                })
            },
        );

        let challenge = issuer.issue_backend(ip, Difficulty::new(0).expect("d=0"), backend);
        let prefix = challenge.preimage_prefix(ip);
        let puzzle = registry.get(backend).expect("standard backend");
        group.throughput(Throughput::Elements(SOLVE_ATTEMPTS));
        group.bench_function(
            BenchmarkId::new(format!("solve/{label}"), SOLVE_ATTEMPTS),
            |b| {
                let mut cursor = puzzle.solve_cursor(challenge.backend_param(), &prefix);
                b.iter(|| {
                    (0..SOLVE_ATTEMPTS).fold(0u8, |acc, nonce| {
                        acc ^ cursor.attempt(&nonce.to_be_bytes()).as_bytes()[0]
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, digest_kernel, verify_batch_kernel, backend_kernel);
criterion_main!(benches);
