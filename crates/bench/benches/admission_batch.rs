//! Batched vs sequential admission throughput: the amortization proof
//! for the stage-pipeline batch entry points (DESIGN.md §10,
//! EXPERIMENTS.md §C10).
//!
//! Two workloads over one shared `Framework`:
//!
//! - `admission_batch_seq` — N threads each driving `handle_request`
//!   one request at a time (the sequential pipeline: every request pays
//!   the clock reading, the policy read-lock, one relaxed `fetch_add` on
//!   the seed counter, the audit shard lock, and the per-stage timers
//!   itself);
//! - `admission_batch` — the same request stream pushed through
//!   `handle_request_batch` in groups of 1/8/32/128, which pays each of
//!   those fixed costs once per group;
//! - `admission_batch_traced` — batch=32 again, but with an
//!   `aipow-trace` tracer attached at the default 1-in-64 sampling: the
//!   cost of the per-context sampled-check branch plus the occasional
//!   span ring append. Each traced cell is preceded by a
//!   `batch32_untraced` twin; both frameworks are built fresh for the
//!   group from one config that differs only in the sampling rate, and
//!   the trace gate ratios those adjacent cells so host drift over the
//!   run cancels.
//!
//! The acceptance bars (enforced by `bench_gate` within-run, so they are
//! machine-independent): batch=32 at 4 threads ≥ 1.5× the sequential
//! path at 4 threads, and the traced batch=32 at 4 threads ≥ 0.95× the
//! untraced run (rows of `aipow_bench::RATIO_GATES`). `batch1` rides
//! along as the degenerate case — it measures the batch plumbing's
//! overhead at group size one.

use aipow_core::{Framework, FrameworkBuilder, FrameworkConfig};
use aipow_policy::LinearPolicy;
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

/// Admissions per thread per measured iteration.
const OPS_PER_THREAD: usize = 2_000;
/// Distinct client IPs per thread (cycled).
const IPS_PER_THREAD: usize = 1_024;
const THREADS: [usize; 3] = [1, 4, 8];
const BATCHES: [usize; 4] = [1, 8, 32, 128];

/// The benched framework; `trace_sample_rate` 0 attaches no tracer, 64
/// is the production default (1-in-64 sampling, default ring capacity).
fn build_framework(trace_sample_rate: u64) -> Framework {
    FrameworkBuilder::new()
        .master_key([0x5Au8; 32])
        .model(FixedScoreModel::new(
            ReputationScore::new(5.0).expect("score in range"),
        ))
        .policy(LinearPolicy::policy2())
        .config(FrameworkConfig {
            max_batch: *BATCHES.iter().max().expect("nonempty"),
            trace_sample_rate,
            ..Default::default()
        })
        .build()
        .expect("framework builds")
}

fn thread_ip(thread_id: usize, i: usize) -> IpAddr {
    // 10.T.x.y — thread-private /16, cycled, as in contended_admission.
    let low = (i % IPS_PER_THREAD) as u32;
    IpAddr::V4(Ipv4Addr::from(
        (10u32 << 24) | ((thread_id as u32) << 16) | low,
    ))
}

/// One thread's sequential run.
fn drive_sequential(fw: &Framework, thread_id: usize, features: &FeatureVector) {
    for i in 0..OPS_PER_THREAD {
        let _ = fw.handle_request(thread_ip(thread_id, i), features);
    }
}

/// One thread's batched run: the same stream, `batch`-sized groups.
fn drive_batched(fw: &Framework, thread_id: usize, features: &FeatureVector, batch: usize) {
    let mut i = 0;
    while i < OPS_PER_THREAD {
        let group = batch.min(OPS_PER_THREAD - i);
        let requests: Vec<(IpAddr, &FeatureVector)> = (0..group)
            .map(|j| (thread_ip(thread_id, i + j), features))
            .collect();
        let _ = fw.handle_request_batch(&requests);
        i += group;
    }
}

fn admission_batch(c: &mut Criterion) {
    let fw = build_framework(0);
    let features = FeatureVector::zeros();

    let mut group = c.benchmark_group("admission_batch_seq");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &threads in &THREADS {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &n| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..n {
                        let (fw, features) = (&fw, &features);
                        scope.spawn(move || drive_sequential(fw, t, features));
                    }
                });
            });
        });
    }
    group.finish();

    // These two groups feed bench_gate's tightest within-run ratio (the
    // 5 % trace-overhead floor), so they get double the measurement
    // budget of the other groups: a single noisy 1 s window on a busy
    // host is enough to push the ratio through the floor.
    let mut group = c.benchmark_group("admission_batch");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &batch in &BATCHES {
        for &threads in &THREADS {
            group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("batch{batch}/threads"), threads),
                &threads,
                |b, &n| {
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            for t in 0..n {
                                let (fw, features) = (&fw, &features);
                                scope.spawn(move || drive_batched(fw, t, features, batch));
                            }
                        });
                    });
                },
            );
        }
    }
    group.finish();

    // The traced twin of admission_batch/batch32: same stream, tracer
    // attached at default sampling. Gated against the untraced run by
    // bench_gate's traced/untraced row (floor 0.95). Each
    // traced cell is paired with a freshly measured *untraced* twin
    // immediately before it — the gate ratios adjacent cells, so slow
    // clock/thermal drift across a long bench run (the gate runs four
    // bench binaries back to back) cancels out instead of masquerading
    // as tracing overhead. Both twins start fresh here: neither carries
    // the audit, ledger and replay state of the groups above.
    let (untraced, traced) = (build_framework(0), build_framework(64));
    let mut group = c.benchmark_group("admission_batch_traced");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);
    for &threads in &THREADS {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        group.bench_with_input(
            BenchmarkId::new("batch32_untraced/threads", threads),
            &threads,
            |b, &n| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..n {
                            let (fw, features) = (&untraced, &features);
                            scope.spawn(move || drive_batched(fw, t, features, 32));
                        }
                    });
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batch32/threads", threads),
            &threads,
            |b, &n| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..n {
                            let (fw, features) = (&traced, &features);
                            scope.spawn(move || drive_batched(fw, t, features, 32));
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, admission_batch);
criterion_main!(benches);
