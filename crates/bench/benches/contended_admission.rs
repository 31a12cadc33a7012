//! Contended-admission throughput: N worker threads push distinct-IP
//! admissions through one shared `Framework` (the sharded-state scaling
//! proof; see DESIGN.md §7 and EXPERIMENTS.md §C7).
//!
//! Before the per-client structures were sharded, every admission
//! serialized on a global audit-log/replay/ledger lock, so added threads
//! bought nothing. This bench reports aggregate elements/sec at 1, 4,
//! and 8 threads; on a multi-core host the sharded path scales with the
//! thread count until the physical cores run out. The workload is
//! `aipow_netsim::contended`'s — the same driver the §C7 scenario
//! reports on — so the two measurements cannot drift apart.
//!
//! Two groups run: the PR 2 baseline (`contended_admission`) and the
//! same workload with the `aipow-online` behavior recorder tapping every
//! admission and features served from the blending behavioral source
//! (`contended_admission_online`). The acceptance bar for the online
//! loop is that the second group stays within ~10 % of the first — the
//! recorder adds per-shard work, never a global lock (EXPERIMENTS.md
//! §C8). No `bench_gate` row reads this bench; run it with
//! `cargo bench -p aipow-bench --bench contended_admission`.

use aipow_netsim::contended::{contended_path_with, drive, AdmissionPath};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

/// Admissions per thread per measured iteration.
const OPS_PER_THREAD: usize = 2_000;
/// Distinct client IPs per thread (cycled).
const IPS_PER_THREAD: usize = 1_024;

fn run_group(c: &mut Criterion, name: &str, path: &AdmissionPath) {
    let mut group = c.benchmark_group(name);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);

    for &threads in &[1usize, 4, 8] {
        group.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..threads {
                            scope.spawn(move || drive(path, t, OPS_PER_THREAD, IPS_PER_THREAD));
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

fn contended_admission(c: &mut Criterion) {
    let baseline = contended_path_with(None, false);
    run_group(c, "contended_admission", &baseline);

    let online = contended_path_with(None, true);
    run_group(c, "contended_admission_online", &online);
}

criterion_group!(benches, contended_admission);
criterion_main!(benches);
