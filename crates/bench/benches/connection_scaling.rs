//! Connection-scaling throughput for the event-driven net layer
//! (DESIGN.md §15, EXPERIMENTS.md §C14).
//!
//! Two workloads over the reactor's fd-free core (the same components
//! the event loop serves sockets with — see
//! `aipow_netsim::connflood` for why the scale proof elides `read(2)`:
//! the host caps fds far below the population under test):
//!
//! - `connection_scaling_accept` — full connection lifecycle rate
//!   (accept-gate admission, table insert, deadline-wheel entry, then
//!   close: remove, gate release, wheel drain) with 1k/10k/50k
//!   connections already resident. The accept path must not slow down as
//!   the table fills.
//! - `connection_scaling_request` — request/reply exchange throughput
//!   (wire decode through the frame assembler, batch dispatch through
//!   the real admission pipeline, reply queued on the bounded outbound
//!   queue) on active connections while 1k/10k/50k total connections are
//!   resident. Idle connections must be free: a table slot, not a tax on
//!   every exchange.
//!
//! The acceptance bar (enforced by `bench_gate` within-run, so it is
//! machine-independent): request throughput at 50k resident connections
//! must hold at least half the 1k-connection throughput (the
//! `request slowdown, 1k -> 50k resident conns` row, ceiling 2x).
//! Per-connection state is slab-indexed and per-exchange work never
//! scans the population, so the honest ratio is ~1; a reintroduced
//! O(connections) walk on the hot path collapses it on any host.

use aipow_core::{Framework, FrameworkBuilder, StaticFeatureSource};
use aipow_net::reactor::{
    dispatch_frames, AcceptGate, AdmitDecision, ConnCore, ConnTable, DeadlineWheel,
};
use aipow_policy::LinearPolicy;
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

/// Resident connection populations under test.
const POPULATIONS: [usize; 3] = [1_000, 10_000, 50_000];
/// Connections churned (opened + closed) per accept-bench iteration.
const CHURN: usize = 1_000;
/// Exchanges per request-bench iteration.
const EXCHANGES: usize = 2_000;
/// Active connections the exchanges rotate over.
const ACTIVE: usize = 256;
/// Outbound queue bound, as the server default.
const OUTBOUND_LIMIT: usize = 2 * 1024 * 1024;
const IDLE_MS: u64 = 30_000;

fn build_framework() -> Framework {
    FrameworkBuilder::new()
        .master_key([0x6Bu8; 32])
        .model(FixedScoreModel::new(
            ReputationScore::new(5.0).expect("score in range"),
        ))
        .policy(LinearPolicy::policy2())
        .build()
        .expect("framework builds")
}

fn conn_ip(i: u32) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(0x0A00_0000u32 | i))
}

/// A resident population: gate charged, table filled, wheel armed —
/// exactly the state the reactor holds per open connection.
struct Population {
    gate: AcceptGate,
    table: ConnTable<ConnCore>,
    wheel: DeadlineWheel,
    active_keys: Vec<u64>,
}

fn populate(conns: usize) -> Population {
    let gate = AcceptGate::new(conns + CHURN + 1, 0);
    let mut table = ConnTable::new();
    let mut wheel = DeadlineWheel::new(IDLE_MS, 256);
    let mut active_keys = Vec::with_capacity(ACTIVE);
    for i in 0..conns as u32 {
        let ip = conn_ip(i);
        assert_eq!(gate.try_admit(ip), AdmitDecision::Admit);
        let key = table.insert(ConnCore::new(ip, 0, OUTBOUND_LIMIT));
        wheel.schedule(key, IDLE_MS);
        if (i as usize) < ACTIVE {
            active_keys.push(key);
        }
    }
    Population {
        gate,
        table,
        wheel,
        active_keys,
    }
}

fn connection_scaling(c: &mut Criterion) {
    let framework = build_framework();
    let features = StaticFeatureSource::new(FeatureVector::zeros());
    let mut resources = HashMap::new();
    resources.insert("/r".to_string(), b"payload".to_vec());

    let mut group = c.benchmark_group("connection_scaling_accept");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &conns in &POPULATIONS {
        let mut pop = populate(conns);
        // Churned connections use an address range disjoint from the
        // resident population.
        let churn_base = 0x0B00_0000u32;
        group.throughput(Throughput::Elements(CHURN as u64));
        group.bench_with_input(BenchmarkId::new("conns", conns), &conns, |b, _| {
            let mut now = 0u64;
            b.iter(|| {
                // Open CHURN connections against the resident table...
                now += 1;
                let mut keys = Vec::with_capacity(CHURN);
                for i in 0..CHURN as u32 {
                    let ip = conn_ip(churn_base | i);
                    assert_eq!(pop.gate.try_admit(ip), AdmitDecision::Admit);
                    let key = pop.table.insert(ConnCore::new(ip, now, OUTBOUND_LIMIT));
                    pop.wheel.schedule(key, now + 1);
                    keys.push(key);
                }
                // ...then close them (the other half of the lifecycle),
                // and drain their wheel entries so state is iteration-
                // stable. Resident entries revalidate to a later
                // deadline instead of dropping.
                for key in keys {
                    let ip = pop.table.get_mut(key).expect("churned conn live").peer_ip;
                    pop.table.remove(key);
                    pop.gate.release(ip);
                }
                now += pop.wheel.granularity_ms() + 2;
                let table = &mut pop.table;
                pop.wheel
                    .expire(now, |key| table.get_mut(key).map(|_| now + IDLE_MS));
                assert_eq!(pop.table.len(), conns, "population drifted");
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("connection_scaling_request");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    for &conns in &POPULATIONS {
        let mut pop = populate(conns);
        group.throughput(Throughput::Elements(EXCHANGES as u64));
        group.bench_with_input(BenchmarkId::new("conns", conns), &conns, |b, _| {
            b.iter(|| {
                for n in 0..EXCHANGES {
                    let key = pop.active_keys[n % pop.active_keys.len()];
                    let core = pop.table.get_mut(key).expect("active conn live");
                    let bytes = aipow_wire::encode(&aipow_wire::Message::Ping { token: n as u64 });
                    core.assembler.ingest(&bytes);
                    let mut frames = Vec::new();
                    while let Some(frame) = core.assembler.next_frame().expect("valid stream") {
                        frames.push(frame);
                    }
                    let replies = dispatch_frames(
                        frames,
                        core.peer_ip,
                        &framework,
                        &features,
                        &resources,
                        &None,
                    );
                    for reply in &replies {
                        let encoded = aipow_wire::encode(reply);
                        assert!(matches!(
                            core.outbound.push(&encoded),
                            aipow_net::reactor::QueuePush::Queued
                        ));
                    }
                    let pending = core.outbound.pending_len();
                    core.outbound.consume(pending);
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, connection_scaling);
criterion_main!(benches);
