//! The landing contract, pinned: every item `benchmark/` imports from
//! this workspace, with the signature, field, string or name it relies
//! on. `benchmark/` is frozen to all but `[benchmark]` PRs and is built
//! against each change after it is submitted, so drift there fails the
//! pipeline; this file turns the same drift into a `cargo test` failure
//! first. Each pin mirrors a use found by `grep -rn "aipow_" benchmark/src`
//! (the file and line are named beside it); when a `[benchmark]` PR
//! changes what the benchmark imports, change this file with it.

// Spelling signatures out in full is this file's whole job.
#![allow(clippy::type_complexity)]

use aipow_core::{
    FeatureSource, Framework, FrameworkBuilder, MetricsSnapshot, RateLimiter, StaticFeatureSource,
};
use aipow_net::reactor::{dispatch_frames, FrameAssembler, QueuePush, WriteQueue};
use aipow_net::{PowServer, ServerConfig};
use aipow_policy::LinearPolicy;
use aipow_pow::replay::ReplayGuard;
use aipow_pow::solver::{measure_hash_rate_lanes, solve, SolveError, SolveReport, SolverOptions};
use aipow_pow::{
    BackendId, Challenge, Difficulty, Issuer, NonceWidth, Solution, VerifiedToken, Verifier,
    VerifyError,
};
use aipow_reputation::model::FixedScoreModel;
use aipow_reputation::{FeatureVector, ReputationScore};
use aipow_trace::Tracer;
use aipow_wire::{DecodeError, Message, ReadMessageError, RejectCode};
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;

type Verdict = Result<VerifiedToken, VerifyError>;

/// `probe.rs`, `closed.rs`, `loadgen.rs`: the puzzle primitives.
#[test]
fn pow_signatures() {
    let _: fn(&[u8; 32]) -> Issuer = Issuer::new;
    let _: fn(&Issuer, IpAddr, Difficulty, u64) -> Challenge = Issuer::issue_at;
    let _: fn(&Issuer, &[(IpAddr, Difficulty)], u64) -> Vec<Challenge> = Issuer::issue_batch_at;

    let _: fn(&[u8; 32]) -> Verifier = Verifier::new;
    let _: fn(&Verifier, &Solution, IpAddr) -> Verdict = Verifier::verify;
    let _: fn(&Verifier, &[(Solution, IpAddr)]) -> Vec<Verdict> = Verifier::verify_batch;
    let _: fn(&Verifier) -> &ReplayGuard = Verifier::replay_guard;

    let _: fn(usize) -> ReplayGuard = ReplayGuard::new;
    let _: fn(&ReplayGuard, &[u8; 16], u64, u64) -> bool = ReplayGuard::check_and_insert;
    let _: fn(&ReplayGuard) -> usize = ReplayGuard::len;

    // loadgen.rs:170 rebuilds a challenge field by field to forge its tag.
    let _: fn(u8, BackendId, u8, [u8; 16], u64, u64, Difficulty, IpAddr, [u8; 32]) -> Challenge =
        Challenge::from_parts_backend;
    let _: fn(&Challenge) -> u8 = Challenge::version;
    let _: fn(&Challenge) -> BackendId = Challenge::backend;
    let _: fn(&Challenge) -> u8 = Challenge::backend_param;
    let _: fn(&Challenge) -> &[u8; 16] = Challenge::seed;
    let _: fn(&Challenge) -> u64 = Challenge::issued_at_ms;
    let _: fn(&Challenge) -> u64 = Challenge::ttl_ms;
    let _: fn(&Challenge) -> Difficulty = Challenge::difficulty;
    let _: fn(&Challenge) -> IpAddr = Challenge::client_ip;
    let _: fn(&Challenge) -> &[u8; 32] = Challenge::tag;

    let _: fn(Challenge, u64, NonceWidth) -> Solution = Solution::new;
    let _: fn(&Solution, IpAddr) -> bool = Solution::meets_difficulty;
    // loadgen.rs:157 reads a solution's parts to build the submit frame.
    let Solution {
        challenge: _,
        nonce: _,
        width: _,
        backend: _,
    } = Solution::new(
        Issuer::new(&[7; 32]).issue_at(
            IpAddr::V4(Ipv4Addr::LOCALHOST),
            Difficulty::saturating(1),
            0,
        ),
        0,
        NonceWidth::U64,
    );

    let _: fn(&Challenge, IpAddr, &SolverOptions) -> Result<SolveReport, SolveError> = solve;
    let _: fn(u64, usize) -> f64 = measure_hash_rate_lanes;
    let _: usize = SolverOptions::default().lanes;
    let _: fn() -> usize = aipow_crypto::auto_lanes;
    let _: fn(&[u8]) -> aipow_crypto::Digest = aipow_crypto::Sha256::digest;
}

/// `probe.rs`, `loadgen.rs`, `closed.rs`, `trust_mix.rs`: the codec and
/// the socket-free reactor components.
#[test]
fn wire_and_reactor_signatures() {
    let _: fn(&Message) -> Vec<u8> = aipow_wire::encode;
    let _: fn(&[u8]) -> Result<Message, DecodeError> = aipow_wire::decode;
    // Not imported by the benchmark today, but named in the landing
    // contract (ROADMAP): the stream forms of the codec.
    let _: fn(Vec<u8>, &Message) -> io::Result<()> = aipow_wire::write_message;
    let _: fn(io::Cursor<Vec<u8>>) -> Result<Message, ReadMessageError> = aipow_wire::read_message;
    let _: u8 = aipow_wire::PROTOCOL_VERSION;
    let _ = [RejectCode::InvalidSolution, RejectCode::RateLimited];

    let _: fn() -> FrameAssembler = FrameAssembler::new;
    let _: fn(&mut FrameAssembler, &[u8]) = FrameAssembler::ingest;
    let _: fn(&mut FrameAssembler) -> Result<Option<Message>, DecodeError> =
        FrameAssembler::next_frame;
    let _: fn(usize) -> WriteQueue = WriteQueue::new;
    let _: fn(&mut WriteQueue, &[u8]) -> QueuePush = WriteQueue::push;
    let _: fn(&mut WriteQueue, usize) = WriteQueue::consume;

    // probe.rs:213.
    let _: fn(
        Vec<Message>,
        IpAddr,
        &Framework,
        &dyn FeatureSource,
        &HashMap<String, Vec<u8>>,
        &Option<RateLimiter>,
    ) -> Vec<Message> = dispatch_frames;
}

/// `deploy.rs`, `runner.rs`, `probe.rs`: the framework and the limiter.
#[test]
fn core_signatures() {
    let _: fn(&Framework) -> MetricsSnapshot = Framework::metrics_snapshot;
    let _: fn(&Framework) -> &Verifier = Framework::verifier;
    let _: fn(&Framework, Arc<Tracer>) -> bool = Framework::set_tracer;
    let _: fn(&Framework, IpAddr, &FeatureVector) -> aipow_core::AdmissionDecision =
        Framework::handle_request;
    let _: fn(&Framework, &Solution, IpAddr) -> Verdict = Framework::handle_solution;
    let _: fn(&Framework, &[(IpAddr, &FeatureVector)]) -> Vec<aipow_core::AdmissionDecision> =
        Framework::handle_request_batch;
    let _: fn(&Framework, &[(&Solution, IpAddr)]) -> Vec<Verdict> =
        Framework::handle_solution_batch;

    let _: fn(f64, f64, usize, Option<usize>, usize) -> RateLimiter = RateLimiter::with_layout;
    let _: fn(&RateLimiter, IpAddr, u64) -> bool = RateLimiter::allow;
    let _: fn(&RateLimiter) -> u64 = RateLimiter::eviction_scan_steps;
    let _: fn(&RateLimiter) -> u64 = RateLimiter::global_eviction_folds;

    // runner.rs:377 zips these, in this order, with its own metric names.
    assert_eq!(
        aipow_core::metrics::STAGE_NAMES,
        [
            "score",
            "bypass",
            "policy",
            "issue",
            "request_telemetry",
            "verify",
            "charge",
            "solution_telemetry",
        ]
    );
}

/// `runner.rs:241-400`: every snapshot field the benchmark reads, by name
/// and type.
#[test]
fn metrics_snapshot_fields() {
    let snap = aipow_core::FrameworkMetrics::new().snapshot();
    let _: [u64; 13] = [
        snap.challenges_issued,
        snap.solutions_accepted,
        snap.solutions_rejected,
        snap.rate_limited,
        snap.accepted_total,
        snap.reactor_wakeups,
        snap.reactor_ready_events,
        snap.per_ip_cap_rejections,
        snap.max_conn_rejections,
        snap.outbound_overflow_closes,
        snap.reaped_idle,
        snap.replay_evicted_live,
        snap.rejected_by_reason.get("bad_mac").copied().unwrap_or(0),
    ];
    for t in &snap.stage_timings {
        let _: (String, (u64, u64, u64)) = (t.stage.clone(), (t.batches, t.items, t.total_ns));
    }
}

/// `closed.rs:321-326` and `runner.rs:29`: the oracle matches rejection
/// details against these display strings and reconciles these labels.
#[test]
fn verify_error_strings_and_labels() {
    let bits = |n| Difficulty::saturating(n);
    for (err, text) in [
        (
            VerifyError::UnsupportedVersion { got: 9 },
            "unsupported challenge version 9",
        ),
        (
            VerifyError::UnknownBackend { got: BackendId(77) },
            &*format!(
                "challenge names unregistered puzzle backend {}",
                BackendId(77)
            ),
        ),
        (
            VerifyError::BackendMismatch {
                challenge: BackendId::SHA256,
                solution: BackendId::MEMORY_HARD,
            },
            &*format!(
                "solution solved backend {} but the challenge was issued for {}",
                BackendId::MEMORY_HARD,
                BackendId::SHA256
            ),
        ),
        (
            VerifyError::InvalidBackendParam { got: 200 },
            "backend rejects challenge parameter 200",
        ),
        (
            VerifyError::DifficultyTooHigh {
                got: bits(50),
                cap: bits(40),
            },
            &*format!(
                "challenge difficulty {} exceeds verifier cap {}",
                bits(50),
                bits(40)
            ),
        ),
        (VerifyError::BadMac, "challenge authentication failed"),
        (
            VerifyError::ClientMismatch,
            "solution submitted from a different client than issued to",
        ),
        (
            VerifyError::NotYetValid,
            "challenge timestamp is in the future",
        ),
        (
            VerifyError::Expired {
                expired_at_ms: 5,
                now_ms: 9,
            },
            "challenge expired at 5, now 9",
        ),
        (VerifyError::Replayed, "challenge seed already redeemed"),
        (
            VerifyError::InsufficientWork {
                got_bits: 3,
                need_bits: 14,
            },
            "solution has 3 leading zero bits, needs 14",
        ),
        (
            VerifyError::MalformedNonce,
            "nonce does not fit its declared width",
        ),
    ] {
        assert_eq!(err.to_string(), text);
    }

    // The four labels the oracle reconciles, as the pipeline records them.
    let key = [9u8; 32];
    let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let (framework, clock) = test_builder(key).manual_clock(1_000);
    let framework = framework.build().unwrap();
    let issuer = Issuer::new(&key);
    let easy = Difficulty::saturating(1);
    let solved = |c: &Challenge| solve(c, ip, &SolverOptions::default()).unwrap().solution;

    let live = issuer.issue_at(ip, Difficulty::saturating(30), 1_000);
    let unsolved = (0..)
        .map(|nonce| Solution::new(live.clone(), nonce, NonceWidth::U64))
        .find(|s| !s.meets_difficulty(ip))
        .unwrap();
    let forged = Solution::new(
        Issuer::new(&[1; 32]).issue_at(ip, easy, 1_000),
        0,
        NonceWidth::U64,
    );
    let once = solved(&issuer.issue_at(ip, easy, 1_000));
    let stale = solved(&issuer.issue_at(ip, easy, 1_000));
    for solution in [&forged, &unsolved, &once, &once] {
        let _ = framework.handle_solution(solution, ip);
    }
    clock.advance(3_600_000);
    let _ = framework.handle_solution(&stale, ip);
    let snap = framework.metrics_snapshot();
    for label in ["bad_mac", "insufficient_work", "replayed", "expired"] {
        assert_eq!(snap.rejected_by_reason.get(label), Some(&1), "{label}");
    }
    assert_eq!(snap.rejected_by_reason.len(), 4, "{snap:?}");
}

fn test_builder(key: [u8; 32]) -> FrameworkBuilder {
    FrameworkBuilder::new()
        .master_key(key)
        .model(FixedScoreModel::new(ReputationScore::MIN))
        .policy(LinearPolicy::policy1())
}

/// `deploy.rs:173-200` and `proc.rs:9`: the `ServerConfig` literal the
/// benchmark writes, the three `PowServer` methods it calls, and the
/// thread name its CPU meter finds the reactor by.
#[test]
fn server_config_literal_and_reactor_thread_name() {
    let _: fn(&PowServer) -> SocketAddr = PowServer::local_addr;
    let _: fn(&PowServer) -> usize = PowServer::open_connections;

    let config = ServerConfig {
        reactor_shards: Some(1),
        rate_limit: true.then_some((8.0, 4.0)),
        rate_limit_max_clients: 4_096,
        rate_limit_shards: Some(8),
        rate_limit_max_scan: aipow_core::sharded::DEFAULT_MAX_SCAN,
        ..ServerConfig::default()
    };
    let features = Arc::new(StaticFeatureSource::new(FeatureVector::zeros()));
    let server: io::Result<PowServer> = PowServer::start(
        "127.0.0.1:0",
        Arc::new(test_builder([3; 32]).build().unwrap()),
        features as Arc<dyn FeatureSource>,
        HashMap::from([("/r".to_string(), vec![0u8; 16])]),
        config,
    );
    let server = server.unwrap();
    assert_ne!(server.local_addr().port(), 0);

    // A thread names itself as it starts; a round trip through the one
    // shard proves it has. `comm` keeps the first 15 bytes of the name.
    #[cfg(target_os = "linux")]
    {
        let mut client = aipow_net::PowClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        let reactors = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("aipow-reactor"))
            .count();
        assert!(reactors >= 1, "no thread named aipow-reactor-*");
    }
    server.shutdown();
}
