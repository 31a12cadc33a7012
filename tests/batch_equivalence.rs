//! Batch/sequential equivalence of the admission pipeline.
//!
//! The contract under test (see `aipow_core::pipeline`): for **any**
//! interleaving of resource requests, solution submissions (valid,
//! wrong-IP, replayed), and clock advances, driving the batch entry
//! points (`handle_request_batch` / `handle_solution_batch`) over
//! consecutive same-kind runs of the schedule produces **exactly** the
//! sequential path's
//!
//! - admission decisions (bypass flag, score, difficulty, and the whole
//!   issued challenge, seed and tag included), in order;
//! - verification outcomes (tokens and error variants), in order;
//! - per-client cost-ledger balances (and the population count);
//! - audit records, in order, timestamps included;
//! - pipeline counters (issued / bypassed / accepted / per-reason
//!   rejections).
//!
//! Seeds are compared too: both frameworks share a master key, and draw
//! `n` of an issuer's seed stream is a keyed function of `n` alone, so
//! the batch path must mint the sequential path's challenges byte for
//! byte. Both frameworks run on lockstep manual clocks, which realizes
//! the documented batching invariant that a batch shares one clock
//! reading — on a fixed clock the paths must be bit-equivalent.

use aipow::framework::{AdmissionDecision, Framework, FrameworkBuilder};
use aipow::pow::solver::{self, SolverOptions};
use aipow::pow::{ManualClock, Solution, TimeSource, VerifiedToken, VerifyError};
use aipow::prelude::*;
use aipow::reputation::model::FixedScoreModel;
use aipow::reputation::ReputationScore;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// One step of a schedule.
#[derive(Debug, Clone)]
enum Op {
    /// `client` asks for the resource.
    Request { client: u8 },
    /// `client` solves its oldest pending challenge and submits it.
    GoodSolution { client: u8 },
    /// `client` solves its oldest pending challenge but submits it from
    /// a different address (→ `ClientMismatch`, seed not consumed; the
    /// schedule drops the challenge either way, identically on both
    /// paths).
    WrongIpSolution { client: u8 },
    /// `client` resubmits its most recently accepted solution
    /// (→ `Replayed`).
    Replay { client: u8 },
    /// Both clocks advance by `ms` (also flushes the current run).
    Advance { ms: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! weighs branches equally; weighting is
    // emulated by repeating the hot branches (4:3:1:1:1).
    prop_oneof![
        (0u8..4).prop_map(|client| Op::Request { client }),
        (0u8..4).prop_map(|client| Op::Request { client }),
        (0u8..4).prop_map(|client| Op::Request { client }),
        (0u8..4).prop_map(|client| Op::Request { client }),
        (0u8..4).prop_map(|client| Op::GoodSolution { client }),
        (0u8..4).prop_map(|client| Op::GoodSolution { client }),
        (0u8..4).prop_map(|client| Op::GoodSolution { client }),
        (0u8..4).prop_map(|client| Op::WrongIpSolution { client }),
        (0u8..4).prop_map(|client| Op::Replay { client }),
        (0u16..5_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

fn client_ip(client: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, client))
}

fn wrong_ip() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(198, 51, 100, 200))
}

/// Routes every client to one fixed puzzle backend, so the equivalence
/// schedules can be replayed per registered backend.
#[derive(Debug)]
struct FixedRouter(aipow::pow::BackendId);

impl aipow::policy::BackendRouter for FixedRouter {
    fn name(&self) -> &str {
        "fixed"
    }
    fn route(
        &self,
        _score: ReputationScore,
        _ctx: &aipow::policy::PolicyContext,
    ) -> aipow::pow::BackendId {
        self.0
    }
}

/// Builds one framework (fixed low score → tiny puzzles, solver cost
/// negligible) with its lockstep clock.
fn build(max_batch: usize) -> (Framework, ManualClock) {
    build_with(max_batch, None, None)
}

/// As [`build`], with an explicit verifier lane width (`None` keeps the
/// hardware-detected default) and an optional fixed puzzle backend
/// (`None` keeps the default SHA-256 routing).
fn build_with(
    max_batch: usize,
    lanes: Option<usize>,
    backend: Option<aipow::pow::BackendId>,
) -> (Framework, ManualClock) {
    let (mut builder, clock) = FrameworkBuilder::new()
        .master_key([0x11u8; 32])
        .model(FixedScoreModel::new(ReputationScore::new(0.0).unwrap()))
        .policy(LinearPolicy::policy1()) // score 0 → 1 bit
        .config(FrameworkConfig {
            ttl_ms: 2_000, // short TTL so Advance can expire challenges
            max_batch,
            lanes,
            // Smallest arena so memory-hard schedules stay test-fast.
            memory_hard_arena_mib: Some(1),
            ..Default::default()
        })
        .manual_clock(1_000_000);
    if let Some(backend) = backend {
        builder = builder.backend_router(Arc::new(FixedRouter(backend)));
    }
    (builder.build().unwrap(), clock)
}

/// Per-framework driver state: pending challenges and accepted
/// solutions per client. Evolves identically on both paths because the
/// decision *shapes* are identical.
#[derive(Default)]
struct ClientState {
    pending: VecDeque<aipow::pow::Challenge>,
    accepted: Vec<Solution>,
}

/// What one op resolved to, in comparable form.
#[derive(Debug, Clone, PartialEq)]
enum Observed {
    Decision {
        bypass: bool,
        score: f64,
        difficulty: Option<u8>,
        challenge: Option<aipow::pow::Challenge>,
    },
    Outcome(Result<(IpAddr, u8, u64), VerifyError>),
    Skipped,
}

fn observe_decision(decision: &AdmissionDecision) -> Observed {
    match decision {
        AdmissionDecision::Admit { score } => Observed::Decision {
            bypass: true,
            score: score.value(),
            difficulty: None,
            challenge: None,
        },
        AdmissionDecision::Challenge(issued) => Observed::Decision {
            bypass: false,
            score: issued.score.value(),
            difficulty: Some(issued.difficulty.bits()),
            challenge: Some(issued.challenge.clone()),
        },
    }
}

fn observe_outcome(outcome: &Result<VerifiedToken, VerifyError>) -> Observed {
    Observed::Outcome(
        outcome
            .as_ref()
            .map(|t| (t.client_ip, t.difficulty.bits(), t.verified_at_ms))
            .map_err(|e| *e),
    )
}

/// A solution op ready to submit: the solution and the address it is
/// submitted from.
struct Submission {
    solution: Solution,
    from: IpAddr,
}

/// Resolves one op against a framework's driver state, producing the
/// submission to make (for solution-like ops) or `None` for a skip.
/// Mutates the state exactly as the op demands; both paths call this
/// with identical state, so skips align.
fn prepare_submission(
    op: &Op,
    states: &mut [ClientState; 4],
    clock: &ManualClock,
) -> Option<Submission> {
    match op {
        Op::GoodSolution { client } | Op::WrongIpSolution { client } => {
            let state = &mut states[*client as usize];
            let challenge = state.pending.pop_front()?;
            let report = solver::solve(&challenge, client_ip(*client), &SolverOptions::default())
                .expect("1-bit puzzle solves");
            let from = match op {
                Op::GoodSolution { .. } => client_ip(*client),
                _ => wrong_ip(),
            };
            if matches!(op, Op::GoodSolution { .. }) && !challenge.is_expired(clock.now_ms()) {
                state.accepted.push(report.solution.clone());
            }
            Some(Submission {
                solution: report.solution,
                from,
            })
        }
        Op::Replay { client } => {
            let state = &states[*client as usize];
            let solution = state.accepted.last()?.clone();
            Some(Submission {
                solution,
                from: client_ip(*client),
            })
        }
        _ => None,
    }
}

/// Drives the schedule sequentially.
fn run_sequential(ops: &[Op]) -> (Vec<Observed>, Framework) {
    run_sequential_backend(ops, None)
}

/// As [`run_sequential`], with an optional fixed puzzle backend.
fn run_sequential_backend(
    ops: &[Op],
    backend: Option<aipow::pow::BackendId>,
) -> (Vec<Observed>, Framework) {
    let (fw, clock) = build_with(4, None, backend);
    let mut states: [ClientState; 4] = Default::default();
    let features = FeatureVector::zeros();
    let mut observed = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Request { client } => {
                let decision = fw.handle_request(client_ip(*client), &features);
                observed.push(observe_decision(&decision));
                if let AdmissionDecision::Challenge(issued) = decision {
                    states[*client as usize].pending.push_back(issued.challenge);
                }
            }
            Op::Advance { ms } => {
                clock.advance(u64::from(*ms));
                observed.push(Observed::Skipped);
            }
            solution_op => match prepare_submission(solution_op, &mut states, &clock) {
                Some(sub) => {
                    let outcome = fw.handle_solution(&sub.solution, sub.from);
                    observed.push(observe_outcome(&outcome));
                }
                None => observed.push(Observed::Skipped),
            },
        }
    }
    (observed, fw)
}

/// Drives the schedule through the batch entry points: consecutive
/// requests form one `handle_request_batch` call, consecutive
/// solution-like ops one `handle_solution_batch` call; `Advance`
/// flushes.
fn run_batched(ops: &[Op]) -> (Vec<Observed>, Framework) {
    run_batched_with(ops, None, None)
}

/// As [`run_batched`], with an explicit verifier lane width and an
/// optional fixed puzzle backend.
fn run_batched_with(
    ops: &[Op],
    lanes: Option<usize>,
    backend: Option<aipow::pow::BackendId>,
) -> (Vec<Observed>, Framework) {
    let (fw, clock) = build_with(4, lanes, backend);
    let mut states: [ClientState; 4] = Default::default();
    let features = FeatureVector::zeros();
    let mut observed: Vec<Observed> = Vec::with_capacity(ops.len());

    // The accumulating run: request clients, or prepared submissions.
    let mut request_run: Vec<u8> = Vec::new();
    let mut solution_run: Vec<Submission> = Vec::new();

    fn flush_requests(
        fw: &Framework,
        features: &FeatureVector,
        states: &mut [ClientState; 4],
        run: &mut Vec<u8>,
        observed: &mut Vec<Observed>,
    ) {
        if run.is_empty() {
            return;
        }
        let requests: Vec<(IpAddr, &FeatureVector)> =
            run.iter().map(|&c| (client_ip(c), features)).collect();
        let decisions = fw.handle_request_batch(&requests);
        for (client, decision) in run.drain(..).zip(decisions) {
            observed.push(observe_decision(&decision));
            if let AdmissionDecision::Challenge(issued) = decision {
                states[client as usize].pending.push_back(issued.challenge);
            }
        }
    }
    fn flush_solutions(fw: &Framework, run: &mut Vec<Submission>, observed: &mut Vec<Observed>) {
        if run.is_empty() {
            return;
        }
        let submissions: Vec<(&Solution, IpAddr)> =
            run.iter().map(|s| (&s.solution, s.from)).collect();
        let outcomes = fw.handle_solution_batch(&submissions);
        for outcome in &outcomes {
            observed.push(observe_outcome(outcome));
        }
        run.clear();
    }

    for op in ops {
        match op {
            Op::Request { client } => {
                // A kind switch flushes the other run first, preserving
                // framework-side processing order.
                flush_solutions(&fw, &mut solution_run, &mut observed);
                request_run.push(*client);
            }
            Op::Advance { ms } => {
                flush_requests(&fw, &features, &mut states, &mut request_run, &mut observed);
                flush_solutions(&fw, &mut solution_run, &mut observed);
                clock.advance(u64::from(*ms));
                observed.push(Observed::Skipped);
            }
            solution_op => {
                // Solution ops consume challenges issued earlier in the
                // same run window — flush requests first so the pending
                // queues are current (a real pipelining client likewise
                // can only submit challenges it has received).
                flush_requests(&fw, &features, &mut states, &mut request_run, &mut observed);
                match prepare_submission(solution_op, &mut states, &clock) {
                    Some(sub) => solution_run.push(sub),
                    None => {
                        // Skips must land in slot order: flush what is
                        // queued, then record the skip.
                        flush_solutions(&fw, &mut solution_run, &mut observed);
                        observed.push(Observed::Skipped);
                    }
                }
            }
        }
    }
    flush_requests(&fw, &features, &mut states, &mut request_run, &mut observed);
    flush_solutions(&fw, &mut solution_run, &mut observed);
    (observed, fw)
}

/// Seed-free audit view.
fn audit_view(fw: &Framework) -> Vec<String> {
    fw.audit()
        .snapshot()
        .iter()
        .map(|e| format!("{} {} {:?}", e.at_ms, e.client_ip, e.kind))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline equivalence: any interleaving, identical results.
    #[test]
    fn batch_path_is_observationally_identical_to_sequential(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let (seq_observed, seq_fw) = run_sequential(&ops);
        let (batch_observed, batch_fw) = run_batched(&ops);

        // Decisions, outcomes, and skips, in op order.
        prop_assert_eq!(&seq_observed, &batch_observed);

        // Ledger balances and population.
        prop_assert_eq!(seq_fw.ledger().len(), batch_fw.ledger().len());
        for client in 0..4u8 {
            prop_assert_eq!(
                seq_fw.ledger().total(client_ip(client)),
                batch_fw.ledger().total(client_ip(client)),
                "ledger diverged for client {}", client
            );
        }

        // Audit records, in order, timestamps included.
        prop_assert_eq!(audit_view(&seq_fw), audit_view(&batch_fw));

        // Pipeline counters.
        let seq_snap = seq_fw.metrics_snapshot();
        let batch_snap = batch_fw.metrics_snapshot();
        prop_assert_eq!(seq_snap.challenges_issued, batch_snap.challenges_issued);
        prop_assert_eq!(seq_snap.bypassed, batch_snap.bypassed);
        prop_assert_eq!(seq_snap.solutions_accepted, batch_snap.solutions_accepted);
        prop_assert_eq!(seq_snap.solutions_rejected, batch_snap.solutions_rejected);
        prop_assert_eq!(seq_snap.rejected_by_reason, batch_snap.rejected_by_reason);
        prop_assert_eq!(
            seq_snap.median_issued_difficulty,
            batch_snap.median_issued_difficulty
        );
    }

    /// The multi-buffer verification kernel is a pure perf knob: the
    /// batch path at every wide lane width produces exactly what the
    /// scalar-forced (lanes = 1) batch path produces — decisions,
    /// outcomes, skips, audit records, and counters.
    #[test]
    fn verify_lane_width_is_observationally_invisible(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let (scalar_observed, scalar_fw) = run_batched_with(&ops, Some(1), None);
        for lanes in [2usize, 4, 8] {
            let (wide_observed, wide_fw) = run_batched_with(&ops, Some(lanes), None);
            prop_assert_eq!(&scalar_observed, &wide_observed, "lanes {}", lanes);
            prop_assert_eq!(audit_view(&scalar_fw), audit_view(&wide_fw));
            prop_assert_eq!(scalar_fw.ledger().len(), wide_fw.ledger().len());
            let scalar_snap = scalar_fw.metrics_snapshot();
            let wide_snap = wide_fw.metrics_snapshot();
            prop_assert_eq!(scalar_snap.solutions_accepted, wide_snap.solutions_accepted);
            prop_assert_eq!(scalar_snap.solutions_rejected, wide_snap.solutions_rejected);
            prop_assert_eq!(scalar_snap.rejected_by_reason, wide_snap.rejected_by_reason);
        }
    }

    /// Chunking ceilings never change results, only group sizes: the
    /// same schedule at max_batch 1 (degenerate batching) and a large
    /// ceiling produce what the sequential path produces.
    #[test]
    fn max_batch_ceiling_is_semantically_invisible(
        ops in proptest::collection::vec(op_strategy(), 1..30)
    ) {
        let (seq_observed, _) = run_sequential(&ops);
        for max_batch in [1usize, 3, 64] {
            let run = |ops: &[Op]| {
                // Rebuild run_batched's framework with this ceiling by
                // reusing its machinery: requests all at once.
                let (fw, clock) = build(max_batch);
                let mut states: [ClientState; 4] = Default::default();
                let features = FeatureVector::zeros();
                let mut observed = Vec::new();
                for op in ops {
                    match op {
                        Op::Request { client } => {
                            let requests = vec![(client_ip(*client), &features)];
                            let decision =
                                fw.handle_request_batch(&requests).pop().unwrap();
                            observed.push(observe_decision(&decision));
                            if let AdmissionDecision::Challenge(issued) = decision {
                                states[*client as usize].pending.push_back(issued.challenge);
                            }
                        }
                        Op::Advance { ms } => {
                            clock.advance(u64::from(*ms));
                            observed.push(Observed::Skipped);
                        }
                        solution_op => {
                            match prepare_submission(solution_op, &mut states, &clock) {
                                Some(sub) => {
                                    let outcome = fw
                                        .handle_solution_batch(&[(&sub.solution, sub.from)])
                                        .pop()
                                        .unwrap();
                                    observed.push(observe_outcome(&outcome));
                                }
                                None => observed.push(Observed::Skipped),
                            }
                        }
                    }
                }
                observed
            };
            prop_assert_eq!(&seq_observed, &run(&ops), "max_batch {}", max_batch);
        }
    }
}

proptest! {
    // Fewer cases than the SHA-only properties: each case replays the
    // schedule four ways per registered backend, and memory-hard solves
    // touch a real (1 MiB) arena.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batch/sequential equivalence holds through the backend seam
    /// for **every** registered puzzle backend, and the verifier's lane
    /// width stays observationally invisible under each of them.
    #[test]
    fn batch_equivalence_holds_for_every_registered_backend(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        for id in aipow::pow::BackendRegistry::standard().ids() {
            let (seq_observed, seq_fw) = run_sequential_backend(&ops, Some(id));
            let (batch_observed, batch_fw) = run_batched_with(&ops, None, Some(id));
            prop_assert_eq!(&seq_observed, &batch_observed, "backend {}", id);
            prop_assert_eq!(audit_view(&seq_fw), audit_view(&batch_fw));
            let seq_snap = seq_fw.metrics_snapshot();
            let batch_snap = batch_fw.metrics_snapshot();
            prop_assert_eq!(seq_snap.solutions_accepted, batch_snap.solutions_accepted);
            prop_assert_eq!(seq_snap.solutions_rejected, batch_snap.solutions_rejected);
            prop_assert_eq!(seq_snap.rejected_by_reason, batch_snap.rejected_by_reason);

            // Lane width is a pure perf knob under this backend too.
            let (scalar_observed, _) = run_batched_with(&ops, Some(1), Some(id));
            let (wide_observed, _) = run_batched_with(&ops, Some(8), Some(id));
            prop_assert_eq!(&batch_observed, &scalar_observed, "backend {} scalar", id);
            prop_assert_eq!(&scalar_observed, &wide_observed, "backend {} wide", id);
        }
    }
}

// ---------------------------------------------------------------------
// Wire-path equivalence: the reactor's frame assembly and per-readiness
// dispatch grouping are invisible. TCP may deliver a pipelined burst in
// any byte-level fragmentation or coalescing; the reactor must produce
// the same replies in the same order as whole-frame delivery.
// ---------------------------------------------------------------------

use aipow::net::reactor::{dispatch_frames, FrameAssembler};
use aipow::wire::Message;

/// One frame of a pipelined burst (no solutions: the schedule properties
/// above cover verification; the wire property targets the framing
/// layer).
#[derive(Debug, Clone)]
enum WireOp {
    Ping(u64),
    Request,
    Missing,
    Hello,
}

fn wire_op_strategy() -> impl Strategy<Value = WireOp> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(WireOp::Ping),
        Just(WireOp::Request),
        Just(WireOp::Request),
        Just(WireOp::Missing),
        Just(WireOp::Hello),
    ]
}

fn wire_op_message(op: &WireOp) -> Message {
    match op {
        WireOp::Ping(token) => Message::Ping { token: *token },
        WireOp::Request => Message::RequestResource { path: "/r".into() },
        WireOp::Missing => Message::RequestResource {
            path: "/missing".into(),
        },
        WireOp::Hello => Message::Hello {
            version: aipow::wire::PROTOCOL_VERSION,
        },
    }
}

/// Comparable view of a reply. An issued challenge is compared whole,
/// seed and tag included: identically built frameworks draw the same
/// seed stream.
fn observe_reply(reply: &Message) -> String {
    match reply {
        Message::Pong { token } => format!("pong {token}"),
        Message::Hello { version } => format!("hello {version}"),
        Message::ChallengeIssued { challenge, path } => {
            format!("challenge {path} {challenge:?}")
        }
        Message::ResourceGranted { path, body } => {
            format!("granted {path} len={}", body.len())
        }
        Message::Rejected { code, .. } => format!("rejected {code:?}"),
        other => format!("other {other:?}"),
    }
}

/// Splits `bytes` into fragments whose lengths cycle through `cuts`
/// (1-based; arbitrary small fragments exercise every partial-header and
/// partial-payload state).
fn fragments<'a>(bytes: &'a [u8], cuts: &[u16]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < bytes.len() {
        let len = (cuts[i % cuts.len()] as usize).max(1);
        let end = (start + len).min(bytes.len());
        out.push(&bytes[start..end]);
        start = end;
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure framing: any fragmentation/coalescing of a back-to-back
    /// frame stream reassembles to exactly the original frame sequence.
    #[test]
    fn arbitrary_fragmentation_reassembles_the_exact_frame_sequence(
        ops in proptest::collection::vec(wire_op_strategy(), 1..20),
        cuts in proptest::collection::vec(1u16..64, 1..8),
    ) {
        let messages: Vec<Message> = ops.iter().map(wire_op_message).collect();
        let mut bytes = Vec::new();
        for msg in &messages {
            bytes.extend(aipow::wire::encode(msg));
        }
        let mut assembler = FrameAssembler::new();
        let mut reassembled = Vec::new();
        for fragment in fragments(&bytes, &cuts) {
            assembler.ingest(fragment);
            while let Some(frame) = assembler.next_frame().expect("valid stream") {
                reassembled.push(frame);
            }
        }
        prop_assert_eq!(reassembled, messages);
        prop_assert_eq!(assembler.buffered(), 0, "no bytes left behind");
    }

    /// Full wire path: fragment-driven dispatch (frames dispatched as
    /// each "readiness event" completes them, in max_batch groups — the
    /// reactor's exact drain discipline) produces the same replies in
    /// the same order as whole-frame single-batch delivery.
    #[test]
    fn fragmented_delivery_replies_match_whole_frame_delivery(
        ops in proptest::collection::vec(wire_op_strategy(), 1..20),
        cuts in proptest::collection::vec(1u16..48, 1..8),
        max_batch in 1usize..6,
    ) {
        let peer: IpAddr = client_ip(0);
        let mut resources = std::collections::HashMap::new();
        resources.insert("/r".to_string(), b"payload".to_vec());
        let limiter = None;

        let messages: Vec<Message> = ops.iter().map(wire_op_message).collect();
        let mut bytes = Vec::new();
        for msg in &messages {
            bytes.extend(aipow::wire::encode(msg));
        }

        // Whole-frame delivery: every frame in one dispatch batch.
        let (whole_fw, _clock) = build(4);
        let whole: Vec<String> = dispatch_frames(
            messages.clone(), peer, &whole_fw,
            &aipow::framework::StaticFeatureSource::new(FeatureVector::zeros()),
            &resources, &limiter,
        ).iter().map(observe_reply).collect();

        // Fragmented delivery on an identically built framework: each
        // fragment completes zero or more frames; completed frames are
        // dispatched immediately in groups of at most max_batch.
        let (frag_fw, _clock) = build(4);
        let features = aipow::framework::StaticFeatureSource::new(FeatureVector::zeros());
        let mut assembler = FrameAssembler::new();
        let mut fragged: Vec<String> = Vec::new();
        for fragment in fragments(&bytes, &cuts) {
            assembler.ingest(fragment);
            loop {
                let mut batch = Vec::new();
                while batch.len() < max_batch {
                    match assembler.next_frame().expect("valid stream") {
                        Some(frame) => batch.push(frame),
                        None => break,
                    }
                }
                if batch.is_empty() {
                    break;
                }
                let full = batch.len() == max_batch;
                fragged.extend(
                    dispatch_frames(batch, peer, &frag_fw, &features, &resources, &limiter)
                        .iter()
                        .map(observe_reply),
                );
                if !full {
                    break;
                }
            }
        }
        prop_assert_eq!(whole, fragged);
    }
}

/// Arc is referenced so the facade prelude import stays exercised even
/// if the proptest bodies change.
#[allow(dead_code)]
fn assert_framework_shareable(fw: Framework) -> Arc<Framework> {
    Arc::new(fw)
}
