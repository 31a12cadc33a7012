//! The admission pipeline as an explicit stage chain.
//!
//! The paper's Figure-1 loop (score → policy → issue → verify → charge)
//! runs as a chain of stage functions over a batch of typed per-request
//! contexts, with two consequences:
//!
//! - **Observability**: every stage records its wall-clock latency into
//!   [`crate::FrameworkMetrics`]'s per-stage counters (reported as
//!   [`crate::MetricsSnapshot::stage_timings`]), so an operator can see
//!   *where* admission time goes, not just that it went.
//! - **Amortization**: a stage runs over a *batch* of contexts (the
//!   sequential entry points pass a batch of one through the same code),
//!   so the batch entry points ([`Framework::handle_request_batch`],
//!   [`Framework::handle_solution_batch`]) pay each fixed cost once per
//!   group: one clock reading, one policy read-lock, one audit-shard
//!   lock acquisition per shard, one grouped ledger charge, one batched
//!   sink notification.
//!
//! The chains are:
//!
//! ```text
//! request:  Score → Bypass → Policy → Issue → Telemetry
//! solution: Verify → Charge → Telemetry
//! ```
//!
//! Each chain is a table of `(slot, stage)` pairs; a stage's name is its
//! slot's entry in [`crate::metrics::STAGE_NAMES`]. A stage that settles
//! a context (the bypass admit) simply fills its `decision`; later
//! stages skip settled contexts. The terminal telemetry stage is the one
//! place that records audit events, metrics and sink deliveries, and it
//! observes *every* context, settled or not.
//!
//! # Batching invariants
//!
//! Batched admission is equivalent to sequential admission with three
//! documented relaxations, all consequences of reading shared inputs
//! once per batch instead of once per request:
//!
//! 1. every context in a batch observes the same clock instant (the
//!    batch's one reading) — on a fixed clock the two paths are
//!    bit-equivalent, which is what `tests/batch_equivalence.rs` proves;
//! 2. every context in a batch observes the same policy, load, and
//!    attack flag (a concurrent [`Framework::swap_policy`] lands between
//!    batches, never inside one);
//! 3. callers that derive features from live state sample them once per
//!    batch — the TCP server looks features up once per pipelined run,
//!    so with the online loop attached a burst is scored on the
//!    client's pre-burst reputation and the burst's own tap events land
//!    *after* its decisions. A flooder can thereby defer its own
//!    difficulty escalation by at most one batch (≤ `max_batch`
//!    requests per connection wakeup) — bounded, and bounded precisely
//!    by the knob that controls batching.
//!
//! Under those inputs, decision *values*, issued tokens, ledger
//! balances, audit records, and their order are identical between the
//! two paths.

use crate::framework::{AdmissionDecision, Framework, IssuedChallenge};
use crate::metrics::{reason_label, STAGE_NAMES};
use crate::sync::Ordering;
use crate::tap::{RequestObservation, SolutionObservation};
use crate::{AuditEvent, AuditKind};
use aipow_policy::PolicyContext;
use aipow_pow::{Difficulty, Solution, VerifiedToken, VerifyError};
use aipow_reputation::{FeatureVector, ReputationScore};
use aipow_trace::SpanEvent;
use std::net::IpAddr;
use std::time::Instant;

/// Slots into [`crate::metrics::STAGE_NAMES`] for the request chain.
const SLOT_SCORE: usize = 0;
const SLOT_BYPASS: usize = 1;
const SLOT_POLICY: usize = 2;
const SLOT_ISSUE: usize = 3;
const SLOT_REQUEST_TELEMETRY: usize = 4;
/// Slots for the solution chain.
const SLOT_VERIFY: usize = 5;
const SLOT_CHARGE: usize = 6;
const SLOT_SOLUTION_TELEMETRY: usize = 7;

/// One in-flight resource request, as it moves down the request chain.
#[derive(Debug)]
pub struct RequestCtx<'a> {
    /// The requesting client.
    pub client_ip: IpAddr,
    /// The feature vector the model scores.
    pub features: &'a FeatureVector,
    /// The model's score (filled by the score stage).
    pub score: ReputationScore,
    /// The policy's difficulty decision (filled by the policy stage for
    /// contexts the bypass stage did not settle).
    pub difficulty: Option<Difficulty>,
    /// The final decision; a context is *settled* once this is filled.
    pub decision: Option<AdmissionDecision>,
    /// Request-scoped trace ID; 0 (the default) means unsampled, and the
    /// chain emits no spans for this context. The chain assigns IDs from
    /// the attached tracer's sampler before its first stage.
    pub trace_id: u64,
}

impl<'a> RequestCtx<'a> {
    /// A fresh, unsampled context at the head of the chain.
    pub fn new(client_ip: IpAddr, features: &'a FeatureVector) -> Self {
        RequestCtx {
            client_ip,
            features,
            score: ReputationScore::MIN,
            difficulty: None,
            decision: None,
            trace_id: 0,
        }
    }

    /// The settled decision, as the telemetry stage reports it.
    fn observation(&self) -> RequestObservation {
        let (score, difficulty) = match self
            .decision
            .as_ref()
            .expect("pipeline invariant: the request chain settles every ctx")
        {
            AdmissionDecision::Admit { score } => (*score, None),
            AdmissionDecision::Challenge(issued) => (issued.score, Some(issued.difficulty)),
        };
        RequestObservation {
            ip: self.client_ip,
            score,
            difficulty,
        }
    }
}

/// One in-flight solution submission, as it moves down the solution
/// chain.
#[derive(Debug)]
pub struct SolutionCtx<'a> {
    /// The submitted solution.
    pub solution: &'a Solution,
    /// The address it was submitted from.
    pub claimed_ip: IpAddr,
    /// The verifier's outcome (filled by the verify stage).
    pub outcome: Option<Result<VerifiedToken, VerifyError>>,
    /// Request-scoped trace ID; 0 (the default) means unsampled.
    pub trace_id: u64,
}

impl<'a> SolutionCtx<'a> {
    /// A fresh, unsampled context at the head of the chain.
    pub fn new(solution: &'a Solution, claimed_ip: IpAddr) -> Self {
        SolutionCtx {
            solution,
            claimed_ip,
            outcome: None,
            trace_id: 0,
        }
    }

    /// The verifier's outcome.
    fn verified(&self) -> Result<&VerifiedToken, &VerifyError> {
        self.outcome
            .as_ref()
            .expect("pipeline invariant: the verify stage settles every solution")
            .as_ref()
    }

    /// The verifier's outcome, as the telemetry stage reports it.
    fn observation(&self) -> SolutionObservation<'_> {
        SolutionObservation {
            ip: self.claimed_ip,
            outcome: self.verified().map(|token| token.difficulty),
        }
    }
}

/// How a context presents itself to the tracer after each stage: who it
/// belongs to, what difficulty is attached so far, and the verdict as
/// known at this point in the chain.
pub(crate) trait Traceable {
    fn trace_id(&self) -> u64;
    fn set_trace_id(&mut self, trace_id: u64);
    fn trace_client_ip(&self) -> IpAddr;
    fn trace_difficulty_bits(&self) -> i16;
    fn trace_verdict(&self) -> &'static str;
}

impl Traceable for RequestCtx<'_> {
    fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn set_trace_id(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    fn trace_client_ip(&self) -> IpAddr {
        self.client_ip
    }

    fn trace_difficulty_bits(&self) -> i16 {
        match (&self.decision, self.difficulty) {
            (Some(AdmissionDecision::Challenge(issued)), _) => issued.difficulty.bits() as i16,
            (_, Some(difficulty)) => difficulty.bits() as i16,
            _ => -1,
        }
    }

    fn trace_verdict(&self) -> &'static str {
        match &self.decision {
            None => "pending",
            Some(AdmissionDecision::Admit { .. }) => "bypass",
            Some(AdmissionDecision::Challenge(_)) => "challenge",
        }
    }
}

impl Traceable for SolutionCtx<'_> {
    fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn set_trace_id(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    fn trace_client_ip(&self) -> IpAddr {
        self.claimed_ip
    }

    fn trace_difficulty_bits(&self) -> i16 {
        self.solution.challenge.difficulty().bits() as i16
    }

    fn trace_verdict(&self) -> &'static str {
        match &self.outcome {
            None => "pending",
            Some(Ok(_)) => "accept",
            Some(Err(err)) => reason_label(err),
        }
    }
}

/// One stage of an admission chain. Stages are stateless (per-request
/// state lives in the context) and process the whole batch, so they can
/// hoist per-batch work out of the item loop. A stage returns how many
/// contexts it actually worked on — settled contexts a stage skips
/// (bypassed requests at the issue stage, rejected solutions at the
/// charge stage) are excluded, so the recorded `total_ns / items` stays
/// an honest amortized per-item cost. The `u64` is the batch's one
/// clock reading, in ms.
type Stage<Ctx> = fn(&Framework, u64, &mut [Ctx]) -> usize;

/// Runs a chain over a batch: reads the clock once, draws each
/// context's trace ID from the attached tracer's sampler, then runs the
/// stages in order, recording each one's wall-clock latency under its
/// slot. One `Instant` reading per stage boundary (N+1 readings for N
/// stages), so a batch of one pays a fixed, small observability overhead
/// and a larger batch amortizes it along with everything else.
///
/// When a tracer is attached, each stage additionally emits one span per
/// *sampled* context (`trace_id != 0`). The per-stage cost with nothing
/// sampled — the steady state at 1-in-N sampling — is one predictable
/// branch per context; span recording itself is a `try_lock` ring append
/// that drops on contention rather than blocking the admission path.
fn run_chain<Ctx: Traceable>(fw: &Framework, chain: &[(usize, Stage<Ctx>)], batch: &mut [Ctx]) {
    let now_ms = fw.now_ms();
    let tracer = fw.tracer();
    if let Some(tracer) = tracer {
        for ctx in batch.iter_mut() {
            ctx.set_trace_id(tracer.begin_trace());
        }
    }
    let mut boundary = Instant::now();
    for &(slot, stage) in chain {
        let items = stage(fw, now_ms, batch);
        let next = Instant::now();
        let nanos = (next - boundary).as_nanos() as u64;
        fw.metrics().record_stage(slot, items as u64, nanos);
        if let Some(tracer) = tracer {
            for ctx in batch.iter() {
                let trace_id = ctx.trace_id();
                if trace_id != 0 {
                    tracer.record(SpanEvent {
                        trace_id,
                        client_ip: ctx.trace_client_ip(),
                        stage: STAGE_NAMES[slot],
                        slot: slot as u8,
                        batch_len: batch.len() as u32,
                        start_ns: tracer.ns_since_epoch(boundary),
                        duration_ns: nanos,
                        difficulty_bits: ctx.trace_difficulty_bits(),
                        verdict: ctx.trace_verdict(),
                    });
                }
            }
        }
        boundary = next;
    }
}

/// Admits `batch` through the request chain (Score → Bypass → Policy →
/// Issue → Telemetry). Every context leaves settled.
pub(crate) fn admit_requests(fw: &Framework, batch: &mut [RequestCtx<'_>]) {
    run_chain(
        fw,
        &[
            (SLOT_SCORE, score),
            (SLOT_BYPASS, bypass),
            (SLOT_POLICY, policy),
            (SLOT_ISSUE, issue),
            (SLOT_REQUEST_TELEMETRY, request_telemetry),
        ],
        batch,
    );
}

/// Admits `batch` through the solution chain (Verify → Charge →
/// Telemetry). Every context leaves with an outcome.
pub(crate) fn admit_solutions(fw: &Framework, batch: &mut [SolutionCtx<'_>]) {
    run_chain(
        fw,
        &[
            (SLOT_VERIFY, verify),
            (SLOT_CHARGE, charge),
            (SLOT_SOLUTION_TELEMETRY, solution_telemetry),
        ],
        batch,
    );
}

/// Figure-1 step 2: the AI model scores each request's features.
fn score(fw: &Framework, _now_ms: u64, batch: &mut [RequestCtx<'_>]) -> usize {
    for ctx in batch.iter_mut() {
        ctx.score = fw.model.score(ctx.features);
    }
    batch.len()
}

/// The bypass extension: scores strictly under the configured threshold
/// are admitted without a puzzle (settling the context).
fn bypass(fw: &Framework, _now_ms: u64, batch: &mut [RequestCtx<'_>]) -> usize {
    let Some(threshold) = fw.bypass_threshold else {
        return 0;
    };
    for ctx in batch.iter_mut() {
        if ctx.score.value() < threshold {
            ctx.decision = Some(AdmissionDecision::Admit { score: ctx.score });
        }
    }
    batch.len()
}

/// Figure-1 step 3: the policy maps scores to difficulties. The policy
/// read-lock is taken once and the policy context (load, attack flag,
/// clock) built once **per batch**.
fn policy(fw: &Framework, now_ms: u64, batch: &mut [RequestCtx<'_>]) -> usize {
    if batch.iter().all(|ctx| ctx.decision.is_some()) {
        return 0;
    }
    let policy_ctx = PolicyContext {
        server_load: fw.load(),
        // Acquire: pairs with the Release in set_under_attack()
        under_attack: fw.under_attack.load(Ordering::Acquire),
        now_ms,
    };
    // lint:allow(admission-lock) one read of the read-mostly global policy per batch
    let policy = fw.policy.read();
    let mut evaluated = 0;
    for ctx in batch.iter_mut().filter(|ctx| ctx.decision.is_none()) {
        ctx.difficulty = Some(policy.difficulty_for(ctx.score, &policy_ctx));
        evaluated += 1;
    }
    evaluated
}

/// Figure-1 step 4: the issuer mints authenticated challenges. The
/// framework's [`BackendRouter`](aipow_policy::BackendRouter) picks each
/// client's puzzle backend from its score (suspicious clients can be
/// routed to the memory-hard puzzle), then
/// [`aipow_pow::Issuer::issue_backend_at`] mints each challenge; a seed
/// draw is one atomic increment, so a batch has no seed cost to share.
fn issue(fw: &Framework, now_ms: u64, batch: &mut [RequestCtx<'_>]) -> usize {
    // One router context per batch, mirroring the policy stage's
    // one-lock-one-context discipline.
    let route_ctx = PolicyContext {
        server_load: fw.load(),
        // Acquire: pairs with the Release in set_under_attack()
        under_attack: fw.under_attack.load(Ordering::Acquire),
        now_ms,
    };
    let mut issued = 0;
    for ctx in batch.iter_mut().filter(|ctx| ctx.decision.is_none()) {
        let difficulty = ctx
            .difficulty
            .expect("stage-order invariant: the policy stage ran first");
        let backend = fw.router.route(ctx.score, &route_ctx);
        let challenge = fw
            .issuer
            .issue_backend_at(ctx.client_ip, difficulty, backend, now_ms);
        ctx.decision = Some(AdmissionDecision::Challenge(IssuedChallenge {
            challenge,
            score: ctx.score,
            difficulty,
        }));
        issued += 1;
    }
    issued
}

/// The one observation point of the request chain, at every batch
/// size: one add per metrics counter, every audit event appended with
/// one shard-lock acquisition per shard, and — only when a sink is
/// attached, the one case that builds a buffer — one
/// [`BehaviorSink::on_request_batch`][crate::BehaviorSink::on_request_batch]
/// call.
fn request_telemetry(fw: &Framework, now_ms: u64, batch: &mut [RequestCtx<'_>]) -> usize {
    let issued = batch.iter().filter_map(|ctx| ctx.observation().difficulty);
    fw.metrics()
        .record_issued_difficulties(issued.clone().map(|difficulty| difficulty.bits()));
    let bypassed = batch.len() - issued.count();
    if bypassed > 0 {
        fw.metrics().bypassed.add(bypassed as u64);
    }
    fw.audit().record_batch(batch.len(), |i| {
        let obs = batch[i].observation();
        let kind = match obs.difficulty {
            None => AuditKind::Bypassed { score: obs.score },
            Some(difficulty) => AuditKind::ChallengeIssued {
                score: obs.score,
                difficulty,
            },
        };
        AuditEvent {
            at_ms: now_ms,
            client_ip: obs.ip,
            kind,
        }
    });
    if let Some(sink) = fw.behavior_sink() {
        let observations: Vec<_> = batch.iter().map(RequestCtx::observation).collect();
        sink.on_request_batch(now_ms, &observations);
    }
    batch.len()
}

/// Figure-1 step 6: the verifier checks each solution. The per-batch
/// fixed costs (clock reading, skew window) are hoisted through
/// [`aipow_pow::Verifier::prepare_at`]; the HMAC key schedule is hoisted
/// all the way to verifier construction; and for two or more
/// submissions at a lane width of 4 or more the hash-bound checks run
/// through the multi-buffer SHA-256 kernel
/// ([`aipow_pow::verifier::PreparedVerify::verify_many`]). A single
/// submission, or a width below 4, hashes on the scalar kernel.
fn verify(fw: &Framework, now_ms: u64, batch: &mut [SolutionCtx<'_>]) -> usize {
    let prepared = fw.verifier().prepare_at(now_ms);
    let submissions: Vec<_> = batch
        .iter()
        .map(|ctx| (ctx.solution, ctx.claimed_ip))
        .collect();
    for (ctx, outcome) in batch.iter_mut().zip(prepared.verify_many(&submissions)) {
        ctx.outcome = Some(outcome);
    }
    // Keep the saturation alarm current once per batch; the guard's
    // counter is a plain atomic, so this is two relaxed atomic ops,
    // not a shard sweep.
    fw.metrics()
        .replay_evicted_live
        .set(fw.verifier().replay_guard().live_evictions() as i64);
    batch.len()
}

/// Figure-1 step 7's accounting: accepted solutions charge the cost
/// ledger. A batch groups charges by shard
/// ([`crate::CostLedger::charge_batch`]), one lock acquisition per shard.
fn charge(fw: &Framework, _now_ms: u64, batch: &mut [SolutionCtx<'_>]) -> usize {
    let mut accepted = batch.iter().filter_map(|ctx| {
        ctx.verified()
            .ok()
            .map(|token| (ctx.claimed_ip, token.difficulty.expected_attempts()))
    });
    let Some(first) = accepted.next() else {
        return 0;
    };
    match accepted.next() {
        // A single acceptance: no charge buffer.
        None => {
            fw.ledger().charge(first.0, first.1);
            1
        }
        Some(second) => {
            let mut charges = Vec::with_capacity(batch.len());
            charges.push(first);
            charges.push(second);
            charges.extend(accepted);
            let charged = charges.len();
            fw.ledger().charge_batch(charges);
            charged
        }
    }
}

/// The one observation point of the solution chain: metrics, audit, and
/// sink delivery for every outcome, at every batch size, like the
/// request telemetry.
fn solution_telemetry(fw: &Framework, now_ms: u64, batch: &mut [SolutionCtx<'_>]) -> usize {
    let mut accepted = 0u64;
    for ctx in batch.iter() {
        match ctx.verified() {
            Ok(_) => accepted += 1,
            Err(err) => fw.metrics().record_rejection(reason_label(err)),
        }
    }
    if accepted > 0 {
        fw.metrics().solutions_accepted.add(accepted);
    }
    fw.audit().record_batch(batch.len(), |i| {
        let obs = batch[i].observation();
        let kind = match obs.outcome {
            Ok(difficulty) => AuditKind::SolutionAccepted { difficulty },
            Err(err) => AuditKind::SolutionRejected {
                reason: err.to_string(),
            },
        };
        AuditEvent {
            at_ms: now_ms,
            client_ip: obs.ip,
            kind,
        }
    });
    if let Some(sink) = fw.behavior_sink() {
        let observations: Vec<_> = batch.iter().map(SolutionCtx::observation).collect();
        sink.on_solution_batch(now_ms, &observations);
    }
    batch.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkBuilder;
    use aipow_policy::LinearPolicy;
    use aipow_reputation::model::FixedScoreModel;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    #[test]
    fn every_request_stage_records_latency() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .build()
            .unwrap();
        let _ = fw.handle_request(ip(1), &FeatureVector::zeros());
        let timings = fw.metrics_snapshot().stage_timings;
        let names: Vec<&str> = timings.iter().map(|t| t.stage.as_str()).collect();
        assert_eq!(
            names,
            ["score", "bypass", "policy", "issue", "request_telemetry"]
        );
        for t in &timings {
            assert_eq!(t.batches, 1, "{}", t.stage);
            // No bypass threshold is configured, so the bypass stage
            // examined nothing; every other stage processed the request.
            let expected_items = if t.stage == "bypass" { 0 } else { 1 };
            assert_eq!(t.items, expected_items, "{}", t.stage);
        }
    }

    /// Scores each request by its feature lane 0.
    struct LaneModel;
    impl aipow_reputation::ReputationModel for LaneModel {
        fn score(&self, features: &FeatureVector) -> ReputationScore {
            ReputationScore::new(features.get(0)).unwrap()
        }
        fn name(&self) -> &'static str {
            "lane0"
        }
    }

    #[test]
    fn stage_items_exclude_contexts_the_stage_skipped() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(LaneModel)
            .policy(LinearPolicy::policy1())
            .config(crate::FrameworkConfig {
                bypass_threshold: Some(2.0),
                ..Default::default()
            })
            .build()
            .unwrap();
        let low = FeatureVector::zeros().with(0, 1.0); // bypassed
        let high = FeatureVector::zeros().with(0, 5.0); // challenged
        let requests: Vec<(IpAddr, &FeatureVector)> =
            vec![(ip(1), &low), (ip(2), &low), (ip(3), &low), (ip(4), &high)];
        let decisions = fw.handle_request_batch(&requests);
        // Bypassed requests draw no seed: the one challenge carries the
        // first seed of the framework key's stream.
        let AdmissionDecision::Challenge(issued) = &decisions[3] else {
            panic!("the high-score request is challenged");
        };
        let first = aipow_pow::Issuer::new(&[9u8; 32]).issue(ip(4), Difficulty::ZERO);
        assert_eq!(issued.challenge.seed(), first.seed());
        let timings = fw.metrics_snapshot().stage_timings;
        let items = |name: &str| timings.iter().find(|t| t.stage == name).unwrap().items;
        // Score and bypass examine all four; policy and issue only the
        // one context the bypass did not settle; telemetry observes all.
        assert_eq!(items("score"), 4);
        assert_eq!(items("bypass"), 4);
        assert_eq!(items("policy"), 1);
        assert_eq!(items("issue"), 1);
        assert_eq!(items("request_telemetry"), 4);
    }

    /// One batch routes each request on its own and mints, byte for
    /// byte, what the sequential path mints on a twin framework: the
    /// per-request backends, and the seeds in request order.
    #[test]
    fn a_mixed_backend_batch_mints_the_sequential_challenges() {
        use aipow_pow::BackendId;
        let build = || {
            let (builder, _clock) = FrameworkBuilder::new()
                .master_key([9u8; 32])
                .model(LaneModel)
                .policy(LinearPolicy::policy1())
                .config(crate::FrameworkConfig {
                    memory_hard_above: Some(3.0),
                    memory_hard_arena_mib: Some(1),
                    ..Default::default()
                })
                .manual_clock(1_000);
            builder.build().unwrap()
        };
        let challenges = |decisions: Vec<AdmissionDecision>| -> Vec<aipow_pow::Challenge> {
            decisions
                .into_iter()
                .map(|decision| match decision {
                    AdmissionDecision::Challenge(issued) => issued.challenge,
                    AdmissionDecision::Admit { .. } => panic!("no bypass is configured"),
                })
                .collect()
        };
        let low = FeatureVector::zeros().with(0, 1.0);
        let high = FeatureVector::zeros().with(0, 5.0);
        let requests: Vec<(IpAddr, &FeatureVector)> =
            vec![(ip(1), &low), (ip(2), &high), (ip(3), &low), (ip(4), &high)];
        let batched = challenges(build().handle_request_batch(&requests));
        let twin = build();
        let sequential = challenges(
            requests
                .iter()
                .map(|&(client, features)| twin.handle_request(client, features))
                .collect(),
        );
        let backends: Vec<_> = batched.iter().map(|c| c.backend()).collect();
        assert_eq!(
            backends,
            [
                BackendId::SHA256,
                BackendId::MEMORY_HARD,
                BackendId::SHA256,
                BackendId::MEMORY_HARD
            ]
        );
        assert_eq!(batched, sequential);
    }

    #[test]
    fn sampled_requests_emit_one_span_per_stage_in_order() {
        use aipow_trace::{TraceConfig, Tracer};
        use std::sync::Arc;

        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .tracer(Arc::clone(&tracer))
            .build()
            .unwrap();
        let _ = fw.handle_request(ip(1), &FeatureVector::zeros());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5, "one span per request stage");
        let slots: Vec<u8> = spans.iter().map(|s| s.slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        let ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
        assert!(ids.iter().all(|&id| id == ids[0] && id != 0));
        assert!(spans.iter().all(|s| s.client_ip == ip(1)));
        // Early stages saw no verdict; the chain's tail settled it.
        assert_eq!(spans[0].verdict, "pending");
        assert_eq!(spans[4].verdict, "challenge");
        assert!(spans[4].difficulty_bits >= 0);
    }

    #[test]
    fn untraced_framework_emits_nothing_and_sampling_skips() {
        use aipow_trace::{TraceConfig, Tracer};
        use std::sync::Arc;

        // No tracer attached: nothing to emit, trace IDs stay 0.
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .build()
            .unwrap();
        let _ = fw.handle_request(ip(1), &FeatureVector::zeros());

        // Tracer attached but sampling 1-in-1000: a single request is
        // sampled (the sampler's first tick), the following ones are not.
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1_000,
            ..TraceConfig::default()
        }));
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .tracer(Arc::clone(&tracer))
            .build()
            .unwrap();
        for i in 0..10 {
            let _ = fw.handle_request(ip(i), &FeatureVector::zeros());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5, "only the first request was sampled");
        assert!(spans.iter().all(|s| s.client_ip == ip(0)));
    }

    #[test]
    fn solution_spans_carry_the_rejection_verdict() {
        use aipow_pow::NonceWidth;
        use aipow_trace::{TraceConfig, Tracer};
        use std::sync::Arc;

        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .tracer(Arc::clone(&tracer))
            .build()
            .unwrap();
        let decision = fw.handle_request(ip(1), &FeatureVector::zeros());
        let AdmissionDecision::Challenge(issued) = decision else {
            panic!("expected a challenge");
        };
        let bogus = Solution {
            backend: issued.challenge.backend(),
            challenge: issued.challenge,
            nonce: u64::MAX, // almost surely not a qualifying nonce
            width: NonceWidth::U64,
        };
        let outcome = fw.handle_solution(&bogus, ip(1));
        assert!(outcome.is_err());
        let spans = tracer.spans();
        let solution_spans: Vec<_> = spans.iter().filter(|s| s.slot >= 5).collect();
        assert_eq!(solution_spans.len(), 3, "verify, charge, telemetry");
        let tail = solution_spans.last().unwrap();
        assert_ne!(tail.verdict, "pending");
        assert_ne!(tail.verdict, "accept");
        assert!(tail.difficulty_bits >= 0, "challenge difficulty attached");
    }

    #[test]
    fn batched_stages_record_group_sizes() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .build()
            .unwrap();
        let features = FeatureVector::zeros();
        let requests: Vec<(IpAddr, &FeatureVector)> = (0..8).map(|i| (ip(i), &features)).collect();
        let decisions = fw.handle_request_batch(&requests);
        assert_eq!(decisions.len(), 8);
        let timings = fw.metrics_snapshot().stage_timings;
        let issue = timings.iter().find(|t| t.stage == "issue").unwrap();
        assert_eq!(issue.batches, 1);
        assert_eq!(issue.items, 8);
    }
}
