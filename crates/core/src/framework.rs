//! The admission pipeline: Figure 1 as a value.

use crate::audit::AuditLog;
use crate::config::{ConfigError, FrameworkConfig};
use crate::cost::CostLedger;
use crate::metrics::FrameworkMetrics;
use crate::pipeline::{self, RequestCtx, SolutionCtx};
use crate::sync::{AtomicBool, AtomicU64, OnceLock, Ordering, RwLock};
use crate::tap::BehaviorSink;
use aipow_policy::{registry, BackendRouter, Policy, Sha256Router, ThresholdRouter};
use aipow_pow::replay::ReplayGuard;
use aipow_pow::{
    BackendId, Challenge, Difficulty, Issuer, ManualClock, Solution, SystemClock, TimeSource,
    VerifiedToken, Verifier, VerifyError,
};
use aipow_reputation::{FeatureVector, ReputationModel, ReputationScore};
use aipow_trace::{TraceConfig, Tracer, TriggerStats};
use core::fmt;
use std::net::IpAddr;
use std::sync::Arc;

/// A challenge issued by the pipeline, with its provenance.
#[derive(Debug, Clone)]
pub struct IssuedChallenge {
    /// The authenticated puzzle for the client.
    pub challenge: Challenge,
    /// The AI model's score that drove the decision.
    pub score: ReputationScore,
    /// The policy's difficulty decision.
    pub difficulty: Difficulty,
}

/// Outcome of [`Framework::handle_request`].
#[derive(Debug, Clone)]
pub enum AdmissionDecision {
    /// The client must solve a puzzle before being served.
    Challenge(IssuedChallenge),
    /// The request was admitted without a puzzle (score under the
    /// configured bypass threshold).
    Admit {
        /// The AI model's score for the client.
        score: ReputationScore,
    },
}

impl AdmissionDecision {
    /// The issued challenge, if the decision was to challenge.
    pub fn challenge(self) -> Option<IssuedChallenge> {
        match self {
            AdmissionDecision::Challenge(issued) => Some(issued),
            AdmissionDecision::Admit { .. } => None,
        }
    }

    /// Whether the request was admitted without work.
    pub fn is_bypass(&self) -> bool {
        matches!(self, AdmissionDecision::Admit { .. })
    }
}

/// Error from [`FrameworkBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The [`FrameworkConfig`] failed [`FrameworkConfig::validate`].
    Config(ConfigError),
    /// No reputation model was provided.
    MissingModel,
    /// No master key was provided.
    MissingMasterKey,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Config(e) => write!(f, "framework config: {e}"),
            BuildError::MissingModel => write!(f, "framework requires a reputation model"),
            BuildError::MissingMasterKey => write!(f, "framework requires a master key"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Framework`]; see the crate-level example. Every knob that
/// is plain data lives in its [`FrameworkConfig`]; the builder adds only
/// what data cannot express: the model, an explicit policy, router or
/// tracer, the master key, the clock and the behavioral tap.
pub struct FrameworkBuilder {
    config: FrameworkConfig,
    model: Option<Arc<dyn ReputationModel>>,
    policy: Option<Box<dyn Policy>>,
    master_key: Option<[u8; 32]>,
    clock: Arc<dyn TimeSource>,
    router: Option<Arc<dyn BackendRouter>>,
    sink: Option<Arc<dyn BehaviorSink>>,
    tracer: Option<Arc<Tracer>>,
}

impl Default for FrameworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameworkBuilder {
    /// Starts a builder from [`FrameworkConfig::default`] and the system
    /// clock.
    pub fn new() -> Self {
        FrameworkBuilder {
            config: FrameworkConfig::default(),
            model: None,
            policy: None,
            master_key: None,
            clock: Arc::new(SystemClock),
            router: None,
            sink: None,
            tracer: None,
        }
    }

    /// Sets every data knob at once; [`build`](Self::build) checks them.
    pub fn config(mut self, config: FrameworkConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the reputation model (required).
    pub fn model<M: ReputationModel + 'static>(mut self, model: M) -> Self {
        self.model = Some(Arc::new(model));
        self
    }

    /// Sets the reputation model from a shared handle.
    pub fn model_arc(mut self, model: Arc<dyn ReputationModel>) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the policy, overriding the config's
    /// [`policy_spec`](FrameworkConfig::policy_spec).
    pub fn policy<P: Policy + 'static>(mut self, policy: P) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Sets the policy from a boxed trait object (same precedence as
    /// [`policy`](Self::policy)).
    pub fn policy_boxed(mut self, policy: Box<dyn Policy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Sets the 32-byte master key from which the challenge MAC key is
    /// derived (required; use [`random_master_key`] for ephemeral
    /// deployments).
    pub fn master_key(mut self, key: [u8; 32]) -> Self {
        self.master_key = Some(key);
        self
    }

    /// Uses an explicit time source (tests, simulation).
    pub fn clock(mut self, clock: Arc<dyn TimeSource>) -> Self {
        self.clock = clock;
        self
    }

    /// Convenience: a [`ManualClock`] starting at `ms`, returned for
    /// driving the test.
    pub fn manual_clock(mut self, ms: u64) -> (Self, ManualClock) {
        let clock = ManualClock::at(ms);
        self.clock = Arc::new(clock.clone());
        (self, clock)
    }

    /// Routes each client to a puzzle backend by reputation score (see
    /// [`aipow_policy::BackendRouter`]), overriding the config's
    /// [`memory_hard_above`](FrameworkConfig::memory_hard_above). Without
    /// either, every client gets the SHA-256 puzzle ([`Sha256Router`]).
    pub fn backend_router(mut self, router: Arc<dyn BackendRouter>) -> Self {
        self.router = Some(router);
        self
    }

    /// Attaches a behavioral tap that observes every admission decision
    /// and verification outcome (see [`crate::tap::BehaviorSink`]). A sink
    /// can alternatively be attached once after build with
    /// [`Framework::set_behavior_sink`].
    pub fn behavior_sink(mut self, sink: Arc<dyn BehaviorSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a request tracer (see [`aipow_trace::Tracer`]), overriding
    /// the one the config's
    /// [`trace_sample_rate`](FrameworkConfig::trace_sample_rate) would
    /// make. Can alternatively be attached once after build with
    /// [`Framework::set_tracer`].
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the framework. An explicit policy, router or tracer wins
    /// over what the config would make of its policy spec, routing
    /// threshold and sampling rate.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Config`] with what
    /// [`FrameworkConfig::validate`] rejects, else a [`BuildError`] naming
    /// the missing model or master key.
    pub fn build(self) -> Result<Framework, BuildError> {
        let cfg = self.config;
        cfg.validate().map_err(BuildError::Config)?;
        let model = self.model.ok_or(BuildError::MissingModel)?;
        let master_key = self.master_key.ok_or(BuildError::MissingMasterKey)?;
        let policy = match self.policy {
            Some(policy) => policy,
            None => registry::from_spec(&cfg.policy_spec, cfg.policy_seed)
                .map_err(|e| BuildError::Config(e.into()))?,
        };
        let router = self.router.unwrap_or_else(|| match cfg.memory_hard_above {
            Some(threshold) => Arc::new(ThresholdRouter::new(threshold)),
            None => Arc::new(Sha256Router),
        });

        let replay = match cfg.shard_count {
            Some(shards) => ReplayGuard::with_shards(cfg.replay_capacity, shards),
            None => ReplayGuard::new(cfg.replay_capacity),
        };
        let audit = match cfg.shard_count {
            Some(shards) => AuditLog::with_shards(cfg.audit_capacity, shards),
            None => AuditLog::new(cfg.audit_capacity),
        };
        let ledger =
            CostLedger::with_layout(cfg.ledger_capacity, cfg.shard_count, cfg.eviction_max_scan);

        let mut issuer =
            Issuer::with_clock(&master_key, Arc::clone(&self.clock)).with_ttl_ms(cfg.ttl_ms);
        if let Some(mib) = cfg.memory_hard_arena_mib {
            issuer = issuer.with_backend_param(BackendId::MEMORY_HARD, mib);
        }
        let mut verifier = Verifier::with_clock(&master_key, Arc::clone(&self.clock))
            .with_replay_guard(replay)
            .with_difficulty_cap(Difficulty::saturating(cfg.difficulty_cap_bits.into()))
            .with_max_skew_ms(cfg.max_skew_ms);
        if let Some(lanes) = cfg.lanes {
            verifier = verifier.with_verify_lanes(lanes);
        }

        let metrics = FrameworkMetrics::new();
        metrics
            .replay_shards
            .set(verifier.replay_guard().shard_count() as i64);
        metrics.audit_shards.set(audit.shard_count() as i64);
        metrics.ledger_shards.set(ledger.shard_count() as i64);

        let sink = OnceLock::new();
        if let Some(s) = self.sink {
            let _ = sink.set(s);
        }
        let tracer = OnceLock::new();
        if let Some(t) = self.tracer {
            let _ = tracer.set(t);
        } else if cfg.trace_sample_rate > 0 {
            let _ = tracer.set(Arc::new(Tracer::new(TraceConfig {
                sample_every: cfg.trace_sample_rate,
                ring_capacity: cfg.flight_recorder_capacity,
                ..TraceConfig::default()
            })));
        }

        Ok(Framework {
            model,
            policy: RwLock::new(policy),
            router,
            issuer,
            verifier,
            metrics,
            audit,
            ledger,
            clock: self.clock,
            load_millis: AtomicU64::new(0),
            under_attack: AtomicBool::new(false),
            bypass_threshold: cfg.bypass_threshold,
            max_batch: cfg.max_batch,
            sink,
            tracer,
        })
    }
}

impl fmt::Debug for FrameworkBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameworkBuilder")
            .field("config", &self.config)
            .field("has_model", &self.model.is_some())
            .field("has_policy", &self.policy.is_some())
            .finish_non_exhaustive()
    }
}

/// Generates a random 32-byte master key (OS entropy).
pub fn random_master_key() -> [u8; 32] {
    rand::random()
}

/// The assembled AI-assisted PoW framework.
///
/// One instance serves all connections; every method takes `&self`.
pub struct Framework {
    pub(crate) model: Arc<dyn ReputationModel>,
    pub(crate) policy: RwLock<Box<dyn Policy>>,
    /// Per-score puzzle-backend routing; consulted by the issue stage
    /// alongside the difficulty policy.
    pub(crate) router: Arc<dyn BackendRouter>,
    pub(crate) issuer: Issuer,
    verifier: Verifier,
    metrics: FrameworkMetrics,
    audit: AuditLog,
    ledger: CostLedger,
    clock: Arc<dyn TimeSource>,
    /// Server load in thousandths, for lock-free updates.
    load_millis: AtomicU64,
    pub(crate) under_attack: AtomicBool,
    pub(crate) bypass_threshold: Option<f64>,
    /// Ceiling on the group size one batch pipeline pass processes.
    max_batch: usize,
    /// Behavioral tap. A `OnceLock` keeps the hot-path cost at one atomic
    /// load when unset, while still allowing post-build attachment (the
    /// TCP server wires the online recorder to an already-built
    /// framework).
    sink: OnceLock<Arc<dyn BehaviorSink>>,
    /// Request tracer, same write-once discipline as the tap: one atomic
    /// load on the hot path when unset.
    tracer: OnceLock<Arc<Tracer>>,
}

impl Framework {
    /// Steps 2–4 of Figure 1: score the request's features, map the score
    /// to a difficulty, and issue an authenticated challenge. Runs the
    /// request stage chain (Score → Bypass → Policy → Issue → Telemetry;
    /// see [`crate::pipeline`]) over a batch of one.
    pub fn handle_request(&self, client_ip: IpAddr, features: &FeatureVector) -> AdmissionDecision {
        let mut batch = [RequestCtx::new(client_ip, features)];
        pipeline::admit_requests(self, &mut batch);
        let [ctx] = batch;
        ctx.decision
            .expect("pipeline invariant: the request chain settles every ctx")
    }

    /// The batched form of [`handle_request`](Self::handle_request):
    /// admits a group of requests through one pipeline pass per
    /// [`max_batch`](Self::max_batch)-sized chunk, amortizing the
    /// per-request fixed costs — one clock reading, one policy
    /// read-lock, one audit shard-lock acquisition per shard, one
    /// batched sink delivery — across the group.
    /// Decisions are returned in request order and are the values the
    /// sequential path would produce *given the same inputs*: every
    /// request in a chunk observes the chunk's one clock reading and
    /// policy view, and the feature vectors are whatever the caller
    /// sampled — a caller serving features from live state (the online
    /// loop) that samples once per batch accepts that the batch is
    /// scored on pre-batch reputation (the batching invariants,
    /// documented in [`crate::pipeline`]).
    pub fn handle_request_batch(
        &self,
        requests: &[(IpAddr, &FeatureVector)],
    ) -> Vec<AdmissionDecision> {
        let mut decisions = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(self.max_batch) {
            let mut batch: Vec<RequestCtx<'_>> = chunk
                .iter()
                .map(|&(ip, features)| RequestCtx::new(ip, features))
                .collect();
            pipeline::admit_requests(self, &mut batch);
            decisions.extend(batch.into_iter().map(|ctx| {
                ctx.decision
                    .expect("pipeline invariant: the request chain settles every ctx")
            }));
        }
        decisions
    }

    /// Steps 5–6 of Figure 1: verify a returned solution. On success the
    /// caller releases the requested resource (step 7). Runs the
    /// solution stage chain (Verify → Charge → Telemetry) over a batch
    /// of one.
    ///
    /// # Errors
    ///
    /// Returns the verifier's [`VerifyError`]; the rejection is also
    /// recorded in metrics and the audit log.
    pub fn handle_solution(
        &self,
        solution: &Solution,
        claimed_ip: IpAddr,
    ) -> Result<VerifiedToken, VerifyError> {
        let mut batch = [SolutionCtx::new(solution, claimed_ip)];
        pipeline::admit_solutions(self, &mut batch);
        let [ctx] = batch;
        ctx.outcome
            .expect("pipeline invariant: the verify stage settles every solution")
    }

    /// The batched form of [`handle_solution`](Self::handle_solution):
    /// verifies a group of submissions through one pipeline pass per
    /// [`max_batch`](Self::max_batch)-sized chunk — one clock reading
    /// and skew window for the whole chunk, ledger charges grouped by
    /// shard, audit appends grouped by shard, one batched sink delivery.
    /// Outcomes are returned in submission order; replay marking happens
    /// in that order too, so duplicate seeds inside a batch behave
    /// exactly as sequential submissions.
    pub fn handle_solution_batch(
        &self,
        submissions: &[(&Solution, IpAddr)],
    ) -> Vec<Result<VerifiedToken, VerifyError>> {
        let mut outcomes = Vec::with_capacity(submissions.len());
        for chunk in submissions.chunks(self.max_batch) {
            let mut batch: Vec<SolutionCtx<'_>> = chunk
                .iter()
                .map(|&(solution, ip)| SolutionCtx::new(solution, ip))
                .collect();
            pipeline::admit_solutions(self, &mut batch);
            outcomes.extend(batch.into_iter().map(|ctx| {
                ctx.outcome
                    .expect("pipeline invariant: the verify stage settles every solution")
            }));
        }
        outcomes
    }

    /// The ceiling on the group size one batch pipeline pass processes
    /// (see [`FrameworkConfig::max_batch`]).
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Publishes the current server load (`[0, 1]`) to adaptive policies.
    pub fn set_load(&self, load: f64) {
        let clamped = if load.is_nan() {
            0.0
        } else {
            load.clamp(0.0, 1.0)
        };
        self.load_millis
            // Release: publishes the gauge to concurrent admission reads
            .store((clamped * 1_000.0) as u64, Ordering::Release);
    }

    /// The last published load.
    pub fn load(&self) -> f64 {
        // Acquire: pairs with the Release in set_load()
        self.load_millis.load(Ordering::Acquire) as f64 / 1_000.0
    }

    /// Declares (or clears) an active attack for adaptive policies. The
    /// false→true flip also trips the attached tracer's flight recorder
    /// (if any): the ring contents at that moment are the forensic record
    /// of how the attack looked as it was recognized.
    pub fn set_under_attack(&self, attacked: bool) {
        // Release: publishes the flag to concurrent pipeline snapshots;
        // the swap also makes the flip edge-triggered for the recorder.
        let was = self.under_attack.swap(attacked, Ordering::AcqRel);
        if attacked && !was {
            if let Some(tracer) = self.tracer() {
                tracer.trip_flight_recorder("under_attack");
            }
        }
    }

    /// Replaces the policy at runtime (paper property 2: the inflicted
    /// work is tunable).
    pub fn swap_policy(&self, policy: Box<dyn Policy>) {
        // lint:allow(admission-lock) read-mostly global policy swap, not per-client state
        *self.policy.write() = policy;
    }

    /// Name of the active policy.
    pub fn policy_name(&self) -> String {
        // lint:allow(admission-lock) read-mostly global policy, not per-client state
        self.policy.read().name().to_string()
    }

    /// Name of the reputation model.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// Name of the active backend router.
    pub fn router_name(&self) -> &str {
        self.router.name()
    }

    /// The pipeline's operational metrics.
    pub fn metrics(&self) -> &FrameworkMetrics {
        &self.metrics
    }

    /// A metrics snapshot with the saturation gauges freshly synced.
    /// [`handle_solution`](Self::handle_solution) already syncs the
    /// replay live-eviction gauge after every verification; the replay
    /// guard's size (`replay_len`, `replay_heap_bytes`) is read here
    /// only, one shard lock at a time, so `metrics().snapshot()` carries
    /// whatever the last call to this method saw.
    /// A snapshot also feeds the tracer's anomaly triggers: the derived
    /// rejection rate and worst stage p99 are handed to
    /// [`Tracer::check_triggers`], so whoever polls telemetry is also the
    /// heartbeat that can trip the flight recorder.
    pub fn metrics_snapshot(&self) -> crate::MetricsSnapshot {
        let guard = self.verifier.replay_guard();
        self.metrics
            .replay_evicted_live
            .set(guard.live_evictions() as i64);
        self.metrics.replay_len.set(guard.len() as i64);
        self.metrics
            .replay_heap_bytes
            .set(guard.heap_bytes() as i64);
        let snap = self.metrics.snapshot_at(self.clock.now_ms());
        if let Some(tracer) = self.tracer() {
            tracer.check_triggers(&TriggerStats {
                rejections_per_s: snap.rejections_per_s,
                worst_stage_p99_ns: snap
                    .stage_timings
                    .iter()
                    .map(|t| t.p99_ns)
                    .max()
                    .unwrap_or(0),
            });
        }
        snap
    }

    /// The admission audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The per-client cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The underlying verifier (for replay-guard diagnostics).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// The framework's time source (shared with issuer and verifier), so
    /// companion components — feature sources, decay workers — observe the
    /// same clock.
    pub fn clock(&self) -> Arc<dyn TimeSource> {
        Arc::clone(&self.clock)
    }

    /// The framework clock's current instant, without cloning the clock
    /// handle — for per-request call sites (e.g. the server's
    /// rate-limit rejection path) where a refcount bump per request
    /// would put a shared atomic on the flood hot path.
    pub fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Attaches the behavioral tap after build. Returns `false` (leaving
    /// the existing sink in place) if one was already attached, either
    /// here or via [`FrameworkBuilder::behavior_sink`] — the tap is
    /// intentionally write-once so the hot path never takes a lock to
    /// read it.
    pub fn set_behavior_sink(&self, sink: Arc<dyn BehaviorSink>) -> bool {
        self.sink.set(sink).is_ok()
    }

    /// The attached behavioral tap, if any.
    pub fn behavior_sink(&self) -> Option<&Arc<dyn BehaviorSink>> {
        self.sink.get()
    }

    /// Attaches the request tracer after build. Same write-once
    /// discipline as the behavioral tap: returns `false` (keeping the
    /// existing tracer) if one was already attached, so the hot path
    /// reads it with a single atomic load and no lock.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) -> bool {
        self.tracer.set(tracer).is_ok()
    }

    /// The attached request tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.get()
    }
}

impl fmt::Debug for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Framework")
            .field("model", &self.model.name())
            // lint:allow(admission-lock) read-mostly global policy, Debug only
            .field("policy", &self.policy.read().name())
            .field("load", &self.load())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AuditKind;
    use aipow_policy::{ErrorRangePolicy, LinearPolicy};
    use aipow_pow::solver::{self, SolverOptions};
    use aipow_reputation::model::FixedScoreModel;
    use std::net::Ipv4Addr;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    fn framework_with_score(score: f64) -> Framework {
        FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(score).unwrap()))
            .policy(LinearPolicy::policy2())
            .build()
            .unwrap()
    }

    #[test]
    fn tracer_is_write_once_and_attaches_after_build() {
        use aipow_trace::{TraceConfig, Tracer};
        let fw = framework_with_score(3.0);
        assert!(fw.tracer().is_none());
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        assert!(fw.set_tracer(Arc::clone(&tracer)));
        assert!(!fw.set_tracer(Arc::clone(&tracer)), "second attach refused");
        fw.handle_request(ip(7), &FeatureVector::zeros());
        assert!(
            tracer.recorded() > 0,
            "a sampled request must emit pipeline spans"
        );
    }

    #[test]
    fn under_attack_flip_trips_flight_recorder_once() {
        use aipow_trace::{TraceConfig, Tracer};
        let fw = framework_with_score(3.0);
        let tracer = Arc::new(Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }));
        assert!(fw.set_tracer(Arc::clone(&tracer)));
        fw.handle_request(ip(8), &FeatureVector::zeros());
        fw.set_under_attack(false); // no-op: not a false→true edge
        assert!(!tracer.flight_tripped());
        fw.set_under_attack(true);
        let dump = tracer.flight_dump().expect("flip must freeze a dump");
        assert_eq!(dump.reason, "under_attack");
        assert!(dump.spans > 0, "dump should hold the pre-attack spans");
        fw.set_under_attack(true); // already attacked: edge-triggered, no re-trip
        assert!(tracer.flight_tripped());
    }

    #[test]
    fn snapshot_rejection_rate_feeds_triggers() {
        use aipow_trace::{TraceConfig, Tracer, TriggerConfig};
        let clock = ManualClock::at(5_000);
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .clock(Arc::new(clock.clone()) as Arc<dyn TimeSource>)
            .tracer(Arc::new(Tracer::new(TraceConfig {
                sample_every: 1,
                triggers: TriggerConfig {
                    max_rejections_per_s: 5.0,
                    max_stage_p99_ns: 0,
                },
                ..TraceConfig::default()
            })))
            .build()
            .unwrap();
        fw.metrics_snapshot(); // establish the rate window
        for _ in 0..20 {
            fw.metrics().rate_limited.inc();
        }
        clock.advance(1_000);
        let snap = fw.metrics_snapshot();
        assert!(
            snap.rejections_per_s >= 19.0,
            "rate was {}",
            snap.rejections_per_s
        );
        let tracer = fw.tracer().unwrap();
        assert!(tracer.flight_tripped(), "rate spike should trip recorder");
        assert_eq!(tracer.flight_dump().unwrap().reason, "rejection_rate");
    }

    #[test]
    fn full_pipeline_roundtrip() {
        let fw = framework_with_score(3.0);
        let issued = fw
            .handle_request(ip(1), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        assert_eq!(issued.difficulty.bits(), 8); // 3 + 5
        let report = solver::solve(&issued.challenge, ip(1), &SolverOptions::default()).unwrap();
        let token = fw.handle_solution(&report.solution, ip(1)).unwrap();
        assert_eq!(token.difficulty.bits(), 8);

        let snap = fw.metrics().snapshot();
        assert_eq!(snap.challenges_issued, 1);
        assert_eq!(snap.solutions_accepted, 1);
        assert_eq!(snap.solutions_rejected, 0);
    }

    #[test]
    fn cost_ledger_charges_expected_work() {
        let fw = framework_with_score(0.0); // policy2 → 5 bits → 32 hashes
        let issued = fw
            .handle_request(ip(2), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        let report = solver::solve(&issued.challenge, ip(2), &SolverOptions::default()).unwrap();
        fw.handle_solution(&report.solution, ip(2)).unwrap();
        assert_eq!(fw.ledger().total(ip(2)), 32.0);
    }

    #[test]
    fn worse_scores_pay_more() {
        // Paper property 1: cost increases with worsening score.
        let mut last_cost = 0.0;
        for score in [0.0, 5.0, 10.0] {
            let fw = framework_with_score(score);
            let issued = fw
                .handle_request(ip(3), &FeatureVector::zeros())
                .challenge()
                .unwrap();
            let report =
                solver::solve(&issued.challenge, ip(3), &SolverOptions::default()).unwrap();
            fw.handle_solution(&report.solution, ip(3)).unwrap();
            let cost = fw.ledger().total(ip(3));
            assert!(
                cost > last_cost,
                "score {score}: cost {cost} <= {last_cost}"
            );
            last_cost = cost;
        }
    }

    #[test]
    fn rejections_are_counted_and_audited() {
        let fw = framework_with_score(0.0);
        let issued = fw
            .handle_request(ip(4), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        let report = solver::solve(&issued.challenge, ip(4), &SolverOptions::default()).unwrap();
        // Submit from the wrong IP.
        let err = fw.handle_solution(&report.solution, ip(5)).unwrap_err();
        assert_eq!(err, VerifyError::ClientMismatch);
        let snap = fw.metrics().snapshot();
        assert_eq!(snap.solutions_rejected, 1);
        assert_eq!(snap.rejected_by_reason["client_mismatch"], 1);
        let audit = fw.audit().snapshot();
        assert!(matches!(audit[0].kind, AuditKind::SolutionRejected { .. }));
    }

    #[test]
    fn replay_rejected_through_framework() {
        let fw = framework_with_score(0.0);
        let issued = fw
            .handle_request(ip(6), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        let report = solver::solve(&issued.challenge, ip(6), &SolverOptions::default()).unwrap();
        fw.handle_solution(&report.solution, ip(6)).unwrap();
        assert_eq!(
            fw.handle_solution(&report.solution, ip(6)),
            Err(VerifyError::Replayed)
        );
    }

    #[test]
    fn bypass_admits_trusted_clients() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(1.0).unwrap()))
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                bypass_threshold: Some(2.0),
                ..Default::default()
            })
            .build()
            .unwrap();
        let decision = fw.handle_request(ip(7), &FeatureVector::zeros());
        assert!(decision.is_bypass());
        assert_eq!(fw.metrics().snapshot().bypassed, 1);
    }

    #[test]
    fn bypass_threshold_excludes_higher_scores() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(2.0).unwrap()))
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                bypass_threshold: Some(2.0),
                ..Default::default()
            })
            .build()
            .unwrap();
        let decision = fw.handle_request(ip(8), &FeatureVector::zeros());
        assert!(!decision.is_bypass());
    }

    #[test]
    fn policy_swap_takes_effect() {
        let fw = framework_with_score(0.0);
        assert_eq!(fw.policy_name(), "policy2");
        let d1 = fw
            .handle_request(ip(9), &FeatureVector::zeros())
            .challenge()
            .unwrap()
            .difficulty;
        assert_eq!(d1.bits(), 5);
        fw.swap_policy(Box::new(LinearPolicy::policy1()));
        assert_eq!(fw.policy_name(), "policy1");
        let d2 = fw
            .handle_request(ip(9), &FeatureVector::zeros())
            .challenge()
            .unwrap()
            .difficulty;
        assert_eq!(d2.bits(), 1);
    }

    #[test]
    fn adaptive_policy_reads_framework_load() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::MIN))
            .policy(aipow_policy::LoadAdaptivePolicy::new(
                LinearPolicy::policy1(),
                8,
                0,
            ))
            .build()
            .unwrap();
        let base = fw
            .handle_request(ip(10), &FeatureVector::zeros())
            .challenge()
            .unwrap()
            .difficulty;
        assert_eq!(base.bits(), 1);
        fw.set_load(1.0);
        let loaded = fw
            .handle_request(ip(10), &FeatureVector::zeros())
            .challenge()
            .unwrap()
            .difficulty;
        assert_eq!(loaded.bits(), 9);
        assert_eq!(fw.load(), 1.0);
    }

    #[test]
    fn error_range_policy_works_in_framework() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(5.0).unwrap()))
            .policy(ErrorRangePolicy::new(1.0, 3))
            .build()
            .unwrap();
        for _ in 0..50 {
            let issued = fw
                .handle_request(ip(11), &FeatureVector::zeros())
                .challenge()
                .unwrap();
            // d_i = 6, interval [5, 7].
            assert!((5..=7).contains(&issued.difficulty.bits()));
        }
    }

    #[test]
    fn build_errors() {
        assert_eq!(
            FrameworkBuilder::new().build().unwrap_err(),
            BuildError::MissingModel
        );
        assert_eq!(
            FrameworkBuilder::new()
                .model(FixedScoreModel::new(ReputationScore::MIN))
                .policy(LinearPolicy::policy1())
                .build()
                .unwrap_err(),
            BuildError::MissingMasterKey
        );
        // No explicit policy: the config's spec resolves; an explicit
        // policy wins over it.
        let with = |policy: Option<LinearPolicy>| {
            let mut builder = FrameworkBuilder::new()
                .config(FrameworkConfig {
                    policy_spec: "policy1".into(),
                    ..Default::default()
                })
                .model(FixedScoreModel::new(ReputationScore::MIN))
                .master_key([9u8; 32]);
            if let Some(policy) = policy {
                builder = builder.policy(policy);
            }
            builder.build().unwrap().policy_name()
        };
        assert_eq!(with(None), "policy1");
        assert_eq!(with(Some(LinearPolicy::policy2())), "policy2");
        assert!(matches!(
            FrameworkBuilder::new()
                .config(FrameworkConfig {
                    policy_spec: "not-a-policy".into(),
                    ..Default::default()
                })
                .build(),
            Err(BuildError::Config(ConfigError::Policy(_)))
        ));
    }

    /// Every value the config rejects is a typed build error, never a
    /// panic in a constructor or a silent accept: a hostile client scored
    /// 9 must not pass a bypass threshold of 42.
    #[test]
    fn builder_rejects_what_the_config_rejects() {
        let with = |edit: fn(&mut FrameworkConfig)| {
            let mut cfg = FrameworkConfig::default();
            edit(&mut cfg);
            cfg
        };
        let rows: [(&str, FrameworkConfig); 13] = [
            ("eviction_max_scan 0", with(|c| c.eviction_max_scan = 0)),
            ("replay_capacity 0", with(|c| c.replay_capacity = 0)),
            (
                "replay_capacity MAX",
                with(|c| c.replay_capacity = usize::MAX),
            ),
            ("audit_capacity 0", with(|c| c.audit_capacity = 0)),
            ("ledger_capacity 0", with(|c| c.ledger_capacity = 0)),
            ("arena 0 MiB", with(|c| c.memory_hard_arena_mib = Some(0))),
            (
                "arena 200 MiB",
                with(|c| c.memory_hard_arena_mib = Some(200)),
            ),
            ("shard_count 0", with(|c| c.shard_count = Some(0))),
            ("route NaN", with(|c| c.memory_hard_above = Some(f64::NAN))),
            ("bypass NaN", with(|c| c.bypass_threshold = Some(f64::NAN))),
            ("bypass 42", with(|c| c.bypass_threshold = Some(42.0))),
            ("max_batch 0", with(|c| c.max_batch = 0)),
            ("lanes 0", with(|c| c.lanes = Some(0))),
        ];
        for (name, cfg) in rows {
            let want = BuildError::Config(cfg.validate().expect_err(name));
            let got = FrameworkBuilder::new()
                .config(cfg)
                .model(FixedScoreModel::new(ReputationScore::new(9.0).unwrap()))
                .master_key([9u8; 32])
                .build()
                .expect_err(name);
            // Debug, not `==`: a NaN field never equals itself.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}");
        }
    }

    #[test]
    fn builder_defaults_are_the_config_defaults() {
        let d = FrameworkConfig::default();
        let fw = FrameworkBuilder::new()
            .model(FixedScoreModel::new(ReputationScore::MIN))
            .master_key([9u8; 32])
            .build()
            .unwrap();
        let verifier = fw.verifier();
        assert_eq!(fw.issuer.ttl_ms(), d.ttl_ms);
        assert_eq!(verifier.replay_guard().capacity(), d.replay_capacity);
        assert_eq!(verifier.difficulty_cap().bits(), 40);
        assert_eq!(verifier.difficulty_cap().bits(), d.difficulty_cap_bits);
        assert_eq!(verifier.max_skew_ms(), d.max_skew_ms);
        assert_eq!((fw.audit().capacity(), d.audit_capacity), (1_024, 1_024));
        assert_eq!((fw.ledger().capacity(), d.ledger_capacity), (4_096, 4_096));
        assert_eq!((fw.max_batch(), d.max_batch), (32, 32));
        assert_eq!(verifier.verify_lanes(), aipow_crypto::auto_lanes());
        assert_eq!(fw.router_name(), "sha256");
        assert!(fw.tracer().is_none());
        assert_eq!(fw.policy_name(), "policy2");
        assert_eq!(fw.bypass_threshold, None);
    }

    #[test]
    fn manual_clock_drives_expiry() {
        let (builder, clock) = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::MIN))
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                ttl_ms: 1_000,
                ..Default::default()
            })
            .manual_clock(50_000);
        let fw = builder.build().unwrap();
        let issued = fw
            .handle_request(ip(12), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        let report = solver::solve(&issued.challenge, ip(12), &SolverOptions::default()).unwrap();
        clock.advance(2_000);
        assert!(matches!(
            fw.handle_solution(&report.solution, ip(12)),
            Err(VerifyError::Expired { .. })
        ));
    }

    #[test]
    fn shard_count_threads_through_builder_to_metrics() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::MIN))
            .policy(LinearPolicy::policy2())
            .config(FrameworkConfig {
                shard_count: Some(8),
                ..Default::default()
            })
            .build()
            .unwrap();
        let snap = fw.metrics_snapshot();
        assert_eq!(snap.replay_shards, 8);
        assert_eq!(snap.audit_shards, 8);
        assert_eq!(snap.ledger_shards, 8);
        assert_eq!(snap.replay_evicted_live, 0);
        assert_eq!(fw.verifier().replay_guard().shard_count(), 8);
        assert_eq!(fw.audit().shard_count(), 8);
        assert_eq!(fw.ledger().shard_count(), 8);
    }

    #[test]
    fn metrics_snapshot_surfaces_replay_live_evictions() {
        // A 1-seed replay guard: the second accepted solution evicts the
        // first (still-live) entry, which the snapshot must surface.
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::MIN))
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                replay_capacity: 1,
                ..Default::default()
            })
            .build()
            .unwrap();
        for last in [1u8, 2] {
            let client = ip(last);
            let issued = fw
                .handle_request(client, &FeatureVector::zeros())
                .challenge()
                .unwrap();
            let report =
                solver::solve(&issued.challenge, client, &SolverOptions::default()).unwrap();
            fw.handle_solution(&report.solution, client).unwrap();
        }
        assert_eq!(fw.metrics_snapshot().replay_evicted_live, 1);
    }

    #[test]
    fn metrics_snapshot_surfaces_replay_guard_size() {
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::MIN))
            .policy(LinearPolicy::policy1())
            .build()
            .unwrap();
        let snap = fw.metrics_snapshot();
        assert_eq!((snap.replay_len, snap.replay_heap_bytes), (0, 0));
        let client = ip(3);
        let issued = fw
            .handle_request(client, &FeatureVector::zeros())
            .challenge()
            .unwrap();
        let report = solver::solve(&issued.challenge, client, &SolverOptions::default()).unwrap();
        fw.handle_solution(&report.solution, client).unwrap();
        // Syncing is the snapshot's job, not the admission path's.
        assert_eq!(fw.metrics().snapshot().replay_len, 0);
        let snap = fw.metrics_snapshot();
        assert_eq!(snap.replay_len, 1);
        let guard = fw.verifier().replay_guard();
        assert_eq!(snap.replay_heap_bytes, guard.heap_bytes() as u64);
        assert!(snap.replay_heap_bytes > 0);
    }

    #[test]
    fn behavior_sink_sees_requests_and_solutions() {
        use std::sync::atomic::AtomicU64;

        #[derive(Default)]
        struct Recording {
            challenged: AtomicU64,
            bypassed: AtomicU64,
            accepted: AtomicU64,
            rejected: AtomicU64,
        }
        impl BehaviorSink for Recording {
            fn on_request(
                &self,
                _ip: IpAddr,
                _now_ms: u64,
                _score: ReputationScore,
                difficulty: Option<Difficulty>,
            ) {
                match difficulty {
                    Some(_) => self.challenged.fetch_add(1, Ordering::Relaxed),
                    None => self.bypassed.fetch_add(1, Ordering::Relaxed),
                };
            }
            fn on_solution(
                &self,
                _ip: IpAddr,
                _now_ms: u64,
                outcome: Result<Difficulty, &VerifyError>,
            ) {
                match outcome {
                    Ok(_) => self.accepted.fetch_add(1, Ordering::Relaxed),
                    Err(_) => self.rejected.fetch_add(1, Ordering::Relaxed),
                };
            }
        }

        let sink = Arc::new(Recording::default());
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                bypass_threshold: Some(2.0),
                ..Default::default()
            })
            .behavior_sink(Arc::clone(&sink) as Arc<dyn BehaviorSink>)
            .build()
            .unwrap();
        // A second attachment is refused: the tap is write-once.
        assert!(!fw.set_behavior_sink(Arc::clone(&sink) as Arc<dyn BehaviorSink>));
        assert!(fw.behavior_sink().is_some());

        let issued = fw
            .handle_request(ip(20), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        let report = solver::solve(&issued.challenge, ip(20), &SolverOptions::default()).unwrap();
        fw.handle_solution(&report.solution, ip(20)).unwrap();
        // Wrong-IP submission → rejection event.
        let _ = fw.handle_solution(&report.solution, ip(21));

        assert_eq!(sink.challenged.load(Ordering::Relaxed), 1);
        assert_eq!(sink.accepted.load(Ordering::Relaxed), 1);
        assert_eq!(sink.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(sink.bypassed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn behavior_sink_attaches_after_build() {
        use std::sync::atomic::AtomicU64;

        #[derive(Default)]
        struct CountReq(AtomicU64);
        impl BehaviorSink for CountReq {
            fn on_request(
                &self,
                _ip: IpAddr,
                _now_ms: u64,
                _score: ReputationScore,
                _difficulty: Option<Difficulty>,
            ) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn on_solution(
                &self,
                _ip: IpAddr,
                _now_ms: u64,
                _outcome: Result<Difficulty, &VerifyError>,
            ) {
            }
        }

        let fw = framework_with_score(1.0);
        // No sink yet: requests are simply not observed.
        let _ = fw.handle_request(ip(30), &FeatureVector::zeros());
        let sink = Arc::new(CountReq::default());
        assert!(fw.set_behavior_sink(Arc::clone(&sink) as Arc<dyn BehaviorSink>));
        let _ = fw.handle_request(ip(30), &FeatureVector::zeros());
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batch_request_path_matches_sequential_decisions() {
        // Two identically configured frameworks (shared manual clock
        // semantics: neither advances): the batch path must produce the
        // sequential path's decisions, metrics, and audit record order.
        let build = || {
            let (builder, clock) = FrameworkBuilder::new()
                .master_key([9u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(3.0).unwrap()))
                .policy(LinearPolicy::policy2())
                // Chunking exercised: 10 requests → 3 passes.
                .config(FrameworkConfig {
                    max_batch: 4,
                    ..Default::default()
                })
                .manual_clock(77_000);
            (builder.build().unwrap(), clock)
        };
        let (seq, _) = build();
        let (batch, _) = build();

        let features = FeatureVector::zeros();
        let requests: Vec<(IpAddr, &FeatureVector)> =
            (0..10u8).map(|i| (ip(i), &features)).collect();
        let seq_decisions: Vec<AdmissionDecision> = requests
            .iter()
            .map(|&(client, f)| seq.handle_request(client, f))
            .collect();
        let batch_decisions = batch.handle_request_batch(&requests);

        assert_eq!(batch_decisions.len(), seq_decisions.len());
        for (a, b) in seq_decisions.iter().zip(&batch_decisions) {
            match (a, b) {
                (AdmissionDecision::Challenge(x), AdmissionDecision::Challenge(y)) => {
                    assert_eq!(x.difficulty, y.difficulty);
                    assert_eq!(x.score, y.score);
                    assert_eq!(x.challenge.client_ip(), y.challenge.client_ip());
                    assert_eq!(x.challenge.issued_at_ms(), y.challenge.issued_at_ms());
                }
                (AdmissionDecision::Admit { score: x }, AdmissionDecision::Admit { score: y }) => {
                    assert_eq!(x, y)
                }
                other => panic!("decision shape diverged: {other:?}"),
            }
        }
        let (s, b) = (seq.metrics_snapshot(), batch.metrics_snapshot());
        assert_eq!(s.challenges_issued, b.challenges_issued);
        assert_eq!(s.bypassed, b.bypassed);
        assert_eq!(s.median_issued_difficulty, b.median_issued_difficulty);
        let (sa, ba) = (seq.audit().snapshot(), batch.audit().snapshot());
        assert_eq!(sa, ba, "audit records must match in order");
    }

    #[test]
    fn batch_mixes_bypasses_and_challenges_in_order() {
        // Scores straddle the bypass threshold via two alternating
        // feature-driven scores — emulate with two frameworks? Simpler:
        // threshold sits above the fixed score for half the batch via
        // score model keyed on a feature lane.
        struct LaneModel;
        impl ReputationModel for LaneModel {
            fn score(&self, features: &FeatureVector) -> ReputationScore {
                ReputationScore::new(features.get(0)).unwrap()
            }
            fn name(&self) -> &'static str {
                "lane0"
            }
        }
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(LaneModel)
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                bypass_threshold: Some(2.0),
                ..Default::default()
            })
            .build()
            .unwrap();
        let low = FeatureVector::zeros().with(0, 1.0); // bypassed
        let high = FeatureVector::zeros().with(0, 5.0); // challenged
        let requests: Vec<(IpAddr, &FeatureVector)> =
            vec![(ip(1), &low), (ip(2), &high), (ip(3), &low), (ip(4), &high)];
        let decisions = fw.handle_request_batch(&requests);
        assert!(decisions[0].is_bypass());
        assert!(!decisions[1].is_bypass());
        assert!(decisions[2].is_bypass());
        assert!(!decisions[3].is_bypass());
        let snap = fw.metrics_snapshot();
        assert_eq!(snap.bypassed, 2);
        assert_eq!(snap.challenges_issued, 2);
    }

    #[test]
    fn batch_solution_path_verifies_charges_and_audits() {
        let fw = framework_with_score(0.0); // policy2 → 5 bits → 32 hashes
        let mut solutions = Vec::new();
        for i in 0..3u8 {
            let issued = fw
                .handle_request(ip(i), &FeatureVector::zeros())
                .challenge()
                .unwrap();
            let report =
                solver::solve(&issued.challenge, ip(i), &SolverOptions::default()).unwrap();
            solutions.push(report.solution);
        }
        // Two valid, one wrong-IP, one intra-batch replay.
        let submissions: Vec<(&Solution, IpAddr)> = vec![
            (&solutions[0], ip(0)),
            (&solutions[1], ip(9)), // wrong ip
            (&solutions[2], ip(2)),
            (&solutions[0], ip(0)), // replay of the first
        ];
        let outcomes = fw.handle_solution_batch(&submissions);
        assert!(outcomes[0].is_ok());
        assert_eq!(outcomes[1], Err(VerifyError::ClientMismatch));
        assert!(outcomes[2].is_ok());
        assert_eq!(outcomes[3], Err(VerifyError::Replayed));
        assert_eq!(fw.ledger().total(ip(0)), 32.0);
        assert_eq!(fw.ledger().total(ip(2)), 32.0);
        assert_eq!(fw.ledger().total(ip(9)), 0.0);
        let snap = fw.metrics_snapshot();
        assert_eq!(snap.solutions_accepted, 2);
        assert_eq!(snap.solutions_rejected, 2);
        assert_eq!(snap.rejected_by_reason["client_mismatch"], 1);
        assert_eq!(snap.rejected_by_reason["replayed"], 1);
        // Audit order matches submission order (most recent first).
        let audit = fw.audit().snapshot();
        assert!(matches!(audit[0].kind, AuditKind::SolutionRejected { .. }));
        assert!(matches!(audit[1].kind, AuditKind::SolutionAccepted { .. }));
        // Empty batches are no-ops.
        assert!(fw.handle_solution_batch(&[]).is_empty());
        assert!(fw.handle_request_batch(&[]).is_empty());
    }

    #[test]
    fn batch_sink_delivery_matches_sequential_events() {
        use crate::tap::{RequestObservation, SolutionObservation};
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Log {
            events: Mutex<Vec<String>>,
            batched_calls: AtomicU64,
        }
        impl BehaviorSink for Log {
            fn on_request(
                &self,
                ip: IpAddr,
                _now_ms: u64,
                _score: ReputationScore,
                difficulty: Option<Difficulty>,
            ) {
                self.events
                    .lock()
                    .push(format!("req {ip} {:?}", difficulty.map(|d| d.bits())));
            }
            fn on_solution(
                &self,
                ip: IpAddr,
                _now_ms: u64,
                outcome: Result<Difficulty, &VerifyError>,
            ) {
                self.events
                    .lock()
                    .push(format!("sol {ip} {}", outcome.is_ok()));
            }
            fn on_request_batch(&self, now_ms: u64, batch: &[RequestObservation]) {
                self.batched_calls.fetch_add(1, Ordering::Relaxed);
                for obs in batch {
                    self.on_request(obs.ip, now_ms, obs.score, obs.difficulty);
                }
            }
            fn on_solution_batch(&self, now_ms: u64, batch: &[SolutionObservation<'_>]) {
                self.batched_calls.fetch_add(1, Ordering::Relaxed);
                for obs in batch {
                    self.on_solution(obs.ip, now_ms, obs.outcome);
                }
            }
        }

        let sink = Arc::new(Log::default());
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(0.0).unwrap()))
            .policy(LinearPolicy::policy2())
            .behavior_sink(Arc::clone(&sink) as Arc<dyn BehaviorSink>)
            .build()
            .unwrap();
        let features = FeatureVector::zeros();
        let requests: Vec<(IpAddr, &FeatureVector)> = vec![(ip(1), &features), (ip(2), &features)];
        let decisions = fw.handle_request_batch(&requests);
        let solved: Vec<Solution> = decisions
            .into_iter()
            .zip([ip(1), ip(2)])
            .map(|(d, client)| {
                let c = d.challenge().unwrap().challenge;
                solver::solve(&c, client, &SolverOptions::default())
                    .unwrap()
                    .solution
            })
            .collect();
        let submissions: Vec<(&Solution, IpAddr)> = solved.iter().zip([ip(1), ip(2)]).collect();
        let _ = fw.handle_solution_batch(&submissions);
        // One batched call per chain pass, events in request order.
        assert_eq!(sink.batched_calls.load(Ordering::Relaxed), 2);
        let events = sink.events.lock().clone();
        assert_eq!(
            events,
            vec![
                "req 198.51.100.1 Some(5)",
                "req 198.51.100.2 Some(5)",
                "sol 198.51.100.1 true",
                "sol 198.51.100.2 true",
            ]
        );
    }

    #[test]
    fn default_router_keeps_every_client_on_sha256() {
        let fw = framework_with_score(10.0);
        assert_eq!(fw.router_name(), "sha256");
        let issued = fw
            .handle_request(ip(40), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        assert_eq!(issued.challenge.backend(), BackendId::SHA256);
    }

    #[test]
    fn threshold_routing_issues_memory_hard_to_suspicious_clients() {
        let build = |score: f64| {
            FrameworkBuilder::new()
                .master_key([9u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(score).unwrap()))
                .policy(LinearPolicy::policy1())
                .config(FrameworkConfig {
                    memory_hard_above: Some(6.0),
                    memory_hard_arena_mib: Some(1),
                    ..Default::default()
                })
                .build()
                .unwrap()
        };
        let suspicious = build(8.0);
        assert_eq!(suspicious.router_name(), "memory-hard-above");
        let issued = suspicious
            .handle_request(ip(41), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        assert_eq!(issued.challenge.backend(), BackendId::MEMORY_HARD);
        assert_eq!(issued.challenge.backend_param(), 1);
        // The routed challenge round-trips through solve and verify.
        let report = solver::solve(&issued.challenge, ip(41), &SolverOptions::default()).unwrap();
        suspicious
            .handle_solution(&report.solution, ip(41))
            .unwrap();

        let benign = build(3.0);
        let issued = benign
            .handle_request(ip(42), &FeatureVector::zeros())
            .challenge()
            .unwrap();
        assert_eq!(issued.challenge.backend(), BackendId::SHA256);
    }

    #[test]
    fn batch_requests_route_per_client_score() {
        struct LaneModel;
        impl ReputationModel for LaneModel {
            fn score(&self, features: &FeatureVector) -> ReputationScore {
                ReputationScore::new(features.get(0)).unwrap()
            }
            fn name(&self) -> &'static str {
                "lane0"
            }
        }
        let fw = FrameworkBuilder::new()
            .master_key([9u8; 32])
            .model(LaneModel)
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                memory_hard_above: Some(6.0),
                memory_hard_arena_mib: Some(1),
                ..Default::default()
            })
            .build()
            .unwrap();
        let benign = FeatureVector::zeros().with(0, 2.0);
        let suspicious = FeatureVector::zeros().with(0, 9.0);
        let requests: Vec<(IpAddr, &FeatureVector)> = vec![
            (ip(1), &benign),
            (ip(2), &suspicious),
            (ip(3), &benign),
            (ip(4), &suspicious),
        ];
        let backends: Vec<BackendId> = fw
            .handle_request_batch(&requests)
            .into_iter()
            .map(|d| d.challenge().unwrap().challenge.backend())
            .collect();
        assert_eq!(
            backends,
            vec![
                BackendId::SHA256,
                BackendId::MEMORY_HARD,
                BackendId::SHA256,
                BackendId::MEMORY_HARD,
            ]
        );
    }

    #[test]
    fn random_master_keys_differ() {
        assert_ne!(random_master_key(), random_master_key());
    }

    #[test]
    fn framework_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Framework>();
    }

    #[test]
    fn debug_impls_nonempty() {
        let fw = framework_with_score(1.0);
        assert!(!format!("{fw:?}").is_empty());
        assert!(!format!("{:?}", FrameworkBuilder::new()).is_empty());
    }
}
