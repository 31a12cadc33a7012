//! DDoS scenarios over the event engine (claim C5).
//!
//! The paper's motivating claim: the framework “effectively throttles
//! untrustworthy traffic”, preserving service for benign clients while a
//! botnet floods the server. The scenario models:
//!
//! - a population of benign clients and bots, each with a Poisson request
//!   process and a per-client sequential solver (one CPU: a client cannot
//!   solve two puzzles at once — this is exactly the throttle);
//! - an AI model with error `ϵ`: observed score = true score + Gaussian
//!   noise, clamped to `[0, 10]`;
//! - a policy mapping scores to difficulties;
//! - a single-resource server: issuance and verification cost microseconds
//!   (the verifier is lightweight), service costs milliseconds, and a
//!   bounded FIFO queue sheds overload.
//!
//! Comparing `pow_enabled = false` (baseline) against the framework shows
//! who gets served under attack.

use crate::engine::EventQueue;
use crate::profile::SolverProfile;
use crate::sample;
use aipow_metrics::{Summary, TrialSet};
use aipow_policy::{Policy, PolicyContext};
use aipow_reputation::ReputationScore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What bots do with the puzzles they receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackStrategy {
    /// Bots solve every puzzle (they pay the work — and are throttled by
    /// their own hash rate).
    Solve,
    /// Bots request challenges but never solve them (cheap flood; the
    /// server spends only issuance cost on them and they receive nothing).
    Flood,
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdosConfig {
    /// Number of benign clients.
    pub n_benign: usize,
    /// Number of bots.
    pub n_bots: usize,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Per-benign-client request rate (requests/second).
    pub benign_rps: f64,
    /// Per-bot attempted request rate (requests/second).
    pub bot_rps: f64,
    /// Whether the framework fronts the server (false = undefended
    /// baseline).
    pub pow_enabled: bool,
    /// Bot behaviour.
    pub strategy: AttackStrategy,
    /// Latency/solve model for benign clients.
    pub profile: SolverProfile,
    /// Bots' hash-rate advantage over the profile (1.0 = same hardware).
    pub bot_hash_multiplier: f64,
    /// AI-model score error `ϵ` (std-dev of observation noise).
    pub score_epsilon: f64,
    /// Ground-truth score of benign clients.
    pub benign_true_score: f64,
    /// Ground-truth score of bots.
    pub bot_true_score: f64,
    /// Server service rate in requests/second (service time = 1/rate).
    pub server_capacity_rps: f64,
    /// Service queue limit; arrivals beyond it are dropped.
    pub queue_limit: usize,
    /// Challenge issuance CPU cost in milliseconds.
    pub issue_cost_ms: f64,
    /// Solution verification CPU cost in milliseconds.
    pub verify_cost_ms: f64,
    /// Whether the deployment has declared the attack to its policies:
    /// policy decisions then see `under_attack = true` and full server
    /// load, activating adaptive policies
    /// (e.g. [`aipow_policy::LoadAdaptivePolicy`]).
    pub declare_attack: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DdosConfig {
    fn default() -> Self {
        DdosConfig {
            n_benign: 50,
            n_bots: 50,
            duration_s: 60.0,
            benign_rps: 0.5,
            bot_rps: 20.0,
            pow_enabled: true,
            strategy: AttackStrategy::Solve,
            profile: SolverProfile::testbed_2022(),
            bot_hash_multiplier: 1.0,
            score_epsilon: 1.0,
            benign_true_score: 1.5,
            bot_true_score: 9.0,
            server_capacity_rps: 200.0,
            queue_limit: 100,
            issue_cost_ms: 0.05,
            verify_cost_ms: 0.02,
            declare_attack: false,
            seed: 7,
        }
    }
}

/// Scenario results.
#[derive(Debug, Clone, PartialEq)]
pub struct DdosOutcome {
    /// Requests served to benign clients.
    pub benign_granted: u64,
    /// Requests served to bots.
    pub bot_granted: u64,
    /// Benign requests dropped at the service queue.
    pub benign_dropped: u64,
    /// Bot requests dropped at the service queue.
    pub bot_dropped: u64,
    /// Benign goodput in responses/second.
    pub benign_goodput_rps: f64,
    /// Bot goodput in responses/second.
    pub bot_goodput_rps: f64,
    /// Share of served requests that were benign, in `[0, 1]`.
    pub benign_share: f64,
    /// End-to-end benign latency (request → response) in ms.
    pub benign_latency_ms: Summary,
    /// Fraction of the simulated time the server CPU was busy.
    pub server_utilization: f64,
    /// Largest service-queue depth observed.
    pub peak_queue: usize,
    /// Challenges issued (0 when PoW is disabled).
    pub challenges_issued: u64,
    /// Challenges bots abandoned (Flood strategy).
    pub challenges_abandoned: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Benign,
    Bot,
}

#[derive(Debug)]
enum Ev {
    /// A client decides to request the resource.
    Arrive { client: usize },
    /// A solved puzzle arrives back at the server.
    Submit { client: usize, requested_at: u64 },
    /// The server finishes serving a request.
    ServiceDone { client: usize, requested_at: u64 },
}

const NS_PER_MS: f64 = 1_000_000.0;

fn ms_to_ns(ms: f64) -> u64 {
    (ms * NS_PER_MS).round() as u64
}

/// Runs the scenario with the given policy (ignored when
/// `config.pow_enabled` is false).
pub fn run(policy: &dyn Policy, config: &DdosConfig) -> DdosOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let duration_ns = ms_to_ns(config.duration_s * 1_000.0);
    let n_clients = config.n_benign + config.n_bots;
    let ctx = if config.declare_attack {
        PolicyContext::with_load(1.0).attacked()
    } else {
        PolicyContext::default()
    };

    let class_of = |client: usize| {
        if client < config.n_benign {
            Class::Benign
        } else {
            Class::Bot
        }
    };

    // Per-client sequential-solver availability.
    let mut solver_free_at = vec![0u64; n_clients];

    // Server state: virtual single server with FIFO queue.
    let mut server_free_at = 0u64;
    let mut queue_len = 0usize;
    let mut peak_queue = 0usize;
    let mut busy_ns: u64 = 0;
    let service_ns = ms_to_ns(1_000.0 / config.server_capacity_rps);

    // Outcome accumulators.
    let mut granted = [0u64; 2];
    let mut dropped = [0u64; 2];
    let mut challenges_issued = 0u64;
    let mut challenges_abandoned = 0u64;
    let mut benign_latency = TrialSet::new();

    // Seed initial arrivals.
    for client in 0..n_clients {
        let rps = match class_of(client) {
            Class::Benign => config.benign_rps,
            Class::Bot => config.bot_rps,
        };
        let gap_ms = sample::exponential_gap(&mut rng, 1_000.0 / rps);
        queue.schedule_at(ms_to_ns(gap_ms), Ev::Arrive { client });
    }

    while let Some((now, event)) = queue.pop() {
        if now > duration_ns {
            break;
        }
        match event {
            Ev::Arrive { client } => {
                let class = class_of(client);
                // Schedule the client's next request (open-loop arrivals).
                let rps = match class {
                    Class::Benign => config.benign_rps,
                    Class::Bot => config.bot_rps,
                };
                let gap = ms_to_ns(sample::exponential_gap(&mut rng, 1_000.0 / rps));
                if now + gap <= duration_ns {
                    queue.schedule_at(now + gap, Ev::Arrive { client });
                }

                if !config.pow_enabled {
                    // Undefended baseline: straight to the service queue.
                    enqueue_service(
                        now,
                        client,
                        now,
                        &mut queue,
                        &mut server_free_at,
                        &mut queue_len,
                        &mut peak_queue,
                        &mut busy_ns,
                        service_ns,
                        config.queue_limit,
                        &mut dropped,
                        class,
                    );
                    continue;
                }

                // Framework path: score → policy → challenge.
                busy_ns += ms_to_ns(config.issue_cost_ms);
                challenges_issued += 1;
                let true_score = match class {
                    Class::Benign => config.benign_true_score,
                    Class::Bot => config.bot_true_score,
                };
                let observed = ReputationScore::clamped(
                    true_score + config.score_epsilon * sample::gaussian(&mut rng),
                );
                let difficulty = policy.difficulty_for(observed, &ctx);

                if class == Class::Bot && config.strategy == AttackStrategy::Flood {
                    challenges_abandoned += 1;
                    continue;
                }

                // Sequential solving on the client's CPU.
                let hash_rate = match class {
                    Class::Benign => config.profile.hash_rate_hz,
                    Class::Bot => config.profile.hash_rate_hz * config.bot_hash_multiplier,
                };
                let attempts = sample::attempts_to_solve(&mut rng, difficulty.bits());
                let solve_ns = ms_to_ns(attempts as f64 / hash_rate * 1_000.0);
                let start = now.max(solver_free_at[client]);
                let done = start + solve_ns;
                solver_free_at[client] = done;
                queue.schedule_at(
                    done,
                    Ev::Submit {
                        client,
                        requested_at: now,
                    },
                );
            }
            Ev::Submit {
                client,
                requested_at,
            } => {
                busy_ns += ms_to_ns(config.verify_cost_ms);
                let class = class_of(client);
                enqueue_service(
                    now,
                    client,
                    requested_at,
                    &mut queue,
                    &mut server_free_at,
                    &mut queue_len,
                    &mut peak_queue,
                    &mut busy_ns,
                    service_ns,
                    config.queue_limit,
                    &mut dropped,
                    class,
                );
            }
            Ev::ServiceDone {
                client,
                requested_at,
            } => {
                queue_len = queue_len.saturating_sub(1);
                let class = class_of(client);
                granted[class as usize] += 1;
                if class == Class::Benign {
                    benign_latency.record((now - requested_at) as f64 / NS_PER_MS);
                }
            }
        }
    }

    let total_granted = granted[0] + granted[1];
    DdosOutcome {
        benign_granted: granted[Class::Benign as usize],
        bot_granted: granted[Class::Bot as usize],
        benign_dropped: dropped[Class::Benign as usize],
        bot_dropped: dropped[Class::Bot as usize],
        benign_goodput_rps: granted[Class::Benign as usize] as f64 / config.duration_s,
        bot_goodput_rps: granted[Class::Bot as usize] as f64 / config.duration_s,
        benign_share: if total_granted == 0 {
            0.0
        } else {
            granted[Class::Benign as usize] as f64 / total_granted as f64
        },
        benign_latency_ms: Summary::from_trials(&benign_latency),
        server_utilization: (busy_ns as f64 / duration_ns as f64).min(1.0),
        peak_queue,
        challenges_issued,
        challenges_abandoned,
    }
}

/// Admits a request to the single-server FIFO queue, or drops it.
#[allow(clippy::too_many_arguments)]
fn enqueue_service(
    now: u64,
    client: usize,
    requested_at: u64,
    queue: &mut EventQueue<Ev>,
    server_free_at: &mut u64,
    queue_len: &mut usize,
    peak_queue: &mut usize,
    busy_ns: &mut u64,
    service_ns: u64,
    queue_limit: usize,
    dropped: &mut [u64; 2],
    class: Class,
) {
    if *queue_len >= queue_limit {
        dropped[class as usize] += 1;
        return;
    }
    *queue_len += 1;
    *peak_queue = (*peak_queue).max(*queue_len);
    let start = now.max(*server_free_at);
    let done = start + service_ns;
    *server_free_at = done;
    *busy_ns += service_ns;
    queue.schedule_at(
        done,
        Ev::ServiceDone {
            client,
            requested_at,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_policy::LinearPolicy;

    fn policy2() -> LinearPolicy {
        LinearPolicy::policy2()
    }

    fn quick(config: DdosConfig) -> DdosOutcome {
        run(&policy2(), &config)
    }

    fn short() -> DdosConfig {
        DdosConfig {
            duration_s: 20.0,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(quick(short()), quick(short()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(short());
        let b = quick(DdosConfig { seed: 8, ..short() });
        assert_ne!(a, b);
    }

    /// Claim C5 core: under attack, the framework multiplies both the
    /// benign share of served traffic and absolute benign goodput versus
    /// the undefended baseline.
    #[test]
    fn framework_raises_benign_share_under_attack() {
        let undefended = quick(DdosConfig {
            pow_enabled: false,
            ..short()
        });
        let defended = quick(short());
        assert!(
            defended.benign_share > 4.0 * undefended.benign_share,
            "undefended share {:.3}, defended share {:.3}",
            undefended.benign_share,
            defended.benign_share
        );
        assert!(
            defended.benign_goodput_rps > 3.0 * undefended.benign_goodput_rps,
            "benign goodput: undefended {:.1} rps, defended {:.1} rps",
            undefended.benign_goodput_rps,
            defended.benign_goodput_rps
        );
    }

    /// Bots attempting 1000 rps aggregate are throttled to what their own
    /// hash rate can sustain at the policy's bot-range difficulty.
    #[test]
    fn bot_goodput_is_suppressed() {
        let undefended = quick(DdosConfig {
            pow_enabled: false,
            ..short()
        });
        let defended = quick(short());
        assert!(
            defended.bot_goodput_rps < 0.6 * undefended.bot_goodput_rps,
            "bots: undefended {:.0} rps vs defended {:.0} rps",
            undefended.bot_goodput_rps,
            defended.bot_goodput_rps
        );
    }

    /// Benign clients keep most of their goodput under the framework
    /// (they request 25 rps aggregate against 200 rps capacity).
    #[test]
    fn benign_goodput_preserved_with_framework() {
        let defended = quick(short());
        let offered = 50.0 * 0.5; // n_benign × benign_rps
        assert!(
            defended.benign_goodput_rps > 0.8 * offered,
            "benign goodput {:.1} rps of {offered:.1} offered",
            defended.benign_goodput_rps
        );
    }

    /// Flood bots cost the server almost nothing and get nothing.
    #[test]
    fn flood_strategy_starves_bots_not_server() {
        let outcome = quick(DdosConfig {
            strategy: AttackStrategy::Flood,
            ..short()
        });
        assert_eq!(outcome.bot_granted, 0);
        assert!(outcome.challenges_abandoned > 0);
        assert!(outcome.benign_share > 0.99);
        assert!(outcome.server_utilization < 0.5);
    }

    /// The undefended baseline under this attack drops traffic and fills
    /// the queue — the situation the framework exists to prevent.
    #[test]
    fn undefended_baseline_overloads() {
        let outcome = quick(DdosConfig {
            pow_enabled: false,
            ..short()
        });
        // Offered: 25 + 1000 rps against 200 rps capacity.
        assert_eq!(outcome.peak_queue, 100, "queue should saturate");
        assert!(outcome.benign_dropped + outcome.bot_dropped > 0);
        assert!(outcome.server_utilization > 0.95);
    }

    /// Better bot hardware erodes the throttle (and motivates raising
    /// difficulty adaptively).
    #[test]
    fn bot_hash_advantage_increases_bot_goodput() {
        let weak = quick(short());
        let strong = quick(DdosConfig {
            bot_hash_multiplier: 64.0,
            ..short()
        });
        assert!(
            strong.bot_goodput_rps > weak.bot_goodput_rps * 2.0,
            "weak {:.1} vs strong {:.1}",
            weak.bot_goodput_rps,
            strong.bot_goodput_rps
        );
    }

    #[test]
    fn no_bots_means_everything_benign() {
        let outcome = quick(DdosConfig {
            n_bots: 0,
            ..short()
        });
        assert_eq!(outcome.bot_granted, 0);
        assert_eq!(outcome.benign_share, 1.0);
        assert!(outcome.benign_granted > 0);
    }

    #[test]
    fn benign_latency_includes_solve_overhead() {
        let outcome = quick(short());
        // Benign scores ~1.5 → policy2 difficulty ~6-7 → solve ≈ 2-5 ms at
        // 26 kH/s plus ~5 ms service; medians land in single-digit to
        // tens-of-ms. They must at least exceed the bare service time.
        assert!(outcome.benign_latency_ms.median >= 5.0);
    }

    /// Ablation A5: against 64× bot hashpower, static Policy 2 collapses
    /// but a declared attack + load-adaptive boost restores the throttle.
    #[test]
    fn adaptive_policy_survives_hashpower_advantage() {
        use aipow_policy::LoadAdaptivePolicy;

        let strong_bots = DdosConfig {
            bot_hash_multiplier: 64.0,
            ..short()
        };
        let static_outcome = run(&LinearPolicy::policy2(), &strong_bots);

        let adaptive = LoadAdaptivePolicy::new(LinearPolicy::policy2(), 3, 4);
        let adaptive_outcome = run(
            &adaptive,
            &DdosConfig {
                declare_attack: true,
                ..strong_bots
            },
        );

        assert!(
            adaptive_outcome.benign_goodput_rps > 2.0 * static_outcome.benign_goodput_rps,
            "static benign {:.1} rps vs adaptive benign {:.1} rps",
            static_outcome.benign_goodput_rps,
            adaptive_outcome.benign_goodput_rps
        );
        assert!(
            adaptive_outcome.bot_goodput_rps < 0.7 * static_outcome.bot_goodput_rps,
            "static bots {:.0} rps vs adaptive bots {:.0} rps",
            static_outcome.bot_goodput_rps,
            adaptive_outcome.bot_goodput_rps
        );
    }

    #[test]
    fn declared_attack_without_adaptive_policy_changes_nothing() {
        // Static policies ignore the context; declaring the attack must be
        // a no-op for them.
        let base = short();
        let declared = DdosConfig {
            declare_attack: true,
            ..base
        };
        assert_eq!(
            run(&LinearPolicy::policy2(), &base),
            run(&LinearPolicy::policy2(), &declared)
        );
    }

    /// A flash crowd — a legitimate surge, no bots — is *served*, not
    /// starved: the framework adds only benign-difficulty latency and the
    /// server handles the offered load.
    #[test]
    fn flash_crowd_is_served_with_modest_latency() {
        let crowd = DdosConfig {
            n_benign: 300, // 6× the usual population
            n_bots: 0,
            benign_rps: 0.5, // 150 rps offered against 200 rps capacity
            duration_s: 20.0,
            ..Default::default()
        };
        let outcome = quick(crowd);
        let offered = 300.0 * 0.5;
        assert!(
            outcome.benign_goodput_rps > 0.85 * offered,
            "flash crowd goodput {:.1} of {offered:.1} offered",
            outcome.benign_goodput_rps
        );
        // Benign scores ~1.5 → policy2 d≈6-7 → solve ≈ 2-5 ms; with queueing
        // the p50 stays well under the undefended-attack collapse (~500 ms).
        assert!(
            outcome.benign_latency_ms.median < 120.0,
            "flash crowd p50 {:.1} ms",
            outcome.benign_latency_ms.median
        );
        assert_eq!(outcome.benign_share, 1.0);
    }

    #[test]
    fn challenges_issued_only_with_pow() {
        assert_eq!(
            quick(DdosConfig {
                pow_enabled: false,
                ..short()
            })
            .challenges_issued,
            0
        );
        assert!(quick(short()).challenges_issued > 0);
    }
}
