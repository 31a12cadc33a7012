//! Online-reputation scenarios: *behavior-shift* and *redemption*.
//!
//! Everything else in the workspace scores clients from static tables;
//! these two scenarios exercise the `aipow-online` loop, where the model's
//! input is produced by the system's own admission stream:
//!
//! - **behavior-shift** — a client behaves benignly (low rate, solves
//!   every puzzle), then turns flooder mid-run (high rate, abandons every
//!   puzzle). The issued difficulty must climb by several bits within a
//!   bounded number of flood requests, while a concurrently benign
//!   client's difficulty stays flat.
//! - **redemption** — a flooder goes quiet. Confidence in the behavioral
//!   evidence decays with the configured half-life, the score falls back
//!   toward the prior, and once it crosses the bypass threshold the
//!   client is admitted without work again; eventually the sketch is
//!   pruned entirely.
//!
//! Both run on a [`ManualClock`] and are fully deterministic. Solving is
//! *simulated* (the accepted-solution event is injected into the tap at
//! the arrival instant plus a fixed solve latency) — hashing for real
//! would only slow the scenario without changing what the recorder sees.
//! The model is the transparent [`BlocklistHeuristic`]
//! (`score ≈ min(rate/10, 3) + 4·syn_ratio + min(2·blacklist, 4)`), so
//! the assertions below are inspectable arithmetic rather than artifacts
//! of a trained model; swap in a trained
//! [`DabrModel`](aipow_reputation::DabrModel) to reproduce the same
//! shape with the paper's AI component (the `aipow observe` CLI does).

use aipow_core::tap::BehaviorSink;
use aipow_core::{
    Framework, FrameworkBuilder, FrameworkConfig, OnlineSettings, StaticFeatureSource,
};
use aipow_online::OnlineLoop;
use aipow_policy::LinearPolicy;
use aipow_pow::{ManualClock, TimeSource};
use aipow_reputation::baseline::BlocklistHeuristic;
use aipow_reputation::{FeatureVector, ReputationModel};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

/// The residential-looking prior cold clients score with: low rate, few
/// incomplete handshakes, no blocklist history.
pub fn residential_prior() -> FeatureVector {
    FeatureVector::new([2.0, 0.05, 2.0, 4.3, 0.15, 0.12, 0.05, 0.05, 140.0, 0.02])
}

/// Parameters shared by both online scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorConfig {
    /// Benign request rate, requests/second.
    pub benign_rps: f64,
    /// Flood request rate, requests/second.
    pub flood_rps: f64,
    /// Seconds of benign behaviour before the shift (behavior-shift) or
    /// of flooding before going quiet (redemption).
    pub phase_s: f64,
    /// Seconds of the second phase (flooding, or silence).
    pub second_phase_s: f64,
    /// Decay half-life, ms.
    pub half_life_ms: u64,
    /// Events at which live behaviour and the prior weigh equally.
    pub prior_strength: f64,
    /// Simulated solve latency for clients that solve, ms.
    pub solve_latency_ms: u64,
    /// Background sweep period, ms (the decay worker's cadence).
    pub sweep_every_ms: u64,
    /// Bypass threshold for the redemption scenario (scores strictly
    /// below are admitted without work).
    pub bypass_threshold: f64,
}

impl Default for BehaviorConfig {
    fn default() -> Self {
        BehaviorConfig {
            benign_rps: 1.0,
            flood_rps: 100.0,
            phase_s: 30.0,
            second_phase_s: 60.0,
            half_life_ms: 10_000,
            prior_strength: 16.0,
            solve_latency_ms: 40,
            sweep_every_ms: 1_000,
            bypass_threshold: 2.0,
        }
    }
}

/// One sampled point of a client's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Sample instant, ms from scenario start.
    pub t_ms: u64,
    /// The model's score for the client at that instant.
    pub score: f64,
    /// Issued difficulty in bits (`None` = bypassed / not requesting).
    pub bits: Option<u8>,
}

/// Outcome of the behavior-shift scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorShiftOutcome {
    /// Difficulty issued to the shifting client on its last benign-phase
    /// request.
    pub baseline_bits: u8,
    /// Highest difficulty issued to the shifting client while flooding.
    pub peak_bits: u8,
    /// Flood requests until the issued difficulty first reached
    /// `baseline_bits + 4` (`None` = never climbed that far).
    pub requests_to_climb_4: Option<u64>,
    /// Minimum difficulty issued to the always-benign client.
    pub benign_min_bits: u8,
    /// Maximum difficulty issued to the always-benign client.
    pub benign_max_bits: u8,
    /// The shifting client's sampled trajectory.
    pub shifty: Vec<TrajectoryPoint>,
    /// The benign client's sampled trajectory.
    pub benign: Vec<TrajectoryPoint>,
    /// Peak clients tracked by the recorder.
    pub peak_tracked: u64,
}

/// Outcome of the redemption scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RedemptionOutcome {
    /// The flooder's score at the end of the attack.
    pub peak_score: f64,
    /// Ms after the attack stopped at which the score first fell below
    /// the bypass threshold (`None` = never recovered in-window).
    pub recovered_after_ms: Option<u64>,
    /// Same instant expressed in half-lives.
    pub recovered_after_half_lives: Option<f64>,
    /// The flooder's score at the end of the quiet phase.
    pub final_score: f64,
    /// Whether the quiet client was eventually admitted without work
    /// again (a real bypassed request after recovery).
    pub bypassed_after_recovery: bool,
    /// Whether the sketch was pruned (client fully forgotten) by the end.
    pub pruned: bool,
    /// Score trajectory through the quiet phase.
    pub trajectory: Vec<TrajectoryPoint>,
}

struct OnlineDeployment {
    framework: Arc<Framework>,
    online: Arc<OnlineLoop>,
    clock: ManualClock,
    model: BlocklistHeuristic,
    solve_latency_ms: u64,
}

impl OnlineDeployment {
    fn new(config: &BehaviorConfig, bypass: Option<f64>) -> Self {
        let clock = ManualClock::at(0);
        let framework = FrameworkBuilder::new()
            .master_key([0x0Bu8; 32])
            .model(BlocklistHeuristic)
            .policy(LinearPolicy::policy2())
            .clock(Arc::new(clock.clone()))
            .config(FrameworkConfig {
                bypass_threshold: bypass,
                ..Default::default()
            })
            .build()
            .expect("scenario invariant: the bypass thresholds are scores");
        let framework = Arc::new(framework);
        let online = OnlineLoop::attach(
            Arc::clone(&framework),
            Arc::new(StaticFeatureSource::new(residential_prior())),
            OnlineSettings {
                half_life_ms: config.half_life_ms,
                prior_strength: config.prior_strength,
                shard_count: Some(8),
                ..Default::default()
            },
        )
        .expect("valid settings against a fresh framework");
        OnlineDeployment {
            framework,
            online,
            clock,
            model: BlocklistHeuristic,
            solve_latency_ms: config.solve_latency_ms,
        }
    }

    /// One request at the clock's current instant; returns the sampled
    /// trajectory point. When `solves`, the accepted solution is injected
    /// into the tap after the configured solve latency (simulated solve —
    /// see the module docs).
    fn request(&self, ip: IpAddr, solves: bool) -> TrajectoryPoint {
        let now = self.clock.now_ms();
        let source = self.online.source();
        let features = source.features_at(ip, now);
        let score = self.model.score(&features).value();
        let decision = self.framework.handle_request(ip, &features);
        let bits = decision.challenge().map(|issued| {
            if solves {
                self.online.recorder().on_solution(
                    ip,
                    now + self.solve_latency_ms,
                    Ok(issued.difficulty),
                );
            }
            issued.difficulty.bits()
        });
        TrajectoryPoint {
            t_ms: now,
            score,
            bits,
        }
    }
}

fn gap_ms(rps: f64) -> u64 {
    ((1_000.0 / rps.max(1e-6)).round() as u64).max(1)
}

/// Runs the behavior-shift scenario.
pub fn run_behavior_shift(config: &BehaviorConfig) -> BehaviorShiftOutcome {
    let deploy = OnlineDeployment::new(config, None);
    let benign_ip = IpAddr::V4(Ipv4Addr::new(198, 51, 100, 1));
    let shifty_ip = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 66));

    let benign_gap = gap_ms(config.benign_rps);
    let flood_gap = gap_ms(config.flood_rps);
    let phase1_ms = (config.phase_s * 1_000.0) as u64;
    let end_ms = phase1_ms + (config.second_phase_s * 1_000.0) as u64;

    let mut benign = Vec::new();
    let mut shifty = Vec::new();
    let mut next_benign = 0u64;
    let mut next_shifty = 0u64;
    let mut next_sweep = config.sweep_every_ms;
    let mut peak_tracked = 0u64;

    let mut baseline_bits = 0u8;
    let mut peak_bits = 0u8;
    let mut flood_requests = 0u64;
    let mut requests_to_climb_4 = None;

    loop {
        let t = next_benign.min(next_shifty).min(next_sweep);
        if t > end_ms {
            break;
        }
        deploy.clock.set(t);
        if t == next_sweep {
            deploy.online.sweep_now();
            peak_tracked = peak_tracked.max(deploy.online.recorder().len() as u64);
            next_sweep += config.sweep_every_ms;
            continue;
        }
        if t == next_benign {
            benign.push(deploy.request(benign_ip, true));
            next_benign += benign_gap;
            continue;
        }
        // The shifting client: benign before phase1_ms, flooding after.
        let flooding = t >= phase1_ms;
        let point = deploy.request(shifty_ip, !flooding);
        if let Some(bits) = point.bits {
            if flooding {
                flood_requests += 1;
                peak_bits = peak_bits.max(bits);
                if requests_to_climb_4.is_none() && bits >= baseline_bits.saturating_add(4) {
                    requests_to_climb_4 = Some(flood_requests);
                }
            } else {
                baseline_bits = bits;
            }
        }
        shifty.push(point);
        next_shifty += if flooding { flood_gap } else { benign_gap };
    }

    let benign_bits: Vec<u8> = benign.iter().filter_map(|p| p.bits).collect();
    BehaviorShiftOutcome {
        baseline_bits,
        peak_bits,
        requests_to_climb_4,
        benign_min_bits: benign_bits.iter().copied().min().unwrap_or(0),
        benign_max_bits: benign_bits.iter().copied().max().unwrap_or(0),
        shifty,
        benign,
        peak_tracked,
    }
}

/// Runs the redemption scenario.
pub fn run_redemption(config: &BehaviorConfig) -> RedemptionOutcome {
    let deploy = OnlineDeployment::new(config, Some(config.bypass_threshold));
    let flooder = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 99));
    let flood_gap = gap_ms(config.flood_rps);
    let attack_end = (config.phase_s * 1_000.0) as u64;
    let quiet_end = attack_end + (config.second_phase_s * 1_000.0) as u64;

    // Phase 1: flood (never solving).
    let mut t = 0u64;
    let mut next_sweep = config.sweep_every_ms;
    let mut peak_score: f64 = 0.0;
    while t < attack_end {
        deploy.clock.set(t);
        if t >= next_sweep {
            deploy.online.sweep_now();
            // Re-anchor on the current instant: with a request gap longer
            // than the sweep period, `+=` would lag the deadline behind
            // `t` and fire a sweep on every request.
            next_sweep = t + config.sweep_every_ms;
        }
        let point = deploy.request(flooder, false);
        peak_score = peak_score.max(point.score);
        t += flood_gap;
    }

    // Phase 2: silence. Sample the score each sweep.
    let source = deploy.online.source();
    let mut trajectory = Vec::new();
    let mut recovered_after_ms = None;
    let mut t = attack_end;
    while t <= quiet_end {
        deploy.clock.set(t);
        deploy.online.sweep_now();
        let score = deploy.model.score(&source.features_at(flooder, t)).value();
        trajectory.push(TrajectoryPoint {
            t_ms: t,
            score,
            bits: None,
        });
        if recovered_after_ms.is_none() && score < config.bypass_threshold {
            recovered_after_ms = Some(t - attack_end);
        }
        t += config.sweep_every_ms;
    }

    // Snapshot prune state *before* the final probe request below, which
    // would re-create the sketch through the tap.
    let pruned = deploy
        .online
        .recorder()
        .sketch(flooder, quiet_end)
        .is_none();

    // After recovery the client is genuinely admitted without work again.
    deploy.clock.set(quiet_end);
    let final_decision = deploy
        .framework
        .handle_request(flooder, &source.features_at(flooder, quiet_end));
    let final_score = trajectory.last().map(|p| p.score).unwrap_or(peak_score);

    RedemptionOutcome {
        peak_score,
        recovered_after_ms,
        recovered_after_half_lives: recovered_after_ms
            .map(|ms| ms as f64 / config.half_life_ms as f64),
        final_score,
        bypassed_after_recovery: final_decision.is_bypass(),
        pruned,
        trajectory,
    }
}

/// Renders a behavior-shift outcome as a Markdown summary for
/// EXPERIMENTS.md.
pub fn behavior_shift_to_markdown(outcome: &BehaviorShiftOutcome) -> String {
    let mut out = String::new();
    out.push_str("| client | baseline bits | peak bits | note |\n|---|---|---|---|\n");
    out.push_str(&format!(
        "| shifting | {} | {} | +4 bits after {} flood requests |\n",
        outcome.baseline_bits,
        outcome.peak_bits,
        outcome
            .requests_to_climb_4
            .map(|n| n.to_string())
            .unwrap_or_else(|| "∞".into()),
    ));
    out.push_str(&format!(
        "| benign | {} | {} | flat |\n",
        outcome.benign_min_bits, outcome.benign_max_bits
    ));
    out
}

/// Renders a redemption outcome as a Markdown summary.
pub fn redemption_to_markdown(outcome: &RedemptionOutcome) -> String {
    format!(
        "peak score {:.2} → below threshold after {} ({} half-lives); final score {:.2}; \
         bypassed again: {}; sketch pruned: {}\n",
        outcome.peak_score,
        outcome
            .recovered_after_ms
            .map(|ms| format!("{:.1} s", ms as f64 / 1_000.0))
            .unwrap_or_else(|| "never".into()),
        outcome
            .recovered_after_half_lives
            .map(|h| format!("{h:.1}"))
            .unwrap_or_else(|| "∞".into()),
        outcome.final_score,
        outcome.bypassed_after_recovery,
        outcome.pruned,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BehaviorConfig {
        BehaviorConfig {
            phase_s: 20.0,
            second_phase_s: 60.0,
            ..Default::default()
        }
    }

    #[test]
    fn scenarios_are_deterministic() {
        assert_eq!(run_behavior_shift(&quick()), run_behavior_shift(&quick()));
        assert_eq!(run_redemption(&quick()), run_redemption(&quick()));
    }

    /// The acceptance criterion: the flooder's issued difficulty rises
    /// ≥ 4 bits within the attack window while the benign client's stays
    /// flat.
    #[test]
    fn behavior_shift_raises_flooder_difficulty_4_bits() {
        let outcome = run_behavior_shift(&quick());
        assert!(
            outcome.peak_bits >= outcome.baseline_bits + 4,
            "baseline {} peak {}",
            outcome.baseline_bits,
            outcome.peak_bits
        );
        let climb = outcome
            .requests_to_climb_4
            .expect("difficulty must climb 4 bits during the flood");
        assert!(
            climb <= 200,
            "+4 bits took {climb} flood requests (2 s of flood)"
        );
        assert!(
            outcome.benign_max_bits - outcome.benign_min_bits <= 1,
            "benign difficulty moved: {}..{}",
            outcome.benign_min_bits,
            outcome.benign_max_bits
        );
        assert_eq!(outcome.peak_tracked, 2);
    }

    /// Difficulty must also *stay* high while the flood continues (the
    /// loop does not habituate to an ongoing attack).
    #[test]
    fn behavior_shift_difficulty_is_sustained() {
        let outcome = run_behavior_shift(&quick());
        let last = outcome
            .shifty
            .iter()
            .rev()
            .find_map(|p| p.bits)
            .expect("flooder was challenged");
        assert!(
            last >= outcome.baseline_bits + 4,
            "difficulty relaxed to {last} during the flood"
        );
    }

    /// The acceptance criterion: after the flooder goes quiet its score
    /// decays below the bypass threshold within a few half-lives, and it
    /// is eventually admitted without work again.
    #[test]
    fn redemption_score_decays_below_threshold() {
        let outcome = run_redemption(&quick());
        assert!(
            outcome.peak_score >= quick().bypass_threshold,
            "attack never crossed the threshold: {:.2}",
            outcome.peak_score
        );
        let half_lives = outcome
            .recovered_after_half_lives
            .expect("score must recover in the quiet window");
        assert!(
            half_lives <= 4.0,
            "recovery took {half_lives:.1} half-lives"
        );
        assert!(outcome.final_score < quick().bypass_threshold);
        assert!(outcome.bypassed_after_recovery);
    }

    /// With a much longer quiet phase the sketch decays below the prune
    /// floor and the client is fully forgotten.
    #[test]
    fn redemption_eventually_prunes_the_sketch() {
        let outcome = run_redemption(&BehaviorConfig {
            phase_s: 10.0,
            second_phase_s: 300.0, // 30 half-lives
            ..quick()
        });
        assert!(
            outcome.pruned,
            "sketch should be pruned after 30 half-lives"
        );
    }

    /// Scores in the trajectory are monotonically non-increasing during
    /// the quiet phase: decay never *raises* suspicion.
    #[test]
    fn redemption_decay_is_monotone() {
        let outcome = run_redemption(&quick());
        for pair in outcome.trajectory.windows(2) {
            assert!(
                pair[1].score <= pair[0].score + 1e-9,
                "score rose during silence: {:?}",
                pair
            );
        }
    }

    #[test]
    fn markdown_renders() {
        let shift = run_behavior_shift(&quick());
        let md = behavior_shift_to_markdown(&shift);
        assert!(md.contains("| shifting |"));
        let redemption = run_redemption(&quick());
        assert!(redemption_to_markdown(&redemption).contains("half-lives"));
    }
}
