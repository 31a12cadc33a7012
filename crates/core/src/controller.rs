//! Closed-loop load control for adaptive policies.
//!
//! The paper's second property — “the amount of work inflicted by a puzzle
//! is adaptive and can be tuned” — needs a feedback path in a deployment:
//! something has to observe demand and publish it to the policy layer. The
//! [`LoadController`] does exactly that: it counts request arrivals,
//! maintains an exponentially-weighted arrival rate, normalizes it by the
//! server's capacity into a load in `[0, 1]`, and drives the framework's
//! attack flag with hysteresis so a flapping rate does not flap puzzle
//! difficulties.

use crate::framework::Framework;
use parking_lot::Mutex;

/// What the controller publishes each tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSignal {
    /// Smoothed load: EWMA arrival rate / capacity, clamped to `[0, 1]`.
    pub load: f64,
    /// Whether the attack flag is currently raised.
    pub under_attack: bool,
    /// The smoothed arrival rate (requests/second) behind the load value.
    pub arrival_rate_rps: f64,
}

#[derive(Debug)]
struct State {
    window_start_ms: u64,
    window_count: u64,
    ewma_rps: f64,
    under_attack: bool,
}

/// An arrival-rate → load/attack feedback controller.
///
/// Call [`record_arrival`](LoadController::record_arrival) on every
/// incoming request and [`apply`](LoadController::apply) on a periodic
/// tick (once per second is typical).
///
/// ```
/// use aipow_core::controller::LoadController;
/// let controller = LoadController::new(100.0); // capacity: 100 rps
/// for i in 0..50 {
///     controller.record_arrival(i * 10); // 50 arrivals in one second
/// }
/// let signal = controller.tick(1_000);
/// assert!(signal.load > 0.2 && signal.load <= 0.5 + 1e-9);
/// assert!(!signal.under_attack);
/// ```
#[derive(Debug)]
pub struct LoadController {
    capacity_rps: f64,
    attack_on: f64,
    attack_off: f64,
    alpha: f64,
    state: Mutex<State>,
}

impl LoadController {
    /// Creates a controller for a server sustaining `capacity_rps`, with
    /// default thresholds (attack on at load ≥ 0.9, off below 0.6) and
    /// smoothing `α = 0.5` per window.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_rps` is not finite and positive.
    pub fn new(capacity_rps: f64) -> Self {
        assert!(
            capacity_rps.is_finite() && capacity_rps > 0.0,
            "capacity must be positive"
        );
        LoadController {
            capacity_rps,
            attack_on: 0.9,
            attack_off: 0.6,
            alpha: 0.5,
            state: Mutex::new(State {
                window_start_ms: 0,
                window_count: 0,
                ewma_rps: 0.0,
                under_attack: false,
            }),
        }
    }

    /// Sets the hysteresis thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ off < on`.
    pub fn with_thresholds(mut self, attack_on: f64, attack_off: f64) -> Self {
        assert!(
            attack_off >= 0.0 && attack_off < attack_on,
            "thresholds must satisfy 0 <= off < on"
        );
        self.attack_on = attack_on;
        self.attack_off = attack_off;
        self
    }

    /// Sets the EWMA smoothing factor in `(0, 1]` (1 = no smoothing).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        self.alpha = alpha;
        self
    }

    /// Counts one arrival at `now_ms`.
    pub fn record_arrival(&self, now_ms: u64) {
        let mut state = self.state.lock();
        if state.window_count == 0 && state.window_start_ms == 0 {
            state.window_start_ms = now_ms;
        }
        state.window_count += 1;
    }

    /// Closes the current window at `now_ms`, updates the smoothed rate,
    /// and returns the signal. Windows shorter than 100 ms are folded into
    /// the next tick to avoid rate spikes from early ticks.
    pub fn tick(&self, now_ms: u64) -> LoadSignal {
        let mut state = self.state.lock();
        let elapsed_ms = now_ms.saturating_sub(state.window_start_ms);
        if elapsed_ms >= 100 {
            let rate = state.window_count as f64 * 1_000.0 / elapsed_ms as f64;
            state.ewma_rps = if state.ewma_rps == 0.0 {
                rate
            } else {
                self.alpha * rate + (1.0 - self.alpha) * state.ewma_rps
            };
            state.window_start_ms = now_ms;
            state.window_count = 0;
        }

        let load = (state.ewma_rps / self.capacity_rps).clamp(0.0, 1.0);
        if state.under_attack {
            if load < self.attack_off {
                state.under_attack = false;
            }
        } else if load >= self.attack_on {
            state.under_attack = true;
        }

        LoadSignal {
            load,
            under_attack: state.under_attack,
            arrival_rate_rps: state.ewma_rps,
        }
    }

    /// Ticks and publishes the signal to a framework (load + attack flag).
    pub fn apply(&self, framework: &Framework, now_ms: u64) -> LoadSignal {
        let signal = self.tick(now_ms);
        framework.set_load(signal.load);
        framework.set_under_attack(signal.under_attack);
        signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::FrameworkBuilder;
    use aipow_policy::{LinearPolicy, LoadAdaptivePolicy};
    use aipow_reputation::model::FixedScoreModel;
    use aipow_reputation::{FeatureVector, ReputationScore};
    use std::net::{IpAddr, Ipv4Addr};

    fn flood(controller: &LoadController, start_ms: u64, count: u64) {
        for i in 0..count {
            controller.record_arrival(start_ms + i);
        }
    }

    #[test]
    fn idle_is_zero_load() {
        let c = LoadController::new(100.0);
        let s = c.tick(1_000);
        assert_eq!(s.load, 0.0);
        assert!(!s.under_attack);
    }

    #[test]
    fn rate_estimation_tracks_arrivals() {
        let c = LoadController::new(100.0).with_alpha(1.0);
        flood(&c, 0, 50); // 50 arrivals over the first second
        let s = c.tick(1_000);
        assert!((s.arrival_rate_rps - 50.0).abs() < 1.0, "{s:?}");
        assert!((s.load - 0.5).abs() < 0.02);
    }

    #[test]
    fn attack_declared_with_hysteresis() {
        let c = LoadController::new(100.0).with_alpha(1.0);
        // Overload: 200 rps.
        flood(&c, 0, 200);
        let s = c.tick(1_000);
        assert!(s.under_attack, "{s:?}");

        // Drop to 70 rps: still above the off threshold (60) → attack holds.
        flood(&c, 1_000, 70);
        let s = c.tick(2_000);
        assert!(s.under_attack, "{s:?}");

        // Drop to 10 rps: released.
        flood(&c, 2_000, 10);
        let s = c.tick(3_000);
        assert!(!s.under_attack, "{s:?}");
    }

    #[test]
    fn smoothing_damps_spikes() {
        // The first window bootstraps the EWMA directly (fast convergence
        // from cold start); smoothing applies from the second window on.
        let c = LoadController::new(1_000.0).with_alpha(0.25);
        flood(&c, 0, 100); // baseline: 100 rps
        c.tick(1_000);
        flood(&c, 1_000, 1_000); // spike: 1000 rps
        let spiked = c.tick(2_000);
        // EWMA = 0.25·1000 + 0.75·100 = 325 rps → load 0.325, not 1.0.
        assert!((spiked.load - 0.325).abs() < 0.02, "{spiked:?}");
    }

    #[test]
    fn short_windows_are_deferred() {
        let c = LoadController::new(100.0);
        c.record_arrival(0);
        let s = c.tick(10); // 10 ms window: folded into the next tick
        assert_eq!(s.arrival_rate_rps, 0.0);
        let s = c.tick(1_000);
        assert!(s.arrival_rate_rps > 0.0);
    }

    #[test]
    fn load_clamped_at_one() {
        let c = LoadController::new(10.0).with_alpha(1.0);
        flood(&c, 0, 10_000);
        let s = c.tick(1_000);
        assert_eq!(s.load, 1.0);
    }

    #[test]
    fn apply_drives_adaptive_policy_end_to_end() {
        let framework = FrameworkBuilder::new()
            .master_key([6u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(0.0).unwrap()))
            .policy(LoadAdaptivePolicy::new(LinearPolicy::policy1(), 4, 3))
            .build()
            .unwrap();
        let controller = LoadController::new(100.0).with_alpha(1.0);
        let ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 9));

        // Idle: base difficulty.
        controller.apply(&framework, 1_000);
        let d_idle = framework
            .handle_request(ip, &FeatureVector::zeros())
            .challenge()
            .unwrap()
            .difficulty;
        assert_eq!(d_idle.bits(), 1);

        // Overload → attack: difficulty escalates without code changes.
        flood(&controller, 1_000, 500);
        let signal = controller.apply(&framework, 2_000);
        assert!(signal.under_attack);
        let d_attack = framework
            .handle_request(ip, &FeatureVector::zeros())
            .challenge()
            .unwrap()
            .difficulty;
        assert_eq!(d_attack.bits(), 1 + 4 + 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        LoadController::new(0.0);
    }

    #[test]
    #[should_panic(expected = "off < on")]
    fn inverted_thresholds_panic() {
        LoadController::new(10.0).with_thresholds(0.5, 0.9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        LoadController::new(10.0).with_alpha(0.0);
    }
}
