//! The background decay/rescore worker and the assembled online loop.
//!
//! Decay itself is lazy (each sketch catches up on touch/read — see
//! [`crate::recorder`]), so the worker's job is the bookkeeping lazy
//! decay cannot do:
//!
//! - **prune** sketches whose event weight has decayed below
//!   [`OnlineSettings::prune_below`] (full redemption — the client is
//!   forgotten and memory is reclaimed);
//! - **derive load**: differentiate the recorder's global request counter
//!   into an aggregate arrival rate and publish
//!   `Framework::set_load(rps / load_capacity_rps)` so adaptive policies
//!   react to observed demand without an operator in the loop;
//! - **refresh gauges** (`behavior_tracked`, `behavior_sweeps`,
//!   `behavior_pruned`) in [`aipow_core::FrameworkMetrics`].
//!
//! [`OnlineLoop`] bundles the recorder, the blending feature source, and
//! the worker into the one object a deployment wires: attach it to a
//! framework ([`OnlineLoop::attach`]), serve features from
//! [`OnlineLoop::source`], and either spawn the sweeper thread
//! ([`OnlineLoop::start`]) or drive [`OnlineLoop::sweep_now`] manually
//! (simulations, tests — anything on a [`ManualClock`](aipow_pow::ManualClock)).

use crate::recorder::BehaviorRecorder;
use crate::source::BehavioralFeatureSource;
use crate::sync::{AtomicBool, Mutex, Ordering};
use aipow_core::tap::BehaviorSink;
use aipow_core::{FeatureSource, Framework, OnlineSettings};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What one sweep observed (also mirrored into the framework's gauges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Clients tracked after pruning.
    pub tracked: usize,
    /// Sketches pruned this sweep.
    pub pruned: usize,
    /// Aggregate observed arrival rate over the sweep interval, req/s.
    pub arrival_rps: f64,
    /// The load published to the framework (`None` when load derivation
    /// is disabled or no time elapsed since the previous sweep).
    pub published_load: Option<f64>,
}

/// Why [`OnlineLoop::attach`] refused to build the loop.
#[derive(Debug, Clone, PartialEq)]
pub enum AttachError {
    /// The settings failed [`OnlineSettings::validate`].
    InvalidSettings(aipow_core::config::ConfigError),
    /// The framework already carries a behavior sink (the tap is
    /// write-once).
    SinkAlreadyAttached,
}

impl core::fmt::Display for AttachError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttachError::InvalidSettings(e) => write!(f, "invalid online settings: {e}"),
            AttachError::SinkAlreadyAttached => {
                write!(f, "framework already has a behavior sink attached")
            }
        }
    }
}

impl std::error::Error for AttachError {}

#[derive(Debug)]
struct SweepState {
    last_sweep_ms: u64,
    last_total_requests: u64,
    last_evicted: u64,
}

/// The assembled online reputation loop.
pub struct OnlineLoop {
    settings: OnlineSettings,
    recorder: Arc<BehaviorRecorder>,
    source: Arc<BehavioralFeatureSource>,
    framework: Arc<Framework>,
    sweep_state: Mutex<SweepState>,
    stop: Arc<AtomicBool>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl OnlineLoop {
    /// Builds the loop around an existing framework and attaches the
    /// recorder as the framework's behavior sink. `prior` supplies the
    /// features cold clients score with (typically the deployment's
    /// static table, so unknown IPs behave exactly as before the loop
    /// existed).
    ///
    /// # Errors
    ///
    /// [`AttachError::InvalidSettings`] when the settings fail
    /// [`OnlineSettings::validate`] (settings are plain public
    /// data — bad values must error, not panic), and
    /// [`AttachError::SinkAlreadyAttached`] when the framework already
    /// has a behavior sink (the tap is write-once).
    pub fn attach(
        framework: Arc<Framework>,
        prior: Arc<dyn FeatureSource>,
        settings: OnlineSettings,
    ) -> Result<Arc<OnlineLoop>, AttachError> {
        settings.validate().map_err(AttachError::InvalidSettings)?;
        let recorder = Arc::new(BehaviorRecorder::new(&settings));
        if !framework.set_behavior_sink(Arc::clone(&recorder) as Arc<dyn BehaviorSink>) {
            return Err(AttachError::SinkAlreadyAttached);
        }
        let source = Arc::new(BehavioralFeatureSource::new(
            Arc::clone(&recorder),
            prior,
            &settings,
            framework.clock(),
        ));
        let now_ms = framework.clock().now_ms();
        Ok(Arc::new(OnlineLoop {
            settings,
            recorder,
            source,
            framework,
            sweep_state: Mutex::new(SweepState {
                last_sweep_ms: now_ms,
                last_total_requests: 0,
                last_evicted: 0,
            }),
            stop: Arc::new(AtomicBool::new(false)),
            worker: Mutex::new(None),
        }))
    }

    /// The recorder (the framework's attached sink).
    pub fn recorder(&self) -> &Arc<BehaviorRecorder> {
        &self.recorder
    }

    /// The blending feature source to serve requests from.
    pub fn source(&self) -> Arc<BehavioralFeatureSource> {
        Arc::clone(&self.source)
    }

    /// The loop's settings.
    pub fn settings(&self) -> &OnlineSettings {
        &self.settings
    }

    /// Runs one decay/rescore sweep at the framework clock's current
    /// instant: prune, derive load, refresh gauges. When the framework
    /// carries a tracer, each sweep also emits one always-recorded span
    /// (stage `online_sweep`, slot 255) so flight-recorder dumps show the
    /// online loop's decisions interleaved with the admissions they
    /// influenced.
    pub fn sweep_now(&self) -> SweepReport {
        let sweep_started = std::time::Instant::now();
        let now_ms = self.framework.clock().now_ms();
        let pruned = self.recorder.prune(now_ms, self.settings.prune_below);
        let tracked = self.recorder.len();

        let (arrival_rps, published_load, new_evictions) = {
            let mut state = self.sweep_state.lock();
            let total = self.recorder.total_requests();
            let dt_ms = now_ms.saturating_sub(state.last_sweep_ms);
            let rps = if dt_ms > 0 {
                (total - state.last_total_requests) as f64 / (dt_ms as f64 / 1_000.0)
            } else {
                0.0
            };
            // Two sweeps in the same millisecond: leave the window open
            // so this interval's request delta rolls into the next rate
            // computation instead of being silently dropped.
            if dt_ms > 0 {
                state.last_sweep_ms = now_ms;
                state.last_total_requests = total;
            }
            let evicted = self.recorder.evicted();
            let new_evictions = evicted.saturating_sub(state.last_evicted);
            state.last_evicted = evicted;

            let load = match self.settings.load_capacity_rps {
                Some(capacity) if dt_ms > 0 => {
                    let load = (rps / capacity).clamp(0.0, 1.0);
                    self.framework.set_load(load);
                    Some(load)
                }
                _ => None,
            };
            (rps, load, new_evictions)
        };

        let metrics = self.framework.metrics();
        metrics.behavior_tracked.set(tracked as i64);
        metrics.behavior_sweeps.inc();
        metrics.behavior_pruned.add(pruned as u64 + new_evictions);

        if let Some(tracer) = self.framework.tracer() {
            let mut span = aipow_trace::SpanEvent::empty();
            // Forced, not sampled: sweeps are rare (one per decay
            // interval) and each one is an online-loop decision worth
            // keeping in the flight-recorder window.
            span.trace_id = tracer.begin_trace_forced();
            span.stage = "online_sweep";
            span.batch_len = tracked as u32;
            span.start_ns = tracer.ns_since_epoch(sweep_started);
            span.duration_ns = sweep_started.elapsed().as_nanos() as u64;
            span.verdict = if pruned > 0 { "pruned" } else { "swept" };
            tracer.record(span);
        }

        SweepReport {
            tracked,
            pruned,
            arrival_rps,
            published_load,
        }
    }

    /// Spawns the background sweeper thread, ticking every
    /// [`OnlineSettings::decay_interval_ms`] of wall-clock time. A second
    /// call is a no-op. The thread stops when [`stop`](Self::stop) is
    /// called or the loop is dropped — it holds only a [`Weak`] reference
    /// to the loop, so dropping the last external handle runs `Drop`
    /// (which stops and joins the thread) instead of the thread's own
    /// capture keeping the loop alive forever.
    ///
    /// Once [`stop`](Self::stop) has run, the loop is permanently
    /// stopped: `start` becomes a no-op rather than spawning a thread
    /// that would observe the latched stop flag and exit at once.
    ///
    /// [`Weak`]: std::sync::Weak
    pub fn start(self: &Arc<Self>) {
        let mut guard = self.worker.lock();
        // Acquire: pairs with the Release in stop()
        if guard.is_some() || self.stop.load(Ordering::Acquire) {
            return;
        }
        let this = Arc::downgrade(self);
        let stop = Arc::clone(&self.stop);
        let interval = Duration::from_millis(self.settings.decay_interval_ms.max(1));
        *guard = Some(std::thread::spawn(move || {
            // Acquire: pairs with the Release in stop()
            while !stop.load(Ordering::Acquire) {
                std::thread::park_timeout(interval);
                // Acquire: pairs with the Release in stop()
                if stop.load(Ordering::Acquire) {
                    break;
                }
                // The loop is being (or has been) dropped: exit so the
                // joining `Drop` completes.
                let Some(this) = this.upgrade() else { break };
                this.sweep_now();
            }
        }));
    }

    /// Stops and joins the sweeper thread (idempotent; also run on drop).
    pub fn stop(&self) {
        // Release: latches the stop request before unparking the sweeper
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.worker.lock().take() {
            handle.thread().unpark();
            // If the *sweeper itself* dropped the last strong handle
            // (Drop → stop() running on the worker thread, possible when
            // the final external Arc went away mid-sweep), joining would
            // be a self-join. Detach instead: the stop flag is set, so
            // the loop exits on its next check.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for OnlineLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

impl core::fmt::Debug for OnlineLoop {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OnlineLoop")
            .field("tracked", &self.recorder.len())
            .field("settings", &self.settings)
            .field("running", &self.worker.lock().is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_core::{FrameworkBuilder, StaticFeatureSource};
    use aipow_policy::LinearPolicy;
    use aipow_pow::ManualClock;
    use aipow_reputation::model::FixedScoreModel;
    use aipow_reputation::{FeatureVector, ReputationScore};
    use std::net::{IpAddr, Ipv4Addr};

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 18, 2, last))
    }

    fn deploy(
        half_life_ms: u64,
        load_capacity_rps: Option<f64>,
    ) -> (Arc<Framework>, Arc<OnlineLoop>, ManualClock) {
        let clock = ManualClock::at(1_000_000);
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([7u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(1.0).unwrap()))
                .policy(LinearPolicy::policy2())
                .clock(Arc::new(clock.clone()))
                .build()
                .unwrap(),
        );
        let online = OnlineLoop::attach(
            Arc::clone(&framework),
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            OnlineSettings {
                half_life_ms,
                shard_count: Some(4),
                load_capacity_rps,
                ..Default::default()
            },
        )
        .expect("no sink attached yet");
        (framework, online, clock)
    }

    #[test]
    fn attach_refuses_a_second_sink() {
        let (framework, _online, _clock) = deploy(1_000, None);
        assert_eq!(
            OnlineLoop::attach(
                Arc::clone(&framework),
                Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
                OnlineSettings::default(),
            )
            .unwrap_err(),
            AttachError::SinkAlreadyAttached
        );
        // Invalid settings error before touching the framework.
        assert!(matches!(
            OnlineLoop::attach(
                Arc::clone(&framework),
                Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
                OnlineSettings {
                    capacity: 0,
                    ..Default::default()
                },
            ),
            Err(AttachError::InvalidSettings(_))
        ));
    }

    #[test]
    fn requests_flow_through_the_tap_into_the_recorder() {
        let (framework, online, _clock) = deploy(60_000, None);
        for _ in 0..5 {
            let _ = framework.handle_request(ip(1), &FeatureVector::zeros());
        }
        assert_eq!(online.recorder().total_requests(), 5);
        assert_eq!(online.recorder().len(), 1);
    }

    #[test]
    fn sweep_derives_load_from_arrival_rate() {
        let (framework, online, clock) = deploy(60_000, Some(100.0));
        assert_eq!(framework.load(), 0.0);
        // 50 requests over 1 s → 50 rps → load 0.5 at 100 rps capacity.
        for _ in 0..50 {
            let _ = framework.handle_request(ip(2), &FeatureVector::zeros());
        }
        clock.advance(1_000);
        let report = online.sweep_now();
        assert!((report.arrival_rps - 50.0).abs() < 1e-9, "{report:?}");
        assert_eq!(report.published_load, Some(0.5));
        assert!((framework.load() - 0.5).abs() < 1e-3);

        // A quiet interval drives the load back down.
        clock.advance(1_000);
        let idle = online.sweep_now();
        assert_eq!(idle.published_load, Some(0.0));
        assert_eq!(framework.load(), 0.0);

        // A same-instant sweep must not swallow the interval's delta:
        // requests recorded now are still counted by the next timed
        // sweep.
        for _ in 0..30 {
            let _ = framework.handle_request(ip(2), &FeatureVector::zeros());
        }
        let same_instant = online.sweep_now();
        assert_eq!(same_instant.arrival_rps, 0.0);
        clock.advance(1_000);
        let next = online.sweep_now();
        assert!(
            (next.arrival_rps - 30.0).abs() < 1e-9,
            "delta dropped: {next:?}"
        );
    }

    #[test]
    fn sweep_prunes_and_updates_gauges() {
        let (framework, online, clock) = deploy(1_000, None);
        let _ = framework.handle_request(ip(3), &FeatureVector::zeros());
        clock.advance(100);
        let first = online.sweep_now();
        assert_eq!(first.tracked, 1);
        assert_eq!(first.pruned, 0);
        assert_eq!(framework.metrics_snapshot().behavior_tracked, 1);

        // 20 half-lives of silence: the sketch decays below the prune
        // floor and is forgotten.
        clock.advance(20_000);
        let second = online.sweep_now();
        assert_eq!(second.pruned, 1);
        assert_eq!(second.tracked, 0);
        let snap = framework.metrics_snapshot();
        assert_eq!(snap.behavior_tracked, 0);
        assert_eq!(snap.behavior_sweeps, 2);
        assert_eq!(snap.behavior_pruned, 1);
    }

    #[test]
    fn sweeps_emit_forced_spans_when_traced() {
        use aipow_trace::{TraceConfig, Tracer};
        let clock = ManualClock::at(1_000_000);
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([7u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(1.0).unwrap()))
                .policy(LinearPolicy::policy2())
                .clock(Arc::new(clock.clone()))
                // sample_every 0: only forced traces record, proving the
                // sweep span does not ride the request sampler.
                .tracer(Arc::new(Tracer::new(TraceConfig {
                    sample_every: 0,
                    ..TraceConfig::default()
                })))
                .build()
                .unwrap(),
        );
        let online = OnlineLoop::attach(
            Arc::clone(&framework),
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            OnlineSettings {
                shard_count: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        let _ = framework.handle_request(ip(5), &FeatureVector::zeros());
        clock.advance(1_000);
        online.sweep_now();
        let tracer = framework.tracer().unwrap();
        let spans = tracer.spans();
        let sweep_spans: Vec<_> = spans.iter().filter(|s| s.stage == "online_sweep").collect();
        assert_eq!(sweep_spans.len(), 1);
        assert_eq!(sweep_spans[0].slot, 255, "non-pipeline site");
        assert_eq!(sweep_spans[0].batch_len, 1, "one tracked client");
        assert_eq!(sweep_spans[0].verdict, "swept");
        assert_eq!(
            spans.len(),
            1,
            "request spans must not record at sample_every 0"
        );
    }

    #[test]
    fn dropping_the_last_handle_stops_the_worker() {
        // The sweeper holds only a Weak reference, so dropping the last
        // external Arc must run Drop (stop + join) without deadlocking —
        // this test hanging would be the regression.
        let (_framework, online, _clock) = deploy(60_000, None);
        online.start();
        drop(online);
    }

    #[test]
    fn background_worker_starts_and_stops() {
        let (framework, online, _clock) = deploy(60_000, None);
        online.start();
        online.start(); // idempotent
        let _ = framework.handle_request(ip(4), &FeatureVector::zeros());
        online.stop();
        online.stop(); // idempotent
                       // The loop is permanently stopped: a restart is a documented
                       // no-op, not a thread that exits on its first flag check.
        online.start();
        assert!(online.worker.lock().is_none());
        assert!(!format!("{online:?}").is_empty());
    }

    #[test]
    fn loop_source_closes_the_loop_end_to_end() {
        // The integration the crate exists for: the framework's own tap
        // output changes what the model sees on the next request.
        use aipow_reputation::baseline::BlocklistHeuristic;

        let clock = ManualClock::at(0);
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([8u8; 32])
                .model(BlocklistHeuristic)
                .policy(LinearPolicy::policy2())
                .clock(Arc::new(clock.clone()))
                .build()
                .unwrap(),
        );
        let online = OnlineLoop::attach(
            Arc::clone(&framework),
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            OnlineSettings {
                half_life_ms: 10_000,
                prior_strength: 4.0,
                shard_count: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        let source = online.source();

        let flooder = ip(9);
        let cold_bits = framework
            .handle_request(flooder, &source.features_for(flooder))
            .challenge()
            .unwrap()
            .difficulty
            .bits();

        // Flood: 1 000 requests at 100 rps, never solving.
        for i in 1..=1_000u64 {
            clock.set(i * 10);
            let _ = framework.handle_request(flooder, &source.features_for(flooder));
        }
        let hot_bits = framework
            .handle_request(flooder, &source.features_for(flooder))
            .challenge()
            .unwrap()
            .difficulty
            .bits();
        assert!(
            hot_bits >= cold_bits + 4,
            "difficulty must climb ≥4 bits: cold {cold_bits}, hot {hot_bits}"
        );
    }
}
