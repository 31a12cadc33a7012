//! The system under test: a DAbR model fitted on a seeded dataset, the
//! framework around it, and a real `PowServer` on a loopback port.

use aipow_core::{FeatureSource, Framework, FrameworkBuilder, RateLimiter, StaticFeatureSource};
use aipow_net::{PowServer, ServerConfig};
use aipow_policy::{LinearPolicy, Policy, PolicyContext};
use aipow_pow::{Difficulty, SystemClock, TimeSource};
use aipow_reputation::synth::ClassLabel;
use aipow_reputation::{DabrModel, DatasetSpec, FeatureVector, ReputationModel};
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddrV4};
use std::sync::{Arc, OnceLock};

use crate::pin;
use crate::stats::Rng;

/// The server's master key. The loadgen knows it because `abuse_reject`
/// mints correctly MAC'd but expired challenges with it.
pub const MASTER_KEY: [u8; 32] = [0xB7; 32];

/// 128-byte resource: the exchange workloads' grant body.
pub const PATH_SMALL: &str = "/r128";
/// 16 KiB resource: `trust_mix`'s grant body.
pub const PATH_BIG: &str = "/r16k";

/// Source addresses the model trusts (127.1.0.0/22).
pub const TRUSTED_IPS: u32 = 1_024;
/// Source addresses the model distrusts (127.2.0.0/18).
pub const UNTRUSTED_IPS: u32 = 16_384;

/// Scores under this mark a trusted client.
pub const TRUSTED_BELOW: f64 = 2.0;

/// `trust_mix`'s limiter: generous enough that nobody is refused, small
/// enough (4 096 buckets against 17 408 addresses) that address cycling
/// forces a bucket eviction on most requests.
pub const RATE_LIMIT: (f64, f64) = (20.0, 10.0);
pub const RATE_LIMIT_MAX_CLIENTS: usize = 4_096;
pub const RATE_LIMIT_SHARDS: usize = 8;

pub fn trusted_ip(index: u32) -> Ipv4Addr {
    let i = index % TRUSTED_IPS;
    Ipv4Addr::new(127, 1, (i >> 8) as u8, i as u8)
}

pub fn untrusted_ip(index: u32) -> Ipv4Addr {
    let i = index % UNTRUSTED_IPS;
    Ipv4Addr::new(127, 2, (i >> 8) as u8, i as u8)
}

/// Which deployment a workload needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Policy 1, every peer scored with the most trusted benign sample,
    /// no limiter: the cheapest puzzle the system issues.
    Floor,
    /// Policy 2, per-address features for the trusted and untrusted
    /// ranges, rate limiter on: the paper's scenario.
    TrustMix,
}

pub struct Deployment {
    pub server: PowServer,
    pub addr: SocketAddrV4,
    pub framework: Arc<Framework>,
    pub features: Arc<StaticFeatureSource>,
    pub model: Arc<DabrModel>,
    pub policy: LinearPolicy,
    pub resources: HashMap<String, Vec<u8>>,
    /// Features of every address outside the two ranges (127.0.0.1).
    pub default_features: FeatureVector,
    /// `PowServer` keeps its rate limiter private, so `trust_mix` feeds
    /// this twin the same addresses in the same order and reads the
    /// eviction counters from it.
    pub limiter_twin: Option<RateLimiter>,
}

/// The framework exactly as the server runs it; the layer probe builds a
/// second one so its traffic never touches the measured server's state.
pub fn build_framework(
    model: &Arc<DabrModel>,
    policy: &LinearPolicy,
) -> io::Result<Arc<Framework>> {
    FrameworkBuilder::new()
        .master_key(MASTER_KEY)
        .model_arc(Arc::clone(model) as Arc<dyn ReputationModel>)
        .policy(policy.clone())
        .build()
        .map(Arc::new)
        .map_err(|e| io::Error::other(e.to_string()))
}

/// A limiter laid out exactly like the one `PowServer` builds from the
/// deployment's `ServerConfig`, with the given burst.
pub fn build_limiter(burst: f64) -> RateLimiter {
    RateLimiter::with_layout(
        burst,
        RATE_LIMIT.1,
        RATE_LIMIT_MAX_CLIENTS,
        Some(RATE_LIMIT_SHARDS),
        aipow_core::sharded::DEFAULT_MAX_SCAN,
    )
}

/// The CPUs this process was allowed when it started, before any thread
/// was pinned.
pub fn cores() -> &'static [usize] {
    static CORES: OnceLock<Vec<usize>> = OnceLock::new();
    CORES.get_or_init(|| pin::allowed_cpus().unwrap_or_default())
}

impl Deployment {
    pub fn start(shape: Shape, seed: u64) -> io::Result<Deployment> {
        let dataset = DatasetSpec::default().with_seed(seed).generate();
        let (train, test) = dataset.split(0.8, seed);
        let model = Arc::new(DabrModel::fit(&train, &Default::default()));

        // "Trusted" and "untrusted" are the model's verdicts on held-out
        // samples of each class, not the labels alone: a benign sample
        // the model scores as hostile is not a trusted client. Trusted
        // clients are the ones the model is surest of (score under 2, so
        // policy 2 asks at most 7 bits): the loadgen solves their puzzles
        // inline, and a long solve would be read as generator lateness.
        let threshold = model.malicious_threshold();
        let mut trusted: Vec<(f64, FeatureVector)> = Vec::new();
        let mut untrusted: Vec<FeatureVector> = Vec::new();
        for sample in test.samples() {
            let score = model.score(&sample.features).value();
            match sample.label {
                ClassLabel::Benign if score < TRUSTED_BELOW => {
                    trusted.push((score, sample.features))
                }
                ClassLabel::Malicious if score >= threshold => untrusted.push(sample.features),
                _ => {}
            }
        }
        if trusted.is_empty() || untrusted.is_empty() {
            return Err(io::Error::other(
                "seeded dataset has no trusted or no untrusted held-out sample",
            ));
        }
        let default_features = trusted
            .iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|&(_, fv)| fv)
            .expect("trusted is non-empty");

        let features = Arc::new(StaticFeatureSource::new(default_features));
        let policy = match shape {
            Shape::Floor => LinearPolicy::policy1(),
            Shape::TrustMix => {
                for i in 0..TRUSTED_IPS {
                    let fv = trusted[i as usize % trusted.len()].1;
                    features.insert(IpAddr::V4(trusted_ip(i)), fv);
                }
                for i in 0..UNTRUSTED_IPS {
                    let fv = untrusted[i as usize % untrusted.len()];
                    features.insert(IpAddr::V4(untrusted_ip(i)), fv);
                }
                LinearPolicy::policy2()
            }
        };

        let framework = build_framework(&model, &policy)?;

        let mut body_rng = Rng::new(seed ^ 0x00B0_D1E5);
        let resources = HashMap::from([
            (PATH_SMALL.to_string(), body_rng.bytes(128)),
            (PATH_BIG.to_string(), body_rng.bytes(16 * 1024)),
        ]);

        let config = ServerConfig {
            // One reactor core, one loadgen core: the host has two.
            reactor_shards: Some(1),
            rate_limit: (shape == Shape::TrustMix).then_some(RATE_LIMIT),
            rate_limit_max_clients: RATE_LIMIT_MAX_CLIENTS,
            rate_limit_shards: Some(RATE_LIMIT_SHARDS),
            rate_limit_max_scan: aipow_core::sharded::DEFAULT_MAX_SCAN,
            ..ServerConfig::default()
        };
        // One core each: the reactor thread inherits the mask set here,
        // then the loadgen (this thread) moves to the other core. On a
        // single core there is nothing to separate.
        let cores = cores();
        if let [reactor_core, _, ..] = cores[..] {
            pin::pin_current_thread(&[reactor_core])?;
        }
        let server = PowServer::start(
            "0.0.0.0:0",
            Arc::clone(&framework),
            Arc::clone(&features) as Arc<dyn FeatureSource>,
            resources.clone(),
            config,
        );
        if let [_, loadgen_core, ..] = cores[..] {
            pin::pin_current_thread(&[loadgen_core])?;
        }
        let server = server?;
        let addr = SocketAddrV4::new(Ipv4Addr::LOCALHOST, server.local_addr().port());

        Ok(Deployment {
            server,
            addr,
            framework,
            features,
            model,
            policy,
            resources,
            default_features,
            limiter_twin: (shape == Shape::TrustMix).then(|| build_limiter(RATE_LIMIT.0)),
        })
    }

    /// What the server must charge `ip`: the policy applied to the
    /// model's score of that address's features, computed here through
    /// the same public functions, independently of the server's pipeline.
    pub fn expected_difficulty(&self, ip: IpAddr) -> Difficulty {
        let score = self.model.score(&self.features.features_for(ip));
        self.policy.difficulty_for(score, &PolicyContext::default())
    }

    /// Debits `ip` in the limiter twin, as the server's limiter does for
    /// the request just sent; true when there is no limiter.
    pub fn twin_allows(&self, ip: IpAddr) -> bool {
        self.limiter_twin
            .as_ref()
            .is_none_or(|twin| twin.allow(ip, SystemClock.now_ms()))
    }

    pub fn body(&self, path: &str) -> &[u8] {
        &self.resources[path]
    }
}
