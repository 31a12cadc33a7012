//! End-to-end over real TCP on loopback: the deployment shape the paper
//! describes (server = issuer + verifier, client = solver), with the
//! trained DAbR model in the scoring seat.

use aipow::framework::{FrameworkBuilder, StaticFeatureSource};
use aipow::net::{ClientError, PowClient, PowServer, ServerConfig};
use aipow::prelude::*;
use aipow::reputation::synth::ClassLabel;
use aipow::wire::RejectCode;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Every socket read in this suite is bounded so a wedged peer fails the
/// test instead of hanging CI. Generous relative to loopback latency.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Test servers reap connections idle past the suite's bound (the
/// event-driven replacement for the old per-connection read timeout);
/// everything else is the production default.
fn test_server_config() -> ServerConfig {
    ServerConfig {
        idle_timeout: READ_TIMEOUT,
        ..ServerConfig::default()
    }
}

/// Connects with the suite's bounded read timeout.
fn connect(addr: SocketAddr) -> PowClient {
    PowClient::connect(addr)
        .unwrap()
        .with_read_timeout(Some(READ_TIMEOUT))
        .unwrap()
}

struct Deployment {
    server: PowServer,
    framework: Arc<Framework>,
    features: Arc<StaticFeatureSource>,
}

fn deploy(policy: impl Policy + 'static) -> Deployment {
    let dataset = DatasetSpec::default().with_seed(123).generate();
    let (train, test) = dataset.split(0.8, 123);
    let model = DabrModel::fit(&train, &Default::default());

    // Loopback is a benign client by default.
    let benign = test
        .samples()
        .iter()
        .find(|s| s.label == ClassLabel::Benign)
        .expect("benign sample")
        .features;
    let features = Arc::new(StaticFeatureSource::new(benign));

    let framework = Arc::new(
        FrameworkBuilder::new()
            .master_key([0xE2; 32])
            .model(model)
            .policy(policy)
            .build()
            .unwrap(),
    );

    let mut resources = HashMap::new();
    resources.insert("/page".to_string(), b"content".to_vec());
    resources.insert("/big".to_string(), vec![7u8; 64 * 1024]);

    let server = PowServer::start(
        "127.0.0.1:0",
        Arc::clone(&framework),
        Arc::clone(&features) as Arc<dyn aipow::framework::FeatureSource>,
        resources,
        test_server_config(),
    )
    .unwrap();

    Deployment {
        server,
        framework,
        features,
    }
}

#[test]
fn full_protocol_roundtrip_with_dabr() {
    let deployment = deploy(LinearPolicy::policy2());
    let mut client = connect(deployment.server.local_addr());

    let report = client.fetch("/page").unwrap();
    assert_eq!(report.body, b"content");
    let difficulty = report.difficulty.expect("puzzle required");
    assert!(
        difficulty.bits() >= 5,
        "policy2 floor is 5 bits, got {}",
        difficulty.bits()
    );
    assert!(report.attempts >= 1);

    let snap = deployment.framework.metrics().snapshot();
    assert_eq!(snap.challenges_issued, 1);
    assert_eq!(snap.solutions_accepted, 1);
    deployment.server.shutdown();
}

#[test]
fn large_resource_transfers_intact() {
    let deployment = deploy(LinearPolicy::policy1());
    let mut client = connect(deployment.server.local_addr());
    let report = client.fetch("/big").unwrap();
    assert_eq!(report.body.len(), 64 * 1024);
    assert!(report.body.iter().all(|&b| b == 7));
    deployment.server.shutdown();
}

#[test]
fn hostile_features_raise_the_price_on_the_wire() {
    let deployment = deploy(LinearPolicy::policy2());

    // First fetch with benign features.
    let mut client = connect(deployment.server.local_addr());
    let cheap = client.fetch("/page").unwrap().difficulty.unwrap();

    // Reclassify loopback as hostile (as a flow monitor would after
    // observing attack traffic), reconnect, fetch again.
    let hostile = FeatureVector::zeros()
        .with(0, 45.0) // request_rate
        .with(1, 0.9) // syn_ratio
        .with(6, 4.0) // blacklist_hits
        .with(7, 0.6); // tls_anomaly
    deployment
        .features
        .insert("127.0.0.1".parse().unwrap(), hostile);
    let expensive = client.fetch("/page").unwrap().difficulty.unwrap();

    assert!(
        expensive.bits() > cheap.bits(),
        "hostile {} !> benign {}",
        expensive.bits(),
        cheap.bits()
    );
    deployment.server.shutdown();
}

#[test]
fn many_sequential_fetches_never_replay() {
    let deployment = deploy(LinearPolicy::policy1());
    let mut client = connect(deployment.server.local_addr());
    for i in 0..10 {
        let report = client.fetch("/page").unwrap();
        assert_eq!(report.body, b"content", "fetch {i}");
    }
    let snap = deployment.framework.metrics().snapshot();
    assert_eq!(snap.solutions_accepted, 10);
    assert_eq!(snap.solutions_rejected, 0);
    deployment.server.shutdown();
}

#[test]
fn concurrent_clients_with_dabr_model() {
    let deployment = deploy(LinearPolicy::policy1());
    let addr = deployment.server.local_addr();
    let handles: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = connect(addr);
                client.fetch("/page").unwrap().body
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), b"content");
    }
    deployment.server.shutdown();
}

#[test]
fn stale_challenge_rejected_after_policy_is_irrelevant() {
    // A solution for a nonexistent path still verifies (the puzzle was
    // real) but the resource lookup fails cleanly.
    let deployment = deploy(LinearPolicy::policy1());
    let mut client = connect(deployment.server.local_addr());
    match client.fetch("/does-not-exist") {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, RejectCode::NotFound),
        other => panic!("expected not-found, got {other:?}"),
    }
    deployment.server.shutdown();
}

#[test]
fn bypass_threshold_admits_benign_without_work_over_tcp() {
    let dataset = DatasetSpec::default().with_seed(321).generate();
    let (train, test) = dataset.split(0.8, 321);
    let model = DabrModel::fit(&train, &Default::default());
    // Find a sample scoring under 2 to guarantee the bypass fires.
    let trusted = test
        .samples()
        .iter()
        .find(|s| model.score(&s.features).value() < 2.0)
        .expect("a trusted sample exists")
        .features;

    let framework = Arc::new(
        FrameworkBuilder::new()
            .master_key([0xE3; 32])
            .model(model)
            .policy(LinearPolicy::policy2())
            .config(FrameworkConfig {
                bypass_threshold: Some(2.0),
                ..Default::default()
            })
            .build()
            .unwrap(),
    );
    let features = Arc::new(StaticFeatureSource::new(trusted));
    let mut resources = HashMap::new();
    resources.insert("/fast".to_string(), b"no work".to_vec());
    let server = PowServer::start(
        "127.0.0.1:0",
        Arc::clone(&framework),
        features,
        resources,
        test_server_config(),
    )
    .unwrap();

    let mut client = connect(server.local_addr());
    let report = client.fetch("/fast").unwrap();
    assert_eq!(report.difficulty, None);
    assert_eq!(report.attempts, 0);
    assert_eq!(framework.metrics().snapshot().bypassed, 1);
    server.shutdown();
}
