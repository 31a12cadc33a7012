//! The challenge-issuing TCP resource server.
//!
//! Built on the event-driven reactor in [`crate::reactor`]: a small,
//! fixed set of shard threads each run one readiness loop serving every
//! connection the shard owns. Concurrency is bounded by configuration
//! ([`ServerConfig::max_connections`]), not by how many OS threads the
//! host can schedule, and an idle connection costs a table slot and an
//! empty buffer pair rather than a parked thread.

use crate::reactor::{spawn_reactor, AcceptGate, ReactorHandle, ReactorShared};
use aipow_core::{FeatureSource, Framework, OnlineSettings, RateLimiter};
use aipow_online::OnlineLoop;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The connection layer's own tuning knobs. The frames drained per
/// dispatch ([`max_batch`](aipow_core::FrameworkConfig::max_batch)) and
/// the verifier's [`lanes`](aipow_core::FrameworkConfig::lanes) belong
/// to the framework and are fixed when it is built.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Ceiling on concurrently open connections across all reactor
    /// shards. Connection number `max_connections + 1` is refused at
    /// accept with a typed `Rejected{ServerBusy}` frame — it never costs
    /// a read buffer, a table slot, or a timer entry.
    pub max_connections: usize,
    /// Ceiling on concurrent connections from one source IP; `0`
    /// disables the per-IP cap. A single-source connection flood
    /// saturates its own cap and nothing else — other peers' slots and
    /// latency are unaffected.
    pub per_ip_connection_cap: usize,
    /// Connections with no inbound traffic for this long are reaped (a
    /// deadline-wheel sweep; the reactor never blocks in a read).
    /// `Duration::ZERO` disables idle reaping.
    pub idle_timeout: Duration,
    /// Reactor shard (thread) count; `None` picks the machine's
    /// available parallelism, capped at 8. Shard 0 owns the listener and
    /// deals admitted connections round-robin, so request work spreads
    /// across shards while accept stays single-owner (no thundering
    /// herd on the listener).
    pub reactor_shards: Option<usize>,
    /// Bound in bytes on one connection's queued-but-unsent replies.
    /// A peer that stops reading while requesting more work overflows
    /// this and is closed — the alternative is the server holding
    /// unbounded reply memory for a slow reader, multiplied by 100k
    /// connections. Must fit at least one maximum frame
    /// (`MAX_PAYLOAD_LEN` + header) or large resource grants can never
    /// be sent; values below that are raised to it at start.
    pub outbound_queue_bytes: usize,
    /// Optional per-IP rate limit: `(burst, refills_per_sec)` on
    /// resource requests. Solutions are never rate-limited — the client
    /// already paid for them in hashes.
    pub rate_limit: Option<(f64, f64)>,
    /// Maximum client IPs the rate limiter tracks; beyond this a full
    /// shard evicts its least-recently-refilled bucket to make room.
    pub rate_limit_max_clients: usize,
    /// Shard count for the rate limiter's bucket table; `None` picks a
    /// multiple of available parallelism. Adjusted on both sides
    /// (`aipow_shard::ShardLayout::bounded`): raised so no eviction scan
    /// exceeds [`rate_limit_max_scan`](Self::rate_limit_max_scan),
    /// capped at `rate_limit_max_clients`, floored to a power of two.
    pub rate_limit_shards: Option<usize>,
    /// Bound on the entries one rate-limiter eviction scan may visit —
    /// the worst-case per-request cost an address-cycling flood can
    /// inflict on the admission path, independent of
    /// `rate_limit_max_clients`.
    pub rate_limit_max_scan: usize,
    /// Online behavioral-reputation loop. When set, the server attaches a
    /// behavior recorder to the framework's tap, serves model features
    /// from the live blending source (the `features` argument to
    /// [`PowServer::start`] becomes the cold-start prior), and runs the
    /// background decay/rescore worker for the server's lifetime.
    ///
    /// The framework's tap is write-once, so a given `Framework` supports
    /// **one** online attachment for its lifetime: restarting a server
    /// with `online` set against the same framework instance fails with
    /// `InvalidInput` (the first loop's recorder is still attached).
    /// Build a fresh framework per online-enabled server start — cheap
    /// via [`aipow_core::FrameworkConfig`] — or wire
    /// `aipow_online::OnlineLoop` yourself, keep it across restarts, and
    /// pass its source as `features` with `online: None`.
    pub online: Option<OnlineSettings>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 65_536,
            per_ip_connection_cap: 4_096,
            idle_timeout: Duration::from_secs(30),
            reactor_shards: None,
            outbound_queue_bytes: 2 * 1024 * 1024,
            rate_limit: None,
            rate_limit_max_clients: 65_536,
            rate_limit_shards: None,
            rate_limit_max_scan: aipow_core::sharded::DEFAULT_MAX_SCAN,
            online: None,
        }
    }
}

/// Floor for [`ServerConfig::outbound_queue_bytes`]: one maximum wire
/// frame (header + payload). Anything smaller could never carry a
/// full-size resource grant.
const OUTBOUND_QUEUE_FLOOR: usize = aipow_wire::MAX_PAYLOAD_LEN + 8;

/// A running server. Dropping it triggers the same orderly shutdown as
/// [`shutdown`](PowServer::shutdown): stop accepting, wake every reactor
/// shard, close all connections, join every thread.
pub struct PowServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<ReactorHandle>,
    gate: Arc<AcceptGate>,
    /// The online reputation loop, when configured; its decay worker is
    /// stopped on shutdown.
    online: Option<Arc<OnlineLoop>>,
}

impl std::fmt::Debug for PowServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowServer")
            .field("local_addr", &self.local_addr)
            .field("open_connections", &self.gate.open_connections())
            .finish_non_exhaustive()
    }
}

impl PowServer {
    /// Binds `addr` and starts the reactor shards.
    ///
    /// `resources` maps paths to response bodies; every path is fronted by
    /// the framework's challenge flow.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the listener or creating the
    /// shard pollers, or an [`io::ErrorKind::InvalidInput`] error when
    /// [`ServerConfig::online`] fails [`OnlineSettings::validate`]
    /// (version-controlled settings must reject bad values, not panic
    /// the server), or when a resource's grant frame would exceed
    /// [`MAX_PAYLOAD_LEN`](aipow_wire::MAX_PAYLOAD_LEN) — no client could
    /// read it, and each would find out only after paying for it.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        framework: Arc<Framework>,
        features: Arc<dyn FeatureSource>,
        resources: HashMap<String, Vec<u8>>,
        config: ServerConfig,
    ) -> io::Result<PowServer> {
        // A grant's payload is `path_len(4) ‖ path ‖ body_len(4) ‖ body`.
        if let Some((path, body)) = resources
            .iter()
            .find(|(path, body)| 8 + path.len() + body.len() > aipow_wire::MAX_PAYLOAD_LEN)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "resource {path}: a {}-byte body does not fit one frame \
                     (at most {} bytes with this path)",
                    body.len(),
                    aipow_wire::MAX_PAYLOAD_LEN.saturating_sub(8 + path.len())
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let resources = Arc::new(resources);

        // Online loop: the caller's feature source becomes the cold-start
        // prior, and live features are served from the blending source.
        // Bad settings and a pre-existing behavior sink both reject the
        // explicit config loudly — silently serving static features
        // would defeat the operator's stated intent.
        let online = match &config.online {
            Some(settings) => Some(
                OnlineLoop::attach(
                    Arc::clone(&framework),
                    Arc::clone(&features),
                    settings.clone(),
                )
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?,
            ),
            None => None,
        };
        let features: Arc<dyn FeatureSource> = match &online {
            Some(online_loop) => {
                online_loop.start();
                online_loop.source()
            }
            None => features,
        };
        let limiter = Arc::new(config.rate_limit.map(|(burst, refill)| {
            RateLimiter::with_layout(
                burst,
                refill,
                config.rate_limit_max_clients,
                config.rate_limit_shards,
                config.rate_limit_max_scan,
            )
        }));

        let gate = Arc::new(AcceptGate::new(
            config.max_connections.max(1),
            config.per_ip_connection_cap,
        ));
        let shards = config
            .reactor_shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            })
            .max(1);
        let shared = Arc::new(ReactorShared {
            framework,
            features,
            resources,
            limiter,
            gate: Arc::clone(&gate),
            shutdown: Arc::clone(&shutdown),
            idle_timeout: config.idle_timeout,
            outbound_limit: config.outbound_queue_bytes.max(OUTBOUND_QUEUE_FLOOR),
            epoch: std::time::Instant::now(),
        });
        let reactor = spawn_reactor(listener, shared, shards)?;

        Ok(PowServer {
            local_addr,
            shutdown,
            reactor: Some(reactor),
            gate,
            online,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently open across all shards (diagnostics).
    pub fn open_connections(&self) -> usize {
        self.gate.open_connections()
    }

    /// The online reputation loop, when the server was configured with
    /// one (for diagnostics: recorder population, manual sweeps).
    pub fn online(&self) -> Option<&Arc<OnlineLoop>> {
        self.online.as_ref()
    }

    /// Stops accepting, closes every connection, and joins all shard
    /// threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
        // Drop then runs on an already-shut-down server, where
        // `shutdown_in_place` is a no-op.
    }

    /// The idempotent shutdown body shared by [`shutdown`](Self::shutdown)
    /// and [`Drop`]: the reactor handle is consumed on the first call, so
    /// a second call finds nothing to do.
    fn shutdown_in_place(&mut self) {
        // Release: publishes the shutdown request to every shard; their
        // post-wait Acquire load pairs with it.
        self.shutdown.store(true, Ordering::Release);
        if let Some(reactor) = self.reactor.take() {
            // Wake each shard out of its poll wait; each closes its
            // connections (the listener drops with shard 0's locals,
            // releasing the port) and exits.
            for poller in &reactor.pollers {
                let _ = poller.notify();
            }
            for thread in reactor.threads {
                let _ = thread.join();
            }
        }
        if let Some(online) = self.online.take() {
            online.stop();
        }
    }
}

impl Drop for PowServer {
    fn drop(&mut self) {
        // Without this, dropping the server silently detached the
        // reactor threads and leaked live connections for the rest of
        // the process lifetime.
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aipow_core::{FrameworkBuilder, FrameworkConfig, StaticFeatureSource};
    use aipow_policy::LinearPolicy;
    use aipow_reputation::model::FixedScoreModel;
    use aipow_reputation::{FeatureVector, ReputationScore};
    use aipow_wire::{read_message, write_message, Message, RejectCode};
    use std::net::TcpStream;

    fn test_builder(score: f64) -> FrameworkBuilder {
        FrameworkBuilder::new()
            .master_key([3u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(score).unwrap()))
            .policy(LinearPolicy::policy1())
    }

    fn test_server(score: f64, config: ServerConfig) -> PowServer {
        start_on(Arc::new(test_builder(score).build().unwrap()), config)
    }

    fn start_on(framework: Arc<Framework>, config: ServerConfig) -> PowServer {
        let features = Arc::new(StaticFeatureSource::new(FeatureVector::zeros()));
        let mut resources = HashMap::new();
        resources.insert("/r".to_string(), b"payload".to_vec());
        PowServer::start("127.0.0.1:0", framework, features, resources, config).unwrap()
    }

    #[test]
    fn starts_and_shuts_down() {
        let server = test_server(0.0, ServerConfig::default());
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);
        server.shutdown();
    }

    /// Starts a server whose only resource is `path` with a body of
    /// `body_len` bytes.
    fn start_with_body(path: &str, body_len: usize) -> io::Result<PowServer> {
        let framework = Arc::new(test_builder(0.0).build().unwrap());
        let features = Arc::new(StaticFeatureSource::new(FeatureVector::zeros()));
        let mut resources = HashMap::new();
        resources.insert(path.to_string(), vec![0x5a; body_len]);
        PowServer::start(
            "127.0.0.1:0",
            framework,
            features,
            resources,
            ServerConfig::default(),
        )
    }

    #[test]
    fn the_largest_grant_that_fits_one_frame_is_served() {
        use crate::client::PowClient;
        let path = "/big";
        let largest = aipow_wire::MAX_PAYLOAD_LEN - 8 - path.len();
        let server = start_with_body(path, largest).unwrap();
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        let report = client.fetch(path).unwrap();
        assert_eq!(report.body.len(), largest);
        server.shutdown();
    }

    #[test]
    fn a_grant_one_byte_over_the_frame_limit_is_refused_at_start() {
        let path = "/big";
        let over = aipow_wire::MAX_PAYLOAD_LEN - 8 - path.len() + 1;
        let err = start_with_body(path, over).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(path), "{err}");
    }

    #[test]
    fn raw_tcp_garbage_is_rejected_cleanly() {
        use std::io::Write;
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // Server replies with a Rejected frame and closes; read until EOF
        // must terminate (no hang).
        let msg = read_message(&mut stream);
        match msg {
            Ok(Message::Rejected { code, .. }) => assert_eq!(code, RejectCode::Malformed),
            other => panic!("expected rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn condemned_connection_is_reaped_despite_inbound_garbage() {
        use std::io::Write;
        use std::time::Instant;
        let server = test_server(
            0.0,
            ServerConfig {
                idle_timeout: Duration::from_millis(300),
                outbound_queue_bytes: 64 << 20,
                ..Default::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();

        // Queue ~8 MiB of pong replies without reading any of them: the
        // flush stalls on the full socket, so the rejection below cannot
        // complete and the condemned connection stays resident.
        let ping = aipow_wire::encode(&Message::Ping { token: 7 });
        let mut burst = Vec::with_capacity(ping.len() * 500_000 + 16);
        for _ in 0..500_000 {
            burst.extend_from_slice(&ping);
        }
        // A malformed frame condemns the connection (closing = true).
        burst.extend_from_slice(b"GET / HTTP/1.1\r\n");
        stream.write_all(&burst).unwrap();

        // Stream garbage continuously. Bytes arriving on a condemned
        // connection must neither be buffered nor count as activity, so
        // the idle reaper closes it even though it is never quiet; the
        // pre-fix behavior (ingest + activity refresh) kept it alive and
        // growing for as long as the peer cared to stream.
        stream
            .set_write_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let garbage = [0x5Au8; 8192];
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut closed = false;
        while Instant::now() < deadline {
            match stream.write(&garbage) {
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        assert!(
            closed,
            "server must reap a condemned connection that keeps streaming garbage"
        );
        server.shutdown();
    }

    #[test]
    fn ping_pong() {
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_message(&mut stream, &Message::Ping { token: 99 }).unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Pong { token } => assert_eq!(token, 99),
            other => panic!("expected pong, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_resource_is_not_found() {
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_message(
            &mut stream,
            &Message::RequestResource {
                path: "/missing".into(),
            },
        )
        .unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Rejected { code, .. } => assert_eq!(code, RejectCode::NotFound),
            other => panic!("expected not-found, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn drop_joins_threads_and_releases_port() {
        let server = test_server(0.0, ServerConfig::default());
        let addr = server.local_addr();
        // A client is mid-connection when the server is dropped.
        let stream = TcpStream::connect(addr).unwrap();
        drop(server);
        // Shutdown interrupted the live connection...
        drop(stream);
        // ...and the listener is gone, so the port can be rebound.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after drop: {rebound:?}");
    }

    #[test]
    fn invalid_online_settings_error_instead_of_panicking() {
        use aipow_core::OnlineSettings;
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([3u8; 32])
                .model(FixedScoreModel::new(ReputationScore::MIN))
                .policy(LinearPolicy::policy1())
                .build()
                .unwrap(),
        );
        let err = PowServer::start(
            "127.0.0.1:0",
            framework,
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            HashMap::new(),
            ServerConfig {
                online: Some(OnlineSettings {
                    capacity: 0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn online_loop_raises_difficulty_for_abusive_ip() {
        use crate::client::PowClient;
        use aipow_core::OnlineSettings;
        use aipow_pow::{Difficulty, Issuer};
        use aipow_reputation::baseline::BlocklistHeuristic;

        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([3u8; 32])
                .model(BlocklistHeuristic)
                .policy(LinearPolicy::policy2())
                .build()
                .unwrap(),
        );
        let mut resources = HashMap::new();
        resources.insert("/r".to_string(), b"payload".to_vec());
        let server = PowServer::start(
            "127.0.0.1:0",
            framework,
            Arc::new(StaticFeatureSource::new(FeatureVector::zeros())),
            resources,
            ServerConfig {
                online: Some(OnlineSettings {
                    prior_strength: 4.0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        let mut client = PowClient::connect(addr).unwrap();
        let before = client.fetch("/r").unwrap().difficulty.unwrap().bits();

        // Spam garbage solutions (foreign-key challenges fail the MAC).
        let foreign = Issuer::new(&[0xEE; 32]);
        let ip = "127.0.0.1".parse().unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        for _ in 0..40 {
            let fake = foreign.issue(ip, Difficulty::new(1).unwrap());
            write_message(
                &mut stream,
                &aipow_wire::Message::SubmitSolution {
                    backend: fake.backend(),
                    challenge: fake,
                    nonce: 0,
                    width: aipow_pow::NonceWidth::U64,
                    path: "/r".into(),
                },
            )
            .unwrap();
            match read_message(&mut stream).unwrap() {
                aipow_wire::Message::Rejected { code, .. } => {
                    assert_eq!(code, RejectCode::InvalidSolution)
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }

        // The recorder saw the abuse; the model now charges this IP more.
        let after = client.fetch("/r").unwrap().difficulty.unwrap().bits();
        assert!(
            after >= before + 2,
            "abuse must raise difficulty: before {before}, after {after}"
        );
        let online = server.online().expect("online loop configured");
        assert_eq!(online.recorder().len(), 1);
        server.shutdown();
    }

    #[test]
    fn pipelined_frames_are_batched_and_replied_in_order() {
        use std::io::Write;
        let framework = test_builder(0.0)
            .config(FrameworkConfig {
                max_batch: 8,
                ..Default::default()
            })
            .build()
            .unwrap();
        let server = start_on(Arc::new(framework), ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Write a pipelined burst in one TCP segment: 3 requests, a
        // ping, and a not-found, without reading between writes.
        let mut burst = Vec::new();
        for _ in 0..3 {
            burst.extend(aipow_wire::encode(&Message::RequestResource {
                path: "/r".into(),
            }));
        }
        burst.extend(aipow_wire::encode(&Message::Ping { token: 42 }));
        burst.extend(aipow_wire::encode(&Message::RequestResource {
            path: "/missing".into(),
        }));
        stream.write_all(&burst).unwrap();

        for i in 0..3 {
            match read_message(&mut stream).unwrap() {
                Message::ChallengeIssued { path, .. } => assert_eq!(path, "/r", "frame {i}"),
                other => panic!("frame {i}: expected challenge, got {other:?}"),
            }
        }
        match read_message(&mut stream).unwrap() {
            Message::Pong { token } => assert_eq!(token, 42),
            other => panic!("expected pong, got {other:?}"),
        }
        match read_message(&mut stream).unwrap() {
            Message::Rejected { code, .. } => assert_eq!(code, RejectCode::NotFound),
            other => panic!("expected not-found, got {other:?}"),
        }
        server.shutdown();
    }

    /// The reactor's drain size is the framework's `max_batch` — one
    /// knob, one owner: a 128-deep pipelined burst against a framework
    /// built with `max_batch(128)` is admitted in one pipeline pass.
    #[test]
    fn reactor_drains_the_frameworks_max_batch() {
        use std::io::Write;
        let framework = Arc::new(
            test_builder(0.0)
                .config(FrameworkConfig {
                    max_batch: 128,
                    ..Default::default()
                })
                .build()
                .unwrap(),
        );
        let server = start_on(Arc::clone(&framework), ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // One write: the burst lands in the socket buffer whole, so the
        // reactor's first read sees all 128 frames.
        let burst: Vec<u8> = (0..128)
            .flat_map(|_| aipow_wire::encode(&Message::RequestResource { path: "/r".into() }))
            .collect();
        stream.write_all(&burst).unwrap();
        for i in 0..128 {
            match read_message(&mut stream).unwrap() {
                Message::ChallengeIssued { .. } => {}
                other => panic!("frame {i}: expected challenge, got {other:?}"),
            }
        }
        let score = &framework.metrics().snapshot().stage_timings[0];
        assert_eq!((score.items, score.batches), (128, 1), "{score:?}");
        server.shutdown();
    }

    #[test]
    fn pipelined_solutions_verify_through_the_batch_path() {
        use aipow_pow::solver::{self, SolverOptions};
        use std::io::Write;
        let server = test_server(0.0, ServerConfig::default());
        let addr = server.local_addr();
        let client_ip = "127.0.0.1".parse().unwrap();

        // Fetch two challenges (pipelined), solve both, submit both
        // pipelined; both must grant.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut burst = Vec::new();
        for _ in 0..2 {
            burst.extend(aipow_wire::encode(&Message::RequestResource {
                path: "/r".into(),
            }));
        }
        stream.write_all(&burst).unwrap();
        let mut challenges = Vec::new();
        for _ in 0..2 {
            match read_message(&mut stream).unwrap() {
                Message::ChallengeIssued { challenge, .. } => challenges.push(challenge),
                other => panic!("expected challenge, got {other:?}"),
            }
        }
        let mut burst = Vec::new();
        for challenge in challenges {
            let report = solver::solve(&challenge, client_ip, &SolverOptions::default()).unwrap();
            burst.extend(aipow_wire::encode(&Message::SubmitSolution {
                backend: report.solution.backend,
                challenge: report.solution.challenge,
                nonce: report.solution.nonce,
                width: report.solution.width,
                path: "/r".into(),
            }));
        }
        stream.write_all(&burst).unwrap();
        for i in 0..2 {
            match read_message(&mut stream).unwrap() {
                Message::ResourceGranted { body, .. } => {
                    assert_eq!(body, b"payload", "solution {i}")
                }
                other => panic!("solution {i}: expected grant, got {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn hello_handshake_echoes_server_version() {
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_message(
            &mut stream,
            &Message::Hello {
                version: aipow_wire::PROTOCOL_VERSION,
            },
        )
        .unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Hello { version } => assert_eq!(version, aipow_wire::PROTOCOL_VERSION),
            other => panic!("expected hello echo, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn hello_version_mismatch_gets_typed_protocol_rejection() {
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_message(
            &mut stream,
            &Message::Hello {
                version: aipow_wire::PROTOCOL_VERSION + 1,
            },
        )
        .unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Rejected { code, detail } => {
                assert_eq!(code, RejectCode::ProtocolMismatch);
                assert!(detail.contains("version"), "detail: {detail}");
            }
            other => panic!("expected protocol-mismatch rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn stale_frame_version_byte_gets_typed_protocol_rejection() {
        use std::io::Write;
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Corrupt the frame-header version byte (magic(2) ‖ version(1) ‖ …)
        // to emulate an old-protocol peer: the reject must be the typed
        // ProtocolMismatch, not generic Malformed.
        let mut frame = aipow_wire::encode(&Message::Ping { token: 5 });
        frame[2] = aipow_wire::PROTOCOL_VERSION.wrapping_add(1);
        stream.write_all(&frame).unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Rejected { code, .. } => assert_eq!(code, RejectCode::ProtocolMismatch),
            other => panic!("expected protocol-mismatch rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn unknown_backend_id_in_solution_frame_is_rejected() {
        use aipow_pow::solver::{self, SolverOptions};
        let server = test_server(0.0, ServerConfig::default());
        let client_ip = "127.0.0.1".parse().unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_message(&mut stream, &Message::RequestResource { path: "/r".into() }).unwrap();
        let challenge = match read_message(&mut stream).unwrap() {
            Message::ChallengeIssued { challenge, .. } => challenge,
            other => panic!("expected challenge, got {other:?}"),
        };
        // Solve honestly, then claim an unregistered backend id in the
        // submission frame: the verifier must refuse it as a typed
        // invalid solution rather than granting or crashing.
        let report = solver::solve(&challenge, client_ip, &SolverOptions::default()).unwrap();
        write_message(
            &mut stream,
            &Message::SubmitSolution {
                backend: aipow_pow::BackendId(99),
                challenge: report.solution.challenge,
                nonce: report.solution.nonce,
                width: report.solution.width,
                path: "/r".into(),
            },
        )
        .unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Rejected { code, detail } => {
                assert_eq!(code, RejectCode::InvalidSolution);
                assert!(detail.contains("backend"), "detail: {detail}");
            }
            other => panic!("expected invalid-solution rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn partial_trailing_frame_does_not_delay_earlier_replies() {
        use std::io::Write;
        use std::time::Instant;
        // A complete ping plus the first bytes of a second frame: the
        // reactor must answer the ping immediately — a partial successor
        // frame just stays in the assembler until its bytes arrive.
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = aipow_wire::encode(&Message::Ping { token: 11 });
        let second = aipow_wire::encode(&Message::Ping { token: 12 });
        burst.extend_from_slice(&second[..5]); // header fragment only
        stream.write_all(&burst).unwrap();
        let start = Instant::now();
        match read_message(&mut stream).unwrap() {
            Message::Pong { token } => assert_eq!(token, 11),
            other => panic!("expected pong, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "first reply was held behind the partial frame for {:?}",
            start.elapsed()
        );
        // Completing the fragment gets the second reply.
        stream.write_all(&second[5..]).unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Pong { token } => assert_eq!(token, 12),
            other => panic!("expected pong, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn malformed_frame_mid_batch_still_answers_earlier_frames() {
        use std::io::Write;
        let server = test_server(0.0, ServerConfig::default());
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = aipow_wire::encode(&Message::Ping { token: 7 });
        burst.extend_from_slice(b"\xFF\xFFgarbage");
        stream.write_all(&burst).unwrap();
        match read_message(&mut stream).unwrap() {
            Message::Pong { token } => assert_eq!(token, 7),
            other => panic!("expected pong, got {other:?}"),
        }
        match read_message(&mut stream).unwrap() {
            Message::Rejected { code, .. } => assert_eq!(code, RejectCode::Malformed),
            other => panic!("expected malformed rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn rate_limit_rejects_excess_requests() {
        let server = test_server(
            0.0,
            ServerConfig {
                rate_limit: Some((2.0, 0.001)),
                ..Default::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut rejected = 0;
        for _ in 0..4 {
            write_message(&mut stream, &Message::RequestResource { path: "/r".into() }).unwrap();
            if let Message::Rejected { code, .. } = read_message(&mut stream).unwrap() {
                assert_eq!(code, RejectCode::RateLimited);
                rejected += 1;
            }
        }
        assert_eq!(rejected, 2, "burst of 2 then rejections");
        server.shutdown();
    }

    #[test]
    fn per_ip_cap_rejects_with_typed_server_busy() {
        let server = test_server(
            0.0,
            ServerConfig {
                per_ip_connection_cap: 2,
                ..Default::default()
            },
        );
        let addr = server.local_addr();
        // Two connections fill this IP's budget; both still serve.
        let mut a = TcpStream::connect(addr).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        write_message(&mut a, &Message::Ping { token: 1 }).unwrap();
        assert!(matches!(
            read_message(&mut a).unwrap(),
            Message::Pong { token: 1 }
        ));
        // The third is refused at accept with the typed frame, then EOF.
        let mut c = TcpStream::connect(addr).unwrap();
        match read_message(&mut c) {
            Ok(Message::Rejected { code, .. }) => assert_eq!(code, RejectCode::ServerBusy),
            other => panic!("expected server-busy rejection, got {other:?}"),
        }
        // Closing one admitted connection frees the slot. The close must
        // propagate through the reactor before the gate slot frees, so
        // probe with ping until a new connection is admitted.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut d = TcpStream::connect(addr).unwrap();
            d.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let _ = write_message(&mut d, &Message::Ping { token: 9 });
            match read_message(&mut d) {
                Ok(Message::Pong { token }) => {
                    assert_eq!(token, 9);
                    break;
                }
                // Still capped (typed reject) or racing the close (EOF /
                // reset / timeout): retry until the deadline.
                Ok(Message::Rejected { code, .. }) => {
                    assert_eq!(code, RejectCode::ServerBusy);
                }
                Ok(other) => panic!("unsolicited frame {other:?}"),
                Err(_) => {}
            }
            assert!(
                std::time::Instant::now() < deadline,
                "freed per-IP slot never became admittable"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        write_message(&mut b, &Message::Ping { token: 2 }).unwrap();
        assert!(matches!(
            read_message(&mut b).unwrap(),
            Message::Pong { token: 2 }
        ));
        server.shutdown();
    }

    #[test]
    fn max_connections_cap_rejects_with_typed_server_busy() {
        let server = test_server(
            0.0,
            ServerConfig {
                max_connections: 1,
                per_ip_connection_cap: 0,
                ..Default::default()
            },
        );
        let addr = server.local_addr();
        let mut a = TcpStream::connect(addr).unwrap();
        write_message(&mut a, &Message::Ping { token: 1 }).unwrap();
        assert!(matches!(
            read_message(&mut a).unwrap(),
            Message::Pong { .. }
        ));
        let mut b = TcpStream::connect(addr).unwrap();
        match read_message(&mut b) {
            Ok(Message::Rejected { code, .. }) => assert_eq!(code, RejectCode::ServerBusy),
            other => panic!("expected server-busy rejection, got {other:?}"),
        }
        assert_eq!(server.open_connections(), 1);
        server.shutdown();
    }

    #[test]
    fn client_sees_typed_server_busy_at_connect() {
        use crate::client::{ClientError, PowClient};
        let server = test_server(
            0.0,
            ServerConfig {
                max_connections: 1,
                per_ip_connection_cap: 0,
                ..Default::default()
            },
        );
        let addr = server.local_addr();
        let first = PowClient::connect(addr).unwrap();
        match PowClient::connect(addr) {
            Err(ClientError::ServerBusy { detail }) => {
                assert!(detail.contains("capacity"), "detail: {detail}")
            }
            other => panic!("expected typed server-busy, got {other:?}"),
        }
        drop(first);
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_on_deadline() {
        let server = test_server(
            0.0,
            ServerConfig {
                idle_timeout: Duration::from_millis(200),
                ..Default::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Activity works while fresh.
        write_message(&mut stream, &Message::Ping { token: 1 }).unwrap();
        assert!(matches!(
            read_message(&mut stream).unwrap(),
            Message::Pong { .. }
        ));
        // Then silence: the reaper closes the connection — the next read
        // sees EOF (or a reset) rather than hanging forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let start = std::time::Instant::now();
        if let Ok(other) = read_message(&mut stream) {
            panic!("unsolicited frame {other:?}");
        }
        assert!(
            start.elapsed() < Duration::from_secs(8),
            "reap took {:?}, idle timeout was 200ms",
            start.elapsed()
        );
        assert_eq!(server.open_connections(), 0);
        server.shutdown();
    }

    #[test]
    fn active_connection_survives_the_idle_deadline() {
        let server = test_server(
            0.0,
            ServerConfig {
                idle_timeout: Duration::from_millis(300),
                ..Default::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Keep pinging across several idle windows: activity must push
        // the deadline forward, not merely delay the first reap.
        for token in 0..10 {
            write_message(&mut stream, &Message::Ping { token }).unwrap();
            match read_message(&mut stream).unwrap() {
                Message::Pong { token: t } => assert_eq!(t, token),
                other => panic!("expected pong, got {other:?}"),
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        server.shutdown();
    }

    #[test]
    fn many_concurrent_connections_serve_on_few_threads() {
        // Far more live connections than reactor threads: the old
        // design needed a worker per connection; the reactor serves all
        // of them from one shard.
        let server = test_server(
            0.0,
            ServerConfig {
                reactor_shards: Some(1),
                per_ip_connection_cap: 0,
                ..Default::default()
            },
        );
        let addr = server.local_addr();
        let mut streams: Vec<TcpStream> =
            (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // All 64 held open simultaneously, all answering.
        for (i, stream) in streams.iter_mut().enumerate() {
            write_message(stream, &Message::Ping { token: i as u64 }).unwrap();
        }
        for (i, stream) in streams.iter_mut().enumerate() {
            match read_message(stream).unwrap() {
                Message::Pong { token } => assert_eq!(token, i as u64),
                other => panic!("conn {i}: expected pong, got {other:?}"),
            }
        }
        server.shutdown();
    }
}
