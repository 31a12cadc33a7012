//! The puzzle-solving client (the framework's solver role).

use aipow_pow::solver::{self, SolveError, SolverOptions};
use aipow_pow::{Difficulty, Solution};
use aipow_wire::{read_message, write_message, Message, ReadMessageError, RejectCode};
use core::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a fetch failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// A frame failed to decode, or the peer closed mid-exchange.
    Protocol(ReadMessageError),
    /// The server rejected the request or solution.
    Rejected {
        /// The server's reason code.
        code: RejectCode,
        /// Human-readable detail from the server.
        detail: String,
    },
    /// The server speaks an incompatible protocol version. Surfaced
    /// apart from [`ClientError::Rejected`] so callers can distinguish
    /// "upgrade the client" from per-request refusals.
    ProtocolMismatch {
        /// The server's explanation (usually names its version).
        detail: String,
    },
    /// The server refused the connection at its capacity gate (global
    /// or per-IP cap). Distinct from a connection-refused
    /// [`ClientError::Io`] — the server is up and chose to shed this
    /// connection, so backing off and retrying is sensible where a
    /// refused connect usually is not.
    ServerBusy {
        /// The server's explanation.
        detail: String,
    },
    /// The local solver gave up (budget or nonce space exhausted).
    Solve(SolveError),
    /// The server sent a message that does not fit the protocol state.
    UnexpectedMessage {
        /// A description of what arrived.
        got: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected { code, detail } => {
                write!(f, "server rejected request: {code}: {detail}")
            }
            ClientError::ProtocolMismatch { detail } => {
                write!(
                    f,
                    "incompatible protocol version (client speaks {}): {detail}",
                    aipow_wire::PROTOCOL_VERSION
                )
            }
            ClientError::ServerBusy { detail } => {
                write!(f, "server at connection capacity: {detail}")
            }
            ClientError::Solve(e) => write!(f, "solver failed: {e}"),
            ClientError::UnexpectedMessage { got } => {
                write!(f, "unexpected message from server: {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ReadMessageError> for ClientError {
    fn from(e: ReadMessageError) -> Self {
        // A version-byte mismatch in a received frame is the same
        // condition as a ProtocolMismatch rejection: the peers disagree
        // on the protocol revision.
        if let ReadMessageError::Decode(aipow_wire::DecodeError::UnsupportedVersion { got }) = &e {
            return ClientError::ProtocolMismatch {
                detail: format!("server frame carries protocol version {got}"),
            };
        }
        ClientError::Protocol(e)
    }
}

/// Maps a server `Rejected` frame to the client error, peeling the
/// protocol-mismatch and server-busy codes out into their dedicated
/// variants.
fn rejected(code: RejectCode, detail: String) -> ClientError {
    match code {
        RejectCode::ProtocolMismatch => ClientError::ProtocolMismatch { detail },
        RejectCode::ServerBusy => ClientError::ServerBusy { detail },
        _ => ClientError::Rejected { code, detail },
    }
}

/// What a successful fetch cost.
#[derive(Debug, Clone)]
pub struct FetchReport {
    /// The resource bytes.
    pub body: Vec<u8>,
    /// The difficulty that was paid (None when the server bypassed the
    /// puzzle).
    pub difficulty: Option<Difficulty>,
    /// Hash evaluations spent solving.
    pub attempts: u64,
    /// Time spent solving the puzzle.
    pub solve_time: Duration,
    /// End-to-end request latency, the paper's Figure 2 metric.
    pub total_time: Duration,
}

/// A live telemetry snapshot fetched from a server, pre-rendered by the
/// server in both expositions (see
/// [`PowClient::telemetry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The snapshot as one JSON object
    /// (`aipow_core::export::snapshot_json` shape).
    pub json: String,
    /// The snapshot in Prometheus text exposition format.
    pub prometheus: String,
}

/// A blocking client for [`PowServer`](crate::PowServer).
///
/// One TCP connection, reusable across any number of fetches.
#[derive(Debug)]
pub struct PowClient {
    stream: TcpStream,
    solver_options: SolverOptions,
    solver_threads: usize,
}

impl PowClient {
    /// Default bound on waiting for a server reply. Every read is
    /// time-limited so a dead or wedged peer surfaces as an error instead
    /// of hanging the caller (and CI) forever.
    pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

    /// Connects to a server with [`Self::DEFAULT_READ_TIMEOUT`] and
    /// performs the version handshake: a [`Message::Hello`] carrying
    /// [`aipow_wire::PROTOCOL_VERSION`] opens every connection, so a
    /// version skew surfaces here as [`ClientError::ProtocolMismatch`]
    /// instead of as a confusing mid-exchange failure.
    ///
    /// # Errors
    ///
    /// Propagates connection failures; returns
    /// [`ClientError::ProtocolMismatch`] when the server speaks a
    /// different protocol revision.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Self::DEFAULT_READ_TIMEOUT))?;
        let mut client = PowClient {
            stream,
            solver_options: SolverOptions::default(),
            solver_threads: 1,
        };
        write_message(
            &mut client.stream,
            &Message::Hello {
                version: aipow_wire::PROTOCOL_VERSION,
            },
        )?;
        match read_message(&mut client.stream)? {
            Message::Hello { version } if version == aipow_wire::PROTOCOL_VERSION => Ok(client),
            Message::Hello { version } => Err(ClientError::ProtocolMismatch {
                detail: format!("server answered hello with protocol version {version}"),
            }),
            Message::Rejected { code, detail } => Err(rejected(code, detail)),
            other => Err(ClientError::UnexpectedMessage {
                got: format!("{other:?}"),
            }),
        }
    }

    /// Bounds how long each read waits for the server (`None` disables
    /// the bound).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn with_read_timeout(self, timeout: Option<Duration>) -> io::Result<Self> {
        self.stream.set_read_timeout(timeout)?;
        Ok(self)
    }

    /// Uses custom solver options (e.g. strict 32-bit nonces).
    pub fn with_solver_options(mut self, options: SolverOptions) -> Self {
        self.solver_options = options;
        self
    }

    /// Solves with `threads` worker threads (powerful clients).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one solver thread required");
        self.solver_threads = threads;
        self
    }

    /// The local socket address.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Fetches `path`: request → solve the returned puzzle → submit →
    /// receive the resource. This is the client half of Figure 1.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport, protocol, solver, or server
    /// rejection.
    pub fn fetch(&mut self, path: &str) -> Result<FetchReport, ClientError> {
        let start = Instant::now();
        write_message(
            &mut self.stream,
            &Message::RequestResource { path: path.into() },
        )?;

        let (challenge, echoed_path) = match read_message(&mut self.stream)? {
            Message::ChallengeIssued { challenge, path } => (challenge, path),
            Message::ResourceGranted { body, .. } => {
                // Bypass: the server served us without a puzzle.
                return Ok(FetchReport {
                    body,
                    difficulty: None,
                    attempts: 0,
                    solve_time: Duration::ZERO,
                    total_time: start.elapsed(),
                });
            }
            Message::Rejected { code, detail } => return Err(rejected(code, detail)),
            other => {
                return Err(ClientError::UnexpectedMessage {
                    got: format!("{other:?}"),
                })
            }
        };

        // Solve against the IP the server bound the challenge to (our
        // address as the server sees it).
        let solve_ip = challenge.client_ip();
        let report = if self.solver_threads > 1 {
            solver::solve_parallel(
                &challenge,
                solve_ip,
                self.solver_threads,
                &self.solver_options,
            )
        } else {
            solver::solve(&challenge, solve_ip, &self.solver_options)
        }
        .map_err(ClientError::Solve)?;

        let paid_difficulty = report.solution.challenge.difficulty();
        let Solution {
            challenge,
            nonce,
            width,
            backend,
        } = report.solution;
        write_message(
            &mut self.stream,
            &Message::SubmitSolution {
                challenge,
                nonce,
                width,
                backend,
                path: echoed_path,
            },
        )?;

        match read_message(&mut self.stream)? {
            Message::ResourceGranted { body, .. } => Ok(FetchReport {
                body,
                difficulty: Some(paid_difficulty),
                attempts: report.attempts,
                solve_time: report.elapsed,
                total_time: start.elapsed(),
            }),
            Message::Rejected { code, detail } => Err(rejected(code, detail)),
            other => Err(ClientError::UnexpectedMessage {
                got: format!("{other:?}"),
            }),
        }
    }

    /// Fetches the server's live telemetry snapshot — the same metrics an
    /// operator sees locally via `Framework::metrics_snapshot`, rendered
    /// server-side as JSON and Prometheus text. Polling this endpoint is
    /// also the server's trigger heartbeat: each snapshot feeds the
    /// tracer's flight-recorder thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure, server rejection, or
    /// an out-of-protocol reply.
    pub fn telemetry(&mut self) -> Result<TelemetrySnapshot, ClientError> {
        write_message(&mut self.stream, &Message::TelemetryRequest)?;
        match read_message(&mut self.stream)? {
            Message::TelemetryReply { json, prometheus } => {
                Ok(TelemetrySnapshot { json, prometheus })
            }
            Message::Rejected { code, detail } => Err(rejected(code, detail)),
            other => Err(ClientError::UnexpectedMessage {
                got: format!("{other:?}"),
            }),
        }
    }

    /// Round-trip liveness probe.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on transport failure or a mismatched token.
    pub fn ping(&mut self) -> Result<Duration, ClientError> {
        let start = Instant::now();
        write_message(&mut self.stream, &Message::Ping { token: 0xA1F0 })?;
        match read_message(&mut self.stream)? {
            Message::Pong { token: 0xA1F0 } => Ok(start.elapsed()),
            other => Err(ClientError::UnexpectedMessage {
                got: format!("{other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{PowServer, ServerConfig};
    use aipow_core::{FrameworkBuilder, FrameworkConfig, StaticFeatureSource};
    use aipow_policy::LinearPolicy;
    use aipow_reputation::model::FixedScoreModel;
    use aipow_reputation::{FeatureVector, ReputationScore};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn spawn_server(score: f64, bypass: Option<f64>) -> (PowServer, Arc<aipow_core::Framework>) {
        let builder = FrameworkBuilder::new()
            .master_key([4u8; 32])
            .model(FixedScoreModel::new(ReputationScore::new(score).unwrap()))
            .policy(LinearPolicy::policy1())
            .config(FrameworkConfig {
                bypass_threshold: bypass,
                ..Default::default()
            });
        let framework = Arc::new(builder.build().unwrap());
        let features = Arc::new(StaticFeatureSource::new(FeatureVector::zeros()));
        let mut resources = HashMap::new();
        resources.insert("/data".to_string(), vec![42u8; 128]);
        let server = PowServer::start(
            "127.0.0.1:0",
            Arc::clone(&framework),
            features,
            resources,
            ServerConfig::default(),
        )
        .unwrap();
        (server, framework)
    }

    #[test]
    fn fetch_solves_and_receives() {
        let (server, framework) = spawn_server(2.0, None);
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        let report = client.fetch("/data").unwrap();
        assert_eq!(report.body, vec![42u8; 128]);
        assert_eq!(report.difficulty.unwrap().bits(), 3); // score 2 → policy1 → 3
        assert!(report.attempts >= 1);
        let snap = framework.metrics().snapshot();
        assert_eq!(snap.challenges_issued, 1);
        assert_eq!(snap.solutions_accepted, 1);
        server.shutdown();
    }

    #[test]
    fn repeated_fetches_reuse_connection() {
        let (server, framework) = spawn_server(0.0, None);
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        for _ in 0..5 {
            let report = client.fetch("/data").unwrap();
            assert_eq!(report.body.len(), 128);
        }
        assert_eq!(framework.metrics().snapshot().solutions_accepted, 5);
        server.shutdown();
    }

    #[test]
    fn bypass_served_without_puzzle() {
        let (server, framework) = spawn_server(1.0, Some(5.0));
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        let report = client.fetch("/data").unwrap();
        assert_eq!(report.difficulty, None);
        assert_eq!(report.attempts, 0);
        assert_eq!(framework.metrics().snapshot().bypassed, 1);
        server.shutdown();
    }

    #[test]
    fn missing_resource_rejected() {
        let (server, _) = spawn_server(0.0, None);
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        match client.fetch("/nope") {
            Err(ClientError::Rejected { code, .. }) => assert_eq!(code, RejectCode::NotFound),
            other => panic!("expected rejection, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn parallel_solver_client_works() {
        let (server, _) = spawn_server(8.0, None); // policy1 → 9 bits
        let mut client = PowClient::connect(server.local_addr())
            .unwrap()
            .with_solver_threads(4);
        let report = client.fetch("/data").unwrap();
        assert_eq!(report.difficulty.unwrap().bits(), 9);
        server.shutdown();
    }

    #[test]
    fn ping_roundtrip() {
        let (server, _) = spawn_server(0.0, None);
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        let rtt = client.ping().unwrap();
        assert!(rtt < Duration::from_secs(5));
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_all_succeed() {
        let (server, framework) = spawn_server(3.0, None);
        let addr = server.local_addr();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = PowClient::connect(addr).unwrap();
                    client.fetch("/data").unwrap().body.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 128);
        }
        assert_eq!(framework.metrics().snapshot().solutions_accepted, 8);
        server.shutdown();
    }

    #[test]
    fn telemetry_endpoint_serves_parsable_snapshots() {
        let (server, framework) = spawn_server(2.0, None);
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        client.fetch("/data").unwrap();
        let snap = client.telemetry().unwrap();

        // The JSON body reflects the fetch we just made.
        assert!(snap.json.starts_with('{') && snap.json.ends_with('}'));
        assert!(
            snap.json.contains("\"challenges_issued\":1"),
            "{}",
            snap.json
        );
        assert!(snap.json.contains("\"solutions_accepted\":1"));
        assert!(snap.json.contains("\"stage_timings\":["));

        // The Prometheus exposition parses line by line: every line is a
        // `# TYPE` comment or `name[{labels}] value` with a numeric value.
        let mut samples = 0;
        for line in snap.prometheus.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE aipow_"), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            assert!(series.starts_with("aipow_"), "bad series in {line}");
            samples += 1;
        }
        assert!(samples >= 20, "thin exposition: {samples} samples");
        assert!(snap.prometheus.contains("aipow_solutions_accepted 1"));
        assert!(snap
            .prometheus
            .contains("aipow_stage_p99_ns{stage=\"score\"}"));
        let _ = framework;
        server.shutdown();
    }

    #[test]
    fn connect_performs_version_handshake() {
        let (server, _) = spawn_server(0.0, None);
        // connect() already exchanged hellos; the connection is still
        // usable for a normal fetch afterwards.
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.fetch("/data").unwrap().body.len(), 128);
        server.shutdown();
    }

    #[test]
    fn version_skew_surfaces_as_protocol_mismatch() {
        use std::io::{Read, Write};
        // A fake "old server": accepts one connection, swallows the
        // client hello, answers with a hello naming a different version.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
            let reply = aipow_wire::encode(&Message::Hello { version: 1 });
            stream.write_all(&reply).unwrap();
        });
        match PowClient::connect(addr) {
            Err(ClientError::ProtocolMismatch { detail }) => {
                assert!(detail.contains('1'), "detail: {detail}");
            }
            other => panic!("expected protocol mismatch, got {other:?}"),
        }
        fake.join().unwrap();
    }

    #[test]
    fn memory_hard_challenge_fetches_end_to_end() {
        // A suspicious score plus a low routing threshold sends this
        // client a memory-hard puzzle; the whole Figure 1 exchange must
        // still complete through the backend seam.
        let framework = Arc::new(
            FrameworkBuilder::new()
                .master_key([4u8; 32])
                .model(FixedScoreModel::new(ReputationScore::new(9.0).unwrap()))
                .policy(LinearPolicy::policy1())
                .config(FrameworkConfig {
                    memory_hard_above: Some(5.0),
                    memory_hard_arena_mib: Some(1),
                    ..Default::default()
                })
                .build()
                .unwrap(),
        );
        let features = Arc::new(StaticFeatureSource::new(FeatureVector::zeros()));
        let mut resources = HashMap::new();
        resources.insert("/data".to_string(), vec![7u8; 32]);
        let server = PowServer::start(
            "127.0.0.1:0",
            Arc::clone(&framework),
            features,
            resources,
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = PowClient::connect(server.local_addr()).unwrap();
        let report = client.fetch("/data").unwrap();
        assert_eq!(report.body, vec![7u8; 32]);
        assert!(report.attempts >= 1);
        assert_eq!(framework.metrics().snapshot().solutions_accepted, 1);
        server.shutdown();
    }

    #[test]
    fn error_display_nonempty() {
        let e = ClientError::Rejected {
            code: RejectCode::RateLimited,
            detail: "x".into(),
        };
        assert!(e.to_string().contains("rate limited"));
    }
}
