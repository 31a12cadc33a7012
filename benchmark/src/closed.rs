//! The four closed-loop workloads as burst drivers: `ping_floor`, the
//! exchange at depth 1 (`exchange_single`) and 32 (`exchange_pipelined`),
//! and `abuse_reject`.

use aipow_pow::solver::{solve, SolverOptions};
use aipow_pow::{Challenge, Issuer, NonceWidth, Solution, SystemClock, TimeSource, VerifyError};
use aipow_wire::{encode, Message, RejectCode};
use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use crate::deploy::{Deployment, MASTER_KEY, PATH_SMALL};
use crate::loadgen::{forge_mac, submit, BurstDriver, Conn, Recorder, ABUSE_KINDS};
use crate::stats::Rng;

/// Frames per burst in the pipelined workloads: the server's default
/// `max_batch`, so every burst can be admitted as one batch.
pub const PIPELINE_DEPTH: usize = 32;

const LOOPBACK: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);

fn submit_frame(solution: &Solution, path: &str) -> Vec<u8> {
    encode(&submit(solution, path))
}

/// `ping_floor`: one `Ping` per round trip; op = one matching `Pong`.
pub struct PingDriver {
    next_token: u64,
    sent: [u64; 2],
}

impl PingDriver {
    pub fn new(seed: u64) -> Self {
        PingDriver {
            next_token: Rng::new(seed).next_u64(),
            sent: [0; 2],
        }
    }
}

impl BurstDriver for PingDriver {
    fn next_burst(
        &mut self,
        conn: usize,
        out: &mut Vec<u8>,
        stopping: bool,
        _rec: &mut Recorder,
    ) -> usize {
        if stopping {
            return 0;
        }
        self.next_token = self.next_token.wrapping_add(1);
        self.sent[conn] = self.next_token;
        out.extend_from_slice(&encode(&Message::Ping {
            token: self.next_token,
        }));
        1
    }

    fn on_replies(
        &mut self,
        conn: usize,
        replies: &mut Vec<Message>,
        written: Instant,
        done: Instant,
        rec: &mut Recorder,
    ) {
        match replies.pop() {
            Some(Message::Pong { token }) if token == self.sent[conn] => {
                rec.op_ok(written, done, done)
            }
            other => rec.op_failed(
                done,
                format!("ping: expected pong {}, got {other:?}", self.sent[conn]),
            ),
        }
    }
}

/// Per-connection progress through the Figure-1 exchange.
#[derive(Default)]
struct ExchangeConn {
    /// Encoded solutions waiting to be written, and how many.
    solutions: Vec<u8>,
    pending: usize,
    /// The outstanding burst: this many grants, then this many
    /// challenges.
    grants_due: usize,
    challenges_due: usize,
    /// When the requests behind the solutions in flight (or waiting to
    /// be written) went out: where those ops' latency starts.
    solved_requests_written: Option<Instant>,
}

/// The full exchange, `depth` frames per burst: request → challenge →
/// solve → solution → grant; op = one grant whose body is the served
/// bytes.
pub struct ExchangeDriver<'a> {
    dep: &'a Deployment,
    depth: usize,
    request_burst: Vec<u8>,
    expected_bits: u8,
    conns: [ExchangeConn; 2],
}

impl<'a> ExchangeDriver<'a> {
    pub fn new(dep: &'a Deployment, depth: usize) -> Self {
        let request = encode(&Message::RequestResource {
            path: PATH_SMALL.to_string(),
        });
        ExchangeDriver {
            dep,
            depth,
            request_burst: request.repeat(depth),
            expected_bits: dep.expected_difficulty(LOOPBACK).bits(),
            conns: Default::default(),
        }
    }
}

impl BurstDriver for ExchangeDriver<'_> {
    /// At depth 1 a burst is one frame: a request, or the solution to the
    /// challenge just received. Deeper, a burst carries the solutions to
    /// the previous burst's challenges *and* the next requests, so each
    /// connection always has two server batches in flight and the reactor
    /// is never left waiting for the loadgen's wake-up.
    fn next_burst(
        &mut self,
        conn: usize,
        out: &mut Vec<u8>,
        stopping: bool,
        _rec: &mut Recorder,
    ) -> usize {
        let state = &mut self.conns[conn];
        state.grants_due = std::mem::take(&mut state.pending);
        out.append(&mut state.solutions);
        let overlap = self.depth > 1;
        state.challenges_due = if stopping || (state.grants_due > 0 && !overlap) {
            0
        } else {
            out.extend_from_slice(&self.request_burst);
            self.depth
        };
        state.grants_due + state.challenges_due
    }

    fn on_replies(
        &mut self,
        conn: usize,
        replies: &mut Vec<Message>,
        written: Instant,
        done: Instant,
        rec: &mut Recorder,
    ) {
        let state = &mut self.conns[conn];
        let body = self.dep.body(PATH_SMALL);
        let mut replies = replies.drain(..);
        for reply in replies.by_ref().take(state.grants_due) {
            match reply {
                Message::ResourceGranted { path, body: got }
                    if path == PATH_SMALL && got == body =>
                {
                    rec.counts.grants += 1;
                    rec.grant_ns
                        .push(done.duration_since(written).as_nanos() as u64);
                    let from = state
                        .solved_requests_written
                        .expect("solutions follow requests");
                    rec.op_ok(from, done, done);
                }
                other => {
                    rec.op_failed(done, format!("exchange: bad grant reply {}", brief(&other)))
                }
            }
        }
        if state.challenges_due == 0 {
            return;
        }
        state.solved_requests_written = Some(written);
        let solve_start = rec.tracing().then(Instant::now);
        for reply in replies {
            let challenge = match reply {
                Message::ChallengeIssued { challenge, path }
                    if path == PATH_SMALL
                        && challenge.client_ip() == LOOPBACK
                        && challenge.difficulty().bits() == self.expected_bits =>
                {
                    challenge
                }
                other => {
                    rec.op_failed(done, format!("exchange: bad challenge reply {other:?}"));
                    continue;
                }
            };
            rec.counts.challenges += 1;
            rec.challenge_ns
                .push(done.duration_since(written).as_nanos() as u64);
            match solve(&challenge, LOOPBACK, &SolverOptions::default()) {
                Ok(report) => {
                    state
                        .solutions
                        .extend_from_slice(&submit_frame(&report.solution, PATH_SMALL));
                    state.pending += 1;
                }
                Err(e) => rec.op_failed(done, format!("exchange: solve failed: {e}")),
            }
        }
        if let Some(start) = solve_start {
            rec.step(
                rec.current_op,
                "solve",
                start,
                start.elapsed().as_nanos() as u64,
            );
        }
    }
}

/// A reply without its body, for failure messages.
fn brief(msg: &Message) -> String {
    match msg {
        Message::ResourceGranted { path, body } => {
            format!("ResourceGranted({path}, {} bytes)", body.len())
        }
        other => format!("{other:?}"),
    }
}

/// How many submissions of each kind the pools hold.
const POOL: usize = 64;

/// `abuse_reject`: bursts of submissions that must all be refused, a
/// seeded mix of four kinds in every burst; op = one `Rejected` carrying
/// the expected code and reason.
pub struct AbuseDriver {
    /// `pools[kind][i]`: one encoded `SubmitSolution` frame.
    pools: [Vec<Vec<u8>>; 4],
    rng: Rng,
    /// Kinds of the burst outstanding on each connection, in order.
    sent: [Vec<usize>; 2],
}

impl AbuseDriver {
    /// Builds the four pools over `conn`. This issues challenges and has
    /// solutions accepted, so it runs before a window's counters are
    /// read, never inside it. Every pooled challenge stays live (default
    /// TTL 30 s) for longer than a window lasts.
    pub fn prepare(dep: &Deployment, conn: &mut Conn, seed: u64) -> io::Result<AbuseDriver> {
        let mut rng = Rng::new(seed ^ 0xAB05E);
        let fresh = |conn: &mut Conn| -> io::Result<Challenge> {
            conn.send(&encode(&Message::RequestResource {
                path: PATH_SMALL.to_string(),
            }))?;
            match conn.recv()? {
                Message::ChallengeIssued { challenge, .. } => Ok(challenge),
                other => Err(io::Error::other(format!(
                    "abuse pool: expected a challenge, got {other:?}"
                ))),
            }
        };

        let mut pools: [Vec<Vec<u8>>; 4] = Default::default();
        let expired_issuer = Issuer::new(&MASTER_KEY);
        let long_ago = SystemClock.now_ms().saturating_sub(120_000);
        let difficulty = dep.expected_difficulty(LOOPBACK);
        for _ in 0..POOL {
            // Forged MAC: a real challenge with one tag bit flipped.
            let c = fresh(conn)?;
            let forged = forge_mac(&c, rng.below(32) as usize, rng.below(8) as u32);
            pools[0].push(submit_frame(
                &Solution::new(forged, rng.next_u64(), NonceWidth::U64),
                PATH_SMALL,
            ));

            // Bad nonce: a live challenge and a nonce checked here to
            // miss the target. Invalid work does not consume the seed,
            // so the frame is refused the same way every time.
            let c = fresh(conn)?;
            let miss = (0..)
                .map(|_| Solution::new(c.clone(), rng.next_u64(), NonceWidth::U64))
                .find(|s| !s.meets_difficulty(LOOPBACK))
                .expect("half of all nonces miss a 1-bit target");
            pools[1].push(submit_frame(&miss, PATH_SMALL));

            // Replay: a solution the server accepts now, resubmitted in
            // the window while its seed is still in the guard.
            let c = fresh(conn)?;
            let solved = solve(&c, LOOPBACK, &SolverOptions::default())
                .map_err(|e| io::Error::other(e.to_string()))?
                .solution;
            let frame = submit_frame(&solved, PATH_SMALL);
            conn.send(&frame)?;
            match conn.recv()? {
                Message::ResourceGranted { .. } => pools[2].push(frame),
                other => {
                    return Err(io::Error::other(format!(
                        "abuse pool: seed solution refused: {other:?}"
                    )))
                }
            }

            // Expired: correctly MAC'd under the server's key, minted at
            // a past instant through the public issuer; no TTL knob moves.
            let c = expired_issuer.issue_at(LOOPBACK, difficulty, long_ago);
            pools[3].push(submit_frame(
                &Solution::new(c, rng.next_u64(), NonceWidth::U64),
                PATH_SMALL,
            ));
        }
        Ok(AbuseDriver {
            pools,
            rng,
            sent: Default::default(),
        })
    }
}

/// Whether `detail` is what the verifier says for abuse kind `kind`.
fn detail_matches(kind: usize, detail: &str) -> bool {
    match ABUSE_KINDS[kind] {
        "forged_mac" => detail == VerifyError::BadMac.to_string(),
        "bad_nonce" => {
            detail.starts_with("solution has ") && detail.contains("leading zero bits, needs")
        }
        "replay" => detail == VerifyError::Replayed.to_string(),
        "expired" => detail.starts_with("challenge expired at "),
        other => unreachable!("unknown abuse kind {other}"),
    }
}

impl BurstDriver for AbuseDriver {
    fn next_burst(
        &mut self,
        conn: usize,
        out: &mut Vec<u8>,
        stopping: bool,
        _rec: &mut Recorder,
    ) -> usize {
        if stopping {
            return 0;
        }
        self.sent[conn].clear();
        for slot in 0..PIPELINE_DEPTH {
            // Every kind appears in every burst; the rest is seeded.
            let kind = if slot < 4 {
                slot
            } else {
                self.rng.below(4) as usize
            };
            let pick = self.rng.below(POOL as u64) as usize;
            out.extend_from_slice(&self.pools[kind][pick]);
            self.sent[conn].push(kind);
        }
        PIPELINE_DEPTH
    }

    fn on_replies(
        &mut self,
        conn: usize,
        replies: &mut Vec<Message>,
        written: Instant,
        done: Instant,
        rec: &mut Recorder,
    ) {
        for (reply, &kind) in replies.drain(..).zip(&self.sent[conn]) {
            match reply {
                Message::Rejected { code, detail }
                    if code == RejectCode::InvalidSolution && detail_matches(kind, &detail) =>
                {
                    rec.counts.rejected[kind] += 1;
                    rec.op_ok(written, done, done);
                }
                other => rec.op_failed(
                    done,
                    format!(
                        "abuse: {} submission drew {}",
                        ABUSE_KINDS[kind],
                        brief(&other)
                    ),
                ),
            }
        }
    }
}
