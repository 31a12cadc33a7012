//! `trust_mix`: the paper's scenario, open loop. Trusted clients fetch a
//! 16 KiB resource while a flood from cycling untrusted addresses asks
//! for challenges it never solves; every op is a fresh short-lived
//! connection leaving from its own source address.

use aipow_pow::solver::{solve, SolverOptions};
use aipow_wire::{encode, Message, RejectCode, PROTOCOL_VERSION};
use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::time::{Duration, Instant};

use crate::bind::connect_from;
use crate::deploy::{
    trusted_ip, untrusted_ip, Deployment, PATH_BIG, RATE_LIMIT_MAX_CLIENTS, TRUSTED_IPS,
    UNTRUSTED_IPS,
};
use crate::loadgen::{submit, Conn, Recorder};
use crate::schedule::{self, Arrival, ArrivalKind, Clock};

/// Arrival rates, calibrated once on seed 1 and frozen (see the README
/// for the numbers they came from). One op runs at a time, so the two
/// streams together must leave the loadgen slack: benign fetches take
/// about a fifth of its time and the flood about a sixth at these rates.
///
/// The flood rate is deliberately not a multiple of the benign rate. Both
/// streams are strictly periodic, so with 500 and 1 000 every benign
/// fetch of a run met the flood at the same seeded offset, waited behind
/// a flood op or did not for the whole run, and `op_p50_us` moved 30 %
/// with the seed. At 1 013 the offset sweeps its whole range every 77 ms.
pub const BENIGN_PER_S: f64 = 500.0;
pub const FLOOD_PER_S: f64 = 1_013.0;

/// Fetches of each class in the closed-loop throttle probe.
pub const PROBE_FETCHES: u32 = 300;

struct RealClock(Instant);

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, at_ns: u64) {
        // Sleep to within 200 µs, then spin: the sleep's wake-up jitter
        // would otherwise be read as generator lateness.
        loop {
            let now = self.now_ns();
            if now >= at_ns {
                return;
            }
            if at_ns - now > 200_000 {
                std::thread::sleep(Duration::from_nanos(at_ns - now - 200_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Fails the workload loudly if the host will not let a socket leave
/// from a loopback alias; there is no single-address fallback.
pub fn probe_source_binding(dep: &Deployment) -> io::Result<()> {
    let src = trusted_ip(0);
    let stream = connect_from(src, dep.addr).map_err(|e| {
        io::Error::other(format!(
            "trust_mix needs to connect from loopback aliases; binding {src} failed: {e}"
        ))
    })?;
    if stream.local_addr()?.ip() != IpAddr::V4(src) {
        return Err(io::Error::other(format!(
            "bound {src} but the connection left from another address"
        )));
    }
    Ok(())
}

/// What one fetch cost the client.
pub struct Fetch {
    pub bits: u8,
    pub attempts: u64,
}

/// One full fetch from `src`: connect → hello → request → solve →
/// solution → grant, every reply checked. `Ok(Err(why))` is a failed op,
/// `Err(e)` an I/O error that ends the run.
fn fetch(
    dep: &Deployment,
    src: Ipv4Addr,
    rec: &mut Recorder,
    op: u64,
) -> io::Result<Result<Fetch, String>> {
    let ip = IpAddr::V4(src);
    let t0 = Instant::now();
    let mut conn = Conn::from_stream(connect_from(src, dep.addr)?)?;
    conn.timed = rec.tracing();
    rec.counts.connects += 1;
    rec.step(op, "connect", t0, t0.elapsed().as_nanos() as u64);

    conn.send(&encode(&Message::Hello {
        version: PROTOCOL_VERSION,
    }))?;
    let hello = conn.recv()?;
    if !matches!(hello, Message::Hello { version } if version == PROTOCOL_VERSION) {
        return Ok(Err(format!("trust_mix: bad hello reply {hello:?}")));
    }

    let requested = Instant::now();
    conn.send(&encode(&Message::RequestResource {
        path: PATH_BIG.to_string(),
    }))?;
    let twin_allows = dep.twin_allows(ip);
    let challenge = match conn.recv()? {
        Message::ChallengeIssued { challenge, path } if path == PATH_BIG && twin_allows => {
            challenge
        }
        Message::Rejected {
            code: RejectCode::RateLimited,
            ..
        } => {
            rec.counts.rate_limited += 1;
            return Ok(Err(format!("trust_mix: {src} was rate limited")));
        }
        other => return Ok(Err(format!("trust_mix: bad challenge reply {other:?}"))),
    };
    rec.counts.challenges += 1;
    rec.challenge_ns.push(requested.elapsed().as_nanos() as u64);
    let expected = dep.expected_difficulty(ip);
    if challenge.client_ip() != ip || challenge.difficulty() != expected {
        return Ok(Err(format!(
            "trust_mix: challenge for {} at {} bits, expected {src} at {} bits",
            challenge.client_ip(),
            challenge.difficulty().bits(),
            expected.bits()
        )));
    }

    let solve_start = Instant::now();
    let report = match solve(&challenge, ip, &SolverOptions::default()) {
        Ok(report) => report,
        Err(e) => return Ok(Err(format!("trust_mix: solve failed: {e}"))),
    };
    rec.step(
        op,
        "solve",
        solve_start,
        solve_start.elapsed().as_nanos() as u64,
    );

    let submitted = Instant::now();
    conn.send(&encode(&submit(&report.solution, PATH_BIG)))?;
    let granted = conn.recv()?;
    match granted {
        Message::ResourceGranted { path, body }
            if path == PATH_BIG && body == dep.body(PATH_BIG) => {}
        Message::ResourceGranted { body, .. } => {
            return Ok(Err(format!(
                "trust_mix: grant body of {} bytes is not the served resource",
                body.len()
            )))
        }
        other => return Ok(Err(format!("trust_mix: bad grant reply {other:?}"))),
    }
    rec.counts.grants += 1;
    rec.grant_ns.push(submitted.elapsed().as_nanos() as u64);
    finish_conn(conn, rec, op, t0);
    Ok(Ok(Fetch {
        bits: expected.bits(),
        attempts: report.attempts,
    }))
}

/// A flooder's op: connect → request → read the challenge → close.
fn flood(
    dep: &Deployment,
    src: Ipv4Addr,
    rec: &mut Recorder,
    op: u64,
) -> io::Result<Result<u8, String>> {
    let ip = IpAddr::V4(src);
    let t0 = Instant::now();
    let mut conn = Conn::from_stream(connect_from(src, dep.addr)?)?;
    conn.timed = rec.tracing();
    rec.counts.connects += 1;
    rec.step(op, "connect", t0, t0.elapsed().as_nanos() as u64);
    conn.send(&encode(&Message::RequestResource {
        path: PATH_BIG.to_string(),
    }))?;
    let twin_allows = dep.twin_allows(ip);
    let outcome = match conn.recv()? {
        Message::ChallengeIssued { challenge, .. } if twin_allows => {
            rec.counts.challenges += 1;
            let expected = dep.expected_difficulty(ip);
            if challenge.client_ip() == ip && challenge.difficulty() == expected {
                Ok(expected.bits())
            } else {
                Err(format!(
                    "trust_mix: flood challenge for {} at {} bits, expected {src} at {} bits",
                    challenge.client_ip(),
                    challenge.difficulty().bits(),
                    expected.bits()
                ))
            }
        }
        Message::Rejected {
            code: RejectCode::RateLimited,
            ..
        } => {
            rec.counts.rate_limited += 1;
            Err(format!("trust_mix: flood source {src} was rate limited"))
        }
        other => Err(format!("trust_mix: bad flood reply {other:?}")),
    };
    finish_conn(conn, rec, op, t0);
    Ok(outcome)
}

fn finish_conn(mut conn: Conn, rec: &mut Recorder, op: u64, t0: Instant) {
    rec.bytes += conn.bytes_in + conn.bytes_out;
    if rec.tracing() {
        let (wait_ns, decode_ns) = conn.take_timing();
        rec.step(op, "wait", t0, wait_ns);
        rec.step(op, "decode", t0, decode_ns);
    }
}

/// Difficulty bits the window's challenges carried, per class, for
/// `policy.difficulty_bits.*`.
#[derive(Default)]
pub struct BitsSeen {
    pub trusted: Vec<u64>,
    pub untrusted: Vec<u64>,
}

/// The set-up's first ops: one trusted fetch and one flood op, so every
/// path has run once before `setup_s` stops. No untrusted solve: thousands
/// of hashes of pure luck would drown the set-up they are meant to time.
pub fn first_ops(dep: &Deployment, rec: &mut Recorder) -> io::Result<()> {
    let fetched = fetch(dep, trusted_ip(0), rec, 0)?.map(drop);
    let flooded = flood(dep, untrusted_ip(0), rec, 0)?.map(drop);
    fetched.and(flooded).map_err(io::Error::other)
}

/// Fills the limiter's bucket table before a window: one flood op from
/// each of `RATE_LIMIT_MAX_CLIENTS` distinct untrusted addresses, as fast
/// as they go, so eviction is at its steady state from the first slice.
pub fn prefill(dep: &Deployment, rec: &mut Recorder, cycle_from: u32) -> io::Result<()> {
    for i in 0..RATE_LIMIT_MAX_CLIENTS as u32 {
        if let Err(why) = flood(dep, untrusted_ip(cycle_from.wrapping_add(i)), rec, 0)? {
            return Err(io::Error::other(why));
        }
    }
    Ok(())
}

/// One open-loop phase on the frozen schedule. Only benign fetches are
/// ops; a flood op that misbehaves is still a failure.
pub fn run_phase(
    dep: &Deployment,
    seed: u64,
    rec: &mut Recorder,
    bits: &mut BitsSeen,
) -> io::Result<u64> {
    let duration_ns = rec.deadline().duration_since(rec.start).as_nanos() as u64;
    let arrivals = schedule::build(
        seed,
        duration_ns,
        BENIGN_PER_S,
        FLOOD_PER_S,
        (TRUSTED_IPS, UNTRUSTED_IPS),
    );
    let clock = RealClock(rec.start);
    let start = rec.start;
    let at = |ns: u64| start + Duration::from_nanos(ns);
    for arrival in &arrivals {
        let started_ns = schedule::start(&clock, arrival);
        let op = rec.begin_op();
        let intended = at(arrival.at_ns);
        let outcome = run_arrival(dep, arrival, rec, op, bits)?;
        let timing = schedule::finish(&clock, arrival, started_ns);
        rec.late_ns.push(timing.late_ns());
        rec.end_op(op, at(timing.started_ns), at(timing.finished_ns), 1);
        match (arrival.kind, outcome) {
            (ArrivalKind::Benign, Ok(())) => rec.op_ok(intended, at(timing.finished_ns), intended),
            (ArrivalKind::Flood, Ok(())) => {}
            (_, Err(why)) => rec.op_failed(intended, why),
        }
    }
    Ok(schedule::hash(&arrivals))
}

fn run_arrival(
    dep: &Deployment,
    arrival: &Arrival,
    rec: &mut Recorder,
    op: u64,
    bits: &mut BitsSeen,
) -> io::Result<Result<(), String>> {
    Ok(match arrival.kind {
        ArrivalKind::Benign => fetch(dep, trusted_ip(arrival.source), rec, op)?
            .map(|f| bits.trusted.push(f.bits as u64)),
        ArrivalKind::Flood => flood(dep, untrusted_ip(arrival.source), rec, op)?
            .map(|b| bits.untrusted.push(b as u64)),
    })
}

/// The paper's Figure-2 reading, closed loop after the traced window:
/// full fetches with real solves from each class.
pub struct ThrottleProbe {
    pub trusted_fetch_ns: Vec<u64>,
    pub untrusted_fetch_ns: Vec<u64>,
    pub trusted_attempts: Vec<u64>,
    pub untrusted_attempts: Vec<u64>,
}

pub fn throttle_probe(
    dep: &Deployment,
    rec: &mut Recorder,
    fetches: u32,
) -> io::Result<ThrottleProbe> {
    let mut probe = ThrottleProbe {
        trusted_fetch_ns: Vec::new(),
        untrusted_fetch_ns: Vec::new(),
        trusted_attempts: Vec::new(),
        untrusted_attempts: Vec::new(),
    };
    for i in 0..fetches {
        for (src, times, attempts) in [
            (
                trusted_ip(i * 7),
                &mut probe.trusted_fetch_ns,
                &mut probe.trusted_attempts,
            ),
            (
                untrusted_ip(i * 131),
                &mut probe.untrusted_fetch_ns,
                &mut probe.untrusted_attempts,
            ),
        ] {
            let t0 = Instant::now();
            match fetch(dep, src, rec, 0)? {
                Ok(f) => {
                    times.push(t0.elapsed().as_nanos() as u64);
                    attempts.push(f.attempts);
                }
                Err(why) => return Err(io::Error::other(why)),
            }
        }
    }
    Ok(probe)
}
