//! The layer probe (P): the workload's own kinds of frame pushed,
//! in-process and single-threaded, through each layer's public functions
//! with a timer around each call. It runs after the windows, against a
//! second framework, so it never touches the measured server.

use aipow_core::{FeatureSource, Framework, RateLimiter};
use aipow_crypto::{auto_lanes, Sha256};
use aipow_net::reactor::{dispatch_frames, FrameAssembler, WriteQueue};
use aipow_policy::{Policy, PolicyContext};
use aipow_pow::solver::{measure_hash_rate_lanes, solve, SolverOptions};
use aipow_pow::{
    Challenge, Issuer, NonceWidth, ReplayGuard, Solution, SystemClock, TimeSource, Verifier,
};
use aipow_reputation::ReputationModel;
use aipow_wire::{decode, encode, Message, PROTOCOL_VERSION};
use std::hint::black_box;
use std::io;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use crate::deploy::{
    build_framework, build_limiter, trusted_ip, untrusted_ip, Deployment, MASTER_KEY, PATH_BIG,
    PATH_SMALL, UNTRUSTED_IPS,
};
use crate::loadgen::{forge_mac, submit};
use crate::spec::Workload;
use crate::stats::Rng;
use crate::trust_mix::{BENIGN_PER_S, FLOOD_PER_S};

/// Frames per probe set: enough for the timers to dwarf their own cost,
/// few enough that solving the sets stays under a second.
const SET: usize = 1_024;
const BATCH: usize = 32;

const LOOPBACK: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);

/// Mean nanoseconds per call of `f(i)` for `i` in `n/8..n`, after the
/// calls for `0..n/8` have warmed caches, allocator and branch history
/// untimed (the server's layers run warm; a cold probe reads far dearer).
fn timed(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let warm = n / 8;
    (0..warm).for_each(&mut f);
    let t = Instant::now();
    (warm..n).for_each(&mut f);
    t.elapsed().as_nanos() as f64 / (n - warm).max(1) as f64
}

/// The kinds of client frame the workloads send.
#[derive(Clone, Copy)]
enum Kind {
    Ping,
    Hello,
    /// A request from this class of address for this path.
    Request(Class, &'static str),
    /// A valid solution from a trusted-class address.
    Solution(&'static str),
    /// The four refused submissions, in equal parts.
    BadSolution,
}

#[derive(Clone, Copy)]
enum Class {
    Loopback,
    Trusted,
    Untrusted,
}

impl Class {
    fn ip(self, i: usize) -> IpAddr {
        match self {
            Class::Loopback => LOOPBACK,
            Class::Trusted => IpAddr::V4(trusted_ip(i as u32)),
            Class::Untrusted => IpAddr::V4(untrusted_ip(i as u32)),
        }
    }
}

/// Per-frame cost of one kind through each layer.
#[derive(Default, Clone, Copy)]
struct KindCost {
    decode: f64,
    assemble: f64,
    dispatch_b1: f64,
    dispatch_b32: f64,
    encode: f64,
    queue: f64,
}

struct Prober<'a> {
    dep: &'a Deployment,
    framework: std::sync::Arc<Framework>,
    limiter: Option<RateLimiter>,
    issuer: Issuer,
    rng: Rng,
    trusted_class: Class,
}

impl Prober<'_> {
    fn solved(&self, challenge: Challenge, ip: IpAddr) -> io::Result<Solution> {
        solve(&challenge, ip, &SolverOptions::default())
            .map(|r| r.solution)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// `n` fresh valid solutions against the probe framework, each from
    /// its own trusted-class address, or all from one when `one_peer`.
    fn fresh_solutions(&self, n: usize, one_peer: bool) -> io::Result<Vec<(Solution, IpAddr)>> {
        (0..n)
            .map(|i| {
                let ip = self.trusted_class.ip(if one_peer { 0 } else { i });
                let fv = self.dep.features.features_for(ip);
                let issued = self
                    .framework
                    .handle_request(ip, &fv)
                    .challenge()
                    .ok_or_else(|| io::Error::other("probe: request was bypassed"))?;
                Ok((self.solved(issued.challenge, ip)?, ip))
            })
            .collect()
    }

    /// One refused submission of each abuse kind, in `ABUSE_KINDS` order.
    /// `issue` mints live challenges and `accept` redeems one under the
    /// verifier the set will be refused by, so the replay is in its guard.
    fn bad_solutions(
        &mut self,
        ip: IpAddr,
        mut issue: impl FnMut() -> Challenge,
        accept: impl Fn(&Solution) -> bool,
    ) -> io::Result<[Solution; 4]> {
        let forged = forge_mac(&issue(), 0, 0);
        let live = issue();
        let miss = (0..)
            .map(|_| Solution::new(live.clone(), self.rng.next_u64(), NonceWidth::U64))
            .find(|s| !s.meets_difficulty(ip))
            .expect("at least half of all nonces miss the target");
        let replay = self.solved(issue(), ip)?;
        if !accept(&replay) {
            return Err(io::Error::other("probe: replay seed solution was refused"));
        }
        // Expiry is checked before the replay guard, so this challenge's
        // seed may coincide with one the server-keyed issuer also drew.
        let long_ago = SystemClock.now_ms().saturating_sub(120_000);
        let expired = self.issuer.issue_at(ip, live.difficulty(), long_ago);
        Ok([
            Solution::new(forged, 0, NonceWidth::U64),
            miss,
            replay,
            Solution::new(expired, 0, NonceWidth::U64),
        ])
    }

    /// `n` client frames of `kind`, valid against the probe framework,
    /// with the peer address each must be dispatched for. A batch is one
    /// connection's frames, so the batch sets come from `one_peer`.
    fn frames(
        &mut self,
        kind: Kind,
        n: usize,
        one_peer: bool,
    ) -> io::Result<Vec<(Message, IpAddr)>> {
        let index = |i: usize| if one_peer { 0 } else { i };
        Ok(match kind {
            Kind::Ping => (0..n)
                .map(|i| (Message::Ping { token: i as u64 }, LOOPBACK))
                .collect(),
            Kind::Hello => (0..n)
                .map(|i| {
                    (
                        Message::Hello {
                            version: PROTOCOL_VERSION,
                        },
                        self.trusted_class.ip(index(i)),
                    )
                })
                .collect(),
            Kind::Request(class, path) => (0..n)
                .map(|i| {
                    (
                        Message::RequestResource {
                            path: path.to_string(),
                        },
                        class.ip(index(i)),
                    )
                })
                .collect(),
            Kind::Solution(path) => self
                .fresh_solutions(n, one_peer)?
                .iter()
                .map(|(s, ip)| (submit(s, path), *ip))
                .collect(),
            Kind::BadSolution => {
                let fw = std::sync::Arc::clone(&self.framework);
                let fv = self.dep.default_features;
                let bad = self.bad_solutions(
                    LOOPBACK,
                    || {
                        fw.handle_request(LOOPBACK, &fv)
                            .challenge()
                            .expect("no bypass configured")
                            .challenge
                    },
                    |s| fw.handle_solution(s, LOOPBACK).is_ok(),
                )?;
                (0..n)
                    .map(|i| (submit(&bad[i % 4], PATH_SMALL), LOOPBACK))
                    .collect()
            }
        })
    }

    fn dispatch(&self, frames: Vec<Message>, ip: IpAddr) -> Vec<Message> {
        dispatch_frames(
            frames,
            ip,
            &self.framework,
            &*self.dep.features,
            &self.dep.resources,
            &self.limiter,
        )
    }

    fn kind_cost(&mut self, kind: Kind) -> io::Result<KindCost> {
        let for_b1 = self.frames(kind, SET, false)?;
        let encoded: Vec<Vec<u8>> = for_b1.iter().map(|(m, _)| encode(m)).collect();
        let decode_ns = timed(SET, |i| {
            black_box(decode(black_box(&encoded[i])).expect("probe frames decode"));
        });
        let mut assembler = FrameAssembler::new();
        let assemble = timed(SET, |i| {
            assembler.ingest(&encoded[i]);
            black_box(assembler.next_frame().expect("probe frames decode"));
        });

        let mut replies = Vec::with_capacity(SET);
        let dispatch_b1 = timed(SET, |i| {
            let (msg, ip) = &for_b1[i];
            replies.extend(self.dispatch(vec![msg.clone()], *ip));
        });
        let for_b32 = self.frames(kind, SET, true)?;
        let chunks: Vec<&[(Message, IpAddr)]> = for_b32.chunks(BATCH).collect();
        let dispatch_b32 = timed(chunks.len(), |i| {
            let frames = chunks[i].iter().map(|(m, _)| m.clone()).collect();
            black_box(self.dispatch(frames, chunks[i][0].1));
        }) / BATCH as f64;

        let mut reply_frames = Vec::with_capacity(SET);
        let encode_ns = timed(SET, |i| reply_frames.push(encode(black_box(&replies[i]))));
        let mut queue = WriteQueue::new(usize::MAX);
        let queue_ns = timed(SET, |i| {
            let _ = black_box(queue.push(&reply_frames[i]));
            queue.consume(reply_frames[i].len());
        });
        Ok(KindCost {
            decode: decode_ns,
            assemble,
            dispatch_b1,
            dispatch_b32,
            encode: encode_ns,
            queue: queue_ns,
        })
    }
}

/// The frame mix of one op of `workload`: (kind, frames per op).
fn mix(workload: Workload) -> Vec<(Kind, f64)> {
    match workload {
        Workload::PingFloor => vec![(Kind::Ping, 1.0)],
        Workload::ExchangeSingle | Workload::ExchangePipelined => vec![
            (Kind::Request(Class::Loopback, PATH_SMALL), 1.0),
            (Kind::Solution(PATH_SMALL), 1.0),
        ],
        Workload::AbuseReject => vec![(Kind::BadSolution, 1.0)],
        // One benign grant is the op; the flood's requests that arrive
        // per benign fetch are part of what the op costs the server.
        Workload::TrustMix => vec![
            (Kind::Hello, 1.0),
            (Kind::Request(Class::Trusted, PATH_BIG), 1.0),
            (Kind::Solution(PATH_BIG), 1.0),
            (
                Kind::Request(Class::Untrusted, PATH_BIG),
                FLOOD_PER_S / BENIGN_PER_S,
            ),
        ],
    }
}

/// Runs the whole probe; returns `(metric, value)` pairs and the summed
/// probe nanoseconds for one op's frames at the workload's batch depth.
pub fn run(
    dep: &Deployment,
    workload: Workload,
    seed: u64,
) -> io::Result<(Vec<(&'static str, f64)>, f64)> {
    let trust = workload == Workload::TrustMix;
    let mut prober = Prober {
        dep,
        framework: build_framework(&dep.model, &dep.policy)?,
        // Never refuses: a batch set sends 32 requests from one address.
        limiter: trust.then(|| build_limiter(1e9)),
        issuer: Issuer::new(&MASTER_KEY),
        rng: Rng::new(seed ^ 0x9208E),
        trusted_class: if trust {
            Class::Trusted
        } else {
            Class::Loopback
        },
    };
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Mix-weighted per-frame costs, and the op's budget.
    let mut frames_per_op = 0.0;
    let mut sum = KindCost::default();
    let mut budget_ns = 0.0;
    for (kind, weight) in mix(workload) {
        let c = prober.kind_cost(kind)?;
        frames_per_op += weight;
        sum.decode += weight * c.decode;
        sum.assemble += weight * c.assemble;
        sum.dispatch_b1 += weight * c.dispatch_b1;
        sum.dispatch_b32 += weight * c.dispatch_b32;
        sum.encode += weight * c.encode;
        sum.queue += weight * c.queue;
        // `assemble` includes the decode, `dispatch` includes the core
        // and pow work, so these four cover a frame once.
        let dispatch = if workload.depth() == 1 {
            c.dispatch_b1
        } else {
            c.dispatch_b32
        };
        budget_ns += weight * (c.assemble + dispatch + c.encode + c.queue);
    }
    out.push(("wire.decode_ns_per_frame", sum.decode / frames_per_op));
    out.push(("wire.encode_ns_per_frame", sum.encode / frames_per_op));
    out.push((
        "net.conn.assemble_ns_per_frame",
        sum.assemble / frames_per_op,
    ));
    out.push(("net.conn.queue_ns_per_frame", sum.queue / frames_per_op));
    out.push((
        "net.dispatch.ns_per_frame.b1",
        sum.dispatch_b1 / frames_per_op,
    ));
    out.push((
        "net.dispatch.ns_per_frame.b32",
        sum.dispatch_b32 / frames_per_op,
    ));

    // core: the two admission entry points at batch 1 and 32.
    let fw = std::sync::Arc::clone(&prober.framework);
    let ip = prober.trusted_class.ip(0);
    let fv = dep.features.features_for(ip);
    out.push((
        "core.handle_request_ns.b1",
        timed(SET, |_| {
            black_box(fw.handle_request_batch(&[(ip, &fv)]));
        }),
    ));
    let batch: Vec<_> = (0..BATCH).map(|_| (ip, &fv)).collect();
    out.push((
        "core.handle_request_ns.b32",
        timed(SET / BATCH, |_| {
            black_box(fw.handle_request_batch(&batch));
        }) / BATCH as f64,
    ));
    let sols = prober.fresh_solutions(SET, false)?;
    out.push((
        "core.handle_solution_ns.b1",
        timed(SET, |i| {
            black_box(fw.handle_solution_batch(&[(&sols[i].0, sols[i].1)])[0].is_ok());
        }),
    ));
    let sols = prober.fresh_solutions(SET, false)?;
    let refs: Vec<(&Solution, IpAddr)> = sols.iter().map(|(s, ip)| (s, *ip)).collect();
    out.push((
        "core.handle_solution_ns.b32",
        timed(SET / BATCH, |i| {
            black_box(fw.handle_solution_batch(&refs[i * BATCH..(i + 1) * BATCH]));
        }) / BATCH as f64,
    ));
    // The limiter as the workload loads it: cycling through four times
    // its capacity in addresses (every call evicts), or one address.
    let limiter = build_limiter(1e9);
    let now = SystemClock.now_ms();
    let cycle = if trust { UNTRUSTED_IPS as usize } else { 1 };
    out.push((
        "core.rate_limiter.allow_ns",
        timed(cycle.max(8 * SET), |i| {
            black_box(limiter.allow(IpAddr::V4(untrusted_ip((i % cycle) as u32)), now));
        }),
    ));
    out.push((
        "core.features.lookup_ns",
        timed(16 * SET, |i| {
            black_box(dep.features.features_for(prober.trusted_class.ip(i)));
        }),
    ));

    // pow: issuer and verifier on their own, keyed like the server's.
    let issuer = Issuer::new(&MASTER_KEY);
    let difficulty = dep.expected_difficulty(ip);
    out.push((
        "pow.issuer.issue_ns.b1",
        timed(SET, |_| {
            black_box(issuer.issue_at(ip, difficulty, now));
        }),
    ));
    let requests = vec![(ip, difficulty); BATCH];
    out.push((
        "pow.issuer.issue_ns.b32",
        timed(SET / BATCH, |_| {
            black_box(issuer.issue_batch_at(&requests, now));
        }) / BATCH as f64,
    ));
    let verifier = Verifier::new(&MASTER_KEY);
    let mint = |n: usize| -> io::Result<Vec<(Solution, IpAddr)>> {
        (0..n)
            .map(|_| Ok((prober.solved(issuer.issue_at(ip, difficulty, now), ip)?, ip)))
            .collect()
    };
    let set = mint(SET)?;
    let accept_b1 = timed(SET, |i| {
        black_box(verifier.verify(&set[i].0, set[i].1).is_ok());
    });
    out.push(("pow.verifier.accept_ns.b1", accept_b1));
    let set = mint(SET)?;
    out.push((
        "pow.verifier.accept_ns.b32",
        timed(SET / BATCH, |i| {
            black_box(verifier.verify_batch(&set[i * BATCH..(i + 1) * BATCH]));
        }) / BATCH as f64,
    ));
    // Same address and difficulty as the accepts above, so the ratio
    // compares like with like.
    let bad = prober.bad_solutions(
        ip,
        || issuer.issue_at(ip, difficulty, now),
        |s| verifier.verify(s, ip).is_ok(),
    )?;
    let mut dearest_reject: f64 = 0.0;
    for (name, solution) in [
        "pow.verifier.reject_ns.forged_mac",
        "pow.verifier.reject_ns.bad_nonce",
        "pow.verifier.reject_ns.replay",
        "pow.verifier.reject_ns.expired",
    ]
    .into_iter()
    .zip(&bad)
    {
        let ns = timed(4 * SET, |_| {
            black_box(verifier.verify(black_box(solution), ip).is_err());
        });
        dearest_reject = dearest_reject.max(ns);
        out.push((name, ns));
    }
    out.push((
        "pow.verifier.reject_over_accept",
        dearest_reject / accept_b1,
    ));
    let guard = ReplayGuard::new(1 << 20);
    let seeds: Vec<[u8; 16]> = (0..16 * SET)
        .map(|_| {
            let mut seed = [0u8; 16];
            seed[..8].copy_from_slice(&prober.rng.next_u64().to_le_bytes());
            seed[8..].copy_from_slice(&prober.rng.next_u64().to_le_bytes());
            seed
        })
        .collect();
    out.push((
        "pow.replay.check_insert_ns",
        timed(seeds.len(), |i| {
            black_box(guard.check_and_insert(&seeds[i], now + 30_000, now));
        }),
    ));
    out.push((
        "pow.solver.attempts_per_s.lanes1",
        measure_hash_rate_lanes(400_000, 1),
    ));
    out.push((
        "pow.solver.attempts_per_s.auto",
        measure_hash_rate_lanes(400_000, auto_lanes()),
    ));

    // reputation, policy, crypto.
    let model = &dep.model;
    out.push((
        "reputation.score_ns",
        timed(16 * SET, |_| {
            black_box(model.score(black_box(&fv)));
        }),
    ));
    let score = model.score(&fv);
    let ctx = PolicyContext::default();
    out.push((
        "policy.difficulty_ns",
        timed(64 * SET, |_| {
            black_box(dep.policy.difficulty_for(black_box(score), &ctx));
        }),
    ));
    out.push(("crypto.sha256_ns_per_hash", sha256_ns_per_hash()));
    Ok((out, budget_ns))
}

/// One SHA-256 of a 64-byte message: the machine-speed reference printed
/// beside every run.
pub fn sha256_ns_per_hash() -> f64 {
    let mut block = [0x5Au8; 64];
    timed(32 * SET, |i| {
        block[0] = i as u8;
        black_box(Sha256::digest(black_box(&block)));
    })
}
