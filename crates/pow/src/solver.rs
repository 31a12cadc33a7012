//! The puzzle solver (paper §II.4).
//!
//! “The data received from the puzzle generation module are concatenated
//! with the client's IP address to form a string that is not altered. To
//! this, a 32-bit string is added, which the client modifies upon each hash
//! function evaluation. The client performs evaluations on this input until
//! it finds an output with a prefix of d zeros.”
//!
//! The solver dispatches the work function through the challenge's
//! [`PuzzleBackend`](crate::PuzzleBackend): each backend prepares a
//! [`SolveCursor`](crate::SolveCursor) once per challenge (the SHA-256
//! cursor holds the absorbed-prefix midstate, the memory-hard cursor its
//! arena handle) and is asked for one digest per nonce. For the SHA-256
//! backend with [`SolverOptions::lanes`] above 1 the solver additionally
//! broadcasts the midstate into the multi-buffer kernel and tries 4 or 8
//! nonces per compression loop, falling back to scalar stepping near budget
//! and nonce-space boundaries so the attempt accounting and the found nonce
//! are identical to a scalar run. Other backends always step scalar — the
//! memory-hard walk's loads are data-dependent and do not batch.

use crate::backend::{BackendId, BackendRegistry};
use crate::challenge::{Challenge, NonceWidth, Solution};
use aipow_crypto::sha256::Sha256;
use aipow_crypto::sha256_wide::{WideHasher, MAX_LANES};
use core::fmt;
use std::net::IpAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Options controlling a solve run.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Stop after this many attempts (None = run until the nonce space of
    /// the selected width exhausts).
    pub max_attempts: Option<u64>,
    /// Use a 32-bit nonce exactly as the paper specifies. The default is a
    /// 64-bit nonce, which cannot practically exhaust.
    pub strict_u32: bool,
    /// First nonce to try. Parallel solving stripes the space by giving
    /// each worker a different starting offset.
    pub start_nonce: u64,
    /// Step between successive nonces (1 for serial solving).
    pub nonce_step: u64,
    /// Nonces hashed per multi-buffer kernel round (clamped to
    /// 1..=[`MAX_LANES`]). 8 and above selects 8-wide rounds, 4..=7
    /// selects 4-wide, below 4 the scalar path. The search order,
    /// attempt count, and found nonce are identical at every width; the
    /// default of 1 keeps single calls scalar — pass
    /// [`aipow_crypto::auto_lanes`] for full throughput.
    pub lanes: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_attempts: None,
            strict_u32: false,
            start_nonce: 0,
            nonce_step: 1,
            lanes: 1,
        }
    }
}

impl SolverOptions {
    /// Paper-faithful options: 32-bit nonce.
    pub fn strict() -> Self {
        SolverOptions {
            strict_u32: true,
            ..Self::default()
        }
    }

    fn width(&self) -> NonceWidth {
        if self.strict_u32 {
            NonceWidth::U32
        } else {
            NonceWidth::U64
        }
    }
}

/// Why a solve run terminated without a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The configured attempt budget was exhausted.
    BudgetExhausted {
        /// Attempts performed before giving up.
        attempts: u64,
    },
    /// The nonce space of the selected width was exhausted.
    NonceSpaceExhausted {
        /// Attempts performed before giving up.
        attempts: u64,
    },
    /// Another worker (or the caller) cancelled the run.
    Cancelled {
        /// Attempts performed before cancellation.
        attempts: u64,
    },
    /// The challenge names a puzzle backend this solver has no
    /// implementation for.
    UnknownBackend {
        /// The unrecognized backend id.
        id: BackendId,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::BudgetExhausted { attempts } => {
                write!(f, "attempt budget exhausted after {attempts} attempts")
            }
            SolveError::NonceSpaceExhausted { attempts } => {
                write!(f, "nonce space exhausted after {attempts} attempts")
            }
            SolveError::Cancelled { attempts } => {
                write!(f, "solve cancelled after {attempts} attempts")
            }
            SolveError::UnknownBackend { id } => {
                write!(f, "challenge names unknown puzzle backend {id}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The outcome of a successful solve run.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The found solution.
    pub solution: Solution,
    /// Number of hash evaluations performed (across all workers for
    /// parallel runs).
    pub attempts: u64,
    /// Wall-clock time spent solving.
    pub elapsed: Duration,
}

impl SolveReport {
    /// Effective hash rate of the run in hashes per second.
    pub fn hash_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return self.attempts as f64;
        }
        self.attempts as f64 / secs
    }
}

/// Solves `challenge` for `client_ip` on the calling thread.
///
/// # Errors
///
/// Returns [`SolveError::BudgetExhausted`] or
/// [`SolveError::NonceSpaceExhausted`] if no qualifying nonce was found
/// within the configured limits.
pub fn solve(
    challenge: &Challenge,
    client_ip: IpAddr,
    options: &SolverOptions,
) -> Result<SolveReport, SolveError> {
    let cancel = AtomicBool::new(false);
    solve_cancellable(challenge, client_ip, options, &cancel)
}

/// Solves with an external cancellation flag; checked every 1024 attempts.
///
/// # Errors
///
/// As [`solve`], plus [`SolveError::Cancelled`] when `cancel` becomes true.
pub fn solve_cancellable(
    challenge: &Challenge,
    client_ip: IpAddr,
    options: &SolverOptions,
    cancel: &AtomicBool,
) -> Result<SolveReport, SolveError> {
    let width = options.width();
    let need_bits = challenge.difficulty().bits() as u32;
    let prefix = challenge.preimage_prefix(client_ip);
    let lanes = options.lanes.clamp(1, MAX_LANES);

    let backend =
        BackendRegistry::global()
            .get(challenge.backend())
            .ok_or(SolveError::UnknownBackend {
                id: challenge.backend(),
            })?;
    let mut cursor = backend.solve_cursor(challenge.backend_param(), &prefix);

    // The multi-buffer fast path is SHA-256-specific: it broadcasts the
    // absorbed-prefix midstate across lanes. Other backends step scalar
    // through their cursor.
    let midstate = (challenge.backend() == BackendId::SHA256 && lanes >= 4).then(|| {
        let mut midstate = Sha256::new();
        midstate.update(&prefix);
        midstate
    });

    let start = Instant::now();
    let mut attempts: u64 = 0;
    let mut nonce = options.start_nonce;
    let step = options.nonce_step.max(1);

    loop {
        if let Some(budget) = options.max_attempts {
            if attempts >= budget {
                return Err(SolveError::BudgetExhausted { attempts });
            }
        }
        // relaxed: pure cancellation flag; results travel through the
        // scoped join
        if attempts.is_multiple_of(1024) && cancel.load(Ordering::Relaxed) {
            return Err(SolveError::Cancelled { attempts });
        }

        // Pick the widest round the remaining budget and nonce space
        // allow; ragged tails drop to scalar so attempt accounting and
        // exhaustion points match a scalar run exactly.
        let remaining = options.max_attempts.map_or(u64::MAX, |b| b - attempts);
        let round = match &midstate {
            Some(_) if lanes >= 8 && remaining >= 8 && stripe_fits(nonce, step, 8, width) => 8usize,
            Some(_) if lanes >= 4 && remaining >= 4 && stripe_fits(nonce, step, 4, width) => 4,
            _ => 1,
        };
        let hit = match (round, &midstate) {
            (8, Some(mid)) => wide_round::<8>(mid, width, nonce, step, need_bits),
            (4, Some(mid)) => wide_round::<4>(mid, width, nonce, step, need_bits),
            _ => {
                let digest = cursor.attempt(&width.encode(nonce));
                (digest.leading_zero_bits() >= need_bits).then_some(0)
            }
        };

        match hit {
            Some(lane) => {
                // A scalar run would have stopped at this lane's nonce
                // after hashing the lanes before it.
                attempts += lane as u64 + 1;
                return Ok(SolveReport {
                    solution: Solution::new(challenge.clone(), nonce + lane as u64 * step, width),
                    attempts,
                    elapsed: start.elapsed(),
                });
            }
            None => {
                attempts += round as u64;
                // Advance; detect exhaustion of the width-limited space
                // (u64 wrap or stepping past the u32 ceiling in strict
                // mode).
                let next = step
                    .checked_mul(round as u64)
                    .and_then(|span| nonce.checked_add(span))
                    .filter(|n| width.fits(*n));
                match next {
                    Some(n) => nonce = n,
                    None => return Err(SolveError::NonceSpaceExhausted { attempts }),
                }
            }
        }
    }
}

/// Whether all `l` striped nonces starting at `base` stay inside the
/// width-limited nonce space (no u64 wrap, no u32 overflow in strict
/// mode).
fn stripe_fits(base: u64, step: u64, l: u64, width: NonceWidth) -> bool {
    step.checked_mul(l - 1)
        .and_then(|span| base.checked_add(span))
        .is_some_and(|last| width.fits(last))
}

/// Hashes the `L` striped nonces `base, base+step, ..` through one
/// multi-buffer round from the shared midstate and returns the first
/// lane meeting the difficulty, mirroring scalar search order.
fn wide_round<const L: usize>(
    midstate: &Sha256,
    width: NonceWidth,
    base: u64,
    step: u64,
    need_bits: u32,
) -> Option<usize> {
    let encodings: [Vec<u8>; L] = core::array::from_fn(|l| width.encode(base + l as u64 * step));
    let suffixes: [&[u8]; L] = core::array::from_fn(|l| encodings[l].as_slice());
    let mut hasher = WideHasher::<L>::from_midstate(midstate);
    hasher.update(suffixes);
    hasher
        .finalize()
        .iter()
        .position(|digest| digest.leading_zero_bits() >= need_bits)
}

/// Solves using `threads` worker threads with striped nonce ranges. The
/// first worker to find a solution cancels the rest; total attempts are
/// aggregated across workers.
///
/// # Errors
///
/// Returns the first terminal error if every worker exhausted its share of
/// the space or budget without finding a solution.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn solve_parallel(
    challenge: &Challenge,
    client_ip: IpAddr,
    threads: usize,
    options: &SolverOptions,
) -> Result<SolveReport, SolveError> {
    assert!(threads > 0, "at least one solver thread required");
    if threads == 1 {
        return solve(challenge, client_ip, options);
    }

    let start = Instant::now();
    let found = AtomicBool::new(false);
    let total_attempts = AtomicU64::new(0);

    let result = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let found = &found;
            let total_attempts = &total_attempts;
            let options = SolverOptions {
                start_nonce: options.start_nonce.wrapping_add(worker as u64),
                nonce_step: threads as u64,
                // Split any attempt budget across workers.
                max_attempts: options.max_attempts.map(|b| b.div_ceil(threads as u64)),
                strict_u32: options.strict_u32,
                lanes: options.lanes,
            };
            handles.push(scope.spawn(move || {
                let out = solve_cancellable(challenge, client_ip, &options, found);
                match &out {
                    Ok(report) => {
                        // relaxed: advisory stop signal; the solution is
                        // returned via join
                        found.store(true, Ordering::Relaxed);
                        // relaxed: RMW sum; read only after every worker
                        // has joined
                        total_attempts.fetch_add(report.attempts, Ordering::Relaxed);
                    }
                    Err(
                        SolveError::BudgetExhausted { attempts }
                        | SolveError::NonceSpaceExhausted { attempts }
                        | SolveError::Cancelled { attempts },
                    ) => {
                        // relaxed: RMW sum; read only after every worker
                        // has joined
                        total_attempts.fetch_add(*attempts, Ordering::Relaxed);
                    }
                    Err(SolveError::UnknownBackend { .. }) => {}
                }
                out
            }));
        }

        let mut best: Option<SolveReport> = None;
        let mut first_err: Option<SolveError> = None;
        for handle in handles {
            match handle
                .join()
                .expect("join invariant: solver workers do not panic")
            {
                Ok(report) => {
                    // Keep the first reported solution.
                    if best.is_none() {
                        best = Some(report);
                    }
                }
                Err(
                    e @ (SolveError::BudgetExhausted { .. }
                    | SolveError::NonceSpaceExhausted { .. }
                    | SolveError::UnknownBackend { .. }),
                ) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Err(SolveError::Cancelled { .. }) => {}
            }
        }
        (best, first_err)
    });

    match result {
        (Some(mut report), _) => {
            // relaxed: workers have joined; no concurrent writers remain
            report.attempts = total_attempts.load(Ordering::Relaxed);
            report.elapsed = start.elapsed();
            Ok(report)
        }
        (None, Some(err)) => Err(err),
        (None, None) => Err(SolveError::Cancelled {
            // relaxed: workers have joined; no concurrent writers remain
            attempts: total_attempts.load(Ordering::Relaxed),
        }),
    }
}

/// Measures the solver's effective hash rate (hashes/second) by timing
/// `samples` midstate-clone-and-finalize evaluations on a synthetic
/// preimage. Used to calibrate simulation profiles and report native
/// numbers in EXPERIMENTS.md.
pub fn measure_hash_rate(samples: u64) -> f64 {
    measure_hash_rate_lanes(samples, 1)
}

/// As [`measure_hash_rate`], but evaluating `lanes` nonces per
/// multi-buffer kernel round (clamped to 1..=[`MAX_LANES`]; below 4 the
/// scalar path is timed). The lane-sweep example and `aipow solve` use
/// this to report the throughput each width actually achieves.
pub fn measure_hash_rate_lanes(samples: u64, lanes: usize) -> f64 {
    let lanes = lanes.clamp(1, MAX_LANES);
    // Portable until ROADMAP 1b, like `Sha256Backend::solve_cursor`: the
    // scalar arm below must time the kernel the solver actually runs.
    let mut midstate = Sha256::portable();
    midstate.update(b"aipow hash-rate calibration preimage / 203.0.113.7");
    let start = Instant::now();
    let mut acc = 0u32;
    let mut nonce = 0u64;
    while nonce < samples {
        let left = samples - nonce;
        if lanes >= 8 && left >= 8 {
            acc ^= measure_round::<8>(&midstate, nonce);
            nonce += 8;
        } else if lanes >= 4 && left >= 4 {
            acc ^= measure_round::<4>(&midstate, nonce);
            nonce += 4;
        } else {
            let mut h = midstate.clone();
            h.update(&nonce.to_be_bytes());
            acc ^= h.finalize().leading_zero_bits();
            nonce += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Fold `acc` into the result decision so the loop cannot be optimized out.
    let denom = if elapsed > 0.0 { elapsed } else { 1e-9 };
    if acc == u32::MAX {
        return samples as f64 / denom - 1.0;
    }
    samples as f64 / denom
}

fn measure_round<const L: usize>(midstate: &Sha256, base: u64) -> u32 {
    let encodings: [[u8; 8]; L] = core::array::from_fn(|l| (base + l as u64).to_be_bytes());
    let suffixes: [&[u8]; L] = core::array::from_fn(|l| encodings[l].as_slice());
    let mut hasher = WideHasher::<L>::from_midstate(midstate);
    hasher.update(suffixes);
    hasher
        .finalize()
        .iter()
        .fold(0, |acc, digest| acc ^ digest.leading_zero_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::Difficulty;
    use crate::issuer::Issuer;
    use std::net::Ipv4Addr;

    fn ip() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(198, 51, 100, 42))
    }

    fn issue(d: u8) -> Challenge {
        Issuer::new(&[11u8; 32]).issue(ip(), Difficulty::new(d).unwrap())
    }

    #[test]
    fn solves_easy_puzzles() {
        for d in 0..=10 {
            let c = issue(d);
            let report = solve(&c, ip(), &SolverOptions::default()).expect("solvable");
            assert!(report.solution.meets_difficulty(ip()), "difficulty {d}");
            assert!(report.attempts >= 1);
        }
    }

    #[test]
    fn strict_u32_produces_u32_nonce() {
        let c = issue(8);
        let report = solve(&c, ip(), &SolverOptions::strict()).unwrap();
        assert_eq!(report.solution.width, NonceWidth::U32);
        assert!(report.solution.nonce <= u32::MAX as u64);
        assert!(report.solution.meets_difficulty(ip()));
    }

    #[test]
    fn budget_exhaustion_reports_attempts() {
        // Difficulty 64 is unsolvable in 100 attempts with overwhelming
        // probability; the budget must trip first.
        let c = issue(64);
        let opts = SolverOptions {
            max_attempts: Some(100),
            ..Default::default()
        };
        match solve(&c, ip(), &opts) {
            Err(SolveError::BudgetExhausted { attempts }) => assert_eq!(attempts, 100),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_stops_promptly() {
        let c = issue(64);
        let cancel = AtomicBool::new(true);
        match solve_cancellable(&c, ip(), &SolverOptions::default(), &cancel) {
            Err(SolveError::Cancelled { attempts }) => assert_eq!(attempts, 0),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn attempt_counts_track_difficulty() {
        // Over many puzzles, mean attempts at difficulty d should be near
        // 2^d. Use d=6 (mean 64) and allow generous slack.
        let issuer = Issuer::new(&[12u8; 32]);
        let mut total = 0u64;
        let n = 200;
        for _ in 0..n {
            let c = issuer.issue(ip(), Difficulty::new(6).unwrap());
            total += solve(&c, ip(), &SolverOptions::default()).unwrap().attempts;
        }
        let mean = total as f64 / n as f64;
        assert!(
            (32.0..=128.0).contains(&mean),
            "mean attempts {mean} far from 64"
        );
    }

    #[test]
    fn parallel_solution_verifies_and_matches_difficulty() {
        let c = issue(12);
        let report = solve_parallel(&c, ip(), 4, &SolverOptions::default()).unwrap();
        assert!(report.solution.meets_difficulty(ip()));
    }

    #[test]
    fn parallel_budget_exhaustion() {
        let c = issue(64);
        let opts = SolverOptions {
            max_attempts: Some(1000),
            ..Default::default()
        };
        match solve_parallel(&c, ip(), 4, &opts) {
            Err(SolveError::BudgetExhausted { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_threads_panics() {
        let c = issue(1);
        let _ = solve_parallel(&c, ip(), 0, &SolverOptions::default());
    }

    #[test]
    fn nonce_step_stripes_disjointly() {
        // Two striped solvers must try disjoint nonce sets: verify the
        // parity of found nonces matches their stripe.
        let c = issue(4);
        let even = SolverOptions {
            start_nonce: 0,
            nonce_step: 2,
            ..Default::default()
        };
        let odd = SolverOptions {
            start_nonce: 1,
            nonce_step: 2,
            ..Default::default()
        };
        let re = solve(&c, ip(), &even).unwrap();
        let ro = solve(&c, ip(), &odd).unwrap();
        assert_eq!(re.solution.nonce % 2, 0);
        assert_eq!(ro.solution.nonce % 2, 1);
    }

    #[test]
    fn hash_rate_measurement_is_positive() {
        let rate = measure_hash_rate(20_000);
        assert!(rate > 10_000.0, "implausibly slow hash rate {rate}");
        for lanes in [4, 8] {
            let rate = measure_hash_rate_lanes(20_000, lanes);
            assert!(rate > 10_000.0, "implausibly slow {lanes}-lane rate {rate}");
        }
    }

    #[test]
    fn wide_search_finds_the_same_nonce_with_the_same_attempt_count() {
        for d in [0u8, 3, 6, 9] {
            let c = issue(d);
            let scalar = solve(&c, ip(), &SolverOptions::default()).unwrap();
            for lanes in [2, 4, 7, 8] {
                let wide = solve(
                    &c,
                    ip(),
                    &SolverOptions {
                        lanes,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    wide.solution.nonce, scalar.solution.nonce,
                    "lanes {lanes} difficulty {d}"
                );
                assert_eq!(wide.attempts, scalar.attempts);
                assert!(wide.solution.meets_difficulty(ip()));
            }
        }
    }

    #[test]
    fn wide_striped_search_respects_the_stripe() {
        let c = issue(5);
        let opts = SolverOptions {
            start_nonce: 3,
            nonce_step: 4,
            lanes: 8,
            ..Default::default()
        };
        let report = solve(&c, ip(), &opts).unwrap();
        assert_eq!(report.solution.nonce % 4, 3);
        let scalar = solve(
            &c,
            ip(),
            &SolverOptions {
                lanes: 1,
                ..opts.clone()
            },
        )
        .unwrap();
        assert_eq!(report.solution.nonce, scalar.solution.nonce);
        assert_eq!(report.attempts, scalar.attempts);
    }

    #[test]
    fn wide_budget_exhaustion_is_exact_on_ragged_budgets() {
        // 103 is not a multiple of 4 or 8: the tail must fall back to
        // scalar stepping so the budget trips at exactly 103 attempts.
        let c = issue(64);
        for lanes in [4, 8] {
            let opts = SolverOptions {
                max_attempts: Some(103),
                lanes,
                ..Default::default()
            };
            match solve(&c, ip(), &opts) {
                Err(SolveError::BudgetExhausted { attempts }) => assert_eq!(attempts, 103),
                other => panic!("expected budget exhaustion, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_strict_u32_exhausts_exactly_at_the_ceiling() {
        // 11 nonces remain before the u32 ceiling: one 8-wide round fits,
        // the rest must go scalar, matching the scalar attempt count.
        let c = issue(64);
        let opts = SolverOptions {
            strict_u32: true,
            start_nonce: u32::MAX as u64 - 10,
            lanes: 8,
            ..Default::default()
        };
        match solve(&c, ip(), &opts) {
            Err(SolveError::NonceSpaceExhausted { attempts }) => assert_eq!(attempts, 11),
            other => panic!("expected nonce-space exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn wide_parallel_solution_verifies() {
        let c = issue(10);
        let opts = SolverOptions {
            lanes: 8,
            ..Default::default()
        };
        let report = solve_parallel(&c, ip(), 4, &opts).unwrap();
        assert!(report.solution.meets_difficulty(ip()));
    }

    #[test]
    fn report_hash_rate_consistent() {
        let c = issue(10);
        let report = solve(&c, ip(), &SolverOptions::default()).unwrap();
        assert!(report.hash_rate() > 0.0);
    }

    #[test]
    fn error_display_messages() {
        assert!(SolveError::BudgetExhausted { attempts: 5 }
            .to_string()
            .contains("5"));
        assert!(SolveError::Cancelled { attempts: 0 }
            .to_string()
            .contains("cancelled"));
        assert!(SolveError::UnknownBackend { id: BackendId(77) }
            .to_string()
            .contains("backend#77"));
    }

    #[test]
    fn memory_hard_challenge_solves_through_the_backend_seam() {
        let issuer = Issuer::new(&[11u8; 32]).with_backend_param(BackendId::MEMORY_HARD, 1);
        let c = issuer.issue_backend(ip(), Difficulty::new(6).unwrap(), BackendId::MEMORY_HARD);
        let report = solve(&c, ip(), &SolverOptions::default()).expect("solvable");
        assert_eq!(report.solution.backend, BackendId::MEMORY_HARD);
        assert!(report.solution.meets_difficulty(ip()));
    }

    #[test]
    fn unknown_backend_is_a_terminal_solve_error() {
        let c = Challenge::from_parts_backend(
            1,
            BackendId(99),
            0,
            [3u8; 16],
            1_000,
            30_000,
            Difficulty::new(4).unwrap(),
            ip(),
            [0u8; 32],
        );
        let err = solve(&c, ip(), &SolverOptions::default()).unwrap_err();
        assert_eq!(err, SolveError::UnknownBackend { id: BackendId(99) });
        let err = solve_parallel(&c, ip(), 2, &SolverOptions::default()).unwrap_err();
        assert_eq!(err, SolveError::UnknownBackend { id: BackendId(99) });
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Any solvable difficulty ≤ 12 yields a solution that meets
            /// its own difficulty check, regardless of key or IP.
            #[test]
            fn solve_then_check(d in 0u8..=12, key in any::<[u8; 32]>(), last_octet in any::<u8>()) {
                let client = IpAddr::V4(Ipv4Addr::new(203, 0, 113, last_octet));
                let issuer = Issuer::new(&key);
                let c = issuer.issue(client, Difficulty::new(d).unwrap());
                let report = solve(&c, client, &SolverOptions::default()).unwrap();
                prop_assert!(report.solution.meets_difficulty(client));
                // Note: a solution CAN transfer to another IP by chance
                // (probability 2^-d); binding is enforced by the verifier's
                // ClientMismatch check, tested deterministically elsewhere.
            }
        }
    }
}
