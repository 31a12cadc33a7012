//! The puzzle verification module (paper §II.5).
//!
//! “Puzzle verification is \[a\] light weight block used to verify the
//! client's solution and offer response if correct solution is returned.”
//!
//! Verification performs, in order: version check, backend checks (known
//! id, challenge/solution agreement, parameter bounds), difficulty-cap
//! check, MAC authentication (constant-time), client binding, freshness
//! window, replay check, and finally the single work-function evaluation
//! that checks the work itself — dispatched through the challenge's
//! [`PuzzleBackend`]. For the default
//! SHA-256 backend total cost is two hash-block pipelines regardless of
//! the puzzle difficulty — measured in bench `verify_cost` (claim C6).

use crate::backend::{batch_by_key, BackendId, BackendRegistry, PuzzleBackend};
use crate::challenge::{AuthBytes, Challenge, Preimage, Solution, CHALLENGE_VERSION};
use crate::difficulty::Difficulty;
use crate::replay::ReplayGuard;
use crate::time::{SystemClock, TimeSource};
use aipow_crypto::hkdf;
use aipow_crypto::hmac::HmacKey;
use aipow_crypto::sha256::Digest;
use aipow_crypto::{ct, sha256_wide};
use core::fmt;
use std::net::IpAddr;
use std::sync::Arc;

/// Default tolerated forward clock skew between issuance and verification
/// hosts (they are the same host in this framework, but the bound is kept
/// explicit and configurable).
pub const DEFAULT_MAX_SKEW_MS: u64 = 2_000;

/// Reasons a solution can be rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The challenge version is unknown to this verifier.
    UnsupportedVersion {
        /// Version found in the challenge.
        got: u8,
    },
    /// The challenge names a puzzle backend the process-wide registry
    /// ([`BackendRegistry::global`]) does not know.
    UnknownBackend {
        /// Backend id found in the challenge.
        got: BackendId,
    },
    /// The solution claims a different puzzle backend than the challenge
    /// it answers (a client solved the wrong work function).
    BackendMismatch {
        /// Backend the challenge was issued for.
        challenge: BackendId,
        /// Backend the solution claims to have solved.
        solution: BackendId,
    },
    /// The challenge carries a backend parameter the backend rejects
    /// (e.g. a memory-hard arena size outside its bounds).
    InvalidBackendParam {
        /// Parameter byte found in the challenge.
        got: u8,
    },
    /// The challenge difficulty exceeds the verifier's acceptance cap
    /// (defense against forged extreme difficulties DoS-ing the verifier's
    /// replay cache with long-lived entries).
    DifficultyTooHigh {
        /// Difficulty carried by the challenge.
        got: Difficulty,
        /// The verifier's cap.
        cap: Difficulty,
    },
    /// The HMAC tag does not authenticate the challenge under this
    /// verifier's key: not a challenge we issued, or tampered.
    BadMac,
    /// The solution was submitted from a different IP than the challenge
    /// was issued to.
    ClientMismatch,
    /// The challenge timestamp is further in the future than the allowed
    /// clock skew.
    NotYetValid,
    /// The challenge TTL has elapsed.
    Expired {
        /// Expiry instant of the challenge (ms since epoch).
        expired_at_ms: u64,
        /// Verification instant (ms since epoch).
        now_ms: u64,
    },
    /// The challenge seed was already redeemed.
    Replayed,
    /// The digest does not carry enough leading zero bits.
    InsufficientWork {
        /// Zero bits achieved by the submitted nonce.
        got_bits: u32,
        /// Zero bits required by the challenge.
        need_bits: u32,
    },
    /// The nonce does not fit the declared nonce width.
    MalformedNonce,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnsupportedVersion { got } => {
                write!(f, "unsupported challenge version {got}")
            }
            VerifyError::UnknownBackend { got } => {
                write!(f, "challenge names unregistered puzzle backend {got}")
            }
            VerifyError::BackendMismatch {
                challenge,
                solution,
            } => {
                write!(
                    f,
                    "solution solved backend {solution} but the challenge was issued for {challenge}"
                )
            }
            VerifyError::InvalidBackendParam { got } => {
                write!(f, "backend rejects challenge parameter {got}")
            }
            VerifyError::DifficultyTooHigh { got, cap } => {
                write!(f, "challenge difficulty {got} exceeds verifier cap {cap}")
            }
            VerifyError::BadMac => write!(f, "challenge authentication failed"),
            VerifyError::ClientMismatch => {
                write!(
                    f,
                    "solution submitted from a different client than issued to"
                )
            }
            VerifyError::NotYetValid => write!(f, "challenge timestamp is in the future"),
            VerifyError::Expired {
                expired_at_ms,
                now_ms,
            } => write!(f, "challenge expired at {expired_at_ms}, now {now_ms}"),
            VerifyError::Replayed => write!(f, "challenge seed already redeemed"),
            VerifyError::InsufficientWork {
                got_bits,
                need_bits,
            } => {
                write!(
                    f,
                    "solution has {got_bits} leading zero bits, needs {need_bits}"
                )
            }
            VerifyError::MalformedNonce => write!(f, "nonce does not fit its declared width"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Proof that a solution was accepted: handed to the resource layer, which
/// releases the response to the client (paper Figure 1, steps 6–7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedToken {
    /// The client whose work was verified.
    pub client_ip: IpAddr,
    /// The difficulty that was paid.
    pub difficulty: Difficulty,
    /// The redeemed challenge seed.
    pub seed: [u8; 16],
    /// When verification happened (ms since epoch).
    pub verified_at_ms: u64,
}

/// The solution verifier.
///
/// Construct with the same master key as the [`Issuer`](crate::Issuer).
///
/// ```
/// use aipow_pow::{Difficulty, Issuer, Verifier, solver, VerifyError};
/// # use std::net::{IpAddr, Ipv4Addr};
/// let key = [9u8; 32];
/// let (issuer, verifier) = (Issuer::new(&key), Verifier::new(&key));
/// let ip = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1));
/// let c = issuer.issue(ip, Difficulty::new(5).unwrap());
/// let sol = solver::solve(&c, ip, &Default::default()).unwrap().solution;
/// assert!(verifier.verify(&sol, ip).is_ok());
/// // A second redemption of the same seed is a replay:
/// assert_eq!(verifier.verify(&sol, ip), Err(VerifyError::Replayed));
/// ```
pub struct Verifier {
    /// The challenge-MAC key with its HMAC schedule precomputed: every
    /// verification authenticates under the same key, so the schedule
    /// runs once here instead of once per solution.
    mac_key: HmacKey,
    replay: ReplayGuard,
    clock: Arc<dyn TimeSource>,
    max_skew_ms: u64,
    difficulty_cap: Difficulty,
    /// Lane width for batched hash work (MACs and work digests) in
    /// [`PreparedVerify::verify_many`]: 1 forces the scalar path, 2–3
    /// stage the checks but hash on the scalar kernel, 4–8 select the
    /// multi-buffer kernel width. Set once at construction
    /// ([`with_verify_lanes`](Self::with_verify_lanes)); a performance
    /// knob only — every width computes identical results.
    verify_lanes: usize,
}

impl Verifier {
    /// Creates a verifier from the issuer's master key, with the system
    /// clock, default skew tolerance, a difficulty cap of 40 bits and the
    /// default replay capacity.
    pub fn new(master_key: &[u8; 32]) -> Self {
        Self::with_clock(master_key, Arc::new(SystemClock))
    }

    /// Creates a verifier with an explicit time source.
    pub fn with_clock(master_key: &[u8; 32], clock: Arc<dyn TimeSource>) -> Self {
        Verifier {
            mac_key: HmacKey::new(&hkdf::derive_key32(master_key, "aipow/challenge-mac")),
            replay: ReplayGuard::default(),
            clock,
            max_skew_ms: DEFAULT_MAX_SKEW_MS,
            difficulty_cap: Difficulty::saturating(40),
            verify_lanes: sha256_wide::auto_lanes(),
        }
    }

    /// Replaces the replay guard (e.g. to size its capacity).
    pub fn with_replay_guard(mut self, guard: ReplayGuard) -> Self {
        self.replay = guard;
        self
    }

    /// Sets the maximum accepted challenge difficulty.
    pub fn with_difficulty_cap(mut self, cap: Difficulty) -> Self {
        self.difficulty_cap = cap;
        self
    }

    /// Sets the tolerated forward clock skew in milliseconds.
    pub fn with_max_skew_ms(mut self, skew: u64) -> Self {
        self.max_skew_ms = skew;
        self
    }

    /// Sets the batched-verification lane width (clamped to
    /// 1..=[`sha256_wide::MAX_LANES`]); 1 disables the wide kernel.
    pub fn with_verify_lanes(mut self, lanes: usize) -> Self {
        self.verify_lanes = lanes.clamp(1, sha256_wide::MAX_LANES);
        self
    }

    /// The batched-verification lane width.
    pub fn verify_lanes(&self) -> usize {
        self.verify_lanes
    }

    /// The maximum accepted challenge difficulty.
    pub fn difficulty_cap(&self) -> Difficulty {
        self.difficulty_cap
    }

    /// The tolerated forward clock skew in milliseconds.
    pub fn max_skew_ms(&self) -> u64 {
        self.max_skew_ms
    }

    /// Access to the replay guard (for metrics/ablation).
    pub fn replay_guard(&self) -> &ReplayGuard {
        &self.replay
    }

    /// Verifies `solution` as submitted by `claimed_ip` at the current time.
    ///
    /// # Errors
    ///
    /// Returns the first applicable [`VerifyError`]; checks are ordered
    /// cheapest-first so malformed floods are rejected with minimal work.
    pub fn verify(
        &self,
        solution: &Solution,
        claimed_ip: IpAddr,
    ) -> Result<VerifiedToken, VerifyError> {
        self.verify_at(solution, claimed_ip, self.clock.now_ms())
    }

    /// Verifies at an explicit time (tests, simulation).
    ///
    /// # Errors
    ///
    /// As [`Verifier::verify`].
    pub fn verify_at(
        &self,
        solution: &Solution,
        claimed_ip: IpAddr,
        now_ms: u64,
    ) -> Result<VerifiedToken, VerifyError> {
        self.prepare_at(now_ms).verify_one(solution, claimed_ip)
    }

    /// Hoists the per-call verification context — the clock reading and
    /// the derived skew window — out of a loop over many solutions. The
    /// returned handle verifies each solution as if
    /// [`verify_at`](Self::verify_at) were called at `now_ms` (the HMAC
    /// key schedule is hoisted further still, to construction).
    pub fn prepare_at(&self, now_ms: u64) -> PreparedVerify<'_> {
        PreparedVerify {
            verifier: self,
            now_ms,
            not_before_horizon: now_ms.saturating_add(self.max_skew_ms),
        }
    }

    /// Verifies a batch of `(solution, claimed_ip)` submissions at the
    /// current time, reading the clock and building the skew window once
    /// for the whole batch. Outcomes are returned in submission order;
    /// replay marking happens in that same order, so duplicate seeds
    /// within one batch behave exactly as sequential submissions (first
    /// valid redemption wins, the rest are [`VerifyError::Replayed`]).
    pub fn verify_batch(
        &self,
        submissions: &[(Solution, IpAddr)],
    ) -> Vec<Result<VerifiedToken, VerifyError>> {
        let prepared = self.prepare_at(self.clock.now_ms());
        let refs: Vec<(&Solution, IpAddr)> = submissions
            .iter()
            .map(|(solution, ip)| (solution, *ip))
            .collect();
        prepared.verify_many(&refs)
    }
}

/// A verification context with the per-call fixed costs hoisted: one
/// clock reading and one skew-window computation shared by every
/// solution verified through it. Produced by [`Verifier::prepare_at`].
#[derive(Debug, Clone, Copy)]
pub struct PreparedVerify<'a> {
    verifier: &'a Verifier,
    now_ms: u64,
    /// `now_ms + max_skew_ms`, precomputed: challenges issued later than
    /// this are not yet valid.
    not_before_horizon: u64,
}

impl<'a> PreparedVerify<'a> {
    /// The instant this context verifies at.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Verifies one solution under the prepared context.
    ///
    /// # Errors
    ///
    /// As [`Verifier::verify`].
    pub fn verify_one(
        &self,
        solution: &Solution,
        claimed_ip: IpAddr,
    ) -> Result<VerifiedToken, VerifyError> {
        let challenge = &solution.challenge;
        let backend = self.admit(solution)?;
        let expected_tag = self.verifier.mac_key.mac(&challenge.authenticated_bytes());
        self.bind(&expected_tag, challenge, claimed_ip)?;
        let digest = backend.work_digest(challenge.backend_param(), &solution.preimage(claimed_ip));
        self.settle(solution, claimed_ip, &digest)
    }

    /// Verifies a batch of submissions under the prepared context,
    /// routing the two hash-bound checks — challenge MACs and work
    /// digests — through the multi-buffer SHA-256 kernel at the
    /// verifier's configured lane width.
    ///
    /// Observably identical to calling [`verify_one`](Self::verify_one)
    /// on each submission in order, by construction: both run the same
    /// three checks (`admit`, then `bind` on the challenge MAC, then
    /// `settle` on the work digest) and differ only in hashing every
    /// survivor's MAC, then every survivor's work digest, in one pass
    /// each. The staging is sound because the MAC and work checks read
    /// no mutable verifier state; `settle` — the only check that marks
    /// replays — runs last and in submission order, so duplicate seeds
    /// within one batch behave exactly as sequential submissions.
    ///
    /// Same-length preimages are grouped into full 8- or 4-wide lanes by
    /// the kernel; ragged tails, odd shapes and lane widths 2–3 fall
    /// back to scalar hashing per message. A lane width of 1 (or a batch
    /// of fewer than two submissions) takes the scalar path outright.
    pub fn verify_many(
        &self,
        submissions: &[(&Solution, IpAddr)],
    ) -> Vec<Result<VerifiedToken, VerifyError>> {
        let lanes = self.verifier.verify_lanes();
        if lanes <= 1 || submissions.len() < 2 {
            return submissions
                .iter()
                .map(|(solution, ip)| self.verify_one(solution, *ip))
                .collect();
        }

        // Each verdict holds its first rejection, or the backend that
        // will judge its work while it survives.
        let mut verdicts: Vec<Result<&dyn PuzzleBackend, VerifyError>> = submissions
            .iter()
            .map(|(solution, _)| self.admit(solution))
            .collect();

        let admitted = verdicts.iter().filter(|verdict| verdict.is_ok()).count();
        let mut auth: Vec<AuthBytes> = Vec::with_capacity(admitted);
        auth.extend(
            submissions
                .iter()
                .zip(&verdicts)
                .filter(|(_, verdict)| verdict.is_ok())
                .map(|((solution, _), _)| solution.challenge.authenticated_bytes()),
        );
        let msgs: Vec<&[u8]> = auth.iter().map(|bytes| &**bytes).collect();
        let tags = self.verifier.mac_key.mac_batch(&msgs, lanes);
        let survivors = verdicts
            .iter_mut()
            .zip(submissions)
            .filter(|(verdict, _)| verdict.is_ok());
        for ((verdict, (solution, claimed_ip)), tag) in survivors.zip(&tags) {
            if let Err(err) = self.bind(tag, &solution.challenge, *claimed_ip) {
                *verdict = Err(err);
            }
        }

        // Work digests, one batched hook call per backend, in survivor
        // order.
        let bound = verdicts.iter().filter(|verdict| verdict.is_ok()).count();
        let mut work: Vec<(&Solution, &dyn PuzzleBackend, Preimage)> = Vec::with_capacity(bound);
        work.extend(submissions.iter().zip(&verdicts).filter_map(
            |((solution, claimed_ip), verdict)| {
                let backend = *verdict.as_ref().ok()?;
                Some((*solution, backend, solution.preimage(*claimed_ip)))
            },
        ));
        let digests = batch_by_key(
            work.len(),
            |pos| work[pos].0.challenge.backend(),
            |_, positions| {
                let params: Vec<u8> = positions
                    .iter()
                    .map(|&pos| work[pos].0.challenge.backend_param())
                    .collect();
                let msgs: Vec<&[u8]> = positions.iter().map(|&pos| &*work[pos].2).collect();
                work[positions[0]]
                    .1
                    .work_digest_batch(&params, &msgs, lanes)
            },
        );

        let mut digests = digests.iter();
        submissions
            .iter()
            .zip(verdicts)
            .map(|((solution, claimed_ip), verdict)| {
                verdict.and_then(|_| {
                    let digest = digests
                        .next()
                        .expect("staging invariant: every surviving submission is hashed");
                    self.settle(solution, *claimed_ip, digest)
                })
            })
            .collect()
    }

    /// The checks that need no hashing: version, known backend, backend
    /// agreement, backend parameter, difficulty cap and nonce width.
    /// Returns the backend that judges the work.
    fn admit(&self, solution: &Solution) -> Result<&'a dyn PuzzleBackend, VerifyError> {
        let challenge = &solution.challenge;
        if challenge.version() != CHALLENGE_VERSION {
            return Err(VerifyError::UnsupportedVersion {
                got: challenge.version(),
            });
        }
        let backend = BackendRegistry::global().get(challenge.backend()).ok_or(
            VerifyError::UnknownBackend {
                got: challenge.backend(),
            },
        )?;
        if solution.backend != challenge.backend() {
            return Err(VerifyError::BackendMismatch {
                challenge: challenge.backend(),
                solution: solution.backend,
            });
        }
        if !backend.validate_param(challenge.backend_param()) {
            return Err(VerifyError::InvalidBackendParam {
                got: challenge.backend_param(),
            });
        }
        if challenge.difficulty() > self.verifier.difficulty_cap {
            return Err(VerifyError::DifficultyTooHigh {
                got: challenge.difficulty(),
                cap: self.verifier.difficulty_cap,
            });
        }
        if !solution.width.fits(solution.nonce) {
            return Err(VerifyError::MalformedNonce);
        }
        Ok(backend)
    }

    /// Authentication and binding: the constant-time compare of the tag
    /// against `expected_tag` (the MAC of the challenge's authenticated
    /// bytes), then client binding, then the freshness window.
    fn bind(
        &self,
        expected_tag: &Digest,
        challenge: &Challenge,
        claimed_ip: IpAddr,
    ) -> Result<(), VerifyError> {
        if !ct::eq(expected_tag.as_bytes(), challenge.tag()) {
            return Err(VerifyError::BadMac);
        }
        if challenge.client_ip() != claimed_ip {
            return Err(VerifyError::ClientMismatch);
        }
        if challenge.issued_at_ms() > self.not_before_horizon {
            return Err(VerifyError::NotYetValid);
        }
        if challenge.is_expired(self.now_ms) {
            return Err(VerifyError::Expired {
                expired_at_ms: challenge.expires_at_ms(),
                now_ms: self.now_ms,
            });
        }
        Ok(())
    }

    /// Judges the work `digest`, then redeems the seed. The work check
    /// precedes replay marking so that invalid work does not consume the
    /// seed.
    fn settle(
        &self,
        solution: &Solution,
        claimed_ip: IpAddr,
        digest: &Digest,
    ) -> Result<VerifiedToken, VerifyError> {
        let challenge = &solution.challenge;
        let got_bits = digest.leading_zero_bits();
        let need_bits = challenge.difficulty().bits() as u32;
        if got_bits < need_bits {
            return Err(VerifyError::InsufficientWork {
                got_bits,
                need_bits,
            });
        }
        if !self.verifier.replay.check_and_insert(
            challenge.seed(),
            challenge.expires_at_ms(),
            self.now_ms,
        ) {
            return Err(VerifyError::Replayed);
        }
        Ok(VerifiedToken {
            client_ip: claimed_ip,
            difficulty: challenge.difficulty(),
            seed: *challenge.seed(),
            verified_at_ms: self.now_ms,
        })
    }
}

impl core::fmt::Debug for Verifier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Verifier")
            .field("max_skew_ms", &self.max_skew_ms)
            .field("difficulty_cap", &self.difficulty_cap)
            .field("verify_lanes", &self.verify_lanes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::NonceWidth;
    use crate::issuer::Issuer;
    use crate::solver::{self, SolverOptions};
    use crate::time::ManualClock;
    use std::net::Ipv4Addr;

    const KEY: [u8; 32] = [21u8; 32];

    fn ip() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(192, 0, 2, 10))
    }

    fn setup(d: u8) -> (Issuer, Verifier, ManualClock, Solution) {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock.clone()));
        let c = issuer.issue(ip(), Difficulty::new(d).unwrap());
        let sol = solver::solve(&c, ip(), &SolverOptions::default())
            .unwrap()
            .solution;
        (issuer, verifier, clock, sol)
    }

    #[test]
    fn valid_solution_verifies() {
        let (_, verifier, _, sol) = setup(8);
        let token = verifier.verify(&sol, ip()).unwrap();
        assert_eq!(token.client_ip, ip());
        assert_eq!(token.difficulty.bits(), 8);
        assert_eq!(&token.seed, sol.challenge.seed());
    }

    /// The client solves on the pinned portable kernel; the verifier MACs
    /// and digests on whatever `Sha256::new()` picked (SHA-NI where the CPU
    /// has it). Every byte must agree: a fixed challenge under `KEY`
    /// carries the tag, and solves to the nonce and attempt count, that the
    /// all-portable code produced before the hardware kernel existed. Its
    /// seed is a literal (the first seed `KEY`'s issuer drew before seeds
    /// were counter-mode); the tag is recomputed under the issuer's key.
    #[test]
    fn portable_solver_output_verifies_on_the_default_kernel_unchanged() {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
        let unsigned = Challenge::from_parts_backend(
            CHALLENGE_VERSION,
            BackendId::SHA256,
            0,
            0xdfa90221b179bc1fab795ef1f5d9a05f_u128.to_be_bytes(),
            1_000_000,
            crate::issuer::DEFAULT_TTL_MS,
            Difficulty::new(12).unwrap(),
            ip(),
            [0u8; 32],
        );
        let tag = HmacKey::new(issuer.mac_key()).mac(&unsigned.authenticated_bytes());
        let c = unsigned.with_tag(tag.into_bytes());
        assert_eq!(
            aipow_crypto::hex::encode(c.tag()),
            "0a5384de1a3ba4c10b5b08f7d925ffc5f431b7b6929542bd134f74917da6255d"
        );
        let report = solver::solve(&c, ip(), &SolverOptions::default()).unwrap();
        assert_eq!((report.solution.nonce, report.attempts), (14216, 14217));
        let sol = report.solution;

        let prepared = verifier.prepare_at(1_000_000);
        assert!(prepared.verify_one(&sol, ip()).is_ok());
        // A second solved challenge makes a staged batch (batched MAC
        // and digest calls); a fresh verifier has not seen the first seed.
        let c2 = issuer.issue(ip(), Difficulty::new(6).unwrap());
        let sol2 = solver::solve(&c2, ip(), &SolverOptions::default())
            .unwrap()
            .solution;
        let clock = Arc::new(ManualClock::at(1_000_000));
        let batch_verifier = Verifier::with_clock(&KEY, clock).with_verify_lanes(8);
        let outcomes = batch_verifier
            .prepare_at(1_000_000)
            .verify_many(&[(&sol, ip()), (&sol2, ip())]);
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    }

    /// DESIGN §3's restart semantics as behaviour: an issuer and verifier
    /// rebuilt under the same key re-issue the old seeds and remember no
    /// redemption, until the pre-restart challenges expire.
    #[test]
    fn a_restart_under_a_stable_key_replays_seeds_and_forgets_redemptions() {
        let clock = ManualClock::at(1_000_000);
        let boot = || {
            (
                Issuer::with_clock(&KEY, Arc::new(clock.clone())),
                Verifier::with_clock(&KEY, Arc::new(clock.clone())),
            )
        };
        let solve = |c: &Challenge, from: IpAddr| {
            solver::solve(c, from, &SolverOptions::default())
                .unwrap()
                .solution
        };
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 11));
        let (issuer, verifier) = boot();
        let before = issuer.issue(ip(), Difficulty::new(4).unwrap());
        let sol = solve(&before, ip());
        verifier.verify(&sol, ip()).unwrap();
        assert_eq!(verifier.verify(&sol, ip()), Err(VerifyError::Replayed));

        let (issuer, verifier) = boot();
        let reissued = issuer.issue(other, Difficulty::new(4).unwrap());
        assert_eq!(reissued.seed(), before.seed());
        // The pre-restart solution is accepted once more, which spends
        // the re-issued seed: its new holder is refused as a replay.
        verifier.verify(&sol, ip()).unwrap();
        let sol_other = solve(&reissued, other);
        assert_eq!(
            verifier.verify(&sol_other, other),
            Err(VerifyError::Replayed)
        );

        // One TTL on, a restarted verifier refuses the old solution.
        clock.advance(crate::issuer::DEFAULT_TTL_MS + 1);
        let (_, verifier) = boot();
        assert!(matches!(
            verifier.verify(&sol, ip()),
            Err(VerifyError::Expired { .. })
        ));
    }

    #[test]
    fn replay_is_rejected() {
        let (_, verifier, _, sol) = setup(4);
        verifier.verify(&sol, ip()).unwrap();
        assert_eq!(verifier.verify(&sol, ip()), Err(VerifyError::Replayed));
    }

    #[test]
    fn batch_verify_matches_sequential_and_marks_replays_in_order() {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 99));

        let solve = |d: u8| {
            let c = issuer.issue(ip(), Difficulty::new(d).unwrap());
            solver::solve(&c, ip(), &SolverOptions::default())
                .unwrap()
                .solution
        };
        let a = solve(4);
        let b = solve(2);
        // valid, wrong-ip, valid, duplicate-of-first (intra-batch replay).
        let submissions = vec![
            (a.clone(), ip()),
            (b.clone(), other),
            (b.clone(), ip()),
            (a.clone(), ip()),
        ];
        let outcomes = verifier.verify_batch(&submissions);
        assert_eq!(outcomes.len(), 4);
        let token = outcomes[0].as_ref().unwrap();
        assert_eq!(token.client_ip, ip());
        assert_eq!(token.verified_at_ms, 1_000_000);
        assert_eq!(outcomes[1], Err(VerifyError::ClientMismatch));
        assert!(outcomes[2].is_ok());
        assert_eq!(outcomes[3], Err(VerifyError::Replayed));
        // The batch consumed both seeds: later singles see replays.
        assert_eq!(verifier.verify(&a, ip()), Err(VerifyError::Replayed));
        assert_eq!(verifier.verify(&b, ip()), Err(VerifyError::Replayed));
        // Empty batches are fine.
        assert!(verifier.verify_batch(&[]).is_empty());
    }

    #[test]
    fn wide_batch_outcomes_match_scalar_for_every_error_class() {
        // One submission per check outcome, mixed V4/V6 clients so the
        // kernel sees ragged preimage lengths, verified at every lane
        // width. All widths must agree with the scalar (lanes = 1) path
        // item for item, including intra-batch replay ordering.
        let build = |lanes: usize| {
            let clock = ManualClock::at(1_000_000);
            let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()))
                .with_backend_param(crate::backend::BackendId::MEMORY_HARD, 1);
            let verifier = Verifier::with_clock(&KEY, Arc::new(clock)).with_verify_lanes(lanes);
            (issuer, verifier)
        };
        let v6 = IpAddr::V6("2001:db8::7".parse().unwrap());
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 99));
        let (issuer, _) = build(1);
        let solve = |ip: IpAddr, d: u8| {
            let c = issuer.issue(ip, Difficulty::new(d).unwrap());
            solver::solve(&c, ip, &SolverOptions::default())
                .unwrap()
                .solution
        };

        let good4 = solve(ip(), 4);
        let good6 = solve(v6, 3);
        let c = &good4.challenge;
        let mut tag = *c.tag();
        tag[7] ^= 0x80;
        let bad_mac = Solution {
            challenge: Challenge::from_parts(
                c.version(),
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                tag,
            ),
            ..good4.clone()
        };
        let bad_version = Solution {
            challenge: Challenge::from_parts(
                99,
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                *c.tag(),
            ),
            ..good4.clone()
        };
        let bad_width = Solution {
            nonce: u32::MAX as u64 + 1,
            width: NonceWidth::U32,
            ..good4.clone()
        };
        let expired = {
            let c = issuer.issue_at(ip(), Difficulty::ZERO, 1_000);
            solver::solve(&c, ip(), &SolverOptions::default())
                .unwrap()
                .solution
        };
        let future = {
            let c = issuer.issue_at(ip(), Difficulty::ZERO, 1_010_000);
            solver::solve(&c, ip(), &SolverOptions::default())
                .unwrap()
                .solution
        };
        let weak = {
            let c = issuer.issue(ip(), Difficulty::new(20).unwrap());
            let mut nonce = 0u64;
            loop {
                let cand = Solution::new(c.clone(), nonce, NonceWidth::U64);
                if !cand.meets_difficulty(ip()) {
                    break cand;
                }
                nonce += 1;
            }
        };
        // Backend-seam outcomes: a valid memory-hard solution, an unknown
        // backend id, a challenge/solution backend disagreement, and an
        // out-of-bounds arena parameter.
        use crate::backend::BackendId;
        let good_mh = {
            let c = issuer.issue_backend(ip(), Difficulty::new(3).unwrap(), BackendId::MEMORY_HARD);
            solver::solve(&c, ip(), &SolverOptions::default())
                .unwrap()
                .solution
        };
        let good_mh2 = {
            let c = issuer.issue_backend(ip(), Difficulty::new(2).unwrap(), BackendId::MEMORY_HARD);
            solver::solve(&c, ip(), &SolverOptions::default())
                .unwrap()
                .solution
        };
        // Valid at difficulty 0 with a digest of no leading zero bits, so
        // any memory-hard item handed this digest fails its work check.
        let good_late = {
            let c = issuer.issue(ip(), Difficulty::ZERO);
            (0u64..)
                .map(|nonce| Solution::new(c.clone(), nonce, NonceWidth::U64))
                .find(|cand| cand.digest(ip()).leading_zero_bits() == 0)
                .unwrap()
        };
        let unknown_backend = Solution {
            challenge: Challenge::from_parts_backend(
                c.version(),
                BackendId(77),
                0,
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                *c.tag(),
            ),
            backend: BackendId(77),
            ..good4.clone()
        };
        let mismatch = Solution {
            backend: BackendId::MEMORY_HARD,
            ..good4.clone()
        };
        let bad_param = Solution {
            challenge: Challenge::from_parts_backend(
                c.version(),
                BackendId::MEMORY_HARD,
                200,
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                *c.tag(),
            ),
            backend: BackendId::MEMORY_HARD,
            ..good4.clone()
        };

        let submissions = vec![
            (good4.clone(), ip()),
            (bad_version, ip()),
            (good6.clone(), v6),
            (bad_mac, ip()),
            (good6.clone(), other), // ClientMismatch
            (bad_width, ip()),
            (expired, ip()),
            (future, ip()),
            (weak, ip()),
            (good4.clone(), ip()), // intra-batch replay
            (good_mh, ip()),
            (unknown_backend, ip()),
            (mismatch, ip()),
            (bad_param, ip()),
            // The backend groups interleave: a scatter that concatenated
            // the per-backend results would hand `good_late`'s digest to
            // `good_mh`.
            (good_mh2, ip()),
            (good_late, ip()),
        ];

        let (_, scalar) = build(1);
        let want = scalar.verify_batch(&submissions);
        assert!(want[0].is_ok());
        assert!(matches!(
            want[1],
            Err(VerifyError::UnsupportedVersion { got: 99 })
        ));
        assert!(want[2].is_ok());
        assert_eq!(want[3], Err(VerifyError::BadMac));
        assert_eq!(want[4], Err(VerifyError::ClientMismatch));
        assert_eq!(want[5], Err(VerifyError::MalformedNonce));
        assert!(matches!(want[6], Err(VerifyError::Expired { .. })));
        assert_eq!(want[7], Err(VerifyError::NotYetValid));
        assert!(matches!(want[8], Err(VerifyError::InsufficientWork { .. })));
        assert_eq!(want[9], Err(VerifyError::Replayed));
        assert!(want[10].is_ok(), "memory-hard solution through the seam");
        assert_eq!(
            want[11],
            Err(VerifyError::UnknownBackend { got: BackendId(77) })
        );
        assert_eq!(
            want[12],
            Err(VerifyError::BackendMismatch {
                challenge: BackendId::SHA256,
                solution: BackendId::MEMORY_HARD,
            })
        );
        assert_eq!(want[13], Err(VerifyError::InvalidBackendParam { got: 200 }));
        assert!(want[14].is_ok(), "second memory-hard solution");
        assert!(
            want[15].is_ok(),
            "SHA-256 solution after the memory-hard ones"
        );

        for lanes in 2..=sha256_wide::MAX_LANES {
            let (_, wide) = build(lanes);
            assert_eq!(wide.verify_lanes(), lanes);
            assert_eq!(
                wide.verify_batch(&submissions),
                want,
                "lane width {lanes} diverged from scalar"
            );
        }
    }

    #[test]
    fn verify_lanes_is_clamped_and_runtime_settable() {
        // The name predates the removal of the runtime setter: the lane
        // width is now fixed at construction, and both clamps still hold.
        let (_, verifier, _, _) = setup(0);
        let verifier = verifier.with_verify_lanes(0);
        assert_eq!(verifier.verify_lanes(), 1);
        let verifier = verifier.with_verify_lanes(64);
        assert_eq!(verifier.verify_lanes(), sha256_wide::MAX_LANES);
        let verifier = verifier.with_verify_lanes(4);
        assert_eq!(verifier.verify_lanes(), 4);
    }

    #[test]
    fn prepared_verify_pins_the_clock_reading() {
        let (_, verifier, clock, sol) = setup(2);
        let prepared = verifier.prepare_at(clock.now_ms());
        assert_eq!(prepared.now_ms(), 1_000_000);
        // The wall clock races ahead past the TTL mid-batch; the prepared
        // context still verifies at its pinned instant.
        clock.advance(crate::issuer::DEFAULT_TTL_MS + 1);
        let token = prepared.verify_one(&sol, ip()).unwrap();
        assert_eq!(token.verified_at_ms, 1_000_000);
    }

    #[test]
    fn different_nonce_for_same_seed_is_still_replay() {
        // Even a *different valid solution* to the same challenge must not
        // redeem twice.
        let (_, verifier, _, sol) = setup(2);
        verifier.verify(&sol, ip()).unwrap();
        let next = solver::solve(
            &sol.challenge,
            ip(),
            &SolverOptions {
                start_nonce: sol.nonce + 1,
                ..Default::default()
            },
        )
        .unwrap()
        .solution;
        assert_ne!(next.nonce, sol.nonce);
        assert_eq!(verifier.verify(&next, ip()), Err(VerifyError::Replayed));
    }

    #[test]
    fn expired_challenge_rejected() {
        let (_, verifier, clock, sol) = setup(4);
        clock.advance(crate::issuer::DEFAULT_TTL_MS + 1);
        match verifier.verify(&sol, ip()) {
            Err(VerifyError::Expired { .. }) => {}
            other => panic!("expected expiry, got {other:?}"),
        }
    }

    #[test]
    fn future_dated_challenge_rejected() {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock.clone()));
        // Issue 10 s in the future — beyond the 2 s default skew.
        let c = issuer.issue_at(ip(), Difficulty::ZERO, 1_010_000);
        let sol = solver::solve(&c, ip(), &SolverOptions::default())
            .unwrap()
            .solution;
        assert_eq!(verifier.verify(&sol, ip()), Err(VerifyError::NotYetValid));
    }

    #[test]
    fn skew_tolerance_is_configurable() {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock.clone())).with_max_skew_ms(20_000);
        let c = issuer.issue_at(ip(), Difficulty::ZERO, 1_010_000);
        let sol = solver::solve(&c, ip(), &SolverOptions::default())
            .unwrap()
            .solution;
        assert!(verifier.verify(&sol, ip()).is_ok());
    }

    #[test]
    fn wrong_client_rejected() {
        let (_, verifier, _, sol) = setup(4);
        let other = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 99));
        assert_eq!(
            verifier.verify(&sol, other),
            Err(VerifyError::ClientMismatch)
        );
    }

    #[test]
    fn tampered_difficulty_fails_mac() {
        let (_, verifier, _, sol) = setup(6);
        // Lower the carried difficulty to pretend less work was required.
        let c = &sol.challenge;
        let tampered = Challenge::from_parts(
            c.version(),
            *c.seed(),
            c.issued_at_ms(),
            c.ttl_ms(),
            Difficulty::ZERO,
            c.client_ip(),
            *c.tag(),
        );
        let forged = Solution {
            challenge: tampered,
            nonce: sol.nonce,
            width: sol.width,
            backend: sol.backend,
        };
        assert_eq!(verifier.verify(&forged, ip()), Err(VerifyError::BadMac));
    }

    #[test]
    fn tampered_tag_fails_mac() {
        let (_, verifier, _, sol) = setup(4);
        let c = &sol.challenge;
        let mut tag = *c.tag();
        tag[31] ^= 1;
        let forged = Solution {
            challenge: Challenge::from_parts(
                c.version(),
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                tag,
            ),
            nonce: sol.nonce,
            width: sol.width,
            backend: sol.backend,
        };
        assert_eq!(verifier.verify(&forged, ip()), Err(VerifyError::BadMac));
    }

    #[test]
    fn foreign_issuer_rejected() {
        let clock = ManualClock::at(1_000_000);
        let foreign = Issuer::with_clock(&[99u8; 32], Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
        let c = foreign.issue(ip(), Difficulty::ZERO);
        let sol = solver::solve(&c, ip(), &SolverOptions::default())
            .unwrap()
            .solution;
        assert_eq!(verifier.verify(&sol, ip()), Err(VerifyError::BadMac));
    }

    #[test]
    fn insufficient_work_rejected() {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
        // Difficulty 20: an arbitrary nonce almost surely fails the bit check.
        let c = issuer.issue(ip(), Difficulty::new(20).unwrap());
        let mut nonce = 0u64;
        let bogus = loop {
            let candidate = Solution::new(c.clone(), nonce, NonceWidth::U64);
            if !candidate.meets_difficulty(ip()) {
                break candidate;
            }
            nonce += 1;
        };
        match verifier.verify(&bogus, ip()) {
            Err(VerifyError::InsufficientWork { need_bits: 20, .. }) => {}
            other => panic!("expected insufficient work, got {other:?}"),
        }
    }

    #[test]
    fn failed_work_does_not_consume_seed() {
        let (_, verifier, _, sol) = setup(8);
        let wrong = Solution {
            nonce: sol.nonce.wrapping_add(1),
            ..sol.clone()
        };
        // Most likely insufficient work; whatever the outcome, the true
        // solution must still be redeemable afterwards unless `wrong`
        // itself happened to be valid (probability 2^-8 — retry protects
        // the test from that).
        if verifier.verify(&wrong, ip()).is_err() {
            assert!(verifier.verify(&sol, ip()).is_ok());
        }
    }

    #[test]
    fn difficulty_cap_enforced() {
        let (_, verifier, _, _) = setup(0);
        let verifier = verifier.with_difficulty_cap(Difficulty::new(10).unwrap());
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock));
        let c = issuer.issue(ip(), Difficulty::new(11).unwrap());
        let sol = Solution::new(c, 0, NonceWidth::U64);
        match verifier.verify(&sol, ip()) {
            Err(VerifyError::DifficultyTooHigh { .. }) => {}
            other => panic!("expected difficulty cap, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_rejected() {
        let (_, verifier, _, sol) = setup(0);
        let c = &sol.challenge;
        let odd = Challenge::from_parts(
            99,
            *c.seed(),
            c.issued_at_ms(),
            c.ttl_ms(),
            c.difficulty(),
            c.client_ip(),
            *c.tag(),
        );
        let forged = Solution {
            challenge: odd,
            nonce: sol.nonce,
            width: sol.width,
            backend: sol.backend,
        };
        assert_eq!(
            verifier.verify(&forged, ip()),
            Err(VerifyError::UnsupportedVersion { got: 99 })
        );
    }

    #[test]
    fn malformed_nonce_rejected() {
        let (_, verifier, _, sol) = setup(0);
        let forged = Solution {
            nonce: u32::MAX as u64 + 1,
            width: NonceWidth::U32,
            ..sol
        };
        assert_eq!(
            verifier.verify(&forged, ip()),
            Err(VerifyError::MalformedNonce)
        );
    }

    #[test]
    fn memory_hard_roundtrip_and_replay() {
        use crate::backend::BackendId;
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()))
            .with_backend_param(BackendId::MEMORY_HARD, 1);
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
        let c = issuer.issue_backend(ip(), Difficulty::new(5).unwrap(), BackendId::MEMORY_HARD);
        let sol = solver::solve(&c, ip(), &SolverOptions::default())
            .unwrap()
            .solution;
        let token = verifier.verify(&sol, ip()).unwrap();
        assert_eq!(token.difficulty.bits(), 5);
        assert_eq!(verifier.verify(&sol, ip()), Err(VerifyError::Replayed));
    }

    #[test]
    fn unknown_backend_rejected_before_mac() {
        use crate::backend::BackendId;
        let (_, verifier, _, sol) = setup(0);
        let c = &sol.challenge;
        // A garbage tag would fail the MAC, but the unknown-backend check
        // comes first (and must, since the backend defines the work).
        let forged = Solution {
            challenge: Challenge::from_parts_backend(
                c.version(),
                BackendId(200),
                0,
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                [0u8; 32],
            ),
            backend: BackendId(200),
            ..sol.clone()
        };
        assert_eq!(
            verifier.verify(&forged, ip()),
            Err(VerifyError::UnknownBackend {
                got: BackendId(200)
            })
        );
    }

    #[test]
    fn backend_mismatch_rejected() {
        use crate::backend::BackendId;
        let (_, verifier, _, sol) = setup(4);
        let forged = Solution {
            backend: BackendId::MEMORY_HARD,
            ..sol
        };
        assert_eq!(
            verifier.verify(&forged, ip()),
            Err(VerifyError::BackendMismatch {
                challenge: BackendId::SHA256,
                solution: BackendId::MEMORY_HARD,
            })
        );
    }

    #[test]
    fn out_of_bounds_arena_param_rejected() {
        use crate::backend::BackendId;
        let (_, verifier, _, sol) = setup(0);
        let c = &sol.challenge;
        let forged = Solution {
            challenge: Challenge::from_parts_backend(
                c.version(),
                BackendId::MEMORY_HARD,
                0, // below MIN_ARENA_MIB
                *c.seed(),
                c.issued_at_ms(),
                c.ttl_ms(),
                c.difficulty(),
                c.client_ip(),
                [0u8; 32],
            ),
            backend: BackendId::MEMORY_HARD,
            ..sol.clone()
        };
        assert_eq!(
            verifier.verify(&forged, ip()),
            Err(VerifyError::InvalidBackendParam { got: 0 })
        );
    }

    #[test]
    fn strict_u32_solutions_verify() {
        let clock = ManualClock::at(1_000_000);
        let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
        let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
        let c = issuer.issue(ip(), Difficulty::new(8).unwrap());
        let sol = solver::solve(&c, ip(), &SolverOptions::strict())
            .unwrap()
            .solution;
        assert!(verifier.verify(&sol, ip()).is_ok());
    }

    #[test]
    fn error_displays_are_informative() {
        let errors: Vec<VerifyError> = vec![
            VerifyError::UnsupportedVersion { got: 2 },
            VerifyError::UnknownBackend {
                got: crate::backend::BackendId(7),
            },
            VerifyError::BackendMismatch {
                challenge: crate::backend::BackendId::SHA256,
                solution: crate::backend::BackendId::MEMORY_HARD,
            },
            VerifyError::InvalidBackendParam { got: 200 },
            VerifyError::BadMac,
            VerifyError::ClientMismatch,
            VerifyError::NotYetValid,
            VerifyError::Expired {
                expired_at_ms: 1,
                now_ms: 2,
            },
            VerifyError::Replayed,
            VerifyError::InsufficientWork {
                got_bits: 1,
                need_bits: 9,
            },
            VerifyError::MalformedNonce,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// End-to-end issue→solve→verify holds for arbitrary
            /// difficulties ≤ 12 and arbitrary client IPs.
            #[test]
            fn issue_solve_verify(d in 0u8..=12, octets in any::<[u8; 4]>()) {
                let client = IpAddr::V4(Ipv4Addr::from(octets));
                let clock = ManualClock::at(42);
                let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
                let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
                let c = issuer.issue(client, Difficulty::new(d).unwrap());
                let sol = solver::solve(&c, client, &SolverOptions::default())
                    .unwrap().solution;
                prop_assert!(verifier.verify(&sol, client).is_ok());
                prop_assert_eq!(verifier.verify(&sol, client), Err(VerifyError::Replayed));
            }

            /// Any single-byte corruption of the tag is rejected.
            #[test]
            fn tag_corruption_rejected(d in 0u8..=6, idx in 0usize..32, flip in 1u8..=255) {
                let clock = ManualClock::at(42);
                let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
                let verifier = Verifier::with_clock(&KEY, Arc::new(clock));
                let client = ip();
                let c = issuer.issue(client, Difficulty::new(d).unwrap());
                let sol = solver::solve(&c, client, &SolverOptions::default()).unwrap().solution;
                let mut tag = *sol.challenge.tag();
                tag[idx] ^= flip;
                let forged = Solution {
                    challenge: Challenge::from_parts(
                        sol.challenge.version(),
                        *sol.challenge.seed(),
                        sol.challenge.issued_at_ms(),
                        sol.challenge.ttl_ms(),
                        sol.challenge.difficulty(),
                        sol.challenge.client_ip(),
                        tag,
                    ),
                    nonce: sol.nonce,
                    width: sol.width,
                    backend: sol.backend,
                };
                prop_assert_eq!(verifier.verify(&forged, client), Err(VerifyError::BadMac));
            }

            /// A forged tag in a wide batch fails alone: its MAC is
            /// compared per item, so it neither passes with nor shadows
            /// its valid neighbours.
            #[test]
            fn batched_tag_corruption_fails_alone(
                d in 0u8..=6,
                idx in 0usize..32,
                flip in 1u8..=255,
            ) {
                let clock = ManualClock::at(42);
                let issuer = Issuer::with_clock(&KEY, Arc::new(clock.clone()));
                let verifier = Verifier::with_clock(&KEY, Arc::new(clock)).with_verify_lanes(8);
                let client = ip();
                let solve = || {
                    let c = issuer.issue(client, Difficulty::new(d).unwrap());
                    solver::solve(&c, client, &SolverOptions::default()).unwrap().solution
                };
                let (first, middle, last) = (solve(), solve(), solve());
                let c = &middle.challenge;
                let mut tag = *c.tag();
                tag[idx] ^= flip;
                let forged = Solution {
                    challenge: Challenge::from_parts(
                        c.version(),
                        *c.seed(),
                        c.issued_at_ms(),
                        c.ttl_ms(),
                        c.difficulty(),
                        c.client_ip(),
                        tag,
                    ),
                    ..middle.clone()
                };
                let outcomes = verifier
                    .prepare_at(42)
                    .verify_many(&[(&first, client), (&forged, client), (&last, client)]);
                prop_assert!(outcomes[0].is_ok(), "{:?}", outcomes);
                prop_assert_eq!(outcomes[1].clone(), Err(VerifyError::BadMac));
                prop_assert!(outcomes[2].is_ok(), "{:?}", outcomes);
            }
        }
    }
}
