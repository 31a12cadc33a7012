//! Hashcash-style proof-of-work puzzles (paper §II.3–§II.5).
//!
//! This crate implements the three PoW roles of the framework:
//!
//! - the **issuer** ([`Issuer`]) generates a *d-difficult* puzzle from
//!   request data — a fresh 128-bit seed (mitigating pre-computation
//!   attacks), a timestamp, and the difficulty chosen by the policy module —
//!   and authenticates the bundle with HMAC so verification stays stateless;
//! - the **solver** ([`solver`]) concatenates the challenge data with the
//!   client's IP address, appends a nonce, and evaluates the puzzle's work
//!   function until the digest carries at least `d` leading zero **bits**;
//! - the **verifier** ([`Verifier`]) is the lightweight block: one HMAC, one
//!   work-function evaluation, an expiry window, and a replay guard.
//!
//! The work function itself is pluggable behind the [`backend`] seam: every
//! challenge names a [`PuzzleBackend`] by id ([`BackendId`]), and two ship —
//! the paper's SHA-256 preimage puzzle (default) and a memory-hard
//! fill/mix puzzle whose per-attempt cost serializes on memory latency.
//!
//! # Example
//!
//! ```
//! use aipow_pow::{Difficulty, Issuer, Verifier, solver};
//! use std::net::{IpAddr, Ipv4Addr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let key = [7u8; 32];
//! let issuer = Issuer::new(&key);
//! let verifier = Verifier::new(&key);
//! let ip = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7));
//!
//! let challenge = issuer.issue(ip, Difficulty::new(8)?);
//! let report = solver::solve(&challenge, ip, &solver::SolverOptions::default())?;
//! let token = verifier.verify(&report.solution, ip)?;
//! assert_eq!(token.difficulty, challenge.difficulty());
//! # Ok(())
//! # }
//! ```
//!
//! # Difficulty semantics
//!
//! “A *d-difficult* puzzle” requires a digest with `d` leading zero bits,
//! i.e. an expected `2^d` hash evaluations. The paper's evaluation reaches
//! difficulty 15 (Policy 2 at reputation 10) with sub-second latency, which
//! is only consistent with zero *bits*, not zero hex digits — see DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod challenge;
pub mod difficulty;
pub mod issuer;
pub mod replay;
pub mod solver;
pub mod target;
pub mod time;
pub mod verifier;

pub use backend::{
    BackendId, BackendRegistry, MemoryHardBackend, PuzzleBackend, Sha256Backend, SolveCursor,
};
pub use challenge::{Challenge, NonceWidth, Solution};
pub use difficulty::Difficulty;
pub use issuer::Issuer;
pub use replay::ReplayGuard;
pub use solver::{SolveReport, SolverOptions};
pub use target::Target;
pub use time::{ManualClock, SystemClock, TimeSource};
pub use verifier::{PreparedVerify, VerifiedToken, Verifier, VerifyError};
