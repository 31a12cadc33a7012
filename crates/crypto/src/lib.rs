//! Self-contained cryptographic primitives for the `aipow` workspace.
//!
//! The AI-assisted PoW framework (Chakraborty et al., DSN 2022) rests on a
//! hash-puzzle substrate: clients repeatedly evaluate a cryptographic hash
//! until the output carries a required number of leading zero bits, and the
//! server authenticates the puzzles it issues so that verification can stay
//! stateless. This crate provides exactly that substrate, implemented from
//! scratch and validated against the official test vectors:
//!
//! - [`sha256`] — FIPS 180-4 SHA-256 (streaming and one-shot),
//!   compressing on the x86-64 SHA extensions where the CPU has them
//!   ([`hardware_sha_active`]) and on the portable rounds everywhere else,
//! - [`sha256_wide`] — lane-interleaved multi-buffer SHA-256 (4/8 independent
//!   blocks per round loop, written for autovectorization),
//! - [`hmac`] — RFC 2104 / FIPS 198-1 HMAC-SHA-256,
//! - [`hkdf`] — RFC 5869 HKDF-SHA-256 (extract / expand),
//! - [`drbg`] — lock-free HMAC counter-mode puzzle seeds,
//! - [`memmix`] — an Argon2-style memory-hard fill/mix arena (the work
//!   function behind the memory-hard puzzle backend),
//! - [`hex`] — hex encoding/decoding,
//! - [`ct`] — constant-time equality for MAC comparison.
//!
//! # Example
//!
//! ```
//! use aipow_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! // The PoW solver cares about leading zero bits of the digest:
//! assert_eq!(Sha256::digest(&[0u8; 4]).leading_zero_bits() < 32, true);
//! ```
//!
//! # Security note
//!
//! These implementations favour clarity and portability over raw speed. The
//! PoW solver deliberately stays on the portable kernel (DESIGN.md §12.4) and
//! is hash-bound at what the wire-to-wire benchmark reads on its 2-vCPU host:
//! 1.2–1.8 M attempts/s at one lane, 2.0–2.8 M/s at the auto-detected width —
//! not tens of MH/s. They are intended for the reproduction study in this
//! repository, not as a general-purpose cryptography library.

// `deny`, not `forbid`: `sha256::compress` opts in for the one call into
// the SHA-NI kernel, directly under its CPU-feature guard (DESIGN.md §12.4).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ct;
pub mod drbg;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod memmix;
pub mod sha256;
pub mod sha256_wide;

pub use hmac::{HmacKey, HmacSha256};
pub use sha256::{hardware_sha_active, Digest, Sha256};
pub use sha256_wide::{auto_lanes, WideHasher, MAX_LANES};
