//! Challenge and solution data types (paper §II.3–§II.4).
//!
//! A challenge is “request related data, i.e., timestamp and unique seed
//! (for mitigating pre-computation attacks), and a difficulty value as
//! defined by the policy module”. The issuer authenticates the bundle with
//! an HMAC tag so the verifier can recognize its own challenges without
//! storing them.

use crate::backend::{BackendId, BackendRegistry};
use crate::difficulty::Difficulty;
use aipow_crypto::sha256::Digest;
use core::fmt::{self, Write as _};
use core::ops::Deref;
use std::net::IpAddr;

/// Current challenge format version.
pub const CHALLENGE_VERSION: u8 = 1;

/// Size of the anti-precomputation seed in bytes.
pub const SEED_LEN: usize = 16;

/// Longest [`Challenge::authenticated_bytes`]: version, backend, backend
/// parameter, seed, issue time, TTL, difficulty, and a tagged IPv6
/// address (`0x06 ‖ 16 bytes`).
pub const AUTH_BYTES_LEN: usize = 1 + 1 + 1 + SEED_LEN + 8 + 8 + 1 + 17;

/// Longest textual IP address: an IPv6 address with an embedded IPv4
/// tail, `xxxx:xxxx:xxxx:xxxx:xxxx:xxxx:ddd.ddd.ddd.ddd`.
const MAX_IP_TEXT_LEN: usize = 45;

/// Longest [`Solution::preimage`]: the authenticated bytes, the tag, the
/// textual client IP, and an 8-byte nonce.
pub const PREIMAGE_LEN: usize = AUTH_BYTES_LEN + 32 + MAX_IP_TEXT_LEN + 8;

/// A hash input assembled on the stack: at most `N` bytes, read as
/// `[u8]` through `Deref`. The MAC input and the work preimage are
/// bounded by construction, so issuing and verifying build them without
/// touching the heap.
#[derive(Clone)]
pub struct HashInput<const N: usize> {
    bytes: [u8; N],
    len: usize,
}

/// [`Challenge::authenticated_bytes`]: the issuer's MAC input.
pub type AuthBytes = HashInput<AUTH_BYTES_LEN>;

/// [`Challenge::preimage_prefix`] and [`Solution::preimage`]: the
/// work-function input, with room for the nonce.
pub type Preimage = HashInput<PREIMAGE_LEN>;

impl<const N: usize> HashInput<N> {
    fn new() -> Self {
        HashInput {
            bytes: [0; N],
            len: 0,
        }
    }

    /// Appends `src`. Every caller appends a bounded field to a buffer
    /// sized for the largest encoding, so slicing past `N` is a sizing
    /// bug, not an input condition.
    fn extend(&mut self, src: &[u8]) {
        self.bytes[self.len..self.len + src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

impl<const N: usize> Deref for HashInput<N> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

impl<const N: usize> PartialEq for HashInput<N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> fmt::Debug for HashInput<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Text (the client IP) is written straight into the buffer; a write
/// that does not fit fails instead of truncating.
impl<const N: usize> fmt::Write for HashInput<N> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.len + s.len() > N {
            return Err(fmt::Error);
        }
        self.extend(s.as_bytes());
        Ok(())
    }
}

/// A proof-of-work challenge as issued to a client.
///
/// The fields mirror the paper's puzzle-generation module: a unique seed, an
/// issuance timestamp, a TTL, the policy-assigned difficulty, the client IP
/// the puzzle is bound to, and the issuer's HMAC tag over all of the above.
///
/// ```
/// use aipow_pow::{Difficulty, Issuer};
/// # use std::net::{IpAddr, Ipv4Addr};
/// let issuer = Issuer::new(&[0u8; 32]);
/// let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
/// let c = issuer.issue(ip, Difficulty::new(4).unwrap());
/// assert_eq!(c.difficulty().bits(), 4);
/// assert_eq!(c.client_ip(), ip);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Challenge {
    version: u8,
    backend: BackendId,
    backend_param: u8,
    seed: [u8; SEED_LEN],
    issued_at_ms: u64,
    ttl_ms: u64,
    difficulty: Difficulty,
    client_ip: IpAddr,
    tag: [u8; 32],
}

impl Challenge {
    /// Assembles a SHA-256-backend challenge from parts — the historical
    /// constructor, kept for the default backend; backend-qualified callers
    /// (the issuer, wire decoding) use
    /// [`from_parts_backend`](Self::from_parts_backend).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        version: u8,
        seed: [u8; SEED_LEN],
        issued_at_ms: u64,
        ttl_ms: u64,
        difficulty: Difficulty,
        client_ip: IpAddr,
        tag: [u8; 32],
    ) -> Self {
        Self::from_parts_backend(
            version,
            BackendId::SHA256,
            0,
            seed,
            issued_at_ms,
            ttl_ms,
            difficulty,
            client_ip,
            tag,
        )
    }

    /// Assembles a challenge from parts, including its puzzle backend id
    /// and backend parameter (the memory-hard arena size in MiB; 0 for the
    /// SHA-256 backend).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts_backend(
        version: u8,
        backend: BackendId,
        backend_param: u8,
        seed: [u8; SEED_LEN],
        issued_at_ms: u64,
        ttl_ms: u64,
        difficulty: Difficulty,
        client_ip: IpAddr,
        tag: [u8; 32],
    ) -> Self {
        Challenge {
            version,
            backend,
            backend_param,
            seed,
            issued_at_ms,
            ttl_ms,
            difficulty,
            client_ip,
            tag,
        }
    }

    /// Format version of this challenge.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The puzzle backend this challenge must be solved with.
    pub fn backend(&self) -> BackendId {
        self.backend
    }

    /// The backend parameter (arena MiB for the memory-hard backend, 0
    /// for the SHA-256 backend). MAC-covered, so a client cannot shrink
    /// a memory-hard arena any more than it can lower the difficulty.
    pub fn backend_param(&self) -> u8 {
        self.backend_param
    }

    /// The unique anti-precomputation seed.
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// Issuance timestamp, milliseconds since the Unix epoch.
    pub fn issued_at_ms(&self) -> u64 {
        self.issued_at_ms
    }

    /// Validity window length in milliseconds.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// The required number of leading zero bits.
    pub fn difficulty(&self) -> Difficulty {
        self.difficulty
    }

    /// The client IP this challenge was issued to.
    pub fn client_ip(&self) -> IpAddr {
        self.client_ip
    }

    /// The issuer's HMAC tag.
    pub fn tag(&self) -> &[u8; 32] {
        &self.tag
    }

    /// Expiry instant: `issued_at + ttl`, saturating.
    pub fn expires_at_ms(&self) -> u64 {
        self.issued_at_ms.saturating_add(self.ttl_ms)
    }

    /// Whether the challenge has expired at `now_ms`.
    pub fn is_expired(&self, now_ms: u64) -> bool {
        now_ms > self.expires_at_ms()
    }

    /// Short printable identifier (hex of the seed).
    pub fn id(&self) -> String {
        aipow_crypto::hex::encode(&self.seed)
    }

    /// Canonical byte encoding of the fields covered by the issuer's MAC:
    /// `version ‖ backend ‖ backend_param ‖ seed ‖ issued_at ‖ ttl ‖
    /// difficulty ‖ ip`, all big-endian. Covering the backend id and its
    /// parameter is what makes backend selection non-negotiable: a client
    /// downgrading a memory-hard challenge to SHA-256 (or shrinking its
    /// arena) invalidates the tag.
    pub fn authenticated_bytes(&self) -> AuthBytes {
        let mut out = AuthBytes::new();
        out.extend(&[self.version, self.backend.as_u8(), self.backend_param]);
        out.extend(&self.seed);
        out.extend(&self.issued_at_ms.to_be_bytes());
        out.extend(&self.ttl_ms.to_be_bytes());
        out.extend(&[self.difficulty.bits()]);
        match self.client_ip {
            IpAddr::V4(v4) => {
                out.extend(&[0x04]);
                out.extend(&v4.octets());
            }
            IpAddr::V6(v6) => {
                out.extend(&[0x06]);
                out.extend(&v6.octets());
            }
        }
        out
    }

    /// The immutable solve-preimage prefix: the challenge data as received
    /// (including the tag) concatenated with the textual client IP, per
    /// paper §II.4 — “concatenated with the client's IP address to form a
    /// string that is not altered”. The solver appends only the nonce.
    /// The IP text is the address's `Display` form, written in place.
    pub fn preimage_prefix(&self, client_ip: IpAddr) -> Preimage {
        let mut out = Preimage::new();
        out.extend(&self.authenticated_bytes());
        out.extend(&self.tag);
        write!(out, "{client_ip}")
            .expect("capacity invariant: an IP address prints in at most 45 bytes");
        out
    }

    /// The same challenge carrying `tag`: the issuer MACs the
    /// authenticated bytes of the untagged challenge, then sets the tag.
    pub(crate) fn with_tag(mut self, tag: [u8; 32]) -> Self {
        self.tag = tag;
        self
    }
}

/// Width of the nonce the solver appends to the preimage.
///
/// The paper specifies a 32-bit nonce. A 32-bit space exhausts with
/// probability `≈ e^{-2^{32-d}}` at difficulty `d` (non-negligible beyond
/// `d ≈ 28`), so the default is [`NonceWidth::U64`]; use
/// [`SolverOptions::strict_u32`](crate::SolverOptions) for paper-faithful
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NonceWidth {
    /// 4-byte big-endian nonce (paper-faithful).
    U32,
    /// 8-byte big-endian nonce (default).
    #[default]
    U64,
}

impl NonceWidth {
    /// Serializes `nonce` at this width (big-endian).
    ///
    /// # Panics
    ///
    /// Panics if `nonce` does not fit the width; the solver guarantees this
    /// by construction, and wire decoding validates before calling.
    pub fn encode(&self, nonce: u64) -> Vec<u8> {
        let mut out = HashInput::<8>::new();
        self.append(nonce, &mut out);
        out.to_vec()
    }

    /// Appends `nonce` at this width (big-endian); panics as
    /// [`encode`](Self::encode).
    fn append<const N: usize>(&self, nonce: u64, out: &mut HashInput<N>) {
        match self {
            NonceWidth::U32 => {
                let n32 = u32::try_from(nonce)
                    .expect("width invariant: U32-width stamps carry u32-range nonces");
                out.extend(&n32.to_be_bytes());
            }
            NonceWidth::U64 => out.extend(&nonce.to_be_bytes()),
        }
    }

    /// Whether `nonce` is representable at this width.
    pub fn fits(&self, nonce: u64) -> bool {
        match self {
            NonceWidth::U32 => nonce <= u32::MAX as u64,
            NonceWidth::U64 => true,
        }
    }

    /// The maximum nonce representable at this width.
    pub fn max_nonce(&self) -> u64 {
        match self {
            NonceWidth::U32 => u32::MAX as u64,
            NonceWidth::U64 => u64::MAX,
        }
    }
}

/// A candidate solution: the challenge it answers plus the found nonce,
/// and the backend the client actually solved with. The verifier rejects a
/// declared backend that disagrees with the challenge's
/// ([`VerifyError::BackendMismatch`](crate::VerifyError)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The challenge being answered (echoed back to the verifier).
    pub challenge: Challenge,
    /// The nonce that produced a qualifying digest.
    pub nonce: u64,
    /// Width at which the nonce was hashed.
    pub width: NonceWidth,
    /// The backend whose work function the client evaluated.
    pub backend: BackendId,
}

impl Solution {
    /// Builds a solution for `challenge`, declaring the challenge's own
    /// backend (the only declaration a verifier accepts).
    pub fn new(challenge: Challenge, nonce: u64, width: NonceWidth) -> Self {
        let backend = challenge.backend();
        Solution {
            challenge,
            nonce,
            width,
            backend,
        }
    }

    /// Computes the solution digest for a claimed client IP, dispatching
    /// the work function through `registry`. Returns `None` when the
    /// challenge's backend id is not registered.
    pub fn digest_with(&self, client_ip: IpAddr, registry: &BackendRegistry) -> Option<Digest> {
        let backend = registry.get(self.challenge.backend())?;
        Some(backend.work_digest(self.challenge.backend_param(), &self.preimage(client_ip)))
    }

    /// The full work-function input for a claimed client IP: the
    /// challenge's [`preimage_prefix`](Challenge::preimage_prefix)
    /// followed by the nonce encoded at its width.
    pub fn preimage(&self, client_ip: IpAddr) -> Preimage {
        let mut preimage = self.challenge.preimage_prefix(client_ip);
        self.width.append(self.nonce, &mut preimage);
        preimage
    }

    /// Computes the solution digest for a claimed client IP via the
    /// process-wide standard registry.
    ///
    /// # Panics
    ///
    /// Panics if the challenge carries an unregistered backend id; the
    /// verifier never reaches this (it resolves the backend first and
    /// rejects unknown ids with a typed error), so this is for trusted
    /// locally-built solutions. Untrusted paths use
    /// [`digest_with`](Self::digest_with).
    pub fn digest(&self, client_ip: IpAddr) -> Digest {
        self.digest_with(client_ip, BackendRegistry::global())
            .expect("backend invariant: locally built solutions use registered backends")
    }

    /// Whether the digest for `client_ip` meets the challenge difficulty.
    pub fn meets_difficulty(&self, client_ip: IpAddr) -> bool {
        self.digest(client_ip).leading_zero_bits() >= self.challenge.difficulty().bits() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn sample_challenge(ip: IpAddr) -> Challenge {
        Challenge::from_parts(
            CHALLENGE_VERSION,
            [9u8; SEED_LEN],
            1_000,
            30_000,
            Difficulty::new(4).unwrap(),
            ip,
            [3u8; 32],
        )
    }

    #[test]
    fn expiry_window() {
        let c = sample_challenge(IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert_eq!(c.expires_at_ms(), 31_000);
        assert!(!c.is_expired(31_000));
        assert!(c.is_expired(31_001));
    }

    #[test]
    fn expiry_saturates() {
        let c = Challenge::from_parts(
            1,
            [0; SEED_LEN],
            u64::MAX - 5,
            100,
            Difficulty::ZERO,
            IpAddr::V4(Ipv4Addr::LOCALHOST),
            [0; 32],
        );
        assert_eq!(c.expires_at_ms(), u64::MAX);
    }

    #[test]
    fn authenticated_bytes_cover_every_field() {
        let ip = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        let base = sample_challenge(ip);
        let baseline = base.authenticated_bytes();

        let variants = [
            Challenge::from_parts(
                2,
                *base.seed(),
                1_000,
                30_000,
                base.difficulty(),
                ip,
                [3; 32],
            ),
            Challenge::from_parts(
                1,
                [8; SEED_LEN],
                1_000,
                30_000,
                base.difficulty(),
                ip,
                [3; 32],
            ),
            Challenge::from_parts(
                1,
                *base.seed(),
                1_001,
                30_000,
                base.difficulty(),
                ip,
                [3; 32],
            ),
            Challenge::from_parts(
                1,
                *base.seed(),
                1_000,
                30_001,
                base.difficulty(),
                ip,
                [3; 32],
            ),
            Challenge::from_parts(
                1,
                *base.seed(),
                1_000,
                30_000,
                Difficulty::new(5).unwrap(),
                ip,
                [3; 32],
            ),
            Challenge::from_parts(
                1,
                *base.seed(),
                1_000,
                30_000,
                base.difficulty(),
                IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
                [3; 32],
            ),
            Challenge::from_parts_backend(
                1,
                BackendId::MEMORY_HARD,
                0,
                *base.seed(),
                1_000,
                30_000,
                base.difficulty(),
                ip,
                [3; 32],
            ),
            Challenge::from_parts_backend(
                1,
                BackendId::SHA256,
                8,
                *base.seed(),
                1_000,
                30_000,
                base.difficulty(),
                ip,
                [3; 32],
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(
                v.authenticated_bytes(),
                baseline,
                "variant {i} not reflected in authenticated bytes"
            );
        }
    }

    #[test]
    fn tag_not_in_authenticated_bytes_but_in_preimage() {
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let a = sample_challenge(ip);
        let mut b = a.clone();
        b.tag = [7u8; 32];
        assert_eq!(a.authenticated_bytes(), b.authenticated_bytes());
        assert_ne!(a.preimage_prefix(ip), b.preimage_prefix(ip));
    }

    #[test]
    fn preimage_binds_solver_ip() {
        let issued_to = IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4));
        let c = sample_challenge(issued_to);
        let other = IpAddr::V4(Ipv4Addr::new(4, 3, 2, 1));
        assert_ne!(c.preimage_prefix(issued_to), c.preimage_prefix(other));
    }

    #[test]
    fn ipv6_challenges_encode_distinctly() {
        let v6 = IpAddr::V6(Ipv6Addr::LOCALHOST);
        let v4 = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let a = sample_challenge(v6);
        let b = sample_challenge(v4);
        assert_ne!(a.authenticated_bytes(), b.authenticated_bytes());
    }

    #[test]
    fn nonce_width_encoding() {
        assert_eq!(NonceWidth::U32.encode(0x0102_0304), vec![1, 2, 3, 4]);
        assert_eq!(NonceWidth::U64.encode(1).len(), 8);
        assert!(NonceWidth::U32.fits(u32::MAX as u64));
        assert!(!NonceWidth::U32.fits(u32::MAX as u64 + 1));
        assert!(NonceWidth::U64.fits(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "width invariant")]
    fn nonce_width_u32_panics_on_overflow() {
        NonceWidth::U32.encode(u64::MAX);
    }

    #[test]
    fn solution_digest_depends_on_nonce_and_width() {
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let c = sample_challenge(ip);
        let s1 = Solution::new(c.clone(), 1, NonceWidth::U64);
        let s2 = Solution::new(c.clone(), 2, NonceWidth::U64);
        let s3 = Solution::new(c, 1, NonceWidth::U32);
        assert_ne!(s1.digest(ip), s2.digest(ip));
        assert_ne!(s1.digest(ip), s3.digest(ip));
    }

    #[test]
    fn zero_difficulty_always_meets() {
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let mut c = sample_challenge(ip);
        c.difficulty = Difficulty::ZERO;
        let s = Solution::new(c, 12345, NonceWidth::U64);
        assert!(s.meets_difficulty(ip));
    }

    #[test]
    fn challenge_id_is_seed_hex() {
        let c = sample_challenge(IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert_eq!(c.id(), "09".repeat(SEED_LEN));
    }

    #[test]
    fn legacy_constructor_defaults_to_the_sha256_backend() {
        let c = sample_challenge(IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert_eq!(c.backend(), BackendId::SHA256);
        assert_eq!(c.backend_param(), 0);
        let s = Solution::new(c, 0, NonceWidth::U64);
        assert_eq!(s.backend, BackendId::SHA256);
    }

    #[test]
    fn memory_hard_digest_dispatches_through_the_backend() {
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let c = Challenge::from_parts_backend(
            CHALLENGE_VERSION,
            BackendId::MEMORY_HARD,
            1,
            [9u8; SEED_LEN],
            1_000,
            30_000,
            Difficulty::new(4).unwrap(),
            ip,
            [3u8; 32],
        );
        let s = Solution::new(c.clone(), 42, NonceWidth::U64);
        let mut preimage = c.preimage_prefix(ip).to_vec();
        preimage.extend_from_slice(&NonceWidth::U64.encode(42));
        let want = aipow_crypto::memmix::shared_arena(1).walk(&preimage);
        assert_eq!(s.digest(ip), want);
        assert_ne!(
            s.digest(ip),
            aipow_crypto::sha256::Sha256::digest(&preimage),
            "memory-hard digests are not plain SHA-256"
        );
    }

    #[test]
    fn unknown_backend_digest_is_none_not_panic() {
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let c = Challenge::from_parts_backend(
            CHALLENGE_VERSION,
            BackendId(77),
            0,
            [9u8; SEED_LEN],
            1_000,
            30_000,
            Difficulty::ZERO,
            ip,
            [3u8; 32],
        );
        let s = Solution::new(c, 0, NonceWidth::U64);
        assert!(s.digest_with(ip, BackendRegistry::global()).is_none());
    }

    /// The heap builders these stack forms replaced, kept verbatim as the
    /// oracle: the MAC input and the work preimage must not change by a
    /// byte, or every outstanding challenge stops verifying.
    mod vec_oracle {
        use super::*;

        pub fn authenticated_bytes(c: &Challenge) -> Vec<u8> {
            let mut out = Vec::with_capacity(1 + 2 + SEED_LEN + 8 + 8 + 1 + 17);
            out.push(c.version);
            out.push(c.backend.as_u8());
            out.push(c.backend_param);
            out.extend_from_slice(&c.seed);
            out.extend_from_slice(&c.issued_at_ms.to_be_bytes());
            out.extend_from_slice(&c.ttl_ms.to_be_bytes());
            out.push(c.difficulty.bits());
            encode_ip(&mut out, c.client_ip);
            out
        }

        fn encode_ip(out: &mut Vec<u8>, ip: IpAddr) {
            match ip {
                IpAddr::V4(v4) => {
                    out.push(0x04);
                    out.extend_from_slice(&v4.octets());
                }
                IpAddr::V6(v6) => {
                    out.push(0x06);
                    out.extend_from_slice(&v6.octets());
                }
            }
        }

        pub fn preimage_prefix(c: &Challenge, client_ip: IpAddr) -> Vec<u8> {
            let mut out = authenticated_bytes(c);
            out.extend_from_slice(&c.tag);
            out.extend_from_slice(client_ip.to_string().as_bytes());
            out
        }

        pub fn preimage(s: &Solution, client_ip: IpAddr) -> Vec<u8> {
            let mut preimage = preimage_prefix(&s.challenge, client_ip);
            preimage.extend_from_slice(&s.width.encode(s.nonce));
            preimage
        }
    }

    #[test]
    fn the_widest_ipv6_challenge_fits_the_stack_forms() {
        let widest = IpAddr::V6(Ipv6Addr::from([0xffff; 8]));
        assert_eq!(widest.to_string().len(), 39);
        let s = Solution::new(sample_challenge(widest), u64::MAX, NonceWidth::U64);
        assert_eq!(s.challenge.authenticated_bytes().len(), AUTH_BYTES_LEN);
        assert_eq!(&*s.preimage(widest), vec_oracle::preimage(&s, widest));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// IPv4, arbitrary IPv6, IPv4-mapped IPv6 (`::ffff:a.b.c.d`,
        /// printed with a dotted tail) and the widest IPv6 text.
        fn arb_ip() -> impl Strategy<Value = IpAddr> {
            prop_oneof![
                any::<[u8; 4]>().prop_map(|o| IpAddr::V4(Ipv4Addr::from(o))),
                any::<[u8; 16]>().prop_map(|o| IpAddr::V6(Ipv6Addr::from(o))),
                any::<[u8; 4]>().prop_map(|o| IpAddr::V6(Ipv4Addr::from(o).to_ipv6_mapped())),
                Just(IpAddr::V6(Ipv6Addr::from([0xffff; 8]))),
            ]
        }

        prop_compose! {
            fn arb_solution()(
                version in any::<u8>(),
                backend in any::<u8>(),
                backend_param in any::<u8>(),
                seed in any::<[u8; SEED_LEN]>(),
                issued_at_ms in any::<u64>(),
                ttl_ms in any::<u64>(),
                bits in 0u8..=64,
                ip in arb_ip(),
                tag in any::<[u8; 32]>(),
                nonce in any::<u64>(),
                wide in any::<bool>(),
            ) -> Solution {
                let challenge = Challenge::from_parts_backend(
                    version,
                    BackendId(backend),
                    backend_param,
                    seed,
                    issued_at_ms,
                    ttl_ms,
                    Difficulty::new(bits).expect("bits in range"),
                    ip,
                    tag,
                );
                let (nonce, width) = if wide {
                    (nonce, NonceWidth::U64)
                } else {
                    (nonce & 0xFFFF_FFFF, NonceWidth::U32)
                };
                Solution::new(challenge, nonce, width)
            }
        }

        proptest! {
            #[test]
            fn stack_forms_equal_the_vec_builders(
                solution in arb_solution(),
                claimed_ip in arb_ip(),
            ) {
                let c = &solution.challenge;
                prop_assert_eq!(&*c.authenticated_bytes(), vec_oracle::authenticated_bytes(c));
                for ip in [claimed_ip, c.client_ip()] {
                    prop_assert_eq!(&*c.preimage_prefix(ip), vec_oracle::preimage_prefix(c, ip));
                    prop_assert_eq!(&*solution.preimage(ip), vec_oracle::preimage(&solution, ip));
                }
            }
        }
    }
}
