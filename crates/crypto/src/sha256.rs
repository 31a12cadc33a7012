//! FIPS 180-4 SHA-256.
//!
//! Both a streaming API ([`Sha256::new`] / [`update`](Sha256::update) /
//! [`finalize`](Sha256::finalize)) and a one-shot API ([`Sha256::digest`])
//! are provided.
//!
//! The [`Digest`] type wraps the 32-byte output and offers the helpers the
//! proof-of-work layer needs, most importantly
//! [`leading_zero_bits`](Digest::leading_zero_bits).

use core::fmt;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes (FIPS 180-4 §4.2.2). Shared with the
/// lane-interleaved kernel in [`crate::sha256_wide`].
pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3).
pub(crate) const H256: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// A 32-byte SHA-256 digest.
///
/// Provides the bit-level inspection helpers used by the proof-of-work
/// solver and verifier, plus hex formatting.
///
/// ```
/// use aipow_crypto::sha256::Sha256;
/// let d = Sha256::digest(b"hello");
/// assert_eq!(d.as_bytes().len(), 32);
/// assert_eq!(d.to_hex().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the raw byte array.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Number of consecutive zero bits at the front (big-endian bit order)
    /// of the digest. This is the quantity a `d`-difficult puzzle constrains:
    /// a solution must hash to a digest with at least `d` leading zero bits.
    ///
    /// ```
    /// use aipow_crypto::sha256::Digest;
    /// let mut bytes = [0xffu8; 32];
    /// bytes[0] = 0b0000_0111; // five leading zero bits
    /// assert_eq!(Digest(bytes).leading_zero_bits(), 5);
    /// assert_eq!(Digest([0u8; 32]).leading_zero_bits(), 256);
    /// ```
    pub fn leading_zero_bits(&self) -> u32 {
        let mut bits = 0u32;
        for &byte in &self.0 {
            if byte == 0 {
                bits += 8;
            } else {
                bits += byte.leading_zeros();
                break;
            }
        }
        bits
    }

    /// Interprets the first eight bytes as a big-endian integer. Used by the
    /// fractional-difficulty ("target") extension of the puzzle module, where
    /// a solution must satisfy `prefix_u64 <= target`.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(
            self.0[..8]
                .try_into()
                .expect("digest-length invariant: 32 >= 8"),
        )
    }

    /// Lowercase hex representation (64 characters).
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`crate::hex::ParseHexError`] if the input is not exactly 64
    /// valid hex characters.
    pub fn from_hex(s: &str) -> Result<Self, crate::hex::ParseHexError> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 32] = bytes
            .try_into()
            .map_err(|_| crate::hex::ParseHexError::BadLength)?;
        Ok(Digest(arr))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

/// Streaming SHA-256 hasher.
///
/// ```
/// use aipow_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    pub(crate) state: [u32; 8],
    /// Partial input block awaiting compression.
    pub(crate) buf: [u8; 64],
    pub(crate) buf_len: usize,
    /// Total message length in bytes (message limit 2^61 bytes, far beyond
    /// anything this workspace hashes).
    pub(crate) total_len: u64,
    /// Compress on the CPU's SHA extensions, not the portable rounds; fixed at construction.
    hardware: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether [`Sha256::new`] hashes on the CPU's SHA extensions (x86-64
/// SHA-NI). Read-only: the CPU decides, no flag or feature does.
pub fn hardware_sha_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the kernel [`hardware_sha_active`] reports.
    pub fn new() -> Self {
        Self::with_kernel(hardware_sha_active())
    }

    /// Creates a fresh hasher pinned to the portable kernel: every non-SHA host's fallback,
    /// the tests' named reference, and what the client solvers run (DESIGN.md §12.4).
    pub fn portable() -> Self {
        Self::with_kernel(false)
    }

    fn with_kernel(hardware: bool) -> Self {
        Sha256 {
            state: H256,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            hardware,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Fill a partial block first, if any.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(self.hardware, &mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input.
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            compress(
                self.hardware,
                &mut self.state,
                block
                    .try_into()
                    .expect("split_at invariant: the block is exactly 64 bytes"),
            );
            rest = tail;
        }

        // Stash the tail.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        self.pad();
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Pads in the block buffer (0x80, zeros, 64-bit bit length; `buf_len < 64`).
    fn pad(&mut self) {
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len + 1 > 56 {
            // No room for the length: it goes in a block of its own.
            compress(self.hardware, &mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(self.hardware, &mut self.state, &self.buf);
    }
}

/// One compression through the kernel the calling hasher holds.
#[allow(unsafe_code)]
fn compress(hardware: bool, state: &mut [u32; 8], block: &[u8; 64]) {
    if hardware {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: this CPU has every feature `compress_sha_ni` enables, checked just above.
            unsafe { compress_sha_ni(state, block) };
            return;
        }
    }
    compress_portable(state, block);
}

/// The compression function on the x86-64 SHA extensions: two rounds per `sha256rnds2`,
/// four schedule words per `sha256msg1`/`msg2`. Values only — no pointer loads or stores — so
/// the body needs no `unsafe`; calling it is sound only on a CPU with the enabled features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;
    let word = |i: usize| u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
    let quad = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    let mut w: [__m128i; 4] =
        core::array::from_fn(|g| quad(core::array::from_fn(|i| word(16 * g + 4 * i))));

    // The instructions want the state as (A,B,E,F) and (C,D,G,H), high lane first.
    let [a, b, c, d, e, f, g, h] = *state;
    let (abef_in, cdgh_in) = (quad([f, e, b, a]), quad([h, g, d, c]));
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);

    for t in 0..16 {
        if t >= 4 {
            // Words 4t..4t+4 from the four quads before them.
            let (w3, w2) = (w[(t + 3) % 4], w[(t + 2) % 4]);
            let partial = _mm_sha256msg1_epu32(w[t % 4], w[(t + 1) % 4]);
            let partial = _mm_add_epi32(partial, _mm_alignr_epi8::<4>(w3, w2));
            w[t % 4] = _mm_sha256msg2_epu32(partial, w3);
        }
        let k = quad([K[4 * t], K[4 * t + 1], K[4 * t + 2], K[4 * t + 3]]);
        let wk = _mm_add_epi32(w[t % 4], k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    let (abef, cdgh) = (_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in));
    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}

/// The portable SHA-256 compression function over one 64-byte block.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    // Message schedule.
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(
            chunk
                .try_into()
                .expect("chunks_exact invariant: every chunk is 4 bytes"),
        );
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Every kernel by name as an unused hasher: the portable reference, what
/// [`Sha256::new`] builds when the probe is forced false, and the hardware
/// kernel where this CPU has it (`skipped: no sha_ni` where it does not).
#[cfg(test)]
pub(crate) fn test_kernels() -> Vec<(&'static str, Sha256)> {
    let mut kernels = vec![
        ("portable", Sha256::portable()),
        ("probe forced false", Sha256::with_kernel(false)),
    ];
    if hardware_sha_active() {
        kernels.push(("hardware", Sha256::new()));
    } else {
        eprintln!("skipped: no sha_ni");
    }
    kernels
}

/// `data` hashed in one `update` on a clone of the unused hasher `fresh`.
#[cfg(test)]
pub(crate) fn digest_on(fresh: &Sha256, data: &[u8]) -> Digest {
    let mut h = fresh.clone();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256_wide::WideHasher;

    /// FIPS 180-4 / NIST CAVS known-answer vectors.
    #[test]
    fn sha256_nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (kernel, fresh) in test_kernels() {
            for (input, expected) in cases {
                assert_eq!(&digest_on(&fresh, input).to_hex(), expected, "{kernel}");
            }
        }
        // The public one-shot is `new()`'s kernel, whichever that is here.
        assert_eq!(
            Sha256::digest(b"abc"),
            digest_on(&Sha256::portable(), b"abc")
        );
    }

    #[test]
    fn sha256_million_a() {
        let chunk = [b'a'; 1000];
        for (kernel, mut h) in test_kernels() {
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                h.finalize().to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel}"
            );
        }
    }

    /// Every padding regime (no spill, exact fit, spill into a second
    /// block, with and without a full block before) hashed four ways on
    /// every kernel: all equal the portable one-shot digest.
    #[test]
    fn padding_lengths_agree_across_every_way_of_hashing_on_every_kernel() {
        for len in [0usize, 55, 56, 63, 64, 65, 119, 120] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let reference = digest_on(&Sha256::portable(), &data);
            for (kernel, fresh) in test_kernels() {
                assert_eq!(
                    digest_on(&fresh, &data),
                    reference,
                    "{kernel} one-shot {len}"
                );

                let mut streamed = fresh.clone();
                data.iter().for_each(|b| streamed.update(&[*b]));
                assert_eq!(streamed.finalize(), reference, "{kernel} streamed {len}");

                let (head, tail) = data.split_at(len / 2);
                let mut midstate = fresh.clone();
                midstate.update(head);
                assert_eq!(
                    digest_on(&midstate, tail),
                    reference,
                    "{kernel} midstate clone {len}"
                );
                // The original is unharmed by the clone finishing first.
                assert_eq!(digest_on(&midstate, tail), reference);

                let mut wide = WideHasher::<4>::from_midstate(&midstate);
                wide.update([tail; 4]);
                assert_eq!(wide.finalize(), [reference; 4], "{kernel} wide {len}");
            }
        }
    }

    /// Streaming must agree with one-shot regardless of chunk boundaries.
    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let reference = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn leading_zero_bits_counts_bitwise() {
        let mut b = [0u8; 32];
        b[0] = 0x01;
        assert_eq!(Digest(b).leading_zero_bits(), 7);
        b[0] = 0x80;
        assert_eq!(Digest(b).leading_zero_bits(), 0);
        b[0] = 0x00;
        b[1] = 0x10;
        assert_eq!(Digest(b).leading_zero_bits(), 11);
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        let parsed = Digest::from_hex(&d.to_hex()).expect("valid hex");
        assert_eq!(parsed, d);
    }

    #[test]
    fn digest_from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("abcd").is_err());
        assert!(Digest::from_hex(&"g".repeat(64)).is_err());
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut b = [0u8; 32];
        b[7] = 1;
        assert_eq!(Digest(b).prefix_u64(), 1);
        b[0] = 0x80;
        assert!(Digest(b).prefix_u64() > u64::MAX / 2);
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let d = Sha256::digest(b"x");
        assert!(!format!("{d:?}").is_empty());
        assert!(!format!("{d}").is_empty());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Chunked hashing equals one-shot hashing for arbitrary inputs
            /// and split points.
            #[test]
            fn chunked_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                      splits in proptest::collection::vec(0usize..2048, 0..4)) {
                let reference = Sha256::digest(&data);
                let mut points: Vec<usize> =
                    splits.iter().map(|s| s % (data.len() + 1)).collect();
                points.sort_unstable();
                let mut h = Sha256::new();
                let mut prev = 0usize;
                for p in points {
                    h.update(&data[prev..p]);
                    prev = p;
                }
                h.update(&data[prev..]);
                prop_assert_eq!(h.finalize(), reference);
            }

            /// One compression from a random chaining value over a random
            /// block is the same under both kernels.
            #[test]
            fn kernels_agree_on_one_compression(state in any::<[u8; 32]>(),
                                                block in any::<[u8; 64]>()) {
                let state: [u32; 8] = core::array::from_fn(|i| {
                    u32::from_be_bytes([state[4 * i], state[4 * i + 1], state[4 * i + 2], state[4 * i + 3]])
                });
                if !hardware_sha_active() {
                    eprintln!("skipped: no sha_ni");
                }
                let (mut portable, mut hardware) = (state, state);
                compress(false, &mut portable, &block);
                compress(true, &mut hardware, &block);
                prop_assert_eq!(portable, hardware);
            }

            /// A random message split at random points digests the same on
            /// every kernel.
            #[test]
            fn kernels_agree_on_split_messages(data in proptest::collection::vec(any::<u8>(), 0..=300),
                                               splits in proptest::collection::vec(0usize..=300, 0..4)) {
                let reference = digest_on(&Sha256::portable(), &data);
                let mut points: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
                points.push(data.len());
                points.sort_unstable();
                for (kernel, mut h) in test_kernels() {
                    let mut prev = 0usize;
                    for &p in &points {
                        h.update(&data[prev..p]);
                        prev = p;
                    }
                    prop_assert_eq!(h.finalize(), reference, "{}", kernel);
                }
            }

            /// Distinct short inputs virtually never collide; more usefully,
            /// hashing is deterministic.
            #[test]
            fn deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
                prop_assert_eq!(Sha256::digest(&data), Sha256::digest(&data));
            }

            /// leading_zero_bits is consistent with a bit-by-bit scan.
            #[test]
            fn lzb_matches_naive(data in proptest::collection::vec(any::<u8>(), 0..64)) {
                let d = Sha256::digest(&data);
                let naive = d.0.iter()
                    .flat_map(|byte| (0..8).rev().map(move |i| (byte >> i) & 1))
                    .take_while(|&bit| bit == 0)
                    .count() as u32;
                prop_assert_eq!(d.leading_zero_bits(), naive);
            }
        }
    }
}
