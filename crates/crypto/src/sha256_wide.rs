//! Lane-interleaved multi-buffer SHA-256 (DESIGN.md §12).
//!
//! One SHA-256 compression is a chain of 64 dependent rounds — there is
//! no instruction-level parallelism left to extract from a *single*
//! message. But the verifier never has a single message: a drained
//! batch carries dozens of independent MACs and work digests, and the
//! solver tries many independent nonces. This module exploits that by
//! processing `LANES` **independent** 64-byte blocks per round loop,
//! with the hash state transposed so that each of the eight working
//! variables (and each message-schedule word) is a `[u32; LANES]` — the
//! same word of every lane sits side by side.
//!
//! Written as plain lane loops over `u32` arithmetic so rustc
//! autovectorizes them (SSE2 baseline packs 4 lanes per `xmm` register;
//! AVX2 packs 8 per `ymm`). No `unsafe`, no intrinsics, no new
//! dependencies — consistent with the workspace's vendored-stand-in
//! policy, and the scalar [`Sha256`] stays the single source of truth
//! for padding and constants. Equivalence with the scalar path is
//! proven for every lane count in `tests/wide_kernel_props.rs`.
//!
//! Entry points, from rawest to most convenient:
//!
//! - [`WideHasher`] — streaming, `LANES` equal-length messages (the
//!   equal-length invariant is what lets all lanes share one buffer
//!   offset and one padding tail);
//! - [`digest_wide`] — one-shot over `LANES` equal-length messages;
//! - [`digest_batch_from`] / [`digest_batch`] — arbitrary mixed-length
//!   message sets, optionally from a shared midstate: groups
//!   equal-length runs into 8- then 4-lane calls and falls back to the
//!   scalar hasher for ragged tails, at a caller-chosen maximum width.

use crate::sha256::{Digest, Sha256, H256, K};

/// The widest kernel this module instantiates (AVX2-sized).
pub const MAX_LANES: usize = 8;

/// Lane width the current host is expected to profit from: 8 where the
/// CPU has 256-bit integer SIMD (AVX2), otherwise 4 (the SSE2/NEON
/// 128-bit baseline). This is a heuristic default for `verify_lanes`
/// auto-detection, not a correctness gate — every width 1..=8 computes
/// identical digests on every host.
pub fn auto_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return 8;
        }
        4
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is baseline on aarch64: 128-bit vectors, 4 lanes of u32.
        4
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        4
    }
}

// Elementwise lane-vector primitives. Each is a trivially unrollable
// fixed-trip loop over the lane dimension; rustc maps the unrolled
// bodies onto packed `u32` instructions (one `xmm`/`ymm` op per 4/8
// lanes). Keeping every operation this small and uniform is what makes
// the SLP vectorizer take the whole round function, instead of
// scalarizing the rotate-heavy subtrees.

#[inline(always)]
fn vadd<const L: usize>(a: [u32; L], b: [u32; L]) -> [u32; L] {
    let mut r = a;
    let mut i = 0;
    while i < L {
        r[i] = r[i].wrapping_add(b[i]);
        i += 1;
    }
    r
}

#[inline(always)]
fn vxor<const L: usize>(a: [u32; L], b: [u32; L]) -> [u32; L] {
    let mut r = a;
    let mut i = 0;
    while i < L {
        r[i] ^= b[i];
        i += 1;
    }
    r
}

#[inline(always)]
fn vand<const L: usize>(a: [u32; L], b: [u32; L]) -> [u32; L] {
    let mut r = a;
    let mut i = 0;
    while i < L {
        r[i] &= b[i];
        i += 1;
    }
    r
}

#[inline(always)]
fn vnot<const L: usize>(a: [u32; L]) -> [u32; L] {
    let mut r = a;
    let mut i = 0;
    while i < L {
        r[i] = !r[i];
        i += 1;
    }
    r
}

#[inline(always)]
fn vshl<const L: usize>(a: [u32; L], n: u32) -> [u32; L] {
    let mut r = a;
    let mut i = 0;
    while i < L {
        r[i] <<= n;
        i += 1;
    }
    r
}

#[inline(always)]
fn vshr<const L: usize>(a: [u32; L], n: u32) -> [u32; L] {
    let mut r = a;
    let mut i = 0;
    while i < L {
        r[i] >>= n;
        i += 1;
    }
    r
}

/// `(x ror r1) ^ (x ror r2) ^ (x ror r3)` — the Σ functions — written
/// as grouped shift trees rather than three rotates. Baseline x86-64
/// has no packed-rotate instruction, and leaving the rotate idiom
/// visible makes LLVM's cost model scalarize the subtree (a scalar
/// `ror` is one instruction, a packed rotate is three); plain shifts
/// and xors vectorize unconditionally. Algebraically identical to the
/// scalar form in [`crate::sha256`].
#[inline(always)]
fn vbig_sigma<const L: usize>(x: [u32; L], r1: u32, r2: u32, r3: u32) -> [u32; L] {
    let right = vxor(vxor(vshr(x, r1), vshr(x, r2)), vshr(x, r3));
    let left = vxor(vxor(vshl(x, 32 - r1), vshl(x, 32 - r2)), vshl(x, 32 - r3));
    vxor(right, left)
}

/// `(x ror r1) ^ (x ror r2) ^ (x >> s)` — the σ schedule functions —
/// in the same grouped-shift form as [`vbig_sigma`].
#[inline(always)]
fn vsmall_sigma<const L: usize>(x: [u32; L], r1: u32, r2: u32, s: u32) -> [u32; L] {
    let right = vxor(vxor(vshr(x, r1), vshr(x, r2)), vshr(x, s));
    let left = vxor(vshl(x, 32 - r1), vshl(x, 32 - r2));
    vxor(right, left)
}

/// The SHA-256 compression function over `LANES` independent 64-byte
/// blocks, state transposed lane-wise. Computes exactly what the scalar
/// `compress` in [`crate::sha256`] computes, once per lane.
fn compress_wide<const LANES: usize>(state: &mut [[u32; LANES]; 8], blocks: &[[u8; 64]; LANES]) {
    // Message schedule, transposed: w[t][l] is word t of lane l.
    let mut w = [[0u32; LANES]; 64];
    for (t, wt) in w.iter_mut().enumerate().take(16) {
        for (l, block) in blocks.iter().enumerate() {
            wt[l] = u32::from_be_bytes([
                block[4 * t],
                block[4 * t + 1],
                block[4 * t + 2],
                block[4 * t + 3],
            ]);
        }
    }
    for t in 16..64 {
        let s0 = vsmall_sigma(w[t - 15], 7, 18, 3);
        let s1 = vsmall_sigma(w[t - 2], 17, 19, 10);
        w[t] = vadd(vadd(w[t - 16], s0), vadd(w[t - 7], s1));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for (t, wt) in w.iter().enumerate() {
        let big_s1 = vbig_sigma(e, 6, 11, 25);
        let ch = vxor(vand(e, f), vand(vnot(e), g));
        let t1 = vadd(vadd(h, big_s1), vadd(vadd(ch, [K[t]; LANES]), *wt));
        let big_s0 = vbig_sigma(a, 2, 13, 22);
        let maj = vxor(vxor(vand(a, b), vand(a, c)), vand(b, c));
        let t2 = vadd(big_s0, maj);

        h = g;
        g = f;
        f = e;
        e = vadd(d, t1);
        d = c;
        c = b;
        b = a;
        a = vadd(t1, t2);
    }

    let fed = [a, b, c, d, e, f, g, h];
    for (word, add) in state.iter_mut().zip(fed.iter()) {
        *word = vadd(*word, *add);
    }
}

/// Streaming multi-buffer SHA-256 over `LANES` equal-length messages.
///
/// All lanes advance in lockstep: every [`update`](WideHasher::update)
/// feeds the same number of bytes to each lane, so one shared buffer
/// offset, message length, and padding tail serve all lanes. That
/// invariant is asserted, not inferred — feeding unequal slices panics.
///
/// ```
/// use aipow_crypto::sha256::Sha256;
/// use aipow_crypto::sha256_wide::WideHasher;
/// let mut wide = WideHasher::<4>::new();
/// wide.update([b"aaaa", b"bbbb", b"cccc", b"dddd"]);
/// let digests = wide.finalize();
/// assert_eq!(digests[2], Sha256::digest(b"cccc"));
/// ```
#[derive(Clone)]
pub struct WideHasher<const LANES: usize> {
    /// Transposed hash state: `state[i][l]` is word `i` of lane `l`.
    state: [[u32; LANES]; 8],
    /// Per-lane partial block awaiting compression.
    buf: [[u8; 64]; LANES],
    /// Shared buffer fill (identical across lanes by the equal-length
    /// invariant).
    buf_len: usize,
    /// Shared per-lane message length in bytes.
    total_len: u64,
}

impl<const LANES: usize> Default for WideHasher<LANES> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const LANES: usize> WideHasher<LANES> {
    /// Creates a fresh `LANES`-wide hasher (1 ≤ `LANES` ≤ 8).
    pub fn new() -> Self {
        assert!(
            (1..=MAX_LANES).contains(&LANES),
            "lane-width invariant: 1..=8"
        );
        WideHasher {
            state: core::array::from_fn(|i| [H256[i]; LANES]),
            buf: [[0u8; 64]; LANES],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Broadcasts a scalar midstate into every lane: each lane continues
    /// hashing as if it were a clone of `base`. This is how the HMAC
    /// batch reuses the hoisted key schedule (ipad/opad already
    /// absorbed) and how the solver amortizes the challenge prefix —
    /// one scalar absorption, `LANES` divergent suffixes.
    pub fn from_midstate(base: &Sha256) -> Self {
        assert!(
            (1..=MAX_LANES).contains(&LANES),
            "lane-width invariant: 1..=8"
        );
        WideHasher {
            state: base.state.map(|word| [word; LANES]),
            buf: [base.buf; LANES],
            buf_len: base.buf_len,
            total_len: base.total_len,
        }
    }

    /// Absorbs one equal-length slice per lane.
    ///
    /// # Panics
    ///
    /// If the slices are not all the same length (the lockstep
    /// invariant).
    pub fn update(&mut self, inputs: [&[u8]; LANES]) {
        let len = inputs[0].len();
        assert!(
            inputs.iter().all(|m| m.len() == len),
            "equal-length lane invariant"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);
        let mut off = 0usize;

        // Fill the shared partial block first, if any.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(len);
            for (l, input) in inputs.iter().enumerate() {
                self.buf[l][self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            }
            self.buf_len += take;
            off += take;
            if self.buf_len == 64 {
                let blocks = self.buf;
                compress_wide(&mut self.state, &blocks);
                self.buf_len = 0;
            }
        }

        // Whole blocks, transposed straight from the inputs.
        while len - off >= 64 {
            let mut blocks = [[0u8; 64]; LANES];
            for (l, input) in inputs.iter().enumerate() {
                blocks[l].copy_from_slice(&input[off..off + 64]);
            }
            compress_wide(&mut self.state, &blocks);
            off += 64;
        }

        // Stash the shared-length tail.
        if off < len {
            for (l, input) in inputs.iter().enumerate() {
                self.buf[l][..len - off].copy_from_slice(&input[off..]);
            }
            self.buf_len = len - off;
        }
    }

    /// Completes all lanes, consuming the hasher. The padding tail is
    /// identical across lanes (equal lengths ⇒ equal pad), so it is
    /// built once and broadcast.
    pub fn finalize(mut self) -> [Digest; LANES] {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut pad: Vec<u8> = Vec::with_capacity(72);
        pad.push(0x80);
        let after = (self.buf_len + 1) % 64;
        let zeros = if after <= 56 { 56 - after } else { 120 - after };
        pad.extend(std::iter::repeat_n(0u8, zeros));
        pad.extend_from_slice(&bit_len.to_be_bytes());
        self.update([pad.as_slice(); LANES]);
        debug_assert_eq!(self.buf_len, 0, "padding must end on a block boundary");

        let mut out = [Digest([0u8; 32]); LANES];
        for (i, word) in self.state.iter().enumerate() {
            for l in 0..LANES {
                out[l].0[i * 4..i * 4 + 4].copy_from_slice(&word[l].to_be_bytes());
            }
        }
        out
    }
}

/// One-shot wide digest over `LANES` equal-length messages.
///
/// # Panics
///
/// If the messages are not all the same length; mixed-length sets go
/// through [`digest_batch`], which groups and falls back.
pub fn digest_wide<const LANES: usize>(msgs: [&[u8]; LANES]) -> [Digest; LANES] {
    let mut h = WideHasher::<LANES>::new();
    h.update(msgs);
    h.finalize()
}

/// Hashes `suffix` continuing from the scalar midstate `base` — the
/// scalar fallback for lanes [`digest_batch_from`] cannot fill.
fn digest_one_from(base: &Sha256, suffix: &[u8]) -> Digest {
    let mut h = base.clone();
    h.update(suffix);
    h.finalize()
}

/// Digests an arbitrary set of messages, each continuing from the same
/// scalar midstate `base`, running equal-length groups through the
/// widest kernel `max_lanes` allows.
///
/// Grouping never reorders results: `out[i]` is always the digest of
/// `suffixes[i]`. Internally, indices are bucketed by message length
/// (the lockstep invariant), each bucket is carved into 8-lane then
/// 4-lane calls (as permitted by `max_lanes`, which is clamped to
/// 1..=[`MAX_LANES`]), and whatever remains — ragged tails, odd
/// shapes, or everything when `max_lanes` < 4 — takes the scalar path.
pub fn digest_batch_from(base: &Sha256, suffixes: &[&[u8]], max_lanes: usize) -> Vec<Digest> {
    let max_lanes = max_lanes.clamp(1, MAX_LANES);
    let mut out = vec![Digest([0u8; 32]); suffixes.len()];
    if suffixes.is_empty() {
        return out;
    }

    // Bucket indices by length without reordering within a bucket
    // (stable sort), so lanes fill with same-shape messages.
    let mut order: Vec<usize> = (0..suffixes.len()).collect();
    order.sort_by_key(|&i| suffixes[i].len());

    let mut run = 0usize;
    while run < order.len() {
        let len = suffixes[order[run]].len();
        let mut run_end = run + 1;
        while run_end < order.len() && suffixes[order[run_end]].len() == len {
            run_end += 1;
        }
        let bucket = &order[run..run_end];

        let mut i = 0usize;
        while i < bucket.len() {
            let left = bucket.len() - i;
            if max_lanes >= 8 && left >= 8 {
                let msgs: [&[u8]; 8] = core::array::from_fn(|l| suffixes[bucket[i + l]]);
                let mut h = WideHasher::<8>::from_midstate(base);
                h.update(msgs);
                for (l, d) in h.finalize().into_iter().enumerate() {
                    out[bucket[i + l]] = d;
                }
                i += 8;
            } else if max_lanes >= 4 && left >= 4 {
                let msgs: [&[u8]; 4] = core::array::from_fn(|l| suffixes[bucket[i + l]]);
                let mut h = WideHasher::<4>::from_midstate(base);
                h.update(msgs);
                for (l, d) in h.finalize().into_iter().enumerate() {
                    out[bucket[i + l]] = d;
                }
                i += 4;
            } else {
                out[bucket[i]] = digest_one_from(base, suffixes[bucket[i]]);
                i += 1;
            }
        }
        run = run_end;
    }
    out
}

/// Digests an arbitrary set of whole messages through the wide kernel:
/// [`digest_batch_from`] from the empty (initial) midstate.
pub fn digest_batch(msgs: &[&[u8]], max_lanes: usize) -> Vec<Digest> {
    digest_batch_from(&Sha256::new(), msgs, max_lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference, pinned to the portable kernel: on a SHA host
    /// `Sha256::digest` is the hardware kernel, a third implementation.
    fn portable_digest(msg: &[u8]) -> Digest {
        crate::sha256::digest_on(&Sha256::portable(), msg)
    }

    #[test]
    fn wide_matches_scalar_on_nist_vectors() {
        // The four FIPS 180-4 vectors padded out to equal length are
        // not equal-length, so run them through the batch (grouped)
        // entry point at every width.
        let msgs: [&[u8]; 4] = [
            b"",
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        ];
        for lanes in 1..=MAX_LANES {
            let wide = digest_batch(&msgs, lanes);
            for (msg, got) in msgs.iter().zip(&wide) {
                assert_eq!(*got, portable_digest(msg), "lanes={lanes}");
            }
        }
    }

    #[test]
    fn equal_length_wide_call_matches_scalar() {
        let msgs: [&[u8]; 8] = core::array::from_fn(|i| match i {
            0 => b"lane-0-padding-x" as &[u8],
            1 => b"lane-1-padding-x",
            2 => b"lane-2-padding-x",
            3 => b"lane-3-padding-x",
            4 => b"lane-4-padding-x",
            5 => b"lane-5-padding-x",
            6 => b"lane-6-padding-x",
            _ => b"lane-7-padding-x",
        });
        let wide = digest_wide(msgs);
        for (msg, got) in msgs.iter().zip(&wide) {
            assert_eq!(*got, portable_digest(msg));
        }
    }

    #[test]
    fn multi_block_and_boundary_lengths_match_scalar() {
        // 55/56/64/65/128 bytes straddle every padding regime.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 300] {
            let msgs: Vec<Vec<u8>> = (0..4u8).map(|l| vec![l ^ 0x5a; len]).collect();
            let refs: [&[u8]; 4] = core::array::from_fn(|l| msgs[l].as_slice());
            let wide = digest_wide(refs);
            for (msg, got) in msgs.iter().zip(&wide) {
                assert_eq!(*got, portable_digest(msg), "len={len}");
            }
        }
    }

    #[test]
    fn midstate_broadcast_continues_the_scalar_stream() {
        let mut base = Sha256::portable();
        base.update(b"shared prefix of odd length 29!!!"[..29].as_ref());
        let suffixes: [&[u8]; 4] = [b"tail-a", b"tail-b", b"tail-c", b"tail-d"];
        let mut wide = WideHasher::<4>::from_midstate(&base);
        wide.update(suffixes);
        let got = wide.finalize();
        for (suffix, d) in suffixes.iter().zip(&got) {
            let mut scalar = base.clone();
            scalar.update(suffix);
            assert_eq!(*d, scalar.finalize());
        }
    }

    #[test]
    fn batch_preserves_input_order_across_mixed_lengths() {
        let msgs: Vec<Vec<u8>> = (0..23u8).map(|i| vec![i; (i as usize * 7) % 90]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for lanes in [1, 2, 4, 8] {
            let wide = digest_batch(&refs, lanes);
            for (i, msg) in msgs.iter().enumerate() {
                assert_eq!(wide[i], portable_digest(msg), "lanes={lanes} index={i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length lane invariant")]
    fn unequal_lanes_panic() {
        let mut h = WideHasher::<2>::new();
        h.update([b"aa", b"bbb"]);
    }

    #[test]
    fn auto_lanes_is_a_supported_width() {
        let lanes = auto_lanes();
        assert!(lanes == 4 || lanes == 8);
    }
}
