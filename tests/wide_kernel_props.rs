//! Equivalence properties for the multi-buffer SHA-256/HMAC kernel: at
//! every lane count the wide path must be byte-identical to the scalar
//! reference — across ragged tails, multi-block messages, midstate
//! continuations, and the official NIST/RFC test vectors.
//!
//! The reference is the *portable* scalar kernel by name: on a SHA-NI host
//! `Sha256::digest` and `HmacSha256::mac` run the hardware kernel, and the
//! wide path's own ragged tails fall back to it, so comparing against them
//! would check one implementation against itself.

use aipow_crypto::hmac::{HmacKey, HmacSha256};
use aipow_crypto::sha256::{Digest, Sha256};
use aipow_crypto::sha256_wide::{digest_batch, digest_batch_from, digest_wide, MAX_LANES};
use proptest::collection::vec;
use proptest::prelude::*;

/// SHA-256 of `msg` on the portable kernel.
fn portable_digest(msg: &[u8]) -> Digest {
    let mut h = Sha256::portable();
    h.update(msg);
    h.finalize()
}

/// RFC 2104 HMAC-SHA-256 spelled out over the portable kernel.
fn portable_hmac(key: &[u8], msg: &[u8]) -> Digest {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(portable_digest(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::portable();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(msg);
    let mut outer = Sha256::portable();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(inner.finalize().as_bytes());
    outer.finalize()
}

/// FIPS 180-4 / NIST CAVS SHA-256 vectors (message, expected digest).
const NIST_VECTORS: [(&[u8], &str); 4] = [
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
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
          ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
    ),
];

/// RFC 4231 HMAC-SHA-256 vectors (key, message, expected tag).
const RFC4231_VECTORS: [(&[u8], &[u8], &str); 3] = [
    (
        &[0x0b; 20],
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        &[0xaa; 20],
        &[0xdd; 50],
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
];

#[test]
fn nist_vectors_pass_through_the_wide_path_at_every_lane_count() {
    for (msg, want) in NIST_VECTORS {
        for lanes in 1..=MAX_LANES {
            // A full batch of copies exercises real wide lanes; a batch
            // shorter than the lane width exercises the scalar fallback.
            for copies in [1, lanes, 2 * lanes + 1] {
                let msgs: Vec<&[u8]> = std::iter::repeat_n(msg, copies).collect();
                for digest in digest_batch(&msgs, lanes) {
                    assert_eq!(digest.to_hex(), want, "lanes {lanes}, copies {copies}");
                }
            }
        }
    }
    // The fixed-width entry points too.
    let eight: [&[u8]; 8] = [b"abc"; 8];
    for digest in digest_wide(eight) {
        assert_eq!(digest.to_hex(), NIST_VECTORS[1].1);
    }
    let four: [&[u8]; 4] = [b"abc"; 4];
    for digest in digest_wide(four) {
        assert_eq!(digest.to_hex(), NIST_VECTORS[1].1);
    }
}

#[test]
fn rfc4231_vectors_pass_through_the_batched_mac_at_every_lane_count() {
    for (key, msg, want) in RFC4231_VECTORS {
        let hoisted = HmacKey::new(key);
        assert_eq!(HmacSha256::mac(key, msg).to_hex(), want);
        assert_eq!(portable_hmac(key, msg).to_hex(), want);
        for lanes in 1..=MAX_LANES {
            let msgs: Vec<&[u8]> = std::iter::repeat_n(msg, lanes + 3).collect();
            for tag in hoisted.mac_batch(&msgs, lanes) {
                assert_eq!(tag.to_hex(), want, "lanes {lanes}");
            }
        }
    }
}

#[test]
fn block_boundary_lengths_match_scalar_at_every_lane_count() {
    // Lengths straddling the 64-byte block and 56-byte padding
    // boundaries, including multi-block messages.
    let lengths = [
        0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 300,
    ];
    let messages: Vec<Vec<u8>> = lengths
        .iter()
        .map(|&len| (0..len).map(|i| (i * 31 % 251) as u8).collect())
        .collect();
    let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
    let want: Vec<String> = refs.iter().map(|m| portable_digest(m).to_hex()).collect();
    for lanes in 1..=MAX_LANES {
        // Duplicate each length `lanes` times so full lanes actually form.
        let wide_input: Vec<&[u8]> = refs
            .iter()
            .flat_map(|&m| std::iter::repeat_n(m, lanes))
            .collect();
        let got = digest_batch(&wide_input, lanes);
        for (i, digest) in got.iter().enumerate() {
            assert_eq!(digest.to_hex(), want[i / lanes], "lanes {lanes}, item {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch of arbitrary (ragged) messages digests identically to the
    /// scalar hasher at every lane count, in input order.
    #[test]
    fn ragged_batches_match_scalar(
        msgs in vec(vec(any::<u8>(), 0..200), 0..24),
        lanes in 1usize..=MAX_LANES,
    ) {
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let got = digest_batch(&refs, lanes);
        prop_assert_eq!(got.len(), refs.len());
        for (digest, msg) in got.iter().zip(&refs) {
            let want = portable_digest(msg);
            prop_assert_eq!(digest.as_bytes(), want.as_bytes());
        }
    }

    /// Continuing from an arbitrary midstate (the solver's hoisted
    /// prefix) is identical to scalar hashing of prefix ‖ suffix.
    #[test]
    fn midstate_continuation_matches_scalar(
        prefix in vec(any::<u8>(), 0..150),
        suffixes in vec(vec(any::<u8>(), 0..100), 1..20),
        lanes in 1usize..=MAX_LANES,
    ) {
        let mut base = Sha256::new();
        base.update(&prefix);
        let refs: Vec<&[u8]> = suffixes.iter().map(Vec::as_slice).collect();
        let got = digest_batch_from(&base, &refs, lanes);
        for (digest, suffix) in got.iter().zip(&suffixes) {
            let mut whole = prefix.clone();
            whole.extend_from_slice(suffix);
            let want = portable_digest(&whole);
            prop_assert_eq!(digest.as_bytes(), want.as_bytes());
        }
    }

    /// Batched HMAC under a hoisted key schedule equals the one-shot
    /// RFC 2104 reference for arbitrary keys (short, block-sized, and
    /// longer-than-block) and ragged messages, at every lane count.
    #[test]
    fn batched_hmac_matches_scalar(
        key in vec(any::<u8>(), 0..100),
        msgs in vec(vec(any::<u8>(), 0..150), 0..20),
        lanes in 1usize..=MAX_LANES,
    ) {
        let hoisted = HmacKey::new(&key);
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let tags = hoisted.mac_batch(&refs, lanes);
        prop_assert_eq!(tags.len(), refs.len());
        for (tag, msg) in tags.iter().zip(&refs) {
            let want = portable_hmac(&key, msg);
            prop_assert_eq!(tag.as_bytes(), want.as_bytes());
        }
    }
}
