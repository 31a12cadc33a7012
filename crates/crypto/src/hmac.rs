//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! The puzzle issuer MACs every challenge it hands out so that the verifier
//! can authenticate returned solutions without keeping per-challenge state
//! (see `aipow-pow`). Validated against the RFC 4231 test vectors.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// Streaming HMAC-SHA-256.
///
/// ```
/// use aipow_crypto::hmac::HmacSha256;
/// let tag = HmacSha256::mac(b"key", b"message");
/// let mut m = HmacSha256::new(b"key");
/// m.update(b"mess");
/// m.update(b"age");
/// assert_eq!(m.finalize(), tag);
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// SHA-256 state with the opad block absorbed, finished at finalization.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC instance for `key`. Keys longer than the block size are
    /// pre-hashed per the HMAC specification; any key length is accepted.
    pub fn new(key: &[u8]) -> Self {
        let key = HmacKey::new(key);
        HmacSha256 {
            inner: key.inner_base,
            outer: key.outer_base,
        }
    }

    /// One-shot convenience: `HMAC(key, data)`.
    pub fn mac(key: &[u8], data: &[u8]) -> Digest {
        let mut m = Self::new(key);
        m.update(data);
        m.finalize()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC, consuming the instance.
    pub fn finalize(self) -> Digest {
        let mut outer = self.outer;
        outer.update(self.inner.finalize().as_bytes());
        outer.finalize()
    }

    /// Verifies `tag` against `HMAC(key, data)` in constant time.
    ///
    /// ```
    /// use aipow_crypto::hmac::HmacSha256;
    /// let tag = HmacSha256::mac(b"k", b"d");
    /// assert!(HmacSha256::verify(b"k", b"d", tag.as_bytes()));
    /// assert!(!HmacSha256::verify(b"k", b"other", tag.as_bytes()));
    /// ```
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let expected = Self::mac(key, data);
        crate::ct::eq(expected.as_bytes(), tag)
    }
}

/// A key with its HMAC-SHA-256 schedule precomputed, for call sites that
/// MAC or verify many short messages under one key (the challenge issuer
/// and verifier sit on the admission hot path and do exactly that).
///
/// [`HmacSha256::mac`] pays the key schedule on every call: zero-pad the
/// key, derive the ipad/opad blocks, and compress one block for each.
/// This type runs that schedule once and keeps both pad-absorbed SHA-256
/// states; each subsequent [`mac`](HmacKey::mac) clones the states and
/// absorbs only the message and the inner digest — for the ~60-byte
/// challenge encoding that cuts the per-call compression count roughly in
/// half. Produces bit-identical tags to [`HmacSha256`].
///
/// ```
/// use aipow_crypto::hmac::{HmacKey, HmacSha256};
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), HmacSha256::mac(b"key", b"message"));
/// assert!(key.verify(b"message", key.mac(b"message").as_bytes()));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state with the ipad block already absorbed.
    inner_base: Sha256,
    /// SHA-256 state with the opad block already absorbed.
    outer_base: Sha256,
}

impl HmacKey {
    /// Runs the key schedule once. Keys longer than the block size are
    /// pre-hashed per the HMAC specification.
    pub fn new(key: &[u8]) -> Self {
        Self::on_hasher(key, &Sha256::new())
    }

    /// The key schedule on clones of the unused hasher `fresh`, whose
    /// kernel every MAC under this key then runs.
    fn on_hasher(key: &[u8], fresh: &Sha256) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = fresh.clone();
            h.update(key);
            key_block[..32].copy_from_slice(h.finalize().as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner_base = fresh.clone();
        inner_base.update(&key_block.map(|b| b ^ 0x36));
        let mut outer_base = fresh.clone();
        outer_base.update(&key_block.map(|b| b ^ 0x5c));
        HmacKey {
            inner_base,
            outer_base,
        }
    }

    /// `HMAC(key, data)` without re-running the key schedule.
    pub fn mac(&self, data: &[u8]) -> Digest {
        let mut inner = self.inner_base.clone();
        inner.update(data);
        let inner_digest = inner.finalize();
        let mut outer = self.outer_base.clone();
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// Verifies `tag` against `HMAC(key, data)` in constant time.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        crate::ct::eq(self.mac(data).as_bytes(), tag)
    }

    /// MACs many messages under this key through the multi-buffer
    /// SHA-256 kernel, `max_lanes` wide at most (see
    /// [`crate::sha256_wide`]). `out[i]` is `HMAC(key, msgs[i])`,
    /// bit-identical to [`mac`](HmacKey::mac).
    ///
    /// Both HMAC passes run wide: the inner pass groups messages of
    /// equal length into lanes (ragged tails fall back to the scalar
    /// path), and the outer pass is always fully packed because every
    /// inner digest is exactly 32 bytes. Both passes start from the
    /// hoisted pad-absorbed midstates, so the key schedule costs
    /// nothing per message.
    pub fn mac_batch(&self, msgs: &[&[u8]], max_lanes: usize) -> Vec<Digest> {
        let inner: Vec<Digest> =
            crate::sha256_wide::digest_batch_from(&self.inner_base, msgs, max_lanes);
        let inner_refs: Vec<&[u8]> = inner.iter().map(|d| d.as_bytes().as_slice()).collect();
        crate::sha256_wide::digest_batch_from(&self.outer_base, &inner_refs, max_lanes)
    }
}

impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key-derived state.
        f.write_str("HmacKey{..}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 §4 test cases 1-4, 6, 7.
    #[test]
    fn rfc4231_vectors() {
        // (key, data, expected HMAC-SHA-256)
        let tc1_key = vec![0x0bu8; 20];
        let tc3_key = vec![0xaau8; 20];
        let tc3_data = vec![0xddu8; 50];
        let tc4_key: Vec<u8> = (0x01u8..=0x19).collect();
        let tc4_data = vec![0xcdu8; 50];
        let tc67_key = vec![0xaau8; 131];

        let cases: Vec<(Vec<u8>, Vec<u8>, &str)> = vec![
            (
                tc1_key,
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                tc3_key,
                tc3_data,
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                tc4_key,
                tc4_data,
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                tc67_key.clone(),
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                tc67_key,
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];

        for (i, (key, data, expected)) in cases.iter().enumerate() {
            let tag = HmacSha256::mac(key, data);
            assert_eq!(&tag.to_hex(), expected, "RFC 4231 case {}", i + 1);
            for (kernel, fresh) in crate::sha256::test_kernels() {
                let tag = HmacKey::on_hasher(key, &fresh).mac(data);
                assert_eq!(&tag.to_hex(), expected, "{kernel}: RFC 4231 case {}", i + 1);
            }
        }
    }

    /// RFC 4231 test case 5 verifies a truncated tag (first 128 bits).
    #[test]
    fn rfc4231_truncated_case5() {
        let key = vec![0x0cu8; 20];
        for (kernel, fresh) in crate::sha256::test_kernels() {
            let tag = HmacKey::on_hasher(&key, &fresh).mac(b"Test With Truncation");
            assert_eq!(
                hex::encode(&tag.as_bytes()[..16]),
                "a3b6167473100ee06e0c796c2955552b",
                "{kernel}"
            );
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"stream-key";
        let data: Vec<u8> = (0u8..=200).collect();
        let oneshot = HmacSha256::mac(key, &data);
        for split in [0usize, 1, 63, 64, 65, 128, 200] {
            let mut m = HmacSha256::new(key);
            m.update(&data[..split]);
            m.update(&data[split..]);
            assert_eq!(m.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn verify_accepts_valid_and_rejects_forged() {
        let tag = HmacSha256::mac(b"k", b"payload");
        assert!(HmacSha256::verify(b"k", b"payload", tag.as_bytes()));

        let mut forged = *tag.as_bytes();
        forged[0] ^= 1;
        assert!(!HmacSha256::verify(b"k", b"payload", &forged));
        assert!(!HmacSha256::verify(b"wrong", b"payload", tag.as_bytes()));
        assert!(!HmacSha256::verify(b"k", b"payload", &tag.as_bytes()[..31]));
    }

    #[test]
    fn distinct_keys_yield_distinct_tags() {
        assert_ne!(HmacSha256::mac(b"a", b"m"), HmacSha256::mac(b"b", b"m"));
    }

    #[test]
    fn prepared_key_matches_oneshot_for_all_key_and_message_shapes() {
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| i as u8).collect();
            let prepared = HmacKey::new(&key);
            for msg_len in [0usize, 1, 55, 56, 62, 64, 100, 300] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7) as u8).collect();
                let expect = HmacSha256::mac(&key, &msg);
                assert_eq!(prepared.mac(&msg), expect, "key {key_len} msg {msg_len}");
                assert!(prepared.verify(&msg, expect.as_bytes()));
                let mut forged = *expect.as_bytes();
                forged[0] ^= 1;
                assert!(!prepared.verify(&msg, &forged));
                assert!(!prepared.verify(&msg, &expect.as_bytes()[..31]));
            }
        }
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey{..}");
    }

    #[test]
    fn mac_batch_matches_scalar_mac_for_mixed_shapes() {
        let key = HmacKey::new(b"batch-key");
        // Lengths chosen to produce full 8-lane groups, a 4-lane group,
        // and ragged scalar tails.
        let msgs: Vec<Vec<u8>> = (0..21u8)
            .map(|i| vec![i; [0usize, 17, 17, 64, 64, 64, 64][i as usize % 7]])
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        for lanes in 1..=8 {
            let tags = key.mac_batch(&refs, lanes);
            for (i, msg) in msgs.iter().enumerate() {
                assert_eq!(tags[i], key.mac(msg), "lanes={lanes} index={i}");
            }
        }
        assert!(key.mac_batch(&[], 8).is_empty());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn chunking_invariant(key in proptest::collection::vec(any::<u8>(), 0..130),
                                  data in proptest::collection::vec(any::<u8>(), 0..512),
                                  split in any::<usize>()) {
                let oneshot = HmacSha256::mac(&key, &data);
                let split = split % (data.len() + 1);
                let mut m = HmacSha256::new(&key);
                m.update(&data[..split]);
                m.update(&data[split..]);
                prop_assert_eq!(m.finalize(), oneshot);
            }

            #[test]
            fn verify_roundtrip(key in proptest::collection::vec(any::<u8>(), 1..64),
                                data in proptest::collection::vec(any::<u8>(), 0..256)) {
                let tag = HmacSha256::mac(&key, &data);
                prop_assert!(HmacSha256::verify(&key, &data, tag.as_bytes()));
            }
        }
    }
}
