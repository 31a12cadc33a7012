//! Puzzle seeds from HMAC-SHA-256 in counter mode.
//!
//! The issuer stamps every puzzle with a "unique seed (for mitigating
//! pre-computation attacks)" (paper §II.3): a value that never repeats and
//! cannot be predicted without the key. A keyed counter gives both with no
//! lock and no mutable state beyond one atomic integer: draw `n` is
//! `HMAC(key, n as big-endian u64)[..16]`. This is not the SP 800-90A
//! `HMAC_DRBG` state machine; it has no reseed, and its only inputs are the
//! key material and the personalization label.

use crate::hkdf;
use crate::hmac::HmacKey;
use core::sync::atomic::{AtomicU64, Ordering};

/// Length in bytes of one seed draw.
pub const SEED16_LEN: usize = 16;

/// A lock-free HMAC-SHA-256 counter-mode generator of 16-byte seeds.
///
/// The key is derived from the seed material with HKDF under the
/// personalization label, so one master key yields unrelated streams under
/// distinct labels. The counter starts at 0: two instances built from the
/// same inputs draw the same stream.
///
/// ```
/// use aipow_crypto::drbg::HmacDrbg;
/// let a = HmacDrbg::new(b"seed", "context");
/// let b = HmacDrbg::new(b"seed", "context");
/// assert_eq!(a.generate_seed16(), b.generate_seed16()); // deterministic
/// assert_ne!(a.generate_seed16(), a.generate_seed16()); // never repeats
/// ```
pub struct HmacDrbg {
    /// The derived key with its HMAC schedule precomputed: a draw costs
    /// the two compressions of one short HMAC.
    prf: HmacKey,
    /// The counter value of the next draw.
    next: AtomicU64,
}

impl HmacDrbg {
    /// Builds the generator from seed material and a personalization label.
    pub fn new(seed: &[u8], personalization: &str) -> Self {
        HmacDrbg {
            prf: HmacKey::new(&hkdf::derive_key32(seed, personalization)),
            next: AtomicU64::new(0),
        }
    }

    /// Draws the next seed: `HMAC(key, n)[..16]` for the next counter
    /// value `n`, big-endian. A `u64` counter does not wrap in the life of
    /// a process (584 years at 10^9 draws per second).
    pub fn generate_seed16(&self) -> [u8; SEED16_LEN] {
        // relaxed: uniqueness needs only the RMW's atomicity (every draw
        // gets its own counter value); the counter publishes no other data.
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let digest = self.prf.mac(&n.to_be_bytes());
        let mut seed = [0u8; SEED16_LEN];
        seed.copy_from_slice(&digest.as_bytes()[..SEED16_LEN]);
        seed
    }
}

impl core::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.write_str("HmacDrbg{..}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::HmacSha256;
    use std::collections::HashSet;

    fn draws(d: &HmacDrbg, n: usize) -> Vec<[u8; SEED16_LEN]> {
        (0..n).map(|_| d.generate_seed16()).collect()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = HmacDrbg::new(b"seed material", "aipow");
        let b = HmacDrbg::new(b"seed material", "aipow");
        assert_eq!(draws(&a, 100), draws(&b, 100));
        assert_eq!(a.generate_seed16(), b.generate_seed16());
    }

    #[test]
    fn personalization_separates_streams() {
        let a: HashSet<_> = draws(&HmacDrbg::new(b"seed", "ctx-a"), 1_000)
            .into_iter()
            .collect();
        let b: HashSet<_> = draws(&HmacDrbg::new(b"seed", "ctx-b"), 1_000)
            .into_iter()
            .collect();
        assert_eq!((a.len(), b.len()), (1_000, 1_000));
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn sequential_outputs_differ() {
        let d = HmacDrbg::new(b"seed", "");
        let first = d.generate_seed16();
        let second = d.generate_seed16();
        assert_ne!(first, second);
    }

    /// A counter-mode stream has no reseed: new seed material builds a new
    /// generator, and its stream shares no draw with the old one.
    #[test]
    fn reseed_changes_stream() {
        let a: HashSet<_> = draws(&HmacDrbg::new(b"seed", ""), 1_000)
            .into_iter()
            .collect();
        let b: HashSet<_> = draws(&HmacDrbg::new(b"extra entropy", ""), 1_000)
            .into_iter()
            .collect();
        assert!(a.is_disjoint(&b));
    }

    /// Each draw is its own counter block: draw `n` is the known answer
    /// `HMAC(HKDF(seed, label), n_be8)[..16]`, spelled out with the
    /// unprepared HMAC, also where the counter carries into its next byte.
    #[test]
    fn request_spanning_blocks() {
        let d = HmacDrbg::new(b"seed", "blocks");
        let key = hkdf::derive_key32(b"seed", "blocks");
        for (n, seed) in draws(&d, 258).iter().enumerate() {
            let want = HmacSha256::mac(&key, &(n as u64).to_be_bytes());
            assert_eq!(seed[..], want.as_bytes()[..SEED16_LEN], "draw {n}");
        }
    }

    #[test]
    fn seeds_are_unique_over_many_draws() {
        let d = HmacDrbg::new(b"uniqueness", "seeds");
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(d.generate_seed16()), "seed collision");
        }
    }

    #[test]
    fn debug_hides_state() {
        let d = HmacDrbg::new(b"secret", "");
        assert_eq!(format!("{d:?}"), "HmacDrbg{..}");
    }

    /// A crude sanity check that output bits are balanced — not a randomness
    /// proof, just a regression tripwire against e.g. a seed that is the raw
    /// counter or all zeros.
    #[test]
    fn output_bit_balance() {
        let d = HmacDrbg::new(b"balance", "");
        let ones: u32 = draws(&d, 256)
            .iter()
            .flatten()
            .map(|b| b.count_ones())
            .sum();
        let ratio = f64::from(ones) / f64::from(256 * 8 * SEED16_LEN as u32);
        assert!((0.47..0.53).contains(&ratio), "bit ratio {ratio}");
    }
}
