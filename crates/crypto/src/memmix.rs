//! Memory-hard fill/mix primitive for the memory-hard puzzle backend.
//!
//! The construction is an Argon2-style two-phase design over a byte
//! arena, vendored as a stand-in (no external password-hashing crate)
//! in the same spirit as the workspace's other hand-rolled primitives:
//!
//! 1. **Fill** — a sequential chain of 32-byte blocks seeded from a
//!    *public* domain label, `B_i = H(B_{i-1} ‖ B_{ref(i)})` with
//!    `ref(i)` drawn data-dependently from `B_{i-1}`. The chain is
//!    strictly sequential (each block depends on its predecessor), so
//!    the arena cannot be recomputed lazily per lookup without paying
//!    the whole fill again — holding it resident is the cheap strategy,
//!    which is exactly the memory-hardness argument.
//! 2. **Mix (walk)** — per solve attempt, a short data-dependent walk:
//!    `Y_0 = H(preimage)`, then `Y_j = H(Y_{j-1} ‖ B[idx_j][..16])`
//!    where `idx_j` is taken from `Y_{j-1}`. Each step's load address
//!    depends on the previous hash, so one item's walk serializes on
//!    memory latency; the step input is sized to a single SHA-256
//!    compression (32 + [`STEP_BLOCK_BYTES`] + padding ≤ 64 bytes).
//!
//! The arena seed contains **no secrets** — both prover and verifier
//! derive the identical arena from the label and the arena size alone,
//! so nothing beyond the arena size (one byte, carried in the
//! challenge) travels on the wire. The asymmetry the backend wants
//! falls out of the shapes: a solver does one strictly sequential walk
//! per *attempt* (~2^d of them at difficulty `d`, [`WALK_STEPS`] + 1
//! hashes each, every load dependent on the previous digest), while a
//! verifier does one walk per solution and — because distinct
//! solutions' walks are independent — interleaves a *batch* of them
//! through the multi-buffer SHA-256 kernel via [`Arena::walk_batch`].
//! Both sides amortize the fill across the process via
//! [`shared_arena`].

use crate::sha256::{Digest, Sha256};
use crate::sha256_wide;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Size of one arena block in bytes (one SHA-256 output).
pub const BLOCK_LEN: usize = 32;

/// Hash evaluations in one mix walk, excluding the initial preimage
/// hash. Chosen to pin both halves of the cost asymmetry `bench_gate`
/// checks: a solver pays `WALK_STEPS + 1` serialized compressions plus
/// the dependent loads *per attempt* (≥ 10x the SHA-256 backend's one
/// midstate-completed compression), while a verifier — batching
/// independent solutions' walks through the wide kernel — stays within
/// 2x of a scalar SHA-256 verification per solution.
pub const WALK_STEPS: usize = 12;

/// How many leading bytes of the referenced block each walk step hashes.
/// Sized so one step is one SHA-256 compression (32-byte digest +
/// 16-byte block prefix + padding fits one 64-byte block). The load
/// address still ranges over the whole arena and the block bytes are
/// unpredictable until the previous digest is known, so the residency
/// argument is unchanged (up to a factor of two in storable bytes).
pub const STEP_BLOCK_BYTES: usize = 16;

/// Smallest permitted arena, in MiB.
pub const MIN_ARENA_MIB: u8 = 1;

/// Largest permitted arena, in MiB. Bounded so a forged or
/// misconfigured parameter cannot ask either side to materialize
/// gigabytes.
pub const MAX_ARENA_MIB: u8 = 64;

/// Default arena size in MiB: large enough to spill L2 on commodity
/// cores (the walk then serializes on L3/DRAM latency), small enough
/// that the one-time fill stays in the tens of milliseconds.
pub const DEFAULT_ARENA_MIB: u8 = 8;

/// Domain label mixed into block 0; versioned so a future tweak to the
/// fill or walk schedule changes every digest.
const ARENA_LABEL: &[u8] = b"aipow/memmix-arena/v1";

/// Whether `mib` is an arena size this module will build.
pub fn validate_arena_mib(mib: u8) -> bool {
    (MIN_ARENA_MIB..=MAX_ARENA_MIB).contains(&mib)
}

/// A filled arena: `mib * 1024 * 1024 / 32` chained 32-byte blocks.
///
/// Arenas are deterministic in their size alone — every party building
/// an `N`-MiB arena holds identical bytes — and are immutable once
/// filled, so one instance is shared process-wide via [`shared_arena`].
pub struct Arena {
    mib: u8,
    blocks: Vec<[u8; BLOCK_LEN]>,
}

impl Arena {
    /// Fills an arena of `mib` MiB from the public domain label.
    ///
    /// # Panics
    ///
    /// Panics if `mib` is outside
    /// [`MIN_ARENA_MIB`]`..=`[`MAX_ARENA_MIB`]; callers validate via
    /// [`validate_arena_mib`] (the pow layer does so before any fill).
    pub fn fill(mib: u8) -> Self {
        assert!(
            validate_arena_mib(mib),
            "arena-size invariant: {MIN_ARENA_MIB}..={MAX_ARENA_MIB} MiB, got {mib}"
        );
        let n = mib as usize * 1024 * 1024 / BLOCK_LEN;
        let mut blocks: Vec<[u8; BLOCK_LEN]> = Vec::with_capacity(n);

        let mut h = Sha256::new();
        h.update(ARENA_LABEL);
        h.update(&[mib]);
        blocks.push(h.finalize().into_bytes());

        for i in 1..n {
            let prev = blocks[i - 1];
            // Data-dependent back-reference into the already-filled
            // prefix, à la Argon2's indexing: recomputing block i
            // requires block i-1 *and* an unpredictable earlier block.
            let back = u64::from_le_bytes(
                prev[..8]
                    .try_into()
                    .expect("block-length invariant: 32 >= 8"),
            ) as usize
                % i;
            let mut h = Sha256::new();
            h.update(&prev);
            h.update(&blocks[back]);
            blocks.push(h.finalize().into_bytes());
        }
        Arena { mib, blocks }
    }

    /// The arena size in MiB this arena was filled for.
    pub fn mib(&self) -> u8 {
        self.mib
    }

    /// Number of 32-byte blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the arena holds no blocks (never true for a filled
    /// arena; provided for the conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The data-dependent mix walk over `msg`: `WALK_STEPS` rounds of
    /// hash-then-load, each load address taken from the previous
    /// digest. The returned digest is judged by leading zero bits
    /// exactly like the plain SHA-256 work function.
    pub fn walk(&self, msg: &[u8]) -> Digest {
        // Portable until ROADMAP 1b, like the SHA-256 solver: this walk is the memory-hard
        // *client's* attempt, and its cost is gated as a multiple of that solver's.
        let hash = |head: &[u8], tail: &[u8]| {
            let mut h = Sha256::portable();
            h.update(head);
            h.update(tail);
            h.finalize()
        };
        let mut y = hash(msg, &[]);
        let n = self.blocks.len() as u64;
        for _ in 0..WALK_STEPS {
            let idx = (y.prefix_u64() % n) as usize;
            y = hash(y.as_bytes(), &self.blocks[idx][..STEP_BLOCK_BYTES]);
        }
        y
    }

    /// [`walk`](Self::walk) over many independent messages at once,
    /// digest-for-digest identical to the scalar walk per message.
    ///
    /// One message's steps are strictly sequential (each load address
    /// comes from the previous digest), but *across* messages step `j`
    /// is independent — so each round hashes all messages' step inputs
    /// through the multi-buffer SHA-256 kernel at up to `max_lanes`
    /// lanes. This is the verifier's edge: it holds a whole batch of
    /// solutions to check, while a solver probing nonces has only its
    /// own serial chain per attempt.
    pub fn walk_batch(&self, msgs: &[&[u8]], max_lanes: usize) -> Vec<Digest> {
        let mut ys = sha256_wide::digest_batch(msgs, max_lanes);
        let n = self.blocks.len() as u64;
        let mut bufs = vec![[0u8; BLOCK_LEN + STEP_BLOCK_BYTES]; ys.len()];
        for _ in 0..WALK_STEPS {
            for (buf, y) in bufs.iter_mut().zip(&ys) {
                let idx = (y.prefix_u64() % n) as usize;
                buf[..BLOCK_LEN].copy_from_slice(y.as_bytes());
                buf[BLOCK_LEN..].copy_from_slice(&self.blocks[idx][..STEP_BLOCK_BYTES]);
            }
            let step_msgs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
            ys = sha256_wide::digest_batch(&step_msgs, max_lanes);
        }
        ys
    }
}

impl core::fmt::Debug for Arena {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Arena")
            .field("mib", &self.mib)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

/// Process-wide arena cache: the fill is pure in `mib`, so every
/// issuer, verifier, and solver in the process shares one resident
/// copy per size. The lock guards only the map — a fill for a new size
/// runs outside it so concurrent users of other sizes never block.
pub fn shared_arena(mib: u8) -> Arc<Arena> {
    static CACHE: OnceLock<Mutex<HashMap<u8, Arc<Arena>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(arena) = cache
        .lock()
        .expect("arena-cache lock invariant: no code panics while holding it")
        .get(&mib)
    {
        return Arc::clone(arena);
    }
    let filled = Arc::new(Arena::fill(mib));
    let mut map = cache
        .lock()
        .expect("arena-cache lock invariant: no code panics while holding it");
    // A racing fill for the same size may have won; keep the first so
    // every caller shares one allocation.
    Arc::clone(map.entry(mib).or_insert(filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_deterministic_in_its_size() {
        let a = Arena::fill(1);
        let b = Arena::fill(1);
        assert_eq!(a.len(), 1024 * 1024 / BLOCK_LEN);
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn different_sizes_produce_different_arenas() {
        let a = Arena::fill(1);
        let b = Arena::fill(2);
        assert_ne!(a.blocks[0], b.blocks[0], "size is mixed into block 0");
        assert_eq!(b.len(), 2 * a.len());
    }

    #[test]
    fn walk_is_deterministic_and_message_sensitive() {
        let arena = shared_arena(1);
        let d1 = arena.walk(b"preimage-a");
        let d2 = arena.walk(b"preimage-a");
        let d3 = arena.walk(b"preimage-b");
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn walk_depends_on_the_arena() {
        let one = Arena::fill(1);
        let two = Arena::fill(2);
        assert_ne!(one.walk(b"same message"), two.walk(b"same message"));
    }

    #[test]
    fn walk_batch_matches_scalar_walk_at_every_lane_width() {
        let arena = shared_arena(1);
        let msgs: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; 40 + i as usize]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let scalar: Vec<Digest> = refs.iter().map(|m| arena.walk(m)).collect();
        for lanes in [1, 4, 8] {
            assert_eq!(arena.walk_batch(&refs, lanes), scalar, "lanes={lanes}");
        }
        assert!(arena.walk_batch(&[], 8).is_empty());
    }

    #[test]
    fn walk_differs_from_plain_sha256() {
        let arena = shared_arena(1);
        assert_ne!(arena.walk(b"msg"), Sha256::digest(b"msg"));
    }

    #[test]
    fn shared_arena_returns_one_instance_per_size() {
        let a = shared_arena(1);
        let b = shared_arena(1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn bounds_are_enforced() {
        assert!(!validate_arena_mib(0));
        assert!(validate_arena_mib(MIN_ARENA_MIB));
        assert!(validate_arena_mib(DEFAULT_ARENA_MIB));
        assert!(validate_arena_mib(MAX_ARENA_MIB));
        assert!(!validate_arena_mib(MAX_ARENA_MIB + 1));
    }

    #[test]
    #[should_panic(expected = "arena-size invariant")]
    fn oversized_fill_panics() {
        let _ = Arena::fill(MAX_ARENA_MIB + 1);
    }
}
