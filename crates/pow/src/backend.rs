//! The pluggable puzzle-backend seam.
//!
//! The paper treats the puzzle as a fixed primitive (a SHA-256 preimage
//! search); this module lifts it into a trait so the policy layer gains a
//! second, qualitatively different lever beyond difficulty: *which* puzzle a
//! client must solve. A [`PuzzleBackend`] owns the work function end to end —
//! challenge binding (its [`BackendId`] and size parameter are minted into
//! the challenge and covered by the issuer's MAC, so a client cannot
//! downgrade to a cheaper puzzle), the solve step (via [`SolveCursor`], which
//! lets each backend amortize per-challenge state the way the SHA-256 path
//! amortizes its midstate), and the batched verify hook (so the SHA-256
//! backend keeps the lane-interleaved fast path from DESIGN.md §12).
//!
//! Two backends ship:
//!
//! - [`Sha256Backend`] — the paper's puzzle, byte-for-byte the work function
//!   the framework has always used (id 0, the default everywhere);
//! - [`MemoryHardBackend`] — an Argon2-style fill/mix walk over a
//!   configurable-MiB arena ([`aipow_crypto::memmix`]): per-attempt cost is
//!   an order of magnitude above one SHA-256 compression and serializes on
//!   memory latency, while a verifier pays one walk per solution *and*
//!   lane-interleaves a batch of independent walks through the wide kernel.
//!
//! Backends resolve through a [`BackendRegistry`]; the process-wide
//! [`BackendRegistry::global`] carries both standard backends, and unknown
//! ids fail closed at verification
//! ([`VerifyError::UnknownBackend`](crate::VerifyError)).

use aipow_crypto::memmix::{self, Arena};
use aipow_crypto::sha256::{Digest, Sha256};
use aipow_crypto::sha256_wide;
use core::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies a puzzle backend on challenges, solutions, stamps, and wire
/// frames.
///
/// The id space is open — any byte decodes — so an unknown id is rejected by
/// the verifier (a typed error), never by the codec (a parse failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(pub u8);

impl BackendId {
    /// The SHA-256 preimage puzzle (the paper's work function; default).
    pub const SHA256: BackendId = BackendId(0);
    /// The memory-hard fill/mix puzzle.
    pub const MEMORY_HARD: BackendId = BackendId(1);

    /// The raw id byte.
    pub fn as_u8(&self) -> u8 {
        self.0
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BackendId::SHA256 => write!(f, "sha256"),
            BackendId::MEMORY_HARD => write!(f, "memory-hard"),
            BackendId(other) => write!(f, "backend#{other}"),
        }
    }
}

/// Per-challenge solve state: produced once per challenge by
/// [`PuzzleBackend::solve_cursor`], then asked for one digest per nonce.
///
/// This is the seam through which each backend amortizes fixed per-challenge
/// work across the ~2^d attempts of a solve run — the SHA-256 cursor holds
/// the absorbed-prefix midstate, the memory-hard cursor holds its arena
/// handle and prefix.
pub trait SolveCursor {
    /// Digest of `prefix ‖ nonce_bytes` for the prepared challenge — exactly
    /// what the verifier recomputes for a submitted solution.
    fn attempt(&mut self, nonce_bytes: &[u8]) -> Digest;
}

/// A puzzle work function, pluggable behind the issuer, solver, and verifier.
///
/// Implementations must be pure in `(param, preimage)`: prover and verifier
/// run the same code on the same bytes, so any hidden state would fork them.
pub trait PuzzleBackend: Send + Sync + fmt::Debug {
    /// The id minted into challenges solved with this backend.
    fn id(&self) -> BackendId;

    /// Human-readable backend name (CLI flags, logs, bench labels).
    fn name(&self) -> &'static str;

    /// The challenge parameter an issuer stamps when none is configured
    /// (the memory-hard backend's arena size in MiB; 0 for parameterless
    /// backends).
    fn default_param(&self) -> u8;

    /// Whether `param` is a challenge parameter this backend will evaluate.
    fn validate_param(&self, param: u8) -> bool;

    /// The work function: the digest of one full preimage
    /// (challenge prefix ‖ encoded nonce), judged by leading zero bits.
    fn work_digest(&self, param: u8, preimage: &[u8]) -> Digest;

    /// Batched verify hook: digests for many independent preimages.
    /// `max_lanes` is advisory — the default implementation is a scalar
    /// loop, and [`Sha256Backend`] overrides it with the lane-interleaved
    /// kernel so the trait seam costs the wide verify path nothing.
    fn work_digest_batch(
        &self,
        params: &[u8],
        preimages: &[&[u8]],
        max_lanes: usize,
    ) -> Vec<Digest> {
        let _ = max_lanes;
        params
            .iter()
            .zip(preimages)
            .map(|(&param, preimage)| self.work_digest(param, preimage))
            .collect()
    }

    /// Prepares per-challenge solve state for `prefix`; the solver then
    /// calls [`SolveCursor::attempt`] once per nonce.
    fn solve_cursor(&self, param: u8, prefix: &[u8]) -> Box<dyn SolveCursor + '_>;
}

/// The paper's SHA-256 preimage puzzle (backend id 0).
#[derive(Debug, Default, Clone, Copy)]
pub struct Sha256Backend;

struct Sha256Cursor {
    midstate: Sha256,
}

impl SolveCursor for Sha256Cursor {
    fn attempt(&mut self, nonce_bytes: &[u8]) -> Digest {
        let mut h = self.midstate.clone();
        h.update(nonce_bytes);
        h.finalize()
    }
}

impl PuzzleBackend for Sha256Backend {
    fn id(&self) -> BackendId {
        BackendId::SHA256
    }

    fn name(&self) -> &'static str {
        "sha256"
    }

    fn default_param(&self) -> u8 {
        0
    }

    fn validate_param(&self, param: u8) -> bool {
        // Parameterless: only the zero param is canonical, keeping the
        // MAC'd challenge bytes unique per logical puzzle.
        param == 0
    }

    fn work_digest(&self, _param: u8, preimage: &[u8]) -> Digest {
        Sha256::digest(preimage)
    }

    fn work_digest_batch(
        &self,
        _params: &[u8],
        preimages: &[&[u8]],
        max_lanes: usize,
    ) -> Vec<Digest> {
        sha256_wide::digest_batch(preimages, max_lanes)
    }

    fn solve_cursor(&self, _param: u8, prefix: &[u8]) -> Box<dyn SolveCursor + '_> {
        // The client stays on the portable kernel until ROADMAP 1b:
        // `paper.throttle_ratio` is a wall-time ratio on fixed bits, so a
        // faster solver reads as a weaker defence with the defence unchanged.
        let mut midstate = Sha256::portable();
        midstate.update(prefix);
        Box::new(Sha256Cursor { midstate })
    }
}

/// The memory-hard fill/mix puzzle (backend id 1).
///
/// The challenge parameter is the arena size in MiB
/// ([`memmix::MIN_ARENA_MIB`]`..=`[`memmix::MAX_ARENA_MIB`]); arenas are
/// deterministic in their size and shared process-wide, so the fill is a
/// one-time cost on each side, not a per-challenge one.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemoryHardBackend;

struct MemoryHardCursor {
    arena: Arc<Arena>,
    /// `prefix` with room to append the nonce, reused across attempts.
    buf: Vec<u8>,
    prefix_len: usize,
}

impl SolveCursor for MemoryHardCursor {
    fn attempt(&mut self, nonce_bytes: &[u8]) -> Digest {
        self.buf.truncate(self.prefix_len);
        self.buf.extend_from_slice(nonce_bytes);
        self.arena.walk(&self.buf)
    }
}

impl PuzzleBackend for MemoryHardBackend {
    fn id(&self) -> BackendId {
        BackendId::MEMORY_HARD
    }

    fn name(&self) -> &'static str {
        "memory-hard"
    }

    fn default_param(&self) -> u8 {
        memmix::DEFAULT_ARENA_MIB
    }

    fn validate_param(&self, param: u8) -> bool {
        memmix::validate_arena_mib(param)
    }

    fn work_digest(&self, param: u8, preimage: &[u8]) -> Digest {
        memmix::shared_arena(param).walk(preimage)
    }

    fn work_digest_batch(
        &self,
        params: &[u8],
        preimages: &[&[u8]],
        max_lanes: usize,
    ) -> Vec<Digest> {
        // Distinct solutions' walks are independent, so each walk round
        // can interleave the whole batch through the wide kernel — the
        // verifier-side edge a per-nonce solver (whose every load waits
        // on its own previous digest) does not get. Batches share one
        // arena size in practice; a mixed batch walks per-param groups.
        batch_by_key(
            preimages.len(),
            |i| params[i],
            |param, idxs| {
                let msgs: Vec<&[u8]> = idxs.iter().map(|&i| preimages[i]).collect();
                memmix::shared_arena(param).walk_batch(&msgs, max_lanes)
            },
        )
    }

    fn solve_cursor(&self, param: u8, prefix: &[u8]) -> Box<dyn SolveCursor + '_> {
        let mut buf = Vec::with_capacity(prefix.len() + 8);
        buf.extend_from_slice(prefix);
        Box::new(MemoryHardCursor {
            arena: memmix::shared_arena(param),
            prefix_len: prefix.len(),
            buf,
        })
    }
}

/// Splits the indices `0..len` into groups of equal `key`, calls `run`
/// once per group (in order of each key's first index) with the group's
/// ascending indices, and scatters the results — one per index, in the
/// order given — back into index order.
pub(crate) fn batch_by_key<K: Copy + PartialEq, T>(
    len: usize,
    key: impl Fn(usize) -> K,
    mut run: impl FnMut(K, &[usize]) -> Vec<T>,
) -> Vec<T> {
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for i in 0..len {
        let k = key(i);
        match groups.iter_mut().find(|(group, _)| *group == k) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((k, {
                let mut idxs = Vec::with_capacity(len - i);
                idxs.push(i);
                idxs
            })),
        }
    }
    if let [(k, idxs)] = groups.as_slice() {
        // One group holds every index in order: nothing to scatter.
        return run(*k, idxs);
    }
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for (k, idxs) in &groups {
        for (result, &i) in run(*k, idxs).into_iter().zip(idxs) {
            out[i] = Some(result);
        }
    }
    out.into_iter()
        .map(|result| result.expect("grouping invariant: every index lands in exactly one group"))
        .collect()
}

/// The set of backends a component dispatches through, keyed by
/// [`BackendId`].
///
/// The issuer, solver, and verifier all resolve ids against a registry;
/// [`BackendRegistry::global`] (both standard backends) serves unless a
/// caller wires an explicit one. Lookup of an id the registry does not
/// carry is how "unknown backend" is detected — and rejected with a typed
/// error rather than a panic or a decode failure.
#[derive(Clone)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn PuzzleBackend>>,
}

impl BackendRegistry {
    /// An empty registry; [`register`](Self::register) backends into it.
    pub fn empty() -> Self {
        BackendRegistry {
            backends: Vec::new(),
        }
    }

    /// The standard registry: [`Sha256Backend`] and [`MemoryHardBackend`].
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry.register(Arc::new(Sha256Backend));
        registry.register(Arc::new(MemoryHardBackend));
        registry
    }

    /// The process-wide standard registry.
    pub fn global() -> &'static BackendRegistry {
        static GLOBAL: OnceLock<BackendRegistry> = OnceLock::new();
        GLOBAL.get_or_init(BackendRegistry::standard)
    }

    /// Adds `backend`, replacing any previous registration of the same id.
    pub fn register(&mut self, backend: Arc<dyn PuzzleBackend>) {
        let id = backend.id();
        self.backends.retain(|b| b.id() != id);
        self.backends.push(backend);
    }

    /// Resolves an id, or `None` for unknown backends.
    pub fn get(&self, id: BackendId) -> Option<&dyn PuzzleBackend> {
        self.backends
            .iter()
            .find(|b| b.id() == id)
            .map(|b| b.as_ref())
    }

    /// The registered ids, in registration order.
    pub fn ids(&self) -> Vec<BackendId> {
        self.backends.iter().map(|b| b.id()).collect()
    }

    /// Iterates the registered backends in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn PuzzleBackend> {
        self.backends.iter().map(|b| b.as_ref())
    }
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendRegistry")
            .field("ids", &self.ids())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_carries_both_standard_backends() {
        let registry = BackendRegistry::global();
        assert_eq!(
            registry.ids(),
            vec![BackendId::SHA256, BackendId::MEMORY_HARD]
        );
        assert_eq!(registry.get(BackendId::SHA256).unwrap().name(), "sha256");
        assert_eq!(
            registry.get(BackendId::MEMORY_HARD).unwrap().name(),
            "memory-hard"
        );
        assert!(registry.get(BackendId(200)).is_none());
    }

    #[test]
    fn sha256_backend_matches_the_plain_work_function() {
        let backend = Sha256Backend;
        let msg = b"challenge-prefix/203.0.113.9\x00\x00\x00\x07";
        assert_eq!(backend.work_digest(0, msg), Sha256::digest(msg));
        // The batched hook agrees with the scalar one at every lane width.
        let msgs: Vec<&[u8]> = vec![b"a", b"bb", msg, b"dddd"];
        let params = vec![0u8; msgs.len()];
        for lanes in [1, 4, 8] {
            let batch = backend.work_digest_batch(&params, &msgs, lanes);
            for (m, d) in msgs.iter().zip(&batch) {
                assert_eq!(*d, Sha256::digest(m), "lanes={lanes}");
            }
        }
    }

    #[test]
    fn cursors_agree_with_work_digest() {
        let prefix = b"prefix-bytes/192.0.2.1";
        let nonce = 7u64.to_be_bytes();
        let mut preimage = prefix.to_vec();
        preimage.extend_from_slice(&nonce);

        let sha = Sha256Backend;
        assert_eq!(
            sha.solve_cursor(0, prefix).attempt(&nonce),
            sha.work_digest(0, &preimage)
        );

        let hard = MemoryHardBackend;
        assert_eq!(
            hard.solve_cursor(1, prefix).attempt(&nonce),
            hard.work_digest(1, &preimage)
        );
    }

    #[test]
    fn memory_hard_batch_matches_scalar_even_with_mixed_params() {
        let hard = MemoryHardBackend;
        let msgs: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 30 + i as usize]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        // Interleaved arena sizes exercise the per-param grouping.
        let params: Vec<u8> = (0..refs.len()).map(|i| 1 + (i % 2) as u8).collect();
        let scalar: Vec<Digest> = params
            .iter()
            .zip(&refs)
            .map(|(&p, m)| hard.work_digest(p, m))
            .collect();
        for lanes in [1, 4, 8] {
            assert_eq!(
                hard.work_digest_batch(&params, &refs, lanes),
                scalar,
                "lanes={lanes}"
            );
        }
        assert!(hard.work_digest_batch(&[], &[], 8).is_empty());
    }

    #[test]
    fn memory_hard_cursor_is_reusable_across_nonces() {
        let hard = MemoryHardBackend;
        let prefix = b"reusable-prefix";
        let mut cursor = hard.solve_cursor(1, prefix);
        let first = cursor.attempt(&1u64.to_be_bytes());
        let second = cursor.attempt(&2u64.to_be_bytes());
        let first_again = cursor.attempt(&1u64.to_be_bytes());
        assert_ne!(first, second);
        assert_eq!(
            first, first_again,
            "cursor state must not leak across attempts"
        );
    }

    #[test]
    fn param_validation_per_backend() {
        assert!(Sha256Backend.validate_param(0));
        assert!(!Sha256Backend.validate_param(1));
        assert!(!MemoryHardBackend.validate_param(0));
        assert!(MemoryHardBackend.validate_param(memmix::DEFAULT_ARENA_MIB));
        assert!(!MemoryHardBackend.validate_param(memmix::MAX_ARENA_MIB + 1));
    }

    #[test]
    fn registry_register_replaces_same_id() {
        let mut registry = BackendRegistry::standard();
        registry.register(Arc::new(Sha256Backend));
        assert_eq!(
            registry.ids(),
            vec![BackendId::MEMORY_HARD, BackendId::SHA256],
            "re-registration replaces, not duplicates"
        );
    }

    #[test]
    fn backend_id_display() {
        assert_eq!(BackendId::SHA256.to_string(), "sha256");
        assert_eq!(BackendId::MEMORY_HARD.to_string(), "memory-hard");
        assert_eq!(BackendId(9).to_string(), "backend#9");
    }
}
