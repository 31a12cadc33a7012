//! Replay protection for solved challenges.
//!
//! A solution is valid work exactly once: accepting the same seed twice
//! would let an attacker amortize one solve over many requests. The guard
//! remembers seeds until their challenge TTL has passed (after which the
//! expiry check rejects them anyway) and bounds its memory with FIFO
//! eviction. Each shard keeps a seed once, in a ring of 24-byte slots
//! found through an index of 4-byte cells; both grow with the population,
//! so a full guard costs 32 B per seed and an idle one nothing.

use crate::challenge::SEED_LEN;
use aipow_shard::{default_shard_count, floor_shards, round_shards, Sharded};
use std::collections::{hash_map::RandomState, VecDeque};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default maximum number of remembered seeds.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Largest accepted capacity: ring slots are named by 31-bit sequence
/// numbers, so no shard may hold 2^31 of them.
pub const MAX_CAPACITY: usize = (1 << 31) - 1;

/// Minimum per-shard capacity the automatic shard-count selection will
/// accept: below this, sharding a small guard would skew the FIFO
/// eviction bound for no contention win.
const MIN_SHARD_CAPACITY: usize = 1024;

/// An index cell is 0 when empty, else `OCCUPIED | seq` of a ring slot.
const OCCUPIED: u32 = 1 << 31;
const SEQ_MASK: u32 = OCCUPIED - 1;

/// A bounded, TTL-aware set of already-redeemed challenge seeds.
///
/// Thread-safe; one instance is shared by all verifier call sites. The
/// seed set is sharded by seed hash so concurrent redemptions of
/// *different* seeds rarely contend; each seed maps to exactly one shard,
/// so redemption of a single seed stays atomic. Each shard runs its own
/// FIFO eviction over a per-shard slice of the global capacity
/// (`ceil(capacity / shards)`), preserving the global memory bound: the
/// guard never remembers more than `capacity + shards − 1` seeds.
///
/// ```
/// use aipow_pow::ReplayGuard;
/// let guard = ReplayGuard::new(1024);
/// let seed = [1u8; 16];
/// assert!(guard.check_and_insert(&seed, 5_000, 0), "first redemption accepted");
/// assert!(!guard.check_and_insert(&seed, 5_000, 1), "replay rejected");
/// assert!(guard.check_and_insert(&seed, 9_000, 6_000), "accepted again after expiry");
/// ```
#[derive(Debug)]
pub struct ReplayGuard {
    shards: Sharded<Inner>,
    /// Live entries evicted by the capacity bound, across all shards.
    /// A plain atomic (not per-shard state) so the alarm signal is a
    /// lock-free read on any path that wants to surface it.
    evicted_live: AtomicU64,
}

/// One remembered redemption, `(seed, expiry ms)`: the only copy of its
/// seed. Entries past expiry are semantically absent.
type Slot = ([u8; SEED_LEN], u64);

#[derive(Debug, Default)]
struct Inner {
    /// Slots in insertion order (the FIFO); a slot whose seed was since
    /// inserted again or forgotten is dead and skipped when popped.
    ring: VecDeque<Slot>,
    /// Sequence number of `ring[0]`; `ring[pos]` is `front_seq + pos` mod
    /// 2^31, so popping the front renumbers nothing.
    front_seq: u32,
    /// Linear-probing index naming each remembered seed's live slot; at
    /// most half full, deletion shifts back (no tombstones).
    index: Vec<u32>,
    /// Occupied index cells: the seeds this shard remembers.
    live: usize,
    capacity: usize,
    /// Keyed per shard, like the shard selector: a client choosing which
    /// of its seeds to redeem cannot aim them all at one probe run.
    hasher: RandomState,
}

impl ReplayGuard {
    /// Creates a guard remembering at most (approximately) `capacity`
    /// seeds, with an automatically chosen shard count: enough shards to
    /// spread the machine's parallelism, but never so many that a shard
    /// holds fewer than 1024 seeds (small guards degrade to a single
    /// shard and exact FIFO semantics).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > MAX_CAPACITY`.
    pub fn new(capacity: usize) -> Self {
        let auto = default_shard_count().min((capacity / MIN_SHARD_CAPACITY).max(1));
        // Round *down* to a power of two so auto-selection never shrinks
        // per-shard capacity below the minimum.
        Self::with_shards(capacity, floor_shards(auto))
    }

    /// Creates a guard with an explicit shard count (rounded up to a
    /// power of two). Each shard gets `ceil(capacity / shards)` slots,
    /// allocated as they fill.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > MAX_CAPACITY`.
    pub fn with_shards(capacity: usize, shard_count: usize) -> Self {
        assert!(capacity > 0, "replay guard capacity must be positive");
        assert!(capacity <= MAX_CAPACITY, "capacity exceeds MAX_CAPACITY");
        let shard_count = round_shards(shard_count);
        let per_shard = capacity.div_ceil(shard_count);
        ReplayGuard {
            shards: Sharded::new(shard_count, |_| Inner {
                capacity: per_shard,
                ..Inner::default()
            }),
            evicted_live: AtomicU64::new(0),
        }
    }

    /// Number of shards the seed set is split over.
    pub fn shard_count(&self) -> usize {
        self.shards.shard_count()
    }

    /// The enforced bound: `ceil(capacity / shards) × shards` seeds.
    pub fn capacity(&self) -> usize {
        self.shards.fold(0, |acc, inner| acc + inner.capacity)
    }

    /// Atomically checks whether `seed` is fresh at `now_ms` and, if so,
    /// records it until `expires_at_ms`. Returns `true` if the seed was
    /// fresh (caller may proceed), `false` if it is a replay.
    pub fn check_and_insert(&self, seed: &[u8; SEED_LEN], expires_at_ms: u64, now_ms: u64) -> bool {
        self.shards.with_key(seed, |inner| {
            inner.sweep_expired(now_ms);

            let hash = inner.hasher.hash_one(seed);
            let remembered = inner
                .probe(seed, hash)
                .map(|i| inner.slot(inner.index[i]).1);
            if remembered.is_ok_and(|expiry| expiry >= now_ms) {
                return false;
            }

            if inner.live >= inner.capacity && inner.evict_oldest(now_ms) {
                // relaxed: monotonic stats counter; incremented under the
                // shard lock
                self.evicted_live.fetch_add(1, Ordering::Relaxed);
            }
            inner.insert(seed, hash, expires_at_ms);
            true
        })
    }

    /// Number of live entries currently remembered (sums shards, locking
    /// one at a time).
    pub fn len(&self) -> usize {
        self.shards.fold(0, |acc, inner| acc + inner.live)
    }

    /// Whether the guard remembers no seeds.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held for remembered seeds: ring capacity × 24 plus
    /// index cells × 4, summed locking one shard at a time (for metrics,
    /// never on the admission path).
    pub fn heap_bytes(&self) -> usize {
        self.shards
            .fold(0, |acc, s| acc + s.ring.capacity() * 24 + s.index.len() * 4)
    }

    /// Number of *live* (unexpired) entries evicted due to the capacity
    /// bound (a lock-free atomic read). A nonzero value means the guard
    /// was undersized for the workload and replays became theoretically
    /// possible; operators should alarm on it (see ablation A3 in
    /// EXPERIMENTS.md and the `replay_evicted_live` framework metric).
    pub fn live_evictions(&self) -> u64 {
        // relaxed: monitoring read of a stats counter; freshness not
        // required
        self.evicted_live.load(Ordering::Relaxed)
    }
}

impl Default for ReplayGuard {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl Inner {
    /// The ring slot an occupied index cell names.
    fn slot(&self, cell: u32) -> &Slot {
        &self.ring[(cell.wrapping_sub(self.front_seq) & SEQ_MASK) as usize]
    }

    /// `Ok` with the index cell naming `seed`'s live slot, or `Err` with
    /// the empty cell ending its probe run (0 while the index is unallocated).
    fn probe(&self, seed: &[u8; SEED_LEN], hash: u64) -> Result<usize, usize> {
        let mask = self.index.len().checked_sub(1).ok_or(0usize)?;
        let mut i = hash as usize & mask;
        while self.index[i] != 0 {
            if self.slot(self.index[i]).0 == *seed {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    /// Appends a slot for `seed` and points the index at it; the slot it
    /// named for `seed` before, if any (an expired one), becomes dead.
    fn insert(&mut self, seed: &[u8; SEED_LEN], hash: u64, expiry: u64) {
        if (self.live + 1) * 2 > self.index.len() {
            self.grow();
        }
        let found = self.probe(seed, hash);
        self.live += usize::from(found.is_err());
        let (Ok(i) | Err(i)) = found;
        self.index[i] = OCCUPIED | (self.front_seq.wrapping_add(self.ring.len() as u32) & SEQ_MASK);
        self.ring.push_back((*seed, expiry));
    }

    /// Doubles the index (allocating it on first use), re-placing every cell.
    fn grow(&mut self) {
        let cells = vec![0; (self.index.len() * 2).max(8)];
        let old = std::mem::replace(&mut self.index, cells);
        for cell in old.into_iter().filter(|&cell| cell != 0) {
            let seed = self.slot(cell).0;
            let (Ok(i) | Err(i)) = self.probe(&seed, self.hasher.hash_one(seed));
            self.index[i] = cell;
        }
    }

    /// Empties index cell `hole`, shifting the rest of its probe run back
    /// so every cell stays reachable from its home.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut i = (hole + 1) & mask;
        while self.index[i] != 0 {
            // A cell may fill the hole unless its home lies in (hole, i].
            let home = self.hasher.hash_one(self.slot(self.index[i]).0) as usize & mask;
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.index[hole] = 0;
        self.live -= 1;
    }

    /// Pops the oldest slot, forgetting its seed if the index holds that
    /// seed at this slot's expiry (by expiry, as the map the index
    /// replaced compared). Returns the expiry and whether it forgot.
    fn pop_front(&mut self) -> Option<(u64, bool)> {
        let (seed, expiry) = *self.ring.front()?;
        let live = self.probe(&seed, self.hasher.hash_one(seed)).ok();
        let live = live.filter(|&i| self.slot(self.index[i]).1 == expiry);
        if let Some(i) = live {
            self.remove(i);
        }
        self.ring.pop_front();
        self.front_seq = (self.front_seq + 1) & SEQ_MASK;
        Some((expiry, live.is_some()))
    }

    /// Drops expired slots from the front of the FIFO. Amortized O(1):
    /// each slot is pushed and popped once.
    fn sweep_expired(&mut self, now_ms: u64) {
        while matches!(self.ring.front(), Some(&(_, expiry)) if expiry < now_ms) {
            self.pop_front();
        }
    }

    /// Evicts the oldest remembered seed to make room, skipping dead
    /// slots; returns whether it was still live (unexpired).
    fn evict_oldest(&mut self, now_ms: u64) -> bool {
        while let Some((expiry, forgotten)) = self.pop_front() {
            if forgotten {
                return expiry >= now_ms;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn seed(i: u64) -> [u8; SEED_LEN] {
        let mut s = [0u8; SEED_LEN];
        s[..8].copy_from_slice(&i.to_be_bytes());
        s
    }

    #[test]
    fn first_use_accepted_replay_rejected() {
        let g = ReplayGuard::new(16);
        assert!(g.check_and_insert(&seed(1), 1_000, 0));
        assert!(!g.check_and_insert(&seed(1), 1_000, 10));
        assert!(!g.check_and_insert(&seed(1), 2_000, 999));
    }

    #[test]
    fn distinct_seeds_independent() {
        let g = ReplayGuard::new(16);
        assert!(g.check_and_insert(&seed(1), 1_000, 0));
        assert!(g.check_and_insert(&seed(2), 1_000, 0));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn expired_entries_are_forgotten() {
        let g = ReplayGuard::new(16);
        assert!(g.check_and_insert(&seed(1), 100, 0));
        // At now=101 the entry has expired; the seed may be seen again
        // (the verifier's TTL check would reject such a challenge anyway).
        assert!(g.check_and_insert(&seed(1), 300, 101));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn capacity_bound_enforced_with_fifo_eviction() {
        let g = ReplayGuard::new(4);
        for i in 0..4 {
            assert!(g.check_and_insert(&seed(i), 10_000, 0));
        }
        assert_eq!(g.len(), 4);
        // Fifth insertion evicts the oldest (seed 0).
        assert!(g.check_and_insert(&seed(4), 10_000, 1));
        assert_eq!(g.len(), 4);
        assert_eq!(g.live_evictions(), 1);
        // Seed 0 is (regrettably) acceptable again — the documented
        // capacity/soundness trade-off.
        assert!(g.check_and_insert(&seed(0), 10_000, 2));
    }

    #[test]
    fn sweep_prefers_expired_over_live_eviction() {
        let g = ReplayGuard::new(2);
        assert!(g.check_and_insert(&seed(1), 10, 0));
        assert!(g.check_and_insert(&seed(2), 10_000, 0));
        // seed(1) has expired by now=11; inserting a third seed must sweep
        // it rather than evicting the live seed(2).
        assert!(g.check_and_insert(&seed(3), 10_000, 11));
        assert_eq!(g.live_evictions(), 0);
        assert!(
            !g.check_and_insert(&seed(2), 10_000, 12),
            "live entry survived"
        );
    }

    #[test]
    fn reinsertion_after_expiry_keeps_map_and_order_consistent() {
        let g = ReplayGuard::new(4);
        assert!(g.check_and_insert(&seed(1), 10, 0));
        assert!(g.check_and_insert(&seed(1), 1_000, 11)); // re-insert after expiry
                                                          // The stale order entry for the first insertion must not remove the
                                                          // fresh map entry when swept.
        assert!(!g.check_and_insert(&seed(1), 2_000, 12));
        assert_eq!(g.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        ReplayGuard::new(0);
    }

    #[test]
    #[should_panic(expected = "MAX_CAPACITY")]
    fn capacity_beyond_the_sequence_space_panics() {
        ReplayGuard::with_shards(MAX_CAPACITY + 1, 1);
    }

    #[test]
    fn concurrent_redemption_admits_exactly_once() {
        use std::sync::Arc;
        let g = Arc::new(ReplayGuard::new(1024));
        let mut handles = Vec::new();
        let accepted = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for _ in 0..8 {
            let g = Arc::clone(&g);
            let accepted = Arc::clone(&accepted);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    if g.check_and_insert(&seed(i), 1_000_000, 0) {
                        accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            accepted.load(std::sync::atomic::Ordering::Relaxed),
            1_000,
            "each seed must be admitted exactly once across threads"
        );
    }

    #[test]
    fn small_guards_collapse_to_one_shard_for_exact_fifo() {
        // Below 2×1024 capacity there is nothing to shard; semantics stay
        // identical to the historical single-lock guard.
        assert_eq!(ReplayGuard::new(16).shard_count(), 1);
        assert_eq!(ReplayGuard::new(1024).shard_count(), 1);
        assert!(ReplayGuard::new(DEFAULT_CAPACITY).shard_count() >= 1);
    }

    #[test]
    fn explicit_shard_count_rounds_to_power_of_two() {
        assert_eq!(ReplayGuard::with_shards(1 << 16, 6).shard_count(), 8);
        assert_eq!(ReplayGuard::with_shards(1 << 16, 1).shard_count(), 1);
    }

    #[test]
    fn sharded_guard_admits_each_seed_exactly_once() {
        use std::sync::Arc;
        let g = Arc::new(ReplayGuard::with_shards(1 << 16, 8));
        assert_eq!(g.shard_count(), 8);
        let accepted = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        if g.check_and_insert(&seed(i), u64::MAX, 0) {
                            accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            accepted.load(std::sync::atomic::Ordering::Relaxed),
            2_000,
            "each seed admitted exactly once even when spread over shards"
        );
        assert_eq!(g.len(), 2_000);
    }

    #[test]
    fn sharded_eviction_bound_holds() {
        // 8 shards × 128 slots: inserting 4× the capacity of live seeds
        // must keep the total at the per-shard bound and count the live
        // evictions that occurred.
        let g = ReplayGuard::with_shards(1024, 8);
        for i in 0..4_096u64 {
            assert!(g.check_and_insert(&seed(i), u64::MAX, 0));
        }
        assert!(g.len() <= 1024, "len {} exceeds capacity bound", g.len());
        assert_eq!(g.live_evictions(), 4_096 - g.len() as u64);
    }

    #[test]
    fn footprint_follows_the_population_not_the_capacity() {
        assert_eq!(ReplayGuard::with_shards(1 << 30, 8).heap_bytes(), 0);
        let capacity = 1 << 16;
        let g = ReplayGuard::with_shards(capacity, 8);
        for i in 0..3 * capacity as u64 {
            assert!(g.check_and_insert(&seed(i), u64::MAX, 0));
        }
        assert_eq!(g.len(), capacity);
        // 24-byte slot + two 4-byte index cells per seed, plus slack of
        // one cache line per shard.
        let bound = 32 * capacity + 64 * g.shard_count();
        assert!(g.heap_bytes() <= bound, "{} > {bound}", g.heap_bytes());
    }

    /// The `HashMap` + `VecDeque` guard the ring replaced, kept as the
    /// oracle: it holds each seed twice, once per structure. One per
    /// shard, routed by the guard under test's own shard selector.
    struct OracleShard {
        seen: HashMap<[u8; SEED_LEN], u64>,
        order: VecDeque<([u8; SEED_LEN], u64)>,
        capacity: usize,
    }

    impl OracleShard {
        fn sweep_expired(&mut self, now_ms: u64) {
            while let Some(&(seed, expiry)) = self.order.front() {
                if expiry >= now_ms {
                    break;
                }
                self.order.pop_front();
                if self.seen.get(&seed) == Some(&expiry) {
                    self.seen.remove(&seed);
                }
            }
        }

        fn evict_oldest(&mut self, now_ms: u64) -> bool {
            while let Some((seed, expiry)) = self.order.pop_front() {
                if self.seen.get(&seed) == Some(&expiry) {
                    self.seen.remove(&seed);
                    return expiry >= now_ms;
                }
            }
            false
        }

        /// Returns (fresh, evicted a live entry).
        fn check_and_insert(
            &mut self,
            seed: [u8; SEED_LEN],
            expires: u64,
            now: u64,
        ) -> (bool, bool) {
            self.sweep_expired(now);
            if self.seen.get(&seed).is_some_and(|&e| e >= now) {
                return (false, false);
            }
            let evicted = self.seen.len() >= self.capacity && self.evict_oldest(now);
            self.seen.insert(seed, expires);
            self.order.push_back((seed, expires));
            (true, evicted)
        }
    }

    /// A guard whose shards start numbering slots at `front_seq`.
    fn starting_at(capacity: usize, shards: usize, front_seq: u32) -> ReplayGuard {
        let g = ReplayGuard::with_shards(capacity, shards);
        g.shards.for_each_shard(|s| s.front_seq = front_seq);
        g
    }

    /// Runs `ops` — (seed, ttl, clock step) — against `g` and the oracle
    /// in lock-step. Expiries may lie up to 4 ms in the past, so expired
    /// re-inserts at an equal expiry occur too.
    fn differential(
        g: &ReplayGuard,
        capacity: usize,
        ops: &[(u64, u64, u64)],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        let per_shard = capacity.div_ceil(g.shard_count());
        let mut oracle: Vec<OracleShard> = (0..g.shard_count())
            .map(|_| OracleShard {
                seen: HashMap::new(),
                order: VecDeque::new(),
                capacity: per_shard,
            })
            .collect();
        let (mut now, mut evicted) = (0u64, 0u64);
        for &(s, ttl, step) in ops {
            now += step;
            let s = seed(s % (capacity as u64 + 4));
            let expires = (now + ttl).saturating_sub(4);
            let (fresh, live) = oracle[g.shards.shard_index(&s)].check_and_insert(s, expires, now);
            evicted += u64::from(live);
            prop_assert_eq!(g.check_and_insert(&s, expires, now), fresh);
            prop_assert_eq!(g.len(), oracle.iter().map(|o| o.seen.len()).sum::<usize>());
            prop_assert_eq!(g.live_evictions(), evicted);
        }
        Ok(())
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
            proptest::collection::vec((0u64..1_000, 0u64..40, 0u64..4), len)
        }

        proptest! {
            /// Soundness: within a TTL window, no seed is ever accepted
            /// twice (as long as capacity is not exceeded).
            #[test]
            fn no_double_redemption(ops in proptest::collection::vec((0u64..50, 1u64..100), 1..200)) {
                let g = ReplayGuard::new(10_000);
                let mut accepted = std::collections::HashSet::new();
                for (s, _tick) in ops {
                    let fresh = g.check_and_insert(&seed(s), u64::MAX, 0);
                    if fresh {
                        prop_assert!(accepted.insert(s), "seed {} accepted twice", s);
                    } else {
                        prop_assert!(accepted.contains(&s));
                    }
                }
            }

            /// The ring + index answers every call exactly as the map +
            /// queue guard did: return value, `len()` and
            /// `live_evictions()` after each one.
            #[test]
            fn matches_the_map_and_queue_guard(
                capacity in 1usize..=64,
                four in proptest::prelude::any::<bool>(),
                ops in ops(1..300),
            ) {
                let shards = if four { 4 } else { 1 };
                differential(&ReplayGuard::with_shards(capacity, shards), capacity, &ops)?;
            }

            /// The same, with slot numbering starting just below 2^31 so
            /// positions and the front wrap mid-sequence.
            #[test]
            fn matches_across_the_sequence_wrap(
                capacity in 1usize..=64,
                four in proptest::prelude::any::<bool>(),
                ops in ops(150..300),
            ) {
                let shards = if four { 4 } else { 1 };
                let start = SEQ_MASK - 2;
                let g = starting_at(capacity, shards, start);
                differential(&g, capacity, &ops)?;
                prop_assert!(
                    g.shards.fold(false, |wrapped, s| wrapped || s.front_seq < start),
                    "no shard's front crossed 2^31"
                );
            }
        }
    }
}
