//! Replay protection for solved challenges.
//!
//! A solution is valid work exactly once: accepting the same seed twice
//! would let an attacker amortize one solve over many requests. The guard
//! remembers seeds until their challenge TTL has passed (after which the
//! expiry check rejects them anyway) and bounds its memory with FIFO
//! eviction. Each shard keeps a seed's 64-bit keyed fingerprint once, in
//! a ring of 16-byte slots found through an index of 8-byte cells that
//! also carry the fingerprint's high half, so a probe reads the ring only
//! on a tag match and deletion and growth read it never. Both grow with
//! the population (the index stays at most ¾ full), so a full guard costs
//! 32 B per seed and an idle one nothing. Two seeds with equal
//! fingerprints are one seed to the guard: a fresh seed is refused as a
//! replay with probability at most (seeds in its shard) ÷ 2^64.

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

/// An index cell is 0 when empty, else `tag << 32 | OCCUPIED | seq`: the
/// high half of the slot's fingerprint over the ring slot's sequence
/// number. A cell's home is `tag & mask`, so placing a cell needs only
/// the cell.
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

/// One remembered redemption, `(fingerprint, expiry ms)`: the seed's keyed
/// hash stands for the seed, which is not kept. Entries past expiry are
/// semantically absent.
type Slot = (u64, u64);

/// One shard: a FIFO ring of `(fingerprint, expiry)` slots and a
/// linear-probing index of tagged cells naming the live ones.
#[derive(Debug, Default)]
struct Inner {
    /// Slots in insertion order (the FIFO); a slot whose seed was since
    /// inserted again or forgotten is dead and skipped when popped.
    ring: VecDeque<Slot>,
    /// Sequence number of `ring[0]`; `ring[pos]` is `front_seq + pos` mod
    /// 2^31, so popping the front renumbers nothing.
    front_seq: u32,
    /// Linear-probing index naming each remembered seed's live slot; at
    /// most ¾ full, deletion shifts back (no tombstones).
    index: Vec<u64>,
    /// Occupied index cells: the seeds this shard remembers.
    live: usize,
    capacity: usize,
    /// Keyed per shard, like the shard selector: a client choosing which
    /// of its seeds to redeem cannot aim them all at one probe run, nor
    /// pick two with equal fingerprints.
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

            let fp = inner.hasher.hash_one(seed);
            let remembered = inner.probe(fp).map(|i| inner.slot(inner.index[i]).1);
            if remembered.is_ok_and(|expiry| expiry >= now_ms) {
                return false;
            }

            if inner.live >= inner.capacity && inner.evict_oldest(now_ms) {
                // relaxed: monotonic stats counter; incremented under the
                // shard lock
                self.evicted_live.fetch_add(1, Ordering::Relaxed);
            }
            inner.insert(fp, expires_at_ms);
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

    /// Heap bytes held for remembered seeds: ring capacity × 16 plus
    /// index cells × 8, summed locking one shard at a time (for metrics,
    /// never on the admission path).
    pub fn heap_bytes(&self) -> usize {
        self.shards
            .fold(0, |acc, s| acc + s.ring.capacity() * 16 + s.index.len() * 8)
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
    fn slot(&self, cell: u64) -> &Slot {
        &self.ring[((cell as u32).wrapping_sub(self.front_seq) & SEQ_MASK) as usize]
    }

    /// `Ok` with the index cell naming fingerprint `fp`'s live slot, or
    /// `Err` with the empty cell ending its probe run (0 while the index is
    /// unallocated). Reads the ring only for cells whose tag matches.
    fn probe(&self, fp: u64) -> Result<usize, usize> {
        let mask = self.index.len().checked_sub(1).ok_or(0usize)?;
        let tag = fp >> 32;
        let mut i = tag as usize & mask;
        while self.index[i] != 0 {
            if self.index[i] >> 32 == tag && self.slot(self.index[i]).0 == fp {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
        Err(i)
    }

    /// Appends a slot for `fp` and points the index at it; the slot it
    /// named for `fp` before, if any (an expired one), becomes dead.
    fn insert(&mut self, fp: u64, expiry: u64) {
        if (self.live + 1) * 4 > self.index.len() * 3 {
            self.grow();
        }
        let found = self.probe(fp);
        self.live += usize::from(found.is_err());
        let (Ok(i) | Err(i)) = found;
        let seq = self.front_seq.wrapping_add(self.ring.len() as u32) & SEQ_MASK;
        self.index[i] = (fp >> 32 << 32) | u64::from(OCCUPIED | seq);
        self.ring.push_back((fp, expiry));
    }

    /// Doubles the index (allocating it on first use), re-placing every
    /// cell from its own tag.
    fn grow(&mut self) {
        let cells = vec![0; (self.index.len() * 2).max(8)];
        let old = std::mem::replace(&mut self.index, cells);
        let mask = self.index.len() - 1;
        for cell in old.into_iter().filter(|&cell| cell != 0) {
            let mut i = (cell >> 32) as usize & mask;
            while self.index[i] != 0 {
                i = (i + 1) & mask;
            }
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
            let home = (self.index[i] >> 32) as usize & mask;
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.index[hole] = self.index[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.index[hole] = 0;
        self.live -= 1;
    }

    /// Pops the oldest slot, forgetting its seed if the index names a slot
    /// of that seed at this slot's expiry: this slot, or a re-insert at an
    /// equal expiry (by expiry, as the map the index replaced compared).
    /// Returns the expiry and whether it forgot.
    fn pop_front(&mut self) -> Option<(u64, bool)> {
        let (fp, expiry) = *self.ring.front()?;
        let live = self
            .probe(fp)
            .ok()
            .filter(|&i| self.slot(self.index[i]).1 == expiry);
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
        // 16-byte slot + two 8-byte index cells per seed (2^13 seeds
        // per shard end in 2^14 cells: the index doubles past ¾ of 2^13),
        // plus slack of one cache line per shard.
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

    impl Inner {
        /// Panics unless the index is what every operation must leave:
        /// `live` occupied cells, at most ¾ of the index, each reachable
        /// from its home without crossing an empty cell and tagged with
        /// its slot's fingerprint, and no two naming the same slot.
        fn assert_consistent(&self) {
            let mask = self.index.len().wrapping_sub(1);
            let mut slots = std::collections::HashSet::new();
            for (i, &cell) in self.index.iter().enumerate().filter(|&(_, &c)| c != 0) {
                let home = (cell >> 32) as usize & mask;
                let run = (i.wrapping_sub(home) & mask) + 1;
                assert!(
                    (0..run).all(|k| self.index[(home + k) & mask] != 0),
                    "cell {i} is not reachable from its home {home}"
                );
                assert_eq!(cell >> 32, self.slot(cell).0 >> 32, "tag of cell {i}");
                assert!(
                    slots.insert(cell as u32),
                    "two cells name slot {}",
                    cell as u32
                );
            }
            assert_eq!(slots.len(), self.live, "occupied cells");
            assert!(self.live * 4 <= self.index.len() * 3, "index over ¾ full");
        }
    }

    /// Runs `ops` — (seed, ttl, clock step) — against `g` and the oracle
    /// in lock-step. Expiries may lie up to 4 ms in the past, so expired
    /// re-inserts at an equal expiry occur too.
    fn differential(
        g: &ReplayGuard,
        capacity: usize,
        ops: &[(u64, u64, u64)],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut now = 0u64;
        let calls = ops.iter().map(|&(s, ttl, step)| {
            now += step;
            (
                s % (capacity as u64 + 4),
                (now + ttl).saturating_sub(4),
                now,
            )
        });
        lockstep(g, capacity, calls)
    }

    /// Makes each call — (seed, expiry, clock) — on `g` and on one oracle
    /// per shard, comparing the return value, `len()` and
    /// `live_evictions()` after every call, and every shard's structure
    /// every 256 calls and at the end.
    fn lockstep(
        g: &ReplayGuard,
        capacity: usize,
        calls: impl IntoIterator<Item = (u64, u64, u64)>,
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
        let mut evicted = 0u64;
        for (n, (s, expires, now)) in calls.into_iter().enumerate() {
            let s = seed(s);
            let (fresh, live) = oracle[g.shards.shard_index(&s)].check_and_insert(s, expires, now);
            evicted += u64::from(live);
            prop_assert_eq!(g.check_and_insert(&s, expires, now), fresh);
            prop_assert_eq!(g.len(), oracle.iter().map(|o| o.seen.len()).sum::<usize>());
            prop_assert_eq!(g.live_evictions(), evicted);
            if n % 256 == 255 {
                g.shards.for_each_shard(|s| s.assert_consistent());
            }
        }
        g.shards.for_each_shard(|s| s.assert_consistent());
        Ok(())
    }

    /// `n` calls — (seed, expiry, clock) — from a fixed splitmix64 stream:
    /// ~55 % fresh seeds, ~25 % replays of recent seeds, ~20 % re-inserts
    /// of a recent seed at the expiry it was last given (in the past once
    /// that has passed). Seven in ten TTLs outlive several clock jumps, so
    /// 8 × 512 slots saturate and evict live seeds; the rest expire within
    /// 100 ms, behind them in the FIFO. The clock moves 0–2 ms per call
    /// and, once in ~2 500 calls, 25 s, expiring whole runs of slots.
    fn saturation_calls(n: usize) -> Vec<(u64, u64, u64)> {
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let (mut now, mut given) = (0u64, Vec::<u64>::new());
        let mut calls = Vec::with_capacity(n);
        for _ in 0..n {
            now += if next(2_500) == 0 { 25_000 } else { next(3) };
            let ttl = if next(10) < 7 {
                60_000 + next(340_000)
            } else {
                next(100)
            };
            let recent = |r: u64| given.len() as u64 - 1 - r % (given.len() as u64).min(6_000);
            let call = match next(100) {
                _ if given.is_empty() => (0, now + ttl),
                0..=54 => (given.len() as u64, now + ttl),
                55..=79 => (recent(next(u64::MAX)), now + ttl),
                _ => {
                    let s = recent(next(u64::MAX));
                    (s, given[s as usize])
                }
            };
            if call.0 == given.len() as u64 {
                given.push(call.1);
            } else {
                given[call.0 as usize] = call.1;
            }
            calls.push((call.0, call.1, now));
        }
        calls
    }

    /// The guard against the oracle at saturation scale, 8 shards of 512
    /// slots over ~20 000 calls, from sequence 0 and across the 2^31 wrap.
    #[test]
    fn matches_the_oracle_at_saturation_scale() {
        let calls = saturation_calls(20_000);
        let g = ReplayGuard::with_shards(4_096, 8);
        lockstep(&g, 4_096, calls.iter().copied()).unwrap();
        assert!(
            g.live_evictions() > 1_000,
            "{} live evictions",
            g.live_evictions()
        );
        let start = SEQ_MASK - 2;
        let g = starting_at(4_096, 8, start);
        lockstep(&g, 4_096, calls.iter().copied()).unwrap();
        assert!(g.shards.fold(true, |all, s| all && s.front_seq < start));
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
