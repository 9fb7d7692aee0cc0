//! A set-associative cache of cacheline metadata.
//!
//! Functional data is not stored here — the machine keeps bytes in its
//! volatile overlay and persistent image; the cache only decides hits,
//! misses, evictions, and write-backs.
//!
//! Storage is two flat, set-major tables of `num_sets * ways` words: set
//! `s` owns slots `s*ways .. (s+1)*ways` of both. `keys` holds the resident
//! line number plus one, so 0 marks an empty slot and a victim's address is
//! `key - 1` with no tag arithmetic. `stamps` holds the slot's LRU tick
//! shifted left one bit, with the dirty bit in bit 0. A lookup scans only
//! the keys of one set and reads a stamp only on a hit; a fill also reads
//! the set's stamps to pick the LRU victim.
//!
//! Both tables are allocated, zeroed, by the first `fill`. Until then
//! the cache holds no table at all: lookups miss, and `invalidate` and
//! `clean` find nothing. Zeroing is not free: the allocator clears a
//! small table (an 8-way 32 KiB L1 has 8 KiB of them) in place on the
//! heap, and a large one too once the process has freed a table of that
//! size; only a fresh large allocation comes back as untouched zero
//! pages. A machine configures private L1 and L2 caches for dozens of
//! cores, so allocating on first fill is what keeps the cores a run never
//! uses from costing host memory. `reset` drops the tables again. A
//! live-line counter makes emptiness checks O(1), which the flush path
//! relies on to skip the many per-core caches that hold nothing.

use std::ops::Range;

use simbase::{Addr, HitMiss, CACHELINE_BYTES};

/// A line evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Cacheline-aligned address of the victim.
    pub addr: Addr,
    /// Whether the victim held modified data.
    pub dirty: bool,
}

/// Exact `n % d` by multiplication (Lemire, Kaser & Kurz, "Faster
/// remainder by direct computation", 2019). With `m = ceil(2^128 / d)`,
/// `n % d == ((m * n mod 2^128) * d) >> 128` for every 64-bit `n`, which
/// replaces the division by the (often non-power-of-two) set count on
/// every lookup.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    m: u128,
}

impl FastMod {
    fn new(d: u64) -> Self {
        assert!(d > 0, "modulus must be positive");
        // For d == 1 the magic wraps to 0, which yields 0 == n % 1.
        FastMod {
            d,
            m: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    #[inline]
    fn rem(self, n: u64) -> u64 {
        let low = self.m.wrapping_mul(u128::from(n));
        let d = u128::from(self.d);
        // High 128 bits of the 192-bit product `low * d`, in two halves;
        // neither partial product nor their sum overflows.
        let hi = (low >> 64) * d;
        let lo = (low & u128::from(u64::MAX)) * d;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// Set-associative, LRU, write-back cache (metadata only).
#[derive(Debug, Clone)]
pub struct Cache {
    /// Resident line number + 1 per slot; 0 is an empty slot. Empty
    /// (no table) until the first fill.
    keys: Vec<u64>,
    /// `tick << 1 | dirty` per slot; 0 for an empty slot. Allocated with
    /// `keys`.
    stamps: Vec<u64>,
    /// `num_sets * ways`: the length of both tables once allocated.
    slots: usize,
    sets: FastMod,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Number of occupied slots; `is_empty` must stay O(1) for the flush
    /// path.
    live: usize,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// The number of sets is `capacity / (ways * 64)`, rounded down to at
    /// least 1; odd capacities (such as the 27.5 MB G1 L3) therefore work.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or the capacity holds fewer lines than one
    /// way.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / CACHELINE_BYTES;
        assert!(lines >= ways as u64, "capacity smaller than one set");
        let num_sets = (lines / ways as u64).max(1);
        Cache {
            keys: Vec::new(),
            stamps: Vec::new(),
            slots: num_sets as usize * ways,
            sets: FastMod::new(num_sets),
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
            live: 0,
        }
    }

    /// Returns `addr`'s key and the slot range of its set.
    #[inline]
    fn locate(&self, addr: Addr) -> (u64, Range<usize>) {
        let line = addr.cacheline().0 / CACHELINE_BYTES;
        let start = self.sets.rem(line) as usize * self.ways;
        (line + 1, start..start + self.ways)
    }

    /// Returns the slot holding `addr`, if resident. Before the first
    /// fill there is no table and the range lookup misses.
    #[inline]
    pub fn slot_of(&self, addr: Addr) -> Option<usize> {
        let (key, set) = self.locate(addr);
        let start = set.start;
        self.keys
            .get(set)?
            .iter()
            .position(|&k| k == key)
            .map(|i| start + i)
    }

    /// Consumes a fresh LRU tick and returns it as a stamp with `dirty` in
    /// bit 0.
    #[inline]
    fn next_stamp(&mut self, dirty: bool) -> u64 {
        self.tick += 1;
        self.tick << 1 | u64::from(dirty)
    }

    /// Looks up `addr`; on a hit, refreshes LRU and optionally marks dirty.
    ///
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: Addr, mark_dirty: bool) -> bool {
        let stamp = self.next_stamp(mark_dirty);
        if let Some(slot) = self.slot_of(addr) {
            self.stamps[slot] = stamp | (self.stamps[slot] & 1);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Repeats a hit on `addr` known to sit in `slot` (from
    /// [`Cache::slot_of`]): refreshes LRU and counts the hit exactly as
    /// `access(addr, false)` would. Returns `false`, changing nothing, if
    /// `slot` does not hold `addr`.
    #[inline]
    pub fn touch(&mut self, slot: usize, addr: Addr) -> bool {
        let key = addr.cacheline().0 / CACHELINE_BYTES + 1;
        if self.keys.get(slot) != Some(&key) {
            return false;
        }
        let stamp = self.next_stamp(false);
        self.stamps[slot] = stamp | (self.stamps[slot] & 1);
        self.hits += 1;
        true
    }

    /// Returns `true` if `addr` is resident, without touching LRU or stats.
    pub fn peek(&self, addr: Addr) -> bool {
        self.slot_of(addr).is_some()
    }

    /// Inserts `addr` (refreshing it if already resident), returning the
    /// evicted victim if the set overflowed.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        let stamp = self.next_stamp(dirty);
        let (key, set) = self.locate(addr);
        if self.keys.is_empty() {
            self.keys = vec![0; self.slots];
            self.stamps = vec![0; self.slots];
        }
        let keys = &mut self.keys[set.clone()];
        let stamps = &mut self.stamps[set];
        // One pass over the set's slices: find the resident line, a free
        // slot, and the LRU victim.
        let mut free = None;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, &k) in keys.iter().enumerate() {
            if k == key {
                stamps[i] = stamp | (stamps[i] & 1);
                return None;
            }
            if k == 0 {
                free.get_or_insert(i);
            } else if stamps[i] < oldest {
                // Ticks are unique (each touch consumes a fresh one), so
                // the victim does not depend on slot order, and the dirty
                // bit below the tick never decides it.
                oldest = stamps[i];
                victim = i;
            }
        }
        if let Some(i) = free {
            keys[i] = key;
            stamps[i] = stamp;
            self.live += 1;
            return None;
        }
        let evicted = Evicted {
            addr: Addr((keys[victim] - 1) * CACHELINE_BYTES),
            dirty: stamps[victim] & 1 == 1,
        };
        keys[victim] = key;
        stamps[victim] = stamp;
        Some(evicted)
    }

    /// Empties `slot`, returning whether it was dirty.
    fn evict_slot(&mut self, slot: usize) -> bool {
        let dirty = self.stamps[slot] & 1 == 1;
        self.keys[slot] = 0;
        self.stamps[slot] = 0;
        self.live -= 1;
        dirty
    }

    /// Removes `addr` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        if self.live == 0 {
            return None;
        }
        let slot = self.slot_of(addr)?;
        Some(self.evict_slot(slot))
    }

    /// Cleans `addr` if resident (write-back without invalidation),
    /// returning whether it was dirty.
    pub fn clean(&mut self, addr: Addr) -> Option<bool> {
        if self.live == 0 {
            return None;
        }
        let slot = self.slot_of(addr)?;
        let was = self.stamps[slot] & 1 == 1;
        self.stamps[slot] &= !1;
        Some(was)
    }

    /// Drains the whole cache, returning the addresses of dirty lines.
    ///
    /// Addresses come out in slot order, which is not sorted; callers that
    /// need a canonical order (power-fail replay) sort them.
    pub fn drain_dirty(&mut self) -> Vec<Addr> {
        let mut dirty = Vec::new();
        if self.live == 0 {
            return dirty;
        }
        for slot in 0..self.keys.len() {
            let key = self.keys[slot];
            if key != 0 && self.evict_slot(slot) {
                dirty.push(Addr((key - 1) * CACHELINE_BYTES));
            }
        }
        dirty
    }

    /// Returns the hit/miss counters observed so far.
    pub fn counters(&self) -> HitMiss {
        HitMiss::of(self.hits, self.misses)
    }

    /// Returns the number of resident lines.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no lines are resident. O(1): a counter, not a scan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Clears hit/miss statistics without disturbing resident lines.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Clears contents and statistics, and drops the tables: a reset
    /// cache holds no host memory until it is filled again.
    pub fn reset(&mut self) {
        self.keys = Vec::new();
        self.stamps = Vec::new();
        self.live = 0;
        self.hits = 0;
        self.misses = 0;
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Set counts of the G1 and G2 hierarchies (L1 and L2 are 64 and 1024
    /// on both; the L3s are 40 000 and 49 152), plus the single-set edge.
    const SET_COUNTS: [u64; 5] = [1, 64, 1024, 40_000, 49_152];

    #[test]
    fn set_index_reduction_is_exact_on_edge_lines() {
        for d in SET_COUNTS {
            let f = FastMod::new(d);
            for n in [0, d - 1, d, u64::MAX / 64, u64::MAX] {
                assert_eq!(f.rem(n), n % d, "{n} % {d}");
            }
        }
    }

    proptest! {
        #[test]
        fn set_index_reduction_is_exact_on_random_lines(
            n in any::<u64>(),
            d in 1u64..u64::MAX,
        ) {
            for d in SET_COUNTS.into_iter().chain([d]) {
                prop_assert_eq!(FastMod::new(d).rem(n), n % d, "{} % {}", n, d);
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.access(Addr(0), false));
        c.fill(Addr(0), false);
        assert!(c.access(Addr(0), false));
        assert_eq!(c.counters(), HitMiss::of(1, 1));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = Cache::new(4096, 4);
        c.access(Addr(0), false);
        c.fill(Addr(0), false);
        c.access(Addr(0), false);
        c.reset_stats();
        assert_eq!(c.counters(), HitMiss::new());
        assert!(c.peek(Addr(0)), "resident lines survive a stats reset");
    }

    #[test]
    fn lru_eviction_within_set() {
        // Direct-mapped-ish: 2 ways, force collisions in one set.
        let lines = 4u64; // 2 sets x 2 ways
        let mut c = Cache::new(lines * 64, 2);
        // Addresses mapping to set 0: line numbers 0, 2, 4 (mod 2 == 0).
        c.fill(Addr(0), false);
        c.fill(Addr(128), false);
        c.access(Addr(0), false); // refresh line 0
        let ev = c.fill(Addr(256), false).expect("set overflow");
        assert_eq!(ev.addr, Addr(128), "LRU victim");
        assert!(!ev.dirty);
    }

    #[test]
    fn dirty_bit_propagates_to_eviction() {
        let mut c = Cache::new(2 * 64, 1);
        c.fill(Addr(0), false);
        c.access(Addr(0), true); // store
        let ev = c.fill(Addr(128), false).expect("evicts line 0");
        assert_eq!(ev.addr, Addr(0));
        assert!(ev.dirty);
    }

    #[test]
    fn refill_merges_dirtiness() {
        let mut c = Cache::new(4096, 4);
        c.fill(Addr(0), true);
        assert!(c.fill(Addr(0), false).is_none());
        let ev = c.invalidate(Addr(0));
        assert_eq!(ev, Some(true), "dirty survives a clean refill");
    }

    #[test]
    fn clean_clears_dirty_but_keeps_line() {
        let mut c = Cache::new(4096, 4);
        c.fill(Addr(0), true);
        assert_eq!(c.clean(Addr(0)), Some(true));
        assert_eq!(c.clean(Addr(0)), Some(false));
        assert!(c.peek(Addr(0)));
    }

    #[test]
    fn invalidate_missing_line_is_none() {
        let mut c = Cache::new(4096, 4);
        assert_eq!(c.invalidate(Addr(0)), None);
    }

    #[test]
    fn victim_address_reconstruction() {
        // Many sets: ensure the evicted address is reconstructed exactly.
        let mut c = Cache::new(1 << 16, 2); // 512 sets
        let a = Addr(0xABC00);
        c.fill(a, true);
        // Collide twice in the same set: line numbers differing by num_sets.
        let num_sets = 512u64;
        let b = Addr(a.0 + num_sets * 64);
        let d = Addr(a.0 + 2 * num_sets * 64);
        c.fill(b, false);
        let ev = c.fill(d, false).expect("overflow");
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
    }

    #[test]
    fn drain_dirty_returns_only_dirty() {
        let mut c = Cache::new(4096, 4);
        c.fill(Addr(0), true);
        c.fill(Addr(64), false);
        c.fill(Addr(128), true);
        let mut d = c.drain_dirty();
        d.sort();
        assert_eq!(d, vec![Addr(0), Addr(128)]);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_stats_or_lru() {
        let mut c = Cache::new(2 * 64, 1);
        c.fill(Addr(0), false);
        assert!(c.peek(Addr(0)));
        assert!(!c.peek(Addr(64)));
        assert_eq!(c.counters(), HitMiss::new());
    }

    #[test]
    fn live_counter_tracks_fills_evictions_and_invalidations() {
        // Exercise every transition that touches occupancy and check that
        // the O(1) counter agrees with a slot-by-slot census throughout.
        let mut c = Cache::new(8 * 64, 2); // 4 sets x 2 ways
        let census = |c: &Cache| {
            let mut n = 0;
            for line in 0..64u64 {
                if c.peek(Addr(line * 64)) {
                    n += 1;
                }
            }
            n
        };
        assert!(c.is_empty());
        for i in 0..16u64 {
            c.fill(Addr(i * 64), i % 3 == 0);
            assert_eq!(c.len(), census(&c), "after fill {i}");
        }
        assert_eq!(c.len(), 8, "evictions keep occupancy at capacity");
        c.fill(Addr(0), false); // conflict fill: evicts line 8, takes its slot
        assert_eq!(c.len(), census(&c));
        c.fill(Addr(0), true); // refill of a resident line: no change
        assert_eq!(c.len(), census(&c));
        c.invalidate(Addr(0));
        for i in 8..16u64 {
            c.invalidate(Addr(i * 64));
            assert_eq!(c.len(), census(&c), "after invalidate {i}");
        }
        assert!(c.is_empty(), "all residents invalidated");
        c.fill(Addr(0), true);
        c.drain_dirty();
        assert!(c.is_empty());
        c.fill(Addr(64), true);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(census(&c), 0);
    }

    #[test]
    fn capacity_behaviour_working_set_sweep() {
        // A working set within capacity hits steadily; beyond capacity with
        // LRU and a sequential scan, it thrashes.
        let mut c = Cache::new(64 * 64, 8);
        // In-capacity: 32 lines.
        for _ in 0..3 {
            for i in 0..32u64 {
                if !c.access(Addr(i * 64), false) {
                    c.fill(Addr(i * 64), false);
                }
            }
        }
        assert_eq!(c.counters().hits, 64, "two warm passes fully hit");
        // Over-capacity sequential scan: every access misses.
        let mut c = Cache::new(64 * 64, 8);
        for _ in 0..3 {
            for i in 0..128u64 {
                if !c.access(Addr(i * 64), false) {
                    c.fill(Addr(i * 64), false);
                }
            }
        }
        let hm = c.counters();
        assert_eq!(
            hm.hits, 0,
            "sequential over-capacity scan never hits with LRU"
        );
        assert_eq!(hm.misses, 384);
    }

    #[test]
    fn refill_semantics_after_eviction_churn() {
        // An LRU victim identified by timestamp, not slot position: churn a
        // set through evictions and check residency plus victim identity.
        let mut c = Cache::new(2 * 64, 2); // 1 set, 2 ways
        c.fill(Addr(0), false); // tick 1
        c.fill(Addr(64), false); // tick 2
        let ev = c.fill(Addr(128), true).expect("evicts line 0 (LRU)");
        assert_eq!(ev.addr, Addr(0));
        c.access(Addr(64), false); // refresh 64 past 128
        let ev = c.fill(Addr(192), false).expect("now 128 is LRU");
        assert_eq!(ev.addr, Addr(128));
        assert!(ev.dirty, "dirtiness rides with the victim");
        assert!(c.peek(Addr(64)) && c.peek(Addr(192)));
        assert_eq!(c.len(), 2);
    }
}
