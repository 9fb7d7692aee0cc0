//! `AddrMap`: the simulator's per-address state container.
//!
//! Every piece of per-cacheline or per-page timing state (in-flight
//! fills and persists, recent flushes, the unpersisted overlay, the page
//! index of a sparse image) is looked up on every simulated access, so it
//! needs O(1) point operations. A hash map gives that, but a `HashMap`
//! with the default hasher iterates in an order drawn fresh in every
//! process, which the determinism contract (DESIGN.md §12) forbids in sim
//! state.
//!
//! `AddrMap` is deterministic by construction:
//!
//! - its hasher is fixed (`AddrHasher`): no per-process keys, so even
//!   the internal layout is the same in every run;
//! - its API has no unordered iteration at all. Point operations,
//!   `retain` and `clear` give the same result in any visiting order;
//!   every way to *read* the whole map ([`AddrMap::sorted_keys`],
//!   [`AddrMap::sorted_entries`], `Debug`) returns entries in ascending
//!   key order.
//!
//! Keys are addresses or page numbers, never input crafted to collide,
//! so the fixed hasher gives up no protection that matters here.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fibonacci hash (2^64 / golden ratio, odd).
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed hasher for `u64` address keys.
///
/// Cacheline keys are multiples of 64 and page keys are dense small
/// integers, so the raw key is a poor hash: its low bits, which pick the
/// bucket, are constant or clustered. A Fibonacci multiply spreads every
/// key bit into the high half, and folding the high half back down
/// (`h ^ (h >> 32)`) puts that entropy into the low bits as well.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(FIB_MULT);
        self.0 = h ^ (h >> 32);
    }

    /// Byte-stream fallback; `u64` keys always take `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

// simlint::allow(unordered-state, fixed hasher; no unordered iteration escapes)
type Table<V> = std::collections::HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// A map from `u64` addresses (or page numbers) to `V` with O(1) point
/// operations and no process-dependent behaviour. See the module docs.
#[derive(Clone)]
pub struct AddrMap<V> {
    map: Table<V>,
}

impl<V> Default for AddrMap<V> {
    fn default() -> Self {
        AddrMap {
            map: Table::default(),
        }
    }
}

impl<V> AddrMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Returns the value stored under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.map.get(&key)
    }

    /// Stores `value` under `key`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.map.insert(key, value)
    }

    /// Removes and returns the value stored under `key`.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.map.remove(&key)
    }

    /// Returns the value under `key`, first inserting `init()` if absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, init: impl FnOnce() -> V) -> &mut V {
        self.map.entry(key).or_insert_with(init)
    }

    /// Keeps only the entries for which `keep` returns `true`. The
    /// predicate sees each entry once, in no particular order, so it must
    /// depend on that entry alone.
    pub fn retain(&mut self, keep: impl Fn(u64, &V) -> bool) {
        self.map.retain(|&k, v| keep(k, v));
    }

    /// Every key, in ascending order.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Every entry, in ascending key order.
    pub fn sorted_entries(&self) -> Vec<(u64, &V)> {
        let mut entries: Vec<(u64, &V)> = self.map.iter().map(|(&k, v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }
}

impl<V: fmt::Debug> fmt::Debug for AddrMap<V> {
    /// Prints the entries in ascending key order, like a `BTreeMap`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.sorted_entries()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    // Map behaviour against a `BTreeMap` model is the property test in
    // `tests/props.rs`; this pins the hasher itself.
    #[test]
    fn hasher_is_fixed_and_spreads_cacheline_keys() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        let hash = |k: u64| build.hash_one(k);
        // Fixed: a pinned value, identical in every process.
        let h = 64u64.wrapping_mul(FIB_MULT);
        assert_eq!(hash(64), h ^ (h >> 32));
        // Spread: 1024 consecutive cacheline keys land in at least half of
        // 1024 low-bit buckets (uniform hashing would fill ~63 %), where
        // the raw keys would all share bucket 0.
        let mut buckets: Vec<u64> = (0..1024u64).map(|i| hash(i * 64) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(buckets.len() >= 512, "only {} buckets used", buckets.len());
    }
}
