//! Address indirection table (AIT) cache.
//!
//! Optane DIMMs remap XPLine addresses through an on-media indirection table
//! for wear levelling. The DIMM controller caches recently used AIT entries;
//! prior work (LENS, §3.6 of the paper) locates the capacity of that cache
//! at roughly 16 MB of address coverage. Accesses outside the cached
//! coverage pay an extra media lookup, producing the sharp latency increase
//! the paper observes when the working set exceeds 16 MB.
//!
//! The cache is modelled as a [`SetAssoc`] table over fixed-size address
//! granules: set-associative, with per-set LRU replacement, and filled on
//! every miss. `coverage / 4 KB / ways` sets (at least one), so the
//! default 16 MB, 16-way cache has 256 sets.

use simbase::{Addr, HitMiss, SetAssoc};

/// Bytes of address space covered by one AIT entry.
pub const AIT_GRANULE_BYTES: u64 = 4096;

/// Set-associative AIT tag cache.
#[derive(Debug, Clone)]
pub struct AitCache {
    table: SetAssoc,
}

impl AitCache {
    /// Creates a cache covering `coverage_bytes` of address space with the
    /// given associativity. A coverage smaller than one set still gets
    /// one set.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not in `1..=24`.
    pub fn new(coverage_bytes: u64, ways: usize) -> Self {
        let entries = (coverage_bytes / AIT_GRANULE_BYTES).max(1);
        assert!(ways > 0, "AIT associativity must be positive");
        AitCache {
            table: SetAssoc::new((entries / ways as u64).max(1), ways),
        }
    }

    /// Looks up the AIT entry covering `addr`, inserting it on a miss.
    ///
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: Addr) -> bool {
        let granule = addr.0 / AIT_GRANULE_BYTES;
        if self.table.access(granule, false) {
            return true;
        }
        self.table.fill(granule, false);
        false
    }

    /// Returns the hit/miss counters observed so far.
    pub fn counters(&self) -> HitMiss {
        self.table.counters()
    }

    /// Clears statistics only; cached entries (and their LRU ordering)
    /// stay warm.
    pub fn reset_stats(&mut self) {
        self.table.reset_stats();
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.table.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits() {
        let mut ait = AitCache::new(16 << 20, 16);
        assert!(!ait.access(Addr(0)));
        assert!(ait.access(Addr(0)));
        assert!(ait.access(Addr(100))); // same granule
        assert_eq!(ait.counters(), HitMiss::of(2, 1));
    }

    #[test]
    fn working_set_within_coverage_hits_steadily() {
        let coverage = 1 << 20; // 1 MB for a fast test
        let mut ait = AitCache::new(coverage, 16);
        let wss = coverage / 2;
        // Warm up.
        for a in (0..wss).step_by(AIT_GRANULE_BYTES as usize) {
            ait.access(Addr(a));
        }
        let misses_before = ait.counters().misses;
        // Second pass should be all hits.
        for a in (0..wss).step_by(AIT_GRANULE_BYTES as usize) {
            assert!(ait.access(Addr(a)));
        }
        let misses_after = ait.counters().misses;
        assert_eq!(misses_before, misses_after);
    }

    #[test]
    fn working_set_beyond_coverage_thrashes() {
        let coverage = 1 << 20;
        let mut ait = AitCache::new(coverage, 16);
        let wss = coverage * 4;
        // Two sequential passes over 4x the coverage: LRU within each set
        // evicts entries before reuse, so the second pass keeps missing.
        for _ in 0..2 {
            for a in (0..wss).step_by(AIT_GRANULE_BYTES as usize) {
                ait.access(Addr(a));
            }
        }
        let HitMiss { hits, misses } = ait.counters();
        assert!(
            misses > hits * 10,
            "expected thrashing, got hits={hits} misses={misses}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut ait = AitCache::new(1 << 20, 8);
        ait.access(Addr(0));
        ait.reset();
        assert_eq!(ait.counters(), HitMiss::new());
        assert!(!ait.access(Addr(0)));
    }
}
