//! Hardware prefetcher models.
//!
//! Intel server CPUs expose three relevant prefetchers, individually
//! switchable via BIOS (as the paper does in §3.4):
//!
//! - the **DCU streamer** (L1): follows ascending access runs and fetches
//!   the next line, triggering on hits as well as misses — the most
//!   aggressive of the three and the one with the highest misprefetch cost
//!   in Figure 6(d);
//! - the **adjacent-cacheline prefetcher** (L2): fetches the other half of
//!   a 128-byte aligned pair on a demand miss, with an aggressive
//!   sector-continuation behaviour across pair boundaries — Figure 6(c);
//! - the **L2 hardware stream prefetcher**: trains on two consecutive
//!   ascending misses within a 4 KB page and then prefetches a small depth
//!   ahead — the mildest, Figure 6(b).
//!
//! The *shapes* in Figure 6 (where the iMC and media read ratios diverge
//! and at which working-set sizes) emerge from the cache/buffer
//! interaction; the per-prefetcher *aggressiveness* — how often a prefetch
//! runs past a 256 B block boundary — is calibrated with deterministic
//! trigger gates so the three panels land in the paper's relative order
//! (DCU > adjacent > stream). The gates are documented model knobs, not
//! claims about the real microarchitecture.

use simbase::{Addr, CACHELINE_BYTES};

/// Which prefetchers are enabled (the paper's BIOS switches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// L1 DCU streamer.
    pub dcu_streamer: bool,
    /// L2 adjacent ("buddy") cacheline prefetcher.
    pub adjacent_line: bool,
    /// L2 hardware stream prefetcher.
    pub l2_stream: bool,
}

impl PrefetchConfig {
    /// All prefetchers disabled (Figure 6 (a)/(e)).
    pub fn none() -> Self {
        Self::default()
    }

    /// All prefetchers enabled (the default BIOS configuration).
    pub fn all() -> Self {
        PrefetchConfig {
            dcu_streamer: true,
            adjacent_line: true,
            l2_stream: true,
        }
    }

    /// Only the DCU streamer.
    pub fn dcu_only() -> Self {
        PrefetchConfig {
            dcu_streamer: true,
            ..Self::default()
        }
    }

    /// Only the adjacent-line prefetcher.
    pub fn adjacent_only() -> Self {
        PrefetchConfig {
            adjacent_line: true,
            ..Self::default()
        }
    }

    /// Only the L2 stream prefetcher.
    pub fn stream_only() -> Self {
        PrefetchConfig {
            l2_stream: true,
            ..Self::default()
        }
    }
}

/// Fraction of sector-continuation opportunities the adjacent-line
/// prefetcher takes (fires on `ADJ_GATE_NUM` out of `ADJ_GATE_DEN`).
const ADJ_GATE_NUM: u64 = 4;
const ADJ_GATE_DEN: u64 = 5;

/// Fraction of trained streams on which the L2 streamer extends its depth
/// past the trained run (1 out of `STREAM_GATE_DEN`).
const STREAM_GATE_DEN: u64 = 3;

/// Lines per 4 KB page, the L2 streamer's training scope.
const LINES_PER_PAGE: u64 = 4096 / CACHELINE_BYTES;

/// Capacity of [`SuggestionList`]: one demand access can suggest at most
/// one DCU line, an adjacent buddy plus one sector continuation, and up
/// to three stream lines — six, rounded up for headroom.
const MAX_SUGGESTIONS: usize = 8;

/// A fixed-capacity list of prefetch target addresses.
///
/// Demand accesses are the simulator's hottest path, and most of them
/// carry at least one prefetch suggestion; an inline array keeps the
/// suggest-then-filter step free of heap traffic. Dereferences to
/// `[Addr]`, so call sites treat it like a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuggestionList {
    items: [Addr; MAX_SUGGESTIONS],
    len: u8,
}

impl Default for SuggestionList {
    fn default() -> Self {
        SuggestionList {
            items: [Addr(0); MAX_SUGGESTIONS],
            len: 0,
        }
    }
}

impl SuggestionList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an address.
    ///
    /// # Panics
    ///
    /// Panics if the list is full; [`MAX_SUGGESTIONS`] bounds the number
    /// of suggestions a single access can produce, so a full list means a
    /// prefetcher model grew past that bound without raising it.
    #[inline]
    pub fn push(&mut self, a: Addr) {
        assert!(
            (self.len as usize) < MAX_SUGGESTIONS,
            "suggestion list capacity exceeded"
        );
        self.items[self.len as usize] = a;
        self.len += 1;
    }

    /// Returns the suggestions as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Addr] {
        &self.items[..self.len as usize]
    }
}

impl std::ops::Deref for SuggestionList {
    type Target = [Addr];

    #[inline]
    fn deref(&self) -> &[Addr] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SuggestionList {
    type Item = &'a Addr;
    type IntoIter = std::slice::Iter<'a, Addr>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Per-prefetcher issue counters: how many prefetch suggestions each of
/// the three BIOS-switchable prefetchers produced.
///
/// The paper's §3.4 attributes on-DIMM prefetch traffic entirely to the CPU
/// prefetchers; separating the three lets simwatch show which engine drives
/// the iMC read traffic of each Figure 6 panel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Lines suggested by the L1 DCU streamer.
    pub dcu: u64,
    /// Lines suggested by the L2 adjacent-line prefetcher (buddy fetches
    /// plus sector continuations).
    pub adjacent: u64,
    /// Lines suggested by the L2 hardware stream prefetcher.
    pub stream: u64,
}

impl PrefetcherStats {
    /// Returns the total suggestions across all three prefetchers.
    pub fn total(&self) -> u64 {
        self.dcu + self.adjacent + self.stream
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &PrefetcherStats) {
        self.dcu += other.dcu;
        self.adjacent += other.adjacent;
        self.stream += other.stream;
    }
}

/// Per-core prefetcher state.
#[derive(Debug, Clone)]
pub struct Prefetchers {
    config: PrefetchConfig,
    /// Last demand-accessed line number (DCU run detection).
    last_line: Option<u64>,
    /// Length of the current ascending run, including the latest access.
    run_len: u32,
    /// Last line number that missed L2 (stream training).
    last_miss_line: Option<u64>,
    adj_gate: u64,
    stream_gate: u64,
    issued: PrefetcherStats,
}

impl Prefetchers {
    /// Creates prefetcher state for one core.
    pub fn new(config: PrefetchConfig) -> Self {
        Prefetchers {
            config,
            last_line: None,
            run_len: 0,
            last_miss_line: None,
            adj_gate: 0,
            stream_gate: 0,
            issued: PrefetcherStats::default(),
        }
    }

    /// Returns the active configuration.
    pub fn config(&self) -> PrefetchConfig {
        self.config
    }

    /// Observes one demand access and returns suggested prefetch targets
    /// (cacheline-aligned). `l2_miss` is `true` when the access missed both
    /// private levels.
    ///
    /// The caller is responsible for dropping suggestions that are already
    /// resident or in flight.
    pub fn on_demand_access(&mut self, addr: Addr, l2_miss: bool) -> SuggestionList {
        let line = addr.cacheline().0 / CACHELINE_BYTES;
        let ascending = self.last_line == Some(line.wrapping_sub(1));
        self.run_len = if ascending { self.run_len + 1 } else { 1 };
        let mut out = SuggestionList::new();

        if self.config.dcu_streamer && ascending {
            // DCU streamer: follow any ascending run, one line ahead,
            // triggering on hits too.
            out.push(Addr((line + 1) * CACHELINE_BYTES));
            self.issued.dcu += 1;
        }

        if self.config.adjacent_line {
            if l2_miss {
                // Fetch the 128 B buddy of the missing line.
                out.push(Addr((line ^ 1) * CACHELINE_BYTES));
                self.issued.adjacent += 1;
            }
            // Sector continuation: after a fully traversed ascending run
            // reaching the last line of a 256 B sector, cross into the next
            // sector on most (ADJ_GATE_NUM/ADJ_GATE_DEN) opportunities.
            if self.run_len >= 3 && line % 4 == 3 {
                self.adj_gate += 1;
                if self.adj_gate % ADJ_GATE_DEN < ADJ_GATE_NUM {
                    out.push(Addr((line + 1) * CACHELINE_BYTES));
                    self.issued.adjacent += 1;
                }
            }
        }

        if self.config.l2_stream && l2_miss {
            let same_page = self
                .last_miss_line
                .is_some_and(|l| l / LINES_PER_PAGE == line / LINES_PER_PAGE);
            if same_page && line > 0 && self.last_miss_line == Some(line - 1) {
                // Trained: prefetch two ahead, occasionally three.
                out.push(Addr((line + 1) * CACHELINE_BYTES));
                out.push(Addr((line + 2) * CACHELINE_BYTES));
                self.issued.stream += 2;
                self.stream_gate += 1;
                if self.stream_gate.is_multiple_of(STREAM_GATE_DEN) {
                    out.push(Addr((line + 3) * CACHELINE_BYTES));
                    self.issued.stream += 1;
                }
            }
            self.last_miss_line = Some(line);
        }

        self.last_line = Some(line);
        out
    }

    /// Returns `true` if the last demand access observed was to `addr`'s
    /// line. Repeating it on a hit then suggests nothing: the access is
    /// not ascending, so the run restarts at one and neither the DCU
    /// streamer nor the sector continuation fires, and the buddy fetch
    /// and the L2 streamer act on misses only.
    #[inline]
    pub(crate) fn last_saw(&self, addr: Addr) -> bool {
        self.last_line == Some(addr.cacheline().0 / CACHELINE_BYTES)
    }

    /// Returns per-prefetcher issue counters.
    pub fn stats(&self) -> PrefetcherStats {
        self.issued
    }

    /// Returns the number of prefetch suggestions issued so far, summed
    /// over the three prefetchers.
    pub fn issued(&self) -> u64 {
        self.issued.total()
    }

    /// Clears the issue counters (keeps configuration, history, and gate
    /// phases).
    pub fn reset_stats(&mut self) {
        self.issued = PrefetcherStats::default();
    }

    /// Clears history (keeps configuration and gate phases).
    pub fn reset_history(&mut self) {
        self.last_line = None;
        self.run_len = 0;
        self.last_miss_line = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(suggestions: &[Addr]) -> Vec<u64> {
        suggestions.iter().map(|a| a.0 / CACHELINE_BYTES).collect()
    }

    #[test]
    fn disabled_prefetchers_stay_silent() {
        let mut p = Prefetchers::new(PrefetchConfig::none());
        for i in 0..16u64 {
            assert!(p.on_demand_access(Addr(i * 64), true).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn dcu_follows_ascending_runs() {
        let mut p = Prefetchers::new(PrefetchConfig::dcu_only());
        assert!(p.on_demand_access(Addr(0), false).is_empty());
        assert_eq!(lines(&p.on_demand_access(Addr(64), false)), vec![2]);
        assert_eq!(lines(&p.on_demand_access(Addr(128), false)), vec![3]);
        // A jump breaks the run.
        assert!(p.on_demand_access(Addr(1024), false).is_empty());
    }

    #[test]
    fn dcu_triggers_on_hits_too() {
        let mut p = Prefetchers::new(PrefetchConfig::dcu_only());
        p.on_demand_access(Addr(0), false);
        let s = p.on_demand_access(Addr(64), false); // hit: l2_miss = false
        assert_eq!(lines(&s), vec![2]);
    }

    #[test]
    fn adjacent_fetches_buddy_on_miss() {
        let mut p = Prefetchers::new(PrefetchConfig::adjacent_only());
        let s = p.on_demand_access(Addr(0), true);
        assert_eq!(lines(&s), vec![1]);
        // Odd line's buddy is the even line.
        p.reset_history();
        let s = p.on_demand_access(Addr(64), true);
        assert_eq!(lines(&s), vec![0]);
        // No suggestion without a miss.
        let s = p.on_demand_access(Addr(256), false);
        assert!(s.is_empty());
    }

    #[test]
    fn adjacent_sector_continuation_crosses_boundary_most_of_the_time() {
        let mut p = Prefetchers::new(PrefetchConfig::adjacent_only());
        let mut crossings = 0;
        let trials = 100;
        for block in 0..trials {
            let base = block * 256;
            for cl in 0..4u64 {
                let s = p.on_demand_access(Addr(base + cl * 64), cl % 2 == 0);
                if s.iter().any(|a| a.0 == base + 256) {
                    crossings += 1;
                }
            }
        }
        assert_eq!(crossings, trials * ADJ_GATE_NUM / ADJ_GATE_DEN);
    }

    #[test]
    fn stream_requires_training() {
        let mut p = Prefetchers::new(PrefetchConfig::stream_only());
        assert!(p.on_demand_access(Addr(0), true).is_empty());
        let s = p.on_demand_access(Addr(64), true);
        assert!(lines(&s).contains(&2));
        assert!(lines(&s).contains(&3));
    }

    #[test]
    fn stream_does_not_train_across_pages() {
        let mut p = Prefetchers::new(PrefetchConfig::stream_only());
        // Last line of page 0, first line of page 1: consecutive lines but
        // different pages.
        p.on_demand_access(Addr(4096 - 64), true);
        let s = p.on_demand_access(Addr(4096), true);
        assert!(s.is_empty(), "training is per 4 KB page");
    }

    #[test]
    fn stream_occasionally_extends_depth() {
        let mut p = Prefetchers::new(PrefetchConfig::stream_only());
        let mut deep = 0;
        let trials = 30;
        for t in 0..trials {
            // Place each trained pair in its own page.
            let base = t * 4096;
            p.on_demand_access(Addr(base), true);
            let s = p.on_demand_access(Addr(base + 64), true);
            if s.len() == 3 {
                deep += 1;
            }
        }
        assert_eq!(deep as u64, trials / STREAM_GATE_DEN);
    }

    #[test]
    fn a_repeated_hit_suggests_nothing() {
        let mut p = Prefetchers::new(PrefetchConfig::all());
        for i in 0..8u64 {
            p.on_demand_access(Addr(i * 64), true);
        }
        assert!(p.last_saw(Addr(7 * 64 + 8)));
        assert!(!p.last_saw(Addr(6 * 64)));
        let before = p.stats();
        assert!(p.on_demand_access(Addr(7 * 64), false).is_empty());
        assert!(p.on_demand_access(Addr(7 * 64), false).is_empty());
        assert_eq!(p.stats(), before);
    }

    #[test]
    fn combined_config_merges_suggestions() {
        let mut p = Prefetchers::new(PrefetchConfig::all());
        p.on_demand_access(Addr(0), true);
        let s = p.on_demand_access(Addr(64), true);
        let l = lines(&s);
        assert!(l.contains(&2), "dcu/stream ahead");
        assert!(l.contains(&0), "adjacent buddy");
    }

    #[test]
    fn per_prefetcher_counters_attribute_every_suggestion() {
        let mut p = Prefetchers::new(PrefetchConfig::all());
        let mut total = 0u64;
        for i in 0..64u64 {
            total += p.on_demand_access(Addr(i * 64), i % 2 == 0).len() as u64;
        }
        let s = p.stats();
        assert_eq!(s.total(), total, "counters account for every push");
        assert_eq!(p.issued(), total);
        assert!(s.dcu > 0, "ascending run drives the DCU streamer");
        assert!(s.adjacent > 0, "misses drive the buddy fetch");

        p.reset_stats();
        assert_eq!(p.stats(), PrefetcherStats::default());
    }
}
