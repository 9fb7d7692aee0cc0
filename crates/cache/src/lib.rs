//! CPU cache hierarchy and hardware prefetchers.
//!
//! The paper repeatedly shows that Optane-visible behaviour cannot be
//! understood without modelling the CPU side: the on-DIMM read buffer is
//! exclusive with the caches (§3.1), on-DIMM prefetching is entirely driven
//! by CPU prefetchers (§3.4), and the G1→G2 `clwb` change (invalidate vs.
//! retain) flips the read-after-persist behaviour of Figure 7.
//!
//! This crate models:
//!
//! - set-associative, write-back, write-allocate L1d and L2 caches per core
//!   and a shared victim-style L3 ([`system::CacheSystem`], each level a
//!   [`simbase::SetAssoc`] table of line numbers);
//! - the three Intel prefetchers the paper toggles through BIOS
//!   ([`prefetch`]): the DCU streamer (L1), the adjacent-cacheline
//!   prefetcher (L2), and the L2 hardware stream prefetcher;
//! - flush semantics: `clflushopt` (invalidate), G1 `clwb` (write back and
//!   invalidate, like the paper observes on Cascade Lake), and G2 `clwb`
//!   (write back, retain line).
//!
//! Caches hold only metadata (tags, dirty bits); functional bytes live in
//! the machine-level stores. Timing is returned to the machine layer, which
//! owns the clocks.

#![forbid(unsafe_code)]
// The determinism/robustness contract (DESIGN.md) double-enforces the
// simlint no-unwrap rule with stock tooling in the sim crates; tests are
// exempt via clippy.toml (allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod prefetch;
pub mod system;

pub use prefetch::{PrefetchConfig, PrefetcherStats, Prefetchers, SuggestionList};
pub use system::{
    AccessResult, CacheHierarchyStats, CacheLevelStats, CacheParams, CacheSystem, FlushMode,
    HitLevel,
};
