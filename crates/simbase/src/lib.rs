//! Foundation types for the Optane DCPMM memory-hierarchy simulator.
//!
//! This crate provides the small, dependency-free building blocks shared by
//! every layer of the simulator:
//!
//! - [`addr`]: physical addresses and the cacheline / XPLine geometry that
//!   the whole study revolves around (64 B cachelines vs. 256 B 3D-XPoint
//!   media lines),
//! - [`addrmap`]: [`AddrMap`], the deterministic O(1) container for
//!   per-cacheline and per-page simulator state,
//! - [`clock`]: simulated time in CPU cycles,
//! - [`setassoc`]: [`SetAssoc`], the set-associative LRU table behind
//!   the CPU caches and the on-DIMM AIT cache,
//! - [`rng`]: a deterministic SplitMix64 generator so every experiment is
//!   bit-reproducible,
//! - [`resource`]: server-queue primitives used to model contention on
//!   shared hardware resources (media banks, iMC queues, DRAM channels),
//! - [`stats`]: event and byte counters plus latency aggregation,
//! - [`wire`]: a checked little-endian codec for checkpoint payloads.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod addr;
pub mod addrmap;
pub mod clock;
pub mod resource;
pub mod rng;
pub mod setassoc;
pub mod stats;
pub mod wire;

pub use addr::{Addr, CACHELINES_PER_XPLINE, CACHELINE_BYTES, XPLINE_BYTES};
pub use addrmap::{AddrMap, ADDR_MAP_GC_MIN};
pub use clock::Cycles;
pub use resource::{BandwidthGate, QueueStats, Server, ServerPool};
pub use rng::SplitMix64;
pub use setassoc::{Evicted, SetAssoc};
pub use stats::{ByteCounter, Counter, HitMiss, LatencyStats};
pub use wire::{WireError, WireReader, WireWriter};
