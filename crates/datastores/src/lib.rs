//! Persistent data structures used in the paper's case studies (§4).
//!
//! - [`cceh`]: Cacheline-Conscious Extendible Hashing (Nam et al., FAST
//!   '19), the subject of the helper-thread prefetching case study (§4.1,
//!   Table 1, Figure 10), including the speculative load-only prefetch
//!   trace.
//! - [`fastfair`]: the FAST & FAIR B+-tree (Hwang et al., FAST '18) with
//!   two insertion strategies — the paper's baseline (in-place key shifting
//!   with a persistence barrier per shift) and the out-of-place redo-log
//!   optimization (§4.2, Figure 12).
//! - [`chase`]: the 256-byte-element circular linked list that drives the
//!   latency study of §3.6 (Figure 8).
//! - [`treiber`] / [`msqueue`]: lock-free persistent stack and queue with
//!   Memento-style detectable recovery. Each supplies only its root
//!   layout, its phases and its link logic; [`detect`] holds what both
//!   share: the per-lane [`detect::Descriptor`] (a detectable checkpoint
//!   and a detectable CAS), the node layout, the chain walk, and the one
//!   [`Lane`] handle whose `step` and `recover` drive either structure.
//!   The deterministic executor drives them concurrently in the e15
//!   contention sweep, and the faultsim crash explorer cuts them at
//!   arbitrary interleaving points.
//!
//! All structures are written against [`pmem::PmemEnv`], so they run both
//! on the simulator (timed, crash-aware) and on plain host memory for
//! differential testing.

#![forbid(unsafe_code)]
// The determinism/robustness contract (DESIGN.md) double-enforces the
// simlint no-unwrap rule with stock tooling in the sim crates; tests are
// exempt via clippy.toml (allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cceh;
pub mod chase;
pub mod detect;
pub mod fastfair;
pub mod msqueue;
pub mod treiber;

pub use cceh::{Cceh, InsertBreakdown};
pub use chase::{ChaseList, WriteKind};
pub use detect::{Detectable, Lane, OpKind, OpResult, RecoveryOutcome, EMPTY_RESULT};
pub use fastfair::{FastFair, UpdateStrategy};
pub use msqueue::MsQueue;
pub use treiber::TreiberStack;
