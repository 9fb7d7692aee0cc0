//! Experiment harness: one module per paper figure/table.
//!
//! Every module exposes a `Params` struct (scaled-down defaults that run
//! in seconds) and a `run` function returning a structured
//! [`common::ExpResult`]. The `repro` binary prints the paper's rows and
//! writes CSVs; workspace integration tests assert each claim's *shape*
//! (step positions, orderings, crossovers) against these results.
//! [`registry::REGISTRY`] names each one and wires it into `repro`, the
//! job matrix, and the divergence witness.
//!
//! | module | paper reference | claim |
//! |---|---|---|
//! | [`e0_bandwidth`] | §2.2 known characteristics | substrate validation |
//! | [`e1_read_buffer`] | Figure 2, §3.1 | C1 |
//! | [`e2_prefetch`] | Figure 6, §3.4 | C2 |
//! | [`e3_write_amp`] | Figure 3, §3.2 | C3 |
//! | [`e4_wb_hit`] | Figure 4, §3.2 | C4 |
//! | [`e5_rap`] | Figure 7, §3.5 | C5 |
//! | [`e6_latency`] | Figure 8, §3.6 | C6 |
//! | [`table1`] | Table 1, §4.1 | — |
//! | [`e7_cceh`] | Figure 10, §4.1 | C7 |
//! | [`e8_btree`] | Figure 12, §4.2 | C8 |
//! | [`e9_redirect`] | Figures 13–14, §4.3 | C9 |
//! | [`ext_mixes`] | extension (§6 takeaway) | — |
//! | [`e10_pmcheck`] | extension: persist-ordering lint | — |
//! | [`e11_faultsim`] | extension: fault injection + crash-state exploration | — |
//! | [`e12_cluster`] | extension: fault-tolerant sharded cluster under load | — |
//! | [`e13_rebalance`] | extension: crash-safe keyspace migration + anti-entropy | — |
//! | [`e14_simspeed`] | extension: deterministic simulator-throughput benchmark | — |
//! | [`e15_mt`] | extension: multi-thread contention on the deterministic executor | — |
//! | [`ablations`] | model knobs toggled, directions asserted | — |

#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod divergence;
pub mod e0_bandwidth;
pub mod e10_pmcheck;
pub mod e11_faultsim;
pub mod e12_cluster;
pub mod e13_rebalance;
pub mod e14_simspeed;
pub mod e15_mt;
pub mod e1_read_buffer;
pub mod e2_prefetch;
pub mod e3_write_amp;
pub mod e4_wb_hit;
pub mod e5_rap;
pub mod e6_latency;
pub mod e7_cceh;
pub mod e8_btree;
pub mod e9_redirect;
pub mod ext_mixes;
pub mod jobs;
pub mod registry;
pub mod table1;

pub use common::{Curve, ExpResult};
