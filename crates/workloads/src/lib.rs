//! Workload generation: deterministic key streams and access patterns.
//!
//! The paper drives its case studies with YCSB ([4] in the paper): 16
//! million 16-byte key-value inserts, plus read mixes. [`ycsb`] reproduces
//! the key-generation essence (uniform, zipfian, and latest distributions,
//! deterministic under a seed); [`patterns`] generates the microbenchmark
//! access sequences of §3 (strided reads, random 256 B blocks, shuffled
//! pointer-chase orders).

#![forbid(unsafe_code)]

pub mod patterns;
pub mod ycsb;

pub use patterns::{random_block_sequence, ring_order, strided_sequence, AccessOrder};
pub use ycsb::{KeyDistribution, OpKind, OpMix, WorkloadError, YcsbGenerator};
