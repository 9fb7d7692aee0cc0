//! Statistics, report format and comparison rules of `pmbench`.
//!
//! This library holds everything in the benchmark that needs unit tests
//! and uses only the standard library; the `pmbench` binary (workloads,
//! timing probes, child processes) and `pmbench-cmp` (paired comparison)
//! build on it.

#![forbid(unsafe_code)]

pub mod json;
pub mod manifest;
pub mod pairs;
pub mod report;
pub mod stats;
