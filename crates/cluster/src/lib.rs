//! Fault-tolerant sharded PM cluster on simulated machines.
//!
//! This crate scales the single-[`Machine`](optane_core::Machine)
//! simulation out to a service: N shards (alternating G1/G2 DIMM
//! generations) behind a router, serving an open-loop zipfian client
//! stream over a deterministic simulated network. The robustness
//! machinery is the point:
//!
//! - per-request deadlines with seeded-jitter exponential-backoff
//!   retries ([`RetryPolicy`]) and hedged reads,
//! - per-shard circuit breakers with half-open probing
//!   ([`CircuitBreaker`]),
//! - router admission control: bounded per-shard queues with typed
//!   overload rejections,
//! - graceful degradation to a DRAM front-cache ([`FrontCache`]) while
//!   a shard is down,
//! - cluster-level fault plans ([`ClusterFaultPlan`]): a shard
//!   power-fails mid-traffic and recovers through the crash-image +
//!   checkpoint path while the network drops/delays/reorders messages,
//! - epoch-fenced replicated routing ([`RoutingTable`]): keyslices with
//!   replica sets, quorum-acked writes, read rotation, and typed
//!   `StaleEpoch` rejection so a retired owner can never ack,
//! - crash-safe keyspace migration ([`MigrationPlan`]): the persisted
//!   `Prepare -> Copy -> CatchUp -> Flip -> Retire` state machine with
//!   power-fail drills at every phase boundary (`repro rebalance`),
//! - idempotent retries: puts carry req-ids into a per-shard dedup
//!   window that survives recovery via log replay,
//! - anti-entropy repair: per-slice FNV checksums compared across
//!   replicas on a sim-clock cadence, divergence read-repaired from
//!   the per-key maximum.
//!
//! Everything is deterministic per seed: same parameters, same seed,
//! byte-identical [`ClusterReport`] — the crate is under the simlint
//! determinism contract and the dual-process divergence witness
//! (`repro divergence cluster`).
//!
//! The correctness invariant the whole stack hangs on: a Put is only
//! acknowledged after `store_full_cacheline` + `clwb` + `sfence`
//! completes on the shard, so an acked record is inside the ADR domain
//! of any crash image captured later — zero acknowledged-write loss
//! across any seeded fault schedule (see `tests/failover_props.rs`).

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod breaker;
pub mod cache;
pub mod fault;
pub mod metrics;
pub mod migrate;
pub mod net;
pub mod replica;
pub mod retry;
pub mod shard;
pub mod sim;
pub mod workload;

pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use cache::FrontCache;
pub use fault::{ClusterFaultPlan, MigrationFail, MigrationFailTarget, NetDegrade, ShardPowerFail};
pub use metrics::{cluster_registry, percentile, GLOBAL_COLUMNS, PER_SHARD_COLUMNS};
pub use migrate::{ControlKind, MigrationPhase, MigrationPlan, MigrationReport};
pub use net::{DegradeParams, NetParams, NetSim, NetStats};
pub use replica::{fnv1a, ReplicationParams, RoutingTable, SliceId, FNV_OFFSET};
pub use retry::{RetryPolicy, Ticks};
pub use shard::{
    decode_slot, LogRecord, RecoveryOutcome, RouteMeta, ShardConfig, ShardError, ShardOp,
    ShardReply, ShardServer, DEDUP_WINDOW, RECORD_BYTES,
};
pub use sim::{
    run, shard_generation, ClusterError, ClusterParams, ClusterReport, LatencySummary,
    RecoveryReport,
};
pub use workload::{ClientConfig, ClientGen};
