//! The simulated machine: the paper's testbed in software.
//!
//! [`Machine`] assembles the substrate crates — CPU caches and prefetchers
//! ([`cpucache`]), the iMC with its WPQ/DDR-T persist pipeline and the DRAM
//! channel ([`imc`]), the on-DIMM buffers ([`xpdimm`]) and the 3D-XPoint
//! media ([`xpmedia`]) — into a two-socket system running simulated
//! hardware threads.
//!
//! The public surface is the x86 persistence vocabulary the paper's
//! microbenchmarks are written in:
//!
//! | operation | machine method |
//! |---|---|
//! | `mov` (load) | [`Machine::load`] |
//! | `mov` (store, write-allocate) | [`Machine::store`] |
//! | full-line store (no ownership read) | [`Machine::store_full_cacheline`] |
//! | `movnt` | [`Machine::nt_store`] |
//! | `clwb` | [`Machine::clwb`] |
//! | `clflushopt` | [`Machine::clflushopt`] |
//! | `sfence` / `mfence` | [`Machine::sfence`] / [`Machine::mfence`] |
//! | AVX streaming XPLine copy (paper Alg. 2) | [`Machine::copy_xpline_streaming`] |
//!
//! Every operation advances the calling simulated thread's cycle clock by
//! the modelled latency. Functional data is real: loads return the bytes
//! stores wrote, a simulated power failure ([`Machine::power_fail`]) keeps
//! exactly the ADR-protected bytes, and recovery code can then be exercised
//! against the surviving image.
//!
//! # Examples
//!
//! ```
//! use cpucache::PrefetchConfig;
//! use optane_core::{CrashPolicy, Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
//! let t = m.spawn(0);
//! let a = m.alloc_pm(64, 64);
//!
//! m.store_u64(t, a, 42);
//! m.clwb(t, a);
//! m.sfence(t); // durable from here
//!
//! m.power_fail(CrashPolicy::LoseUnflushed);
//! assert_eq!(m.peek_u64(a), 42);
//! assert!(m.now(t) > 0, "operations consumed simulated cycles");
//! ```

#![forbid(unsafe_code)]
// The determinism/robustness contract (DESIGN.md) double-enforces the
// simlint no-unwrap rule with stock tooling in the sim crates; tests are
// exempt via clippy.toml (allow-unwrap-in-tests).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod crash;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod metrics;
pub mod snapshot;
pub mod telemetry;
pub mod trace;
pub mod witness;

pub use config::{Generation, MachineConfig};
pub use crash::CrashImage;
pub use exec::{ExecReport, Interleaver, SchedPolicy, Step, ThreadProgram};
pub use fault::{FaultHooks, FaultStats, PartialDrain, ReadError, ScrubOutcome};
pub use imc::ImcQueueStats;
pub use machine::{CrashPolicy, Machine, MemRegion, ThreadId};
pub use metrics::{
    machine_registry, machine_row, machine_schema_json, MachineMetrics, MachineSampler, MtStats,
};
pub use snapshot::{MachineSnapshot, SnapshotError, ThreadSnapshot};
pub use telemetry::TelemetrySnapshot;
pub use trace::{FenceKind, FlushKind, TraceEvent, TraceSink};
pub use witness::{with_witness, MachineWitness};
