//! Supervised experiment scheduler.
//!
//! `repro all` replays the paper's whole evaluation matrix. As one long
//! sequential script, a single panic, hang, or mid-write crash loses
//! every result after it. This crate turns the matrix into a supervised,
//! resumable job system:
//!
//! - **Jobs.** Each experiment is a [`Job`]: a named, self-contained unit
//!   that produces artifacts and a summary. Jobs are independent and may
//!   run on a worker pool ([`Scheduler`]).
//! - **Isolation.** Every job runs under `catch_unwind`; a panic becomes
//!   a typed [`JobError::Panic`] record, not a dead run.
//! - **Deadlines.** A watchdog enforces a wall-clock deadline per job; a
//!   hung job is abandoned and recorded as [`JobError::Timeout`] while
//!   the rest of the matrix completes.
//! - **One run per job.** Each job runs once, with an RNG seed derived
//!   deterministically from `(base seed, job id)`. Nothing is retried:
//!   the simulator is deterministic, so a failure recurs at the same
//!   seed.
//! - **Resume.** The run [`Manifest`] (written atomically after every
//!   state change) records per-job status, so a killed run resumes at
//!   job granularity: completed jobs are skipped, and interrupted or
//!   failed ones run again from the start.
//!
//! The crate is deliberately simulator-agnostic: it knows nothing about
//! machines or experiments, only jobs, errors, files, and time. The
//! `experiments` crate supplies the job implementations.

#![forbid(unsafe_code)]

pub mod error;
pub mod fsutil;
pub mod job;
pub mod jsonio;
pub mod manifest;
pub mod scheduler;

pub use error::JobError;
pub use fsutil::write_atomic;
pub use job::{Job, JobCtx, JobOutput};
pub use jsonio::JsonValue;
pub use manifest::{JobRecord, JobStatus, Manifest};
pub use scheduler::{derive_seed, RunConfig, RunReport, Scheduler};
