//! The job abstraction: what the scheduler runs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::JobError;

/// What a successful job produced.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Files the job wrote (paths relative to the output directory or
    /// absolute), recorded in the manifest.
    pub artifacts: Vec<PathBuf>,
    /// One-line (or short multi-line) human summary for the final report.
    pub summary: String,
    /// `false` when the job ran to completion but its cross-validation
    /// failed; the scheduler converts this to [`JobError::Validation`].
    pub validated: bool,
}

impl JobOutput {
    /// A validated output with the given summary.
    pub fn ok(summary: impl Into<String>) -> Self {
        JobOutput {
            artifacts: Vec::new(),
            summary: summary.into(),
            validated: true,
        }
    }

    /// Adds an artifact path.
    pub fn with_artifact(mut self, p: impl Into<PathBuf>) -> Self {
        self.artifacts.push(p.into());
        self
    }
}

/// Context handed to a running job.
///
/// Carries the deterministic seed for this job and the
/// cooperative-cancellation flag the watchdog sets when the deadline
/// passes.
pub struct JobCtx {
    /// The job's id (for logs).
    pub job_id: String,
    /// Seed derived from `(base seed, job id)`.
    pub seed: u64,
    cancel: Arc<AtomicBool>,
}

impl JobCtx {
    /// Creates a context. The scheduler builds these; tests may too.
    pub fn new(job_id: impl Into<String>, seed: u64, cancel: Arc<AtomicBool>) -> Self {
        JobCtx {
            job_id: job_id.into(),
            seed,
            cancel,
        }
    }

    /// A detached context for running a job outside the scheduler (unit
    /// tests, one-off invocations): never cancelled.
    pub fn detached(job_id: impl Into<String>, seed: u64) -> Self {
        JobCtx::new(job_id, seed, Arc::new(AtomicBool::new(false)))
    }

    /// `true` once the watchdog has asked this job to stop (deadline
    /// exceeded). Long-running jobs should poll this at natural
    /// boundaries (between data points, every few thousand ops) and bail
    /// out with any error — the supervisor records the job as timed out
    /// regardless.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }
}

/// A schedulable unit of work.
///
/// Implementations must be `Send + Sync`: the scheduler runs jobs on
/// worker threads. A job must be *re-runnable* — a killed or failed job
/// is run again from scratch by a later `--resume`, and must not depend
/// on leftovers from the earlier run (artifact writes go through
/// [`crate::write_atomic`], so torn files cannot exist).
pub trait Job: Send + Sync {
    /// Stable, unique id (e.g. `"e2:g1"`). Used for manifest keys, seed
    /// derivation, and selection.
    fn id(&self) -> String;

    /// Runs the job.
    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, JobError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_ctx_never_cancels() {
        let ctx = JobCtx::detached("t", 42);
        assert!(!ctx.cancelled());
        assert_eq!(ctx.seed, 42);
    }
}
