//! The supervised scheduler: worker pool, panic isolation, a wall-clock
//! watchdog, and manifest-driven resume.
//!
//! Threading model: each running job gets its own OS thread whose body is
//! wrapped in `catch_unwind`, so a panicking experiment becomes a typed
//! [`JobError::Panic`] instead of tearing the process down. Rust cannot
//! kill a thread, so deadlines are enforced cooperatively: the supervisor
//! sets the job's cancel flag when its wall-clock budget is exhausted,
//! waits a short grace period, and — if the job still refuses to yield —
//! *abandons* the thread (records a [`JobError::Timeout`], frees the
//! worker slot, and lets the detached thread die with the process). A
//! well-behaved job polls [`JobCtx::cancelled`] at natural boundaries and
//! exits promptly.
//!
//! Every job runs exactly once per invocation; a failed job stays failed
//! until a later `--resume` runs it again. The simulator is
//! deterministic, so a second run at the same seed would fail the same
//! way. Seeds are derived per job id, so a job re-run on resume replays
//! the exact same stimulus.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::JobError;
use crate::job::{Job, JobCtx, JobOutput};
use crate::manifest::{JobStatus, Manifest};

/// Derives the seed for one `(base, job)` pair. FNV-1a over the job id
/// folded with the base seed and a fixed golden-ratio term, then
/// finalized with a SplitMix64-style mix so adjacent ids land far apart.
/// Every checked-in output was produced with these seeds, so the fixed
/// term (`0x9e3779b97f4a7c15 × 2`) is part of their identity.
pub fn derive_seed(base_seed: u64, job_id: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in job_id.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut z = base_seed
        .wrapping_add(h)
        .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(2));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Scheduler configuration for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker slots (>= 1).
    pub parallel: usize,
    /// Wall-clock deadline per job; `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Base seed; per-job seeds derive from it.
    pub base_seed: u64,
    /// Scale tag recorded in the manifest (`smoke`/`default`/`full`).
    pub scale: String,
    /// Output directory (manifest + artifacts live here).
    pub out_dir: PathBuf,
    /// Resume from `out_dir/manifest.json` when compatible.
    pub resume: bool,
    /// Suppress panic backtraces on worker threads (keeps expected-panic
    /// tests and injected-fault runs quiet). The panic payload is still
    /// captured into [`JobError::Panic`].
    pub quiet_panics: bool,
}

impl RunConfig {
    /// A config with sensible defaults for `out_dir`.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        RunConfig {
            parallel: 1,
            deadline: None,
            base_seed: 42,
            scale: "default".to_string(),
            out_dir: out_dir.into(),
            resume: false,
            quiet_panics: true,
        }
    }

    fn manifest_path(&self) -> PathBuf {
        self.out_dir.join("manifest.json")
    }
}

/// Outcome of one finished job.
#[derive(Debug)]
pub struct JobResult {
    /// The job id.
    pub job_id: String,
    /// `Ok` with the job's output, or its error.
    pub outcome: Result<JobOutput, JobError>,
    /// `true` when the job was skipped because a compatible manifest
    /// already recorded it as done.
    pub skipped: bool,
}

/// The whole run's report.
#[derive(Debug)]
pub struct RunReport {
    /// Per-job results in the order jobs were submitted.
    pub jobs: Vec<JobResult>,
}

impl RunReport {
    /// Number of jobs that completed (including skipped-as-done).
    pub fn completed(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_ok()).count()
    }

    /// Jobs that failed, with their final errors.
    pub fn failures(&self) -> Vec<(&str, &JobError)> {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.as_ref().err().map(|e| (j.job_id.as_str(), e)))
            .collect()
    }

    /// `true` when every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.outcome.is_ok())
    }
}

/// One in-flight job.
struct RunningJob {
    job_index: usize,
    started: Instant,
    cancel: Arc<AtomicBool>,
    result: Arc<Mutex<Option<Result<JobOutput, JobError>>>>,
    done: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
    /// Set once the watchdog has cancelled this job; when the grace
    /// period expires the job is abandoned.
    cancelled_at: Option<Instant>,
}

/// How long a cancelled job gets to acknowledge the cancel flag
/// before its thread is abandoned.
const CANCEL_GRACE: Duration = Duration::from_millis(500);

/// Supervisor poll interval.
const POLL: Duration = Duration::from_millis(10);

/// The supervised scheduler.
pub struct Scheduler {
    cfg: RunConfig,
}

impl Scheduler {
    /// Creates a scheduler with the given config.
    pub fn new(cfg: RunConfig) -> Self {
        Scheduler { cfg }
    }

    /// Runs all `jobs` to completion (success, typed failure, or
    /// timeout). Never panics because of a job; never aborts the matrix
    /// because one job failed.
    pub fn run(&self, jobs: Vec<Box<dyn Job>>) -> Result<RunReport, JobError> {
        let cfg = &self.cfg;
        std::fs::create_dir_all(&cfg.out_dir)?;

        // Load or start the manifest. A manifest from a different seed or
        // scale cannot be merged deterministically — start fresh.
        let mut manifest = if cfg.resume {
            match Manifest::load(&cfg.manifest_path()) {
                Some(m) if m.base_seed == cfg.base_seed && m.scale == cfg.scale => m,
                Some(_) => {
                    eprintln!("[harness] manifest is from a different seed/scale; starting fresh");
                    Manifest::new(cfg.base_seed, cfg.scale.clone())
                }
                None => Manifest::new(cfg.base_seed, cfg.scale.clone()),
            }
        } else {
            Manifest::new(cfg.base_seed, cfg.scale.clone())
        };

        // Register the full matrix up front so a killed run's manifest
        // shows what was planned, and decide which jobs to skip.
        let mut results: Vec<Option<JobResult>> = Vec::with_capacity(jobs.len());
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, job) in jobs.iter().enumerate() {
            let id = job.id();
            if cfg.resume && manifest.is_complete(&id, &cfg.out_dir) {
                let rec = &manifest.jobs[&id];
                results.push(Some(JobResult {
                    job_id: id,
                    outcome: Ok(JobOutput {
                        artifacts: rec.artifacts.clone(),
                        summary: rec.summary.clone(),
                        validated: true,
                    }),
                    skipped: true,
                }));
                continue;
            }
            // (Re)queue: reset any stale running/failed record.
            let rec = manifest.record_mut(&id);
            rec.status = JobStatus::Pending;
            results.push(None);
            queue.push_back(i);
        }
        manifest.save(&cfg.manifest_path())?;

        let jobs: Vec<Arc<dyn Job>> = jobs.into_iter().map(Arc::from).collect();
        let mut running: Vec<RunningJob> = Vec::new();
        let parallel = cfg.parallel.max(1);

        while !queue.is_empty() || !running.is_empty() {
            // Launch jobs while slots are free.
            while running.len() < parallel {
                let Some(job_index) = queue.pop_front() else {
                    break;
                };
                let job = Arc::clone(&jobs[job_index]);
                let id = job.id();
                manifest.record_mut(&id).status = JobStatus::Running;
                manifest.save(&cfg.manifest_path())?;

                let cancel = Arc::new(AtomicBool::new(false));
                let result: Arc<Mutex<Option<Result<JobOutput, JobError>>>> =
                    Arc::new(Mutex::new(None));
                let done = Arc::new(AtomicBool::new(false));
                let ctx = JobCtx::new(
                    id.clone(),
                    derive_seed(cfg.base_seed, &id),
                    Arc::clone(&cancel),
                );
                if cfg.quiet_panics {
                    install_quiet_panic_hook();
                }
                let worker_result = Arc::clone(&result);
                let worker_done = Arc::clone(&done);
                let handle = thread::Builder::new()
                    .name(format!("job-{id}"))
                    .spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| job.run(&ctx)));
                        let out = match out {
                            Ok(r) => r,
                            Err(payload) => Err(JobError::Panic(panic_message(payload.as_ref()))),
                        };
                        *worker_result.lock().expect("result lock") = Some(out);
                        worker_done.store(true, Ordering::SeqCst);
                    })
                    .map_err(|e| JobError::Io(format!("spawn worker: {e}")))?;
                running.push(RunningJob {
                    job_index,
                    started: Instant::now(),
                    cancel,
                    result,
                    done,
                    handle: Some(handle),
                    cancelled_at: None,
                });
            }

            // Poll running jobs.
            let mut i = 0;
            while i < running.len() {
                let finished = running[i].done.load(Ordering::SeqCst);
                let elapsed = running[i].started.elapsed();
                if finished {
                    let mut r = running.swap_remove(i);
                    if let Some(h) = r.handle.take() {
                        let _ = h.join();
                    }
                    let outcome =
                        r.result
                            .lock()
                            .expect("result lock")
                            .take()
                            .unwrap_or_else(|| {
                                Err(JobError::Failed("worker exited without a result".into()))
                            });
                    // A run that finished after cancellation still counts
                    // as a timeout: its output may be truncated.
                    let outcome = if r.cancelled_at.is_some() {
                        Err(timeout_error(cfg, elapsed))
                    } else {
                        match outcome {
                            Ok(out) if !out.validated => Err(JobError::Validation(format!(
                                "validation failed: {}",
                                out.summary
                            ))),
                            other => other,
                        }
                    };
                    self.settle(
                        &jobs,
                        &mut manifest,
                        &mut results,
                        r.job_index,
                        elapsed,
                        outcome,
                    )?;
                    continue;
                }

                // Watchdog: the wall-clock deadline.
                let over = cfg.deadline.is_some_and(|d| elapsed > d);
                if over && running[i].cancelled_at.is_none() {
                    running[i].cancel.store(true, Ordering::SeqCst);
                    running[i].cancelled_at = Some(Instant::now());
                }
                if let Some(t) = running[i].cancelled_at {
                    if t.elapsed() > CANCEL_GRACE {
                        // Abandon the thread: it cannot be killed, but it
                        // no longer owns a worker slot. It dies with the
                        // process.
                        let r = running.swap_remove(i);
                        drop(r.handle);
                        self.settle(
                            &jobs,
                            &mut manifest,
                            &mut results,
                            r.job_index,
                            elapsed,
                            Err(timeout_error(cfg, elapsed)),
                        )?;
                        continue;
                    }
                }
                i += 1;
            }

            if !running.is_empty() || !queue.is_empty() {
                thread::sleep(POLL);
            }
        }

        let report = RunReport {
            jobs: results
                .into_iter()
                .map(|r| r.expect("every job settled"))
                .collect(),
        };
        manifest.save(&cfg.manifest_path())?;
        Ok(report)
    }

    /// Records a finished job in the manifest and the results.
    fn settle(
        &self,
        jobs: &[Arc<dyn Job>],
        manifest: &mut Manifest,
        results: &mut [Option<JobResult>],
        job_index: usize,
        elapsed: Duration,
        outcome: Result<JobOutput, JobError>,
    ) -> Result<(), JobError> {
        let id = jobs[job_index].id();
        let rec = manifest.record_mut(&id);
        rec.wall_ms = elapsed.as_millis() as u64;
        match &outcome {
            Ok(out) => {
                rec.status = JobStatus::Done;
                rec.artifacts = out.artifacts.clone();
                rec.summary = out.summary.clone();
            }
            Err(err) => {
                eprintln!("[harness] {id} failed: {err}");
                rec.status = JobStatus::Failed(err.clone());
            }
        }
        results[job_index] = Some(JobResult {
            job_id: id,
            outcome,
            skipped: false,
        });
        manifest.save(&self.cfg.manifest_path())
    }
}

fn timeout_error(cfg: &RunConfig, elapsed: Duration) -> JobError {
    JobError::Timeout {
        elapsed,
        deadline: cfg.deadline,
    }
}

/// Replaces the default panic hook with one that only prints panics from
/// non-worker threads. The hook is process-global, so it is installed at
/// most once; worker panics are still captured into [`JobError::Panic`]
/// via `catch_unwind`, they just stop spraying backtraces over the
/// progress output.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let is_worker = thread::current()
                .name()
                .is_some_and(|n| n.starts_with("job-"));
            if !is_worker {
                previous(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("harness_sched_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    struct OkJob(String);
    impl Job for OkJob {
        fn id(&self) -> String {
            self.0.clone()
        }
        fn run(&self, _ctx: &JobCtx) -> Result<JobOutput, JobError> {
            Ok(JobOutput::ok(format!("{} done", self.0)))
        }
    }

    struct PanicJob;
    impl Job for PanicJob {
        fn id(&self) -> String {
            "panics".into()
        }
        fn run(&self, _ctx: &JobCtx) -> Result<JobOutput, JobError> {
            panic!("injected panic for testing");
        }
    }

    struct HangJob;
    impl Job for HangJob {
        fn id(&self) -> String {
            "hangs".into()
        }
        fn run(&self, ctx: &JobCtx) -> Result<JobOutput, JobError> {
            // Cooperative hang: spins until cancelled, so the test does
            // not leak a thread past its own lifetime.
            while !ctx.cancelled() {
                thread::sleep(Duration::from_millis(5));
            }
            Ok(JobOutput::ok("woke up"))
        }
    }

    struct InvalidJob;
    impl Job for InvalidJob {
        fn id(&self) -> String {
            "invalid".into()
        }
        fn run(&self, _ctx: &JobCtx) -> Result<JobOutput, JobError> {
            Ok(JobOutput {
                artifacts: vec![],
                summary: "model disagrees with table".into(),
                validated: false,
            })
        }
    }

    #[test]
    fn panic_is_isolated_and_other_jobs_complete() {
        let out = scratch("panic");
        let mut cfg = RunConfig::new(&out);
        cfg.parallel = 2;
        let report = Scheduler::new(cfg)
            .run(vec![
                Box::new(OkJob("a".into())),
                Box::new(PanicJob),
                Box::new(OkJob("b".into())),
            ])
            .unwrap();
        assert_eq!(report.completed(), 2);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "panics");
        assert_eq!(failures[0].1.kind(), "panic");
        assert!(failures[0].1.detail().contains("injected panic"));
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn hang_times_out_with_typed_error() {
        let out = scratch("hang");
        let mut cfg = RunConfig::new(&out);
        cfg.deadline = Some(Duration::from_millis(50));
        let report = Scheduler::new(cfg)
            .run(vec![Box::new(HangJob), Box::new(OkJob("ok".into()))])
            .unwrap();
        assert_eq!(report.completed(), 1);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1.kind(), "timeout");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn unvalidated_output_becomes_validation_error() {
        let out = scratch("valid");
        let report = Scheduler::new(RunConfig::new(&out))
            .run(vec![Box::new(InvalidJob)])
            .unwrap();
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1.kind(), "validation");
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let out = scratch("resume");
        // First run: "a" completes, write its (empty) artifact list.
        let cfg1 = RunConfig::new(&out);
        let report1 = Scheduler::new(cfg1)
            .run(vec![Box::new(OkJob("a".into()))])
            .unwrap();
        assert!(report1.all_ok());
        // Second run with resume: "a" skipped, "b" runs.
        let mut cfg2 = RunConfig::new(&out);
        cfg2.resume = true;
        let report2 = Scheduler::new(cfg2)
            .run(vec![
                Box::new(OkJob("a".into())),
                Box::new(OkJob("b".into())),
            ])
            .unwrap();
        assert!(report2.all_ok());
        assert!(report2.jobs[0].skipped, "completed job must be skipped");
        assert!(!report2.jobs[1].skipped);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn resume_under_different_seed_reruns_everything() {
        let out = scratch("reseed");
        let cfg1 = RunConfig::new(&out);
        Scheduler::new(cfg1)
            .run(vec![Box::new(OkJob("a".into()))])
            .unwrap();
        let mut cfg2 = RunConfig::new(&out);
        cfg2.resume = true;
        cfg2.base_seed = 7; // different seed → manifest discarded
        let report = Scheduler::new(cfg2)
            .run(vec![Box::new(OkJob("a".into()))])
            .unwrap();
        assert!(!report.jobs[0].skipped);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn derive_seed_is_pinned_and_varies_by_job_and_base() {
        // Golden values: every checked-in output was produced with these
        // seeds, so a change here moves all of them.
        assert_eq!(derive_seed(42, "e0:g1"), 0x2e9de821ff26dea9);
        assert_eq!(derive_seed(7, "bench"), 0x507f78a6cc4e08a1);
        assert_ne!(derive_seed(42, "e0"), derive_seed(42, "e1"));
        assert_ne!(derive_seed(42, "e0"), derive_seed(43, "e0"));
    }
}
