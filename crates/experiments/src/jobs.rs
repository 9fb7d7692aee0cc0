//! The experiment matrix as schedulable [`harness`] jobs.
//!
//! Each [`REGISTRY`] entry becomes one or more independent jobs (one per
//! generation where the experiment sweeps G1 and G2 separately). Jobs
//! write their CSV/JSON artifacts atomically and return the rendered
//! table text as their summary; the `repro` binary prints summaries in
//! deterministic matrix order after the scheduler finishes, so parallel
//! execution never interleaves output.
//!
//! For fault-handling tests and CI drills, [`apply_injection`] wraps a
//! named job so it panics or hangs instead of running — exercising the
//! scheduler's panic isolation and watchdog paths end to end.

use std::path::{Path, PathBuf};
use std::time::Duration;

use harness::{write_atomic, Job, JobCtx, JobError, JobOutput};
use optane_core::Generation;

use crate::common::{ExpResult, MetricsSpec};
use crate::registry::{Entry, RunCtx, REGISTRY};

/// Run scale: how much work each experiment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI scale: shrinks the validation suites (`pmcheck`, `faultsim`).
    Smoke,
    /// Default scale: seconds per experiment.
    Default,
    /// Paper scale: larger working sets and op counts.
    Full,
}

impl Scale {
    /// The manifest tag for this scale.
    pub fn tag(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    pub(crate) fn full(&self) -> bool {
        matches!(self, Scale::Full)
    }

    pub(crate) fn smoke(&self) -> bool {
        matches!(self, Scale::Smoke)
    }
}

pub(crate) fn gen_suffix(gen: Generation) -> String {
    format!("{gen}").to_lowercase()
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .to_lowercase()
}

/// Atomically writes one result's CSV into `out_dir`; returns the
/// artifact path relative to `out_dir`.
fn emit_csv(out_dir: &Path, r: &ExpResult) -> Result<PathBuf, JobError> {
    let rel = PathBuf::from(format!("{}.csv", slug(&r.name)));
    write_atomic(&out_dir.join(&rel), r.to_csv().as_bytes())?;
    Ok(rel)
}

/// Whether a job artifact is a `simwatch` series (`metrics_*.jsonl`).
pub fn is_metrics_artifact(rel: &Path) -> bool {
    let name = rel.file_name().and_then(|n| n.to_str()).unwrap_or("");
    name.starts_with("metrics_") && name.ends_with(".jsonl")
}

/// Packages a job's output: each result's CSV written atomically and
/// its table concatenated into the summary, then each `(file, contents)`
/// of `extra` written atomically, and `tail` appended to the summary.
/// Results carrying a `simwatch` time series additionally emit a
/// `metrics_<slug>.jsonl` artifact; the `repro` binary concatenates
/// those (in matrix order) into the file named by `--metrics`.
pub(crate) fn finish(
    out_dir: &Path,
    results: &[ExpResult],
    extra: &[(String, String)],
    tail: &str,
    validated: bool,
) -> Result<JobOutput, JobError> {
    let mut out = JobOutput::ok(String::new());
    let mut summary = String::new();
    for r in results {
        summary.push_str(&r.to_table());
        summary.push('\n');
        out.artifacts.push(emit_csv(out_dir, r)?);
        if let Some(series) = &r.metrics_jsonl {
            let rel = PathBuf::from(format!("metrics_{}.jsonl", slug(&r.name)));
            write_atomic(&out_dir.join(&rel), series.as_bytes())?;
            out.artifacts.push(rel);
        }
    }
    for (file, contents) in extra {
        write_atomic(&out_dir.join(file), contents.as_bytes())?;
        out.artifacts.push(PathBuf::from(file));
    }
    out.summary = summary.trim_end().to_string() + tail;
    out.validated = validated;
    Ok(out)
}

/// One scheduled run of a registry entry.
struct ExperimentJob {
    id: String,
    entry: &'static Entry,
    gen: Generation,
    gens: Vec<Generation>,
    scale: Scale,
    out: PathBuf,
    metrics: Option<MetricsSpec>,
}

impl Job for ExperimentJob {
    fn id(&self) -> String {
        self.id.clone()
    }

    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, JobError> {
        (self.entry.run)(&RunCtx {
            gen: self.gen,
            gens: &self.gens,
            scale: self.scale,
            seed: ctx.seed,
            metrics: self.metrics,
            out: &self.out,
        })
    }
}

/// Builds the job list for a selection of experiment names (`"all"`
/// selects everything), generations, and scale. Jobs are returned in
/// registry order; ids look like `e2:g1` (per-generation) or `table1`
/// (generation-independent). Names not in the registry select nothing.
/// When `metrics` is set, the sampling-capable experiments emit
/// `simwatch` time-series artifacts at the requested interval.
pub fn matrix(
    selection: &[String],
    gens: &[Generation],
    scale: Scale,
    out_dir: &Path,
    metrics: Option<MetricsSpec>,
) -> Vec<Box<dyn Job>> {
    let run_all = selection.iter().any(|w| w == "all");
    let mut jobs: Vec<Box<dyn Job>> = Vec::new();
    for entry in REGISTRY {
        if !run_all && !selection.iter().any(|w| w == entry.name) {
            continue;
        }
        let job = |id: String, gen: Generation| -> Box<dyn Job> {
            Box::new(ExperimentJob {
                id,
                entry,
                gen,
                gens: gens.to_vec(),
                scale,
                out: out_dir.to_path_buf(),
                metrics,
            })
        };
        if entry.per_gen {
            for &gen in gens {
                jobs.push(job(format!("{}:{}", entry.name, gen_suffix(gen)), gen));
            }
        } else {
            let gen = gens.first().copied().unwrap_or(Generation::G1);
            jobs.push(job(entry.name.to_string(), gen));
        }
    }
    jobs
}

/// What [`apply_injection`] makes the target job do instead of running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Panic immediately (exercises `catch_unwind` isolation).
    Panic,
    /// Hang until the watchdog cancels the job (exercises the
    /// deadline path).
    Hang,
}

struct InjectedJob {
    inner: Box<dyn Job>,
    mode: Inject,
}

impl Job for InjectedJob {
    fn id(&self) -> String {
        self.inner.id()
    }

    fn run(&self, ctx: &JobCtx) -> Result<JobOutput, JobError> {
        match self.mode {
            Inject::Panic => panic!("injected panic (--inject) in job {}", ctx.job_id),
            Inject::Hang => {
                // Cooperative hang: spins until the watchdog fires, so
                // the worker thread is reclaimed rather than abandoned.
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(JobError::Failed("injected hang cancelled".into()))
            }
        }
    }
}

/// Replaces the job whose id equals `target` with a faulty wrapper.
/// Returns `false` when no job matches.
pub fn apply_injection(jobs: &mut Vec<Box<dyn Job>>, target: &str, mode: Inject) -> bool {
    let Some(i) = jobs.iter().position(|j| j.id() == target) else {
        return false;
    };
    let inner = jobs.remove(i);
    jobs.insert(i, Box::new(InjectedJob { inner, mode }));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_full_selection_in_order() {
        let gens = [Generation::G1, Generation::G2];
        let out = PathBuf::from("unused");
        let jobs = matrix(&["all".to_string()], &gens, Scale::Smoke, &out, None);
        let ids: Vec<String> = jobs.iter().map(|j| j.id()).collect();
        // Per-generation experiments appear twice, singletons once.
        assert!(ids.contains(&"e0:g1".to_string()));
        assert!(ids.contains(&"e0:g2".to_string()));
        assert!(ids.contains(&"table1".to_string()));
        assert!(ids.contains(&"e7".to_string()));
        assert!(ids.contains(&"mixes:g2".to_string()));
        assert!(ids.contains(&"faultsim:g1".to_string()));
        assert!(ids.contains(&"cluster".to_string()));
        assert!(ids.contains(&"rebalance".to_string()));
        assert!(ids.contains(&"bench".to_string()));
        assert!(ids.contains(&"e15:g1".to_string()));
        assert!(ids.contains(&"e15:g2".to_string()));
        assert!(ids.contains(&"ablations".to_string()));
        assert_eq!(ids.len(), 30, "11 per-gen × 2 + 8 singletons: {ids:?}");
        // Canonical order: e0 before e9, pmcheck before faultsim.
        let pos = |id: &str| ids.iter().position(|x| x == id).unwrap();
        assert!(pos("e0:g1") < pos("e9:g1"));
        assert!(pos("pmcheck:g1") < pos("faultsim:g1"));
        assert!(pos("e9:g1") < pos("cluster"));
        assert!(pos("cluster") < pos("rebalance"));
        assert!(pos("rebalance") < pos("bench"));
        assert!(pos("bench") < pos("e15:g1"));
        assert!(pos("e15:g2") < pos("ablations"));
    }

    /// The repo-root `BENCH_*.json` files are exact baselines: rendered
    /// here through the jobs `repro cluster rebalance bench --smoke
    /// --seed 7` schedules (scheduler-derived seeds), each must match
    /// byte for byte. A model change that moves one
    /// regenerates all three: run that command with `--out bench-out`
    /// and copy `bench-out/BENCH_*.json` to the repo root.
    #[test]
    fn bench_files_match_the_repo_root_copies() {
        let out = std::env::temp_dir().join(format!("bench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&out).expect("out dir");
        let names = ["cluster", "rebalance", "bench"].map(String::from);
        for job in matrix(&names, &[Generation::G1], Scale::Smoke, &out, None) {
            let id = job.id();
            let ctx = JobCtx::detached(id.as_str(), harness::derive_seed(7, &id));
            job.run(&ctx).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
        for (file, golden) in [
            (
                "BENCH_cluster.json",
                include_str!("../../../BENCH_cluster.json"),
            ),
            (
                "BENCH_rebalance.json",
                include_str!("../../../BENCH_rebalance.json"),
            ),
            ("BENCH_sim.json", include_str!("../../../BENCH_sim.json")),
        ] {
            let got = std::fs::read_to_string(out.join(file)).expect(file);
            assert!(
                got == golden,
                "{file} differs from the repo-root copy:\n{got}"
            );
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn selection_filters_jobs() {
        let gens = [Generation::G1];
        let out = PathBuf::from("unused");
        let jobs = matrix(
            &["e0".to_string(), "table1".to_string()],
            &gens,
            Scale::Default,
            &out,
            None,
        );
        let ids: Vec<String> = jobs.iter().map(|j| j.id()).collect();
        assert_eq!(ids, vec!["e0:g1".to_string(), "table1".to_string()]);
    }

    #[test]
    fn injection_replaces_the_target_job() {
        let gens = [Generation::G1];
        let out = std::env::temp_dir();
        let mut jobs = matrix(&["e0".to_string()], &gens, Scale::Default, &out, None);
        assert!(apply_injection(&mut jobs, "e0:g1", Inject::Panic));
        assert!(!apply_injection(&mut jobs, "nope", Inject::Hang));
        // The injected job panics; run under catch_unwind to observe.
        let ctx = JobCtx::detached("e0:g1", 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| jobs[0].run(&ctx)));
        assert!(r.is_err(), "injected job panics");
    }
}
