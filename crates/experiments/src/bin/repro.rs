//! `repro`: regenerates every table and figure of the paper's evaluation
//! under a supervised job scheduler.
//!
//! Usage:
//!
//! ```text
//! repro [NAME..|all] [--full | --smoke] [--out DIR] [--gen g1|g2|both] \
//!       [--parallel N] [--resume] [--deadline SECS] [--seed N] \
//!       [--metrics PATH] [--sample-interval CYCLES] \
//!       [--inject panic:JOB|hang:JOB]
//! ```
//!
//! Each NAME is the name of an entry in `experiments::registry::REGISTRY`;
//! `repro --help` lists them. `repro divergence [NAME|all]` runs the
//! dual-process determinism witness over the entries that have one.
//!
//! `--metrics PATH` turns on `simwatch` sampling: the sampling-capable
//! experiments (E1, E3) poll the unified machine metrics every
//! `--sample-interval` simulated cycles (default 100 000) and emit
//! per-job `metrics_*.jsonl` artifacts; after the run those are
//! concatenated, in matrix order, into PATH. The series is a pure
//! function of the simulated instruction stream, so two runs at the
//! same seed produce byte-identical files. The end-of-run report gains
//! a queue-occupancy section (RPQ/WPQ max depth, WPQ time-at-full)
//! summarized from the final sample of each context.
//!
//! Every experiment runs as an independent job on a worker pool
//! (`--parallel N`, default 1). A panicking or hanging experiment is
//! isolated — its failure is recorded with a typed error in
//! `results/manifest.json` and the remaining matrix still runs. A killed
//! run restarted with `--resume` skips completed jobs and runs the
//! interrupted or failed ones again from the start, producing
//! byte-identical results to an uninterrupted run at the same seed.
//!
//! Exit codes: 0 when every selected job succeeded, 1 when any job
//! failed (panic, timeout, validation mismatch, I/O), 2 on bad
//! arguments.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::Duration;

use experiments::common::MetricsSpec;
use experiments::jobs::{self, Inject, Scale};
use experiments::registry;
use harness::{write_atomic, RunConfig, Scheduler};
use optane_core::Generation;

/// Default `--sample-interval`, in simulated cycles.
const DEFAULT_SAMPLE_INTERVAL: u64 = 100_000;

struct Options {
    which: Vec<String>,
    scale: Scale,
    out: PathBuf,
    gens: Vec<Generation>,
    parallel: usize,
    resume: bool,
    deadline: Option<Duration>,
    seed: u64,
    metrics: Option<PathBuf>,
    sample_interval: u64,
    injections: Vec<(String, Inject)>,
}

fn usage() -> ! {
    println!("{}", registry::usage());
    std::process::exit(0);
}

fn bad_args(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value after a value-taking flag. A missing value, or another flag
/// in its place (`--metrics --smoke`), is a usage error: taking the flag
/// as the value would silently drop it.
fn value(args: &mut impl Iterator<Item = String>, need: &str) -> String {
    match args.next() {
        Some(v) if !v.starts_with("--") => v,
        _ => bad_args(need),
    }
}

fn parse_args() -> Options {
    let mut which = Vec::new();
    let mut full = false;
    let mut smoke = false;
    let mut out = PathBuf::from("results");
    let mut gens = vec![Generation::G1, Generation::G2];
    let mut parallel = 1usize;
    let mut resume = false;
    let mut deadline = None;
    let mut seed = 42u64;
    let mut metrics = None;
    let mut sample_interval = DEFAULT_SAMPLE_INTERVAL;
    let mut injections = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => full = true,
            "--smoke" => smoke = true,
            "--resume" => resume = true,
            "--out" => {
                out = PathBuf::from(value(&mut args, "--out needs a directory"));
            }
            "--gen" => {
                gens = match value(&mut args, "--gen needs g1|g2|both").as_str() {
                    "g1" | "G1" => vec![Generation::G1],
                    "g2" | "G2" => vec![Generation::G2],
                    "both" => vec![Generation::G1, Generation::G2],
                    other => bad_args(&format!("unknown generation: {other}")),
                };
            }
            "--parallel" => {
                let need = "--parallel needs a positive integer";
                parallel = match value(&mut args, need).parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => bad_args(need),
                };
            }
            "--deadline" => {
                let need = "--deadline needs positive seconds";
                match value(&mut args, need).parse::<f64>() {
                    Ok(secs) if secs > 0.0 && secs.is_finite() => {
                        deadline = Some(Duration::from_secs_f64(secs))
                    }
                    _ => bad_args(need),
                }
            }
            "--seed" => {
                let need = "--seed needs an integer";
                seed = value(&mut args, need)
                    .parse::<u64>()
                    .unwrap_or_else(|_| bad_args(need));
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(value(
                    &mut args,
                    "--metrics needs a file path",
                )));
            }
            "--sample-interval" => {
                let need = "--sample-interval needs a positive cycle count";
                sample_interval = match value(&mut args, need).parse::<u64>() {
                    Ok(n) if n > 0 => n,
                    _ => bad_args(need),
                };
            }
            "--inject" => {
                let spec = value(&mut args, "--inject needs panic:JOB or hang:JOB");
                let (mode, job) = match spec.split_once(':') {
                    Some(("panic", j)) => (Inject::Panic, j),
                    Some(("hang", j)) => (Inject::Hang, j),
                    _ => bad_args(&format!("bad --inject spec '{spec}'")),
                };
                injections.push((job.to_string(), mode));
            }
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => bad_args(&format!("unknown flag: {other}")),
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    if let Some(bad) = which
        .iter()
        .find(|w| *w != "all" && registry::find(w).is_none())
    {
        bad_args(&format!(
            "unknown experiment '{bad}'; expected {}|all",
            registry::choices(|_| true)
        ));
    }
    if full && smoke {
        bad_args("--full and --smoke are mutually exclusive");
    }
    let scale = if full {
        Scale::Full
    } else if smoke {
        Scale::Smoke
    } else {
        Scale::Default
    };
    Options {
        which,
        scale,
        out,
        gens,
        parallel,
        resume,
        deadline,
        seed,
        metrics,
        sample_interval,
        injections,
    }
}

fn main() {
    // The divergence witness has its own CLI (it spawns this binary as
    // `divergence-child` subprocesses); intercept before normal parsing.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("divergence") => {
            std::process::exit(experiments::divergence::parent_main(&argv[1..]));
        }
        Some("divergence-child") => {
            std::process::exit(experiments::divergence::child_main(&argv[1..]));
        }
        _ => {}
    }
    let opts = parse_args();
    let spec = opts.metrics.as_ref().map(|_| MetricsSpec {
        interval: opts.sample_interval,
    });
    let mut job_list = jobs::matrix(&opts.which, &opts.gens, opts.scale, &opts.out, spec);
    let known_ids: Vec<String> = job_list.iter().map(|j| j.id()).collect();
    for (target, mode) in &opts.injections {
        if !jobs::apply_injection(&mut job_list, target, *mode) {
            bad_args(&format!(
                "--inject target '{target}' is not in the matrix; jobs: {known_ids:?}"
            ));
        }
    }

    let mut cfg = RunConfig::new(&opts.out);
    cfg.parallel = opts.parallel;
    cfg.deadline = opts.deadline;
    cfg.base_seed = opts.seed;
    cfg.scale = opts.scale.tag().to_string();
    cfg.resume = opts.resume;

    let t_start = std::time::Instant::now();
    let report = match Scheduler::new(cfg).run(job_list) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scheduler error: {e}");
            std::process::exit(1);
        }
    };

    // Print summaries in submission (matrix) order — parallel workers
    // never interleave output — and assemble the deterministic report
    // file. Failures contribute only their error *kind* to report.txt so
    // resumed and uninterrupted runs stay byte-comparable (timeout
    // details carry wall-clock durations).
    let mut report_text = String::new();
    for j in &report.jobs {
        report_text.push_str(&format!("== {} ==\n", j.job_id));
        match &j.outcome {
            Ok(out) => {
                println!("{}\n", out.summary);
                report_text.push_str(&out.summary);
                report_text.push('\n');
            }
            Err(e) => {
                report_text.push_str(&format!("FAILED ({})\n", e.kind()));
            }
        }
    }
    if let Err(e) = write_atomic(&opts.out.join("report.txt"), report_text.as_bytes()) {
        eprintln!("warning: could not write report.txt: {e}");
    }

    // Concatenate the per-job simwatch time series — in matrix order, so
    // parallel and resumed runs produce byte-identical files — into the
    // path named by --metrics.
    if let Some(metrics_path) = &opts.metrics {
        let mut series = String::new();
        for j in &report.jobs {
            if let Ok(out) = &j.outcome {
                for rel in &out.artifacts {
                    let name = rel.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    if name.starts_with("metrics_") && name.ends_with(".jsonl") {
                        match std::fs::read_to_string(opts.out.join(rel)) {
                            Ok(s) => series.push_str(&s),
                            Err(e) => eprintln!(
                                "warning: could not read metrics artifact {}: {e}",
                                rel.display()
                            ),
                        }
                    }
                }
            }
        }
        if let Err(e) = write_atomic(metrics_path, series.as_bytes()) {
            eprintln!("warning: could not write {}: {e}", metrics_path.display());
        } else {
            eprintln!(
                "simwatch time series ({} samples) in {}",
                series.lines().count(),
                metrics_path.display()
            );
        }
    }

    let failures = report.failures();
    let skipped = report.jobs.iter().filter(|j| j.skipped).count();
    eprintln!(
        "done in {:.1}s; {}/{} jobs succeeded ({} resumed as complete); results in {}",
        t_start.elapsed().as_secs_f64(),
        report.completed(),
        report.jobs.len(),
        skipped,
        opts.out.display()
    );
    if !failures.is_empty() {
        eprintln!("failed jobs:");
        for (id, err) in &failures {
            eprintln!("  {id}: {err}");
        }
        std::process::exit(1);
    }
}
