//! `repro divergence`: the dual-process determinism witness.
//!
//! The static half of the determinism contract (`simlint`) proves the
//! *code* cannot depend on unordered state; this module proves the *runs*
//! actually agree. `repro divergence <exp>` re-executes the `repro`
//! binary twice, side by side, as `divergence-child` subprocesses with
//! the same seed. Separate processes mean separate SipHash keys, separate
//! address-space layouts, separate allocator histories — exactly the
//! nondeterminism sources that survive in-process double-run tests.
//!
//! Each child runs the registry entry's own jobs — what `repro <exp>
//! --gen both --seed S --metrics F` runs — inside an
//! [`optane_core::witness`] scope, so every machine those jobs build
//! feeds one [`OpStreamHasher`] and folds its final checkpoint in when
//! dropped; no experiment carries witness code. The child reports four
//! FNV-1a hashes: the op stream, the encoded machine checkpoints, the
//! `simwatch` JSONL artifacts, and the job summaries with every artifact.
//!
//! On mismatch the parent bisects: children are re-run with `--prefix K`
//! (hash only the first K ops) and a binary search finds the first
//! divergent op index in ~2·log2(ops) re-runs; a final `--dump` pair
//! captures the rendered ops around that index for a two-sided diff.
//! Such a probe child reports and exits as soon as its hasher has seen
//! the last op its report depends on, instead of running the entry's
//! remaining jobs.
//! `--perturb K` plants a deliberate divergence at op K in the second
//! child — the smoke mode uses it to prove the bisector actually works,
//! not just that nothing diverges.

use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use harness::{derive_seed, write_atomic, JobCtx};
use optane_core::trace::{TraceEvent, TraceSink};
use optane_core::{with_witness, Generation, MachineWitness};
use simlint::witness::{
    bisect_first_divergence, compare_reports, fnv1a_bytes, render_diff, ChildReport,
    DivergenceOutcome, OpStreamHasher, SharedHasher, FNV_OFFSET,
};

use crate::common::{MetricsSpec, DEFAULT_SAMPLE_INTERVAL};
use crate::jobs::{self, Scale};
use crate::registry::{self, Entry, REGISTRY};

/// The child's witness scope: one op-stream hasher shared by every
/// machine's sink, so ops are hashed in global simulation order, plus a
/// running hash of every dropped machine's encoded checkpoint.
struct WitnessTap {
    hasher: SharedHasher,
    checkpoint_hash: Cell<u64>,
    /// In a probe child (`--prefix`, `--dump`) run as its own process:
    /// the job output directory to remove before the child exits early.
    exit_when_done: Option<PathBuf>,
}

/// One machine's sink in the child: feeds the shared hasher and, when
/// the tap says so, ends the process as soon as the hasher has seen every
/// op its report depends on.
struct ChildSink {
    hasher: SharedHasher,
    exit_when_done: Option<PathBuf>,
}

impl TraceSink for ChildSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        let mut h = self.hasher.0.borrow_mut();
        h.on_event(ev);
        if let Some(out) = &self.exit_when_done {
            if h.saw_every_needed_op() {
                exit_with_probe_report(&h, out);
            }
        }
    }
}

/// Prints a probe's report and exits 0 without running the rest of the
/// entry's jobs. A probe's parent reads only the prefix hash and the dump,
/// which no later op can change, so the state hashes are reported as 0.
fn exit_with_probe_report(h: &OpStreamHasher, out: &Path) -> ! {
    let _ = std::fs::remove_dir_all(out);
    let report = ChildReport {
        ops: h.ops(),
        trace_hash: h.hash(),
        dump: h.dumped().to_vec(),
        ..ChildReport::default()
    };
    let mut stdout = std::io::stdout().lock();
    let ok = stdout
        .write_all(report.to_wire().as_bytes())
        .and_then(|()| stdout.flush());
    std::process::exit(if ok.is_ok() { 0 } else { 2 })
}

impl MachineWitness for WitnessTap {
    fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(ChildSink {
            hasher: self.hasher.clone(),
            exit_when_done: self.exit_when_done.clone(),
        })
    }

    fn fold_checkpoint(&self, bytes: &[u8]) {
        self.checkpoint_hash
            .set(fnv1a_bytes(self.checkpoint_hash.get(), bytes));
    }
}

struct ChildOpts {
    entry: &'static Entry,
    seed: u64,
    smoke: bool,
    prefix: Option<u64>,
    dump: Option<(u64, u64)>,
    perturb: Option<u64>,
    /// Exit the process once a probe's hasher has seen its last needed
    /// op; set only when running as a `divergence-child` process.
    exit_early: bool,
}

/// Runs the entry's own jobs, exactly as `repro NAME --gen both [--smoke]
/// --seed S --metrics F` schedules them, one after another on this
/// thread inside a witness scope. Results are the summaries plus every
/// artifact's name and bytes in job-output order; metrics are the
/// `metrics_*.jsonl` artifacts (0 when the entry samples none).
fn run_child(opts: &ChildOpts) -> Result<ChildReport, String> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let mut hasher = OpStreamHasher::new();
    if let Some(k) = opts.prefix {
        hasher = hasher.with_prefix_limit(k);
    }
    if let Some((a, b)) = opts.dump {
        hasher = hasher.with_dump_range(a, b);
    }
    if let Some(k) = opts.perturb {
        hasher = hasher.with_perturb_at(k);
    }
    let out = std::env::temp_dir().join(format!(
        "divergence-{}-{}-{}",
        opts.entry.name,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let tap = Rc::new(WitnessTap {
        hasher: SharedHasher::new(hasher),
        checkpoint_hash: Cell::new(FNV_OFFSET),
        exit_when_done: opts.exit_early.then(|| out.clone()),
    });
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let scale = if opts.smoke {
        Scale::Smoke
    } else {
        Scale::Default
    };
    let job_list = jobs::matrix(
        &[opts.entry.name.to_string()],
        &[Generation::G1, Generation::G2],
        scale,
        &out,
        Some(MetricsSpec {
            interval: DEFAULT_SAMPLE_INTERVAL,
        }),
    );
    let mut result_hash = FNV_OFFSET;
    let mut metrics_hash = None;
    let ran = with_witness(tap.clone(), || {
        for job in &job_list {
            let id = job.id();
            let ctx = JobCtx::detached(id.as_str(), derive_seed(opts.seed, &id));
            let o = match job.run(&ctx) {
                Ok(o) => o,
                Err(e) => {
                    result_hash = fnv1a_bytes(result_hash, format!("{id} error: {e}").as_bytes());
                    continue;
                }
            };
            result_hash = fnv1a_bytes(result_hash, o.summary.as_bytes());
            for rel in &o.artifacts {
                let bytes = std::fs::read(out.join(rel))
                    .map_err(|e| format!("cannot read {}: {e}", rel.display()))?;
                result_hash = fnv1a_bytes(result_hash, rel.to_string_lossy().as_bytes());
                result_hash = fnv1a_bytes(result_hash, &bytes);
                if jobs::is_metrics_artifact(rel) {
                    metrics_hash = Some(fnv1a_bytes(metrics_hash.unwrap_or(FNV_OFFSET), &bytes));
                }
            }
        }
        Ok::<(), String>(())
    });
    let _ = std::fs::remove_dir_all(&out);
    ran?;
    let h = tap.hasher.0.borrow();
    Ok(ChildReport {
        ops: h.ops(),
        trace_hash: h.hash(),
        checkpoint_hash: tap.checkpoint_hash.get(),
        metrics_hash: metrics_hash.unwrap_or(0),
        result_hash,
        dump: h.dumped().to_vec(),
    })
}

/// Entry point for `repro divergence-child <exp> [flags]`. Prints the
/// wire-format report on stdout.
pub fn child_main(args: &[String]) -> i32 {
    let mut entry = None;
    let mut seed = 42;
    let mut smoke = false;
    let mut prefix = None;
    let mut dump = None;
    let mut perturb = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return child_usage("--seed needs an integer"),
            },
            "--smoke" => smoke = true,
            "--prefix" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => prefix = Some(v),
                None => return child_usage("--prefix needs an op count"),
            },
            "--dump" => {
                let a = it.next().and_then(|v| v.parse().ok());
                let b = it.next().and_then(|v| v.parse().ok());
                match (a, b) {
                    (Some(a), Some(b)) => dump = Some((a, b)),
                    _ => return child_usage("--dump needs two op indices"),
                }
            }
            "--perturb" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => perturb = Some(v),
                None => return child_usage("--perturb needs an op index"),
            },
            other => match registry::find(other) {
                Some(e) => entry = Some(e),
                None => return child_usage(&format!("unknown argument `{other}`")),
            },
        }
    }
    let Some(entry) = entry else {
        return child_usage(&format!("which experiment? ({})", registry::choices()));
    };
    let opts = ChildOpts {
        entry,
        seed,
        smoke,
        prefix,
        dump,
        perturb,
        exit_early: true,
    };
    match run_child(&opts) {
        Ok(report) => {
            print!("{}", report.to_wire());
            0
        }
        Err(e) => child_usage(&e),
    }
}

fn child_usage(msg: &str) -> i32 {
    eprintln!("divergence-child: {msg}");
    2
}

/// Parent-side options for `repro divergence`.
struct ParentOpts {
    exps: Vec<&'static Entry>,
    seed: u64,
    smoke: bool,
    perturb: Option<u64>,
    out: Option<PathBuf>,
}

/// Spawns one child. `extra` carries probe flags (`--prefix`, `--dump`,
/// `--perturb`).
fn spawn_child(opts: &ParentOpts, exp: &Entry, extra: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("divergence-child")
        .arg(exp.name)
        .arg("--seed")
        .arg(opts.seed.to_string());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd.args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn child: {e}"))
}

/// Waits for one child and parses its report.
fn child_report(child: Child) -> Result<ChildReport, String> {
    let output = child
        .wait_with_output()
        .map_err(|e| format!("cannot wait for child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    ChildReport::parse(&String::from_utf8_lossy(&output.stdout))
}

/// Runs two fresh children side by side, the first with `a`'s probe
/// flags and the second with `b`'s, and returns both reports.
fn run_pair(
    opts: &ParentOpts,
    exp: &Entry,
    a: &[String],
    b: &[String],
) -> Result<(ChildReport, ChildReport), String> {
    let first = spawn_child(opts, exp, a)?;
    let second = spawn_child(opts, exp, b);
    let first = child_report(first);
    Ok((first?, child_report(second?)?))
}

/// Runs the witness for one experiment: two fresh children, compare,
/// bisect on mismatch. Returns a human-readable verdict plus whether the
/// runs agreed.
fn witness_one(opts: &ParentOpts, exp: &Entry) -> Result<(String, bool), String> {
    let perturb_flags: Vec<String> = match opts.perturb {
        Some(k) => vec!["--perturb".into(), k.to_string()],
        None => Vec::new(),
    };
    let (a, b) = run_pair(opts, exp, &[], &perturb_flags)?;
    match compare_reports(&a, &b) {
        DivergenceOutcome::Identical { ops, trace_hash } => Ok((
            format!(
                "{}: {} ops, trace hash {:#018x} — two fresh processes agree \
                 (checkpoints {:#018x}, metrics {:#018x}, results {:#018x})",
                exp.name, ops, trace_hash, a.checkpoint_hash, a.metrics_hash, a.result_hash
            ),
            true,
        )),
        DivergenceOutcome::StateOnly { fields } => Ok((
            format!(
                "{}: op streams agree ({} ops) but derived state diverges: {}",
                exp.name,
                a.ops,
                fields.join(", ")
            ),
            false,
        )),
        DivergenceOutcome::Diverged { .. } => {
            if a.ops != b.ops {
                return Ok((
                    format!(
                        "{}: op COUNTS diverge: {} vs {} — the instruction streams \
                         themselves differ in length",
                        exp.name, a.ops, b.ops
                    ),
                    false,
                ));
            }
            // Bisect to the first divergent op.
            let idx = bisect_first_divergence(a.ops, |k| {
                let probe = vec!["--prefix".to_string(), k.to_string()];
                let perturbed = [probe.as_slice(), &perturb_flags].concat();
                let (pa, pb) = run_pair(opts, exp, &probe, &perturbed)?;
                Ok(pa.trace_hash != pb.trace_hash)
            })?;
            let window = (idx.saturating_sub(3), idx + 4);
            let dump = vec![
                "--dump".to_string(),
                window.0.to_string(),
                window.1.to_string(),
            ];
            let perturbed = [dump.as_slice(), &perturb_flags].concat();
            let (da, db) = run_pair(opts, exp, &dump, &perturbed)?;
            let diff = render_diff(idx, &da.dump, &db.dump);
            Ok((
                format!(
                    "{}: DIVERGED at op {idx} of {} (trace hashes {:#018x} vs {:#018x})\n\
                     ops around the divergence (A = run 1, B = run 2):\n{diff}",
                    exp.name, a.ops, a.trace_hash, b.trace_hash
                ),
                false,
            ))
        }
    }
}

/// Parses `repro divergence` arguments. `all`, or no name at all,
/// selects every registry entry in registry order.
fn parse_parent(args: &[String]) -> Result<ParentOpts, String> {
    let mut opts = ParentOpts {
        exps: Vec::new(),
        seed: 42,
        smoke: false,
        perturb: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return Err("--seed needs an integer".into()),
            },
            "--smoke" => opts.smoke = true,
            "--perturb" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.perturb = Some(v),
                None => return Err("--perturb needs an op index".into()),
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => return Err("--out needs a directory".into()),
            },
            "all" => opts.exps = REGISTRY.iter().collect(),
            other => match registry::find(other) {
                Some(e) => opts.exps.push(e),
                None => return Err(format!("unknown argument `{other}`")),
            },
        }
    }
    if opts.exps.is_empty() {
        opts.exps = REGISTRY.iter().collect();
    }
    Ok(opts)
}

/// Entry point for `repro divergence [NAME|all] [--seed N] [--smoke]
/// [--perturb K] [--out DIR]`, where NAME is a registry entry; with no
/// name, or `all`, every entry runs in registry order.
///
/// Exit codes mirror the witness's claim: 0 when every selected
/// experiment's two fresh-process runs are hash-identical (or, under
/// `--perturb K`, when the planted divergence was found and bisected);
/// 1 when the runs diverge (or a planted divergence went undetected);
/// 2 on bad arguments or a failed child.
pub fn parent_main(args: &[String]) -> i32 {
    let opts = match parse_parent(args) {
        Ok(o) => o,
        Err(msg) => return parent_usage(&msg),
    };

    let mut all_ok = true;
    let mut log = String::new();
    for &exp in &opts.exps {
        let (verdict, agreed) = match witness_one(&opts, exp) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("divergence: {e}");
                return 2;
            }
        };
        println!("divergence {verdict}");
        log.push_str(&verdict);
        log.push('\n');
        // Under --perturb the *expected* outcome is a detected divergence
        // at the planted index; silent agreement means the witness is
        // blind.
        let expected = match opts.perturb {
            None => agreed,
            Some(k) => !agreed && verdict.contains(&format!("at op {k} ")),
        };
        if let Some(k) = opts.perturb {
            if expected {
                println!(
                    "divergence {}: planted perturbation at op {k} was bisected correctly",
                    exp.name
                );
            } else {
                println!(
                    "divergence {}: planted perturbation at op {k} was NOT correctly located",
                    exp.name
                );
            }
        }
        all_ok &= expected;
    }
    if let Some(dir) = &opts.out {
        let path = dir.join("divergence.txt");
        if let Err(e) = write_atomic(&path, log.as_bytes()) {
            eprintln!("divergence: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    if all_ok {
        0
    } else {
        1
    }
}

fn parent_usage(msg: &str) -> i32 {
    eprintln!("divergence: {msg}");
    eprintln!(
        "usage: repro divergence [{}|all] [--seed N] [--smoke] [--perturb K] [--out DIR]",
        registry::choices()
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(name: &str, seed: u64, prefix: Option<u64>, perturb: Option<u64>) -> ChildReport {
        let entry = registry::find(name).unwrap_or_else(|| panic!("no entry {name}"));
        let opts = ChildOpts {
            entry,
            seed,
            smoke: true,
            prefix,
            dump: None,
            perturb,
            exit_early: false,
        };
        run_child(&opts).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn tap_reports_are_stable_in_process() {
        let (a, b) = (
            child("cluster", 7, None, None),
            child("cluster", 7, None, None),
        );
        assert!(a.ops > 0, "witness observed no ops");
        assert!(a.agrees_with(&b), "{a:?} vs {b:?}");
        assert_ne!(a.metrics_hash, 0, "the cluster job samples metrics");
    }

    #[test]
    fn seed_reaches_the_machines() {
        let (a, b) = (child("bench", 1, None, None), child("bench", 2, None, None));
        // The bench suite never crashes, so its op stream is
        // seed-independent — but the seed goes into every machine's
        // config, which the checkpoint carries.
        assert_eq!(a.ops, b.ops);
        assert_ne!(
            a.checkpoint_hash, b.checkpoint_hash,
            "different seeds must produce different machine configs"
        );
    }

    #[test]
    fn perturbed_child_diverges_and_prefix_isolates() {
        let run = |prefix, perturb| child("e15", 7, prefix, perturb);
        let clean = run(None, None);
        let planted = run(None, Some(5));
        assert_eq!(clean.ops, planted.ops);
        assert_ne!(clean.trace_hash, planted.trace_hash);
        // A prefix that stops before the perturbation agrees again.
        assert_eq!(
            run(Some(5), None).trace_hash,
            run(Some(5), Some(5)).trace_hash
        );
        assert_ne!(
            run(Some(6), None).trace_hash,
            run(Some(6), Some(5)).trace_hash
        );
    }

    #[test]
    fn all_selects_every_registry_entry_in_order() {
        let every: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        for args in [&["all"][..], &[], &["--smoke", "all", "--seed", "7"]] {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let opts = parse_parent(&args).expect("parses");
            let names: Vec<&str> = opts.exps.iter().map(|e| e.name).collect();
            assert_eq!(names, every, "args {args:?}");
        }
    }
}
