//! `repro divergence`: the dual-process determinism witness.
//!
//! The static half of the determinism contract (`simlint`) proves the
//! *code* cannot depend on unordered state; this module proves the *runs*
//! actually agree. `repro divergence <exp>` re-executes the `repro`
//! binary twice as `divergence-child` subprocesses with the same seed.
//! Separate processes mean separate SipHash keys, separate address-space
//! layouts, separate allocator histories — exactly the nondeterminism
//! sources that survive in-process double-run tests. Each child attaches
//! an [`OpStreamHasher`] as every machine's TraceSink and reports four
//! FNV-1a hashes: the op stream, the encoded machine checkpoints, the
//! `simwatch` JSONL rows, and the rendered result tables.
//!
//! On mismatch the parent bisects: children are re-run with `--prefix K`
//! (hash only the first K ops) and a binary search finds the first
//! divergent op index in ~2·log2(ops) re-runs; a final `--dump` pair
//! captures the rendered ops around that index for a two-sided diff.
//! `--perturb K` plants a deliberate divergence at op K in the second
//! child — the smoke mode uses it to prove the bisector actually works,
//! not just that nothing diverges.

use std::cell::RefCell;
use std::path::PathBuf;
use std::process::Command;

use harness::write_atomic;
use optane_core::trace::TraceSink;
use optane_core::Machine;
use simlint::witness::{
    bisect_first_divergence, compare_reports, fnv1a_bytes, render_diff, ChildReport,
    DivergenceOutcome, OpStreamHasher, SharedHasher, FNV_OFFSET,
};

use crate::common::{ExpError, ExpResult};
use crate::registry::{self, Entry, REGISTRY};

/// The tap an experiment threads through its measurement loops: a shared
/// op-stream hasher handed to every machine as its TraceSink, plus a
/// running hash of every machine's encoded checkpoint.
pub struct WitnessTap {
    hasher: SharedHasher,
    checkpoint_hash: RefCell<u64>,
}

impl WitnessTap {
    /// Wraps a configured hasher.
    pub fn new(h: OpStreamHasher) -> Self {
        WitnessTap {
            hasher: SharedHasher::new(h),
            checkpoint_hash: RefCell::new(FNV_OFFSET),
        }
    }

    /// A sink handle for one machine (all handles share one hasher, so
    /// the op stream is hashed in global simulation order).
    pub fn sink(&self) -> Box<dyn TraceSink> {
        Box::new(self.hasher.clone())
    }

    /// Folds a machine's encoded checkpoint into the state hash. Called
    /// by the experiment at the end of each machine's measurement.
    pub fn fold_machine(&self, m: &mut Machine) {
        let bytes = m.checkpoint().encode();
        self.fold_checkpoint_bytes(&bytes);
    }

    /// Folds an already-encoded checkpoint into the state hash — the
    /// cluster experiment hands back per-shard checkpoint blobs rather
    /// than exposing its machines.
    pub fn fold_checkpoint_bytes(&self, bytes: &[u8]) {
        let mut h = self.checkpoint_hash.borrow_mut();
        *h = fnv1a_bytes(*h, bytes);
    }

    /// Assembles the child's report from everything observed.
    pub fn report(&self, metrics_jsonl: Option<&str>, result_text: &str) -> ChildReport {
        let h = self.hasher.0.borrow();
        ChildReport {
            ops: h.ops(),
            trace_hash: h.hash(),
            checkpoint_hash: *self.checkpoint_hash.borrow(),
            metrics_hash: metrics_jsonl
                .map(|s| fnv1a_bytes(FNV_OFFSET, s.as_bytes()))
                .unwrap_or(0),
            result_hash: fnv1a_bytes(FNV_OFFSET, result_text.as_bytes()),
            dump: h.dumped().to_vec(),
        }
    }
}

/// Runs an experiment's witness workload under a tap at `(seed, smoke)`.
pub type Witness = fn(u64, bool, &WitnessTap) -> ChildText;

/// What a witness run hands back for hashing: the `simwatch` rows (if
/// sampled) and the rendered results.
pub struct ChildText {
    pub metrics_jsonl: Option<String>,
    pub text: String,
}

impl ChildText {
    /// `head`, then each result's table and CSV, then `tail`; the
    /// metrics are the first result's series that has one.
    pub(crate) fn of(head: String, results: &[ExpResult], tail: &str) -> ChildText {
        let mut text = head;
        for r in results {
            text.push_str(&r.to_table());
            text.push('\n');
            text.push_str(&r.to_csv());
        }
        text.push_str(tail);
        ChildText {
            metrics_jsonl: results.iter().find_map(|r| r.metrics_jsonl.clone()),
            text,
        }
    }

    /// A typed failure still yields a deterministic report: both
    /// children fail identically or the witness flags it.
    pub(crate) fn error(name: &str, e: ExpError) -> ChildText {
        ChildText {
            metrics_jsonl: None,
            text: format!("{name} error: {e}\n"),
        }
    }
}

struct ChildOpts {
    witness: Witness,
    seed: u64,
    smoke: bool,
    prefix: Option<u64>,
    dump: Option<(u64, u64)>,
    perturb: Option<u64>,
}

fn run_child(opts: &ChildOpts) -> ChildReport {
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
    let tap = WitnessTap::new(hasher);
    let out = (opts.witness)(opts.seed, opts.smoke, &tap);
    tap.report(out.metrics_jsonl.as_deref(), &out.text)
}

/// The registry entries that have a witness, in registry order.
fn witnessed() -> impl Iterator<Item = &'static Entry> {
    REGISTRY.iter().filter(|e| e.witness.is_some())
}

/// The `a|b|..` list of witnessed experiment names.
fn witnessed_choices() -> String {
    registry::choices(|e| e.witness.is_some())
}

/// Entry point for `repro divergence-child <exp> [flags]`. Prints the
/// wire-format report on stdout.
pub fn child_main(args: &[String]) -> i32 {
    let mut witness = None;
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
            other => match registry::find(other).and_then(|e| e.witness) {
                Some(w) => witness = Some(w),
                None => return child_usage(&format!("unknown argument `{other}`")),
            },
        }
    }
    let Some(witness) = witness else {
        return child_usage(&format!("which experiment? ({})", witnessed_choices()));
    };
    let opts = ChildOpts {
        witness,
        seed,
        smoke,
        prefix,
        dump,
        perturb,
    };
    print!("{}", run_child(&opts).to_wire());
    0
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

/// Spawns one child and parses its report. `extra` carries probe flags
/// (`--prefix`, `--dump`, `--perturb`).
fn spawn_child(opts: &ParentOpts, exp: &Entry, extra: &[String]) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("divergence-child")
        .arg(exp.name)
        .arg("--seed")
        .arg(opts.seed.to_string());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd.args(extra);
    let output = cmd
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    ChildReport::parse(&String::from_utf8_lossy(&output.stdout))
}

/// Runs the witness for one experiment: two fresh children, compare,
/// bisect on mismatch. Returns a human-readable verdict plus whether the
/// runs agreed.
fn witness_one(opts: &ParentOpts, exp: &Entry) -> Result<(String, bool), String> {
    let perturb_flags: Vec<String> = match opts.perturb {
        Some(k) => vec!["--perturb".into(), k.to_string()],
        None => Vec::new(),
    };
    let a = spawn_child(opts, exp, &[])?;
    let b = spawn_child(opts, exp, &perturb_flags)?;
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
                let pa = spawn_child(opts, exp, &probe)?;
                let mut pb = probe.clone();
                pb.extend(perturb_flags.iter().cloned());
                let pb = spawn_child(opts, exp, &pb)?;
                Ok(pa.trace_hash != pb.trace_hash)
            })?;
            let window = (idx.saturating_sub(3), idx + 4);
            let dump = vec![
                "--dump".to_string(),
                window.0.to_string(),
                window.1.to_string(),
            ];
            let da = spawn_child(opts, exp, &dump)?;
            let mut db = dump.clone();
            db.extend(perturb_flags.iter().cloned());
            let db = spawn_child(opts, exp, &db)?;
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

/// Entry point for `repro divergence [NAME|all] [--seed N] [--smoke]
/// [--perturb K] [--out DIR]`, where NAME is a registry entry with a
/// witness; with no name, or `all`, every such entry runs in registry
/// order.
///
/// Exit codes mirror the witness's claim: 0 when every selected
/// experiment's two fresh-process runs are hash-identical (or, under
/// `--perturb K`, when the planted divergence was found and bisected);
/// 1 when the runs diverge (or a planted divergence went undetected);
/// 2 on bad arguments or a failed child.
pub fn parent_main(args: &[String]) -> i32 {
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
                None => return parent_usage("--seed needs an integer"),
            },
            "--smoke" => opts.smoke = true,
            "--perturb" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.perturb = Some(v),
                None => return parent_usage("--perturb needs an op index"),
            },
            "--out" => match it.next() {
                Some(p) => opts.out = Some(PathBuf::from(p)),
                None => return parent_usage("--out needs a directory"),
            },
            "all" => opts.exps = witnessed().collect(),
            other => match witnessed().find(|e| e.name == other) {
                Some(e) => opts.exps.push(e),
                None => return parent_usage(&format!("unknown argument `{other}`")),
            },
        }
    }
    if opts.exps.is_empty() {
        opts.exps = witnessed().collect();
    }

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
        witnessed_choices()
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn witness_of(name: &str) -> Witness {
        registry::find(name)
            .and_then(|e| e.witness)
            .unwrap_or_else(|| panic!("{name} has no witness"))
    }

    #[test]
    fn tap_reports_are_stable_in_process() {
        let run = || {
            let opts = ChildOpts {
                witness: witness_of("e3"),
                seed: 7,
                smoke: true,
                prefix: None,
                dump: None,
                perturb: None,
            };
            run_child(&opts)
        };
        let (a, b) = (run(), run());
        assert!(a.ops > 0, "witness observed no ops");
        assert!(a.agrees_with(&b), "{a:?} vs {b:?}");
        assert_ne!(a.metrics_hash, 0, "e3 witness samples metrics");
    }

    #[test]
    fn seed_reaches_the_machines() {
        let run = |seed| {
            let opts = ChildOpts {
                witness: witness_of("e0"),
                seed,
                smoke: true,
                prefix: None,
                dump: None,
                perturb: None,
            };
            run_child(&opts)
        };
        let (a, b) = (run(1), run(2));
        // E0 never crashes, so the op stream is seed-independent — but the
        // checkpoint carries the config, so the seed must show up there.
        assert_eq!(a.ops, b.ops);
        assert_ne!(
            a.checkpoint_hash, b.checkpoint_hash,
            "different seeds must produce different machine configs"
        );
    }

    #[test]
    fn perturbed_child_diverges_and_prefix_isolates() {
        let run = |prefix, perturb| {
            let opts = ChildOpts {
                witness: witness_of("e0"),
                seed: 7,
                smoke: true,
                prefix,
                dump: None,
                perturb,
            };
            run_child(&opts)
        };
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
}
