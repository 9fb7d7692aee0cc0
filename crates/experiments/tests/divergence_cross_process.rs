//! Cross-process determinism: the tentpole guarantee, tested end to end.
//!
//! Two *separate* child processes (fresh SipHash keys, fresh address
//! space) run the same registry entry's smoke jobs at the same seed; their
//! trace hashes, checkpoint bytes, and metrics JSONL must agree bit for
//! bit. The bisection tests use `e15`, the cheapest entry that crosses
//! the multi-thread executor.
//! A third process with a planted perturbation must disagree — otherwise
//! the witness is vacuous. Finally the full parent-side bisector is
//! driven through `repro divergence --perturb` to prove it locates the
//! planted op.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn child_stdout(args: &[&str]) -> String {
    let out = repro()
        .args(["divergence-child"])
        .args(args)
        .output()
        .expect("spawn repro divergence-child");
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Extracts the `key=value` report fields from child stdout.
fn fields(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("divergence-child: "))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[test]
fn two_processes_same_seed_are_hash_identical() {
    for exp in ["e15", "e3", "cluster"] {
        let a = child_stdout(&[exp, "--seed", "7", "--smoke"]);
        let b = child_stdout(&[exp, "--seed", "7", "--smoke"]);
        assert_eq!(
            fields(&a),
            fields(&b),
            "{exp}: two fresh processes at the same seed must report \
             identical trace/checkpoint/metrics/result hashes"
        );
        // The comparison is meaningful: a real stream was hashed.
        let f = fields(&a);
        let ops = f.iter().find(|(k, _)| k == "ops").map(|(_, v)| v.clone());
        assert!(
            ops.as_deref()
                .is_some_and(|v| v.parse::<u64>().unwrap_or(0) > 100),
            "{exp}: witness saw a real op stream, got ops={ops:?}"
        );
    }
}

#[test]
fn metrics_hash_is_cross_process_stable_and_nonzero() {
    let a = child_stdout(&["rebalance", "--seed", "3", "--smoke"]);
    let get = |s: &str, key: &str| {
        fields(s)
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_default()
    };
    assert_ne!(
        get(&a, "metrics_hash"),
        "0x0000000000000000",
        "the rebalance job must hash a real simwatch series"
    );
    let b = child_stdout(&["rebalance", "--seed", "3", "--smoke"]);
    assert_eq!(get(&a, "metrics_hash"), get(&b, "metrics_hash"));
    assert_eq!(get(&a, "checkpoint_hash"), get(&b, "checkpoint_hash"));
}

#[test]
fn planted_perturbation_is_visible_across_processes() {
    let clean = child_stdout(&["e15", "--seed", "7", "--smoke"]);
    let planted = child_stdout(&["e15", "--seed", "7", "--smoke", "--perturb", "17"]);
    let get = |s: &str, key: &str| {
        fields(s)
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_default()
    };
    assert_eq!(get(&clean, "ops"), get(&planted, "ops"));
    assert_ne!(
        get(&clean, "trace_hash"),
        get(&planted, "trace_hash"),
        "a planted divergence must change the trace hash"
    );
}

#[test]
fn parent_bisects_planted_divergence_to_the_exact_op() {
    // `--perturb K` makes the parent *expect* a divergence bisected to
    // exactly op K; exit 0 is the bisector's proof of correctness.
    let out = repro()
        .args([
            "divergence",
            "e15",
            "--seed",
            "7",
            "--smoke",
            "--perturb",
            "23",
        ])
        .output()
        .expect("spawn repro divergence");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "bisector did not locate the planted op:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("DIVERGED at op 23"),
        "expected bisection to op 23:\n{stdout}"
    );
    assert!(
        stdout.contains("first divergence"),
        "expected a two-sided diff marker:\n{stdout}"
    );
}

#[test]
fn parent_reports_agreement_for_clean_runs() {
    let out = repro()
        .args(["divergence", "e15", "--seed", "9", "--smoke"])
        .output()
        .expect("spawn repro divergence");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "clean dual run must agree:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("two fresh processes agree"),
        "expected agreement verdict:\n{stdout}"
    );
}

#[test]
fn unwritable_out_dir_exits_2() {
    // `--out` below a regular file cannot be created, so the witness
    // must not report success without its `divergence.txt`.
    let file = std::env::temp_dir().join(format!("divergence-out-file-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("create blocker file");
    let out = repro()
        .args(["divergence", "e15", "--seed", "9", "--smoke", "--out"])
        .arg(file.join("sub"))
        .output()
        .expect("spawn repro divergence");
    std::fs::remove_file(&file).ok();
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
