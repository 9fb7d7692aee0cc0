//! End-to-end drills for the supervised `repro` binary.
//!
//! These run the real executable (via `CARGO_BIN_EXE_repro`) against a
//! temp results directory and assert the robustness contract: an
//! injected panic or hang becomes a typed failure record in
//! `manifest.json` plus a nonzero exit while sibling jobs still produce
//! their artifacts, and a failed run restarted with `--resume` ends up
//! byte-identical to a run that never failed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use harness::JsonValue;

fn run_repro(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn manifest_job<'a>(manifest: &'a JsonValue, job: &str) -> &'a JsonValue {
    manifest
        .get("jobs")
        .and_then(|j| j.get(job))
        .unwrap_or_else(|| panic!("job {job} missing from manifest"))
}

fn load_manifest(out: &Path) -> JsonValue {
    let text = std::fs::read_to_string(out.join("manifest.json")).expect("manifest.json exists");
    JsonValue::parse(&text).expect("manifest.json parses")
}

/// Byte-compare every results file except the manifest, whose timings
/// are allowed to differ between runs.
fn assert_results_identical(a: &Path, b: &Path) {
    let mut names: Vec<String> = std::fs::read_dir(a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n != "manifest.json")
        .collect();
    names.sort();
    assert!(
        names.iter().any(|n| n == "report.txt"),
        "reference run produced no report.txt"
    );
    for name in names {
        let fa = std::fs::read(a.join(&name)).unwrap();
        let fb = std::fs::read(b.join(&name))
            .unwrap_or_else(|e| panic!("{name} missing from resumed run: {e}"));
        assert_eq!(fa, fb, "{name} differs between runs");
    }
}

#[test]
fn injected_panic_is_a_typed_failure_and_siblings_still_complete() {
    let out = temp_out("panic");
    let run = run_repro(
        &[
            "e1",
            "--gen",
            "both",
            "--smoke",
            "--parallel",
            "2",
            "--inject",
            "panic:e1:g2",
        ],
        &out,
    );
    assert_eq!(run.status.code(), Some(1), "a failed job must exit nonzero");

    let manifest = load_manifest(&out);
    let failed = manifest_job(&manifest, "e1:g2");
    assert_eq!(
        failed.get("status").and_then(JsonValue::as_str),
        Some("failed")
    );
    assert_eq!(
        failed.get("error_kind").and_then(JsonValue::as_str),
        Some("panic")
    );
    let ok = manifest_job(&manifest, "e1:g1");
    assert_eq!(ok.get("status").and_then(JsonValue::as_str), Some("done"));
    let artifacts = ok.get("artifacts").and_then(JsonValue::as_array).unwrap();
    assert!(
        !artifacts.is_empty(),
        "completed sibling recorded no artifacts"
    );
    for art in artifacts {
        let rel = art.as_str().unwrap();
        assert!(out.join(rel).exists(), "artifact {rel} missing on disk");
    }
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn injected_hang_hits_the_deadline_with_a_timeout_record() {
    let out = temp_out("hang");
    let run = run_repro(
        &[
            "e1",
            "--gen",
            "both",
            "--smoke",
            "--parallel",
            "2",
            "--deadline",
            "2",
            "--inject",
            "hang:e1:g2",
        ],
        &out,
    );
    assert_eq!(run.status.code(), Some(1));

    let manifest = load_manifest(&out);
    let hung = manifest_job(&manifest, "e1:g2");
    assert_eq!(
        hung.get("status").and_then(JsonValue::as_str),
        Some("failed")
    );
    assert_eq!(
        hung.get("error_kind").and_then(JsonValue::as_str),
        Some("timeout")
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn resume_after_a_failure_is_byte_identical_to_an_uninterrupted_run() {
    let reference = temp_out("resume-ref");
    let run = run_repro(
        &[
            "e1",
            "--gen",
            "both",
            "--smoke",
            "--parallel",
            "2",
            "--seed",
            "5",
        ],
        &reference,
    );
    assert_eq!(run.status.code(), Some(0), "reference run failed");

    // Same matrix, same seed, but e1:g2 panics on the first pass.
    let resumed = temp_out("resume-cut");
    let run = run_repro(
        &[
            "e1",
            "--gen",
            "both",
            "--smoke",
            "--parallel",
            "2",
            "--seed",
            "5",
            "--inject",
            "panic:e1:g2",
        ],
        &resumed,
    );
    assert_eq!(run.status.code(), Some(1));

    // --resume skips the completed job and re-runs only the failed one.
    let run = run_repro(
        &[
            "e1",
            "--gen",
            "both",
            "--smoke",
            "--parallel",
            "2",
            "--seed",
            "5",
            "--resume",
        ],
        &resumed,
    );
    assert_eq!(run.status.code(), Some(0), "resume run failed");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("(1 resumed as complete)"),
        "resume did not skip the completed job: {stderr}"
    );

    assert_results_identical(&reference, &resumed);
    std::fs::remove_dir_all(&reference).ok();
    std::fs::remove_dir_all(&resumed).ok();
}

#[test]
fn bad_arguments_exit_2() {
    for args in [
        &["--bogus-flag"][..],
        &["e1", "--inject", "explode:e1:g1"][..],
        &["e1", "--inject", "panic:no-such-job"][..],
        &["no-such-experiment"][..],
        &["e1", "--full", "--smoke"][..],
        &["e0", "no-such-experiment"][..],
        &["e1", "--gen"][..],
        &["e1", "--metrics", "--smoke"][..],
        &["e1", "--out", "--smoke"][..],
    ] {
        let out = temp_out("badargs");
        let run = run_repro(args, &out);
        assert_eq!(
            run.status.code(),
            Some(2),
            "args {args:?} should be rejected"
        );
        std::fs::remove_dir_all(&out).ok();
    }
}
