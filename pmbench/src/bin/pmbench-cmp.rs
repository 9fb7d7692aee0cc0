//! `pmbench-cmp`: judges a change against its parent from paired runs.
//!
//! ```text
//! pmbench-cmp BENCHMARK.json PARENT_DIR CHANGE_DIR
//! ```
//!
//! Each directory holds the report files `pmbench --out` wrote, one per
//! run. Reports are grouped by workload and paired in file-name order:
//! the i-th parent report of a workload with the i-th change report.
//! Every end-to-end metric of the manifest gets both sides' quartiles,
//! the pair tally and a verdict (see `pmbench::pairs`). Exits 1 when any
//! metric regressed, 2 on unusable input, 0 otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use pmbench::manifest::Manifest;
use pmbench::pairs::{judge, Verdict};
use pmbench::report::Report;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [manifest, parent, change] = args.as_slice() else {
        eprintln!("usage: pmbench-cmp BENCHMARK.json PARENT_DIR CHANGE_DIR");
        return ExitCode::from(2);
    };
    match run(Path::new(manifest), Path::new(parent), Path::new(change)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pmbench-cmp: {e}");
            ExitCode::from(2)
        }
    }
}

/// Reports in `dir`, grouped by workload, each group in file-name order.
fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Report>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut groups: BTreeMap<String, Vec<Report>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let r = Report::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        if !r.correct {
            return Err(format!("{}: the run failed its checks", f.display()));
        }
        groups.entry(r.workload.clone()).or_default().push(r);
    }
    Ok(groups)
}

fn run(manifest: &Path, parent: &Path, change: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let manifest = Manifest::parse(&text)?;
    let (parent, change) = (load(parent)?, load(change)?);
    let mut no_regression = true;
    println!(
        "{:8} {:15} {:>33} {:>33} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "parent q1 / median / q3",
        "change q1 / median / q3",
        "w/l/t",
        "worse"
    );
    for w in &manifest.workloads {
        let (Some(p), Some(c)) = (parent.get(w), change.get(w)) else {
            return Err(format!("no reports for workload {w} on both sides"));
        };
        for m in &manifest.end_to_end {
            let values = |rs: &[Report]| -> Result<Vec<f64>, String> {
                rs.iter()
                    .map(|r| {
                        r.metric(&m.name)
                            .ok_or(format!("{w}: a report lacks {}", m.name))
                    })
                    .collect()
            };
            let j = judge(&values(p)?, &values(c)?, m.better, m.bound)
                .map_err(|e| format!("{w} {}: {e}", m.name))?;
            no_regression &= j.verdict != Verdict::Regressed;
            let q = |s: [f64; 3]| format!("{:.4e} {:.4e} {:.4e}", s[0], s[1], s[2]);
            println!(
                "{:8} {:15} {:>33} {:>33} {:>8} {:>+7.2}%  {}",
                w,
                m.name,
                q(j.parent),
                q(j.change),
                format!("{}/{}/{}", j.wins, j.losses, j.ties),
                j.worse_by * 100.0,
                j.verdict.as_str()
            );
        }
    }
    Ok(no_regression)
}
