//! The lint engine: file classification, test-region detection, allow
//! filtering, and the workspace walk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, AllowDirective, Tok};
use crate::rules::{self, Rule, Violation};

/// The crates whose `src/` holds simulator state or serialization paths.
/// The strict rules (unordered-state, wall-clock, unwrap-in-lib) apply
/// only here; float-accum-unordered and bare-allow apply workspace-wide.
pub const SIM_STATE_CRATES: [&str; 8] = [
    "simbase",
    "core",
    "dimm",
    "media",
    "memctl",
    "cache",
    "datastores",
    "cluster",
];

/// How a file is classified for rule selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source of a sim-state crate: all rules apply.
    SimState,
    /// Any other workspace source: only the workspace-wide rules apply.
    General,
    /// Test/bench/example code: only bare-allow applies (tests may use
    /// HashMaps and unwrap freely — they never run inside a simulation).
    Test,
}

/// Classifies a repo-relative path.
pub fn classify(rel: &str) -> FileClass {
    let p = rel.replace('\\', "/");
    let in_test_tree = p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("tests/")
        || p.starts_with("examples/");
    if in_test_tree {
        return FileClass::Test;
    }
    for c in SIM_STATE_CRATES {
        if p.starts_with(&format!("crates/{c}/src/")) {
            return FileClass::SimState;
        }
    }
    FileClass::General
}

/// Marks tokens inside `#[cfg(test)] mod … { … }` regions.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test"
            && toks[i + 5].text == ")"
            && toks[i + 6].text == "]";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {` (or an
        // attributed fn/impl — mark through its matching close brace
        // either way).
        let mut j = i + 7;
        while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Find the opening brace of the annotated item.
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text == ";" {
            i = j.max(i + 1);
            continue;
        }
        // Mark through the matching close brace.
        let mut depth = 0i32;
        let start = i;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let end = j.min(toks.len().saturating_sub(1));
        for s in skip.iter_mut().take(end + 1).skip(start) {
            *s = true;
        }
        i = end + 1;
    }
    skip
}

/// Computes the line range an allow directive covers: its own line plus
/// the statement that starts on the first code line after it (through the
/// statement's `;`, or through the line of its opening `{` for items).
fn allow_ranges(toks: &[Tok], allows: &[AllowDirective]) -> Vec<(AllowDirective, u32, u32)> {
    let mut out = Vec::new();
    for a in allows {
        let mut lo = a.line;
        let mut hi = a.line;
        if let Some(first) = toks.iter().position(|t| t.line > a.line) {
            lo = lo.min(toks[first].line);
            hi = hi.max(toks[first].line);
            let mut depth = 0i32;
            for t in &toks[first..] {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" => {
                        // An item body: the annotation covers up to the
                        // opening brace line only.
                        hi = hi.max(t.line);
                        break;
                    }
                    ";" if depth <= 0 => {
                        hi = hi.max(t.line);
                        break;
                    }
                    _ => {}
                }
                hi = hi.max(t.line);
            }
        }
        out.push((a.clone(), lo, hi));
    }
    out
}

/// Lints one file's source. `rel` is the repo-relative path used both for
/// classification and for reporting.
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let class = classify(rel);
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let mut skip = test_regions(toks);
    if class == FileClass::Test {
        skip.iter_mut().for_each(|s| *s = true);
    }

    let mut raw = Vec::new();
    if class == FileClass::SimState {
        rules::unordered_state(toks, &skip, &mut raw, rel);
        rules::wall_clock(toks, &skip, &mut raw, rel);
        rules::unwrap_in_lib(toks, &skip, &mut raw, rel);
    }
    if class != FileClass::Test {
        rules::float_accum_unordered(toks, &skip, &mut raw, rel);
    }

    // Apply allow directives: suppress matching violations inside each
    // directive's covered line range; flag bare or unknown-rule allows.
    let ranges = allow_ranges(toks, &lexed.allows);
    let mut out: Vec<Violation> = raw
        .into_iter()
        .filter(|v| {
            !ranges.iter().any(|(a, lo, hi)| {
                a.has_reason && a.rule == v.rule.name() && (*lo..=*hi).contains(&v.line)
            })
        })
        .collect();
    for a in &lexed.allows {
        if Rule::from_name(&a.rule).is_none() {
            out.push(Violation {
                file: rel.to_string(),
                line: a.line,
                rule: Rule::BareAllow,
                msg: format!("simlint::allow names unknown rule `{}`", a.rule),
            });
        } else if !a.has_reason {
            out.push(Violation {
                file: rel.to_string(),
                line: a.line,
                rule: Rule::BareAllow,
                msg: format!(
                    "simlint::allow({}) without a reason; write \
                     simlint::allow({}, why this is safe)",
                    a.rule, a.rule
                ),
            });
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// A workspace lint run's findings.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All violations, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the workspace satisfies the contract.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts per rule, for the summary line.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.rule.name()).or_insert(0) += 1;
        }
        m
    }
}

/// Directories never scanned: vendored stand-ins, build output, results.
const EXCLUDED_DIRS: [&str; 5] = ["third_party", "target", "results", ".git", ".github"];

/// Walks the workspace at `root` and lints every `.rs` file outside the
/// excluded trees.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut report = LintReport::default();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        report.violations.extend(lint_source(&rel_str, &src));
        report.files_scanned += 1;
    }
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(report)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/core/src/machine.rs"), FileClass::SimState);
        assert_eq!(classify("crates/media/src/store.rs"), FileClass::SimState);
        assert_eq!(
            classify("crates/simbase/src/addrmap.rs"),
            FileClass::SimState
        );
        assert_eq!(classify("crates/harness/src/lib.rs"), FileClass::General);
        assert_eq!(classify("crates/core/tests/crash.rs"), FileClass::Test);
        assert_eq!(classify("tests/paper_claims.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/benches/figures.rs"), FileClass::Test);
    }

    #[test]
    fn sim_state_hashmap_is_flagged_test_mod_is_not() {
        let src = "use std::collections::HashMap;\n\
                   #[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n\
                   fn f() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn general_crate_hashmap_is_fine() {
        let v = lint_source("crates/harness/src/x.rs", "use std::collections::HashMap;");
        assert!(v.is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_next_statement() {
        let src = "// simlint::allow(unordered-state, leaf cache, never iterated)\n\
                   struct S { m: HashMap<u64, u8> }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_covers_multiline_statement_after_attribute() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // simlint::allow(unwrap-in-lib, invariant: x is Some here,\n\
                   // a None is a model bug worth aborting on)\n\
                   #[allow(clippy::expect_used)]\n\
                   let v = x\n        .expect(\"present\");\n    v\n}\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn bare_allow_is_itself_a_violation() {
        let src = "// simlint::allow(unordered-state)\nstruct S { m: HashMap<u64, u8> }\n";
        let v = lint_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 2, "bare allow does not suppress: {v:?}");
        assert!(v.iter().any(|v| v.rule == Rule::BareAllow));
        assert!(v.iter().any(|v| v.rule == Rule::UnorderedState));
    }

    #[test]
    fn unknown_rule_allow_is_flagged() {
        let v = lint_source(
            "crates/harness/src/x.rs",
            "// simlint::allow(no-such-rule, because)\nfn f() {}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::BareAllow);
    }

    #[test]
    fn wall_clock_and_unwrap_fire_in_sim_crates_only() {
        let src = "fn f() { let t = Instant::now(); t.elapsed().unwrap(); }";
        assert_eq!(lint_source("crates/dimm/src/x.rs", src).len(), 2);
        assert!(lint_source("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_accum_fires_workspace_wide() {
        let src = "fn f() -> f64 { let mut m = HashMap::new(); m.insert(1, 0.5); \
                   m.values().sum::<f64>() }";
        let v = lint_source("crates/obs/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatAccumUnordered);
    }
}
