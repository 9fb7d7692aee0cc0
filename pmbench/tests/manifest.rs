//! `BENCHMARK.json` at the repository root declares what this benchmark
//! emits; these checks keep the two from drifting apart.

use pmbench::json::{self, Value};
use pmbench::manifest::Manifest;
use pmbench::report::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};

fn manifest_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn manifest_has_exactly_the_declared_shape() {
    let v = json::parse(&manifest_text()).expect("valid JSON");
    assert_eq!(
        keys(&v),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = |k: &str| v.get(k).and_then(Value::as_arr).expect(k).to_vec();
    for w in list("workloads") {
        assert_eq!(keys(&w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
    }
    for m in list("end_to_end") {
        assert_eq!(keys(&m), ["name", "unit", "better", "bound"]);
    }
    for m in list("per_layer") {
        assert_eq!(keys(&m), ["name", "unit", "better"]);
    }
    let secs = v
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

#[test]
fn names_are_valid_and_counts_in_range() {
    let m = Manifest::parse(&manifest_text()).expect("parses");
    assert!((2..=8).contains(&m.workloads.len()));
    assert!((1..=16).contains(&m.end_to_end.len()));
    assert!((1..=128).contains(&m.per_layer.len()));
    let names = m
        .workloads
        .iter()
        .chain(m.end_to_end.iter().map(|e| &e.name))
        .chain(m.per_layer.iter().map(|p| &p.0));
    for n in names {
        assert!(valid_name(n) && n.len() <= 64, "bad name {n:?}");
    }
    for e in &m.end_to_end {
        assert!(
            e.bound > 0.0 && e.bound <= 0.25,
            "{}: bound {}",
            e.name,
            e.bound
        );
    }
    let setup = m
        .end_to_end
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s");
    assert!(m.end_to_end.iter().all(|e| e.bound <= setup.bound));
}

#[test]
fn manifest_names_equal_what_the_renderer_emits() {
    let m = Manifest::parse(&manifest_text()).expect("parses");
    assert_eq!(m.workloads, WORKLOADS);
    let e2e: Vec<_> = m
        .end_to_end
        .iter()
        .map(|e| (e.name.as_str(), e.unit.as_str(), e.better))
        .collect();
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .collect();
    assert_eq!(e2e, want);
    let layers: Vec<_> = m
        .per_layer
        .iter()
        .map(|(n, u, b)| (n.as_str(), u.as_str(), *b))
        .collect();
    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .collect();
    assert_eq!(layers, want);
}
