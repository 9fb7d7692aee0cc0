//! `BENCHMARK.json`: the benchmark's declared workloads, metrics and
//! regression bounds.

use crate::json::{self, Value};
use crate::report::Better;

/// A declared end-to-end metric with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the tools use.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with bounds.
    pub end_to_end: Vec<Bounded>,
    /// Per-layer metrics: name, unit, direction.
    pub per_layer: Vec<(String, String, Better)>,
}

fn str_field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing string {key:?}"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing array {key:?}"))
}

impl Manifest {
    /// Parses `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let v = json::parse(text)?;
        let workloads = list(&v, "workloads")?
            .iter()
            .map(|w| str_field(w, "name", "workload").map(str::to_string))
            .collect::<Result<Vec<_>, _>>()?;
        let metric = |m: &Value, ctx: &str| -> Result<(String, String, Better), String> {
            let name = str_field(m, "name", ctx)?;
            let better = str_field(m, "better", name)?;
            Ok((
                name.to_string(),
                str_field(m, "unit", name)?.to_string(),
                Better::parse(better).ok_or_else(|| format!("{name}: bad \"better\""))?,
            ))
        };
        let end_to_end = list(&v, "end_to_end")?
            .iter()
            .map(|m| {
                let (name, unit, better) = metric(m, "end_to_end")?;
                let bound = m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}: missing bound"))?;
                Ok(Bounded {
                    name,
                    unit,
                    better,
                    bound,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_layer = list(&v, "per_layer")?
            .iter()
            .map(|m| metric(m, "per_layer"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest {
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_declared_lists() {
        let text = r#"{
          "command": ["x"], "paths": ["p"], "run_seconds": 1,
          "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
          "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
          "per_layer": [{"name": "x.y", "unit": "count", "better": "higher"}]
        }"#;
        let m = Manifest::parse(text).unwrap();
        assert_eq!(m.workloads, ["a", "b"]);
        assert_eq!(m.end_to_end[0].bound, 0.25);
        assert_eq!(m.per_layer[0].2, Better::Higher);
        assert!(Manifest::parse(&text.replace("\"lower\"", "\"down\"")).is_err());
    }
}
