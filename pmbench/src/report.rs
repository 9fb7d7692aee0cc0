//! The metric catalog and the report format.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names:
//! the benchmark emits exactly these, in this order, and a test checks
//! that `BENCHMARK.json` names the same ones. A [`Report`] is one
//! workload's result; it renders as the one-line JSON object the
//! benchmark prints last (`correct`, `attempted`, `failed`, `metrics`)
//! and, with its context, as a report file that `pmbench-cmp` reads.

use crate::json::{self, Value};

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["stream", "chase", "bufmix", "kv"];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// Parses the manifest spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the simulator sees: the host cost of a run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "op/s"),
    lower("window_ms_p50", "ms"),
    lower("window_ms_p99", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// One metric per layer boundary. Host rows come from the traced run;
/// simulated rows are deltas over the first timed round. The modeled
/// design's own end-to-end number, `sim_cycles_per_op`, leads the list:
/// it is deterministic, so it is compared bit for bit rather than within
/// a bound.
pub const PER_LAYER: &[MetricDef] = &[
    lower("sim_cycles_per_op", "cycles"),
    lower("core.load.ns_p50", "ns"),
    lower("core.load.ns_p99", "ns"),
    lower("core.load.calls", "count"),
    lower("core.store.ns_p50", "ns"),
    lower("core.store.ns_p99", "ns"),
    lower("core.store.calls", "count"),
    lower("core.nt_store.ns_p50", "ns"),
    lower("core.nt_store.ns_p99", "ns"),
    lower("core.nt_store.calls", "count"),
    lower("core.flush.ns_p50", "ns"),
    lower("core.flush.ns_p99", "ns"),
    lower("core.flush.calls", "count"),
    lower("core.fence.ns_p50", "ns"),
    lower("core.fence.ns_p99", "ns"),
    lower("core.fence.calls", "count"),
    lower("core.busy_share", "fraction"),
    lower("core.exec_self_share", "fraction"),
    lower("datastores.get.us_p50", "us"),
    lower("datastores.get.us_p99", "us"),
    lower("datastores.put.us_p50", "us"),
    lower("datastores.put.us_p99", "us"),
    lower("datastores.self_share", "fraction"),
    lower("datastores.env_calls_per_req", "count"),
    lower("workloads.gen_s", "s"),
    higher("cache.l1_hit_ratio", "fraction"),
    higher("cache.l2_hit_ratio", "fraction"),
    higher("cache.l3_hit_ratio", "fraction"),
    higher("cache.prefetch_fills", "count"),
    lower("memctl.read_bytes", "bytes"),
    lower("memctl.write_bytes", "bytes"),
    lower("memctl.rpq_accepts", "count"),
    lower("memctl.wpq_accepts", "count"),
    lower("memctl.wpq_stall_cycles", "cycles"),
    lower("memctl.rpq_max_depth", "count"),
    lower("memctl.wpq_max_depth", "count"),
    higher("dimm.rb_hit_ratio", "fraction"),
    higher("dimm.wb_hit_ratio", "fraction"),
    higher("dimm.ait_hit_ratio", "fraction"),
    lower("dimm.rmw_reads", "count"),
    lower("dimm.wb_evictions", "count"),
    lower("dimm.periodic_writebacks", "count"),
    higher("dimm.write_absorption", "fraction"),
    lower("media.read_bytes", "bytes"),
    lower("media.write_bytes", "bytes"),
    lower("media.read_amp", "fraction"),
    lower("media.write_amp", "fraction"),
    lower("core.persist_epochs", "count"),
    lower("bench.self_share", "fraction"),
    lower("bench.trace_overhead", "fraction"),
];

/// Looks a metric up in either list.
pub fn find_metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// `true` when `name` is non-empty and uses only `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One workload's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Metric values in catalog order, with units.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// The value of metric `name`, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn body(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(n),
                    json::num(*v),
                    json::quote(u)
                )
            })
            .collect();
        format!(
            "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!("{{{}}}", self.body())
    }

    /// The report file: the result line's keys plus `workload` and
    /// `seed`, so reports can be grouped and paired later.
    pub fn to_file(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, {}}}\n",
            json::quote(&self.workload),
            self.seed,
            self.body()
        )
    }

    /// Parses a report file or a result line (which lacks `workload` and
    /// `seed`; they come back empty and 0).
    pub fn parse(text: &str) -> Result<Report, String> {
        let v = json::parse(text.trim())?;
        let count = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing or bad {key:?}"))
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("missing or bad \"correct\"".to_string()),
        };
        let members = v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("missing \"metrics\" object")?;
        let mut metrics = Vec::with_capacity(members.len());
        for (name, m) in members {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name:?}: missing value"))?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("metric {name:?}: missing unit"))?;
            metrics.push((name.clone(), value, unit.to_string()));
        }
        Ok(Report {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            seed: if v.get("seed").is_some() {
                count("seed")?
            } else {
                0
            },
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            workload: "kv".into(),
            seed: 2,
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name.to_string(), 0.1 * (i + 1) as f64, m.unit.to_string()))
                .collect(),
        }
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n) && n.len() <= 64, "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric name");
        assert!(find_metric("setup_s").is_some());
        assert!(!valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn report_file_round_trips() {
        let r = sample();
        assert_eq!(Report::parse(&r.to_file()).unwrap(), r);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = sample();
        let v = json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let back = Report::parse(&r.result_line()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.workload.as_str(), back.seed), ("", 0));
    }

    #[test]
    fn parse_rejects_incomplete_reports() {
        assert!(Report::parse("{\"correct\": true, \"attempted\": 1}").is_err());
        assert!(Report::parse(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(Report::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }
}
