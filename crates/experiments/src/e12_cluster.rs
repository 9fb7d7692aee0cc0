//! E12: fault-tolerant sharded PM cluster under load (extension).
//!
//! The paper characterizes one DIMM under one thread group; ROADMAP
//! item 3 asks what its buffering effects look like when many clients
//! hammer many machines *and keep getting answers through faults*. E12
//! sweeps offered load over a mixed G1/G2 shard fleet behind a router
//! with retries, hedged reads, circuit breakers, admission control, and
//! a DRAM front-cache — while a [`ClusterFaultPlan`] power-fails one
//! shard mid-traffic at every load point and drives recovery through
//! the crash-image + checkpoint path.
//!
//! Three results come out:
//!
//! - **availability vs load** — fraction of requests answered (served,
//!   explicitly shed, or deadline-failed; never hung) and the served /
//!   degraded split,
//! - **tail latency vs load per generation** — p50/p99 service latency
//!   for requests served by G1 vs G2 shards,
//! - **recovery vs load** — down-time distribution (outage + log
//!   replay) for the power-failed shard at each load point.
//!
//! The run also produces a plain-text availability report whose
//! markers (`power-fail`, `zero acknowledged-write loss`) the CI smoke
//! job greps, and op/cycle totals for the `BENCH_cluster.json`
//! perf baseline.

use cluster::{ClientConfig, ClusterFaultPlan, ClusterParams, NetParams};

use crate::common::{render_flat, Curve, ExpError, ExpResult, MetricsSpec};

/// E12 parameters. Defaults run in a few seconds.
#[derive(Debug, Clone)]
pub struct E12Params {
    /// Shard count (generations alternate G1/G2).
    pub n_shards: usize,
    /// Keys preloaded per run.
    pub preload_keys: u64,
    /// Client requests per load point.
    pub ops: u64,
    /// Mean inter-arrival ticks, one run per point (offered load =
    /// 1e6 / interarrival requests per Mtick).
    pub interarrival_points: Vec<u64>,
    /// Power-fail one shard mid-run at every load point.
    pub with_fault: bool,
    pub seed: u64,
    /// Sample fleet metrics at this interval.
    pub metrics: Option<MetricsSpec>,
}

impl Default for E12Params {
    fn default() -> Self {
        E12Params {
            n_shards: 4,
            preload_keys: 1_500,
            ops: 6_000,
            interarrival_points: vec![4_000, 2_000, 1_000, 500],
            with_fault: true,
            seed: 0,
            metrics: None,
        }
    }
}

impl E12Params {
    /// CI-scale parameters: one fast point plus one loaded point.
    pub fn smoke(seed: u64) -> Self {
        E12Params {
            preload_keys: 400,
            ops: 1_500,
            interarrival_points: vec![2_000, 800],
            seed,
            ..E12Params::default()
        }
    }
}

/// Everything one E12 run produced.
#[derive(Debug, Clone)]
pub struct E12Output {
    /// Availability, latency, and recovery results (figure shapes).
    pub results: Vec<ExpResult>,
    /// Deterministic plain-text availability report (all load points).
    pub availability_report: String,
    /// Requests served across all points (perf baseline numerator).
    pub sim_ops: u64,
    /// Simulated ticks across all points (perf baseline denominator).
    pub sim_cycles: u64,
    /// True when every point answered >= 99% of requests with zero
    /// acked-write loss and zero hung requests.
    pub validated: bool,
}

fn cluster_params(p: &E12Params, idx: usize, interarrival: u64) -> ClusterParams {
    let span = p.ops.saturating_mul(interarrival).max(1);
    let fault = if p.with_fault {
        // Fail a rotating shard ~40% into the expected run, down for
        // ~15% of it: mid-traffic, with time to recover and reintegrate.
        ClusterFaultPlan::power_fail_with_flap(
            idx % p.n_shards.max(1),
            span * 2 / 5,
            (span * 3 / 20).max(30_000),
        )
    } else {
        ClusterFaultPlan::none()
    };
    ClusterParams {
        n_shards: p.n_shards,
        log_slots: (p.preload_keys + p.ops).next_power_of_two().max(4_096),
        client: ClientConfig {
            preload_keys: p.preload_keys,
            ops: p.ops,
            interarrival,
            ..ClientConfig::default()
        },
        net: NetParams::default(),
        fault,
        seed: p.seed ^ ((idx as u64 + 1) << 8),
        metrics_interval: p.metrics.map(|m| m.interval),
        ..ClusterParams::default()
    }
}

/// Runs the sweep.
pub fn run(p: &E12Params) -> Result<E12Output, ExpError> {
    if p.interarrival_points.is_empty() {
        return Err(ExpError::BadParams("empty interarrival sweep".into()));
    }
    if p.n_shards == 0 {
        return Err(ExpError::BadParams("n_shards must be > 0".into()));
    }

    let mut avail = ExpResult::new(
        "E12 / cluster availability vs offered load",
        "req/Mtick",
        "% of requests",
    );
    let mut lat = ExpResult::new(
        "E12 / cluster tail latency vs offered load",
        "req/Mtick",
        "latency (ticks)",
    );
    let mut rec = ExpResult::new(
        "E12 / shard recovery vs offered load",
        "req/Mtick",
        "ticks / records",
    );
    let mut c_avail = Curve::new("availability %");
    let mut c_served = Curve::new("served %");
    let mut c_degraded = Curve::new("degraded %");
    let mut c_g1_p50 = Curve::new("G1 p50");
    let mut c_g1_p99 = Curve::new("G1 p99");
    let mut c_g2_p50 = Curve::new("G2 p50");
    let mut c_g2_p99 = Curve::new("G2 p99");
    let mut c_down = Curve::new("down time");
    let mut c_replay = Curve::new("replay cycles");
    let mut c_replayed = Curve::new("records replayed");

    let mut report_text = String::new();
    let mut metrics_all = String::new();
    let mut sim_ops = 0u64;
    let mut sim_cycles = 0u64;
    let mut validated = true;
    let mut down_times: Vec<u64> = Vec::new();

    for idx in 0..p.interarrival_points.len() {
        let interarrival = p.interarrival_points[idx];
        if interarrival == 0 {
            return Err(ExpError::BadParams("interarrival must be > 0".into()));
        }
        let r = cluster::run(cluster_params(p, idx, interarrival))
            .map_err(|e| ExpError::BadParams(format!("cluster point ia={interarrival}: {e}")))?;
        let load = 1e6 / interarrival as f64;
        c_avail.push(load, r.availability() * 100.0);
        c_served.push(load, r.served_fraction() * 100.0);
        c_degraded.push(
            load,
            if r.arrivals == 0 {
                0.0
            } else {
                r.served_degraded as f64 / r.arrivals as f64 * 100.0
            },
        );
        c_g1_p50.push(load, r.latency_g1.p50 as f64);
        c_g1_p99.push(load, r.latency_g1.p99 as f64);
        c_g2_p50.push(load, r.latency_g2.p50 as f64);
        c_g2_p99.push(load, r.latency_g2.p99 as f64);
        for rr in &r.recoveries {
            c_down.push(load, rr.total_ticks as f64);
            c_replay.push(load, rr.replay_cycles as f64);
            c_replayed.push(load, rr.replayed as f64);
            down_times.push(rr.total_ticks);
        }
        sim_ops += r.served_ok + r.served_degraded;
        sim_cycles += r.sim_end;
        validated &= r.lost_acked == 0 && r.unanswered == 0 && r.availability() >= 0.99;
        report_text.push_str(&format!(
            "## load point: interarrival {interarrival} ticks ({load:.1} req/Mtick)\n"
        ));
        report_text.push_str(&r.render());
        report_text.push('\n');
        if let Some(series) = &r.metrics_jsonl {
            metrics_all.push_str(series);
        }
    }

    avail.curves = vec![c_avail, c_served, c_degraded];
    avail.notes.push(format!(
        "every request answered: served, typed shed, or deadline error — never hung \
         (validated across {} load points)",
        p.interarrival_points.len()
    ));
    if !metrics_all.is_empty() {
        avail.metrics_jsonl = Some(metrics_all);
    }
    lat.curves = vec![c_g1_p50, c_g1_p99, c_g2_p50, c_g2_p99];
    rec.curves = vec![c_down, c_replay, c_replayed];
    if !down_times.is_empty() {
        let min = down_times.iter().min().copied().unwrap_or(0);
        let max = down_times.iter().max().copied().unwrap_or(0);
        let mean = down_times.iter().sum::<u64>() as f64 / down_times.len() as f64;
        rec.notes.push(format!(
            "recovery-time distribution over {} power-fails: min {min}, mean {mean:.0}, \
             max {max} ticks (outage + log replay)",
            down_times.len()
        ));
    }

    Ok(E12Output {
        results: vec![avail, lat, rec],
        availability_report: report_text,
        sim_ops,
        sim_cycles,
        validated,
    })
}

/// Renders the deterministic perf baseline (`BENCH_cluster.json`): simulated
/// fields only, byte-identical per seed. CI compares the file byte for
/// byte with the repo-root copy.
pub fn bench_json(out: &E12Output) -> String {
    render_flat("e12_cluster", out.sim_ops, out.sim_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_validates_and_reports_recovery() {
        let out = run(&E12Params::smoke(3)).expect("e12");
        assert!(out.validated, "report:\n{}", out.availability_report);
        assert!(out.availability_report.contains("power-fail"));
        assert!(out
            .availability_report
            .contains("zero acknowledged-write loss"));
        assert_eq!(out.results.len(), 3);
        let rec = &out.results[2];
        assert!(
            !rec.curves[0].points.is_empty(),
            "recovery curve must have points"
        );
        assert!(out.sim_ops > 0);
    }

    #[test]
    fn fault_free_baseline_also_validates() {
        let p = E12Params {
            with_fault: false,
            ..E12Params::smoke(1)
        };
        let out = run(&p).expect("e12");
        assert!(out.validated);
        assert!(!out.availability_report.contains("recovery: shard"));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&E12Params::smoke(9)).expect("a");
        let b = run(&E12Params::smoke(9)).expect("b");
        assert_eq!(a.availability_report, b.availability_report);
        assert_eq!(a.sim_ops, b.sim_ops);
        assert_eq!(a.sim_cycles, b.sim_cycles);
    }

    #[test]
    fn bad_params_are_typed() {
        let p = E12Params {
            interarrival_points: vec![],
            ..E12Params::default()
        };
        assert!(matches!(run(&p), Err(ExpError::BadParams(_))));
    }

    #[test]
    fn bench_json_shape() {
        let out = run(&E12Params::smoke(2)).expect("e12");
        let j = bench_json(&out);
        assert!(j.contains("\"experiment\": \"e12_cluster\""));
        assert!(j.contains(&format!("\"sim_ops\": {},", out.sim_ops)));
        assert!(!j.contains("wall"), "no host-dependent field");
    }
}
