//! E13: replicated rebalance under fire (extension).
//!
//! E12 asks whether a sharded PM fleet keeps answering while a shard
//! power-fails; E13 asks the harder operational question: can the fleet
//! *move a keyspace* between DIMM generations while serving zipfian
//! traffic, and survive a power-fail at any phase of the move? Each
//! drill point runs the full replicated cluster — epoch-fenced routing,
//! quorum writes, anti-entropy repair — with a live migration draining
//! keyslices from a G1 shard onto a G2 shard, and (except the baseline)
//! a seeded power-fail striking a migration participant at one protocol
//! phase boundary (`Prepare`/`Copy`/`CatchUp`/`Flip`/`Retire`).
//!
//! Three results come out:
//!
//! - **availability per drill** — fraction of requests answered, plus
//!   the served/degraded split, while the copy stream competes with
//!   foreground traffic and crashes land mid-protocol,
//! - **G1 vs G2 tail latency per drill** — p50/p99 for requests served
//!   by each generation; the move shifts load from the G1 source onto
//!   the G2 destination mid-run,
//! - **migration + repair accounting per drill** — slices moved vs
//!   aborted, copy-stream records, control records, copies resumed,
//!   torn flips committed, and anti-entropy repair traffic.
//!
//! Every drill re-checks the three rebalance oracles (zero acked-write
//! loss, no stale-epoch ack, exactly-once ownership) and the rendered
//! report carries the same grep-able markers CI relies on for e12.

use cluster::{
    ClientConfig, ClusterFaultPlan, ClusterParams, ClusterReport, MigrationFailTarget,
    MigrationPhase, MigrationPlan, ReplicationParams,
};

use crate::common::{render_flat, Curve, ExpError, ExpResult, MetricsSpec};
use crate::divergence::WitnessTap;

/// One drill: a run with (or without) a seeded mid-migration crash.
#[derive(Debug, Clone, Copy)]
pub struct Drill {
    pub label: &'static str,
    /// `None` is the fault-free migration baseline.
    pub fault: Option<(MigrationPhase, MigrationFailTarget)>,
}

/// The canonical drill card: baseline plus one strike at every phase
/// boundary, covering source, destination, and both-down crashes.
pub const FULL_DRILLS: &[Drill] = &[
    Drill {
        label: "baseline",
        fault: None,
    },
    Drill {
        label: "prepare/source",
        fault: Some((MigrationPhase::Prepare, MigrationFailTarget::Source)),
    },
    Drill {
        label: "copy/source",
        fault: Some((MigrationPhase::Copy, MigrationFailTarget::Source)),
    },
    Drill {
        label: "copy/dest",
        fault: Some((MigrationPhase::Copy, MigrationFailTarget::Dest)),
    },
    Drill {
        label: "catchup/source",
        fault: Some((MigrationPhase::CatchUp, MigrationFailTarget::Source)),
    },
    Drill {
        label: "flip/both",
        fault: Some((MigrationPhase::Flip, MigrationFailTarget::Both)),
    },
    Drill {
        label: "retire/source",
        fault: Some((MigrationPhase::Retire, MigrationFailTarget::Source)),
    },
];

/// E13 parameters. Defaults run in a few seconds.
#[derive(Debug, Clone)]
pub struct E13Params {
    /// Shard count (generations alternate G1/G2; the plan drains shard
    /// 0 (G1) onto shard 1 (G2)).
    pub n_shards: usize,
    /// Keyslices across the fleet.
    pub n_slices: usize,
    /// Replicas per slice (writes ack at quorum).
    pub replicas: usize,
    /// Keys preloaded per drill.
    pub preload_keys: u64,
    /// Client requests per drill.
    pub ops: u64,
    /// Mean inter-arrival ticks (zipfian open-loop load).
    pub interarrival: u64,
    /// Anti-entropy cadence in ticks.
    pub repair_interval: u64,
    /// The drill card; each entry is one full cluster run.
    pub drills: Vec<Drill>,
    pub seed: u64,
    /// Sample fleet metrics at this interval.
    pub metrics: Option<MetricsSpec>,
}

impl Default for E13Params {
    fn default() -> Self {
        E13Params {
            n_shards: 4,
            n_slices: 8,
            replicas: 2,
            preload_keys: 1_000,
            ops: 4_000,
            interarrival: 1_000,
            repair_interval: 150_000,
            drills: FULL_DRILLS.to_vec(),
            seed: 0,
            metrics: None,
        }
    }
}

impl E13Params {
    /// CI-scale parameters: baseline, the mid-Copy source strike, and
    /// the torn-flip both-down strike.
    pub fn smoke(seed: u64) -> Self {
        E13Params {
            preload_keys: 300,
            ops: 1_200,
            drills: vec![FULL_DRILLS[0], FULL_DRILLS[2], FULL_DRILLS[5]],
            seed,
            ..E13Params::default()
        }
    }
}

/// Everything one E13 run produced.
#[derive(Debug, Clone)]
pub struct E13Output {
    /// Availability, latency, and migration-accounting results.
    pub results: Vec<ExpResult>,
    /// Deterministic plain-text report, one section per drill.
    pub rebalance_report: String,
    /// Requests served across all drills (perf baseline numerator).
    pub sim_ops: u64,
    /// Simulated ticks across all drills (perf baseline denominator).
    pub sim_cycles: u64,
    /// True when every drill held the three rebalance oracles, finished
    /// its migration, answered every request, and kept availability
    /// at 99% or better.
    pub validated: bool,
}

fn drill_params(p: &E13Params, idx: usize, drill: &Drill) -> ClusterParams {
    let span = p.ops.saturating_mul(p.interarrival).max(1);
    let start_at = span / 5; // migration starts 20% into the run
    let fault = match drill.fault {
        // Flap the network around the expected strike window so the
        // crash lands under message loss, the adversarial case.
        Some((phase, target)) => {
            ClusterFaultPlan::migration_fail_with_flap(phase, target, start_at, span / 3)
        }
        None => ClusterFaultPlan::none(),
    };
    ClusterParams {
        n_shards: p.n_shards,
        log_slots: (p.preload_keys + p.ops)
            .saturating_mul(p.replicas as u64 + 1)
            .next_power_of_two()
            .max(4_096),
        client: ClientConfig {
            preload_keys: p.preload_keys,
            ops: p.ops,
            interarrival: p.interarrival,
            ..ClientConfig::default()
        },
        replication: ReplicationParams {
            n_slices: p.n_slices,
            replicas: p.replicas,
        },
        migration: Some(MigrationPlan::drain(0, 1 % p.n_shards.max(1), start_at)),
        repair_interval: Some(p.repair_interval.max(1)),
        fault,
        seed: p.seed ^ ((idx as u64 + 1) << 8),
        metrics_interval: p.metrics.map(|m| m.interval),
        ..ClusterParams::default()
    }
}

fn drill_report(
    p: &E13Params,
    idx: usize,
    tap: Option<&WitnessTap>,
) -> Result<ClusterReport, ExpError> {
    let params = drill_params(p, idx, &p.drills[idx]);
    let report = match tap {
        Some(t) => {
            let factory = |_shard: usize| t.sink();
            cluster::run_traced(params, Some(&factory))
        }
        None => cluster::run(params),
    }
    .map_err(|e| ExpError::BadParams(format!("rebalance drill {idx}: {e}")))?;
    if let Some(t) = tap {
        for blob in &report.checkpoint_blobs {
            t.fold_checkpoint_bytes(blob);
        }
    }
    Ok(report)
}

/// Runs the drill card. See [`run_traced`] for the witness-tapped
/// variant.
pub fn run(p: &E13Params) -> Result<E13Output, ExpError> {
    run_traced(p, None)
}

/// Runs the drill card with an optional divergence-witness tap
/// observing every shard machine.
pub fn run_traced(p: &E13Params, tap: Option<&WitnessTap>) -> Result<E13Output, ExpError> {
    if p.drills.is_empty() {
        return Err(ExpError::BadParams("empty drill card".into()));
    }
    if p.n_shards < 2 {
        return Err(ExpError::BadParams(
            "rebalance needs at least 2 shards".into(),
        ));
    }

    let mut avail = ExpResult::new(
        "E13 / availability during rebalance",
        "drill #",
        "% of requests",
    );
    let mut lat = ExpResult::new(
        "E13 / G1 vs G2 tail latency during rebalance",
        "drill #",
        "latency (ticks)",
    );
    let mut mig = ExpResult::new("E13 / migration and repair accounting", "drill #", "count");
    let mut c_avail = Curve::new("availability %");
    let mut c_served = Curve::new("served %");
    let mut c_g1_p50 = Curve::new("G1 p50");
    let mut c_g1_p99 = Curve::new("G1 p99");
    let mut c_g2_p50 = Curve::new("G2 p50");
    let mut c_g2_p99 = Curve::new("G2 p99");
    let mut c_moved = Curve::new("slices moved");
    let mut c_aborted = Curve::new("slices aborted");
    let mut c_copied = Curve::new("records copied");
    let mut c_repair = Curve::new("repair bytes");

    let mut report_text = String::new();
    let mut metrics_all = String::new();
    let mut sim_ops = 0u64;
    let mut sim_cycles = 0u64;
    let mut validated = true;

    for idx in 0..p.drills.len() {
        let drill = p.drills[idx];
        let r = drill_report(p, idx, tap)?;
        let x = idx as f64;
        c_avail.push(x, r.availability() * 100.0);
        c_served.push(x, r.served_fraction() * 100.0);
        c_g1_p50.push(x, r.latency_g1.p50 as f64);
        c_g1_p99.push(x, r.latency_g1.p99 as f64);
        c_g2_p50.push(x, r.latency_g2.p50 as f64);
        c_g2_p99.push(x, r.latency_g2.p99 as f64);
        let m = r.migration.unwrap_or_default();
        c_moved.push(x, m.slices_moved as f64);
        c_aborted.push(x, m.slices_aborted as f64);
        c_copied.push(x, m.records_copied as f64);
        c_repair.push(x, r.repair_bytes as f64);
        sim_ops += r.served_ok + r.served_degraded;
        sim_cycles += r.sim_end;
        let oracles_ok = r.lost_acked == 0
            && r.stale_epoch_acks == 0
            && r.ownership_consistent
            && r.unanswered == 0;
        let crashed_as_planned = drill.fault.is_none() || !r.recoveries.is_empty();
        validated &=
            oracles_ok && r.migration_done && crashed_as_planned && r.availability() >= 0.99;
        report_text.push_str(&format!("## drill {idx}: {}\n", drill.label));
        report_text.push_str(&r.render());
        report_text.push('\n');
        if let Some(series) = &r.metrics_jsonl {
            metrics_all.push_str(series);
        }
    }

    avail.curves = vec![c_avail, c_served];
    avail.notes.push(format!(
        "drill card: {}",
        p.drills
            .iter()
            .map(|d| d.label)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    avail.notes.push(
        "every drill: zero acked-write loss, no stale-epoch ack, exactly-once ownership"
            .to_string(),
    );
    if !metrics_all.is_empty() {
        avail.metrics_jsonl = Some(metrics_all);
    }
    lat.curves = vec![c_g1_p50, c_g1_p99, c_g2_p50, c_g2_p99];
    lat.notes
        .push("the drain moves keyslices from shard 0 (G1) onto shard 1 (G2) mid-run".to_string());
    mig.curves = vec![c_moved, c_aborted, c_copied, c_repair];

    Ok(E13Output {
        results: vec![avail, lat, mig],
        rebalance_report: report_text,
        sim_ops,
        sim_cycles,
        validated,
    })
}

/// Renders the deterministic perf baseline (`BENCH_rebalance.json`): simulated
/// fields only, byte-identical per seed. CI compares the file byte for
/// byte with the repo-root copy.
pub fn bench_json(out: &E13Output) -> String {
    render_flat("e13_rebalance", out.sim_ops, out.sim_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_card_validates_and_reports_migration() {
        let out = run(&E13Params::smoke(3)).expect("e13");
        assert!(out.validated, "report:\n{}", out.rebalance_report);
        assert!(out.rebalance_report.contains("## drill 0: baseline"));
        assert!(out.rebalance_report.contains("copy/source"));
        assert!(out.rebalance_report.contains("flip/both"));
        assert!(out.rebalance_report.contains("migration:"));
        assert!(out
            .rebalance_report
            .contains("zero acknowledged-write loss"));
        assert_eq!(out.results.len(), 3);
        assert!(out.sim_ops > 0);
    }

    #[test]
    fn baseline_moves_slices_without_aborts() {
        let p = E13Params {
            drills: vec![FULL_DRILLS[0]],
            ..E13Params::smoke(5)
        };
        let out = run(&p).expect("e13");
        assert!(out.validated, "report:\n{}", out.rebalance_report);
        let mig = &out.results[2];
        assert!(
            mig.curves[0].points[0].1 >= 1.0,
            "fault-free drain must move at least one slice"
        );
        assert_eq!(mig.curves[1].points[0].1, 0.0, "no aborts without faults");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(&E13Params::smoke(9)).expect("a");
        let b = run(&E13Params::smoke(9)).expect("b");
        assert_eq!(a.rebalance_report, b.rebalance_report);
        assert_eq!(a.sim_ops, b.sim_ops);
        assert_eq!(a.sim_cycles, b.sim_cycles);
    }

    #[test]
    fn bad_params_are_typed() {
        let p = E13Params {
            drills: vec![],
            ..E13Params::default()
        };
        assert!(matches!(run(&p), Err(ExpError::BadParams(_))));
        let p = E13Params {
            n_shards: 1,
            ..E13Params::default()
        };
        assert!(matches!(run(&p), Err(ExpError::BadParams(_))));
    }

    #[test]
    fn bench_json_shape() {
        let p = E13Params {
            drills: vec![FULL_DRILLS[0]],
            ..E13Params::smoke(2)
        };
        let out = run(&p).expect("e13");
        let j = bench_json(&out);
        assert!(j.contains("\"experiment\": \"e13_rebalance\""));
        assert!(j.contains(&format!("\"sim_ops\": {},", out.sim_ops)));
        assert!(!j.contains("wall"), "no host-dependent field");
    }
}
