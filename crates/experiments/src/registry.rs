//! The experiment registry: one static table that `repro`, the job
//! matrix, and the divergence witness all iterate.
//!
//! Each [`Entry`] names one experiment by its `repro` name and says how
//! to run it as a job ([`Entry::run`], once per generation when
//! [`Entry::per_gen`] is set). The dual-process witness runs those same
//! jobs. Adding an experiment means adding one entry here; the matrix
//! order, the usage strings, and `repro divergence all` follow from the
//! table's order.

use harness::{JobError, JobOutput};
use optane_core::Generation;
use std::path::Path;

use crate::common::{log_sweep, ops_per_mcycle, ExpError, MetricsSpec};
use crate::jobs::{finish, gen_suffix, Scale};
use crate::{
    ablations, e0_bandwidth, e10_pmcheck, e11_faultsim, e12_cluster, e13_rebalance, e14_simspeed,
    e15_mt, e1_read_buffer, e2_prefetch, e3_write_amp, e4_wb_hit, e5_rap, e6_latency, e7_cceh,
    e8_btree, e9_redirect, ext_mixes, table1,
};

/// Everything one job needs to run its experiment.
pub struct RunCtx<'a> {
    /// The job's generation. Generation-independent entries run once
    /// and take the first selected generation here.
    pub gen: Generation,
    /// Every selected generation (E8 sweeps them inside one job).
    pub gens: &'a [Generation],
    pub scale: Scale,
    /// The scheduler's seed for this job.
    pub seed: u64,
    /// `simwatch` sampling, when `--metrics` is on.
    pub metrics: Option<MetricsSpec>,
    /// The results directory.
    pub out: &'a Path,
}

/// One experiment.
pub struct Entry {
    /// The `repro` name, also the job id (suffixed `:g1`/`:g2` when
    /// `per_gen`).
    pub name: &'static str,
    /// Whether the experiment runs as one job per selected generation.
    pub per_gen: bool,
    /// Runs one job and writes its artifacts.
    pub run: fn(&RunCtx) -> Result<JobOutput, JobError>,
}

/// Every experiment, in canonical matrix order.
#[rustfmt::skip]
pub static REGISTRY: &[Entry] = &[
    Entry { name: "e0", per_gen: true, run: e0 },
    Entry { name: "e1", per_gen: true, run: e1 },
    Entry { name: "e2", per_gen: true, run: e2 },
    Entry { name: "e3", per_gen: true, run: e3 },
    Entry { name: "e4", per_gen: false, run: e4 },
    Entry { name: "e5", per_gen: true, run: e5 },
    Entry { name: "e6", per_gen: true, run: e6 },
    Entry { name: "table1", per_gen: false, run: table1 },
    Entry { name: "e7", per_gen: false, run: e7 },
    Entry { name: "e8", per_gen: false, run: e8 },
    Entry { name: "mixes", per_gen: true, run: mixes },
    Entry { name: "pmcheck", per_gen: true, run: pmcheck },
    Entry { name: "faultsim", per_gen: true, run: faultsim },
    Entry { name: "e9", per_gen: true, run: e9 },
    Entry { name: "cluster", per_gen: false, run: cluster },
    Entry { name: "rebalance", per_gen: false, run: rebalance },
    Entry { name: "bench", per_gen: false, run: bench },
    Entry { name: "e15", per_gen: true, run: e15 },
    Entry { name: "ablations", per_gen: false, run: ablations },
];

/// The entry named `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// `a|b|..` over every entry name, in registry order.
pub fn choices() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    names.join("|")
}

/// The `repro` usage line.
pub fn usage() -> String {
    format!(
        "usage: repro [{}|all] [--full | --smoke] [--out DIR] [--gen g1|g2|both] [--parallel N] \
         [--resume] [--deadline SECS] [--seed N] [--metrics PATH] \
         [--sample-interval CYCLES] [--inject panic:JOB|hang:JOB]",
        choices()
    )
}

fn exp_err(name: &str, e: ExpError) -> JobError {
    JobError::Failed(format!("{name}: {e}"))
}

/// The working-set sweep of E2, E6 and E9: 4 KiB up to 64 MiB (1 GiB at
/// full scale).
fn wss_sweep(scale: Scale) -> Vec<u64> {
    log_sweep(4 << 10, if scale.full() { 1 << 30 } else { 64 << 20 }, 1)
}

fn e0(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e0_bandwidth::run(&e0_bandwidth::E0Params {
        generation: c.gen,
        blocks_per_thread: if c.scale.full() { 50_000 } else { 10_000 },
        ..Default::default()
    });
    finish(c.out, &[r], &[], "", true)
}

fn e1(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e1_read_buffer::run(&e1_read_buffer::E1Params {
        generation: c.gen,
        metrics: c.metrics,
        ..Default::default()
    });
    finish(c.out, &[r], &[], "", true)
}

fn e2(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e2_prefetch::run(&e2_prefetch::E2Params {
        generation: c.gen,
        wss_points: wss_sweep(c.scale),
        ..Default::default()
    });
    finish(c.out, &r, &[], "", true)
}

fn e3(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e3_write_amp::run(&e3_write_amp::E3Params {
        generation: c.gen,
        metrics: c.metrics,
        ..Default::default()
    });
    finish(c.out, &[r], &[], "", true)
}

fn e4(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e4_wb_hit::run(&e4_wb_hit::E4Params::default());
    finish(c.out, &[r], &[], "", true)
}

fn e5(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e5_rap::run(&e5_rap::E5Params {
        generation: c.gen,
        iters: if c.scale.full() { 20_000 } else { 3000 },
        ..Default::default()
    })
    .map_err(|e| exp_err("e5", e))?;
    finish(c.out, &r, &[], "", true)
}

fn e6(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e6_latency::run(&e6_latency::E6Params {
        generation: c.gen,
        wss_points: wss_sweep(c.scale),
        ..Default::default()
    })
    .map_err(|e| exp_err("e6", e))?;
    finish(c.out, &r, &[], "", true)
}

fn table1(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = table1::run(&table1::Table1Params {
        inserts: if c.scale.full() { 2_000_000 } else { 100_000 },
        ..Default::default()
    });
    let text = format!("{r}");
    let summary = format!("# Table 1: time breakdown of key insertion in CCEH (G1)\n{text}");
    finish(c.out, &[], &[("table1.txt".into(), text)], &summary, true)
}

fn e7(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e7_cceh::run(&e7_cceh::E7Params {
        inserts_per_worker: if c.scale.full() { 200_000 } else { 20_000 },
        ..Default::default()
    })
    .map_err(|e| exp_err("e7", e))?;
    finish(c.out, &r, &[], "", true)
}

fn e8(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e8_btree::run(&e8_btree::E8Params {
        inserts: if c.scale.full() { 400_000 } else { 40_000 },
        generations: c.gens.to_vec(),
        ..Default::default()
    });
    finish(c.out, &r, &[], "", true)
}

fn mixes(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = ext_mixes::run(&ext_mixes::MixParams {
        generation: c.gen,
        records: if c.scale.full() { 500_000 } else { 50_000 },
        ops: if c.scale.full() { 500_000 } else { 50_000 },
        ..Default::default()
    });
    finish(c.out, &[r], &[], "", true)
}

fn pmcheck(c: &RunCtx) -> Result<JobOutput, JobError> {
    let gen = c.gen;
    let outcomes = e10_pmcheck::run(&e10_pmcheck::E10Params {
        generation: gen,
        cceh_inserts: if c.scale.full() {
            5000
        } else if c.scale.smoke() {
            150
        } else {
            400
        },
        btree_inserts: if c.scale.full() {
            2000
        } else if c.scale.smoke() {
            120
        } else {
            300
        },
        ..Default::default()
    });
    let mut summary = format!("# pmcheck: persist-ordering analysis, {gen}\n");
    let mut text = String::new();
    let mut validated = true;
    for o in &outcomes {
        summary.push_str(&o.summary());
        summary.push('\n');
        text.push_str(&format!("== {gen} ==\n"));
        text.push_str(&o.report.to_text());
        text.push('\n');
        validated &= o.validated;
    }
    summary.push_str(if validated {
        "pmcheck cross-validation: all verdicts agree with simulated crash outcomes"
    } else {
        "pmcheck cross-validation: MISMATCH between checker verdicts and crash outcomes"
    });
    let sfx = gen_suffix(gen);
    let extra = [
        (
            format!("pmcheck_{sfx}.json"),
            e10_pmcheck::to_json(&outcomes),
        ),
        (format!("pmcheck_{sfx}.txt"), text),
    ];
    finish(c.out, &[], &extra, &summary, validated)
}

fn faultsim(c: &RunCtx) -> Result<JobOutput, JobError> {
    let gen = c.gen;
    let params = if c.scale.smoke() {
        e11_faultsim::E11Params::smoke(gen)
    } else {
        e11_faultsim::E11Params {
            generation: gen,
            cceh_inserts: if c.scale.full() { 2000 } else { 240 },
            btree_inserts: if c.scale.full() { 1000 } else { 160 },
            ..Default::default()
        }
    };
    let outcomes = e11_faultsim::run(&params).map_err(|e| exp_err("faultsim", e))?;
    let mut summary = format!("# faultsim: fault injection + crash-state exploration, {gen}\n");
    let mut validated = true;
    for o in &outcomes {
        summary.push_str(&o.summary());
        summary.push('\n');
        validated &= o.validated;
    }
    summary.push_str(if validated {
        "faultsim cross-validation: all faultsim verdicts agree with crash-state exploration"
    } else {
        "faultsim cross-validation: MISMATCH between checker verdicts and explored crash states"
    });
    let extra = [(
        format!("faultsim_{}.json", gen_suffix(gen)),
        e11_faultsim::to_json(&outcomes),
    )];
    finish(c.out, &[], &extra, &summary, validated)
}

fn e9(c: &RunCtx) -> Result<JobOutput, JobError> {
    let threads = match c.gen {
        Generation::G1 => vec![1, 2, 4, 8, 12, 16],
        Generation::G2 => vec![1, 2, 4, 8, 12, 16, 20, 24],
    };
    let p = e9_redirect::E9Params {
        generation: c.gen,
        wss_points: wss_sweep(c.scale),
        visits: if c.scale.full() { 200_000 } else { 40_000 },
        threads,
        ..Default::default()
    };
    let mut all = vec![e9_redirect::run_fig13(&p)];
    all.extend(e9_redirect::run_fig14(&p));
    finish(c.out, &all, &[], "", true)
}

fn cluster(c: &RunCtx) -> Result<JobOutput, JobError> {
    let mut p = if c.scale.smoke() {
        e12_cluster::E12Params::smoke(c.seed)
    } else {
        e12_cluster::E12Params {
            ops: if c.scale.full() { 30_000 } else { 6_000 },
            seed: c.seed,
            ..Default::default()
        }
    };
    p.metrics = c.metrics;
    let r = e12_cluster::run(&p).map_err(|e| exp_err("cluster", e))?;
    let extra = [
        (
            "cluster_availability.txt".into(),
            r.availability_report.clone(),
        ),
        ("BENCH_cluster.json".into(), e12_cluster::bench_json(&r)),
    ];
    let tail = if r.validated {
        "\ncluster: every request answered, zero acknowledged-write loss"
    } else {
        "\ncluster: VALIDATION FAILED (loss, hang, or availability < 99%)"
    };
    finish(c.out, &r.results, &extra, tail, r.validated)
}

fn rebalance(c: &RunCtx) -> Result<JobOutput, JobError> {
    let mut p = if c.scale.smoke() {
        e13_rebalance::E13Params::smoke(c.seed)
    } else {
        e13_rebalance::E13Params {
            ops: if c.scale.full() { 20_000 } else { 4_000 },
            seed: c.seed,
            ..Default::default()
        }
    };
    p.metrics = c.metrics;
    let r = e13_rebalance::run(&p).map_err(|e| exp_err("rebalance", e))?;
    let extra = [
        ("rebalance_report.txt".into(), r.rebalance_report.clone()),
        ("BENCH_rebalance.json".into(), e13_rebalance::bench_json(&r)),
    ];
    let tail = if r.validated {
        "\nrebalance: every drill held the oracles — zero acked-write loss, \
         no stale-epoch ack, exactly-once ownership"
    } else {
        "\nrebalance: VALIDATION FAILED (oracle violation, unfinished migration, \
         or availability < 99%)"
    };
    finish(c.out, &r.results, &extra, tail, r.validated)
}

fn bench(c: &RunCtx) -> Result<JobOutput, JobError> {
    let p = if c.scale.smoke() {
        e14_simspeed::E14Params::smoke(c.seed)
    } else {
        e14_simspeed::E14Params {
            seed: c.seed,
            ..Default::default()
        }
    };
    let r = e14_simspeed::run(&p);
    let nosink_e0 = r
        .scenarios
        .iter()
        .find(|s| s.name == "e0_stream_nosink")
        .map(|s| {
            format!(
                "{:.1} sim-ops/Mcycle",
                ops_per_mcycle(s.sim_ops, s.sim_cycles)
            )
        })
        .unwrap_or_else(|| "missing".into());
    let tail = format!(
        "\nbench: {} scenarios measured; no-sink E0 hot path at {nosink_e0}",
        r.scenarios.len()
    );
    let extra = [("BENCH_sim.json".into(), e14_simspeed::bench_json(&r))];
    finish(c.out, std::slice::from_ref(&r.result), &extra, &tail, true)
}

fn e15(c: &RunCtx) -> Result<JobOutput, JobError> {
    let r = e15_mt::run(&e15_mt::E15Params {
        generation: c.gen,
        threads: if c.scale.smoke() {
            vec![1, 2, 4]
        } else {
            vec![1, 2, 4, 8, 16]
        },
        blocks_per_thread: if c.scale.full() { 4000 } else { 800 },
        rap_iters_per_thread: if c.scale.full() { 2000 } else { 400 },
        ops_per_thread: if c.scale.full() { 400 } else { 80 },
        ..Default::default()
    })
    .map_err(|e| exp_err("e15", e))?;
    finish(c.out, &r, &[], "", true)
}

fn ablations(c: &RunCtx) -> Result<JobOutput, JobError> {
    let knobs = ablations::run();
    let validated = knobs.iter().all(|k| k.holds);
    let mut summary = String::from("# Ablations: one model knob at a time, direction asserted\n");
    for k in &knobs {
        summary.push_str(&k.line());
        summary.push('\n');
    }
    summary.push_str(if validated {
        "ablations: every knob moves in its recorded direction"
    } else {
        "ablations: FLIPPED — a knob no longer moves in its recorded direction"
    });
    let extra = [("ablations.csv".into(), ablations::to_csv(&knobs))];
    finish(c.out, &[], &extra, &summary, validated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_invariants() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "entry names are unique");

        let usage = usage();
        let words: Vec<&str> = usage.split(['[', ']', '|', ' ']).collect();
        for e in REGISTRY {
            assert!(words.contains(&e.name), "usage omits {}: {usage}", e.name);
        }
    }

    #[test]
    fn ablations_entry_validates() {
        let out = std::env::temp_dir().join(format!("ablations-{}", std::process::id()));
        std::fs::create_dir_all(&out).expect("out dir");
        let ctx = RunCtx {
            gen: Generation::G1,
            gens: &[Generation::G1],
            scale: Scale::Smoke,
            seed: 1,
            metrics: None,
            out: &out,
        };
        let r = ablations(&ctx).expect("runs");
        assert!(r.validated, "{}", r.summary);
        let csv = std::fs::read_to_string(out.join("ablations.csv")).expect("csv");
        assert_eq!(csv.lines().count(), 1 + 17, "{csv}");
        let _ = std::fs::remove_dir_all(&out);
    }
}
