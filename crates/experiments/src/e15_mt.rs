//! E15: multi-thread contention sweep on the deterministic executor.
//!
//! The paper's bandwidth and RAP studies (§2.2, §3.6) run each thread
//! over private data; this experiment asks what the on-DIMM buffers do
//! when simulated threads genuinely *contend* — interleaved by the
//! [`Interleaver`] rather than by hand-rolled loops — and how the new
//! locked-RMW primitives behave under that contention. Three measurements
//! per thread count, each on a fresh machine:
//!
//! 1. **Striped nt-store bandwidth**: all threads stream into one shared
//!    region, lane `w` writing blocks `w, w+T, w+2T, …` — adjacent
//!    XPLines belong to different threads, so the XPBuffer sees the
//!    interleaved stream a real contended benchmark produces.
//! 2. **Contended read-after-persist**: every thread repeatedly
//!    `fetch_add`s one shared PM counter and persists it — the textbook
//!    contended persist. Reported as cycles per operation; the locked
//!    RMW's inherent full barrier plus the `clwb`+`sfence` round-trip
//!    dominate.
//! 3. **Detectable stack/queue throughput**: the lock-free structures
//!    from `pmds` (`TreiberStack`, `MsQueue`) driven by per-lane op
//!    scripts, under both the round-robin and seeded-random scheduler
//!    policies — the CAS-retry and helping paths only light up when the
//!    schedule interleaves operations.
//!
//! Everything is deterministic: same parameters, byte-identical tables,
//! and `repro divergence e15` witnesses both scheduler policies across
//! two fresh processes.

use cpucache::PrefetchConfig;
use optane_core::{
    Generation, Interleaver, Machine, MachineConfig, MtStats, SchedPolicy, Step, ThreadId,
};
use pmds::{Detectable, Lane, MsQueue, TreiberStack};
use pmem::SimEnv;
use simbase::{CACHELINE_BYTES, XPLINE_BYTES};

use crate::common::{Curve, ExpError, ExpResult};

/// Parameters for E15.
#[derive(Debug, Clone)]
pub struct E15Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// XPLine blocks per thread in the bandwidth measurement.
    pub blocks_per_thread: u64,
    /// Fetch-add+persist iterations per thread in the RAP measurement.
    pub rap_iters_per_thread: u64,
    /// Stack/queue operations per thread (push/pop pairs count as two).
    pub ops_per_thread: u64,
    /// Seed for the seeded-random scheduler policy.
    pub sched_seed: u64,
    /// Clock frequency for GB/s conversion.
    pub ghz: f64,
}

impl Default for E15Params {
    fn default() -> Self {
        E15Params {
            generation: Generation::G1,
            threads: vec![1, 2, 4, 8],
            blocks_per_thread: 4000,
            rap_iters_per_thread: 2000,
            ops_per_thread: 400,
            sched_seed: 0xE15,
            ghz: 2.1,
        }
    }
}

/// Runs E15: the three contention measurements across the thread sweep.
pub fn run(params: &E15Params) -> Result<Vec<ExpResult>, ExpError> {
    if params.threads.is_empty() {
        return Err(ExpError::BadParams("empty thread sweep".into()));
    }
    if params.ops_per_thread == 0 || params.blocks_per_thread == 0 {
        return Err(ExpError::BadParams("zero work per thread".into()));
    }
    let gen = params.generation;
    let mut bw = ExpResult::new(
        format!("E15a: contended nt-store bandwidth ({gen})"),
        "threads",
        "GB/s",
    );
    let mut bw_curve = Curve::new("striped nt-store");
    let mut rap = ExpResult::new(
        format!("E15b: contended RAP, fetch_add + clwb + sfence ({gen})"),
        "threads",
        "cycles/op",
    );
    let mut rap_curve = Curve::new("shared counter");
    let mut ds = ExpResult::new(
        format!("E15c: detectable stack/queue throughput ({gen})"),
        "threads",
        "ops/Mcycle",
    );
    let mut ds_curves = [
        Curve::new("treiber stack, round-robin"),
        Curve::new("treiber stack, seeded-random"),
        Curve::new("ms queue, round-robin"),
        Curve::new("ms queue, seeded-random"),
    ];
    let mut peak_mt = MtStats::default();
    for &threads in &params.threads {
        let x = threads as f64;
        bw_curve.push(x, measure_ntstore(params, threads));
        rap_curve.push(x, measure_rap(params, threads));
        let policies = [
            SchedPolicy::RoundRobin,
            SchedPolicy::SeededRandom {
                seed: params.sched_seed,
            },
        ];
        for (pi, &policy) in policies.iter().enumerate() {
            let (tput, mt) = measure_structure(params, threads, policy, false)?;
            ds_curves[pi].push(x, tput);
            let (tput, qmt) = measure_structure(params, threads, policy, true)?;
            ds_curves[2 + pi].push(x, tput);
            peak_mt.merge(&mt);
            peak_mt.merge(&qmt);
        }
    }
    bw.curves = vec![bw_curve];
    rap.curves = vec![rap_curve];
    ds.curves = ds_curves.into_iter().collect();
    ds.notes.push(format!(
        "locked-RMW traffic at peak: cas_ops={} cas_failures={} fetch_adds={} \
         persist_epochs={} sb_max_depth={}",
        peak_mt.cas_ops,
        peak_mt.cas_failures,
        peak_mt.fetch_adds,
        peak_mt.persist_epochs,
        peak_mt.sb_max_depth
    ));
    Ok(vec![bw, rap, ds])
}

fn machine(params: &E15Params, threads: usize) -> (Machine, Vec<ThreadId>) {
    let cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::all(), 1);
    let mut m = Machine::new(cfg);
    let tids = (0..threads).map(|_| m.spawn(0)).collect();
    (m, tids)
}

fn makespan(m: &Machine, tids: &[ThreadId]) -> f64 {
    tids.iter().map(|&t| m.now(t)).max().unwrap_or(0) as f64
}

/// Striped nt-store streaming: one shared region, lane `w` owns blocks
/// `w, w+T, w+2T, …`, one block per executor step.
fn measure_ntstore(params: &E15Params, threads: usize) -> f64 {
    let (mut m, tids) = machine(params, threads);
    let total_blocks = params.blocks_per_thread * threads as u64;
    let region = m.alloc_pm(total_blocks * XPLINE_BYTES, 4096);
    let data = [0x5Au8; 64];
    let mut issued = vec![0u64; threads];
    Interleaver::new(SchedPolicy::RoundRobin).run(
        &mut m,
        &tids,
        &mut |mm: &mut Machine, tid, lane: usize| {
            let i = issued[lane];
            if i == params.blocks_per_thread {
                return Step::Done;
            }
            issued[lane] = i + 1;
            let block = region.add_xplines(i * threads as u64 + lane as u64);
            mm.nt_store_run(tid, block, &data, 4);
            if i.is_multiple_of(16) {
                mm.sfence(tid);
            }
            Step::Ran
        },
    );
    for &t in &tids {
        m.sfence(t);
    }
    let makespan = makespan(&m, &tids);
    (total_blocks * XPLINE_BYTES) as f64 / makespan * params.ghz
}

/// Contended read-after-persist: every lane `fetch_add`s the same PM
/// counter and persists it, one op per executor step.
fn measure_rap(params: &E15Params, threads: usize) -> f64 {
    let (mut m, tids) = machine(params, threads);
    let counter = m.alloc_pm(CACHELINE_BYTES, CACHELINE_BYTES);
    let mut issued = vec![0u64; threads];
    Interleaver::new(SchedPolicy::RoundRobin).run(
        &mut m,
        &tids,
        &mut |mm: &mut Machine, tid, lane: usize| {
            if issued[lane] == params.rap_iters_per_thread {
                return Step::Done;
            }
            issued[lane] += 1;
            mm.fetch_add_u64(tid, counter, 1);
            mm.clwb(tid, counter);
            mm.sfence(tid);
            Step::Ran
        },
    );
    let total_ops = params.rap_iters_per_thread * threads as u64;
    let makespan = makespan(&m, &tids);
    makespan / total_ops as f64
}

/// Stack or queue throughput under `policy`: each lane alternates
/// insert/remove, one phase per executor step.
fn measure_structure(
    params: &E15Params,
    threads: usize,
    policy: SchedPolicy,
    queue: bool,
) -> Result<(f64, MtStats), ExpError> {
    let (mut m, tids) = machine(params, threads);
    let ops = params.ops_per_thread;
    let tput = if queue {
        drive_structure::<MsQueue>(&mut m, &tids, ops, policy, "queue")?
    } else {
        drive_structure::<TreiberStack>(&mut m, &tids, ops, policy, "stack")?
    };
    Ok((tput, m.metrics().mt))
}

/// Drives a fresh `S` through the executor, one lane per thread, and
/// returns the acked ops per Mcycle of makespan. Then checks every lane's descriptor
/// reads back as committed (the run ended between operations); the check
/// runs on `tids[0]` after the makespan is taken, so it costs the
/// measurement nothing.
fn drive_structure<S: Detectable>(
    m: &mut Machine,
    tids: &[ThreadId],
    ops_per_thread: u64,
    policy: SchedPolicy,
    name: &str,
) -> Result<f64, ExpError> {
    let threads = tids.len();
    let (s, mut lanes) = {
        let mut env = SimEnv::new(m, tids[0]);
        let s = S::new(&mut env);
        let lanes: Vec<Lane<S>> = (0..threads)
            .map(|l| Lane::new(&mut env, l as u64))
            .collect();
        (s, lanes)
    };
    let mut acked = 0u64;
    let mut issued = vec![0u64; threads];
    let report =
        Interleaver::new(policy).run(m, tids, &mut |mm: &mut Machine, tid, lane: usize| {
            if !lanes[lane].busy() {
                if issued[lane] == ops_per_thread {
                    return Step::Done;
                }
                let i = issued[lane];
                issued[lane] += 1;
                if i.is_multiple_of(2) {
                    lanes[lane].begin_insert(1 + lane as u64 * ops_per_thread + i);
                } else {
                    lanes[lane].begin_remove();
                }
            }
            let mut env = SimEnv::new(mm, tid);
            if lanes[lane].step(&mut env, &s).is_some() {
                acked += 1;
            }
            Step::Ran
        });
    if !report.completed {
        return Err(ExpError::MissingData(format!(
            "{name} workload did not retire"
        )));
    }
    let tput = acked as f64 / makespan(m, tids) * 1e6;
    let mut env = SimEnv::new(m, tids[0]);
    for (l, lane) in lanes.iter().enumerate() {
        if !lane.recover(&mut env, &s).applied {
            return Err(ExpError::MissingData(format!(
                "{name} lane {l} descriptor not committed after run"
            )));
        }
    }
    Ok(tput)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> E15Params {
        E15Params {
            threads: vec![1, 2, 4],
            blocks_per_thread: 400,
            rap_iters_per_thread: 200,
            ops_per_thread: 40,
            ..E15Params::default()
        }
    }

    #[test]
    fn produces_all_curves_and_is_deterministic() {
        let run_once = || {
            let rs = run(&small()).expect("e15 runs");
            rs.iter().map(|r| r.to_csv()).collect::<Vec<_>>().join("\n")
        };
        let a = run_once();
        assert_eq!(a, run_once(), "same params, byte-identical CSV");
        let rs = run(&small()).expect("e15 runs");
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[2].curves.len(), 4, "both structures × both policies");
        for r in &rs {
            for c in &r.curves {
                assert_eq!(c.points.len(), 3, "every sweep point sampled");
                assert!(c.points.iter().all(|&(_, y)| y.is_finite() && y > 0.0));
            }
        }
    }

    #[test]
    fn locked_rmw_counters_reach_the_metrics_registry() {
        let rs = run(&small()).expect("e15 runs");
        let note = rs[2].notes.first().expect("mt-stats note");
        assert!(note.contains("cas_ops="), "{note}");
        assert!(
            !note.contains("cas_ops=0 "),
            "structure workloads must issue CASes: {note}"
        );
    }

    #[test]
    fn contended_bandwidth_saturates_like_e0() {
        let rs = run(&E15Params {
            threads: vec![1, 8],
            ..small()
        })
        .expect("e15 runs");
        let bw = rs[0].curve("striped nt-store").expect("bw curve");
        let b1 = bw.y_at(1.0).expect("1-thread point");
        let b8 = bw.y_at(8.0).expect("8-thread point");
        assert!(
            b8 < b1 * 8.0,
            "contended write bandwidth must not scale linearly: {b1:.2} -> {b8:.2}"
        );
    }

    #[test]
    fn empty_sweep_is_a_typed_error() {
        let r = run(&E15Params {
            threads: vec![],
            ..E15Params::default()
        });
        assert!(matches!(r, Err(ExpError::BadParams(_))));
    }
}
