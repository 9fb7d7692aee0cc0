//! E7 / Figure 10: speculative helper-thread prefetching for CCEH.
//!
//! Each worker inserts a partition of the key stream; with the
//! optimization, a sibling hyperthread runs the load-only prefetch trace
//! up to `depth` keys ahead, but only as fast as its own clock allows —
//! the pipeline effect is real, not assumed. On PM the helper hides the
//! segment-metadata and bucket media reads (up to ~35% gains, claim C7);
//! on DRAM the loads it hides are cheap, so hyperthread sharing and cache
//! pollution make it a small loss.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Interleaver, Machine, MachineConfig, SchedPolicy, Step, ThreadId};
use pmds::Cceh;
use pmem::SimEnv;
use workloads::YcsbGenerator;

use crate::common::{Curve, ExpError, ExpResult};

/// Memory backing for the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Optane persistent memory.
    Pm,
    /// DRAM (persistence barriers retained, as the paper's comparison).
    Dram,
}

/// Parameters for E7.
#[derive(Debug, Clone)]
pub struct E7Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Inserts per worker.
    pub inserts_per_worker: u64,
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Prefetch depth (the paper found 8 best).
    pub depth: u64,
    /// DIMMs (the paper presents the single-DIMM case).
    pub dimms: usize,
    /// Clock frequency for Mops/s conversion.
    pub ghz: f64,
    /// Initial table depth; sized past the LLC by default so random reads
    /// behave as they do with the paper's 16 M-key table.
    pub initial_depth: u64,
}

impl Default for E7Params {
    fn default() -> Self {
        E7Params {
            generation: Generation::G1,
            inserts_per_worker: 20_000,
            workers: (1..=10).collect(),
            depth: 8,
            dimms: 1,
            ghz: 2.1,
            initial_depth: 12,
        }
    }
}

/// Outcome of one configuration.
#[derive(Debug, Clone, Copy)]
struct RunStats {
    /// Average cycles per insert.
    latency: f64,
    /// Throughput in Mops/s.
    throughput: f64,
}

/// Runs E7: four panels (latency/throughput x PM/DRAM), each with
/// baseline and prefetching curves.
pub fn run(params: &E7Params) -> Result<Vec<ExpResult>, ExpError> {
    if params.workers.is_empty() {
        return Err(ExpError::BadParams("workers must be non-empty".into()));
    }
    if params.workers.contains(&0) {
        return Err(ExpError::BadParams("worker counts must be nonzero".into()));
    }
    if params.inserts_per_worker == 0 {
        return Err(ExpError::BadParams(
            "inserts_per_worker must be nonzero".into(),
        ));
    }
    let mut out = Vec::new();
    for backing in [Backing::Pm, Backing::Dram] {
        let mem = match backing {
            Backing::Pm => "PM",
            Backing::Dram => "DRAM",
        };
        let mut latency = ExpResult::new(
            format!("E7 / Figure 10: latency on {mem} ({})", params.generation),
            "workers",
            "cycles per insert",
        );
        let mut throughput = ExpResult::new(
            format!(
                "E7 / Figure 10: throughput on {mem} ({})",
                params.generation
            ),
            "workers",
            "Mops/s",
        );
        for with_helper in [false, true] {
            let label = if with_helper {
                "CCEH with prefetching"
            } else {
                "CCEH"
            };
            let mut lat_curve = Curve::new(label);
            let mut thr_curve = Curve::new(label);
            for &workers in &params.workers {
                let stats = measure_case(params, backing, workers, with_helper);
                lat_curve.push(workers as f64, stats.latency);
                thr_curve.push(workers as f64, stats.throughput);
            }
            latency.curves.push(lat_curve);
            throughput.curves.push(thr_curve);
        }
        out.push(latency);
        out.push(throughput);
    }
    Ok(out)
}

fn measure_case(params: &E7Params, backing: Backing, workers: usize, helper: bool) -> RunStats {
    let cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::all(), params.dimms);
    let mut m = Machine::new(cfg);
    let worker_tids: Vec<ThreadId> = (0..workers).map(|_| m.spawn(0)).collect();
    let mut table = {
        let mut env = mk_env(&mut m, worker_tids[0], backing);
        Cceh::create(&mut env, params.initial_depth)
    };
    // Helpers are spawned after table creation so the creation phase does
    // not pay hyperthread-sharing costs.
    let helper_tids: Vec<ThreadId> = if helper {
        worker_tids.iter().map(|&w| m.spawn_sibling(w)).collect()
    } else {
        Vec::new()
    };
    // Pre-generate per-worker key streams.
    let n = params.inserts_per_worker;
    let streams: Vec<Vec<u64>> = (0..workers)
        .map(|w| {
            YcsbGenerator::load_keys(n * workers as u64)
                .skip(w)
                .step_by(workers)
                .map(|k| k.max(1))
                .collect()
        })
        .collect();
    // Helper progress per worker.
    let mut hpos = vec![0usize; workers];
    let mut total_cycles = 0u64;
    let start_times: Vec<u64> = worker_tids.iter().map(|&t| m.now(t)).collect();
    // One insert (plus helper catch-up) per executor step, round-robin
    // over the workers (`measure_case_is_pinned` holds the results).
    let mut issued = vec![0usize; workers];
    Interleaver::new(SchedPolicy::RoundRobin).run(
        &mut m,
        &worker_tids,
        &mut |mm: &mut Machine, tid, w: usize| {
            let i = issued[w];
            if i == n as usize {
                return Step::Done;
            }
            issued[w] = i + 1;
            if helper {
                // The helper runs on its own clock: it prefetches ahead
                // only while it is not behind the worker's time, up to
                // `depth` keys ahead.
                let worker_now = mm.now(tid);
                mm.advance_to(helper_tids[w], worker_now.saturating_sub(1));
                while hpos[w] < (i + params.depth as usize).min(streams[w].len())
                    && mm.now(helper_tids[w]) <= worker_now
                {
                    let key = streams[w][hpos[w]];
                    let mut henv = mk_env(mm, helper_tids[w], backing);
                    table.prefetch_for_key(&mut henv, key);
                    hpos[w] += 1;
                }
                // Keys the worker already passed are useless to prefetch.
                hpos[w] = hpos[w].max(i + 1);
            }
            let key = streams[w][i];
            let t0 = mm.now(tid);
            let mut env = mk_env(mm, tid, backing);
            table.insert(&mut env, key, key);
            total_cycles += mm.now(tid) - t0;
            Step::Ran
        },
    );
    let ops = n * workers as u64;
    let latency = total_cycles as f64 / ops as f64;
    // `run` validated that the worker sweep has no zero entries, so the
    // fallback is unreachable; it exists to keep this path panic-free.
    let makespan = worker_tids
        .iter()
        .zip(&start_times)
        .map(|(&t, &s)| m.now(t) - s)
        .max()
        .unwrap_or(1);
    let throughput = ops as f64 / makespan as f64 * params.ghz * 1e3; // Mops/s
    RunStats {
        latency,
        throughput,
    }
}

fn mk_env<'a>(m: &'a mut Machine, tid: ThreadId, backing: Backing) -> SimEnv<'a> {
    match backing {
        Backing::Pm => SimEnv::new(m, tid),
        Backing::Dram => SimEnv::volatile_backed(m, tid),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Vec<ExpResult> {
        run(&E7Params {
            inserts_per_worker: 3000,
            workers: vec![1, 4],
            ..E7Params::default()
        })
        .expect("valid params")
    }

    /// `measure_case` at fixed points, pinned bit for bit: any change to
    /// the model, CCEH or the executor that moves E7 shows up here.
    #[test]
    fn measure_case_is_pinned() {
        let params = E7Params {
            inserts_per_worker: 800,
            ..E7Params::default()
        };
        let mut got = Vec::new();
        for &(workers, helper) in &[(1usize, false), (3, false), (3, true)] {
            let r = measure_case(&params, Backing::Pm, workers, helper);
            got.push((r.latency.to_bits(), r.throughput.to_bits()));
        }
        assert_eq!(
            got,
            [
                (0x4092_5251_eb85_1eb8, 0x3ffc_a79e_6faf_4ee6),
                (0x40b4_231d_0369_d037, 0x3fec_72d4_15c9_65ea),
                (0x40b4_1da1_9999_999a, 0x3fec_77c6_17f9_58bf),
            ]
        );
    }

    #[test]
    fn degenerate_params_are_a_typed_error() {
        let empty = run(&E7Params {
            workers: vec![],
            ..E7Params::default()
        });
        assert!(matches!(empty, Err(ExpError::BadParams(_))));
        let zero = run(&E7Params {
            workers: vec![1, 0],
            ..E7Params::default()
        });
        assert!(matches!(zero, Err(ExpError::BadParams(_))));
    }

    #[test]
    fn prefetching_helps_on_pm_not_on_dram() {
        let r = quick();
        // Panel order: PM latency, PM throughput, DRAM latency, DRAM thr.
        let pm_lat = &r[0];
        let base = pm_lat.curve("CCEH").unwrap().y_at(1.0).unwrap();
        let pf = pm_lat
            .curve("CCEH with prefetching")
            .unwrap()
            .y_at(1.0)
            .unwrap();
        assert!(
            pf < base * 0.9,
            "PM latency should improve >10% with the helper: {pf} vs {base}"
        );
        let dram_lat = &r[2];
        let dbase = dram_lat.curve("CCEH").unwrap().y_at(1.0).unwrap();
        let dpf = dram_lat
            .curve("CCEH with prefetching")
            .unwrap()
            .y_at(1.0)
            .unwrap();
        assert!(
            dpf > dbase * 0.97,
            "DRAM should see no meaningful gain: {dpf} vs {dbase}"
        );
    }

    #[test]
    fn pm_throughput_improves_with_helper_then_fades() {
        let r = quick();
        let pm_thr = &r[1];
        // Clear gain at one worker.
        let base1 = pm_thr.curve("CCEH").unwrap().y_at(1.0).unwrap();
        let pf1 = pm_thr
            .curve("CCEH with prefetching")
            .unwrap()
            .y_at(1.0)
            .unwrap();
        assert!(
            pf1 > base1 * 1.05,
            "helper raises single-worker PM throughput: {pf1} vs {base1}"
        );
        // At higher worker counts on one DIMM the gain may fade (the
        // paper: "the improvement may fade away faster with fewer
        // DIMMs"), but it must not collapse.
        let base4 = pm_thr.curve("CCEH").unwrap().y_at(4.0).unwrap();
        let pf4 = pm_thr
            .curve("CCEH with prefetching")
            .unwrap()
            .y_at(4.0)
            .unwrap();
        assert!(
            pf4 > base4 * 0.85,
            "gain fades but does not collapse: {pf4} vs {base4}"
        );
    }
}
