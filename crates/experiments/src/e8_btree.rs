//! E8 / Figure 12: FAST & FAIR insertions, in-place vs. out-of-place.
//!
//! YCSB-style inserts into the B+-tree with the two §4.2 strategies on
//! both generations (claim C8): out-of-place redo logging wins clearly on
//! G1 (it never reads a just-persisted cacheline), while on G2 — where
//! `clwb` retains the line — the two strategies converge, with the redo
//! variant paying slightly for its extra log writes at high thread counts.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Interleaver, Machine, MachineConfig, SchedPolicy, Step, ThreadId};
use pmds::{FastFair, UpdateStrategy};
use pmem::SimEnv;
use workloads::YcsbGenerator;

use crate::common::{Curve, ExpResult};

/// Parameters for E8.
#[derive(Debug, Clone)]
pub struct E8Params {
    /// Total inserts per configuration.
    pub inserts: u64,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Generations to run.
    pub generations: Vec<Generation>,
    /// DIMMs (the paper presents the single-DIMM case).
    pub dimms: usize,
}

impl Default for E8Params {
    fn default() -> Self {
        E8Params {
            inserts: 40_000,
            threads: vec![1, 3, 5, 7, 9],
            generations: vec![Generation::G1, Generation::G2],
            dimms: 1,
        }
    }
}

/// Runs E8: per generation, a throughput panel and a latency panel.
pub fn run(params: &E8Params) -> Vec<ExpResult> {
    let mut out = Vec::new();
    for &gen in &params.generations {
        let ghz = match gen {
            Generation::G1 => 2.1,
            Generation::G2 => 3.0,
        };
        let mut thr = ExpResult::new(
            format!("E8 / Figure 12: {gen} Optane throughput"),
            "threads",
            "Mops/s",
        );
        let mut lat = ExpResult::new(
            format!("E8 / Figure 12: {gen} Optane latency"),
            "threads",
            "cycles per insert",
        );
        for (label, strategy) in [
            ("Out-of-place update", UpdateStrategy::RedoLog),
            ("In-place update", UpdateStrategy::InPlace),
        ] {
            let mut thr_curve = Curve::new(label);
            let mut lat_curve = Curve::new(label);
            for &threads in &params.threads {
                let (latency, throughput) = measure_case(params, gen, ghz, strategy, threads);
                lat_curve.push(threads as f64, latency);
                thr_curve.push(threads as f64, throughput);
            }
            thr.curves.push(thr_curve);
            lat.curves.push(lat_curve);
        }
        out.push(thr);
        out.push(lat);
    }
    out
}

fn measure_case(
    params: &E8Params,
    gen: Generation,
    ghz: f64,
    strategy: UpdateStrategy,
    threads: usize,
) -> (f64, f64) {
    let cfg = MachineConfig::for_generation(gen, PrefetchConfig::all(), params.dimms);
    let mut m = Machine::new(cfg);
    let tids: Vec<ThreadId> = (0..threads).map(|_| m.spawn(0)).collect();
    let mut tree = {
        let mut env = SimEnv::new(&mut m, tids[0]);
        FastFair::create(&mut env, strategy)
    };
    let mut keys = YcsbGenerator::load_keys(params.inserts);
    let mut total_cycles = 0u64;
    let mut ops = 0u64;
    // Lanes drain one shared key stream, one insert per executor step,
    // round-robin; a lane that finds the stream empty retires without
    // touching the machine (`measure_case_is_pinned` holds the results).
    Interleaver::new(SchedPolicy::RoundRobin).run(
        &mut m,
        &tids,
        &mut |mm: &mut Machine, tid, _lane: usize| {
            let Some(key) = keys.next() else {
                return Step::Done;
            };
            let t0 = mm.now(tid);
            let mut env = SimEnv::new(mm, tid);
            tree.insert(&mut env, key.max(1), key);
            total_cycles += mm.now(tid) - t0;
            ops += 1;
            Step::Ran
        },
    );
    let latency = total_cycles as f64 / ops as f64;
    let makespan = tids.iter().map(|&t| m.now(t)).max().expect("threads");
    let throughput = ops as f64 / makespan as f64 * ghz * 1e3; // Mops/s
    (latency, throughput)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `measure_case` at fixed points, pinned bit for bit: any change to
    /// the model, FAST & FAIR or the executor that moves E8 shows up here.
    #[test]
    fn measure_case_is_pinned() {
        let params = E8Params {
            inserts: 1000,
            ..E8Params::default()
        };
        // 3 threads with 1000 keys ends mid-round, covering the
        // partial-final-round retirement path.
        let mut got = Vec::new();
        for &threads in &[1usize, 3] {
            let (latency, throughput) = measure_case(
                &params,
                Generation::G1,
                2.1,
                UpdateStrategy::RedoLog,
                threads,
            );
            got.push((latency.to_bits(), throughput.to_bits()));
        }
        assert_eq!(
            got,
            [
                (0x40bc_9452_2d0e_5604, 0x3fd2_5d13_4e85_cc69),
                (0x40c1_c939_1687_2b02, 0x3fe5_fe01_33fc_f1ef),
            ]
        );
    }

    #[test]
    fn redo_wins_on_g1_converges_on_g2() {
        let r = run(&E8Params {
            inserts: 6000,
            threads: vec![1],
            generations: vec![Generation::G1, Generation::G2],
            dimms: 1,
        });
        // Panels: [G1 thr, G1 lat, G2 thr, G2 lat].
        let g1_lat = &r[1];
        let redo = g1_lat
            .curve("Out-of-place update")
            .unwrap()
            .y_at(1.0)
            .unwrap();
        let inplace = g1_lat.curve("In-place update").unwrap().y_at(1.0).unwrap();
        assert!(
            redo < inplace * 0.85,
            "G1: redo should cut latency markedly: {redo} vs {inplace}"
        );
        let g2_lat = &r[3];
        let redo2 = g2_lat
            .curve("Out-of-place update")
            .unwrap()
            .y_at(1.0)
            .unwrap();
        let inplace2 = g2_lat.curve("In-place update").unwrap().y_at(1.0).unwrap();
        let ratio = redo2 / inplace2;
        assert!(
            (0.75..=1.3).contains(&ratio),
            "G2: strategies converge: {redo2} vs {inplace2}"
        );
        // The G1 relative win exceeds the G2 one.
        assert!(redo / inplace < ratio);
    }
}
