//! E0 / §2.2: the "known performance characteristics" the paper builds
//! on, reproduced as a substrate validation: maximal read bandwidth is
//! about 3x maximal write bandwidth, and write bandwidth stops scaling at
//! a small thread count while read bandwidth scales further.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Interleaver, Machine, MachineConfig, SchedPolicy, Step, ThreadId};
use simbase::XPLINE_BYTES;

use crate::common::{Curve, ExpResult};

/// Parameters for E0.
#[derive(Debug, Clone)]
pub struct E0Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// XPLine accesses per thread per point.
    pub blocks_per_thread: u64,
    /// DIMM population.
    pub dimms: usize,
    /// Clock frequency for GB/s conversion.
    pub ghz: f64,
}

impl Default for E0Params {
    fn default() -> Self {
        E0Params {
            generation: Generation::G1,
            threads: vec![1, 2, 4, 8, 12, 16],
            blocks_per_thread: 10_000,
            dimms: 1,
            ghz: 2.1,
        }
    }
}

/// Runs E0: sequential read and nt-store write bandwidth vs. threads.
pub fn run(params: &E0Params) -> ExpResult {
    let mut result = ExpResult::new(
        format!(
            "E0 / §2.2: bandwidth scaling ({}, {} DIMM)",
            params.generation, params.dimms
        ),
        "threads",
        "GB/s",
    );
    let mut read = Curve::new("sequential read");
    let mut write = Curve::new("nt-store write");
    for &threads in &params.threads {
        read.push(threads as f64, measure(params, threads, false));
        write.push(threads as f64, measure(params, threads, true));
    }
    result.curves = vec![read, write];
    result
}

fn measure(params: &E0Params, threads: usize, write: bool) -> f64 {
    let cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::all(), params.dimms);
    let mut m = Machine::new(cfg);
    let tids: Vec<ThreadId> = (0..threads).map(|_| m.spawn(0)).collect();
    // Each thread streams over its own region so the caches and buffers
    // behave as in a bandwidth benchmark.
    let regions: Vec<_> = (0..threads)
        .map(|_| m.alloc_pm(params.blocks_per_thread * XPLINE_BYTES, 4096))
        .collect();
    let data = [0x5Au8; 64];
    // One XPLine per executor step; round-robin visits every lane once
    // per block index (`measure_is_pinned` holds the results).
    let mut issued = vec![0u64; threads];
    Interleaver::new(SchedPolicy::RoundRobin).run(
        &mut m,
        &tids,
        &mut |mm: &mut Machine, tid, lane: usize| {
            let b = issued[lane];
            if b == params.blocks_per_thread {
                return Step::Done;
            }
            issued[lane] = b + 1;
            let block = regions[lane].add_xplines(b);
            if write {
                // Batched: one dispatch per XPLine, byte-identical in
                // timing and trace to four single-line nt-stores.
                mm.nt_store_run(tid, block, &data, 4);
                if b.is_multiple_of(16) {
                    mm.sfence(tid);
                }
            } else {
                mm.load_u64_run(tid, block, 4);
                mm.clflushopt_run(tid, block, 4);
            }
            Step::Ran
        },
    );
    for &t in &tids {
        m.sfence(t);
    }
    let makespan = tids.iter().map(|&t| m.now(t)).max().expect("threads") as f64;
    let bytes = (params.blocks_per_thread * threads as u64 * XPLINE_BYTES) as f64;
    bytes / makespan * params.ghz
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `measure` at fixed points, pinned bit for bit: any change to the
    /// model or the executor that moves E0 shows up here.
    #[test]
    fn measure_is_pinned() {
        let params = E0Params {
            blocks_per_thread: 500,
            ..E0Params::default()
        };
        let mut got = Vec::new();
        for &threads in &[1usize, 3, 4] {
            for &write in &[false, true] {
                got.push(measure(&params, threads, write).to_bits());
            }
        }
        assert_eq!(
            got,
            [
                0x3fe1_883a_31b5_75d2,
                0x3fee_4f27_ddd4_79c3,
                0x3ffa_4161_9299_71f1,
                0x3ffc_f3ad_a002_c1e0,
                0x4001_7a8c_08d8_70be,
                0x3ffc_e1a2_c7b8_4ff1,
            ]
        );
    }

    #[test]
    fn read_write_asymmetry_and_saturation() {
        let r = run(&E0Params {
            threads: vec![1, 4, 8, 16],
            blocks_per_thread: 2000,
            ..E0Params::default()
        });
        let read = r.curve("sequential read").unwrap();
        let write = r.curve("nt-store write").unwrap();
        // §2.2: max read bandwidth ≈ 3x max write bandwidth.
        let ratio = read.y_max() / write.y_max();
        assert!(
            (1.8..5.0).contains(&ratio),
            "read/write bandwidth ratio ≈ 3, got {ratio:.2}"
        );
        // Write bandwidth saturates at a small thread count.
        let w4 = write.y_at(4.0).unwrap();
        let w16 = write.y_at(16.0).unwrap();
        assert!(
            w16 < w4 * 1.25,
            "write does not scale past ~4 threads: {w4:.2} -> {w16:.2}"
        );
        // Read keeps scaling further than write does.
        let r1 = read.y_at(1.0).unwrap();
        let r16 = read.y_at(16.0).unwrap();
        assert!(
            r16 > r1 * 1.5,
            "read scales with threads: {r1:.2} -> {r16:.2}"
        );
    }
}
