//! Table 1 (§4.1): time breakdown of CCEH key insertion.
//!
//! YCSB-style inserts into CCEH under {1, 5} threads x {1, 6} DIMMs, with
//! per-phase cycle attribution. The paper's headline: the *segment
//! metadata* random read is the single largest component (~50%) and
//! dwarfs the persistence barriers, regardless of thread count or DIMM
//! population. The paper folds bucket probing into its three-column
//! presentation; we report it separately and note the mapping in
//! `EXPERIMENTS.md`.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Interleaver, Machine, MachineConfig, SchedPolicy, Step};
use pmds::{cceh::InsertBreakdown, Cceh};
use pmem::SimEnv;
use workloads::YcsbGenerator;

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Worker threads.
    pub threads: usize,
    /// DIMMs behind the iMC.
    pub dimms: usize,
    /// Fraction of insert time in the segment-metadata random read.
    pub segment_meta: f64,
    /// Fraction in bucket probing and the pair store.
    pub bucket: f64,
    /// Fraction in persistence barriers.
    pub persists: f64,
    /// Fraction in everything else (hash, directory, splits).
    pub misc: f64,
}

/// The full table.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Rows in (threads, dimms) order.
    pub rows: Vec<Table1Row>,
}

impl std::fmt::Display for Table1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>14} {:>16} {:>14} {:>12} {:>10}",
            "Thread/DIMM", "Segment meta", "Bucket probe", "Persists", "Misc"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>14} {:>15.1}% {:>13.1}% {:>11.1}% {:>9.1}%",
                format!("{}T/{}-DIMM", r.threads, r.dimms),
                r.segment_meta * 100.0,
                r.bucket * 100.0,
                r.persists * 100.0,
                r.misc * 100.0,
            )?;
        }
        Ok(())
    }
}

/// Parameters for Table 1.
#[derive(Debug, Clone)]
pub struct Table1Params {
    /// Total keys inserted per configuration (the paper uses 16 M; the
    /// default is scaled down).
    pub inserts: u64,
    /// (threads, dimms) cases.
    pub cases: Vec<(usize, usize)>,
    /// Initial table depth. The paper's 16 M-key table dwarfs the LLC; a
    /// scaled run must pre-size the table past the LLC (depth 12 =
    /// 4096 segments = 64 MB) to expose the same random-read behaviour.
    pub initial_depth: u64,
}

impl Default for Table1Params {
    fn default() -> Self {
        Table1Params {
            inserts: 100_000,
            cases: vec![(1, 1), (5, 1), (1, 6), (5, 6)],
            initial_depth: 12,
        }
    }
}

/// Runs the Table 1 measurement on a G1 machine.
pub fn run(params: &Table1Params) -> Table1Result {
    let rows = params
        .cases
        .iter()
        .map(|&(threads, dimms)| measure_case(params.inserts, threads, dimms, params.initial_depth))
        .collect();
    Table1Result { rows }
}

fn measure_case(inserts: u64, threads: usize, dimms: usize, depth: u64) -> Table1Row {
    let cfg = MachineConfig::for_generation(Generation::G1, PrefetchConfig::all(), dimms);
    let mut m = Machine::new(cfg);
    let tids: Vec<_> = (0..threads).map(|_| m.spawn(0)).collect();
    let mut table = {
        let mut env = SimEnv::new(&mut m, tids[0]);
        Cceh::create(&mut env, depth)
    };
    let mut keys = YcsbGenerator::load_keys(inserts);
    let mut total = InsertBreakdown::default();
    // Lanes drain one shared key stream, one instrumented insert per
    // executor step, round-robin (`measure_case_is_pinned` holds the
    // results).
    Interleaver::new(SchedPolicy::RoundRobin).run(
        &mut m,
        &tids,
        &mut |mm: &mut Machine, tid, _lane: usize| {
            let Some(key) = keys.next() else {
                return Step::Done;
            };
            let mut env = SimEnv::new(mm, tid);
            let bd = table.insert_instrumented(&mut env, key.max(1), key);
            total.add(&bd);
            Step::Ran
        },
    );
    let sum = total.total().max(1) as f64;
    Table1Row {
        threads,
        dimms,
        segment_meta: total.segment_meta as f64 / sum,
        bucket: total.bucket as f64 / sum,
        persists: total.persists as f64 / sum,
        misc: (total.directory + total.misc) as f64 / sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `measure_case` at fixed points, pinned bit for bit: any change to
    /// the model, CCEH or the executor that moves Table 1 shows up here.
    #[test]
    fn measure_case_is_pinned() {
        // 1000 keys over 3 threads ends mid-round, covering the
        // partial-final-round retirement path.
        let mut got = Vec::new();
        for &threads in &[1usize, 3] {
            let r = measure_case(1000, threads, 1, 12);
            got.push([
                r.segment_meta.to_bits(),
                r.bucket.to_bits(),
                r.persists.to_bits(),
                r.misc.to_bits(),
            ]);
        }
        assert_eq!(
            got,
            [
                [
                    0x3fe4_812c_ca29_ad2b,
                    0x3f85_759d_dc73_a722,
                    0x3fcc_7dc7_41c4_ac02,
                    0x3fc0_262b_b7cd_64e0,
                ],
                [
                    0x3fee_37da_5cb5_5de1,
                    0x3f52_6dac_9a21_b60d,
                    0x3f98_7792_bedc_76e6,
                    0x3f9f_6646_e0d5_b19b,
                ],
            ]
        );
    }

    #[test]
    fn segment_metadata_dominates_regardless_of_config() {
        let r = run(&Table1Params {
            inserts: 6000,
            cases: vec![(1, 1), (5, 1), (1, 6), (5, 6)],
            initial_depth: 12,
        });
        for row in &r.rows {
            assert!(
                row.segment_meta > row.persists,
                "{}T/{}D: metadata read ({:.2}) should beat persists ({:.2})",
                row.threads,
                row.dimms,
                row.segment_meta,
                row.persists
            );
            assert!(
                row.segment_meta > 0.25,
                "{}T/{}D: metadata is the major component: {:.2}",
                row.threads,
                row.dimms,
                row.segment_meta
            );
            let total = row.segment_meta + row.bucket + row.persists + row.misc;
            assert!((total - 1.0).abs() < 1e-6, "fractions sum to 1: {total}");
        }
    }
}
