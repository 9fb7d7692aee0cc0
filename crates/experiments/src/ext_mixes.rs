//! Extension: CCEH under the standard YCSB operation mixes.
//!
//! The paper's case studies use the YCSB load phase (pure inserts); this
//! extension exercises the read/update mixes (YCSB-A 50/50, YCSB-B 95/5,
//! YCSB-C read-only) with zipfian key popularity, on PM and on DRAM. It
//! quantifies the §6 takeaway — "given a specific workload, it is
//! important to determine whether read or write is the bottleneck": on
//! PM, the more read-heavy the mix, the more zipfian caching helps, while
//! persists keep update-heavy mixes pinned.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Machine, MachineConfig};
use pmds::Cceh;
use pmem::SimEnv;
use workloads::{KeyDistribution, OpKind, OpMix, YcsbGenerator};

use crate::common::{Curve, ExpResult};
use crate::e7_cceh::Backing;

/// Parameters for the mix extension.
#[derive(Debug, Clone)]
pub struct MixParams {
    /// Which generation to model.
    pub generation: Generation,
    /// Records loaded before the op phase.
    pub records: u64,
    /// Operations per mix.
    pub ops: u64,
    /// Initial table depth (past the LLC by default).
    pub initial_depth: u64,
    /// Clock frequency for Mops/s conversion.
    pub ghz: f64,
    /// Workload generator seed.
    pub seed: u64,
}

impl Default for MixParams {
    fn default() -> Self {
        MixParams {
            generation: Generation::G1,
            records: 50_000,
            ops: 50_000,
            initial_depth: 12,
            ghz: 2.1,
            seed: 0x91c5,
        }
    }
}

/// The three standard mixes.
fn mixes() -> [(&'static str, OpMix); 3] {
    [
        ("YCSB-A (50r/50u)", OpMix::ycsb_a()),
        ("YCSB-B (95r/5u)", OpMix::ycsb_b()),
        ("YCSB-C (100r)", OpMix::ycsb_c()),
    ]
}

/// Runs the mixes on PM and DRAM; x axis is the mix index (0 = A).
pub fn run(params: &MixParams) -> ExpResult {
    let mut result = ExpResult::new(
        format!("EXT / YCSB mixes on CCEH ({})", params.generation),
        "mix(0=A,1=B,2=C)",
        "Mops/s",
    );
    for backing in [Backing::Pm, Backing::Dram] {
        let label = match backing {
            Backing::Pm => "PM",
            Backing::Dram => "DRAM",
        };
        let mut curve = Curve::new(label);
        for (i, (_, mix)) in mixes().iter().enumerate() {
            curve.push(i as f64, measure(params, backing, mix));
        }
        result.curves.push(curve);
    }
    result
}

fn measure(params: &MixParams, backing: Backing, mix: &OpMix) -> f64 {
    let cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::all(), 1);
    let mut m = Machine::new(cfg);
    let tid = m.spawn(0);
    let mut env = match backing {
        Backing::Pm => SimEnv::new(&mut m, tid),
        Backing::Dram => SimEnv::volatile_backed(&mut m, tid),
    };
    let mut table = Cceh::create(&mut env, params.initial_depth);
    let mut gen = YcsbGenerator::new(
        params.seed,
        KeyDistribution::Zipfian(YcsbGenerator::ZIPFIAN_THETA),
        params.records,
    );
    for _ in 0..params.records {
        let k = gen.next_insert_key().max(1);
        table.insert(&mut env, k, k);
    }
    use pmem::PmemEnv;
    let start = env.now();
    for _ in 0..params.ops {
        match gen.next_op(mix) {
            (OpKind::Read, k) => {
                table.get(&mut env, k.max(1));
            }
            (OpKind::Update, k) | (OpKind::Insert, k) => {
                table.insert(&mut env, k.max(1), k);
            }
        }
    }
    let elapsed = env.now() - start;
    params.ops as f64 / elapsed as f64 * params.ghz * 1e3 // Mops/s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_heavier_mixes_are_faster_on_pm() {
        let r = run(&MixParams {
            records: 8000,
            ops: 8000,
            ..MixParams::default()
        });
        let pm = r.curve("PM").unwrap();
        let a = pm.y_at(0.0).unwrap();
        let c = pm.y_at(2.0).unwrap();
        assert!(
            c > a,
            "read-only C beats update-heavy A on PM (persists cost): {c} vs {a}"
        );
        // DRAM is faster than PM for every mix.
        let dram = r.curve("DRAM").unwrap();
        for i in 0..3 {
            assert!(
                dram.y_at(i as f64).unwrap() > pm.y_at(i as f64).unwrap(),
                "mix {i}: DRAM > PM"
            );
        }
    }
}
