//! Property test for checkpoint/restore exactness.
//!
//! The supervised repro harness relies on one invariant: interrupting a
//! run at a checkpoint and restoring it from the encoded snapshot must
//! be indistinguishable from never having been interrupted. Both sides
//! quiesce at the split point (a checkpoint folds in-flight state), so
//! the comparison is checkpoint-and-continue vs restore-and-continue
//! over the same randomized op tail: clocks, telemetry, and the final
//! encoded snapshot must all be byte-identical.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Machine, MachineConfig};
use proptest::prelude::*;

const PM_LINES: u64 = 64;
const DRAM_LINES: u64 = 32;

/// One randomized step of the instruction stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    StorePm(u64, u64),
    StoreDram(u64, u64),
    LoadPm(u64),
    LoadDram(u64),
    NtStorePm(u64, u64),
    Clwb(u64),
    Sfence,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(sel, slot, val)| match sel % 7 {
        0 => Op::StorePm(slot % PM_LINES, val),
        1 => Op::StoreDram(slot % DRAM_LINES, val),
        2 => Op::LoadPm(slot % PM_LINES),
        3 => Op::LoadDram(slot % DRAM_LINES),
        4 => Op::NtStorePm(slot % PM_LINES, val),
        5 => Op::Clwb(slot % PM_LINES),
        _ => Op::Sfence,
    })
}

struct Arena {
    m: Machine,
    t: optane_core::ThreadId,
    pm: simbase::Addr,
    dram: simbase::Addr,
}

fn build(gen: Generation) -> Arena {
    let cfg = MachineConfig::for_generation(gen, PrefetchConfig::none(), 1);
    let mut m = Machine::new(cfg);
    let t = m.spawn(0);
    let pm = m.alloc_pm(PM_LINES * 64, 256);
    let dram = m.alloc_dram(DRAM_LINES * 64, 64);
    Arena { m, t, pm, dram }
}

fn apply(a: &mut Arena, op: Op) {
    let t = a.t;
    match op {
        Op::StorePm(slot, v) => a.m.store_u64(t, a.pm.add_cachelines(slot), v),
        Op::StoreDram(slot, v) => a.m.store_u64(t, a.dram.add_cachelines(slot), v),
        Op::LoadPm(slot) => {
            a.m.load_u64(t, a.pm.add_cachelines(slot));
        }
        Op::LoadDram(slot) => {
            a.m.load_u64(t, a.dram.add_cachelines(slot));
        }
        Op::NtStorePm(slot, v) => {
            let mut line = [0u8; 64];
            line[..8].copy_from_slice(&v.to_le_bytes());
            a.m.nt_store(t, a.pm.add_cachelines(slot), &line);
        }
        Op::Clwb(slot) => a.m.clwb(t, a.pm.add_cachelines(slot)),
        Op::Sfence => a.m.sfence(t),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn restore_and_continue_is_byte_identical_to_checkpoint_and_continue(
        ops in prop::collection::vec(op_strategy(), 1..120),
        split_frac in any::<u64>(),
        g2 in any::<bool>(),
    ) {
        let gen = if g2 { Generation::G2 } else { Generation::G1 };
        let split = (split_frac % ops.len() as u64) as usize;

        // Uninterrupted reference: quiesce at the split, keep going.
        let mut base = build(gen);
        for op in &ops[..split] {
            apply(&mut base, *op);
        }
        let snap = base.m.checkpoint();
        let bytes = snap.encode();
        for op in &ops[split..] {
            apply(&mut base, *op);
        }

        // Interrupted run: restore from the *encoded* snapshot (the bytes
        // `divergence` hashes and `cluster::shard` round-trips), then run
        // the same tail.
        let cfg = MachineConfig::for_generation(gen, PrefetchConfig::none(), 1);
        let decoded = optane_core::MachineSnapshot::decode(&bytes).unwrap();
        let m2 = Machine::restore(cfg, &decoded).unwrap();
        let mut resumed = Arena { m: m2, t: base.t, pm: base.pm, dram: base.dram };
        for op in &ops[split..] {
            apply(&mut resumed, *op);
        }

        prop_assert_eq!(base.m.now(base.t), resumed.m.now(resumed.t));
        // The whole unified metrics view — byte taps, cache counters,
        // per-DIMM buffer stats, queue occupancy — must be continuous
        // across the kill/restore, not just the demand counter.
        prop_assert_eq!(base.m.metrics(), resumed.m.metrics());
        prop_assert_eq!(base.m.checkpoint().encode(), resumed.m.checkpoint().encode());
    }

    #[test]
    fn quiescing_does_not_lose_accumulated_metrics(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut a = build(Generation::G1);
        for op in &ops {
            apply(&mut a, *op);
        }
        let before = a.m.metrics();
        let _ = a.m.checkpoint();
        prop_assert_eq!(a.m.metrics(), before.clone());
        // And a machine restored from the snapshot reports the same
        // cumulative counters as the live one.
        let cfg = MachineConfig::for_generation(Generation::G1, PrefetchConfig::none(), 1);
        let r = Machine::restore(cfg, &a.m.checkpoint()).unwrap();
        prop_assert_eq!(r.metrics(), before);
    }
}
