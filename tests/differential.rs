//! Differential tests: the persistent structures against in-memory model
//! structures, and the simulator backend against the plain-host backend.
//!
//! The same operation sequence must produce the same observable contents
//! everywhere — the timing model must never change functional behaviour.

use std::collections::{BTreeMap, VecDeque};

use optane_study::core::{Machine, MachineConfig, ThreadId};
use optane_study::cpucache::PrefetchConfig;
use optane_study::pmds::{
    Cceh, Detectable, FastFair, Lane, MsQueue, OpResult, TreiberStack, UpdateStrategy,
};
use optane_study::pmem::{HostEnv, PmemEnv, SimEnv};
use optane_study::simbase::SplitMix64;
use proptest::prelude::*;

/// A randomized key-value operation.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Get(u64),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u64..500, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (1u64..500).prop_map(Op::Get),
        1 => (1u64..500).prop_map(Op::Remove),
    ]
}

/// A stack/queue script: `Some(v)` inserts `v`, `None` removes.
type Script = Vec<Option<u64>>;

fn script_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Script> {
    prop::collection::vec(
        prop_oneof![
            3 => (1u64..u64::MAX).prop_map(Some),
            2 => Just(None),
        ],
        len,
    )
}

fn sim_machine(lanes: usize) -> (Machine, Vec<ThreadId>) {
    let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1));
    let tids = (0..lanes).map(|_| m.spawn(0)).collect();
    (m, tids)
}

/// Runs `script` on one lane of `S` on host and sim; every result and the
/// final live values must match `model`, whose `pop` end is the
/// structure's removal end.
fn sequential_matches_model<S: Detectable>(
    script: &[Option<u64>],
    pop: fn(&mut VecDeque<u64>) -> Option<u64>,
) {
    let mut model = VecDeque::new();
    let mut host = HostEnv::new();
    let hs = S::new(&mut host);
    let mut hl = Lane::new(&mut host, 0);
    let (mut m, tids) = sim_machine(1);
    let mut sim = SimEnv::new(&mut m, tids[0]);
    let ss = S::new(&mut sim);
    let mut sl = Lane::new(&mut sim, 0);
    for &op in script {
        match op {
            Some(v) => {
                model.push_back(v);
                hl.insert(&mut host, &hs, v);
                sl.insert(&mut sim, &ss, v);
            }
            None => {
                let want = pop(&mut model);
                assert_eq!(hl.remove(&mut host, &hs), want, "host");
                assert_eq!(sl.remove(&mut sim, &ss), want, "sim");
            }
        }
    }
    let live: Vec<u64> = std::iter::from_fn(|| pop(&mut model)).collect();
    assert_eq!(hs.live_values(&mut host), live);
    assert_eq!(ss.live_values(&mut sim), live);
}

/// One completed operation of an interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Done {
    lane: usize,
    /// The script entry: `Some(v)` inserts `v`, `None` removes.
    op: Option<u64>,
    result: OpResult,
    /// The turns on which the operation began and completed.
    begin: usize,
    end: usize,
}

/// Runs `scripts` on `lanes`, one phase per turn, picking each turn's lane
/// from `seed`; `step` runs one phase of lane `l` through its env. Returns
/// every operation in completion order.
fn interleave<S: Detectable>(
    lanes: &mut [Lane<S>],
    scripts: &[Script],
    seed: u64,
    mut step: impl FnMut(usize, &mut Lane<S>) -> Option<OpResult>,
) -> Vec<Done> {
    let mut rng = SplitMix64::new(seed);
    let mut begun = vec![0; scripts.len()];
    let mut begun_at = vec![0; scripts.len()];
    let mut out = Vec::new();
    for turn in 0.. {
        let ready: Vec<usize> = (0..scripts.len())
            .filter(|&l| lanes[l].busy() || begun[l] < scripts[l].len())
            .collect();
        if ready.is_empty() {
            break;
        }
        let l = ready[rng.gen_range(ready.len() as u64) as usize];
        if !lanes[l].busy() {
            match scripts[l][begun[l]] {
                Some(v) => lanes[l].begin_insert(v),
                None => lanes[l].begin_remove(),
            }
            begun[l] += 1;
            begun_at[l] = turn;
        }
        if let Some(result) = step(l, &mut lanes[l]) {
            out.push(Done {
                lane: l,
                op: scripts[l][begun[l] - 1],
                result,
                begin: begun_at[l],
                end: turn,
            });
        }
    }
    out
}

/// Every `Empty` remove must have seen an empty structure at some point
/// of its span. It did not if some value's insert completed before the
/// remove began while that value's own remove began after it ended, or
/// never ran: the value was present throughout.
fn empty_removes_saw_empty(done: &[Done]) {
    let removal_begin: BTreeMap<u64, usize> = done
        .iter()
        .filter_map(|d| match d.result {
            OpResult::Popped(v) => Some((v, d.begin)),
            _ => None,
        })
        .collect();
    for e in done.iter().filter(|d| d.result == OpResult::Empty) {
        for ins in done.iter().filter(|d| d.end < e.begin) {
            let Some(v) = ins.op else { continue };
            let removed = removal_begin.get(&v).is_some_and(|&b| b <= e.end);
            assert!(
                removed,
                "lane {} returned Empty over turns {}..={} while {v} (inserted by \
                 lane {} at turn {}) was present throughout",
                e.lane, e.begin, e.end, ins.lane, ins.end
            );
        }
    }
}

/// The same seeded interleaving on host and sim (one simulated thread per
/// lane) must give the same results and live values, and the live values
/// must be exactly the inserted minus the removed ones.
fn interleaving_agrees<S: Detectable>(scripts: &[Script], seed: u64) {
    let n = scripts.len();
    let mut host = HostEnv::new();
    let hs = S::new(&mut host);
    let mut hl: Vec<Lane<S>> = (0..n).map(|l| Lane::new(&mut host, l as u64)).collect();
    let host_results = interleave(&mut hl, scripts, seed, |_, lane| lane.step(&mut host, &hs));
    let (mut m, tids) = sim_machine(n);
    let (ss, mut sl) = {
        let mut env = SimEnv::new(&mut m, tids[0]);
        let ss = S::new(&mut env);
        let sl: Vec<Lane<S>> = (0..n).map(|l| Lane::new(&mut env, l as u64)).collect();
        (ss, sl)
    };
    let sim_results = interleave(&mut sl, scripts, seed, |l, lane| {
        lane.step(&mut SimEnv::new(&mut m, tids[l]), &ss)
    });
    assert_eq!(host_results, sim_results);
    empty_removes_saw_empty(&host_results);
    let mut expected: Vec<u64> = scripts.iter().flatten().flatten().copied().collect();
    for d in &host_results {
        if let OpResult::Popped(v) = &d.result {
            let i = expected
                .iter()
                .position(|x| x == v)
                .expect("removed a value never inserted");
            expected.swap_remove(i);
        }
    }
    expected.sort_unstable();
    let mut host_live = hs.live_values(&mut host);
    let mut sim_live = ss.live_values(&mut SimEnv::new(&mut m, tids[0]));
    host_live.sort_unstable();
    sim_live.sort_unstable();
    assert_eq!(host_live, expected);
    assert_eq!(sim_live, expected);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    #[test]
    fn stack_and_queue_match_their_models_on_host_and_sim(script in script_strategy(1..150)) {
        sequential_matches_model::<TreiberStack>(&script, VecDeque::pop_back);
        sequential_matches_model::<MsQueue>(&script, VecDeque::pop_front);
    }

    #[test]
    fn stack_and_queue_interleavings_agree_on_host_and_sim(
        scripts in prop::collection::vec(script_strategy(1..40), 2..4),
        seed in any::<u64>(),
    ) {
        interleaving_agrees::<TreiberStack>(&scripts, seed);
        interleaving_agrees::<MsQueue>(&scripts, seed);
    }

    #[test]
    fn cceh_matches_btreemap_on_host_and_sim(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut host = HostEnv::new();
        let mut host_table = Cceh::create(&mut host, 1);
        let mut m = Machine::new(MachineConfig::g2(PrefetchConfig::all(), 6));
        let tid = m.spawn(0);
        let mut sim = SimEnv::new(&mut m, tid);
        let mut sim_table = Cceh::create(&mut sim, 1);
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    model.insert(k, v);
                    host_table.insert(&mut host, k, v);
                    sim_table.insert(&mut sim, k, v);
                }
                Op::Get(k) => {
                    let want = model.get(&k).copied();
                    prop_assert_eq!(host_table.get(&mut host, k), want);
                    prop_assert_eq!(sim_table.get(&mut sim, k), want);
                }
                Op::Remove(k) => {
                    let want = model.remove(&k);
                    prop_assert_eq!(host_table.remove(&mut host, k), want);
                    prop_assert_eq!(sim_table.remove(&mut sim, k), want);
                }
            }
        }
        prop_assert_eq!(host_table.len(), model.len() as u64);
        prop_assert_eq!(sim_table.len(), model.len() as u64);
        prop_assert_eq!(host_table.count_pairs(&mut host), model.len() as u64);
    }

    #[test]
    fn fastfair_matches_btreemap_with_ranges(
        inserts in prop::collection::vec((1u64..2000, any::<u64>()), 1..250),
        range in (1u64..2000, 1u64..2000),
    ) {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut host = HostEnv::new();
        let mut in_place = FastFair::create(&mut host, UpdateStrategy::InPlace);
        let mut redo = FastFair::create(&mut host, UpdateStrategy::RedoLog);
        for &(k, v) in &inserts {
            model.insert(k, v);
            in_place.insert(&mut host, k, v);
            redo.insert(&mut host, k, v);
        }
        let (a, b) = range;
        let (lo, hi) = (a.min(b), a.max(b));
        let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(in_place.range(&mut host, lo, hi), want.clone());
        prop_assert_eq!(redo.range(&mut host, lo, hi), want);
        prop_assert!(in_place.check_sorted(&mut host));
        prop_assert!(redo.check_sorted(&mut host));
        for (&k, &v) in model.iter().step_by(7) {
            prop_assert_eq!(in_place.get(&mut host, k), Some(v));
            prop_assert_eq!(redo.get(&mut host, k), Some(v));
        }
    }

    #[test]
    fn sim_and_host_memory_agree_bytewise(
        writes in prop::collection::vec((0u64..4096, prop::collection::vec(any::<u8>(), 1..80)), 1..60),
    ) {
        let mut host = HostEnv::new();
        let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
        let tid = m.spawn(0);
        let mut sim = SimEnv::new(&mut m, tid);
        let hbase = host.alloc(8192, 256);
        let sbase = sim.alloc(8192, 256);
        for (i, (off, data)) in writes.iter().enumerate() {
            let off = off.min(&(8192 - data.len() as u64)).to_owned();
            match i % 3 {
                0 => {
                    host.store(hbase.add(off), data);
                    sim.store(sbase.add(off), data);
                }
                1 => {
                    host.nt_store(hbase.add(off), data);
                    sim.nt_store(sbase.add(off), data);
                }
                _ => {
                    host.store(hbase.add(off), data);
                    sim.store(sbase.add(off), data);
                    host.persist(hbase.add(off), data.len() as u64);
                    sim.persist(sbase.add(off), data.len() as u64);
                }
            }
        }
        let mut hbuf = vec![0u8; 8192];
        let mut sbuf = vec![0u8; 8192];
        host.load(hbase, &mut hbuf);
        sim.load(sbase, &mut sbuf);
        prop_assert_eq!(hbuf, sbuf);
    }

    #[test]
    fn simulation_is_deterministic(
        keys in prop::collection::vec(1u64..10_000, 10..80),
    ) {
        let run = || {
            let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
            let tid = m.spawn(0);
            let mut env = SimEnv::new(&mut m, tid);
            let mut t = Cceh::create(&mut env, 2);
            for &k in &keys {
                t.insert(&mut env, k, k);
            }
            let now = env.now();
            drop(env);
            (now, m.metrics().telemetry)
        };
        let (t1, tel1) = run();
        let (t2, tel2) = run();
        prop_assert_eq!(t1, t2, "clocks must be bit-identical");
        prop_assert_eq!(tel1, tel2, "telemetry must be bit-identical");
    }
}
