//! The four workloads.
//!
//! Each workload builds its machine and inputs in `setup`, then runs
//! identical timed rounds. A round is a fixed number of ops, so the
//! simulated counters of a round are a pure function of the seed; the
//! benchmark repeats rounds until its time is up and reports the first
//! round's simulated deltas.

use std::collections::BTreeMap;
use std::time::Instant;

use cpucache::PrefetchConfig;
use optane_core::{Generation, Interleaver, Machine, MachineConfig, SchedPolicy, Step, ThreadId};
use pmds::{ChaseList, FastFair, UpdateStrategy, WriteKind};
use pmem::{PersistMode, SimEnv};
use simbase::{Addr, SplitMix64, CACHELINE_BYTES, XPLINE_BYTES};
use workloads::{AccessOrder, KeyDistribution, OpKind, OpMix, YcsbGenerator};

use crate::probe::{NoTrace, Probe, Span, TimedEnv, Windows};

/// What one round did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// Workload ops completed.
    pub ops: u64,
    /// Memory operations issued through `pmds` (0 for workloads that call
    /// the `Machine` directly).
    pub env_calls: u64,
    /// Ops whose inline correctness check failed.
    pub failed: u64,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// The workload's name.
    const NAME: &'static str;
    /// Ops per host-time window.
    const WINDOW: u64;
    /// Builds the machine and every input from `seed`. Returns the
    /// workload and the seconds spent generating inputs.
    fn setup(seed: u64, smoke: bool) -> (Self, f64);
    /// Runs one round.
    fn round<P: Probe>(&mut self, p: &mut P, win: &mut Windows) -> Round;
    /// Untimed checks after a round; returns failed ops.
    fn check(&mut self) -> u64 {
        0
    }
    /// Untimed checks after the last round; returns failed ops.
    fn finish(&mut self) -> u64 {
        0
    }
    /// The machine.
    fn machine(&mut self) -> &mut Machine;
    /// Latest simulated clock over the workload's threads.
    fn clock(&self) -> u64;
}

fn machine(generation: Generation, seed: u64) -> Machine {
    let mut cfg = MachineConfig::for_generation(generation, PrefetchConfig::all(), 1);
    cfg.crash_seed ^= seed;
    Machine::new(cfg)
}

/// A 64-bit mix of `x` (fmix64), for patterns and tokens.
fn mix(x: u64) -> u64 {
    let mut k = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    k = (k ^ (k >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k = (k ^ (k >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

/// `stream`: E0/E14's batched sweep. Each pass nt-stores 4 lines of
/// every XPLine (sfence every 16 XPLines), then loads and flushes them.
pub struct Stream {
    m: Machine,
    t: ThreadId,
    region: Addr,
    xplines: u64,
    seed: u64,
    pass: u64,
}

impl Stream {
    fn word(&self) -> u64 {
        mix(self.seed ^ self.pass.rotate_left(32))
    }
}

/// XPLines between the lines `stream` reads back after each pass.
const STREAM_CHECK_STRIDE: u64 = 997;

impl Workload for Stream {
    const NAME: &'static str = "stream";
    const WINDOW: u64 = 1024;

    fn setup(seed: u64, smoke: bool) -> (Self, f64) {
        let mut m = machine(Generation::G1, seed);
        let t = m.spawn(0);
        let bytes: u64 = if smoke { 4 << 20 } else { 64 << 20 };
        let region = m.alloc_pm(bytes, 4096);
        let s = Stream {
            m,
            t,
            region,
            xplines: bytes / XPLINE_BYTES,
            seed,
            pass: 0,
        };
        (s, 0.0)
    }

    fn round<P: Probe>(&mut self, p: &mut P, win: &mut Windows) -> Round {
        self.pass += 1;
        let word = self.word().to_le_bytes();
        let mut line = [0u8; 64];
        for w in line.chunks_exact_mut(8) {
            w.copy_from_slice(&word);
        }
        let (m, t) = (&mut self.m, self.t);
        let mut ops = 0;
        p.enter(Span::Window);
        for b in 0..self.xplines {
            let block = self.region.add_xplines(b);
            p.core(Span::NtStore, || m.nt_store_run(t, block, &line, 4));
            ops += 4;
            win.tick(4, p);
            if b % 16 == 15 {
                p.core(Span::Fence, || m.sfence(t));
                ops += 1;
                win.tick(1, p);
            }
        }
        p.core(Span::Fence, || m.sfence(t));
        ops += 1;
        for b in 0..self.xplines {
            let block = self.region.add_xplines(b);
            p.core(Span::Load, || m.load_u64_run(t, block, 4));
            p.core(Span::Flush, || m.clflushopt_run(t, block, 4));
            ops += 8;
            win.tick(8, p);
        }
        p.core(Span::Fence, || m.sfence(t));
        ops += 1;
        p.exit();
        Round {
            ops,
            ..Round::default()
        }
    }

    fn check(&mut self) -> u64 {
        let word = self.word();
        let mut failed = 0;
        for b in (0..self.xplines).step_by(STREAM_CHECK_STRIDE as usize) {
            for cl in 0..4 {
                let a = self.region.add_xplines(b).add_cachelines(cl);
                failed += u64::from(self.m.peek_u64(a) != word);
            }
        }
        failed
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn clock(&self) -> u64 {
        self.m.now(self.t)
    }
}

/// `chase`: E6 / Figure 8's random pointer chase on G2. A round is a
/// read lap, a write lap (`clwb`, strict persistence, a new token) and a
/// second read lap.
pub struct Chase {
    m: Machine,
    t: ThreadId,
    list: ChaseList,
    token: u64,
}

impl Workload for Chase {
    const NAME: &'static str = "chase";
    const WINDOW: u64 = 256;

    fn setup(seed: u64, smoke: bool) -> (Self, f64) {
        let mut m = machine(Generation::G2, seed);
        let t = m.spawn(0);
        let bytes: u64 = if smoke { 4 << 20 } else { 64 << 20 };
        // The ring order is generated inside `ChaseList::build` from the
        // seed; the benchmark itself generates nothing here.
        let list = ChaseList::build(
            &mut SimEnv::new(&mut m, t),
            bytes / XPLINE_BYTES,
            AccessOrder::Random,
            seed,
        );
        let token = mix(seed);
        (Chase { m, t, list, token }, 0.0)
    }

    fn round<P: Probe>(&mut self, p: &mut P, win: &mut Windows) -> Round {
        let mut env_calls = 0;
        for write in [false, true, false] {
            p.enter(Span::Lap);
            let mut env = TimedEnv::new(SimEnv::new(&mut self.m, self.t), p, Some(&mut *win));
            if write {
                self.token = mix(self.token);
                self.list
                    .lap_write(&mut env, WriteKind::Clwb, PersistMode::Strict, self.token);
            } else {
                self.list.lap_read(&mut env);
            }
            env_calls += env.calls;
            p.exit();
        }
        Round {
            ops: 3 * self.list.elements(),
            env_calls,
            failed: 0,
        }
    }

    fn check(&mut self) -> u64 {
        let head = self.list.head();
        let mut cur = head;
        let mut failed = 0;
        for hop in 0..self.list.elements() {
            if hop > 0 && cur == head {
                return self.list.elements(); // the ring closed early
            }
            failed += u64::from(self.m.peek_u64(cur.add_cachelines(1)) != self.token);
            cur = Addr(self.m.peek_u64(cur));
        }
        if cur != head {
            return self.list.elements();
        }
        failed
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn clock(&self) -> u64 {
        self.m.now(self.t)
    }
}

/// Accesses per `bufmix` block; a window is one small and one large block.
const BUFMIX_BLOCK: u64 = 128;
/// Windows per `bufmix` round.
const BUFMIX_WINDOWS: u64 = 1024;
/// `bufmix` working sets: one fits the on-DIMM buffers, one thrashes them.
const BUFMIX_WSS: [u64; 2] = [8 << 10, 64 << 10];

/// `bufmix`: E1/E3-style unbatched 64 B ops in alternating blocks over
/// an 8 KiB and a 64 KiB working set. Each access nt-stores a new
/// version into one line (a partial XPLine) and loads and flushes
/// another line, checking it holds its last written version.
pub struct Bufmix {
    m: Machine,
    t: ThreadId,
    bases: [Addr; 2],
    /// Last written version per cacheline, per working set.
    versions: [Vec<u64>; 2],
    /// (written line, read line) per access, blocks back to back.
    plan: Vec<(u32, u32)>,
    seq: u64,
}

impl Workload for Bufmix {
    const NAME: &'static str = "bufmix";
    const WINDOW: u64 = 2 * (3 * BUFMIX_BLOCK + 1);

    fn setup(seed: u64, smoke: bool) -> (Self, f64) {
        let mut m = machine(Generation::G1, seed);
        let t = m.spawn(0);
        let bases = BUFMIX_WSS.map(|wss| m.alloc_pm(wss, XPLINE_BYTES));
        let windows = if smoke { 64 } else { BUFMIX_WINDOWS };
        let gen = Instant::now();
        let mut rng = SplitMix64::new(seed);
        let mut plan = Vec::with_capacity((windows * 2 * BUFMIX_BLOCK) as usize);
        for _ in 0..windows {
            for wss in BUFMIX_WSS {
                let lines = wss / CACHELINE_BYTES;
                for _ in 0..BUFMIX_BLOCK {
                    plan.push((rng.gen_range(lines) as u32, rng.gen_range(lines) as u32));
                }
            }
        }
        let gen_s = gen.elapsed().as_secs_f64();
        let versions = BUFMIX_WSS.map(|wss| vec![0; (wss / CACHELINE_BYTES) as usize]);
        let b = Bufmix {
            m,
            t,
            bases,
            versions,
            plan,
            seq: 0,
        };
        (b, gen_s)
    }

    fn round<P: Probe>(&mut self, p: &mut P, win: &mut Windows) -> Round {
        let (m, t) = (&mut self.m, self.t);
        let mut r = Round::default();
        p.enter(Span::Window);
        for (i, block) in self.plan.chunks(BUFMIX_BLOCK as usize).enumerate() {
            let set = i % 2;
            let (base, versions) = (self.bases[set], &mut self.versions[set]);
            for &(w, rd) in block {
                self.seq += 1;
                versions[w as usize] = self.seq;
                let mut line = [0u8; 64];
                line[..8].copy_from_slice(&self.seq.to_le_bytes());
                let wa = base.add_cachelines(u64::from(w));
                p.core(Span::NtStore, || m.nt_store(t, wa, &line));
                let ra = base.add_cachelines(u64::from(rd));
                let got = p.core(Span::Load, || m.load_u64(t, ra));
                r.failed += u64::from(got != versions[rd as usize]);
                p.core(Span::Flush, || m.clflushopt(t, ra));
                r.ops += 3;
                win.tick(3, p);
            }
            p.core(Span::Fence, || m.sfence(t));
            r.ops += 1;
            win.tick(1, p);
        }
        p.exit();
        r
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn clock(&self) -> u64 {
        self.m.now(self.t)
    }
}

/// Simulated worker threads on `kv`.
const KV_LANES: usize = 4;

/// `kv`: YCSB-A (50 % get, 50 % update, zipfian 0.99) on a preloaded
/// FAST & FAIR tree (redo-log strategy), four simulated workers under a
/// round-robin `Interleaver`. Every get is checked against a shadow map.
pub struct Kv {
    m: Machine,
    tids: Vec<ThreadId>,
    tree: FastFair,
    /// (is get, key) per request; lane `l` serves requests `l, l + 4, …`.
    reqs: Vec<(bool, u64)>,
    shadow: BTreeMap<u64, u64>,
    next_value: u64,
}

impl Workload for Kv {
    const NAME: &'static str = "kv";
    const WINDOW: u64 = 16;

    fn setup(seed: u64, smoke: bool) -> (Self, f64) {
        let (preload, requests) = if smoke {
            (2_000, 2_000)
        } else {
            (20_000, 40_000)
        };
        let mut m = machine(Generation::G1, seed);
        let tids: Vec<ThreadId> = (0..KV_LANES).map(|_| m.spawn(0)).collect();
        let mut env = SimEnv::new(&mut m, tids[0]);
        let mut tree = FastFair::create(&mut env, UpdateStrategy::RedoLog);
        let mut shadow = BTreeMap::new();
        for key in YcsbGenerator::load_keys(preload) {
            let key = key.max(1);
            tree.insert(&mut env, key, key);
            shadow.insert(key, key);
        }
        let gen = Instant::now();
        let mut ycsb = YcsbGenerator::new(seed, KeyDistribution::Zipfian(0.99), preload);
        for _ in 0..preload {
            ycsb.next_insert_key();
        }
        let reqs = (0..requests)
            .map(|_| {
                let (kind, key) = ycsb.next_op(&OpMix::ycsb_a());
                (kind == OpKind::Read, key.max(1))
            })
            .collect();
        let gen_s = gen.elapsed().as_secs_f64();
        let kv = Kv {
            m,
            tids,
            tree,
            reqs,
            shadow,
            next_value: 0,
        };
        (kv, gen_s)
    }

    fn round<P: Probe>(&mut self, p: &mut P, win: &mut Windows) -> Round {
        let Kv {
            m,
            tids,
            tree,
            reqs,
            shadow,
            next_value,
        } = self;
        let mut r = Round::default();
        let mut served = [0usize; KV_LANES];
        p.enter(Span::Run);
        let mut step = |mm: &mut Machine, tid: ThreadId, lane: usize| {
            let idx = lane + KV_LANES * served[lane];
            let Some(&(get, key)) = reqs.get(idx) else {
                return Step::Done;
            };
            served[lane] += 1;
            p.mark(idx as u64);
            p.enter(Span::Request);
            if get {
                p.enter(Span::Get);
                let mut env = TimedEnv::new(SimEnv::new(mm, tid), p, None);
                let got = tree.get(&mut env, key);
                r.env_calls += env.calls;
                p.exit();
                r.failed += u64::from(got != shadow.get(&key).copied());
            } else {
                *next_value += 1;
                p.enter(Span::Put);
                let mut env = TimedEnv::new(SimEnv::new(mm, tid), p, None);
                tree.insert(&mut env, key, *next_value);
                r.env_calls += env.calls;
                p.exit();
                shadow.insert(key, *next_value);
            }
            r.ops += 1;
            // Spans here carry the request id, so windows stay untraced.
            win.tick(1, &mut NoTrace);
            p.exit();
            Step::Ran
        };
        Interleaver::new(SchedPolicy::RoundRobin).run(m, tids, &mut step);
        p.exit();
        r
    }

    fn finish(&mut self) -> u64 {
        let mut env = SimEnv::new(&mut self.m, self.tids[0]);
        let pairs = self.tree.count_pairs(&mut env);
        let sorted = self.tree.check_sorted(&mut env);
        pairs.abs_diff(self.shadow.len() as u64) + u64::from(!sorted)
    }

    fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    fn clock(&self) -> u64 {
        self.tids.iter().map(|&t| self.m.now(t)).max().unwrap_or(0)
    }
}
