//! Differential property test for the repeat path of `Machine::load`.
//!
//! A load that repeats the machine's previous call (same thread, same
//! cacheline) is served from a one-entry record once a repeat has proved
//! it a plain L1 hit. That must be invisible: each script runs on two
//! machines, and the twin gets an `advance(tid, 0)` after every op, which
//! changes nothing simulated but forgets the record, so the twin never
//! takes the fast path. Loaded bytes, trace events, metrics, thread
//! clocks and the final checkpoint must all agree.

use std::cell::RefCell;
use std::rc::Rc;

use cpucache::PrefetchConfig;
use optane_core::trace::{TraceEvent, TraceSink};
use optane_core::{Generation, Machine, MachineConfig, ThreadId};
use proptest::prelude::*;
use simbase::Addr;

const PM_LINES: u64 = 24;
const DRAM_LINES: u64 = 8;
const MAX_THREADS: usize = 4;

/// One step of a script. `t` picks a live thread (modulo the count),
/// `line` a line of the PM arena (or, with `dram`, the DRAM arena).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `n + 1` loads of one line, at varying offsets and lengths; some
    /// cross into the next line.
    Loads {
        t: u8,
        line: u64,
        dram: bool,
        n: u8,
        off: u8,
    },
    LoadPair {
        t: u8,
        a: u64,
        b: u64,
    },
    LoadRun {
        t: u8,
        line: u64,
        n: u8,
    },
    Store {
        t: u8,
        line: u64,
        dram: bool,
        v: u64,
    },
    StoreFullLine {
        t: u8,
        line: u64,
        v: u64,
    },
    NtStore {
        t: u8,
        line: u64,
        v: u64,
    },
    NtStoreRun {
        t: u8,
        line: u64,
        n: u8,
    },
    Clwb {
        t: u8,
        line: u64,
    },
    Clflushopt {
        t: u8,
        line: u64,
    },
    Clflush {
        t: u8,
        line: u64,
    },
    FlushRun {
        t: u8,
        line: u64,
        n: u8,
    },
    Sfence {
        t: u8,
    },
    Mfence {
        t: u8,
    },
    Cas {
        t: u8,
        line: u64,
        v: u64,
    },
    FetchAdd {
        t: u8,
        line: u64,
    },
    Advance {
        t: u8,
        cycles: u64,
    },
    /// A sibling of thread 0 (sharing its core), or a thread on the
    /// other socket, until there are `MAX_THREADS`.
    Spawn {
        sibling: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(sel, a, b, v)| {
        // Half the ops act on thread 0 and three of them on one of
        // three hot lines, so a repeat run and the call that must end it
        // often meet on the same thread and line.
        let t = if a >> 63 == 0 { 0 } else { (a >> 56) as u8 };
        let line = if a % 4 == 0 { a % PM_LINES } else { a % 3 };
        let small = (b % 8) as u8;
        match sel % 40 {
            0..=17 => Op::Loads {
                t,
                line: if b & 1 == 0 { line } else { a % DRAM_LINES },
                dram: b & 1 == 1,
                n: small,
                off: (v % 64) as u8,
            },
            18 => Op::LoadPair {
                t,
                a: line,
                b: b % PM_LINES,
            },
            19 => Op::LoadRun { t, line, n: small },
            20..=22 => Op::Store {
                t,
                line: if b & 1 == 0 { line } else { a % DRAM_LINES },
                dram: b & 1 == 1,
                v,
            },
            23 => Op::StoreFullLine { t, line, v },
            24 => Op::NtStore { t, line, v },
            25 => Op::NtStoreRun { t, line, n: small },
            26..=27 => Op::Clwb { t, line },
            28 => Op::Clflushopt { t, line },
            29 => Op::Clflush { t, line },
            30 => Op::FlushRun { t, line, n: small },
            31..=32 => Op::Sfence { t },
            33 => Op::Mfence { t },
            34 => Op::Cas { t, line, v: v % 3 },
            35 => Op::FetchAdd { t, line },
            36..=37 => Op::Advance {
                t,
                cycles: v % 2000,
            },
            _ => Op::Spawn {
                sibling: b & 1 == 0,
            },
        }
    })
}

struct Collect(Rc<RefCell<Vec<TraceEvent>>>);

impl TraceSink for Collect {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.0.borrow_mut().push(*ev);
    }
}

/// Everything a run can show: loaded bytes and returned values, the
/// trace, the metrics view, every thread's clock, and the checkpoint.
struct Observed {
    values: Vec<u64>,
    events: Vec<TraceEvent>,
    metrics: optane_core::MachineMetrics,
    clocks: Vec<u64>,
    checkpoint: Vec<u8>,
}

fn run(gen: Generation, ops: &[Op], twin: bool) -> Observed {
    let mut m = Machine::new(MachineConfig::for_generation(gen, PrefetchConfig::all(), 1));
    let events = Rc::new(RefCell::new(Vec::new()));
    m.set_trace_sink(Box::new(Collect(Rc::clone(&events))));
    let mut tids = vec![m.spawn(0)];
    let pm = m.alloc_pm((PM_LINES + 8) * 64, 256);
    let dram = m.alloc_dram((DRAM_LINES + 1) * 64, 64);
    let mut values = Vec::new();
    for &op in ops {
        let pick = |t: u8| tids[t as usize % tids.len()];
        let pl = |line: u64| pm.add_cachelines(line);
        let acting: ThreadId;
        match op {
            Op::Loads {
                t,
                line,
                dram: in_dram,
                n,
                off,
            } => {
                acting = pick(t);
                let base = if in_dram {
                    dram.add_cachelines(line)
                } else {
                    pl(line)
                };
                for i in 0..=u64::from(n) {
                    // Mostly short loads inside the line, now and then
                    // one that spills into the next.
                    let off = (u64::from(off) + 8 * i) % 64;
                    let len = if i % 5 == 4 { 16 } else { 8.min(64 - off) };
                    let mut buf = vec![0u8; len as usize];
                    m.load(acting, Addr(base.0 + off), &mut buf);
                    values.extend(buf.iter().map(|&b| u64::from(b)));
                }
            }
            Op::LoadPair { t, a, b } => {
                acting = pick(t);
                let (mut x, mut y) = ([0u8; 8], [0u8; 8]);
                m.load_pair(acting, pl(a), pl(b), &mut x, &mut y);
                values.push(u64::from_le_bytes(x));
                values.push(u64::from_le_bytes(y));
            }
            Op::LoadRun { t, line, n } => {
                acting = pick(t);
                m.load_u64_run(acting, pl(line), u64::from(n));
            }
            Op::Store {
                t,
                line,
                dram: in_dram,
                v,
            } => {
                acting = pick(t);
                let a = if in_dram {
                    dram.add_cachelines(line)
                } else {
                    pl(line)
                };
                m.store_u64(acting, Addr(a.0 + (v % 8) * 8), v);
            }
            Op::StoreFullLine { t, line, v } => {
                acting = pick(t);
                m.store_full_cacheline(acting, pl(line), &[v as u8; 64]);
            }
            Op::NtStore { t, line, v } => {
                acting = pick(t);
                m.nt_store(acting, pl(line), &v.to_le_bytes());
            }
            Op::NtStoreRun { t, line, n } => {
                acting = pick(t);
                m.nt_store_run(acting, pl(line), &[n; 64], u64::from(n));
            }
            Op::Clwb { t, line } => {
                acting = pick(t);
                m.clwb(acting, pl(line));
            }
            Op::Clflushopt { t, line } => {
                acting = pick(t);
                m.clflushopt(acting, pl(line));
            }
            Op::Clflush { t, line } => {
                acting = pick(t);
                m.clflush(acting, pl(line));
            }
            Op::FlushRun { t, line, n } => {
                acting = pick(t);
                m.clflushopt_run(acting, pl(line), u64::from(n));
            }
            Op::Sfence { t } => {
                acting = pick(t);
                m.sfence(acting);
            }
            Op::Mfence { t } => {
                acting = pick(t);
                m.mfence(acting);
            }
            Op::Cas { t, line, v } => {
                acting = pick(t);
                values.push(m.cas_u64(acting, pl(line), v, v + 1));
            }
            Op::FetchAdd { t, line } => {
                acting = pick(t);
                values.push(m.fetch_add_u64(acting, pl(line), 3));
            }
            Op::Advance { t, cycles } => {
                acting = pick(t);
                m.advance(acting, cycles);
            }
            Op::Spawn { sibling } => {
                acting = tids[0];
                if tids.len() < MAX_THREADS {
                    let tid = if sibling {
                        m.spawn_sibling(tids[0])
                    } else {
                        m.spawn(1)
                    };
                    tids.push(tid);
                }
            }
        }
        if twin {
            m.advance(acting, 0);
        }
    }
    m.take_trace_sink();
    let clocks = tids.iter().map(|&t| m.now(t)).collect();
    let metrics = m.metrics();
    let checkpoint = m.checkpoint().encode();
    let events = events.borrow().clone();
    Observed {
        values,
        events,
        metrics,
        clocks,
        checkpoint,
    }
}

/// Names the first part of two runs' observations that differs, with the
/// first differing element, or `None` when they agree.
fn first_difference(a: &Observed, b: &Observed) -> Option<String> {
    fn first<T: PartialEq + std::fmt::Debug>(what: &str, a: &[T], b: &[T]) -> Option<String> {
        let i = a.iter().zip(b).position(|(x, y)| x != y);
        match i {
            Some(i) => Some(format!("{what}[{i}]: {:?} vs {:?}", a[i], b[i])),
            None if a.len() != b.len() => Some(format!("{what}: {} vs {} long", a.len(), b.len())),
            None => None,
        }
    }
    first("values", &a.values, &b.values)
        .or_else(|| first("events", &a.events, &b.events))
        .or_else(|| first("clocks", &a.clocks, &b.clocks))
        .or_else(|| {
            (a.metrics != b.metrics).then(|| format!("metrics: {:?} vs {:?}", a.metrics, b.metrics))
        })
        .or_else(|| first("checkpoint", &a.checkpoint, &b.checkpoint))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn repeat_path_is_invisible(
        ops in prop::collection::vec(op_strategy(), 1..160),
        g2 in any::<bool>(),
    ) {
        let gen = if g2 { Generation::G2 } else { Generation::G1 };
        let diff = first_difference(&run(gen, &ops, false), &run(gen, &ops, true));
        prop_assert!(diff.is_none(), "{:?}: {}", gen, diff.unwrap_or_default());
    }
}

/// A hand-written script that takes the fast path many times, on both
/// generations, with siblings sharing a core.
#[test]
fn repeated_node_scans_match_the_twin() {
    let mut ops = vec![Op::Spawn { sibling: true }, Op::Spawn { sibling: false }];
    for round in 0..40u64 {
        let t = (round % 3) as u8;
        ops.push(Op::Loads {
            t,
            line: round % 5,
            dram: false,
            n: 7,
            off: 0,
        });
        ops.push(Op::Loads {
            t: t + 1,
            line: round % 5,
            dram: false,
            n: 3,
            off: 8,
        });
        if round % 4 == 0 {
            ops.push(Op::Store {
                t,
                line: round % 5,
                dram: false,
                v: round,
            });
            ops.push(Op::Clwb { t, line: round % 5 });
            ops.push(Op::Sfence { t });
        }
    }
    for gen in [Generation::G1, Generation::G2] {
        let diff = first_difference(&run(gen, &ops, false), &run(gen, &ops, true));
        assert_eq!(diff, None, "{gen:?}");
    }
}
