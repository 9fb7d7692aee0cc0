//! Ablations: each model knob DESIGN.md calls out, toggled on a workload
//! that exercises it, with the measured direction asserted.
//!
//! The paper's method is ablation of the on-DIMM buffers: read-buffer
//! capacity sets where read amplification steps from 4 to 1, and the
//! periodic XPBuffer write-back is the G1↔G2 difference. Every knob here
//! runs each setting on a fresh machine and records one number per
//! setting; [`Knob::holds`] says whether those numbers still point the
//! way EXPERIMENTS.md records. `repro ablations` fails when one does
//! not. Workloads are fixed, so the numbers do not depend on the seed.

use cpucache::PrefetchConfig;
use optane_core::{CrashPolicy, Machine, MachineConfig};
use pmds::{Cceh, ChaseList, FastFair, UpdateStrategy, WriteKind};
use pmem::{PersistMode, PmemEnv, SimEnv};
use simbase::{Cycles, SplitMix64};
use workloads::AccessOrder;

use crate::common::format_num;

/// One ablated knob: its metric at each setting, and whether the
/// settings compare the way the recorded result says.
#[derive(Debug)]
pub struct Knob {
    /// Stable knob id (the CSV's first column).
    pub name: &'static str,
    /// What `settings` measure.
    pub metric: &'static str,
    /// `(setting, value)` in fixed order.
    pub settings: Vec<(&'static str, f64)>,
    /// The recorded direction, in words.
    pub expect: &'static str,
    /// Whether the measured values move in the recorded direction.
    pub holds: bool,
}

impl Knob {
    fn new(
        name: &'static str,
        metric: &'static str,
        settings: Vec<(&'static str, f64)>,
        expect: &'static str,
        holds: fn(&[f64]) -> bool,
    ) -> Self {
        let values: Vec<f64> = settings.iter().map(|&(_, v)| v).collect();
        Knob {
            name,
            metric,
            holds: holds(&values),
            settings,
            expect,
        }
    }

    /// One report line: the values, the verdict, the recorded direction.
    pub fn line(&self) -> String {
        let values: Vec<String> = self
            .settings
            .iter()
            .map(|&(s, v)| format!("{s}={}", format_num(v)))
            .collect();
        format!(
            "{:<20} {} [{}] — {}: {}",
            self.name,
            if self.holds { "ok" } else { "FLIPPED" },
            values.join(" "),
            self.metric,
            self.expect
        )
    }
}

/// Runs every ablation, in fixed order.
pub fn run() -> Vec<Knob> {
    let (none, all) = (PrefetchConfig::none(), PrefetchConfig::all());
    let (adr, eadr) = (power_fail_chase(false), power_fail_chase(true));
    vec![
        Knob::new(
            "read_buffer_lines",
            "read amplification, 4 strided passes over 64 XPLines",
            vec![
                ("32", read_buffer_ra(32)),
                ("64", read_buffer_ra(64)),
                ("128", read_buffer_ra(128)),
            ],
            "RA 4 below the 64-line set, 1 once capacity covers it",
            |v| v[0] > v[1] && v[1] == v[2],
        ),
        Knob::new(
            "periodic_writeback",
            "write amplification, full-line nt-stores over 16 XPLines",
            vec![
                ("on", writeback_wa(Some(5000))),
                ("off", writeback_wa(None)),
            ],
            "on writes buffered full lines back to media, off keeps them in the XPBuffer",
            |v| v[0] > v[1],
        ),
        Knob::new(
            "eadr_timing",
            "cycles/element, strict clwb chase writes",
            vec![("adr", adr.0), ("eadr", eadr.0)],
            "eADR changes crash semantics only: identical timing",
            |v| v[0] == v[1],
        ),
        Knob::new(
            "eadr_crash",
            "unflushed store survives power-fail (1 = yes)",
            vec![("adr", adr.1), ("eadr", eadr.1)],
            "only eADR keeps dirty cache lines",
            |v| v[0] == 0.0 && v[1] == 1.0,
        ),
        Knob::new(
            "prefetch_chase",
            "cycles/element, 4096-element sequential chase (256 B stride)",
            vec![("none", seq_chase(none)), ("all", seq_chase(all))],
            "one load per XPLine: no ascending cacheline run, no prefetch the chase reads",
            |v| v[0] == v[1],
        ),
        Knob::new(
            "prefetch_lines",
            "cycles/load, 16384 sequential cacheline loads (64 B stride)",
            vec![("none", seq_lines(none)), ("all", seq_lines(all))],
            "an ascending cacheline run trains the prefetchers: all-on cuts per-load latency",
            |v| v[1] < v[0],
        ),
        Knob::new(
            "fastfair_strategy",
            "cycles, 800 shuffled FAST&FAIR inserts",
            vec![
                ("in_place", fastfair_cycles(UpdateStrategy::InPlace) as f64),
                ("redo_log", fastfair_cycles(UpdateStrategy::RedoLog) as f64),
            ],
            "in-place shifting costs more than the redo log (the E8 gap)",
            |v| v[0] > v[1],
        ),
        Knob::new(
            "cceh_dimms",
            "cycles, 500 CCEH inserts",
            vec![("1", cceh_cycles(1) as f64), ("6", cceh_cycles(6) as f64)],
            "interleaving over 6 DIMMs spreads WPQ pressure",
            |v| v[1] < v[0],
        ),
    ]
}

/// `ablations.csv`: one row per (knob, setting).
pub fn to_csv(knobs: &[Knob]) -> String {
    let mut out = String::from("knob,metric,setting,value,direction_holds\n");
    for k in knobs {
        for (setting, value) in &k.settings {
            out.push_str(&format!(
                "{},{},{setting},{value},{}\n",
                k.name,
                k.metric.replace(',', ";"),
                k.holds
            ));
        }
    }
    out
}

fn read_buffer_ra(lines: usize) -> f64 {
    let mut cfg = MachineConfig::g1(PrefetchConfig::none(), 1);
    cfg.pm.dimm.read_buffer_lines = lines;
    let mut m = Machine::new(cfg);
    let t = m.spawn(0);
    let base = m.alloc_pm(16 << 10, 256);
    for pass in 0..4u64 {
        for x in 0..64u64 {
            let a = base.add_xplines(x).add_cachelines(pass);
            m.load_u64(t, a);
            m.clflushopt(t, a);
        }
    }
    m.metrics().telemetry.read_amplification()
}

fn writeback_wa(period: Option<u64>) -> f64 {
    let mut cfg = MachineConfig::g1(PrefetchConfig::none(), 1);
    cfg.pm.dimm.writeback_period = period;
    let mut m = Machine::new(cfg);
    let t = m.spawn(0);
    let base = m.alloc_pm(4 << 10, 256);
    for round in 0..20u64 {
        for x in 0..16u64 {
            for cl in 0..4u64 {
                let a = base.add_xplines(x).add_cachelines(cl);
                m.nt_store(t, a, &round.to_le_bytes());
            }
        }
        m.sfence(t);
    }
    m.metrics().telemetry.write_amplification()
}

/// Strict-persistency chase writes, then one unflushed store and a
/// power failure: `(cycles/element, 1.0 if the store survived)`.
fn power_fail_chase(eadr: bool) -> (f64, f64) {
    let mut cfg = MachineConfig::g2(PrefetchConfig::all(), 1);
    cfg.eadr = eadr;
    let mut m = Machine::new(cfg);
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let list = ChaseList::build(&mut env, 256, AccessOrder::Random, 1);
    let per_element = list.lap_write(&mut env, WriteKind::Clwb, PersistMode::Strict, 1);
    let probe = env.alloc(64, 64);
    env.store_u64(probe, 0xE);
    drop(env);
    m.power_fail(CrashPolicy::LoseUnflushed);
    let survived = m.peek_u64(probe) == 0xE;
    (per_element as f64, if survived { 1.0 } else { 0.0 })
}

fn seq_chase(pf: PrefetchConfig) -> f64 {
    let mut m = Machine::new(MachineConfig::g1(pf, 1));
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let list = ChaseList::build(&mut env, 4096, AccessOrder::Sequential, 2);
    list.lap_read(&mut env) as f64
}

fn seq_lines(pf: PrefetchConfig) -> f64 {
    const LINES: u64 = 16384;
    let mut m = Machine::new(MachineConfig::g1(pf, 1));
    let t = m.spawn(0);
    let base = m.alloc_pm(LINES * 64, 4096);
    let start = m.now(t);
    for i in 0..LINES {
        m.load_u64(t, base.add_cachelines(i));
    }
    (m.now(t) - start) as f64 / LINES as f64
}

fn fastfair_cycles(strategy: UpdateStrategy) -> Cycles {
    let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let mut tree = FastFair::create(&mut env, strategy);
    let mut keys: Vec<u64> = (1..=800).collect();
    SplitMix64::new(3).shuffle(&mut keys);
    for &k in &keys {
        tree.insert(&mut env, k, k);
    }
    env.now()
}

fn cceh_cycles(dimms: usize) -> Cycles {
    let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), dimms));
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let mut table = Cceh::create(&mut env, 8);
    for k in 1..=500u64 {
        table.insert(&mut env, (k * 0x9E37_79B9) | 1, k);
    }
    env.now()
}
