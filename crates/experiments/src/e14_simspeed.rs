//! E14: the simulator's own speed, measured and gated.
//!
//! Every fleet-scale ROADMAP item multiplies the single-op simulation
//! cost, so the simulator core gets the same treatment as the modeled
//! hardware: a benchmark suite (`repro bench`) that measures the three
//! hot paths — E0-style streaming stores/loads, the E3 write-amp loop,
//! and YCSB inserts into FAST & FAIR — each bare, with a [`TraceSink`]
//! attached, and with the `simwatch` sampler attached.
//!
//! Each scenario reports `sim_ops`, `sim_cycles`, `trace_events` and
//! `sim_ops_per_mcycle`: pure functions of the seed, written to
//! `BENCH_sim.json` and compared byte for byte with the repo-root copy
//! in CI. Nothing here reads a wall clock; host speed is pmbench's to
//! measure.
//!
//! The trace-sink and sampler variants exist to keep the observability
//! hooks honest: the sink variant pins that attaching a sink still sees
//! every event (`trace_events`), and the no-sink variant is the one the
//! hot-path optimizations are judged against.

use std::cell::Cell;
use std::rc::Rc;

use cpucache::PrefetchConfig;
use optane_core::trace::{TraceEvent, TraceSink};
use optane_core::{Generation, Machine, MachineConfig, MachineSampler};
use pmds::{FastFair, UpdateStrategy};
use pmem::SimEnv;
use simbase::XPLINE_BYTES;
use workloads::YcsbGenerator;

use crate::common::{ops_per_mcycle, Curve, ExpResult};

/// Parameters for E14.
#[derive(Debug, Clone)]
pub struct E14Params {
    /// Which generation to model (the hot path is generation-agnostic;
    /// G1 exercises the periodic write-back too).
    pub generation: Generation,
    /// XPLine blocks per thread on the E0-style streaming path.
    pub e0_blocks: u64,
    /// Working-set size for the E3-style write-amp loop (bytes).
    pub e3_wss: u64,
    /// Rounds over the E3 working set.
    pub e3_rounds: u64,
    /// Inserts on the YCSB/FAST & FAIR path.
    pub ycsb_inserts: u64,
    /// Sampling interval (sim cycles) for the sampler variants.
    pub sample_interval: u64,
    /// Run seed, XORed into the machine's crash seed.
    pub seed: u64,
}

impl Default for E14Params {
    fn default() -> Self {
        E14Params {
            generation: Generation::G1,
            e0_blocks: 20_000,
            e3_wss: 16 << 10,
            e3_rounds: 60,
            ycsb_inserts: 20_000,
            sample_interval: 100_000,
            seed: 0,
        }
    }
}

impl E14Params {
    /// CI-budget scale: every scenario still crosses the caches, both
    /// DIMM buffers, and the sampler, in a couple of seconds total.
    pub fn smoke(seed: u64) -> Self {
        E14Params {
            e0_blocks: 2_000,
            e3_wss: 16 << 10,
            e3_rounds: 20,
            ycsb_inserts: 3_000,
            seed,
            ..E14Params::default()
        }
    }
}

/// The three measured hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    E0Stream,
    E3WriteAmp,
    YcsbBtree,
}

impl Path {
    fn slug(self) -> &'static str {
        match self {
            Path::E0Stream => "e0_stream",
            Path::E3WriteAmp => "e3_wa",
            Path::YcsbBtree => "ycsb_btree",
        }
    }
}

/// What observes the machine while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attach {
    /// Nothing attached: the optimization target.
    NoSink,
    /// A counting [`TraceSink`] attached (every event constructed).
    Sink,
    /// The `simwatch` [`MachineSampler`] polled from the loop.
    Sampler,
}

impl Attach {
    fn slug(self) -> &'static str {
        match self {
            Attach::NoSink => "nosink",
            Attach::Sink => "sink",
            Attach::Sampler => "sampler",
        }
    }
}

/// A sink that counts events — the cheapest possible observer, so the
/// sink-attached scenarios measure the hook itself, not the consumer.
struct CountingSink(Rc<Cell<u64>>);

impl TraceSink for CountingSink {
    fn on_event(&mut self, _ev: &TraceEvent) {
        self.0.set(self.0.get() + 1);
    }
}

/// One measured scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Stable scenario id (e.g. `"e0_stream_nosink"`).
    pub name: String,
    /// Simulated operations completed.
    pub sim_ops: u64,
    /// Simulated cycles elapsed.
    pub sim_cycles: u64,
    /// Trace events observed by the attached sink (0 when none).
    pub trace_events: u64,
}

/// E14's full output: the scenario table plus a renderable result.
#[derive(Debug)]
pub struct E14Output {
    /// One row per (path × attach) scenario, in fixed order.
    pub scenarios: Vec<Scenario>,
    /// Curve form (ops/Mcycle per path, one curve per attachment).
    pub result: ExpResult,
}

/// Renders `BENCH_sim.json`.
pub fn bench_json(out: &E14Output) -> String {
    let mut s = String::from("{\n  \"experiment\": \"e14_simspeed\",\n  \"scenarios\": [\n");
    for (i, sc) in out.scenarios.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", sc.name));
        s.push_str(&format!("      \"sim_ops\": {},\n", sc.sim_ops));
        s.push_str(&format!("      \"sim_cycles\": {},\n", sc.sim_cycles));
        s.push_str(&format!("      \"trace_events\": {},\n", sc.trace_events));
        s.push_str(&format!(
            "      \"sim_ops_per_mcycle\": {:.3}\n",
            ops_per_mcycle(sc.sim_ops, sc.sim_cycles)
        ));
        s.push_str(if i + 1 == out.scenarios.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the full suite.
pub fn run(params: &E14Params) -> E14Output {
    let mut scenarios = Vec::new();
    let mut curves = vec![
        Curve::new("no sink"),
        Curve::new("trace sink"),
        Curve::new("sampler"),
    ];
    let mut metrics_jsonl = String::new();
    for (x, path) in [Path::E0Stream, Path::E3WriteAmp, Path::YcsbBtree]
        .into_iter()
        .enumerate()
    {
        for (c, attach) in [Attach::NoSink, Attach::Sink, Attach::Sampler]
            .into_iter()
            .enumerate()
        {
            let (scenario, jsonl) = run_scenario(params, path, attach);
            curves[c].push(
                x as f64,
                ops_per_mcycle(scenario.sim_ops, scenario.sim_cycles),
            );
            if let Some(j) = jsonl {
                metrics_jsonl.push_str(&j);
            }
            scenarios.push(scenario);
        }
    }
    let mut result = ExpResult::new(
        "E14: simulator speed (0=e0_stream, 1=e3_wa, 2=ycsb_btree)",
        "path",
        "sim-ops/Mcycle",
    );
    result.curves = curves;
    if !metrics_jsonl.is_empty() {
        result.metrics_jsonl = Some(metrics_jsonl);
    }
    E14Output { scenarios, result }
}

fn run_scenario(params: &E14Params, path: Path, attach: Attach) -> (Scenario, Option<String>) {
    let mut cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::all(), 1);
    cfg.crash_seed ^= params.seed;
    let mut m = Machine::new(cfg);
    let events = Rc::new(Cell::new(0u64));
    if attach == Attach::Sink {
        m.set_trace_sink(Box::new(CountingSink(events.clone())));
    }
    let mut sampler = (attach == Attach::Sampler).then(|| {
        let mut s = MachineSampler::new(params.sample_interval);
        s.set_context(format!("e14 {}_{}", path.slug(), attach.slug()));
        s
    });
    let (sim_ops, sim_cycles) = match path {
        Path::E0Stream => e0_stream(params, &mut m, &mut sampler),
        Path::E3WriteAmp => e3_write_amp(params, &mut m, &mut sampler),
        Path::YcsbBtree => ycsb_btree(params, &mut m, &mut sampler),
    };
    let jsonl = match &mut sampler {
        Some(s) => {
            s.record_final(&m, sim_cycles);
            Some(s.to_jsonl())
        }
        None => None,
    };
    let scenario = Scenario {
        name: format!("{}_{}", path.slug(), attach.slug()),
        sim_ops,
        sim_cycles,
        trace_events: events.get(),
    };
    (scenario, jsonl)
}

/// E0-style streaming: a write pass (4 nt-stores per XPLine, periodic
/// sfence) then a read pass (4 loads + 4 clflushopt per XPLine) over
/// the same region. One simulated op per machine call.
fn e0_stream(
    params: &E14Params,
    m: &mut Machine,
    sampler: &mut Option<MachineSampler>,
) -> (u64, u64) {
    let t = m.spawn(0);
    let region = m.alloc_pm(params.e0_blocks * XPLINE_BYTES, 4096);
    let data = [0x5Au8; 64];
    let mut ops = 0u64;
    for b in 0..params.e0_blocks {
        let block = region.add_xplines(b);
        // One batched dispatch per XPLine: timing and trace events are
        // identical to four single-line nt-stores.
        m.nt_store_run(t, block, &data, 4);
        ops += 4;
        if b % 16 == 0 {
            m.sfence(t);
            ops += 1;
        }
        if let Some(s) = sampler {
            s.poll(m, m.now(t));
        }
    }
    m.sfence(t);
    ops += 1;
    for b in 0..params.e0_blocks {
        let block = region.add_xplines(b);
        m.load_u64_run(t, block, 4);
        m.clflushopt_run(t, block, 4);
        ops += 8;
        if let Some(s) = sampler {
            s.poll(m, m.now(t));
        }
    }
    m.sfence(t);
    ops += 1;
    (ops, m.now(t))
}

/// E3-style write-amp loop: partial-line nt-stores over a small working
/// set, fenced per round — the random-eviction / read-modify-write path
/// through the DIMM write buffer.
fn e3_write_amp(
    params: &E14Params,
    m: &mut Machine,
    sampler: &mut Option<MachineSampler>,
) -> (u64, u64) {
    let t = m.spawn(0);
    let base = m.alloc_pm(params.e3_wss, XPLINE_BYTES);
    let xplines = params.e3_wss / XPLINE_BYTES;
    let data = [0xA5u8; 64];
    let mut ops = 0u64;
    for _ in 0..params.e3_rounds {
        for x in 0..xplines {
            let xp = base.add_xplines(x);
            m.nt_store_run(t, xp, &data, 2);
            ops += 2;
            if let Some(s) = sampler {
                s.poll(m, m.now(t));
            }
        }
        m.sfence(t);
        ops += 1;
    }
    (ops, m.now(t))
}

/// YCSB inserts into FAST & FAIR (out-of-place): the datastore path —
/// node search, redo log, flush/fence ordering. One op per insert.
fn ycsb_btree(
    params: &E14Params,
    m: &mut Machine,
    sampler: &mut Option<MachineSampler>,
) -> (u64, u64) {
    let t = m.spawn(0);
    let mut tree = {
        let mut env = SimEnv::new(m, t);
        FastFair::create(&mut env, UpdateStrategy::RedoLog)
    };
    let mut ops = 0u64;
    for key in YcsbGenerator::load_keys(params.ycsb_inserts) {
        let mut env = SimEnv::new(m, t);
        tree.insert(&mut env, key.max(1), key);
        ops += 1;
        if let Some(s) = sampler {
            s.poll(m, m.now(t));
        }
    }
    (ops, m.now(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_covers_the_nine_scenarios() {
        let out = run(&E14Params::smoke(7));
        assert_eq!(out.scenarios.len(), 9);
        let names: Vec<_> = out.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "e0_stream_nosink",
                "e0_stream_sink",
                "e0_stream_sampler",
                "e3_wa_nosink",
                "e3_wa_sink",
                "e3_wa_sampler",
                "ycsb_btree_nosink",
                "ycsb_btree_sink",
                "ycsb_btree_sampler",
            ]
        );
        for s in &out.scenarios {
            assert!(s.sim_ops > 0, "{}: no ops", s.name);
            assert!(s.sim_cycles > 0, "{}: clock never advanced", s.name);
        }
    }

    #[test]
    fn sink_variants_see_every_event_and_timing_is_sink_independent() {
        let out = run(&E14Params::smoke(7));
        for chunk in out.scenarios.chunks(3) {
            let (nosink, sink, sampler) = (&chunk[0], &chunk[1], &chunk[2]);
            assert_eq!(nosink.trace_events, 0, "{}", nosink.name);
            assert!(
                sink.trace_events >= sink.sim_ops,
                "{}: a sink observes at least one event per op ({} < {})",
                sink.name,
                sink.trace_events,
                sink.sim_ops
            );
            // Observability must not perturb the simulation: all three
            // variants of a path simulate the identical op stream.
            assert_eq!(nosink.sim_ops, sink.sim_ops);
            assert_eq!(nosink.sim_cycles, sink.sim_cycles, "{}", sink.name);
            assert_eq!(nosink.sim_cycles, sampler.sim_cycles, "{}", sampler.name);
        }
    }

    #[test]
    fn sampler_variant_emits_metrics_rows() {
        let out = run(&E14Params::smoke(7));
        let jsonl = out.result.metrics_jsonl.expect("sampler rows");
        assert!(jsonl.contains("e14 e0_stream_sampler"));
        assert!(jsonl.contains("e14 ycsb_btree_sampler"));
    }
}
