//! E1 / Figure 2: inferring the read buffer with strided reads.
//!
//! Single thread reads `CpX` cachelines per XPLine over a working set,
//! invalidating each cacheline right after the read so every access reaches
//! the DIMM. Read amplification (media bytes / iMC bytes) reveals the
//! buffer: RA = 4/CpX while the working set fits, jumping to 4 beyond
//! capacity (claim C1).

use cpucache::PrefetchConfig;
use optane_core::{Generation, ImcQueueStats, Machine, MachineConfig, MachineSampler};
use simbase::XPLINE_BYTES;
use workloads::strided_sequence;

use crate::common::{occupancy_note, Curve, ExpResult, MetricsSpec};

/// Parameters for E1.
#[derive(Debug, Clone)]
pub struct E1Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Working-set sizes to sweep (bytes, multiples of 256).
    pub wss_points: Vec<u64>,
    /// Measured rounds per point (after one warm-up round).
    pub rounds: u64,
    /// When set, sample `simwatch` metrics at this interval.
    pub metrics: Option<MetricsSpec>,
}

impl Default for E1Params {
    fn default() -> Self {
        E1Params {
            generation: Generation::G1,
            wss_points: (1..=18).map(|k| k * 2048).collect(), // 2 KB .. 36 KB
            rounds: 3,
            metrics: None,
        }
    }
}

/// Runs E1 and returns one curve per CpX.
pub fn run(params: &E1Params) -> ExpResult {
    let mut result = ExpResult::new(
        format!("E1 / Figure 2: read amplification ({})", params.generation),
        "WSS(bytes)",
        "read amplification",
    );
    let mut series = params.metrics.map(|_| String::new());
    let mut queues = ImcQueueStats::default();
    for cpx in (1..=4u64).rev() {
        let mut curve = Curve::new(format!(
            "read {cpx} cacheline{}",
            if cpx > 1 { "s" } else { "" }
        ));
        for &wss in &params.wss_points {
            let point = measure_point(params, wss, cpx);
            curve.push(wss as f64, point.ra);
            if let (Some(all), Some(s)) = (&mut series, point.jsonl) {
                all.push_str(&s);
            }
            queues.merge(&point.queues);
        }
        result.curves.push(curve);
    }
    result.metrics_jsonl = series;
    result.notes.push(occupancy_note(&queues));
    result
}

struct PointOutcome {
    ra: f64,
    jsonl: Option<String>,
    queues: ImcQueueStats,
}

fn measure_point(params: &E1Params, wss: u64, cpx: u64) -> PointOutcome {
    let rounds = params.rounds;
    let cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::none(), 1);
    let mut m = Machine::new(cfg);
    let t = m.spawn(0);
    let base = m.alloc_pm(wss, XPLINE_BYTES);
    let mut sampler = params.metrics.map(|spec| {
        let mut s = MachineSampler::new(spec.interval);
        s.set_context(format!("e1 cpx={cpx} wss={wss}"));
        s
    });
    let run_round = |m: &mut Machine, sampler: &mut Option<MachineSampler>| {
        for pass in 0..cpx {
            for addr in strided_sequence(base, wss, pass) {
                m.load_u64(t, addr);
                m.clflushopt(t, addr);
                if let Some(s) = sampler {
                    s.poll(m, m.now(t));
                }
            }
            m.sfence(t);
        }
    };
    // Warm up one round, then measure.
    run_round(&mut m, &mut None);
    let before = m.metrics().telemetry;
    for _ in 0..rounds {
        run_round(&mut m, &mut sampler);
    }
    let after = m.metrics();
    if let Some(s) = &mut sampler {
        s.record_final(&m, m.now(t));
    }
    PointOutcome {
        ra: after.telemetry.delta(&before).read_amplification(),
        jsonl: sampler.map(|s| s.to_jsonl()),
        queues: after.queue_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(gen: Generation) -> ExpResult {
        run(&E1Params {
            generation: gen,
            wss_points: vec![4 << 10, 8 << 10, 12 << 10, 32 << 10],
            rounds: 2,
            metrics: None,
        })
    }

    #[test]
    fn g1_ra_is_4_over_cpx_below_capacity() {
        let r = quick(Generation::G1);
        for cpx in 1..=4u64 {
            let label = if cpx == 1 {
                "read 1 cacheline".to_string()
            } else {
                format!("read {cpx} cachelines")
            };
            let c = r.curve(&label).expect("curve exists");
            let small = c.y_at(8192.0).unwrap();
            let expected = 4.0 / cpx as f64;
            assert!(
                (small - expected).abs() < 0.3,
                "CpX={cpx}: RA at 8KB should be ~{expected}, got {small}"
            );
            let big = c.y_at((32 << 10) as f64).unwrap();
            assert!(big > 3.5, "CpX={cpx}: RA at 32KB should be ~4, got {big}");
        }
    }

    #[test]
    fn g2_step_is_later_than_g1() {
        // G2's 22 KB read buffer keeps RA low at 20 KB where G1 has
        // already stepped to 4.
        let point = |gen| {
            let r = run(&E1Params {
                generation: gen,
                wss_points: vec![20 << 10],
                rounds: 2,
                metrics: None,
            });
            r.curve("read 4 cachelines")
                .unwrap()
                .y_at((20 << 10) as f64)
                .unwrap()
        };
        let g1 = point(Generation::G1);
        let g2 = point(Generation::G2);
        assert!(g1 > 3.5, "20KB exceeds G1's 16KB buffer: {g1}");
        assert!(g2 < 1.5, "20KB fits G2's 22KB buffer: {g2}");
    }
}
