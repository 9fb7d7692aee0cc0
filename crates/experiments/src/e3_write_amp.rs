//! E3 / Figure 3: write-buffer write amplification.
//!
//! Non-temporal partial (25/50/75%) and full (100%) XPLine writes over a
//! working-set sweep. On G1, partial writes are absorbed (WA 0) until the
//! ~12 KB effective capacity and then climb toward the theoretical 4/2/1.33
//! as random eviction forces read-modify-writes; full XPLines are flushed
//! by the periodic write-back, so their WA is 1 even for tiny working sets
//! (claim C3). On G2 the periodic write-back is gone and all four curves
//! rise gracefully past a larger capacity (claim C4's counterpart).

use cpucache::PrefetchConfig;
use optane_core::{Generation, ImcQueueStats, Machine, MachineConfig, MachineSampler};
use simbase::XPLINE_BYTES;

use crate::common::{occupancy_note, Curve, ExpResult, MetricsSpec};

/// Parameters for E3.
#[derive(Debug, Clone)]
pub struct E3Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Working-set sizes to sweep (bytes, multiples of 256).
    pub wss_points: Vec<u64>,
    /// Measured rounds per point (after warm-up).
    pub rounds: u64,
    /// When set, sample `simwatch` metrics at this interval.
    pub metrics: Option<MetricsSpec>,
}

impl Default for E3Params {
    fn default() -> Self {
        E3Params {
            generation: Generation::G1,
            wss_points: (1..=32).map(|k| k << 10).collect(), // 1 KB .. 32 KB
            rounds: 12,
            metrics: None,
        }
    }
}

/// Runs E3: one curve per write fraction.
pub fn run(params: &E3Params) -> ExpResult {
    let mut result = ExpResult::new(
        format!("E3 / Figure 3: write amplification ({})", params.generation),
        "WSS(bytes)",
        "write amplification",
    );
    let mut series = params.metrics.map(|_| String::new());
    let mut queues = ImcQueueStats::default();
    for cl_per_xpline in [4u64, 3, 2, 1] {
        let mut curve = Curve::new(format!("{}% Write", cl_per_xpline * 25));
        for &wss in &params.wss_points {
            let point = measure_point(params, wss, cl_per_xpline);
            curve.push(wss as f64, point.wa);
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
    wa: f64,
    jsonl: Option<String>,
    queues: ImcQueueStats,
}

fn measure_point(params: &E3Params, wss: u64, cl_per_xpline: u64) -> PointOutcome {
    let rounds = params.rounds;
    let cfg = MachineConfig::for_generation(params.generation, PrefetchConfig::none(), 1);
    let mut m = Machine::new(cfg);
    let t = m.spawn(0);
    let base = m.alloc_pm(wss, XPLINE_BYTES);
    let xplines = wss / XPLINE_BYTES;
    let data = [0xA5u8; 64];
    let mut sampler = params.metrics.map(|spec| {
        let mut s = MachineSampler::new(spec.interval);
        s.set_context(format!("e3 frac={}% wss={wss}", cl_per_xpline * 25));
        s
    });
    let run_round = |m: &mut Machine, sampler: &mut Option<MachineSampler>| {
        for x in 0..xplines {
            let xp = base.add_xplines(x);
            match sampler {
                // No observer: one batched dispatch per XPLine (timing
                // and trace identical to the per-line loop below).
                None => m.nt_store_run(t, xp, &data, cl_per_xpline),
                // Sampling polls between individual stores, so the
                // per-line loop is kept to preserve the sample series.
                Some(s) => {
                    for cl in 0..cl_per_xpline {
                        m.nt_store(t, xp.add_cachelines(cl), &data);
                        s.poll(m, m.now(t));
                    }
                }
            }
        }
        m.sfence(t);
    };
    // Warm-up rounds to reach buffer steady state.
    for _ in 0..3 {
        run_round(&mut m, &mut None);
    }
    let before = m.metrics().telemetry;
    for _ in 0..rounds {
        run_round(&mut m, &mut sampler);
    }
    // Let the periodic write-back catch up on the final round's lines by
    // touching the DIMM once more after an idle gap.
    m.advance(t, 20_000);
    m.nt_store(t, base, &data);
    let after = m.metrics();
    if let Some(s) = &mut sampler {
        s.record_final(&m, m.now(t));
    }
    PointOutcome {
        wa: after.telemetry.delta(&before).write_amplification(),
        jsonl: sampler.map(|s| s.to_jsonl()),
        queues: after.queue_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g1_partial_writes_absorbed_below_12kb() {
        let r = run(&E3Params {
            generation: Generation::G1,
            wss_points: vec![8 << 10],
            rounds: 6,
            metrics: None,
        });
        for frac in ["25% Write", "50% Write", "75% Write"] {
            let wa = r.curve(frac).unwrap().y_at((8 << 10) as f64).unwrap();
            assert!(wa < 0.1, "{frac}: WA should be ~0 at 8KB, got {wa}");
        }
    }

    #[test]
    fn g1_full_writes_hit_wa_1_even_when_small() {
        let r = run(&E3Params {
            generation: Generation::G1,
            wss_points: vec![4 << 10],
            rounds: 6,
            metrics: None,
        });
        let wa = r
            .curve("100% Write")
            .unwrap()
            .y_at((4 << 10) as f64)
            .unwrap();
        assert!(
            (0.7..=1.2).contains(&wa),
            "periodic write-back forces WA ~1, got {wa}"
        );
    }

    #[test]
    fn g1_partials_approach_theoretical_beyond_capacity() {
        let r = run(&E3Params {
            generation: Generation::G1,
            wss_points: vec![32 << 10],
            rounds: 10,
            metrics: None,
        });
        let wa25 = r
            .curve("25% Write")
            .unwrap()
            .y_at((32 << 10) as f64)
            .unwrap();
        let wa50 = r
            .curve("50% Write")
            .unwrap()
            .y_at((32 << 10) as f64)
            .unwrap();
        let wa100 = r
            .curve("100% Write")
            .unwrap()
            .y_at((32 << 10) as f64)
            .unwrap();
        assert!(wa25 > 2.0, "25% write tends to 4: {wa25}");
        assert!(wa50 > 1.0 && wa50 < wa25, "50% write tends to 2: {wa50}");
        assert!((0.8..=1.2).contains(&wa100), "100% write is ~1: {wa100}");
    }

    #[test]
    fn g2_full_writes_absorbed_when_small() {
        let r = run(&E3Params {
            generation: Generation::G2,
            wss_points: vec![8 << 10],
            rounds: 6,
            metrics: None,
        });
        let wa = r
            .curve("100% Write")
            .unwrap()
            .y_at((8 << 10) as f64)
            .unwrap();
        assert!(
            wa < 0.1,
            "no periodic write-back on G2: full writes coalesce, got {wa}"
        );
    }
}
