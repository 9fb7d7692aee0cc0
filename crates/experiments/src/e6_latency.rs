//! E6 / Figure 8: user-perceived latency through the whole hierarchy.
//!
//! The 256 B-element pointer-chase workload of §3.6, swept over working-set
//! sizes. Three panels (claim C6):
//!
//! (a) writes under strict persistency (barrier per element),
//! (b) writes under relaxed persistency (one fence per lap),
//! (c) pure reads vs. pure writes — read latency explodes past the
//!     LLC/AIT knee while write latency stays flat thanks to the
//!     asynchronous DDR-T pipeline.

use cpucache::PrefetchConfig;
use optane_core::{Generation, Machine, MachineConfig};
use pmds::{ChaseList, WriteKind};
use pmem::{PersistMode, SimEnv};
use simbase::XPLINE_BYTES;
use workloads::AccessOrder;

use crate::common::{log_sweep, Curve, ExpError, ExpResult};

/// Parameters for E6.
#[derive(Debug, Clone)]
pub struct E6Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Working-set sizes to sweep.
    pub wss_points: Vec<u64>,
    /// Measured laps per point (after one warm lap).
    pub laps: u64,
}

impl Default for E6Params {
    fn default() -> Self {
        E6Params {
            generation: Generation::G1,
            wss_points: log_sweep(4 << 10, 64 << 20, 1),
            laps: 2,
        }
    }
}

fn machine(gen: Generation) -> Machine {
    Machine::new(MachineConfig::for_generation(gen, PrefetchConfig::all(), 1))
}

/// Which measurement a write curve of panels (a), (b) and (c) performs.
fn write_curves() -> [(&'static str, AccessOrder, WriteKind); 4] {
    [
        ("seq_clwb", AccessOrder::Sequential, WriteKind::Clwb),
        ("rand_clwb", AccessOrder::Random, WriteKind::Clwb),
        ("seq_nt-store", AccessOrder::Sequential, WriteKind::NtStore),
        ("rand_nt-store", AccessOrder::Random, WriteKind::NtStore),
    ]
}

/// Runs E6: panels (a) strict, (b) relaxed, (c) pure read/write breakdown.
pub fn run(params: &E6Params) -> Result<Vec<ExpResult>, ExpError> {
    if params.wss_points.is_empty() {
        return Err(ExpError::BadParams("wss_points must be non-empty".into()));
    }
    if params.laps == 0 {
        return Err(ExpError::BadParams("laps must be nonzero".into()));
    }
    let mut out = Vec::new();
    for (panel, mode) in [
        ("(a) write with strict persistency", PersistMode::Strict),
        ("(b) write with relaxed persistency", PersistMode::Relaxed),
    ] {
        let mut result = ExpResult::new(
            format!("E6 / Figure 8 {panel} ({})", params.generation),
            "WSS(bytes)",
            "cycles per element",
        );
        for (label, order, kind) in write_curves() {
            let mut curve = Curve::new(label);
            for &wss in &params.wss_points {
                curve.push(wss as f64, chase_write(params, wss, order, kind, mode));
            }
            result.curves.push(curve);
        }
        out.push(result);
    }
    out.push(breakdown(params));
    Ok(out)
}

/// Panel (c): latency of pure reads and pure writes.
fn breakdown(params: &E6Params) -> ExpResult {
    let mut result = ExpResult::new(
        format!(
            "E6 / Figure 8 (c) latency breakdown of pure reads and writes ({})",
            params.generation
        ),
        "WSS(bytes)",
        "cycles per element",
    );
    for (label, order) in [
        ("seq_rd", AccessOrder::Sequential),
        ("rand_rd", AccessOrder::Random),
    ] {
        let mut curve = Curve::new(label);
        for &wss in &params.wss_points {
            curve.push(wss as f64, chase_read(params, wss, order));
        }
        result.curves.push(curve);
    }
    for (label, order, kind) in write_curves() {
        let mut curve = Curve::new(label);
        for &wss in &params.wss_points {
            curve.push(wss as f64, pure_write(params, wss, order, kind));
        }
        result.curves.push(curve);
    }
    result
}

fn elements_of(wss: u64) -> u64 {
    (wss / XPLINE_BYTES).max(2)
}

fn chase_write(
    params: &E6Params,
    wss: u64,
    order: AccessOrder,
    kind: WriteKind,
    mode: PersistMode,
) -> f64 {
    let mut m = machine(params.generation);
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let list = ChaseList::build(&mut env, elements_of(wss), order, 0xE6);
    list.lap_write(&mut env, kind, mode, 1); // warm
    let mut total = 0;
    for lap in 0..params.laps {
        total += list.lap_write(&mut env, kind, mode, lap + 2);
    }
    total as f64 / params.laps as f64
}

fn chase_read(params: &E6Params, wss: u64, order: AccessOrder) -> f64 {
    let mut m = machine(params.generation);
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let list = ChaseList::build(&mut env, elements_of(wss), order, 0xE6);
    list.lap_read(&mut env); // warm
    let mut total = 0;
    for _ in 0..params.laps {
        total += list.lap_read(&mut env);
    }
    total as f64 / params.laps as f64
}

fn pure_write(params: &E6Params, wss: u64, order: AccessOrder, kind: WriteKind) -> f64 {
    let mut m = machine(params.generation);
    let t = m.spawn(0);
    let mut env = SimEnv::new(&mut m, t);
    let list = ChaseList::build(&mut env, elements_of(wss), order, 0xE6);
    list.lap_pure_write(&mut env, kind, PersistMode::Strict, 1); // warm
    let mut total = 0;
    for lap in 0..params.laps {
        total += list.lap_pure_write(&mut env, kind, PersistMode::Strict, lap + 2);
    }
    total as f64 / params.laps as f64
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    // Result-returning tests with typed require_* accessors: a missing
    // curve or sample names itself in a MissingData error instead of
    // panicking through unwrap.
    fn quick(wss: Vec<u64>) -> Result<Vec<ExpResult>, ExpError> {
        run(&E6Params {
            generation: Generation::G1,
            wss_points: wss,
            laps: 2,
        })
    }

    /// Panel (c) at 64 KiB and 64 MiB, computed once for every test that
    /// reads it (each point runs on a fresh machine, so sharing changes no
    /// value).
    fn breakdown_64k_64m() -> &'static ExpResult {
        static RUN: OnceLock<ExpResult> = OnceLock::new();
        RUN.get_or_init(|| {
            breakdown(&E6Params {
                generation: Generation::G1,
                wss_points: vec![64 << 10, 64 << 20],
                laps: 2,
            })
        })
    }

    #[test]
    fn degenerate_params_are_a_typed_error() {
        let r = run(&E6Params {
            wss_points: vec![],
            ..E6Params::default()
        });
        assert!(matches!(r, Err(ExpError::BadParams(_))));
    }

    #[test]
    fn read_latency_explodes_past_llc_while_write_stays_flat() -> Result<(), ExpError> {
        let breakdown = breakdown_64k_64m();
        let rd = breakdown.require_curve("rand_rd")?;
        let small_rd = rd.require_y((64 << 10) as f64)?;
        let big_rd = rd.require_y((64 << 20) as f64)?;
        assert!(
            big_rd > small_rd * 5.0,
            "random read latency jumps past caches: {small_rd} -> {big_rd}"
        );
        let wr = breakdown.require_curve("rand_nt-store")?;
        let spread = wr.y_max() / wr.y_min().max(1.0);
        assert!(
            spread < 3.0,
            "pure write latency is flat across WSS: spread {spread}"
        );
        assert!(
            big_rd > wr.require_y((64 << 20) as f64)? * 2.0,
            "reads dominate writes at large WSS"
        );
        Ok(())
    }

    #[test]
    fn relaxed_is_cheaper_than_strict_for_writes() -> Result<(), ExpError> {
        let r = quick(vec![1 << 20])?;
        let strict = r[0]
            .require_curve("rand_clwb")?
            .require_y((1 << 20) as f64)?;
        let relaxed = r[1]
            .require_curve("rand_clwb")?
            .require_y((1 << 20) as f64)?;
        assert!(relaxed < strict, "relaxed < strict: {relaxed} vs {strict}");
        Ok(())
    }

    #[test]
    fn sequential_beats_random_beyond_llc() -> Result<(), ExpError> {
        let breakdown = breakdown_64k_64m();
        let seq = breakdown
            .require_curve("seq_rd")?
            .require_y((64 << 20) as f64)?;
        let rand = breakdown
            .require_curve("rand_rd")?
            .require_y((64 << 20) as f64)?;
        assert!(
            seq < rand * 0.8,
            "prefetch makes sequential chase faster: {seq} vs {rand}"
        );
        Ok(())
    }
}
