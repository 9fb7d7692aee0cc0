//! End-to-end checks of the paper's artifact claims (C1–C9) through the
//! public facade, at reduced scale.
//!
//! The full-resolution versions live in the `experiments` crate's unit
//! tests and in the `repro` binary; these integration tests pin the
//! *direction* of every claim so a regression anywhere in the stack
//! (buffers, caches, iMC, structures) fails loudly.

use optane_study::core::Generation;
use optane_study::experiments::{e1_read_buffer, e4_wb_hit, e5_rap, e8_btree};

#[test]
fn c1_read_buffer_capacity_step() {
    let r = e1_read_buffer::run(&e1_read_buffer::E1Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10, 24 << 10],
        rounds: 2,
        metrics: None,
    });
    let one = r.curve("read 1 cacheline").unwrap();
    let four = r.curve("read 4 cachelines").unwrap();
    // Below capacity: RA tracks 4/CpX; above: everything is 4.
    assert!((one.y_at(8192.0).unwrap() - 4.0).abs() < 0.2);
    assert!((four.y_at(8192.0).unwrap() - 1.0).abs() < 0.2);
    assert!((four.y_at((24 << 10) as f64).unwrap() - 4.0).abs() < 0.3);
}

#[test]
fn c4_wb_hit_ratio_graceful_and_generation_ordered() {
    let r = e4_wb_hit::run(&e4_wb_hit::E4Params {
        wss_points: vec![8 << 10, 20 << 10],
        writes: 6000,
    });
    let g1 = r.curve("G1 Optane").unwrap();
    let g2 = r.curve("G2 Optane").unwrap();
    assert!(g1.y_at(8192.0).unwrap() > 0.95);
    let g1_20 = g1.y_at((20 << 10) as f64).unwrap();
    let g2_20 = g2.y_at((20 << 10) as f64).unwrap();
    assert!(g1_20 < g2_20, "larger G2 buffer holds on longer");
    assert!(g1_20 > 0.3, "random eviction decays gracefully, no cliff");
}

#[test]
fn c5_rap_fixed_by_g2_clwb_only() {
    let run_gen = |gen| {
        e5_rap::run(&e5_rap::E5Params {
            generation: gen,
            distances: vec![0],
            iters: 300,
        })
        .expect("valid params")
    };
    let g1 = run_gen(Generation::G1);
    let g2 = run_gen(Generation::G2);
    let g1_pm = g1.iter().find(|r| r.name.contains("local PM")).unwrap();
    let g2_pm = g2.iter().find(|r| r.name.contains("local PM")).unwrap();
    let g1_clwb = g1_pm.curve("PM+clwb+mfence").unwrap().y_at(0.0).unwrap();
    let g2_clwb = g2_pm.curve("PM+clwb+mfence").unwrap().y_at(0.0).unwrap();
    let g2_nt = g2_pm
        .curve("PM+nt-store+mfence")
        .unwrap()
        .y_at(0.0)
        .unwrap();
    assert!(g1_clwb > 2000.0, "G1 clwb RAP is ~10x: {g1_clwb}");
    assert!(g2_clwb < 500.0, "G2 clwb keeps the line cached: {g2_clwb}");
    assert!(g2_nt > 2000.0, "nt-store RAP survives on G2: {g2_nt}");
}

#[test]
fn c8_redo_logging_wins_exactly_on_g1() {
    let r = e8_btree::run(&e8_btree::E8Params {
        inserts: 4000,
        threads: vec![1],
        generations: vec![Generation::G1, Generation::G2],
        dimms: 1,
    });
    let g1_thr = &r[0];
    let g1_redo = g1_thr
        .curve("Out-of-place update")
        .unwrap()
        .y_at(1.0)
        .unwrap();
    let g1_inplace = g1_thr.curve("In-place update").unwrap().y_at(1.0).unwrap();
    assert!(
        g1_redo > g1_inplace * 1.15,
        "G1 throughput: redo wins: {g1_redo} vs {g1_inplace}"
    );
    let g2_thr = &r[2];
    let g2_redo = g2_thr
        .curve("Out-of-place update")
        .unwrap()
        .y_at(1.0)
        .unwrap();
    let g2_inplace = g2_thr.curve("In-place update").unwrap().y_at(1.0).unwrap();
    let ratio = g2_redo / g2_inplace;
    assert!(
        (0.7..1.35).contains(&ratio),
        "G2: strategies converge: {g2_redo} vs {g2_inplace}"
    );
}
