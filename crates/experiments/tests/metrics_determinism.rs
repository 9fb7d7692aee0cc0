//! Satellite guarantee: the `simwatch` time series is a pure function
//! of the simulated instruction stream. Two runs of the same experiment
//! at the same parameters must produce byte-identical JSONL — that is
//! what lets CI diff metrics artifacts across a kill/resume drill.

use experiments::common::MetricsSpec;
use experiments::{e1_read_buffer, e3_write_amp};
use optane_core::Generation;

fn e1_series() -> String {
    let r = e1_read_buffer::run(&e1_read_buffer::E1Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10, 24 << 10],
        rounds: 2,
        metrics: Some(MetricsSpec { interval: 50_000 }),
    });
    r.metrics_jsonl.expect("sampling was requested")
}

fn e3_series() -> String {
    let r = e3_write_amp::run(&e3_write_amp::E3Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10],
        rounds: 4,
        metrics: Some(MetricsSpec { interval: 50_000 }),
    });
    r.metrics_jsonl.expect("sampling was requested")
}

#[test]
fn same_parameters_give_byte_identical_series() {
    assert_eq!(e1_series(), e1_series());
    assert_eq!(e3_series(), e3_series());
}

#[test]
fn series_carries_the_paper_counters_per_sample() {
    let s = e1_series();
    assert!(!s.is_empty(), "sampling produced rows");
    for line in s.lines() {
        for key in [
            "\"t\":",
            "\"ctx\":",
            "\"imc_read_bytes\":",
            "\"media_read_bytes\":",
            "\"wpq_max_depth\":",
            "\"wb_hit_ratio\":",
            "\"write_absorption\":",
        ] {
            assert!(line.contains(key), "row missing {key}: {line}");
        }
    }
    // Each sweep point runs on a fresh machine whose clock restarts, so
    // every point contributes at least its final sample under its own
    // context label.
    assert!(s.contains("\"ctx\":\"e1 cpx=4 wss=8192\""), "{s}");
    assert!(s.contains("\"ctx\":\"e1 cpx=1 wss=24576\""), "{s}");
}

#[test]
fn write_experiment_reports_wpq_occupancy() {
    let r = e3_write_amp::run(&e3_write_amp::E3Params {
        generation: Generation::G1,
        wss_points: vec![8 << 10],
        rounds: 4,
        metrics: Some(MetricsSpec { interval: 50_000 }),
    });
    let note = r
        .notes
        .iter()
        .find(|n| n.starts_with("queue occupancy:"))
        .expect("occupancy note present");
    assert!(note.contains("wpq max depth"), "{note}");
    // nt-stores drain through the WPQ, so the run observed real depth.
    assert!(!note.contains("wpq max depth 0"), "{note}");
}
