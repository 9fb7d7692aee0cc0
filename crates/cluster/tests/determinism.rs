//! In-process determinism: two cluster runs at the same seed — faults,
//! hedges, metrics series and all — produce byte-identical reports.
//! (The cross-process half of this story is `repro divergence cluster`.)

use cluster::{ClientConfig, ClusterFaultPlan, ClusterParams};

fn params(seed: u64) -> ClusterParams {
    ClusterParams {
        client: ClientConfig {
            preload_keys: 250,
            ops: 1_200,
            interarrival: 1_000,
            ..ClientConfig::default()
        },
        log_slots: 8_192,
        fault: ClusterFaultPlan::power_fail_with_flap(1, 200_000, 120_000),
        metrics_interval: Some(40_000),
        seed,
        ..ClusterParams::default()
    }
}

#[test]
fn same_seed_byte_identical_report_and_metrics() {
    for seed in [0u64, 7, 0xfeed_f00d] {
        let a = cluster::run(params(seed)).expect("run a");
        let b = cluster::run(params(seed)).expect("run b");
        assert_eq!(a.render(), b.render(), "report diverged at seed {seed}");
        assert_eq!(
            a.metrics_jsonl, b.metrics_jsonl,
            "metrics series diverged at seed {seed}"
        );
    }
}

#[test]
fn different_seeds_actually_differ() {
    let a = cluster::run(params(1)).expect("run a");
    let b = cluster::run(params(2)).expect("run b");
    assert_ne!(
        a.render(),
        b.render(),
        "distinct seeds should produce distinct traffic"
    );
}
