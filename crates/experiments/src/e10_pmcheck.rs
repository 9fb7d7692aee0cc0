//! E10 / `repro pmcheck`: the persist-ordering checker over every
//! data-structure workload, cross-validated by the simulator.
//!
//! Each run attaches [`pmcheck::PmCheck`] to the machine, drives one of
//! the §4 data structures (pointer chase, CCEH, FAST-FAIR), then pulls
//! the plug with `power_fail(CrashPolicy::LoseUnflushed)` and recovers.
//! The checker's verdict is compared against what *actually* happened:
//!
//! - clean workloads must produce **zero error findings** and a complete
//!   recovery (no false positives);
//! - the redo-logged FAST-FAIR run documents the checker's one blind
//!   spot: deliberately deferred node writebacks are flagged and really
//!   are lost at the crash, but the committed `RingRedoLog` replays them
//!   — so recovery is still complete;
//! - workloads run under a [`faultsim::ElisionPlan`] that drops flushes
//!   must be flagged **missing-flush**, and recovery must actually lose keys
//!   (the predicted loss is real);
//! - workloads under a plan that drops fences must be flagged
//!   **missing-fence** with *nothing* predicted lost — and recovery must
//!   indeed be complete, because in this machine model (as on real ADR
//!   hardware) the WPQ drains unfenced flushes; the bug is that the
//!   program never had a point where durability was guaranteed.

use cpucache::PrefetchConfig;
use faultsim::{ElisionPlan, FaultyEnv};
use optane_core::{CrashPolicy, Generation, Machine, MachineConfig};
use pmcheck::{DiagKind, PmCheck, Report};
use pmds::{Cceh, ChaseList, FastFair, UpdateStrategy, WriteKind};
use pmem::{PersistMode, SimEnv};
use workloads::AccessOrder;

/// Parameters for E10.
#[derive(Debug, Clone)]
pub struct E10Params {
    /// Which generation to model.
    pub generation: Generation,
    /// Keys inserted into CCEH per run.
    pub cceh_inserts: u64,
    /// CCEH initial directory depth (sized so the seeded runs exercise
    /// bucket writes, not structural splits).
    pub cceh_depth: u64,
    /// Keys inserted into FAST-FAIR per run.
    pub btree_inserts: u64,
    /// Pointer-chase elements.
    pub chase_elements: u64,
    /// Seeded-fault knob: drop every Nth flush in the faulty runs.
    pub drop_nth_flush: u64,
}

impl Default for E10Params {
    fn default() -> Self {
        E10Params {
            generation: Generation::G1,
            cceh_inserts: 400,
            cceh_depth: 8,
            btree_inserts: 300,
            chase_elements: 64,
            drop_nth_flush: 5,
        }
    }
}

/// One workload's checker report plus the ground truth that judges it.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Workload label.
    pub name: String,
    /// What the run demonstrates.
    pub expectation: String,
    /// The checker's report (taken at the power failure).
    pub report: Report,
    /// Keys retrievable after crash + recovery.
    pub recovered_keys: u64,
    /// Keys that were inserted before the crash.
    pub expected_keys: u64,
    /// Whether the checker's verdict agrees with the crash outcome.
    pub validated: bool,
}

impl RunOutcome {
    /// One summary line for the terminal.
    pub fn summary(&self) -> String {
        format!(
            "{:28} errors={:<3} predicted-lost-lines={:<4} recovered {}/{} keys -> {}",
            self.name,
            self.report
                .diagnostics
                .iter()
                .filter(|d| d.severity() == pmcheck::Severity::Error)
                .count(),
            self.report.predicted_lost_lines().len(),
            self.recovered_keys,
            self.expected_keys,
            if self.validated {
                "VALIDATED"
            } else {
                "MISMATCH"
            }
        )
    }
}

fn machine(gen: Generation) -> Machine {
    Machine::new(MachineConfig::for_generation(
        gen,
        PrefetchConfig::none(),
        1,
    ))
}

/// Clean pointer chase: build, read laps, strict write laps. No crash —
/// the run must simply finish with nothing left unpersisted.
fn run_chase_clean(p: &E10Params) -> RunOutcome {
    let mut m = machine(p.generation);
    let t = m.spawn(0);
    let check = PmCheck::attach_named(&mut m, "chase-clean");
    {
        let mut env = SimEnv::new(&mut m, t);
        let list = ChaseList::build(&mut env, p.chase_elements, AccessOrder::Random, 7);
        list.lap_read(&mut env);
        list.lap_write(&mut env, WriteKind::Clwb, PersistMode::Strict, 0xAA);
        list.lap_write(&mut env, WriteKind::NtStore, PersistMode::Strict, 0xBB);
        list.lap_write(&mut env, WriteKind::Clwb, PersistMode::Relaxed, 0xCC);
    }
    let report = check.finish(&mut m);
    let clean = report.is_clean() && report.predicted_lost_lines().is_empty();
    RunOutcome {
        name: "chase-clean".into(),
        expectation: "no error findings on a disciplined workload".into(),
        validated: clean,
        report,
        recovered_keys: p.chase_elements,
        expected_keys: p.chase_elements,
    }
}

/// Clean CCEH: insert, crash, recover. The checker must agree that
/// nothing was lost.
fn run_cceh_clean(p: &E10Params) -> RunOutcome {
    let mut m = machine(p.generation);
    let t = m.spawn(0);
    let check = PmCheck::attach_named(&mut m, "cceh-clean");
    let root = {
        let mut env = SimEnv::new(&mut m, t);
        let mut table = Cceh::create(&mut env, p.cceh_depth);
        for k in 1..=p.cceh_inserts {
            table.insert(&mut env, k, k + 1000);
        }
        table.root()
    };
    m.power_fail(CrashPolicy::LoseUnflushed);
    let report = check.finish(&mut m);
    let mut env = SimEnv::new(&mut m, t);
    let table = Cceh::recover(&mut env, root);
    let recovered = (1..=p.cceh_inserts)
        .filter(|&k| table.get(&mut env, k) == Some(k + 1000))
        .count() as u64;
    let validated = report.is_clean()
        && report.predicted_lost_lines().is_empty()
        && recovered == p.cceh_inserts;
    RunOutcome {
        name: "cceh-clean".into(),
        expectation: "clean verdict and complete recovery".into(),
        report,
        recovered_keys: recovered,
        expected_keys: p.cceh_inserts,
        validated,
    }
}

/// Shared FAST-FAIR driver: insert in shuffled order, crash, recover,
/// count surviving keys.
fn drive_fastfair(p: &E10Params, name: &str, strategy: UpdateStrategy) -> (Report, u64) {
    let mut m = machine(p.generation);
    let t = m.spawn(0);
    let check = PmCheck::attach_named(&mut m, name);
    let (meta, log_base) = {
        let mut env = SimEnv::new(&mut m, t);
        let mut tree = FastFair::create(&mut env, strategy);
        for k in 1..=p.btree_inserts {
            // Non-sequential order exercises the shift paths.
            let key = (k * 7919) % (p.btree_inserts * 8) + 1;
            tree.insert(&mut env, key, key * 2);
        }
        (tree.root_meta(), tree.log_base())
    };
    m.power_fail(CrashPolicy::LoseUnflushed);
    let report = check.finish(&mut m);
    let mut env = SimEnv::new(&mut m, t);
    let tree = FastFair::recover(&mut env, meta, strategy, log_base);
    let recovered = (1..=p.btree_inserts)
        .filter(|&k| {
            let key = (k * 7919) % (p.btree_inserts * 8) + 1;
            tree.get(&mut env, key) == Some(key * 2)
        })
        .count() as u64;
    (report, recovered)
}

/// Clean FAST-FAIR with in-place shifts: every store is persisted, so
/// the checker must return a clean verdict.
fn run_fastfair_inplace_clean(p: &E10Params) -> RunOutcome {
    let (report, recovered) = drive_fastfair(p, "fastfair-inplace-clean", UpdateStrategy::InPlace);
    let validated = report.is_clean()
        && report.predicted_lost_lines().is_empty()
        && recovered == p.btree_inserts;
    RunOutcome {
        name: "fastfair-inplace-clean".into(),
        expectation: "clean verdict and complete recovery".into(),
        report,
        recovered_keys: recovered,
        expected_keys: p.btree_inserts,
        validated,
    }
}

/// FAST-FAIR with the redo-log strategy: the checker's known blind spot,
/// kept in the suite *because* the cross-validation explains it. The
/// structure deliberately writes node entries back with plain, unflushed
/// stores — durability is carried by the committed `RingRedoLog` until
/// the ring's deferred reclamation flushes those lines. A flush-order
/// lint cannot see that contract, so the still-dirty node lines at the
/// crash are (correctly!) reported missing-flush and predicted lost;
/// they really are lost, yet recovery replays the committed log and
/// restores every key. Validation here is the semantic ground truth:
/// complete recovery, no ordering (fence) bugs, and nothing *outside*
/// the deferred-writeback pattern flagged.
fn run_fastfair_redo_logged(p: &E10Params) -> RunOutcome {
    let (report, recovered) = drive_fastfair(p, "fastfair-redo-logged", UpdateStrategy::RedoLog);
    let validated = recovered == p.btree_inserts && report.count(DiagKind::MissingFence) == 0;
    RunOutcome {
        name: "fastfair-redo-logged".into(),
        expectation: "deferred writebacks flagged; log replay still recovers all keys".into(),
        report,
        recovered_keys: recovered,
        expected_keys: p.btree_inserts,
        validated,
    }
}

/// Seeded missing-flush bug: every Nth `clwb` is silently dropped during
/// CCEH inserts. The checker must flag missing-flush, predict lost lines,
/// and recovery must actually lose keys.
fn run_cceh_missing_flush(p: &E10Params) -> RunOutcome {
    let mut m = machine(p.generation);
    let t = m.spawn(0);
    let check = PmCheck::attach_named(&mut m, "cceh-seeded-missing-flush");
    let root = {
        // Create cleanly so the directory itself is sound, then drop
        // flushes during the insert phase only.
        let mut env = SimEnv::new(&mut m, t);
        let mut table = Cceh::create(&mut env, p.cceh_depth);
        let mut faulty = FaultyEnv::new(env, ElisionPlan::drop_flushes(p.drop_nth_flush));
        for k in 1..=p.cceh_inserts {
            table.insert(&mut faulty, k, k + 1000);
        }
        assert!(faulty.flushes_dropped() > 0, "the fault plan must fire");
        table.root()
    };
    m.power_fail(CrashPolicy::LoseUnflushed);
    let report = check.finish(&mut m);
    let mut env = SimEnv::new(&mut m, t);
    let table = Cceh::recover(&mut env, root);
    let recovered = (1..=p.cceh_inserts)
        .filter(|&k| table.get(&mut env, k) == Some(k + 1000))
        .count() as u64;
    let validated = report.count(DiagKind::MissingFlush) > 0
        && !report.predicted_lost_lines().is_empty()
        && recovered < p.cceh_inserts;
    RunOutcome {
        name: "cceh-seeded-missing-flush".into(),
        expectation: "missing-flush flagged; crash actually loses keys".into(),
        report,
        recovered_keys: recovered,
        expected_keys: p.cceh_inserts,
        validated,
    }
}

/// Seeded missing-fence bug: every `sfence` is dropped. Flushes still
/// drain (ADR), so nothing may be predicted or actually lost — but the
/// checker must flag the ordering bug.
fn run_cceh_missing_fence(p: &E10Params) -> RunOutcome {
    let mut m = machine(p.generation);
    let t = m.spawn(0);
    let check = PmCheck::attach_named(&mut m, "cceh-seeded-missing-fence");
    let root = {
        let mut env = SimEnv::new(&mut m, t);
        let mut table = Cceh::create(&mut env, p.cceh_depth);
        let mut faulty = FaultyEnv::new(env, ElisionPlan::drop_fences(1));
        for k in 1..=p.cceh_inserts {
            table.insert(&mut faulty, k, k + 1000);
        }
        assert!(faulty.fences_dropped() > 0, "the fault plan must fire");
        table.root()
    };
    m.power_fail(CrashPolicy::LoseUnflushed);
    let report = check.finish(&mut m);
    let mut env = SimEnv::new(&mut m, t);
    let table = Cceh::recover(&mut env, root);
    let recovered = (1..=p.cceh_inserts)
        .filter(|&k| table.get(&mut env, k) == Some(k + 1000))
        .count() as u64;
    let validated = report.count(DiagKind::MissingFence) > 0
        && report.count(DiagKind::MissingFlush) == 0
        && report.predicted_lost_lines().is_empty()
        && recovered == p.cceh_inserts;
    RunOutcome {
        name: "cceh-seeded-missing-fence".into(),
        expectation: "missing-fence flagged; nothing lost (WPQ drains)".into(),
        report,
        recovered_keys: recovered,
        expected_keys: p.cceh_inserts,
        validated,
    }
}

/// Runs all E10 workloads.
pub fn run(params: &E10Params) -> Vec<RunOutcome> {
    vec![
        run_chase_clean(params),
        run_cceh_clean(params),
        run_fastfair_inplace_clean(params),
        run_fastfair_redo_logged(params),
        run_cceh_missing_flush(params),
        run_cceh_missing_fence(params),
    ]
}

/// Renders all outcomes as one JSON document.
pub fn to_json(outcomes: &[RunOutcome]) -> String {
    let mut out = String::from("{\n  \"runs\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", o.name));
        out.push_str(&format!("      \"expectation\": \"{}\",\n", o.expectation));
        out.push_str(&format!("      \"validated\": {},\n", o.validated));
        out.push_str(&format!(
            "      \"recovered_keys\": {},\n      \"expected_keys\": {},\n",
            o.recovered_keys, o.expected_keys
        ));
        // The report renders itself; indent it under this run.
        let report = o.report.to_json();
        let indented: String = report
            .lines()
            .map(|l| format!("      {l}\n"))
            .collect::<String>();
        out.push_str("      \"report\":\n");
        out.push_str(&indented);
        out.push_str(if i + 1 < outcomes.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_workloads_validate_with_zero_false_positives() {
        let p = E10Params {
            cceh_inserts: 150,
            btree_inserts: 120,
            chase_elements: 32,
            ..Default::default()
        };
        for o in [
            run_chase_clean(&p),
            run_cceh_clean(&p),
            run_fastfair_inplace_clean(&p),
        ] {
            assert!(
                o.validated,
                "{} not validated:\n{}",
                o.name,
                o.report.to_text()
            );
            assert!(o.report.is_clean(), "{}", o.report.to_text());
        }
    }

    #[test]
    fn redo_logged_writebacks_are_flagged_but_recoverable() {
        let p = E10Params {
            btree_inserts: 120,
            ..Default::default()
        };
        let o = run_fastfair_redo_logged(&p);
        assert!(o.validated, "{}\n{}", o.summary(), o.report.to_text());
        // The deferred node writebacks are genuinely dirty at the crash:
        // the checker flags them and predicts them lost — and they are —
        // yet the committed redo log replays every update on recovery.
        assert!(
            o.report.count(DiagKind::MissingFlush) > 0,
            "deferred writebacks should be dirty at the crash:\n{}",
            o.report.to_text()
        );
        assert!(!o.report.predicted_lost_lines().is_empty());
        assert_eq!(o.recovered_keys, o.expected_keys, "log replay covers them");
        assert_eq!(o.report.count(DiagKind::MissingFence), 0);
    }

    #[test]
    fn seeded_missing_flush_is_caught_and_real() {
        let p = E10Params {
            cceh_inserts: 200,
            ..Default::default()
        };
        let o = run_cceh_missing_flush(&p);
        assert!(o.validated, "{}\n{}", o.summary(), o.report.to_text());
        assert!(o.recovered_keys < o.expected_keys, "crash must lose keys");
    }

    #[test]
    fn seeded_missing_fence_is_ordering_only() {
        let p = E10Params {
            cceh_inserts: 200,
            ..Default::default()
        };
        let o = run_cceh_missing_fence(&p);
        assert!(o.validated, "{}\n{}", o.summary(), o.report.to_text());
        assert_eq!(o.recovered_keys, o.expected_keys, "nothing actually lost");
    }
}
