//! Pinned crash-at-interleaving-point regressions for the detectable
//! stack and queue.
//!
//! Each test replays a fixed multi-lane workload under a deterministic
//! executor schedule, cuts it after chosen executor steps
//! (`faultsim::sweep_crash_points`), explores the crash-subset space at
//! each cut, and judges every post-crash state with the detectability
//! oracle: per-lane recovery adjudicates the in-flight operation, and the
//! repaired structure's live values must then equal the acked-push minus
//! acked-pop multiset exactly — nothing lost, nothing duplicated.
//!
//! The mutant tests prove the oracle has teeth: skipping the
//! claim-persist before unlink (the flush-before-help rule) must produce
//! at least one crash state where an un-acked pop's value vanishes
//! without a durable claim to attribute it to.

use cpucache::PrefetchConfig;
use faultsim::{sweep_crash_points, CutRun, ExplorerConfig, InterleaveConfig, StateVerdict};
use optane_core::{Interleaver, Machine, MachineConfig, SchedPolicy, Step, ThreadId};
use pmds::{Detectable, Lane, MsQueue, OpResult, RecoveryOutcome, TreiberStack, EMPTY_RESULT};
use pmem::SimEnv;

/// One scripted operation.
#[derive(Debug, Clone, Copy)]
enum Planned {
    Insert(u64),
    Remove,
}

/// One acknowledged (committed-before-the-cut) operation.
#[derive(Debug, Clone, Copy)]
enum Acked {
    Inserted(u64),
    Removed(u64),
    Empty,
}

/// The mixed workload: overlapping pushes and pops across two lanes, with
/// every value unique so multisets reduce to sorted vectors.
fn mixed_scripts() -> Vec<Vec<Planned>> {
    vec![
        vec![Planned::Insert(11), Planned::Insert(12), Planned::Remove],
        vec![Planned::Insert(21), Planned::Remove, Planned::Remove],
    ]
}

/// The minimal single-lane workload exposing the claim-persist window:
/// one push, then one pop of it.
fn push_pop_script() -> Vec<Vec<Planned>> {
    vec![vec![Planned::Insert(11), Planned::Remove]]
}

/// Sampled sweep: both endpoints plus seeded interior points, modest
/// per-point state budget. Used for the multi-lane regressions.
fn sampled_cfg() -> InterleaveConfig {
    InterleaveConfig {
        max_crash_points: 12,
        seed: 0xE15_0001,
        explorer: ExplorerConfig {
            max_exhaustive_lines: 5,
            samples: 8,
            seed: 0xE15_0002,
        },
    }
}

/// Dense sweep: every interleaving point, exhaustive subsets. Used where
/// a specific window must be visited (the mutant tests).
fn dense_cfg() -> InterleaveConfig {
    InterleaveConfig {
        max_crash_points: 256,
        seed: 0xE15_0003,
        explorer: ExplorerConfig::default(),
    }
}

/// What the workload had acknowledged by the cut, and how to judge a
/// post-crash state against it.
struct Account {
    scripts: Vec<Vec<Planned>>,
    begun: Vec<usize>,
    acked: Vec<Vec<Acked>>,
}

impl Account {
    fn new(scripts: Vec<Vec<Planned>>) -> Self {
        let lanes = scripts.len();
        Account {
            scripts,
            begun: vec![0; lanes],
            acked: vec![Vec::new(); lanes],
        }
    }

    /// Next scripted op for `lane`, if any.
    fn next_op(&mut self, lane: usize) -> Option<Planned> {
        let op = self.scripts[lane].get(self.begun[lane]).copied();
        if op.is_some() {
            self.begun[lane] += 1;
        }
        op
    }

    /// Records an acknowledged result for `lane`.
    fn ack(&mut self, lane: usize, res: OpResult) {
        self.acked[lane].push(match res {
            OpResult::Pushed => match self.scripts[lane][self.begun[lane] - 1] {
                Planned::Insert(v) => Acked::Inserted(v),
                Planned::Remove => unreachable!("a pop cannot ack as Pushed"),
            },
            OpResult::Popped(v) => Acked::Removed(v),
            OpResult::Empty => Acked::Empty,
        });
    }

    /// Judges one post-crash state: acked ops plus recovery-adjudicated
    /// in-flight ops give the expected multiset; `live` must match it.
    fn verdict(&self, recs: &[RecoveryOutcome], mut live: Vec<u64>) -> StateVerdict {
        let mut inserted: Vec<u64> = Vec::new();
        let mut consumed: Vec<u64> = Vec::new();
        let mut consistent = true;
        for (lane, rec) in recs.iter().enumerate().take(self.scripts.len()) {
            for a in &self.acked[lane] {
                match *a {
                    Acked::Inserted(v) => inserted.push(v),
                    Acked::Removed(v) => consumed.push(v),
                    Acked::Empty => {}
                }
            }
            // An in-flight op (begun but never acked) is adjudicated by
            // its lane's recovery outcome.
            if self.begun[lane] > self.acked[lane].len() {
                match self.scripts[lane][self.begun[lane] - 1] {
                    Planned::Insert(v) => {
                        if rec.applied {
                            inserted.push(v);
                        }
                    }
                    Planned::Remove => {
                        if rec.applied {
                            match rec.value {
                                Some(v) if v != EMPTY_RESULT => consumed.push(v),
                                Some(_) => {}
                                None => consistent = false,
                            }
                        }
                    }
                }
            }
        }
        let mut expected = inserted;
        for v in consumed {
            match expected.iter().position(|&x| x == v) {
                Some(i) => {
                    expected.swap_remove(i);
                }
                None => consistent = false, // popped a value never pushed
            }
        }
        expected.sort_unstable();
        live.sort_unstable();
        let lost = expected.iter().filter(|v| !live.contains(v)).count() as u64;
        StateVerdict {
            ok: consistent && expected == live,
            lost_keys: lost,
            detail: format!("expected {expected:?} live {live:?}"),
        }
    }
}

/// Replays the workload on a fresh `S` under `policy`, cut at `budget`
/// executor steps, returning the crash image and the detectability
/// oracle.
fn replay<S: Detectable>(
    budget: u64,
    policy: SchedPolicy,
    scripts: Vec<Vec<Planned>>,
    mutant: bool,
) -> CutRun<impl FnMut(&mut Machine, &[bool]) -> StateVerdict> {
    let lanes = scripts.len();
    let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1));
    let tids: Vec<ThreadId> = (0..lanes).map(|_| m.spawn(0)).collect();
    let (s, mut threads) = {
        let mut env = SimEnv::new(&mut m, tids[0]);
        let s = S::new(&mut env);
        let threads: Vec<Lane<S>> = (0..lanes)
            .map(|l| {
                let mut t = Lane::new(&mut env, l as u64);
                t.set_skip_claim_persist(mutant);
                t
            })
            .collect();
        (s, threads)
    };
    let mut acct = Account::new(scripts);
    let report = Interleaver::new(policy).run_steps(
        &mut m,
        &tids,
        &mut |mm: &mut Machine, tid, lane: usize| {
            if !threads[lane].busy() {
                match acct.next_op(lane) {
                    Some(Planned::Insert(v)) => threads[lane].begin_insert(v),
                    Some(Planned::Remove) => threads[lane].begin_remove(),
                    None => return Step::Done,
                }
            }
            let mut env = SimEnv::new(mm, tid);
            if let Some(res) = threads[lane].step(&mut env, &s) {
                acct.ack(lane, res);
            }
            Step::Ran
        },
        budget,
    );
    let image = m.capture_crash_image();
    let root = s.root();
    CutRun {
        image,
        steps_taken: report.total_steps,
        oracle: move |pm: &mut Machine, _mask: &[bool]| {
            let t = pm.spawn(0);
            let mut env = SimEnv::new(pm, t);
            let s = S::from_root(root);
            let recs: Vec<RecoveryOutcome> =
                threads.iter().map(|l| l.recover(&mut env, &s)).collect();
            s.repair(&mut env);
            let live = s.live_values(&mut env);
            acct.verdict(&recs, live)
        },
    }
}

#[test]
fn stack_recovers_at_sampled_interleaving_points_round_robin() {
    let sweep = sweep_crash_points("treiber-rr", &sampled_cfg(), |k| {
        replay::<TreiberStack>(k, SchedPolicy::RoundRobin, mixed_scripts(), false)
    });
    assert!(sweep.total_steps > 0);
    assert!(sweep.all_states_ok(), "{}", sweep.to_json());
}

#[test]
fn stack_recovers_under_a_seeded_random_schedule() {
    let sweep = sweep_crash_points("treiber-sr", &sampled_cfg(), |k| {
        replay::<TreiberStack>(
            k,
            SchedPolicy::SeededRandom { seed: 0xE15 },
            mixed_scripts(),
            false,
        )
    });
    assert!(sweep.all_states_ok(), "{}", sweep.to_json());
}

#[test]
fn queue_recovers_at_sampled_interleaving_points_round_robin() {
    let sweep = sweep_crash_points("msqueue-rr", &sampled_cfg(), |k| {
        replay::<MsQueue>(k, SchedPolicy::RoundRobin, mixed_scripts(), false)
    });
    assert!(sweep.total_steps > 0);
    assert!(sweep.all_states_ok(), "{}", sweep.to_json());
}

#[test]
fn queue_recovers_under_a_seeded_random_schedule() {
    let sweep = sweep_crash_points("msqueue-sr", &sampled_cfg(), |k| {
        replay::<MsQueue>(
            k,
            SchedPolicy::SeededRandom { seed: 0xE15 },
            mixed_scripts(),
            false,
        )
    });
    assert!(sweep.all_states_ok(), "{}", sweep.to_json());
}

#[test]
fn stack_mutant_skipping_the_claim_persist_is_caught() {
    // Shipped code is clean over the same dense sweep…
    let clean = sweep_crash_points("treiber-dense", &dense_cfg(), |k| {
        replay::<TreiberStack>(k, SchedPolicy::RoundRobin, push_pop_script(), false)
    });
    assert!(clean.all_states_ok(), "{}", clean.to_json());
    // …and the mutant must be caught: some cut leaves the unlink durable
    // with the claim lost, so the popped value vanishes unattributed.
    let broken = sweep_crash_points("treiber-mutant", &dense_cfg(), |k| {
        replay::<TreiberStack>(k, SchedPolicy::RoundRobin, push_pop_script(), true)
    });
    assert!(
        !broken.all_states_ok(),
        "the explorer must find the claim-lost window"
    );
    let (steps, state) = broken.first_failure().expect("a failing state");
    assert!(steps > 0);
    assert!(
        state.lost_keys > 0,
        "the failure is a lost value: {state:?}"
    );
}

#[test]
fn queue_mutant_skipping_the_claim_persist_is_caught() {
    let clean = sweep_crash_points("msqueue-dense", &dense_cfg(), |k| {
        replay::<MsQueue>(k, SchedPolicy::RoundRobin, push_pop_script(), false)
    });
    assert!(clean.all_states_ok(), "{}", clean.to_json());
    let broken = sweep_crash_points("msqueue-mutant", &dense_cfg(), |k| {
        replay::<MsQueue>(k, SchedPolicy::RoundRobin, push_pop_script(), true)
    });
    assert!(
        !broken.all_states_ok(),
        "the explorer must find the claim-lost window"
    );
    let (_, state) = broken.first_failure().expect("a failing state");
    assert!(
        state.lost_keys > 0,
        "the failure is a lost value: {state:?}"
    );
}
