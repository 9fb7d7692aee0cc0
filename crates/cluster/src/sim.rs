//! The cluster event loop: router, shards, replication, migration,
//! anti-entropy, network, faults, metrics.
//!
//! A single-threaded discrete-event simulation over cluster ticks.
//! Events live in a `BTreeMap<(tick, seq), Event>` — insertion order
//! breaks ties, so the execution schedule is a pure function of the
//! parameters and seed. Shards are sequential state machines: a request
//! is served to completion at delivery-processing time; the shard's
//! `busy_until` horizon shapes reply latency, modeling queueing without
//! intra-shard concurrency.
//!
//! Routing is keyslice-based and epoch-fenced ([`RoutingTable`]): each
//! slice has a replica set, writes fan out to every owner and ack the
//! client only at a *quorum* of durable (ADR-persisted) copies, reads
//! rotate across owners (primary first) with hedging. Every attempt
//! carries the table epoch at launch; a shard that no longer owns the
//! slice at that epoch rejects with a typed `StaleEpoch` — a
//! partitioned router can never collect an ack from a retired owner.
//!
//! A [`MigrationPlan`] drains keyslices from one shard to another under
//! live traffic through the persisted `Prepare -> Copy -> CatchUp ->
//! Flip -> Retire` state machine (see [`crate::migrate`]); the seeded
//! [`MigrationFail`](crate::fault::MigrationFail) fault can power-fail
//! either participant at every phase boundary, and recovery resumes or
//! cleanly aborts via log-prefix replay. Anti-entropy compares
//! per-slice FNV checksums between replicas on a sim-clock cadence and
//! read-repairs divergent slices from the per-key maximum (values are
//! globally monotone, so max is the merge function).
//!
//! Every client request is *answered*: served (possibly degraded from
//! the front-cache), shed with a typed rejection (overload or
//! unavailable), or failed with a deadline error. A request that would
//! otherwise hang is cut off by its unconditional deadline event, so
//! `unanswered` can only be nonzero if the loop itself loses state —
//! which the determinism and failover tests would catch.

use std::collections::BTreeMap;

use obs::{Histogram, Sampler, Value};
use optane_core::Generation;
use simbase::SplitMix64;

use crate::breaker::{Admission, CircuitBreaker};
use crate::cache::FrontCache;
use crate::fault::{ClusterFaultPlan, MigrationFailTarget};
use crate::metrics::{cluster_registry, percentile};
use crate::migrate::{
    ControlKind, MigrationDriver, MigrationPhase, MigrationPlan, MigrationReport,
};
use crate::net::{NetParams, NetSim, NetStats};
use crate::replica::{ReplicationParams, RoutingTable, SliceId};
use crate::retry::{RetryPolicy, Ticks};
use crate::shard::{
    LogRecord, RouteMeta, ShardConfig, ShardError, ShardOp, ShardReply, ShardServer, RECORD_BYTES,
};
use crate::workload::{ClientConfig, ClientGen};

/// Full cluster run parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterParams {
    /// Shard count; generations alternate G1/G2 starting at G1.
    pub n_shards: usize,
    /// Log slots per shard (size for preload + traffic headroom).
    pub log_slots: u64,
    pub client: ClientConfig,
    pub net: NetParams,
    pub retry: RetryPolicy,
    /// Hedge a read that has not replied after this many ticks
    /// (0 disables hedging).
    pub hedge_after: Ticks,
    /// End-to-end request deadline: the request is answered with a
    /// deadline error at `arrival + deadline` if nothing else resolved it.
    pub deadline: Ticks,
    /// Router admission bound: in-flight requests admitted per shard.
    pub queue_bound: usize,
    /// Breaker: consecutive failures to trip.
    pub breaker_threshold: u32,
    /// Breaker: ticks open before a half-open probe.
    pub breaker_cooldown: Ticks,
    /// DRAM front-cache capacity (entries).
    pub front_cache: usize,
    /// Keyslice / replica-set shape (defaults to the legacy layout:
    /// one slice per shard, one replica).
    pub replication: ReplicationParams,
    /// Optional live keyspace migration.
    pub migration: Option<MigrationPlan>,
    /// Anti-entropy cadence in ticks (None = repair only at end of run).
    pub repair_interval: Option<Ticks>,
    pub fault: ClusterFaultPlan,
    pub seed: u64,
    /// Metrics sampling interval in ticks (None = no series).
    pub metrics_interval: Option<Ticks>,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            n_shards: 4,
            log_slots: 64 * 1024,
            client: ClientConfig::default(),
            net: NetParams::default(),
            retry: RetryPolicy::default(),
            hedge_after: 20_000,
            deadline: 400_000,
            queue_bound: 64,
            breaker_threshold: 5,
            breaker_cooldown: 60_000,
            front_cache: 4_096,
            replication: ReplicationParams::default(),
            migration: None,
            repair_interval: None,
            fault: ClusterFaultPlan::none(),
            seed: 0,
            metrics_interval: None,
        }
    }
}

/// Typed cluster-run failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterError {
    BadParams(&'static str),
    Shard(ShardError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::BadParams(m) => write!(f, "bad cluster params: {m}"),
            ClusterError::Shard(e) => write!(f, "shard error: {e:?}"),
        }
    }
}

/// One shard recovery, as observed by the cluster.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    pub shard: usize,
    /// Power-drop instant.
    pub at: Ticks,
    /// Configured outage (reboot) ticks.
    pub outage: Ticks,
    /// Log replay cycles on the recovered machine.
    pub replay_cycles: u64,
    /// Records replayed into the rebuilt index.
    pub replayed: u64,
    /// Unacknowledged tail records lost (acked losses are counted
    /// separately by the oracle and must be zero).
    pub lost_tail: u64,
    /// Size of the crash image's uncertain set.
    pub uncertain_lines: u64,
    /// Total down time: outage + replay.
    pub total_ticks: Ticks,
}

/// Latency summary for one generation's served requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub count: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: f64,
}

fn summarize(h: &Histogram) -> LatencySummary {
    LatencySummary {
        count: h.count(),
        p50: percentile(h, 0.50),
        p99: percentile(h, 0.99),
        max: h.max(),
        mean: h.mean(),
    }
}

/// Everything one cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub arrivals: u64,
    pub served_ok: u64,
    pub served_degraded: u64,
    pub shed_overload: u64,
    pub shed_unavailable: u64,
    pub deadline_exceeded: u64,
    pub retries: u64,
    pub hedges: u64,
    pub duplicate_replies: u64,
    pub breaker_trips: u64,
    /// Attempts rejected by a shard's epoch fence (typed `StaleEpoch`).
    pub stale_epoch_rejections: u64,
    /// Duplicate put deliveries answered from the idempotency window.
    pub dedup_hits: u64,
    /// Data records sharing a nonzero req-id across all shard logs —
    /// the idempotency oracle; must be zero.
    pub duplicate_applies: u64,
    pub net: NetStats,
    pub acked_writes: u64,
    /// Acknowledged writes missing from the post-run persistent state:
    /// a recorded ack whose log record is gone, or whose value is
    /// absent from a current owner after anti-entropy convergence. The
    /// ADR ack ordering plus idempotent copy/repair makes this
    /// structurally zero; the rebalance proptest asserts it for
    /// arbitrary seeded crash schedules.
    pub lost_acked: u64,
    /// Acks collected from a shard that neither owns the slice nor
    /// retired it cleanly (every served record copied first). Must be
    /// zero: the epoch fence forbids acks from retired owners.
    pub stale_epoch_acks: u64,
    /// Requests never finalized (must be zero: every request is served,
    /// shed, or deadline-failed).
    pub unanswered: u64,
    pub recoveries: Vec<RecoveryReport>,
    /// What the migration accomplished, when one was configured.
    pub migration: Option<MigrationReport>,
    /// The configured migration drained its whole queue.
    pub migration_done: bool,
    /// Bytes written by anti-entropy read-repair (end-of-run drain
    /// included).
    pub repair_bytes: u64,
    /// Divergent (slice, comparison) pairs anti-entropy found.
    pub divergent_slices: u64,
    /// Every slice owned exactly once, and shard-local ownership agrees
    /// with the routing table. Must be true after convergence.
    pub ownership_consistent: bool,
    /// Final routing-table epoch.
    pub epoch: u64,
    pub latency_g1: LatencySummary,
    pub latency_g2: LatencySummary,
    pub latency_degraded: LatencySummary,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Front-cache lookups rejected by the epoch floor.
    pub cache_stale_rejects: u64,
    pub shard_served: Vec<u64>,
    /// Simulated tick of the last processed event other than a metrics
    /// sample, so sampling (`--metrics`) never moves the clock.
    pub sim_end: Ticks,
    /// Sampled fleet metrics series (JSONL), when enabled.
    pub metrics_jsonl: Option<String>,
}

impl ClusterReport {
    /// Answered requests: everything that got a reply or a typed error.
    pub fn answered(&self) -> u64 {
        self.served_ok
            + self.served_degraded
            + self.shed_overload
            + self.shed_unavailable
            + self.deadline_exceeded
    }

    /// Fraction of arrivals answered (the e12/e13 availability metric).
    pub fn availability(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.answered() as f64 / self.arrivals as f64
        }
    }

    /// Fraction of arrivals served with data (not shed, not failed).
    pub fn served_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            (self.served_ok + self.served_degraded) as f64 / self.arrivals as f64
        }
    }

    /// Deterministic plain-text availability report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mut line = |l: String| {
            s.push_str(&l);
            s.push('\n');
        };
        line("cluster availability report".to_string());
        line(format!("arrivals: {}", self.arrivals));
        line(format!(
            "answered: {} (availability {:.4}%)",
            self.answered(),
            self.availability() * 100.0
        ));
        line(format!(
            "served_ok: {}  served_degraded: {}  shed_overload: {}  shed_unavailable: {}  deadline_exceeded: {}",
            self.served_ok,
            self.served_degraded,
            self.shed_overload,
            self.shed_unavailable,
            self.deadline_exceeded
        ));
        line(format!(
            "retries: {}  hedges: {}  duplicate_replies: {}  breaker_trips: {}",
            self.retries, self.hedges, self.duplicate_replies, self.breaker_trips
        ));
        line(format!(
            "epoch: {}  stale_epoch_rejections: {}  dedup_hits: {}  duplicate_applies: {}",
            self.epoch, self.stale_epoch_rejections, self.dedup_hits, self.duplicate_applies
        ));
        line(format!(
            "net: sent {} dropped {} reordered {}",
            self.net.sent, self.net.dropped, self.net.reordered
        ));
        line(format!(
            "front_cache: hits {} misses {} stale_rejects {}",
            self.cache_hits, self.cache_misses, self.cache_stale_rejects
        ));
        line(format!(
            "repair: divergent_slices {} repair_bytes {}",
            self.divergent_slices, self.repair_bytes
        ));
        if let Some(m) = &self.migration {
            line(format!(
                "migration: moved {} aborted {} resumed {} flips_recovered {} records_copied {} control_records {} done {}",
                m.slices_moved,
                m.slices_aborted,
                m.copies_resumed,
                m.flips_recovered,
                m.records_copied,
                m.control_records,
                self.migration_done
            ));
        }
        for (i, served) in self.shard_served.iter().enumerate() {
            line(format!("shard {i}: served {served}"));
        }
        for r in &self.recoveries {
            line(format!(
                "recovery: shard {} power-fail at {} outage {} replay_cycles {} replayed {} lost_tail {} uncertain {} total {}",
                r.shard, r.at, r.outage, r.replay_cycles, r.replayed, r.lost_tail, r.uncertain_lines, r.total_ticks
            ));
        }
        let lat = |name: &str, l: &LatencySummary| {
            format!(
                "latency {name}: count {} p50 {} p99 {} max {} mean {:.1}",
                l.count, l.p50, l.p99, l.max, l.mean
            )
        };
        line(lat("G1", &self.latency_g1));
        line(lat("G2", &self.latency_g2));
        line(lat("degraded", &self.latency_degraded));
        line(format!("acked_writes: {}", self.acked_writes));
        line(format!(
            "acked-write loss: {} ({})",
            self.lost_acked,
            if self.lost_acked == 0 {
                "zero acknowledged-write loss"
            } else {
                "ACKED WRITES LOST"
            }
        ));
        line(format!("stale_epoch_acks: {}", self.stale_epoch_acks));
        line(format!(
            "ownership_consistent: {}",
            self.ownership_consistent
        ));
        line(format!("unanswered: {}", self.unanswered));
        line(format!("sim_end: {}", self.sim_end));
        s
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    ServedOk { value: Option<u64> },
    ServedDegraded { value: u64 },
    ShedOverload,
    ShedUnavailable,
    DeadlineExceeded,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Client request hits the router (op pre-bound in `reqs`).
    Arrival { req: usize },
    /// Request attempt reaches the shard.
    DeliverReq { req: usize, attempt: u32 },
    /// Shard reply reaches the router.
    DeliverReply {
        req: usize,
        attempt: u32,
        reply: ReplyWire,
    },
    /// Attempt response window expired.
    AttemptTimeout { req: usize, attempt: u32 },
    /// Backoff elapsed: launch the next attempt (or put round).
    RetryFire { req: usize },
    /// Hedge window elapsed: maybe launch a duplicate read.
    HedgeFire { req: usize, attempt: u32 },
    /// Request deadline: answer with a typed failure if still open.
    DeadlineFire { req: usize },
    /// Shard power drop (fault plan or migration fault).
    PowerFail {
        shard: usize,
        outage: Ticks,
        survivor_bias: f64,
    },
    /// Recovered shard rejoins the fleet (epoch bumps, floors move).
    RecoveryDone { shard: usize },
    /// Migration driver pacing tick.
    MigrateStep,
    /// Anti-entropy sweep over all slices.
    RepairTick,
    /// Metrics sampling tick.
    MetricsTick,
}

/// Reply payload carried over the simulated network.
#[derive(Debug, Clone, Copy)]
enum ReplyWire {
    Value(Option<u64>),
    Acked {
        seq: u64,
    },
    LogFull,
    /// Epoch fence rejection: relaunch against the refreshed table.
    Stale,
}

struct ReqState {
    op: ShardOp,
    slice: SliceId,
    /// Idempotency key (nonzero for puts; retries/hedges reuse it).
    req_id: u64,
    arrival: Ticks,
    attempts: u32,
    /// Per-attempt "no longer outstanding" flags (replied or timed out).
    settled: Vec<bool>,
    /// Per-attempt target shard.
    attempt_shard: Vec<usize>,
    /// Per-attempt routing epoch at launch.
    attempt_epoch: Vec<u64>,
    /// Round-robin owner cursor for read attempts.
    rr: usize,
    /// Distinct shards that durably acked this put: (shard, log seq).
    acks: Vec<(usize, u64)>,
    /// Admission slot held at this shard (the slice primary at arrival).
    admitted: Option<usize>,
    done: bool,
}

/// An acknowledged write the oracles must find intact post-run.
#[derive(Debug, Clone)]
struct AckedWrite {
    slice: SliceId,
    key: u64,
    value: u64,
    /// The quorum that acked: (shard, log seq) per durable copy.
    acks: Vec<(usize, u64)>,
}

struct Counters {
    arrivals: u64,
    served_ok: u64,
    served_degraded: u64,
    shed_overload: u64,
    shed_unavailable: u64,
    deadline_exceeded: u64,
    retries: u64,
    hedges: u64,
    duplicate_replies: u64,
    acked_writes: u64,
    stale_epoch_rejections: u64,
    repair_bytes: u64,
    divergent_slices: u64,
}

/// The running cluster. Construct once per run via [`run`]; all state
/// is owned, nothing is shared.
struct Cluster {
    params: ClusterParams,
    table: RoutingTable,
    replicas: usize,
    quorum: usize,
    shards: Vec<ShardServer>,
    up: Vec<bool>,
    busy_until: Vec<Ticks>,
    inflight: Vec<usize>,
    breakers: Vec<CircuitBreaker>,
    shard_served: Vec<u64>,
    net: NetSim,
    cache: FrontCache,
    /// Per-slice front-cache epoch floor: entries older than the floor
    /// never serve (bumped on flips and on owner recovery).
    cache_floor: Vec<u64>,
    gen: ClientGen,
    reqs: Vec<ReqState>,
    acked: Vec<AckedWrite>,
    counters: Counters,
    events: BTreeMap<(Ticks, u64), Event>,
    next_seq: u64,
    /// Heap entries that are not metrics/repair ticks — when this hits
    /// zero the periodic samplers stop rescheduling and the run drains.
    live_events: usize,
    backoff_rng: SplitMix64,
    lat_g1: Histogram,
    lat_g2: Histogram,
    lat_degraded: Histogram,
    recoveries: Vec<RecoveryReport>,
    mig: Option<MigrationDriver>,
    sampler: Option<Sampler>,
    now: Ticks,
    /// Tick of the last processed event that is not a `MetricsTick`.
    last_work: Ticks,
}

/// Generation of shard `i` under the alternating layout.
pub fn shard_generation(i: usize) -> Generation {
    if i.is_multiple_of(2) {
        Generation::G1
    } else {
        Generation::G2
    }
}

impl Cluster {
    fn new(params: ClusterParams) -> Result<Self, ClusterError> {
        if params.n_shards == 0 {
            return Err(ClusterError::BadParams("n_shards must be > 0"));
        }
        if params.queue_bound == 0 {
            return Err(ClusterError::BadParams("queue_bound must be > 0"));
        }
        if params.retry.max_attempts == 0 {
            return Err(ClusterError::BadParams("max_attempts must be > 0"));
        }
        if params.deadline == 0 {
            return Err(ClusterError::BadParams("deadline must be > 0"));
        }
        if params.replication.replicas == 0 {
            return Err(ClusterError::BadParams("replicas must be > 0"));
        }
        if params.replication.replicas > params.n_shards {
            return Err(ClusterError::BadParams("replicas exceed shard count"));
        }
        if let Some(pf) = params.fault.power_fail {
            if pf.shard >= params.n_shards {
                return Err(ClusterError::BadParams("fault shard out of range"));
            }
        }
        if let Some(plan) = params.migration {
            if plan.from >= params.n_shards || plan.to >= params.n_shards {
                return Err(ClusterError::BadParams("migration shard out of range"));
            }
            if plan.from == plan.to {
                return Err(ClusterError::BadParams("migration from == to"));
            }
            if plan.chunk_records == 0 {
                return Err(ClusterError::BadParams(
                    "migration chunk_records must be > 0",
                ));
            }
        }
        let n = params.n_shards;
        let n_slices = params.replication.slices(n);
        let table = RoutingTable::new(n_slices, n, params.replication.replicas);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let mut s = ShardServer::new(ShardConfig {
                id: i,
                gen: shard_generation(i),
                log_slots: params.log_slots,
                n_slices,
                seed: params.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            });
            s.set_owned(&table.slices_on(i));
            shards.push(s);
        }
        let mut net = NetSim::new(params.net, params.seed);
        if let Some(d) = params.fault.net_degrade {
            net.set_degrade(d.start, d.end, d.params);
        }
        let mig = params.migration.map(|plan| {
            let mut d = MigrationDriver::new(plan);
            d.queue = table.slices_on(plan.from);
            if plan.max_slices > 0 {
                d.queue.truncate(plan.max_slices);
            }
            d
        });
        Ok(Cluster {
            shards,
            replicas: params.replication.replicas,
            quorum: params.replication.quorum(),
            up: vec![true; n],
            busy_until: vec![0; n],
            inflight: vec![0; n],
            breakers: vec![
                CircuitBreaker::new(params.breaker_threshold, params.breaker_cooldown);
                n
            ],
            shard_served: vec![0; n],
            net,
            cache: FrontCache::new(params.front_cache),
            cache_floor: vec![0; n_slices],
            gen: ClientGen::new(ClientConfig {
                seed: params.client.seed ^ params.seed,
                ..params.client
            }),
            reqs: Vec::new(),
            acked: Vec::new(),
            counters: Counters {
                arrivals: 0,
                served_ok: 0,
                served_degraded: 0,
                shed_overload: 0,
                shed_unavailable: 0,
                deadline_exceeded: 0,
                retries: 0,
                hedges: 0,
                duplicate_replies: 0,
                acked_writes: 0,
                stale_epoch_rejections: 0,
                repair_bytes: 0,
                divergent_slices: 0,
            },
            events: BTreeMap::new(),
            next_seq: 0,
            live_events: 0,
            backoff_rng: SplitMix64::new(params.seed ^ 0x0062_6163_6b6f_6666),
            lat_g1: Histogram::new(),
            lat_g2: Histogram::new(),
            lat_degraded: Histogram::new(),
            recoveries: Vec::new(),
            mig,
            sampler: params.metrics_interval.map(|iv| {
                let mut s = Sampler::new(cluster_registry(n), iv.max(1));
                s.set_context(format!(
                    "cluster seed={} ia={}",
                    params.seed, params.client.interarrival
                ));
                s
            }),
            table,
            params,
            now: 0,
            last_work: 0,
        })
    }

    fn push(&mut self, at: Ticks, ev: Event) {
        if !matches!(ev, Event::MetricsTick | Event::RepairTick) {
            self.live_events += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((at.max(self.now), seq), ev);
    }

    /// Occupy a shard's machine for `cycles` of background work (copy
    /// stream, control records, repair) — it competes with foreground
    /// traffic via the busy horizon.
    fn charge(&mut self, shard: usize, cycles: u64) {
        self.busy_until[shard] = self.busy_until[shard].max(self.now).saturating_add(cycles);
    }

    fn attempt_budget(&self) -> u32 {
        self.params
            .retry
            .max_attempts
            .saturating_mul(self.replicas as u32)
    }

    fn preload(&mut self) -> Result<(), ClusterError> {
        // Preload values count 1..=preload_keys: below every client put
        // value (which start at preload_keys + 1), so the global
        // last-writer-wins order stays monotone across load and run.
        for i in 0..self.params.client.preload_keys {
            let key = self.gen.next_preload_key();
            let slice = self.table.slice_of(key);
            for &shard in &self.table.owners(slice).to_vec() {
                match self.shards[shard].preload(key, i + 1) {
                    Ok(()) => {}
                    Err(e) => return Err(ClusterError::Shard(e)),
                }
            }
        }
        Ok(())
    }

    fn schedule_initial(&mut self) {
        if let Some((at, op)) = self.gen.next_arrival() {
            let req = self.new_req(at, op);
            self.push(at, Event::Arrival { req });
        }
        if let Some(pf) = self.params.fault.power_fail {
            self.push(
                pf.at,
                Event::PowerFail {
                    shard: pf.shard,
                    outage: pf.outage,
                    survivor_bias: pf.survivor_bias,
                },
            );
        }
        let mig_start = self.mig.as_mut().map(|m| {
            m.pending_steps += 1;
            m.plan.start_at
        });
        if let Some(at) = mig_start {
            self.push(at, Event::MigrateStep);
        }
        if let Some(iv) = self.params.repair_interval {
            self.push(iv.max(1), Event::RepairTick);
        }
        if let Some(iv) = self.params.metrics_interval {
            self.push(iv.max(1), Event::MetricsTick);
        }
    }

    fn new_req(&mut self, arrival: Ticks, op: ShardOp) -> usize {
        let slice = self.table.slice_of(op.key());
        // Puts carry a nonzero idempotency key; retried and hedged
        // deliveries reuse it so shards can dedup.
        let req_id = if op.is_put() {
            self.reqs.len() as u64 + 1
        } else {
            0
        };
        self.reqs.push(ReqState {
            op,
            slice,
            req_id,
            arrival,
            attempts: 0,
            settled: Vec::new(),
            attempt_shard: Vec::new(),
            attempt_epoch: Vec::new(),
            rr: 0,
            acks: Vec::new(),
            admitted: None,
            done: false,
        });
        self.reqs.len() - 1
    }

    fn outstanding(&self, req: usize) -> usize {
        self.reqs[req].settled.iter().filter(|s| !**s).count()
    }

    fn finalize(&mut self, req: usize, outcome: Outcome) {
        let (admitted, arrival, op) = {
            let rs = &mut self.reqs[req];
            if rs.done {
                return;
            }
            rs.done = true;
            (rs.admitted.take(), rs.arrival, rs.op)
        };
        if let Some(shard) = admitted {
            self.inflight[shard] = self.inflight[shard].saturating_sub(1);
        }
        let latency = self.now.saturating_sub(arrival);
        match outcome {
            Outcome::ServedOk { value } => {
                self.counters.served_ok += 1;
                // Latency attributed to the slice primary's generation.
                let primary = self.table.owners(self.reqs[req].slice)[0];
                match self.shards[primary].generation() {
                    Generation::G1 => self.lat_g1.record(latency.max(1)),
                    Generation::G2 => self.lat_g2.record(latency.max(1)),
                }
                let epoch = self.table.epoch();
                match op {
                    ShardOp::Put { key, value } => self.cache.put(key, value, epoch),
                    ShardOp::Get { key } => {
                        if let Some(v) = value {
                            self.cache.put(key, v, epoch);
                        }
                    }
                }
            }
            Outcome::ServedDegraded { .. } => {
                self.counters.served_degraded += 1;
                self.lat_degraded.record(latency.max(1));
            }
            Outcome::ShedOverload => self.counters.shed_overload += 1,
            Outcome::ShedUnavailable => self.counters.shed_unavailable += 1,
            Outcome::DeadlineExceeded => self.counters.deadline_exceeded += 1,
        }
    }

    /// Degraded path while breakers reject: reads may hit the DRAM
    /// front-cache (epoch-floored), everything else is a typed
    /// unavailable.
    fn degraded_path(&mut self, req: usize) {
        let (op, slice) = (self.reqs[req].op, self.reqs[req].slice);
        match op {
            ShardOp::Get { key } => match self.cache.get(key, self.cache_floor[slice]) {
                Some(v) => self.finalize(req, Outcome::ServedDegraded { value: v }),
                None => self.finalize(req, Outcome::ShedUnavailable),
            },
            ShardOp::Put { .. } => self.finalize(req, Outcome::ShedUnavailable),
        }
    }

    /// Register one attempt and return its 1-based attempt number.
    fn begin_attempt(&mut self, req: usize, shard: usize, epoch: u64) -> u32 {
        let rs = &mut self.reqs[req];
        rs.attempts += 1;
        rs.settled.push(false);
        rs.attempt_shard.push(shard);
        rs.attempt_epoch.push(epoch);
        rs.attempts
    }

    /// Fan one put round out to every owner that has not acked yet.
    /// Acks accumulate across rounds; the client is answered at quorum.
    fn launch_put_round(&mut self, req: usize) {
        if self.reqs[req].done {
            return;
        }
        let slice = self.reqs[req].slice;
        let epoch = self.table.epoch();
        let owners = self.table.owners(slice).to_vec();
        let budget = self.attempt_budget();
        let mut sent = 0usize;
        let mut rejected = 0usize;
        for shard in owners {
            if self.reqs[req].acks.iter().any(|&(s, _)| s == shard) {
                continue;
            }
            if self.reqs[req].attempts >= budget {
                break;
            }
            match self.breakers[shard].admit(self.now) {
                Admission::Reject => rejected += 1,
                Admission::Normal | Admission::Probe => {
                    let attempt = self.begin_attempt(req, shard, epoch);
                    if let Some(t) = self.net.transit(self.now) {
                        self.push(t, Event::DeliverReq { req, attempt });
                    }
                    self.push(
                        self.now.saturating_add(self.params.retry.attempt_timeout),
                        Event::AttemptTimeout { req, attempt },
                    );
                    sent += 1;
                }
            }
        }
        if sent == 0 && rejected > 0 && self.outstanding(req) == 0 {
            // Every reachable owner's breaker is open and nothing is in
            // flight: answer now instead of burning the deadline.
            self.degraded_path(req);
        }
    }

    /// Launch one read attempt at the next owner in rotation.
    fn launch_get_attempt(&mut self, req: usize) {
        if self.reqs[req].done {
            return;
        }
        let budget = self.attempt_budget();
        if self.reqs[req].attempts >= budget {
            return;
        }
        let slice = self.reqs[req].slice;
        let epoch = self.table.epoch();
        let owners = self.table.owners(slice).to_vec();
        let idx = self.reqs[req].rr % owners.len();
        self.reqs[req].rr += 1;
        let shard = owners[idx];
        match self.breakers[shard].admit(self.now) {
            Admission::Reject => self.degraded_path(req),
            Admission::Normal | Admission::Probe => {
                let attempt = self.begin_attempt(req, shard, epoch);
                if let Some(t) = self.net.transit(self.now) {
                    self.push(t, Event::DeliverReq { req, attempt });
                }
                self.push(
                    self.now.saturating_add(self.params.retry.attempt_timeout),
                    Event::AttemptTimeout { req, attempt },
                );
                if self.params.hedge_after > 0 && self.reqs[req].attempts < budget {
                    self.push(
                        self.now.saturating_add(self.params.hedge_after),
                        Event::HedgeFire { req, attempt },
                    );
                }
            }
        }
    }

    fn launch(&mut self, req: usize) {
        if self.reqs[req].op.is_put() {
            self.launch_put_round(req);
        } else {
            self.launch_get_attempt(req);
        }
    }

    fn on_arrival(&mut self, req: usize) {
        self.counters.arrivals += 1;
        // Next arrival is pulled lazily so the generator stream order
        // matches the event order exactly.
        if let Some((at, op)) = self.gen.next_arrival() {
            let next = self.new_req(at, op);
            self.push(at, Event::Arrival { req: next });
        }
        self.push(
            self.now.saturating_add(self.params.deadline),
            Event::DeadlineFire { req },
        );
        // Admission is bounded at the slice primary.
        let primary = self.table.owners(self.reqs[req].slice)[0];
        if self.inflight[primary] >= self.params.queue_bound {
            self.finalize(req, Outcome::ShedOverload);
            return;
        }
        self.inflight[primary] += 1;
        self.reqs[req].admitted = Some(primary);
        self.launch(req);
    }

    fn on_deliver_req(&mut self, req: usize, attempt: u32) {
        let a = attempt as usize - 1;
        if self.reqs[req].done || self.reqs[req].settled[a] {
            return;
        }
        let shard = self.reqs[req].attempt_shard[a];
        if !self.up[shard] {
            // Delivery into a powered-off shard is lost; the attempt
            // timeout turns this into a breaker failure.
            return;
        }
        let meta = RouteMeta {
            slice: self.reqs[req].slice,
            epoch: self.reqs[req].attempt_epoch[a],
            req_id: self.reqs[req].req_id,
        };
        let op = self.reqs[req].op;
        let start = self.now.max(self.busy_until[shard]);
        let (reply, cycles) = self.shards[shard].serve(op, meta);
        self.shard_served[shard] += 1;
        self.busy_until[shard] = start.saturating_add(cycles.max(1));
        let wire = match reply {
            Ok(ShardReply::Value(v)) => ReplyWire::Value(v),
            Ok(ShardReply::Acked { seq }) => ReplyWire::Acked { seq },
            Err(ShardError::LogFull) | Err(ShardError::SnapshotRoundTrip) => ReplyWire::LogFull,
            Err(ShardError::StaleEpoch { .. }) => ReplyWire::Stale,
        };
        if let Some(t) = self.net.transit(self.busy_until[shard]) {
            self.push(
                t,
                Event::DeliverReply {
                    req,
                    attempt,
                    reply: wire,
                },
            );
        }
    }

    fn on_deliver_reply(&mut self, req: usize, attempt: u32, reply: ReplyWire) {
        let a = attempt as usize - 1;
        if self.reqs[req].done || self.reqs[req].settled[a] {
            // The request already completed or this attempt already
            // timed out: a late duplicate.
            self.counters.duplicate_replies += 1;
            return;
        }
        self.reqs[req].settled[a] = true;
        let shard = self.reqs[req].attempt_shard[a];
        self.breakers[shard].on_success();
        match reply {
            ReplyWire::Stale => {
                // The shard is alive but our view was old: relaunch
                // immediately against the refreshed routing table.
                self.counters.stale_epoch_rejections += 1;
                self.launch(req);
            }
            ReplyWire::Value(v) => self.finalize(req, Outcome::ServedOk { value: v }),
            ReplyWire::Acked { seq } => {
                if let ShardOp::Put { key, value } = self.reqs[req].op {
                    if !self.reqs[req].acks.iter().any(|&(s, _)| s == shard) {
                        self.reqs[req].acks.push((shard, seq));
                    }
                    if self.reqs[req].acks.len() >= self.quorum {
                        self.acked.push(AckedWrite {
                            slice: self.reqs[req].slice,
                            key,
                            value,
                            acks: self.reqs[req].acks.clone(),
                        });
                        self.counters.acked_writes += 1;
                        self.finalize(req, Outcome::ServedOk { value: None });
                    }
                } else {
                    self.finalize(req, Outcome::ServedOk { value: None });
                }
            }
            ReplyWire::LogFull => self.finalize(req, Outcome::ShedUnavailable),
        }
    }

    fn on_attempt_timeout(&mut self, req: usize, attempt: u32) {
        let a = attempt as usize - 1;
        if self.reqs[req].done || self.reqs[req].settled[a] {
            return;
        }
        self.reqs[req].settled[a] = true;
        let shard = self.reqs[req].attempt_shard[a];
        self.breakers[shard].on_failure(self.now);
        if self.reqs[req].attempts < self.attempt_budget() && self.outstanding(req) == 0 {
            self.counters.retries += 1;
            let backoff = self
                .params
                .retry
                .backoff_after(self.reqs[req].attempts, &mut self.backoff_rng);
            self.push(self.now.saturating_add(backoff), Event::RetryFire { req });
        }
        // Otherwise the request waits on outstanding attempts or its
        // deadline event, which answers it with a typed failure.
    }

    fn on_hedge(&mut self, req: usize, attempt: u32) {
        if self.reqs[req].done || self.reqs[req].settled[attempt as usize - 1] {
            return;
        }
        if self.reqs[req].attempts < self.attempt_budget() {
            self.counters.hedges += 1;
            self.launch_get_attempt(req);
        }
    }

    fn on_power_fail(
        &mut self,
        shard: usize,
        outage: Ticks,
        survivor_bias: f64,
    ) -> Result<(), ClusterError> {
        if !self.up[shard] {
            return Ok(());
        }
        self.up[shard] = false;
        let survivor_seed = self.params.seed ^ ((shard as u64 + 1) << 32) ^ 0x70_66;
        let outcome = match self.shards[shard].crash_and_recover(survivor_seed, survivor_bias) {
            Ok(o) => o,
            Err(e) => return Err(ClusterError::Shard(e)),
        };
        let total = outage.saturating_add(outcome.replay_cycles);
        self.recoveries.push(RecoveryReport {
            shard,
            at: self.now,
            outage,
            replay_cycles: outcome.replay_cycles,
            replayed: outcome.replayed,
            lost_tail: outcome.lost_tail,
            uncertain_lines: outcome.uncertain_lines,
            total_ticks: total,
        });
        self.push(
            self.now.saturating_add(total),
            Event::RecoveryDone { shard },
        );
        Ok(())
    }

    fn on_recovery_done(&mut self, shard: usize) {
        self.up[shard] = true;
        // The world changed: bump the routing epoch and move the cache
        // floor of every slice this shard participates in, so degraded
        // reads can never serve a pre-crash cached value.
        let e = self.table.bump_epoch();
        for s in self.table.slices_on(shard) {
            self.cache_floor[s] = e;
        }
        let Some(mut mig) = self.mig.take() else {
            return;
        };
        if mig.waiting_recovery && self.up[mig.plan.from] && self.up[mig.plan.to] {
            self.resolve_migration(&mut mig);
            if !mig.done && mig.pending_steps == 0 {
                mig.pending_steps += 1;
                self.push(
                    self.now.saturating_add(mig.plan.step_interval.max(1)),
                    Event::MigrateStep,
                );
            }
        }
        self.mig = Some(mig);
    }

    /// Fire the seeded migration fault if this phase boundary is its
    /// trigger. Returns true when the crash was scheduled — the caller
    /// must stop stepping and let the power-fail land.
    fn maybe_migration_fault(&mut self, phase: MigrationPhase, mig: &mut MigrationDriver) -> bool {
        let Some(mf) = self.params.fault.migration_fail else {
            return false;
        };
        if mig.fault_fired || mf.phase != phase {
            return false;
        }
        mig.fault_fired = true;
        let (hit_src, hit_dst) = match mf.target {
            MigrationFailTarget::Source => (true, false),
            MigrationFailTarget::Dest => (false, true),
            MigrationFailTarget::Both => (true, true),
        };
        if hit_src {
            self.push(
                self.now,
                Event::PowerFail {
                    shard: mig.plan.from,
                    outage: mf.outage,
                    survivor_bias: mf.survivor_bias,
                },
            );
        }
        if hit_dst {
            self.push(
                self.now,
                Event::PowerFail {
                    shard: mig.plan.to,
                    outage: mf.outage,
                    survivor_bias: mf.survivor_bias,
                },
            );
        }
        mig.waiting_recovery = true;
        mig.dest_crashed = hit_dst;
        true
    }

    /// Copy up to `max_records` source log slots in `[cursor, upto)`
    /// into the destination via idempotent ingest. Returns true when
    /// the cursor reached `upto`.
    fn copy_chunk(
        &mut self,
        mig: &mut MigrationDriver,
        slice: SliceId,
        upto: u64,
        max_records: u64,
    ) -> bool {
        let from = mig.plan.from;
        let to = mig.plan.to;
        let mut n = 0u64;
        while n < max_records && mig.cursor < upto {
            let (rec, cyc) = self.shards[from].scan_slot(mig.cursor);
            self.charge(from, cyc);
            if let Some(LogRecord::Data {
                key, value, req_id, ..
            }) = rec
            {
                if self.table.slice_of(key) == slice {
                    let (res, cyc2) = self.shards[to].ingest(key, value, req_id);
                    self.charge(to, cyc2);
                    if matches!(res, Ok(true)) {
                        mig.report.records_copied += 1;
                    }
                    // LogFull on the destination: skip; the slice will
                    // abort or retry on a later plan. Never fatal.
                }
            }
            mig.cursor += 1;
            n += 1;
        }
        mig.cursor >= upto
    }

    fn append_ctrl(
        &mut self,
        mig: &mut MigrationDriver,
        shard: usize,
        kind: ControlKind,
        slice: SliceId,
        epoch: u64,
    ) {
        let (res, cyc) = self.shards[shard].append_control(kind, slice, epoch);
        self.charge(shard, cyc);
        if res.is_ok() {
            mig.report.control_records += 1;
        }
    }

    /// FlipRetire + table swap + cleanup for the in-flight slice. The
    /// destination's `FlipAcquire` (the commit point) is already
    /// durable when this runs.
    fn complete_flip(
        &mut self,
        mig: &mut MigrationDriver,
        slice: SliceId,
        epoch: u64,
        check_fault: bool,
    ) {
        let from = mig.plan.from;
        let to = mig.plan.to;
        self.append_ctrl(mig, from, ControlKind::FlipRetire, slice, epoch);
        let _ = self.table.flip(slice, from, to);
        self.cache_floor[slice] = self.table.epoch();
        mig.report.slices_moved += 1;
        mig.phase = MigrationPhase::Retire;
        if check_fault && self.maybe_migration_fault(MigrationPhase::Retire, mig) {
            return;
        }
        self.append_ctrl(mig, from, ControlKind::Retire, slice, epoch);
        mig.advance_slice();
    }

    /// One driver step: advance the in-flight slice through the state
    /// machine, persisting each transition before acting on it.
    fn migrate_step_once(&mut self, mig: &mut MigrationDriver) {
        let from = mig.plan.from;
        let to = mig.plan.to;
        if !self.up[from] || !self.up[to] {
            // A participant is down (migration fault or the e12-style
            // plan): park until recovery resolves the slice.
            mig.waiting_recovery = true;
            mig.dest_crashed = mig.dest_crashed || !self.up[to];
            return;
        }
        match mig.phase {
            MigrationPhase::Idle => {
                // Select the next movable slice.
                let mut sel = None;
                while mig.qi < mig.queue.len() {
                    let s = mig.queue[mig.qi];
                    mig.qi += 1;
                    let owners = self.table.owners(s);
                    if owners.contains(&from) && !owners.contains(&to) {
                        sel = Some(s);
                        break;
                    }
                }
                let Some(s) = sel else {
                    mig.done = true;
                    return;
                };
                mig.current = Some(s);
                mig.cursor = 0;
                self.append_ctrl(mig, from, ControlKind::Prepare, s, self.table.epoch());
                mig.head_at_prepare = self.shards[from].next_seq();
                mig.phase = MigrationPhase::Prepare;
                let _ = self.maybe_migration_fault(MigrationPhase::Prepare, mig);
            }
            MigrationPhase::Prepare | MigrationPhase::Copy => {
                let Some(s) = mig.current else {
                    mig.phase = MigrationPhase::Idle;
                    return;
                };
                mig.phase = MigrationPhase::Copy;
                let upto = mig.head_at_prepare;
                let chunk = mig.plan.chunk_records;
                let reached = self.copy_chunk(mig, s, upto, chunk);
                if self.maybe_migration_fault(MigrationPhase::Copy, mig) {
                    return;
                }
                if reached {
                    self.append_ctrl(mig, from, ControlKind::CatchUp, s, self.table.epoch());
                    mig.phase = MigrationPhase::CatchUp;
                    let _ = self.maybe_migration_fault(MigrationPhase::CatchUp, mig);
                }
            }
            MigrationPhase::CatchUp => {
                let Some(s) = mig.current else {
                    mig.phase = MigrationPhase::Idle;
                    return;
                };
                let head = self.shards[from].next_seq();
                if mig.cursor < head {
                    let chunk = mig.plan.chunk_records;
                    if !self.copy_chunk(mig, s, head, chunk) {
                        return; // keep chasing the tail next step
                    }
                }
                // Cursor is at the live head inside this event: no new
                // write can interleave before the flip. Persist the
                // commit point on the destination, then finish.
                let e_next = self.table.epoch() + 1;
                self.append_ctrl(mig, to, ControlKind::FlipAcquire, s, e_next);
                mig.phase = MigrationPhase::Flip;
                if self.maybe_migration_fault(MigrationPhase::Flip, mig) {
                    return; // torn flip: recovery commits via the log
                }
                self.complete_flip(mig, s, e_next, true);
            }
            MigrationPhase::Flip => {
                // Only reachable defensively (torn flips resolve at
                // recovery): the commit point is durable, finish.
                let Some(s) = mig.current else {
                    mig.phase = MigrationPhase::Idle;
                    return;
                };
                let e = self.shards[to]
                    .owned_epoch(s)
                    .unwrap_or(self.table.epoch() + 1);
                self.complete_flip(mig, s, e, false);
            }
            MigrationPhase::Retire => {
                let Some(s) = mig.current else {
                    mig.phase = MigrationPhase::Idle;
                    return;
                };
                self.append_ctrl(mig, from, ControlKind::Retire, s, self.table.epoch());
                mig.advance_slice();
            }
        }
    }

    /// Crash resolution for the parked migration, once both
    /// participants are back up. The durable truth is in the logs:
    /// the destination's `FlipAcquire` decides commit vs abort.
    fn resolve_migration(&mut self, mig: &mut MigrationDriver) {
        mig.waiting_recovery = false;
        let dest_crashed = mig.dest_crashed;
        mig.dest_crashed = false;
        let Some(s) = mig.current else {
            return;
        };
        let from = mig.plan.from;
        let to = mig.plan.to;
        match mig.phase {
            MigrationPhase::Idle => {}
            MigrationPhase::Prepare | MigrationPhase::Copy | MigrationPhase::CatchUp => {
                if dest_crashed {
                    // Destination lost its partial copy before the
                    // commit point: abort the slice, ownership stays
                    // with the source. Orphan records on the
                    // destination are fenced off by ownership.
                    self.append_ctrl(mig, from, ControlKind::Abort, s, self.table.epoch());
                    mig.report.slices_aborted += 1;
                    mig.advance_slice();
                } else {
                    // Source recovered: restart the copy from slot 0.
                    // Ingest is idempotent, so a re-copy never
                    // double-applies.
                    mig.cursor = 0;
                    mig.head_at_prepare = self.shards[from].next_seq();
                    mig.phase = MigrationPhase::Copy;
                    mig.report.copies_resumed += 1;
                }
            }
            MigrationPhase::Flip => {
                if self.shards[to].has_flip(s) {
                    // Committed: the destination's durable FlipAcquire
                    // decides. Final full catch-up first — any record
                    // the source acked between FlipAcquire and the
                    // crash landing is in its replayed log and must
                    // reach the destination before ownership swaps.
                    mig.cursor = 0;
                    let head = self.shards[from].next_seq();
                    let _ = self.copy_chunk(mig, s, head, u64::MAX);
                    mig.report.flips_recovered += 1;
                    let e = self.shards[to]
                        .owned_epoch(s)
                        .unwrap_or(self.table.epoch() + 1);
                    self.complete_flip(mig, s, e, false);
                } else {
                    self.append_ctrl(mig, from, ControlKind::Abort, s, self.table.epoch());
                    mig.report.slices_aborted += 1;
                    mig.advance_slice();
                }
            }
            MigrationPhase::Retire => {
                // The flip already swapped the table pre-crash; only
                // the source-side cleanup record is missing.
                self.append_ctrl(mig, from, ControlKind::Retire, s, self.table.epoch());
                mig.advance_slice();
            }
        }
    }

    fn on_migrate_step(&mut self) {
        let Some(mut mig) = self.mig.take() else {
            return;
        };
        mig.pending_steps = mig.pending_steps.saturating_sub(1);
        if !mig.done && !mig.waiting_recovery {
            self.migrate_step_once(&mut mig);
            if !mig.done && !mig.waiting_recovery && mig.pending_steps == 0 {
                mig.pending_steps += 1;
                self.push(
                    self.now.saturating_add(mig.plan.step_interval.max(1)),
                    Event::MigrateStep,
                );
            }
        }
        self.mig = Some(mig);
    }

    /// Anti-entropy one slice: compare per-replica FNV checksums and
    /// read-repair divergence from the per-key maximum across the
    /// replica set. Returns records applied.
    fn repair_slice(&mut self, slice: SliceId, charge: bool) -> u64 {
        let owners: Vec<usize> = self
            .table
            .owners(slice)
            .iter()
            .copied()
            .filter(|&i| self.up[i])
            .collect();
        if owners.len() < 2 {
            return 0;
        }
        let first = self.shards[owners[0]].slice_checksum(slice);
        if owners[1..]
            .iter()
            .all(|&i| self.shards[i].slice_checksum(slice) == first)
        {
            return 0;
        }
        self.counters.divergent_slices += 1;
        // Merge: per-key max over every replica's view (values are
        // globally monotone versions).
        let mut union: BTreeMap<u64, u64> = BTreeMap::new();
        for &i in &owners {
            for (k, v) in self.shards[i].slice_entries(slice) {
                let e = union.entry(k).or_insert(v);
                if *e < v {
                    *e = v;
                }
            }
        }
        let mut applied = 0u64;
        for &i in &owners {
            for (&k, &v) in &union {
                let missing = !matches!(self.shards[i].peek_value(k), Some(have) if have >= v);
                if missing {
                    let (res, cyc) = self.shards[i].ingest(k, v, 0);
                    if charge {
                        self.charge(i, cyc);
                    }
                    if matches!(res, Ok(true)) {
                        applied += 1;
                        self.counters.repair_bytes += RECORD_BYTES;
                    }
                }
            }
        }
        applied
    }

    fn on_repair_tick(&mut self) {
        for s in 0..self.table.n_slices() {
            let _ = self.repair_slice(s, true);
        }
        if self.live_events > 0 {
            if let Some(iv) = self.params.repair_interval {
                self.push(self.now.saturating_add(iv.max(1)), Event::RepairTick);
            }
        }
    }

    /// End-of-run convergence: drain repairs until a full pass applies
    /// nothing (the value-level oracle runs on the converged state).
    fn drain_repairs(&mut self) {
        for _ in 0..4 {
            let mut total = 0u64;
            for s in 0..self.table.n_slices() {
                total += self.repair_slice(s, false);
            }
            if total == 0 {
                break;
            }
        }
    }

    fn sample_metrics(&mut self, last: bool) {
        let row_now = self.now;
        let dedup_hits: u64 = self.shards.iter().map(|s| s.dedup_hits).sum();
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        let c = &self.counters;
        let net = self.net.stats;
        let trips: u64 = self.breakers.iter().map(|b| b.trips).sum();
        let mut row = vec![
            Value::U64(c.arrivals),
            Value::U64(c.served_ok),
            Value::U64(c.served_degraded),
            Value::U64(c.shed_overload),
            Value::U64(c.shed_unavailable),
            Value::U64(c.deadline_exceeded),
            Value::U64(c.retries),
            Value::U64(c.hedges),
            Value::U64(c.duplicate_replies),
            Value::U64(trips),
            Value::U64(net.sent),
            Value::U64(net.dropped),
            Value::U64(net.reordered),
            Value::U64(c.acked_writes),
            Value::U64(c.stale_epoch_rejections),
            Value::U64(dedup_hits),
            Value::U64(c.repair_bytes),
            Value::U64(c.divergent_slices),
        ];
        for i in 0..self.shards.len() {
            let q = self.shards[i].queue_stats();
            row.push(Value::U64(u64::from(self.up[i])));
            row.push(Value::U64(self.inflight[i] as u64));
            row.push(Value::U64(self.shard_served[i]));
            row.push(Value::U64(q.rpq.max_depth));
            row.push(Value::U64(q.wpq.max_depth));
        }
        if last {
            sampler.record_final(row_now, row);
        } else {
            sampler.record(row_now, row);
        }
    }

    fn on_metrics_tick(&mut self) {
        self.sample_metrics(false);
        if self.live_events > 0 {
            if let Some(iv) = self.params.metrics_interval {
                self.push(self.now.saturating_add(iv.max(1)), Event::MetricsTick);
            }
        }
    }

    fn run_loop(&mut self) -> Result<(), ClusterError> {
        while let Some(((at, _), ev)) = self.events.pop_first() {
            self.now = at;
            if !matches!(ev, Event::MetricsTick) {
                self.last_work = at;
            }
            if !matches!(ev, Event::MetricsTick | Event::RepairTick) {
                self.live_events -= 1;
            }
            match ev {
                Event::Arrival { req } => self.on_arrival(req),
                Event::DeliverReq { req, attempt } => self.on_deliver_req(req, attempt),
                Event::DeliverReply {
                    req,
                    attempt,
                    reply,
                } => self.on_deliver_reply(req, attempt, reply),
                Event::AttemptTimeout { req, attempt } => self.on_attempt_timeout(req, attempt),
                Event::RetryFire { req } => {
                    if !self.reqs[req].done {
                        self.launch(req);
                    }
                }
                Event::HedgeFire { req, attempt } => self.on_hedge(req, attempt),
                Event::DeadlineFire { req } => {
                    if !self.reqs[req].done {
                        self.finalize(req, Outcome::DeadlineExceeded);
                    }
                }
                Event::PowerFail {
                    shard,
                    outage,
                    survivor_bias,
                } => self.on_power_fail(shard, outage, survivor_bias)?,
                Event::RecoveryDone { shard } => self.on_recovery_done(shard),
                Event::MigrateStep => self.on_migrate_step(),
                Event::RepairTick => self.on_repair_tick(),
                Event::MetricsTick => self.on_metrics_tick(),
            }
        }
        Ok(())
    }

    fn into_report(mut self) -> ClusterReport {
        self.sample_metrics(true);
        // Converge replicas before the value-level oracle.
        self.drain_repairs();
        // Acked-write oracle, two layers: (1) record-level — every
        // (shard, seq) that acked must still hold the intact record in
        // its persistent log; (2) value-level — after convergence,
        // every *current* owner of the slice must index the acked value
        // (or a newer one).
        let mut lost_acked = 0u64;
        let mut stale_epoch_acks = 0u64;
        for w in &self.acked {
            if w.acks
                .iter()
                .any(|&(sh, seq)| !self.shards[sh].verify_record(seq, w.key, w.value))
            {
                lost_acked += 1;
                continue;
            }
            let owners = self.table.owners(w.slice);
            if owners
                .iter()
                .any(|&o| !matches!(self.shards[o].peek_value(w.key), Some(v) if v >= w.value))
            {
                lost_acked += 1;
            }
        }
        // Stale-epoch-ack oracle: every acking shard either still owns
        // the slice or handed it off cleanly (durable FlipRetire, which
        // the protocol only writes after the copy reached the head).
        for w in &self.acked {
            for &(sh, _) in &w.acks {
                if !self.shards[sh].owns(w.slice) && !self.shards[sh].retired_cleanly(w.slice) {
                    stale_epoch_acks += 1;
                }
            }
        }
        // Exactly-once ownership: the table is well-formed and every
        // shard's local view agrees with it.
        let mut ownership_consistent = self.table.ownership_ok();
        for s in 0..self.table.n_slices() {
            for i in 0..self.shards.len() {
                let should = self.table.owners(s).contains(&i);
                if self.shards[i].owns(s) != should {
                    ownership_consistent = false;
                }
            }
        }
        let duplicate_applies: u64 = self.shards.iter().map(|s| s.duplicate_req_ids()).sum();
        let dedup_hits: u64 = self.shards.iter().map(|s| s.dedup_hits).sum();
        let unanswered = self.reqs.iter().filter(|r| !r.done).count() as u64;
        let trips: u64 = self.breakers.iter().map(|b| b.trips).sum();
        ClusterReport {
            arrivals: self.counters.arrivals,
            served_ok: self.counters.served_ok,
            served_degraded: self.counters.served_degraded,
            shed_overload: self.counters.shed_overload,
            shed_unavailable: self.counters.shed_unavailable,
            deadline_exceeded: self.counters.deadline_exceeded,
            retries: self.counters.retries,
            hedges: self.counters.hedges,
            duplicate_replies: self.counters.duplicate_replies,
            breaker_trips: trips,
            stale_epoch_rejections: self.counters.stale_epoch_rejections,
            dedup_hits,
            duplicate_applies,
            net: self.net.stats,
            acked_writes: self.counters.acked_writes,
            lost_acked,
            stale_epoch_acks,
            unanswered,
            recoveries: self.recoveries,
            migration: self.mig.as_ref().map(|m| m.report),
            migration_done: self.mig.as_ref().is_none_or(|m| m.done),
            repair_bytes: self.counters.repair_bytes,
            divergent_slices: self.counters.divergent_slices,
            ownership_consistent,
            epoch: self.table.epoch(),
            latency_g1: summarize(&self.lat_g1),
            latency_g2: summarize(&self.lat_g2),
            latency_degraded: summarize(&self.lat_degraded),
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
            cache_stale_rejects: self.cache.stale_rejects,
            shard_served: self.shard_served,
            sim_end: self.last_work,
            metrics_jsonl: self.sampler.as_ref().map(|s| s.to_jsonl()),
        }
    }
}

/// Run one cluster simulation to completion.
pub fn run(params: ClusterParams) -> Result<ClusterReport, ClusterError> {
    let mut c = Cluster::new(params)?;
    c.preload()?;
    c.schedule_initial();
    c.run_loop()?;
    Ok(c.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ClusterFaultPlan;

    fn smoke_params() -> ClusterParams {
        ClusterParams {
            client: ClientConfig {
                preload_keys: 300,
                ops: 1_500,
                interarrival: 1_200,
                ..ClientConfig::default()
            },
            log_slots: 8_192,
            seed: 11,
            ..ClusterParams::default()
        }
    }

    #[test]
    fn fault_free_run_answers_everything() {
        let r = run(smoke_params()).expect("run");
        assert_eq!(r.arrivals, 1_500);
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.lost_acked, 0);
        assert_eq!(r.stale_epoch_acks, 0);
        assert!(r.ownership_consistent);
        assert!(
            r.availability() >= 0.999,
            "availability {}",
            r.availability()
        );
        assert!(r.served_ok > 0);
        assert!(r.latency_g1.count + r.latency_g2.count > 0);
    }

    #[test]
    fn power_fail_run_degrades_but_answers() {
        let mut p = smoke_params();
        p.fault = ClusterFaultPlan::power_fail_with_flap(0, 300_000, 150_000);
        let r = run(p).expect("run");
        assert_eq!(r.unanswered, 0, "no request may hang");
        assert_eq!(r.lost_acked, 0, "acked writes survive power fail");
        assert_eq!(r.recoveries.len(), 1);
        assert!(r.breaker_trips > 0, "breaker must trip during outage");
        assert!(
            r.availability() >= 0.99,
            "availability {} below bound",
            r.availability()
        );
        assert!(r.net.dropped > 0, "flap window should drop messages");
        assert!(r.epoch > 1, "recovery must bump the routing epoch");
    }

    #[test]
    fn same_seed_same_report() {
        let mut p = smoke_params();
        p.fault = ClusterFaultPlan::power_fail_with_flap(1, 250_000, 100_000);
        p.metrics_interval = Some(50_000);
        let a = run(p).expect("run a");
        let b = run(p).expect("run b");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.metrics_jsonl, b.metrics_jsonl);
    }

    #[test]
    fn metrics_sampling_does_not_move_the_clock() {
        for repair in [None, Some(40_000)] {
            let mut p = smoke_params();
            p.fault = ClusterFaultPlan::power_fail_with_flap(1, 250_000, 100_000);
            p.repair_interval = repair;
            let plain = run(p).expect("run");
            p.metrics_interval = Some(50_000);
            let sampled = run(p).expect("sampled run");
            assert!(sampled.metrics_jsonl.is_some());
            assert_eq!(plain.sim_end, sampled.sim_end, "repair {repair:?}");
            assert_eq!(plain.render(), sampled.render(), "repair {repair:?}");
        }
    }

    #[test]
    fn overload_sheds_with_typed_rejections() {
        let mut p = smoke_params();
        p.client.interarrival = 10; // far past saturation
        p.client.ops = 3_000;
        p.queue_bound = 8;
        let r = run(p).expect("run");
        assert!(r.shed_overload > 0, "overload must shed");
        assert_eq!(r.unanswered, 0);
        assert!(r.availability() >= 0.99);
    }

    #[test]
    fn bad_params_are_typed() {
        let mut p = smoke_params();
        p.n_shards = 0;
        assert!(matches!(run(p), Err(ClusterError::BadParams(_))));
        let mut p = smoke_params();
        p.replication.replicas = 9; // > n_shards
        assert!(matches!(run(p), Err(ClusterError::BadParams(_))));
        let mut p = smoke_params();
        p.migration = Some(MigrationPlan::drain(0, 0, 1_000));
        assert!(matches!(run(p), Err(ClusterError::BadParams(_))));
    }

    #[test]
    fn replicated_quorum_survives_power_fail_and_repairs() {
        let mut p = smoke_params();
        p.replication = ReplicationParams {
            n_slices: 0,
            replicas: 3,
        };
        p.repair_interval = Some(100_000);
        p.fault = ClusterFaultPlan::power_fail_with_flap(1, 300_000, 150_000);
        let r = run(p).expect("run");
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.lost_acked, 0, "quorum acks survive a replica crash");
        assert_eq!(r.stale_epoch_acks, 0);
        assert!(r.ownership_consistent);
        assert_eq!(r.recoveries.len(), 1);
        assert!(
            r.availability() >= 0.99,
            "availability {} below bound",
            r.availability()
        );
        assert!(
            r.divergent_slices > 0,
            "the crashed replica must diverge and be found"
        );
        assert!(r.repair_bytes > 0, "divergence must be read-repaired");
    }

    #[test]
    fn migration_completes_fault_free() {
        let mut p = smoke_params();
        p.replication = ReplicationParams {
            n_slices: 8,
            replicas: 1,
        };
        p.migration = Some(MigrationPlan::drain(0, 2, 200_000));
        let r = run(p).expect("run");
        let m = r.migration.expect("migration report");
        assert!(r.migration_done, "drain must finish");
        assert_eq!(m.slices_moved, 2, "shard 0 owned slices 0 and 4");
        assert_eq!(m.slices_aborted, 0);
        assert!(m.records_copied > 0);
        assert!(m.control_records >= 2 * 4, "4 control records per slice");
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.lost_acked, 0);
        assert_eq!(r.stale_epoch_acks, 0);
        assert!(r.ownership_consistent);
        assert!(r.epoch > 1, "each flip bumps the epoch");
    }

    #[test]
    fn migration_source_crash_mid_copy_resumes() {
        let mut p = smoke_params();
        p.replication = ReplicationParams {
            n_slices: 8,
            replicas: 1,
        };
        p.migration = Some(MigrationPlan::drain(0, 2, 200_000));
        p.fault = ClusterFaultPlan::migration_fail_with_flap(
            MigrationPhase::Copy,
            MigrationFailTarget::Source,
            200_000,
            100_000,
        );
        let r = run(p).expect("run");
        let m = r.migration.expect("migration report");
        assert!(r.migration_done);
        assert!(m.copies_resumed >= 1, "source crash restarts the copy");
        assert_eq!(m.slices_moved, 2, "resume still drains both slices");
        assert_eq!(m.slices_aborted, 0);
        assert!(!r.recoveries.is_empty());
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.lost_acked, 0);
        assert_eq!(r.stale_epoch_acks, 0);
        assert!(r.ownership_consistent);
    }

    #[test]
    fn migration_dest_crash_mid_copy_aborts_cleanly() {
        let mut p = smoke_params();
        p.replication = ReplicationParams {
            n_slices: 8,
            replicas: 1,
        };
        p.migration = Some(MigrationPlan::drain(0, 2, 200_000));
        p.fault = ClusterFaultPlan::migration_fail_with_flap(
            MigrationPhase::Copy,
            MigrationFailTarget::Dest,
            200_000,
            100_000,
        );
        let r = run(p).expect("run");
        let m = r.migration.expect("migration report");
        assert!(r.migration_done);
        assert_eq!(m.slices_aborted, 1, "in-flight slice aborts");
        assert_eq!(m.slices_moved, 1, "the other slice still drains");
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.lost_acked, 0);
        assert_eq!(r.stale_epoch_acks, 0);
        assert!(r.ownership_consistent, "aborted slice stays with source");
    }

    #[test]
    fn torn_flip_commits_from_the_durable_log() {
        let mut p = smoke_params();
        p.replication = ReplicationParams {
            n_slices: 8,
            replicas: 1,
        };
        p.migration = Some(MigrationPlan::drain(0, 2, 200_000));
        p.fault = ClusterFaultPlan::migration_fail_with_flap(
            MigrationPhase::Flip,
            MigrationFailTarget::Both,
            200_000,
            100_000,
        );
        let r = run(p).expect("run");
        let m = r.migration.expect("migration report");
        assert!(r.migration_done);
        assert_eq!(
            m.flips_recovered, 1,
            "the torn flip must commit via FlipAcquire"
        );
        assert_eq!(m.slices_moved, 2);
        assert_eq!(m.slices_aborted, 0);
        assert_eq!(r.recoveries.len(), 2, "both participants crashed");
        assert_eq!(r.unanswered, 0);
        assert_eq!(r.lost_acked, 0);
        assert_eq!(r.stale_epoch_acks, 0);
        assert!(r.ownership_consistent);
    }

    #[test]
    fn duplicate_deliveries_are_deduped_not_double_applied() {
        let mut p = smoke_params();
        p.client.read_frac = 0.3; // put-heavy so retries redeliver puts
        p.net.drop_prob = 0.20; // drop replies: shard applied, client retries
        let r = run(p).expect("run");
        assert!(
            r.dedup_hits > 0,
            "dropped acks must cause deduped redeliveries"
        );
        assert_eq!(
            r.duplicate_applies, 0,
            "no req-id may appear twice in any log"
        );
        assert_eq!(r.lost_acked, 0);
        assert_eq!(r.unanswered, 0);
    }
}
