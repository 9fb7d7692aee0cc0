//! One cluster shard: a [`Machine`] running a PM append-only KV log.
//!
//! Records are one cacheline each and land durably via the ADR recipe —
//! `store_full_cacheline` + `clwb` + `sfence` — *before* the reply is
//! sent. That ordering is the whole correctness story: a reply implies
//! the record is inside the ADR domain, so it is in the certain
//! (`persistent`) part of any [`CrashImage`] captured afterwards and
//! survives every legal survivor subset of the uncertain overlay.
//! Recovery replays the log prefix; acknowledged records are by
//! construction inside that prefix, so zero acked-write loss holds for
//! any seeded fault schedule (the failover proptest checks exactly
//! this).
//!
//! Two record kinds share the log:
//!
//! - **data** records (`magic, seq, key, value, req_id, csum`) carry KV
//!   writes. `req_id` keys the idempotency window: a retried or hedged
//!   put that was already applied returns the original ack instead of
//!   double-appending, and replay rebuilds the window from the log.
//! - **control** records (`magic, seq, code, slice, epoch, csum`) are
//!   the migration state machine's persisted phase transitions
//!   ([`ControlKind`]). Replay re-applies them in log order, so
//!   keyslice ownership — which slices this shard may serve, and at
//!   which epoch it acquired or retired them — survives power failure
//!   exactly as the protocol left it.
//!
//! Every serve is fenced by [`RouteMeta`]: a request for a slice this
//! shard does not own, or carrying an epoch older than the slice's
//! acquisition epoch, is rejected with [`ShardError::StaleEpoch`] —
//! never served, never acked.

use std::collections::{BTreeMap, VecDeque};

use cpucache::PrefetchConfig;
use optane_core::{CrashPolicy, Generation, ImcQueueStats, Machine, MachineConfig, ThreadId};
use simbase::{Addr, SplitMix64};

use crate::migrate::ControlKind;
use crate::replica::{fnv1a, SliceId, FNV_OFFSET};

/// Data-record magic: distinguishes written slots from virgin PM.
const RECORD_MAGIC: u64 = 0x504d_4c4f_4752_4543; // "PMLOGREC"

/// Control-record magic (migration phase transitions).
const CTRL_MAGIC: u64 = 0x504d_4c4f_4743_5452; // "PMLOGCTR"

/// Bytes per log record (one cacheline).
pub const RECORD_BYTES: u64 = 64;

/// Req-ids remembered by the idempotency window.
pub const DEDUP_WINDOW: usize = 4_096;

/// Cycles charged for an index lookup that misses (DRAM hash probe).
const INDEX_MISS_COST: u64 = 120;

/// Cycles charged for rejecting a stale-epoch request (fence check).
const FENCE_REJECT_COST: u64 = 80;

/// Operations a shard serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOp {
    Get { key: u64 },
    Put { key: u64, value: u64 },
}

impl ShardOp {
    pub fn key(&self) -> u64 {
        match *self {
            ShardOp::Get { key } | ShardOp::Put { key, .. } => key,
        }
    }

    pub fn is_put(&self) -> bool {
        matches!(self, ShardOp::Put { .. })
    }
}

/// Routing metadata fencing one serve: which slice the router thinks
/// the key is in, at which table epoch the attempt was launched, and
/// the request's idempotency key (`0` = not deduplicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteMeta {
    pub slice: SliceId,
    pub epoch: u64,
    pub req_id: u64,
}

impl RouteMeta {
    /// Preload/bootstrap meta: bypasses epoch fencing and dedup.
    pub fn bootstrap(slice: SliceId) -> Self {
        RouteMeta {
            slice,
            epoch: u64::MAX,
            req_id: 0,
        }
    }
}

/// Successful replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardReply {
    /// Get result (`None` = key absent).
    Value(Option<u64>),
    /// Put acknowledged: the record at log slot `seq` is durable.
    Acked { seq: u64 },
}

/// Typed shard-side errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The append log is out of slots.
    LogFull,
    /// Checkpoint/restore round-trip failed during recovery.
    SnapshotRoundTrip,
    /// Epoch fence: this shard does not own the slice at the request's
    /// epoch (never owned it, retired it, or acquired it at a newer
    /// epoch than the request carries). `owned_epoch` is 0 when the
    /// slice is not owned at all.
    StaleEpoch { slice: SliceId, owned_epoch: u64 },
}

/// Static shard parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    pub id: usize,
    pub gen: Generation,
    /// Log capacity in 64 B record slots.
    pub log_slots: u64,
    /// Keyslice modulus (`slice = key % n_slices`).
    pub n_slices: usize,
    /// Per-shard seed, XORed into the machine's `crash_seed`.
    pub seed: u64,
}

/// What one crash-and-recover cycle did.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOutcome {
    /// Valid log records replayed (data + control).
    pub replayed: u64,
    /// Appended-but-unacknowledged tail records lost to the crash.
    pub lost_tail: u64,
    /// Uncertain cachelines in the crash image (size of the survivor set).
    pub uncertain_lines: u64,
    /// Simulated cycles spent replaying the log on the recovered machine.
    pub replay_cycles: u64,
}

/// One decoded log slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord {
    Data {
        seq: u64,
        key: u64,
        value: u64,
        req_id: u64,
    },
    Control {
        seq: u64,
        kind: ControlKind,
        slice: SliceId,
        epoch: u64,
    },
}

/// A shard server: machine + append log + volatile index + ownership.
pub struct ShardServer {
    m: Machine,
    tid: ThreadId,
    cfg: ShardConfig,
    log_base: Addr,
    /// Next log slot to append into.
    next_seq: u64,
    /// Volatile index: key -> (value, log slot of the winning record).
    /// Last-writer-wins on the globally monotone value, so replay and
    /// re-copies converge regardless of delivery order.
    index: BTreeMap<u64, (u64, u64)>,
    /// Idempotency window: req_id -> log slot of the original apply.
    dedup: BTreeMap<u64, u64>,
    dedup_fifo: VecDeque<u64>,
    /// Slices this shard currently owns -> epoch acquired.
    owned: BTreeMap<SliceId, u64>,
    /// Slices this shard retired via a durable `FlipRetire` -> epoch.
    retired: BTreeMap<SliceId, u64>,
    /// `FlipAcquire` records persisted here (dest side) -> epoch.
    flips: BTreeMap<SliceId, u64>,
    /// Ownership baseline for log replay (slices granted at epoch 1).
    initial_owned: Vec<SliceId>,
    /// Lifetime count of crash/recover cycles.
    pub recoveries: u64,
    /// Puts answered from the idempotency window (no double-apply).
    pub dedup_hits: u64,
}

fn record_csum(tag: u64, a: u64, b: u64, c: u64, d: u64) -> u64 {
    // SplitMix64 finalizer over the folded fields: cheap, deterministic,
    // and any single-field corruption flips the checksum.
    let mut z = tag ^ a.rotate_left(17) ^ b.rotate_left(31) ^ c.rotate_left(43) ^ d;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn encode_fields(magic: u64, a: u64, b: u64, c: u64, d: u64) -> [u8; 64] {
    let mut line = [0u8; 64];
    line[0..8].copy_from_slice(&magic.to_le_bytes());
    line[8..16].copy_from_slice(&a.to_le_bytes());
    line[16..24].copy_from_slice(&b.to_le_bytes());
    line[24..32].copy_from_slice(&c.to_le_bytes());
    line[32..40].copy_from_slice(&d.to_le_bytes());
    line[40..48].copy_from_slice(&record_csum(magic, a, b, c, d).to_le_bytes());
    line
}

fn u64_at(line: &[u8; 64], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&line[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Decodes a log slot; `None` if the slot is virgin or corrupt.
pub fn decode_slot(line: &[u8; 64]) -> Option<LogRecord> {
    let magic = u64_at(line, 0);
    if magic != RECORD_MAGIC && magic != CTRL_MAGIC {
        return None;
    }
    let (a, b, c, d) = (
        u64_at(line, 8),
        u64_at(line, 16),
        u64_at(line, 24),
        u64_at(line, 32),
    );
    if u64_at(line, 40) != record_csum(magic, a, b, c, d) {
        return None;
    }
    if magic == RECORD_MAGIC {
        Some(LogRecord::Data {
            seq: a,
            key: b,
            value: c,
            req_id: d,
        })
    } else {
        Some(LogRecord::Control {
            seq: a,
            kind: ControlKind::from_code(b)?,
            slice: c as SliceId,
            epoch: d,
        })
    }
}

impl ShardServer {
    pub fn new(cfg: ShardConfig) -> Self {
        let mut mcfg = MachineConfig::for_generation(cfg.gen, PrefetchConfig::none(), 1);
        mcfg.crash_seed ^= cfg.seed;
        let mut m = Machine::new(mcfg);
        let tid = m.spawn(0);
        let log_base = m.alloc_pm(cfg.log_slots * RECORD_BYTES, RECORD_BYTES);
        ShardServer {
            m,
            tid,
            cfg,
            log_base,
            next_seq: 0,
            index: BTreeMap::new(),
            dedup: BTreeMap::new(),
            dedup_fifo: VecDeque::new(),
            owned: BTreeMap::new(),
            retired: BTreeMap::new(),
            flips: BTreeMap::new(),
            initial_owned: Vec::new(),
            recoveries: 0,
            dedup_hits: 0,
        }
    }

    pub fn id(&self) -> usize {
        self.cfg.id
    }

    pub fn generation(&self) -> Generation {
        self.cfg.gen
    }

    /// Grant the initial slice set (epoch 1). This baseline is what log
    /// replay starts from before re-applying control records.
    pub fn set_owned(&mut self, slices: &[SliceId]) {
        self.initial_owned = slices.to_vec();
        self.owned = slices.iter().map(|&s| (s, 1)).collect();
    }

    pub fn owns(&self, slice: SliceId) -> bool {
        self.owned.contains_key(&slice)
    }

    /// Epoch at which `slice` was acquired (None = not owned).
    pub fn owned_epoch(&self, slice: SliceId) -> Option<u64> {
        self.owned.get(&slice).copied()
    }

    /// A durable `FlipRetire` exists: the slice was handed off cleanly
    /// (every record this shard ever served for it was copied first).
    pub fn retired_cleanly(&self, slice: SliceId) -> bool {
        self.retired.contains_key(&slice)
    }

    /// A durable `FlipAcquire` exists for `slice` on this shard (dest
    /// side) — the migration commit point the crash resolution queries.
    pub fn has_flip(&self, slice: SliceId) -> bool {
        self.flips.contains_key(&slice)
    }

    fn slice_of(&self, key: u64) -> SliceId {
        (key % self.cfg.n_slices.max(1) as u64) as SliceId
    }

    /// Aggregated iMC queue occupancy for fleet metrics.
    pub fn queue_stats(&self) -> ImcQueueStats {
        self.m.metrics().queue_total()
    }

    /// Appended records so far (next log slot).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn slot_addr(&self, seq: u64) -> Addr {
        Addr(self.log_base.0 + seq * RECORD_BYTES)
    }

    fn remember_req(&mut self, req_id: u64, seq: u64) {
        if req_id == 0 {
            return;
        }
        if self.dedup.insert(req_id, seq).is_none() {
            self.dedup_fifo.push_back(req_id);
            while self.dedup.len() > DEDUP_WINDOW {
                if let Some(old) = self.dedup_fifo.pop_front() {
                    self.dedup.remove(&old);
                } else {
                    break;
                }
            }
        }
    }

    /// Last-writer-wins index insert: values are globally monotone, so
    /// the larger value is always the newer write.
    fn index_lww(&mut self, key: u64, value: u64, seq: u64) {
        match self.index.get(&key) {
            Some(&(v, _)) if v >= value => {}
            _ => {
                self.index.insert(key, (value, seq));
            }
        }
    }

    /// Durable append via the ADR recipe. The reply is only built after
    /// the fence retires, so ack implies durable.
    fn append_line(&mut self, line: &[u8; 64]) -> Result<u64, ShardError> {
        if self.next_seq >= self.cfg.log_slots {
            return Err(ShardError::LogFull);
        }
        let seq = self.next_seq;
        let addr = self.slot_addr(seq);
        self.m.store_full_cacheline(self.tid, addr, line);
        self.m.clwb(self.tid, addr);
        self.m.sfence(self.tid);
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Serve one operation to completion on the shard's machine.
    /// Returns the reply and the simulated service cycles consumed.
    pub fn serve(&mut self, op: ShardOp, meta: RouteMeta) -> (Result<ShardReply, ShardError>, u64) {
        let t0 = self.m.now(self.tid);
        let reply = self.serve_inner(op, meta);
        let cycles = self.m.now(self.tid).saturating_sub(t0);
        (reply, cycles)
    }

    fn serve_inner(&mut self, op: ShardOp, meta: RouteMeta) -> Result<ShardReply, ShardError> {
        // Epoch fence first: an un-owned slice, or a request launched
        // against a view older than this shard's acquisition of the
        // slice, is rejected — a retired owner can never ack.
        match self.owned.get(&meta.slice).copied() {
            None => {
                self.m.advance(self.tid, FENCE_REJECT_COST);
                return Err(ShardError::StaleEpoch {
                    slice: meta.slice,
                    owned_epoch: 0,
                });
            }
            Some(acq) if meta.epoch < acq => {
                self.m.advance(self.tid, FENCE_REJECT_COST);
                return Err(ShardError::StaleEpoch {
                    slice: meta.slice,
                    owned_epoch: acq,
                });
            }
            Some(_) => {}
        }
        match op {
            ShardOp::Get { key } => match self.index.get(&key).copied() {
                Some((value, seq)) => {
                    // Charge the PM read of the record's cacheline:
                    // the load path is where G1/G2 buffering differs.
                    let mut buf = [0u8; 64];
                    let addr = self.slot_addr(seq);
                    self.m.load(self.tid, addr, &mut buf);
                    Ok(ShardReply::Value(Some(value)))
                }
                None => {
                    self.m.advance(self.tid, INDEX_MISS_COST);
                    Ok(ShardReply::Value(None))
                }
            },
            ShardOp::Put { key, value } => {
                if meta.req_id != 0 {
                    if let Some(&seq) = self.dedup.get(&meta.req_id) {
                        // Duplicate delivery of an already-applied put:
                        // return the original ack, no second append.
                        self.dedup_hits += 1;
                        self.m.advance(self.tid, INDEX_MISS_COST);
                        return Ok(ShardReply::Acked { seq });
                    }
                }
                let line = encode_fields(RECORD_MAGIC, self.next_seq, key, value, meta.req_id);
                let seq = self.append_line(&line)?;
                self.index_lww(key, value, seq);
                self.remember_req(meta.req_id, seq);
                Ok(ShardReply::Acked { seq })
            }
        }
    }

    /// Append a record without going through the network path — bulk
    /// preload before traffic starts. Bypasses epoch fencing.
    pub fn preload(&mut self, key: u64, value: u64) -> Result<(), ShardError> {
        let meta = RouteMeta::bootstrap(self.slice_of(key));
        match self.serve(ShardOp::Put { key, value }, meta).0 {
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Migration ingest (destination side): apply a copied record
    /// idempotently. Returns whether a record was actually appended and
    /// the machine cycles consumed. A record the index already covers
    /// (same or newer value) or whose req-id is in the dedup window is
    /// skipped — re-copies after a crash can never double-apply.
    pub fn ingest(&mut self, key: u64, value: u64, req_id: u64) -> (Result<bool, ShardError>, u64) {
        let t0 = self.m.now(self.tid);
        let applied = (|| {
            if let Some(&(v, _)) = self.index.get(&key) {
                if v >= value {
                    self.m.advance(self.tid, INDEX_MISS_COST);
                    return Ok(false);
                }
            }
            if req_id != 0 && self.dedup.contains_key(&req_id) {
                self.m.advance(self.tid, INDEX_MISS_COST);
                return Ok(false);
            }
            let line = encode_fields(RECORD_MAGIC, self.next_seq, key, value, req_id);
            let seq = self.append_line(&line)?;
            self.index_lww(key, value, seq);
            self.remember_req(req_id, seq);
            Ok(true)
        })();
        let cycles = self.m.now(self.tid).saturating_sub(t0);
        (applied, cycles)
    }

    /// Read and decode one log slot, charging the PM load (the copy
    /// stream competes with foreground traffic for the media).
    pub fn scan_slot(&mut self, slot: u64) -> (Option<LogRecord>, u64) {
        let t0 = self.m.now(self.tid);
        let mut buf = [0u8; 64];
        let addr = self.slot_addr(slot);
        self.m.load(self.tid, addr, &mut buf);
        let cycles = self.m.now(self.tid).saturating_sub(t0);
        (decode_slot(&buf), cycles)
    }

    /// Persist a migration control record (ADR recipe) and apply its
    /// ownership effect. Returns the cycles consumed.
    pub fn append_control(
        &mut self,
        kind: ControlKind,
        slice: SliceId,
        epoch: u64,
    ) -> (Result<u64, ShardError>, u64) {
        let t0 = self.m.now(self.tid);
        let line = encode_fields(CTRL_MAGIC, self.next_seq, kind.code(), slice as u64, epoch);
        let res = self.append_line(&line);
        if res.is_ok() {
            self.apply_control(kind, slice, epoch);
        }
        let cycles = self.m.now(self.tid).saturating_sub(t0);
        (res, cycles)
    }

    /// Ownership effect of a control record (used at append and replay).
    fn apply_control(&mut self, kind: ControlKind, slice: SliceId, epoch: u64) {
        match kind {
            ControlKind::Prepare | ControlKind::CatchUp | ControlKind::Abort => {}
            ControlKind::FlipAcquire => {
                self.owned.insert(slice, epoch);
                self.flips.insert(slice, epoch);
            }
            ControlKind::FlipRetire => {
                self.owned.remove(&slice);
                self.retired.insert(slice, epoch);
            }
            ControlKind::Retire => {
                let n = self.cfg.n_slices.max(1) as u64;
                self.index.retain(|k, _| (k % n) as SliceId != slice);
            }
        }
    }

    /// Per-slice FNV chain checksum over the index (sorted key order),
    /// the anti-entropy comparison unit. Pure — no simulated time.
    pub fn slice_checksum(&self, slice: SliceId) -> u64 {
        let n = self.cfg.n_slices.max(1) as u64;
        let mut h = FNV_OFFSET;
        for (k, &(v, _)) in &self.index {
            if (k % n) as SliceId == slice {
                h = fnv1a(h, &k.to_le_bytes());
                h = fnv1a(h, &v.to_le_bytes());
            }
        }
        h
    }

    /// Key/value pairs of one slice (read-repair source; oracle use).
    pub fn slice_entries(&self, slice: SliceId) -> Vec<(u64, u64)> {
        let n = self.cfg.n_slices.max(1) as u64;
        self.index
            .iter()
            .filter(|(k, _)| (*k % n) as SliceId == slice)
            .map(|(&k, &(v, _))| (k, v))
            .collect()
    }

    /// Count data records sharing a nonzero req-id (idempotency-oracle
    /// use: must be zero — the dedup window forbids double-applies).
    pub fn duplicate_req_ids(&self) -> u64 {
        let mut seen = BTreeMap::new();
        let mut dups = 0;
        for slot in 0..self.next_seq {
            let mut buf = [0u8; 64];
            self.m.peek(self.slot_addr(slot), &mut buf);
            if let Some(LogRecord::Data { req_id, .. }) = decode_slot(&buf) {
                if req_id != 0 && seen.insert(req_id, slot).is_some() {
                    dups += 1;
                }
            }
        }
        dups
    }

    /// Power-fail this shard and drive full recovery:
    ///
    /// 1. capture the crash image (certain bytes + uncertain overlay),
    /// 2. power-fail the old machine (trace visibility for the witness),
    /// 3. draw a survivor subset of the uncertain lines from the seeded
    ///    RNG (`survivor_bias` = per-line survival probability),
    /// 4. materialize the post-crash machine via `from_crash_image`,
    /// 5. replay the log prefix — data records rebuild the index (LWW)
    ///    and the dedup window, control records rebuild slice ownership
    ///    in log order — stopping at the first virgin/corrupt slot,
    /// 6. round-trip through `checkpoint`/`restore` (the harness resume
    ///    path) so a recovered shard is indistinguishable from a resumed
    ///    one.
    pub fn crash_and_recover(
        &mut self,
        survivor_seed: u64,
        survivor_bias: f64,
    ) -> Result<RecoveryOutcome, ShardError> {
        let image = self.m.capture_crash_image();
        self.m.power_fail(CrashPolicy::LoseUnflushed);

        let mut rng = SplitMix64::new(survivor_seed ^ 0x7375_7276_6976_6f72);
        let survivors: Vec<bool> = image
            .uncertain
            .iter()
            .map(|_| rng.gen_bool(survivor_bias.clamp(0.0, 1.0)))
            .collect();
        let mut m2 = Machine::from_crash_image(&image, &survivors);
        let tid2 = m2.spawn(0);

        // Reset volatile state to the replay baseline.
        self.index = BTreeMap::new();
        self.dedup = BTreeMap::new();
        self.dedup_fifo = VecDeque::new();
        self.owned = self.initial_owned.iter().map(|&s| (s, 1)).collect();
        self.retired = BTreeMap::new();
        self.flips = BTreeMap::new();

        // Replay: scan log slots from 0, apply records in order, stop at
        // the first slot that fails to decode or breaks the seq chain.
        let mut replayed = 0u64;
        let replay_t0 = m2.now(tid2);
        while replayed < self.cfg.log_slots {
            let mut buf = [0u8; 64];
            let addr = Addr(self.log_base.0 + replayed * RECORD_BYTES);
            m2.load(tid2, addr, &mut buf);
            match decode_slot(&buf) {
                Some(LogRecord::Data {
                    seq,
                    key,
                    value,
                    req_id,
                }) if seq == replayed => {
                    self.index_lww(key, value, seq);
                    self.remember_req(req_id, seq);
                    replayed += 1;
                }
                Some(LogRecord::Control {
                    seq,
                    kind,
                    slice,
                    epoch,
                }) if seq == replayed => {
                    self.apply_control(kind, slice, epoch);
                    replayed += 1;
                }
                _ => break,
            }
        }
        let replay_cycles = m2.now(tid2).saturating_sub(replay_t0);

        // Harness-path round trip: a recovered shard must be resumable.
        let snap = m2.checkpoint();
        let mcfg = m2.config().clone();
        let m3 = match Machine::restore(mcfg, &snap) {
            Ok(m) => m,
            Err(_) => return Err(ShardError::SnapshotRoundTrip),
        };

        let lost_tail = self.next_seq.saturating_sub(replayed);
        let outcome = RecoveryOutcome {
            replayed,
            lost_tail,
            uncertain_lines: image.uncertain.len() as u64,
            replay_cycles,
        };
        self.tid = tid2;
        self.m = m3;
        self.next_seq = replayed;
        self.recoveries += 1;
        Ok(outcome)
    }

    /// Post-mortem check used by the acked-write-loss oracle: is the
    /// data record for (`seq`, `key`, `value`) intact in the log?
    pub fn verify_record(&self, seq: u64, key: u64, value: u64) -> bool {
        let mut buf = [0u8; 64];
        self.m.peek(self.slot_addr(seq), &mut buf);
        matches!(
            decode_slot(&buf),
            Some(LogRecord::Data {
                seq: s,
                key: k,
                value: v,
                ..
            }) if s == seq && k == key && v == value
        )
    }

    /// Index lookup without charging simulated time (oracle use).
    pub fn peek_value(&self, key: u64) -> Option<u64> {
        self.index.get(&key).map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_with(n_slices: usize, owned: &[SliceId]) -> ShardServer {
        let mut s = ShardServer::new(ShardConfig {
            id: 0,
            gen: Generation::G2,
            log_slots: 1024,
            n_slices,
            seed: 42,
        });
        s.set_owned(owned);
        s
    }

    fn shard() -> ShardServer {
        shard_with(1, &[0])
    }

    fn meta(req_id: u64) -> RouteMeta {
        RouteMeta {
            slice: 0,
            epoch: 1,
            req_id,
        }
    }

    #[test]
    fn put_then_get_round_trips() {
        let mut s = shard();
        let (r, c) = s.serve(ShardOp::Put { key: 7, value: 99 }, meta(1));
        assert_eq!(r, Ok(ShardReply::Acked { seq: 0 }));
        assert!(c > 0, "puts must cost simulated time");
        let (r, _) = s.serve(ShardOp::Get { key: 7 }, meta(0));
        assert_eq!(r, Ok(ShardReply::Value(Some(99))));
        let (r, _) = s.serve(ShardOp::Get { key: 8 }, meta(0));
        assert_eq!(r, Ok(ShardReply::Value(None)));
    }

    #[test]
    fn log_full_is_typed() {
        let mut s = ShardServer::new(ShardConfig {
            id: 0,
            gen: Generation::G1,
            log_slots: 2,
            n_slices: 1,
            seed: 1,
        });
        s.set_owned(&[0]);
        assert!(s
            .serve(ShardOp::Put { key: 1, value: 1 }, meta(1))
            .0
            .is_ok());
        assert!(s
            .serve(ShardOp::Put { key: 2, value: 2 }, meta(2))
            .0
            .is_ok());
        assert_eq!(
            s.serve(ShardOp::Put { key: 3, value: 3 }, meta(3)).0,
            Err(ShardError::LogFull)
        );
    }

    #[test]
    fn stale_epoch_is_fenced() {
        let mut s = shard_with(4, &[0, 1]);
        // Un-owned slice: rejected outright.
        let (r, c) = s.serve(
            ShardOp::Get { key: 2 },
            RouteMeta {
                slice: 2,
                epoch: 9,
                req_id: 0,
            },
        );
        assert_eq!(
            r,
            Err(ShardError::StaleEpoch {
                slice: 2,
                owned_epoch: 0
            })
        );
        assert!(c > 0, "fence rejection costs time");
        // Slice acquired at epoch 5 via FlipAcquire: older epochs fenced.
        let (r, _) = s.append_control(ControlKind::FlipAcquire, 2, 5);
        assert!(r.is_ok());
        let (r, _) = s.serve(
            ShardOp::Get { key: 2 },
            RouteMeta {
                slice: 2,
                epoch: 4,
                req_id: 0,
            },
        );
        assert_eq!(
            r,
            Err(ShardError::StaleEpoch {
                slice: 2,
                owned_epoch: 5
            })
        );
        let (r, _) = s.serve(
            ShardOp::Get { key: 2 },
            RouteMeta {
                slice: 2,
                epoch: 5,
                req_id: 0,
            },
        );
        assert_eq!(r, Ok(ShardReply::Value(None)));
    }

    #[test]
    fn duplicate_put_is_deduped() {
        let mut s = shard();
        let (r1, _) = s.serve(ShardOp::Put { key: 5, value: 50 }, meta(77));
        let (r2, _) = s.serve(ShardOp::Put { key: 5, value: 50 }, meta(77));
        assert_eq!(r1, Ok(ShardReply::Acked { seq: 0 }));
        assert_eq!(
            r2,
            Ok(ShardReply::Acked { seq: 0 }),
            "same ack, not re-applied"
        );
        assert_eq!(s.next_seq(), 1, "no second record appended");
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.duplicate_req_ids(), 0);
    }

    #[test]
    fn ingest_is_idempotent_and_lww() {
        let mut s = shard();
        let (r, _) = s.ingest(9, 30, 100);
        assert_eq!(r, Ok(true));
        // Same record again: skipped (index already has >= value).
        let (r, _) = s.ingest(9, 30, 100);
        assert_eq!(r, Ok(false));
        // Older value: skipped.
        let (r, _) = s.ingest(9, 20, 101);
        assert_eq!(r, Ok(false));
        // Newer value: applied.
        let (r, _) = s.ingest(9, 40, 102);
        assert_eq!(r, Ok(true));
        assert_eq!(s.peek_value(9), Some(40));
        assert_eq!(s.next_seq(), 2);
    }

    #[test]
    fn retire_drops_slice_and_replay_keeps_it_dropped() {
        let mut s = shard_with(2, &[0, 1]);
        let m0 = |req| RouteMeta {
            slice: 0,
            epoch: 1,
            req_id: req,
        };
        let m1 = |req| RouteMeta {
            slice: 1,
            epoch: 1,
            req_id: req,
        };
        let _ = s.serve(ShardOp::Put { key: 2, value: 10 }, m0(1)); // slice 0
        let _ = s.serve(ShardOp::Put { key: 3, value: 11 }, m1(2)); // slice 1
        let (r, _) = s.append_control(ControlKind::FlipRetire, 0, 7);
        assert!(r.is_ok());
        let (r, _) = s.append_control(ControlKind::Retire, 0, 7);
        assert!(r.is_ok());
        assert!(!s.owns(0));
        assert!(s.retired_cleanly(0));
        assert_eq!(s.peek_value(2), None, "retired slice data dropped");
        assert_eq!(s.peek_value(3), Some(11));
        // Crash: replay must not resurrect the retired slice.
        let out = s.crash_and_recover(3, 0.5).expect("recovery");
        assert_eq!(out.lost_tail, 0);
        assert!(!s.owns(0), "replayed FlipRetire drops ownership");
        assert!(s.owns(1));
        assert_eq!(s.peek_value(2), None, "replayed Retire re-drops data");
        assert_eq!(s.peek_value(3), Some(11));
        // Post-recovery serves for the retired slice stay fenced.
        let (r, _) = s.serve(ShardOp::Get { key: 2 }, m0(0));
        assert!(matches!(r, Err(ShardError::StaleEpoch { .. })));
    }

    #[test]
    fn acked_records_survive_crash_and_recover() {
        let mut s = shard();
        let mut acked = Vec::new();
        for k in 0..50u64 {
            if let (Ok(ShardReply::Acked { seq }), _) = s.serve(
                ShardOp::Put {
                    key: k,
                    value: k * 3 + 1,
                },
                meta(k + 1),
            ) {
                acked.push((seq, k, k * 3 + 1));
            }
        }
        let out = s.crash_and_recover(77, 0.5).expect("recovery");
        assert_eq!(out.replayed, 50, "all acked records replay");
        assert_eq!(out.lost_tail, 0);
        for (seq, k, v) in acked {
            assert!(s.verify_record(seq, k, v), "acked record {seq} lost");
            assert_eq!(s.peek_value(k), Some(v), "index rebuilt for key {k}");
        }
        // Shard keeps serving after recovery; next seq continues the log.
        let (r, _) = s.serve(
            ShardOp::Put {
                key: 999,
                value: 1000,
            },
            meta(999),
        );
        assert_eq!(r, Ok(ShardReply::Acked { seq: 50 }));
    }

    #[test]
    fn dedup_window_survives_crash() {
        let mut s = shard();
        let _ = s.serve(ShardOp::Put { key: 1, value: 10 }, meta(55));
        let _ = s.crash_and_recover(9, 0.5).expect("recovery");
        // Redelivery of the pre-crash put: still deduped from replay.
        let (r, _) = s.serve(ShardOp::Put { key: 1, value: 10 }, meta(55));
        assert_eq!(r, Ok(ShardReply::Acked { seq: 0 }));
        assert_eq!(s.next_seq(), 1, "replayed dedup window blocks re-apply");
        assert_eq!(s.dedup_hits, 1);
    }

    #[test]
    fn slice_checksums_detect_divergence() {
        let mut a = shard_with(2, &[0, 1]);
        let mut b = shard_with(2, &[0, 1]);
        let m = |slice, req| RouteMeta {
            slice,
            epoch: 1,
            req_id: req,
        };
        let _ = a.serve(ShardOp::Put { key: 2, value: 5 }, m(0, 1));
        let _ = b.serve(ShardOp::Put { key: 2, value: 5 }, m(0, 1));
        assert_eq!(a.slice_checksum(0), b.slice_checksum(0));
        assert_eq!(
            a.slice_checksum(1),
            b.slice_checksum(1),
            "empty slices agree"
        );
        let _ = b.serve(ShardOp::Put { key: 4, value: 9 }, m(0, 2));
        assert_ne!(a.slice_checksum(0), b.slice_checksum(0));
        assert_eq!(
            b.slice_entries(0),
            vec![(2, 5), (4, 9)],
            "entries sorted by key"
        );
    }

    #[test]
    fn recovery_is_seed_deterministic() {
        let run = || {
            let mut s = shard();
            for k in 0..30u64 {
                let _ = s.serve(
                    ShardOp::Put {
                        key: k,
                        value: k + 1,
                    },
                    meta(k + 1),
                );
            }
            let out = s.crash_and_recover(5, 0.3).expect("recovery");
            (out.replayed, out.uncertain_lines, out.replay_cycles)
        };
        assert_eq!(run(), run());
    }
}
