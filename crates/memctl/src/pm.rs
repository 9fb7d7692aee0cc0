//! The persistent-memory side of the iMC: WPQ, interleaving, counters.

use simbase::{Addr, AddrMap, BandwidthGate, ByteCounter, Cycles, QueueStats, CACHELINE_BYTES};
use xpdimm::{DimmController, DimmParams, DimmStats, ReadSource};

/// Configuration of the PM channel: DIMM population, interleaving, WPQ.
#[derive(Debug, Clone)]
pub struct PmParams {
    /// Number of Optane DIMMs behind this controller.
    pub num_dimms: usize,
    /// Interleave granularity across DIMMs, in bytes (4096 in the paper's
    /// interleaved namespaces). Ignored with one DIMM.
    pub interleave_bytes: u64,
    /// Cycles between consecutive 64 B WPQ drains per DIMM (sets sustained
    /// per-DIMM write bandwidth).
    pub wpq_drain_interval: Cycles,
    /// WPQ depth per DIMM; acceptance stalls when full.
    pub wpq_capacity: usize,
    /// Cycles from WPQ acceptance until the written line is readable again
    /// (the read-after-persist window of Figure 7).
    pub persist_pipeline: Cycles,
    /// Cycles from WPQ acceptance until the write is visible in on-DIMM
    /// buffering — the shorter stall a merely `sfence`-ordered read pays.
    pub drain_visible: Cycles,
    /// Fixed iMC hop added to reads.
    pub read_queue_latency: Cycles,
    /// Latency of accepting one write into a non-full WPQ.
    pub write_accept_latency: Cycles,
    /// Per-DIMM configuration.
    pub dimm: DimmParams,
}

impl Default for PmParams {
    fn default() -> Self {
        PmParams {
            num_dimms: 1,
            interleave_bytes: 4096,
            wpq_drain_interval: 75,
            wpq_capacity: 64,
            persist_pipeline: 2300,
            drain_visible: 600,
            read_queue_latency: 30,
            write_accept_latency: 230,
            dimm: DimmParams::default(),
        }
    }
}

/// How strongly a PM read is ordered behind an in-flight persist to the
/// same cacheline.
///
/// The distinction reproduces the `mfence` vs `sfence` curves of Figure 7:
/// a read ordered by `mfence` observes the full persist pipeline, while a
/// read that is only `sfence`-separated from the flush stalls just until
/// the write drains from the WPQ into the on-DIMM buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistWait {
    /// Wait until the persisted line is fully readable (`readable_at`).
    Full,
    /// Wait only until the write has drained into on-DIMM buffering.
    Drain,
}

/// Timestamps of one accepted PM write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmWriteTicket {
    /// When the write entered the WPQ. Fences wait for this; the data is
    /// persistent (ADR) from this point.
    pub accept: Cycles,
    /// When the write is visible in the on-DIMM buffers (what a read that
    /// is only `sfence`-separated from the flush waits for).
    pub drained: Cycles,
    /// When a subsequent read of the same cacheline stops stalling.
    pub readable_at: Cycles,
}

/// Occupancy of one DIMM's iMC queues (the `ipmwatch` RPQ/WPQ view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImcQueueStats {
    /// Read pending queue. The model's RPQ is unbounded, so
    /// `stall_cycles` is always zero; `max_depth` still exposes read
    /// backlog pressure.
    pub rpq: QueueStats,
    /// Write pending queue (the ADR-protected WPQ). `stall_cycles` is the
    /// time writes waited for a free slot — the Figure 5 back-pressure.
    pub wpq: QueueStats,
}

impl ImcQueueStats {
    /// Folds another window of observations into this one.
    pub fn merge(&mut self, other: &ImcQueueStats) {
        self.rpq.merge(&other.rpq);
        self.wpq.merge(&other.wpq);
    }
}

/// Occupancy observer for the (unbounded) read pending queue.
///
/// The read path itself is a fixed-latency hop plus the DIMM's timing
/// model, so this tracker changes no behaviour: it only records how many
/// reads were in flight at each acceptance.
#[derive(Debug, Clone, Default)]
struct RpqTracker {
    /// Completion times of reads still in flight.
    in_flight: Vec<Cycles>,
    stats: QueueStats,
}

impl RpqTracker {
    /// Records a read entering at `now` and completing at `done`.
    fn observe(&mut self, now: Cycles, done: Cycles) {
        self.in_flight.retain(|&c| c > now);
        self.in_flight.push(done);
        self.stats.accepts += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.in_flight.len() as u64);
    }

    fn clear_queue(&mut self) {
        self.in_flight.clear();
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

/// The Optane channel of one socket's iMC.
#[derive(Debug)]
pub struct PmController {
    params: PmParams,
    dimms: Vec<DimmController>,
    wpq: Vec<BandwidthGate>,
    rpq: Vec<RpqTracker>,
    imc: Vec<ByteCounter>,
    /// Cacheline address -> `(drained, readable_at)` of the last accepted
    /// write. Probed by every read; an [`AddrMap`] keeps that O(1).
    inflight: AddrMap<(Cycles, Cycles)>,
}

impl PmController {
    /// Creates a controller with `params.num_dimms` DIMMs.
    ///
    /// # Panics
    ///
    /// Panics if the DIMM count is zero.
    pub fn new(params: PmParams) -> Self {
        assert!(params.num_dimms > 0, "need at least one DIMM");
        let dimms = (0..params.num_dimms)
            .map(|i| {
                let mut d = params.dimm.clone();
                d.seed ^= (i as u64) << 32;
                DimmController::new(d)
            })
            .collect();
        let wpq = (0..params.num_dimms)
            .map(|_| BandwidthGate::new(params.wpq_drain_interval, params.wpq_capacity))
            .collect();
        let rpq = vec![RpqTracker::default(); params.num_dimms];
        let imc = vec![ByteCounter::new(); params.num_dimms];
        PmController {
            params,
            dimms,
            wpq,
            rpq,
            imc,
            inflight: AddrMap::new(),
        }
    }

    /// Maps an address to its DIMM index under the interleaving scheme.
    pub fn dimm_of(&self, addr: Addr) -> usize {
        if self.params.num_dimms == 1 {
            0
        } else {
            ((addr.0 / self.params.interleave_bytes) % self.params.num_dimms as u64) as usize
        }
    }

    /// Reads the cacheline at `addr`.
    ///
    /// Returns the completion time and where the DIMM served it from. The
    /// read stalls behind any in-flight persist to the same cacheline
    /// (DDR-T orders a read after a pending write to the same address);
    /// `wait` selects how far into the persist pipeline the read must wait.
    pub fn read(&mut self, now: Cycles, addr: Addr, wait: PersistWait) -> (Cycles, ReadSource) {
        let d = self.dimm_of(addr);
        self.imc[d].add_read(CACHELINE_BYTES);
        let cl = addr.cacheline().0;
        let start = match self.inflight.get(cl) {
            Some(&(drained, readable)) => {
                let barrier = match wait {
                    PersistWait::Full => readable,
                    PersistWait::Drain => drained,
                };
                barrier.max(now)
            }
            None => now,
        };
        let result = self.dimms[d].read_cacheline(start + self.params.read_queue_latency, addr);
        self.rpq[d].observe(start, result.0);
        result
    }

    /// Accepts a 64 B write to `addr` (non-temporal store, cacheline
    /// write-back, or dirty eviction).
    pub fn write(&mut self, now: Cycles, addr: Addr) -> PmWriteTicket {
        let d = self.dimm_of(addr);
        self.imc[d].add_write(CACHELINE_BYTES);
        let (accept_raw, gate_drain) = self.wpq[d].accept(now);
        let accept = accept_raw + self.params.write_accept_latency;
        self.dimms[d].write_cacheline(gate_drain, addr);
        let drained = accept + self.params.drain_visible;
        let readable_at = accept + self.params.persist_pipeline;
        let cl = addr.cacheline().0;
        let entry = self.inflight.get_or_insert_with(cl, || (0, 0));
        entry.0 = entry.0.max(drained);
        entry.1 = entry.1.max(readable_at);
        PmWriteTicket {
            accept,
            drained,
            readable_at,
        }
    }

    /// Drops in-flight write records that completed before `horizon`.
    ///
    /// The caller must guarantee that every timestamp it will ever pass to
    /// [`PmController::read`], [`PmController::write`], or the fault
    /// surveys from here on is `>= horizon` (the machine layer uses the
    /// minimum over all thread clocks, which only advance). Under that
    /// contract a record with both `drained` and `readable_at <= horizon`
    /// behaves exactly like an absent one — reads take `max(barrier, now)
    /// = now`, write merges take the fresh (larger) timestamps, and
    /// `undrained_lines` filters it out — so collecting it cannot change
    /// any result. Amortized by [`AddrMap::collect`]'s watermark, so a
    /// long write phase holds only the records still in flight instead of
    /// one per line it ever wrote.
    pub fn gc_inflight(&mut self, horizon: Cycles) {
        self.inflight
            .collect(|_, &(drained, readable)| drained.max(readable) > horizon);
    }

    /// Number of in-flight write records currently held (what
    /// [`PmController::gc_inflight`] keeps bounded).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    // ----- fault-injection surveys and UE routing ---------------------

    /// Returns the cachelines accepted into a WPQ whose drain into the
    /// on-DIMM buffers has not completed by `now`, sorted by address. At a
    /// power failure these are the writes a WPQ partial-drain fault can
    /// interrupt mid-flight.
    pub fn undrained_lines(&self, now: Cycles) -> Vec<u64> {
        self.inflight
            .sorted_entries()
            .into_iter()
            .filter(|&(_, &(drained, _))| drained > now)
            .map(|(cl, _)| cl)
            .collect()
    }

    /// Returns the XPLines resident in the on-DIMM write-combining
    /// buffers across all DIMMs, sorted by address.
    pub fn buffered_xplines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self
            .dimms
            .iter()
            .flat_map(|d| d.resident_write_xplines())
            .map(|a| a.0)
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Marks the cacheline containing `addr` as an uncorrectable error on
    /// its DIMM.
    pub fn poison_line(&mut self, addr: Addr) {
        let d = self.dimm_of(addr);
        self.dimms[d].poison_line(addr);
    }

    /// Returns `true` if the cacheline containing `addr` is poisoned.
    pub fn line_poisoned(&self, addr: Addr) -> bool {
        self.dimms[self.dimm_of(addr)].line_poisoned(addr)
    }

    /// Returns all poisoned cacheline addresses across DIMMs, sorted.
    pub fn poisoned_lines(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self
            .dimms
            .iter()
            .flat_map(DimmController::poisoned_lines)
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Address-range scrub across all DIMMs: clears and returns the
    /// poisoned lines within `[start, start + len)`, sorted.
    pub fn scrub_range(&mut self, start: Addr, len: u64) -> Vec<u64> {
        let mut repaired: Vec<u64> = self
            .dimms
            .iter_mut()
            .flat_map(|d| d.scrub_range(start, len))
            .collect();
        repaired.sort_unstable();
        repaired
    }

    /// Returns the iMC-boundary counters summed over DIMMs (the `ipmwatch`
    /// "controller" view).
    pub fn imc_counters(&self) -> ByteCounter {
        let mut total = ByteCounter::new();
        for c in &self.imc {
            total.read += c.read;
            total.write += c.write;
        }
        total
    }

    /// Returns the media-boundary counters summed over DIMMs (the
    /// `ipmwatch` "media" view).
    pub fn media_counters(&self) -> ByteCounter {
        let mut total = ByteCounter::new();
        for d in &self.dimms {
            let c = d.media_counters();
            total.read += c.read;
            total.write += c.write;
        }
        total
    }

    /// Returns per-DIMM statistics.
    pub fn dimm_stats(&self) -> Vec<DimmStats> {
        self.dimms.iter().map(DimmController::stats).collect()
    }

    /// Returns per-DIMM RPQ/WPQ occupancy observations.
    pub fn queue_stats(&self) -> Vec<ImcQueueStats> {
        self.rpq
            .iter()
            .zip(&self.wpq)
            .map(|(r, w)| ImcQueueStats {
                rpq: r.stats,
                wpq: w.queue_stats(),
            })
            .collect()
    }

    /// Returns the number of DIMMs.
    pub fn num_dimms(&self) -> usize {
        self.dimms.len()
    }

    /// Returns the configured parameters.
    pub fn params(&self) -> &PmParams {
        &self.params
    }

    /// Power-failure handling: the WPQ and on-DIMM write buffers are inside
    /// the ADR domain, so their contents reach the media. Only timing state
    /// is cleared.
    pub fn power_fail_flush(&mut self, now: Cycles) {
        for d in &mut self.dimms {
            d.flush_all(now);
        }
        self.inflight.clear();
        for g in &mut self.wpq {
            g.clear_queue();
        }
        for r in &mut self.rpq {
            r.clear_queue();
        }
    }

    /// Resets traffic counters (between experiment phases), keeping buffer
    /// and AIT contents warm.
    pub fn reset_counters(&mut self) {
        for c in &mut self.imc {
            c.reset();
        }
        for d in &mut self.dimms {
            d.reset_counters();
        }
        for g in &mut self.wpq {
            g.reset_stats();
        }
        for r in &mut self.rpq {
            r.reset_stats();
        }
    }

    /// Cold-resets everything: counters, buffers, AIT, queues, in-flight
    /// persists.
    pub fn reset_all(&mut self) {
        for c in &mut self.imc {
            c.reset();
        }
        for d in &mut self.dimms {
            d.reset_all();
        }
        for g in &mut self.wpq {
            g.reset();
        }
        for r in &mut self.rpq {
            r.clear_queue();
            r.reset_stats();
        }
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::XPLINE_BYTES;

    fn pm(dimms: usize) -> PmController {
        PmController::new(PmParams {
            num_dimms: dimms,
            ..PmParams::default()
        })
    }

    #[test]
    fn interleaving_spreads_4k_blocks() {
        let c = pm(6);
        assert_eq!(c.dimm_of(Addr(0)), 0);
        assert_eq!(c.dimm_of(Addr(4095)), 0);
        assert_eq!(c.dimm_of(Addr(4096)), 1);
        assert_eq!(c.dimm_of(Addr(6 * 4096)), 0);
    }

    #[test]
    fn single_dimm_gets_everything() {
        let c = pm(1);
        assert_eq!(c.dimm_of(Addr(123_456_789)), 0);
    }

    #[test]
    fn imc_counts_cachelines_media_counts_xplines() {
        let mut c = pm(1);
        c.read(0, Addr(0), PersistWait::Full);
        assert_eq!(c.imc_counters().read, CACHELINE_BYTES);
        assert_eq!(c.media_counters().read, XPLINE_BYTES);
    }

    #[test]
    fn write_is_asynchronous() {
        let mut c = pm(1);
        let t = c.write(1000, Addr(0));
        // Acceptance is fast; buffer visibility and readability are later.
        assert_eq!(t.accept, 1000 + 230);
        assert_eq!(t.drained, t.accept + 600);
        assert_eq!(t.readable_at, t.accept + 2300);
    }

    #[test]
    fn read_after_persist_stalls() {
        let mut c = pm(1);
        let t = c.write(0, Addr(0));
        let (done, _) = c.read(t.accept, Addr(0), PersistWait::Full);
        assert!(
            done >= t.readable_at,
            "read right after the fence must wait out the persist"
        );
        // A read well after the persist window pays no stall.
        let (done2, _) = c.read(t.readable_at + 10_000, Addr(0), PersistWait::Full);
        assert!(done2 - (t.readable_at + 10_000) < 1000);
    }

    #[test]
    fn lagging_read_stalls_however_far_ahead_another_writer_runs() {
        // Thread clocks diverge: line 0 is persisted at cycle 0 while a
        // writer far ahead in simulated time fills the map with over a
        // million records. Only the machine's min-over-clocks horizon may
        // collect records, never a writer's own clock.
        let mut c = pm(2);
        let t = c.write(0, Addr(0));
        let ahead = 1 << 40;
        for i in 0..1u64 << 20 {
            // DIMM 1 only (4 KiB interleave), so DIMM 0 stays idle.
            let block = 2 * (i / 64) + 1;
            c.write(ahead, Addr(block * 4096 + (i % 64) * 64));
        }
        let (done, _) = c.read(1, Addr(0), PersistWait::Full);
        assert!(done >= t.readable_at, "read at {done} skipped the persist");
    }

    #[test]
    fn unrelated_reads_do_not_stall() {
        let mut c = pm(1);
        c.write(0, Addr(0));
        let (done, _) = c.read(100, Addr(1 << 20), PersistWait::Full);
        assert!(done < 2000, "different address: no persist stall");
    }

    #[test]
    fn wpq_backpressure_stalls_acceptance() {
        let mut c = PmController::new(PmParams {
            wpq_capacity: 2,
            wpq_drain_interval: 1000,
            ..PmParams::default()
        });
        let a = c.write(0, Addr(0));
        let b = c.write(0, Addr(256));
        let f = c.write(0, Addr(512)); // queue full: stalls
        assert_eq!(a.accept, 230);
        assert_eq!(b.accept, 230);
        assert!(f.accept > 1000, "third write waits for a drain slot");
    }

    #[test]
    fn writes_spread_across_dimms_avoid_backpressure() {
        let mk = |dimms: usize| {
            PmController::new(PmParams {
                num_dimms: dimms,
                wpq_capacity: 2,
                wpq_drain_interval: 1000,
                ..PmParams::default()
            })
        };
        let mut six = mk(6);
        let mut one = mk(1);
        // Six writes to different interleave units.
        let last_six = (0..6u64)
            .map(|i| six.write(0, Addr(i * 4096)).accept)
            .max()
            .unwrap();
        let last_one = (0..6u64)
            .map(|i| one.write(0, Addr(i * 64)).accept)
            .max()
            .unwrap();
        assert!(
            last_six < last_one,
            "interleaved DIMMs absorb bursts in parallel: {last_six} vs {last_one}"
        );
    }

    #[test]
    fn repeated_writes_extend_readability_window() {
        let mut c = pm(1);
        let t1 = c.write(0, Addr(0));
        let t2 = c.write(t1.accept, Addr(0));
        let (done, _) = c.read(t2.accept, Addr(0), PersistWait::Full);
        assert!(done >= t2.readable_at);
    }

    #[test]
    fn power_fail_flush_clears_queues() {
        let mut c = pm(1);
        for i in 0..10u64 {
            c.write(0, Addr(i * 64));
        }
        c.power_fail_flush(50_000);
        // After recovery, reads see no stale persist stalls.
        let (done, _) = c.read(50_000, Addr(0), PersistWait::Full);
        assert!(done < 52_500);
    }

    #[test]
    fn undrained_lines_tracks_inflight_writes() {
        let mut c = pm(1);
        let t = c.write(0, Addr(0));
        c.write(0, Addr(128));
        assert_eq!(c.undrained_lines(0), vec![0, 128]);
        // After the drain-visible window both writes have left the WPQ.
        assert!(c.undrained_lines(t.drained + 10_000).is_empty());
    }

    #[test]
    fn buffered_xplines_surveys_all_dimms() {
        let mut c = pm(2);
        c.write(0, Addr(0)); // DIMM 0
        c.write(0, Addr(4096)); // DIMM 1
        assert_eq!(c.buffered_xplines(), vec![0, 4096]);
    }

    #[test]
    fn poison_routes_through_interleaving() {
        let mut c = pm(2);
        c.poison_line(Addr(4096)); // lives on DIMM 1
        assert!(c.line_poisoned(Addr(4096)));
        assert!(!c.line_poisoned(Addr(0)));
        assert_eq!(c.poisoned_lines(), vec![4096]);
        let repaired = c.scrub_range(Addr(0), 1 << 20);
        assert_eq!(repaired, vec![4096]);
        assert!(!c.line_poisoned(Addr(4096)));
    }

    #[test]
    fn queue_stats_observe_wpq_backpressure_and_rpq_depth() {
        let mut c = PmController::new(PmParams {
            wpq_capacity: 2,
            wpq_drain_interval: 1000,
            ..PmParams::default()
        });
        c.write(0, Addr(0));
        c.write(0, Addr(256));
        c.write(0, Addr(512)); // queue full: stalls until t=1000
        let q = c.queue_stats();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].wpq.accepts, 3);
        assert_eq!(q[0].wpq.max_depth, 2);
        assert_eq!(q[0].wpq.stall_cycles, 1000);
        // Two overlapping reads at the same instant: RPQ depth reaches 2.
        c.read(0, Addr(1 << 20), PersistWait::Full);
        c.read(0, Addr(2 << 20), PersistWait::Full);
        let q = c.queue_stats();
        assert_eq!(q[0].rpq.accepts, 2);
        assert_eq!(q[0].rpq.max_depth, 2);
        assert_eq!(q[0].rpq.stall_cycles, 0, "the model's RPQ is unbounded");
        c.reset_counters();
        let q = c.queue_stats();
        assert_eq!(q[0], ImcQueueStats::default());
    }

    #[test]
    fn reset_counters_is_partial() {
        let mut c = pm(1);
        c.read(0, Addr(0), PersistWait::Full);
        c.reset_counters();
        assert_eq!(c.imc_counters().read, 0);
        assert_eq!(c.media_counters().read, 0);
        // Read buffer still warm: sibling read costs no media traffic.
        c.read(10_000, Addr(64), PersistWait::Full);
        assert_eq!(c.media_counters().read, 0);
        assert_eq!(c.imc_counters().read, CACHELINE_BYTES);
    }
}
