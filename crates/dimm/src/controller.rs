//! The on-DIMM controller: composes the read buffer, the write-combining
//! buffer, and the media into the cacheline-granularity DDR-T endpoint the
//! iMC talks to.

use simbase::{Addr, ByteCounter, Counter, Cycles, HitMiss};
use xpmedia::{MediaParams, XpMedia};

use crate::read_buffer::{RbLookup, ReadBuffer};
use crate::write_buffer::{EvictKind, WriteBuffer};

/// Configuration of one DIMM's buffering and timing.
#[derive(Debug, Clone)]
pub struct DimmParams {
    /// Read buffer capacity in XPLines (64 = 16 KB on G1).
    pub read_buffer_lines: usize,
    /// Write-combining buffer capacity in XPLines (48 = 12 KB effective on
    /// G1).
    pub write_buffer_lines: usize,
    /// Latency of serving a cacheline from the read buffer.
    pub rb_hit_latency: Cycles,
    /// Latency of serving a cacheline from (or accepting one into) the
    /// write buffer.
    pub wcb_hit_latency: Cycles,
    /// G1 periodic write-back interval for fully written XPLines; `None`
    /// disables it (G2).
    pub writeback_period: Option<Cycles>,
    /// Media timing parameters.
    pub media: MediaParams,
    /// Seed for the write buffer's random eviction.
    pub seed: u64,
}

impl Default for DimmParams {
    fn default() -> Self {
        // G1-flavoured defaults; overridden by the machine generation
        // configuration.
        DimmParams {
            read_buffer_lines: 64,
            write_buffer_lines: 48,
            rb_hit_latency: 220,
            wcb_hit_latency: 180,
            writeback_period: Some(5000),
            media: MediaParams::default(),
            seed: 0x0D1A_0001,
        }
    }
}

/// Where a cacheline read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Served by the write-combining buffer.
    WriteBuffer,
    /// Served by the read buffer.
    ReadBuffer,
    /// Required a media XPLine fetch.
    Media,
}

/// Aggregated DIMM statistics (the simulator's `ipmwatch` media view plus
/// buffer internals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DimmStats {
    /// Read buffer hit/miss counters.
    pub read_buffer: HitMiss,
    /// Write buffer hit/miss counters.
    pub write_buffer: HitMiss,
    /// Media-boundary byte counters.
    pub media: ByteCounter,
    /// AIT cache hit/miss counters.
    pub ait: HitMiss,
    /// Read-modify-write media reads caused by partial-line evictions.
    pub rmw_reads: u64,
    /// Lines flushed by the G1 periodic full-line write-back.
    pub periodic_writebacks: u64,
    /// Capacity evictions from the write buffer.
    pub evictions: u64,
}

impl DimmStats {
    /// Adds another snapshot's counters into this one (aggregation across
    /// DIMMs or across checkpoint epochs).
    pub fn merge(&mut self, other: &DimmStats) {
        self.read_buffer.merge(&other.read_buffer);
        self.write_buffer.merge(&other.write_buffer);
        self.media.read += other.media.read;
        self.media.write += other.media.write;
        self.ait.merge(&other.ait);
        self.rmw_reads += other.rmw_reads;
        self.periodic_writebacks += other.periodic_writebacks;
        self.evictions += other.evictions;
    }
}

/// One simulated Optane DIMM.
#[derive(Debug, Clone)]
pub struct DimmController {
    rb: ReadBuffer,
    wb: WriteBuffer,
    media: XpMedia,
    rb_hit_latency: Cycles,
    wcb_hit_latency: Cycles,
    writeback_period: Option<Cycles>,
    rmw_reads: Counter,
    periodic_writebacks: Counter,
    evictions: Counter,
}

impl DimmController {
    /// Creates a DIMM from its parameters.
    pub fn new(params: DimmParams) -> Self {
        DimmController {
            rb: ReadBuffer::new(params.read_buffer_lines),
            wb: WriteBuffer::new(params.write_buffer_lines, params.seed),
            media: XpMedia::new(params.media.clone()),
            rb_hit_latency: params.rb_hit_latency,
            wcb_hit_latency: params.wcb_hit_latency,
            writeback_period: params.writeback_period,
            rmw_reads: Counter::new(),
            periodic_writebacks: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Reads the cacheline at `addr`, returning the completion time and
    /// where the data came from.
    pub fn read_cacheline(&mut self, now: Cycles, addr: Addr) -> (Cycles, ReadSource) {
        self.maybe_sweep(now);
        if self.wb.serves_read(addr) {
            return (now + self.wcb_hit_latency, ReadSource::WriteBuffer);
        }
        match self.rb.lookup_consume(addr) {
            RbLookup::Hit => (now + self.rb_hit_latency, ReadSource::ReadBuffer),
            RbLookup::Miss => {
                let completion = self.media.read_xpline(now, addr);
                self.rb.fill_and_consume(addr);
                (completion, ReadSource::Media)
            }
        }
    }

    /// Accepts a 64 B write to `addr`, returning the DIMM-side accept time.
    ///
    /// The write lands in on-DIMM buffering (which is inside the ADR
    /// domain); any media traffic it triggers — evictions, read-modify-
    /// writes, periodic write-backs — happens asynchronously and does not
    /// delay the returned accept time.
    pub fn write_cacheline(&mut self, now: Cycles, addr: Addr) -> Cycles {
        self.maybe_sweep(now);
        // Write-in-place repair: overwriting a poisoned line re-programs
        // its cells, clearing the UE.
        self.media.clear_poison(addr);
        if self.rb.take(addr.xpline()).is_some() {
            // §3.3: the write updates the XPLine in the read buffer and the
            // line migrates to the write buffer with its backing intact.
            let evicted = self.wb.install_backed(now, addr);
            self.handle_eviction(now, evicted);
        } else {
            let outcome = self.wb.write(now, addr);
            self.handle_eviction(now, outcome.evicted);
        }
        now + self.wcb_hit_latency
    }

    fn handle_eviction(&mut self, now: Cycles, evicted: Option<(Addr, EvictKind)>) {
        if let Some((victim, kind)) = evicted {
            self.evictions.inc();
            if kind == EvictKind::ReadModifyWrite {
                self.rmw_reads.inc();
                self.media.read_xpline(now, victim);
            }
            self.media.write_xpline(now, victim);
        }
    }

    /// Runs the G1 periodic full-line write-back up to time `now`.
    fn maybe_sweep(&mut self, now: Cycles) {
        let Some(period) = self.writeback_period else {
            return;
        };
        let threshold = now.saturating_sub(period);
        self.wb.sweep_full_lines(threshold, |line| {
            self.periodic_writebacks.inc();
            self.media.write_xpline(now, line);
        });
    }

    /// Forces all buffered writes to the media (used by power-failure
    /// handling: the write buffer is in the ADR domain, so its contents are
    /// flushed by stored energy on a crash).
    pub fn flush_all(&mut self, now: Cycles) {
        for evicted in self.wb.drain_all() {
            self.handle_eviction(now, Some(evicted));
        }
    }

    /// Returns the XPLines currently resident in the write-combining
    /// buffer, sorted by address (the ADR-domain set a crash-time fault
    /// can interrupt mid-drain).
    pub fn resident_write_xplines(&self) -> Vec<Addr> {
        self.wb.resident_xplines()
    }

    // ----- uncorrectable errors (UE/poison) ---------------------------

    /// Marks the cacheline containing `addr` as an uncorrectable error on
    /// this DIMM's media.
    pub fn poison_line(&mut self, addr: Addr) {
        self.media.inject_poison(addr);
    }

    /// Returns `true` if the cacheline containing `addr` is poisoned.
    pub fn line_poisoned(&self, addr: Addr) -> bool {
        self.media.is_poisoned(addr)
    }

    /// Returns all poisoned cacheline addresses on this DIMM, sorted.
    pub fn poisoned_lines(&self) -> Vec<u64> {
        self.media.poisoned_lines()
    }

    /// Address-range scrub: clears and returns poisoned lines within
    /// `[start, start + len)` on this DIMM.
    pub fn scrub_range(&mut self, start: Addr, len: u64) -> Vec<u64> {
        self.media.scrub_range(start, len)
    }

    /// Returns a consistent statistics snapshot.
    pub fn stats(&self) -> DimmStats {
        DimmStats {
            read_buffer: self.rb.counters(),
            write_buffer: self.wb.counters(),
            media: self.media.counters(),
            ait: self.media.ait_counters(),
            rmw_reads: self.rmw_reads.get(),
            periodic_writebacks: self.periodic_writebacks.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Returns the media-boundary byte counters.
    pub fn media_counters(&self) -> ByteCounter {
        self.media.counters()
    }

    /// Returns the read buffer occupancy in XPLines.
    pub fn read_buffer_len(&self) -> usize {
        self.rb.len()
    }

    /// Returns the write buffer occupancy in XPLines.
    pub fn write_buffer_len(&self) -> usize {
        self.wb.len()
    }

    /// Resets counters but keeps buffer and AIT contents (between benchmark
    /// phases).
    pub fn reset_counters(&mut self) {
        self.rb.reset_stats();
        self.wb.reset_stats();
        self.media.reset_counters();
        self.rmw_reads.reset();
        self.periodic_writebacks.reset();
        self.evictions.reset();
    }

    /// Cold-resets the DIMM: buffers, AIT, occupancy, and counters.
    pub fn reset_all(&mut self) {
        self.rb.reset();
        self.wb.reset();
        self.media.reset_all();
        self.rmw_reads.reset();
        self.periodic_writebacks.reset();
        self.evictions.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::XPLINE_BYTES;

    fn dimm() -> DimmController {
        DimmController::new(DimmParams {
            read_buffer_lines: 8,
            write_buffer_lines: 4,
            rb_hit_latency: 200,
            wcb_hit_latency: 150,
            writeback_period: Some(5000),
            media: MediaParams {
                read_latency: 400,
                ait_miss_penalty: 300,
                read_banks: 4,
                write_service: 900,
                ait_coverage_bytes: 1 << 20,
                ait_ways: 16,
            },
            seed: 1,
        })
    }

    fn dimm_g2() -> DimmController {
        DimmController::new(DimmParams {
            read_buffer_lines: 8,
            write_buffer_lines: 4,
            writeback_period: None,
            ..Default::default()
        })
    }

    #[test]
    fn read_miss_then_sibling_hits() {
        let mut d = dimm();
        let (_, src) = d.read_cacheline(0, Addr(0));
        assert_eq!(src, ReadSource::Media);
        let (t, src) = d.read_cacheline(1000, Addr(64));
        assert_eq!(src, ReadSource::ReadBuffer);
        assert_eq!(t, 1200);
        // Exclusivity: re-reading the first cacheline misses again.
        let (_, src) = d.read_cacheline(2000, Addr(0));
        assert_eq!(src, ReadSource::Media);
    }

    #[test]
    fn writes_are_absorbed_without_media_traffic() {
        let mut d = dimm();
        for cl in 0..3u64 {
            d.write_cacheline(0, Addr(cl * 64));
        }
        assert_eq!(d.media_counters().write, 0);
        assert_eq!(d.write_buffer_len(), 1);
    }

    #[test]
    fn g1_periodic_writeback_flushes_full_lines() {
        let mut d = dimm();
        for cl in 0..4u64 {
            d.write_cacheline(0, Addr(cl * 64));
        }
        assert_eq!(d.media_counters().write, 0);
        // Advance time past the period via another access.
        d.write_cacheline(10_000, Addr(4096));
        assert_eq!(d.media_counters().write, XPLINE_BYTES);
        assert_eq!(d.stats().periodic_writebacks, 1);
    }

    #[test]
    fn g2_disables_periodic_writeback() {
        let mut d = dimm_g2();
        for cl in 0..4u64 {
            d.write_cacheline(0, Addr(cl * 64));
        }
        d.write_cacheline(100_000, Addr(4096));
        assert_eq!(d.media_counters().write, 0);
    }

    #[test]
    fn partial_eviction_pays_rmw() {
        let mut d = dimm_g2();
        // Fill the 4-slot buffer with partial lines, then overflow it.
        for line in 0..5u64 {
            d.write_cacheline(0, Addr(line * XPLINE_BYTES));
        }
        let s = d.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.rmw_reads, 1);
        assert_eq!(s.media.write, XPLINE_BYTES);
        assert_eq!(s.media.read, XPLINE_BYTES);
    }

    #[test]
    fn write_hitting_read_buffer_migrates_with_backing() {
        let mut d = dimm_g2();
        d.read_cacheline(0, Addr(0)); // XPLine 0 into the read buffer
        d.write_cacheline(10, Addr(64));
        assert_eq!(d.read_buffer_len(), 0, "line migrated out");
        assert_eq!(d.write_buffer_len(), 1);
        // Reads of unwritten cachelines are served by the backed entry.
        let (_, src) = d.read_cacheline(20, Addr(128));
        assert_eq!(src, ReadSource::WriteBuffer);
        // Eviction of the backed line needs no RMW read.
        for line in 1..5u64 {
            d.write_cacheline(30, Addr(line * XPLINE_BYTES));
        }
        assert_eq!(d.stats().rmw_reads, 1, "only the unbacked victim pays RMW");
    }

    #[test]
    fn write_buffer_serves_written_reads() {
        let mut d = dimm();
        d.write_cacheline(0, Addr(0));
        let (t, src) = d.read_cacheline(10, Addr(0));
        assert_eq!(src, ReadSource::WriteBuffer);
        assert_eq!(t, 160);
        // Unwritten sibling needs the media.
        let (_, src) = d.read_cacheline(20, Addr(64));
        assert_eq!(src, ReadSource::Media);
    }

    #[test]
    fn interleaved_read_write_regions_do_not_interfere() {
        // §3.3 benchmark: a 2-XPLine read region and a separate write
        // region, interleaved. Buffers are separate, so reads see no
        // amplification and writes stay absorbed.
        let mut d = dimm();
        let read_base = 0u64;
        let write_base = 1 << 16;
        // Warm the read region (2 XPLines, one media read each).
        for pass in 0..4u64 {
            for x in 0..2u64 {
                let r = Addr(read_base + x * XPLINE_BYTES + pass * 64);
                d.read_cacheline(pass * 1000, r);
                let w = Addr(write_base + x * XPLINE_BYTES);
                d.write_cacheline(pass * 1000, w);
            }
        }
        let s = d.stats();
        // Each read-region XPLine fetched exactly once: RA = 1.
        assert_eq!(s.media.read, 2 * XPLINE_BYTES);
        assert_eq!(s.media.write, 0);
    }

    #[test]
    fn flush_all_drains_everything() {
        let mut d = dimm_g2();
        for line in 0..3u64 {
            d.write_cacheline(0, Addr(line * XPLINE_BYTES));
        }
        d.flush_all(100);
        assert_eq!(d.write_buffer_len(), 0);
        assert!(d.media_counters().write >= 3 * XPLINE_BYTES);
    }

    #[test]
    fn write_repairs_poisoned_line() {
        let mut d = dimm_g2();
        d.poison_line(Addr(64));
        assert!(d.line_poisoned(Addr(64)));
        d.write_cacheline(0, Addr(64));
        assert!(
            !d.line_poisoned(Addr(64)),
            "overwrite re-programs the cells"
        );
        // A different line in the same XPLine stays poisoned.
        d.poison_line(Addr(128));
        d.write_cacheline(10, Addr(192));
        assert!(d.line_poisoned(Addr(128)));
    }

    #[test]
    fn resident_write_xplines_reports_wcb_contents() {
        let mut d = dimm_g2();
        d.write_cacheline(0, Addr(512));
        d.write_cacheline(0, Addr(0));
        assert_eq!(d.resident_write_xplines(), vec![Addr(0), Addr(512)]);
        d.flush_all(100);
        assert!(d.resident_write_xplines().is_empty());
    }

    #[test]
    fn reset_counters_keeps_buffer_contents() {
        let mut d = dimm();
        d.read_cacheline(0, Addr(0));
        d.reset_counters();
        assert_eq!(d.media_counters().read, 0);
        let (_, src) = d.read_cacheline(10, Addr(64));
        assert_eq!(src, ReadSource::ReadBuffer, "buffer contents survive");
    }
}
