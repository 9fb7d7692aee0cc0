//! The on-DIMM write-combining buffer.
//!
//! Findings from §3.2 of the paper encoded here:
//!
//! - effective capacity is 12–16 KB (we use 48 XPLines on G1, 64 on G2);
//! - sub-XPLine writes *coalesce*: repeated writes to a buffered XPLine hit
//!   the buffer and generate no media traffic, so write amplification is 0
//!   while the working set fits (Figure 3);
//! - eviction is **random**, giving the graceful hit-ratio decay of
//!   Figure 4 (contrast with the read buffer's sharp FIFO cliff);
//! - evicting a *partially* written XPLine requires a read-modify-write
//!   (one media read plus one media write); evicting a fully written or
//!   read-buffer-backed XPLine needs only the media write;
//! - on G1, fully written XPLines are written back to the media
//!   periodically (~every 5000 cycles), which is why 256 B writes see write
//!   amplification 1 even for tiny working sets; G2 disables the periodic
//!   write-back.

use simbase::{Addr, AddrMap, Cycles, HitMiss, SplitMix64, CACHELINES_PER_XPLINE};

/// One write-buffer slot.
#[derive(Debug, Clone, Copy)]
pub struct WriteEntry {
    /// XPLine-aligned address.
    pub xpline: Addr,
    /// Per-cacheline written bits.
    pub written: u8,
    /// `true` if the unwritten cachelines are already present on the DIMM
    /// (the line migrated from the read buffer), so eviction does not need
    /// the "read" of a read-modify-write.
    pub backed: bool,
    /// Time of the most recent write to this entry.
    pub last_write: Cycles,
}

const FULL_MASK: u8 = (1 << CACHELINES_PER_XPLINE) - 1;

impl WriteEntry {
    /// Returns `true` if all four cachelines have been written.
    pub fn fully_written(&self) -> bool {
        self.written == FULL_MASK
    }

    /// Returns `true` if eviction can skip the RMW read.
    pub fn write_only_evict(&self) -> bool {
        self.fully_written() || self.backed
    }

    /// The media traffic evicting this entry generates.
    fn evict_kind(&self) -> EvictKind {
        if self.write_only_evict() {
            EvictKind::WriteOnly
        } else {
            EvictKind::ReadModifyWrite
        }
    }
}

/// What kind of media traffic an eviction generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictKind {
    /// Fully written (or read-buffer-backed) line: one media write.
    WriteOnly,
    /// Partially written line: media read (RMW) plus media write.
    ReadModifyWrite,
}

/// Outcome of recording a write in the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// `true` if the write coalesced into an existing entry.
    pub hit: bool,
    /// Eviction performed to make room, if any.
    pub evicted: Option<(Addr, EvictKind)>,
}

/// Random-eviction write-combining buffer.
///
/// Entries are small `Copy` records that stay in one stable slot of a
/// preallocated slab (`slots`, with freed slots recycled through `free`),
/// so steady-state operation never allocates and `index` maps each
/// buffered XPLine to its slot without ever being rebuilt. `order` lists
/// the occupied slots in the buffer's observable order: the random victim
/// is an index into it (removed by `swap_remove`), and the periodic sweep
/// and the power-fail drain visit it front to back.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    slots: Vec<WriteEntry>,
    /// Slots not currently holding an entry.
    free: Vec<usize>,
    /// Occupied slots in victim-selection order.
    order: Vec<usize>,
    /// XPLine address -> slot.
    index: AddrMap<usize>,
    capacity: usize,
    rng: SplitMix64,
    seed: u64,
    hits: u64,
    misses: u64,
    /// Number of fully written entries (periodic-sweep candidates).
    full_candidates: usize,
    /// Conservative lower bound on `last_write` over the fully written
    /// entries (`Cycles::MAX` when there are none). Only lowered outside
    /// the sweep, so `full_since > threshold` proves no entry is old
    /// enough to flush and the per-operation sweep can skip its scan; the
    /// sweep itself recomputes the exact value from the survivors.
    full_since: Cycles,
}

impl WriteBuffer {
    /// Creates a buffer holding `capacity_lines` XPLines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(capacity_lines: usize, seed: u64) -> Self {
        assert!(capacity_lines > 0, "write buffer capacity must be positive");
        WriteBuffer {
            slots: Vec::with_capacity(capacity_lines),
            free: Vec::with_capacity(capacity_lines),
            order: Vec::with_capacity(capacity_lines),
            index: AddrMap::new(),
            capacity: capacity_lines,
            rng: SplitMix64::new(seed),
            seed,
            hits: 0,
            misses: 0,
            full_candidates: 0,
            full_since: Cycles::MAX,
        }
    }

    /// Records that `written` just reached the full mask at time `now`.
    #[inline]
    fn note_became_full(&mut self, now: Cycles) {
        self.full_candidates += 1;
        self.full_since = self.full_since.min(now);
    }

    /// Returns the slot of the entry for `xpline`.
    #[inline]
    fn find(&self, xpline: Addr) -> Option<usize> {
        self.index.get(xpline.0).copied()
    }

    /// Merges a write of cacheline `bit` at `now` into the entry in
    /// `slot` (a buffer hit), marking it backed if `backed`.
    fn coalesce(&mut self, slot: usize, now: Cycles, bit: u8, backed: bool) {
        let e = &mut self.slots[slot];
        let was_full = e.fully_written();
        e.written |= bit;
        e.backed |= backed;
        e.last_write = now;
        if !was_full && e.fully_written() {
            self.note_became_full(now);
        }
        self.hits += 1;
    }

    /// Evicts a random victim if the buffer is full. The conservative
    /// `full_since` bound is left alone; it only causes a wasted scan.
    fn make_room(&mut self) -> Option<(Addr, EvictKind)> {
        if self.order.len() < self.capacity {
            return None;
        }
        let victim = self.rng.gen_range(self.order.len() as u64) as usize;
        let slot = self.order.swap_remove(victim);
        let e = self.slots[slot];
        self.index.remove(e.xpline.0);
        self.free.push(slot);
        if e.fully_written() {
            self.full_candidates -= 1;
        }
        Some((e.xpline, e.evict_kind()))
    }

    /// Stores a new entry in a free slot at the end of `order`.
    fn push(&mut self, entry: WriteEntry) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.insert(entry.xpline.0, slot);
        self.order.push(slot);
        if entry.fully_written() {
            self.note_became_full(entry.last_write);
        }
    }

    /// Records a 64 B write to `addr` at time `now`.
    ///
    /// Coalesces into an existing entry when possible; otherwise allocates
    /// a slot, evicting a random victim if the buffer is full.
    pub fn write(&mut self, now: Cycles, addr: Addr) -> WriteOutcome {
        let xpline = addr.xpline();
        let bit = 1u8 << addr.cacheline_in_xpline();
        if let Some(slot) = self.find(xpline) {
            self.coalesce(slot, now, bit, false);
            return WriteOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        let evicted = self.make_room();
        self.push(WriteEntry {
            xpline,
            written: bit,
            backed: false,
            last_write: now,
        });
        WriteOutcome {
            hit: false,
            evicted,
        }
    }

    /// Installs an XPLine migrated from the read buffer, with the cacheline
    /// at `addr` written and the rest backed by the buffered line.
    ///
    /// If the XPLine already has a write-buffer entry, the migration merely
    /// marks it backed. Returns an eviction, if one was needed.
    pub fn install_backed(&mut self, now: Cycles, addr: Addr) -> Option<(Addr, EvictKind)> {
        let xpline = addr.xpline();
        let bit = 1u8 << addr.cacheline_in_xpline();
        if let Some(slot) = self.find(xpline) {
            self.coalesce(slot, now, bit, true);
            return None;
        }
        self.hits += 1; // The write itself hit on-DIMM state (the read buffer).
        let evicted = self.make_room();
        self.push(WriteEntry {
            xpline,
            written: bit,
            backed: true,
            last_write: now,
        });
        evicted
    }

    /// Returns `true` if the cacheline at `addr` can be served from the
    /// buffer (it was written, or its XPLine is backed).
    pub fn serves_read(&self, addr: Addr) -> bool {
        let xpline = addr.xpline();
        let bit = 1u8 << addr.cacheline_in_xpline();
        self.find(xpline).is_some_and(|slot| {
            let e = &self.slots[slot];
            e.backed || e.written & bit != 0
        })
    }

    /// Returns `true` if the XPLine containing `addr` has an entry.
    pub fn contains_xpline(&self, addr: Addr) -> bool {
        self.find(addr.xpline()).is_some()
    }

    /// Removes and returns every entry with its eviction kind, in buffer
    /// order (power-fail ADR flush).
    pub fn drain_all(&mut self) -> Vec<(Addr, EvictKind)> {
        let drained = self
            .order
            .iter()
            .map(|&slot| (self.slots[slot].xpline, self.slots[slot].evict_kind()))
            .collect();
        self.clear_entries();
        drained
    }

    /// Removes the fully written entries last written at or before
    /// `threshold` (the G1 periodic write-back sweep), handing each one's
    /// XPLine to `flush` in buffer order.
    pub fn sweep_full_lines(&mut self, threshold: Cycles, mut flush: impl FnMut(Addr)) {
        // This runs on every DIMM operation; the tracker proves the
        // common case (nothing old enough to flush) without a scan.
        if self.full_candidates == 0 || self.full_since > threshold {
            return;
        }
        let (slots, free, index) = (&self.slots, &mut self.free, &mut self.index);
        let (mut candidates, mut since) = (0, Cycles::MAX);
        self.order.retain(|&slot| {
            let e = &slots[slot];
            if !e.fully_written() {
                return true;
            }
            if e.last_write <= threshold {
                index.remove(e.xpline.0);
                free.push(slot);
                flush(e.xpline);
                return false;
            }
            candidates += 1;
            since = since.min(e.last_write);
            true
        });
        self.full_candidates = candidates;
        self.full_since = since;
    }

    /// Returns the XPLine addresses currently buffered, sorted by address
    /// (fault injection surveys the ADR-resident set this way; buffer
    /// order would leak eviction history).
    pub fn resident_xplines(&self) -> Vec<Addr> {
        let mut lines: Vec<Addr> = self.order.iter().map(|&s| self.slots[s].xpline).collect();
        lines.sort_unstable_by_key(|a| a.0);
        lines
    }

    /// Returns the number of occupied slots.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Returns the configured capacity in XPLines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the hit/miss counters observed so far.
    pub fn counters(&self) -> HitMiss {
        HitMiss::of(self.hits, self.misses)
    }

    /// Clears contents and statistics and rewinds the victim-selection
    /// RNG to its seed, so a reset buffer is indistinguishable from a
    /// freshly constructed one. Checkpoint/restore relies on this: a
    /// cold-reset machine and a machine rebuilt from its snapshot must
    /// behave identically from then on.
    pub fn reset(&mut self) {
        self.clear_entries();
        self.rng = SplitMix64::new(self.seed);
        self.reset_stats();
    }

    /// Empties every slot (statistics and the RNG stream stay).
    fn clear_entries(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.index.clear();
        self.full_candidates = 0;
        self.full_since = Cycles::MAX;
    }

    /// Clears statistics only; buffered contents and the RNG stream stay
    /// untouched.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb(cap: usize) -> WriteBuffer {
        WriteBuffer::new(cap, 0x5EED)
    }

    #[test]
    fn writes_coalesce() {
        let mut b = wb(4);
        let o1 = b.write(0, Addr(0));
        assert!(!o1.hit);
        let o2 = b.write(1, Addr(64));
        assert!(o2.hit, "sibling cacheline coalesces");
        let o3 = b.write(2, Addr(0));
        assert!(o3.hit, "rewrite coalesces");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn full_buffer_evicts_randomly() {
        let mut b = wb(2);
        b.write(0, Addr(0));
        b.write(0, Addr(256));
        let o = b.write(0, Addr(512));
        let (victim, kind) = o.evicted.expect("eviction required");
        assert!(victim == Addr(0) || victim == Addr(256));
        assert_eq!(kind, EvictKind::ReadModifyWrite); // single-cacheline entries
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn fully_written_line_evicts_without_rmw() {
        let mut b = wb(1);
        for cl in 0..4u64 {
            b.write(0, Addr(cl * 64));
        }
        let o = b.write(0, Addr(256));
        assert_eq!(o.evicted, Some((Addr(0), EvictKind::WriteOnly)));
    }

    #[test]
    fn backed_line_evicts_without_rmw() {
        let mut b = wb(1);
        b.install_backed(0, Addr(64));
        let o = b.write(0, Addr(256));
        assert_eq!(o.evicted, Some((Addr(0), EvictKind::WriteOnly)));
    }

    #[test]
    fn backed_entries_serve_reads() {
        let mut b = wb(2);
        b.install_backed(0, Addr(0));
        assert!(b.serves_read(Addr(0)));
        assert!(b.serves_read(Addr(128)), "backing covers unwritten lines");
        b.write(0, Addr(256));
        assert!(b.serves_read(Addr(256)));
        assert!(
            !b.serves_read(Addr(320)),
            "unwritten line of an unbacked entry needs the media"
        );
    }

    #[test]
    fn sweep_flushes_only_old_full_lines() {
        let mut b = wb(4);
        for cl in 0..4u64 {
            b.write(100, Addr(cl * 64)); // full line, last write at 100
        }
        b.write(100, Addr(256)); // partial line
        for cl in 0..4u64 {
            b.write(9000, Addr(512 + cl * 64)); // full line, too recent
        }
        let mut flushed = Vec::new();
        b.sweep_full_lines(5000, |line| flushed.push(line));
        assert_eq!(flushed, vec![Addr(0)]);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn hit_ratio_decays_gracefully_beyond_capacity() {
        // Random partial writes over twice the capacity: random eviction
        // keeps the hit ratio near capacity/wss instead of collapsing to 0
        // (Figure 4).
        let cap = 64;
        let mut b = wb(cap);
        let wss_lines = 2 * cap as u64;
        let mut rng = SplitMix64::new(99);
        // Warm up.
        for _ in 0..10_000 {
            let line = rng.gen_range(wss_lines);
            b.write(0, Addr(line * 256));
        }
        let warm = b.counters();
        for _ in 0..20_000 {
            let line = rng.gen_range(wss_lines);
            b.write(0, Addr(line * 256));
        }
        let hit_ratio = b.counters().delta(&warm).hit_ratio();
        assert!(
            (0.3..0.7).contains(&hit_ratio),
            "expected graceful decay near cap/wss = 0.5, got {hit_ratio}"
        );
    }

    #[test]
    fn resident_xplines_are_sorted() {
        let mut b = wb(4);
        b.write(0, Addr(512));
        b.write(0, Addr(0));
        b.write(0, Addr(256));
        assert_eq!(
            b.resident_xplines(),
            vec![Addr(0), Addr(256), Addr(512)],
            "sorted regardless of insertion order"
        );
    }

    #[test]
    fn install_backed_merges_with_existing_entry() {
        let mut b = wb(2);
        b.write(0, Addr(0));
        b.install_backed(1, Addr(64));
        assert_eq!(b.len(), 1);
        assert!(b.serves_read(Addr(128)), "merged entry is backed");
    }
}
