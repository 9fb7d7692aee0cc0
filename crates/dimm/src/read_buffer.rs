//! The on-DIMM read buffer.
//!
//! Findings from §3.1 of the paper encoded here:
//!
//! - capacity is a small number of XPLines (16 KB on G1, 22 KB on G2);
//! - eviction is FIFO (read amplification jumps to 4 the moment the working
//!   set exceeds capacity, with no graceful tail);
//! - the buffer is *exclusive* with the CPU caches: once a cacheline is
//!   delivered upstream it is dropped from the buffer, so a recurring read
//!   of the same cacheline must go back to the media (read amplification
//!   never drops below 1 in Figure 2).
//!
//! Exclusivity is modelled with per-cacheline *valid bits*: a media fill
//! sets all four bits, delivering a cacheline clears its bit, and a lookup
//! of a cleared bit is a miss.

use simbase::{Addr, AddrMap, HitMiss, CACHELINES_PER_XPLINE};

/// One buffered XPLine.
#[derive(Debug, Clone, Copy)]
pub struct ReadEntry {
    /// XPLine-aligned address.
    pub xpline: Addr,
    /// Per-cacheline valid bits; bit `i` set means cacheline `i` is still
    /// present (not yet delivered to the CPU).
    pub valid: u8,
}

impl ReadEntry {
    fn fresh(xpline: Addr) -> Self {
        ReadEntry {
            xpline,
            valid: (1 << CACHELINES_PER_XPLINE) - 1,
        }
    }

    /// Returns `true` if no cacheline remains valid.
    pub fn exhausted(&self) -> bool {
        self.valid == 0
    }
}

/// Link value meaning "no slot".
const NIL: usize = usize::MAX;

/// A slot of the FIFO: an entry plus its neighbours in insertion order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    entry: ReadEntry,
    /// Next older slot (towards the FIFO victim), or `NIL`.
    older: usize,
    /// Next younger slot, or `NIL`.
    younger: usize,
}

/// FIFO, CPU-exclusive read buffer.
///
/// Entries live in a slab of at most `capacity` slots, chained oldest to
/// youngest; `index` maps each buffered XPLine to its slot. Every
/// operation, including a `take` from the middle of the FIFO, is a
/// constant number of map and slab steps, and freed slots are reused, so
/// steady-state operation never allocates.
#[derive(Debug, Clone)]
pub struct ReadBuffer {
    slots: Vec<Slot>,
    /// Slots not linked into the FIFO.
    free: Vec<usize>,
    /// The FIFO victim, or `NIL` when empty.
    oldest: usize,
    /// The most recent fill, or `NIL` when empty.
    youngest: usize,
    /// XPLine address -> slot.
    index: AddrMap<usize>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// Result of a read-buffer lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbLookup {
    /// The requested cacheline was present and has now been consumed.
    Hit,
    /// The XPLine (or the specific cacheline) is not available.
    Miss,
}

impl ReadBuffer {
    /// Creates a buffer holding `capacity_lines` XPLines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(capacity_lines: usize) -> Self {
        assert!(capacity_lines > 0, "read buffer capacity must be positive");
        ReadBuffer {
            slots: Vec::with_capacity(capacity_lines),
            free: Vec::with_capacity(capacity_lines),
            oldest: NIL,
            youngest: NIL,
            index: AddrMap::new(),
            capacity: capacity_lines,
            hits: 0,
            misses: 0,
        }
    }

    /// Appends `entry` at the FIFO tail and indexes it.
    fn push_youngest(&mut self, entry: ReadEntry) {
        let slot = Slot {
            entry,
            older: self.youngest,
            younger: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        match self.youngest {
            NIL => self.oldest = i,
            y => self.slots[y].younger = i,
        }
        self.youngest = i;
        self.index.insert(entry.xpline.0, i);
    }

    /// Unlinks slot `i` from the FIFO and frees it (the caller drops the
    /// index entry).
    fn unlink(&mut self, i: usize) -> ReadEntry {
        let Slot {
            entry,
            older,
            younger,
        } = self.slots[i];
        match older {
            NIL => self.oldest = younger,
            o => self.slots[o].younger = younger,
        }
        match younger {
            NIL => self.youngest = older,
            y => self.slots[y].older = older,
        }
        self.free.push(i);
        entry
    }

    /// Looks up (and, on a hit, consumes) the cacheline at `addr`.
    pub fn lookup_consume(&mut self, addr: Addr) -> RbLookup {
        let bit = 1u8 << addr.cacheline_in_xpline();
        if let Some(&i) = self.index.get(addr.xpline().0) {
            let e = &mut self.slots[i].entry;
            if e.valid & bit != 0 {
                e.valid &= !bit;
                self.hits += 1;
                return RbLookup::Hit;
            }
        }
        self.misses += 1;
        RbLookup::Miss
    }

    /// Inserts a freshly fetched XPLine, consuming the cacheline at `addr`
    /// (it is being delivered to the CPU right now).
    ///
    /// If the XPLine is already buffered (stale, partially consumed), the
    /// old entry is replaced and re-queued at the FIFO tail. Returns the
    /// evicted XPLine address, if any.
    pub fn fill_and_consume(&mut self, addr: Addr) -> Option<Addr> {
        let xpline = addr.xpline();
        let mut evicted = None;
        // Replace a stale copy of the same XPLine, if present.
        if let Some(&i) = self.index.get(xpline.0) {
            self.unlink(i);
        } else if self.index.len() >= self.capacity {
            let victim = self.unlink(self.oldest).xpline;
            self.index.remove(victim.0);
            evicted = Some(victim);
        }
        let mut e = ReadEntry::fresh(xpline);
        e.valid &= !(1u8 << addr.cacheline_in_xpline());
        self.push_youngest(e);
        evicted
    }

    /// Removes and returns the entry for `xpline`, if buffered.
    ///
    /// Used when a write hits the read buffer and the XPLine migrates to
    /// the write buffer (§3.3).
    pub fn take(&mut self, xpline: Addr) -> Option<ReadEntry> {
        let i = self.index.remove(xpline.xpline().0)?;
        Some(self.unlink(i))
    }

    /// Returns `true` if the XPLine containing `addr` is buffered (with any
    /// valid bits remaining).
    pub fn contains_xpline(&self, addr: Addr) -> bool {
        self.index.get(addr.xpline().0).is_some()
    }

    /// Returns the number of buffered XPLines.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Returns the configured capacity in XPLines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the hit/miss counters observed so far.
    pub fn counters(&self) -> HitMiss {
        HitMiss::of(self.hits, self.misses)
    }

    /// Clears statistics only; buffered contents stay warm.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.oldest = NIL;
        self.youngest = NIL;
        self.index.clear();
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbase::XPLINE_BYTES;

    #[test]
    fn delivered_cacheline_is_consumed() {
        let mut rb = ReadBuffer::new(4);
        assert_eq!(rb.lookup_consume(Addr(0)), RbLookup::Miss);
        rb.fill_and_consume(Addr(0));
        // The delivered cacheline is gone (exclusivity)...
        assert_eq!(rb.lookup_consume(Addr(0)), RbLookup::Miss);
        // ...but the sibling cachelines of the XPLine are present.
        assert_eq!(rb.lookup_consume(Addr(64)), RbLookup::Hit);
        assert_eq!(rb.lookup_consume(Addr(128)), RbLookup::Hit);
        assert_eq!(rb.lookup_consume(Addr(192)), RbLookup::Hit);
        // And each sibling can be consumed only once.
        assert_eq!(rb.lookup_consume(Addr(64)), RbLookup::Miss);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut rb = ReadBuffer::new(2);
        rb.fill_and_consume(Addr(0));
        rb.fill_and_consume(Addr(256));
        let evicted = rb.fill_and_consume(Addr(512));
        assert_eq!(evicted, Some(Addr(0)));
        assert!(!rb.contains_xpline(Addr(0)));
        assert!(rb.contains_xpline(Addr(256)));
    }

    #[test]
    fn refill_requeues_at_tail() {
        let mut rb = ReadBuffer::new(2);
        rb.fill_and_consume(Addr(0));
        rb.fill_and_consume(Addr(256));
        // Refreshing XPLine 0 moves it to the tail, so XPLine 256 becomes
        // the FIFO victim.
        rb.fill_and_consume(Addr(0));
        let evicted = rb.fill_and_consume(Addr(512));
        assert_eq!(evicted, Some(Addr(256)));
    }

    #[test]
    fn refill_restores_sibling_bits() {
        let mut rb = ReadBuffer::new(2);
        rb.fill_and_consume(Addr(0));
        for a in [64u64, 128, 192] {
            assert_eq!(rb.lookup_consume(Addr(a)), RbLookup::Hit);
        }
        // All bits consumed; a refill makes siblings available again.
        rb.fill_and_consume(Addr(0));
        assert_eq!(rb.lookup_consume(Addr(64)), RbLookup::Hit);
    }

    #[test]
    fn take_removes_entry() {
        let mut rb = ReadBuffer::new(2);
        rb.fill_and_consume(Addr(0));
        let e = rb.take(Addr(64)).expect("entry present");
        assert_eq!(e.xpline, Addr(0));
        assert!(!rb.contains_xpline(Addr(0)));
        assert!(rb.take(Addr(0)).is_none());
    }

    #[test]
    fn strided_pattern_matches_paper_ra_model() {
        // Reproduce the E1 arithmetic in miniature: CpX = 2 with a working
        // set of 4 XPLines and capacity 8. Steady state: one fill per
        // (2-cacheline) round per XPLine.
        let mut rb = ReadBuffer::new(8);
        let xplines = 4u64;
        let mut media_reads = 0u64;
        let mut demanded = 0u64;
        for round in 0..10u64 {
            for pass in 0..2u64 {
                for x in 0..xplines {
                    let addr = Addr(x * XPLINE_BYTES + pass * 64);
                    demanded += 64;
                    if rb.lookup_consume(addr) == RbLookup::Miss {
                        media_reads += XPLINE_BYTES;
                        rb.fill_and_consume(addr);
                    }
                }
                let _ = round;
            }
        }
        let ra = media_reads as f64 / demanded as f64;
        assert!((ra - 2.0).abs() < 0.01, "expected RA 2 for CpX=2, got {ra}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut rb = ReadBuffer::new(2);
        rb.fill_and_consume(Addr(0));
        rb.lookup_consume(Addr(64));
        rb.reset();
        assert!(rb.is_empty());
        assert_eq!(rb.counters(), HitMiss::new());
    }
}
