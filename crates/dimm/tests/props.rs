//! Property tests for the on-DIMM buffers: both buffers against
//! linear-scan reference models, then capacity bounds, exclusivity,
//! coalescing, and traffic accounting under random access streams.

use std::collections::VecDeque;

use proptest::prelude::*;
use simbase::{Addr, Cycles, HitMiss, SplitMix64, XPLINE_BYTES};
use xpdimm::{
    read_buffer::RbLookup, DimmController, DimmParams, EvictKind, ReadBuffer, ReadSource,
    WriteBuffer,
};
use xpmedia::MediaParams;

/// Reference read buffer: a FIFO of `(xpline, valid bits)` searched
/// linearly.
struct ModelRb {
    fifo: VecDeque<(u64, u8)>,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl ModelRb {
    fn pos(&self, xpline: u64) -> Option<usize> {
        self.fifo.iter().position(|&(x, _)| x == xpline)
    }

    fn lookup_consume(&mut self, addr: Addr) -> RbLookup {
        let bit = 1u8 << addr.cacheline_in_xpline();
        if let Some(p) = self.pos(addr.xpline().0) {
            if self.fifo[p].1 & bit != 0 {
                self.fifo[p].1 &= !bit;
                self.hits += 1;
                return RbLookup::Hit;
            }
        }
        self.misses += 1;
        RbLookup::Miss
    }

    fn fill_and_consume(&mut self, addr: Addr) -> Option<Addr> {
        let xpline = addr.xpline().0;
        let mut evicted = None;
        if let Some(p) = self.pos(xpline) {
            self.fifo.remove(p);
        } else if self.fifo.len() >= self.cap {
            evicted = self.fifo.pop_front().map(|(x, _)| Addr(x));
        }
        self.fifo
            .push_back((xpline, 0xF & !(1u8 << addr.cacheline_in_xpline())));
        evicted
    }

    fn take(&mut self, addr: Addr) -> Option<(u64, u8)> {
        let p = self.pos(addr.xpline().0)?;
        self.fifo.remove(p)
    }
}

/// Runs `ops` (`(kind, cacheline)`; `kind` is a percentage) against a
/// read buffer of `cap` lines and the model, comparing every result.
fn check_rb_against_model(cap: usize, ops: &[(u64, u64)]) {
    let mut rb = ReadBuffer::new(cap);
    let mut model = ModelRb {
        fifo: VecDeque::new(),
        cap,
        hits: 0,
        misses: 0,
    };
    for &(kind, cl) in ops {
        let addr = Addr(cl * 64);
        match kind {
            0..=39 => assert_eq!(rb.lookup_consume(addr), model.lookup_consume(addr)),
            40..=79 => assert_eq!(rb.fill_and_consume(addr), model.fill_and_consume(addr)),
            80..=97 => {
                let got = rb.take(addr).map(|e| (e.xpline.0, e.valid));
                assert_eq!(got, model.take(addr));
            }
            _ => {
                rb.reset();
                model.fifo.clear();
                model.hits = 0;
                model.misses = 0;
            }
        }
        assert_eq!(rb.len(), model.fifo.len());
        assert_eq!(rb.counters(), HitMiss::of(model.hits, model.misses));
        assert_eq!(
            rb.contains_xpline(addr),
            model.pos(addr.xpline().0).is_some()
        );
    }
}

/// Reference XPBuffer: a slab of `(xpline, written, backed, last_write)`
/// searched linearly, with the same `swap_remove` victim choice.
struct ModelWb {
    slab: Vec<(u64, u8, bool, Cycles)>,
    cap: usize,
    rng: SplitMix64,
    hits: u64,
    misses: u64,
}

fn kind_of(&(_, written, backed, _): &(u64, u8, bool, Cycles)) -> EvictKind {
    if written == 0xF || backed {
        EvictKind::WriteOnly
    } else {
        EvictKind::ReadModifyWrite
    }
}

impl ModelWb {
    fn pos(&self, xpline: u64) -> Option<usize> {
        self.slab.iter().position(|e| e.0 == xpline)
    }

    /// `write` (`backed == false`) or `install_backed`: returns
    /// `(hit, eviction)`.
    fn write(
        &mut self,
        now: Cycles,
        addr: Addr,
        backed: bool,
    ) -> (bool, Option<(Addr, EvictKind)>) {
        let xpline = addr.xpline().0;
        let bit = 1u8 << addr.cacheline_in_xpline();
        if let Some(p) = self.pos(xpline) {
            let e = &mut self.slab[p];
            e.1 |= bit;
            e.2 |= backed;
            e.3 = now;
            self.hits += 1;
            return (true, None);
        }
        if backed {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let mut evicted = None;
        if self.slab.len() >= self.cap {
            let victim = self.rng.gen_range(self.slab.len() as u64) as usize;
            let e = self.slab.swap_remove(victim);
            evicted = Some((Addr(e.0), kind_of(&e)));
        }
        self.slab.push((xpline, bit, backed, now));
        (false, evicted)
    }

    fn serves_read(&self, addr: Addr) -> bool {
        let bit = 1u8 << addr.cacheline_in_xpline();
        self.pos(addr.xpline().0)
            .is_some_and(|p| self.slab[p].2 || self.slab[p].1 & bit != 0)
    }

    fn sweep_full_lines(&mut self, threshold: Cycles) -> Vec<Addr> {
        let mut flushed = Vec::new();
        self.slab.retain(|e| {
            let flush = e.1 == 0xF && e.3 <= threshold;
            if flush {
                flushed.push(Addr(e.0));
            }
            !flush
        });
        flushed
    }
}

/// Runs `ops` (`(kind, cacheline, time step)`; `kind` is a percentage)
/// against an XPBuffer of `cap` lines and the model, comparing every
/// result, then drains both.
fn check_wb_against_model(cap: usize, seed: u64, ops: &[(u64, u64, u64)]) {
    let mut wb = WriteBuffer::new(cap, seed);
    let mut model = ModelWb {
        slab: Vec::new(),
        cap,
        rng: SplitMix64::new(seed),
        hits: 0,
        misses: 0,
    };
    let mut now: Cycles = 0;
    for &(kind, cl, step) in ops {
        now += step;
        let addr = Addr(cl * 64);
        match kind {
            0..=44 => {
                let got = wb.write(now, addr);
                assert_eq!((got.hit, got.evicted), model.write(now, addr, false));
            }
            45..=49 => {
                // A whole-XPLine write, the sweep's only candidates.
                for cl in 0..4 {
                    let addr = Addr(addr.xpline().0 + cl * 64);
                    let got = wb.write(now, addr);
                    assert_eq!((got.hit, got.evicted), model.write(now, addr, false));
                }
            }
            50..=64 => {
                let (_, want) = model.write(now, addr, true);
                assert_eq!(wb.install_backed(now, addr), want);
            }
            65..=84 => assert_eq!(wb.serves_read(addr), model.serves_read(addr)),
            85..=96 => {
                let threshold = now.saturating_sub(step * 20);
                let mut flushed = Vec::new();
                wb.sweep_full_lines(threshold, |line| flushed.push(line));
                assert_eq!(flushed, model.sweep_full_lines(threshold));
            }
            97 => {
                let want: Vec<_> = model
                    .slab
                    .drain(..)
                    .map(|e| (Addr(e.0), kind_of(&e)))
                    .collect();
                assert_eq!(wb.drain_all(), want);
            }
            _ => {
                wb.reset();
                model.slab.clear();
                model.rng = SplitMix64::new(seed);
                model.hits = 0;
                model.misses = 0;
            }
        }
        assert_eq!(wb.len(), model.slab.len());
        assert_eq!(wb.counters(), HitMiss::of(model.hits, model.misses));
        assert_eq!(
            wb.contains_xpline(addr),
            model.pos(addr.xpline().0).is_some()
        );
        let mut resident: Vec<Addr> = model.slab.iter().map(|e| Addr(e.0)).collect();
        resident.sort_unstable_by_key(|a| a.0);
        assert_eq!(wb.resident_xplines(), resident);
    }
    let want: Vec<_> = model.slab.iter().map(|e| (Addr(e.0), kind_of(e))).collect();
    assert_eq!(wb.drain_all(), want);
    assert!(wb.is_empty());
}

fn dimm(writeback: bool) -> DimmController {
    DimmController::new(DimmParams {
        read_buffer_lines: 8,
        write_buffer_lines: 6,
        rb_hit_latency: 200,
        wcb_hit_latency: 150,
        writeback_period: writeback.then_some(5000),
        media: MediaParams {
            ait_coverage_bytes: 1 << 20,
            ..MediaParams::default()
        },
        seed: 42,
    })
}

proptest! {
    #[test]
    fn read_buffer_matches_fifo_model(
        ops in prop::collection::vec((0u64..100, 0u64..96), 1..400),
        cap in 1usize..17,
    ) {
        // 24 recurring XPLines: refills, takes from the middle of the FIFO
        // and capacity evictions all happen.
        check_rb_against_model(cap, &ops);
    }

    #[test]
    fn write_buffer_matches_slab_model(
        ops in prop::collection::vec((0u64..100, 0u64..96, 1u64..400), 1..400),
        cap in 1usize..17,
        seed in any::<u64>(),
    ) {
        check_wb_against_model(cap, seed, &ops);
    }

    #[test]
    fn write_buffer_matches_slab_model_at_g1_and_g2_sizes(
        ops in prop::collection::vec((0u64..97, 0u64..512, 1u64..400), 1000..3000),
        cap in prop_oneof![Just(48usize), Just(64usize)],
        seed in any::<u64>(),
    ) {
        // 128 recurring XPLines against the real 48- and 64-line buffers:
        // the buffer fills, evicts at random and sweeps whole lines out of
        // its middle. No drain or reset mid-script (kinds 97..), so it
        // stays full; the check drains it at the end.
        check_wb_against_model(cap, seed, &ops);
    }

    #[test]
    fn read_buffer_occupancy_never_exceeds_capacity(
        addrs in prop::collection::vec(0u64..64, 1..300),
        cap in 1usize..16,
    ) {
        let mut rb = ReadBuffer::new(cap);
        for a in addrs {
            let addr = Addr(a * 64);
            if rb.lookup_consume(addr) == RbLookup::Miss {
                rb.fill_and_consume(addr);
            }
            prop_assert!(rb.len() <= cap);
        }
    }

    #[test]
    fn read_buffer_exclusivity_consume_once(
        cachelines in prop::collection::vec(0u64..32, 1..200),
    ) {
        // Any cacheline can hit at most once between two fills of its
        // XPLine: delivered lines leave the buffer.
        let mut rb = ReadBuffer::new(64); // never capacity-evicts here
        let mut available: std::collections::HashSet<u64> = Default::default();
        for cl in cachelines {
            let addr = Addr(cl * 64);
            match rb.lookup_consume(addr) {
                RbLookup::Hit => {
                    prop_assert!(available.remove(&cl), "hit on unavailable line {cl}");
                }
                RbLookup::Miss => {
                    rb.fill_and_consume(addr);
                    // The fill makes the three siblings available and
                    // consumes the demanded line.
                    let xp = (cl / 4) * 4;
                    for s in xp..xp + 4 {
                        available.insert(s);
                    }
                    available.remove(&cl);
                }
            }
        }
    }

    #[test]
    fn write_buffer_occupancy_and_coalescing(
        writes in prop::collection::vec(0u64..48, 1..400),
        cap in 1usize..12,
    ) {
        let mut wb = WriteBuffer::new(cap, 7);
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for cl in writes {
            let addr = Addr(cl * 64);
            let xp = addr.xpline().0;
            let out = wb.write(0, addr);
            prop_assert_eq!(out.hit, resident.contains(&xp), "coalescing mismatch");
            if let Some((victim, _)) = out.evicted {
                prop_assert!(resident.remove(&victim.0), "evicted non-resident");
            }
            resident.insert(xp);
            prop_assert!(wb.len() <= cap);
            prop_assert_eq!(wb.len(), resident.len());
        }
    }

    #[test]
    fn small_partial_write_sets_never_touch_media(
        writes in prop::collection::vec((0u64..5, 0u64..3), 1..300),
    ) {
        // 5 XPLines, partial writes only, no periodic write-back: a G2-ish
        // DIMM must absorb everything in its 6-line buffer.
        let mut d = dimm(false);
        let mut now = 0;
        for (xp, cl) in writes {
            d.write_cacheline(now, Addr(xp * XPLINE_BYTES + cl * 64));
            now += 100;
        }
        prop_assert_eq!(d.media_counters().write, 0);
        prop_assert_eq!(d.stats().rmw_reads, 0);
    }

    #[test]
    fn media_read_traffic_matches_miss_count(
        reads in prop::collection::vec(0u64..128, 1..300),
    ) {
        let mut d = dimm(false);
        let mut now = 0;
        let mut media_fetches = 0u64;
        for cl in reads {
            let (done, src) = d.read_cacheline(now, Addr(cl * 64));
            if src == ReadSource::Media {
                media_fetches += 1;
            }
            now = done;
        }
        prop_assert_eq!(d.media_counters().read, media_fetches * XPLINE_BYTES);
    }

    #[test]
    fn mixed_traffic_time_monotone_and_accounted(
        ops in prop::collection::vec((0u64..64, any::<bool>()), 1..300),
    ) {
        let mut d = dimm(true);
        let mut now = 0u64;
        for (cl, is_write) in ops {
            let addr = Addr(cl * 64);
            let done = if is_write {
                d.write_cacheline(now, addr)
            } else {
                d.read_cacheline(now, addr).0
            };
            prop_assert!(done > now, "operations take time");
            now = done;
        }
        let s = d.stats();
        // Accounting identity: media writes = (evictions + periodic
        // write-backs) * XPLine.
        prop_assert_eq!(
            s.media.write,
            (s.evictions + s.periodic_writebacks) * XPLINE_BYTES
        );
        // RMW reads are a subset of media reads.
        prop_assert!(s.rmw_reads * XPLINE_BYTES <= s.media.read);
    }
}
