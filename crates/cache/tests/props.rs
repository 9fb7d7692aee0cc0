//! Property tests for the cache hierarchy: fills and flushes against a
//! reference model, and invariants under random traffic. The table each
//! level is built on has its own differential in simbase's props.

#[path = "../../simbase/tests/lru_model/mod.rs"]
mod lru_model;

use cpucache::{CacheParams, CacheSystem, FlushMode, HitLevel, PrefetchConfig};
use lru_model::ModelLru;
use proptest::prelude::*;
use simbase::Addr;

/// A reference cache level: the LRU model over line numbers, answering
/// in addresses.
struct ModelCache(ModelLru);

impl ModelCache {
    fn new(capacity_bytes: u64, ways: usize) -> Self {
        ModelCache(ModelLru::new(
            (capacity_bytes / 64 / ways as u64).max(1),
            ways,
        ))
    }

    fn access(&mut self, addr: Addr, dirty: bool) -> bool {
        self.0.access(addr.0 / 64, dirty)
    }

    fn fill(&mut self, addr: Addr, dirty: bool) -> Option<(u64, bool)> {
        let ev = self.0.fill(addr.0 / 64, dirty);
        ev.map(|(line, d)| (line * 64, d))
    }

    fn peek(&mut self, addr: Addr) -> bool {
        self.0.peek(addr.0 / 64)
    }

    fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        self.0.invalidate(addr.0 / 64)
    }

    fn clean(&mut self, addr: Addr) -> Option<bool> {
        self.0.clean(addr.0 / 64)
    }

    fn drain_dirty(&mut self) -> Vec<Addr> {
        self.0
            .drain_dirty()
            .into_iter()
            .map(|l| Addr(l * 64))
            .collect()
    }
}

/// Reference hierarchy: `CacheSystem`'s fill and flush rules over
/// `ModelCache`s, with every flush visiting every core.
struct ModelSystem {
    l1: Vec<ModelCache>,
    l2: Vec<ModelCache>,
    l3: ModelCache,
}

impl ModelSystem {
    fn new(p: &CacheParams, cores: usize) -> Self {
        ModelSystem {
            l1: (0..cores)
                .map(|_| ModelCache::new(p.l1_bytes, p.l1_ways))
                .collect(),
            l2: (0..cores)
                .map(|_| ModelCache::new(p.l2_bytes, p.l2_ways))
                .collect(),
            l3: ModelCache::new(p.l3_bytes, p.l3_ways),
        }
    }

    fn insert_l3(&mut self, addr: Addr, dirty: bool, wb: &mut Vec<Addr>) {
        if let Some((line, true)) = self.l3.fill(addr, dirty) {
            wb.push(Addr(line));
        }
    }

    fn insert_l2(&mut self, core: usize, addr: Addr, dirty: bool, wb: &mut Vec<Addr>) {
        if let Some((line, d)) = self.l2[core].fill(addr, dirty) {
            self.insert_l3(Addr(line), d, wb);
        }
    }

    fn promote_to_l1(&mut self, core: usize, addr: Addr, dirty: bool, wb: &mut Vec<Addr>) {
        if let Some((line, d)) = self.l1[core].fill(addr, dirty) {
            self.insert_l2(core, Addr(line), d, wb);
        }
    }

    fn install(&mut self, core: usize, addr: Addr, dirty: bool) -> Vec<Addr> {
        let mut wb = Vec::new();
        self.insert_l2(core, addr, false, &mut wb);
        self.promote_to_l1(core, addr, dirty, &mut wb);
        wb
    }

    fn access(&mut self, core: usize, addr: Addr, write: bool) -> (HitLevel, Vec<Addr>) {
        if self.l1[core].access(addr, write) {
            return (HitLevel::L1, Vec::new());
        }
        if self.l2[core].access(addr, false) {
            let mut wb = Vec::new();
            self.promote_to_l1(core, addr, write, &mut wb);
            return (HitLevel::L2, wb);
        }
        let level = if self.l3.access(addr, false) {
            HitLevel::L3
        } else {
            HitLevel::Miss
        };
        (level, self.install(core, addr, write))
    }

    fn flush(&mut self, addr: Addr, mode: FlushMode) -> bool {
        let caches = self.l1.iter_mut().chain(&mut self.l2);
        caches.chain([&mut self.l3]).fold(false, |dirty, c| {
            let d = match mode {
                FlushMode::Invalidate => c.invalidate(addr),
                FlushMode::WriteBackRetain => c.clean(addr),
            };
            dirty | d.unwrap_or(false)
        })
    }

    fn contains(&mut self, core: usize, addr: Addr) -> Option<HitLevel> {
        if self.l1[core].peek(addr) {
            Some(HitLevel::L1)
        } else if self.l2[core].peek(addr) {
            Some(HitLevel::L2)
        } else if self.l3.peek(addr) {
            Some(HitLevel::L3)
        } else {
            None
        }
    }

    fn drop_all(&mut self) -> Vec<Addr> {
        let caches = self.l1.iter_mut().chain(&mut self.l2);
        let mut dirty: Vec<Addr> = caches
            .chain([&mut self.l3])
            .flat_map(|c| c.drain_dirty())
            .collect();
        dirty.sort();
        dirty.dedup();
        dirty
    }
}

/// Runs `ops` (`(kind, core, line, flag)`; `kind` is a percentage) on a
/// `cores`-core hierarchy and the model. Every access, install and
/// prefetch fill must report the model's level and write-backs; every
/// flush the model's dirty bit, and afterwards every core must see the
/// flushed line exactly where the model does (nowhere, for an
/// invalidating flush).
fn check_hierarchy_against_model(cores: usize, ops: &[(u64, u64, u64, bool)]) {
    let params = CacheParams {
        l1_bytes: 256,
        l1_ways: 2,
        l2_bytes: 1024,
        l2_ways: 4,
        l3_bytes: 4096,
        l3_ways: 4,
        l1_latency: 4,
        l2_latency: 14,
        l3_latency: 48,
    };
    let mut sys = CacheSystem::new(params.clone(), cores, PrefetchConfig::none());
    let mut model = ModelSystem::new(&params, cores);
    for &(kind, core, line, flag) in ops {
        let core = core as usize % cores;
        let addr = Addr(line * 64);
        match kind {
            0..=44 => {
                let got = sys.access(core, addr, flag);
                assert_eq!((got.level, got.writebacks), model.access(core, addr, flag));
            }
            45..=54 => assert_eq!(
                sys.install(core, addr, flag),
                model.install(core, addr, flag)
            ),
            55..=59 => {
                let mut want = Vec::new();
                model.insert_l2(core, addr, false, &mut want);
                assert_eq!(sys.fill_prefetch(core, addr), want);
            }
            60..=98 => {
                let mode = if flag {
                    FlushMode::Invalidate
                } else {
                    FlushMode::WriteBackRetain
                };
                assert_eq!(sys.flush(addr, mode), model.flush(addr, mode));
                for c in 0..cores {
                    let held = sys.contains(c, addr);
                    assert_eq!(held, model.contains(c, addr), "core {c}");
                    assert!(!flag || held.is_none(), "core {c} kept {:#x}", addr.0);
                }
            }
            _ => assert_eq!(sys.drop_all(), model.drop_all()),
        }
    }
}

proptest! {
    #[test]
    fn hierarchy_flushes_match_a_visit_every_core_model(
        ops in prop::collection::vec((0u64..100, 0u64..70, 0u64..48, any::<bool>()), 1..400),
    ) {
        // 3 cores share the lines; 70 cores spread them thin, so flushes
        // empty cores on both words of the occupancy mask.
        check_hierarchy_against_model(3, &ops);
        check_hierarchy_against_model(70, &ops);
    }

    #[test]
    fn hierarchy_never_loses_dirty_data_silently(
        lines in prop::collection::vec(0u64..4096, 1..400),
    ) {
        // Every dirty line must either still be resident somewhere or have
        // been reported as a memory write-back.
        let mut sys = CacheSystem::new(
            CacheParams {
                l1_bytes: 512,
                l1_ways: 2,
                l2_bytes: 2048,
                l2_ways: 4,
                l3_bytes: 8192,
                l3_ways: 4,
                l1_latency: 4,
                l2_latency: 14,
                l3_latency: 48,
            },
            1,
            PrefetchConfig::none(),
        );
        let mut written_back: Vec<u64> = Vec::new();
        let mut dirtied: Vec<u64> = Vec::new();
        for &line in &lines {
            let addr = Addr(line * 64);
            let res = sys.access(0, addr, true);
            dirtied.push(addr.0);
            written_back.extend(res.writebacks.iter().map(|a| a.0));
        }
        written_back.extend(sys.drop_all().iter().map(|a| a.0));
        written_back.sort_unstable();
        written_back.dedup();
        dirtied.sort_unstable();
        dirtied.dedup();
        for d in dirtied {
            prop_assert!(
                written_back.binary_search(&d).is_ok(),
                "dirty line {:#x} vanished",
                d
            );
        }
    }

    #[test]
    fn flush_always_empties_the_line(
        lines in prop::collection::vec(0u64..256, 1..100),
        flush_line in 0u64..256,
    ) {
        let mut sys = CacheSystem::new(CacheParams::default(), 2, PrefetchConfig::all());
        for (i, &line) in lines.iter().enumerate() {
            sys.access(i % 2, Addr(line * 64), i % 3 == 0);
        }
        sys.flush(Addr(flush_line * 64), FlushMode::Invalidate);
        prop_assert_eq!(sys.contains(0, Addr(flush_line * 64)), None);
        prop_assert_eq!(sys.contains(1, Addr(flush_line * 64)), None);
        // Flushing again reports clean.
        prop_assert!(!sys.flush(Addr(flush_line * 64), FlushMode::Invalidate));
    }

    #[test]
    fn clean_flush_preserves_read_hits(
        lines in prop::collection::vec(0u64..8, 1..40),
    ) {
        let mut sys = CacheSystem::new(CacheParams::default(), 1, PrefetchConfig::none());
        for &line in &lines {
            sys.access(0, Addr(line * 64), true);
            sys.flush(Addr(line * 64), FlushMode::WriteBackRetain);
            // G2 semantics: the line stays resident after clwb.
            prop_assert!(sys.contains(0, Addr(line * 64)).is_some());
        }
    }
}

/// The saved regression seed from `props.proptest-regressions`
/// (`lines = [1, 0, 0], flush_line = 0` for `flush_always_empties_the_line`),
/// pinned as a plain deterministic test. The vendored offline `proptest`
/// stand-in does not replay regression files, so this case must be spelled
/// out to keep running in CI.
#[test]
fn flush_regression_seed_line_zero_accessed_on_both_threads() {
    let mut sys = CacheSystem::new(CacheParams::default(), 2, PrefetchConfig::all());
    for (i, &line) in [1u64, 0, 0].iter().enumerate() {
        sys.access(i % 2, Addr(line * 64), i % 3 == 0);
    }
    sys.flush(Addr(0), FlushMode::Invalidate);
    assert_eq!(sys.contains(0, Addr(0)), None);
    assert_eq!(sys.contains(1, Addr(0)), None);
    assert!(
        !sys.flush(Addr(0), FlushMode::Invalidate),
        "second flush must report the line clean"
    );
}
