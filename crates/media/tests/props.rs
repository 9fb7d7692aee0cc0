//! Property tests for the media model: counter accounting, the AIT
//! against a model of per-set LRU lists, and the sparse store against
//! byte-array and page-map models.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simbase::{Addr, HitMiss, XPLINE_BYTES};
use xpmedia::{AitCache, MediaParams, SparseStore, XpMedia};

/// An AIT cache as a list of `(tag, last use)` per set: hit on a tag
/// match, fill a free way, or replace the least recently used entry.
struct ModelAit {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ModelAit {
    fn new(coverage_bytes: u64, ways: usize) -> Self {
        let entries = (coverage_bytes / 4096).max(1) as usize;
        ModelAit {
            sets: vec![Vec::new(); (entries / ways).max(1)],
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: Addr) -> bool {
        self.tick += 1;
        let (granule, n, tick) = (addr.0 / 4096, self.sets.len() as u64, self.tick);
        let (tag, set) = (granule / n, &mut self.sets[(granule % n) as usize]);
        if let Some(e) = set.iter_mut().find(|e| e.0 == tag) {
            e.1 = tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if set.len() < self.ways {
            set.push((tag, tick));
        } else if let Some(victim) = set.iter_mut().min_by_key(|e| e.1) {
            *victim = (tag, tick);
        }
        false
    }
}

/// Runs `ops` (`(kind, granule index)`; `kind` a percentage, 98 resets
/// the statistics and 99 everything) on an AIT of `coverage_bytes` and
/// `ways` and the model. The granules crowd the first, second and last
/// sets, 40 to a set, and a few lie at the PM base.
fn check_ait(coverage_bytes: u64, ways: usize, ops: &[(u64, u64)]) {
    let mut ait = AitCache::new(coverage_bytes, ways);
    let mut model = ModelAit::new(coverage_bytes, ways);
    let sets = model.sets.len() as u64;
    for &(kind, i) in ops {
        let set = [0, 1, sets - 1][(i % 3) as usize];
        let granule = match i % 16 {
            15 => 0x1000_0000_0000 / 4096 + i,
            _ => set + sets * (i / 3 % 40),
        };
        let addr = Addr(granule * 4096 + i % 4096);
        match kind {
            0..=97 => assert_eq!(ait.access(addr), model.access(addr), "{addr:?}"),
            98 => {
                ait.reset_stats();
                (model.hits, model.misses) = (0, 0);
            }
            _ => {
                ait.reset();
                model = ModelAit::new(coverage_bytes, ways);
            }
        }
        assert_eq!(ait.counters(), HitMiss::of(model.hits, model.misses));
    }
}

/// A sparse store as a map of whole 4 KB pages.
type PageModel = BTreeMap<u64, [u8; 4096]>;

fn model_write(model: &mut PageModel, addr: u64, data: &[u8]) {
    for (j, &b) in data.iter().enumerate() {
        let a = addr + j as u64;
        model.entry(a / 4096).or_insert([0; 4096])[(a % 4096) as usize] = b;
    }
}

/// Reads whole pages `first..first + count` of the model.
fn model_pages(model: &PageModel, first: u64, count: u64) -> Vec<u8> {
    (first..first + count)
        .flat_map(|n| model.get(&n).copied().unwrap_or([0; 4096]))
        .collect()
}

/// Checks the page set, every page's bytes, and a read of the three
/// chunks around `addr` (written pages, unwritten pages inside allocated
/// chunks, and unallocated chunks).
fn check_pages(store: &SparseStore, model: &PageModel, addr: u64) {
    assert_eq!(store.resident_pages(), model.len());
    let pages = store.sorted_pages();
    let numbers: Vec<u64> = pages.iter().map(|&(n, _)| n).collect();
    assert_eq!(numbers, model.keys().copied().collect::<Vec<_>>());
    for ((_, got), want) in pages.iter().zip(model.values()) {
        assert_eq!(*got, want.as_slice());
    }
    let start = (addr / 65536).saturating_sub(1) * 65536;
    let mut got = vec![0xAA; 3 * 65536];
    store.read(Addr(start), &mut got);
    assert!(got == model_pages(model, start / 4096, 48));
}

proptest! {
    #[test]
    fn media_counters_account_every_transaction(
        ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..200),
    ) {
        let mut m = XpMedia::new(MediaParams::default());
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut now = 0;
        for (xp, is_write) in ops {
            let addr = Addr(xp * XPLINE_BYTES);
            if is_write {
                now = m.write_xpline(now, addr);
                writes += 1;
            } else {
                now = m.read_xpline(now, addr);
                reads += 1;
            }
        }
        prop_assert_eq!(m.counters().read, reads * XPLINE_BYTES);
        prop_assert_eq!(m.counters().write, writes * XPLINE_BYTES);
        let ait = m.ait_counters();
        prop_assert_eq!(ait.total(), reads + writes, "every transaction consults the AIT");
    }

    #[test]
    fn media_completions_never_precede_service(
        xps in prop::collection::vec(0u64..64, 1..100),
    ) {
        let params = MediaParams::default();
        let min_service = params.read_latency;
        let mut m = XpMedia::new(params);
        for (i, xp) in xps.iter().enumerate() {
            let now = (i as u64) * 10;
            let done = m.read_xpline(now, Addr(xp * XPLINE_BYTES));
            prop_assert!(done >= now + min_service);
        }
    }

    #[test]
    fn ait_within_coverage_converges_to_hits(
        granules in prop::collection::vec(0u64..32, 10..200),
    ) {
        // 32 granules x 4 KB = 128 KB, well within 1 MB coverage: after
        // one touch, a granule never misses again.
        let mut ait = AitCache::new(1 << 20, 16);
        let mut touched = std::collections::HashSet::new();
        for g in granules {
            let hit = ait.access(Addr(g * 4096));
            prop_assert_eq!(hit, touched.contains(&g), "granule {}", g);
            touched.insert(g);
        }
    }

    #[test]
    fn ait_matches_a_per_set_lru_list_model(
        ops in prop::collection::vec((0u64..100, 0u64..4096), 1..600),
    ) {
        // The default 16 MB/16-way (256 sets); 12 MB, a non-power-of-two
        // 192 sets; and coverages below one set (3 granules, and none),
        // which still get one set.
        check_ait(16 << 20, 16, &ops);
        check_ait(12 << 20, 16, &ops);
        check_ait(3 * 4096, 16, &ops);
        check_ait(0, 4, &ops);
    }

    #[test]
    fn sparse_store_matches_a_page_map_model(
        ops in prop::collection::vec(
            (0u64..100, 0u64..4, 0u64..3 * 65536, 1usize..9000, any::<u8>()),
            1..40,
        ),
    ) {
        // Writes of up to two pages start just below a chunk boundary, at
        // line 0, at 1 TB and at the PM base, so they straddle pages and
        // chunks and leave unwritten pages inside allocated chunks.
        let mut store = SparseStore::new();
        let mut model = PageModel::new();
        for (kind, region, offset, len, seed) in ops {
            let addr = [0, 2 * 65536 - 8192, 1 << 40, 0x1000_0000_0000][region as usize] + offset;
            // Every fifth write stores zeros: the page is resident all
            // the same.
            let data: Vec<u8> = (0..len)
                .map(|j| if seed % 5 == 0 { 0 } else { seed.wrapping_add((j as u8).wrapping_mul(7)) })
                .collect();
            match kind {
                0..=69 => {
                    store.write(Addr(addr), &data);
                    model_write(&mut model, addr, &data);
                }
                70..=89 => {
                    let page = addr / 4096;
                    let contents: Vec<u8> = (0..4096).map(|j| (j as u8) ^ seed).collect();
                    store.install_page(page, &contents);
                    model_write(&mut model, page * 4096, &contents);
                }
                90..=95 => store = store.clone(),
                _ => {
                    store.clear();
                    model.clear();
                }
            }
            check_pages(&store, &model, addr);
        }
        // A store rebuilt from its pages is the same store.
        let mut restored = SparseStore::new();
        for (n, contents) in store.sorted_pages() {
            restored.install_page(n, contents);
        }
        check_pages(&restored, &model, 0);
    }

    #[test]
    fn sparse_store_matches_vec_model(
        writes in prop::collection::vec((0usize..2000, prop::collection::vec(any::<u8>(), 1..64)), 1..60),
    ) {
        let mut store = SparseStore::new();
        let mut model = vec![0u8; 4096];
        for (off, data) in writes {
            let off = off.min(4096 - data.len());
            store.write(Addr(off as u64), &data);
            model[off..off + data.len()].copy_from_slice(&data);
        }
        let mut got = vec![0u8; 4096];
        store.read(Addr(0), &mut got);
        prop_assert_eq!(got, model);
    }
}
