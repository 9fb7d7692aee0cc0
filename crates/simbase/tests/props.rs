//! Property tests for the foundation types.

mod lru_model;

use std::collections::BTreeMap;

use lru_model::ModelLru;
use proptest::prelude::*;
use simbase::{
    Addr, AddrMap, BandwidthGate, HitMiss, Server, ServerPool, SetAssoc, SplitMix64,
    ADDR_MAP_GC_MIN, CACHELINE_BYTES, XPLINE_BYTES,
};

/// One step of an `AddrMap` script: `(op, page_key, key_index, value)`.
/// `page_key` picks a page-number key (`key_index`) instead of a
/// cacheline-aligned address key (`key_index` cachelines past a PM-like
/// base).
type MapStep = (u8, bool, u64, u64);

fn script_key(page_key: bool, index: u64) -> u64 {
    if page_key {
        index
    } else {
        0x1000_0000_0000 + index * CACHELINE_BYTES
    }
}

/// [`AddrMap::collect`] on a `BTreeMap` model whose watermark is `gc_at`.
/// Returns `true` if it walked the map.
fn model_collect(
    model: &mut BTreeMap<u64, u64>,
    gc_at: &mut usize,
    keep: impl Fn(u64, u64) -> bool,
) -> bool {
    if model.len() < *gc_at {
        return false;
    }
    model.retain(|&k, &mut v| keep(k, v));
    *gc_at = (model.len() * 2).max(ADDR_MAP_GC_MIN);
    true
}

/// The machine's PM and DRAM address-space bases (`optane_core::PM_BASE`
/// and `DRAM_BASE`), as cacheline numbers.
const PM_BASE_LINE: u64 = 0x0000_1000_0000_0000 / 64;
const DRAM_BASE_LINE: u64 = 0x0000_2000_0000_0000 / 64;

/// Items per `SetAssoc` script pool: 32 per region, more than the widest
/// (20-way) set holds.
const POOL: u64 = 128;

/// Item `i` of a pool of four regions: line 0, the PM and DRAM bases and
/// the top of the line space. A region's items lie `sets` apart, so each
/// region crowds one set whatever the set count, and its tags run from
/// the empty tag's neighbour (item 0) to the widest (the top).
fn pool_item(sets: u64, i: u64) -> u64 {
    let k = i / 4 * sets;
    match i % 4 {
        0 => k,
        1 => PM_BASE_LINE + k,
        2 => DRAM_BASE_LINE + k,
        _ => u64::MAX / 64 - k,
    }
}

/// Returns `true` if `item`'s tag (`item / sets + 1`) needs 64 bits.
fn is_wide_item(sets: u64, item: u64) -> bool {
    item / sets >= u64::from(u32::MAX)
}

/// Fills `item` into both tables and checks the victims agree.
fn fill_both(table: &mut SetAssoc, model: &mut ModelLru, item: u64, dirty: bool) {
    let got = table.fill(item, dirty).map(|e| (e.item, e.dirty));
    assert_eq!(got, model.fill(item, dirty), "victim of filling {item:#x}");
}

/// Runs `ops` (`(kind, pool index, dirty)`) against a table of `sets` x
/// `ways` and the model, checking every result, the occupancy and the
/// counters as it goes. `kind` is a percentage: fills and accesses
/// dominate, so sets fill up and evict between the rare drains (98) and
/// resets (99). The first half of the script uses only items with narrow
/// tags; then a wide tag arrives, and a table of up to 12 ways, which
/// starts narrow, must widen keeping every resident item's slot; the
/// second half uses the whole pool.
fn check_against_model(sets: u64, ways: usize, ops: &[(u64, u64, bool)]) {
    let mut table = SetAssoc::new(sets, ways);
    let mut model = ModelLru::new(sets, ways);
    let starts_wide = ways > 12;
    assert_eq!(table.is_wide(), starts_wide);
    let widen_at = ops.len() / 2;
    for (n, &(kind, i, dirty)) in ops.iter().enumerate() {
        if n == widen_at {
            assert_eq!(
                table.is_wide(),
                starts_wide,
                "narrow items widened the table"
            );
            let slots: Vec<_> = (0..POOL)
                .map(|i| table.slot_of(pool_item(sets, i)))
                .collect();
            fill_both(&mut table, &mut model, pool_item(sets, 3), true);
            assert!(table.is_wide(), "a tag >= 2^32 widens the table");
            for (i, slot) in (0..POOL).zip(slots) {
                let item = pool_item(sets, i);
                if item != pool_item(sets, 3) && model.peek(item) {
                    assert_eq!(table.slot_of(item), slot, "slot of {item:#x} moved");
                }
            }
        }
        let mut item = pool_item(sets, i);
        if n < widen_at && is_wide_item(sets, item) {
            item = pool_item(sets, i / 4 * 4);
        }
        match kind {
            0..=44 => fill_both(&mut table, &mut model, item, dirty),
            45..=69 => assert_eq!(table.access(item, dirty), model.access(item, dirty)),
            70..=74 => {
                // The repeat path: a slot lookup, then a slot-checked
                // touch that must count and refresh like a clean access.
                let slot = table.slot_of(item);
                assert_eq!(slot.is_some(), model.peek(item));
                match slot {
                    Some(slot) => {
                        assert!(table.touch(slot, item));
                        assert!(model.access(item, false));
                    }
                    None => assert!(!table.touch(i as usize % ways, item)),
                }
            }
            75..=82 => assert_eq!(table.peek(item), model.peek(item)),
            83..=90 => assert_eq!(table.invalidate(item), model.invalidate(item)),
            91..=97 => assert_eq!(table.clean(item), model.clean(item)),
            98 => {
                let mut got = table.drain_dirty();
                got.sort();
                assert_eq!(got, model.drain_dirty());
            }
            _ => {
                table.reset();
                model.reset();
                assert_eq!(
                    table.is_wide(),
                    starts_wide,
                    "reset returns to the first width"
                );
                assert_eq!(table.footprint(), 0, "reset drops the table");
            }
        }
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.len() == 0);
        assert_eq!(table.counters(), HitMiss::of(model.hits, model.misses));
    }
    // Final residency agrees.
    for i in 0..POOL {
        let item = pool_item(sets, i);
        assert_eq!(table.peek(item), model.peek(item), "item {item:#x}");
    }
}

#[test]
fn a_table_that_was_never_filled_misses_everything() {
    // The table is allocated by the first fill; before it, and after a
    // reset drops it, every query must answer as for an empty table.
    let sets = 40_000;
    let mut table = SetAssoc::new(sets, 11);
    for _ in 0..2 {
        for i in 0..POOL {
            let item = pool_item(sets, i);
            assert!(!table.peek(item));
            assert_eq!(table.slot_of(item), None);
            assert!(!table.touch(i as usize, item));
            assert_eq!(table.invalidate(item), None);
            assert_eq!(table.clean(item), None);
        }
        assert!(table.is_empty());
        assert!(table.drain_dirty().is_empty());
        assert_eq!(table.counters(), HitMiss::new());
        assert_eq!(table.footprint(), 0);
        table.fill(pool_item(sets, 3), true);
        assert!(table.peek(pool_item(sets, 3)));
        table.reset();
    }
    assert!(!table.access(1, false), "a miss is counted");
    assert_eq!(table.counters(), HitMiss::of(0, 1));
}

proptest! {
    #[test]
    fn cache_matches_lru_model(
        ops in prop::collection::vec((0u64..100, 0u64..POOL, any::<bool>()), 1..300),
    ) {
        // 4 sets x 4 ways, and a non-power-of-two 5 sets x 3 ways: small
        // enough to stress eviction constantly.
        check_against_model(4, 4, &ops);
        check_against_model(5, 3, &ops);
        // The associativities the G1 and G2 hierarchies configure, at one
        // and two sets.
        for ways in [8, 11, 12, 16, 20] {
            for sets in [1, 2] {
                check_against_model(sets, ways, &ops);
            }
        }
        // The real geometries: L1 32 KiB/8-way and 48 KiB/12-way, L2
        // 1 MiB/16-way and 1.25 MiB/20-way, L3 27.5 MB/11-way and
        // 36 MiB/12-way.
        for (sets, ways) in [(64, 8), (64, 12), (1024, 16), (1024, 20), (40_000, 11), (49_152, 12)] {
            check_against_model(sets, ways, &ops);
        }
    }

    #[test]
    fn addr_rounding_is_idempotent_and_ordered(a in any::<u64>()) {
        let addr = Addr(a);
        prop_assert_eq!(addr.cacheline().cacheline(), addr.cacheline());
        prop_assert_eq!(addr.xpline().xpline(), addr.xpline());
        prop_assert!(addr.xpline().0 <= addr.cacheline().0);
        prop_assert!(addr.cacheline().0 <= addr.0);
        prop_assert!(addr.0 - addr.cacheline().0 < CACHELINE_BYTES);
        prop_assert!(addr.0 - addr.xpline().0 < XPLINE_BYTES);
    }

    #[test]
    fn cacheline_index_is_consistent_with_rounding(a in any::<u64>()) {
        let addr = Addr(a);
        let reconstructed =
            addr.xpline().0 + addr.cacheline_in_xpline() as u64 * CACHELINE_BYTES;
        prop_assert_eq!(reconstructed, addr.cacheline().0);
    }

    #[test]
    fn covering_iterator_covers_exactly(start in 0u64..1_000_000, len in 0u64..2048) {
        let lines: Vec<Addr> = simbase::addr::cachelines_covering(Addr(start), len).collect();
        if len == 0 {
            prop_assert!(lines.is_empty());
        } else {
            // Every byte of the range lies in exactly one returned line.
            for b in [start, start + len / 2, start + len - 1] {
                let cl = Addr(b).cacheline();
                prop_assert_eq!(lines.iter().filter(|&&l| l == cl).count(), 1);
            }
            // Lines are contiguous and aligned.
            for w in lines.windows(2) {
                prop_assert_eq!(w[1].0 - w[0].0, CACHELINE_BYTES);
            }
            prop_assert!(lines[0].0 <= start);
            prop_assert!(lines.last().unwrap().0 + CACHELINE_BYTES >= start + len);
        }
    }

    #[test]
    fn rng_gen_range_is_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.gen_range(bound) < bound);
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(any::<u32>(), 0..100)) {
        let mut expected = v.clone();
        SplitMix64::new(seed).shuffle(&mut v);
        expected.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(v, expected);
    }

    #[test]
    fn server_completions_are_monotone_and_work_conserving(
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..50),
    ) {
        let mut sorted = reqs.clone();
        sorted.sort();
        let mut s = Server::new();
        let mut last_completion = 0;
        let mut total_service = 0;
        for (now, service) in &sorted {
            let done = s.request(*now, *service);
            prop_assert!(done >= now + service, "no time travel");
            prop_assert!(done >= last_completion, "FIFO completions");
            last_completion = done;
            total_service += service;
        }
        prop_assert_eq!(s.busy_time(), total_service);
        // Work conservation: finishing no later than serial-from-zero.
        prop_assert!(last_completion <= sorted.last().unwrap().0 + total_service);
    }

    #[test]
    fn pool_is_never_slower_than_single_server(
        reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..40),
        width in 2usize..6,
    ) {
        let mut sorted = reqs.clone();
        sorted.sort();
        let mut single = Server::new();
        let mut pool = ServerPool::new(width);
        let mut single_last = 0;
        let mut pool_last = 0;
        for (now, service) in &sorted {
            single_last = single.request(*now, *service).max(single_last);
            pool_last = pool.request(*now, *service).max(pool_last);
        }
        prop_assert!(pool_last <= single_last);
    }

    #[test]
    fn gate_never_reorders_and_respects_interval(
        arrivals in prop::collection::vec(0u64..50_000, 1..60),
        interval in 1u64..1000,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut g = BandwidthGate::new(interval, 8);
        let mut last = 0;
        for now in sorted {
            let (accept, done) = g.accept(now);
            prop_assert!(accept >= now);
            prop_assert!(done >= accept + interval);
            prop_assert!(done >= last + interval, "drain rate bounded");
            last = done;
        }
    }

    #[test]
    fn addr_map_matches_a_btreemap_model(
        script in prop::collection::vec((0u8..40, any::<bool>(), 0u64..300, any::<u64>()), 0..400),
    ) {
        let script: Vec<MapStep> = script;
        let mut map: AddrMap<u64> = AddrMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut gc_at = ADDR_MAP_GC_MIN;
        for (op, page_key, index, value) in script {
            let key = script_key(page_key, index);
            match op {
                0..=19 => prop_assert_eq!(map.insert(key, value), model.insert(key, value)),
                20..=29 => prop_assert_eq!(map.remove(key), model.remove(&key)),
                30..=35 => {
                    *map.get_or_insert_with(key, || value) ^= 1;
                    *model.entry(key).or_insert(value) ^= 1;
                }
                36..=38 => {
                    // A pure predicate on the entry alone; below the
                    // collection watermark the map keeps everything.
                    let keep = |k: u64, v: u64| !(k / 64).wrapping_add(v).is_multiple_of(3);
                    map.collect(|k, &v| keep(k, v));
                    model_collect(&mut model, &mut gc_at, keep);
                }
                _ => {
                    map.clear();
                    model.clear();
                    gc_at = ADDR_MAP_GC_MIN;
                }
            }
            prop_assert_eq!(map.get(key), model.get(&key));
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        for (&k, v) in &model {
            prop_assert_eq!(map.get(k), Some(v));
        }
        let sorted: Vec<(u64, &u64)> = model.iter().map(|(&k, v)| (k, v)).collect();
        prop_assert_eq!(map.sorted_entries(), sorted);
        prop_assert_eq!(map.sorted_keys(), model.keys().copied().collect::<Vec<u64>>());
        prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
    }

    #[test]
    fn addr_map_collect_matches_a_btreemap_model(
        rounds in prop::collection::vec((1u64..8, 0u64..320, any::<u64>()), 1000..3000),
    ) {
        // Insert/expire rounds like the in-flight maps': each round stores
        // a few records that expire `life` rounds later, then collects
        // what has expired. The population crosses the watermark many
        // times, so the map must walk exactly when the model does.
        let mut map: AddrMap<u64> = AddrMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut gc_at = ADDR_MAP_GC_MIN;
        let mut walks = 0;
        for (round, &(inserts, life, seed)) in (0u64..).zip(&rounds) {
            let mut rng = SplitMix64::new(seed);
            for _ in 0..inserts {
                let key = script_key(rng.next_u64() & 1 == 0, rng.gen_range(8192));
                let expiry = round + life;
                prop_assert_eq!(map.insert(key, expiry), model.insert(key, expiry));
            }
            let probe = script_key(seed & 1 == 0, seed % 8192);
            if seed % 16 == 0 {
                prop_assert_eq!(map.remove(probe), model.remove(&probe));
            }
            map.collect(|_, &expiry| expiry > round);
            if model_collect(&mut model, &mut gc_at, |_, expiry| expiry > round) {
                walks += 1;
                let sorted: Vec<(u64, &u64)> = model.iter().map(|(&k, v)| (k, v)).collect();
                prop_assert_eq!(map.sorted_entries(), sorted);
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.collect_due(), model.len() >= gc_at);
            prop_assert_eq!(map.get(probe), model.get(&probe));
        }
        prop_assert!(walks > 0, "population never reached the watermark");
    }
}
