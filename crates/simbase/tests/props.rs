//! Property tests for the foundation types.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simbase::{
    Addr, AddrMap, BandwidthGate, Server, ServerPool, SplitMix64, CACHELINE_BYTES, XPLINE_BYTES,
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

proptest! {
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
                    // A pure predicate on the entry alone.
                    let keep = |k: u64, v: u64| !(k / 64).wrapping_add(v).is_multiple_of(3);
                    map.retain(|k, &v| keep(k, v));
                    model.retain(|&k, &mut v| keep(k, v));
                }
                _ => {
                    map.clear();
                    model.clear();
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
}
