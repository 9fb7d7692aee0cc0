//! Cacheline-Conscious Extendible Hashing (CCEH).
//!
//! Layout follows §4.1 of the paper (Figure 9): a global *directory* of
//! segment pointers, 16 KB *segments* of 256 cacheline-sized *buckets*
//! plus a metadata cacheline, and 16-byte key-value pairs (4 per bucket).
//! Collisions are handled with linear probing over up to four adjacent
//! buckets, as CCEH does, which is what gives bucket accesses their spatial
//! locality on the read buffer.
//!
//! A key insertion therefore performs the paper's signature access
//! pattern: three dependent random reads (directory entry → segment
//! metadata → bucket) followed by a small write and a persistence barrier.
//! [`Cceh::insert_instrumented`] attributes simulated cycles to those
//! phases, reproducing Table 1, and [`Cceh::prefetch_for_key`] is the
//! speculative helper-thread trace (loads only) of the §4.1 optimization.

use pmem::PmemEnv;
use simbase::{Addr, Cycles, CACHELINE_BYTES};

/// Key-value slots per 64 B bucket (16 B pairs).
pub const SLOTS_PER_BUCKET: u64 = 4;
/// Buckets per segment.
pub const BUCKETS_PER_SEGMENT: u64 = 256;
/// Linear-probing distance (adjacent buckets searched on collision).
pub const PROBE_BUCKETS: u64 = 4;
/// Bytes per segment: one metadata cacheline plus the buckets.
pub const SEGMENT_BYTES: u64 = CACHELINE_BYTES + BUCKETS_PER_SEGMENT * CACHELINE_BYTES;

/// Modelled cost of computing the hash (pure compute).
const HASH_CYCLES: Cycles = 25;

/// Directory header: [0] global depth; entries start one cacheline in.
const DIR_HEADER_BYTES: u64 = 64;

/// Largest supported global depth (2^20 segments ≈ 16 GB of table).
const MAX_GLOBAL_DEPTH: u64 = 20;

fn hash_key(key: u64) -> u64 {
    // fmix64: full-avalanche, cheap, stable.
    let mut k = key.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k = (k ^ (k >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

/// Per-phase cycle attribution of one insert (Table 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct InsertBreakdown {
    /// Directory indexing (hash + depth + entry load).
    pub directory: Cycles,
    /// The segment-metadata random read.
    pub segment_meta: Cycles,
    /// Bucket probing and the pair store.
    pub bucket: Cycles,
    /// Cacheline flushes and fences.
    pub persists: Cycles,
    /// Everything else (splits, bookkeeping).
    pub misc: Cycles,
}

impl InsertBreakdown {
    /// Total cycles across phases.
    pub fn total(&self) -> Cycles {
        self.directory + self.segment_meta + self.bucket + self.persists + self.misc
    }

    /// Accumulates another breakdown.
    pub fn add(&mut self, other: &InsertBreakdown) {
        self.directory += other.directory;
        self.segment_meta += other.segment_meta;
        self.bucket += other.bucket;
        self.persists += other.persists;
        self.misc += other.misc;
    }
}

/// The CCEH hash table.
#[derive(Debug, Clone)]
pub struct Cceh {
    dir: Addr,
    /// Volatile mirror of the number of stored pairs.
    len: u64,
}

impl Cceh {
    /// Creates a table with `2^initial_depth` segments.
    ///
    /// # Examples
    ///
    /// ```
    /// use pmds::Cceh;
    /// use pmem::HostEnv;
    ///
    /// let mut env = HostEnv::new();
    /// let mut table = Cceh::create(&mut env, 2);
    /// table.insert(&mut env, 7, 700);
    /// assert_eq!(table.get(&mut env, 7), Some(700));
    /// assert_eq!(table.get(&mut env, 8), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `initial_depth` exceeds the supported maximum.
    pub fn create<E: PmemEnv>(env: &mut E, initial_depth: u64) -> Self {
        assert!(initial_depth <= MAX_GLOBAL_DEPTH, "depth too large");
        let entries = 1u64 << MAX_GLOBAL_DEPTH;
        // The directory is allocated at its maximum size so doubling only
        // rewrites entries (no relocation); this mirrors CCEH reserving
        // directory space up front.
        let dir = env.alloc(DIR_HEADER_BYTES + entries * 8, 4096);
        env.store_u64(dir, initial_depth);
        env.persist(dir, 8);
        let n = 1u64 << initial_depth;
        for i in 0..n {
            let seg = Self::alloc_segment(env, initial_depth, i);
            env.store_u64(dir.add(DIR_HEADER_BYTES + i * 8), seg.0);
        }
        env.persist(dir.add(DIR_HEADER_BYTES), n * 8);
        Cceh { dir, len: 0 }
    }

    /// Reattaches to an existing table after a restart or crash.
    ///
    /// The directory address is the table's root; the volatile length is
    /// recomputed lazily (it is only used for reporting).
    pub fn recover<E: PmemEnv>(env: &mut E, dir: Addr) -> Self {
        let mut t = Cceh { dir, len: 0 };
        t.len = t.count_pairs(env);
        t
    }

    /// Returns the directory address (the persistent root of the table).
    pub fn root(&self) -> Addr {
        self.dir
    }

    /// Returns the number of stored pairs (volatile mirror).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc_segment<E: PmemEnv>(env: &mut E, local_depth: u64, pattern: u64) -> Addr {
        let seg = env.alloc(SEGMENT_BYTES, 256);
        // Metadata cacheline: local depth and directory-prefix pattern.
        env.store_u64(seg, local_depth);
        env.store_u64(seg.add(8), pattern);
        env.persist(seg, 16);
        seg
    }

    fn dir_entry_addr(&self, idx: u64) -> Addr {
        self.dir.add(DIR_HEADER_BYTES + idx * 8)
    }

    fn bucket_addr(seg: Addr, bucket: u64) -> Addr {
        seg.add(CACHELINE_BYTES + bucket * CACHELINE_BYTES)
    }

    fn dir_index(hash: u64, global_depth: u64) -> u64 {
        if global_depth == 0 {
            0
        } else {
            hash >> (64 - global_depth)
        }
    }

    fn bucket_index(hash: u64) -> u64 {
        hash & (BUCKETS_PER_SEGMENT - 1)
    }

    /// Looks up `key`.
    pub fn get<E: PmemEnv>(&self, env: &mut E, key: u64) -> Option<u64> {
        env.compute(HASH_CYCLES);
        let hash = hash_key(key);
        let gd = env.load_u64(self.dir);
        let seg = Addr(env.load_u64(self.dir_entry_addr(Self::dir_index(hash, gd))));
        let b0 = Self::bucket_index(hash);
        let _ = env.load_u64_pair(seg, Self::bucket_addr(seg, b0));
        for p in 0..PROBE_BUCKETS {
            let b = (b0 + p) % BUCKETS_PER_SEGMENT;
            let baddr = Self::bucket_addr(seg, b);
            for s in 0..SLOTS_PER_BUCKET {
                let k = env.load_u64(baddr.add(s * 16));
                if k == key {
                    return Some(env.load_u64(baddr.add(s * 16 + 8)));
                }
            }
        }
        None
    }

    /// Inserts (or updates) `key -> value`.
    pub fn insert<E: PmemEnv>(&mut self, env: &mut E, key: u64, value: u64) {
        self.insert_instrumented(env, key, value);
    }

    /// Inserts `key -> value`, attributing cycles to phases (Table 1).
    ///
    /// Keys must be nonzero (zero marks an empty slot).
    ///
    /// # Panics
    ///
    /// Panics if `key` is zero.
    pub fn insert_instrumented<E: PmemEnv>(
        &mut self,
        env: &mut E,
        key: u64,
        value: u64,
    ) -> InsertBreakdown {
        assert!(key != 0, "key 0 is reserved as the empty marker");
        let mut bd = InsertBreakdown::default();
        loop {
            let t0 = env.now();
            env.compute(HASH_CYCLES);
            let hash = hash_key(key);
            let gd = env.load_u64(self.dir);
            let dir_idx = Self::dir_index(hash, gd);
            let seg = Addr(env.load_u64(self.dir_entry_addr(dir_idx)));
            let t1 = env.now();
            bd.directory += t1 - t0;

            // The expensive random-read step: segment metadata plus the
            // first probe bucket. The two addresses both derive from the
            // directory entry, so an out-of-order core issues them in
            // parallel (memory-level parallelism).
            let b0 = Self::bucket_index(hash);
            let (_local_depth, _first_slot) = env.load_u64_pair(seg, Self::bucket_addr(seg, b0));
            let t2 = env.now();
            bd.segment_meta += t2 - t1;

            // Probe up to four adjacent buckets for the key or a free slot.
            let mut target: Option<Addr> = None;
            'probe: for p in 0..PROBE_BUCKETS {
                let b = (b0 + p) % BUCKETS_PER_SEGMENT;
                let baddr = Self::bucket_addr(seg, b);
                for s in 0..SLOTS_PER_BUCKET {
                    let slot = baddr.add(s * 16);
                    let k = env.load_u64(slot);
                    if k == key || k == 0 {
                        if k == 0 {
                            self.len += 1;
                        }
                        target = Some(slot);
                        break 'probe;
                    }
                }
            }
            if let Some(slot) = target {
                env.store_u64(slot, key);
                env.store_u64(slot.add(8), value);
                let t3 = env.now();
                bd.bucket += t3 - t2;
                env.persist(slot, 16);
                bd.persists += env.now() - t3;
                return bd;
            }
            let t3 = env.now();
            bd.bucket += t3 - t2;
            // All probed buckets full: split the segment and retry.
            self.split(env, seg, dir_idx);
            bd.misc += env.now() - t3;
        }
    }

    /// Splits the segment behind `dir_idx` (copy-split into two fresh
    /// segments, then atomically repoint the directory entries).
    fn split<E: PmemEnv>(&mut self, env: &mut E, seg: Addr, dir_idx: u64) {
        let gd = env.load_u64(self.dir);
        let local_depth = env.load_u64(seg);
        if local_depth == gd {
            self.double_directory(env, gd);
            // Retry the split under the doubled directory.
            let new_gd = gd + 1;
            let new_idx = dir_idx << 1;
            self.split_at(env, seg, new_gd, local_depth, new_idx);
        } else {
            self.split_at(env, seg, gd, local_depth, dir_idx);
        }
    }

    fn split_at<E: PmemEnv>(
        &mut self,
        env: &mut E,
        seg: Addr,
        gd: u64,
        local_depth: u64,
        dir_idx: u64,
    ) {
        let new_depth = local_depth + 1;
        // Pattern of the first directory slot covered by this segment.
        let span = 1u64 << (gd - local_depth);
        let first = dir_idx & !(span - 1);
        let pat0 = first >> (gd - new_depth); // left-half prefix pattern
        let s0 = Self::alloc_segment(env, new_depth, pat0);
        let s1 = Self::alloc_segment(env, new_depth, pat0 + 1);
        // Redistribute: the deciding bit is bit (64 - new_depth) of the
        // hash, i.e. whether the hash prefix falls in the left or right
        // half of the old segment's directory span.
        for b in 0..BUCKETS_PER_SEGMENT {
            let baddr = Self::bucket_addr(seg, b);
            for s in 0..SLOTS_PER_BUCKET {
                let k = env.load_u64(baddr.add(s * 16));
                if k == 0 {
                    continue;
                }
                let v = env.load_u64(baddr.add(s * 16 + 8));
                let h = hash_key(k);
                let new_seg = if (Self::dir_index(h, new_depth) & 1) == 0 {
                    s0
                } else {
                    s1
                };
                Self::raw_insert(env, new_seg, h, k, v);
            }
        }
        // Persist both new segments wholesale before publishing them.
        pmem::persist_range_unfenced(env, s0, SEGMENT_BYTES);
        pmem::persist_range_unfenced(env, s1, SEGMENT_BYTES);
        env.sfence();
        // Publish: flip directory entries (8-byte atomic each), left half
        // to s0, right half to s1.
        let half = span / 2;
        for i in 0..span {
            let target = if i < half { s0 } else { s1 };
            env.store_u64(self.dir_entry_addr(first + i), target.0);
        }
        pmem::persist_range(env, self.dir_entry_addr(first), span * 8);
    }

    /// Inserts into a fresh (private) segment during a split, without
    /// persistence (the whole segment is persisted afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the redistribution overflows the probe window, which
    /// cannot happen when splitting a valid segment.
    fn raw_insert<E: PmemEnv>(env: &mut E, seg: Addr, hash: u64, key: u64, value: u64) {
        let b0 = Self::bucket_index(hash);
        for p in 0..PROBE_BUCKETS {
            let b = (b0 + p) % BUCKETS_PER_SEGMENT;
            let baddr = Self::bucket_addr(seg, b);
            for s in 0..SLOTS_PER_BUCKET {
                let slot = baddr.add(s * 16);
                if env.load_u64(slot) == 0 {
                    env.store_u64(slot, key);
                    env.store_u64(slot.add(8), value);
                    return;
                }
            }
        }
        panic!("split redistribution overflowed the probe window");
    }

    fn double_directory<E: PmemEnv>(&mut self, env: &mut E, gd: u64) {
        assert!(gd < MAX_GLOBAL_DEPTH, "directory at maximum depth");
        let n = 1u64 << gd;
        // Expand in place from the back so no entry is overwritten before
        // it is copied: entry i maps to entries 2i and 2i+1.
        for i in (0..n).rev() {
            let v = env.load_u64(self.dir_entry_addr(i));
            env.store_u64(self.dir_entry_addr(2 * i), v);
            env.store_u64(self.dir_entry_addr(2 * i + 1), v);
        }
        pmem::persist_range(env, self.dir_entry_addr(0), 2 * n * 8);
        env.store_u64(self.dir, gd + 1);
        env.persist(self.dir, 8);
    }

    /// Removes `key`, returning its value if present.
    pub fn remove<E: PmemEnv>(&mut self, env: &mut E, key: u64) -> Option<u64> {
        env.compute(HASH_CYCLES);
        let hash = hash_key(key);
        let gd = env.load_u64(self.dir);
        let seg = Addr(env.load_u64(self.dir_entry_addr(Self::dir_index(hash, gd))));
        let b0 = Self::bucket_index(hash);
        for p in 0..PROBE_BUCKETS {
            let b = (b0 + p) % BUCKETS_PER_SEGMENT;
            let baddr = Self::bucket_addr(seg, b);
            for s in 0..SLOTS_PER_BUCKET {
                let slot = baddr.add(s * 16);
                if env.load_u64(slot) == key {
                    let v = env.load_u64(slot.add(8));
                    env.store_u64(slot, 0);
                    env.persist(slot, 8);
                    self.len -= 1;
                    return Some(v);
                }
            }
        }
        None
    }

    /// The helper thread's speculative trace for `key` (§4.1): only the
    /// loads needed to walk directory → segment metadata → buckets, warming
    /// the AIT, the on-DIMM read buffer, and the CPU caches for the worker.
    pub fn prefetch_for_key<E: PmemEnv>(&self, env: &mut E, key: u64) {
        env.compute(HASH_CYCLES);
        let hash = hash_key(key);
        let gd = env.load_u64(self.dir);
        let seg = Addr(env.load_u64(self.dir_entry_addr(Self::dir_index(hash, gd))));
        let b0 = Self::bucket_index(hash);
        // Metadata and the first probe bucket, in parallel like the
        // worker; the remaining probe buckets have spatial locality.
        let _ = env.load_u64_pair(seg, Self::bucket_addr(seg, b0));
    }

    /// Counts stored pairs by scanning every distinct segment (recovery /
    /// verification; not a fast path).
    pub fn count_pairs<E: PmemEnv>(&self, env: &mut E) -> u64 {
        let gd = env.load_u64(self.dir);
        let n = 1u64 << gd;
        let mut segs = std::collections::BTreeSet::new();
        for i in 0..n {
            segs.insert(env.load_u64(self.dir_entry_addr(i)));
        }
        let mut count = 0;
        for seg in segs {
            let seg = Addr(seg);
            for b in 0..BUCKETS_PER_SEGMENT {
                let baddr = Self::bucket_addr(seg, b);
                for s in 0..SLOTS_PER_BUCKET {
                    if env.load_u64(baddr.add(s * 16)) != 0 {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpucache::PrefetchConfig;
    use optane_core::{CrashPolicy, Machine, MachineConfig};
    use pmem::{HostEnv, SimEnv};

    #[test]
    fn insert_get_round_trip() {
        let mut env = HostEnv::new();
        let mut t = Cceh::create(&mut env, 2);
        for k in 1..=500u64 {
            t.insert(&mut env, k, k * 10);
        }
        for k in 1..=500u64 {
            assert_eq!(t.get(&mut env, k), Some(k * 10), "key {k}");
        }
        assert_eq!(t.get(&mut env, 501), None);
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn update_overwrites() {
        let mut env = HostEnv::new();
        let mut t = Cceh::create(&mut env, 1);
        t.insert(&mut env, 5, 50);
        t.insert(&mut env, 5, 99);
        assert_eq!(t.get(&mut env, 5), Some(99));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_deletes() {
        let mut env = HostEnv::new();
        let mut t = Cceh::create(&mut env, 1);
        t.insert(&mut env, 7, 70);
        assert_eq!(t.remove(&mut env, 7), Some(70));
        assert_eq!(t.get(&mut env, 7), None);
        assert_eq!(t.remove(&mut env, 7), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn grows_through_many_splits() {
        let mut env = HostEnv::new();
        let mut t = Cceh::create(&mut env, 1);
        let n = 20_000u64;
        for k in 1..=n {
            t.insert(&mut env, k, k);
        }
        for k in (1..=n).step_by(97) {
            assert_eq!(t.get(&mut env, k), Some(k), "key {k}");
        }
        assert_eq!(t.count_pairs(&mut env), n);
    }

    #[test]
    fn instrumented_breakdown_accounts_all_time() {
        let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1));
        let tid = m.spawn(0);
        let mut env = SimEnv::new(&mut m, tid);
        let mut t = Cceh::create(&mut env, 4);
        let start = env.now();
        let mut total = InsertBreakdown::default();
        for k in 1..=100u64 {
            let bd = t.insert_instrumented(&mut env, k * 7919, k);
            total.add(&bd);
        }
        let elapsed = env.now() - start;
        assert_eq!(total.total(), elapsed, "phases partition insert time");
        assert!(total.persists > 0);
        assert!(total.segment_meta > 0);
    }

    #[test]
    fn fenced_inserts_survive_crash() {
        let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1));
        let tid = m.spawn(0);
        let mut env = SimEnv::new(&mut m, tid);
        let mut t = Cceh::create(&mut env, 2);
        for k in 1..=200u64 {
            t.insert(&mut env, k, k + 1000);
        }
        let root = t.root();
        drop(env);
        m.power_fail(CrashPolicy::LoseUnflushed);
        let mut env = SimEnv::new(&mut m, tid);
        let t = Cceh::recover(&mut env, root);
        assert_eq!(t.len(), 200);
        for k in 1..=200u64 {
            assert_eq!(t.get(&mut env, k), Some(k + 1000), "key {k} after crash");
        }
    }

    #[test]
    fn differential_host_vs_sim() {
        let mut host = HostEnv::new();
        let mut th = Cceh::create(&mut host, 2);
        let mut m = Machine::new(MachineConfig::g2(PrefetchConfig::all(), 6));
        let tid = m.spawn(0);
        let mut sim = SimEnv::new(&mut m, tid);
        let mut ts = Cceh::create(&mut sim, 2);
        for k in 1..=2000u64 {
            let key = k.wrapping_mul(0x9E37_79B9).max(1);
            th.insert(&mut host, key, k);
            ts.insert(&mut sim, key, k);
        }
        for k in 1..=2000u64 {
            let key = k.wrapping_mul(0x9E37_79B9).max(1);
            assert_eq!(th.get(&mut host, key), ts.get(&mut sim, key));
        }
    }

    #[test]
    fn prefetch_trace_is_read_only() {
        let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1));
        let tid = m.spawn(0);
        let mut env = SimEnv::new(&mut m, tid);
        let mut t = Cceh::create(&mut env, 2);
        t.insert(&mut env, 42, 1);
        drop(env);
        let before = m.metrics().telemetry;
        let mut env = SimEnv::new(&mut m, tid);
        t.prefetch_for_key(&mut env, 42);
        drop(env);
        let d = m.metrics().telemetry.delta(&before);
        assert_eq!(d.demand.write, 0, "helper performs no stores");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_key_rejected() {
        let mut env = HostEnv::new();
        let mut t = Cceh::create(&mut env, 1);
        t.insert(&mut env, 0, 1);
    }
}
