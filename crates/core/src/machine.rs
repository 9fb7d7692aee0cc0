//! The simulated two-socket machine.
//!
//! See the crate docs for the operation table. Design notes:
//!
//! - **Functional state.** PM bytes live in two layers: the *persistent
//!   image* (what survives a power failure) and a *volatile overlay* of
//!   cacheline-sized entries holding store data that has not reached the
//!   ADR domain yet. Flushes, non-temporal stores, and dirty evictions move
//!   overlay entries into the persistent image at WPQ-accept time. DRAM
//!   bytes live in a separate volatile image.
//! - **Timing.** Every simulated hardware thread owns a cycle clock;
//!   operations advance it by the modelled latency. Shared resources
//!   (media banks, WPQ drain, DRAM channels) produce contention through
//!   the controllers' server queues.
//! - **NUMA.** All memory lives on socket 0 (as in the paper's testbeds);
//!   threads on socket 1 pay remote penalties on reads and persists and
//!   use socket 1's own cache hierarchy.

use cpucache::{CacheSystem, FlushMode, HitLevel};
use imc::{DramController, PersistWait, PmController};
use simbase::{
    clock::ThreadClock, Addr, AddrMap, ByteCounter, Cycles, SplitMix64, CACHELINE_BYTES,
    XPLINE_BYTES,
};
use xpmedia::SparseStore;

use crate::config::MachineConfig;
use crate::crash::CrashImage;
use crate::fault::{FaultHooks, FaultStats, ReadError, ScrubOutcome};
use crate::metrics::{MachineMetrics, MtStats};
use crate::snapshot::{MachineSnapshot, SnapshotError, ThreadSnapshot};
use crate::telemetry::TelemetrySnapshot;
use crate::trace::{FenceKind, FlushKind, TraceEvent, TraceSink, TraceSlot};

/// Base of the persistent-memory physical region.
pub const PM_BASE: u64 = 0x0000_1000_0000_0000;
/// Base of the DRAM physical region.
pub const DRAM_BASE: u64 = 0x0000_2000_0000_0000;

/// Which memory device backs an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRegion {
    /// Optane persistent memory.
    Pm,
    /// DRAM.
    Dram,
}

/// Handle to a simulated hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub usize);

/// What happens to dirty (unflushed) PM cachelines at a power failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashPolicy {
    /// Dirty lines are lost; only ADR-protected data survives. The
    /// pessimistic baseline.
    LoseUnflushed,
    /// Each dirty line independently survives with the given probability —
    /// models the uncontrolled eviction order before a crash. Used by
    /// property-based crash-consistency tests.
    PersistDirtyFraction(f64),
    /// Every dirty line survives (what eADR guarantees).
    PersistAllDirty,
}

#[derive(Debug)]
struct HwThread {
    clock: ThreadClock,
    socket: usize,
    core: usize,
    /// Latest WPQ-accept time of an unfenced flush or nt-store.
    outstanding_accept: Cycles,
    /// Time of the thread's most recent `mfence`.
    last_mfence: Cycles,
    /// Simulated store-buffer occupancy: cachelines flushed or nt-stored
    /// since the last drain point (fence or locked RMW). Purely
    /// observational — timing flows through `outstanding_accept`.
    sb_pending: u64,
    /// High-water mark of `sb_pending` since the last metrics reset.
    sb_max: u64,
    /// Completed persist epochs: drain points that retired at least one
    /// pending store-buffer entry.
    persist_epochs: u64,
    /// Locked compare-and-swap operations issued.
    cas_ops: u64,
    /// CAS operations whose compare failed (no write happened).
    cas_failures: u64,
    /// Locked fetch-add operations issued.
    fetch_adds: u64,
}

impl HwThread {
    /// Records one more unfenced persist-pipeline entry.
    #[inline]
    fn sb_push(&mut self, n: u64) {
        self.sb_pending += n;
        self.sb_max = self.sb_max.max(self.sb_pending);
    }

    /// Drains the store buffer at a fence or locked RMW; counts an epoch
    /// only when the drain actually retired something.
    #[inline]
    fn sb_drain(&mut self) {
        if self.sb_pending > 0 {
            self.persist_epochs += 1;
            self.sb_pending = 0;
        }
    }
}

/// Garbage-collection threshold for the transient per-cacheline maps.
const MAP_GC_THRESHOLD: usize = 1 << 20;

/// Issue cost of one 512-bit streaming (AVX) load in the paper's
/// Algorithm 2 copy loop.
const STREAMING_COPY_LINE_COST: Cycles = 40;

/// Execution cost of the locked read-modify-write micro-op itself
/// (`lock cmpxchg` / `lock xadd`), on top of the cacheline ownership
/// access. Module constant, not a config knob: it does not enter the
/// snapshot config fingerprint.
const LOCKED_RMW_COST: Cycles = 24;

/// The repeat record: the machine's last call, when it was a one-line
/// [`Machine::load`], and the proof that repeating it is a plain L1 hit.
///
/// When a thread loads the line it loaded last, with no other `Machine`
/// call between, the record is armed: if the line sits in the thread's
/// L1 at `slot` and nothing can make a load of it anything but a plain
/// hit (see [`Machine::plain_repeat_slot`]), the line's bytes are
/// captured. This repeat and every further one then replay the hit's
/// side effects and copy the bytes, skipping the lookups a first touch
/// needs. Every
/// other `&mut self` method of `Machine` forgets the record, which is
/// what keeps `slot` and `bytes` current (DESIGN.md §14, "Repeat record").
#[derive(Debug)]
struct RepeatLoad {
    /// Thread of the last call; `None` when the last call was not a
    /// one-line load.
    tid: Option<ThreadId>,
    /// Cacheline of that load.
    line: Addr,
    /// L1 slot of `line` once a repeat proved a plain hit; `None` until
    /// then, and `bytes` is stale.
    slot: Option<usize>,
    /// The line's functional bytes while `slot` is set.
    bytes: [u8; 64],
}

impl RepeatLoad {
    const NONE: RepeatLoad = RepeatLoad {
        tid: None,
        line: Addr(0),
        slot: None,
        bytes: [0; 64],
    };
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    /// One cache hierarchy per socket.
    caches: Vec<CacheSystem>,
    pm: PmController,
    dram: DramController,
    persistent: SparseStore,
    /// Cacheline -> store data not yet accepted into the ADR domain.
    /// Whole-map reads (crash images, quiesce folds) go through
    /// `AddrMap`'s address-ordered accessors, so they are identical across
    /// processes (the determinism contract, DESIGN.md §12).
    overlay: AddrMap<[u8; 64]>,
    dram_image: SparseStore,
    threads: Vec<HwThread>,
    /// Hardware threads per (socket, core).
    core_occupancy: Vec<Vec<u8>>,
    next_core: Vec<usize>,
    /// Cacheline -> completion time of an in-flight fill (prefetch or
    /// demand), for prefetch-timing overlap.
    inflight_fills: AddrMap<Cycles>,
    /// Cacheline -> issue time of its most recent invalidating flush
    /// (`clwb` on G1, `clflushopt`, `clflush`), for the sfence load bypass
    /// and persist-wait decisions. A non-temporal store removes the
    /// line's record: nt-stores never get the relaxed `sfence` treatment
    /// (Figure 7: nt-store RAP persists on G2), which is exactly how an
    /// absent record behaves.
    recent_flush: AddrMap<Cycles>,
    demand: ByteCounter,
    pm_next: u64,
    dram_next: u64,
    crash_rng: SplitMix64,
    trace: TraceSlot,
    faults: FaultHooks,
    fault_stats: FaultStats,
    /// Counters accumulated before the last checkpoint quiesce. The
    /// metrics view is `baseline + live`, which is what lets a restored
    /// machine report the same cumulative numbers as one that never
    /// stopped. `baseline.telemetry.demand` is always zero: the demand
    /// counter itself survives quiescing.
    metrics_baseline: MachineMetrics,
    repeat: RepeatLoad,
}

/// Garble pattern written over a line whose media cells lost their data.
const POISON_FILL: u8 = 0xBD;

impl Machine {
    /// Builds a machine from a configuration. Inside a
    /// [`with_witness`](crate::witness::with_witness) scope the machine
    /// also feeds the scope's sink and, when dropped, its checkpoint.
    pub fn new(cfg: MachineConfig) -> Self {
        let caches = (0..2)
            .map(|_| CacheSystem::new(cfg.cache.clone(), cfg.cores_per_socket, cfg.prefetch))
            .collect();
        let pm = PmController::new(cfg.pm.clone());
        let dram = DramController::new(cfg.dram.clone());
        let core_occupancy = vec![vec![0u8; cfg.cores_per_socket]; 2];
        let crash_rng = SplitMix64::new(cfg.crash_seed);
        Machine {
            cfg,
            caches,
            pm,
            dram,
            persistent: SparseStore::new(),
            overlay: AddrMap::new(),
            dram_image: SparseStore::new(),
            threads: Vec::new(),
            core_occupancy,
            next_core: vec![0; 2],
            inflight_fills: AddrMap::new(),
            recent_flush: AddrMap::new(),
            demand: ByteCounter::new(),
            pm_next: PM_BASE,
            dram_next: DRAM_BASE,
            crash_rng,
            trace: TraceSlot::new(),
            faults: FaultHooks::none(),
            fault_stats: FaultStats::default(),
            metrics_baseline: MachineMetrics::default(),
            repeat: RepeatLoad::NONE,
        }
    }

    /// Forgets the repeat record. Every `&mut self` method but `load`
    /// calls this first: any of them may change what a repeated load
    /// would see.
    #[inline]
    fn forget_repeat(&mut self) {
        self.repeat.tid = None;
    }

    /// Attaches an instruction-stream observer. Replaces any previous
    /// sink; returns the replaced sink, if any. A witness scope's sink is
    /// not affected.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.forget_repeat();
        self.trace.set(sink)
    }

    /// Detaches and returns the current instruction-stream observer.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.forget_repeat();
        self.trace.take()
    }

    /// Whether a trace sink is attached. Every emit call site checks this
    /// *before* constructing the event, so with no sink the whole hook
    /// costs one inlined branch — no argument construction, no
    /// `region_of`/clock reads on the event's behalf.
    #[inline(always)]
    fn tracing(&self) -> bool {
        self.trace.on()
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        self.trace.emit(&ev);
    }

    /// Returns the active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Spawns a hardware thread on the given socket, assigning cores
    /// round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is not 0 or 1.
    pub fn spawn(&mut self, socket: usize) -> ThreadId {
        assert!(socket < 2, "machine has two sockets");
        let core = self.next_core[socket] % self.cfg.cores_per_socket;
        self.next_core[socket] += 1;
        self.spawn_on(socket, core)
    }

    /// Spawns a hardware thread on a specific core.
    ///
    /// # Panics
    ///
    /// Panics if the socket or core index is out of range.
    pub fn spawn_on(&mut self, socket: usize, core: usize) -> ThreadId {
        self.forget_repeat();
        assert!(socket < 2, "machine has two sockets");
        assert!(core < self.cfg.cores_per_socket, "core index out of range");
        self.core_occupancy[socket][core] += 1;
        self.threads.push(HwThread {
            clock: ThreadClock::new(),
            socket,
            core,
            outstanding_accept: 0,
            last_mfence: 0,
            sb_pending: 0,
            sb_max: 0,
            persist_epochs: 0,
            cas_ops: 0,
            cas_failures: 0,
            fetch_adds: 0,
        });
        ThreadId(self.threads.len() - 1)
    }

    /// Spawns a hyperthread sibling sharing `of`'s core (used by the
    /// helper-thread prefetching case study).
    pub fn spawn_sibling(&mut self, of: ThreadId) -> ThreadId {
        let (socket, core) = {
            let t = &self.threads[of.0];
            (t.socket, t.core)
        };
        self.spawn_on(socket, core)
    }

    /// Returns the thread's current simulated time.
    pub fn now(&self, tid: ThreadId) -> Cycles {
        self.threads[tid.0].clock.now()
    }

    /// Advances the thread's clock by `cycles` of pure compute.
    pub fn advance(&mut self, tid: ThreadId, cycles: Cycles) {
        self.forget_repeat();
        self.threads[tid.0].clock.advance(cycles);
    }

    /// Moves the thread's clock forward to `t` if it is behind (used by
    /// workload drivers to align interleaved threads).
    pub fn advance_to(&mut self, tid: ThreadId, t: Cycles) {
        self.forget_repeat();
        self.threads[tid.0].clock.advance_to(t);
    }

    /// Allocates `len` bytes of persistent memory with the given alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc_pm(&mut self, len: u64, align: u64) -> Addr {
        self.forget_repeat();
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.pm_next = (self.pm_next + align - 1) & !(align - 1);
        let a = Addr(self.pm_next);
        self.pm_next += len;
        a
    }

    /// Allocates `len` bytes of DRAM with the given alignment.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc_dram(&mut self, len: u64, align: u64) -> Addr {
        self.forget_repeat();
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.dram_next = (self.dram_next + align - 1) & !(align - 1);
        let a = Addr(self.dram_next);
        self.dram_next += len;
        a
    }

    /// Returns which device backs `addr`.
    pub fn region_of(&self, addr: Addr) -> MemRegion {
        if addr.0 >= DRAM_BASE {
            MemRegion::Dram
        } else {
            MemRegion::Pm
        }
    }

    // ----- functional byte access -------------------------------------

    fn functional_read(&self, addr: Addr, buf: &mut [u8]) {
        match self.region_of(addr) {
            MemRegion::Dram => self.dram_image.read(addr, buf),
            MemRegion::Pm => {
                // Overlay entries shadow the persistent image per
                // cacheline.
                self.persistent.read(addr, buf);
                let mut pos = 0usize;
                while pos < buf.len() {
                    let a = Addr(addr.0 + pos as u64);
                    let cl = a.cacheline();
                    let off = a.offset_in_cacheline();
                    let chunk = (buf.len() - pos).min(CACHELINE_BYTES as usize - off);
                    if let Some(bytes) = self.overlay.get(cl.0) {
                        buf[pos..pos + chunk].copy_from_slice(&bytes[off..off + chunk]);
                    }
                    pos += chunk;
                }
            }
        }
    }

    fn overlay_write(&mut self, addr: Addr, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let a = Addr(addr.0 + pos as u64);
            let cl = a.cacheline();
            let off = a.offset_in_cacheline();
            let chunk = (data.len() - pos).min(CACHELINE_BYTES as usize - off);
            let entry = self.overlay.get_or_insert_with(cl.0, || {
                let mut init = [0u8; 64];
                self.persistent.read(cl, &mut init);
                init
            });
            entry[off..off + chunk].copy_from_slice(&data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Moves the overlay entry for `cl` into the persistent image (the
    /// data reached the ADR domain).
    fn apply_persist(&mut self, cl: Addr) {
        if let Some(bytes) = self.overlay.remove(cl.0) {
            self.persistent.write(cl, &bytes);
        }
    }

    /// A PM write accepted by the iMC. Normally the overlay entry reaches
    /// the ADR domain; an armed WPQ-drop fault silently discards the Nth
    /// acceptance — the controller acknowledged data it will never
    /// persist, leaving the line in the crash-uncertain set even though
    /// the program flushed it correctly.
    fn persist_accept(&mut self, cl: Addr) {
        self.fault_stats.wpq_accepts += 1;
        if let Some(n) = self.faults.wpq_drop_every_nth {
            if self.fault_stats.wpq_accepts.is_multiple_of(n) {
                self.fault_stats.wpq_dropped.push(cl.0);
                return;
            }
        }
        self.apply_persist(cl);
    }

    // ----- timing helpers ---------------------------------------------

    fn ht_extra(&self, socket: usize, core: usize) -> Cycles {
        if self.core_occupancy[socket][core] > 1 {
            self.cfg.ht_penalty
        } else {
            0
        }
    }

    fn remote_read_extra(&self, socket: usize) -> Cycles {
        if socket == 0 {
            0
        } else {
            self.cfg.remote_read_penalty
        }
    }

    fn remote_write_extra(&self, socket: usize) -> Cycles {
        if socket == 0 {
            0
        } else {
            self.cfg.remote_write_penalty
        }
    }

    /// Handles dirty lines evicted from an LLC: they are written back to
    /// their backing device and (for PM) become persistent.
    fn handle_writebacks(&mut self, now: Cycles, wbs: &[Addr]) {
        for &cl in wbs {
            match self.region_of(cl) {
                MemRegion::Pm => {
                    self.pm.write(now, cl);
                    self.persist_accept(cl);
                    if self.tracing() {
                        self.emit(TraceEvent::WriteBack { line: cl, at: now });
                    }
                }
                MemRegion::Dram => {
                    self.dram.write(now, cl);
                }
            }
        }
        if !wbs.is_empty() {
            self.gc_controller_inflight();
        }
    }

    /// Issues hardware-prefetch fills suggested by a demand access.
    fn issue_prefetches(&mut self, socket: usize, core: usize, now: Cycles, list: &[Addr]) {
        for &pf in list {
            let cl = pf.cacheline();
            if let Some(&done) = self.inflight_fills.get(cl.0) {
                if done > now {
                    continue;
                }
            }
            let completion = match self.region_of(cl) {
                MemRegion::Pm => self.pm.read(now, cl, PersistWait::Full).0,
                MemRegion::Dram => self.dram.read(now, cl),
            } + self.remote_read_extra(socket);
            let wbs = self.caches[socket].fill_prefetch(core, cl);
            self.handle_writebacks(now, &wbs);
            self.inflight_fills.insert(cl.0, completion);
        }
        if self.inflight_fills.collect_due() {
            // Every reader filters on `done > now`, so an entry complete
            // for the slowest thread's clock is indistinguishable from an
            // absent one for every thread, forever (clocks only advance).
            let horizon = self
                .threads
                .iter()
                .map(|t| t.clock.now())
                .min()
                .unwrap_or(now);
            self.inflight_fills.collect(|_, &done| done > horizon);
            // Same horizon argument holds for the controllers' in-flight
            // write records: every future call passes a thread clock, and
            // all of those are >= horizon.
            self.pm.gc_inflight(horizon);
            self.dram.gc_inflight(horizon);
        }
    }

    /// Offers the PM and DRAM controllers a chance to collect completed
    /// in-flight write records (see [`imc::PmController::gc_inflight`] for
    /// why the min-over-clocks horizon is exact). Called at the end of
    /// every nt-store and flush, which never issue prefetches, and after
    /// every batch of cache write-backs, so that neither a write phase nor
    /// an eviction-only phase lets the maps grow without bound.
    fn gc_controller_inflight(&mut self) {
        let Some(horizon) = self.threads.iter().map(|t| t.clock.now()).min() else {
            return;
        };
        self.pm.gc_inflight(horizon);
        self.dram.gc_inflight(horizon);
    }

    /// Decides how a PM read is ordered behind an in-flight persist: reads
    /// separated from the flush only by `sfence`s wait for the WPQ drain;
    /// reads ordered by an `mfence` wait out the whole pipeline, as do
    /// reads after non-temporal stores.
    fn persist_wait_for(&self, tid: ThreadId, cl: Addr) -> PersistWait {
        match self.recent_flush.get(cl.0) {
            Some(&issued) if issued > self.threads[tid.0].last_mfence => PersistWait::Drain,
            _ => PersistWait::Full,
        }
    }

    /// Checks the G1 `clwb + sfence` load bypass: a load that is not
    /// `mfence`-ordered behind a very recent invalidating flush can still
    /// be served from the pre-invalidation cached copy.
    fn load_bypasses_flush(&self, tid: ThreadId, cl: Addr, now: Cycles) -> bool {
        if !self.cfg.sfence_load_bypass {
            return false;
        }
        match self.recent_flush.get(cl.0) {
            Some(&issued) => {
                issued > self.threads[tid.0].last_mfence
                    && now < issued + self.cfg.load_bypass_window
            }
            None => false,
        }
    }

    /// One cacheline demand access (load or store). Returns the latency.
    fn access_line(&mut self, tid: ThreadId, cl: Addr, write: bool) -> Cycles {
        let (socket, core, now) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core, t.clock.now())
        };
        // The sfence load bypass serves the stale cached copy without
        // touching the hierarchy (the flushed line stays gone).
        if !write && self.load_bypasses_flush(tid, cl, now) {
            return self.cfg.cache.l1_latency + self.ht_extra(socket, core);
        }
        let res = self.caches[socket].access(core, cl, write);
        let mut latency = match res.level {
            HitLevel::Miss => {
                // In-flight fill (e.g. from a prefetch): wait for it
                // instead of issuing a second memory read.
                let fill = self.inflight_fills.get(cl.0).copied().filter(|&d| d > now);
                match fill {
                    Some(done) => (done - now).max(self.cfg.cache.l1_latency),
                    None => {
                        let wait = self.persist_wait_for(tid, cl);
                        let completion = match self.region_of(cl) {
                            MemRegion::Pm => self.pm.read(now, cl, wait).0,
                            MemRegion::Dram => self.dram.read(now, cl),
                        } + self.remote_read_extra(socket);
                        completion - now
                    }
                }
            }
            level => {
                // simlint::allow(unwrap-in-lib, non-Miss hit levels always
                // carry a configured latency; a None here is a cache-model
                // bug worth aborting on, not a recoverable condition)
                #[allow(clippy::expect_used)]
                let base = self.caches[socket]
                    .latency_of(level)
                    .expect("hit level has a latency");
                // A prefetched line may be resident (metadata) but still in
                // flight; pay the remaining fill time.
                match self.inflight_fills.get(cl.0).copied().filter(|&d| d > now) {
                    Some(done) => base.max(done - now),
                    None => base,
                }
            }
        };
        latency += self.ht_extra(socket, core);
        self.handle_writebacks(now, &res.writebacks);
        let prefetch = res.prefetch;
        self.issue_prefetches(socket, core, now, &prefetch);
        latency
    }

    // ----- public memory operations -------------------------------------

    /// Returns the L1 slot of `line` if `tid`'s next load of it is sure
    /// to be a plain L1 hit, now or later, as long as no other `Machine`
    /// call intervenes:
    ///
    /// - the line sits in the core's L1 and the core's prefetchers last
    ///   saw it, so the hit suggests no prefetch
    ///   ([`CacheSystem::repeat_slot`]);
    /// - no in-flight fill of the line completes after `now`, so the hit
    ///   waits for none (later loads have later clocks);
    /// - no flush record can still trigger the sfence load bypass: there
    ///   is none, the bypass is off, or its window closed before `now`.
    fn plain_repeat_slot(&self, tid: ThreadId, line: Addr) -> Option<usize> {
        let t = &self.threads[tid.0];
        let now = t.clock.now();
        let slot = self.caches[t.socket].repeat_slot(t.core, line)?;
        if self
            .inflight_fills
            .get(line.0)
            .is_some_and(|&done| done > now)
        {
            return None;
        }
        let bypass_open = self.cfg.sfence_load_bypass
            && self
                .recent_flush
                .get(line.0)
                .is_some_and(|&issued| now < issued + self.cfg.load_bypass_window);
        (!bypass_open).then_some(slot)
    }

    /// Serves a load from the armed repeat record with exactly a plain L1
    /// hit's effects: LRU stamp and hit count, prefetcher observation,
    /// the `Load` event, L1 latency plus the hyperthread penalty, and the
    /// demand bytes. Returns `false`, having done nothing, if the record
    /// is not armed or its slot no longer holds the line.
    fn load_repeat(&mut self, tid: ThreadId, addr: Addr, buf: &mut [u8]) -> bool {
        let Some(slot) = self.repeat.slot else {
            return false;
        };
        debug_assert_eq!(self.plain_repeat_slot(tid, self.repeat.line), Some(slot));
        let (socket, core, now) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core, t.clock.now())
        };
        if !self.caches[socket].repeat_l1_hit(core, self.repeat.line, slot) {
            return false;
        }
        if self.tracing() {
            self.emit(TraceEvent::Load {
                tid,
                addr,
                len: buf.len() as u64,
                region: self.region_of(addr),
                at: now,
            });
        }
        let latency = self.cfg.cache.l1_latency + self.ht_extra(socket, core);
        self.threads[tid.0].clock.advance(latency);
        self.demand.add_read(buf.len() as u64);
        let off = addr.offset_in_cacheline();
        buf.copy_from_slice(&self.repeat.bytes[off..off + buf.len()]);
        if cfg!(debug_assertions) {
            let mut check = [0u8; 64];
            self.functional_read(addr, &mut check[..buf.len()]);
            debug_assert_eq!(&check[..buf.len()], buf, "stale repeat record");
        }
        true
    }

    /// Loads `buf.len()` bytes from `addr`.
    ///
    /// A one-line load that repeats the machine's previous call (the same
    /// thread loading the same line) is served from the repeat record
    /// when it is provably a plain L1 hit; the simulation is the same
    /// either way.
    pub fn load(&mut self, tid: ThreadId, addr: Addr, buf: &mut [u8]) {
        let len = buf.len() as u64;
        let line = addr.cacheline();
        let one_line = len > 0 && addr.0 + len <= line.0 + CACHELINE_BYTES;
        if one_line && self.repeat.tid == Some(tid) && self.repeat.line == line {
            if self.repeat.slot.is_none() {
                // The first repeat: arm the record if this load, and so
                // every repeat after it, is sure to be a plain hit.
                self.repeat.slot = self.plain_repeat_slot(tid, line);
                if self.repeat.slot.is_some() {
                    let mut bytes = [0u8; 64];
                    self.functional_read(line, &mut bytes);
                    self.repeat.bytes = bytes;
                }
            }
            if self.load_repeat(tid, addr, buf) {
                return;
            }
        }
        if self.tracing() {
            self.emit(TraceEvent::Load {
                tid,
                addr,
                len,
                region: self.region_of(addr),
                at: self.threads[tid.0].clock.now(),
            });
        }
        let mut total = 0;
        for cl in simbase::addr::cachelines_covering(addr, len) {
            total += self.access_line(tid, cl, false);
        }
        self.threads[tid.0].clock.advance(total);
        self.demand.add_read(len);
        self.functional_read(addr, buf);
        if one_line {
            self.repeat.tid = Some(tid);
            self.repeat.line = line;
            self.repeat.slot = None;
        } else {
            self.forget_repeat();
        }
    }

    /// Loads two independent cachelines concurrently, modelling the
    /// memory-level parallelism an out-of-order core extracts from two
    /// loads with no data dependency (e.g. CCEH's segment-metadata and
    /// bucket reads, which both depend only on the directory entry).
    ///
    /// The thread advances by the *maximum* of the two access latencies;
    /// contention between the two requests still arises naturally in the
    /// shared controllers.
    pub fn load_pair(
        &mut self,
        tid: ThreadId,
        a: Addr,
        b: Addr,
        out_a: &mut [u8],
        out_b: &mut [u8],
    ) {
        self.forget_repeat();
        let start = self.threads[tid.0].clock.now();
        if self.tracing() {
            self.emit(TraceEvent::Load {
                tid,
                addr: a,
                len: out_a.len() as u64,
                region: self.region_of(a),
                at: start,
            });
            self.emit(TraceEvent::Load {
                tid,
                addr: b,
                len: out_b.len() as u64,
                region: self.region_of(b),
                at: start,
            });
        }
        let lat_a = {
            let mut total = 0;
            for cl in simbase::addr::cachelines_covering(a, out_a.len() as u64) {
                total += self.access_line(tid, cl, false);
            }
            total
        };
        // Issue the second access at the same start time: temporarily
        // rewind is not possible, so compute it before advancing.
        let lat_b = {
            let mut total = 0;
            for cl in simbase::addr::cachelines_covering(b, out_b.len() as u64) {
                total += self.access_line(tid, cl, false);
            }
            total
        };
        self.threads[tid.0].clock.advance(lat_a.max(lat_b));
        self.demand.add_read((out_a.len() + out_b.len()) as u64);
        self.functional_read(a, out_a);
        self.functional_read(b, out_b);
    }

    /// Loads a little-endian `u64` from `addr`.
    pub fn load_u64(&mut self, tid: ThreadId, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.load(tid, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Stores `data` at `addr` through the cache hierarchy
    /// (write-allocate: a miss fetches the line first).
    pub fn store(&mut self, tid: ThreadId, addr: Addr, data: &[u8]) {
        self.forget_repeat();
        let len = data.len() as u64;
        if self.tracing() {
            self.emit(TraceEvent::Store {
                tid,
                addr,
                len,
                region: self.region_of(addr),
                at: self.threads[tid.0].clock.now(),
            });
        }
        let mut total = 0;
        for cl in simbase::addr::cachelines_covering(addr, len) {
            total += self.access_line(tid, cl, true);
        }
        self.threads[tid.0].clock.advance(total);
        self.demand.add_write(len);
        match self.region_of(addr) {
            MemRegion::Pm => self.overlay_write(addr, data),
            MemRegion::Dram => self.dram_image.write(addr, data),
        }
    }

    /// Stores a little-endian `u64` at `addr`.
    pub fn store_u64(&mut self, tid: ThreadId, addr: Addr, value: u64) {
        self.store(tid, addr, &value.to_le_bytes());
    }

    /// Stores a full cacheline without the ownership read (models
    /// full-line store optimizations; `addr` must be cacheline-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not cacheline-aligned.
    pub fn store_full_cacheline(&mut self, tid: ThreadId, addr: Addr, data: &[u8; 64]) {
        self.forget_repeat();
        assert!(
            addr.is_cacheline_aligned(),
            "full-line store must be aligned"
        );
        let (socket, core, now) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core, t.clock.now())
        };
        let latency = if self.caches[socket].contains(core, addr).is_some() {
            // Resident: a plain cached store (which emits its own event).
            return self.store(tid, addr, data);
        } else {
            if self.tracing() {
                self.emit(TraceEvent::Store {
                    tid,
                    addr,
                    len: 64,
                    region: self.region_of(addr),
                    at: now,
                });
            }
            let wbs = self.caches[socket].install(core, addr, true);
            self.handle_writebacks(now, &wbs);
            self.cfg.cache.l1_latency + self.ht_extra(socket, core)
        };
        self.threads[tid.0].clock.advance(latency);
        self.demand.add_write(64);
        match self.region_of(addr) {
            MemRegion::Pm => self.overlay_write(addr, data),
            MemRegion::Dram => self.dram_image.write(addr, data),
        }
    }

    /// Non-temporal store: bypasses the caches and goes straight to the
    /// memory controller. The write is posted — the thread does not wait
    /// for WPQ acceptance; a following fence does.
    pub fn nt_store(&mut self, tid: ThreadId, addr: Addr, data: &[u8]) {
        self.forget_repeat();
        let len = data.len() as u64;
        if self.tracing() {
            self.emit(TraceEvent::NtStore {
                tid,
                addr,
                len,
                region: self.region_of(addr),
                at: self.threads[tid.0].clock.now(),
            });
        }
        let (socket, core, start) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core, t.clock.now())
        };
        // Per-line costs that cannot change mid-operation, hoisted out of
        // the line loop.
        let per_line = self.cfg.ntstore_issue + self.ht_extra(socket, core);
        let remote_extra = self.remote_write_extra(socket);
        let mut total = 0;
        let mut max_accept = 0;
        let mut nlines = 0u64;
        for cl in simbase::addr::cachelines_covering(addr, len) {
            nlines += 1;
            let now = start + total;
            // Coherence: drop any cached copy (its data is merged through
            // the overlay).
            self.caches[socket].flush(cl, FlushMode::Invalidate);
            match self.region_of(cl) {
                MemRegion::Pm => {
                    let ticket = self.pm.write(now, cl);
                    max_accept = max_accept.max(ticket.accept + remote_extra);
                    // An nt-store supersedes any earlier flush record for
                    // the line (no load bypass, full persist wait — the
                    // same as having no record at all).
                    self.recent_flush.remove(cl.0);
                }
                MemRegion::Dram => {
                    let (accept, _) = self.dram.write(now, cl);
                    max_accept = max_accept.max(accept + remote_extra);
                }
            }
            total += per_line;
        }
        let t = &mut self.threads[tid.0];
        t.clock.advance(total);
        t.outstanding_accept = t.outstanding_accept.max(max_accept);
        t.sb_push(nlines);
        self.demand.add_write(len);
        match self.region_of(addr) {
            MemRegion::Pm => {
                if addr.is_cacheline_aligned()
                    && len.is_multiple_of(CACHELINE_BYTES)
                    && self.faults.wpq_drop_every_nth.is_none()
                {
                    // Full-line persist fast path: the accepted data goes
                    // straight into the persistent image, skipping the
                    // overlay round-trip (entry init would read back the
                    // very bytes the store overwrites).
                    for (i, cl) in simbase::addr::cachelines_covering(addr, len).enumerate() {
                        self.fault_stats.wpq_accepts += 1;
                        self.overlay.remove(cl.0);
                        self.persistent
                            .write(cl, &data[i * CACHELINE_BYTES as usize..][..64]);
                    }
                } else {
                    self.overlay_write(addr, data);
                    for cl in simbase::addr::cachelines_covering(addr, len) {
                        self.persist_accept(cl);
                    }
                }
            }
            MemRegion::Dram => self.dram_image.write(addr, data),
        }
        self.gc_controller_inflight();
    }

    /// Batched non-temporal stores: writes the 64-byte pattern `line` to
    /// `count` consecutive cachelines starting at `addr`.
    ///
    /// Exactly equivalent — in timing, trace events, and functional state —
    /// to `count` single-cacheline [`Machine::nt_store`] calls, but one
    /// dispatch covers the whole run: per-line constants (issue cost,
    /// hyperthread and NUMA penalties, socket lookup) are hoisted out of
    /// the loop and the clock/fence bookkeeping is settled once.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not cacheline-aligned.
    pub fn nt_store_run(&mut self, tid: ThreadId, addr: Addr, line: &[u8; 64], count: u64) {
        self.forget_repeat();
        assert!(
            addr.is_cacheline_aligned(),
            "nt-store run must start aligned"
        );
        let (socket, core, start) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core, t.clock.now())
        };
        let per_line = self.cfg.ntstore_issue + self.ht_extra(socket, core);
        let remote_extra = self.remote_write_extra(socket);
        let tracing = self.tracing();
        let fast_persist = self.faults.wpq_drop_every_nth.is_none();
        let mut total = 0;
        let mut max_accept = 0;
        for i in 0..count {
            let cl = addr.add_cachelines(i);
            let now = start + total;
            if tracing {
                self.emit(TraceEvent::NtStore {
                    tid,
                    addr: cl,
                    len: CACHELINE_BYTES,
                    region: self.region_of(cl),
                    at: now,
                });
            }
            self.caches[socket].flush(cl, FlushMode::Invalidate);
            match self.region_of(cl) {
                MemRegion::Pm => {
                    let ticket = self.pm.write(now, cl);
                    max_accept = max_accept.max(ticket.accept + remote_extra);
                    self.recent_flush.remove(cl.0);
                    if fast_persist {
                        self.fault_stats.wpq_accepts += 1;
                        self.overlay.remove(cl.0);
                        self.persistent.write(cl, line);
                    } else {
                        self.overlay_write(cl, line);
                        self.persist_accept(cl);
                    }
                }
                MemRegion::Dram => {
                    let (accept, _) = self.dram.write(now, cl);
                    max_accept = max_accept.max(accept + remote_extra);
                    self.dram_image.write(cl, line);
                }
            }
            total += per_line;
        }
        let t = &mut self.threads[tid.0];
        t.clock.advance(total);
        t.outstanding_accept = t.outstanding_accept.max(max_accept);
        t.sb_push(count);
        self.demand.add_write(CACHELINE_BYTES * count);
        self.gc_controller_inflight();
    }

    /// Batched touch loads: performs a `u64` demand load at the base of
    /// each of `count` consecutive cachelines, discarding the data.
    ///
    /// Timing, trace events, and counters are exactly those of `count`
    /// [`Machine::load_u64`] calls; only the functional read-back (which
    /// has no timing or trace effect) is skipped, since the caller has
    /// declared the values dead.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not cacheline-aligned.
    pub fn load_u64_run(&mut self, tid: ThreadId, addr: Addr, count: u64) {
        self.forget_repeat();
        assert!(addr.is_cacheline_aligned(), "load run must start aligned");
        let tracing = self.tracing();
        for i in 0..count {
            let cl = addr.add_cachelines(i);
            if tracing {
                self.emit(TraceEvent::Load {
                    tid,
                    addr: cl,
                    len: 8,
                    region: self.region_of(cl),
                    at: self.threads[tid.0].clock.now(),
                });
            }
            let latency = self.access_line(tid, cl, false);
            self.threads[tid.0].clock.advance(latency);
        }
        self.demand.add_read(8 * count);
    }

    /// Batched `clflushopt` over `count` consecutive cachelines.
    ///
    /// Equivalent to `count` [`Machine::clflushopt`] calls, with the
    /// per-line constants hoisted; the transient-map garbage-collection
    /// check runs once per run instead of once per line (observable only
    /// past the GC threshold, where the collection point shifts to the
    /// end of the run).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not cacheline-aligned.
    pub fn clflushopt_run(&mut self, tid: ThreadId, addr: Addr, count: u64) {
        self.forget_repeat();
        assert!(addr.is_cacheline_aligned(), "flush run must start aligned");
        let (socket, core) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core)
        };
        let issue = self.cfg.flush_issue + self.ht_extra(socket, core);
        let remote_extra = self.remote_write_extra(socket);
        let tracing = self.tracing();
        for i in 0..count {
            let cl = addr.add_cachelines(i);
            let now = self.threads[tid.0].clock.now();
            let dirty = self.caches[socket].flush(cl, FlushMode::Invalidate);
            if tracing {
                self.emit(TraceEvent::Flush {
                    tid,
                    line: cl,
                    kind: FlushKind::Clflushopt,
                    region: self.region_of(cl),
                    dirty,
                    at: now,
                });
            }
            let mut accept = None;
            if dirty {
                match self.region_of(cl) {
                    MemRegion::Pm => {
                        let ticket = self.pm.write(now, cl);
                        accept = Some(ticket.accept + remote_extra);
                        self.persist_accept(cl);
                    }
                    MemRegion::Dram => {
                        let (a, _) = self.dram.write(now, cl);
                        accept = Some(a + remote_extra);
                    }
                }
                self.recent_flush.insert(cl.0, now);
            }
            let t = &mut self.threads[tid.0];
            t.clock.advance(issue);
            if let Some(a) = accept {
                t.outstanding_accept = t.outstanding_accept.max(a);
                t.sb_push(1);
            }
        }
        self.gc_recent_flush();
        self.gc_controller_inflight();
    }

    /// `clwb`: writes back the cacheline containing `addr` if dirty. On G1
    /// configurations this also invalidates the line (the behaviour the
    /// paper measures); on G2 the line is retained.
    pub fn clwb(&mut self, tid: ThreadId, addr: Addr) {
        self.flush_line(tid, addr, self.cfg.clwb_mode, FlushKind::Clwb);
    }

    /// `clflushopt`: writes back (if dirty) and invalidates the line.
    pub fn clflushopt(&mut self, tid: ThreadId, addr: Addr) {
        self.flush_line(tid, addr, FlushMode::Invalidate, FlushKind::Clflushopt);
    }

    /// Legacy `clflush`: like [`Machine::clflushopt`], but strongly
    /// ordered — the instruction itself waits until the write-back is
    /// accepted, instead of leaving that to a later fence. This is why
    /// persistent software prefers `clflushopt`/`clwb`.
    pub fn clflush(&mut self, tid: ThreadId, addr: Addr) {
        self.flush_line(tid, addr, FlushMode::Invalidate, FlushKind::Clflush);
        let t = &mut self.threads[tid.0];
        t.clock.advance_to(t.outstanding_accept);
    }

    fn flush_line(&mut self, tid: ThreadId, addr: Addr, mode: FlushMode, kind: FlushKind) {
        self.forget_repeat();
        let cl = addr.cacheline();
        let (socket, core, now) = {
            let t = &self.threads[tid.0];
            (t.socket, t.core, t.clock.now())
        };
        let dirty = self.caches[socket].flush(cl, mode);
        if self.tracing() {
            self.emit(TraceEvent::Flush {
                tid,
                line: cl,
                kind,
                region: self.region_of(cl),
                dirty,
                at: now,
            });
        }
        let mut accept = None;
        if dirty {
            match self.region_of(cl) {
                MemRegion::Pm => {
                    let ticket = self.pm.write(now, cl);
                    accept = Some(ticket.accept + self.remote_write_extra(socket));
                    self.persist_accept(cl);
                }
                MemRegion::Dram => {
                    let (a, _) = self.dram.write(now, cl);
                    accept = Some(a + self.remote_write_extra(socket));
                }
            }
            if mode == FlushMode::Invalidate {
                self.recent_flush.insert(cl.0, now);
            }
        }
        let issue = self.cfg.flush_issue + self.ht_extra(socket, core);
        let t = &mut self.threads[tid.0];
        t.clock.advance(issue);
        if let Some(a) = accept {
            t.outstanding_accept = t.outstanding_accept.max(a);
            t.sb_push(1);
        }
        self.gc_recent_flush();
        self.gc_controller_inflight();
    }

    fn gc_recent_flush(&mut self) {
        if self.recent_flush.len() >= MAP_GC_THRESHOLD {
            self.recent_flush.clear();
        }
    }

    /// `sfence`: waits for all of this thread's outstanding flushes and
    /// nt-stores to be accepted into the ADR domain. Does not order
    /// subsequent loads.
    pub fn sfence(&mut self, tid: ThreadId) {
        self.fence(tid, FenceKind::Sfence);
    }

    /// `mfence`: like [`Machine::sfence`], and additionally orders
    /// subsequent loads behind prior flushes.
    pub fn mfence(&mut self, tid: ThreadId) {
        self.fence(tid, FenceKind::Mfence);
    }

    fn fence(&mut self, tid: ThreadId, kind: FenceKind) {
        self.forget_repeat();
        if self.tracing() {
            self.emit(TraceEvent::Fence {
                tid,
                kind,
                at: self.threads[tid.0].clock.now(),
            });
        }
        let fence_cost = self.cfg.fence_cost;
        let t = &mut self.threads[tid.0];
        t.clock.advance_to(t.outstanding_accept);
        t.clock.advance(fence_cost);
        t.outstanding_accept = 0;
        t.sb_drain();
        if kind == FenceKind::Mfence {
            t.last_mfence = t.clock.now();
        }
    }

    // ----- locked read-modify-write atomics ---------------------------

    /// Simulated `lock cmpxchg` on the aligned `u64` at `addr`: atomically
    /// compares the current value with `expected` and, on match, writes
    /// `new`. Returns the *old* value (compare succeeded iff it equals
    /// `expected`).
    ///
    /// Semantics follow x86: the locked RMW takes the line for ownership
    /// even when the compare fails, and acts as a full barrier — the
    /// thread waits out its outstanding flush/nt-store acceptances and
    /// drains its store buffer, exactly like `mfence`. The written value
    /// lands in the cache (PM overlay): durability still requires an
    /// explicit flush + fence, as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn cas_u64(&mut self, tid: ThreadId, addr: Addr, expected: u64, new: u64) -> u64 {
        let old = self.locked_rmw_begin(tid, addr);
        let success = old == expected;
        if self.tracing() {
            self.emit(TraceEvent::Cas {
                tid,
                addr,
                region: self.region_of(addr),
                success,
                at: self.threads[tid.0].clock.now(),
            });
        }
        self.locked_rmw_finish(tid, addr, if success { Some(new) } else { None });
        let t = &mut self.threads[tid.0];
        t.cas_ops += 1;
        if !success {
            t.cas_failures += 1;
        }
        old
    }

    /// Simulated `lock xadd` on the aligned `u64` at `addr`: atomically
    /// adds `delta` (wrapping) and returns the old value. Same barrier
    /// and durability semantics as [`Machine::cas_u64`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn fetch_add_u64(&mut self, tid: ThreadId, addr: Addr, delta: u64) -> u64 {
        let old = self.locked_rmw_begin(tid, addr);
        if self.tracing() {
            self.emit(TraceEvent::FetchAdd {
                tid,
                addr,
                region: self.region_of(addr),
                delta,
                at: self.threads[tid.0].clock.now(),
            });
        }
        self.locked_rmw_finish(tid, addr, Some(old.wrapping_add(delta)));
        self.threads[tid.0].fetch_adds += 1;
        old
    }

    /// Common locked-RMW prologue: alignment check and the functional
    /// read of the current value (timing is charged in the epilogue).
    fn locked_rmw_begin(&mut self, _tid: ThreadId, addr: Addr) -> u64 {
        self.forget_repeat();
        assert!(
            addr.0.is_multiple_of(8),
            "locked RMW target must be u64-aligned"
        );
        let mut b = [0u8; 8];
        self.functional_read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Common locked-RMW epilogue: ownership access (paid whether or not
    /// the compare succeeded — the lock prefix takes the line either
    /// way), RMW issue cost, full-barrier drain, and the functional
    /// write when `write` carries a value.
    fn locked_rmw_finish(&mut self, tid: ThreadId, addr: Addr, write: Option<u64>) {
        let line_latency = self.access_line(tid, addr.cacheline(), true);
        let t = &mut self.threads[tid.0];
        t.clock.advance(line_latency + LOCKED_RMW_COST);
        // Full barrier: subsequent loads are ordered behind prior persists.
        t.clock.advance_to(t.outstanding_accept);
        t.outstanding_accept = 0;
        t.sb_drain();
        t.last_mfence = t.clock.now();
        self.demand.add_read(8);
        if let Some(value) = write {
            self.demand.add_write(8);
            let data = value.to_le_bytes();
            match self.region_of(addr) {
                MemRegion::Pm => self.overlay_write(addr, &data),
                MemRegion::Dram => self.dram_image.write(addr, &data),
            }
        }
    }

    /// The paper's Algorithm 2: copies one XPLine from PM into a DRAM (or
    /// cache-resident) buffer with streaming SIMD loads that neither
    /// allocate the PM lines in the caches nor train the prefetchers.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not XPLine-aligned or `dst` is not
    /// cacheline-aligned.
    pub fn copy_xpline_streaming(&mut self, tid: ThreadId, src: Addr, dst: Addr) {
        self.forget_repeat();
        assert!(src.is_xpline_aligned(), "source must be XPLine-aligned");
        assert!(dst.is_cacheline_aligned(), "destination must be aligned");
        if self.tracing() {
            self.emit(TraceEvent::Load {
                tid,
                addr: src,
                len: XPLINE_BYTES,
                region: self.region_of(src),
                at: self.threads[tid.0].clock.now(),
            });
        }
        let socket = self.threads[tid.0].socket;
        let mut total = 0;
        for i in 0..4u64 {
            let now = self.threads[tid.0].clock.now() + total;
            let cl = src.add_cachelines(i);
            let wait = self.persist_wait_for(tid, cl);
            let (done, _) = self.pm.read(now, cl, wait);
            total += done + self.remote_read_extra(socket) - now + STREAMING_COPY_LINE_COST;
        }
        self.threads[tid.0].clock.advance(total);
        self.demand.add_read(XPLINE_BYTES);
        // Stage into the destination buffer with full-line stores.
        let mut bytes = [0u8; 256];
        self.functional_read(src, &mut bytes);
        for i in 0..4usize {
            let mut line = [0u8; 64];
            line.copy_from_slice(&bytes[i * 64..(i + 1) * 64]);
            self.store_full_cacheline(tid, dst.add_cachelines(i as u64), &line);
        }
    }

    // ----- metrics, crash, reset --------------------------------------

    /// Counters accumulated since construction, before any checkpoint
    /// baseline is folded in.
    fn live_metrics(&self) -> MachineMetrics {
        let mut mt = MtStats::default();
        for t in &self.threads {
            mt.cas_ops += t.cas_ops;
            mt.cas_failures += t.cas_failures;
            mt.fetch_adds += t.fetch_adds;
            mt.persist_epochs += t.persist_epochs;
            mt.sb_max_depth = mt.sb_max_depth.max(t.sb_max);
        }
        MachineMetrics {
            telemetry: TelemetrySnapshot {
                imc: self.pm.imc_counters(),
                media: self.pm.media_counters(),
                dram: self.dram.counters(),
                demand: self.demand,
            },
            sockets: self
                .caches
                .iter()
                .map(CacheSystem::hierarchy_stats)
                .collect(),
            dimms: self.pm.dimm_stats(),
            queues: self.pm.queue_stats(),
            mt,
        }
    }

    /// Returns the unified metrics view: byte taps at every boundary,
    /// per-socket cache and prefetcher counters, per-DIMM buffer/AIT
    /// activity, and RPQ/WPQ occupancy.
    ///
    /// Counters are cumulative since construction (or the last
    /// [`Machine::reset_metrics`]) and survive checkpoint/restore.
    pub fn metrics(&self) -> MachineMetrics {
        let mut m = self.live_metrics();
        m.merge(&self.metrics_baseline);
        m
    }

    /// Zeroes every counter in the metrics view, keeping all cache and
    /// buffer *contents* warm. Used between experiment warm-up and
    /// measurement windows.
    pub fn reset_metrics(&mut self) {
        self.forget_repeat();
        self.metrics_baseline = MachineMetrics::default();
        self.pm.reset_counters();
        self.dram.reset_all();
        self.demand.reset();
        for c in &mut self.caches {
            c.reset_stats();
        }
        for t in &mut self.threads {
            // `sb_pending` is live pipeline state, not a counter: keep it,
            // and restart the high-water mark from it.
            t.sb_max = t.sb_pending;
            t.persist_epochs = 0;
            t.cas_ops = 0;
            t.cas_failures = 0;
            t.fetch_adds = 0;
        }
    }

    /// Simulates a power failure.
    ///
    /// ADR-protected data (everything accepted into the WPQ and on-DIMM
    /// buffers, i.e. the persistent image) survives. Dirty cachelines are
    /// handled per `policy` — unless the machine is configured with eADR,
    /// in which case they all survive. DRAM contents are lost. Thread
    /// clocks continue (the machine reboots in simulated time).
    pub fn power_fail(&mut self, policy: CrashPolicy) {
        self.forget_repeat();
        let now = self
            .threads
            .iter()
            .map(|t| t.clock.now())
            .max()
            .unwrap_or(0);
        self.emit(TraceEvent::PowerFail { at: now });
        let mut dirty = Vec::new();
        for c in &mut self.caches {
            dirty.extend(c.drop_all());
        }
        for cl in dirty {
            if self.region_of(cl) != MemRegion::Pm {
                continue;
            }
            let survives = self.cfg.eadr
                || match policy {
                    CrashPolicy::LoseUnflushed => false,
                    CrashPolicy::PersistAllDirty => true,
                    CrashPolicy::PersistDirtyFraction(p) => self.crash_rng.gen_bool(p),
                };
            if survives {
                self.apply_persist(cl);
            }
        }
        self.overlay.clear();
        self.dram_image.clear();
        // Armed ADR-violating faults fire now: lines still in the WPQ or
        // the on-DIMM write buffers at the instant of failure lose power
        // mid media-write, and the interrupted cells read back as
        // uncorrectable errors after reboot.
        let mut victims: Vec<u64> = Vec::new();
        if let Some(pd) = self.faults.xpbuffer_partial_drain {
            let mut rng = SplitMix64::new(pd.seed);
            for xp in self.pm.buffered_xplines() {
                if rng.gen_bool(pd.drop_fraction) {
                    victims.extend((xp..xp + XPLINE_BYTES).step_by(CACHELINE_BYTES as usize));
                }
            }
        }
        if let Some(pd) = self.faults.wpq_partial_drain {
            let mut rng = SplitMix64::new(pd.seed);
            for cl in self.pm.undrained_lines(now) {
                if rng.gen_bool(pd.drop_fraction) {
                    victims.push(cl);
                }
            }
        }
        victims.sort_unstable();
        victims.dedup();
        for cl in victims {
            self.poison_line(Addr(cl));
            self.fault_stats.crash_poisoned.push(cl);
        }
        self.pm.power_fail_flush(now);
        self.dram.reset_all();
        self.inflight_fills.clear();
        self.recent_flush.clear();
        for t in &mut self.threads {
            t.outstanding_accept = 0;
            // Power loss empties the store buffers without completing an
            // epoch; the cumulative counters survive the reboot.
            t.sb_pending = 0;
        }
    }

    /// Cold-resets all timing state (caches, buffers, AIT, queues,
    /// counters) while *keeping functional memory contents*. Used between
    /// experiment data points.
    pub fn cold_reset(&mut self) {
        self.forget_repeat();
        let cfg = self.cfg.clone();
        self.caches = (0..2)
            .map(|_| CacheSystem::new(cfg.cache.clone(), cfg.cores_per_socket, cfg.prefetch))
            .collect();
        // Flush overlay contents into the persistent image, in address
        // order, so functional state is preserved across the reset.
        for cl in self.overlay.sorted_keys() {
            self.apply_persist(Addr(cl));
        }
        self.pm.reset_all();
        self.dram.reset_all();
        self.inflight_fills.clear();
        self.recent_flush.clear();
        self.demand.reset();
        self.metrics_baseline = MachineMetrics::default();
        for t in &mut self.threads {
            t.outstanding_accept = 0;
            t.sb_pending = 0;
            t.sb_max = 0;
            t.persist_epochs = 0;
            t.cas_ops = 0;
            t.cas_failures = 0;
            t.fetch_adds = 0;
        }
    }

    // ----- checkpoint / restore ---------------------------------------

    /// Quiesces the machine and captures a full experiment checkpoint.
    ///
    /// Quiescing folds the volatile overlay into the persistent image and
    /// resets all transient timing state (caches, controller queues,
    /// in-flight fills), exactly like [`Machine::cold_reset`] — but the
    /// demand byte counters are preserved and captured. Armed fault hooks
    /// are disarmed and fault statistics cleared (see the
    /// [`snapshot`](crate::snapshot) module docs).
    ///
    /// After this call, the live machine is in *precisely* the state that
    /// [`Machine::restore`] reproduces from the returned snapshot, so a
    /// run that checkpoints and continues is identical to one that is
    /// killed here and resumed.
    pub fn checkpoint(&mut self) -> MachineSnapshot {
        self.forget_repeat();
        let demand = self.demand;
        // Fold the live counters into the baseline so the metrics view is
        // continuous across the quiesce. Demand is kept out of the
        // baseline: the counter itself survives (and is captured) below.
        let mut baseline = self.metrics();
        baseline.telemetry.demand = ByteCounter::new();
        self.cold_reset();
        self.demand = demand;
        self.metrics_baseline = baseline.clone();
        self.faults = FaultHooks::none();
        self.fault_stats = FaultStats::default();
        // Re-seat the crash RNG at a recorded state so the continued and
        // the restored machine draw the same stream.
        let rng_state = self.crash_rng.state();
        MachineSnapshot {
            cfg_fingerprint: crate::snapshot::config_fingerprint(&self.cfg),
            persistent: self.persistent.clone(),
            dram_image: self.dram_image.clone(),
            pm_next: self.pm_next,
            dram_next: self.dram_next,
            poisoned: self.pm.poisoned_lines(),
            threads: self
                .threads
                .iter()
                .map(|t| ThreadSnapshot {
                    socket: t.socket,
                    core: t.core,
                    now: t.clock.now(),
                })
                .collect(),
            next_core: [self.next_core[0], self.next_core[1]],
            crash_rng_state: rng_state,
            demand,
            metrics_baseline: baseline,
        }
    }

    /// Materializes a machine from a checkpoint captured by
    /// [`Machine::checkpoint`]. The supplied configuration must match the
    /// capturing machine's (validated by fingerprint); reconstruct it the
    /// same way the original experiment did.
    pub fn restore(cfg: MachineConfig, snap: &MachineSnapshot) -> Result<Machine, SnapshotError> {
        let expected = crate::snapshot::config_fingerprint(&cfg);
        if expected != snap.cfg_fingerprint {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                found: snap.cfg_fingerprint,
            });
        }
        let mut m = Machine::new(cfg);
        m.persistent = snap.persistent.clone();
        m.dram_image = snap.dram_image.clone();
        m.pm_next = snap.pm_next;
        m.dram_next = snap.dram_next;
        for t in &snap.threads {
            let tid = m.spawn_on(t.socket, t.core);
            m.threads[tid.0].clock = ThreadClock::starting_at(t.now);
        }
        m.next_core = vec![snap.next_core[0], snap.next_core[1]];
        m.crash_rng = SplitMix64::from_state(snap.crash_rng_state);
        m.demand = snap.demand;
        m.metrics_baseline = snap.metrics_baseline.clone();
        for &cl in &snap.poisoned {
            m.pm.poison_line(Addr(cl));
        }
        Ok(m)
    }

    // ----- fault injection, UE/poison, crash images -------------------

    /// Arms (or, with [`FaultHooks::none`], disarms) the hardware fault
    /// hooks. Replaces any previously armed set; counters in
    /// [`Machine::fault_stats`] keep accumulating.
    pub fn arm_faults(&mut self, hooks: FaultHooks) {
        self.forget_repeat();
        self.faults = hooks;
    }

    /// Returns the armed fault hooks.
    pub fn fault_hooks(&self) -> &FaultHooks {
        &self.faults
    }

    /// Returns what the armed faults have done so far.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Injects an uncorrectable media error into the cacheline containing
    /// `addr`: the stored bytes are garbled and subsequent checked loads
    /// ([`Machine::load_checked`]) report [`ReadError::Poisoned`] until
    /// the line is overwritten or scrubbed.
    pub fn poison_line(&mut self, addr: Addr) {
        self.forget_repeat();
        let cl = addr.cacheline();
        self.pm.poison_line(cl);
        self.overlay.remove(cl.0);
        self.persistent.write(cl, &[POISON_FILL; 64]);
    }

    /// Returns `true` if the cacheline containing `addr` is poisoned.
    pub fn line_poisoned(&self, addr: Addr) -> bool {
        self.region_of(addr) == MemRegion::Pm && self.pm.line_poisoned(addr.cacheline())
    }

    /// Like [`Machine::load`], but surfaces uncorrectable media errors as
    /// a typed error instead of silently returning garbled bytes. The
    /// demand access still happens (the DIMM detects the UE while
    /// servicing the read), so timing and counters advance either way.
    pub fn load_checked(
        &mut self,
        tid: ThreadId,
        addr: Addr,
        buf: &mut [u8],
    ) -> Result<(), ReadError> {
        self.load(tid, addr, buf);
        for cl in simbase::addr::cachelines_covering(addr, buf.len() as u64) {
            if self.line_poisoned(cl) {
                return Err(ReadError::Poisoned { line: cl.0 });
            }
        }
        Ok(())
    }

    /// Address-range scrub (ARS) over `[start, start + len)`: scans for
    /// poisoned lines and repairs them by zero-filling — the original data
    /// is gone; the scrub restores the *addresses* to usability so
    /// software can rebuild from redundancy.
    pub fn scrub_pm(&mut self, start: Addr, len: u64) -> ScrubOutcome {
        self.forget_repeat();
        let repaired = self.pm.scrub_range(start, len);
        for &cl in &repaired {
            self.overlay.remove(cl);
            self.persistent.write(Addr(cl), &[0u8; 64]);
        }
        ScrubOutcome {
            lines_scanned: len.div_ceil(CACHELINE_BYTES),
            repaired,
        }
    }

    /// Captures the functional PM state plus the crash-uncertain set: the
    /// overlay entries, whose data has not been accepted into the ADR
    /// domain. Every subset of the uncertain set surviving is a legal
    /// post-crash state at this instant (see [`CrashImage`]).
    pub fn capture_crash_image(&self) -> CrashImage {
        // Address order gives the uncertain set a canonical encoding.
        let uncertain: Vec<(u64, [u8; 64])> = self
            .overlay
            .sorted_entries()
            .into_iter()
            .map(|(cl, &bytes)| (cl, bytes))
            .collect();
        CrashImage {
            cfg: self.cfg.clone(),
            persistent: self.persistent.clone(),
            uncertain,
            pm_next: self.pm_next,
            dram_next: self.dram_next,
            poisoned: self.pm.poisoned_lines(),
        }
    }

    /// Materializes a fresh post-crash machine from `image`, applying the
    /// uncertain lines selected by `survivors` to the persistent image
    /// (the rest are lost). Caches, buffers, and clocks start cold; DRAM
    /// contents are lost; poisoned lines are reinstated.
    ///
    /// # Panics
    ///
    /// Panics if `survivors.len() != image.uncertain.len()`.
    pub fn from_crash_image(image: &CrashImage, survivors: &[bool]) -> Machine {
        assert_eq!(
            survivors.len(),
            image.uncertain.len(),
            "one survival bit per uncertain line"
        );
        let mut m = Machine::new(image.cfg.clone());
        m.persistent = image.persistent.clone();
        m.pm_next = image.pm_next;
        m.dram_next = image.dram_next;
        for (&survives, &(cl, bytes)) in survivors.iter().zip(image.uncertain.iter()) {
            if survives {
                m.persistent.write(Addr(cl), &bytes);
            }
        }
        for &cl in &image.poisoned {
            m.poison_line(Addr(cl));
        }
        m
    }

    /// Directly writes the persistent image, bypassing all timing (test
    /// fixtures and recovery-scenario setup).
    pub fn poke_persistent(&mut self, addr: Addr, data: &[u8]) {
        self.forget_repeat();
        self.persistent.write(addr, data);
    }

    /// Directly reads through overlay + persistent image, bypassing all
    /// timing (assertions in tests).
    pub fn peek(&self, addr: Addr, buf: &mut [u8]) {
        self.functional_read(addr, buf);
    }

    /// Directly reads a `u64`, bypassing all timing.
    pub fn peek_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.peek(addr, &mut b);
        u64::from_le_bytes(b)
    }
}

impl Drop for Machine {
    /// A machine built in a witness scope folds its final checkpoint into
    /// the scope. Skipped while unwinding, so a failing run reports its
    /// panic rather than a second one from the checkpoint.
    fn drop(&mut self) {
        if let Some(w) = self.trace.take_witness() {
            if !std::thread::panicking() {
                w.fold_checkpoint(&self.checkpoint().encode());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use cpucache::PrefetchConfig;
    use simbase::ADDR_MAP_GC_MIN;

    fn g1() -> Machine {
        Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1))
    }

    fn g2() -> Machine {
        Machine::new(MachineConfig::g2(PrefetchConfig::none(), 1))
    }

    #[test]
    fn load_store_round_trip_pm() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 0xFEED_FACE);
        assert_eq!(m.load_u64(t, a), 0xFEED_FACE);
    }

    #[test]
    fn load_store_round_trip_dram() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_dram(64, 64);
        m.store_u64(t, a, 42);
        assert_eq!(m.load_u64(t, a), 42);
    }

    #[test]
    fn clock_advances_with_every_operation() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        let t0 = m.now(t);
        m.load_u64(t, a);
        let t1 = m.now(t);
        assert!(t1 > t0, "a cold PM load takes time");
        assert!(t1 - t0 > 500, "cold miss goes to the media");
        m.load_u64(t, a);
        let t2 = m.now(t);
        assert!(t2 - t1 < 20, "second load hits L1");
    }

    #[test]
    fn unflushed_store_lost_on_crash() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 7);
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 0, "dirty line did not survive");
    }

    #[test]
    fn flushed_store_survives_crash() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 7);
        m.clwb(t, a);
        m.sfence(t);
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 7);
    }

    #[test]
    fn nt_store_survives_crash_after_fence() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.nt_store(t, a, &9u64.to_le_bytes());
        m.sfence(t);
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 9);
    }

    #[test]
    fn eadr_keeps_dirty_lines() {
        let mut cfg = MachineConfig::g2(PrefetchConfig::none(), 1);
        cfg.eadr = true;
        let mut m = Machine::new(cfg);
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 11);
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 11, "eADR persists CPU caches");
    }

    #[test]
    fn dram_lost_on_crash() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_dram(64, 64);
        m.store_u64(t, a, 5);
        m.power_fail(CrashPolicy::PersistAllDirty);
        assert_eq!(m.peek_u64(a), 0, "DRAM is volatile");
    }

    #[test]
    fn partial_crash_persists_some_dirty_lines() {
        let mut m = g1();
        let t = m.spawn(0);
        let base = m.alloc_pm(64 * 64, 64);
        for i in 0..64u64 {
            m.store_u64(t, base.add_cachelines(i), i + 1);
        }
        m.power_fail(CrashPolicy::PersistDirtyFraction(0.5));
        let survived = (0..64u64)
            .filter(|&i| m.peek_u64(base.add_cachelines(i)) != 0)
            .count();
        assert!(survived > 10 && survived < 54, "roughly half: {survived}");
    }

    #[test]
    fn g1_clwb_invalidates_g2_retains() {
        let mut m1 = g1();
        let t1 = m1.spawn(0);
        let a1 = m1.alloc_pm(64, 64);
        m1.store_u64(t1, a1, 1);
        m1.clwb(t1, a1);
        m1.mfence(t1);
        let before = m1.now(t1);
        m1.load_u64(t1, a1);
        let g1_reload = m1.now(t1) - before;
        assert!(
            g1_reload > 1000,
            "G1 reload waits out the persist: {g1_reload}"
        );

        let mut m2 = g2();
        let t2 = m2.spawn(0);
        let a2 = m2.alloc_pm(64, 64);
        m2.store_u64(t2, a2, 1);
        m2.clwb(t2, a2);
        m2.mfence(t2);
        let before = m2.now(t2);
        m2.load_u64(t2, a2);
        let g2_reload = m2.now(t2) - before;
        assert!(g2_reload < 20, "G2 clwb retains the line: {g2_reload}");
    }

    #[test]
    fn sfence_allows_fast_read_of_just_flushed_line() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 1);
        m.clwb(t, a);
        m.sfence(t);
        let before = m.now(t);
        m.load_u64(t, a);
        let lat = m.now(t) - before;
        assert!(lat < 50, "bypass window serves the stale copy: {lat}");
    }

    #[test]
    fn nt_store_read_back_stalls_even_on_g2() {
        let mut m = g2();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.nt_store(t, a, &3u64.to_le_bytes());
        m.mfence(t);
        let before = m.now(t);
        m.load_u64(t, a);
        let lat = m.now(t) - before;
        assert!(lat > 1000, "nt-store RAP persists on G2: {lat}");
    }

    #[test]
    fn clflush_is_slower_than_clflushopt() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        let b = m.alloc_pm(64, 64);
        m.store_u64(t, a, 1);
        m.store_u64(t, b, 1);
        let t0 = m.now(t);
        m.clflushopt(t, a);
        let opt = m.now(t) - t0;
        let t1 = m.now(t);
        m.clflush(t, b);
        let legacy = m.now(t) - t1;
        assert!(
            legacy > opt,
            "ordered clflush waits for acceptance: {legacy} vs {opt}"
        );
    }

    #[test]
    fn fence_waits_for_acceptance() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 1);
        let before = m.now(t);
        m.clwb(t, a);
        m.sfence(t);
        let fence_time = m.now(t) - before;
        // flush issue + accept wait + fence cost: small but nonzero.
        assert!(
            fence_time >= 120,
            "fence accounts for acceptance: {fence_time}"
        );
        assert!(fence_time < 1500, "fence does not wait for media write");
    }

    #[test]
    fn remote_thread_pays_numa_penalty() {
        let mut local = g1();
        let tl = local.spawn(0);
        let mut remote = g1();
        let tr = remote.spawn(1);
        let al = local.alloc_pm(64, 64);
        let ar = remote.alloc_pm(64, 64);
        let b0 = local.now(tl);
        local.load_u64(tl, al);
        let local_lat = local.now(tl) - b0;
        let b1 = remote.now(tr);
        remote.load_u64(tr, ar);
        let remote_lat = remote.now(tr) - b1;
        assert_eq!(remote_lat - local_lat, 170);
    }

    #[test]
    fn hyperthread_sharing_costs_extra() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.load_u64(t, a);
        let b0 = m.now(t);
        m.load_u64(t, a);
        let solo = m.now(t) - b0;
        let _sib = m.spawn_sibling(t);
        let b1 = m.now(t);
        m.load_u64(t, a);
        let shared = m.now(t) - b1;
        assert_eq!(shared - solo, 40);
    }

    #[test]
    fn streaming_copy_moves_bytes_and_reads_one_xpline() {
        let mut m = g1();
        let t = m.spawn(0);
        let src = m.alloc_pm(256, 256);
        let dst = m.alloc_dram(256, 64);
        for i in 0..4u64 {
            m.store_u64(t, src.add_cachelines(i), 100 + i);
            m.clwb(t, src.add_cachelines(i));
        }
        m.sfence(t);
        m.cold_reset();
        let before = m.metrics().telemetry;
        m.copy_xpline_streaming(t, src, dst);
        let d = m.metrics().telemetry.delta(&before);
        assert_eq!(d.media.read, 256, "exactly one XPLine from the media");
        for i in 0..4u64 {
            assert_eq!(m.peek_u64(dst.add_cachelines(i)), 100 + i);
        }
    }

    #[test]
    fn cold_reset_preserves_functional_state() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 77);
        m.cold_reset();
        assert_eq!(m.peek_u64(a), 77);
        assert_eq!(m.load_u64(t, a), 77);
        let tel = m.metrics().telemetry;
        assert!(tel.media.read > 0, "caches are cold after reset");
    }

    #[test]
    fn telemetry_tracks_demand_and_amplification() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(4096, 256);
        // Strided cold reads: one cacheline per XPLine.
        for i in 0..16u64 {
            m.load_u64(t, a.add_xplines(i));
            m.clflushopt(t, a.add_xplines(i));
        }
        let tel = m.metrics().telemetry;
        assert_eq!(tel.imc.read, 16 * 64);
        assert_eq!(tel.media.read, 16 * 256);
        assert!((tel.read_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dirty_eviction_persists_data() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 123);
        // Thrash the hierarchy so the dirty line is evicted to PM.
        let filler = m.alloc_pm(64 << 20, 64);
        for i in 0..600_000u64 {
            m.store_u64(t, filler.add_cachelines(i), i);
        }
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 123, "evicted dirty line reached PM");
    }

    #[test]
    fn wpq_drop_fault_loses_a_flushed_line() {
        use crate::fault::FaultHooks;
        let mut m = g1();
        let t = m.spawn(0);
        m.arm_faults(FaultHooks {
            wpq_drop_every_nth: Some(2),
            ..FaultHooks::none()
        });
        let a = m.alloc_pm(128, 64);
        let b = Addr(a.0 + 64);
        m.store_u64(t, a, 1);
        m.clwb(t, a); // accept #1: persists
        m.store_u64(t, b, 2);
        m.clwb(t, b); // accept #2: dropped
        m.sfence(t);
        assert_eq!(m.fault_stats().wpq_dropped, vec![b.0]);
        // Before the crash the data is still visible (it sits in the
        // overlay, exactly like an unflushed store).
        assert_eq!(m.peek_u64(b), 2);
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 1, "accepted line survives");
        assert_eq!(m.peek_u64(b), 0, "dropped acceptance is lost");
    }

    #[test]
    fn poisoned_line_garbles_and_checked_load_reports_it() {
        use crate::fault::ReadError;
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(128, 64);
        m.store_u64(t, a, 77);
        m.clwb(t, a);
        m.sfence(t);
        m.poison_line(a);
        assert!(m.line_poisoned(a));
        assert_ne!(m.peek_u64(a), 77, "plain reads see garble");
        let mut buf = [0u8; 8];
        assert_eq!(
            m.load_checked(t, a, &mut buf),
            Err(ReadError::Poisoned { line: a.0 })
        );
        // The neighbouring line is unaffected.
        let b = Addr(a.0 + 64);
        assert_eq!(m.load_checked(t, b, &mut buf), Ok(()));
    }

    #[test]
    fn scrub_repairs_poison_and_zero_fills() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 5);
        m.clwb(t, a);
        m.sfence(t);
        m.poison_line(a);
        let outcome = m.scrub_pm(a, 64);
        assert_eq!(outcome.repaired, vec![a.0]);
        assert_eq!(outcome.lines_scanned, 1);
        assert!(!m.line_poisoned(a));
        assert_eq!(m.peek_u64(a), 0, "repair zero-fills; the data is gone");
        // Overwriting also repairs (write-in-place).
        m.poison_line(a);
        m.store_u64(t, a, 9);
        m.clwb(t, a);
        m.sfence(t);
        assert!(!m.line_poisoned(a));
        assert_eq!(m.peek_u64(a), 9);
    }

    #[test]
    fn xpbuffer_partial_drain_poisons_buffered_lines() {
        use crate::fault::{FaultHooks, PartialDrain};
        let mut m = g2();
        let t = m.spawn(0);
        m.arm_faults(FaultHooks {
            xpbuffer_partial_drain: Some(PartialDrain {
                drop_fraction: 1.0,
                seed: 7,
            }),
            ..FaultHooks::none()
        });
        let a = m.alloc_pm(256, 256);
        m.store_u64(t, a, 42);
        m.clwb(t, a);
        m.sfence(t); // accepted: the line now sits in the on-DIMM WCB
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert!(
            !m.fault_stats().crash_poisoned.is_empty(),
            "the buffered XPLine was interrupted mid media-write"
        );
        assert!(m.line_poisoned(a));
        assert_ne!(m.peek_u64(a), 42, "ADR promise violated by the fault");
    }

    #[test]
    fn crash_image_round_trip_enumerates_survivor_subsets() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(128, 64);
        let b = Addr(a.0 + 64);
        m.store_u64(t, a, 10);
        m.clwb(t, a);
        m.sfence(t);
        m.store_u64(t, b, 20); // never flushed: uncertain
        let img = m.capture_crash_image();
        assert_eq!(img.uncertain_lines(), vec![b.0]);
        let lost = Machine::from_crash_image(&img, &[false]);
        assert_eq!(lost.peek_u64(a), 10);
        assert_eq!(lost.peek_u64(b), 0);
        let kept = Machine::from_crash_image(&img, &[true]);
        assert_eq!(kept.peek_u64(b), 20);
        // The materialized machine is runnable.
        let mut kept = kept;
        let t2 = kept.spawn(0);
        assert_eq!(kept.load_u64(t2, b), 20);
    }

    #[test]
    fn crash_image_uncertain_set_is_address_ordered() {
        let mut m = g1();
        let t = m.spawn(0);
        let base = m.alloc_pm(8 * 4096, 4096);
        // Unflushed stores over four pages, deliberately out of order.
        let lines = [
            (4u64, 3u64),
            (0, 60),
            (2, 1),
            (4, 0),
            (0, 2),
            (3, 33),
            (2, 40),
        ];
        for &(page, line) in &lines {
            m.store_u64(t, Addr(base.0 + page * 4096 + line * 64), page * 100 + line);
        }
        let img = m.capture_crash_image();
        let keys = img.uncertain_lines();
        assert_eq!(keys.len(), lines.len());
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "uncertain lines strictly ascending: {keys:x?}"
        );
    }

    #[test]
    fn single_nt_stores_and_flushes_collect_controller_inflight_records() {
        let mut m = g1();
        let t = m.spawn(0);
        let n = 10_000u64;
        let a = m.alloc_pm(n * 64, 64);
        for i in 0..n {
            m.nt_store(t, a.add_cachelines(i), &i.to_le_bytes());
        }
        m.sfence(t);
        assert!(
            m.pm.inflight_len() < 2 * ADDR_MAP_GC_MIN,
            "nt-stores: {} records still held",
            m.pm.inflight_len()
        );
        let b = m.alloc_pm(n * 64, 64);
        for i in 0..n {
            m.store_u64(t, b.add_cachelines(i), i);
            m.clflushopt(t, b.add_cachelines(i));
        }
        m.sfence(t);
        assert!(
            m.pm.inflight_len() < 2 * ADDR_MAP_GC_MIN,
            "flushes: {} records still held",
            m.pm.inflight_len()
        );
    }

    #[test]
    fn dram_flushes_on_two_threads_collect_controller_inflight_records() {
        // The horizon is the slower thread's clock, so both threads must
        // make progress for records to become collectable.
        let mut m = g1();
        let threads = [m.spawn(0), m.spawn(0)];
        let n = 12_000u64;
        let a = m.alloc_dram(n * 64, 64);
        for i in 0..n {
            let t = threads[i as usize % 2];
            m.store_u64(t, a.add_cachelines(i), i);
            m.clwb(t, a.add_cachelines(i));
            m.sfence(t);
        }
        assert!(
            m.dram.inflight_len() < 2 * ADDR_MAP_GC_MIN,
            "{} DRAM records still held",
            m.dram.inflight_len()
        );
    }

    #[test]
    fn checkpoint_restore_round_trips_functional_and_clock_state() {
        let mut m = g1();
        let t = m.spawn(0);
        let pm = m.alloc_pm(128, 64);
        let dr = m.alloc_dram(64, 64);
        m.store_u64(t, pm, 11);
        m.clwb(t, pm);
        m.sfence(t);
        m.store_u64(t, Addr(pm.0 + 64), 22); // unflushed: folded by quiesce
        m.store_u64(t, dr, 33);
        let now_before = m.now(t);
        let snap = m.checkpoint();
        let bytes = snap.encode();
        let decoded = crate::snapshot::MachineSnapshot::decode(&bytes).unwrap();
        let r = Machine::restore(MachineConfig::g1(PrefetchConfig::none(), 1), &decoded).unwrap();
        assert_eq!(r.peek_u64(pm), 11);
        assert_eq!(r.peek_u64(Addr(pm.0 + 64)), 22);
        assert_eq!(r.peek_u64(dr), 33);
        assert_eq!(r.now(t), now_before);
        assert_eq!(r.metrics().telemetry.demand, m.metrics().telemetry.demand);
    }

    #[test]
    fn checkpointed_machine_and_restored_machine_step_identically() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(4096, 256);
        for i in 0..8u64 {
            m.store_u64(t, a.add_cachelines(i), i);
        }
        let snap = m.checkpoint();
        let mut r = Machine::restore(MachineConfig::g1(PrefetchConfig::none(), 1), &snap).unwrap();
        // Step both machines through the same op sequence.
        for machine in [&mut m, &mut r] {
            for i in 0..32u64 {
                machine.store_u64(t, a.add_cachelines(i % 8), i * 7);
                machine.clwb(t, a.add_cachelines(i % 8));
                machine.sfence(t);
                machine.load_u64(t, a.add_cachelines((i + 3) % 8));
            }
        }
        assert_eq!(m.now(t), r.now(t), "clocks advanced identically");
        assert_eq!(
            m.checkpoint().encode(),
            r.checkpoint().encode(),
            "full state is byte-identical after stepping"
        );
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let mut m = g1();
        let _t = m.spawn(0);
        let snap = m.checkpoint();
        let err = Machine::restore(MachineConfig::g2(PrefetchConfig::none(), 1), &snap);
        assert!(matches!(err, Err(SnapshotError::ConfigMismatch { .. })));
    }

    #[test]
    fn checkpoint_preserves_poisoned_lines() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(128, 64);
        m.store_u64(t, a, 5);
        m.clwb(t, a);
        m.sfence(t);
        m.poison_line(a);
        let snap = m.checkpoint();
        let r = Machine::restore(MachineConfig::g1(PrefetchConfig::none(), 1), &snap).unwrap();
        assert!(r.line_poisoned(a));
        assert!(m.line_poisoned(a), "live machine keeps poison too");
    }

    #[test]
    fn store_miss_reads_the_line_first() {
        let mut m = g1();
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        let before = m.metrics().telemetry;
        m.store_u64(t, a, 5);
        let d = m.metrics().telemetry.delta(&before);
        assert_eq!(d.imc.read, 64, "write-allocate fetches the line");
        let before = m.metrics().telemetry;
        let b = m.alloc_pm(64, 64);
        let mut line = [0u8; 64];
        line[0] = 9;
        m.store_full_cacheline(t, b, &line);
        let d = m.metrics().telemetry.delta(&before);
        assert_eq!(d.imc.read, 0, "full-line store skips the fetch");
        assert_eq!(m.peek_u64(b) & 0xFF, 9);
    }

    #[test]
    fn batched_runs_match_unbatched_sequences() {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Collect(Rc<RefCell<Vec<TraceEvent>>>);
        impl TraceSink for Collect {
            fn on_event(&mut self, ev: &TraceEvent) {
                self.0.borrow_mut().push(*ev);
            }
        }

        let run = |batched: bool| {
            let mut m = g1();
            let events = Rc::new(RefCell::new(Vec::new()));
            m.set_trace_sink(Box::new(Collect(Rc::clone(&events))));
            let t = m.spawn(0);
            let base = m.alloc_pm(64 * 64, 256);
            let data = [0xA5u8; 64];
            if batched {
                m.nt_store_run(t, base, &data, 16);
                m.sfence(t);
                m.load_u64_run(t, base, 16);
                m.clflushopt_run(t, base, 16);
                m.sfence(t);
            } else {
                for i in 0..16u64 {
                    m.nt_store(t, base.add_cachelines(i), &data);
                }
                m.sfence(t);
                for i in 0..16u64 {
                    m.load_u64(t, base.add_cachelines(i));
                }
                for i in 0..16u64 {
                    m.clflushopt(t, base.add_cachelines(i));
                }
                m.sfence(t);
            }
            let mut bytes = vec![0u8; 64 * 16];
            m.peek(base, &mut bytes);
            let wpq = m.fault_stats().wpq_accepts;
            let demand = m.metrics().telemetry.demand;
            let evs = events.borrow().clone();
            (m.now(t), evs, bytes, wpq, demand)
        };
        let (t_seq, ev_seq, bytes_seq, wpq_seq, demand_seq) = run(false);
        let (t_run, ev_run, bytes_run, wpq_run, demand_run) = run(true);
        assert_eq!(t_run, t_seq, "batched timing matches unbatched");
        assert_eq!(ev_run, ev_seq, "batched trace events match unbatched");
        assert_eq!(bytes_run, bytes_seq, "functional state matches");
        assert_eq!(wpq_run, wpq_seq, "WPQ accepts match");
        assert_eq!(demand_run, demand_seq, "demand byte taps match");
    }

    #[test]
    fn nt_store_run_respects_armed_wpq_drop() {
        // The full-line persist fast path must stand down when a WPQ-drop
        // fault is armed: the dropped acceptance leaves the line in the
        // crash-uncertain overlay, exactly like the unbatched path.
        use crate::fault::FaultHooks;
        let mut m = g1();
        let t = m.spawn(0);
        m.arm_faults(FaultHooks {
            wpq_drop_every_nth: Some(2),
            ..FaultHooks::none()
        });
        let a = m.alloc_pm(128, 64);
        let line = [7u8; 64];
        m.nt_store_run(t, a, &line, 2);
        m.sfence(t);
        assert_eq!(m.fault_stats().wpq_dropped, vec![a.0 + 64]);
        assert_eq!(m.peek_u64(Addr(a.0 + 64)), 0x0707_0707_0707_0707);
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), 0x0707_0707_0707_0707, "accepted line");
        assert_eq!(m.peek_u64(Addr(a.0 + 64)), 0, "dropped acceptance lost");
    }
}
