//! Software-layer fault injection: deliberate flush/fence elision.
//!
//! [`FaultyEnv`] wraps any [`PmemEnv`] and silently drops a configurable
//! fraction of flushes and/or fences, leaving the wrapped data structure's
//! logic untouched. This is how the `pmcheck` checker is validated
//! end-to-end: run a known-correct structure under an [`ElisionPlan`], and
//! the checker must flag exactly the persists the plan removed — and a
//! real `power_fail(LoseUnflushed)` must lose exactly the lines the
//! checker predicted (see `repro pmcheck`).
//!
//! Dropping a `clwb` turns a correct persist into a missing-flush bug;
//! dropping an `sfence` turns it into a missing-fence (ordering) bug.

use optane_core::ReadError;
use pmem::PmemEnv;
use simbase::{Addr, Cycles};

/// Which persist operations to drop, counted per operation kind over the
/// wrapper's lifetime (1-indexed: `every_nth = 3` drops the 3rd, 6th, …).
#[derive(Debug, Clone, Copy, Default)]
pub struct ElisionPlan {
    /// Drop every Nth `clwb`/`clflushopt`/`clflush`.
    pub drop_every_nth_flush: Option<u64>,
    /// Drop every Nth `sfence` (`mfence` is never dropped: real code uses
    /// it for visibility, not just persistence).
    pub drop_every_nth_fence: Option<u64>,
}

impl ElisionPlan {
    /// No faults: the wrapper is transparent.
    pub fn none() -> Self {
        ElisionPlan::default()
    }

    /// Drop every Nth flush instruction.
    pub fn drop_flushes(every_nth: u64) -> Self {
        assert!(every_nth > 0, "every_nth is 1-indexed");
        ElisionPlan {
            drop_every_nth_flush: Some(every_nth),
            drop_every_nth_fence: None,
        }
    }

    /// Drop every Nth `sfence`.
    pub fn drop_fences(every_nth: u64) -> Self {
        assert!(every_nth > 0, "every_nth is 1-indexed");
        ElisionPlan {
            drop_every_nth_flush: None,
            drop_every_nth_fence: Some(every_nth),
        }
    }
}

/// A [`PmemEnv`] that forwards everything to `inner` except the persist
/// operations its [`ElisionPlan`] says to drop.
#[derive(Debug)]
pub struct FaultyEnv<E> {
    inner: E,
    plan: ElisionPlan,
    flushes_seen: u64,
    fences_seen: u64,
    flushes_dropped: u64,
    fences_dropped: u64,
}

impl<E: PmemEnv> FaultyEnv<E> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: E, plan: ElisionPlan) -> Self {
        FaultyEnv {
            inner,
            plan,
            flushes_seen: 0,
            fences_seen: 0,
            flushes_dropped: 0,
            fences_dropped: 0,
        }
    }

    /// The wrapped environment.
    pub fn inner(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Unwraps, returning the inner environment.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Flush instructions dropped so far.
    pub fn flushes_dropped(&self) -> u64 {
        self.flushes_dropped
    }

    /// Fences dropped so far.
    pub fn fences_dropped(&self) -> u64 {
        self.fences_dropped
    }

    fn drop_this_flush(&mut self) -> bool {
        self.flushes_seen += 1;
        match self.plan.drop_every_nth_flush {
            Some(n) if self.flushes_seen.is_multiple_of(n) => {
                self.flushes_dropped += 1;
                true
            }
            _ => false,
        }
    }

    fn drop_this_fence(&mut self) -> bool {
        self.fences_seen += 1;
        match self.plan.drop_every_nth_fence {
            Some(n) if self.fences_seen.is_multiple_of(n) => {
                self.fences_dropped += 1;
                true
            }
            _ => false,
        }
    }
}

impl<E: PmemEnv> PmemEnv for FaultyEnv<E> {
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        self.inner.load(addr, buf);
    }

    fn try_load(&mut self, addr: Addr, buf: &mut [u8]) -> Result<(), ReadError> {
        self.inner.try_load(addr, buf)
    }

    fn store(&mut self, addr: Addr, data: &[u8]) {
        self.inner.store(addr, data);
    }

    fn store_full_line(&mut self, addr: Addr, data: &[u8; 64]) {
        self.inner.store_full_line(addr, data);
    }

    fn nt_store(&mut self, addr: Addr, data: &[u8]) {
        self.inner.nt_store(addr, data);
    }

    fn clwb(&mut self, addr: Addr) {
        if !self.drop_this_flush() {
            self.inner.clwb(addr);
        }
    }

    fn clflushopt(&mut self, addr: Addr) {
        if !self.drop_this_flush() {
            self.inner.clflushopt(addr);
        }
    }

    fn clflush(&mut self, addr: Addr) {
        if !self.drop_this_flush() {
            self.inner.clflush(addr);
        }
    }

    fn sfence(&mut self) {
        if !self.drop_this_fence() {
            self.inner.sfence();
        }
    }

    fn mfence(&mut self) {
        self.inner.mfence();
    }

    fn cas_u64(&mut self, addr: Addr, expected: u64, new: u64) -> u64 {
        // Never elided: the lock prefix's barrier is inherent to the
        // instruction, not a separately issued persist.
        self.inner.cas_u64(addr, expected, new)
    }

    fn fetch_add_u64(&mut self, addr: Addr, delta: u64) -> u64 {
        self.inner.fetch_add_u64(addr, delta)
    }

    fn alloc(&mut self, len: u64, align: u64) -> Addr {
        self.inner.alloc(len, align)
    }

    fn alloc_volatile(&mut self, len: u64, align: u64) -> Addr {
        self.inner.alloc_volatile(len, align)
    }

    fn compute(&mut self, cycles: Cycles) {
        self.inner.compute(cycles);
    }

    fn now(&self) -> Cycles {
        self.inner.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::HostEnv;

    #[test]
    fn transparent_without_a_plan() {
        let mut env = FaultyEnv::new(HostEnv::new(), ElisionPlan::none());
        let a = env.alloc(64, 64);
        env.store_u64(a, 9);
        env.persist(a, 8);
        assert_eq!(env.load_u64(a), 9);
        assert_eq!(env.flushes_dropped(), 0);
        assert_eq!(env.fences_dropped(), 0);
    }

    #[test]
    fn drops_every_nth_flush() {
        let mut env = FaultyEnv::new(HostEnv::new(), ElisionPlan::drop_flushes(2));
        let a = env.alloc(256, 64);
        for i in 0..4 {
            env.clwb(Addr(a.0 + 64 * i));
        }
        assert_eq!(env.flushes_dropped(), 2);
    }

    #[test]
    fn drops_every_nth_fence_but_never_mfence() {
        let mut env = FaultyEnv::new(HostEnv::new(), ElisionPlan::drop_fences(1));
        env.sfence();
        env.mfence();
        env.sfence();
        assert_eq!(env.fences_dropped(), 2);
    }

    #[test]
    fn try_load_passes_through() {
        let mut env = FaultyEnv::new(HostEnv::new(), ElisionPlan::none());
        let a = env.alloc(64, 64);
        env.store_u64(a, 3);
        let mut buf = [0u8; 8];
        assert_eq!(env.try_load(a, &mut buf), Ok(()));
        assert_eq!(u64::from_le_bytes(buf), 3);
    }
}
