//! The DRAM (DDR4) channel: the paper's synchronous comparison substrate.

use simbase::{Addr, AddrMap, ByteCounter, Cycles, ServerPool, CACHELINE_BYTES};

/// DRAM channel configuration.
#[derive(Debug, Clone)]
pub struct DramParams {
    /// Cacheline load latency from an idle channel.
    pub load_latency: Cycles,
    /// Latency of accepting a store or write-back.
    pub store_latency: Cycles,
    /// Cycles from a flush acceptance until the line is readable again.
    /// Much shorter than on PM, but non-zero: Figure 7 (b)/(d) shows a ~2x
    /// read-after-persist gap on DRAM.
    pub persist_pipeline: Cycles,
    /// Number of parallel channel slots (bandwidth model).
    pub channels: usize,
    /// Channel occupancy per 64 B transfer.
    pub transfer_occupancy: Cycles,
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams {
            load_latency: 230,
            store_latency: 60,
            persist_pipeline: 380,
            channels: 4,
            transfer_occupancy: 12,
        }
    }
}

/// How many in-flight persist records to tolerate before garbage
/// collecting completed ones.
const INFLIGHT_GC_THRESHOLD: usize = 1 << 20;

/// One socket's DRAM controller.
#[derive(Debug)]
pub struct DramController {
    params: DramParams,
    channels: ServerPool,
    counters: ByteCounter,
    /// Cacheline address -> time the last flushed write becomes readable.
    inflight: AddrMap<Cycles>,
}

impl DramController {
    /// Creates a DRAM controller.
    pub fn new(params: DramParams) -> Self {
        let channels = ServerPool::new(params.channels.max(1));
        DramController {
            params,
            channels,
            counters: ByteCounter::new(),
            inflight: AddrMap::new(),
        }
    }

    /// Loads the cacheline at `addr`, returning the completion time.
    pub fn read(&mut self, now: Cycles, addr: Addr) -> Cycles {
        self.counters.add_read(CACHELINE_BYTES);
        let cl = addr.cacheline().0;
        let start = match self.inflight.get(cl) {
            Some(&readable) if readable > now => readable,
            _ => now,
        };
        let queued = self.channels.request(start, self.params.transfer_occupancy);
        queued + self.params.load_latency
    }

    /// Accepts a store or write-back of the cacheline at `addr`, returning
    /// `(accept_time, readable_at)`.
    pub fn write(&mut self, now: Cycles, addr: Addr) -> (Cycles, Cycles) {
        self.counters.add_write(CACHELINE_BYTES);
        let queued = self.channels.request(now, self.params.transfer_occupancy);
        let accept = queued + self.params.store_latency;
        let readable_at = accept + self.params.persist_pipeline;
        let cl = addr.cacheline().0;
        let entry = self.inflight.get_or_insert_with(cl, || 0);
        *entry = (*entry).max(readable_at);
        if self.inflight.len() >= INFLIGHT_GC_THRESHOLD {
            self.inflight.retain(|_, &readable| readable > now);
        }
        (accept, readable_at)
    }

    /// Returns the channel byte counters.
    pub fn counters(&self) -> ByteCounter {
        self.counters
    }

    /// Returns the configured parameters.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Resets counters and occupancy.
    pub fn reset_all(&mut self) {
        self.counters.reset();
        self.channels.reset();
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_read_takes_load_latency() {
        let mut d = DramController::new(DramParams::default());
        let done = d.read(1000, Addr(0));
        assert_eq!(done, 1000 + 12 + 230);
    }

    #[test]
    fn read_after_flush_pays_short_stall() {
        let mut d = DramController::new(DramParams::default());
        let (accept, readable) = d.write(0, Addr(0));
        let done = d.read(accept, Addr(0));
        assert!(done >= readable);
        // Persist window is far shorter than the PM one.
        assert!(readable - accept < 500);
    }

    #[test]
    fn channel_contention_queues() {
        let mut d = DramController::new(DramParams {
            channels: 1,
            ..DramParams::default()
        });
        let a = d.read(0, Addr(0));
        let b = d.read(0, Addr(64));
        assert_eq!(b - a, 12, "second read queues one occupancy slot");
    }

    #[test]
    fn counters_track_traffic() {
        let mut d = DramController::new(DramParams::default());
        d.read(0, Addr(0));
        d.write(0, Addr(64));
        assert_eq!(d.counters().read, 64);
        assert_eq!(d.counters().write, 64);
        d.reset_all();
        assert_eq!(d.counters().read, 0);
    }
}
