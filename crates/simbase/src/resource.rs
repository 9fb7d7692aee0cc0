//! Contention modelling for shared hardware resources.
//!
//! The simulator is not a full discrete-event engine; instead each shared
//! hardware resource (a 3D-XPoint media bank, the iMC write-pending queue
//! drain, a DRAM channel) is modelled as a *server queue*: it remembers when
//! it next becomes free, and a request arriving at time `t` with service
//! time `s` completes at `max(t, free_at) + s`. The difference between the
//! completion time and `t` is the latency the requesting thread observes.
//!
//! This reproduces the first-order contention effects the paper's
//! multi-threaded experiments depend on (write bandwidth saturating at a
//! small thread count, media read concurrency limits) while keeping the
//! simulator simple and deterministic.

use crate::clock::Cycles;

/// A single-server queue.
#[derive(Debug, Clone, Default)]
pub struct Server {
    free_at: Cycles,
    /// Total busy time accumulated, for utilization reporting.
    busy: Cycles,
}

impl Server {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a request arriving at `now` with the given `service` time.
    ///
    /// Returns the completion time. The server is busy until then.
    pub fn request(&mut self, now: Cycles, service: Cycles) -> Cycles {
        let start = self.free_at.max(now);
        self.free_at = start + service;
        self.busy += service;
        self.free_at
    }

    /// Returns when the server next becomes free.
    pub fn free_at(&self) -> Cycles {
        self.free_at
    }

    /// Returns the accumulated busy time.
    pub fn busy_time(&self) -> Cycles {
        self.busy
    }

    /// Resets the server to idle at time zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A pool of `k` identical servers; requests are dispatched to the server
/// that frees up earliest.
///
/// Used for media banks: an Optane DIMM can service a small number of
/// concurrent media reads.
#[derive(Debug, Clone)]
pub struct ServerPool {
    servers: Vec<Server>,
}

impl ServerPool {
    /// Creates a pool of `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "ServerPool needs at least one server");
        ServerPool {
            servers: vec![Server::new(); k],
        }
    }

    /// Submits a request arriving at `now` with the given `service` time to
    /// the earliest-free server and returns the completion time.
    pub fn request(&mut self, now: Cycles, service: Cycles) -> Cycles {
        // simlint::allow(unwrap-in-lib, `new` rejects an empty pool and
        // nothing removes servers, so a minimum always exists)
        #[allow(clippy::expect_used)]
        let server = self
            .servers
            .iter_mut()
            .min_by_key(|s| s.free_at())
            .expect("pool is non-empty");
        server.request(now, service)
    }

    /// Returns the number of servers in the pool.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Returns `true` if the pool has no servers (never true by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Returns the total busy time across all servers.
    pub fn busy_time(&self) -> Cycles {
        self.servers.iter().map(Server::busy_time).sum()
    }

    /// Resets every server to idle.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            s.reset();
        }
    }
}

/// Occupancy statistics for a queue-like resource.
///
/// The paper reasons about iMC queue pressure (RPQ/WPQ) from `ipmwatch`
/// occupancy counters; this is the simulator's equivalent observation
/// point. `stall_cycles` is the *time-at-full* requesters experienced:
/// the total cycles spent waiting because the queue was at capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items accepted into the queue.
    pub accepts: u64,
    /// Deepest backlog observed right after an acceptance.
    pub max_depth: u64,
    /// Total cycles requesters stalled because the queue was full.
    pub stall_cycles: Cycles,
}

impl QueueStats {
    /// Folds another window of observations into this one.
    ///
    /// Counters add; `max_depth` keeps the deeper of the two (it is a
    /// high-water mark, not a count).
    pub fn merge(&mut self, other: &QueueStats) {
        self.accepts += other.accepts;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.stall_cycles += other.stall_cycles;
    }

    /// Resets all observations to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A throughput limiter expressed as a fixed per-item service interval.
///
/// Unlike [`Server`], which delays the *requester*, a `BandwidthGate` is
/// used for fire-and-forget traffic (e.g. the asynchronous WPQ drain): the
/// caller learns when the item will have drained but is not itself stalled
/// unless the backlog exceeds `capacity` items.
#[derive(Debug, Clone)]
pub struct BandwidthGate {
    /// Cycles between consecutive item completions at full load.
    interval: Cycles,
    /// Completion time of the most recently accepted item.
    last_completion: Cycles,
    /// Maximum number of in-flight items before acceptance itself stalls.
    capacity: usize,
    /// Completion times of in-flight items (monotonically increasing).
    in_flight: std::collections::VecDeque<Cycles>,
    /// Occupancy observations accumulated across accepts.
    stats: QueueStats,
}

impl BandwidthGate {
    /// Creates a gate draining one item per `interval` cycles, with room for
    /// `capacity` queued items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(interval: Cycles, capacity: usize) -> Self {
        assert!(capacity > 0, "BandwidthGate capacity must be positive");
        BandwidthGate {
            interval,
            last_completion: 0,
            capacity,
            in_flight: std::collections::VecDeque::new(),
            stats: QueueStats::default(),
        }
    }

    /// Accepts an item at time `now`.
    ///
    /// Returns `(accept_time, completion_time)`. `accept_time` is when the
    /// item actually entered the queue: it equals `now` unless the queue was
    /// full, in which case the caller must stall until a slot frees up.
    pub fn accept(&mut self, now: Cycles) -> (Cycles, Cycles) {
        self.retire(now);
        let accept_time = if self.in_flight.len() >= self.capacity {
            // Stall until the oldest in-flight item drains.
            let idx = self.in_flight.len() - self.capacity;
            self.in_flight[idx]
        } else {
            now
        };
        if accept_time > now {
            // The item only enters once the front has drained; retire what
            // completed in the meantime so depth accounting stays exact.
            self.retire(accept_time);
        }
        let completion = (self.last_completion + self.interval).max(accept_time + self.interval);
        self.last_completion = completion;
        self.in_flight.push_back(completion);
        self.stats.accepts += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.in_flight.len() as u64);
        self.stats.stall_cycles += accept_time - now;
        (accept_time, completion)
    }

    /// Drops bookkeeping for items that completed at or before `now`.
    fn retire(&mut self, now: Cycles) {
        while let Some(&front) = self.in_flight.front() {
            if front <= now {
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
    }

    /// Returns the number of items still in flight at time `now`.
    pub fn in_flight_at(&mut self, now: Cycles) -> usize {
        self.retire(now);
        self.in_flight.len()
    }

    /// Returns the per-item drain interval.
    pub fn interval(&self) -> Cycles {
        self.interval
    }

    /// Returns the configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the accumulated occupancy observations.
    pub fn queue_stats(&self) -> QueueStats {
        self.stats
    }

    /// Clears occupancy observations without disturbing queue contents.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Empties the queue without touching occupancy observations (a power
    /// failure drops timing state but the cumulative metrics survive in
    /// the observer).
    pub fn clear_queue(&mut self) {
        self.last_completion = 0;
        self.in_flight.clear();
    }

    /// Resets the gate to empty, including occupancy observations.
    pub fn reset(&mut self) {
        self.clear_queue();
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = Server::new();
        assert_eq!(s.request(100, 10), 110);
    }

    #[test]
    fn busy_server_queues() {
        let mut s = Server::new();
        s.request(0, 100);
        // Second request arrives while the first is in service.
        assert_eq!(s.request(10, 100), 200);
        assert_eq!(s.busy_time(), 200);
    }

    #[test]
    fn server_idles_between_requests() {
        let mut s = Server::new();
        s.request(0, 10);
        assert_eq!(s.request(50, 10), 60);
        assert_eq!(s.busy_time(), 20);
    }

    #[test]
    fn pool_allows_parallelism_up_to_width() {
        let mut p = ServerPool::new(2);
        assert_eq!(p.request(0, 100), 100);
        assert_eq!(p.request(0, 100), 100);
        // Third concurrent request has to wait for a server.
        assert_eq!(p.request(0, 100), 200);
    }

    #[test]
    fn pool_picks_earliest_free_server() {
        let mut p = ServerPool::new(2);
        p.request(0, 100); // server A busy until 100
        p.request(0, 10); // server B busy until 10
        assert_eq!(p.request(20, 5), 25); // server B again
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        ServerPool::new(0);
    }

    #[test]
    fn gate_does_not_stall_below_capacity() {
        let mut g = BandwidthGate::new(100, 4);
        let (a0, c0) = g.accept(0);
        assert_eq!((a0, c0), (0, 100));
        let (a1, c1) = g.accept(0);
        assert_eq!(a1, 0);
        assert_eq!(c1, 200);
    }

    #[test]
    fn gate_stalls_when_full() {
        let mut g = BandwidthGate::new(100, 2);
        g.accept(0); // completes 100
        g.accept(0); // completes 200
        let (a, c) = g.accept(0); // queue full: stall until 100
        assert_eq!(a, 100);
        assert_eq!(c, 300);
    }

    #[test]
    fn gate_retires_completed_items() {
        let mut g = BandwidthGate::new(100, 2);
        g.accept(0);
        g.accept(0);
        assert_eq!(g.in_flight_at(150), 1);
        let (a, _) = g.accept(250);
        assert_eq!(a, 250);
    }

    #[test]
    fn gate_tracks_occupancy_and_stall_time() {
        let mut g = BandwidthGate::new(100, 2);
        g.accept(0); // depth 1
        g.accept(0); // depth 2 (full)
        let s = g.queue_stats();
        assert_eq!(s.accepts, 2);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.stall_cycles, 0, "no stall below capacity");

        g.accept(0); // stalls until 100, when the first item drains
        let s = g.queue_stats();
        assert_eq!(s.accepts, 3);
        assert_eq!(s.max_depth, 2, "the stalled accept retired an item first");
        assert_eq!(s.stall_cycles, 100);

        g.reset_stats();
        assert_eq!(g.queue_stats(), QueueStats::default());
        assert_eq!(g.in_flight_at(150), 2, "reset_stats keeps queue contents");
    }

    #[test]
    fn queue_stats_merge_keeps_high_water_mark() {
        let mut a = QueueStats {
            accepts: 5,
            max_depth: 3,
            stall_cycles: 40,
        };
        a.merge(&QueueStats {
            accepts: 2,
            max_depth: 7,
            stall_cycles: 10,
        });
        assert_eq!(a.accepts, 7);
        assert_eq!(a.max_depth, 7);
        assert_eq!(a.stall_cycles, 50);
    }

    #[test]
    fn gate_throughput_matches_interval() {
        let mut g = BandwidthGate::new(50, 1000);
        let mut last = 0;
        for _ in 0..100 {
            let (_, c) = g.accept(0);
            assert_eq!(c, last + 50);
            last = c;
        }
    }
}
