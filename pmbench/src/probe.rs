//! Host-time probes at the boundaries the benchmark calls.
//!
//! The benchmark times the simulator from outside only: every `Machine`
//! call, every `pmds` call and every `Interleaver::run` it makes goes
//! through a [`Probe`]. The untraced run uses [`NoTrace`], whose methods
//! compile to the bare call; the traced run uses [`Tracer`], which
//! records a span per call, feeds per-boundary histograms, and splits
//! the timed wall time into each layer's self time.
//!
//! Layers are named after the crate directories they time: `core` for
//! `Machine` calls (and `Interleaver::run`'s own overhead, as `exec`),
//! `datastores` for `pmds` calls, and `bench` for the benchmark's own
//! loop. A span's self time is its duration minus the time its child
//! spans cover, so the four layers' self times add up to the wall time
//! of the rounds that enclose them.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use optane_core::ReadError;
use pmbench::json;
use pmbench::stats::LogHistogram;
use pmem::{PmemEnv, SimEnv};
use simbase::{Addr, Cycles};

/// A traced boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One timed round of a workload.
    Round,
    /// One window of W ops (`stream`, `bufmix`).
    Window,
    /// One `kv` request, inside an `Interleaver` step.
    Request,
    /// One `Interleaver::run`.
    Run,
    /// `FastFair::get`.
    Get,
    /// `FastFair::insert`.
    Put,
    /// One `ChaseList` lap.
    Lap,
    /// `Machine` loads.
    Load,
    /// Cached `Machine` stores and locked read-modify-writes.
    Store,
    /// Non-temporal `Machine` stores.
    NtStore,
    /// `clwb`, `clflushopt`, `clflush`.
    Flush,
    /// `sfence`, `mfence`.
    Fence,
}

/// Every span kind, indexed by `Span as usize`.
pub const SPANS: [Span; 12] = [
    Span::Round,
    Span::Window,
    Span::Request,
    Span::Run,
    Span::Get,
    Span::Put,
    Span::Lap,
    Span::Load,
    Span::Store,
    Span::NtStore,
    Span::Flush,
    Span::Fence,
];

/// The layers self time is split into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own loop.
    Bench,
    /// `Interleaver::run` outside its step closures.
    Exec,
    /// `pmds` calls outside their `Machine` calls.
    Datastores,
    /// `Machine` calls.
    Core,
}

impl Span {
    /// The layer whose self time this span's self time is.
    pub fn layer(self) -> Layer {
        match self {
            Span::Round | Span::Window | Span::Request => Layer::Bench,
            Span::Run => Layer::Exec,
            Span::Get | Span::Put | Span::Lap => Layer::Datastores,
            Span::Load | Span::Store | Span::NtStore | Span::Flush | Span::Fence => Layer::Core,
        }
    }

    /// The span name written to the span log.
    pub fn name(self) -> &'static str {
        match self {
            Span::Round => "bench.round",
            Span::Window => "bench.window",
            Span::Request => "bench.request",
            Span::Run => "core.exec",
            Span::Get => "datastores.get",
            Span::Put => "datastores.put",
            Span::Lap => "datastores.lap",
            Span::Load => "core.load",
            Span::Store => "core.store",
            Span::NtStore => "core.nt_store",
            Span::Flush => "core.flush",
            Span::Fence => "core.fence",
        }
    }

    /// Spans few enough to log on every occurrence, not only in sampled
    /// windows or requests.
    fn always_logged(self) -> bool {
        matches!(self, Span::Round | Span::Run | Span::Lap)
    }
}

/// Timing hooks around the calls the benchmark makes.
pub trait Probe {
    /// Times `f`, a `Machine` call of kind `op`.
    fn core<R>(&mut self, op: Span, f: impl FnOnce() -> R) -> R;
    /// Opens a span of kind `span` under the innermost open span.
    fn enter(&mut self, span: Span);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Starts window or request `id`: later spans carry it, and an open
    /// window span is closed and a new one opened.
    fn mark(&mut self, id: u64);
    /// Marks the end of the first timed round, whose call counts are
    /// reported (later rounds repeat it).
    fn first_round_done(&mut self) {}
}

/// The untraced probe: every hook is the bare call.
pub struct NoTrace;

impl Probe for NoTrace {
    #[inline(always)]
    fn core<R>(&mut self, _op: Span, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn enter(&mut self, _span: Span) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn mark(&mut self, _id: u64) {}
}

/// Full span records are kept for every this-many-th window or request.
const SAMPLE_EVERY: u64 = 64;
/// Cap on span records held in memory.
const MAX_RECORDS: usize = 200_000;

struct Open {
    span: Span,
    id: u64,
    start: Instant,
    children: Duration,
}

struct Record {
    id: u64,
    parent: u64,
    span: Span,
    start: Instant,
    end: Instant,
    req: u64,
}

/// The traced probe.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u64,
    req: u64,
    sampled: bool,
    self_time: [Duration; 4],
    hists: Vec<LogHistogram>,
    records: Vec<Record>,
    dropped: u64,
    first_round_calls: Option<[u64; SPANS.len()]>,
}

impl Tracer {
    /// A tracer with no spans yet.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            next_id: 1,
            req: 0,
            sampled: true,
            self_time: [Duration::ZERO; 4],
            hists: vec![LogHistogram::default(); SPANS.len()],
            records: Vec::new(),
            dropped: 0,
            first_round_calls: None,
        }
    }

    fn close(&mut self, span: Span, id: u64, start: Instant, end: Instant, children: Duration) {
        let dur = end - start;
        self.self_time[span.layer() as usize] += dur.saturating_sub(children);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.children += dur;
                p.id
            }
            None => 0,
        };
        self.hists[span as usize].record(dur.as_nanos() as u64);
        if self.sampled || span.always_logged() {
            if self.records.len() < MAX_RECORDS {
                self.records.push(Record {
                    id,
                    parent,
                    span,
                    start,
                    end,
                    req: self.req,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Duration histogram of one span kind.
    pub fn hist(&self, span: Span) -> &LogHistogram {
        &self.hists[span as usize]
    }

    /// Calls of one span kind during the first timed round.
    pub fn first_round_calls(&self, span: Span) -> u64 {
        self.first_round_calls.map_or(0, |c| c[span as usize])
    }

    /// Summed self time of one layer.
    pub fn self_time(&self, layer: Layer) -> Duration {
        self.self_time[layer as usize]
    }

    /// Writes the kept span records as JSON lines; returns how many were
    /// written and how many the cap dropped.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| (t - self.epoch).as_nanos();
        for r in &self.records {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"req\": {}}}",
                r.id,
                r.parent,
                json::quote(r.span.name()),
                ns(r.start),
                ns(r.end),
                r.req
            )?;
        }
        out.flush()?;
        Ok((self.records.len(), self.dropped))
    }
}

impl Probe for Tracer {
    #[inline]
    fn core<R>(&mut self, op: Span, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        self.close(op, id, start, end, Duration::ZERO);
        r
    }

    fn enter(&mut self, span: Span) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            span,
            id,
            start: Instant::now(),
            children: Duration::ZERO,
        });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        if let Some(o) = self.stack.pop() {
            self.close(o.span, o.id, o.start, end, o.children);
        }
    }

    fn mark(&mut self, id: u64) {
        let window_open = matches!(self.stack.last(), Some(o) if o.span == Span::Window);
        if window_open {
            self.exit();
        }
        self.req = id;
        self.sampled = id.is_multiple_of(SAMPLE_EVERY);
        if window_open {
            self.enter(Span::Window);
        }
    }

    fn first_round_done(&mut self) {
        self.first_round_calls = Some(SPANS.map(|s| self.hists[s as usize].count()));
    }
}

/// Host time per window of W ops.
pub struct Windows {
    w: u64,
    pending: u64,
    next_id: u64,
    last: Instant,
    /// Window durations in milliseconds.
    pub samples_ms: Vec<f64>,
}

impl Windows {
    /// Windows of `w` ops each.
    pub fn new(w: u64) -> Self {
        Windows {
            w,
            pending: 0,
            next_id: 0,
            last: Instant::now(),
            samples_ms: Vec::new(),
        }
    }

    /// Starts a fresh window now, dropping any partial one (called at the
    /// start of every round, so untimed work between rounds never lands
    /// in a window).
    pub fn restart(&mut self) {
        self.pending = 0;
        self.last = Instant::now();
    }

    /// Counts `n` finished ops, closing the window once it holds W.
    #[inline]
    pub fn tick<P: Probe>(&mut self, n: u64, p: &mut P) {
        self.pending += n;
        if self.pending >= self.w {
            let now = Instant::now();
            self.samples_ms.push((now - self.last).as_secs_f64() * 1e3);
            self.last = now;
            self.pending -= self.w;
            self.next_id += 1;
            p.mark(self.next_id);
        }
    }
}

/// A [`PmemEnv`] that times every memory operation through a probe and
/// counts them. It delegates each method [`SimEnv`] implements to the
/// same `SimEnv` method, so the simulated op stream is unchanged.
pub struct TimedEnv<'m, 'p, P: Probe> {
    inner: SimEnv<'m>,
    probe: &'p mut P,
    /// When set, each load is one element visit and ticks these windows.
    visits: Option<&'p mut Windows>,
    /// Memory operations issued through this env.
    pub calls: u64,
}

impl<'m, 'p, P: Probe> TimedEnv<'m, 'p, P> {
    /// Wraps `inner`; `visits` ticks once per load when given.
    pub fn new(inner: SimEnv<'m>, probe: &'p mut P, visits: Option<&'p mut Windows>) -> Self {
        TimedEnv {
            inner,
            probe,
            visits,
            calls: 0,
        }
    }

    #[inline]
    fn time<R>(&mut self, op: Span, f: impl FnOnce(&mut SimEnv<'m>) -> R) -> R {
        self.calls += 1;
        let inner = &mut self.inner;
        self.probe.core(op, || f(inner))
    }

    #[inline]
    fn visited(&mut self) {
        if let Some(w) = self.visits.as_deref_mut() {
            w.tick(1, self.probe);
        }
    }
}

impl<P: Probe> PmemEnv for TimedEnv<'_, '_, P> {
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        self.time(Span::Load, |e| e.load(addr, buf));
        self.visited();
    }

    fn try_load(&mut self, addr: Addr, buf: &mut [u8]) -> Result<(), ReadError> {
        let r = self.time(Span::Load, |e| e.try_load(addr, buf));
        self.visited();
        r
    }

    fn store(&mut self, addr: Addr, data: &[u8]) {
        self.time(Span::Store, |e| e.store(addr, data));
    }

    fn store_full_line(&mut self, addr: Addr, data: &[u8; 64]) {
        self.time(Span::Store, |e| e.store_full_line(addr, data));
    }

    fn nt_store(&mut self, addr: Addr, data: &[u8]) {
        self.time(Span::NtStore, |e| e.nt_store(addr, data));
    }

    fn clwb(&mut self, addr: Addr) {
        self.time(Span::Flush, |e| e.clwb(addr));
    }

    fn clflushopt(&mut self, addr: Addr) {
        self.time(Span::Flush, |e| e.clflushopt(addr));
    }

    fn clflush(&mut self, addr: Addr) {
        self.time(Span::Flush, |e| e.clflush(addr));
    }

    fn sfence(&mut self) {
        self.time(Span::Fence, |e| e.sfence());
    }

    fn mfence(&mut self) {
        self.time(Span::Fence, |e| e.mfence());
    }

    fn cas_u64(&mut self, addr: Addr, expected: u64, new: u64) -> u64 {
        self.time(Span::Store, |e| e.cas_u64(addr, expected, new))
    }

    fn fetch_add_u64(&mut self, addr: Addr, delta: u64) -> u64 {
        self.time(Span::Store, |e| e.fetch_add_u64(addr, delta))
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

    fn load_u64_pair(&mut self, a: Addr, b: Addr) -> (u64, u64) {
        let r = self.time(Span::Load, |e| e.load_u64_pair(a, b));
        self.visited();
        r
    }
}
