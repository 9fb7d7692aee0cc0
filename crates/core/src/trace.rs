//! Instruction-stream observation hooks.
//!
//! The machine can carry one [`TraceSink`] of its own (plus the sink of
//! an active [`witness`](crate::witness) scope): an observer that receives a
//! [`TraceEvent`] for every memory/persistence operation a simulated
//! thread executes, *before* the operation's latency is charged. The sink
//! sees exactly the instruction stream the timing model sees — which is
//! what makes an attached analysis (e.g. the `pmcheck` crate's
//! persist-ordering checker) trustworthy: it cannot diverge from the
//! simulation it is auditing.
//!
//! `optane-core` stays dependency-free: the trait is defined here and
//! implemented by downstream analysis crates.

use std::rc::Rc;

use simbase::{Addr, Cycles};

use crate::machine::{MemRegion, ThreadId};
use crate::witness::MachineWitness;

/// Which flush instruction produced a [`TraceEvent::Flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// `clwb` — write back; invalidates on G1, retains on G2.
    Clwb,
    /// `clflushopt` — write back and invalidate, weakly ordered.
    Clflushopt,
    /// Legacy `clflush` — write back and invalidate, strongly ordered
    /// (the instruction itself waits for WPQ acceptance).
    Clflush,
}

/// Which fence instruction produced a [`TraceEvent::Fence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceKind {
    /// `sfence` — orders prior flushes/nt-stores, not subsequent loads.
    Sfence,
    /// `mfence` — additionally orders subsequent loads.
    Mfence,
}

/// One observed operation. `at` is the issuing thread's clock when the
/// operation begins (before its latency is charged); for
/// [`TraceEvent::PowerFail`] it is the global maximum thread time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A cached store (including full-line stores) of `len` bytes.
    Store {
        /// Issuing thread.
        tid: ThreadId,
        /// First byte written.
        addr: Addr,
        /// Bytes written.
        len: u64,
        /// Backing device.
        region: MemRegion,
        /// Issue time.
        at: Cycles,
    },
    /// A non-temporal (cache-bypassing) store of `len` bytes.
    NtStore {
        /// Issuing thread.
        tid: ThreadId,
        /// First byte written.
        addr: Addr,
        /// Bytes written.
        len: u64,
        /// Backing device.
        region: MemRegion,
        /// Issue time.
        at: Cycles,
    },
    /// A cacheline flush instruction.
    Flush {
        /// Issuing thread.
        tid: ThreadId,
        /// The (aligned) cacheline being flushed.
        line: Addr,
        /// Which flush instruction.
        kind: FlushKind,
        /// Backing device.
        region: MemRegion,
        /// Whether the hierarchy actually held the line dirty.
        dirty: bool,
        /// Issue time.
        at: Cycles,
    },
    /// A fence instruction.
    Fence {
        /// Issuing thread.
        tid: ThreadId,
        /// Which fence instruction.
        kind: FenceKind,
        /// Issue time.
        at: Cycles,
    },
    /// A load of `len` bytes (demand loads and streaming XPLine copies).
    Load {
        /// Issuing thread.
        tid: ThreadId,
        /// First byte read.
        addr: Addr,
        /// Bytes read.
        len: u64,
        /// Backing device.
        region: MemRegion,
        /// Issue time.
        at: Cycles,
    },
    /// A simulated `lock cmpxchg` on an aligned `u64`. Atomicity is free
    /// in the sequential simulation; the event records whether the
    /// compare succeeded. Locked RMWs drain the issuing thread's store
    /// buffer (like `mfence`), which analyses must mirror.
    Cas {
        /// Issuing thread.
        tid: ThreadId,
        /// Address of the target `u64`.
        addr: Addr,
        /// Backing device.
        region: MemRegion,
        /// Whether the compare matched and the new value was written.
        success: bool,
        /// Issue time.
        at: Cycles,
    },
    /// A simulated `lock xadd` on an aligned `u64`. Always writes; drains
    /// the issuing thread's store buffer like [`TraceEvent::Cas`].
    FetchAdd {
        /// Issuing thread.
        tid: ThreadId,
        /// Address of the target `u64`.
        addr: Addr,
        /// Backing device.
        region: MemRegion,
        /// The addend.
        delta: u64,
        /// Issue time.
        at: Cycles,
    },
    /// A dirty PM cacheline left the hierarchy by capacity eviction and
    /// was written back (and therefore persisted) by the hardware, not by
    /// program order. Analyses use this to tell "durable by discipline"
    /// from "durable by luck".
    WriteBack {
        /// The evicted cacheline.
        line: Addr,
        /// Eviction time.
        at: Cycles,
    },
    /// A simulated power failure.
    PowerFail {
        /// Global time of the failure.
        at: Cycles,
    },
}

/// An instruction-stream observer attached to a
/// [`Machine`](crate::Machine).
pub trait TraceSink {
    /// Called once per observed operation, in simulation order.
    fn on_event(&mut self, ev: &TraceEvent);
}

/// The machine's observers: its own optional sink and, when the machine
/// was built inside a [`with_witness`](crate::witness::with_witness)
/// scope, that scope's sink beside it. `on` caches "anything attached",
/// so the emit guard stays one branch.
pub(crate) struct TraceSlot {
    own: Option<Box<dyn TraceSink>>,
    witness: Option<(Box<dyn TraceSink>, Rc<dyn MachineWitness>)>,
    on: bool,
}

impl TraceSlot {
    /// A slot carrying the current thread's witness, if a scope is active.
    pub(crate) fn new() -> Self {
        let witness = crate::witness::current().map(|w| (w.sink(), w));
        TraceSlot {
            own: None,
            on: witness.is_some(),
            witness,
        }
    }

    pub(crate) fn set(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.on = true;
        self.own.replace(sink)
    }

    pub(crate) fn take(&mut self) -> Option<Box<dyn TraceSink>> {
        self.on = self.witness.is_some();
        self.own.take()
    }

    #[inline(always)]
    pub(crate) fn on(&self) -> bool {
        self.on
    }

    pub(crate) fn emit(&mut self, ev: &TraceEvent) {
        if let Some(sink) = self.own.as_mut() {
            sink.on_event(ev);
        }
        if let Some((sink, _)) = self.witness.as_mut() {
            sink.on_event(ev);
        }
    }

    /// Detaches the witness scope this machine was built in.
    pub(crate) fn take_witness(&mut self) -> Option<Rc<dyn MachineWitness>> {
        let (_, w) = self.witness.take()?;
        self.on = self.own.is_some();
        Some(w)
    }
}

impl std::fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraceSlot(attached: {}, witnessed: {})",
            self.own.is_some(),
            self.witness.is_some()
        )
    }
}
