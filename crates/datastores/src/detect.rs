//! Detectable operations shared by the lock-free structures.
//!
//! The persistent Treiber stack ([`crate::treiber`]) and Michael-Scott
//! queue ([`crate::msqueue`]) follow the Memento recipe for *detectable*
//! operations: every thread owns one persistent operation [`Descriptor`],
//! and every value-moving CAS writes a unique per-operation *tag* into the
//! node it claims. After a crash, recovery reads the descriptor and the
//! tagged node and can always answer "did my in-flight operation take
//! effect, and with which result?" — exactly once, no lost or duplicated
//! values.
//!
//! The descriptor is built on Memento's two primitives: a *detectable
//! checkpoint* (`checkpoint`: the candidate node is durable in the
//! descriptor before anything is claimed) and a *detectable CAS* (`claim`
//! then `persist_claim`: the tag lands in the node, and the claim is
//! durable before the node is unlinked).
//! A structure implements [`Detectable`] with only its phase cursor, its
//! link logic and the start of the chain its nodes hang on; [`Lane`] is
//! the per-thread handle that drives either structure, and
//! [`Lane::recover`] is the one recovery for both.
//!
//! The descriptor occupies one cacheline:
//!
//! | offset | field | meaning |
//! |---|---|---|
//! | 0 | `seq` | per-thread operation sequence number |
//! | 8 | `kind` | [`OpKind`] code |
//! | 16 | `node` | node the op targets (insert: allocated; remove: candidate) |
//! | 24 | `state` | 0 = started, 1 = committed |
//! | 32 | `result` | committed result ([`EMPTY_RESULT`] for empty removes) |
//!
//! Every node is one cacheline too: `value` at 0, `next` at 8, the
//! claiming operation's tag at 16 (0 = unclaimed) and the inserting
//! operation's tag at 24.
//!
//! Writes to the descriptor are individually persisted in an order that
//! makes each crash state unambiguous; see the structure modules for the
//! per-phase persist discipline.

use std::ops::ControlFlow;

use pmem::PmemEnv;
use simbase::{Addr, CACHELINE_BYTES};

/// Result slot value recording "the structure was empty".
///
/// Inserted values must therefore be in `1..u64::MAX`: nonzero (0 reads
/// as an absent field after a crash) and below the empty marker.
pub const EMPTY_RESULT: u64 = u64::MAX;

const DESC_SEQ: u64 = 0;
const DESC_KIND: u64 = 8;
const DESC_NODE: u64 = 16;
const DESC_STATE: u64 = 24;
const DESC_RESULT: u64 = 32;

const STATE_STARTED: u64 = 0;
const STATE_COMMITTED: u64 = 1;

/// Node layout, shared by both structures.
pub(crate) const NODE_VALUE: u64 = 0;
pub(crate) const NODE_NEXT: u64 = 8;
pub(crate) const NODE_CLAIMED_BY: u64 = 16;
pub(crate) const NODE_TAG: u64 = 24;

/// Walk bound: guards chain walks against (impossible) cycles in a
/// corrupted image; hitting it means the image is garbage, not a chain.
pub(crate) const MAX_WALK: u64 = 1 << 16;

/// What kind of operation a descriptor records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// No operation has used this descriptor yet.
    None,
    /// A push (stack) or enqueue (queue).
    Insert,
    /// A pop (stack) or dequeue (queue).
    Remove,
}

impl OpKind {
    /// Wire encoding stored in the descriptor's `kind` slot.
    pub fn code(self) -> u64 {
        match self {
            OpKind::None => 0,
            OpKind::Insert => 1,
            OpKind::Remove => 2,
        }
    }

    /// Decodes a `kind` slot; unknown codes read as [`OpKind::None`]
    /// (a torn descriptor is an op that never started).
    pub fn from_code(code: u64) -> OpKind {
        match code {
            1 => OpKind::Insert,
            2 => OpKind::Remove,
            _ => OpKind::None,
        }
    }
}

/// One completed operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The insert committed.
    Pushed,
    /// The remove committed with this value.
    Popped(u64),
    /// The remove committed against an empty structure.
    Empty,
}

/// What recovery concluded about one thread's last operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The descriptor's sequence number.
    pub seq: u64,
    /// The operation kind.
    pub kind: OpKind,
    /// Whether the operation's effect is durably applied.
    pub applied: bool,
    /// The operation's value, when determinable: the inserted value, the
    /// removed value, or [`EMPTY_RESULT`].
    pub value: Option<u64>,
}

/// The unique tag operation `seq` of lane `lane` stamps into nodes it
/// claims. Lane 0's tag is nonzero (`lane + 1` in the high half), so a
/// zero claim slot always means "unclaimed".
pub(crate) fn op_tag(lane: u64, seq: u64) -> u64 {
    ((lane + 1) << 32) | (seq & 0xFFFF_FFFF)
}

/// A descriptor's durable contents, as recovery reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DescView {
    seq: u64,
    kind: OpKind,
    node: Addr,
    committed: bool,
    result: u64,
}

fn read_desc<E: PmemEnv>(env: &mut E, desc: Addr) -> DescView {
    DescView {
        seq: env.load_u64(desc.add(DESC_SEQ)),
        kind: OpKind::from_code(env.load_u64(desc.add(DESC_KIND))),
        node: Addr(env.load_u64(desc.add(DESC_NODE))),
        committed: env.load_u64(desc.add(DESC_STATE)) == STATE_COMMITTED,
        result: env.load_u64(desc.add(DESC_RESULT)),
    }
}

/// Walks the chain from `first` along `next` links (at most [`MAX_WALK`]
/// nodes) and returns the first node `stop` accepts.
pub(crate) fn walk<E: PmemEnv>(
    env: &mut E,
    first: u64,
    mut stop: impl FnMut(&mut E, Addr) -> bool,
) -> Option<Addr> {
    let mut cur = first;
    let mut steps = 0u64;
    while cur != 0 && steps < MAX_WALK {
        let node = Addr(cur);
        if stop(env, node) {
            return Some(node);
        }
        cur = env.load_u64(node.add(NODE_NEXT));
        steps += 1;
    }
    None
}

/// Values of the unclaimed nodes on the chain from `first`, in chain
/// order.
pub(crate) fn live_values<E: PmemEnv>(env: &mut E, first: u64) -> Vec<u64> {
    let mut out = Vec::new();
    walk(env, first, |env, node| {
        if env.load_u64(node.add(NODE_CLAIMED_BY)) == 0 {
            out.push(env.load_u64(node.add(NODE_VALUE)));
        }
        false
    });
    out
}

/// One lane's persistent operation descriptor and the two detectable
/// primitives built on it. A structure's phases call these; the volatile
/// sequence number and the mutant hook live beside the address.
#[derive(Debug)]
pub struct Descriptor {
    addr: Addr,
    lane: u64,
    seq: u64,
    skip_claim_persist: bool,
}

impl Descriptor {
    /// Allocates lane `lane`'s descriptor cacheline, zeroed and persisted.
    fn new<E: PmemEnv>(env: &mut E, lane: u64) -> Self {
        let addr = env.alloc(CACHELINE_BYTES, CACHELINE_BYTES);
        env.store_full_line(addr, &[0u8; 64]);
        env.persist(addr, CACHELINE_BYTES);
        Descriptor {
            addr,
            lane,
            seq: 0,
            skip_claim_persist: false,
        }
    }

    /// The tag the current operation stamps into the nodes it writes and
    /// claims.
    fn tag(&self) -> u64 {
        op_tag(self.lane, self.seq)
    }

    /// Starts the current operation: an insert allocates its node first;
    /// then seq, kind, target node (0 for a remove), state=started and a
    /// cleared result go out as one persisted line. Returns the node.
    pub(crate) fn start<E: PmemEnv>(&self, env: &mut E, kind: OpKind) -> Addr {
        let node = if kind == OpKind::Insert {
            env.alloc(CACHELINE_BYTES, CACHELINE_BYTES)
        } else {
            Addr(0)
        };
        env.store_u64(self.addr.add(DESC_SEQ), self.seq);
        env.store_u64(self.addr.add(DESC_KIND), kind.code());
        env.store_u64(self.addr.add(DESC_NODE), node.0);
        env.store_u64(self.addr.add(DESC_STATE), STATE_STARTED);
        env.store_u64(self.addr.add(DESC_RESULT), 0);
        env.persist(self.addr, CACHELINE_BYTES);
        node
    }

    /// Writes and persists an insert's node: `value` and this operation's
    /// tag, unlinked and unclaimed (content before reachability).
    pub(crate) fn write_node<E: PmemEnv>(&self, env: &mut E, node: Addr, value: u64) {
        let mut line = [0u8; 64];
        line[NODE_VALUE as usize..][..8].copy_from_slice(&value.to_le_bytes());
        line[NODE_TAG as usize..][..8].copy_from_slice(&self.tag().to_le_bytes());
        env.store_full_line(node, &line);
        env.persist(node, CACHELINE_BYTES);
    }

    /// Detectable checkpoint: durably records the candidate `node` before
    /// claiming it, so recovery always knows which node this op may have
    /// tagged — even if a helper unlinks it before the claim is recorded
    /// anywhere else.
    pub(crate) fn checkpoint<E: PmemEnv>(&self, env: &mut E, node: Addr) {
        env.store_u64(self.addr.add(DESC_NODE), node.0);
        env.persist(self.addr.add(DESC_NODE), 8);
    }

    /// Detectable CAS: stamps this operation's tag into `node`'s claim
    /// slot. False if another remove claimed it first.
    pub(crate) fn claim<E: PmemEnv>(&self, env: &mut E, node: Addr) -> bool {
        env.cas_u64(node.add(NODE_CLAIMED_BY), 0, self.tag()) == 0
    }

    /// Persists a won claim (claim before unlink), then durably records
    /// the claimed node's value as the result and returns it.
    pub(crate) fn persist_claim<E: PmemEnv>(&self, env: &mut E, node: Addr) -> u64 {
        if !self.skip_claim_persist {
            env.persist(node, CACHELINE_BYTES);
        }
        let value = env.load_u64(node.add(NODE_VALUE));
        env.store_u64(self.addr.add(DESC_RESULT), value);
        env.persist(self.addr.add(DESC_RESULT), 8);
        value
    }

    /// Durably commits the operation with `result` and returns it: the
    /// acknowledgement point.
    pub(crate) fn commit<E: PmemEnv>(&self, env: &mut E, result: OpResult) -> OpResult {
        let slot = match result {
            OpResult::Pushed => 0,
            OpResult::Popped(v) => v,
            OpResult::Empty => EMPTY_RESULT,
        };
        env.store_u64(self.addr.add(DESC_RESULT), slot);
        env.store_u64(self.addr.add(DESC_STATE), STATE_COMMITTED);
        env.persist(self.addr, CACHELINE_BYTES);
        result
    }
}

/// A lock-free structure whose operations run on a [`Descriptor`]: its
/// root layout, its phases and link logic, and where its chain starts.
pub trait Detectable: Sized {
    /// Phase cursor of one in-flight operation.
    type Op: Copy;

    /// Allocates and persists an empty structure.
    fn new<E: PmemEnv>(env: &mut E) -> Self;

    /// Reattaches to the structure whose root cacheline is at `root`
    /// (recovery after a crash; the address survives via the allocator
    /// watermarks).
    fn from_root(root: Addr) -> Self;

    /// The root cacheline address.
    fn root(&self) -> Addr;

    /// Values currently live (linked and unclaimed), in removal order. On
    /// a post-crash machine this reads the durable image.
    fn live_values<E: PmemEnv>(&self, env: &mut E) -> Vec<u64>;

    /// Post-crash structural repair: unlinks claimed nodes and persists
    /// the fixed links. Run single-threaded after every lane's
    /// [`Lane::recover`].
    fn repair<E: PmemEnv>(&self, env: &mut E);

    /// The first phase of an insert of `value`.
    fn insert_op(value: u64) -> Self::Op;

    /// The first phase of a remove.
    fn remove_op() -> Self::Op;

    /// Runs phase `op` of the operation `desc` records: the next phase,
    /// or the committed result.
    fn step<E: PmemEnv>(
        &self,
        env: &mut E,
        desc: &Descriptor,
        op: Self::Op,
    ) -> ControlFlow<OpResult, Self::Op>;

    /// The first node of the chain every inserted node stays on until
    /// repair splices it out (0 = empty chain).
    fn chain_start<E: PmemEnv>(&self, env: &mut E) -> u64;
}

/// One thread's handle on a [`Detectable`] structure: its persistent
/// descriptor plus the in-flight phase cursor (volatile — a crash loses
/// the cursor, which is exactly what recovery is for).
///
/// Operations are small-step state machines (one phase per
/// [`step`](Lane::step)) so the deterministic executor can interleave
/// them and the crash explorer can cut them mid-phase;
/// [`insert`](Lane::insert)/[`remove`](Lane::remove) drive a whole
/// operation for sequential callers.
#[derive(Debug)]
pub struct Lane<S: Detectable> {
    desc: Descriptor,
    op: Option<S::Op>,
}

impl<S: Detectable> Lane<S> {
    /// Registers lane `lane`, allocating its persistent descriptor.
    pub fn new<E: PmemEnv>(env: &mut E, lane: u64) -> Self {
        Lane {
            desc: Descriptor::new(env, lane),
            op: None,
        }
    }

    /// Seeded-mutant hook for oracle validation: when set, the claim
    /// persist before unlink is skipped, breaking the unreachable-implies-
    /// claimed invariant. The crash explorer must catch the resulting
    /// lost-value states; shipping code never sets this.
    pub fn set_skip_claim_persist(&mut self, on: bool) {
        self.desc.skip_claim_persist = on;
    }

    /// Begins an insert of `value`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight, or if `value` is 0 or
    /// [`EMPTY_RESULT`] (reserved encodings).
    pub fn begin_insert(&mut self, value: u64) {
        assert!(
            value != 0 && value != EMPTY_RESULT,
            "value 0 and u64::MAX are reserved"
        );
        self.begin(S::insert_op(value));
    }

    /// Begins a remove.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already in flight.
    pub fn begin_remove(&mut self) {
        self.begin(S::remove_op());
    }

    fn begin(&mut self, op: S::Op) {
        assert!(self.op.is_none(), "operation already in flight");
        self.desc.seq += 1;
        self.op = Some(op);
    }

    /// Whether an operation is in flight.
    pub fn busy(&self) -> bool {
        self.op.is_some()
    }

    /// Advances the in-flight operation by one phase. Returns the result
    /// once the operation commits (the acknowledgement point), `None`
    /// while more steps remain.
    ///
    /// # Panics
    ///
    /// Panics if no operation is in flight.
    pub fn step<E: PmemEnv>(&mut self, env: &mut E, s: &S) -> Option<OpResult> {
        let Some(op) = self.op else {
            panic!("no operation in flight")
        };
        match s.step(env, &self.desc, op) {
            ControlFlow::Continue(next) => {
                self.op = Some(next);
                None
            }
            ControlFlow::Break(result) => {
                self.op = None;
                Some(result)
            }
        }
    }

    /// Runs a full insert to completion.
    pub fn insert<E: PmemEnv>(&mut self, env: &mut E, s: &S, value: u64) {
        self.begin_insert(value);
        while self.step(env, s).is_none() {}
    }

    /// Runs a full remove to completion. Returns `None` when empty.
    pub fn remove<E: PmemEnv>(&mut self, env: &mut E, s: &S) -> Option<u64> {
        self.begin_remove();
        loop {
            match self.step(env, s) {
                Some(OpResult::Popped(v)) => return Some(v),
                Some(_) => return None,
                None => {}
            }
        }
    }

    /// Post-crash recovery for this lane: reads the durable descriptor
    /// and answers whether the last operation took effect and with which
    /// value.
    ///
    /// - committed descriptor → applied, result as recorded (a committed
    ///   insert's value lives in its durable node);
    /// - started insert → applied iff the tagged node is durably claimed
    ///   by a remove (claims only land on linked nodes, so a durable claim
    ///   proves the insert took effect and a remove consumed it), or its
    ///   tag is reachable from [`Detectable::chain_start`];
    /// - started remove → applied iff the checkpointed candidate node
    ///   carries this operation's claim tag.
    pub fn recover<E: PmemEnv>(&self, env: &mut E, s: &S) -> RecoveryOutcome {
        let d = read_desc(env, self.desc.addr);
        let tag = op_tag(self.desc.lane, d.seq);
        let (applied, value) = match (d.kind, d.committed) {
            (OpKind::None, _) => (false, None),
            (OpKind::Insert, true) => (true, Some(env.load_u64(d.node.add(NODE_VALUE)))),
            (OpKind::Remove, true) => (true, Some(d.result)),
            (OpKind::Insert, false) => {
                let node_durable = d.node.0 != 0 && env.load_u64(d.node.add(NODE_TAG)) == tag;
                let claimed = node_durable && env.load_u64(d.node.add(NODE_CLAIMED_BY)) != 0;
                let applied = claimed || {
                    let first = s.chain_start(env);
                    walk(env, first, |env, node| {
                        env.load_u64(node.add(NODE_TAG)) == tag
                    })
                    .is_some()
                };
                (
                    applied,
                    node_durable.then(|| env.load_u64(d.node.add(NODE_VALUE))),
                )
            }
            (OpKind::Remove, false) => {
                let claimed = d.node.0 != 0 && env.load_u64(d.node.add(NODE_CLAIMED_BY)) == tag;
                (
                    claimed,
                    claimed.then(|| env.load_u64(d.node.add(NODE_VALUE))),
                )
            }
        };
        RecoveryOutcome {
            seq: d.seq,
            kind: d.kind,
            applied,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::HostEnv;

    #[test]
    fn tags_are_nonzero_and_unique_across_lanes_and_seqs() {
        let mut seen = std::collections::BTreeSet::new();
        for lane in 0..4 {
            for seq in 0..4 {
                let t = op_tag(lane, seq);
                assert_ne!(t, 0);
                assert!(seen.insert(t), "tag collision at lane {lane} seq {seq}");
            }
        }
    }

    #[test]
    fn desc_round_trip() {
        let mut env = HostEnv::new();
        let d = Descriptor::new(&mut env, 0).addr;
        let v = read_desc(&mut env, d);
        assert_eq!(v.kind, OpKind::None);
        assert!(!v.committed);
        env.store_u64(d.add(DESC_SEQ), 3);
        env.store_u64(d.add(DESC_KIND), OpKind::Remove.code());
        env.store_u64(d.add(DESC_STATE), STATE_COMMITTED);
        env.store_u64(d.add(DESC_RESULT), EMPTY_RESULT);
        let v = read_desc(&mut env, d);
        assert_eq!(v.seq, 3);
        assert_eq!(v.kind, OpKind::Remove);
        assert!(v.committed);
        assert_eq!(v.result, EMPTY_RESULT);
    }
}
