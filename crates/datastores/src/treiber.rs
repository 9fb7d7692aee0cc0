//! A persistent Treiber stack with detectable recovery.
//!
//! The classic lock-free stack — `push` and `pop` linearize on a CAS of
//! the `top` pointer — made persistent and *detectable* in the Memento
//! style ([`crate::detect`]): every thread owns a persistent operation
//! descriptor, and `pop` claims its node by CASing the node's claim slot
//! with the operation's unique tag before unlinking it. After a crash at
//! any point, per-thread recovery ([`Lane::recover`](crate::Lane::recover))
//! reads the descriptor and the tagged node and answers exactly-once
//! whether the operation took effect and with which value.
//!
//! # Persist discipline
//!
//! The crash-safety argument rests on two rules:
//!
//! 1. **Content before reachability.** A node's cacheline (value, tag,
//!    link) is persisted before any CAS can make it reachable, so a
//!    durably reachable node never has torn contents.
//! 2. **Claim before unlink** (flush-before-help). A claimed node's
//!    claim slot is persisted before *anyone* — the claimer or a
//!    helping thread — unlinks it from `top`. Hence the invariant the
//!    crash explorer checks: a node that is durably unreachable is
//!    durably claimed; no value can vanish without a claim tag naming
//!    the pop that took it.

use std::ops::ControlFlow::{self, Break, Continue};

use pmem::PmemEnv;
use simbase::{Addr, CACHELINE_BYTES};

use crate::detect::{
    live_values, Descriptor, Detectable, OpKind, OpResult, MAX_WALK, NODE_CLAIMED_BY, NODE_NEXT,
};

/// The shared stack: one root cacheline holding `top` at offset 0
/// (0 = empty).
#[derive(Debug, Clone, Copy)]
pub struct TreiberStack {
    root: Addr,
}

/// Phase cursor of an in-flight push or pop: one variant per executor
/// step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    PushInit { value: u64 },
    PushWriteNode { node: Addr, value: u64 },
    PushLink { node: Addr },
    PushPersistTop,
    PushCommit,
    PopInit,
    PopFindTop,
    PopClaim { node: Addr },
    PopPersistClaim { node: Addr },
    PopUnlink { node: Addr, value: u64 },
    PopCommit { value: u64 },
}

impl Detectable for TreiberStack {
    type Op = Op;

    /// Allocates and persists an empty stack.
    fn new<E: PmemEnv>(env: &mut E) -> Self {
        let root = env.alloc(CACHELINE_BYTES, CACHELINE_BYTES);
        env.store_full_line(root, &[0u8; 64]);
        env.persist(root, CACHELINE_BYTES);
        TreiberStack { root }
    }

    /// Reattaches to a stack whose root cacheline is at `root` (recovery
    /// after a crash; the address survives via the allocator watermarks).
    fn from_root(root: Addr) -> Self {
        TreiberStack { root }
    }

    /// The root cacheline address.
    fn root(&self) -> Addr {
        self.root
    }

    /// Values currently live: reachable from `top` and unclaimed, in
    /// top-to-bottom order. On a post-crash machine this reads the
    /// durable image.
    fn live_values<E: PmemEnv>(&self, env: &mut E) -> Vec<u64> {
        let top = env.load_u64(self.root);
        live_values(env, top)
    }

    /// Post-crash structural repair: splices every claimed node out of
    /// the chain and persists the fixed links. Run single-threaded after
    /// per-lane [`recover`](crate::Lane::recover) calls.
    fn repair<E: PmemEnv>(&self, env: &mut E) {
        // prev = 0 means "the root's top slot".
        let mut prev = Addr(0);
        let mut cur = env.load_u64(self.root);
        let mut steps = 0u64;
        while cur != 0 && steps < MAX_WALK {
            let node = Addr(cur);
            let next = env.load_u64(node.add(NODE_NEXT));
            if env.load_u64(node.add(NODE_CLAIMED_BY)) != 0 {
                if prev.0 == 0 {
                    env.store_u64(self.root, next);
                    env.persist(self.root, 8);
                } else {
                    env.store_u64(prev.add(NODE_NEXT), next);
                    env.persist(prev, CACHELINE_BYTES);
                }
            } else {
                prev = node;
            }
            cur = next;
            steps += 1;
        }
    }

    fn insert_op(value: u64) -> Op {
        Op::PushInit { value }
    }

    fn remove_op() -> Op {
        Op::PopInit
    }

    fn step<E: PmemEnv>(
        &self,
        env: &mut E,
        desc: &Descriptor,
        op: Op,
    ) -> ControlFlow<OpResult, Op> {
        Continue(match op {
            Op::PushInit { value } => Op::PushWriteNode {
                node: desc.start(env, OpKind::Insert),
                value,
            },
            Op::PushWriteNode { node, value } => {
                desc.write_node(env, node, value);
                Op::PushLink { node }
            }
            Op::PushLink { node } => {
                let top = env.load_u64(self.root);
                env.store_u64(node.add(NODE_NEXT), top);
                env.persist(node.add(NODE_NEXT), 8);
                if env.cas_u64(self.root, top, node.0) == top {
                    Op::PushPersistTop
                } else {
                    Op::PushLink { node } // retry next step
                }
            }
            Op::PushPersistTop => {
                env.persist(self.root, 8);
                Op::PushCommit
            }
            Op::PushCommit => return Break(desc.commit(env, OpResult::Pushed)),
            Op::PopInit => {
                desc.start(env, OpKind::Remove);
                Op::PopFindTop
            }
            Op::PopFindTop => {
                let top = env.load_u64(self.root);
                if top == 0 {
                    return Break(desc.commit(env, OpResult::Empty));
                }
                let node = Addr(top);
                if env.load_u64(node.add(NODE_CLAIMED_BY)) != 0 {
                    // Help unlink a claimed top. Flush-before-help: the
                    // claim must be durable before the unlink can be, or
                    // a crash between them loses the value.
                    env.persist(node, CACHELINE_BYTES);
                    let next = env.load_u64(node.add(NODE_NEXT));
                    if env.cas_u64(self.root, top, next) == top {
                        env.persist(self.root, 8);
                    }
                    Op::PopFindTop
                } else {
                    desc.checkpoint(env, node);
                    Op::PopClaim { node }
                }
            }
            Op::PopClaim { node } => {
                if desc.claim(env, node) {
                    Op::PopPersistClaim { node }
                } else {
                    Op::PopFindTop // lost the race; find a new top
                }
            }
            Op::PopPersistClaim { node } => Op::PopUnlink {
                node,
                value: desc.persist_claim(env, node),
            },
            Op::PopUnlink { node, value } => {
                // Single unlink attempt: if the node got buried under
                // newer pushes, leave it — claimed nodes are spliced out
                // lazily by helpers and by repair.
                let top = env.load_u64(self.root);
                if top == node.0 {
                    let next = env.load_u64(node.add(NODE_NEXT));
                    if env.cas_u64(self.root, top, next) == top {
                        env.persist(self.root, 8);
                    }
                }
                Op::PopCommit { value }
            }
            Op::PopCommit { value } => return Break(desc.commit(env, OpResult::Popped(value))),
        })
    }

    fn chain_start<E: PmemEnv>(&self, env: &mut E) -> u64 {
        env.load_u64(self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{op_tag, OpKind};
    use crate::Lane;
    use pmem::HostEnv;

    #[test]
    fn push_pop_lifo_sequential() {
        let mut env = HostEnv::new();
        let stack = TreiberStack::new(&mut env);
        let mut t = Lane::new(&mut env, 0);
        for v in 1..=5u64 {
            t.insert(&mut env, &stack, v);
        }
        for v in (1..=5u64).rev() {
            assert_eq!(t.remove(&mut env, &stack), Some(v));
        }
        assert_eq!(t.remove(&mut env, &stack), None);
    }

    #[test]
    fn interleaved_lanes_preserve_the_multiset() {
        let mut env = HostEnv::new();
        let stack = TreiberStack::new(&mut env);
        let mut a = Lane::new(&mut env, 0);
        let mut b = Lane::new(&mut env, 1);
        a.begin_insert(10);
        b.begin_insert(20);
        // Interleave phase-by-phase.
        while a.busy() || b.busy() {
            for t in [&mut a, &mut b] {
                if t.busy() {
                    t.step(&mut env, &stack);
                }
            }
        }
        let mut live = stack.live_values(&mut env);
        live.sort_unstable();
        assert_eq!(live, vec![10, 20]);
        let mut popped = vec![
            a.remove(&mut env, &stack).unwrap(),
            b.remove(&mut env, &stack).unwrap(),
        ];
        popped.sort_unstable();
        assert_eq!(popped, vec![10, 20]);
        assert_eq!(a.remove(&mut env, &stack), None);
    }

    #[test]
    fn committed_ops_recover_as_applied() {
        let mut env = HostEnv::new();
        let stack = TreiberStack::new(&mut env);
        let mut t = Lane::new(&mut env, 3);
        t.insert(&mut env, &stack, 77);
        let r = t.recover(&mut env, &stack);
        assert_eq!(r.kind, OpKind::Insert);
        assert!(r.applied);
        assert_eq!(r.value, Some(77));
        assert_eq!(t.remove(&mut env, &stack), Some(77));
        let r = t.recover(&mut env, &stack);
        assert_eq!(r.kind, OpKind::Remove);
        assert!(r.applied);
        assert_eq!(r.value, Some(77));
    }

    #[test]
    fn repair_splices_out_claimed_nodes() {
        let mut env = HostEnv::new();
        let stack = TreiberStack::new(&mut env);
        let mut t = Lane::new(&mut env, 0);
        for v in [1u64, 2, 3] {
            t.insert(&mut env, &stack, v);
        }
        // Claim the middle node by hand (simulating a pop cut before its
        // unlink) and repair.
        let top = Addr(env.load_u64(stack.root()));
        let mid = Addr(env.load_u64(top.add(NODE_NEXT)));
        env.store_u64(mid.add(NODE_CLAIMED_BY), op_tag(9, 9));
        stack.repair(&mut env);
        assert_eq!(stack.live_values(&mut env), vec![3, 1]);
    }
}
