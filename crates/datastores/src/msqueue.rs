//! A persistent Michael-Scott queue with detectable recovery.
//!
//! The classic two-pointer lock-free queue (Michael & Scott, PODC '96):
//! `head` points at a sentinel node, values live in the chain behind it,
//! enqueue links at `tail` via CAS of the last node's `next`, dequeue
//! claims `head.next` and advances `head`, turning the claimed node into
//! the new sentinel. Persistence and detectability follow the same
//! Memento-style recipe as [`crate::treiber`]: per-thread descriptors
//! ([`crate::detect`]), per-node claim tags, and two persist rules —
//! node content is durable before any CAS can make it reachable, and a
//! claim is durable before anyone advances `head` past the node
//! (flush-before-help).
//!
//! Because claims only ever land on `head.next` — the front unclaimed
//! node — claimed nodes always form a contiguous prefix starting at the
//! sentinel, which makes post-crash [`MsQueue::repair`] a simple
//! advance-head-past-claims loop.

use std::ops::ControlFlow::{self, Break, Continue};

use pmem::PmemEnv;
use simbase::{Addr, CACHELINE_BYTES};

use crate::detect::{
    live_values, Descriptor, Detectable, OpKind, OpResult, MAX_WALK, NODE_CLAIMED_BY, NODE_NEXT,
};

/// Root layout: head and tail pointers share one cacheline.
const ROOT_HEAD: u64 = 0;
const ROOT_TAIL: u64 = 8;

/// The shared queue: a root cacheline (`head` at 0, `tail` at 8), both
/// initially pointing at an empty sentinel node.
#[derive(Debug, Clone, Copy)]
pub struct MsQueue {
    root: Addr,
}

/// Phase cursor of an in-flight enqueue or dequeue: one variant per
/// executor step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    EnqInit {
        value: u64,
    },
    EnqWriteNode {
        node: Addr,
        value: u64,
    },
    EnqLink {
        node: Addr,
    },
    EnqPersistLink {
        node: Addr,
        prev: Addr,
    },
    EnqSwingTail {
        node: Addr,
        prev: Addr,
    },
    EnqCommit,
    DeqInit,
    DeqFindHead,
    DeqClaim {
        sentinel: Addr,
        node: Addr,
    },
    DeqPersistClaim {
        sentinel: Addr,
        node: Addr,
    },
    DeqAdvanceHead {
        sentinel: Addr,
        node: Addr,
        value: u64,
    },
    DeqCommit {
        value: u64,
    },
}

impl Detectable for MsQueue {
    type Op = Op;

    /// Allocates and persists an empty queue (root plus sentinel).
    fn new<E: PmemEnv>(env: &mut E) -> Self {
        let root = env.alloc(CACHELINE_BYTES, CACHELINE_BYTES);
        let sentinel = env.alloc(CACHELINE_BYTES, CACHELINE_BYTES);
        env.store_full_line(sentinel, &[0u8; 64]);
        env.persist(sentinel, CACHELINE_BYTES);
        let mut line = [0u8; 64];
        line[ROOT_HEAD as usize..][..8].copy_from_slice(&sentinel.0.to_le_bytes());
        line[ROOT_TAIL as usize..][..8].copy_from_slice(&sentinel.0.to_le_bytes());
        env.store_full_line(root, &line);
        env.persist(root, CACHELINE_BYTES);
        MsQueue { root }
    }

    /// Reattaches to a queue whose root cacheline is at `root`.
    fn from_root(root: Addr) -> Self {
        MsQueue { root }
    }

    /// The root cacheline address.
    fn root(&self) -> Addr {
        self.root
    }

    /// Values currently live, front to back: behind the sentinel,
    /// skipping claimed nodes.
    fn live_values<E: PmemEnv>(&self, env: &mut E) -> Vec<u64> {
        let sentinel = env.load_u64(self.root.add(ROOT_HEAD));
        let first = env.load_u64(Addr(sentinel).add(NODE_NEXT));
        live_values(env, first)
    }

    /// Post-crash structural repair, run single-threaded after per-lane
    /// [`recover`](crate::Lane::recover) calls: advances `head` past the
    /// claimed prefix and re-points a stale `tail` at the true last node.
    fn repair<E: PmemEnv>(&self, env: &mut E) {
        let mut steps = 0u64;
        while steps < MAX_WALK {
            let sentinel = env.load_u64(self.root.add(ROOT_HEAD));
            let first = env.load_u64(Addr(sentinel).add(NODE_NEXT));
            if first == 0 || env.load_u64(Addr(first).add(NODE_CLAIMED_BY)) == 0 {
                break;
            }
            env.store_u64(self.root.add(ROOT_HEAD), first);
            env.persist(self.root.add(ROOT_HEAD), 8);
            steps += 1;
        }
        // Walk to the actual last node and persist a correct tail.
        let mut last = env.load_u64(self.root.add(ROOT_HEAD));
        let mut steps = 0u64;
        loop {
            let next = env.load_u64(Addr(last).add(NODE_NEXT));
            if next == 0 || steps >= MAX_WALK {
                break;
            }
            last = next;
            steps += 1;
        }
        env.store_u64(self.root.add(ROOT_TAIL), last);
        env.persist(self.root.add(ROOT_TAIL), 8);
    }

    fn insert_op(value: u64) -> Op {
        Op::EnqInit { value }
    }

    fn remove_op() -> Op {
        Op::DeqInit
    }

    fn step<E: PmemEnv>(
        &self,
        env: &mut E,
        desc: &Descriptor,
        op: Op,
    ) -> ControlFlow<OpResult, Op> {
        let head = self.root.add(ROOT_HEAD);
        let tail_slot = self.root.add(ROOT_TAIL);
        Continue(match op {
            Op::EnqInit { value } => Op::EnqWriteNode {
                node: desc.start(env, OpKind::Insert),
                value,
            },
            Op::EnqWriteNode { node, value } => {
                desc.write_node(env, node, value);
                Op::EnqLink { node }
            }
            Op::EnqLink { node } => {
                let tail = Addr(env.load_u64(tail_slot));
                let next = env.load_u64(tail.add(NODE_NEXT));
                if next != 0 {
                    // Tail is lagging: help. The link that made `next`
                    // reachable must be durable before the tail swing —
                    // persist it on the helper path too.
                    env.persist(tail.add(NODE_NEXT), 8);
                    if env.cas_u64(tail_slot, tail.0, next) == tail.0 {
                        env.persist(tail_slot, 8);
                    }
                    Op::EnqLink { node }
                } else if env.cas_u64(tail.add(NODE_NEXT), 0, node.0) == 0 {
                    Op::EnqPersistLink { node, prev: tail }
                } else {
                    Op::EnqLink { node } // lost the race; retry
                }
            }
            Op::EnqPersistLink { node, prev } => {
                // The link CAS is what makes the node reachable — persist
                // it before the tail swing can be observed durably.
                env.persist(prev.add(NODE_NEXT), 8);
                Op::EnqSwingTail { node, prev }
            }
            Op::EnqSwingTail { node, prev } => {
                if env.cas_u64(tail_slot, prev.0, node.0) == prev.0 {
                    env.persist(tail_slot, 8);
                }
                Op::EnqCommit
            }
            Op::EnqCommit => return Break(desc.commit(env, OpResult::Pushed)),
            Op::DeqInit => {
                desc.start(env, OpKind::Remove);
                Op::DeqFindHead
            }
            Op::DeqFindHead => {
                let sentinel = Addr(env.load_u64(head));
                let first = env.load_u64(sentinel.add(NODE_NEXT));
                if first == 0 {
                    return Break(desc.commit(env, OpResult::Empty));
                }
                let node = Addr(first);
                if env.load_u64(node.add(NODE_CLAIMED_BY)) != 0 {
                    // Help advance head past a claimed front node.
                    // Flush-before-help: its claim must be durable before
                    // the advance can be.
                    env.persist(node, CACHELINE_BYTES);
                    if env.cas_u64(head, sentinel.0, first) == sentinel.0 {
                        env.persist(head, 8);
                    }
                    Op::DeqFindHead
                } else {
                    desc.checkpoint(env, node);
                    Op::DeqClaim { sentinel, node }
                }
            }
            Op::DeqClaim { sentinel, node } => {
                if desc.claim(env, node) {
                    Op::DeqPersistClaim { sentinel, node }
                } else {
                    Op::DeqFindHead // lost the race
                }
            }
            Op::DeqPersistClaim { sentinel, node } => Op::DeqAdvanceHead {
                sentinel,
                node,
                value: desc.persist_claim(env, node),
            },
            Op::DeqAdvanceHead {
                sentinel,
                node,
                value,
            } => {
                // Single attempt: the claimed node becomes the new
                // sentinel. If a helper already advanced, nothing to do.
                if env.cas_u64(head, sentinel.0, node.0) == sentinel.0 {
                    env.persist(head, 8);
                }
                Op::DeqCommit { value }
            }
            Op::DeqCommit { value } => return Break(desc.commit(env, OpResult::Popped(value))),
        })
    }

    /// The sentinel, inclusive: a dequeued node that became the sentinel
    /// still counts as reachable.
    fn chain_start<E: PmemEnv>(&self, env: &mut E) -> u64 {
        env.load_u64(self.root.add(ROOT_HEAD))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{op_tag, OpKind, NODE_VALUE};
    use crate::Lane;
    use pmem::HostEnv;

    #[test]
    fn enqueue_dequeue_fifo_sequential() {
        let mut env = HostEnv::new();
        let q = MsQueue::new(&mut env);
        let mut t = Lane::new(&mut env, 0);
        for v in 1..=5u64 {
            t.insert(&mut env, &q, v);
        }
        assert_eq!(q.live_values(&mut env), vec![1, 2, 3, 4, 5]);
        for v in 1..=5u64 {
            assert_eq!(t.remove(&mut env, &q), Some(v));
        }
        assert_eq!(t.remove(&mut env, &q), None);
    }

    #[test]
    fn interleaved_lanes_preserve_the_multiset() {
        let mut env = HostEnv::new();
        let q = MsQueue::new(&mut env);
        let mut a = Lane::new(&mut env, 0);
        let mut b = Lane::new(&mut env, 1);
        a.begin_insert(10);
        b.begin_insert(20);
        while a.busy() || b.busy() {
            for t in [&mut a, &mut b] {
                if t.busy() {
                    t.step(&mut env, &q);
                }
            }
        }
        let mut live = q.live_values(&mut env);
        live.sort_unstable();
        assert_eq!(live, vec![10, 20]);
        let mut got = vec![
            a.remove(&mut env, &q).unwrap(),
            b.remove(&mut env, &q).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        assert_eq!(a.remove(&mut env, &q), None);
    }

    #[test]
    fn committed_ops_recover_as_applied() {
        let mut env = HostEnv::new();
        let q = MsQueue::new(&mut env);
        let mut t = Lane::new(&mut env, 2);
        t.insert(&mut env, &q, 55);
        let r = t.recover(&mut env, &q);
        assert_eq!(r.kind, OpKind::Insert);
        assert!(r.applied);
        assert_eq!(r.value, Some(55));
        assert_eq!(t.remove(&mut env, &q), Some(55));
        let r = t.recover(&mut env, &q);
        assert_eq!(r.kind, OpKind::Remove);
        assert!(r.applied);
        assert_eq!(r.value, Some(55));
    }

    #[test]
    fn repair_advances_head_past_claimed_prefix_and_fixes_tail() {
        let mut env = HostEnv::new();
        let q = MsQueue::new(&mut env);
        let mut t = Lane::new(&mut env, 0);
        for v in [1u64, 2, 3] {
            t.insert(&mut env, &q, v);
        }
        // Claim the front node by hand (a dequeue cut before its head
        // advance) and leave the tail stale at the sentinel.
        let sentinel = Addr(env.load_u64(q.root().add(ROOT_HEAD)));
        let first = Addr(env.load_u64(sentinel.add(NODE_NEXT)));
        env.store_u64(first.add(NODE_CLAIMED_BY), op_tag(7, 7));
        env.store_u64(q.root().add(ROOT_TAIL), sentinel.0);
        q.repair(&mut env);
        assert_eq!(q.live_values(&mut env), vec![2, 3]);
        let tail = Addr(env.load_u64(q.root().add(ROOT_TAIL)));
        assert_eq!(env.load_u64(tail.add(NODE_VALUE)), 3);
    }
}
