//! The dual-run divergence witness: hashing, child reports, bisection.
//!
//! The witness protocol (driven by `repro divergence` in the experiments
//! crate) runs one experiment twice in *separate processes* with the same
//! seed. Each child attaches an [`OpStreamHasher`] as the machines'
//! TraceSink, folds every observed operation into a running FNV-1a hash,
//! folds in checkpoint bytes, sampler rows, and the result table, and
//! prints a [`ChildReport`]. Two fresh processes mean fresh SipHash keys
//! and a fresh address-space layout — exactly the nondeterminism sources
//! the static gate legislates against. If the reports differ, the parent
//! bisects: children are re-run with `--prefix K` (hash only the first K
//! ops) and [`bisect_first_divergence`] binary-searches the smallest
//! prefix whose hashes disagree, ~2·log2(ops) re-runs. A final pair of
//! `--dump A B` runs captures the rendered ops around that index for a
//! two-sided diff.

use std::cell::RefCell;
use std::rc::Rc;

use optane_core::trace::{TraceEvent, TraceSink};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` word into a running FNV-1a hash, byte by byte
/// (little-endian), so the hash is independent of host word order.
#[inline]
pub fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds a byte slice into a running FNV-1a hash.
pub fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical word encoding of one trace event. Every field that exists is
/// encoded; enums map to fixed small integers (never `Debug` strings, so
/// renames cannot silently change hashes).
fn canon(ev: &TraceEvent) -> ([u64; 7], usize) {
    use optane_core::trace::{FenceKind, FlushKind};
    use optane_core::MemRegion;
    let region = |r: MemRegion| match r {
        MemRegion::Pm => 0u64,
        MemRegion::Dram => 1u64,
    };
    match *ev {
        TraceEvent::Store {
            tid,
            addr,
            len,
            region: r,
            at,
        } => ([1, tid.0 as u64, addr.0, len, region(r), at, 0], 6),
        TraceEvent::NtStore {
            tid,
            addr,
            len,
            region: r,
            at,
        } => ([2, tid.0 as u64, addr.0, len, region(r), at, 0], 6),
        TraceEvent::Flush {
            tid,
            line,
            kind,
            region: r,
            dirty,
            at,
        } => {
            let k = match kind {
                FlushKind::Clwb => 0u64,
                FlushKind::Clflushopt => 1,
                FlushKind::Clflush => 2,
            };
            (
                [3, tid.0 as u64, line.0, k, region(r), u64::from(dirty), at],
                7,
            )
        }
        TraceEvent::Fence { tid, kind, at } => {
            let k = match kind {
                FenceKind::Sfence => 0u64,
                FenceKind::Mfence => 1,
            };
            ([4, tid.0 as u64, k, at, 0, 0, 0], 4)
        }
        TraceEvent::Load {
            tid,
            addr,
            len,
            region: r,
            at,
        } => ([5, tid.0 as u64, addr.0, len, region(r), at, 0], 6),
        TraceEvent::WriteBack { line, at } => ([6, line.0, at, 0, 0, 0, 0], 3),
        TraceEvent::PowerFail { at } => ([7, at, 0, 0, 0, 0, 0], 2),
        TraceEvent::Cas {
            tid,
            addr,
            region: r,
            success,
            at,
        } => (
            [
                8,
                tid.0 as u64,
                addr.0,
                region(r),
                u64::from(success),
                at,
                0,
            ],
            6,
        ),
        TraceEvent::FetchAdd {
            tid,
            addr,
            region: r,
            delta,
            at,
        } => ([9, tid.0 as u64, addr.0, region(r), delta, at, 0], 6),
    }
}

/// Renders one event for the bisection diff.
fn render(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::Store {
            tid,
            addr,
            len,
            region,
            at,
        } => format!(
            "store   tid={} addr={:#x} len={} {:?} at={}",
            tid.0, addr.0, len, region, at
        ),
        TraceEvent::NtStore {
            tid,
            addr,
            len,
            region,
            at,
        } => format!(
            "ntstore tid={} addr={:#x} len={} {:?} at={}",
            tid.0, addr.0, len, region, at
        ),
        TraceEvent::Flush {
            tid,
            line,
            kind,
            region,
            dirty,
            at,
        } => format!(
            "flush   tid={} line={:#x} {:?} {:?} dirty={} at={}",
            tid.0, line.0, kind, region, dirty, at
        ),
        TraceEvent::Fence { tid, kind, at } => {
            format!("fence   tid={} {:?} at={}", tid.0, kind, at)
        }
        TraceEvent::Load {
            tid,
            addr,
            len,
            region,
            at,
        } => format!(
            "load    tid={} addr={:#x} len={} {:?} at={}",
            tid.0, addr.0, len, region, at
        ),
        TraceEvent::WriteBack { line, at } => {
            format!("wb      line={:#x} at={}", line.0, at)
        }
        TraceEvent::PowerFail { at } => format!("powerfail at={}", at),
        TraceEvent::Cas {
            tid,
            addr,
            region,
            success,
            at,
        } => format!(
            "cas     tid={} addr={:#x} {:?} success={} at={}",
            tid.0, addr.0, region, success, at
        ),
        TraceEvent::FetchAdd {
            tid,
            addr,
            region,
            delta,
            at,
        } => format!(
            "xadd    tid={} addr={:#x} {:?} delta={} at={}",
            tid.0, addr.0, region, delta, at
        ),
    }
}

/// A TraceSink that folds every observed op into a running FNV-1a hash.
///
/// Modes (all compose):
/// - `prefix_limit`: hash only the first K ops (op counting continues) —
///   the bisection probe.
/// - `dump_range`: capture rendered ops with index in `[A, B)` — the
///   final diff pass.
/// - `perturb_at`: deliberately flip the encoding of op K — used by tests
///   and `--smoke` to prove the bisector finds a planted divergence.
#[derive(Debug, Default)]
pub struct OpStreamHasher {
    hash: u64,
    ops: u64,
    prefix_limit: Option<u64>,
    dump_range: Option<(u64, u64)>,
    dumped: Vec<(u64, String)>,
    perturb_at: Option<u64>,
}

impl OpStreamHasher {
    /// A hasher over the full op stream.
    pub fn new() -> Self {
        OpStreamHasher {
            hash: FNV_OFFSET,
            ..Default::default()
        }
    }

    /// Hash only the first `k` ops.
    pub fn with_prefix_limit(mut self, k: u64) -> Self {
        self.prefix_limit = Some(k);
        self
    }

    /// Capture rendered ops with index in `[a, b)`.
    pub fn with_dump_range(mut self, a: u64, b: u64) -> Self {
        self.dump_range = Some((a, b));
        self
    }

    /// Deliberately corrupt the hash contribution (and rendering) of op
    /// `k`, planting a divergence the bisector must find.
    pub fn with_perturb_at(mut self, k: u64) -> Self {
        self.perturb_at = Some(k);
        self
    }

    /// The running op-stream hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Ops observed so far (counted even past `prefix_limit`).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Ops captured by `dump_range`, as `(index, rendered)` pairs.
    pub fn dumped(&self) -> &[(u64, String)] {
        &self.dumped
    }

    /// Whether a later op can no longer change [`hash`](Self::hash) or
    /// [`dumped`](Self::dumped): the hasher has a prefix limit or a dump
    /// range, and has seen every op below the prefix limit and below the
    /// dump range's end. Always `false` for a hasher over the full stream.
    pub fn saw_every_needed_op(&self) -> bool {
        let last = match (self.prefix_limit, self.dump_range) {
            (None, None) => return false,
            (k, range) => k.unwrap_or(0).max(range.map_or(0, |(_, b)| b)),
        };
        self.ops >= last
    }
}

impl TraceSink for OpStreamHasher {
    fn on_event(&mut self, ev: &TraceEvent) {
        let idx = self.ops;
        self.ops += 1;
        let perturbed = self.perturb_at == Some(idx);
        if self.prefix_limit.is_none_or(|k| idx < k) {
            let (words, n) = canon(ev);
            let mut h = self.hash;
            for &w in &words[..n] {
                h = fnv1a(h, w);
            }
            if perturbed {
                h = fnv1a(h, 0xdead_beef);
            }
            self.hash = h;
        }
        if let Some((a, b)) = self.dump_range {
            if (a..b).contains(&idx) {
                let mut text = render(ev);
                if perturbed {
                    text.push_str("  [planted perturbation]");
                }
                self.dumped.push((idx, text));
            }
        }
    }
}

/// A cloneable handle to one [`OpStreamHasher`], attachable as the
/// TraceSink of several machines at once (pre-crash and post-recovery
/// machines must fold into the same stream).
#[derive(Debug, Clone, Default)]
pub struct SharedHasher(pub Rc<RefCell<OpStreamHasher>>);

impl SharedHasher {
    /// Wraps a configured hasher.
    pub fn new(h: OpStreamHasher) -> Self {
        SharedHasher(Rc::new(RefCell::new(h)))
    }
}

impl TraceSink for SharedHasher {
    fn on_event(&mut self, ev: &TraceEvent) {
        self.0.borrow_mut().on_event(ev);
    }
}

/// What one child process measured, parsed from its stdout.
///
/// Wire format, one `key=value` per line prefixed `divergence-child: `,
/// plus zero or more `divergence-child: dump <idx> <rendered op>` lines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChildReport {
    /// Total ops observed.
    pub ops: u64,
    /// FNV-1a hash of the (possibly prefix-limited) op stream.
    pub trace_hash: u64,
    /// FNV-1a hash of every machine checkpoint's encoded bytes.
    pub checkpoint_hash: u64,
    /// FNV-1a hash of the sampler's JSONL rows (0 when unsampled).
    pub metrics_hash: u64,
    /// FNV-1a hash of the experiment's result table.
    pub result_hash: u64,
    /// Rendered ops captured by a `--dump` run.
    pub dump: Vec<(u64, String)>,
}

const WIRE_PREFIX: &str = "divergence-child: ";

impl ChildReport {
    /// Serializes for the child's stdout.
    pub fn to_wire(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{WIRE_PREFIX}ops={}\n", self.ops));
        s.push_str(&format!(
            "{WIRE_PREFIX}trace_hash={:#018x}\n",
            self.trace_hash
        ));
        s.push_str(&format!(
            "{WIRE_PREFIX}checkpoint_hash={:#018x}\n",
            self.checkpoint_hash
        ));
        s.push_str(&format!(
            "{WIRE_PREFIX}metrics_hash={:#018x}\n",
            self.metrics_hash
        ));
        s.push_str(&format!(
            "{WIRE_PREFIX}result_hash={:#018x}\n",
            self.result_hash
        ));
        for (idx, text) in &self.dump {
            s.push_str(&format!("{WIRE_PREFIX}dump {idx} {text}\n"));
        }
        s
    }

    /// Parses a child's stdout (ignoring unrelated lines, so the child is
    /// free to log).
    pub fn parse(stdout: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        let mut seen = 0u32;
        for line in stdout.lines() {
            let Some(rest) = line.strip_prefix(WIRE_PREFIX) else {
                continue;
            };
            if let Some(dump) = rest.strip_prefix("dump ") {
                let (idx, text) = dump
                    .split_once(' ')
                    .ok_or_else(|| format!("bad dump line: {line}"))?;
                let idx = idx.parse().map_err(|e| format!("bad dump index: {e}"))?;
                r.dump.push((idx, text.to_string()));
                continue;
            }
            let Some((key, value)) = rest.split_once('=') else {
                continue;
            };
            let parse_u64 = |v: &str| -> Result<u64, String> {
                let v = v.trim();
                if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                }
                .map_err(|e| format!("bad value in `{line}`: {e}"))
            };
            match key {
                "ops" => r.ops = parse_u64(value)?,
                "trace_hash" => r.trace_hash = parse_u64(value)?,
                "checkpoint_hash" => r.checkpoint_hash = parse_u64(value)?,
                "metrics_hash" => r.metrics_hash = parse_u64(value)?,
                "result_hash" => r.result_hash = parse_u64(value)?,
                _ => continue,
            }
            seen += 1;
        }
        if seen < 5 {
            return Err(format!(
                "child stdout missing report fields (saw {seen}/5):\n{stdout}"
            ));
        }
        Ok(r)
    }

    /// True when every hash and the op count agree.
    pub fn agrees_with(&self, other: &ChildReport) -> bool {
        self.ops == other.ops
            && self.trace_hash == other.trace_hash
            && self.checkpoint_hash == other.checkpoint_hash
            && self.metrics_hash == other.metrics_hash
            && self.result_hash == other.result_hash
    }
}

/// Outcome of a dual-run comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceOutcome {
    /// Both processes produced identical streams and state hashes.
    Identical {
        /// Ops in the (agreed) stream.
        ops: u64,
        /// The agreed op-stream hash.
        trace_hash: u64,
    },
    /// The runs diverged; the op stream disagrees starting at this index.
    Diverged {
        /// 0-based index of the first divergent op.
        first_divergent_op: u64,
        /// Two-sided rendered diff around the divergence point.
        diff: String,
    },
    /// Op streams agree but derived state (checkpoints/metrics/results)
    /// does not — divergence downstream of the instruction stream.
    StateOnly {
        /// Which fields disagree, e.g. `["checkpoint_hash"]`.
        fields: Vec<&'static str>,
    },
}

/// Binary-searches the smallest prefix length `k` (1..=ops) whose
/// prefix-hashes disagree; the first divergent op index is `k - 1`.
///
/// `probe(k)` must re-run both children with `--prefix k` and report
/// whether the prefix hashes differ. Invariants assumed: prefix 0 agrees,
/// prefix `ops` differs (the caller established full-stream mismatch).
pub fn bisect_first_divergence(
    ops: u64,
    mut probe: impl FnMut(u64) -> Result<bool, String>,
) -> Result<u64, String> {
    let mut lo = 0u64; // agrees
    let mut hi = ops; // differs
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi - 1)
}

/// Renders a two-sided diff of the dumped ops around the divergence.
pub fn render_diff(
    first_divergent_op: u64,
    left: &[(u64, String)],
    right: &[(u64, String)],
) -> String {
    let mut s = String::new();
    let idxs: std::collections::BTreeSet<u64> =
        left.iter().chain(right.iter()).map(|(i, _)| *i).collect();
    let find = |side: &[(u64, String)], idx: u64| -> Option<String> {
        side.iter().find(|(i, _)| *i == idx).map(|(_, t)| t.clone())
    };
    for idx in idxs {
        let l = find(left, idx);
        let r = find(right, idx);
        let marker = if idx == first_divergent_op {
            " <-- first divergence"
        } else {
            ""
        };
        match (l, r) {
            (Some(l), Some(r)) if l == r => {
                s.push_str(&format!("    op {idx:>8}  {l}\n"));
            }
            (l, r) => {
                s.push_str(&format!(
                    "  A op {idx:>8}  {}{marker}\n",
                    l.as_deref().unwrap_or("<absent>")
                ));
                s.push_str(&format!(
                    "  B op {idx:>8}  {}\n",
                    r.as_deref().unwrap_or("<absent>")
                ));
            }
        }
    }
    s
}

/// Compares two full-stream reports, without bisection (the caller
/// bisects when `Diverged` detail is needed).
pub fn compare_reports(a: &ChildReport, b: &ChildReport) -> DivergenceOutcome {
    if a.agrees_with(b) {
        return DivergenceOutcome::Identical {
            ops: a.ops,
            trace_hash: a.trace_hash,
        };
    }
    if a.ops == b.ops && a.trace_hash == b.trace_hash {
        let mut fields = Vec::new();
        if a.checkpoint_hash != b.checkpoint_hash {
            fields.push("checkpoint_hash");
        }
        if a.metrics_hash != b.metrics_hash {
            fields.push("metrics_hash");
        }
        if a.result_hash != b.result_hash {
            fields.push("result_hash");
        }
        return DivergenceOutcome::StateOnly { fields };
    }
    DivergenceOutcome::Diverged {
        first_divergent_op: 0,
        diff: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optane_core::trace::FenceKind;
    use optane_core::{MemRegion, ThreadId};
    use simbase::Addr;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Store {
            tid: ThreadId(0),
            addr: Addr(0x1000 + i * 64),
            len: 8,
            region: MemRegion::Pm,
            at: i,
        }
    }

    #[test]
    fn same_stream_same_hash() {
        let mut a = OpStreamHasher::new();
        let mut b = OpStreamHasher::new();
        for i in 0..100 {
            a.on_event(&ev(i));
            b.on_event(&ev(i));
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.ops(), 100);
    }

    #[test]
    fn different_stream_different_hash() {
        let mut a = OpStreamHasher::new();
        let mut b = OpStreamHasher::new();
        a.on_event(&ev(1));
        b.on_event(&ev(2));
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn event_kinds_hash_distinctly() {
        let mut a = OpStreamHasher::new();
        let mut b = OpStreamHasher::new();
        a.on_event(&TraceEvent::PowerFail { at: 5 });
        b.on_event(&TraceEvent::Fence {
            tid: ThreadId(0),
            kind: FenceKind::Sfence,
            at: 5,
        });
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn probes_know_when_they_saw_every_needed_op() {
        let mut full = OpStreamHasher::new();
        let mut prefix = OpStreamHasher::new().with_prefix_limit(3);
        let mut dump = OpStreamHasher::new().with_dump_range(1, 4);
        let mut both = OpStreamHasher::new()
            .with_prefix_limit(5)
            .with_dump_range(0, 2);
        let mut seen = Vec::new();
        for i in 0..6 {
            for h in [&mut full, &mut prefix, &mut dump, &mut both] {
                h.on_event(&ev(i));
            }
            seen.push([&full, &prefix, &dump, &both].map(|h| h.saw_every_needed_op()));
        }
        let when = |i: usize| seen.iter().position(|s| s[i]).map(|n| n + 1);
        assert_eq!(when(0), None, "a full-stream hasher always needs more");
        assert_eq!(when(1), Some(3));
        assert_eq!(when(2), Some(4));
        assert_eq!(when(3), Some(5));
    }

    #[test]
    fn prefix_limit_freezes_hash_but_counts_on() {
        let mut full = OpStreamHasher::new();
        let mut pre = OpStreamHasher::new().with_prefix_limit(3);
        for i in 0..10 {
            full.on_event(&ev(i));
            pre.on_event(&ev(i));
        }
        let mut three = OpStreamHasher::new();
        for i in 0..3 {
            three.on_event(&ev(i));
        }
        assert_eq!(pre.hash(), three.hash());
        assert_eq!(pre.ops(), 10);
        assert_ne!(pre.hash(), full.hash());
    }

    #[test]
    fn perturb_changes_hash_only_at_that_op() {
        let run = |perturb: Option<u64>, limit: u64| {
            let mut h = OpStreamHasher::new().with_prefix_limit(limit);
            if let Some(k) = perturb {
                h = h.with_perturb_at(k);
            }
            for i in 0..10 {
                h.on_event(&ev(i));
            }
            h.hash()
        };
        assert_eq!(
            run(None, 7),
            run(Some(7), 7),
            "perturb past prefix is invisible"
        );
        assert_ne!(run(None, 8), run(Some(7), 8));
    }

    #[test]
    fn bisect_finds_planted_divergence() {
        // Simulate the probe with hashers instead of processes.
        for planted in [0u64, 1, 499, 777, 999] {
            let probe = |k: u64| -> Result<bool, String> {
                let mut a = OpStreamHasher::new().with_prefix_limit(k);
                let mut b = OpStreamHasher::new()
                    .with_prefix_limit(k)
                    .with_perturb_at(planted);
                for i in 0..1000 {
                    a.on_event(&ev(i));
                    b.on_event(&ev(i));
                }
                Ok(a.hash() != b.hash())
            };
            assert_eq!(bisect_first_divergence(1000, probe), Ok(planted));
        }
    }

    #[test]
    fn child_report_roundtrip() {
        let r = ChildReport {
            ops: 12345,
            trace_hash: 0xdead_beef_0123_4567,
            checkpoint_hash: 1,
            metrics_hash: 2,
            result_hash: 3,
            dump: vec![(7, "store tid=0 addr=0x1000 len=8 Pm at=7".to_string())],
        };
        let wire = format!("unrelated log line\n{}more noise\n", r.to_wire());
        assert_eq!(ChildReport::parse(&wire), Ok(r));
    }

    #[test]
    fn compare_reports_classifies() {
        let a = ChildReport {
            ops: 10,
            trace_hash: 1,
            checkpoint_hash: 2,
            metrics_hash: 3,
            result_hash: 4,
            dump: vec![],
        };
        assert!(matches!(
            compare_reports(&a, &a.clone()),
            DivergenceOutcome::Identical { ops: 10, .. }
        ));
        let mut b = a.clone();
        b.checkpoint_hash = 99;
        assert_eq!(
            compare_reports(&a, &b),
            DivergenceOutcome::StateOnly {
                fields: vec!["checkpoint_hash"]
            }
        );
        let mut c = a.clone();
        c.trace_hash = 99;
        assert!(matches!(
            compare_reports(&a, &c),
            DivergenceOutcome::Diverged { .. }
        ));
    }

    #[test]
    fn diff_rendering_marks_divergence() {
        let left = vec![(5, "same".to_string()), (6, "left".to_string())];
        let right = vec![(5, "same".to_string()), (6, "right".to_string())];
        let d = render_diff(6, &left, &right);
        assert!(d.contains("first divergence"), "{d}");
        assert!(d.contains("A op"), "{d}");
        assert!(d.contains("B op"), "{d}");
    }
}
