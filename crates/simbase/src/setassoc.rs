//! `SetAssoc`: the set-associative LRU table behind every simulated
//! cache and the on-DIMM AIT cache.
//!
//! The table tracks *items* (cacheline numbers, AIT granules): which are
//! resident, in which slot, and whether they are dirty. It holds no data.
//! Item `i` lives in set `i % sets` under the tag `i / sets + 1`; tag 0
//! marks an empty way, so a victim's item is `(tag - 1) * sets + set`
//! with no stored address.
//!
//! **Layout.** Each set is one block of 64-byte host lines, aligned to
//! 64 bytes; up to 12 ways with narrow tags fit one line, so a set touch
//! reads one host line:
//!
//! ```text
//! [ rank byte per way | pad to 4 | dirty mask (u32) | pad to 8 | tag per way ]
//! ```
//!
//! A table's ways round up to a block capacity of 8, 12, 16, 20 or 24
//! (at most 24 ways); each capacity and tag width is a block type of its
//! own with constant offsets, so the loops over a set's ways unroll.
//!
//! A way's rank byte is its LRU rank plus one, 0 for an empty way. The
//! occupied ranks of a set form a permutation of `0..n`: a fill adds 1 to
//! every occupied rank and enters at rank 0, a hit adds 1 to the ranks
//! below its own and takes rank 0, and an invalidate subtracts 1 from the
//! ranks above its own. A rank is therefore the number of occupied ways
//! used more recently, exactly the order of a per-slot "last use" tick,
//! and the victim of a full set, rank `ways - 1`, is the way with the
//! oldest tick. A clean or a miss leaves ranks alone, as they left ticks.
//!
//! **Tag width.** A table of up to 12 ways starts with narrow (`u32`)
//! tags, which keep its sets, the largest tables' (the 11- and 12-way
//! L3s) among them, at one host line each. The first fill whose tag does
//! not fit widens the table once, in place, to `u64` tags: every set is
//! re-laid out with its slots, ranks and dirty bits kept. Lookups of a
//! tag that does not fit a narrow table miss without widening it.
//! [`SetAssoc::reset`] returns to the initial, unallocated state. A table
//! of more ways (the L2s, the AIT) spans more than one line per set with
//! either width, so narrow tags cannot give it a one-line touch; it starts
//! wide, which measured faster than packing its tags.
//!
//! **Laziness.** The table is allocated, zeroed, by the first fill, and
//! all-zero bytes are an empty set, so a large allocation costs no host
//! memory until a set is written: the allocator hands fresh zero pages
//! back untouched, and scans that find nothing only read them. Machines
//! configure private caches for dozens of cores, so the cores a run
//! never uses cost nothing. A live-slot counter keeps emptiness checks
//! O(1).

use crate::stats::HitMiss;

/// Host cacheline size the blocks are laid out in.
const BLOCK_ALIGN: usize = 64;

/// Exact `n % d` by multiplication (Lemire, Kaser & Kurz, "Faster
/// remainder by direct computation", 2019). With `m = ceil(2^128 / d)`,
/// `n % d == ((m * n mod 2^128) * d) >> 128` for every 64-bit `n`, which
/// replaces the division by a non-power-of-two set count on every lookup.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    m: u128,
}

impl FastMod {
    fn new(d: u64) -> Self {
        assert!(d > 0, "modulus must be positive");
        // For d == 1 the magic wraps to 0, which yields 0 == n % 1.
        FastMod {
            d,
            m: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    #[inline]
    fn rem(self, n: u64) -> u64 {
        let low = self.m.wrapping_mul(u128::from(n));
        let d = u128::from(self.d);
        // High 128 bits of the 192-bit product `low * d`, in two halves;
        // neither partial product nor their sum overflows.
        let hi = (low >> 64) * d;
        let lo = (low & u128::from(u64::MAX)) * d;
        ((hi + (lo >> 64)) >> 64) as u64
    }
}

/// Splits an item into its set and quotient without a hardware divide.
///
/// The set count is `odd << shift`. A power of two (`odd == 1`) takes a
/// mask and a shift. Otherwise the remainder comes from [`FastMod`], and
/// `item - rem` is an exact multiple of the count, so after the shift
/// the quotient is an exact division by `odd`: a multiply by the inverse
/// of `odd` modulo 2^64.
#[derive(Debug, Clone, Copy)]
struct SetIndex {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two.
    mask: Option<u64>,
    rem: FastMod,
    shift: u32,
    /// `odd^-1 mod 2^64`.
    inv: u64,
}

impl SetIndex {
    fn new(sets: u64) -> Self {
        let shift = sets.trailing_zeros();
        let odd = sets >> shift;
        // Newton's iteration doubles the correct low bits of an inverse;
        // `odd * odd == 1 mod 8` makes `odd` correct to 3 bits, and five
        // steps reach 96 >= 64.
        let mut inv = odd;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
        }
        SetIndex {
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
            rem: FastMod::new(sets),
            shift,
            inv,
        }
    }

    /// Returns `(item % sets, item / sets)`.
    #[inline]
    fn split(&self, item: u64) -> (usize, u64) {
        match self.mask {
            Some(mask) => ((item & mask) as usize, item >> self.shift),
            None => {
                let r = self.rem.rem(item);
                (
                    r as usize,
                    ((item - r) >> self.shift).wrapping_mul(self.inv),
                )
            }
        }
    }
}

/// An item evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The victim item.
    pub item: u64,
    /// Whether the victim was dirty.
    pub dirty: bool,
}

/// The block shapes, as `(ways, wide)`. A table's ways round up to the
/// next capacity. Narrow tags exist to fit a set in one host line, so
/// only tables of up to 12 ways start narrow, and each narrow shape
/// widens to the wide shape two places on; a table of more ways spans
/// two or three lines per set either way and starts wide. Each shape
/// compiles to code of its own, whose loops over a block's ways have a
/// constant trip count.
const SHAPES: [(usize, bool); 7] = [
    (8, false),
    (12, false),
    (8, true),
    (12, true),
    (16, true),
    (20, true),
    (24, true),
];

/// Runs `$table.$op::<N, CAP, WIDE>(args)` for the table's block shape:
/// `CAP` ways and `WIDE` tags in blocks of `N` words.
macro_rules! by_shape {
    ($table:ident . $op:ident ( $($arg:expr),* )) => {
        match $table.shape {
            0 => $table.$op::<8, 8, false>($($arg),*),
            1 => $table.$op::<8, 12, false>($($arg),*),
            2 => $table.$op::<16, 8, true>($($arg),*),
            3 => $table.$op::<16, 12, true>($($arg),*),
            4 => $table.$op::<24, 16, true>($($arg),*),
            5 => $table.$op::<24, 20, true>($($arg),*),
            _ => $table.$op::<32, 24, true>($($arg),*),
        }
    };
}

const HIGH: u64 = 0x8080_8080_8080_8080;
const ONES: u64 = 0x0101_0101_0101_0101;

/// Returns the words of a block of `cap` ways with `u64` (`wide`) or
/// `u32` tags: the rank bytes and the dirty mask, then the tags, rounded
/// up to whole host lines.
const fn block_words(cap: usize, wide: bool) -> usize {
    let tag_words = if wide { cap } else { cap / 2 };
    ((cap + 4).div_ceil(8) + tag_words).next_multiple_of(BLOCK_ALIGN / 8)
}

/// The field layout of a block of `N` little-endian words with room for
/// `CAP` ways and `u64` (`WIDE`) or `u32` tags; byte `i` of a block is
/// byte `i % 8` of word `i / 8`. Every offset is a constant, so each
/// shape compiles to its own straight-line code.
struct Block<const N: usize, const CAP: usize, const WIDE: bool>;

impl<const N: usize, const CAP: usize, const WIDE: bool> Block<N, CAP, WIDE> {
    /// Fails to compile a shape whose `N` is not its block size.
    const SIZED: () = assert!(N == block_words(CAP, WIDE));
    /// Words holding rank bytes.
    const RANK_WORDS: usize = CAP.div_ceil(8);
    /// Bit of the `u32` dirty mask, right after the rank bytes.
    const DIRTY_BIT: usize = 8 * CAP;
    /// Word of tag 0.
    const TAGS_AT: usize = (CAP + 4).div_ceil(8);
    /// Words holding tags.
    const TAG_WORDS: usize = if WIDE { CAP } else { CAP / 2 };

    /// The high bit of every rank byte of rank word `k`.
    #[inline(always)]
    fn rank_lanes(k: usize) -> u64 {
        let lanes = (CAP - 8 * k).min(8);
        HIGH >> (64 - 8 * lanes)
    }

    /// Returns the way holding `tag`, if any. Unused ways past the
    /// table's own hold tag 0, which is never looked up.
    #[inline(always)]
    fn find(b: &[u64; N], tag: u64) -> Option<usize> {
        let () = Self::SIZED;
        let tags = &b[Self::TAGS_AT..Self::TAGS_AT + Self::TAG_WORDS];
        if WIDE {
            return tags.iter().position(|&t| t == tag);
        }
        if tag > u64::from(u32::MAX) {
            return None;
        }
        // Two tags to a word, low half first.
        (0..CAP).position(|way| (tags[way / 2] >> (32 * (way % 2))) as u32 == tag as u32)
    }

    /// Returns the tag in `way` (0 for an empty way).
    #[inline(always)]
    fn tag(b: &[u64; N], way: usize) -> u64 {
        if WIDE {
            b[Self::TAGS_AT + way]
        } else {
            b[Self::TAGS_AT + way / 2] >> (32 * (way % 2)) & u64::from(u32::MAX)
        }
    }

    #[inline(always)]
    fn set_tag(b: &mut [u64; N], way: usize, tag: u64) {
        if WIDE {
            b[Self::TAGS_AT + way] = tag;
        } else {
            let shift = 32 * (way % 2);
            let w = &mut b[Self::TAGS_AT + way / 2];
            *w = *w & !(u64::from(u32::MAX) << shift) | tag << shift;
        }
    }

    #[inline(always)]
    fn is_dirty(b: &[u64; N], way: usize) -> bool {
        let bit = Self::DIRTY_BIT + way;
        b[bit / 64] >> (bit % 64) & 1 == 1
    }

    #[inline(always)]
    fn set_dirty(b: &mut [u64; N], way: usize, dirty: bool) {
        let bit = Self::DIRTY_BIT + way;
        let w = &mut b[bit / 64];
        *w = *w & !(1 << (bit % 64)) | u64::from(dirty) << (bit % 64);
    }

    /// Returns the rank byte of `way` (0 for an empty way).
    #[inline(always)]
    fn rank(b: &[u64; N], way: usize) -> u8 {
        (b[way / 8] >> (way % 8 * 8)) as u8
    }

    /// Returns the rank bytes of rank word `k` that lie in `lo..=hi`
    /// (`hi < 127`), as the high bit of each such byte. Each bound test
    /// raises every byte to at least 0x80 before subtracting, so no byte
    /// borrows from its neighbour, and rank bytes (at most 25) compare
    /// exactly; the mask drops the bytes that are not ranks.
    #[inline(always)]
    fn ranked(b: &[u64; N], k: usize, lo: u8, hi: u8) -> u64 {
        Self::ranked_from(b, k, lo) & !Self::ranked_from(b, k, hi + 1)
    }

    /// Returns the rank bytes of rank word `k` that are at least `lo`
    /// (`lo < 128`), as [`Block::ranked`] does.
    #[inline(always)]
    fn ranked_from(b: &[u64; N], k: usize, lo: u8) -> u64 {
        ((b[k] | HIGH) - ONES * u64::from(lo)) & HIGH & Self::rank_lanes(k)
    }

    /// Returns the first way whose rank byte lies in `lo..=hi`.
    #[inline(always)]
    fn first_ranked(b: &[u64; N], lo: u8, hi: u8) -> Option<usize> {
        (0..Self::RANK_WORDS).find_map(|k| {
            let lanes = Self::ranked(b, k, lo, hi);
            (lanes != 0).then(|| 8 * k + lanes.trailing_zeros() as usize / 8)
        })
    }

    /// Adds `delta` (1 or -1, wrapping) to the rank bytes `lanes(b, k)`
    /// selects in each rank word `k`, then sets `way`'s byte to `rank`;
    /// one pass over the rank words.
    #[inline(always)]
    fn update_ranks(
        b: &mut [u64; N],
        lanes: impl Fn(&[u64; N], usize) -> u64,
        delta: u64,
        way: usize,
        rank: u8,
    ) {
        let shift = way % 8 * 8;
        for k in 0..Self::RANK_WORDS {
            let lanes = lanes(b, k);
            let shifted = b[k].wrapping_add((lanes >> 7).wrapping_mul(delta));
            let own = (0xFF << shift) & u64::from(k == way / 8).wrapping_neg();
            b[k] = shifted & !own | u64::from(rank) << shift & own;
        }
    }

    /// Makes `way` the most recently used, ORing `dirty` into it. The
    /// occupied ranks more recent than its own (bytes in `1..own`) age
    /// by one; the most recent way (byte 1) has none.
    #[inline(always)]
    fn promote(b: &mut [u64; N], way: usize, dirty: bool) {
        let own = Self::rank(b, way);
        if own > 1 {
            Self::update_ranks(b, |b, k| Self::ranked(b, k, 1, own - 1), 1, way, 1);
        }
        if dirty {
            Self::set_dirty(b, way, true);
        }
    }

    /// Returns `true` if no way is occupied.
    #[inline(always)]
    fn is_vacant(b: &[u64; N]) -> bool {
        (0..Self::RANK_WORDS).all(|k| Self::ranked_from(b, k, 1) == 0)
    }
}

/// Set-associative, LRU, write-back table of `u64` items (metadata only).
/// See the module docs for the layout.
#[derive(Debug)]
pub struct SetAssoc {
    index: SetIndex,
    ways: usize,
    /// Index of the block shape in [`SHAPES`].
    shape: usize,
    /// The blocks, from word `base` on; empty (no table) until the first
    /// fill. `base` aligns set 0 to [`BLOCK_ALIGN`] bytes.
    words: Vec<u64>,
    base: usize,
    /// Number of occupied slots.
    live: usize,
    hits: u64,
    misses: u64,
}

impl Clone for SetAssoc {
    /// Copies the table into a fresh, again 64-byte-aligned allocation.
    fn clone(&self) -> Self {
        let mut c = SetAssoc {
            words: Vec::new(),
            base: 0,
            ..*self
        };
        if !self.words.is_empty() {
            c.allocate();
            let len = self.table_len();
            c.words[c.base..c.base + len].copy_from_slice(&self.words[self.base..self.base + len]);
        }
        c
    }
}

impl SetAssoc {
    /// Creates an empty table of `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or `ways` is not in `1..=24`.
    pub fn new(sets: u64, ways: usize) -> Self {
        assert!(sets > 0, "a table needs at least one set");
        let shape = SHAPES
            .iter()
            .position(|&(cap, _)| (1..=cap).contains(&ways));
        let Some(shape) = shape else {
            panic!("associativity must be in 1..=24, got {ways}");
        };
        SetAssoc {
            index: SetIndex::new(sets),
            ways,
            shape,
            words: Vec::new(),
            base: 0,
            live: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns `true` once a tag wider than 32 bits has been filled.
    pub fn is_wide(&self) -> bool {
        SHAPES[self.shape].1
    }

    /// Returns the host bytes the table holds: 0 before the first fill.
    pub fn footprint(&self) -> usize {
        self.words.len() * 8
    }

    fn table_len(&self) -> usize {
        let (cap, wide) = SHAPES[self.shape];
        self.index.sets as usize * block_words(cap, wide)
    }

    /// Allocates the zeroed table and aligns set 0.
    #[cold]
    fn allocate(&mut self) {
        let line = BLOCK_ALIGN / 8;
        self.words = vec![0; self.table_len() + line - 1];
        self.base = self.words.as_ptr().align_offset(BLOCK_ALIGN).min(line - 1);
    }

    /// Returns the blocks: none before the first fill.
    #[inline(always)]
    fn blocks<const N: usize>(&self) -> &[[u64; N]] {
        self.words[self.base..].as_chunks::<N>().0
    }

    #[inline(always)]
    fn blocks_mut<const N: usize>(&mut self) -> &mut [[u64; N]] {
        self.words[self.base..].as_chunks_mut::<N>().0
    }

    /// Returns `item`'s set and tag.
    #[inline(always)]
    fn locate(&self, item: u64) -> (usize, u64) {
        let (set, q) = self.index.split(item);
        debug_assert!(q < u64::MAX, "item {item:#x} has no tag");
        (set, q + 1)
    }

    /// Returns `item`'s set and, if resident, its way.
    #[inline(always)]
    fn find_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &self,
        item: u64,
    ) -> (usize, Option<usize>) {
        let (set, tag) = self.locate(item);
        let way = self
            .blocks::<N>()
            .get(set)
            .and_then(|b| Block::<N, CAP, WIDE>::find(b, tag));
        (set, way)
    }

    /// Returns the slot (`set * ways + way`) holding `item`, if resident.
    /// Slots keep their numbers across a widening.
    #[inline]
    pub fn slot_of(&self, item: u64) -> Option<usize> {
        let (set, way) = by_shape!(self.find_as(item));
        way.map(|way| set * self.ways + way)
    }

    /// Returns `true` if `item` is resident, without touching LRU or stats.
    pub fn peek(&self, item: u64) -> bool {
        by_shape!(self.find_as(item)).1.is_some()
    }

    /// Looks up `item`; on a hit, makes it most recently used and marks it
    /// dirty if `mark_dirty`. Counts a hit or a miss. Returns `true` on a
    /// hit.
    pub fn access(&mut self, item: u64, mark_dirty: bool) -> bool {
        let hit = by_shape!(self.access_as(item, mark_dirty));
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    #[inline(always)]
    fn access_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        item: u64,
        dirty: bool,
    ) -> bool {
        let Some((b, way)) = self.entry::<N, CAP, WIDE>(item) else {
            return false;
        };
        Block::<N, CAP, WIDE>::promote(b, way, dirty);
        true
    }

    /// Returns the block and way holding `item`, if resident.
    #[inline(always)]
    fn entry<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        item: u64,
    ) -> Option<(&mut [u64; N], usize)> {
        let (set, tag) = self.locate(item);
        let b = self.blocks_mut::<N>().get_mut(set)?;
        let way = Block::<N, CAP, WIDE>::find(b, tag)?;
        Some((b, way))
    }

    /// Repeats a hit on `item` known to sit in `slot` (from
    /// [`SetAssoc::slot_of`]): refreshes LRU and counts the hit exactly
    /// as `access(item, false)` would. Returns `false`, changing nothing,
    /// if `slot` does not hold `item`.
    #[inline]
    pub fn touch(&mut self, slot: usize, item: u64) -> bool {
        let hit = by_shape!(self.touch_as(slot, item));
        self.hits += u64::from(hit);
        hit
    }

    #[inline(always)]
    fn touch_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        slot: usize,
        item: u64,
    ) -> bool {
        let (set, tag) = self.locate(item);
        let ways = self.ways;
        let Some(way) = slot.checked_sub(set * ways).filter(|&w| w < ways) else {
            return false;
        };
        match self.blocks_mut::<N>().get_mut(set) {
            Some(b) if Block::<N, CAP, WIDE>::tag(b, way) == tag => {
                Block::<N, CAP, WIDE>::promote(b, way, false);
                true
            }
            _ => false,
        }
    }

    /// Inserts `item` (refreshing it and ORing in `dirty` if already
    /// resident), returning the victim if the set was full.
    pub fn fill(&mut self, item: u64, dirty: bool) -> Option<Evicted> {
        let (set, tag) = self.locate(item);
        if !self.is_wide() && tag > u64::from(u32::MAX) {
            self.widen();
        }
        if self.words.is_empty() {
            self.allocate();
        }
        by_shape!(self.fill_as(set, tag, dirty))
    }

    #[inline(always)]
    fn fill_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        set: usize,
        tag: u64,
        dirty: bool,
    ) -> Option<Evicted> {
        let (sets, ways) = (self.index.sets, self.ways);
        let b = &mut self.blocks_mut::<N>()[set];
        if let Some(way) = Block::<N, CAP, WIDE>::find(b, tag) {
            Block::<N, CAP, WIDE>::promote(b, way, dirty);
            return None;
        }
        // Unused ways past `ways` are never occupied, so the first empty
        // way is a free one only if it lies below `ways`. A full set's
        // rank bytes are 1..=ways and its victim holds `ways`.
        let free = Block::<N, CAP, WIDE>::first_ranked(b, 0, 0).filter(|&w| w < ways);
        let way = free
            .or_else(|| Block::<N, CAP, WIDE>::first_ranked(b, ways as u8, ways as u8))
            .unwrap_or_default();
        let evicted = free.is_none().then(|| Evicted {
            item: (Block::<N, CAP, WIDE>::tag(b, way) - 1) * sets + set as u64,
            dirty: Block::<N, CAP, WIDE>::is_dirty(b, way),
        });
        let occupied = |b: &[u64; N], k| Block::<N, CAP, WIDE>::ranked_from(b, k, 1);
        Block::<N, CAP, WIDE>::update_ranks(b, occupied, 1, way, 1);
        Block::<N, CAP, WIDE>::set_tag(b, way, tag);
        Block::<N, CAP, WIDE>::set_dirty(b, way, dirty);
        self.live += usize::from(free.is_some());
        evicted
    }

    /// Re-lays out every set with `u64` tags, keeping slots, ranks and
    /// dirty bits.
    #[cold]
    fn widen(&mut self) {
        let narrow = std::mem::take(&mut self.words);
        let narrow_base = self.base;
        self.shape += 2;
        if !narrow.is_empty() {
            self.allocate();
            by_shape!(self.relayout(&narrow[narrow_base..]));
        }
    }

    /// Copies every set of `narrow`, the table's blocks before widening,
    /// into this table's wide blocks.
    fn relayout<const N: usize, const CAP: usize, const WIDE: bool>(&mut self, narrow: &[u64]) {
        let sets = self.index.sets as usize;
        let from = narrow.chunks(block_words(CAP, false)).take(sets);
        for (to, from) in self.blocks_mut::<N>().iter_mut().zip(from) {
            // The ranks and the dirty mask sit in the same words in both
            // layouts, ahead of the tags; an empty set is all zero.
            let meta = Block::<N, CAP, WIDE>::TAGS_AT;
            if from[..meta].iter().all(|&w| w == 0) {
                continue;
            }
            to[..meta].copy_from_slice(&from[..meta]);
            for way in 0..CAP {
                let tag = from[meta + way / 2] >> (32 * (way % 2)) & u64::from(u32::MAX);
                Block::<N, CAP, WIDE>::set_tag(to, way, tag);
            }
        }
    }

    /// Removes `item` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, item: u64) -> Option<bool> {
        if self.live == 0 {
            return None;
        }
        let dirty = by_shape!(self.invalidate_as(item))?;
        self.live -= 1;
        Some(dirty)
    }

    #[inline(always)]
    fn invalidate_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        item: u64,
    ) -> Option<bool> {
        let (b, way) = self.entry::<N, CAP, WIDE>(item)?;
        let dirty = Block::<N, CAP, WIDE>::is_dirty(b, way);
        // The ranks older than `way`'s grow one more recent.
        let own = Block::<N, CAP, WIDE>::rank(b, way);
        let older = |b: &[u64; N], k| Block::<N, CAP, WIDE>::ranked_from(b, k, own + 1);
        Block::<N, CAP, WIDE>::update_ranks(b, older, u64::MAX, way, 0);
        Block::<N, CAP, WIDE>::set_tag(b, way, 0);
        Block::<N, CAP, WIDE>::set_dirty(b, way, false);
        Some(dirty)
    }

    /// Cleans `item` if resident (write-back without invalidation),
    /// returning whether it was dirty.
    pub fn clean(&mut self, item: u64) -> Option<bool> {
        if self.live == 0 {
            return None;
        }
        by_shape!(self.clean_as(item))
    }

    #[inline(always)]
    fn clean_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        item: u64,
    ) -> Option<bool> {
        let (b, way) = self.entry::<N, CAP, WIDE>(item)?;
        let dirty = Block::<N, CAP, WIDE>::is_dirty(b, way);
        Block::<N, CAP, WIDE>::set_dirty(b, way, false);
        Some(dirty)
    }

    /// Empties the table, returning the dirty items in slot order (not
    /// sorted; callers that need a canonical order sort them). Only the
    /// sets that held something are written.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        if self.live == 0 {
            return dirty;
        }
        by_shape!(self.drain_as(&mut dirty));
        self.live = 0;
        dirty
    }

    fn drain_as<const N: usize, const CAP: usize, const WIDE: bool>(
        &mut self,
        dirty: &mut Vec<u64>,
    ) {
        let (sets, ways) = (self.index.sets, self.ways);
        for (set, b) in (0..sets).zip(self.blocks_mut::<N>()) {
            if Block::<N, CAP, WIDE>::is_vacant(b) {
                continue;
            }
            for way in 0..ways {
                if Block::<N, CAP, WIDE>::is_dirty(b, way) {
                    dirty.push((Block::<N, CAP, WIDE>::tag(b, way) - 1) * sets + set);
                }
            }
            b.fill(0);
        }
    }

    /// Returns the hit/miss counters observed so far.
    pub fn counters(&self) -> HitMiss {
        HitMiss::of(self.hits, self.misses)
    }

    /// Returns the number of resident items.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if nothing is resident. O(1): a counter, not a scan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Clears hit/miss statistics without disturbing resident items.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Clears contents and statistics, drops the table and returns to the
    /// initial tag width: a reset table holds no host memory until it is
    /// filled again.
    pub fn reset(&mut self) {
        *self = SetAssoc::new(self.index.sets, self.ways);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Set counts of the G1 and G2 hierarchies (L1 and L2 are 64 and 1024
    /// on both; the L3s are 40 000 and 49 152; the AIT has 256 and, at
    /// 12 MB, 192), plus the single-set edge.
    const SET_COUNTS: [u64; 7] = [1, 64, 192, 256, 1024, 40_000, 49_152];

    fn check_split(n: u64, d: u64) {
        assert_eq!(FastMod::new(d).rem(n), n % d, "{n} % {d}");
        let (set, q) = SetIndex::new(d).split(n);
        assert_eq!((set as u64, q), (n % d, n / d), "{n} / {d}");
    }

    #[test]
    fn set_index_reduction_is_exact_on_edge_lines() {
        for d in SET_COUNTS.into_iter().chain([3, 1 << 40, u64::MAX]) {
            for n in [0, d - 1, d, u64::MAX / 64, u64::MAX - 1, u64::MAX] {
                check_split(n, d);
            }
        }
    }

    proptest! {
        #[test]
        fn set_index_reduction_is_exact_on_random_lines(
            n in any::<u64>(),
            d in 1u64..u64::MAX,
        ) {
            for d in SET_COUNTS.into_iter().chain([d, d >> (d % 64)]) {
                check_split(n, d.max(1));
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssoc::new(16, 4);
        assert!(!c.access(0, false));
        c.fill(0, false);
        assert!(c.access(0, false));
        assert_eq!(c.counters(), HitMiss::of(1, 1));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = SetAssoc::new(16, 4);
        c.access(0, false);
        c.fill(0, false);
        c.access(0, false);
        c.reset_stats();
        assert_eq!(c.counters(), HitMiss::new());
        assert!(c.peek(0), "resident items survive a stats reset");
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets x 2 ways: items 0, 2, 4 collide in set 0.
        let mut c = SetAssoc::new(2, 2);
        c.fill(0, false);
        c.fill(2, false);
        c.access(0, false); // refresh item 0
        let ev = c.fill(4, false).expect("set overflow");
        assert_eq!(ev.item, 2, "LRU victim");
        assert!(!ev.dirty);
    }

    #[test]
    fn dirty_bit_propagates_to_eviction() {
        let mut c = SetAssoc::new(2, 1);
        c.fill(0, false);
        c.access(0, true); // store
        let ev = c.fill(2, false).expect("evicts item 0");
        assert_eq!(
            ev,
            Evicted {
                item: 0,
                dirty: true
            }
        );
    }

    #[test]
    fn refill_merges_dirtiness() {
        let mut c = SetAssoc::new(16, 4);
        c.fill(0, true);
        assert!(c.fill(0, false).is_none());
        assert_eq!(c.invalidate(0), Some(true), "dirty survives a clean refill");
    }

    #[test]
    fn clean_clears_dirty_but_keeps_line() {
        let mut c = SetAssoc::new(16, 4);
        c.fill(0, true);
        assert_eq!(c.clean(0), Some(true));
        assert_eq!(c.clean(0), Some(false));
        assert!(c.peek(0));
    }

    #[test]
    fn invalidate_missing_line_is_none() {
        let mut c = SetAssoc::new(16, 4);
        assert_eq!(c.invalidate(0), None);
        c.fill(1, false);
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn victim_address_reconstruction() {
        // Non-power-of-two and power-of-two set counts, narrow and wide
        // tags: the victim's item comes back exactly from set and tag.
        for sets in [512, 40_000] {
            for a in [0xABC, sets * (1 << 33) + 17] {
                let mut c = SetAssoc::new(sets, 2);
                c.fill(a, true);
                c.fill(a + sets, false);
                let ev = c.fill(a + 2 * sets, false).expect("overflow");
                assert_eq!(
                    ev,
                    Evicted {
                        item: a,
                        dirty: true
                    }
                );
            }
        }
    }

    #[test]
    fn drain_dirty_returns_only_dirty() {
        let mut c = SetAssoc::new(16, 4);
        c.fill(0, true);
        c.fill(1, false);
        c.fill(2, true);
        let mut d = c.drain_dirty();
        d.sort();
        assert_eq!(d, vec![0, 2]);
        assert!(c.is_empty());
        assert!(!c.peek(1));
    }

    #[test]
    fn peek_does_not_disturb_stats_or_lru() {
        let mut c = SetAssoc::new(2, 1);
        c.fill(0, false);
        assert!(c.peek(0));
        assert!(!c.peek(1));
        assert_eq!(c.counters(), HitMiss::new());
    }

    #[test]
    fn live_counter_tracks_fills_evictions_and_invalidations() {
        // Exercise every transition that touches occupancy and check that
        // the O(1) counter agrees with an item-by-item census throughout.
        let mut c = SetAssoc::new(4, 2);
        let census = |c: &SetAssoc| (0..64u64).filter(|&i| c.peek(i)).count();
        assert!(c.is_empty());
        for i in 0..16u64 {
            c.fill(i, i % 3 == 0);
            assert_eq!(c.len(), census(&c), "after fill {i}");
        }
        assert_eq!(c.len(), 8, "evictions keep occupancy at capacity");
        c.fill(0, false); // conflict fill: evicts item 8, takes its slot
        assert_eq!(c.len(), census(&c));
        c.fill(0, true); // refill of a resident item: no change
        assert_eq!(c.len(), census(&c));
        c.invalidate(0);
        for i in 8..16u64 {
            c.invalidate(i);
            assert_eq!(c.len(), census(&c), "after invalidate {i}");
        }
        assert!(c.is_empty(), "all residents invalidated");
        c.fill(0, true);
        c.drain_dirty();
        assert!(c.is_empty());
        c.fill(1, true);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(census(&c), 0);
    }

    #[test]
    fn capacity_behaviour_working_set_sweep() {
        // A working set within capacity hits steadily; beyond capacity with
        // LRU and a sequential scan, it thrashes.
        let mut c = SetAssoc::new(8, 8);
        for _ in 0..3 {
            for i in 0..32u64 {
                if !c.access(i, false) {
                    c.fill(i, false);
                }
            }
        }
        assert_eq!(c.counters().hits, 64, "two warm passes fully hit");
        let mut c = SetAssoc::new(8, 8);
        for _ in 0..3 {
            for i in 0..128u64 {
                if !c.access(i, false) {
                    c.fill(i, false);
                }
            }
        }
        let hm = c.counters();
        assert_eq!(
            hm.hits, 0,
            "sequential over-capacity scan never hits with LRU"
        );
        assert_eq!(hm.misses, 384);
    }

    #[test]
    fn refill_semantics_after_eviction_churn() {
        // An LRU victim identified by rank, not slot position: churn a set
        // through evictions and check residency plus victim identity.
        let mut c = SetAssoc::new(1, 2);
        c.fill(0, false);
        c.fill(1, false);
        let ev = c.fill(2, true).expect("evicts item 0 (LRU)");
        assert_eq!(ev.item, 0);
        c.access(1, false); // refresh 1 past 2
        let ev = c.fill(3, false).expect("now 2 is LRU");
        assert_eq!(
            ev,
            Evicted {
                item: 2,
                dirty: true
            }
        );
        assert!(c.peek(1) && c.peek(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn widening_keeps_slots_ranks_and_dirty_bits() {
        let (sets, ways) = (64, 8);
        let mut c = SetAssoc::new(sets, ways);
        for k in 0..6 {
            c.fill(5 + k * sets, k % 2 == 0);
        }
        c.access(5, false); // item 5 becomes most recent
        let slots: Vec<_> = (0..6).map(|k| c.slot_of(5 + k * sets)).collect();
        assert!(!c.is_wide());
        let wide = 5 + (1 << 32) * sets;
        assert!(!c.peek(wide), "a narrow table misses a wide tag");
        assert!(!c.is_wide(), "and a lookup does not widen it");
        assert_eq!(c.fill(wide, false), None);
        assert!(c.is_wide());
        let after: Vec<_> = (0..6).map(|k| c.slot_of(5 + k * sets)).collect();
        assert_eq!(slots, after, "slots survive the widening");
        let slot = slots[0].expect("resident");
        assert!(c.touch(slot, 5));
        // Ranks survived: the two remaining free ways fill, then victims
        // leave oldest first (items 5 + sets, 5 + 2 sets, ...), with
        // their dirty bits.
        c.fill(5 + 6 * sets, false);
        for k in 1..6 {
            let ev = c.fill(5 + (7 + k) * sets, false).expect("full set");
            assert_eq!(
                ev,
                Evicted {
                    item: 5 + k * sets,
                    dirty: k % 2 == 0
                }
            );
        }
        c.reset();
        assert!(!c.is_wide() && c.footprint() == 0, "reset is narrow again");
    }

    #[test]
    fn narrow_blocks_are_one_host_line_up_to_twelve_ways() {
        let bytes: Vec<usize> = SHAPES
            .iter()
            .map(|&(cap, wide)| block_words(cap, wide) * 8)
            .collect();
        assert_eq!(bytes, [64, 64, 128, 128, 192, 192, 256]);
        for ways in [1, 8, 11, 12] {
            assert!(
                !SetAssoc::new(64, ways).is_wide(),
                "{ways} ways start narrow"
            );
        }
        for ways in [13, 16, 20, 24] {
            assert!(SetAssoc::new(64, ways).is_wide(), "{ways} ways start wide");
        }
        // The G1 and G2 L3 tables: 2.56 MB and 3.1 MB once filled.
        for (sets, ways) in [(40_000, 11), (49_152, 12)] {
            let mut c = SetAssoc::new(sets, ways);
            assert_eq!(c.footprint(), 0, "no table before the first fill");
            c.fill(0, false);
            assert_eq!(c.footprint(), sets as usize * 64 + 56);
            let clone = c.clone();
            for t in [&c, &clone] {
                assert_eq!(t.words[t.base..].as_ptr().align_offset(64), 0);
            }
            assert!(clone.peek(0));
        }
    }
}
