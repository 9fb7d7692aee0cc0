//! Sparse byte-addressable backing store.
//!
//! Experiments sweep working sets from 4 KB to 1 GB inside a much larger
//! simulated physical address space, so the functional image is stored
//! sparsely: an [`AddrMap`] from 64 KB chunk numbers to zeroed chunk
//! buffers, each with a mask of the 4 KB pages written in it. Unwritten
//! memory reads as zero, matching freshly-allocated DAX pages.
//!
//! Pages stay the unit of the store's contents: a page is resident once
//! any byte of it is written, and [`SparseStore::sorted_pages`] and
//! [`SparseStore::install_page`] move whole pages, so snapshot and
//! crash-image encodings do not depend on the chunk size. Chunks only
//! make the index 16 times smaller and the buffers 16 times fewer.

use simbase::{Addr, AddrMap};

/// Size of one page, the unit of residency and of snapshots.
const PAGE_BYTES: u64 = 4096;

/// Pages per chunk, one bit each in [`Chunk::written`].
const CHUNK_PAGES: u64 = 16;

/// Size of one allocation unit.
const CHUNK_BYTES: u64 = PAGE_BYTES * CHUNK_PAGES;

/// One allocation unit: 16 pages and which of them have been written.
/// Unwritten pages of a chunk are zero.
#[derive(Debug, Clone)]
struct Chunk {
    written: u16,
    bytes: Box<[u8]>,
}

/// A sparse, byte-addressable memory image.
///
/// Used both as the persistent media image (the bytes that survive a crash)
/// and as the volatile DRAM image in the machine model.
#[derive(Debug, Default, Clone)]
pub struct SparseStore {
    /// Chunk number → index into `chunks`. Whole-index reads go through
    /// `AddrMap`'s chunk-number-ordered accessors, so snapshot encodings
    /// are identical across processes.
    index: AddrMap<usize>,
    /// Chunks, in first-touch order. Never iterated directly: everything
    /// order-sensitive goes through `index`.
    chunks: Vec<Chunk>,
    /// Written pages over all chunks.
    pages: usize,
}

impl SparseStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns chunk `number`, allocating a zeroed one if absent.
    #[inline]
    fn chunk_mut(&mut self, number: u64) -> &mut Chunk {
        let i = *self.index.get_or_insert_with(number, || {
            self.chunks.push(Chunk {
                written: 0,
                bytes: vec![0; CHUNK_BYTES as usize].into_boxed_slice(),
            });
            self.chunks.len() - 1
        });
        &mut self.chunks[i]
    }

    /// Calls `f(chunk number, offset, piece)` for the pieces `len` bytes
    /// from `addr` split into at chunk boundaries, `piece` being the
    /// range of `0..len` that falls in the chunk.
    #[inline]
    fn split(addr: Addr, len: usize, mut f: impl FnMut(u64, usize, std::ops::Range<usize>)) {
        let mut done = 0;
        while done < len {
            let pos = addr.0 + done as u64;
            let offset = (pos % CHUNK_BYTES) as usize;
            let n = (len - done).min(CHUNK_BYTES as usize - offset);
            f(pos / CHUNK_BYTES, offset, done..done + n);
            done += n;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        Self::split(addr, buf.len(), |number, offset, piece| {
            let out = &mut buf[piece];
            match self.index.get(number) {
                Some(&i) => out.copy_from_slice(&self.chunks[i].bytes[offset..offset + out.len()]),
                None => out.fill(0),
            }
        });
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: Addr, buf: &[u8]) {
        Self::split(addr, buf.len(), |number, offset, piece| {
            let data = &buf[piece];
            let first = offset as u64 / PAGE_BYTES;
            let last = (offset + data.len() - 1) as u64 / PAGE_BYTES;
            let pages = (u16::MAX >> (CHUNK_PAGES - 1 - last + first)) << first;
            let chunk = self.chunk_mut(number);
            chunk.bytes[offset..offset + data.len()].copy_from_slice(data);
            let fresh = pages & !chunk.written;
            if fresh != 0 {
                chunk.written |= fresh;
                self.pages += fresh.count_ones() as usize;
            }
        });
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Returns the number of resident (written) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages
    }

    /// Size in bytes of one page, for page-level snapshots.
    pub const PAGE_BYTES: u64 = PAGE_BYTES;

    /// Returns `(page_number, contents)` for every resident page, sorted
    /// by page number so snapshot encodings are deterministic.
    pub fn sorted_pages(&self) -> Vec<(u64, &[u8])> {
        let mut pages = Vec::with_capacity(self.pages);
        for (number, &i) in self.index.sorted_entries() {
            let chunk = &self.chunks[i];
            let mut written = chunk.written;
            while written != 0 {
                let page = written.trailing_zeros() as usize;
                written &= written - 1;
                let bytes = &chunk.bytes[page * PAGE_BYTES as usize..][..PAGE_BYTES as usize];
                pages.push((number * CHUNK_PAGES + page as u64, bytes));
            }
        }
        pages
    }

    /// Installs a full page at `page_number` (inverse of
    /// [`SparseStore::sorted_pages`]).
    ///
    /// # Panics
    ///
    /// Panics if `contents` is not exactly one page long.
    pub fn install_page(&mut self, page_number: u64, contents: &[u8]) {
        assert_eq!(
            contents.len() as u64,
            PAGE_BYTES,
            "a page is exactly {PAGE_BYTES} bytes"
        );
        let page = (page_number % CHUNK_PAGES) as usize;
        let chunk = self.chunk_mut(page_number / CHUNK_PAGES);
        chunk.bytes[page * PAGE_BYTES as usize..][..PAGE_BYTES as usize].copy_from_slice(contents);
        let fresh = chunk.written & 1 << page == 0;
        chunk.written |= 1 << page;
        self.pages += usize::from(fresh);
    }

    /// Drops all contents, returning the store to all-zero.
    pub fn clear(&mut self) {
        self.index.clear();
        self.chunks.clear();
        self.pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = SparseStore::new();
        let mut buf = [0xAAu8; 16];
        s.read(Addr(12345), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (0..=255).collect();
        s.write(Addr(100), &data);
        let mut buf = vec![0u8; 256];
        s.read(Addr(100), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn writes_crossing_page_boundaries() {
        let mut s = SparseStore::new();
        let data = [0x5Au8; 64];
        // Straddles the boundary between page 0 and page 1.
        s.write(Addr(PAGE_BYTES - 32), &data);
        let mut buf = [0u8; 64];
        s.read(Addr(PAGE_BYTES - 32), &mut buf);
        assert_eq!(buf, data);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn u64_round_trip() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(Addr(8)), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(Addr(0)), 0);
    }

    #[test]
    fn u64_crossing_page_boundary() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(PAGE_BYTES - 4), 0x0123_4567_89AB_CDEF);
        assert_eq!(s.read_u64(Addr(PAGE_BYTES - 4)), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn overlapping_writes_take_latest() {
        let mut s = SparseStore::new();
        s.write(Addr(0), &[1u8; 8]);
        s.write(Addr(4), &[2u8; 8]);
        let mut buf = [0u8; 12];
        s.read(Addr(0), &mut buf);
        assert_eq!(&buf[..4], &[1, 1, 1, 1]);
        assert_eq!(&buf[4..], &[2u8; 8]);
    }

    #[test]
    fn clear_resets_contents() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(0), 7);
        s.clear();
        assert_eq!(s.read_u64(Addr(0)), 0);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn page_snapshot_round_trips_and_is_sorted() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(3 * PAGE_BYTES), 3);
        s.write_u64(Addr(0), 1);
        s.write_u64(Addr(7 * PAGE_BYTES + 100), 7);
        let pages = s.sorted_pages();
        let ids: Vec<u64> = pages.iter().map(|&(n, _)| n).collect();
        assert_eq!(ids, vec![0, 3, 7]);
        let mut restored = SparseStore::new();
        for (n, contents) in pages {
            restored.install_page(n, contents);
        }
        assert_eq!(restored.read_u64(Addr(0)), 1);
        assert_eq!(restored.read_u64(Addr(3 * PAGE_BYTES)), 3);
        assert_eq!(restored.read_u64(Addr(7 * PAGE_BYTES + 100)), 7);
        assert_eq!(restored.resident_pages(), 3);
    }

    #[test]
    fn sparse_distant_addresses() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(0), 1);
        s.write_u64(Addr(1 << 40), 2);
        assert_eq!(s.read_u64(Addr(0)), 1);
        assert_eq!(s.read_u64(Addr(1 << 40)), 2);
        assert_eq!(s.resident_pages(), 2);
    }
}
