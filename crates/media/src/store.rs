//! Sparse byte-addressable backing store.
//!
//! Experiments sweep working sets from 4 KB to 1 GB inside a much larger
//! simulated physical address space, so the functional image is stored
//! sparsely: a hash map from 4 KB-aligned page numbers to owned page
//! buffers. Unwritten memory reads as zero, matching freshly-allocated DAX
//! pages.

use simbase::{Addr, AddrMap};

/// Size of one allocation unit in the sparse store.
const PAGE_BYTES: u64 = 4096;

/// A sparse, byte-addressable memory image.
///
/// Used both as the persistent media image (the bytes that survive a crash)
/// and as the volatile DRAM image in the machine model.
///
/// Page buffers live in an arena (`slabs`) addressed through an
/// [`AddrMap`] index, so finding a page is one hash probe.
#[derive(Debug, Default, Clone)]
pub struct SparseStore {
    /// Page number → arena slot. Whole-index reads go through
    /// `AddrMap`'s page-number-ordered accessors, so snapshot encodings
    /// are identical across processes.
    index: AddrMap<usize>,
    /// Page buffers, in first-touch order. Never iterated directly:
    /// everything order-sensitive goes through `index`.
    slabs: Vec<Box<[u8; PAGE_BYTES as usize]>>,
}

impl SparseStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the arena slot of `page`, allocating a zeroed page if
    /// absent.
    #[inline]
    fn slot_of_mut(&mut self, page: u64) -> usize {
        *self.index.get_or_insert_with(page, || {
            self.slabs.push(Box::new([0u8; PAGE_BYTES as usize]));
            self.slabs.len() - 1
        })
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut remaining: &mut [u8] = buf;
        while !remaining.is_empty() {
            let page = pos / PAGE_BYTES;
            let offset = (pos % PAGE_BYTES) as usize;
            let chunk = remaining.len().min(PAGE_BYTES as usize - offset);
            let (head, tail) = remaining.split_at_mut(chunk);
            match self.index.get(page) {
                Some(&s) => head.copy_from_slice(&self.slabs[s][offset..offset + chunk]),
                None => head.fill(0),
            }
            remaining = tail;
            pos += chunk as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: Addr, buf: &[u8]) {
        let mut pos = addr.0;
        let mut remaining = buf;
        while !remaining.is_empty() {
            let page = pos / PAGE_BYTES;
            let offset = (pos % PAGE_BYTES) as usize;
            let chunk = remaining.len().min(PAGE_BYTES as usize - offset);
            let slot = self.slot_of_mut(page);
            self.slabs[slot][offset..offset + chunk].copy_from_slice(&remaining[..chunk]);
            remaining = &remaining[chunk..];
            pos += chunk as u64;
        }
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

    /// Returns the number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Size in bytes of one allocation unit, for page-level snapshots.
    pub const PAGE_BYTES: u64 = PAGE_BYTES;

    /// Returns `(page_number, contents)` for every resident page, sorted
    /// by page number so snapshot encodings are deterministic.
    pub fn sorted_pages(&self) -> Vec<(u64, &[u8])> {
        self.index
            .sorted_entries()
            .into_iter()
            .map(|(n, &s)| (n, self.slabs[s].as_slice()))
            .collect()
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
        let slot = self.slot_of_mut(page_number);
        self.slabs[slot].copy_from_slice(contents);
    }

    /// Drops all contents, returning the store to all-zero.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slabs.clear();
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
