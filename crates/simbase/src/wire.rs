//! A tiny, versionless binary codec for checkpoint payloads.
//!
//! Machine snapshots and experiment checkpoints must survive a `kill -9`
//! and be re-read by a later process, so they are serialized to disk. The
//! workspace is dependency-free by policy (no serde), and the state being
//! saved is simple — integers, byte blocks, and repeated records — so a
//! little-endian length-prefixed format is all that is needed.
//!
//! [`WireWriter`] appends fields to a growing buffer; [`WireReader`]
//! consumes them in the same order. Readers are *checked*: reading past
//! the end or decoding a malformed length yields [`WireError`] instead of
//! panicking, because checkpoint files can be torn or truncated by the
//! very crashes the harness is built to tolerate.

use std::fmt;

/// A malformed or truncated wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes requested by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A length prefix exceeds any plausible payload size.
    ImplausibleLength(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated wire buffer: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::ImplausibleLength(n) => {
                write!(f, "implausible wire length prefix: {n}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on a single length-prefixed field (1 GiB). A prefix beyond
/// this is a torn file, not a real payload.
const MAX_FIELD_BYTES: u64 = 1 << 30;

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte block.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Returns the encoded buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Consumes fields from a byte buffer in write order.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(WireError::Truncated {
                needed: n,
                remaining,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte block.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u64()?;
        if n > MAX_FIELD_BYTES {
            return Err(WireError::ImplausibleLength(n));
        }
        self.take(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string (lossy on invalid UTF-8).
    pub fn get_string(&mut self) -> Result<String, WireError> {
        Ok(String::from_utf8_lossy(self.get_bytes()?).into_owned())
    }

    /// Returns the number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        w.put_u32(7);
        w.put_u8(3);
        w.put_f64(-0.5);
        w.put_bytes(&[1, 2, 3]);
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.get_string().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_reads_are_errors_not_panics() {
        let mut w = WireWriter::new();
        w.put_u64(9);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..4]);
        assert_eq!(
            r.get_u64(),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 4
            })
        );
    }

    #[test]
    fn implausible_length_prefix_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_bytes(), Err(WireError::ImplausibleLength(u64::MAX)));
    }

    #[test]
    fn torn_byte_block_reports_truncation() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xAB; 32]);
        let mut bytes = w.into_bytes();
        bytes.truncate(16); // torn mid-payload
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::Truncated { .. })));
    }
}
