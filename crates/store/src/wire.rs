//! Hand-rolled little-endian wire primitives.
//!
//! The store deliberately avoids external serialization dependencies (the
//! workspace builds offline; see `vendor/README.md`): every artifact is
//! encoded through [`Writer`] (over any `std::io::Write`) and decoded through
//! [`SliceReader`] (over in-memory bytes: a whole artifact, or one section
//! payload that [`SectionStream`](crate::SectionStream) read). All
//! multi-byte integers are little-endian; strings are UTF-8 with a `u32`
//! length prefix; bulk columns are length-prefixed element runs.

use std::io::Write;

use crate::error::{Result, StoreError};

/// Writes wire primitives to an underlying `std::io::Write`.
#[derive(Debug)]
pub struct Writer<W: Write> {
    inner: W,
}

impl<W: Write> Writer<W> {
    /// Wraps an output stream.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// Unwraps the underlying stream.
    pub fn into_inner(self) -> W {
        self.inner
    }

    /// Writes raw bytes verbatim.
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.write_all(bytes)?;
        Ok(())
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) -> Result<()> {
        self.write_raw(&[v])
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, v: u16) -> Result<()> {
        self.write_raw(&v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) -> Result<()> {
        self.write_raw(&v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) -> Result<()> {
        self.write_raw(&v.to_le_bytes())
    }

    /// Writes a little-endian `i64`.
    pub fn write_i64(&mut self, v: i64) -> Result<()> {
        self.write_raw(&v.to_le_bytes())
    }

    /// Writes an `f64` as its little-endian IEEE-754 bit pattern. The exact
    /// bits round-trip, including NaN payloads and signed zeros.
    pub fn write_f64(&mut self, v: f64) -> Result<()> {
        self.write_u64(v.to_bits())
    }

    /// Writes a `usize` as a `u64` (the on-disk format is width-independent).
    pub fn write_len(&mut self, v: usize) -> Result<()> {
        self.write_u64(v as u64)
    }

    /// Writes a length-prefixed UTF-8 string (`u32` length + bytes).
    pub fn write_str(&mut self, s: &str) -> Result<()> {
        let len = u32::try_from(s.len())
            .map_err(|_| StoreError::corrupt(format!("string of {} bytes too long", s.len())))?;
        self.write_u32(len)?;
        self.write_raw(s.as_bytes())
    }
}

/// Zero-copy reads over a borrowed byte slice — the workspace's only field
/// reader.
///
/// Strings and byte runs are borrowed from the slice, so a decoder can walk
/// an entire artifact without allocating; a length prefix that claims more
/// bytes than the slice holds is a typed [`StoreError::Truncated`], never an
/// allocation.
#[derive(Debug)]
pub struct SliceReader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> SliceReader<'a> {
    /// Wraps a byte slice, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current offset from the start of the slice.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Borrows the next `n` bytes and advances past them.
    pub fn read_slice(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(StoreError::Truncated { context })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.read_slice(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self, context: &'static str) -> Result<u16> {
        let bytes = self.read_slice(2, context)?;
        Ok(u16::from_le_bytes(bytes.try_into().expect("2-byte slice")))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, context: &'static str) -> Result<u32> {
        let bytes = self.read_slice(4, context)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, context: &'static str) -> Result<u64> {
        let bytes = self.read_slice(8, context)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `i64`.
    pub fn read_i64(&mut self, context: &'static str) -> Result<i64> {
        Ok(self.read_u64(context)? as i64)
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub fn read_f64(&mut self, context: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64(context)?))
    }

    /// Reads a `u64` length and narrows it to `usize`.
    pub fn read_len(&mut self, context: &'static str) -> Result<usize> {
        let v = self.read_u64(context)?;
        usize::try_from(v)
            .map_err(|_| StoreError::corrupt(format!("{context}: length {v} exceeds usize")))
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed `&str`.
    pub fn read_str(&mut self, context: &'static str) -> Result<&'a str> {
        let len = self.read_u32(context)? as usize;
        let bytes = self.read_slice(len, context)?;
        std::str::from_utf8(bytes)
            .map_err(|_| StoreError::corrupt(format!("{context}: string is not valid UTF-8")))
    }

    /// Errors with [`StoreError::Corrupt`] unless every byte was consumed —
    /// the canonical-encoding guard: no payload may carry trailing bytes.
    pub fn expect_consumed(&self, context: &'static str) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::corrupt(format!(
                "{context}: {} trailing bytes in payload",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(write: impl FnOnce(&mut Writer<Vec<u8>>)) -> Vec<u8> {
        let mut w = Writer::new(Vec::new());
        write(&mut w);
        w.into_inner()
    }

    #[test]
    fn scalars_round_trip() {
        let buf = written(|w| {
            w.write_u8(0xAB).unwrap();
            w.write_u16(0xBEEF).unwrap();
            w.write_u32(0xDEAD_BEEF).unwrap();
            w.write_u64(u64::MAX - 1).unwrap();
            w.write_i64(-42).unwrap();
            w.write_f64(-0.0).unwrap();
            w.write_len(7).unwrap();
        });
        let mut r = SliceReader::new(&buf);
        assert_eq!(r.read_u8("t").unwrap(), 0xAB);
        assert_eq!(r.read_u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.read_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64("t").unwrap(), u64::MAX - 1);
        assert_eq!(r.read_i64("t").unwrap(), -42);
        assert_eq!(r.read_f64("t").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_len("t").unwrap(), 7);
        r.expect_consumed("scalars").unwrap();
    }

    #[test]
    fn nan_bits_round_trip_exactly() {
        let weird_nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let buf = written(|w| w.write_f64(weird_nan).unwrap());
        let mut r = SliceReader::new(&buf);
        assert_eq!(r.read_f64("nan").unwrap().to_bits(), weird_nan.to_bits());
    }

    #[test]
    fn strings_round_trip() {
        let buf = written(|w| {
            w.write_str("").unwrap();
            w.write_str("zip-codes: ünïcode").unwrap();
        });
        let mut r = SliceReader::new(&buf);
        assert_eq!(r.read_str("s").unwrap(), "");
        assert_eq!(r.read_str("s").unwrap(), "zip-codes: ünïcode");
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let buf = written(|w| w.write_u64(12345).unwrap());
        let mut r = SliceReader::new(&buf[..5]);
        match r.read_u64("u64 under test") {
            Err(StoreError::Truncated { context }) => assert_eq!(context, "u64 under test"),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn huge_claimed_length_is_truncated_not_allocated() {
        // A corrupt 1 GiB length prefix over a 3-byte payload must fail with
        // Truncated: reads borrow from the slice, so nothing is allocated.
        let buf = written(|w| {
            w.write_u32(1 << 30).unwrap();
            w.write_raw(b"abc").unwrap();
        });
        let mut r = SliceReader::new(&buf);
        assert!(matches!(
            r.read_str("huge"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn slice_reader_walks_and_guards() {
        let buf = written(|w| {
            w.write_u8(7).unwrap();
            w.write_u64(999).unwrap();
            w.write_str("borrowed").unwrap();
        });

        let mut r = SliceReader::new(&buf);
        assert_eq!(r.read_u8("a").unwrap(), 7);
        assert_eq!(r.read_u64("b").unwrap(), 999);
        assert!(r.expect_consumed("early").is_err());
        assert_eq!(r.read_str("c").unwrap(), "borrowed");
        r.expect_consumed("done").unwrap();
        assert_eq!(r.position(), buf.len());

        // Over-reads are typed truncations, including overflow-sized ones.
        let mut r = SliceReader::new(&buf[..2]);
        assert!(matches!(
            r.read_u64("short"),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            r.read_slice(usize::MAX, "overflow"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let buf = written(|w| {
            w.write_u32(2).unwrap();
            w.write_raw(&[0xFF, 0xFE]).unwrap();
        });
        let mut r = SliceReader::new(&buf);
        assert!(matches!(r.read_str("utf8"), Err(StoreError::Corrupt(_))));
    }
}
