//! Checksummed section framing.
//!
//! After the file header, a store artifact is a sequence of sections:
//!
//! ```text
//! section = tag (u8) | payload length (u64 LE) | checksum (u64 LE) | payload
//! ```
//!
//! The checksum is the low 64 bits of MurmurHash3 x64/128 over the payload
//! (reusing [`joinmi_hash::murmur3_x64_128`] rather than pulling in a CRC
//! dependency), salted with a fixed seed so a section of zeros does not
//! checksum to zero. Readers verify the checksum before any payload decoding,
//! so structural decoders only ever run over integrity-checked bytes.
//!
//! Two readers walk the framing and fail on the same bytes with the same
//! errors: [`scan_section`] over bytes already in memory, and
//! [`SectionStream`], which reads one section at a time from a buffered
//! stream and owns each payload it returns.

use std::io::{BufRead, Read, Write};

use joinmi_hash::murmur3_x64_128;

use crate::error::{Result, StoreError};
use crate::wire::{SliceReader, Writer};

/// Seed for the section checksum hash.
const CHECKSUM_SEED: u64 = 0x6A6D_6931_5345_4354; // "jmi1SECT"

/// Computes the checksum of a section payload.
#[must_use]
pub fn checksum(payload: &[u8]) -> u64 {
    murmur3_x64_128(payload, CHECKSUM_SEED).0
}

/// Writes one framed section: tag, length, checksum, payload.
pub fn write_section<W: Write>(w: &mut Writer<W>, tag: u8, payload: &[u8]) -> Result<()> {
    w.write_u8(tag)?;
    w.write_len(payload.len())?;
    w.write_u64(checksum(payload))?;
    w.write_raw(payload)
}

/// A convenience builder: encode a section payload into an in-memory buffer
/// with the full [`Writer`] API, then frame-and-flush it in one call.
#[derive(Debug)]
pub struct SectionBuilder {
    payload: Writer<Vec<u8>>,
}

impl Default for SectionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SectionBuilder {
    /// Creates an empty section payload.
    #[must_use]
    pub fn new() -> Self {
        Self {
            payload: Writer::new(Vec::new()),
        }
    }

    /// The payload writer.
    pub fn writer(&mut self) -> &mut Writer<Vec<u8>> {
        &mut self.payload
    }

    /// Frames the accumulated payload under `tag` and writes it to `out`.
    pub fn finish<W: Write>(self, tag: u8, out: &mut Writer<W>) -> Result<()> {
        write_section(out, tag, &self.payload.into_inner())
    }
}

/// Walks one framed section inside an in-memory buffer without copying the
/// payload: verifies the tag and checksum, advances `pos` past the section,
/// and returns the payload's byte range within `buf`.
pub fn scan_section(
    buf: &[u8],
    pos: &mut usize,
    expected_tag: u8,
) -> Result<std::ops::Range<usize>> {
    let (tag, range) = scan_section_any(buf, pos)?;
    if tag != expected_tag {
        return Err(StoreError::UnexpectedSection {
            expected: expected_tag,
            found: tag,
        });
    }
    Ok(range)
}

/// Like [`scan_section`], but accepts any tag and returns it alongside the
/// payload range. This is the walker used by tag-driven consumers — append
/// groups whose section sequence depends on counts inside earlier payloads,
/// and the [`repair`](crate::repair) scanner that must classify a file's
/// sections without assuming which one comes next.
///
/// `pos` is only advanced when the whole section (frame **and** payload,
/// checksum verified) is present, so a failed scan leaves `pos` at the start
/// of the damaged tail.
pub fn scan_section_any(buf: &[u8], pos: &mut usize) -> Result<(u8, std::ops::Range<usize>)> {
    let mut r = SliceReader { buf, pos: *pos };
    let tag = r.read_u8("section frame")?;
    let len = r.read_len("section frame")?;
    let stored = r.read_u64("section frame")?;
    let payload = r.read_slice(len, "section payload")?;
    let actual = checksum(payload);
    if actual != stored {
        return Err(StoreError::ChecksumMismatch {
            section: tag,
            expected: stored,
            actual,
        });
    }
    *pos = r.pos;
    Ok((tag, r.pos - len..r.pos))
}

/// Bytes of a section frame: tag, payload length, checksum.
const FRAME_LEN: usize = 17;

/// Reads a store artifact one framed section at a time from a buffered
/// stream, holding only the payload being returned — the streaming
/// counterpart of [`scan_section`]. On the same bytes it returns the same
/// payloads and fails with the same errors, so a reader behaves identically
/// over a file and over a copy of it in memory.
#[derive(Debug)]
pub struct SectionStream<R> {
    inner: R,
    /// Bytes consumed so far.
    pos: u64,
    /// The stream's total length (a file's length at open, a slice's
    /// length): a frame that claims more bytes than remain fails before
    /// anything is read or reserved for it.
    len: u64,
}

impl<R: BufRead> SectionStream<R> {
    /// Wraps `inner`, which holds `len` bytes.
    pub fn new(inner: R, len: u64) -> Self {
        Self { inner, pos: 0, len }
    }

    /// Bytes consumed so far.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// `true` once every byte of the stream has been consumed.
    pub fn at_end(&mut self) -> Result<bool> {
        Ok(self.inner.fill_buf()?.is_empty())
    }

    /// Reads and validates the file header (see [`read_header`](crate::read_header)).
    pub fn read_header(&mut self, expected: crate::ArtifactKind) -> Result<()> {
        let mut header = [0u8; 8];
        let got = self.fill(&mut header)?;
        crate::read_header(&mut SliceReader::new(&header[..got]), expected)
    }

    /// Reads the next section, whatever its tag, verifying its checksum.
    fn section_any(&mut self) -> Result<(u8, Vec<u8>)> {
        let mut frame = [0u8; FRAME_LEN];
        let got = self.fill(&mut frame)?;
        let mut r = SliceReader::new(&frame[..got]);
        let tag = r.read_u8("section frame")?;
        let len = r.read_len("section frame")?;
        let stored = r.read_u64("section frame")?;
        if len as u64 > self.len.saturating_sub(self.pos) {
            return Err(StoreError::Truncated {
                context: "section payload",
            });
        }
        let mut payload = Vec::with_capacity(len);
        (&mut self.inner)
            .take(len as u64)
            .read_to_end(&mut payload)?;
        self.pos += payload.len() as u64;
        if payload.len() < len {
            return Err(StoreError::Truncated {
                context: "section payload",
            });
        }
        let actual = checksum(&payload);
        if actual != stored {
            return Err(StoreError::ChecksumMismatch {
                section: tag,
                expected: stored,
                actual,
            });
        }
        Ok((tag, payload))
    }

    /// Reads the next section, verifies its checksum, requires its tag to be
    /// `expected_tag` and returns its payload.
    pub fn section(&mut self, expected_tag: u8) -> Result<Vec<u8>> {
        let (tag, payload) = self.section_any()?;
        if tag != expected_tag {
            return Err(StoreError::UnexpectedSection {
                expected: expected_tag,
                found: tag,
            });
        }
        Ok(payload)
    }

    /// Reads until `buf` is full or the stream ends; returns the bytes read.
    fn fill(&mut self, buf: &mut [u8]) -> Result<usize> {
        let mut got = 0;
        while got < buf.len() {
            match self.inner.read(&mut buf[got..]) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.pos += got as u64;
        Ok(got)
    }
}

impl<'a> SliceReader<'a> {
    /// Reads one framed section at the cursor with [`scan_section`] (tag and
    /// checksum verified) and returns a reader over its payload — how a
    /// decoder descends into sections nested inside another payload.
    pub fn section(&mut self, expected_tag: u8) -> Result<SliceReader<'a>> {
        let range = scan_section(self.buf, &mut self.pos, expected_tag)?;
        Ok(SliceReader::new(&self.buf[range]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_walks_consecutive_sections() {
        let mut w = Writer::new(Vec::new());
        write_section(&mut w, 5, b"first").unwrap();
        write_section(&mut w, 6, b"second payload").unwrap();
        let buf = w.into_inner();

        let mut pos = 0usize;
        let a = scan_section(&buf, &mut pos, 5).unwrap();
        assert_eq!(&buf[a], b"first");
        let b = scan_section(&buf, &mut pos, 6).unwrap();
        assert_eq!(&buf[b], b"second payload");
        assert_eq!(pos, buf.len());

        // Scanning past the end is a typed truncation.
        assert!(matches!(
            scan_section(&buf, &mut pos, 7),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn scan_detects_corruption_and_truncation() {
        let mut w = Writer::new(Vec::new());
        write_section(&mut w, 5, b"payload under test").unwrap();
        let buf = w.into_inner();

        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x80;
        let mut pos = 0usize;
        assert!(matches!(
            scan_section(&flipped, &mut pos, 5),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        let mut pos = 0usize;
        assert!(matches!(
            scan_section(&buf[..buf.len() - 2], &mut pos, 5),
            Err(StoreError::Truncated { .. })
        ));

        let mut pos = 0usize;
        assert!(matches!(
            scan_section(&buf, &mut pos, 9),
            Err(StoreError::UnexpectedSection { .. })
        ));
    }

    #[test]
    fn nested_sections_read_through_the_slice_reader() {
        let mut inner = Writer::new(Vec::new());
        inner.write_u8(9).unwrap();
        write_section(&mut inner, 7, b"hello section").unwrap();
        write_section(&mut inner, 8, b"").unwrap();
        let mut outer = Writer::new(Vec::new());
        write_section(&mut outer, 3, &inner.into_inner()).unwrap();
        let buf = outer.into_inner();

        let mut r = SliceReader::new(&buf);
        let mut p = r.section(3).unwrap();
        r.expect_consumed("outer").unwrap();
        assert_eq!(p.read_u8("prefix").unwrap(), 9);
        let mut first = p.section(7).unwrap();
        assert_eq!(first.read_slice(13, "payload").unwrap(), b"hello section");
        p.section(8).unwrap().expect_consumed("empty").unwrap();
        p.expect_consumed("inner").unwrap();

        assert!(matches!(
            SliceReader::new(&buf).section(4),
            Err(StoreError::UnexpectedSection {
                expected: 4,
                found: 3
            })
        ));
    }

    #[test]
    fn builder_matches_direct_framing() {
        let mut direct = Writer::new(Vec::new());
        write_section(&mut direct, 3, &5u64.to_le_bytes()).unwrap();

        let mut built = Writer::new(Vec::new());
        let mut section = SectionBuilder::new();
        section.writer().write_u64(5).unwrap();
        section.finish(3, &mut built).unwrap();

        assert_eq!(direct.into_inner(), built.into_inner());
    }

    /// Walks `bytes` section by section with both readers, up to and
    /// including the first error.
    fn walk_both(bytes: &[u8]) -> (String, String) {
        type Walk = Vec<Result<(u8, Vec<u8>)>>;
        let (mut scanned, mut streamed): (Walk, Walk) = (Vec::new(), Vec::new());
        let mut pos = 0usize;
        while pos < bytes.len() {
            let next = scan_section_any(bytes, &mut pos).map(|(tag, r)| (tag, bytes[r].to_vec()));
            let failed = next.is_err();
            scanned.push(next);
            if failed {
                break;
            }
        }
        let mut stream = SectionStream::new(bytes, bytes.len() as u64);
        while !stream.at_end().unwrap() {
            let next = stream.section_any();
            let failed = next.is_err();
            streamed.push(next);
            if failed {
                break;
            }
        }
        (format!("{scanned:?}"), format!("{streamed:?}"))
    }

    #[test]
    fn stream_reads_and_fails_like_the_slice_scan() {
        let mut w = Writer::new(Vec::new());
        write_section(&mut w, 5, b"first").unwrap();
        write_section(&mut w, 6, &[7u8; 300]).unwrap();
        write_section(&mut w, 7, b"").unwrap();
        let buf = w.into_inner();
        let mut flipped = buf.clone();
        flipped[100] ^= 0x20;
        for bytes in [&buf, &flipped] {
            for cut in 0..=bytes.len() {
                let (scanned, streamed) = walk_both(&bytes[..cut]);
                assert_eq!(streamed, scanned, "cut at {cut}");
            }
        }

        let mut stream = SectionStream::new(buf.as_slice(), buf.len() as u64);
        assert_eq!(stream.section(5).unwrap(), b"first");
        assert!(matches!(
            stream.section(5),
            Err(StoreError::UnexpectedSection {
                expected: 5,
                found: 6
            })
        ));

        // A stream that ends before the length it was opened with (a file
        // that shrank after its length was read) is a truncated payload.
        let mut stream = SectionStream::new(&buf[..100], buf.len() as u64);
        stream.section(5).unwrap();
        assert!(matches!(
            stream.section(6),
            Err(StoreError::Truncated {
                context: "section payload"
            })
        ));
    }

    #[test]
    fn empty_payload_checksum_is_nonzero() {
        assert_ne!(checksum(&[]), 0);
    }
}
