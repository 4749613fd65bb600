//! File header: magic, format version, artifact kind.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"JMIS"
//! 4       2     format version (u16 LE)
//! 6       1     artifact kind tag
//! 7       1     reserved (must be 0)
//! ```
//!
//! The version is bumped on any incompatible layout change, and exactly one
//! version is readable: files stamped with any other — older or newer — are
//! rejected with a typed [`StoreError::UnsupportedVersion`], so a binary
//! never misreads a layout it was not written for.

use std::io::Write;

use crate::error::{Result, StoreError};
use crate::wire::{SliceReader, Writer};

/// Magic bytes identifying a `joinmi` store file.
pub const MAGIC: [u8; 4] = *b"JMIS";

/// The format version this library writes and the only one it reads. The
/// byte-level specification lives in `docs/FORMAT.md`.
pub const FORMAT_VERSION: u16 = 3;

/// What a store file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A full table repository: config, profiles, index postings, candidates.
    Repository,
}

/// The artifact tag of the retired standalone sketch file. It stays
/// reserved: a file stamped with it is [`StoreError::WrongArtifact`], and the
/// tag is never reassigned.
pub(crate) const RESERVED_SKETCH_TAG: u8 = 1;

impl ArtifactKind {
    /// The on-disk tag byte.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Self::Repository => 2,
        }
    }
}

/// Writes the 8-byte file header at [`FORMAT_VERSION`].
pub fn write_header<W: Write>(w: &mut Writer<W>, kind: ArtifactKind) -> Result<()> {
    w.write_raw(&MAGIC)?;
    w.write_u16(FORMAT_VERSION)?;
    w.write_u8(kind.tag())?;
    w.write_u8(0) // reserved
}

/// Reads and validates the file header: magic, version (exactly
/// [`FORMAT_VERSION`]), and that the file holds the expected artifact kind.
pub fn read_header(r: &mut SliceReader<'_>, expected: ArtifactKind) -> Result<()> {
    let magic: [u8; 4] = r
        .read_slice(4, "file header magic")?
        .try_into()
        .expect("4-byte slice");
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = r.read_u16("file header version")?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind_tag = r.read_u8("file header artifact kind")?;
    if kind_tag != expected.tag() {
        return Err(if kind_tag == RESERVED_SKETCH_TAG {
            StoreError::WrongArtifact {
                expected: expected.tag(),
                found: kind_tag,
            }
        } else {
            StoreError::corrupt(format!("unknown artifact kind tag {kind_tag}"))
        });
    }
    let _reserved = r.read_u8("file header reserved byte")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header_bytes(kind: ArtifactKind) -> Vec<u8> {
        let mut w = Writer::new(Vec::new());
        write_header(&mut w, kind).unwrap();
        w.into_inner()
    }

    fn read(bytes: &[u8], expected: ArtifactKind) -> Result<()> {
        read_header(&mut SliceReader::new(bytes), expected)
    }

    #[test]
    fn header_round_trips() {
        let bytes = header_bytes(ArtifactKind::Repository);
        assert_eq!(bytes.len(), 8);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), FORMAT_VERSION);
        read(&bytes, ArtifactKind::Repository).unwrap();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = header_bytes(ArtifactKind::Repository);
        bytes[0] = b'X';
        assert!(matches!(
            read(&bytes, ArtifactKind::Repository),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn any_other_version_is_rejected() {
        for version in [0, 1, 2, FORMAT_VERSION + 1, u16::MAX] {
            let mut bytes = header_bytes(ArtifactKind::Repository);
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            match read(&bytes, ArtifactKind::Repository) {
                Err(StoreError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn artifact_kind_mismatch_is_rejected() {
        // The retired sketch-file tag is a typed mismatch; a tag nobody
        // assigned is corrupt.
        let mut bytes = header_bytes(ArtifactKind::Repository);
        for tag in 0..=u8::MAX {
            bytes[6] = tag;
            let result = read(&bytes, ArtifactKind::Repository);
            match tag {
                2 => result.unwrap(),
                RESERVED_SKETCH_TAG => assert!(matches!(
                    result,
                    Err(StoreError::WrongArtifact {
                        expected: 2,
                        found: 1
                    })
                )),
                _ => assert!(matches!(result, Err(StoreError::Corrupt(_))), "{tag}"),
            }
        }
    }

    #[test]
    fn truncated_header_is_typed() {
        let bytes = header_bytes(ArtifactKind::Repository);
        assert!(matches!(
            read(&bytes[..3], ArtifactKind::Repository),
            Err(StoreError::Truncated { .. })
        ));
    }
}
