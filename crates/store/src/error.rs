//! The typed error surface of the store.
//!
//! Every malformed input — truncation, a foreign file, a file written at
//! another format version, bit rot — maps to a [`StoreError`] variant.
//! Decoders never panic on untrusted bytes; the corrupt-input test suite pins
//! that contract.

use std::fmt;
use std::io;

/// Errors produced while encoding or decoding store artifacts.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with the `joinmi` store magic bytes.
    BadMagic {
        /// The bytes actually found where the magic was expected.
        found: [u8; 4],
    },
    /// The file was written at a format version — older or newer — other
    /// than the one this library reads.
    UnsupportedVersion {
        /// Version recorded in the file header.
        found: u16,
        /// The only version this library reads.
        supported: u16,
    },
    /// The file holds a different artifact kind than the caller asked for
    /// (e.g. a single sketch where a repository was expected).
    WrongArtifact {
        /// Artifact tag expected by the caller.
        expected: u8,
        /// Artifact tag recorded in the header.
        found: u8,
    },
    /// The input ended before a complete value / section could be read.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Tag of the offending section.
        section: u8,
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// A section appeared with an unexpected tag.
    UnexpectedSection {
        /// Tag expected by the decoder.
        expected: u8,
        /// Tag actually read.
        found: u8,
    },
    /// A structurally invalid encoding: unknown enum tag, impossible length,
    /// non-UTF-8 string bytes, and similar.
    Corrupt(String),
    /// The target artifact is sealed (frozen by a seal-mode compaction) and
    /// rejects the attempted mutation — appending to a sealed repository
    /// file, for example. Distinct from [`StoreError::Corrupt`]: the file is
    /// perfectly valid, the *operation* is what is disallowed.
    Sealed {
        /// What was attempted against the sealed artifact.
        operation: &'static str,
    },
}

impl StoreError {
    /// Convenience constructor for [`StoreError::Corrupt`].
    #[must_use]
    pub fn corrupt(message: impl Into<String>) -> Self {
        Self::Corrupt(message.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O error: {e}"),
            Self::BadMagic { found } => {
                write!(f, "not a joinmi store file (magic bytes {found:02x?})")
            }
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is not the supported version {supported}"
            ),
            Self::WrongArtifact { expected, found } => write!(
                f,
                "wrong artifact kind: expected tag {expected}, file holds tag {found}"
            ),
            Self::Truncated { context } => {
                write!(f, "truncated input while reading {context}")
            }
            Self::ChecksumMismatch {
                section,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in section {section}: stored {expected:#018x}, computed {actual:#018x}"
            ),
            Self::UnexpectedSection { expected, found } => write!(
                f,
                "unexpected section tag {found} (expected {expected})"
            ),
            Self::Corrupt(message) => write!(f, "corrupt store data: {message}"),
            Self::Sealed { operation } => {
                write!(f, "artifact is sealed: {operation} is not allowed")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        // An EOF surfacing as a raw I/O error is still a truncation from the
        // caller's point of view; keep the richer variant when we can tell.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Self::Truncated { context: "input" }
        } else {
            Self::Io(e)
        }
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::BadMagic {
            found: *b"PK\x03\x04",
        };
        assert!(e.to_string().contains("not a joinmi store file"));
        let e = StoreError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        let e = StoreError::ChecksumMismatch {
            section: 3,
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("section 3"));
    }

    #[test]
    fn unexpected_eof_maps_to_truncated() {
        let io = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(StoreError::from(io), StoreError::Truncated { .. }));
        let io = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        assert!(matches!(StoreError::from(io), StoreError::Io(_)));
    }
}
