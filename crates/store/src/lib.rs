//! Versioned on-disk binary format for `joinmi` repositories and the sketches
//! they embed.
//!
//! The paper's efficiency claim rests on sketches being built **once**,
//! offline, and reused across many online queries. This crate supplies the
//! durable half of that split: a compact, versioned, checksummed binary
//! format with no external serialization dependencies (the workspace builds
//! offline; everything is hand-rolled over `std::io`).
//!
//! # File layout
//!
//! ```text
//! file     = header, section*
//! header   = magic b"JMIS" | format version (u16 LE) | artifact kind | reserved
//! section  = tag (u8) | payload length (u64 LE) | checksum (u64 LE) | payload
//! ```
//!
//! * All integers are little-endian; floats are IEEE-754 bit patterns (exact
//!   round-trip, including NaN payloads).
//! * Each section's payload carries a 64-bit MurmurHash3 checksum (reusing
//!   [`joinmi_hash`]) verified **before** any structural decoding.
//! * Readers reject wrong magic, any format version other than the current
//!   one, wrong artifact kinds, truncation, and checksum mismatches with
//!   typed [`StoreError`]s — decoding untrusted bytes never panics.
//! * There is one field reader, [`SliceReader`], over in-memory bytes:
//!   strings and byte runs are borrowed, nothing is copied until a decoder
//!   materializes a value. A file is opened through [`SectionStream`], which
//!   reads one checksummed section payload at a time for a `SliceReader`
//!   to decode, so a reader holds what it keeps, not the whole file.
//!
//! # Append groups
//!
//! Repository artifacts are **appendable**: after the base payload a writer
//! may extend the file in place with **append groups**, never rewriting an
//! existing byte. Every section of a group is checksummed like any other,
//! and the group's closing section is its **commit point**: a reader replays
//! a group only when the whole group is on disk. A writer crash mid-group
//! therefore leaves the base payload and all previously committed groups
//! byte-identical, and the torn tail surfaces at the next open as a typed
//! [`StoreError`] — the strict read path is never silently tolerant, because
//! it cannot distinguish a torn append from bit rot in the tail. The
//! explicit repair step's structural scan lives in [`repair`]:
//! [`repair::scan_recoverable`] finds the durable boundary an incomplete
//! trailing group can be dropped at and reports exactly what that drops.
//!
//! The concrete artifact encodings live next to the types they persist:
//! sketch columns in `joinmi_sketch::persist`, repositories in
//! `joinmi_discovery::persist` (which also wraps the repair API with
//! repository-aware verification). This crate only owns the format
//! plumbing, so it sits below both in the dependency graph. The byte-level
//! specification is `docs/FORMAT.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod format;
pub mod repair;
pub mod section;
pub mod wire;

pub use error::{Result, StoreError};
pub use fault::{FaultAction, FaultKind, FaultPlan};
pub use format::{read_header, write_header, ArtifactKind, FORMAT_VERSION, MAGIC};
pub use repair::{scan_recoverable, GroupGrammar, RecoveryReport};
pub use section::{
    checksum, scan_section, scan_section_any, write_section, SectionBuilder, SectionStream,
};
pub use wire::{SliceReader, Writer};
