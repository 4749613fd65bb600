//! Torn-tail repair for append-extended store files.
//!
//! An appendable artifact (today: the repository format) is a **base
//! payload** followed by zero or more **append groups**, each written by a
//! single `append_to` call. A writer that crashes mid-group leaves a torn
//! tail on disk, and the strict open path refuses the whole file with a
//! typed error — deliberately: open cannot distinguish "crash mid-append"
//! from "bit rot somewhere in the tail", so it never silently drops bytes.
//!
//! This module is the structural half of the explicit repair step the
//! operator (or a serving daemon, at shard open) runs instead:
//! [`scan_recoverable`] walks the section stream, finds the last **durable
//! boundary** — the end of the base payload or the end of a complete append
//! group — and reports exactly what a truncation to that boundary would
//! drop. The caller that knows the artifact applies it
//! (`joinmi_discovery`'s `TableRepository::recover_truncated`, which first
//! proves the prefix opens), shrinking the file in place. Repair never
//! rewrites surviving bytes and never invents data: the result is always a
//! byte-prefix of the original file, representing a prefix of its append
//! history.
//!
//! The walker is format-agnostic: it understands the header and the section
//! framing (tag, length, checksum) and is told the group grammar — which tag
//! opens a group and which closes it — by the caller that knows the artifact
//! layout (`joinmi_discovery::persist` for repositories). A damaged *base*
//! payload is not recoverable and surfaces as the underlying scan error;
//! only a tail after at least one durable boundary is ever dropped.

use crate::error::{Result, StoreError};
use crate::format::{read_header, ArtifactKind};
use crate::section::scan_section_any;
use crate::wire::SliceReader;

/// The two tags that delimit one append group within a section stream.
///
/// A group is `start_tag`, any number of other sections, then `end_tag`;
/// groups do not nest. Everything before the first `start_tag` is the base
/// payload.
#[derive(Debug, Clone, Copy)]
pub struct GroupGrammar {
    /// Tag of the section that opens an append group.
    pub start_tag: u8,
    /// Tag of the section that closes an append group (the group's commit
    /// point: once it is fully on disk, the group is durable).
    pub end_tag: u8,
}

/// What a repair scan found: the valid prefix and what lies past it.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Total length of the scanned file, in bytes.
    pub file_len: u64,
    /// Length of the valid prefix ending at the last durable boundary. Equal
    /// to [`RecoveryReport::file_len`] when the file needs no repair.
    pub recovered_len: u64,
    /// Number of complete append groups inside the valid prefix.
    pub complete_groups: usize,
    /// Bytes past the last durable boundary (`file_len - recovered_len`).
    pub dropped_bytes: u64,
    /// Whole valid sections inside the dropped tail (the torn group's
    /// already-written sections; the remainder of the tail is a partial
    /// frame or damaged payload).
    pub dropped_sections: usize,
    /// The scan error that terminated the walk, rendered for the report;
    /// `None` when the tail ended cleanly at a section boundary but
    /// mid-group (all sections whole, group incomplete).
    pub torn_error: Option<String>,
}

impl RecoveryReport {
    /// `true` when the file holds a torn tail (repair would, or did, drop
    /// bytes); `false` when the file is already fully valid.
    #[must_use]
    pub fn is_torn(&self) -> bool {
        self.dropped_bytes > 0
    }
}

/// Scans an in-memory copy of an appendable artifact and locates the last
/// durable boundary without modifying anything.
///
/// Returns a [`RecoveryReport`] describing the valid prefix. Errors:
///
/// * a damaged header, or damage inside the **base** payload (before any
///   durable boundary exists), is unrecoverable and returns the underlying
///   scan error — repair only ever drops an append tail, never base data;
/// * a file whose artifact kind differs from `expected` is rejected.
///
/// The scan is purely structural (framing + checksums). Callers that can
/// validate payload semantics should verify the recovered prefix actually
/// opens before truncating the file — `joinmi_discovery`'s
/// `TableRepository::recover_truncated` does exactly that.
pub fn scan_recoverable(
    buf: &[u8],
    expected: ArtifactKind,
    grammar: GroupGrammar,
) -> Result<RecoveryReport> {
    let mut header = SliceReader::new(buf);
    read_header(&mut header, expected)?;
    let mut pos = header.position();

    // `boundary` tracks the byte offset of the last durable point: end of
    // the base payload once the first group-start tag is seen, then the end
    // of each completed group. While the base is still streaming by there is
    // no boundary, and any damage is unrecoverable.
    let mut boundary: Option<usize> = None;
    let mut complete_groups = 0usize;
    let mut in_group = false;
    let mut tail_sections = 0usize;
    let mut torn_error: Option<String> = None;

    while pos < buf.len() {
        let section_start = pos;
        match scan_section_any(buf, &mut pos) {
            Ok((tag, _payload)) => {
                if tag == grammar.start_tag {
                    if !in_group && boundary.is_none() {
                        // First group: the base payload ends where this
                        // section begins.
                        boundary = Some(section_start);
                    }
                    in_group = true;
                    tail_sections += 1;
                } else if tag == grammar.end_tag && in_group {
                    // Commit point: everything up to and including this
                    // section is durable.
                    in_group = false;
                    boundary = Some(pos);
                    complete_groups += 1;
                    tail_sections = 0;
                } else if in_group {
                    tail_sections += 1;
                }
                // Sections before the first group start are base payload and
                // never counted as droppable tail.
            }
            Err(e) => {
                // A torn section whose surviving tag byte is the group-start
                // tag marks a durable boundary right before it: the base (or
                // the previous group) completed, and only the new group is
                // incomplete. Without that tag there is no way to tell a
                // torn append from damage in the base payload, so the walk
                // stays conservative.
                if boundary.is_none() && buf.get(section_start) == Some(&grammar.start_tag) {
                    boundary = Some(section_start);
                }
                if boundary.is_none() {
                    // Damage inside the base payload: not a torn append.
                    return Err(e);
                }
                torn_error = Some(e.to_string());
                break;
            }
        }
    }

    let file_len = buf.len() as u64;
    let recovered_len = if !in_group && torn_error.is_none() {
        // Clean walk to EOF with no group open: the whole file is valid.
        file_len
    } else {
        // Torn tail (mid-group EOF or scan error) after a durable boundary.
        // A boundary always exists here: the error path above returns early
        // without one, and entering a group records one first.
        boundary.ok_or_else(|| {
            StoreError::corrupt("file ends inside the base payload; nothing to recover")
        })? as u64
    };
    Ok(RecoveryReport {
        file_len,
        recovered_len,
        complete_groups,
        dropped_bytes: file_len - recovered_len,
        dropped_sections: tail_sections,
        torn_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_header;
    use crate::section::write_section;
    use crate::wire::Writer;

    const GRAMMAR: GroupGrammar = GroupGrammar {
        start_tag: 0x15,
        end_tag: 0x17,
    };

    /// A synthetic artifact: 3 base sections, then `groups` append groups of
    /// (start, middle, end). Returns the bytes and the durable boundaries
    /// (end of base, end of each group).
    fn artifact(groups: usize) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        {
            let mut wr = Writer::new(&mut buf);
            write_header(&mut wr, ArtifactKind::Repository).unwrap();
            for tag in [0x10u8, 0x11, 0x12] {
                write_section(&mut wr, tag, &[tag; 9]).unwrap();
            }
        }
        let mut boundaries = vec![buf.len()];
        for g in 0..groups {
            {
                let mut wr = Writer::new(&mut buf);
                write_section(&mut wr, GRAMMAR.start_tag, &[g as u8; 4]).unwrap();
                write_section(&mut wr, 0x16, &[g as u8; 12]).unwrap();
                write_section(&mut wr, GRAMMAR.end_tag, &[g as u8; 6]).unwrap();
            }
            boundaries.push(buf.len());
        }
        (buf, boundaries)
    }

    #[test]
    fn valid_files_need_no_repair() {
        for groups in [0, 1, 3] {
            let (buf, boundaries) = artifact(groups);
            let report = scan_recoverable(&buf, ArtifactKind::Repository, GRAMMAR).unwrap();
            assert!(!report.is_torn());
            assert_eq!(report.recovered_len, buf.len() as u64);
            assert_eq!(report.complete_groups, groups);
            assert_eq!(report.dropped_bytes, 0);
            let _ = boundaries;
        }
    }

    #[test]
    fn every_torn_offset_recovers_to_the_last_boundary() {
        let (buf, boundaries) = artifact(2);
        let base_end = boundaries[0];
        for cut in base_end + 1..buf.len() {
            let report = scan_recoverable(&buf[..cut], ArtifactKind::Repository, GRAMMAR).unwrap();
            let expected = *boundaries.iter().rfind(|&&b| b <= cut).unwrap() as u64;
            assert_eq!(report.recovered_len, expected, "cut at {cut}");
            assert_eq!(report.is_torn(), (cut as u64) != expected, "cut at {cut}");
        }
    }

    #[test]
    fn damage_in_the_base_is_unrecoverable() {
        let (buf, boundaries) = artifact(1);
        // Truncation inside the base payload: no boundary yet.
        assert!(
            scan_recoverable(&buf[..boundaries[0] - 3], ArtifactKind::Repository, GRAMMAR).is_err()
        );
        // A flipped bit inside a base section is damage, not a torn tail.
        let mut flipped = buf.clone();
        flipped[20] ^= 0x01;
        assert!(scan_recoverable(&flipped, ArtifactKind::Repository, GRAMMAR).is_err());
    }

    #[test]
    fn flipped_bit_inside_a_group_truncates_to_the_previous_boundary() {
        let (buf, boundaries) = artifact(2);
        // Damage the second group's payload: recovery keeps base + group 1.
        let target = boundaries[1] + (boundaries[2] - boundaries[1]) / 2;
        let mut flipped = buf.clone();
        flipped[target] ^= 0x40;
        let report = scan_recoverable(&flipped, ArtifactKind::Repository, GRAMMAR).unwrap();
        assert!(report.is_torn());
        assert_eq!(report.recovered_len, boundaries[1] as u64);
        assert_eq!(report.complete_groups, 1);
        assert!(report.torn_error.is_some());
    }

    #[test]
    fn mid_group_eof_at_a_section_boundary_is_still_torn() {
        // All sections whole, but the last group never reached its end tag.
        let (buf, boundaries) = artifact(1);
        let mut extended = buf.clone();
        {
            let mut wr = Writer::new(&mut extended);
            write_section(&mut wr, GRAMMAR.start_tag, &[9; 4]).unwrap();
            write_section(&mut wr, 0x16, &[9; 12]).unwrap();
        }
        let report = scan_recoverable(&extended, ArtifactKind::Repository, GRAMMAR).unwrap();
        assert!(report.is_torn());
        assert_eq!(report.recovered_len, *boundaries.last().unwrap() as u64);
        assert_eq!(report.dropped_sections, 2);
        assert!(report.torn_error.is_none());
    }

    #[test]
    fn wrong_artifact_kind_is_rejected() {
        let (mut buf, _) = artifact(1);
        buf[6] = crate::format::RESERVED_SKETCH_TAG;
        assert!(matches!(
            scan_recoverable(&buf, ArtifactKind::Repository, GRAMMAR),
            Err(StoreError::WrongArtifact { .. })
        ));
    }
}
