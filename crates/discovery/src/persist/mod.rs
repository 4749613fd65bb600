//! Repository persistence: the offline-ingest → online-query split, plus the
//! on-disk **append path** that lets an ingest daemon extend a repository
//! without rewriting it.
//!
//! A [`TableRepository`] is expensive to build (every candidate table is
//! profiled and sketched) and cheap to use — exactly the paper's pitch that
//! sketches are "built in an offline preprocessing stage" and amortized over
//! many queries. This module makes the expensive half durable:
//!
//! * [`TableRepository::save`] writes a versioned, checksummed artifact
//!   containing the config, table profiles, joinability-index postings, and
//!   every candidate's sketch **and incremental-builder state** (the raw
//!   tables are deliberately *not* persisted — queries never touch them).
//! * [`TableRepository::load`] reads it back eagerly into a sketch-only
//!   repository that answers queries bit-identically to the original — and,
//!   thanks to the builder state, accepts [`TableRepository::append_rows`].
//! * [`TableRepository::load_mmap_like`] opens the artifact as a read-only
//!   [`RepositorySnapshot`]: the file streams through a bounded buffer one
//!   section at a time, every section checksum is verified and every
//!   candidate validated up front, and only each candidate's latest body and
//!   builder state are kept; candidate sketches are only decoded on first
//!   access — a query prunes through the persisted index and decodes just
//!   the surviving candidates.
//! * [`TableRepository::append_to`] writes the changes accumulated since the
//!   file was loaded as an **append group** after the existing payload:
//!   updated candidate sections plus an index delta, each checksummed. The
//!   existing bytes are never touched, so a torn append (crash mid-write)
//!   surfaces as a typed [`StoreError`] at the next open, never as silent
//!   corruption of the base artifact.
//!
//! Accumulated append groups cost read time (every group is re-validated and
//! replayed at open), so two maintenance operations complete the lifecycle:
//!
//! * [`TableRepository::compact`] folds a file's append groups back into a
//!   fresh flat base — written to a sibling temp file, fsynced, then atomically
//!   renamed over the original — restoring the flat-save read profile while
//!   answering queries bit-identically.
//! * **Seal mode** ([`CompactMode::Seal`]) additionally drops all
//!   incremental-builder state for frozen corpora: the file shrinks to the
//!   lean state-free layout and further appends are rejected with a typed
//!   [`StoreError::Sealed`] / [`TableError`](joinmi_table::TableError)
//!   `::Sealed`.
//!
//! # Format and module layout
//!
//! The byte-level specification — header, section framing, every section's
//! payload, the append-group grammar — is `docs/FORMAT.md` at the repository
//! root. Exactly one format version is readable
//! ([`joinmi_store::FORMAT_VERSION`]); a file stamped with any other is a
//! typed [`StoreError::UnsupportedVersion`].
//!
//! Each on-disk structure has one writer and **one** function that reads its
//! fields, used both to validate at open and to decode on first touch:
//! `sections` holds one codec per section in `docs/FORMAT.md` order,
//! `snapshot` the open-time walk over them and the lazy candidate decode
//! ([`RepositorySnapshot`]), and this module the [`TableRepository`] file
//! operations built on both.
//!
//! Builder state (`CANDIDATE_STATE`) is interpreted by nothing on the
//! read-only path, so a snapshot open verifies its checksum and presence
//! flag and stops there; `RightSketchBuilder::read_state` decodes and
//! validates it where it is first used, in [`TableRepository::load`] and
//! [`TableRepository::compact`].

use std::io::{BufReader, Read, Write};
use std::path::Path;

use joinmi_store::{
    read_header, scan_section, write_header, ArtifactKind, GroupGrammar, RecoveryReport, Result,
    SliceReader, StoreError, Writer,
};

use crate::repository::TableRepository;

mod sections;
mod snapshot;

pub use sections::{
    SECTION_APPEND_META, SECTION_CANDIDATE, SECTION_CANDIDATE_STATE, SECTION_CANDIDATE_UPDATE,
    SECTION_FEATURE_DISTINCT, SECTION_INDEX, SECTION_INDEX_DELTA, SECTION_PROFILES,
    SECTION_REPO_META,
};
pub use snapshot::RepositorySnapshot;

use sections::{
    read_repo_meta, write_append_meta, write_candidate, write_candidate_state,
    write_candidate_update, write_distincts, write_index, write_index_delta, write_profiles,
    write_repo_meta, REPO_META_END,
};

/// Capacity of the buffer a file open streams through: small next to a
/// repository, large enough that a frame or a small section costs no
/// syscall of its own.
const READ_BUFFER: usize = 64 * 1024;

/// The repository append-group grammar for the structural repair scanner in
/// [`joinmi_store::repair`]: a group opens with APPEND_META and commits with
/// INDEX_DELTA.
pub const REPOSITORY_GROUP_GRAMMAR: GroupGrammar = GroupGrammar {
    start_tag: SECTION_APPEND_META,
    end_tag: SECTION_INDEX_DELTA,
};

impl TableRepository {
    /// Serializes the repository (config, profiles, distinct sketches, index
    /// postings, candidate sketches and builder states — not the raw tables)
    /// to any `std::io::Write`, as a flat (append-group-free) artifact
    /// covering the repository's *current* state. A sealed repository writes
    /// the lean sealed layout: no `CANDIDATE_STATE` sections at all.
    pub fn save_to<W: Write>(&self, out: W) -> Result<()> {
        let mut w = Writer::new(out);
        write_header(&mut w, ArtifactKind::Repository)?;
        write_repo_meta(
            &mut w,
            &self.config(),
            self.num_tables(),
            self.candidates().len(),
            self.is_sealed(),
        )?;
        write_profiles(&mut w, self.profiles())?;
        write_distincts(&mut w, self.distinct_sketches())?;
        write_index(&mut w, self.joinability())?;
        for (candidate, builder) in self.candidates().iter().zip(self.builders()) {
            write_candidate(&mut w, candidate)?;
            if !self.is_sealed() {
                write_candidate_state(&mut w, builder.as_ref())?;
            }
        }
        Ok(())
    }

    /// Saves the repository to a file (see [`Self::save_to`]), flushed and
    /// fsynced before returning. The encoding is canonical: saving a loaded
    /// repository reproduces the bytes. All filesystem operations route
    /// through the [`joinmi_store::fault`] seam, so chaos sweeps can fail or
    /// corrupt any individual write.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let file = joinmi_store::fault::create(path)?;
        let mut buffered = std::io::BufWriter::new(file);
        self.save_to(&mut buffered)?;
        use std::io::Write as _;
        buffered.flush()?;
        let file = buffered
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        Ok(())
    }

    /// Appends the changes made since the repository was loaded or last
    /// appended — the [`Self::append_rows`] log — to an existing repository
    /// file as one append group, without rewriting any existing bytes.
    ///
    /// The target must be the artifact this repository's base state came
    /// from (header and REPO_META are verified; appending to a mismatched or
    /// sealed file is rejected before any byte is written — with
    /// [`StoreError::Sealed`] for the sealed case). A no-op when nothing
    /// changed. On success the pending log is cleared, so consecutive
    /// appends produce consecutive groups.
    ///
    /// Crash semantics: the group is flushed **and fsynced** before the
    /// pending log is cleared, so a successful return means the group is
    /// durable. A write torn mid-group leaves the base artifact and
    /// all previously completed groups byte-identical on disk, and the next
    /// open reports a typed error for the torn tail rather than silently
    /// dropping it — open cannot distinguish "crash mid-append" from
    /// "bit rot in the last group", so it refuses to guess; the explicit
    /// repair step is [`Self::recover_truncated`], which drops the torn tail
    /// at a durable boundary after verifying the surviving prefix opens.
    pub fn append_to<P: AsRef<Path>>(&mut self, path: P) -> Result<()> {
        if self.pending().is_empty() {
            return Ok(());
        }

        // Light compatibility check against the target's header + meta: the
        // only bytes of the target this ever reads.
        {
            let mut head = Vec::with_capacity(REPO_META_END);
            joinmi_store::fault::open_read(&path)?
                .take(REPO_META_END as u64)
                .read_to_end(&mut head)?;
            let mut r = SliceReader::new(&head);
            read_header(&mut r, ArtifactKind::Repository)?;
            let mut pos = r.position();
            let meta = read_repo_meta(&head[scan_section(&head, &mut pos, SECTION_REPO_META)?])?;
            if meta.sealed {
                return Err(StoreError::Sealed {
                    operation: "appending a group to a sealed repository file",
                });
            }
            let config = self.config();
            if meta.num_tables != self.num_tables()
                || meta.num_candidates != self.candidates().len()
                || meta.config.sketch != config.sketch
            {
                return Err(StoreError::corrupt(
                    "append target does not match this repository (table/candidate counts or \
                     sketch configuration differ)",
                ));
            }
        }

        let file = joinmi_store::fault::open_append(&path)?;
        let mut w = Writer::new(std::io::BufWriter::new(file));

        let dirty = &self.pending().dirty;
        write_append_meta(
            &mut w,
            dirty.len(),
            self.profiles(),
            self.distinct_sketches(),
        )?;
        for &id in dirty {
            write_candidate_update(&mut w, id, &self.candidates()[id])?;
            write_candidate_state(&mut w, self.builders()[id].as_ref())?;
        }
        write_index_delta(&mut w, &self.pending().deltas)?;

        let mut buffered = w.into_inner();
        use std::io::Write as _;
        buffered.flush()?;
        // Fsync before declaring the group durable: the closing INDEX_DELTA
        // section is the commit point only once it is actually on disk.
        let file = buffered
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        self.clear_pending();
        Ok(())
    }

    /// Loads a repository artifact eagerly from a reader (see [`Self::load`]).
    /// The input is read to its end first: the open walks a stream of known
    /// length, which is what bounds the counts a file declares.
    pub fn load_from<R: Read>(mut input: R) -> Result<TableRepository> {
        let mut buf = Vec::new();
        input.read_to_end(&mut buf).map_err(StoreError::from)?;
        RepositorySnapshot::from_bytes(buf)?.into_repository()
    }

    /// Loads a repository saved by [`Self::save`], decoding every candidate
    /// eagerly — including its builder state, which is decoded and validated
    /// here and nowhere earlier (a state that fails is a typed error even
    /// though the same file opens as a snapshot). The result is a
    /// *sketch-only* repository: it answers queries bit-identically to the
    /// original and accepts [`Self::append_rows`], but holds no raw tables,
    /// so new-table ingest and
    /// [`AugmentationPlan::materialize`](crate::AugmentationPlan) are rejected
    /// with typed errors.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<TableRepository> {
        Self::load_mmap_like(path)?.into_repository()
    }

    /// Opens a repository artifact as a read-only [`RepositorySnapshot`]:
    /// the file is streamed through a bounded buffer one section at a time,
    /// every section checksum is verified and every candidate validated
    /// immediately, and only the latest bytes of each candidate are kept —
    /// never the whole file, nor the sections later append groups replaced.
    /// Candidate sketches are decoded lazily on first access.
    pub fn load_mmap_like<P: AsRef<Path>>(path: P) -> Result<RepositorySnapshot> {
        let input = joinmi_store::fault::open_read(path)?;
        let len = input.file_len();
        RepositorySnapshot::read_from(BufReader::with_capacity(READ_BUFFER, input), len)
    }

    /// Repairs a repository file whose last append group was torn by a crash
    /// mid-[`Self::append_to`], truncating the file in place to the last
    /// durable boundary (end of the base payload or end of the last complete
    /// group) and returning a [`RecoveryReport`] of exactly what was dropped.
    ///
    /// This is the explicit counterpart to the deliberately strict open path:
    /// [`Self::load_mmap_like`] refuses a torn file with a typed error
    /// because it cannot tell a crash from bit rot; an operator (or a serving
    /// daemon bringing a shard online) calls this to resolve the ambiguity
    /// in favour of "crash" and shed the tail.
    ///
    /// Safety properties beyond the structural scan in
    /// [`joinmi_store::scan_recoverable`]:
    ///
    /// * the recovered prefix is fully **opened as a repository snapshot**
    ///   before the file is touched — the boundary the truncation commits to
    ///   always decodes, never just "looks structurally plausible";
    /// * the structural scan is not trusted to declare *health* either: the
    ///   section payload checksum does not cover the frame (tag + length), so
    ///   a bit flipped in a section **tag** leaves a file the scan walks
    ///   cleanly but the strict open refuses. When that happens the repair
    ///   falls back to a semantic search — every section end is a candidate
    ///   boundary (framing survives tag damage), and only real durable
    ///   boundaries (end of base, end of a complete group) actually open —
    ///   and truncates to the longest prefix that opens;
    /// * damage in the base payload (before any append group) is never
    ///   repairable and returns a typed error — repair can only shed
    ///   appended history, never base data.
    ///
    /// Idempotent: repairing an already-valid file is a no-op reporting zero
    /// dropped bytes.
    pub fn recover_truncated<P: AsRef<Path>>(path: P) -> Result<RecoveryReport> {
        let buf = joinmi_store::fault::read(&path)?;
        let report = joinmi_store::scan_recoverable(
            &buf,
            ArtifactKind::Repository,
            REPOSITORY_GROUP_GRAMMAR,
        )?;
        let truncate_to = |len: u64| -> Result<()> {
            let file = joinmi_store::fault::open_rw(&path)?;
            file.set_len(len)?;
            file.sync_all()?;
            Ok(())
        };

        // Verify-before-trust: whatever boundary the structural scan chose
        // must decode as a repository before the file is shrunk to it — and
        // a "healthy" verdict must decode too, or it is not healthy.
        let prefix_len =
            usize::try_from(report.recovered_len).expect("recovered_len came from a usize");
        if RepositorySnapshot::from_bytes(buf[..prefix_len].to_vec()).is_ok() {
            if report.is_torn() {
                truncate_to(report.recovered_len)?;
            }
            return Ok(report);
        }

        // Semantic fallback: the structural boundary does not open (e.g. a
        // checksum-valid flip in a section tag). Collect every section-end
        // offset — framing (length + payload checksum) survives tag damage —
        // and truncate to the longest prefix that opens. Prefixes ending
        // mid-group refuse to open by construction, so only durable
        // boundaries can win.
        let mut section_ends = Vec::new();
        let mut pos = 8usize;
        while pos < buf.len() && joinmi_store::scan_section_any(&buf, &mut pos).is_ok() {
            section_ends.push(pos);
        }
        for &end in section_ends.iter().rev() {
            if end as u64 == report.recovered_len
                || RepositorySnapshot::from_bytes(buf[..end].to_vec()).is_err()
            {
                continue;
            }
            truncate_to(end as u64)?;
            // Rescan the surviving prefix so the report's group count is
            // exact; the prefix opens, so the clean scan cannot fail.
            let prefix = joinmi_store::scan_recoverable(
                &buf[..end],
                ArtifactKind::Repository,
                REPOSITORY_GROUP_GRAMMAR,
            )?;
            return Ok(RecoveryReport {
                file_len: buf.len() as u64,
                recovered_len: end as u64,
                complete_groups: prefix.complete_groups,
                dropped_bytes: buf.len() as u64 - end as u64,
                dropped_sections: section_ends.iter().filter(|&&e| e > end).count(),
                torn_error: Some(
                    "section stream is structurally clean but does not decode \
                     (frame damage, e.g. a flipped section tag); recovered to the \
                     longest prefix that opens"
                        .to_owned(),
                ),
            });
        }
        Err(StoreError::corrupt(
            "no prefix of the file opens as a repository; the damage precedes the last \
             durable boundary",
        ))
    }

    /// Rewrites a repository file in place, folding all accumulated append
    /// groups back into a fresh flat base — the read-time cost of replayed
    /// groups goes to zero while queries stay bit-for-bit identical. With
    /// [`CompactMode::Seal`] the rewrite additionally drops every candidate's
    /// incremental-builder state and marks the file sealed: the lean
    /// state-free read profile, at the price that further appends are
    /// rejected with typed `Sealed` errors. Compacting an already-sealed or
    /// already-flat file is a valid no-op-shaped rewrite (it reproduces the
    /// canonical bytes). Builder state is decoded on the way through, so a
    /// file whose state is invalid fails here with a typed error and is left
    /// untouched.
    ///
    /// Crash semantics: the new image is written to a sibling temp file,
    /// fsynced, **read back and verified to open**, then atomically renamed
    /// over the original — at every instant the path holds either the
    /// complete old file or the complete new one, so a crash mid-compaction
    /// never needs repair, and a write corrupted in flight (a flipped bit on
    /// the way to the temp file) is caught before the rename and leaves the
    /// original serving. Do not run concurrently with [`Self::append_to`] on
    /// the same path: the rename would discard a group appended after the
    /// compaction read its input.
    pub fn compact<P: AsRef<Path>>(path: P, mode: CompactMode) -> Result<CompactionReport> {
        let path = path.as_ref();
        let snapshot = Self::load_mmap_like(path)?;
        let bytes_before = snapshot.file_len();
        let groups_folded = snapshot.append_groups();
        let mut repo = snapshot.into_repository()?;
        if matches!(mode, CompactMode::Seal) {
            repo.seal();
        }

        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".compact-tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let write_result = (|| -> Result<u64> {
            let file = joinmi_store::fault::create(&tmp)?;
            let mut buffered = std::io::BufWriter::new(file);
            repo.save_to(&mut buffered)?;
            use std::io::Write as _;
            buffered.flush()?;
            let file = buffered
                .into_inner()
                .map_err(|e| StoreError::Io(e.into_error()))?;
            file.sync_all()?;
            // Verify-before-rename: re-read the temp image and require it to
            // open as a repository. Corruption introduced between the
            // in-memory encoding and the platters never replaces a healthy
            // live file.
            Self::load_mmap_like(&tmp)?;
            Ok(file.metadata()?.len())
        })();
        let bytes_after = match write_result {
            Ok(len) => len,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        if let Err(e) = joinmi_store::fault::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(e));
        }
        Ok(CompactionReport {
            groups_folded,
            bytes_before,
            bytes_after,
            sealed: repo.is_sealed(),
        })
    }
}

/// How [`TableRepository::compact`] rewrites the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactMode {
    /// Fold append groups into a fresh base but keep every candidate's
    /// builder state: the file stays appendable.
    Preserve,
    /// Fold append groups *and* drop all builder state, marking the file
    /// sealed: the leanest read profile, no further appends.
    Seal,
}

/// What a [`TableRepository::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Append groups folded into the new base.
    pub groups_folded: usize,
    /// File size before the rewrite, in bytes.
    pub bytes_before: u64,
    /// File size after the rewrite, in bytes.
    pub bytes_after: u64,
    /// `true` when the rewritten file is sealed.
    pub sealed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::JoinabilityIndex;
    use crate::{CandidateSource, RelationshipQuery, RepositoryConfig};
    use joinmi_sketch::{SketchConfig, SketchKind};
    use joinmi_synth::TaxiScenario;

    fn sample_repo() -> (TableRepository, RelationshipQuery) {
        let scenario = TaxiScenario::generate(40, 15, 3);
        let config = RepositoryConfig {
            sketch: SketchConfig::new(256, 3),
            ..RepositoryConfig::default()
        };
        let mut repo = TableRepository::new(config);
        repo.add_table(scenario.weather.clone()).unwrap();
        repo.add_table(scenario.demographics.clone()).unwrap();
        repo.add_table(scenario.inspections.clone()).unwrap();
        let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 3))
            .with_min_join_size(10);
        (repo, query)
    }

    fn save_bytes(repo: &TableRepository) -> Vec<u8> {
        let mut buf = Vec::new();
        repo.save_to(&mut buf).unwrap();
        buf
    }

    fn fingerprint(results: &[crate::RankedCandidate]) -> Vec<(usize, u64, usize, usize)> {
        results
            .iter()
            .map(|r| {
                (
                    r.candidate_index,
                    r.mi.to_bits(),
                    r.sketch_join_size,
                    r.key_overlap,
                )
            })
            .collect()
    }

    #[test]
    fn save_load_round_trips_candidates_and_profiles() {
        let (repo, _) = sample_repo();
        let bytes = save_bytes(&repo);
        let loaded = TableRepository::load_from(bytes.as_slice()).unwrap();

        assert!(loaded.is_sketch_only());
        assert!(loaded.is_appendable());
        assert_eq!(loaded.num_tables(), repo.num_tables());
        assert_eq!(loaded.profiles(), repo.profiles());
        assert_eq!(loaded.candidates().len(), repo.candidates().len());
        for (a, b) in loaded.candidates().iter().zip(repo.candidates()) {
            assert_eq!(a.table_index, b.table_index);
            assert_eq!(a.label(), b.label());
            assert_eq!(a.aggregation, b.aggregation);
            assert_eq!(a.sketch, b.sketch);
        }
        let cfg = loaded.config();
        assert_eq!(cfg.sketch, repo.config().sketch);
        assert_eq!(cfg.max_pairs_per_table, repo.config().max_pairs_per_table);
    }

    #[test]
    fn encoding_is_canonical_across_save_load_save() {
        let (repo, _) = sample_repo();
        let first = save_bytes(&repo);
        let loaded = TableRepository::load_from(first.as_slice()).unwrap();
        let second = save_bytes(&loaded);
        assert_eq!(first, second);
    }

    #[test]
    fn loaded_repository_answers_queries_bit_identically() {
        let (repo, query) = sample_repo();
        let in_memory = query.execute(&repo).unwrap();
        assert!(!in_memory.is_empty());

        let bytes = save_bytes(&repo);
        let loaded = TableRepository::load_from(bytes.as_slice()).unwrap();
        let from_disk = query.execute(&loaded).unwrap();
        assert_eq!(fingerprint(&in_memory), fingerprint(&from_disk));

        let snapshot = RepositorySnapshot::from_bytes(bytes).unwrap();
        let from_snapshot = query.execute(&snapshot).unwrap();
        assert_eq!(fingerprint(&in_memory), fingerprint(&from_snapshot));
    }

    #[test]
    fn snapshot_decodes_only_pruned_candidates() {
        let (repo, query) = sample_repo();
        let hits = query.execute(&repo).unwrap();
        let snapshot = RepositorySnapshot::from_bytes(save_bytes(&repo)).unwrap();
        assert_eq!(snapshot.decoded_candidates(), 0);
        assert_eq!(snapshot.append_groups(), 0);
        let _ = query.execute(&snapshot).unwrap();
        let decoded = snapshot.decoded_candidates();
        // The weather table's date/hour-keyed candidates never overlap the
        // zipcode query, so laziness must leave some candidates undecoded.
        assert!(decoded >= hits.len());
        assert!(
            decoded < snapshot.candidate_count(),
            "expected some of the {} candidates to stay undecoded, decoded {decoded}",
            snapshot.candidate_count()
        );
    }

    #[test]
    fn sketch_only_repository_rejects_new_tables_and_materialize() {
        let (repo, query) = sample_repo();
        let mut loaded = TableRepository::load_from(save_bytes(&repo).as_slice()).unwrap();
        let ranking = query.execute(&loaded).unwrap();

        let err = loaded
            .add_table(repo.table(0).clone())
            .expect_err("sealed repo must reject new-table ingest");
        assert!(matches!(err, joinmi_table::TableError::Unsupported(_)));

        let plan = crate::AugmentationPlan::new("zipcode", "num_trips", ranking[0].clone());
        let err = plan
            .materialize(&query.train, &loaded)
            .expect_err("sketch-only repo cannot materialize");
        assert!(matches!(err, joinmi_table::TableError::Unsupported(_)));
    }

    #[test]
    fn corrupt_repository_files_give_typed_errors() {
        let (repo, _) = sample_repo();
        let bytes = save_bytes(&repo);

        // Truncations at every interesting boundary.
        for cut in [0, 3, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            match RepositorySnapshot::from_bytes(bytes[..cut].to_vec()) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }

        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[..4].copy_from_slice(b"ELF\x7F");
        assert!(matches!(
            RepositorySnapshot::from_bytes(wrong_magic),
            Err(StoreError::BadMagic { .. })
        ));

        // Future version.
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            RepositorySnapshot::from_bytes(future),
            Err(StoreError::UnsupportedVersion { .. })
        ));

        // Flipped payload bit -> checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            RepositorySnapshot::from_bytes(flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // A candidate count no file of this size could hold is refused
        // before anything is allocated for it.
        let mut pos = 8usize;
        let meta = scan_section(&bytes, &mut pos, SECTION_REPO_META).unwrap();
        let mut lying = bytes.clone();
        lying[meta.start + 33..meta.start + 41].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let fixed = joinmi_store::checksum(&lying[meta.clone()]);
        lying[meta.start - 8..meta.start].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            RepositorySnapshot::from_bytes(lying),
            Err(StoreError::Corrupt(_))
        ));

        // Trailing garbage after the last section.
        let mut trailing = bytes;
        trailing.extend_from_slice(b"junk");
        assert!(matches!(
            RepositorySnapshot::from_bytes(trailing),
            Err(StoreError::Corrupt(_)
                | StoreError::Truncated { .. }
                | StoreError::UnexpectedSection { .. })
        ));
    }

    #[test]
    fn checksum_valid_but_malformed_candidate_is_corrupt_not_a_panic() {
        // A checksum proves integrity, not decodability: craft a file whose
        // first CANDIDATE payload carries an invalid aggregation tag under a
        // correct checksum. Open must return a typed error, so the lazy
        // decode (the same parse, run again on first touch) cannot fail.
        let (repo, _) = sample_repo();
        let mut bytes = save_bytes(&repo);

        let mut pos = 8usize;
        for tag in [
            SECTION_REPO_META,
            SECTION_PROFILES,
            SECTION_FEATURE_DISTINCT,
            SECTION_INDEX,
        ] {
            joinmi_store::scan_section(&bytes, &mut pos, tag).unwrap();
        }
        let payload = joinmi_store::scan_section(&bytes, &mut pos, SECTION_CANDIDATE).unwrap();

        // Locate the aggregation tag inside the payload: u64 index, 3 strings.
        let mut walker = joinmi_store::SliceReader::new(&bytes[payload.clone()]);
        walker.read_len("index").unwrap();
        for _ in 0..3 {
            walker.read_str("s").unwrap();
        }
        let agg_offset = payload.start + walker.position();
        bytes[agg_offset] = 99;
        let fixed = joinmi_store::checksum(&bytes[payload.clone()]);
        bytes[payload.start - 8..payload.start].copy_from_slice(&fixed.to_le_bytes());

        assert!(matches!(
            RepositorySnapshot::from_bytes(bytes.clone()),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            TableRepository::load_from(bytes.as_slice()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn index_postings_must_be_covered_by_digest_counts() {
        // A posting id with no digest-count entry would make queries size
        // their overlap counters too small; the loader must reject it.
        let inconsistent = JoinabilityIndex::from_canonical_parts(
            vec![(42u64, vec![5usize])],
            vec![(0usize, 1usize)],
        );
        let mut w = joinmi_store::Writer::new(Vec::new());
        sections::write_index(&mut w, &inconsistent).unwrap();
        let bytes = w.into_inner();
        let mut pos = 0usize;
        let payload = joinmi_store::scan_section(&bytes, &mut pos, SECTION_INDEX).unwrap();
        assert!(matches!(
            sections::read_index(&bytes[payload], 6),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let (repo, query) = sample_repo();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-persist-test-{}.jmi", std::process::id()));

        repo.save(&path).unwrap();
        let loaded = TableRepository::load(&path).unwrap();
        let snapshot = TableRepository::load_mmap_like(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let a = query.execute(&repo).unwrap();
        let b = query.execute(&loaded).unwrap();
        let c = query.execute(&snapshot).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    // -- append path ------------------------------------------------------

    /// Splits the demographics table of a fresh scenario into a prefix and a
    /// tail chunk.
    fn scenario_with_split(
        split: usize,
    ) -> (TableRepository, RelationshipQuery, joinmi_table::Table) {
        let scenario = TaxiScenario::generate(40, 15, 3);
        let config = RepositoryConfig {
            sketch: SketchConfig::new(256, 3),
            ..RepositoryConfig::default()
        };
        let demo = scenario.demographics.clone();
        let prefix = demo.slice_rows(0..split);
        let tail = demo.slice_rows(split..demo.num_rows());
        let mut repo = TableRepository::new(config);
        repo.add_table(scenario.weather.clone()).unwrap();
        repo.add_table(prefix).unwrap();
        repo.add_table(scenario.inspections.clone()).unwrap();
        let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 3))
            .with_min_join_size(10);
        (repo, query, tail)
    }

    #[test]
    fn file_append_group_round_trips_and_matches_flat_save() {
        let (repo, query, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-append-test-{}.jmi", std::process::id()));
        repo.save(&path).unwrap();

        // Daemon flow: reload the persisted repository, append rows, extend
        // the file in place.
        let mut reloaded = TableRepository::load(&path).unwrap();
        let appended = reloaded.append_rows(&tail).unwrap();
        assert!(appended > 0);
        let before = std::fs::metadata(&path).unwrap().len();
        reloaded.append_to(&path).unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after > before, "append must grow the file");
        // Appending again with no pending changes is a no-op.
        reloaded.append_to(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), after);

        // The appended file opens with one append group and answers queries
        // bit-identically to the in-memory appended repository…
        let snapshot = TableRepository::load_mmap_like(&path).unwrap();
        assert_eq!(snapshot.append_groups(), 1);
        let from_disk = query.execute(&snapshot).unwrap();
        let in_memory = query.execute(&reloaded).unwrap();
        assert_eq!(fingerprint(&from_disk), fingerprint(&in_memory));

        // …and to an in-memory repository that appended without persisting.
        let (mut direct, _, tail2) = scenario_with_split(8);
        direct.append_rows(&tail2).unwrap();
        assert_eq!(
            fingerprint(&from_disk),
            fingerprint(&query.execute(&direct).unwrap())
        );

        // A flat save of the appended repository loads identically too.
        let flat_path = dir.join(format!("joinmi-append-flat-{}.jmi", std::process::id()));
        reloaded.save(&flat_path).unwrap();
        let flat = TableRepository::load(&flat_path).unwrap();
        assert_eq!(
            fingerprint(&in_memory),
            fingerprint(&query.execute(&flat).unwrap())
        );

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&flat_path).unwrap();
    }

    #[test]
    fn torn_append_group_is_a_typed_error_never_a_panic() {
        let (repo, _, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-torn-append-{}.jmi", std::process::id()));
        repo.save(&path).unwrap();
        let base_len = std::fs::metadata(&path).unwrap().len() as usize;

        let mut reloaded = TableRepository::load(&path).unwrap();
        reloaded.append_rows(&tail).unwrap();
        reloaded.append_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(bytes.len() > base_len);

        // Every torn prefix of the append group must fail typed; the base
        // artifact alone must still open.
        assert!(RepositorySnapshot::from_bytes(bytes[..base_len].to_vec()).is_ok());
        for cut in [
            base_len + 1,
            base_len + 17,
            (base_len + bytes.len()) / 2,
            bytes.len() - 1,
        ] {
            match RepositorySnapshot::from_bytes(bytes[..cut].to_vec()) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }

        // A flipped bit inside the group is a checksum mismatch.
        let mut flipped = bytes.clone();
        let target = base_len + (bytes.len() - base_len) / 2;
        flipped[target] ^= 0x10;
        assert!(matches!(
            RepositorySnapshot::from_bytes(flipped),
            Err(StoreError::ChecksumMismatch { .. } | StoreError::Corrupt(_))
        ));
    }

    /// A reader that hands out 1 to 7 bytes per call, so frames, payloads
    /// and the file header arrive split at every possible offset.
    struct Trickle<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = (1 + self.calls % 7).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// A snapshot streamed in 1- to 7-byte reads equals the one walked over
    /// a slice — on files with 0 to 4 append groups and a sealed one — and
    /// a damaged file fails with the same error either way.
    #[test]
    fn streamed_open_equals_the_open_over_a_slice() {
        let (repo, query, tail) = scenario_with_split(8);
        let path = std::env::temp_dir().join(format!(
            "joinmi-stream-open-{}-{:?}.jmi",
            std::process::id(),
            std::thread::current().id()
        ));
        repo.save(&path).unwrap();
        let mut boundaries = vec![std::fs::metadata(&path).unwrap().len() as usize];
        let mut reloaded = TableRepository::load(&path).unwrap();
        let step = tail.num_rows().div_ceil(4);
        for start in (0..tail.num_rows()).step_by(step) {
            let end = (start + step).min(tail.num_rows());
            reloaded.append_rows(&tail.slice_rows(start..end)).unwrap();
            reloaded.append_to(&path).unwrap();
            boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut sealed = reloaded;
        sealed.seal();

        let open_streamed = |file: &[u8]| {
            let input = Trickle {
                bytes: file,
                calls: 0,
            };
            RepositorySnapshot::read_from(
                std::io::BufReader::with_capacity(16, input),
                file.len() as u64,
            )
        };
        // Damaged files fail with the same error either way.
        for cut in (0..bytes.len()).step_by(61) {
            let mut damaged = bytes[..cut].to_vec();
            if let Some(byte) = damaged.get_mut(cut / 2) {
                *byte ^= u8::from(cut % 3 == 0);
            }
            assert_eq!(
                format!("{:?}", open_streamed(&damaged).map(|s| s.append_groups())),
                format!(
                    "{:?}",
                    RepositorySnapshot::from_bytes(damaged).map(|s| s.append_groups())
                ),
                "cut at {cut}"
            );
        }

        let mut files: Vec<(Vec<u8>, usize)> = boundaries
            .iter()
            .enumerate()
            .map(|(groups, &end)| (bytes[..end].to_vec(), groups))
            .collect();
        files.push((save_bytes(&sealed), 0));
        assert_eq!(files.len(), 6, "0 to 4 append groups, and a sealed file");
        for (file, groups) in files {
            let whole = RepositorySnapshot::from_bytes(file.clone()).unwrap();
            let streamed = open_streamed(&file).unwrap();
            assert_eq!(streamed.append_groups(), groups);
            assert_eq!(whole.append_groups(), groups);
            assert_eq!(streamed.appended_bytes(), whole.appended_bytes());
            assert_eq!(streamed.sealed(), whole.sealed());
            assert_eq!(streamed.profiles(), whole.profiles());
            assert_eq!(streamed.decoded_candidates(), 0);
            assert_eq!(whole.decoded_candidates(), 0);
            assert_eq!(
                fingerprint(&query.execute(&streamed).unwrap()),
                fingerprint(&query.execute(&whole).unwrap()),
                "{groups} groups, sealed: {}",
                whole.sealed()
            );
        }
    }

    /// Builds a repository file with two append groups and returns its bytes
    /// plus the durable boundaries: [base_end, group1_end, group2_end].
    fn appended_repo_bytes() -> (Vec<u8>, Vec<usize>, RelationshipQuery) {
        let (repo, query, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "joinmi-recover-build-{}-{:?}.jmi",
            std::process::id(),
            std::thread::current().id()
        ));
        repo.save(&path).unwrap();
        let mut boundaries = vec![std::fs::metadata(&path).unwrap().len() as usize];

        let mut reloaded = TableRepository::load(&path).unwrap();
        let split = tail.num_rows() / 2;
        reloaded.append_rows(&tail.slice_rows(0..split)).unwrap();
        reloaded.append_to(&path).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        reloaded
            .append_rows(&tail.slice_rows(split..tail.num_rows()))
            .unwrap();
        reloaded.append_to(&path).unwrap();
        boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);

        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (bytes, boundaries, query)
    }

    #[test]
    fn recover_truncated_repairs_every_truncation_offset() {
        let (bytes, boundaries, query) = appended_repo_bytes();
        let base_end = boundaries[0];
        let path =
            std::env::temp_dir().join(format!("joinmi-recover-sweep-{}.jmi", std::process::id()));

        // Expected post-repair ranking per boundary, computed once.
        let rankings: Vec<_> = boundaries
            .iter()
            .map(|&b| {
                let snap = RepositorySnapshot::from_bytes(bytes[..b].to_vec()).unwrap();
                fingerprint(&query.execute(&snap).unwrap())
            })
            .collect();
        let mut ranked_boundaries = vec![false; boundaries.len()];

        // The file always holds a prefix of `bytes` (the repaired prefix of
        // the previous cut), so each cut is produced by appending the
        // missing bytes, never by rewriting the file. Only the repair shrinks
        // it, and only by bytes that were never synced: a shrink or unlink
        // of synced data waits on the disk, tens of ms per cut on a busy one.
        std::fs::write(&path, &bytes[..base_end]).unwrap();
        let mut file_len = base_end;
        for cut in base_end + 1..bytes.len() {
            std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap()
                .write_all(&bytes[file_len..cut])
                .unwrap();
            let report = TableRepository::recover_truncated(&path).unwrap();
            let (bi, &expected) = boundaries
                .iter()
                .enumerate()
                .rfind(|&(_, &b)| b <= cut)
                .unwrap();
            assert_eq!(report.recovered_len, expected as u64, "cut at {cut}");
            assert_eq!(report.file_len, cut as u64, "cut at {cut}");
            assert_eq!(report.is_torn(), cut != expected, "cut at {cut}");
            assert_eq!(report.complete_groups, bi, "cut at {cut}");

            // The repaired file is the exact durable prefix (and, for torn
            // cuts, recover_truncated already re-opened it before shrinking).
            let repaired = std::fs::read(&path).unwrap();
            assert_eq!(repaired, &bytes[..expected], "cut at {cut}");
            file_len = expected;

            // Idempotent: once per boundary, a second pass over a repaired
            // torn file is a no-op that leaves its bytes alone.
            if cut == expected + 1 {
                let again = TableRepository::recover_truncated(&path).unwrap();
                assert!(!again.is_torn(), "cut at {cut}");
                assert_eq!(again.recovered_len, expected as u64, "cut at {cut}");
                assert_eq!(std::fs::read(&path).unwrap(), repaired, "cut at {cut}");
            }

            // Once per reachable boundary, also pin that the repaired file
            // answers queries as that prefix of the append history.
            if !ranked_boundaries[bi] {
                ranked_boundaries[bi] = true;
                let snap = RepositorySnapshot::from_bytes(repaired).unwrap();
                assert_eq!(snap.append_groups(), bi, "cut at {cut}");
                assert_eq!(
                    fingerprint(&query.execute(&snap).unwrap()),
                    rankings[bi],
                    "cut at {cut}"
                );
            }
        }
        assert!(ranked_boundaries[..2].iter().all(|&r| r));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_truncated_never_drops_base_data() {
        let (bytes, boundaries, _) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-recover-base-{}.jmi", std::process::id()));

        // Truncation inside the base payload is unrecoverable: typed error,
        // file untouched.
        let cut = boundaries[0] / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(TableRepository::recover_truncated(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap().len(), cut);

        // A flipped bit inside the base is damage, not a torn append.
        let mut flipped = bytes.clone();
        flipped[boundaries[0] / 2] ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        assert!(TableRepository::recover_truncated(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), flipped);

        // An intact file is a no-op.
        std::fs::write(&path, &bytes).unwrap();
        let report = TableRepository::recover_truncated(&path).unwrap();
        assert!(!report.is_torn());
        assert_eq!(report.complete_groups, 2);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        std::fs::remove_file(&path).unwrap();
    }

    // -- compaction + sealing ---------------------------------------------

    #[test]
    fn compact_folds_append_groups_bit_for_bit() {
        let (bytes, _, query) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-compact-fold-{}.jmi", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let before = RepositorySnapshot::from_bytes(bytes.clone()).unwrap();
        let expected = fingerprint(&query.execute(&before).unwrap());
        assert_eq!(before.append_groups(), 2);
        assert!(before.appended_bytes() > 0);

        let report = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert_eq!(report.groups_folded, 2);
        assert_eq!(report.bytes_before, bytes.len() as u64);
        assert!(!report.sealed);

        let snap = TableRepository::load_mmap_like(&path).unwrap();
        assert_eq!(snap.append_groups(), 0);
        assert_eq!(snap.appended_bytes(), 0);
        assert!(!snap.sealed());
        assert_eq!(fingerprint(&query.execute(&snap).unwrap()), expected);

        // Preserve mode keeps the file appendable: a load → append → append_to
        // cycle still works against the compacted file.
        let mut reloaded = TableRepository::load(&path).unwrap();
        assert!(reloaded.is_appendable());
        let extra = joinmi_synth::TaxiScenario::generate(40, 15, 3)
            .demographics
            .slice_rows(0..3);
        reloaded.append_rows(&extra).unwrap();
        reloaded.append_to(&path).unwrap();
        assert_eq!(
            TableRepository::load_mmap_like(&path)
                .unwrap()
                .append_groups(),
            1
        );

        // Compaction is idempotent and canonical: compacting the compacted
        // file again reproduces its exact bytes.
        TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        let first = std::fs::read(&path).unwrap();
        let report = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert_eq!(report.groups_folded, 0);
        assert_eq!(std::fs::read(&path).unwrap(), first);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seal_compaction_drops_state_and_rejects_appends() {
        let (bytes, _, query) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-compact-seal-{}.jmi", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let expected = {
            let snap = RepositorySnapshot::from_bytes(bytes.clone()).unwrap();
            fingerprint(&query.execute(&snap).unwrap())
        };

        let report = TableRepository::compact(&path, CompactMode::Seal).unwrap();
        assert_eq!(report.groups_folded, 2);
        assert!(report.sealed);
        assert!(
            report.bytes_after < report.bytes_before,
            "sealing must shed appended history and builder state \
             ({} -> {})",
            report.bytes_before,
            report.bytes_after
        );

        // Queries against the sealed file are bit-identical.
        let snap = TableRepository::load_mmap_like(&path).unwrap();
        assert!(snap.sealed());
        assert_eq!(snap.append_groups(), 0);
        assert_eq!(fingerprint(&query.execute(&snap).unwrap()), expected);

        // In-memory: a loaded sealed repository rejects all ingest, typed.
        let mut sealed = TableRepository::load(&path).unwrap();
        assert!(sealed.is_sealed());
        assert!(!sealed.is_appendable());
        let chunk = joinmi_synth::TaxiScenario::generate(40, 15, 3)
            .demographics
            .slice_rows(0..3);
        let err = sealed.append_rows(&chunk).expect_err("sealed repo");
        assert!(matches!(err, joinmi_table::TableError::Sealed(_)));

        // On disk: appending a group to the sealed file is typed too, and
        // leaves the file untouched.
        let (mut other, _, tail) = scenario_with_split(8);
        other.append_rows(&tail).unwrap();
        let file_before = std::fs::read(&path).unwrap();
        let err = other.append_to(&path).expect_err("sealed file");
        assert!(matches!(err, StoreError::Sealed { .. }));
        assert_eq!(std::fs::read(&path).unwrap(), file_before);

        // Sealing is sticky through another compaction.
        let report = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert!(report.sealed);
        assert!(TableRepository::load_mmap_like(&path).unwrap().sealed());

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sealing_in_memory_rejects_ingest_and_saves_lean() {
        let (mut repo, query) = sample_repo();
        let expected = fingerprint(&query.execute(&repo).unwrap());
        let unsealed_len = save_bytes(&repo).len();
        repo.seal();
        assert!(repo.is_sealed());
        let err = repo
            .add_table(demo_sealed_table())
            .expect_err("sealed repo rejects new tables");
        assert!(matches!(err, joinmi_table::TableError::Sealed(_)));

        let sealed_bytes = save_bytes(&repo);
        assert!(
            sealed_bytes.len() < unsealed_len,
            "sealed save must drop builder state ({unsealed_len} -> {})",
            sealed_bytes.len()
        );
        let loaded = TableRepository::load_from(sealed_bytes.as_slice()).unwrap();
        assert!(loaded.is_sealed());
        assert_eq!(fingerprint(&query.execute(&loaded).unwrap()), expected);
    }

    fn demo_sealed_table() -> joinmi_table::Table {
        joinmi_table::Table::builder("late")
            .push_str_column("k", vec!["a", "b"])
            .push_int_column("v", vec![1, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn compact_composes_with_recover_truncated() {
        let (bytes, boundaries, query) = appended_repo_bytes();
        let path =
            std::env::temp_dir().join(format!("joinmi-compact-recover-{}.jmi", std::process::id()));

        // Tear the file mid-second-group, repair, then compact: the result
        // must rank exactly as the surviving one-group prefix.
        let cut = (boundaries[1] + boundaries[2]) / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let report = TableRepository::recover_truncated(&path).unwrap();
        assert!(report.is_torn());
        assert_eq!(report.complete_groups, 1);
        let expected = {
            let snap = RepositorySnapshot::from_bytes(bytes[..boundaries[1]].to_vec()).unwrap();
            fingerprint(&query.execute(&snap).unwrap())
        };

        let compaction = TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        assert_eq!(compaction.groups_folded, 1);
        let snap = TableRepository::load_mmap_like(&path).unwrap();
        assert_eq!(snap.append_groups(), 0);
        assert_eq!(fingerprint(&query.execute(&snap).unwrap()), expected);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_compacted_files_are_typed_errors() {
        // The compacted (sealed) writer produces a new layout — sweep
        // truncation offsets over it like the original corrupt-input suite.
        let (bytes, _, _) = appended_repo_bytes();
        let path = std::env::temp_dir().join(format!(
            "joinmi-compact-truncate-{}.jmi",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        TableRepository::compact(&path, CompactMode::Seal).unwrap();
        let sealed = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert!(RepositorySnapshot::from_bytes(sealed.clone()).is_ok());
        for cut in (0..sealed.len()).step_by(61).chain([sealed.len() - 1]) {
            match RepositorySnapshot::from_bytes(sealed[..cut].to_vec()) {
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }

        // A sealed file with trailing bytes (a smuggled append group) is
        // rejected outright.
        let mut trailing = sealed;
        trailing.extend_from_slice(&bytes[bytes.len() - 64..]);
        assert!(matches!(
            RepositorySnapshot::from_bytes(trailing),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn appended_distinct_counts_stay_fresh() {
        // Regression for the PR 5 trade-off: feature-column distinct counts
        // used to freeze at their base-ingest values under appends.
        let (mut repo, _, tail) = scenario_with_split(8);
        let table_index = repo
            .profiles()
            .iter()
            .position(|p| p.table == tail.name())
            .unwrap();
        let before: Vec<usize> = repo.profiles()[table_index]
            .columns
            .iter()
            .map(|c| c.distinct)
            .collect();
        repo.append_rows(&tail).unwrap();
        let after: Vec<usize> = repo.profiles()[table_index]
            .columns
            .iter()
            .map(|c| c.distinct)
            .collect();
        assert!(
            after.iter().zip(&before).any(|(a, b)| a > b),
            "appending fresh rows must raise at least one distinct count \
             (before {before:?}, after {after:?})"
        );
        // And the freshened counts survive a persistence round-trip.
        let reloaded = TableRepository::load_from(save_bytes(&repo).as_slice()).unwrap();
        let persisted: Vec<usize> = reloaded.profiles()[table_index]
            .columns
            .iter()
            .map(|c| c.distinct)
            .collect();
        assert_eq!(after, persisted);
    }

    #[test]
    fn append_to_rejects_mismatched_target() {
        let (mut repo, _, tail) = scenario_with_split(8);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("joinmi-append-mismatch-{}.jmi", std::process::id()));

        // Persist a *different* repository (one table only) as the target.
        let scenario = TaxiScenario::generate(40, 15, 3);
        let mut other = TableRepository::new(RepositoryConfig {
            sketch: SketchConfig::new(256, 3),
            ..RepositoryConfig::default()
        });
        other.add_table(scenario.weather).unwrap();
        other.save(&path).unwrap();

        repo.append_rows(&tail).unwrap();
        let err = repo.append_to(&path).expect_err("mismatched target");
        assert!(matches!(err, StoreError::Corrupt(_)));
        std::fs::remove_file(&path).unwrap();
    }
}
