//! The read side: [`RepositorySnapshot`] walks a whole repository artifact
//! once at open — every section checksum, every structure a query can reach —
//! and decodes candidates on first touch.

use std::ops::Range;
use std::sync::OnceLock;

use joinmi_sketch::RightSketchBuilder;
use joinmi_store::{read_header, scan_section, ArtifactKind, Result, SliceReader, StoreError};

use super::sections::{
    check_candidate_id, read_append_meta, read_distincts, read_index, read_index_delta,
    read_profiles, read_repo_meta, split_candidate_state, CandidateView, Distincts,
    SECTION_APPEND_META, SECTION_CANDIDATE, SECTION_CANDIDATE_STATE, SECTION_CANDIDATE_UPDATE,
    SECTION_FEATURE_DISTINCT, SECTION_INDEX, SECTION_INDEX_DELTA, SECTION_PROFILES,
    SECTION_REPO_META,
};
use crate::index::JoinabilityIndex;
use crate::profile::TableProfile;
use crate::repository::{CandidateColumn, CandidateSource, RepositoryConfig, TableRepository};

/// A candidate section that decodes its [`CandidateColumn`] on first access.
#[derive(Debug)]
struct LazyCandidate {
    /// Byte range of the candidate body inside [`RepositorySnapshot::buf`]
    /// (checksummed and parsed at open). For a candidate refreshed by an
    /// append group this points into the latest CANDIDATE_UPDATE.
    body: Range<usize>,
    /// Byte range of the serialized builder state, when present
    /// (checksummed at open, never interpreted by the snapshot).
    state: Option<Range<usize>>,
    cell: OnceLock<CandidateColumn>,
}

/// A read-only repository view over a single in-memory copy of the file.
///
/// Produced by [`TableRepository::load_mmap_like`]. All section checksums are
/// verified at open — including every append group's; truncation, bit rot,
/// torn appends, wrong magic, and other format versions all surface as typed
/// [`StoreError`]s, never panics. After open, candidate sketches are decoded
/// lazily: a query that prunes to `k` candidates through the persisted
/// joinability index decodes exactly those `k` sketches and leaves the rest
/// as raw bytes. Builder state is interpreted by nothing on this path, so it
/// is only checksummed; [`Self::into_repository`] is where it is decoded and
/// validated.
#[derive(Debug)]
pub struct RepositorySnapshot {
    buf: Vec<u8>,
    config: RepositoryConfig,
    num_tables: usize,
    profiles: Vec<TableProfile>,
    distincts: Distincts,
    index: JoinabilityIndex,
    candidates: Vec<LazyCandidate>,
    /// Number of append groups the artifact carried.
    append_groups: usize,
    /// Byte length of the base image (everything before the first append
    /// group); `buf.len() - base_len` is the appended-history weight.
    base_len: usize,
    /// `true` when the artifact is sealed.
    sealed: bool,
}

impl RepositorySnapshot {
    /// Parses a repository artifact held in memory, verifying the header and
    /// every section checksum up front and applying any append groups.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self> {
        let mut header = SliceReader::new(&buf);
        read_header(&mut header, ArtifactKind::Repository)?;
        let mut pos = header.position();

        let meta = read_repo_meta(&buf[scan_section(&buf, &mut pos, SECTION_REPO_META)?])?;
        // Every candidate owns a section of the file, so a count beyond the
        // file's length is a lie — refused before anything is sized by it.
        if meta.num_candidates > buf.len() {
            return Err(StoreError::corrupt(format!(
                "repository claims {} candidates in a {}-byte file",
                meta.num_candidates,
                buf.len()
            )));
        }
        let mut profiles = read_profiles(
            &buf[scan_section(&buf, &mut pos, SECTION_PROFILES)?],
            meta.num_tables,
        )?;
        let mut distincts = read_distincts(
            &buf[scan_section(&buf, &mut pos, SECTION_FEATURE_DISTINCT)?],
            &profiles,
        )?;
        let mut index = read_index(
            &buf[scan_section(&buf, &mut pos, SECTION_INDEX)?],
            meta.num_candidates,
        )?;

        // A candidate's body is parsed here and again — by the same function
        // — when it is first touched, so that lazy decode cannot fail: a
        // checksum-valid but malformed body is a typed error at open.
        let scan_candidate = |pos: &mut usize, body: Range<usize>| -> Result<LazyCandidate> {
            CandidateView::parse(&buf[body.clone()], meta.num_tables)?;
            // Sealed files carry no builder state at all (that is the point
            // of sealing); appendable files carry one per candidate.
            let state = if meta.sealed {
                None
            } else {
                let payload = scan_section(&buf, pos, SECTION_CANDIDATE_STATE)?;
                split_candidate_state(&buf, payload)?
            };
            Ok(LazyCandidate {
                body,
                state,
                cell: OnceLock::new(),
            })
        };

        let mut candidates = Vec::with_capacity(meta.num_candidates);
        for _ in 0..meta.num_candidates {
            let body = scan_section(&buf, &mut pos, SECTION_CANDIDATE)?;
            candidates.push(scan_candidate(&mut pos, body)?);
        }
        let base_len = pos;
        if meta.sealed && pos < buf.len() {
            return Err(StoreError::corrupt(
                "sealed repository file carries trailing bytes (append groups are not \
                 allowed after a seal)",
            ));
        }

        // Append groups: replace updated candidates' byte ranges, replay
        // index deltas, adopt refreshed profiles + distinct sketches.
        let mut append_groups = 0usize;
        while pos < buf.len() {
            let (updated, new_profiles, new_distincts) = read_append_meta(
                &buf[scan_section(&buf, &mut pos, SECTION_APPEND_META)?],
                meta.num_tables,
            )?;
            for _ in 0..updated {
                let payload = scan_section(&buf, &mut pos, SECTION_CANDIDATE_UPDATE)?;
                let mut p = SliceReader::new(&buf[payload.clone()]);
                let id = p.read_len("updated candidate id")?;
                check_candidate_id(id, meta.num_candidates)?;
                let body = payload.start + p.position()..payload.end;
                candidates[id] = scan_candidate(&mut pos, body)?;
            }
            let delta_payload = scan_section(&buf, &mut pos, SECTION_INDEX_DELTA)?;
            for delta in read_index_delta(&buf[delta_payload], meta.num_candidates)? {
                index.apply_delta(&delta);
            }
            profiles = new_profiles;
            distincts = new_distincts;
            append_groups += 1;
        }

        Ok(Self {
            config: meta.config,
            num_tables: meta.num_tables,
            profiles,
            distincts,
            index,
            candidates,
            append_groups,
            base_len,
            sealed: meta.sealed,
            buf,
        })
    }

    /// The repository configuration recorded at ingest time.
    #[must_use]
    pub fn config(&self) -> RepositoryConfig {
        self.config
    }

    /// Number of tables the repository was built from.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.num_tables
    }

    /// Profiles of the ingested tables (refreshed by append groups).
    #[must_use]
    pub fn profiles(&self) -> &[TableProfile] {
        &self.profiles
    }

    /// Number of append groups the artifact carried (0 for a flat save).
    #[must_use]
    pub fn append_groups(&self) -> usize {
        self.append_groups
    }

    /// Bytes of appended history after the base image (0 for a flat save) —
    /// the weight [`TableRepository::compact`] would fold away.
    #[must_use]
    pub fn appended_bytes(&self) -> usize {
        self.buf.len() - self.base_len
    }

    /// `true` when the artifact is sealed: no builder state on disk, and
    /// further on-disk appends are rejected with [`StoreError::Sealed`].
    #[must_use]
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Number of candidate sketches already decoded (observability for the
    /// lazy path; a fresh snapshot reports 0).
    #[must_use]
    pub fn decoded_candidates(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| c.cell.get().is_some())
            .count()
    }

    /// Decodes every candidate and its builder state, when present, and
    /// assembles a sketch-only [`TableRepository`]. This is where builder
    /// state is first interpreted: a state that is checksum-valid but
    /// structurally or semantically invalid is a typed error here, while the
    /// snapshot it came from keeps serving queries.
    pub fn into_repository(self) -> Result<TableRepository> {
        let buf = &self.buf;
        let builders = self
            .candidates
            .iter()
            .map(|lazy| {
                let Some(state) = lazy.state.clone() else {
                    return Ok(None);
                };
                let mut p = SliceReader::new(&buf[state]);
                let builder = RightSketchBuilder::read_state(&mut p)?;
                p.expect_consumed("CANDIDATE_STATE section")?;
                Ok(Some(builder))
            })
            .collect::<Result<Vec<Option<RightSketchBuilder>>>>()?;
        let candidates = self
            .candidates
            .into_iter()
            .map(|lazy| {
                lazy.cell
                    .into_inner()
                    .unwrap_or_else(|| decode_candidate(buf, lazy.body, self.num_tables))
            })
            .collect();
        Ok(TableRepository::from_loaded_parts(
            self.config,
            self.profiles,
            candidates,
            self.index,
            builders,
            self.distincts,
            self.sealed,
        ))
    }
}

/// Decodes a candidate body that [`RepositorySnapshot::from_bytes`] already
/// parsed: the same [`CandidateView::parse`] accepted these bytes at open,
/// so it accepts them again.
fn decode_candidate(buf: &[u8], body: Range<usize>, num_tables: usize) -> CandidateColumn {
    CandidateView::parse(&buf[body], num_tables)
        .expect("candidate body parsed by the same function at open")
        .to_candidate()
}

impl CandidateSource for RepositorySnapshot {
    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn candidate(&self, index: usize) -> &CandidateColumn {
        let lazy = &self.candidates[index];
        lazy.cell
            .get_or_init(|| decode_candidate(&self.buf, lazy.body.clone(), self.num_tables))
    }

    fn joinability(&self) -> &JoinabilityIndex {
        &self.index
    }

    fn key_distinct_bound(&self, index: usize) -> Option<usize> {
        // Resolving the bound decodes the candidate (key-column name), which
        // the scoring path was about to do anyway for any candidate it joins;
        // pruned candidates pay one decode but skip the join and estimate.
        crate::repository::key_distinct_bound_from(
            self.candidate(index),
            &self.profiles,
            &self.distincts,
        )
    }
}
