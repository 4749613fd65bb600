//! The read side: [`RepositorySnapshot`] walks a whole repository artifact
//! once at open — every section checksum, every structure a query can reach —
//! keeps the latest bytes of each candidate and decodes candidates on first
//! touch.

use std::io::BufRead;
use std::sync::OnceLock;

use joinmi_sketch::RightSketchBuilder;
use joinmi_store::{ArtifactKind, Result, SectionStream, SliceReader, StoreError};

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

/// A checksum-verified section payload kept past open, and where the bytes
/// it stands for start inside it: after a CANDIDATE_UPDATE's candidate id,
/// after a CANDIDATE_STATE's presence flag.
#[derive(Debug)]
struct Kept {
    payload: Vec<u8>,
    start: usize,
}

impl Kept {
    fn bytes(&self) -> &[u8] {
        &self.payload[self.start..]
    }
}

/// A candidate section that decodes its [`CandidateColumn`] on first access.
#[derive(Debug)]
struct LazyCandidate {
    /// The candidate body (checksummed and parsed at open). For a candidate
    /// refreshed by an append group, the latest CANDIDATE_UPDATE's body; the
    /// bytes it replaced are dropped when the group is read.
    body: Kept,
    /// The serialized builder state, when present (checksummed at open,
    /// never interpreted by the snapshot).
    state: Option<Kept>,
    cell: OnceLock<CandidateColumn>,
}

/// A read-only repository view that owns the latest bytes of each candidate.
///
/// Produced by [`TableRepository::load_mmap_like`], which streams the file
/// through one walk: every section checksum is verified at open — including
/// every append group's — and truncation, bit rot, torn appends, wrong magic,
/// and other format versions all surface as typed [`StoreError`]s, never
/// panics. The walk keeps each candidate's body and builder state from the
/// last section that wrote them and nothing else: sections an append group
/// superseded are dropped as the walk passes them. After open, candidate
/// sketches are decoded lazily: a query that prunes to `k` candidates through
/// the persisted joinability index decodes exactly those `k` sketches and
/// leaves the rest as raw bytes. Builder state is interpreted by nothing on
/// this path, so it is only checksummed; [`Self::into_repository`] is where
/// it is decoded and validated.
#[derive(Debug)]
pub struct RepositorySnapshot {
    config: RepositoryConfig,
    num_tables: usize,
    profiles: Vec<TableProfile>,
    distincts: Distincts,
    index: JoinabilityIndex,
    candidates: Vec<LazyCandidate>,
    /// Number of append groups the artifact carried.
    append_groups: usize,
    /// Byte length of the artifact.
    file_len: u64,
    /// Byte length of the base image (everything before the first append
    /// group); `file_len - base_len` is the appended-history weight.
    base_len: u64,
    /// `true` when the artifact is sealed.
    sealed: bool,
}

impl RepositorySnapshot {
    /// Parses a repository artifact held in memory, verifying the header and
    /// every section checksum up front and applying any append groups — the
    /// walk [`TableRepository::load_mmap_like`] runs over a file, run over
    /// `buf`.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self> {
        Self::read_from(buf.as_slice(), buf.len() as u64)
    }

    /// The open-time walk: reads the `len`-byte artifact from `input` one
    /// section at a time, verifying every checksum, parsing every candidate
    /// body and replaying every append group.
    pub(super) fn read_from<R: BufRead>(input: R, len: u64) -> Result<Self> {
        let mut s = SectionStream::new(input, len);
        s.read_header(ArtifactKind::Repository)?;

        let meta = read_repo_meta(&s.section(SECTION_REPO_META)?)?;
        // Every candidate owns a section of the file, so a count beyond the
        // file's length is a lie — refused before anything is sized by it.
        if meta.num_candidates as u64 > len {
            return Err(StoreError::corrupt(format!(
                "repository claims {} candidates in a {len}-byte file",
                meta.num_candidates,
            )));
        }
        let mut profiles = read_profiles(&s.section(SECTION_PROFILES)?, meta.num_tables)?;
        let mut distincts = read_distincts(&s.section(SECTION_FEATURE_DISTINCT)?, &profiles)?;
        let mut index = read_index(&s.section(SECTION_INDEX)?, meta.num_candidates)?;

        // A candidate's body is parsed here and again — by the same function
        // — when it is first touched, so that lazy decode cannot fail: a
        // checksum-valid but malformed body is a typed error at open.
        let read_candidate = |s: &mut SectionStream<R>, body: Kept| -> Result<LazyCandidate> {
            CandidateView::parse(body.bytes(), meta.num_tables)?;
            // Sealed files carry no builder state at all (that is the point
            // of sealing); appendable files carry one per candidate.
            let state = if meta.sealed {
                None
            } else {
                let payload = s.section(SECTION_CANDIDATE_STATE)?;
                split_candidate_state(&payload)?.map(|start| Kept { payload, start })
            };
            Ok(LazyCandidate {
                body,
                state,
                cell: OnceLock::new(),
            })
        };

        let mut candidates = Vec::with_capacity(meta.num_candidates);
        for _ in 0..meta.num_candidates {
            let payload = s.section(SECTION_CANDIDATE)?;
            candidates.push(read_candidate(&mut s, Kept { payload, start: 0 })?);
        }
        let base_len = s.position();
        if meta.sealed && !s.at_end()? {
            return Err(StoreError::corrupt(
                "sealed repository file carries trailing bytes (append groups are not \
                 allowed after a seal)",
            ));
        }

        // Append groups: replace updated candidates' bytes, replay index
        // deltas, adopt refreshed profiles + distinct sketches.
        let mut append_groups = 0usize;
        while !s.at_end()? {
            let (updated, new_profiles, new_distincts) =
                read_append_meta(&s.section(SECTION_APPEND_META)?, meta.num_tables)?;
            for _ in 0..updated {
                let payload = s.section(SECTION_CANDIDATE_UPDATE)?;
                let mut p = SliceReader::new(&payload);
                let id = p.read_len("updated candidate id")?;
                check_candidate_id(id, meta.num_candidates)?;
                let start = p.position();
                candidates[id] = read_candidate(&mut s, Kept { payload, start })?;
            }
            for delta in read_index_delta(&s.section(SECTION_INDEX_DELTA)?, meta.num_candidates)? {
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
            file_len: s.position(),
            base_len,
            sealed: meta.sealed,
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
        (self.file_len - self.base_len) as usize
    }

    /// Byte length of the artifact the snapshot was read from.
    pub(super) fn file_len(&self) -> u64 {
        self.file_len
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
        let builders = self
            .candidates
            .iter()
            .map(|lazy| {
                let Some(state) = &lazy.state else {
                    return Ok(None);
                };
                let mut p = SliceReader::new(state.bytes());
                let builder = RightSketchBuilder::read_state(&mut p)?;
                p.expect_consumed("CANDIDATE_STATE section")?;
                Ok(Some(builder))
            })
            .collect::<Result<Vec<Option<RightSketchBuilder>>>>()?;
        let num_tables = self.num_tables;
        let candidates = self
            .candidates
            .into_iter()
            .map(|lazy| {
                lazy.cell
                    .into_inner()
                    .unwrap_or_else(|| decode_candidate(lazy.body.bytes(), num_tables))
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

/// Decodes a candidate body that [`RepositorySnapshot::read_from`] already
/// parsed: the same [`CandidateView::parse`] accepted these bytes at open,
/// so it accepts them again.
fn decode_candidate(body: &[u8], num_tables: usize) -> CandidateColumn {
    CandidateView::parse(body, num_tables)
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
            .get_or_init(|| decode_candidate(lazy.body.bytes(), self.num_tables))
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
