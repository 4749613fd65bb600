//! One codec per repository section, in `docs/FORMAT.md` order: each
//! section's tag, its writer, and the **one** function that reads its
//! fields. Every reader takes checksum-verified bytes and re-checks
//! everything else — counts, enum tags, cross-references, full consumption —
//! so a crafted payload under a valid checksum is a typed error.

use std::io::Write;

use joinmi_sketch::persist::{
    aggregation_from_tag, aggregation_tag, dtype_from_tag, dtype_tag, read_served_kind, SketchView,
    TUPSK_KIND_TAG,
};
use joinmi_sketch::{Aggregation, DistinctSketch, RightSketchBuilder, Side, SketchConfig};
use joinmi_store::{Result, SectionBuilder, SliceReader, StoreError, Writer};

use crate::index::{IndexDelta, JoinabilityIndex};
use crate::profile::{ColumnProfile, TableProfile};
use crate::repository::{CandidateColumn, RepositoryConfig};

/// Section tag: repository configuration and counts.
pub const SECTION_REPO_META: u8 = 0x10;
/// Section tag: table profiles.
pub const SECTION_PROFILES: u8 = 0x11;
/// Section tag: joinability-index postings.
pub const SECTION_INDEX: u8 = 0x12;
/// Section tag: one candidate column (identity + embedded sketch).
pub const SECTION_CANDIDATE: u8 = 0x13;
/// Section tag: one candidate's incremental-builder state.
pub const SECTION_CANDIDATE_STATE: u8 = 0x14;
/// Section tag: header of one append group.
pub const SECTION_APPEND_META: u8 = 0x15;
/// Section tag: one updated candidate inside an append group.
pub const SECTION_CANDIDATE_UPDATE: u8 = 0x16;
/// Section tag: the ordered index deltas of one append group.
pub const SECTION_INDEX_DELTA: u8 = 0x17;
/// Section tag: per-column bounded distinct sketches.
pub const SECTION_FEATURE_DISTINCT: u8 = 0x18;

/// Per-table, per-column distinct sketches, parallel to the profiles.
pub(super) type Distincts = Vec<Vec<DistinctSketch>>;

// REPO_META

/// Flag bit in the REPO_META flags byte: the repository is sealed.
const META_FLAG_SEALED: u8 = 0x01;

/// Bytes from the start of a repository file to the end of its REPO_META
/// section (file header, section frame, fixed-size payload) — all that
/// `append_to` reads of its target.
pub(super) const REPO_META_END: usize = 8 + 17 + 50;

pub(super) struct RepoMeta {
    pub config: RepositoryConfig,
    pub num_tables: usize,
    pub num_candidates: usize,
    pub sealed: bool,
}

pub(super) fn write_repo_meta<W: Write>(
    w: &mut Writer<W>,
    config: &RepositoryConfig,
    num_tables: usize,
    num_candidates: usize,
    sealed: bool,
) -> Result<()> {
    let mut meta = SectionBuilder::new();
    {
        let m = meta.writer();
        m.write_u8(TUPSK_KIND_TAG)?;
        m.write_len(config.sketch.size)?;
        m.write_u64(config.sketch.seed)?;
        m.write_len(config.max_pairs_per_table)?;
        m.write_len(num_tables)?;
        m.write_len(num_candidates)?;
        m.write_len(config.distinct_sketch_size)?;
        m.write_u8(if sealed { META_FLAG_SEALED } else { 0 })?;
    }
    meta.finish(SECTION_REPO_META, w)
}

pub(super) fn read_repo_meta(payload: &[u8]) -> Result<RepoMeta> {
    let mut m = SliceReader::new(payload);
    read_served_kind(&mut m, "repo sketch kind")?;
    let size = m.read_len("repo sketch size")?;
    let seed = m.read_u64("repo sketch seed")?;
    let max_pairs_per_table = m.read_len("repo max pairs per table")?;
    let num_tables = m.read_len("repo table count")?;
    let num_candidates = m.read_len("repo candidate count")?;
    let distinct_sketch_size = m.read_len("repo distinct sketch size")?;
    let flags = m.read_u8("repo flags")?;
    if flags & !META_FLAG_SEALED != 0 {
        return Err(StoreError::corrupt(format!(
            "unknown repository flag bits {flags:#04x}"
        )));
    }
    m.expect_consumed("REPO_META section")?;
    Ok(RepoMeta {
        config: RepositoryConfig {
            sketch: SketchConfig::new(size, seed),
            max_pairs_per_table,
            distinct_sketch_size,
        },
        num_tables,
        num_candidates,
        sealed: flags & META_FLAG_SEALED != 0,
    })
}

// PROFILES (also the refreshed block inside APPEND_META)

fn encode_profiles(p: &mut Writer<Vec<u8>>, profiles: &[TableProfile]) -> Result<()> {
    p.write_len(profiles.len())?;
    for profile in profiles {
        p.write_str(&profile.table)?;
        p.write_len(profile.rows)?;
        p.write_len(profile.columns.len())?;
        for column in &profile.columns {
            p.write_str(&column.name)?;
            p.write_u8(dtype_tag(column.dtype))?;
            p.write_len(column.distinct)?;
            p.write_len(column.nulls)?;
            p.write_len(column.rows)?;
        }
    }
    Ok(())
}

pub(super) fn write_profiles<W: Write>(w: &mut Writer<W>, profiles: &[TableProfile]) -> Result<()> {
    let mut section = SectionBuilder::new();
    encode_profiles(section.writer(), profiles)?;
    section.finish(SECTION_PROFILES, w)
}

fn decode_profiles(p: &mut SliceReader<'_>, expected_tables: usize) -> Result<Vec<TableProfile>> {
    let count = p.read_len("profile count")?;
    if count != expected_tables {
        return Err(StoreError::corrupt(format!(
            "profile count {count} does not match table count {expected_tables}"
        )));
    }
    let mut profiles = Vec::with_capacity(count.min(p.remaining()));
    for _ in 0..count {
        let table = p.read_str("profile table name")?.to_owned();
        let rows = p.read_len("profile row count")?;
        let num_columns = p.read_len("profile column count")?;
        let mut columns = Vec::with_capacity(num_columns.min(p.remaining()));
        for _ in 0..num_columns {
            columns.push(ColumnProfile {
                name: p.read_str("column profile name")?.to_owned(),
                dtype: dtype_from_tag(p.read_u8("column profile dtype")?)?,
                distinct: p.read_len("column profile distinct")?,
                nulls: p.read_len("column profile nulls")?,
                rows: p.read_len("column profile rows")?,
            });
        }
        profiles.push(TableProfile {
            table,
            rows,
            columns,
        });
    }
    Ok(profiles)
}

pub(super) fn read_profiles(payload: &[u8], expected_tables: usize) -> Result<Vec<TableProfile>> {
    let mut p = SliceReader::new(payload);
    let profiles = decode_profiles(&mut p, expected_tables)?;
    p.expect_consumed("PROFILES section")?;
    Ok(profiles)
}

// FEATURE_DISTINCT (also the refreshed block inside APPEND_META)

/// Presence byte ahead of every column's sketch: every profiled column has
/// one, so the byte is always 1 and any other value is corrupt.
const DISTINCT_PRESENT: u8 = 1;

fn encode_distincts(p: &mut Writer<Vec<u8>>, distincts: &[Vec<DistinctSketch>]) -> Result<()> {
    p.write_len(distincts.len())?;
    for table in distincts {
        p.write_len(table.len())?;
        for sketch in table {
            p.write_u8(DISTINCT_PRESENT)?;
            p.write_len(sketch.capacity())?;
            p.write_len(sketch.len())?;
            for digest in sketch.digests() {
                p.write_u64(digest)?;
            }
        }
    }
    Ok(())
}

pub(super) fn write_distincts<W: Write>(
    w: &mut Writer<W>,
    distincts: &[Vec<DistinctSketch>],
) -> Result<()> {
    let mut section = SectionBuilder::new();
    encode_distincts(section.writer(), distincts)?;
    section.finish(SECTION_FEATURE_DISTINCT, w)
}

/// Decodes a distinct-sketch block, validating its shape against the decoded
/// profiles (one entry per table, one per column) and each sketch's
/// invariants (count ≤ capacity, digests strictly increasing).
fn decode_distincts(p: &mut SliceReader<'_>, profiles: &[TableProfile]) -> Result<Distincts> {
    let table_count = p.read_len("distinct sketch table count")?;
    if table_count != profiles.len() {
        return Err(StoreError::corrupt(format!(
            "distinct sketch block covers {table_count} tables, profiles cover {}",
            profiles.len()
        )));
    }
    let mut distincts = Vec::with_capacity(table_count);
    for profile in profiles {
        let column_count = p.read_len("distinct sketch column count")?;
        if column_count != profile.columns.len() {
            return Err(StoreError::corrupt(format!(
                "distinct sketch block covers {column_count} columns of table `{}`, \
                 its profile covers {}",
                profile.table,
                profile.columns.len()
            )));
        }
        let mut table = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            let flag = p.read_u8("distinct sketch presence flag")?;
            if flag != DISTINCT_PRESENT {
                return Err(StoreError::corrupt(format!(
                    "invalid distinct sketch presence flag {flag}"
                )));
            }
            let capacity = p.read_len("distinct sketch capacity")?;
            if capacity == 0 {
                return Err(StoreError::corrupt("distinct sketch capacity of zero"));
            }
            let count = p.read_len("distinct sketch digest count")?;
            if count > capacity {
                return Err(StoreError::corrupt(format!(
                    "distinct sketch holds {count} digests over capacity {capacity}"
                )));
            }
            let mut digests: Vec<u64> = Vec::with_capacity(count.min(p.remaining() / 8));
            for _ in 0..count {
                let digest = p.read_u64("distinct sketch digest")?;
                if digests.last().is_some_and(|&prev| digest <= prev) {
                    return Err(StoreError::corrupt(
                        "distinct sketch digests are not strictly increasing",
                    ));
                }
                digests.push(digest);
            }
            table.push(DistinctSketch::from_parts(capacity, digests));
        }
        distincts.push(table);
    }
    Ok(distincts)
}

pub(super) fn read_distincts(payload: &[u8], profiles: &[TableProfile]) -> Result<Distincts> {
    let mut p = SliceReader::new(payload);
    let distincts = decode_distincts(&mut p, profiles)?;
    p.expect_consumed("FEATURE_DISTINCT section")?;
    Ok(distincts)
}

// INDEX

pub(super) fn write_index<W: Write>(w: &mut Writer<W>, index: &JoinabilityIndex) -> Result<()> {
    let (postings, sizes) = index.canonical_parts();
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        p.write_len(sizes.len())?;
        for (id, size) in sizes {
            p.write_len(id)?;
            p.write_len(size)?;
        }
        p.write_len(postings.len())?;
        for (digest, ids) in postings {
            p.write_u64(digest)?;
            p.write_len(ids.len())?;
            for id in ids {
                p.write_len(id)?;
            }
        }
    }
    section.finish(SECTION_INDEX, w)
}

pub(super) fn read_index(payload: &[u8], num_candidates: usize) -> Result<JoinabilityIndex> {
    let mut p = SliceReader::new(payload);
    let size_count = p.read_len("index size count")?;
    let mut sizes = Vec::with_capacity(size_count.min(payload.len()));
    let mut covered = vec![false; num_candidates];
    for _ in 0..size_count {
        let id = p.read_len("index candidate id")?;
        if id >= num_candidates {
            return Err(StoreError::corrupt(format!(
                "index references candidate {id}, but the file holds {num_candidates}"
            )));
        }
        covered[id] = true;
        sizes.push((id, p.read_len("index candidate digest count")?));
    }
    let digest_count = p.read_len("index digest count")?;
    let mut postings = Vec::with_capacity(digest_count.min(payload.len()));
    for _ in 0..digest_count {
        let digest = p.read_u64("index digest")?;
        let id_count = p.read_len("index posting length")?;
        let mut ids = Vec::with_capacity(id_count.min(payload.len()));
        for _ in 0..id_count {
            let id = p.read_len("index posting id")?;
            // Posting ids must also appear in the sizes list: queries size
            // their per-candidate overlap counters from the sizes, so an
            // uncovered posting id would index out of bounds.
            if id >= num_candidates || !covered[id] {
                return Err(StoreError::corrupt(format!(
                    "index posting references candidate {id} with no digest-count entry"
                )));
            }
            ids.push(id);
        }
        postings.push((digest, ids));
    }
    p.expect_consumed("INDEX section")?;
    Ok(JoinabilityIndex::from_canonical_parts(postings, sizes))
}

// CANDIDATE and CANDIDATE_UPDATE

/// Encodes a candidate's identity + sketch (the shared body of CANDIDATE and
/// CANDIDATE_UPDATE payloads).
fn encode_candidate(p: &mut Writer<Vec<u8>>, candidate: &CandidateColumn) -> Result<()> {
    p.write_len(candidate.table_index)?;
    p.write_str(&candidate.table_name)?;
    p.write_str(&candidate.key_column)?;
    p.write_str(&candidate.feature_column)?;
    p.write_u8(aggregation_tag(candidate.aggregation))?;
    candidate.sketch.write_embedded(p)
}

pub(super) fn write_candidate<W: Write>(
    w: &mut Writer<W>,
    candidate: &CandidateColumn,
) -> Result<()> {
    let mut section = SectionBuilder::new();
    encode_candidate(section.writer(), candidate)?;
    section.finish(SECTION_CANDIDATE, w)
}

pub(super) fn write_candidate_update<W: Write>(
    w: &mut Writer<W>,
    id: usize,
    candidate: &CandidateColumn,
) -> Result<()> {
    let mut section = SectionBuilder::new();
    section.writer().write_len(id)?;
    encode_candidate(section.writer(), candidate)?;
    section.finish(SECTION_CANDIDATE_UPDATE, w)
}

/// A candidate body (identity + embedded sketch) validated in place: the
/// borrowed form of a [`CandidateColumn`]. A snapshot parses every body at
/// open to prove it well-formed and parses it again — same function — when
/// the candidate is first touched, which is what makes that decode
/// infallible.
pub(super) struct CandidateView<'a> {
    table_index: usize,
    table_name: &'a str,
    key_column: &'a str,
    feature_column: &'a str,
    aggregation: Aggregation,
    sketch: SketchView<'a>,
}

impl<'a> CandidateView<'a> {
    pub(super) fn parse(body: &'a [u8], num_tables: usize) -> Result<Self> {
        let mut p = SliceReader::new(body);
        let table_index = p.read_len("candidate table index")?;
        if table_index >= num_tables {
            return Err(StoreError::corrupt(format!(
                "candidate references table {table_index}, but the file holds {num_tables}"
            )));
        }
        let view = Self {
            table_index,
            table_name: p.read_str("candidate table name")?,
            key_column: p.read_str("candidate key column")?,
            feature_column: p.read_str("candidate feature column")?,
            aggregation: aggregation_from_tag(p.read_u8("candidate aggregation")?)?,
            sketch: SketchView::parse(&mut p)?,
        };
        p.expect_consumed("CANDIDATE section")?;
        // `SketchView::parse` refused any kind but TUPSK; a candidate is
        // also a right-side sketch.
        if view.sketch.side() != Side::Right {
            return Err(StoreError::corrupt(format!(
                "candidate sketch is {:?}; a repository holds right-side sketches only",
                view.sketch.side()
            )));
        }
        Ok(view)
    }

    pub(super) fn to_candidate(&self) -> CandidateColumn {
        CandidateColumn {
            table_index: self.table_index,
            table_name: self.table_name.to_owned(),
            key_column: self.key_column.to_owned(),
            feature_column: self.feature_column.to_owned(),
            aggregation: self.aggregation,
            sketch: self.sketch.to_sketch(),
        }
    }
}

// CANDIDATE_STATE

/// Writes one CANDIDATE_STATE section: a presence flag plus the serialized
/// builder. A missing builder writes the flag alone, keeping the section
/// structure uniform.
pub(super) fn write_candidate_state<W: Write>(
    w: &mut Writer<W>,
    builder: Option<&RightSketchBuilder>,
) -> Result<()> {
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        match builder {
            None => p.write_u8(0)?,
            Some(builder) => {
                p.write_u8(1)?;
                builder.write_state(p)?;
            }
        }
    }
    section.finish(SECTION_CANDIDATE_STATE, w)
}

/// Checks a CANDIDATE_STATE payload's presence flag and returns where the
/// builder state behind it starts, if there is one. The state itself is not
/// interpreted here: nothing on the read-only path uses it, so it stays
/// checksummed bytes until `RightSketchBuilder::read_state` decodes it for
/// `load` / `compact`.
pub(super) fn split_candidate_state(payload: &[u8]) -> Result<Option<usize>> {
    match payload.first() {
        None => Err(StoreError::Truncated {
            context: "candidate state flag",
        }),
        Some(0) if payload.len() == 1 => Ok(None),
        Some(0) => Err(StoreError::corrupt(
            "trailing bytes in empty CANDIDATE_STATE section",
        )),
        Some(1) => Ok(Some(1)),
        Some(other) => Err(StoreError::corrupt(format!(
            "invalid candidate state flag {other}"
        ))),
    }
}

// APPEND_META

pub(super) fn write_append_meta<W: Write>(
    w: &mut Writer<W>,
    updated: usize,
    profiles: &[TableProfile],
    distincts: &[Vec<DistinctSketch>],
) -> Result<()> {
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        p.write_len(updated)?;
        encode_profiles(p, profiles)?;
        encode_distincts(p, distincts)?;
    }
    section.finish(SECTION_APPEND_META, w)
}

/// Returns the group's updated-candidate count and its refreshed profiles
/// and distinct sketches.
pub(super) fn read_append_meta(
    payload: &[u8],
    num_tables: usize,
) -> Result<(usize, Vec<TableProfile>, Distincts)> {
    let mut p = SliceReader::new(payload);
    let updated = p.read_len("append group update count")?;
    let profiles = decode_profiles(&mut p, num_tables)?;
    let distincts = decode_distincts(&mut p, &profiles)?;
    p.expect_consumed("APPEND_META section")?;
    Ok((updated, profiles, distincts))
}

// INDEX_DELTA

pub(super) fn write_index_delta<W: Write>(w: &mut Writer<W>, deltas: &[IndexDelta]) -> Result<()> {
    let mut section = SectionBuilder::new();
    {
        let p = section.writer();
        p.write_len(deltas.len())?;
        for delta in deltas {
            p.write_len(delta.removed.len())?;
            for &(digest, id) in &delta.removed {
                p.write_u64(digest)?;
                p.write_len(id)?;
            }
            p.write_len(delta.added.len())?;
            for &(digest, id) in &delta.added {
                p.write_u64(digest)?;
                p.write_len(id)?;
            }
            p.write_len(delta.sizes.len())?;
            for &(id, size) in &delta.sizes {
                p.write_len(id)?;
                p.write_len(size)?;
            }
        }
    }
    section.finish(SECTION_INDEX_DELTA, w)
}

pub(super) fn read_index_delta(payload: &[u8], num_candidates: usize) -> Result<Vec<IndexDelta>> {
    let mut p = SliceReader::new(payload);
    let delta_count = p.read_len("index delta count")?;
    let mut deltas = Vec::with_capacity(delta_count.min(payload.len()));
    for _ in 0..delta_count {
        let mut delta = IndexDelta::default();
        let removed = p.read_len("index delta removed count")?;
        for _ in 0..removed {
            let digest = p.read_u64("index delta removed digest")?;
            let id = p.read_len("index delta removed id")?;
            check_candidate_id(id, num_candidates)?;
            delta.removed.push((digest, id));
        }
        let added = p.read_len("index delta added count")?;
        for _ in 0..added {
            let digest = p.read_u64("index delta added digest")?;
            let id = p.read_len("index delta added id")?;
            check_candidate_id(id, num_candidates)?;
            delta.added.push((digest, id));
        }
        let sizes = p.read_len("index delta size count")?;
        for _ in 0..sizes {
            let id = p.read_len("index delta size id")?;
            check_candidate_id(id, num_candidates)?;
            delta.sizes.push((id, p.read_len("index delta size")?));
        }
        deltas.push(delta);
    }
    p.expect_consumed("INDEX_DELTA section")?;
    Ok(deltas)
}

pub(super) fn check_candidate_id(id: usize, num_candidates: usize) -> Result<()> {
    if id >= num_candidates {
        return Err(StoreError::corrupt(format!(
            "append group references candidate {id}, but the file holds {num_candidates}"
        )));
    }
    Ok(())
}
