//! The candidate-table repository.
//!
//! Ingests external tables offline: profiles them, chooses `(key, feature)`
//! column pairs, and builds one right-side sketch per pair. This is the
//! "sketches are typically built in an offline preprocessing stage" part of
//! the paper's approach overview.
//!
//! Sketch construction is embarrassingly parallel — each `(key, feature)`
//! pair's sketch depends only on its source table — so both [`
//! TableRepository::add_table`] and the batch [`TableRepository::add_tables`]
//! build sketches with [`joinmi_par::par_map`]. The planned pair order is
//! fixed before the fan-out and results are reassembled in that order, so the
//! candidate list is bit-for-bit identical to a sequential ingest regardless
//! of `JOINMI_THREADS`.

use std::collections::BTreeSet;

use joinmi_sketch::{Aggregation, ColumnSketch, DistinctSketch, RightSketchBuilder, SketchConfig};
use joinmi_table::{DataType, Table, TableError};

use crate::index::{IndexDelta, JoinabilityIndex};
use crate::profile::TableProfile;
use crate::Result;

/// A `(key, feature)` pair chosen by the profiler, scheduled for sketching.
#[derive(Debug, Clone)]
struct PlannedPair {
    /// Index of the owning table within the batch being ingested.
    batch_index: usize,
    key_column: String,
    feature_column: String,
    aggregation: Aggregation,
}

/// Enumerates the sketchable `(key, feature)` pairs of one profiled table in
/// the repository's canonical order, honouring the per-table pair cap.
fn plan_pairs(profile: &TableProfile, batch_index: usize, max_pairs: usize) -> Vec<PlannedPair> {
    let mut pairs = Vec::new();
    'outer: for key in profile.key_candidates() {
        for feature in profile.feature_candidates() {
            if key.name == feature.name {
                continue;
            }
            if pairs.len() >= max_pairs {
                break 'outer;
            }
            pairs.push(PlannedPair {
                batch_index,
                key_column: key.name.clone(),
                feature_column: feature.name.clone(),
                aggregation: default_aggregation(feature.dtype),
            });
        }
    }
    pairs
}

/// Configuration of a repository. Candidate columns are sketched with
/// TUPSK, the one kind a repository serves.
#[derive(Debug, Clone, Copy)]
pub struct RepositoryConfig {
    /// Sketch size / seed.
    pub sketch: SketchConfig,
    /// Maximum number of `(key, feature)` pairs ingested per table (guards
    /// against very wide tables exploding the index).
    pub max_pairs_per_table: usize,
    /// Capacity (`k`) of the bounded KMV distinct sketch kept per profiled
    /// column so that distinct counts stay fresh under appends in `O(k)`
    /// space. At `k = 256` the standard error is ~6%.
    pub distinct_sketch_size: usize,
}

impl Default for RepositoryConfig {
    fn default() -> Self {
        Self {
            sketch: SketchConfig::new(1024, 0),
            max_pairs_per_table: 64,
            distinct_sketch_size: 256,
        }
    }
}

/// One ingested candidate: a `(join key, feature)` column pair of a table,
/// its sketch, and the aggregation that will be used when augmenting.
#[derive(Debug, Clone)]
pub struct CandidateColumn {
    /// Index of the owning table inside the repository.
    pub table_index: usize,
    /// Owning table name.
    pub table_name: String,
    /// Join-key column name.
    pub key_column: String,
    /// Feature column name.
    pub feature_column: String,
    /// Featurization function used for repeated keys.
    pub aggregation: Aggregation,
    /// The right-side sketch of the pair.
    pub sketch: ColumnSketch,
}

impl CandidateColumn {
    /// A human-readable identifier `table.feature (on key)`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}.{} (on {})",
            self.table_name, self.feature_column, self.key_column
        )
    }
}

/// A repository of candidate tables with pre-built sketches.
///
/// The joinability index over candidate key digests is maintained
/// incrementally during ingest, so queries never rebuild it — and
/// [`TableRepository::save`](crate::persist) persists it alongside the
/// sketches for the offline-ingest → online-query split.
///
/// A repository loaded from disk is **sketch-only**: it holds config,
/// profiles, the index, and the candidate sketches, but not the raw tables
/// (the durable artifact is exactly what queries need). Sketch-only
/// repositories answer queries bit-identically to the in-memory original;
/// further ingest and full-join materialization are rejected with
/// [`TableError::Unsupported`].
#[derive(Debug, Default, Clone)]
pub struct TableRepository {
    config: Option<RepositoryConfig>,
    tables: Vec<Table>,
    profiles: Vec<TableProfile>,
    candidates: Vec<CandidateColumn>,
    index: JoinabilityIndex,
    /// `true` for repositories loaded from disk (no raw tables).
    sketch_only: bool,
    /// One appendable sketch builder per candidate. `None` only for
    /// candidates persisted without builder state, which cannot absorb
    /// further rows — as after [`TableRepository::seal`] dropped them.
    builders: Vec<Option<RightSketchBuilder>>,
    /// One bounded distinct sketch per profiled column (`distincts[t][c]`
    /// parallels `profiles[t].columns[c]`), keeping feature-column distinct
    /// counts fresh under appends.
    distincts: Vec<Vec<DistinctSketch>>,
    /// `true` once the repository was frozen by [`TableRepository::seal`]
    /// (directly or via a seal-mode compaction): all ingest is rejected with
    /// [`TableError::Sealed`] and builder state is dropped.
    sealed: bool,
    /// Changes accumulated since the repository was last persisted, consumed
    /// by the on-disk append path in [`crate::persist`].
    pending: PendingAppend,
}

/// The not-yet-persisted tail of an appendable repository: which candidates
/// changed and the ordered index deltas their updates produced.
#[derive(Debug, Default, Clone)]
pub(crate) struct PendingAppend {
    /// Candidate indices whose sketch or builder state changed.
    pub dirty: BTreeSet<usize>,
    /// Index deltas in the order they were produced (order matters: each
    /// delta is relative to the state the previous one left behind).
    pub deltas: Vec<IndexDelta>,
}

impl PendingAppend {
    pub(crate) fn is_empty(&self) -> bool {
        self.dirty.is_empty() && self.deltas.is_empty()
    }
}

impl TableRepository {
    /// Creates an empty repository.
    #[must_use]
    pub fn new(config: RepositoryConfig) -> Self {
        Self {
            config: Some(config),
            ..Self::default()
        }
    }

    /// Reassembles a sketch-only repository from persisted parts (the loader
    /// in [`crate::persist`] is the only caller).
    pub(crate) fn from_loaded_parts(
        config: RepositoryConfig,
        profiles: Vec<TableProfile>,
        candidates: Vec<CandidateColumn>,
        index: JoinabilityIndex,
        mut builders: Vec<Option<RightSketchBuilder>>,
        distincts: Vec<Vec<DistinctSketch>>,
        sealed: bool,
    ) -> Self {
        // The persisted sketch is the canonical finished form of the
        // persisted builder state: prime the finish cache from it so the
        // first append after a reload is O(changed), not O(sketch).
        for (builder, candidate) in builders.iter_mut().zip(&candidates) {
            if let Some(builder) = builder {
                builder.prime_cache(&candidate.sketch);
            }
        }
        Self {
            config: Some(config),
            tables: Vec::new(),
            profiles,
            candidates,
            index,
            sketch_only: true,
            builders,
            distincts,
            sealed,
            pending: PendingAppend::default(),
        }
    }

    /// The repository configuration.
    #[must_use]
    pub fn config(&self) -> RepositoryConfig {
        self.config.unwrap_or_default()
    }

    /// Ingests a table: profiles it and builds sketches for every usable
    /// `(key, feature)` pair — in parallel across pairs — and returns the
    /// number of candidate pairs added.
    ///
    /// The candidate order (and every sketch) is identical to a sequential
    /// ingest; on error no candidates of this table are added.
    pub fn add_table(&mut self, table: Table) -> Result<usize> {
        self.add_tables(vec![table])
    }

    /// Ingests a batch of tables, building all sketches of the whole batch in
    /// one parallel fan-out (the offline-preprocessing bulk path). Returns
    /// the total number of candidate pairs added across the batch.
    ///
    /// Equivalent to calling [`Self::add_table`] for each table in order —
    /// same profiles, same candidates, same sketches, bit for bit — but with
    /// a single work queue spanning the batch, so small and wide tables load-
    /// balance against each other. On error the repository is left unchanged.
    pub fn add_tables(&mut self, tables: Vec<Table>) -> Result<usize> {
        if self.sealed {
            return Err(TableError::Sealed(
                "cannot ingest tables into a sealed repository".to_owned(),
            ));
        }
        if self.sketch_only {
            return Err(TableError::Unsupported(
                "cannot ingest new tables into a sketch-only repository loaded from disk; \
                 rows of already-ingested tables can be added with `append_rows`"
                    .to_owned(),
            ));
        }
        let config = self.config();

        let mut profiles = Vec::with_capacity(tables.len());
        let mut distincts = Vec::with_capacity(tables.len());
        let mut planned: Vec<PlannedPair> = Vec::new();
        for (batch_index, table) in tables.iter().enumerate() {
            let profile = TableProfile::profile(table)?;
            distincts.push(profile_distinct_sketches(&config, table, &profile)?);
            planned.extend(plan_pairs(
                &profile,
                batch_index,
                config.max_pairs_per_table,
            ));
            profiles.push(profile);
        }

        // The parallel fan-out: one appendable sketch builder per planned
        // pair. `finish()` is pinned bit-for-bit against the one-shot
        // `tupsk::build_right`, so candidates are identical to the
        // pre-incremental ingest path.
        let built: Vec<Result<(RightSketchBuilder, ColumnSketch)>> =
            joinmi_par::par_map(&planned, |pair| {
                let mut builder = RightSketchBuilder::start(
                    &tables[pair.batch_index],
                    &pair.key_column,
                    &pair.feature_column,
                    pair.aggregation,
                    &config.sketch,
                )?;
                // `finish_cached` warms the O(changed) refresh cache for
                // later appends while producing the same bits as `finish`.
                let sketch = builder.finish_cached();
                Ok((builder, sketch))
            });

        let first_table_index = self.tables.len();
        let mut candidates = Vec::with_capacity(planned.len());
        let mut builders = Vec::with_capacity(planned.len());
        for (pair, result) in planned.into_iter().zip(built) {
            let (builder, sketch) = result?;
            builders.push(Some(builder));
            candidates.push(CandidateColumn {
                table_index: first_table_index + pair.batch_index,
                table_name: tables[pair.batch_index].name().to_owned(),
                key_column: pair.key_column,
                feature_column: pair.feature_column,
                aggregation: pair.aggregation,
                sketch,
            });
        }

        let added = candidates.len();
        let first_candidate_index = self.candidates.len();
        for (offset, candidate) in candidates.iter().enumerate() {
            self.index
                .insert(first_candidate_index + offset, &candidate.sketch);
        }
        self.candidates.extend(candidates);
        self.builders.extend(builders);
        self.profiles.extend(profiles);
        self.distincts.extend(distincts);
        self.tables.extend(tables);
        Ok(added)
    }

    /// Appends a chunk of rows to an already-ingested table (matched by the
    /// chunk's table name; the schema must equal the ingested table's).
    /// Returns the number of appended rows — the chunk's full row count, the
    /// same accounting as the raw table and profiles (rows with a NULL join
    /// key are stored but, as at build time, never sampled into sketches).
    ///
    /// Works on in-memory repositories *and* on repositories loaded from an
    /// unsealed file. Every candidate sketch of the table
    /// is updated in `O(changed)` via its [`RightSketchBuilder`] (the KMV
    /// threshold skips rows of non-qualifying keys), the joinability index
    /// is patched incrementally, and the resulting state is bit-for-bit
    /// identical to a from-scratch ingest of the extended table. On error
    /// (unknown table, schema mismatch, non-appendable candidate) the
    /// repository is left unchanged.
    ///
    /// Profile bookkeeping: table and per-column row/NULL counts are exact,
    /// join-key distinct counts come from the builders' seen-key sets, and
    /// every other column's distinct count is maintained through its bounded
    /// KMV [`DistinctSketch`] — exact while under
    /// [`RepositoryConfig::distinct_sketch_size`] distincts, then a fresh
    /// approximation.
    pub fn append_rows(&mut self, chunk: &Table) -> Result<usize> {
        self.append_tables(std::slice::from_ref(chunk))
    }

    /// Appends several row chunks (see [`Self::append_rows`]), validating all
    /// of them before mutating anything. Returns the total appended rows.
    pub fn append_tables(&mut self, chunks: &[Table]) -> Result<usize> {
        if self.sealed {
            return Err(TableError::Sealed(
                "cannot append rows to a sealed repository".to_owned(),
            ));
        }
        // Validation pass: resolve every chunk to a table and check schemas
        // and builder availability, so the mutation pass cannot fail midway.
        let mut resolved = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let table_index = self
                .profiles
                .iter()
                .position(|p| p.table == chunk.name())
                .ok_or_else(|| {
                    TableError::Unsupported(format!(
                        "cannot append rows: no ingested table named `{}`",
                        chunk.name()
                    ))
                })?;
            let profile = &self.profiles[table_index];
            let fields = chunk.schema().fields();
            if fields.len() != profile.columns.len()
                || fields
                    .iter()
                    .zip(&profile.columns)
                    .any(|(field, column)| field.name != column.name || field.dtype != column.dtype)
            {
                return Err(TableError::Unsupported(format!(
                    "append chunk schema does not match ingested table `{}`",
                    chunk.name()
                )));
            }
            for (candidate_index, candidate) in self.candidates.iter().enumerate() {
                if candidate.table_index != table_index {
                    continue;
                }
                if self.builders[candidate_index].is_none() {
                    return Err(TableError::Unsupported(format!(
                        "candidate `{}` was persisted without builder state and cannot \
                         absorb new rows; re-ingest it",
                        candidate.label()
                    )));
                }
            }
            resolved.push((table_index, chunk));
        }

        // Mutation pass.
        let mut appended_total = 0usize;
        for (table_index, chunk) in resolved {
            for candidate_index in 0..self.candidates.len() {
                if self.candidates[candidate_index].table_index != table_index {
                    continue;
                }
                let builder = self.builders[candidate_index]
                    .as_mut()
                    .expect("validated above");
                // The builder reports exactly which keys entered or left the
                // selection, so the index is patched in O(changed).
                let diff = builder.append_table_diff(chunk)?;
                let size = builder.selection_len();
                self.candidates[candidate_index].sketch = builder.finish_cached();
                let delta = self.index.apply_membership_update(
                    candidate_index,
                    &diff.removed,
                    &diff.added,
                    size,
                );
                self.pending.dirty.insert(candidate_index);
                if !delta.is_empty() {
                    self.pending.deltas.push(delta);
                }
            }
            appended_total += chunk.num_rows();

            // Exact row/NULL bookkeeping; distinct counts route through the
            // bounded sketches, then key columns are overridden with the
            // builders' exact seen-key counts (see `append_rows` docs).
            let hasher = self.config().sketch.key_hasher();
            let profile = &mut self.profiles[table_index];
            profile.rows += chunk.num_rows();
            for (column_index, column) in profile.columns.iter_mut().enumerate() {
                column.rows += chunk.num_rows();
                if let Ok(col) = chunk.column(&column.name) {
                    column.nulls += col.null_count();
                    let sketch = &mut self.distincts[table_index][column_index];
                    for value in col.iter() {
                        if !value.is_null() {
                            sketch.observe(value.key_hash(&hasher).raw());
                        }
                    }
                    column.distinct = sketch.estimate();
                }
            }
            for (candidate_index, candidate) in self.candidates.iter().enumerate() {
                if candidate.table_index != table_index {
                    continue;
                }
                if let Some(builder) = &self.builders[candidate_index] {
                    if let Some(column) = self.profiles[table_index]
                        .columns
                        .iter_mut()
                        .find(|c| c.name == candidate.key_column)
                    {
                        column.distinct = builder.distinct_keys();
                    }
                }
            }

            // Keep the raw table in sync when we still hold it, so
            // materialization sees the appended rows too.
            if let Some(table) = self.tables.get_mut(table_index) {
                table.extend_rows(chunk)?;
            }
        }
        Ok(appended_total)
    }

    /// Returns `true` when every candidate carries the appendable builder
    /// state required by [`Self::append_rows`] (true for in-memory ingests
    /// and repositories loaded from unsealed files; false once sealed).
    #[must_use]
    pub fn is_appendable(&self) -> bool {
        !self.sealed && self.builders.iter().all(Option::is_some)
    }

    /// Freezes the repository: drops all incremental builder state, discards
    /// the unpersisted append log, and rejects every further
    /// [`Self::add_table`] / [`Self::append_rows`] with
    /// [`TableError::Sealed`]. Saving a sealed repository produces a lean
    /// flat file without `CANDIDATE_STATE` sections — the leanest read
    /// profile. Irreversible (re-ingest from source data to unfreeze).
    pub fn seal(&mut self) {
        self.sealed = true;
        for builder in &mut self.builders {
            *builder = None;
        }
        self.pending = PendingAppend::default();
    }

    /// Returns `true` once the repository was frozen by [`Self::seal`].
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Per-table, per-column bounded distinct sketches, parallel to
    /// [`Self::profiles`] (persistence internals).
    pub(crate) fn distinct_sketches(&self) -> &[Vec<DistinctSketch>] {
        &self.distincts
    }

    /// Per-candidate builders, parallel to [`Self::candidates`] (persistence
    /// internals).
    pub(crate) fn builders(&self) -> &[Option<RightSketchBuilder>] {
        &self.builders
    }

    /// The unpersisted append log (persistence internals).
    pub(crate) fn pending(&self) -> &PendingAppend {
        &self.pending
    }

    /// Clears the append log after it has been persisted (or folded into a
    /// full rewrite by `save`).
    pub(crate) fn clear_pending(&mut self) {
        self.pending = PendingAppend::default();
    }

    /// Number of ingested tables (counted from the profiles, which are
    /// present whether or not the raw tables are — see
    /// [sketch-only repositories](Self#method.is_sketch_only)).
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.profiles.len()
    }

    /// The raw ingested tables. Empty for a sketch-only repository loaded
    /// from disk.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The table at a given index.
    ///
    /// # Panics
    /// Panics on a sketch-only repository (no raw tables); use
    /// [`Self::raw_table`] to handle that case.
    #[must_use]
    pub fn table(&self, index: usize) -> &Table {
        &self.tables[index]
    }

    /// The raw table at a given index, or `None` when the repository is
    /// sketch-only (loaded from disk).
    #[must_use]
    pub fn raw_table(&self, index: usize) -> Option<&Table> {
        self.tables.get(index)
    }

    /// Returns `true` when the repository was loaded from disk and holds
    /// sketches, profiles, and the index but no raw tables.
    #[must_use]
    pub fn is_sketch_only(&self) -> bool {
        self.sketch_only
    }

    /// Profiles of the ingested tables.
    #[must_use]
    pub fn profiles(&self) -> &[TableProfile] {
        &self.profiles
    }

    /// All candidate `(key, feature)` pairs.
    #[must_use]
    pub fn candidates(&self) -> &[CandidateColumn] {
        &self.candidates
    }

    /// The joinability index over the candidates' sampled key digests,
    /// maintained incrementally during ingest.
    #[must_use]
    pub fn joinability(&self) -> &JoinabilityIndex {
        &self.index
    }
}

/// Anything that can answer relationship queries: a set of candidate sketches
/// plus a joinability index over their key digests.
///
/// Implemented by the in-memory [`TableRepository`] and by the read-only
/// [`RepositorySnapshot`](crate::persist::RepositorySnapshot) loaded from
/// disk, so [`RelationshipQuery::execute`](crate::RelationshipQuery::execute)
/// runs unchanged — and bit-identically — against either.
pub trait CandidateSource {
    /// Number of candidates.
    fn candidate_count(&self) -> usize;

    /// The candidate at `index` (must be `< candidate_count()`).
    fn candidate(&self, index: usize) -> &CandidateColumn;

    /// The joinability index over all candidates.
    fn joinability(&self) -> &JoinabilityIndex;

    /// An upper bound on the number of distinct values of the candidate's
    /// key column, when the source can prove one — i.e. while the column's
    /// bounded [`DistinctSketch`] is still exact (under capacity). `None`
    /// means "no bound available"; callers must treat it as unbounded.
    fn key_distinct_bound(&self, index: usize) -> Option<usize>;
}

/// Shared [`CandidateSource::key_distinct_bound`] lookup: resolve the
/// candidate's key column inside its table profile and read the parallel
/// distinct sketch, which is exact (and therefore a sound bound) until it
/// reaches capacity.
pub(crate) fn key_distinct_bound_from(
    candidate: &CandidateColumn,
    profiles: &[TableProfile],
    distincts: &[Vec<DistinctSketch>],
) -> Option<usize> {
    let profile = profiles.get(candidate.table_index)?;
    let position = profile
        .columns
        .iter()
        .position(|c| c.name == candidate.key_column)?;
    let sketch = distincts.get(candidate.table_index)?.get(position)?;
    (!sketch.is_full()).then(|| sketch.estimate())
}

impl CandidateSource for TableRepository {
    fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    fn candidate(&self, index: usize) -> &CandidateColumn {
        &self.candidates[index]
    }

    fn joinability(&self) -> &JoinabilityIndex {
        &self.index
    }

    fn key_distinct_bound(&self, index: usize) -> Option<usize> {
        key_distinct_bound_from(&self.candidates[index], &self.profiles, &self.distincts)
    }
}

/// Builds one bounded distinct sketch per column of a freshly profiled table,
/// seeded with every non-NULL value the base ingest saw — so a later
/// `append_rows` continues from exactly the state a bulk ingest of the
/// concatenated rows would have produced (the sketch state is a pure function
/// of the observed value set).
fn profile_distinct_sketches(
    config: &RepositoryConfig,
    table: &Table,
    profile: &TableProfile,
) -> Result<Vec<DistinctSketch>> {
    let hasher = config.sketch.key_hasher();
    let mut sketches = Vec::with_capacity(profile.columns.len());
    for column in &profile.columns {
        let col = table.column(&column.name)?;
        let mut sketch = DistinctSketch::new(config.distinct_sketch_size);
        for value in col.iter() {
            if !value.is_null() {
                sketch.observe(value.key_hash(&hasher).raw());
            }
        }
        sketches.push(sketch);
    }
    Ok(sketches)
}

/// The default featurization function for a feature type: `AVG` for numeric
/// features, `MODE` for categorical ones (the pairing suggested in
/// Section III-B).
#[must_use]
pub fn default_aggregation(dtype: DataType) -> Aggregation {
    if dtype.is_numeric() {
        Aggregation::Avg
    } else {
        Aggregation::Mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_table() -> Table {
        Table::builder("demo")
            .push_str_column("zip", vec!["a", "b", "c", "a", "b"])
            .push_str_column("borough", vec!["x", "y", "x", "x", "y"])
            .push_int_column("pop", vec![1, 2, 3, 1, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn ingestion_builds_candidate_pairs() {
        let mut repo = TableRepository::new(RepositoryConfig::default());
        let added = repo.add_table(demo_table()).unwrap();
        // Keys: zip, borough. Features: zip, borough, pop. Pairs exclude
        // key == feature: zip×{borough,pop} + borough×{zip,pop} = 4.
        assert_eq!(added, 4);
        assert_eq!(repo.num_tables(), 1);
        assert_eq!(repo.candidates().len(), 4);
        let labels: Vec<String> = repo
            .candidates()
            .iter()
            .map(CandidateColumn::label)
            .collect();
        assert!(labels.iter().any(|l| l.contains("pop (on zip)")));
    }

    #[test]
    fn aggregation_follows_feature_type() {
        assert_eq!(default_aggregation(DataType::Float), Aggregation::Avg);
        assert_eq!(default_aggregation(DataType::Int), Aggregation::Avg);
        assert_eq!(default_aggregation(DataType::Str), Aggregation::Mode);
        let mut repo = TableRepository::new(RepositoryConfig::default());
        repo.add_table(demo_table()).unwrap();
        let pop = repo
            .candidates()
            .iter()
            .find(|c| c.feature_column == "pop" && c.key_column == "zip")
            .unwrap();
        assert_eq!(pop.aggregation, Aggregation::Avg);
    }

    #[test]
    fn max_pairs_limit_is_respected() {
        let config = RepositoryConfig {
            max_pairs_per_table: 2,
            ..RepositoryConfig::default()
        };
        let mut repo = TableRepository::new(config);
        let added = repo.add_table(demo_table()).unwrap();
        assert_eq!(added, 2);
    }

    #[test]
    fn batch_ingest_is_bitwise_identical_to_sequential_single_threaded() {
        let tables: Vec<Table> = (0..4)
            .map(|t| {
                Table::builder(format!("t{t}"))
                    .push_str_column("zip", vec!["a", "b", "c", "a", "b"])
                    .push_str_column("borough", vec!["x", "y", "x", "x", "y"])
                    .push_int_column("pop", (0..5).map(|i| i + t).collect::<Vec<i64>>())
                    .build()
                    .unwrap()
            })
            .collect();

        let mut sequential = TableRepository::new(RepositoryConfig::default());
        joinmi_par::with_threads(1, || {
            for table in tables.clone() {
                sequential.add_table(table).unwrap();
            }
        });

        let mut batched = TableRepository::new(RepositoryConfig::default());
        let added = joinmi_par::with_threads(4, || batched.add_tables(tables).unwrap());

        assert_eq!(added, sequential.candidates().len());
        assert_eq!(batched.num_tables(), sequential.num_tables());
        for (a, b) in batched
            .candidates()
            .iter()
            .zip(sequential.candidates().iter())
        {
            assert_eq!(a.table_index, b.table_index);
            assert_eq!(a.label(), b.label());
            assert_eq!(a.aggregation, b.aggregation);
            assert_eq!(a.sketch.rows(), b.sketch.rows());
        }
    }

    #[test]
    fn tables_without_string_keys_produce_no_candidates() {
        let t = Table::builder("nums")
            .push_int_column("a", vec![1, 2, 3])
            .push_float_column("b", vec![0.1, 0.2, 0.3])
            .build()
            .unwrap();
        let mut repo = TableRepository::new(RepositoryConfig::default());
        assert_eq!(repo.add_table(t).unwrap(), 0);
        assert_eq!(repo.num_tables(), 1);
    }
}
