//! Incremental (appendable) construction of right-side sketches.
//!
//! The paper's coordinated sketches are one-pass, bounded-state KMV
//! selections, which makes them incremental *by construction*: the selection
//! frame of a right-side (aggregated) sketch is the set of distinct join-key
//! digests, and a key's digest never changes. Appending rows therefore only
//! has to
//!
//! 1. update the aggregation state of keys currently **in** the selection
//!    (at most `n` of them — evicted keys can never return, rejected keys
//!    can never enter, because the KMV threshold only decreases), and
//! 2. offer the digests of **newly seen** keys, which the selection
//!    threshold rejects with a single comparison once the set is full.
//!
//! That is the `O(changed)` append path: work proportional to the appended
//! rows, never to the table already ingested. The pinned invariant — tested
//! below and property-tested over arbitrary row splits — is that
//! *append-then-finalize is bit-for-bit identical to from-scratch sketching
//! of the concatenated table*.
//!
//! The builder produces TUPSK sketches only — the paper's proposed method
//! and the one kind a repository serves. On the aggregated right side every
//! key is unique, so TUPSK selects a key by `h_u(⟨k, 1⟩)`.
//!
//! Left-side sketches have no incremental builder: they are query-side
//! artifacts, rebuilt from the (small) query table at query time, while
//! right-side sketches are the durable repository artifact an ingest daemon
//! keeps appending to.
//!
//! # Exactness of incremental aggregation
//!
//! [`AggState`] mirrors [`Aggregation::apply`] operation by operation:
//! running float sums fold in row-arrival order (the same order
//! `group_by_aggregate` feeds `apply`), `MIN` keeps the first minimum and
//! `MAX` the last maximum (matching `Iterator::min`/`max` tie behaviour),
//! and `MODE` maintains the full value-count map so the deterministic
//! `(count desc, value asc)` tie-break sees exactly the counts a one-shot
//! build would. `MEDIAN` necessarily retains the group's numeric values.
//!
//! Keys are identified by their 64-bit Murmur digests here, as everywhere
//! else in the system (sketch joins, the joinability index); two distinct
//! key values colliding in 64 bits would merge their groups, the same
//! standing assumption the rest of the pipeline already makes.

use std::collections::HashMap;

use joinmi_hash::{
    digest_map_with_capacity, digest_set_with_capacity, DigestHashMap, DigestHashSet, KeyHash,
};
use joinmi_store::{Result as StoreResult, SliceReader, StoreError};
use joinmi_table::{Aggregation, DataType, Table, TableError, Value};

use crate::config::{Side, SketchConfig};
use crate::kmv::{BoundedMinSet, Offer};
use crate::persist::{
    aggregation_from_tag, aggregation_tag, dtype_from_tag, dtype_tag, read_served_kind, read_value,
    write_value, TUPSK_KIND_TAG,
};
use crate::row::{ColumnSketch, SketchRow};
use crate::Result;

// ---------------------------------------------------------------------------
// Incremental aggregation state.
// ---------------------------------------------------------------------------

/// Exact incremental state of one key group under one [`Aggregation`].
///
/// Feeding values in row-arrival order and finalizing yields the same
/// [`Value`] — bit for bit, including float rounding — as
/// [`Aggregation::apply`] over the whole group at once.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Running numeric sum and count (`AVG`).
    Avg {
        /// Left-fold sum in arrival order.
        sum: f64,
        /// Number of numeric (non-NULL) values folded in.
        count: u64,
    },
    /// Running numeric sum (`SUM`).
    Sum {
        /// Left-fold sum in arrival order.
        sum: f64,
        /// Number of numeric (non-NULL) values folded in.
        count: u64,
    },
    /// Non-NULL row count (`COUNT`).
    Count {
        /// Number of non-NULL values seen.
        count: u64,
    },
    /// Distinct non-NULL values (`COUNT_DISTINCT`).
    CountDistinct {
        /// The distinct values seen so far.
        distinct: std::collections::HashSet<Value>,
    },
    /// Running minimum (`MIN`; first of equal minima wins).
    Min {
        /// Smallest value seen, if any non-NULL value arrived.
        best: Option<Value>,
    },
    /// Running maximum (`MAX`; last of equal maxima wins).
    Max {
        /// Largest value seen, if any non-NULL value arrived.
        best: Option<Value>,
    },
    /// Full value-count map (`MODE`).
    Mode {
        /// Occurrences of each distinct non-NULL value.
        counts: HashMap<Value, u64>,
    },
    /// All numeric values in arrival order (`MEDIAN` has no bounded state).
    Median {
        /// The group's numeric values, in arrival order.
        values: Vec<f64>,
    },
    /// First non-NULL value (`FIRST`).
    First {
        /// The first non-NULL value seen, if any.
        first: Option<Value>,
    },
}

impl AggState {
    /// Empty state for the given aggregation.
    #[must_use]
    pub fn new(agg: Aggregation) -> Self {
        match agg {
            Aggregation::Avg => Self::Avg { sum: 0.0, count: 0 },
            Aggregation::Sum => Self::Sum { sum: 0.0, count: 0 },
            Aggregation::Count => Self::Count { count: 0 },
            Aggregation::CountDistinct => Self::CountDistinct {
                distinct: std::collections::HashSet::new(),
            },
            Aggregation::Min => Self::Min { best: None },
            Aggregation::Max => Self::Max { best: None },
            Aggregation::Mode => Self::Mode {
                counts: HashMap::new(),
            },
            Aggregation::Median => Self::Median { values: Vec::new() },
            Aggregation::First => Self::First { first: None },
        }
    }

    /// Folds one group value into the state (NULLs are ignored, exactly as
    /// [`Aggregation::apply`] filters them out).
    pub fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        match self {
            Self::Avg { sum, count } | Self::Sum { sum, count } => {
                if let Some(x) = value.as_f64() {
                    *sum += x;
                    *count += 1;
                }
            }
            Self::Count { count } => *count += 1,
            Self::CountDistinct { distinct } => {
                if !distinct.contains(value) {
                    distinct.insert(value.clone());
                }
            }
            Self::Min { best } => {
                // Strict `<` keeps the first of equal minima, matching
                // `Iterator::min`.
                if !best.as_ref().is_some_and(|b| value >= b) {
                    *best = Some(value.clone());
                }
            }
            Self::Max { best } => {
                // `>=` keeps the *last* of equal maxima, matching
                // `Iterator::max`.
                if !best.as_ref().is_some_and(|b| value < b) {
                    *best = Some(value.clone());
                }
            }
            Self::Mode { counts } => {
                if let Some(c) = counts.get_mut(value) {
                    *c += 1;
                } else {
                    counts.insert(value.clone(), 1);
                }
            }
            Self::Median { values } => {
                if let Some(x) = value.as_f64() {
                    values.push(x);
                }
            }
            Self::First { first } => {
                if first.is_none() {
                    *first = Some(value.clone());
                }
            }
        }
    }

    /// The aggregated value of the group so far — identical to
    /// [`Aggregation::apply`] over the values fed in.
    #[must_use]
    pub fn finalize(&self) -> Value {
        match self {
            Self::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *count as f64)
                }
            }
            Self::Sum { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum)
                }
            }
            Self::Count { count } => Value::Int(*count as i64),
            Self::CountDistinct { distinct } => Value::Int(distinct.len() as i64),
            Self::Min { best } | Self::Max { best } => best.clone().unwrap_or(Value::Null),
            Self::Mode { counts } => {
                let mut best: Option<(&Value, u64)> = None;
                for (v, &c) in counts {
                    best = match best {
                        None => Some((v, c)),
                        Some((bv, bc)) => {
                            if c > bc || (c == bc && v < bv) {
                                Some((v, c))
                            } else {
                                Some((bv, bc))
                            }
                        }
                    };
                }
                best.map_or(Value::Null, |(v, _)| v.clone())
            }
            Self::Median { values } => {
                if values.is_empty() {
                    return Value::Null;
                }
                let mut nums = values.clone();
                nums.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN medians"));
                let mid = nums.len() / 2;
                if nums.len() % 2 == 1 {
                    Value::Float(nums[mid])
                } else {
                    Value::Float((nums[mid - 1] + nums[mid]) / 2.0)
                }
            }
            Self::First { first } => first.clone().unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// The appendable right-side sketch builder.
// ---------------------------------------------------------------------------

/// What one [`RightSketchBuilder::append_table_diff`] call changed about the
/// builder's *selection membership* — the inputs an index maintainer needs to
/// patch postings in `O(changed)` instead of re-diffing whole sketches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppendDiff {
    /// Rows absorbed (non-NULL join key).
    pub rows: usize,
    /// Key digests that entered the selection during this append.
    pub added: Vec<u64>,
    /// Key digests that were evicted from the selection during this append.
    pub removed: Vec<u64>,
}

/// Incrementally builds a right-side (aggregated candidate) TUPSK sketch that
/// can absorb appended rows in `O(changed)` and finalize — repeatedly — to a
/// [`ColumnSketch`] bit-for-bit identical to [`tupsk::build_right`](crate::tupsk::build_right) over
/// everything appended so far.
#[derive(Debug, Clone)]
pub struct RightSketchBuilder {
    agg: Aggregation,
    cfg: SketchConfig,
    key_column: String,
    value_column: String,
    key_dtype: DataType,
    input_dtype: DataType,
    value_dtype: DataType,
    source_rows: usize,
    /// Every distinct key digest ever seen (exact distinct-key count and the
    /// double-offer guard).
    seen: DigestHashSet,
    /// The coordinated KMV selection: the `n` keys with the smallest
    /// selection digests; payload is the raw key digest.
    selection: BoundedMinSet<u64>,
    /// Aggregation state for exactly the keys currently in `selection`.
    states: DigestHashMap<AggState>,
    /// Finished-row cache for [`Self::finish_cached`] (derived state — never
    /// persisted, rebuilt on demand).
    cache: Option<RowCache>,
    /// Selected keys whose aggregation state changed since the cache was
    /// built.
    dirty_values: DigestHashSet,
    /// Set when keys entered or left the selection since the cache was
    /// built (row order may have changed — the cache must be rebuilt).
    membership_dirty: bool,
}

/// Cached finished rows plus a key-digest → row-position map.
#[derive(Debug, Clone)]
struct RowCache {
    rows: Vec<SketchRow>,
    position: DigestHashMap<usize>,
}

impl RightSketchBuilder {
    /// Creates an empty builder for a `(key, value)` column pair with the
    /// given physical types. Fails like [`tupsk::build_right`](crate::tupsk::build_right) would if
    /// the aggregation is incompatible with the value type.
    pub fn new(
        key_column: &str,
        key_dtype: DataType,
        value_column: &str,
        input_dtype: DataType,
        agg: Aggregation,
        cfg: &SketchConfig,
    ) -> Result<Self> {
        let value_dtype = agg.output_dtype(input_dtype)?;
        // Every table starts empty and grows with the keys that arrive; none
        // is sized for `cfg.size`, which most candidates of a wide lake (a
        // few dozen keys each) never come near.
        Ok(Self {
            agg,
            cfg: *cfg,
            key_column: key_column.to_owned(),
            value_column: value_column.to_owned(),
            key_dtype,
            input_dtype,
            value_dtype,
            source_rows: 0,
            seen: DigestHashSet::default(),
            selection: BoundedMinSet::new(cfg.size),
            states: DigestHashMap::default(),
            cache: None,
            dirty_values: DigestHashSet::default(),
            membership_dirty: false,
        })
    }

    /// Creates a builder from a table's column pair and ingests the whole
    /// table — the bulk-ingest entry point.
    pub fn start(
        table: &Table,
        key: &str,
        value: &str,
        agg: Aggregation,
        cfg: &SketchConfig,
    ) -> Result<Self> {
        let key_dtype = table.column(key)?.dtype();
        let input_dtype = table.column(value)?.dtype();
        let mut builder = Self::new(key, key_dtype, value, input_dtype, agg, cfg)?;
        builder.append_table(table)?;
        Ok(builder)
    }

    /// Appends a chunk of rows (a table with the builder's key and value
    /// columns, same physical types). Returns the number of rows absorbed
    /// (rows with a NULL key are dropped, as at build time).
    ///
    /// Work is `O(chunk rows)`: rows of keys already outside the selection
    /// cost one hash probe; new keys that do not beat the KMV threshold cost
    /// one comparison.
    pub fn append_table(&mut self, chunk: &Table) -> Result<usize> {
        self.append_table_diff(chunk).map(|diff| diff.rows)
    }

    /// Like [`Self::append_table`], additionally reporting the *net*
    /// selection-membership change (see [`AppendDiff`]) so callers
    /// maintaining an inverted index over the selected keys can patch it in
    /// `O(changed)` rather than diffing whole sketches.
    pub fn append_table_diff(&mut self, chunk: &Table) -> Result<AppendDiff> {
        let key_col = chunk.column(&self.key_column)?;
        let value_col = chunk.column(&self.value_column)?;
        for (name, expected, actual) in [
            (&self.key_column, self.key_dtype, key_col.dtype()),
            (&self.value_column, self.input_dtype, value_col.dtype()),
        ] {
            if expected != actual {
                return Err(TableError::Unsupported(format!(
                    "append chunk column `{name}` has dtype {actual}, expected {expected}"
                )));
            }
        }

        let hasher = self.cfg.key_hasher();
        let unit = self.cfg.unit_hasher();
        let mut diff = AppendDiff::default();
        // Net membership change of this call: a key both added and evicted
        // within the chunk must not surface in either list.
        let mut added: DigestHashSet = DigestHashSet::default();
        let mut removed: DigestHashSet = DigestHashSet::default();
        for i in 0..chunk.num_rows() {
            let k = key_col.value(i);
            if k.is_null() {
                continue;
            }
            diff.rows += 1;
            let digest = k.key_hash(&hasher).raw();
            let value = value_col.value(i);
            if let Some(state) = self.states.get_mut(&digest) {
                // Key currently selected: fold the value in.
                state.update(&value);
                self.dirty_values.insert(digest);
            } else if self.seen.insert(digest) {
                // New distinct key: offer its TUPSK selection digest
                // `h_u(⟨k, 1⟩)` — on the aggregated side every key is
                // unique. The threshold comparison inside `offer_evicting` is
                // the O(changed) fast path — a non-qualifying key costs
                // exactly one compare.
                match self
                    .selection
                    .offer_evicting(unit.pair_digest(digest, 1), digest)
                {
                    Offer::Kept(evicted) => {
                        added.insert(digest);
                        self.membership_dirty = true;
                        if let Some((_, old_key)) = evicted {
                            self.states.remove(&old_key);
                            // An eviction of a key added earlier in this same
                            // chunk nets out to nothing.
                            if !added.remove(&old_key) {
                                removed.insert(old_key);
                            }
                        }
                        let mut state = AggState::new(self.agg);
                        state.update(&value);
                        self.states.insert(digest, state);
                    }
                    Offer::Rejected => {}
                }
            }
            // else: seen before but not selected — it can never enter the
            // selection (the threshold only decreases), so the row is skipped
            // entirely.
        }
        self.source_rows += diff.rows;
        diff.added = added.into_iter().collect();
        diff.removed = removed.into_iter().collect();
        diff.added.sort_unstable();
        diff.removed.sort_unstable();
        Ok(diff)
    }

    /// Number of keys currently in the selection — exactly the distinct key
    /// digests the finished sketch will hold.
    #[must_use]
    pub fn selection_len(&self) -> usize {
        self.selection.len()
    }

    /// Finalizes the current state into a [`ColumnSketch`] — callable any
    /// number of times; the builder keeps accepting appends afterwards.
    ///
    /// Bit-for-bit identical to [`tupsk::build_right`](crate::tupsk::build_right) over the
    /// concatenation of everything appended so far.
    #[must_use]
    pub fn finish(&self) -> ColumnSketch {
        let rows: Vec<SketchRow> = self
            .selection
            .sorted()
            .into_iter()
            .map(|(_, &digest)| {
                let value = self
                    .states
                    .get(&digest)
                    .expect("selected key has aggregation state")
                    .finalize();
                SketchRow::new(KeyHash(digest), value)
            })
            .collect();
        self.sketch(rows)
    }

    /// Wraps finished rows in this builder's TUPSK right-side sketch.
    fn sketch(&self, rows: Vec<SketchRow>) -> ColumnSketch {
        ColumnSketch::new(
            Side::Right,
            rows,
            self.value_dtype,
            self.source_rows,
            self.distinct_keys(),
            self.cfg,
        )
    }

    /// [`Self::finish`] with an `O(changed)` fast path: when no key entered
    /// or left the selection since the last finish, only the rows of keys
    /// with updated aggregation state are re-finalized; the rest come from a
    /// cached copy. Bit-for-bit identical to [`Self::finish`] (pinned by
    /// tests) — the cache is derived state, never persisted.
    ///
    /// This is what keeps the repository append path proportional to the
    /// appended rows end to end: for a small append the full rebuild's
    /// sort-and-refinalize over all `n` selected keys is the dominant cost.
    pub fn finish_cached(&mut self) -> ColumnSketch {
        // Rebuild when there is no cache, membership changed, or — defense
        // in depth — a dirty key is somehow absent from the cached rows (a
        // correctly primed or built cache always covers the selection).
        let must_rebuild = match &self.cache {
            None => true,
            Some(_) if self.membership_dirty => true,
            Some(cache) => self
                .dirty_values
                .iter()
                .any(|d| !cache.position.contains_key(d)),
        };
        if must_rebuild {
            let sketch = self.finish();
            let rows = sketch.rows().to_vec();
            let mut position = digest_map_with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                position.insert(row.key.raw(), i);
            }
            self.cache = Some(RowCache { rows, position });
            self.membership_dirty = false;
            self.dirty_values.clear();
            return sketch;
        }
        let cache = self.cache.as_mut().expect("checked above");
        for &digest in &self.dirty_values {
            let row = &mut cache.rows[cache.position[&digest]];
            row.value = self
                .states
                .get(&digest)
                .expect("dirty key has aggregation state")
                .finalize();
        }
        self.dirty_values.clear();
        let rows = cache.rows.clone();
        self.sketch(rows)
    }

    /// Primes the [`Self::finish_cached`] row cache from an already-finished
    /// sketch of this builder's exact current state — the repository loader
    /// uses the persisted candidate sketch (written from the same builder
    /// state, canonically) so the first append after a reload skips the full
    /// rebuild. A sketch that does not match the current selection is
    /// ignored; the cache is then simply rebuilt on the next finish.
    pub fn prime_cache(&mut self, sketch: &ColumnSketch) {
        if sketch.config() != &self.cfg
            || sketch.source_rows() != self.source_rows
            || sketch.len() != self.selection_len()
        {
            return;
        }
        // Every sketch row must correspond to a selected key (same length +
        // every key selected ⇒ bijection); a same-shape sketch of different
        // keys would otherwise make the patch path serve foreign rows.
        if !sketch
            .rows()
            .iter()
            .all(|r| self.states.contains_key(&r.key.raw()))
        {
            return;
        }
        let rows = sketch.rows().to_vec();
        let mut position = digest_map_with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            position.insert(row.key.raw(), i);
        }
        self.cache = Some(RowCache { rows, position });
        self.membership_dirty = false;
        self.dirty_values.clear();
    }

    /// The featurization applied to each key group.
    #[must_use]
    pub fn aggregation(&self) -> Aggregation {
        self.agg
    }

    /// Join-key column name.
    #[must_use]
    pub fn key_column(&self) -> &str {
        &self.key_column
    }

    /// Value (feature) column name.
    #[must_use]
    pub fn value_column(&self) -> &str {
        &self.value_column
    }

    /// Number of non-NULL-key source rows absorbed so far.
    #[must_use]
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// Number of distinct key digests seen so far.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.seen.len()
    }
}

// ---------------------------------------------------------------------------
// Builder-state persistence (used by the repository's appendable format).
// ---------------------------------------------------------------------------

/// Encoding tag of the KMV selection state, the only variant.
const STATE_KMV: u8 = 1;

fn write_agg_state<W: std::io::Write>(
    w: &mut joinmi_store::Writer<W>,
    state: &AggState,
) -> StoreResult<()> {
    match state {
        AggState::Avg { sum, count } => {
            w.write_u8(1)?;
            w.write_f64(*sum)?;
            w.write_u64(*count)
        }
        AggState::Sum { sum, count } => {
            w.write_u8(2)?;
            w.write_f64(*sum)?;
            w.write_u64(*count)
        }
        AggState::Count { count } => {
            w.write_u8(3)?;
            w.write_u64(*count)
        }
        AggState::CountDistinct { distinct } => {
            w.write_u8(4)?;
            // Canonical order so encode(decode(x)) == x.
            let mut values: Vec<&Value> = distinct.iter().collect();
            values.sort();
            w.write_len(values.len())?;
            for v in values {
                write_value(w, v)?;
            }
            Ok(())
        }
        AggState::Min { best } => {
            w.write_u8(5)?;
            write_opt_value(w, best)
        }
        AggState::Max { best } => {
            w.write_u8(6)?;
            write_opt_value(w, best)
        }
        AggState::Mode { counts } => {
            w.write_u8(7)?;
            let mut pairs: Vec<(&Value, u64)> = counts.iter().map(|(v, &c)| (v, c)).collect();
            pairs.sort_by(|a, b| a.0.cmp(b.0));
            w.write_len(pairs.len())?;
            for (v, c) in pairs {
                write_value(w, v)?;
                w.write_u64(c)?;
            }
            Ok(())
        }
        AggState::Median { values } => {
            w.write_u8(8)?;
            w.write_len(values.len())?;
            for &v in values {
                w.write_f64(v)?;
            }
            Ok(())
        }
        AggState::First { first } => {
            w.write_u8(9)?;
            write_opt_value(w, first)
        }
    }
}

fn write_opt_value<W: std::io::Write>(
    w: &mut joinmi_store::Writer<W>,
    value: &Option<Value>,
) -> StoreResult<()> {
    match value {
        None => w.write_u8(0),
        Some(v) => {
            w.write_u8(1)?;
            write_value(w, v)
        }
    }
}

/// Reads one aggregation state, which must be the variant of the builder's
/// aggregation: the two share their on-disk tag numbering.
fn read_agg_state(r: &mut SliceReader<'_>, agg: Aggregation) -> StoreResult<AggState> {
    let tag = r.read_u8("agg state tag")?;
    if tag != aggregation_tag(agg) {
        return Err(StoreError::corrupt(format!(
            "aggregation state tag {tag} does not match the declared aggregation"
        )));
    }
    Ok(match agg {
        Aggregation::Avg => AggState::Avg {
            sum: r.read_f64("avg sum")?,
            count: r.read_u64("avg count")?,
        },
        Aggregation::Sum => AggState::Sum {
            sum: r.read_f64("sum sum")?,
            count: r.read_u64("sum count")?,
        },
        Aggregation::Count => AggState::Count {
            count: r.read_u64("count count")?,
        },
        Aggregation::CountDistinct => {
            let n = r.read_len("distinct count")?;
            let mut distinct = std::collections::HashSet::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                distinct.insert(read_value(r)?.into());
            }
            AggState::CountDistinct { distinct }
        }
        Aggregation::Min => AggState::Min {
            best: read_opt_value(r)?,
        },
        Aggregation::Max => AggState::Max {
            best: read_opt_value(r)?,
        },
        Aggregation::Mode => {
            let n = r.read_len("mode value count")?;
            let mut counts = HashMap::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let v = read_value(r)?;
                let c = r.read_u64("mode count")?;
                counts.insert(v.into(), c);
            }
            AggState::Mode { counts }
        }
        Aggregation::Median => {
            let n = r.read_len("median value count")?;
            let mut values = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                values.push(r.read_f64("median value")?);
            }
            AggState::Median { values }
        }
        Aggregation::First => AggState::First {
            first: read_opt_value(r)?,
        },
    })
}

fn read_opt_value(r: &mut SliceReader<'_>) -> StoreResult<Option<Value>> {
    match r.read_u8("optional value flag")? {
        0 => Ok(None),
        1 => Ok(Some(read_value(r)?.into())),
        other => Err(StoreError::corrupt(format!(
            "invalid optional-value flag {other}"
        ))),
    }
}

impl RightSketchBuilder {
    /// Serializes the full builder state (canonical bytes: decode → encode
    /// reproduces the input exactly).
    pub fn write_state<W: std::io::Write>(
        &self,
        w: &mut joinmi_store::Writer<W>,
    ) -> StoreResult<()> {
        w.write_u8(TUPSK_KIND_TAG)?;
        w.write_u8(aggregation_tag(self.agg))?;
        w.write_u8(dtype_tag(self.key_dtype))?;
        w.write_u8(dtype_tag(self.input_dtype))?;
        w.write_len(self.cfg.size)?;
        w.write_u64(self.cfg.seed)?;
        w.write_str(&self.key_column)?;
        w.write_str(&self.value_column)?;
        w.write_len(self.source_rows)?;
        w.write_u8(STATE_KMV)?;
        let mut digests: Vec<u64> = self.seen.iter().copied().collect();
        digests.sort_unstable();
        w.write_len(digests.len())?;
        for d in digests {
            w.write_u64(d)?;
        }
        let entries = self.selection.entries();
        w.write_len(entries.len())?;
        for (sel, seq, &key_digest) in entries {
            w.write_u64(sel)?;
            w.write_u64(seq)?;
            w.write_u64(key_digest)?;
            write_agg_state(
                w,
                self.states
                    .get(&key_digest)
                    .expect("selected key has aggregation state"),
            )?;
        }
        Ok(())
    }

    /// Deserializes a builder state written by [`Self::write_state`] — the
    /// state's only decoder and validator. Beyond the byte layout it checks
    /// everything a later append relies on: the TUPSK kind and KMV variant
    /// bytes, aggregation/dtype compatibility, a sorted seen set, seq
    /// ordering, selection ⊆ seen, no duplicate keys, and state variants
    /// matching the declared aggregation. A repository snapshot only
    /// checksums these bytes at open; they are first interpreted here, by the
    /// eager `load`/`compact` path.
    pub fn read_state(r: &mut SliceReader<'_>) -> StoreResult<Self> {
        read_served_kind(r, "builder kind")?;
        let agg = aggregation_from_tag(r.read_u8("builder aggregation")?)?;
        let key_dtype = dtype_from_tag(r.read_u8("builder key dtype")?)?;
        let input_dtype = dtype_from_tag(r.read_u8("builder input dtype")?)?;
        let size = r.read_len("builder sketch size")?;
        let seed = r.read_u64("builder sketch seed")?;
        let key_column = r.read_str("builder key column")?;
        let value_column = r.read_str("builder value column")?;
        let source_rows = r.read_len("builder source rows")?;
        // `size` is untrusted here; `new` allocates nothing for it.
        let mut builder = Self::new(
            key_column,
            key_dtype,
            value_column,
            input_dtype,
            agg,
            &SketchConfig::new(size, seed),
        )
        .map_err(|e| StoreError::corrupt(format!("invalid builder state: {e}")))?;
        builder.source_rows = source_rows;

        let variant = r.read_u8("builder selection variant")?;
        if variant != STATE_KMV {
            return Err(StoreError::corrupt(format!(
                "unknown builder selection variant {variant}"
            )));
        }
        let seen_count = r.read_len("builder seen-key count")?;
        let mut seen = digest_set_with_capacity(seen_count.min(1 << 20));
        let mut prev: Option<u64> = None;
        for _ in 0..seen_count {
            let digest = r.read_u64("builder seen key digest")?;
            // The canonical encoding sorts the seen set; requiring it keeps
            // encode(decode(x)) == x and rules out duplicates.
            if prev.is_some_and(|p| p >= digest) {
                return Err(StoreError::corrupt(
                    "seen key digests must be strictly increasing",
                ));
            }
            prev = Some(digest);
            seen.insert(digest);
        }
        let entry_count = r.read_len("builder selection entry count")?;
        if entry_count > size {
            return Err(StoreError::corrupt(format!(
                "selection holds {entry_count} entries, capacity is {size}"
            )));
        }
        let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
        let mut states: DigestHashMap<AggState> =
            digest_map_with_capacity(entry_count.min(1 << 20));
        let mut prev_seq: Option<u64> = None;
        for _ in 0..entry_count {
            let sel = r.read_u64("builder selection digest")?;
            let seq = r.read_u64("builder selection seq")?;
            let key_digest = r.read_u64("builder selection key digest")?;
            let state = read_agg_state(r, agg)?;
            // `u64::MAX` is excluded too: the set resumes numbering at the
            // largest seq plus one.
            if prev_seq.is_some_and(|p| p >= seq) || seq == u64::MAX {
                return Err(StoreError::corrupt(
                    "selection entries must be in strictly increasing seq order",
                ));
            }
            prev_seq = Some(seq);
            if !seen.contains(&key_digest) {
                return Err(StoreError::corrupt(
                    "selected key digest missing from the seen set",
                ));
            }
            if states.insert(key_digest, state).is_some() {
                return Err(StoreError::corrupt(
                    "duplicate key digest in selection entries",
                ));
            }
            entries.push((sel, seq, key_digest));
        }
        builder.seen = seen;
        builder.selection = BoundedMinSet::from_entries(size, entries);
        builder.states = states;
        Ok(builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tupsk;
    use joinmi_store::Writer;

    /// Decodes a whole buffer as one builder state.
    fn read_state(bytes: &[u8]) -> StoreResult<RightSketchBuilder> {
        let mut r = SliceReader::new(bytes);
        let builder = RightSketchBuilder::read_state(&mut r)?;
        r.expect_consumed("builder state")?;
        Ok(builder)
    }

    /// A deterministic table with skewed string keys, some NULL keys and
    /// values, and `rows` rows.
    fn table_slice(name: &str, rows: std::ops::Range<usize>, dtype: DataType) -> Table {
        let mut keys = Vec::new();
        let mut values = Vec::new();
        for i in rows {
            let key = match i % 11 {
                0 => Value::Null,
                j if j < 6 => Value::from(format!("hot{}", j % 2)),
                j => Value::from(format!("k{}", (i * 7 + j) % 23)),
            };
            keys.push(key);
            let v = match dtype {
                DataType::Int => {
                    if i % 13 == 5 {
                        Value::Null
                    } else {
                        Value::Int((i as i64 * 31) % 17 - 4)
                    }
                }
                DataType::Float => {
                    if i % 13 == 5 {
                        Value::Null
                    } else {
                        Value::Float(((i as f64) * 0.37).sin())
                    }
                }
                DataType::Str => {
                    if i % 13 == 5 {
                        Value::Null
                    } else {
                        Value::from(format!("v{}", (i * 5) % 9))
                    }
                }
            };
            values.push(v);
        }
        Table::builder(name)
            .push_value_column("k", DataType::Str, &keys)
            .unwrap()
            .push_value_column("z", dtype, &values)
            .unwrap()
            .build()
            .unwrap()
    }

    fn assert_sketch_bits_equal(a: &ColumnSketch, b: &ColumnSketch, context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: len");
        assert_eq!(a.source_rows(), b.source_rows(), "{context}: source rows");
        assert_eq!(
            a.source_distinct_keys(),
            b.source_distinct_keys(),
            "{context}: distinct keys"
        );
        assert_eq!(a.value_dtype(), b.value_dtype(), "{context}: dtype");
        for (i, (ra, rb)) in a.rows().iter().zip(b.rows()).enumerate() {
            assert_eq!(ra.key, rb.key, "{context}: row {i} key");
            match (&ra.value, &rb.value) {
                (Value::Float(x), Value::Float(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{context}: row {i} float bits");
                }
                (x, y) => assert_eq!(x, y, "{context}: row {i} value"),
            }
        }
    }

    #[test]
    fn one_shot_builder_matches_build_right_for_every_kind_and_agg() {
        let cfg = SketchConfig::new(16, 5);
        for (agg, dtype) in [
            (Aggregation::Avg, DataType::Float),
            (Aggregation::Avg, DataType::Int),
            (Aggregation::Sum, DataType::Int),
            (Aggregation::Count, DataType::Str),
            (Aggregation::CountDistinct, DataType::Str),
            (Aggregation::Min, DataType::Int),
            (Aggregation::Max, DataType::Float),
            (Aggregation::Mode, DataType::Str),
            (Aggregation::Mode, DataType::Int),
            (Aggregation::Median, DataType::Float),
            (Aggregation::First, DataType::Str),
        ] {
            let table = table_slice("t", 0..230, dtype);
            let direct = tupsk::build_right(&table, "k", "z", agg, &cfg).unwrap();
            let built = RightSketchBuilder::start(&table, "k", "z", agg, &cfg)
                .unwrap()
                .finish();
            assert_sketch_bits_equal(&direct, &built, &format!("{agg}"));
        }
    }

    #[test]
    fn append_then_finalize_equals_from_scratch_for_every_kind() {
        let cfg = SketchConfig::new(12, 9);
        let full = table_slice("t", 0..300, DataType::Float);
        let direct = tupsk::build_right(&full, "k", "z", Aggregation::Avg, &cfg).unwrap();
        // Split 0..300 into uneven chunks, including an empty one.
        let mut builder = RightSketchBuilder::start(
            &table_slice("t", 0..57, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        for chunk in [57..57, 57..110, 110..111, 111..299, 299..300] {
            builder
                .append_table(&table_slice("t", chunk, DataType::Float))
                .unwrap();
        }
        assert_sketch_bits_equal(&direct, &builder.finish(), "append");
    }

    #[test]
    fn tables_are_sized_by_the_keys_held_not_by_the_sketch_size() {
        // 40 rows, 36 distinct non-NULL keys, default-sized sketch: the
        // shape of a wide lake's tail candidates.
        let keys: Vec<String> = (0..40).map(|i| format!("k{}", i % 36)).collect();
        let table = Table::builder("t")
            .push_str_column("k", keys.iter().map(String::as_str))
            .push_int_column("z", 0..40)
            .build()
            .unwrap();
        let cfg = SketchConfig::new(1024, 3);
        let builder = RightSketchBuilder::start(&table, "k", "z", Aggregation::Avg, &cfg).unwrap();
        assert_eq!(builder.distinct_keys(), 36);
        let allocated = [
            builder.seen.capacity(),
            builder.selection.allocated(),
            builder.states.capacity(),
        ];
        assert!(
            allocated
                .iter()
                .all(|&slots| (36..=4 * 36).contains(&slots)),
            "{allocated:?} slots allocated for 36 keys"
        );
        let direct = tupsk::build_right(&table, "k", "z", Aggregation::Avg, &cfg).unwrap();
        assert_sketch_bits_equal(&direct, &builder.finish(), "small");
    }

    #[test]
    fn finish_is_repeatable_and_does_not_consume() {
        let cfg = SketchConfig::new(8, 2);
        let mut builder = RightSketchBuilder::start(
            &table_slice("t", 0..100, DataType::Int),
            "k",
            "z",
            Aggregation::Mode,
            &cfg,
        )
        .unwrap();
        let first = builder.finish();
        let second = builder.finish();
        assert_sketch_bits_equal(&first, &second, "repeat finish");
        builder
            .append_table(&table_slice("t", 100..150, DataType::Int))
            .unwrap();
        let direct = tupsk::build_right(
            &table_slice("t", 0..150, DataType::Int),
            "k",
            "z",
            Aggregation::Mode,
            &cfg,
        )
        .unwrap();
        assert_sketch_bits_equal(&direct, &builder.finish(), "grow after finish");
    }

    #[test]
    fn finish_cached_is_bit_identical_to_finish_through_appends() {
        // Small capacity forces evictions (membership changes) between
        // value-only appends, exercising both the patch path and the
        // rebuild path of the cache.
        let cfg = SketchConfig::new(6, 3);
        let mut builder = RightSketchBuilder::start(
            &table_slice("t", 0..40, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        for chunk in [40..80, 80..81, 81..140, 140..230] {
            builder
                .append_table(&table_slice("t", chunk, DataType::Float))
                .unwrap();
            let reference = builder.finish();
            let cached = builder.finish_cached();
            assert_sketch_bits_equal(&reference, &cached, "cached");
            // A second cached finish with nothing dirty is stable too.
            assert_sketch_bits_equal(&reference, &builder.finish_cached(), "cached repeat");
        }
    }

    #[test]
    fn primed_cache_serves_patched_rows_bit_identically() {
        let cfg = SketchConfig::new(10, 7);
        let mut builder = RightSketchBuilder::start(
            &table_slice("t", 0..150, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        let sketch = builder.finish();
        // A fresh clone of the builder state (as the loader produces) primed
        // from the persisted sketch must patch values without a rebuild.
        let mut restored = builder.clone();
        restored.prime_cache(&sketch);
        restored
            .append_table(&table_slice("t", 150..170, DataType::Float))
            .unwrap();
        builder
            .append_table(&table_slice("t", 150..170, DataType::Float))
            .unwrap();
        assert_sketch_bits_equal(&builder.finish(), &restored.finish_cached(), "primed patch");
        // Priming with a mismatched sketch is ignored, not trusted.
        let mut fresh = RightSketchBuilder::start(
            &table_slice("t", 0..30, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        fresh.prime_cache(&sketch);
        assert_sketch_bits_equal(&fresh.finish(), &fresh.finish_cached(), "mismatch ignored");
    }

    #[test]
    fn state_round_trips_and_appends_identically_after_reload() {
        let cfg = SketchConfig::new(10, 4);
        let mut original = RightSketchBuilder::start(
            &table_slice("t", 0..120, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();

        let mut bytes = Writer::new(Vec::new());
        original.write_state(&mut bytes).unwrap();
        let bytes = bytes.into_inner();
        let mut restored = read_state(&bytes).unwrap();

        // Canonical bytes: encode(decode(x)) == x.
        let mut again = Writer::new(Vec::new());
        restored.write_state(&mut again).unwrap();
        assert_eq!(again.into_inner(), bytes, "canonical state bytes");

        // Appending after reload behaves exactly like appending to the
        // original builder.
        let tail = table_slice("t", 120..260, DataType::Float);
        original.append_table(&tail).unwrap();
        restored.append_table(&tail).unwrap();
        assert_sketch_bits_equal(&original.finish(), &restored.finish(), "reload append");

        // And both equal a from-scratch build of the concatenation.
        let direct = tupsk::build_right(
            &table_slice("t", 0..260, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        assert_sketch_bits_equal(&direct, &restored.finish(), "vs direct");
    }

    #[test]
    fn corrupt_state_bytes_are_typed_errors() {
        let cfg = SketchConfig::new(4, 1);
        let builder = RightSketchBuilder::start(
            &table_slice("t", 0..50, DataType::Int),
            "k",
            "z",
            Aggregation::Min,
            &cfg,
        )
        .unwrap();
        let mut w = Writer::new(Vec::new());
        builder.write_state(&mut w).unwrap();
        let bytes = w.into_inner();

        // Truncations at every prefix must be typed, never a panic.
        for cut in 0..bytes.len() {
            match read_state(&bytes[..cut]) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                Ok(_) => panic!("cut at {cut} decoded"),
                Err(e) => panic!("cut at {cut}: unexpected error {e:?}"),
            }
        }
        // A bad kind tag is corrupt.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(matches!(read_state(&bad), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn read_state_rejects_semantically_invalid_states() {
        // A section checksum proves integrity, not meaning: each of these
        // states is well-formed byte for byte and must still be a typed
        // error, never a builder that misbehaves on the next append.
        let cfg = SketchConfig::new(8, 2);
        let builder = RightSketchBuilder::start(
            &table_slice("t", 0..90, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        let mut w = Writer::new(Vec::new());
        builder.write_state(&mut w).unwrap();
        let bytes = w.into_inner();

        let assert_rejected = |mutated: Vec<u8>, what: &str| {
            assert!(
                matches!(read_state(&mutated), Err(StoreError::Corrupt(_))),
                "read_state must reject {what}"
            );
        };

        // Aggregation incompatible with the value dtype (AVG over Str).
        let mut bad_dtype = bytes.clone();
        assert_eq!(bad_dtype[3], 2, "input dtype tag offset (Float)");
        bad_dtype[3] = 3; // Str
        assert_rejected(bad_dtype, "AVG over a Str value column");

        // The four baseline kind tags.
        for tag in 2..=5 {
            let mut bad_kind = bytes.clone();
            assert_eq!(bad_kind[0], 1, "kind tag offset (Tupsk)");
            bad_kind[0] = tag;
            assert_rejected(bad_kind, "a baseline kind tag");
        }

        // Locate the seen list: header fields are fixed-width up to the two
        // column-name strings.
        let mut p = SliceReader::new(&bytes);
        for _ in 0..4 {
            p.read_u8("tags").unwrap();
        }
        p.read_u64("size").unwrap();
        p.read_u64("seed").unwrap();
        p.read_str("key col").unwrap();
        p.read_str("value col").unwrap();
        p.read_u64("source rows").unwrap();
        let variant_at = p.position();
        assert_eq!(p.read_u8("variant").unwrap(), STATE_KMV);
        // Any selection variant but KMV, including the Bernoulli-replay
        // variant (2) INDSK builders once wrote.
        for variant in [0, 2, 3] {
            let mut bad_variant = bytes.clone();
            bad_variant[variant_at] = variant;
            assert_rejected(bad_variant, "a selection variant other than KMV");
        }
        let seen_count = p.read_len("seen count").unwrap();
        assert!(seen_count >= 2, "test table must have several keys");
        let seen_start = p.position();

        // Unsorted seen list (swap the first two digests).
        let mut unsorted = bytes.clone();
        let (a, b) = (seen_start, seen_start + 8);
        for i in 0..8 {
            unsorted.swap(a + i, b + i);
        }
        assert_rejected(unsorted, "unsorted seen digests");

        // A selection entry key missing from the seen set: corrupt the first
        // seen digest (entries reference the original digests).
        let mut missing = bytes.clone();
        missing[seen_start..seen_start + 8].copy_from_slice(&0u64.to_le_bytes());
        assert_rejected(missing, "selection key missing from seen");

        // A sketch size far beyond memory is not an error by itself — and
        // must not be pre-allocated for: the decode succeeds, sized by the
        // entries actually present.
        let mut huge_size = bytes.clone();
        huge_size[4..12].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(read_state(&huge_size).unwrap().cfg.size, 1 << 40);

        // An aggregation state variant that contradicts the declared
        // aggregation: claim MIN while the states are AVG-shaped.
        let mut wrong_variant = bytes.clone();
        assert_eq!(wrong_variant[1], 1, "aggregation tag offset (Avg)");
        wrong_variant[1] = 5; // Min — structurally different state layout
        match read_state(&wrong_variant) {
            Err(StoreError::Corrupt(_) | StoreError::Truncated { .. }) => {}
            other => panic!("read_state must reject variant mismatch, got {other:?}"),
        }
    }

    #[test]
    fn schema_mismatch_on_append_is_rejected() {
        let cfg = SketchConfig::new(8, 0);
        let mut builder = RightSketchBuilder::start(
            &table_slice("t", 0..30, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        // Wrong value dtype.
        let wrong = table_slice("t", 30..40, DataType::Int);
        assert!(matches!(
            builder.append_table(&wrong),
            Err(TableError::Unsupported(_))
        ));
        // Missing column.
        let missing = Table::builder("t")
            .push_str_column("k", vec!["a"])
            .build()
            .unwrap();
        assert!(builder.append_table(&missing).is_err());
        // The failed appends must not have corrupted the builder.
        let direct = tupsk::build_right(
            &table_slice("t", 0..30, DataType::Float),
            "k",
            "z",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        assert_sketch_bits_equal(&direct, &builder.finish(), "after rejected appends");
    }

    #[test]
    fn agg_state_matches_apply_on_every_aggregation() {
        // Values with NULLs, ties, and float edge cases, folded one by one.
        let groups: Vec<Vec<Value>> = vec![
            vec![Value::Int(3), Value::Int(1), Value::Int(3), Value::Null],
            vec![Value::Float(-0.0), Value::Float(0.0), Value::Float(2.5)],
            vec![Value::Null, Value::Null],
            vec![
                Value::from("b"),
                Value::from("a"),
                Value::from("b"),
                Value::from("a"),
            ],
            vec![Value::Float(1.5)],
        ];
        for agg in Aggregation::ALL {
            for group in &groups {
                // Skip type-incompatible pairings the builder would reject.
                let numeric_only = matches!(
                    agg,
                    Aggregation::Avg | Aggregation::Sum | Aggregation::Median
                );
                let has_str = group.iter().any(|v| matches!(v, Value::Str(_)));
                if numeric_only && has_str {
                    continue;
                }
                let mut state = AggState::new(agg);
                for v in group {
                    state.update(v);
                }
                let expected = agg.apply(group);
                let actual = state.finalize();
                match (&expected, &actual) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "{agg}: float bits");
                    }
                    (a, b) => assert_eq!(a, b, "{agg}"),
                }
            }
        }
    }
}
