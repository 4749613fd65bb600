//! Sketch rows and per-column sketches.

use std::collections::HashMap;
use std::sync::OnceLock;

use joinmi_hash::KeyHash;
use joinmi_table::{DataType, Value};

use crate::config::{Side, SketchConfig};
use crate::join::JoinedSketch;

/// One sampled tuple `⟨h(k), value⟩` stored in a sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchRow {
    /// Hash digest of the join-key value.
    pub key: KeyHash,
    /// The sampled target / feature value associated with the key occurrence.
    pub value: Value,
}

impl SketchRow {
    /// Creates a sketch row.
    #[must_use]
    pub fn new(key: KeyHash, value: Value) -> Self {
        Self { key, value }
    }
}

/// The values of a sketch's rows interned to dense integer codes, in the
/// order the rows are stored.
///
/// Estimators over categorical data consume `u32` codes, not values. A sketch
/// is joined against many others (a query sketch against every scored
/// candidate, a candidate by every query that reaches it), so its values are
/// hashed once here and every join gathers the codes.
#[derive(Debug, Clone)]
pub(crate) struct SampleCodes {
    /// `codes[i]` is the code of `rows[i].value`: equal values (by [`Value`]
    /// equality) share a code, codes count up from 0 in first-occurrence
    /// order, and NULL rows hold [`SampleCodes::NULL`].
    pub(crate) codes: Vec<u32>,
    /// Number of distinct non-NULL values, i.e. one past the largest code.
    pub(crate) distinct: usize,
}

impl SampleCodes {
    /// Placeholder code of a NULL row (a join never pairs one).
    pub(crate) const NULL: u32 = u32::MAX;

    fn of(rows: &[SketchRow]) -> Self {
        let mut seen: HashMap<&Value, u32> = HashMap::new();
        let codes = rows
            .iter()
            .map(|row| {
                if row.value.is_null() {
                    return Self::NULL;
                }
                let next = seen.len() as u32;
                *seen.entry(&row.value).or_insert(next)
            })
            .collect();
        Self {
            codes,
            distinct: seen.len(),
        }
    }
}

/// A sketch of one `(join key, value column)` pair of a table.
///
/// Built offline (by [`crate::tupsk`], or by one of the evaluation's
/// baselines); joined with another column's sketch at query time to recover
/// a sample of the (never materialized) join. A sketch does not record which
/// strategy built it: whoever builds one knows. Equality is exact (float values
/// compare by canonical bit pattern via [`Value`]), which is what the
/// persistence round-trip tests rely on.
#[derive(Debug, Clone)]
pub struct ColumnSketch {
    side: Side,
    rows: Vec<SketchRow>,
    value_dtype: DataType,
    source_rows: usize,
    source_distinct_keys: usize,
    config: SketchConfig,
    /// Derived from `rows` by the first join that needs it; never persisted
    /// and not part of equality or the content fingerprint.
    codes: OnceLock<SampleCodes>,
}

impl PartialEq for ColumnSketch {
    fn eq(&self, other: &Self) -> bool {
        self.side == other.side
            && self.rows == other.rows
            && self.value_dtype == other.value_dtype
            && self.source_rows == other.source_rows
            && self.source_distinct_keys == other.source_distinct_keys
            && self.config == other.config
    }
}

impl ColumnSketch {
    /// Assembles a sketch from its parts (used by the builder modules).
    #[must_use]
    pub fn new(
        side: Side,
        rows: Vec<SketchRow>,
        value_dtype: DataType,
        source_rows: usize,
        source_distinct_keys: usize,
        config: SketchConfig,
    ) -> Self {
        Self {
            side,
            rows,
            value_dtype,
            source_rows,
            source_distinct_keys,
            config,
            codes: OnceLock::new(),
        }
    }

    /// Which side of the join this sketch represents.
    #[must_use]
    pub fn side(&self) -> Side {
        self.side
    }

    /// The sampled rows.
    #[must_use]
    pub fn rows(&self) -> &[SketchRow] {
        &self.rows
    }

    /// The rows' values as dense codes, computed on first use.
    pub(crate) fn sample_codes(&self) -> &SampleCodes {
        self.codes.get_or_init(|| SampleCodes::of(&self.rows))
    }

    /// Number of sampled rows actually stored (the paper's "storage size").
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the sketch holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Data type of the sampled values.
    #[must_use]
    pub fn value_dtype(&self) -> DataType {
        self.value_dtype
    }

    /// Number of rows in the source table at build time.
    #[must_use]
    pub fn source_rows(&self) -> usize {
        self.source_rows
    }

    /// Number of distinct non-NULL join-key values in the source table.
    #[must_use]
    pub fn source_distinct_keys(&self) -> usize {
        self.source_distinct_keys
    }

    /// The configuration the sketch was built with.
    #[must_use]
    pub fn config(&self) -> &SketchConfig {
        &self.config
    }

    /// Number of distinct key digests stored in the sketch.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<u64> = self.rows.iter().map(|r| r.key.raw()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Joins this (left) sketch with a right-side sketch on the hashed keys,
    /// recovering paired `(y, x)` samples of the join result.
    ///
    /// The right sketch is expected to have unique keys (aggregated side);
    /// if it does not, the first row per key wins, mirroring the behaviour of
    /// a many-to-one join.
    #[must_use]
    pub fn join(&self, right: &ColumnSketch) -> JoinedSketch {
        JoinedSketch::from_sketches(self, right)
    }

    /// A 128-bit content fingerprint of the sketch, stable across runs and
    /// processes.
    ///
    /// Two sketches fingerprint equal exactly when they are `==`: the digest
    /// covers the side, value dtype, build configuration, source
    /// cardinalities, and every stored row (key digest plus the value in the
    /// same canonical form `Value`'s `Eq`/`Hash` use, so `-0.0`/`+0.0` and
    /// all NaN payloads collapse). The cross-query stage cache keys on this
    /// to recognise "the same left sketch" across distinct query objects.
    #[must_use]
    pub fn content_fingerprint(&self) -> (u64, u64) {
        // 42 bytes covers the fixed-size header fields; rows dominate.
        let mut bytes = Vec::with_capacity(64 + self.rows.len() * 17);
        bytes.push(match self.side {
            Side::Left => 0u8,
            Side::Right => 1u8,
        });
        bytes.push(self.value_dtype as u8);
        bytes.extend_from_slice(&(self.config.size as u64).to_le_bytes());
        bytes.extend_from_slice(&self.config.seed.to_le_bytes());
        bytes.extend_from_slice(&(self.source_rows as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.source_distinct_keys as u64).to_le_bytes());
        bytes.extend_from_slice(&(self.rows.len() as u64).to_le_bytes());
        for row in &self.rows {
            bytes.extend_from_slice(&row.key.raw().to_le_bytes());
            encode_value(&mut bytes, &row.value);
        }
        joinmi_hash::murmur3_x64_128(&bytes, CONTENT_FINGERPRINT_SEED)
    }
}

/// Seed for [`ColumnSketch::content_fingerprint`] (`"jmi1SKFP"` as ASCII).
const CONTENT_FINGERPRINT_SEED: u64 = 0x6A6D_6931_534B_4650;

/// Appends a canonical, self-delimiting encoding of `value`.
fn encode_value(bytes: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => bytes.push(0),
        Value::Int(v) => {
            bytes.push(1);
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            bytes.push(2);
            // Mirror Value's canonical float bits: one NaN pattern, -0 == +0.
            let bits = if v.is_nan() {
                f64::NAN.to_bits()
            } else if *v == 0.0 {
                0.0f64.to_bits()
            } else {
                v.to_bits()
            };
            bytes.extend_from_slice(&bits.to_le_bytes());
        }
        Value::Str(s) => {
            bytes.push(3);
            bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
            bytes.extend_from_slice(s.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sketch(values: Vec<(u64, Value)>) -> ColumnSketch {
        let rows = values
            .into_iter()
            .map(|(k, v)| SketchRow::new(KeyHash(k), v))
            .collect();
        ColumnSketch::new(
            Side::Left,
            rows,
            DataType::Int,
            100,
            10,
            SketchConfig::default(),
        )
    }

    #[test]
    fn accessors() {
        let s = sample_sketch(vec![
            (1, Value::Int(5)),
            (2, Value::Int(6)),
            (1, Value::Int(7)),
        ]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.distinct_keys(), 2);
        assert_eq!(s.value_dtype(), DataType::Int);
        assert_eq!(s.source_rows(), 100);
        assert_eq!(s.source_distinct_keys(), 10);
        assert_eq!(s.side(), Side::Left);
        assert_eq!(s.config().size, 256);
    }

    #[test]
    fn sample_codes_follow_value_equality_and_leave_identity_alone() {
        let values = vec![
            (1, Value::from("b")),
            (2, Value::Null),
            (3, Value::from("a")),
            (4, Value::from("b")),
            (5, Value::Float(0.0)),
            (6, Value::Float(-0.0)),
        ];
        let coded = sample_sketch(values.clone());
        let fresh = sample_sketch(values);
        let codes = coded.sample_codes();
        assert_eq!(codes.codes, vec![0, SampleCodes::NULL, 1, 0, 2, 2]);
        assert_eq!(codes.distinct, 3);
        // The derived column is invisible to equality, clones and the digest.
        assert_eq!(coded, fresh);
        assert_eq!(coded.clone(), fresh);
        assert_eq!(coded.content_fingerprint(), fresh.content_fingerprint());
    }

    #[test]
    fn content_fingerprint_tracks_equality() {
        let a = sample_sketch(vec![(1, Value::Int(5)), (2, Value::Int(6))]);
        let b = sample_sketch(vec![(1, Value::Int(5)), (2, Value::Int(6))]);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());

        // Any content difference moves the digest: a value edit, a key edit,
        // a row-order swap (row order is part of sketch identity).
        let value_edit = sample_sketch(vec![(1, Value::Int(5)), (2, Value::Int(7))]);
        let key_edit = sample_sketch(vec![(1, Value::Int(5)), (3, Value::Int(6))]);
        let swapped = sample_sketch(vec![(2, Value::Int(6)), (1, Value::Int(5))]);
        for other in [&value_edit, &key_edit, &swapped] {
            assert_ne!(a.content_fingerprint(), other.content_fingerprint());
        }
    }

    #[test]
    fn content_fingerprint_uses_canonical_floats() {
        let pos = sample_sketch(vec![(1, Value::Float(0.0))]);
        let neg = sample_sketch(vec![(1, Value::Float(-0.0))]);
        assert_eq!(pos, neg);
        assert_eq!(pos.content_fingerprint(), neg.content_fingerprint());

        // A string value must not collide with an int spelling the same bytes.
        let s = sample_sketch(vec![(1, Value::from("5"))]);
        let i = sample_sketch(vec![(1, Value::Int(5))]);
        assert_ne!(s.content_fingerprint(), i.content_fingerprint());
    }
}
