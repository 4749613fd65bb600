//! Sketch joins and MI estimation over the recovered sample.
//!
//! Joining two column sketches on their hashed keys recovers a subset of the
//! full join's `(x, y)` pairs (Section IV, "Approach Overview"). The paired
//! sample is then handed to `joinmi_estimators`, which selects the estimator
//! from the value data types exactly as in the paper's experiments and, for
//! interval scoring, adds the credible interval. A [`JoinedSketch`] only
//! gathers the sample; it owns no estimation rule.

use joinmi_estimators::{
    estimate_mi_interval_with_workspace, estimate_mi_with_workspace, select_estimator,
    EstimatorError, EstimatorWorkspace, MiEstimate, MiInterval, Variable, DEFAULT_K,
};
use joinmi_hash::{digest_map_with_capacity, DigestHashMap};
use joinmi_table::{DataType, Value};

use crate::row::{ColumnSketch, SketchRow};

/// The paired sample recovered by joining a left sketch with a right sketch,
/// held as the two typed columns the estimators consume.
#[derive(Debug, Clone)]
pub struct JoinedSketch {
    /// `(x, y)`: feature values from the right / augmentation side and target
    /// values from the left / training side, aligned — or the error every
    /// estimate fails with, when a numeric-typed side held a non-numeric
    /// value.
    sample: Result<(Variable, Variable), EstimatorError>,
    /// Number of recovered pairs, also when `sample` is an error.
    len: usize,
    x_dtype: DataType,
    y_dtype: DataType,
}

/// One side of a sketch join being gathered into its estimator column.
enum Gather<'a> {
    /// A `Str` sketch: per-row codes, relabelled to first-occurrence order
    /// *within the join* — the integers `discretize` assigns to the joined
    /// values, which the contingency-table estimators are sensitive to.
    Codes {
        codes: &'a [u32],
        /// Sketch-level code → join-level code ([`UNSEEN`] until first met).
        relabel: Vec<u32>,
        next: u32,
        out: Vec<u32>,
    },
    /// A numeric sketch: `as_f64` of each row's value.
    Floats {
        rows: &'a [SketchRow],
        dtype: DataType,
        out: Vec<f64>,
        /// The conversion error of the first non-numeric value met.
        error: Option<EstimatorError>,
    },
}

const UNSEEN: u32 = u32::MAX;

impl<'a> Gather<'a> {
    fn new(sketch: &'a ColumnSketch, capacity: usize) -> Self {
        match sketch.value_dtype() {
            DataType::Str => {
                let sample = sketch.sample_codes();
                Self::Codes {
                    codes: &sample.codes,
                    relabel: vec![UNSEEN; sample.distinct],
                    next: 0,
                    out: Vec::with_capacity(capacity),
                }
            }
            dtype @ (DataType::Int | DataType::Float) => Self::Floats {
                rows: sketch.rows(),
                dtype,
                out: Vec::with_capacity(capacity),
                error: None,
            },
        }
    }

    /// Appends the (non-NULL) value of sketch row `index`.
    fn push(&mut self, index: usize) {
        match self {
            Self::Codes {
                codes,
                relabel,
                next,
                out,
            } => {
                let slot = &mut relabel[codes[index] as usize];
                if *slot == UNSEEN {
                    *slot = *next;
                    *next += 1;
                }
                out.push(*slot);
            }
            Self::Floats {
                rows,
                dtype,
                out,
                error,
            } => {
                let value = &rows[index].value;
                // A value that is not a number poisons the sample with the
                // error the `Value`-level conversion reports for it; the NaN
                // only keeps both columns the same length.
                out.push(value.as_f64().unwrap_or_else(|| {
                    if error.is_none() {
                        *error = Variable::from_values(std::slice::from_ref(value), *dtype).err();
                    }
                    f64::NAN
                }));
            }
        }
    }

    /// The gathered column, allocated to its length.
    fn finish(self) -> Result<Variable, EstimatorError> {
        match self {
            Self::Codes { mut out, .. } => {
                out.shrink_to_fit();
                Ok(Variable::Discrete(out))
            }
            Self::Floats {
                error: Some(error), ..
            } => Err(error),
            Self::Floats { mut out, .. } => {
                out.shrink_to_fit();
                Ok(Variable::Continuous(out))
            }
        }
    }
}

impl JoinedSketch {
    /// Joins a left sketch with a right sketch on the hashed join keys.
    ///
    /// Pairs come out in left-row order; a pair with a NULL on either side is
    /// dropped. No value is copied: string sides contribute their sketch's
    /// interned codes, numeric sides their coordinates.
    #[must_use]
    pub fn from_sketches(left: &ColumnSketch, right: &ColumnSketch) -> Self {
        // Right side: unique keys (first row wins if the builder somehow kept
        // duplicates, mirroring many-to-one semantics). Keys are already
        // 64-bit digests, so the probe map skips SipHash entirely.
        let right_rows = right.rows();
        let mut right_index: DigestHashMap<usize> = digest_map_with_capacity(right_rows.len());
        for (j, row) in right_rows.iter().enumerate() {
            right_index.entry(row.key.raw()).or_insert(j);
        }

        // Every left row yields at most one pair.
        let mut x = Gather::new(right, left.len());
        let mut y = Gather::new(left, left.len());
        let mut len = 0;
        for (i, row) in left.rows().iter().enumerate() {
            if let Some(&j) = right_index.get(&row.key.raw()) {
                if row.value.is_null() || right_rows[j].value.is_null() {
                    continue;
                }
                x.push(j);
                y.push(i);
                len += 1;
            }
        }
        // Like the `Value`-level conversion, report the feature side first.
        let sample = x.finish().and_then(|x| Ok((x, y.finish()?)));
        Self {
            sample,
            len,
            x_dtype: right.value_dtype(),
            y_dtype: left.value_dtype(),
        }
    }

    /// Builds a joined sample directly from paired value columns: the
    /// `Value`-level reference [`Self::from_sketches`] is tested against, and
    /// the entry point of the full-join baseline, which shares the estimation
    /// path with the sketches.
    #[must_use]
    pub fn from_pairs(
        xs: Vec<Value>,
        ys: Vec<Value>,
        x_dtype: DataType,
        y_dtype: DataType,
    ) -> Self {
        // Keep only pairs where both sides are non-NULL. A single pre-sized
        // pass (instead of zip + unzip) avoids the two incrementally grown
        // intermediate vectors unzip would allocate.
        let n = xs.len().min(ys.len());
        let mut kept_xs = Vec::with_capacity(n);
        let mut kept_ys = Vec::with_capacity(n);
        for (x, y) in xs.into_iter().zip(ys) {
            if !x.is_null() && !y.is_null() {
                kept_xs.push(x);
                kept_ys.push(y);
            }
        }
        let sample = Variable::from_values(&kept_xs, x_dtype)
            .and_then(|x| Ok((x, Variable::from_values(&kept_ys, y_dtype)?)));
        Self {
            sample,
            len: kept_xs.len(),
            x_dtype,
            y_dtype,
        }
    }

    /// Number of recovered pairs (the paper's "sketch join size").
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no pairs were recovered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident size of this joined sample in bytes: the struct plus 4 bytes
    /// per code and 8 per coordinate, exactly — the columns of a sketch join
    /// are allocated to their length. So a pair costs 16 B numeric–numeric,
    /// 12 B code–numeric and 8 B code–code. The cross-query stage cache
    /// charges entries by this.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let column_bytes = |v: &Variable| match v {
            Variable::Discrete(codes) => std::mem::size_of_val(codes.as_slice()),
            Variable::Continuous(coords) => std::mem::size_of_val(coords.as_slice()),
        };
        std::mem::size_of::<Self>()
            + self
                .sample
                .as_ref()
                .map_or(0, |(x, y)| column_bytes(x) + column_bytes(y))
    }

    /// Data type of the feature values.
    #[must_use]
    pub fn x_dtype(&self) -> DataType {
        self.x_dtype
    }

    /// Data type of the target values.
    #[must_use]
    pub fn y_dtype(&self) -> DataType {
        self.y_dtype
    }

    /// Both sides as estimator variables, `(x, y)`: strings are discrete
    /// codes, numerics continuous coordinates.
    pub fn variables(&self) -> Result<(&Variable, &Variable), EstimatorError> {
        match &self.sample {
            Ok((x, y)) => Ok((x, y)),
            Err(error) => Err(error.clone()),
        }
    }

    /// Estimates `I(X; Y)` from the recovered pairs with the automatically
    /// selected estimator and the default `k`, on a fresh workspace.
    pub fn estimate_mi(&self) -> Result<MiEstimate, EstimatorError> {
        self.estimate_mi_in(&mut EstimatorWorkspace::new(), DEFAULT_K)
    }

    /// Estimates MI with the automatically selected estimator and neighbour
    /// count `k` against a caller-owned [`EstimatorWorkspace`], so callers
    /// scoring many joins (e.g. query candidate ranking) reuse the estimator
    /// buffers.
    pub fn estimate_mi_in(
        &self,
        ws: &mut EstimatorWorkspace,
        k: usize,
    ) -> Result<MiEstimate, EstimatorError> {
        let (x, y) = self.variables()?;
        estimate_mi_with_workspace(ws, x, y, select_estimator(x, y), k)
    }

    /// [`Self::estimate_mi_in`] plus a Hutter–Zaffalon credible interval at
    /// the two-sided `level`: see [`estimate_mi_interval_with_workspace`].
    /// The point estimate is bit-for-bit the point-only call's.
    pub fn estimate_mi_interval_in(
        &self,
        ws: &mut EstimatorWorkspace,
        k: usize,
        level: f64,
    ) -> Result<(MiEstimate, MiInterval), EstimatorError> {
        let (x, y) = self.variables()?;
        estimate_mi_interval_with_workspace(ws, x, y, k, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Side, SketchConfig};
    use crate::kind::SketchKind;
    use crate::row::SketchRow;
    use joinmi_estimators::EstimatorKind;
    use joinmi_hash::KeyHash;

    fn sketch(side: Side, dtype: DataType, rows: Vec<(u64, Value)>) -> ColumnSketch {
        ColumnSketch::new(
            SketchKind::Tupsk,
            side,
            rows.into_iter()
                .map(|(k, v)| SketchRow::new(KeyHash(k), v))
                .collect(),
            dtype,
            100,
            10,
            SketchConfig::default(),
        )
    }

    #[test]
    fn join_pairs_by_key_hash() {
        let left = sketch(
            Side::Left,
            DataType::Int,
            vec![
                (1, Value::Int(10)),
                (1, Value::Int(11)),
                (2, Value::Int(20)),
                (9, Value::Int(90)),
            ],
        );
        let right = sketch(
            Side::Right,
            DataType::Float,
            vec![
                (1, Value::Float(0.5)),
                (2, Value::Float(0.7)),
                (3, Value::Float(0.9)),
            ],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 3);
        let (x, y) = joined.variables().unwrap();
        assert_eq!(y, &Variable::Continuous(vec![10.0, 11.0, 20.0]));
        assert_eq!(x, &Variable::Continuous(vec![0.5, 0.5, 0.7]));
    }

    #[test]
    fn string_sides_join_as_codes_in_first_occurrence_order() {
        // The sketches intern "c" before "a"; the join meets "a" first, so
        // "a" is code 0 there — what `discretize` gives the joined values.
        let left = sketch(
            Side::Left,
            DataType::Str,
            vec![
                (7, Value::from("unmatched")),
                (1, Value::from("u")),
                (2, Value::from("v")),
                (1, Value::from("u")),
                (3, Value::Null),
            ],
        );
        let right = sketch(
            Side::Right,
            DataType::Str,
            vec![
                (9, Value::from("c")),
                (1, Value::from("a")),
                (2, Value::from("c")),
                (3, Value::from("b")),
                (1, Value::from("late duplicate key")),
            ],
        );
        let joined = left.join(&right);
        let (x, y) = joined.variables().unwrap();
        assert_eq!(x, &Variable::Discrete(vec![0, 1, 0]));
        assert_eq!(y, &Variable::Discrete(vec![0, 1, 0]));
        assert_eq!(select_estimator(x, y), EstimatorKind::Mle);
    }

    #[test]
    fn non_numeric_value_in_a_numeric_sketch_fails_the_estimate_not_the_join() {
        let left = sketch(
            Side::Left,
            DataType::Int,
            vec![
                (1, Value::Int(1)),
                (2, Value::from("two")),
                (3, Value::Int(3)),
            ],
        );
        let right = sketch(
            Side::Right,
            DataType::Float,
            vec![
                (1, Value::Float(1.0)),
                (2, Value::Float(2.0)),
                (3, Value::Float(3.0)),
            ],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 3);
        let reference = JoinedSketch::from_pairs(
            right.rows().iter().map(|r| r.value.clone()).collect(),
            left.rows().iter().map(|r| r.value.clone()).collect(),
            DataType::Float,
            DataType::Int,
        );
        let error = joined.estimate_mi().unwrap_err();
        assert!(matches!(error, EstimatorError::IncompatibleTypes { .. }));
        assert_eq!(error, reference.estimate_mi().unwrap_err());
    }

    #[test]
    fn null_values_are_dropped_from_pairs() {
        let left = sketch(
            Side::Left,
            DataType::Int,
            vec![(1, Value::Null), (2, Value::Int(2))],
        );
        let right = sketch(
            Side::Right,
            DataType::Float,
            vec![(1, Value::Float(1.0)), (2, Value::Float(2.0))],
        );
        let joined = left.join(&right);
        assert_eq!(joined.len(), 1);
    }

    #[test]
    fn estimate_mi_selects_by_type() {
        // Numeric-numeric → MixedKSG; string-string → MLE.
        let n = 64u64;
        let left_rows: Vec<(u64, Value)> =
            (0..n).map(|i| (i, Value::Int((i % 8) as i64))).collect();
        let right_rows: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::Float((i % 8) as f64 * 2.0)))
            .collect();
        let joined = sketch(Side::Left, DataType::Int, left_rows.clone()).join(&sketch(
            Side::Right,
            DataType::Float,
            right_rows,
        ));
        let (x, y) = joined.variables().unwrap();
        assert_eq!(select_estimator(x, y), EstimatorKind::MixedKsg);
        assert!(joined.estimate_mi().unwrap().mi > 0.5);

        let right_str: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::from(format!("cat{}", i % 8))))
            .collect();
        let left_str: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::from(format!("tag{}", i % 8))))
            .collect();
        let joined = sketch(Side::Left, DataType::Str, left_str).join(&sketch(
            Side::Right,
            DataType::Str,
            right_str,
        ));
        let (x, y) = joined.variables().unwrap();
        assert_eq!(select_estimator(x, y), EstimatorKind::Mle);
        let est = joined.estimate_mi().unwrap();
        assert_eq!(est.estimator, EstimatorKind::Mle);
        assert!((est.mi - 8.0_f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn from_pairs_filters_nulls_and_estimates() {
        let xs = vec![
            Value::Float(1.0),
            Value::Null,
            Value::Float(3.0),
            Value::Float(4.0),
            Value::Float(5.0),
        ];
        let ys = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Null,
            Value::Int(5),
        ];
        let j = JoinedSketch::from_pairs(xs, ys, DataType::Float, DataType::Int);
        assert_eq!(j.len(), 3);
        let (x, y) = j.variables().unwrap();
        assert_eq!(x, &Variable::Continuous(vec![1.0, 3.0, 5.0]));
        assert_eq!(y, &Variable::Continuous(vec![1.0, 3.0, 5.0]));
        let est = j.estimate_mi_in(&mut EstimatorWorkspace::new(), 1).unwrap();
        assert_eq!(est.estimator, EstimatorKind::MixedKsg);
        assert_eq!(est.n, 3);
    }

    #[test]
    fn resident_bytes_is_exact_per_pair() {
        let base = std::mem::size_of::<JoinedSketch>();
        let keys = |n: u64| {
            (0..n)
                .map(|i| (i, Value::Int(i as i64)))
                .collect::<Vec<_>>()
        };
        let strs = |n: u64| {
            (0..n)
                .map(|i| (i, Value::from(format!("a-reasonably-long-string-{i}"))))
                .collect::<Vec<_>>()
        };
        let ints = sketch(Side::Left, DataType::Int, keys(10));
        // Only 7 of the left sketch's 10 rows match: the columns are charged
        // (and allocated) for the pairs held, not for either sketch's size.
        let num = ints.join(&sketch(Side::Right, DataType::Int, keys(7)));
        assert_eq!(num.len(), 7);
        assert_eq!(num.resident_bytes(), base + 7 * 16);
        let mixed = ints.join(&sketch(Side::Right, DataType::Str, strs(7)));
        assert_eq!(mixed.resident_bytes(), base + 7 * 12);
        // String payloads cost nothing: a join holds codes, not values.
        let coded = sketch(Side::Left, DataType::Str, strs(10)).join(&sketch(
            Side::Right,
            DataType::Str,
            strs(7),
        ));
        assert_eq!(coded.resident_bytes(), base + 7 * 8);
        let (x, y) = coded.variables().unwrap();
        for column in [x, y] {
            let Variable::Discrete(codes) = column else {
                panic!("string sides are discrete");
            };
            assert_eq!(codes.capacity(), codes.len());
        }
        let empty = ints.join(&sketch(Side::Right, DataType::Int, vec![]));
        assert_eq!(empty.resident_bytes(), base);
    }

    #[test]
    fn interval_estimate_reproduces_point_estimate_bit_for_bit() {
        let n = 64u64;
        let ints: Vec<(u64, Value)> = (0..n).map(|i| (i, Value::Int((i % 8) as i64))).collect();
        let floats: Vec<(u64, Value)> = (0..n)
            .map(|i| (i, Value::Float((i % 8) as f64 * 2.0)))
            .collect();
        let tags = |prefix: &str, modulus: u64| -> Vec<(u64, Value)> {
            (0..n)
                .map(|i| (i, Value::from(format!("{prefix}{}", i % modulus))))
                .collect()
        };
        let join = |left: DataType, left_rows, right: DataType, right_rows| {
            sketch(Side::Left, left, left_rows).join(&sketch(Side::Right, right, right_rows))
        };
        // One join per selected estimator; the string/string one takes the
        // MLE and the posterior from one contingency pass.
        let (int, float, string) = (DataType::Int, DataType::Float, DataType::Str);
        let cases = [
            (
                join(int, ints.clone(), float, floats),
                EstimatorKind::MixedKsg,
            ),
            (
                join(string, tags("tag", 8), string, tags("cat", 4)),
                EstimatorKind::Mle,
            ),
            (
                join(int, ints, string, tags("cat", 4)),
                EstimatorKind::DcKsg,
            ),
        ];
        let mut ws = EstimatorWorkspace::new();
        for (joined, kind) in cases {
            let point = joined.estimate_mi_in(&mut ws, 3).unwrap();
            let (est, iv) = joined.estimate_mi_interval_in(&mut ws, 3, 0.95).unwrap();
            assert_eq!(point.estimator, kind);
            assert_eq!(point.mi.to_bits(), est.mi.to_bits(), "{kind}");
            assert_eq!(point.estimator, est.estimator);
            assert_eq!(point.n, est.n);
            assert_eq!(est.n, n as usize);
            assert!(iv.ci_lo >= 0.0);
            assert!(iv.ci_lo <= est.mi && est.mi <= iv.ci_hi, "{kind}");
            assert!(iv.variance >= 0.0);
            // A bad confidence level is rejected.
            assert!(joined.estimate_mi_interval_in(&mut ws, 3, 1.5).is_err());
        }
    }

    #[test]
    fn empty_join_estimation_errors() {
        let j = JoinedSketch::from_pairs(vec![], vec![], DataType::Int, DataType::Int);
        assert!(j.is_empty());
        assert!(j.estimate_mi().is_err());
    }
}
