//! The typed sketch join against its `Value`-level reference, bit for bit.
//!
//! `JoinedSketch::from_sketches` gathers interned codes and coordinates and
//! never touches a `Value`'s payload; `JoinedSketch::from_pairs` over the
//! cloned `Value` pairs of the same join is the implementation it replaced.
//! Over every dtype pair, with NULLs on either side, duplicate right keys,
//! repeated left keys, off-type values, and joins from empty to a few dozen
//! pairs, both must yield the same variables, pick the same estimator, and
//! produce the same estimate and interval bits — or the same error.

use joinmi_estimators::{
    select_estimator, EstimatorError, EstimatorWorkspace, MiEstimate, MiInterval, Variable,
};
use joinmi_hash::KeyHash;
use joinmi_sketch::{ColumnSketch, JoinedSketch, Side, SketchConfig, SketchKind, SketchRow};
use joinmi_table::{DataType, Value};
use proptest::prelude::*;
use std::collections::HashMap;

const DTYPES: [DataType; 3] = [DataType::Str, DataType::Int, DataType::Float];

/// A generated row: key id, a selector deciding what kind of value the row
/// holds, and the value's payload.
type RawRow = (u8, u8, u8);

fn raw_rows(max_len: usize) -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec((0u8..24, 0u8..40, 0u8..6), 0..max_len)
}

/// Mostly a value of the sketch's declared type, sometimes NULL, sometimes a
/// value of another type: harmless in a `Str` sketch (codes follow `Value`
/// equality whatever the variant), a widening in a numeric one (`Int` in a
/// `Float` sketch), or the non-numeric value that must fail the estimate.
fn value(dtype: DataType, selector: u8, payload: u8) -> Value {
    const FLOATS: [f64; 6] = [0.0, -0.0, 0.5, -1.25, 2.0, f64::NAN];
    let of = |dtype: DataType| match dtype {
        DataType::Str => Value::from(format!("s{payload}")),
        DataType::Int => Value::Int(i64::from(payload) - 2),
        DataType::Float => Value::Float(FLOATS[usize::from(payload)]),
    };
    match selector {
        0..=4 => Value::Null,
        5 => of(DataType::Str),
        6 => of(DataType::Int),
        7 => of(DataType::Float),
        _ => of(dtype),
    }
}

fn sketch(side: Side, dtype: DataType, raw: &[RawRow]) -> ColumnSketch {
    let rows = raw
        .iter()
        .map(|&(key, selector, payload)| {
            SketchRow::new(KeyHash(u64::from(key)), value(dtype, selector, payload))
        })
        .collect();
    ColumnSketch::new(
        SketchKind::Tupsk,
        side,
        rows,
        dtype,
        raw.len(),
        raw.len(),
        SketchConfig::default(),
    )
}

/// The join as it was computed before sketches carried typed columns: probe
/// a first-row-wins map of the right sketch in left-row order and clone both
/// values of every pair with no NULL in it.
fn reference_join(left: &ColumnSketch, right: &ColumnSketch) -> JoinedSketch {
    let mut right_values: HashMap<u64, &Value> = HashMap::new();
    for row in right.rows() {
        right_values.entry(row.key.raw()).or_insert(&row.value);
    }
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for row in left.rows() {
        if let Some(&x) = right_values.get(&row.key.raw()) {
            if !row.value.is_null() && !x.is_null() {
                xs.push(x.clone());
                ys.push(row.value.clone());
            }
        }
    }
    JoinedSketch::from_pairs(xs, ys, right.value_dtype(), left.value_dtype())
}

fn column_bits(v: &Variable) -> (bool, Vec<u64>) {
    match v {
        Variable::Discrete(codes) => (true, codes.iter().map(|&c| u64::from(c)).collect()),
        Variable::Continuous(coords) => (false, coords.iter().map(|c| c.to_bits()).collect()),
    }
}

fn variables_bits(joined: &JoinedSketch) -> Result<[(bool, Vec<u64>); 2], EstimatorError> {
    joined
        .variables()
        .map(|(x, y)| [column_bits(x), column_bits(y)])
}

fn estimate_bits(e: MiEstimate) -> (u64, &'static str, usize) {
    (e.mi.to_bits(), e.estimator.name(), e.n)
}

fn interval_bits(iv: MiInterval) -> [u64; 4] {
    [iv.variance, iv.ci_lo, iv.ci_hi, iv.level].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn typed_join_equals_the_value_level_reference(
        left_raw in raw_rows(90),
        right_raw in raw_rows(40),
        left_dtype in 0usize..3,
        right_dtype in 0usize..3,
        k in 1usize..5,
    ) {
        let left = sketch(Side::Left, DTYPES[left_dtype], &left_raw);
        let right = sketch(Side::Right, DTYPES[right_dtype], &right_raw);
        let typed = left.join(&right);
        let reference = reference_join(&left, &right);

        prop_assert_eq!(typed.len(), reference.len());
        prop_assert_eq!(variables_bits(&typed), variables_bits(&reference));
        let selected = |joined: &JoinedSketch| {
            joined.variables().map(|(x, y)| select_estimator(x, y))
        };
        prop_assert_eq!(selected(&typed), selected(&reference));

        let mut ws = EstimatorWorkspace::new();
        prop_assert_eq!(
            typed.estimate_mi_in(&mut ws, k).map(estimate_bits),
            reference.estimate_mi_in(&mut ws, k).map(estimate_bits)
        );
        let interval = |joined: &JoinedSketch, ws: &mut EstimatorWorkspace| {
            joined
                .estimate_mi_interval_in(ws, k, 0.9)
                .map(|(e, iv)| (estimate_bits(e), interval_bits(iv)))
        };
        prop_assert_eq!(interval(&typed, &mut ws), interval(&reference, &mut ws));

        // The only way a join fails to yield variables: a numeric side met a
        // non-numeric value. Typed error (equal to the reference's, above),
        // never a panic, and the join itself still succeeds.
        if let Err(error) = typed.variables() {
            prop_assert!(matches!(error, EstimatorError::IncompatibleTypes { .. }));
        }
    }
}

/// The row generator must actually reach the cases the property is there
/// for (same key, selector and payload ranges, drawn from a fixed sequence).
#[test]
fn generated_joins_cover_every_estimator_and_the_failure_path() {
    let mut state = 17u64;
    let mut below = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % n) as u8
    };
    let mut rows = |max_len: u64| -> Vec<RawRow> {
        (0..below(max_len))
            .map(|_| (below(24), below(40), below(6)))
            .collect()
    };
    let (mut kinds, mut poisoned, mut empty, mut below_k) = (HashMap::new(), 0, 0, 0);
    for case in 0..600 {
        let left = sketch(Side::Left, DTYPES[case % 3], &rows(90));
        let right = sketch(Side::Right, DTYPES[case / 3 % 3], &rows(40));
        let joined = left.join(&right);
        empty += usize::from(joined.is_empty());
        below_k += usize::from((1..4).contains(&joined.len()));
        match joined.estimate_mi() {
            Ok(estimate) => *kinds.entry(estimate.estimator.name()).or_insert(0) += 1,
            Err(EstimatorError::IncompatibleTypes { .. }) => poisoned += 1,
            Err(_) => {}
        }
    }
    assert_eq!(kinds.len(), 3, "{kinds:?}");
    assert!(kinds.values().all(|&n| n >= 20), "{kinds:?}");
    assert!(
        poisoned >= 20 && empty >= 5 && below_k >= 5,
        "{poisoned} {empty} {below_k}"
    );
}
