//! CSK — the Correlation Sketches baseline (Santos et al., SIGMOD 2021)
//! extended to estimate MI instead of correlation.
//!
//! CSK performs KMV sampling over *distinct* join keys and stores one value
//! per selected key. It does not prescribe how to handle repeated join keys,
//! so — following the paper's experimental setup — the first value seen for a
//! key is kept on both sides, with no aggregation. Ignoring key multiplicity
//! is exactly what makes CSK mis-estimate MI when the join key distribution
//! is skewed: the recovered sample follows the *distinct-key* distribution of
//! `Y` rather than the row distribution of the actual join result.

use joinmi_hash::digest_set_with_capacity;
use joinmi_sketch::prep::{prepare_left, prepare_right};
use joinmi_sketch::{BoundedMinSet, ColumnSketch, Result, Side, SketchConfig, SketchRow};
use joinmi_table::{Aggregation, Table};

/// Builds a CSK sketch of the base table: KMV over distinct keys, first value
/// seen per key.
pub fn build_left(
    table: &Table,
    key: &str,
    value: &str,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let unit = cfg.unit_hasher();
    let prep = prepare_left(table, key, value, &hasher)?;

    let mut seen = digest_set_with_capacity(prep.distinct_keys);
    let mut set = BoundedMinSet::new(cfg.size);
    for (digest, val) in &prep.rows {
        if seen.insert(digest.raw()) {
            set.offer(
                unit.digest(digest.raw()),
                SketchRow::new(*digest, val.clone()),
            );
        }
    }
    let rows: Vec<SketchRow> = set.into_sorted().into_iter().map(|(_, row)| row).collect();
    Ok(ColumnSketch::new(
        Side::Left,
        rows,
        prep.value_dtype,
        prep.n_rows,
        prep.distinct_keys,
        *cfg,
    ))
}

/// Builds a CSK sketch of the candidate table.
///
/// The `agg` argument is accepted for interface uniformity but ignored: CSK
/// keeps the first value seen for each key (the behaviour described in
/// Section V, "Sketching Methods").
pub fn build_right(
    table: &Table,
    key: &str,
    value: &str,
    agg: Aggregation,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    // CSK ignores the aggregation function; `First` reproduces "the first
    // value seen associated with a join key".
    let _ = agg;
    let hasher = cfg.key_hasher();
    let unit = cfg.unit_hasher();
    let prep = prepare_right(table, key, value, Aggregation::First, &hasher)?;

    let mut set = BoundedMinSet::new(cfg.size);
    set.offer_batch(prep.rows.iter().map(|(digest, val)| {
        (
            unit.digest(digest.raw()),
            SketchRow::new(*digest, val.clone()),
        )
    }));
    let rows: Vec<SketchRow> = set.into_sorted().into_iter().map(|(_, row)| row).collect();
    Ok(ColumnSketch::new(
        Side::Right,
        rows,
        prep.value_dtype,
        prep.n_rows,
        prep.distinct_keys,
        *cfg,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_table::Value;

    #[test]
    fn one_row_per_key_first_value_wins() {
        let t = Table::builder("t")
            .push_str_column("k", vec!["a", "a", "b", "b", "b"])
            .push_int_column("y", vec![10, 20, 30, 40, 50])
            .build()
            .unwrap();
        let cfg = SketchConfig::new(16, 0);
        let sketch = build_left(&t, "k", "y", &cfg).unwrap();
        assert_eq!(sketch.len(), 2);
        let hasher = cfg.key_hasher();
        let a = Value::from("a").key_hash(&hasher);
        let b = Value::from("b").key_hash(&hasher);
        let a_val = sketch
            .rows()
            .iter()
            .find(|r| r.key == a)
            .unwrap()
            .value
            .clone();
        let b_val = sketch
            .rows()
            .iter()
            .find(|r| r.key == b)
            .unwrap()
            .value
            .clone();
        assert_eq!(a_val, Value::Int(10));
        assert_eq!(b_val, Value::Int(30));
    }

    #[test]
    fn right_side_ignores_requested_aggregation() {
        let t = Table::builder("t")
            .push_str_column("k", vec!["a", "a", "a"])
            .push_int_column("z", vec![1, 100, 200])
            .build()
            .unwrap();
        let cfg = SketchConfig::new(4, 0);
        let sketch = build_right(&t, "k", "z", Aggregation::Avg, &cfg).unwrap();
        assert_eq!(sketch.len(), 1);
        // AVG would be ~100.3; CSK keeps the first value.
        assert_eq!(sketch.rows()[0].value, Value::Int(1));
    }

    #[test]
    fn size_bounded_by_n_and_distinct_keys() {
        let t = Table::builder("t")
            .push_int_column("k", (0..1000).map(|i| i % 77).collect::<Vec<i64>>())
            .push_int_column("y", (0..1000).collect::<Vec<i64>>())
            .build()
            .unwrap();
        let small = build_left(&t, "k", "y", &SketchConfig::new(32, 1)).unwrap();
        assert_eq!(small.len(), 32);
        let big = build_left(&t, "k", "y", &SketchConfig::new(500, 1)).unwrap();
        assert_eq!(big.len(), 77);
    }

    #[test]
    fn coordination_between_sides() {
        let n = 2000i64;
        let train = Table::builder("train")
            .push_int_column("k", (0..n).collect::<Vec<i64>>())
            .push_int_column("y", (0..n).collect::<Vec<i64>>())
            .build()
            .unwrap();
        let cand = Table::builder("cand")
            .push_int_column("k", (0..n).collect::<Vec<i64>>())
            .push_float_column("z", (0..n).map(|i| i as f64).collect::<Vec<f64>>())
            .build()
            .unwrap();
        let cfg = SketchConfig::new(128, 9);
        let joined = build_left(&train, "k", "y", &cfg)
            .unwrap()
            .join(&build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap());
        assert_eq!(joined.len(), 128);
    }
}
