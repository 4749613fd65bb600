//! TUPSK — tuple-based coordinated sampling (the paper's proposed method,
//! Section IV-B).
//!
//! Instead of sampling *keys*, TUPSK samples *rows*: the `j`-th occurrence of
//! key `k` is identified by the derived key `⟨k, j⟩` and the sketch keeps the
//! rows whose `h_u(⟨k, j⟩)` values are among the `n` minima. Because every
//! `⟨k, j⟩` is unique, each row has the same inclusion probability, so the
//! sample recovered from a sketch join is a *uniform* sample of the
//! left-outer join — the property that lets off-the-shelf MI estimators be
//! applied without re-weighting.
//!
//! On the aggregated (right) side all keys are unique, so rows are selected
//! by `h_u(⟨k, 1⟩)`; left-side rows with `j = 1` share that sampling frame,
//! which is where the coordination (and therefore the large expected
//! sketch-join size) comes from. Left rows with `j > 1` cannot match the
//! right sketch's frame and effectively behave like independent Bernoulli
//! samples — the "less coordination means higher sample quality" trade-off
//! discussed in the paper.

use joinmi_hash::digest_map_with_capacity;
use joinmi_table::{Aggregation, Table};

use crate::config::{Side, SketchConfig};
use crate::kmv::BoundedMinSet;
use crate::prep::{prepare_left, prepare_right};
use crate::row::{ColumnSketch, SketchRow};
use crate::Result;

/// Builds a TUPSK sketch of the base (training) table's `(key, target)` pair.
pub fn build_left(
    table: &Table,
    key: &str,
    value: &str,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let unit = cfg.unit_hasher();
    let prep = prepare_left(table, key, value, &hasher)?;

    let mut occurrence = digest_map_with_capacity::<u64>(prep.distinct_keys);
    let mut set = BoundedMinSet::new(cfg.size);
    for (digest, val) in &prep.rows {
        let j = occurrence.entry(digest.raw()).or_insert(0);
        *j += 1;
        let sample_digest = unit.pair_digest(digest.raw(), *j);
        set.offer(sample_digest, SketchRow::new(*digest, val.clone()));
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

/// Builds a TUPSK sketch of the candidate table's `(key, feature)` pair,
/// aggregating repeated keys with `agg` first.
pub fn build_right(
    table: &Table,
    key: &str,
    value: &str,
    agg: Aggregation,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let unit = cfg.unit_hasher();
    let prep = prepare_right(table, key, value, agg, &hasher)?;

    // Aggregation produced unique keys; occurrence index is always 1,
    // which is exactly the frame shared with the left sketch.
    let mut set = BoundedMinSet::new(cfg.size);
    set.offer_batch(prep.rows.iter().map(|(digest, val)| {
        (
            unit.pair_digest(digest.raw(), 1),
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

    fn skewed_train(n_rows: usize) -> Table {
        // Key "hot" appears in 90% of the rows; 10 other keys share the rest.
        let keys: Vec<String> = (0..n_rows)
            .map(|i| {
                if i % 10 != 0 {
                    "hot".to_owned()
                } else {
                    format!("k{}", i % 100)
                }
            })
            .collect();
        let ys: Vec<i64> = (0..n_rows as i64).collect();
        Table::builder("train")
            .push_str_column("k", keys)
            .push_int_column("y", ys)
            .build()
            .unwrap()
    }

    #[test]
    fn sketch_size_is_bounded_by_n() {
        let cfg = SketchConfig::new(64, 3);
        let sketch = build_left(&skewed_train(5000), "k", "y", &cfg).unwrap();
        assert_eq!(sketch.len(), 64);
        assert_eq!(sketch.source_rows(), 5000);
    }

    #[test]
    fn small_tables_are_kept_entirely() {
        let cfg = SketchConfig::new(256, 3);
        let sketch = build_left(&skewed_train(100), "k", "y", &cfg).unwrap();
        assert_eq!(sketch.len(), 100);
    }

    #[test]
    fn row_sampling_is_proportional_to_key_frequency() {
        // With uniform row-inclusion probability, the hot key (90% of rows)
        // should occupy roughly 90% of the sketch.
        let cfg = SketchConfig::new(512, 11);
        let table = skewed_train(20_000);
        let sketch = build_left(&table, "k", "y", &cfg).unwrap();
        let hasher = cfg.key_hasher();
        let hot = Value::from("hot").key_hash(&hasher);
        let hot_count = sketch.rows().iter().filter(|r| r.key == hot).count();
        let frac = hot_count as f64 / sketch.len() as f64;
        assert!((frac - 0.9).abs() < 0.06, "hot fraction {frac}");
    }

    #[test]
    fn coordination_with_right_side() {
        // Left table keys 0..1000 (unique), right table same keys: the join
        // of two sketches of size n should recover close to n pairs.
        let n = 2000i64;
        let train = Table::builder("train")
            .push_int_column("k", (0..n).collect::<Vec<i64>>())
            .push_int_column("y", (0..n).map(|i| i * 3).collect::<Vec<i64>>())
            .build()
            .unwrap();
        let cand = Table::builder("cand")
            .push_int_column("k", (0..n).collect::<Vec<i64>>())
            .push_float_column("z", (0..n).map(|i| i as f64).collect::<Vec<f64>>())
            .build()
            .unwrap();
        let cfg = SketchConfig::new(256, 17);
        let left = build_left(&train, "k", "y", &cfg).unwrap();
        let right = build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
        let joined = left.join(&right);
        // With unique keys TUPSK behaves like coordinated KMV: every sampled
        // left row's key is also among the right sketch's minima with high
        // probability. Expect a join size close to n (at least 80%).
        assert!(joined.len() >= 200, "join size {}", joined.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = SketchConfig::new(128, 5);
        let t = skewed_train(3000);
        let a = build_left(&t, "k", "y", &cfg).unwrap();
        let b = build_left(&t, "k", "y", &cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
        let other = build_left(&t, "k", "y", &SketchConfig::new(128, 6)).unwrap();
        assert_ne!(a.rows(), other.rows());
    }

    #[test]
    fn right_side_aggregates_before_sampling() {
        let cand = Table::builder("cand")
            .push_str_column("k", vec!["a", "b", "b", "b", "c", "c", "c"])
            .push_int_column("z", vec![1, 2, 2, 5, 0, 3, 3])
            .build()
            .unwrap();
        let cfg = SketchConfig::new(10, 0);
        let sketch = build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
        assert_eq!(sketch.len(), 3);
        assert_eq!(sketch.source_rows(), 7);
        assert_eq!(sketch.source_distinct_keys(), 3);
        let hasher = cfg.key_hasher();
        let b = Value::from("b").key_hash(&hasher);
        let b_row = sketch.rows().iter().find(|r| r.key == b).unwrap();
        assert_eq!(b_row.value, Value::Float(3.0));
    }

    #[test]
    fn missing_columns_error() {
        let cfg = SketchConfig::default();
        assert!(build_left(&skewed_train(10), "nope", "y", &cfg).is_err());
        assert!(build_right(&skewed_train(10), "k", "nope", Aggregation::Avg, &cfg).is_err());
    }
}
