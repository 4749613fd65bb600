//! INDSK — independent Bernoulli sampling (no coordination), the weak
//! baseline of Section IV / Table I.
//!
//! Each row of the base table is kept independently with probability
//! `n / N`; each (aggregated) key of the candidate table is kept with
//! probability `n / m`. Because the two samples are independent, the
//! expected number of matching keys in the sketch join is quadratically
//! smaller than for coordinated sampling, which is exactly the failure mode
//! the paper's Table I demonstrates (small "Avg. Sketch Join Size", large
//! MSE).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use joinmi_hash::SplitMix64;
use joinmi_sketch::prep::{prepare_left, prepare_right};
use joinmi_sketch::{ColumnSketch, Result, Side, SketchConfig, SketchRow};
use joinmi_table::{Aggregation, Table};

/// Seed-derivation index of the right-side Bernoulli stream.
const RIGHT_STREAM_INDEX: u64 = 0xB0B_CA7;

/// Builds an INDSK sketch of the base table (independent Bernoulli row
/// sample with expected size `n`).
pub fn build_left(
    table: &Table,
    key: &str,
    value: &str,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let prep = prepare_left(table, key, value, &hasher)?;
    let p = sampling_probability(cfg.size, prep.n_rows);
    let mut rng = StdRng::seed_from_u64(SplitMix64::derive_seed(cfg.seed, 0xA11CE));
    let rows: Vec<SketchRow> = prep
        .rows
        .iter()
        .filter(|_| rng.gen::<f64>() < p)
        .map(|(digest, val)| SketchRow::new(*digest, val.clone()))
        .collect();
    Ok(ColumnSketch::new(
        Side::Left,
        rows,
        prep.value_dtype,
        prep.n_rows,
        prep.distinct_keys,
        *cfg,
    ))
}

/// Builds an INDSK sketch of the candidate table (aggregate, then keep each
/// key independently with probability `n / m`).
pub fn build_right(
    table: &Table,
    key: &str,
    value: &str,
    agg: Aggregation,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let prep = prepare_right(table, key, value, agg, &hasher)?;
    let p = sampling_probability(cfg.size, prep.rows.len());
    // A *different* stream from the left side: the whole point of INDSK is
    // the absence of coordination.
    let mut rng = StdRng::seed_from_u64(SplitMix64::derive_seed(cfg.seed, RIGHT_STREAM_INDEX));
    let rows: Vec<SketchRow> = prep
        .rows
        .iter()
        .filter(|_| rng.gen::<f64>() < p)
        .map(|(digest, val)| SketchRow::new(*digest, val.clone()))
        .collect();
    Ok(ColumnSketch::new(
        Side::Right,
        rows,
        prep.value_dtype,
        prep.n_rows,
        prep.distinct_keys,
        *cfg,
    ))
}

pub(crate) fn sampling_probability(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        (n as f64 / total as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables(n: i64) -> (Table, Table) {
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
        (train, cand)
    }

    #[test]
    fn expected_size_is_close_to_n() {
        let (train, _) = tables(10_000);
        let cfg = SketchConfig::new(256, 3);
        let sketch = build_left(&train, "k", "y", &cfg).unwrap();
        let size = sketch.len() as f64;
        assert!((size - 256.0).abs() < 80.0, "size {size}");
    }

    #[test]
    fn small_tables_are_fully_kept() {
        let (train, _) = tables(50);
        let cfg = SketchConfig::new(256, 3);
        let sketch = build_left(&train, "k", "y", &cfg).unwrap();
        assert_eq!(sketch.len(), 50);
    }

    #[test]
    fn join_size_is_quadratically_smaller_than_coordinated() {
        // With N = 10k unique keys and n = 256, independent sampling matches
        // on only ~ n²/N ≈ 6.5 keys in expectation, whereas TUPSK recovers
        // ~256. This is the Table I phenomenon.
        let (train, cand) = tables(10_000);
        let cfg = SketchConfig::new(256, 11);
        let ind_join = build_left(&train, "k", "y", &cfg)
            .unwrap()
            .join(&build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap());
        let tup_join = joinmi_sketch::tupsk::build_left(&train, "k", "y", &cfg)
            .unwrap()
            .join(
                &joinmi_sketch::tupsk::build_right(&cand, "k", "z", Aggregation::Avg, &cfg)
                    .unwrap(),
            );
        assert!(
            ind_join.len() < 40,
            "INDSK join unexpectedly large: {}",
            ind_join.len()
        );
        assert!(
            tup_join.len() > 200,
            "TUPSK join unexpectedly small: {}",
            tup_join.len()
        );
    }

    #[test]
    fn deterministic_per_seed_but_uncoordinated() {
        let (train, _) = tables(1000);
        let cfg = SketchConfig::new(64, 5);
        let a = build_left(&train, "k", "y", &cfg).unwrap();
        let b = build_left(&train, "k", "y", &cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
    }
}
