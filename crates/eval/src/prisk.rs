//! PRISK — two-level sampling with a weighted (priority-sampling) first
//! level.
//!
//! Identical to LV2SK except that the first-level key selection uses
//! priority sampling (Duffield, Lund, Thorup 2007): key `k` with frequency
//! `N_k` receives priority `q_k = N_k / u_k` where `u_k = h_u(k) ∈ (0, 1)`,
//! and the `n` keys with the *largest* priorities are kept. Frequent keys are
//! therefore much more likely to enter the sketch, which avoids LV2SK's
//! "all the mass was in an unselected key" failure mode but still leads to
//! non-uniform tuple inclusion probabilities. The paper reports results that
//! are nearly indistinguishable from LV2SK, which our experiments reproduce.
//!
//! On the aggregated right side all weights are 1, so priority order is the
//! reverse of `u_k` order and PRISK selects exactly the same keys as LV2SK —
//! coordination between the two levels is preserved.

use joinmi_sketch::prep::{prepare_left, prepare_right};
use joinmi_sketch::{BoundedMinSet, ColumnSketch, Result, Side, SketchConfig, SketchRow};
use joinmi_table::{Aggregation, Table};

use crate::lv2sk::sample_selected_keys;

/// Builds a PRISK sketch of the base table's `(key, target)` pair.
pub fn build_left(
    table: &Table,
    key: &str,
    value: &str,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let unit = cfg.unit_hasher();
    let prep = prepare_left(table, key, value, &hasher)?;

    // First level: keep the n keys with the largest priority N_k / u_k.
    // Equivalently the n smallest values of u_k / N_k, which lets us reuse
    // the bounded *min* set; the score is mapped to ordered u64 bits.
    let mut key_set = BoundedMinSet::new(cfg.size);
    for (&key_digest, &count) in &prep.key_counts {
        let u = unit.unit(key_digest).max(f64::MIN_POSITIVE);
        let score = u / count as f64;
        key_set.offer(score.to_bits(), key_digest);
    }
    let selected: Vec<u64> = key_set.into_sorted().into_iter().map(|(_, k)| k).collect();

    let rows = sample_selected_keys(&prep, cfg, &selected);
    Ok(ColumnSketch::new(
        Side::Left,
        rows,
        prep.value_dtype,
        prep.n_rows,
        prep.distinct_keys,
        *cfg,
    ))
}

/// Builds a PRISK sketch of the candidate table (aggregated side). With unit
/// weights this selects exactly the keys LV2SK would select, so the right
/// sketch stays coordinated with both PRISK and LV2SK left sketches.
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

    fn skewed() -> Table {
        // "hot" occupies 95 of 100 rows.
        let mut keys: Vec<String> = vec!["a", "b", "c", "d", "e"]
            .into_iter()
            .map(String::from)
            .collect();
        keys.extend(std::iter::repeat_with(|| "hot".to_owned()).take(95));
        let ys: Vec<i64> = (0..100).collect();
        Table::builder("t")
            .push_str_column("k", keys)
            .push_int_column("y", ys)
            .build()
            .unwrap()
    }

    #[test]
    fn frequent_keys_are_always_selected() {
        // Unlike LV2SK, the hot key's priority is ~95x larger than the
        // singletons', so it should be selected for every seed.
        let hasher = SketchConfig::new(5, 0).key_hasher();
        let hot = Value::from("hot").key_hash(&hasher);
        for seed in 0..50u64 {
            let cfg = SketchConfig::new(5, seed);
            let sketch = build_left(&skewed(), "k", "y", &cfg).unwrap();
            assert!(
                sketch.rows().iter().any(|r| r.key == hot),
                "seed {seed}: hot key missing from PRISK sketch"
            );
        }
    }

    #[test]
    fn size_bound_of_2n_holds() {
        for n in [2usize, 5, 16, 64] {
            let cfg = SketchConfig::new(n, 7);
            let sketch = build_left(&skewed(), "k", "y", &cfg).unwrap();
            assert!(sketch.len() <= 2 * n, "n={n}: {}", sketch.len());
        }
    }

    #[test]
    fn right_side_matches_lv2sk_selection() {
        let cand = Table::builder("cand")
            .push_int_column("k", (0..500).collect::<Vec<i64>>())
            .push_float_column("z", (0..500).map(|i| i as f64).collect::<Vec<f64>>())
            .build()
            .unwrap();
        let cfg = SketchConfig::new(32, 13);
        let prisk = build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
        let lv2 = crate::lv2sk::build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
        let mut a: Vec<u64> = prisk.rows().iter().map(|r| r.key.raw()).collect();
        let mut b: Vec<u64> = lv2.rows().iter().map(|r| r.key.raw()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SketchConfig::new(16, 21);
        let a = build_left(&skewed(), "k", "y", &cfg).unwrap();
        let b = build_left(&skewed(), "k", "y", &cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
    }
}
