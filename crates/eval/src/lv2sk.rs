//! LV2SK — two-level sampling baseline (Section IV-A).
//!
//! Level 1: coordinated selection of the `n` distinct join keys with the
//! minimum `h_u(k)` values (plain KMV over keys), which maximizes the
//! expected sketch-join size.
//!
//! Level 2: for the base table, each selected key `k` keeps
//! `n_k = max(1, ⌊n · N_k / N⌋)` of its rows so the key-frequency profile of
//! the sketch mirrors the table while the total size stays below `2n`. For
//! the candidate table, repeated keys are aggregated first, so exactly one
//! row per selected key is kept.
//!
//! The tuple-inclusion probability is `1 / (m_K · max(1, ⌊n N_k / N⌋))`,
//! which depends on the key-frequency distribution — the non-uniformity that
//! the paper shows inflates MI-estimator bias when the join key and the
//! target are dependent (the `KeyDep` scenario).

use joinmi_hash::{digest_map_with_capacity, DigestHashMap};
use joinmi_sketch::prep::{prepare_left, prepare_right, PreparedRows};
use joinmi_sketch::{BoundedMinSet, ColumnSketch, Result, Side, SketchConfig, SketchRow};
use joinmi_table::{Aggregation, Table};

/// Number of per-key samples LV2SK keeps for a key with frequency `count` in
/// a table of `total` usable rows, for sketch budget `n`.
#[must_use]
pub fn per_key_quota(n: usize, count: usize, total: usize) -> usize {
    if total == 0 {
        return 0;
    }
    let quota = (n as f64 * count as f64 / total as f64).floor() as usize;
    quota.max(1)
}

/// Builds an LV2SK sketch of the base table's `(key, target)` pair.
pub fn build_left(
    table: &Table,
    key: &str,
    value: &str,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    let hasher = cfg.key_hasher();
    let prep = prepare_left(table, key, value, &hasher)?;
    let rows = sample_two_level(&prep, cfg);
    Ok(ColumnSketch::new(
        Side::Left,
        rows,
        prep.value_dtype,
        prep.n_rows,
        prep.distinct_keys,
        *cfg,
    ))
}

/// Builds an LV2SK sketch of the candidate table, aggregating repeated keys
/// with `agg` first (unique keys ⇒ the second level degenerates to one row
/// per selected key and the inclusion probability becomes uniform).
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

/// Shared two-level sampling used by LV2SK (uniform first level) — also
/// reused by PRISK with a different first-level key selection.
fn sample_two_level(prep: &PreparedRows, cfg: &SketchConfig) -> Vec<SketchRow> {
    let unit = cfg.unit_hasher();
    // Level 1: KMV over distinct keys.
    let mut key_set = BoundedMinSet::new(cfg.size);
    key_set.offer_batch(prep.key_counts.keys().map(|&k| (unit.digest(k), k)));
    let selected: Vec<u64> = key_set.into_sorted().into_iter().map(|(_, k)| k).collect();
    sample_selected_keys(prep, cfg, &selected)
}

/// Level 2: keep `n_k` rows per selected key, ranked by the per-occurrence
/// hash so the choice is deterministic yet effectively random.
pub(crate) fn sample_selected_keys(
    prep: &PreparedRows,
    cfg: &SketchConfig,
    selected: &[u64],
) -> Vec<SketchRow> {
    let unit = cfg.unit_hasher();
    let selected_set: DigestHashMap<usize> = selected
        .iter()
        .map(|&k| (k, per_key_quota(cfg.size, prep.key_counts[&k], prep.n_rows)))
        .collect();

    // Gather candidate rows per selected key with their occurrence hash.
    let mut per_key: DigestHashMap<Vec<(u64, SketchRow)>> =
        digest_map_with_capacity(selected.len());
    let mut occurrence = digest_map_with_capacity::<u64>(prep.distinct_keys);
    for (digest, val) in &prep.rows {
        let raw = digest.raw();
        let j = occurrence.entry(raw).or_insert(0);
        *j += 1;
        if selected_set.contains_key(&raw) {
            per_key.entry(raw).or_default().push((
                unit.pair_digest(raw, *j),
                SketchRow::new(*digest, val.clone()),
            ));
        }
    }

    let mut rows = Vec::new();
    // Iterate in the deterministic order of `selected` (sorted by first-level
    // hash) so output order is stable.
    for &key_digest in selected {
        let quota = selected_set[&key_digest];
        if let Some(mut candidates) = per_key.remove(&key_digest) {
            candidates.sort_by_key(|(h, _)| *h);
            rows.extend(candidates.into_iter().take(quota).map(|(_, row)| row));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_table::Value;

    #[test]
    fn per_key_quota_matches_paper_formula() {
        // n = 5, N = 100: a key with 95 occurrences gets ⌊5·0.95⌋ = 4 samples,
        // keys with 1 occurrence get max(1, ⌊0.05⌋) = 1.
        assert_eq!(per_key_quota(5, 95, 100), 4);
        assert_eq!(per_key_quota(5, 1, 100), 1);
        assert_eq!(per_key_quota(256, 100, 100), 256);
        assert_eq!(per_key_quota(5, 0, 0), 0);
    }

    fn paper_worked_example() -> Table {
        // Section IV-B: KY = [a, b, c, d, e, f×95], Y = [0,0,0,0,0,1..95].
        let mut keys: Vec<String> = vec!["a", "b", "c", "d", "e"]
            .into_iter()
            .map(String::from)
            .collect();
        keys.extend(std::iter::repeat_with(|| "f".to_owned()).take(95));
        let mut ys: Vec<i64> = vec![0, 0, 0, 0, 0];
        ys.extend(1..=95);
        Table::builder("train")
            .push_str_column("k", keys)
            .push_int_column("y", ys)
            .build()
            .unwrap()
    }

    #[test]
    fn size_bound_of_2n_holds() {
        let table = paper_worked_example();
        for n in [2usize, 5, 8, 32] {
            let cfg = SketchConfig::new(n, 9);
            let sketch = build_left(&table, "k", "y", &cfg).unwrap();
            assert!(sketch.len() <= 2 * n, "n={n}: size {}", sketch.len());
        }
    }

    #[test]
    fn at_least_one_sample_per_selected_key() {
        let table = paper_worked_example();
        let cfg = SketchConfig::new(5, 1);
        let sketch = build_left(&table, "k", "y", &cfg).unwrap();
        // 5 selected keys, each with >= 1 sample.
        assert!(sketch.distinct_keys() <= 5);
        assert!(sketch.len() >= sketch.distinct_keys());
    }

    #[test]
    fn frequent_key_gets_proportional_quota_when_selected() {
        let table = paper_worked_example();
        let hasher = SketchConfig::new(5, 0).key_hasher();
        let f_digest = Value::from("f").key_hash(&hasher);
        // Try several seeds; whenever "f" is selected it must carry
        // max(1, ⌊5·0.95⌋) = 4 samples.
        let mut observed = false;
        for seed in 0..20u64 {
            let cfg = SketchConfig::new(5, seed);
            let sketch = build_left(&table, "k", "y", &cfg).unwrap();
            let f_count = sketch.rows().iter().filter(|r| r.key == f_digest).count();
            if f_count > 0 {
                assert_eq!(f_count, 4, "seed {seed}");
                observed = true;
            }
        }
        assert!(observed, "key f was never selected across 20 seeds");
    }

    #[test]
    fn entropy_collapse_failure_mode_exists() {
        // The paper's worked example: when the 5 singleton keys win the
        // first-level sampling, the sketch's Y values are all zero and the
        // entropy (hence any MI involving Y) collapses to 0. Demonstrate that
        // at least one seed exhibits the collapse.
        let table = paper_worked_example();
        let hasher = SketchConfig::new(5, 0).key_hasher();
        let f_digest = Value::from("f").key_hash(&hasher);
        let mut collapse_seen = false;
        for seed in 0..200u64 {
            let cfg = SketchConfig::new(5, seed);
            let sketch = build_left(&table, "k", "y", &cfg).unwrap();
            if sketch.rows().iter().all(|r| r.key != f_digest) {
                assert!(sketch.rows().iter().all(|r| r.value == Value::Int(0)));
                collapse_seen = true;
                break;
            }
        }
        // P(f not selected) per seed is C(5,5)/C(6,5)-ish ≈ 1/6, so 200 seeds
        // make a miss astronomically unlikely.
        assert!(
            collapse_seen,
            "no seed produced the entropy-collapse configuration"
        );
    }

    #[test]
    fn right_side_has_unique_keys_and_size_n() {
        let cand = Table::builder("cand")
            .push_int_column("k", (0..1000).map(|i| i % 300).collect::<Vec<i64>>())
            .push_float_column("z", (0..1000).map(|i| i as f64).collect::<Vec<f64>>())
            .build()
            .unwrap();
        let cfg = SketchConfig::new(64, 2);
        let sketch = build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
        assert_eq!(sketch.len(), 64);
        assert_eq!(sketch.distinct_keys(), 64);
        assert_eq!(sketch.source_distinct_keys(), 300);
    }

    #[test]
    fn coordinated_selection_joins_well_on_unique_keys() {
        let n = 3000i64;
        let train = Table::builder("train")
            .push_int_column("k", (0..n).collect::<Vec<i64>>())
            .push_int_column("y", (0..n).collect::<Vec<i64>>())
            .build()
            .unwrap();
        let cand = Table::builder("cand")
            .push_int_column("k", (0..n).collect::<Vec<i64>>())
            .push_float_column("z", (0..n).map(|i| (i * 2) as f64).collect::<Vec<f64>>())
            .build()
            .unwrap();
        let cfg = SketchConfig::new(256, 4);
        let left = build_left(&train, "k", "y", &cfg).unwrap();
        let right = build_right(&cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
        let joined = left.join(&right);
        // Unique keys: both sides select exactly the same n minimum keys.
        assert_eq!(joined.len(), 256);
    }
}
