//! Shared evaluation loop over simulated open-data collections (used by the
//! Table II and Figure 5 experiments).
//!
//! For every sampled ordered pair of two-column tables `(T_train, T_cand)`:
//! materialize the augmentation join exactly (the "full join" reference the
//! paper compares against, since the true distribution of real data is
//! unknown), estimate MI on it, and estimate MI from the sketch join of each
//! requested sketching strategy.

use std::collections::BTreeMap;

use joinmi_sketch::{JoinedSketch, SketchConfig, SketchKind};
use joinmi_synth::OpenDataCollection;
use joinmi_table::{augment, Aggregation, AugmentSpec, DataType, Table};

use crate::baselines;

/// The evaluation of one table pair.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Index of the base table in the collection.
    pub train_index: usize,
    /// Index of the candidate table in the collection.
    pub cand_index: usize,
    /// Name of the estimator selected for this pair (by data types).
    pub estimator: String,
    /// Full-join MI estimate (the reference).
    pub full_mi: f64,
    /// Size of the materialized full join (rows with a match).
    pub full_join_size: usize,
    /// Per-sketch (MI estimate, sketch-join size).
    pub sketches: BTreeMap<String, (f64, usize)>,
}

/// Configuration of the collection evaluation loop.
#[derive(Debug, Clone)]
pub struct CollectionEval {
    /// Sketching strategies to evaluate.
    pub kinds: Vec<SketchKind>,
    /// Sketch size (1024 in the paper's real-data experiments).
    pub sketch_size: usize,
    /// Minimum sketch-join size for an estimate to be recorded (100 in the
    /// paper).
    pub min_join_size: usize,
    /// Maximum number of table pairs evaluated (the paper samples pairs).
    pub max_pairs: usize,
    /// Seed for the sketches.
    pub seed: u64,
}

impl Default for CollectionEval {
    fn default() -> Self {
        Self {
            kinds: baselines::TABLE2.to_vec(),
            sketch_size: 1024,
            min_join_size: 100,
            max_pairs: 150,
            seed: 3,
        }
    }
}

impl CollectionEval {
    /// Runs the evaluation over a collection.
    ///
    /// Table pairs are evaluated in parallel (each pair's full-join reference
    /// and sketch estimates are one work item); the result list keeps the
    /// deterministic pair order, identical to a sequential run.
    #[must_use]
    pub fn run(&self, collection: &OpenDataCollection) -> Vec<PairResult> {
        let config = SketchConfig::new(self.sketch_size, self.seed);

        let pairs = collection.table_pairs();
        let limited = &pairs[..pairs.len().min(self.max_pairs)];
        let evaluated: Vec<Option<PairResult>> = joinmi_par::par_map(limited, |&(i, j)| {
            let train = &collection.tables[i];
            let cand = &collection.tables[j];
            let reference = full_join_reference(train, cand)?;

            let mut sketches = BTreeMap::new();
            for &kind in &self.kinds {
                let Ok(left) = baselines::build_left(kind, train, "key", "value", &config) else {
                    continue;
                };
                let agg = aggregation_for(cand);
                let Ok(right) = baselines::build_right(kind, cand, "key", "value", agg, &config)
                else {
                    continue;
                };
                let joined = left.join(&right);
                if joined.len() < self.min_join_size {
                    continue;
                }
                if let Ok(est) = joined.estimate_mi() {
                    sketches.insert(kind.name().to_owned(), (est.mi, joined.len()));
                }
            }
            if sketches.is_empty() {
                return None;
            }
            Some(PairResult {
                train_index: i,
                cand_index: j,
                estimator: reference.2,
                full_mi: reference.0,
                full_join_size: reference.1,
                sketches,
            })
        });
        evaluated.into_iter().flatten().collect()
    }
}

/// The featurization function used for a candidate table's value column.
fn aggregation_for(cand: &Table) -> Aggregation {
    match cand.column("value").map(|c| c.dtype()) {
        Ok(DataType::Str) => Aggregation::Mode,
        _ => Aggregation::Avg,
    }
}

/// Materializes the augmentation join and estimates MI on it. Returns
/// `(estimate, matched rows, estimator name)`, or `None` when the join has
/// too little overlap or the estimate fails.
fn full_join_reference(train: &Table, cand: &Table) -> Option<(f64, usize, String)> {
    let agg = aggregation_for(cand);
    let spec = AugmentSpec::new("key", "value", "key", "value", agg);
    let result = augment(train, cand, &spec).ok()?;
    if result.matched_rows < 100 {
        return None;
    }
    let feature_col = spec.feature_column_name();
    let table = &result.table;
    let xs: Vec<_> = (0..table.num_rows())
        .map(|r| table.value(r, &feature_col).ok())
        .collect::<Option<_>>()?;
    let ys: Vec<_> = (0..table.num_rows())
        .map(|r| table.value(r, "value").ok())
        .collect::<Option<_>>()?;
    let x_dtype = table.column(&feature_col).ok()?.dtype();
    let y_dtype = table.column("value").ok()?.dtype();
    let joined = JoinedSketch::from_pairs(xs, ys, x_dtype, y_dtype);
    let est = joined.estimate_mi().ok()?;
    Some((est.mi, result.matched_rows, est.estimator.name().to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_synth::OpenDataConfig;

    fn tiny_collection() -> OpenDataCollection {
        let cfg = OpenDataConfig {
            num_tables: 6,
            rows_range: (600, 900),
            key_universe: 300,
            ..OpenDataConfig::wbf_like(5)
        };
        OpenDataCollection::generate(&cfg)
    }

    #[test]
    fn evaluates_pairs_and_records_all_sketches() {
        let eval = CollectionEval {
            sketch_size: 256,
            min_join_size: 50,
            max_pairs: 10,
            ..CollectionEval::default()
        };
        let results = eval.run(&tiny_collection());
        assert!(
            !results.is_empty(),
            "no evaluable pairs in the tiny collection"
        );
        for r in &results {
            assert!(r.full_mi >= 0.0);
            assert!(r.full_join_size >= 100);
            assert!(!r.sketches.is_empty());
            for (name, (mi, join)) in &r.sketches {
                assert!(mi.is_finite(), "{name} produced a non-finite estimate");
                assert!(*join >= 50);
            }
        }
    }

    #[test]
    fn respects_max_pairs() {
        let eval = CollectionEval {
            sketch_size: 128,
            min_join_size: 10,
            max_pairs: 3,
            ..CollectionEval::default()
        };
        let results = eval.run(&tiny_collection());
        assert!(results.len() <= 3);
    }
}
