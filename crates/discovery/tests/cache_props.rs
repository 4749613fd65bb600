//! Property tests for the cross-query stage cache: cached execution must be
//! bit-for-bit identical to cold execution across arbitrary query
//! interleavings, under eviction pressure (tiny entry and byte capacities),
//! and across append-epoch generation bumps that mutate the repository.

use joinmi_discovery::{
    QueryStageCache, RankedCandidate, RelationshipQuery, RepositoryConfig, StageCacheConfig,
    TableRepository,
};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_synth::TaxiScenario;
use joinmi_table::Table;
use proptest::prelude::*;

const SKETCH: SketchConfig = SketchConfig { size: 256, seed: 3 };

fn corpus_repo() -> (TableRepository, Table) {
    let scenario = TaxiScenario::generate(30, 10, 3);
    let config = RepositoryConfig {
        sketch: SKETCH,
        ..RepositoryConfig::default()
    };
    let mut repo = TableRepository::new(config);
    repo.add_table(scenario.weather).unwrap();
    repo.add_table(scenario.demographics).unwrap();
    repo.add_table(scenario.inspections).unwrap();
    (repo, scenario.taxi)
}

/// A small deterministic family of query shapes: the variant index varies the
/// ranking limit, the join-size gate, the estimator `k`, and the query rows
/// (distinct row slices give distinct left-sketch fingerprints).
fn variant(train: &Table, idx: usize) -> RelationshipQuery {
    let top_k = [0, 2, 5, 1][idx % 4];
    let min_join_size = [10, 5, 40][idx % 3];
    let k = [3, 2, 5][idx % 3];
    let rows = train.num_rows() - (idx % 2) * (train.num_rows() / 4);
    RelationshipQuery::new(train.slice_rows(0..rows), "zipcode", "num_trips")
        .with_sketch(SketchKind::Tupsk, SKETCH)
        .with_min_join_size(min_join_size)
        .with_top_k(top_k)
        .with_k(k)
}

fn fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, usize, usize)> {
    results
        .iter()
        .map(|r| {
            (
                r.candidate_index,
                r.mi.to_bits(),
                r.sketch_join_size,
                r.key_overlap,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_rankings_match_cold_under_interleaving_and_eviction(
        ops in proptest::collection::vec(0usize..8, 1..6),
        max_entries in 1usize..24,
    ) {
        let (repo, train) = corpus_repo();
        // Tiny entry capacity: hits, misses, and evictions all interleave.
        let cache = QueryStageCache::new(StageCacheConfig { max_entries, max_bytes: 0 });
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();
        for &op in &ops {
            let query = variant(&train, op);
            let cold = query.execute(&repo).unwrap();
            let cached = query.execute_in_cached_stats(&repo, &mut ws, Some(&scope)).map(|(r, _)| r).unwrap();
            prop_assert_eq!(fingerprint(&cold), fingerprint(&cached));
        }
        // The bound must have held throughout.
        prop_assert!(cache.stats().entries <= max_entries);
    }

    #[test]
    fn byte_bound_pressure_keeps_rankings_exact(
        ops in proptest::collection::vec(0usize..8, 1..5),
        max_kib in 1usize..64,
    ) {
        let (repo, train) = corpus_repo();
        let max_bytes = max_kib * 1024;
        let cache = QueryStageCache::new(StageCacheConfig { max_entries: 4096, max_bytes });
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();
        for &op in &ops {
            let query = variant(&train, op);
            let cold = query.execute(&repo).unwrap();
            let cached = query.execute_in_cached_stats(&repo, &mut ws, Some(&scope)).map(|(r, _)| r).unwrap();
            prop_assert_eq!(fingerprint(&cold), fingerprint(&cached));
            prop_assert!(cache.stats().resident_bytes <= max_bytes);
        }
    }

    #[test]
    fn generation_bumps_keep_cached_rankings_exact_across_appends(
        ops in proptest::collection::vec(0usize..10, 2..7),
    ) {
        // op 8/9 = append rows to a candidate table and bump the cache
        // generation (the serving daemon's append-epoch contract); other ops
        // run a query variant. After every bump the mutated repository must
        // agree with its own cold run — no stale join or estimate may leak
        // across the epoch.
        let (mut repo, train) = corpus_repo();
        let donor = TaxiScenario::generate(30, 10, 7);
        let cache = QueryStageCache::with_generation(StageCacheConfig::default(), 0);
        let mut generation = 0u64;
        let mut appended_chunks = 0usize;
        let mut ws = EstimatorWorkspace::new();
        for &op in &ops {
            if op >= 8 {
                let rows = donor.inspections.num_rows();
                let start = (appended_chunks * 5) % rows.saturating_sub(5).max(1);
                repo.append_rows(&donor.inspections.slice_rows(start..start + 5)).unwrap();
                appended_chunks += 1;
                generation += 1;
                cache.set_generation(generation);
                prop_assert_eq!(cache.stats().entries, 0);
            } else {
                let query = variant(&train, op);
                let cold = query.execute(&repo).unwrap();
                let cached = query
                    .execute_in_cached_stats(&repo, &mut ws, Some(&cache.scope(0))).map(|(r, _)| r)
                    .unwrap();
                prop_assert_eq!(fingerprint(&cold), fingerprint(&cached));
            }
        }
    }
}
