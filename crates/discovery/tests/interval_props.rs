//! Property tests for the pluggable scoring policy: point scoring must keep
//! today's rankings bit-for-bit under arbitrary cache interleavings with
//! interval-scored runs of the same queries, and the early-terminating
//! interval top-k must equal the exhaustively scored interval top-k — ties
//! included — for every `top_k` and confidence level.

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

/// The same deterministic query family as `cache_props`: the variant index
/// varies the ranking limit, the join-size gate, the estimator `k`, and the
/// query rows.
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

/// A corpus engineered so interval early termination actually fires: three
/// strong candidates tied at exactly ln 64 nats (full key overlap,
/// one-to-one features) and a long tail of weak candidates sharing only
/// eight keys each, whose cheap MI upper bound sits below the strong
/// candidates' credible lower bound.
fn skewed_repo() -> (TableRepository, Table) {
    fn strs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    let keys: Vec<String> = (0..64).map(|i| format!("key-{i:02}")).collect();
    let target: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
    let train = Table::builder("train")
        .push_str_column("key", strs(&keys))
        .push_str_column("target", strs(&target))
        .build()
        .unwrap();
    let config = RepositoryConfig {
        sketch: SketchConfig::new(256, 5),
        ..RepositoryConfig::default()
    };
    let mut repo = TableRepository::new(config);
    for t in 0..3 {
        let feature: Vec<String> = (0..64).map(|i| format!("f{t}-{i}")).collect();
        let table = Table::builder(format!("strong{t}"))
            .push_str_column("key", strs(&keys))
            .push_str_column("feat", strs(&feature))
            .build()
            .unwrap();
        repo.add_table(table).unwrap();
    }
    for t in 0..40 {
        let mut weak_keys: Vec<String> = (0..8).map(|i| format!("key-{i:02}")).collect();
        weak_keys.extend((0..40).map(|j| format!("weak{t}-{j}")));
        let feature: Vec<String> = (0..weak_keys.len()).map(|i| format!("w{t}-{i}")).collect();
        let table = Table::builder(format!("weak{t}"))
            .push_str_column("key", strs(&weak_keys))
            .push_str_column("feat", strs(&feature))
            .build()
            .unwrap();
        repo.add_table(table).unwrap();
    }
    (repo, train)
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

/// Fingerprint carrying the interval decoration bits as well.
fn interval_fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, u64, u64, u64)> {
    results
        .iter()
        .map(|r| {
            let iv = r.interval.as_ref().expect("interval missing");
            (
                r.candidate_index,
                r.mi.to_bits(),
                iv.variance.to_bits(),
                iv.ci_lo.to_bits(),
                iv.ci_hi.to_bits(),
            )
        })
        .collect()
}

const LEVELS: [f64; 3] = [0.5, 0.9, 0.99];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Point scoring through one shared cache, interleaved with interval
    /// scoring of the same queries, must keep every point ranking identical
    /// to its cold run (no cross-policy aliasing), and every interval
    /// ranking must order candidates exactly as the point ranking does.
    #[test]
    fn point_rankings_survive_interval_interleavings(
        ops in proptest::collection::vec(0usize..8, 1..5),
        level_idx in 0usize..3,
    ) {
        let level = LEVELS[level_idx];
        let (repo, train) = corpus_repo();
        let cache = QueryStageCache::new(StageCacheConfig::default());
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();
        for &op in &ops {
            let point = variant(&train, op);
            let interval = point.clone().with_confidence(level);

            let point_cold = point.execute(&repo).unwrap();
            let interval_cold = interval.execute(&repo).unwrap();
            // Interval scoring is decoration: same candidates, same order,
            // same point estimates to the last bit.
            prop_assert_eq!(fingerprint(&point_cold), fingerprint(&interval_cold));

            // Interleave both policies through the same cache scope; each
            // must replay its own cold run bit-for-bit.
            let interval_cached =
                interval.execute_in_cached_stats(&repo, &mut ws, Some(&scope)).map(|(r, _)| r).unwrap();
            let point_cached = point.execute_in_cached_stats(&repo, &mut ws, Some(&scope)).map(|(r, _)| r).unwrap();
            prop_assert_eq!(fingerprint(&point_cold), fingerprint(&point_cached));
            prop_assert_eq!(
                interval_fingerprint(&interval_cold),
                interval_fingerprint(&interval_cached)
            );
        }
    }

    /// The early-terminating interval top-k must equal the exhaustively
    /// scored interval ranking truncated to the same k — including the tie
    /// group at exactly ln 64 nats that the skewed corpus plants across the
    /// strong candidates — for every k, level, and execution strategy.
    #[test]
    fn early_terminated_top_k_matches_exhaustive(
        top_k in 1usize..6,
        level_idx in 0usize..3,
    ) {
        let level = LEVELS[level_idx];
        let (repo, train) = skewed_repo();
        let query = RelationshipQuery::new(train, "key", "target")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 5))
            .with_min_join_size(3)
            .with_confidence(level);

        let mut exhaustive = query.clone().with_top_k(0).execute(&repo).unwrap();
        exhaustive.truncate(top_k);

        let early = query.with_top_k(top_k);
        let (parallel, stats) = early.execute_cached_stats(&repo, None).unwrap();
        prop_assert_eq!(
            interval_fingerprint(&exhaustive),
            interval_fingerprint(&parallel)
        );
        // With k ≤ 3 the running threshold comes from the strong tie group
        // (ci_lo ≈ 3.7 nats) and must beat the weak tail's ≈ 2.8-nat cheap
        // bound; with larger k the threshold is a weak candidate's own lower
        // bound and skipping nothing is the correct (sound) outcome.
        if top_k <= 3 {
            prop_assert!(stats.early_stopped > 0, "early termination never fired: {:?}", stats);
        }

        let mut ws = EstimatorWorkspace::new();
        let (sequential, _) = early.execute_in_cached_stats(&repo, &mut ws, None).unwrap();
        prop_assert_eq!(
            interval_fingerprint(&parallel),
            interval_fingerprint(&sequential)
        );
    }
}
