//! Cross-crate integration tests: the full discovery workflow, sketch vs
//! full-join agreement, and the behaviour of every sketching strategy on the
//! same realistic scenario.

use joinmi::discovery::{AugmentationPlan, RelationshipQuery, RepositoryConfig, TableRepository};
use joinmi::eval::baselines;
use joinmi::prelude::*;
use joinmi::sketch::{tupsk, JoinedSketch};
use joinmi::synth::TaxiScenario;
use joinmi::table::{augment, AugmentSpec};

/// Materializes the augmentation join and estimates MI on it (the exact
/// reference the sketches approximate).
fn full_join_mi(
    train: &Table,
    cand: &Table,
    key: &str,
    target: &str,
    feature: &str,
    agg: Aggregation,
) -> f64 {
    let spec = AugmentSpec::new(key, target, key, feature, agg);
    let joined = augment(train, cand, &spec).expect("full join");
    let feature_col = spec.feature_column_name();
    let xs: Vec<Value> = (0..joined.table.num_rows())
        .map(|i| joined.table.value(i, &feature_col).expect("column"))
        .collect();
    let ys: Vec<Value> = (0..joined.table.num_rows())
        .map(|i| joined.table.value(i, target).expect("column"))
        .collect();
    let x_dtype = joined.table.column(&feature_col).expect("column").dtype();
    let y_dtype = joined.table.column(target).expect("column").dtype();
    JoinedSketch::from_pairs(xs, ys, x_dtype, y_dtype)
        .estimate_mi()
        .expect("estimate")
        .mi
}

#[test]
fn sketch_estimates_track_full_join_estimates_on_the_taxi_scenario() {
    let scenario = TaxiScenario::generate(120, 25, 99);
    let cfg = SketchConfig::new(1024, 5);

    // Population feature joined on zipcode.
    let full = full_join_mi(
        &scenario.taxi,
        &scenario.demographics,
        "zipcode",
        "num_trips",
        "population",
        Aggregation::Avg,
    );
    let left =
        tupsk::build_left(&scenario.taxi, "zipcode", "num_trips", &cfg).expect("left sketch");
    let right = tupsk::build_right(
        &scenario.demographics,
        "zipcode",
        "population",
        Aggregation::Avg,
        &cfg,
    )
    .expect("right sketch");
    let joined = left.join(&right);
    let sketch = joined.estimate_mi().expect("estimate").mi;

    assert!(
        full > 0.3,
        "full-join MI should be clearly positive: {full}"
    );
    assert!(
        (sketch - full).abs() < 0.5,
        "sketch estimate ({sketch}) should be close to the full-join estimate ({full})"
    );
}

#[test]
fn every_sketch_kind_completes_the_pipeline_on_the_taxi_scenario() {
    let scenario = TaxiScenario::generate(45, 12, 3);
    let cfg = SketchConfig::new(512, 9);
    for kind in SketchKind::ALL {
        let left = baselines::build_left(kind, &scenario.taxi, "date", "num_trips", &cfg)
            .expect("left sketch");
        let right = baselines::build_right(
            kind,
            &scenario.weather,
            "date",
            "rainfall",
            Aggregation::Avg,
            &cfg,
        )
        .expect("right sketch");
        let joined = left.join(&right);
        if joined.len() >= 8 {
            let est = joined.estimate_mi().expect("estimate");
            assert!(
                est.mi >= 0.0 && est.mi.is_finite(),
                "{kind}: bad estimate {}",
                est.mi
            );
        }
        // Storage bound: at most 2n for the two-level sketches, n for others.
        let bound = match kind {
            SketchKind::Lv2sk | SketchKind::Prisk => 2 * cfg.size,
            // INDSK is a Bernoulli sample with expected size n; allow slack.
            SketchKind::Indsk => 2 * cfg.size,
            _ => cfg.size,
        };
        assert!(
            left.len() <= bound,
            "{kind}: left sketch too large ({})",
            left.len()
        );
        assert!(
            right.len() <= cfg.size,
            "{kind}: right sketch too large ({})",
            right.len()
        );
    }
}

#[test]
fn discovery_query_then_materialization_preserves_row_count() {
    let scenario = TaxiScenario::generate(50, 14, 21);
    let mut repo = TableRepository::new(RepositoryConfig {
        sketch: SketchConfig::new(512, 21),
        ..RepositoryConfig::default()
    });
    repo.add_table(scenario.weather.clone())
        .expect("ingest weather");
    repo.add_table(scenario.demographics.clone())
        .expect("ingest demographics");
    repo.add_table(scenario.inspections.clone())
        .expect("ingest inspections");

    let query = RelationshipQuery::new(scenario.taxi.clone(), "zipcode", "num_trips")
        .with_top_k(5)
        .with_min_join_size(20)
        .with_sketch(SketchKind::Tupsk, SketchConfig::new(512, 21));
    let ranking = query.execute(&repo).expect("query");
    assert!(
        !ranking.is_empty(),
        "the query should surface zipcode-keyed candidates"
    );

    for candidate in &ranking {
        assert_eq!(candidate.key_column, "zipcode");
        let plan = AugmentationPlan::new("zipcode", "num_trips", candidate.clone());
        let materialized = plan
            .materialize(&scenario.taxi, &repo)
            .expect("materialize");
        assert_eq!(materialized.table.num_rows(), scenario.taxi.num_rows());
        assert!(materialized
            .table
            .schema()
            .contains(&plan.feature_column_name()));
    }
}

#[test]
fn csv_round_trip_feeds_the_sketch_pipeline() {
    // Export a generated table to CSV, re-import it with type inference, and
    // verify the sketches built from both versions agree.
    let scenario = TaxiScenario::generate(20, 6, 77);
    let csv = joinmi::table::write_csv_string(&scenario.taxi);
    let reread =
        joinmi::table::read_csv_str("taxi_csv", &csv, &joinmi::table::CsvOptions::default())
            .expect("CSV parses");
    assert_eq!(reread.num_rows(), scenario.taxi.num_rows());

    // Join on the date column: unlike zip codes (which the type inference
    // legitimately reads back as integers), dates stay strings, so the two
    // sketches must be bit-identical.
    let cfg = SketchConfig::new(128, 1);
    let a = tupsk::build_left(&scenario.taxi, "date", "num_trips", &cfg).expect("sketch original");
    let b = tupsk::build_left(&reread, "date", "num_trips", &cfg).expect("sketch reread");
    assert_eq!(a.len(), b.len());
    let keys_a: Vec<u64> = a.rows().iter().map(|r| r.key.raw()).collect();
    let keys_b: Vec<u64> = b.rows().iter().map(|r| r.key.raw()).collect();
    assert_eq!(
        keys_a, keys_b,
        "sketches must be identical after a CSV round trip"
    );
}
