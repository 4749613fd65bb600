//! Smoke test mirroring `examples/quickstart.rs` end-to-end: build two small
//! tables, sketch both sides, join the sketches, estimate MI, and check the
//! estimate against the exact value computed on the materialized join.

use joinmi::prelude::*;
use joinmi::sketch::tupsk;
use joinmi::table::{augment, AugmentSpec};

/// Builds the base table: `rows` observations of (zipcode, num_trips) where
/// the trip count depends deterministically on the zipcode plus a small
/// rotating offset, so I(num_trips; features of zipcode) is comfortably
/// positive.
fn base_table(rows: usize) -> Table {
    let zipcodes: Vec<String> = (0..rows).map(|i| format!("zip-{:02}", i % 16)).collect();
    let trips: Vec<i64> = (0..rows)
        .map(|i| 100 + 10 * ((i % 16) as i64) + (i % 3) as i64)
        .collect();
    Table::builder("taxi")
        .push_str_column("zipcode", zipcodes)
        .push_int_column("num_trips", trips)
        .build()
        .expect("valid base table")
}

/// Builds the candidate table: one row per zipcode with a population that is
/// a deterministic function of the zipcode.
fn candidate_table() -> Table {
    let zipcodes: Vec<String> = (0..16).map(|k| format!("zip-{k:02}")).collect();
    let population: Vec<i64> = (0..16).map(|k| 30_000 + 1_500 * k).collect();
    Table::builder("demographics")
        .push_str_column("zipcode", zipcodes)
        .push_int_column("population", population)
        .build()
        .expect("valid candidate table")
}

#[test]
fn quickstart_path_estimates_mi_close_to_full_join() {
    let taxi = base_table(240);
    let demographics = candidate_table();

    // Sketch both sides (offline, independently), then join the sketches and
    // estimate MI without materializing the join — the quickstart path.
    let cfg = SketchConfig::new(256, 42);
    let left = tupsk::build_left(&taxi, "zipcode", "num_trips", &cfg).expect("left sketch");
    let right = tupsk::build_right(
        &demographics,
        "zipcode",
        "population",
        Aggregation::Avg,
        &cfg,
    )
    .expect("right sketch");
    let joined = left.join(&right);
    assert!(!joined.is_empty(), "sketch join recovered no pairs");

    let estimate = joined.estimate_mi().expect("sketch MI estimate");
    assert!(
        estimate.mi.is_finite(),
        "sketch MI is not finite: {}",
        estimate.mi
    );
    assert!(estimate.n > 0, "sketch estimate used no samples");

    // Exact value on the materialized left join.
    let spec = AugmentSpec::new(
        "zipcode",
        "num_trips",
        "zipcode",
        "population",
        Aggregation::Avg,
    );
    let full = augment(&taxi, &demographics, &spec).expect("full join");
    assert_eq!(
        full.table.num_rows(),
        taxi.num_rows(),
        "left join must preserve base rows"
    );

    let feature_col = spec.feature_column_name();
    let xs: Vec<Value> = (0..full.table.num_rows())
        .map(|i| full.table.value(i, &feature_col).expect("feature value"))
        .collect();
    let ys: Vec<Value> = (0..full.table.num_rows())
        .map(|i| full.table.value(i, "num_trips").expect("target value"))
        .collect();
    let full_joined = joinmi::sketch::JoinedSketch::from_pairs(
        xs,
        ys,
        joinmi::table::DataType::Float,
        joinmi::table::DataType::Int,
    );
    let full_estimate = full_joined.estimate_mi().expect("full-join MI estimate");
    assert!(full_estimate.mi.is_finite());
    assert!(
        full_estimate.mi > 0.1,
        "dependent columns should have clearly positive MI, got {}",
        full_estimate.mi
    );

    // The sketch holds up to 256 of 240 rows, so it sees (nearly) the whole
    // join; a loose tolerance still catches wiring mistakes (wrong column,
    // wrong aggregation, broken coordination) which collapse MI toward 0.
    let diff = (estimate.mi - full_estimate.mi).abs();
    assert!(
        diff < 0.25 * full_estimate.mi.max(1.0),
        "sketch MI {} too far from full-join MI {}",
        estimate.mi,
        full_estimate.mi
    );
}
