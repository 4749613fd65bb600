//! Quickstart: estimate the mutual information between a target column and a
//! feature column of an external table **without joining the tables**.
//!
//! Run with: `cargo run --example quickstart --release`

use joinmi::prelude::*;
use joinmi::sketch::tupsk;
use joinmi::table::{augment, AugmentSpec};

fn main() {
    // The base table the analyst is working on: daily taxi trips per ZIP code
    // (Figure 1(a) of the paper, heavily abridged).
    let zipcodes = [
        "11201", "10011", "11215", "10003", "11201", "10011", "11215", "10003",
    ];
    let trips = [136i64, 112, 94, 140, 151, 120, 88, 135];
    let taxi = Table::builder("taxi")
        .push_str_column("zipcode", zipcodes.to_vec())
        .push_int_column("num_trips", trips.to_vec())
        .build()
        .expect("valid table");

    // A candidate table discovered in an open-data portal: demographics per
    // ZIP code (Figure 1(c)).
    let demographics = Table::builder("demographics")
        .push_str_column("zipcode", vec!["11201", "10011", "11215", "10003", "10314"])
        .push_int_column("population", vec![53_041, 50_594, 37_840, 55_000, 41_000])
        .push_str_column(
            "borough",
            vec![
                "Brooklyn",
                "Manhattan",
                "Brooklyn",
                "Manhattan",
                "Staten Island",
            ],
        )
        .build()
        .expect("valid table");

    // 1. Build sketches for both sides. In a real deployment the candidate
    //    sketch is built offline, once, when the table is ingested.
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

    // 2. Join the sketches (never the tables) and estimate MI.
    let joined = left.join(&right);
    let estimate = joined.estimate_mi().expect("estimate");
    println!(
        "sketch estimate:    I(num_trips ; AVG(population)) = {:.3} nats  ({} samples, {} estimator)",
        estimate.mi,
        estimate.n,
        estimate.estimator
    );

    // 3. Compare against the exact value computed on the materialized join.
    let spec = AugmentSpec::new(
        "zipcode",
        "num_trips",
        "zipcode",
        "population",
        Aggregation::Avg,
    );
    let full = augment(&taxi, &demographics, &spec).expect("full join");
    let xs: Vec<Value> = (0..full.table.num_rows())
        .map(|i| {
            full.table
                .value(i, &spec.feature_column_name())
                .expect("column")
        })
        .collect();
    let ys: Vec<Value> = (0..full.table.num_rows())
        .map(|i| full.table.value(i, "num_trips").expect("column"))
        .collect();
    let full_joined = joinmi::sketch::JoinedSketch::from_pairs(
        xs,
        ys,
        joinmi::table::DataType::Float,
        joinmi::table::DataType::Int,
    );
    let full_estimate = full_joined.estimate_mi().expect("estimate");
    println!(
        "full-join estimate: I(num_trips ; AVG(population)) = {:.3} nats  ({} samples)",
        full_estimate.mi, full_estimate.n
    );
    println!(
        "\nOn tables this small the sketch recovers the entire join, so the two values agree; \
         on large tables the sketch keeps only {} samples regardless of table size.",
        cfg.size
    );
}
