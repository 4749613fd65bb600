//! The paper's motivating workload (Example 1): decide which external tables
//! are worth joining with a taxi-demand table by estimating, from sketches
//! alone, how much information each candidate feature carries about demand.
//!
//! Run with: `cargo run --example taxi_augmentation --release`

use joinmi::prelude::*;
use joinmi::sketch::tupsk;
use joinmi::synth::TaxiScenario;
use joinmi::table::{augment, AugmentSpec};

struct Candidate {
    label: &'static str,
    table: Table,
    key: &'static str,
    feature: &'static str,
    aggregation: Aggregation,
}

fn main() {
    // Generate a realistic-looking scenario: 90 days × 20 ZIP codes of taxi
    // trips, hourly weather, per-ZIP demographics, and an unrelated
    // restaurant-inspections table.
    let scenario = TaxiScenario::generate(90, 20, 2024);
    let taxi = &scenario.taxi;
    println!(
        "base table: {} rows of (date, zipcode, num_trips)\n",
        taxi.num_rows()
    );

    let candidates = vec![
        Candidate {
            label: "weather.rainfall (AVG by date)",
            table: scenario.weather.clone(),
            key: "date",
            feature: "rainfall",
            aggregation: Aggregation::Avg,
        },
        Candidate {
            label: "weather.temp (AVG by date)",
            table: scenario.weather.clone(),
            key: "date",
            feature: "temp",
            aggregation: Aggregation::Avg,
        },
        Candidate {
            label: "demographics.population (by zipcode)",
            table: scenario.demographics.clone(),
            key: "zipcode",
            feature: "population",
            aggregation: Aggregation::Avg,
        },
        Candidate {
            label: "inspections.score (AVG by zipcode)",
            table: scenario.inspections.clone(),
            key: "zipcode",
            feature: "score",
            aggregation: Aggregation::Avg,
        },
    ];

    let cfg = SketchConfig::new(512, 7);
    println!(
        "{:<42} {:>12} {:>12} {:>10}",
        "candidate feature", "sketch MI", "full MI", "samples"
    );
    println!("{}", "-".repeat(80));
    for cand in &candidates {
        // Join keys differ per candidate (date vs zipcode) — the left sketch
        // must be built per join key.
        let left_key = cand.key;
        let left = tupsk::build_left(taxi, left_key, "num_trips", &cfg).expect("left sketch");
        let right = tupsk::build_right(&cand.table, cand.key, cand.feature, cand.aggregation, &cfg)
            .expect("right sketch");
        let joined = left.join(&right);
        let sketch_mi = joined.estimate_mi().map(|e| e.mi).unwrap_or(f64::NAN);

        // Exact reference: materialize the augmentation join.
        let spec = AugmentSpec::new(
            left_key,
            "num_trips",
            cand.key,
            cand.feature,
            cand.aggregation,
        );
        let full = augment(taxi, &cand.table, &spec).expect("full join");
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
        let x_dtype = full
            .table
            .column(&spec.feature_column_name())
            .expect("column")
            .dtype();
        let full_mi = joinmi::sketch::JoinedSketch::from_pairs(xs, ys, x_dtype, DataType::Int)
            .estimate_mi()
            .map(|e| e.mi)
            .unwrap_or(f64::NAN);

        println!(
            "{:<42} {:>12.3} {:>12.3} {:>10}",
            cand.label,
            sketch_mi,
            full_mi,
            joined.len()
        );
    }

    println!(
        "\nThe sketch estimates track the full-join estimates while looking at only {} \
         sampled rows per table — the joins above were materialized here only to show the \
         reference values.",
        cfg.size
    );
}
