//! §V-D — performance: full-join materialization + estimation time vs.
//! sketch-join + estimation time as the table size grows.
//!
//! The paper reports, for n = 256 and N growing from 5k to 20k: the full
//! join time growing from 0.35 ms to 2.1 ms while the sketch join stays
//! 0.03–0.18 ms, and MI estimation on the full join growing from 2.2 ms to
//! 10.7 ms while estimation on the sketch stays ≈ 0.1 ms. Absolute numbers
//! depend on hardware; the shape (sketch costs flat, full-join costs growing
//! linearly or worse) is what this experiment reproduces.

use std::time::Instant;

use joinmi_estimators::EstimatorWorkspace;
use joinmi_sketch::{tupsk, SketchConfig};
use joinmi_synth::{decompose, KeyDistribution, TrinomialConfig};
use joinmi_table::{augment, AugmentSpec};

use crate::pipeline::EstimatorMode;
use crate::report::{f3, TableReport};

/// Configuration of the performance experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Table sizes to sweep.
    pub table_sizes: Vec<usize>,
    /// Sketch size.
    pub sketch_size: usize,
    /// Repetitions per measurement (median is reported).
    pub repetitions: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            table_sizes: vec![5_000, 10_000, 20_000],
            sketch_size: 256,
            repetitions: 5,
            seed: 31,
        }
    }
}

impl Config {
    /// Fast configuration for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            table_sizes: vec![1_000, 2_000],
            sketch_size: 128,
            repetitions: 2,
            seed: 31,
        }
    }
}

/// Timings (in milliseconds) for one table size.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Number of rows of the base table.
    pub rows: usize,
    /// Full join materialization time.
    pub full_join_ms: f64,
    /// MI estimation time on the full join.
    pub full_estimate_ms: f64,
    /// Sketch construction time (both sides).
    pub sketch_build_ms: f64,
    /// Sketch join time.
    pub sketch_join_ms: f64,
    /// MI estimation time on the sketch join.
    pub sketch_estimate_ms: f64,
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    values[values.len() / 2]
}

/// Runs the experiment.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Timing> {
    let mut timings = Vec::new();
    for &rows in &cfg.table_sizes {
        let gen = TrinomialConfig::new(256, 0.4, 0.35);
        let data = gen.generate(rows, cfg.seed);
        let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);
        let spec = AugmentSpec::new(
            pair.key_column.clone(),
            pair.target_column.clone(),
            pair.key_column.clone(),
            pair.feature_column.clone(),
            pair.aggregation,
        );
        let sketch_cfg = SketchConfig::new(cfg.sketch_size, cfg.seed);

        let mut full_join = Vec::new();
        let mut full_est = Vec::new();
        let mut sketch_build = Vec::new();
        let mut sketch_join = Vec::new();
        let mut sketch_est = Vec::new();

        for _ in 0..cfg.repetitions {
            let t0 = Instant::now();
            let joined = augment(&pair.train, &pair.cand, &spec).expect("augmentation join");
            full_join.push(ms_since(t0));

            let feature_col = spec.feature_column_name();
            let xs: Vec<_> = (0..joined.table.num_rows())
                .map(|i| joined.table.value(i, &feature_col).expect("column exists"))
                .collect();
            let ys: Vec<_> = (0..joined.table.num_rows())
                .map(|i| {
                    joined
                        .table
                        .value(i, &pair.target_column)
                        .expect("column exists")
                })
                .collect();
            let t0 = Instant::now();
            let _ = EstimatorMode::Mle.estimate(&xs, &ys, cfg.seed);
            full_est.push(ms_since(t0));

            let t0 = Instant::now();
            let left = tupsk::build_left(
                &pair.train,
                &pair.key_column,
                &pair.target_column,
                &sketch_cfg,
            )
            .expect("left sketch");
            let right = tupsk::build_right(
                &pair.cand,
                &pair.key_column,
                &pair.feature_column,
                pair.aggregation,
                &sketch_cfg,
            )
            .expect("right sketch");
            sketch_build.push(ms_since(t0));

            let t0 = Instant::now();
            let joined_sketch = left.join(&right);
            sketch_join.push(ms_since(t0));

            let t0 = Instant::now();
            let _ = EstimatorMode::Mle.estimate_joined_in(
                &mut EstimatorWorkspace::new(),
                &joined_sketch,
                cfg.seed,
            );
            sketch_est.push(ms_since(t0));
        }

        timings.push(Timing {
            rows,
            full_join_ms: median(full_join),
            full_estimate_ms: median(full_est),
            sketch_build_ms: median(sketch_build),
            sketch_join_ms: median(sketch_join),
            sketch_estimate_ms: median(sketch_est),
        });
    }
    timings
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Renders the timing table.
#[must_use]
pub fn report(timings: &[Timing]) -> TableReport {
    let mut table = TableReport::new(
        "Section V-D: full join vs sketch timings (milliseconds, median)",
        &[
            "Rows",
            "Full join (ms)",
            "Full MI est (ms)",
            "Sketch build (ms)",
            "Sketch join (ms)",
            "Sketch MI est (ms)",
        ],
    );
    for t in timings {
        table.push_row(vec![
            t.rows.to_string(),
            f3(t.full_join_ms),
            f3(t.full_estimate_ms),
            f3(t.sketch_build_ms),
            f3(t.sketch_join_ms),
            f3(t.sketch_estimate_ms),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_query_costs_are_flat_while_full_costs_grow() {
        let timings = run(&Config::quick());
        assert_eq!(timings.len(), 2);
        // The sketch join operates on fixed-size inputs, so its cost must not
        // scale with the table, whereas the full join must take longer on the
        // larger table (allow generous slack — these are micro-timings).
        let small = timings[0];
        let large = timings[1];
        assert!(large.full_join_ms > 0.0 && small.full_join_ms > 0.0);
        assert!(large.sketch_join_ms < large.full_join_ms + large.full_estimate_ms);
        assert!(!report(&timings).is_empty());
    }
}
