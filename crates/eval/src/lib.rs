//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section V).
//!
//! Each experiment lives in [`experiments`] and has a matching binary in
//! `src/bin/` that prints the same rows / series the paper reports:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_fulljoin` | §V-B1 full-join estimator sanity check |
//! | `exp_fig2` | Figure 2 — Trinomial(m=512), LV2SK vs TUPSK |
//! | `exp_fig3` | Figure 3 — CDUnif, LV2SK vs TUPSK |
//! | `exp_fig4` | Figure 4 — effect of the number of distinct values |
//! | `exp_table1` | Table I — join size and MSE of all five sketches |
//! | `exp_table2` | Table II + §V-C3 — simulated open-data collections |
//! | `exp_fig5` | Figure 5 — estimates vs full join by sketch-join size |
//! | `exp_perf` | §V-D performance numbers |
//! | `exp_ablation` | ablations: sketch size, aggregation choice, coordination |
//! | `exp_calibration` | credible-interval coverage of the exact full-join MI |
//! | `exp_all` | runs everything above in sequence |
//!
//! The library part exposes the building blocks (the five sketch kinds in
//! [`baselines`], metrics, the sketch-estimation pipeline, report
//! formatting) so the binaries stay thin and the logic is unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod experiments;
pub mod metrics;
pub mod pipeline;
pub mod report;

// The four baseline builders, reached through `baselines` only.
mod csk;
mod indsk;
mod lv2sk;
mod prisk;

pub use metrics::{mae, mean_error, mse, rmse, Summary};
pub use pipeline::{
    full_join_estimate, run_grid, sketch_estimate, EstimatorMode, GridCell, SketchTrial,
    TrialOutcome,
};
pub use report::TableReport;
