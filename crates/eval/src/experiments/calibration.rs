//! Credible-interval calibration: coverage of the exact full-join MI.
//!
//! The discovery layer decorates every ranked candidate with a
//! Hutter–Zaffalon credible interval (`joinmi_estimators::posterior`). This
//! experiment asks whether those intervals are *calibrated*: when a corpus of
//! `n` rows (possibly NULL-degraded) yields an interval at level `γ`, does
//! the interval contain the exact full-join MI a fraction ≈ `γ` of the time?
//!
//! The "truth" per trial is the full-join MLE on a large reference sample
//! from the same generating distribution — the quantity
//! [`full_join_estimate`] already computes for the §V-B1 baseline, at a
//! sample size where its own error is negligible next to the corpus-side
//! interval width. The corpus is an independent, smaller draw with a
//! configurable fraction of entries replaced by NULL
//! ([`joinmi_synth::GeneratedPair::with_null_fraction`]); only complete
//! (both-sides non-NULL) pairs feed the estimate, exactly as a sketch join
//! drops rows whose key or value is missing. The sweep is corpus size ×
//! NULL fraction, so the report shows both that intervals widen as the
//! effective sample shrinks and that coverage stays near nominal while they
//! do.

use std::collections::BTreeMap;

use joinmi_estimators::{credible_interval, discretize, mle_mi_posterior_with, EstimatorWorkspace};
use joinmi_synth::TrinomialConfig;
use joinmi_table::Value;

use crate::pipeline::{full_join_estimate, EstimatorMode};
use crate::report::{f2, f3, TableReport};

/// Configuration of the calibration experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Trials per (corpus size, NULL fraction) cell.
    pub trials: usize,
    /// Corpus sizes swept (rows drawn for the interval-producing side).
    pub corpus_rows: Vec<usize>,
    /// NULL fractions swept (independently applied to each X and Y entry).
    pub null_fractions: Vec<f64>,
    /// Rows of the reference sample the exact full-join MI is computed on.
    pub reference_rows: usize,
    /// Two-sided credible level of the intervals under test.
    pub level: f64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            trials: 40,
            corpus_rows: vec![1_000, 4_000, 16_000],
            null_fractions: vec![0.0, 0.2, 0.5],
            reference_rows: 40_000,
            level: 0.95,
            seed: 42,
        }
    }
}

impl Config {
    /// A fast configuration for tests / smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trials: 12,
            corpus_rows: vec![800, 6_000],
            null_fractions: vec![0.0, 0.4],
            reference_rows: 16_000,
            level: 0.95,
            seed: 42,
        }
    }
}

/// One trial's interval next to the exact full-join MI it should cover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageTrial {
    /// Exact full-join MI (reference-sample MLE).
    pub truth: f64,
    /// Corpus-side point estimate.
    pub mi: f64,
    /// Lower credible bound.
    pub ci_lo: f64,
    /// Upper credible bound.
    pub ci_hi: f64,
}

impl CoverageTrial {
    /// Whether the interval contains the exact full-join MI.
    #[must_use]
    pub fn covered(&self) -> bool {
        self.ci_lo <= self.truth && self.truth <= self.ci_hi
    }

    /// Interval width in nats.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.ci_hi - self.ci_lo
    }
}

/// Per-cell trial series, keyed by `(corpus rows, NULL fraction in permille)`
/// so the map orders cells the way the report prints them.
pub type Series = BTreeMap<(usize, u32), Vec<CoverageTrial>>;

/// The permille key used in [`Series`] for a NULL fraction.
#[must_use]
pub fn permille(null_fraction: f64) -> u32 {
    (null_fraction * 1000.0).round() as u32
}

/// Runs the experiment.
#[must_use]
pub fn run(cfg: &Config) -> Series {
    let ms = [4u32, 8, 16];
    let mut series = Series::new();
    let mut ws = EstimatorWorkspace::new();
    for (ri, &rows) in cfg.corpus_rows.iter().enumerate() {
        for (ni, &nf) in cfg.null_fractions.iter().enumerate() {
            let cell: &mut Vec<CoverageTrial> = series.entry((rows, permille(nf))).or_default();
            for t in 0..cfg.trials {
                let base = cfg
                    .seed
                    .wrapping_add(((ri * 97 + ni * 13 + 1) * 100_000 + t) as u64);
                let m = ms[t % ms.len()];
                let gen = TrinomialConfig::with_random_target(m, 3.0, base);

                // Exact full-join MI: the same quantity the §V-B1 baseline
                // computes, on a reference sample large enough that its own
                // error is negligible against the corpus interval width.
                let reference = gen.generate(cfg.reference_rows, base.wrapping_add(1));
                let Some(truth) =
                    full_join_estimate(&reference.xs, &reference.ys, EstimatorMode::Mle, t as u64)
                else {
                    continue;
                };

                // Independent NULL-degraded corpus; estimate on the complete
                // pairs only, as the sketch-join path would recover them.
                let corpus = gen
                    .generate(rows, base.wrapping_add(2))
                    .with_null_fraction(nf, base.wrapping_add(3));
                let (xs, ys) = complete_pairs(&corpus.xs, &corpus.ys);
                let cx = discretize(&xs);
                let cy = discretize(&ys);
                let Ok((mi, post)) = mle_mi_posterior_with(&mut ws, &cx, &cy) else {
                    continue;
                };
                let Ok(interval) = credible_interval(mi, post, cfg.level) else {
                    continue;
                };
                cell.push(CoverageTrial {
                    truth,
                    mi,
                    ci_lo: interval.ci_lo,
                    ci_hi: interval.ci_hi,
                });
            }
        }
    }
    series
}

/// Keeps only pairs where both sides are non-NULL (what a join recovers).
fn complete_pairs(xs: &[Value], ys: &[Value]) -> (Vec<Value>, Vec<Value>) {
    xs.iter()
        .zip(ys)
        .filter(|(x, y)| !x.is_null() && !y.is_null())
        .map(|(x, y)| (x.clone(), y.clone()))
        .unzip()
}

/// Renders the calibration table.
#[must_use]
pub fn report(series: &Series, level: f64) -> TableReport {
    let mut table = TableReport::new(
        "Credible-interval calibration: coverage of the exact full-join MI",
        &[
            "Corpus rows",
            "NULL %",
            "Trials",
            "Coverage",
            "Nominal",
            "Mean width",
            "Mean |err|",
        ],
    );
    for ((rows, nf_permille), trials) in series {
        if trials.is_empty() {
            continue;
        }
        let n = trials.len() as f64;
        let coverage = trials.iter().filter(|t| t.covered()).count() as f64 / n;
        let width = trials.iter().map(CoverageTrial::width).sum::<f64>() / n;
        let err = trials.iter().map(|t| (t.mi - t.truth).abs()).sum::<f64>() / n;
        table.push_row(vec![
            rows.to_string(),
            format!("{:.1}", *nf_permille as f64 / 10.0),
            trials.len().to_string(),
            format!("{:.0}%", coverage * 100.0),
            format!("{:.0}%", level * 100.0),
            f3(width),
            f2(err),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_are_calibrated_and_shrink_with_corpus_size() {
        let cfg = Config::quick();
        let series = run(&cfg);
        assert_eq!(
            series.len(),
            cfg.corpus_rows.len() * cfg.null_fractions.len()
        );

        let mean_width = |rows: usize, nf: f64| {
            let cell = &series[&(rows, permille(nf))];
            assert!(
                cell.len() * 2 >= cfg.trials,
                "{rows} rows / {nf}: too few usable trials ({})",
                cell.len()
            );
            cell.iter().map(CoverageTrial::width).sum::<f64>() / cell.len() as f64
        };

        // Coverage near nominal in every cell (loose at quick-run scale).
        for ((rows, nf), trials) in &series {
            let coverage = trials.iter().filter(|t| t.covered()).count() as f64;
            assert!(
                coverage / trials.len() as f64 >= 0.5,
                "{rows} rows / {nf}‰: coverage {coverage}/{} under level {}",
                trials.len(),
                cfg.level
            );
        }

        // Intervals widen when NULLs shrink the effective sample, and shrink
        // as the corpus grows.
        let small = cfg.corpus_rows[0];
        let large = *cfg.corpus_rows.last().unwrap();
        assert!(mean_width(large, 0.0) < mean_width(small, 0.0));
        assert!(mean_width(small, 0.4) > mean_width(small, 0.0));

        let table = report(&series, cfg.level);
        assert!(!table.is_empty());
    }

    /// The floor early termination leans on: no cell's coverage collapses
    /// below half of nominal, even on a small sweep at level 0.9.
    #[test]
    fn no_cell_covers_less_than_half_of_nominal() {
        let cfg = Config {
            trials: 8,
            corpus_rows: vec![1_000],
            null_fractions: vec![0.0, 0.3],
            reference_rows: 8_000,
            level: 0.9,
            seed: 42,
        };
        let series = run(&cfg);
        assert_eq!(series.len(), 2);
        for ((rows, nf), trials) in &series {
            assert!(
                !trials.is_empty(),
                "calibration cell {rows}/{nf}‰ produced no trials"
            );
            let coverage =
                trials.iter().filter(|t| t.covered()).count() as f64 / trials.len() as f64;
            assert!(
                coverage >= cfg.level / 2.0,
                "calibration collapsed at {rows} rows / {nf}‰ NULLs: coverage {coverage:.2} \
                 under nominal {}",
                cfg.level
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = Config::quick();
        assert_eq!(run(&cfg), run(&cfg));
    }
}
