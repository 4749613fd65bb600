//! Reading, writing, and comparing the quick-bench JSON.
//!
//! The quick benchmark emits a flat `{"bench/name": median_ns, ...}` object.
//! This module owns that format end to end — rendering, a dependency-free
//! parser, and the regression comparison the `bench-smoke` CI job runs
//! against the committed baseline — so the workflow never has to know key
//! names or thresholds.

use std::fmt::Write as _;

/// Bench medians gated unconditionally by [`compare_quick_bench`]: the
/// sketch-path hot loops whose regressions the paper's efficiency claim
/// cannot absorb, the PR 4 estimator-kernel medians (the blocked Chebyshev
/// k-NN kernel and the KSG estimate built on it), the PR 7 cross-query
/// stage-cache estimate-hit speedup (warm hit path vs. cold execution —
/// gated so the cache never silently degrades into re-doing the work it
/// claims to skip; the join-level `cache/join_hit_speedup` is reported but
/// not gated: it reads 1.0–1.1× in every baseline, so a 25 % gate on it
/// measures noise), the PR 8 compacted-load speedup (loading a compacted+sealed file vs.
/// replaying its append log — gated so compaction keeps paying for itself),
/// and the PR 10 early-termination speedup (interval top-k vs. exhaustive
/// interval scoring on the skewed corpus — gated so the screening bound
/// keeps actually skipping the weak tail).
pub const GATED_MEDIANS: [&str; 7] = [
    "sketch_join/tupsk_n256",
    "estimators/mle_on_sketch_join",
    "knn/chebyshev_n4096",
    "estimators/ksg_n4096",
    "cache/estimate_hit_speedup",
    "store/compacted_load_speedup",
    "query/early_term_speedup",
];

/// Returns `true` for medians where *larger is better* (speedup ratios, not
/// wall nanoseconds). The comparison direction flips for these: a regression
/// is the current value dropping below `baseline / (1 + max_regression)`.
#[must_use]
pub fn higher_is_better(name: &str) -> bool {
    name.contains("speedup")
}

/// Pipeline medians gated only when **both** the baseline and the current
/// host report more than one core (`host/available_parallelism`): on a
/// 1-core container the 4-thread run measures scheduler noise, not the code.
pub const PARALLEL_GATED_MEDIANS: [&str; 2] = [
    "pipeline/ingest32x8_query/threads=1",
    "pipeline/ingest32x8_query/threads=4",
];

/// Key recording the host's core count inside the quick-bench JSON.
pub const HOST_PARALLELISM_KEY: &str = "host/available_parallelism";

/// Renders results as a flat JSON object (insertion order preserved).
#[must_use]
pub fn render(results: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{name}\": {value:.1}{comma}");
    }
    out.push_str("}\n");
    out
}

/// Parses a flat `{"name": number, ...}` JSON object as written by
/// [`render`] (whitespace-tolerant; no nesting, strings only in key
/// position).
pub fn parse(text: &str) -> Result<Vec<(String, f64)>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| "quick-bench JSON must be a single object".to_owned())?;
    let mut entries = Vec::new();
    for raw_pair in split_top_level_commas(body) {
        let pair = raw_pair.trim();
        if pair.is_empty() {
            continue;
        }
        let rest = pair
            .strip_prefix('"')
            .ok_or_else(|| format!("expected quoted key in `{pair}`"))?;
        let (name, after_key) = rest
            .split_once('"')
            .ok_or_else(|| format!("unterminated key in `{pair}`"))?;
        let value_text = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("missing `:` after key `{name}`"))?
            .trim();
        let value: f64 = value_text
            .parse()
            .map_err(|_| format!("`{name}`: `{value_text}` is not a number"))?;
        entries.push((name.to_owned(), value));
    }
    if entries.is_empty() {
        return Err("quick-bench JSON holds no entries".to_owned());
    }
    Ok(entries)
}

/// Splits an object body on commas (keys are the only strings and contain no
/// commas or escapes, so top-level == every comma).
fn split_top_level_commas(body: &str) -> impl Iterator<Item = &str> {
    body.split(',')
}

/// Looks up one bench entry by exact name.
#[must_use]
pub fn lookup(entries: &[(String, f64)], name: &str) -> Option<f64> {
    entries.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

/// One gated median compared between baseline and current runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Bench name.
    pub name: String,
    /// Baseline median (nanoseconds).
    pub baseline: f64,
    /// Current median (nanoseconds).
    pub current: f64,
    /// `current / baseline` (> 1 means slower for wall-time medians, faster
    /// for speedup medians — see [`higher_is_better`]).
    pub ratio: f64,
    /// `true` when the slowdown exceeds the allowed regression.
    pub regressed: bool,
}

/// Outcome of a baseline-vs-current comparison.
#[derive(Debug, Clone, Default)]
pub struct ComparisonReport {
    /// Medians that were compared.
    pub checked: Vec<BenchComparison>,
    /// Gated keys that were skipped, with the reason.
    pub skipped: Vec<String>,
    /// Current-run benches with no baseline entry — reported explicitly as
    /// "new (no baseline)" so a fresh bench is visible in the gate output
    /// instead of silently absent until the baseline is regenerated.
    pub new_benches: Vec<String>,
}

impl ComparisonReport {
    /// Returns `true` if any checked median regressed beyond the threshold.
    #[must_use]
    pub fn has_regression(&self) -> bool {
        self.checked.iter().any(|c| c.regressed)
    }
}

/// Compares a fresh quick-bench run against the committed baseline.
///
/// The medians in [`GATED_MEDIANS`] are always compared; a median more than
/// `max_regression` slower than baseline (e.g. `0.25` = +25%) marks the
/// report as regressed. Speedup medians (see [`higher_is_better`]) compare in
/// the opposite direction: they regress when the ratio falls below
/// `1 / (1 + max_regression)`. Pipeline medians are additionally compared when both
/// hosts report more than one core (see [`PARALLEL_GATED_MEDIANS`]). Keys
/// missing from the *baseline* are reported as `new_benches` (baselines may
/// predate a bench — never silently dropped); **any** gated key missing from
/// the *current* run is an error, including pipeline medians whose
/// comparison would be skipped for core counts — the bench suite must not
/// silently lose coverage.
pub fn compare_quick_bench(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    max_regression: f64,
) -> Result<ComparisonReport, String> {
    let mut report = ComparisonReport::default();
    let baseline_cores = lookup(baseline, HOST_PARALLELISM_KEY).unwrap_or(1.0);
    let current_cores = lookup(current, HOST_PARALLELISM_KEY).unwrap_or(1.0);
    let compare_pipeline = baseline_cores > 1.0 && current_cores > 1.0;

    let mut gate = |name: &str| -> Result<(), String> {
        let Some(current_value) = lookup(current, name) else {
            return Err(format!("current quick-bench JSON is missing `{name}`"));
        };
        let Some(baseline_value) = lookup(baseline, name) else {
            report
                .skipped
                .push(format!("{name}: not in baseline (new bench)"));
            return Ok(());
        };
        let ratio = if baseline_value > 0.0 {
            current_value / baseline_value
        } else {
            1.0
        };
        let regressed = if higher_is_better(name) {
            ratio < 1.0 / (1.0 + max_regression)
        } else {
            ratio > 1.0 + max_regression
        };
        report.checked.push(BenchComparison {
            name: name.to_owned(),
            baseline: baseline_value,
            current: current_value,
            ratio,
            regressed,
        });
        Ok(())
    };

    for name in GATED_MEDIANS {
        gate(name)?;
    }
    if compare_pipeline {
        for name in PARALLEL_GATED_MEDIANS {
            gate(name)?;
        }
    } else {
        for name in PARALLEL_GATED_MEDIANS {
            // Not comparable on this host pairing, but the median must still
            // exist in the current run — its absence means the bench suite
            // lost coverage, which the gate must not paper over.
            if lookup(current, name).is_none() {
                return Err(format!("current quick-bench JSON is missing `{name}`"));
            }
            report.skipped.push(format!(
                "{name}: host has 1 core (baseline {baseline_cores}, current {current_cores})"
            ));
        }
    }

    // Surface every bench that exists in the current run but not in the
    // baseline: new benches are part of the comparison story, not noise.
    report.new_benches = current
        .iter()
        .filter(|(name, _)| name != HOST_PARALLELISM_KEY && lookup(baseline, name).is_none())
        .map(|(name, _)| name.clone())
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    #[test]
    fn render_parse_round_trip() {
        let data = entries(&[
            ("sketch_join/tupsk_n256", 3529.0),
            ("host/available_parallelism", 4.0),
        ]);
        let parsed = parse(&render(&data)).unwrap();
        assert_eq!(parsed, data);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[]").is_err());
        assert!(parse("{}").is_err());
        assert!(parse("{\"a\": nope}").is_err());
        assert!(parse("{\"a\" 1.0}").is_err());
    }

    /// All always-gated medians at the given value.
    fn gated(value: f64) -> Vec<(String, f64)> {
        GATED_MEDIANS
            .iter()
            .map(|&n| (n.to_owned(), value))
            .collect()
    }

    /// A complete current run: gated + pipeline medians (a current run must
    /// always carry every gated key, even ones skipped for core counts).
    fn complete_current(value: f64) -> Vec<(String, f64)> {
        let mut entries = gated(value);
        for name in PARALLEL_GATED_MEDIANS {
            entries.push((name.to_owned(), value));
        }
        entries
    }

    #[test]
    fn within_threshold_passes() {
        let mut baseline = gated(1000.0);
        baseline.push(("host/available_parallelism".to_owned(), 1.0));
        let mut current = complete_current(1200.0);
        current.push(("host/available_parallelism".to_owned(), 1.0));
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert!(!report.has_regression());
        assert_eq!(report.checked.len(), GATED_MEDIANS.len());
        // Pipeline medians skipped on the 1-core pairing.
        assert_eq!(report.skipped.len(), PARALLEL_GATED_MEDIANS.len());
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let baseline = gated(1000.0);
        let mut current = complete_current(1000.0);
        current[0].1 = 1251.0;
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert!(report.has_regression());
        let bad = &report.checked[0];
        assert!(bad.regressed);
        assert!(bad.ratio > 1.25);
    }

    #[test]
    fn pipeline_medians_gated_only_on_multicore_pairs() {
        let mut baseline = gated(1000.0);
        baseline.push(("pipeline/ingest32x8_query/threads=1".to_owned(), 100.0));
        baseline.push(("pipeline/ingest32x8_query/threads=4".to_owned(), 50.0));
        baseline.push(("host/available_parallelism".to_owned(), 4.0));
        let mut current = gated(1000.0);
        current.push(("pipeline/ingest32x8_query/threads=1".to_owned(), 300.0));
        current.push(("pipeline/ingest32x8_query/threads=4".to_owned(), 150.0));
        current.push(("host/available_parallelism".to_owned(), 4.0));
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert_eq!(
            report.checked.len(),
            GATED_MEDIANS.len() + PARALLEL_GATED_MEDIANS.len()
        );
        assert!(report.has_regression());

        // Same data, but the baseline host was 1-core: pipeline skipped.
        baseline.last_mut().unwrap().1 = 1.0;
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert_eq!(report.checked.len(), GATED_MEDIANS.len());
        assert!(!report.has_regression());
    }

    #[test]
    fn speedup_medians_gate_in_the_opposite_direction() {
        // A speedup that *rises* from 6x to 9x must pass even though the raw
        // ratio (1.5) is far beyond the +25% wall-time threshold…
        let mut baseline = gated(1000.0);
        let idx = GATED_MEDIANS
            .iter()
            .position(|&n| n == "cache/estimate_hit_speedup")
            .unwrap();
        baseline[idx].1 = 6.0;
        baseline.push(("host/available_parallelism".to_owned(), 1.0));
        let mut current = complete_current(1000.0);
        current[idx].1 = 9.0;
        current.push(("host/available_parallelism".to_owned(), 1.0));
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert!(!report.has_regression());

        // …and a speedup that *falls* below baseline / 1.25 must fail.
        current[idx].1 = 4.0; // 4.0 / 6.0 < 1 / 1.25
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert!(report.has_regression());
        let bad = report.checked.iter().find(|c| c.regressed).unwrap();
        assert_eq!(bad.name, "cache/estimate_hit_speedup");

        // A mild dip inside the tolerance band passes.
        current[idx].1 = 5.5; // 5.5 / 6.0 > 0.8
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert!(!report.has_regression());
    }

    #[test]
    fn missing_gated_key_in_current_is_an_error() {
        let baseline = entries(&[("sketch_join/tupsk_n256", 1000.0)]);
        let current = entries(&[("something_else", 1.0)]);
        assert!(compare_quick_bench(&baseline, &current, 0.25).is_err());
    }

    #[test]
    fn missing_pipeline_median_is_an_error_even_on_one_core_hosts() {
        // On a 1-core pairing pipeline medians are not *compared*, but a
        // current run that no longer emits them has lost bench coverage —
        // that must fail, not skip.
        let mut baseline = gated(1000.0);
        baseline.push(("host/available_parallelism".to_owned(), 1.0));
        let mut current = gated(1000.0);
        current.push(("host/available_parallelism".to_owned(), 1.0));
        assert!(compare_quick_bench(&baseline, &current, 0.25).is_err());
        for name in PARALLEL_GATED_MEDIANS {
            current.push((name.to_owned(), 123.0));
        }
        assert!(compare_quick_bench(&baseline, &current, 0.25).is_ok());
    }

    #[test]
    fn new_benches_are_reported_explicitly_not_silently_dropped() {
        let mut baseline = gated(1000.0);
        baseline.push(("host/available_parallelism".to_owned(), 1.0));
        let mut current = gated(1000.0);
        current.push(("host/available_parallelism".to_owned(), 1.0));
        for name in PARALLEL_GATED_MEDIANS {
            current.push((name.to_owned(), 123.0));
        }
        current.push(("store/append_vs_reingest".to_owned(), 42.0));
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert!(report
            .new_benches
            .contains(&"store/append_vs_reingest".to_owned()));
        // The pipeline medians are new to this baseline too.
        assert!(report
            .new_benches
            .iter()
            .any(|n| n.contains("pipeline/ingest32x8_query")));
        // The host-parallelism bookkeeping key is not a bench.
        assert!(!report
            .new_benches
            .iter()
            .any(|n| n == "host/available_parallelism"));
    }

    #[test]
    fn key_missing_from_baseline_is_skipped_not_fatal() {
        let baseline = entries(&[("sketch_join/tupsk_n256", 1000.0)]);
        let current = complete_current(1000.0);
        let report = compare_quick_bench(&baseline, &current, 0.25).unwrap();
        assert_eq!(report.checked.len(), 1);
        assert!(report
            .skipped
            .iter()
            .any(|s| s.contains("mle_on_sketch_join")));
        // …and the same keys surface in the new-bench list.
        assert!(report
            .new_benches
            .iter()
            .any(|n| n.contains("mle_on_sketch_join")));
    }
}
