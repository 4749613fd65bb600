//! `run.sh compare A… -- B…`: sets two groups of run records side by side.
//!
//! Per end-to-end metric and workload it prints each side's median and
//! quartiles over its runs, the ratio of the medians with its base, and a
//! verdict. A metric whose runs scatter wider than its bound and interleave
//! across the two sides is *unresolved*, never "no change".

use std::collections::BTreeMap;

use joinmi_serve::json::Json;

use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};
use crate::stats;

/// `values[workload][metric]` of one side.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// What the two sides' runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs scatter wider than the bound and the sides interleave.
    Unresolved,
    /// B's median is better by more than the bound and every B run beats
    /// every A run.
    Better,
    /// None of the above.
    NoChange,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
            Self::Better => "better",
            Self::NoChange => "no change",
        }
    }
}

/// Interquartile spread of a side, 0 with fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::iqr_share(values)
    }
}

/// Judges side B against side A.
#[must_use]
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let lower_is_better = def.better == "lower";
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    // How much worse B's median is, as a share of A's.
    let worse_by = if med_a == 0.0 {
        0.0
    } else if lower_is_better {
        (med_b - med_a) / med_a.abs()
    } else {
        (med_a - med_b) / med_a.abs()
    };
    let all_b_better = b.iter().all(|y| a.iter().all(|x| beats(*y, *x)));
    let all_b_worse = b.iter().all(|y| a.iter().all(|x| beats(*x, *y)));
    let interleave = !all_b_better && !all_b_worse;
    let wide = spread(a) > def.bound || spread(b) > def.bound;
    if wide && interleave {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else if -worse_by > def.bound && all_b_better {
        Verdict::Better
    } else {
        Verdict::NoChange
    }
}

fn load_side(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if matches!(doc.get("trace"), Some(Json::Bool(true))) {
            continue; // no end-to-end number is taken from a traced run
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no workload"))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{path}: no metrics"));
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                side.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

fn summary(values: &[f64]) -> String {
    if values.is_empty() {
        return "—".to_owned();
    }
    let median = stats::median(values);
    if values.len() < 2 {
        return format!("{median:.4} (n=1)");
    }
    let [q1, _, q3] = stats::quartiles(values);
    let range = values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - values.iter().copied().fold(f64::INFINITY, f64::min);
    let range_share = if median == 0.0 {
        0.0
    } else {
        range / median.abs()
    };
    format!(
        "{median:.4} [{q1:.4}–{q3:.4}] (n={}, (max−min)÷median {:.1} %)",
        values.len(),
        100.0 * range_share
    )
}

fn listing(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders the comparison as a markdown table per metric, one row per
/// workload. With `with_values`, every run's value is listed too.
#[must_use]
pub fn render(a: &SideView<'_>, b: &SideView<'_>, with_values: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for def in &END_TO_END {
        let _ = writeln!(
            out,
            "\n### {} ({}, {} is better, bound {:.0} %)\n",
            def.name,
            def.unit,
            def.better,
            100.0 * def.bound
        );
        let _ = writeln!(
            out,
            "| workload | A: median [q1–q3] | B: median [q1–q3] | B ÷ A (base: A's median) | verdict |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|");
        for workload in WORKLOADS {
            let (va, vb) = (a.values(workload, def.name), b.values(workload, def.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (ratio, judged) = if va.is_empty() || vb.is_empty() {
                ("—".to_owned(), "—")
            } else {
                let base = stats::median(va);
                (
                    format!(
                        "{:.4} (base {base:.4} {})",
                        crate::metrics::ratio(stats::median(vb), base),
                        def.unit
                    ),
                    verdict(def, va, vb).name(),
                )
            };
            let _ = writeln!(
                out,
                "| {workload} | {} | {} | {ratio} | {judged} |",
                summary(va),
                summary(vb)
            );
            if with_values {
                let _ = writeln!(out, "| | A: {} | B: {} | | |", listing(va), listing(vb));
            }
        }
    }
    out
}

/// One side's values, looked up by workload and metric.
pub struct SideView<'a>(&'a Side);

impl SideView<'_> {
    fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.0
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }
}

/// The `compare` subcommand: `A… -- B…`, optionally preceded by `--values`.
pub fn main(args: &[String]) -> Result<(), String> {
    let with_values = args.first().is_some_and(|a| a == "--values");
    let args = &args[usize::from(with_values)..];
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare [--values] A.json… -- B.json…")?;
    let (a, b) = (load_side(&args[..split])?, load_side(&args[split + 1..])?);
    print!("{}", render(&SideView(&a), &SideView(&b), with_values));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue's metric with a 10 % bound, whatever the catalogue's is.
    fn def(name: &str) -> MetricDef {
        MetricDef {
            bound: 0.10,
            ..*END_TO_END.iter().find(|d| d.name == name).unwrap()
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_interleaving() {
        let latency = def("op_p50_ms"); // lower is better, bound 10 %
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Within the bound and tight: no change.
        assert_eq!(
            verdict(&latency, &a, &[10.3, 10.4, 10.2, 10.35, 10.25]),
            Verdict::NoChange
        );
        // Median 20 % worse, tight runs: worse.
        assert_eq!(
            verdict(&latency, &a, &[12.0, 12.1, 11.9, 12.05, 11.95]),
            Verdict::Worse
        );
        // 20 % better and every run beats every A run: better.
        assert_eq!(
            verdict(&latency, &a, &[8.0, 8.1, 7.9, 8.05, 7.95]),
            Verdict::Better
        );
        // Scatter wider than the bound, sides interleaving: unresolved even
        // though the medians are close.
        assert_eq!(
            verdict(&latency, &a, &[8.0, 12.5, 10.0, 13.0, 7.5]),
            Verdict::Unresolved
        );
        // Wide scatter but every B run still beats every A run: resolved.
        assert_eq!(
            verdict(&latency, &a, &[5.0, 8.0, 6.0, 9.0, 7.0]),
            Verdict::Better
        );
        // Higher-is-better metrics flip the direction.
        let rate = def("ops_per_s");
        assert_eq!(
            verdict(&rate, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Worse
        );
    }
}
