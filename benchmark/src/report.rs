//! What a run prints and records: the human-readable lines, the one-line
//! JSON result the last line of standard output carries, and the record file
//! under `benchmark/out/` that `compare` reads.

use std::path::{Path, PathBuf};

use joinmi_serve::json::{obj, Json};

use crate::host::Host;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Opts, Outcome};

/// The metric set a run of this kind reports.
#[must_use]
pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn metrics_json(outcome: &Outcome, trace: bool) -> Json {
    Json::Obj(
        outcome
            .values
            .in_order(defs(trace))
            .into_iter()
            .map(|(def, value)| {
                (
                    def.name.to_owned(),
                    obj([
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(def.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", metrics_json(outcome, trace)),
    ])
    .encode()
}

/// Prints every metric by name with its unit, the op counts and the
/// correctness flag.
pub fn print_human(opts: &Opts, host: &Host, outcome: &Outcome) {
    let kind = if opts.trace { "traced" } else { "end-to-end" };
    println!(
        "== {} ({kind}, seed {}, {} s) ==",
        opts.workload, opts.seed, opts.seconds
    );
    for (def, value) in outcome.values.in_order(defs(opts.trace)) {
        println!("{:<46} {:>14.4} {}", def.name, value, def.unit);
    }
    for (key, value) in &outcome.details {
        println!("  {key}: {}", value.encode());
    }
    println!(
        "ops attempted {}, failed {}, correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for problem in &outcome.problems {
        println!("  PROBLEM: {problem}");
    }
    if !host.comparable() {
        println!("comparable: false ({})", host.not_comparable.join("; "));
    }
}

/// Path of a run's record file.
#[must_use]
pub fn record_path(opts: &Opts, label: &str) -> PathBuf {
    let trace = if opts.trace { "-trace" } else { "" };
    opts.out_dir.join(format!(
        "{label}{}-seed{}{trace}.json",
        opts.workload, opts.seed
    ))
}

/// Writes the run's record: metrics, host guard, op counts and flags.
pub fn write_record(
    path: &Path,
    opts: &Opts,
    host: &Host,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let details = Json::Obj(
        outcome
            .details
            .iter()
            .map(|(key, value)| ((*key).to_owned(), value.clone()))
            .collect(),
    );
    let record = obj([
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Float(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("host", host.to_json()),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "problems",
            Json::Arr(
                outcome
                    .problems
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
        ("details", details),
        ("metrics", metrics_json(outcome, opts.trace)),
    ]);
    std::fs::write(path, record.encode() + "\n")
}
