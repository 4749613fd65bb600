//! The command line behind `benchmark/run.sh`.

use std::path::PathBuf;

use crate::host::Host;
use crate::metrics::WORKLOADS;
use crate::report;
use crate::workloads::{discover, refresh, serve, Opts, Outcome};

/// Length of the measured phase when `--seconds` is not given; the same
/// value `BENCHMARK.json` records as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// Length of a `--smoke` phase.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "\
usage: benchmark/run.sh [--trace] [--repeat N] [--seed S] [--seconds T] [--smoke] [--out DIR]
           runs serve_cold, serve_warm, discover_wide and lake_refresh and prints
           every end-to-end metric (with --trace: also the traced runs and every
           per-layer metric)
       benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
           one run; the last line of standard output is its JSON result
       benchmark/run.sh compare [--values] A.json... -- B.json...
           medians, quartiles and a verdict per workload and metric";

/// Runs one workload, end to end or traced.
pub fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    match (opts.workload.as_str(), opts.trace) {
        ("serve_cold", false) => serve::run(opts, false),
        ("serve_cold", true) => serve::run_traced(opts, false),
        ("serve_warm", false) => serve::run(opts, true),
        ("serve_warm", true) => serve::run_traced(opts, true),
        ("discover_wide", false) => discover::run(opts),
        ("discover_wide", true) => discover::run_traced(opts),
        ("lake_refresh", false) => refresh::run(opts),
        ("lake_refresh", true) => refresh::run_traced(opts),
        (other, _) => Err(format!(
            "unknown workload '{other}' (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Runs, prints and records one workload. Returns whether it was correct.
fn run_and_report(opts: &Opts, label: &str) -> Result<bool, String> {
    let host = Host::observe(opts.smoke);
    let outcome = run_workload(opts)?;
    report::print_human(opts, &host, &outcome);
    report::write_record(&report::record_path(opts, label), opts, &host, &outcome)
        .map_err(|e| e.to_string())?;
    // The contract's result line; in a single run it is the last line.
    println!("{}", report::result_line(&outcome, opts.trace));
    Ok(outcome.correct())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("flag '{flag}' needs a value"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("flag '{flag}': invalid number '{text}'"))
        };
        match flag {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = number(value()?)? as u64,
            "--seconds" => parsed.seconds = Some(number(value()?)?),
            "--repeat" => parsed.repeat = (number(value()?)? as usize).max(1),
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            "--smoke" => parsed.smoke = true,
            // `--trace` alone switches tracing on; the driver's form carries
            // an explicit 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    parsed.trace = false;
                    i += 1;
                }
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 1;
    }
    Ok(parsed)
}

/// Entry point; returns the process exit code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    if args.first().is_some_and(|a| a == "compare") {
        return match crate::compare::main(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }
    let parsed = match parse(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return 2;
        }
    };
    let seconds = parsed.seconds.unwrap_or(if parsed.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let opts_for = |workload: &str, trace: bool| Opts {
        workload: workload.to_owned(),
        seed: parsed.seed,
        seconds,
        trace,
        smoke: parsed.smoke,
        out_dir: parsed.out_dir.clone(),
    };

    // One workload: the driver's form. Exit 0 whenever a result was printed;
    // the result's own `correct` flag says whether it can be trusted.
    if let Some(workload) = &parsed.workload {
        return match run_and_report(&opts_for(workload, parsed.trace), "") {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("benchmark: {e}");
                1
            }
        };
    }

    // The suite: every workload, one set-up sequence each, in order.
    let mut all_correct = true;
    for rep in 0..parsed.repeat {
        let label = if parsed.repeat > 1 {
            format!("run{rep:02}-")
        } else {
            String::new()
        };
        for workload in WORKLOADS {
            let kinds: &[bool] = if parsed.trace {
                &[false, true]
            } else {
                &[false]
            };
            for &trace in kinds {
                match run_and_report(&opts_for(workload, trace), &label) {
                    Ok(correct) => all_correct &= correct,
                    Err(e) => {
                        eprintln!("benchmark: {workload}: {e}");
                        return 1;
                    }
                }
            }
        }
    }
    println!("suite correct: {all_correct}");
    i32::from(!all_correct)
}
