//! Tests of the benchmark's own behaviour: generator determinism, the metric
//! catalogue against `BENCHMARK.json`, and a smoke run of all four workloads.

use std::path::{Path, PathBuf};

use joinmi_benchmark::cli::run_workload;
use joinmi_benchmark::daemon::SERVE_BIN_ENV;
use joinmi_benchmark::gen::{cell_bytes, request_body};
use joinmi_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use joinmi_benchmark::report::result_line;
use joinmi_benchmark::workloads::{lake_config, Opts, Sizes};
use joinmi_discovery::TableRepository;
use joinmi_serve::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Saves `tables` as one repository file and returns its bytes.
fn shard_bytes(tables: Vec<joinmi_table::Table>, path: &Path) -> Vec<u8> {
    let mut repo = TableRepository::new(lake_config(8));
    joinmi_par::with_threads(1, || repo.add_tables(tables)).unwrap();
    repo.save(path).unwrap();
    std::fs::read(path).unwrap()
}

#[test]
fn same_seed_same_bytes_different_seed_different_bytes() {
    let sizes = Sizes::smoke();
    let dir = scratch_dir("determinism");

    // Topic lake: tables, request bodies, shard file.
    let (a, b, other) = (sizes.open.plan(7), sizes.open.plan(7), sizes.open.plan(8));
    assert_eq!(a.base_tables(), b.base_tables());
    assert_ne!(a.base_tables(), other.base_tables());
    assert_eq!(a.planted, b.planted);
    let body =
        |plan: &joinmi_benchmark::gen::LakePlan, op| request_body(&plan.query_rows(op).1, 10, 20);
    assert_eq!(body(&a, 3), body(&b, 3));
    assert_ne!(body(&a, 3), body(&a, 4), "ops never repeat a query table");
    assert_ne!(body(&a, 3), body(&other, 3));
    let first = shard_bytes(a.base_tables(), &dir.join("a.jmi"));
    let second = shard_bytes(b.base_tables(), &dir.join("b.jmi"));
    assert!(
        first == second,
        "same seed must give byte-identical shard files"
    );
    assert!(first != shard_bytes(other.base_tables(), &dir.join("c.jmi")));

    // Any row range regenerates on its own: base + chunk == one longer base.
    let whole = a.table_rows(2, 0..sizes.open.rows + 10);
    let mut pieces = a.table_rows(2, 0..sizes.open.rows);
    pieces
        .extend_rows(&a.table_rows(2, sizes.open.rows..sizes.open.rows + 10))
        .unwrap();
    assert_eq!(whole, pieces);
    assert!(cell_bytes(&whole) > cell_bytes(&a.table_rows(2, 0..sizes.open.rows)));

    // Wide lake and its query tables.
    assert_eq!(sizes.wide.tables(7), sizes.wide.tables(7));
    assert_ne!(sizes.wide.tables(7), sizes.wide.tables(8));
    assert_eq!(sizes.wide.query_table(7, 5), sizes.wide.query_table(7, 5));
    assert_ne!(sizes.wide.query_table(7, 5), sizes.wide.query_table(7, 6));
    assert_eq!(
        sizes.wide.candidates(),
        {
            let mut repo = TableRepository::new(lake_config(8));
            repo.add_tables(sizes.wide.tables(7)).unwrap()
        },
        "every candidate of the wide lake is a key × value pair"
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| match entry.get(f).unwrap() {
                        Json::Str(s) => s.clone(),
                        other => other.encode(),
                    })
                    .collect()
            })
            .collect()
    };
    let declared: Vec<Vec<String>> = END_TO_END
        .iter()
        .map(|m| {
            vec![
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.to_owned(),
                Json::Float(m.bound).encode(),
            ]
        })
        .collect();
    assert_eq!(
        names("end_to_end", &["name", "unit", "better", "bound"]),
        declared
    );
    let declared: Vec<Vec<String>> = PER_LAYER
        .iter()
        .map(|m| vec![m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()])
        .collect();
    assert_eq!(names("per_layer", &["name", "unit", "better"]), declared);
    let workloads: Vec<String> = names("workloads", &["name"])
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(workloads, WORKLOADS);
    // One metric must be the set-up time, and it carries the largest bound.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
}

/// The daemon binary for the smoke run: the one `run.sh` exported, or one
/// built here from the root workspace.
fn ensure_daemon() {
    if std::env::var_os(SERVE_BIN_ENV).is_some() {
        return;
    }
    let root = repo_root();
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let status = std::process::Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "joinmi_serve",
            "--bin",
            "joinmi_serve",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building joinmi_serve failed");
    std::env::set_var(SERVE_BIN_ENV, target.join("release").join("joinmi_serve"));
}

/// All four workloads at toy sizes, end to end and traced: every op succeeds,
/// every answer check holds, every declared metric is printed.
#[test]
fn smoke_run_of_all_four_workloads() {
    ensure_daemon();
    let started = std::time::Instant::now();
    let out_dir = scratch_dir("smoke");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                workload: workload.to_owned(),
                seed: 5,
                seconds: 0.6,
                trace,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let outcome = run_workload(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                outcome.correct(),
                "{workload} (trace {trace}): failed {} problems {:?}",
                outcome.failed,
                outcome.problems
            );
            assert!(outcome.attempted > 0);

            let line = Json::parse(&result_line(&outcome, trace)).unwrap();
            let Some(Json::Obj(fields)) = Some(&line) else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics")
            };
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            assert_eq!(metrics.len(), expected.len());
            for name in expected {
                let value = metrics[name].get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{workload}: {name} must never be 0");
                }
            }
            if trace {
                let spans =
                    std::fs::read_to_string(out_dir.join(format!("trace-{workload}.jsonl")))
                        .unwrap();
                assert!(
                    spans.lines().count() > 0,
                    "{workload}: no span was recorded"
                );
                assert!(spans.lines().all(|l| Json::parse(l).is_ok()));
            }
        }
    }
    std::fs::remove_dir_all(out_dir).unwrap();
    assert!(
        started.elapsed().as_secs() < 20,
        "smoke suite took {:?}",
        started.elapsed()
    );
}
