//! `discover_wide`: the paper's own query at lake width, in process.
//!
//! One caller runs `RelationshipQuery::execute_cached_stats` — the parallel
//! path, two `joinmi_par` workers — against a `RepositorySnapshot` opened
//! from file over `wide_lake`: a few strong full-overlap columns, a middle
//! band that must be scored, and a long weak tail the cheap bounds reject.
//! Interval policy at 0.95, `top_k` 10, distinct pruning on, a fresh query
//! table per op, no cache. Index probe, join-size bound, early-termination
//! screen, posterior and the `joinmi_par` fan-out do the work and `serve`
//! does none, so this workload bypasses every daemon optimisation and is the
//! only one on which two-core scaling shows.

use std::path::PathBuf;
use std::time::Instant;

use joinmi_discovery::{
    QueryStats, RankedCandidate, RelationshipQuery, RepositorySnapshot, TableRepository,
};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_serve::json::Json;

use crate::gen::{cell_bytes, WideSpec, WIDE_FULL_COLUMNS};
use crate::harness::{run_phase, OpSample, Phase};
use crate::host::CORES;
use crate::metrics::{ratio, Values};
use crate::procfs::Pid;
use crate::replay::{fingerprint, staged_rank, Fingerprint, ReplayCtx, Stages};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    finish_trace, lake_config, ns_to_ms, recall, repeat_set_up, set_loadgen_metrics,
    set_screen_metrics, set_stage_metrics, timed_s, EndToEnd, Opts, Outcome, Sizes, CHECK_EVERY,
    REPLAY_EVERY, TRACED_OPS_FROM, TRACE_SPLIT, WARMUP_OPS_FROM,
};

/// Credible level of the interval policy.
const CONFIDENCE: f64 = 0.95;
/// Queries the set-up runs and discards.
const WARMUP_OPS: u64 = 3;
/// Ops `recall_at_10` is averaged over.
const RECALL_OPS: usize = 150;
/// Candidates an op must score for the workload to count as wide.
const MIN_SCORED: f64 = 200.0;

/// The lake: in memory (the reference the answer check uses) and on disk
/// (what the ops query).
struct Lake {
    spec: WideSpec,
    repo: TableRepository,
    snapshot: RepositorySnapshot,
    path: PathBuf,
    input_bytes: u64,
    stored_bytes: u64,
    rows: u64,
    add_tables_s: f64,
    save_s: f64,
    open_s: f64,
}

fn query_of(spec: &WideSpec, seed: u64, op: u64) -> RelationshipQuery {
    RelationshipQuery::new(spec.query_table(seed, op), "key", "target").with_confidence(CONFIDENCE)
}

fn execute(
    query: &RelationshipQuery,
    snapshot: &RepositorySnapshot,
    threads: usize,
) -> Result<(Vec<RankedCandidate>, QueryStats), String> {
    joinmi_par::with_threads(threads, || query.execute_cached_stats(snapshot, None))
        .map_err(|e| e.to_string())
}

/// Set-up as `setup_s` counts it: generate, ingest, save, open, warm up.
fn set_up(opts: &Opts, sizes: &Sizes) -> Result<Lake, String> {
    let spec = sizes.wide;
    let tables = spec.tables(opts.seed);
    let input_bytes = tables.iter().map(cell_bytes).sum();
    let rows = tables.iter().map(|t| t.num_rows() as u64).sum();
    let mut repo = TableRepository::new(lake_config(WIDE_FULL_COLUMNS));
    let (added, add_tables_s) = timed_s(|| joinmi_par::with_threads(1, || repo.add_tables(tables)));
    added.map_err(|e| e.to_string())?;
    let path = opts
        .out_dir
        .join(format!("discover_wide-seed{}.jmi", opts.seed));
    let (saved, save_s) = timed_s(|| repo.save(&path));
    saved.map_err(|e| e.to_string())?;
    let stored_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let (snapshot, open_s) = timed_s(|| TableRepository::load_mmap_like(&path));
    let snapshot = snapshot.map_err(|e| e.to_string())?;
    for i in 0..WARMUP_OPS {
        execute(
            &query_of(&spec, opts.seed, WARMUP_OPS_FROM + i),
            &snapshot,
            CORES,
        )?;
    }
    Ok(Lake {
        spec,
        repo,
        snapshot,
        path,
        input_bytes,
        stored_bytes,
        rows,
        add_tables_s,
        save_s,
        open_s,
    })
}

/// What the loop keeps of one op for the checks after the phase.
struct Kept {
    op: u64,
    recall: f64,
    fingerprint: Fingerprint,
}

/// One caller in a closed loop; every op fans out over [`CORES`] workers.
fn drive(
    lake: &Lake,
    seed: u64,
    first_op: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Phase, Vec<Kept>) {
    let planted = lake.spec.planted();
    let mut kept = Vec::new();
    let mut client = |op: u64| {
        let query = query_of(&lake.spec, seed, op);
        let start = Instant::now();
        let ran = tracer.span("loadgen.op", op, None, |_, _| {
            execute(&query, &lake.snapshot, CORES)
        });
        let end = Instant::now();
        let ok = ran.is_ok();
        if let Ok((results, _)) = ran {
            kept.push(Kept {
                op,
                recall: recall(
                    results
                        .iter()
                        .map(|r| (r.table_name.as_str(), r.feature_column.as_str())),
                    &planted,
                ),
                fingerprint: fingerprint(&results),
            });
        }
        OpSample { op, start, end, ok }
    };
    let phase = run_phase(&mut [&mut client], first_op, seconds, Pid::Own);
    (phase, kept)
}

/// The end-to-end run.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let (lake, setup_times) = repeat_set_up(&sizes, || set_up(opts, &sizes))?;

    let mut tracer = Tracer::new(Instant::now(), false);
    let (phase, kept) = drive(&lake, opts.seed, 0, opts.seconds, &mut tracer);
    let peak_rss_mb = Pid::Own.peak_rss_mb();

    // Answer check: the file's ranking must equal the in-memory
    // repository's, sequential path, bit for bit.
    let mut problems = Vec::new();
    let mut ws = EstimatorWorkspace::new();
    let (mut checked, mut wrong) = (0, 0);
    for k in kept.iter().filter(|k| k.op % CHECK_EVERY == 0) {
        let expected = query_of(&lake.spec, opts.seed, k.op)
            .execute_in(&lake.repo, &mut ws)
            .map_err(|e| e.to_string())?;
        checked += 1;
        if fingerprint(&expected) != k.fingerprint {
            wrong += 1;
            if problems.len() < 5 {
                problems.push(format!(
                    "op {}: snapshot ranking differs from the in-memory repository's",
                    k.op
                ));
            }
        }
    }

    let recalls: Vec<f64> = kept.iter().map(|k| k.recall).collect();
    let measured = EndToEnd {
        phase: &phase,
        peak_rss_mb,
        recalls: &recalls,
        recall_ops: RECALL_OPS,
        stored_ratio: ratio(lake.stored_bytes as f64, lake.input_bytes as f64),
        setup_times: &setup_times,
    };
    let values = measured.values();
    let mut details = measured.details();
    details.extend([
        ("answers_checked", Json::Int(checked)),
        ("candidates", Json::Int(lake.spec.candidates() as i64)),
        ("par_workers", Json::Int(CORES as i64)),
        ("input_bytes", Json::Int(lake.input_bytes as i64)),
        ("stored_bytes", Json::Int(lake.stored_bytes as i64)),
    ]);
    Ok(Outcome {
        attempted: phase.samples.len() as u64,
        failed: phase.failed() + wrong,
        problems,
        values,
        details,
    })
}

/// Sockets this process holds open (`/proc/self/fd` links of the form
/// `socket:[inode]`); `None` where `/proc` is not readable.
fn open_sockets() -> Option<usize> {
    let fds = std::fs::read_dir("/proc/self/fd").ok()?;
    Some(
        fds.flatten()
            .filter_map(|fd| std::fs::read_link(fd.path()).ok())
            .filter(|target| target.to_string_lossy().starts_with("socket:"))
            .count(),
    )
}

/// The traced run.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let origin = Instant::now();
    let mut values = Values::per_layer_zeroed();
    let mut problems = Vec::new();

    let sockets_before = open_sockets();
    let lake = set_up(opts, &sizes)?;
    values.set(
        "discovery.repository.add_tables_ms_per_krow",
        ratio(lake.add_tables_s * 1e3, lake.rows as f64 / 1e3),
    );
    values.set("discovery.persist.save_ms", lake.save_s * 1e3);

    let mut off = Tracer::new(origin, false);
    let (untraced, mut kept) = drive(&lake, opts.seed, 0, opts.seconds * TRACE_SPLIT[0], &mut off);
    let mut tracer = Tracer::new(origin, true);
    let (traced, traced_kept) = drive(
        &lake,
        opts.seed,
        TRACED_OPS_FROM,
        opts.seconds * TRACE_SPLIT[1],
        &mut tracer,
    );
    // Sockets this process opened since it started (it may have inherited
    // some, such as a socket for standard output).
    let sockets = open_sockets()
        .zip(sockets_before)
        .map(|(now, before)| now.saturating_sub(before));
    let first_traced = kept.len();
    kept.extend(traced_kept);
    set_loadgen_metrics(&mut values, &untraced, &traced);

    // Replays: the black box on one worker (the sequential-equivalent cost
    // the stages add up to), on two (the fan-out's gain), then staged.
    let mut ws = EstimatorWorkspace::new();
    let mut stages = Stages::default();
    let mut engine_stats = QueryStats::default();
    let (mut engine_ns, mut engine_t2_ns) = (0u64, 0u64);
    let replay_deadline =
        Instant::now() + std::time::Duration::from_secs_f64(opts.seconds * TRACE_SPLIT[2]);
    for k in kept[first_traced..]
        .iter()
        .filter(|k| k.op % REPLAY_EVERY == 0)
    {
        if stages.ops >= 5 && Instant::now() >= replay_deadline {
            break;
        }
        let op = k.op;
        let query = query_of(&lake.spec, opts.seed, op);
        tracer.span("replay", op, None, |tracer, root| -> Result<(), String> {
            let (one, ns) = tracer.timed("discovery.query.execute", op, root, || {
                execute(&query, &lake.snapshot, 1)
            });
            let (one, stats_one) = one?;
            engine_ns += ns;
            engine_stats.merge(stats_one);
            let (two, ns) = tracer.timed("discovery.query.execute_t2", op, root, || {
                execute(&query, &lake.snapshot, CORES)
            });
            let (two, _) = two?;
            engine_t2_ns += ns;
            // Pinned to one worker like the black box above, so that neither
            // pays for asking the host how many threads it has.
            let staged = tracer.span("replay.staged", op, root, |tracer, parent| {
                joinmi_par::with_threads(1, || {
                    staged_rank(
                        &query,
                        &lake.snapshot,
                        None,
                        &mut ReplayCtx {
                            ws: &mut ws,
                            tracer,
                            op,
                            parent,
                            totals: &mut stages,
                        },
                    )
                })
            })?;
            stages.ops += 1;
            let black_box = fingerprint(&one);
            if black_box != fingerprint(&staged) {
                problems.push(format!("op {op}: staged replay differs from the black box"));
            }
            if black_box != fingerprint(&two) || black_box != k.fingerprint {
                problems.push(format!("op {op}: ranking differs across worker counts"));
            }
            Ok(())
        })?;
    }

    values.set(
        "discovery.query.execute_ms",
        ns_to_ms(engine_ns) / stages.ops.max(1) as f64,
    );
    set_stage_metrics(&mut values, &stages, engine_ns);
    set_screen_metrics(&mut values, &engine_stats, stages.hits, stages.ops);
    let screened_share = values.get("discovery.query.screened_share");
    let scored_per_op = values.get("discovery.query.scored_per_op");
    values.set(
        "par.execute_speedup_t2",
        ratio(engine_ns as f64, engine_t2_ns as f64),
    );

    // Ingest on two workers against the set-up's one.
    let mut repo = TableRepository::new(lake_config(WIDE_FULL_COLUMNS));
    let tables = lake.spec.tables(opts.seed);
    let (added, two_s) = timed_s(|| joinmi_par::with_threads(CORES, || repo.add_tables(tables)));
    added.map_err(|e| e.to_string())?;
    drop(repo);
    values.set("par.add_tables_speedup_t2", ratio(lake.add_tables_s, two_s));

    // Open, eager load, and the first answer of a fresh snapshot.
    let mut opens = vec![lake.open_s * 1e3];
    let mut first_answers = Vec::new();
    let mut decoded = 0;
    for round in 0..2u64 {
        let (fresh, s) = timed_s(|| TableRepository::load_mmap_like(&lake.path));
        let fresh = fresh.map_err(|e| e.to_string())?;
        opens.push(s * 1e3);
        let query = query_of(&lake.spec, opts.seed, round);
        let (answer, s) = timed_s(|| query.execute_in(&fresh, &mut ws));
        answer.map_err(|e| e.to_string())?;
        first_answers.push(s * 1e3);
        decoded = fresh.decoded_candidates();
    }
    let (loaded, load_s) = timed_s(|| TableRepository::load(&lake.path));
    loaded.map_err(|e| e.to_string())?;
    values.set("discovery.persist.open_ms", stats::median(&opens));
    values.set("discovery.persist.load_ms", load_s * 1e3);
    values.set(
        "discovery.persist.first_answer_ms",
        stats::median(&first_answers),
    );
    values.set(
        "discovery.persist.decoded_candidates_per_op",
        decoded as f64,
    );

    // Workload validity.
    if !opts.smoke && screened_share < 0.5 {
        problems.push(format!(
            "discover_wide: the cheap bounds screened {screened_share:.2} of the hits, below 0.50"
        ));
    }
    if !opts.smoke && scored_per_op < MIN_SCORED {
        problems.push(format!(
            "discover_wide: {scored_per_op:.0} candidates scored per op, below {MIN_SCORED}"
        ));
    }
    if sockets.is_some_and(|n| n > 0) {
        problems.push(format!("discover_wide opened {sockets:?} sockets"));
    }

    let mut details = finish_trace(opts, &tracer, &untraced, &traced, stages.ops)?;
    details.push((
        "sockets_opened",
        Json::Int(sockets.map_or(-1, |n| n as i64)),
    ));
    Ok(Outcome {
        attempted: (untraced.samples.len() + traced.samples.len()) as u64,
        failed: untraced.failed() + traced.failed(),
        problems,
        values,
        details,
    })
}
