//! `lake_refresh`: the write side of the same `sketch`, `persist` and `store`
//! layers the read path uses.
//!
//! One op is one refresh cycle on a repository file: `append_rows` (1 % new
//! rows to a rotating quarter of the tables) → `append_to` (durable) → on
//! every 25th cycle `compact(Preserve)` → `load_mmap_like` → the first
//! `execute_in` answer on the fresh snapshot. One caller, one `joinmi_par`
//! worker. Incremental KMV update, section encode, fsync, log fold and the
//! full-file verify-and-open do the work; a read-path gain bought with a
//! write-path or space cost (or the reverse) shows here and nowhere else.

use std::path::PathBuf;
use std::time::Instant;

use joinmi_discovery::{
    CompactMode, QueryStats, RankedCandidate, RelationshipQuery, RepositorySnapshot,
    TableRepository,
};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_serve::json::Json;
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_store::fault::{arm, FaultKind, FaultPlan};
use joinmi_table::Table;

use crate::gen::{cell_bytes, query_table, LakePlan};
use crate::harness::{run_phase, OpSample, Phase};
use crate::host::CORES;
use crate::metrics::{ratio, Values};
use crate::procfs::Pid;
use crate::replay::{fingerprint, staged_rank, ReplayCtx, Stages};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{
    finish_trace, ns_to_ms, recall, refresh_config, repeat_set_up, set_loadgen_metrics,
    set_screen_metrics, set_stage_metrics, timed_s, EndToEnd, Opts, Outcome, Sizes,
    REFRESH_TRACED_SHARE, REPLAY_EVERY, TRACE_SPLIT,
};

/// Cycles the set-up runs and discards.
const WARMUP_CYCLES: u64 = 2;
/// Cycles `recall_at_10` is averaged over.
const RECALL_OPS: usize = 150;
/// Compactions a comparable run must reach: background work has to complete
/// several cycles before bytes per input byte mean anything.
const MIN_COMPACTIONS: u64 = 8;
/// The same for a traced run, whose two phases cover 90 % of `--seconds` and
/// carry the inline replays.
const MIN_COMPACTIONS_TRACED: u64 = 6;
/// Share of the op the write-side layers must account for.
const MIN_LAYER_SHARE: f64 = 0.6;
/// Queries the final re-ingest check compares.
const FINAL_CHECK_QUERIES: u64 = 3;

/// File size and user bytes ingested after one cycle.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    file_bytes: u64,
    input_bytes: u64,
    compacted: bool,
}

/// Exact counts of the traced phase, from the store's fault seam armed in
/// observe mode around each cycle.
#[derive(Debug, Clone, Copy, Default)]
struct StoreCounts {
    writes: u64,
    fsyncs: u64,
    reads: u64,
    bytes_written: u64,
    bytes_appended: u64,
}

/// The repository being refreshed, in memory and on disk.
struct Refresher {
    plan: LakePlan,
    sizes: Sizes,
    repo: TableRepository,
    path: PathBuf,
    /// Next row of each table's stream.
    cursor: Vec<usize>,
    /// Cycles completed, warm-up included; decides when to compact.
    cycle: u64,
    input_bytes: u64,
    compactions: u64,
    ws: EstimatorWorkspace,
    footprints: Vec<Footprint>,
    recalls: Vec<f64>,
    add_tables_s: f64,
    save_s: f64,
    base_rows: u64,
}

/// What a cycle leaves behind for the code around it.
struct Cycle {
    ok: bool,
    start: Instant,
    end: Instant,
    snapshot: Option<RepositorySnapshot>,
    answer: Vec<RankedCandidate>,
    query: RelationshipQuery,
    appended_bytes: u64,
    appended_rows: u64,
    written_bytes: u64,
}

impl Refresher {
    /// Set-up as `setup_s` counts it: generate, ingest, save, warm up.
    fn set_up(opts: &Opts, sizes: &Sizes) -> Result<Self, String> {
        let plan = sizes.refresh.plan(opts.seed);
        let tables = plan.base_tables();
        let input_bytes = tables.iter().map(cell_bytes).sum();
        let base_rows = tables.iter().map(|t| t.num_rows() as u64).sum();
        let mut repo = TableRepository::new(refresh_config(sizes));
        let (added, add_tables_s) =
            timed_s(|| joinmi_par::with_threads(1, || repo.add_tables(tables)));
        added.map_err(|e| e.to_string())?;
        let path = opts
            .out_dir
            .join(format!("lake_refresh-seed{}.jmi", opts.seed));
        let (saved, save_s) = timed_s(|| repo.save(&path));
        saved.map_err(|e| e.to_string())?;
        let mut refresher = Self {
            cursor: vec![sizes.refresh.rows; sizes.refresh.tables],
            plan,
            sizes: *sizes,
            repo,
            path,
            cycle: 0,
            input_bytes,
            compactions: 0,
            ws: EstimatorWorkspace::new(),
            footprints: Vec::new(),
            recalls: Vec::new(),
            add_tables_s,
            save_s,
            base_rows,
        };
        let mut off = Tracer::new(Instant::now(), false);
        for _ in 0..WARMUP_CYCLES {
            if !refresher.run_cycle(&mut off).ok {
                return Err("warm-up refresh cycle failed".to_owned());
            }
        }
        // Warm-up cycles are not part of the measured record.
        refresher.footprints.clear();
        refresher.recalls.clear();
        Ok(refresher)
    }

    fn query_config(&self) -> SketchConfig {
        SketchConfig::new(self.sizes.refresh_sketch, 0)
    }

    fn query_of(&self, op: u64) -> (usize, RelationshipQuery) {
        let (topic, rows) = self.plan.query_rows(op);
        let query = RelationshipQuery::new(query_table(&rows), "key", "target")
            .with_sketch(SketchKind::Tupsk, self.query_config());
        (topic, query)
    }

    /// The chunks of the next cycle: 1 % new rows for a rotating subset of
    /// the tables, continuing each table's row stream.
    fn next_chunks(&mut self) -> Vec<Table> {
        let spec = self.sizes.refresh;
        let per_cycle = self.sizes.refresh_tables_per_cycle;
        let chunk_rows = (spec.rows / 100).max(1);
        (0..per_cycle)
            .map(|j| {
                let t = (self.cycle as usize * per_cycle + j) % spec.tables;
                let from = self.cursor[t];
                self.cursor[t] += chunk_rows;
                self.plan.table_rows(t, from..from + chunk_rows)
            })
            .collect()
    }

    /// One refresh cycle. Generating the chunks and the query is the
    /// caller's cost and stays outside the timed interval.
    fn run_cycle(&mut self, tracer: &mut Tracer) -> Cycle {
        let op = self.cycle;
        let chunks = self.next_chunks();
        let appended_bytes: u64 = chunks.iter().map(cell_bytes).sum();
        let appended_rows = chunks.iter().map(|c| c.num_rows() as u64).sum();
        let (topic, query) = self.query_of(op);
        let compact = (op + 1) % self.sizes.compact_every == 0;
        let len_before = file_len(&self.path);

        let start = Instant::now();
        let mut written_bytes = 0;
        let ran = tracer.span("loadgen.op", op, None, |tracer, root| {
            joinmi_par::with_threads(1, || -> Result<_, String> {
                tracer
                    .timed("sketch.append", op, root, || {
                        chunks
                            .iter()
                            .try_for_each(|c| self.repo.append_rows(c).map(drop))
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                tracer
                    .timed("discovery.persist.append_to", op, root, || {
                        self.repo.append_to(&self.path)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                written_bytes += file_len(&self.path).saturating_sub(len_before);
                if compact {
                    let report = tracer
                        .timed("discovery.persist.compact", op, root, || {
                            TableRepository::compact(&self.path, CompactMode::Preserve)
                        })
                        .0
                        .map_err(|e| e.to_string())?;
                    written_bytes += report.bytes_after;
                }
                let snapshot = tracer
                    .timed("discovery.persist.open", op, root, || {
                        TableRepository::load_mmap_like(&self.path)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                let answer = tracer
                    .timed("discovery.persist.first_answer", op, root, || {
                        query.execute_in(&snapshot, &mut self.ws)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                Ok((snapshot, answer))
            })
        });
        let end = Instant::now();

        self.cycle += 1;
        self.input_bytes += appended_bytes;
        self.compactions += u64::from(compact && ran.is_ok());
        self.footprints.push(Footprint {
            file_bytes: file_len(&self.path),
            input_bytes: self.input_bytes,
            compacted: compact,
        });
        let (ok, snapshot, answer) = match ran {
            Ok((snapshot, answer)) => (true, Some(snapshot), answer),
            Err(_) => (false, None, Vec::new()),
        };
        if ok {
            self.recalls.push(recall(
                answer
                    .iter()
                    .map(|r| (r.table_name.as_str(), r.feature_column.as_str())),
                &self.plan.planted[topic],
            ));
        }
        Cycle {
            ok,
            start,
            end,
            snapshot,
            answer,
            query,
            appended_bytes,
            appended_rows,
            written_bytes,
        }
    }

    /// After the last cycle: the file must rank exactly as a from-scratch
    /// ingest of every row generated so far.
    fn check_against_reingest(&mut self, problems: &mut Vec<String>) -> Result<u64, String> {
        let tables: Vec<Table> = (0..self.sizes.refresh.tables)
            .map(|t| self.plan.table_rows(t, 0..self.cursor[t]))
            .collect();
        let mut reference = TableRepository::new(refresh_config(&self.sizes));
        joinmi_par::with_threads(CORES, || reference.add_tables(tables))
            .map_err(|e| e.to_string())?;
        let snapshot = TableRepository::load_mmap_like(&self.path).map_err(|e| e.to_string())?;
        let mut wrong = 0;
        for i in 0..FINAL_CHECK_QUERIES {
            let (_, query) = self.query_of((1 << 40) + i);
            let from_file = query
                .execute_in(&snapshot, &mut self.ws)
                .map_err(|e| e.to_string())?;
            let from_scratch = query
                .execute_in(&reference, &mut self.ws)
                .map_err(|e| e.to_string())?;
            if fingerprint(&from_file) != fingerprint(&from_scratch) {
                wrong += 1;
                problems.push(format!(
                    "after {} cycles the file's ranking differs from a from-scratch re-ingest",
                    self.cycle
                ));
            }
        }
        Ok(wrong)
    }

    /// Stored bytes per input byte at a fixed point of the cycle sequence —
    /// right after the fourth compaction — so the value does not depend on
    /// how many cycles the phase completed. A shorter run reads its last
    /// compaction, or failing that its last cycle.
    fn stored_ratio(&self) -> f64 {
        let compacted: Vec<&Footprint> = self.footprints.iter().filter(|f| f.compacted).collect();
        let at = compacted
            .get(3)
            .or(compacted.last())
            .copied()
            .or(self.footprints.last());
        at.map_or(0.0, |f| ratio(f.file_bytes as f64, f.input_bytes as f64))
    }
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

impl Cycle {
    fn sample(&self, op: u64) -> OpSample {
        OpSample {
            op,
            start: self.start,
            end: self.end,
            ok: self.ok,
        }
    }
}

/// One caller in a closed loop, cycle after cycle.
fn drive(refresher: &mut Refresher, seconds: f64, tracer: &mut Tracer) -> Phase {
    let mut client = |_: u64| {
        let op = refresher.cycle;
        refresher.run_cycle(tracer).sample(op)
    };
    run_phase(&mut [&mut client], 0, seconds, Pid::Own)
}

/// The end-to-end run.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let (mut refresher, setup_times) = repeat_set_up(&sizes, || Refresher::set_up(opts, &sizes))?;

    let mut tracer = Tracer::new(Instant::now(), false);
    let phase = drive(&mut refresher, opts.seconds, &mut tracer);
    let peak_rss_mb = Pid::Own.peak_rss_mb();

    let mut problems = Vec::new();
    let wrong = refresher.check_against_reingest(&mut problems)?;
    if !opts.smoke && refresher.compactions < MIN_COMPACTIONS {
        problems.push(format!(
            "lake_refresh: {} compactions, below {MIN_COMPACTIONS}",
            refresher.compactions
        ));
    }

    let measured = EndToEnd {
        phase: &phase,
        peak_rss_mb,
        recalls: &refresher.recalls,
        recall_ops: RECALL_OPS,
        stored_ratio: refresher.stored_ratio(),
        setup_times: &setup_times,
    };
    let values = measured.values();
    let mut details = measured.details();
    details.extend([
        ("cycles", Json::Int(phase.samples.len() as i64)),
        ("compactions", Json::Int(refresher.compactions as i64)),
        (
            "reingest_queries_checked",
            Json::Int(FINAL_CHECK_QUERIES as i64),
        ),
        ("input_bytes", Json::Int(refresher.input_bytes as i64)),
        ("file_bytes", Json::Int(file_len(&refresher.path) as i64)),
    ]);
    Ok(Outcome {
        attempted: phase.samples.len() as u64,
        failed: phase.failed() + wrong,
        problems,
        values,
        details,
    })
}

/// The traced run. The staged replays run inline — after every
/// [`REPLAY_EVERY`]-th cycle, on the snapshot that cycle opened — because the
/// file keeps changing; the two phases therefore share all of `--seconds`.
pub fn run_traced(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let origin = Instant::now();
    let mut values = Values::per_layer_zeroed();
    let mut problems = Vec::new();

    let mut refresher = Refresher::set_up(opts, &sizes)?;
    values.set(
        "discovery.repository.add_tables_ms_per_krow",
        ratio(
            refresher.add_tables_s * 1e3,
            refresher.base_rows as f64 / 1e3,
        ),
    );
    values.set("discovery.persist.save_ms", refresher.save_s * 1e3);

    let mut off = Tracer::new(origin, false);
    let untraced = drive(&mut refresher, opts.seconds * TRACE_SPLIT[0], &mut off);

    let mut tracer = Tracer::new(origin, true);
    let mut stages = Stages::default();
    let mut engine_stats = QueryStats::default();
    let mut counts = StoreCounts::default();
    let mut appended_rows = 0u64;
    let (mut engine_ns, mut engine_t2_ns, mut load_ns, mut loads) = (0u64, 0u64, 0u64, 0u64);
    let mut decoded = 0usize;
    let mut replay_problems = Vec::new();
    let traced_seconds = opts.seconds * REFRESH_TRACED_SHARE;
    let traced = {
        let mut client = |_: u64| {
            let op = refresher.cycle;
            // The store's fault seam, armed with an empty plan, counts every
            // write, fsync and whole-file read of the cycle. It is
            // thread-local, so it is armed here, on the caller's thread, and
            // only in the traced run.
            let guard = arm(FaultPlan::observe());
            let cycle = refresher.run_cycle(&mut tracer);
            let seen = guard.stats();
            drop(guard);
            let sample = cycle.sample(op);
            counts.writes += seen.count(FaultKind::Write);
            counts.fsyncs += seen.count(FaultKind::Fsync);
            counts.reads += seen.count(FaultKind::Read);
            counts.bytes_written += cycle.written_bytes;
            counts.bytes_appended += cycle.appended_bytes;
            appended_rows += cycle.appended_rows;
            if let (true, Some(snapshot)) = (op % REPLAY_EVERY == 0, &cycle.snapshot) {
                decoded += snapshot.decoded_candidates();
                let outcome = tracer.span("replay", op, None, |tracer, root| {
                    let (one, ns) = tracer.timed("discovery.query.execute", op, root, || {
                        joinmi_par::with_threads(1, || {
                            cycle.query.execute_cached_stats(snapshot, None)
                        })
                    });
                    let (one, stats) = one.map_err(|e| e.to_string())?;
                    engine_stats.merge(stats);
                    engine_ns += ns;
                    let (two, ns) = tracer.timed("discovery.query.execute_t2", op, root, || {
                        joinmi_par::with_threads(CORES, || {
                            cycle.query.execute_cached_stats(snapshot, None)
                        })
                    });
                    two.map_err(|e| e.to_string())?;
                    engine_t2_ns += ns;
                    // Pinned to one worker like the op itself.
                    let staged = tracer.span("replay.staged", op, root, |tracer, parent| {
                        joinmi_par::with_threads(1, || {
                            staged_rank(
                                &cycle.query,
                                snapshot,
                                None,
                                &mut ReplayCtx {
                                    ws: &mut refresher.ws,
                                    tracer,
                                    op,
                                    parent,
                                    totals: &mut stages,
                                },
                            )
                        })
                    })?;
                    stages.ops += 1;
                    let (loaded, ns) = tracer.timed("discovery.persist.load", op, root, || {
                        TableRepository::load(&refresher.path)
                    });
                    loaded.map_err(|e| e.to_string())?;
                    load_ns += ns;
                    loads += 1;
                    let black_box = fingerprint(&one);
                    if black_box != fingerprint(&staged) || black_box != fingerprint(&cycle.answer)
                    {
                        return Err(format!(
                            "cycle {op}: staged replay, black box and first answer disagree"
                        ));
                    }
                    Ok::<(), String>(())
                });
                if let Err(e) = outcome {
                    replay_problems.push(e);
                }
            }
            sample
        };
        run_phase(&mut [&mut client], 0, traced_seconds, Pid::Own)
    };
    problems.extend(replay_problems);
    set_loadgen_metrics(&mut values, &untraced, &traced);

    // Per-layer times from the cycle spans.
    let spans = tracer.spans();
    let own = trace::self_times_ns(spans);
    let cycles = traced.samples.len().max(1) as f64;
    let median_of = |name: &str| stats::median(&trace::durations_ms(spans, name));
    values.set(
        "sketch.append_ms_per_krow",
        ratio(
            trace::durations_ms(spans, "sketch.append").iter().sum(),
            appended_rows as f64 / 1e3,
        ),
    );
    values.set(
        "discovery.persist.append_to_ms",
        median_of("discovery.persist.append_to"),
    );
    values.set(
        "discovery.persist.compact_ms",
        median_of("discovery.persist.compact"),
    );
    values.set(
        "discovery.persist.open_ms",
        median_of("discovery.persist.open"),
    );
    values.set(
        "discovery.persist.first_answer_ms",
        median_of("discovery.persist.first_answer"),
    );
    values.set(
        "discovery.persist.load_ms",
        ratio(ns_to_ms(load_ns), loads as f64),
    );
    values.set(
        "discovery.persist.decoded_candidates_per_op",
        ratio(decoded as f64, stages.ops as f64),
    );

    let n = stages.ops.max(1) as f64;
    values.set("discovery.query.execute_ms", ns_to_ms(engine_ns) / n);
    set_stage_metrics(&mut values, &stages, engine_ns);
    set_screen_metrics(&mut values, &engine_stats, stages.hits, stages.ops);
    values.set(
        "par.execute_speedup_t2",
        ratio(engine_ns as f64, engine_t2_ns as f64),
    );

    // Ingest of the base tables on two workers against the set-up's one.
    let mut repo = TableRepository::new(refresh_config(&sizes));
    let tables = refresher.plan.base_tables();
    let (added, two_s) = timed_s(|| joinmi_par::with_threads(CORES, || repo.add_tables(tables)));
    added.map_err(|e| e.to_string())?;
    drop(repo);
    values.set(
        "par.add_tables_speedup_t2",
        ratio(refresher.add_tables_s, two_s),
    );

    // Store counts: exact, one caller.
    values.set(
        "store.write_calls_per_op",
        ratio(counts.writes as f64, cycles),
    );
    values.set("store.fsyncs_per_op", ratio(counts.fsyncs as f64, cycles));
    values.set(
        "store.read_calls_per_op",
        ratio(counts.reads as f64, cycles),
    );
    values.set(
        "store.bytes_written_per_appended_byte",
        ratio(counts.bytes_written as f64, counts.bytes_appended as f64),
    );
    values.set(
        "store.file_bytes_per_input_byte_peak",
        refresher
            .footprints
            .iter()
            .map(|f| ratio(f.file_bytes as f64, f.input_bytes as f64))
            .fold(0.0, f64::max),
    );

    // Workload validity.
    let op_ms: f64 = trace::durations_ms(spans, "loadgen.op").iter().sum();
    let op_self_ms = trace::total_ms(spans, &own, "loadgen.op");
    let layer_share = ratio(op_ms - op_self_ms, op_ms);
    if !opts.smoke && layer_share < MIN_LAYER_SHARE {
        problems.push(format!(
            "lake_refresh: persist + store + sketch.append are {layer_share:.2} of the op, \
             below {MIN_LAYER_SHARE}"
        ));
    }
    if !opts.smoke && refresher.compactions < MIN_COMPACTIONS_TRACED {
        problems.push(format!(
            "lake_refresh: {} compactions, below {MIN_COMPACTIONS_TRACED}",
            refresher.compactions
        ));
    }
    let wrong = refresher.check_against_reingest(&mut problems)?;

    let mut details = finish_trace(opts, &tracer, &untraced, &traced, stages.ops)?;
    details.extend([
        ("cycles", Json::Int(refresher.cycle as i64)),
        ("compactions", Json::Int(refresher.compactions as i64)),
        ("layer_share_of_op", Json::Float(layer_share)),
    ]);
    Ok(Outcome {
        attempted: (untraced.samples.len() + traced.samples.len()) as u64,
        failed: untraced.failed() + traced.failed() + wrong,
        problems,
        values,
        details,
    })
}
