//! The four workloads and what they share: sizes, the outcome of a run, and
//! the end-to-end arithmetic.

pub mod discover;
pub mod refresh;
pub mod serve;

use std::path::PathBuf;

use joinmi_discovery::{QueryStats, RepositoryConfig};
use joinmi_serve::json::Json;
use joinmi_sketch::SketchConfig;

use crate::gen::{LakeSpec, WideSpec, PLANTED};
use crate::harness::Phase;
use crate::metrics::{ratio, Values};
use crate::replay::Stages;
use crate::stats;
use crate::trace::{self, Tracer};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of `metrics::WORKLOADS`).
    pub workload: String,
    /// Seed of every generator.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Toy sizes: a functional check, never comparable.
    pub smoke: bool,
    /// Where generated files, traces and run records go.
    pub out_dir: PathBuf,
}

/// Input sizes. The full sizes are fitted to a 2-core host and a 20 s
/// measured phase: every timing rests on at least 200 samples (600 for the
/// daemon workloads) and a run, set-ups included, stays near 30 s.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `open_lake`, served by `serve_cold` and `serve_warm`.
    pub open: LakeSpec,
    /// Never-repeated warm-up queries of `serve_cold` (enough to fill the
    /// stage cache, so the measured phase sees steady-state eviction).
    pub cold_warmup_ops: u64,
    /// Session tables `serve_warm` keeps re-asking.
    pub sessions: usize,
    /// Rows of a session table. The stage cache charges a joined sketch
    /// `min(rows, sketch size) × 64` bytes, so sessions × candidates × that
    /// must stay under its 64 MiB for the working set to fit.
    pub session_rows: usize,
    /// `wide_lake`, queried by `discover_wide`.
    pub wide: WideSpec,
    /// The repository `lake_refresh` keeps appending to.
    pub refresh: LakeSpec,
    /// Sketch size of that repository (smaller than the default 1 024 so
    /// that well over 200 refresh cycles fit the phase).
    pub refresh_sketch: usize,
    /// Tables that receive rows in one refresh cycle.
    pub refresh_tables_per_cycle: usize,
    /// A cycle whose number is a multiple of this compacts the file.
    pub compact_every: u64,
    /// Times the set-up is repeated; `setup_s` is the median.
    pub setups: usize,
}

impl Sizes {
    /// The sizes every comparable run uses.
    #[must_use]
    pub fn full() -> Self {
        Self {
            open: LakeSpec {
                name: "open",
                tables: 48,
                value_columns: 8,
                rows: 5_000,
                key_universe: 8_000,
                topics: 8,
                key_skew: 0.8,
                // A longer table mostly measures the JSON parser: at this
                // commit its cost grows with the square of the body length.
                query_rows: 800,
            },
            cold_warmup_ops: 16,
            sessions: 4,
            session_rows: 500,
            wide: WideSpec {
                key_universe: 1_500,
                full_tables: 42,
                full_rows: 3_000,
                tail_tables: 450,
                query_rows: 2_500,
            },
            refresh: LakeSpec {
                name: "refresh",
                tables: 32,
                value_columns: 8,
                rows: 2_000,
                // Few keys per topic, so that sketches of 128 still join in
                // ~100 pairs and the ranking is not sampling noise.
                key_universe: 2_000,
                topics: 4,
                key_skew: 0.8,
                query_rows: 1_000,
            },
            refresh_sketch: 128,
            refresh_tables_per_cycle: 8,
            compact_every: 25,
            setups: 3,
        }
    }

    /// Toy sizes for `--smoke`: same code paths, seconds in total.
    #[must_use]
    pub fn smoke() -> Self {
        let full = Self::full();
        Self {
            open: LakeSpec {
                tables: 16,
                rows: 600,
                key_universe: 4_000,
                query_rows: 400,
                ..full.open
            },
            cold_warmup_ops: 2,
            sessions: 4,
            session_rows: 200,
            wide: WideSpec {
                key_universe: 600,
                full_tables: 6,
                full_rows: 800,
                tail_tables: 40,
                query_rows: 900,
            },
            refresh: LakeSpec {
                tables: 8,
                rows: 500,
                key_universe: 1_000,
                query_rows: 300,
                ..full.refresh
            },
            refresh_sketch: 128,
            refresh_tables_per_cycle: 2,
            compact_every: 5,
            setups: 1,
        }
    }

    /// The sizes `opts` asks for.
    #[must_use]
    pub fn of(opts: &Opts) -> Self {
        if opts.smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }
}

/// Repository configuration of the served and the wide lake: the library's
/// defaults (which are also the daemon's request defaults), with the pair
/// cap at the tables' value-column count so that every candidate is a
/// `key × value` pair.
#[must_use]
pub fn lake_config(value_columns: usize) -> RepositoryConfig {
    RepositoryConfig {
        max_pairs_per_table: value_columns,
        ..RepositoryConfig::default()
    }
}

/// Repository configuration of the refresh lake.
#[must_use]
pub fn refresh_config(sizes: &Sizes) -> RepositoryConfig {
    RepositoryConfig {
        sketch: SketchConfig::new(sizes.refresh_sketch, 0),
        ..lake_config(sizes.refresh.value_columns)
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted in the measured phase(s).
    pub attempted: u64,
    /// Ops that failed: a non-200 status, an error return, or a wrong answer.
    pub failed: u64,
    /// Checks that did not hold (answer checks, workload validity checks).
    pub problems: Vec<String>,
    /// The run's metrics: end-to-end, or per-layer for a traced run.
    pub values: Values,
    /// Op counts, flags and other facts recorded in the output file.
    pub details: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// No op failed and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Share of `planted` present among the first [`PLANTED`] `(table, column)`
/// names of a ranking.
#[must_use]
pub fn recall<'a>(
    top: impl Iterator<Item = (&'a str, &'a str)>,
    planted: &[(String, String)],
) -> f64 {
    let found = top
        .take(PLANTED)
        .filter(|(table, column)| planted.iter().any(|(t, c)| t == table && c == column))
        .count();
    ratio(found as f64, planted.len() as f64)
}

/// Mean of the first `limit` per-op recalls (all of them when fewer): a fixed
/// prefix of the op sequence, so the value is exact for a seed however many
/// ops the phase completed.
#[must_use]
pub fn recall_over_prefix(per_op: &[f64], limit: usize) -> f64 {
    let prefix = &per_op[..per_op.len().min(limit)];
    ratio(prefix.iter().sum(), prefix.len() as f64)
}

/// What an end-to-end run measured, beyond its phase.
pub struct EndToEnd<'a> {
    /// The measured phase.
    pub phase: &'a Phase,
    /// `VmHWM` of the measured process when the phase ended.
    pub peak_rss_mb: f64,
    /// Per-op recalls, in op order.
    pub recalls: &'a [f64],
    /// Leading ops `recall_at_10` is averaged over.
    pub recall_ops: usize,
    /// Stored bytes ÷ input bytes.
    pub stored_ratio: f64,
    /// Wall time of every set-up.
    pub setup_times: &'a [f64],
}

impl EndToEnd<'_> {
    /// The seven end-to-end metrics.
    #[must_use]
    pub fn values(&self) -> Values {
        let mut values = Values::default();
        values.set("op_p50_ms", self.phase.p50_ms());
        values.set("ops_per_s", stats::slice_ops_per_s(&self.phase.slices));
        values.set(
            "cpu_ms_per_op",
            stats::slice_cpu_ms_per_op(&self.phase.slices),
        );
        values.set("peak_rss_mb", self.peak_rss_mb);
        values.set(
            "recall_at_10",
            recall_over_prefix(self.recalls, self.recall_ops),
        );
        values.set("stored_bytes_per_input_byte", self.stored_ratio);
        values.set("setup_s", stats::median(self.setup_times));
        values
    }

    /// The facts every end-to-end record holds beside the metrics.
    #[must_use]
    pub fn details(&self) -> Vec<(&'static str, Json)> {
        let mut details = phase_details(self.phase);
        details.extend([
            (
                "recall_ops",
                Json::Int(self.recalls.len().min(self.recall_ops) as i64),
            ),
            (
                "setup_times_s",
                Json::Arr(self.setup_times.iter().map(|s| Json::Float(*s)).collect()),
            ),
        ]);
        details
    }
}

/// The phase facts every output file records beside the metrics.
#[must_use]
pub fn phase_details(phase: &Phase) -> Vec<(&'static str, Json)> {
    let rates = stats::slice_rates(&phase.slices);
    vec![
        ("samples", Json::Int(phase.samples.len() as i64)),
        ("op_tail_ms", Json::Float(phase.tail_ms())),
        (
            "op_tail_quantile",
            Json::Float(stats::tail_quantile(phase.samples.len())),
        ),
        (
            "slice_ops_per_s",
            Json::Arr(rates.into_iter().map(Json::Float).collect()),
        ),
    ]
}

/// Fills the load-generator diagnostics of a traced run.
pub fn set_loadgen_metrics(values: &mut Values, untraced: &Phase, traced: &Phase) {
    let rates = stats::slice_rates(&traced.slices);
    values.set("loadgen.op_p95_ms", traced.tail_ms());
    values.set(
        "loadgen.slice_ops_per_s_min",
        rates.iter().copied().fold(f64::INFINITY, f64::min),
    );
    values.set(
        "loadgen.slice_ops_per_s_max",
        rates.iter().copied().fold(0.0, f64::max),
    );
    values.set(
        "trace.overhead_pct",
        100.0 * ratio(traced.p50_ms() - untraced.p50_ms(), untraced.p50_ms()),
    );
}

/// Nanoseconds as milliseconds.
#[must_use]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The stage metrics every query workload derives from its staged replays.
/// `engine_ns` is the black-box engine time over the same ops.
pub fn set_stage_metrics(values: &mut Values, stages: &Stages, engine_ns: u64) {
    let n = stages.ops.max(1) as f64;
    let us_per = |ns: u64, calls: u64| ratio(ns as f64 / 1e3, calls as f64);
    values.set(
        "discovery.query.build_sketch_ms",
        ns_to_ms(stages.build_sketch_ns) / n,
    );
    values.set(
        "discovery.index.probe_ms",
        ns_to_ms(stages.probe_self_ns()) / n,
    );
    values.set("discovery.index.hits_per_op", stages.hits as f64 / n);
    values.set(
        "discovery.query.engine_self_ms",
        (ns_to_ms(engine_ns) - ns_to_ms(stages.staged_ns())) / n,
    );
    values.set("sketch.join_ms_per_op", ns_to_ms(stages.join_ns) / n);
    values.set("sketch.join_pairs_per_op", stages.join_pairs as f64 / n);
    values.set(
        "estimators.estimate_ms_per_op",
        ns_to_ms(stages.estimate_ns) / n,
    );
    values.set("estimators.calls_per_op", stages.estimate_calls as f64 / n);
    values.set(
        "estimators.mle_us_per_call",
        us_per(stages.mle_ns, stages.mle_calls),
    );
    values.set(
        "estimators.ksg_us_per_call",
        us_per(stages.ksg_ns, stages.ksg_calls),
    );
    values.set(
        "estimators.posterior_us_per_call",
        us_per(stages.posterior_ns, stages.posterior_calls),
    );
}

/// Fills the screening counts from the black box's own `QueryStats`, summed
/// over `ops` replayed ops that returned `hits` joinability hits.
pub fn set_screen_metrics(values: &mut Values, stats: &QueryStats, hits: u64, ops: u64) {
    let n = ops.max(1) as f64;
    values.set("discovery.query.scored_per_op", stats.scored as f64 / n);
    values.set(
        "discovery.query.early_stopped_per_op",
        stats.early_stopped as f64 / n,
    );
    values.set("discovery.query.pruned_per_op", stats.pruned as f64 / n);
    values.set(
        "discovery.query.screened_share",
        ratio((stats.early_stopped + stats.pruned) as f64, hits as f64),
    );
}

/// Writes the spans to `trace-<workload>.jsonl` and returns the facts every
/// traced record holds beside the metrics.
pub fn finish_trace(
    opts: &Opts,
    tracer: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    replayed_ops: u64,
) -> Result<Vec<(&'static str, Json)>, String> {
    let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
    tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
    let spans = tracer.spans();
    let own = trace::self_times_ns(spans);
    let mut details = phase_details(traced);
    details.extend([
        ("replayed_ops", Json::Int(replayed_ops as i64)),
        ("untraced_op_p50_ms", Json::Float(untraced.p50_ms())),
        ("traced_op_p50_ms", Json::Float(traced.p50_ms())),
        (
            "replay_self_ms",
            Json::Float(trace::total_ms(spans, &own, "replay")),
        ),
        ("spans", Json::Int(spans.len() as i64)),
        ("trace_file", Json::Str(path.to_string_lossy().into_owned())),
    ]);
    Ok(details)
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Sets up `sizes.setups` times, dropping each set-up before the next starts
/// (they share files and ports), and keeps the last. Returns it with every
/// set-up's wall time; `setup_s` is their median.
pub fn repeat_set_up<T>(
    sizes: &Sizes,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(sizes.setups);
    let mut kept = None;
    for _ in 0..sizes.setups.max(1) {
        drop(kept.take());
        let (made, s) = timed_s(&mut set_up);
        kept = Some(made?);
        times.push(s);
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

/// Share of a traced run's `--seconds` spent in the untraced reference
/// phase, the traced phase, and (at most) the staged replays.
pub const TRACE_SPLIT: [f64; 3] = [0.25, 0.4, 0.25];

/// Share of `--seconds` `lake_refresh`'s traced phase takes: its replays run
/// inline, so it needs no replay budget of its own.
pub const REFRESH_TRACED_SHARE: f64 = 0.65;

/// Op-index ranges of warm-up queries, session tables and a traced run's
/// traced phase: far above any index a measured phase reaches, so measured
/// ops never repeat them (all even, so client parity holds).
pub const WARMUP_OPS_FROM: u64 = 1 << 40;
/// See [`WARMUP_OPS_FROM`].
pub const SESSION_OPS_FROM: u64 = 1 << 41;
/// See [`WARMUP_OPS_FROM`].
pub const TRACED_OPS_FROM: u64 = 1 << 20;

/// Every `REPLAY_EVERY`-th op of the traced phase is replayed staged.
pub const REPLAY_EVERY: u64 = 10;

/// Every `CHECK_EVERY`-th daemon response is compared with an in-process
/// execute over the unsharded lake.
pub const CHECK_EVERY: u64 = 20;
