//! `serve_cold` and `serve_warm`: the real daemon over two contiguous shard
//! files of `open_lake`, driven by two closed-loop clients.
//!
//! * `serve_cold` never repeats a query table, so every op pays the join and
//!   estimate stages and the stage cache (smaller than the working set) keeps
//!   evicting. Estimator, sketch-join and cache-churn changes show here; an
//!   HTTP change moves little.
//! * `serve_warm` keeps re-asking a few sessions' tables — each variant
//!   (a new `top_k` / `min_join_size`, so a result-cache miss served from the
//!   estimate cache) followed by its exact repeat (a result-cache hit). The
//!   estimators are idle; socket, connection thread, JSON, wire codec and
//!   cache look-ups are the whole cost.

use std::path::PathBuf;
use std::time::Instant;

use joinmi_discovery::{QueryStageCache, StageCacheConfig, TableRepository};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_serve::json::Json;
use joinmi_serve::{client_request, Deadline, QueryRequest, QueryResponse, ShardSet};

use crate::daemon::{serve_bin, Daemon};
use crate::gen::{cell_bytes, request_body, LakePlan};
use crate::harness::{run_phase, Client, OpSample, Phase};
use crate::host::CORES;
use crate::metrics::{ratio, Values};
use crate::procfs::Pid;
use crate::replay::{
    fingerprint, sharded_fingerprint, staged_sharded, Fingerprint, ReplayCtx, Stages,
};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{
    finish_trace, lake_config, ns_to_ms, recall, repeat_set_up, set_loadgen_metrics,
    set_screen_metrics, set_stage_metrics, timed_s, EndToEnd, Opts, Outcome, Sizes, CHECK_EVERY,
    REPLAY_EVERY, SESSION_OPS_FROM, TRACED_OPS_FROM, TRACE_SPLIT, WARMUP_OPS_FROM,
};

/// Shard files the lake is split into, contiguously.
const SHARDS: usize = 2;
/// `top_k` values a `serve_warm` variant cycles through.
const TOP_KS: [usize; 4] = [5, 10, 20, 50];
/// `min_join_size` values a variant cycles through once the `top_k`s are
/// used up: enough distinct variants per client (2 sessions × 4 × 16 = 128)
/// that none recurs within the result cache's 128 entries.
const MIN_JOINS: usize = 16;
/// Ops `recall_at_10` is averaged over.
const RECALL_OPS: usize = 400;
/// `/v1/healthz` round trips behind `serve.http.roundtrip_ms`.
const HEALTHZ_SAMPLES: usize = 200;

/// The generated lake on disk.
struct Lake {
    plan: LakePlan,
    shards: Vec<PathBuf>,
    input_bytes: u64,
    stored_bytes: u64,
    rows: u64,
    add_tables_s: f64,
    save_s: f64,
}

/// Generates `open_lake`, ingests it as [`SHARDS`] contiguous repositories
/// (one `joinmi_par` worker, as an ingest job would be pinned) and saves them.
fn build_lake(opts: &Opts, sizes: &Sizes, tag: &str) -> Result<Lake, String> {
    let plan = sizes.open.plan(opts.seed);
    let tables = plan.base_tables();
    let input_bytes = tables.iter().map(cell_bytes).sum();
    let rows = tables.iter().map(|t| t.num_rows() as u64).sum();
    let per_shard = tables.len().div_ceil(SHARDS);
    let mut shards = Vec::with_capacity(SHARDS);
    let (mut add_tables_s, mut save_s, mut stored_bytes) = (0.0, 0.0, 0);
    let mut tables = tables.into_iter();
    for s in 0..SHARDS {
        let part: Vec<_> = tables.by_ref().take(per_shard).collect();
        let mut repo = TableRepository::new(lake_config(sizes.open.value_columns));
        let (added, s_add) = timed_s(|| joinmi_par::with_threads(1, || repo.add_tables(part)));
        added.map_err(|e| e.to_string())?;
        add_tables_s += s_add;
        let path = opts
            .out_dir
            .join(format!("{tag}-seed{}-shard{s}.jmi", opts.seed));
        let (saved, s_save) = timed_s(|| repo.save(&path));
        saved.map_err(|e| e.to_string())?;
        save_s += s_save;
        stored_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        shards.push(path);
    }
    Ok(Lake {
        plan,
        shards,
        input_bytes,
        stored_bytes,
        rows,
        add_tables_s,
        save_s,
    })
}

/// What `serve_warm` asks in op `op`: `(session, top_k, min_join_size)`.
/// Client `c` owns the sessions of its parity and asks each variant twice in
/// a row.
fn warm_variant(op: u64, sessions: usize) -> (usize, usize, usize) {
    let client = (op % CORES as u64) as usize;
    let pair = (op / CORES as u64 / 2) as usize;
    let own = (sessions / CORES).max(1);
    let session = ((pair % own) * CORES + client) % sessions;
    let top_k = TOP_KS[(pair / own) % TOP_KS.len()];
    let min_join = 20 + (pair / (own * TOP_KS.len())) % MIN_JOINS;
    (session, top_k, min_join)
}

/// A session's query: its topic and `(key, target)` rows.
type Session = (usize, Vec<(String, f64)>);

/// The request generator of one workload: op index → topic and body.
struct Requests<'a> {
    plan: &'a LakePlan,
    /// `Some(session rows)` for `serve_warm`.
    sessions: Option<Vec<Session>>,
}

impl<'a> Requests<'a> {
    fn new(plan: &'a LakePlan, sizes: &Sizes, warm: bool) -> Self {
        let sessions = warm.then(|| {
            (0..sizes.sessions as u64)
                .map(|s| plan.query_rows_of(SESSION_OPS_FROM + s, sizes.session_rows))
                .collect()
        });
        Self { plan, sessions }
    }

    /// `(topic, top_k, min_join_size)` of op `op`, without its body.
    fn request_shape(&self, op: u64) -> (usize, usize, usize) {
        match &self.sessions {
            None => (self.plan.topic_of_op(op), 10, 20),
            Some(sessions) => {
                let (session, top_k, min_join) = warm_variant(op, sessions.len());
                (sessions[session].0, top_k, min_join)
            }
        }
    }

    /// `(topic, top_k, body)` of op `op`.
    fn request(&self, op: u64) -> (usize, usize, String) {
        match &self.sessions {
            None => {
                let (topic, rows) = self.plan.query_rows(op);
                (topic, 10, request_body(&rows, 10, 20))
            }
            Some(sessions) => {
                let (session, top_k, min_join) = warm_variant(op, sessions.len());
                let (topic, rows) = &sessions[session];
                (*topic, top_k, request_body(rows, top_k, min_join))
            }
        }
    }

    /// What the set-up sends before the measured phase: never-repeated
    /// queries that fill the stage cache (cold), or each session's table
    /// once (warm).
    fn warmup_bodies(&self, sizes: &Sizes) -> Vec<String> {
        match &self.sessions {
            None => (0..sizes.cold_warmup_ops)
                .map(|i| request_body(&self.plan.query_rows(WARMUP_OPS_FROM + i).1, 10, 20))
                .collect(),
            Some(sessions) => sessions
                .iter()
                .map(|(_, rows)| request_body(rows, 10, 20))
                .collect(),
        }
    }
}

/// One daemon reply, kept for the checks that run after the phase.
struct Reply {
    op: u64,
    status: u16,
    body: String,
}

fn post_query(addr: &str, body: &str) -> (u16, String) {
    client_request(addr, "POST", "/v1/query", body).unwrap_or_else(|e| (0, e.to_string()))
}

/// Runs the closed loop against the daemon; with an enabled tracer every op
/// is also recorded as a `loadgen.op` span.
fn drive(
    daemon: &Daemon,
    requests: &Requests<'_>,
    first_op: u64,
    seconds: f64,
    tracers: &mut [Tracer],
) -> (Phase, Vec<Reply>) {
    let mut replies: Vec<Vec<Reply>> = (0..CORES).map(|_| Vec::new()).collect();
    let mut closures: Vec<_> = replies
        .iter_mut()
        .zip(tracers.iter_mut())
        .map(|(kept, tracer)| {
            move |op: u64| {
                let (_, _, body) = requests.request(op);
                let start = Instant::now();
                let (status, text) = tracer.span("loadgen.op", op, None, |_, _| {
                    post_query(&daemon.addr, &body)
                });
                let end = Instant::now();
                kept.push(Reply {
                    op,
                    status,
                    body: text,
                });
                OpSample {
                    op,
                    start,
                    end,
                    ok: status == 200,
                }
            }
        })
        .collect();
    let mut clients: Vec<Client<'_>> = closures.iter_mut().map(|c| c as Client<'_>).collect();
    let phase = run_phase(&mut clients, first_op, seconds, Pid::Child(daemon.pid()));
    drop(clients);
    drop(closures);
    let mut replies: Vec<Reply> = replies.into_iter().flatten().collect();
    replies.sort_by_key(|r| r.op);
    (phase, replies)
}

/// The parts of a 200 reply the checks need.
struct Parsed {
    names: Vec<(String, String)>,
    fingerprint: Fingerprint,
}

fn parse_reply(body: &str) -> Result<Parsed, String> {
    let doc = Json::parse(body).map_err(|e| e.to_string())?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("reply has no results")?;
    let mut names = Vec::with_capacity(results.len());
    let mut fingerprint = Vec::with_capacity(results.len());
    for row in results {
        let text = |key: &str| row.get(key).and_then(Json::as_str).map(str::to_owned);
        let int = |key: &str| row.get(key).and_then(Json::as_i64).map(|v| v as usize);
        let bits = text("mi_bits")
            .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok());
        match (
            text("table"),
            text("feature_column"),
            int("candidate_index"),
            bits,
            int("join_size"),
        ) {
            (Some(table), Some(column), Some(index), Some(bits), Some(join)) => {
                names.push((table, column));
                fingerprint.push((index, bits, join));
            }
            _ => return Err("reply row lacks a field".to_owned()),
        }
    }
    Ok(Parsed { names, fingerprint })
}

/// Set-up as `setup_s` counts it: generate, ingest, save, spawn, warm up.
fn set_up(opts: &Opts, sizes: &Sizes, warm: bool, tag: &str) -> Result<(Lake, Daemon), String> {
    let lake = build_lake(opts, sizes, tag)?;
    let daemon = Daemon::spawn(&serve_bin()?, &lake.shards)?;
    let requests = Requests::new(&lake.plan, sizes, warm);
    for body in requests.warmup_bodies(sizes) {
        let (status, text) = post_query(&daemon.addr, &body);
        if status != 200 {
            return Err(format!("warm-up query answered {status}: {text}"));
        }
    }
    Ok((lake, daemon))
}

/// Reads the replies: every one must be a 200; the first [`RECALL_OPS`] that
/// asked for at least ten results are scored for recall, and every
/// [`REPLAY_EVERY`]-th (which covers every [`CHECK_EVERY`]-th) is parsed for
/// the answer checks. Returns the per-op recalls, the parsed replies
/// (`None` where a reply failed or was not needed) and the failure count.
fn score_replies(
    replies: &[Reply],
    requests: &Requests<'_>,
    problems: &mut Vec<String>,
) -> (Vec<f64>, Vec<Option<Parsed>>, u64) {
    let mut recalls = Vec::with_capacity(RECALL_OPS);
    let mut parsed = Vec::with_capacity(replies.len());
    let mut failed = 0;
    for reply in replies {
        let (topic, top_k, _) = requests.request_shape(reply.op);
        let for_recall = recalls.len() < RECALL_OPS && top_k >= crate::gen::PLANTED;
        let outcome = if reply.status != 200 {
            Err(format!("status {}: {}", reply.status, reply.body))
        } else if for_recall || reply.op % REPLAY_EVERY == 0 {
            parse_reply(&reply.body).map(Some)
        } else {
            Ok(None)
        };
        match outcome {
            Ok(p) => {
                if let (true, Some(p)) = (for_recall, &p) {
                    recalls.push(recall(
                        p.names.iter().map(|(t, c)| (t.as_str(), c.as_str())),
                        &requests.plan.planted[topic],
                    ));
                }
                parsed.push(p);
            }
            Err(e) => {
                failed += 1;
                if problems.len() < 5 {
                    problems.push(format!("op {}: {e}", reply.op));
                }
                parsed.push(None);
            }
        }
    }
    (recalls, parsed, failed)
}

/// Compares every [`CHECK_EVERY`]-th reply with an in-process execute over
/// the unsharded lake. Returns the number of mismatches.
fn check_against_unsharded(
    lake: &Lake,
    sizes: &Sizes,
    requests: &Requests<'_>,
    replies: &[Reply],
    parsed: &[Option<Parsed>],
    warm: bool,
    problems: &mut Vec<String>,
) -> Result<(u64, u64), String> {
    let mut reference = TableRepository::new(lake_config(sizes.open.value_columns));
    joinmi_par::with_threads(CORES, || reference.add_tables(lake.plan.base_tables()))
        .map_err(|e| e.to_string())?;
    // The warm workload re-asks a few tables hundreds of times; the reference
    // may reuse its own estimates for them (cached == cold is pinned by the
    // repository's own tests).
    let cache = QueryStageCache::new(StageCacheConfig::default());
    let scope = cache.scope(0);
    let (mut checked, mut wrong) = (0, 0);
    for (reply, parsed) in replies.iter().zip(parsed) {
        let Some(parsed) = parsed else { continue };
        if reply.op % CHECK_EVERY != 0 {
            continue;
        }
        let (_, _, body) = requests.request(reply.op);
        let query = QueryRequest::from_json(&body)
            .and_then(|r| r.to_query())
            .map_err(|e| e.to_string())?;
        let expected = joinmi_par::with_threads(CORES, || {
            query.execute_cached(&reference, warm.then_some(&scope))
        })
        .map_err(|e| e.to_string())?;
        checked += 1;
        if fingerprint(&expected) != parsed.fingerprint {
            wrong += 1;
            if problems.len() < 5 {
                problems.push(format!(
                    "op {}: daemon ranking differs from the unsharded in-process ranking",
                    reply.op
                ));
            }
        }
    }
    Ok((checked, wrong))
}

/// The end-to-end run.
pub fn run(opts: &Opts, warm: bool) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let tag = if warm { "serve_warm" } else { "serve_cold" };
    let ((lake, daemon), setup_times) = repeat_set_up(&sizes, || set_up(opts, &sizes, warm, tag))?;
    let requests = Requests::new(&lake.plan, &sizes, warm);

    let mut tracers: Vec<Tracer> = (0..CORES)
        .map(|_| Tracer::new(Instant::now(), false))
        .collect();
    let (phase, replies) = drive(&daemon, &requests, 0, opts.seconds, &mut tracers);
    let peak_rss_mb = Pid::Child(daemon.pid()).peak_rss_mb();
    drop(daemon);

    let mut problems = Vec::new();
    let (recalls, parsed, mut failed) = score_replies(&replies, &requests, &mut problems);
    let (checked, wrong) = check_against_unsharded(
        &lake,
        &sizes,
        &requests,
        &replies,
        &parsed,
        warm,
        &mut problems,
    )?;
    failed += wrong;

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
        ("answers_checked", Json::Int(checked as i64)),
        ("input_bytes", Json::Int(lake.input_bytes as i64)),
        ("stored_bytes", Json::Int(lake.stored_bytes as i64)),
        (
            "daemon_flags",
            Json::Str("--addr 127.0.0.1:0 (all else default)".to_owned()),
        ),
    ]);
    Ok(Outcome {
        attempted: replies.len() as u64,
        failed,
        problems,
        values,
        details,
    })
}

fn int_at(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_i64)
        .map_or(0.0, |v| v as f64)
}

/// A fresh stage cache of the daemon's default shape for `shards`.
fn stage_cache(shards: &ShardSet) -> QueryStageCache {
    QueryStageCache::with_generation(StageCacheConfig::default(), shards.generation())
}

/// Sums over the ops one replay thread handled.
#[derive(Default)]
struct Replayed {
    stages: Stages,
    engine_stats: joinmi_discovery::QueryStats,
    parse_ns: u64,
    from_json_ns: u64,
    fingerprint_ns: u64,
    to_query_ns: u64,
    execute_ns: u64,
    engine_ns: u64,
    encode_ns: u64,
    request_bytes: usize,
    problems: Vec<String>,
}

impl Replayed {
    fn merge(&mut self, other: Self) {
        self.stages.merge(&other.stages);
        self.engine_stats.merge(other.engine_stats);
        self.parse_ns += other.parse_ns;
        self.from_json_ns += other.from_json_ns;
        self.fingerprint_ns += other.fingerprint_ns;
        self.to_query_ns += other.to_query_ns;
        self.execute_ns += other.execute_ns;
        self.engine_ns += other.engine_ns;
        self.encode_ns += other.encode_ns;
        self.request_bytes += other.request_bytes;
        self.problems.extend(other.problems);
    }
}

/// Replays `ops` (op index and the daemon's ranking for it): the request
/// through the codec, the black box, the per-shard engine and the staged run,
/// each against its own cache of `caches`.
fn replay_ops(
    ops: &[(u64, &Fingerprint)],
    requests: &Requests<'_>,
    shards: &ShardSet,
    caches: &[QueryStageCache; 3],
    tracer: &mut Tracer,
    deadline: Instant,
) -> Result<Replayed, String> {
    let mut sums = Replayed::default();
    let mut ws = EstimatorWorkspace::new();
    for &(op, from_daemon) in ops {
        if sums.stages.ops >= 3 && Instant::now() >= deadline {
            break;
        }
        let (_, _, body) = requests.request(op);
        sums.request_bytes += body.len();
        tracer.span("replay", op, None, |tracer, root| -> Result<(), String> {
            let (doc, ns) = tracer.timed("serve.json.parse", op, root, || Json::parse(&body));
            doc.map_err(|e| e.to_string())?;
            sums.parse_ns += ns;
            let (request, ns) = tracer.timed("serve.wire.from_json", op, root, || {
                QueryRequest::from_json(&body)
            });
            let request = request.map_err(|e| e.to_string())?;
            sums.from_json_ns += ns;
            let (print, ns) =
                tracer.timed("serve.wire.fingerprint", op, root, || request.fingerprint());
            std::hint::black_box(print);
            sums.fingerprint_ns += ns;
            let (query, ns) = tracer.timed("serve.wire.to_query", op, root, || request.to_query());
            let query = query.map_err(|e| e.to_string())?;
            sums.to_query_ns += ns;

            let (outcome, ns) = tracer.timed("serve.shard.execute", op, root, || {
                shards.execute(
                    &request,
                    &mut ws,
                    Some(&caches[0]),
                    Deadline::unlimited(),
                    0,
                    &[],
                )
            });
            let outcome = outcome.map_err(|e| format!("{e:?}"))?;
            sums.execute_ns += ns;

            for shard in shards.shards() {
                let scope = caches[1].scope(shard.candidate_offset() as u64);
                let (ran, ns) = tracer.timed("discovery.query.execute", op, root, || {
                    query.execute_in_cached_stats(shard.snapshot(), &mut ws, Some(&scope))
                });
                sums.engine_stats.merge(ran.map_err(|e| e.to_string())?.1);
                sums.engine_ns += ns;
            }

            let staged = tracer.span("replay.staged", op, root, |tracer, parent| {
                staged_sharded(
                    &query,
                    shards,
                    Some(&caches[2]),
                    &mut ReplayCtx {
                        ws: &mut ws,
                        tracer,
                        op,
                        parent,
                        totals: &mut sums.stages,
                    },
                )
            })?;
            sums.stages.ops += 1;

            let response = QueryResponse {
                results: outcome.results,
                shards_queried: shards.shards().len(),
                generation: shards.generation(),
                cached: false,
                partial: false,
                degraded_shards: Vec::new(),
            };
            let (encoded, ns) = tracer.timed("serve.wire.encode", op, root, || {
                response.to_json().encode()
            });
            std::hint::black_box(encoded);
            sums.encode_ns += ns;

            let black_box = sharded_fingerprint(&response.results);
            if black_box != sharded_fingerprint(&staged) {
                sums.problems.push(format!(
                    "op {op}: staged replay differs from ShardSet::execute"
                ));
            }
            if &black_box != from_daemon {
                sums.problems.push(format!(
                    "op {op}: in-process replay differs from the daemon"
                ));
            }
            Ok(())
        })?;
    }
    Ok(sums)
}

/// The traced run: a short untraced phase, a traced phase, then every
/// [`REPLAY_EVERY`]-th traced op replayed in process — through the black box
/// and staged — over the same shard files.
pub fn run_traced(opts: &Opts, warm: bool) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let tag = if warm { "serve_warm" } else { "serve_cold" };
    let origin = Instant::now();
    let mut values = Values::per_layer_zeroed();
    let mut problems = Vec::new();

    let (lake, daemon) = set_up(opts, &sizes, warm, tag)?;
    let requests = Requests::new(&lake.plan, &sizes, warm);
    values.set(
        "discovery.repository.add_tables_ms_per_krow",
        ratio(lake.add_tables_s * 1e3, lake.rows as f64 / 1e3),
    );
    values.set("discovery.persist.save_ms", lake.save_s * 1e3);
    values.set("serve.daemon.ready_ms", daemon.ready_ms);

    let before = daemon.shards_info()?;
    let mut off: Vec<Tracer> = (0..CORES).map(|_| Tracer::new(origin, false)).collect();
    let (untraced, mut replies) = drive(
        &daemon,
        &requests,
        0,
        opts.seconds * TRACE_SPLIT[0],
        &mut off,
    );
    let mut on: Vec<Tracer> = (0..CORES).map(|_| Tracer::new(origin, true)).collect();
    let (traced, traced_replies) = drive(
        &daemon,
        &requests,
        TRACED_OPS_FROM,
        opts.seconds * TRACE_SPLIT[1],
        &mut on,
    );
    let after = daemon.shards_info()?;
    let first_traced = replies.len();
    replies.extend(traced_replies);
    let ops = replies.len() as f64;

    let roundtrips: Vec<f64> = (0..HEALTHZ_SAMPLES)
        .map(|_| timed_s(|| client_request(&daemon.addr, "GET", "/v1/healthz", "")).1 * 1e3)
        .collect();
    drop(daemon);

    let (_, parsed, failed) = score_replies(&replies, &requests, &mut problems);
    let answered: Vec<&Reply> = replies.iter().filter(|r| r.status == 200).collect();
    // The encoder writes no spaces, so the flag can be read without a parse.
    let hit_share = ratio(
        answered
            .iter()
            .filter(|r| r.body.contains("\"cached\":true"))
            .count() as f64,
        answered.len() as f64,
    );
    values.set("serve.http.roundtrip_ms", stats::median(&roundtrips));
    // `client_request` opens one connection per call and the loop makes one
    // call per op; a client that kept connections alive would count fewer.
    values.set("serve.http.connects_per_op", 1.0);
    values.set("serve.guard.result_cache_hit_share", hit_share);
    values.set(
        "serve.json.response_bytes",
        ratio(
            answered.iter().map(|r| r.body.len() as f64).sum(),
            answered.len() as f64,
        ),
    );
    set_loadgen_metrics(&mut values, &untraced, &traced);

    let delta = |path: &[&str]| int_at(&after, path) - int_at(&before, path);
    let (est_hits, est_misses) = (
        delta(&["stage_cache", "estimate_hits"]),
        delta(&["stage_cache", "estimate_misses"]),
    );
    let (join_hits, join_misses) = (
        delta(&["stage_cache", "join_hits"]),
        delta(&["stage_cache", "join_misses"]),
    );
    let evictions = delta(&["stage_cache", "evictions"]);
    values.set(
        "discovery.cache.estimate_hit_share",
        ratio(est_hits, est_hits + est_misses),
    );
    values.set(
        "discovery.cache.join_hit_share",
        ratio(join_hits, join_hits + join_misses),
    );
    values.set("discovery.cache.evictions_per_op", ratio(evictions, ops));
    values.set(
        "discovery.cache.resident_mb",
        int_at(&after, &["stage_cache", "resident_bytes"]) / (1024.0 * 1024.0),
    );

    // In-process replays over the same files, on as many threads as the
    // daemon has workers and sharing caches as they do: a stage then costs
    // here what it costs there, with the second hardware thread busy and the
    // cache lock contended.
    let mut tracer = Tracer::new(origin, true);
    for t in on {
        tracer.absorb(t);
    }
    let shards = ShardSet::open(&lake.shards).map_err(|e| e.to_string())?;
    // Three caches of the daemon's shape — for the black box, the per-shard
    // engine and the staged run — taken through the daemon's own warm-up, so
    // that cold replays meet a full, evicting cache and warm replays a primed
    // one.
    let caches = [
        stage_cache(&shards),
        stage_cache(&shards),
        stage_cache(&shards),
    ];
    let mut ws = EstimatorWorkspace::new();
    for body in requests.warmup_bodies(&sizes) {
        let request = QueryRequest::from_json(&body).map_err(|e| e.to_string())?;
        for cache in &caches {
            shards
                .execute(
                    &request,
                    &mut ws,
                    Some(cache),
                    Deadline::unlimited(),
                    0,
                    &[],
                )
                .map_err(|e| format!("{e:?}"))?;
        }
    }
    let sampled: Vec<(u64, &Fingerprint)> = replies[first_traced..]
        .iter()
        .zip(&parsed[first_traced..])
        .filter(|(reply, _)| reply.op % REPLAY_EVERY == 0)
        .filter_map(|(reply, parsed)| Some((reply.op, &parsed.as_ref()?.fingerprint)))
        .collect();
    let replay_deadline =
        Instant::now() + std::time::Duration::from_secs_f64(opts.seconds * TRACE_SPLIT[2]);
    let replayed: Vec<Result<(Replayed, Tracer), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CORES)
            .map(|worker| {
                let own: Vec<_> = sampled
                    .iter()
                    .skip(worker)
                    .step_by(CORES)
                    .copied()
                    .collect();
                let (requests, shards, caches) = (&requests, &shards, &caches);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(origin, true);
                    replay_ops(&own, requests, shards, caches, &mut tracer, replay_deadline)
                        .map(|sums| (sums, tracer))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect()
    });
    let mut sums = Replayed::default();
    for worker in replayed {
        let (part, spans) = worker?;
        sums.merge(part);
        tracer.absorb(spans);
    }
    problems.append(&mut sums.problems);
    let stages = sums.stages;
    let engine_stats = sums.engine_stats;

    let n = stages.ops.max(1) as f64;
    // `from_json` parses the body itself; its own share is what is left
    // after an equal parse.
    let decode_ms = ns_to_ms(sums.from_json_ns.saturating_sub(sums.parse_ns)) / n;
    values.set("serve.json.parse_ms", ns_to_ms(sums.parse_ns) / n);
    values.set("serve.json.request_bytes", sums.request_bytes as f64 / n);
    values.set("serve.wire.decode_ms", decode_ms);
    values.set(
        "serve.wire.fingerprint_ms",
        ns_to_ms(sums.fingerprint_ns) / n,
    );
    values.set("serve.wire.to_query_ms", ns_to_ms(sums.to_query_ns) / n);
    values.set("serve.wire.encode_ms", ns_to_ms(sums.encode_ns) / n);
    values.set("serve.shard.execute_ms", ns_to_ms(sums.execute_ns) / n);
    values.set("serve.shard.merge_rank_ms", ns_to_ms(stages.merge_ns) / n);
    values.set("discovery.query.execute_ms", ns_to_ms(sums.engine_ns) / n);
    set_stage_metrics(&mut values, &stages, sums.engine_ns);
    set_screen_metrics(&mut values, &engine_stats, stages.hits, stages.ops);

    // Only a result-cache miss reaches the worker pool.
    let miss_share = 1.0 - hit_share;
    let op_mean_ms = ratio(
        traced.latencies_ms().iter().sum(),
        traced.samples.len() as f64,
    );
    let attributed = values.get("serve.http.roundtrip_ms")
        + values.get("serve.json.parse_ms")
        + decode_ms
        + values.get("serve.wire.fingerprint_ms")
        + values.get("serve.wire.encode_ms")
        + miss_share * values.get("serve.shard.execute_ms");
    values.set("serve.server.unattributed_ms", op_mean_ms - attributed);

    persist_metrics(&mut values, &lake, &requests)?;
    par_metrics(&mut values, &lake, &sizes, &shards, &requests)?;

    // Workload validity: each workload must keep stressing its layer.
    let execute_share = ratio(
        miss_share * values.get("serve.shard.execute_ms"),
        op_mean_ms,
    );
    // Toy sizes check answers only: the shares below depend on the sizes.
    if opts.smoke {
    } else if warm {
        // An estimate-level miss alone is no estimator call: a candidate whose
        // join is below `min_join_size` is gated before the estimate and never
        // enters that level. A join-level miss is new work.
        if stages.estimate_calls != 0 || join_misses != 0.0 {
            problems.push(format!(
                "serve_warm must not estimate: {} staged calls, {join_misses} daemon join misses",
                stages.estimate_calls
            ));
        }
        if evictions != 0.0 {
            problems.push(format!("serve_warm must not evict: {evictions} evictions"));
        }
        if execute_share > 0.3 {
            problems.push(format!(
                "serve_warm: execute is {execute_share:.2} of the op, above 0.30"
            ));
        }
    } else {
        if execute_share < 0.7 {
            problems.push(format!(
                "serve_cold: execute is {execute_share:.2} of the op, below 0.70"
            ));
        }
        if evictions <= 0.0 {
            problems.push("serve_cold: the stage cache never evicted".to_owned());
        }
        if hit_share != 0.0 {
            problems.push(format!("serve_cold: result-cache hit share {hit_share}"));
        }
    }

    let mut details = finish_trace(opts, &tracer, &untraced, &traced, stages.ops)?;
    details.extend([
        ("execute_share_of_op", Json::Float(execute_share)),
        ("op_mean_ms", Json::Float(op_mean_ms)),
    ]);
    Ok(Outcome {
        attempted: replies.len() as u64,
        failed,
        problems,
        values,
        details,
    })
}

/// Open, eager load and first answer over the lake's files.
fn persist_metrics(
    values: &mut Values,
    lake: &Lake,
    requests: &Requests<'_>,
) -> Result<(), String> {
    let mut opens = Vec::new();
    let mut first_answers = Vec::new();
    let mut decoded = 0;
    for round in 0..3u64 {
        let (shards, s) = timed_s(|| ShardSet::open(&lake.shards));
        let shards = shards.map_err(|e| e.to_string())?;
        opens.push(s * 1e3);
        let (_, _, body) = requests.request(round * REPLAY_EVERY);
        let request = QueryRequest::from_json(&body).map_err(|e| e.to_string())?;
        let mut ws = EstimatorWorkspace::new();
        let (answer, s) =
            timed_s(|| shards.execute(&request, &mut ws, None, Deadline::unlimited(), 0, &[]));
        answer.map_err(|e| format!("{e:?}"))?;
        first_answers.push(s * 1e3);
        decoded = shards
            .shards()
            .iter()
            .map(|shard| shard.snapshot().decoded_candidates())
            .sum();
    }
    let (loaded, load_s) = timed_s(|| {
        lake.shards
            .iter()
            .try_for_each(|path| TableRepository::load(path).map(drop))
    });
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
    Ok(())
}

/// One worker against two, on the parallel execute path and on ingest.
fn par_metrics(
    values: &mut Values,
    lake: &Lake,
    sizes: &Sizes,
    shards: &ShardSet,
    requests: &Requests<'_>,
) -> Result<(), String> {
    let snapshot = shards.shards()[0].snapshot();
    let mut by_threads = [Vec::new(), Vec::new()];
    for round in 0..5u64 {
        let (_, _, body) = requests.request(round * REPLAY_EVERY);
        let query = QueryRequest::from_json(&body)
            .and_then(|r| r.to_query())
            .map_err(|e| e.to_string())?;
        for (slot, threads) in [1, CORES].into_iter().enumerate() {
            let (ran, s) =
                timed_s(|| joinmi_par::with_threads(threads, || query.execute(snapshot)));
            ran.map_err(|e| e.to_string())?;
            by_threads[slot].push(s);
        }
    }
    values.set(
        "par.execute_speedup_t2",
        ratio(stats::median(&by_threads[0]), stats::median(&by_threads[1])),
    );

    // Ingest of the first shard's tables, one worker against two.
    let per_shard = sizes.open.tables.div_ceil(SHARDS);
    let mut ingest = [0.0; 2];
    for (slot, threads) in [1, CORES].into_iter().enumerate() {
        let tables: Vec<_> = (0..per_shard)
            .map(|t| lake.plan.table_rows(t, 0..sizes.open.rows))
            .collect();
        let mut repo = TableRepository::new(lake_config(sizes.open.value_columns));
        let (added, s) = timed_s(|| joinmi_par::with_threads(threads, || repo.add_tables(tables)));
        added.map_err(|e| e.to_string())?;
        ingest[slot] = s;
    }
    values.set("par.add_tables_speedup_t2", ratio(ingest[0], ingest[1]));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_variants_repeat_once_and_do_not_recur_within_the_result_cache() {
        let sessions = 4;
        let mut seen: Vec<(usize, usize, usize)> = Vec::new();
        for client in 0..CORES as u64 {
            let mut own = Vec::new();
            for n in 0..600u64 {
                let op = n * CORES as u64 + client;
                let variant = warm_variant(op, sessions);
                assert_eq!(variant.0 % CORES, client as usize, "session parity");
                if n % 2 == 1 {
                    assert_eq!(own.last(), Some(&variant), "odd ops repeat the even op");
                } else {
                    own.push(variant);
                }
            }
            // Own sessions × 4 top_k × 16 min_join distinct variants per
            // client before the cycle restarts.
            let cycle = sessions / CORES * TOP_KS.len() * MIN_JOINS;
            for (i, v) in own.iter().enumerate().take(cycle) {
                assert!(
                    !own[..i].contains(v),
                    "variant {v:?} recurred inside a cycle"
                );
            }
            seen.extend(own);
        }
        assert!(seen.iter().any(|v| v.1 == 50) && seen.iter().any(|v| v.2 == 35));
    }

    #[test]
    fn query_table_matches_the_request_body() {
        let plan = Sizes::smoke().open.plan(3);
        let (_, rows) = plan.query_rows(7);
        let body = request_body(&rows, 10, 20);
        let table = QueryRequest::from_json(&body).unwrap().to_table().unwrap();
        assert_eq!(table, crate::gen::query_table(&rows));
    }
}
