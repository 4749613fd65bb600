//! The `joinmi_bench` CLI: quick benchmarks plus the offline/online split.
//!
//! ```text
//! joinmi_bench [--quick] [--json] [--out PATH]      # benchmark mode
//! joinmi_bench ingest  --out repo.jmi [--quick]     # offline: build + save a repository
//! joinmi_bench query   --repo repo.jmi [--verify-in-memory]
//!                                                   # online: load + query (separate process)
//! joinmi_bench compact --repo repo.jmi [--seal]     # fold the append log; --seal drops state
//! joinmi_bench compare --baseline A.json --current B.json [--max-regression 0.25]
//!                                                   # CI bench-regression gate
//! joinmi_bench chaos   [--rows N] [--seed N] [--max-cases N]
//!                                                   # fault-injection durability sweep
//! ```
//!
//! Benchmark mode runs a compressed version of the six criterion bench
//! targets, the parallel ingest-and-query pipeline workload, the repository
//! save/load/compact workload, and the cross-query stage-cache workload, and
//! emits a machine-readable JSON (bench name → median wall nanoseconds;
//! default `BENCH_PR17.json`) that seeds the perf trajectory for future PRs. Unlike
//! the criterion benches (minutes), quick mode finishes in seconds, so CI
//! runs it on every push.
//!
//! `ingest` and `query` are the real offline → online split: `ingest` builds
//! the deterministic 32×8-table corpus ([`joinmi_bench::corpus`]), sketches
//! it, and saves the repository to disk; `query`, in a **separate process**,
//! loads that file and answers the standard ranked query. With
//! `--verify-in-memory` the query process also rebuilds the corpus from
//! scratch and asserts the persisted ranking is bit-for-bit identical — the
//! check the `persistence-roundtrip` CI job gates on.

use std::time::Instant;

use joinmi_bench::corpus;
use joinmi_bench::quickjson;
use joinmi_bench::trinomial_workload;
use joinmi_discovery::{CandidateSource, TableRepository};
use joinmi_eval::EstimatorMode;
use joinmi_serve::json::Json;
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_synth::{decompose, KeyDistribution};
use joinmi_table::{augment, AugmentSpec, Value};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let exit = match args.first().map(String::as_str) {
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("serve-check") => cmd_serve_check(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        // A non-flag first argument that is not a known subcommand is a typo
        // (e.g. `ingets`): error out instead of silently running the full
        // benchmark suite and exiting 0 with the real work undone.
        Some(other) if !other.starts_with('-') => {
            eprintln!("unknown subcommand `{other}`");
            print_usage();
            2
        }
        _ => cmd_bench(&args),
    };
    std::process::exit(exit);
}

fn print_usage() {
    eprintln!("usage: joinmi_bench [--quick] [--json] [--out PATH]");
    eprintln!("       joinmi_bench ingest  --out REPO [--quick] [--base | --append]");
    eprintln!("       joinmi_bench ingest  --out PREFIX --shards N [--quick]");
    eprintln!("       joinmi_bench query   --repo REPO [--verify-in-memory]");
    eprintln!("       joinmi_bench compact --repo REPO [--seal]");
    eprintln!("       joinmi_bench serve-check --url HOST:PORT [--quick]");
    eprintln!("       joinmi_bench compare --baseline JSON --current JSON [--max-regression R]");
    eprintln!("       joinmi_bench chaos [--rows N] [--seed N] [--max-cases N]");
    eprintln!();
    eprintln!("  --quick   small iteration counts / workloads (seconds, not minutes)");
    eprintln!("  --json    write benchmark results to PATH (default BENCH_PR17.json)");
    eprintln!("  --base    ingest the corpus minus its append tail (the daemon's day-0 state)");
    eprintln!("  --append  load REPO, append the corpus tail rows, extend the file in place");
    eprintln!("  --seal    also drop builder state; the compacted file rejects future appends");
    eprintln!("  --shards  split the corpus contiguously into PREFIX-shard-I.jmi files");
    eprintln!("  --url     address of a running joinmi_serve daemon to check against");
    eprintln!("  chaos     fault-injection sweep: fail/corrupt every IO site of append_to");
    eprintln!("            and compact, asserting recovery to a pre- or post-op ranking");
}

/// Value of `--flag VALUE` in an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

// ---------------------------------------------------------------------------
// ingest: the offline half.
// ---------------------------------------------------------------------------

fn cmd_ingest(args: &[String]) -> i32 {
    let out = flag_value(args, "--out").unwrap_or("repo.jmi");
    let quick = args.iter().any(|a| a == "--quick");
    let base = args.iter().any(|a| a == "--base");
    let append = args.iter().any(|a| a == "--append");
    if base && append {
        eprintln!("ingest: --base and --append are mutually exclusive");
        return 2;
    }
    let rows = corpus::rows_for(quick);

    if let Some(shards) = flag_value(args, "--shards") {
        if base || append {
            eprintln!("ingest: --shards cannot combine with --base/--append");
            return 2;
        }
        let Ok(num_shards) = shards.parse::<usize>() else {
            eprintln!("ingest: --shards must be a positive number");
            return 2;
        };
        if num_shards == 0 {
            eprintln!("ingest: --shards must be a positive number");
            return 2;
        }
        return cmd_ingest_shards(out, rows, num_shards);
    }

    if append {
        return cmd_ingest_append(out, rows);
    }

    let (tables, what) = if base {
        let split = corpus::append_split(rows);
        (
            corpus::base_tables(rows),
            format!("{split} of {rows} rows each (append tail held back)"),
        )
    } else {
        (corpus::candidate_tables(rows), format!("{rows} rows each"))
    };
    println!(
        "ingest: {} tables x {} features, {what} (universe {})",
        corpus::NUM_TABLES,
        corpus::FEATURES_PER_TABLE,
        corpus::KEY_UNIVERSE
    );
    let start = Instant::now();
    let mut repo = TableRepository::new(corpus::repo_config());
    if let Err(e) = repo.add_tables(tables) {
        eprintln!("ingest: failed: {e}");
        return 1;
    }
    let ingest_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "ingest: {} candidate sketches built in {ingest_ms:.1} ms",
        repo.candidates().len()
    );

    let start = Instant::now();
    if let Err(e) = repo.save(out) {
        eprintln!("ingest: failed to save `{out}`: {e}");
        return 1;
    }
    let save_ms = start.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!("ingest: wrote {out} ({bytes} bytes) in {save_ms:.1} ms");
    0
}

/// The serving half of the offline split: partition the corpus contiguously
/// into `num_shards` repository files (`PREFIX-shard-I.jmi`), the layout
/// `joinmi_serve` opens. Contiguous partitioning in table order is what makes
/// the daemon's merged ranking bit-for-bit equal to a single repository —
/// see `joinmi_serve::shard` for the argument.
fn cmd_ingest_shards(prefix: &str, rows: usize, num_shards: usize) -> i32 {
    println!(
        "ingest: {} tables x {} features, {rows} rows each, across {num_shards} shard(s)",
        corpus::NUM_TABLES,
        corpus::FEATURES_PER_TABLE,
    );
    for shard in 0..num_shards {
        let tables = corpus::shard_tables(rows, shard, num_shards);
        let num_tables = tables.len();
        let start = Instant::now();
        let mut repo = TableRepository::new(corpus::repo_config());
        if let Err(e) = repo.add_tables(tables) {
            eprintln!("ingest: shard {shard} failed: {e}");
            return 1;
        }
        let path = format!("{prefix}-shard-{shard}.jmi");
        if let Err(e) = repo.save(&path) {
            eprintln!("ingest: failed to save `{path}`: {e}");
            return 1;
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "ingest: shard {shard}: {num_tables} tables, {} candidates -> {path} \
             ({bytes} bytes) in {ms:.1} ms",
            repo.candidates().len(),
        );
    }
    0
}

/// The daemon half of the incremental-ingest split: load the repository file
/// written by `ingest --base`, append the corpus tail rows through the
/// `O(changed)` builder path, and extend the file in place with one append
/// group — no section of the base artifact is rewritten.
fn cmd_ingest_append(repo_path: &str, rows: usize) -> i32 {
    let start = Instant::now();
    let mut repo = match TableRepository::load(repo_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ingest --append: failed to load `{repo_path}`: {e}");
            return 1;
        }
    };
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    if !repo.is_appendable() {
        eprintln!("ingest --append: `{repo_path}` is sealed or carries no builder state");
        return 1;
    }

    let tail = corpus::tail_tables(rows);
    let start = Instant::now();
    let appended = match repo.append_tables(&tail) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("ingest --append: append failed: {e}");
            return 1;
        }
    };
    let append_ms = start.elapsed().as_secs_f64() * 1e3;

    let before = std::fs::metadata(repo_path).map(|m| m.len()).unwrap_or(0);
    let start = Instant::now();
    if let Err(e) = repo.append_to(repo_path) {
        eprintln!("ingest --append: failed to extend `{repo_path}`: {e}");
        return 1;
    }
    let write_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = std::fs::metadata(repo_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "ingest --append: loaded in {load_ms:.1} ms, appended {appended} rows across {} \
         tables in {append_ms:.1} ms",
        corpus::NUM_TABLES
    );
    println!(
        "ingest --append: extended {repo_path} in place in {write_ms:.1} ms \
         ({before} -> {after} bytes)"
    );
    0
}

// ---------------------------------------------------------------------------
// query: the online half (run in a separate process).
// ---------------------------------------------------------------------------

fn cmd_query(args: &[String]) -> i32 {
    let Some(repo_path) = flag_value(args, "--repo") else {
        eprintln!("query: --repo PATH is required");
        return 2;
    };
    let verify = args.iter().any(|a| a == "--verify-in-memory");

    let start = Instant::now();
    let snapshot = match TableRepository::load_mmap_like(repo_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("query: failed to open `{repo_path}`: {e}");
            return 1;
        }
    };
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "query: opened {repo_path} in {open_ms:.2} ms ({} candidates from {} tables)",
        snapshot.candidate_count(),
        snapshot.num_tables()
    );

    // The corpus row count is recoverable from the persisted profiles, so the
    // online process needs no --quick flag to stay consistent with ingest.
    let Some(rows) = snapshot.profiles().first().map(|p| p.rows) else {
        eprintln!("query: repository holds no tables");
        return 1;
    };
    let query = corpus::standard_query(rows);

    let start = Instant::now();
    let from_disk = match query.execute(&snapshot) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("query: failed: {e}");
            return 1;
        }
    };
    let query_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "query: ranked {} candidates in {query_ms:.2} ms ({} sketches decoded lazily)",
        from_disk.len(),
        snapshot.decoded_candidates()
    );
    for r in from_disk.iter().take(5) {
        println!(
            "  {:<28} mi={:.4}  join={}",
            r.label(),
            r.mi,
            r.sketch_join_size
        );
    }

    if verify {
        let repo = corpus::build_repository(rows);
        let in_memory = match query.execute(&repo) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("query: in-memory verification build failed: {e}");
                return 1;
            }
        };
        if repo.candidates().len() != snapshot.candidate_count() {
            eprintln!(
                "persistence-roundtrip: FAILED — candidate count {} on disk vs {} in memory",
                snapshot.candidate_count(),
                repo.candidates().len()
            );
            return 1;
        }
        let disk_fp = corpus::ranking_fingerprint(&from_disk);
        let mem_fp = corpus::ranking_fingerprint(&in_memory);
        if disk_fp != mem_fp {
            eprintln!(
                "persistence-roundtrip: FAILED — persisted ranking diverges from in-memory \
                 ({} vs {} results)",
                disk_fp.len(),
                mem_fp.len()
            );
            for (d, m) in disk_fp.iter().zip(&mem_fp).take(5) {
                eprintln!("  disk {d:?} vs mem {m:?}");
            }
            return 1;
        }
        println!(
            "persistence-roundtrip: OK — {} ranked candidates bit-for-bit identical to the \
             in-memory build",
            disk_fp.len()
        );
    }
    0
}

// ---------------------------------------------------------------------------
// compact: fold a repository's append log in place.
// ---------------------------------------------------------------------------

/// Rewrites a repository file with accumulated append groups into a fresh
/// flat base (atomic write-new-then-rename; see `docs/FORMAT.md`). With
/// `--seal` the rewrite also drops builder state: the file gets smaller and
/// permanently rejects appends. Prints the compaction report as JSON so
/// scripts (and the CI persistence-roundtrip leg) can assert on it.
fn cmd_compact(args: &[String]) -> i32 {
    let Some(repo_path) = flag_value(args, "--repo") else {
        eprintln!("compact: --repo PATH is required");
        return 2;
    };
    let seal = args.iter().any(|a| a == "--seal");
    let mode = if seal {
        joinmi_discovery::CompactMode::Seal
    } else {
        joinmi_discovery::CompactMode::Preserve
    };
    let start = Instant::now();
    match TableRepository::compact(repo_path, mode) {
        Ok(report) => {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "{{\"groups_folded\": {}, \"bytes_before\": {}, \"bytes_after\": {}, \
                 \"sealed\": {}, \"ms\": {ms:.1}}}",
                report.groups_folded, report.bytes_before, report.bytes_after, report.sealed
            );
            0
        }
        Err(e) => {
            eprintln!("compact: failed on `{repo_path}`: {e}");
            1
        }
    }
}

// ---------------------------------------------------------------------------
// serve-check: the daemon acceptance gate.
// ---------------------------------------------------------------------------

/// Queries a running `joinmi_serve` daemon over REST and asserts its ranking
/// is bit-for-bit identical to querying the whole corpus in process through
/// one repository. This is the serving leg of the `persistence-roundtrip` CI
/// job: JSON, HTTP, sharding, the merge, and both caches sit between the
/// two rankings, and `mi_bits` pins them to exact agreement. Beyond the
/// result-cache repeat, a `top_k` variant exercises the cross-query stage
/// cache: it must re-rank (`cached: false`), replay cached estimates
/// (`stage_cache.estimate_hits` moves on `/v1/shards`), and produce the
/// bit-for-bit prefix of the cold ranking.
fn cmd_serve_check(args: &[String]) -> i32 {
    let Some(url) = flag_value(args, "--url") else {
        eprintln!("serve-check: --url HOST:PORT is required");
        return 2;
    };
    let quick = args.iter().any(|a| a == "--quick");
    let rows = corpus::rows_for(quick);

    if let Err(e) = joinmi_serve::wait_healthy(url, std::time::Duration::from_secs(10)) {
        eprintln!("serve-check: daemon at {url} never became healthy: {e}");
        return 1;
    }

    // The expected ranking: the whole corpus in one in-process repository.
    let expected = corpus::ranking_fingerprint(
        &corpus::standard_query(rows)
            .execute(&corpus::build_repository(rows))
            .expect("in-process query"),
    );

    // The same query over the wire.
    let train = corpus::query_table(rows);
    let wire_rows: Vec<String> = (0..train.num_rows())
        .map(|i| {
            let key = train.value(i, "key").expect("key column");
            let target = train.value(i, "target").expect("target column");
            format!(
                "[\"{}\", {}]",
                key.as_str().expect("string key"),
                target.as_i64().expect("int target")
            )
        })
        .collect();
    let body = format!(
        r#"{{"key_column": "key", "target_column": "target", "rows": [{}],
            "top_k": 0, "min_join_size": 10,
            "sketch_kind": "TUPSK", "sketch_size": 512, "sketch_seed": 3}}"#,
        wire_rows.join(", ")
    );

    let request = |label: &str| -> Result<Json, String> {
        let start = Instant::now();
        let (status, text) = joinmi_serve::client_request(url, "POST", "/v1/query", &body)
            .map_err(|e| format!("{label}: request failed: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if status != 200 {
            return Err(format!("{label}: status {status}: {text}"));
        }
        let doc = Json::parse(&text).map_err(|e| format!("{label}: bad response JSON: {e}"))?;
        println!(
            "serve-check: {label} answered in {ms:.1} ms (cached: {:?})",
            doc.get("cached")
        );
        Ok(doc)
    };
    let wire_fingerprint = |doc: &Json| -> Result<Vec<(usize, u64, usize, usize)>, String> {
        doc.get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| "response has no results array".to_owned())?
            .iter()
            .map(|row| {
                let field = |name: &str| {
                    row.get(name)
                        .and_then(Json::as_i64)
                        .map(|v| v as usize)
                        .ok_or_else(|| format!("result row missing `{name}`"))
                };
                let bits_hex = row
                    .get("mi_bits")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "result row missing `mi_bits`".to_owned())?;
                let bits = u64::from_str_radix(bits_hex.trim_start_matches("0x"), 16)
                    .map_err(|e| format!("bad mi_bits `{bits_hex}`: {e}"))?;
                Ok((
                    field("candidate_index")?,
                    bits,
                    field("join_size")?,
                    field("key_overlap")?,
                ))
            })
            .collect()
    };

    // Stage-cache hit counter from GET /v1/shards (the shared cross-query
    // cache both report endpoints surface).
    let estimate_hits = || -> Result<i64, String> {
        let (status, text) = joinmi_serve::client_request(url, "GET", "/v1/shards", "")
            .map_err(|e| format!("GET /v1/shards failed: {e}"))?;
        if status != 200 {
            return Err(format!("GET /v1/shards: status {status}: {text}"));
        }
        let doc = Json::parse(&text).map_err(|e| format!("bad /v1/shards JSON: {e}"))?;
        doc.get("stage_cache")
            .and_then(|s| s.get("estimate_hits"))
            .and_then(Json::as_i64)
            .ok_or_else(|| "/v1/shards has no stage_cache.estimate_hits".to_owned())
    };

    let check = || -> Result<(), String> {
        let first = request("cold query")?;
        if wire_fingerprint(&first)? != expected {
            return Err(format!(
                "REST ranking diverges from the in-process ranking ({} vs {} results)",
                wire_fingerprint(&first)?.len(),
                expected.len()
            ));
        }
        // The repeat must come from the result cache, bit-identically.
        let second = request("repeat query")?;
        if second.get("cached") != Some(&Json::Bool(true)) {
            return Err("repeated query was not served from the cache".to_owned());
        }
        if wire_fingerprint(&second)? != expected {
            return Err("cached ranking diverges from the in-process ranking".to_owned());
        }
        if first.get("generation") != second.get("generation") {
            return Err("generation changed between identical queries".to_owned());
        }

        // A top_k variant misses the result cache (different wire
        // fingerprint) but hits the cross-query stage cache: every estimate
        // replays from the cache, and the truncated ranking must be the
        // bit-for-bit prefix of the full one.
        let hits_before = estimate_hits()?;
        let variant_body = body.replace(r#""top_k": 0"#, r#""top_k": 5"#);
        let start = Instant::now();
        let (status, text) = joinmi_serve::client_request(url, "POST", "/v1/query", &variant_body)
            .map_err(|e| format!("top_k variant: request failed: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if status != 200 {
            return Err(format!("top_k variant: status {status}: {text}"));
        }
        let third = Json::parse(&text).map_err(|e| format!("top_k variant: bad JSON: {e}"))?;
        println!(
            "serve-check: top_k variant answered in {ms:.1} ms (cached: {:?})",
            third.get("cached")
        );
        if third.get("cached") == Some(&Json::Bool(true)) {
            return Err("top_k variant unexpectedly hit the result cache".to_owned());
        }
        let truncated = wire_fingerprint(&third)?;
        if truncated != expected[..5.min(expected.len())] {
            return Err(
                "stage-cache hit ranking is not the bit-for-bit prefix of the cold ranking"
                    .to_owned(),
            );
        }
        let hits_after = estimate_hits()?;
        if hits_after <= hits_before {
            return Err(format!(
                "stage-cache estimate_hits did not move ({hits_before} -> {hits_after}); \
                 the re-ranked variant should have replayed cached estimates"
            ));
        }
        println!(
            "serve-check: stage-cache estimate_hits {hits_before} -> {hits_after} \
             across the re-ranked variant"
        );

        // An interval variant: `confidence` is part of the query identity
        // (its own result-cache entry), every result gains credible-interval
        // fields bracketing the point estimate, and the ranking stays the
        // bit-for-bit point ranking — intervals are decoration, not a
        // different order.
        let interval_body = body.replace(r#""top_k": 0"#, r#""confidence": 0.95, "top_k": 0"#);
        let start = Instant::now();
        let (status, text) = joinmi_serve::client_request(url, "POST", "/v1/query", &interval_body)
            .map_err(|e| format!("interval variant: request failed: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if status != 200 {
            return Err(format!("interval variant: status {status}: {text}"));
        }
        let fourth = Json::parse(&text).map_err(|e| format!("interval variant: bad JSON: {e}"))?;
        println!(
            "serve-check: interval variant answered in {ms:.1} ms (cached: {:?})",
            fourth.get("cached")
        );
        if fourth.get("cached") == Some(&Json::Bool(true)) {
            return Err("interval variant unexpectedly hit the result cache".to_owned());
        }
        if wire_fingerprint(&fourth)? != expected {
            return Err("interval ranking diverges from the point ranking".to_owned());
        }
        let rows = fourth
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| "interval response has no results array".to_owned())?;
        for row in rows {
            let field = |name: &str| {
                row.get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("interval result row missing `{name}`"))
            };
            let (mi, var, lo, hi) = (
                field("mi")?,
                field("mi_var")?,
                field("ci_lo")?,
                field("ci_hi")?,
            );
            if !(var >= 0.0 && lo <= mi && mi <= hi) {
                return Err(format!(
                    "interval result violates 0 ≤ var, ci_lo ≤ mi ≤ ci_hi: \
                     mi={mi}, var={var}, ci_lo={lo}, ci_hi={hi}"
                ));
            }
        }
        println!(
            "serve-check: interval variant decorated {} results (ci_lo ≤ mi ≤ ci_hi verified)",
            rows.len()
        );

        // The early-termination / pruning counters must be surfaced.
        let (status, text) = joinmi_serve::client_request(url, "GET", "/v1/shards", "")
            .map_err(|e| format!("GET /v1/shards failed: {e}"))?;
        if status != 200 {
            return Err(format!("GET /v1/shards: status {status}: {text}"));
        }
        let doc = Json::parse(&text).map_err(|e| format!("bad /v1/shards JSON: {e}"))?;
        for counter in ["early_stopped", "pruned"] {
            if doc.get(counter).and_then(Json::as_i64).is_none() {
                return Err(format!("/v1/shards is missing the `{counter}` counter"));
            }
        }
        Ok(())
    };
    match check() {
        Ok(()) => {
            println!(
                "serve-check: OK — {} ranked candidates over REST bit-for-bit identical to \
                 the in-process query, result-cache and stage-cache hits verified",
                expected.len()
            );
            0
        }
        Err(e) => {
            eprintln!("serve-check: FAILED — {e}");
            1
        }
    }
}

// ---------------------------------------------------------------------------
// compare: the CI bench-regression gate.
// ---------------------------------------------------------------------------

fn cmd_compare(args: &[String]) -> i32 {
    let (Some(baseline_path), Some(current_path)) = (
        flag_value(args, "--baseline"),
        flag_value(args, "--current"),
    ) else {
        eprintln!("compare: --baseline PATH and --current PATH are required");
        return 2;
    };
    let max_regression: f64 = match flag_value(args, "--max-regression")
        .unwrap_or("0.25")
        .parse()
    {
        Ok(v) => v,
        Err(_) => {
            eprintln!("compare: --max-regression must be a number (e.g. 0.25)");
            return 2;
        }
    };

    let read_entries = |path: &str| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read `{path}`: {e}"))?;
        quickjson::parse(&text).map_err(|e| format!("parse `{path}`: {e}"))
    };
    let (baseline, current) = match (read_entries(baseline_path), read_entries(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 1;
        }
    };

    let report = match quickjson::compare_quick_bench(&baseline, &current, max_regression) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compare: {e}");
            return 1;
        }
    };

    println!(
        "compare: {baseline_path} (baseline) vs {current_path} (current), threshold +{:.0}%",
        max_regression * 100.0
    );
    for c in &report.checked {
        println!(
            "  {:<40} {:>12.0} -> {:>12.0} ns  x{:.3}  {}",
            c.name,
            c.baseline,
            c.current,
            c.ratio,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for s in &report.skipped {
        println!("  skipped: {s}");
    }
    for n in &report.new_benches {
        println!("  new (no baseline): {n}");
    }
    if report.has_regression() {
        eprintln!(
            "compare: bench regression beyond +{:.0}%",
            max_regression * 100.0
        );
        return 1;
    }
    println!("compare: no regressions");
    0
}

// ---------------------------------------------------------------------------
// Benchmark mode.
// ---------------------------------------------------------------------------

fn cmd_bench(args: &[String]) -> i32 {
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let out_path = flag_value(args, "--out").unwrap_or("BENCH_PR17.json");

    // Quick mode: smaller tables and fewer repetitions; default mode uses the
    // criterion-bench sizes for closer comparability.
    let (rows, iters) = if quick { (5_000, 7) } else { (20_000, 15) };
    let mut results: Vec<(String, f64)> = Vec::new();

    bench_targets(rows, iters, &mut results);
    pipeline_workload(quick, &mut results);
    store_workload(quick, &mut results);
    cache_workload(quick, &mut results);
    query_workload(quick, &mut results);
    calibration_smoke(&mut results);
    results.push((
        quickjson::HOST_PARALLELISM_KEY.to_owned(),
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    ));

    let width = results.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, value) in &results {
        println!("{name:width$}  {value:>14.0}");
    }

    if json {
        let rendered = quickjson::render(&results);
        std::fs::write(out_path, rendered).expect("write bench JSON");
        println!("\nwrote {out_path}");
    }
    0
}

/// Median wall time of `iters` runs of `f`, in nanoseconds.
fn median_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Compressed versions of the six criterion bench targets.
fn bench_targets(rows: usize, iters: usize, results: &mut Vec<(String, f64)>) {
    let workload = trinomial_workload(rows, KeyDistribution::KeyInd, 7);
    let pair = &workload.pair;
    let cfg = SketchConfig::new(256, 7);

    // sketch_build: left-side TUPSK construction.
    results.push((
        format!("sketch_build/tupsk_left_{rows}_rows"),
        median_ns(iters, || {
            SketchKind::Tupsk
                .build_left(&pair.train, &pair.key_column, &pair.target_column, &cfg)
                .expect("sketch build")
                .len()
        }),
    ));

    let left = SketchKind::Tupsk
        .build_left(&pair.train, &pair.key_column, &pair.target_column, &cfg)
        .expect("left sketch");
    let right = SketchKind::Tupsk
        .build_right(
            &pair.cand,
            &pair.key_column,
            &pair.feature_column,
            pair.aggregation,
            &cfg,
        )
        .expect("right sketch");

    // sketch_join: probe + pair recovery only.
    results.push((
        "sketch_join/tupsk_n256".to_owned(),
        median_ns(iters * 4, || left.join(&right).len()),
    ));

    // estimators: MLE on the recovered sample.
    let joined = left.join(&right);
    results.push((
        "estimators/mle_on_sketch_join".to_owned(),
        median_ns(iters, || EstimatorMode::Mle.estimate_joined(&joined, 0)),
    ));

    // The same two rows with both columns as strings: the join gathers the
    // sketches' interned codes instead of numeric coordinates.
    let as_str = |values: &[Value]| -> Vec<Value> {
        values
            .iter()
            .map(|v| Value::from(format!("v{v}")))
            .collect()
    };
    let str_pair = decompose(
        &as_str(&workload.xs),
        &as_str(&workload.ys),
        KeyDistribution::KeyInd,
    );
    let str_left = SketchKind::Tupsk
        .build_left(
            &str_pair.train,
            &str_pair.key_column,
            &str_pair.target_column,
            &cfg,
        )
        .expect("left sketch");
    let str_right = SketchKind::Tupsk
        .build_right(
            &str_pair.cand,
            &str_pair.key_column,
            &str_pair.feature_column,
            str_pair.aggregation,
            &cfg,
        )
        .expect("right sketch");
    results.push((
        "sketch_join/tupsk_n256_str".to_owned(),
        median_ns(iters * 4, || str_left.join(&str_right).len()),
    ));
    let str_joined = str_left.join(&str_right);
    results.push((
        "estimators/mle_on_sketch_join_str".to_owned(),
        median_ns(iters, || EstimatorMode::Mle.estimate_joined(&str_joined, 0)),
    ));

    // full_vs_sketch: the §V-D head-to-head, both sides.
    let spec = AugmentSpec::new(
        pair.key_column.clone(),
        pair.target_column.clone(),
        pair.key_column.clone(),
        pair.feature_column.clone(),
        pair.aggregation,
    );
    results.push((
        format!("full_vs_sketch/full_join_and_estimate_{rows}"),
        median_ns(iters.min(5), || {
            let joined = augment(&pair.train, &pair.cand, &spec).expect("full join");
            let feature = spec.feature_column_name();
            let xs: Vec<_> = (0..joined.table.num_rows())
                .map(|i| joined.table.value(i, &feature).expect("column"))
                .collect();
            let ys: Vec<_> = (0..joined.table.num_rows())
                .map(|i| joined.table.value(i, &pair.target_column).expect("column"))
                .collect();
            EstimatorMode::Mle.estimate(&xs, &ys, 0)
        }),
    ));
    results.push((
        format!("full_vs_sketch/sketch_join_and_estimate_{rows}"),
        median_ns(iters, || {
            let joined = left.join(&right);
            EstimatorMode::Mle.estimate_joined(&joined, 0)
        }),
    ));

    // table_ops: the materialized augmentation join alone.
    results.push((
        format!("table_ops/augment_{rows}"),
        median_ns(iters.min(5), || {
            augment(&pair.train, &pair.cand, &spec)
                .expect("full join")
                .matched_rows
        }),
    ));

    // ablation: sketch size sweep (build + join + estimate at n = 1024).
    let big_cfg = SketchConfig::new(1024, 7);
    results.push((
        "ablation/tupsk_n1024_build_join_estimate".to_owned(),
        median_ns(iters.min(5), || {
            let l = SketchKind::Tupsk
                .build_left(&pair.train, &pair.key_column, &pair.target_column, &big_cfg)
                .expect("left");
            let r = SketchKind::Tupsk
                .build_right(
                    &pair.cand,
                    &pair.key_column,
                    &pair.feature_column,
                    pair.aggregation,
                    &big_cfg,
                )
                .expect("right");
            let joined = l.join(&r);
            EstimatorMode::Mle.estimate_joined(&joined, 0)
        }),
    ));

    knn_kernel_targets(iters, results);
}

/// The PR 4 kernel-engine targets: the blocked Chebyshev k-NN kernel and the
/// KSG estimator on a correlated pair at n = 4096 (the regime where the
/// window expansion does real work), plus the pre-refactor scalar kernel so
/// every bench run records the blocked-vs-scalar speedup on its own host.
fn knn_kernel_targets(iters: usize, results: &mut Vec<(String, f64)>) {
    let (xs, ys) = joinmi_bench::knn_correlated_pair(4096);

    let scalar_ns = median_ns(iters, || {
        joinmi_estimators::knn::kth_nn_distances_chebyshev_scalar(&xs, &ys, 3)
    });
    let blocked_ns = median_ns(iters, || {
        joinmi_estimators::knn::kth_nn_distances_chebyshev(&xs, &ys, 3)
    });
    let ksg_ns = median_ns(iters, || {
        joinmi_estimators::ksg_mi(&xs, &ys, 3).expect("ksg estimate")
    });

    results.push(("knn/chebyshev_n4096".to_owned(), blocked_ns));
    results.push(("knn/chebyshev_n4096_scalar".to_owned(), scalar_ns));
    results.push((
        "knn/blocked_speedup_vs_scalar".to_owned(),
        if blocked_ns > 0.0 {
            scalar_ns / blocked_ns
        } else {
            0.0
        },
    ));
    results.push(("estimators/ksg_n4096".to_owned(), ksg_ns));
}

/// The acceptance workload: ingest 32 tables × 8 feature columns, then run
/// one ranked query — at 1 thread and at 4 — asserting identical results.
fn pipeline_workload(quick: bool, results: &mut Vec<(String, f64)>) {
    let reps = if quick { 3 } else { 5 };
    let rows = corpus::rows_for(quick);
    let tables = corpus::candidate_tables(rows);
    let query = corpus::standard_query(rows);

    let run_once = |tables: Vec<joinmi_table::Table>| {
        let mut repo = TableRepository::new(corpus::repo_config());
        let added = repo.add_tables(tables).expect("ingest");
        let ranking = query.execute(&repo).expect("query");
        (added, repo, ranking)
    };
    // Clone the input tables *outside* the timed region: the memcpy is the
    // same at any thread count and would dilute the measured speedup.
    let timed_median = |reps: usize| {
        let mut samples: Vec<u128> = (0..reps.max(1))
            .map(|_| {
                let fresh = tables.clone();
                let start = Instant::now();
                std::hint::black_box(run_once(fresh));
                start.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    };

    let (added, repo_seq, ranking_seq) = joinmi_par::with_threads(1, || run_once(tables.clone()));
    assert_eq!(
        added,
        corpus::NUM_TABLES * corpus::FEATURES_PER_TABLE,
        "expected {} candidate pairs per table",
        corpus::FEATURES_PER_TABLE
    );
    let t1_ns = joinmi_par::with_threads(1, || timed_median(reps));

    let (_, repo_par, ranking_par) = joinmi_par::with_threads(4, || run_once(tables.clone()));
    let t4_ns = joinmi_par::with_threads(4, || timed_median(reps));

    // Bit-for-bit identity between the sequential and 4-thread pipelines.
    let identical = repo_seq.candidates().len() == repo_par.candidates().len()
        && repo_seq
            .candidates()
            .iter()
            .zip(repo_par.candidates())
            .all(|(a, b)| a.label() == b.label() && a.sketch.rows() == b.sketch.rows())
        && corpus::ranking_fingerprint(&ranking_seq) == corpus::ranking_fingerprint(&ranking_par);
    assert!(identical, "parallel pipeline diverged from sequential");

    results.push(("pipeline/ingest32x8_query/threads=1".to_owned(), t1_ns));
    results.push(("pipeline/ingest32x8_query/threads=4".to_owned(), t4_ns));
    results.push((
        "pipeline/speedup_t4_over_t1".to_owned(),
        if t4_ns > 0.0 { t1_ns / t4_ns } else { 0.0 },
    ));
    results.push((
        "pipeline/parallel_identical".to_owned(),
        f64::from(u8::from(identical)),
    ));
}

/// The persistence workload: save the 32×8 repository, load it back (eager
/// and mmap-like), and compare loading against re-ingesting the same corpus.
///
/// `store/load_speedup_vs_ingest` is the headline number of the offline →
/// online split: how much faster a restart answers its first query when the
/// sketches come from disk instead of being rebuilt from raw tables.
fn store_workload(quick: bool, results: &mut Vec<(String, f64)>) {
    let reps = if quick { 3 } else { 5 };
    let rows = corpus::rows_for(quick);
    let tables = corpus::candidate_tables(rows);
    let query = corpus::standard_query(rows);

    // Re-ingest: sketch the whole corpus from raw tables (no query).
    let reingest_ns = median_ns(reps, || {
        let mut repo = TableRepository::new(corpus::repo_config());
        repo.add_tables(tables.clone()).expect("ingest").to_string()
    });

    let mut repo = TableRepository::new(corpus::repo_config());
    repo.add_tables(tables.clone()).expect("ingest");
    let in_memory_fp = corpus::ranking_fingerprint(&query.execute(&repo).expect("query"));

    let path = std::env::temp_dir().join(format!("joinmi-bench-{}.jmi", std::process::id()));
    let save_ns = median_ns(reps, || repo.save(&path).expect("save repo"));
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let load_ns = median_ns(reps, || TableRepository::load(&path).expect("load repo"));
    let open_ns = median_ns(reps, || {
        TableRepository::load_mmap_like(&path)
            .expect("open repo")
            .candidate_count()
    });

    // Guard: the loaded repository must answer the standard query
    // bit-identically to the in-memory build.
    let loaded = TableRepository::load(&path).expect("load repo");
    let loaded_fp = corpus::ranking_fingerprint(&query.execute(&loaded).expect("query"));
    assert_eq!(in_memory_fp, loaded_fp, "persisted repository diverged");
    let _ = std::fs::remove_file(&path);

    // Incremental ingest: appending the 1% corpus tail to the base
    // repository via the O(changed) builder path, versus re-sketching the
    // whole corpus from raw tables. Each rep clones the pre-built base
    // repository outside the timed region (append mutates it).
    let tail = corpus::tail_tables(rows);
    let mut base_repo = TableRepository::new(corpus::repo_config());
    base_repo
        .add_tables(corpus::base_tables(rows))
        .expect("base ingest");
    // The daemon flow appends to a repository loaded from disk (sketch-only,
    // builder state restored), not to the in-memory original.
    let base_path =
        std::env::temp_dir().join(format!("joinmi-bench-base-{}.jmi", std::process::id()));
    base_repo.save(&base_path).expect("save base repo");
    let loaded_base = TableRepository::load(&base_path).expect("load base repo");
    let _ = std::fs::remove_file(&base_path);
    // Clone the loaded repository *outside* the timed region (append mutates
    // it; the clone is setup cost, not part of the daemon's append work).
    let append_ns = {
        let mut samples: Vec<u128> = (0..reps.max(1))
            .map(|_| {
                let mut fresh = loaded_base.clone();
                let start = Instant::now();
                std::hint::black_box(fresh.append_tables(&tail).expect("append tail"));
                start.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    };

    // Guard: append-then-query must be bit-for-bit identical to the one-shot
    // ingest of the full corpus.
    let mut appended_repo = loaded_base.clone();
    appended_repo.append_tables(&tail).expect("append tail");
    let appended_fp = corpus::ranking_fingerprint(&query.execute(&appended_repo).expect("query"));
    assert_eq!(
        in_memory_fp, appended_fp,
        "incremental append diverged from one-shot ingest"
    );

    // Compaction: an on-disk file carrying the corpus-tail append group,
    // folded into a fresh flat base. `store/compacted_load_speedup` — the
    // eager-load median of the appended file over that of its
    // compacted+sealed rewrite — is the gated headline: what a restart gains
    // when the append log was folded before reopening.
    let appended_path =
        std::env::temp_dir().join(format!("joinmi-bench-appended-{}.jmi", std::process::id()));
    base_repo.save(&appended_path).expect("save base repo");
    {
        let mut extender = TableRepository::load(&appended_path).expect("load for append");
        extender.append_tables(&tail).expect("append tail");
        extender.append_to(&appended_path).expect("extend file");
    }
    let appended_file = std::fs::read(&appended_path).expect("read appended file");
    let load_appended_ns = median_ns(reps, || {
        TableRepository::load(&appended_path).expect("load appended repo")
    });

    // compact_repo: compaction mutates the file, so each rep stages a fresh
    // copy outside the timed region.
    let scratch_path =
        std::env::temp_dir().join(format!("joinmi-bench-compact-{}.jmi", std::process::id()));
    let compact_ns = {
        let mut samples: Vec<u128> = (0..reps.max(1))
            .map(|_| {
                std::fs::write(&scratch_path, &appended_file).expect("stage scratch copy");
                let start = Instant::now();
                std::hint::black_box(
                    TableRepository::compact(
                        &scratch_path,
                        joinmi_discovery::CompactMode::Preserve,
                    )
                    .expect("compact"),
                );
                start.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    };

    // The sealed rewrite: the smallest on-disk form a repository can take.
    std::fs::write(&scratch_path, &appended_file).expect("stage scratch copy");
    let report = TableRepository::compact(&scratch_path, joinmi_discovery::CompactMode::Seal)
        .expect("seal compact");
    assert!(
        report.sealed && report.groups_folded > 0,
        "seal compaction must fold the staged append group"
    );
    let load_compacted_ns = median_ns(reps, || {
        TableRepository::load(&scratch_path).expect("load compacted repo")
    });

    // Guard: the sealed, compacted artifact still ranks bit-for-bit
    // identically to the in-memory build.
    let compacted = TableRepository::load(&scratch_path).expect("load compacted repo");
    let compacted_fp = corpus::ranking_fingerprint(&query.execute(&compacted).expect("query"));
    assert_eq!(in_memory_fp, compacted_fp, "compaction changed the ranking");
    let _ = std::fs::remove_file(&appended_path);
    let _ = std::fs::remove_file(&scratch_path);

    results.push(("store/save_repo".to_owned(), save_ns));
    results.push(("store/load_repo".to_owned(), load_ns));
    results.push(("store/open_mmap_like".to_owned(), open_ns));
    results.push(("store/reingest32x8".to_owned(), reingest_ns));
    results.push((
        "store/load_speedup_vs_ingest".to_owned(),
        if load_ns > 0.0 {
            reingest_ns / load_ns
        } else {
            0.0
        },
    ));
    results.push(("store/append_tail_1pct".to_owned(), append_ns));
    results.push((
        "store/append_vs_reingest".to_owned(),
        if append_ns > 0.0 {
            reingest_ns / append_ns
        } else {
            0.0
        },
    ));
    results.push(("store/load_appended".to_owned(), load_appended_ns));
    results.push(("store/compact_repo".to_owned(), compact_ns));
    results.push(("store/load_compacted".to_owned(), load_compacted_ns));
    results.push((
        "store/compacted_load_speedup".to_owned(),
        if load_compacted_ns > 0.0 {
            load_appended_ns / load_compacted_ns
        } else {
            0.0
        },
    ));
    results.push(("store/file_bytes".to_owned(), file_bytes as f64));
}

/// The PR 7 cross-query stage-cache workload: the standard ranked query cold
/// (no cache), warm at the estimate level (every candidate served from the
/// cached MI estimate, estimator never runs), and warm at the join level
/// (estimates cleared outside the timed region each rep, so the run
/// re-estimates from cached joined sketches).
///
/// `cache/estimate_hit_speedup` is the gated headline number
/// (`cache/join_hit_speedup` is reported alongside it); every warm run is asserted bit-for-bit identical to the
/// cold ranking, so a cache that got faster by getting *wrong* fails here
/// before it ever reaches CI's identity gates.
fn cache_workload(quick: bool, results: &mut Vec<(String, f64)>) {
    let reps = if quick { 5 } else { 9 };
    let rows = corpus::rows_for(quick);
    let repo = corpus::build_repository(rows);
    let query = corpus::standard_query(rows);
    let mut ws = joinmi_estimators::EstimatorWorkspace::new();

    let cold_fp = corpus::ranking_fingerprint(&query.execute_in(&repo, &mut ws).expect("query"));
    let cold_ns = median_ns(reps, || {
        query.execute_in(&repo, &mut ws).expect("query").len()
    });

    let cache =
        joinmi_discovery::QueryStageCache::new(joinmi_discovery::StageCacheConfig::default());
    let scope = cache.scope(0);
    // Warm the cache once (populates both levels), checking identity.
    let warm = query
        .execute_in_cached(&repo, &mut ws, Some(&scope))
        .expect("warming query");
    assert_eq!(
        cold_fp,
        corpus::ranking_fingerprint(&warm),
        "cached ranking diverged from cold"
    );

    // Estimate-level hits: the estimator and the sketch join are both skipped.
    let estimate_hit_ns = median_ns(reps, || {
        query
            .execute_in_cached(&repo, &mut ws, Some(&scope))
            .expect("warm query")
            .len()
    });
    let warm_fp = corpus::ranking_fingerprint(
        &query
            .execute_in_cached(&repo, &mut ws, Some(&scope))
            .expect("warm query"),
    );
    assert_eq!(cold_fp, warm_fp, "estimate-hit ranking diverged from cold");

    // Join-level hits: clearing the estimate level *outside* the timed region
    // forces each rep to re-run the estimator on cached joined sketches.
    let join_hit_ns = {
        let mut samples: Vec<u128> = (0..reps.max(1))
            .map(|_| {
                cache.clear_estimates();
                let start = Instant::now();
                std::hint::black_box(
                    query
                        .execute_in_cached(&repo, &mut ws, Some(&scope))
                        .expect("join-warm query")
                        .len(),
                );
                start.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2] as f64
    };
    cache.clear_estimates();
    let join_warm_fp = corpus::ranking_fingerprint(
        &query
            .execute_in_cached(&repo, &mut ws, Some(&scope))
            .expect("join-warm query"),
    );
    assert_eq!(cold_fp, join_warm_fp, "join-hit ranking diverged from cold");
    let stats = cache.stats();
    assert!(
        stats.estimate_hits > 0 && stats.join_hits > 0,
        "cache workload never hit the cache (stats: {stats:?})"
    );

    results.push(("cache/cold_execute".to_owned(), cold_ns));
    results.push(("cache/estimate_hit".to_owned(), estimate_hit_ns));
    results.push(("cache/join_hit".to_owned(), join_hit_ns));
    results.push((
        "cache/estimate_hit_speedup".to_owned(),
        if estimate_hit_ns > 0.0 {
            cold_ns / estimate_hit_ns
        } else {
            0.0
        },
    ));
    results.push((
        "cache/join_hit_speedup".to_owned(),
        if join_hit_ns > 0.0 {
            cold_ns / join_hit_ns
        } else {
            0.0
        },
    ));
}

/// The PR 10 uncertainty-ranking workload: interval top-k with early
/// termination vs. exhaustive interval scoring over the skewed corpus
/// (strong tie group + long weak tail — see [`corpus::skewed_tables`]).
/// Verifies before timing that the early-terminating top-k is bit-for-bit
/// the truncated exhaustive ranking and that termination actually fired.
fn query_workload(quick: bool, results: &mut Vec<(String, f64)>) {
    let reps = if quick { 5 } else { 9 };
    let weak = corpus::skewed_weak_for(quick);
    let mut repo = TableRepository::new(corpus::skewed_config());
    repo.add_tables(corpus::skewed_tables(weak))
        .expect("ingest");

    let exhaustive = corpus::skewed_query().with_top_k(0);
    let topk = corpus::skewed_query().with_top_k(3);

    let (mut ex, _) = exhaustive
        .execute_cached_stats(&repo, None)
        .expect("exhaustive interval query");
    let (tk, stats) = topk
        .execute_cached_stats(&repo, None)
        .expect("top-k interval query");
    assert!(
        stats.early_stopped > 0,
        "interval top-k never early-terminated (stats: {stats:?})"
    );
    ex.truncate(tk.len());
    assert_eq!(
        corpus::ranking_fingerprint(&ex),
        corpus::ranking_fingerprint(&tk),
        "early-terminated top-k diverged from the exhaustive ranking"
    );

    let exhaustive_ns = median_ns(reps, || {
        exhaustive.execute(&repo).expect("exhaustive").len()
    });
    let early_ns = median_ns(reps, || topk.execute(&repo).expect("top-k").len());

    results.push(("query/exhaustive_interval".to_owned(), exhaustive_ns));
    results.push(("query/early_term_topk".to_owned(), early_ns));
    results.push((
        "query/early_term_speedup".to_owned(),
        if early_ns > 0.0 {
            exhaustive_ns / early_ns
        } else {
            0.0
        },
    ));
}

/// Calibration smoke: the credible intervals that drive early termination
/// must stay calibrated. Runs a small sweep of the eval crate's calibration
/// experiment and records the worst per-cell coverage (percent) in the JSON;
/// fails loudly if any cell drops below half of nominal.
fn calibration_smoke(results: &mut Vec<(String, f64)>) {
    use joinmi_eval::experiments::calibration;

    let cfg = calibration::Config {
        trials: 8,
        corpus_rows: vec![1_000],
        null_fractions: vec![0.0, 0.3],
        reference_rows: 8_000,
        level: 0.9,
        seed: 42,
    };
    let series = calibration::run(&cfg);
    let mut worst = 1.0f64;
    for ((rows, nf), trials) in &series {
        assert!(
            !trials.is_empty(),
            "calibration cell {rows}/{nf} produced no trials"
        );
        let coverage = trials.iter().filter(|t| t.covered()).count() as f64 / trials.len() as f64;
        assert!(
            coverage >= cfg.level / 2.0,
            "calibration collapsed at {rows} rows / {nf}‰ NULLs: coverage {coverage:.2} \
             under nominal {}",
            cfg.level
        );
        worst = worst.min(coverage);
    }
    results.push((
        "calibration/worst_cell_coverage_pct".to_owned(),
        worst * 100.0,
    ));
}

// ---------------------------------------------------------------------------
// chaos: the deterministic fault-injection sweep.
// ---------------------------------------------------------------------------

/// Ranking fingerprint type shared by the chaos legs.
type Fp = Vec<(usize, u64, usize, usize)>;

/// The mutation under chaos: extend in place, or fold the append log.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ChaosOp {
    Append,
    Compact,
}

impl ChaosOp {
    fn name(self) -> &'static str {
        match self {
            ChaosOp::Append => "append_to",
            ChaosOp::Compact => "compact",
        }
    }
}

/// Sweeps every injectable IO site of `append_to` and `compact` — failing
/// the Nth create/write/fsync/rename/set-len/read, and silently flipping a
/// bit of the Nth written or read buffer — and asserts the durability
/// contract from `docs/FORMAT.md`: after the fault, reopening the file
/// (running `recover_truncated` first if the plain open refuses it) yields a
/// ranking bit-for-bit equal to either the pre-operation or post-operation
/// state. Never a hybrid, never silent corruption.
///
/// The sweep is deterministic: an observe pass counts the IO sites each
/// operation performs, then every site (sampled evenly above `--max-cases`
/// per site class, with the drop logged) is failed in its own run against a
/// pristine copy. `--seed` varies only which bit the flip legs corrupt.
/// This is the chaos leg of the `persistence-roundtrip` CI job.
fn cmd_chaos(args: &[String]) -> i32 {
    use joinmi_store::fault::{self, FaultAction, FaultKind, FaultPlan, Trigger};

    let rows: usize = match flag_value(args, "--rows").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(400),
        Err(_) => {
            eprintln!("chaos: --rows must be a number");
            return 2;
        }
    };
    let seed: u64 = match flag_value(args, "--seed").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(0xC4A0_5EED),
        Err(_) => {
            eprintln!("chaos: --seed must be a number");
            return 2;
        }
    };
    let max_cases: usize = match flag_value(args, "--max-cases").map(str::parse).transpose() {
        Ok(v) => v.unwrap_or(6).max(2),
        Err(_) => {
            eprintln!("chaos: --max-cases must be a number");
            return 2;
        }
    };

    let dir = std::env::temp_dir().join(format!("joinmi-chaos-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("chaos: cannot create workspace {}: {e}", dir.display());
        return 1;
    }
    let base_path = dir.join("base.jmi");
    let appended_path = dir.join("appended.jmi");
    let work_path = dir.join("work.jmi");
    let query = corpus::standard_query(rows);
    let tail = corpus::tail_tables(rows);

    let fingerprint_of = |path: &std::path::Path| -> Result<Fp, String> {
        let snapshot = TableRepository::load_mmap_like(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let ranking = query
            .execute(&snapshot)
            .map_err(|e| format!("query {}: {e}", path.display()))?;
        Ok(corpus::ranking_fingerprint(&ranking))
    };

    // Pristine pre/post states for both operations, built with no faults
    // armed. Compaction preserves the ranking, so its pre and post
    // fingerprints coincide — the sweep still checks membership so a hybrid
    // (partially folded) file cannot hide behind that coincidence.
    let mut base = TableRepository::new(corpus::repo_config());
    if let Err(e) = base.add_tables(corpus::base_tables(rows)) {
        eprintln!("chaos: building the base state failed: {e}");
        return 1;
    }
    if let Err(e) = base.save(&base_path) {
        eprintln!("chaos: saving the base state failed: {e}");
        return 1;
    }
    let fp_base = match fingerprint_of(&base_path) {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 1;
        }
    };
    if let Err(e) = std::fs::copy(&base_path, &appended_path) {
        eprintln!("chaos: staging the appended state failed: {e}");
        return 1;
    }
    let append_once = |path: &std::path::Path| -> Result<(), String> {
        let mut repo = TableRepository::load(path).map_err(|e| e.to_string())?;
        repo.append_tables(&tail).map_err(|e| e.to_string())?;
        repo.append_to(path).map_err(|e| e.to_string())
    };
    if let Err(e) = append_once(&appended_path) {
        eprintln!("chaos: building the appended state failed: {e}");
        return 1;
    }
    let fp_appended = match fingerprint_of(&appended_path) {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("chaos: {e}");
            return 1;
        }
    };
    println!(
        "chaos: corpus {rows} rows/table, base {} results, appended {} results, seed {seed:#x}",
        fp_base.len(),
        fp_appended.len()
    );

    // One faulted run: copy the pristine pre-state, do the unfaulted setup
    // (loading must not eat the injected fault), arm, mutate, disarm.
    let run_op = |op: ChaosOp, plan: FaultPlan| -> (Result<(), String>, fault::FaultStats) {
        let _ = std::fs::remove_file(&work_path);
        match op {
            ChaosOp::Append => {
                std::fs::copy(&base_path, &work_path).expect("staging the work file");
                let mut repo = TableRepository::load(&work_path).expect("pristine base must load");
                repo.append_tables(&tail).expect("in-memory append");
                let guard = fault::arm(plan);
                let result = repo.append_to(&work_path).map_err(|e| e.to_string());
                (result, guard.stats())
            }
            ChaosOp::Compact => {
                std::fs::copy(&appended_path, &work_path).expect("staging the work file");
                let guard = fault::arm(plan);
                let result =
                    TableRepository::compact(&work_path, joinmi_discovery::CompactMode::Preserve)
                        .map(|_| ())
                        .map_err(|e| e.to_string());
                (result, guard.stats())
            }
        }
    };

    // The invariant: the file reopens — directly, or after one
    // `recover_truncated` pass — to exactly the pre- or post-op ranking.
    let recovered_fingerprint = |op: ChaosOp| -> Result<Fp, String> {
        if let Ok(fp) = fingerprint_of(&work_path) {
            return Ok(fp);
        }
        TableRepository::recover_truncated(&work_path)
            .map_err(|e| format!("{}: recover_truncated failed: {e}", op.name()))?;
        fingerprint_of(&work_path)
            .map_err(|e| format!("{}: reopen after recovery failed: {e}", op.name()))
    };

    let sample = |count: u64| -> Vec<u64> {
        if count as usize <= max_cases {
            (0..count).collect()
        } else {
            let mut picked: Vec<u64> = (0..max_cases)
                .map(|i| (i as u64) * (count - 1) / (max_cases as u64 - 1))
                .collect();
            picked.dedup();
            picked
        }
    };

    let mut cases = 0usize;
    let mut failures = 0usize;
    for op in [ChaosOp::Append, ChaosOp::Compact] {
        let (pre, post) = match op {
            ChaosOp::Append => (&fp_base, &fp_appended),
            ChaosOp::Compact => (&fp_appended, &fp_appended),
        };

        // Observe pass: count the operation's IO sites with an empty plan.
        let (result, stats) = run_op(op, FaultPlan::observe());
        if let Err(e) = result {
            eprintln!("chaos: {} observe pass failed: {e}", op.name());
            return 1;
        }
        let kinds = [
            FaultKind::Create,
            FaultKind::Write,
            FaultKind::Fsync,
            FaultKind::Rename,
            FaultKind::SetLen,
            FaultKind::Read,
        ];
        if stats.count(FaultKind::Write) == 0 || stats.count(FaultKind::Fsync) == 0 {
            eprintln!(
                "chaos: {} observe pass saw no writes or no fsyncs — the fault seam is \
                 not wired through this path",
                op.name()
            );
            return 1;
        }

        for kind in kinds {
            let count = stats.count(kind);
            if count == 0 {
                continue;
            }
            // Error legs for every kind; silent-corruption legs where the
            // operation carries a buffer to flip.
            let mut legs: Vec<(&str, FaultAction)> = vec![("fail", FaultAction::Error)];
            if matches!(kind, FaultKind::Write | FaultKind::Read) {
                legs.push(("flip", FaultAction::FlipBit(0)));
            }
            for (label, action) in legs {
                let picked = sample(count);
                if (picked.len() as u64) < count {
                    println!(
                        "chaos: {} {kind:?}/{label}: {count} sites, sampling {} \
                         (cap --max-cases {max_cases})",
                        op.name(),
                        picked.len()
                    );
                }
                for nth in picked {
                    let action = match action {
                        // Which bit the flip corrupts is the only seeded
                        // choice: everything else in the sweep is exhaustive.
                        FaultAction::FlipBit(_) => FaultAction::FlipBit(
                            joinmi_hash::SplitMix64::mix(seed ^ nth.wrapping_mul(0x9E37_79B9)),
                        ),
                        other => other,
                    };
                    let plan = FaultPlan::observe().with(Trigger {
                        kind,
                        name: None,
                        nth,
                        action,
                    });
                    let (result, _) = run_op(op, plan);
                    cases += 1;
                    if matches!(action, FaultAction::Error) && result.is_ok() {
                        eprintln!(
                            "chaos: FAIL {} {kind:?}/fail #{nth}: the injected error was \
                             swallowed (operation reported success)",
                            op.name()
                        );
                        failures += 1;
                        continue;
                    }
                    match recovered_fingerprint(op) {
                        Ok(fp) if &fp == pre || &fp == post => {}
                        Ok(fp) => {
                            eprintln!(
                                "chaos: FAIL {} {kind:?}/{label} #{nth}: reopened to a hybrid \
                                 ranking ({} results; pre {} / post {})",
                                op.name(),
                                fp.len(),
                                pre.len(),
                                post.len()
                            );
                            failures += 1;
                        }
                        Err(e) => {
                            eprintln!("chaos: FAIL {} {kind:?}/{label} #{nth}: {e}", op.name());
                            failures += 1;
                        }
                    }
                }
            }
        }
        println!("chaos: {} sweep complete", op.name());
    }

    let _ = std::fs::remove_dir_all(&dir);
    if failures > 0 {
        eprintln!("chaos: {failures} of {cases} cases violated the pre-or-post contract");
        1
    } else {
        println!("chaos: OK — {cases} injected faults, every reopen was pre- or post-op exactly");
        0
    }
}
