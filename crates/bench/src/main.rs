//! The `joinmi_bench` CLI: the offline/online split, the daemon and chaos
//! checks, and the same-run ratio ledger.
//!
//! ```text
//! joinmi_bench [--out PATH]                          # the ratio ledger
//! joinmi_bench ingest  --out repo.jmi [--quick]     # offline: build + save a repository
//! joinmi_bench query   --repo repo.jmi [--verify-in-memory]
//!                                                   # online: load + query (separate process)
//! joinmi_bench compact --repo repo.jmi [--seal]     # fold the append log; --seal drops state
//! joinmi_bench compare --baseline A.json --current B.json
//!                                                   # CI gate on the ratio ledger
//! joinmi_bench chaos   [--rows N] [--seed N] [--max-cases N]
//!                                                   # fault-injection durability sweep
//! ```
//!
//! With no subcommand the binary measures the four same-run ratios of the
//! ledger (see [`RATIOS`]) and, with `--out`, writes them as JSON; the
//! committed baseline is `BENCH_RATIOS.json`. Absolute timings are the
//! benchmark's (`BENCHMARK.json`, `benchmark/README.md`), not this binary's.
//!
//! `ingest` and `query` are the real offline → online split: `ingest` builds
//! the deterministic 32×8-table corpus ([`joinmi_bench::corpus`]), sketches
//! it, and saves the repository to disk; `query`, in a **separate process**,
//! loads that file and answers the standard ranked query. With
//! `--verify-in-memory` the query process also rebuilds the corpus from
//! scratch and asserts the persisted ranking is bit-for-bit identical — the
//! check the `persistence-roundtrip` CI job gates on.

use std::rc::Rc;
use std::time::{Duration, Instant};

use joinmi_bench::corpus;
use joinmi_bench::ledger::{self, Ledger};
use joinmi_discovery::{CandidateSource, TableRepository};
use joinmi_serve::json::Json;

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
        // (e.g. `ingets`): error out instead of silently running the ledger
        // and exiting 0 with the real work undone.
        Some(other) if !other.starts_with('-') => {
            eprintln!("unknown subcommand `{other}`");
            print_usage();
            2
        }
        _ => cmd_ratios(&args),
    };
    std::process::exit(exit);
}

fn print_usage() {
    eprintln!("usage: joinmi_bench [--out PATH]");
    eprintln!("       joinmi_bench ingest  --out REPO [--quick] [--base | --append]");
    eprintln!("       joinmi_bench ingest  --out PREFIX --shards N [--quick]");
    eprintln!("       joinmi_bench query   --repo REPO [--verify-in-memory]");
    eprintln!("       joinmi_bench compact --repo REPO [--seal]");
    eprintln!("       joinmi_bench serve-check --url HOST:PORT [--quick]");
    eprintln!("       joinmi_bench compare --baseline JSON --current JSON");
    eprintln!("       joinmi_bench chaos [--rows N] [--seed N] [--max-cases N]");
    eprintln!();
    eprintln!("  --out     write the measured ratios to PATH (baseline: BENCH_RATIOS.json)");
    eprintln!("  --quick   the small corpus CI uses (seconds, not minutes)");
    eprintln!("  --base    ingest the corpus minus its append tail (the daemon's day-0 state)");
    eprintln!("  --append  load REPO, append the corpus tail rows, extend the file in place");
    eprintln!("  --seal    also drop builder state; the compacted file rejects future appends");
    eprintln!("  --shards  split the corpus contiguously into PREFIX-shard-I.jmi files");
    eprintln!("  --url     address of a running joinmi_serve daemon to check against");
    eprintln!(
        "  compare   fail when a ratio drops below baseline/1.25 or the current run lacks one"
    );
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

        // The shards serve TUPSK only: the same query sketched with a
        // baseline kind is refused, never answered.
        let baseline_body = body.replace(r#""sketch_kind": "TUPSK""#, r#""sketch_kind": "LV2SK""#);
        let (status, _) = joinmi_serve::client_request(url, "POST", "/v1/query", &baseline_body)
            .map_err(|e| format!("LV2SK variant: request failed: {e}"))?;
        if status != 400 {
            return Err(format!("LV2SK variant: expected status 400, got {status}"));
        }
        println!("serve-check: LV2SK variant refused with 400");

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
// compare: the CI gate on the ratio ledger.
// ---------------------------------------------------------------------------

fn cmd_compare(args: &[String]) -> i32 {
    let (Some(baseline_path), Some(current_path)) = (
        flag_value(args, "--baseline"),
        flag_value(args, "--current"),
    ) else {
        eprintln!("compare: --baseline PATH and --current PATH are required");
        return 2;
    };
    let read = |path: &str| -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read `{path}`: {e}"))?;
        ledger::parse(&text).map_err(|e| format!("parse `{path}`: {e}"))
    };
    let (baseline, current) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 1;
        }
    };
    let report = match ledger::compare(&baseline, &current) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compare: {e}");
            return 1;
        }
    };

    println!(
        "compare: {baseline_path} (baseline) vs {current_path} (current), a ratio may fall \
         to baseline / {}",
        1.0 + ledger::MAX_REGRESSION
    );
    for c in &report {
        println!(
            "  {:<32} {:>7.1} -> {:>7.1}  {}",
            c.name,
            c.baseline,
            c.current,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for name in current.keys().filter(|n| !baseline.contains_key(*n)) {
        println!("  {name:<32} new (no baseline)");
    }
    if report.iter().any(|c| c.regressed) {
        eprintln!("compare: ratio regression");
        return 1;
    }
    println!("compare: no regressions");
    0
}

// ---------------------------------------------------------------------------
// The ratio ledger (no subcommand).
// ---------------------------------------------------------------------------

/// One timed side of a ratio. It reads the clock itself, so per-rep staging
/// (cloning a repository an append will mutate) stays outside the timing.
type Side = Box<dyn FnMut() -> Duration>;

/// A side that times all of `f`.
fn clocked<T>(mut f: impl FnMut() -> T + 'static) -> Side {
    Box::new(move || {
        let start = Instant::now();
        std::hint::black_box(f());
        start.elapsed()
    })
}

/// One ledger row. `setup` builds the inputs, asserts what makes the ratio
/// meaningful, and returns the two sides; the ratio is the median of the
/// first over the median of the second, [`REPS`] alternated runs each.
struct Ratio {
    key: &'static str,
    setup: fn() -> (Side, Side),
}

/// Timed runs per side.
const REPS: usize = 7;

/// The ledger: same-run ratios that the benchmark does not cover.
const RATIOS: [Ratio; 4] = [
    Ratio {
        key: "knn/kernel_speedup_vs_scalar",
        setup: knn_scalar_and_kernel,
    },
    Ratio {
        key: "query/early_term_speedup",
        setup: exhaustive_and_early_term,
    },
    Ratio {
        key: "store/append_vs_reingest",
        setup: reingest_and_append,
    },
    Ratio {
        key: "store/compacted_load_speedup",
        setup: appended_and_compacted_load,
    },
];

fn cmd_ratios(args: &[String]) -> i32 {
    let median_ms = |mut samples: Vec<Duration>| {
        samples.sort_unstable();
        samples[REPS / 2].as_secs_f64() * 1e3
    };
    let mut ratios = Ledger::new();
    for ratio in &RATIOS {
        let (mut slow, mut fast) = (ratio.setup)();
        // Alternate the sides, so a shift in host speed hits both alike.
        let (slow_runs, fast_runs) = (0..REPS).map(|_| (slow(), fast())).unzip();
        let (slow_ms, fast_ms) = (median_ms(slow_runs), median_ms(fast_runs));
        // Kept to one decimal: the ledger gates on 25 %, not on noise.
        let value = if fast_ms > 0.0 {
            (slow_ms / fast_ms * 10.0).round() / 10.0
        } else {
            0.0
        };
        println!(
            "{:<32} {value:>6.1}x  ({slow_ms:.2} ms / {fast_ms:.2} ms)",
            ratio.key
        );
        ratios.insert(ratio.key.to_owned(), value);
    }
    if let Some(out) = flag_value(args, "--out") {
        if let Err(e) = std::fs::write(out, ledger::render(&ratios)) {
            eprintln!("cannot write `{out}`: {e}");
            return 1;
        }
        println!("wrote {out}");
    }
    0
}

/// The Chebyshev k-NN kernel (the two-sided scan) against its scalar oracle,
/// k = 3, on a correlated pair at n = 4096: `x ~ U[0, 1)` from a fixed LCG,
/// `y = x + 0.25·u`. The correlation keeps the scan honest — on independent
/// coordinates the prune along the sorted axis ends after a handful of
/// candidates and the kernel is all setup cost.
fn knn_scalar_and_kernel() -> (Side, Side) {
    use joinmi_estimators::knn::{kth_nn_distances_chebyshev, kth_nn_distances_chebyshev_scalar};

    let mut state = 0x9e37_79b9_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    };
    let xs: Vec<f64> = (0..4096).map(|_| next()).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| x + 0.25 * next()).collect();
    assert_eq!(
        kth_nn_distances_chebyshev(&xs, &ys, 3),
        kth_nn_distances_chebyshev_scalar(&xs, &ys, 3),
        "the k-NN kernel diverged from its scalar oracle"
    );
    let (kxs, kys) = (xs.clone(), ys.clone());
    (
        clocked(move || kth_nn_distances_chebyshev_scalar(&xs, &ys, 3)),
        clocked(move || kth_nn_distances_chebyshev(&kxs, &kys, 3)),
    )
}

/// Exhaustive interval scoring against the interval top-3 with early
/// termination, over the skewed corpus ([`corpus::skewed_tables`]).
fn exhaustive_and_early_term() -> (Side, Side) {
    let mut repo = TableRepository::new(corpus::skewed_config());
    repo.add_tables(corpus::skewed_tables()).expect("ingest");
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

    let repo = Rc::new(repo);
    let shared = Rc::clone(&repo);
    (
        clocked(move || exhaustive.execute(&*shared).expect("exhaustive").len()),
        clocked(move || topk.execute(&*repo).expect("top-k").len()),
    )
}

/// A file removed when the side that reads it is dropped.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let file = format!("joinmi-bench-{name}-{}.jmi", std::process::id());
        Self(std::env::temp_dir().join(file))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Saves the quick corpus's base repository to `path` and loads it back:
/// the sketch-only state, builders restored, that the daemon appends to.
fn saved_base_repository(rows: usize, path: &std::path::Path) -> TableRepository {
    let mut base = TableRepository::new(corpus::repo_config());
    base.add_tables(corpus::base_tables(rows))
        .expect("base ingest");
    base.save(path).expect("save base repo");
    TableRepository::load(path).expect("load base repo")
}

/// Re-sketching the whole quick corpus against appending its 1 % tail to the
/// loaded base through the `O(changed)` builder path.
fn reingest_and_append() -> (Side, Side) {
    let rows = corpus::rows_for(true);
    let tables = corpus::candidate_tables(rows);
    let tail = corpus::tail_tables(rows);
    let base = saved_base_repository(rows, &TempFile::new("base").0);

    let query = corpus::standard_query(rows);
    let one_shot = corpus::build_repository(rows);
    let mut appended = base.clone();
    appended.append_tables(&tail).expect("append tail");
    assert_eq!(
        corpus::ranking_fingerprint(&query.execute(&appended).expect("query")),
        corpus::ranking_fingerprint(&query.execute(&one_shot).expect("query")),
        "incremental append diverged from one-shot ingest"
    );

    (
        clocked(move || {
            let mut repo = TableRepository::new(corpus::repo_config());
            repo.add_tables(tables.clone()).expect("ingest")
        }),
        Box::new(move || {
            let mut fresh = base.clone();
            let start = Instant::now();
            std::hint::black_box(fresh.append_tables(&tail).expect("append tail"));
            start.elapsed()
        }),
    )
}

/// Eager-loading the quick corpus file with its append group against
/// loading its compacted, sealed rewrite: what a restart gains when the
/// append log was folded first.
fn appended_and_compacted_load() -> (Side, Side) {
    let rows = corpus::rows_for(true);
    let (appended, compacted) = (TempFile::new("appended"), TempFile::new("compacted"));
    let mut repo = saved_base_repository(rows, &appended.0);
    repo.append_tables(&corpus::tail_tables(rows))
        .expect("append tail");
    repo.append_to(&appended.0).expect("extend file");
    std::fs::copy(&appended.0, &compacted.0).expect("stage the compaction copy");
    let report = TableRepository::compact(&compacted.0, joinmi_discovery::CompactMode::Seal)
        .expect("seal compact");
    assert!(
        report.sealed && report.groups_folded > 0,
        "seal compaction must fold the staged append group"
    );

    let query = corpus::standard_query(rows);
    let sealed = TableRepository::load(&compacted.0).expect("load compacted repo");
    assert_eq!(
        corpus::ranking_fingerprint(&query.execute(&sealed).expect("query")),
        corpus::ranking_fingerprint(
            &query
                .execute(&corpus::build_repository(rows))
                .expect("query")
        ),
        "compaction changed the ranking"
    );

    (
        clocked(move || TableRepository::load(&appended.0).expect("load appended repo")),
        clocked(move || TableRepository::load(&compacted.0).expect("load compacted repo")),
    )
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
