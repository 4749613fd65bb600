//! End-to-end daemon tests: a corpus split across 3 shard files must answer
//! REST queries bit-for-bit identically to the same corpus in one
//! repository queried in process, and every guardrail must be reachable
//! through the public API.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use joinmi_discovery::{
    CompactMode, RankedCandidate, RelationshipQuery, RepositoryConfig, TableRepository,
};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_serve::json::Json;
use joinmi_serve::{
    client_request, wait_healthy, Deadline, QueryRequest, ServeError, Server, ServerConfig,
    ShardSet,
};
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_synth::TaxiScenario;
use joinmi_table::Table;

const SKETCH: SketchConfig = SketchConfig { size: 256, seed: 3 };

fn repo_config() -> RepositoryConfig {
    RepositoryConfig {
        sketch: SKETCH,
        ..RepositoryConfig::default()
    }
}

/// The corpus: three candidate tables plus the taxi query table.
fn corpus() -> (Vec<Table>, Table) {
    let scenario = TaxiScenario::generate(40, 15, 3);
    (
        vec![
            scenario.weather,
            scenario.demographics,
            scenario.inspections,
        ],
        scenario.taxi,
    )
}

/// Saves `tables`, contiguously partitioned, into `num_shards` files under a
/// fresh temp prefix; returns the paths.
fn save_shards(tables: &[Table], num_shards: usize, tag: &str) -> Vec<std::path::PathBuf> {
    let chunk = tables.len().div_ceil(num_shards);
    (0..num_shards)
        .map(|s| {
            let mut repo = TableRepository::new(repo_config());
            for table in tables.iter().skip(s * chunk).take(chunk) {
                repo.add_table(table.clone()).unwrap();
            }
            let path = std::env::temp_dir()
                .join(format!("joinmi-serve-{tag}-{}-{s}.jmi", std::process::id()));
            repo.save(&path).unwrap();
            path
        })
        .collect()
}

fn single_repo(tables: &[Table]) -> TableRepository {
    let mut repo = TableRepository::new(repo_config());
    for table in tables {
        repo.add_table(table.clone()).unwrap();
    }
    repo
}

fn in_process_query(train: &Table, top_k: usize) -> RelationshipQuery {
    RelationshipQuery::new(train.clone(), "zipcode", "num_trips")
        .with_sketch(SketchKind::Tupsk, SKETCH)
        .with_min_join_size(10)
        .with_top_k(top_k)
}

/// The same query as JSON for the wire.
fn request_body(train: &Table, top_k: usize) -> String {
    let rows: Vec<String> = (0..train.num_rows())
        .map(|i| {
            let zip = train.value(i, "zipcode").unwrap();
            let trips = train.value(i, "num_trips").unwrap();
            format!(
                "[\"{}\", {}]",
                zip.as_str().unwrap(),
                trips.as_i64().unwrap()
            )
        })
        .collect();
    format!(
        r#"{{"key_column": "zipcode", "target_column": "num_trips",
            "rows": [{}],
            "top_k": {top_k}, "min_join_size": 10,
            "sketch_kind": "TUPSK", "sketch_size": 256, "sketch_seed": 3}}"#,
        rows.join(", ")
    )
}

fn fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, usize, usize)> {
    results
        .iter()
        .map(|r| {
            (
                r.candidate_index,
                r.mi.to_bits(),
                r.sketch_join_size,
                r.key_overlap,
            )
        })
        .collect()
}

/// Extracts the same fingerprint from a wire response, using the exact
/// `mi_bits` field and the global candidate index.
fn wire_fingerprint(body: &str) -> Vec<(usize, u64, usize, usize)> {
    let doc = Json::parse(body).unwrap();
    doc.get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|row| {
            let bits_hex = row.get("mi_bits").and_then(Json::as_str).unwrap();
            let bits = u64::from_str_radix(bits_hex.trim_start_matches("0x"), 16).unwrap();
            (
                row.get("candidate_index").and_then(Json::as_i64).unwrap() as usize,
                bits,
                row.get("join_size").and_then(Json::as_i64).unwrap() as usize,
                row.get("key_overlap").and_then(Json::as_i64).unwrap() as usize,
            )
        })
        .collect()
}

fn cleanup(paths: &[std::path::PathBuf]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn three_shard_rest_query_is_bit_identical_to_single_repository() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "parity");
    let single = single_repo(&tables);

    let shards = ShardSet::open(&paths).unwrap();
    assert_eq!(shards.shards().len(), 3);
    assert_eq!(shards.total_candidates(), single.candidates().len());

    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    for top_k in [0, 2, 5] {
        let expected = fingerprint(&in_process_query(&train, top_k).execute(&single).unwrap());
        assert!(top_k != 0 || !expected.is_empty());

        let (status, body) =
            client_request(&addr, "POST", "/v1/query", &request_body(&train, top_k)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(wire_fingerprint(&body), expected, "top_k={top_k}");

        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("shards_queried").and_then(Json::as_i64), Some(3));
    }

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn shard_set_merge_matches_single_repository_without_http() {
    // Same parity pinned one layer down, plus: a per-shard run with the
    // daemon's sequential path merges into the single-repo global order.
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "merge");
    let single = single_repo(&tables);
    let shards = ShardSet::open(&paths).unwrap();

    let expected = fingerprint(&in_process_query(&train, 0).execute(&single).unwrap());
    let request = QueryRequest::from_json(&request_body(&train, 0)).unwrap();
    let mut ws = EstimatorWorkspace::new();
    let outcome = shards
        .execute(&request, &mut ws, None, Deadline::unlimited(), 0, &[])
        .unwrap();
    assert!(outcome.complete(), "no shard skipped or failed");
    let got: Vec<_> = outcome
        .results
        .iter()
        .map(|r| {
            (
                r.global_candidate_index,
                r.candidate.mi.to_bits(),
                r.candidate.sketch_join_size,
                r.candidate.key_overlap,
            )
        })
        .collect();
    assert_eq!(got, expected);
    cleanup(&paths);
}

#[test]
fn expired_deadline_is_a_typed_timeout() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 2, "deadline");
    let shards = ShardSet::open(&paths).unwrap();
    let request = QueryRequest::from_json(&request_body(&train, 0)).unwrap();

    let deadline = Deadline::starting_now(1);
    std::thread::sleep(Duration::from_millis(5));
    let mut ws = EstimatorWorkspace::new();
    let err = shards
        .execute(&request, &mut ws, None, deadline, 1, &[])
        .expect_err("expired deadline must not run");
    assert_eq!(err, ServeError::Timeout { timeout_ms: 1 });
    cleanup(&paths);
}

#[test]
fn repeated_query_hits_the_cache_bit_identically() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "cache");
    let shards = ShardSet::open(&paths).unwrap();
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    let body = request_body(&train, 5);
    let (s1, first) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    let (s2, second) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    assert_eq!((s1, s2), (200, 200));
    let d1 = Json::parse(&first).unwrap();
    let d2 = Json::parse(&second).unwrap();
    assert_eq!(d1.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(d2.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(wire_fingerprint(&first), wire_fingerprint(&second));
    // Same query with different whitespace/field order still hits.
    let reordered = body.replacen(
        "\"key_column\": \"zipcode\", \"target_column\": \"num_trips\"",
        "\"target_column\": \"num_trips\", \"key_column\": \"zipcode\"",
        1,
    );
    assert_ne!(reordered, body);
    let (_, third) = client_request(&addr, "POST", "/v1/query", &reordered).unwrap();
    assert_eq!(
        Json::parse(&third).unwrap().get("cached"),
        Some(&Json::Bool(true))
    );

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn stage_cache_counters_move_on_hit_and_miss_over_rest() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 2, "stagecache");
    let shards = ShardSet::open(&paths).unwrap();
    // Result cache OFF so every POST re-scores and exercises the stage
    // cache; the stage cache itself keeps its defaults.
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            cache_capacity: 0,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    let stage_stat = |doc: &Json, field: &str| -> i64 {
        doc.get("stage_cache")
            .and_then(|s| s.get(field))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("stage_cache.{field} missing"))
    };
    let fetch_stats = || {
        let (status, body) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
        assert_eq!(status, 200);
        Json::parse(&body).unwrap()
    };

    let before = fetch_stats();
    assert_eq!(stage_stat(&before, "estimate_hits"), 0);
    assert_eq!(stage_stat(&before, "estimate_misses"), 0);
    assert_eq!(stage_stat(&before, "entries"), 0);

    // Cold query: misses recorded, entries resident.
    let body = request_body(&train, 0);
    let (status, first) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    assert_eq!(status, 200, "{first}");
    let after_cold = fetch_stats();
    let cold_misses = stage_stat(&after_cold, "estimate_misses");
    assert!(cold_misses > 0);
    assert_eq!(stage_stat(&after_cold, "estimate_hits"), 0);
    assert!(stage_stat(&after_cold, "entries") > 0);
    assert!(stage_stat(&after_cold, "resident_bytes") > 0);

    // Identical repeat: level-2 hits, no new misses, bit-identical results —
    // and `cached: false` shows the response was re-ranked, not replayed
    // from the result cache.
    let (status, second) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&second).unwrap().get("cached"),
        Some(&Json::Bool(false))
    );
    assert_eq!(wire_fingerprint(&first), wire_fingerprint(&second));
    let after_hit = fetch_stats();
    assert!(stage_stat(&after_hit, "estimate_hits") > 0);
    assert_eq!(stage_stat(&after_hit, "estimate_misses"), cold_misses);

    // A *different* request (other top_k) over the same rows still hits the
    // stage cache: its ranking is a prefix of the unlimited one, bit-for-bit.
    let hits_before_prefix = stage_stat(&after_hit, "estimate_hits");
    let (status, truncated) =
        client_request(&addr, "POST", "/v1/query", &request_body(&train, 2)).unwrap();
    assert_eq!(status, 200);
    let full = wire_fingerprint(&first);
    assert_eq!(wire_fingerprint(&truncated), full[..2.min(full.len())]);
    let after_prefix = fetch_stats();
    assert!(stage_stat(&after_prefix, "estimate_hits") > hits_before_prefix);
    assert_eq!(stage_stat(&after_prefix, "estimate_misses"), cold_misses);

    // The healthz payload carries the same stats block.
    let (status, health) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(status, 200);
    let health = Json::parse(&health).unwrap();
    assert_eq!(
        stage_stat(&health, "estimate_misses"),
        cold_misses,
        "healthz stage_cache stats disagree with /v1/shards"
    );

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn background_compaction_folds_append_logs_and_swaps_epochs_bit_identically() {
    // One shard per table; each file is built as prefix-ingest + one append
    // group, so its *content* equals the full table while its on-disk shape
    // carries an append log for the compactor to fold. Shard 0 is sealed up
    // front: the compactor must skip it, and it must serve normally.
    let (tables, train) = corpus();
    let single = single_repo(&tables);
    let expected = fingerprint(&in_process_query(&train, 0).execute(&single).unwrap());

    let paths: Vec<std::path::PathBuf> = tables
        .iter()
        .enumerate()
        .map(|(s, table)| {
            let rows = table.num_rows();
            let mut repo = TableRepository::new(repo_config());
            repo.add_table(table.slice_rows(0..rows - 5)).unwrap();
            let path = std::env::temp_dir().join(format!(
                "joinmi-serve-compact-{}-{s}.jmi",
                std::process::id()
            ));
            repo.save(&path).unwrap();
            let mut appender = TableRepository::load(&path).unwrap();
            appender
                .append_rows(&table.slice_rows(rows - 5..rows))
                .unwrap();
            appender.append_to(&path).unwrap();
            path
        })
        .collect();
    let report = TableRepository::compact(&paths[0], CompactMode::Seal).unwrap();
    assert_eq!((report.groups_folded, report.sealed), (1, true));

    let shards = ShardSet::open(&paths).unwrap();
    let opened_generation = shards.generation();
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            compact_after_groups: 1,
            compact_poll_ms: 25,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    // Serving starts on the appended epoch; the ranking is already exact.
    let (status, before) =
        client_request(&addr, "POST", "/v1/query", &request_body(&train, 0)).unwrap();
    assert_eq!(status, 200, "{before}");
    assert_eq!(wire_fingerprint(&before), expected);

    // Wait for the compactor to fold the two unsealed shards.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let (status, body) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        if doc.get("compactions").and_then(Json::as_i64) == Some(2) {
            break doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "compactor never folded both shards: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    // The swap installed a new generation; every shard is flat; only shard 0
    // is sealed; the threshold echo matches the config.
    assert_ne!(
        stats.get("generation").and_then(Json::as_str).unwrap(),
        format!("0x{opened_generation:016x}"),
        "compaction must bump the served generation"
    );
    assert_eq!(
        stats.get("compact_after_groups").and_then(Json::as_i64),
        Some(1)
    );
    let shard_rows = stats.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shard_rows.len(), 3);
    for (s, row) in shard_rows.iter().enumerate() {
        assert_eq!(row.get("append_groups").and_then(Json::as_i64), Some(0));
        assert_eq!(row.get("appended_bytes").and_then(Json::as_i64), Some(0));
        assert_eq!(
            row.get("sealed"),
            Some(&Json::Bool(s == 0)),
            "only shard 0 was sealed"
        );
    }

    // Post-swap queries still rank bit-for-bit identically, and the on-disk
    // files really were rewritten flat (a fresh strict open agrees).
    let (status, after) =
        client_request(&addr, "POST", "/v1/query", &request_body(&train, 0)).unwrap();
    assert_eq!(status, 200, "{after}");
    assert_eq!(wire_fingerprint(&after), expected);
    let reopened = ShardSet::open(&paths).unwrap();
    for shard in reopened.shards() {
        assert_eq!(shard.snapshot().append_groups(), 0);
    }

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn append_epoch_changes_the_generation_and_a_noop_reload_does_not() {
    let (tables, _) = corpus();
    let paths = save_shards(&tables, 2, "generation");

    let first = ShardSet::open(&paths).unwrap().generation();
    let reopened = ShardSet::open(&paths).unwrap().generation();
    assert_eq!(first, reopened, "unchanged files keep their generation");

    // Append rows to shard 1 (inspections lives there alone) and reopen.
    let scenario = TaxiScenario::generate(40, 15, 3);
    let extra = scenario.inspections.slice_rows(0..4);
    let mut repo = TableRepository::load(&paths[1]).unwrap();
    assert!(repo.append_rows(&extra).unwrap() > 0);
    repo.append_to(&paths[1]).unwrap();

    let appended = ShardSet::open(&paths).unwrap().generation();
    assert_ne!(first, appended, "append epoch must change the generation");
    cleanup(&paths);
}

#[test]
fn torn_shard_is_refused_strictly_and_repaired_with_opt_in() {
    let (tables, _) = corpus();
    let paths = save_shards(&tables, 2, "torn");

    // Tear shard 0 by appending and cutting the tail mid-group.
    let scenario = TaxiScenario::generate(40, 15, 3);
    let mut repo = TableRepository::load(&paths[0]).unwrap();
    let base_len = std::fs::metadata(&paths[0]).unwrap().len();
    assert!(
        repo.append_rows(&scenario.weather.slice_rows(0..6))
            .unwrap()
            > 0
    );
    repo.append_to(&paths[0]).unwrap();
    let full = std::fs::read(&paths[0]).unwrap();
    assert!(full.len() as u64 > base_len);
    std::fs::write(&paths[0], &full[..full.len() - 3]).unwrap();

    // Strict open refuses the set.
    assert!(ShardSet::open(&paths).is_err());

    // Repairing open drops the torn group and reports it.
    let (shards, repairs) = ShardSet::open_with_repair(&paths).unwrap();
    assert_eq!(shards.shards().len(), 2);
    assert!(repairs[0].report.is_torn());
    assert_eq!(repairs[0].report.recovered_len, base_len);
    assert!(!repairs[1].report.is_torn());
    assert_eq!(std::fs::metadata(&paths[0]).unwrap().len(), base_len);
    cleanup(&paths);
}

#[test]
fn http_error_paths_are_typed() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 1, "errors");
    let shards = ShardSet::open(&paths).unwrap();
    let mut server = Server::start(ServerConfig::default(), shards).unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    let (status, body) = client_request(&addr, "POST", "/v1/query", "{not json").unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");

    // A level below 1 whose credible-interval quantile `0.5 + level / 2`
    // rounds to exactly 1: refused as a bad request, never scored.
    let boundary = request_body(&train, 3)
        .replace(r#""top_k""#, r#""confidence": 0.9999999999999999, "top_k""#);
    let (status, body) = client_request(&addr, "POST", "/v1/query", &boundary).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"code\":\"bad_request\""), "{body}");

    let (status, body) = client_request(&addr, "GET", "/v1/nope", "").unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("\"code\":\"not_found\""), "{body}");

    let (status, body) = client_request(&addr, "GET", "/v1/query", "").unwrap();
    assert_eq!(status, 405);
    assert!(body.contains("\"code\":\"method_not_allowed\""), "{body}");

    let (status, body) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("shards").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );
    assert!(doc.get("timeout_ms").is_some());
    assert!(doc.get("max_inflight").is_some());
    assert!(doc.get("cache_capacity").is_some());
    assert_eq!(doc.get("worker_panics").and_then(Json::as_i64), Some(0));

    server.shutdown();
    cleanup(&paths);
}

/// Sends `request` as raw bytes and returns the answer's status and body.
/// The daemon may answer before it has read everything sent, so a failed
/// write, or a reset after the answer, is not an error here.
fn raw_request(addr: &str, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let _ = stream.write_all(request);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let text = String::from_utf8(response).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("an answer");
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.to_owned())
}

#[test]
fn oversized_and_unsupported_request_heads_are_typed() {
    let (tables, _) = corpus();
    let paths = save_shards(&tables, 1, "heads");
    let mut server =
        Server::start(ServerConfig::default(), ShardSet::open(&paths).unwrap()).unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    // A 20 KB request line that never ends: the read stops at the 16 KiB
    // budget instead of waiting for a newline.
    let mut endless = b"GET /v1/".to_vec();
    endless.resize(20_000, b'a');
    let (status, body) = raw_request(&addr, &endless);
    assert_eq!(status, 431, "{body}");

    let mut head = String::from("GET /v1/healthz HTTP/1.1\r\n");
    for i in 0..40 {
        head.push_str(&format!("X-Pad-{i}: {}\r\n", "p".repeat(500)));
    }
    head.push_str("\r\n");
    let (status, body) = raw_request(&addr, head.as_bytes());
    assert_eq!(status, 431, "{body}");

    let too_long = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        64 * 1024 * 1024 + 1
    );
    let (status, body) = raw_request(&addr, too_long.as_bytes());
    assert_eq!(status, 413, "{body}");

    let chunked = "POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    let (status, body) = raw_request(&addr, chunked.as_bytes());
    assert_eq!(status, 501, "{body}");

    // Each refusal was typed and the daemon still serves.
    let (status, _) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(status, 200);

    server.shutdown();
    cleanup(&paths);
}

/// The taxi query with its rows repeated 25 times, so the sketch build alone
/// keeps a debug build busy well past a short probe window.
fn slow_request_body(train: &Table) -> String {
    let rows: Vec<String> = (0..train.num_rows())
        .map(|i| {
            format!(
                "[\"{}\", {}]",
                train.value(i, "zipcode").unwrap().as_str().unwrap(),
                train.value(i, "num_trips").unwrap().as_i64().unwrap()
            )
        })
        .collect();
    let repeated = vec![rows.join(", "); 25];
    format!(
        r#"{{"key_column": "zipcode", "target_column": "num_trips",
            "rows": [{}], "min_join_size": 10,
            "sketch_size": 256, "sketch_seed": 3}}"#,
        repeated.join(", ")
    )
}

#[test]
fn saturated_admission_gate_rejects_with_429() {
    // Deterministic saturation: a one-slot gate whose only permit is held
    // by a query that cannot finish before we probe — its deadline is
    // unlimited and its rows are large enough to keep a debug build busy.
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "admission");
    let shards = ShardSet::open(&paths).unwrap();
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            max_inflight: 1,
            cache_capacity: 0,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    let slow_body = slow_request_body(&train);

    // Wait (via the health endpoint's inflight gauge) until the slow query
    // has actually been admitted, then probe: the one-slot gate must answer
    // 429. Health checks themselves bypass admission, which is exactly what
    // lets us observe a saturated daemon here. The admitted-but-still-busy
    // window is the whole scoring run, so one retry loop around the race
    // keeps this robust on any machine.
    let probe_body = request_body(&train, 3);
    let mut saw_overloaded = false;
    'attempts: for _ in 0..5 {
        let addr_clone = addr.clone();
        let body_clone = slow_body.clone();
        let slow = std::thread::spawn(move || {
            client_request(&addr_clone, "POST", "/v1/query", &body_clone).unwrap()
        });
        while !slow.is_finished() {
            let (status, health) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
            assert_eq!(status, 200, "health must answer while saturated");
            let inflight = Json::parse(&health)
                .unwrap()
                .get("inflight")
                .and_then(Json::as_i64);
            if inflight == Some(1) {
                let (status, body) =
                    client_request(&addr, "POST", "/v1/query", &probe_body).unwrap();
                if status == 429 {
                    assert!(body.contains("\"code\":\"overloaded\""), "{body}");
                    saw_overloaded = true;
                }
            }
        }
        let (slow_status, _) = slow.join().unwrap();
        assert_eq!(slow_status, 200);
        if saw_overloaded {
            break 'attempts;
        }
    }
    assert!(
        saw_overloaded,
        "never observed a 429 while the gate was held"
    );

    // With the slot free again, the probe succeeds.
    let (status, _) = client_request(&addr, "POST", "/v1/query", &probe_body).unwrap();
    assert_eq!(status, 200);

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn a_timed_out_query_is_a_typed_504_and_releases_its_permit() {
    // The query scores on its connection thread, which checks the deadline
    // before each shard and after the last: a slow query against a 1 ms
    // budget is a 504, and its admission permit is gone by the time the
    // answer is on the wire.
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "timeout");
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 1,
            cache_capacity: 0,
            ..ServerConfig::default()
        },
        ShardSet::open(&paths).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    let (status, body) =
        client_request(&addr, "POST", "/v1/query", &slow_request_body(&train)).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"code\":\"timeout\""), "{body}");

    let (status, health) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(status, 200);
    let inflight = Json::parse(&health)
        .unwrap()
        .get("inflight")
        .and_then(Json::as_i64);
    assert_eq!(inflight, Some(0), "{health}");

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn concurrent_cold_queries_share_the_stage_cache_bit_identically() {
    // Eight connection threads score the same cold query at once against
    // one stage cache; every answer must equal the single-repository
    // ranking bit for bit.
    const CLIENTS: usize = 8;
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "concurrent");
    let single = single_repo(&tables);
    let expected = fingerprint(&in_process_query(&train, 0).execute(&single).unwrap());
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            cache_capacity: 0,
            max_inflight: CLIENTS,
            ..ServerConfig::default()
        },
        ShardSet::open(&paths).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    let body = request_body(&train, 0);
    let start = std::sync::Barrier::new(CLIENTS);
    let answers: Vec<(u16, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    client_request(&addr, "POST", "/v1/query", &body).unwrap()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (status, response) in &answers {
        assert_eq!(*status, 200, "{response}");
        assert_eq!(wire_fingerprint(response), expected);
    }

    let (status, stats) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&stats).unwrap();
    assert_eq!(doc.get("worker_panics").and_then(Json::as_i64), Some(0));

    server.shutdown();
    cleanup(&paths);
}

// ---------------------------------------------------------------------------
// Robustness: panic isolation, quarantine/degraded serving, drain
// ---------------------------------------------------------------------------

use joinmi_store::fault::{self, FaultAction, FaultPlan};

/// Serializes tests that arm the process-global fault plan: `arm_global`
/// replaces the whole plan, so two such tests running concurrently would
/// clobber each other's triggers.
static GLOBAL_FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_global_faults() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_FAULTS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn shard_failure_is_isolated_not_fatal() {
    // Library level: a shard failing mid-query lands in `failed` while the
    // other shards still contribute, and quarantined indices are skipped
    // without being scored. Thread-local arming keeps this test hermetic.
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "isolate");
    let shards = ShardSet::open(&paths).unwrap();
    let request = QueryRequest::from_json(&request_body(&train, 0)).unwrap();
    let mut ws = EstimatorWorkspace::new();

    let scoped = format!("serve.shard.score:{}", paths[1].display());
    {
        let _guard = fault::arm(FaultPlan::at_failpoint(&scoped, 0, FaultAction::Error));
        let outcome = shards
            .execute(&request, &mut ws, None, Deadline::unlimited(), 0, &[])
            .unwrap();
        assert_eq!(outcome.degraded(), vec![1]);
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].0, 1);
        assert!(
            outcome.failed[0].1.contains("joinmi fault injection"),
            "failure text carries the injected error: {}",
            outcome.failed[0].1
        );
        assert!(outcome.skipped.is_empty());
        assert!(
            outcome.results.iter().all(|r| r.shard != 1),
            "the failed shard contributed nothing"
        );
        assert!(
            !outcome.results.is_empty(),
            "healthy shards still contributed"
        );
    }

    // Quarantine skip: the shard is not scored at all (the armed failpoint
    // is gone, so a non-skipped shard would succeed).
    let outcome = shards
        .execute(&request, &mut ws, None, Deadline::unlimited(), 0, &[2])
        .unwrap();
    assert_eq!(outcome.skipped, vec![2]);
    assert!(outcome.failed.is_empty());
    assert_eq!(outcome.degraded(), vec![2]);
    assert!(!outcome.complete());
    cleanup(&paths);
}

#[test]
fn worker_panic_is_a_typed_500_and_the_daemon_survives() {
    let _serial = lock_global_faults();
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "panic");
    let shards = ShardSet::open(&paths).unwrap();
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    // Arm: the FIRST query on THIS daemon (port-scoped checkpoint) panics
    // while scoring. The fault must fire on a connection thread the test
    // does not own, hence the process-global plan.
    let checkpoint = format!("serve.worker.query:{}", server.local_addr().port());
    let body = request_body(&train, 3);
    {
        let _guard = fault::arm_global(FaultPlan::at_failpoint(&checkpoint, 0, FaultAction::Panic));
        let (status, response) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
        assert_eq!(status, 500, "{response}");
        assert!(response.contains("\"code\":\"panic\""), "{response}");
    }

    // The daemon survived: the panic is counted, and
    // the very same query now succeeds end to end.
    let (status, shards_body) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&shards_body).unwrap();
    assert_eq!(doc.get("worker_panics").and_then(Json::as_i64), Some(1));

    let (status, response) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn quarantined_shard_degrades_and_the_guardian_restores_it() {
    let _serial = lock_global_faults();
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "quarantine");
    let single = single_repo(&tables);
    let expected = fingerprint(&in_process_query(&train, 0).execute(&single).unwrap());
    let shards = ShardSet::open(&paths).unwrap();
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            compact_poll_ms: 20,
            retry_backoff_ms: 5,
            retry_backoff_cap_ms: 50,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    // Corrupt shard 1's file on disk (the served snapshot is in memory, so
    // serving is unaffected) and inject one scoring failure: the breaker
    // trips, and the guardian's reopens now FAIL against the corrupt file,
    // so the shard stays quarantined instead of bouncing straight back.
    let original = std::fs::read(&paths[1]).unwrap();
    std::fs::write(&paths[1], b"garbage, not a repository").unwrap();
    let scoped = format!("serve.shard.score:{}", paths[1].display());
    let _guard = fault::arm_global(FaultPlan::at_failpoint(&scoped, 0, FaultAction::Error));

    // Strict request (the default): degraded shard => typed 500.
    let body = request_body(&train, 0);
    let (status, response) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    assert_eq!(status, 500, "{response}");
    assert!(response.contains("\"code\":\"degraded\""), "{response}");
    assert!(response.contains("allow_partial"), "{response}");

    // Opt-in partial: 200 with the healthy shards' merged ranking.
    let partial_body = body.replacen('{', "{\"allow_partial\": true, ", 1);
    let (status, response) = client_request(&addr, "POST", "/v1/query", &partial_body).unwrap();
    assert_eq!(status, 200, "{response}");
    let doc = Json::parse(&response).unwrap();
    assert_eq!(doc.get("partial"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("degraded_shards")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
    assert!(
        !doc.get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty(),
        "healthy shards still answer"
    );

    // healthz stays 200 but reports degraded; /v1/shards shows the breaker
    // counters and climbing (failing) reopen attempts.
    let (status, health) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&health).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("degraded"));
    assert_eq!(
        doc.get("quarantined_shards").and_then(Json::as_i64),
        Some(1)
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut saw_reopen_attempt = false;
    while std::time::Instant::now() < deadline && !saw_reopen_attempt {
        let (_, shards_body) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
        let doc = Json::parse(&shards_body).unwrap();
        let shard1 = &doc.get("shards").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(shard1.get("quarantined"), Some(&Json::Bool(true)));
        saw_reopen_attempt = shard1
            .get("reopen_attempts")
            .and_then(Json::as_i64)
            .is_some_and(|n| n >= 1);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(saw_reopen_attempt, "guardian must be retrying the reopen");

    // Heal the file: the next reopen succeeds and the shard re-enters
    // rotation.
    std::fs::write(&paths[1], &original).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut restored = false;
    while std::time::Instant::now() < deadline && !restored {
        let (_, health) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
        restored = Json::parse(&health)
            .unwrap()
            .get("quarantined_shards")
            .and_then(Json::as_i64)
            == Some(0);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(restored, "guardian must restore the healed shard");

    // Fully healed: a strict query answers 200 with the bit-exact complete
    // ranking again.
    let (status, response) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
    assert_eq!(status, 200, "{response}");
    assert_eq!(wire_fingerprint(&response), expected);
    let doc = Json::parse(&response).unwrap();
    assert_eq!(doc.get("partial"), Some(&Json::Bool(false)));

    server.shutdown();
    cleanup(&paths);
}

#[test]
fn drain_flips_healthz_and_rejects_new_queries() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 2, "drain");
    let shards = ShardSet::open(&paths).unwrap();
    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            ..ServerConfig::default()
        },
        shards,
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    server.begin_drain();
    assert!(server.is_draining());

    // Readiness flips so load balancers stop routing here...
    let (status, health) = client_request(&addr, "GET", "/v1/healthz", "").unwrap();
    assert_eq!(status, 503);
    let doc = Json::parse(&health).unwrap();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("draining"));

    // ...and new queries get a typed 503 instead of scoring work.
    let (status, response) =
        client_request(&addr, "POST", "/v1/query", &request_body(&train, 3)).unwrap();
    assert_eq!(status, 503, "{response}");
    assert!(response.contains("\"code\":\"draining\""), "{response}");

    // Nothing in flight: the drain completes immediately and shuts down.
    assert!(server.drain(Duration::from_secs(1)));
    cleanup(&paths);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_process_gracefully() {
    let (tables, _train) = corpus();
    let paths = save_shards(&tables, 2, "sigterm");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_joinmi_serve"))
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--drain-ms")
        .arg("2000")
        .args(&paths)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // The daemon prints its bound address on stderr; read lines until then.
    use std::io::BufRead;
    let stderr = child.stderr.take().unwrap();
    let mut reader = std::io::BufReader::new(stderr);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line
            .trim()
            .strip_prefix("joinmi_serve: listening on http://")
        {
            addr = Some(rest.to_owned());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("daemon must announce its address");
    wait_healthy(&addr, Duration::from_secs(10)).unwrap();

    // SIGTERM → graceful drain → clean exit 0.
    let status = std::process::Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .unwrap();
    assert!(status.success(), "kill -TERM must be delivered");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = child.try_wait().unwrap() {
            break exit;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon must exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(exit.success(), "graceful drain exits 0, got {exit:?}");

    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
    assert!(
        rest.contains("draining"),
        "drain must be announced on stderr: {rest}"
    );
    cleanup(&paths);
}

/// Interval fingerprint of an in-process ranking: global index, exact MI
/// bits, and exact credible-bound bits.
fn interval_fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, u64, u64)> {
    results
        .iter()
        .map(|r| {
            let iv = r.interval.as_ref().expect("interval missing");
            (
                r.candidate_index,
                r.mi.to_bits(),
                iv.ci_lo.to_bits(),
                iv.ci_hi.to_bits(),
            )
        })
        .collect()
}

#[test]
fn interval_rest_query_reproduces_single_repository_interval_ranking() {
    let (tables, train) = corpus();
    let paths = save_shards(&tables, 3, "interval");
    let single = single_repo(&tables);

    let mut server = Server::start(
        ServerConfig {
            timeout_ms: 0,
            ..ServerConfig::default()
        },
        ShardSet::open(&paths).unwrap(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    wait_healthy(&addr, Duration::from_secs(5)).unwrap();

    for top_k in [0, 3] {
        let expected = interval_fingerprint(
            &in_process_query(&train, top_k)
                .with_confidence(0.95)
                .execute(&single)
                .unwrap(),
        );
        assert!(top_k != 0 || !expected.is_empty());

        // Same query over the wire with the confidence field set.
        let body =
            request_body(&train, top_k).replacen("\"top_k\"", "\"confidence\": 0.95, \"top_k\"", 1);
        let (status, response) = client_request(&addr, "POST", "/v1/query", &body).unwrap();
        assert_eq!(status, 200, "{response}");
        let doc = Json::parse(&response).unwrap();
        let got: Vec<(usize, u64, u64, u64)> = doc
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|row| {
                let bits = |field: &str| {
                    let hex = row.get(field).and_then(Json::as_str).unwrap();
                    u64::from_str_radix(hex.trim_start_matches("0x"), 16).unwrap()
                };
                // The plain float fields must round-trip to the same bits the
                // hex spellings pin down.
                let ci_lo = row.get("ci_lo").and_then(Json::as_f64).unwrap();
                let ci_hi = row.get("ci_hi").and_then(Json::as_f64).unwrap();
                assert_eq!(ci_lo.to_bits(), bits("ci_lo_bits"));
                assert_eq!(ci_hi.to_bits(), bits("ci_hi_bits"));
                assert!(row.get("mi_var").and_then(Json::as_f64).unwrap() >= 0.0);
                (
                    row.get("candidate_index").and_then(Json::as_i64).unwrap() as usize,
                    bits("mi_bits"),
                    bits("ci_lo_bits"),
                    bits("ci_hi_bits"),
                )
            })
            .collect();
        assert_eq!(got, expected, "top_k={top_k}");
    }

    // A point query must not carry interval fields.
    let (status, response) =
        client_request(&addr, "POST", "/v1/query", &request_body(&train, 3)).unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(!response.contains("ci_lo"), "point results must stay bare");

    // The shards endpoint surfaces the new scoring counters.
    let (status, shards_body) = client_request(&addr, "GET", "/v1/shards", "").unwrap();
    assert_eq!(status, 200);
    let doc = Json::parse(&shards_body).unwrap();
    assert!(doc.get("early_stopped").and_then(Json::as_i64).is_some());
    assert!(doc.get("pruned").and_then(Json::as_i64).is_some());

    // An out-of-range confidence is a typed 400.
    let bad = request_body(&train, 3).replacen("\"top_k\"", "\"confidence\": 1.5, \"top_k\"", 1);
    let (status, response) = client_request(&addr, "POST", "/v1/query", &bad).unwrap();
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("confidence"));

    server.shutdown();
    cleanup(&paths);
}
