//! `joinmi_serve` — the sharded discovery daemon.
//!
//! ```text
//! joinmi_serve --addr 127.0.0.1:7171 shard-0.jmi shard-1.jmi shard-2.jmi
//! ```
//!
//! Flags (all optional; defaults in parentheses):
//!
//! * `--addr HOST:PORT` — bind address (`127.0.0.1:7171`; port 0 picks one)
//! * `--timeout-ms N` — per-query wall-clock budget, 0 = none (10000)
//! * `--max-inflight N` — admission limit and so the bound on queries scoring
//!   at once, 0 = unlimited (32)
//! * `--cache N` — result-cache entries, 0 = disabled (128)
//! * `--cache-entries N` — cross-query stage-cache entries, 0 = disabled (4096)
//! * `--cache-bytes N` — cross-query stage-cache resident-byte bound, 0 = unbounded (64 MiB)
//! * `--repair` — repair torn append tails at open instead of refusing them
//! * `--compact-after N` — background-compact a shard once it carries ≥ N
//!   append groups, 0 = off (0)
//! * `--compact-bytes N` — background-compact a shard once its on-disk append
//!   log reaches N bytes, 0 = off (0)
//! * `--compact-poll-ms N` — guardian trigger-check interval (500)
//! * `--retry-backoff-ms N` — base delay for background retries
//!   (quarantine reopens, failed compactions); doubles per failure (1000)
//! * `--retry-backoff-cap-ms N` — cap on any single retry delay (60000)
//! * `--drain-ms N` — SIGTERM drain budget for in-flight queries (5000)
//!
//! On SIGTERM (or SIGINT) the daemon drains gracefully: `/v1/healthz` flips
//! to 503, new queries get a typed 503, in-flight queries finish within the
//! `--drain-ms` budget, then the process exits 0.
//!
//! The full protocol and operator runbook live in `docs/SERVING.md`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::time::Duration;

use joinmi_serve::{Server, ServerConfig, ShardSet};

/// SIGTERM/SIGINT → one atomic flag, polled by the main loop. Hand-rolled
/// FFI because the workspace builds offline (no `libc`/`signal-hook`): the
/// handler does nothing but an atomic store, which is async-signal-safe, and
/// this module and `malloc` below are the only unsafe code in the
/// workspace — the serve library itself still forbids unsafe.
#[cfg(unix)]
mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX `signal(2)` from the libc that std already links. Handlers
        // are passed and returned as raw addresses (`sighandler_t`).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    /// Installs the handler for SIGTERM and SIGINT.
    pub fn install() {
        let handler = on_terminate as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn should_terminate() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    pub fn install() {}

    pub fn should_terminate() -> bool {
        false
    }
}

/// Caps glibc's malloc arenas at two. Every query is scored on its
/// connection's short-lived thread, and glibc gives a thread that starts
/// while every arena is taken a new one, up to eight per core; the stage
/// cache's long-lived entries then pin free pages in all of them. On the
/// benchmark's `serve_cold` (2 cores, 2 clients) peak RSS reads ≈ 78 MiB at
/// one arena, ≈ 86 at two, ≈ 94 at four and ≈ 107 uncapped. Two leaves a
/// second arena for concurrent queries, and glibc's per-thread caches serve
/// most small allocations without taking an arena lock at all.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod malloc {
    const M_ARENA_MAX: i32 = -8;

    extern "C" {
        // glibc's `mallopt(3)`; std already links glibc.
        fn mallopt(param: i32, value: i32) -> i32;
    }

    /// Sets the cap; call before any thread but `main` is spawned.
    pub fn cap_arenas() {
        // SAFETY: a plain tuning call with no pointers; glibc validates it.
        unsafe {
            mallopt(M_ARENA_MAX, 2);
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod malloc {
    pub fn cap_arenas() {}
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("joinmi_serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    malloc::cap_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return Ok(ExitCode::SUCCESS);
    }

    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_owned(),
        ..ServerConfig::default()
    };
    let mut repair = false;
    let mut shard_paths: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag '{arg}' needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = take_value(&mut i)?,
            "--timeout-ms" => config.timeout_ms = parse_num(arg, &take_value(&mut i)?)?,
            "--max-inflight" => config.max_inflight = parse_num(arg, &take_value(&mut i)?)?,
            "--cache" => config.cache_capacity = parse_num(arg, &take_value(&mut i)?)?,
            "--cache-entries" => config.stage_cache_entries = parse_num(arg, &take_value(&mut i)?)?,
            "--cache-bytes" => config.stage_cache_bytes = parse_num(arg, &take_value(&mut i)?)?,
            "--compact-after" => {
                config.compact_after_groups = parse_num(arg, &take_value(&mut i)?)?;
            }
            "--compact-bytes" => {
                config.compact_after_bytes = parse_num(arg, &take_value(&mut i)?)?;
            }
            "--compact-poll-ms" => {
                config.compact_poll_ms = parse_num(arg, &take_value(&mut i)?)?;
            }
            "--retry-backoff-ms" => {
                config.retry_backoff_ms = parse_num(arg, &take_value(&mut i)?)?;
            }
            "--retry-backoff-cap-ms" => {
                config.retry_backoff_cap_ms = parse_num(arg, &take_value(&mut i)?)?;
            }
            "--drain-ms" => config.drain_ms = parse_num(arg, &take_value(&mut i)?)?,
            "--repair" => repair = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => shard_paths.push(path.to_owned()),
        }
        i += 1;
    }
    if shard_paths.is_empty() {
        print_help();
        return Err("no shard files given".to_owned());
    }

    let shards = if repair {
        let (shards, repairs) =
            ShardSet::open_with_repair(&shard_paths).map_err(|e| format!("opening shards: {e}"))?;
        for r in &repairs {
            if r.report.is_torn() {
                eprintln!(
                    "joinmi_serve: repaired {}: dropped {} bytes ({} whole sections) after \
                     {} complete append group(s)",
                    r.path.display(),
                    r.report.dropped_bytes,
                    r.report.dropped_sections,
                    r.report.complete_groups,
                );
            }
        }
        shards
    } else {
        ShardSet::open(&shard_paths).map_err(|e| {
            format!("opening shards: {e} (a torn append tail can be repaired with --repair)")
        })?
    };

    eprintln!(
        "joinmi_serve: {} shard(s), {} candidates, generation 0x{:016x}",
        shards.shards().len(),
        shards.total_candidates(),
        shards.generation(),
    );
    let drain_ms = config.drain_ms;
    signal::install();
    let mut server = Server::start(config, shards).map_err(|e| format!("starting server: {e}"))?;
    eprintln!("joinmi_serve: listening on http://{}", server.local_addr());

    // Serve until signalled: the daemon has no privileged control endpoint,
    // so stop/restart is process lifecycle (see the runbook in
    // docs/SERVING.md). SIGTERM/SIGINT drains gracefully.
    loop {
        if signal::should_terminate() {
            eprintln!("joinmi_serve: termination signal; draining (budget {drain_ms} ms)");
            let drained = server.drain(Duration::from_millis(drain_ms));
            eprintln!(
                "joinmi_serve: {}; exiting",
                if drained {
                    "drained cleanly"
                } else {
                    "drain budget elapsed with queries still in flight"
                }
            );
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("flag '{flag}': invalid number '{value}'"))
}

fn print_help() {
    eprintln!(
        "usage: joinmi_serve [--addr HOST:PORT] [--timeout-ms N] [--max-inflight N] \
         [--cache N] [--cache-entries N] [--cache-bytes N] \
         [--compact-after N] [--compact-bytes N] [--compact-poll-ms N] \
         [--retry-backoff-ms N] [--retry-backoff-cap-ms N] [--drain-ms N] \
         [--repair] SHARD.jmi [SHARD.jmi ...]\n\
         Serves POST /v1/query, GET /v1/shards, GET /v1/healthz; SIGTERM \
         drains gracefully. Protocol spec and runbook: docs/SERVING.md"
    );
}
