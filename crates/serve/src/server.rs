//! The daemon: a TCP acceptor, a background guardian, and the guardrail
//! plumbing that turns the library into something operable — admission
//! control, per-query deadlines, and the generation-keyed result cache.
//!
//! Threading model: the acceptor spawns one short-lived thread per
//! connection (the protocol is one request per connection), and that thread
//! does all of its request's work — HTTP parsing, routing, cache lookups and,
//! for `POST /v1/query`, the scoring itself, under its admission permit and
//! with a fresh [`EstimatorWorkspace`] dropped with the query. The admission
//! gate bounds queries *scoring*, not connections, so health checks keep
//! answering while every permit is taken, and a query that times out stops
//! at the next shard boundary instead of running on behind its 504.
//!
//! Shard state lives in an `Epoch` — one immutable `ShardSet` paired with
//! the stage cache bound to its generation — behind a `RwLock`. Queries
//! clone the current epoch (two `Arc` bumps) and score against it for their
//! whole lifetime; the background guardian installs a new epoch after
//! rewriting a shard file, so in-flight queries keep their consistent
//! snapshot while new queries see the compacted one.
//!
//! # Robustness
//!
//! The daemon degrades instead of dying:
//!
//! * **Query panic isolation** — every query is scored under
//!   `catch_unwind`; a panicking query becomes a typed 500
//!   (`"code": "panic"`), its workspace is dropped with it, the daemon keeps
//!   serving, and the panic counter shows on `GET /v1/shards`.
//! * **Per-shard circuit breaker** — a shard that fails while scoring is
//!   quarantined ([`crate::guard::ShardHealth`]); queries skip it (partial
//!   ranking with `allow_partial`, strict 500 otherwise) while the guardian
//!   retries reopening it on a capped, jittered backoff.
//! * **Graceful drain** — [`Server::begin_drain`] flips `/v1/healthz` to 503
//!   and rejects new queries with a typed 503 while in-flight ones finish;
//!   the `joinmi_serve` binary wires this to SIGTERM.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use joinmi_discovery::{
    CandidateSource, CompactMode, QueryStageCache, StageCacheConfig, TableRepository,
};
use joinmi_estimators::EstimatorWorkspace;
use joinmi_hash::SplitMix64;

use crate::guard::{AdmissionGate, CachedResult, Deadline, QueryCache, ShardHealth};
use crate::http::{client_request, read_request, write_response, Request};
use crate::json::{obj, Json};
use crate::shard::ShardSet;
use crate::wire::{QueryRequest, QueryResponse, ServeError, ShardedResult};

/// Daemon configuration; every knob is documented in `docs/SERVING.md`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Per-query wall-clock budget in milliseconds; 0 disables the deadline.
    pub timeout_ms: u64,
    /// Maximum queries in flight, and so the bound on queries scoring at
    /// once; 0 means unlimited.
    pub max_inflight: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Cross-query stage-cache capacity in entries (joined sketches + MI
    /// estimates, shared by every query in flight); 0 disables the stage
    /// cache.
    pub stage_cache_entries: usize,
    /// Cross-query stage-cache bound in resident bytes; 0 means unbounded by
    /// bytes (the entry bound still applies).
    pub stage_cache_bytes: usize,
    /// Background compaction: fold a shard's append log once it carries at
    /// least this many append groups; 0 disables the group trigger.
    pub compact_after_groups: usize,
    /// Background compaction: fold a shard's append log once its appended
    /// history reaches this many bytes (measured against the file on disk,
    /// so external appends count); 0 disables the byte trigger. The
    /// compactor thread runs only when at least one trigger is set.
    pub compact_after_bytes: usize,
    /// How often the guardian thread re-checks the compaction triggers and
    /// quarantined shards, in milliseconds. Clamped to at least 10.
    pub compact_poll_ms: u64,
    /// Base delay for background retries (quarantine reopens, failed
    /// compactions), in milliseconds; doubles per consecutive failure with
    /// deterministic jitter. Clamped to at least 1.
    pub retry_backoff_ms: u64,
    /// Cap on any single background-retry delay, in milliseconds.
    pub retry_backoff_cap_ms: u64,
    /// Budget for [`Server::drain`] to wait for in-flight queries, in
    /// milliseconds. Only the `joinmi_serve` binary's SIGTERM path reads
    /// this; embedders pass their own deadline.
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let stage = StageCacheConfig::default();
        Self {
            addr: "127.0.0.1:0".to_owned(),
            timeout_ms: 10_000,
            max_inflight: 32,
            cache_capacity: 128,
            stage_cache_entries: stage.max_entries,
            stage_cache_bytes: stage.max_bytes,
            compact_after_groups: 0,
            compact_after_bytes: 0,
            compact_poll_ms: 500,
            retry_backoff_ms: 1_000,
            retry_backoff_cap_ms: 60_000,
            drain_ms: 5_000,
        }
    }
}

/// One immutable serving epoch: a shard set plus the cross-query stage cache
/// bound to its generation. Cloning is two `Arc` bumps; a query holds its
/// epoch for its whole lifetime, so an epoch swap never mixes snapshots
/// within one ranking.
#[derive(Clone)]
struct Epoch {
    shards: Arc<ShardSet>,
    stage_cache: Arc<QueryStageCache>,
}

impl Epoch {
    fn new(shards: ShardSet, config: &ServerConfig) -> Self {
        let stage_cache = QueryStageCache::with_generation(
            StageCacheConfig {
                max_entries: config.stage_cache_entries,
                max_bytes: config.stage_cache_bytes,
            },
            shards.generation(),
        );
        Self {
            shards: Arc::new(shards),
            stage_cache: Arc::new(stage_cache),
        }
    }
}

struct Shared {
    /// The current epoch; read by every query, replaced by the guardian.
    epoch: RwLock<Epoch>,
    config: ServerConfig,
    gate: AdmissionGate,
    cache: Mutex<QueryCache>,
    shutdown: AtomicBool,
    /// Draining: `/v1/healthz` answers 503 and new queries are rejected
    /// while in-flight ones finish.
    draining: AtomicBool,
    /// Shard files rewritten by the background guardian since startup.
    compactions: AtomicU64,
    /// Queries that panicked while scoring (each became a typed 500 and the
    /// daemon kept serving).
    worker_panics: AtomicU64,
    /// Candidates skipped by interval early termination across all queries
    /// since startup (see `QueryStats::early_stopped`).
    early_stopped: AtomicU64,
    /// Candidates skipped by the distinct-sketch join-size bound across all
    /// queries since startup (see `QueryStats::pruned`).
    pruned: AtomicU64,
    /// One circuit breaker per shard, indexed like the shard list. The
    /// shard *count* is fixed for the daemon's lifetime (epoch swaps reload
    /// files in place), so this vector never resizes.
    health: Vec<ShardHealth>,
    /// The bound port; scopes this daemon's fault-injection checkpoints so
    /// concurrent test daemons in one process do not trip each other.
    port: u16,
}

impl Shared {
    fn epoch(&self) -> Epoch {
        // An Epoch is a plain pair of Arcs swapped atomically under the
        // lock; a panicked peer cannot leave it half-updated, so poison is
        // safe to strip — one crashed thread must not take the daemon down.
        self.epoch
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A running daemon. Dropping it (or calling [`Server::shutdown`]) stops the
/// acceptor, waits for the queries still scoring, and joins its threads.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, starts the guardian and the acceptor, and
    /// returns immediately. Use [`Server::local_addr`] to find the bound
    /// port when the config asked for port 0.
    pub fn start(config: ServerConfig, shards: ShardSet) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        // One breaker per shard, each with its own jitter stream so retry
        // storms across shards de-correlate.
        let health = (0..shards.shards().len())
            .map(|index| {
                ShardHealth::new(
                    config.retry_backoff_ms,
                    config.retry_backoff_cap_ms,
                    SplitMix64::derive_seed(u64::from(local_addr.port()), index as u64),
                )
            })
            .collect();
        let shared = Arc::new(Shared {
            gate: AdmissionGate::new(config.max_inflight),
            cache: Mutex::new(QueryCache::new(config.cache_capacity)),
            epoch: RwLock::new(Epoch::new(shards, &config)),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            compactions: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            early_stopped: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            health,
            port: local_addr.port(),
            config,
        });

        let mut threads = Vec::new();
        {
            // The guardian always runs: even with compaction off it owns
            // reopening quarantined shards.
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || guardian_loop(&shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                acceptor_loop(&shared, &listener)
            }));
        }

        Ok(Self {
            local_addr,
            shared,
            threads,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, waits until no admitted query is still scoring, and
    /// joins the acceptor and the guardian. Once it returns, no query of this
    /// daemon runs. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A dummy connection wakes the blocking accept().
        let _ = TcpStream::connect(self.local_addr);
        // A query admitted from here on sees the flag and stops before
        // scoring (see `query`), so the count only falls.
        while self.shared.gate.inflight() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Flips the daemon into draining mode: `/v1/healthz` starts answering
    /// 503 (so load balancers stop routing here) and new queries are
    /// rejected with a typed 503, while queries already admitted keep
    /// running to completion. Irreversible; the daemon's next step is
    /// [`Server::drain`] or [`Server::shutdown`].
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`Server::begin_drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: begins draining, waits up to `deadline` for
    /// in-flight queries to finish, then calls [`Server::shutdown`]. Returns
    /// whether every query finished before the deadline; one still scoring
    /// then is waited for by the shutdown, and stops at its next shard
    /// boundary once its own query deadline passes.
    pub fn drain(&mut self, deadline: Duration) -> bool {
        self.begin_drain();
        let until = std::time::Instant::now() + deadline;
        let mut drained = self.shared.gate.inflight() == 0;
        while !drained && std::time::Instant::now() < until {
            std::thread::sleep(Duration::from_millis(10));
            drained = self.shared.gate.inflight() == 0;
        }
        self.shutdown();
        drained
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (EMFILE, aborted handshakes);
            // keep serving unless we are shutting down.
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        // One thread per connection: requests are short-lived (the protocol
        // is connection-per-request) and the admission gate, not the thread
        // count, bounds concurrent query work.
        std::thread::spawn(move || handle_connection(&shared, stream));
    }
}

/// Scores one admitted query against `epoch` on the calling connection
/// thread: fault-injection checkpoints, quarantine skips, scoring, breaker
/// updates, and the strict-vs-partial policy. Returns the ranking and the
/// shard indices that did not contribute (non-empty only when the request
/// opted in with `allow_partial`; strict requests fail instead).
fn score_query(
    shared: &Shared,
    request: &QueryRequest,
    epoch: &Epoch,
    deadline: Deadline,
) -> Result<(Vec<ShardedResult>, Vec<usize>), ServeError> {
    // Chaos checkpoints: one global, one scoped to this daemon's port so a
    // test arming the process-wide plan only hits its own server. An `Error`
    // action models an engine failure; a `Panic` action exercises the
    // catch_unwind path in `query`.
    joinmi_store::fault::failpoint("serve.worker.query")
        .and_then(|()| {
            joinmi_store::fault::failpoint(&format!("serve.worker.query:{}", shared.port))
        })
        .map_err(|e| ServeError::Internal(e.to_string()))?;

    let quarantined: Vec<usize> = shared
        .health
        .iter()
        .enumerate()
        .filter(|(_, health)| health.is_quarantined())
        .map(|(index, _)| index)
        .collect();
    let outcome = epoch.shards.execute(
        request,
        &mut EstimatorWorkspace::new(),
        Some(&epoch.stage_cache),
        deadline,
        shared.config.timeout_ms,
        &quarantined,
    )?;

    shared
        .early_stopped
        .fetch_add(outcome.stats.early_stopped as u64, Ordering::SeqCst);
    shared
        .pruned
        .fetch_add(outcome.stats.pruned as u64, Ordering::SeqCst);

    // Trip the breaker for shards that failed mid-query; the guardian will
    // try to bring them back on the reopen schedule.
    for (index, message) in &outcome.failed {
        if let Some(health) = shared.health.get(*index) {
            if !health.is_quarantined() {
                eprintln!(
                    "joinmi_serve: shard {index} failed while scoring and is quarantined: \
                     {message}"
                );
            }
            health.quarantine();
        }
    }

    let degraded = outcome.degraded();
    if !degraded.is_empty() && !request.allow_partial {
        return Err(ServeError::Degraded { shards: degraded });
    }
    Ok((outcome.results, degraded))
}

/// The background guardian: every `compact_poll_ms` it (1) tries to restore
/// quarantined shards whose reopen backoff has elapsed, and (2) checks each
/// healthy unsealed shard against the compaction triggers and, for each
/// shard due, folds the on-disk append log with [`TableRepository::compact`]
/// (atomic write-new-then-rename), re-reads that one file, and installs a
/// fresh [`Epoch`] — new shard set, new generation, new stage cache.
/// In-flight queries finish on the epoch they started with.
///
/// Compaction triggers:
///
/// * group trigger — the *served snapshot* carries at least
///   `compact_after_groups` append groups;
/// * byte trigger — the *file on disk* carries at least
///   `compact_after_bytes` bytes past the base payload. The on-disk length
///   is re-statted every pass, so append groups written by an external
///   ingester eventually trip this trigger, and the post-compaction reload
///   folds them into the served snapshot — this is the daemon's freshness
///   bound. (Do not append concurrently with a compaction pass itself; see
///   `docs/SERVING.md`.)
///
/// Failures never stop the loop: the previous epoch keeps serving, and each
/// shard's retries (reopen and compaction alike) back off exponentially with
/// deterministic jitter on that shard's [`ShardHealth`] schedule instead of
/// re-firing every poll.
fn guardian_loop(shared: &Arc<Shared>) {
    loop {
        // Sleep one poll interval in short slices so shutdown stays prompt.
        let poll = Duration::from_millis(shared.config.compact_poll_ms.max(10));
        let deadline = std::time::Instant::now() + poll;
        while std::time::Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10).min(poll));
        }

        reopen_quarantined(shared);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.config.compact_after_groups > 0 || shared.config.compact_after_bytes > 0 {
            run_compactions(shared);
        }
    }
}

/// One guardian pass over quarantined shards: for each whose backoff has
/// elapsed, re-read its file and, on success, restore it to rotation with a
/// fresh epoch. Failure pushes the next attempt out exponentially.
fn reopen_quarantined(shared: &Arc<Shared>) {
    for (index, health) in shared.health.iter().enumerate() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if !health.is_quarantined() || !health.reopen_ready() {
            continue;
        }
        health.record_reopen_attempt();
        match reopen_and_swap(shared, index) {
            Ok(()) => {
                health.restore();
                eprintln!("joinmi_serve: shard {index} reopened; back in rotation");
            }
            Err(message) => {
                health.reopen_failed();
                eprintln!(
                    "joinmi_serve: reopening quarantined shard {index}: {message} (backing off)"
                );
            }
        }
    }
}

/// Re-reads shard `index` from disk and installs a fresh epoch. Shared by
/// the quarantine-reopen path; the file must still decode and hold the same
/// candidate count, or the error leaves the shard quarantined.
fn reopen_and_swap(shared: &Shared, index: usize) -> Result<(), String> {
    let epoch = shared.epoch();
    let reloaded = epoch
        .shards
        .with_reloaded_shard(index)
        .map_err(|e| e.to_string())?;
    let next = Epoch::new(reloaded, &shared.config);
    *shared.epoch.write().unwrap_or_else(PoisonError::into_inner) = next;
    Ok(())
}

/// One guardian pass over the compaction triggers.
fn run_compactions(shared: &Arc<Shared>) {
    let epoch = shared.epoch();
    for (index, shard) in epoch.shards.shards().iter().enumerate() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(health) = shared.health.get(index) else {
            continue;
        };
        if shard.sealed()
            || health.is_quarantined()
            || !health.compact_ready()
            || !compaction_due(shared, shard)
        {
            continue;
        }
        match compact_and_swap(shared, index) {
            Ok(()) => {
                shared.compactions.fetch_add(1, Ordering::SeqCst);
                health.compact_succeeded();
            }
            Err(message) => {
                health.compact_failed();
                eprintln!(
                    "joinmi_serve: compacting {}: {message} (failure {}, backing off)",
                    shard.path().display(),
                    health.compact_failures(),
                );
            }
        }
    }
}

/// Whether either compaction trigger fires for `shard` right now.
fn compaction_due(shared: &Shared, shard: &crate::shard::Shard) -> bool {
    let groups = shared.config.compact_after_groups;
    if groups > 0 && shard.snapshot().append_groups() >= groups {
        return true;
    }
    let bytes = shared.config.compact_after_bytes;
    if bytes > 0 {
        // Measure against the file on disk so externally appended groups
        // count; the served snapshot's base length anchors the computation.
        if let Ok(meta) = std::fs::metadata(shard.path()) {
            return byte_trigger_due(bytes, shard.file_len(), shard.appended_bytes(), meta.len());
        }
    }
    false
}

/// The byte trigger as a pure predicate: the file on disk has grown at least
/// `threshold` bytes past the served snapshot's base payload. Everything
/// saturates — the file may have *shrunk* since the snapshot was taken (an
/// external compaction), and served-length bookkeeping must never be able to
/// underflow this into a debug panic or a wrapped always-true trigger.
fn byte_trigger_due(
    threshold: usize,
    served_len: u64,
    appended_bytes: usize,
    disk_len: u64,
) -> bool {
    let base_len = served_len.saturating_sub(appended_bytes as u64);
    disk_len.saturating_sub(base_len) >= threshold as u64
}

/// Compacts shard `index`'s file in place, then swaps in a new epoch with
/// that shard re-read. The result-cache needs no flush: its keys carry the
/// generation, and the reload changes it.
fn compact_and_swap(shared: &Shared, index: usize) -> Result<(), String> {
    let epoch = shared.epoch();
    let shard = &epoch.shards.shards()[index];
    TableRepository::compact(shard.path(), CompactMode::Preserve).map_err(|e| e.to_string())?;
    let reloaded = epoch
        .shards
        .with_reloaded_shard(index)
        .map_err(|e| e.to_string())?;
    let next = Epoch::new(reloaded, &shared.config);
    *shared.epoch.write().unwrap_or_else(PoisonError::into_inner) = next;
    Ok(())
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(e) => {
            let body = obj([(
                "error",
                obj([
                    ("code", Json::Str("bad_request".into())),
                    ("message", Json::Str(e.message.clone())),
                ]),
            )])
            .encode();
            let _ = write_response(&mut stream, e.status, "Bad Request", &body);
            return;
        }
    };

    let (status, reason, body) = route(shared, &request);
    let _ = write_response(&mut stream, status, reason, &body);
}

fn route(shared: &Shared, request: &Request) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let (status, body) = healthz(shared);
            let reason = if status == 200 {
                "OK"
            } else {
                "Service Unavailable"
            };
            (status, reason, body.encode())
        }
        ("GET", "/v1/shards") => (200, "OK", shards_info(shared).encode()),
        ("POST", "/v1/query") => match query(shared, &request.body) {
            Ok(response) => (200, "OK", response.to_json().encode()),
            Err(e) => {
                let (status, reason) = e.status();
                (status, reason, e.to_json().encode())
            }
        },
        (_, "/v1/healthz" | "/v1/shards" | "/v1/query") => {
            let e = ServeError::MethodNotAllowed;
            let (status, reason) = e.status();
            (status, reason, e.to_json().encode())
        }
        _ => {
            let e = ServeError::NotFound;
            let (status, reason) = e.status();
            (status, reason, e.to_json().encode())
        }
    }
}

/// Readiness: 200 while serving (status `"ok"`, or `"degraded"` with shards
/// quarantined — the daemon still answers), 503 with status `"draining"`
/// once a drain began, so load balancers stop routing here before the
/// process exits.
fn healthz(shared: &Shared) -> (u16, Json) {
    let epoch = shared.epoch();
    let draining = shared.draining.load(Ordering::SeqCst);
    let quarantined = shared.health.iter().filter(|h| h.is_quarantined()).count();
    let status = if draining {
        "draining"
    } else if quarantined > 0 {
        "degraded"
    } else {
        "ok"
    };
    let body = obj([
        ("status", Json::Str(status.into())),
        ("shards", Json::Int(epoch.shards.shards().len() as i64)),
        ("quarantined_shards", Json::Int(quarantined as i64)),
        (
            "generation",
            Json::Str(format!("0x{:016x}", epoch.shards.generation())),
        ),
        ("inflight", Json::Int(shared.gate.inflight() as i64)),
        (
            "compactions",
            Json::Int(shared.compactions.load(Ordering::SeqCst) as i64),
        ),
        (
            "worker_panics",
            Json::Int(shared.worker_panics.load(Ordering::SeqCst) as i64),
        ),
        ("stage_cache", stage_cache_json(&epoch)),
    ]);
    (if draining { 503 } else { 200 }, body)
}

/// The stage cache's counters and occupancy, embedded verbatim in both the
/// healthz payload and `GET /v1/shards`. Counters are per epoch: an epoch
/// swap installs a fresh cache, so they restart at zero after a compaction.
fn stage_cache_json(epoch: &Epoch) -> Json {
    let stats = epoch.stage_cache.stats();
    let config = epoch.stage_cache.config();
    obj([
        ("max_entries", Json::Int(config.max_entries as i64)),
        ("max_bytes", Json::Int(config.max_bytes as i64)),
        ("entries", Json::Int(stats.entries as i64)),
        ("resident_bytes", Json::Int(stats.resident_bytes as i64)),
        ("join_hits", Json::Int(stats.join_hits as i64)),
        ("join_misses", Json::Int(stats.join_misses as i64)),
        ("estimate_hits", Json::Int(stats.estimate_hits as i64)),
        ("estimate_misses", Json::Int(stats.estimate_misses as i64)),
        ("evictions", Json::Int(stats.evictions as i64)),
    ])
}

fn shards_info(shared: &Shared) -> Json {
    let epoch = shared.epoch();
    let shards: Vec<Json> = epoch
        .shards
        .shards()
        .iter()
        .enumerate()
        .map(|(index, shard)| {
            let health = shared.health.get(index);
            obj([
                (
                    "path",
                    Json::Str(shard.path().to_string_lossy().into_owned()),
                ),
                ("file_len", Json::Int(shard.file_len() as i64)),
                ("tables", Json::Int(shard.snapshot().num_tables() as i64)),
                (
                    "candidates",
                    Json::Int(shard.snapshot().candidate_count() as i64),
                ),
                (
                    "append_groups",
                    Json::Int(shard.snapshot().append_groups() as i64),
                ),
                ("appended_bytes", Json::Int(shard.appended_bytes() as i64)),
                ("sealed", Json::Bool(shard.sealed())),
                (
                    "candidate_offset",
                    Json::Int(shard.candidate_offset() as i64),
                ),
                (
                    "quarantined",
                    Json::Bool(health.is_some_and(ShardHealth::is_quarantined)),
                ),
                (
                    "failures",
                    Json::Int(health.map_or(0, ShardHealth::failures) as i64),
                ),
                (
                    "reopen_attempts",
                    Json::Int(health.map_or(0, ShardHealth::reopen_attempts) as i64),
                ),
                (
                    "compact_failures",
                    Json::Int(health.map_or(0, ShardHealth::compact_failures) as i64),
                ),
            ])
        })
        .collect();
    let (hits, misses) = shared
        .cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .stats();
    obj([
        ("shards", Json::Arr(shards)),
        (
            "generation",
            Json::Str(format!("0x{:016x}", epoch.shards.generation())),
        ),
        ("timeout_ms", Json::Int(shared.config.timeout_ms as i64)),
        ("max_inflight", Json::Int(shared.config.max_inflight as i64)),
        (
            "cache_capacity",
            Json::Int(shared.config.cache_capacity as i64),
        ),
        ("cache_hits", Json::Int(hits as i64)),
        ("cache_misses", Json::Int(misses as i64)),
        (
            "early_stopped",
            Json::Int(shared.early_stopped.load(Ordering::SeqCst) as i64),
        ),
        (
            "pruned",
            Json::Int(shared.pruned.load(Ordering::SeqCst) as i64),
        ),
        (
            "compactions",
            Json::Int(shared.compactions.load(Ordering::SeqCst) as i64),
        ),
        (
            "compact_after_groups",
            Json::Int(shared.config.compact_after_groups as i64),
        ),
        (
            "compact_after_bytes",
            Json::Int(shared.config.compact_after_bytes as i64),
        ),
        (
            "worker_panics",
            Json::Int(shared.worker_panics.load(Ordering::SeqCst) as i64),
        ),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
        (
            "retry_backoff_ms",
            Json::Int(shared.config.retry_backoff_ms as i64),
        ),
        ("stage_cache", stage_cache_json(&epoch)),
    ])
}

fn query(shared: &Shared, body: &str) -> Result<QueryResponse, ServeError> {
    // A draining daemon admits nothing new; in-flight queries (already past
    // this check) keep running to the drain deadline.
    if shared.draining.load(Ordering::SeqCst) {
        return Err(ServeError::Draining);
    }
    let request = QueryRequest::from_json(body)?;

    // Admission first: a rejected query does zero parsing beyond this point
    // and zero scoring work.
    let Some(_permit) = shared.gate.try_acquire() else {
        return Err(ServeError::Overloaded {
            max_inflight: shared.gate.max_inflight(),
        });
    };
    let deadline = Deadline::starting_now(shared.config.timeout_ms);

    // One epoch per query: the snapshot set, generation and stage cache stay
    // consistent for this request even if the compactor swaps mid-flight.
    let epoch = shared.epoch();
    let generation = epoch.shards.generation();
    let shards_queried = epoch.shards.shards().len();

    // Cache: keyed by (query fingerprint, snapshot generation). An epoch
    // swap — a compaction, or a reload after append_to — changes the
    // generation, so stale entries stop matching without any flush.
    let fingerprint = request.fingerprint();
    let key = (fingerprint.0, fingerprint.1, generation);
    if let Some(hit) = shared
        .cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        // Only complete rankings are ever cached, so a hit is never partial
        // — and is a valid answer whatever the request's `allow_partial`.
        return Ok(QueryResponse {
            results: hit.results.as_ref().clone(),
            shards_queried: hit.shards_queried,
            generation,
            cached: true,
            partial: false,
            degraded_shards: Vec::new(),
        });
    }

    // Score on this thread. `Server::shutdown` sets the flag before it reads
    // the in-flight count, and this permit counted before the flag is read
    // here, so either the shutdown waits for this query or the query stops.
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(ServeError::Internal("server is shutting down".into()));
    }
    let (results, degraded) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        score_query(shared, &request, &epoch, deadline)
    }))
    .unwrap_or_else(|_| {
        shared.worker_panics.fetch_add(1, Ordering::SeqCst);
        Err(ServeError::QueryPanicked)
    })?;

    let partial = !degraded.is_empty();
    if !partial {
        // Never cache a partial ranking: the quarantined shard may be back
        // for the very next query under the same generation, and a cached
        // partial answer would silently shadow the complete one.
        shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                key,
                Arc::new(CachedResult {
                    results: Arc::new(results.clone()),
                    shards_queried,
                }),
            );
    }
    Ok(QueryResponse {
        results,
        shards_queried,
        generation,
        cached: false,
        partial,
        degraded_shards: degraded,
    })
}

/// Blocks until the daemon at `addr` answers `GET /v1/healthz`, retrying for
/// up to `wait` total. Used by tests and the CI serve leg to avoid racing
/// the daemon's startup.
pub fn wait_healthy(addr: &str, wait: Duration) -> std::io::Result<()> {
    let deadline = std::time::Instant::now() + wait;
    loop {
        match client_request(addr, "GET", "/v1/healthz", "") {
            Ok((200, _)) => return Ok(()),
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Ok((status, body)) => {
                return Err(std::io::Error::other(format!("unhealthy: {status} {body}")))
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::byte_trigger_due;

    /// Regression: the byte trigger used `file_len - appended_bytes`
    /// unchecked, which panicked in debug (wrapped in release) whenever the
    /// on-disk file shrank below the served snapshot's bookkeeping — e.g. an
    /// external compaction between polls.
    #[test]
    fn byte_trigger_survives_externally_shrunk_files() {
        // Served 120 bytes of which 20 appended → base 100; disk grew to
        // 160: 60 new bytes, due at threshold 50, not at 70.
        assert!(byte_trigger_due(50, 120, 20, 160));
        assert!(!byte_trigger_due(70, 120, 20, 160));
        // Disk shrank to 90 (below the served base): nothing new, not due —
        // and no underflow.
        assert!(!byte_trigger_due(50, 120, 20, 90));
        // Inconsistent bookkeeping (appended > served length) saturates the
        // base to 0 instead of wrapping to u64::MAX.
        assert!(byte_trigger_due(50, 10, 30, 60));
        assert!(!byte_trigger_due(70, 10, 30, 60));
    }
}
