//! Production guardrails: per-query deadlines, an admission gate bounding
//! in-flight queries, a bounded LRU result cache keyed by query fingerprint
//! **and** shard snapshot generation (so append epochs invalidate stale
//! entries without any explicit flush), plus the failure-handling primitives
//! — capped jittered exponential [`Backoff`] and the per-shard
//! [`ShardHealth`] circuit breaker the daemon's quarantine/reopen loop runs
//! on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use joinmi_hash::SplitMix64;

use crate::wire::ShardedResult;

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

/// A per-query wall-clock budget. `timeout_ms = 0` disables the deadline —
/// useful for drain-style maintenance queries and deterministic tests.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    expires_at: Option<Instant>,
}

impl Deadline {
    /// Starts the clock now with a budget of `timeout_ms` milliseconds.
    #[must_use]
    pub fn starting_now(timeout_ms: u64) -> Self {
        Self {
            expires_at: (timeout_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(timeout_ms)),
        }
    }

    /// A deadline that never expires.
    #[must_use]
    pub fn unlimited() -> Self {
        Self { expires_at: None }
    }

    /// Whether the budget has elapsed. Checked cooperatively between shards;
    /// a query is never pre-empted mid-estimate.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.expires_at.is_some_and(|at| Instant::now() >= at)
    }
}

// ---------------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------------

/// Bounds the number of queries in flight. `max_inflight = 0` means
/// unlimited: such a gate never rejects but still counts, so drain and
/// `inflight` read true whatever the limit. Rejection is immediate and
/// typed (HTTP 429) — the daemon sheds load instead of queueing unboundedly.
#[derive(Debug)]
pub struct AdmissionGate {
    max_inflight: usize,
    inflight: AtomicUsize,
}

impl AdmissionGate {
    /// Creates a gate admitting at most `max_inflight` concurrent queries.
    #[must_use]
    pub fn new(max_inflight: usize) -> Self {
        Self {
            max_inflight,
            inflight: AtomicUsize::new(0),
        }
    }

    /// The configured limit (0 = unlimited).
    #[must_use]
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Current number of admitted queries.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Tries to admit one query; `None` means the limit is reached and the
    /// caller must reject. The returned permit releases the slot on drop.
    #[must_use]
    pub fn try_acquire(&self) -> Option<AdmissionPermit<'_>> {
        let mut current = self.inflight.load(Ordering::SeqCst);
        loop {
            if self.max_inflight > 0 && current >= self.max_inflight {
                return None;
            }
            match self.inflight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Some(AdmissionPermit { gate: self }),
                Err(actual) => current = actual,
            }
        }
    }
}

/// An admitted query's slot; releases it on drop.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// The cache key: 128-bit query fingerprint plus the shard snapshot
/// generation the result was computed under. A reload after an append
/// changes the generation, so every pre-append entry silently stops
/// matching — bounded staleness without epochs or TTLs.
pub type CacheKey = (u64, u64, u64);

/// A cached merged ranking.
#[derive(Debug)]
pub struct CachedResult {
    /// The merged, globally ranked results.
    pub results: Arc<Vec<ShardedResult>>,
    /// Number of shards that produced them.
    pub shards_queried: usize,
}

/// A bounded LRU cache of merged query results. `capacity = 0` disables
/// caching. Eviction is strict LRU on read *and* write.
///
/// The implementation favours obviousness over asymptotics: recency is a
/// monotonic tick per entry and eviction scans for the minimum. Capacities
/// are daemon-config-sized (tens to thousands), where the O(capacity) scan
/// is noise next to a single sketch join.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<CacheKey, (u64, Arc<CachedResult>)>,
    hits: u64,
    misses: u64,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` rankings.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The configured capacity (0 = disabled).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up a ranking, refreshing its recency on hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((tick, value)) => {
                *tick = self.tick;
                self.hits += 1;
                Some(Arc::clone(value))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a ranking, evicting the least recently used entry when full.
    pub fn insert(&mut self, key: CacheKey, value: Arc<CachedResult>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(&oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (self.tick, value));
    }
}

// ---------------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------------

/// Capped, jittered, counted exponential backoff for background retries
/// (quarantine reopens, failed compactions). The jitter is **deterministic**
/// — a [`SplitMix64`] mix of the seed and the failure count — so tests and
/// the chaos sweep replay identical schedules, while distinct seeds (one per
/// shard) still de-correlate retry storms.
#[derive(Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
    failures: u64,
    not_before: Option<Instant>,
}

impl Backoff {
    /// Creates a backoff starting at `base_ms` (clamped to ≥ 1) and capped at
    /// `cap_ms` per wait; `seed` keys the deterministic jitter.
    #[must_use]
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        let base_ms = base_ms.max(1);
        Self {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            seed,
            failures: 0,
            not_before: None,
        }
    }

    /// Consecutive failures since the last [`Backoff::reset`].
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Whether enough time has passed to try again. `true` before the first
    /// failure.
    #[must_use]
    pub fn ready(&self) -> bool {
        !self.not_before.is_some_and(|at| Instant::now() < at)
    }

    /// Records a failure: bumps the counter and pushes the next retry out by
    /// [`Backoff::delay_ms`].
    pub fn record_failure(&mut self) {
        self.failures += 1;
        self.not_before = Some(Instant::now() + Duration::from_millis(self.delay_ms()));
    }

    /// The wait imposed by the current failure count: `base · 2^(n−1)` capped
    /// at `cap_ms`, plus up to 25% deterministic jitter (also capped). Pure —
    /// the same counter and seed always produce the same delay.
    #[must_use]
    pub fn delay_ms(&self) -> u64 {
        if self.failures == 0 {
            return 0;
        }
        let exponent = (self.failures - 1).min(32) as u32;
        let raw = self
            .base_ms
            .saturating_mul(1u64 << exponent)
            .min(self.cap_ms);
        // Jitter in [0, raw/4): mix(seed, failures) keeps it reproducible.
        let mix = SplitMix64::mix(self.seed ^ SplitMix64::mix(self.failures));
        let jitter = (raw / 4).saturating_mul(mix % 1024) / 1024;
        raw.saturating_add(jitter).min(self.cap_ms)
    }

    /// Clears the failure count and the wait after a success.
    pub fn reset(&mut self) {
        self.failures = 0;
        self.not_before = None;
    }
}

// ---------------------------------------------------------------------------
// Shard health (circuit breaker)
// ---------------------------------------------------------------------------

/// Per-shard circuit breaker: a quarantine flag the query path checks
/// lock-free, lifetime failure counters surfaced on `GET /v1/shards`, and
/// the two backoff schedules the guardian thread consults (reopening a
/// quarantined shard, retrying a failed compaction).
///
/// Lifecycle: a decode/IO failure while scoring trips
/// [`ShardHealth::quarantine`]; queries then skip the shard (partial or
/// strict-500 per `allow_partial`); the guardian retries
/// [`crate::shard::ShardSet::with_reloaded_shard`] on the reopen schedule and
/// [`ShardHealth::restore`] puts the shard back in rotation.
#[derive(Debug)]
pub struct ShardHealth {
    quarantined: AtomicBool,
    failures: AtomicU64,
    reopen_attempts: AtomicU64,
    compact_failures: AtomicU64,
    reopen: Mutex<Backoff>,
    compact: Mutex<Backoff>,
}

impl ShardHealth {
    /// Creates a healthy shard's breaker with both backoff schedules keyed by
    /// `seed` (derive one seed per shard index).
    #[must_use]
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        Self {
            quarantined: AtomicBool::new(false),
            failures: AtomicU64::new(0),
            reopen_attempts: AtomicU64::new(0),
            compact_failures: AtomicU64::new(0),
            reopen: Mutex::new(Backoff::new(base_ms, cap_ms, seed)),
            compact: Mutex::new(Backoff::new(base_ms, cap_ms, SplitMix64::mix(seed))),
        }
    }

    /// Whether the shard is currently out of rotation.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::SeqCst)
    }

    /// Trips the breaker: the shard leaves rotation and the first reopen
    /// attempt is scheduled one backoff step out. Idempotent; every call
    /// counts a failure.
    pub fn quarantine(&self) {
        self.failures.fetch_add(1, Ordering::SeqCst);
        self.quarantined.store(true, Ordering::SeqCst);
        self.lock_reopen().record_failure();
    }

    /// Puts the shard back in rotation and clears the reopen schedule.
    pub fn restore(&self) {
        self.quarantined.store(false, Ordering::SeqCst);
        self.lock_reopen().reset();
    }

    /// Whether the reopen schedule allows an attempt right now.
    #[must_use]
    pub fn reopen_ready(&self) -> bool {
        self.lock_reopen().ready()
    }

    /// Counts a reopen attempt (before trying, so `/v1/shards` shows stuck
    /// reopens climbing).
    pub fn record_reopen_attempt(&self) {
        self.reopen_attempts.fetch_add(1, Ordering::SeqCst);
    }

    /// Records a failed reopen: the next attempt moves out exponentially.
    pub fn reopen_failed(&self) {
        self.lock_reopen().record_failure();
    }

    /// Whether the compaction-retry schedule allows an attempt right now.
    #[must_use]
    pub fn compact_ready(&self) -> bool {
        self.lock_compact().ready()
    }

    /// Records a failed compaction; retries back off exponentially instead
    /// of re-firing every poll.
    pub fn compact_failed(&self) {
        self.compact_failures.fetch_add(1, Ordering::SeqCst);
        self.lock_compact().record_failure();
    }

    /// Clears the compaction-retry schedule after a successful compaction.
    pub fn compact_succeeded(&self) {
        self.lock_compact().reset();
    }

    /// Lifetime scoring/decode failures that tripped (or re-tripped) the
    /// breaker.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures.load(Ordering::SeqCst)
    }

    /// Lifetime reopen attempts the guardian has made.
    #[must_use]
    pub fn reopen_attempts(&self) -> u64 {
        self.reopen_attempts.load(Ordering::SeqCst)
    }

    /// Lifetime failed compactions of this shard.
    #[must_use]
    pub fn compact_failures(&self) -> u64 {
        self.compact_failures.load(Ordering::SeqCst)
    }

    fn lock_reopen(&self) -> std::sync::MutexGuard<'_, Backoff> {
        // A Backoff is a plain value; a panicked peer cannot leave it in a
        // broken intermediate state, so poison is safe to strip.
        self.reopen.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_compact(&self) -> std::sync::MutexGuard<'_, Backoff> {
        self.compact.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Arc<CachedResult> {
        Arc::new(CachedResult {
            results: Arc::new(Vec::new()),
            shards_queried: 1,
        })
    }

    #[test]
    fn zero_timeout_never_expires() {
        let d = Deadline::starting_now(0);
        assert!(!d.expired());
        assert!(!Deadline::unlimited().expired());
    }

    #[test]
    fn elapsed_deadline_expires() {
        let d = Deadline::starting_now(1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(d.expired());
    }

    #[test]
    fn gate_admits_up_to_the_limit_and_releases_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let _b = gate.try_acquire().expect("slot 2");
        assert!(gate.try_acquire().is_none(), "limit reached");
        assert_eq!(gate.inflight(), 2);
        drop(a);
        assert_eq!(gate.inflight(), 1);
        let _c = gate.try_acquire().expect("slot freed by drop");
    }

    #[test]
    fn unlimited_gate_never_rejects() {
        let gate = AdmissionGate::new(0);
        let permits: Vec<_> = (0..64).map(|_| gate.try_acquire().unwrap()).collect();
        assert_eq!(gate.inflight(), 64, "an unlimited gate still counts");
        drop(permits);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn cache_is_lru_with_recency_refresh_on_get() {
        let mut cache = QueryCache::new(2);
        cache.insert((1, 1, 0), entry());
        cache.insert((2, 2, 0), entry());
        // Touch (1,1,0) so (2,2,0) becomes the LRU victim.
        assert!(cache.get(&(1, 1, 0)).is_some());
        cache.insert((3, 3, 0), entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(1, 1, 0)).is_some());
        assert!(cache.get(&(2, 2, 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(&(3, 3, 0)).is_some());
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (3, 1));
    }

    #[test]
    fn generation_change_is_a_cache_miss() {
        let mut cache = QueryCache::new(8);
        cache.insert((7, 7, 1), entry());
        assert!(cache.get(&(7, 7, 1)).is_some());
        // Same query fingerprint, new snapshot generation: miss.
        assert!(cache.get(&(7, 7, 2)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = QueryCache::new(0);
        cache.insert((1, 2, 3), entry());
        assert!(cache.is_empty());
        assert!(cache.get(&(1, 2, 3)).is_none());
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = QueryCache::new(2);
        cache.insert((1, 1, 0), entry());
        cache.insert((2, 2, 0), entry());
        cache.insert((1, 1, 0), entry());
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&(2, 2, 0)).is_some());
    }

    #[test]
    fn backoff_grows_exponentially_caps_and_jitters_deterministically() {
        let mut b = Backoff::new(100, 2_000, 42);
        assert!(b.ready(), "ready before any failure");
        assert_eq!(b.delay_ms(), 0);

        let mut delays = Vec::new();
        for _ in 0..8 {
            b.record_failure();
            delays.push(b.delay_ms());
        }
        // Exponential base doubles until the cap; jitter adds at most 25%.
        for (i, &d) in delays.iter().enumerate() {
            let raw = (100u64 << i.min(32)).min(2_000);
            assert!(d >= raw, "failure {i}: {d} below raw {raw}");
            assert!(
                d <= (raw + raw / 4).min(2_000),
                "failure {i}: {d} over jitter bound"
            );
        }
        assert!(
            delays[5..].iter().all(|&d| d == 2_000),
            "cap reached: {delays:?}"
        );
        assert!(!b.ready(), "a 2s wait is pending");
        assert_eq!(b.failures(), 8);

        // Deterministic: a fresh backoff with the same seed replays the
        // exact same schedule; a different seed jitters differently.
        let mut same = Backoff::new(100, 2_000, 42);
        let mut other = Backoff::new(100, 2_000, 43);
        let mut same_delays = Vec::new();
        let mut other_delays = Vec::new();
        for _ in 0..8 {
            same.record_failure();
            other.record_failure();
            same_delays.push(same.delay_ms());
            other_delays.push(other.delay_ms());
        }
        assert_eq!(delays, same_delays);
        assert_ne!(delays, other_delays, "different seeds must de-correlate");

        b.reset();
        assert!(b.ready());
        assert_eq!(b.failures(), 0);
        assert_eq!(b.delay_ms(), 0);
    }

    #[test]
    fn shard_health_quarantine_lifecycle() {
        let health = ShardHealth::new(1, 10, 7);
        assert!(!health.is_quarantined());
        assert!(health.reopen_ready());

        health.quarantine();
        assert!(health.is_quarantined());
        assert_eq!(health.failures(), 1);
        // The first reopen is one backoff step out, not immediate.
        std::thread::sleep(Duration::from_millis(5));
        assert!(health.reopen_ready(), "1ms base elapsed");
        health.record_reopen_attempt();
        health.reopen_failed();
        assert_eq!(health.reopen_attempts(), 1);

        health.restore();
        assert!(!health.is_quarantined());
        assert!(health.reopen_ready(), "restore clears the schedule");
        assert_eq!(health.failures(), 1, "lifetime counter survives restore");

        health.compact_failed();
        assert_eq!(health.compact_failures(), 1);
        health.compact_succeeded();
        assert!(health.compact_ready());
    }
}
