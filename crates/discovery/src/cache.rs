//! Cross-query stage cache: bounded, concurrency-safe reuse of sketch joins
//! and MI estimates across [`RelationshipQuery`](crate::RelationshipQuery)
//! executions.
//!
//! The discovery workload is read-heavy: under real traffic the same popular
//! `(query column, candidate)` pairs are scored over and over, yet a plain
//! `execute` re-joins the sketches and re-runs the estimator from scratch
//! every time. This module memoizes the two expensive stages of the
//! probe → join → estimate pipeline:
//!
//! * **Level 1 — joined sketches**, keyed by `(left-sketch content
//!   fingerprint, candidate sketch id)`. A hit skips the hash join but still
//!   runs the estimator (needed when the same join is scored under a
//!   different neighbour count `k`).
//! * **Level 2 — full MI estimates**, keyed additionally by the estimator
//!   configuration (`k`). A hit skips both the join *and* the estimator.
//!
//! Both levels are scoped to one snapshot **generation**: the serving daemon
//! creates the cache with its [`ShardSet`] generation, and
//! [`QueryStageCache::set_generation`] clears everything when the generation
//! moves, so append epochs invalidate implicitly — no per-entry TTLs.
//!
//! Both levels are **bit-for-bit neutral**. A level-1 hit hands the estimator
//! the exact `JoinedSketch` the cold path would have built (estimation is
//! workspace-independent and deterministic, pinned by the estimator crate's
//! tests); a level-2 hit replays the stored `mi` bits verbatim. Failed
//! estimates are never cached, and the `min_join_size` gate is re-applied on
//! every hit, so queries with different thresholds still agree with their
//! cold runs exactly.
//!
//! Capacity is bounded in **entries and resident bytes**. A joined sketch is
//! charged what it holds — [`JoinedSketch::resident_bytes`] is exact: 4 bytes
//! per code, 8 per coordinate, allocated to length — plus a fixed per-entry
//! overhead. At the default bounds (4 096 entries, 64 MiB) the entry bound
//! binds unless the average resident entry exceeds 16 KiB, i.e. a cache of
//! little but full 1 024-pair numeric joins.
//!
//! Eviction is least-recently-used across both levels via a shared logical
//! tick: every use stamps the entry with a fresh tick, and an ordered
//! tick → entry index names the victim (the smallest tick) in `O(log n)`, so
//! the lock is never held for a scan.
//!
//! [`ShardSet`]: https://docs.rs/joinmi_serve

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use joinmi_estimators::EstimatorKind;
use joinmi_sketch::JoinedSketch;

/// Capacity bounds for a [`QueryStageCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCacheConfig {
    /// Maximum number of cached entries across both levels. `0` disables the
    /// cache entirely (every lookup misses without counting, every insert is
    /// dropped).
    pub max_entries: usize,
    /// Maximum resident bytes across both levels; `0` means unbounded by
    /// bytes (the entry bound still applies). An entry larger than the whole
    /// byte budget is never admitted.
    pub max_bytes: usize,
}

impl Default for StageCacheConfig {
    /// 4096 entries / 64 MiB — small enough to be harmless on a laptop,
    /// large enough to keep a serving shard's hot set resident.
    fn default() -> Self {
        Self {
            max_entries: 4096,
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

/// A memoized level-2 result: everything the scoring engine needs to rebuild
/// a ranked candidate without touching the join or the estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedEstimate {
    /// Estimated mutual information (nats), bit-exact as first computed.
    pub mi: f64,
    /// Estimator that produced the estimate.
    pub estimator: EstimatorKind,
    /// Sample size the estimator saw.
    pub n: usize,
    /// Sketch-join size (needed to re-apply the `min_join_size` gate).
    pub join_size: usize,
    /// Credible interval around `mi`, present only for entries written under
    /// an interval scoring policy. Point entries store `None`; the policy
    /// component of the level-2 key keeps the two from ever aliasing.
    pub interval: Option<CachedInterval>,
}

/// The interval decoration of a cached interval-policy estimate, bit-exact as
/// first computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedInterval {
    /// Posterior variance of the estimate.
    pub variance: f64,
    /// Lower credible bound.
    pub ci_lo: f64,
    /// Upper credible bound.
    pub ci_hi: f64,
}

/// Counters and occupancy of a [`QueryStageCache`], as one coherent snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Level-1 (joined sketch) lookups that found an entry.
    pub join_hits: u64,
    /// Level-1 lookups that missed.
    pub join_misses: u64,
    /// Level-2 (MI estimate) lookups that found an entry.
    pub estimate_hits: u64,
    /// Level-2 lookups that missed.
    pub estimate_misses: u64,
    /// Entries discarded to stay within the entry or byte bound.
    pub evictions: u64,
    /// Entries currently resident (both levels).
    pub entries: usize,
    /// Approximate resident bytes (both levels).
    pub resident_bytes: usize,
    /// Snapshot generation the resident entries belong to.
    pub generation: u64,
}

/// Level-1 key: (left fingerprint hi, left fingerprint lo, candidate sketch id).
type JoinKey = (u64, u64, u64);
/// Level-2 key: the level-1 key plus the estimator neighbour count `k` and
/// the scoring-policy code (0 for point scoring, the confidence level's bit
/// pattern for interval scoring), so point and interval results never alias.
type EstimateKey = (u64, u64, u64, u64, u64);

/// A resident entry of either level, as the eviction index names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Join(JoinKey),
    Estimate(EstimateKey),
}

#[derive(Debug)]
struct JoinEntry {
    tick: u64,
    joined: Arc<JoinedSketch>,
    bytes: usize,
}

#[derive(Debug)]
struct EstimateEntry {
    tick: u64,
    estimate: CachedEstimate,
}

/// Fixed accounting overhead per entry (key + map slot bookkeeping); resident
/// bytes are a sizing signal, not an allocator audit.
const ENTRY_OVERHEAD: usize = 64;

fn estimate_entry_bytes() -> usize {
    std::mem::size_of::<EstimateKey>() + std::mem::size_of::<EstimateEntry>() + ENTRY_OVERHEAD
}

#[derive(Debug, Default)]
struct Inner {
    generation: u64,
    tick: u64,
    joins: HashMap<JoinKey, JoinEntry>,
    estimates: HashMap<EstimateKey, EstimateEntry>,
    /// Every resident entry under the tick of its last use. Ticks are unique
    /// and only grow, so the first entry is the least recently used one
    /// across both levels.
    by_tick: BTreeMap<u64, Slot>,
    /// Resident bytes across both maps.
    bytes: usize,
    join_hits: u64,
    join_misses: u64,
    estimate_hits: u64,
    estimate_misses: u64,
    evictions: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn entries(&self) -> usize {
        self.joins.len() + self.estimates.len()
    }

    fn over_capacity(&self, config: &StageCacheConfig) -> bool {
        self.entries() > config.max_entries
            || (config.max_bytes > 0 && self.bytes > config.max_bytes)
    }

    /// Evicts the globally least-recently-used entry (across both levels)
    /// until within bounds.
    fn evict_to_fit(&mut self, config: &StageCacheConfig) {
        while self.over_capacity(config) {
            let Some((_, victim)) = self.by_tick.pop_first() else {
                return;
            };
            match victim {
                Slot::Join(key) => self.evict_join(key),
                Slot::Estimate(key) => self.evict_estimate(key),
            }
            self.evictions += 1;
        }
    }

    fn evict_join(&mut self, key: JoinKey) {
        if let Some(entry) = self.joins.remove(&key) {
            self.bytes -= entry.bytes;
        }
    }

    fn evict_estimate(&mut self, key: EstimateKey) {
        if self.estimates.remove(&key).is_some() {
            self.bytes -= estimate_entry_bytes();
        }
    }

    fn clear_entries(&mut self) {
        self.joins.clear();
        self.estimates.clear();
        self.by_tick.clear();
        self.bytes = 0;
    }
}

/// A bounded, thread-safe, two-level cross-query cache over one snapshot
/// generation.
///
/// One instance is shared by every worker scoring queries against the same
/// immutable snapshot (`Mutex`-guarded; the estimator itself always runs
/// outside the lock, so contention is limited to map lookups and inserts).
/// See the [module docs](self) for keying, neutrality, and eviction.
#[derive(Debug)]
pub struct QueryStageCache {
    config: StageCacheConfig,
    inner: Mutex<Inner>,
}

impl QueryStageCache {
    /// Creates a cache with the given bounds, at generation 0.
    #[must_use]
    pub fn new(config: StageCacheConfig) -> Self {
        Self::with_generation(config, 0)
    }

    /// Creates a cache bound to a specific snapshot generation.
    #[must_use]
    pub fn with_generation(config: StageCacheConfig, generation: u64) -> Self {
        Self {
            config,
            inner: Mutex::new(Inner {
                generation,
                ..Inner::default()
            }),
        }
    }

    /// The configured bounds.
    #[must_use]
    pub fn config(&self) -> StageCacheConfig {
        self.config
    }

    /// Returns `true` when `max_entries` is zero and the cache is a no-op.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.config.max_entries == 0
    }

    /// The generation the resident entries belong to.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Moves the cache to `generation`, clearing every entry if it differs
    /// from the current one. Callers that mutate their repository (append
    /// epochs) must bump the generation — entries are otherwise assumed to
    /// describe an immutable snapshot. Hit/miss/eviction counters survive the
    /// clear; they describe the cache, not one generation.
    pub fn set_generation(&self, generation: u64) {
        let mut inner = self.lock();
        if inner.generation != generation {
            inner.generation = generation;
            inner.clear_entries();
        }
    }

    /// Drops every cached MI estimate but keeps the joined sketches (used by
    /// the benchmark harness to isolate the level-1 hit path).
    pub fn clear_estimates(&self) {
        let mut inner = self.lock();
        let freed = inner.estimates.len() * estimate_entry_bytes();
        inner.estimates.clear();
        inner
            .by_tick
            .retain(|_, slot| matches!(slot, Slot::Join(_)));
        inner.bytes -= freed;
    }

    /// A view of the cache that namespaces candidate indices by
    /// `sketch_id_base`. The serving daemon passes each shard's global
    /// candidate offset so shard-local indices cannot collide inside the one
    /// shared cache; single-repository callers use `scope(0)`.
    #[must_use]
    pub fn scope(&self, sketch_id_base: u64) -> CacheScope<'_> {
        CacheScope {
            cache: self,
            base: sketch_id_base,
        }
    }

    /// A coherent snapshot of counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            join_hits: inner.join_hits,
            join_misses: inner.join_misses,
            estimate_hits: inner.estimate_hits,
            estimate_misses: inner.estimate_misses,
            evictions: inner.evictions,
            entries: inner.entries(),
            resident_bytes: inner.bytes,
            generation: inner.generation,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock can only leave stale-but-valid
        // entries behind; recovering keeps every other worker serving.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn get_join(&self, key: JoinKey) -> Option<Arc<JoinedSketch>> {
        if self.is_disabled() {
            return None;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let tick = inner.next_tick();
        match inner.joins.get_mut(&key) {
            Some(entry) => {
                inner.by_tick.remove(&entry.tick);
                inner.by_tick.insert(tick, Slot::Join(key));
                entry.tick = tick;
                let joined = Arc::clone(&entry.joined);
                inner.join_hits += 1;
                Some(joined)
            }
            None => {
                inner.join_misses += 1;
                None
            }
        }
    }

    fn put_join(&self, key: JoinKey, joined: Arc<JoinedSketch>) {
        if self.is_disabled() {
            return;
        }
        let bytes = joined.resident_bytes() + std::mem::size_of::<JoinEntry>() + ENTRY_OVERHEAD;
        if self.config.max_bytes > 0 && bytes > self.config.max_bytes {
            return; // would immediately evict the whole cache, then itself
        }
        let mut inner = self.lock();
        let tick = inner.next_tick();
        let previous = inner.joins.insert(
            key,
            JoinEntry {
                tick,
                joined,
                bytes,
            },
        );
        inner.by_tick.insert(tick, Slot::Join(key));
        inner.bytes += bytes;
        if let Some(previous) = previous {
            inner.by_tick.remove(&previous.tick);
            inner.bytes -= previous.bytes;
        }
        inner.evict_to_fit(&self.config);
    }

    fn get_estimate(&self, key: EstimateKey) -> Option<CachedEstimate> {
        if self.is_disabled() {
            return None;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let tick = inner.next_tick();
        match inner.estimates.get_mut(&key) {
            Some(entry) => {
                inner.by_tick.remove(&entry.tick);
                inner.by_tick.insert(tick, Slot::Estimate(key));
                entry.tick = tick;
                let estimate = entry.estimate;
                inner.estimate_hits += 1;
                Some(estimate)
            }
            None => {
                inner.estimate_misses += 1;
                None
            }
        }
    }

    fn put_estimate(&self, key: EstimateKey, estimate: CachedEstimate) {
        if self.is_disabled() {
            return;
        }
        let bytes = estimate_entry_bytes();
        if self.config.max_bytes > 0 && bytes > self.config.max_bytes {
            return;
        }
        let mut inner = self.lock();
        let tick = inner.next_tick();
        inner.by_tick.insert(tick, Slot::Estimate(key));
        match inner
            .estimates
            .insert(key, EstimateEntry { tick, estimate })
        {
            Some(previous) => {
                inner.by_tick.remove(&previous.tick);
            }
            None => inner.bytes += bytes,
        }
        inner.evict_to_fit(&self.config);
    }
}

/// A [`QueryStageCache`] view whose candidate indices are offset by a fixed
/// base, produced by [`QueryStageCache::scope`]. Copyable and `Sync`, so the
/// parallel scoring fan-out shares one scope across workers.
#[derive(Debug, Clone, Copy)]
pub struct CacheScope<'a> {
    cache: &'a QueryStageCache,
    base: u64,
}

impl CacheScope<'_> {
    /// The underlying cache.
    #[must_use]
    pub fn cache(&self) -> &QueryStageCache {
        self.cache
    }

    fn sketch_id(&self, candidate_index: usize) -> u64 {
        self.base + candidate_index as u64
    }

    /// Level-1 lookup: the joined sketch for (left fingerprint, candidate).
    #[must_use]
    pub fn get_join(
        &self,
        left_fp: (u64, u64),
        candidate_index: usize,
    ) -> Option<Arc<JoinedSketch>> {
        self.cache
            .get_join((left_fp.0, left_fp.1, self.sketch_id(candidate_index)))
    }

    /// Level-1 insert.
    pub fn put_join(&self, left_fp: (u64, u64), candidate_index: usize, joined: Arc<JoinedSketch>) {
        self.cache.put_join(
            (left_fp.0, left_fp.1, self.sketch_id(candidate_index)),
            joined,
        );
    }

    /// Level-2 lookup: the MI estimate for (left fingerprint, candidate, `k`,
    /// scoring policy). `policy` is the policy code — `0` for point scoring,
    /// the confidence level's bit pattern for interval scoring.
    #[must_use]
    pub fn get_estimate(
        &self,
        left_fp: (u64, u64),
        candidate_index: usize,
        k: usize,
        policy: u64,
    ) -> Option<CachedEstimate> {
        self.cache.get_estimate((
            left_fp.0,
            left_fp.1,
            self.sketch_id(candidate_index),
            k as u64,
            policy,
        ))
    }

    /// Level-2 insert.
    pub fn put_estimate(
        &self,
        left_fp: (u64, u64),
        candidate_index: usize,
        k: usize,
        policy: u64,
        estimate: CachedEstimate,
    ) {
        self.cache.put_estimate(
            (
                left_fp.0,
                left_fp.1,
                self.sketch_id(candidate_index),
                k as u64,
                policy,
            ),
            estimate,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_table::{DataType, Value};

    fn joined(n: usize) -> Arc<JoinedSketch> {
        let xs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let ys = xs.clone();
        Arc::new(JoinedSketch::from_pairs(
            xs,
            ys,
            DataType::Int,
            DataType::Int,
        ))
    }

    fn estimate(mi: f64) -> CachedEstimate {
        CachedEstimate {
            mi,
            estimator: EstimatorKind::Mle,
            n: 32,
            join_size: 32,
            interval: None,
        }
    }

    fn unbounded_bytes(max_entries: usize) -> StageCacheConfig {
        StageCacheConfig {
            max_entries,
            max_bytes: 0,
        }
    }

    #[test]
    fn hit_and_miss_counters_move() {
        let cache = QueryStageCache::new(StageCacheConfig::default());
        let scope = cache.scope(0);
        let fp = (1, 2);

        assert!(scope.get_join(fp, 0).is_none());
        scope.put_join(fp, 0, joined(8));
        assert!(scope.get_join(fp, 0).is_some());

        assert!(scope.get_estimate(fp, 0, 3, 0).is_none());
        scope.put_estimate(fp, 0, 3, 0, estimate(0.5));
        assert_eq!(scope.get_estimate(fp, 0, 3, 0).unwrap().mi, 0.5);
        // A different k is a different level-2 key.
        assert!(scope.get_estimate(fp, 0, 4, 0).is_none());
        // A different scoring policy is a different level-2 key: point (code
        // 0) and interval (level bit pattern) results never alias.
        let level_code = 0.95f64.to_bits();
        assert!(scope.get_estimate(fp, 0, 3, level_code).is_none());
        let with_interval = CachedEstimate {
            interval: Some(CachedInterval {
                variance: 0.01,
                ci_lo: 0.4,
                ci_hi: 0.6,
            }),
            ..estimate(0.5)
        };
        scope.put_estimate(fp, 0, 3, level_code, with_interval);
        assert_eq!(
            scope.get_estimate(fp, 0, 3, level_code).unwrap(),
            with_interval
        );
        assert_eq!(scope.get_estimate(fp, 0, 3, 0).unwrap(), estimate(0.5));

        let stats = cache.stats();
        assert_eq!(stats.join_hits, 1);
        assert_eq!(stats.join_misses, 1);
        assert_eq!(stats.estimate_hits, 3);
        assert_eq!(stats.estimate_misses, 3);
        assert_eq!(stats.entries, 3);
        assert!(stats.resident_bytes > 0);
    }

    #[test]
    fn scopes_namespace_candidate_indices() {
        let cache = QueryStageCache::new(StageCacheConfig::default());
        let fp = (7, 7);
        cache.scope(0).put_join(fp, 1, joined(4));
        // base 1 + index 0 aliases base 0 + index 1 by construction; bases in
        // real use are shard candidate offsets, which cannot overlap.
        assert!(cache.scope(100).get_join(fp, 1).is_none());
        assert!(cache.scope(0).get_join(fp, 1).is_some());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let cache = QueryStageCache::new(unbounded_bytes(2));
        let scope = cache.scope(0);
        let fp = (0, 0);
        scope.put_join(fp, 0, joined(4));
        scope.put_join(fp, 1, joined(4));
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(scope.get_join(fp, 0).is_some());
        scope.put_join(fp, 2, joined(4));

        assert!(scope.get_join(fp, 0).is_some());
        assert!(scope.get_join(fp, 1).is_none());
        assert!(scope.get_join(fp, 2).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn eviction_spans_both_levels() {
        let cache = QueryStageCache::new(unbounded_bytes(2));
        let scope = cache.scope(0);
        let fp = (0, 0);
        scope.put_estimate(fp, 0, 3, 0, estimate(0.1));
        scope.put_join(fp, 1, joined(4));
        // The estimate is oldest, so it goes first.
        scope.put_join(fp, 2, joined(4));
        assert!(scope.get_estimate(fp, 0, 3, 0).is_none());
        assert!(scope.get_join(fp, 1).is_some());
        assert!(scope.get_join(fp, 2).is_some());
    }

    /// The eviction rule the ordered index replaced, kept as the model: scan
    /// every resident entry for the smallest tick.
    #[derive(Default)]
    struct ScanMinModel {
        tick: u64,
        /// (entry, tick of last use, charged bytes)
        resident: Vec<(Slot, u64, usize)>,
        evictions: u64,
    }

    impl ScanMinModel {
        fn touch(&mut self, slot: Slot) -> bool {
            self.tick += 1;
            let found = self.resident.iter_mut().find(|(s, ..)| *s == slot);
            found.map(|entry| entry.1 = self.tick).is_some()
        }

        fn put(&mut self, slot: Slot, bytes: usize, config: &StageCacheConfig) {
            if !self.touch(slot) {
                self.resident.push((slot, self.tick, 0));
            }
            let entry = self.resident.iter_mut().find(|(s, ..)| *s == slot);
            entry.expect("just inserted").2 = bytes;
            while self.resident.len() > config.max_entries
                || self.resident.iter().map(|e| e.2).sum::<usize>() > config.max_bytes
            {
                let victim = (0..self.resident.len())
                    .min_by_key(|&i| self.resident[i].1)
                    .expect("over capacity implies non-empty");
                self.resident.swap_remove(victim);
                self.evictions += 1;
            }
        }
    }

    #[test]
    fn ordered_index_evicts_exactly_what_the_scan_for_minimum_rule_would() {
        let small = joined(4);
        let join_bytes = |j: &JoinedSketch| {
            j.resident_bytes() + std::mem::size_of::<JoinEntry>() + ENTRY_OVERHEAD
        };
        // Tight enough that both bounds bind at different moments: seven
        // entries, or the bytes of three small joins and some estimates.
        let config = StageCacheConfig {
            max_entries: 7,
            max_bytes: 3 * join_bytes(&small) + 3 * estimate_entry_bytes(),
        };
        let cache = QueryStageCache::new(config);
        let mut model = ScanMinModel::default();

        let mut state = 0x5eed_u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for step in 0..4000 {
            let id = below(10);
            let join_key = (1, 2, id);
            let estimate_key = (1, 2, id, 3, 0);
            match below(4) {
                0 => {
                    let hit = cache.get_join(join_key).is_some();
                    assert_eq!(hit, model.touch(Slot::Join(join_key)), "step {step}");
                }
                1 => {
                    let hit = cache.get_estimate(estimate_key).is_some();
                    assert_eq!(
                        hit,
                        model.touch(Slot::Estimate(estimate_key)),
                        "step {step}"
                    );
                }
                2 => {
                    let j = joined(4 + 4 * below(3) as usize);
                    model.put(Slot::Join(join_key), join_bytes(&j), &config);
                    cache.put_join(join_key, j);
                }
                _ => {
                    let bytes = estimate_entry_bytes();
                    model.put(Slot::Estimate(estimate_key), bytes, &config);
                    cache.put_estimate(estimate_key, estimate(0.5));
                }
            }
            let inner = cache.lock();
            let mut resident: Vec<Slot> = (inner.joins.keys().copied().map(Slot::Join))
                .chain(inner.estimates.keys().copied().map(Slot::Estimate))
                .collect();
            let mut expected: Vec<Slot> = model.resident.iter().map(|e| e.0).collect();
            let order = |s: &Slot| match *s {
                Slot::Join(k) => (0, k.2),
                Slot::Estimate(k) => (1, k.2),
            };
            resident.sort_by_key(order);
            expected.sort_by_key(order);
            assert_eq!(resident, expected, "step {step}");
            assert_eq!(inner.evictions, model.evictions, "step {step}");
            assert_eq!(inner.by_tick.len(), resident.len(), "step {step}");
        }
        assert!(model.evictions > 500, "the bounds never bound");
    }

    #[test]
    fn byte_bound_evicts_and_rejects_oversized() {
        let small = joined(4);
        let budget = small.resident_bytes() * 3;
        let cache = QueryStageCache::new(StageCacheConfig {
            max_entries: 1024,
            max_bytes: budget,
        });
        let scope = cache.scope(0);
        let fp = (0, 0);
        scope.put_join(fp, 0, Arc::clone(&small));
        scope.put_join(fp, 1, joined(4));
        // Third entry pushes resident bytes past the budget → LRU eviction.
        scope.put_join(fp, 2, joined(4));
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "byte bound never evicted");
        assert!(stats.resident_bytes <= budget);

        // An entry larger than the whole budget is never admitted.
        scope.put_join(fp, 3, joined(4096));
        assert!(scope.get_join(fp, 3).is_none());
        assert!(cache.stats().resident_bytes <= budget);
    }

    #[test]
    fn generation_bump_clears_entries_but_keeps_counters() {
        let cache = QueryStageCache::with_generation(StageCacheConfig::default(), 10);
        let scope = cache.scope(0);
        scope.put_join((1, 1), 0, joined(4));
        scope.put_estimate((1, 1), 0, 3, 0, estimate(0.2));
        assert!(scope.get_join((1, 1), 0).is_some());

        cache.set_generation(10); // same generation: no-op
        assert_eq!(cache.stats().entries, 2);

        cache.set_generation(11);
        let stats = cache.stats();
        assert_eq!(stats.generation, 11);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.join_hits, 1); // counters survive
        assert!(scope.get_join((1, 1), 0).is_none());
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = QueryStageCache::new(unbounded_bytes(0));
        assert!(cache.is_disabled());
        let scope = cache.scope(0);
        scope.put_join((1, 1), 0, joined(4));
        scope.put_estimate((1, 1), 0, 3, 0, estimate(0.2));
        assert!(scope.get_join((1, 1), 0).is_none());
        assert!(scope.get_estimate((1, 1), 0, 3, 0).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn clear_estimates_keeps_joins() {
        let cache = QueryStageCache::new(StageCacheConfig::default());
        let scope = cache.scope(0);
        scope.put_join((1, 1), 0, joined(4));
        scope.put_estimate((1, 1), 0, 3, 0, estimate(0.2));
        cache.clear_estimates();
        assert!(scope.get_join((1, 1), 0).is_some());
        assert!(scope.get_estimate((1, 1), 0, 3, 0).is_none());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn reinsert_replaces_without_double_counting_bytes() {
        let cache = QueryStageCache::new(StageCacheConfig::default());
        let scope = cache.scope(0);
        scope.put_join((1, 1), 0, joined(4));
        let once = cache.stats().resident_bytes;
        scope.put_join((1, 1), 0, joined(4));
        assert_eq!(cache.stats().resident_bytes, once);
        assert_eq!(cache.stats().entries, 1);

        scope.put_estimate((1, 1), 0, 3, 0, estimate(0.2));
        let with_est = cache.stats().resident_bytes;
        scope.put_estimate((1, 1), 0, 3, 0, estimate(0.3));
        assert_eq!(cache.stats().resident_bytes, with_est);
        assert_eq!(scope.get_estimate((1, 1), 0, 3, 0).unwrap().mi, 0.3);
    }
}
