//! Relationship-discovery queries: rank candidate augmentations by estimated
//! MI with the query table's target column, without materializing any join.
//!
//! Every `execute*` entry point runs **one** query plan. After the probe
//! ([`RelationshipQuery::probe`]) a crate-private `QueryPlan` gathers what
//! the query shares across its stages: the query, the candidate source, the
//! query sketch, its cache fingerprint, the optional cross-query
//! [`CacheScope`] and, when a pre-join screen is active, the query's key
//! multiplicities. One chunk loop then screens the pre-filter hits, scores
//! the survivors, tracks the running top-k lower bound, sorts and truncates.
//!
//! The two `*_stats` entry points differ only in how a batch of survivors is
//! scored: fanned out across `JOINMI_THREADS` workers with one workspace per
//! worker, or in order with a caller-owned workspace (the serving daemon's
//! per-query hot path). The other three forward to them. The policy —
//! [`ScoringPolicy::Point`] or [`ScoringPolicy::Interval`], which decorates
//! every estimate with a Hutter–Zaffalon posterior credible interval and
//! **early-terminates** candidates whose cheap upper bound cannot reach the
//! running top-k lower bound — is read from the query.

use std::sync::Arc;

use joinmi_estimators::special::EULER_MASCHERONI;
use joinmi_estimators::{EstimatorKind, EstimatorWorkspace, MiInterval, DEFAULT_K};
use joinmi_hash::{digest_map_with_capacity, DigestHashMap};
use joinmi_sketch::{tupsk, Aggregation, ColumnSketch, JoinedSketch, SketchConfig, SketchKind};
use joinmi_table::{Table, TableError};

use crate::cache::{CacheScope, CachedEstimate, CachedInterval};
use crate::repository::CandidateSource;
use crate::Result;

/// How candidate estimates are scored and ranked.
///
/// Both policies rank by the point estimate `mi` with the same stable sort,
/// so the interval policy returns the **same candidates in the same order**
/// as the point policy — the interval is decoration plus a license to skip
/// candidates that provably cannot reach the top-k. The policy is part of the
/// level-2 cache key (via [`Self::cache_code`]), so point and interval
/// results never alias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoringPolicy {
    /// Rank by the point MI estimate alone (the default).
    Point,
    /// Attach a posterior credible interval to every estimate and
    /// early-terminate candidates whose upper bound falls below the running
    /// top-k lower bound.
    Interval {
        /// Two-sided confidence level in `(0, 1)`, e.g. `0.95`.
        level: f64,
    },
}

impl ScoringPolicy {
    /// The level-2 cache-key component for this policy: `0` for point
    /// scoring, the confidence level's bit pattern (never `0` for a valid
    /// level) for interval scoring.
    #[must_use]
    pub fn cache_code(self) -> u64 {
        match self {
            Self::Point => 0,
            Self::Interval { level } => level.to_bits(),
        }
    }

    /// The confidence level, when interval scoring is requested.
    #[must_use]
    pub fn level(self) -> Option<f64> {
        match self {
            Self::Point => None,
            Self::Interval { level } => Some(level),
        }
    }
}

/// Execution counters of one query run, reported by the `*_stats` entry
/// points (and surfaced per shard by the serving daemon).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Candidates skipped by interval early termination: their cheap MI
    /// upper bound fell below the running top-k lower bound before the join
    /// stage ran.
    pub early_stopped: usize,
    /// Candidates skipped by the distinct-sketch join-size bound: no
    /// plausible join could reach `min_join_size`, so the join stage was
    /// never entered.
    pub pruned: usize,
    /// Candidates that produced a ranked result (before top-k truncation).
    pub scored: usize,
}

impl QueryStats {
    /// Accumulates another run's counters into this one (used by the serving
    /// daemon to aggregate across shards).
    pub fn merge(&mut self, other: QueryStats) {
        self.early_stopped += other.early_stopped;
        self.pruned += other.pruned;
        self.scored += other.scored;
    }
}

/// One ranked candidate augmentation.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// Index of the candidate inside the repository's candidate list.
    pub candidate_index: usize,
    /// Index of the owning table inside the repository.
    pub table_index: usize,
    /// Owning table name.
    pub table_name: String,
    /// Join-key column of the candidate table.
    pub key_column: String,
    /// Feature column of the candidate table.
    pub feature_column: String,
    /// Featurization function used for the candidate.
    pub aggregation: Aggregation,
    /// Estimated mutual information (nats).
    pub mi: f64,
    /// Estimator that produced the estimate.
    pub estimator: EstimatorKind,
    /// Number of paired samples recovered by the sketch join.
    pub sketch_join_size: usize,
    /// Number of overlapping sampled keys found by the joinability index.
    pub key_overlap: usize,
    /// Posterior credible interval around `mi`, present iff the query ran
    /// under [`ScoringPolicy::Interval`]. Satisfies `ci_lo ≤ mi ≤ ci_hi`.
    pub interval: Option<MiInterval>,
}

impl RankedCandidate {
    /// A short human-readable description of the candidate.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}.{}({}) on {}",
            self.table_name,
            self.aggregation.name(),
            self.feature_column,
            self.key_column
        )
    }
}

/// A relationship-discovery query over a repository.
#[derive(Debug, Clone)]
pub struct RelationshipQuery {
    /// The user's base table.
    pub train: Table,
    /// Join-key column of the base table.
    pub key_column: String,
    /// Target column of the base table.
    pub target_column: String,
    /// Maximum number of results to return (`0` = unlimited).
    pub top_k: usize,
    /// Minimum sketch-join size for an estimate to be considered meaningful
    /// (the paper discards estimates with join size ≤ 100 on real data).
    pub min_join_size: usize,
    /// Minimum key overlap (in sampled keys) required by the joinability
    /// pre-filter.
    pub min_key_overlap: usize,
    /// Sketching strategy for the query table. Repositories serve TUPSK
    /// only, so any other kind fails the query.
    pub sketch_kind: SketchKind,
    /// Sketch configuration for the query table (should match the repository's).
    pub sketch: SketchConfig,
    /// Neighbour count for the KSG-family estimators (part of the estimator
    /// configuration, and therefore of the level-2 cache key).
    pub k: usize,
    /// How estimates are scored and ranked (part of the level-2 cache key).
    pub policy: ScoringPolicy,
    /// Skip candidates whose join-size upper bound — from the key-overlap
    /// count and the repository's per-column distinct sketches — cannot reach
    /// `min_join_size`, before the join stage runs. The bound is sound, so
    /// rankings are bit-for-bit identical with pruning on or off; the knob
    /// exists so tests can pin that equivalence.
    pub prune_by_distinct: bool,
}

impl RelationshipQuery {
    /// Creates a query with default parameters (top 10, minimum join size 20,
    /// TUPSK sketches of size 1024, point scoring, pruning enabled).
    #[must_use]
    pub fn new(train: Table, key_column: &str, target_column: &str) -> Self {
        Self {
            train,
            key_column: key_column.to_owned(),
            target_column: target_column.to_owned(),
            top_k: 10,
            min_join_size: 20,
            min_key_overlap: 1,
            sketch_kind: SketchKind::Tupsk,
            sketch: SketchConfig::new(1024, 0),
            k: DEFAULT_K,
            policy: ScoringPolicy::Point,
            prune_by_distinct: true,
        }
    }

    /// Sets the number of results to return.
    #[must_use]
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Sets the minimum sketch-join size.
    #[must_use]
    pub fn with_min_join_size(mut self, n: usize) -> Self {
        self.min_join_size = n;
        self
    }

    /// Sets the sketch strategy and configuration. Only
    /// [`SketchKind::Tupsk`] can query a repository.
    #[must_use]
    pub fn with_sketch(mut self, kind: SketchKind, cfg: SketchConfig) -> Self {
        self.sketch_kind = kind;
        self.sketch = cfg;
        self
    }

    /// Sets the neighbour count `k` for the KSG-family estimators (default
    /// [`DEFAULT_K`]). Discrete estimators (MLE) ignore it, but it is always
    /// part of the estimator configuration for caching purposes.
    #[must_use]
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Requests interval scoring at the given two-sided confidence level
    /// (e.g. `0.95`), i.e. the policy `ScoringPolicy::Interval { level }`.
    /// The level is validated at execution time; values outside `(0, 1)`
    /// fail the query.
    #[must_use]
    pub fn with_confidence(mut self, level: f64) -> Self {
        self.policy = ScoringPolicy::Interval { level };
        self
    }

    /// Builds the query-side TUPSK sketch.
    ///
    /// A query of any other kind fails here, before any work: it would join
    /// against TUPSK candidates and rank meaningless results.
    pub fn build_query_sketch(&self) -> Result<ColumnSketch> {
        if self.sketch_kind != SketchKind::Tupsk {
            return Err(TableError::Unsupported(format!(
                "repositories serve TUPSK sketches only; the query asks for {}",
                self.sketch_kind
            )));
        }
        tupsk::build_left(
            &self.train,
            &self.key_column,
            &self.target_column,
            &self.sketch,
        )
    }

    /// Stage 1 — **probe**: builds the query-side sketch and runs the
    /// joinability pre-filter, returning the sketch together with the
    /// surviving `(candidate_index, key_overlap)` hits in their fixed
    /// pre-filter order. The later stages (join, estimate) consume this;
    /// exposing it separately lets callers inspect or cache the candidate
    /// set without scoring it. A query of any kind but TUPSK fails in
    /// [`Self::build_query_sketch`].
    pub fn probe<S: CandidateSource>(
        &self,
        repository: &S,
    ) -> Result<(ColumnSketch, Vec<(usize, usize)>)> {
        let query_sketch = self.build_query_sketch()?;
        let hits = repository
            .joinability()
            .query(&query_sketch, self.min_key_overlap.max(1));
        Ok((query_sketch, hits))
    }

    /// Executes the query: prune by key overlap, join sketches, estimate MI,
    /// rank. Candidates whose estimate fails (e.g. degenerate samples) are
    /// skipped rather than failing the whole query.
    ///
    /// The repository can be any [`CandidateSource`]: the in-memory
    /// [`TableRepository`](crate::TableRepository) or a read-only
    /// [`RepositorySnapshot`](crate::persist::RepositorySnapshot) loaded from
    /// disk — the ranking is bit-for-bit identical either way. The key-overlap
    /// pre-filter runs on the source's persisted/maintained joinability index,
    /// so only surviving candidates' sketches are touched (for a lazy
    /// snapshot, only those are ever decoded).
    ///
    /// Surviving candidates are scored (sketch join + estimator) in parallel
    /// across `JOINMI_THREADS` workers. The pre-filter hit order is fixed
    /// before the fan-out and the final sort is stable over it, so the
    /// ranking — including the order of equal-MI ties — is identical to a
    /// sequential run.
    pub fn execute<S: CandidateSource + Sync>(
        &self,
        repository: &S,
    ) -> Result<Vec<RankedCandidate>> {
        self.execute_cached(repository, None)
    }

    /// [`Self::execute`] with an optional cross-query stage cache.
    ///
    /// With a [`CacheScope`], the join and estimate stages consult the cache
    /// before computing (see [`crate::cache`]); the ranking is bit-for-bit
    /// identical to an uncached run against the same (immutable) repository.
    pub fn execute_cached<S: CandidateSource + Sync>(
        &self,
        repository: &S,
        cache: Option<&CacheScope<'_>>,
    ) -> Result<Vec<RankedCandidate>> {
        Ok(self.execute_cached_stats(repository, cache)?.0)
    }

    /// [`Self::execute_cached`], additionally reporting the run's
    /// [`QueryStats`].
    pub fn execute_cached_stats<S: CandidateSource + Sync>(
        &self,
        repository: &S,
        cache: Option<&CacheScope<'_>>,
    ) -> Result<(Vec<RankedCandidate>, QueryStats)> {
        let (plan, hits) = QueryPlan::new(self, repository, cache)?;
        // One estimator workspace per worker: candidates scored on the same
        // worker share the sort-once buffers of the KSG-family estimators.
        Ok(plan.run(&hits, |batch| {
            joinmi_par::par_map_with(batch, EstimatorWorkspace::new, |ws, &hit| {
                score_hit(&plan, ws, hit)
            })
        }))
    }

    /// Executes the query sequentially, scoring every surviving candidate
    /// with the caller-provided [`EstimatorWorkspace`].
    ///
    /// The ranking is bit-for-bit identical to [`Self::execute`] (the
    /// parallel fan-out there is pinned to agree with a sequential run), but
    /// this entry point lets the caller own the workspace and reuse it across
    /// calls — the serving daemon scores every shard of one query with one
    /// workspace — instead of rebuilding scratch buffers per call.
    pub fn execute_in<S: CandidateSource>(
        &self,
        repository: &S,
        ws: &mut EstimatorWorkspace,
    ) -> Result<Vec<RankedCandidate>> {
        Ok(self.execute_in_cached_stats(repository, ws, None)?.0)
    }

    /// [`Self::execute_in`] with an optional cross-query stage cache,
    /// additionally reporting the run's [`QueryStats`] — the serving daemon's
    /// hot path (one shared cache, one workspace per query). Bit-for-bit
    /// identical to the uncached run against the same (immutable) repository.
    pub fn execute_in_cached_stats<S: CandidateSource>(
        &self,
        repository: &S,
        ws: &mut EstimatorWorkspace,
        cache: Option<&CacheScope<'_>>,
    ) -> Result<(Vec<RankedCandidate>, QueryStats)> {
        let (plan, hits) = QueryPlan::new(self, repository, cache)?;
        Ok(plan.run(&hits, |batch| {
            batch.iter().map(|&hit| score_hit(&plan, ws, hit)).collect()
        }))
    }

    /// Whether the distinct-sketch join-size screen is active.
    fn prunes(&self) -> bool {
        self.prune_by_distinct && self.min_join_size > 0
    }

    /// Whether the interval early-termination screen is active.
    fn early_terminates(&self) -> bool {
        matches!(self.policy, ScoringPolicy::Interval { .. }) && self.top_k > 0
    }
}

/// Everything one query run shares across its stages, built once after the
/// probe and dropped when the `execute*` call returns. The parallel strategy
/// shares it by reference with its workers, so it holds nothing mutable.
struct QueryPlan<'a, S> {
    query: &'a RelationshipQuery,
    source: &'a S,
    query_sketch: ColumnSketch,
    /// The cache-key component identifying `query_sketch`; computed only when
    /// a cache is in play (the fingerprint walks every sketch row).
    left_fp: (u64, u64),
    cache: Option<CacheScope<'a>>,
    /// The query-side multiplicity profile both pre-join screens bound the
    /// join size with; present only when a screen is active.
    multiplicity: Option<KeyMultiplicity>,
}

impl<'a, S: CandidateSource> QueryPlan<'a, S> {
    /// Validates the policy, probes, and prepares the screens. Returns the
    /// plan and the `(candidate_index, key_overlap)` hits in pre-filter order.
    fn new(
        query: &'a RelationshipQuery,
        source: &'a S,
        cache: Option<&CacheScope<'a>>,
    ) -> Result<(Self, Vec<(usize, usize)>)> {
        if let ScoringPolicy::Interval { level } = query.policy {
            if !joinmi_estimators::posterior::is_valid_level(level) {
                return Err(TableError::Unsupported(format!(
                    "interval scoring requires a confidence level in (0, 1), got {level}"
                )));
            }
        }
        let (query_sketch, hits) = query.probe(source)?;
        let left_fp = match cache {
            Some(_) => query_sketch.content_fingerprint(),
            None => (0, 0),
        };
        let multiplicity = (query.prunes() || query.early_terminates())
            .then(|| KeyMultiplicity::from_sketch(&query_sketch));
        let plan = Self {
            query,
            source,
            query_sketch,
            left_fp,
            cache: cache.copied(),
            multiplicity,
        };
        Ok((plan, hits))
    }

    /// The engine behind every `execute*` entry point. `score_batch` is the
    /// strategy: it maps [`score_hit`] over a batch of hits and returns the
    /// results in batch order. Screening, the running top-k lower bound,
    /// ranking and truncation live here, once.
    ///
    /// **Early termination** (interval policy with `top_k > 0`): hits are
    /// processed in chunks; between chunks the tracker knows the k-th largest
    /// credible lower bound `L` among scored candidates, and any later
    /// candidate whose cheap upper bound (from the join-size bound, valid for
    /// every shipped estimator) is strictly below `L` is skipped. Its point
    /// estimate could be at most that upper bound `< L ≤` the k-th largest
    /// final MI, so it can never enter the top-k — even on ties — under any
    /// processing order. Hence parallel, sequential, cached, and exhaustive
    /// runs all return the identical top-k.
    ///
    /// **Distinct pruning** (`prune_by_distinct`, any policy): a candidate
    /// whose join-size upper bound is below `min_join_size` is skipped before
    /// the join; the bound is sound, so the gate would have dropped it anyway.
    fn run(
        &self,
        hits: &[(usize, usize)],
        mut score_batch: impl FnMut(&[(usize, usize)]) -> Vec<Option<RankedCandidate>>,
    ) -> (Vec<RankedCandidate>, QueryStats) {
        let query = self.query;
        let prune = query.prunes();
        let early_term = query.early_terminates();
        // Point scoring processes all hits as one batch; early termination
        // needs chunk boundaries to refresh the top-k lower bound.
        let chunk_size = if early_term {
            EARLY_TERM_CHUNK
        } else {
            usize::MAX
        };
        let mut tracker = TopKLowerBound::new(if early_term { query.top_k } else { 0 });
        let mut stats = QueryStats::default();
        let mut results: Vec<RankedCandidate> = Vec::new();
        let mut batch: Vec<(usize, usize)> = Vec::new();

        for chunk in hits.chunks(chunk_size) {
            batch.clear();
            for &hit in chunk {
                if let Some(bound) = self.join_size_upper_bound(hit) {
                    if prune && bound < query.min_join_size {
                        stats.pruned += 1;
                        continue;
                    }
                    if let Some(threshold) = tracker.threshold() {
                        if cheap_mi_upper(bound) < threshold {
                            stats.early_stopped += 1;
                            continue;
                        }
                    }
                }
                batch.push(hit);
            }
            if batch.is_empty() {
                continue;
            }
            for ranked in score_batch(&batch).into_iter().flatten() {
                if let Some(interval) = &ranked.interval {
                    tracker.push(interval.ci_lo);
                }
                results.push(ranked);
            }
        }
        stats.scored = results.len();
        sort_by_mi_desc(&mut results);
        if query.top_k > 0 {
            results.truncate(query.top_k);
        }
        (results, stats)
    }

    /// An upper bound on the sketch-join size of one hit, when a screen is
    /// active.
    ///
    /// The joinability index reports `key_overlap` — the exact number of
    /// distinct key digests shared by the query sketch and the candidate
    /// sketch — and the join emits at most one pair per left row whose digest
    /// matches, so the join size is at most the sum of the `key_overlap`
    /// largest per-digest row multiplicities on the query side. The
    /// candidate's key-column distinct sketch caps the number of matchable
    /// digests as well (binding only while the KMV sketch is exact, i.e.
    /// under capacity — a belt-and-braces cap, the overlap term is the one
    /// that usually bites). NULL-valued rows are excluded from the
    /// multiplicities because the join drops NULL pairs.
    fn join_size_upper_bound(
        &self,
        (candidate_index, key_overlap): (usize, usize),
    ) -> Option<usize> {
        let mult = self.multiplicity.as_ref()?;
        let m = match self.source.key_distinct_bound(candidate_index) {
            Some(distinct) => key_overlap.min(distinct),
            None => key_overlap,
        };
        Some(mult.top_m_sum(m))
    }
}

/// Stages 2–3 — **join** and **estimate** for one pre-filter hit: sketch
/// join, minimum-join-size gate, MI estimate (with interval decoration under
/// [`ScoringPolicy::Interval`]). Both strategies map this over their batches,
/// so they cannot drift.
///
/// Cache interaction, in order:
/// * **Level-2 hit** (same left sketch, candidate, `k`, and policy): the
///   stored estimate — interval included — is replayed; no join, no
///   estimator. The `min_join_size` gate is re-applied to the stored join
///   size, so a query with a stricter threshold still drops the candidate
///   exactly as its cold run would.
/// * **Level-1 hit**: the cached [`JoinedSketch`] feeds the estimator
///   directly — estimation is deterministic and workspace-independent, so
///   the result is bit-identical to re-joining.
/// * **Miss**: compute both stages and populate both levels. The join is
///   cached even when it fails the size gate (a later query with a lower
///   threshold can still reuse it); failed estimates are never cached.
fn score_hit<S: CandidateSource>(
    plan: &QueryPlan<'_, S>,
    ws: &mut EstimatorWorkspace,
    (candidate_index, key_overlap): (usize, usize),
) -> Option<RankedCandidate> {
    let query = plan.query;
    let policy_code = query.policy.cache_code();
    let scored = match plan
        .cache
        .and_then(|scope| scope.get_estimate(plan.left_fp, candidate_index, query.k, policy_code))
    {
        Some(hit) if hit.join_size < query.min_join_size => return None,
        Some(hit) => hit,
        None => {
            let scored = estimate_hit(plan, ws, candidate_index)?;
            if let Some(scope) = plan.cache {
                scope.put_estimate(plan.left_fp, candidate_index, query.k, policy_code, scored);
            }
            scored
        }
    };
    // A fresh estimate and a replayed one take the same stored form, so the
    // ranked candidate is rebuilt from it identically either way.
    let candidate = plan.source.candidate(candidate_index);
    Some(RankedCandidate {
        candidate_index,
        table_index: candidate.table_index,
        table_name: candidate.table_name.clone(),
        key_column: candidate.key_column.clone(),
        feature_column: candidate.feature_column.clone(),
        aggregation: candidate.aggregation,
        mi: scored.mi,
        estimator: scored.estimator,
        sketch_join_size: scored.join_size,
        key_overlap,
        interval: match (query.policy, scored.interval) {
            (ScoringPolicy::Interval { level }, Some(iv)) => Some(MiInterval {
                variance: iv.variance,
                ci_lo: iv.ci_lo,
                ci_hi: iv.ci_hi,
                level,
            }),
            _ => None,
        },
    })
}

/// The join (through the level-1 cache) and the estimate of one candidate,
/// or `None` when the join fails the size gate or the estimator fails.
fn estimate_hit<S: CandidateSource>(
    plan: &QueryPlan<'_, S>,
    ws: &mut EstimatorWorkspace,
    candidate_index: usize,
) -> Option<CachedEstimate> {
    let query = plan.query;
    let candidate = plan.source.candidate(candidate_index);
    let joined: Arc<JoinedSketch> = match plan
        .cache
        .and_then(|scope| scope.get_join(plan.left_fp, candidate_index))
    {
        Some(joined) => joined,
        None => {
            let joined = Arc::new(plan.query_sketch.join(&candidate.sketch));
            if let Some(scope) = plan.cache {
                scope.put_join(plan.left_fp, candidate_index, Arc::clone(&joined));
            }
            joined
        }
    };
    if joined.len() < query.min_join_size {
        return None;
    }
    let (estimate, interval) = match query.policy {
        ScoringPolicy::Point => (joined.estimate_mi_in(ws, query.k).ok()?, None),
        ScoringPolicy::Interval { level } => {
            let (est, iv) = joined.estimate_mi_interval_in(ws, query.k, level).ok()?;
            (est, Some(iv))
        }
    };
    Some(CachedEstimate {
        mi: estimate.mi,
        estimator: estimate.estimator,
        n: estimate.n,
        join_size: joined.len(),
        interval: interval.map(|iv| CachedInterval {
            variance: iv.variance,
            ci_lo: iv.ci_lo,
            ci_hi: iv.ci_hi,
        }),
    })
}

/// Chunk size of the early-terminating interval scan: small enough that the
/// top-k lower bound tightens quickly, large enough that the parallel
/// strategy still has a worthwhile fan-out per batch.
const EARLY_TERM_CHUNK: usize = 32;

/// A universal upper bound (in nats) on any shipped estimator's MI estimate
/// computed from at most `join_size_bound` pairs:
///
/// * MLE / smoothed MLE: `Î ≤ ln n` exactly (bounded by the sample entropy);
/// * KSG: `Î ≤ ψ(n) < ln n`;
/// * Mixed-KSG: every sample term is `≤ ln n − ln kᵢ ≤ ln n`;
/// * DC-KSG (Ross): `Î ≤ ψ(n) + γ < ln(n + 1) + γ`.
///
/// `ln(n + 1) + γ` covers all of them. Intentionally loose — it only needs
/// to be *sound*; it bites exactly on the long tail of candidates whose
/// plausible join is a handful of rows.
fn cheap_mi_upper(join_size_bound: usize) -> f64 {
    ((join_size_bound + 1) as f64).ln() + EULER_MASCHERONI
}

/// Per-digest row multiplicities of the query sketch, preprocessed into
/// descending-order prefix sums so `top_m_sum(m)` — the largest number of
/// left rows any `m` distinct digests can match — is O(1) per candidate.
struct KeyMultiplicity {
    /// `prefix[m]` = sum of the `m` largest per-digest multiplicities.
    prefix: Vec<usize>,
}

impl KeyMultiplicity {
    fn from_sketch(sketch: &ColumnSketch) -> Self {
        let mut counts: DigestHashMap<usize> = digest_map_with_capacity(sketch.len());
        for row in sketch.rows() {
            if row.value.is_null() {
                continue; // NULL pairs are dropped by the join
            }
            *counts.entry(row.key.raw()).or_default() += 1;
        }
        let mut mult: Vec<usize> = counts.into_values().collect();
        mult.sort_unstable_by(|a, b| b.cmp(a));
        let mut prefix = Vec::with_capacity(mult.len() + 1);
        prefix.push(0);
        let mut acc = 0usize;
        for m in mult {
            acc += m;
            prefix.push(acc);
        }
        Self { prefix }
    }

    fn top_m_sum(&self, m: usize) -> usize {
        self.prefix[m.min(self.prefix.len() - 1)]
    }
}

/// Running tracker of the k-th largest credible lower bound among scored
/// candidates. The threshold is only defined once `k` candidates have
/// contributed — before that, nothing may be skipped.
struct TopKLowerBound {
    k: usize,
    /// The `k` largest lower bounds seen so far, sorted ascending.
    best: Vec<f64>,
}

impl TopKLowerBound {
    fn new(k: usize) -> Self {
        Self {
            k,
            best: Vec::with_capacity(k.min(1024)),
        }
    }

    fn push(&mut self, lo: f64) {
        if self.k == 0 {
            return;
        }
        if self.best.len() == self.k {
            if lo.total_cmp(&self.best[0]) != std::cmp::Ordering::Greater {
                return;
            }
            self.best.remove(0);
        }
        let pos = self
            .best
            .partition_point(|b| b.total_cmp(&lo) == std::cmp::Ordering::Less);
        self.best.insert(pos, lo);
    }

    fn threshold(&self) -> Option<f64> {
        (self.k > 0 && self.best.len() == self.k).then(|| self.best[0])
    }
}

/// Sorts a ranking by MI, highest first, with [`f64::total_cmp`]: a total
/// order with no panic path, matching the kernel-sort convention of the
/// estimator crate. The sort is stable, so equal-MI ties keep the pre-filter
/// hit order; a NaN estimate (which no shipped estimator produces) would
/// sort deterministically instead of aborting the query.
pub fn sort_by_mi_desc(results: &mut [RankedCandidate]) {
    results.sort_by(|a, b| b.mi.total_cmp(&a.mi));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{RepositoryConfig, TableRepository};
    use joinmi_synth::TaxiScenario;

    fn repo_and_query() -> (TableRepository, RelationshipQuery) {
        let scenario = TaxiScenario::generate(40, 15, 3);
        let config = RepositoryConfig {
            sketch: SketchConfig::new(512, 3),
            ..RepositoryConfig::default()
        };
        let mut repo = TableRepository::new(config);
        repo.add_table(scenario.weather.clone()).unwrap();
        repo.add_table(scenario.demographics.clone()).unwrap();
        repo.add_table(scenario.inspections.clone()).unwrap();
        let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(512, 3))
            .with_min_join_size(10);
        (repo, query)
    }

    /// A corpus where interval early termination actually fires: a few
    /// strong candidates whose keys fully overlap the query (near-functional
    /// features, so credible lower bounds are high) and a tail of weak
    /// candidates sharing only three sampled keys each (so their cheap MI
    /// upper bound is tiny).
    fn skewed_repo_and_query() -> (TableRepository, RelationshipQuery) {
        let keys: Vec<String> = (0..64).map(|i| format!("key-{i:02}")).collect();
        fn key_refs(v: &[String]) -> Vec<&str> {
            v.iter().map(String::as_str).collect()
        }

        let target: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
        let train = Table::builder("train")
            .push_str_column("key", key_refs(&keys))
            .push_str_column("target", key_refs(&target))
            .build()
            .unwrap();

        let config = RepositoryConfig {
            sketch: SketchConfig::new(256, 5),
            ..RepositoryConfig::default()
        };
        let mut repo = TableRepository::new(config);
        // Strong candidates: same key universe, feature = function of key —
        // MLE scores them at ln 64 with a near-zero posterior variance, so
        // the top-k credible lower bound lands high.
        for t in 0..3 {
            let feature: Vec<String> = (0..64).map(|i| format!("f{t}-{i}")).collect();
            let table = Table::builder(format!("strong{t}"))
                .push_str_column("key", key_refs(&keys))
                .push_str_column("feat", key_refs(&feature))
                .build()
                .unwrap();
            repo.add_table(table).unwrap();
        }
        // Weak candidates: eight shared keys, the rest disjoint — so their
        // cheap MI upper bound is ln 9 + γ ≈ 2.8 nats, below the strong
        // candidates' lower bound. Forty of them spill past the first
        // early-termination chunk.
        for t in 0..40 {
            let mut weak_keys: Vec<String> = (0..8).map(|i| format!("key-{i:02}")).collect();
            weak_keys.extend((0..40).map(|j| format!("weak{t}-{j}")));
            let feature: Vec<String> = (0..weak_keys.len()).map(|i| format!("w{t}-{i}")).collect();
            let table = Table::builder(format!("weak{t}"))
                .push_str_column("key", key_refs(&weak_keys))
                .push_str_column("feat", key_refs(&feature))
                .build()
                .unwrap();
            repo.add_table(table).unwrap();
        }
        let query = RelationshipQuery::new(train, "key", "target")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 5))
            .with_min_join_size(3);
        (repo, query)
    }

    #[test]
    fn a_query_of_another_sketch_kind_fails_instead_of_ranking() {
        let (repo, query) = repo_and_query();
        for kind in SketchKind::ALL {
            let asked = query.clone().with_sketch(kind, query.sketch);
            let (parallel, sequential) = (
                asked.execute(&repo),
                asked.execute_in(&repo, &mut EstimatorWorkspace::new()),
            );
            if kind == SketchKind::Tupsk {
                assert!(!parallel.unwrap().is_empty());
                assert!(!sequential.unwrap().is_empty());
            } else {
                for result in [parallel, sequential] {
                    assert!(
                        matches!(result, Err(TableError::Unsupported(_))),
                        "{kind}: {result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranking_is_sorted_and_respects_top_k() {
        let (repo, query) = repo_and_query();
        let results = query.clone().with_top_k(3).execute(&repo).unwrap();
        assert!(!results.is_empty());
        assert!(results.len() <= 3);
        assert!(results.windows(2).all(|w| w[0].mi >= w[1].mi));
        for r in &results {
            assert!(r.sketch_join_size >= 10);
            assert!(r.mi >= 0.0);
            assert!(!r.label().is_empty());
            assert!(r.interval.is_none(), "point policy must not decorate");
        }
    }

    #[test]
    fn zipcode_query_only_matches_zipcode_keyed_candidates() {
        let (repo, query) = repo_and_query();
        let results = query.with_top_k(0).execute(&repo).unwrap();
        // Weather is keyed on date / hour, which do not overlap zip codes.
        assert!(results.iter().all(|r| r.key_column == "zipcode"));
        // Both demographics and inspections should appear.
        assert!(results.iter().any(|r| r.table_name == "demographics"));
        assert!(results.iter().any(|r| r.table_name == "inspections"));
    }

    #[test]
    fn demographics_population_is_a_strong_candidate() {
        // Population drives the planted per-ZIP demand signal, so its
        // sketch-estimated MI must be clearly non-zero. (Comparisons against
        // candidates scored by *different* estimators are deliberately not
        // asserted — the paper's Section V-C3 explains why such magnitudes
        // are not comparable.)
        let (repo, query) = repo_and_query();
        let results = query.with_top_k(0).execute(&repo).unwrap();
        let pop = results
            .iter()
            .find(|r| r.table_name == "demographics" && r.feature_column == "population")
            .expect("population candidate missing from ranking");
        assert!(pop.mi > 0.2, "population MI suspiciously low: {}", pop.mi);
    }

    #[test]
    fn sequential_execute_in_matches_parallel_execute() {
        let (repo, query) = repo_and_query();
        let parallel = query.execute(&repo).unwrap();
        assert!(!parallel.is_empty());

        // One workspace reused across repeated calls, daemon-style.
        let mut ws = joinmi_estimators::EstimatorWorkspace::new();
        for _ in 0..2 {
            let sequential = query.execute_in(&repo, &mut ws).unwrap();
            let key = |r: &RankedCandidate| (r.candidate_index, r.mi.to_bits(), r.key_overlap);
            assert_eq!(
                parallel.iter().map(key).collect::<Vec<_>>(),
                sequential.iter().map(key).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn missing_query_columns_error() {
        let (repo, query) = repo_and_query();
        let mut bad = query;
        bad.key_column = "nope".to_owned();
        assert!(bad.execute(&repo).is_err());
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

    /// Fingerprint including the interval decoration bits.
    fn interval_fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, u64, u64, u64)> {
        results
            .iter()
            .map(|r| {
                let iv = r.interval.as_ref().expect("interval missing");
                (
                    r.candidate_index,
                    r.mi.to_bits(),
                    iv.variance.to_bits(),
                    iv.ci_lo.to_bits(),
                    iv.ci_hi.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn cached_execution_is_bit_identical_and_skips_the_estimator() {
        let (repo, query) = repo_and_query();
        let query = query.with_top_k(0);
        let cold = query.execute(&repo).unwrap();
        assert!(!cold.is_empty());

        let cache = crate::QueryStageCache::new(crate::StageCacheConfig::default());
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();

        // First cached run: all misses, cache populated.
        let first = query
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&first));
        let after_first = cache.stats();
        assert_eq!(after_first.estimate_hits, 0);
        assert_eq!(after_first.estimate_misses as usize, cold.len());

        // Second run: every scored candidate is a level-2 hit — the join and
        // the estimator never run — and the ranking replays bit-for-bit.
        let second = query
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&second));
        let after_second = cache.stats();
        assert_eq!(after_second.estimate_hits as usize, cold.len());
        assert_eq!(after_second.estimate_misses, after_first.estimate_misses);
        assert_eq!(after_second.join_misses, after_first.join_misses);

        // The parallel path shares the same cache plumbing.
        let parallel = query.execute_cached(&repo, Some(&scope)).unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&parallel));
    }

    #[test]
    fn join_level_hit_re_estimates_bit_identically() {
        let (repo, query) = repo_and_query();
        let query = query.with_top_k(0);
        let cold = query.execute(&repo).unwrap();

        let cache = crate::QueryStageCache::new(crate::StageCacheConfig::default());
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();
        query
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();

        // Drop level 2, keep level 1: the next run re-estimates from the
        // cached joins and must still agree bit-for-bit.
        cache.clear_estimates();
        let joins_before = cache.stats().join_hits;
        let warm = query
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&warm));
        assert!(cache.stats().join_hits > joins_before);
    }

    #[test]
    fn stricter_min_join_size_gates_cached_estimates() {
        let (repo, query) = repo_and_query();
        let query = query.with_top_k(0);
        let cache = crate::QueryStageCache::new(crate::StageCacheConfig::default());
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();
        query
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();

        // A stricter gate over a warm cache must agree with its own cold run.
        let strict = query.clone().with_min_join_size(200);
        let cold = strict.execute(&repo).unwrap();
        let cached = strict
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&cached));
    }

    #[test]
    fn with_k_changes_the_estimate_and_the_cache_key() {
        let (repo, query) = repo_and_query();
        let base = query.clone().with_top_k(0);
        let k7 = query.with_top_k(0).with_k(7);
        assert_eq!(base.k, DEFAULT_K);
        assert_eq!(k7.k, 7);

        let default_ranking = base.execute(&repo).unwrap();
        let k7_ranking = k7.execute(&repo).unwrap();
        // KSG-family estimates move with k; MLE-scored candidates do not.
        let moved = default_ranking.iter().any(|a| {
            k7_ranking
                .iter()
                .any(|b| b.candidate_index == a.candidate_index && b.mi.to_bits() != a.mi.to_bits())
        });
        assert!(moved, "k had no effect on any continuous candidate");

        // Different k populates distinct level-2 entries for the same pairs.
        let cache = crate::QueryStageCache::new(crate::StageCacheConfig::default());
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();
        base.execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        let misses_after_base = cache.stats().estimate_misses;
        k7.execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.estimate_hits, 0);
        assert!(stats.estimate_misses > misses_after_base);

        // And each replays bit-for-bit from its own entries.
        let base_cached = base
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        let k7_cached = k7
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(fingerprint(&default_ranking), fingerprint(&base_cached));
        assert_eq!(fingerprint(&k7_ranking), fingerprint(&k7_cached));
    }

    #[test]
    fn interval_scoring_decorates_without_changing_the_ranking() {
        let (repo, query) = repo_and_query();
        let point = query.clone().with_top_k(0).execute(&repo).unwrap();
        let interval = query
            .clone()
            .with_top_k(0)
            .with_confidence(0.95)
            .execute(&repo)
            .unwrap();
        // Same candidates, same order, same point estimates to the last bit.
        assert_eq!(fingerprint(&point), fingerprint(&interval));
        for r in &interval {
            let iv = r.interval.as_ref().expect("interval policy must decorate");
            assert_eq!(iv.level, 0.95);
            assert!(iv.ci_lo >= 0.0);
            assert!(iv.ci_lo <= r.mi && r.mi <= iv.ci_hi);
            assert!(iv.variance >= 0.0);
        }
    }

    #[test]
    fn invalid_confidence_level_fails_the_query() {
        let (repo, query) = repo_and_query();
        assert!(query.clone().with_confidence(0.0).execute(&repo).is_err());
        assert!(query.clone().with_confidence(1.0).execute(&repo).is_err());
        // Below 1, but `0.5 + level / 2` rounds to 1: a typed error before
        // any candidate is scored, not a panic in the scorer.
        let boundary = 1.0 - f64::EPSILON / 2.0;
        assert!(matches!(
            query.clone().with_confidence(boundary).execute(&repo),
            Err(TableError::Unsupported(_))
        ));
        let largest = 1.0 - f64::EPSILON;
        assert!(query
            .clone()
            .with_confidence(largest)
            .execute(&repo)
            .is_ok());
        assert!(query.with_confidence(f64::NAN).execute(&repo).is_err());
    }

    #[test]
    fn early_termination_matches_exhaustive_scoring_and_fires() {
        let (repo, query) = skewed_repo_and_query();
        let query = query.with_confidence(0.9);

        // Exhaustive interval ranking (top_k = 0 disables early termination),
        // truncated by hand to the top 2.
        let mut exhaustive = query.clone().with_top_k(0).execute(&repo).unwrap();
        assert!(
            exhaustive.len() > 5,
            "corpus too small to exercise the tail"
        );
        exhaustive.truncate(2);

        // Early-terminating run, parallel and sequential, with stats.
        let early = query.clone().with_top_k(2);
        let (parallel, stats) = early.execute_cached_stats(&repo, None).unwrap();
        assert_eq!(
            interval_fingerprint(&exhaustive),
            interval_fingerprint(&parallel)
        );
        assert!(
            stats.early_stopped > 0,
            "early termination never fired: {stats:?}"
        );

        let mut ws = EstimatorWorkspace::new();
        let (sequential, seq_stats) = early.execute_in_cached_stats(&repo, &mut ws, None).unwrap();
        assert_eq!(
            interval_fingerprint(&parallel),
            interval_fingerprint(&sequential)
        );
        assert!(seq_stats.early_stopped > 0);
        assert_eq!(stats, seq_stats);
    }

    #[test]
    fn distinct_pruning_is_bit_identical_and_skips_joins() {
        let (repo, query) = skewed_repo_and_query();
        // min_join_size 10 > the weak candidates' 3-row join bound: pruning
        // must skip them before the join without changing the ranking.
        let query = query.with_min_join_size(10).with_top_k(0);
        let (pruned, stats) = query.execute_cached_stats(&repo, None).unwrap();
        assert!(stats.pruned > 0, "pruning never fired: {stats:?}");
        let (sequential, seq_stats) = query
            .execute_in_cached_stats(&repo, &mut EstimatorWorkspace::new(), None)
            .unwrap();
        assert_eq!(fingerprint(&pruned), fingerprint(&sequential));
        assert_eq!(stats, seq_stats);

        let mut unpruned_query = query.clone();
        unpruned_query.prune_by_distinct = false;
        let unpruned = unpruned_query.execute(&repo).unwrap();
        assert_eq!(fingerprint(&unpruned), fingerprint(&pruned));

        // Pruned candidates are exactly the ones the join-size gate would
        // have dropped, so the scored count matches the result count.
        assert_eq!(stats.scored, pruned.len());
    }

    #[test]
    fn point_and_interval_cache_entries_never_alias() {
        let (repo, query) = repo_and_query();
        let point = query.clone().with_top_k(0);
        let interval = query.with_top_k(0).with_confidence(0.95);

        let cache = crate::QueryStageCache::new(crate::StageCacheConfig::default());
        let scope = cache.scope(0);
        let mut ws = EstimatorWorkspace::new();

        let point_cold = point
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert!(!point_cold.is_empty());
        let after_point = cache.stats();
        assert_eq!(after_point.estimate_hits, 0);

        // The interval run must not hit the point entries...
        let interval_cold = interval
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(cache.stats().estimate_hits, 0);
        // ...but replays bit-for-bit from its own, interval included.
        let interval_warm = interval
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(
            interval_fingerprint(&interval_cold),
            interval_fingerprint(&interval_warm)
        );
        assert_eq!(
            cache.stats().estimate_hits as usize,
            interval_cold.len(),
            "interval replay missed its own entries"
        );
        // The point ranking still replays from the point entries.
        let point_warm = point
            .execute_in_cached_stats(&repo, &mut ws, Some(&scope))
            .map(|(r, _)| r)
            .unwrap();
        assert_eq!(fingerprint(&point_cold), fingerprint(&point_warm));
    }

    #[test]
    fn nan_estimates_sort_deterministically_without_panicking() {
        let ranked = |mi: f64, idx: usize| RankedCandidate {
            candidate_index: idx,
            table_index: 0,
            table_name: "t".to_owned(),
            key_column: "k".to_owned(),
            feature_column: "f".to_owned(),
            aggregation: Aggregation::First,
            mi,
            estimator: EstimatorKind::Mle,
            sketch_join_size: 10,
            key_overlap: 1,
            interval: None,
        };
        let mut results = vec![
            ranked(0.5, 0),
            ranked(f64::NAN, 1),
            ranked(1.5, 2),
            ranked(-f64::NAN, 3),
            ranked(f64::NEG_INFINITY, 4),
        ];
        // The old partial_cmp sort aborted the whole query here; total_cmp
        // gives NaN a fixed place in the order instead.
        sort_by_mi_desc(&mut results);
        let order: Vec<usize> = results.iter().map(|r| r.candidate_index).collect();
        assert_eq!(order, vec![1, 2, 0, 4, 3]);
    }

    #[test]
    fn top_k_lower_bound_tracker_tracks_the_kth_largest() {
        let mut t = TopKLowerBound::new(2);
        assert_eq!(t.threshold(), None);
        t.push(0.5);
        assert_eq!(t.threshold(), None);
        t.push(0.2);
        assert_eq!(t.threshold(), Some(0.2));
        t.push(0.9); // displaces 0.2
        assert_eq!(t.threshold(), Some(0.5));
        t.push(0.1); // below the floor: ignored
        assert_eq!(t.threshold(), Some(0.5));
        // k = 0 never defines a threshold.
        let mut z = TopKLowerBound::new(0);
        z.push(1.0);
        assert_eq!(z.threshold(), None);
    }
}
