//! The staged replay: one query executed through the public pieces of the
//! engine — `build_query_sketch`, `probe`, `CandidateSource::candidate`,
//! `JoinedSketch::from_sketches`, `estimate_mi_in` / `estimate_mi_interval_in`,
//! `ShardSet::merge_rank` — with a span around each call.
//!
//! The engine's stages are not separately visible from outside, so the traced
//! run executes each sampled op twice: once through the black box and once
//! through this module, and requires both to return the same ranking. What
//! the black box costs beyond the staged calls is the engine's own time
//! (bounds, screens, cache keys, sort).
//!
//! The cheap pre-join screens are re-derived here from the public parts they
//! are built on, so the staged run joins and estimates the candidates the
//! engine does. They are sound — they never change a ranking — so if the
//! engine's screens change, the ranking check still holds and only the
//! attribution between `engine_self` and the stages shifts.

use std::collections::HashMap;
use std::sync::Arc;

use joinmi_discovery::{
    sort_by_mi_desc, CacheScope, CachedEstimate, CachedInterval, CandidateSource, RankedCandidate,
    RelationshipQuery, ScoringPolicy,
};
use joinmi_estimators::special::EULER_MASCHERONI;
use joinmi_estimators::{EstimatorKind, EstimatorWorkspace, MiInterval};
use joinmi_serve::{ShardSet, ShardedResult};
use joinmi_sketch::{ColumnSketch, JoinedSketch};

use crate::trace::{SpanId, Tracer};

/// Hits scored between refreshes of the running top-k lower bound.
const SCREEN_CHUNK: usize = 32;

/// What identifies a ranking: candidate, MI bits, join size — per result, in
/// order. Candidates are numbered globally across shards.
pub type Fingerprint = Vec<(usize, u64, usize)>;

/// Fingerprint of an unsharded in-process ranking.
#[must_use]
pub fn fingerprint(results: &[RankedCandidate]) -> Fingerprint {
    results
        .iter()
        .map(|r| (r.candidate_index, r.mi.to_bits(), r.sketch_join_size))
        .collect()
}

/// Fingerprint of a sharded in-process ranking.
#[must_use]
pub fn sharded_fingerprint(results: &[ShardedResult]) -> Fingerprint {
    results
        .iter()
        .map(|r| {
            (
                r.global_candidate_index,
                r.candidate.mi.to_bits(),
                r.candidate.sketch_join_size,
            )
        })
        .collect()
}

/// Sums over the replayed ops: wall time per stage (ns) and exact counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Ops replayed.
    pub ops: u64,
    /// `build_query_sketch`, called on its own.
    pub build_sketch_ns: u64,
    /// `probe` (which builds the sketch again, then queries the index).
    pub probe_ns: u64,
    /// Joinability hits returned by `probe`.
    pub hits: u64,
    /// `JoinedSketch::from_sketches`.
    pub join_ns: u64,
    /// Pairs those joins recovered.
    pub join_pairs: u64,
    /// The estimate call the query's policy makes.
    pub estimate_ns: u64,
    /// Estimate calls made.
    pub estimate_calls: u64,
    /// Point estimates by the discrete MLE.
    pub mle_ns: u64,
    /// Calls behind `mle_ns`.
    pub mle_calls: u64,
    /// Point estimates by the KSG family (KSG, Mixed-KSG, DC-KSG).
    pub ksg_ns: u64,
    /// Calls behind `ksg_ns`.
    pub ksg_calls: u64,
    /// Interval call minus point call on the same sample.
    pub posterior_ns: u64,
    /// Calls behind `posterior_ns`.
    pub posterior_calls: u64,
    /// `ShardSet::merge_rank`.
    pub merge_ns: u64,
    /// Candidates that produced a ranked result.
    pub scored: u64,
    /// Candidates the join-size bound rejected.
    pub pruned: u64,
    /// Candidates the cheap MI bound rejected.
    pub early_stopped: u64,
}

/// Sum of the `m` largest per-digest row multiplicities of a query sketch,
/// for every `m`: the join-size bound both screens consume.
struct KeyMultiplicity {
    prefix: Vec<usize>,
}

impl KeyMultiplicity {
    fn from_sketch(sketch: &ColumnSketch) -> Self {
        let mut counts: HashMap<u64, usize> = HashMap::with_capacity(sketch.len());
        for row in sketch.rows() {
            if !row.value.is_null() {
                *counts.entry(row.key.raw()).or_default() += 1;
            }
        }
        let mut multiplicities: Vec<usize> = counts.into_values().collect();
        multiplicities.sort_unstable_by(|a, b| b.cmp(a));
        let mut prefix = Vec::with_capacity(multiplicities.len() + 1);
        prefix.push(0);
        let mut total = 0;
        for m in multiplicities {
            total += m;
            prefix.push(total);
        }
        Self { prefix }
    }

    fn top_sum(&self, m: usize) -> usize {
        self.prefix[m.min(self.prefix.len() - 1)]
    }
}

/// The `k` largest credible lower bounds seen so far, ascending.
struct LowerBounds {
    k: usize,
    best: Vec<f64>,
}

impl LowerBounds {
    fn push(&mut self, lo: f64) {
        if self.k == 0 {
            return;
        }
        if self.best.len() == self.k {
            if lo.total_cmp(&self.best[0]).is_le() {
                return;
            }
            self.best.remove(0);
        }
        let at = self.best.partition_point(|b| b.total_cmp(&lo).is_lt());
        self.best.insert(at, lo);
    }

    fn threshold(&self) -> Option<f64> {
        (self.k > 0 && self.best.len() == self.k).then(|| self.best[0])
    }
}

/// Where a staged run records: the workspace it estimates in, the tracer and
/// parent span its calls are recorded under, and the sums it adds to.
pub struct ReplayCtx<'a> {
    /// Estimator scratch, reused across replays like a daemon worker's.
    pub ws: &'a mut EstimatorWorkspace,
    /// Span recorder.
    pub tracer: &'a mut Tracer,
    /// Op the replay belongs to.
    pub op: u64,
    /// Span the staged calls hang under.
    pub parent: Option<SpanId>,
    /// Stage sums.
    pub totals: &'a mut Stages,
}

impl ReplayCtx<'_> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        self.tracer.timed(name, self.op, self.parent, f)
    }

    fn timed_ws<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut EstimatorWorkspace) -> R,
    ) -> (R, u64) {
        let ws = &mut *self.ws;
        self.tracer.timed(name, self.op, self.parent, || f(ws))
    }
}

/// Runs `query` against `source` stage by stage. `scope` plays the role the
/// stage cache plays in the engine: consulted before the join and the
/// estimate, filled after them.
pub fn staged_rank<S: CandidateSource>(
    query: &RelationshipQuery,
    source: &S,
    scope: Option<&CacheScope<'_>>,
    ctx: &mut ReplayCtx<'_>,
) -> Result<Vec<RankedCandidate>, String> {
    let (sketch, ns) = ctx.timed("discovery.query.build_sketch", || {
        query.build_query_sketch()
    });
    let sketch = sketch.map_err(|e| e.to_string())?;
    ctx.totals.build_sketch_ns += ns;
    let (probed, ns) = ctx.timed("discovery.index.probe", || query.probe(source));
    let (_, hits) = probed.map_err(|e| e.to_string())?;
    ctx.totals.probe_ns += ns;
    ctx.totals.hits += hits.len() as u64;

    let left_fp = scope.map_or((0, 0), |_| sketch.content_fingerprint());
    let level = query.policy.level();
    let early = level.is_some() && query.top_k > 0;
    let prune = query.prune_by_distinct && query.min_join_size > 0;
    let multiplicity = (early || prune).then(|| KeyMultiplicity::from_sketch(&sketch));
    let mut bounds = LowerBounds {
        k: if early { query.top_k } else { 0 },
        best: Vec::new(),
    };
    let chunk = if early { SCREEN_CHUNK } else { usize::MAX };

    let mut results = Vec::new();
    for batch in hits.chunks(chunk) {
        let threshold = bounds.threshold();
        for &(index, key_overlap) in batch {
            if let Some(multiplicity) = &multiplicity {
                let m = source
                    .key_distinct_bound(index)
                    .map_or(key_overlap, |distinct| key_overlap.min(distinct));
                let bound = multiplicity.top_sum(m);
                if prune && bound < query.min_join_size {
                    ctx.totals.pruned += 1;
                    continue;
                }
                if threshold.is_some_and(|t| ((bound + 1) as f64).ln() + EULER_MASCHERONI < t) {
                    ctx.totals.early_stopped += 1;
                    continue;
                }
            }
            let scored = score_hit(
                query,
                source,
                &sketch,
                left_fp,
                scope,
                ctx,
                (index, key_overlap),
            );
            if let Some(ranked) = scored {
                if let Some(interval) = &ranked.interval {
                    bounds.push(interval.ci_lo);
                }
                results.push(ranked);
            }
        }
    }
    ctx.totals.scored += results.len() as u64;
    sort_by_mi_desc(&mut results);
    if query.top_k > 0 {
        results.truncate(query.top_k);
    }
    Ok(results)
}

fn score_hit<S: CandidateSource>(
    query: &RelationshipQuery,
    source: &S,
    sketch: &ColumnSketch,
    left_fp: (u64, u64),
    scope: Option<&CacheScope<'_>>,
    ctx: &mut ReplayCtx<'_>,
    (index, key_overlap): (usize, usize),
) -> Option<RankedCandidate> {
    let policy_code = query.policy.cache_code();
    let ranked =
        |mi: f64, estimator: EstimatorKind, join_size: usize, interval: Option<MiInterval>| {
            let candidate = source.candidate(index);
            RankedCandidate {
                candidate_index: index,
                table_index: candidate.table_index,
                table_name: candidate.table_name.clone(),
                key_column: candidate.key_column.clone(),
                feature_column: candidate.feature_column.clone(),
                aggregation: candidate.aggregation,
                mi,
                estimator,
                sketch_join_size: join_size,
                key_overlap,
                interval,
            }
        };

    if let Some(scope) = scope {
        let (hit, _) = ctx.timed("discovery.cache.lookup", || {
            scope.get_estimate(left_fp, index, query.k, policy_code)
        });
        if let Some(hit) = hit {
            if hit.join_size < query.min_join_size {
                return None;
            }
            let interval = match (query.policy, hit.interval) {
                (ScoringPolicy::Interval { level }, Some(iv)) => Some(MiInterval {
                    variance: iv.variance,
                    ci_lo: iv.ci_lo,
                    ci_hi: iv.ci_hi,
                    level,
                }),
                _ => None,
            };
            return Some(ranked(hit.mi, hit.estimator, hit.join_size, interval));
        }
    }

    let joined = match scope.and_then(|s| s.get_join(left_fp, index)) {
        Some(joined) => joined,
        None => {
            let right = &source.candidate(index).sketch;
            let (joined, ns) = ctx.timed("sketch.join", || {
                Arc::new(JoinedSketch::from_sketches(sketch, right))
            });
            ctx.totals.join_ns += ns;
            ctx.totals.join_pairs += joined.len() as u64;
            if let Some(scope) = scope {
                scope.put_join(left_fp, index, Arc::clone(&joined));
            }
            joined
        }
    };
    if joined.len() < query.min_join_size {
        return None;
    }

    let (estimate, interval) = match query.policy {
        ScoringPolicy::Point => {
            let k = query.k;
            let (estimate, ns) =
                ctx.timed_ws("estimators.point", |ws| joined.estimate_mi_in(ws, k));
            let estimate = estimate.ok()?;
            ctx.totals.estimate_ns += ns;
            ctx.totals.add_point(estimate.estimator, ns);
            (estimate, None)
        }
        ScoringPolicy::Interval { level } => {
            let k = query.k;
            let (scored, interval_ns) = ctx.timed_ws("estimators.interval", |ws| {
                joined.estimate_mi_interval_in(ws, k, level)
            });
            let (estimate, interval) = scored.ok()?;
            ctx.totals.estimate_ns += interval_ns;
            // The same sample once more through the point-only call: the
            // difference is what the posterior costs.
            let (_, point_ns) = ctx.timed_ws("estimators.point", |ws| joined.estimate_mi_in(ws, k));
            ctx.totals.add_point(estimate.estimator, point_ns);
            ctx.totals.posterior_ns += interval_ns.saturating_sub(point_ns);
            ctx.totals.posterior_calls += 1;
            (estimate, Some(interval))
        }
    };
    ctx.totals.estimate_calls += 1;
    if let Some(scope) = scope {
        scope.put_estimate(
            left_fp,
            index,
            query.k,
            policy_code,
            CachedEstimate {
                mi: estimate.mi,
                estimator: estimate.estimator,
                n: estimate.n,
                join_size: joined.len(),
                interval: interval.map(|iv| CachedInterval {
                    variance: iv.variance,
                    ci_lo: iv.ci_lo,
                    ci_hi: iv.ci_hi,
                }),
            },
        );
    }
    Some(ranked(
        estimate.mi,
        estimate.estimator,
        joined.len(),
        interval,
    ))
}

impl Stages {
    /// Adds another thread's sums.
    pub fn merge(&mut self, other: &Self) {
        let Self {
            ops,
            build_sketch_ns,
            probe_ns,
            hits,
            join_ns,
            join_pairs,
            estimate_ns,
            estimate_calls,
            mle_ns,
            mle_calls,
            ksg_ns,
            ksg_calls,
            posterior_ns,
            posterior_calls,
            merge_ns,
            scored,
            pruned,
            early_stopped,
        } = other;
        self.ops += ops;
        self.build_sketch_ns += build_sketch_ns;
        self.probe_ns += probe_ns;
        self.hits += hits;
        self.join_ns += join_ns;
        self.join_pairs += join_pairs;
        self.estimate_ns += estimate_ns;
        self.estimate_calls += estimate_calls;
        self.mle_ns += mle_ns;
        self.mle_calls += mle_calls;
        self.ksg_ns += ksg_ns;
        self.ksg_calls += ksg_calls;
        self.posterior_ns += posterior_ns;
        self.posterior_calls += posterior_calls;
        self.merge_ns += merge_ns;
        self.scored += scored;
        self.pruned += pruned;
        self.early_stopped += early_stopped;
    }

    fn add_point(&mut self, kind: EstimatorKind, ns: u64) {
        match kind {
            EstimatorKind::Mle | EstimatorKind::SmoothedMle => {
                self.mle_ns += ns;
                self.mle_calls += 1;
            }
            EstimatorKind::Ksg | EstimatorKind::MixedKsg | EstimatorKind::DcKsg => {
                self.ksg_ns += ns;
                self.ksg_calls += 1;
            }
        }
    }

    /// `probe` minus the sketch it builds on the way.
    #[must_use]
    pub fn probe_self_ns(&self) -> u64 {
        self.probe_ns.saturating_sub(self.build_sketch_ns)
    }

    /// Everything the staged run attributes to a stage of its own: what the
    /// black box must cost at least.
    #[must_use]
    pub fn staged_ns(&self) -> u64 {
        self.probe_ns + self.join_ns + self.estimate_ns
    }
}

/// The staged counterpart of `ShardSet::execute`: every shard staged in
/// order through the shared cache, then the merge.
pub fn staged_sharded(
    query: &RelationshipQuery,
    shards: &ShardSet,
    cache: Option<&joinmi_discovery::QueryStageCache>,
    ctx: &mut ReplayCtx<'_>,
) -> Result<Vec<ShardedResult>, String> {
    let mut merged = Vec::new();
    for (shard_index, shard) in shards.shards().iter().enumerate() {
        let scope = cache.map(|c| c.scope(shard.candidate_offset() as u64));
        let ranked = staged_rank(query, shard.snapshot(), scope.as_ref(), ctx)?;
        merged.extend(ranked.into_iter().map(|candidate| ShardedResult {
            shard: shard_index,
            shard_candidate_index: candidate.candidate_index,
            global_candidate_index: shard.candidate_offset() + candidate.candidate_index,
            candidate,
        }));
    }
    let ((), ns) = ctx
        .tracer
        .timed("serve.shard.merge_rank", ctx.op, ctx.parent, || {
            ShardSet::merge_rank(&mut merged);
        });
    ctx.totals.merge_ns += ns;
    if query.top_k > 0 {
        merged.truncate(query.top_k);
    }
    Ok(merged)
}
