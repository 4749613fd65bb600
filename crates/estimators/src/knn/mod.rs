//! Nearest-neighbour search helpers for the KSG-family estimators.
//!
//! All KSG variants need two primitives:
//!
//! 1. for every point `i`, the distance to its `k`-th nearest neighbour in
//!    the *joint* space under the Chebyshev (max) metric, excluding the point
//!    itself ([`kth_nn_distances_chebyshev`], [`kth_nn_distances_1d`]);
//! 2. for every point `i`, the number of points whose marginal coordinate
//!    lies within a given radius ([`MarginalCounter`]).
//!
//! The joint search sorts points by their x coordinate and scans outwards
//! from each query point, stopping on a side as soon as the x-distance alone
//! reaches the current k-th best — the classic trick that makes the search
//! near-linear for well-spread data while remaining exactly correct in the
//! worst case.
//!
//! The module is organised in three parts:
//!
//! * `SortedJoint` / `RankedMarginal` are **sort-once views**: the index
//!   order, per-point ranks, and value-sorted copies that every kernel and
//!   every marginal count shares. [`crate::workspace::EstimatorWorkspace`]
//!   owns one of each and reuses their buffers across estimator calls, so an
//!   estimate sorts each column exactly once (the free functions here build a
//!   throwaway view per call).
//! * the `blocked` submodule holds the search kernels over those sorted
//!   arrays: a two-sided scan for the joint space (seed the top-k from the
//!   k x-nearest positions, walk left, then right, each side ending at its
//!   first x-distance at or beyond the k-th best) and a window scan in one
//!   dimension. Results are bit-for-bit identical to the greedy expansion
//!   kept as the [`kth_nn_distances_chebyshev_scalar`] /
//!   [`kth_nn_distances_1d_scalar`] oracles, because the k-th smallest
//!   distance of a multiset does not depend on visit order.
//! * Marginal counts carry each point's already-known rank into the search
//!   (`RankedMarginal::count_strictly_within` and friends), replacing two
//!   full-range binary searches per point with two half-range ones.
//!
//! Every point's search is independent, so the distance kernels chunk the
//! per-point loop across [`joinmi_par`] workers (above a small-input cutoff),
//! one reusable top-k accumulator per worker, and results are written back
//! in input order — parallel output is bit-for-bit equal to the sequential
//! one.

mod blocked;
mod heap;

pub(crate) use blocked::kth_1d_at;

use heap::BoundedMaxHeap;

/// Maps a float to a `u64` whose unsigned order equals [`f64::total_cmp`]
/// order (IEEE 754 `totalOrder`: flip all bits of negatives, flip the sign
/// bit of non-negatives).
///
/// Sorting `(key, index)` integer pairs is substantially faster than an
/// index sort with a float comparator — the comparator's random accesses
/// into the coordinate slice miss cache, while integer pairs sort in place —
/// and it breaks ties by original index, making the layout of duplicate
/// values deterministic instead of unstable-sort-arbitrary.
#[inline]
fn total_order_key(v: f64) -> u64 {
    let b = v.to_bits();
    b ^ ((((b as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Sorts `(total_order_key, index)` pairs for `values` into `keys` (reused
/// buffer). Panics if the sample exceeds `u32` indexing — 4 billion rows is
/// far beyond any estimator input.
fn sort_order_keys(keys: &mut Vec<(u64, u32)>, values: &[f64]) {
    assert!(
        values.len() <= u32::MAX as usize,
        "sample too large for u32 sort indices"
    );
    keys.clear();
    keys.extend(
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (total_order_key(v), i as u32)),
    );
    keys.sort_unstable();
}

// ---------------------------------------------------------------------------
// Counting over sorted coordinates.
// ---------------------------------------------------------------------------

/// `|{z : |z − center| < radius}|` over a sorted slice (full-range searches).
fn count_strictly_within_sorted(sorted: &[f64], center: f64, radius: f64) -> usize {
    if radius <= 0.0 {
        return 0;
    }
    let lo = sorted.partition_point(|&v| v <= center - radius);
    let hi = sorted.partition_point(|&v| v < center + radius);
    hi - lo
}

/// `|{z : |z − center| <= radius}|` over a sorted slice (full-range searches).
fn count_within_sorted(sorted: &[f64], center: f64, radius: f64) -> usize {
    let lo = sorted.partition_point(|&v| v < center - radius);
    let hi = sorted.partition_point(|&v| v <= center + radius);
    hi - lo
}

/// Strict-radius count with a rank hint: `rank` must hold a value equal to
/// `center` (the query point's own position in the sorted layout) and
/// `radius` must be positive, so the lower boundary lies in `[0, rank]` and
/// the upper one in `[rank, n]` — each binary search scans half the range.
pub(crate) fn count_strictly_within_at(
    sorted: &[f64],
    rank: usize,
    center: f64,
    radius: f64,
) -> usize {
    debug_assert!(radius > 0.0);
    debug_assert!(sorted[rank] == center);
    let lo = sorted[..rank].partition_point(|&v| v <= center - radius);
    let hi = rank + sorted[rank..].partition_point(|&v| v < center + radius);
    hi - lo
}

/// Inclusive-radius count with a rank hint (`radius >= 0`; see
/// [`count_strictly_within_at`] for the contract).
pub(crate) fn count_within_at(sorted: &[f64], rank: usize, center: f64, radius: f64) -> usize {
    debug_assert!(radius >= 0.0);
    debug_assert!(sorted[rank] == center);
    let lo = sorted[..rank].partition_point(|&v| v < center - radius);
    let hi = rank + sorted[rank..].partition_point(|&v| v <= center + radius);
    hi - lo
}

/// Number of values exactly equal to the one at `rank`.
pub(crate) fn count_equal_at(sorted: &[f64], rank: usize, center: f64) -> usize {
    count_within_at(sorted, rank, center, 0.0)
}

/// Counts points within a radius of a centre along one marginal, in
/// `O(log n)` per query, over a pre-sorted copy of the coordinates.
#[derive(Debug, Clone)]
pub struct MarginalCounter {
    sorted: Vec<f64>,
}

impl MarginalCounter {
    /// Builds a counter over the given coordinates (need not be sorted).
    #[must_use]
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of points `z` with `|z − center| < radius` (strict), including
    /// any points equal to the centre itself.
    #[must_use]
    pub fn count_strictly_within(&self, center: f64, radius: f64) -> usize {
        count_strictly_within_sorted(&self.sorted, center, radius)
    }

    /// Number of points `z` with `|z − center| <= radius`, including points
    /// equal to the centre.
    #[must_use]
    pub fn count_within(&self, center: f64, radius: f64) -> usize {
        count_within_sorted(&self.sorted, center, radius)
    }

    /// Number of points exactly equal to the centre (within `tolerance`).
    #[must_use]
    pub fn count_equal(&self, center: f64, tolerance: f64) -> usize {
        self.count_within(center, tolerance)
    }

    /// Total number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if there are no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Sort-once views.
// ---------------------------------------------------------------------------

/// X-sorted view of a joint `(x, y)` sample: the index order, each point's
/// rank, and both coordinate columns gathered into x-sorted layout so the
/// neighbour scan reads contiguous memory. All buffers are reused across
/// [`prepare`](Self::prepare) calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedJoint {
    keys: Vec<(u64, u32)>,
    pos: Vec<usize>,
    x_by_rank: Vec<f64>,
    y_by_rank: Vec<f64>,
}

impl SortedJoint {
    /// Rebuilds the view for a new sample, reusing the allocations.
    pub(crate) fn prepare(&mut self, xs: &[f64], ys: &[f64]) {
        assert_eq!(
            xs.len(),
            ys.len(),
            "coordinate slices must have equal length"
        );
        let n = xs.len();
        sort_order_keys(&mut self.keys, xs);
        self.pos.clear();
        self.pos.resize(n, 0);
        self.x_by_rank.clear();
        self.y_by_rank.clear();
        for (p, &(_, i)) in self.keys.iter().enumerate() {
            let i = i as usize;
            self.pos[i] = p;
            self.x_by_rank.push(xs[i]);
            self.y_by_rank.push(ys[i]);
        }
    }

    /// Chebyshev k-th-NN distances into `out`, in original index order
    /// (the two-sided scan over the x-sorted arrays).
    ///
    /// # Panics
    /// Panics if `k == 0` or `k >= n`.
    pub(crate) fn kth_nn_distances_into(&self, k: usize, out: &mut Vec<f64>) {
        let n = self.pos.len();
        assert!(k >= 1, "k must be at least 1");
        assert!(
            k < n,
            "k ({k}) must be smaller than the number of points ({n})"
        );
        blocked::chebyshev_kth_all(&self.x_by_rank, &self.y_by_rank, &self.keys, k, out);
    }

    /// Strict-radius count on the **x marginal** for point `i` (the x-sorted
    /// copy doubles as the sorted x marginal). `radius` must be positive.
    pub(crate) fn x_count_strictly_within(&self, i: usize, radius: f64) -> usize {
        let rank = self.pos[i];
        count_strictly_within_at(&self.x_by_rank, rank, self.x_by_rank[rank], radius)
    }

    /// Number of points sharing point `i`'s exact x value.
    pub(crate) fn x_count_equal(&self, i: usize) -> usize {
        let rank = self.pos[i];
        count_equal_at(&self.x_by_rank, rank, self.x_by_rank[rank])
    }
}

/// Value-sorted view of one marginal with per-point ranks, so each count
/// query starts from the point's own position instead of searching the full
/// range twice. Buffers are reused across [`prepare`](Self::prepare) calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankedMarginal {
    keys: Vec<(u64, u32)>,
    rank: Vec<usize>,
    sorted: Vec<f64>,
}

impl RankedMarginal {
    /// Rebuilds the view for a new sample, reusing the allocations.
    pub(crate) fn prepare(&mut self, values: &[f64]) {
        let n = values.len();
        sort_order_keys(&mut self.keys, values);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.sorted.clear();
        for (p, &(_, i)) in self.keys.iter().enumerate() {
            let i = i as usize;
            self.rank[i] = p;
            self.sorted.push(values[i]);
        }
    }

    /// Strict-radius count around point `i`'s value (`radius > 0`).
    pub(crate) fn count_strictly_within(&self, i: usize, radius: f64) -> usize {
        let rank = self.rank[i];
        count_strictly_within_at(&self.sorted, rank, self.sorted[rank], radius)
    }

    /// Inclusive-radius count around point `i`'s value (`radius >= 0`).
    pub(crate) fn count_within(&self, i: usize, radius: f64) -> usize {
        let rank = self.rank[i];
        count_within_at(&self.sorted, rank, self.sorted[rank], radius)
    }

    /// Number of points sharing point `i`'s exact value.
    pub(crate) fn count_equal(&self, i: usize) -> usize {
        let rank = self.rank[i];
        count_equal_at(&self.sorted, rank, self.sorted[rank])
    }

    /// Point indices in ascending value order, each with its value.
    pub(crate) fn sorted_points(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.keys
            .iter()
            .zip(&self.sorted)
            .map(|(&(_, i), &v)| (i as usize, v))
    }

    /// 1-D k-th-NN distances in original index order (window-scan kernel
    /// over the sorted copy).
    ///
    /// # Panics
    /// Panics if `k == 0` or `k >= n`.
    pub(crate) fn kth_nn_distances(&self, k: usize) -> Vec<f64> {
        let n = self.sorted.len();
        assert!(k >= 1, "k must be at least 1");
        assert!(
            k < n,
            "k ({k}) must be smaller than the number of points ({n})"
        );
        let mut out = Vec::new();
        blocked::kth_1d_all(&self.sorted, &self.keys, k, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Public kernel entry points.
// ---------------------------------------------------------------------------

/// For each point `(xs[i], ys[i])`, returns the Chebyshev distance to its
/// `k`-th nearest neighbour among the *other* points.
///
/// Ties are handled naturally: if several points coincide with the query, the
/// returned distance can be `0.0` (MixedKSG relies on this).
///
/// # Panics
/// Panics if `xs.len() != ys.len()`, if `k == 0`, or if `k >= xs.len()`.
#[must_use]
pub fn kth_nn_distances_chebyshev(xs: &[f64], ys: &[f64], k: usize) -> Vec<f64> {
    let mut joint = SortedJoint::default();
    joint.prepare(xs, ys);
    let mut out = Vec::new();
    joint.kth_nn_distances_into(k, &mut out);
    out
}

/// For each value, the distance to its `k`-th nearest neighbour among the
/// other values of the same (1-dimensional) sample.
///
/// # Panics
/// Panics if `k == 0` or `k >= values.len()`.
#[must_use]
pub fn kth_nn_distances_1d(values: &[f64], k: usize) -> Vec<f64> {
    let mut marginal = RankedMarginal::default();
    marginal.prepare(values);
    marginal.kth_nn_distances(k)
}

/// Brute-force reference for the Chebyshev k-NN distances (used in tests and
/// kept public for verification experiments).
#[must_use]
pub fn kth_nn_distances_chebyshev_bruteforce(xs: &[f64], ys: &[f64], k: usize) -> Vec<f64> {
    let n = xs.len();
    assert!(k >= 1 && k < n);
    (0..n)
        .map(|i| {
            let mut dists: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (xs[i] - xs[j]).abs().max((ys[i] - ys[j]).abs()))
                .collect();
            dists.sort_unstable_by(f64::total_cmp);
            dists[k - 1]
        })
        .collect()
}

/// The greedy scalar Chebyshev expansion (one candidate per iteration, the
/// nearer side first, gathering through the index order), kept as a
/// **bit-for-bit oracle** for the two-sided scan in tests and verification
/// experiments.
#[must_use]
pub fn kth_nn_distances_chebyshev_scalar(xs: &[f64], ys: &[f64], k: usize) -> Vec<f64> {
    assert_eq!(
        xs.len(),
        ys.len(),
        "coordinate slices must have equal length"
    );
    let n = xs.len();
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k < n,
        "k ({k}) must be smaller than the number of points ({n})"
    );

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut pos = vec![0usize; n];
    for (p, &idx) in order.iter().enumerate() {
        pos[idx] = p;
    }

    joinmi_par::par_map_index_with(
        n,
        || BoundedMaxHeap::new(k),
        |heap, i| {
            let p = pos[i];
            let (xi, yi) = (xs[i], ys[i]);
            heap.clear();

            let mut left = p;
            let mut right = p + 1;
            loop {
                let threshold = heap.threshold();
                let left_dx = if left > 0 {
                    (xi - xs[order[left - 1]]).abs()
                } else {
                    f64::INFINITY
                };
                let right_dx = if right < n {
                    (xs[order[right]] - xi).abs()
                } else {
                    f64::INFINITY
                };

                if left_dx > threshold && right_dx > threshold {
                    break;
                }
                if left_dx == f64::INFINITY && right_dx == f64::INFINITY {
                    break;
                }

                let j = if left_dx <= right_dx {
                    left -= 1;
                    order[left]
                } else {
                    let j = order[right];
                    right += 1;
                    j
                };
                let dist = (xi - xs[j]).abs().max((yi - ys[j]).abs());
                heap.offer(dist);
            }
            heap.max()
        },
    )
}

/// The greedy scalar 1-D expansion (one neighbour at a time), kept as a
/// **bit-for-bit oracle** for the window-scan kernel.
#[must_use]
pub fn kth_nn_distances_1d_scalar(values: &[f64], k: usize) -> Vec<f64> {
    let n = values.len();
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k < n,
        "k ({k}) must be smaller than the number of points ({n})"
    );

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| values[a].total_cmp(&values[b]));

    let by_position = joinmi_par::par_map_index(n, |p| {
        let v = values[order[p]];
        let mut left = p;
        let mut right = p + 1;
        let mut kth = 0.0f64;
        for _ in 0..k {
            let left_d = if left > 0 {
                (v - values[order[left - 1]]).abs()
            } else {
                f64::INFINITY
            };
            let right_d = if right < n {
                (values[order[right]] - v).abs()
            } else {
                f64::INFINITY
            };
            if left_d <= right_d {
                kth = left_d;
                left -= 1;
            } else {
                kth = right_d;
                right += 1;
            }
        }
        kth
    });

    let mut result = vec![0.0f64; n];
    for (p, &idx) in order.iter().enumerate() {
        result[idx] = by_position[p];
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_points(seed: u64, n: usize, y_scale: f64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64) / f64::from(u32::MAX)
        };
        let xs: Vec<f64> = (0..n).map(|_| next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next() * y_scale).collect();
        (xs, ys)
    }

    #[test]
    fn marginal_counter_basic() {
        let c = MarginalCounter::new(&[1.0, 2.0, 2.0, 3.0, 10.0]);
        assert_eq!(c.len(), 5);
        // values within the open interval (0.5, 3.5): 1, 2, 2, 3
        assert_eq!(c.count_strictly_within(2.0, 1.5), 4);
        assert_eq!(c.count_within(2.0, 1.0), 4); // 1,2,2,3
        assert_eq!(c.count_strictly_within(2.0, 1.0), 2); // only the two 2s
        assert_eq!(c.count_equal(2.0, 0.0), 2);
        assert_eq!(c.count_strictly_within(100.0, 5.0), 0);
        assert_eq!(c.count_strictly_within(2.0, 0.0), 0);
    }

    #[test]
    fn rank_hinted_counts_match_full_searches() {
        let (values, _) = lcg_points(0xabcd, 400, 1.0);
        // Quantize to force heavy ties alongside distinct values.
        let values: Vec<f64> = values.iter().map(|v| (v * 25.0).floor() / 25.0).collect();
        let counter = MarginalCounter::new(&values);
        let mut marginal = RankedMarginal::default();
        marginal.prepare(&values);
        for i in (0..values.len()).step_by(7) {
            for radius in [1e-9, 0.04, 0.3, 2.0] {
                assert_eq!(
                    marginal.count_strictly_within(i, radius),
                    counter.count_strictly_within(values[i], radius),
                    "strict i={i} r={radius}"
                );
                assert_eq!(
                    marginal.count_within(i, radius),
                    counter.count_within(values[i], radius),
                    "within i={i} r={radius}"
                );
            }
            assert_eq!(
                marginal.count_equal(i),
                counter.count_equal(values[i], 0.0),
                "equal i={i}"
            );
        }
    }

    #[test]
    fn knn_1d_simple() {
        let vals = [0.0, 1.0, 3.0, 7.0];
        let d1 = kth_nn_distances_1d(&vals, 1);
        assert_eq!(d1, vec![1.0, 1.0, 2.0, 4.0]);
        let d2 = kth_nn_distances_1d(&vals, 2);
        assert_eq!(d2, vec![3.0, 2.0, 3.0, 6.0]);
    }

    #[test]
    fn knn_1d_with_ties() {
        let vals = [5.0, 5.0, 5.0, 6.0];
        let d = kth_nn_distances_1d(&vals, 2);
        assert_eq!(d, vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn knn_1d_matches_scalar_oracle_bitwise() {
        let (values, _) = lcg_points(0xfeed, 900, 1.0);
        for k in [1usize, 2, 5, 16] {
            let scan = kth_nn_distances_1d(&values, k);
            let scalar = kth_nn_distances_1d_scalar(&values, k);
            assert!(
                scan.iter()
                    .zip(&scalar)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "k={k}"
            );
        }
    }

    #[test]
    fn chebyshev_matches_bruteforce_on_random_points() {
        let (xs, ys) = lcg_points(0x1234_5678, 300, 10.0);
        let n = xs.len();
        for k in [1, 3, 5] {
            let fast = kth_nn_distances_chebyshev(&xs, &ys, k);
            let slow = kth_nn_distances_chebyshev_bruteforce(&xs, &ys, k);
            for i in 0..n {
                assert!((fast[i] - slow[i]).abs() < 1e-12, "k={k}, i={i}");
            }
        }
    }

    #[test]
    fn chebyshev_matches_scalar_oracle_bitwise() {
        let (xs, ys) = lcg_points(0x5eed, 700, 3.0);
        for k in [1usize, 3, 7, 20] {
            let scan = kth_nn_distances_chebyshev(&xs, &ys, k);
            let scalar = kth_nn_distances_chebyshev_scalar(&xs, &ys, k);
            assert!(
                scan.iter()
                    .zip(&scalar)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "k={k}"
            );
        }
    }

    #[test]
    fn chebyshev_blocked_handles_heavy_ties_bitwise() {
        // Mixture columns from non-unique joins: few distinct values, many
        // exact copies, so many points have ρ_i = 0.
        let (us, vs) = lcg_points(0x71e5, 600, 1.0);
        let xs: Vec<f64> = us.iter().map(|u| (u * 6.0).floor()).collect();
        let ys: Vec<f64> = vs.iter().map(|v| (v * 4.0).floor()).collect();
        for k in [1usize, 3, 8] {
            let scan = kth_nn_distances_chebyshev(&xs, &ys, k);
            let scalar = kth_nn_distances_chebyshev_scalar(&xs, &ys, k);
            assert!(
                scan.iter()
                    .zip(&scalar)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "k={k}"
            );
            assert!(scan.contains(&0.0), "ties must collapse ρ");
        }
    }

    #[test]
    fn chebyshev_with_duplicate_points_gives_zero() {
        let xs = [1.0, 1.0, 1.0, 2.0];
        let ys = [5.0, 5.0, 5.0, 9.0];
        let d = kth_nn_distances_chebyshev(&xs, &ys, 2);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 0.0);
        assert_eq!(d[2], 0.0);
        assert!(d[3] > 0.0);
    }

    #[test]
    fn parallel_distances_are_bitwise_equal_across_thread_counts() {
        let (xs, ys) = lcg_points(0x51ce, 800, 4.0);
        for k in [1usize, 3, 7] {
            let seq_2d = joinmi_par::with_threads(1, || kth_nn_distances_chebyshev(&xs, &ys, k));
            let par_2d = joinmi_par::with_threads(4, || kth_nn_distances_chebyshev(&xs, &ys, k));
            assert_eq!(seq_2d, par_2d, "2d k={k}");
            let seq_1d = joinmi_par::with_threads(1, || kth_nn_distances_1d(&xs, k));
            let par_1d = joinmi_par::with_threads(4, || kth_nn_distances_1d(&xs, k));
            assert_eq!(seq_1d, par_1d, "1d k={k}");
        }
    }

    #[test]
    fn prepared_views_are_reusable_across_samples() {
        // A workspace-owned view must forget the previous (larger) sample
        // completely when re-prepared.
        let mut joint = SortedJoint::default();
        let mut marginal = RankedMarginal::default();
        let (xs_a, ys_a) = lcg_points(1, 120, 2.0);
        let mut dists = Vec::new();
        joint.prepare(&xs_a, &ys_a);
        marginal.prepare(&ys_a);
        joint.kth_nn_distances_into(3, &mut dists);

        let (xs_b, ys_b) = lcg_points(2, 40, 1.0);
        joint.prepare(&xs_b, &ys_b);
        marginal.prepare(&ys_b);
        joint.kth_nn_distances_into(2, &mut dists);
        assert_eq!(dists, kth_nn_distances_chebyshev(&xs_b, &ys_b, 2));
        assert_eq!(marginal.kth_nn_distances(2), kth_nn_distances_1d(&ys_b, 2));
        let counter = MarginalCounter::new(&ys_b);
        for (i, &v) in ys_b.iter().enumerate() {
            assert_eq!(
                marginal.count_within(i, 0.25),
                counter.count_within(v, 0.25)
            );
        }
    }

    #[test]
    #[should_panic(expected = "k")]
    fn chebyshev_rejects_k_too_large() {
        let _ = kth_nn_distances_chebyshev(&[1.0, 2.0], &[1.0, 2.0], 2);
    }

    #[test]
    fn marginal_counter_empty() {
        let c = MarginalCounter::new(&[]);
        assert!(c.is_empty());
        assert_eq!(c.count_within(0.0, 1.0), 0);
    }
}
