//! The neighbour-search kernels over sorted arrays.
//!
//! * **Joint (Chebyshev) search: a two-sided scan.** The sample is laid out
//!   sorted by x, y gathered into the same order ([`super::SortedJoint`]).
//!   For the point at sorted position `p`, the scan seeds its top-k with the
//!   `k` nearest positions (a window of `k + 1` positions around `p`), then
//!   walks left until the x-distance alone reaches the current k-th best,
//!   then right under the same rule. Every step reads contiguous memory and
//!   makes one predictable compare; there is no per-candidate choice of
//!   side, and a candidate is offered only if its y-distance is below the
//!   k-th best too.
//! * **1-D search: a window scan.** In one dimension the k nearest neighbours
//!   of a sorted sample form a contiguous window around the query, so the
//!   k-th distance is a min-of-max over the `k + 1` windows that contain it —
//!   branch-free and over contiguous memory.
//!
//! Both kernels are exact. The k-th smallest element of a distance multiset
//! is unique, and the scan only skips a candidate whose x-distance — a lower
//! bound on its Chebyshev distance, and non-decreasing away from `p` — or
//! whose y-distance is already at least the current k-th best, which never
//! rises. So every candidate that could lower the k-th
//! best is offered, whatever the order, and the results are **bit-for-bit
//! identical** to the scalar oracles
//! ([`super::kth_nn_distances_chebyshev_scalar`],
//! [`super::kth_nn_distances_1d_scalar`]) and the brute-force reference,
//! pinned by the tests in [`super`] and the `knn_*` proptests.
//!
//! The production neighbour counts (`DEFAULT_K` = 3) keep their top-k in a
//! register-resident sorted array ([`SmallTopK`]); larger `k` use the bounded
//! max-heap. Above [`PAR_CUTOFF`] points the per-point loop is spread over
//! [`joinmi_par`] workers, output in input order.

use super::heap::{BoundedMaxHeap, KthAccumulator, SmallTopK, SMALL_TOP_K_MAX};

/// Per-point loops shorter than this run sequentially — below it, the scoped
/// spawn + chunk coordination of `joinmi_par` costs more than the work. The
/// per-item code is identical on both paths, so the cutoff never changes
/// results.
const PAR_CUTOFF: usize = 512;

/// Maps `f(scratch, p)` over the sorted positions `p` in `0..n`, writing
/// each result to `out[index_of(p)]`. Sequential below [`PAR_CUTOFF`], across
/// workers above it. Walking positions in order keeps consecutive searches
/// on overlapping, cache-resident windows.
fn map_positions_into<S, I, F>(
    n: usize,
    index_of: impl Fn(usize) -> usize,
    out: &mut Vec<f64>,
    init: I,
    f: F,
) where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> f64 + Sync,
{
    out.clear();
    out.resize(n, 0.0);
    if n < PAR_CUTOFF {
        let mut scratch = init();
        for p in 0..n {
            out[index_of(p)] = f(&mut scratch, p);
        }
    } else {
        let by_position = joinmi_par::par_map_index_with(n, init, f);
        for (p, d) in by_position.into_iter().enumerate() {
            out[index_of(p)] = d;
        }
    }
}

/// The Chebyshev k-th-NN distance of the point at sorted position `p`
/// (`k < n`), over `xs` (ascending) and `ys` in the same order.
fn chebyshev_kth_at<A: KthAccumulator>(
    xs: &[f64],
    ys: &[f64],
    p: usize,
    k: usize,
    acc: &mut A,
) -> f64 {
    let n = xs.len();
    let (xi, yi) = (xs[p], ys[p]);
    acc.reset();

    // Seed with the window [lo, hi] of k + 1 positions around p, so the
    // accumulator is full before the walks start.
    let lo = p.saturating_sub(k.div_ceil(2)).min(n - 1 - k);
    let hi = lo + k;
    for j in (lo..p).chain(p + 1..=hi) {
        acc.offer((xi - xs[j]).abs().max((yi - ys[j]).abs()));
    }

    // Everything further out on a side is at least as far in x as the first
    // candidate pruned there, so one failed compare ends the side. A distance
    // at or above the full accumulator's k-th best cannot change it, so only
    // a candidate that is also nearer in y is offered.
    let mut kth = acc.threshold();
    let left = xs[..lo].iter().zip(&ys[..lo]).rev();
    for (&xj, &yj) in left {
        let dx = xi - xj;
        if dx >= kth {
            break;
        }
        let dy = (yi - yj).abs();
        if dy < kth {
            acc.offer(dx.abs().max(dy));
            kth = acc.threshold();
        }
    }
    let right = xs[hi + 1..].iter().zip(&ys[hi + 1..]);
    for (&xj, &yj) in right {
        let dx = xj - xi;
        if dx >= kth {
            break;
        }
        let dy = (yi - yj).abs();
        if dy < kth {
            acc.offer(dx.abs().max(dy));
            kth = acc.threshold();
        }
    }
    kth
}

/// Chebyshev k-th-NN distances for every point into `out`, in **original
/// index order**. `xs` is the x column in ascending order, `ys` the y column
/// in the same order, and `order[p].1` the index of the point at sorted
/// position `p`.
///
/// Small `k` (every production call: `DEFAULT_K` = 3) uses the register
/// top-k accumulator; larger `k` the bounded max-heap. Both keep the k
/// smallest offered distances, so the choice never changes the result.
pub(crate) fn chebyshev_kth_all(
    xs: &[f64],
    ys: &[f64],
    order: &[(u64, u32)],
    k: usize,
    out: &mut Vec<f64>,
) {
    let n = order.len();
    let index_of = |p: usize| order[p].1 as usize;
    if k <= SMALL_TOP_K_MAX {
        map_positions_into(
            n,
            index_of,
            out,
            || SmallTopK::new(k),
            |acc, p| chebyshev_kth_at(xs, ys, p, k, acc),
        );
    } else {
        map_positions_into(
            n,
            index_of,
            out,
            || BoundedMaxHeap::new(k),
            |acc, p| chebyshev_kth_at(xs, ys, p, k, acc),
        );
    }
}

/// The 1-D k-th-NN distance of the value at sorted position `p` (`k < n`):
/// the smallest, over the windows `[s, s + k]` containing `p`, of the
/// farther window end's distance.
#[inline]
pub(crate) fn kth_1d_at(sorted: &[f64], p: usize, k: usize) -> f64 {
    let n = sorted.len();
    let v = sorted[p];
    let lo = p.saturating_sub(k);
    let hi = p.min(n - 1 - k);
    let mut best = f64::INFINITY;
    for s in lo..=hi {
        let d = (v - sorted[s]).max(sorted[s + k] - v);
        best = best.min(d);
    }
    best
}

/// 1-D k-th-NN distances for every value into `out`, in **original index
/// order**: `sorted` holds the values ascending and `order[p].1` the index of
/// the value at sorted position `p`.
pub(crate) fn kth_1d_all(sorted: &[f64], order: &[(u64, u32)], k: usize, out: &mut Vec<f64>) {
    map_positions_into(
        sorted.len(),
        |p| order[p].1 as usize,
        out,
        || (),
        |(), p| kth_1d_at(sorted, p, k),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_k_and_heap_accumulators_agree_through_the_kernel() {
        let mut state = 0xacc_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64) / f64::from(u32::MAX)
        };
        let n = 257;
        let mut xs: Vec<f64> = (0..n).map(|_| next()).collect();
        xs.sort_unstable_by(f64::total_cmp);
        let ys: Vec<f64> = (0..n).map(|_| next() * 2.0).collect();
        for k in 1..=SMALL_TOP_K_MAX {
            let mut small = SmallTopK::new(k);
            let mut heap = BoundedMaxHeap::new(k);
            for p in (0..n).step_by(13).chain([n - 1]) {
                let a = chebyshev_kth_at(&xs, &ys, p, k, &mut small);
                let b = chebyshev_kth_at(&xs, &ys, p, k, &mut heap);
                assert_eq!(a.to_bits(), b.to_bits(), "k={k}, p={p}");
            }
        }
    }

    #[test]
    fn seed_window_stays_inside_the_array() {
        // k = n − 1: the seed window is the whole array for every p, and
        // neither walk has anything left to visit.
        let xs = [0.0, 1.0, 3.0, 7.0];
        let ys = [0.0, 5.0, 0.0, 0.0];
        let mut heap = BoundedMaxHeap::new(3);
        let want = [7.0, 6.0, 5.0, 7.0];
        for (p, &w) in want.iter().enumerate() {
            assert_eq!(chebyshev_kth_at(&xs, &ys, p, 3, &mut heap), w, "p={p}");
        }
    }

    #[test]
    fn kth_1d_window_scan_handles_boundaries() {
        let sorted = [0.0, 1.0, 3.0, 7.0];
        // k = 1: nearest-neighbour gaps.
        assert_eq!(kth_1d_at(&sorted, 0, 1), 1.0);
        assert_eq!(kth_1d_at(&sorted, 3, 1), 4.0);
        // k = 3: the window is the whole array.
        assert_eq!(kth_1d_at(&sorted, 0, 3), 7.0);
        assert_eq!(kth_1d_at(&sorted, 2, 3), 4.0);
    }
}
