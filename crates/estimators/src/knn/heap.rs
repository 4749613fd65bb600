//! Top-k distance accumulators behind the Chebyshev window expansion.
//!
//! Two interchangeable implementations of [`KthAccumulator`]:
//!
//! * [`SmallTopK`] — a sorted array of at most 4 distances that lives
//!   entirely in registers; used for the small `k` every production call
//!   site passes (`DEFAULT_K` = 3). Insertion is a couple of compares, and
//!   reading the pruning threshold is a register read.
//! * [`BoundedMaxHeap`] — the general-`k` bounded max-heap.
//!
//! Both keep the k smallest distances offered, and the k-th smallest value
//! of a multiset is unique, so the two produce bit-identical results for any
//! offer order — the property the neighbour scan relies on.

/// Keeps the k smallest distances offered and exposes the current k-th best
/// as a pruning threshold. Implementations are reused across query points via
/// [`reset`](Self::reset).
pub(crate) trait KthAccumulator {
    /// Empties the accumulator for the next query point.
    fn reset(&mut self);
    /// Current k-th best distance, or `+inf` while fewer than k are held.
    fn threshold(&self) -> f64;
    /// Offers a candidate distance, keeping only the k smallest.
    fn offer(&mut self, dist: f64);
}

/// Largest `k` served by [`SmallTopK`].
pub(crate) const SMALL_TOP_K_MAX: usize = 4;

/// Register-resident top-k for `k <= 4`: a sorted insertion array (ascending,
/// the k-th best last). No heap traffic, no sift loops — `offer` is one
/// compare in the common rejected case.
#[derive(Debug, Clone)]
pub(crate) struct SmallTopK {
    k: usize,
    filled: usize,
    top: [f64; SMALL_TOP_K_MAX],
}

impl SmallTopK {
    pub(crate) fn new(k: usize) -> Self {
        debug_assert!((1..=SMALL_TOP_K_MAX).contains(&k));
        Self {
            k,
            filled: 0,
            top: [f64::INFINITY; SMALL_TOP_K_MAX],
        }
    }
}

impl KthAccumulator for SmallTopK {
    #[inline]
    fn reset(&mut self) {
        self.filled = 0;
        self.top = [f64::INFINITY; SMALL_TOP_K_MAX];
    }

    #[inline]
    fn threshold(&self) -> f64 {
        if self.filled == self.k {
            self.top[self.k - 1]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn offer(&mut self, dist: f64) {
        if self.filled < self.k {
            let mut i = self.filled;
            while i > 0 && self.top[i - 1] > dist {
                self.top[i] = self.top[i - 1];
                i -= 1;
            }
            self.top[i] = dist;
            self.filled += 1;
        } else if dist < self.top[self.k - 1] {
            let mut i = self.k - 1;
            while i > 0 && self.top[i - 1] > dist {
                self.top[i] = self.top[i - 1];
                i -= 1;
            }
            self.top[i] = dist;
        }
    }
}

#[cfg(test)]
impl SmallTopK {
    /// The largest distance held: the k-th best once full.
    fn result(&self) -> f64 {
        if self.filled == 0 {
            f64::INFINITY
        } else {
            self.top[self.filled - 1]
        }
    }
}

/// A bounded max-heap of the `k` smallest distances seen so far, backed by a
/// plain `Vec<f64>` that is **reused across points** (cleared, not dropped).
///
/// Replaces the former per-point `BinaryHeap<OrdF64>`: no wrapper type, no
/// allocation per query point, and the root is always the current k-th best
/// distance (the pruning threshold). The k-th smallest value of a multiset is
/// unique, so results are identical to the `BinaryHeap` implementation — and
/// independent of the order in which candidates are offered, which is what
/// lets the neighbour scan visit candidates in any order.
#[derive(Debug, Clone)]
pub(crate) struct BoundedMaxHeap {
    k: usize,
    heap: Vec<f64>,
}

impl BoundedMaxHeap {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k),
        }
    }

    /// Empties the heap for the next query point, keeping the allocation.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Current k-th best distance: the maximum kept, or infinity while the
    /// heap is not yet full.
    #[inline]
    pub(crate) fn threshold(&self) -> f64 {
        if self.is_full() {
            self.heap[0]
        } else {
            f64::INFINITY
        }
    }

    /// The final answer for a point: the largest of the k kept distances.
    #[inline]
    pub(crate) fn max(&self) -> f64 {
        self.heap.first().copied().unwrap_or(f64::INFINITY)
    }

    /// Offers a candidate distance, keeping only the k smallest.
    #[inline]
    pub(crate) fn offer(&mut self, dist: f64) {
        if !self.is_full() {
            self.heap.push(dist);
            self.sift_up(self.heap.len() - 1);
        } else if dist < self.heap[0] {
            self.heap[0] = dist;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] <= self.heap[parent] {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let largest_child = if right < n && self.heap[right] > self.heap[left] {
                right
            } else {
                left
            };
            if self.heap[largest_child] <= self.heap[i] {
                break;
            }
            self.heap.swap(i, largest_child);
            i = largest_child;
        }
    }
}

impl KthAccumulator for BoundedMaxHeap {
    #[inline]
    fn reset(&mut self) {
        self.clear();
    }

    #[inline]
    fn threshold(&self) -> f64 {
        BoundedMaxHeap::threshold(self)
    }

    #[inline]
    fn offer(&mut self, dist: f64) {
        BoundedMaxHeap::offer(self, dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_max_heap_keeps_k_smallest() {
        let mut heap = BoundedMaxHeap::new(3);
        assert_eq!(heap.max(), f64::INFINITY);
        assert_eq!(heap.threshold(), f64::INFINITY);
        for d in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5] {
            heap.offer(d);
        }
        // k smallest of the stream are {0.5, 1.0, 2.0}: max (= k-th best) 2.0.
        assert_eq!(heap.max(), 2.0);
        assert_eq!(heap.threshold(), 2.0);
        heap.clear();
        heap.offer(9.0);
        assert_eq!(heap.max(), 9.0);
        assert!(!heap.is_full());
        assert_eq!(heap.threshold(), f64::INFINITY);
    }

    #[test]
    fn offer_order_does_not_change_the_kth_best() {
        let distances = [3.0, 0.25, 7.0, 0.25, 1.5, 6.0, 0.75];
        let mut forward = BoundedMaxHeap::new(4);
        let mut backward = BoundedMaxHeap::new(4);
        for &d in &distances {
            forward.offer(d);
        }
        for &d in distances.iter().rev() {
            backward.offer(d);
        }
        assert_eq!(forward.max().to_bits(), backward.max().to_bits());
    }

    #[test]
    fn small_top_k_matches_heap_on_random_streams() {
        let mut state = 0xd1ce_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) as f64) / f64::from(u32::MAX)
        };
        for k in 1..=SMALL_TOP_K_MAX {
            let mut small = SmallTopK::new(k);
            let mut heap = BoundedMaxHeap::new(k);
            for round in 0..3 {
                small.reset();
                KthAccumulator::reset(&mut heap);
                for _ in 0..(20 + round * 37) {
                    let d = next();
                    small.offer(d);
                    KthAccumulator::offer(&mut heap, d);
                }
                assert_eq!(small.result().to_bits(), heap.max().to_bits(), "k={k}");
                assert_eq!(
                    small.threshold().to_bits(),
                    BoundedMaxHeap::threshold(&heap).to_bits(),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn small_top_k_partial_fill() {
        let mut small = SmallTopK::new(3);
        assert_eq!(small.result(), f64::INFINITY);
        assert_eq!(small.threshold(), f64::INFINITY);
        small.offer(2.0);
        small.offer(1.0);
        // Not yet full: threshold stays infinite, result is the worst held.
        assert_eq!(small.threshold(), f64::INFINITY);
        assert_eq!(small.result(), 2.0);
        small.offer(3.0);
        assert_eq!(small.threshold(), 3.0);
        assert_eq!(small.result(), 3.0);
        small.offer(0.5);
        assert_eq!(small.result(), 2.0);
    }
}
