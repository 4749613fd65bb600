//! Bounded KMV distinct-count sketch.
//!
//! [`DistinctSketch`] keeps the `k` **smallest distinct** digests observed so
//! far — the classic k-minimum-values estimator, the same selection principle
//! as [`BoundedMinSet`](crate::BoundedMinSet) specialised to deduplicated
//! digests. Under capacity the count is exact; once full, the `k`-th minimum
//! value estimates the distinct cardinality as `(k - 1) / U(k)` where `U(k)`
//! is the `k`-th smallest digest normalised to the unit interval.
//!
//! The repository uses one sketch per profiled column so that
//! `append_rows` can keep per-column distinct counts **fresh forever** in
//! `O(chunk)` time and `O(k)` space, instead of either retaining every value
//! ever seen (unbounded) or letting the counts go stale (the PR 5 trade-off
//! this module removes).
//!
//! # Determinism
//!
//! The state is a pure function of the *set* of digests observed — insertion
//! order never matters — so an in-memory ingest-plus-append, a
//! load-then-append, and a single bulk ingest of the concatenated rows all
//! produce bit-identical sketch state and estimates. The estimator itself is
//! integer-only (`u128` widening, no floats), so estimates are reproducible
//! across platforms.

/// A bounded distinct-count sketch over 64-bit digests (KMV estimator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistinctSketch {
    capacity: usize,
    /// The `≤ capacity` smallest distinct digests seen so far, strictly
    /// increasing: one allocation, and the order the file stores them in.
    digests: Vec<u64>,
}

impl DistinctSketch {
    /// Creates an empty sketch keeping at most `capacity` distinct digests.
    /// A capacity of 0 is clamped to 1 (the estimator needs one minimum).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            digests: Vec::new(),
        }
    }

    /// The sketch's capacity (`k` of the KMV estimator).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of digests currently kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.digests.len()
    }

    /// `true` when no digest has been observed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// `true` once the sketch holds `capacity` digests (estimates switch from
    /// exact to approximate).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.digests.len() >= self.capacity
    }

    /// Observes one digest. Returns `true` when the kept set changed. On a
    /// full sketch a digest not below the current `k`-th minimum — the common
    /// case once full — costs one comparison; otherwise one binary search,
    /// and an insert that shifts at most `k` digests.
    pub fn observe(&mut self, digest: u64) -> bool {
        let full = self.is_full();
        if full && self.digests.last().is_some_and(|&max| digest >= max) {
            return false;
        }
        match self.digests.binary_search(&digest) {
            Ok(_) => false,
            Err(at) => {
                if full {
                    self.digests.pop();
                }
                self.digests.insert(at, digest);
                true
            }
        }
    }

    /// The estimated number of distinct digests observed: exact while under
    /// capacity, `(k - 1) / U(k)` once full (integer arithmetic, never less
    /// than `k`).
    #[must_use]
    pub fn estimate(&self) -> usize {
        let k = self.digests.len();
        if k < self.capacity {
            return k;
        }
        let kth = *self.digests.last().expect("full sketch");
        // (k - 1) / ((kth + 1) / 2^64)  ==  (k - 1) * 2^64 / (kth + 1),
        // computed in u128 so the scale never overflows.
        let est = ((k as u128 - 1) << 64) / (u128::from(kth) + 1);
        usize::try_from(est).unwrap_or(usize::MAX).max(k)
    }

    /// The kept digests in increasing order (persistence).
    pub fn digests(&self) -> impl Iterator<Item = u64> + '_ {
        self.digests.iter().copied()
    }

    /// Rebuilds a sketch from persisted parts. `digests` must be strictly
    /// increasing and at most `capacity` long (the decoder enforces both, so
    /// encode(decode(x)) == x).
    #[must_use]
    pub fn from_parts(capacity: usize, digests: Vec<u64>) -> Self {
        debug_assert!(digests.len() <= capacity.max(1));
        debug_assert!(digests.windows(2).all(|pair| pair[0] < pair[1]));
        Self {
            capacity: capacity.max(1),
            digests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The `BTreeSet` sketch the sorted vector replaced, kept as the oracle:
    /// dedup, ordered iteration and max eviction straight from the set.
    struct Reference {
        capacity: usize,
        digests: BTreeSet<u64>,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Self {
                capacity: capacity.max(1),
                digests: BTreeSet::new(),
            }
        }

        fn observe(&mut self, digest: u64) -> bool {
            if self.digests.contains(&digest) {
                return false;
            }
            if self.digests.len() < self.capacity {
                self.digests.insert(digest);
                return true;
            }
            let &max = self.digests.last().expect("full sketch");
            if digest < max {
                self.digests.remove(&max);
                self.digests.insert(digest);
                true
            } else {
                false
            }
        }

        fn is_full(&self) -> bool {
            self.digests.len() >= self.capacity
        }

        fn estimate(&self) -> usize {
            let k = self.digests.len();
            if k < self.capacity {
                return k;
            }
            let kth = *self.digests.last().expect("full sketch");
            let est = ((k as u128 - 1) << 64) / (u128::from(kth) + 1);
            usize::try_from(est).unwrap_or(usize::MAX).max(k)
        }
    }

    fn digest(i: u64) -> u64 {
        // Cheap SplitMix64-style scramble: well-spread, deterministic.
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn exact_under_capacity() {
        let mut s = DistinctSketch::new(64);
        for i in 0..40 {
            s.observe(digest(i));
            s.observe(digest(i)); // duplicates never count twice
        }
        assert_eq!(s.estimate(), 40);
        assert!(!s.is_full());
    }

    #[test]
    fn estimate_is_close_once_full() {
        for n in [500usize, 5_000, 50_000] {
            let mut s = DistinctSketch::new(256);
            for i in 0..n as u64 {
                s.observe(digest(i));
            }
            assert!(s.is_full());
            let est = s.estimate() as f64;
            let err = (est - n as f64).abs() / n as f64;
            // KMV standard error is ~1/sqrt(k) ≈ 6.3% at k = 256; allow 4σ.
            assert!(err < 0.25, "n={n} est={est} err={err}");
        }
    }

    #[test]
    fn state_is_order_independent() {
        let mut forward = DistinctSketch::new(32);
        let mut backward = DistinctSketch::new(32);
        for i in 0..1000 {
            forward.observe(digest(i));
        }
        for i in (0..1000).rev() {
            backward.observe(digest(i));
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.estimate(), backward.estimate());
    }

    #[test]
    fn estimate_never_below_kept_count() {
        let mut s = DistinctSketch::new(8);
        for d in [u64::MAX, u64::MAX - 1, u64::MAX - 2] {
            s.observe(d);
        }
        assert_eq!(s.estimate(), 3);
        for i in 0..100 {
            s.observe(digest(i));
        }
        assert!(s.estimate() >= 8);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut s = DistinctSketch::new(0);
        assert_eq!(s.capacity(), 1);
        s.observe(7);
        s.observe(3);
        assert_eq!(s.len(), 1);
        assert!(s.estimate() >= 1);
    }

    #[test]
    fn round_trips_through_parts() {
        let mut s = DistinctSketch::new(16);
        for i in 0..200 {
            s.observe(digest(i));
        }
        let rebuilt = DistinctSketch::from_parts(s.capacity(), s.digests().collect());
        assert_eq!(s, rebuilt);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every observable of the sorted-vector sketch equals the `BTreeSet`
        /// oracle's after every step of a random stream: a small pool of
        /// values gives heavy duplicates, a wide one evictions past full,
        /// and the extremes 0 and `u64::MAX` are in both.
        #[test]
        fn sorted_vector_matches_the_btreeset_oracle(
            capacity in capacities(),
            pool in 1u64..1_000,
            stream in proptest::collection::vec(0u64..1_000, 0..1_500),
        ) {
            let mut sketch = DistinctSketch::new(capacity);
            let mut oracle = Reference::new(capacity);
            for value in stream {
                let d = match value % pool {
                    0 => 0,
                    1 => u64::MAX,
                    v => digest(v),
                };
                prop_assert_eq!(sketch.observe(d), oracle.observe(d));
                prop_assert_eq!(sketch.len(), oracle.digests.len());
                prop_assert_eq!(sketch.is_full(), oracle.is_full());
                prop_assert_eq!(sketch.estimate(), oracle.estimate());
            }
            let kept: Vec<u64> = sketch.digests().collect();
            let expected: Vec<u64> = oracle.digests.iter().copied().collect();
            prop_assert_eq!(kept, expected);
        }
    }

    /// The capacities the oracle test covers: 1, 2 and 256.
    fn capacities() -> impl Strategy<Value = usize> {
        (0usize..3).prop_map(|i| [1, 2, 256][i])
    }
}
