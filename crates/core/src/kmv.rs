//! Bounded "keep the n smallest digests" selection (KMV-style).
//!
//! All coordinated sketches select items whose (unit-range) hash values are
//! among the `n` minimum values seen. [`BoundedMinSet`] maintains that set in
//! one pass with a max-heap, so sketch construction is `O(N log n)` and never
//! holds more than `n` candidate items.
//!
//! # Determinism
//!
//! Every kept item carries an insertion sequence number; ordering is always
//! by `(digest, seq)`. This makes two things bit-for-bit reproducible that a
//! digest-only order cannot: the payload order of digest ties in
//! [`BoundedMinSet::into_sorted`] (a `BinaryHeap` yields ties in arbitrary
//! order), and *which* of several digest-tied maxima is evicted when a
//! smaller digest arrives (the latest-inserted one). Both are pinned by the
//! `tie_*` regression tests below.
//!
//! # Incremental appends
//!
//! The set is the building block of the incremental-ingest path: once full,
//! [`BoundedMinSet::threshold`] exposes the current selection threshold, and
//! [`BoundedMinSet::offer`] rejects a non-qualifying digest with a single
//! comparison — so appending rows to an already-built sketch touches the
//! heap only for the `O(changed)` rows that actually beat the threshold.
//! [`BoundedMinSet::entries`] / [`BoundedMinSet::from_entries`] round-trip
//! the full selection state (digests, sequence numbers, payloads) through
//! persistence so an append after reload behaves exactly like one long
//! build.

use std::collections::BinaryHeap;

/// An item tracked by a [`BoundedMinSet`]: a digest used for ordering, the
/// insertion sequence number used to break digest ties deterministically,
/// plus an opaque payload.
#[derive(Debug, Clone)]
struct HeapItem<T> {
    digest: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.seq == other.seq
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Sequence numbers are unique, so this is a strict total order: the
        // heap's max (and therefore the eviction victim among digest ties)
        // is deterministic regardless of internal heap layout.
        self.digest
            .cmp(&other.digest)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Outcome of [`BoundedMinSet::offer_evicting`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer<T> {
    /// The item was kept; if keeping it pushed the set over capacity, the
    /// evicted `(digest, payload)` pair rides along so callers can release
    /// per-item state.
    Kept(Option<(u64, T)>),
    /// The set is full and the digest did not beat the threshold.
    Rejected,
}

impl<T> Offer<T> {
    /// Returns `true` if the offered item was kept.
    #[must_use]
    pub fn is_kept(&self) -> bool {
        matches!(self, Self::Kept(_))
    }
}

/// Keeps the `capacity` items with the smallest digests seen so far.
///
/// Digest ties: while the set is **under capacity every offered item is
/// kept**, including one whose digest equals an item already present (both
/// survive). Only once the set is full does an item tying the current
/// maximum get rejected — so first-offered-wins applies exclusively to ties
/// with the maximum of a *full* set, not to ties in general. For 64-bit
/// salted digests ties are vanishingly rare and never matter statistically;
/// the behaviour is pinned by the `tie_*` regression tests below.
#[derive(Debug, Clone)]
pub struct BoundedMinSet<T> {
    capacity: usize,
    heap: BinaryHeap<HeapItem<T>>,
    /// Next insertion sequence number (assigned only to kept items).
    next_seq: u64,
}

impl<T> BoundedMinSet<T> {
    /// Creates a set that keeps at most `capacity` items. Nothing is
    /// allocated until items arrive: a set that ends up holding 40 items
    /// costs a few dozen slots, whatever its capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Offers an item; it is kept if the set is not full or if its digest is
    /// smaller than the current maximum. Returns `true` if the item was kept.
    pub fn offer(&mut self, digest: u64, payload: T) -> bool {
        self.offer_evicting(digest, payload).is_kept()
    }

    /// Offers an item like [`Self::offer`], additionally returning the
    /// `(digest, payload)` pair that was evicted to make room (if any) so
    /// incremental builders can drop per-item state for keys that left the
    /// selection.
    pub fn offer_evicting(&mut self, digest: u64, payload: T) -> Offer<T> {
        if self.capacity == 0 {
            return Offer::Rejected;
        }
        if self.heap.len() < self.capacity {
            self.push(digest, payload);
            Offer::Kept(None)
        } else if self.heap.peek().is_some_and(|top| digest < top.digest) {
            let evicted = self.heap.pop().map(|i| (i.digest, i.payload));
            self.push(digest, payload);
            Offer::Kept(evicted)
        } else {
            Offer::Rejected
        }
    }

    /// Offers every `(digest, payload)` pair in order; returns how many were
    /// kept. Equivalent to a loop over [`Self::offer`] — this is the entry
    /// point the bulk right-side builders (TUPSK/LV2SK/PRISK/CSK) feed their
    /// prepared rows through.
    pub fn offer_batch<I: IntoIterator<Item = (u64, T)>>(&mut self, items: I) -> usize {
        items
            .into_iter()
            .map(|(digest, payload)| usize::from(self.offer(digest, payload)))
            .sum()
    }

    fn push(&mut self, digest: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapItem {
            digest,
            seq,
            payload,
        });
    }

    /// Item slots currently allocated (the allocation-size tests read this).
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.heap.capacity()
    }

    /// Current number of kept items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no items are kept.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns `true` once the set holds `capacity` items (from then on the
    /// maximum digest is a true selection threshold).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.capacity
    }

    /// The selection threshold: the largest digest kept, available only once
    /// the set is **full**. While the set is under capacity every offer is
    /// accepted, so the current maximum is *not* a threshold — treating it as
    /// one would wrongly prune appends — and this returns `None`.
    #[must_use]
    pub fn threshold(&self) -> Option<u64> {
        if self.is_full() {
            self.heap.peek().map(|i| i.digest)
        } else {
            None
        }
    }

    /// Consumes the set and returns the kept items sorted by `(digest,
    /// insertion order)` ascending — deterministic even across digest ties.
    #[must_use]
    pub fn into_sorted(self) -> Vec<(u64, T)> {
        let mut items: Vec<HeapItem<T>> = self.heap.into_iter().collect();
        items.sort_by_key(|i| (i.digest, i.seq));
        items.into_iter().map(|i| (i.digest, i.payload)).collect()
    }

    /// The kept items sorted by `(digest, insertion order)` ascending,
    /// borrowing the set — the repeat-finalizable form used by incremental
    /// builders that keep offering after a snapshot is taken.
    #[must_use]
    pub fn sorted(&self) -> Vec<(u64, &T)> {
        let mut items: Vec<&HeapItem<T>> = self.heap.iter().collect();
        items.sort_by_key(|i| (i.digest, i.seq));
        items.into_iter().map(|i| (i.digest, &i.payload)).collect()
    }

    /// The full selection state — `(digest, seq, payload)` sorted by `seq` —
    /// for persistence. Round-trips through [`Self::from_entries`].
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, u64, &T)> {
        let mut items: Vec<&HeapItem<T>> = self.heap.iter().collect();
        items.sort_by_key(|i| i.seq);
        items
            .into_iter()
            .map(|i| (i.digest, i.seq, &i.payload))
            .collect()
    }

    /// Rebuilds a set from persisted `(digest, seq, payload)` entries. The
    /// next sequence number resumes above the largest persisted one, so
    /// appends after a reload order exactly like appends to the original.
    #[must_use]
    pub fn from_entries(capacity: usize, entries: Vec<(u64, u64, T)>) -> Self {
        let next_seq = entries
            .iter()
            .map(|&(_, seq, _)| seq + 1)
            .max()
            .unwrap_or(0);
        let heap: BinaryHeap<HeapItem<T>> = entries
            .into_iter()
            .map(|(digest, seq, payload)| HeapItem {
                digest,
                seq,
                payload,
            })
            .collect();
        Self {
            capacity,
            heap,
            next_seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_n_smallest() {
        let mut set = BoundedMinSet::new(3);
        for d in [50u64, 10, 40, 20, 30, 5] {
            set.offer(d, d * 100);
        }
        let kept = set.into_sorted();
        assert_eq!(
            kept.iter().map(|(d, _)| *d).collect::<Vec<_>>(),
            vec![5, 10, 20]
        );
        assert_eq!(kept[0].1, 500);
    }

    #[test]
    fn capacity_zero_keeps_nothing() {
        let mut set = BoundedMinSet::new(0);
        assert!(!set.offer(1, ()));
        assert!(set.is_empty());
    }

    #[test]
    fn under_capacity_keeps_everything_and_has_no_threshold() {
        let mut set = BoundedMinSet::new(10);
        for d in 0..5u64 {
            assert!(set.offer(d, ()));
        }
        assert_eq!(set.len(), 5);
        // Regression (PR 5): an under-full set has no selection threshold —
        // its maximum would wrongly prune appends that must be kept.
        assert!(!set.is_full());
        assert_eq!(set.threshold(), None);
        for d in 5..10u64 {
            assert!(set.offer(d, ()));
        }
        assert!(set.is_full());
        assert_eq!(set.threshold(), Some(9));
    }

    #[test]
    fn offer_reports_rejections() {
        let mut set = BoundedMinSet::new(1);
        assert!(set.offer(10, ()));
        assert!(!set.offer(20, ()));
        assert!(set.offer(5, ()));
        assert_eq!(set.threshold(), Some(5));
    }

    #[test]
    fn tie_with_current_max_under_capacity_is_kept() {
        // Regression test for the documented tie semantics: under capacity a
        // digest equal to the current maximum is still pushed, so both items
        // survive — and they come out in insertion order.
        let mut set = BoundedMinSet::new(3);
        assert!(set.offer(10, "first"));
        assert!(set.offer(10, "second"));
        assert_eq!(set.len(), 2);
        let kept = set.into_sorted();
        assert_eq!(kept, vec![(10, "first"), (10, "second")]);
    }

    #[test]
    fn tie_with_max_when_full_is_rejected_first_wins() {
        let mut set = BoundedMinSet::new(2);
        assert!(set.offer(5, "a"));
        assert!(set.offer(10, "b"));
        // Full set: a tie with the maximum is rejected (the earlier item
        // wins); only a strictly smaller digest evicts.
        assert!(!set.offer(10, "late"));
        assert_eq!(set.threshold(), Some(10));
        assert!(set.offer(9, "evictor"));
        let kept = set.into_sorted();
        assert_eq!(kept, vec![(5, "a"), (9, "evictor")]);
    }

    #[test]
    fn tied_payload_order_is_insertion_order_not_heap_order() {
        // Regression (PR 5): `BinaryHeap::into_iter` yields digest ties in
        // arbitrary order and a digest-only sort key cannot repair the
        // payload order. Many ties through many heap rebuilds must still
        // come out in insertion order.
        let mut set = BoundedMinSet::new(8);
        for (i, d) in [3u64, 1, 3, 2, 3, 1, 2, 3].into_iter().enumerate() {
            set.offer(d, i);
        }
        let kept = set.into_sorted();
        assert_eq!(
            kept,
            vec![
                (1, 1),
                (1, 5),
                (2, 3),
                (2, 6),
                (3, 0),
                (3, 2),
                (3, 4),
                (3, 7)
            ]
        );
    }

    #[test]
    fn eviction_among_digest_ties_removes_the_latest_inserted() {
        let mut set = BoundedMinSet::new(2);
        assert!(set.offer(10, "early"));
        assert!(set.offer(10, "late"));
        // A smaller digest must evict the *later* of the tied maxima, so the
        // survivor matches what a fresh build over the same offer sequence
        // would keep.
        match set.offer_evicting(4, "small") {
            Offer::Kept(Some((10, "late"))) => {}
            other => panic!("expected deterministic eviction of `late`, got {other:?}"),
        }
        assert_eq!(set.into_sorted(), vec![(4, "small"), (10, "early")]);
    }

    #[test]
    fn sorted_borrow_matches_into_sorted() {
        let mut set = BoundedMinSet::new(4);
        for d in [9u64, 2, 7, 2, 5] {
            set.offer(d, d as i32);
        }
        let borrowed: Vec<(u64, i32)> = set.sorted().into_iter().map(|(d, &p)| (d, p)).collect();
        assert_eq!(borrowed, set.into_sorted());
    }

    #[test]
    fn offer_batch_counts_kept() {
        let mut set = BoundedMinSet::new(2);
        let kept = set.offer_batch([(5u64, ()), (9, ()), (20, ()), (1, ())]);
        assert_eq!(kept, 3); // 20 is rejected once the set is full of {5, 9}
        assert_eq!(
            set.into_sorted()
                .iter()
                .map(|&(d, ())| d)
                .collect::<Vec<_>>(),
            vec![1, 5]
        );
    }

    #[test]
    fn entries_round_trip_preserves_order_and_resumes_sequencing() {
        let mut set = BoundedMinSet::new(3);
        for d in [7u64, 7, 3, 9, 7] {
            set.offer(d, format!("p{d}"));
        }
        let entries: Vec<(u64, u64, String)> = set
            .entries()
            .into_iter()
            .map(|(d, s, p)| (d, s, p.clone()))
            .collect();
        let mut restored = BoundedMinSet::from_entries(3, entries);
        assert_eq!(restored.sorted(), set.sorted());
        // Appends after restore must tie-break exactly like appends to the
        // original set.
        let mut original = set.clone();
        original.offer(3, "tail".to_owned());
        restored.offer(3, "tail".to_owned());
        assert_eq!(restored.into_sorted(), original.into_sorted());
    }

    #[test]
    fn selection_is_insertion_order_independent() {
        let digests: Vec<u64> = (0..1000).map(|i| (i * 2_654_435_761u64) % 10_000).collect();
        let mut a = BoundedMinSet::new(50);
        let mut b = BoundedMinSet::new(50);
        for &d in &digests {
            a.offer(d, ());
        }
        for &d in digests.iter().rev() {
            b.offer(d, ());
        }
        let da: Vec<u64> = a.into_sorted().into_iter().map(|(d, _)| d).collect();
        let db: Vec<u64> = b.into_sorted().into_iter().map(|(d, _)| d).collect();
        assert_eq!(da, db);
    }
}
