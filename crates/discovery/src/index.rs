//! Joinability index.
//!
//! Before estimating MI, the discovery system prunes candidates whose join
//! key does not overlap the query key at all (the role played by inverted
//! indexes / LSH ensembles in the systems the paper cites). Because every
//! candidate already carries a KMV-style sketch of its key column, the index
//! simply keeps, per candidate, the set of sampled key digests; overlap with
//! the query sketch's digests gives a containment estimate that is cheap and
//! join-free.

use std::collections::HashMap;

use joinmi_hash::{digest_set_with_capacity, DigestHashMap, DigestHashSet};
use joinmi_sketch::ColumnSketch;

/// Index postings in canonical on-disk order: `(digest, candidate ids
/// ascending)`, sorted by digest.
pub type CanonicalPostings = Vec<(u64, Vec<usize>)>;

/// `(candidate id, distinct digest count)` pairs sorted by id.
pub type CanonicalSizes = Vec<(usize, usize)>;

/// The net postings change of one candidate update, in canonical order
/// (`removed`/`added` sorted by `(digest, id)`, `sizes` by id).
///
/// Produced by [`JoinabilityIndex::apply_membership_update`] when an appended
/// chunk changes a candidate's sampled key set, accumulated by the
/// repository, and persisted as the INDEX delta of an on-disk append group.
/// Deltas are ordered: each one captures the difference between consecutive
/// states of a candidate, so they must be applied (via
/// [`JoinabilityIndex::apply_delta`]) in the order they were produced.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IndexDelta {
    /// `(digest, candidate id)` postings to remove (keys evicted from the
    /// candidate's KMV selection).
    pub removed: Vec<(u64, usize)>,
    /// `(digest, candidate id)` postings to add (keys newly selected).
    pub added: Vec<(u64, usize)>,
    /// Updated distinct-digest counts per touched candidate.
    pub sizes: Vec<(usize, usize)>,
}

impl IndexDelta {
    /// Returns `true` when the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty() && self.sizes.is_empty()
    }
}

/// An inverted index from sampled key digests to candidate identifiers.
#[derive(Debug, Default, Clone)]
pub struct JoinabilityIndex {
    /// digest → candidate indices whose sketch contains that digest. The
    /// digests are already 64-bit hashes, so the postings map uses the
    /// Fibonacci digest hasher instead of re-hashing through SipHash.
    postings: DigestHashMap<Vec<usize>>,
    /// candidate index → number of distinct digests in its sketch.
    candidate_sizes: HashMap<usize, usize>,
}

impl JoinabilityIndex {
    /// Builds an index over the given candidate sketches (indexed by their
    /// position in the slice).
    #[must_use]
    pub fn build(candidates: &[&ColumnSketch]) -> Self {
        let mut index = Self::default();
        for (i, sketch) in candidates.iter().enumerate() {
            index.insert(i, sketch);
        }
        index
    }

    /// Adds one candidate sketch under the given identifier.
    pub fn insert(&mut self, id: usize, sketch: &ColumnSketch) {
        let mut digests = digest_set_with_capacity(sketch.len());
        digests.extend(sketch.rows().iter().map(|r| r.key.raw()));
        self.candidate_sizes.insert(id, digests.len());
        for d in digests {
            self.postings.entry(d).or_default().push(id);
        }
    }

    /// Patches one candidate's postings from an exact membership diff (the
    /// `added`/`removed` key digests reported by
    /// `RightSketchBuilder::append_table_diff`) — `O(changed)`, no sketch
    /// re-diffing. `size` is the candidate's new distinct-digest count.
    /// Returns the (possibly empty) delta for the append log.
    pub fn apply_membership_update(
        &mut self,
        id: usize,
        removed: &[u64],
        added: &[u64],
        size: usize,
    ) -> IndexDelta {
        let mut delta = IndexDelta {
            removed: removed.iter().map(|&d| (d, id)).collect(),
            added: added.iter().map(|&d| (d, id)).collect(),
            sizes: Vec::new(),
        };
        delta.removed.sort_unstable();
        delta.added.sort_unstable();
        if self.candidate_sizes.get(&id) != Some(&size) {
            delta.sizes.push((id, size));
        }
        self.apply_delta(&delta);
        delta
    }

    /// Applies one delta (see [`Self::apply_membership_update`]); the loader
    /// replays persisted deltas through this in order.
    pub fn apply_delta(&mut self, delta: &IndexDelta) {
        for &(digest, id) in &delta.removed {
            if let Some(ids) = self.postings.get_mut(&digest) {
                ids.retain(|&existing| existing != id);
                if ids.is_empty() {
                    // Drop the empty posting list so the canonical encoding
                    // matches a from-scratch index over the same sketches.
                    self.postings.remove(&digest);
                }
            }
        }
        for &(digest, id) in &delta.added {
            let ids = self.postings.entry(digest).or_default();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        for &(id, size) in &delta.sizes {
            self.candidate_sizes.insert(id, size);
        }
    }

    /// Number of indexed candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidate_sizes.len()
    }

    /// Returns `true` if no candidates are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidate_sizes.is_empty()
    }

    /// The index contents in canonical order, for persistence: postings
    /// sorted by digest with candidate ids ascending, plus `(candidate id,
    /// distinct digest count)` pairs sorted by id.
    #[must_use]
    pub fn canonical_parts(&self) -> (CanonicalPostings, CanonicalSizes) {
        let mut postings: CanonicalPostings = self
            .postings
            .iter()
            .map(|(&digest, ids)| {
                let mut ids = ids.clone();
                ids.sort_unstable();
                (digest, ids)
            })
            .collect();
        postings.sort_unstable_by_key(|&(digest, _)| digest);
        let mut sizes: CanonicalSizes = self
            .candidate_sizes
            .iter()
            .map(|(&id, &size)| (id, size))
            .collect();
        sizes.sort_unstable();
        (postings, sizes)
    }

    /// Rebuilds an index from parts produced by
    /// [`JoinabilityIndex::canonical_parts`] (used by the repository loader).
    #[must_use]
    pub fn from_canonical_parts(postings: CanonicalPostings, sizes: CanonicalSizes) -> Self {
        let mut index = Self::default();
        for (digest, ids) in postings {
            index.postings.insert(digest, ids);
        }
        index.candidate_sizes.extend(sizes);
        index
    }

    /// Returns `(candidate id, number of overlapping sampled keys)` for every
    /// candidate that shares at least `min_overlap` sampled key digests with
    /// the query sketch, sorted by overlap (descending).
    #[must_use]
    pub fn query(&self, query: &ColumnSketch, min_overlap: usize) -> Vec<(usize, usize)> {
        let mut query_digests: DigestHashSet = digest_set_with_capacity(query.len());
        query_digests.extend(query.rows().iter().map(|r| r.key.raw()));
        // Candidate ids are dense small integers, so the per-hit counter is a
        // direct-indexed vector — one array write per posting instead of a
        // hash probe on the hottest pre-filter loop.
        let id_bound = self.candidate_sizes.keys().max().map_or(0, |&m| m + 1);
        let mut overlap = vec![0usize; id_bound];
        for d in &query_digests {
            if let Some(ids) = self.postings.get(d) {
                for &id in ids {
                    // The bound check is free for indexes built via insert()
                    // (every posting id has a candidate_sizes entry) and
                    // keeps from_canonical_parts with inconsistent parts
                    // from panicking; the loader additionally rejects such
                    // files with a typed error.
                    if let Some(count) = overlap.get_mut(id) {
                        *count += 1;
                    }
                }
            }
        }
        // `c > 0` preserves the map-based semantics: candidates with no
        // overlapping digest never appear, even when `min_overlap` is 0.
        let mut hits: Vec<(usize, usize)> = overlap
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0 && c >= min_overlap)
            .collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_sketch::{tupsk, SketchConfig};
    use joinmi_table::{Aggregation, Table};

    fn keyed_table(name: &str, keys: Vec<&str>) -> Table {
        let values: Vec<i64> = (0..keys.len() as i64).collect();
        Table::builder(name)
            .push_str_column("k", keys)
            .push_int_column("v", values)
            .build()
            .unwrap()
    }

    #[test]
    fn overlapping_candidates_are_found_and_ranked() {
        let cfg = SketchConfig::new(64, 1);
        let query_table = keyed_table("q", vec!["a", "b", "c", "d"]);
        let query = tupsk::build_left(&query_table, "k", "v", &cfg).unwrap();

        let full = tupsk::build_right(
            &keyed_table("full", vec!["a", "b", "c", "d"]),
            "k",
            "v",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        let partial = tupsk::build_right(
            &keyed_table("partial", vec!["a", "b", "x", "y"]),
            "k",
            "v",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();
        let disjoint = tupsk::build_right(
            &keyed_table("disjoint", vec!["p", "q", "r"]),
            "k",
            "v",
            Aggregation::Avg,
            &cfg,
        )
        .unwrap();

        let index = JoinabilityIndex::build(&[&full, &partial, &disjoint]);
        assert_eq!(index.len(), 3);

        let hits = index.query(&query, 1);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0); // full overlap ranks first
        assert_eq!(hits[0].1, 4);
        assert_eq!(hits[1].0, 1);
        assert_eq!(hits[1].1, 2);

        // Raising the threshold drops the partial match.
        let strict = index.query(&query, 3);
        assert_eq!(strict.len(), 1);
    }

    #[test]
    fn query_tolerates_posting_ids_without_size_entries() {
        // from_canonical_parts with inconsistent parts (posting id 5, sizes
        // only for id 0) must not panic at query time; the unknown id is
        // ignored. The persistence loader rejects such files outright — this
        // guard is defense in depth for direct API use.
        let cfg = SketchConfig::new(16, 0);
        let q = tupsk::build_left(&keyed_table("q", vec!["a"]), "k", "v", &cfg).unwrap();
        let digest = q.rows()[0].key.raw();
        let index =
            JoinabilityIndex::from_canonical_parts(vec![(digest, vec![0, 5])], vec![(0, 1)]);
        assert_eq!(index.query(&q, 1), vec![(0, 1)]);
    }

    #[test]
    fn update_matches_an_index_rebuilt_from_scratch() {
        let cfg = SketchConfig::new(64, 1);
        let build = |keys: Vec<&str>, name: &str| {
            tupsk::build_right(&keyed_table(name, keys), "k", "v", Aggregation::Avg, &cfg).unwrap()
        };
        let a_old = build(vec!["a", "b", "c"], "a");
        let b = build(vec!["p", "q"], "b");
        let mut index = JoinabilityIndex::build(&[&a_old, &b]);

        // Candidate 0's key set changes: "c" leaves, "x"/"y" arrive.
        let a_new = build(vec!["a", "b", "x", "y"], "a");
        let digests =
            |s: &ColumnSketch| -> Vec<u64> { s.rows().iter().map(|r| r.key.raw()).collect() };
        let (old_keys, new_keys) = (digests(&a_old), digests(&a_new));
        let removed: Vec<u64> = old_keys
            .iter()
            .copied()
            .filter(|d| !new_keys.contains(d))
            .collect();
        let added: Vec<u64> = new_keys
            .iter()
            .copied()
            .filter(|d| !old_keys.contains(d))
            .collect();
        let delta = index.apply_membership_update(0, &removed, &added, 4);
        assert_eq!((delta.removed.len(), delta.added.len()), (1, 2));
        assert_eq!(delta.sizes, vec![(0, 4)]);

        let rebuilt = JoinabilityIndex::build(&[&a_new, &b]);
        assert_eq!(index.canonical_parts(), rebuilt.canonical_parts());

        // Replaying the delta on a copy of the original reaches the same
        // state (the loader path).
        let mut replayed = JoinabilityIndex::build(&[&a_old, &b]);
        replayed.apply_delta(&delta);
        assert_eq!(replayed.canonical_parts(), rebuilt.canonical_parts());
    }

    #[test]
    fn empty_index_returns_no_hits() {
        let index = JoinabilityIndex::default();
        assert!(index.is_empty());
        let cfg = SketchConfig::new(16, 0);
        let q = tupsk::build_left(&keyed_table("q", vec!["a"]), "k", "v", &cfg).unwrap();
        assert!(index.query(&q, 1).is_empty());
    }
}
