//! Property-based tests (proptest) over the core invariants of the library:
//! estimator invariants, sketch size bounds, join semantics, and the
//! relational substrate.

use joinmi::estimators::knn::{
    kth_nn_distances_1d, kth_nn_distances_1d_scalar, kth_nn_distances_chebyshev,
    kth_nn_distances_chebyshev_bruteforce, kth_nn_distances_chebyshev_scalar,
};
use joinmi::estimators::{mixed_ksg_mi, mle_mi, smoothed_mle_mi};
use joinmi::eval::baselines;
use joinmi::hash::{KeyHasher, UnitHasher};
use joinmi::par::with_threads;
use joinmi::prelude::*;
use joinmi::sketch::{tupsk, BoundedMinSet};
use joinmi::table::{
    group_by_aggregate, left_outer_join, read_csv_str, write_csv_string, CsvOptions,
};
use proptest::prelude::*;

/// Strategy for small categorical code vectors (paired X/Y of equal length).
fn paired_codes() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (2usize..200).prop_flat_map(|len| {
        (
            proptest::collection::vec(0u32..8, len),
            proptest::collection::vec(0u32..8, len),
        )
    })
}

/// Strategy for heavy-tie mixture coordinate pairs: the feature columns a
/// left join on non-unique keys produces — every value is drawn from a small
/// set of levels plus an optional continuous jitter, so many points coincide
/// exactly (`ρ_i = 0` for entire groups) while others stay distinct.
fn heavy_tie_points() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (8usize..120, 1u32..6, 0u8..2).prop_flat_map(|(len, levels, jitter)| {
        let coord = proptest::collection::vec((0u32..levels, 0u32..1000), len).prop_map(
            move |cells: Vec<(u32, u32)>| {
                cells
                    .into_iter()
                    .map(|(level, noise)| {
                        let base = f64::from(level);
                        if jitter == 1 {
                            base + f64::from(noise % 3) * 0.125
                        } else {
                            base
                        }
                    })
                    .collect::<Vec<f64>>()
            },
        );
        (coord.clone(), coord)
    })
}

/// Strategy for a small keyed table: (keys, values).
fn keyed_rows() -> impl Strategy<Value = Vec<(u8, i32)>> {
    proptest::collection::vec((0u8..40, -1000i32..1000), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- estimator invariants -------------------------------------------

    /// MI is non-negative and symmetric for the plug-in estimator.
    #[test]
    fn mle_mi_is_nonnegative_and_symmetric((x, y) in paired_codes()) {
        let forward = mle_mi(&x, &y).unwrap();
        let backward = mle_mi(&y, &x).unwrap();
        prop_assert!(forward >= 0.0);
        prop_assert!((forward - backward).abs() < 1e-9);
    }

    /// MI is bounded by each marginal entropy: I(X;Y) <= min(H(X), H(Y)).
    #[test]
    fn mle_mi_is_bounded_by_marginal_entropy((x, y) in paired_codes()) {
        let mi = mle_mi(&x, &y).unwrap();
        let hx = joinmi::estimators::mle_entropy(&x).unwrap();
        let hy = joinmi::estimators::mle_entropy(&y).unwrap();
        prop_assert!(mi <= hx.min(hy) + 1e-9, "mi={mi}, hx={hx}, hy={hy}");
    }

    /// MI is invariant under relabeling (bijection) of either variable.
    #[test]
    fn mle_mi_is_invariant_under_relabeling((x, y) in paired_codes()) {
        let relabeled: Vec<u32> = x.iter().map(|&v| 1000 - v).collect();
        let a = mle_mi(&x, &y).unwrap();
        let b = mle_mi(&relabeled, &y).unwrap();
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// Laplace smoothing never increases the MI estimate of identical data
    /// and always produces a finite non-negative value.
    #[test]
    fn smoothed_mle_is_finite_and_nonnegative((x, y) in paired_codes()) {
        let smoothed = smoothed_mle_mi(&x, &y, 1.0).unwrap();
        prop_assert!(smoothed.is_finite());
        prop_assert!(smoothed >= 0.0);
    }

    // --- k-NN kernels ----------------------------------------------------

    /// The two-sided Chebyshev scan is bit-for-bit equal to both the greedy
    /// scalar expansion and the brute-force reference, for arbitrary
    /// heavy-tie mixture inputs (the `ρ_i = 0` regime of non-unique joins)
    /// and every k up to the sample size.
    #[test]
    fn knn_scan_chebyshev_matches_oracles_on_heavy_ties((xs, ys) in heavy_tie_points(), k in 1usize..6) {
        // Strategy invariant: len >= 8 > k, so k is always valid.
        let scan = kth_nn_distances_chebyshev(&xs, &ys, k);
        let scalar = kth_nn_distances_chebyshev_scalar(&xs, &ys, k);
        let brute = kth_nn_distances_chebyshev_bruteforce(&xs, &ys, k);
        for i in 0..xs.len() {
            prop_assert_eq!(scan[i].to_bits(), scalar[i].to_bits(), "scalar i={}", i);
            prop_assert_eq!(scan[i].to_bits(), brute[i].to_bits(), "brute i={}", i);
        }
    }

    /// Same for the 1-D window-scan kernel against its greedy scalar oracle.
    #[test]
    fn knn_window_1d_matches_scalar_oracle((xs, _ys) in heavy_tie_points(), k in 1usize..6) {
        // Strategy invariant: len >= 8 > k, so k is always valid.
        let window = kth_nn_distances_1d(&xs, k);
        let scalar = kth_nn_distances_1d_scalar(&xs, k);
        for i in 0..xs.len() {
            prop_assert_eq!(window[i].to_bits(), scalar[i].to_bits(), "i={}", i);
        }
    }

    /// MixedKSG on heavy-tie mixtures (exercising the tie fallback through
    /// the neighbour scan and the parallel accumulation) stays finite,
    /// non-negative, and bit-identical across thread counts.
    #[test]
    fn mixed_ksg_on_heavy_ties_is_finite_and_thread_invariant((xs, ys) in heavy_tie_points()) {
        let seq = with_threads(1, || mixed_ksg_mi(&xs, &ys, 3).unwrap());
        let par = with_threads(4, || mixed_ksg_mi(&xs, &ys, 3).unwrap());
        prop_assert!(seq.is_finite());
        prop_assert!(seq >= 0.0);
        prop_assert_eq!(seq.to_bits(), par.to_bits());
    }

    // --- hashing ---------------------------------------------------------

    /// Unit hashing stays in [0, 1) and is deterministic.
    #[test]
    fn unit_hash_is_deterministic_and_in_range(seed in any::<u64>(), key in any::<u64>()) {
        let h = UnitHasher::new(seed);
        let u = h.unit(key);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert_eq!(u, UnitHasher::new(seed).unit(key));
    }

    /// Key hashing is injective on realistic small domains (no 64-bit
    /// collisions among a few hundred distinct strings).
    #[test]
    fn key_hashing_has_no_collisions_on_small_domains(n in 1usize..500) {
        let hasher = KeyHasher::default_64();
        let mut digests: Vec<u64> = (0..n).map(|i| hasher.hash_str(&format!("key-{i}")).raw()).collect();
        digests.sort_unstable();
        digests.dedup();
        prop_assert_eq!(digests.len(), n);
    }

    // --- sketches --------------------------------------------------------

    /// The bounded-min-set always returns the k smallest digests.
    #[test]
    fn bounded_min_set_keeps_smallest(mut digests in proptest::collection::vec(any::<u64>(), 1..300), k in 1usize..50) {
        let mut set = BoundedMinSet::new(k);
        for &d in &digests {
            set.offer(d, d);
        }
        let kept: Vec<u64> = set.into_sorted().into_iter().map(|(d, _)| d).collect();
        digests.sort_unstable();
        digests.dedup();
        let expected: Vec<u64> = digests.into_iter().take(k).collect();
        // Duplicate digests may displace one another, so compare as sets of
        // values bounded by the k-th smallest distinct digest.
        prop_assert!(kept.len() <= k);
        if let (Some(&kept_max), Some(&exp_max)) = (kept.last(), expected.last()) {
            prop_assert!(kept_max <= exp_max);
        }
    }

    /// Every sketch kind respects its documented size bound and never stores
    /// NULL-keyed rows, for arbitrary keyed tables.
    #[test]
    fn sketch_size_bounds_hold(rows in keyed_rows(), n in 1usize..64, seed in 0u64..1000) {
        let keys: Vec<String> = rows.iter().map(|(k, _)| format!("k{k}")).collect();
        let values: Vec<i64> = rows.iter().map(|(_, v)| i64::from(*v)).collect();
        let table = Table::builder("t")
            .push_str_column("k", keys)
            .push_int_column("v", values)
            .build()
            .unwrap();
        let cfg = SketchConfig::new(n, seed);
        for kind in SketchKind::ALL {
            let left = baselines::build_left(kind, &table, "k", "v", &cfg).unwrap();
            let bound = match kind {
                SketchKind::Lv2sk | SketchKind::Prisk => 2 * n,
                SketchKind::Indsk => table.num_rows(), // Bernoulli: bounded by the table
                _ => n,
            };
            prop_assert!(left.len() <= bound, "{}: {} > {}", kind, left.len(), bound);

            let right = baselines::build_right(kind, &table, "k", "v", Aggregation::Avg, &cfg).unwrap();
            let right_bound = match kind {
                // Bernoulli sampling has expected size n but is only bounded
                // by the number of distinct keys.
                SketchKind::Indsk => right.source_distinct_keys(),
                _ => n,
            };
            prop_assert!(right.len() <= right_bound.max(1), "{}: right {} > {}", kind, right.len(), right_bound);
            prop_assert_eq!(right.len(), right.rows().iter().map(|r| r.key.raw()).collect::<std::collections::HashSet<_>>().len());
        }
    }

    /// The sketch join is always a subset of the exact join: every recovered
    /// pair has a key present in both tables, and the join size never exceeds
    /// the smaller sketch.
    #[test]
    fn sketch_join_is_bounded(rows in keyed_rows(), n in 4usize..64) {
        let keys: Vec<String> = rows.iter().map(|(k, _)| format!("k{k}")).collect();
        let values: Vec<i64> = rows.iter().map(|(_, v)| i64::from(*v)).collect();
        let table = Table::builder("t")
            .push_str_column("k", keys)
            .push_int_column("v", values)
            .build()
            .unwrap();
        let cfg = SketchConfig::new(n, 7);
        let left = tupsk::build_left(&table, "k", "v", &cfg).unwrap();
        let right = tupsk::build_right(&table, "k", "v", Aggregation::Avg, &cfg).unwrap();
        let joined = left.join(&right);
        prop_assert!(joined.len() <= left.len());
    }

    // --- relational substrate --------------------------------------------

    /// A left-outer join preserves the left row count, for arbitrary tables.
    #[test]
    fn left_join_preserves_row_count(left_rows in keyed_rows(), right_rows in keyed_rows()) {
        let train = Table::builder("l")
            .push_str_column("k", left_rows.iter().map(|(k, _)| format!("k{k}")).collect::<Vec<_>>())
            .push_int_column("y", left_rows.iter().map(|(_, v)| i64::from(*v)).collect::<Vec<_>>())
            .build()
            .unwrap();
        let cand = Table::builder("r")
            .push_str_column("k", right_rows.iter().map(|(k, _)| format!("k{k}")).collect::<Vec<_>>())
            .push_int_column("z", right_rows.iter().map(|(_, v)| i64::from(*v)).collect::<Vec<_>>())
            .build()
            .unwrap();
        let aggregated = group_by_aggregate(&cand, "k", "z", Aggregation::Avg).unwrap();
        let joined = left_outer_join(&train, "k", &aggregated, "k").unwrap();
        prop_assert_eq!(joined.table.num_rows(), train.num_rows());
        prop_assert!(joined.matched_rows <= train.num_rows());
    }

    /// AVG / MIN / MAX aggregation results always lie within the group range.
    #[test]
    fn aggregation_stays_within_range(values in proptest::collection::vec(-1000i64..1000, 1..50)) {
        let group: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
        let min = *values.iter().min().unwrap() as f64;
        let max = *values.iter().max().unwrap() as f64;
        let avg = Aggregation::Avg.apply(&group).as_f64().unwrap();
        prop_assert!(avg >= min - 1e-9 && avg <= max + 1e-9);
        prop_assert_eq!(Aggregation::Min.apply(&group), Value::Int(min as i64));
        prop_assert_eq!(Aggregation::Max.apply(&group), Value::Int(max as i64));
        prop_assert_eq!(Aggregation::Count.apply(&group), Value::Int(values.len() as i64));
    }

    /// CSV writing followed by reading reproduces the table contents.
    #[test]
    fn csv_round_trip(rows in keyed_rows()) {
        let table = Table::builder("t")
            .push_str_column("k", rows.iter().map(|(k, _)| format!("k{k}")).collect::<Vec<_>>())
            .push_int_column("v", rows.iter().map(|(_, v)| i64::from(*v)).collect::<Vec<_>>())
            .build()
            .unwrap();
        let csv = write_csv_string(&table);
        let reread = read_csv_str("t2", &csv, &CsvOptions::default()).unwrap();
        prop_assert_eq!(reread.num_rows(), table.num_rows());
        for i in 0..table.num_rows() {
            prop_assert_eq!(reread.value(i, "v").unwrap(), table.value(i, "v").unwrap());
            prop_assert_eq!(reread.value(i, "k").unwrap(), table.value(i, "k").unwrap());
        }
    }
}
