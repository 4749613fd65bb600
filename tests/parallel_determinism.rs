//! End-to-end parallel determinism: repository ingest, query ranking, and
//! k-NN distance kernels must be bit-for-bit identical across thread counts
//! (1 vs 4), which is the contract that makes `JOINMI_THREADS` a pure
//! performance knob.

use joinmi::discovery::{RepositoryConfig, TableRepository};
use joinmi::estimators::knn::{kth_nn_distances_1d, kth_nn_distances_chebyshev};
use joinmi::par::with_threads;
use joinmi::prelude::*;
use joinmi::sketch::tupsk;
use joinmi::synth::TaxiScenario;

fn scenario_repo(threads: usize) -> (TableRepository, Vec<joinmi::discovery::RankedCandidate>) {
    let scenario = TaxiScenario::generate(60, 20, 9);
    let config = RepositoryConfig {
        sketch: SketchConfig::new(512, 3),
        ..RepositoryConfig::default()
    };
    with_threads(threads, || {
        let mut repo = TableRepository::new(config);
        repo.add_tables(vec![
            scenario.weather.clone(),
            scenario.demographics.clone(),
            scenario.inspections.clone(),
        ])
        .unwrap();
        let ranking = RelationshipQuery::new(scenario.taxi.clone(), "zipcode", "num_trips")
            .with_sketch(SketchKind::Tupsk, SketchConfig::new(512, 3))
            .with_min_join_size(10)
            .with_top_k(0)
            .execute(&repo)
            .unwrap();
        (repo, ranking)
    })
}

#[test]
fn repository_ingest_is_bitwise_identical_across_thread_counts() {
    let (seq, _) = scenario_repo(1);
    let (par, _) = scenario_repo(4);
    assert_eq!(seq.num_tables(), par.num_tables());
    assert_eq!(seq.candidates().len(), par.candidates().len());
    for (a, b) in seq.candidates().iter().zip(par.candidates()) {
        assert_eq!(a.table_index, b.table_index);
        assert_eq!(a.label(), b.label());
        assert_eq!(a.aggregation, b.aggregation);
        assert_eq!(
            a.sketch.rows(),
            b.sketch.rows(),
            "sketch diverged: {}",
            a.label()
        );
    }
}

#[test]
fn query_ranking_is_bitwise_identical_across_thread_counts() {
    let (_, seq) = scenario_repo(1);
    let (_, par) = scenario_repo(4);
    assert!(!seq.is_empty());
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.candidate_index, b.candidate_index);
        assert_eq!(
            a.mi.to_bits(),
            b.mi.to_bits(),
            "MI bits diverged: {}",
            a.label()
        );
        assert_eq!(a.estimator, b.estimator);
        assert_eq!(a.sketch_join_size, b.sketch_join_size);
        assert_eq!(a.key_overlap, b.key_overlap);
    }
}

#[test]
fn knn_kernels_are_bitwise_identical_across_thread_counts() {
    let mut state = 77u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    };
    let n = 1500;
    let xs: Vec<f64> = (0..n).map(|_| next()).collect();
    let ys: Vec<f64> = (0..n).map(|_| next() * 3.0).collect();
    for k in [1usize, 3, 5] {
        let seq = with_threads(1, || kth_nn_distances_chebyshev(&xs, &ys, k));
        let par = with_threads(4, || kth_nn_distances_chebyshev(&xs, &ys, k));
        assert!(
            seq.iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "2d k={k}"
        );
        let seq1 = with_threads(1, || kth_nn_distances_1d(&xs, k));
        let par1 = with_threads(4, || kth_nn_distances_1d(&xs, k));
        assert!(
            seq1.iter()
                .zip(&par1)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "1d k={k}"
        );
    }
}

#[test]
fn ksg_family_estimators_are_bitwise_identical_across_thread_counts() {
    // PR 4 made the estimator accumulation loops parallel (fixed chunks,
    // ordered reduction): the estimates must not move by a single bit when
    // the worker count changes.
    let mut state = 0xeb1_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    };
    let n = 3000;
    let xs: Vec<f64> = (0..n).map(|_| next()).collect();
    // Mixture column: heavy exact ties (the non-unique-join regime), so the
    // ρ_i = 0 fallback paths run too.
    let xs_tied: Vec<f64> = xs.iter().map(|v| (v * 12.0).floor()).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * x + next()).collect();
    let codes: Vec<u32> = xs.iter().map(|v| (v * 5.0) as u32).collect();

    for k in [1usize, 3, 5] {
        let seq = with_threads(1, || {
            (
                joinmi::estimators::ksg_mi(&xs, &ys, k).unwrap(),
                joinmi::estimators::mixed_ksg_mi(&xs_tied, &ys, k).unwrap(),
                joinmi::estimators::dc_ksg_mi(&codes, &ys, k).unwrap(),
            )
        });
        let par = with_threads(4, || {
            (
                joinmi::estimators::ksg_mi(&xs, &ys, k).unwrap(),
                joinmi::estimators::mixed_ksg_mi(&xs_tied, &ys, k).unwrap(),
                joinmi::estimators::dc_ksg_mi(&codes, &ys, k).unwrap(),
            )
        });
        assert_eq!(seq.0.to_bits(), par.0.to_bits(), "ksg k={k}");
        assert_eq!(seq.1.to_bits(), par.1.to_bits(), "mixed_ksg k={k}");
        assert_eq!(seq.2.to_bits(), par.2.to_bits(), "dc_ksg k={k}");
    }
}

#[test]
fn blocked_kernels_match_scalar_oracles_bitwise() {
    // The kernels of the `knn::blocked` module (the two-sided Chebyshev scan
    // and the 1-D window scan) must agree with the greedy scalar expansion to
    // the last bit, including under heavy ties, at every thread count.
    use joinmi::estimators::knn::{kth_nn_distances_1d_scalar, kth_nn_distances_chebyshev_scalar};
    let mut state = 0xb10c_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    };
    let n = 2000;
    let xs: Vec<f64> = (0..n).map(|_| (next() * 40.0).floor() / 4.0).collect();
    let ys: Vec<f64> = (0..n).map(|_| next() * 3.0).collect();
    for threads in [1usize, 4] {
        for k in [1usize, 3, 6] {
            let (scan_2d, scalar_2d, scan_1d, scalar_1d) = with_threads(threads, || {
                (
                    kth_nn_distances_chebyshev(&xs, &ys, k),
                    kth_nn_distances_chebyshev_scalar(&xs, &ys, k),
                    kth_nn_distances_1d(&xs, k),
                    kth_nn_distances_1d_scalar(&xs, k),
                )
            });
            assert!(
                scan_2d
                    .iter()
                    .zip(&scalar_2d)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "2d threads={threads} k={k}"
            );
            assert!(
                scan_1d
                    .iter()
                    .zip(&scalar_1d)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "1d threads={threads} k={k}"
            );
        }
    }
}

#[test]
fn mi_estimation_is_reproducible_bit_for_bit() {
    // The digest-keyed maps and fixed-hasher contingency tables make repeated
    // estimates identical — not merely approximately equal.
    let n = 4000i64;
    let train = Table::builder("train")
        .push_str_column(
            "k",
            (0..n)
                .map(|i| format!("k{}", i % 500))
                .collect::<Vec<String>>(),
        )
        .push_int_column("y", (0..n).map(|i| i % 17).collect::<Vec<i64>>())
        .build()
        .unwrap();
    let cand = Table::builder("cand")
        .push_str_column(
            "k",
            (0..n)
                .map(|i| format!("k{}", i % 500))
                .collect::<Vec<String>>(),
        )
        .push_float_column("z", (0..n).map(|i| (i % 13) as f64).collect::<Vec<f64>>())
        .build()
        .unwrap();
    let cfg = SketchConfig::new(512, 11);
    let estimate = |threads: usize| {
        with_threads(threads, || {
            let left = tupsk::build_left(&train, "k", "y", &cfg).unwrap();
            let right = tupsk::build_right(&cand, "k", "z", SketchAggregation::Avg, &cfg).unwrap();
            left.join(&right).estimate_mi().unwrap().mi
        })
    };
    let a = estimate(1);
    let b = estimate(1);
    let c = estimate(4);
    assert_eq!(a.to_bits(), b.to_bits(), "sequential runs diverged");
    assert_eq!(a.to_bits(), c.to_bits(), "parallel run diverged");
}
