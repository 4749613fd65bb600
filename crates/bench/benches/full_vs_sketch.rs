//! §V-D head-to-head: materialize-and-estimate vs sketch-join-and-estimate
//! as the base table grows from 5k to 20k rows (sketch size n = 256).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use joinmi_bench::{trinomial_workload, PERF_SIZES};
use joinmi_eval::EstimatorMode;
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_synth::KeyDistribution;
use joinmi_table::{augment, AugmentSpec};

fn bench_full_vs_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_vs_sketch");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    for rows in PERF_SIZES {
        let workload = trinomial_workload(rows, KeyDistribution::KeyInd, 7);
        let pair = &workload.pair;
        let spec = AugmentSpec::new(
            pair.key_column.clone(),
            pair.target_column.clone(),
            pair.key_column.clone(),
            pair.feature_column.clone(),
            pair.aggregation,
        );
        let cfg = SketchConfig::new(256, 7);
        // Sketches are built offline; the online cost is join + estimate.
        let left = SketchKind::Tupsk
            .build_left(&pair.train, &pair.key_column, &pair.target_column, &cfg)
            .expect("left sketch");
        let right = SketchKind::Tupsk
            .build_right(
                &pair.cand,
                &pair.key_column,
                &pair.feature_column,
                pair.aggregation,
                &cfg,
            )
            .expect("right sketch");

        group.bench_with_input(
            BenchmarkId::new("full_join_and_estimate", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    let joined = augment(&pair.train, &pair.cand, &spec).expect("full join");
                    let feature = spec.feature_column_name();
                    let xs: Vec<_> = (0..joined.table.num_rows())
                        .map(|i| joined.table.value(i, &feature).expect("column"))
                        .collect();
                    let ys: Vec<_> = (0..joined.table.num_rows())
                        .map(|i| joined.table.value(i, &pair.target_column).expect("column"))
                        .collect();
                    black_box(EstimatorMode::Mle.estimate(&xs, &ys, 0))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sketch_join_and_estimate", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    let joined = left.join(&right);
                    black_box(EstimatorMode::Mle.estimate_joined(&joined, 0))
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sketch_build_offline", rows),
            &rows,
            |b, _| {
                b.iter(|| {
                    black_box(
                        SketchKind::Tupsk
                            .build_left(&pair.train, &pair.key_column, &pair.target_column, &cfg)
                            .expect("sketch")
                            .len(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_full_vs_sketch);
criterion_main!(benches);
