//! Micro-timing of the k-NN kernels and KSG estimator: the quick-bench
//! `knn/chebyshev_n4096` and `estimators/ksg_n4096` targets, runnable alone,
//! on the exact same workload ([`joinmi_bench::knn_correlated_pair`]) so the
//! printed medians stay comparable to `BENCH_PR17.json` and the criterion
//! `knn` group.

use std::time::Instant;

use joinmi::estimators::knn::{kth_nn_distances_chebyshev, kth_nn_distances_chebyshev_scalar};
use joinmi::estimators::ksg_mi;
use joinmi_bench::knn_correlated_pair;

fn median_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn main() {
    let (xs, ys) = knn_correlated_pair(4096);

    let scalar = median_ns(25, || kth_nn_distances_chebyshev_scalar(&xs, &ys, 3));
    let knn = median_ns(25, || kth_nn_distances_chebyshev(&xs, &ys, 3));
    let ksg = median_ns(25, || ksg_mi(&xs, &ys, 3).unwrap());
    println!("knn/chebyshev_n4096_scalar {scalar:>12.0} ns");
    println!(
        "knn/chebyshev_n4096        {knn:>12.0} ns   ({:.2}x vs scalar)",
        scalar / knn
    );
    println!("estimators/ksg_n4096       {ksg:>12.0} ns");
}
