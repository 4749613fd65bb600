//! The arithmetic every reported number goes through: percentiles over op
//! samples, medians over the slices of a measured phase, and the quartiles
//! `compare` and the repeatability record use.

/// Slices a measured phase is cut into; rates are medians over these.
pub const SLICES: usize = 5;

/// Samples that must lie beyond a tail percentile for it to be reported.
const TAIL_SUPPORT: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule on a
/// sorted copy; `0.0` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle values for an even count.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: 0.95, or lower when fewer
/// than ten samples would lie beyond it.
#[must_use]
pub fn tail_quantile(n: usize) -> f64 {
    if n <= TAIL_SUPPORT {
        return 0.5;
    }
    (1.0 - TAIL_SUPPORT as f64 / n as f64).min(0.95)
}

/// The three quartile cut points, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method): the rule the
/// benchmark's acceptance is judged with. Needs at least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Spread of a set of runs: interquartile distance as a share of the median.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One slice of a measured phase, as the sampler saw it at its boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Wall time of the slice, seconds.
    pub seconds: f64,
    /// Ops that completed inside the slice.
    pub ops: u64,
    /// User + system CPU the measured process spent in the slice, ms.
    pub cpu_ms: f64,
}

/// Median over the slices of ops completed ÷ wall time.
#[must_use]
pub fn slice_ops_per_s(slices: &[Slice]) -> f64 {
    median(&slice_rates(slices))
}

/// Per-slice ops ÷ wall time.
#[must_use]
pub fn slice_rates(slices: &[Slice]) -> Vec<f64> {
    slices
        .iter()
        .filter(|s| s.seconds > 0.0)
        .map(|s| s.ops as f64 / s.seconds)
        .collect()
}

/// Median over the slices of CPU ÷ ops; slices without an op are skipped.
#[must_use]
pub fn slice_cpu_ms_per_op(slices: &[Slice]) -> f64 {
    let per_op: Vec<f64> = slices
        .iter()
        .filter(|s| s.ops > 0)
        .map(|s| s.cpu_ms / s.ops as f64)
        .collect();
    median(&per_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert!((tail_quantile(100) - 0.90).abs() < 1e-12);
        assert_eq!(tail_quantile(8), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_medians_ignore_one_slow_slice() {
        let slices = [
            Slice {
                seconds: 2.0,
                ops: 100,
                cpu_ms: 400.0,
            },
            Slice {
                seconds: 2.0,
                ops: 102,
                cpu_ms: 410.0,
            },
            Slice {
                seconds: 2.0,
                ops: 20,
                cpu_ms: 300.0,
            },
            Slice {
                seconds: 2.0,
                ops: 98,
                cpu_ms: 390.0,
            },
            Slice {
                seconds: 2.0,
                ops: 101,
                cpu_ms: 404.0,
            },
        ];
        assert_eq!(slice_ops_per_s(&slices), 50.0);
        assert_eq!(slice_cpu_ms_per_op(&slices), 4.0);
        assert_eq!(slice_rates(&slices).len(), SLICES);
        // A slice in which nothing completed contributes no CPU-per-op value.
        let idle = [Slice {
            seconds: 1.0,
            ops: 0,
            cpu_ms: 5.0,
        }];
        assert_eq!(slice_cpu_ms_per_op(&idle), 0.0);
    }
}
