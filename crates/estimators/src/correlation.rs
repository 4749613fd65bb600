//! Correlation measures.
//!
//! Pearson's correlation is what the Correlation-Sketches baseline (CSK)
//! estimates instead of MI; Spearman's rank correlation is the metric the
//! paper uses to compare sketch-based rankings against full-join rankings
//! (Table II).

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `None` if the inputs are shorter than 2 or either has zero
/// variance.
#[must_use]
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mean_x;
        let dy = b - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return None;
    }
    Some(cov / (var_x.sqrt() * var_y.sqrt()))
}

/// Spearman's rank correlation (Pearson correlation of the ranks, with
/// average ranks for ties).
#[must_use]
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = average_ranks(x);
    let ry = average_ranks(y);
    pearson(&rx, &ry)
}

/// Assigns average ranks (1-based) to a sample, ties receiving the mean of
/// the ranks they span.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite values"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Average of ranks i+1 ..= j+1.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert!(pearson(&[1.0], &[1.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[1.0]).is_none());
    }

    #[test]
    fn spearman_is_invariant_to_monotone_transforms() {
        let x: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        // Pearson of the same data is below 1 (nonlinear), Spearman is exactly 1.
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties_with_average_ranks() {
        let x = vec![1.0, 2.0, 2.0, 3.0];
        let ranks = average_ranks(&x);
        assert_eq!(ranks, vec![1.0, 2.5, 2.5, 4.0]);
        let y = vec![10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_data_near_zero() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 0.25);
        assert!(spearman(&x, &y).unwrap().abs() < 0.25);
    }
}
