//! Plug-in (maximum likelihood) mutual information for discrete–discrete
//! variable pairs, plus the Laplace-smoothed variant mentioned in the paper's
//! conclusion.

use std::collections::HashMap;

use crate::contingency::plug_in_mi;
use crate::error::EstimatorError;
use crate::workspace::EstimatorWorkspace;
use crate::Result;

/// Plug-in MLE estimate of `I(X; Y)` for two discrete samples given as
/// integer codes.
///
/// `Î = Σ_{x,y} p̂(x,y) ln [ p̂(x,y) / (p̂(x) p̂(y)) ]`, in nats.
///
/// The estimate is clamped at 0 (the true MI is non-negative, and tiny
/// negative values can appear from floating-point cancellation). The sum
/// runs in the iteration order of a deterministically hashed joint table,
/// so the estimate is bit-for-bit reproducible across runs and across
/// parallel and sequential replays.
pub fn mle_mi(x: &[u32], y: &[u32]) -> Result<f64> {
    mle_mi_with(&mut EstimatorWorkspace::new(), x, y)
}

/// [`mle_mi`] against a caller-owned [`EstimatorWorkspace`], whose marginal
/// count buffers it reuses. The result is bit-identical to [`mle_mi`].
pub fn mle_mi_with(ws: &mut EstimatorWorkspace, x: &[u32], y: &[u32]) -> Result<f64> {
    plug_in_mi(ws, x, y)
}

/// Laplace-smoothed MI: every cell of the joint contingency table over the
/// *observed* supports gets a pseudo-count `alpha` before the plug-in formula
/// is applied. Smoothing shrinks the estimate toward independence, trading
/// the MLE's high recall for fewer false discoveries (see the paper's
/// conclusion and Pennerath et al. 2020).
pub fn smoothed_mle_mi(x: &[u32], y: &[u32], alpha: f64) -> Result<f64> {
    check_lengths(x, y)?;
    if alpha < 0.0 {
        return Err(EstimatorError::InvalidParameter(format!(
            "smoothing pseudo-count must be non-negative, got {alpha}"
        )));
    }
    if alpha == 0.0 {
        return mle_mi(x, y);
    }
    let n = x.len() as f64;

    let mut xs = x.to_vec();
    xs.sort_unstable();
    xs.dedup();
    let mut ys = y.to_vec();
    ys.sort_unstable();
    ys.dedup();

    let mut joint: HashMap<(u32, u32), f64> = HashMap::new();
    for (&a, &b) in x.iter().zip(y) {
        *joint.entry((a, b)).or_default() += 1.0;
    }

    let total = n + alpha * (xs.len() as f64) * (ys.len() as f64);
    // Smoothed marginals are the row/column sums of the smoothed joint.
    let mut mi = 0.0;
    for &a in &xs {
        for &b in &ys {
            let nab = joint.get(&(a, b)).copied().unwrap_or(0.0) + alpha;
            let pab = nab / total;
            let na: f64 = ys
                .iter()
                .map(|&bb| joint.get(&(a, bb)).copied().unwrap_or(0.0) + alpha)
                .sum();
            let nb: f64 = xs
                .iter()
                .map(|&aa| joint.get(&(aa, b)).copied().unwrap_or(0.0) + alpha)
                .sum();
            let pa = na / total;
            let pb = nb / total;
            if pab > 0.0 {
                mi += pab * (pab / (pa * pb)).ln();
            }
        }
    }
    Ok(mi.max(0.0))
}

fn check_lengths(x: &[u32], y: &[u32]) -> Result<()> {
    if x.len() != y.len() {
        return Err(EstimatorError::LengthMismatch {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    if x.is_empty() {
        return Err(EstimatorError::InsufficientSamples {
            available: 0,
            required: 1,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_variables_have_mi_equal_to_entropy() {
        let x = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let mi = mle_mi(&x, &x).unwrap();
        assert!((mi - 4.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn independent_variables_have_zero_mi() {
        // X and Y each uniform over {0,1}, all 4 combinations equally often.
        let x = vec![0, 0, 1, 1];
        let y = vec![0, 1, 0, 1];
        assert!(mle_mi(&x, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn bijection_invariance() {
        let x = vec![0, 1, 2, 0, 1, 2, 2, 2];
        let y = vec![5, 5, 7, 5, 6, 7, 7, 6];
        let relabeled: Vec<u32> = x.iter().map(|&v| 10 - v).collect();
        assert!((mle_mi(&x, &y).unwrap() - mle_mi(&relabeled, &y).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric() {
        let x = vec![0, 1, 1, 2, 2, 2, 0, 1];
        let y = vec![1, 1, 0, 2, 2, 0, 0, 1];
        assert!((mle_mi(&x, &y).unwrap() - mle_mi(&y, &x).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(mle_mi(&[0, 1], &[0]).is_err());
        assert!(mle_mi(&[], &[]).is_err());
        assert!(smoothed_mle_mi(&[0], &[0], -1.0).is_err());
    }

    #[test]
    fn smoothing_shrinks_toward_zero() {
        let x = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let plain = mle_mi(&x, &x).unwrap();
        let smooth = smoothed_mle_mi(&x, &x, 1.0).unwrap();
        assert!(smooth < plain);
        assert!(smooth > 0.0);
        // alpha = 0 reproduces the plain estimator.
        assert!((smoothed_mle_mi(&x, &x, 0.0).unwrap() - plain).abs() < 1e-12);
    }

    #[test]
    fn smoothing_of_independent_data_stays_near_zero() {
        let x = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(smoothed_mle_mi(&x, &y, 0.5).unwrap() < 1e-9);
    }

    #[test]
    fn bias_shows_up_empirically_for_independent_uniforms() {
        // With m distinct values each and independent X, Y the true MI is 0
        // but the MLE gives roughly (m−1)² / (2N) > 0.
        let m = 8u32;
        let n = 512usize;
        // Deterministic "random" assignment via an LCG.
        let mut state = 42u64;
        let mut next = |modulus: u32| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) % u64::from(modulus)) as u32
        };
        let x: Vec<u32> = (0..n).map(|_| next(m)).collect();
        let y: Vec<u32> = (0..n).map(|_| next(m)).collect();
        let mi = mle_mi(&x, &y).unwrap();
        // Eq. 6 of the paper (Roulston 1999): the first-order bias is
        // (m_X + m_Y − m_XY − 1) / (2N), here with m_X = m_Y = m, m_XY = m².
        let m_f = f64::from(m);
        let predicted = ((m_f + m_f - m_f * m_f - 1.0) / (2.0 * n as f64)).abs();
        // The empirical overestimate should be positive and of the same order
        // as the |bias| prediction (not exact — Eq. 6 is first-order).
        assert!(mi > 0.0);
        assert!(
            mi < 6.0 * predicted + 0.05,
            "mi = {mi}, predicted bias = {predicted}"
        );
    }
}
