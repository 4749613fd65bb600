//! Posterior distribution of discrete mutual information (Hutter 2001,
//! Hutter & Zaffalon 2005).
//!
//! Given the contingency table of a discrete sample pair, the Bayesian
//! treatment puts a Dirichlet posterior on the joint distribution and asks
//! for the distribution of `I(X; Y)` under it. Hutter gives closed forms for
//! the leading-order moments:
//!
//! * posterior mean
//!   `E[I] = (1/n) Σ_ij n_ij [ψ(n_ij+1) − ψ(n_i+1) − ψ(n_j+1) + ψ(n+1)]`,
//! * posterior variance `Var[I] ≈ (K − J²) / (n + 1)` where
//!   `J = Σ_ij (n_ij/n) ln(n_ij n / (n_i n_j))` (the plug-in MI) and
//!   `K` is the same sum with the logarithm squared.
//!
//! Both are exact in the counts the MLE already accumulates, and both come
//! out of the MLE's own contingency pass: one joint table and one walk over
//! its cells give the plug-in MI, the mean and the variance together
//! ([`mle_mi_posterior_with`]), with `ψ` of the integer counts read from the
//! workspace's table. No resampling. The discovery layer uses them to attach
//! credible intervals to every candidate score and to terminate candidates
//! whose interval cannot reach the running top-k.
//!
//! The moments use the observed counts as the Dirichlet parameters (the
//! "counts-only" posterior); cells never observed carry no mass and drop out
//! of the sums. For continuous or mixed samples the interval is computed on
//! the induced contingency table (exactly equal values grouped into
//! categories), the same coercion
//! [`crate::select::estimate_mi_with_workspace`] applies when the MLE is
//! forced onto numeric data.

use crate::contingency::plug_in_mi_and_posterior;
use crate::error::EstimatorError;
use crate::workspace::EstimatorWorkspace;
use crate::Result;

/// Posterior mean and variance of `I(X; Y)` from a discrete sample pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiPosterior {
    /// Posterior mean `E[I]` in nats (non-negative).
    pub mean: f64,
    /// Leading-order posterior variance `Var[I]` (non-negative).
    pub variance: f64,
    /// Number of paired samples the moments were computed from.
    pub n: usize,
}

/// A credible interval attached to a point MI estimate.
///
/// Invariant (for finite `mi`): `0 ≤ ci_lo ≤ mi ≤ ci_hi`. The interval is
/// centred on the posterior mean and then extended to bracket the point
/// estimate, so ranking by `mi` and ranking by any fixed quantile of the
/// interval agree on which candidates are even plausible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiInterval {
    /// Posterior variance of the estimate.
    pub variance: f64,
    /// Lower credible bound (clamped to `[0, mi]`).
    pub ci_lo: f64,
    /// Upper credible bound (at least `mi`).
    pub ci_hi: f64,
    /// Two-sided confidence level in `(0, 1)`.
    pub level: f64,
}

/// Computes the posterior moments of `I(X; Y)` from integer-coded samples.
///
/// The contingency table is accumulated in a deterministically seeded map so
/// the floating-point sums run in a fixed order — estimates are bit-for-bit
/// reproducible across runs and across parallel/sequential replays, matching
/// the discipline of [`crate::mle::mle_mi`].
pub fn mi_posterior(x: &[u32], y: &[u32]) -> Result<MiPosterior> {
    mi_posterior_with(&mut EstimatorWorkspace::new(), x, y)
}

/// [`mi_posterior`] against a caller-owned [`EstimatorWorkspace`], whose
/// count buffers and `ψ` table it reuses. Bit-identical to [`mi_posterior`].
pub fn mi_posterior_with(ws: &mut EstimatorWorkspace, x: &[u32], y: &[u32]) -> Result<MiPosterior> {
    Ok(mle_mi_posterior_with(ws, x, y)?.1)
}

/// The plug-in MI ([`crate::mle::mle_mi`]) and the posterior moments
/// ([`mi_posterior`]) of one code pair from one contingency pass, each
/// bit-identical to its own function.
pub fn mle_mi_posterior_with(
    ws: &mut EstimatorWorkspace,
    x: &[u32],
    y: &[u32],
) -> Result<(f64, MiPosterior)> {
    plug_in_mi_and_posterior(ws, x, y)
}

/// Whether [`credible_interval`] accepts `level` as a two-sided confidence
/// level: `level > 0` and `0.5 + level / 2`, the normal quantile's argument,
/// strictly below 1. That refuses everything outside `(0, 1)` and also
/// `1 − 2⁻⁵³`, the largest double below 1, whose half rounds the sum up to
/// exactly 1. Layers that validate a level before scoring call this, so
/// they refuse exactly what the interval would.
#[must_use]
pub fn is_valid_level(level: f64) -> bool {
    level > 0.0 && 0.5 + level / 2.0 < 1.0
}

/// Builds the credible interval for a point estimate `mi` from posterior
/// moments at the given two-sided `level` (e.g. `0.95`).
///
/// The raw interval is `mean ± z σ` with `z = Φ⁻¹((1 + level) / 2)`; it is
/// then clamped below at 0 (MI is non-negative) and extended to bracket the
/// point estimate, preserving `ci_lo ≤ mi ≤ ci_hi` for finite `mi`. A
/// non-finite `mi` degrades gracefully to the posterior-centred bounds.
pub fn credible_interval(mi: f64, posterior: MiPosterior, level: f64) -> Result<MiInterval> {
    if !is_valid_level(level) {
        return Err(EstimatorError::InvalidParameter(format!(
            "confidence level must be in (0, 1), got {level}"
        )));
    }
    let z = normal_quantile(0.5 + level / 2.0);
    let sigma = posterior.variance.max(0.0).sqrt();
    let lo_raw = posterior.mean - z * sigma;
    let hi_raw = posterior.mean + z * sigma;
    Ok(MiInterval {
        variance: posterior.variance,
        ci_lo: lo_raw.max(0.0).min(mi),
        ci_hi: hi_raw.max(mi),
        level,
    })
}

/// Standard normal quantile function `Φ⁻¹(p)` for `p ∈ (0, 1)`.
///
/// Acklam's rational approximation (relative error below `1.2e-9` over the
/// whole domain) — more than enough for credible-interval endpoints, and it
/// keeps the crate free of external special-function dependencies.
fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0, 1), got {p}"
    );
    // Acklam's published coefficients, highest degree first.
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_5,
        -275.928_510_446_968_7,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 6] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
        1.0,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -0.322_396_458_041_136_5,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 5] = [
        7.784_695_709_041_462e-3,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
        1.0,
    ];
    const P_LOW: f64 = 0.024_25;

    let polyval = |coeffs: &[f64], x: f64| coeffs.iter().fold(0.0, |acc, &c| acc * x + c);

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        polyval(&C, q) / polyval(&D, q)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        polyval(&A, r) * q / polyval(&B, r)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -polyval(&C, q) / polyval(&D, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mle::mle_mi;
    use crate::select::{estimate_mi_interval_with_workspace, force_codes};
    use crate::variable::Variable;

    fn repeated(pattern: &[u32], reps: usize) -> Vec<u32> {
        pattern
            .iter()
            .copied()
            .cycle()
            .take(pattern.len() * reps)
            .collect()
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-6);
        assert!((normal_quantile(0.995) - 2.575_829_303_548_901).abs() < 1e-6);
        // Symmetry: Φ⁻¹(p) = −Φ⁻¹(1 − p), including the tail branches.
        for p in [0.001, 0.01, 0.1, 0.3] {
            assert!(
                (normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-7,
                "p = {p}"
            );
        }
        // Monotone across the branch boundaries.
        let mut prev = f64::NEG_INFINITY;
        for i in 1..100 {
            let q = normal_quantile(f64::from(i) / 100.0);
            assert!(q > prev);
            prev = q;
        }
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn normal_quantile_rejects_out_of_range() {
        let _ = normal_quantile(1.0);
    }

    #[test]
    fn posterior_mean_tracks_mle_for_large_samples() {
        let x = repeated(&[0, 1, 2, 3], 1000);
        let post = mi_posterior(&x, &x).unwrap();
        let mle = mle_mi(&x, &x).unwrap();
        // Identical variables: MI = ln 4; the posterior mean agrees with the
        // plug-in estimate up to O(1/n) correction terms.
        assert!((post.mean - mle).abs() < 0.01, "mean = {}", post.mean);
        assert!((post.mean - 4.0_f64.ln()).abs() < 0.01);
        assert_eq!(post.n, 4000);
    }

    #[test]
    fn independent_sample_has_small_mean_and_variance() {
        let x = repeated(&[0, 0, 1, 1], 64);
        let y = repeated(&[0, 1, 0, 1], 64);
        let post = mi_posterior(&x, &y).unwrap();
        assert!(post.mean >= 0.0);
        assert!(post.mean < 0.05, "mean = {}", post.mean);
        assert!(post.variance >= 0.0);
        assert!(post.variance < 0.01, "variance = {}", post.variance);
    }

    #[test]
    fn variance_shrinks_with_sample_size() {
        // A dependent but noisy pattern so the variance is strictly positive.
        let pattern_x = [0u32, 0, 1, 1, 0, 1, 2, 2];
        let pattern_y = [0u32, 1, 1, 1, 0, 0, 2, 1];
        let small = mi_posterior(&repeated(&pattern_x, 8), &repeated(&pattern_y, 8)).unwrap();
        let large = mi_posterior(&repeated(&pattern_x, 64), &repeated(&pattern_y, 64)).unwrap();
        assert!(small.variance > 0.0);
        assert!(large.variance > 0.0);
        assert!(
            large.variance < small.variance,
            "small = {}, large = {}",
            small.variance,
            large.variance
        );
    }

    #[test]
    fn degenerate_single_cell_table_is_exactly_zero() {
        let x = vec![7u32; 16];
        let post = mi_posterior(&x, &x).unwrap();
        assert_eq!(post.mean, 0.0);
        assert_eq!(post.variance, 0.0);
    }

    #[test]
    fn posterior_errors_on_bad_input() {
        assert!(mi_posterior(&[0, 1], &[0]).is_err());
        assert!(mi_posterior(&[], &[]).is_err());
    }

    #[test]
    fn continuous_sides_are_grouped_by_exact_equality() {
        let x = Variable::Continuous(vec![1.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        let d = Variable::Discrete(vec![0, 0, 1, 1, 0, 1, 0, 1]);
        let a = mi_posterior(&force_codes(&x), &force_codes(&x)).unwrap();
        let b = mi_posterior(&force_codes(&d), &force_codes(&d)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn credible_interval_brackets_the_point_estimate() {
        let x = repeated(&[0, 1, 2, 0, 1, 2, 2, 1], 8);
        let y = repeated(&[0, 1, 2, 0, 1, 0, 2, 1], 8);
        let post = mi_posterior(&x, &y).unwrap();
        let mle = mle_mi(&x, &y).unwrap();
        let iv = credible_interval(mle, post, 0.95).unwrap();
        assert!(iv.ci_lo >= 0.0);
        assert!(iv.ci_lo <= mle);
        assert!(iv.ci_hi >= mle);
        assert_eq!(iv.variance, post.variance);
        assert_eq!(iv.level, 0.95);
    }

    #[test]
    fn interval_widens_with_level() {
        let post = MiPosterior {
            mean: 0.5,
            variance: 0.01,
            n: 100,
        };
        let narrow = credible_interval(0.5, post, 0.5).unwrap();
        let wide = credible_interval(0.5, post, 0.99).unwrap();
        assert!(wide.ci_hi - wide.ci_lo > narrow.ci_hi - narrow.ci_lo);
    }

    #[test]
    fn interval_rejects_bad_level() {
        let post = MiPosterior {
            mean: 0.5,
            variance: 0.01,
            n: 100,
        };
        assert!(credible_interval(0.5, post, 0.0).is_err());
        assert!(credible_interval(0.5, post, 1.0).is_err());
        assert!(credible_interval(0.5, post, -0.5).is_err());
        assert!(credible_interval(0.5, post, f64::NAN).is_err());
        // Below 1, yet `0.5 + level / 2` rounds to exactly 1: refused, not a
        // panic in the normal quantile.
        let boundary = 1.0 - f64::EPSILON / 2.0;
        assert!(boundary < 1.0 && 0.5 + boundary / 2.0 == 1.0);
        assert!(!is_valid_level(boundary));
        assert!(credible_interval(0.5, post, boundary).is_err());
        // The next double down is the largest level accepted.
        let largest = 1.0 - f64::EPSILON;
        assert!(is_valid_level(largest));
        let iv = credible_interval(0.5, post, largest).unwrap();
        assert!(iv.ci_lo.is_finite() && iv.ci_hi.is_finite());
    }

    #[test]
    fn non_finite_point_estimate_degrades_to_posterior_bounds() {
        let post = MiPosterior {
            mean: 0.5,
            variance: 0.01,
            n: 100,
        };
        let iv = credible_interval(f64::NAN, post, 0.95).unwrap();
        assert!(iv.ci_lo.is_finite());
        assert!(iv.ci_hi.is_finite());
        assert!(iv.ci_lo >= 0.0);
        assert!(iv.ci_lo <= iv.ci_hi);
    }

    #[test]
    fn mi_interval_end_to_end() {
        let x = Variable::Discrete(repeated(&[0, 1, 2, 3], 32));
        let (est, iv) =
            estimate_mi_interval_with_workspace(&mut EstimatorWorkspace::new(), &x, &x, 3, 0.9)
                .unwrap();
        assert!(iv.ci_lo <= est.mi && est.mi <= iv.ci_hi);
        // Strong dependence on 128 samples: the interval should be tight.
        assert!(iv.ci_hi - iv.ci_lo < 0.5);
    }
}
