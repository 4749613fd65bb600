//! The KSG estimator (Kraskov, Stögbauer, Grassberger 2004, "estimator 1")
//! for continuous–continuous variable pairs.
//!
//! `Î(X;Y) = ψ(k) + ψ(N) − ⟨ψ(n_x + 1) + ψ(n_y + 1)⟩`
//!
//! where, for each point `i`, `ε_i` is the Chebyshev distance to its `k`-th
//! nearest neighbour in the joint space and `n_x(i)` / `n_y(i)` count the
//! points whose marginal coordinate lies strictly within `ε_i` of the query
//! (excluding the query itself).

use crate::error::EstimatorError;
use crate::special::digamma;
use crate::workspace::{EstimatorWorkspace, ACC_CHUNK};
use crate::Result;

/// KSG estimate of `I(X; Y)` in nats for two continuous samples.
///
/// `k` is the number of neighbours (3–5 is customary). The estimate is
/// clamped at 0.
///
/// KSG assumes continuous distributions: heavy ties (repeated values) make
/// `ε_i = 0` for some points, which this implementation handles by falling
/// back to counting exact ties (the same convention as MixedKSG), but if your
/// data has many repeated values prefer [`crate::mixed_ksg::mixed_ksg_mi`].
pub fn ksg_mi(x: &[f64], y: &[f64], k: usize) -> Result<f64> {
    ksg_mi_with(&mut EstimatorWorkspace::new(), x, y, k)
}

/// [`ksg_mi`] against a caller-owned [`EstimatorWorkspace`], so batch callers
/// reuse the sort buffers across estimates instead of reallocating.
pub fn ksg_mi_with(ws: &mut EstimatorWorkspace, x: &[f64], y: &[f64], k: usize) -> Result<f64> {
    validate(x, y, k)?;
    let n = x.len();
    let n_f = n as f64;

    ws.prepare_joint(x, y);
    ws.joint.kth_nn_distances_into(k, &mut ws.dists);
    ws.counts.grow_psi(n);
    let (joint, y_marginal, eps, counts) = (&ws.joint, &ws.y_marginal, &ws.dists, &ws.counts);

    // Parallel deterministic accumulation: fixed-size chunks, one partial sum
    // per chunk, reduced in chunk order — identical bits at any thread count.
    let partials = joinmi_par::par_map_ranges(n, ACC_CHUNK, |range| {
        let mut acc = 0.0;
        for i in range {
            let (nx, ny) = if eps[i] > 0.0 {
                // Counts include the point itself, hence the "+1" of the
                // formula is already incorporated (ψ(n_x + 1) with n_x
                // excluding self).
                (
                    joint.x_count_strictly_within(i, eps[i]),
                    y_marginal.count_strictly_within(i, eps[i]),
                )
            } else {
                // Degenerate neighbourhood: count exact ties instead.
                (joint.x_count_equal(i), y_marginal.count_equal(i))
            };
            acc += counts.psi(nx.max(1)) + counts.psi(ny.max(1));
        }
        acc
    });
    let acc: f64 = partials.into_iter().sum();

    let mi = digamma(k as f64) + digamma(n_f) - acc / n_f;
    Ok(mi.max(0.0))
}

fn validate(x: &[f64], y: &[f64], k: usize) -> Result<()> {
    if x.len() != y.len() {
        return Err(EstimatorError::LengthMismatch {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    if k == 0 {
        return Err(EstimatorError::InvalidParameter(
            "k must be >= 1".to_owned(),
        ));
    }
    if x.len() < k + 1 {
        return Err(EstimatorError::InsufficientSamples {
            available: x.len(),
            required: k + 1,
        });
    }
    if x.iter().chain(y).any(|v| !v.is_finite()) {
        return Err(EstimatorError::IncompatibleTypes {
            estimator: "KSG".to_owned(),
            detail: "non-finite coordinate".to_owned(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_pair(rng: &mut StdRng, rho: f64) -> (f64, f64) {
        // Box–Muller.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z1 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let z2 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).sin();
        (z1, rho * z1 + (1.0 - rho * rho).sqrt() * z2)
    }

    #[test]
    fn independent_gaussians_have_near_zero_mi() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng, 0.0);
            x.push(a);
            y.push(b);
        }
        let mi = ksg_mi(&x, &y, 3).unwrap();
        assert!(mi < 0.05, "mi = {mi}");
    }

    #[test]
    fn correlated_gaussians_match_closed_form() {
        // I = −½ ln(1 − ρ²).
        let mut rng = StdRng::seed_from_u64(7);
        for rho in [0.5, 0.9] {
            let n = 4000;
            let mut x = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let (a, b) = gaussian_pair(&mut rng, rho);
                x.push(a);
                y.push(b);
            }
            let expected = -0.5 * (1.0 - rho * rho).ln();
            let mi = ksg_mi(&x, &y, 3).unwrap();
            assert!(
                (mi - expected).abs() < 0.1,
                "rho={rho}: mi={mi}, expected={expected}"
            );
        }
    }

    #[test]
    fn deterministic_relationship_gives_large_mi() {
        let x: Vec<f64> = (0..500).map(|i| f64::from(i) / 500.0).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        let mi = ksg_mi(&x, &y, 3).unwrap();
        assert!(mi > 2.0, "mi = {mi}");
    }

    #[test]
    fn invariance_under_monotone_transformation() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 1500;
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng, 0.7);
            x.push(a);
            y.push(b);
        }
        let mi1 = ksg_mi(&x, &y, 3).unwrap();
        let x_exp: Vec<f64> = x.iter().map(|v| v.exp()).collect();
        let mi2 = ksg_mi(&x_exp, &y, 3).unwrap();
        assert!((mi1 - mi2).abs() < 0.1, "mi1={mi1}, mi2={mi2}");
    }

    #[test]
    fn input_validation() {
        assert!(ksg_mi(&[1.0, 2.0], &[1.0], 1).is_err());
        assert!(ksg_mi(&[1.0, 2.0], &[1.0, 2.0], 0).is_err());
        assert!(ksg_mi(&[1.0, 2.0], &[1.0, 2.0], 3).is_err());
        assert!(ksg_mi(&[1.0, f64::NAN], &[1.0, 2.0], 1).is_err());
    }
}
