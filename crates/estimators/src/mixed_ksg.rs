//! The MixedKSG estimator (Gao, Kannan, Oh, Viswanath — NeurIPS 2017) for
//! variables that are discrete–continuous *mixtures*.
//!
//! Left joins on non-unique keys produce feature columns that repeat values
//! according to the join-key frequency distribution (Section III of the
//! paper); such columns are neither purely continuous (KSG's assumption) nor
//! purely discrete (MLE's assumption). MixedKSG handles them by falling back
//! to plug-in-style counting wherever the k-NN radius collapses to zero:
//!
//! For each sample `i`, let `ρ_i` be the Chebyshev distance to its `k`-th
//! nearest neighbour in the joint space.
//!
//! * If `ρ_i = 0` (the point has ≥ k exact copies): `k̃_i` = number of points
//!   at distance 0 from `i`, and `n_x`, `n_y` count exact marginal ties.
//! * Otherwise `k̃_i = k` and `n_x`, `n_y` count points whose marginal
//!   distance is strictly less than `ρ_i`.
//!
//! `Î = (1/N) Σ_i [ ψ(k̃_i) + ln N − ln(n_x,i) − ln(n_y,i) ]`
//!
//! (counts include the point itself, matching the authors' reference
//! implementation).

use crate::error::EstimatorError;
use crate::special::digamma;
use crate::workspace::{EstimatorWorkspace, ACC_CHUNK};
use crate::Result;

/// MixedKSG estimate of `I(X; Y)` in nats. Counts and radii follow the
/// reference implementation of Gao et al.; the estimate is clamped at 0.
pub fn mixed_ksg_mi(x: &[f64], y: &[f64], k: usize) -> Result<f64> {
    mixed_ksg_mi_with(&mut EstimatorWorkspace::new(), x, y, k)
}

/// [`mixed_ksg_mi`] against a caller-owned [`EstimatorWorkspace`], so batch
/// callers reuse the sort buffers across estimates instead of reallocating.
pub fn mixed_ksg_mi_with(
    ws: &mut EstimatorWorkspace,
    x: &[f64],
    y: &[f64],
    k: usize,
) -> Result<f64> {
    validate(x, y, k)?;
    let n = x.len();
    let n_f = n as f64;

    ws.prepare_joint(x, y);
    ws.joint.kth_nn_distances_into(k, &mut ws.dists);
    let rho = &ws.dists;

    // Joint tie counting needs exact-pair counts; count them, keyed on both
    // coordinate bit patterns, only if some radius is zero.
    ws.joint_ties.clear();
    if rho.contains(&0.0) {
        for (a, b) in x.iter().zip(y) {
            *ws.joint_ties.entry((a.to_bits(), b.to_bits())).or_insert(0) += 1;
        }
        ws.counts.grow_psi(n);
    }
    ws.counts.grow_ln(n);
    let (joint, y_marginal, joint_ties, counts) =
        (&ws.joint, &ws.y_marginal, &ws.joint_ties, &ws.counts);

    // `ψ(k̃) + ln N` for every point with a positive radius, hoisted; each
    // term below still evaluates as `((ψ(k̃) + ln N) − ln n_x) − ln n_y`.
    let ln_n = n_f.ln();
    let psi_k_ln_n = digamma(k as f64) + ln_n;

    // Parallel deterministic accumulation (fixed chunks, ordered reduction).
    let partials = joinmi_par::par_map_ranges(n, ACC_CHUNK, |range| {
        let mut acc = 0.0;
        for i in range {
            let (c, nx, ny) = if rho[i] == 0.0 {
                let ties = joint_ties
                    .get(&(x[i].to_bits(), y[i].to_bits()))
                    .copied()
                    .unwrap_or(1);
                (
                    counts.psi(ties) + ln_n,
                    joint.x_count_equal(i),
                    y_marginal.count_equal(i),
                )
            } else {
                (
                    psi_k_ln_n,
                    joint.x_count_strictly_within(i, rho[i]),
                    y_marginal.count_strictly_within(i, rho[i]),
                )
            };
            acc += c - counts.ln(nx.max(1)) - counts.ln(ny.max(1));
        }
        acc
    });
    let acc: f64 = partials.into_iter().sum();

    Ok((acc / n_f).max(0.0))
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
            estimator: "MixedKSG".to_owned(),
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

    #[test]
    fn purely_continuous_data_close_to_ksg() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 2000;
        let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let y: Vec<f64> = x.iter().map(|v| v + 0.1 * rng.gen::<f64>()).collect();
        let mixed = mixed_ksg_mi(&x, &y, 3).unwrap();
        let ksg = crate::ksg::ksg_mi(&x, &y, 3).unwrap();
        assert!((mixed - ksg).abs() < 0.15, "mixed={mixed}, ksg={ksg}");
    }

    #[test]
    fn cdunif_matches_closed_form() {
        // The paper's CDUnif distribution: X uniform over {0..m-1},
        // Y ~ U[X, X+2]; I(X;Y) = ln m − (m−1) ln 2 / m.
        let mut rng = StdRng::seed_from_u64(5);
        for m in [4u32, 16, 64] {
            let n = 6000;
            let mut x = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let xv = f64::from(rng.gen_range(0..m));
                x.push(xv);
                y.push(xv + 2.0 * rng.gen::<f64>());
            }
            let expected = f64::from(m).ln() - (f64::from(m) - 1.0) * 2.0_f64.ln() / f64::from(m);
            let mi = mixed_ksg_mi(&x, &y, 5).unwrap();
            assert!(
                (mi - expected).abs() < 0.12,
                "m={m}: mi={mi}, expected={expected}"
            );
        }
    }

    #[test]
    fn fully_discrete_data_close_to_mle() {
        // Identical discrete variables with 4 levels: I = H = ln 4.
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| f64::from(i % 4)).collect();
        let mi = mixed_ksg_mi(&x, &x, 3).unwrap();
        assert!((mi - 4.0_f64.ln()).abs() < 0.1, "mi = {mi}");
    }

    #[test]
    fn independent_mixture_near_zero() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 2000;
        // X discrete with repeats, Y continuous, independent.
        let x: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..5))).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mi = mixed_ksg_mi(&x, &y, 3).unwrap();
        assert!(mi < 0.05, "mi = {mi}");
    }

    #[test]
    fn validation_errors() {
        assert!(mixed_ksg_mi(&[1.0], &[1.0, 2.0], 1).is_err());
        assert!(mixed_ksg_mi(&[1.0, 2.0], &[1.0, 2.0], 0).is_err());
        assert!(mixed_ksg_mi(&[1.0, 2.0, 3.0], &[1.0, 2.0, f64::INFINITY], 1).is_err());
    }
}
