//! The discrete–continuous MI estimator of Ross (PLoS ONE 2014), referred to
//! as "DC-KSG" in the paper.
//!
//! For a discrete variable `X` (integer codes) and a continuous variable `Y`:
//! for each sample `i`,
//!
//! * `N_{x_i}` = number of samples sharing the discrete value `x_i`,
//! * `d_i` = distance from `y_i` to its `k`-th nearest neighbour *among the
//!   samples with the same discrete value* (with `k_i = min(k, N_{x_i} − 1)`),
//! * `m_i` = number of samples (over the full data set) whose `y` lies within
//!   `d_i` of `y_i` — following the scikit-learn convention the radius is
//!   shrunk infinitesimally so the count is strictly inside the `k`-th
//!   neighbour, and the count includes the point itself.
//!
//! `Î = ψ(N) + ⟨ψ(k_i)⟩ − ⟨ψ(N_{x_i})⟩ − ⟨ψ(m_i)⟩`
//!
//! Samples whose discrete value is unique (`N_{x_i} = 1`) carry no usable
//! neighbourhood information and are excluded from the averages, again
//! matching the reference implementation.

use joinmi_hash::FixedHashMap;

use crate::error::EstimatorError;
use crate::knn::kth_1d_at;
use crate::special::digamma;
use crate::workspace::{EstimatorWorkspace, ACC_CHUNK};
use crate::Result;

/// DC-KSG (Ross) estimate of `I(X; Y)` in nats, `X` discrete and `Y`
/// continuous. Clamped at 0.
pub fn dc_ksg_mi(x_codes: &[u32], y: &[f64], k: usize) -> Result<f64> {
    dc_ksg_mi_with(&mut EstimatorWorkspace::new(), x_codes, y, k)
}

/// [`dc_ksg_mi`] against a caller-owned [`EstimatorWorkspace`], so batch
/// callers reuse the sort and group-gather buffers across estimates.
pub fn dc_ksg_mi_with(
    ws: &mut EstimatorWorkspace,
    x_codes: &[u32],
    y: &[f64],
    k: usize,
) -> Result<f64> {
    if x_codes.len() != y.len() {
        return Err(EstimatorError::LengthMismatch {
            x_len: x_codes.len(),
            y_len: y.len(),
        });
    }
    if k == 0 {
        return Err(EstimatorError::InvalidParameter(
            "k must be >= 1".to_owned(),
        ));
    }
    if x_codes.len() < 2 {
        return Err(EstimatorError::InsufficientSamples {
            available: x_codes.len(),
            required: 2,
        });
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(EstimatorError::IncompatibleTypes {
            estimator: "DC-KSG".to_owned(),
            detail: "non-finite continuous coordinate".to_owned(),
        });
    }

    // Group the sample by discrete value, each group's y in sorted order,
    // from the one sort of the full y column that the counts need anyway.
    let n = y.len();
    ws.y_marginal.prepare(y);
    ws.groups.build(x_codes, ws.y_marginal.sorted_points());
    ws.counts.grow_psi(n);
    let (groups, y_marginal, counts) = (&ws.groups, &ws.y_marginal, &ws.counts);

    // Parallel deterministic accumulation: fixed chunks, per-chunk partial
    // sums, ordered reduction. Samples in singleton groups are skipped. Each
    // full-data count starts from the point's own rank in the sorted y
    // marginal instead of two full-range binary searches.
    let partials = joinmi_par::par_map_ranges(n, ACC_CHUNK, |range| {
        let mut used = 0usize;
        let (mut psi_k, mut psi_label, mut psi_m) = (0.0f64, 0.0f64, 0.0f64);
        for i in range {
            let (group_y, pos) = groups.of(i);
            let group_size = group_y.len();
            if group_size < 2 {
                continue;
            }
            used += 1;
            let local_k = k.min(group_size - 1);
            // Shrink the within-group k-th distance infinitesimally
            // (scikit-learn's nextafter trick) so the full-data count is
            // strictly inside the k-th within-group neighbour.
            let r = kth_1d_at(group_y, pos, local_k);
            let radius = if r > 0.0 { r * (1.0 - 1e-12) } else { 0.0 };
            let m = y_marginal.count_within(i, radius).max(1);
            psi_k += counts.psi(local_k);
            psi_label += counts.psi(group_size);
            psi_m += counts.psi(m);
        }
        (used, psi_k, psi_label, psi_m)
    });
    let mut n_used = 0usize;
    let mut sum_psi_k = 0.0;
    let mut sum_psi_label = 0.0;
    let mut sum_psi_m = 0.0;
    for (used, psi_k, psi_label, psi_m) in partials {
        n_used += used;
        sum_psi_k += psi_k;
        sum_psi_label += psi_label;
        sum_psi_m += psi_m;
    }

    if n_used == 0 {
        return Err(EstimatorError::InsufficientSamples {
            available: 0,
            required: 2,
        });
    }

    let n_f = n_used as f64;
    let mi = digamma(n_f) + sum_psi_k / n_f - sum_psi_label / n_f - sum_psi_m / n_f;
    Ok(mi.max(0.0))
}

/// A sample grouped by discrete value: one offset array over one buffer of
/// per-group sorted y, in place of a map of per-group index lists.
///
/// Codes below the sample size index the groups directly (the sketch join's
/// first-occurrence codes always do); any other code set is first renumbered
/// in first-occurrence order. Group numbering never reaches the estimate:
/// the sums run in sample order.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseGroups {
    /// Each point's group.
    group: Vec<u32>,
    /// Renumbering of sparse codes.
    renumber: FixedHashMap<u32, u32>,
    /// Group `g`'s values occupy `sorted_y[start[g]..start[g + 1]]`.
    start: Vec<u32>,
    /// Next free slot per group while filling.
    fill: Vec<u32>,
    /// Each point's slot in `sorted_y`.
    slot: Vec<u32>,
    sorted_y: Vec<f64>,
}

impl DenseGroups {
    /// Groups `codes`, filling each group's values in the order
    /// `sorted_points` yields them (ascending, ties by point index — the
    /// order sorting the group on its own would give).
    pub(crate) fn build(
        &mut self,
        codes: &[u32],
        sorted_points: impl Iterator<Item = (usize, f64)>,
    ) {
        let n = codes.len();
        self.group.clear();
        let max_code = codes.iter().copied().max().map_or(0, |c| c as usize);
        let groups = if max_code < n {
            self.group.extend_from_slice(codes);
            max_code + 1
        } else {
            self.renumber.clear();
            for &c in codes {
                let next = self.renumber.len() as u32;
                self.group.push(*self.renumber.entry(c).or_insert(next));
            }
            self.renumber.len()
        };

        // Counts shifted by one, then prefix sums: group offsets.
        self.start.clear();
        self.start.resize(groups + 1, 0);
        for &g in &self.group {
            self.start[g as usize + 1] += 1;
        }
        for g in 0..groups {
            self.start[g + 1] += self.start[g];
        }

        self.fill.clear();
        self.fill.extend_from_slice(&self.start[..groups]);
        self.slot.resize(n, 0);
        self.sorted_y.resize(n, 0.0);
        for (i, v) in sorted_points {
            let g = self.group[i] as usize;
            let s = self.fill[g];
            self.fill[g] += 1;
            self.slot[i] = s;
            self.sorted_y[s as usize] = v;
        }
    }

    /// Point `i`'s group as sorted values, and `i`'s position among them.
    #[inline]
    pub(crate) fn of(&self, i: usize) -> (&[f64], usize) {
        let g = self.group[i] as usize;
        let (lo, hi) = (self.start[g] as usize, self.start[g + 1] as usize);
        (&self.sorted_y[lo..hi], self.slot[i] as usize - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn independent_discrete_and_continuous_near_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 3000;
        let x: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mi = dc_ksg_mi(&x, &y, 3).unwrap();
        assert!(mi < 0.05, "mi = {mi}");
    }

    #[test]
    fn cdunif_matches_closed_form() {
        // X uniform over {0..m-1}, Y ~ U[X, X+2]:
        // I = ln m − (m−1) ln 2 / m.
        let mut rng = StdRng::seed_from_u64(9);
        for m in [2u32, 8, 32] {
            let n = 6000;
            let mut x = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let xv = rng.gen_range(0..m);
                x.push(xv);
                y.push(f64::from(xv) + 2.0 * rng.gen::<f64>());
            }
            let expected = f64::from(m).ln() - (f64::from(m) - 1.0) * 2.0_f64.ln() / f64::from(m);
            let mi = dc_ksg_mi(&x, &y, 3).unwrap();
            assert!(
                (mi - expected).abs() < 0.1,
                "m={m}: mi={mi}, expected={expected}"
            );
        }
    }

    #[test]
    fn perfectly_separated_groups_have_high_mi() {
        // Each discrete value maps to a narrow disjoint band of Y; the MI
        // should approach H(X) = ln 4.
        let mut rng = StdRng::seed_from_u64(17);
        let n = 4000;
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let c: u32 = rng.gen_range(0..4);
            x.push(c);
            y.push(f64::from(c) * 10.0 + rng.gen::<f64>());
        }
        let mi = dc_ksg_mi(&x, &y, 3).unwrap();
        assert!((mi - 4.0_f64.ln()).abs() < 0.15, "mi = {mi}");
    }

    #[test]
    fn singleton_groups_are_ignored() {
        // Two usable groups plus a singleton; should not panic and should
        // produce a finite estimate.
        let x = vec![0, 0, 0, 1, 1, 1, 2];
        let y = vec![0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 100.0];
        let mi = dc_ksg_mi(&x, &y, 2).unwrap();
        assert!(mi.is_finite());
        assert!(mi > 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(dc_ksg_mi(&[0, 1], &[0.0], 1).is_err());
        assert!(dc_ksg_mi(&[0, 1], &[0.0, 1.0], 0).is_err());
        assert!(dc_ksg_mi(&[0], &[0.0], 1).is_err());
        assert!(dc_ksg_mi(&[0, 1], &[0.0, f64::NAN], 1).is_err());
        // All-singleton groups cannot be estimated.
        assert!(dc_ksg_mi(&[0, 1, 2], &[0.0, 1.0, 2.0], 1).is_err());
    }
}
