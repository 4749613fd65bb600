//! The shared sort-once workspace for the KSG-family estimators.
//!
//! An estimate needs each column sorted once, per-point k-NN distances,
//! `ψ` and `ln` of integer counts, and (for DC-KSG) the sample grouped by
//! discrete value. [`EstimatorWorkspace`] owns all of it and is reused
//! across estimates, so a batch of estimates pays for allocations and table
//! entries once, not once per call:
//!
//! * **Sorted views.** An x-sorted [`SortedJoint`](crate::knn) whose
//!   sorted-x copy doubles as the x marginal, and a
//!   [`RankedMarginal`](crate::knn) for y. Every column is sorted **exactly
//!   once per estimate**, and every marginal count starts from the point's
//!   already-known rank.
//! * **Distances.** The per-point k-th-neighbour distances (KSG's `ε`,
//!   MixedKSG's `ρ`) land in one reused buffer.
//! * **Count tables.** `ψ(c)` and `ln(c)` for `c = 1..=n`, grown on demand by
//!   the same [`digamma`] and [`f64::ln`] calls the sums would otherwise make
//!   per point, so a lookup returns the identical value. Counts are bounded
//!   by the sample size, and the tables only grow.
//! * **Tie counts and groups.** MixedKSG's exact-pair counter and DC-KSG's
//!   dense group layout keep their allocations between calls.
//!
//! The `*_mi_with` estimator variants ([`crate::ksg::ksg_mi_with`],
//! [`crate::mixed_ksg::mixed_ksg_mi_with`],
//! [`crate::dc_ksg::dc_ksg_mi_with`]) take a `&mut EstimatorWorkspace`;
//! the classic free functions wrap them with a throwaway workspace. Batch
//! callers — candidate scoring in discovery, the evaluation grids — keep one
//! workspace per [`joinmi_par`] worker (`par_map_with`); the serving daemon
//! gives each query one workspace, shared by every shard that query scores.
//!
//! A workspace carries no results, only layout and pure functions of
//! integers: re-`prepare`-ing it for a new sample fully overwrites the
//! previous state, so reuse can never change an estimate (pinned by tests
//! here and in `tests/parallel_determinism.rs` and
//! `tests/estimator_golden_bits.rs`).

use joinmi_hash::FixedHashMap;

use crate::dc_ksg::DenseGroups;
use crate::knn::{RankedMarginal, SortedJoint};
use crate::special::digamma;

/// Fixed chunk length for the estimators' parallel accumulation loops.
///
/// Chunk boundaries must depend only on this constant — never on the worker
/// count — so the fixed-order reduction of per-chunk partial sums is
/// bit-for-bit identical across thread counts (see
/// [`joinmi_par::par_map_ranges`]).
pub(crate) const ACC_CHUNK: usize = 1024;

/// Reusable state shared by the KSG-family estimators.
///
/// See the [module docs](self) for the full story. Construct once (cheap:
/// empty buffers), then pass to any number of `*_mi_with` calls.
#[derive(Debug, Clone, Default)]
pub struct EstimatorWorkspace {
    /// X-sorted joint view; its sorted-x copy doubles as the x marginal.
    pub(crate) joint: SortedJoint,
    /// Value-sorted y marginal with per-point ranks.
    pub(crate) y_marginal: RankedMarginal,
    /// Per-point k-th-neighbour distances in the joint space.
    pub(crate) dists: Vec<f64>,
    /// `ψ` and `ln` of integer counts.
    pub(crate) counts: CountTables,
    /// MixedKSG's exact `(x, y)` copy counts, keyed on the coordinate bits.
    pub(crate) joint_ties: FixedHashMap<(u64, u64), usize>,
    /// DC-KSG's sample grouped by discrete value.
    pub(crate) groups: DenseGroups,
    /// Generic f64 scratch (perturbation sort buffer).
    pub(crate) scratch: Vec<f64>,
}

impl EstimatorWorkspace {
    /// Creates an empty workspace (no allocations until first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the joint view and the y marginal for a continuous pair.
    pub(crate) fn prepare_joint(&mut self, x: &[f64], y: &[f64]) {
        self.joint.prepare(x, y);
        self.y_marginal.prepare(y);
    }
}

/// `ψ(c)` and `ln(c)` of the counts `c = 1..=n` an estimate sums over, each
/// computed once by the same call a per-point evaluation would make. Index 0
/// holds NaN; callers clamp counts to at least 1, as the formulas do.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountTables {
    psi: Vec<f64>,
    ln: Vec<f64>,
}

impl CountTables {
    /// Makes `ψ(c)` available for every `c <= n`.
    pub(crate) fn grow_psi(&mut self, n: usize) {
        grow(&mut self.psi, n, digamma);
    }

    /// Makes `ln(c)` available for every `c <= n`.
    pub(crate) fn grow_ln(&mut self, n: usize) {
        grow(&mut self.ln, n, f64::ln);
    }

    /// `ψ(c)`, for `1 <= c <=` the last [`grow_psi`](Self::grow_psi) bound.
    #[inline]
    pub(crate) fn psi(&self, c: usize) -> f64 {
        self.psi[c]
    }

    /// `ln(c)`, for `1 <= c <=` the last [`grow_ln`](Self::grow_ln) bound.
    #[inline]
    pub(crate) fn ln(&self, c: usize) -> f64 {
        self.ln[c]
    }
}

fn grow(table: &mut Vec<f64>, n: usize, f: fn(f64) -> f64) {
    if table.is_empty() {
        table.push(f64::NAN);
    }
    for c in table.len()..=n {
        table.push(f(c as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dc_ksg_mi, ksg_mi, mixed_ksg_mi};
    use crate::{dc_ksg_mi_with, ksg_mi_with, mixed_ksg_mi_with};

    fn lcg(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ((state >> 33) as f64) / f64::from(u32::MAX)
            })
            .collect()
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace_bitwise() {
        // One workspace threaded through heterogeneous estimates (different
        // sizes, estimators, tie structures) must give the exact bits a fresh
        // workspace gives.
        let mut ws = EstimatorWorkspace::new();
        let samples: Vec<(Vec<f64>, Vec<f64>)> = vec![
            (lcg(1, 500), lcg(2, 500)),
            (lcg(3, 64), lcg(4, 64)),
            (
                lcg(5, 300).iter().map(|v| (v * 5.0).floor()).collect(),
                lcg(6, 300),
            ),
        ];
        for (x, y) in &samples {
            let reused = ksg_mi_with(&mut ws, x, y, 3).unwrap();
            assert_eq!(reused.to_bits(), ksg_mi(x, y, 3).unwrap().to_bits());
            let reused = mixed_ksg_mi_with(&mut ws, x, y, 3).unwrap();
            assert_eq!(reused.to_bits(), mixed_ksg_mi(x, y, 3).unwrap().to_bits());
            let codes: Vec<u32> = x.iter().map(|v| (v.abs() as u32) % 4).collect();
            let reused = dc_ksg_mi_with(&mut ws, &codes, y, 3).unwrap();
            assert_eq!(reused.to_bits(), dc_ksg_mi(&codes, y, 3).unwrap().to_bits());
        }
    }

    #[test]
    fn count_tables_hold_the_per_point_values() {
        let mut tables = CountTables::default();
        tables.grow_psi(40);
        tables.grow_ln(7);
        // Growing to a smaller bound keeps what is there.
        tables.grow_psi(3);
        tables.grow_ln(300);
        for c in 1..=40usize {
            assert_eq!(
                tables.psi(c).to_bits(),
                digamma(c as f64).to_bits(),
                "ψ({c})"
            );
        }
        for c in 1..=300usize {
            assert_eq!(tables.ln(c).to_bits(), (c as f64).ln().to_bits(), "ln({c})");
        }
    }
}
