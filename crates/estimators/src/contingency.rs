//! One contingency pass for the discrete estimators.
//!
//! The plug-in MLE ([`crate::mle`]) and the Hutter–Zaffalon posterior
//! moments ([`crate::posterior`]) sum over the same cells of the same joint
//! table. [`plug_in_mi_and_posterior`] fills that table once and computes both sums
//! in one walk over it:
//!
//! * **One joint map.** A [`FixedHashMap`] keyed by the `(x, y)` code pair,
//!   starting empty and filled in sample order. Its iteration order is the
//!   summation order, so its key type, hasher, initial capacity and
//!   insertion sequence are exactly those of the three-map implementation
//!   this replaced, and every sum comes out bit for bit as before. Each cell
//!   also carries its row and column slots, so the walk reads the marginals
//!   without hashing.
//! * **Dense marginals.** The marginal counts live in workspace buffers
//!   indexed by code. Sketch-join and [`force_codes`](crate::force_codes)
//!   codes are dense first-occurrence codes below the sample length; any
//!   other column is first relabelled into dense slots, which changes no
//!   count and keeps every buffer O(n).
//! * **Tabled ψ.** `ψ(c + 1)` of an integer count is read from the
//!   workspace's [`CountTables`](crate::workspace), whose entries are the
//!   same `digamma` calls. The table grows only as far as the largest
//!   marginal count, and only when that costs no more `digamma` calls than
//!   the cells would make; `ψ(n + 1)` is one direct call.
//!
//! The MLE term `pab · ln(pab / (pa · pb))` and the posterior's
//! `ln(nab · n / (na · nb))` stay separate expressions: they round
//! differently, and each is what its estimator always computed.

use joinmi_hash::FixedHashMap;

use crate::error::EstimatorError;
use crate::posterior::MiPosterior;
use crate::special::digamma;
use crate::workspace::EstimatorWorkspace;
use crate::Result;

/// The marginal-count buffers of the discrete pass, kept in the
/// workspace so repeated estimates reuse their allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct MarginalCounts {
    /// Count per x slot.
    x: Vec<u32>,
    /// Count per y slot.
    y: Vec<u32>,
    /// Per-sample x slots, when the x codes are not dense.
    x_slots: Vec<u32>,
    /// Per-sample y slots, when the y codes are not dense.
    y_slots: Vec<u32>,
    /// Code → slot while relabelling a column.
    relabel: FixedHashMap<u32, u32>,
}

/// One cell of the joint table: its count and its marginal slots.
#[derive(Debug, Clone, Copy)]
struct Cell {
    count: u32,
    x: u32,
    y: u32,
}

/// The plug-in MI of a code pair ([`crate::mle::mle_mi`]).
pub(crate) fn plug_in_mi(ws: &mut EstimatorWorkspace, x: &[u32], y: &[u32]) -> Result<f64> {
    let joint = fill(&mut ws.marginals, x, y)?;
    let n = x.len() as f64;
    let mut mi = 0.0;
    for cell in joint.values() {
        let (na, nb) = ws.marginals.of(cell);
        mi += mle_term(f64::from(cell.count), f64::from(na), f64::from(nb), n);
    }
    Ok(mi.max(0.0))
}

/// The plug-in MI and the posterior moments of a code pair
/// ([`crate::posterior::mi_posterior`]) from one walk over one table.
pub(crate) fn plug_in_mi_and_posterior(
    ws: &mut EstimatorWorkspace,
    x: &[u32],
    y: &[u32],
) -> Result<(f64, MiPosterior)> {
    let joint = fill(&mut ws.marginals, x, y)?;
    let m = &ws.marginals;
    let largest = m.x.iter().chain(&m.y).copied().max().unwrap_or(0);
    let tabled = ws
        .counts
        .grow_psi_within(largest as usize + 1, 3 * joint.len());
    let tables = &ws.counts;
    // ψ(c + 1) of a count, as `digamma(c + 1.0)` computes it.
    let psi = |c: u32| {
        if tabled {
            tables.psi(c as usize + 1)
        } else {
            digamma(f64::from(c) + 1.0)
        }
    };

    let n = x.len() as f64;
    let psi_n1 = digamma(n + 1.0);
    let mut mi = 0.0;
    let mut mean = 0.0;
    let mut j_sum = 0.0;
    let mut k_sum = 0.0;
    for cell in joint.values() {
        let (na, nb) = m.of(cell);
        let (nab, na_f, nb_f) = (f64::from(cell.count), f64::from(na), f64::from(nb));
        mi += mle_term(nab, na_f, nb_f, n);
        let w = nab / n;
        mean += w * (psi(cell.count) - psi(na) - psi(nb) + psi_n1);
        let log_term = (nab * n / (na_f * nb_f)).ln();
        j_sum += w * log_term;
        k_sum += w * log_term * log_term;
    }
    let posterior = MiPosterior {
        mean: mean.max(0.0),
        variance: ((k_sum - j_sum * j_sum) / (n + 1.0)).max(0.0),
        n: x.len(),
    };
    Ok((mi.max(0.0), posterior))
}

/// Counts the marginals of a code pair into `m` and returns the joint table:
/// a fresh map, so its capacity starts where the summation order expects it,
/// filled in sample order.
fn fill(m: &mut MarginalCounts, x: &[u32], y: &[u32]) -> Result<FixedHashMap<(u32, u32), Cell>> {
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
    let sx = dense_slots(x, &mut m.relabel, &mut m.x_slots);
    let sy = dense_slots(y, &mut m.relabel, &mut m.y_slots);
    zero(&mut m.x, x.len());
    zero(&mut m.y, y.len());
    let mut joint: FixedHashMap<(u32, u32), Cell> = FixedHashMap::default();
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        let (slot_a, slot_b) = (sx[i], sy[i]);
        m.x[slot_a as usize] += 1;
        m.y[slot_b as usize] += 1;
        joint
            .entry((a, b))
            .or_insert(Cell {
                count: 0,
                x: slot_a,
                y: slot_b,
            })
            .count += 1;
    }
    Ok(joint)
}

impl MarginalCounts {
    /// The row and column counts of a cell.
    #[inline]
    fn of(&self, cell: &Cell) -> (u32, u32) {
        (self.x[cell.x as usize], self.y[cell.y as usize])
    }
}

/// The plug-in MI contribution of one cell.
#[inline]
fn mle_term(nab: f64, na: f64, nb: f64, n: f64) -> f64 {
    let pab = nab / n;
    let pa = na / n;
    let pb = nb / n;
    pab * (pab / (pa * pb)).ln()
}

/// `codes` as slots below `codes.len()`: the codes themselves when they
/// already are, else first-occurrence slots written to `out`.
fn dense_slots<'a>(
    codes: &'a [u32],
    relabel: &mut FixedHashMap<u32, u32>,
    out: &'a mut Vec<u32>,
) -> &'a [u32] {
    if codes.iter().all(|&c| (c as usize) < codes.len()) {
        return codes;
    }
    relabel.clear();
    out.clear();
    out.extend(codes.iter().map(|&c| {
        let next = relabel.len() as u32;
        *relabel.entry(c).or_insert(next)
    }));
    out
}

/// Makes `counts` hold `len` zeros.
fn zero(counts: &mut Vec<u32>, len: usize) {
    counts.clear();
    counts.resize(len, 0);
}

#[cfg(test)]
mod tests {
    use joinmi_hash::FixedHashMap;

    use super::*;
    use crate::mle::{mle_mi, mle_mi_with};
    use crate::posterior::{mi_posterior, mi_posterior_with, mle_mi_posterior_with};
    use crate::select::{estimate_mi_with_workspace, EstimatorKind};
    use crate::variable::Variable;

    /// The three-map `mle_mi` this pass replaced, verbatim.
    fn mle_mi_reference(x: &[u32], y: &[u32]) -> Result<f64> {
        check_lengths(x, y)?;
        let n = x.len() as f64;

        let mut joint: FixedHashMap<(u32, u32), f64> = FixedHashMap::default();
        let mut px: FixedHashMap<u32, f64> = FixedHashMap::default();
        let mut py: FixedHashMap<u32, f64> = FixedHashMap::default();
        for (&a, &b) in x.iter().zip(y) {
            *joint.entry((a, b)).or_default() += 1.0;
            *px.entry(a).or_default() += 1.0;
            *py.entry(b).or_default() += 1.0;
        }

        let mut mi = 0.0;
        for (&(a, b), &nab) in &joint {
            let pab = nab / n;
            let pa = px[&a] / n;
            let pb = py[&b] / n;
            mi += pab * (pab / (pa * pb)).ln();
        }
        Ok(mi.max(0.0))
    }

    /// The three-map `mi_posterior` this pass replaced, verbatim.
    fn mi_posterior_reference(x: &[u32], y: &[u32]) -> Result<MiPosterior> {
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
        let n = x.len() as f64;

        let mut joint: FixedHashMap<(u32, u32), f64> = FixedHashMap::default();
        let mut px: FixedHashMap<u32, f64> = FixedHashMap::default();
        let mut py: FixedHashMap<u32, f64> = FixedHashMap::default();
        for (&a, &b) in x.iter().zip(y) {
            *joint.entry((a, b)).or_default() += 1.0;
            *px.entry(a).or_default() += 1.0;
            *py.entry(b).or_default() += 1.0;
        }

        let psi_n1 = digamma(n + 1.0);
        let mut mean = 0.0;
        let mut j_sum = 0.0;
        let mut k_sum = 0.0;
        for (&(a, b), &nab) in &joint {
            let na = px[&a];
            let nb = py[&b];
            let w = nab / n;
            mean += w * (digamma(nab + 1.0) - digamma(na + 1.0) - digamma(nb + 1.0) + psi_n1);
            let log_term = (nab * n / (na * nb)).ln();
            j_sum += w * log_term;
            k_sum += w * log_term * log_term;
        }
        Ok(MiPosterior {
            mean: mean.max(0.0),
            variance: ((k_sum - j_sum * j_sum) / (n + 1.0)).max(0.0),
            n: x.len(),
        })
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

    /// splitmix64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// One seeded case: n in 1..=1 500, cardinalities in 1..=200, y a noisy
    /// function of x or independent of it, each side's codes dense, first
    /// occurrence, or sparse up to `u32::MAX`.
    fn case(seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(1_500) as usize;
        let (rx, ry) = (1 + rng.below(200), 1 + rng.below(200));
        let dependent = rng.below(2) == 0;
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.below(rx);
            let b = if dependent && rng.below(4) != 0 {
                (a * 7 + 3) % ry
            } else {
                rng.below(ry)
            };
            x.push(a as u32);
            y.push(b as u32);
        }
        let mut recode = |codes: &mut Vec<u32>| match rng.below(3) {
            0 => {}
            1 => {
                let mut seen = FixedHashMap::default();
                for c in codes.iter_mut() {
                    let next = seen.len() as u32;
                    *c = *seen.entry(*c).or_insert(next);
                }
            }
            _ => {
                let stride = 1 + rng.below(20_000_000) as u32;
                for c in codes.iter_mut() {
                    *c = u32::MAX - c.wrapping_mul(stride);
                }
            }
        };
        recode(&mut x);
        recode(&mut y);
        (x, y)
    }

    #[test]
    fn the_pass_matches_the_three_map_reference_bit_for_bit() {
        const CASES: u64 = 3_000;
        let mut ws = EstimatorWorkspace::new();
        let bits = |p: &MiPosterior| (p.mean.to_bits(), p.variance.to_bits(), p.n);
        for seed in 0..CASES {
            let (x, y) = case(seed);
            let mi = mle_mi_reference(&x, &y).unwrap().to_bits();
            let post = bits(&mi_posterior_reference(&x, &y).unwrap());

            assert_eq!(mle_mi(&x, &y).unwrap().to_bits(), mi, "seed {seed}");
            assert_eq!(mle_mi_with(&mut ws, &x, &y).unwrap().to_bits(), mi);
            assert_eq!(bits(&mi_posterior(&x, &y).unwrap()), post, "seed {seed}");
            assert_eq!(bits(&mi_posterior_with(&mut ws, &x, &y).unwrap()), post);
            let (fused_mi, fused_post) = mle_mi_posterior_with(&mut ws, &x, &y).unwrap();
            assert_eq!((fused_mi.to_bits(), bits(&fused_post)), (mi, post));
            let (vx, vy) = (Variable::Discrete(x), Variable::Discrete(y));
            let est = estimate_mi_with_workspace(&mut ws, &vx, &vy, EstimatorKind::Mle, 3);
            assert_eq!(est.unwrap().mi.to_bits(), mi, "seed {seed}");
        }
    }

    #[test]
    fn refused_inputs_give_the_reference_errors() {
        let mut ws = EstimatorWorkspace::new();
        for (x, y) in [
            (&[][..], &[][..]),
            (&[1, 2][..], &[3][..]),
            (&[][..], &[0][..]),
        ] {
            let want = mle_mi_reference(x, y).unwrap_err();
            assert_eq!(mle_mi_with(&mut ws, x, y).unwrap_err(), want);
            assert_eq!(mle_mi(x, y).unwrap_err(), want);
            let want = mi_posterior_reference(x, y).unwrap_err();
            assert_eq!(mi_posterior_with(&mut ws, x, y).unwrap_err(), want);
            assert_eq!(mle_mi_posterior_with(&mut ws, x, y).unwrap_err(), want);
        }
    }

    #[test]
    fn a_single_large_cell_is_not_tabled_on_a_fresh_workspace() {
        // ψ(4 097) alone would cost 4 097 table entries; three calls do.
        let x = vec![u32::MAX; 4_096];
        let mut ws = EstimatorWorkspace::new();
        let post = mi_posterior_with(&mut ws, &x, &x).unwrap();
        assert_eq!(post, mi_posterior_reference(&x, &x).unwrap());
        assert!(!ws.counts.grow_psi_within(4_097, 3));
        // 70 cells whose largest marginal count is 143 grow the table to
        // ψ(144), and later calls reuse it.
        let x: Vec<u32> = (0..1_000).map(|i| i % 10).collect();
        let y: Vec<u32> = (0..1_000).map(|i| i % 7).collect();
        mi_posterior_with(&mut ws, &x, &y).unwrap();
        assert!(ws.counts.grow_psi_within(144, 0));
        assert!(!ws.counts.grow_psi_within(145, 0));
    }
}
