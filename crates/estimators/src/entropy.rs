//! Entropy estimation.
//!
//! [`mle_entropy`] is the plug-in (maximum likelihood) estimator of Shannon
//! entropy for discrete samples, Section II of the paper, in nats. It is
//! known to be biased downward by roughly `(m − 1) / 2N` (Roulston 1999).

use joinmi_hash::FixedHashMap;

use crate::error::EstimatorError;
use crate::Result;

/// Plug-in (MLE) entropy of a discrete sample given as integer codes.
///
/// `Ĥ = − Σ_i (N_i / N) ln(N_i / N)`
pub fn mle_entropy(codes: &[u32]) -> Result<f64> {
    if codes.is_empty() {
        return Err(EstimatorError::InsufficientSamples {
            available: 0,
            required: 1,
        });
    }
    let n = codes.len() as f64;
    // Deterministic hasher: the entropy sum runs in iteration order, so a
    // seeded map would perturb the last float bits between runs.
    let mut counts: FixedHashMap<u32, usize> = FixedHashMap::default();
    for &c in codes {
        *counts.entry(c).or_default() += 1;
    }
    let h = counts
        .values()
        .map(|&cnt| {
            let p = cnt as f64 / n;
            -p * p.ln()
        })
        .sum();
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mle_entropy_uniform_and_degenerate() {
        // Uniform over 4 symbols -> ln 4.
        let codes = vec![0, 1, 2, 3, 0, 1, 2, 3];
        assert!((mle_entropy(&codes).unwrap() - 4.0_f64.ln()).abs() < 1e-12);
        // Degenerate -> 0.
        let codes = vec![7, 7, 7];
        assert!(mle_entropy(&codes).unwrap().abs() < 1e-12);
        assert!(mle_entropy(&[]).is_err());
    }

    #[test]
    fn mle_entropy_matches_paper_worked_example() {
        // Section IV-B: Y = [0,0,0,0,0, 1..95]; H(Y) ≈ 4.5247 (natural log
        // units are implied by the numbers given in the paper).
        let mut codes = vec![0u32; 5];
        codes.extend(1..=95u32);
        let h = mle_entropy(&codes).unwrap();
        assert!((h - 4.5247).abs() < 5e-4, "H = {h}");
    }
}
