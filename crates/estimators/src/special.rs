//! Special functions needed by the kNN-based estimators.
//!
//! Only the digamma function `ψ` is required (KSG-family estimators are built
//! entirely from `ψ` and logarithms); `ln Γ` is provided as well because the
//! trinomial entropy computation in `joinmi-synth` and the smoothed MLE use
//! factorials of potentially large counts.

/// Euler–Mascheroni constant `γ`.
pub const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;

/// Digamma function `ψ(x)` for `x > 0`.
///
/// Uses the standard recurrence `ψ(x) = ψ(x + 1) − 1/x` to push the argument
/// above 6 and then the asymptotic series. Absolute error is below `1e-12`
/// for all arguments used by the estimators (positive integers and halves).
#[must_use]
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires a positive argument, got {x}");
    let mut result = 0.0;
    let mut x = x;
    while x < 12.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion: ψ(x) ≈ ln x − 1/(2x) − 1/(12x²) + 1/(120x⁴) − 1/(252x⁶)
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln() - 0.5 * inv - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
}

/// Natural logarithm of the Gamma function `ln Γ(x)` for `x > 0`.
///
/// Lanczos approximation (g = 7, n = 9), accurate to ~1e-13 in the range used
/// here.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const G: f64 = 7.0;
    // Canonical published Lanczos(g=7, n=9) coefficients, kept verbatim.
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(n!)` computed via `ln Γ(n + 1)`.
#[must_use]
pub fn ln_factorial(n: u64) -> f64 {
    // Exact for small n to avoid approximation noise in entropy formulas.
    const SMALL: [f64; 21] = [
        1.0,
        1.0,
        2.0,
        6.0,
        24.0,
        120.0,
        720.0,
        5040.0,
        40320.0,
        362_880.0,
        3_628_800.0,
        39_916_800.0,
        479_001_600.0,
        6_227_020_800.0,
        87_178_291_200.0,
        1_307_674_368_000.0,
        20_922_789_888_000.0,
        355_687_428_096_000.0,
        6_402_373_705_728_000.0,
        121_645_100_408_832_000.0,
        2_432_902_008_176_640_000.0,
    ];
    if (n as usize) < SMALL.len() {
        SMALL[n as usize].ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digamma_known_values() {
        // ψ(1) = −γ
        assert!((digamma(1.0) + EULER_MASCHERONI).abs() < 1e-10);
        // ψ(2) = 1 − γ
        assert!((digamma(2.0) - (1.0 - EULER_MASCHERONI)).abs() < 1e-10);
        // ψ(1/2) = −γ − 2 ln 2
        assert!((digamma(0.5) - (-EULER_MASCHERONI - 2.0 * 2.0_f64.ln())).abs() < 1e-10);
        // ψ(10) = H_9 − γ
        let h9: f64 = (1..10).map(|i| 1.0 / f64::from(i)).sum();
        assert!((digamma(10.0) - (h9 - EULER_MASCHERONI)).abs() < 1e-10);
    }

    #[test]
    fn digamma_recurrence_property() {
        for x in [0.3, 1.7, 5.5, 42.0] {
            assert!(
                (digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10,
                "x = {x}"
            );
        }
    }

    #[test]
    fn digamma_large_argument_close_to_log() {
        let x = 1e6;
        assert!((digamma(x) - x.ln()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn digamma_rejects_non_positive() {
        let _ = digamma(0.0);
    }

    #[test]
    fn ln_gamma_known_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_matches_direct_product() {
        for n in 0..30u64 {
            let direct: f64 = (1..=n).map(|i| (i as f64).ln()).sum();
            assert!((ln_factorial(n) - direct).abs() < 1e-8, "n = {n}");
        }
    }
}
