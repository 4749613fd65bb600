//! Estimator selection and the unified estimation entry point.
//!
//! Section V of the paper chooses the estimator from the data types of the
//! two variables (the same dispatch rule as scikit-learn's
//! `mutual_info_classif` / `mutual_info_regression`):
//!
//! * string / string → plug-in MLE,
//! * numeric / numeric → MixedKSG,
//! * string / numeric (either order) → DC-KSG.
//!
//! [`select_estimator`] is that rule. [`estimate_mi_with_workspace`] runs a
//! chosen estimator on a pair of [`Variable`] samples and returns an
//! [`MiEstimate`] carrying the value, the estimator used, and the sample
//! size. [`estimate_mi_interval_with_workspace`] is the interval rule: the
//! selected estimator's point estimate plus a Hutter–Zaffalon credible
//! interval ([`crate::posterior`]) on the same sample, with the MLE and the
//! posterior sharing one contingency pass when both sides are discrete.

use std::borrow::Cow;
use std::fmt;

use joinmi_hash::DigestHashMap;

use crate::dc_ksg::dc_ksg_mi_with;
use crate::error::EstimatorError;
use crate::mixed_ksg::mixed_ksg_mi_with;
use crate::mle::{mle_mi_with, smoothed_mle_mi};
use crate::posterior::{credible_interval, mi_posterior_with, mle_mi_posterior_with, MiInterval};
use crate::variable::Variable;
use crate::workspace::EstimatorWorkspace;
use crate::Result;

/// The available MI estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Plug-in maximum likelihood estimator (discrete–discrete).
    Mle,
    /// Laplace-smoothed MLE with pseudo-count 1 (discrete–discrete).
    SmoothedMle,
    /// Kraskov–Stögbauer–Grassberger estimator (continuous–continuous).
    Ksg,
    /// Gao et al. mixture estimator (numeric, handles repeated values).
    MixedKsg,
    /// Ross discrete–continuous estimator.
    DcKsg,
}

impl EstimatorKind {
    /// Human-readable name used in reports (matches the paper's labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Mle => "MLE",
            Self::SmoothedMle => "Smoothed-MLE",
            Self::Ksg => "KSG",
            Self::MixedKsg => "Mixed-KSG",
            Self::DcKsg => "DC-KSG",
        }
    }
}

impl fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of estimating MI on a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiEstimate {
    /// Estimated mutual information in nats (non-negative).
    pub mi: f64,
    /// The estimator that produced the value.
    pub estimator: EstimatorKind,
    /// Number of paired samples the estimate was computed from.
    pub n: usize,
}

/// Chooses the estimator for a pair of variable representations following the
/// paper's data-type rule.
#[must_use]
pub fn select_estimator(x: &Variable, y: &Variable) -> EstimatorKind {
    match (x.is_discrete(), y.is_discrete()) {
        (true, true) => EstimatorKind::Mle,
        (false, false) => EstimatorKind::MixedKsg,
        _ => EstimatorKind::DcKsg,
    }
}

/// Estimates `I(X; Y)` with an explicitly chosen estimator against a
/// caller-owned [`EstimatorWorkspace`].
///
/// Type coercions follow the paper: KSG-family estimators accept discrete
/// codes as (ordered) numeric coordinates; the MLE treats numeric samples as
/// categorical by grouping exactly equal values; DC-KSG requires at least one
/// discrete side and puts the discrete variable on the categorical axis.
///
/// Batch callers (candidate scoring, evaluation grids) keep one workspace per
/// worker so the KSG-family paths reuse their sort buffers across estimates
/// and the MLE reuses its marginal count buffers; only the smoothed MLE
/// ignores the workspace.
pub fn estimate_mi_with_workspace(
    ws: &mut EstimatorWorkspace,
    x: &Variable,
    y: &Variable,
    kind: EstimatorKind,
    k: usize,
) -> Result<MiEstimate> {
    if x.len() != y.len() {
        return Err(EstimatorError::LengthMismatch {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    let n = x.len();
    let mi = match kind {
        EstimatorKind::Mle => mle_mi_with(ws, &force_codes(x), &force_codes(y))?,
        EstimatorKind::SmoothedMle => smoothed_mle_mi(&force_codes(x), &force_codes(y), 1.0)?,
        EstimatorKind::Ksg => {
            crate::ksg::ksg_mi_with(ws, &x.as_continuous(), &y.as_continuous(), k)?
        }
        EstimatorKind::MixedKsg => {
            mixed_ksg_mi_with(ws, &x.as_continuous(), &y.as_continuous(), k)?
        }
        EstimatorKind::DcKsg => match (x, y) {
            (Variable::Discrete(codes), other) => {
                dc_ksg_mi_with(ws, codes, &other.as_continuous(), k)?
            }
            (other, Variable::Discrete(codes)) => {
                dc_ksg_mi_with(ws, codes, &other.as_continuous(), k)?
            }
            (Variable::Continuous(_), Variable::Continuous(_)) => {
                return Err(EstimatorError::IncompatibleTypes {
                    estimator: "DC-KSG".to_owned(),
                    detail:
                        "requires one discrete variable; both are continuous (discretize one first)"
                            .to_owned(),
                })
            }
        },
    };
    Ok(MiEstimate {
        mi,
        estimator: kind,
        n,
    })
}

/// Estimates `I(X; Y)` with the estimator [`select_estimator`] picks and
/// adds a Hutter–Zaffalon credible interval at the two-sided `level`.
///
/// The point estimate is bit-for-bit the one [`estimate_mi_with_workspace`]
/// gives for the selected estimator. The interval is computed from the
/// contingency table of the same sample (continuous sides grouped by exact
/// equality). A discrete pair takes the MLE and the posterior from one
/// contingency pass; any other pair adds the posterior's pass to its k-NN
/// estimate, reading `ψ` from `ws`.
pub fn estimate_mi_interval_with_workspace(
    ws: &mut EstimatorWorkspace,
    x: &Variable,
    y: &Variable,
    k: usize,
    level: f64,
) -> Result<(MiEstimate, MiInterval)> {
    let kind = select_estimator(x, y);
    let (est, posterior) = if kind == EstimatorKind::Mle {
        let (mi, posterior) = mle_mi_posterior_with(ws, &force_codes(x), &force_codes(y))?;
        let est = MiEstimate {
            mi,
            estimator: kind,
            n: x.len(),
        };
        (est, posterior)
    } else {
        let est = estimate_mi_with_workspace(ws, x, y, kind, k)?;
        (
            est,
            mi_posterior_with(ws, &force_codes(x), &force_codes(y))?,
        )
    };
    Ok((est, credible_interval(est.mi, posterior, level)?))
}

/// A variable as categories: its codes, borrowed, or its coordinates grouped
/// by exact equality into codes in first-occurrence order (as [`discretize`]
/// assigns them, so the codes do not depend on the hasher).
///
/// [`discretize`]: crate::variable::discretize
#[must_use]
pub fn force_codes(v: &Variable) -> Cow<'_, [u32]> {
    match v {
        Variable::Discrete(codes) => Cow::Borrowed(codes),
        Variable::Continuous(values) => {
            let mut seen: DigestHashMap<u32> = DigestHashMap::default();
            Cow::Owned(
                values
                    .iter()
                    .map(|x| {
                        let next = seen.len() as u32;
                        *seen.entry(x.to_bits()).or_insert(next)
                    })
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_K;

    /// The estimate `kind` gives on a fresh workspace.
    fn estimate(x: &Variable, y: &Variable, kind: EstimatorKind) -> Result<MiEstimate> {
        estimate_mi_with_workspace(&mut EstimatorWorkspace::new(), x, y, kind, DEFAULT_K)
    }

    /// The estimate of the estimator the data-type rule selects.
    fn estimate_selected(x: &Variable, y: &Variable) -> Result<MiEstimate> {
        estimate(x, y, select_estimator(x, y))
    }

    #[test]
    fn selection_follows_type_rule() {
        let d = Variable::Discrete(vec![0, 1]);
        let c = Variable::Continuous(vec![0.0, 1.0]);
        assert_eq!(select_estimator(&d, &d), EstimatorKind::Mle);
        assert_eq!(select_estimator(&c, &c), EstimatorKind::MixedKsg);
        assert_eq!(select_estimator(&d, &c), EstimatorKind::DcKsg);
        assert_eq!(select_estimator(&c, &d), EstimatorKind::DcKsg);
    }

    #[test]
    fn mle_path_on_identical_discrete() {
        let x = Variable::Discrete(vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let est = estimate_selected(&x, &x).unwrap();
        assert_eq!(est.estimator, EstimatorKind::Mle);
        assert_eq!(est.n, 8);
        assert!((est.mi - 4.0_f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn dc_ksg_path_accepts_either_argument_order() {
        let d = Variable::Discrete(vec![0, 0, 0, 1, 1, 1, 0, 1, 0, 1]);
        let c = Variable::Continuous(vec![0.1, 0.2, 0.15, 5.1, 5.2, 5.15, 0.12, 5.3, 0.22, 5.05]);
        let a = estimate_selected(&d, &c).unwrap();
        let b = estimate_selected(&c, &d).unwrap();
        assert_eq!(a.estimator, EstimatorKind::DcKsg);
        assert!((a.mi - b.mi).abs() < 1e-12);
    }

    #[test]
    fn explicit_estimator_override() {
        // Force the MLE onto numeric data: exact ties become categories.
        let x = Variable::Continuous(vec![1.0, 1.0, 2.0, 2.0]);
        let y = Variable::Continuous(vec![5.0, 5.0, 9.0, 9.0]);
        let est = estimate(&x, &y, EstimatorKind::Mle).unwrap();
        assert!((est.mi - 2.0_f64.ln()).abs() < 1e-9);

        // DC-KSG on two continuous variables is a type error.
        assert!(estimate(&x, &y, EstimatorKind::DcKsg).is_err());
    }

    #[test]
    fn smoothed_mle_is_not_larger_than_mle() {
        let x = Variable::Discrete(vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let plain = estimate(&x, &x, EstimatorKind::Mle).unwrap();
        let smooth = estimate(&x, &x, EstimatorKind::SmoothedMle).unwrap();
        assert!(smooth.mi <= plain.mi);
    }

    #[test]
    fn force_codes_borrows_codes_and_groups_coordinates() {
        let d = Variable::Discrete(vec![4, 1, 4]);
        assert!(matches!(force_codes(&d), Cow::Borrowed(&[4, 1, 4])));
        let c = Variable::Continuous(vec![2.5, -0.0, 2.5, 0.0, 7.0]);
        // Grouped by bits, so the two zeros stay apart; first-occurrence order.
        assert_eq!(*force_codes(&c), [0, 1, 0, 2, 3]);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let x = Variable::Discrete(vec![0, 1]);
        let y = Variable::Discrete(vec![0]);
        assert!(estimate_selected(&x, &y).is_err());
    }
}
