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
//! [`estimate_mi`] applies that rule to a pair of [`Variable`] samples and
//! returns an [`MiEstimate`] carrying the value, the estimator used, and the
//! sample size — everything the discovery layer needs to rank candidates and
//! everything the evaluation harness needs to reproduce the paper's figures.

use std::borrow::Cow;
use std::fmt;

use joinmi_hash::DigestHashMap;

use crate::dc_ksg::dc_ksg_mi_with;
use crate::error::EstimatorError;
use crate::mixed_ksg::mixed_ksg_mi_with;
use crate::mle::{mle_mi_with, smoothed_mle_mi};
use crate::variable::Variable;
use crate::workspace::EstimatorWorkspace;
use crate::{Result, DEFAULT_K};

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

/// Estimates `I(X; Y)` with an explicitly chosen estimator.
///
/// Type coercions follow the paper: KSG-family estimators accept discrete
/// codes as (ordered) numeric coordinates; the MLE treats numeric samples as
/// categorical by grouping exactly equal values; DC-KSG requires at least one
/// discrete side and puts the discrete variable on the categorical axis.
pub fn estimate_mi_with(
    x: &Variable,
    y: &Variable,
    kind: EstimatorKind,
    k: usize,
) -> Result<MiEstimate> {
    estimate_mi_with_workspace(&mut EstimatorWorkspace::new(), x, y, kind, k)
}

/// [`estimate_mi_with`] against a caller-owned [`EstimatorWorkspace`].
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

/// Estimates `I(X; Y)` with the estimator chosen automatically from the
/// variable representations (the paper's default behaviour).
pub fn estimate_mi(x: &Variable, y: &Variable, k: usize) -> Result<MiEstimate> {
    let kind = select_estimator(x, y);
    estimate_mi_with(x, y, kind, k)
}

/// Estimates `I(X; Y)` with the automatically selected estimator and the
/// default neighbour count.
pub fn estimate_mi_default(x: &Variable, y: &Variable) -> Result<MiEstimate> {
    estimate_mi(x, y, DEFAULT_K)
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
        let est = estimate_mi_default(&x, &x).unwrap();
        assert_eq!(est.estimator, EstimatorKind::Mle);
        assert_eq!(est.n, 8);
        assert!((est.mi - 4.0_f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn dc_ksg_path_accepts_either_argument_order() {
        let d = Variable::Discrete(vec![0, 0, 0, 1, 1, 1, 0, 1, 0, 1]);
        let c = Variable::Continuous(vec![0.1, 0.2, 0.15, 5.1, 5.2, 5.15, 0.12, 5.3, 0.22, 5.05]);
        let a = estimate_mi_default(&d, &c).unwrap();
        let b = estimate_mi_default(&c, &d).unwrap();
        assert_eq!(a.estimator, EstimatorKind::DcKsg);
        assert!((a.mi - b.mi).abs() < 1e-12);
    }

    #[test]
    fn explicit_estimator_override() {
        // Force the MLE onto numeric data: exact ties become categories.
        let x = Variable::Continuous(vec![1.0, 1.0, 2.0, 2.0]);
        let y = Variable::Continuous(vec![5.0, 5.0, 9.0, 9.0]);
        let est = estimate_mi_with(&x, &y, EstimatorKind::Mle, DEFAULT_K).unwrap();
        assert!((est.mi - 2.0_f64.ln()).abs() < 1e-9);

        // DC-KSG on two continuous variables is a type error.
        assert!(estimate_mi_with(&x, &y, EstimatorKind::DcKsg, DEFAULT_K).is_err());
    }

    #[test]
    fn smoothed_mle_is_not_larger_than_mle() {
        let x = Variable::Discrete(vec![0, 1, 2, 3, 0, 1, 2, 3]);
        let plain = estimate_mi_with(&x, &x, EstimatorKind::Mle, DEFAULT_K).unwrap();
        let smooth = estimate_mi_with(&x, &x, EstimatorKind::SmoothedMle, DEFAULT_K).unwrap();
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
        assert!(estimate_mi_default(&x, &y).is_err());
    }
}
