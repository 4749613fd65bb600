//! Entropy and mutual-information estimators.
//!
//! The paper (Section II) uses three families of sample-based MI estimators,
//! chosen by the data types of the two variables:
//!
//! | X type | Y type | Estimator |
//! |---|---|---|
//! | discrete (string) | discrete (string) | plug-in MLE ([`mle`]) |
//! | numeric | numeric | MixedKSG ([`mixed_ksg`], Gao et al. 2017) |
//! | discrete | numeric (or vice versa) | DC-KSG ([`dc_ksg`], Ross 2014) |
//!
//! plus the classic KSG estimator ([`ksg`], Kraskov et al. 2004) for purely
//! continuous data, the plug-in entropy ([`entropy`]) and the Hutter–Zaffalon
//! posterior of discrete MI behind the credible intervals ([`posterior`]).
//!
//! Two entry points estimate a sample pair: [`estimate_mi_with_workspace`]
//! runs a chosen estimator (the rule itself is [`select_estimator`]), and
//! [`estimate_mi_interval_with_workspace`] runs the selected one and adds a
//! credible interval. Both take a caller-owned [`EstimatorWorkspace`] whose
//! buffers batch callers reuse across estimates. The estimators also work on
//! plain slices, so they can be fed either the fully materialized join (the
//! exact baseline) or the small samples recovered from sketch joins. MI is
//! reported in **nats** (natural logarithm) throughout, matching the paper's
//! synthetic benchmark construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contingency;
pub mod dc_ksg;
pub mod entropy;
pub mod error;
pub mod knn;
pub mod ksg;
pub mod mixed_ksg;
pub mod mle;
pub mod perturb;
pub mod posterior;
pub mod select;
pub mod special;
pub mod variable;
pub mod workspace;

pub use dc_ksg::{dc_ksg_mi, dc_ksg_mi_with};
pub use entropy::mle_entropy;
pub use error::EstimatorError;
pub use ksg::{ksg_mi, ksg_mi_with};
pub use mixed_ksg::{mixed_ksg_mi, mixed_ksg_mi_with};
pub use mle::{mle_mi, mle_mi_with, smoothed_mle_mi};
pub use perturb::{perturb_ties, perturb_ties_with};
pub use posterior::{
    credible_interval, mi_posterior, mi_posterior_with, mle_mi_posterior_with, MiInterval,
    MiPosterior,
};
pub use select::{
    estimate_mi_interval_with_workspace, estimate_mi_with_workspace, force_codes, select_estimator,
    EstimatorKind, MiEstimate,
};
pub use variable::{discretize, Variable};
pub use workspace::EstimatorWorkspace;

/// Result alias for estimator operations.
pub type Result<T> = std::result::Result<T, EstimatorError>;

/// Default number of nearest neighbours used by the KSG-family estimators.
pub const DEFAULT_K: usize = 3;
