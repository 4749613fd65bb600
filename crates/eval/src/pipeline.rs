//! The sketch-estimation pipeline shared by all experiments.
//!
//! One "trial" of the synthetic benchmark is: generate `(X, Y)` with a known
//! MI, decompose into joinable tables under a key regime, build left/right
//! sketches with one strategy, join them, and estimate MI with one estimator.
//! The full-join baseline applies the same estimator to all generated pairs.

use joinmi_estimators::{
    dc_ksg_mi_with, discretize, force_codes, mixed_ksg_mi_with, mle_mi_with, perturb_ties_with,
    EstimatorWorkspace, Variable, DEFAULT_K,
};
use joinmi_sketch::{ColumnSketch, JoinedSketch, SketchConfig, SketchKind};
use joinmi_synth::DecomposedPair;
use joinmi_table::Value;

/// Which estimator an experiment applies to the recovered sample.
///
/// This mirrors the three "data type combination" treatments of Section V-A:
/// the *same* generated data can be treated as discrete (MLE), as a
/// discrete–continuous pair (DC-KSG, with the continuous side obtained by
/// tie-breaking perturbation), or as a mixture pair (MixedKSG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorMode {
    /// Treat both variables as categorical and apply the plug-in MLE.
    Mle,
    /// Treat both variables as (mixtures of) continuous values — MixedKSG.
    MixedKsg,
    /// Treat X as discrete and Y as continuous (perturbed) — DC-KSG.
    DcKsg,
}

impl EstimatorMode {
    /// All modes applicable to discrete-valued benchmarks (Trinomial).
    pub const TRINOMIAL: [Self; 3] = [Self::Mle, Self::MixedKsg, Self::DcKsg];
    /// Modes applicable to CDUnif (Y is already continuous, so the MLE is
    /// excluded, as in the paper).
    pub const CDUNIF: [Self; 2] = [Self::MixedKsg, Self::DcKsg];

    /// Name used in reports (matches the paper's legends).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Mle => "MLE",
            Self::MixedKsg => "Mixed-KSG",
            Self::DcKsg => "DC-KSG",
        }
    }

    /// Applies the estimator to paired feature/target values.
    ///
    /// Returns `None` when the estimator cannot produce a finite estimate
    /// (e.g. too few samples), letting experiments skip the trial the same
    /// way the paper discards meaningless estimates.
    #[must_use]
    pub fn estimate(self, xs: &[Value], ys: &[Value], seed: u64) -> Option<f64> {
        // The mode, not the column type, picks each side's representation.
        let (x, y) = match self {
            Self::Mle => (
                Variable::Discrete(discretize(xs)),
                Variable::Discrete(discretize(ys)),
            ),
            Self::MixedKsg => (
                Variable::Continuous(to_f64(xs)?),
                Variable::Continuous(to_f64(ys)?),
            ),
            Self::DcKsg => (
                Variable::Discrete(discretize(xs)),
                Variable::Continuous(to_f64(ys)?),
            ),
        };
        self.estimate_typed(&mut EstimatorWorkspace::new(), &x, &y, seed)
    }

    /// Applies the estimator to the sample a sketch join recovered, against
    /// a caller-owned [`EstimatorWorkspace`]: grid runners keep one
    /// workspace per worker so every trial on that worker reuses the
    /// estimator sort buffers.
    #[must_use]
    pub fn estimate_joined_in(
        self,
        ws: &mut EstimatorWorkspace,
        joined: &JoinedSketch,
        seed: u64,
    ) -> Option<f64> {
        let (x, y) = joined.variables().ok()?;
        self.estimate_typed(ws, x, y, seed)
    }

    /// The estimator over typed columns. A mode that needs categories groups
    /// a numeric side by exact equality; a mode that needs coordinates
    /// refuses a categorical side.
    fn estimate_typed(
        self,
        ws: &mut EstimatorWorkspace,
        x: &Variable,
        y: &Variable,
        seed: u64,
    ) -> Option<f64> {
        if x.len() != y.len() || x.len() < DEFAULT_K + 2 {
            return None;
        }
        match self {
            Self::Mle => mle_mi_with(ws, &force_codes(x), &force_codes(y)).ok(),
            Self::MixedKsg => {
                mixed_ksg_mi_with(ws, coordinates(x)?, coordinates(y)?, DEFAULT_K).ok()
            }
            Self::DcKsg => {
                // Break ties so the "continuous" side satisfies the
                // estimator's assumptions (Section V-A perturbation).
                let yf = perturb_ties_with(ws, coordinates(y)?, 1e-9, seed);
                dc_ksg_mi_with(ws, &force_codes(x), &yf, DEFAULT_K).ok()
            }
        }
    }
}

fn to_f64(values: &[Value]) -> Option<Vec<f64>> {
    values.iter().map(Value::as_f64).collect()
}

fn coordinates(v: &Variable) -> Option<&[f64]> {
    match v {
        Variable::Discrete(_) => None,
        Variable::Continuous(coords) => Some(coords),
    }
}

/// The outcome of estimating MI through a sketch join.
#[derive(Debug, Clone, Copy)]
pub struct TrialOutcome {
    /// The MI estimate (NaN when the estimator failed).
    pub estimate: f64,
    /// Number of pairs recovered by the sketch join.
    pub join_size: usize,
    /// Number of rows stored by the left sketch (the storage cost).
    pub left_storage: usize,
}

/// A fully specified sketch trial.
#[derive(Debug, Clone, Copy)]
pub struct SketchTrial {
    /// Sketching strategy.
    pub kind: SketchKind,
    /// Sketch size / seed.
    pub config: SketchConfig,
    /// Estimator applied to the recovered sample.
    pub mode: EstimatorMode,
}

/// Builds the left/right sketches of one trial (shared by the in-memory and
/// persisted estimation paths).
fn build_sketch_pair(
    pair: &DecomposedPair,
    trial: &SketchTrial,
) -> Option<(ColumnSketch, ColumnSketch)> {
    let left = trial
        .kind
        .build_left(
            &pair.train,
            &pair.key_column,
            &pair.target_column,
            &trial.config,
        )
        .ok()?;
    let right = trial
        .kind
        .build_right(
            &pair.cand,
            &pair.key_column,
            &pair.feature_column,
            pair.aggregation,
            &trial.config,
        )
        .ok()?;
    Some((left, right))
}

/// Joins a sketch pair and applies the trial's estimator.
fn estimate_from_sketches(
    ws: &mut EstimatorWorkspace,
    left: &ColumnSketch,
    right: &ColumnSketch,
    trial: &SketchTrial,
) -> Option<TrialOutcome> {
    let joined: JoinedSketch = left.join(right);
    let estimate = trial
        .mode
        .estimate_joined_in(ws, &joined, trial.config.seed)?;
    Some(TrialOutcome {
        estimate,
        join_size: joined.len(),
        left_storage: left.len(),
    })
}

/// Runs one sketch trial over a decomposed table pair.
///
/// Returns `None` when the sketch join recovered too few pairs for the
/// estimator.
#[must_use]
pub fn sketch_estimate(pair: &DecomposedPair, trial: &SketchTrial) -> Option<TrialOutcome> {
    sketch_estimate_in(&mut EstimatorWorkspace::new(), pair, trial)
}

/// [`sketch_estimate`] against a caller-owned [`EstimatorWorkspace`].
#[must_use]
pub fn sketch_estimate_in(
    ws: &mut EstimatorWorkspace,
    pair: &DecomposedPair,
    trial: &SketchTrial,
) -> Option<TrialOutcome> {
    let (left, right) = build_sketch_pair(pair, trial)?;
    estimate_from_sketches(ws, &left, &right, trial)
}

/// Like [`sketch_estimate`], but round-trips both sketches through the
/// on-disk store encoding (`joinmi_sketch::persist`) before joining — the
/// offline-ingest → online-query pipeline in miniature. Because the encoding
/// is exact (float bits round-trip), the outcome is bit-for-bit identical to
/// [`sketch_estimate`]; the test below pins that.
#[must_use]
pub fn sketch_estimate_persisted(
    pair: &DecomposedPair,
    trial: &SketchTrial,
) -> Option<TrialOutcome> {
    sketch_estimate_persisted_in(&mut EstimatorWorkspace::new(), pair, trial)
}

/// [`sketch_estimate_persisted`] against a caller-owned
/// [`EstimatorWorkspace`].
#[must_use]
pub fn sketch_estimate_persisted_in(
    ws: &mut EstimatorWorkspace,
    pair: &DecomposedPair,
    trial: &SketchTrial,
) -> Option<TrialOutcome> {
    let (left, right) = build_sketch_pair(pair, trial)?;
    let round_trip = |sketch: &ColumnSketch| -> Option<ColumnSketch> {
        let mut buf = Vec::new();
        sketch.to_writer(&mut buf).ok()?;
        ColumnSketch::from_bytes(&buf).ok()
    };
    let left = round_trip(&left)?;
    let right = round_trip(&right)?;
    estimate_from_sketches(ws, &left, &right, trial)
}

/// One cell of an experiment grid: which decomposed pair to sketch (an index
/// into a caller-owned slice) and the fully specified trial to run on it.
pub type GridCell = (usize, SketchTrial);

/// Runs a grid of sketch trials in parallel across `JOINMI_THREADS` workers.
///
/// `cells` index into `pairs`; the returned outcomes are in cell order, and —
/// because [`sketch_estimate`] is deterministic given its inputs — the result
/// is bit-for-bit identical to mapping [`sketch_estimate`] sequentially.
/// Experiments build their full `(trial × regime × sketch × estimator)` cross
/// product as cells so that one work queue load-balances the whole grid.
#[must_use]
pub fn run_grid(pairs: &[DecomposedPair], cells: &[GridCell]) -> Vec<Option<TrialOutcome>> {
    joinmi_par::par_map_with(
        cells,
        EstimatorWorkspace::new,
        |ws, &(pair_index, trial)| sketch_estimate_in(ws, &pairs[pair_index], &trial),
    )
}

/// The persisted-repository variant of [`run_grid`]: every trial's sketches
/// pass through the on-disk encoding before estimation (see
/// [`sketch_estimate_persisted`]). Outcomes are bit-for-bit identical to
/// [`run_grid`]; experiments use it to prove that conclusions drawn from
/// persisted sketch repositories match the in-memory evaluation.
#[must_use]
pub fn run_grid_persisted(
    pairs: &[DecomposedPair],
    cells: &[GridCell],
) -> Vec<Option<TrialOutcome>> {
    joinmi_par::par_map_with(
        cells,
        EstimatorWorkspace::new,
        |ws, &(pair_index, trial)| sketch_estimate_persisted_in(ws, &pairs[pair_index], &trial),
    )
}

/// Runs the sketch join only (no estimation) — used by experiments that only
/// need join-size statistics.
#[must_use]
pub fn sketch_join_size(
    pair: &DecomposedPair,
    kind: SketchKind,
    config: &SketchConfig,
) -> Option<usize> {
    let left = kind
        .build_left(&pair.train, &pair.key_column, &pair.target_column, config)
        .ok()?;
    let right = kind
        .build_right(
            &pair.cand,
            &pair.key_column,
            &pair.feature_column,
            pair.aggregation,
            config,
        )
        .ok()?;
    Some(left.join(&right).len())
}

/// The full-join baseline: applies the estimator to *all* generated pairs
/// (equivalent to estimating on the materialized augmentation join, which
/// recovers the generated pairs exactly — verified by the decomposition
/// round-trip tests).
#[must_use]
pub fn full_join_estimate(
    xs: &[Value],
    ys: &[Value],
    mode: EstimatorMode,
    seed: u64,
) -> Option<f64> {
    mode.estimate(xs, ys, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_synth::{decompose, CdUnifConfig, KeyDistribution, TrinomialConfig};

    #[test]
    fn estimator_modes_recover_known_mi_on_full_data() {
        let cfg = TrinomialConfig::new(16, 0.4, 0.35);
        let pair = cfg.generate(8000, 3);
        let truth = pair.true_mi;
        for mode in EstimatorMode::TRINOMIAL {
            let est = full_join_estimate(&pair.xs, &pair.ys, mode, 1).unwrap();
            assert!(
                (est - truth).abs() < 0.15,
                "{}: est={est}, truth={truth}",
                mode.name()
            );
        }
    }

    #[test]
    fn cdunif_modes_recover_known_mi() {
        let cfg = CdUnifConfig::new(8);
        let pair = cfg.generate(6000, 5);
        for mode in EstimatorMode::CDUNIF {
            let est = full_join_estimate(&pair.xs, &pair.ys, mode, 2).unwrap();
            assert!(
                (est - pair.true_mi).abs() < 0.15,
                "{}: est={est}, truth={}",
                mode.name(),
                pair.true_mi
            );
        }
    }

    #[test]
    fn sketch_estimate_tracks_truth_within_sketch_error() {
        let gen = TrinomialConfig::new(64, 0.45, 0.4);
        let data = gen.generate(6000, 11);
        let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);
        let trial = SketchTrial {
            kind: SketchKind::Tupsk,
            config: SketchConfig::new(512, 7),
            mode: EstimatorMode::Mle,
        };
        let outcome = sketch_estimate(&pair, &trial).unwrap();
        assert!(outcome.join_size > 400);
        assert!(outcome.left_storage <= 512);
        // Sketch estimates carry sampling error; just require the right
        // ballpark (the experiments quantify the error precisely).
        assert!((outcome.estimate - data.true_mi).abs() < 0.8);
    }

    #[test]
    fn too_small_samples_return_none() {
        assert!(EstimatorMode::MixedKsg
            .estimate(&[Value::Int(1)], &[Value::Int(1)], 0)
            .is_none());
        let strings = vec![Value::from("a"); 10];
        // Non-numeric data cannot be fed to the KSG-family modes.
        assert!(EstimatorMode::MixedKsg
            .estimate(&strings, &strings, 0)
            .is_none());
        assert!(EstimatorMode::Mle.estimate(&strings, &strings, 0).is_some());
    }

    #[test]
    fn run_grid_matches_sequential_sketch_estimate() {
        let gen = TrinomialConfig::new(32, 0.45, 0.4);
        let pairs: Vec<_> = (0..3u64)
            .map(|s| {
                let data = gen.generate(1500, s);
                decompose(&data.xs, &data.ys, KeyDistribution::KeyInd)
            })
            .collect();
        let mut cells = Vec::new();
        for pair_index in 0..pairs.len() {
            for mode in EstimatorMode::TRINOMIAL {
                cells.push((
                    pair_index,
                    SketchTrial {
                        kind: SketchKind::Tupsk,
                        config: SketchConfig::new(256, 5),
                        mode,
                    },
                ));
            }
        }
        let sequential: Vec<Option<TrialOutcome>> = joinmi_par::with_threads(1, || {
            cells
                .iter()
                .map(|&(pair_index, trial)| sketch_estimate(&pairs[pair_index], &trial))
                .collect()
        });
        let parallel = joinmi_par::with_threads(4, || run_grid(&pairs, &cells));
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            match (p, s) {
                (Some(a), Some(b)) => {
                    // Bit-for-bit: estimates come from identical inputs.
                    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                    assert_eq!(a.join_size, b.join_size);
                    assert_eq!(a.left_storage, b.left_storage);
                }
                (None, None) => {}
                _ => panic!("parallel/sequential disagreement"),
            }
        }
    }

    #[test]
    fn persisted_grid_is_bit_identical_to_in_memory_grid() {
        let gen = TrinomialConfig::new(32, 0.45, 0.4);
        let pairs: Vec<_> = (0..2u64)
            .map(|s| {
                let data = gen.generate(1200, s);
                decompose(&data.xs, &data.ys, KeyDistribution::KeyInd)
            })
            .collect();
        let mut cells = Vec::new();
        for pair_index in 0..pairs.len() {
            for kind in SketchKind::ALL {
                for mode in EstimatorMode::TRINOMIAL {
                    cells.push((
                        pair_index,
                        SketchTrial {
                            kind,
                            config: SketchConfig::new(128, 9),
                            mode,
                        },
                    ));
                }
            }
        }
        let in_memory = run_grid(&pairs, &cells);
        let persisted = run_grid_persisted(&pairs, &cells);
        assert_eq!(in_memory.len(), persisted.len());
        for (a, b) in in_memory.iter().zip(&persisted) {
            match (a, b) {
                (Some(m), Some(p)) => {
                    assert_eq!(m.estimate.to_bits(), p.estimate.to_bits());
                    assert_eq!(m.join_size, p.join_size);
                    assert_eq!(m.left_storage, p.left_storage);
                }
                (None, None) => {}
                _ => panic!("persisted/in-memory grid disagreement"),
            }
        }
    }

    #[test]
    fn join_size_helper_matches_sketch_estimate() {
        let gen = CdUnifConfig::new(32);
        let data = gen.generate(4000, 2);
        let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);
        let config = SketchConfig::new(256, 1);
        let size = sketch_join_size(&pair, SketchKind::Tupsk, &config).unwrap();
        let trial = SketchTrial {
            kind: SketchKind::Tupsk,
            config,
            mode: EstimatorMode::MixedKsg,
        };
        let outcome = sketch_estimate(&pair, &trial).unwrap();
        assert_eq!(size, outcome.join_size);
    }
}
