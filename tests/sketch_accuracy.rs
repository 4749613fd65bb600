//! Statistical integration tests: the headline claims of the paper, checked
//! end-to-end on the synthetic benchmark with fixed seeds.

use joinmi::eval::{full_join_estimate, sketch_estimate, EstimatorMode, SketchTrial};
use joinmi::prelude::*;
use joinmi::sketch::tupsk;
use joinmi::synth::decompose;

/// §V-B1: on the full data, every estimator tracks the analytical MI.
#[test]
fn full_data_estimates_are_accurate() {
    let gen = TrinomialConfig::with_random_target(64, 2.5, 5);
    let data = gen.generate(10_000, 17);
    for mode in EstimatorMode::TRINOMIAL {
        let est = full_join_estimate(&data.xs, &data.ys, mode, 1).expect("estimate");
        assert!(
            (est - data.true_mi).abs() < 0.12,
            "{}: {est} vs true {}",
            mode.name(),
            data.true_mi
        );
    }
}

/// Table I: TUPSK recovers the full sketch budget and beats INDSK join sizes.
#[test]
fn tupsk_join_size_dominates_indsk() {
    let gen = CdUnifConfig::new(64);
    let data = gen.generate(8_000, 3);
    let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);
    let config = SketchConfig::new(256, 9);

    let tupsk = SketchTrial {
        kind: SketchKind::Tupsk,
        config,
        mode: EstimatorMode::MixedKsg,
    };
    let indsk = SketchTrial {
        kind: SketchKind::Indsk,
        config,
        mode: EstimatorMode::MixedKsg,
    };
    let t = sketch_estimate(&pair, &tupsk).expect("TUPSK trial");
    assert_eq!(
        t.join_size, 256,
        "coordinated unique-key join must recover the full budget"
    );
    // Independent sampling matches ~ n²/N keys — may even be too small to
    // estimate at all; either way it must recover far fewer pairs.
    if let Some(i) = sketch_estimate(&pair, &indsk) {
        assert!(
            i.join_size < 64,
            "INDSK join unexpectedly large: {}",
            i.join_size
        );
    }
}

/// §V-B3: the KeyDep regime hurts LV2SK more than TUPSK (averaged over a few
/// trials with the MLE estimator).
#[test]
fn key_dependence_hurts_lv2sk_more_than_tupsk() {
    let mut lv2_penalty = 0.0;
    let mut tup_penalty = 0.0;
    let trials = 8;
    for t in 0..trials {
        let gen = TrinomialConfig::with_random_target(512, 3.0, 100 + t);
        let data = gen.generate(10_000, 200 + t);
        let config = SketchConfig::new(256, 300 + t);
        for (kind, penalty) in [
            (SketchKind::Lv2sk, &mut lv2_penalty),
            (SketchKind::Tupsk, &mut tup_penalty),
        ] {
            let mut errors = [0.0f64; 2];
            for (slot, key_dist) in [KeyDistribution::KeyInd, KeyDistribution::KeyDep]
                .iter()
                .enumerate()
            {
                let pair = decompose(&data.xs, &data.ys, *key_dist);
                let trial = SketchTrial {
                    kind,
                    config,
                    mode: EstimatorMode::Mle,
                };
                if let Some(outcome) = sketch_estimate(&pair, &trial) {
                    errors[slot] = (outcome.estimate - data.true_mi).powi(2);
                }
            }
            *penalty += errors[1] - errors[0];
        }
    }
    lv2_penalty /= trials as f64;
    tup_penalty /= trials as f64;
    assert!(
        lv2_penalty > tup_penalty - 0.05,
        "KeyDep penalty: LV2SK {lv2_penalty:.3} should exceed TUPSK {tup_penalty:.3}"
    );
}

/// The LV2SK worked example of §IV-B: a sketch that misses the dominant key
/// collapses the entropy of the sample to zero; TUPSK cannot collapse because
/// it samples rows uniformly.
#[test]
fn tupsk_sample_reflects_row_frequencies_on_the_worked_example() {
    let mut keys: Vec<String> = vec!["a", "b", "c", "d", "e"]
        .into_iter()
        .map(String::from)
        .collect();
    keys.extend(std::iter::repeat_with(|| "f".to_owned()).take(95));
    let ys: Vec<i64> = (0..100).collect();
    let train = Table::builder("train")
        .push_str_column("k", keys)
        .push_int_column("y", ys)
        .build()
        .expect("table");

    let cfg = SketchConfig::new(50, 4);
    let sketch = tupsk::build_left(&train, "k", "y", &cfg).expect("sketch");
    // The dominant key must occupy roughly 95% of the TUPSK sample.
    let hasher = cfg.key_hasher();
    let f_hash = Value::from("f").key_hash(&hasher);
    let f_fraction =
        sketch.rows().iter().filter(|r| r.key == f_hash).count() as f64 / sketch.len() as f64;
    assert!(f_fraction > 0.8, "dominant key fraction {f_fraction}");
}

/// Sketch estimates converge toward the truth as the budget grows
/// (the near-√n error decay of §IV-B).
#[test]
fn error_decreases_with_sketch_size() {
    let gen = TrinomialConfig::new(64, 0.45, 0.4);
    let data = gen.generate(20_000, 8);
    let pair = decompose(&data.xs, &data.ys, KeyDistribution::KeyInd);

    let mut errors = Vec::new();
    for n in [64usize, 256, 1024, 4096] {
        let mut total = 0.0;
        let reps = 5;
        for seed in 0..reps {
            let trial = SketchTrial {
                kind: SketchKind::Tupsk,
                config: SketchConfig::new(n, seed),
                mode: EstimatorMode::Mle,
            };
            let outcome = sketch_estimate(&pair, &trial).expect("trial");
            total += (outcome.estimate - data.true_mi).abs();
        }
        errors.push(total / reps as f64);
    }
    assert!(
        errors[3] < errors[0],
        "error should shrink from n=64 ({:.3}) to n=4096 ({:.3})",
        errors[0],
        errors[3]
    );
}
