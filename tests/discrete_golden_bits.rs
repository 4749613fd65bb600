//! Golden bits of the discrete estimators: the plug-in MLE and the
//! Hutter–Zaffalon posterior moments.
//!
//! `GOLDEN` holds, per sample size, one FNV-1a digest of the `to_bits()` of
//! every estimate below, for each of five entry points: `mle_mi`;
//! `mi_posterior` (mean and variance); `estimate_mi_with_workspace` with the
//! MLE through one workspace reused across every call; and
//! `JoinedSketch::estimate_mi_interval_in` on string/string joins and on
//! joins with a numeric side (point estimate, `ci_lo`, `ci_hi` and variance
//! at two levels). The constants were recorded on the implementation that
//! built three hash maps per call and called `digamma` per cell, so a match
//! proves that a rewrite of the contingency pass changed no output bit.
//!
//! The samples cover n ∈ {1, 5, 64, 790, 4 096}: a single cell, all-distinct
//! pairs, sparse codes near `u32::MAX`, codes that are dense but not in
//! first-occurrence order, and independent and dependent pairs. The joins
//! come both from paired value columns and from TUPSK sketches of two
//! tables. An estimator error is absorbed as its own marker, so a change in
//! which inputs are refused shows too.

use joinmi::estimators::{
    estimate_mi_with_workspace, mi_posterior, mle_mi, EstimatorKind, EstimatorWorkspace, Variable,
};
use joinmi::prelude::*;
use joinmi::sketch::tupsk;

const SIZES: [usize; 5] = [1, 5, 64, 790, 4_096];
const LEVELS: [f64; 2] = [0.9, 0.95];

/// Per size: digests of `[mle_mi, mi_posterior, estimate_mi_with_workspace,
/// discrete joins, mixed joins]`.
const GOLDEN: [(usize, [u64; 5]); 5] = [
    (
        1,
        [
            0xef42_dbed_f205_5415,
            0x4ef5_47c1_cdbe_05d5,
            0xab0c_2627_59a1_d225,
            0xdded_d579_bea7_6625,
            0xa848_72f9_5aeb_a815,
        ],
    ),
    (
        5,
        [
            0x1c08_ad61_129d_cbf9,
            0x164b_baf6_6bbf_42a3,
            0x1d2f_0b09_2e07_d02d,
            0xb704_8b0a_9c6d_c9d2,
            0x7a2d_0a62_18a2_c4ae,
        ],
    ),
    (
        64,
        [
            0xe56e_fb19_cdd2_bf53,
            0xcfca_56fa_e801_4616,
            0x1984_f6c7_1f12_9196,
            0x5c56_cfff_7f4c_7192,
            0x92ba_f652_1e19_4929,
        ],
    ),
    (
        790,
        [
            0x43bc_3466_e32d_1c8a,
            0x8662_51d4_710d_81e6,
            0xd029_8c0b_d29a_c845,
            0x7e90_e4b4_d003_6419,
            0xd737_5de7_9d1e_a088,
        ],
    ),
    (
        4_096,
        [
            0xf41b_9ada_950c_8ddd,
            0x943b_7d82_f6b7_be9f,
            0x5d66_c703_01f0_d33f,
            0x504b_cfab_818c_6f65,
            0x291d_d580_4066_6180,
        ],
    ),
];

/// A tiny deterministic generator.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n) as u32
    }
}

/// The coded pairs of one size.
fn pairs(n: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut rng = Lcg(0xd15c_0000 + n as u64);
    let groups = n as u64 / 8 + 2;
    let independent = (
        (0..n).map(|_| rng.below(8)).collect(),
        (0..n).map(|_| rng.below(6)).collect(),
    );
    let x: Vec<u32> = (0..n).map(|_| rng.below(groups)).collect();
    let y = x.iter().map(|&a| (a * 3 + rng.below(3)) % 11).collect();
    let dependent = (x, y);
    let single_cell = (vec![3; n], vec![9; n]);
    let all_distinct = ((0..n as u32).collect(), (0..n as u32).rev().collect());
    let x: Vec<u32> = (0..n).map(|_| rng.below(5)).collect();
    let y = x
        .iter()
        .map(|&a| u32::MAX - (a + rng.below(2)) * 7_919)
        .collect();
    let sparse = (x.iter().map(|&a| u32::MAX - a * 104_729).collect(), y);
    // Dense below 200 but not in first-occurrence order, against sparse y.
    let x: Vec<u32> = (0..n).map(|_| rng.below(200)).collect();
    let y = x.iter().map(|&a| 4_000_000_000 - (a % 17) * 3).collect();
    let high_cardinality = (x, y);
    vec![
        independent,
        dependent,
        single_cell,
        all_distinct,
        sparse,
        high_cardinality,
    ]
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Absorbs one estimate: its bits, or a marker for a refused input.
fn absorb<E>(hash: &mut u64, estimate: Result<f64, E>) {
    fnv1a(hash, estimate.map_or(u64::MAX, f64::to_bits));
}

/// Absorbs a point estimate and its interval at every level.
fn absorb_interval(hash: &mut u64, joined: &JoinedSketch, ws: &mut EstimatorWorkspace) {
    for level in LEVELS {
        match joined.estimate_mi_interval_in(ws, 3, level) {
            Ok((est, iv)) => {
                for v in [est.mi, iv.ci_lo, iv.ci_hi, iv.variance] {
                    fnv1a(hash, v.to_bits());
                }
            }
            Err(_) => fnv1a(hash, u64::MAX),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn strings(codes: &[u32]) -> Vec<Value> {
    codes.iter().map(|c| Value::from(format!("s{c}"))).collect()
}

fn floats(codes: &[u32]) -> Vec<Value> {
    codes
        .iter()
        .map(|&c| Value::Float(f64::from(c % 1_000) * 0.5))
        .collect()
}

/// A keyed table pair whose TUPSK join has about `n` pairs: a string and a
/// float target on the left, a string and an integer feature on the right.
fn sketch_joins(n: usize) -> Vec<(JoinedSketch, bool)> {
    let mut rng = Lcg(0x5e7c_0000 + n as u64);
    let keys = (n as u64).max(2);
    let rows = 2 * n + 1;
    let (mut lk, mut label, mut score) = (vec![], vec![], vec![]);
    for _ in 0..rows {
        let k = rng.below(keys);
        lk.push(Value::from(format!("k{k}")));
        label.push(Value::from(format!("y{}", (k + rng.below(2)) % 7)));
        score.push(Value::Float(
            f64::from(k % 13) + f64::from(rng.below(4)) * 0.25,
        ));
    }
    let (mut rk, mut cat, mut count) = (vec![], vec![], vec![]);
    for k in 0..keys {
        rk.push(Value::from(format!("k{k}")));
        cat.push(Value::from(format!("c{}", (k as u32 + rng.below(2)) % 5)));
        count.push(Value::Int(i64::from((k as u32 * 3 + rng.below(3)) % 9)));
    }
    let train = Table::builder("train")
        .push_value_column("key", DataType::Str, &lk)
        .unwrap()
        .push_value_column("label", DataType::Str, &label)
        .unwrap()
        .push_value_column("score", DataType::Float, &score)
        .unwrap()
        .build()
        .unwrap();
    let cand = Table::builder("cand")
        .push_value_column("key", DataType::Str, &rk)
        .unwrap()
        .push_value_column("cat", DataType::Str, &cat)
        .unwrap()
        .push_value_column("count", DataType::Int, &count)
        .unwrap()
        .build()
        .unwrap();
    let cfg = SketchConfig::new(n, 23);
    let mut out = Vec::new();
    for (target, feature, agg) in [
        ("label", "cat", Aggregation::Mode),
        ("score", "cat", Aggregation::Mode),
        ("label", "count", Aggregation::Avg),
        ("score", "count", Aggregation::Avg),
    ] {
        let left = tupsk::build_left(&train, "key", target, &cfg).unwrap();
        let right = tupsk::build_right(&cand, "key", feature, agg, &cfg).unwrap();
        out.push((left.join(&right), target == "label" && feature == "cat"));
    }
    out
}

/// The five digests of one size.
fn digests(n: usize, ws: &mut EstimatorWorkspace) -> [u64; 5] {
    let mut out = [FNV_OFFSET; 5];
    let all = pairs(n);
    for (x, y) in &all {
        absorb(&mut out[0], mle_mi(x, y));
        let post = mi_posterior(x, y);
        absorb(&mut out[1], post.as_ref().map(|p| p.mean));
        absorb(&mut out[1], post.as_ref().map(|p| p.variance));

        let as_floats = |codes: &[u32]| codes.iter().map(|&c| f64::from(c)).collect();
        let (dx, dy) = (Variable::Discrete(x.clone()), Variable::Discrete(y.clone()));
        let (cx, cy) = (
            Variable::Continuous(as_floats(x)),
            Variable::Continuous(as_floats(y)),
        );
        for (a, b) in [(&dx, &dy), (&dy, &dx), (&cx, &cy), (&dx, &cy)] {
            let estimate = estimate_mi_with_workspace(ws, a, b, EstimatorKind::Mle, 3);
            absorb(&mut out[2], estimate.map(|e| e.mi));
        }

        let discrete =
            JoinedSketch::from_pairs(strings(x), strings(y), DataType::Str, DataType::Str);
        absorb_interval(&mut out[3], &discrete, ws);
        for (xs, ys, xt, yt) in [
            (strings(x), floats(y), DataType::Str, DataType::Float),
            (floats(x), strings(y), DataType::Float, DataType::Str),
            (floats(x), floats(y), DataType::Float, DataType::Float),
        ] {
            absorb_interval(&mut out[4], &JoinedSketch::from_pairs(xs, ys, xt, yt), ws);
        }
    }
    for (joined, discrete) in sketch_joins(n) {
        absorb_interval(&mut out[if discrete { 3 } else { 4 }], &joined, ws);
    }

    // Refused inputs: a length mismatch and an empty sample.
    let (x, _) = &all[0];
    let longer: Vec<u32> = x.iter().copied().chain([0]).collect();
    absorb(&mut out[0], mle_mi(x, &longer));
    absorb(&mut out[1], mi_posterior(&longer, x).map(|p| p.mean));
    absorb(&mut out[0], mle_mi(&[], &[]));
    absorb(&mut out[1], mi_posterior(&[], &[]).map(|p| p.mean));
    out
}

#[test]
fn discrete_estimates_match_the_recorded_bits() {
    let mut ws = EstimatorWorkspace::new();
    let mut mismatches = Vec::new();
    for (n, want) in GOLDEN {
        let got = digests(n, &mut ws);
        if got != want {
            mismatches.push(format!(
                "({n}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}])",
                got[0], got[1], got[2], got[3], got[4]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "estimates moved:\n{}",
        mismatches.join(",\n")
    );
    assert_eq!(GOLDEN.map(|(n, _)| n), SIZES);
}
