//! Golden bits of the k-NN estimators.
//!
//! `GOLDEN` holds, per sample size, one FNV-1a digest of the `to_bits()` of
//! every estimate below, for each of four entry points: `ksg_mi`,
//! `mixed_ksg_mi`, `dc_ksg_mi`, and `estimate_mi_with_workspace` through one
//! workspace reused across every call. The constants were recorded on the
//! lockstep-blocked k-NN kernel with per-call `digamma`/`ln` and hash-map
//! DC-KSG groups, so a match proves that a kernel rewrite changed no output
//! bit.
//!
//! The samples cover n ∈ {5, 64, 307, 790, 1 500, 4 096} (1 500 runs the
//! chunked reduction, 4 096 the parallel neighbour search) and k ∈ {1, 3, 5}
//! (5 takes the heap accumulator), with heavy x-ties, exact duplicate points
//! (MixedKSG's ρ = 0 path), and DC-KSG samples with singleton groups, a
//! single group and sparse, non-first-occurrence codes. An estimator error
//! is absorbed as its own marker, so a change in which inputs are refused
//! shows too.

use joinmi::estimators::{
    dc_ksg_mi, estimate_mi_with_workspace, ksg_mi, mixed_ksg_mi, EstimatorKind, EstimatorWorkspace,
    Variable,
};

const SIZES: [usize; 6] = [5, 64, 307, 790, 1_500, 4_096];
const KS: [usize; 3] = [1, 3, 5];

/// Per size: digests of `[ksg, mixed_ksg, dc_ksg, estimate_mi_with_workspace]`.
const GOLDEN: [(usize, [u64; 4]); 6] = [
    (
        5,
        [
            0xec96_b6dc_eccb_647a,
            0x732e_ef61_d5ae_be33,
            0xf8aa_061a_3657_6075,
            0xf337_2457_7ac2_78fb,
        ],
    ),
    (
        64,
        [
            0x0524_8e52_5133_9848,
            0xc871_ef3c_865e_bfca,
            0xabee_24ea_fd7a_ea0c,
            0x0e3d_a96f_9e12_820d,
        ],
    ),
    (
        307,
        [
            0x3414_4473_dcec_72a6,
            0x2aa8_bcdf_04f0_b427,
            0x76a1_934e_334f_8806,
            0x2333_30ca_f21c_fbce,
        ],
    ),
    (
        790,
        [
            0x5816_0142_3c0a_d707,
            0x3f1a_c372_cb18_784f,
            0x1db0_7137_ecb6_0b58,
            0x26e6_743e_3a83_1229,
        ],
    ),
    (
        1_500,
        [
            0x2319_d771_4df8_8259,
            0x6677_a33d_3843_e0d1,
            0x157d_3412_b1f9_f19f,
            0x0a2b_cd9a_4382_838a,
        ],
    ),
    (
        4_096,
        [
            0x6bac_6480_0683_d1df,
            0x1d04_8e1d_61ef_6ae8,
            0x1d47_5209_cc27_f7fd,
            0x6b94_8ecb_0fa6_4676,
        ],
    ),
];

/// A tiny deterministic generator of uniforms in `[0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 11) as f64) / (1u64 << 53) as f64
    }
}

/// The samples of one size.
struct Samples {
    /// Continuous, correlated with `y`.
    x: Vec<f64>,
    /// Seven levels: heavy x-ties.
    x_tied: Vec<f64>,
    /// Four levels; paired with `y_dup`, many points are exact duplicates.
    x_dup: Vec<f64>,
    y: Vec<f64>,
    /// Three levels.
    y_dup: Vec<f64>,
    /// About n / 8 groups, every ninth point in a singleton group.
    codes_singletons: Vec<u32>,
    /// One group.
    codes_single_group: Vec<u32>,
    /// Sparse codes that are not in first-occurrence order.
    codes_sparse: Vec<u32>,
}

fn samples(n: usize) -> Samples {
    let mut rng = Lcg(0x601d_0000 + n as u64);
    let x: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
    let y: Vec<f64> = x.iter().map(|&v| v + 0.5 * rng.unit()).collect();
    let x_tied = x.iter().map(|&v| (v * 7.0).floor()).collect();
    let x_dup = x.iter().map(|&v| (v * 4.0).floor()).collect();
    let y_dup = y.iter().map(|&v| (v * 2.0).floor()).collect();
    let groups = n / 8 + 1;
    let codes_singletons = x
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 9 == 4 {
                10_000 + i as u32
            } else {
                (v * groups as f64) as u32
            }
        })
        .collect();
    let codes_single_group = vec![0; n];
    let codes_sparse = y
        .iter()
        .map(|&v| 4_000_000_000 - (v * 5.0) as u32 * 7_919)
        .collect();
    Samples {
        x,
        x_tied,
        x_dup,
        y,
        y_dup,
        codes_singletons,
        codes_single_group,
        codes_sparse,
    }
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The four digests of one size.
fn digests(n: usize, ws: &mut EstimatorWorkspace) -> [u64; 4] {
    let s = samples(n);
    let continuous_pairs = [(&s.x, &s.y), (&s.x_tied, &s.y), (&s.x_dup, &s.y_dup)];
    let coded = [&s.codes_singletons, &s.codes_single_group, &s.codes_sparse];
    let ys = [&s.y, &s.y_dup];
    let mut out = [FNV_OFFSET; 4];
    for k in KS {
        for (x, y) in continuous_pairs {
            absorb(&mut out[0], ksg_mi(x, y, k));
            absorb(&mut out[1], mixed_ksg_mi(x, y, k));
        }
        for codes in coded {
            for y in ys {
                absorb(&mut out[2], dc_ksg_mi(codes, y, k));
            }
        }

        let mut through_workspace = |kind, x: &Variable, y: &Variable| {
            let estimate = estimate_mi_with_workspace(ws, x, y, kind, k).map(|e| e.mi);
            absorb(&mut out[3], estimate);
        };
        for (x, y) in continuous_pairs {
            let (x, y) = (
                Variable::Continuous(x.clone()),
                Variable::Continuous(y.clone()),
            );
            through_workspace(EstimatorKind::Ksg, &x, &y);
            through_workspace(EstimatorKind::MixedKsg, &x, &y);
            // Numeric sides grouped into categories by exact equality.
            through_workspace(EstimatorKind::Mle, &x, &y);
        }
        for codes in coded {
            let d = Variable::Discrete(codes.clone());
            for y in ys {
                let c = Variable::Continuous(y.clone());
                through_workspace(EstimatorKind::DcKsg, &d, &c);
                through_workspace(EstimatorKind::DcKsg, &c, &d);
                // Codes read as ordered coordinates.
                through_workspace(EstimatorKind::MixedKsg, &d, &c);
            }
        }
    }
    out
}

#[test]
fn knn_estimates_match_the_recorded_bits() {
    let mut ws = EstimatorWorkspace::new();
    let mut mismatches = Vec::new();
    for (n, want) in GOLDEN {
        let got = digests(n, &mut ws);
        if got != want {
            mismatches.push(format!(
                "({n}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}])",
                got[0], got[1], got[2], got[3]
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
