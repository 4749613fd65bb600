//! Golden bits of the five sketch kinds: TUPSK and the paper's four
//! baselines (LV2SK, PRISK, INDSK, CSK).
//!
//! `GOLDEN` holds, per table pair, one FNV-1a digest per kind (in
//! [`SketchKind::ALL`] order). A digest covers a left sketch of the base
//! table, right sketches of the candidate table and of the base table
//! itself (repeated keys aggregated), and the MI estimate of each sketch
//! join. A sketch contributes its side, value dtype, configuration,
//! `source_rows`, `source_distinct_keys`, and every row's key digest and
//! value bits, in stored order. A match proves that moving a builder
//! changed no output bit.
//!
//! The table pairs come from `joinmi_synth`: integer/integer (trinomial),
//! integer/float (CDUnif) and string/string (trinomial values spelled as
//! strings, with an independent target), each under unique keys (KeyInd)
//! and feature-valued keys (KeyDep), with 120 rows (below the 256-row
//! budget) and 3 000 rows (above it). An estimator error is absorbed as its
//! own marker, so a change in which joins are refused shows too.

use joinmi::eval::baselines;
use joinmi::prelude::*;
use joinmi::sketch::Side;
use joinmi::synth::{decompose, DecomposedPair};

const BUDGET: usize = 256;
const SIZES: [usize; 2] = [120, 3_000];

/// Per table pair: one digest per kind, in `SketchKind::ALL` order.
const GOLDEN: [(&str, [u64; 5]); 12] = [
    (
        "int/int KeyInd n=120",
        [
            0x6fbf_dadb_75f9_6331,
            0x3057_d5c1_2d8a_8b11,
            0x6c7b_4fdd_358b_79ec,
            0x6c7b_4fdd_358b_79ec,
            0x9da8_c56c_3494_906f,
        ],
    ),
    (
        "int/int KeyDep n=120",
        [
            0x7cbb_365f_4126_c4b9,
            0x2122_2ef7_b033_7788,
            0xc705_7bab_00c0_41ae,
            0xc4b1_d75c_3e93_461e,
            0x1d62_ccae_7bd3_9542,
        ],
    ),
    (
        "int/float KeyInd n=120",
        [
            0x5364_a3fa_4b9b_4c4b,
            0xfa23_fe04_dfe1_a6f6,
            0x5364_a3fa_4b9b_4c4b,
            0x5364_a3fa_4b9b_4c4b,
            0x7642_0f6f_daa5_d726,
        ],
    ),
    (
        "int/float KeyDep n=120",
        [
            0xc85e_ad7d_f4f1_7444,
            0x8d46_130e_e9a1_fd10,
            0x7716_9f03_6e19_670a,
            0xf5f3_3ce5_5640_6408,
            0x14d7_0ac7_d713_b5f5,
        ],
    ),
    (
        "str/str KeyInd n=120",
        [
            0x48a2_91f5_00f4_102b,
            0x6be9_624f_a696_a4fb,
            0x48a2_91f5_00f4_102b,
            0x48a2_91f5_00f4_102b,
            0x4540_3040_98c7_e6a3,
        ],
    ),
    (
        "str/str KeyDep n=120",
        [
            0x0233_7d60_8138_6ba4,
            0xc989_9905_3208_1ce9,
            0xbc5c_22ea_d3aa_000c,
            0xb063_3cff_4f8b_22d8,
            0x33a4_b23c_25ca_027a,
        ],
    ),
    (
        "int/int KeyInd n=3000",
        [
            0x0192_46f6_7039_4aa3,
            0x1378_4924_563b_d9ea,
            0x0acf_538e_0e52_1321,
            0x0acf_538e_0e52_1321,
            0xb2f1_dd75_0574_66e5,
        ],
    ),
    (
        "int/int KeyDep n=3000",
        [
            0x73e4_d84b_d22b_6524,
            0x7f54_33e7_bf63_0be4,
            0x9d31_4786_21f7_d789,
            0x36ad_c84b_2603_85f3,
            0xef6c_aa8d_46c0_c472,
        ],
    ),
    (
        "int/float KeyInd n=3000",
        [
            0x1299_e18a_c1ff_0b68,
            0x6c1b_7942_0775_61f7,
            0x1299_e18a_c1ff_0b68,
            0x1299_e18a_c1ff_0b68,
            0x2280_906a_d9e0_5717,
        ],
    ),
    (
        "int/float KeyDep n=3000",
        [
            0x5840_9bda_1335_36e3,
            0xd1f5_01bc_9cb9_12fd,
            0xd8ed_5ec2_434f_6ff2,
            0x06f5_5bb9_7b41_db2a,
            0x20ac_dc8a_9d38_2222,
        ],
    ),
    (
        "str/str KeyInd n=3000",
        [
            0x51d0_f226_a5ce_4d76,
            0x9f22_16ca_c692_9847,
            0x51d0_f226_a5ce_4d76,
            0x51d0_f226_a5ce_4d76,
            0x237e_fe16_ee33_b8d6,
        ],
    ),
    (
        "str/str KeyDep n=3000",
        [
            0xd8d5_a40e_4fa8_4b46,
            0x7863_85d3_8b33_1837,
            0x0720_80d9_3208_62b9,
            0xf866_edd8_4e62_3441,
            0x14f9_64a0_1c03_72a9,
        ],
    ),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn absorb_value(hash: &mut u64, value: &Value) {
    match value {
        Value::Null => fnv1a(hash, 0),
        Value::Int(v) => {
            fnv1a(hash, 1);
            fnv1a(hash, *v as u64);
        }
        Value::Float(v) => {
            fnv1a(hash, 2);
            fnv1a(hash, v.to_bits());
        }
        Value::Str(s) => {
            fnv1a(hash, 3);
            fnv1a(hash, s.len() as u64);
            for byte in s.bytes() {
                fnv1a(hash, u64::from(byte));
            }
        }
    }
}

fn absorb_sketch(hash: &mut u64, sketch: &ColumnSketch) {
    fnv1a(hash, matches!(sketch.side(), Side::Right).into());
    fnv1a(hash, sketch.value_dtype() as u64);
    fnv1a(hash, sketch.config().size as u64);
    fnv1a(hash, sketch.config().seed);
    fnv1a(hash, sketch.source_rows() as u64);
    fnv1a(hash, sketch.source_distinct_keys() as u64);
    fnv1a(hash, sketch.len() as u64);
    for row in sketch.rows() {
        fnv1a(hash, row.key.raw());
        absorb_value(hash, &row.value);
    }
}

fn absorb_join(hash: &mut u64, left: &ColumnSketch, right: &ColumnSketch) {
    let joined = left.join(right);
    fnv1a(hash, joined.len() as u64);
    fnv1a(
        hash,
        joined.estimate_mi().map_or(u64::MAX, |e| e.mi.to_bits()),
    );
}

fn spelled(values: &[Value]) -> Vec<Value> {
    values
        .iter()
        .map(|v| Value::from(format!("s{v}")))
        .collect()
}

/// The table pairs of one size, labelled as in `GOLDEN`.
fn pairs(n: usize) -> Vec<(String, DecomposedPair)> {
    let seed = n as u64;
    let trinomial = TrinomialConfig::with_random_target(16, 2.0, seed).generate(n, seed + 1);
    let cdunif = CdUnifConfig::new(24).generate(n, seed + 2);
    let other = TrinomialConfig::with_random_target(8, 1.0, seed + 3).generate(n, seed + 4);
    let strings = (spelled(&trinomial.xs), spelled(&other.ys));
    let mut out = Vec::new();
    for (name, xs, ys) in [
        ("int/int", &trinomial.xs, &trinomial.ys),
        ("int/float", &cdunif.xs, &cdunif.ys),
        ("str/str", &strings.0, &strings.1),
    ] {
        for key_dist in KeyDistribution::ALL {
            out.push((
                format!("{name} {key_dist} n={n}"),
                decompose(xs, ys, key_dist),
            ));
        }
    }
    out
}

/// The five digests of one table pair.
fn digests(pair: &DecomposedPair) -> [u64; 5] {
    let cfg = SketchConfig::new(BUDGET, 11);
    let (key, y, x) = (&pair.key_column, &pair.target_column, &pair.feature_column);
    let target_agg = match pair.train.column(y).unwrap().dtype() {
        DataType::Str => Aggregation::Mode,
        _ => Aggregation::Avg,
    };
    SketchKind::ALL.map(|kind| {
        let mut hash = FNV_OFFSET;
        let left = baselines::build_left(kind, &pair.train, key, y, &cfg).unwrap();
        let right =
            baselines::build_right(kind, &pair.cand, key, x, pair.aggregation, &cfg).unwrap();
        let aggregated =
            baselines::build_right(kind, &pair.train, key, y, target_agg, &cfg).unwrap();
        for sketch in [&left, &right, &aggregated] {
            absorb_sketch(&mut hash, sketch);
        }
        absorb_join(&mut hash, &left, &right);
        absorb_join(&mut hash, &left, &aggregated);
        hash
    })
}

#[test]
fn every_kind_matches_the_recorded_bits() {
    let mut mismatches = Vec::new();
    let all: Vec<_> = SIZES.iter().flat_map(|&n| pairs(n)).collect();
    assert_eq!(
        all.iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        GOLDEN.map(|(name, _)| name),
    );
    for ((name, pair), (_, want)) in all.iter().zip(GOLDEN) {
        let got = digests(pair);
        if got != want {
            mismatches.push(format!(
                "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}])",
                got[0], got[1], got[2], got[3], got[4]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "sketches moved:\n{}",
        mismatches.join(",\n")
    );
}
