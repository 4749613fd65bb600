//! The five sketching strategies the paper evaluates, built by kind: TUPSK
//! (from `joinmi_sketch`) and the four baselines of Tables I–II and
//! Figs. 2–3, which only the experiments build.
//!
//! | Kind | Sampling frame | Coordination | Size bound | Notes |
//! |---|---|---|---|---|
//! | [`SketchKind::Tupsk`] | individual rows `⟨k, j⟩` | on `⟨k, 1⟩` | `n` | **proposed method** — uniform inclusion probability `1/N`, i.i.d.-like samples |
//! | [`SketchKind::Lv2sk`] | distinct keys, then rows | on `k` | `2n` | two-level baseline; inclusion probability depends on the key-frequency distribution |
//! | [`SketchKind::Prisk`] | distinct keys (priority sampling), then rows | on `k` | `2n` | weighted first level; behaves like LV2SK in practice |
//! | [`SketchKind::Indsk`] | rows, independent Bernoulli | none | expected `n` | no coordination → tiny sketch-join sizes |
//! | [`SketchKind::Csk`] | distinct keys (KMV), first value per key | on `k` | `n` | Correlation-Sketches extension; ignores key multiplicity |
//!
//! A [`ColumnSketch`] does not record its kind; an experiment keeps the kind
//! beside the sketches it builds (see [`crate::SketchTrial`]). The builders
//! themselves are this crate's private `lv2sk`, `prisk`, `indsk` and `csk`
//! modules.

use joinmi_sketch::{tupsk, Aggregation, ColumnSketch, Result, SketchConfig, SketchKind};
use joinmi_table::Table;

use crate::{csk, indsk, lv2sk, prisk};

/// The strategies compared on real data in Table II.
pub const TABLE2: [SketchKind; 3] = [SketchKind::Lv2sk, SketchKind::Prisk, SketchKind::Tupsk];

/// Builds a `kind` sketch of the base (training) table's `(key, target)`
/// pair.
pub fn build_left(
    kind: SketchKind,
    table: &Table,
    key: &str,
    value: &str,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    match kind {
        SketchKind::Tupsk => tupsk::build_left(table, key, value, cfg),
        SketchKind::Lv2sk => lv2sk::build_left(table, key, value, cfg),
        SketchKind::Prisk => prisk::build_left(table, key, value, cfg),
        SketchKind::Indsk => indsk::build_left(table, key, value, cfg),
        SketchKind::Csk => csk::build_left(table, key, value, cfg),
    }
}

/// Builds a `kind` sketch of the candidate table's `(key, feature)` pair,
/// aggregating repeated keys with `agg` (except CSK, which keeps the first
/// value per key by construction).
pub fn build_right(
    kind: SketchKind,
    table: &Table,
    key: &str,
    value: &str,
    agg: Aggregation,
    cfg: &SketchConfig,
) -> Result<ColumnSketch> {
    match kind {
        SketchKind::Tupsk => tupsk::build_right(table, key, value, agg, cfg),
        SketchKind::Lv2sk => lv2sk::build_right(table, key, value, agg, cfg),
        SketchKind::Prisk => prisk::build_right(table, key, value, agg, cfg),
        SketchKind::Indsk => indsk::build_right(table, key, value, agg, cfg),
        SketchKind::Csk => csk::build_right(table, key, value, agg, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinmi_sketch::Side;

    fn tiny_tables() -> (Table, Table) {
        let train = Table::builder("train")
            .push_str_column("k", vec!["a", "a", "b", "c", "d", "e"])
            .push_int_column("y", vec![1, 2, 3, 4, 5, 6])
            .build()
            .unwrap();
        let cand = Table::builder("cand")
            .push_str_column("k", vec!["a", "b", "b", "c", "d", "e", "e"])
            .push_float_column("z", vec![1.0, 2.0, 4.0, 3.0, 4.0, 5.0, 7.0])
            .build()
            .unwrap();
        (train, cand)
    }

    #[test]
    fn every_kind_builds_and_joins() {
        let (train, cand) = tiny_tables();
        let cfg = SketchConfig::new(8, 1);
        for kind in SketchKind::ALL {
            let left = build_left(kind, &train, "k", "y", &cfg).unwrap();
            let right = build_right(kind, &cand, "k", "z", Aggregation::Avg, &cfg).unwrap();
            assert_eq!(left.side(), Side::Left);
            assert_eq!(right.side(), Side::Right);
            let joined = left.join(&right);
            assert!(joined.len() <= 6, "{kind}: {}", joined.len());
            if kind != SketchKind::Indsk {
                assert!(
                    joined.len() >= 5,
                    "{kind}: join too small ({})",
                    joined.len()
                );
            }
        }
    }
}
