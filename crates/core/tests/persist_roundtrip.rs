//! Property tests pinning `sketch == decode(encode(sketch))` for every
//! sketch kind, over randomly generated tables, sketch sizes, and seeds —
//! the satellite guarantee behind the offline-ingest → online-query split.

use joinmi_sketch::{Aggregation, ColumnSketch, SketchConfig, SketchKind};
use joinmi_table::Table;
use proptest::prelude::*;

/// Strategy for a small keyed table: (key id, float value) rows plus a
/// categorical column, so both numeric and string features are exercised.
fn keyed_rows() -> impl Strategy<Value = Vec<(u8, i64)>> {
    proptest::collection::vec((0u8..60, -500i64..500), 1..200)
}

fn build_table(rows: &[(u8, i64)]) -> Table {
    let keys: Vec<String> = rows.iter().map(|(k, _)| format!("key-{k}")).collect();
    let ints: Vec<i64> = rows.iter().map(|(_, v)| *v).collect();
    let floats: Vec<f64> = rows
        .iter()
        .map(|(k, v)| f64::from(*k) + *v as f64 / 7.0)
        .collect();
    let cats: Vec<String> = rows.iter().map(|(k, _)| format!("cat-{}", k % 5)).collect();
    Table::builder("prop")
        .push_str_column("k", keys)
        .push_int_column("vi", ints)
        .push_float_column("vf", floats)
        .push_str_column("vc", cats)
        .build()
        .unwrap()
}

fn assert_round_trip(sketch: &ColumnSketch) {
    let mut buf = Vec::new();
    sketch.to_writer(&mut buf).unwrap();
    let decoded = ColumnSketch::from_bytes(&buf).unwrap();
    assert_eq!(&decoded, sketch);
    // Re-encoding the decoded sketch is byte-identical (canonical encoding).
    let mut buf2 = Vec::new();
    decoded.to_writer(&mut buf2).unwrap();
    assert_eq!(buf, buf2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_kind_round_trips_left_sketches(
        rows in keyed_rows(),
        size in 1usize..64,
        seed in 0u64..16,
    ) {
        let table = build_table(&rows);
        let cfg = SketchConfig::new(size, seed);
        for kind in SketchKind::ALL {
            let sketch = kind.build_left(&table, "k", "vi", &cfg).unwrap();
            assert_round_trip(&sketch);
        }
    }

    #[test]
    fn every_kind_round_trips_right_sketches(
        rows in keyed_rows(),
        size in 1usize..64,
        seed in 0u64..16,
    ) {
        let table = build_table(&rows);
        let cfg = SketchConfig::new(size, seed);
        for kind in SketchKind::ALL {
            // Float feature under AVG and categorical feature under MODE:
            // covers float and string value columns in the stored rows.
            let avg = kind
                .build_right(&table, "k", "vf", Aggregation::Avg, &cfg)
                .unwrap();
            assert_round_trip(&avg);
            let mode = kind
                .build_right(&table, "k", "vc", Aggregation::Mode, &cfg)
                .unwrap();
            assert_round_trip(&mode);
        }
    }

    #[test]
    fn joins_on_decoded_sketches_match_originals(
        rows in keyed_rows(),
        seed in 0u64..8,
    ) {
        let table = build_table(&rows);
        let cfg = SketchConfig::new(32, seed);
        let left = SketchKind::Tupsk.build_left(&table, "k", "vi", &cfg).unwrap();
        let right = SketchKind::Tupsk
            .build_right(&table, "k", "vf", Aggregation::Avg, &cfg)
            .unwrap();

        let round = |s: &ColumnSketch| {
            let mut buf = Vec::new();
            s.to_writer(&mut buf).unwrap();
            ColumnSketch::from_bytes(&buf).unwrap()
        };
        let joined_mem = left.join(&right);
        let joined_disk = round(&left).join(&round(&right));
        prop_assert_eq!(joined_mem.len(), joined_disk.len());
        prop_assert_eq!(joined_mem.variables(), joined_disk.variables());
    }
}
