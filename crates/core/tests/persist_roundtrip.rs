//! Property tests pinning `sketch == decode(encode(sketch))` for TUPSK
//! sketches through the codec a repository file embeds, over randomly
//! generated tables, sketch sizes, and seeds — the satellite guarantee
//! behind the offline-ingest → online-query split.

use joinmi_sketch::persist::SketchView;
use joinmi_sketch::{tupsk, Aggregation, ColumnSketch, SketchConfig};
use joinmi_store::{SliceReader, Writer};
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

fn encode(sketch: &ColumnSketch) -> Vec<u8> {
    let mut w = Writer::new(Vec::new());
    sketch.write_embedded(&mut w).unwrap();
    w.into_inner()
}

fn decode(bytes: &[u8]) -> ColumnSketch {
    let mut r = SliceReader::new(bytes);
    let view = SketchView::parse(&mut r).unwrap();
    r.expect_consumed("embedded sketch").unwrap();
    view.to_sketch()
}

fn assert_round_trip(sketch: &ColumnSketch) {
    let buf = encode(sketch);
    let decoded = decode(&buf);
    assert_eq!(&decoded, sketch);
    // Re-encoding the decoded sketch is byte-identical (canonical encoding,
    // float bits included).
    assert_eq!(encode(&decoded), buf);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn left_sketches_round_trip(
        rows in keyed_rows(),
        size in 1usize..64,
        seed in 0u64..16,
    ) {
        let table = build_table(&rows);
        let cfg = SketchConfig::new(size, seed);
        for value in ["vi", "vf", "vc"] {
            assert_round_trip(&tupsk::build_left(&table, "k", value, &cfg).unwrap());
        }
    }

    #[test]
    fn right_sketches_round_trip(
        rows in keyed_rows(),
        size in 1usize..64,
        seed in 0u64..16,
    ) {
        let table = build_table(&rows);
        let cfg = SketchConfig::new(size, seed);
        // Float feature under AVG and categorical feature under MODE:
        // covers float and string value columns in the stored rows.
        let avg = tupsk::build_right(&table, "k", "vf", Aggregation::Avg, &cfg).unwrap();
        assert_round_trip(&avg);
        let mode = tupsk::build_right(&table, "k", "vc", Aggregation::Mode, &cfg).unwrap();
        assert_round_trip(&mode);
    }

    #[test]
    fn joins_on_decoded_sketches_match_originals(
        rows in keyed_rows(),
        seed in 0u64..8,
    ) {
        let table = build_table(&rows);
        let cfg = SketchConfig::new(32, seed);
        let left = tupsk::build_left(&table, "k", "vi", &cfg).unwrap();
        let right = tupsk::build_right(&table, "k", "vf", Aggregation::Avg, &cfg).unwrap();

        let round = |s: &ColumnSketch| decode(&encode(s));
        let joined_mem = left.join(&right);
        let joined_disk = round(&left).join(&round(&right));
        prop_assert_eq!(joined_mem.len(), joined_disk.len());
        prop_assert_eq!(joined_mem.variables(), joined_disk.variables());
    }
}
