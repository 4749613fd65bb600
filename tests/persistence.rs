//! End-to-end persistence: offline ingest → save → (new "process" state) →
//! load → online query, checked bit-for-bit against the in-memory pipeline,
//! through the public facade API only.

use joinmi::discovery::RepositoryConfig;
use joinmi::prelude::*;
use joinmi::sketch::tupsk;
use joinmi::synth::TaxiScenario;

fn build_repo() -> (TableRepository, RelationshipQuery) {
    let scenario = TaxiScenario::generate(60, 20, 11);
    let mut repo = TableRepository::new(RepositoryConfig {
        sketch: SketchConfig::new(512, 11),
        ..RepositoryConfig::default()
    });
    repo.add_tables(vec![
        scenario.weather.clone(),
        scenario.demographics.clone(),
        scenario.inspections.clone(),
    ])
    .unwrap();
    let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
        .with_sketch(SketchKind::Tupsk, SketchConfig::new(512, 11))
        .with_min_join_size(10)
        .with_top_k(0);
    (repo, query)
}

fn fingerprint(ranking: &[joinmi::discovery::RankedCandidate]) -> Vec<(usize, u64, usize)> {
    ranking
        .iter()
        .map(|r| (r.candidate_index, r.mi.to_bits(), r.sketch_join_size))
        .collect()
}

#[test]
fn ingest_save_load_query_is_bit_identical() {
    let (repo, query) = build_repo();
    let in_memory = fingerprint(&query.execute(&repo).unwrap());
    assert!(!in_memory.is_empty());

    let path = std::env::temp_dir().join(format!(
        "joinmi-facade-persistence-{}.jmi",
        std::process::id()
    ));
    repo.save(&path).unwrap();

    // Eager load: a sketch-only repository.
    let loaded = TableRepository::load(&path).unwrap();
    assert!(loaded.is_sketch_only());
    assert_eq!(fingerprint(&query.execute(&loaded).unwrap()), in_memory);

    // Lazy snapshot: decodes only pruned candidates, same answers.
    let snapshot = TableRepository::load_mmap_like(&path).unwrap();
    assert_eq!(fingerprint(&query.execute(&snapshot).unwrap()), in_memory);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn single_sketch_round_trips_through_the_facade() {
    use joinmi::sketch::persist::SketchView;
    use joinmi::store::{SliceReader, Writer};
    use joinmi::table::Table;

    let table = Table::builder("t")
        .push_str_column("k", vec!["a", "b", "c", "a"])
        .push_int_column("v", vec![1, 2, 3, 4])
        .build()
        .unwrap();
    let cfg = SketchConfig::new(8, 1);
    let sketch = tupsk::build_left(&table, "k", "v", &cfg).unwrap();

    // The embedded form a repository file carries.
    let mut w = Writer::new(Vec::new());
    sketch.write_embedded(&mut w).unwrap();
    let buf = w.into_inner();
    let decode = |bytes: &[u8]| {
        let mut r = SliceReader::new(bytes);
        let view = SketchView::parse(&mut r)?;
        r.expect_consumed("embedded sketch")?;
        Ok::<_, StoreError>(view.to_sketch())
    };
    assert_eq!(decode(&buf).unwrap(), sketch);

    // Typed error surface reaches the facade.
    match decode(&buf[..4]) {
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("expected StoreError::Truncated, got {other:?}"),
    }
}
