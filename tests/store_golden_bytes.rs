//! Golden pin of the bytes a repository file holds across its lifecycle.
//!
//! The `tests/persistence.rs` taxi corpus is saved, extended by one
//! `append_to` group whose chunk brings new join keys into the candidate
//! selections, compacted with `CompactMode::Preserve` and then sealed. After
//! each step the whole file is hashed with `murmur3_x64_128` and its length
//! recorded. The constants were recorded before the store and the appendable
//! builder were narrowed to one sketch kind, so a match proves that every
//! on-disk byte is unchanged. Each digest is taken on one and on three
//! `joinmi_par` workers, and the two must agree.

use joinmi::discovery::persist::CompactMode;
use joinmi::discovery::RepositoryConfig;
use joinmi::hash::murmur3_x64_128;
use joinmi::par::with_threads;
use joinmi::prelude::*;
use joinmi::synth::TaxiScenario;

/// `(murmur3_x64_128 of the file, file length)` after save, after the append
/// group, after `compact(Preserve)` and after `compact(Seal)`.
const GOLDEN: [((u64, u64), usize); 4] = [
    ((0xb30e_b3b1_d62c_6ac4, 0x95df_cb07_82ef_4554), 20_919),
    ((0x06dd_767d_8d42_c3e1, 0xbd68_71dd_e9ca_1337), 29_670),
    ((0x4a04_f412_9c2c_78cf, 0x8013_be31_59ec_4b99), 22_167),
    ((0x90c1_c174_3a3f_18e6, 0xd7a9_fcdc_7b95_e1b0), 12_779),
];

fn build_repo(scenario: &TaxiScenario) -> TableRepository {
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
    repo
}

/// Inspections of ZIP codes the corpus has never seen: every one enters the
/// `inspections.score` selection.
fn new_zip_inspections() -> Table {
    let zips: Vec<String> = (0..12).map(|z| format!("{:05}", 20_001 + z)).collect();
    let scores: Vec<i64> = (0..12).map(|z| (z * 37 % 100) as i64).collect();
    Table::builder("inspections")
        .push_str_column("zipcode", zips)
        .push_int_column("score", scores)
        .build()
        .unwrap()
}

fn selection_sizes(repo: &TableRepository) -> Vec<usize> {
    repo.candidates()
        .iter()
        .map(|c| c.sketch.rows().len())
        .collect()
}

fn digest(path: &std::path::Path) -> ((u64, u64), usize) {
    let bytes = std::fs::read(path).unwrap();
    (murmur3_x64_128(&bytes, 0), bytes.len())
}

fn lifecycle_digests(threads: usize) -> [((u64, u64), usize); 4] {
    with_threads(threads, || {
        let scenario = TaxiScenario::generate(60, 20, 11);
        let path = std::env::temp_dir().join(format!(
            "joinmi-golden-bytes-{}-t{threads}.jmi",
            std::process::id()
        ));
        let mut repo = build_repo(&scenario);
        repo.save(&path).unwrap();
        let saved = digest(&path);

        let before = selection_sizes(&repo);
        repo.append_rows(&new_zip_inspections()).unwrap();
        assert_ne!(
            selection_sizes(&repo),
            before,
            "the append chunk must change selection membership"
        );
        repo.append_to(&path).unwrap();
        let appended = digest(&path);

        TableRepository::compact(&path, CompactMode::Preserve).unwrap();
        let preserved = digest(&path);
        TableRepository::compact(&path, CompactMode::Seal).unwrap();
        let sealed = digest(&path);

        std::fs::remove_file(&path).unwrap();
        [saved, appended, preserved, sealed]
    })
}

#[test]
fn repository_file_bytes_match_the_golden_digests() {
    let one = lifecycle_digests(1);
    let three = lifecycle_digests(3);
    assert_eq!(one, three, "file bytes depend on the worker count");
    for (step, (got, want)) in ["save", "append_to", "compact(Preserve)", "compact(Seal)"]
        .iter()
        .zip(one.iter().zip(&GOLDEN))
    {
        assert_eq!(
            got, want,
            "{step}: got ((0x{:016x}, 0x{:016x}), {})",
            got.0 .0, got.0 .1, got.1
        );
    }
}
