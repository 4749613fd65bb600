//! End-to-end incremental ingest: appending rows to a repository — in memory
//! and through the on-disk append format — must be bit-for-bit identical to
//! one-shot ingest of the extended tables; torn or corrupted append groups
//! must surface as typed store errors. Repositories sketch with TUPSK, so
//! "every kind" in the test names is that one kind.

use joinmi::discovery::RepositoryConfig;
use joinmi::prelude::*;
use joinmi::sketch::{tupsk, RightSketchBuilder};
use joinmi::store::StoreError;
use proptest::prelude::*;

/// A deterministic candidate table with skewed string keys, NULL keys, and
/// two feature columns.
fn corpus_table(name: &str, rows: usize) -> Table {
    let keys: Vec<Value> = (0..rows)
        .map(|i| {
            if i % 13 == 7 {
                Value::Null
            } else {
                Value::from(format!("k{}", (i * 31 + i / 7) % 97))
            }
        })
        .collect();
    let f0: Vec<f64> = (0..rows).map(|i| ((i * 31) % 97) as f64 * 1.5).collect();
    let f1: Vec<i64> = (0..rows).map(|i| ((i * 17) % 23) as i64 - 5).collect();
    Table::builder(name)
        .push_value_column("key", DataType::Str, &keys)
        .unwrap()
        .push_float_column("f0", f0)
        .push_int_column("f1", f1)
        .build()
        .unwrap()
}

fn repo_with(tables: Vec<Table>) -> TableRepository {
    let mut repo = TableRepository::new(RepositoryConfig {
        sketch: SketchConfig::new(64, 9),
        ..RepositoryConfig::default()
    });
    repo.add_tables(tables).unwrap();
    repo
}

fn assert_repos_bit_identical(a: &TableRepository, b: &TableRepository, context: &str) {
    assert_eq!(a.candidates().len(), b.candidates().len(), "{context}");
    for (ca, cb) in a.candidates().iter().zip(b.candidates()) {
        assert_eq!(ca.label(), cb.label(), "{context}");
        assert_eq!(ca.sketch, cb.sketch, "{context}: sketch of {}", ca.label());
    }
    let (pa, sa) = a.joinability().canonical_parts();
    let (pb, sb) = b.joinability().canonical_parts();
    assert_eq!(pa, pb, "{context}: index postings");
    assert_eq!(sa, sb, "{context}: index sizes");
}

#[test]
fn append_rows_equals_one_shot_ingest_for_every_kind() {
    let full = corpus_table("cand", 400);
    let one_shot = repo_with(vec![full.clone()]);

    let mut appended = repo_with(vec![full.slice_rows(0..250)]);
    appended.append_rows(&full.slice_rows(250..320)).unwrap();
    appended.append_rows(&full.slice_rows(320..400)).unwrap();

    assert_repos_bit_identical(&one_shot, &appended, "in memory");
    // The raw table kept by the in-memory repository matches too.
    assert_eq!(appended.table(0), &full);
    // Profile row counts are exact after appends.
    assert_eq!(appended.profiles()[0].rows, 400);
}

#[test]
fn append_through_disk_across_simulated_processes_for_every_kind() {
    let full = corpus_table("cand", 380);
    let path = std::env::temp_dir().join(format!("joinmi-append-e2e-{}.jmi", std::process::id()));

    // Process 1: ingest the prefix and persist.
    repo_with(vec![full.slice_rows(0..300)])
        .save(&path)
        .unwrap();

    // Process 2: load, append the tail, extend the file in place.
    let mut daemon = TableRepository::load(&path).unwrap();
    assert!(daemon.is_appendable());
    daemon.append_rows(&full.slice_rows(300..380)).unwrap();
    daemon.append_to(&path).unwrap();

    // Process 3: load the appended artifact; must equal one-shot ingest.
    let reloaded = TableRepository::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let one_shot = repo_with(vec![full.clone()]);
    assert_repos_bit_identical(&one_shot, &reloaded, "via disk");
    assert_eq!(reloaded.profiles()[0].rows, 380, "profile rows");

    // And the reloaded repository can keep absorbing appends.
    let mut extended = reloaded;
    let more = corpus_table("cand", 500).slice_rows(380..500);
    extended.append_rows(&more).unwrap();
    let one_shot_more = repo_with(vec![corpus_table("cand", 500)]);
    assert_repos_bit_identical(&one_shot_more, &extended, "re-append");
}

#[test]
fn corrupt_append_section_is_a_typed_error_never_a_panic() {
    let full = corpus_table("cand", 300);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("joinmi-append-corrupt-{}.jmi", std::process::id()));
    repo_with(vec![full.slice_rows(0..240)])
        .save(&path)
        .unwrap();
    let base_len = std::fs::metadata(&path).unwrap().len() as usize;
    let mut daemon = TableRepository::load(&path).unwrap();
    daemon.append_rows(&full.slice_rows(240..300)).unwrap();
    daemon.append_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Torn appends: every truncation inside the append group is typed.
    for cut in (base_len..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
        match joinmi::prelude::RepositorySnapshot::from_bytes(bytes[..cut].to_vec()) {
            Err(
                StoreError::Truncated { .. }
                | StoreError::UnexpectedSection { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::Corrupt(_),
            ) => {}
            Ok(_) => {
                assert_eq!(cut, base_len, "only the exact base length may parse");
            }
            Err(e) => panic!("cut {cut}: unexpected error kind {e:?}"),
        }
    }

    // Bit flips anywhere in the group fail the section checksum.
    for offset in [base_len + 9, base_len + (bytes.len() - base_len) / 2] {
        let mut flipped = bytes.clone();
        flipped[offset] ^= 0x20;
        assert!(
            matches!(
                joinmi::prelude::RepositorySnapshot::from_bytes(flipped),
                Err(StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt(_)
                    | StoreError::Truncated { .. }
                    | StoreError::UnexpectedSection { .. })
            ),
            "flip at {offset} must be typed"
        );
    }
}

#[test]
fn any_format_version_other_than_3_is_unsupported() {
    // One readable version, on every path that opens a repository file:
    // older stamps are refused exactly like newer ones.
    let full = corpus_table("cand", 200);
    let mut repo = repo_with(vec![full.slice_rows(0..180)]);
    let mut repo_bytes = Vec::new();
    repo.save_to(&mut repo_bytes).unwrap();
    assert_eq!(joinmi::store::FORMAT_VERSION, 3);
    assert_eq!(repo_bytes[4..6], [3, 0]);

    repo.append_rows(&full.slice_rows(180..200)).unwrap();
    let path = std::env::temp_dir().join(format!("joinmi-version-{}.jmi", std::process::id()));
    for version in [0u16, 1, 2, 4, u16::MAX] {
        repo_bytes[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &repo_bytes).unwrap();
        for (what, result) in [
            (
                "snapshot open",
                RepositorySnapshot::from_bytes(repo_bytes.clone()).map(drop),
            ),
            (
                "eager load",
                TableRepository::load_from(repo_bytes.as_slice()).map(drop),
            ),
            ("append target", repo.append_to(&path)),
            (
                "compact",
                TableRepository::compact(&path, joinmi::discovery::CompactMode::Preserve).map(drop),
            ),
        ] {
            assert!(
                matches!(result, Err(StoreError::UnsupportedVersion { found, supported: 3 }) if found == version),
                "{what} at v{version}: {result:?}"
            );
        }
        assert_eq!(std::fs::read(&path).unwrap(), repo_bytes, "file untouched");
    }
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pinned tentpole invariant: appending a table in arbitrary chunks
    /// through the incremental builder is bit-for-bit identical to one-shot
    /// TUPSK sketching of the whole table.
    #[test]
    fn builder_appends_over_arbitrary_splits_equal_one_shot(
        rows in 1usize..260,
        splits in proptest::collection::vec(0usize..260, 0..5),
        seed in 0u64..5,
    ) {
        let cfg = SketchConfig::new(24, seed);
        let full = corpus_table("cand", rows);
        let direct = tupsk::build_right(&full, "key", "f0", Aggregation::Avg, &cfg)
            .unwrap();

        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (rows + 1)).collect();
        cuts.push(0);
        cuts.push(rows);
        cuts.sort_unstable();
        let mut builder: Option<RightSketchBuilder> = None;
        for pair in cuts.windows(2) {
            let chunk = full.slice_rows(pair[0]..pair[1]);
            match &mut builder {
                None => {
                    builder = Some(
                        RightSketchBuilder::start(&chunk, "key", "f0", Aggregation::Avg, &cfg)
                            .unwrap(),
                    );
                }
                Some(b) => {
                    b.append_table(&chunk).unwrap();
                }
            }
        }
        let built = builder.expect("at least one chunk").finish();
        prop_assert_eq!(&direct, &built);
    }

    /// Repository-level form of the same invariant, including the
    /// joinability index and a save → load → append hop.
    #[test]
    fn repository_appends_over_arbitrary_splits_equal_one_shot(
        rows in 40usize..200,
        cut_frac in 10usize..90,
    ) {
        let full = corpus_table("cand", rows);
        let cut = rows * cut_frac / 100;
        let one_shot = repo_with(vec![full.clone()]);

        let mut direct = repo_with(vec![full.slice_rows(0..cut)]);
        direct.append_rows(&full.slice_rows(cut..rows)).unwrap();
        assert_repos_bit_identical(&one_shot, &direct, "in-memory");

        // The same append applied after a persistence round-trip.
        let mut bytes = Vec::new();
        repo_with(vec![full.slice_rows(0..cut)])
            .save_to(&mut bytes)
            .unwrap();
        let mut reloaded = TableRepository::load_from(bytes.as_slice()).unwrap();
        reloaded.append_rows(&full.slice_rows(cut..rows)).unwrap();
        assert_repos_bit_identical(&one_shot, &reloaded, "reloaded");
    }
}
