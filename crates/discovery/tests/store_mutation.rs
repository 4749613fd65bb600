//! Seeded, structure-aware mutation of store artifacts. Truncation sweeps and
//! bit flips stop at the section checksum; this mutator splits an artifact
//! into its framed sections, rearranges them or rewrites fields inside their
//! payloads, and re-frames everything — including the sketch sections nested
//! in a candidate — so the structural decoders, not the checksum, meet the
//! damage. The contract: a typed `StoreError` or a value, never a panic;
//! whenever a repository opens every candidate decodes, and whenever it also
//! loads, re-saving it reaches canonical bytes.

use joinmi_discovery::persist::{
    CompactMode, RepositorySnapshot, SECTION_CANDIDATE, SECTION_CANDIDATE_STATE,
    SECTION_CANDIDATE_UPDATE, SECTION_FEATURE_DISTINCT, SECTION_REPO_META,
};
use joinmi_discovery::{
    CandidateSource, RankedCandidate, RelationshipQuery, RepositoryConfig, TableRepository,
};
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_store::{checksum, scan_section_any, write_section, SliceReader, StoreError, Writer};
use joinmi_synth::TaxiScenario;

const SKETCH: SketchConfig = SketchConfig { size: 48, seed: 3 };

/// splitmix64: all the randomness a reproducible mutator needs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// An artifact split into its file header and framed sections.
#[derive(Clone)]
struct Artifact {
    header: Vec<u8>,
    sections: Vec<(u8, Vec<u8>)>,
}

impl Artifact {
    fn parse(bytes: &[u8]) -> Self {
        let mut pos = 8usize;
        let mut sections = Vec::new();
        while pos < bytes.len() {
            let (tag, payload) = scan_section_any(bytes, &mut pos).expect("pristine artifact");
            sections.push((tag, bytes[payload].to_vec()));
        }
        Self {
            header: bytes[..8].to_vec(),
            sections,
        }
    }

    /// Re-frames every section, so lengths and checksums always agree with
    /// the (mutated) payloads.
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(self.header.clone());
        for (tag, payload) in &self.sections {
            write_section(&mut w, *tag, payload).unwrap();
        }
        w.into_inner()
    }
}

/// Re-stamps the checksums of the sketch sections embedded in a candidate
/// body after its bytes were edited, as far as the framing still walks.
fn restamp_embedded_sketch(tag: u8, payload: &mut [u8]) {
    let embedded_at = {
        let mut p = SliceReader::new(payload);
        let walked = (|| {
            if tag == SECTION_CANDIDATE_UPDATE {
                p.read_u64("id")?;
            }
            p.read_u64("table index")?;
            for _ in 0..3 {
                p.read_str("name")?;
            }
            p.read_u8("aggregation")
        })();
        match walked {
            Ok(_) => p.position(),
            Err(_) => return,
        }
    };
    let mut frame = embedded_at;
    while let Some(len) = payload
        .get(frame + 1..frame + 9)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    {
        let Some(end) = usize::try_from(len)
            .ok()
            .and_then(|len| (frame + 17).checked_add(len))
            .filter(|&end| end <= payload.len())
        else {
            return;
        };
        let sum = checksum(&payload[frame + 17..end]);
        payload[frame + 9..frame + 17].copy_from_slice(&sum.to_le_bytes());
        frame = end;
    }
}

/// Applies one random mutation and says what it did.
fn mutate(artifact: &mut Artifact, donor: &Artifact, rng: &mut Rng) -> String {
    const TAGS: [u8; 13] = [
        0x00, 0x01, 0x02, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, 0x7F,
    ];
    let n = artifact.sections.len();
    let i = rng.below(n);
    let tag = artifact.sections[i].0;
    match rng.below(9) {
        0 => {
            let j = rng.below(donor.sections.len());
            artifact.sections[i] = donor.sections[j].clone();
            format!("splice donor section {j} over section {i}")
        }
        1 => {
            let copy = artifact.sections[i].clone();
            artifact.sections.insert(i + 1, copy);
            format!("duplicate section {i} (tag {tag:#04x})")
        }
        2 => {
            let j = rng.below(n);
            artifact.sections.swap(i, j);
            format!("swap sections {i} and {j}")
        }
        3 => {
            let new = rng.pick(&TAGS);
            artifact.sections[i].0 = new;
            format!("re-tag section {i} from {tag:#04x} to {new:#04x}")
        }
        4 => {
            artifact.sections.remove(i);
            format!("drop section {i} (tag {tag:#04x})")
        }
        5 => {
            let payload = &mut artifact.sections[i].1;
            let cut = 1 + rng.below(9);
            if rng.below(2) == 0 {
                payload.truncate(payload.len().saturating_sub(cut));
                format!("shorten section {i} (tag {tag:#04x}) by {cut} bytes")
            } else {
                let fill = rng.pick(&[0u8, 1, 0xFF]);
                payload.resize(payload.len() + cut, fill);
                format!("pad section {i} (tag {tag:#04x}) with {cut} × {fill:#04x}")
            }
        }
        kind => {
            // Rewrite a field in place: a u64 (counts, lengths, ids) or a
            // single byte (enum tags, presence flags). The head of a payload
            // is a count in most sections, so it is hit on purpose.
            let payload = &mut artifact.sections[i].1;
            if payload.is_empty() {
                return format!("section {i} is empty; nothing to rewrite");
            }
            let what = if kind < 8 && payload.len() >= 8 {
                let at = if rng.below(3) == 0 {
                    0
                } else {
                    rng.below(payload.len() - 7)
                };
                let old = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                let lie = rng.pick(&[
                    0,
                    1,
                    old.wrapping_add(1),
                    old.wrapping_sub(1),
                    payload.len() as u64,
                    1 << 32,
                    (u64::MAX >> 3) + 1,
                    u64::MAX,
                ]);
                payload[at..at + 8].copy_from_slice(&lie.to_le_bytes());
                format!("u64 at {at}: {old} -> {lie}")
            } else {
                let at = rng.below(payload.len());
                let old = payload[at];
                let lie = rng.pick(&[0u8, 1, 2, 3, 4, 5, 9, 10, 99, 0xFF]);
                payload[at] = lie;
                format!("byte at {at}: {old} -> {lie}")
            };
            if tag == SECTION_CANDIDATE || tag == SECTION_CANDIDATE_UPDATE {
                restamp_embedded_sketch(tag, payload);
            }
            format!("section {i} (tag {tag:#04x}) {what}")
        }
    }
}

fn save_bytes(repo: &TableRepository) -> Vec<u8> {
    let mut bytes = Vec::new();
    repo.save_to(&mut bytes).unwrap();
    bytes
}

/// The contract for one (possibly mutated) repository artifact.
fn check_repository(bytes: &[u8]) {
    let loaded = TableRepository::load_from(bytes);
    match RepositorySnapshot::from_bytes(bytes.to_vec()) {
        Err(_) => assert!(loaded.is_err(), "eager load accepted what open refused"),
        Ok(snapshot) => {
            // Open succeeded, so every candidate decodes on first touch.
            for index in 0..snapshot.candidate_count() {
                let _ = snapshot.candidate(index);
            }
            // The eager load may still refuse: it alone decodes builder
            // state. When it accepts, re-saving reaches canonical bytes.
            if let Ok(repo) = loaded {
                let canonical = save_bytes(&repo);
                let again = TableRepository::load_from(canonical.as_slice())
                    .expect("canonical re-save must load");
                assert_eq!(save_bytes(&again), canonical, "re-save is not canonical");
            }
        }
    }
}

/// Runs `pristine` and `cases` seeded mutations of it through `check`,
/// reporting the seed and the mutation when the contract breaks.
fn sweep(pristine: &[u8], donor: &[u8], cases: u64, check: impl Fn(&[u8])) {
    let base = Artifact::parse(pristine);
    let donor = Artifact::parse(donor);
    assert_eq!(base.encode(), pristine, "re-framing must be the identity");
    check(pristine);
    for seed in 0..cases {
        let mut rng = Rng(seed);
        let mut artifact = base.clone();
        let mut applied = Vec::new();
        for _ in 0..1 + rng.below(2) {
            applied.push(mutate(&mut artifact, &donor, &mut rng));
        }
        let bytes = artifact.encode();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&bytes)));
        assert!(
            outcome.is_ok(),
            "seed {seed} broke the contract after: {applied:?}"
        );
    }
}

/// A three-table repository, a file of it carrying two append groups, and
/// the query the ranking checks use.
fn corpus() -> (TableRepository, Vec<u8>, RelationshipQuery) {
    let scenario = TaxiScenario::generate(30, 10, 3);
    let demo = scenario.demographics.clone();
    let mut repo = TableRepository::new(RepositoryConfig {
        sketch: SKETCH,
        ..RepositoryConfig::default()
    });
    repo.add_table(scenario.weather.clone()).unwrap();
    repo.add_table(demo.slice_rows(0..6)).unwrap();
    repo.add_table(scenario.inspections.clone()).unwrap();
    let flat = repo.clone();

    let path = std::env::temp_dir().join(format!(
        "joinmi-mutation-{}-{:?}.jmi",
        std::process::id(),
        std::thread::current().id()
    ));
    repo.save(&path).unwrap();
    for rows in [6..8, 8..demo.num_rows()] {
        repo.append_rows(&demo.slice_rows(rows)).unwrap();
        repo.append_to(&path).unwrap();
    }
    let appended = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let query = RelationshipQuery::new(scenario.taxi, "zipcode", "num_trips")
        .with_sketch(SketchKind::Tupsk, SKETCH)
        .with_min_join_size(5);
    (flat, appended, query)
}

fn fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, usize)> {
    let bits = |r: &RankedCandidate| (r.candidate_index, r.mi.to_bits(), r.sketch_join_size);
    results.iter().map(bits).collect()
}

#[test]
fn mutated_repositories_are_typed_errors_or_values_never_panics() {
    let (flat, appended, _) = corpus();
    let mut sealed = flat.clone();
    sealed.seal();
    let (flat, sealed) = (save_bytes(&flat), save_bytes(&sealed));
    // A flat save is already canonical.
    let reloaded = TableRepository::load_from(flat.as_slice()).unwrap();
    assert_eq!(save_bytes(&reloaded), flat);
    sweep(&appended, &flat, 1500, check_repository);
    sweep(&flat, &appended, 900, check_repository);
    sweep(&sealed, &appended, 600, check_repository);
}

/// The payload of the first CANDIDATE_STATE section.
fn first_builder_state(artifact: &mut Artifact) -> &mut Vec<u8> {
    artifact
        .sections
        .iter_mut()
        .find(|(tag, _)| *tag == SECTION_CANDIDATE_STATE)
        .map(|(_, payload)| payload)
        .unwrap()
}

/// A file whose builder state is invalid but checksum-valid still opens
/// read-only and ranks like `appended`, while the eager paths — load and
/// compact — refuse it as corrupt and compact leaves the file untouched.
fn assert_serves_read_only_but_is_corrupt_to_load_and_compact(
    appended: &[u8],
    mutated: &[u8],
    query: &RelationshipQuery,
) {
    let pristine = RepositorySnapshot::from_bytes(appended.to_vec()).unwrap();
    let expected = fingerprint(&query.execute(&pristine).unwrap());
    assert!(!expected.is_empty());

    // Read-only: opens, every candidate decodes, ranks bit-identically.
    let snapshot = RepositorySnapshot::from_bytes(mutated.to_vec()).unwrap();
    assert_eq!(fingerprint(&query.execute(&snapshot).unwrap()), expected);
    for index in 0..snapshot.candidate_count() {
        let _ = snapshot.candidate(index);
    }

    // Eager paths decode the state and refuse it, typed; compact leaves the
    // file exactly as it found it.
    assert!(matches!(
        TableRepository::load_from(mutated),
        Err(StoreError::Corrupt(_))
    ));
    let path = std::env::temp_dir().join(format!(
        "joinmi-bad-state-{}-{:?}.jmi",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, mutated).unwrap();
    assert!(matches!(
        TableRepository::load(&path),
        Err(StoreError::Corrupt(_))
    ));
    assert!(matches!(
        TableRepository::compact(&path, CompactMode::Preserve),
        Err(StoreError::Corrupt(_))
    ));
    assert_eq!(std::fs::read(&path).unwrap(), mutated);
    std::fs::remove_file(&path).unwrap();
}

/// Both the snapshot open and the eager load refuse `bytes` as corrupt.
fn assert_corrupt_to_open_and_load(bytes: &[u8], what: &str) {
    assert!(
        matches!(
            RepositorySnapshot::from_bytes(bytes.to_vec()),
            Err(StoreError::Corrupt(_))
        ),
        "open: {what}"
    );
    assert!(
        matches!(
            TableRepository::load_from(bytes),
            Err(StoreError::Corrupt(_))
        ),
        "load: {what}"
    );
}

#[test]
fn invalid_builder_state_serves_read_only_and_is_corrupt_to_load_and_compact() {
    let (_, appended, query) = corpus();

    // Swap the first two seen-key digests of the first builder state: every
    // byte still parses, but the seen set is no longer sorted.
    let mut artifact = Artifact::parse(&appended);
    let state = first_builder_state(&mut artifact);
    let seen_start = {
        let mut p = SliceReader::new(state);
        assert_eq!(p.read_u8("presence flag").unwrap(), 1);
        p.read_slice(4, "kind, aggregation, key dtype, input dtype")
            .unwrap();
        p.read_u64("size").unwrap();
        p.read_u64("seed").unwrap();
        p.read_str("key column").unwrap();
        p.read_str("value column").unwrap();
        p.read_u64("source rows").unwrap();
        assert_eq!(p.read_u8("selection variant").unwrap(), 1, "KMV state");
        assert!(p.read_u64("seen count").unwrap() >= 2);
        p.position()
    };
    let (first, second) = state[seen_start..seen_start + 16].split_at_mut(8);
    first.swap_with_slice(second);
    let mutated = artifact.encode();
    assert_eq!(mutated.len(), appended.len());
    assert_serves_read_only_but_is_corrupt_to_load_and_compact(&appended, &mutated, &query);
}

#[test]
fn builder_state_kind_other_than_tupsk_is_corrupt_to_load_and_compact() {
    let (_, appended, query) = corpus();
    let base = Artifact::parse(&appended);
    // After the presence flag: the kind byte every writer sets to TUPSK's 1.
    let mut probe = base.clone();
    assert_eq!(&first_builder_state(&mut probe)[..2], &[1, 1]);
    for kind in [0u8, 2, 3, 4, 5, 0xFF] {
        let mut artifact = base.clone();
        first_builder_state(&mut artifact)[1] = kind;
        assert_serves_read_only_but_is_corrupt_to_load_and_compact(
            &appended,
            &artifact.encode(),
            &query,
        );
    }
}

#[test]
fn repo_meta_kind_other_than_tupsk_is_corrupt() {
    let (flat, appended, _) = corpus();
    for pristine in [save_bytes(&flat), appended] {
        let base = Artifact::parse(&pristine);
        assert_eq!(base.sections[0].0, SECTION_REPO_META);
        assert_eq!(base.sections[0].1[0], 1, "REPO_META kind byte");
        for kind in [0u8, 2, 3, 4, 5, 0xFF] {
            let mut artifact = base.clone();
            artifact.sections[0].1[0] = kind;
            assert_corrupt_to_open_and_load(&artifact.encode(), &format!("REPO_META kind {kind}"));
        }
    }
}

/// Rewrites byte `field` of the META payload of the sketch embedded in the
/// first `tag` section — a base CANDIDATE or an append group's
/// CANDIDATE_UPDATE — re-stamping the nested checksums, and checks the
/// repository is refused.
fn assert_candidate_meta_byte_is_corrupt(field: usize, pristine: u8, values: &[u8]) {
    let (flat, appended, _) = corpus();
    for (bytes, tag) in [
        (save_bytes(&flat), SECTION_CANDIDATE),
        (appended, SECTION_CANDIDATE_UPDATE),
    ] {
        let base = Artifact::parse(&bytes);
        let section = base.sections.iter().position(|(t, _)| *t == tag).unwrap();
        let meta_at = {
            let mut p = SliceReader::new(&base.sections[section].1);
            if tag == SECTION_CANDIDATE_UPDATE {
                p.read_u64("id").unwrap();
            }
            p.read_u64("table index").unwrap();
            for _ in 0..3 {
                p.read_str("name").unwrap();
            }
            p.read_u8("aggregation").unwrap();
            // The embedded META section's frame: tag, length, checksum.
            p.position() + 17
        };
        assert_eq!(base.sections[section].1[meta_at + field], pristine);
        for &value in values {
            let mut artifact = base.clone();
            let body = &mut artifact.sections[section].1;
            body[meta_at + field] = value;
            restamp_embedded_sketch(tag, body);
            assert_corrupt_to_open_and_load(
                &artifact.encode(),
                &format!("section {tag:#04x}, META byte {field} = {value}"),
            );
        }
    }
}

#[test]
fn candidate_sketch_kind_other_than_tupsk_is_corrupt() {
    // The tags that named LV2SK, PRISK, INDSK and CSK in retired standalone
    // sketch files are refused inside a repository.
    assert_candidate_meta_byte_is_corrupt(0, 1, &[2, 3, 4, 5]);
}

#[test]
fn candidate_sketch_side_other_than_right_is_corrupt() {
    // Left (1) is a valid side tag, but not for a candidate.
    assert_candidate_meta_byte_is_corrupt(1, 2, &[1]);
}

#[test]
fn candidate_sketch_with_more_rows_than_its_size_is_corrupt() {
    // Byte 3 is the low byte of the config size (48). Sizes 0 and 1 fall
    // below the first candidates' row counts, which no writer produces.
    assert_candidate_meta_byte_is_corrupt(3, SKETCH.size as u8, &[0, 1]);
}

#[test]
fn distinct_sketch_presence_other_than_one_is_corrupt() {
    let (flat, _, _) = corpus();
    let mut artifact = Artifact::parse(&save_bytes(&flat));
    let section = artifact
        .sections
        .iter()
        .position(|(tag, _)| *tag == SECTION_FEATURE_DISTINCT)
        .unwrap();
    let flag_at = {
        let mut p = SliceReader::new(&artifact.sections[section].1);
        assert!(p.read_len("table count").unwrap() > 0);
        assert!(p.read_len("column count").unwrap() > 0);
        p.position()
    };
    assert_eq!(artifact.sections[section].1[flag_at], 1);

    // Every writer emits 1; the absent form (0) and everything else is
    // refused, typed, by both the snapshot open and the eager load.
    for flag in [0u8, 2, 0xFF] {
        artifact.sections[section].1[flag_at] = flag;
        let bytes = artifact.encode();
        assert!(
            matches!(
                RepositorySnapshot::from_bytes(bytes.clone()),
                Err(StoreError::Corrupt(_))
            ),
            "flag {flag}"
        );
        assert!(
            matches!(
                TableRepository::load_from(bytes.as_slice()),
                Err(StoreError::Corrupt(_))
            ),
            "flag {flag}"
        );
    }
}
