//! The deterministic 32×8 pipeline corpus shared by the ratio ledger and
//! the `ingest` / `query` CLI subcommands.
//!
//! Both halves of the offline/online split must be able to regenerate the
//! *identical* corpus from nothing but a row count: the `query` subcommand
//! (online process) rebuilds the in-memory repository from these generators
//! and asserts its ranking is bit-for-bit equal to the one answered from the
//! repository file written by `ingest` (offline process). Everything here is
//! seeded LCG arithmetic — no ambient randomness.

use joinmi_discovery::{RankedCandidate, RelationshipQuery, RepositoryConfig, TableRepository};
use joinmi_sketch::{SketchConfig, SketchKind};
use joinmi_table::Table;

/// Number of candidate tables in the pipeline corpus.
pub const NUM_TABLES: usize = 32;
/// Feature columns per candidate table.
pub const FEATURES_PER_TABLE: usize = 8;
/// Size of the shared join-key universe.
pub const KEY_UNIVERSE: usize = 600;

/// Rows per table with (CI) and without `--quick`.
#[must_use]
pub fn rows_for(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        8_000
    }
}

/// A deterministic candidate table: string keys from the shared universe plus
/// eight numeric feature columns derived from the key index.
#[must_use]
pub fn candidate_table(index: usize, rows: usize) -> Table {
    let mut state = 0x9E37_79B9u64.wrapping_mul(index as u64 + 1) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let key_ids: Vec<u64> = (0..rows).map(|_| next() % KEY_UNIVERSE as u64).collect();
    let keys: Vec<String> = key_ids.iter().map(|k| format!("zip-{k}")).collect();
    let mut builder = Table::builder(format!("cand{index}")).push_str_column("key", keys);
    for f in 0..FEATURES_PER_TABLE {
        // Feature = deterministic function of the key plus per-table noise,
        // so the planted key → feature relationships carry real MI.
        let values: Vec<f64> = key_ids
            .iter()
            .map(|&k| (k as f64).mul_add(f as f64 + 1.0, (next() % 97) as f64 / 97.0))
            .collect();
        builder = builder.push_float_column(&format!("f{f}"), values);
    }
    builder.build().expect("candidate table")
}

/// All candidate tables of the corpus.
#[must_use]
pub fn candidate_tables(rows: usize) -> Vec<Table> {
    (0..NUM_TABLES).map(|i| candidate_table(i, rows)).collect()
}

/// The candidate tables assigned to shard `shard` of `num_shards`, under the
/// contiguous partitioning the serving layer's exact-merge argument assumes:
/// shard `s` holds tables `[s*ceil(N/num_shards), (s+1)*ceil(N/num_shards))`,
/// so concatenating the shards in order reassembles [`candidate_tables`]
/// exactly — and therefore a sharded daemon's merged ranking is bit-for-bit
/// the single-repository ranking.
#[must_use]
pub fn shard_tables(rows: usize, shard: usize, num_shards: usize) -> Vec<Table> {
    assert!(num_shards > 0, "num_shards must be positive");
    assert!(shard < num_shards, "shard index out of range");
    let chunk = NUM_TABLES.div_ceil(num_shards);
    (shard * chunk..NUM_TABLES.min((shard + 1) * chunk))
        .map(|i| candidate_table(i, rows))
        .collect()
}

/// Rows per table in the *base* (pre-append) corpus: everything except the
/// append tail (1% of rows, at least one). The incremental-ingest workload
/// ingests `append_split(rows)` rows per table, then appends the remaining
/// `rows - append_split(rows)`; the result must be bit-for-bit identical to
/// ingesting all `rows` at once.
#[must_use]
pub fn append_split(rows: usize) -> usize {
    rows - (rows / 100).max(1).min(rows)
}

/// The base corpus: every candidate table truncated to its first
/// [`append_split`] rows. Slices of the full deterministic tables, so base +
/// tail reassemble the one-shot corpus exactly.
#[must_use]
pub fn base_tables(rows: usize) -> Vec<Table> {
    let split = append_split(rows);
    (0..NUM_TABLES)
        .map(|i| candidate_table(i, rows).slice_rows(0..split))
        .collect()
}

/// The append tail: the last `rows - append_split(rows)` rows of every
/// candidate table (the chunks an ingest daemon would receive).
#[must_use]
pub fn tail_tables(rows: usize) -> Vec<Table> {
    let split = append_split(rows);
    (0..NUM_TABLES)
        .map(|i| candidate_table(i, rows).slice_rows(split..rows))
        .collect()
}

/// The base (query) table: keys from the same universe and a target driven by
/// the key index.
#[must_use]
pub fn query_table(rows: usize) -> Table {
    let mut state = 0xBEEF_CAFEu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let key_ids: Vec<u64> = (0..rows).map(|_| next() % KEY_UNIVERSE as u64).collect();
    let keys: Vec<String> = key_ids.iter().map(|k| format!("zip-{k}")).collect();
    let target: Vec<i64> = key_ids
        .iter()
        .map(|&k| (k * 3 + next() % 5) as i64)
        .collect();
    Table::builder("train")
        .push_str_column("key", keys)
        .push_int_column("target", target)
        .build()
        .expect("query table")
}

/// The repository configuration used by the pipeline workload (TUPSK,
/// sketch size 512, seed 3).
#[must_use]
pub fn repo_config() -> RepositoryConfig {
    RepositoryConfig {
        sketch: SketchConfig::new(512, 3),
        ..RepositoryConfig::default()
    }
}

/// Ingests the whole corpus into a fresh repository.
#[must_use]
pub fn build_repository(rows: usize) -> TableRepository {
    let mut repo = TableRepository::new(repo_config());
    repo.add_tables(candidate_tables(rows)).expect("ingest");
    repo
}

/// The standard ranked relationship query over the corpus (unlimited k, so
/// fingerprints cover every surviving candidate).
#[must_use]
pub fn standard_query(rows: usize) -> RelationshipQuery {
    RelationshipQuery::new(query_table(rows), "key", "target")
        .with_sketch(SketchKind::Tupsk, SketchConfig::new(512, 3))
        .with_min_join_size(10)
        .with_top_k(0)
}

/// Key universe of the skewed uncertainty corpus (see [`skewed_tables`]).
pub const SKEWED_KEYS: usize = 64;
/// Strong candidate tables in the skewed uncertainty corpus.
pub const SKEWED_STRONG: usize = 3;
/// Weak-tail tables in the skewed uncertainty corpus.
pub const SKEWED_WEAK: usize = 120;
/// Shared keys per weak-tail table in the skewed uncertainty corpus.
pub const SKEWED_WEAK_OVERLAP: usize = 8;

/// The corpus of the uncertainty-ranking workload: a strong tie group —
/// [`SKEWED_STRONG`] tables with full key overlap and one-to-one string
/// features, every MI exactly `ln SKEWED_KEYS` — ahead of a weak tail of
/// [`SKEWED_WEAK`] tables that share only [`SKEWED_WEAK_OVERLAP`] keys
/// each. The tail's cheap MI upper bound (`ln(overlap + 1) + γ` ≈ 2.77 nats) sits below the
/// strong group's credible lower bound (≈ 3.7 nats), so an interval top-k
/// query early-terminates the entire tail after the first screening chunk
/// while an exhaustive query must join and estimate every table.
#[must_use]
pub fn skewed_tables() -> Vec<Table> {
    fn strs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }
    let keys: Vec<String> = (0..SKEWED_KEYS).map(|i| format!("key-{i:02}")).collect();
    let mut tables = Vec::with_capacity(SKEWED_STRONG + SKEWED_WEAK);
    for t in 0..SKEWED_STRONG {
        let feature: Vec<String> = (0..SKEWED_KEYS).map(|i| format!("f{t}-{i}")).collect();
        tables.push(
            Table::builder(format!("strong{t}"))
                .push_str_column("key", strs(&keys))
                .push_str_column("feat", strs(&feature))
                .build()
                .expect("strong table"),
        );
    }
    for t in 0..SKEWED_WEAK {
        let mut weak_keys: Vec<String> = (0..SKEWED_WEAK_OVERLAP)
            .map(|i| format!("key-{i:02}"))
            .collect();
        weak_keys.extend((0..40).map(|j| format!("weak{t}-{j}")));
        let feature: Vec<String> = (0..weak_keys.len()).map(|i| format!("w{t}-{i}")).collect();
        tables.push(
            Table::builder(format!("weak{t}"))
                .push_str_column("key", strs(&weak_keys))
                .push_str_column("feat", strs(&feature))
                .build()
                .expect("weak table"),
        );
    }
    tables
}

/// Repository configuration for the skewed uncertainty corpus.
#[must_use]
pub fn skewed_config() -> RepositoryConfig {
    RepositoryConfig {
        sketch: SketchConfig::new(256, 5),
        ..RepositoryConfig::default()
    }
}

/// The base query of the uncertainty-ranking workload: interval scoring at
/// the 95% level over the full skewed key universe. Callers pick `top_k`
/// (0 = exhaustive baseline, small k = early-terminating run).
#[must_use]
pub fn skewed_query() -> RelationshipQuery {
    let keys: Vec<String> = (0..SKEWED_KEYS).map(|i| format!("key-{i:02}")).collect();
    let target: Vec<String> = (0..SKEWED_KEYS).map(|i| format!("t{i}")).collect();
    let train = Table::builder("train")
        .push_str_column("key", keys.iter().map(String::as_str).collect::<Vec<_>>())
        .push_str_column(
            "target",
            target.iter().map(String::as_str).collect::<Vec<_>>(),
        )
        .build()
        .expect("skewed train table");
    RelationshipQuery::new(train, "key", "target")
        .with_sketch(SketchKind::Tupsk, SketchConfig::new(256, 5))
        .with_min_join_size(3)
        .with_confidence(0.95)
}

/// Fingerprint of a ranking for bit-for-bit identity checks across
/// processes: candidate index, exact MI bits, join size, key overlap.
#[must_use]
pub fn ranking_fingerprint(results: &[RankedCandidate]) -> Vec<(usize, u64, usize, usize)> {
    results
        .iter()
        .map(|r| {
            (
                r.candidate_index,
                r.mi.to_bits(),
                r.sketch_join_size,
                r.key_overlap,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_across_calls() {
        let a = candidate_table(3, 200);
        let b = candidate_table(3, 200);
        assert_eq!(a.num_rows(), 200);
        for row in 0..10 {
            assert_eq!(a.value(row, "key").unwrap(), b.value(row, "key").unwrap());
            assert_eq!(a.value(row, "f0").unwrap(), b.value(row, "f0").unwrap());
        }
        let qa = query_table(100);
        let qb = query_table(100);
        assert_eq!(
            qa.value(7, "target").unwrap(),
            qb.value(7, "target").unwrap()
        );
    }

    #[test]
    fn base_plus_tail_reassembles_the_corpus() {
        let rows = 300;
        assert_eq!(append_split(rows), 297);
        let full = candidate_tables(rows);
        let base = base_tables(rows);
        let tail = tail_tables(rows);
        for ((full, base), tail) in full.iter().zip(&base).zip(&tail) {
            assert_eq!(base.num_rows() + tail.num_rows(), full.num_rows());
            assert_eq!(&base.vstack(tail).unwrap(), full);
        }
        // Tiny corpora still split off at least one row.
        assert_eq!(append_split(5), 4);
        assert_eq!(append_split(1), 0);
    }

    #[test]
    fn shards_reassemble_the_corpus_in_order() {
        for num_shards in [1, 3, 5, 32] {
            let sharded: Vec<Table> = (0..num_shards)
                .flat_map(|s| shard_tables(50, s, num_shards))
                .collect();
            assert_eq!(sharded, candidate_tables(50), "num_shards={num_shards}");
        }
        // More shards than tables: the excess shards are empty.
        assert!(shard_tables(50, 32, 33).is_empty());
    }

    #[test]
    fn repository_and_query_produce_stable_fingerprints() {
        let repo = build_repository(300);
        assert_eq!(repo.candidates().len(), NUM_TABLES * FEATURES_PER_TABLE);
        let query = standard_query(300);
        let f1 = ranking_fingerprint(&query.execute(&repo).unwrap());
        let f2 = ranking_fingerprint(&query.execute(&repo).unwrap());
        assert!(!f1.is_empty());
        assert_eq!(f1, f2);
    }
}
