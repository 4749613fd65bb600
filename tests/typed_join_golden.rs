//! Golden pin of the sketch-join → estimate path on a small mixed
//! string/numeric corpus.
//!
//! `GOLDEN` was recorded at the commit *before* sketch joins carried typed
//! code/float columns (when `JoinedSketch` still held cloned `Value`s and
//! every estimate re-discretized them), so a match proves the typed path
//! reproduces every candidate, `mi`, `ci_lo`, `ci_hi`, variance and join size
//! of that implementation bit for bit — through the parallel engine, the
//! sequential cached engine (cold, estimate-level hits, join-level hits) and
//! a snapshot reopened from disk.

use joinmi::discovery::{QueryStageCache, RankedCandidate, RepositoryConfig, StageCacheConfig};
use joinmi::prelude::*;
use joinmi::table::{DataType, Table, Value};

const GOLDEN: u64 = 0x805a_b6eb_a08d_c9ea;

/// A tiny deterministic generator (no dependency on the vendored `rand`).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const KEYS: u64 = 90;

fn key(i: u64) -> Value {
    Value::from(format!("key-{i:03}"))
}

/// Candidate tables: a string key with repeats, one categorical, one integer
/// and one float feature, each a noisy function of the key, with NULLs.
fn candidate_table(t: u64) -> Table {
    let mut rng = Lcg(0x5EED_0000 + t);
    let rows = 260 + 20 * t;
    let (mut keys, mut cats, mut ints, mut floats) = (vec![], vec![], vec![], vec![]);
    for _ in 0..rows {
        let k = rng.below(KEYS + 10 * t);
        keys.push(if rng.below(40) == 0 {
            Value::Null
        } else {
            key(k)
        });
        let noise = rng.below(3 + t);
        cats.push(if rng.below(17) == 0 {
            Value::Null
        } else {
            Value::from(format!("c{}", (k % (4 + t) + noise) % 7))
        });
        ints.push(if rng.below(19) == 0 {
            Value::Null
        } else {
            Value::Int(((k * (t + 2)) % 11 + noise) as i64)
        });
        floats.push(if rng.below(23) == 0 {
            Value::Null
        } else {
            Value::Float((k % 13) as f64 * 0.5 + noise as f64 * 0.125)
        });
    }
    Table::builder(format!("cand{t}"))
        .push_value_column("key", DataType::Str, &keys)
        .unwrap()
        .push_value_column("cat", DataType::Str, &cats)
        .unwrap()
        .push_value_column("count", DataType::Int, &ints)
        .unwrap()
        .push_value_column("level", DataType::Float, &floats)
        .unwrap()
        .build()
        .unwrap()
}

/// The query table: repeated keys, one target per data type, some NULLs.
fn train_table() -> Table {
    let mut rng = Lcg(0x7EA1);
    let (mut keys, mut labels, mut counts, mut scores) = (vec![], vec![], vec![], vec![]);
    for _ in 0..420 {
        let k = rng.below(KEYS);
        let noise = rng.below(4);
        keys.push(key(k));
        labels.push(if rng.below(29) == 0 {
            Value::Null
        } else {
            Value::from(format!("y{}", (k % 6 + noise) % 8))
        });
        counts.push(if rng.below(31) == 0 {
            Value::Null
        } else {
            Value::Int((k % 9 + noise) as i64)
        });
        scores.push(Value::Float((k % 10) as f64 + noise as f64 * 0.25));
    }
    Table::builder("train")
        .push_value_column("key", DataType::Str, &keys)
        .unwrap()
        .push_value_column("label", DataType::Str, &labels)
        .unwrap()
        .push_value_column("count", DataType::Int, &counts)
        .unwrap()
        .push_value_column("score", DataType::Float, &scores)
        .unwrap()
        .build()
        .unwrap()
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn absorb(hash: &mut u64, ranking: &[RankedCandidate]) {
    fnv1a(hash, ranking.len() as u64);
    for r in ranking {
        fnv1a(hash, r.candidate_index as u64);
        fnv1a(hash, r.mi.to_bits());
        fnv1a(hash, r.sketch_join_size as u64);
        match &r.interval {
            Some(iv) => {
                fnv1a(hash, iv.ci_lo.to_bits());
                fnv1a(hash, iv.ci_hi.to_bits());
                fnv1a(hash, iv.variance.to_bits());
            }
            None => fnv1a(hash, u64::MAX),
        }
    }
}

fn queries() -> Vec<RelationshipQuery> {
    let sketch = SketchConfig::new(128, 17);
    let mut queries = Vec::new();
    for target in ["label", "count", "score"] {
        let base = RelationshipQuery::new(train_table(), "key", target)
            .with_sketch(SketchKind::Tupsk, sketch)
            .with_min_join_size(12);
        queries.push(base.clone().with_top_k(0));
        queries.push(base.clone().with_top_k(0).with_confidence(0.9));
        queries.push(base.with_top_k(3).with_confidence(0.95));
    }
    queries
}

/// Hash of every query's ranking through one way of executing it.
fn digest(mut run: impl FnMut(&RelationshipQuery) -> Vec<RankedCandidate>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for query in queries() {
        let ranking = run(&query);
        assert!(!ranking.is_empty(), "a golden query ranked nothing");
        absorb(&mut hash, &ranking);
    }
    hash
}

#[test]
fn rankings_match_the_value_cloning_implementation_bit_for_bit() {
    let mut repo = TableRepository::new(RepositoryConfig {
        sketch: SketchConfig::new(128, 17),
        ..RepositoryConfig::default()
    });
    repo.add_tables((0..5).map(candidate_table).collect())
        .unwrap();

    let parallel = digest(|q| q.execute(&repo).unwrap());
    assert_eq!(parallel, GOLDEN, "execute: {parallel:#018x}");

    // One shared cache: a cold pass, a pass of estimate-level hits, then a
    // pass of join-level hits re-estimated from the cached typed columns.
    let cache = QueryStageCache::new(StageCacheConfig::default());
    let scope = cache.scope(0);
    let mut ws = EstimatorWorkspace::new();
    for pass in ["cold", "estimate hits", "join hits"] {
        if pass == "join hits" {
            cache.clear_estimates();
        }
        let cached = digest(|q| {
            q.execute_in_cached_stats(&repo, &mut ws, Some(&scope))
                .map(|(r, _)| r)
                .unwrap()
        });
        assert_eq!(
            cached, GOLDEN,
            "execute_in_cached_stats ({pass}): {cached:#018x}"
        );
    }
    let stats = cache.stats();
    assert!(stats.estimate_hits > 0 && stats.join_hits > 0, "{stats:?}");

    let path = std::env::temp_dir().join(format!("joinmi-typed-golden-{}.jmi", std::process::id()));
    repo.save(&path).unwrap();
    let snapshot = TableRepository::load_mmap_like(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let reopened = digest(|q| q.execute(&snapshot).unwrap());
    assert_eq!(reopened, GOLDEN, "reopened snapshot: {reopened:#018x}");
}
